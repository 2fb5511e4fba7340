import json,sys,statistics as st
f=sys.argv[1]
rows=[json.loads(l) for l in open(f)]
better={'tps':1,'lat_p50_us':-1,'lat_p95_us':-1,'cpu_us_per_txn':-1,'disk_bytes_per_txn':-1,'peak_rss_mb':-1,'recovery_s':-1,'setup_s':-1}
by={}
for r in rows:
    side=r['side']; by.setdefault(side,{})[r['seed']]=r['r']
sides=sorted(by)  # change, parent
P=[s for s in sides if s.endswith('parent')][0]; C=[s for s in sides if s.endswith('change')][0]
seeds=sorted(set(by[P])&set(by[C]))
print(f, 'pairs:',len(seeds),'seeds',seeds)
fa=lambda side: sum(by[side][s]['failed'] for s in seeds)
print('failed parent/change',fa(P),fa(C),'correct', all(by[x][s]['correct'] for x in (P,C) for s in seeds))
def q(v):
    v=sorted(v); 
    qs=st.quantiles(v,n=4,method='inclusive') if len(v)>1 else [v[0]]*3
    return qs
for m,d in better.items():
    pv=[by[P][s]['metrics'][m]['value'] for s in seeds]; cv=[by[C][s]['metrics'][m]['value'] for s in seeds]
    wins=sum(1 for a,b in zip(pv,cv) if (b-a)*d>0); ties=sum(1 for a,b in zip(pv,cv) if a==b)
    pq=q(pv); cq=q(cv)
    print(f"{m:20s} parent med {pq[1]:12.3f} [q1 {pq[0]:.3f} q3 {pq[2]:.3f} iqr {pq[2]-pq[0]:.3f}]  change med {cq[1]:12.3f} [q1 {cq[0]:.3f} q3 {cq[2]:.3f}]  delta {100*(cq[1]-pq[1])/pq[1]:+.1f}%  wins {wins}/{len(seeds)} ties {ties}")
if '-v' in sys.argv:
    for s in seeds:
        print(s, ' '.join(f"{m}={by[P][s]['metrics'][m]['value']:.4g}/{by[C][s]['metrics'][m]['value']:.4g}" for m in better))
