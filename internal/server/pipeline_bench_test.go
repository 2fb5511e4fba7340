package server

import (
	"net"
	"testing"

	"repro/btrim"
	"repro/internal/sql"
)

// BenchmarkPipelinedTxn prices one pipelined transaction frame (BEGIN +
// two binds + COMMIT) end to end over loopback — the unit the
// tpcc_wire workload of bench/ repeats. Run with -cpuprofile to see where the
// wire machinery spends.
func BenchmarkPipelinedTxn(b *testing.B) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := New(sql.Wrap(db))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	b.Cleanup(func() { _ = ln.Close() })

	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE acct (id INT, bal FLOAT, PRIMARY KEY (id))`); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO acct VALUES (1, 100), (2, 100)`); err != nil {
		b.Fatal(err)
	}
	p := c.Pipeline()
	p.QueuePrepare("pay", `UPDATE acct SET bal = bal + ? WHERE id = ?`)
	if res, err := p.Run(); err != nil || res[0].Err != nil {
		b.Fatalf("%v %+v", err, res)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Queue("BEGIN")
		p.QueueExecute("pay", btrim.Float64(1), btrim.Int64(1))
		p.QueueExecute("pay", btrim.Float64(1), btrim.Int64(2))
		p.Queue("COMMIT")
		results, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
