package main

import (
	"time"

	"repro/internal/storage/disk"
)

const pageSize = disk.PageSize

// The workloads. Sizes are stated relative to the two caches the engine
// has: the IMRS (row cache, bytes) and the buffer pool (pages of 8 KiB).

var kvHot = kvSpec{
	name:    "kv_hot",
	rows:    200_000, // ≈30 MB of rows inside a 128 MB IMRS: everything stays in memory
	readPct: 95, readGets: 4,
	keys:   func(n int64) keygen { return newZipf(n, 0.99) },
	warmup: 20_000,
	cfg:    stackConfig{shards: 1, imrsBytes: 128 << 20, bufferPages: 4096},

	smokeRows: 2_000,
	smokeCfg:  stackConfig{shards: 1, imrsBytes: 16 << 20, bufferPages: 256},
}

var kvCold = kvSpec{
	name:    "kv_cold",
	rows:    150_000, // ≈19 MB of rows against an 8 MB IMRS and a 4 MB buffer pool
	withTag: true,
	readPct: 50, readGets: 1,
	keys: func(n int64) keygen {
		w := int64(25_000)
		if w > n/4 {
			w = n / 4
		}
		return &slidingWindow{n: n, width: w, stride: 10, hotPct: 80}
	},
	scanner: true,
	warmup:  20_000,
	cfg:     stackConfig{shards: 1, imrsBytes: 8 << 20, bufferPages: 512, fileData: true, checkpointEvery: 500 * time.Millisecond},

	smokeRows: 5_000,
	smokeCfg:  stackConfig{shards: 1, imrsBytes: 1 << 20, bufferPages: 64, fileData: true, checkpointEvery: 100 * time.Millisecond},
}

var commitDurable = kvSpec{
	name:    "commit_durable",
	rows:    100_000, // fits the 128 MB IMRS; the cost is the commit
	ledger:  true,
	readPct: 0,
	keys:    func(n int64) keygen { return uniformKeys{n} },
	warmup:  1_000,
	cfg:     stackConfig{shards: 1, imrsBytes: 128 << 20, bufferPages: 4096, fileData: true, fileLogs: true},

	smokeRows: 2_000,
	smokeCfg:  stackConfig{shards: 1, imrsBytes: 16 << 20, bufferPages: 256, fileData: true, fileLogs: true},
}

func kvWorkload(s kvSpec, why string, tailTxns int) workloadDef {
	return workloadDef{name: s.name, why: why, tailTxns: tailTxns, cfg: s.cfg, smokeCfg: s.smokeCfg, open: s.open}
}

var workloads = []workloadDef{
	{
		name:     "tpcc_wire",
		why:      "full TPC-C mix as prepared, pipelined SQL over loopback TCP against a 2-shard node: the only workload where server, sql and shard (every NewOrder is 2PC) do most of the work",
		tailTxns: 3_000,
		cfg:      stackConfig{shards: 2, imrsBytes: 24 << 20, bufferPages: 4096, checkpointEvery: 500 * time.Millisecond},
		smokeCfg: stackConfig{shards: 2, imrsBytes: 4 << 20, bufferPages: 256, checkpointEvery: 100 * time.Millisecond},
		open:     openTPCC,
	},
	kvWorkload(kvHot, "data set fits the IMRS: index/hash, ridmap, imrs, txn and row do the work; pack and storage must stay idle", 20_000),
	kvWorkload(kvCold, "working set exceeds IMRS and buffer pool: rows cycle IMRS → pack → cold segment → unfreeze while a second client scans", 20_000),
	kvWorkload(commitDurable, "one update + one insert per transaction on file-backed logs with a real fsync per commit group: commit wait and wal are the cost", 5_000),
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
