package btrim

import (
	"repro/internal/core"
	"repro/internal/shard"
)

// Stats is a point-in-time view of a database. The embedded snapshot is
// the node's rollup of its shards (core.Rollup states the rule for each
// field: counters sum, Health is the worst shard's, partitions merge by
// name, ...); Counters classify the node's transactions by how many
// shards they wrote, and Shards holds each shard's own snapshot.
type Stats struct {
	core.Snapshot
	shard.Counters
	Shards []core.Snapshot
}

// Stats snapshots every shard and rolls them up. The shards recover
// concurrently, so with several shards Recovery.Total is the wall time
// of the node's open rather than the slowest shard's recovery.
func (db *DB) Stats() Stats {
	per := make([]core.Snapshot, db.node.NumShards())
	for i := range per {
		per[i] = db.node.Engine(i).Stats()
	}
	s := Stats{Snapshot: core.Rollup(per), Counters: db.node.Counters(), Shards: per}
	if len(per) > 1 {
		s.Recovery.Total = db.node.OpenTime()
	}
	return s
}
