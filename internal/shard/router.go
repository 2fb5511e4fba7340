package shard

import (
	"os"
	"path/filepath"

	"repro/internal/row"
)

// ShardOf returns which of n shards owns the rows whose leading
// primary-key column holds lead: FNV-1a over that one value with the
// fixed seed, modulo n. It is the node's only routing rule (DESIGN.md
// §12). Rows that share a leading key value share a shard, so a
// transaction that stays inside one value (a TPC-C warehouse) commits
// on one shard. The mapping is persisted implicitly in which shard's
// logs hold a row, so it must be identical across restarts.
// Zero-allocation: the hot path of every routed ISUD.
func ShardOf(lead row.Value, n int) int {
	if n <= 1 {
		return 0
	}
	return int(lead.Hash64(row.HashSeed) % uint64(n))
}

// router applies ShardOf to a node's operations.
type router struct {
	n int
}

// shardOfKey routes a point operation by its primary-key values. A
// one-shard node returns before the call, inlined into every routed
// operation.
func (r router) shardOfKey(pk []row.Value) int {
	if r.n == 1 || len(pk) == 0 {
		return 0
	}
	return ShardOf(pk[0], r.n)
}

// shardOfRow routes an insert by the row's leading primary-key column,
// to the shard shardOfKey finds from the bare key values.
func (r router) shardOfRow(rw row.Row, pkOrds []int) int {
	if r.n == 1 {
		return 0
	}
	return ShardOf(rw[pkOrds[0]], r.n)
}

// A node directory records its routing rule in the file routingMark.
// Rows in a multi-shard directory without it were placed by an older
// rule that hashed the whole primary key: a composite key would now be
// looked for, and inserted again, on another shard, so such a
// directory is refused (ResolveShards).
const (
	routingMark = "routing"
	routingRule = "fnv1a(leading primary-key column)\n"
)

// routedByThisRule reports whether dir carries this router's mark.
func routedByThisRule(dir string) bool {
	b, err := os.ReadFile(filepath.Join(dir, routingMark))
	return err == nil && string(b) == routingRule
}

// markRouting records the routing rule in dir, once, before any shard
// directory exists under it: the file is renamed into place whole.
func markRouting(dir string) error {
	if routedByThisRule(dir) {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, routingMark+".tmp")
	if err := os.WriteFile(tmp, []byte(routingRule), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, routingMark))
}
