package row

// FNV-1a 64-bit constants. The offset basis doubles as the fixed router
// seed: shard assignment must be a pure function of the key so it is
// stable across process restarts (a row logged to shard k must recover
// on shard k).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashSeed is the fixed FNV-1a offset basis used as the initial hash
// state. It is deliberately a compile-time constant — never randomized
// per process — because sharded deployments persist the key→shard
// mapping implicitly in which shard's logs hold a row.
const HashSeed uint64 = fnvOffset64

// Hash64 folds v into the running FNV-1a hash h and returns the new
// state. The fold covers the value's kind tag and its canonical payload
// bytes (variable-length payloads get a terminator so adjacent values
// cannot alias), allocates nothing, and is independent of how the value
// was constructed.
func (v Value) Hash64(h uint64) uint64 {
	h = (h ^ uint64(v.kind)) * fnvPrime64
	switch v.kind {
	case KindInt64, KindFloat64:
		for s := uint(0); s < 64; s += 8 {
			h = (h ^ (v.num >> s & 0xFF)) * fnvPrime64
		}
	case KindString, KindBytes:
		for i := 0; i < len(v.str); i++ {
			h = (h ^ uint64(v.str[i])) * fnvPrime64
		}
		h = (h ^ 0xFF) * fnvPrime64
	}
	return h
}
