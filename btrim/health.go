package btrim

import (
	"errors"

	"repro/internal/core"
)

// ErrReadOnly is the sentinel every write rejected by a read-only
// engine matches with errors.Is. The returned error additionally wraps
// the root cause (for example the WAL-poisoning error), so callers can
// distinguish *why* the engine froze writes.
var ErrReadOnly = core.ErrReadOnly

// IsReadOnly reports whether err came from a write rejected because the
// engine is in the read-only health state.
func IsReadOnly(err error) bool { return errors.Is(err, core.ErrReadOnly) }

// IsRecoverableReadOnly reports whether err is a write rejected by a
// recoverable ReadOnly park — the shard is waiting for an in-doubt
// coordinator decision and the node's resolver can bring it back online
// — as opposed to the sticky poisoned-WAL freeze, which only a restart
// clears. Recoverable rejections are worth retrying after backoff.
func IsRecoverableReadOnly(err error) bool {
	var ro *core.ReadOnlyError
	return errors.As(err, &ro) && ro.Recoverable
}

// HealthState is the engine health state machine's current state,
// ordered by severity (DESIGN.md §9).
//
//	Healthy  — all subsystems nominal; full read/write service.
//	Degraded — a recoverable pressure signal is active (checkpoint
//	           failures, IMRS cache pressure, device-fault retry
//	           exhaustion, pack-relocation error streaks). The engine
//	           keeps accepting writes but routes new rows to the page
//	           store and packs aggressively until the signal clears.
//	ReadOnly — a WAL is poisoned (sticky until restart) or in-doubt
//	           transactions await a decision (recoverable); committed
//	           data keeps being served but every write returns
//	           ErrReadOnly.
//	Halted   — the engine is shut down.
type HealthState = core.HealthState

// Health states, ordered by severity.
const (
	StateHealthy  = core.StateHealthy
	StateDegraded = core.StateDegraded
	StateReadOnly = core.StateReadOnly
	StateHalted   = core.StateHalted
)

// Health is one shard's health state machine snapshot: state, active
// degraded causes, the read-only cause, the recent transitions, and the
// retry-layer counters of the page device, the WAL and the checkpoint.
type Health = core.HealthSnapshot

// HealthTransition is one recorded state-machine edge.
type HealthTransition = core.HealthTransition

// Health snapshots the health state machine of the shard in the worst
// state (shard 0's on a fully healthy node).
func (db *DB) Health() Health {
	return db.node.Engine(core.WorstHealth(db.node.NumShards(), db.ShardHealth)).Health()
}

// ShardHealth returns one shard's health state.
func (db *DB) ShardHealth(i int) HealthState { return db.node.Engine(i).HealthState() }
