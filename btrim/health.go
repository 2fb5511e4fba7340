package btrim

import (
	"errors"
	"time"

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

// HealthState is the engine health state machine's current state.
//
//	Healthy  — all subsystems nominal; full read/write service.
//	Degraded — a recoverable pressure signal is active (checkpoint
//	           failures, IMRS cache pressure, device-fault retry
//	           exhaustion, pack-relocation error streaks). The engine
//	           keeps accepting writes but routes new rows to the page
//	           store and packs aggressively until the signal clears.
//	ReadOnly — a WAL is poisoned; committed data keeps being served
//	           from snapshots but every write returns ErrReadOnly.
//	           Sticky until the process restarts and recovers.
//	Halted   — the engine is shut down.
type HealthState uint8

// Health states, ordered by severity.
const (
	StateHealthy  = HealthState(core.StateHealthy)
	StateDegraded = HealthState(core.StateDegraded)
	StateReadOnly = HealthState(core.StateReadOnly)
	StateHalted   = HealthState(core.StateHalted)
)

// String names the state.
func (s HealthState) String() string { return core.HealthState(s).String() }

// RetryStats counts one retry layer's activity: how often transient
// backend faults were absorbed invisibly versus escalated.
type RetryStats struct {
	Attempts  int64 // operations passed through the retrier
	Retries   int64 // individual re-tries after transient failures
	Exhausted int64 // operations that failed even after all attempts
	Recovered int64 // operations that succeeded after ≥1 retry
}

// HealthTransition is one recorded state-machine edge.
type HealthTransition struct {
	From, To HealthState
	At       time.Time
	Cause    string
}

// Health is the engine health state machine's snapshot.
type Health struct {
	State HealthState
	// Since is when the current state was entered.
	Since time.Time
	// DegradedCauses names the active degradation signals (empty when
	// healthy): "checkpoint-failures", "imrs-cache-pressure",
	// "device-fault-exhaustion", "pack-errors".
	DegradedCauses []string
	// ReadOnlyCause is the root cause ("" unless read-only).
	ReadOnlyCause string
	// ReadOnlyRecoverable reports a recoverable ReadOnly park (in-doubt
	// transactions awaiting a coordinator decision) as opposed to the
	// sticky poisoned-WAL freeze. A sharded node's resolver can exit a
	// recoverable park online; a sticky one needs a restart.
	ReadOnlyRecoverable bool
	// Transitions is the recent state-change history (bounded).
	Transitions []HealthTransition
	// DeviceRetry / WALRetry / CheckpointRetry expose the transient-
	// fault retry layers wrapped around the page device, the WAL
	// backends, and the checkpoint path.
	DeviceRetry     RetryStats
	WALRetry        RetryStats
	CheckpointRetry RetryStats
}

// Health snapshots the health state machine of the shard in the worst
// state (shard 0's on a fully healthy node).
func (db *DB) Health() Health {
	worst := 0
	for i := 1; i < db.node.NumShards(); i++ {
		if db.ShardHealth(i) > db.ShardHealth(worst) {
			worst = i
		}
	}
	return healthFromCore(db.node.Engine(worst).Health())
}

// ShardHealth returns one shard's health state.
func (db *DB) ShardHealth(i int) HealthState {
	return HealthState(db.node.Engine(i).HealthState())
}

func healthFromCore(h core.HealthSnapshot) Health {
	out := Health{
		State:               HealthState(h.State),
		Since:               h.Since,
		DegradedCauses:      h.DegradedCauses,
		ReadOnlyCause:       h.ReadOnlyCause,
		ReadOnlyRecoverable: h.ReadOnlyRecoverable,
		DeviceRetry:         RetryStats(h.DeviceRetry),
		WALRetry:            RetryStats(h.WALRetry),
		CheckpointRetry:     RetryStats(h.CheckpointRetry),
	}
	for _, tr := range h.Transitions {
		out.Transitions = append(out.Transitions, HealthTransition{
			From: HealthState(tr.From), To: HealthState(tr.To),
			At: tr.At, Cause: tr.Cause,
		})
	}
	return out
}
