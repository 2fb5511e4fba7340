package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wal"
)

// underLoad runs fn while transfer clients run, then settles the node
// and verifies it.
func (h *harness) underLoad(drops bool, fn func() error) error {
	l := h.startLoad(drops)
	err := fn()
	l.end()
	if err != nil {
		return err
	}
	return h.settle()
}

// shardHalt crash-halts the last shard under load, then crashes the
// whole node and reopens it without its decision journal.
func shardHalt(h *harness) error {
	victim := len(h.media) - 1
	l := h.startLoad(false)
	err := h.haltUnderLoad(victim)
	l.end()
	h.mu.Lock()
	h.down = false
	h.mu.Unlock()
	if err != nil {
		return err
	}
	// The journal is lost with the crash: in-doubt transfers of the dead
	// shard must resolve through the coordinators' decision logs alone.
	h.journal = wal.NewMemBackend()
	return h.crashRecover(false)
}

func (h *harness) haltUnderLoad(victim int) error {
	healthy, err := h.phase("healthy")
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.down = true
	h.mu.Unlock()
	if err := h.node.HaltShard(victim); err != nil {
		return fmt.Errorf("halt shard %d: %w", victim, err)
	}
	on, off := h.keysAround(victim)
	// A read degrades to the healthy shards' rows: typed on the node (a
	// point read of a dead key), a partial SELECT with a warning on the
	// wire.
	view, partial, err := h.admin.rows(h.m.next)
	_, hasOn := view[on]
	_, hasOff := view[off]
	h.mu.Lock()
	switch {
	case h.countErr(err):
	case err == nil && partial && !hasOn && hasOff:
		h.res.PartialSelects++
	default:
		h.mu.Unlock()
		return fmt.Errorf("read with shard %d down: %d rows, partial %v, err %v", victim, len(view), partial, err)
	}
	h.mu.Unlock()
	// A write to a healthy shard still commits; one routed to the dead
	// shard fails typed: shard.ErrShardDown on the node, and retryable
	// on the wire.
	for _, c := range []client{nodeClient{h}, h.admin} {
		if err := c.add(off, 0); err != nil {
			return fmt.Errorf("healthy-shard write with shard %d down: %w", victim, err)
		}
		err := c.add(on, 0)
		h.mu.Lock()
		typed := h.countErr(err)
		h.mu.Unlock()
		if !typed {
			return fmt.Errorf("write to dead shard %d returned %v, want a typed shard-down error", victim, err)
		}
	}
	degraded, err := h.phase(fmt.Sprintf("1 of %d shards down", len(h.media)))
	if err != nil {
		return fmt.Errorf("survivors stopped serving: %w", err)
	}
	h.mu.Lock()
	h.res.HealthyPerSec, h.res.DegradedPerSec = healthy, degraded
	h.mu.Unlock()
	return nil
}

// phase waits for phaseCommits transfers, at least phaseMin long, and
// returns the commit rate.
func (h *harness) phase(tag string) (float64, error) {
	start, t0 := h.commits(), time.Now()
	for {
		n, d := h.commits()-start, time.Since(t0)
		if n >= phaseCommits && d >= phaseMin {
			rate := float64(n) / d.Seconds()
			h.logf("%s: %.0f committed transfers/s", tag, rate)
			return rate, nil
		}
		if d > waitLimit {
			return 0, fmt.Errorf("%s: %d transfers committed in %v", tag, n, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// keysAround returns an account on shard s and one off it.
func (h *harness) keysAround(s int) (on, off int64) {
	for id := int64(1); id <= accounts; id++ {
		if h.shardOf(id) == s {
			on = max(on, id)
		} else {
			off = max(off, id)
		}
	}
	return on, off
}

// hooked is the cross-shard transaction a crash hook fired in.
type hooked struct {
	gid         uint64
	coord, part int
}

// crashAt crash-halts a participant, and the coordinator first when
// coordToo, from inside the first cross-shard commit to reach stage.
func (h *harness) crashAt(stage shard.CommitStage, coordToo bool) (hooked, error) {
	hit := make(chan hooked, 1)
	var once sync.Once
	h.node.SetCommitHook(func(st shard.CommitStage, coord int, gid uint64, writers []int) {
		for _, part := range writers {
			if st != stage || part == coord {
				continue
			}
			once.Do(func() {
				if coordToo {
					_ = h.node.HaltShard(coord)
				}
				_ = h.node.HaltShard(part)
				hit <- hooked{gid, coord, part}
			})
			return
		}
	})
	defer h.node.SetCommitHook(nil)
	select {
	case c := <-hit:
		return c, nil
	case <-time.After(waitLimit):
		return hooked{}, fmt.Errorf("no cross-shard commit reached stage %d", stage)
	}
}

// coordinatorCrash crashes a coordinator and a participant between
// prepare and decide. The participant recovers holding an in-doubt
// prepare; once the coordinator is back (its log has no decide, so
// abort is presumed) the resolver must un-park it online.
func coordinatorCrash(h *harness) error {
	return h.underLoad(false, func() error {
		c, err := h.crashAt(shard.StagePrepared, true)
		if err != nil {
			return err
		}
		if err := h.node.RestartShard(c.part); err != nil {
			return fmt.Errorf("restart participant %d: %w", c.part, err)
		}
		// The in-doubt window is narrow: the prepare may have aborted
		// locally before the halt landed, and then the park is missed.
		hs := h.node.Engine(c.part).Health()
		h.logf("gid %d: participant %d recovered %v (recoverable %v) with coordinator %d down",
			c.gid, c.part, hs.State, hs.ReadOnlyRecoverable, c.coord)
		if err := h.node.RestartShard(c.coord); err != nil {
			return fmt.Errorf("restart coordinator %d: %w", c.coord, err)
		}
		if err := h.awaitHealthy(c.part); err != nil {
			return fmt.Errorf("participant never exited ReadOnly: %w", err)
		}
		// The un-parked shard takes writes again, with no process restart.
		on, _ := h.keysAround(c.part)
		if err := h.admin.add(on, 0); err != nil {
			return fmt.Errorf("write to un-parked shard %d: %w", c.part, err)
		}
		return nil
	})
}

// participantCrash crashes a participant after the decision was
// journaled: its restart must replay the commit and come back Healthy
// at once.
func participantCrash(h *harness) error {
	return h.underLoad(false, func() error {
		c, err := h.crashAt(shard.StageDecided, false)
		if err != nil {
			return err
		}
		if err := h.node.RestartShard(c.part); err != nil {
			return fmt.Errorf("restart participant %d after decide: %w", c.part, err)
		}
		eng := h.node.Engine(c.part)
		if hs := eng.Health(); hs.State != core.StateHealthy {
			var parked []string
			for _, t := range eng.UnresolvedInDoubt() {
				parked = append(parked, fmt.Sprintf("gid %d (coordinator %d)", t.GID, t.Coord))
			}
			return fmt.Errorf("participant %d recovered %v after journaled decide of gid %d (coordinator %d), want healthy; read-only cause %q; unresolved in-doubt: [%s]",
				c.part, hs.State, c.gid, c.coord, hs.ReadOnlyCause, strings.Join(parked, ", "))
		}
		return nil
	})
}

// connDrop runs transfers whose clients hang up mid-transaction; the
// settle verify then shows nothing half-applied.
func connDrop(h *harness) error {
	before := h.res.Redials
	return h.underLoad(true, func() error {
		if _, err := h.phase("conn-drop"); err != nil {
			return err
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.res.Redials == before {
			return errors.New("no connection was dropped")
		}
		return nil
	})
}
