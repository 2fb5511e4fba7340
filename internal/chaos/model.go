package chaos

import (
	"fmt"
	"slices"

	"repro/internal/row"
	"repro/internal/shard"
)

// state is one acceptable durable state of a key.
type state struct {
	present bool
	qty     int64
}

// model is the shadow of what the node has committed. Keys 1..accounts
// are transfer accounts; the engine scenarios write keys above them.
// Every key in [1, next) has been written or tried, so a key the model
// does not hold must read as absent: that covers deleted keys, inserts
// that never committed and rolled-back rows alike.
type model struct {
	rows map[int64]int64 // committed qty of every key with one known state
	// ambig holds keys whose last commit failed after the log may have
	// taken its bytes: the allowed states, the pre-transaction one first.
	ambig map[int64][]state
	// taint marks accounts whose transfer commit errored: with
	// concurrent writers building on whichever outcome landed, their
	// exact value is unknown, but they still count toward conservation.
	taint map[int64]bool
	next  int64
}

// apply records a key's one known committed state.
func (m *model) apply(key int64, s state) {
	delete(m.ambig, key)
	if s.present {
		m.rows[key] = s.qty
	} else {
		delete(m.rows, key)
	}
}

// check compares view (qty per present key, as one read path serves
// it) with the model:
//
//   - every account is present, untainted ones with their exact
//     balance, and the balances sum to what was funded;
//   - every other key holds exactly its committed state, or is absent;
//   - an ambiguous key holds one of its allowed states and the model
//     adopts it (resolve), or — on a live read-only shard, whose
//     rollback ran in memory — its pre-transaction state;
//   - no key outside [1, next) exists.
func (m *model) check(view map[int64]int64, resolve bool) error {
	var total int64
	for id := int64(1); id < m.next; id++ {
		qty, ok := view[id]
		got := state{ok, qty}
		if id <= accounts {
			if !ok {
				return fmt.Errorf("account %d lost", id)
			}
			total += qty
			if !m.taint[id] && qty != m.rows[id] {
				return fmt.Errorf("account %d: balance %d, committed %d (untainted)", id, qty, m.rows[id])
			}
			continue
		}
		if allowed, amb := m.ambig[id]; amb {
			switch {
			case !resolve && got != allowed[0]:
				return fmt.Errorf("key %d serves uncommitted state %+v, committed %+v", id, got, allowed[0])
			case resolve && !slices.Contains(allowed, got):
				return fmt.Errorf("ambiguous key %d recovered to %+v, allowed %+v", id, got, allowed)
			case resolve:
				m.apply(id, got)
			}
			continue
		}
		want, present := m.rows[id]
		if got != (state{present, want}) {
			if !present {
				return fmt.Errorf("key %d resurrected with qty %d: deleted or never committed", id, qty)
			}
			return fmt.Errorf("committed key %d reads %+v, committed qty %d", id, got, want)
		}
	}
	if want := int64(accounts * initialBalance); total != want {
		return fmt.Errorf("total balance %d, want %d: a transfer half-applied", total, want)
	}
	for id := range view {
		if id < 1 || id >= m.next {
			return fmt.Errorf("phantom key %d", id)
		}
	}
	if resolve && len(m.ambig) > 0 {
		return fmt.Errorf("%d ambiguous keys left unresolved", len(m.ambig))
	}
	return nil
}

func chaosRow(key, qty int64) row.Row {
	return row.Row{row.Int64(key), row.String(fmt.Sprintf("row-%d", key)), row.Int64(qty)}
}

func pk(key int64) []row.Value { return []row.Value{row.Int64(key)} }

// shardOf is the shard the node's router sends key to.
func (h *harness) shardOf(key int64) int {
	return shard.ShardOf(row.Int64(key), len(h.media))
}
