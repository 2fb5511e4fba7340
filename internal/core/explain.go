package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/row"
)

// ExplainRow reports how a primary key currently resolves through every
// location layer — PK index, RID map, cold directory, page heap —
// without the visibility or retry policy Get applies. It is a
// diagnostic surface: when a read misbehaves (a lookup that keeps
// returning ErrRetry, a row that reads as missing), the report shows
// which layer disagrees with the others, which is otherwise invisible
// from outside the engine. The snapshot is best-effort (each layer is
// probed independently, races included) — use it to explain a stuck
// state, not to assert one.
func (e *Engine) ExplainRow(table string, pk []row.Value) string {
	rt, err := e.table(table)
	if err != nil {
		return err.Error()
	}
	key := row.EncodeKey(nil, pk...)
	pkIx := rt.indexes[0]
	// Decode IMRS images as a registered reader, like a transaction:
	// IMRS-GC keeps whatever this call can reach until it returns.
	reader := e.snaps.Register(e.gc.Epoch())
	defer e.snaps.Unregister(reader)

	var b strings.Builder
	r0, found, err := pkIx.tree.Search(key)
	fmt.Fprintf(&b, "index: rid=%v found=%v err=%v", r0, found, err)
	if err != nil || !found {
		return b.String()
	}

	keyMatch := func(data []byte) string {
		rw, err := e.decode(rt, data)
		if err != nil {
			return fmt.Sprintf("decodeErr=%v", err)
		}
		got, err := pkOf(rt, rw)
		if err != nil {
			return fmt.Sprintf("pkErr=%v", err)
		}
		return fmt.Sprintf("keyMatch=%v", bytes.Equal(got, key))
	}

	if en := e.rmap.Get(r0); en == nil {
		b.WriteString("; rmap: none")
	} else {
		v := en.Visible(math.MaxUint64, 0)
		fmt.Fprintf(&b, "; rmap: origin=%d packed=%v dirty=%v committedVisible=%v",
			en.Origin, en.Packed(), en.Dirty(), v != nil)
		if v != nil {
			fmt.Fprintf(&b, " %s", keyMatch(v.Data()))
		}
	}

	if seg, idx, k, ok := e.cold.Lookup(r0); ok {
		fmt.Fprintf(&b, "; cold: idx=%d killTS=%d", idx, k)
		if enc, err := seg.EncodeRowAt(idx, nil); err != nil {
			fmt.Fprintf(&b, " encodeErr=%v", err)
		} else {
			fmt.Fprintf(&b, " %s", keyMatch(enc))
		}
	} else {
		b.WriteString("; cold: none")
	}

	if !r0.IsVirtual() {
		if prt := e.partByID(r0.Partition()); prt != nil {
			if data, err := prt.heap.Fetch(r0); err != nil {
				fmt.Fprintf(&b, "; heap: err=%v", err)
			} else {
				fmt.Fprintf(&b, "; heap: %s", keyMatch(data))
			}
		}
	}
	return b.String()
}
