package core

import (
	"repro/internal/imrs"
	"repro/internal/rid"
	"repro/internal/storage/colseg"
	"repro/internal/wal"
)

// coldHome is the cold-store pack home: instead of writing each row back
// to a slotted heap page, one pack transaction freezes the whole batch
// into a compressed column-grouped segment. Rows KEEP their RIDs — the
// RID map stays the single indirection layer, so no index is repointed —
// and point reads resolve through the cold directory.
//
// Per row:
//   - virtual rows and dirty physical rows are added to the segment
//     writer; the IMRS side logs a delete (sysimrslogs), and the frozen
//     image travels in the segment blob inside the syslogs RecSegFreeze;
//   - a dirty physical row leaves its stale heap copy IN PLACE: the
//     live cold entry shadows it on every read path, and the occupied
//     slot keeps the RID unique until delete/un-freeze retires both;
//   - clean cached rows just drop from the IMRS (the heap copy is
//     already authoritative), exactly like the heap home;
//   - a row with a live older cold copy (a frozen row cached back by a
//     point read) logs RecSegKill so replay never sees two live copies;
//     the kill is versioned, like an un-freeze's.
//
// Side effects are strictly post-commit, in this order: kill old cold
// copies (the directory still maps to them), publish the new segments,
// then PackEntries unpublishes the IMRS entries and reclaims. Readers
// that race the window between commit and publish still find the row:
// the IMRS entry is unpublished only after the segment is visible.
type coldHome struct {
	*packTxn
	w       *colseg.Writer
	segs    []*colseg.Segment
	killOld []rid.RID
}

func newColdHome(p *packTxn, part rid.PartitionID) *coldHome {
	return &coldHome{packTxn: p, w: colseg.NewWriter(p.rt.cat.ID, part, p.rt.cat.Schema, false)}
}

// seal finishes the in-progress segment: self-validate the blob by
// re-opening it, log it, and queue it for post-commit publish.
func (h *coldHome) seal() error {
	if h.w.Rows() == 0 {
		return nil
	}
	blob, err := h.w.Finish(nil)
	if err != nil {
		return err
	}
	seg, err := colseg.Open(blob)
	if err != nil {
		return err
	}
	h.sysRecs = append(h.sysRecs, wal.Record{
		Type: wal.RecSegFreeze, Table: h.rt.cat.ID, After: blob,
	})
	h.segs = append(h.segs, seg)
	h.w.Reset()
	return nil
}

func (h *coldHome) place(en *imrs.Entry, data []byte) error {
	e, rt := h.e, h.rt
	if en.RID.IsVirtual() || en.Dirty() {
		if err := h.w.Add(en.RID, data); err != nil {
			return err
		}
		if _, _, k, ok := e.cold.Lookup(en.RID); ok && k == 0 {
			h.sysRecs = append(h.sysRecs, wal.Record{
				Type: wal.RecSegKill, Table: rt.cat.ID, RID: en.RID,
			})
			h.killOld = append(h.killOld, en.RID)
		}
		// A dirty physical row leaves its stale pre-update heap image
		// in place, deliberately: the copy is shadowed by the live
		// cold entry on every read path (point reads and scans check
		// the cold directory first), and keeping the slot occupied is
		// what guarantees the RID stays unique. Freeing it here let
		// the heap hand the slot to an unrelated insert while the
		// cold copy was still live — two logical rows sharing one
		// physical RID, the new one unreachable behind the old one's
		// segment image. The slot is reclaimed when the frozen row is
		// deleted or un-frozen, both of which retire the cold copy in
		// the same transaction.
		h.logIMRSDelete(en)
		if h.w.Rows() >= e.cfg.ColdSegmentRows {
			if err := h.seal(); err != nil {
				return err
			}
		}
	}
	// Rows leaving the IMRS lose their hash fast-path entries either
	// way (the B+tree entries stay: same RID before and after).
	e.dropHashEntries(rt, en, data)
	return nil
}

func (h *coldHome) publish(ts uint64) {
	// Kill superseded cold copies BEFORE publishing: Kill targets the
	// directory's newest entry, which must still be the old copy.
	for _, r := range h.killOld {
		h.e.cold.Kill(r, ts, true)
	}
	for _, seg := range h.segs {
		seg.FreezeTS = ts
		h.e.cold.Publish(seg)
	}
}
