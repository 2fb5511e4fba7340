package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rid"
)

// RecType enumerates log record types across both logs.
type RecType uint8

// Record types. Heap* records appear in syslogs; IMRS* records appear in
// sysimrslogs. Commit/Abort appear in syslogs; IMRSCommit is the commit
// marker in sysimrslogs (a transaction that touched both stores writes
// both markers, syslogs first — the lock-step recovery order relies on
// it).
const (
	RecInvalid RecType = iota
	RecHeapInsert
	RecHeapUpdate
	RecHeapDelete
	RecCommit
	RecAbort
	RecCheckpoint
	RecIMRSInsert
	RecIMRSUpdate
	RecIMRSDelete
	RecIMRSCommit
	// Cold-store records (syslogs): SegFreeze carries a whole encoded
	// column segment in After; SegKill marks one segment-resident row dead
	// (un-freeze or delete). Both are gated on their transaction's
	// RecCommit, like every other syslogs record.
	RecSegFreeze
	RecSegKill
	// Two-phase-commit records (syslogs). Prepare marks a participant's
	// half of a cross-shard transaction durable-but-undecided: TxnID is
	// the local transaction, RID carries the global transaction id, Table
	// the coordinator shard index, and CommitTS the timestamp the
	// transaction will publish at if the decision is commit. Decide is the
	// coordinator's durable decision for a global transaction (RID/TxnID =
	// global id, Aux=1 commit, Aux=0 abort); its presence in the
	// coordinator's syslogs IS the commit point — a prepare with no
	// matching decide is presumed aborted.
	RecPrepare
	RecDecide
	// RecIMRSDelta (sysimrslogs) is an IMRS update logged as the columns
	// it changed (a row delta, row.Image.AppendDelta) against the row's
	// previous image, which an earlier record already holds; Aux is the
	// row origin, as in RecIMRSUpdate.
	RecIMRSDelta
)

// String implements fmt.Stringer.
func (t RecType) String() string {
	switch t {
	case RecHeapInsert:
		return "heap-insert"
	case RecHeapUpdate:
		return "heap-update"
	case RecHeapDelete:
		return "heap-delete"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecCheckpoint:
		return "checkpoint"
	case RecIMRSInsert:
		return "imrs-insert"
	case RecIMRSUpdate:
		return "imrs-update"
	case RecIMRSDelete:
		return "imrs-delete"
	case RecIMRSCommit:
		return "imrs-commit"
	case RecSegFreeze:
		return "seg-freeze"
	case RecSegKill:
		return "seg-kill"
	case RecPrepare:
		return "prepare"
	case RecDecide:
		return "decide"
	case RecIMRSDelta:
		return "imrs-delta"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Record is a log record. A single struct covers every type; unused
// fields encode as empty. LSN is assigned by Log.Append.
type Record struct {
	Type     RecType
	LSN      uint64
	TxnID    uint64
	Table    uint32 // table id
	RID      rid.RID
	CommitTS uint64
	Aux      uint8  // record-specific detail (e.g. IMRS row origin)
	Before   []byte // undo image (Heap* only)
	After    []byte // redo image or row delta, or checkpoint metadata blob
}

// minBody is the length of the smallest body encode emits: the fixed
// fields and two empty varlen lengths.
const minBody = 1 + 8 + 4 + 8 + 8 + 1 + 1 + 1

// encode appends the record body (excluding framing) to dst.
func (r *Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Type))
	dst = binary.LittleEndian.AppendUint64(dst, r.TxnID)
	dst = binary.LittleEndian.AppendUint32(dst, r.Table)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.RID))
	dst = binary.LittleEndian.AppendUint64(dst, r.CommitTS)
	dst = append(dst, r.Aux)
	dst = binary.AppendUvarint(dst, uint64(len(r.Before)))
	dst = append(dst, r.Before...)
	dst = binary.AppendUvarint(dst, uint64(len(r.After)))
	dst = append(dst, r.After...)
	return dst
}

// uvarintLen returns the minimal encoded width of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// decodeRecord parses a record body.
func decodeRecord(buf []byte) (Record, error) {
	var r Record
	if len(buf) < minBody {
		return r, fmt.Errorf("wal: record body too short (%d bytes)", len(buf))
	}
	pos := 0
	r.Type = RecType(buf[pos])
	pos++
	r.TxnID = binary.LittleEndian.Uint64(buf[pos:])
	pos += 8
	r.Table = binary.LittleEndian.Uint32(buf[pos:])
	pos += 4
	r.RID = rid.RID(binary.LittleEndian.Uint64(buf[pos:]))
	pos += 8
	r.CommitTS = binary.LittleEndian.Uint64(buf[pos:])
	pos += 8
	r.Aux = buf[pos]
	pos++
	for _, field := range []*[]byte{&r.Before, &r.After} {
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 || w != uvarintLen(n) {
			// Only minimal-width varints are valid: encode never emits
			// padded ones, so anything else is corruption (and accepting
			// them would break the decode→encode identity).
			return r, fmt.Errorf("wal: truncated varlen field")
		}
		pos += w
		// Compare in uint64 space: a hostile length close to 2^64 would
		// wrap an int addition and sneak past a pos+n > len check.
		if n > uint64(len(buf)-pos) {
			return r, fmt.Errorf("wal: truncated varlen field")
		}
		if n > 0 {
			*field = append([]byte(nil), buf[pos:pos+int(n)]...)
		}
		pos += int(n)
	}
	if pos != len(buf) {
		return r, fmt.Errorf("wal: %d trailing bytes in record", len(buf)-pos)
	}
	return r, nil
}
