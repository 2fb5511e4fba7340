// Package page implements the slotted page layout used by the page store
// and the B-tree. A page is a fixed disk.PageSize byte array with a
// header, records growing upward from the header, and a slot directory
// growing downward from the page end. Slots are stable: deleting a record
// leaves a dead slot that may be reused, so (page, slot) RIDs stay valid
// for the lifetime of a row.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage/disk"
)

// Slot-state sentinels. Callers that replay historical operations
// (recovery redo) need to tell a slot-state conflict — the slot is dead
// where a live record was expected, or live where a free slot was
// expected — apart from structural failures like an out-of-range slot
// or an oversized record. Match with errors.Is.
var (
	// ErrSlotLive reports an exact-slot insert onto a slot that already
	// holds a live record.
	ErrSlotLive = errors.New("slot already live")
	// ErrSlotDead reports a read, update, or delete of a dead slot.
	ErrSlotDead = errors.New("slot is dead")
)

// Type tags the content of a page.
type Type uint8

// Page types.
const (
	TypeFree Type = iota
	TypeHeap
	TypeBTreeLeaf
	TypeBTreeInternal
	TypeMeta
)

const (
	headerSize = 24
	slotSize   = 4

	offLSN      = 0  // uint64
	offType     = 8  // uint8
	offFlags    = 9  // uint8
	offNumSlots = 10 // uint16
	offFreePtr  = 12 // uint16: next record write offset
	offLive     = 14 // uint16: live (non-dead) slot count
	offNext     = 16 // uint32: next page in chain
	offPrev     = 20 // uint32: prev page in chain

	deadOffset = 0xFFFF // slot offset sentinel for dead slots
)

// MaxRecordSize is the largest record a single page can hold.
const MaxRecordSize = disk.PageSize - headerSize - slotSize

// MaxSlots bounds a page's slot count: each takes a directory entry.
const MaxSlots = (disk.PageSize - headerSize) / slotSize

// Page wraps a raw page buffer with slotted accessors. It performs no
// locking; callers hold the owning buffer frame's latch.
type Page struct {
	buf []byte
}

// Wrap interprets buf (len == disk.PageSize) as a Page.
func Wrap(buf []byte) *Page {
	if len(buf) != disk.PageSize {
		panic(fmt.Sprintf("page: buffer is %d bytes, want %d", len(buf), disk.PageSize))
	}
	return &Page{buf: buf}
}

// Init formats the page as an empty page of type t.
func (p *Page) Init(t Type) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.buf[offType] = byte(t)
	binary.LittleEndian.PutUint16(p.buf[offFreePtr:], headerSize)
	p.SetNext(0xFFFFFFFF)
	p.SetPrev(0xFFFFFFFF)
}

// Bytes returns the underlying buffer.
func (p *Page) Bytes() []byte { return p.buf }

// Type returns the page type.
func (p *Page) Type() Type { return Type(p.buf[offType]) }

// LSN returns the page LSN (last log record that modified the page).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }

// SetLSN stores the page LSN.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[offLSN:], lsn) }

// Next returns the next-page pointer (0xFFFFFFFF when none).
func (p *Page) Next() uint32 { return binary.LittleEndian.Uint32(p.buf[offNext:]) }

// SetNext stores the next-page pointer.
func (p *Page) SetNext(id uint32) { binary.LittleEndian.PutUint32(p.buf[offNext:], id) }

// Prev returns the previous-page pointer (0xFFFFFFFF when none).
func (p *Page) Prev() uint32 { return binary.LittleEndian.Uint32(p.buf[offPrev:]) }

// SetPrev stores the previous-page pointer.
func (p *Page) SetPrev(id uint32) { binary.LittleEndian.PutUint32(p.buf[offPrev:], id) }

// NumSlots returns the size of the slot directory (live + dead slots).
func (p *Page) NumSlots() uint16 { return binary.LittleEndian.Uint16(p.buf[offNumSlots:]) }

func (p *Page) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.buf[offNumSlots:], n) }

// LiveSlots returns the number of live (non-deleted) records.
func (p *Page) LiveSlots() uint16 { return binary.LittleEndian.Uint16(p.buf[offLive:]) }

func (p *Page) setLiveSlots(n uint16) { binary.LittleEndian.PutUint16(p.buf[offLive:], n) }

func (p *Page) freePtr() uint16 { return binary.LittleEndian.Uint16(p.buf[offFreePtr:]) }

func (p *Page) setFreePtr(v uint16) { binary.LittleEndian.PutUint16(p.buf[offFreePtr:], v) }

func (p *Page) slotDirStart() int { return disk.PageSize - int(p.NumSlots())*slotSize }

func (p *Page) slotPos(slot uint16) int { return disk.PageSize - int(slot+1)*slotSize }

func (p *Page) slot(slot uint16) (off, length uint16) {
	pos := p.slotPos(slot)
	return binary.LittleEndian.Uint16(p.buf[pos:]), binary.LittleEndian.Uint16(p.buf[pos+2:])
}

func (p *Page) setSlot(slot, off, length uint16) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.buf[pos:], off)
	binary.LittleEndian.PutUint16(p.buf[pos+2:], length)
}

// FreeSpace returns the contiguous free bytes available for a new record
// assuming a new slot entry is also needed.
func (p *Page) FreeSpace() int {
	free := p.slotDirStart() - int(p.freePtr()) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// FreeSpaceAfterCompaction returns the free bytes a compaction would
// yield (dead record space reclaimed; dead slots reusable without a new
// directory entry are not counted conservatively).
func (p *Page) FreeSpaceAfterCompaction() int {
	used := 0
	for s := uint16(0); s < p.NumSlots(); s++ {
		off, length := p.slot(s)
		if off != deadOffset {
			used += int(length)
		}
	}
	free := disk.PageSize - headerSize - used - (int(p.NumSlots())+1)*slotSize
	if free < 0 {
		return 0
	}
	return free
}

// HasRoomFor reports whether a record of n bytes can be inserted,
// possibly after compaction.
func (p *Page) HasRoomFor(n int) bool {
	return n <= MaxRecordSize && (p.FreeSpace() >= n || p.FreeSpaceAfterCompaction() >= n)
}

// Insert stores rec in the page and returns its slot. It compacts the
// page if fragmented. Dead slots are reused before the directory grows.
func (p *Page) Insert(rec []byte) (uint16, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("page: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	// Find a reusable dead slot, if any.
	slot := p.NumSlots()
	grow := true
	for s := uint16(0); s < p.NumSlots(); s++ {
		if off, _ := p.slot(s); off == deadOffset {
			slot, grow = s, false
			break
		}
	}
	need := len(rec)
	if grow {
		need += slotSize
	}
	if p.slotDirStart()-int(p.freePtr()) < need {
		p.compact()
		if p.slotDirStart()-int(p.freePtr()) < need {
			return 0, fmt.Errorf("page: no room for %d-byte record", len(rec))
		}
	}
	off := p.freePtr()
	copy(p.buf[off:], rec)
	p.setFreePtr(off + uint16(len(rec)))
	if grow {
		p.setNumSlots(p.NumSlots() + 1)
	}
	p.setSlot(slot, off, uint16(len(rec)))
	p.setLiveSlots(p.LiveSlots() + 1)
	return slot, nil
}

// InsertAt stores rec at an exact slot number, growing the directory as
// needed. It is used by recovery redo to reproduce historical placements.
func (p *Page) InsertAt(slot uint16, rec []byte) error {
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("page: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	grow := 0
	if slot >= p.NumSlots() {
		grow = int(slot) - int(p.NumSlots()) + 1
	} else if off, _ := p.slot(slot); off != deadOffset {
		return fmt.Errorf("page: slot %d: %w", slot, ErrSlotLive)
	}
	need := len(rec) + grow*slotSize
	if p.slotDirStart()-int(p.freePtr()) < need {
		p.compact()
		if p.slotDirStart()-int(p.freePtr()) < need {
			return fmt.Errorf("page: no room for %d-byte record at slot %d", len(rec), slot)
		}
	}
	if grow > 0 {
		old := p.NumSlots()
		p.setNumSlots(slot + 1)
		for s := old; s < slot; s++ {
			p.setSlot(s, deadOffset, 0)
		}
	}
	off := p.freePtr()
	copy(p.buf[off:], rec)
	p.setFreePtr(off + uint16(len(rec)))
	p.setSlot(slot, off, uint16(len(rec)))
	p.setLiveSlots(p.LiveSlots() + 1)
	return nil
}

// Read returns the record at slot. The returned slice aliases the page
// buffer and is valid only while the caller holds the page latch.
func (p *Page) Read(slot uint16) ([]byte, error) {
	if slot >= p.NumSlots() {
		return nil, fmt.Errorf("page: slot %d out of range (%d)", slot, p.NumSlots())
	}
	off, length := p.slot(slot)
	if off == deadOffset {
		return nil, fmt.Errorf("page: slot %d: %w", slot, ErrSlotDead)
	}
	return p.buf[off : off+length], nil
}

// IsLive reports whether slot holds a live record.
func (p *Page) IsLive(slot uint16) bool {
	if slot >= p.NumSlots() {
		return false
	}
	off, _ := p.slot(slot)
	return off != deadOffset
}

// Update replaces the record at slot with rec, compacting if needed.
func (p *Page) Update(slot uint16, rec []byte) error {
	if slot >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range (%d)", slot, p.NumSlots())
	}
	off, length := p.slot(slot)
	if off == deadOffset {
		return fmt.Errorf("page: slot %d: %w", slot, ErrSlotDead)
	}
	if len(rec) <= int(length) {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, uint16(len(rec)))
		return nil
	}
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("page: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	// Kill the old copy, append the new one. Keep the old bytes so the
	// record can be restored if the new version does not fit: compaction
	// will have recycled the old location.
	old := append([]byte(nil), p.buf[off:off+length]...)
	p.setSlot(slot, deadOffset, 0)
	if p.slotDirStart()-int(p.freePtr()) < len(rec) {
		p.compact()
		if p.slotDirStart()-int(p.freePtr()) < len(rec) {
			// Restore the old record (its space was just reclaimed, so it
			// fits); the caller must relocate the row instead.
			roff := p.freePtr()
			copy(p.buf[roff:], old)
			p.setFreePtr(roff + length)
			p.setSlot(slot, roff, length)
			return ErrNoRoom
		}
	}
	noff := p.freePtr()
	copy(p.buf[noff:], rec)
	p.setFreePtr(noff + uint16(len(rec)))
	p.setSlot(slot, noff, uint16(len(rec)))
	return nil
}

// ErrNoRoom reports that an update cannot fit even after compaction; the
// caller must move the row (forwarding) instead.
var ErrNoRoom = fmt.Errorf("page: no room even after compaction")

// Delete removes the record at slot, leaving a reusable dead slot.
func (p *Page) Delete(slot uint16) error {
	if slot >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range (%d)", slot, p.NumSlots())
	}
	if off, _ := p.slot(slot); off == deadOffset {
		return fmt.Errorf("page: slot %d: %w", slot, ErrSlotDead)
	}
	p.setSlot(slot, deadOffset, 0)
	p.setLiveSlots(p.LiveSlots() - 1)
	return nil
}

// compact rewrites live records contiguously from the header, reclaiming
// dead record space. Slot numbers are preserved.
func (p *Page) compact() {
	tmp := make([]byte, 0, disk.PageSize)
	type rec struct {
		slot   uint16
		length uint16
		at     uint16
	}
	var recs []rec
	for s := uint16(0); s < p.NumSlots(); s++ {
		off, length := p.slot(s)
		if off == deadOffset {
			continue
		}
		recs = append(recs, rec{slot: s, length: length, at: uint16(len(tmp))})
		tmp = append(tmp, p.buf[off:off+length]...)
	}
	copy(p.buf[headerSize:], tmp)
	p.setFreePtr(headerSize + uint16(len(tmp)))
	for _, r := range recs {
		p.setSlot(r.slot, headerSize+r.at, r.length)
	}
}
