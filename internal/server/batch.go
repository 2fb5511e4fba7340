package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"repro/btrim"
)

// batchMsg is one decoded message of a pipelined batch frame.
type batchMsg struct {
	kind byte
	sql  string        // msgSQL statement text, or msgPrepare body
	name string        // prepared-statement name (P/B/D)
	args []btrim.Value // bind arguments (B)
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeString consumes a uvarint-length-prefixed string. The string
// is sliced out of s, a frame's payload copied once into a string whose
// tail holds the same bytes as b (see tail), so it allocates nothing.
func decodeString(b []byte, s string) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	s = tail(s, b)
	return s[sz : sz+int(n)], b[sz+int(n):], nil
}

// tail returns the end of s that holds b, the unread rest of the
// payload s is a copy of.
func tail(s string, b []byte) string { return s[len(s)-len(b):] }

// appendBatchMsg appends one encoded batch message.
func appendBatchMsg(b []byte, m *batchMsg) []byte {
	b = append(b, m.kind)
	switch m.kind {
	case msgSQL:
		b = appendString(b, m.sql)
	case msgPrepare:
		b = appendString(b, m.name)
		b = appendString(b, m.sql)
	case msgBind:
		b = appendString(b, m.name)
		b = binary.AppendUvarint(b, uint64(len(m.args)))
		for _, v := range m.args {
			b = appendValue(b, v)
		}
	case msgDeallocate:
		b = appendString(b, m.name)
	}
	return b
}

// decodeBatch parses a batch request payload (first byte batchMagic)
// into its messages. Counts are validated against the remaining payload
// before sizing any allocation, so a malformed frame fails with a clean
// error instead of an oversized make. The scratch slice (a previous
// call's result, or nil) donates its backing array and per-message args
// capacity, so a session decoding frame after frame stops allocating.
func decodeBatch(b []byte, scratch []batchMsg) ([]batchMsg, error) {
	if len(b) == 0 || b[0] != batchMagic {
		return nil, fmt.Errorf("server: not a batch frame")
	}
	b = b[1:]
	count, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	b = b[sz:]
	if count == 0 {
		return nil, fmt.Errorf("server: empty batch")
	}
	// Each message is at least its one-byte kind.
	if count > uint64(len(b)) {
		return nil, io.ErrUnexpectedEOF
	}
	// The frame buffer is reused: names and bind values are sliced out
	// of one copy of it. Statement text gets a copy of its own, because
	// the plan cache and prepared statements keep parts of it.
	str := string(b)
	msgs := scratch[:0]
	for i := uint64(0); i < count; i++ {
		if len(b) == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		m := batchMsg{kind: b[0]}
		if i < uint64(cap(msgs)) {
			// Recycle the args slice the previous frame left in this slot.
			m.args = msgs[:cap(msgs)][i].args[:0]
		}
		b = b[1:]
		var err error
		switch m.kind {
		case msgSQL:
			m.sql, b, err = decodeString(b, str)
			m.sql = strings.Clone(m.sql)
		case msgPrepare:
			if m.name, b, err = decodeString(b, str); err == nil {
				m.sql, b, err = decodeString(b, str)
				m.name, m.sql = strings.Clone(m.name), strings.Clone(m.sql)
			}
		case msgBind:
			if m.name, b, err = decodeString(b, str); err != nil {
				break
			}
			var nargs uint64
			nargs, sz = binary.Uvarint(b)
			if sz <= 0 {
				err = io.ErrUnexpectedEOF
				break
			}
			b = b[sz:]
			if nargs > uint64(len(b)) { // every value is ≥ 1 byte
				err = io.ErrUnexpectedEOF
				break
			}
			if uint64(cap(m.args)) < nargs {
				m.args = make([]btrim.Value, 0, nargs)
			}
			for j := uint64(0); j < nargs; j++ {
				var v btrim.Value
				if v, b, err = decodeValue(b, str); err != nil {
					break
				}
				m.args = append(m.args, v)
			}
		case msgDeallocate:
			m.name, b, err = decodeString(b, str)
		default:
			err = fmt.Errorf("server: bad batch message kind %q", m.kind)
		}
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("server: %d trailing bytes after batch", len(b))
	}
	return msgs, nil
}
