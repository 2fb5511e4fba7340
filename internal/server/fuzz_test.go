package server

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/btrim"
	"repro/internal/sql"
)

// FuzzDecodeResponse hammers the client-side response parser with
// arbitrary bytes. It guards the trust boundary of remote mode: a
// malicious or corrupted server must produce a clean error, never a
// panic or an attacker-sized allocation. A payload that decodes to a
// result must survive an encode/decode round trip unchanged in shape.
func FuzzDecodeResponse(f *testing.F) {
	// One seed per response shape.
	f.Add(encodeResponse(nil, &sql.Result{Affected: 3, Msg: "INSERT"}, nil))
	f.Add(encodeResponse(nil, &sql.Result{
		Cols: []string{"a", "b"},
		Rows: []btrim.Row{{btrim.Int64(7), btrim.String("x")}, {btrim.Float64(1.5), btrim.Null}},
	}, nil))
	f.Add(encodeResponse(nil, &sql.Result{
		Cols: []string{"a"}, Rows: []btrim.Row{{btrim.Bytes([]byte{0, 1})}},
		Warning: "partial",
	}, nil))
	f.Add(encodeResponse(nil, nil, ErrOverCapacity))
	f.Add(encodeResponse(nil, nil, ErrStmtSkipped))
	// Regression: a row frame whose uvarint column count is near 2^64
	// used to size the column slice before any bounds check and panic in
	// makeslice.
	f.Add(append([]byte{tagRows}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// Same attack on the row count with a plausible column header.
	f.Add(append([]byte{tagRows, 0x01, 0x01, 'a'}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add([]byte{})
	f.Add([]byte{tagMulti, 0x02})
	// A batch frame: rows, an OK and a warning-carrying row frame.
	f.Add(multiFrame(rowsResult(2), nil, &sql.Result{Cols: []string{"x"}, Rows: []btrim.Row{{btrim.Bytes([]byte{7})}}, Warning: "partial"}))

	// roundTrip checks that a decoded result re-encodes to one that
	// decodes the same.
	roundTrip := func(t *testing.T, body []byte, res *sql.Result) {
		enc := encodeResponse(nil, res, nil)
		res2, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded result failed: %v\n in  %x\n enc %x", err, body, enc)
		}
		if len(res2.Cols) != len(res.Cols) || len(res2.Rows) != len(res.Rows) ||
			res2.Affected != res.Affected || res2.Msg != res.Msg {
			t.Fatalf("round trip drifted:\n in  %+v\n out %+v", res, res2)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 0 && body[0] == tagMulti {
			// A batch frame, decoded as a client expecting its count.
			count, sz := binary.Uvarint(body[1:])
			if sz <= 0 || count > uint64(len(body)) {
				return
			}
			out, err := decodeMulti(body, int(count))
			if err != nil {
				return
			}
			for _, r := range out {
				if r.Res != nil {
					roundTrip(t, body, r.Res)
				}
			}
			return
		}
		res, err := decodeResponse(body)
		if err != nil || res == nil {
			return
		}
		roundTrip(t, body, res)
	})
}

// FuzzDecodeBatch hammers the server-side batch parser: arbitrary
// client bytes must never panic the handler or size an allocation from
// an unvalidated count. A batch that decodes must re-encode to a batch
// that decodes identically.
func FuzzDecodeBatch(f *testing.F) {
	valid := []byte{batchMagic, 4}
	for _, m := range []batchMsg{
		{kind: msgSQL, sql: "SELECT a FROM t WHERE a = 1"},
		{kind: msgPrepare, name: "p", sql: "INSERT INTO t VALUES (?)"},
		{kind: msgBind, name: "p", args: []btrim.Value{btrim.Int64(1), btrim.String("x"), btrim.Null}},
		{kind: msgDeallocate, name: "p"},
	} {
		valid = appendBatchMsg(valid, &m)
	}
	f.Add(valid)
	// Count far beyond the payload.
	f.Add(append([]byte{batchMagic}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// Bind with an absurd argument count.
	f.Add([]byte{batchMagic, 1, msgBind, 1, 'p', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{batchMagic, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		msgs, err := decodeBatch(body, nil)
		if err != nil {
			return
		}
		enc := []byte{batchMagic}
		enc = binary.AppendUvarint(enc, uint64(len(msgs)))
		for i := range msgs {
			enc = appendBatchMsg(enc, &msgs[i])
		}
		msgs2, err := decodeBatch(enc, nil)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v\n in  %x\n enc %x", err, body, enc)
		}
		enc2 := []byte{batchMagic}
		enc2 = binary.AppendUvarint(enc2, uint64(len(msgs2)))
		for i := range msgs2 {
			enc2 = appendBatchMsg(enc2, &msgs2[i])
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding drifted:\n one %x\n two %x", enc, enc2)
		}
	})
}
