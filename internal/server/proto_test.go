package server

import (
	"fmt"
	"testing"

	"repro/btrim"
	"repro/internal/sql"
)

func rowsResult(n int) *sql.Result {
	res := &sql.Result{Cols: []string{"id", "name", "price", "blob"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, btrim.Row{
			btrim.Int64(int64(i)), btrim.String(fmt.Sprintf("name-%d", i)),
			btrim.Float64(float64(i) / 4), btrim.Null,
		})
	}
	return res
}

// TestDecodeResponseAllocs gates the client's response decoder: every
// row of a response is carved out of one value array, and every string
// out of one copy of the payload, so decoding allocates the same for 10
// rows as for 100.
func TestDecodeResponseAllocs(t *testing.T) {
	var prev float64
	for _, n := range []int{10, 100} {
		buf := encodeResponse(nil, rowsResult(n), nil)
		avg := testing.AllocsPerRun(200, func() {
			if _, err := decodeResponse(buf); err != nil {
				t.Fatal(err)
			}
		})
		// Measured 5: the result, its column names, the payload copy,
		// the value array and the row headers.
		t.Logf("%d-row response: %.1f allocs", n, avg)
		if avg > 6 {
			t.Fatalf("%d-row response allocates %.1f, budget 6 (O(1))", n, avg)
		}
		if n > 10 && avg != prev {
			t.Fatalf("%d-row response allocates %.1f, 10 rows %.1f: decoding allocates per row", n, avg, prev)
		}
		prev = avg
	}
}

// TestDecodeResponseOwnsPayload checks that a decoded result shares no
// memory with the frame buffer, which the client reuses for the next
// response, and that rows cut from one array do not overlap.
func TestDecodeResponseOwnsPayload(t *testing.T) {
	want := rowsResult(20)
	want.Rows[3][3] = btrim.Bytes([]byte{1, 2, 3})
	want.Warning = "partial"
	buf := encodeResponse(nil, want, nil)
	got, err := decodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xee
	}
	got.Rows[0] = append(got.Rows[0], btrim.Int64(-1)) // must not spill into row 1
	got.Rows[3][3].Raw()[0] = 9                        // bytes values are the caller's
	want.Rows[3][3] = btrim.Bytes([]byte{9, 2, 3})
	if got.Warning != want.Warning || len(got.Cols) != len(want.Cols) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("decoded %+v", got)
	}
	for i, c := range want.Cols {
		if got.Cols[i] != c {
			t.Fatalf("column %d = %q, want %q", i, got.Cols[i], c)
		}
	}
	for i, r := range want.Rows {
		if !got.Rows[i][:len(r)].Equal(r) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], r)
		}
	}
}
