package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rid"
	"repro/internal/row"
)

// TestDeltaRecordGolden pins the byte layout of the IMRS delta record:
// testdata/imrs-delta.golden, an annotated hex dump of one record body,
// decodes to the record below and re-encodes byte for byte, and its
// delta splices onto the row image it was taken against. A change to
// the record or the row encoding shows up as a diff of the golden file.
func TestDeltaRecordGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/imrs-delta.golden")
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		b, err := hex.DecodeString(f[0])
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		body = append(body, b...)
	}
	s := row.MustSchema(
		row.Column{Name: "w", Kind: row.KindInt64},
		row.Column{Name: "i", Kind: row.KindInt64},
		row.Column{Name: "qty", Kind: row.KindInt64},
		row.Column{Name: "ytd", Kind: row.KindFloat64},
		row.Column{Name: "data", Kind: row.KindString},
	)
	old := row.Row{row.Int64(1), row.Int64(7), row.Int64(50), row.Float64(0), row.String("stock data")}
	img := row.AppendEncoded(old, nil)
	var im row.Image
	im.Set(s, img)
	newRow := append(row.Row{}, old...)
	newRow[2], newRow[3] = row.Int64(49), row.Float64(2.5)
	delta, _, err := im.AppendDelta(nil, nil, newRow)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Type: RecIMRSDelta, TxnID: 42, Table: 3, RID: rid.NewVirtual(5, 7), After: delta}

	rec, err := decodeRecord(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("golden record decodes to %+v, want %+v", rec, want)
	}
	if got := want.encode(nil); !bytes.Equal(got, body) {
		t.Fatalf("record encodes to\n %x\nthe golden file holds\n %x", got, body)
	}
	spliced, err := im.Splice(nil, rec.After)
	if err != nil || !bytes.Equal(spliced, row.AppendEncoded(newRow, nil)) {
		t.Fatalf("golden delta splices to %x (%v), want the updated image", spliced, err)
	}
}
