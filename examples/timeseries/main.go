// Timeseries: partition-level life-cycle management (paper Section V).
// Readings live in a range-partitioned table where only the newest
// partition receives inserts and queries — the paper's "orders
// partitioned on order_date" scenario. Old partitions go cold as the
// write frontier moves on; the per-partition queues and packability
// indexes drain exactly those, while the current partition stays hot in
// memory. A table-granularity scheme could not make this distinction.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/btrim"
)

func main() {
	db, err := btrim.Open(btrim.Config{
		IMRSCacheBytes: 4 << 20,
		PackThreads:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Four partitions of 25k timestamps each.
	must(db.CreateTable(btrim.TableSpec{
		Name: "readings",
		Columns: []btrim.Column{
			{Name: "ts", Type: btrim.Int64Type},
			{Name: "sensor", Type: btrim.Int64Type},
			{Name: "value", Type: btrim.Float64Type},
			{Name: "raw", Type: btrim.StringType},
		},
		PrimaryKey: []string{"ts"},
		Partition: btrim.PartitionSpec{
			Kind:   btrim.PartitionRange,
			Column: "ts",
			Bounds: []int64{25_000, 50_000, 75_000},
		},
	}))

	rng := rand.New(rand.NewSource(4))
	raw := strings.Repeat("r", 200)
	var ts int64

	for epoch := 0; epoch < 4; epoch++ {
		// The write frontier advances: this epoch's readings land in one
		// partition; recent readings are re-read (hot), older ones never.
		for batch := 0; batch < 25; batch++ {
			must(db.Update(func(tx *btrim.Tx) error {
				for i := 0; i < 1000; i++ {
					ts++
					if err := tx.Insert("readings", btrim.Values(
						btrim.Int64(ts),
						btrim.Int64(int64(rng.Intn(32))),
						btrim.Float64(rng.NormFloat64()),
						btrim.String(raw),
					)); err != nil {
						return err
					}
				}
				// Dashboard queries hammer the last ~2k readings: the
				// write frontier is also the read hot set.
				for i := 0; i < 600; i++ {
					recent := ts - int64(rng.Intn(2000))
					if recent < 1 {
						recent = 1
					}
					if _, _, err := tx.Get("readings", btrim.Int64(recent)); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		time.Sleep(50 * time.Millisecond) // let pack work
		s := db.Stats()
		fmt.Printf("epoch %d (%6d readings): IMRS %4.0f%% full, packed %6d rows | in-memory per partition:",
			epoch+1, ts,
			100*float64(s.IMRSUsedBytes)/float64(s.IMRSCapacity), s.RowsPacked)
		for p := 0; p < 4; p++ {
			name := fmt.Sprintf("readings/p%d", p)
			fmt.Printf("  p%d=%d", p, s.Partition(name).IMRSRows)
		}
		fmt.Println()
	}

	// The full history remains queryable; cold partitions serve from the
	// page store.
	var cold, hot int64 = 10, ts - 10
	must(db.View(func(tx *btrim.Tx) error {
		for _, q := range []int64{cold, hot} {
			if _, ok, err := tx.Get("readings", btrim.Int64(q)); err != nil || !ok {
				return fmt.Errorf("reading %d unavailable: %v", q, err)
			}
		}
		return nil
	}))
	fmt.Printf("reading %d (cold) and %d (hot) both served; total rows inserted: %d\n", cold, hot, ts)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
