// Adaptive: auto IMRS partition tuning (paper Section V). Two tables
// with opposite characters share one small IMRS: "events" is a fat
// insert-only firehose whose rows are never re-read; "sessions" is a
// small table hammered with lookups and updates. With every table
// IMRS-enabled at the start, the tuner learns from the workload that
// events doesn't deserve memory — watch its enablement flip off while
// sessions stays on.
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
		IMRSCacheBytes:   4 << 20,
		PackThreads:      2,
		TuningWindowTxns: 25, // small window so tuning is visible quickly
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db.CreateTable(btrim.TableSpec{
		Name: "events",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type},
			{Name: "payload", Type: btrim.StringType},
		},
		PrimaryKey: []string{"id"},
	}))
	must(db.CreateTable(btrim.TableSpec{
		Name: "sessions",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type},
			{Name: "hits", Type: btrim.Int64Type},
		},
		PrimaryKey: []string{"id"},
	}))
	must(db.Update(func(tx *btrim.Tx) error {
		for i := int64(1); i <= 50; i++ {
			if err := tx.Insert("sessions", btrim.Values(btrim.Int64(i), btrim.Int64(0))); err != nil {
				return err
			}
		}
		return nil
	}))

	payload := strings.Repeat("e", 500)
	rng := rand.New(rand.NewSource(9))
	var eventID int64

	fmt.Println("phase 1: event firehose + hot session updates")
	for round := 0; round < 120; round++ {
		must(db.Update(func(tx *btrim.Tx) error {
			for i := 0; i < 100; i++ {
				eventID++
				if err := tx.Insert("events", btrim.Values(
					btrim.Int64(eventID), btrim.String(payload))); err != nil {
					return err
				}
			}
			for i := 0; i < 50; i++ {
				id := int64(1 + rng.Intn(50))
				if _, err := tx.Update("sessions", []btrim.Value{btrim.Int64(id)},
					func(r btrim.Row) (btrim.Row, error) {
						r[1] = btrim.Int64(r[1].Int() + 1)
						return r, nil
					}); err != nil {
					return err
				}
			}
			return nil
		}))
		time.Sleep(5 * time.Millisecond)

		if round%30 == 29 {
			s := db.Stats()
			ev, ss := s.Partition("events"), s.Partition("sessions")
			fmt.Printf("  round %3d: events IMRS-enabled=%v (%5d rows in mem, %d packed) | sessions enabled=%v (%d rows in mem)\n",
				round+1, ev.InsertEnabled, ev.IMRSRows, ev.PackedRows, ss.InsertEnabled, ss.IMRSRows)
		}
	}

	s := db.Stats()
	ev, ss := s.Partition("events"), s.Partition("sessions")
	fmt.Printf("\nresult: events enabled=%v, sessions enabled=%v\n", ev.InsertEnabled, ss.InsertEnabled)
	fmt.Printf("IMRS utilization %.0f%%; events consumed %.2f MB of memory for %d total rows\n",
		100*float64(s.IMRSUsedBytes)/float64(s.IMRSCapacity), float64(ev.IMRSBytes)/(1<<20), eventID)
	if !ss.InsertEnabled {
		fmt.Println("note: tuner also disabled sessions (small table guard should normally prevent this)")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
