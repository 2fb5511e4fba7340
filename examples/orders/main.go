// Orders: the paper's motivating scenario — an order-processing workload
// where only recent orders are hot. New orders are inserted, worked on
// for a while, then go cold; the Pack subsystem moves them to the page
// store while the small, constantly-updated dispatch board stays fully
// in memory. Watch per-table footprints stay bounded despite unbounded
// insert volume.
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
		IMRSCacheBytes:         4 << 20, // deliberately small: force life-cycle management
		SteadyCacheUtilization: 0.70,
		PackThreads:            2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db.CreateTable(btrim.TableSpec{
		Name: "orders",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type},
			{Name: "customer", Type: btrim.StringType},
			{Name: "status", Type: btrim.StringType},
			{Name: "detail", Type: btrim.StringType},
		},
		PrimaryKey: []string{"id"},
	}))
	must(db.CreateTable(btrim.TableSpec{
		Name: "dispatch",
		Columns: []btrim.Column{
			{Name: "lane", Type: btrim.Int64Type},
			{Name: "load", Type: btrim.Int64Type},
		},
		PrimaryKey: []string{"lane"},
	}))
	must(db.Update(func(tx *btrim.Tx) error {
		for lane := int64(1); lane <= 8; lane++ {
			if err := tx.Insert("dispatch", btrim.Values(btrim.Int64(lane), btrim.Int64(0))); err != nil {
				return err
			}
		}
		return nil
	}))

	rng := rand.New(rand.NewSource(1))
	detail := strings.Repeat("line-item;", 40) // ~400 B per order
	var nextID int64

	for round := 0; round < 30; round++ {
		// A burst of new orders...
		must(db.Update(func(tx *btrim.Tx) error {
			for i := 0; i < 200; i++ {
				nextID++
				if err := tx.Insert("orders", btrim.Values(
					btrim.Int64(nextID),
					btrim.String(fmt.Sprintf("cust-%03d", rng.Intn(500))),
					btrim.String("NEW"),
					btrim.String(detail),
				)); err != nil {
					return err
				}
			}
			return nil
		}))
		// ...the *recent* orders get worked (hot), old ones are left alone
		// (cold) — exactly the skew ILM exploits.
		must(db.Update(func(tx *btrim.Tx) error {
			for i := 0; i < 300; i++ {
				recent := nextID - int64(rng.Intn(200))
				if recent < 1 {
					recent = 1
				}
				if _, err := tx.Update("orders", []btrim.Value{btrim.Int64(recent)},
					func(r btrim.Row) (btrim.Row, error) {
						r[2] = btrim.String("PICKED")
						return r, nil
					}); err != nil {
					return err
				}
				lane := int64(1 + rng.Intn(8))
				if _, err := tx.Update("dispatch", []btrim.Value{btrim.Int64(lane)},
					func(r btrim.Row) (btrim.Row, error) {
						r[1] = btrim.Int64(r[1].Int() + 1)
						return r, nil
					}); err != nil {
					return err
				}
			}
			return nil
		}))
		time.Sleep(20 * time.Millisecond) // let background pack breathe

		if round%10 == 9 {
			s := db.Stats()
			fmt.Printf("round %2d: %6d orders total | IMRS %4.1f%% full | orders in-mem: %5d rows (%.2f MB) | dispatch in-mem: %d rows | packed: %d rows\n",
				round+1, nextID,
				100*float64(s.IMRSUsedBytes)/float64(s.IMRSCapacity),
				s.Partition("orders").IMRSRows, float64(s.Partition("orders").IMRSBytes)/(1<<20),
				s.Partition("dispatch").IMRSRows,
				s.RowsPacked)
		}
	}

	// Cold orders are still there — transparently served from the page
	// store, no application change needed.
	must(db.View(func(tx *btrim.Tx) error {
		r, ok, err := tx.Get("orders", btrim.Int64(1))
		if err != nil || !ok {
			return fmt.Errorf("order 1 lost: %v", err)
		}
		fmt.Printf("order 1 (long cold) still readable: status=%s\n", r[2].Str())
		return nil
	}))
	s := db.Stats()
	fmt.Printf("final: %d of %d orders in memory; the dispatch board (%d lanes) never left it\n",
		s.Partition("orders").IMRSRows, nextID, s.Partition("dispatch").IMRSRows)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
