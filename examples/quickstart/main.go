// Quickstart: open a database, create a table, and run transactional
// CRUD through the public API. The engine transparently keeps hot rows
// in the In-Memory Row Store and everything stays fully ACID.
package main

import (
	"fmt"
	"log"

	"repro/btrim"
)

func main() {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: 16 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.CreateTable(btrim.TableSpec{
		Name: "users",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type},
			{Name: "name", Type: btrim.StringType},
			{Name: "score", Type: btrim.Float64Type},
		},
		PrimaryKey: []string{"id"},
		Indexes: []btrim.IndexSpec{
			{Name: "users_name", Columns: []string{"name"}},
		},
	}); err != nil {
		log.Fatal(err)
	}

	// Insert a few rows in one transaction.
	err = db.Update(func(tx *btrim.Tx) error {
		for i, name := range []string{"ada", "grace", "edsger", "barbara"} {
			if err := tx.Insert("users", btrim.Values(
				btrim.Int64(int64(i+1)), btrim.String(name), btrim.Float64(float64(90+i)),
			)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Point read, update, secondary-index lookup.
	err = db.Update(func(tx *btrim.Tx) error {
		row, ok, err := tx.Get("users", btrim.Int64(2))
		if err != nil || !ok {
			return fmt.Errorf("get: %v", err)
		}
		fmt.Printf("user 2: %s (score %.0f)\n", row[1].Str(), row[2].Float())

		if _, err := tx.Update("users", []btrim.Value{btrim.Int64(2)},
			func(r btrim.Row) (btrim.Row, error) {
				r[2] = btrim.Float64(r[2].Float() + 10)
				return r, nil
			}); err != nil {
			return err
		}
		rows, err := tx.LookupAll("users", "users_name", btrim.String("grace"))
		if err != nil {
			return err
		}
		fmt.Printf("grace's new score: %.0f\n", rows[0][2].Float())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Scan and stats.
	_ = db.View(func(tx *btrim.Tx) error {
		fmt.Println("all users:")
		return tx.Scan("users", func(r btrim.Row) bool {
			fmt.Printf("  %d %s %.0f\n", r[0].Int(), r[1].Str(), r[2].Float())
			return true
		})
	})
	s := db.Stats()
	fmt.Printf("IMRS: %d rows in memory, hit rate %.0f%%\n", s.IMRSRows, 100*s.IMRSHitRate())
}
