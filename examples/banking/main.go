// Banking: durable hybrid storage. Accounts are hot (every payment
// touches them) and stay in memory; the audit trail is insert-only and
// ages out to the page store. The database lives in files, and the
// example restarts it to show both logs recovering — the page store via
// redo of syslogs, the IMRS via redo-only replay of sysimrslogs.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/btrim"
)

func main() {
	dir, err := os.MkdirTemp("", "btrim-banking-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := btrim.Config{Dir: dir, IMRSCacheBytes: 8 << 20}
	db, err := btrim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	must(db.CreateTable(btrim.TableSpec{
		Name: "accounts",
		Columns: []btrim.Column{
			{Name: "id", Type: btrim.Int64Type},
			{Name: "owner", Type: btrim.StringType},
			{Name: "balance", Type: btrim.Float64Type},
		},
		PrimaryKey: []string{"id"},
	}))
	must(db.CreateTable(btrim.TableSpec{
		Name: "audit",
		Columns: []btrim.Column{
			{Name: "seq", Type: btrim.Int64Type},
			{Name: "from_id", Type: btrim.Int64Type},
			{Name: "to_id", Type: btrim.Int64Type},
			{Name: "amount", Type: btrim.Float64Type},
		},
		PrimaryKey: []string{"seq"},
	}))

	const nAccounts = 100
	must(db.Update(func(tx *btrim.Tx) error {
		for i := int64(1); i <= nAccounts; i++ {
			if err := tx.Insert("accounts", btrim.Values(
				btrim.Int64(i), btrim.String(fmt.Sprintf("acct-%03d", i)), btrim.Float64(1000),
			)); err != nil {
				return err
			}
		}
		return nil
	}))

	// Money moves; every transfer is one ACID transaction across two
	// account rows plus an audit insert.
	rng := rand.New(rand.NewSource(7))
	var seq int64
	for i := 0; i < 2000; i++ {
		from := int64(1 + rng.Intn(nAccounts))
		to := int64(1 + rng.Intn(nAccounts))
		if from == to {
			continue
		}
		amount := float64(1 + rng.Intn(50))
		seq++
		must(db.Update(func(tx *btrim.Tx) error {
			if _, err := tx.Update("accounts", []btrim.Value{btrim.Int64(from)},
				func(r btrim.Row) (btrim.Row, error) {
					r[2] = btrim.Float64(r[2].Float() - amount)
					return r, nil
				}); err != nil {
				return err
			}
			if _, err := tx.Update("accounts", []btrim.Value{btrim.Int64(to)},
				func(r btrim.Row) (btrim.Row, error) {
					r[2] = btrim.Float64(r[2].Float() + amount)
					return r, nil
				}); err != nil {
				return err
			}
			return tx.Insert("audit", btrim.Values(
				btrim.Int64(seq), btrim.Int64(from), btrim.Int64(to), btrim.Float64(amount),
			))
		}))
	}

	total := sumBalances(db, nAccounts)
	fmt.Printf("before restart: %d transfers, total balance %.0f (invariant: %d)\n",
		seq, total, nAccounts*1000)
	must(db.Close())

	// Restart: recovery replays both logs and rebuilds indexes.
	db2, err := btrim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	total2 := sumBalances(db2, nAccounts)
	var audits int
	must(db2.View(func(tx *btrim.Tx) error {
		return tx.Scan("audit", func(btrim.Row) bool { audits++; return true })
	}))
	fmt.Printf("after restart:  total balance %.0f, %d audit rows recovered\n", total2, audits)
	if total2 != float64(nAccounts*1000) || int64(audits) != seq {
		log.Fatal("recovery lost money or audit records!")
	}
	fmt.Println("durability check passed")
}

func sumBalances(db *btrim.DB, n int) float64 {
	var total float64
	_ = db.View(func(tx *btrim.Tx) error {
		return tx.Scan("accounts", func(r btrim.Row) bool {
			total += r[2].Float()
			return true
		})
	})
	return total
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
