package tpcc

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/btrim"
)

func smallConfig() Config {
	return Config{
		Warehouses:               1,
		DistrictsPerW:            3,
		CustomersPerDistrict:     20,
		Items:                    50,
		InitialOrdersPerDistrict: 10,
		Seed:                     7,
	}
}

func loadBench(t *testing.T, dbCfg btrim.Config, cfg Config) *Bench {
	t.Helper()
	if dbCfg.IMRSCacheBytes == 0 {
		dbCfg.IMRSCacheBytes = 32 << 20
	}
	db, err := btrim.Open(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	b, err := Load(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLoadCounts(t *testing.T) {
	cfg := smallConfig()
	b := loadBench(t, btrim.Config{}, cfg)
	counts := map[string]int{}
	err := b.DB.View(func(tx *btrim.Tx) error {
		for _, name := range TableNames {
			n := 0
			if err := tx.Scan(name, func(btrim.Row) bool { n++; return true }); err != nil {
				return err
			}
			counts[name] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[TableWarehouse] != cfg.Warehouses {
		t.Errorf("warehouse = %d", counts[TableWarehouse])
	}
	if counts[TableDistrict] != cfg.Warehouses*cfg.DistrictsPerW {
		t.Errorf("district = %d", counts[TableDistrict])
	}
	if counts[TableCustomer] != cfg.Warehouses*cfg.DistrictsPerW*cfg.CustomersPerDistrict {
		t.Errorf("customer = %d", counts[TableCustomer])
	}
	if counts[TableItem] != cfg.Items {
		t.Errorf("item = %d", counts[TableItem])
	}
	if counts[TableStock] != cfg.Warehouses*cfg.Items {
		t.Errorf("stock = %d", counts[TableStock])
	}
	if counts[TableOrders] != cfg.Warehouses*cfg.DistrictsPerW*cfg.InitialOrdersPerDistrict {
		t.Errorf("orders = %d", counts[TableOrders])
	}
	if counts[TableNewOrders] == 0 || counts[TableNewOrders] >= counts[TableOrders] {
		t.Errorf("new_orders = %d (orders %d)", counts[TableNewOrders], counts[TableOrders])
	}
	if counts[TableOrderLine] < counts[TableOrders]*5 {
		t.Errorf("order_line = %d", counts[TableOrderLine])
	}
}

func TestNewOrderConsistency(t *testing.T) {
	b := loadBench(t, btrim.Config{}, smallConfig())
	rng := rand.New(rand.NewSource(1))
	before := countRows(t, b, TableOrders)
	ok := 0
	for i := 0; i < 30; i++ {
		if err := b.NewOrder(rng, int64(i)); err == nil {
			ok++
		} else if err != ErrUserAbort {
			t.Fatalf("new-order %d: %v", i, err)
		}
	}
	after := countRows(t, b, TableOrders)
	if after-before != ok {
		t.Fatalf("orders grew by %d, committed %d", after-before, ok)
	}
	// district next_o_id consistency: every committed order is reachable.
	err := b.DB.View(func(tx *btrim.Tx) error {
		for d := int64(1); d <= int64(b.Cfg.DistrictsPerW); d++ {
			dist, ok, err := tx.Get(TableDistrict, btrim.Int64(1), btrim.Int64(d))
			if err != nil || !ok {
				t.Fatal("district read failed")
			}
			next := dist[dNextOID].Int()
			for o := int64(1); o < next; o++ {
				if _, ok, _ := tx.Get(TableOrders, btrim.Int64(1), btrim.Int64(d), btrim.Int64(o)); !ok {
					t.Fatalf("order %d/%d missing below next_o_id %d", d, o, next)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func countRows(t *testing.T, b *Bench, table string) int {
	t.Helper()
	n := 0
	if err := b.DB.View(func(tx *btrim.Tx) error {
		return tx.Scan(table, func(btrim.Row) bool { n++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPaymentUpdatesBalances(t *testing.T) {
	b := loadBench(t, btrim.Config{}, smallConfig())
	rng := rand.New(rand.NewSource(2))
	histBefore := countRows(t, b, TableHistory)
	for i := 0; i < 20; i++ {
		if err := b.Payment(rng, int64(i)); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
	if got := countRows(t, b, TableHistory); got != histBefore+20 {
		t.Fatalf("history rows = %d, want %d", got, histBefore+20)
	}
	// Warehouse YTD grew.
	_ = b.DB.View(func(tx *btrim.Tx) error {
		w, _, _ := tx.Get(TableWarehouse, btrim.Int64(1))
		if w[wYTD].Float() <= 300000 {
			t.Fatalf("warehouse YTD did not grow: %v", w[wYTD])
		}
		return nil
	})
}

func TestDeliveryDrainsQueue(t *testing.T) {
	b := loadBench(t, btrim.Config{}, smallConfig())
	rng := rand.New(rand.NewSource(3))
	before := countRows(t, b, TableNewOrders)
	if before == 0 {
		t.Fatal("no queued orders after load")
	}
	for i := 0; i < 10 && countRows(t, b, TableNewOrders) > 0; i++ {
		if err := b.Delivery(rng, int64(i)); err != nil {
			t.Fatalf("delivery: %v", err)
		}
	}
	after := countRows(t, b, TableNewOrders)
	if after >= before {
		t.Fatalf("delivery did not drain the queue: %d -> %d", before, after)
	}
}

func TestReadOnlyTransactions(t *testing.T) {
	b := loadBench(t, btrim.Config{}, smallConfig())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		if err := b.OrderStatus(rng); err != nil {
			t.Fatalf("order-status: %v", err)
		}
		if err := b.StockLevel(rng); err != nil {
			t.Fatalf("stock-level: %v", err)
		}
	}
}

func TestDriverMixAndConcurrency(t *testing.T) {
	b := loadBench(t, btrim.Config{}, smallConfig())
	d := NewDriver(b, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	d.Run(ctx, 400)
	st := d.Stats()
	total := st.TotalCommitted()
	if total < 400 {
		t.Fatalf("committed %d transactions, want >= 400", total)
	}
	var errs int64
	for i := range st.Errors {
		errs += st.Errors[i].Load()
	}
	if errs > 0 {
		for i := range st.Errors {
			if n := st.Errors[i].Load(); n > 0 {
				t.Errorf("%v errors: %d", TxnType(i), n)
			}
		}
		t.Fatalf("driver produced %d hard errors", errs)
	}
	// The mix should be roughly honored: new-order ~45%.
	no := st.Committed[TxnNewOrder].Load()
	if float64(no)/float64(total) < 0.25 {
		t.Fatalf("new-order fraction %.2f too low", float64(no)/float64(total))
	}
}

func TestDriverWithTinyIMRSAndPack(t *testing.T) {
	// A small IMRS forces pack activity under the live workload.
	b := loadBench(t, btrim.Config{IMRSCacheBytes: 2 << 20, PackThreads: 2}, smallConfig())
	d := NewDriver(b, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	d.Run(ctx, 600)
	st := d.Stats()
	if st.TotalCommitted() < 600 {
		t.Fatalf("committed %d", st.TotalCommitted())
	}
	var errs int64
	for i := range st.Errors {
		errs += st.Errors[i].Load()
	}
	if errs > 0 {
		t.Fatalf("hard errors under memory pressure: %d", errs)
	}
	stats := b.DB.Stats()
	if float64(stats.IMRSUsedBytes) > float64(stats.IMRSCapacity) {
		t.Fatal("utilization exceeded capacity")
	}
}

func TestLastName(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", LastName(371))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %q", LastName(999))
	}
}

func TestNURandRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		v := NURand(rng, 1023, 1, 100)
		if v < 1 || v > 100 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
}
