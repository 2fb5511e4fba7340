package btrim_test

import (
	"testing"

	"repro/btrim"
)

func TestPublicAPIHealth(t *testing.T) {
	db := openDB(t, btrim.Config{Shards: 3})
	if err := db.CreateTable(accountsSpec()); err != nil {
		t.Fatal(err)
	}
	h := db.Health()
	if h.State != btrim.StateHealthy {
		t.Fatalf("fresh engine health = %v, want %v", h.State, btrim.StateHealthy)
	}
	if h.State.String() != "healthy" {
		t.Fatalf("StateHealthy.String() = %q", h.State.String())
	}
	if h.ReadOnlyCause != "" || len(h.DegradedCauses) != 0 {
		t.Fatalf("fresh engine carries causes: %+v", h)
	}
	if got := db.Stats().Health.State; got != btrim.StateHealthy {
		t.Fatalf("Stats().Health.State = %v, want healthy", got)
	}
	if btrim.IsReadOnly(nil) {
		t.Fatal("IsReadOnly(nil) = true")
	}
}
