package metrics

import (
	"testing"
	"time"
)

func TestPhaseSetOrderAndFold(t *testing.T) {
	var s PhaseSet
	s.Observe("analyze", 10*time.Millisecond, 100, 1)
	s.Observe("replay", 20*time.Millisecond, 50, 4)
	s.Observe("analyze", 5*time.Millisecond, 10, 2)

	ps := s.Snapshot()
	if len(ps) != 2 {
		t.Fatalf("phases = %d, want 2", len(ps))
	}
	if ps[0].Name != "analyze" || ps[1].Name != "replay" {
		t.Fatalf("order = %q,%q, want analyze,replay", ps[0].Name, ps[1].Name)
	}
	if ps[0].Duration != 15*time.Millisecond || ps[0].Items != 110 || ps[0].Workers != 2 {
		t.Fatalf("folded analyze = %+v", ps[0])
	}
}

func TestPhaseSetSnapshotIsCopy(t *testing.T) {
	var s PhaseSet
	s.Observe("a", time.Millisecond, 1, 1)
	snap := s.Snapshot()
	snap[0].Items = 999
	if s.Snapshot()[0].Items != 1 {
		t.Fatal("Snapshot aliases internal state")
	}
}
