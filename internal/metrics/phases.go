package metrics

import (
	"slices"
	"sync"
	"time"
)

// PhaseStat is one recorded phase of a multi-phase operation (recovery
// is the first user): its wall time, how many items it processed, and
// how many workers processed them.
type PhaseStat struct {
	Name     string
	Duration time.Duration
	Items    int64
	Workers  int
}

// PhaseSet records the phases of a multi-phase operation in execution
// order. Observing the same name again folds into the existing entry
// (durations and items add), so a phase that runs in several bursts
// still reads as one line. Safe for concurrent use, though the intended
// pattern is single-writer (the phase runner) many-readers (stats).
type PhaseSet struct {
	mu     sync.Mutex
	phases []PhaseStat
}

// Observe records one execution of the named phase.
func (s *PhaseSet) Observe(name string, d time.Duration, items int64, workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.phases {
		if s.phases[i].Name == name {
			s.phases[i].Duration += d
			s.phases[i].Items += items
			if workers > s.phases[i].Workers {
				s.phases[i].Workers = workers
			}
			return
		}
	}
	s.phases = append(s.phases, PhaseStat{Name: name, Duration: d, Items: items, Workers: workers})
}

// Snapshot returns the phases in first-observed order.
func (s *PhaseSet) Snapshot() []PhaseStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.phases)
}
