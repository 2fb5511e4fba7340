package imrs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestAllocatorChurnReuse drives alloc/free storms from many goroutines
// (the shape parallel GC reclaim produces: frees landing on shards the
// allocating goroutine never touched) and asserts the two properties
// the fragment manager is trusted for:
//
//  1. Free-listed fragments are actually reused — after a warm-up storm,
//     further storms of the same shape stop grabbing new slabs.
//  2. Used() accounting balances to exactly zero once everything is
//     freed, storm after storm: capacity admission depends on it.
func TestAllocatorChurnReuse(t *testing.T) {
	a := NewAllocator(256 << 20)
	const (
		workers  = 8
		rounds   = 6
		perRound = 400
	)

	storm := func(seed int64) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
				frags := make([]*Fragment, 0, perRound)
				for i := 0; i < perRound; i++ {
					n := 16 + rng.Intn(2000)
					f, err := a.Alloc(bytes.Repeat([]byte{byte(i)}, n))
					if err != nil {
						t.Errorf("alloc %d bytes: %v", n, err)
						return
					}
					frags = append(frags, f)
					// Interleave frees so free lists churn mid-storm, and
					// free out of allocation order.
					if len(frags) > 8 && rng.Intn(2) == 0 {
						j := rng.Intn(len(frags))
						a.Free(frags[j])
						frags[j] = frags[len(frags)-1]
						frags = frags[:len(frags)-1]
					}
				}
				for _, f := range frags {
					a.Free(f)
				}
			}()
		}
		wg.Wait()
	}

	var grabsAfterWarmup int64
	for r := 0; r < rounds; r++ {
		storm(int64(r + 1))
		if used := a.Used(); used != 0 {
			t.Fatalf("round %d: Used() = %d after freeing everything", r, used)
		}
		if a.Frees.Load() != a.Allocs.Load() {
			t.Fatalf("round %d: allocs %d != frees %d", r, a.Allocs.Load(), a.Frees.Load())
		}
		if r == 1 {
			grabsAfterWarmup = a.SlabGrabs.Load()
		}
	}
	// Reuse: the steady-state storms must be served from the free lists.
	// A small tail of grabs is tolerated (goroutines hash to different
	// shards across rounds), but growth proportional to the storm volume
	// means the free lists are being bypassed.
	growth := a.SlabGrabs.Load() - grabsAfterWarmup
	if growth > grabsAfterWarmup/2+2 {
		t.Fatalf("SlabGrabs did not plateau: %d after warm-up, %d more over %d steady rounds",
			grabsAfterWarmup, growth, rounds-2)
	}
}

// TestAllocFuncInPlace checks the direct-encode entry point: the fill
// callback writes straight into the fragment (no copy), the payload
// round-trips, and the overflow fallback (fill outgrowing the estimate)
// still yields a correct fragment with balanced accounting.
func TestAllocFuncInPlace(t *testing.T) {
	a := NewAllocator(1 << 20)

	payload := []byte("hello fragment world")
	f, err := a.AllocFunc(len(payload), func(dst []byte) []byte {
		if cap(dst) < len(payload) {
			t.Fatalf("fill got cap %d, want >= %d", cap(dst), len(payload))
		}
		return append(dst, payload...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Bytes(), payload) {
		t.Fatalf("payload mismatch: %q", f.Bytes())
	}
	// In-place: the fragment's backing array holds the payload directly.
	if &f.Bytes()[0] != &f.buf[0] {
		t.Fatal("payload not written in place")
	}
	a.Free(f)

	// Overflow fallback: fill appends more than the declared size.
	big := bytes.Repeat([]byte("x"), 500)
	f2, err := a.AllocFunc(10, func(dst []byte) []byte { return append(dst, big...) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2.Bytes(), big) {
		t.Fatal("overflowing fill lost data")
	}
	a.Free(f2)
	if used := a.Used(); used != 0 {
		t.Fatalf("Used() = %d after frees", used)
	}

	// Short fill: returning less than the estimate is fine too.
	f3, err := a.AllocFunc(100, func(dst []byte) []byte { return append(dst, "tiny"...) })
	if err != nil {
		t.Fatal(err)
	}
	if string(f3.Bytes()) != "tiny" {
		t.Fatalf("short fill payload = %q", f3.Bytes())
	}
	a.Free(f3)

	// Empty fill.
	f4, err := a.AllocFunc(0, func(dst []byte) []byte { return dst })
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Bytes()) != 0 {
		t.Fatal("empty fill produced payload")
	}
	a.Free(f4)
	if used := a.Used(); used != 0 {
		t.Fatalf("Used() = %d at end", used)
	}
	if a.Frees.Load() != a.Allocs.Load() {
		t.Fatalf("allocs %d != frees %d", a.Allocs.Load(), a.Frees.Load())
	}
}

// Exactness of Used() under concurrent AllocFunc/Free mixes, including
// capacity-limited failures: a failed admission must not leak reserved
// bytes.
func TestAllocatorUsedExactUnderPressure(t *testing.T) {
	a := NewAllocator(64 << 10) // tiny: force ErrCacheFull races
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var frags []*Fragment
			for i := 0; i < 500; i++ {
				n := 32 + rng.Intn(4096)
				f, err := a.AllocFunc(n, func(dst []byte) []byte {
					return append(dst, fmt.Sprintf("%d-%d", w, i)...)
				})
				if err == nil {
					frags = append(frags, f)
				}
				if len(frags) > 4 {
					a.Free(frags[0])
					frags = frags[1:]
				}
			}
			for _, f := range frags {
				a.Free(f)
			}
		}()
	}
	wg.Wait()
	if used := a.Used(); used != 0 {
		t.Fatalf("Used() = %d after freeing everything", used)
	}
}

// TestAllocatorCrossShardFreeReuse: fragments are freed on shards that
// no longer allocate. In each phase every worker allocates on one shard
// that no phase used before, and frees its oldest fragments, which
// earlier phases allocated on other shards. The free fragments must be
// taken before new slabs are carved, so the slabs stay near the live
// set rather than growing by a live set per phase.
func TestAllocatorCrossShardFreeReuse(t *testing.T) {
	const (
		capacity = 32 << 20
		workers  = 4
		window   = 800 // live fragments per worker, about half the capacity in all
		limit    = capacity * 3 / 2
	)
	if len(sizeClasses) > 64 {
		t.Fatalf("%d size classes do not fit allocShard.nonEmpty", len(sizeClasses))
	}
	a := NewAllocator(capacity)
	slabBytes := func() int64 { return a.SlabGrabs.Load() * slabSize }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			live := make([]*Fragment, 0, window)
			for si := 0; si < allocShards; si++ {
				for i := 0; i < window; i++ {
					if slabBytes() > limit {
						return
					}
					idx, size, err := classFor(2048 + rng.Intn(6144))
					if err != nil {
						t.Error(err)
						return
					}
					f, err := a.grab(si, idx, size)
					if err != nil {
						t.Errorf("shard %d: %v", si, err)
						return
					}
					if len(live) == window {
						a.Free(live[0])
						live = append(live[:0], live[1:]...)
					}
					live = append(live, f)
				}
			}
			for _, f := range live {
				a.Free(f)
			}
		}()
	}
	wg.Wait()
	if got := slabBytes(); got > limit {
		t.Fatalf("slabs hold %d MiB for a %d MiB allocator, want at most %d MiB",
			got>>20, capacity>>20, limit>>20)
	}
}
