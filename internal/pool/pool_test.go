package pool

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"clgen/internal/telemetry"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := Map(workers, 50, func(i int) int { return i * i })
		if len(got) != 50 {
			t.Fatalf("workers=%d: len %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if Map(4, 0, func(i int) int { return i }) != nil {
		t.Error("empty input should yield nil")
	}
}

// TestMapDeterministicWithPerItemRNG is the core determinism contract: a
// randomized fn seeded per item with DeriveSeed yields identical output
// for every worker count.
func TestMapDeterministicWithPerItemRNG(t *testing.T) {
	run := func(workers int) []int64 {
		return Map(workers, 40, func(i int) int64 {
			rng := rand.New(rand.NewSource(DeriveSeed(7, int64(i))))
			return rng.Int63()
		})
	}
	want := run(1)
	for _, workers := range []int{2, 4, 16} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d differs", workers, i)
			}
		}
	}
}

func TestScanConsumesInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var seen []int
		consumed := Scan(workers, 1000, func(i int) int { return i }, func(i, v int) bool {
			if i != v {
				t.Fatalf("index mismatch: %d vs %d", i, v)
			}
			seen = append(seen, v)
			return len(seen) < 10
		})
		if consumed != 10 || len(seen) != 10 {
			t.Fatalf("workers=%d: consumed %d, seen %d", workers, consumed, len(seen))
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d: out-of-order consumption: %v", workers, seen)
			}
		}
	}
}

func TestScanRespectsMaxItems(t *testing.T) {
	var calls atomic.Int64
	consumed := Scan(2, 5, func(i int) int { calls.Add(1); return i }, func(i, v int) bool { return true })
	if consumed != 5 {
		t.Errorf("consumed %d, want 5", consumed)
	}
	if calls.Load() != 5 {
		t.Errorf("fn called %d times, want 5", calls.Load())
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for i := int64(0); i < 256; i++ {
			seen[DeriveSeed(base, i)] = true
		}
	}
	if len(seen) != 4*256 {
		t.Errorf("seed collisions: %d unique of %d", len(seen), 4*256)
	}
	if DeriveSeed(1, 0) == DeriveSeed(0, 1) {
		t.Error("base and index must not be interchangeable")
	}
}

func TestBusyGaugeReturnsToZero(t *testing.T) {
	Map(8, 64, func(i int) int { return i })
	g := telemetry.Default().Gauge("pipeline_workers_busy", "")
	if v := g.Value(); v != 0 {
		t.Errorf("busy gauge %f after Map returned", v)
	}
}
