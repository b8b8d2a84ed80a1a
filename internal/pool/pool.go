// Package pool is the pipeline's worker-pool execution layer. The paper's
// pipeline is embarrassingly parallel — §4.1 filters content files
// independently, §4.3 samples and re-filters kernels independently, and §5
// sweeps payload sizes per kernel — so every hot fan-out in this repo runs
// through the ordered primitives here.
//
// Determinism is the hard requirement: results are always consumed in item
// order, and randomized stages derive one RNG seed per item with
// DeriveSeed, so any worker count produces byte-identical corpora, samples,
// and experiment tables (proven by the determinism suites in corpus, core,
// model, and experiments).
//
// Worker occupancy is exported as the `pipeline_workers_busy` gauge.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"clgen/internal/telemetry"
)

// defaultWorkers is the process-wide worker count; <= 0 means GOMAXPROCS.
// It is written once through SetWorkers before the pipeline starts, and
// read thereafter.
var defaultWorkers int64

// Workers returns the process default worker count: the value of the
// -workers flag when set, otherwise GOMAXPROCS.
func Workers() int {
	if n := atomic.LoadInt64(&defaultWorkers); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the process default worker count (<= 0 restores the
// GOMAXPROCS default). The binaries' -workers flag calls it when parsed.
func SetWorkers(n int) { atomic.StoreInt64(&defaultWorkers, int64(n)) }

// DeriveSeed derives the RNG seed for item index of a stage keyed by base —
// the splittable-seeding rule (a splitmix64 step over base and index) that
// makes randomized stages independent of worker scheduling: item i's random
// stream depends only on (base, i), never on which goroutine ran it or what
// ran before.
func DeriveSeed(base, index int64) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// busyGauge returns the shared worker-occupancy gauge.
func busyGauge() *telemetry.Gauge {
	return telemetry.Default().Gauge("pipeline_workers_busy",
		"Worker goroutines currently executing a pipeline item.")
}

// Map runs fn(0..n-1) on up to workers goroutines and returns the results
// in index order. workers <= 0 means Workers(). fn must be pure per index
// (it may update atomic telemetry); with that contract the output is
// identical for every worker count. workers == 1 runs inline with no
// goroutines.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	busy := busyGauge()
	if workers <= 1 {
		for i := range out {
			busy.Add(1)
			out[i] = fn(i)
			busy.Add(-1)
			telemetry.Advance("pool")
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				busy.Add(1)
				out[i] = fn(i)
				busy.Add(-1)
				telemetry.Advance("pool")
			}
		}()
	}
	wg.Wait()
	return out
}

// Scan evaluates fn(0), fn(1), ... on up to workers goroutines and feeds
// each result to accept STRICTLY IN INDEX ORDER until accept returns false
// or maxItems results have been consumed. It returns the number of items
// consumed. Scan is the deterministic replacement for sequential
// sample-until-accepted loops: workers speculate ahead within a bounded
// batch, but acceptance (and any stateful bookkeeping inside accept)
// always observes the same ordered stream, so the outcome is identical for
// every worker count.
func Scan[T any](workers, maxItems int, fn func(i int) T, accept func(i int, v T) bool) int {
	if workers <= 0 {
		workers = Workers()
	}
	// Batch size bounds speculative waste past the stopping point while
	// keeping all workers fed.
	batch := workers * 4
	if batch < 1 {
		batch = 1
	}
	consumed := 0
	for base := 0; base < maxItems; base += batch {
		n := batch
		if base+n > maxItems {
			n = maxItems - base
		}
		results := Map(workers, n, func(i int) T { return fn(base + i) })
		for i, v := range results {
			consumed++
			if !accept(base+i, v) {
				return consumed
			}
		}
	}
	return consumed
}
