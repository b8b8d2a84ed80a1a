package main

import (
	"math/rand"
	"time"

	"clgen/internal/cache"
	"clgen/internal/core"
	"clgen/internal/corpus"
	"clgen/internal/pool"
)

// synthRequests is how many synthesis requests, each with its own seed,
// the traced run makes. Attempts per accepted kernel vary from seed to
// seed, so one seed would measure that seed; sixteen average it out.
const synthRequests = 16

func (b *bench) requestSeed(j int) int64 {
	return pool.DeriveSeed(b.seed+100, int64(j))
}

// synthesizeRequest is one traced synthesis request from a cold filter
// memo. It is checked against the serial synthesis of the same seed:
// pool.Scan's contract makes the result the same for every worker count.
func (b *bench) synthesizeRequest(c *campaign, j int, tr *tracer) (time.Duration, core.SynthesisStats) {
	seed := b.requestSeed(j)
	cache.FlushMemory()
	// A shortfall error shows as Accepted < synthKernels in both runs.
	ks, st, _ := c.g.SynthesizeWorkers(synthKernels, sampleOpts, seed, 1)
	want := synthRefOf(seed, ks, st)
	cache.FlushMemory()
	start := time.Now()
	id := tr.begin("core.SynthesizeWorkers", 0)
	ks, st, _ = c.g.SynthesizeWorkers(synthKernels, sampleOpts, seed, b.workers)
	tr.end(id)
	wall := time.Since(start)
	b.tally.check(synthRefOf(seed, ks, st) == want, "synthesis request with seed %d", seed)
	return wall, st
}

// tracedSynthesize makes the traced synthesis requests and reports the
// synthesis layers.
func (b *bench) tracedSynthesize(m metrics, c *campaign, tr *tracer) {
	var wall, busy time.Duration
	var accepted, attempts int
	for j := 0; j < synthRequests; j++ {
		w, st := b.synthesizeRequest(c, j, tr)
		wall += w
		accepted += st.Accepted
		attempts += st.Attempts
		busy += b.replaySynthesis(c, b.requestSeed(j), st.Attempts, tr)
	}
	m.set("model.sample_us", meanUS(tr.named("model.SampleKernel")), "us")
	m.set("corpus.filter_us", meanUS(tr.named("corpus.FilterCached")), "us")
	m.set("core.accept_ratio", float64(accepted)/float64(attempts), "ratio")
	m.set("pool.busy_share", busy.Seconds()/(float64(b.workers)*wall.Seconds()), "ratio")
}

// replaySynthesis repeats one request's draws serially, one span per
// call, to split its time between the sampler and the filter. pool.Scan
// draws in batches of four per worker and SynthesizeWorkers stops at
// max(40n, 400) attempts, so the request drew every attempt up to the end
// of the batch holding its last one.
func (b *bench) replaySynthesis(c *campaign, seed int64, attempts int, tr *tracer) time.Duration {
	cache.FlushMemory()
	batch := 4 * b.workers
	drawn := min((attempts+batch-1)/batch*batch, max(40*synthKernels, 400))
	start := time.Now()
	for i := 0; i < drawn; i++ {
		rng := rand.New(rand.NewSource(pool.DeriveSeed(seed, int64(i))))
		var k string
		tr.do("model.SampleKernel", 0, func() { k = c.g.Model.SampleKernel(rng, sampleOpts) })
		tr.do("corpus.FilterCached", 0, func() { corpus.FilterCached(k, corpus.FilterOpts{Static: c.g.Static}) })
	}
	return time.Since(start)
}
