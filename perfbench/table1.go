package main

import (
	"math"
	"strconv"
	"time"

	"clgen/internal/driver"
	"clgen/internal/experiments"
	"clgen/internal/grewe"
	"clgen/internal/journal"
	"clgen/internal/platform"
	"clgen/internal/pool"
)

// suiteOut is one suite (benchmark, dataset) job of a table1 pass.
type suiteOut struct {
	k       *driver.Kernel
	amd, nv *driver.Measurement
	err     error
	measure time.Duration // the AMD measurement and the NVIDIA model
}

// table1Run is one table1 pass.
type table1Run struct {
	outs  []suiteOut
	world *experiments.World // nil when a job failed
	grid  *experiments.Table1Result
	wall  time.Duration
}

// table1Pass measures every suite job as the campaign's measure_suites
// does, taking jobs in the given order (a closed loop), then runs Table 1
// on a World holding those observations.
func table1Pass(c *campaign, order []int, workers int, tr *tracer) (*table1Run, error) {
	coldPass()
	start := time.Now()
	pass := tr.begin("table1.pass", 0)
	defer tr.end(pass)
	r := &table1Run{outs: make([]suiteOut, len(order))}
	done := pool.Map(workers, len(order), func(n int) suiteOut { return measureSuite(c.jobs[order[n]], tr, pass) })
	for n, o := range done {
		r.outs[order[n]] = o
	}
	w := &experiments.World{Obs: map[string]map[string][]*grewe.Observation{}}
	for _, sys := range experiments.Systems {
		w.Obs[sys.Name] = map[string][]*grewe.Observation{}
	}
	amd, nv := platform.SystemAMD.Name, platform.SystemNVIDIA.Name
	for i, o := range r.outs {
		if o.err != nil {
			r.wall = time.Since(start)
			return r, nil
		}
		b := c.jobs[i].b
		id := journal.ID(o.k.Src)
		w.Obs[amd][b.Suite] = append(w.Obs[amd][b.Suite], &grewe.Observation{Bench: b.ID(), ID: id, M: o.amd})
		w.Obs[nv][b.Suite] = append(w.Obs[nv][b.Suite], &grewe.Observation{Bench: b.ID(), ID: id, M: o.nv})
	}
	r.world = w
	var err error
	tr.do("experiments.Table1", pass, func() { r.grid, err = experiments.Table1(w) })
	r.wall = time.Since(start)
	return r, err
}

func measureSuite(j suiteJob, tr *tracer, parent int) suiteOut {
	id := tr.begin("table1.job", parent)
	defer tr.end(id)
	var o suiteOut
	tr.do("suites.Benchmark.Load", id, func() { o.k, o.err = j.b.Load() })
	if o.err != nil {
		return o
	}
	start := time.Now()
	mid := tr.begin("suites.Benchmark.Measure", id)
	o.amd, o.err = j.b.Measure(o.k, j.ds, platform.SystemAMD, campaignSeed+11)
	tr.end(mid)
	if o.err != nil {
		return o
	}
	if tr != nil {
		// Measure extrapolates the profile past the cap; the interpreter
		// executed the capped launch only.
		f := 1.0
		if n := min(j.ds.N, execCap); n < j.ds.N {
			f = float64(j.ds.N) / float64(n)
		}
		p := o.amd.Profile
		tr.attr(mid, "ops", strconv.FormatInt(int64(math.Round(float64(profiledOps(p))/f)), 10))
		tr.attr(mid, "work_items", strconv.FormatInt(int64(math.Round(float64(p.WorkItems)/f)), 10))
		tr.attr(mid, "lockstep", strconv.FormatBool(p.Barriers > 0))
	}
	tr.do("driver.MeasureProfile", id, func() {
		o.nv, o.err = driver.MeasureProfile(o.k, o.amd.Profile, o.amd.Vector.Transfer,
			o.amd.GlobalSize, int(o.amd.Vector.WgSize), platform.SystemNVIDIA)
	})
	if o.err == nil {
		o.nv.Kernel = o.amd.Kernel
	}
	o.measure = time.Since(start)
	return o
}

func (b *bench) table1PassStat(c *campaign, j int, tr *tracer) (passStat, error) {
	cpu0 := cpuTime()
	r, err := table1Pass(c, b.perm(j, len(c.jobs)), b.workers, tr)
	if err != nil {
		return passStat{}, err
	}
	p := passStat{kernels: len(r.outs), wall: r.wall, cpu: cpuTime() - cpu0}
	b.checkTable1(r)
	for _, o := range r.outs {
		if o.err == nil {
			p.ops = append(p.ops, o.measure)
		}
	}
	return p, nil
}

// tracedTable1 makes one traced table1 pass and reports the suite,
// interpreter, platform and Grewe layers. It returns the pass's wall time.
func (b *bench) tracedTable1(m metrics, c *campaign, tr *tracer) (time.Duration, error) {
	r, err := table1Pass(c, b.perm(0, len(c.jobs)), b.workers, tr)
	if err != nil {
		return 0, err
	}
	b.checkTable1(r)
	table1Layers(m, tr)
	return r.wall, nil
}
