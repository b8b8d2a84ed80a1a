package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"clgen/internal/cache"
	"clgen/internal/clc"
	"clgen/internal/driver"
	"clgen/internal/interp"
	"clgen/internal/platform"
	"clgen/internal/pool"
	"clgen/internal/telemetry"
)

// Failure classes of a run-failure verdict, decided with errors.Is/As on
// the interpreter's own error.
const (
	classStepLimit = "step-limit"
	classFault     = "fault"
	classBarrier   = "barrier-divergence"
	classOther     = "other"
)

// checkHits counts check-memo hits, registered by the driver's memo.
var checkHits = telemetry.Default().Counter(telemetry.Label("cache_hits_total", "cache", "check"), "")

// driveCheck is one (kernel, payload size) of a drive pass.
type driveCheck struct {
	size    int
	verdict driver.CheckVerdict
	fault   *interp.MemFault
	hit     bool
	amd, nv *driver.Measurement
	err     error
}

// driveItem is one synthetic kernel of a drive pass.
type driveItem struct {
	k       *driver.Kernel
	loadErr error
	checks  []driveCheck
	measure time.Duration // every size's check and device models
}

// coldPass empties the memos and collects garbage, so that every pass
// starts from the state the first one did.
func coldPass() {
	cache.FlushMemory()
	runtime.GC()
}

// drivePass sends every campaign kernel through the host driver as the
// campaign's measure_synthetic does, taking kernels in the given order.
// It is a closed loop: each worker takes the next kernel when it finishes
// one. Items are indexed by kernel.
func drivePass(c *campaign, order []int, workers int, tr *tracer) ([]driveItem, time.Duration) {
	coldPass()
	start := time.Now()
	pass := tr.begin("drive.pass", 0)
	done := pool.Map(workers, len(order), func(n int) driveItem {
		return driveKernel(c.synth[order[n]], order[n], tr, pass)
	})
	tr.end(pass)
	wall := time.Since(start)
	items := make([]driveItem, len(order))
	for n, it := range done {
		items[order[n]] = it
	}
	return items, wall
}

func checkSeed(i int) int64 { return campaignSeed + int64(i)*31 }

// checkKey names kernel i at a size, as the campaign names observations.
func checkKey(i, size int) string { return fmt.Sprintf("clgen-%04d@%d", i, size) }

func driveKernel(src string, i int, tr *tracer, parent int) driveItem {
	id := tr.begin("drive.kernel", parent)
	defer tr.end(id)
	var it driveItem
	if it.k, it.loadErr = loadKernel(src, tr, id); it.loadErr != nil {
		return it
	}
	start := time.Now()
	for _, size := range payloadSizes {
		it.checks = append(it.checks, measureSynthetic(it.k, i, size, tr, id))
	}
	it.measure = time.Since(start)
	return it
}

// loadKernel is driver.Load, one call per span.
func loadKernel(src string, tr *tracer, parent int) (*driver.Kernel, error) {
	var f *clc.File
	var err error
	tr.do("clc.Parse", parent, func() { f, err = clc.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	tr.do("clc.Check", parent, func() { err = clc.Check(f) })
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	ks := f.Kernels()
	if len(ks) == 0 {
		return nil, errors.New("driver: no kernel function")
	}
	var k *driver.Kernel
	tr.do("driver.LoadKernel", parent, func() { k, err = driver.LoadKernel(f, ks[0].Name, src) })
	return k, err
}

// measureSynthetic is driver.Measure with one repeat, made call by call:
// driver.Check gives the verdict, the memo-hit flag and the executed
// profile, where driver.Measure returns a rejection only as an error.
func measureSynthetic(k *driver.Kernel, i, size int, tr *tracer, parent int) driveCheck {
	execSize := min(size, execCap)
	cid := tr.begin("driver.Check", parent)
	res := driver.Check(k, execSize, checkSeed(i), runCfg)
	tr.end(cid)
	tr.attr(cid, "key", checkKey(i, execSize))
	tr.attr(cid, "verdict", string(res.Verdict))
	tr.attr(cid, "hit", strconv.FormatBool(res.CacheHit))
	dc := driveCheck{size: size, verdict: res.Verdict, fault: res.Fault, hit: res.CacheHit}
	if !res.OK() {
		return dc
	}
	prof, transfer := res.Profile, res.TransferBytes
	if execSize != size {
		f := float64(size) / float64(execSize)
		prof.Scale(f)
		transfer = int64(float64(transfer) * f)
	}
	tr.do("driver.MeasureProfile", parent, func() {
		dc.amd, dc.err = driver.MeasureProfile(k, prof, transfer, size, res.LocalSize, platform.SystemAMD)
	})
	if dc.err != nil {
		return dc
	}
	dc.amd.Kernel = checkKey(i, size)
	tr.do("driver.MeasureProfile", parent, func() {
		dc.nv, dc.err = driver.MeasureProfile(k, dc.amd.Profile, dc.amd.Vector.Transfer,
			dc.amd.GlobalSize, int(dc.amd.Vector.WgSize), platform.SystemNVIDIA)
	})
	if dc.err == nil {
		dc.nv.Kernel = dc.amd.Kernel
	}
	return dc
}

// replayStats is the attribution replay of a drive pass.
type replayStats struct {
	classes map[string]string // failure class by checkKey at the executed size
	ops     int64
	items   int64
	mallocs uint64
	run     time.Duration
}

// replayDrive re-executes, after the timed pass, the interpreter runs of
// every check the pass computed cold: the first payload's run, and for a
// run failure every run in the checker's order up to the one that failed.
// Check keeps a run failure's cause only as text, so this is where a
// step-limit or fault verdict gets its class, by errors.Is/As on the
// run's own error; a memo hit takes the class of the check it repeats.
func replayDrive(items []driveItem, workers int, tr *tracer) replayStats {
	type job struct{ kernel, check int }
	var jobs []job
	for i, it := range items {
		for j, dc := range it.checks {
			if !dc.hit {
				jobs = append(jobs, job{i, j})
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outs := pool.Map(workers, len(jobs), func(n int) replayOut {
		it := items[jobs[n].kernel]
		dc := it.checks[jobs[n].check]
		return replayCheck(it.k, min(dc.size, execCap), checkSeed(jobs[n].kernel), dc.verdict == driver.RunFailure, tr)
	})
	runtime.ReadMemStats(&after)
	rs := replayStats{classes: map[string]string{}, mallocs: after.Mallocs - before.Mallocs}
	for n, o := range outs {
		jb := jobs[n]
		rs.classes[checkKey(jb.kernel, min(items[jb.kernel].checks[jb.check].size, execCap))] = o.class
		rs.ops += o.ops
		rs.items += o.items
		rs.run += o.run
	}
	return rs
}

type replayOut struct {
	class      string
	ops, items int64
	run        time.Duration
}

// replayCheck repeats driver.Check's payloads and runs for one check.
func replayCheck(k *driver.Kernel, execSize int, seed int64, failed bool, tr *tracer) replayOut {
	var out replayOut
	var a1, b1 *driver.Payload
	var err error
	tr.do("driver.GeneratePayload", 0, func() {
		a1, err = driver.GeneratePayload(k, execSize, rand.New(rand.NewSource(seed)))
	})
	if err == nil {
		tr.do("driver.GeneratePayload", 0, func() {
			b1, err = driver.GeneratePayload(k, execSize, rand.New(rand.NewSource(seed+1)))
		})
	}
	if err != nil {
		out.class = classify(err)
		return out
	}
	if len(a1.Outputs()) == 0 {
		return out
	}
	runs := []*driver.Payload{a1}
	if failed {
		runs = []*driver.Payload{a1, b1, a1.Clone(), b1.Clone()}
	}
	for _, p := range runs {
		var prof *interp.Profile
		start := time.Now()
		tr.do("driver.Kernel.Run", 0, func() { prof, err = k.Run(p, runCfg) })
		out.run += time.Since(start)
		if prof != nil {
			out.ops += profiledOps(prof)
			out.items += prof.WorkItems
		}
		if err != nil {
			out.class = classify(err)
			return out
		}
	}
	return out
}

// profiledOps counts the operations a profile records. Profile.Steps,
// the interpreter's own step count, is not filled in, so the interpreter's
// rate is measured in profiled operations.
func profiledOps(p *interp.Profile) int64 {
	return p.IntOps + p.FloatOps + p.GlobalLoads + p.GlobalStores + p.LocalLoads + p.LocalStores +
		p.PrivateOps + p.Branches + p.Barriers + p.Atomics
}

func classify(err error) string {
	var mf *interp.MemFault
	switch {
	case errors.Is(err, interp.ErrStepLimit):
		return classStepLimit
	case errors.As(err, &mf):
		return classFault
	case errors.Is(err, interp.ErrBarrierDivergence):
		return classBarrier
	}
	return classOther
}

// driveOrder is pass j's kernel order: a seeded shuffle with the kernels
// the reference classes as step-limit moved to the front. Those few
// kernels take seconds each against tens of milliseconds for the rest, so
// where the shuffle put them would otherwise decide how long the last
// worker runs alone.
func (b *bench) driveOrder(j, n int) []int {
	order := b.perm(j, n)
	slow := map[int]bool{}
	for _, r := range b.ref.Drive {
		if r.Class == classStepLimit {
			slow[r.Kernel] = true
		}
	}
	sort.SliceStable(order, func(x, y int) bool { return slow[order[x]] && !slow[order[y]] })
	return order
}

func (b *bench) drivePassStat(c *campaign, j int, tr *tracer) (passStat, error) {
	hits0, cpu0 := checkHits.Value(), cpuTime()
	items, wall := drivePass(c, b.driveOrder(j, len(c.synth)), b.workers, tr)
	p := passStat{kernels: len(items), wall: wall, cpu: cpuTime() - cpu0}
	b.checkDrive(items, checkHits.Value()-hits0, nil)
	for _, it := range items {
		if it.loadErr == nil {
			p.ops = append(p.ops, it.measure)
		}
	}
	return p, nil
}

// tracedDrive makes one traced drive pass and its replay, and reports the
// driver, interpreter and cache layers. It returns the pass's wall time.
func (b *bench) tracedDrive(m metrics, c *campaign, tr *tracer) time.Duration {
	hits0 := checkHits.Value()
	items, wall := drivePass(c, b.driveOrder(0, len(c.synth)), b.workers, tr)
	hits := checkHits.Value() - hits0
	rs := replayDrive(items, b.workers, tr)
	b.checkDrive(items, hits, rs.classes)
	driveLayers(m, tr, rs)
	return wall
}
