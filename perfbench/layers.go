package main

import (
	"strconv"
	"time"

	"clgen/internal/driver"
)

// meanUS is the mean duration of spans, in microseconds.
func meanUS(spans []span) float64 {
	return totalS(spans) * 1e6 / float64(len(spans))
}

// totalS is the summed duration of spans, in seconds.
func totalS(spans []span) float64 {
	var total time.Duration
	for _, s := range spans {
		total += s.dur()
	}
	return total.Seconds()
}

// setupLayers reports the layers set-up exercises; each should move
// setup_s.
func setupLayers(m metrics, tr *tracer, c *campaign) {
	build := totalS(tr.named("corpus.BuildEx"))
	m.set("github.mine_s", totalS(tr.named("github.Mine")), "s")
	m.set("corpus.build_s", build, "s")
	m.set("corpus.files_per_s", float64(c.corpus.Files)/build, "1/s")
	m.set("corpus.accept_ratio", float64(c.corpus.AcceptedFiles)/float64(c.corpus.Files), "ratio")
	m.set("model.train_s", totalS(tr.named("core.FromCorpus")), "s")
}

// driveLayers reports the drive pass's layers from its spans and its
// attribution replay.
func driveLayers(m metrics, tr *tracer, rs replayStats) {
	var cold, wasted, stepLimit, hitTime time.Duration
	var hits, useful int
	checks := tr.named("driver.Check")
	for _, s := range checks {
		if s.Attrs["verdict"] == string(driver.UsefulWork) {
			useful++
		}
		if s.Attrs["hit"] == "true" {
			hits++
			hitTime += s.dur()
			continue
		}
		cold += s.dur()
		if s.Attrs["verdict"] != string(driver.UsefulWork) {
			wasted += s.dur()
		}
		if rs.classes[s.Attrs["key"]] == classStepLimit {
			stepLimit += s.dur()
		}
	}
	n := float64(len(checks))
	m.set("clc.parse_us", meanUS(tr.named("clc.Parse")), "us")
	m.set("clc.check_us", meanUS(tr.named("clc.Check")), "us")
	m.set("driver.load_us", meanUS(tr.named("driver.LoadKernel")), "us")
	m.set("driver.payload_us", meanUS(tr.named("driver.GeneratePayload")), "us")
	m.set("driver.check_s", cold.Seconds(), "s")
	m.set("driver.check_wasted_share", wasted.Seconds()/cold.Seconds(), "ratio")
	m.set("driver.step_limit_share", stepLimit.Seconds()/cold.Seconds(), "ratio")
	m.set("driver.useful_ratio", float64(useful)/n, "ratio")
	m.set("interp.ops_per_s", float64(rs.ops)/rs.run.Seconds(), "ops/s")
	m.set("interp.allocs_per_workitem", float64(rs.mallocs)/float64(rs.items), "allocs")
	m.set("cache.check_hit_ratio", float64(hits)/n, "ratio")
	m.set("cache.hit_us", hitTime.Seconds()*1e6/float64(hits), "us")
}

// table1Layers reports the table1 pass's layers. Measure spans carry the
// executed operations and work-items, and whether the kernel ran in lockstep.
func table1Layers(m metrics, tr *tracer) {
	var seq, lock time.Duration
	var seqOps, lockOps, items int64
	for _, s := range tr.named("suites.Benchmark.Measure") {
		// measureSuite wrote these attributes as integers.
		ops, _ := strconv.ParseInt(s.Attrs["ops"], 10, 64)
		wi, _ := strconv.ParseInt(s.Attrs["work_items"], 10, 64)
		items += wi
		if s.Attrs["lockstep"] == "true" {
			lock += s.dur()
			lockOps += ops
		} else {
			seq += s.dur()
			seqOps += ops
		}
	}
	m.set("suites.load_ms", meanUS(tr.named("suites.Benchmark.Load"))/1e3, "ms")
	m.set("interp.ops_per_s.sequential", float64(seqOps)/seq.Seconds(), "ops/s")
	m.set("interp.ops_per_s.lockstep", float64(lockOps)/lock.Seconds(), "ops/s")
	m.set("interp.lockstep_share", lock.Seconds()/(seq+lock).Seconds(), "ratio")
	m.set("interp.ns_per_workitem", float64((seq+lock).Nanoseconds())/float64(items), "ns")
	m.set("platform.model_us", meanUS(tr.named("driver.MeasureProfile")), "us")
	m.set("grewe.table1_ms", totalS(tr.named("experiments.Table1"))*1e3, "ms")
}
