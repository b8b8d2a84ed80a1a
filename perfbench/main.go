// Command perfbench is the repository's benchmark. A run builds the
// test-scale campaign's inputs, drives one workload through the
// pipeline's public functions for a fixed time, checks every output
// against the reference, and prints one JSON result line. README.md says
// why each workload exists and which end-to-end metric each layer metric
// should move.
//
//	go run . --workload drive --seed 7 --seconds 48 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"syscall"
	"time"

	"clgen/internal/pool"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run builds the campaign; setup_s is the
// median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations. An operation fails when its output
// differs from the reference or it fails where the reference did not.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: mismatch: "+format+"\n", args...)
	}
}

// passStat is one measured pass: one sweep over the drive kernels or the
// suite jobs.
type passStat struct {
	kernels int
	wall    time.Duration
	cpu     time.Duration
	ops     []time.Duration // per-operation latencies
}

type bench struct {
	workers int
	seed    int64
	window  time.Duration
	ref     *reference
	tally   *tally
}

// workloads maps each workload to its pass j. Synthesis has no workload of
// its own: every run's set-up synthesizes, and every traced run reports
// the synthesis layers.
var workloads = map[string]func(*bench, *campaign, int, *tracer) (passStat, error){
	"drive":  (*bench).drivePassStat,
	"table1": (*bench).table1PassStat,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: drive or table1")
	seed := fs.Int64("seed", campaignSeed, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 48, "seconds of passes one run measures")
	trace := fs.Int("trace", 0, "1 makes the traced run, which reports per-layer metrics")
	traceFile := fs.String("trace-file", "", "file the traced run writes its spans to")
	record := fs.String("record", "", "record the reference outputs to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers, err := pin()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := recordReference(*record, workers); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if workloads[*name] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload drive|table1, --seconds >= 1 and --trace 0|1")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{workers: workers, seed: *seed, window: time.Duration(*seconds) * time.Second,
		ref: ref, tally: &tally{log: stderr}}
	var m metrics
	if *trace == 1 {
		tr := newTracer()
		m, err = b.traced(*name, tr)
		if err == nil && *traceFile != "" {
			err = tr.write(*traceFile)
		}
	} else {
		m, err = b.measure(*name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(result{Correct: b.tally.failed == 0, Attempted: b.tally.attempted,
		Failed: b.tally.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure is the untraced run: set-up setupReps times, then passes of the
// workload until another would end more than an eighth past the window. A
// pass takes 12–24 s on two CPUs and the host's speed drifts from pass to
// pass, so the run measures several passes and every metric pools them.
func (b *bench) measure(name string) (metrics, error) {
	var setups []float64
	var c *campaign
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		var err error
		if c, err = setup(b.workers, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		b.checkCampaign(c)
	}
	var passes []passStat
	var measured time.Duration
	for j := 0; ; j++ {
		p, err := workloads[name](b, c, j, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		// The bound keeps a run on a slow host within the time the whole
		// benchmark may take.
		if measured += p.wall; measured+p.wall > b.window+b.window/8 {
			break
		}
	}
	fmt.Fprintf(b.tally.log, "perfbench: %d passes in %.1f s:", len(passes), measured.Seconds())
	for _, p := range passes {
		fmt.Fprintf(b.tally.log, " %.2f", p.wall.Seconds())
	}
	fmt.Fprintln(b.tally.log)
	var kernels int
	var wall, cpu time.Duration
	var ops []float64
	for _, p := range passes {
		kernels += p.kernels
		wall += p.wall
		cpu += p.cpu
		for _, o := range p.ops {
			ops = append(ops, o.Seconds()*1e3)
		}
	}
	m := metrics{}
	m.set("setup_s", percentile(setups, 0.5), "s")
	m.set("kernels_per_s", float64(kernels)/wall.Seconds(), "1/s")
	m.set("op_p50_ms", percentile(ops, 0.5), "ms")
	m.set("op_p90_ms", percentile(ops, 0.9), "ms")
	m.set("cpu_s", cpu.Seconds()/float64(len(passes)), "s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m, nil
}

// traced is the traced run: set-up once with spans, one untraced pass of
// the run's workload, then traced synthesis requests and one traced pass
// of every workload, so that every traced run reports every per-layer
// metric.
func (b *bench) traced(name string, tr *tracer) (metrics, error) {
	c, err := setup(b.workers, tr)
	if err != nil {
		return nil, err
	}
	b.checkCampaign(c)
	m := metrics{}
	setupLayers(m, tr, c)
	base, err := workloads[name](b, c, 0, nil)
	if err != nil {
		return nil, err
	}
	b.tracedSynthesize(m, c, tr)
	walls := map[string]time.Duration{}
	walls["drive"] = b.tracedDrive(m, c, tr)
	if walls["table1"], err = b.tracedTable1(m, c, tr); err != nil {
		return nil, err
	}
	m.set("trace.overhead_share", walls[name].Seconds()/base.wall.Seconds()-1, "ratio")
	return m, nil
}

// perm is pass j's seeded order of n items.
func (b *bench) perm(j, n int) []int {
	return rand.New(rand.NewSource(pool.DeriveSeed(b.seed, int64(j)))).Perm(n)
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
