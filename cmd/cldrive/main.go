// Command cldrive is the host driver's command-line interface (§5): it
// reads an OpenCL kernel, generates rule-based payloads, executes it on
// the simulated device, applies the four-execution dynamic checker, and
// reports modeled runtimes on both Table 4 systems.
//
// Usage:
//
//	cldrive [-size N] [-seed S] [file.cl]   (reads stdin without a file)
//
// Exit 2 means the dynamic checker rejected the kernel. A -size below 1
// is a usage error: cldrive exits 1 before it loads the kernel.
//
// cldrive takes the observability flags every binary takes (-v, -quiet,
// -log-json, -metrics-addr, -report, -perf, -stall-timeout, -stall-dump,
// -perf-history) and the pipeline flags it shares with clgen and clexp
// (-journal, -cache-dir, -static-checks, -precise-features,
// -footprint-sizing, -workers); internal/cli applies them. Under
// -static-checks, cldrive prints and journals the static analyzer's §5.2
// forecast, then executes the checker exactly as it does without the
// flag: verdicts come from execution only.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"clgen/internal/cli"
	"clgen/internal/corpus"
	"clgen/internal/driver"
	"clgen/internal/journal"
	"clgen/internal/platform"
	"clgen/internal/pool"
	"clgen/internal/telemetry"
)

func main() {
	var (
		size = flag.Int("size", 65536, "global size (elements)")
		seed = flag.Int64("seed", 1, "payload seed")
		cap  = flag.Int("cap", 16384, "execution-size cap (0 = run full size)")
	)
	tf := cli.RegisterPipeline(flag.CommandLine)
	flag.Parse()
	if *size <= 0 {
		fatal(fmt.Errorf("-size must be positive, got %d", *size))
	}
	rt, err := tf.Start("cldrive")
	if err != nil {
		fatal(err)
	}

	code := 0
	err = drive(rt, *size, *seed, *cap, tf.StaticChecks, flag.Args())
	if err == errCheckerRejected {
		code = 2
		err = nil
	}
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// errCheckerRejected distinguishes the exit-2 path (kernel failed the
// dynamic checker) from hard failures.
var errCheckerRejected = fmt.Errorf("kernel rejected by the dynamic checker")

func drive(rt *cli.Runtime, size int, seed int64, cap int, static bool, args []string) error {
	var src []byte
	var err error
	if len(args) > 0 {
		src, err = os.ReadFile(args[0])
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}

	span := telemetry.Start("cldrive.run")
	defer span.End()
	k, err := driver.Load(string(src))
	if err != nil {
		if journal.Enabled() {
			journal.Emit(journal.Event{ID: journal.ID(string(src)),
				Stage: journal.StageDriverLoad, Reason: err.Error()})
		}
		return err
	}
	if journal.Enabled() {
		journal.Emit(journal.Event{ID: journal.ID(string(src)), Stage: journal.StageDriverLoad})
	}
	span.SetAttr("kernel", k.Name)
	fmt.Printf("kernel: %s\n", k.Name)
	fmt.Printf("static features: comp=%d mem=%d localmem=%d coalesced=%d branches=%d\n",
		k.Static.Comp, k.Static.Mem, k.Static.LocalMem, k.Static.Coalesced, k.Static.Branches)

	if static {
		forecast(k)
	}
	res := driver.Check(k, min(size, nonZero(cap, size)), seed, driver.RunConfig{})
	fmt.Printf("dynamic checker: %s\n", res.Verdict)
	if !res.OK() {
		if res.Err != nil {
			fmt.Printf("  cause: %v\n", res.Err)
		}
		if f := res.Fault; f != nil {
			culprit := "anonymous buffer"
			if f.Arg >= 0 && f.Arg < len(k.Decl.Params) {
				culprit = fmt.Sprintf("argument %d (%s)", f.Arg, k.Decl.Params[f.Arg].Name)
			}
			op := "read"
			if f.Write {
				op = "write"
			}
			fmt.Printf("  fault: %s %s slot %d of %d\n", culprit, op, f.Slot, f.Len)
		}
		rt.Log.Warn("kernel rejected", "kernel", k.Name, "verdict", string(res.Verdict))
		return errCheckerRejected
	}

	// The two systems are independent: measure them concurrently under
	// explicit child spans (workers spawn goroutines, so implicit span
	// parenting would race) and print in system order.
	systems := []*platform.System{platform.SystemAMD, platform.SystemNVIDIA}
	type outcome struct {
		m   *driver.Measurement
		err error
	}
	results := pool.Map(0, len(systems), func(i int) outcome {
		sys := systems[i]
		child := span.Child("measure." + sys.Name)
		defer child.End()
		m, err := driver.Measure(k, size, sys, seed, driver.MeasureConfig{ExecCap: cap})
		return outcome{m: m, err: err}
	})
	for i, o := range results {
		if o.err != nil {
			return o.err
		}
		m := o.m
		if journal.Enabled() {
			journal.Emit(journal.Event{ID: journal.ID(string(src)), Stage: journal.StageMeasured,
				Kernel: k.Name, System: systems[i].Name, Size: m.GlobalSize,
				CPUms: m.CPUTime * 1e3, GPUms: m.GPUTime * 1e3, Oracle: m.Oracle.String()})
		}
		fmt.Printf("%s system: cpu=%.3fms gpu=%.3fms -> %s (%.2fx) transfer=%dB wgsize=%d\n",
			systems[i].Name, m.CPUTime*1e3, m.GPUTime*1e3, m.Oracle, m.Speedup(),
			m.Vector.Transfer, m.Vector.WgSize)
	}
	return nil
}

// forecast prints the static analyzer's §5.2 forecast for k and journals
// it as a static_filter event under the kernel's ID, so cltrace funnel
// joins it with the checked event of the execution that follows.
func forecast(k *driver.Kernel) {
	rep := k.Analysis()
	ev := journal.Event{ID: journal.ID(k.Src), Stage: journal.StageStaticFilter,
		Predicted: rep.PredictedVerdict(k.Name)}
	line := cmp.Or(ev.Predicted, "pass")
	if d := rep.PrimaryError(); d != nil {
		ev.Reason = string(corpus.StaticReason(d.Lint))
		line += " (" + ev.Reason + ")"
	}
	journal.Emit(ev)
	fmt.Printf("static forecast: %s\n", line)
}

func nonZero(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cldrive:", err)
	os.Exit(1)
}
