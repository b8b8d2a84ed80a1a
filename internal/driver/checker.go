package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"clgen/internal/interp"
	"clgen/internal/journal"
	"clgen/internal/telemetry"
)

// CheckVerdict classifies a kernel's §5.2 dynamic-checker outcome.
type CheckVerdict string

// Verdicts. Only UsefulWork kernels enter the training set.
const (
	UsefulWork       CheckVerdict = "useful work"
	NoOutput         CheckVerdict = "no output"
	InputInsensitive CheckVerdict = "input insensitive"
	NonDeterministic CheckVerdict = "non-deterministic"
	RunFailure       CheckVerdict = "run failure"
)

// Epsilon is the floating-point comparison tolerance of the checker.
const Epsilon = 1e-4

// CheckResult is the outcome of the dynamic checker plus the profile of
// the first execution (reused by measurement so kernels run once).
type CheckResult struct {
	Verdict CheckVerdict
	Err     error // cause for RunFailure
	// Fault attributes a RunFailure caused by an out-of-bounds buffer
	// access to the faulting kernel argument and slot (nil for non-crash
	// verdicts and failures that are not memory faults).
	Fault   *interp.MemFault
	Profile *interp.Profile
	// Steps is the interpreter budget the check's executions consumed,
	// the failing one included (the sum of their Profile.Steps).
	Steps int64
	// TransferBytes / LocalSize describe the A1 payload of a useful-work
	// verdict (zero otherwise) — the two payload quantities measurement
	// consumes. The payload itself is not retained: check outcomes are
	// memoized (internal/cache) and must be plain, immutable data.
	TransferBytes int64
	LocalSize     int
	// CacheHit marks a verdict served by the check memo instead of
	// executed.
	CacheHit bool
}

// OK reports whether the kernel performs useful work.
func (r CheckResult) OK() bool { return r.Verdict == UsefulWork }

// Check implements the §5.2 low-overhead runtime behaviour check:
//
//  1. Create 4 equal-size payloads A1, B1, A2, B2 with A1=A2, B1=B2, A1≠B1.
//  2. Execute the kernel on each.
//  3. Assert: outputs changed (else no output for these inputs); outputs
//     differ between A and B (else input-insensitive); outputs agree
//     between repetitions (else non-deterministic).
//
// A1 and B1 run first and decide the first two assertions alone. A2 and
// B2 run only when both hold: on the deterministic interpreter they would
// repeat A1 and B1 exactly, so skipping them changes no verdict, only the
// steps a rejection consumed.
//
// Execution failures (out-of-bounds access, non-termination caught by the
// step-limit timeout, barrier divergence) yield RunFailure — the analogue
// of a crashed or timed-out run on hardware.
func Check(k *Kernel, globalSize int, seed int64, cfg RunConfig) CheckResult {
	done := telemetry.BeginWorkf("driver.check", "%s@%d", k.Name, globalSize)
	defer done()
	if journal.Enabled() && footprintSizing.Load() {
		k.footprintEmitOnce.Do(func() { journal.Emit(footprintEvent(k)) })
	}
	start := time.Now()
	res := checkCached(k, globalSize, seed, cfg)
	// The verdict counter increments on cache hits too: a memoized check
	// is still a check outcome, and the funnel==telemetry invariant
	// (checked events vs. driver_checker_verdicts_total) must hold on
	// warm runs.
	reg := telemetry.Default()
	reg.Counter(
		telemetry.Label("driver_checker_verdicts_total", "verdict", string(res.Verdict)),
		"Dynamic-checker verdicts (§5.2), by outcome.").Inc()
	if footprintSizing.Load() && res.OK() && k.footprintResized(globalSize) {
		reg.Counter("driver_footprint_rescued_total",
			"Useful-work verdicts reached with a buffer resized beyond the §5.1 extent.").Inc()
	}
	// Emission happens on the calling (possibly worker) goroutine, but the
	// set of Check calls is the same for every worker count, so journals
	// stay equivalent after order normalization.
	if journal.Enabled() {
		ev := journal.Event{ID: journal.ID(k.Src), Stage: journal.StageChecked,
			Verdict: string(res.Verdict), Size: globalSize, Seed: seed, Steps: res.Steps,
			CacheHit: res.CacheHit, DurMS: float64(time.Since(start)) / float64(time.Millisecond)}
		if res.Err != nil {
			ev.Class = errClass(res.Err)
		}
		if res.Fault != nil {
			ev.Fault = &journal.Fault{Arg: res.Fault.Arg, Slot: res.Fault.Slot,
				Len: res.Fault.Len, Write: res.Fault.Write}
		}
		journal.Emit(ev)
	}
	return res
}

func check(k *Kernel, globalSize int, seed int64, cfg RunConfig) CheckResult {
	a1, err := GeneratePayload(k, globalSize, rand.New(rand.NewSource(seed)))
	if err != nil {
		return runFailure(err)
	}
	defer a1.release()
	b1, err := GeneratePayload(k, globalSize, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return runFailure(err)
	}
	defer b1.release()
	if len(a1.Outputs()) == 0 {
		return CheckResult{Verdict: NoOutput}
	}
	// A1 runs first, so a launch proven to exhaust its budget fails there,
	// exactly as its execution would (DESIGN.md §7, "Proven step limits").
	if b := k.Env.BoundSteps(k.Name, a1.Args, a1.launch(cfg)); b.RunsOut() {
		telemetry.Default().Counter("driver_step_limit_proofs_total",
			"Checks whose step-limit failure was proven instead of executed.").Inc()
		res := runFailure(interp.ErrStepLimit)
		res.Steps = b.Budget + 1
		return res
	}
	a2, b2 := a1.Clone(), b1.Clone()
	defer a2.release()
	defer b2.release()

	var profA1 *interp.Profile
	var steps int64
	for i, p := range []*Payload{a1, b1, a2, b2} {
		prof, err := k.Run(p, cfg)
		if prof != nil {
			steps += prof.Steps
		}
		if err != nil {
			res := runFailure(err)
			res.Steps = steps
			return res
		}
		if i == 0 {
			profA1 = prof
		}
		if i != 1 {
			continue
		}
		// A1 and B1 alone decide the first two assertions: the interpreter
		// is deterministic, so A2 and B2 would repeat them exactly. Until
		// they run, A2 and B2 hold A1's and B1's inputs.
		switch {
		case outputsEqual(a1, a2) && outputsEqual(b1, b2):
			// A1out != A1in and B1out != B1in, else no output for these inputs.
			return CheckResult{Verdict: NoOutput, Profile: profA1, Steps: steps}
		case outputsEqual(a1, b1):
			// A1out != B1out, else input-insensitive.
			return CheckResult{Verdict: InputInsensitive, Profile: profA1, Steps: steps}
		}
	}

	res := CheckResult{Verdict: UsefulWork, Profile: profA1, Steps: steps}
	if !outputsEqual(a1, a2) || !outputsEqual(b1, b2) {
		// A1out == A2out and B1out == B2out, else non-deterministic.
		res.Verdict = NonDeterministic
	} else {
		res.TransferBytes, res.LocalSize = a1.TransferBytes, a1.LocalSize
	}
	return res
}

// runFailure builds a RunFailure result, attributing memory faults to
// the culprit buffer argument when the error chain carries one.
func runFailure(err error) CheckResult {
	res := CheckResult{Verdict: RunFailure, Err: err}
	var mf *interp.MemFault
	if errors.As(err, &mf) {
		res.Fault = mf
	}
	return res
}

// outputsEqual reports whether two payloads of one kernel and size hold
// the same outputs within Epsilon.
func outputsEqual(a, b *Payload) bool {
	for _, i := range a.outputIdx {
		if !a.Args[i].Ptr.Buf.Equal(b.Args[i].Ptr.Buf, Epsilon) {
			return false
		}
	}
	return true
}

// ErrRejectedByChecker wraps a non-useful verdict as an error.
var ErrRejectedByChecker = errors.New("driver: kernel rejected by dynamic checker")

// CheckError converts a failed CheckResult into an error, nil when OK.
func (r CheckResult) CheckError() error {
	if r.OK() {
		return nil
	}
	if r.Err != nil {
		return fmt.Errorf("%w: %s: %v", ErrRejectedByChecker, r.Verdict, r.Err)
	}
	return fmt.Errorf("%w: %s", ErrRejectedByChecker, r.Verdict)
}
