// Content-addressed memoization of the dynamic checker (internal/cache):
// the four-execution §5.2 check is a pure function of (kernel source,
// global size, payload seed, step budget) on the deterministic simulator,
// so its verdict, first-execution profile, and payload quantities can be
// reused across repeats, experiments, and warm runs. Check itself still
// counts verdicts and journals a StageChecked event on every call — a hit
// skips the executions, not the observability.
package driver

import (
	"errors"
	"fmt"

	"clgen/internal/cache"
	"clgen/internal/interp"
)

// checkVersion stamps cached check outcomes. The check depends on the
// payload generator, the interpreter, and the platform-independent
// verdict logic in this package — bump on any behavioral change.
const checkVersion = "driver-check-v4"

// checkEntry is the serializable mirror of a check()'s CheckResult. The
// profile is stored by value: every conversion back hands the consumer a
// fresh copy, because measurement mutates profiles (Add/Scale) while
// aggregating repeats. A run failure's error is stored as its text and
// class, so that the rebuilt error unwraps as the original did.
type checkEntry struct {
	Verdict       string           `json:"verdict"`
	Err           string           `json:"err,omitempty"`
	Class         string           `json:"class,omitempty"`
	Fault         *interp.MemFault `json:"fault,omitempty"`
	HasProfile    bool             `json:"has_profile,omitempty"`
	Profile       interp.Profile   `json:"profile,omitempty"`
	Steps         int64            `json:"steps,omitempty"`
	TransferBytes int64            `json:"transfer_bytes,omitempty"`
	LocalSize     int              `json:"local_size,omitempty"`
}

// Classes of a run failure's error, by the interpreter error it wraps.
const (
	classStepLimit = "step-limit"
	classFault     = "fault"
	classBarrier   = "barrier-divergence"
	classOther     = "other"
)

func errClass(err error) string {
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

// runError is a memoized run failure: the original error's text,
// unwrapping to the interpreter error of its class.
type runError struct {
	text  string
	cause error
}

func (e *runError) Error() string { return e.text }
func (e *runError) Unwrap() error { return e.cause }

var checkMemo = cache.New(cache.Config[checkEntry]{
	Name:    "check",
	Version: checkVersion,
	Disk:    true,
})

func toCheckEntry(res CheckResult) checkEntry {
	e := checkEntry{
		Verdict:       string(res.Verdict),
		Steps:         res.Steps,
		TransferBytes: res.TransferBytes,
		LocalSize:     res.LocalSize,
	}
	if res.Err != nil {
		e.Err, e.Class = res.Err.Error(), errClass(res.Err)
	}
	if res.Fault != nil {
		f := *res.Fault
		e.Fault = &f
	}
	if res.Profile != nil {
		e.HasProfile, e.Profile = true, *res.Profile
	}
	return e
}

func fromCheckEntry(e checkEntry) CheckResult {
	res := CheckResult{
		Verdict:       CheckVerdict(e.Verdict),
		Steps:         e.Steps,
		TransferBytes: e.TransferBytes,
		LocalSize:     e.LocalSize,
	}
	if e.Fault != nil {
		f := *e.Fault
		res.Fault = &f
	}
	if e.Err != "" {
		var cause error
		switch e.Class {
		case classStepLimit:
			cause = interp.ErrStepLimit
		case classBarrier:
			cause = interp.ErrBarrierDivergence
		case classFault:
			if res.Fault != nil {
				cause = res.Fault
			}
		}
		res.Err = &runError{text: e.Err, cause: cause}
	}
	if e.HasProfile {
		p := e.Profile
		res.Profile = &p
	}
	return res
}

// checkCached is check() behind the "check" memo. Cold and warm calls
// return value-identical results (both pass through the serializable
// entry), differing only in CacheHit.
func checkCached(k *Kernel, globalSize int, seed int64, cfg RunConfig) CheckResult {
	key := cache.Key(
		fmt.Sprintf("size=%d,seed=%d,maxsteps=%d%s", globalSize, seed, cfg.MaxSteps,
			k.footprintKeyPart(globalSize)),
		k.Src)
	e, hit, err := checkMemo.Do(key, func() (checkEntry, error) {
		return toCheckEntry(check(k, globalSize, seed, cfg)), nil
	})
	if err != nil {
		// The compute callback never errors; defensive fallback.
		return check(k, globalSize, seed, cfg)
	}
	res := fromCheckEntry(e)
	res.CacheHit = hit
	return res
}
