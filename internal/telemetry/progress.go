package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Progress tracking is the stall watchdog's ground truth: pipeline stages
// call Advance (or the BeginWorkf/done pair) on every completed item, and
// the watchdog in internal/perf compares the last-advance timestamps
// against its deadline. Tracking is disabled by default and near-free
// when off — Advance is one atomic load, BeginWorkf skips even its
// fmt.Sprintf — so emission sites call these unconditionally on hot
// paths.

var progressEnabled atomic.Bool

type progressState struct {
	mu          sync.Mutex
	now         func() time.Time
	last        time.Time
	lastAdvance map[string]time.Time
	inflight    map[string]map[string]int
}

var progress = &progressState{
	now:         time.Now,
	lastAdvance: map[string]time.Time{},
	inflight:    map[string]map[string]int{},
}

// EnableProgressTracking switches the progress registry on or off.
// Turning it off clears all recorded state, so a later enable starts
// fresh. Installed by the stall watchdog; tests drive it directly.
func EnableProgressTracking(on bool) {
	progressEnabled.Store(on)
	if !on {
		progress.mu.Lock()
		progress.last = time.Time{}
		progress.lastAdvance = map[string]time.Time{}
		progress.inflight = map[string]map[string]int{}
		progress.mu.Unlock()
	}
}

// ProgressEnabled reports whether pipeline progress is being tracked.
func ProgressEnabled() bool { return progressEnabled.Load() }

// SetProgressClock replaces the progress registry's time source (tests).
func SetProgressClock(now func() time.Time) {
	progress.mu.Lock()
	defer progress.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	progress.now = now
}

// Advance records one unit of pipeline progress for a named stage. A
// stage that keeps advancing can never be declared stalled.
func Advance(stage string) {
	if !progressEnabled.Load() {
		return
	}
	p := progress
	p.mu.Lock()
	t := p.now()
	p.last = t
	p.lastAdvance[stage] = t
	p.mu.Unlock()
}

var noopDone = func() {}

// BeginWorkf registers one in-flight artifact of a stage — the ID is
// rendered with fmt.Sprintf only when tracking is enabled — and returns
// the done func that releases it (and counts as an Advance). The
// watchdog's flight-recorder dump lists the in-flight artifacts of every
// stage, naming exactly what the pipeline was chewing on when it stalled.
//
// BeginWorkf is also the injection point of the CLGEN_FAULT_SLEEP test
// fixture (see fault.go): the injected delay runs while the artifact is
// registered, so a stall gate run dumps a truthful in-flight set.
func BeginWorkf(stage, idFormat string, args ...any) func() {
	if !progressEnabled.Load() {
		faultSleep(stage)
		return noopDone
	}
	id := fmt.Sprintf(idFormat, args...)
	p := progress
	p.mu.Lock()
	m := p.inflight[stage]
	if m == nil {
		m = map[string]int{}
		p.inflight[stage] = m
	}
	m[id]++
	p.mu.Unlock()
	faultSleep(stage)
	return func() {
		p.mu.Lock()
		if m := p.inflight[stage]; m != nil {
			m[id]--
			if m[id] <= 0 {
				delete(m, id)
			}
			if len(m) == 0 {
				delete(p.inflight, stage)
			}
		}
		t := p.now()
		p.last = t
		p.lastAdvance[stage] = t
		p.mu.Unlock()
	}
}

// ProgressSnapshot is a point-in-time view of the progress registry.
type ProgressSnapshot struct {
	// Last is the most recent advance across all stages (zero before the
	// first advance).
	Last time.Time
	// LastAdvance maps each stage to its most recent advance.
	LastAdvance map[string]time.Time
	// InFlight maps each stage to its registered artifact IDs, sorted.
	InFlight map[string][]string
}

// InFlightCount returns the total number of in-flight artifacts.
func (s ProgressSnapshot) InFlightCount() int {
	n := 0
	for _, ids := range s.InFlight {
		n += len(ids)
	}
	return n
}

// Progress captures the current progress state.
func Progress() ProgressSnapshot {
	p := progress
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Last:        p.last,
		LastAdvance: make(map[string]time.Time, len(p.lastAdvance)),
		InFlight:    make(map[string][]string, len(p.inflight)),
	}
	for k, v := range p.lastAdvance {
		s.LastAdvance[k] = v
	}
	for stage, ids := range p.inflight {
		list := make([]string, 0, len(ids))
		for id := range ids {
			list = append(list, id)
		}
		sort.Strings(list)
		s.InFlight[stage] = list
	}
	return s
}
