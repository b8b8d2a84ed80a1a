package telemetry

import (
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"
)

// FaultSleepEnv is the fault-injection fixture behind the perf gate test
// (TestPerfGate in gates_test.go): a comma-separated list of
// stage=duration pairs, e.g.
//
//	CLGEN_FAULT_SLEEP="core.synthesize=2s"
//
// The first span of a named stage sleeps for the given duration when it
// starts (once per stage per process), after its start time is taken, so
// the sleep inflates the stage's wall time past clperf diff's regression
// threshold. Unset (the normal case) the fixture costs one sync.Once and
// a nil-map check per span.
const FaultSleepEnv = "CLGEN_FAULT_SLEEP"

var (
	faultOnce   sync.Once
	faultDelays map[string]time.Duration
	faultFired  map[string]*sync.Once
)

// parseFaultSpec parses "stage=dur,stage=dur"; malformed entries are
// dropped (a fixture must never break a real run).
func parseFaultSpec(spec string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.LastIndexByte(part, '=')
		if eq <= 0 {
			continue
		}
		d, err := time.ParseDuration(part[eq+1:])
		if err != nil || d <= 0 {
			continue
		}
		out[part[:eq]] = d
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// faultSleep sleeps once per process if stage has an injected delay.
func faultSleep(stage string) {
	faultOnce.Do(func() {
		faultDelays = parseFaultSpec(os.Getenv(FaultSleepEnv))
		faultFired = make(map[string]*sync.Once, len(faultDelays))
		for s := range faultDelays {
			faultFired[s] = &sync.Once{}
		}
	})
	if faultDelays == nil {
		return
	}
	d, ok := faultDelays[stage]
	if !ok {
		return
	}
	faultFired[stage].Do(func() {
		slog.Warn("fault injection: sleeping", "stage", stage, "sleep", d)
		time.Sleep(d)
	})
}
