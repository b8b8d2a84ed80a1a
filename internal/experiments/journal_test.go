package experiments

import (
	"testing"

	"clgen/internal/journal"
	"clgen/internal/telemetry"
)

// TestJournalFunnelMatchesTelemetry is the tentpole acceptance criterion:
// every funnel stage count reconstructed from the journal must exactly
// equal the corresponding telemetry counter's delta over the same run —
// the journal and the metrics never disagree about what happened.
func TestJournalFunnelMatchesTelemetry(t *testing.T) {
	// A reduced campaign (the determinism test's size): the invariant is
	// structural, so it holds at any scale, and the race-enabled suite
	// builds this world one extra time.
	cfg := Config{
		Seed:         7,
		MinerRepos:   30,
		SynthKernels: 12,
		PayloadSizes: []int{4096},
		ExecCap:      2048,
	}
	reg := telemetry.Default()
	before := reg.Snapshot().Counters
	events := captureJournal(t, func() {
		if _, err := BuildWorld(cfg); err != nil {
			t.Fatal(err)
		}
	})
	after := reg.Snapshot().Counters
	delta := func(name string) int {
		return int(after[name] - before[name])
	}

	f := journal.Funnel(events)
	if len(events) == 0 {
		t.Fatal("journal captured no events")
	}

	checks := []struct {
		counter string
		got     int
	}{
		{"corpus_files_total", f.Mined},
		{"corpus_files_accepted_total", f.CorpusAccepted},
		{"corpus_shim_recovered_total", f.ShimRecovered},
		{"corpus_kernels_total", f.RewrittenKernels},
		{"sampler_samples_attempted_total", f.Sampled},
		{"sampler_samples_accepted_total", f.SampleAccepted},
		{"sampler_duplicates_total", f.SampleDuplicates},
		{"world_synthetic_load_failures_total", f.LoadFailures},
	}
	for _, c := range checks {
		if want := delta(c.counter); c.got != want {
			t.Errorf("funnel vs %s: journal=%d counter=%d", c.counter, c.got, want)
		}
	}
	for reason, n := range f.CorpusReasons {
		name := telemetry.Label("corpus_files_discarded_total", "reason", reason)
		if want := delta(name); n != want {
			t.Errorf("funnel vs %s: journal=%d counter=%d", name, n, want)
		}
	}
	for reason, n := range f.SampleReasons {
		name := telemetry.Label("sampler_samples_rejected_total", "reason", reason)
		if want := delta(name); n != want {
			t.Errorf("funnel vs %s: journal=%d counter=%d", name, n, want)
		}
	}
	for verdict, n := range f.Verdicts {
		name := telemetry.Label("driver_checker_verdicts_total", "verdict", verdict)
		if want := delta(name); n != want {
			t.Errorf("funnel vs %s: journal=%d counter=%d", name, n, want)
		}
	}
	// And the reverse direction: no labeled counter in these families moved
	// without the journal seeing it. Each family's summed delta must equal
	// the funnel's total for that stage.
	sumFamily := func(family string) int {
		prefix := family + "{"
		total := 0
		for name, v := range after {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				total += int(v - before[name])
			}
		}
		return total
	}
	sumMap := func(m map[string]int) int {
		total := 0
		for _, n := range m {
			total += n
		}
		return total
	}
	if got, want := sumFamily("corpus_files_discarded_total"), sumMap(f.CorpusReasons); got != want {
		t.Errorf("discarded family total=%d, journal=%d", got, want)
	}
	if got, want := sumFamily("sampler_samples_rejected_total"), sumMap(f.SampleReasons); got != want {
		t.Errorf("rejected family total=%d, journal=%d", got, want)
	}
	if got, want := sumFamily("driver_checker_verdicts_total"), f.Checks; got != want {
		t.Errorf("verdict family total=%d, journal checks=%d", got, want)
	}
	if f.Checks == 0 || f.Measured == 0 {
		t.Errorf("funnel missing driver stages: checks=%d measured=%d", f.Checks, f.Measured)
	}
}
