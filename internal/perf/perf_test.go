package perf

import (
	"strings"
	"testing"
	"time"

	"clgen/internal/telemetry"
)

// TestSampleMonotonic checks the counters a span diffs are non-decreasing
// and plausibly populated.
func TestSampleMonotonic(t *testing.T) {
	s1 := Sample()
	// Allocate measurably between samples.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	s2 := Sample()
	if s2.AllocBytes <= s1.AllocBytes {
		t.Errorf("TotalAlloc did not grow: %d -> %d", s1.AllocBytes, s2.AllocBytes)
	}
	if s2.CPUSeconds < s1.CPUSeconds {
		t.Errorf("CPU time went backwards: %v -> %v", s1.CPUSeconds, s2.CPUSeconds)
	}
	if s1.Goroutines <= 0 {
		t.Errorf("goroutine count = %d", s1.Goroutines)
	}
}

// TestRecorderRing checks wraparound ordering: the ring keeps the newest
// N events, oldest first.
func TestRecorderRing(t *testing.T) {
	r := newRecorder(4)
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("fresh ring not empty: %v", got)
	}
	for _, m := range []string{"a", "b", "c"} {
		r.Record("k", m)
	}
	got := r.Events()
	if len(got) != 3 || got[0].Msg != "a" || got[2].Msg != "c" {
		t.Fatalf("pre-wrap events = %v", got)
	}
	for _, m := range []string{"d", "e", "f"} {
		r.Record("k", m)
	}
	got = r.Events()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	want := []string{"c", "d", "e", "f"}
	for i, e := range got {
		if e.Msg != want[i] {
			t.Fatalf("events = %v, want msgs %v", got, want)
		}
	}
	if !strings.Contains(got[0].String(), "[k] c") {
		t.Fatalf("event render = %q", got[0].String())
	}
}

// TestStartCloser drives the telemetry.SetPerfStarter hook end to end:
// sampling toggles on and off, and Close appends a history record built
// from the live default tracer.
func TestStartCloser(t *testing.T) {
	hist := t.TempDir() + "/h.jsonl"
	c, err := start(telemetry.PerfConfig{
		Component:   "test",
		Start:       time.Now().Add(-time.Second),
		Perf:        true,
		HistoryPath: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.PerfSamplingEnabled() {
		t.Fatal("sampling not enabled by start")
	}
	sp := telemetry.Start("perf.start_test")
	sp.End()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if telemetry.PerfSamplingEnabled() {
		t.Fatal("sampling still enabled after Close")
	}
	recs, err := ReadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if _, ok := last.Metrics["perf.start_test wall_s"]; !ok {
		t.Fatalf("history record lacks the test stage: %+v", last.Metrics)
	}
	if last.Env != telemetry.Env() {
		t.Fatalf("history env = %+v, want current env", last.Env)
	}
}
