package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clgen/internal/journal"
	"clgen/internal/perf"
	"clgen/internal/pool"
	"clgen/internal/telemetry"
)

// parse registers flags on a fresh FlagSet with register and parses args.
func parse(t *testing.T, register func(*flag.FlagSet) *Flags, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCLIFlagsRuntime(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	f := parse(t, Register, "-quiet", "-metrics-addr", "127.0.0.1:0", "-report", report)
	if !f.Quiet || f.MetricsAddr == "" || f.ReportPath != report {
		t.Fatalf("flags = %+v", f)
	}
	rt, err := f.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.DefaultLogger().Level() != telemetry.LevelWarn {
		t.Errorf("quiet level = %v", telemetry.DefaultLogger().Level())
	}
	telemetry.Default().Counter("t_runs_total", "").Inc()
	telemetry.DefaultTracer().Start("t.stage").End()

	resp, err := http.Get("http://" + rt.Server.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), "t_runs_total") {
		t.Errorf("live /metrics: %d %q %v", resp.StatusCode, body, err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r telemetry.RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if r.Component != "test" || r.Counters["t_runs_total"] < 1 {
		t.Errorf("report = %+v", r)
	}
	found := false
	for _, st := range r.Stages {
		if st.Name == "t.stage" {
			found = true
		}
	}
	if !found {
		t.Errorf("report stages missing t.stage: %+v", r.Stages)
	}
}

// TestStartCloser: -perf turns sampling on until Close, and Close appends
// a -perf-history record built from the live default tracer.
func TestStartCloser(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "h.jsonl")
	rt, err := parse(t, Register, "-quiet", "-perf", "-perf-history", hist).Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.PerfSamplingEnabled() {
		t.Fatal("sampling not enabled by Start")
	}
	telemetry.Start("cli.start_test").End()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if telemetry.PerfSamplingEnabled() {
		t.Fatal("sampling still enabled after Close")
	}
	recs, err := perf.ReadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if _, ok := last.Metrics["cli.start_test wall_s"]; !ok {
		t.Fatalf("history record lacks the test stage: %+v", last.Metrics)
	}
	if last.Env != telemetry.Env() {
		t.Fatalf("history env = %+v, want current env", last.Env)
	}
}

// TestFailedStartTearsDown: a Start that fails after it opened the
// journal, turned sampling on and armed the watchdog undoes all three and
// appends no run-history record.
func TestFailedStartTearsDown(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	f := parse(t, RegisterPipeline, "-quiet", "-journal", filepath.Join(dir, "run.jsonl"),
		"-perf", "-stall-timeout", "1h", "-perf-history", hist,
		"-metrics-addr", "definitely-not-an-addr:xx")
	if _, err := f.Start("test"); err == nil {
		t.Fatal("Start with an unusable -metrics-addr succeeded")
	}
	if journal.Enabled() {
		t.Error("journal still active after a failed Start")
	}
	if telemetry.PerfSamplingEnabled() {
		t.Error("sampling still enabled after a failed Start")
	}
	if telemetry.Tapped() || telemetry.ProgressEnabled() {
		t.Error("watchdog still armed after a failed Start")
	}
	if _, err := os.Stat(hist); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed Start touched -perf-history: %v", err)
	}
}

func TestWorkersFlagAndDefault(t *testing.T) {
	defer pool.SetWorkers(0)
	pool.SetWorkers(0)
	if pool.Workers() <= 0 {
		t.Errorf("default workers %d", pool.Workers())
	}
	parse(t, RegisterPipeline, "-workers", "3")
	if pool.Workers() != 3 {
		t.Errorf("Workers() = %d after -workers 3", pool.Workers())
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterPipeline(fs)
	if err := fs.Parse([]string{"-workers", "zebra"}); err == nil {
		t.Error("non-numeric -workers accepted")
	}
}
