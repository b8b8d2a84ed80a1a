package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline_runs_total", "Total pipeline runs.").Add(3)
	tr := NewTracer(reg)
	tr.Start("stage.one").End()

	ts := httptest.NewServer(NewServeMux(reg, tr))
	defer ts.Close()

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 || !strings.Contains(body, "pipeline_runs_total 3") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if !strings.Contains(body, "# TYPE pipeline_runs_total counter") {
		t.Errorf("/metrics missing TYPE header: %q", body)
	}

	code, body = get(t, ts.URL+"/vars")
	if code != 200 {
		t.Fatalf("/vars: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if snap.Counters["pipeline_runs_total"] != 3 {
		t.Errorf("/vars counters = %v", snap.Counters)
	}

	code, body = get(t, ts.URL+"/stages")
	if code != 200 || !strings.Contains(body, "stage.one") {
		t.Errorf("/stages: %d %q", code, body)
	}

	code, body = get(t, ts.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := NewRegistry()
	s, err := Serve("127.0.0.1:0", reg, NewTracer(reg))
	if err != nil {
		t.Fatal(err)
	}
	code, _ := get(t, "http://"+s.Addr+"/metrics")
	if code != 200 {
		t.Errorf("/metrics over live server: %d", code)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := Serve("definitely-not-an-addr:xx", reg, nil); err == nil {
		t.Error("bad address did not fail synchronously")
	}
}
