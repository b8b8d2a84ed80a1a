package journal

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic time source ticking one second per
// call, starting from a fixed instant.
func fakeClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetClock(fakeClock())
	w.Emit(Event{ID: "aaaa", Stage: StageMined, Item: 3})
	w.Emit(Event{ID: "aaaa", Stage: StageCorpusFilter, Reason: "parse error", DurMS: 1.5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	if events[0].Stage != StageMined || events[0].Item != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Reason != "parse error" || events[1].DurMS != 1.5 {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[0].Time.IsZero() || events[1].Time.IsZero() {
		t.Error("timestamps not stamped")
	}
	if !events[0].Time.Before(events[1].Time) {
		t.Error("timestamps not monotone under the fake clock")
	}
}

// slowWriter sleeps on every Write, a sink slower than the emitters.
type slowWriter struct {
	bytes.Buffer
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.Buffer.Write(p)
}

// TestWriterKeepsEveryEvent: 8 goroutines emit 1,000 events each into a
// sink that sleeps on every write, and all 8,000 read back.
func TestWriterKeepsEveryEvent(t *testing.T) {
	const goroutines, each = 8, 1000
	var sink slowWriter
	w := NewWriter(&sink)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Emit(Event{ID: fmt.Sprintf("g%d-%d", g, i), Stage: StageMined, Item: i})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&sink.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range events {
		ids[e.ID] = true
	}
	if len(events) != goroutines*each || len(ids) != goroutines*each {
		t.Fatalf("read %d events with %d distinct IDs, want %d", len(events), len(ids), goroutines*each)
	}
}

func TestEmitAfterCloseIsNoop(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Emit(Event{ID: "late", Stage: StageMined}) // must not panic
	if buf.Len() != 0 {
		t.Errorf("an Emit after Close wrote %q", buf.String())
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestGlobalEmitInactiveIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("journal unexpectedly active at test start")
	}
	Emit(Event{ID: "nowhere", Stage: StageMined}) // must not panic
}

func TestSetActiveRoutesGlobalEmit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	SetActive(w)
	defer SetActive(nil)
	if !Enabled() {
		t.Fatal("Enabled() = false after SetActive")
	}
	Emit(Event{ID: "routed", Stage: StageSampled})
	SetActive(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].ID != "routed" {
		t.Fatalf("events = %+v", events)
	}
}

func TestIDStableAndDistinct(t *testing.T) {
	a, b := ID("__kernel void A() {}"), ID("__kernel void B() {}")
	if a == b {
		t.Error("distinct sources hash equal")
	}
	if a != ID("__kernel void A() {}") {
		t.Error("hash not stable")
	}
	if len(a) != 16 {
		t.Errorf("ID length = %d, want 16", len(a))
	}
}

func TestEquivalentNormalizesOrderTimeAndDuration(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	a := []Event{
		{Time: base, ID: "k1", Stage: StageMined, DurMS: 10},
		{Time: base.Add(time.Second), ID: "k2", Stage: StageCorpusFilter, Reason: "parse error"},
	}
	b := []Event{ // reordered, different clock, different durations
		{Time: base.Add(time.Hour), ID: "k2", Stage: StageCorpusFilter, Reason: "parse error", DurMS: 3},
		{Time: base.Add(2 * time.Hour), ID: "k1", Stage: StageMined, DurMS: 99},
	}
	if !Equivalent(a, b) {
		t.Error("reordered journals with different times/durations should be equivalent")
	}
	c := append([]Event(nil), a...)
	c[1].Reason = "semantic error"
	if Equivalent(a, c) {
		t.Error("journals with different payloads reported equivalent")
	}
	if Equivalent(a, a[:1]) {
		t.Error("journals of different length reported equivalent")
	}
}

func TestHistorySelectsByIDAndParent(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	events := []Event{
		{Time: base, ID: "abcd1234", Stage: StageMined},
		{Time: base.Add(time.Second), ID: "abcd1234", Stage: StageCorpusFilter},
		{Time: base.Add(2 * time.Second), ID: "ffff0000", Stage: StageRewritten, Parent: "abcd1234"},
		{Time: base.Add(3 * time.Second), ID: "eeee9999", Stage: StageMined},
	}
	h := History(events, "abcd")
	if len(h) != 3 {
		t.Fatalf("history has %d events, want 3 (mined, filter, derived rewrite)", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].Time.Before(h[i-1].Time) {
			t.Error("history not time-ordered")
		}
	}
	if len(History(events, "zzzz")) != 0 {
		t.Error("unmatched prefix returned events")
	}
	out := RenderHistory(h)
	for _, want := range []string{"mined", "corpus_filter", "rewritten", "parent=abcd1234"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered history missing %q:\n%s", want, out)
		}
	}
}

// TestHistoryTieBreaksByStageOrder covers the fake-clock case: events with
// identical timestamps must render in pipeline-stage order.
func TestHistoryTieBreaksByStageOrder(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	events := []Event{
		{Time: base, ID: "k", Stage: StageCorpusFilter},
		{Time: base, ID: "k", Stage: StageMined},
	}
	h := History(events, "k")
	if h[0].Stage != StageMined || h[1].Stage != StageCorpusFilter {
		t.Errorf("tie-broken order = %v, %v", h[0].Stage, h[1].Stage)
	}
}
