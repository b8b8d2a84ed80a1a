package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source for span tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestSpanTreeFakeClock builds a nested run over a fake clock and checks
// the exported stage tree: nesting, durations, and attrs.
func TestSpanTreeFakeClock(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	clk := newFakeClock()
	tr.SetClock(clk.now)

	root := tr.Start("world.build")
	clk.advance(100 * time.Millisecond)
	child := tr.Start("corpus.build")
	child.SetAttr("files", 42)
	clk.advance(250 * time.Millisecond)
	child.End()
	grand := tr.Start("core.synthesize")
	clk.advance(2 * time.Second)
	grand.End()
	clk.advance(50 * time.Millisecond)
	root.End()

	stages := tr.Stages()
	if len(stages) != 1 {
		t.Fatalf("roots = %d, want 1", len(stages))
	}
	w := stages[0]
	if w.Name != "world.build" || w.Seconds != 2.4 {
		t.Errorf("root = %s %.3fs, want world.build 2.400s", w.Name, w.Seconds)
	}
	if len(w.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(w.Children))
	}
	if w.Children[0].Name != "corpus.build" || w.Children[0].Seconds != 0.25 {
		t.Errorf("child 0 = %+v", w.Children[0])
	}
	if w.Children[0].Attrs["files"] != 42 {
		t.Errorf("attrs = %v", w.Children[0].Attrs)
	}
	if w.Children[1].Name != "core.synthesize" || w.Children[1].Seconds != 2 {
		t.Errorf("child 1 = %+v", w.Children[1])
	}

	// Durations land in the stage_seconds histograms.
	h := reg.Histogram(Label("stage_seconds", "stage", "corpus.build"), "", nil)
	if h.Count() != 1 || h.Sum() != 0.25 {
		t.Errorf("histogram count=%d sum=%f", h.Count(), h.Sum())
	}

	tree := tr.TreeString()
	if !strings.Contains(tree, "world.build") || !strings.Contains(tree, "  corpus.build") {
		t.Errorf("tree render:\n%s", tree)
	}
	if !strings.Contains(tree, "files=42") {
		t.Errorf("tree missing attrs:\n%s", tree)
	}
}

// TestSpanContextParenting checks that an explicit Child nests under its
// parent, that End is idempotent, and that Reset clears the tree.
func TestSpanContextParenting(t *testing.T) {
	tr := NewTracer(nil)
	clk := newFakeClock()
	tr.SetClock(clk.now)

	root := tr.Start("run")
	child := root.Child("phase")
	clk.advance(time.Second)
	child.End()
	child.End() // idempotent
	root.End()

	stages := tr.Stages()
	if len(stages) != 1 || len(stages[0].Children) != 1 {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Children[0].Seconds != 1 {
		t.Errorf("child seconds = %f", stages[0].Children[0].Seconds)
	}

	tr.Reset()
	if len(tr.Stages()) != 0 {
		t.Error("reset did not clear roots")
	}
}

// TestSpanChildParenting checks that Child spans opened concurrently on
// worker goroutines all attach as siblings under their explicit parent —
// never nested under each other and never flattened to roots — and that
// the coordinator's implicit stack is untouched by their lifecycle.
func TestSpanChildParenting(t *testing.T) {
	tr := NewTracer(nil)
	clk := newFakeClock()
	tr.SetClock(clk.now)

	root := tr.Start("phase")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				root.Child("item").End()
			}
		}()
	}
	wg.Wait()

	// The implicit stack still points at root: a sibling stage started now
	// nests under root, not under some worker's span.
	sib := tr.Start("next")
	sib.End()
	root.End()

	stages := tr.Stages()
	if len(stages) != 1 {
		t.Fatalf("roots = %d, want 1 (children leaked to root?)", len(stages))
	}
	if got := len(stages[0].Children); got != 8*25+1 {
		t.Fatalf("children of root = %d, want %d", got, 8*25+1)
	}
	for _, c := range stages[0].Children {
		if len(c.Children) != 0 {
			t.Fatalf("concurrent children nested under each other: %+v", c)
		}
	}
}

// TestSpanChildEndOrder checks that ending an explicit child after its
// implicit parent has ended does not corrupt the stack.
func TestSpanChildEndOrder(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Start("a")
	child := root.Child("b")
	root.End()
	child.End() // must not pop anything
	after := tr.Start("c")
	after.End()
	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "a" || stages[1].Name != "c" {
		t.Fatalf("stages = %+v", stages)
	}
}

// TestSpanConcurrent opens/closes spans from many goroutines; the tree
// may be flat but must be race-free and complete.
func TestSpanConcurrent(t *testing.T) {
	tr := NewTracer(NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Start("stage").End()
			}
		}()
	}
	wg.Wait()
	total := 0
	var count func(ns []StageNode)
	count = func(ns []StageNode) {
		for _, n := range ns {
			total++
			count(n.Children)
		}
	}
	count(tr.Stages())
	if total != 16*100 {
		t.Errorf("spans recorded = %d, want %d", total, 16*100)
	}
}
