package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"clgen/internal/cache"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

// The world is expensive to build; share one across all tests.
var (
	worldOnce sync.Once
	world     *World
	worldErr  error
)

func testWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = BuildWorld(TestConfig())
	})
	if worldErr != nil {
		t.Fatalf("BuildWorld: %v", worldErr)
	}
	return world
}

func TestWorldBuild(t *testing.T) {
	w := testWorld(t)
	if len(w.Synth) == 0 {
		t.Fatal("no synthetic kernels")
	}
	for _, sys := range Systems {
		total := 0
		for _, suite := range []string{"NPB", "Rodinia", "NVIDIA", "AMD", "Parboil", "PolyBench", "SHOC"} {
			n := len(w.SuiteObs(sys.Name, suite))
			if n == 0 {
				t.Errorf("%s/%s: no observations", sys.Name, suite)
			}
			total += n
		}
		if total < 71 {
			t.Errorf("%s: only %d observations", sys.Name, total)
		}
		if len(w.SynthObs[sys.Name]) < 20 {
			t.Errorf("%s: only %d synthetic observations", sys.Name, len(w.SynthObs[sys.Name]))
		}
	}
	// The mapping problem must be non-degenerate: both classes present.
	for _, sys := range Systems {
		cpu, gpu := 0, 0
		for _, o := range w.AllObs(sys.Name) {
			if o.M.Oracle == platform.CPU {
				cpu++
			} else {
				gpu++
			}
		}
		if cpu == 0 || gpu == 0 {
			t.Errorf("%s: degenerate oracle distribution cpu=%d gpu=%d", sys.Name, cpu, gpu)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	w := testWorld(t)
	r, err := Table1(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Grid) != 7 || len(r.Grid[0]) != 7 {
		t.Fatalf("grid shape %dx%d", len(r.Grid), len(r.Grid[0]))
	}
	// Cross-suite transfer is generally poor: the mean off-diagonal cell
	// must sit well below the oracle.
	var sum float64
	var n int
	for i := range r.Grid {
		for j := range r.Grid[i] {
			if i == j {
				continue
			}
			v := r.Grid[i][j]
			if v < 0 || v > 1.2 {
				t.Errorf("cell [%d][%d] = %f out of range", i, j, v)
			}
			sum += v
			n++
		}
	}
	mean := sum / float64(n)
	if mean > 0.97 {
		t.Errorf("cross-suite transfer suspiciously good: mean %.2f", mean)
	}
	if r.WorstValue > 0.7 {
		t.Errorf("no badly-transferring pair found: worst %.2f (paper: 0.115)", r.WorstValue)
	}
	if r.BestTrainSuite == "" || r.BestMean <= 0 {
		t.Errorf("no best suite found: %+v", r)
	}
	if !strings.Contains(r.Render(), "%") {
		t.Error("render output empty")
	}
}

func TestFigure2Static(t *testing.T) {
	rows := Figure2()
	if len(rows) != 14 {
		t.Fatalf("%d origins, want 14 (paper Figure 2)", len(rows))
	}
	if rows[0].Origin != "Rodinia" || rows[0].Mean < rows[1].Mean {
		t.Errorf("rows not sorted by usage: %+v", rows[:2])
	}
	if !strings.Contains(RenderFigure2(rows), "Rodinia") {
		t.Error("render missing data")
	}
}

func TestFigure3OutliersFixed(t *testing.T) {
	w := testWorld(t)
	r, err := Figure3(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Before) == 0 {
		t.Fatal("no Parboil points")
	}
	wrongBefore := 0
	for _, p := range r.Before {
		if !p.Correct {
			wrongBefore++
		}
	}
	if wrongBefore == 0 {
		t.Skip("no Parboil outliers at this scale; nothing to fix")
	}
	if len(r.After) <= len(r.Before) {
		t.Errorf("no neighboring observations added: before=%d after=%d", len(r.Before), len(r.After))
	}
	if r.FixedOutliers == 0 {
		t.Errorf("no outliers fixed by neighboring observations (wrong before: %d)", wrongBefore)
	}
}

func TestFigure7SyntheticBenchmarksHelp(t *testing.T) {
	w := testWorld(t)
	r, err := Figure7(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 2 {
		t.Fatalf("panels: %d", len(r.Panels))
	}
	for _, p := range r.Panels {
		if p.MeanGrewe <= 0 || p.MeanCLgen <= 0 {
			t.Errorf("%s: degenerate speedups %+v", p.System, p)
		}
		if len(p.Bars) < 20 {
			t.Errorf("%s: only %d NPB bars (want ~23 program×class points)", p.System, len(p.Bars))
		}
	}
	// The headline claim: adding synthetic benchmarks must not hurt, and
	// should help (paper: 1.27×).
	if r.Improvement < 0.95 {
		t.Errorf("synthetic benchmarks degraded the model: %.3fx", r.Improvement)
	}
	if out := r.Render(); !strings.Contains(out, "GEOMEAN") {
		t.Error("render incomplete")
	}
}

func TestFigure8ExtendedModelWins(t *testing.T) {
	w := testWorld(t)
	r, err := Figure8(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Panels {
		if p.ExtendedAccuracy < p.GreweAccuracy-0.05 {
			t.Errorf("%s: extended accuracy %.2f below original %.2f",
				p.System, p.ExtendedAccuracy, p.GreweAccuracy)
		}
	}
	if r.Improvement < 0.97 {
		t.Errorf("extended model materially worse: %.3fx (paper: 4.30x)", r.Improvement)
	}
	if out := r.Render(); !strings.Contains(out, "extended") {
		t.Error("render incomplete")
	}
}

func TestFigure9CLgenDominatesCLSmith(t *testing.T) {
	w := testWorld(t)
	r, err := Figure9(w, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series: %d", len(r.Series))
	}
	byName := map[string]Figure9Series{}
	for _, s := range r.Series {
		byName[s.Source] = s
	}
	clgen, clsmith, gh := byName["CLgen"], byName["CLSmith"], byName["GitHub"]
	if clgen.MatchFraction <= clsmith.MatchFraction {
		t.Errorf("CLgen match rate %.3f not above CLSmith %.3f",
			clgen.MatchFraction, clsmith.MatchFraction)
	}
	if clsmith.MatchFraction > 0.05 {
		t.Errorf("CLSmith match rate %.3f too high (paper: 0.53%%)", clsmith.MatchFraction)
	}
	if gh.PoolSize == 0 || clgen.PoolSize == 0 {
		t.Error("empty pools")
	}
	// Curves are monotonically nondecreasing in K.
	for _, s := range r.Series {
		for i := 1; i < len(s.Matches); i++ {
			if s.Matches[i] < s.Matches[i-1]-1e-9 {
				t.Errorf("%s: match curve not monotone at %d", s.Source, i)
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, "CLgen") {
		t.Error("render incomplete")
	}
}

// TestFigure9WarmCacheIdentical: Figure 9 recomputed from a warm
// persistent cache, with the in-memory tier flushed as in a new process,
// equals the cold figure, and every feature extraction of the warm pass
// is a cache hit.
func TestFigure9WarmCacheIdentical(t *testing.T) {
	w := testWorld(t)
	if err := cache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.SetDir("") })
	misses := telemetry.Default().Counter(telemetry.Label("cache_misses_total", "cache", "features"), "")
	cache.FlushMemory()
	before := misses.Value()
	cold, err := Figure9(w, 300)
	if err != nil {
		t.Fatal(err)
	}
	if misses.Value() == before {
		t.Fatal("cold Figure 9 never missed the features cache")
	}
	cache.FlushMemory()
	before = misses.Value()
	warm, err := Figure9(w, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm Figure 9 differs from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
	if n := misses.Value() - before; n != 0 {
		t.Errorf("warm Figure 9 missed the features cache %d times", n)
	}
}

func TestTuringExperiment(t *testing.T) {
	w := testWorld(t)
	r, err := TuringTest(w)
	if err != nil {
		t.Fatal(err)
	}
	if out := r.Render(); !strings.Contains(out, "control group") {
		t.Error("render incomplete")
	}
	if r.Control.Mean <= r.CLgen.Mean {
		t.Errorf("control %.2f should beat clgen %.2f", r.Control.Mean, r.CLgen.Mean)
	}
	if r.Control.Mean < 0.8 {
		t.Errorf("control mean %.2f (paper: 0.96)", r.Control.Mean)
	}
	if r.CLgen.Mean > 0.75 {
		t.Errorf("clgen kernels too easy to spot: %.2f (paper: 0.52)", r.CLgen.Mean)
	}
}

func TestCorpusStatsShape(t *testing.T) {
	w := testWorld(t)
	s := CorpusStats(w)
	if s.DiscardRateShim >= s.DiscardRateNoShim {
		t.Errorf("shim did not help: %.2f -> %.2f", s.DiscardRateNoShim, s.DiscardRateShim)
	}
	if s.VocabReduction() < 0.3 {
		t.Errorf("vocab reduction %.2f", s.VocabReduction())
	}
	out := RenderCorpusStats(s)
	if !strings.Contains(out, "discard rate") {
		t.Error("render incomplete")
	}
}

func TestCollisionsFound(t *testing.T) {
	w := testWorld(t)
	r, err := Collisions(w)
	if err != nil {
		t.Fatal(err)
	}
	// The branch feature must strictly shrink the collision set whenever
	// collisions exist at all.
	if r.CollisionsNoBranch > 0 && r.RemainingWithBranch > r.CollisionsNoBranch {
		t.Errorf("branch feature added collisions? %+v", r)
	}
	_ = r.Render()
}

func TestDescriptiveTables(t *testing.T) {
	if !strings.Contains(RenderTable2(), "coalesced") {
		t.Error("table 2 incomplete")
	}
	t3 := RenderTable3()
	if !strings.Contains(t3, "71") {
		t.Errorf("table 3 total missing:\n%s", t3)
	}
	if !strings.Contains(RenderTable4(), "Tahiti") {
		t.Error("table 4 incomplete")
	}
}
