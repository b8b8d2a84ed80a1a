package interp_test

// The differential golden lives in the external test package: it sweeps
// the suites, the seed corpus and the synthesis campaign, whose packages
// import interp.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/core"
	"clgen/internal/corpus"
	"clgen/internal/driver"
	"clgen/internal/github"
	"clgen/internal/interp"
	"clgen/internal/model"
	"clgen/internal/pool"
	"clgen/internal/suites"
)

const (
	goldenPath = "testdata/runs.golden"
	// goldenSize is the executed size of every run: the suites' exec cap
	// and the payload size of corpus and campaign kernels.
	goldenSize = 256
	// goldenSteps is the budget of every run.
	goldenSteps = 1 << 20
)

// goldenRun is one launch of the golden sweep.
type goldenRun struct {
	id   string
	env  *interp.Env
	name string
	args []interp.Value
	cfg  interp.RunConfig
}

// runRecord is what the golden pins about one launch.
type runRecord struct {
	ID      string           `json:"id"`
	Err     string           `json:"err,omitempty"`
	Class   string           `json:"class,omitempty"`
	Fault   *interp.MemFault `json:"fault,omitempty"`
	Profile *interp.Profile  `json:"profile,omitempty"`
	Buffers []bufRecord      `json:"buffers,omitempty"`
}

// bufRecord is one pointer argument's buffer after the launch.
type bufRecord struct {
	Arg     int    `json:"arg"`
	Digest  string `json:"digest"`
	MaxSlot int64  `json:"max_slot"`
}

// TestRunGolden is the interpreter's differential golden: every suite
// benchmark × dataset at a small exec cap, every filter-accepted
// seed-corpus kernel and the campaign's synthetic kernels, each run once,
// must reproduce the recorded output buffers, MaxSlot, full Profile
// (Steps included) and error text, class and fault. Regenerate with
// UPDATE_GOLDEN=1 only for a deliberate change of behaviour.
func TestRunGolden(t *testing.T) {
	runs := goldenRuns(t)
	// Runs sharing an Env (kernels of one file) go in order on one worker:
	// a kernel may write the file-scope arrays its siblings read.
	var batches [][]goldenRun
	for i, r := range runs {
		if i == 0 || r.env != runs[i-1].env {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], r)
	}
	var got []runRecord
	for _, recs := range pool.Map(2, len(batches), func(i int) []runRecord {
		out := make([]runRecord, len(batches[i]))
		for j, r := range batches[i] {
			out[j] = record(r)
		}
		return out
	}) {
		got = append(got, recs...)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		var buf bytes.Buffer
		for _, r := range got {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, the golden has %d", len(got), len(want))
	}
	for i := range want {
		for _, d := range diffRecords(got[i], want[i]) {
			t.Errorf("%s: %s", want[i].ID, d)
		}
	}
	t.Logf("%d runs compared", len(got))
}

// TestGoldenBarrierLaunchesPark requires every golden launch that counted
// a barrier to have run on work-items that park by returning, so that the
// golden keeps pinning the parking path rather than the goroutine one.
func TestGoldenBarrierLaunchesPark(t *testing.T) {
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	runs := goldenRuns(t)
	if len(runs) != len(want) {
		t.Fatalf("%d runs, the golden has %d", len(runs), len(want))
	}
	n := 0
	for i, r := range runs {
		if p := want[i].Profile; p == nil || p.Barriers == 0 {
			continue
		}
		n++
		if !r.env.Parks(r.name) {
			t.Errorf("%s: kernel %s runs its work-items as goroutines", r.id, r.name)
		}
	}
	if n == 0 {
		t.Fatal("no golden launch counted a barrier")
	}
	t.Logf("%d barrier launches park", n)
}

func readGolden(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// diffRecords names every field in which got differs from want.
func diffRecords(got, want runRecord) []string {
	var out []string
	field := func(name string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s = %v, want %v", name, g, w))
		}
	}
	field("id", got.ID, want.ID)
	field("err", got.Err, want.Err)
	field("class", got.Class, want.Class)
	field("fault", got.Fault, want.Fault)
	if (got.Profile == nil) != (want.Profile == nil) {
		field("profile", got.Profile, want.Profile)
	} else if got.Profile != nil {
		g, w := reflect.ValueOf(*got.Profile), reflect.ValueOf(*want.Profile)
		for i := 0; i < g.NumField(); i++ {
			field("profile."+g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	if len(got.Buffers) != len(want.Buffers) {
		field("buffers", got.Buffers, want.Buffers)
		return out
	}
	for i := range want.Buffers {
		g, w := got.Buffers[i], want.Buffers[i]
		field(fmt.Sprintf("arg %d digest", w.Arg), g.Digest, w.Digest)
		field(fmt.Sprintf("arg %d max slot", w.Arg), g.MaxSlot, w.MaxSlot)
	}
	return out
}

// record runs one launch and summarizes its outcome.
func record(r goldenRun) runRecord {
	prof, err := r.env.Run(r.name, r.args, r.cfg)
	return outcome(r.id, prof, err, r.args)
}

// outcome summarizes a launch: its error's text, class and fault, its
// profile and every pointer argument's buffer.
func outcome(id string, prof *interp.Profile, err error, args []interp.Value) runRecord {
	rec := runRecord{ID: id, Profile: prof}
	if err != nil {
		rec.Err, rec.Class = err.Error(), errClass(err)
		var mf *interp.MemFault
		if errors.As(err, &mf) {
			f := *mf
			rec.Fault = &f
		}
	}
	for i, a := range args {
		if a.IsPointer() {
			b := a.Ptr.Buf
			rec.Buffers = append(rec.Buffers, bufRecord{Arg: i, Digest: digest(b), MaxSlot: b.MaxSlot})
		}
	}
	return rec
}

func errClass(err error) string {
	var mf *interp.MemFault
	switch {
	case errors.Is(err, interp.ErrStepLimit):
		return "step-limit"
	case errors.As(err, &mf):
		return "fault"
	case errors.Is(err, interp.ErrBarrierDivergence):
		return "barrier-divergence"
	}
	return "other"
}

// digest hashes a buffer's slots bit for bit.
func digest(b *interp.Buffer) string {
	h := sha256.New()
	var w [8]byte
	if b.Kind.IsFloat() {
		for _, f := range b.F {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(f))
			h.Write(w[:])
		}
	} else {
		for _, i := range b.I {
			binary.LittleEndian.PutUint64(w[:], uint64(i))
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenRuns lists the sweep: suites, then the seed corpus, then the
// campaign's synthetic kernels.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var runs []goldenRun
	for _, b := range suites.All() {
		k, err := b.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range b.Datasets {
			runs = append(runs, suiteRun(t, b, k, ds))
		}
	}
	for i, cf := range github.Mine(github.MinerConfig{Seed: 1, Repos: 60, FilesPerRepo: 8}) {
		res := corpus.Filter(cf.Text, true)
		if !res.OK {
			continue
		}
		for j, decl := range res.File.Kernels() {
			k, err := driver.LoadKernel(res.File, decl.Name, cf.Text)
			if err != nil {
				continue // irregular argument types (§6.2)
			}
			if r, ok := payloadRun(fmt.Sprintf("corpus/file%03d/%d:%s", i, j, decl.Name), k); ok {
				runs = append(runs, r)
			}
		}
	}
	// The synthesis campaign of experiments.TestConfig(): seed 7, 60 mined
	// repos, 60 kernels drawn from synthesis seed 7+100.
	g, err := core.Build(core.Config{Miner: github.MinerConfig{Seed: 7, Repos: 60, FilesPerRepo: 8}})
	if err != nil {
		t.Fatal(err)
	}
	synth, _, err := g.SynthesizeWorkers(60, model.SampleOpts{Seed: model.FreeSeed, Temperature: 1.0}, 107, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range synth {
		k, err := driver.Load(src)
		if err != nil {
			continue
		}
		if r, ok := payloadRun(fmt.Sprintf("synth/%02d", i), k); ok {
			runs = append(runs, r)
		}
	}
	return runs
}

// payloadRun launches k once on a §5.1 payload.
func payloadRun(id string, k *driver.Kernel) (goldenRun, bool) {
	p, err := driver.GeneratePayload(k, goldenSize, rand.New(rand.NewSource(1)))
	if err != nil {
		return goldenRun{}, false
	}
	return goldenRun{id: id, env: k.Env, name: k.Name, args: p.Args, cfg: interp.RunConfig{
		GlobalSize: [3]int{p.GlobalSize, 1, 1},
		LocalSize:  [3]int{p.LocalSize, 1, 1},
		MaxSteps:   goldenSteps,
	}}, true
}

// suiteRun plans one suite dataset at the golden's exec cap, building its
// arguments the way suites.Benchmark.Measure does.
func suiteRun(t *testing.T, b *suites.Benchmark, k *driver.Kernel, ds suites.Dataset) goldenRun {
	t.Helper()
	launch := b.Plan(min(ds.N, goldenSize))
	if launch.LocalSize <= 0 {
		launch.LocalSize = 64
	}
	if launch.GlobalSize < launch.LocalSize {
		launch.LocalSize = launch.GlobalSize
	}
	for launch.GlobalSize%launch.LocalSize != 0 {
		launch.LocalSize--
	}
	rng := rand.New(rand.NewSource(1))
	args := make([]interp.Value, len(launch.Args))
	for i, a := range launch.Args {
		switch t := k.Decl.Params[i].Type.(type) {
		case *clc.ScalarType:
			if a.Kind == suites.FloatScalar {
				args[i] = interp.FloatValue(t.Kind, a.Float)
			} else {
				args[i] = interp.IntValue(t.Kind, a.Int)
			}
		case *clc.PointerType:
			kind, per := clc.Float, 1
			switch e := t.Elem.(type) {
			case *clc.ScalarType:
				kind = e.Kind
			case *clc.VectorType:
				kind, per = e.Elem, e.Len
			}
			space := t.Space
			if a.Kind == suites.LocalBuf {
				space = clc.Local
			}
			buf := interp.NewBuffer(kind, max(a.Slots*per, per), space)
			if a.Kind == suites.GlobalBuf {
				for j := range buf.F {
					buf.F[j] = rng.Float64()*2 - 1
				}
				for j := range buf.I {
					buf.I[j] = int64(rng.Intn(1 << 16))
				}
			}
			args[i] = interp.PtrValue(&interp.Pointer{Buf: buf, Elem: t.Elem})
		}
	}
	return goldenRun{id: fmt.Sprintf("suite/%s/%s", b.ID(), ds.Name), env: k.Env, name: k.Name, args: args,
		cfg: interp.RunConfig{
			GlobalSize: [3]int{launch.GlobalSize, 1, 1},
			LocalSize:  [3]int{launch.LocalSize, 1, 1},
			MaxSteps:   goldenSteps,
		}}
}
