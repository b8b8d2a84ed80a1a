// Package suites provides the seven GPGPU benchmark suites of Table 3 —
// NPB, Rodinia, NVIDIA SDK, AMD SDK, Parboil, PolyBench, and SHOC — as
// hand-written OpenCL-subset implementations of each suite's benchmarks,
// with per-suite dataset configurations (NPB classes S/W/A/B/C, Parboil's
// numbered datasets, defaults elsewhere).
//
// The kernels are written to occupy each suite's characteristic region of
// the Grewe feature space: NPB exploits local memory aggressively and
// minimizes branching (§8.2), PolyBench is dense loop nests with
// column-major (uncoalesced) traffic, the vendor SDKs are clean streaming
// kernels, SHOC is microbenchmark-shaped, Rodinia is irregular, and
// Parboil mixes memory-bound science codes with compute-heavy outliers.
package suites

import (
	"fmt"
	"math/rand"

	"clgen/internal/cache"
	"clgen/internal/clc"
	"clgen/internal/driver"
	"clgen/internal/interp"
	"clgen/internal/platform"
)

// Dataset is one input configuration of a benchmark.
type Dataset struct {
	Name string
	N    int // problem-size parameter
}

// ArgKind classifies a launch argument.
type ArgKind int

// Argument kinds.
const (
	GlobalBuf ArgKind = iota // random-filled global buffer
	ZeroBuf                  // zero-initialized global buffer (outputs)
	LocalBuf                 // per-group scratch
	IntScalar
	FloatScalar
)

// Arg describes one kernel argument of a launch.
type Arg struct {
	Kind  ArgKind
	Slots int     // buffer length in elements (buffers)
	Int   int64   // value for IntScalar
	Float float64 // value for FloatScalar
	// ReadOnly marks buffers never read back (halves their transfer).
	ReadOnly bool
}

// Launch is a concrete NDRange + argument plan for one dataset.
type Launch struct {
	GlobalSize int
	LocalSize  int
	Args       []Arg
}

// Benchmark is one suite program.
type Benchmark struct {
	Suite string
	Name  string
	Src   string
	// Kernel names the entry kernel; empty means the first kernel.
	Kernel   string
	Datasets []Dataset
	// Plan derives the launch from a dataset size.
	Plan func(n int) Launch
}

// ID returns "suite.name".
func (b *Benchmark) ID() string { return b.Suite + "." + b.Name }

// Suites lists the seven suite names in the paper's order of use.
var Suites = []string{"NPB", "Rodinia", "NVIDIA", "AMD", "Parboil", "PolyBench", "SHOC"}

// All returns every benchmark of every suite.
func All() []*Benchmark {
	var out []*Benchmark
	out = append(out, NPB()...)
	out = append(out, Rodinia()...)
	out = append(out, NVIDIA()...)
	out = append(out, AMD()...)
	out = append(out, Parboil()...)
	out = append(out, PolyBench()...)
	out = append(out, SHOC()...)
	return out
}

// BySuite returns the benchmarks of one suite.
func BySuite(name string) []*Benchmark {
	switch name {
	case "NPB":
		return NPB()
	case "Rodinia":
		return Rodinia()
	case "NVIDIA":
		return NVIDIA()
	case "AMD":
		return AMD()
	case "Parboil":
		return Parboil()
	case "PolyBench":
		return PolyBench()
	case "SHOC":
		return SHOC()
	}
	return nil
}

// Load compiles the benchmark's kernel.
func (b *Benchmark) Load() (*driver.Kernel, error) {
	f, err := clc.Parse(b.Src)
	if err != nil {
		return nil, fmt.Errorf("suites: %s: %w", b.ID(), err)
	}
	if err := clc.Check(f); err != nil {
		return nil, fmt.Errorf("suites: %s: %w", b.ID(), err)
	}
	name := b.Kernel
	if name == "" {
		ks := f.Kernels()
		if len(ks) == 0 {
			return nil, fmt.Errorf("suites: %s: no kernels", b.ID())
		}
		name = ks[0].Name
	}
	k, err := driver.LoadKernel(f, name, b.Src)
	if err != nil {
		return nil, fmt.Errorf("suites: %s: %w", b.ID(), err)
	}
	return k, nil
}

// ExecCap bounds the executed size of one measurement; datasets larger
// than the cap run at the cap and have their profiles extrapolated
// linearly, which is exact for the suite kernels (their per-item work does
// not depend on the dataset size).
var ExecCap = 16384

// launchEntry is one executed suite launch: its unscaled profile and the
// bytes its buffers transfer. The profile is stored by value, so every
// lookup hands Measure a copy to scale.
type launchEntry struct {
	Profile  interp.Profile `json:"profile"`
	Transfer int64          `json:"transfer"`
}

// launchMemo runs each distinct launch once. Two datasets of a benchmark
// that both exceed ExecCap resolve to the same launch at the same seed on
// the deterministic interpreter; only their extrapolation differs.
var launchMemo = cache.New(cache.Config[launchEntry]{
	Name:    "suite-launch",
	Version: "suite-launch-v1|" + interp.Version,
})

// Measure executes the benchmark on one dataset and models runtimes on the
// given system. Results are deterministic in the seed.
func (b *Benchmark) Measure(k *driver.Kernel, ds Dataset, sys *platform.System, seed int64) (*driver.Measurement, error) {
	launch, execN, err := b.resolve(k, ds)
	if err != nil {
		return nil, err
	}
	key := cache.Key(k.Src, k.Name, fmt.Sprintf("%+v,seed=%d", launch, seed))
	e, _, err := launchMemo.Do(key, func() (launchEntry, error) { return run(k, launch, seed) })
	if err != nil {
		return nil, fmt.Errorf("suites: %s (%s): %w", b.ID(), ds.Name, err)
	}
	prof, transfer := e.Profile, e.Transfer
	nominalGlobal := launch.GlobalSize
	if execN < ds.N {
		factor := float64(ds.N) / float64(execN)
		prof.Scale(factor)
		transfer = int64(float64(transfer) * factor)
		nominalGlobal = int(float64(launch.GlobalSize) * factor)
	}
	m, err := driver.MeasureProfile(k, &prof, transfer, nominalGlobal, launch.LocalSize, sys)
	if err != nil {
		return nil, err
	}
	m.Kernel = b.ID() + "." + ds.Name
	return m, nil
}

// resolve plans the launch Measure executes for ds, at the dataset size
// capped at ExecCap, and returns it with that executed size.
func (b *Benchmark) resolve(k *driver.Kernel, ds Dataset) (Launch, int, error) {
	execN := ds.N
	if ExecCap > 0 && execN > ExecCap {
		execN = ExecCap
	}
	launch := b.Plan(execN)
	if launch.GlobalSize <= 0 {
		return Launch{}, 0, fmt.Errorf("suites: %s (%s): launch has global size %d",
			b.ID(), ds.Name, launch.GlobalSize)
	}
	if launch.LocalSize <= 0 {
		launch.LocalSize = 64
	}
	if launch.GlobalSize < launch.LocalSize {
		launch.LocalSize = launch.GlobalSize
	}
	for launch.GlobalSize%launch.LocalSize != 0 {
		launch.LocalSize--
	}
	if len(launch.Args) != len(k.Decl.Params) {
		return Launch{}, 0, fmt.Errorf("suites: %s: launch has %d args, kernel wants %d",
			b.ID(), len(launch.Args), len(k.Decl.Params))
	}
	return launch, execN, nil
}

// run builds the launch's arguments from the seed and executes it.
func run(k *driver.Kernel, launch Launch, seed int64) (launchEntry, error) {
	rng := rand.New(rand.NewSource(seed))
	args := make([]interp.Value, len(launch.Args))
	var transfer int64
	for i, a := range launch.Args {
		prm := k.Decl.Params[i]
		switch a.Kind {
		case IntScalar:
			st, ok := prm.Type.(*clc.ScalarType)
			if !ok {
				return launchEntry{}, fmt.Errorf("arg %d is not a scalar", i)
			}
			args[i] = interp.IntValue(st.Kind, a.Int)
		case FloatScalar:
			st, ok := prm.Type.(*clc.ScalarType)
			if !ok {
				return launchEntry{}, fmt.Errorf("arg %d is not a scalar", i)
			}
			args[i] = interp.FloatValue(st.Kind, a.Float)
		case GlobalBuf, ZeroBuf, LocalBuf:
			pt, ok := prm.Type.(*clc.PointerType)
			if !ok {
				return launchEntry{}, fmt.Errorf("arg %d is not a pointer", i)
			}
			kind := bufKind(pt.Elem)
			slots := a.Slots * slotsPer(pt.Elem)
			if slots <= 0 {
				slots = slotsPer(pt.Elem)
			}
			space := pt.Space
			if a.Kind == LocalBuf {
				space = clc.Local
			}
			buf := interp.NewBuffer(kind, slots, space)
			if a.Kind == GlobalBuf {
				fill(buf, rng)
			}
			args[i] = interp.PtrValue(&interp.Pointer{Buf: buf, Elem: pt.Elem})
			if a.Kind != LocalBuf {
				bytes := int64(slots) * int64(max(kind.Bits()/8, 1))
				transfer += bytes // host → device
				if !a.ReadOnly && !prm.IsConst {
					transfer += bytes // device → host
				}
			}
		}
	}
	prof, err := k.Env.Run(k.Name, args, interp.RunConfig{
		GlobalSize: [3]int{launch.GlobalSize, 1, 1},
		LocalSize:  [3]int{launch.LocalSize, 1, 1},
	})
	if err != nil {
		return launchEntry{}, err
	}
	return launchEntry{Profile: *prof, Transfer: transfer}, nil
}

func bufKind(t clc.Type) clc.ScalarKind {
	switch x := t.(type) {
	case *clc.ScalarType:
		return x.Kind
	case *clc.VectorType:
		return x.Elem
	}
	return clc.Float
}

func slotsPer(t clc.Type) int {
	if v, ok := t.(*clc.VectorType); ok {
		return v.Len
	}
	return 1
}

func fill(b *interp.Buffer, rng *rand.Rand) {
	if b.Kind.IsFloat() {
		for i := range b.F {
			b.F[i] = rng.Float64()*2 - 1
		}
		return
	}
	for i := range b.I {
		b.I[i] = int64(rng.Intn(1 << 16))
	}
}

// --- shared dataset helpers ---

// stdDatasets is the default dataset pair most suites ship with: the
// standard input plus a reduced one (suites typically package small/ref
// inputs), giving within-benchmark size diversity.
func stdDatasets(n int) []Dataset {
	return []Dataset{{Name: "default", N: n}, {Name: "small", N: n / 16}}
}

// npbClasses are the NPB problem classes. Sizes are scaled to interpreter
// speed while preserving the classes' relative magnitudes (S < W < A < B).
var npbClasses = []Dataset{
	{Name: "S", N: 1 << 11},
	{Name: "W", N: 1 << 13},
	{Name: "A", N: 1 << 16},
	{Name: "B", N: 1 << 19},
	{Name: "C", N: 1 << 22},
}
