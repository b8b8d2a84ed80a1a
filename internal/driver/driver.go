// Package driver is the paper's host driver (§5): it parses an OpenCL
// kernel, generates rule-based payloads for its argument list (§5.1),
// executes it on the simulated device (internal/interp), applies the
// four-execution dynamic checker (§5.2), and measures modeled runtimes on
// the experimental platforms (internal/platform) for predictive modeling.
package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"clgen/internal/analysis"
	"clgen/internal/clc"
	"clgen/internal/features"
	"clgen/internal/interp"
	"clgen/internal/ir"
	"clgen/internal/telemetry"
)

// Kernel is a loaded, validated, executable kernel.
type Kernel struct {
	Src    string
	Name   string
	File   *clc.File
	Decl   *clc.FuncDecl
	Env    *interp.Env
	Static features.Static

	analysisOnce sync.Once
	analysisRep  *analysis.Report
	// footprintEmitOnce dedups the per-kernel footprint journal event
	// (emitted at a fixed reference size, so once is enough).
	footprintEmitOnce sync.Once
}

// Analysis returns the static analyzer's report over the kernel's file,
// computed on first use and cached (footprint sizing consults it for
// every size and payload seed the kernel is checked at).
func (k *Kernel) Analysis() *analysis.Report {
	k.analysisOnce.Do(func() { k.analysisRep = analysis.Analyze(k.File) })
	return k.analysisRep
}

// Load parses, checks, and prepares the first kernel of src. Kernels with
// irregular argument types (structs, image types) are rejected, matching
// the §6.2 limitation.
func Load(src string) (*Kernel, error) {
	f, err := clc.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	if err := clc.Check(f); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	ks := f.Kernels()
	if len(ks) == 0 {
		return nil, errors.New("driver: no kernel function")
	}
	return LoadKernel(f, ks[0].Name, src)
}

// LoadKernel prepares the named kernel from a checked file.
func LoadKernel(f *clc.File, name string, src string) (*Kernel, error) {
	decl := f.Function(name)
	if decl == nil || !decl.IsKernel {
		return nil, fmt.Errorf("driver: no kernel %q", name)
	}
	for _, p := range decl.Params {
		switch t := p.Type.(type) {
		case *clc.PointerType:
			if _, ok := t.Elem.(*clc.StructType); ok {
				return nil, fmt.Errorf("driver: kernel %q uses irregular argument types (§6.2)", name)
			}
		case *clc.StructType:
			return nil, fmt.Errorf("driver: kernel %q uses irregular argument types (§6.2)", name)
		}
	}
	env, err := interp.NewEnv(f)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	st, err := features.ExtractKernel(f, decl, ir.Lower(f))
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	return &Kernel{Src: src, Name: name, File: f, Decl: decl, Env: env, Static: st}, nil
}

// Payload encapsulates all arguments of one kernel execution (§5.1).
type Payload struct {
	Args       []interp.Value
	GlobalSize int
	LocalSize  int
	// inputIdx / outputIdx index Args: buffers transferred host→device and
	// device→host respectively (per the §5.1 enqueue rules).
	inputIdx  []int
	outputIdx []int
	// TransferBytes is the total host↔device traffic (both directions).
	TransferBytes int64
}

// Outputs returns the buffers read back to the host after execution, in
// argument order — the values the dynamic checker compares.
func (p *Payload) Outputs() []*interp.Buffer {
	var out []*interp.Buffer
	for _, i := range p.outputIdx {
		out = append(out, p.Args[i].Ptr.Buf)
	}
	return out
}

// Clone deep-copies the payload (buffers included).
func (p *Payload) Clone() *Payload {
	np := &Payload{
		GlobalSize: p.GlobalSize, LocalSize: p.LocalSize,
		inputIdx: p.inputIdx, outputIdx: p.outputIdx,
		TransferBytes: p.TransferBytes,
	}
	np.Args = make([]interp.Value, len(p.Args))
	for i, a := range p.Args {
		if a.IsPointer() {
			nb := a.Ptr.Buf.Clone()
			np.Args[i] = interp.PtrValue(&interp.Pointer{Buf: nb, Off: a.Ptr.Off, Elem: a.Ptr.Elem})
		} else {
			np.Args[i] = a
		}
	}
	return np
}

// release gives the storage of the payload's buffers back for reuse
// (interp.Buffer.Release). Only the payload's owner releases it, after
// its last read.
func (p *Payload) release() {
	for _, a := range p.Args {
		if a.IsPointer() {
			a.Ptr.Buf.Release()
		}
	}
}

// DefaultLocalSize is the work-group size used when the caller does not
// specify one.
const DefaultLocalSize = 64

// GeneratePayload applies the §5.1 rules for a given global size Sg:
// host buffers of Sg elements with random values for global pointers,
// device-only buffers for local pointers, the value Sg for integral
// scalars, and random values for other scalars. Host→device transfers are
// enqueued for all non-write-only global buffers and device→host for all
// non-read-only ones.
func GeneratePayload(k *Kernel, globalSize int, rng *rand.Rand) (*Payload, error) {
	if globalSize <= 0 {
		return nil, fmt.Errorf("driver: invalid global size %d", globalSize)
	}
	local := DefaultLocalSize
	if globalSize < local {
		local = globalSize
	}
	for globalSize%local != 0 {
		local--
	}
	telemetry.Default().Counter("driver_payloads_generated_total",
		"Payloads generated by the §5.1 rules.").Inc()
	p := &Payload{GlobalSize: globalSize, LocalSize: local}
	for i, prm := range k.Decl.Params {
		switch t := prm.Type.(type) {
		case *clc.PointerType:
			kind := elemScalarKind(t.Elem)
			if t.Space == clc.Local {
				// Device-only scratch: one work-group's worth.
				lslots := local * slotsPerElem(t.Elem)
				buf := interp.NewBuffer(kind, lslots, clc.Local)
				buf.Arg = i
				p.Args = append(p.Args, interp.PtrValue(&interp.Pointer{Buf: buf, Elem: t.Elem}))
				continue
			}
			// Under -footprint-sizing a proven extent past Sg enlarges the
			// buffer to cover it (max(Sg, extent+1)); otherwise — and for
			// symbolic-unknown bounds — the §5.1 size stands.
			elems, resized := k.footprintElems(i, globalSize)
			if resized {
				telemetry.Default().Counter("driver_footprint_resizes_total",
					"Buffers allocated beyond the §5.1 extent to cover a proven footprint.").Inc()
			}
			slots := elems * slotsPerElem(t.Elem)
			buf := interp.NewBuffer(kind, slots, t.Space)
			buf.Arg = i
			fillRandom(buf, rng)
			p.Args = append(p.Args, interp.PtrValue(&interp.Pointer{Buf: buf, Elem: t.Elem}))
			bytes := int64(slots) * int64(kindBytes(kind))
			writeOnly := prm.Access == "write_only"
			readOnly := prm.Access == "read_only" || prm.IsConst || t.Space == clc.Constant
			if !writeOnly {
				p.inputIdx = append(p.inputIdx, i)
				p.TransferBytes += bytes
			}
			if !readOnly {
				p.outputIdx = append(p.outputIdx, i)
				p.TransferBytes += bytes
			}
		case *clc.ScalarType:
			if t.Kind.IsInteger() {
				p.Args = append(p.Args, interp.IntValue(t.Kind, int64(globalSize)))
			} else {
				p.Args = append(p.Args, interp.FloatValue(t.Kind, rng.Float64()*2-1))
			}
		case *clc.VectorType:
			lanes := make([]interp.Value, t.Len)
			for l := range lanes {
				if t.Elem.IsFloat() {
					lanes[l] = interp.FloatValue(t.Elem, rng.Float64()*2-1)
				} else {
					lanes[l] = interp.IntValue(t.Elem, int64(rng.Intn(globalSize+1)))
				}
			}
			p.Args = append(p.Args, interp.VecValue(t.Elem, lanes))
		default:
			return nil, fmt.Errorf("driver: unsupported argument type %s", prm.Type)
		}
	}
	return p, nil
}

func elemScalarKind(t clc.Type) clc.ScalarKind {
	switch x := t.(type) {
	case *clc.ScalarType:
		return x.Kind
	case *clc.VectorType:
		return x.Elem
	case *clc.PointerType:
		return elemScalarKind(x.Elem)
	}
	return clc.Int
}

func slotsPerElem(t clc.Type) int {
	if v, ok := t.(*clc.VectorType); ok {
		return v.Len
	}
	return 1
}

func kindBytes(k clc.ScalarKind) int {
	b := k.Bits() / 8
	if b <= 0 {
		b = 4
	}
	return b
}

// fillRandom populates a buffer with values drawn from a uniform random
// distribution (§6.2 notes the driver generates datasets from uniform
// random distributions, as many benchmark suites do).
func fillRandom(b *interp.Buffer, rng *rand.Rand) {
	if b.Kind.IsFloat() {
		for i := range b.F {
			b.F[i] = rng.Float64()*2 - 1
		}
		return
	}
	for i := range b.I {
		b.I[i] = int64(rng.Intn(1024))
	}
}

// RunConfig bounds one execution.
type RunConfig struct {
	MaxSteps int64 // interpreter budget standing in for the wall-clock timeout
}

// Run executes the kernel over the payload once, returning the dynamic
// profile.
func (k *Kernel) Run(p *Payload, cfg RunConfig) (*interp.Profile, error) {
	telemetry.Default().Counter("driver_kernel_runs_total",
		"Kernel executions on the simulated device.").Inc()
	return k.Env.Run(k.Name, p.Args, p.launch(cfg))
}

// launch is the NDRange and budget of one execution of p.
func (p *Payload) launch(cfg RunConfig) interp.RunConfig {
	return interp.RunConfig{
		GlobalSize: [3]int{p.GlobalSize, 1, 1},
		LocalSize:  [3]int{p.LocalSize, 1, 1},
		MaxSteps:   cfg.MaxSteps,
	}
}
