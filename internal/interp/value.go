// Package interp executes OpenCL C kernels on a simulated compute device.
// It implements the NDRange execution model — work-items, work-groups,
// barriers, global/local/private address spaces, and vector types — and
// collects a dynamic execution profile that the platform performance models
// consume. Together with internal/platform it substitutes for the paper's
// physical CPU/GPU OpenCL runtimes.
package interp

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"clgen/internal/clc"
)

// MaxLanes is the widest OpenCL vector supported (float16 etc).
const MaxLanes = 16

// Value is a runtime value: a scalar, a vector of up to 16 lanes, or a
// pointer. Every lane has an integer and a floating-point view; integer
// kinds keep exact 64-bit payloads in the first, float kinds use the
// second. Lane 0 is held inline, so a scalar is six machine words (48
// bytes) that travel in registers. A vector's lanes live in an
// out-of-line array, from the running work-item's lane arena or the heap,
// that is never written while a Value holding it can still be read, so
// copies may share it.
type Value struct {
	Kind  clc.ScalarKind
	Width int // 1 for scalars, 2/3/4/8/16 for vectors, 0 for pointers
	Ptr   *Pointer
	i     int64
	f     float64
	lanes *lane // lanes 0..Width-1 when Width > 1
}

// lane is one vector element in both views.
type lane struct {
	i int64
	f float64
}

// scalar builds a one-lane value from its two views.
func scalar(kind clc.ScalarKind, i int64, f float64) Value {
	return Value{Kind: kind, Width: 1, i: i, f: f}
}

// arenaLanes is the capacity of a work-item's lane arena.
const arenaLanes = 1024

// arena hands out the lane arrays of one work-item's vectors from a fixed
// block, so that building a vector allocates nothing. The sequential path
// resets its context's arena at each work-item's entry, when no Value the
// previous work-item built can be read any more: the kernel's frame is
// replaced by a copy of the launch's frame image, a deeper frame is
// cleared before a call uses it, the argument stack is empty and buffers
// hold scalars. So no lane array is written while a Value holding it can
// still be read. A nil arena (the lockstep paths') or a full one takes
// lanes from the heap.
type arena struct {
	used  int
	lanes [arenaLanes]lane
}

// reset takes back every lane handed out, zeroed, so that alloc's lanes
// read as zero as make's do.
func (ar *arena) reset() {
	if ar != nil {
		clear(ar.lanes[:ar.used])
		ar.used = 0
	}
}

// alloc returns w zeroed lanes.
func (ar *arena) alloc(w int) []lane {
	if ar != nil && ar.used+w <= arenaLanes {
		ls := ar.lanes[ar.used : ar.used+w : ar.used+w]
		ar.used += w
		return ls
	}
	return make([]lane, w)
}

// vector builds a value of width len(ls) from freshly made lanes, which
// the caller must not write afterwards.
func vector(kind clc.ScalarKind, ls []lane) Value {
	v := Value{Kind: kind, Width: len(ls)}
	if len(ls) > 0 {
		v.i, v.f = ls[0].i, ls[0].f
	}
	if len(ls) > 1 {
		v.lanes = &ls[0]
	}
	return v
}

// makeValue builds a value of kind and width w lane by lane, its lanes
// from ar.
func makeValue(ar *arena, kind clc.ScalarKind, w int, at func(l int) lane) Value {
	if w < 1 {
		return Value{Kind: kind, Width: w}
	}
	if w == 1 {
		l := at(0)
		return scalar(kind, l.i, l.f)
	}
	ls := ar.alloc(w)
	for l := range ls {
		ls[l] = at(l)
	}
	return vector(kind, ls)
}

// lane returns lane l in both views; lanes past the width read as zero,
// and so do all lanes of a vector without a lane array (a zero vector).
func (v Value) lane(l int) lane {
	if v.lanes != nil {
		if l < v.Width {
			return unsafe.Slice(v.lanes, v.Width)[l]
		}
		return lane{}
	}
	if l == 0 {
		return lane{v.i, v.f}
	}
	return lane{}
}

// Pointer references a span of a Buffer. Off is measured in scalar slots of
// the buffer, so pointer casts that reinterpret granularity stay coherent.
// Pointers are never modified once made, so values may share them.
type Pointer struct {
	Buf  *Buffer
	Off  int64    // scalar-slot offset
	Elem clc.Type // pointee type as seen through this pointer
}

// Buffer is a linear memory object in some address space, stored as flat
// scalar slots.
type Buffer struct {
	Kind  clc.ScalarKind
	Space clc.AddrSpace
	F     []float64 // payload for float kinds
	I     []int64   // payload for integer kinds
	// Arg is the kernel argument index this buffer backs, or -1 for
	// anonymous memory (local scratch, private arrays). Out-of-bounds
	// traps carry it so crashes name the culprit argument.
	Arg int
	// MaxSlot is the largest slot successfully accessed, -1 when the
	// buffer is untouched: the observed footprint that the differential
	// soundness test compares against the statically proven one.
	MaxSlot int64
	// pooled holds F or I while they are recycled storage, which Release
	// gives back.
	pooled *storage
}

// storage is one buffer's slots, recycled through a pool per kind and
// length: f for a float kind, i for an integer one.
type storage struct {
	f []float64
	i []int64
}

type storageKey struct {
	float bool
	n     int
}

var (
	storageMu    sync.Mutex
	storagePools = map[storageKey]*sync.Pool{}
)

// storagePool returns the pool of storage of n slots of float or integer
// kind.
func storagePool(float bool, n int) *sync.Pool {
	k := storageKey{float, n}
	storageMu.Lock()
	defer storageMu.Unlock()
	p := storagePools[k]
	if p == nil {
		p = &sync.Pool{New: func() any {
			if float {
				return &storage{f: make([]float64, n)}
			}
			return &storage{i: make([]int64, n)}
		}}
		storagePools[k] = p
	}
	return p
}

// NewBuffer returns a zeroed buffer of n scalar slots of the given kind.
// Its storage may be recycled from a released buffer of the same kind and
// length.
func NewBuffer(kind clc.ScalarKind, n int, space clc.AddrSpace) *Buffer {
	b := &Buffer{Kind: kind, Space: space, Arg: -1, MaxSlot: -1}
	b.take(n)
	clear(b.F)
	clear(b.I)
	return b
}

// newBuffer is NewBuffer on fresh storage, for the interpreter's own
// arrays (file-scope, __local and private), which nothing releases.
func newBuffer(kind clc.ScalarKind, n int, space clc.AddrSpace) *Buffer {
	b := &Buffer{Kind: kind, Space: space, Arg: -1, MaxSlot: -1}
	if kind.IsFloat() {
		b.F = make([]float64, n)
	} else {
		b.I = make([]int64, n)
	}
	return b
}

// take gives b storage of n slots of its kind from the pool, its contents
// whatever the buffer that released it left.
func (b *Buffer) take(n int) {
	b.pooled = storagePool(b.Kind.IsFloat(), n).Get().(*storage)
	b.F, b.I = b.pooled.f, b.pooled.i
}

// Release gives the buffer's storage back for NewBuffer and Clone to
// recycle, and leaves the buffer empty: a stale reference to it reads as
// a buffer of no slots, where every access faults, instead of aliasing
// the buffer that reuses the storage. Only the buffer's owner releases it,
// after its last read of the buffer and of anything sharing its slots.
func (b *Buffer) Release() {
	if s := b.pooled; s != nil {
		storagePool(b.Kind.IsFloat(), len(s.f)+len(s.i)).Put(s)
	}
	b.F, b.I, b.pooled = nil, nil, nil
}

// Len returns the number of scalar slots.
func (b *Buffer) Len() int {
	if b.Kind.IsFloat() {
		return len(b.F)
	}
	return len(b.I)
}

// Clone returns a deep copy of the buffer, its storage recycled like
// NewBuffer's.
func (b *Buffer) Clone() *Buffer {
	nb := &Buffer{Kind: b.Kind, Space: b.Space, Arg: b.Arg, MaxSlot: b.MaxSlot}
	nb.take(b.Len())
	copy(nb.F, b.F)
	copy(nb.I, b.I)
	return nb
}

// Equal reports whether two buffers hold the same contents, comparing
// floats with the given absolute/relative epsilon (§5.2: "equality checks
// for floating point values are performed with an appropriate epsilon").
func (b *Buffer) Equal(o *Buffer, eps float64) bool {
	if b.Kind != o.Kind || b.Len() != o.Len() {
		return false
	}
	if b.Kind.IsFloat() {
		for i := range b.F {
			if !floatEq(b.F[i], o.F[i], eps) {
				return false
			}
		}
		return true
	}
	for i := range b.I {
		if b.I[i] != o.I[i] {
			return false
		}
	}
	return true
}

func floatEq(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

// MemFault is an out-of-bounds buffer access. It survives the
// interpreter's %w error wrapping, so the driver can attribute a crash
// to the faulting kernel argument with errors.As.
type MemFault struct {
	Arg   int   // kernel argument index of the buffer; -1 when anonymous
	Slot  int64 // scalar-slot offset of the faulting access
	Len   int   // buffer length in scalar slots
	Write bool
}

func (e *MemFault) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("out-of-bounds %s at slot %d of %d", op, e.Slot, e.Len)
}

// loadScalar reads one scalar slot as an int64/float64 pair.
func (b *Buffer) loadScalar(off int64) (int64, float64, error) {
	if off < 0 || off >= int64(b.Len()) {
		return 0, 0, &MemFault{Arg: b.Arg, Slot: off, Len: b.Len()}
	}
	if off > b.MaxSlot {
		b.MaxSlot = off
	}
	if b.Kind.IsFloat() {
		f := b.F[off]
		return int64(f), f, nil
	}
	i := b.I[off]
	return i, float64(i), nil
}

func (b *Buffer) storeScalar(off int64, i int64, f float64) error {
	if off < 0 || off >= int64(b.Len()) {
		return &MemFault{Arg: b.Arg, Slot: off, Len: b.Len(), Write: true}
	}
	if off > b.MaxSlot {
		b.MaxSlot = off
	}
	if b.Kind.IsFloat() {
		b.F[off] = f
	} else {
		b.I[off] = i
	}
	return nil
}

// --- Value constructors ---

// IntValue returns a scalar integer value of the given kind.
func IntValue(kind clc.ScalarKind, v int64) Value {
	i := truncInt(kind, v)
	return scalar(kind, i, float64(i))
}

// FloatValue returns a scalar float value of the given kind.
func FloatValue(kind clc.ScalarKind, v float64) Value {
	if kind == clc.Float || kind == clc.Half {
		v = float64(float32(v))
	}
	return scalar(kind, int64(clampToInt64(v)), v)
}

// PtrValue returns a pointer value.
func PtrValue(p *Pointer) Value { return Value{Ptr: p} }

// VecValue builds a vector value of the given element kind from lanes.
func VecValue(kind clc.ScalarKind, lanes []Value) Value { return vecValue(nil, kind, lanes) }

// vecValue is VecValue with its lanes from ar.
func vecValue(ar *arena, kind clc.ScalarKind, lanes []Value) Value {
	ls := ar.alloc(len(lanes))
	for i, l := range lanes {
		ls[i] = convertLane(l.lane(0), l, kind)
	}
	return vector(kind, ls)
}

// Splat replicates a scalar across w lanes.
func Splat(s Value, kind clc.ScalarKind, w int) Value { return splat(nil, s, kind, w) }

// splat is Splat with its lanes from ar.
func splat(ar *arena, s Value, kind clc.ScalarKind, w int) Value {
	c := convertLane(s.lane(0), s, kind)
	return makeValue(ar, kind, w, func(int) lane { return c })
}

// IsPointer reports whether v is a pointer value.
func (v Value) IsPointer() bool { return v.Ptr != nil }

// Lane returns lane i as a scalar value.
func (v Value) Lane(i int) Value {
	l := v.lane(i)
	return scalar(v.Kind, l.i, l.f)
}

// Bool reports the C truthiness of a scalar value.
func (v Value) Bool() bool {
	if v.Ptr != nil {
		return true
	}
	if v.Kind.IsFloat() {
		return v.f != 0
	}
	return v.i != 0
}

// Int returns the integer interpretation of lane 0.
func (v Value) Int() int64 {
	if v.Kind.IsFloat() {
		return int64(clampToInt64(v.f))
	}
	return v.i
}

// Float returns the floating-point interpretation of lane 0.
func (v Value) Float() float64 {
	if v.Kind.IsFloat() {
		return v.f
	}
	return float64(v.i)
}

// String renders the value for diagnostics.
func (v Value) String() string {
	if v.Ptr != nil {
		return fmt.Sprintf("ptr(%s+%d)", v.Ptr.Elem, v.Ptr.Off)
	}
	if v.Width <= 1 {
		if v.Kind.IsFloat() {
			return fmt.Sprintf("%g", v.f)
		}
		return fmt.Sprintf("%d", v.i)
	}
	s := fmt.Sprintf("%s%d(", v.Kind, v.Width)
	for i := 0; i < v.Width; i++ {
		if i > 0 {
			s += ", "
		}
		if l := v.lane(i); v.Kind.IsFloat() {
			s += fmt.Sprintf("%g", l.f)
		} else {
			s += fmt.Sprintf("%d", l.i)
		}
	}
	return s + ")"
}

// truncInt wraps v to the width and signedness of kind, mirroring C's
// modular integer conversions.
func truncInt(kind clc.ScalarKind, v int64) int64 {
	switch kind {
	case clc.Bool:
		if v != 0 {
			return 1
		}
		return 0
	case clc.Char:
		return int64(int8(v))
	case clc.UChar:
		return int64(uint8(v))
	case clc.Short:
		return int64(int16(v))
	case clc.UShort:
		return int64(uint16(v))
	case clc.Int:
		return int64(int32(v))
	case clc.UInt:
		return int64(uint32(v))
	}
	return v // long, ulong (kept as the raw 64-bit pattern)
}

func clampToInt64(f float64) float64 {
	if math.IsNaN(f) {
		return 0
	}
	if f > math.MaxInt64 {
		return math.MaxInt64
	}
	if f < math.MinInt64 {
		return math.MinInt64
	}
	return f
}

// convertLane converts one lane of a value of v's kind (v.Ptr included) to
// the given scalar kind.
func convertLane(l lane, v Value, kind clc.ScalarKind) lane {
	var s Value
	switch {
	case v.Ptr != nil:
		// Pointer-to-integer conversion: use the offset as the address.
		s = IntValue(kind, v.Ptr.Off)
	case kind.IsFloat():
		f := l.f
		if !v.Kind.IsFloat() {
			f = float64(l.i)
		}
		s = FloatValue(kind, f)
	case v.Kind.IsFloat():
		s = IntValue(kind, int64(clampToInt64(l.f)))
	default:
		s = IntValue(kind, l.i)
	}
	return lane{s.i, s.f}
}

// ConvertScalar converts lane 0 of v to the given scalar kind.
func ConvertScalar(v Value, kind clc.ScalarKind) Value {
	l := convertLane(lane{v.i, v.f}, v, kind)
	return scalar(kind, l.i, l.f)
}

// Convert converts v to an arbitrary scalar or vector type, applying
// OpenCL's widening (splat) rule for scalar-to-vector conversions and
// lane-wise conversion for vector-to-vector of equal width.
func Convert(v Value, t clc.Type) (Value, error) { return convert(nil, v, t) }

// convert is Convert with the result's lanes from ar.
func convert(ar *arena, v Value, t clc.Type) (Value, error) {
	switch tt := t.(type) {
	case *clc.ScalarType:
		// A vector narrowed to a scalar keeps lane 0 (used by casts only).
		return ConvertScalar(v, tt.Kind), nil
	case *clc.VectorType:
		if v.Width <= 1 {
			return splat(ar, v, tt.Elem, tt.Len), nil
		}
		if v.Width != tt.Len {
			return Value{}, fmt.Errorf("cannot convert %d-wide vector to %s", v.Width, t)
		}
		return makeValue(ar, tt.Elem, tt.Len, func(l int) lane { return convertLane(v.lane(l), v, tt.Elem) }), nil
	case *clc.PointerType:
		if v.Ptr != nil {
			// Pointer cast: reinterpret the pointee type.
			return PtrValue(&Pointer{Buf: v.Ptr.Buf, Off: v.Ptr.Off, Elem: tt.Elem}), nil
		}
		if !v.Bool() {
			return Value{}, nil // NULL
		}
		return Value{}, fmt.Errorf("cannot convert %s to pointer", v)
	}
	return Value{}, fmt.Errorf("unsupported conversion to %s", t)
}

// ZeroValue returns the zero value of a type.
func ZeroValue(t clc.Type) Value {
	switch tt := t.(type) {
	case *clc.ScalarType:
		return scalar(tt.Kind, 0, 0)
	case *clc.VectorType:
		return Value{Kind: tt.Elem, Width: tt.Len}
	}
	return Value{}
}

// scalarSlots returns how many scalar slots a type occupies in a buffer.
func scalarSlots(t clc.Type) int64 {
	switch tt := t.(type) {
	case *clc.VectorType:
		return int64(tt.Len)
	case *clc.ArrayType:
		return int64(tt.Len) * scalarSlots(tt.Elem)
	case *clc.StructType:
		var n int64
		for _, f := range tt.Fields {
			n += scalarSlots(f.Type)
		}
		return n
	}
	return 1
}

// load reads a value of type t at slot off of b, a vector's lanes from ar.
func load(ar *arena, b *Buffer, off int64, t clc.Type) (Value, error) {
	switch tt := t.(type) {
	case *clc.ScalarType:
		i, f, err := b.loadScalar(off)
		if err != nil {
			return Value{}, err
		}
		if tt.Kind.IsFloat() {
			return FloatValue(tt.Kind, f), nil
		}
		return IntValue(tt.Kind, i), nil
	case *clc.VectorType:
		ls := ar.alloc(tt.Len)
		src := Value{Kind: b.Kind, Width: 1}
		for l := range ls {
			i, f, err := b.loadScalar(off + int64(l))
			if err != nil {
				return Value{}, err
			}
			ls[l] = convertLane(lane{i, f}, src, tt.Elem)
		}
		return vector(tt.Elem, ls), nil
	}
	return Value{}, fmt.Errorf("cannot load %s from memory", t)
}

// store writes v (of type t) at slot off of b. Each lane is converted to
// t's kind, as Convert would, then to the buffer's kind; a scalar stored
// as a vector is splat.
func store(b *Buffer, off int64, v Value, t clc.Type) error {
	switch tt := t.(type) {
	case *clc.ScalarType:
		c := ConvertScalar(v, tt.Kind)
		l := convertLane(lane{c.i, c.f}, c, b.Kind)
		return b.storeScalar(off, l.i, l.f)
	case *clc.VectorType:
		if v.Width > 1 && v.Width != tt.Len {
			return fmt.Errorf("cannot convert %d-wide vector to %s", v.Width, t)
		}
		elem := Value{Kind: tt.Elem}
		for l := 0; l < tt.Len; l++ {
			src := l
			if v.Width <= 1 {
				src = 0
			}
			c := convertLane(convertLane(v.lane(src), v, tt.Elem), elem, b.Kind)
			if err := b.storeScalar(off+int64(l), c.i, c.f); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("cannot store %s to memory", t)
}
