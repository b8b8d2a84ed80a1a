package interp_test

import (
	"errors"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/interp"
)

// TestRecycledStorageIsZeroed releases buffers full of non-zero slots and
// makes new ones of the same kind and length until one recycles released
// storage. Every new buffer must read as zero, and a clone on recycled
// storage must equal its original.
func TestRecycledStorageIsZeroed(t *testing.T) {
	const n, tries = 96, 200
	for _, kind := range []clc.ScalarKind{clc.Float, clc.Int} {
		recycled := 0
		for try := 0; try < tries && recycled < 3; try++ {
			old := interp.NewBuffer(kind, n, clc.Global)
			for i := 0; i < n; i++ {
				if kind.IsFloat() {
					old.F[i] = float64(i) + 0.5
				} else {
					old.I[i] = int64(i) + 1
				}
			}
			c := old.Clone()
			if !c.Equal(old, 0) {
				t.Fatalf("%s: clone differs from its original", kind)
			}
			released := map[any]bool{first(old): true, first(c): true}
			old.Release()
			c.Release()
			if old.Len() != 0 || old.F != nil || old.I != nil {
				t.Fatalf("%s: released buffer still has %d slots", kind, old.Len())
			}
			b := interp.NewBuffer(kind, n, clc.Global)
			if released[first(b)] {
				recycled++
			}
			for i := 0; i < n; i++ {
				if b.F != nil && b.F[i] != 0 || b.I != nil && b.I[i] != 0 {
					t.Fatalf("%s: new buffer slot %d is not zero", kind, i)
				}
			}
			b.Release()
		}
		if recycled == 0 {
			t.Errorf("%s: no new buffer recycled released storage in %d tries", kind, tries)
		}
	}
}

// first is the address of b's first slot.
func first(b *interp.Buffer) any {
	if b.F != nil {
		return &b.F[0]
	}
	return &b.I[0]
}

// TestReleasedBufferFaults launches a kernel on a released buffer: the
// stale reference reads as a buffer of no slots, so the store faults
// instead of writing into storage another buffer may hold.
func TestReleasedBufferFaults(t *testing.T) {
	env := parseEnv(t, `__kernel void A(__global float* a) { a[get_global_id(0)] = 1.0f; }`)
	a := interp.NewBuffer(clc.Float, 8, clc.Global)
	a.Release()
	args := []interp.Value{interp.PtrValue(&interp.Pointer{Buf: a, Elem: clc.TypeFloat})}
	_, err := env.Run("A", args, interp.RunConfig{GlobalSize: [3]int{8, 1, 1}})
	var mf *interp.MemFault
	if !errors.As(err, &mf) || mf.Len != 0 || !mf.Write {
		t.Errorf("err = %v, want a write fault on a buffer of 0 slots", err)
	}
}
