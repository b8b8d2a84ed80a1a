// Footprint-aware payload sizing (-footprint-sizing): the §5.1 rules
// allocate exactly Sg elements per global buffer, so a semantically fine
// kernel that strides past gid (a[2*gid]) is doomed to an out-of-bounds
// crash. When the symbolic footprint analysis (internal/analysis) proves
// a finite upper extent, the driver can allocate max(Sg, extent+1)
// elements instead and rescue the kernel; unknown bounds fall back to
// §5.1 sizing unchanged. The mode is a process-global switch that the
// binaries' -footprint-sizing flag sets through SetFootprintSizing,
// mirroring -precise-features.
package driver

import (
	"fmt"
	"strings"
	"sync/atomic"

	"clgen/internal/analysis"
	"clgen/internal/clc"
	"clgen/internal/journal"
)

var footprintSizing atomic.Bool

// SetFootprintSizing flips footprint-aware payload sizing process-wide.
func SetFootprintSizing(on bool) { footprintSizing.Store(on) }

// FootprintSizingEnabled reports whether -footprint-sizing is active.
func FootprintSizingEnabled() bool { return footprintSizing.Load() }

// maxFootprintSlots caps a proven extent the driver is willing to
// allocate (per buffer, in elements). Beyond it — a pathological but
// provable bound — the §5.1 size is kept and the kernel crashes as it
// would have anyway.
const maxFootprintSlots = 1 << 24

// Footprints returns the kernel's per-pointer-argument footprints from
// the cached analysis report, in parameter order.
func (k *Kernel) Footprints() []analysis.ArgFootprint {
	return k.Analysis().Footprints[k.Name]
}

func (k *Kernel) footprintOf(arg int) *analysis.ArgFootprint {
	fps := k.Footprints()
	for i := range fps {
		if fps[i].Arg == arg {
			return &fps[i]
		}
	}
	return nil
}

// footprintElems decides pointer argument arg's element count at a
// global size: max(globalSize, proven extent+1) under -footprint-sizing,
// the §5.1 count otherwise. resized reports a beyond-§5.1 allocation.
func (k *Kernel) footprintElems(arg, globalSize int) (elems int, resized bool) {
	if !footprintSizing.Load() {
		return globalSize, false
	}
	f := k.footprintOf(arg)
	if f == nil || !f.Accessed {
		return globalSize, false
	}
	hi, ok := f.MaxElem(int64(globalSize))
	if !ok || hi < int64(globalSize) || hi+1 > maxFootprintSlots {
		return globalSize, false
	}
	return int(hi) + 1, true
}

// footprintResized reports whether any global/constant buffer of the
// kernel grows beyond the §5.1 extent at this size.
func (k *Kernel) footprintResized(globalSize int) bool {
	for i, prm := range k.Decl.Params {
		t, ok := prm.Type.(*clc.PointerType)
		if !ok || t.Space == clc.Local {
			continue
		}
		if _, resized := k.footprintElems(i, globalSize); resized {
			return true
		}
	}
	return false
}

// footprintKeyPart stamps the footprint-sizing decision into the check
// memo key: the allocation depends on the proven extents, so a cached
// verdict must not be replayed across a flag flip or an extent change.
func (k *Kernel) footprintKeyPart(globalSize int) string {
	if !footprintSizing.Load() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(",footprint=")
	for i, f := range k.Footprints() {
		if i > 0 {
			sb.WriteByte(';')
		}
		elems, _ := k.footprintElems(f.Arg, globalSize)
		fmt.Fprintf(&sb, "%d:%s:%d", f.Arg, f.String(), elems)
	}
	return sb.String()
}

// footprintEvent renders the kernel's footprints as a journal event,
// resolved at the reference size Sg=256 (fixed so the event is
// independent of which check size happens to run first).
func footprintEvent(k *Kernel) journal.Event {
	const refSize = 256
	ev := journal.Event{ID: journal.ID(k.Src), Stage: journal.StageFootprint, Size: refSize}
	for i, prm := range k.Decl.Params {
		t, ok := prm.Type.(*clc.PointerType)
		if !ok {
			continue
		}
		f := k.footprintOf(i)
		if f == nil {
			continue
		}
		a := journal.FootprintArg{
			Arg: i, Name: prm.Name, Min: f.MinExpr(), Max: f.MaxExpr(),
			Known: f.Known(), Overrun: f.Overrun, Written: f.Written,
		}
		if hi, ok := f.MaxElem(refSize); ok {
			a.Hi = hi
		} else {
			a.Hi = -2
		}
		elems := refSize
		if t.Space == clc.Local {
			elems = DefaultLocalSize
		} else {
			elems, a.Resized = k.footprintElems(i, refSize)
		}
		a.Elems = int64(elems)
		a.Bytes = int64(elems) * int64(slotsPerElem(t.Elem)) * int64(kindBytes(elemScalarKind(t.Elem)))
		ev.Footprint = append(ev.Footprint, a)
	}
	return ev
}

// footprintRescuable reports whether a static run-failure forecast may
// be invalidated by footprint sizing: oob-index and buffer-overrun
// reason about the §5.1 extent, which resizing changes, so their
// predictions must not short-circuit the dynamic checker when the
// payload they reasoned about is not the payload the driver builds.
func footprintRescuable(lint string) bool {
	return lint == "oob-index" || lint == "buffer-overrun"
}
