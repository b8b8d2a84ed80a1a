package interp

import (
	"fmt"
	"sync"

	"clgen/internal/clc"
)

// Run launches the named kernel over the NDRange described by cfg.
//
// Arguments correspond positionally to the kernel's parameters: pointer
// parameters take PtrValue arguments backed by Buffers (the caller's
// "device memory"), value parameters take scalar/vector Values. __local
// pointer parameters take a PtrValue whose Buffer acts as a size template:
// each work-group receives its own zeroed copy.
//
// Work-groups execute one after another. Within a group, work-items run
// sequentially; kernels whose call graph can reach barrier() run in
// deterministic lockstep phases instead, each work-item in local-id order
// up to its next barrier, so barrier semantics hold without data races.
//
// Arguments are bound once per launch. The entry guards choose the
// kernel's typed or plain body, and each argument is converted to its
// parameter's type into a frame image. Every work-item starts on a copy
// of the image, and each group first refreshes its __local pointer slots.
func (env *Env) Run(name string, args []Value, cfg RunConfig) (*Profile, error) {
	fd, err := env.Kernel(name)
	if err != nil {
		return nil, err
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(args) != len(fd.Params) {
		return nil, fmt.Errorf("interp: kernel %q takes %d arguments, got %d", name, len(fd.Params), len(args))
	}
	// Identify __local pointer parameters (per-group allocation).
	var localArgs []int
	for i, p := range fd.Params {
		pt, ok := p.Type.(*clc.PointerType)
		if !ok {
			continue
		}
		if pt.Space == clc.Local {
			if !args[i].IsPointer() {
				return nil, fmt.Errorf("interp: kernel %q parameter %d (__local) needs a buffer template", name, i)
			}
			localArgs = append(localArgs, i)
		} else if !args[i].IsPointer() {
			return nil, fmt.Errorf("interp: kernel %q parameter %d needs a buffer argument", name, i)
		}
	}

	fn := env.funcs[name]
	if !fn.admits(args) {
		fn = fn.plain()
	}
	l := borrowLaunch(fn, len(env.locals))
	defer l.release()
	l.prof, l.budget = &Profile{}, cfg.MaxSteps
	l.bindErr = bindParams(nil, fd, args, l.image)
	for d := 0; d < 3; d++ {
		l.gsize[d] = int64(cfg.GlobalSize[d])
		l.lsize[d] = int64(cfg.LocalSize[d])
		l.ngrp[d] = l.gsize[d] / l.lsize[d]
	}
	lockstep := env.usesBarrier[name]
	for gz := int64(0); gz < l.ngrp[2]; gz++ {
		for gy := int64(0); gy < l.ngrp[1]; gy++ {
			for gx := int64(0); gx < l.ngrp[0]; gx++ {
				for _, i := range localArgs {
					t := args[i].Ptr
					buf := newBuffer(t.Buf.Kind, t.Buf.Len(), clc.Local)
					l.image[i] = slot{val: PtrValue(&Pointer{Buf: buf, Elem: t.Elem})}
				}
				clear(l.locals)
				grp := [3]int64{gx, gy, gz}
				if lockstep {
					err = l.runGroupLockstep(grp)
				} else {
					err = l.runGroupSequential(grp)
				}
				if err != nil {
					l.prof.Steps = cfg.MaxSteps - l.budget
					return l.prof, err
				}
			}
		}
	}
	l.prof.Steps = cfg.MaxSteps - l.budget
	return l.prof, nil
}

// launch is the state of one NDRange launch shared by its work-items.
type launch struct {
	fn     *function // the kernel body its arguments' guards chose
	park   bool      // its work-items park at barriers by returning
	prof   *Profile
	budget int64
	// image is the frame every work-item's kernel starts on: the current
	// group's arguments bound, every other slot zero. bindErr is the
	// binding's failure, which each work-item raises on entry instead.
	image              []slot
	bindErr            error
	locals             []*Pointer // the current group's __local arrays
	gsize, lsize, ngrp [3]int64
	seq                *wiCtx      // the sequential path's one context
	items              []*wiHandle // the lockstep path's work-items
	cancel             bool        // a lockstep work-item of the group failed
}

// launches recycles launches: the storage of their frame image and
// __local table, the sequential path's context with its frames and lane
// arena, and parking work-items with their frames. A launch then
// allocates little but its Profile.
var launches = sync.Pool{New: func() any { return new(launch) }}

// borrowLaunch takes a launch of fn from launches, its frame image of
// fn.nslots zero slots and its table of nlocals __local arrays empty.
// Work-item goroutines are made for each launch, so a launch whose
// work-items do not park keeps no work-items of an earlier one.
func borrowLaunch(fn *function, nlocals int) *launch {
	l := launches.Get().(*launch)
	l.fn, l.park = fn, fn.parks != nil
	l.image = resize(l.image, fn.nslots)
	l.locals = resize(l.locals, nlocals)
	if !l.park {
		l.items = nil
	}
	return l
}

// resize returns s with length n, reusing its storage when it is long
// enough. Elements past the old length read as whatever was there, so the
// storage must be cleared before it is recycled.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release ends the launch's work-item goroutines, all idle between
// groups, and hands the launch back to launches with every value its
// image, __local table and contexts hold cleared, so that a recycled
// launch keeps nothing of this one alive and reads as a new one.
func (l *launch) release() {
	for _, h := range l.items {
		if h.resume != nil {
			close(h.resume)
		}
	}
	if !l.park {
		l.items = nil
	}
	for _, h := range l.items {
		h.c.forget()
	}
	if l.seq != nil {
		l.seq.forget()
	}
	clear(l.image[:cap(l.image)])
	clear(l.locals[:cap(l.locals)])
	*l = launch{image: l.image[:0], locals: l.locals[:0], seq: l.seq, items: l.items}
	launches.Put(l)
}

// enter runs the kernel as work-item c: on a copy of the frame image or,
// resuming at a barrier, in the frame it parked in. The work-item's lane
// arena starts empty.
func (l *launch) enter(c *wiCtx) (ctrl, error) {
	if l.bindErr != nil {
		return ctrlNone, l.bindErr
	}
	c.arena.reset()
	return c.enter(l.fn, nil, l.image)
}

// bind points c at work-item lid of group grp.
func (l *launch) bind(c *wiCtx, grp, lid [3]int64) {
	c.prof, c.locals = l.prof, l.locals
	c.ids = [6][3]int64{{}, lid, grp, l.gsize, l.lsize, l.ngrp}
	for d := 0; d < 3; d++ {
		c.ids[0][d] = grp[d]*l.lsize[d] + lid[d]
	}
}

// localIter invokes fn for every local id of a group, x-fastest.
func (l *launch) localIter(fn func(lid [3]int64)) {
	for lz := int64(0); lz < l.lsize[2]; lz++ {
		for ly := int64(0); ly < l.lsize[1]; ly++ {
			for lx := int64(0); lx < l.lsize[0]; lx++ {
				fn([3]int64{lx, ly, lz})
			}
		}
	}
}

func (l *launch) runGroupSequential(grp [3]int64) error {
	if l.seq == nil {
		l.seq = &wiCtx{arena: new(arena)}
	}
	c := l.seq
	c.budget = l.budget
	var err error
	l.localIter(func(lid [3]int64) {
		if err != nil {
			return
		}
		l.bind(c, grp, lid)
		l.prof.WorkItems++
		_, err = l.enter(c)
	})
	l.budget = c.budget
	return err
}

// Lockstep execution runs a group in phases: each runs every work-item
// that has not finished, in local-id order, until it reaches a barrier or
// finishes. A work-item of a kernel Env.barrierPath accepts parks at a
// barrier by returning from the body and resumes by re-entering it
// (exec.go); any other barrier kernel's work-item is a goroutine, resumed
// through channels. The work-items serve every group of the launch in
// turn, keeping their frames (goroutines, their grown stacks) until stop.
type wiReport struct {
	barrier bool
	err     error
}

type wiHandle struct {
	c       wiCtx
	entered bool // a parking item ran its first phase of the group
	done    bool
	// resume and report hand a work-item goroutine off; nil when it parks.
	resume chan struct{}
	report chan wiReport
}

// newWorkItem makes a work-item, starting its goroutine unless it parks.
// The goroutine runs the kernel each time it is resumed at the start of
// a group.
func (l *launch) newWorkItem() *wiHandle {
	h := &wiHandle{}
	if l.park {
		return h
	}
	h.resume, h.report = make(chan struct{}), make(chan wiReport)
	h.c.yield = func() error {
		h.report <- wiReport{barrier: true}
		<-h.resume
		if l.cancel {
			return errCancelled
		}
		return nil
	}
	go func() {
		for range h.resume {
			var err error
			if !l.cancel {
				_, err = l.enter(&h.c)
			}
			h.report <- wiReport{err: err}
		}
	}()
	return h
}

// phase runs h until it reaches a barrier or finishes, lending it the
// launch's budget. Once an item of the group failed, the others stop.
func (l *launch) phase(h *wiHandle) (barrier bool, err error) {
	h.c.budget = l.budget
	if h.resume != nil {
		h.resume <- struct{}{}
		r := <-h.report
		barrier, err = r.barrier, r.err
	} else if !l.cancel {
		h.c.resuming, h.entered = h.entered, true
		var ct ctrl
		ct, err = l.enter(&h.c)
		barrier = ct == ctrlBarrier
	}
	l.budget = h.c.budget
	return barrier, err
}

func (l *launch) runGroupLockstep(grp [3]int64) error {
	l.cancel = false
	n := 0
	l.localIter(func(lid [3]int64) {
		if n == len(l.items) {
			l.items = append(l.items, l.newWorkItem())
		}
		h := l.items[n]
		n++
		h.entered, h.done = false, false
		l.bind(&h.c, grp, lid)
		l.prof.WorkItems++
	})

	var firstErr error
	live := n
	for live > 0 {
		barriers, finished := 0, 0
		for _, h := range l.items[:n] {
			if h.done {
				continue
			}
			barrier, err := l.phase(h)
			if err != nil && err != errCancelled && firstErr == nil {
				firstErr = err
				l.cancel = true
			}
			if barrier {
				barriers++
			} else {
				h.done = true
				finished++
				live--
			}
		}
		if firstErr == nil && barriers > 0 && finished > 0 {
			firstErr = ErrBarrierDivergence
			l.cancel = true
		}
	}
	return firstErr
}
