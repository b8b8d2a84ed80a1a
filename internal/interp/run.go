package interp

import (
	"fmt"

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

	l := &launch{
		kernel: env.funcs[name],
		park:   env.funcs[name].parks != nil,
		prof:   &Profile{},
		budget: cfg.MaxSteps,
		args:   append([]Value(nil), args...),
		locals: make([]*Pointer, len(env.locals)),
	}
	for d := 0; d < 3; d++ {
		l.gsize[d] = int64(cfg.GlobalSize[d])
		l.lsize[d] = int64(cfg.LocalSize[d])
		l.ngrp[d] = l.gsize[d] / l.lsize[d]
	}
	lockstep := env.usesBarrier[name]
	defer l.stop()
	for gz := int64(0); gz < l.ngrp[2]; gz++ {
		for gy := int64(0); gy < l.ngrp[1]; gy++ {
			for gx := int64(0); gx < l.ngrp[0]; gx++ {
				for _, i := range localArgs {
					t := args[i].Ptr
					buf := NewBuffer(t.Buf.Kind, t.Buf.Len(), clc.Local)
					l.args[i] = PtrValue(&Pointer{Buf: buf, Elem: t.Elem})
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
	kernel             *function
	park               bool // its work-items park at barriers by returning
	prof               *Profile
	budget             int64
	args               []Value    // the current group's arguments
	locals             []*Pointer // the current group's __local arrays
	gsize, lsize, ngrp [3]int64
	seq                *wiCtx      // the sequential path's one context
	items              []*wiHandle // the lockstep path's work-items
	cancel             bool        // a lockstep work-item of the group failed
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
		l.seq = &wiCtx{}
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
		_, err = c.call(l.kernel, l.args)
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
	c    wiCtx
	fn   *function // the body a parking item's first phase chose, or nil
	done bool
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
				_, err = h.c.call(l.kernel, l.args)
			}
			h.report <- wiReport{err: err}
		}
	}()
	return h
}

// stop ends the lockstep goroutines, all idle between groups.
func (l *launch) stop() {
	for _, h := range l.items {
		if h.resume != nil {
			close(h.resume)
		}
	}
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
		if h.fn == nil {
			if h.fn = l.kernel; !h.fn.admits(l.args) {
				h.fn = h.fn.plain()
			}
		} else {
			h.c.resuming = true
		}
		var ct ctrl
		ct, err = h.c.enter(h.fn, l.args)
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
		h.fn, h.done = nil, false
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
