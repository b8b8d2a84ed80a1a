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
// deterministic lockstep phases instead (one goroutine per work-item,
// resumed round-robin), so barrier semantics hold without data races.
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
	c.prof, c.budget, c.locals = l.prof, &l.budget, l.locals
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
	var err error
	l.localIter(func(lid [3]int64) {
		if err != nil {
			return
		}
		l.bind(c, grp, lid)
		l.prof.WorkItems++
		_, err = c.call(l.kernel, l.args)
	})
	return err
}

// lockstep execution: one goroutine per work-item of the group, resumed in
// local-id order between barrier phases. The goroutines serve every group
// of the launch in turn, keeping their grown stacks, until stop.
type wiReport struct {
	barrier bool
	err     error
}

type wiHandle struct {
	c      wiCtx
	resume chan struct{}
	report chan wiReport
	done   bool
}

// startWorkItem starts a goroutine that runs the kernel for one
// work-item each time it is resumed at the start of a group.
func (l *launch) startWorkItem() *wiHandle {
	h := &wiHandle{resume: make(chan struct{}), report: make(chan wiReport)}
	h.c.cancel = &l.cancel
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
		close(h.resume)
	}
}

func (l *launch) runGroupLockstep(grp [3]int64) error {
	l.cancel = false
	n := 0
	l.localIter(func(lid [3]int64) {
		if n == len(l.items) {
			l.items = append(l.items, l.startWorkItem())
		}
		h := l.items[n]
		n++
		h.done = false
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
			h.resume <- struct{}{}
			r := <-h.report
			if r.err != nil && r.err != errCancelled && firstErr == nil {
				firstErr = r.err
				l.cancel = true
			}
			if r.barrier {
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
