package interp

import "clgen/internal/clc"

// NewUntypedEnv is NewEnv with every function running the plain body its
// entry guards fall back to, compiled with no variable or parameter kinds.
// It is the differential oracle of the typed compilation.
func NewUntypedEnv(f *clc.File) (*Env, error) {
	env, err := NewEnv(f)
	if err != nil {
		return nil, err
	}
	for name, fn := range env.funcs {
		env.funcs[name] = fn.plain()
	}
	return env, nil
}

// NewGoroutineEnv is NewEnv with every barrier kernel running one
// goroutine per work-item, compiled with no statement that parks. It is the
// differential oracle of parking work-items.
func NewGoroutineEnv(f *clc.File) (*Env, error) { return newEnv(f, false) }

// Parks reports whether the work-items of kernel name park at barriers by
// returning.
func (env *Env) Parks(name string) bool { return env.funcs[name].parks != nil }

// ArenaLanes is the capacity of a work-item's lane arena.
const ArenaLanes = arenaLanes
