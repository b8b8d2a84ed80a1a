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
