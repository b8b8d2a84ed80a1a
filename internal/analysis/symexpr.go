package analysis

import "sort"

// This file implements the symbolic-affine domain of the footprint
// analysis (footprint.go): expressions of the form
//
//	c + c_gid*gid + c_lid*lid + c_G*G + sum(c_i * param_i)
//
// over the §5.1 driver's symbolic inputs — get_global_id(0),
// get_local_id(0), G (the global work size, which is also
// get_global_size(0) and the value of every integral scalar argument),
// and the enclosing function's own integer scalar parameters. Parameter
// terms only arise inside non-kernel callees, where the incoming value
// is unknown until a call site substitutes the caller's actuals; in
// kernels the interval analysis already pins scalar parameters to G and
// the fallback path folds them into the G coefficient.
//
// Soundness direction matches interval.go: resolveSym over-approximates
// the value range for every G >= 1, while the attainment flag carried by
// symIval under-approximates ("the executing work item really computes
// this endpoint"), which the buffer-overrun lint needs before it may
// forecast a definite crash.

// symLimit caps coefficient magnitudes; beyond it expressions degrade to
// unknown rather than risking overflow, mirroring bndLimit.
const symLimit = bndLimit

// symExpr is one affine expression. ok=false is the unknown element.
type symExpr struct {
	ok  bool
	c   int64
	gid int64
	lid int64
	gsz int64
	// prm maps parameter index (enclosing function's param order) to its
	// coefficient; nil when no parameter terms. Entries are never zero.
	prm map[int]int64
}

func symConst(c int64) symExpr { return symExpr{ok: true, c: c} }
func symGid() symExpr          { return symExpr{ok: true, gid: 1} }
func symLid() symExpr          { return symExpr{ok: true, lid: 1} }

func symParam(idx int) symExpr {
	return symExpr{ok: true, prm: map[int]int64{idx: 1}}
}

// symFromBnd lifts an interval endpoint a*G+b into the symbolic domain.
func symFromBnd(x bnd) symExpr {
	if x.inf != 0 {
		return symExpr{}
	}
	return symExpr{ok: true, c: x.b, gsz: x.a}
}

func symTooBig(c int64) bool { return c > symLimit || c < -symLimit }

func (e symExpr) valid() bool {
	if !e.ok {
		return false
	}
	if symTooBig(e.c) || symTooBig(e.gid) || symTooBig(e.lid) || symTooBig(e.gsz) {
		return false
	}
	for _, c := range e.prm {
		if symTooBig(c) {
			return false
		}
	}
	return true
}

func addSym(a, b symExpr) symExpr {
	if !a.ok || !b.ok {
		return symExpr{}
	}
	r := symExpr{ok: true, c: a.c + b.c, gid: a.gid + b.gid, lid: a.lid + b.lid, gsz: a.gsz + b.gsz}
	if len(a.prm) > 0 || len(b.prm) > 0 {
		r.prm = make(map[int]int64, len(a.prm)+len(b.prm))
		for i, c := range a.prm {
			r.prm[i] = c
		}
		for i, c := range b.prm {
			if s := r.prm[i] + c; s != 0 {
				r.prm[i] = s
			} else {
				delete(r.prm, i)
			}
		}
		if len(r.prm) == 0 {
			r.prm = nil
		}
	}
	if !r.valid() {
		return symExpr{}
	}
	return r
}

func scaleSym(a symExpr, c int64) symExpr {
	if !a.ok {
		return symExpr{}
	}
	if c == 0 {
		return symConst(0)
	}
	r := symExpr{ok: true, c: a.c * c, gid: a.gid * c, lid: a.lid * c, gsz: a.gsz * c}
	if len(a.prm) > 0 {
		r.prm = make(map[int]int64, len(a.prm))
		for i, k := range a.prm {
			r.prm[i] = k * c
		}
	}
	if !r.valid() {
		return symExpr{}
	}
	return r
}

// symEq is structural equality (same affine function).
func symEq(a, b symExpr) bool {
	if a.ok != b.ok {
		return false
	}
	if !a.ok {
		return true
	}
	if a.c != b.c || a.gid != b.gid || a.lid != b.lid || a.gsz != b.gsz || len(a.prm) != len(b.prm) {
		return false
	}
	for i, c := range a.prm {
		if b.prm[i] != c {
			return false
		}
	}
	return true
}

// resolveSym evaluates an expression under the §5.1 model — gid and lid
// range over [0, G-1] (L <= G makes G-1 a sound lid bound), scalar
// parameters and get_global_size(0) equal G — and returns the value range
// as interval endpoints affine in G, valid for every G >= 1.
func resolveSym(e symExpr) (lo, hi bnd, ok bool) {
	if !e.ok {
		return bnd{}, bnd{}, false
	}
	uniform := e.gsz
	for _, c := range e.prm {
		uniform += c
		if symTooBig(uniform) {
			return bnd{}, bnd{}, false
		}
	}
	lo = bAff(uniform, e.c)
	hi = lo
	for _, c := range [2]int64{e.gid, e.lid} {
		// c*id with id in [0, G-1] spans [min(0, c*(G-1)), max(0, c*(G-1))].
		if c > 0 {
			hi = addB(hi, bAff(c, -c))
		} else if c < 0 {
			lo = addB(lo, bAff(c, -c))
		}
	}
	if symTooBig(lo.a) || symTooBig(lo.b) || symTooBig(hi.a) || symTooBig(hi.b) {
		return bnd{}, bnd{}, false
	}
	return lo, hi, true
}

// symIval bounds one access's element offset per executing work item:
// the offset lies in [lo(gid,...), hi(gid,...)]. att additionally claims
// the work item really touches both endpoints (an exactly-decomposed
// index, or a dense vloadN/vstoreN span) — the under-approximation the
// buffer-overrun lint needs to turn "may exceed" into "will exceed".
type symIval struct {
	ok     bool
	lo, hi symExpr
	att    bool
}

func symPoint(e symExpr) symIval {
	if !e.ok {
		return symIval{}
	}
	return symIval{ok: true, lo: e, hi: e, att: true}
}

func (x symIval) isPoint() bool { return x.ok && symEq(x.lo, x.hi) }

// symIvalFromIval converts an interval-analysis result (endpoints affine
// in G) into the symbolic domain; infinite endpoints yield unknown.
func symIvalFromIval(iv ival) symIval {
	lo, hi := symFromBnd(iv.lo), symFromBnd(iv.hi)
	if !lo.ok || !hi.ok {
		return symIval{}
	}
	return symIval{ok: true, lo: lo, hi: hi, att: iv.isPoint()}
}

func addSymIval(x, y symIval) symIval {
	if !x.ok || !y.ok {
		return symIval{}
	}
	r := symIval{ok: true, lo: addSym(x.lo, y.lo), hi: addSym(x.hi, y.hi)}
	if !r.lo.ok || !r.hi.ok {
		return symIval{}
	}
	// Attainment survives addition only when at most one operand is a
	// proper range: two ranges need not reach their extremes together.
	r.att = x.att && y.att && (x.isPoint() || y.isPoint())
	return r
}

func scaleSymIval(x symIval, c int64) symIval {
	if !x.ok {
		return symIval{}
	}
	var r symIval
	if c >= 0 {
		r = symIval{ok: true, lo: scaleSym(x.lo, c), hi: scaleSym(x.hi, c), att: x.att}
	} else {
		r = symIval{ok: true, lo: scaleSym(x.hi, c), hi: scaleSym(x.lo, c), att: x.att}
	}
	if !r.lo.ok || !r.hi.ok {
		return symIval{}
	}
	return r
}

// substSym rewrites a callee-local expression into caller terms: each
// parameter coefficient multiplies the caller-side value of the actual
// argument; gid/lid/G terms describe the same work item in caller and
// callee and pass through unchanged. A parameter with no known actual
// makes the result unknown.
func substSym(e symExpr, scal map[int]symIval) symIval {
	if !e.ok {
		return symIval{}
	}
	base := e
	base.prm = nil
	r := symPoint(base)
	idxs := make([]int, 0, len(e.prm))
	for i := range e.prm {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		a, ok := scal[i]
		if !ok {
			return symIval{}
		}
		r = addSymIval(r, scaleSymIval(a, e.prm[i]))
		if !r.ok {
			return symIval{}
		}
	}
	return r
}

// substSymIval rewrites a callee-local offset range into caller terms.
func substSymIval(x symIval, scal map[int]symIval) symIval {
	if !x.ok {
		return symIval{}
	}
	lo, hi := substSym(x.lo, scal), substSym(x.hi, scal)
	if !lo.ok || !hi.ok {
		return symIval{}
	}
	return symIval{ok: true, lo: lo.lo, hi: hi.hi, att: x.att && lo.att && hi.att}
}
