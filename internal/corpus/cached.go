// Content-addressed memoization of the corpus pipeline's pure stages
// (internal/cache). Two computations are cached here:
//
//   - the whole per-file §4.1 stage (both rejection-filter passes, shim
//     stripping, kernel-unit splitting, rewriting) keyed by file content,
//     and
//   - rejection-filter verdicts keyed by (content, FilterOpts), shared by
//     sample synthesis and the Figure 9 top-up.
//
// Cached values are serializable mirrors of the live results with every
// mutable structure (ASTs, identifier maps) reduced to plain data, so a
// cache hit can never alias state a consumer mutates. Versions compose
// the stamps of every computation the stage depends on — bumping the
// analyzer, rewriter, or IR lowering invalidates persistent entries.
package corpus

import (
	"errors"
	"fmt"
	"time"

	"clgen/internal/analysis"
	"clgen/internal/cache"
	"clgen/internal/features"
	"clgen/internal/github"
	"clgen/internal/ir"
	"clgen/internal/rewriter"
)

// fileVersion stamps cached per-file outcomes: the stage runs the filter
// (analysis + IR), the rewriter, and — in precise mode — both feature
// extractors, so all their stamps participate.
const fileVersion = "corpus-file-v2|" + analysis.Version + "|" + rewriter.Version + "|" + ir.Version + "|" + features.Version

// filterVersion stamps cached filter verdicts (no rewriting involved).
const filterVersion = "corpus-filter-v1|" + analysis.Version + "|" + ir.Version

// cachedUnit mirrors unitOutcome in plain serializable data.
type cachedUnit struct {
	Text        string   `json:"text"`
	Kernels     int      `json:"kernels"`
	IdentsAfter []string `json:"idents_after,omitempty"`
}

// cachedFeatPair mirrors featPair in plain serializable data.
type cachedFeatPair struct {
	Kernel string    `json:"kernel"`
	Heur   []float64 `json:"heur,omitempty"`
	Prec   []float64 `json:"prec,omitempty"`
}

// cachedFileOutcome mirrors fileOutcome: identifier sets flatten to
// slices and the error to its message. Wall time is never cached — the
// consumer restamps it with the (hit or miss) elapsed time.
type cachedFileOutcome struct {
	Lines          int              `json:"lines"`
	NoShimRejected bool             `json:"no_shim_rejected,omitempty"`
	Reason         string           `json:"reason,omitempty"`
	IdentsBefore   []string         `json:"idents_before,omitempty"`
	Units          []cachedUnit     `json:"units,omitempty"`
	FeatPairs      []cachedFeatPair `json:"feat_pairs,omitempty"`
	Err            string           `json:"err,omitempty"`
}

func setToSlice(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	s := make([]string, 0, len(m))
	for k := range m {
		s = append(s, k)
	}
	return s
}

func sliceToSet(s []string) map[string]bool {
	m := make(map[string]bool, len(s))
	for _, k := range s {
		m[k] = true
	}
	return m
}

func toCachedOutcome(o fileOutcome) cachedFileOutcome {
	c := cachedFileOutcome{
		Lines:          o.lines,
		NoShimRejected: o.noShimRejected,
		Reason:         string(o.reason),
		IdentsBefore:   setToSlice(o.identsBefore),
	}
	if o.err != nil {
		c.Err = o.err.Error()
	}
	for _, u := range o.units {
		c.Units = append(c.Units, cachedUnit{
			Text: u.text, Kernels: u.kernels, IdentsAfter: setToSlice(u.identsAfter),
		})
	}
	for _, p := range o.featPairs {
		c.FeatPairs = append(c.FeatPairs, cachedFeatPair{Kernel: p.kernel, Heur: p.heur, Prec: p.prec})
	}
	return c
}

func fromCachedOutcome(c cachedFileOutcome) fileOutcome {
	o := fileOutcome{
		lines:          c.Lines,
		noShimRejected: c.NoShimRejected,
		reason:         RejectReason(c.Reason),
	}
	if len(c.IdentsBefore) > 0 {
		o.identsBefore = sliceToSet(c.IdentsBefore)
	}
	if c.Err != "" {
		o.err = errors.New(c.Err)
	}
	for _, u := range c.Units {
		o.units = append(o.units, unitOutcome{
			text: u.Text, kernels: u.Kernels, identsAfter: sliceToSet(u.IdentsAfter),
		})
	}
	for _, p := range c.FeatPairs {
		o.featPairs = append(o.featPairs, featPair{kernel: p.Kernel, heur: p.Heur, prec: p.Prec})
	}
	return o
}

var fileMemo = cache.New(cache.Config[cachedFileOutcome]{
	Name:    "file",
	Version: fileVersion,
	Size: func(c cachedFileOutcome) int {
		n := 64
		for _, u := range c.Units {
			n += len(u.Text) + 16*len(u.IdentsAfter)
		}
		return n + 16*len(c.IdentsBefore)
	},
})

// processFileCached is processFile behind the "file" memo. The second
// result reports a cache hit (memory, disk, or a collapsed concurrent
// computation of the same content) for journal attribution.
func processFileCached(cf github.ContentFile, static bool) (fileOutcome, bool) {
	start := time.Now()
	// Precise mode participates in the key: the outcome carries feature
	// pairs only when it is on, and a heuristic-mode hit must not starve a
	// precise run of them (or vice versa).
	key := cache.Key(fmt.Sprintf("static=%t,precise=%t", static, features.Precise()), cf.Text)
	c, hit, err := fileMemo.Do(key, func() (cachedFileOutcome, error) {
		return toCachedOutcome(processFile(cf, static)), nil
	})
	if err != nil {
		// The compute callback never errors; defensive fallback.
		return processFile(cf, static), false
	}
	o := fromCachedOutcome(c)
	o.cacheHit = hit
	o.durMS = float64(time.Since(start)) / float64(time.Millisecond)
	return o, hit
}

// filterVerdict is the serializable, verdict-only part of FilterResult.
type filterVerdict struct {
	OK           bool   `json:"ok,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Instrs       int    `json:"instrs,omitempty"`
	Predicted    string `json:"predicted,omitempty"`
	StaticReject bool   `json:"static_reject,omitempty"`
}

var filterMemo = cache.New(cache.Config[filterVerdict]{
	Name:    "filter",
	Version: filterVersion,
})

// FilterCached is FilterEx behind the "filter" memo, for callers that
// only consume the verdict (sample synthesis, the Figure 9 top-up). The
// result is verdict-only — File and Static are nil on miss as well as on
// hit, so warm and cold runs see identical values. The second result
// reports a cache hit.
func FilterCached(src string, opts FilterOpts) (FilterResult, bool) {
	key := cache.Key(fmt.Sprintf("shim=%t,static=%t", opts.Shim, opts.Static), src)
	v, hit, err := filterMemo.Do(key, func() (filterVerdict, error) {
		r := FilterEx(src, opts)
		return filterVerdict{
			OK: r.OK, Reason: string(r.Reason), Instrs: r.Instrs,
			Predicted: r.Predicted, StaticReject: r.StaticReject,
		}, nil
	})
	if err != nil {
		// The compute callback never errors; defensive fallback.
		r := FilterEx(src, opts)
		r.File, r.Static = nil, nil
		return r, false
	}
	return FilterResult{
		OK: v.OK, Reason: RejectReason(v.Reason), Instrs: v.Instrs,
		Predicted: v.Predicted, StaticReject: v.StaticReject,
	}, hit
}
