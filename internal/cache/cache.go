// Package cache is a content-addressed memoization layer for the
// pipeline's pure stages. A Memo[V] caches the result of a deterministic
// computation keyed by a content hash (see Key): rejection-filter
// verdicts, rewriter normalizations, feature vectors, and modeled
// checker outcomes are all pure functions of their inputs, so a second
// request for the same content can skip the work entirely.
//
// Two tiers back every memo: a sharded in-memory LRU (always on) and an
// optional on-disk store shared across processes (enabled by the
// -cache-dir flag, see disk.go). Concurrent requests for the same key
// inside pool.Map / pool.Scan fan-outs are collapsed by a singleflight
// layer: one goroutine computes, the rest wait and share the result.
//
// Correctness contract: only pure, content-keyed computations may be
// memoized, and cached values must be immutable: a memo hands every
// caller the stored value itself. Every memo carries a Version stamp —
// bump it whenever the computation changes (analyzer passes, rewriter
// rules, IR lowering) so stale persistent entries are discarded instead
// of poisoning output.
// Warm- and cold-cache runs must stay byte-identical.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"sync"

	"clgen/internal/telemetry"
)

// Key hashes the parts into a fixed-width content address. Parts are
// length-prefixed before hashing so ("ab","c") and ("a","bc") cannot
// collide. The result is hex, safe to use as a filename.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Config describes one memo.
type Config[V any] struct {
	// Name labels the memo's telemetry series and names its disk
	// subdirectory; keep it short and stable ("filter", "check", ...).
	Name string
	// Version stamps persistent entries; an entry written under a
	// different version is stale and recomputed. Bump it whenever the
	// memoized computation changes.
	Version string
	// Size estimates a value's resident bytes for the cache_bytes_total
	// gauge; nil counts every entry as 1 byte.
	Size func(V) int
}

// Capacity bounds each memo's in-memory tier (entries, not bytes).
const Capacity = 4096

const numShards = 16

type entry[V any] struct {
	key  string
	val  V
	size int
}

type shard[V any] struct {
	mu  sync.Mutex
	ll  *list.List // front = most recently used
	idx map[string]*list.Element
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Memo is one two-tier content-addressed cache. Safe for concurrent use.
// Values must round-trip through encoding/json for the persistent tier.
type Memo[V any] struct {
	cfg    Config[V]
	shards [numShards]shard[V]

	flightMu sync.Mutex
	flights  map[string]*flight[V]

	hits, misses, evictions *telemetry.Counter
	bytes                   *telemetry.Gauge
}

// New creates (and registers for FlushMemory) a memo.
func New[V any](cfg Config[V]) *Memo[V] {
	m := &Memo[V]{
		cfg:     cfg,
		flights: map[string]*flight[V]{},
		hits: telemetry.Default().Counter(telemetry.Label("cache_hits_total", "cache", cfg.Name),
			"Memoized results served without recomputation, by cache."),
		misses: telemetry.Default().Counter(telemetry.Label("cache_misses_total", "cache", cfg.Name),
			"Memoization lookups that had to compute, by cache."),
		evictions: telemetry.Default().Counter(telemetry.Label("cache_evictions_total", "cache", cfg.Name),
			"In-memory cache entries evicted by the LRU bound, by cache."),
		bytes: telemetry.Default().Gauge(telemetry.Label("cache_bytes_total", "cache", cfg.Name),
			"Approximate resident bytes of the in-memory cache tier, by cache."),
	}
	for i := range m.shards {
		m.shards[i].ll = list.New()
		m.shards[i].idx = map[string]*list.Element{}
	}
	register(m)
	return m
}

// Name returns the memo's configured name.
func (m *Memo[V]) Name() string { return m.cfg.Name }

func (m *Memo[V]) shardFor(key string) *shard[V] {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &m.shards[h.Sum32()%numShards]
}

func (m *Memo[V]) size(v V) int {
	if m.cfg.Size == nil {
		return 1
	}
	return m.cfg.Size(v)
}

// get probes the in-memory tier.
func (m *Memo[V]) get(key string) (V, bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// put installs a value in the in-memory tier, evicting LRU entries past
// the shard's share of Capacity.
func (m *Memo[V]) put(key string, v V) {
	s := m.shardFor(key)
	sz := m.size(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		e := el.Value.(*entry[V])
		m.bytes.Add(float64(sz - e.size))
		e.val, e.size = v, sz
		s.ll.MoveToFront(el)
		return
	}
	s.idx[key] = s.ll.PushFront(&entry[V]{key: key, val: v, size: sz})
	m.bytes.Add(float64(sz))
	for s.ll.Len() > Capacity/numShards {
		old := s.ll.Back()
		e := old.Value.(*entry[V])
		s.ll.Remove(old)
		delete(s.idx, e.key)
		m.bytes.Add(float64(-e.size))
		m.evictions.Inc()
	}
}

// Do returns the memoized value for key, computing it at most once per
// concurrent burst. The second result reports whether the value was
// served from cache (memory tier, disk tier, or a collapsed concurrent
// computation) — callers use it to annotate journal events, so every
// true here corresponds to one cache_hits_total increment. Errors are
// never cached.
func (m *Memo[V]) Do(key string, compute func() (V, error)) (V, bool, error) {
	if v, ok := m.get(key); ok {
		m.hits.Inc()
		return v, true, nil
	}

	m.flightMu.Lock()
	if fl, ok := m.flights[key]; ok {
		m.flightMu.Unlock()
		<-fl.done
		if fl.err != nil {
			// The leader failed; this waiter neither computed nor got a
			// usable cached value.
			var zero V
			m.misses.Inc()
			return zero, false, fl.err
		}
		// Collapsed onto the leader's computation: the work was skipped,
		// which is a hit for accounting purposes.
		m.hits.Inc()
		return fl.val, true, nil
	}
	fl := &flight[V]{done: make(chan struct{})}
	m.flights[key] = fl
	m.flightMu.Unlock()

	defer func() {
		m.flightMu.Lock()
		delete(m.flights, key)
		m.flightMu.Unlock()
		close(fl.done)
	}()

	// Leader: disk tier first, then compute.
	if v, ok := m.diskGet(key); ok {
		m.put(key, v)
		m.hits.Inc()
		fl.val = v
		return v, true, nil
	}
	v, err := compute()
	if err != nil {
		m.misses.Inc()
		fl.err = err
		var zero V
		return zero, false, err
	}
	m.misses.Inc()
	m.put(key, v)
	m.diskPut(key, v)
	fl.val = v
	return v, false, nil
}

// Flush drops the memo's in-memory tier (the disk tier is untouched).
func (m *Memo[V]) Flush() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		var freed int
		for el := s.ll.Front(); el != nil; el = el.Next() {
			freed += el.Value.(*entry[V]).size
		}
		s.ll.Init()
		s.idx = map[string]*list.Element{}
		m.bytes.Add(float64(-freed))
		s.mu.Unlock()
	}
}

// Len returns the number of resident in-memory entries.
func (m *Memo[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

type flusher interface{ Flush() }

var (
	registryMu sync.Mutex
	registry   []flusher
)

func register(f flusher) {
	registryMu.Lock()
	registry = append(registry, f)
	registryMu.Unlock()
}

// FlushMemory empties every memo's in-memory tier. Tests use it to
// simulate a cold start within one process.
func FlushMemory() {
	registryMu.Lock()
	memos := append([]flusher(nil), registry...)
	registryMu.Unlock()
	for _, m := range memos {
		m.Flush()
	}
}
