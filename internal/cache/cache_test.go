package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyLengthPrefixesParts(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("part boundaries must participate in the hash")
	}
	if Key("x") != Key("x") {
		t.Error("Key must be deterministic")
	}
	if len(Key()) != 64 {
		t.Errorf("Key() length = %d, want 64 hex chars", len(Key()))
	}
}

// TestMemoStorm hammers one memo from many goroutines over a key space a
// quarter larger than Capacity, so hits, misses, singleflight collapses,
// and LRU evictions all interleave. Run under -race via make check; the
// invariant checked here is the accounting one: every Do reports either a
// hit or a miss, never both, never neither.
func TestMemoStorm(t *testing.T) {
	m := New(Config[int]{Name: "test-storm"})
	h0, ms0 := m.hits.Value(), m.misses.Value()
	var computes atomic.Int64
	var wg sync.WaitGroup
	const goroutines, keys = 16, Capacity + Capacity/4
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				want := (g + i) % keys
				key := Key(fmt.Sprintf("k%d", want))
				v, _, err := m.Do(key, func() (int, error) {
					computes.Add(1)
					return want, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("key %d returned %d", want, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := goroutines * keys
	hits, misses := m.hits.Value()-h0, m.misses.Value()-ms0
	if hits+misses != int64(total) {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, total)
	}
	if misses != computes.Load() {
		t.Errorf("misses %d != computes %d (errors never cached, so these match)", misses, computes.Load())
	}
	if m.Len() > Capacity {
		t.Errorf("resident entries %d exceed capacity %d", m.Len(), Capacity)
	}
	if m.evictions.Value() == 0 {
		t.Errorf("%d keys under capacity %d must evict", keys, Capacity)
	}
}

func TestMemoLRUEvictsOldest(t *testing.T) {
	// Each shard holds Capacity/numShards entries; a quarter more keys
	// than Capacity overflows every shard, so the least recently used
	// key, the first, must be evicted.
	m := New(Config[string]{Name: "test-lru"})
	first := Key("fill0")
	for i := 0; i < Capacity+Capacity/4; i++ {
		key := Key(fmt.Sprintf("fill%d", i))
		m.Do(key, func() (string, error) { return "v", nil })
	}
	if m.Len() > Capacity {
		t.Errorf("resident %d, want <= %d", m.Len(), Capacity)
	}
	if m.evictions.Value() == 0 {
		t.Error("no evictions recorded")
	}
	if _, hit, _ := m.Do(first, func() (string, error) { return "v", nil }); hit {
		t.Error("least recently used key still resident")
	}
}

func TestSingleflightCollapses(t *testing.T) {
	m := New(Config[int]{Name: "test-flight"})
	h0, ms0 := m.hits.Value(), m.misses.Value()
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	key := Key("contested")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(key, func() (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started // leader is inside compute; everyone else must collapse

	const waiters = 8
	hitCount := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do(key, func() (int, error) {
				computes.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("waiter got (%d, %v)", v, err)
			}
			hitCount <- hit
		}()
	}
	// Waiters either block on the flight or (rarely) arrive after the
	// leader finishes and hit memory; both count as hits.
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", computes.Load())
	}
	close(hitCount)
	for hit := range hitCount {
		if !hit {
			t.Error("a collapsed waiter reported a miss")
		}
	}
	if hits, misses := m.hits.Value()-h0, m.misses.Value()-ms0; hits != waiters || misses != 1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, waiters)
	}
}

func TestErrorsNeverCached(t *testing.T) {
	m := New(Config[int]{Name: "test-errs"})
	key := Key("bad")
	wantErr := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, hit, err := m.Do(key, func() (int, error) { return 0, wantErr })
		if !errors.Is(err, wantErr) || hit {
			t.Fatalf("attempt %d: hit=%v err=%v", i, hit, err)
		}
	}
	// A later success for the same key must still compute and then stick.
	v, hit, err := m.Do(key, func() (int, error) { return 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("recovery compute: v=%d hit=%v err=%v", v, hit, err)
	}
	if _, hit, _ := m.Do(key, func() (int, error) { return 0, wantErr }); !hit {
		t.Error("successful value not cached after earlier errors")
	}
}

// withDisk points the persistent tier at a temp dir for one test.
func withDisk(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := SetDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetDir("") })
	return dir
}

func TestDiskTierSurvivesMemoryFlush(t *testing.T) {
	dir := withDisk(t)
	m := New(Config[string]{Name: "test-disk", Version: "v1"})
	key := Key("persist-me")
	m.Do(key, func() (string, error) { return "stored", nil })

	m.Flush() // cold start: memory empty, disk warm
	if m.Len() != 0 {
		t.Fatal("flush left resident entries")
	}
	v, hit, err := m.Do(key, func() (string, error) {
		return "", errors.New("should have come from disk")
	})
	if err != nil || !hit || v != "stored" {
		t.Fatalf("disk read: v=%q hit=%v err=%v", v, hit, err)
	}
	// And the disk hit repopulated memory.
	if m.Len() != 1 {
		t.Errorf("resident after disk hit = %d, want 1", m.Len())
	}
	_ = dir
}

func TestDiskCorruptAndStaleEntriesRecovered(t *testing.T) {
	dir := withDisk(t)
	m := New(Config[string]{Name: "test-badjson", Version: "v2"})
	key := Key("fragile")
	m.Do(key, func() (string, error) { return "good", nil })
	path := entryPath(dir, "test-badjson", key)

	for _, tc := range []struct {
		name    string
		corrupt func() error
	}{
		{"truncated json", func() error { return os.WriteFile(path, []byte(`{"version":"v2","val`), 0o644) }},
		{"stale version", func() error {
			return os.WriteFile(path, []byte(`{"version":"v1","value":"\"old\""}`), 0o644)
		}},
		{"wrong value type", func() error {
			return os.WriteFile(path, []byte(`{"version":"v2","value":[1,2]}`), 0o644)
		}},
	} {
		if err := tc.corrupt(); err != nil {
			t.Fatal(err)
		}
		m.Flush()
		v, hit, err := m.Do(key, func() (string, error) { return "recomputed", nil })
		if err != nil || hit || v != "recomputed" {
			t.Errorf("%s: v=%q hit=%v err=%v, want recompute", tc.name, v, hit, err)
		}
		// The bad entry was replaced by a fresh write; the next cold
		// lookup must hit disk again.
		m.Flush()
		if _, hit, _ := m.Do(key, func() (string, error) { return "", errors.New("no") }); !hit {
			t.Errorf("%s: rewritten entry not served", tc.name)
		}
	}
}

func TestDiskDisabledWithoutDir(t *testing.T) {
	if Dir() != "" {
		t.Skip("persistent tier active from another test")
	}
	m := New(Config[string]{Name: "test-nodisk", Version: "v1"})
	key := Key("ephemeral")
	m.Do(key, func() (string, error) { return "x", nil })
	m.Flush()
	if _, hit, _ := m.Do(key, func() (string, error) { return "x", nil }); hit {
		t.Error("hit after flush with no disk tier configured")
	}
}

func TestFlushMemoryEmptiesRegisteredMemos(t *testing.T) {
	m1 := New(Config[int]{Name: "test-global1"})
	m2 := New(Config[int]{Name: "test-global2"})
	m1.Do(Key("a"), func() (int, error) { return 1, nil })
	m2.Do(Key("b"), func() (int, error) { return 2, nil })
	FlushMemory()
	if m1.Len() != 0 || m2.Len() != 0 {
		t.Errorf("FlushMemory left %d/%d entries", m1.Len(), m2.Len())
	}
}

func TestEntryPathShardsByPrefix(t *testing.T) {
	key := strings.Repeat("ab", 32)
	p := entryPath("/tmp/c", "filter", key)
	want := filepath.Join("/tmp/c", "filter", "ab", key+".json")
	if p != want {
		t.Errorf("entryPath = %q, want %q", p, want)
	}
}
