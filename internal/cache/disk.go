// The persistent tier: version-stamped JSON entries under a shared
// directory, one subdirectory per memo. The binaries' -cache-dir flag sets
// the directory through SetDir.
//
// Entries are written atomically (temp file + rename) so a crashed or
// concurrent run never leaves a half-written entry. Reads are defensive:
// unreadable, corrupt, or stale (version-mismatched) entries are removed
// and treated as misses — a bad entry can cost a recomputation, never a
// wrong result.
package cache

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"clgen/internal/telemetry"
)

var (
	dirMu   sync.RWMutex
	dirPath string
)

// SetDir enables the persistent tier under path (created if missing).
// An empty path disables it.
func SetDir(path string) error {
	if path != "" {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return err
		}
	}
	dirMu.Lock()
	dirPath = path
	dirMu.Unlock()
	return nil
}

// Dir returns the persistent tier's directory ("" when disabled).
func Dir() string {
	dirMu.RLock()
	defer dirMu.RUnlock()
	return dirPath
}

// diskEntry wraps a stored value with the memo version that produced it.
type diskEntry struct {
	Version string          `json:"version"`
	Value   json.RawMessage `json:"value"`
}

// entryPath fans entries out across 256 subdirectories by key prefix so
// large caches do not pile every entry into one directory.
func entryPath(dir, name, key string) string {
	return filepath.Join(dir, name, key[:2], key+".json")
}

func (m *Memo[V]) diskGet(key string) (V, bool) {
	var zero V
	dir := Dir()
	if dir == "" {
		return zero, false
	}
	path := entryPath(dir, m.cfg.Name, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			m.diskDiscard(path, "unreadable")
		}
		return zero, false
	}
	var ent diskEntry
	if err := json.Unmarshal(raw, &ent); err != nil {
		m.diskDiscard(path, "corrupt")
		return zero, false
	}
	if ent.Version != m.cfg.Version {
		m.diskDiscard(path, "stale")
		return zero, false
	}
	var v V
	if err := json.Unmarshal(ent.Value, &v); err != nil {
		m.diskDiscard(path, "corrupt")
		return zero, false
	}
	return v, true
}

// diskDiscard removes a bad entry so it is recomputed (and rewritten)
// instead of failing every future lookup the same way.
func (m *Memo[V]) diskDiscard(path, why string) {
	os.Remove(path)
	telemetry.Default().Counter(
		telemetry.Label("cache_disk_discards_total", "cache", m.cfg.Name, "why", why),
		"Persistent cache entries discarded instead of trusted, by cache and cause.").Inc()
}

func (m *Memo[V]) diskPut(key string, v V) {
	dir := Dir()
	if dir == "" {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return
	}
	ent, err := json.Marshal(diskEntry{Version: m.cfg.Version, Value: raw})
	if err != nil {
		return
	}
	path := entryPath(dir, m.cfg.Name, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		m.diskWriteError()
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		m.diskWriteError()
		return
	}
	if _, err := tmp.Write(ent); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		m.diskWriteError()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		m.diskWriteError()
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		m.diskWriteError()
	}
}

// diskWriteError counts a failed persist. Writes are best-effort — the
// computation already succeeded, so the result is returned regardless.
func (m *Memo[V]) diskWriteError() {
	telemetry.Default().Counter(
		telemetry.Label("cache_disk_write_errors_total", "cache", m.cfg.Name),
		"Failed best-effort writes to the persistent cache tier, by cache.").Inc()
}
