package sweep

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache stores encoded job results under their spec hash. Implementations
// must be safe for concurrent use by the engine's workers. Put is
// best-effort: the engine ignores persistence failures (the result is still
// returned to the caller) but counts them in the metrics.
type Cache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// EvictionCounter is implemented by caches that drop entries to stay under
// a size bound; the engine folds the count into its Metrics snapshot.
type EvictionCounter interface {
	Evictions() int64
}

// MemoryCache is an in-process result cache. It makes repeated sweeps in
// one run (e.g. the same precise baseline appearing in several studies)
// free, and backs the read path of the disk cache. With a positive entry
// cap it evicts least-recently-used entries, which is what keeps a
// resident server's heap bounded across an unbounded job stream; the
// default (no cap) preserves the CLI behaviour where a single run's
// working set is the right lifetime.
type MemoryCache struct {
	mu        sync.Mutex
	max       int // 0 = unbounded
	m         map[string]*list.Element
	ll        *list.List // front = most recently used
	evictions atomic.Int64
}

// memEntry is the list payload: the key is carried so eviction of the back
// element can delete its map slot.
type memEntry struct {
	key string
	val []byte
}

// NewMemoryCache returns an empty, unbounded in-memory cache.
func NewMemoryCache() *MemoryCache { return NewMemoryCacheSize(0) }

// NewMemoryCacheSize returns an in-memory cache holding at most max entries
// (LRU eviction); max <= 0 means unbounded.
func NewMemoryCacheSize(max int) *MemoryCache {
	if max < 0 {
		max = 0
	}
	return &MemoryCache{max: max, m: make(map[string]*list.Element), ll: list.New()}
}

// Get returns the cached bytes for key, marking it most recently used.
func (c *MemoryCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// Put stores val under key. The caller must not mutate val afterwards.
func (c *MemoryCache) Put(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*memEntry).val = val
		c.ll.MoveToFront(el)
		return nil
	}
	c.m[key] = c.ll.PushFront(&memEntry{key: key, val: val})
	if c.max > 0 && c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*memEntry).key)
		c.evictions.Add(1)
	}
	return nil
}

// Len reports the number of cached entries.
func (c *MemoryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Evictions reports how many entries the cap has dropped.
func (c *MemoryCache) Evictions() int64 { return c.evictions.Load() }

// DiskCache persists results as one JSON file per spec hash in a directory,
// with an in-memory layer in front, so a second wnbench run against the same
// -cache directory skips every already-simulated cell.
type DiskCache struct {
	dir string
	mem *MemoryCache
	seq atomic.Int64 // unique temp-file suffix for atomic writes
}

// NewDiskCache opens (creating if needed) a cache directory with an
// unbounded memory layer.
func NewDiskCache(dir string) (*DiskCache, error) {
	return NewDiskCacheSize(dir, 0)
}

// NewDiskCacheSize opens a cache directory whose in-memory layer holds at
// most maxMem entries (<= 0 for unbounded). Disk entries are never evicted;
// a memory miss just re-reads the file.
func NewDiskCacheSize(dir string, maxMem int) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	return &DiskCache{dir: dir, mem: NewMemoryCacheSize(maxMem)}, nil
}

// Dir returns the backing directory.
func (c *DiskCache) Dir() string { return c.dir }

// Evictions reports the memory layer's eviction count.
func (c *DiskCache) Evictions() int64 { return c.mem.Evictions() }

// ValidCacheKey reports whether key has the shape of a spec hash (lowercase
// hex SHA-256). DiskCache uses it to guard the filesystem against
// arbitrary keys.
func ValidCacheKey(key string) bool {
	if len(key) != 2*32 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached bytes for key, reading through to disk.
func (c *DiskCache) Get(key string) ([]byte, bool) {
	if v, ok := c.mem.Get(key); ok {
		return v, true
	}
	if !ValidCacheKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	c.mem.Put(key, b)
	return b, true
}

// Put stores val under key in memory and on disk (atomically, via a
// temp-file rename, so a crashed run never leaves a torn entry).
func (c *DiskCache) Put(key string, val []byte) error {
	c.mem.Put(key, val)
	if !ValidCacheKey(key) {
		return fmt.Errorf("sweep: invalid cache key %q", key)
	}
	tmp := filepath.Join(c.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), c.seq.Add(1)))
	if err := os.WriteFile(tmp, val, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
