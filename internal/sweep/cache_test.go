package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidCacheKey: only lowercase-hex SHA-256 spec hashes are keys.
func TestValidCacheKey(t *testing.T) {
	good := Spec{Experiment: "x"}.Hash()
	if !ValidCacheKey(good) {
		t.Fatalf("spec hash %q rejected", good)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64),
		strings.Repeat("0", 63), strings.Repeat("0", 65), "../../../../etc/passwd",
	} {
		if ValidCacheKey(bad) {
			t.Errorf("ValidCacheKey(%q) = true, want false", bad)
		}
	}
}

// TestDiskCacheRejectsMalformedKeys: a key that is not a spec hash never
// reaches the filesystem, so it can neither write nor read outside the
// cache directory.
func TestDiskCacheRejectsMalformedKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	bad := "../escaped"
	if err := c.Put(bad, []byte("x")); err == nil {
		t.Errorf("Put(%q) succeeded, want an invalid-key error", bad)
	}
	if _, err := os.Stat(filepath.Join(dir, "escaped.json")); !os.IsNotExist(err) {
		t.Errorf("Put(%q) wrote outside the cache directory (stat err %v)", bad, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "escaped.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(bad); ok {
		t.Errorf("Get(%q) read a file outside the cache directory", bad)
	}
}

// TestMemoryCacheLRU: the entry cap evicts least-recently-used entries and
// counts the evictions; recently-touched entries survive.
func TestMemoryCacheLRU(t *testing.T) {
	c := NewMemoryCacheSize(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", []byte{3})
	if c.Len() != 3 {
		t.Errorf("len=%d, want 3", c.Len())
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if n := c.Evictions(); n != 1 {
		t.Errorf("evictions=%d, want 1", n)
	}
	// Overwriting an existing key must not evict.
	c.Put("k2", []byte{42})
	if n := c.Evictions(); n != 1 {
		t.Errorf("evictions after overwrite=%d, want 1", n)
	}
	if v, _ := c.Get("k2"); !bytes.Equal(v, []byte{42}) {
		t.Errorf("overwrite lost: %v", v)
	}
}

// TestMemoryCacheUnbounded: the default cache never evicts.
func TestMemoryCacheUnbounded(t *testing.T) {
	c := NewMemoryCache()
	for i := 0; i < 10000; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{1})
	}
	if c.Len() != 10000 || c.Evictions() != 0 {
		t.Errorf("len=%d evictions=%d, want 10000/0", c.Len(), c.Evictions())
	}
}

// TestEngineEvictionMetrics: a bounded cache's evictions surface in the
// engine's Metrics snapshot.
func TestEngineEvictionMetrics(t *testing.T) {
	e := New(Options{Workers: 2, Cache: NewMemoryCacheSize(4)})
	if _, err := e.Run(fakeJobs(20)); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.CacheEvictions != 16 {
		t.Errorf("CacheEvictions=%d, want 16 (20 puts into a 4-entry cache)", m.CacheEvictions)
	}
}

// TestDiskCacheBoundedMem: the disk layer keeps every entry even when the
// memory layer evicts, and forwards the eviction count.
func TestDiskCacheBoundedMem(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCacheSize(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, Cache: c})
	first, err := e.Run(fakeJobs(10))
	if err != nil {
		t.Fatal(err)
	}
	if c.Evictions() == 0 {
		t.Error("memory layer never evicted under a 2-entry cap")
	}
	// Every result must still be served — from memory or from disk.
	e2 := New(Options{Workers: 1, Cache: c})
	second, err := e2.Run(fakeJobs(10))
	if err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.CacheHits != 10 {
		t.Errorf("hits=%d, want 10 (disk retains evicted entries)", m.CacheHits)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("result %d differs after memory eviction", i)
		}
	}
}
