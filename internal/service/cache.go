package service

// The content-addressed result cache. Keys are JobSpec content hashes
// (experiments.JobSpec.Hash) — sound cache keys because a cached body
// is what a Runner writes to its simulated sink, a byte-stable pure
// function of the spec (host wall clock goes to the other sink). The
// cache is a byte-budgeted in-memory LRU, optionally backed by an
// on-disk store so results survive daemon restarts: a memory miss
// falls through to the directory, and a disk hit is re-admitted to
// memory. Entries larger than the whole memory budget are served and
// persisted but never resident.

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"
)

// CacheStats is the /v1/statsz view of the cache.
type CacheStats struct {
	// Hits counts Gets served (from memory or disk); DiskHits is the
	// subset that had to touch the directory. Misses ran a simulation.
	Hits, Misses, DiskHits uint64
	// Evictions counts entries the LRU pushed out of memory (disk
	// copies, when configured, survive eviction).
	Evictions uint64
	// Entries/Bytes describe current memory residency against Budget.
	Entries int
	Bytes   int64
	Budget  int64
}

// Cache is the content-addressed result store. Safe for concurrent
// use. Stored bodies are owned by the cache: callers must not mutate
// a returned slice.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	idx    map[string]*list.Element
	dir    string

	hits, misses, diskHits, evictions uint64
}

type centry struct {
	key  string
	body []byte
}

// NewCache returns a cache holding up to budget bytes of result
// bodies in memory. dir, when non-empty, enables the on-disk store
// (created if missing); an empty dir keeps the cache memory-only.
func NewCache(budget int64, dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Cache{budget: budget, ll: list.New(), idx: map[string]*list.Element{}, dir: dir}, nil
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key) }

// Get returns the cached result body for a spec hash. A memory miss
// consults the disk store; a disk hit is promoted back into memory.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		body := el.Value.(*centry).body
		c.mu.Unlock()
		return body, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		c.miss()
		return nil, false
	}
	body, err := os.ReadFile(c.path(key))
	if err != nil {
		c.miss()
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.diskHits++
	c.admit(key, body)
	c.mu.Unlock()
	return body, true
}

func (c *Cache) miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Put stores a result body under its spec hash, in memory and — when
// configured — on disk (written atomically via rename, so a crashed
// daemon never leaves a truncated entry). Disk errors are returned but
// leave the memory cache updated: a full disk degrades persistence,
// not serving.
func (c *Cache) Put(key string, body []byte) error {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		// Identical by construction (same spec hash ⇒ same bytes);
		// refresh recency only.
		c.ll.MoveToFront(el)
	} else {
		c.admit(key, body)
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// admit inserts an entry at the MRU position and evicts from the LRU
// tail until the budget holds. Requires c.mu. Bodies larger than the
// whole budget are not admitted (they would immediately evict
// everything and then themselves).
func (c *Cache) admit(key string, body []byte) {
	if int64(len(body)) > c.budget {
		return
	}
	c.idx[key] = c.ll.PushFront(&centry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.idx, e.key)
		c.bytes -= int64(len(e.body))
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits,
		Evictions: c.evictions,
		Entries:   c.ll.Len(), Bytes: c.bytes, Budget: c.budget,
	}
}
