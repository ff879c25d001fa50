package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"phelps/internal/codec"
	"phelps/internal/fsio"
	"phelps/internal/sim"
)

// CellKey identifies one cacheable cell execution: the workload's content
// hash (not its name — renaming or redefining a workload changes the key),
// the registered configuration name, the sampling seed, and the sample mode.
// Verification knobs ride in Flags: they don't change the metrics, but
// keeping them in the key keeps a checked run from masquerading as an
// unchecked one (and vice versa).
type CellKey struct {
	WorkloadHash uint64 `json:"workload_hash"`
	Config       string `json:"config"`
	Seed         uint64 `json:"seed,omitempty"`
	Sampled      bool   `json:"sampled,omitempty"`
	Flags        string `json:"flags,omitempty"`
}

// The persisted cache file is cacheFile as JSON, sealed in the codec
// envelope under cacheMagic ("PRC1") and cacheSchema. A checksum, magic or
// schema mismatch discards the file (results are always recomputable).
const (
	cacheMagic  uint32 = 0x50524331
	cacheSchema uint32 = 1
)

// ResultCache is the daemon's completed-cell store: key -> verified
// sim.Result. Entries are treated as immutable once inserted — readers share
// the stored pointer. Safe for concurrent use.
type ResultCache struct {
	fs      fsio.FS
	mu      sync.Mutex
	entries map[CellKey]*sim.Result

	hits, misses, puts        atomic.Uint64
	loadErrs, saves, saveErrs atomic.Uint64
}

// NewResultCache returns an empty cache backed by the real filesystem.
func NewResultCache() *ResultCache {
	return NewResultCacheFS(fsio.OS)
}

// NewResultCacheFS returns an empty cache persisting through fs — the disk-
// fault injection seam shared with the journal and the checkpoint cache.
func NewResultCacheFS(fs fsio.FS) *ResultCache {
	if fs == nil {
		fs = fsio.OS
	}
	return &ResultCache{fs: fs, entries: make(map[CellKey]*sim.Result)}
}

// Get returns the cached result for key, counting the hit or miss. The
// returned result is shared and must not be mutated.
func (c *ResultCache) Get(key CellKey) (*sim.Result, bool) {
	c.mu.Lock()
	r, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// Peek is Get without touching the hit/miss counters (admission control
// peeks to size a job's cold footprint without skewing the stats).
func (c *ResultCache) Peek(key CellKey) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	return ok
}

// Put stores a completed cell. The caller hands over ownership of res.
func (c *ResultCache) Put(key CellKey, res *sim.Result) {
	c.mu.Lock()
	c.entries[key] = res
	c.mu.Unlock()
	c.puts.Add(1)
}

// Len returns the number of cached cells.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits and Misses expose the counters for the obs registry.
func (c *ResultCache) Hits() uint64   { return c.hits.Load() }
func (c *ResultCache) Misses() uint64 { return c.misses.Load() }

// LoadErrors counts corrupt, schema-skewed, or unreadable persisted cache
// files that degraded to an empty load; Saves and SaveErrors count persist
// attempts and their failures.
func (c *ResultCache) LoadErrors() uint64 { return c.loadErrs.Load() }
func (c *ResultCache) Saves() uint64      { return c.saves.Load() }
func (c *ResultCache) SaveErrors() uint64 { return c.saveErrs.Load() }

// cacheFile is the persisted JSON layout (the envelope carries the schema).
type cacheFile struct {
	Entries []cacheEntry `json:"entries"`
}

type cacheEntry struct {
	Key    CellKey     `json:"key"`
	Result *sim.Result `json:"result"`
}

// SaveFile persists the cache as sealed JSON with fsio.WriteAtomic (so
// concurrent savers and a crash mid-write can never leave a half-written
// cache under the live name), so a drained daemon's successor starts warm.
// Failures are counted (SaveErrors) as well as returned.
func (c *ResultCache) SaveFile(path string) error {
	c.saves.Add(1)
	c.mu.Lock()
	f := cacheFile{Entries: make([]cacheEntry, 0, len(c.entries))}
	for k, r := range c.entries {
		f.Entries = append(f.Entries, cacheEntry{Key: k, Result: r})
	}
	c.mu.Unlock()
	data, err := json.Marshal(&f)
	if err != nil {
		c.saveErrs.Add(1)
		return fmt.Errorf("serve: encode cache: %w", err)
	}
	err = fsio.WriteAtomic(c.fs, path, codec.Seal(cacheMagic, cacheSchema, data))
	if err != nil {
		c.saveErrs.Add(1)
	}
	return err
}

// LoadFile merges a persisted cache into this one. A missing file is not an
// error (first boot); a corrupt, truncated, or schema-mismatched file — and a
// pre-envelope JSON cache, which fails the magic check — is a counted miss
// (LoadErrors) and an error return, leaving the cache usable — every entry
// is recomputable, so degradation never blocks serving.
func (c *ResultCache) LoadFile(path string) error {
	data, err := c.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		c.loadErrs.Add(1)
		return err
	}
	body, err := codec.Open(data, cacheMagic, cacheSchema)
	if err != nil {
		c.loadErrs.Add(1)
		return fmt.Errorf("serve: cache %s discarded: %w", path, err)
	}
	var f cacheFile
	if err := json.Unmarshal(body, &f); err != nil {
		c.loadErrs.Add(1)
		return fmt.Errorf("serve: decode cache %s: %w", path, err)
	}
	c.mu.Lock()
	for _, e := range f.Entries {
		if e.Result != nil {
			c.entries[e.Key] = e.Result
		}
	}
	c.mu.Unlock()
	return nil
}
