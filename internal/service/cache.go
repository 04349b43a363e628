package service

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// outcome is what the caches store: the terminal state of one synthesis.
// Outcomes are immutable once cached; responders wrap them in a fresh
// Response with per-request JobID/Cached fields.
type outcome struct {
	Status string      `json:"status"`
	Error  string      `json:"error,omitempty"`
	Result *ResultJSON `json:"result,omitempty"`
	// Batch is set instead of Result for batch jobs; batch and single
	// keys never collide (batchFnKey hashes a prefixed key list), so an
	// outcome is one or the other. The peer cache-lookup surface only
	// serves Result-bearing outcomes.
	Batch *BatchResultJSON `json:"batch,omitempty"`
}

// memCache is the hot tier: an entry-count-bounded LRU of outcomes.
type memCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type memEntry struct {
	key string
	out *outcome
}

func newMemCache(max int) *memCache {
	if max < 1 {
		max = 1
	}
	return &memCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *memCache) get(key string) (*outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*memEntry).out, true
}

func (c *memCache) put(key string, out *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.order.MoveToFront(e)
		e.Value.(*memEntry).out = out
		return
	}
	c.items[key] = c.order.PushFront(&memEntry{key: key, out: out})
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*memEntry).key)
	}
}

// diskCache is the persistent tier: one JSON file per canonical key under
// dir, bounded by entry count and total bytes. The index is rebuilt from
// the directory at open (oldest-first by mtime, evicting over-budget
// files), so a daemon restart inherits the previous run's answers.
// Writes go through a temp file plus rename, so a kill mid-write never
// leaves a torn entry; a torn or hand-edited file found later is deleted
// and treated as a miss.
type diskCache struct {
	mu         sync.Mutex
	dir        string
	maxEntries int
	maxBytes   int64
	bytes      int64
	order      *list.List // front = most recently used
	items      map[string]*list.Element
}

type diskEntry struct {
	key  string
	size int64
}

// openDiskCache loads (and prunes) the persistent result store rooted at
// dir, creating it if needed.
func openDiskCache(dir string, maxEntries int, maxBytes int64) (*diskCache, error) {
	if maxEntries < 1 {
		maxEntries = 4096
	}
	if maxBytes < 1 {
		maxBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &diskCache{
		dir: dir, maxEntries: maxEntries, maxBytes: maxBytes,
		order: list.New(), items: make(map[string]*list.Element),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type onDisk struct {
		key  string
		size int64
		mod  time.Time
	}
	var found []onDisk
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{
			key: name[:len(name)-len(".json")], size: info.Size(), mod: info.ModTime(),
		})
	}
	// Oldest first, so pushing front in order leaves the newest entries at
	// the front of the LRU and eviction drops the stalest files.
	sort.Slice(found, func(i, j int) bool { return found[i].mod.Before(found[j].mod) })
	for _, f := range found {
		c.items[f.key] = c.order.PushFront(&diskEntry{key: f.key, size: f.size})
		c.bytes += f.size
	}
	c.evictLocked()
	return c, nil
}

func (c *diskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// evictLocked removes least-recently-used files until both budgets hold,
// but always keeps the newest entry so one oversized result cannot wedge
// the cache permanently empty.
func (c *diskCache) evictLocked() {
	for c.order.Len() > 1 && (c.order.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		back := c.order.Back()
		ent := back.Value.(*diskEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.bytes -= ent.size
		os.Remove(c.path(ent.key))
	}
}

// drop forgets (and deletes) one entry.
func (c *diskCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(key)
}

// dropLocked forgets (and deletes) one entry, used on corruption.
func (c *diskCache) dropLocked(key string) {
	if e, ok := c.items[key]; ok {
		c.bytes -= e.Value.(*diskEntry).size
		c.order.Remove(e)
		delete(c.items, key)
	}
	os.Remove(c.path(key))
}

func (c *diskCache) get(key string) (*outcome, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.dropLocked(key)
		return nil, false
	}
	var out outcome
	if err := json.Unmarshal(data, &out); err != nil || out.Status != StatusDone {
		// Torn by an unclean shutdown of a non-atomic writer, or edited by
		// hand: recover by forgetting the entry rather than serving junk.
		mDiskCorrupt.Inc()
		c.dropLocked(key)
		return nil, false
	}
	c.order.MoveToFront(e)
	return &out, true
}

func (c *diskCache) put(key string, out *outcome) {
	if c == nil || out.Status != StatusDone {
		return
	}
	data, err := json.Marshal(out)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tmp, err := os.CreateTemp(c.dir, "put*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	size := int64(len(data))
	if e, ok := c.items[key]; ok {
		c.bytes += size - e.Value.(*diskEntry).size
		e.Value.(*diskEntry).size = size
		c.order.MoveToFront(e)
	} else {
		c.items[key] = c.order.PushFront(&diskEntry{key: key, size: size})
		c.bytes += size
	}
	c.evictLocked()
}

// len reports the number of live entries (tests and /healthz).
func (c *diskCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
