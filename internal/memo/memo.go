// Package memo provides small, concurrency-safe, process-wide caches for
// the quantities the synthesis search recomputes most: minimal-path
// enumerations of a lattice, the lattice (dual) function covers built
// from them, and truth tables of SOP covers.
//
// The dichotomic search, the DS/MF sub-syntheses, and parallel candidate
// workers all revisit the same small grids and targets over and over —
// every build of an LM formulation used to re-enumerate Grid.Paths() and
// re-evaluate truth.FromCover from scratch. Each cache here is a mutexed
// LRU with a cost budget (not an entry count: a single wide lattice's
// path list can outweigh a thousand small ones), safe under concurrent
// syntheses and the attempts a dichotomic step runs side by side. Cached
// values are shared; callers must treat them as immutable.
package memo

import (
	"container/list"
	"encoding/binary"
	"sort"
	"sync"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/truth"
)

// cache is a mutex-protected LRU keyed by string, evicting by total cost.
type cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used
	items  map[string]*list.Element
	hits   int64
	misses int64
}

type entry struct {
	key  string
	val  any
	cost int64
}

func newCache(budget int64) *cache {
	return &cache{budget: budget, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *cache) get(k string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.order.MoveToFront(e)
		c.hits++
		return e.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

// put inserts a computed value. Concurrent computers of the same key may
// both call put; the second insert is dropped (the values are equal).
func (c *cache) put(k string, v any, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[k]; ok {
		return
	}
	c.items[k] = c.order.PushFront(&entry{key: k, val: v, cost: cost})
	c.used += cost
	// Evict least-recently-used entries over budget, but always keep the
	// newest so an oversized value cannot wedge the cache empty.
	for c.used > c.budget && c.order.Len() > 1 {
		back := c.order.Back()
		ent := back.Value.(*entry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.cost
	}
}

func (c *cache) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *cache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.used, c.hits, c.misses = 0, 0, 0
}

// Budgets, in cache-specific cost units (see the cost expressions at the
// put sites). Sized for tens of MB total, far above what the paper's
// instance sizes need but bounded against pathological sweeps.
const (
	pathBudget  = 16 << 20 // total path cells across cached enumerations
	tableBudget = 4 << 20  // total 64-bit words across cached tables
	coverBudget = 1 << 20  // total cubes across cached covers
)

var (
	pathCache  = newCache(pathBudget)
	tableCache = newCache(tableBudget)
	coverCache = newCache(coverBudget)
)

// The cache counters are exposed through the process-wide metrics
// registry (janus_memo_*), so /metrics, expvar, and the cmd footers read
// hit rates from one place instead of re-threading Snapshot by hand.
// They are function-backed gauges, not counters, because Reset may send
// them back to zero.
func init() {
	for _, c := range []struct {
		name  string
		cache *cache
	}{
		{"paths", pathCache},
		{"tables", tableCache},
		{"covers", coverCache},
	} {
		cache := c.cache
		obsv.Default.RegisterFunc("janus_memo_"+c.name+"_hits", func() int64 {
			h, _ := cache.counters()
			return h
		})
		obsv.Default.RegisterFunc("janus_memo_"+c.name+"_misses", func() int64 {
			_, m := cache.counters()
			return m
		})
	}
}

// gridKey encodes (M, N, dual) into a compact string key.
func gridKey(g lattice.Grid, dual bool) string {
	var b [9]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(g.M))
	binary.LittleEndian.PutUint32(b[4:], uint32(g.N))
	if dual {
		b[8] = 1
	}
	return string(b[:])
}

// coverKey builds the canonical key of a cover: the variable count plus
// the (Pos, Neg) masks of its cubes in sorted order, so permutations of
// the same cube set share one cache line. The key is exact — no hashing —
// so collisions cannot alias two different functions.
func coverKey(f cube.Cover) string {
	cubes := append([]cube.Cube(nil), f.Cubes...)
	sort.Slice(cubes, func(i, j int) bool {
		if cubes[i].Pos != cubes[j].Pos {
			return cubes[i].Pos < cubes[j].Pos
		}
		return cubes[i].Neg < cubes[j].Neg
	})
	b := make([]byte, 4+16*len(cubes))
	binary.LittleEndian.PutUint32(b[0:], uint32(f.N))
	for i, c := range cubes {
		binary.LittleEndian.PutUint64(b[4+16*i:], c.Pos)
		binary.LittleEndian.PutUint64(b[12+16*i:], c.Neg)
	}
	return string(b)
}

// CoverKey exposes the canonical cover key for callers that need to
// index their own per-function state (the shared-solver pool keys its
// engines by cover and orientation) with the same exactness guarantee.
func CoverKey(f cube.Cover) string { return coverKey(f) }

// Paths returns the minimal-path enumeration of the grid (primal
// top–bottom, or dual 8-connected left–right), cached process-wide. The
// returned slice is shared: callers must not modify it or the paths'
// Cells.
func Paths(g lattice.Grid, dual bool) []lattice.Path {
	k := gridKey(g, dual)
	if v, ok := pathCache.get(k); ok {
		return v.([]lattice.Path)
	}
	ps := g.PathsOf(dual)
	cost := int64(1)
	for _, p := range ps {
		cost += int64(len(p.Cells))
	}
	pathCache.put(k, ps, cost)
	return ps
}

// Function returns the lattice (dual) function cover, cached
// process-wide. The cover's cube slice is cloned on the way out so the
// caller may extend it freely.
func Function(g lattice.Grid, dual bool) cube.Cover {
	k := gridKey(g, dual)
	if v, ok := coverCache.get(k); ok {
		f := v.(cube.Cover)
		return cube.Cover{N: f.N, Cubes: append([]cube.Cube(nil), f.Cubes...)}
	}
	f := g.FunctionOf(dual)
	coverCache.put(k, f, int64(len(f.Cubes))+1)
	return cube.Cover{N: f.N, Cubes: append([]cube.Cube(nil), f.Cubes...)}
}

// TableOf returns the truth table of the cover, cached process-wide
// under the cover's canonical cube key. The returned table is shared:
// callers must treat it as read-only.
func TableOf(f cube.Cover) *truth.Table {
	k := coverKey(f)
	if v, ok := tableCache.get(k); ok {
		return v.(*truth.Table)
	}
	t := truth.FromCover(f)
	words := int64(1)
	if f.N > 6 {
		words = 1 << uint(f.N-6)
	}
	tableCache.put(k, t, words)
	return t
}

// Stats is a snapshot of the cache hit/miss counters.
type Stats struct {
	PathHits, PathMisses   int64
	TableHits, TableMisses int64
	CoverHits, CoverMisses int64
}

// Hits returns the total hits across all caches.
func (s Stats) Hits() int64 { return s.PathHits + s.TableHits + s.CoverHits }

// Misses returns the total misses across all caches.
func (s Stats) Misses() int64 { return s.PathMisses + s.TableMisses + s.CoverMisses }

// Sub returns the counter deltas s − t, for windowed measurements.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		PathHits: s.PathHits - t.PathHits, PathMisses: s.PathMisses - t.PathMisses,
		TableHits: s.TableHits - t.TableHits, TableMisses: s.TableMisses - t.TableMisses,
		CoverHits: s.CoverHits - t.CoverHits, CoverMisses: s.CoverMisses - t.CoverMisses,
	}
}

// Snapshot reads the current process-wide counters.
func Snapshot() Stats {
	var s Stats
	s.PathHits, s.PathMisses = pathCache.counters()
	s.TableHits, s.TableMisses = tableCache.counters()
	s.CoverHits, s.CoverMisses = coverCache.counters()
	return s
}

// Reset clears all caches and counters. Intended for tests and
// benchmarks that need cold-cache or exact-count conditions.
func Reset() {
	pathCache.reset()
	tableCache.reset()
	coverCache.reset()
}
