package ixclient

import (
	"sort"
	"sync"

	"efind/internal/lru"
	"efind/internal/sim"
)

// Pool is the cross-job shared lookup cache of the multi-tenant job
// service: real per-(index, node) LRU caches that outlive any single job,
// so a tenant's repeated query family finds the per-machine caches
// already warm (the paper's per-machine lookup cache of §3.2 promoted to
// service soft state). Clients attach via Options.SharedCache; a pooled
// client serves real hits from the pool but keeps its own per-job shadow
// cache, so the miss ratio R each job's optimizer observes is the value
// the job would measure running alone (per-job shadow accounting).
//
// Concurrency and determinism: the pool and its caches are individually
// locked, so access is memory-safe under any schedule. Determinism of
// pooled contents relies on the job service's execution discipline — the
// service runs one job's phase at a time in deterministic grant order, so
// the pool state a phase observes is a pure function of the admission
// trace and seed. Visibility is therefore phase-granular: a phase sees
// the pool as of the phases that completed before it in grant order, not
// the fine-grained virtual-time interleaving of individual lookups.
type Pool struct {
	capacity int

	// nodes keys the pooled caches by node first, then index: the
	// per-attempt guard and the crash reset touch one node's caches, so
	// their cost does not grow with the cluster.
	mu    sync.Mutex
	nodes map[sim.NodeID]map[string]*lru.Cache
}

// NewPool returns an empty pool whose per-(index, node) caches hold up to
// capacity entries each (0 = the paper's 1024).
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Pool{capacity: capacity, nodes: make(map[sim.NodeID]map[string]*lru.Cache)}
}

// Capacity returns the per-cache entry bound.
func (p *Pool) Capacity() int { return p.capacity }

// cacheFor returns the pooled cache for one index on one node, creating
// it lazily. All clients attached to the pool share it.
func (p *Pool) cacheFor(index string, node sim.NodeID) *lru.Cache {
	p.mu.Lock()
	defer p.mu.Unlock()
	byIndex, ok := p.nodes[node]
	if !ok {
		byIndex = make(map[string]*lru.Cache)
		p.nodes[node] = byIndex
	}
	cc, ok := byIndex[index]
	if !ok {
		cc = lru.New(p.capacity)
		byIndex[index] = cc
	}
	return cc
}

// SnapshotNode begins an undo journal on every pooled cache of one node
// and returns a rollback that rewinds them, resetting any cache the node
// acquired after the snapshot. The compiled plan's attempt guard calls it
// once per task attempt — alongside, not through, the per-client guards,
// because pooled caches are shared across clients and a second Begin on
// the same cache would supersede the first journal.
func (p *Pool) SnapshotNode(node sim.NodeID) func() {
	p.mu.Lock()
	var caches []*lru.Cache
	var undos []*lru.Undo
	for _, cc := range p.nodes[node] {
		caches = append(caches, cc)
		undos = append(undos, cc.Begin())
	}
	p.mu.Unlock()
	return func() {
		for _, u := range undos {
			u.Rollback()
		}
		known := make(map[*lru.Cache]bool, len(caches))
		for _, cc := range caches {
			known[cc] = true
		}
		p.mu.Lock()
		for _, cc := range p.nodes[node] {
			if !known[cc] {
				cc.Reset()
			}
		}
		p.mu.Unlock()
	}
}

// ResetNode drops every pooled cache on one node: a crashed machine
// reboots with its service soft state cold, for every index and every
// job alike.
func (p *Pool) ResetNode(node sim.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.nodes, node)
}

// PoolEntry is the serializable state of one pooled cache, produced by
// Dump and consumed by Restore — the job service checkpoints these so a
// recovered coordinator re-warms the cross-job caches to their exact
// pre-crash contents (entries in recency order, statistics included).
type PoolEntry struct {
	Index        string
	Node         sim.NodeID
	Keys         []string // oldest → newest
	Values       [][]string
	Hits, Misses int64
}

// Dump returns every pooled cache's state in deterministic (index, node)
// order. Empty caches with history (hits/misses) are included; a Dump of
// a fresh pool is empty.
func (p *Pool) Dump() []PoolEntry {
	type pooled struct {
		index string
		node  sim.NodeID
		cache *lru.Cache
	}
	p.mu.Lock()
	var all []pooled
	for node, byIndex := range p.nodes {
		for index, cc := range byIndex {
			all = append(all, pooled{index, node, cc})
		}
	}
	p.mu.Unlock()
	sort.Slice(all, func(a, b int) bool {
		if all[a].index != all[b].index {
			return all[a].index < all[b].index
		}
		return all[a].node < all[b].node
	})
	out := make([]PoolEntry, 0, len(all))
	for _, c := range all {
		e := PoolEntry{Index: c.index, Node: c.node}
		e.Keys, e.Values, e.Hits, e.Misses = c.cache.Dump()
		out = append(out, e)
	}
	return out
}

// Restore replaces the pool's contents with a dumped state. Caches not
// named in entries are dropped.
func (p *Pool) Restore(entries []PoolEntry) {
	p.mu.Lock()
	p.nodes = make(map[sim.NodeID]map[string]*lru.Cache)
	p.mu.Unlock()
	for _, e := range entries {
		cc := p.cacheFor(e.Index, e.Node)
		cc.Load(e.Keys, e.Values, e.Hits, e.Misses)
	}
}

// Stats sums probe hits and misses over every pooled cache — the
// service-level view of how much cross-job reuse the pool delivers.
func (p *Pool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, byIndex := range p.nodes {
		for _, cc := range byIndex {
			h, m := cc.Stats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// HitRatio returns hits/(hits+misses) across the pool, or 0 when the
// pool has never been probed.
func (p *Pool) HitRatio() float64 {
	hits, misses := p.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
