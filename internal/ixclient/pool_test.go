package ixclient

import (
	"fmt"
	"testing"

	"efind/internal/lru"
	"efind/internal/sim"
)

// newPooledPair returns two clients (standing in for two jobs) attached
// to one pool over independent accessor instances of the same index.
func newPooledPair(p *Pool) (a, b *Client, fa, fb *fakeIndex) {
	fa, fb = newFake("kv"), newFake("kv")
	a = New(fa, Options{Op: "op", CacheMode: CacheReal, SharedCache: p})
	b = New(fb, Options{Op: "op", CacheMode: CacheReal, SharedCache: p})
	return a, b, fa, fb
}

func TestPoolSharesHitsAcrossClients(t *testing.T) {
	p := NewPool(0)
	a, b, fa, fb := newPooledPair(p)

	// Job A misses and warms the pool.
	if got := a.Lookup(testCtx(0), "a"); got[0] != "va" {
		t.Fatalf("job A lookup = %v", got)
	}
	if fa.calls != 1 {
		t.Fatalf("job A index calls = %d, want 1", fa.calls)
	}
	// Job B on the same node hits the pooled cache: its index is never
	// consulted, but its own shadow still records a (cold) miss so the
	// R it reports matches an isolated run.
	ctxB := testCtx(0)
	if got := b.Lookup(ctxB, "a"); got[0] != "va" {
		t.Fatalf("job B lookup = %v", got)
	}
	if fb.calls != 0 {
		t.Fatalf("job B index calls = %d, want 0 (pool hit)", fb.calls)
	}
	if m := ctxB.Counter(CtrMisses("op", "kv")); m != 1 {
		t.Fatalf("job B shadow misses = %d, want 1 (per-job R stays isolated)", m)
	}
	if hits, misses := p.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
	// A different node starts cold even with the pool warm elsewhere.
	if got := b.Lookup(testCtx(1), "a"); got[0] != "va" {
		t.Fatalf("job B node-1 lookup = %v", got)
	}
	if fb.calls != 1 {
		t.Fatalf("pooled caches must stay per-node; calls = %d, want 1", fb.calls)
	}
}

func TestPoolShadowRMatchesIsolated(t *testing.T) {
	// The same key stream through (a) an isolated CacheReal client and
	// (b) a pooled client whose pool another job pre-warmed must report
	// identical probe/miss counters: the pool accelerates serving, the
	// shadow keeps the measured R per-job.
	stream := []string{"a", "b", "a", "c", "b", "a", "c", "c", "b"}

	iso := New(newFake("kv"), Options{Op: "op", CacheMode: CacheReal})
	isoCtx := testCtx(0)
	for _, k := range stream {
		iso.Lookup(isoCtx, k)
	}

	p := NewPool(0)
	warm, pooled, _, _ := newPooledPair(p)
	for _, k := range []string{"a", "b", "c"} {
		warm.Lookup(testCtx(0), k)
	}
	pooledCtx := testCtx(0)
	for _, k := range stream {
		pooled.Lookup(pooledCtx, k)
	}

	probes, misses := CtrProbes("op", "kv"), CtrMisses("op", "kv")
	if isoCtx.Counter(probes) != pooledCtx.Counter(probes) {
		t.Fatalf("probes diverge: isolated %d, pooled %d", isoCtx.Counter(probes), pooledCtx.Counter(probes))
	}
	if isoCtx.Counter(misses) != pooledCtx.Counter(misses) {
		t.Fatalf("misses diverge: isolated %d, pooled %d — per-job R must match the isolated value",
			isoCtx.Counter(misses), pooledCtx.Counter(misses))
	}
	// And the pool did accelerate: the pooled job's index saw no calls
	// beyond what the shadow model predicts for a warm cache.
	if hits, _ := p.Stats(); hits == 0 {
		t.Fatal("pooled run should have hit the pre-warmed pool")
	}
}

func TestPoolSnapshotRollback(t *testing.T) {
	p := NewPool(0)
	a, b, _, _ := newPooledPair(p)
	a.Lookup(testCtx(0), "a")
	b.Lookup(testCtx(0), "b")
	wantHits, wantMisses := p.Stats()

	rollback := p.SnapshotNode(0)
	a.Lookup(testCtx(0), "c")
	b.Lookup(testCtx(0), "c")
	rollback()

	if hits, misses := p.Stats(); hits != wantHits || misses != wantMisses {
		t.Fatalf("pool stats after rollback = %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
	cc := p.cacheFor("kv", 0)
	if _, ok := cc.Get("c"); ok {
		t.Fatal("rolled-back entry survived in the pool")
	}
	if _, ok := cc.Get("a"); !ok {
		t.Fatal("pre-snapshot entry lost by rollback")
	}
}

func TestPoolSnapshotResetsLateCaches(t *testing.T) {
	p := NewPool(0)
	a, _, _, _ := newPooledPair(p)
	rollback := p.SnapshotNode(0)
	a.Lookup(testCtx(0), "a") // creates the (kv, 0) cache after the guard
	rollback()
	if got := p.cacheFor("kv", 0).Len(); got != 0 {
		t.Fatalf("cache created after the snapshot must reset on rollback, has %d entries", got)
	}
}

func TestPoolResetNode(t *testing.T) {
	p := NewPool(0)
	a, _, _, _ := newPooledPair(p)
	a.Lookup(testCtx(0), "a")
	a.Lookup(testCtx(1), "a")
	p.ResetNode(0)
	if p.cacheFor("kv", 0).Len() != 0 {
		t.Fatal("node 0 pool cache should be cold after reset")
	}
	if p.cacheFor("kv", 1).Len() != 1 {
		t.Fatal("node 1 pool cache must survive node 0's reset")
	}
}

// BenchmarkSnapshotNode10kNodes shows the satellite win: the per-attempt
// cache guard at 10k warmed nodes. "journal" is the shipping
// Client.SnapshotNode (O(1) begin + O(ops) rollback); "eager" reproduces
// the replaced implementation, which copied every cache entry per guard.
func BenchmarkSnapshotNode10kNodes(b *testing.B) {
	const nodes = 10000
	const warm = 128

	build := func() *Client {
		c := New(newFake("kv"), Options{Op: "op", CacheMode: CacheReal})
		for n := 0; n < nodes; n++ {
			cc := c.cacheFor(sim.NodeID(n), false)
			for i := 0; i < warm; i++ {
				cc.Put(fmt.Sprintf("k%06d", i), nil)
			}
		}
		return c
	}

	b.Run("journal", func(b *testing.B) {
		c := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node := sim.NodeID(i % nodes)
			rollback := c.SnapshotNode(node)
			c.cacheFor(node, false).Put("hot", nil)
			rollback()
		}
	})
	b.Run("eager", func(b *testing.B) {
		c := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cc := c.cacheFor(sim.NodeID(i%nodes), false)
			snap := cc.Snapshot()
			cc.Put("hot", nil)
			cc.Restore(snap)
		}
	})
}

// BenchmarkPoolSnapshotNode10kNodes is the pool's twin of
// BenchmarkSnapshotNode10kNodes: the per-attempt guard of the cross-job
// pool at 10k warmed nodes × 2 indices. "by-node" is the shipping
// Pool.SnapshotNode, which reaches one node's caches directly; "flat-scan"
// reproduces the replaced (index, node)-keyed layout, which scanned every
// pooled cache under the pool mutex on every attempt.
func BenchmarkPoolSnapshotNode10kNodes(b *testing.B) {
	const nodes = 10000
	const warm = 128
	indices := []string{"kv", "geo"}

	p := NewPool(0)
	type flatKey struct {
		index string
		node  sim.NodeID
	}
	flat := make(map[flatKey]*lru.Cache, nodes*len(indices))
	for n := 0; n < nodes; n++ {
		for _, ix := range indices {
			cc := p.cacheFor(ix, sim.NodeID(n))
			for i := 0; i < warm; i++ {
				cc.Put(fmt.Sprintf("k%06d", i), nil)
			}
			flat[flatKey{ix, sim.NodeID(n)}] = cc
		}
	}

	b.Run("by-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			node := sim.NodeID(i % nodes)
			rollback := p.SnapshotNode(node)
			p.cacheFor("kv", node).Put("hot", nil)
			rollback()
		}
	})
	b.Run("flat-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			node := sim.NodeID(i % nodes)
			var undos []*lru.Undo
			for k, cc := range flat {
				if k.node == node {
					undos = append(undos, cc.Begin())
				}
			}
			flat[flatKey{"kv", node}].Put("hot", nil)
			for _, u := range undos {
				u.Rollback()
			}
		}
	})
}
