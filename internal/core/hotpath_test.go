package core

import (
	"testing"

	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// inlineCacheHitAllocs is the pinned per-record allocation count of the
// inline lookup-cache stage serving a cache hit: the carrier and its
// result lists, plus the index client's request, key list and result
// slice. Counter and sketch updates add nothing — their names are
// resolved into handles when the plan is compiled.
const inlineCacheHitAllocs = 6

// TestInlineCacheHitAllocs drives the inline ModeCache stage over warm
// cache hits and pins its allocations per record, so a per-record
// counter-name build (or any other new per-record allocation) on the
// runtime's hottest path fails here.
func TestInlineCacheHitAllocs(t *testing.T) {
	cluster := sim.NewCluster(sim.DefaultConfig())
	keys := [][]string{{"ik0042"}}
	op := NewOperator("hotpath",
		func(in Pair) PreResult { return PreResult{Pair: in, Keys: keys} },
		func(pair Pair, _ [][]KeyResult, emit Emit) { emit(pair) })
	op.AddIndex(fakeAccessor{name: "ix"})
	plan := OperatorPlan{Op: op, Pos: HeadOp, Decisions: []Decision{{Index: 0, Strategy: LookupCache}}}
	stage := newOpExec(op, plan, &IndexJobConf{}).inlineStage()(0)

	ctx := mapreduce.NewTaskContext(cluster, 0, 0, mapreduce.MapTask)
	in := Pair{Key: "r00001", Value: "payload ik0042"}
	emitted := 0
	sink := func(Pair) { emitted++ }
	stage.Open(ctx)
	stage.Process(ctx, in, sink) // miss: warms the cache, slots and sketch
	allocs := testing.AllocsPerRun(1000, func() { stage.Process(ctx, in, sink) })
	if emitted == 0 {
		t.Fatal("stage emitted nothing")
	}
	if ctx.Counter("efind.hotpath.ix.ix.cache.misses") != 1 {
		t.Fatalf("cache misses = %d, want 1 (later records must hit)", ctx.Counter("efind.hotpath.ix.ix.cache.misses"))
	}
	t.Logf("%.1f allocs per cache-hit record", allocs)
	if allocs > inlineCacheHitAllocs {
		t.Fatalf("inline cache-hit stage allocates %.1f per record, want at most %d", allocs, inlineCacheHitAllocs)
	}
}
