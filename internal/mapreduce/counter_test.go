package mapreduce

import (
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestCounterKeySetIdentity pins the fold from slots back to names: every
// counter a task touched — by handle or by name, zero deltas included —
// appears in TaskStats.Counters, nothing else does, and sketches keep
// their names.
func TestCounterKeySetIdentity(t *testing.T) {
	e := &Engine{}
	ctx := NewTaskContext(nil, 0, 3, MapTask)
	ctx.Add(CounterFor("keyset.handle.zero"), 0)
	ctx.Inc("keyset.name.zero", 0)
	ctx.Add(CounterFor("keyset.handle"), 5)
	ctx.Inc("keyset.name", 7)
	ctx.Inc("keyset.handle", 1)
	ctx.Sketch("keyset.fm", 8).Add("a")
	ctx.SketchAt(SketchFor("keyset.fm2"), 8).Add("b")
	CounterFor("keyset.never.touched")

	st := e.taskStats(ctx)
	want := map[string]int64{
		"keyset.handle.zero": 0,
		"keyset.name.zero":   0,
		"keyset.handle":      6,
		"keyset.name":        7,
	}
	if !reflect.DeepEqual(st.Counters, want) {
		t.Fatalf("counters = %v, want %v", st.Counters, want)
	}
	var sketches []string
	for k := range st.Sketches {
		sketches = append(sketches, k)
	}
	sort.Strings(sketches)
	if !reflect.DeepEqual(sketches, []string{"keyset.fm", "keyset.fm2"}) {
		t.Fatalf("sketch keys = %v", sketches)
	}

	empty := e.taskStats(NewTaskContext(nil, 0, 0, MapTask))
	if len(empty.Counters) != 0 || empty.Sketches != nil {
		t.Fatalf("untouched task folded %v / %v, want no counters and nil sketches", empty.Counters, empty.Sketches)
	}
}

// TestCounterNameHandleRoundTrip: a value written through a handle reads
// back by name and the reverse, and both forms share one sketch.
func TestCounterNameHandleRoundTrip(t *testing.T) {
	ctx := NewTaskContext(nil, 0, 0, MapTask)
	h := CounterFor("roundtrip.by.handle")
	ctx.Add(h, 11)
	if got := ctx.Counter("roundtrip.by.handle"); got != 11 {
		t.Fatalf("Counter(name) after Add(handle) = %d, want 11", got)
	}
	ctx.Inc("roundtrip.by.name", 4)
	ctx.Add(CounterFor("roundtrip.by.name"), 2)
	if got := ctx.Counter("roundtrip.by.name"); got != 6 {
		t.Fatalf("Counter(name) after Inc+Add = %d, want 6", got)
	}
	if got := ctx.Counter("roundtrip.never.interned"); got != 0 {
		t.Fatalf("unknown counter reads %d, want 0", got)
	}
	if got := interned.all()[h]; got != "roundtrip.by.handle" {
		t.Fatalf("handle names %q", got)
	}
	if ctx.Sketch("roundtrip.fm", 8) != ctx.SketchAt(SketchFor("roundtrip.fm"), 8) {
		t.Fatal("Sketch(name) and SketchAt(handle) returned different sketches")
	}
}

// TestCounterForConcurrent: concurrent interning hands every goroutine the
// same handle for a name, and distinct names distinct handles.
func TestCounterForConcurrent(t *testing.T) {
	want := []string{"conc.a", "conc.b", "conc.c", "conc.d"}
	got := make([][]Counter, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, n := range want {
				got[g] = append(got[g], CounterFor(n))
			}
		}(g)
	}
	wg.Wait()
	seen := map[Counter]bool{}
	for i, h := range got[0] {
		if got := interned.all()[h]; got != want[i] {
			t.Fatalf("handle %d names %q, want %q", h, got, want[i])
		}
		seen[h] = true
		for g := range got {
			if got[g][i] != h {
				t.Fatalf("goroutine %d got handle %d for %q, want %d", g, got[g][i], want[i], h)
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("%d distinct handles for %d names", len(seen), len(want))
	}
}

// TestZeroDeltaCounterReachesResult: a user function that touches a
// counter only with zero deltas still surfaces the key in every task's
// stats and in the job's merged counters, as map-backed counters did.
func TestZeroDeltaCounterReachesResult(t *testing.T) {
	fs, e := parEnv(t, 1)
	in := makeInput(t, fs, "in", 50)
	job := &Job{
		Name:  "zero",
		Input: in,
		Map: func(ctx *TaskContext, p Pair, emit Emit) {
			ctx.Inc("user.zero", 0)
			emit(p)
		},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Counters["user.zero"]; !ok || v != 0 {
		t.Fatalf("job counters user.zero = %d, present %v; want 0, present", v, ok)
	}
	for _, st := range res.MapStats {
		if _, ok := st.Counters["user.zero"]; !ok {
			t.Fatalf("map task %d stats miss user.zero: %v", st.ID, st.Counters)
		}
	}
}
