package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/vfs"
)

// tracer records per-layer figures at the public seams the benchmark
// owns: the user functions it hands to the runtime, the index accessors
// it attaches to operators, and the filesystem it gives the job service.
// It never reaches inside the program. A nil *tracer disables tracing:
// every wrap method then returns its argument unchanged, so untraced runs
// execute exactly the code a user would write.
type tracer struct {
	pre, post, mapFn, reduceFn busy
	extract                    busy // Buildable.Extract called by the map-side build stage
	extractCalls               atomic.Int64
	serve                      serveStats
	wal, ckpt                  ioStats
	checkpoints                atomic.Int64 // temp files renamed into place
}

// busy accumulates calls and self time (nanoseconds) of one seam.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) add(d time.Duration) {
	b.calls.Add(1)
	b.ns.Add(int64(d))
}

func (b *busy) seconds() float64 { return float64(b.ns.Load()) / 1e9 }

// timedEmit wraps emit so the time spent downstream of it can be taken
// out of the caller's self time.
func timedEmit(emit mapreduce.Emit, inner *time.Duration) mapreduce.Emit {
	return func(p mapreduce.Pair) {
		t := time.Now()
		emit(p)
		*inner += time.Since(t)
	}
}

func (t *tracer) wrapPre(f core.PreFunc) core.PreFunc {
	if t == nil {
		return f
	}
	return func(in core.Pair) core.PreResult {
		start := time.Now()
		r := f(in)
		t.pre.add(time.Since(start))
		return r
	}
}

func (t *tracer) wrapPost(f core.PostFunc) core.PostFunc {
	if t == nil {
		return f
	}
	return func(p core.Pair, res [][]core.KeyResult, emit core.Emit) {
		var inner time.Duration
		start := time.Now()
		f(p, res, timedEmit(emit, &inner))
		t.post.add(time.Since(start) - inner)
	}
}

func (t *tracer) wrapMap(f mapreduce.MapFunc) mapreduce.MapFunc {
	if t == nil {
		return f
	}
	return func(ctx *mapreduce.TaskContext, in mapreduce.Pair, emit mapreduce.Emit) {
		var inner time.Duration
		start := time.Now()
		f(ctx, in, timedEmit(emit, &inner))
		t.mapFn.add(time.Since(start) - inner)
	}
}

func (t *tracer) wrapReduce(f mapreduce.ReduceFunc) mapreduce.ReduceFunc {
	if t == nil {
		return f
	}
	return func(ctx *mapreduce.TaskContext, key string, values []string, emit mapreduce.Emit) {
		var inner time.Duration
		start := time.Now()
		f(ctx, key, values, timedEmit(emit, &inner))
		t.reduceFn.add(time.Since(start) - inner)
	}
}

// wrapExtract counts every call of an adaptix.Config.Extract function:
// the map-side build stage and the scan fallback of lookups both call it.
func (t *tracer) wrapExtract(f func(key, value string) []index.BuildEntry) func(key, value string) []index.BuildEntry {
	if t == nil {
		return f
	}
	return func(key, value string) []index.BuildEntry {
		t.extractCalls.Add(1)
		return f(key, value)
	}
}

// serveStats is what the accessor wrappers see of index serving.
type serveStats struct {
	lookups, batches, keys, valueBytes atomic.Int64
	ns                                 atomic.Int64

	mu    sync.Mutex
	calls []time.Duration // one per Lookup, BatchLookup or Probe call
}

func (s *serveStats) record(d time.Duration, keys int, valueBytes int64) {
	s.keys.Add(int64(keys))
	s.valueBytes.Add(valueBytes)
	s.ns.Add(int64(d))
	s.mu.Lock()
	s.calls = append(s.calls, d)
	s.mu.Unlock()
}

func sizeOf(vals []string) int64 {
	var n int64
	for _, v := range vals {
		n += int64(len(v))
	}
	return n
}

// callQuantileUS returns the q-quantile of per-call serve latency in µs.
func (s *serveStats) callQuantileUS(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := make([]float64, len(s.calls))
	for i, d := range s.calls {
		xs[i] = float64(d) / 1e3
	}
	return quantile(xs, q)
}

// wrapIndex returns acc behind a timing wrapper that implements exactly
// the optional index interfaces acc implements. A wrapper that dropped
// one would silently change the program's behaviour (without Scheme() the
// planner never picks index locality), so combinations the benchmark has
// no wrapper for are an error rather than a partial forward.
func (t *tracer) wrapIndex(acc index.Accessor) (index.Accessor, error) {
	if t == nil {
		return acc, nil
	}
	base := servedIndex{acc: acc, st: &t.serve}
	var w index.Accessor
	switch ifaces := optionalIfaces(acc); ifaces {
	case "batch+partitioned+prober":
		w = &servedStore{servedIndex: base,
			part: acc.(index.Partitioned), batch: acc.(index.BatchAccessor), prober: acc.(index.Prober)}
	case "buildable+sourced":
		w = &servedBuildable{servedIndex: base, b: acc.(index.Buildable), src: acc.(sourced), t: t}
	default:
		return nil, fmt.Errorf("no transparent wrapper for index %s implementing %s", acc.Name(), ifaces)
	}
	if got, want := optionalIfaces(w), optionalIfaces(acc); got != want {
		return nil, fmt.Errorf("wrapper of index %s implements %q, index implements %q", acc.Name(), got, want)
	}
	return w, nil
}

// sourced is implemented by buildable indices that name the file their
// splits come from; the plan compiler checks it against the job input.
type sourced interface{ Source() *dfs.File }

// optionalIfaces names the optional index interfaces a implements.
func optionalIfaces(a index.Accessor) string {
	var names []string
	if _, ok := a.(index.BatchAccessor); ok {
		names = append(names, "batch")
	}
	if _, ok := a.(index.Buildable); ok {
		names = append(names, "buildable")
	}
	if _, ok := a.(index.Partitioned); ok {
		names = append(names, "partitioned")
	}
	if _, ok := a.(index.Prober); ok {
		names = append(names, "prober")
	}
	if _, ok := a.(sourced); ok {
		names = append(names, "sourced")
	}
	return strings.Join(names, "+")
}

type servedIndex struct {
	acc index.Accessor
	st  *serveStats
}

func (x *servedIndex) Name() string                     { return x.acc.Name() }
func (x *servedIndex) ServeTime() float64               { return x.acc.ServeTime() }
func (x *servedIndex) HostsFor(key string) []sim.NodeID { return x.acc.HostsFor(key) }

func (x *servedIndex) Lookup(key string) ([]string, error) {
	start := time.Now()
	vals, err := x.acc.Lookup(key)
	x.st.record(time.Since(start), 1, sizeOf(vals))
	x.st.lookups.Add(1)
	return vals, err
}

type servedStore struct {
	servedIndex
	part   index.Partitioned
	batch  index.BatchAccessor
	prober index.Prober
}

func (x *servedStore) Scheme() *index.Scheme { return x.part.Scheme() }

func (x *servedStore) BatchLookup(keys []string) ([][]string, error) {
	start := time.Now()
	vals, err := x.batch.BatchLookup(keys)
	d := time.Since(start)
	var n int64
	for _, vs := range vals {
		n += sizeOf(vs)
	}
	x.st.record(d, len(keys), n)
	x.st.batches.Add(1)
	return vals, err
}

func (x *servedStore) Probe(key string) (bool, int, error) {
	start := time.Now()
	found, n, err := x.prober.Probe(key)
	x.st.record(time.Since(start), 1, int64(n))
	x.st.lookups.Add(1)
	return found, n, err
}

// servedBuildable forwards the adaptive-build protocol. Extract is timed
// here, where the map-side build stage calls it; extraction done by the
// scan fallback happens inside Lookup and counts as serve time.
type servedBuildable struct {
	servedIndex
	b   index.Buildable
	src sourced
	t   *tracer
}

func (x *servedBuildable) Source() *dfs.File                               { return x.src.Source() }
func (x *servedBuildable) BuildProgress() (int, int)                       { return x.b.BuildProgress() }
func (x *servedBuildable) IsBuilt(split int) bool                          { return x.b.IsBuilt(split) }
func (x *servedBuildable) ScanServeTime() float64                          { return x.b.ScanServeTime() }
func (x *servedBuildable) BuildCharge() float64                            { return x.b.BuildCharge() }
func (x *servedBuildable) OfferSplits() []int                              { return x.b.OfferSplits() }
func (x *servedBuildable) SnapshotBuild(n sim.NodeID) func()               { return x.b.SnapshotBuild(n) }
func (x *servedBuildable) ResetBuild(n sim.NodeID)                         { x.b.ResetBuild(n) }
func (x *servedBuildable) Commit() int                                     { return x.b.Commit() }
func (x *servedBuildable) Abandon()                                        { x.b.Abandon() }
func (x *servedBuildable) Stage(n sim.NodeID, s int, e []index.BuildEntry) { x.b.Stage(n, s, e) }

func (x *servedBuildable) Extract(key, value string) []index.BuildEntry {
	start := time.Now()
	e := x.b.Extract(key, value)
	x.t.extract.add(time.Since(start))
	return e
}

// ioStats is what the filesystem wrapper sees of one durability layer.
type ioStats struct {
	writes, bytes, syncs, ns atomic.Int64
}

// tracedFS classifies the job service's storage traffic by file: append
// files ending in .wal are journal segments (layer wal); temp files and
// their rename targets are checkpoint snapshots (layer fstore).
type tracedFS struct {
	fs vfs.FS
	t  *tracer
}

func (t *tracer) wrapFS(fs vfs.FS) vfs.FS {
	if t == nil {
		return fs
	}
	return &tracedFS{fs: fs, t: t}
}

func (f *tracedFS) layer(path string) *ioStats {
	if filepath.Ext(path) == ".wal" {
		return &f.t.wal
	}
	return &f.t.ckpt
}

func (f *tracedFS) timed(path string, op func() error) error {
	start := time.Now()
	err := op()
	f.layer(path).ns.Add(int64(time.Since(start)))
	return err
}

func (f *tracedFS) MkdirAll(dir string) error { return f.fs.MkdirAll(dir) }

func (f *tracedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	var file vfs.File
	err := f.timed(pattern, func() (err error) { file, err = f.fs.CreateTemp(dir, pattern); return })
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, st: &f.t.ckpt}, nil
}

func (f *tracedFS) OpenAppend(path string) (vfs.File, error) {
	var file vfs.File
	err := f.timed(path, func() (err error) { file, err = f.fs.OpenAppend(path); return })
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, st: f.layer(path)}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.timed(newpath, func() error { return f.fs.Rename(oldpath, newpath) })
	if err == nil && f.layer(newpath) == &f.t.ckpt {
		f.t.checkpoints.Add(1)
	}
	return err
}

func (f *tracedFS) Remove(path string) error {
	return f.timed(path, func() error { return f.fs.Remove(path) })
}

func (f *tracedFS) ReadFile(path string) ([]byte, error) {
	var b []byte
	err := f.timed(path, func() (err error) { b, err = f.fs.ReadFile(path); return })
	return b, err
}

func (f *tracedFS) ReadDir(dir string) ([]string, error) { return f.fs.ReadDir(dir) }

type tracedFile struct {
	vfs.File
	st *ioStats
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.st.ns.Add(int64(time.Since(start)))
	f.st.writes.Add(1)
	f.st.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.st.ns.Add(int64(time.Since(start)))
	f.st.syncs.Add(1)
	return err
}

func (f *tracedFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.st.ns.Add(int64(time.Since(start)))
	return err
}
