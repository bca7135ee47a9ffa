package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"efind/internal/adaptix"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/jobsvc"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/vfs"
	"efind/internal/workloads"
)

// parallelism pins sim.Config.Parallelism: task bodies run on at most
// this many goroutines whatever GOMAXPROCS is, so load comes from one
// process with a fixed worker count. One worker leaves the second core of
// a 2-core machine to the garbage collector; two workers and the collector
// on two shared cores made wall time twice as noisy (METRICS.md).
const parallelism = 1

// clusterConfig fixes every cost constant of the simulated cluster in
// this file, so virtual time moves only when the program's cost model or
// planner changes, never with the host or a changed default. The
// benchmark never calibrates from the host.
func clusterConfig(nodes int) sim.Config {
	return sim.Config{
		Nodes:              nodes,
		MapSlotsPerNode:    8,
		ReduceSlotsPerNode: 4,
		NetBandwidth:       125e6,
		DiskRate:           150e6,
		DFSWriteCost:       2.5e-8,
		CPUPerRecord:       1e-6,
		CPUPerByte:         4e-9,
		CacheProbeTime:     1e-6,
		TaskStartup:        0.005,
		Parallelism:        parallelism,
	}
}

// Index cost constants (virtual seconds).
const (
	synServeTime = 0.001  // T_j of the generated synthetic index
	adxServeTime = 0.0008 // T_j of the buildable index once fully built
	adxScanTime  = 5e-5   // extra T_j per uncovered split
	adxBuildTime = 2e-5   // build charge per scanned record
	adxOffer     = 0.25   // share of splits one run offers to build
)

// chunkTarget sizes DFS splits so an input of totalBytes has ~240 map
// tasks.
func chunkTarget(totalBytes int) int {
	if t := totalBytes / 240; t > 2048 {
		return t
	}
	return 2048
}

// joinSizes shapes one synthetic join workload.
type joinSizes struct {
	records, keyDomain, valueSize, l, nodes int
}

// serviceSizes shapes the service workload: every job joins the same
// generated input.
type serviceSizes struct {
	joinSizes
	jobsPerTenant, waves int
}

func (p params) joinCache() joinSizes {
	return joinSizes{records: p.scaled(400_000), keyDomain: 800, valueSize: 128, l: 1024, nodes: 12}
}

func (p params) joinRepart() joinSizes {
	n := p.scaled(200_000)
	return joinSizes{records: n, keyDomain: n / 2, valueSize: 128, l: 10, nodes: 12}
}

func (p params) service() serviceSizes {
	n := p.scaled(5_000)
	return serviceSizes{joinSizes: joinSizes{records: n, keyDomain: n / 2, valueSize: 128, l: 64, nodes: 1000},
		jobsPerTenant: 14, waves: 2}
}

// params are the knobs one invocation fixes for all its repetitions.
type params struct {
	seed    int64
	scale   float64 // multiplies record counts; 1 is the benchmark size
	oracles *oracles
}

// oracles caches the expected outputs across repetitions, which all
// regenerate the same inputs from the same seed.
type oracles struct{ kv, adx *oracle }

func (p params) scaled(n int) int {
	if m := int(float64(n) * p.scale); m >= 200 {
		return m
	}
	return 200
}

// env is one freshly built simulated cluster with its DFS and runtime.
type env struct {
	cluster *sim.Cluster
	fs      *dfs.FS
	engine  *mapreduce.Engine
	rt      *core.Runtime
}

func newEnv(nodes int) *env {
	c := sim.NewCluster(clusterConfig(nodes))
	fs := dfs.New(c)
	engine := mapreduce.New(c, fs)
	return &env{cluster: c, fs: fs, engine: engine, rt: core.NewRuntime(engine)}
}

// world is one set-up instance of a workload, ready for its measured
// phase. Every repetition builds a fresh world, so no state carries over.
type world struct {
	jobRecords int64 // input records each submitted job reads
	// prepare computes the oracles on first use; it runs after set-up is
	// timed.
	prepare func() error
	// run is the measured phase: one Runtime.Submit or one Service.Run.
	run   func() ([]jobOut, error)
	close func() error

	generateS, freezeS float64
	backingDirs        []string
	pool               *ixclient.Pool
	registry           *adaptix.Registry
	svc                *jobsvc.Service
}

// jobOut is one submitted job's outcome and the oracle it must match.
type jobOut struct {
	name   string
	res    *core.JobResult
	err    error
	status *jobsvc.JobStatus // nil for one-shot submissions
	want   *oracle
	// waveAt is when the job's arrival wave began (virtual s). The
	// virtual makespan sums each wave's drain time, leaving out the idle
	// gaps between waves.
	waveAt float64
}

// The benchmark's user code: the Fig. 11(f) synthetic join. preProcess
// looks up the record's key; postProcess emits the record key with a
// fixed-size digest of the lookup result instead of copying the
// l-byte value, so the benchmark's own work stays small and constant.
func synPre(in core.Pair) core.PreResult {
	return core.PreResult{Pair: in, Keys: [][]string{{workloads.SyntheticKey(in.Value)}}}
}

func synPost(p core.Pair, results [][]core.KeyResult, emit core.Emit) {
	var vals []string
	if len(results[0]) > 0 {
		vals = results[0][0].Values
	}
	emit(core.Pair{Key: p.Key, Value: digest(vals)})
}

func identityMap(_ *mapreduce.TaskContext, in mapreduce.Pair, emit mapreduce.Emit) { emit(in) }

func identityReduce(_ *mapreduce.TaskContext, key string, values []string, emit mapreduce.Emit) {
	for _, v := range values {
		emit(mapreduce.Pair{Key: key, Value: v})
	}
}

// adxExtract indexes a scanned synthetic record under its join key. The
// value depends only on the key, so a lookup's values are the same at
// any build coverage.
func adxExtract(_, value string) []index.BuildEntry {
	k := workloads.SyntheticKey(value)
	return []index.BuildEntry{{Key: k, Value: "ix(" + k + ")"}}
}

// synJob builds the join as an EFind job over acc, with every user
// function passed through the tracer.
func synJob(name string, input *dfs.File, acc index.Accessor, mode core.Mode, tr *tracer) *core.IndexJobConf {
	op := core.NewOperator("syn", tr.wrapPre(synPre), tr.wrapPost(synPost))
	op.AddIndex(acc)
	conf := &core.IndexJobConf{
		Name:    name,
		Input:   input,
		Mode:    mode,
		Mapper:  tr.wrapMap(identityMap),
		Reducer: tr.wrapReduce(identityReduce),
	}
	conf.AddHeadIndexOperator(op)
	return conf
}

// generate runs the in-repo generator and returns how long it took.
func generate(e *env, sz joinSizes, seed int64) (*dfs.File, *kvstore.Store, float64, error) {
	cfg := workloads.SyntheticConfig{
		Records:        sz.records,
		KeyDomain:      sz.keyDomain,
		ValueSize:      sz.valueSize,
		IndexValueSize: sz.l,
		Partitions:     32,
		Replicas:       3,
		ServeTime:      synServeTime,
		Seed:           seed,
	}
	e.fs.ChunkTarget = chunkTarget(sz.records * (sz.valueSize + 30))
	start := time.Now()
	input, store, err := workloads.GenerateSynthetic(e.fs, "syn", cfg)
	return input, store, time.Since(start).Seconds(), err
}

// setupJoin builds a one-shot synthetic join. fileBacked puts the DFS
// and the frozen index in fstore snapshots under dir and forces the
// re-partitioning strategy; otherwise everything is in memory and the
// job runs in ModeCache.
func setupJoin(sz joinSizes, fileBacked bool, p params, tr *tracer, dir string) (*world, error) {
	e := newEnv(sz.nodes)
	w := &world{jobRecords: int64(sz.records)}
	if fileBacked {
		d := filepath.Join(dir, "dfs")
		if err := e.fs.SetBacking(d); err != nil {
			return nil, err
		}
		w.backingDirs = append(w.backingDirs, d)
	}
	input, store, genS, err := generate(e, sz, p.seed)
	if err != nil {
		return nil, err
	}
	w.generateS = genS
	w.close = func() error {
		return errors.Join(store.Close(), e.engine.Close())
	}
	mode := core.ModeCache
	if fileBacked {
		d := filepath.Join(dir, "index")
		start := time.Now()
		if err := store.Freeze(d); err != nil {
			w.close()
			return nil, err
		}
		w.freezeS = time.Since(start).Seconds()
		w.backingDirs = append(w.backingDirs, d)
		mode = core.ModeCustom
	}
	acc, err := tr.wrapIndex(store)
	if err != nil {
		w.close()
		return nil, err
	}
	conf := synJob("syn-join", input, acc, mode, tr)
	if fileBacked {
		conf.ForceStrategy("syn", store.Name(), core.Repartition)
	}
	w.prepare = func() (err error) {
		if p.oracles.kv == nil {
			p.oracles.kv, err = kvOracle(input, sz.l)
		}
		return err
	}
	w.run = func() ([]jobOut, error) {
		res, err := e.rt.Submit(conf)
		return []jobOut{{name: conf.Name, res: res, err: err, want: p.oracles.kv}}, nil
	}
	return w, nil
}

// Service tenants: two query the generated index through the pooled
// lookup cache; the third queries a buildable index, so build commits
// and registry checkpoints run alongside their reads.
var tenants = []jobsvc.TenantConfig{
	{Name: "alpha", Weight: 2},
	{Name: "beta", Weight: 1},
	{Name: "gamma", Weight: 1, MaxInFlight: 1},
}

// waveGap separates arrival waves on the service clock; it is far longer
// than a wave takes to drain. Within a wave a tenant's jobs arrive
// arrivalGap apart, much faster than a job runs, so queues build.
const (
	waveGap    = 50.0
	arrivalGap = 0.005
)

// setupService builds the durable multi-tenant service.
func setupService(sz serviceSizes, p params, tr *tracer, dir string) (*world, error) {
	e := newEnv(sz.nodes)
	w := &world{jobRecords: int64(sz.records)}
	input, store, genS, err := generate(e, sz.joinSizes, p.seed)
	if err != nil {
		return nil, err
	}
	w.generateS = genS
	adxStore := kvstore.NewHash(e.cluster, "syn-adx", 16, 3, adxServeTime)
	w.close = func() error {
		return errors.Join(adxStore.Close(), store.Close(), e.engine.Close())
	}
	w.registry = adaptix.NewRegistry()
	bix, err := adaptix.New(adaptix.Config{
		Name:      "syn-adx",
		Source:    input,
		Extract:   tr.wrapExtract(adxExtract),
		Store:     adxStore,
		Registry:  w.registry,
		ScanTime:  adxScanTime,
		BuildTime: adxBuildTime,
		OfferRate: adxOffer,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	synAcc, err := tr.wrapIndex(store)
	if err != nil {
		w.close()
		return nil, err
	}
	adxAcc, err := tr.wrapIndex(bix)
	if err != nil {
		w.close()
		return nil, err
	}
	w.prepare = func() (err error) {
		if p.oracles.kv == nil {
			if p.oracles.kv, err = kvOracle(input, sz.l); err != nil {
				return err
			}
		}
		if p.oracles.adx == nil {
			p.oracles.adx, err = adxOracle(input)
		}
		return err
	}

	tcs := make([]jobsvc.TenantConfig, len(tenants))
	copy(tcs, tenants)
	for i := range tcs {
		if tcs[i].MaxInFlight == 0 {
			tcs[i].MaxInFlight = 2
		}
		tcs[i].QueueCap = sz.jobsPerTenant
	}
	// Arrivals come in waves far enough apart that the service drains
	// between them; each drained wave is a quiescent point where the
	// journal folds decided state into a checkpoint.
	perWave := (sz.jobsPerTenant + sz.waves - 1) / sz.waves
	var subs []jobsvc.Submission
	var building []bool // whether job i queries the buildable index
	var waves []float64
	for i := 0; i < sz.jobsPerTenant; i++ {
		waveAt := waveGap * float64(i/perWave)
		for _, tc := range tcs {
			at := waveAt + arrivalGap*float64(i%perWave)
			name := fmt.Sprintf("%s-%02d", tc.Name, i)
			var conf *core.IndexJobConf
			if tc.Name == "gamma" {
				conf = synJob(name, input, adxAcc, core.ModeCustom, tr)
				conf.ForceStrategy("syn", bix.Name(), core.Build)
				building = append(building, true)
			} else {
				conf = synJob(name, input, synAcc, core.ModeCache, tr)
				building = append(building, false)
			}
			subs = append(subs, jobsvc.Submission{Tenant: tc.Name, At: at, Conf: conf})
			waves = append(waves, waveAt)
		}
	}

	w.pool = ixclient.NewPool(0)
	svc, err := jobsvc.New(e.rt, tcs, jobsvc.Options{
		SharedCache: w.pool,
		Durable: &jobsvc.Durability{
			Dir:             filepath.Join(dir, "journal"),
			FS:              tr.wrapFS(vfs.OS{}),
			CheckpointEvery: len(subs) / 4,
			Registry:        w.registry,
		},
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.svc = svc
	w.run = func() ([]jobOut, error) {
		statuses := svc.Run(subs)
		if err := svc.DurableErr(); err != nil {
			return nil, fmt.Errorf("durability degraded: %w", err)
		}
		outs := make([]jobOut, len(statuses))
		for i := range statuses {
			st := &statuses[i]
			want := p.oracles.kv
			if building[i] {
				want = p.oracles.adx
			}
			outs[i] = jobOut{name: st.Tenant + "/" + st.Name, res: st.Result, err: st.Err, status: st, want: want, waveAt: waves[i]}
		}
		return outs, nil
	}
	return w, nil
}
