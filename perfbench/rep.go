package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"efind/internal/fstore"
	"efind/internal/jobsvc"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 over untraced repetitions: medians, except set-up time (a
// trimmed mean) and peak RSS (the maximum); see bench.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"records_per_s", "records/s"},
	{"vtime_s", "virtual_s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_record", "allocs/record"},
	{"alloc_bytes_per_record", "B/record"},
	{"setup_s", "s"},
	{"job_latency_p50_vs", "virtual_s"},
	{"job_latency_p75_vs", "virtual_s"},
}

// perLayer are the metrics of single layers, reported with --trace 1 as
// medians over traced repetitions. The last two are computed over the
// whole invocation rather than per repetition.
var perLayer = []metricSpec{
	{"workloads.generate_s", "s"},
	{"kvstore.freeze_s", "s"},
	{"dfs.backing_bytes", "B"},
	{"core.pre_fn_calls", "count"},
	{"core.pre_fn_busy_s", "s"},
	{"core.post_fn_calls", "count"},
	{"core.post_fn_busy_s", "s"},
	{"mapreduce.map_fn_calls", "count"},
	{"mapreduce.map_fn_busy_s", "s"},
	{"mapreduce.reduce_fn_calls", "count"},
	{"mapreduce.reduce_fn_busy_s", "s"},
	{"mapreduce.shuffle_bytes", "B"},
	{"core.jobs_run", "count"},
	{"core.replanned", "count"},
	{"ixclient.cache_probes", "count"},
	{"ixclient.cache_hit_ratio", "fraction"},
	{"ixclient.index_lookups", "count"},
	{"ixclient.net_roundtrips", "count"},
	{"ixclient.errors", "count"},
	{"ixclient.retries", "count"},
	{"ixclient.pool_hit_ratio", "fraction"},
	{"ixclient.pool_entries", "count"},
	{"kvstore.lookup_calls", "count"},
	{"kvstore.batch_calls", "count"},
	{"kvstore.keys_served", "count"},
	{"kvstore.value_bytes", "B"},
	{"kvstore.serve_busy_s", "s"},
	{"kvstore.serve_p50_us", "us"},
	{"kvstore.serve_p99_us", "us"},
	{"jobsvc.admitted", "count"},
	{"jobsvc.rejected", "count"},
	{"jobsvc.queue_wait_p50_vs", "virtual_s"},
	{"jobsvc.queue_wait_p75_vs", "virtual_s"},
	{"jobsvc.journal_records", "count"},
	{"wal.appends", "count"},
	{"wal.bytes", "B"},
	{"wal.write_busy_s", "s"},
	{"wal.syncs", "count"},
	{"fstore.checkpoints", "count"},
	{"fstore.checkpoint_bytes", "B"},
	{"fstore.checkpoint_busy_s", "s"},
	{"fstore.open_handles_end", "count"},
	{"adaptix.extract_calls", "count"},
	{"adaptix.extract_busy_s", "s"},
	{"adaptix.covered_splits", "count"},
	{"runtime.cpu_s", "s"},
	{"runtime.steal_s", "s"},
	{"host.ref_loop_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"engine.self_cpu_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"failed_frac", "fraction"},
}

// rep is one repetition: a fresh set-up, the measured phase, and the
// verification of every job.
type rep struct {
	jobs, failed int

	// The deterministic outcome, compared across repetitions.
	vtime     float64
	latencies []float64
	plans     string
	outputFP  uint64

	// refS is the time of the reference loop run before set-up.
	refS float64

	e2e   map[string]float64 // wall-clock values as measured
	layer map[string]float64 // only when traced
}

func runRep(setup func(params, *tracer, string) (*world, error), p params, tr *tracer,
	tmpRoot string, log io.Writer) (*rep, error) {
	dir, err := os.MkdirTemp(tmpRoot, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Collect the previous repetition's garbage before timing set-up.
	if err := settle(); err != nil {
		return nil, err
	}
	refS, err := timeRefLoop()
	if err != nil {
		return nil, err
	}
	watch, err := startWatch()
	if err != nil {
		return nil, err
	}
	w, err := setup(p, tr, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS, _, err := watch.elapsed()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()
	backing, err := dirBytes(w.backingDirs)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := settle(); err != nil {
		return nil, err
	}

	before := takeSample()
	if watch, err = startWatch(); err != nil {
		return nil, err
	}
	outs, err := w.run()
	if err != nil {
		return nil, err
	}
	wallS, stealS, err := watch.elapsed()
	if err != nil {
		return nil, err
	}
	after := takeSample()
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}

	r := &rep{e2e: make(map[string]float64), layer: make(map[string]float64)}
	var waits []float64
	var plans []string
	fp := uint64(14695981039346656037)
	ctr := make(map[string]int64)
	jobsRun, replanned, admitted, rejected := 0, 0, 0, 0
	waveEnd := make(map[float64]float64)
	for _, o := range outs {
		r.jobs++
		jobFP, why := verify(o)
		if why != "" {
			fmt.Fprintf(log, "perfbench: job %s: %s\n", o.name, why)
			r.failed++
		}
		fp = (fp ^ jobFP) * 1099511628211
		submitted, finished := 0.0, 0.0
		if st := o.status; st != nil {
			if st.State == jobsvc.JobRejected {
				rejected++
				continue
			}
			admitted++
			waits = append(waits, st.Admitted-st.Submitted)
			submitted, finished = st.Submitted, st.Finished
		} else if o.res != nil {
			finished = o.res.VTime
		}
		r.latencies = append(r.latencies, finished-submitted)
		waveEnd[o.waveAt] = math.Max(waveEnd[o.waveAt], finished)
		if res := o.res; res != nil {
			plans = append(plans, res.Plan.String())
			jobsRun += res.JobsRun
			if res.Replanned {
				replanned++
			}
			for k, v := range res.Counters {
				ctr[k] += v
			}
		}
	}
	ats := make([]float64, 0, len(waveEnd))
	for at := range waveEnd {
		ats = append(ats, at)
	}
	sort.Float64s(ats) // a fixed summation order keeps vtime_s bit-exact
	for _, at := range ats {
		r.vtime += waveEnd[at] - at
	}
	r.plans = strings.Join(plans, "; ")
	r.outputFP = fp

	closed = true
	if err := w.close(); err != nil {
		fmt.Fprintf(log, "perfbench: close: %v\n", err)
		r.failed++
	}
	handles := fstore.OpenHandles()
	if handles != 0 {
		fmt.Fprintf(log, "perfbench: %d snapshot handles open after close\n", handles)
		r.failed++
	}

	records := float64(w.jobRecords) * float64(len(outs))
	r.e2e["wall_s"] = wallS
	r.e2e["records_per_s"] = records / wallS
	r.e2e["vtime_s"] = r.vtime
	r.e2e["peak_rss_mb"] = rss
	r.e2e["allocs_per_record"] = float64(after.mallocs-before.mallocs) / records
	r.e2e["alloc_bytes_per_record"] = float64(after.totalAlloc-before.totalAlloc) / records
	r.e2e["setup_s"] = setupS
	r.e2e["job_latency_p50_vs"] = quantile(r.latencies, 0.5)
	r.e2e["job_latency_p75_vs"] = quantile(r.latencies, 0.75)
	r.refS = refS
	fmt.Fprintf(log, "perfbench: repetition traced=%v ref_loop_s=%.4f setup_s=%.4f wall_s=%.4f steal_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f\n",
		tr != nil, refS, setupS, wallS, stealS, (after.cpu - before.cpu).Seconds(), rss)
	if tr == nil {
		return r, nil
	}

	l := r.layer
	l["workloads.generate_s"] = w.generateS
	l["kvstore.freeze_s"] = w.freezeS
	l["dfs.backing_bytes"] = float64(backing)
	for _, f := range []struct {
		name string
		b    *busy
	}{{"core.pre_fn", &tr.pre}, {"core.post_fn", &tr.post},
		{"mapreduce.map_fn", &tr.mapFn}, {"mapreduce.reduce_fn", &tr.reduceFn}} {
		l[f.name+"_calls"] = float64(f.b.calls.Load())
		l[f.name+"_busy_s"] = f.b.seconds()
	}
	sum := func(suffix string) float64 {
		var n int64
		for k, v := range ctr {
			if strings.HasPrefix(k, "efind.") && strings.HasSuffix(k, suffix) {
				n += v
			}
		}
		return float64(n)
	}
	l["mapreduce.shuffle_bytes"] = sum("efind.map.out.bytes")
	l["core.jobs_run"] = float64(jobsRun)
	l["core.replanned"] = float64(replanned)
	probes := sum(".cache.probes")
	l["ixclient.cache_probes"] = probes
	if probes > 0 {
		l["ixclient.cache_hit_ratio"] = 1 - sum(".cache.misses")/probes
	}
	l["ixclient.index_lookups"] = sum(".lookups")
	l["ixclient.net_roundtrips"] = sum(".net.roundtrips")
	l["ixclient.errors"] = sum(".errors")
	l["ixclient.retries"] = sum(".retries")
	if w.pool != nil {
		l["ixclient.pool_hit_ratio"] = w.pool.HitRatio()
		entries := 0
		for _, e := range w.pool.Dump() {
			entries += len(e.Keys)
		}
		l["ixclient.pool_entries"] = float64(entries)
	}
	s := &tr.serve
	l["kvstore.lookup_calls"] = float64(s.lookups.Load())
	l["kvstore.batch_calls"] = float64(s.batches.Load())
	l["kvstore.keys_served"] = float64(s.keys.Load())
	l["kvstore.value_bytes"] = float64(s.valueBytes.Load())
	l["kvstore.serve_busy_s"] = float64(s.ns.Load()) / 1e9
	l["kvstore.serve_p50_us"] = s.callQuantileUS(0.5)
	l["kvstore.serve_p99_us"] = s.callQuantileUS(0.99)
	l["jobsvc.admitted"] = float64(admitted)
	l["jobsvc.rejected"] = float64(rejected)
	l["jobsvc.queue_wait_p50_vs"] = quantile(waits, 0.5)
	l["jobsvc.queue_wait_p75_vs"] = quantile(waits, 0.75)
	if w.svc != nil {
		l["jobsvc.journal_records"] = float64(w.svc.JournalRecords())
	}
	l["wal.appends"] = float64(tr.wal.writes.Load())
	l["wal.bytes"] = float64(tr.wal.bytes.Load())
	l["wal.write_busy_s"] = float64(tr.wal.ns.Load()) / 1e9
	l["wal.syncs"] = float64(tr.wal.syncs.Load())
	l["fstore.checkpoints"] = float64(tr.checkpoints.Load())
	l["fstore.checkpoint_bytes"] = float64(tr.ckpt.bytes.Load())
	l["fstore.checkpoint_busy_s"] = float64(tr.ckpt.ns.Load()) / 1e9
	l["fstore.open_handles_end"] = float64(handles)
	l["adaptix.extract_calls"] = float64(tr.extractCalls.Load())
	l["adaptix.extract_busy_s"] = tr.extract.seconds()
	if w.registry != nil {
		for _, name := range w.registry.Names() {
			covered, _ := w.registry.Covered(name)
			l["adaptix.covered_splits"] += float64(covered)
		}
	}
	cpu := (after.cpu - before.cpu).Seconds()
	l["runtime.cpu_s"] = cpu
	l["runtime.steal_s"] = stealS
	l["host.ref_loop_s"] = refS
	l["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
	l["runtime.gc_pause_s"] = float64(after.pauseNS-before.pauseNS) / 1e9
	if d := after.allCPU - before.allCPU; d > 0 {
		l["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / d
	}
	seams := tr.pre.seconds() + tr.post.seconds() + tr.mapFn.seconds() + tr.reduceFn.seconds() +
		tr.extract.seconds() + l["kvstore.serve_busy_s"] + l["wal.write_busy_s"] + l["fstore.checkpoint_busy_s"]
	l["engine.self_cpu_s"] = cpu - seams
	return r, nil
}

// verify checks one job against its oracle. It returns the job's
// order-insensitive output fingerprint and, for a failed job, why.
func verify(o jobOut) (uint64, string) {
	if st := o.status; st != nil && st.State != jobsvc.JobCompleted {
		return 0, fmt.Sprintf("%s: %s %v", st.State, st.Reason, st.Err)
	}
	if o.err != nil {
		return 0, o.err.Error()
	}
	if o.res == nil || o.res.Output == nil {
		return 0, "no output"
	}
	bad, fp, err := o.want.check(o.res.Output)
	switch {
	case err != nil:
		return 0, fmt.Sprintf("read output: %v", err)
	case bad > 0:
		return fp, fmt.Sprintf("%d output records differ from the oracle", bad)
	case o.status != nil && o.status.OutputFP != o.want.fp:
		return fp, fmt.Sprintf("service output fingerprint %x, oracle %x", o.status.OutputFP, o.want.fp)
	}
	return fp, ""
}

// dirBytes sums the sizes of the regular files under dirs.
func dirBytes(dirs []string) (int64, error) {
	var n int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}
