// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, verifies every job's output against an
// oracle computed from the generated inputs, and prints each metric by
// name with its unit; its last output line is a JSON object with the
// keys correct, attempted, failed and metrics.
//
//	go run . --workload join-cache --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs.
// With --trace 1 it alternates untraced and traced repetitions and
// reports the per-layer metrics taken at the seams in seams.go, plus the
// tracing overhead. Every repetition sets up a fresh world, so set-up
// time is measured as often as the measured phase. The process exits
// non-zero when any job fails, is rejected, differs from the oracle, or
// leaks a snapshot handle, or when a repetition's virtual time, plans or
// outputs differ from the first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloadSetups maps each workload name to its set-up.
var workloadSetups = map[string]func(p params, tr *tracer, dir string) (*world, error){
	"join-cache": func(p params, tr *tracer, dir string) (*world, error) {
		return setupJoin(p.joinCache(), false, p, tr, dir)
	},
	"join-repart-file": func(p params, tr *tracer, dir string) (*world, error) {
		return setupJoin(p.joinRepart(), true, p, tr, dir)
	},
	"service-durable": func(p params, tr *tracer, dir string) (*world, error) {
		return setupService(p.service(), p, tr, dir)
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: join-cache, join-repart-file or service-durable")
	seed := flags.Int64("seed", 1, "generator seed")
	seconds := flags.Float64("seconds", 10, "how long to keep repeating the workload")
	trace := flags.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	scale := flags.Float64("scale", 1, "multiplies every input size (the self-test uses small scales)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloadSetups[*name]
	if !ok || (*trace != 0 && *trace != 1) || *scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, scale %g)\n", *name, *trace, *scale)
		return 2
	}
	res, err := bench(setup, params{seed: *seed, scale: *scale, oracles: &oracles{}}, *trace == 1,
		time.Duration(*seconds*float64(time.Second)), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, m := range res.order {
		fmt.Fprintf(stdout, "%-28s %-16.6g %s\n", m, res.metrics[m].Value, res.metrics[m].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	metrics           map[string]metric
	order             []string
}

func (r *result) set(name, unit string, v float64) {
	r.order = append(r.order, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// minReps is the least number of measured repetitions of each kind
// (untraced, traced), even when the time budget has run out.
const minReps = 3

// bench repeats set-up and measured phase until budget has passed and at
// least minReps repetitions of each kind have run.
func bench(setup func(params, *tracer, string) (*world, error), p params, traced bool,
	budget time.Duration, log io.Writer) (*result, error) {
	tmpRoot, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	reps := minReps
	if traced {
		reps *= 2
	}
	// Repetition 0 warms up the process (heap growth, first-touch page
	// faults); it is verified but left out of the results. It is also the
	// reference every later repetition's deterministic outcome must match.
	var warmup *rep
	var plain, withTrace []*rep
	failed := 0
	start := time.Now()
	for i := 0; i <= reps || time.Since(start) < budget; i++ {
		tr := (*tracer)(nil)
		if traced && i%2 == 0 && i > 0 {
			tr = &tracer{}
		}
		r, err := runRep(setup, p, tr, tmpRoot, log)
		if err != nil {
			return nil, err
		}
		switch {
		case warmup == nil:
			warmup = r
			continue
		case tr == nil:
			plain = append(plain, r)
		default:
			withTrace = append(withTrace, r)
		}
		if msg := sameRun(warmup, r); msg != "" {
			fmt.Fprintf(log, "perfbench: repetition %d differs from repetition 0: %s\n", i, msg)
			failed++
		}
	}
	os.Remove(tmpRoot)

	res := &result{metrics: make(map[string]metric)}
	for _, r := range append(append(plain, withTrace...), warmup) {
		res.attempted += r.jobs
		res.failed += r.failed
	}
	res.failed += failed
	over := func(stat func([]float64) float64, reps []*rep, f func(*rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return stat(xs)
	}
	med := func(reps []*rep, f func(*rep) float64) float64 { return over(median, reps, f) }
	if !traced {
		// Wall-clock times and rates are reported in seconds of the
		// reference machine, scaled by the median reference-loop time of
		// the same repetitions (see measure.go).
		scale := refNominalS / med(plain, func(r *rep) float64 { return r.refS })
		for _, e := range endToEnd {
			e := e
			stat := median
			switch e.name {
			case "setup_s":
				// A few-millisecond set-up has two modes a few
				// milliseconds apart; a median flips between them from
				// run to run, a trimmed mean moves with their mix.
				stat = trimmedMean
			case "peak_rss_mb":
				// Where the last GC cycles fall puts a repetition's peak
				// in one of a few modes up to a fifth apart; the peak of
				// the whole run is bounded by the heap goal and repeats.
				stat = maximum
			}
			v := over(stat, plain, func(r *rep) float64 { return r.e2e[e.name] })
			switch e.name {
			case "wall_s", "setup_s":
				v *= scale
			case "records_per_s":
				v /= scale
			}
			res.set(e.name, e.unit, v)
		}
		return res, nil
	}
	wallPlain := med(plain, func(r *rep) float64 { return r.e2e["wall_s"] })
	wallTraced := med(withTrace, func(r *rep) float64 { return r.e2e["wall_s"] })
	whole := map[string]float64{
		"trace.overhead_frac": wallTraced/wallPlain - 1,
		"failed_frac":         float64(res.failed) / float64(res.attempted),
	}
	for _, l := range perLayer {
		l := l
		v, ok := whole[l.name]
		if !ok {
			v = med(withTrace, func(r *rep) float64 { return r.layer[l.name] })
		}
		res.set(l.name, l.unit, v)
	}
	return res, nil
}

// sameRun compares the deterministic outcome of two repetitions of one
// seed: virtual time, per-job virtual latencies, plans and outputs.
func sameRun(a, b *rep) string {
	switch {
	case a.vtime != b.vtime:
		return fmt.Sprintf("vtime_s %v vs %v", a.vtime, b.vtime)
	case fmt.Sprint(a.latencies) != fmt.Sprint(b.latencies):
		return "per-job virtual latencies differ"
	case a.plans != b.plans:
		return fmt.Sprintf("plans %q vs %q", a.plans, b.plans)
	case a.outputFP != b.outputFP:
		return fmt.Sprintf("output fingerprint %x vs %x", a.outputFP, b.outputFP)
	}
	return ""
}
