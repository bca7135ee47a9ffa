package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The self-test runs every workload at a tiny scale. It needs nothing
// but this package and the repository it sits in:
//
//	cd perfbench && go test .

const tinyScale = 0.02

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type benchOutput struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one invocation in process and parses its last line.
func runTiny(t *testing.T, workload string, trace int) benchOutput {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0", "--trace", strconv.Itoa(trace), "--scale", strconv.FormatFloat(tinyScale, 'g', -1, 64)},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %d exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out benchOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, out.Correct, out.Attempted, out.Failed)
	}
	// Every metric is also printed by name with its unit.
	for name, m := range out.Metrics {
		found := false
		for _, l := range lines[:len(lines)-1] {
			f := strings.Fields(l)
			found = found || (len(f) == 3 && f[0] == name && f[2] == m.Unit)
		}
		if !found {
			t.Errorf("%s: metric %s not printed with unit %s", workload, name, m.Unit)
		}
	}
	return out
}

// TestEmitsEveryListedMetric checks that each workload emits exactly the
// metrics BENCHMARK.json lists, each with the listed unit: the
// end-to-end ones untraced, the per-layer ones traced.
func TestEmitsEveryListedMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadSetups) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadSetups))
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			got := runTiny(t, w.Name, trace).Metrics
			if len(got) != len(want) {
				t.Errorf("%s --trace %d: %d metrics emitted, %d listed", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %d: %s not emitted", w.Name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s --trace %d: %s unit %q, listed %q", w.Name, trace, m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s --trace %d: %s = %v", w.Name, trace, m.Name, g.Value)
				}
			}
		}
	}
}

// TestVirtualTimeIndependentOfGOMAXPROCS checks that the virtual-time
// metrics repeat bit for bit at GOMAXPROCS 1 and 2 (each invocation
// already requires them to repeat across its repetitions and between its
// traced and untraced runs), and that allocations per record stay within
// allocTolerance of each other.
func TestVirtualTimeIndependentOfGOMAXPROCS(t *testing.T) {
	const allocTolerance = 0.001
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name := range workloadSetups {
		runtime.GOMAXPROCS(1)
		one := runTiny(t, name, 0).Metrics
		runtime.GOMAXPROCS(2)
		two := runTiny(t, name, 0).Metrics
		for _, m := range []string{"vtime_s", "job_latency_p50_vs", "job_latency_p75_vs"} {
			if one[m].Value != two[m].Value {
				t.Errorf("%s: %s = %v at GOMAXPROCS 1, %v at 2", name, m, one[m].Value, two[m].Value)
			}
		}
		a, b := one["allocs_per_record"].Value, two["allocs_per_record"].Value
		if math.Abs(a-b) > allocTolerance*a {
			t.Errorf("%s: allocs_per_record %v at GOMAXPROCS 1, %v at 2", name, a, b)
		}
	}
}
