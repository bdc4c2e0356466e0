package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, with
// verification on. It asserts that every metric BENCHMARK.json names is
// emitted with its unit, that no request fails or answers wrongly, and
// that the traced run's spans nest.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	wd, err := filepath.Abs(filepath.Join("..", ".bench_build", "perfbench", "selftest"))
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(wd)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 1, trace: trace, workDir: wd}
			res, rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %s", w.Name, trace, res.Correct, res.Failed, res.Attempted, strings.Join(rep.Errors, "; "))
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if trace {
				if fr := res.Metrics["fail_ratio"].Value; fr != 0 {
					t.Errorf("%s: fail_ratio %g", w.Name, fr)
				}
				if rep.Sum == nil || rep.Sum.Requests == 0 {
					t.Errorf("%s: no traced requests", w.Name)
				}
			}
		}
	}
}

// TestTraceNesting checks that the span checker accepts a well-formed
// tree and reports a child that escapes its parent.
func TestTraceNesting(t *testing.T) {
	tr := newTracer()
	tr.on = true
	root := tr.begin("request.sweep")
	_ = tr.timed("server.decode", func() error { return nil })
	_ = tr.timed("sweep.eval", func() error {
		return tr.timed("sweep.kernel", func() error { return nil })
	})
	tr.end(root)
	if errs := tr.check(); len(errs) != 0 {
		t.Fatalf("well-formed spans rejected: %v", errs)
	}
	tr.spans[2].End = tr.spans[0].End + 1 // sweep.eval outlives its request
	if errs := tr.check(); len(errs) == 0 {
		t.Fatal("a child ending after its parent was not reported")
	}
}
