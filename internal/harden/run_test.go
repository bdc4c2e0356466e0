package harden

import (
	"context"
	"math"
	"reflect"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// TestRun: without workloads Run optimizes the solved result itself; one
// workload at the solved inputs reproduces that answer bit for bit (the
// sweep is bit-identical to the solve, and the mean of one env is that
// env, so the .sens lookup hits); several workloads optimize their mean
// AVF. Cache hits and misses and the optimize histogram land on reg.
func TestRun(t *testing.T) {
	a, res, in := solvedRand(t, graphtest.Small(3), 11)
	reg := obs.New()
	eng := sweep.New(sweep.Options{Workers: 1, Obs: reg})
	st := &memStore{}
	ctx := context.Background()
	req := &Request{Design: "d", Budgets: []float64{4, 1e9}, TopTerms: 3}

	base, err := Run(ctx, eng, res, req, nil, st, reg)
	if err != nil {
		t.Fatalf("Run without workloads: %v", err)
	}
	m, err := NewModel(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := m.Sweep(req.Budgets, req.Solver)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Plans, plans) || base.BaseChipAVF != m.Base().WeightedSeqAVF {
		t.Errorf("Run on the solved result disagrees with its model's own sweep")
	}
	if base.Design != "d" || base.SensCache != "miss" || len(base.TopTerms) != req.TopTerms || base.Workloads != nil {
		t.Errorf("response header: design %q, sens_cache %q, %d top terms, workloads %v",
			base.Design, base.SensCache, len(base.TopTerms), base.Workloads)
	}

	one, err := Run(ctx, eng, res, req, []sweep.Workload{{Name: "solved", Inputs: in}}, st, reg)
	if err != nil {
		t.Fatalf("Run with one workload: %v", err)
	}
	if one.SensCache != "hit" || !reflect.DeepEqual(one.Workloads, []string{"solved"}) {
		t.Errorf("one workload: sens_cache %q, workloads %v; want hit, [solved]", one.SensCache, one.Workloads)
	}
	one.Workloads, one.SensCache = nil, base.SensCache
	if !reflect.DeepEqual(one, base) {
		t.Errorf("one workload at the solved inputs differs from the solved result's answer")
	}

	// Summaries are linear in the AVF vector, so the mean-AVF base chip
	// AVF is the mean of the per-workload ones up to reassociation.
	ws := []sweep.Workload{{Name: "a", Inputs: in}, {Name: "b", Inputs: randomInputs(a, 99)}}
	two, err := Run(ctx, eng, res, req, ws, nil, reg)
	if err != nil {
		t.Fatalf("Run with two workloads: %v", err)
	}
	batch, err := eng.Sweep(res, ws)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, r := range batch.Results {
		want += r.Summarize().WeightedSeqAVF / 2
	}
	if math.Abs(two.BaseChipAVF-want) > 1e-12 || two.SensCache != "miss" {
		t.Errorf("two workloads: base chip AVF %v (want mean %v), sens_cache %q", two.BaseChipAVF, want, two.SensCache)
	}

	if hits, misses := reg.Counter("harden.sens_cache_hits").Load(), reg.Counter("harden.sens_cache_misses").Load(); hits != 1 || misses != 2 {
		t.Errorf("sens cache counters: %d hits, %d misses; want 1, 2", hits, misses)
	}
	if n := reg.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets).Count(); n != 3 {
		t.Errorf("harden.optimize_seconds observed %d times, want 3", n)
	}

	bad := &Request{Design: "d", Budgets: []float64{1}, Costs: map[string]float64{"no/such": 1}}
	if _, err := Run(ctx, eng, res, bad, nil, nil, reg); err == nil {
		t.Error("Run accepted a cost table naming an unknown node")
	}
	foreign := core.NewInputs()
	foreign.ReadPorts[core.StructPort{Struct: "NoSuch", Port: "rd"}] = 0.5
	if _, err := Run(ctx, eng, res, req, []sweep.Workload{{Name: "x", Inputs: foreign}}, nil, reg); err == nil {
		t.Error("Run accepted a workload naming a port the design lacks")
	}
}
