package sweep

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
)

// requireSummariesMatch checks a reduced batch against the vector path:
// every workload's summary must equal Result.Summarize field for field,
// and with nodes every per-node seqAVF must equal SeqAVFByNode's, with
// ==, not a tolerance. Without nodes the batch must carry no node maps.
func requireSummariesMatch(t *testing.T, label string, got *SummaryBatch, want *Batch, nodes bool) {
	t.Helper()
	if len(got.Summaries) != len(want.Results) || len(got.Names) != len(want.Names) {
		t.Fatalf("%s: %d summaries / %d names for %d results", label, len(got.Summaries), len(got.Names), len(want.Results))
	}
	if !nodes && got.SeqAVF != nil {
		t.Fatalf("%s: node maps returned without nodes", label)
	}
	for i, res := range want.Results {
		if got.Names[i] != want.Names[i] {
			t.Fatalf("%s: workload %d named %q, want %q", label, i, got.Names[i], want.Names[i])
		}
		if s := res.Summarize(); got.Summaries[i] != s {
			t.Fatalf("%s: workload %d summary\n got %+v\nwant %+v", label, i, got.Summaries[i], s)
		}
		if !nodes {
			continue
		}
		ref := res.SeqAVFByNode()
		if len(got.SeqAVF[i]) != len(ref) {
			t.Fatalf("%s: workload %d has %d node seqAVFs, want %d", label, i, len(got.SeqAVF[i]), len(ref))
		}
		x := got.Plan.Analyzer.SeqIndex()
		for key, v := range ref {
			j, ok := x.ByKey[key]
			if g := got.SeqAVF[i][j]; !ok || g != v {
				t.Fatalf("%s: workload %d node %s seqAVF %v (present %v), want %v", label, i, key, g, ok, v)
			}
		}
	}
}

// sweepBoth runs ws through SweepContext and through SummarizeContext,
// with and without nodes, on one engine, and checks the summaries agree.
func sweepBoth(t *testing.T, label string, eng *Engine, res *core.Result, ws []Workload) {
	t.Helper()
	want, err := eng.SweepContext(context.Background(), res, ws)
	if err != nil {
		t.Fatalf("%s: SweepContext: %v", label, err)
	}
	for _, nodes := range []bool{false, true} {
		got, err := eng.SummarizeContext(context.Background(), res, ws, nodes)
		if err != nil {
			t.Fatalf("%s: SummarizeContext(nodes=%v): %v", label, nodes, err)
		}
		if got.Plan != want.Plan {
			t.Fatalf("%s: the two paths used different plans", label)
		}
		requireSummariesMatch(t, fmt.Sprintf("%s nodes=%v", label, nodes), got, want, nodes)
	}
}

// TestSummarizeMatchesMaterialize is the reduce sink's differential
// test: on the 200-seed graphtest corpus, at lane widths 1, 3 and 16
// (ragged tails at 3 and 16) and one wider than the batch, the
// summaries and per-node seqAVFs SummarizeContext reduces inside the
// kernel are bit-identical to summarizing SweepContext's per-vertex
// vectors.
func TestSummarizeMatchesMaterialize(t *testing.T) {
	const n = 20
	for seed := uint64(0); seed < 200; seed++ {
		a, res, _ := solved(t, graphtest.Small(seed), seed^0x5eed)
		ws := make([]Workload, n)
		for i := range ws {
			ws[i] = Workload{Name: fmt.Sprintf("w%d", i), Inputs: randomInputs(a, seed*1000+uint64(i))}
		}
		for _, block := range []int{1, 3, 16, 2 * n} {
			eng := New(Options{Workers: 2, BlockSize: block})
			sweepBoth(t, fmt.Sprintf("seed %d block %d", seed, block), eng, res, ws)
		}
	}
}

// restoredStore serves one plan restored from its persisted CSR form —
// the plan an artifact decode hands the engine.
type restoredStore struct{ plan *Plan }

func (s restoredStore) GetPlan(context.Context, *core.Result) (*Plan, error) { return s.plan, nil }
func (restoredStore) PutPlan(*core.Result, *Plan) error                      { return nil }

// TestSummarizeRestoredPlan: a plan restored from its CSR table against
// a fresh analyzer (a restarted process) rebuilds the reducer table, so
// its summaries equal the compiled plan's vector path bit for bit.
func TestSummarizeRestoredPlan(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := graphtest.Small(seed)
		a, res, _ := solved(t, cfg, seed)
		compiled, err := Compile(res)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		d, err := graphtest.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		a2, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: NewAnalyzer: %v", seed, err)
		}
		restored, exprs, err := Restore(a2, compiled.Raw(), res.Visited)
		if err != nil {
			t.Fatalf("seed %d: Restore: %v", seed, err)
		}
		res2 := &core.Result{Analyzer: a2, Exprs: exprs, Visited: res.Visited, AVF: make([]float64, len(exprs))}
		ws := make([]Workload, 7)
		for i := range ws {
			ws[i] = Workload{Name: fmt.Sprintf("w%d", i), Inputs: randomInputs(a, seed*100+uint64(i))}
		}
		want, err := New(Options{Workers: 1, BlockSize: 3}).Sweep(res, ws)
		if err != nil {
			t.Fatalf("seed %d: Sweep: %v", seed, err)
		}
		eng := New(Options{Workers: 1, BlockSize: 3, Store: restoredStore{restored}})
		got, err := eng.SummarizeContext(context.Background(), res2, ws, true)
		if err != nil {
			t.Fatalf("seed %d: SummarizeContext: %v", seed, err)
		}
		if got.Plan != restored {
			t.Fatalf("seed %d: engine did not use the restored plan", seed)
		}
		requireSummariesMatch(t, fmt.Sprintf("seed %d restored", seed), got, want, true)
	}
}

// TestSummarizeXeonLike: the same bit-identity on the XeonLike design
// the service benchmarks (~12k vertices, hundreds of sequential nodes),
// 70 workloads at the default width so the batch ends in a ragged block.
func TestSummarizeXeonLike(t *testing.T) {
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(gen.Design)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(randomInputs(a, 1))
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]Workload, 70)
	for i := range ws {
		ws[i] = Workload{Name: fmt.Sprintf("w%02d", i), Inputs: randomInputs(a, 100+uint64(i))}
	}
	sweepBoth(t, "XeonLike", New(Options{Workers: 2}), res, ws)
}

// TestSummarizeContextCancel: a cancelled reduce returns no partial
// batch and counts the abort once, like SweepContext.
func TestSummarizeContextCancel(t *testing.T) {
	a, res, _ := solved(t, graphtest.Default(17), 1)
	ws := make([]Workload, 64)
	for i := range ws {
		ws[i] = Workload{Name: fmt.Sprintf("w%d", i), Inputs: randomInputs(a, 200+uint64(i))}
	}
	reg := obs.New()
	eng := New(Options{Workers: 4, ChunkSize: 1, Obs: reg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sb, err := eng.SummarizeContext(ctx, res, ws, true)
	if err == nil {
		t.Fatal("SummarizeContext completed under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if sb != nil {
		t.Fatal("cancelled SummarizeContext returned a partial batch")
	}
	if got := reg.Counter("sweep.cancelled").Load(); got != 1 {
		t.Fatalf("sweep.cancelled = %d, want 1", got)
	}
	if got := reg.Counter("sweep.workloads").Load(); got != 0 {
		t.Fatalf("sweep.workloads = %d after a cancelled batch, want 0", got)
	}
}

// TestKernelTelemetry: the kernel histogram and gauge time only the
// kernel passes, so with one worker the kernel throughput is above the
// batch throughput, which also pays for env build and result assembly;
// and every block is observed once.
func TestKernelTelemetry(t *testing.T) {
	a, res, _ := solved(t, graphtest.Default(17), 1)
	ws := make([]Workload, 40)
	for i := range ws {
		ws[i] = Workload{Name: fmt.Sprintf("w%d", i), Inputs: randomInputs(a, 300+uint64(i))}
	}
	for _, reduce := range []bool{false, true} {
		reg := obs.New()
		eng := New(Options{Workers: 1, BlockSize: 16, Obs: reg})
		var err error
		if reduce {
			_, err = eng.SummarizeContext(context.Background(), res, ws, true)
		} else {
			_, err = eng.SweepContext(context.Background(), res, ws)
		}
		if err != nil {
			t.Fatalf("reduce=%v: %v", reduce, err)
		}
		kernel := reg.Gauge("sweep.kernel_workloads_per_sec").Load()
		batch := reg.Gauge("sweep.workloads_per_sec").Load()
		if !(kernel > batch) || batch <= 0 {
			t.Errorf("reduce=%v: sweep.kernel_workloads_per_sec %v not above sweep.workloads_per_sec %v", reduce, kernel, batch)
		}
		if got := reg.Counter("sweep.block_evals").Load(); got != 3 {
			t.Errorf("reduce=%v: sweep.block_evals = %d, want 3 (40 workloads at width 16)", reduce, got)
		}
		if got := reg.FixedHistogram("sweep.block_eval_seconds", obs.LatencyBuckets).Count(); got != 3 {
			t.Errorf("reduce=%v: sweep.block_eval_seconds has %d observations, want 3", reduce, got)
		}
	}
}
