package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// NewSweepResponse is the reference for WriteSweepResponse: the
// SweepResponse value of a summarized batch, with each workload's node
// row as a map keyed by node.
func NewSweepResponse(design string, batch *sweep.SummaryBatch) SweepResponse {
	resp := SweepResponse{
		Design:    design,
		Workloads: len(batch.Summaries),
		Plan:      batch.Plan.Stats(),
		ElapsedMS: float64(batch.Elapsed.Microseconds()) / 1e3,
		PerSec:    batch.WorkloadsPerSec(),
		Results:   make([]WorkloadResult, len(batch.Summaries)),
	}
	nodes := batch.Plan.Analyzer.SeqIndex().Nodes
	for i, s := range batch.Summaries {
		wr := WorkloadResult{Name: batch.Names[i], Summary: s}
		if batch.SeqAVF != nil {
			wr.SeqAVF = make(map[string]float64, len(nodes))
			for j, v := range batch.SeqAVF[i] {
				wr.SeqAVF[nodes[j].Key] = v
			}
		}
		resp.Results[i] = wr
	}
	return resp
}

// NewIntervalSweepResponse is the reference for
// WriteIntervalSweepResponse.
func NewIntervalSweepResponse(design string, batch *sweep.IntervalBatch, nodes bool) IntervalSweepResponse {
	resp := IntervalSweepResponse{
		Design:           design,
		Workloads:        len(batch.Workloads),
		WindowsEvaluated: batch.WindowsEvaluated,
		Plan:             batch.Plan.Stats(),
		ElapsedMS:        float64(batch.Elapsed.Microseconds()) / 1e3,
		Results:          make([]IntervalWorkloadResult, len(batch.Workloads)),
	}
	for i, iw := range batch.Workloads {
		wr := IntervalWorkloadResult{
			Name:             iw.Name,
			Windows:          make([]IntervalWindowInfo, len(iw.Windows)),
			ChipAVF:          iw.Summary.ChipAVF,
			TimeWeightedMean: iw.Summary.TimeWeightedMean,
			PeakWindow:       iw.Summary.PeakWindow,
			PeakChipAVF:      iw.Summary.PeakChipAVF,
			PeakToMean:       iw.Summary.PeakToMean,
		}
		for wi, span := range iw.Windows {
			wr.Windows[wi] = IntervalWindowInfo{Start: span.Start, End: span.End}
		}
		if nodes {
			keys := batch.Plan.Analyzer.SeqIndex().Nodes
			wr.SeqAVF = make(map[string][]float64, len(keys))
			for j, series := range iw.NodeSeries() {
				wr.SeqAVF[keys[j].Key] = series
			}
		}
		resp.Results[i] = wr
	}
	return resp
}

// encodeReference is the reply bytes encoding/json gives v: the
// indented encoder httpx.WriteJSON uses.
func encodeReference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding reference: %v", err)
	}
	return buf.Bytes()
}

// requireSameBytes fails at the first byte where got departs from want.
func requireSameBytes(t testing.TB, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Fatalf("%s: reply differs from encoding/json at byte %d of %d/%d:\n got %q\nwant %q",
		label, i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

// requireRepliesMatch writes both reply shapes, nodes off and on, for
// workloads ws and interval workloads ivs through eng, and checks each
// against encoding/json of the reference responses.
func requireRepliesMatch(t testing.TB, label string, eng *sweep.Engine, res *core.Result, ws []sweep.Workload, ivs []sweep.IntervalWorkload) {
	t.Helper()
	name := res.Analyzer.G.Design.Name
	for _, nodes := range []bool{false, true} {
		sb, err := eng.SummarizeContext(context.Background(), res, ws, nodes)
		if err != nil {
			t.Fatalf("%s: SummarizeContext: %v", label, err)
		}
		var got bytes.Buffer
		if err := WriteSweepResponse(&got, name, sb); err != nil {
			t.Fatalf("%s: WriteSweepResponse: %v", label, err)
		}
		requireSameBytes(t, fmt.Sprintf("%s sweep nodes=%v", label, nodes), got.Bytes(), encodeReference(t, NewSweepResponse(name, sb)))

		ib, err := eng.SweepIntervalsContext(context.Background(), res, ivs)
		if err != nil {
			t.Fatalf("%s: SweepIntervalsContext: %v", label, err)
		}
		got.Reset()
		if err := WriteIntervalSweepResponse(&got, name, ib, nodes); err != nil {
			t.Fatalf("%s: WriteIntervalSweepResponse: %v", label, err)
		}
		requireSameBytes(t, fmt.Sprintf("%s intervals nodes=%v", label, nodes), got.Bytes(), encodeReference(t, NewIntervalSweepResponse(name, ib, nodes)))
	}
}

// seededWorkloads returns n seeded workloads and n three-window
// interval workloads for res's design; workload 1 of each is unnamed.
func seededWorkloads(t testing.TB, res *core.Result, n int, seed uint64) ([]sweep.Workload, []sweep.IntervalWorkload) {
	t.Helper()
	inputs := func(s uint64) *core.Inputs {
		in, err := pavfio.Parse("t", strings.NewReader(pavfText(t, res, s)))
		if err != nil {
			t.Fatalf("parsing seeded table: %v", err)
		}
		return in
	}
	ws := make([]sweep.Workload, n)
	ivs := make([]sweep.IntervalWorkload, n)
	for i := range ws {
		name := fmt.Sprintf("w%02d", i)
		if i == 1 {
			name = ""
		}
		ws[i] = sweep.Workload{Name: name, Inputs: inputs(seed + uint64(i))}
		ivs[i] = sweep.IntervalWorkload{Name: name}
		for w := 0; w < 3; w++ {
			ivs[i].Windows = append(ivs[i].Windows, sweep.WindowSpan{Start: uint64(100 * w), End: uint64(100*w + 60 + w)})
			ivs[i].Inputs = append(ivs[i].Inputs, inputs(seed+uint64(1000*(w+1)+i)))
		}
	}
	return ws, ivs
}

// TestReplyMatchesEncodingJSON: on the 200-seed graphtest corpus, with
// nodes off and on, both streamed replies are byte for byte what
// encoding/json writes for the reference response values — blank
// workload names included.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 1, BlockSize: 3})
	for seed := uint64(0); seed < 200; seed++ {
		d, err := graphtest.Generate(graphtest.Small(seed))
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: NewAnalyzer: %v", seed, err)
		}
		res, err := a.Solve(neutralInputs(a))
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		ws, ivs := seededWorkloads(t, res, 4, seed*10)
		requireRepliesMatch(t, fmt.Sprintf("seed %d", seed), eng, res, ws, ivs)
	}
}

// TestReplyMatchesEncodingJSONXeonLike is the same check on the
// XeonLike design: 64 workloads of 666 nodes each, the sweep-nodes
// reply, and 4 interval workloads.
func TestReplyMatchesEncodingJSONXeonLike(t *testing.T) {
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
	res, err := a.Solve(neutralInputs(a))
	if err != nil {
		t.Fatal(err)
	}
	ws, ivs := seededWorkloads(t, res, 64, 7000)
	requireRepliesMatch(t, "XeonLike", sweep.New(sweep.Options{Workers: 2}), res, ws, ivs[:4])
}

// TestReplyWithoutSequentialNodes: on a design with no sequential
// nodes, a nodes:true reply omits "seqavf" as encoding/json omits an
// empty map.
func TestReplyWithoutSequentialNodes(t *testing.T) {
	const text = `design comb_only
structure RF 4 8
module m
  sread r 8 RF rd
  comb x 8 not r
  swrite w RF wr x
endmodule
top F m
`
	nd, err := netlist.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(nd)
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
	if n := len(a.SeqIndex().Nodes); n != 0 {
		t.Fatalf("design has %d sequential nodes, want none", n)
	}
	res, err := a.Solve(neutralInputs(a))
	if err != nil {
		t.Fatal(err)
	}
	ws, ivs := seededWorkloads(t, res, 2, 5)
	eng := sweep.New(sweep.Options{Workers: 1})
	requireRepliesMatch(t, "comb_only", eng, res, ws, ivs)

	sb, err := eng.SummarizeContext(context.Background(), res, ws, true)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteSweepResponse(&got, "comb_only", sb); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(got.Bytes(), []byte(`"seqavf"`)) {
		t.Fatalf("reply carries a seqavf member for a design without sequential nodes:\n%s", got.Bytes())
	}
}

// TestNodeKeyQuoting: keys that need escaping — HTML characters, a
// quote, a backslash, U+2028 — are written as encoding/json writes map
// keys, in its sort order.
func TestNodeKeyQuoting(t *testing.T) {
	idx := &core.SeqIndex{}
	for _, k := range []string{"F/b<c", "F/a&b", `F/q"uote`, `F/back\slash`, "F/line\u2028sep", "F/plain", "E/>"} {
		idx.Nodes = append(idx.Nodes, core.SeqNode{Key: k})
	}
	idx.Sorted = make([]int, len(idx.Nodes))
	for i := range idx.Sorted {
		idx.Sorted[i] = i
	}
	sort.Slice(idx.Sorted, func(i, j int) bool { return idx.Nodes[idx.Sorted[i]].Key < idx.Nodes[idx.Sorted[j]].Key })
	keys := newNodeKeys(idx)

	row := []float64{0.5, 1e-7, 0, 1, 0.125, 2e21, 0.3}
	want := map[string]float64{}
	for i, n := range idx.Nodes {
		want[n.Key] = row[i]
	}
	ref, err := json.MarshalIndent(WorkloadResult{Name: "x", SeqAVF: want}, itemIndent[1:], "  ")
	if err != nil {
		t.Fatal(err)
	}

	buf := replyBufs.New().(*replyBuf)
	if err := buf.encode(WorkloadResult{Name: "x"}, itemIndent[1:]); err != nil {
		t.Fatal(err)
	}
	if err := buf.nodes(keys, func(n int) error { return buf.float(row[n]) }); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "quoted keys", buf.b, ref)
}

// TestReplyFloatRejectsNonFinite: a NaN or infinity fails the reply,
// as encoding/json refuses it.
func TestReplyFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var r replyBuf
		if err := r.float(f); err == nil {
			t.Errorf("float(%v) accepted", f)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Errorf("json.Marshal(%v) accepted", f)
		}
	}
}

// FuzzAppendJSONFloat: for any finite float64 bit pattern, appendFloat
// writes what json.Marshal writes.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, 0.1,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)),
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	})
}
