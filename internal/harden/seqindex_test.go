package harden

import (
	"fmt"
	"math"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/sweep"
)

// walkSeqNodes is the reference the sequential-node index is checked
// against: a plain per-vertex walk that builds each bit's "fub/node" key
// and groups the sequential bits by it, in first-appearance order.
func walkSeqNodes(res *core.Result) (keys []string, bits map[string][]graph.VertexID) {
	a := res.Analyzer
	bits = make(map[string][]graph.VertexID)
	for v := 0; v < a.G.NumVerts(); v++ {
		id := graph.VertexID(v)
		if !res.IsSequentialBit(id) {
			continue
		}
		vx := &a.G.Verts[v]
		key := a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
		if _, ok := bits[key]; !ok {
			keys = append(keys, key)
		}
		bits[key] = append(bits[key], id)
	}
	return keys, bits
}

// walkSeqAVFByNode is Result.SeqAVFByNode as a per-vertex walk: per-key
// sums in vertex order, then one divide per key.
func walkSeqAVFByNode(res *core.Result) map[string]float64 {
	a := res.Analyzer
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for v := 0; v < a.G.NumVerts(); v++ {
		if !res.IsSequentialBit(graph.VertexID(v)) {
			continue
		}
		vx := &a.G.Verts[v]
		key := a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
		sums[key] += res.AVF[v]
		counts[key]++
	}
	for k := range sums {
		sums[k] /= float64(counts[k])
	}
	return sums
}

// walkSeqDecomposition is Result.SeqDecomposition as a per-vertex walk.
func walkSeqDecomposition(res *core.Result) core.Decomposition {
	var d core.Decomposition
	n := 0
	for v := 0; v < res.Analyzer.G.NumVerts(); v++ {
		if !res.IsSequentialBit(graph.VertexID(v)) {
			continue
		}
		dv := res.Decompose(graph.VertexID(v))
		d.SDC += dv.SDC
		d.DUE += dv.DUE
		d.DCE += dv.DCE
		n++
	}
	if n > 0 {
		d.SDC /= float64(n)
		d.DUE /= float64(n)
		d.DCE /= float64(n)
	}
	return d
}

// walkFubStats is Result.FubStats and Result.VisitedFraction as the
// per-vertex walk they replaced: role and node-kind checks per vertex,
// per-FUB sums in vertex order.
func walkFubStats(res *core.Result) ([]core.FubStat, float64) {
	a := res.Analyzer
	out := make([]core.FubStat, len(a.G.FubNames))
	total, vis := 0, 0
	for v := 0; v < a.G.NumVerts(); v++ {
		role := a.Role(graph.VertexID(v))
		if role == core.RoleDebug {
			continue
		}
		total++
		if res.Visited[v] {
			vis++
		}
		if role == core.RoleConst {
			continue
		}
		vx := &a.G.Verts[v]
		st := &out[vx.Fub]
		st.NodeBits++
		st.AvgNodeAVF += res.AVF[v]
		if vx.Node.Kind == netlist.KindSeq {
			st.SeqBits++
			st.AvgSeqAVF += res.AVF[v]
			if role == core.RoleLoop {
				st.LoopSeqBits++
			}
			if role == core.RoleControl {
				st.CtrlBits++
			}
		}
	}
	for i := range out {
		out[i].Fub = a.G.FubNames[i]
		if out[i].SeqBits > 0 {
			out[i].AvgSeqAVF /= float64(out[i].SeqBits)
		}
		if out[i].NodeBits > 0 {
			out[i].AvgNodeAVF /= float64(out[i].NodeBits)
		}
	}
	if total == 0 {
		return out, 0
	}
	return out, float64(vis) / float64(total)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSeqIndexMatchesVertexWalk: on 200 seeded random designs, every
// reader of the sequential-node index — SeqAVFByNode, harden's
// candidates, SeqDecomposition, FubStats, VisitedFraction and the
// interval per-node series — is bit-identical to the per-vertex walk it
// replaced.
func TestSeqIndexMatchesVertexWalk(t *testing.T) {
	const seeds = 200
	eng := sweep.New(sweep.Options{Workers: 1, CacheSize: 2})
	checkFubStats := func(ctxt string, res *core.Result) {
		t.Helper()
		wfs, wvis := walkFubStats(res)
		if gfs := res.FubStats(); fmt.Sprintf("%#v", gfs) != fmt.Sprintf("%#v", wfs) {
			t.Fatalf("%s: FubStats %+v, walk %+v", ctxt, gfs, wfs)
		}
		if gvis := res.VisitedFraction(); !sameBits(gvis, wvis) {
			t.Fatalf("%s: VisitedFraction %v, walk %v", ctxt, gvis, wvis)
		}
	}
	// The random corpus has no constant bits; tinycore does.
	_, tres, _ := tinycoreSolved(t)
	checkFubStats("tinycore", tres)
	for seed := uint64(0); seed < seeds; seed++ {
		a, res, _ := solvedRand(t, graphtest.Small(seed), seed^0x5e91d)
		keys, bits := walkSeqNodes(res)
		ctxt := fmt.Sprintf("seed %d", seed)

		want := walkSeqAVFByNode(res)
		got := res.SeqAVFByNode()
		if len(got) != len(want) {
			t.Fatalf("%s: SeqAVFByNode has %d nodes, walk %d", ctxt, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || !sameBits(g, w) {
				t.Fatalf("%s: SeqAVFByNode[%s] = %v (present %v), walk %v", ctxt, k, g, ok, w)
			}
		}

		m, err := NewModel(res, nil)
		if err != nil {
			t.Fatalf("%s: NewModel: %v", ctxt, err)
		}
		if len(m.cands) != len(keys) || len(m.verts) != len(keys) {
			t.Fatalf("%s: %d candidates / %d vertex lists, walk has %d nodes",
				ctxt, len(m.cands), len(m.verts), len(keys))
		}
		for i, key := range keys {
			c, vs := m.cands[i], m.verts[i]
			gain := 0.0
			for _, v := range bits[key] {
				gain += res.AVF[v]
			}
			if c.Key != key || c.Bits != len(bits[key]) || !sameBits(c.Gain, gain) || c.Cost != float64(len(bits[key])) {
				t.Fatalf("%s: candidate %d = %+v, walk {%s %d bits gain %v}", ctxt, i, c, key, len(bits[key]), gain)
			}
			if fmt.Sprint(vs) != fmt.Sprint(bits[key]) {
				t.Fatalf("%s: candidate %s verts %v, walk %v", ctxt, key, vs, bits[key])
			}
			if m.index[key] != i {
				t.Fatalf("%s: index[%s] = %d, want %d", ctxt, key, m.index[key], i)
			}
		}

		checkFubStats(ctxt, res)

		wd, gd := walkSeqDecomposition(res), res.SeqDecomposition()
		if !sameBits(gd.SDC, wd.SDC) || !sameBits(gd.DUE, wd.DUE) || !sameBits(gd.DCE, wd.DCE) {
			t.Fatalf("%s: SeqDecomposition %+v, walk %+v", ctxt, gd, wd)
		}

		iw := sweep.IntervalWorkload{Name: "iv"}
		for w := 0; w < 3; w++ {
			iw.Windows = append(iw.Windows, sweep.WindowSpan{Start: uint64(100 * w), End: uint64(100*w + 50 + w)})
			iw.Inputs = append(iw.Inputs, randomInputs(a, seed*7+uint64(w)))
		}
		batch, err := eng.SweepIntervals(res, []sweep.IntervalWorkload{iw})
		if err != nil {
			t.Fatalf("%s: SweepIntervals: %v", ctxt, err)
		}
		ir := &batch.Workloads[0]
		series := ir.NodeSeries()
		if len(series) != len(keys) {
			t.Fatalf("%s: NodeSeries has %d nodes, walk %d", ctxt, len(series), len(keys))
		}
		x := a.SeqIndex()
		for w, r := range ir.Results {
			for k, v := range walkSeqAVFByNode(r) {
				if s := series[x.ByKey[k]]; len(s) != len(ir.Results) || !sameBits(s[w], v) {
					t.Fatalf("%s: NodeSeries[%s] = %v, window %d walk %v", ctxt, k, s, w, v)
				}
			}
		}
	}
}
