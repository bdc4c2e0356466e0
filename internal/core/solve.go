package core

import (
	"context"
	"fmt"
	"math"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// walkStats accumulates hot-loop counters locally (no atomics in the
// per-vertex path) and publishes them to the registry once per phase.
type walkStats struct {
	fwdVerts  int64 // vertices visited by forward walks
	bwdVerts  int64 // vertices visited by backward walks
	unionOps  int64 // pairwise set unions performed
	topShorts int64 // unions short-circuited by a ⊤ collapse
}

func (w *walkStats) merge(o *walkStats) {
	w.fwdVerts += o.fwdVerts
	w.bwdVerts += o.bwdVerts
	w.unionOps += o.unionOps
	w.topShorts += o.topShorts
}

// record adds the accumulated tallies to the solver counters.
func (w *walkStats) record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core.fwd_vertices").Add(w.fwdVerts)
	reg.Counter("core.bwd_vertices").Add(w.bwdVerts)
	reg.Counter("core.union_ops").Add(w.unionOps)
	reg.Counter("core.top_shortcircuits").Add(w.topShorts)
}

// Result holds the outcome of one SART run: a closed-form AVF equation per
// bit vertex plus the environment built from the supplied measurements.
type Result struct {
	Analyzer *Analyzer
	Inputs   *Inputs
	Env      pavf.Env
	// Exprs holds the per-vertex closed-form equations (§5.1): re-run
	// Reevaluate with fresh Inputs to obtain new AVFs without walking.
	Exprs []pavf.Expr
	// AVF caches Exprs[v].Eval(Env).
	AVF []float64
	// Visited marks vertices reached by at least one walk.
	Visited []bool

	// Iterations is the number of relaxation iterations executed
	// (1 for the monolithic solver).
	Iterations int
	// Converged reports whether the partitioned relaxation met Epsilon
	// before the iteration bound (always true for monolithic).
	Converged bool
	// Trace records, per iteration, the average sequential-node pAVF per
	// FUB — the convergence diagnostic the paper plots (§6.1).
	Trace [][]float64
}

// Solve runs the monolithic solver: one forward fixpoint and one backward
// fixpoint over the whole design in topological order. Because union and
// MIN are monotone, this is the limit the paper's walk-based relaxation
// converges to; walks "can be done in any order" (§4.1.2).
func (a *Analyzer) Solve(in *Inputs) (*Result, error) {
	return a.SolveContext(context.Background(), in)
}

// SolveContext is Solve with request-scoped tracing: the "solve" span
// (and its env/fwd/bwd/finish phase children) nests under ctx's current
// span, so a cold solve triggered by an HTTP design upload appears in
// that request's trace. The context is trace plumbing only — the solve
// itself is not cancellable mid-fixpoint.
func (a *Analyzer) SolveContext(ctx context.Context, in *Inputs) (*Result, error) {
	sp := a.Opts.Obs.StartSpanContext(ctx, "solve")
	defer sp.End()
	esp := sp.Child("env")
	env, err := a.buildEnv(in)
	esp.End()
	if err != nil {
		return nil, err
	}
	n := a.G.NumVerts()
	sp.SetAttr("vertices", n)
	fwd := make([]pavf.Set, n)
	bwd := make([]pavf.Set, n)
	bwdKnown := make([]bool, n)
	var ws walkStats

	// Forward: topological order guarantees preds are final.
	fsp := sp.Child("fwd")
	for _, v := range a.topo {
		fwd[v] = a.fwdUnion(v, func(p graph.VertexID) (pavf.Set, bool) {
			return fwd[p], true
		}, &ws)
	}
	fsp.SetAttr("vertices", len(a.topo))
	fsp.End()
	// Backward: reverse order over non-bwd-fixed vertices.
	bsp := sp.Child("bwd")
	bwdTopo, err := a.G.TopoOrder(func(v graph.VertexID) bool { return a.bwdFixed[v] })
	if err != nil {
		bsp.End()
		return nil, fmt.Errorf("core: backward order: %w", err)
	}
	for i := len(bwdTopo) - 1; i >= 0; i-- {
		v := bwdTopo[i]
		bwd[v], bwdKnown[v] = a.bwdUnion(v, func(s graph.VertexID) (pavf.Set, bool) {
			return bwd[s], bwdKnown[s]
		}, &ws)
	}
	bsp.SetAttr("vertices", len(bwdTopo))
	bsp.End()
	nsp := sp.Child("finish")
	r := a.finish(in, env, fwd, bwd, bwdKnown)
	nsp.End()
	r.Iterations = 1
	r.Converged = true
	ws.record(a.Opts.Obs)
	a.Opts.Obs.Counter("core.solves").Inc()
	return r, nil
}

// fwdUnion computes the forward value of a non-fwd-fixed vertex from its
// predecessors' contributions; get returns a pred's computed set. Walk
// tallies accumulate into st.
func (a *Analyzer) fwdUnion(v graph.VertexID, get func(graph.VertexID) (pavf.Set, bool), st *walkStats) pavf.Set {
	st.fwdVerts++
	var acc pavf.Set
	for _, p := range a.G.Preds(v) {
		var contrib pavf.Set
		if a.fwdFixed[p] {
			contrib = a.fwdSrc[p]
		} else {
			set, known := get(p)
			if !known {
				contrib = pavf.TopSet()
			} else {
				contrib = set
			}
		}
		st.unionOps++
		acc = acc.Union(contrib)
		if acc.HasTop() {
			st.topShorts++
			return acc
		}
	}
	return acc
}

// bwdUnion computes the backward value of a non-bwd-fixed vertex from its
// successors' contributions. known is false when the vertex has no
// successors at all (a dangling node keeps its conservative 1.0). Walk
// tallies accumulate into st.
func (a *Analyzer) bwdUnion(v graph.VertexID, get func(graph.VertexID) (pavf.Set, bool), st *walkStats) (pavf.Set, bool) {
	st.bwdVerts++
	succs := a.G.Succs(v)
	if len(succs) == 0 {
		return pavf.Set{}, false
	}
	var acc pavf.Set
	for _, s := range succs {
		var contrib pavf.Set
		if a.bwdFixed[s] {
			contrib = a.bwdSrc[s]
		} else {
			set, known := get(s)
			if !known {
				contrib = pavf.TopSet()
			} else {
				contrib = set
			}
		}
		st.unionOps++
		acc = acc.Union(contrib)
		if acc.HasTop() {
			st.topShorts++
			return acc, true
		}
	}
	return acc, true
}

// finish assembles per-vertex closed forms and statistics.
func (a *Analyzer) finish(in *Inputs, env pavf.Env, fwd, bwd []pavf.Set, bwdKnown []bool) *Result {
	return a.finishReuse(in, env, fwd, bwd, bwdKnown, nil, nil)
}

// finishReuse is finish with an optional per-vertex AVF bypass: where
// reuseOK[v] holds, reuseAVF[v] is taken verbatim instead of evaluating
// the vertex's expression. The incremental path uses this for FUBs whose
// closed forms carried over unchanged under identical inputs — their
// prior values are already the evaluation result, bit for bit. Both
// slices nil means evaluate everything.
func (a *Analyzer) finishReuse(in *Inputs, env pavf.Env, fwd, bwd []pavf.Set, bwdKnown []bool, reuseAVF []float64, reuseOK []bool) *Result {
	n := a.G.NumVerts()
	r := &Result{
		Analyzer: a,
		Inputs:   in,
		Env:      env,
		Exprs:    make([]pavf.Expr, n),
		AVF:      make([]float64, n),
	}
	for v := 0; v < n; v++ {
		var x pavf.Expr
		switch a.roles[v] {
		case RoleNormal, RolePseudoIn:
			if a.fwdFixed[v] { // pseudo input
				x.Fwd, x.KnownFwd = a.fwdSrc[v], true
			} else {
				x.Fwd, x.KnownFwd = fwd[v], true
			}
			if a.bwdFixed[v] { // unconsumed output port
				x.Bwd, x.KnownBwd = a.bwdSrc[v], true
			} else {
				x.Bwd, x.KnownBwd = bwd[v], bwdKnown[v]
			}
		case RoleStructPort:
			x.Fwd, x.KnownFwd = a.fwdSrc[v], true
			x.Bwd, x.KnownBwd = a.fwdSrc[v], true
		case RoleControl:
			// Pinned to 100%: always architecturally required.
			x.Fwd, x.KnownFwd = a.fwdSrc[v], true
		case RoleLoop:
			x.Fwd, x.KnownFwd = a.fwdSrc[v], true
			x.Bwd, x.KnownBwd = a.fwdSrc[v], true
		case RoleDebug:
			x.Fwd, x.KnownFwd = pavf.Set{}, true
			x.Bwd, x.KnownBwd = pavf.Set{}, true
		case RoleConst:
			x.Fwd, x.KnownFwd = pavf.TopSet(), true
		}
		r.Exprs[v] = x
		if reuseOK != nil && reuseOK[v] {
			r.AVF[v] = reuseAVF[v]
		} else {
			r.AVF[v] = x.Eval(env)
		}
	}
	r.Visited = a.visited()
	return r
}

// visited marks vertices reached by a forward walk from any source or a
// backward walk from any sink — the paper's ">98% of all RTL nodes"
// coverage metric. The bitmap depends only on graph structure, so it is
// computed once per analyzer and the same slice is attached to every
// Result — holders must treat Result.Visited as read-only.
func (a *Analyzer) visited() []bool {
	a.visitedOnce.Do(func() {
		a.visitedBits = a.buildVisited()
	})
	return a.visitedBits
}

func (a *Analyzer) buildVisited() []bool {
	n := a.G.NumVerts()
	vis := make([]bool, n)
	// Forward BFS from forward-fixed vertices with non-empty sources.
	queue := make([]graph.VertexID, 0, n)
	for v := 0; v < n; v++ {
		if a.fwdFixed[v] && !a.fwdSrc[v].IsEmpty() && a.roles[v] != RoleConst {
			queue = append(queue, graph.VertexID(v))
		}
	}
	seen := make([]bool, n)
	for _, v := range queue {
		seen[v] = true
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		vis[v] = true
		for _, s := range a.G.Succs(v) {
			if !seen[s] && !a.fwdFixed[s] {
				seen[s] = true
				queue = append(queue, s)
			} else if a.fwdFixed[s] {
				vis[s] = true
			}
		}
	}
	// Backward BFS from backward-fixed vertices with non-empty sinks.
	queue = queue[:0]
	seen = make([]bool, n)
	for v := 0; v < n; v++ {
		if a.bwdFixed[v] && !a.bwdSrc[v].IsEmpty() {
			queue = append(queue, graph.VertexID(v))
			seen[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		vis[v] = true
		for _, p := range a.G.Preds(v) {
			if !seen[p] && !a.bwdFixed[p] {
				seen[p] = true
				queue = append(queue, p)
			} else if a.bwdFixed[p] {
				vis[p] = true
			}
		}
	}
	return vis
}

// Reevaluate applies fresh measurements to the closed-form equations
// without re-walking the design (§5.1: "any subsequent sequential AVF
// computation ... simply needs to generate new pAVFs from the ACE model
// then plug those values into the closed form equations").
//
// It rejects inputs that were not measured for the solved design: a table
// naming structure ports this design does not have would otherwise be
// silently dropped while the design's own ports fell back to defaults,
// producing AVFs for the wrong workload binding.
func (r *Result) Reevaluate(in *Inputs) error {
	if n := r.Analyzer.G.NumVerts(); len(r.Exprs) != n || len(r.AVF) != n {
		return fmt.Errorf("core: result holds %d equations and %d AVFs but analyzer design %q has %d vertices (result/analyzer mismatch)",
			len(r.Exprs), len(r.AVF), r.Analyzer.G.Design.Name, n)
	}
	if err := r.Analyzer.CheckInputs(in); err != nil {
		return err
	}
	env, err := r.Analyzer.buildEnv(in)
	if err != nil {
		return err
	}
	r.Inputs = in
	r.Env = env
	for v := range r.Exprs {
		r.AVF[v] = r.Exprs[v].Eval(env)
	}
	return nil
}

// Equation renders vertex v's closed-form AVF equation.
func (r *Result) Equation(v graph.VertexID) string {
	return r.Exprs[v].Format(r.Analyzer.universe)
}

// VisitedFraction returns the share of analyzable vertices reached by a
// walk (debug-stripped vertices are excluded from the denominator).
func (r *Result) VisitedFraction() float64 {
	total, vis := 0, 0
	for v := range r.Visited {
		if r.Analyzer.roles[v] == RoleDebug {
			continue
		}
		total++
		if r.Visited[v] {
			vis++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(vis) / float64(total)
}

// IsSequentialBit reports whether vertex v is a sequential (flop/latch)
// bit for statistics purposes. Structure storage is excluded: structures
// are ACE-modeled, not sequentials.
func (r *Result) IsSequentialBit(v graph.VertexID) bool {
	return r.Analyzer.isSeqBit(v)
}

// FubStat summarizes one FUB after resolution — one bar of Figure 9.
type FubStat struct {
	Fub string
	// SeqBits / NodeBits count sequential and total analyzable bits.
	SeqBits  int
	NodeBits int
	// AvgSeqAVF and AvgNodeAVF are unweighted means over those bits.
	AvgSeqAVF  float64
	AvgNodeAVF float64
	// LoopSeqBits counts loop-boundary sequential bits (§4.3 reports
	// 2–3% of sequentials in loops).
	LoopSeqBits int
	// CtrlBits counts identified control-register bits.
	CtrlBits int
}

// FubStats aggregates per-FUB statistics in FUB declaration order.
func (r *Result) FubStats() []FubStat {
	a := r.Analyzer
	out := make([]FubStat, len(a.G.FubNames))
	for i, name := range a.G.FubNames {
		out[i].Fub = name
	}
	for v := 0; v < a.G.NumVerts(); v++ {
		role := a.roles[v]
		if role == RoleDebug || role == RoleConst {
			continue
		}
		vx := &a.G.Verts[v]
		st := &out[vx.Fub]
		avf := r.AVF[v]
		// Node stats cover combinational and sequential bits alike
		// (structure ports are wires, counted as nodes).
		st.NodeBits++
		st.AvgNodeAVF += avf
		if vx.Node.Kind == netlist.KindSeq {
			st.SeqBits++
			st.AvgSeqAVF += avf
			if role == RoleLoop {
				st.LoopSeqBits++
			}
			if role == RoleControl {
				st.CtrlBits++
			}
		}
	}
	for i := range out {
		if out[i].SeqBits > 0 {
			out[i].AvgSeqAVF /= float64(out[i].SeqBits)
		}
		if out[i].NodeBits > 0 {
			out[i].AvgNodeAVF /= float64(out[i].NodeBits)
		}
	}
	return out
}

// Summary aggregates design-wide statistics.
type Summary struct {
	SeqBits         int
	NodeBits        int
	LoopSeqBits     int
	CtrlBits        int
	WeightedSeqAVF  float64 // weighted by per-FUB sequential bit count
	WeightedNodeAVF float64
	VisitedFraction float64
	LoopSeqFraction float64
	Iterations      int
	Converged       bool
}

// Summarize computes the design-wide weighted averages the paper reports
// (weighted "to account for the actual number of sequentials in each FUB").
func (r *Result) Summarize() Summary {
	var s Summary
	var seqSum, nodeSum float64
	for _, fs := range r.FubStats() {
		s.SeqBits += fs.SeqBits
		s.NodeBits += fs.NodeBits
		s.LoopSeqBits += fs.LoopSeqBits
		s.CtrlBits += fs.CtrlBits
		seqSum += fs.AvgSeqAVF * float64(fs.SeqBits)
		nodeSum += fs.AvgNodeAVF * float64(fs.NodeBits)
	}
	if s.SeqBits > 0 {
		s.WeightedSeqAVF = seqSum / float64(s.SeqBits)
	}
	if s.NodeBits > 0 {
		s.WeightedNodeAVF = nodeSum / float64(s.NodeBits)
	}
	if s.SeqBits > 0 {
		s.LoopSeqFraction = float64(s.LoopSeqBits) / float64(s.SeqBits)
	}
	s.VisitedFraction = r.VisitedFraction()
	s.Iterations = r.Iterations
	s.Converged = r.Converged
	return s
}

// SeqAVFByNode returns the average AVF per sequential node (averaging the
// node's bits), keyed by "fub/node".
func (r *Result) SeqAVFByNode() map[string]float64 {
	nodes := r.Analyzer.SeqIndex().Nodes
	out := make(map[string]float64, len(nodes))
	for i := range nodes {
		out[nodes[i].Key] = nodes[i].MeanAVF(r.AVF)
	}
	return out
}

// MaxAbsDiff returns the largest absolute per-vertex AVF difference
// between two results over the same analyzer (used to verify that the
// partitioned relaxation converges to the monolithic fixpoint). Results
// with differing vertex counts are incomparable: MaxAbsDiff returns NaN
// instead of indexing out of range. Callers comparing against a tolerance
// must check math.IsNaN explicitly — any comparison with NaN is false.
func MaxAbsDiff(a, b *Result) float64 {
	if len(a.AVF) != len(b.AVF) {
		return math.NaN()
	}
	max := 0.0
	for v := range a.AVF {
		d := math.Abs(a.AVF[v] - b.AVF[v])
		if d > max {
			max = d
		}
	}
	return max
}
