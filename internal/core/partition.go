package core

import (
	"fmt"
	"math"
	"sync"

	"seqavf/internal/graph"
	"seqavf/internal/pavf"
)

// SolvePartitioned runs the paper's operational tool flow (§5.2): the
// design is processed one FUB at a time, each iteration performing one
// down-walk and one up-walk per FUB against the FUBIO boundary values
// merged at the end of the previous iteration. A pAVF value therefore
// crosses at most one partition boundary per iteration, and the process
// repeats until the values reach steady state (the paper found 20
// iterations sufficient) or Opts.Iterations is exhausted.
//
// The converged result equals the monolithic Solve fixpoint; the value of
// this entry point is operational fidelity (bounded per-FUB memory) plus
// the per-iteration convergence trace the paper plots.
func (a *Analyzer) SolvePartitioned(in *Inputs) (*Result, error) {
	reg := a.Opts.Obs
	sp := reg.StartSpan("solve_partitioned")
	defer sp.End()
	esp := sp.Child("env")
	env, err := a.buildEnv(in)
	esp.End()
	if err != nil {
		return nil, err
	}
	n := a.G.NumVerts()
	sp.SetAttr("vertices", n)
	sp.SetAttr("fubs", len(a.G.FubNames))
	tsp := sp.Child("local_topos")
	fwdTopo, bwdTopo, err := a.localTopos()
	tsp.End()
	if err != nil {
		return nil, err
	}

	// Previous-iteration ("merged FUBIO") state and current state.
	fwdPrev := make([]pavf.Set, n)
	fwdPrevKnown := make([]bool, n)
	bwdPrev := make([]pavf.Set, n)
	bwdPrevKnown := make([]bool, n)
	fwdCur := make([]pavf.Set, n)
	bwdCur := make([]pavf.Set, n)
	bwdCurKnown := make([]bool, n)

	prevVal := make([]float64, n)
	for v := range prevVal {
		prevVal[v] = 1
	}

	r := &Result{Analyzer: a, Inputs: in, Env: env}
	numFubs := len(a.G.FubNames)
	var ws walkStats
	var wsMu sync.Mutex
	iter := 0
	for iter = 1; iter <= a.Opts.Iterations; iter++ {
		isp := sp.Child("iteration")
		isp.SetAttr("iter", iter)
		// One down-walk and one up-walk per FUB, Jacobi style: cross-FUB
		// contributions come from the previous iteration's merge. Each
		// FUB touches only its own vertices, so the walks parallelize
		// across FUBs (§5.2: partitioning exists partly "to parallelize
		// the task"); results are identical to the serial schedule. Walk
		// tallies accumulate per worker and merge once per iteration.
		walkFub := func(f int, st *walkStats) {
			for _, v := range fwdTopo[f] {
				fwdCur[v] = a.fwdUnionLocal(v, int32(f), fwdCur, fwdPrev, fwdPrevKnown, st)
			}
			lt := bwdTopo[f]
			for i := len(lt) - 1; i >= 0; i-- {
				v := lt[i]
				bwdCur[v], bwdCurKnown[v] = a.bwdUnionLocal(v, int32(f), bwdCur, bwdCurKnown, bwdPrev, bwdPrevKnown, st)
			}
		}
		if a.Opts.Workers > 1 {
			var wg sync.WaitGroup
			work := make(chan int)
			for w := 0; w < a.Opts.Workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var st walkStats
					for f := range work {
						walkFub(f, &st)
					}
					wsMu.Lock()
					ws.merge(&st)
					wsMu.Unlock()
				}()
			}
			for f := 0; f < numFubs; f++ {
				work <- f
			}
			close(work)
			wg.Wait()
		} else {
			for f := 0; f < numFubs; f++ {
				walkFub(f, &ws)
			}
		}
		// Merge step: publish this iteration's values as the FUBIO tables
		// for the next one, and measure the change for convergence.
		maxDelta := 0.0
		fubSum := make([]float64, numFubs)
		fubCnt := make([]int, numFubs)
		for v := 0; v < n; v++ {
			fwdPrev[v], fwdPrevKnown[v] = fwdCur[v], true
			bwdPrev[v], bwdPrevKnown[v] = bwdCur[v], bwdCurKnown[v]
			val := a.vertexValue(graph.VertexID(v), fwdCur[v], bwdCur[v], bwdCurKnown[v], env)
			if d := math.Abs(val - prevVal[v]); d > maxDelta {
				maxDelta = d
			}
			prevVal[v] = val
			if a.isSeqBit(graph.VertexID(v)) {
				f := a.G.Verts[v].Fub
				fubSum[f] += val
				fubCnt[f]++
			}
		}
		avg := make([]float64, numFubs)
		for f := range avg {
			if fubCnt[f] > 0 {
				avg[f] = fubSum[f] / float64(fubCnt[f])
			}
		}
		r.Trace = append(r.Trace, avg)
		// The convergence diagnostic folds into the span: max per-vertex
		// delta plus the per-FUB average sequential pAVFs the paper plots.
		isp.SetAttr("max_delta", maxDelta)
		isp.SetAttr("fub_avg_pavf", avg)
		isp.End()
		reg.Histogram("core.iter_delta").Observe(maxDelta)
		reg.Gauge("core.max_delta").Set(maxDelta)
		if maxDelta <= a.Opts.Epsilon {
			r.Converged = true
			break
		}
	}
	if iter > a.Opts.Iterations {
		iter = a.Opts.Iterations
	}
	nsp := sp.Child("finish")
	fin := a.finish(in, env, fwdCur, bwdCur, bwdCurKnown)
	nsp.End()
	fin.Iterations = iter
	fin.Converged = r.Converged
	fin.Trace = r.Trace
	ws.record(reg)
	reg.Counter("core.iterations").Add(int64(iter))
	reg.Counter("core.solves").Inc()
	sp.SetAttr("iterations", iter)
	sp.SetAttr("converged", fin.Converged)
	return fin, nil
}

// vertexValue resolves a vertex's numeric AVF from in-flight propagation
// state, matching the role handling in finish.
func (a *Analyzer) vertexValue(v graph.VertexID, fwd, bwd pavf.Set, bwdKnown bool, env pavf.Env) float64 {
	switch a.roles[v] {
	case RoleStructPort, RoleLoop:
		return a.fwdSrc[v].Eval(env)
	case RoleControl:
		return 1
	case RoleDebug:
		return 0
	case RoleConst:
		return 1
	}
	f := 1.0
	if a.fwdFixed[v] {
		f = a.fwdSrc[v].Eval(env)
	} else {
		f = fwd.Eval(env)
	}
	b := 1.0
	if a.bwdFixed[v] {
		b = a.bwdSrc[v].Eval(env)
	} else if bwdKnown {
		b = bwd.Eval(env)
	}
	return math.Min(f, b)
}

// fwdUnionLocal is fwdUnion with cross-FUB predecessors read from the
// previous iteration's merged state.
func (a *Analyzer) fwdUnionLocal(v graph.VertexID, fub int32, cur, prev []pavf.Set, prevKnown []bool, st *walkStats) pavf.Set {
	st.fwdVerts++
	var acc pavf.Set
	for _, p := range a.G.Preds(v) {
		var contrib pavf.Set
		switch {
		case a.fwdFixed[p]:
			contrib = a.fwdSrc[p]
		case a.G.Verts[p].Fub == fub:
			contrib = cur[p]
		case prevKnown[p]:
			contrib = prev[p]
		default:
			contrib = pavf.TopSet()
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

// bwdUnionLocal is bwdUnion with cross-FUB successors read from the
// previous iteration's merged state.
func (a *Analyzer) bwdUnionLocal(v graph.VertexID, fub int32, cur []pavf.Set, curKnown []bool, prev []pavf.Set, prevKnown []bool, st *walkStats) (pavf.Set, bool) {
	st.bwdVerts++
	succs := a.G.Succs(v)
	if len(succs) == 0 {
		return pavf.Set{}, false
	}
	var acc pavf.Set
	for _, s := range succs {
		var contrib pavf.Set
		switch {
		case a.bwdFixed[s]:
			contrib = a.bwdSrc[s]
		case a.G.Verts[s].Fub == fub:
			if !curKnown[s] {
				contrib = pavf.TopSet()
			} else {
				contrib = cur[s]
			}
		case prevKnown[s]:
			contrib = prev[s]
		default:
			contrib = pavf.TopSet()
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

// localTopos returns per-FUB topological orders over intra-FUB edges
// only: the schedule for one down-walk (and, reversed, one up-walk) per
// FUB. The schedules are built once per analyzer and shared — callers
// must not mutate the returned slices.
func (a *Analyzer) localTopos() ([][]graph.VertexID, [][]graph.VertexID, error) {
	a.topoOnce.Do(func() {
		a.fwdTopos, a.bwdTopos, a.topoErr = a.buildLocalTopos()
	})
	return a.fwdTopos, a.bwdTopos, a.topoErr
}

func (a *Analyzer) buildLocalTopos() (fwd [][]graph.VertexID, bwd [][]graph.VertexID, err error) {
	numFubs := len(a.G.FubNames)
	fwd = make([][]graph.VertexID, numFubs)
	bwd = make([][]graph.VertexID, numFubs)
	n := a.G.NumVerts()

	order := func(fixed []bool) ([][]graph.VertexID, error) {
		indeg := make([]int32, n)
		for v := 0; v < n; v++ {
			if fixed[v] {
				continue
			}
			for _, p := range a.G.Preds(graph.VertexID(v)) {
				if !fixed[p] && a.G.Verts[p].Fub == a.G.Verts[v].Fub {
					indeg[v]++
				}
			}
		}
		out := make([][]graph.VertexID, numFubs)
		var queue []graph.VertexID
		done := 0
		want := 0
		for v := 0; v < n; v++ {
			if fixed[v] {
				continue
			}
			want++
			if indeg[v] == 0 {
				queue = append(queue, graph.VertexID(v))
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			f := a.G.Verts[v].Fub
			out[f] = append(out[f], v)
			done++
			for _, s := range a.G.Succs(v) {
				if fixed[s] || a.G.Verts[s].Fub != f {
					continue
				}
				indeg[s]--
				if indeg[s] == 0 {
					queue = append(queue, s)
				}
			}
		}
		if done != want {
			return nil, fmt.Errorf("core: intra-FUB cycle remains (%d of %d ordered)", done, want)
		}
		return out, nil
	}
	if fwd, err = order(a.fwdFixed); err != nil {
		return nil, nil, err
	}
	if bwd, err = order(a.bwdFixed); err != nil {
		return nil, nil, err
	}
	return fwd, bwd, nil
}
