// Blocked multi-workload evaluation: the SoA kernel behind every sweep.
//
// Evaluating one workload at a time would walk the full CSR index arrays
// (setOff/setIDs/fwdIdx/bwdIdx) once per workload, so a 1000-workload
// sweep would stream the same plan indices 1000 times. The kernel
// instead lays W workloads' environments out as an EnvMatrix in structure-of-arrays order —
// term-major, workload-lane-minor, so all W values of one term sit in one
// contiguous row — and traverses the plan ONCE per block: every subterm
// set is summed across all lanes before the next set's indices are
// touched, and the per-vertex MIN pass reads fwdIdx/bwdIdx once for all W
// workloads. Per-workload cost drops to the arithmetic itself; the index
// traffic is amortized W ways (the positional-popcount blocking idea,
// applied to saturating sums).
//
// The kernel replays pavf's arithmetic exactly — per-lane sums add terms
// in ascending TermID order and saturate at exactly 1.0, after which the
// lane is excluded from further adds just as Set.Eval's break stops its
// sum — so every lane is bit-identical to pavf.Expr.Eval of its
// environment (Result.Reevaluate, the tests' oracle), for every block
// width, 1 included, and every ragged tail.

package sweep

import (
	"fmt"

	"seqavf/internal/core"
	"seqavf/internal/pavf"
)

// DefaultBlockSize is the lane width used when Options.BlockSize is 0:
// 16 lanes make every term row two cache lines of float64, wide enough to
// amortize the plan traversal and small enough that the scratch matrix
// (NumSets x 16) stays cache-resident for typical plans.
const DefaultBlockSize = 16

// EnvMatrix holds a block of per-workload term environments in SoA order:
// term-major, workload-lane-minor, so vals[t*lanes : (t+1)*lanes] is term
// t's pAVF across every lane. Build it with Reset (from workloads, with
// full input validation) or ResetEnvs (from prebuilt environments); the
// SoA buffer is reused across Resets, so one matrix per worker serves a
// whole sweep. The zero value is an empty matrix ready for Reset.
type EnvMatrix struct {
	lanes int
	terms int
	vals  []float64
	// envs are the per-lane environments the matrix was transposed from;
	// they are freshly allocated by Reset (never pooled) because the
	// Results evaluated from this block adopt them.
	envs []pavf.Env
}

// Lanes returns the number of workload lanes in the matrix.
func (m *EnvMatrix) Lanes() int { return m.lanes }

// Terms returns the number of terms per lane (the universe length).
func (m *EnvMatrix) Terms() int { return m.terms }

// Env returns lane w's environment (the one its Result adopts).
func (m *EnvMatrix) Env(w int) pavf.Env { return m.envs[w] }

// At returns term id's value in lane w.
func (m *EnvMatrix) At(id pavf.TermID, w int) float64 {
	return m.vals[int(id)*m.lanes+w]
}

// Reset rebuilds the matrix for one block of workloads against a: each
// lane goes through the fused CheckInputs+BuildEnv
// (core.Analyzer.CheckedEnv), then pavf.Env.Validate gates the
// result — a NaN, Inf, or out-of-range pAVF is rejected here, at build
// time, and never reaches the kernel. Errors name the offending
// workload. The SoA buffer is reused; the per-lane environments are
// fresh allocations.
func (m *EnvMatrix) Reset(a *core.Analyzer, ws []Workload) error {
	envs := make([]pavf.Env, len(ws))
	for i, w := range ws {
		env, err := a.CheckedEnv(w.Inputs)
		if err != nil {
			return fmt.Errorf("sweep: workload %q: %w", w.Name, err)
		}
		if err := env.Validate(); err != nil {
			return fmt.Errorf("sweep: workload %q: %w", w.Name, err)
		}
		envs[i] = env
	}
	m.adopt(envs)
	return nil
}

// ResetEnvs rebuilds the matrix from prebuilt environments. Every lane
// must have the same length and pass pavf.Env.Validate; a ragged or
// non-finite lane is refused so the kernel never indexes out of range or
// propagates NaN.
func (m *EnvMatrix) ResetEnvs(envs []pavf.Env) error {
	var terms int
	if len(envs) > 0 {
		terms = len(envs[0])
	}
	for w, env := range envs {
		if len(env) != terms {
			return fmt.Errorf("sweep: env matrix lane %d has %d terms, lane 0 has %d", w, len(env), terms)
		}
		if err := env.Validate(); err != nil {
			return fmt.Errorf("sweep: env matrix lane %d: %w", w, err)
		}
	}
	m.adopt(envs)
	return nil
}

// adopt transposes validated environments into the SoA buffer.
func (m *EnvMatrix) adopt(envs []pavf.Env) {
	lanes := len(envs)
	terms := 0
	if lanes > 0 {
		terms = len(envs[0])
	}
	m.lanes, m.terms, m.envs = lanes, terms, envs
	need := lanes * terms
	if cap(m.vals) < need {
		m.vals = make([]float64, need)
	} else {
		m.vals = m.vals[:need]
	}
	for t := 0; t < terms; t++ {
		row := m.vals[t*lanes : (t+1)*lanes]
		for w := 0; w < lanes; w++ {
			row[w] = envs[w][t]
		}
	}
}

// ScratchLen returns the scratch length EvalBlock needs for a given lane
// count: an SoA running-sum row per subterm set, plus one value per
// unique (fwd, bwd) slot pair for the lane currently being broadcast.
func (p *Plan) ScratchLen(lanes int) int {
	return p.NumSets()*lanes + len(p.pairFwd)
}

// EvalBlock resolves every vertex AVF for every lane of m in one plan
// traversal, writing lane w's per-vertex AVFs into out[w]. scratch needs
// ScratchLen(Lanes()) entries (per-set running sums followed by the
// vertex-major AVF staging rows, both SoA like the matrix). Shape
// mismatches are errors, not panics. Results are bit-identical to
// evaluating each lane's closed forms through pavf.Expr.Eval.
func (p *Plan) EvalBlock(m *EnvMatrix, scratch []float64, out [][]float64) error {
	if m.lanes == 0 {
		return nil
	}
	if want := p.Analyzer.Universe().Len(); m.terms != want {
		return fmt.Errorf("sweep: env matrix has %d terms but design %q has a universe of %d",
			m.terms, p.Analyzer.G.Design.Name, want)
	}
	if len(out) != m.lanes {
		return fmt.Errorf("sweep: %d output vectors for %d lanes", len(out), m.lanes)
	}
	nv := p.NumVerts()
	for w, o := range out {
		if len(o) != nv {
			return fmt.Errorf("sweep: output vector %d has %d entries, plan has %d vertices", w, len(o), nv)
		}
	}
	if need := p.ScratchLen(m.lanes); len(scratch) < need {
		return fmt.Errorf("sweep: scratch has %d entries, block kernel needs %d", len(scratch), need)
	}
	p.evalEnvBlock(m, scratch, out)
	return nil
}

// evalEnvBlock is the blocked kernel proper. Pass 1 streams the CSR set
// table once, accumulating all lanes of each set before moving on; the
// per-lane saturation `min(1, sum+term)` is bit-identical to Set.Eval's
// capped break — sums of validated in-[0,1] terms are monotone, and a
// lane pinned at exactly 1.0 stays there for every later add. Pass 2
// exploits MIN sharing: vertices with the same (fwd, bwd) slot pair
// resolve identically, so each lane computes one MIN per unique pair
// (an unknown side is a conservative 1.0, and set sums never exceed 1,
// so the MIN collapses to the known side) and then broadcasts through
// pairIdx with one sequential write per vertex. Both passes replay
// pavf.Expr.Eval's arithmetic exactly.
func (p *Plan) evalEnvBlock(m *EnvMatrix, scratch []float64, out [][]float64) {
	lanes := m.lanes
	vals := m.vals
	nSets := len(p.setOff) - 1
	sums := scratch[:nSets*lanes]
	for s := 0; s < nSets; s++ {
		row := sums[s*lanes : s*lanes+lanes]
		for w := range row {
			row[w] = 0
		}
		for _, id := range p.setIDs[p.setOff[s]:p.setOff[s+1]] {
			col := vals[int(id)*lanes : int(id)*lanes+lanes]
			col = col[:len(row)]
			for w := range row {
				row[w] = min(1, row[w]+col[w])
			}
		}
	}
	nPairs := len(p.pairFwd)
	pv := scratch[nSets*lanes : nSets*lanes+nPairs]
	pairFwd, pairBwd := p.pairFwd, p.pairBwd
	runPair, runOff := p.runPair, p.runOff
	for w := 0; w < lanes; w++ {
		for pi := 0; pi < nPairs; pi++ {
			fi, bi := pairFwd[pi], pairBwd[pi]
			switch {
			case fi >= 0 && bi >= 0:
				pv[pi] = min(sums[int(fi)*lanes+w], sums[int(bi)*lanes+w])
			case fi >= 0:
				pv[pi] = sums[int(fi)*lanes+w]
			case bi >= 0:
				pv[pi] = sums[int(bi)*lanes+w]
			default:
				pv[pi] = 1
			}
		}
		o := out[w]
		for r, pi := range runPair {
			c := pv[pi]
			seg := o[runOff[r]:runOff[r+1]]
			for i := range seg {
				seg[i] = c
			}
		}
	}
}

// EvalBlockInto evaluates one block of workloads through the plan,
// writing a full core.Result per workload into dst (index-aligned with
// ws). m is reset for the block — its SoA buffer is reused, so one matrix
// per worker serves a whole sweep; a nil m uses a throwaway. scratch must
// hold ScratchLen(len(ws)) entries (nil allocates). Each Result's AVF
// vector is a view into one fresh per-block backing array, and its Env is
// the lane's freshly built environment.
func (p *Plan) EvalBlockInto(ws []Workload, m *EnvMatrix, scratch []float64, dst []*core.Result) error {
	if len(dst) != len(ws) {
		return fmt.Errorf("sweep: %d result slots for %d workloads", len(dst), len(ws))
	}
	if m == nil {
		m = new(EnvMatrix)
	}
	if err := m.Reset(p.Analyzer, ws); err != nil {
		return err
	}
	lanes := len(ws)
	if lanes == 0 {
		return nil
	}
	if need := p.ScratchLen(lanes); len(scratch) < need {
		scratch = make([]float64, need)
	}
	nv := p.NumVerts()
	buf := make([]float64, lanes*nv)
	out := make([][]float64, lanes)
	for w := range out {
		out[w] = buf[w*nv : (w+1)*nv : (w+1)*nv]
	}
	if err := p.EvalBlock(m, scratch, out); err != nil {
		return err
	}
	for w := range ws {
		dst[w] = &core.Result{
			Analyzer:   p.Analyzer,
			Inputs:     ws[w].Inputs,
			Env:        m.envs[w],
			Exprs:      p.exprs,
			AVF:        out[w],
			Visited:    p.visited,
			Iterations: 1,
			Converged:  true,
		}
	}
	return nil
}
