// Package sweep is the workload sweep engine: the compile-once /
// serve-many half of the paper's §5.1 symbolic-propagation claim, built
// for batches.
//
// A solved core.Result carries one closed-form equation per bit vertex:
// AVF = MIN(Union(forward terms), Union(backward terms)). Evaluating a new
// workload therefore needs only a new term environment — no walks. But the
// per-vertex equations are massively redundant: propagation copies the same
// term sets down whole pipelines, so a design with hundreds of thousands of
// bits typically resolves to a few hundred distinct sets. Compile flattens
// the equations into a deduplicated plan — every distinct term set becomes
// one shared subterm slot, evaluated once per workload — and Engine pushes
// batches of workloads through compiled plans with a bounded worker pool,
// per-shard chunking, and an LRU plan cache keyed by the analyzer's design
// fingerprint.
//
// Numerically the plan is exact: subterm evaluation replays pavf.Set.Eval's
// summation order (ascending TermID, capped at 1.0) and the final MIN
// matches pavf.Expr.Eval, so plan results are bit-identical to
// Result.Reevaluate and to a fresh Solve under the same inputs.
package sweep

import (
	"fmt"

	"seqavf/internal/core"
	"seqavf/internal/pavf"
)

// Plan is a compiled, immutable evaluation plan for one design. It is safe
// for concurrent EvalBlock calls: evaluation writes only into
// caller-provided or freshly allocated buffers.
type Plan struct {
	// Analyzer is the design the plan was compiled for; environments are
	// built against its term universe.
	Analyzer *core.Analyzer
	// Fingerprint is Analyzer.Fingerprint(), the plan-cache key.
	Fingerprint uint64

	// exprs aliases the source result's closed forms (read-only), so
	// per-workload Results can render equations and statistics.
	exprs   []pavf.Expr
	visited []bool

	// The deduplicated set table in CSR form: set s covers
	// setIDs[setOff[s]:setOff[s+1]], IDs ascending as in pavf.Set.
	setOff []int32
	setIDs []pavf.TermID
	// fwdIdx/bwdIdx give each vertex's set slot per direction, or -1 when
	// the walk never reached that side (conservative 1.0).
	fwdIdx []int32
	bwdIdx []int32

	// The deduplicated (fwdIdx, bwdIdx) pair table: vertices sharing both
	// set slots resolve to the same MIN, so the blocked kernel computes
	// each distinct pair once per lane and broadcasts the values.
	// pairFwd/pairBwd are the slot pair for each unique pair (slot -1 =
	// unknown side). Adjacent vertices overwhelmingly share a pair (the
	// bits of one node), so the vertex->pair map is run-length encoded:
	// run r covers vertices [runOff[r], runOff[r+1]) and resolves to pair
	// runPair[r], turning the broadcast into a constant fill per run.
	pairFwd []int32
	pairBwd []int32
	runOff  []int32
	runPair []int32
}

// Stats describes a compiled plan's shape.
type Stats struct {
	// Vertices is the number of bit equations the plan resolves.
	Vertices int
	// UniqueSets counts distinct term sets — the subterms evaluated once
	// per workload.
	UniqueSets int
	// SetRefs counts per-vertex set references (known sides only);
	// SetRefs/UniqueSets is the sharing factor the dedup exploits.
	SetRefs int
	// Terms is the total TermID count across unique sets.
	Terms int
}

// Compile flattens res's closed-form equations into an evaluation plan.
func Compile(res *core.Result) (*Plan, error) {
	a := res.Analyzer
	n := a.G.NumVerts()
	if len(res.Exprs) != n {
		return nil, fmt.Errorf("sweep: result has %d equations but design %q has %d vertices",
			len(res.Exprs), a.G.Design.Name, n)
	}
	p := &Plan{
		Analyzer:    a,
		Fingerprint: a.Fingerprint(),
		exprs:       res.Exprs,
		visited:     res.Visited,
		setOff:      []int32{0},
		fwdIdx:      make([]int32, n),
		bwdIdx:      make([]int32, n),
	}
	index := make(map[string]int32)
	var key []byte
	intern := func(s pavf.Set) int32 {
		ids := s.IDs()
		key = key[:0]
		for _, id := range ids {
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		if i, ok := index[string(key)]; ok {
			return i
		}
		i := int32(len(p.setOff) - 1)
		index[string(key)] = i
		p.setIDs = append(p.setIDs, ids...)
		p.setOff = append(p.setOff, int32(len(p.setIDs)))
		return i
	}
	for v := 0; v < n; v++ {
		x := &res.Exprs[v]
		if x.KnownFwd {
			p.fwdIdx[v] = intern(x.Fwd)
		} else {
			p.fwdIdx[v] = -1
		}
		if x.KnownBwd {
			p.bwdIdx[v] = intern(x.Bwd)
		} else {
			p.bwdIdx[v] = -1
		}
	}
	p.buildPairs()
	return p, nil
}

// buildPairs fills the unique (fwd, bwd) slot-pair table and its
// run-length-encoded vertex map. Derived entirely from fwdIdx/bwdIdx, so
// both Compile and Restore produce identical tables for the same CSR
// plan.
func (p *Plan) buildPairs() {
	n := len(p.fwdIdx)
	seen := make(map[uint64]int32, 64)
	prev := int32(-1)
	for v := 0; v < n; v++ {
		fi, bi := p.fwdIdx[v], p.bwdIdx[v]
		key := uint64(uint32(fi))<<32 | uint64(uint32(bi))
		pi, ok := seen[key]
		if !ok {
			pi = int32(len(p.pairFwd))
			seen[key] = pi
			p.pairFwd = append(p.pairFwd, fi)
			p.pairBwd = append(p.pairBwd, bi)
		}
		if pi != prev {
			p.runOff = append(p.runOff, int32(v))
			p.runPair = append(p.runPair, pi)
			prev = pi
		}
	}
	p.runOff = append(p.runOff, int32(n))
}

// Raw is the plan's CSR subterm table in serializable form. Slices alias
// the plan's internal storage and must not be modified.
type Raw struct {
	// SetOff/SetIDs are the deduplicated set table in CSR form: set s
	// covers SetIDs[SetOff[s]:SetOff[s+1]], term IDs strictly ascending.
	SetOff []int32
	SetIDs []pavf.TermID
	// FwdIdx/BwdIdx give each vertex's set slot per direction, -1 when the
	// walk never reached that side.
	FwdIdx []int32
	BwdIdx []int32
}

// Raw exposes the plan's CSR subterm table for persistence
// (internal/artifact). The returned slices alias the plan and are
// read-only.
func (p *Plan) Raw() Raw {
	return Raw{SetOff: p.setOff, SetIDs: p.setIDs, FwdIdx: p.fwdIdx, BwdIdx: p.bwdIdx}
}

// Restore reconstructs a compiled plan — and the closed-form equation
// table it evaluates — from a persisted CSR table. It validates every
// structural invariant evaluation relies on — offsets monotone and in
// range, per-set term IDs strictly ascending and inside a's term
// universe, per-vertex indices in range — so a corrupted or adversarial
// table is refused instead of producing out-of-range indexing at
// evaluation time. The returned equation slice is the plan's own (each Expr shares
// the validated SetIDs backing array); a plan restored from the CSR
// written by Raw is bit-identical in behavior to a fresh Compile. This
// is the artifact-decode hot path: validation, set construction, and
// equation rebuild are fused into single passes.
func Restore(a *core.Analyzer, raw Raw, visited []bool) (*Plan, []pavf.Expr, error) {
	n := a.G.NumVerts()
	if len(raw.FwdIdx) != n || len(raw.BwdIdx) != n {
		return nil, nil, fmt.Errorf("sweep: raw plan covers %d/%d vertices but design has %d",
			len(raw.FwdIdx), len(raw.BwdIdx), n)
	}
	if len(visited) != n {
		return nil, nil, fmt.Errorf("sweep: %d visited flags for %d vertices", len(visited), n)
	}
	if len(raw.SetOff) < 1 || raw.SetOff[0] != 0 || int(raw.SetOff[len(raw.SetOff)-1]) != len(raw.SetIDs) {
		return nil, nil, fmt.Errorf("sweep: raw plan offsets malformed (%d offsets, %d term IDs)",
			len(raw.SetOff), len(raw.SetIDs))
	}
	nSets := len(raw.SetOff) - 1
	uniLen := pavf.TermID(a.Universe().Len())
	sets := make([]pavf.Set, nSets)
	for s := 0; s < nSets; s++ {
		lo, hi := raw.SetOff[s], raw.SetOff[s+1]
		if lo > hi {
			return nil, nil, fmt.Errorf("sweep: raw plan set %d has negative extent [%d,%d)", s, lo, hi)
		}
		prev := pavf.TermID(-1)
		for _, id := range raw.SetIDs[lo:hi] {
			if id < 0 || id >= uniLen {
				return nil, nil, fmt.Errorf("sweep: raw plan set %d references term %d outside universe of %d", s, id, uniLen)
			}
			if id <= prev {
				return nil, nil, fmt.Errorf("sweep: raw plan set %d terms not strictly ascending at %d", s, id)
			}
			prev = id
		}
		sets[s] = pavf.SetFromSorted(raw.SetIDs[lo:hi])
	}
	// Validate the per-vertex indices in their own linear scans (cheap:
	// two int32 arrays, no stores), so the equation fill below indexes
	// sets unchecked.
	for v, fi := range raw.FwdIdx {
		if fi < -1 || int(fi) >= nSets {
			return nil, nil, fmt.Errorf("sweep: raw plan vertex %d forward index %d out of range (%d sets)", v, fi, nSets)
		}
	}
	for v, bi := range raw.BwdIdx {
		if bi < -1 || int(bi) >= nSets {
			return nil, nil, fmt.Errorf("sweep: raw plan vertex %d backward index %d out of range (%d sets)", v, bi, nSets)
		}
	}
	exprs := make([]pavf.Expr, n)
	for v := range exprs {
		x := &exprs[v]
		if fi := raw.FwdIdx[v]; fi >= 0 {
			x.Fwd, x.KnownFwd = sets[fi], true
		}
		if bi := raw.BwdIdx[v]; bi >= 0 {
			x.Bwd, x.KnownBwd = sets[bi], true
		}
	}
	p := &Plan{
		Analyzer:    a,
		Fingerprint: a.Fingerprint(),
		exprs:       exprs,
		visited:     visited,
		setOff:      raw.SetOff,
		setIDs:      raw.SetIDs,
		fwdIdx:      raw.FwdIdx,
		bwdIdx:      raw.BwdIdx,
	}
	p.buildPairs()
	return p, exprs, nil
}

// NumVerts returns the number of bit equations in the plan.
func (p *Plan) NumVerts() int { return len(p.fwdIdx) }

// NumSets returns the number of deduplicated subterm sets.
func (p *Plan) NumSets() int { return len(p.setOff) - 1 }

// Stats summarizes the plan's shape.
func (p *Plan) Stats() Stats {
	st := Stats{
		Vertices:   p.NumVerts(),
		UniqueSets: p.NumSets(),
		Terms:      len(p.setIDs),
	}
	for v := range p.fwdIdx {
		if p.fwdIdx[v] >= 0 {
			st.SetRefs++
		}
		if p.bwdIdx[v] >= 0 {
			st.SetRefs++
		}
	}
	return st
}
