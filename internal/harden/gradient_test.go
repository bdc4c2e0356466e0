package harden

import (
	"math"
	"testing"

	"seqavf/internal/graph/graphtest"
	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

// evalOneLane runs the blocked kernel with a single lane: the raw AVF
// vector of one environment.
func evalOneLane(t testing.TB, p *sweep.Plan, env pavf.Env) []float64 {
	t.Helper()
	var m sweep.EnvMatrix
	if err := m.ResetEnvs([]pavf.Env{env}); err != nil {
		t.Fatalf("ResetEnvs: %v", err)
	}
	avf := make([]float64, p.NumVerts())
	if err := p.EvalBlock(&m, make([]float64, p.ScratchLen(1)), [][]float64{avf}); err != nil {
		t.Fatalf("EvalBlock: %v", err)
	}
	return avf
}

// replayTermDerivs is the gradient as first written: it replays the
// kernel's per-set sums over the CSR table itself (ascending IDs, early
// break at >= 1) instead of reading Plan.SetSums. Kept as the reference
// the kernel-backed TermDerivs must match bit for bit.
func replayTermDerivs(p *sweep.Plan, env pavf.Env) []float64 {
	raw := p.Raw()
	nSets := p.NumSets()
	value := make([]float64, nSets)
	capped := make([]bool, nSets)
	for s := 0; s < nSets; s++ {
		sum := 0.0
		for _, id := range raw.SetIDs[raw.SetOff[s]:raw.SetOff[s+1]] {
			sum += env[id]
			if sum >= 1 {
				sum = 1
				capped[s] = true
				break
			}
		}
		value[s] = sum
	}
	seq := p.Analyzer.SeqIndex().Bits
	wins := make([]int64, nSets)
	for _, v := range seq {
		fi, bi := raw.FwdIdx[v], raw.BwdIdx[v]
		f, b := 1.0, 1.0
		if fi >= 0 {
			f = value[fi]
		}
		if bi >= 0 {
			b = value[bi]
		}
		if b < f {
			if bi >= 0 && !capped[bi] {
				wins[bi]++
			}
		} else if fi >= 0 && !capped[fi] {
			wins[fi]++
		}
	}
	deriv := make([]float64, len(env))
	if len(seq) == 0 {
		return deriv
	}
	n := float64(len(seq))
	for s := 0; s < nSets; s++ {
		if wins[s] == 0 {
			continue
		}
		w := float64(wins[s]) / n
		for _, id := range raw.SetIDs[raw.SetOff[s]:raw.SetOff[s+1]] {
			deriv[id] += w
		}
	}
	deriv[pavf.Top] = 0
	return deriv
}

// TestGradientReadsKernelBitIdentical: on the 200-seed graphtest corpus,
// the kernel-backed gradient equals the CSR replay bit for bit, and the
// cached vector's chip AVF equals chipAVF over a one-lane EvalBlock. Each
// seed runs at its measured environment and at a quarter-quantized copy,
// where set sums land on exactly 1.0 and MIN sides tie — the kinks the
// "capped iff the kernel sum is 1.0" rule has to get right.
func TestGradientReadsKernelBitIdentical(t *testing.T) {
	capped, ties := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		a, res, in := solvedRand(t, graphtest.Small(seed), seed^0x9ad1e47)
		p, err := sweep.Compile(res)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		env, err := a.CheckedEnv(in)
		if err != nil {
			t.Fatalf("seed %d: CheckedEnv: %v", seed, err)
		}
		quant := make(pavf.Env, len(env))
		for id, x := range env {
			quant[id] = math.Round(x*4) / 4
		}
		quant[pavf.Top] = 1
		for k, e := range []pavf.Env{env, quant} {
			got, err := TermDerivs(p, e)
			if err != nil {
				t.Fatalf("seed %d env %d: TermDerivs: %v", seed, k, err)
			}
			want := replayTermDerivs(p, e)
			for id := range want {
				if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
					t.Fatalf("seed %d env %d term %d: kernel gradient %v, replay %v", seed, k, id, got[id], want[id])
				}
			}
			vec, hit, err := CachedTermDerivs(p, e, nil)
			if err != nil || hit {
				t.Fatalf("seed %d env %d: CachedTermDerivs: hit=%v err=%v", seed, k, hit, err)
			}
			seq := a.SeqIndex().Bits
			if chip := chipAVF(evalOneLane(t, p, e), seq); math.Float64bits(vec.ChipAVF) != math.Float64bits(chip) {
				t.Fatalf("seed %d env %d: vector chip AVF %v, one-lane EvalBlock %v", seed, k, vec.ChipAVF, chip)
			}
			sums, err := p.SetSums(e)
			if err != nil {
				t.Fatalf("seed %d env %d: SetSums: %v", seed, k, err)
			}
			for _, x := range sums {
				if x == 1 {
					capped++
				}
			}
			raw := p.Raw()
			for _, v := range seq {
				if fi, bi := raw.FwdIdx[v], raw.BwdIdx[v]; fi >= 0 && bi >= 0 && fi != bi && sums[fi] == sums[bi] {
					ties++
				}
			}
		}
	}
	// The corpus must actually reach the kinks the rule is about.
	if capped == 0 || ties == 0 {
		t.Fatalf("corpus reached %d capped sets and %d MIN ties; want both > 0", capped, ties)
	}
	t.Logf("compared at %d capped sets and %d cross-set MIN ties", capped, ties)
}
