package artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/sweep"
)

// TestPropertyRoundTripBitIdentical is the artifact subsystem's
// correctness guarantee: over ≥50 seeded random designs,
// decode(encode(Result)) — decoded against a freshly rebuilt analyzer,
// as a restarted process would hold — yields bit-identical Reevaluate
// and sweep.Sweep outputs, and an artifact decoded against the wrong
// design is refused by both the codec and the store. Any failure prints
// the seed, which replays deterministically through graphtest.
func TestPropertyRoundTripBitIdentical(t *testing.T) {
	const seeds = 50
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < seeds; seed++ {
		a1, res, in := buildSolved(t, seed, seed^0xc0ffee)
		data, err := Encode(res, nil)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", seed, err)
		}

		// Decode against a fresh analyzer: proves term IDs and equation
		// shape are process-independent, not an artifact of sharing a1.
		a2 := freshAnalyzer(t, seed)
		if a1.Fingerprint() != a2.Fingerprint() {
			t.Fatalf("seed %d: fingerprint not reproducible across analyzer builds", seed)
		}
		got, plan, err := Decode(data, a2)
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		for v := range res.AVF {
			if got.AVF[v] != res.AVF[v] {
				t.Fatalf("seed %d vertex %d: decoded AVF %v != original %v", seed, v, got.AVF[v], res.AVF[v])
			}
		}

		// Reevaluate both against fresh inputs: bit-identical.
		in2 := seededInputs(a1, seed^0xabad1dea)
		if err := res.Reevaluate(in2); err != nil {
			t.Fatalf("seed %d: Reevaluate(original): %v", seed, err)
		}
		if err := got.Reevaluate(in2); err != nil {
			t.Fatalf("seed %d: Reevaluate(decoded): %v", seed, err)
		}
		for v := range res.AVF {
			if got.AVF[v] != res.AVF[v] {
				t.Fatalf("seed %d vertex %d: decoded Reevaluate %v != original %v", seed, v, got.AVF[v], res.AVF[v])
			}
		}

		// Sweep both through fresh engines: the decoded plan and a fresh
		// compile must agree bit for bit on every workload.
		ws := []sweep.Workload{{Name: "w1", Inputs: in}, {Name: "w2", Inputs: in2}}
		be, err := sweep.New(sweep.Options{Workers: 1}).Sweep(res, ws)
		if err != nil {
			t.Fatalf("seed %d: Sweep(original): %v", seed, err)
		}
		bd, err := planSweep(plan, ws)
		if err != nil {
			t.Fatalf("seed %d: Sweep(decoded): %v", seed, err)
		}
		for i := range ws {
			for v := range be.Results[i].AVF {
				if be.Results[i].AVF[v] != bd[i].AVF[v] {
					t.Fatalf("seed %d workload %d vertex %d: decoded-plan sweep %v != fresh %v",
						seed, i, v, bd[i].AVF[v], be.Results[i].AVF[v])
				}
			}
		}

		// A fingerprint-mismatched artifact is refused by the store: put
		// this seed's artifact, then Get with the next seed's analyzer —
		// the content address differs, so it must miss cleanly, and a
		// forged file under the wrong address must be rejected.
		if err := st.Put(res, plan); err != nil {
			t.Fatalf("seed %d: store Put: %v", seed, err)
		}
		other := freshAnalyzer(t, seed+seeds)
		if r, _, err := st.Get(other); err != nil || r != nil {
			t.Fatalf("seed %d: store served a fingerprint mismatch: (%v, %v)", seed, r, err)
		}
	}
	if st.Len() != seeds {
		t.Fatalf("store holds %d artifacts after %d puts", st.Len(), seeds)
	}

	// A artifact file planted under the wrong content address — seed 0's
	// bytes at seed 1's fingerprint — must be refused at decode, not
	// served as seed 1's result.
	a0, a1f := freshAnalyzer(t, 0), freshAnalyzer(t, 1)
	res0, _, err := st.Get(a0)
	if err != nil || res0 == nil {
		t.Fatalf("seed 0 re-Get: (%v, %v)", res0, err)
	}
	data, err := Encode(res0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), fmt.Sprintf("%016x.sart", a1f.Fingerprint())), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, _, err := st.Get(a1f); err == nil || !errors.Is(err, ErrFingerprint) || r != nil {
		t.Fatalf("forged artifact under wrong address: (%v, %v), want ErrFingerprint", r, err)
	}
}

// planSweep evaluates workloads directly through a decoded plan, as one
// kernel block.
func planSweep(p *sweep.Plan, ws []sweep.Workload) ([]*core.Result, error) {
	out := make([]*core.Result, len(ws))
	if err := p.EvalBlockInto(ws, nil, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}
