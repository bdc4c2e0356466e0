// Package ser computes soft error rates (Equation 1: FIT = AVF x bits x
// intrinsic rate), simulates accelerated beam testing, and measures
// model-to-measurement correlation — the apparatus behind the paper's
// Figure 10 experiment.
//
// Real proton-beam data (Indiana University Cyclotron, §6.2) is replaced
// by a Monte-Carlo beam: the expected error count under accelerated flux
// is drawn from a Poisson distribution around the design's ground-truth
// FIT, and the measured FIT carries the same counting-statistics error
// bars a real campaign would. FIT values are reported in arbitrary units
// (AU), as in the paper.
package ser

import (
	"fmt"
	"math"
	"sort"

	"seqavf/internal/core"
	"seqavf/internal/netlist"
	"seqavf/internal/stats"
)

// FITParams sets intrinsic per-bit error rates (arbitrary units per bit).
type FITParams struct {
	// IntrinsicSeq is the intrinsic FIT of one sequential bit.
	IntrinsicSeq float64
	// IntrinsicArray is the intrinsic FIT of one structure (latch array)
	// bit.
	IntrinsicArray float64
}

// DefaultFITParams weights sequential bits fully and array bits at 12%:
// most array bits in a modern core carry parity or ECC, so only a small
// unprotected fraction contributes SDC — which is how sequentials come to
// carry about half of the total SDC SER (§1 of the paper).
func DefaultFITParams() FITParams {
	return FITParams{IntrinsicSeq: 1.0, IntrinsicArray: 0.12}
}

// Breakdown is a modeled SDC FIT decomposition.
type Breakdown struct {
	SeqFIT   float64
	ArrayFIT float64
}

// Total returns the design FIT.
func (b Breakdown) Total() float64 { return b.SeqFIT + b.ArrayFIT }

// ModeledFIT computes the post-sequential-AVF SDC model: every sequential
// bit contributes the SDC component of its SART-resolved AVF; every
// unprotected structure bit contributes its ACE-measured structure AVF.
// (Parity-protected arrays contribute DUE — see ModeledDUEFIT — and
// ECC-protected arrays contribute nothing user-visible.)
func ModeledFIT(res *core.Result, structBits map[string]int, p FITParams) Breakdown {
	var b Breakdown
	for _, v := range res.Analyzer.SeqIndex().Bits {
		b.SeqFIT += res.SDCAVF(v) * p.IntrinsicSeq
	}
	b.ArrayFIT = arrayFIT(res, structBits, p, netlist.ProtNone)
	return b
}

// ModeledDUEFIT computes the detected-uncorrectable rate: the DUE
// component of every sequential bit plus the parity-protected arrays.
func ModeledDUEFIT(res *core.Result, structBits map[string]int, p FITParams) Breakdown {
	var b Breakdown
	for _, v := range res.Analyzer.SeqIndex().Bits {
		b.SeqFIT += res.DUEAVF(v) * p.IntrinsicSeq
	}
	b.ArrayFIT = arrayFIT(res, structBits, p, netlist.ProtParity)
	return b
}

// ProxyFIT computes the pre-sequential-AVF model the paper used before
// this work: sequential bits are conservatively assigned the bit-weighted
// average structure AVF as a proxy (§6.2: "we were conservatively using
// structure AVFs as a proxy for the sequential AVF").
func ProxyFIT(res *core.Result, structBits map[string]int, p FITParams) Breakdown {
	var proxy float64
	{
		var sum, bits float64
		for s, avf := range res.Inputs.StructAVF {
			w := float64(structBits[s])
			sum += avf * w
			bits += w
		}
		if bits > 0 {
			proxy = sum / bits
		}
	}
	var b Breakdown
	for range res.Analyzer.SeqIndex().Bits {
		b.SeqFIT += proxy * p.IntrinsicSeq
	}
	b.ArrayFIT = arrayFIT(res, structBits, p, netlist.ProtNone)
	return b
}

// TrueFIT computes the ground-truth SDC FIT from a per-vertex truth table
// (e.g. design.Generated.GroundTruth): the quantity silicon would exhibit
// under an SDC-observing beam test. Per-bit truth is split into SDC/DUE
// by the same destination composition the model uses (protection is a
// property of the design, not of the estimate).
func TrueFIT(res *core.Result, truth []float64, structBits map[string]int, p FITParams) Breakdown {
	var b Breakdown
	for _, v := range res.Analyzer.SeqIndex().Bits {
		frac := 1.0
		if avf := res.AVF[v]; avf > 0 {
			frac = res.SDCAVF(v) / avf
		}
		b.SeqFIT += truth[v] * frac * p.IntrinsicSeq
	}
	b.ArrayFIT = arrayFIT(res, structBits, p, netlist.ProtNone)
	return b
}

// arrayFIT totals structure contributions for one protection class.
func arrayFIT(res *core.Result, structBits map[string]int, p FITParams, class netlist.Protection) float64 {
	// Fixed summation order (sorted names) keeps results reproducible to
	// the last bit.
	names := make([]string, 0, len(structBits))
	for s := range structBits {
		names = append(names, s)
	}
	sort.Strings(names)
	var fit float64
	structs := res.Analyzer.G.Design.Structures
	for _, s := range names {
		prot := netlist.ProtNone
		if st, ok := structs[s]; ok {
			prot = st.Prot
		}
		if prot != class {
			continue
		}
		avf := res.Inputs.StructAVF[s]
		fit += avf * float64(structBits[s]) * p.IntrinsicArray
	}
	return fit
}

// BeamConfig parameterizes the accelerated-SER measurement.
type BeamConfig struct {
	// AccelHours is the product of flux acceleration and exposure time,
	// in units such that expected errors = FIT(AU) x AccelHours.
	AccelHours float64
	Seed       uint64
}

// DefaultBeamConfig targets a few hundred observed errors for a design
// FIT of a few thousand AU.
func DefaultBeamConfig(seed uint64) BeamConfig {
	return BeamConfig{AccelHours: 0.05, Seed: seed}
}

// Measurement is one simulated beam run.
type Measurement struct {
	Errors int
	// FIT is the measured rate with its 95% counting-statistics interval
	// (arbitrary units).
	FIT stats.Interval
}

// BeamTest simulates an accelerated run against the ground-truth FIT.
func BeamTest(trueFIT float64, cfg BeamConfig) (Measurement, error) {
	if cfg.AccelHours <= 0 {
		return Measurement{}, fmt.Errorf("ser: AccelHours must be positive")
	}
	rng := stats.New(cfg.Seed)
	lambda := trueFIT * cfg.AccelHours
	k := rng.Poisson(lambda)
	return Measurement{
		Errors: k,
		FIT:    stats.PoissonCI(k, cfg.AccelHours),
	}, nil
}

// Correlation quantifies model-to-measurement agreement for one workload.
type Correlation struct {
	Workload string
	// Measured is the beam measurement (AU).
	Measured Measurement
	// PreFIT / PostFIT are the modeled totals before (structure-AVF
	// proxy) and after (SART sequential AVFs) this work.
	PreFIT  float64
	PostFIT float64
}

// PreError returns the relative model error of the proxy model:
// (pre - measured)/measured.
func (c Correlation) PreError() float64 {
	return (c.PreFIT - c.Measured.FIT.Point) / c.Measured.FIT.Point
}

// PostError returns the relative model error after sequential AVFs.
func (c Correlation) PostError() float64 {
	return (c.PostFIT - c.Measured.FIT.Point) / c.Measured.FIT.Point
}

// Improvement is the fractional reduction in absolute model error
// achieved by the sequential AVFs — the paper's "~66% improvement".
func (c Correlation) Improvement() float64 {
	pre := math.Abs(c.PreFIT - c.Measured.FIT.Point)
	post := math.Abs(c.PostFIT - c.Measured.FIT.Point)
	if pre == 0 {
		return 0
	}
	return (pre - post) / pre
}

// WithinMeasurement reports whether the post model falls inside the
// measurement's statistical interval (the paper's success criterion).
func (c Correlation) WithinMeasurement() bool {
	return c.Measured.FIT.Contains(c.PostFIT)
}

// SeqAVFReduction returns the fractional reduction of the average
// sequential AVF relative to the proxy value (the paper reports the new
// sequential AVFs were ~63% lower than the structure-AVF proxy).
func SeqAVFReduction(proxyAVF, seqAVF float64) float64 {
	if proxyAVF == 0 {
		return 0
	}
	return (proxyAVF - seqAVF) / proxyAVF
}
