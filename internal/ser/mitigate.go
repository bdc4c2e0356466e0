package ser

import (
	"fmt"
	"sort"

	"seqavf/internal/core"
)

// This file implements the hardening planner the paper motivates in §1:
// "A fast and accurate means of determining the most vulnerable
// sequentials is required to determine the most efficient use of low-SER
// circuit and other SER mitigation techniques for these bits." Given
// per-bit AVFs from SART, the planner selects which sequentials to
// replace with hardened cells (SEUT/BISER-style low-SER circuits, refs
// [3][4][5] — modeled as an intrinsic-rate reduction factor) to meet a
// FIT-reduction target at minimum hardened-bit cost.

// HardeningParams describe the low-SER cell technology.
type HardeningParams struct {
	// RateFactor is the hardened cell's intrinsic FIT relative to a
	// standard cell (e.g. 0.1 for a 10x-harder latch; the paper's ref
	// [3] reports SEUT latches in that class).
	RateFactor float64
	// CostPerBit is the relative area/power cost of hardening one bit
	// (used only for reporting).
	CostPerBit float64
}

// DefaultHardeningParams models a 10x low-SER latch at 1.5x cell cost.
func DefaultHardeningParams() HardeningParams {
	return HardeningParams{RateFactor: 0.1, CostPerBit: 1.5}
}

// HardeningPlan is the result of planning.
type HardeningPlan struct {
	// Nodes selected for hardening, most valuable first.
	Nodes []HardenedNode
	// BaseSeqFIT / PlannedSeqFIT are the sequential SDC FIT before and
	// after applying the plan.
	BaseSeqFIT    float64
	PlannedSeqFIT float64
	// HardenedBits is the number of bits replaced.
	HardenedBits int
	// TotalSeqBits is the design's sequential bit count.
	TotalSeqBits int
	// Cost is HardenedBits x CostPerBit.
	Cost float64
}

// HardenedNode is one selected node.
type HardenedNode struct {
	Node string
	Bits int
	// AVF is the node's average SDC AVF.
	AVF float64
	// SavedFIT is the FIT removed by hardening this node.
	SavedFIT float64
}

// Reduction returns the fractional sequential-FIT reduction achieved.
func (p *HardeningPlan) Reduction() float64 {
	if p.BaseSeqFIT == 0 {
		return 0
	}
	return (p.BaseSeqFIT - p.PlannedSeqFIT) / p.BaseSeqFIT
}

// PlanHardening selects sequential nodes (whole nodes — hardening is a
// cell-swap done per register) in descending SDC-AVF order until the
// target fractional reduction of sequential SDC FIT is met or every node
// is hardened. It returns the plan; target must be in (0, 1].
func PlanHardening(res *core.Result, fit FITParams, hp HardeningParams, target float64) (*HardeningPlan, error) {
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("ser: hardening target %v out of (0,1]", target)
	}
	if hp.RateFactor < 0 || hp.RateFactor >= 1 {
		return nil, fmt.Errorf("ser: RateFactor %v out of [0,1)", hp.RateFactor)
	}
	// Per-node SDC AVF mass, summed over the node's bits in vertex order.
	nodes := res.Analyzer.SeqIndex().Nodes
	sdc := make([]float64, len(nodes))
	order := make([]int, len(nodes))
	for i := range nodes {
		for _, v := range nodes[i].Bits {
			sdc[i] += res.SDCAVF(v)
		}
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		da := sdc[a] / float64(len(nodes[a].Bits))
		db := sdc[b] / float64(len(nodes[b].Bits))
		if da != db {
			return da > db
		}
		return nodes[a].Key < nodes[b].Key
	})

	plan := &HardeningPlan{}
	for i := range nodes {
		plan.BaseSeqFIT += sdc[i] * fit.IntrinsicSeq
		plan.TotalSeqBits += len(nodes[i].Bits)
	}
	plan.PlannedSeqFIT = plan.BaseSeqFIT
	goal := plan.BaseSeqFIT * (1 - target)
	for _, i := range order {
		if plan.PlannedSeqFIT <= goal {
			break
		}
		bits := len(nodes[i].Bits)
		saved := sdc[i] * fit.IntrinsicSeq * (1 - hp.RateFactor)
		plan.PlannedSeqFIT -= saved
		plan.HardenedBits += bits
		plan.Nodes = append(plan.Nodes, HardenedNode{
			Node:     nodes[i].Key,
			Bits:     bits,
			AVF:      sdc[i] / float64(bits),
			SavedFIT: saved,
		})
	}
	plan.Cost = float64(plan.HardenedBits) * hp.CostPerBit
	return plan, nil
}

// RandomHardeningFIT computes the sequential FIT left after hardening the
// same number of bits chosen uniformly (ignoring AVF) — the baseline an
// AVF-guided plan is measured against. Because a uniform choice removes
// the average AVF per bit, the expected value has a closed form.
func RandomHardeningFIT(plan *HardeningPlan, fit FITParams, hp HardeningParams) float64 {
	if plan.TotalSeqBits == 0 {
		return 0
	}
	frac := float64(plan.HardenedBits) / float64(plan.TotalSeqBits)
	return plan.BaseSeqFIT * (1 - frac*(1-hp.RateFactor))
}
