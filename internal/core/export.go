package core

import (
	"encoding/json"
	"io"
	"sort"
)

// ExportNode is the serialized form of one sequential node's result.
type ExportNode struct {
	Node     string  `json:"node"`
	Bits     int     `json:"bits"`
	Role     string  `json:"role"`
	AVF      float64 `json:"avf"`
	SDC      float64 `json:"sdc"`
	DUE      float64 `json:"due"`
	DCE      float64 `json:"dce"`
	Equation string  `json:"equation,omitempty"`
}

// ExportFub is the serialized per-FUB summary.
type ExportFub struct {
	Fub        string  `json:"fub"`
	SeqBits    int     `json:"seqBits"`
	NodeBits   int     `json:"nodeBits"`
	AvgSeqAVF  float64 `json:"avgSeqAVF"`
	AvgNodeAVF float64 `json:"avgNodeAVF"`
	LoopBits   int     `json:"loopBits"`
	CtrlBits   int     `json:"ctrlBits"`
}

// Export is the machine-readable form of a SART run, for downstream
// tooling (FIT rollups, mitigation planning, dashboards).
type Export struct {
	Design          string       `json:"design"`
	SeqBits         int          `json:"seqBits"`
	WeightedSeqAVF  float64      `json:"weightedSeqAVF"`
	WeightedNodeAVF float64      `json:"weightedNodeAVF"`
	VisitedFraction float64      `json:"visitedFraction"`
	LoopSeqBits     int          `json:"loopSeqBits"`
	CtrlBits        int          `json:"ctrlBits"`
	Iterations      int          `json:"iterations"`
	Converged       bool         `json:"converged"`
	Fubs            []ExportFub  `json:"fubs"`
	Nodes           []ExportNode `json:"nodes"`
}

// Export assembles the serializable result. When withEquations is set,
// each node carries its closed-form AVF equation (first bit's form; all
// bits of a node share structure in practice).
func (r *Result) Export(withEquations bool) *Export {
	a := r.Analyzer
	s := r.Summarize()
	out := &Export{
		Design:          a.G.Design.Name,
		SeqBits:         s.SeqBits,
		WeightedSeqAVF:  s.WeightedSeqAVF,
		WeightedNodeAVF: s.WeightedNodeAVF,
		VisitedFraction: s.VisitedFraction,
		LoopSeqBits:     s.LoopSeqBits,
		CtrlBits:        s.CtrlBits,
		Iterations:      s.Iterations,
		Converged:       s.Converged,
	}
	for _, fs := range r.FubStats() {
		out.Fubs = append(out.Fubs, ExportFub{
			Fub: fs.Fub, SeqBits: fs.SeqBits, NodeBits: fs.NodeBits,
			AvgSeqAVF: fs.AvgSeqAVF, AvgNodeAVF: fs.AvgNodeAVF,
			LoopBits: fs.LoopSeqBits, CtrlBits: fs.CtrlBits,
		})
	}
	// Per-node aggregation (bits of one node averaged), sorted by key.
	nodes := a.SeqIndex().Nodes
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return nodes[order[i]].Key < nodes[order[j]].Key })
	for _, i := range order {
		sn := &nodes[i]
		en := ExportNode{Node: sn.Key, Role: a.roles[sn.Bits[0]].String(), Bits: len(sn.Bits)}
		for _, v := range sn.Bits {
			d := r.Decompose(v)
			en.AVF += r.AVF[v]
			en.SDC += d.SDC
			en.DUE += d.DUE
			en.DCE += d.DCE
		}
		n := float64(en.Bits)
		en.AVF /= n
		en.SDC /= n
		en.DUE /= n
		en.DCE /= n
		if withEquations {
			en.Equation = r.Equation(sn.Bits[0])
		}
		out.Nodes = append(out.Nodes, en)
	}
	return out
}

// WriteJSON serializes the export with indentation.
func (r *Result) WriteJSON(w io.Writer, withEquations bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export(withEquations))
}
