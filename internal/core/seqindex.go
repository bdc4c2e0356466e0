package core

import (
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
)

// SeqNode is one sequential node — the unit the paper reports per-node
// AVFs for (Fig. 9) and the unit a hardened cell swap protects — with
// its sequential bits in vertex order.
type SeqNode struct {
	// Key is "fub/node".
	Key  string
	Bits []graph.VertexID
}

// SumAVF is the node's AVF mass under avf: its bit AVFs summed in
// vertex order.
func (n *SeqNode) SumAVF(avf []float64) float64 {
	sum := 0.0
	for _, v := range n.Bits {
		sum += avf[v]
	}
	return sum
}

// MeanAVF is the node's average bit AVF: SumAVF over the bit count.
func (n *SeqNode) MeanAVF(avf []float64) float64 {
	return n.SumAVF(avf) / float64(len(n.Bits))
}

// SeqIndex is a design's sequential-bit index: every statistic reported
// per sequential bit or per sequential node reads it instead of walking
// the vertices. It is structural (independent of inputs) and read-only.
type SeqIndex struct {
	// Bits lists every sequential bit (see Result.IsSequentialBit) in
	// vertex order.
	Bits []graph.VertexID
	// Nodes lists each sequential node in first-appearance (vertex) order.
	Nodes []SeqNode
	// ByKey maps a node's Key to its position in Nodes.
	ByKey map[string]int
}

// SeqIndex returns the analyzer's sequential-bit index, built on first
// use and shared by every result on this analyzer.
func (a *Analyzer) SeqIndex() *SeqIndex {
	a.seqOnce.Do(func() {
		x := &SeqIndex{ByKey: make(map[string]int)}
		// A node's bits are adjacent vertices, so the key is built and
		// looked up once per run of bits, not once per bit.
		var last *netlist.Node
		lastFub, ni := int32(-1), -1
		for v := 0; v < a.G.NumVerts(); v++ {
			id := graph.VertexID(v)
			if !a.isSeqBit(id) {
				continue
			}
			x.Bits = append(x.Bits, id)
			if vx := &a.G.Verts[v]; vx.Node != last || vx.Fub != lastFub {
				last, lastFub = vx.Node, vx.Fub
				key := a.nodeKey(id)
				var ok bool
				if ni, ok = x.ByKey[key]; !ok {
					ni = len(x.Nodes)
					x.ByKey[key] = ni
					x.Nodes = append(x.Nodes, SeqNode{Key: key})
				}
			}
			x.Nodes[ni].Bits = append(x.Nodes[ni].Bits, id)
		}
		a.seqIndex = x
	})
	return a.seqIndex
}

// isSeqBit is Result.IsSequentialBit's predicate.
func (a *Analyzer) isSeqBit(v graph.VertexID) bool {
	return a.G.Verts[v].Node.Kind == netlist.KindSeq && a.roles[v] != RoleDebug
}

// nodeKey is vertex v's node key, "fub/node": the sequential-node
// grouping key and the name of a loop node's term.
func (a *Analyzer) nodeKey(v graph.VertexID) string {
	vx := &a.G.Verts[v]
	return a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
}
