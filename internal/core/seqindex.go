package core

import (
	"slices"
	"strings"

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
	return sumAVF(avf, n.Bits)
}

// MeanAVF is the node's average bit AVF: SumAVF over the bit count.
func (n *SeqNode) MeanAVF(avf []float64) float64 {
	return n.Mean(n.SumAVF(avf))
}

// Mean is the node's average bit AVF given its AVF sum.
func (n *SeqNode) Mean(sum float64) float64 {
	return sum / float64(len(n.Bits))
}

// SeqIndex is a design's sequential-bit index: every statistic reported
// per sequential bit, per sequential node or per FUB reads it instead of
// walking the vertices. It is structural (independent of inputs) and read-only.
type SeqIndex struct {
	// Bits lists every sequential bit (see Result.IsSequentialBit) in
	// vertex order.
	Bits []graph.VertexID
	// Nodes lists each sequential node in first-appearance (vertex) order.
	Nodes []SeqNode
	// ByKey maps a node's Key to its position in Nodes.
	ByKey map[string]int
	// Sorted lists the positions in Nodes ordered by Key, byte-wise:
	// the order encoding/json writes a map keyed by node.
	Sorted []int
	// Fubs holds each FUB's statistics bits, in FUB declaration order.
	Fubs []FubBits
}

// FubBits is one FUB's slice of the index: the bits Result.FubStats and
// Result.VisitedFraction read, each list in vertex order so per-FUB sums
// keep the order a vertex walk would give them.
type FubBits struct {
	// Bits lists the analyzable bits (neither debug nor constant),
	// combinational and sequential alike; structure ports count too.
	Bits []graph.VertexID
	// Seq lists the sequential bits among Bits.
	Seq []graph.VertexID
	// Consts lists the constant bits: not analyzable, but counted by
	// VisitedFraction, whose domain is every non-debug vertex.
	Consts []graph.VertexID
	// Loop and Ctrl count the loop-boundary and control-register bits
	// among Seq.
	Loop, Ctrl int
}

// SeqIndex returns the analyzer's sequential-bit index, built on first
// use and shared by every result on this analyzer.
func (a *Analyzer) SeqIndex() *SeqIndex {
	a.seqOnce.Do(func() {
		x := &SeqIndex{ByKey: make(map[string]int), Fubs: make([]FubBits, len(a.G.FubNames))}
		// A node's bits are adjacent vertices, so the key is built and
		// looked up once per run of bits, not once per bit.
		var last *netlist.Node
		lastFub, ni := int32(-1), -1
		for v := 0; v < a.G.NumVerts(); v++ {
			id := graph.VertexID(v)
			vx := &a.G.Verts[v]
			fb := &x.Fubs[vx.Fub]
			role := a.roles[v]
			switch role {
			case RoleDebug:
				continue
			case RoleConst:
				fb.Consts = append(fb.Consts, id)
				continue
			}
			fb.Bits = append(fb.Bits, id)
			if !a.isSeqBit(id) {
				continue
			}
			fb.Seq = append(fb.Seq, id)
			switch role {
			case RoleLoop:
				fb.Loop++
			case RoleControl:
				fb.Ctrl++
			}
			x.Bits = append(x.Bits, id)
			if vx.Node != last || vx.Fub != lastFub {
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
		x.Sorted = make([]int, len(x.Nodes))
		for i := range x.Sorted {
			x.Sorted[i] = i
		}
		slices.SortFunc(x.Sorted, func(i, j int) int { return strings.Compare(x.Nodes[i].Key, x.Nodes[j].Key) })
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
