package experiments

import (
	"io"
	"math"
	"sort"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/rtlsim"
	"seqavf/internal/sfi"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
)

// LoopCharNode compares the two loop treatments for one node.
type LoopCharNode struct {
	Node      string
	Static    float64 // SART with the static 0.3 loop pAVF
	Char      float64 // SART with the characterized per-node loop pAVF
	Reference float64 // full-strength SFI measurement
}

// LoopCharResult is the §4.3 "solution 2" study: instead of one static
// loop-boundary pAVF, characterize each loop node with a *targeted* RTL
// fault-injection run (restricted to the 2-3% of sequentials in loops)
// and inject the measured values as per-node overrides. The paper lists
// this as the higher-accuracy option "considered on a case by case
// basis"; this experiment quantifies the accuracy gain and the cost of
// the targeted characterization versus a full campaign.
type LoopCharResult struct {
	Workload string
	Nodes    []LoopCharNode
	// MAEStatic / MAEChar are mean absolute errors against the reference.
	MAEStatic float64
	MAEChar   float64
	// CharCycles / ReferenceCycles compare simulation cost.
	CharCycles      uint64
	ReferenceCycles uint64
}

// LoopChar runs the study on tinycore (where every sequential is a loop
// node, making it a stress test for loop treatment).
func LoopChar(prog string, charInject, refInject int) (*LoopCharResult, error) {
	p := pickProgram(prog)
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inputs, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		return nil, err
	}
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		return nil, err
	}
	bg, err := graph.Build(fd)
	if err != nil {
		return nil, err
	}

	// Identify loop nodes (via a throwaway analyzer).
	probe, err := core.NewAnalyzer(bg, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	loopNode := make(map[string]bool)
	for _, n := range probe.SeqIndex().Nodes {
		for _, v := range n.Bits {
			if probe.Role(v) == core.RoleLoop {
				loopNode[n.Key] = true
			}
		}
	}

	obs := sfi.Observation{
		Fub: tinycore.FubName, Valid: "out_valid", Data: "out_data", Halted: "halted_o",
	}
	// Targeted characterization campaign: loop sites only, cheap.
	machine, err := tinycore.New(p)
	if err != nil {
		return nil, err
	}
	charCfg := sfi.DefaultConfig()
	charCfg.InjectionsPerBit = charInject
	charCfg.Seed = 77
	charCfg.SiteFilter = func(s rtlsim.SeqSite) bool {
		return loopNode[s.Fub+"/"+s.Node]
	}
	charRun, err := sfi.Run(machine.Sim, obs, charCfg)
	if err != nil {
		return nil, err
	}
	overrides := charRun.NodeAVF()

	// Reference campaign: independent seed, more injections, all sites.
	refCfg := sfi.DefaultConfig()
	refCfg.InjectionsPerBit = refInject
	refCfg.Seed = 1
	refRun, err := sfi.Run(machine.Sim, obs, refCfg)
	if err != nil {
		return nil, err
	}
	reference := refRun.NodeAVF()

	solveWith := func(opts core.Options) (map[string]float64, error) {
		a, err := core.NewAnalyzer(bg, opts)
		if err != nil {
			return nil, err
		}
		res, err := a.Solve(inputs)
		if err != nil {
			return nil, err
		}
		return res.SeqAVFByNode(), nil
	}
	staticAVF, err := solveWith(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	charOpts := core.DefaultOptions()
	charOpts.LoopOverrides = overrides
	charAVF, err := solveWith(charOpts)
	if err != nil {
		return nil, err
	}

	out := &LoopCharResult{
		Workload:        p.Name,
		CharCycles:      charRun.SimulatedCycles,
		ReferenceCycles: refRun.SimulatedCycles,
	}
	keys := make([]string, 0, len(reference))
	for k := range reference {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := LoopCharNode{
			Node:      k,
			Static:    staticAVF[k],
			Char:      charAVF[k],
			Reference: reference[k],
		}
		out.Nodes = append(out.Nodes, n)
		out.MAEStatic += math.Abs(n.Static - n.Reference)
		out.MAEChar += math.Abs(n.Char - n.Reference)
	}
	if len(out.Nodes) > 0 {
		out.MAEStatic /= float64(len(out.Nodes))
		out.MAEChar /= float64(len(out.Nodes))
	}
	return out, nil
}

// WriteText renders the comparison.
func (r *LoopCharResult) WriteText(w io.Writer) {
	fprintf(w, "Loop characterization (§4.3 solution 2) on tinycore (%s)\n", r.Workload)
	rule(w)
	fprintf(w, "%-16s %-12s %-12s %-12s\n", "node", "static 0.3", "characterized", "SFI reference")
	for _, n := range r.Nodes {
		fprintf(w, "%-16s %-12.3f %-12.3f %-12.3f\n", n.Node, n.Static, n.Char, n.Reference)
	}
	rule(w)
	fprintf(w, "mean abs error: static %.3f -> characterized %.3f\n", r.MAEStatic, r.MAEChar)
	fprintf(w, "characterization cost: %d cycles vs full reference campaign %d cycles\n",
		r.CharCycles, r.ReferenceCycles)
}
