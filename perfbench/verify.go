package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
)

// avfTol is the absolute tolerance on every AVF the oracle checks. AVFs
// lie in [0, 1] and summaries average ~10^4 of them, so a re-ordered sum
// moves the result by ~1e-15; a wrong term, lane or node moves it by far
// more than 1e-9.
const avfTol = 1e-9

// oracleLanes is how many lanes of each sampled sweep response are
// re-derived through the oracle.
const oracleLanes = 6

// analyze runs the upload prelude the server runs: parse, validate,
// flatten, bit graph, analyzer with the server's default options.
func analyze(nl []byte) (*core.Analyzer, error) {
	d, err := netlist.Parse(bytes.NewReader(nl))
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(fd)
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(g, core.DefaultOptions())
}

// neutralInputs is the all-0.5 baseline the server solves uploads under.
func neutralInputs(a *core.Analyzer) *core.Inputs {
	in := core.NewInputs()
	for _, sp := range a.ReadPortTerms() {
		in.ReadPorts[sp] = 0.5
	}
	for _, sp := range a.WritePortTerms() {
		in.WritePorts[sp] = 0.5
	}
	return in
}

// solveNeutral solves a netlist the way an upload does.
func solveNeutral(nl []byte) (*core.Result, error) {
	a, err := analyze(nl)
	if err != nil {
		return nil, err
	}
	return a.Solve(neutralInputs(a))
}

// oracle re-derives answers through Result.Reevaluate — the per-vertex
// pavf.Expr.Eval path, independent of the compiled plans and the blocked
// kernel the server evaluates with.
type oracle struct {
	res *core.Result
}

func newOracle(d *designInput) (*oracle, error) {
	res, err := solveNeutral(d.netlist)
	if err != nil {
		return nil, fmt.Errorf("oracle solve of %s: %w", d.name, err)
	}
	return &oracle{res: res}, nil
}

// eval returns the oracle's summary and per-node seqAVF for one table.
func (o *oracle) eval(in *core.Inputs) (core.Summary, map[string]float64, error) {
	if err := o.res.Reevaluate(in); err != nil {
		return core.Summary{}, nil, err
	}
	return o.res.Summarize(), o.res.SeqAVFByNode(), nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= avfTol }

// checkSummary compares a served summary with the oracle's.
func checkSummary(got, want core.Summary) error {
	if got.SeqBits != want.SeqBits || got.NodeBits != want.NodeBits ||
		got.LoopSeqBits != want.LoopSeqBits || got.CtrlBits != want.CtrlBits {
		return fmt.Errorf("bit counts %d/%d/%d/%d, oracle %d/%d/%d/%d",
			got.SeqBits, got.NodeBits, got.LoopSeqBits, got.CtrlBits,
			want.SeqBits, want.NodeBits, want.LoopSeqBits, want.CtrlBits)
	}
	if !near(got.WeightedSeqAVF, want.WeightedSeqAVF) || !near(got.WeightedNodeAVF, want.WeightedNodeAVF) {
		return fmt.Errorf("weighted seq/node AVF %.17g/%.17g, oracle %.17g/%.17g",
			got.WeightedSeqAVF, got.WeightedNodeAVF, want.WeightedSeqAVF, want.WeightedNodeAVF)
	}
	return nil
}

// checkNodes compares a served per-node map with the oracle's.
func checkNodes(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d nodes, oracle %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("node %s missing", k)
		}
		if !near(g, w) {
			return fmt.Errorf("node %s: %.17g, oracle %.17g", k, g, w)
		}
	}
	return nil
}

// pickLanes spreads k lane indices over n, always including the first
// and the last lane.
func pickLanes(n, k int) []int {
	if n <= k {
		k = n
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx := 0
		if k > 1 {
			idx = i * (n - 1) / (k - 1)
		}
		out = append(out, idx)
	}
	return out
}

// verifier checks sampled responses of one run against the oracle.
type verifier struct {
	in      *inputs
	oracles []*oracle
}

func newVerifier(in *inputs) (*verifier, error) {
	v := &verifier{in: in}
	// eco-mixed verifies plan invariants and edit shapes, which need no
	// oracle solve; the sweep workloads share one design.
	if in.workload != "eco-mixed" {
		o, err := newOracle(in.designs[0])
		if err != nil {
			return nil, err
		}
		v.oracles = append(v.oracles, o)
	}
	return v, nil
}

// check verifies one sampled response; a non-nil error is a wrong output.
func (v *verifier) check(s sample) error {
	if s.status/100 != 2 {
		return fmt.Errorf("status %d", s.status)
	}
	switch s.kind {
	case "sweep":
		return v.checkSweep(s)
	case "intervals":
		return v.checkIntervals(s)
	case "harden":
		return checkHarden(s.body, v.in.harden[s.client])
	case "edit":
		return v.checkEdit(s)
	}
	return fmt.Errorf("unknown sample kind %q", s.kind)
}

func (v *verifier) checkSweep(s sample) error {
	var req server.SweepRequest
	if err := json.Unmarshal(v.in.bodies[(s.seq*clients+s.client)%len(v.in.bodies)], &req); err != nil {
		return err
	}
	var resp server.SweepResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != len(req.Workloads) || resp.Workloads != len(req.Workloads) {
		return fmt.Errorf("%d results for %d workloads", len(resp.Results), len(req.Workloads))
	}
	for i, r := range resp.Results {
		if r.Name != req.Workloads[i].Name {
			return fmt.Errorf("result %d is %q, request sent %q", i, r.Name, req.Workloads[i].Name)
		}
		if req.Nodes != (r.SeqAVF != nil) {
			return fmt.Errorf("result %d: nodes=%v but per-node map present=%v", i, req.Nodes, r.SeqAVF != nil)
		}
	}
	for _, i := range pickLanes(len(req.Workloads), oracleLanes) {
		in, err := pavfio.Parse(req.Workloads[i].Name, strings.NewReader(req.Workloads[i].PAVF))
		if err != nil {
			return err
		}
		sum, nodes, err := v.oracles[0].eval(in)
		if err != nil {
			return err
		}
		if err := checkSummary(resp.Results[i].Summary, sum); err != nil {
			return fmt.Errorf("lane %d summary: %w", i, err)
		}
		if req.Nodes {
			if err := checkNodes(resp.Results[i].SeqAVF, nodes); err != nil {
				return fmt.Errorf("lane %d: %w", i, err)
			}
		}
	}
	return nil
}

func (v *verifier) checkIntervals(s sample) error {
	var req server.IntervalSweepRequest
	if err := json.Unmarshal(v.in.bodies[(s.seq*clients+s.client)%len(v.in.bodies)], &req); err != nil {
		return err
	}
	var resp server.IntervalSweepResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != len(req.Workloads) {
		return fmt.Errorf("%d results for %d workloads", len(resp.Results), len(req.Workloads))
	}
	for k, r := range resp.Results {
		tab, err := pavfio.ParseIntervals(req.Workloads[k].Name, strings.NewReader(req.Workloads[k].Table))
		if err != nil {
			return err
		}
		if len(r.Windows) != len(tab.Windows) || len(r.ChipAVF) != len(tab.Windows) {
			return fmt.Errorf("workload %d: %d windows, %d chip AVFs, table has %d", k, len(r.Windows), len(r.ChipAVF), len(tab.Windows))
		}
		// The time-weighted mean must be the span-weighted mean of the
		// per-window chip AVFs the same response reports.
		var weighted, cycles float64
		peak := 0
		for w, win := range tab.Windows {
			if r.Windows[w].Start != win.Start || r.Windows[w].End != win.End {
				return fmt.Errorf("workload %d window %d geometry differs from the request", k, w)
			}
			span := float64(win.End - win.Start)
			weighted += r.ChipAVF[w] * span
			cycles += span
			if r.ChipAVF[w] > r.ChipAVF[peak] {
				peak = w
			}
		}
		if !near(r.TimeWeightedMean, weighted/cycles) {
			return fmt.Errorf("workload %d: time_weighted_mean %.17g, windows give %.17g", k, r.TimeWeightedMean, weighted/cycles)
		}
		if r.ChipAVF[r.PeakWindow] != r.ChipAVF[peak] || r.PeakChipAVF != r.ChipAVF[peak] {
			return fmt.Errorf("workload %d: peak window %d (%.17g), series peaks at %d", k, r.PeakWindow, r.PeakChipAVF, peak)
		}
		for _, w := range pickLanes(len(tab.Windows), 2) {
			sum, nodes, err := v.oracles[0].eval(tab.Windows[w].Inputs)
			if err != nil {
				return err
			}
			if !near(r.ChipAVF[w], sum.WeightedSeqAVF) {
				return fmt.Errorf("workload %d window %d: chip AVF %.17g, oracle %.17g", k, w, r.ChipAVF[w], sum.WeightedSeqAVF)
			}
			got := make(map[string]float64, len(r.SeqAVF))
			for node, series := range r.SeqAVF {
				if len(series) != len(tab.Windows) {
					return fmt.Errorf("workload %d node %s: %d points for %d windows", k, node, len(series), len(tab.Windows))
				}
				got[node] = series[w]
			}
			if err := checkNodes(got, nodes); err != nil {
				return fmt.Errorf("workload %d window %d: %w", k, w, err)
			}
		}
	}
	return nil
}

// checkHarden checks the invariants every protection plan must hold:
// one plan per requested budget, cost within budget, residual AVF no
// higher than the base.
func checkHarden(body, reqBody []byte) error {
	req, err := harden.ParseRequest(reqBody)
	if err != nil {
		return err
	}
	var resp harden.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Plans) != len(req.Budgets) {
		return fmt.Errorf("%d plans for %d budgets", len(resp.Plans), len(req.Budgets))
	}
	if len(resp.TopTerms) != req.TopTerms {
		return fmt.Errorf("%d top terms, asked for %d", len(resp.TopTerms), req.TopTerms)
	}
	for i, p := range resp.Plans {
		if p.Budget != req.Budgets[i] {
			return fmt.Errorf("plan %d answers budget %g, asked %g", i, p.Budget, req.Budgets[i])
		}
		if p.TotalCost > p.Budget {
			return fmt.Errorf("plan %d costs %g over budget %g", i, p.TotalCost, p.Budget)
		}
		if p.ResidualChipAVF > p.BaseChipAVF || p.BaseChipAVF != resp.BaseChipAVF {
			return fmt.Errorf("plan %d residual %.17g, base %.17g (response base %.17g)", i, p.ResidualChipAVF, p.BaseChipAVF, resp.BaseChipAVF)
		}
	}
	return nil
}

// checkEdit checks that an edit was applied incrementally and registered
// the edited netlist: the response's vertex count must be the edited
// design's, computed offline.
func (v *verifier) checkEdit(s sample) error {
	var resp server.EditResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Incremental == nil || !resp.Incremental.Converged {
		return fmt.Errorf("edit was not an incremental, converged re-solve: %s", s.body)
	}
	d := v.in.designs[s.client]
	r, n := v.in.edits[s.client][s.seq/2].body(d.netlist)
	nl := make([]byte, 0, n)
	buf := bytes.NewBuffer(nl)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	a, err := analyze(buf.Bytes())
	if err != nil {
		return err
	}
	if resp.Vertices != a.G.NumVerts() || resp.Name != d.name {
		return fmt.Errorf("edit registered %q with %d vertices, edited netlist %q has %d", resp.Name, resp.Vertices, d.name, a.G.NumVerts())
	}
	return nil
}
