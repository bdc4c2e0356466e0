package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"seqavf/internal/ace"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/stats"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// Request shapes, fixed per workload (see README.md for why).
const (
	sweepNodesLanes   = 64
	sweepBatchLanes   = 1024
	intervalWorkloads = 4
	intervalWindows   = 32
	hardenLanes       = 16
	suiteSize         = 4 // synthetic programs in the ACE suite average, as BenchmarkBlockedSweep
	// designSeed fixes the XeonLike design (the experiments' and
	// BenchmarkBlockedSweep's seed): across generator seeds the design's
	// vertex count varies by ±9%, which would move every metric by more
	// than its bound between runs. The run seed varies the traffic.
	designSeed = 2027
)

// hardenBudgetFracs are the protection budgets of every harden request,
// as fractions of the design's sequential bits (cost unit: bits).
var hardenBudgetFracs = []float64{0.02, 0.05, 0.10, 0.20}

// designInput is one XeonLike design as the server receives it, plus the
// generator output the edits and the oracle are derived from.
type designInput struct {
	name    string
	netlist []byte
	gen     *design.Generated
	avg     *core.Inputs // suite-average pAVF inputs for this design's ports
}

// edit is one ECO netlist: the owning design's netlist with one line
// inserted at off. Only the inserted line is stored, so thousands of
// distinct edits cost kilobytes, not one netlist copy each.
type edit struct {
	off  int
	line string
}

// body returns the edited netlist as a reader over the shared base bytes.
func (e edit) body(base []byte) (io.Reader, int64) {
	r := io.MultiReader(bytes.NewReader(base[:e.off]), strings.NewReader(e.line), bytes.NewReader(base[e.off:]))
	return r, int64(len(base) + len(e.line))
}

// inputs is everything one run sends, generated from the seed before any
// timing starts.
type inputs struct {
	workload string
	designs  []*designInput
	// bodies is the request-body pool of the sweep workloads; clients
	// cycle through it.
	bodies [][]byte
	// Per-client eco-mixed traffic: client c edits designs[c] with
	// edits[c][i] and then sends harden[c].
	edits  [][]edit
	harden [][]byte
	digest string
}

// generate builds a workload's inputs. maxEdits bounds the ECO pool per
// client (each edit is used once, so the pool must outlast the run).
func generate(wl string, seed uint64, maxEdits int) (*inputs, error) {
	in := &inputs{workload: wl}
	suite, err := suiteAverage(designSeed)
	if err != nil {
		return nil, err
	}
	nDesigns := 1
	if wl == "eco-mixed" {
		nDesigns = 2
	}
	for k := 0; k < nDesigns; k++ {
		d, err := newDesign(designSeed+uint64(k), suite)
		if err != nil {
			return nil, err
		}
		in.designs = append(in.designs, d)
	}
	rng := stats.New(seed ^ 0x5eed5eed)
	d0 := in.designs[0]
	switch wl {
	case "sweep-nodes", "sweep-batch":
		lanes, pool := sweepNodesLanes, 8
		if wl == "sweep-batch" {
			lanes, pool = sweepBatchLanes, 4
		}
		for b := 0; b < pool; b++ {
			req := server.SweepRequest{Design: d0.name, Nodes: wl == "sweep-nodes"}
			for i := 0; i < lanes; i++ {
				req.Workloads = append(req.Workloads, server.SweepWorkload{
					Name: fmt.Sprintf("b%d-w%04d", b, i),
					PAVF: tableText(jitter(d0.avg, rng)),
				})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
		}
	case "intervals-nodes":
		for b := 0; b < 4; b++ {
			req := server.IntervalSweepRequest{Design: d0.name, Nodes: true}
			for k := 0; k < intervalWorkloads; k++ {
				tab := &pavfio.IntervalTable{}
				var at uint64
				for w := 0; w < intervalWindows; w++ {
					span := uint64(500 + rng.Intn(3500))
					tab.Windows = append(tab.Windows, pavfio.IntervalWindow{
						Index: w, Start: at, End: at + span, Inputs: jitter(d0.avg, rng),
					})
					at += span
				}
				var sb strings.Builder
				if _, err := pavfio.WriteIntervals(&sb, tab); err != nil {
					return nil, err
				}
				req.Workloads = append(req.Workloads, server.IntervalSweepWorkload{
					Name: fmt.Sprintf("b%d-k%d", b, k), Table: sb.String(),
				})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
		}
	case "eco-mixed":
		for c, d := range in.designs {
			eds, err := ecoEdits(d, c, maxEdits, rng)
			if err != nil {
				return nil, err
			}
			in.edits = append(in.edits, eds)
			body, err := hardenBody(d, rng)
			if err != nil {
				return nil, err
			}
			in.harden = append(in.harden, body)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	in.digest = in.computeDigest()
	return in, nil
}

// suiteAverage runs the ACE performance model over the standard suite
// and returns its average report, the base every pAVF table jitters.
func suiteAverage(seed uint64) (*ace.Report, error) {
	progs := workload.Standard(suiteSize, seed)
	_, avg, err := uarch.RunSuite(progs, uarch.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("ACE suite: %w", err)
	}
	return avg, nil
}

// newDesign generates the XeonLike design of one seed and its netlist text.
func newDesign(seed uint64, suite *ace.Report) (*designInput, error) {
	gen, err := design.Generate(design.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		return nil, err
	}
	avg, err := gen.Inputs(suite)
	if err != nil {
		return nil, err
	}
	return &designInput{name: gen.Design.Name, netlist: nl.Bytes(), gen: gen, avg: avg}, nil
}

// jitter returns a ±0.1 seeded perturbation of the suite-average port
// pAVFs, clamped to [0, 1] — the recipe of BenchmarkBlockedSweep. Ports
// are visited in sorted order so the draw sequence is deterministic.
func jitter(avg *core.Inputs, rng *stats.RNG) *core.Inputs {
	in := core.NewInputs()
	ports := func(dst, src map[core.StructPort]float64) {
		keys := make([]core.StructPort, 0, len(src))
		for sp := range src {
			keys = append(keys, sp)
		}
		sort.Slice(keys, func(a, b int) bool {
			return keys[a].Struct < keys[b].Struct ||
				(keys[a].Struct == keys[b].Struct && keys[a].Port < keys[b].Port)
		})
		for _, sp := range keys {
			v := src[sp] + (rng.Float64()-0.5)*0.2
			dst[sp] = math.Min(1, math.Max(0, v))
		}
	}
	ports(in.ReadPorts, avg.ReadPorts)
	ports(in.WritePorts, avg.WritePorts)
	return in
}

// tableText renders inputs in the pAVF table text format.
func tableText(in *core.Inputs) string {
	var sb strings.Builder
	_, _ = pavfio.Write(&sb, in) // a strings.Builder write cannot fail
	return sb.String()
}

// ecoEdits derives n distinct ECO netlists for one design: each registers
// one seeded existing signal of a seeded top-level FUB module behind a
// fresh flop, exactly as TestEditDesignEndpoint's add-flop edit does.
// Every flop has a name unique in the run, so no two edits share a
// fingerprint and every edit re-solves, compiles and stores a new plan.
func ecoEdits(d *designInput, client, n int, rng *stats.RNG) ([]edit, error) {
	type site struct {
		off  int
		srcs []*netlist.Node
	}
	var sites []site
	seen := map[string]bool{}
	for _, f := range d.gen.Design.Fubs {
		if seen[f.Module] {
			continue
		}
		seen[f.Module] = true
		mod := d.gen.Design.Modules[f.Module]
		var srcs []*netlist.Node
		for _, nd := range mod.Nodes {
			if (nd.Kind == netlist.KindComb || nd.Kind == netlist.KindSeq) && nd.Class != netlist.ClassDebug {
				srcs = append(srcs, nd)
			}
		}
		if len(srcs) == 0 {
			continue
		}
		off, err := insertOffset(d, mod)
		if err != nil {
			return nil, err
		}
		sites = append(sites, site{off: off, srcs: srcs})
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("design %s has no editable module", d.name)
	}
	eds := make([]edit, n)
	for i := range eds {
		s := sites[rng.Intn(len(sites))]
		src := s.srcs[rng.Intn(len(s.srcs))]
		eds[i] = edit{off: s.off, line: fmt.Sprintf("  seq eco_c%d_%d %d = %s\n", client, i, src.Width, src.Name)}
	}
	return eds, nil
}

// insertOffset finds where netlist.Write places a node appended to mod:
// it writes the design once with a marker node appended and locates the
// marker's line, so base[:off] + line + base[off:] is byte-identical to
// writing the edited design.
func insertOffset(d *designInput, mod *netlist.Module) (int, error) {
	const marker = "perfbench_marker"
	saved := mod.Nodes
	mod.Nodes = append(append([]*netlist.Node(nil), saved...), &netlist.Node{
		Name: marker, Kind: netlist.KindSeq, Width: 1, Inputs: []string{saved[0].Name},
	})
	var buf bytes.Buffer
	err := netlist.Write(&buf, d.gen.Design)
	mod.Nodes = saved
	if err != nil {
		return 0, err
	}
	off := bytes.Index(buf.Bytes(), []byte("  seq "+marker+" "))
	if off < 0 || !bytes.Equal(buf.Bytes()[:off], d.netlist[:off]) {
		return 0, fmt.Errorf("locating the insertion point of module %s", mod.Name)
	}
	return off, nil
}

// hardenBody builds one client's harden request: 16 jittered tables, four
// budgets sized from the design's sequential bits, solver auto, top 10
// terms.
func hardenBody(d *designInput, rng *stats.RNG) ([]byte, error) {
	seqBits, err := countSeqBits(d)
	if err != nil {
		return nil, err
	}
	req := harden.Request{Design: d.name, Solver: "auto", TopTerms: 10}
	for _, f := range hardenBudgetFracs {
		req.Budgets = append(req.Budgets, math.Round(f*float64(seqBits)))
	}
	for i := 0; i < hardenLanes; i++ {
		req.Workloads = append(req.Workloads, harden.Workload{
			Name: fmt.Sprintf("h%02d", i), PAVF: tableText(jitter(d.avg, rng)),
		})
	}
	return json.Marshal(req)
}

// countSeqBits counts the design's sequential bits the way the server's
// /v1/designs response does.
func countSeqBits(d *designInput) (int, error) {
	res, err := solveNeutral(d.netlist)
	if err != nil {
		return 0, err
	}
	n := 0
	for v := 0; v < res.Analyzer.G.NumVerts(); v++ {
		if res.IsSequentialBit(graph.VertexID(v)) {
			n++
		}
	}
	return n, nil
}

// computeDigest hashes everything the server will receive, in generation
// order, so two runs can be shown to have sent identical traffic.
func (in *inputs) computeDigest() string {
	h := sha256.New()
	put := func(b []byte) {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	for _, d := range in.designs {
		put(d.netlist)
	}
	for _, b := range in.bodies {
		put(b)
	}
	for c := range in.edits {
		for _, e := range in.edits[c] {
			fmt.Fprintf(h, "%d:", e.off)
			put([]byte(e.line))
		}
		put(in.harden[c])
	}
	return hex.EncodeToString(h.Sum(nil))
}
