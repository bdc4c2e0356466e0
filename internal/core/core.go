// Package core implements SART, the Sequential AVF Resolution Tool — the
// primary contribution of Raasch et al. (MICRO-48 2015).
//
// SART takes (1) a bit-level node graph extracted from RTL and (2) port-AVF
// measurements from an ACE-instrumented performance model, and computes a
// statistically meaningful AVF for every sequential bit in the design
// without simulating the RTL:
//
//   - forward walks propagate read-port pAVFs "down" the graph (§4.1.1),
//   - backward walks propagate write-port pAVFs "up" the graph (§4.1.2),
//   - joins take the set union of incoming values (numerically a capped
//     sum), splits copy, and each node resolves to the MIN of its forward
//     and backward conservative estimates (Table 1),
//   - configuration control registers are detected (by class, name, or
//     driving clock) and pinned to pAVF_R = 100% with no write-side walk,
//   - loop sequentials (SCC members) become loop-boundary nodes with an
//     injected static pAVF (§4.3; 0.3 per the Figure 8 study),
//   - debug/DFX logic is stripped from the analysis, and undriven design
//     boundary ports attach to pseudo-structures (§5.1),
//   - a FUB-partitioned relaxation mode reproduces the paper's operational
//     tool flow (per-FUB walks plus a FUBIO merge each iteration, §5.2),
//   - every node ends with a closed-form symbolic AVF equation that can be
//     re-evaluated against fresh pAVF measurements without re-walking.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// Options configure an Analyzer.
type Options struct {
	// LoopPAVF is the static pAVF injected at loop-boundary nodes
	// (§4.3). The paper selects 0.3 after the Figure 8 sweep.
	LoopPAVF float64
	// PseudoPAVF is the pAVF of the boundary pseudo-structures that stand
	// in for circuits outside the RTL under analysis. 1.0 is fully
	// conservative (equivalent to leaving the boundary unwalked).
	PseudoPAVF float64
	// ControlRegPrefixes lists node-name prefixes identifying
	// configuration control registers (in addition to ClassControl).
	ControlRegPrefixes []string
	// ControlRegClocks lists clock names identifying control registers.
	ControlRegClocks []string
	// Iterations bounds the partitioned relaxation. The paper found 20
	// sufficient for a Xeon-class design.
	Iterations int
	// Epsilon is the convergence threshold on the largest per-FUB change
	// in average node pAVF between relaxation iterations.
	Epsilon float64
	// DefaultPortPAVF, when non-negative, substitutes for structure ports
	// missing from the Inputs tables instead of failing. Use -1 (the
	// DefaultOptions value) to require complete inputs.
	DefaultPortPAVF float64
	// LoopOverrides assigns per-node loop-boundary pAVFs (keyed
	// "fub/node"), taking precedence over LoopPAVF. This implements the
	// paper's §4.3 solution 2: loop retention probabilities measured by
	// targeted RTL simulation are injected case by case.
	LoopOverrides map[string]float64
	// PseudoOverrides assigns pAVFs to individual boundary
	// pseudo-structure ports (keyed "EXT:FUB.port", as reported in the
	// closed forms), taking precedence over PseudoPAVF — §5.1's
	// pseudo-structures "with its own pAVF_R and pAVF_W values".
	PseudoOverrides map[string]float64
	// Workers bounds the goroutines used by SolvePartitioned's per-FUB
	// walks (§5.2 notes partitioning exists "to parallelize the task").
	// 0 or 1 runs serially; results are identical either way.
	Workers int
	// Obs receives solver telemetry: phase spans (env/fwd/bwd/finish,
	// per-iteration relaxation spans) and walk counters (vertices visited,
	// union ops, top-set short-circuits). nil disables instrumentation at
	// the cost of one nil check per phase.
	Obs *obs.Registry
}

// DefaultOptions returns the paper's operating point.
func DefaultOptions() Options {
	return Options{
		LoopPAVF:           0.3,
		PseudoPAVF:         1.0,
		ControlRegPrefixes: []string{"cfg_"},
		ControlRegClocks:   []string{"cfgclk"},
		Iterations:         20,
		Epsilon:            1e-9,
		DefaultPortPAVF:    -1,
	}
}

// Role classifies how SART treats each bit vertex.
type Role uint8

const (
	// RoleNormal bits receive propagated forward/backward estimates.
	RoleNormal Role = iota
	// RoleStructPort bits belong to structure read/write ports: walk
	// sources and sinks carrying measured pAVFs.
	RoleStructPort
	// RoleControl bits are configuration control registers: pAVF_R
	// pinned to 100%, write-side walk omitted (contributes 0).
	RoleControl
	// RoleLoop bits are sequentials inside feedback loops: injected
	// static pAVF in both directions.
	RoleLoop
	// RoleConst bits are hardwired constants: not fault sites; forward
	// contribution is conservatively ⊤.
	RoleConst
	// RoleDebug bits are stripped DFX logic: excluded from analysis and
	// statistics, contributing nothing in either direction.
	RoleDebug
	// RolePseudoIn bits are undriven FUB inputs fed by the boundary
	// pseudo-structure.
	RolePseudoIn
)

func (r Role) String() string {
	switch r {
	case RoleNormal:
		return "normal"
	case RoleStructPort:
		return "structport"
	case RoleControl:
		return "control"
	case RoleLoop:
		return "loop"
	case RoleConst:
		return "const"
	case RoleDebug:
		return "debug"
	case RolePseudoIn:
		return "pseudoin"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// StructPort names one structure port.
type StructPort struct {
	Struct string
	Port   string
}

func (p StructPort) String() string { return p.Struct + "." + p.Port }

// Inputs carries the measurements produced by the ACE performance model:
// per-port pAVFs (Equation-style ACE reads or writes per cycle) and
// per-structure AVFs (Equation 3), the latter used for the structure bits
// themselves and for the pre-sequential-AVF proxy model.
type Inputs struct {
	ReadPorts  map[StructPort]float64
	WritePorts map[StructPort]float64
	StructAVF  map[string]float64
}

// NewInputs returns empty input tables.
func NewInputs() *Inputs {
	return &Inputs{
		ReadPorts:  make(map[StructPort]float64),
		WritePorts: make(map[StructPort]float64),
		StructAVF:  make(map[string]float64),
	}
}

// Equal reports whether both input tables carry exactly the same
// measurements (same ports, bit-identical values). A result already
// evaluated against in needs no re-evaluation for an Equal table —
// the artifact store's warm-start path relies on this.
func (in *Inputs) Equal(other *Inputs) bool {
	if in == nil || other == nil {
		return in == other
	}
	return equalPortTable(in.ReadPorts, other.ReadPorts) &&
		equalPortTable(in.WritePorts, other.WritePorts) &&
		equalStructTable(in.StructAVF, other.StructAVF)
}

// equalPortTable compares one per-port measurement table. Factored out of
// Equal so callers deciding invalidation granularity (the incremental
// re-solve path) compare exactly what the warm-start path compares:
// measurement identity, never structure.
func equalPortTable(a, b map[StructPort]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func equalStructTable(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Analyzer binds a bit graph to SART options, precomputing vertex roles,
// the term universe, walk sources, and the topological schedule. One
// Analyzer serves any number of Solve calls with different Inputs.
type Analyzer struct {
	G    *graph.Graph
	Opts Options

	roles []Role
	// fwdFixed/bwdFixed mark vertices whose contribution in that
	// direction is a fixed source set (fwdSrc/bwdSrc) rather than a
	// propagated value; an empty set means "contributes nothing".
	fwdFixed []bool
	bwdFixed []bool
	fwdSrc   []pavf.Set
	bwdSrc   []pavf.Set

	universe *pavf.Universe
	// readTerm/writeTerm map structure ports to their terms.
	readTerm  map[StructPort]pavf.TermID
	writeTerm map[StructPort]pavf.TermID
	loopTerms []pavf.TermID // term per loop node (indexed separately)
	ctrlTerm  pavf.TermID
	pseudoIn  map[graph.VertexID]pavf.TermID // per undriven input port node
	pseudoOut map[graph.VertexID]pavf.TermID // per unconsumed output port node

	topo []graph.VertexID // topological order of normal vertices

	fingerprint uint64 // design-identity hash, see Fingerprint

	// Per-FUB identity hashes, built lazily on first FubFingerprints call
	// (only the incremental re-solve path needs them).
	fubFpOnce sync.Once
	fubFps    []uint64

	// buildEnv's precomputed shape, built lazily on first use: the
	// workload-independent terms (Top, control, loop, pseudo) prefilled in
	// a template the per-workload environment is copied from, and the
	// port->term maps flattened into slices sorted by port so the
	// per-workload fill is a linear scan with stable error order.
	envOnce     sync.Once
	envTemplate pavf.Env
	readBind    []portBind
	writeBind   []portBind

	// Per-FUB topological schedules and the visited bitmap are
	// structural properties of the graph — independent of inputs — so
	// they are computed once and shared by every subsequent solve on
	// this analyzer. An incremental (ECO) re-solve in particular must
	// not pay O(V+E) schedule construction for work proportional to the
	// dirty region.
	topoOnce           sync.Once
	fwdTopos, bwdTopos [][]graph.VertexID
	topoErr            error

	visitedOnce sync.Once
	visitedBits []bool

	seqOnce  sync.Once
	seqIndex *SeqIndex
}

// portBind is one structure port's term slot in the flattened form the
// environment builder iterates.
type portBind struct {
	sp StructPort
	t  pavf.TermID
}

// NewAnalyzer prepares g for SART analysis.
func NewAnalyzer(g *graph.Graph, opts Options) (*Analyzer, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = 20
	}
	if opts.LoopPAVF < 0 || opts.LoopPAVF > 1 {
		return nil, fmt.Errorf("core: LoopPAVF %v out of [0,1]", opts.LoopPAVF)
	}
	if opts.PseudoPAVF < 0 || opts.PseudoPAVF > 1 {
		return nil, fmt.Errorf("core: PseudoPAVF %v out of [0,1]", opts.PseudoPAVF)
	}
	a := &Analyzer{
		G:         g,
		Opts:      opts,
		universe:  pavf.NewUniverse(),
		readTerm:  make(map[StructPort]pavf.TermID),
		writeTerm: make(map[StructPort]pavf.TermID),
		pseudoIn:  make(map[graph.VertexID]pavf.TermID),
		pseudoOut: make(map[graph.VertexID]pavf.TermID),
	}
	a.ctrlTerm = a.universe.Intern(pavf.Term{Kind: pavf.KindControlReg, Name: "CTRL"})
	a.classify()
	a.buildSources()
	topo, err := g.TopoOrder(func(v graph.VertexID) bool { return a.fwdFixed[v] })
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a.topo = topo
	a.fingerprint = a.computeFingerprint()
	return a, nil
}

// Universe exposes the term universe (for formatting closed forms).
func (a *Analyzer) Universe() *pavf.Universe { return a.universe }

// Fingerprint is a stable hash of everything that determines the shape of
// the closed-form equations: the design's vertices, their roles, the edge
// structure, and the role-affecting options. Two analyzers with equal
// fingerprints produce identical Exprs for any Inputs, so the fingerprint
// keys compiled-plan caches (internal/sweep) and guards Reevaluate against
// cross-design misuse.
func (a *Analyzer) Fingerprint() uint64 { return a.fingerprint }

func (a *Analyzer) computeFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wStr := func(s string) {
		wInt(len(s))
		h.Write([]byte(s))
	}
	wStr(a.G.Design.Name)
	wInt(len(a.G.FubNames))
	for _, f := range a.G.FubNames {
		wStr(f)
	}
	for _, p := range a.Opts.ControlRegPrefixes {
		wStr(p)
	}
	for _, c := range a.Opts.ControlRegClocks {
		wStr(c)
	}
	n := a.G.NumVerts()
	wInt(n)
	for v := 0; v < n; v++ {
		vx := &a.G.Verts[v]
		wStr(vx.Node.Name)
		wInt(int(vx.Fub))
		wInt(int(vx.Bit))
		wInt(int(vx.Node.Kind))
		wInt(int(vx.Node.Class))
		wInt(int(a.roles[v]))
		// Structure binding and clock determine the vertex's terms and
		// control-register detection: a port rebound to a different
		// structure changes the equations even with identical edges.
		wStr(vx.Node.Struct)
		wStr(vx.Node.Port)
		wStr(vx.Node.Clock)
		for _, s := range a.G.Succs(graph.VertexID(v)) {
			wInt(int(s))
		}
	}
	return h.Sum64()
}

// BuildEnv maps Inputs onto the term universe, producing the numeric
// environment the closed forms evaluate under. Exposed for the batch sweep
// engine (internal/sweep), which re-evaluates compiled plans against many
// environments without re-walking.
func (a *Analyzer) BuildEnv(in *Inputs) (pavf.Env, error) { return a.buildEnv(in) }

// CheckInputs verifies that in plausibly belongs to this design: every
// structure port it names must exist in the analyzed graph. A table carrying
// ports the design does not have was measured for (or bound to) a different
// design; applying it silently would leave this design's own ports at their
// defaults while the stray measurements are dropped on the floor. With
// several stray ports the lexicographically smallest is named, so the
// error is stable across runs rather than following map iteration order.
func (a *Analyzer) CheckInputs(in *Inputs) error {
	var stray StructPort
	kind := ""
	for sp := range in.ReadPorts {
		if _, ok := a.readTerm[sp]; !ok && (kind == "" || sp.String() < stray.String()) {
			stray, kind = sp, "read"
		}
	}
	for sp := range in.WritePorts {
		if _, ok := a.writeTerm[sp]; !ok && (kind == "" || sp.String() < stray.String()) {
			stray, kind = sp, "write"
		}
	}
	if kind != "" {
		return fmt.Errorf("core: inputs reference %s port %s, which design %q does not have", kind, stray, a.G.Design.Name)
	}
	return nil
}

// Role returns the role assigned to vertex v.
func (a *Analyzer) Role(v graph.VertexID) Role { return a.roles[v] }

// isControlReg applies the paper's §5.1 detection: explicit class, node
// name prefix, or driving clock.
func (a *Analyzer) isControlReg(n *netlist.Node) bool {
	if n.Kind != netlist.KindSeq {
		return false
	}
	if n.Class == netlist.ClassControl {
		return true
	}
	base := n.Name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	for _, p := range a.Opts.ControlRegPrefixes {
		if strings.HasPrefix(base, p) {
			return true
		}
	}
	for _, c := range a.Opts.ControlRegClocks {
		if n.Clock != "" && n.Clock == c {
			return true
		}
	}
	return false
}

func (a *Analyzer) classify() {
	n := a.G.NumVerts()
	a.roles = make([]Role, n)
	for v := 0; v < n; v++ {
		vx := &a.G.Verts[v]
		node := vx.Node
		switch {
		case node.Class == netlist.ClassDebug:
			a.roles[v] = RoleDebug
		case node.Kind == netlist.KindStructRead || node.Kind == netlist.KindStructWrite:
			a.roles[v] = RoleStructPort
		case a.isControlReg(node):
			a.roles[v] = RoleControl
		case node.Kind == netlist.KindSeq && vx.InLoop:
			a.roles[v] = RoleLoop
		case node.Kind == netlist.KindConst:
			a.roles[v] = RoleConst
		case node.Kind == netlist.KindInput && !a.G.DrivenInputs[graph.VertexID(v)]:
			a.roles[v] = RolePseudoIn
		default:
			a.roles[v] = RoleNormal
		}
	}
}

// buildSources assigns fixed forward/backward contributions per role.
func (a *Analyzer) buildSources() {
	n := a.G.NumVerts()
	a.fwdFixed = make([]bool, n)
	a.bwdFixed = make([]bool, n)
	a.fwdSrc = make([]pavf.Set, n)
	a.bwdSrc = make([]pavf.Set, n)
	loopTermOf := make(map[*netlist.Node]pavf.TermID)

	for v := 0; v < n; v++ {
		vx := &a.G.Verts[v]
		node := vx.Node
		id := graph.VertexID(v)
		switch a.roles[v] {
		case RoleStructPort:
			sp := StructPort{Struct: node.Struct, Port: node.Port}
			var term pavf.TermID
			if node.Kind == netlist.KindStructRead {
				term = a.universe.Intern(pavf.Term{Kind: pavf.KindReadPort, Name: sp.String()})
				a.readTerm[sp] = term
			} else {
				term = a.universe.Intern(pavf.Term{Kind: pavf.KindWritePort, Name: sp.String()})
				a.writeTerm[sp] = term
			}
			set := pavf.Singleton(term)
			a.fwdFixed[v], a.fwdSrc[v] = true, set
			a.bwdFixed[v], a.bwdSrc[v] = true, set
		case RoleControl:
			// pAVF_R = 100% forward; write-side walk omitted: the
			// backward contribution through a control register is 0.
			a.fwdFixed[v], a.fwdSrc[v] = true, pavf.Singleton(a.ctrlTerm)
			a.bwdFixed[v], a.bwdSrc[v] = true, pavf.Set{}
		case RoleLoop:
			term, ok := loopTermOf[node]
			if !ok {
				term = a.universe.Intern(pavf.Term{Kind: pavf.KindLoop, Name: a.nodeKey(id)})
				loopTermOf[node] = term
				a.loopTerms = append(a.loopTerms, term)
			}
			set := pavf.Singleton(term)
			a.fwdFixed[v], a.fwdSrc[v] = true, set
			a.bwdFixed[v], a.bwdSrc[v] = true, set
		case RoleConst:
			// A constant is not a fault site, but logic it feeds can be
			// corrupted whenever downstream consumption is ACE; without
			// source information we stay conservative (⊤) forward.
			a.fwdFixed[v], a.fwdSrc[v] = true, pavf.TopSet()
			// No preds exist; backward fixing is unnecessary but cheap.
			a.bwdFixed[v], a.bwdSrc[v] = true, pavf.Set{}
		case RoleDebug:
			a.fwdFixed[v], a.fwdSrc[v] = true, pavf.Set{}
			a.bwdFixed[v], a.bwdSrc[v] = true, pavf.Set{}
		case RolePseudoIn:
			term := a.universe.Intern(pavf.Term{Kind: pavf.KindPseudo, Name: a.portName(id)})
			a.pseudoIn[id] = term
			a.fwdFixed[v], a.fwdSrc[v] = true, pavf.Singleton(term)
		}
		// Unconsumed FUB outputs additionally act as backward pseudo
		// sources, regardless of role.
		if node.Kind == netlist.KindOutput && !a.G.ConsumedOutputs[id] && a.roles[v] == RoleNormal {
			term := a.universe.Intern(pavf.Term{Kind: pavf.KindPseudo, Name: a.portName(id)})
			a.pseudoOut[id] = term
			a.bwdFixed[v] = true
			a.bwdSrc[v] = pavf.Singleton(term)
		}
	}
}

// portName labels a boundary pseudo-structure term for a FUB port node.
func (a *Analyzer) portName(v graph.VertexID) string {
	vx := &a.G.Verts[v]
	return "EXT:" + a.G.FubNames[vx.Fub] + "." + vx.Node.Name
}

// envPrep builds the workload-independent half of the environment once:
// the template carries Top, the control term, and every loop and pseudo
// term (with their Options overrides applied exactly as the per-workload
// builder used to), and the port->term maps are flattened into sorted
// slices so per-workload fills touch no map iterators and report the
// lexicographically first failing port, matching CheckInputs' stability.
func (a *Analyzer) envPrep() {
	a.envOnce.Do(func() {
		env := pavf.NewEnv(a.universe)
		env.Set(a.ctrlTerm, 1.0)
		for _, t := range a.loopTerms {
			v := a.Opts.LoopPAVF
			if ov, ok := a.Opts.LoopOverrides[a.universe.Term(t).Name]; ok {
				if ov < 0 {
					ov = 0
				}
				if ov > 1 {
					ov = 1
				}
				v = ov
			}
			env.Set(t, v)
		}
		setPseudo := func(t pavf.TermID) {
			v := a.Opts.PseudoPAVF
			if ov, ok := a.Opts.PseudoOverrides[a.universe.Term(t).Name]; ok {
				v = ov
			}
			env.Set(t, v)
		}
		for _, t := range a.pseudoIn {
			setPseudo(t)
		}
		for _, t := range a.pseudoOut {
			setPseudo(t)
		}
		flatten := func(m map[StructPort]pavf.TermID) []portBind {
			bs := make([]portBind, 0, len(m))
			for sp, t := range m {
				bs = append(bs, portBind{sp, t})
			}
			sort.Slice(bs, func(i, j int) bool { return bs[i].sp.String() < bs[j].sp.String() })
			return bs
		}
		a.readBind = flatten(a.readTerm)
		a.writeBind = flatten(a.writeTerm)
		// With a default port pAVF the unmeasured ports are also workload
		// independent: prefill them (Set clamps, as the per-port fill
		// would), so CheckedEnv's fast pass only touches measured ports.
		if a.Opts.DefaultPortPAVF >= 0 {
			for _, b := range a.readBind {
				env.Set(b.t, a.Opts.DefaultPortPAVF)
			}
			for _, b := range a.writeBind {
				env.Set(b.t, a.Opts.DefaultPortPAVF)
			}
		}
		a.envTemplate = env
	})
}

// buildEnv maps Inputs onto the term universe: the precomputed template
// supplies the workload-independent terms, and the flattened port
// bindings — sorted by port, so error order is stable — fill the
// measured (or defaulted) port pAVFs.
func (a *Analyzer) buildEnv(in *Inputs) (pavf.Env, error) {
	a.envPrep()
	env := make(pavf.Env, len(a.envTemplate))
	copy(env, a.envTemplate)
	fill := func(m map[StructPort]float64, binds []portBind, what string) error {
		for _, b := range binds {
			v, ok := m[b.sp]
			switch {
			case ok:
				if v < 0 || v > 1 {
					return fmt.Errorf("core: %s pAVF for %s out of [0,1]: %v", what, b.sp, v)
				}
			case a.Opts.DefaultPortPAVF >= 0:
				v = a.Opts.DefaultPortPAVF
			default:
				return fmt.Errorf("core: missing %s pAVF for structure port %s", what, b.sp)
			}
			env.Set(b.t, v)
		}
		return nil
	}
	if err := fill(in.ReadPorts, a.readBind, "read"); err != nil {
		return nil, err
	}
	if err := fill(in.WritePorts, a.writeBind, "write"); err != nil {
		return nil, err
	}
	return env, nil
}

// CheckedEnv fuses CheckInputs and BuildEnv into a single hash pass: it
// walks each input table once, resolving every measured port against the
// design's term map — which detects stray ports for free — on top of a
// template that already carries the workload-independent terms and the
// port defaults. That is half the hashing of checking and then building,
// and it is the path the sweep engine takes per workload. Anything
// irregular — a stray port, an out-of-range value, a missing measurement
// with no default — falls back to CheckInputs followed by the sorted
// slow fill, so errors and their precedence are exactly those of calling
// CheckInputs then BuildEnv.
func (a *Analyzer) CheckedEnv(in *Inputs) (pavf.Env, error) {
	a.envPrep()
	env := make(pavf.Env, len(a.envTemplate))
	copy(env, a.envTemplate)
	fast := func(m map[StructPort]float64, terms map[StructPort]pavf.TermID) bool {
		for sp, v := range m {
			t, ok := terms[sp]
			if !ok || v < 0 || v > 1 {
				return false
			}
			env[t] = v
		}
		return true
	}
	ok := fast(in.ReadPorts, a.readTerm) && fast(in.WritePorts, a.writeTerm)
	if ok && a.Opts.DefaultPortPAVF < 0 {
		// No default: every design port must have been measured.
		ok = len(in.ReadPorts) == len(a.readBind) && len(in.WritePorts) == len(a.writeBind)
	}
	if !ok {
		if err := a.CheckInputs(in); err != nil {
			return nil, err
		}
		return a.buildEnv(in)
	}
	return env, nil
}

// ReadPortTerms returns the read ports the design references (useful for
// checking Inputs coverage).
func (a *Analyzer) ReadPortTerms() []StructPort {
	out := make([]StructPort, 0, len(a.readTerm))
	for sp := range a.readTerm {
		out = append(out, sp)
	}
	return out
}

// WritePortTerms returns the write ports the design references.
func (a *Analyzer) WritePortTerms() []StructPort {
	out := make([]StructPort, 0, len(a.writeTerm))
	for sp := range a.writeTerm {
		out = append(out, sp)
	}
	return out
}

// NumLoopTerms returns the count of distinct loop-boundary nodes.
func (a *Analyzer) NumLoopTerms() int { return len(a.loopTerms) }
