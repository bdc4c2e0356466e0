package main

// The traced run: for a fixed sample of each workload's requests, call
// the public functions of every layer in the order the seqavfd handlers
// call them, from one goroutine, and record a span around each call.
// Spans are timed from outside the program; nothing inside it is
// instrumented for the benchmark.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/sweep"
)

// Traced requests per workload, after one untraced warm-up request
// (eco-mixed: [edit, harden] loops per design).
var tracedRequests = map[string]int{
	"sweep-nodes":     6,
	"sweep-batch":     3,
	"intervals-nodes": 6,
	"eco-mixed":       6,
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
// Overhead is the tracer's own bookkeeping time spent inside this span
// but outside its children, subtracted from its self time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Req      int    `json:"request"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Alloc    uint64 `json:"alloc_bytes"` // allocated during the call, children included
	Overhead int64  `json:"overhead_ns"`
	Replay   bool   `json:"replay,omitempty"`

	alloc0 uint64
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int
	req    int
	on     bool
	replay bool
	ms     runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 8192)}
}

// begin opens a span under the innermost open span. It returns -1, and
// records nothing, while the tracer is off (set-up calls).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	o0 := time.Now()
	runtime.ReadMemStats(&t.ms)
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Replay: t.replay, alloc0: t.ms.TotalAlloc})
	t.stack = append(t.stack, id)
	now := time.Now()
	t.spans[id].Start = now.Sub(t.epoch).Nanoseconds()
	if parent >= 0 {
		t.spans[parent].Overhead += now.Sub(o0).Nanoseconds()
	}
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id]
	s.End = now.Sub(t.epoch).Nanoseconds()
	s.Alloc = t.ms.TotalAlloc - s.alloc0
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	} else {
		// Leave the stack alone: check() reports the broken nesting.
		s.End = -1
	}
	if s.Parent >= 0 {
		t.spans[s.Parent].Overhead += time.Since(now).Nanoseconds()
	}
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// check verifies the spans nest: every span closed, inside its parent's
// interval, of its parent's request, and not overlapping its siblings.
func (t *tracer) check() []string {
	var errs []string
	if len(t.stack) != 0 {
		errs = append(errs, fmt.Sprintf("trace: %d spans left open", len(t.stack)))
	}
	last := map[int]int64{} // parent -> end of the previous child
	for _, s := range t.spans {
		switch {
		case s.End < s.Start:
			errs = append(errs, fmt.Sprintf("trace: span %d %s not closed in order", s.ID, s.Name))
		case s.Parent >= 0:
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Req != p.Req || s.Replay != p.Replay {
				errs = append(errs, fmt.Sprintf("trace: span %d %s escapes parent %d %s", s.ID, s.Name, p.ID, p.Name))
			}
			if s.Start < last[s.Parent] {
				errs = append(errs, fmt.Sprintf("trace: span %d %s overlaps a sibling", s.ID, s.Name))
			}
			last[s.Parent] = s.End
		}
	}
	return errs
}

// self returns a span's self time and self allocation.
func (t *tracer) self(children map[int][]int, s span) (int64, int64) {
	dur := s.End - s.Start - s.Overhead
	alloc := int64(s.Alloc)
	for _, c := range children[s.ID] {
		dur -= t.spans[c].End - t.spans[c].Start
		alloc -= int64(t.spans[c].Alloc)
	}
	return dur, alloc
}

// timedStore wraps the artifact store the traced engine consults behind
// its plan cache, so the store calls inside Engine.PlanContext are timed
// from outside. A clean miss is followed by the engine's compile and then
// a put: the interval between the two is the sweep.compile span.
type timedStore struct {
	st      *artifact.Store
	tr      *tracer
	compile int
	gets    int
	putFPs  []uint64
}

func (s *timedStore) GetPlan(ctx context.Context, res *core.Result) (*sweep.Plan, error) {
	id := s.tr.begin("artifact.get")
	p, err := s.st.GetPlan(ctx, res)
	s.tr.end(id)
	if s.tr.on {
		s.gets++
	}
	if p == nil {
		s.compile = s.tr.begin("sweep.compile")
	}
	return p, err
}

func (s *timedStore) PutPlan(res *core.Result, p *sweep.Plan) error {
	s.closeCompile()
	id := s.tr.begin("artifact.put")
	err := s.st.PutPlan(res, p)
	s.tr.end(id)
	if s.tr.on {
		s.putFPs = append(s.putFPs, res.Analyzer.Fingerprint())
	}
	return err
}

func (s *timedStore) closeCompile() {
	if s.compile >= 0 {
		s.tr.end(s.compile)
		s.compile = -1
	}
}

// traced holds one traced run's state and outcome.
type traced struct {
	tr     *tracer
	reg    *obs.Registry
	eng    *sweep.Engine
	store  *artifact.Store
	ts     *timedStore
	lookup int // plan lookups: explicit PlanContext calls plus one per sweep

	requests int
	counts   map[string]float64 // per-request counters summed over requests
	putBytes float64
	sum      *sumCheck
	nestErrs []string
}

// sumCheck records how the traced self times add up to the end-to-end
// median latency.
type sumCheck struct {
	P50MS    float64            `json:"latency_p50_ms"`
	SelfMS   float64            `json:"sum_self_ms"`
	OtherMS  float64            `json:"other_ms"`
	PerLayer map[string]float64 `json:"self_ms"`
	Requests int                `json:"traced_requests"`
}

// tracedRun runs the workload's traced sample against a fresh engine and
// artifact store configured like the server's, with one evaluation
// worker so every layer runs on the calling goroutine's core.
func tracedRun(o options, in *inputs) (*traced, error) {
	dir, err := os.MkdirTemp(o.workDir, "traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir, artifact.Options{MaxBytes: 1 << 30})
	if err != nil {
		return nil, err
	}
	t := &traced{tr: newTracer(), reg: obs.New(), store: st, counts: map[string]float64{}}
	t.ts = &timedStore{st: st, tr: t.tr, compile: -1}
	t.eng = sweep.New(sweep.Options{Workers: 1, Obs: t.reg, Store: t.ts})
	var live []*core.Result
	for _, d := range in.designs {
		res, err := solveNeutral(d.netlist)
		if err != nil {
			return nil, err
		}
		if _, err := t.eng.Plan(res); err != nil {
			return nil, err
		}
		live = append(live, res)
	}
	k := tracedRequests[o.workload]
	ctx := context.Background()
	if o.workload == "eco-mixed" {
		for i := 0; i <= k; i++ {
			for c := range live {
				res, err := t.edit(ctx, i > 0, live[c], in.designs[c], in.edits[c][i])
				if err != nil {
					return nil, err
				}
				live[c] = res
				if err := t.harden(ctx, i > 0, live[c], in.harden[c]); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for i := 0; i <= k; i++ {
			body := in.bodies[i%len(in.bodies)]
			var err error
			if o.workload == "intervals-nodes" {
				err = t.intervals(ctx, i > 0, live[0], body)
			} else {
				err = t.sweep(ctx, i > 0, live[0], body)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	for _, fp := range t.ts.putFPs {
		if raw, err := st.Raw(fp); err == nil {
			t.putBytes += float64(len(raw))
		}
	}
	t.nestErrs = t.tr.check()
	return t, nil
}

// request brackets one traced request: a root span, the tracer switched
// on when record is set (the first request of a run is an untraced
// warm-up).
func (t *traced) request(record bool, kind string, f func() error) error {
	t.tr.on = record
	if record {
		t.requests++
		t.tr.req++
	}
	id := t.tr.begin("request." + kind)
	err := f()
	t.ts.closeCompile()
	t.tr.end(id)
	t.tr.on = false
	return err
}

// encode is writeJSON's encoding: indented, into the response stream.
func (t *traced) encode(v any) error {
	var cw countWriter
	err := t.tr.timed("server.encode", func() error {
		enc := json.NewEncoder(&cw)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
	if t.tr.on {
		t.counts["server.response_bytes"] += float64(cw.n)
	}
	return err
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (t *traced) sweep(ctx context.Context, record bool, res *core.Result, body []byte) error {
	return t.request(record, "sweep", func() error {
		var req server.SweepRequest
		err := t.tr.timed("server.decode", func() error {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			return dec.Decode(&req)
		})
		if err != nil {
			return err
		}
		ws := make([]sweep.Workload, len(req.Workloads))
		err = t.tr.timed("pavfio.parse", func() error {
			for i, rw := range req.Workloads {
				in, err := pavfio.Parse(rw.Name, strings.NewReader(rw.PAVF))
				if err != nil {
					return err
				}
				ws[i] = sweep.Workload{Name: rw.Name, Inputs: in}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if _, err := t.plan(ctx, res); err != nil {
			return err
		}
		var batch *sweep.Batch
		err = t.tr.timed("sweep.eval", func() error {
			batch, err = t.eng.SweepContext(ctx, res, ws)
			return err
		})
		if err != nil {
			return err
		}
		t.lookedUp()
		resp := server.SweepResponse{
			Design:    res.Analyzer.G.Design.Name,
			Workloads: len(batch.Results),
			Plan:      batch.Plan.Stats(),
			ElapsedMS: float64(batch.Elapsed.Microseconds()) / 1e3,
			PerSec:    batch.WorkloadsPerSec(),
			Results:   make([]server.WorkloadResult, len(batch.Results)),
		}
		_ = t.tr.timed("core.summarize", func() error {
			for i, r := range batch.Results {
				resp.Results[i] = server.WorkloadResult{Name: batch.Names[i], Summary: r.Summarize()}
			}
			return nil
		})
		if req.Nodes {
			_ = t.tr.timed("core.seqavf_by_node", func() error {
				for i, r := range batch.Results {
					resp.Results[i].SeqAVF = r.SeqAVFByNode()
				}
				return nil
			})
		}
		if err := t.encode(resp); err != nil {
			return err
		}
		return t.replay(batch.Plan, ws)
	})
}

func (t *traced) intervals(ctx context.Context, record bool, res *core.Result, body []byte) error {
	return t.request(record, "intervals", func() error {
		var req server.IntervalSweepRequest
		err := t.tr.timed("server.decode", func() error {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			return dec.Decode(&req)
		})
		if err != nil {
			return err
		}
		ws := make([]sweep.IntervalWorkload, len(req.Workloads))
		err = t.tr.timed("pavfio.parse_intervals", func() error {
			for i, rw := range req.Workloads {
				tab, err := pavfio.ParseIntervals(rw.Name, strings.NewReader(rw.Table))
				if err != nil {
					return err
				}
				iw := sweep.IntervalWorkload{Name: rw.Name}
				for _, win := range tab.Windows {
					iw.Windows = append(iw.Windows, sweep.WindowSpan{Start: win.Start, End: win.End})
					iw.Inputs = append(iw.Inputs, win.Inputs)
				}
				ws[i] = iw
			}
			return nil
		})
		if err != nil {
			return err
		}
		if _, err := t.plan(ctx, res); err != nil {
			return err
		}
		var batch *sweep.IntervalBatch
		err = t.tr.timed("sweep.intervals", func() error {
			batch, err = t.eng.SweepIntervalsContext(ctx, res, ws)
			return err
		})
		if err != nil {
			return err
		}
		t.lookedUp()
		resp := server.IntervalSweepResponse{
			Design:           res.Analyzer.G.Design.Name,
			Workloads:        len(batch.Workloads),
			WindowsEvaluated: batch.WindowsEvaluated,
			Plan:             batch.Plan.Stats(),
			ElapsedMS:        float64(batch.Elapsed.Microseconds()) / 1e3,
			Results:          make([]server.IntervalWorkloadResult, len(batch.Workloads)),
		}
		var lanes []sweep.Workload
		for i, iw := range batch.Workloads {
			wr := server.IntervalWorkloadResult{
				Name:             iw.Name,
				Windows:          make([]server.IntervalWindowInfo, len(iw.Windows)),
				ChipAVF:          iw.Summary.ChipAVF,
				TimeWeightedMean: iw.Summary.TimeWeightedMean,
				PeakWindow:       iw.Summary.PeakWindow,
				PeakChipAVF:      iw.Summary.PeakChipAVF,
				PeakToMean:       iw.Summary.PeakToMean,
				SeqAVF:           make(map[string][]float64),
			}
			for wi, span := range iw.Windows {
				wr.Windows[wi] = server.IntervalWindowInfo{Start: span.Start, End: span.End}
			}
			// Handler glue around each timed call, left to the request's
			// own time: the per-node series maps.
			for wi, r := range iw.Results {
				id := t.tr.begin("core.seqavf_by_node")
				m := r.SeqAVFByNode()
				t.tr.end(id)
				for node, avf := range m {
					series, ok := wr.SeqAVF[node]
					if !ok {
						series = make([]float64, len(iw.Results))
						wr.SeqAVF[node] = series
					}
					series[wi] = avf
				}
			}
			resp.Results[i] = wr
			for wi, in := range ws[i].Inputs {
				lanes = append(lanes, sweep.Workload{Name: fmt.Sprintf("%s#%d", iw.Name, wi), Inputs: in})
			}
		}
		if err := t.encode(resp); err != nil {
			return err
		}
		return t.replay(batch.Plan, lanes)
	})
}

// plan is the handlers' plan fetch: the engine's LRU, then the artifact
// store, then a compile (whose store calls the timedStore records).
func (t *traced) plan(ctx context.Context, res *core.Result) (*sweep.Plan, error) {
	t.lookedUp()
	var p *sweep.Plan
	err := t.tr.timed("sweep.plan", func() error {
		var err error
		p, err = t.eng.PlanContext(ctx, res)
		return err
	})
	return p, err
}

// replay re-runs a request's lanes through the env build and the blocked
// kernel, one DefaultBlockSize block at a time as the engine does, under
// a separate root: it breaks sweep.eval down into core.env and
// sweep.kernel without adding to the request's own time.
func (t *traced) replay(p *sweep.Plan, ws []sweep.Workload) error {
	t.tr.replay = true
	defer func() { t.tr.replay = false }()
	saved := t.tr.stack
	t.tr.stack = nil
	defer func() { t.tr.stack = saved }()
	root := t.tr.begin("replay")
	defer t.tr.end(root)
	a := p.Analyzer
	var m sweep.EnvMatrix
	scratch := make([]float64, p.ScratchLen(sweep.DefaultBlockSize))
	out := make([][]float64, sweep.DefaultBlockSize)
	for w := range out {
		out[w] = make([]float64, p.NumVerts())
	}
	for lo := 0; lo < len(ws); lo += sweep.DefaultBlockSize {
		hi := min(lo+sweep.DefaultBlockSize, len(ws))
		envs := make([]pavf.Env, hi-lo)
		err := t.tr.timed("core.env", func() error {
			for i := range envs {
				env, err := a.CheckedEnv(ws[lo+i].Inputs)
				if err != nil {
					return err
				}
				if err := env.Validate(); err != nil {
					return err
				}
				envs[i] = env
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := m.ResetEnvs(envs); err != nil {
			return err
		}
		err = t.tr.timed("sweep.kernel", func() error {
			return p.EvalBlock(&m, scratch, out[:hi-lo])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// edit mirrors handleEditDesign / Server.EditNetlistContext.
func (t *traced) edit(ctx context.Context, record bool, old *core.Result, d *designInput, e edit) (*core.Result, error) {
	var res *core.Result
	err := t.request(record, "edit", func() error {
		r, n := e.body(d.netlist)
		body := make([]byte, 0, n)
		buf := bytes.NewBuffer(body)
		if _, err := buf.ReadFrom(r); err != nil {
			return err
		}
		var fd *netlist.FlatDesign
		err := t.tr.timed("netlist.parse", func() error {
			nd, err := netlist.Parse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return err
			}
			if err := nd.Validate(); err != nil {
				return err
			}
			fd, err = netlist.Flatten(nd)
			return err
		})
		if err != nil {
			return err
		}
		var g *graph.Graph
		if err := t.tr.timed("graph.build", func() error {
			g, err = graph.Build(fd)
			return err
		}); err != nil {
			return err
		}
		var a *core.Analyzer
		if err := t.tr.timed("core.new_analyzer", func() error {
			opts := core.DefaultOptions()
			opts.Obs = t.reg
			a, err = core.NewAnalyzer(g, opts)
			return err
		}); err != nil {
			return err
		}
		var prior *core.PriorState
		perr := t.tr.timed("core.prior_state", func() error {
			prior, err = old.PriorState()
			return err
		})
		in := neutralInputs(a)
		var inc *core.Incremental
		err = t.tr.timed("core.resolve_incremental", func() error {
			var err error = perr
			if err == nil {
				res, inc, err = a.ResolveIncrementalContext(ctx, in, prior)
			}
			if err != nil {
				// The server falls back to a cold solve; so does the trace.
				if t.tr.on {
					t.counts["core.cold_fallbacks"]++
				}
				res, err = a.SolveContext(ctx, in)
			}
			return err
		})
		if err != nil {
			return err
		}
		if inc != nil && t.tr.on {
			t.counts["core.fubs_active"] += float64(inc.FubsActive)
		}
		p, err := t.plan(ctx, res)
		if err != nil {
			return err
		}
		seq := 0
		for v := 0; v < res.Analyzer.G.NumVerts(); v++ {
			if res.IsSequentialBit(graph.VertexID(v)) {
				seq++
			}
		}
		return t.encode(server.EditResponse{
			DesignInfo:  server.DesignInfo{Name: d.name, Vertices: res.Analyzer.G.NumVerts(), SeqBits: seq, Plan: p.Stats()},
			Incremental: inc,
		})
	})
	return res, err
}

// harden mirrors handleHarden.
func (t *traced) harden(ctx context.Context, record bool, res *core.Result, body []byte) error {
	return t.request(record, "harden", func() error {
		var req *harden.Request
		err := t.tr.timed("server.decode", func() error {
			var err error
			req, err = harden.ParseRequest(body)
			return err
		})
		if err != nil {
			return err
		}
		ws := make([]sweep.Workload, len(req.Workloads))
		names := make([]string, len(req.Workloads))
		err = t.tr.timed("pavfio.parse", func() error {
			for i, rw := range req.Workloads {
				in, err := pavfio.Parse(rw.Name, strings.NewReader(rw.PAVF))
				if err != nil {
					return err
				}
				ws[i] = sweep.Workload{Name: rw.Name, Inputs: in}
				names[i] = rw.Name
			}
			return nil
		})
		if err != nil {
			return err
		}
		a := res.Analyzer
		var env pavf.Env
		if err := t.tr.timed("core.env", func() error {
			env, err = a.CheckedEnv(res.Inputs)
			return err
		}); err != nil {
			return err
		}
		var batch *sweep.Batch
		if err := t.tr.timed("sweep.eval", func() error {
			batch, err = t.eng.SweepContext(ctx, res, ws)
			return err
		}); err != nil {
			return err
		}
		t.lookedUp()
		mean := make([]float64, len(res.AVF))
		for _, r := range batch.Results {
			for v, x := range r.AVF {
				mean[v] += x
			}
		}
		envSum := make([]float64, len(env))
		if err := t.tr.timed("core.env", func() error {
			for _, wl := range ws {
				wenv, err := a.CheckedEnv(wl.Inputs)
				if err != nil {
					return err
				}
				for i, x := range wenv {
					envSum[i] += x
				}
			}
			return nil
		}); err != nil {
			return err
		}
		n := float64(len(ws))
		for v := range mean {
			mean[v] /= n
		}
		for i := range envSum {
			env[i] = envSum[i] / n
		}
		cp := *res
		cp.AVF = mean
		var model *harden.Model
		if err := t.tr.timed("harden.model", func() error {
			model, err = harden.NewModel(&cp, req.Costs)
			return err
		}); err != nil {
			return err
		}
		var plans []*harden.Protection
		if err := t.tr.timed("harden.optimize", func() error {
			plans, err = model.Sweep(req.Budgets, req.Solver)
			return err
		}); err != nil {
			return err
		}
		resp := harden.Response{
			Design:      a.G.Design.Name,
			Workloads:   names,
			SeqBits:     model.SeqBits(),
			Candidates:  len(model.Candidates()),
			BaseChipAVF: model.Base().WeightedSeqAVF,
			Plans:       plans,
		}
		if req.TopTerms > 0 {
			plan, err := t.plan(ctx, res)
			if err != nil {
				return err
			}
			var vec *harden.Vector
			var hit bool
			if err := t.tr.timed("harden.sens", func() error {
				vec, hit, err = harden.CachedTermDerivs(plan, env, t.store)
				return err
			}); err != nil {
				return err
			}
			if t.tr.on {
				t.counts["harden.sens_calls"]++
				if hit {
					t.counts["harden.sens_hits"]++
				}
			}
			ranked := harden.RankDerivs(a.Universe(), vec.Deriv)
			if len(ranked) > req.TopTerms {
				ranked = ranked[:req.TopTerms]
			}
			resp.TopTerms = ranked
		}
		return t.encode(resp)
	})
}

// layerNames are the per-layer time and allocation metrics, by span name.
var layerNames = []string{
	"server.decode", "server.encode",
	"pavfio.parse", "pavfio.parse_intervals",
	"core.env", "core.summarize", "core.seqavf_by_node",
	"sweep.plan", "sweep.compile", "sweep.eval", "sweep.kernel", "sweep.intervals",
	"netlist.parse", "graph.build", "core.new_analyzer", "core.prior_state", "core.resolve_incremental",
	"artifact.get", "artifact.put",
	"harden.model", "harden.optimize", "harden.sens",
}

// allocLayers are the layers whose self allocation is reported.
var allocLayers = map[string]bool{
	"server.encode": true, "pavfio.parse": true, "core.seqavf_by_node": true, "sweep.eval": true,
}

// layerMetrics turns the spans into per-request per-layer metrics and
// the sum check against the end-to-end median latency p50.
func (t *traced) layerMetrics(p50 float64) map[string]metric {
	children := map[int][]int{}
	for _, s := range t.tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	selfNS := map[string]int64{}
	selfAlloc := map[string]int64{}
	var mainNS int64 // Σ self times of the layer spans in request trees
	for _, s := range t.tr.spans {
		if s.Parent < 0 {
			continue // request roots and replay roots
		}
		d, a := t.tr.self(children, s)
		selfNS[s.Name] += d
		selfAlloc[s.Name] += a
		if !s.Replay {
			mainNS += d
		}
	}
	n := float64(t.requests)
	out := map[string]metric{}
	perLayer := map[string]float64{}
	for _, name := range layerNames {
		v := float64(selfNS[name]) / 1e6 / n
		out[name+"_ms"] = metric{v, "ms"}
		perLayer[name] = v
		if allocLayers[name] {
			out[name+"_alloc_kb"] = metric{float64(selfAlloc[name]) / 1e3 / n, "kB"}
		}
	}
	sum := float64(mainNS) / 1e6 / n
	out["server.other_ms"] = metric{p50 - sum, "ms"}
	out["server.response_kb"] = metric{t.counts["server.response_bytes"] / 1e3 / n, "kB"}
	misses := float64(t.ts.gets)
	out["sweep.plan_cache_hit_ratio"] = metric{ratio(float64(t.lookup)-misses, float64(t.lookup)), "ratio"}
	out["artifact.put_kb"] = metric{t.putBytes / 1e3 / n, "kB"}
	out["core.fubs_active"] = metric{t.counts["core.fubs_active"] / n, "count"}
	out["core.cold_fallbacks"] = metric{t.counts["core.cold_fallbacks"] / n, "count"}
	out["harden.sens_cache_hit_ratio"] = metric{ratio(t.counts["harden.sens_hits"], t.counts["harden.sens_calls"]), "ratio"}
	t.sum = &sumCheck{P50MS: p50, SelfMS: sum, OtherMS: p50 - sum, PerLayer: perLayer, Requests: t.requests}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the run's spans as one JSON document and returns its
// path relative to the working directory.
func (t *traced) writeSpans(o options) (string, error) {
	dir := filepath.Join(filepath.Dir(o.workDir), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	spans := append([]span(nil), t.tr.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enc := json.NewEncoder(io.Writer(f))
	if err := enc.Encode(struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Sum      *sumCheck `json:"sum"`
		Spans    []span    `json:"spans"`
	}{o.workload, o.seed, t.sum, spans}); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p); err == nil {
			p = rel
		}
	}
	return p, nil
}

// lookedUp counts one plan lookup of a traced request.
func (t *traced) lookedUp() {
	if t.tr.on {
		t.lookup++
	}
}
