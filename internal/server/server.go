// Package server implements the seqavfd HTTP service: the request/response
// form of the paper's §5.1 equation-reuse flow. Designs are solved
// symbolically once (at startup or on upload) and their closed forms are
// compiled into deduplicated evaluation plans; each sweep request then
// re-evaluates the cached plan of one design against the request's
// workload pAVF tables — no walks, no RTL, just environment rebuilds —
// which is what makes a long-lived scoring service viable at all.
//
// The service is production-shaped rather than a demo handler:
//
//   - a bounded concurrency limiter applies backpressure: when every slot
//     is busy, requests fail fast with 429 and a Retry-After hint instead
//     of queueing without bound;
//   - every sweep runs under a per-request context deadline, and the
//     cancellation is threaded into the sweep engine's worker pool, so an
//     abandoned request stops burning CPU mid-batch;
//   - request bodies are size-capped before they are parsed;
//   - Abort cancels in-flight sweeps when a graceful drain overruns its
//     deadline;
//   - /healthz, /metrics (Prometheus text exposition), /metrics.json
//     (the obs registry snapshot), /debug/requests (the flight
//     recorder), and /debug/pprof make the process observable in place;
//   - every request runs under a trace: an incoming W3C traceparent
//     header is honored (the response echoes the assigned traceparent),
//     and the request's span tree — ingest, plan/artifact, kernel —
//     feeds the flight recorder and, past Config.SlowRequest, the
//     structured slow log.
package server

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// concurrent sweeps, 30s request timeout, 8MB bodies, 1s Retry-After.
type Config struct {
	// Sweep configures the shared evaluation engine (workers per batch,
	// chunking, plan-cache capacity). Its Obs field is overridden by Obs
	// below so engine and server report into one registry.
	Sweep sweep.Options
	// Obs receives service telemetry: request/error/backpressure counters,
	// a sweep latency histogram, in-flight and design-count gauges, plus
	// everything the sweep engine and solver record. nil disables
	// instrumentation (the /metrics endpoint then serves an empty
	// snapshot).
	Obs *obs.Registry
	// MaxConcurrent bounds concurrently evaluated requests (sweeps and
	// design uploads). 0 uses GOMAXPROCS.
	MaxConcurrent int
	// RequestTimeout caps one sweep evaluation. 0 means 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. 0 means 8MB.
	MaxBodyBytes int64
	// RetryAfter is the backoff hint attached to 429 responses. 0 means 1s.
	RetryAfter time.Duration
	// Artifacts, when non-nil, persists solved designs and compiled plans
	// across process restarts: LoadNetlist warm-starts from a stored
	// artifact on a fingerprint match instead of solving, solved uploads
	// are written back, and the sweep engine consults the store behind
	// its in-memory plan cache.
	Artifacts *artifact.Store
	// FlightRecorderSize bounds the /debug/requests ring: the last K
	// request records (trace ID, design, per-stage durations, plan
	// disposition, outcome) kept for after-the-fact latency forensics.
	// 0 means 128.
	FlightRecorderSize int
	// SlowRequest, when > 0, promotes any request slower than the
	// threshold to the slow log: its full span tree is written as one
	// JSON line to SlowLog, so "why was that sweep slow?" is answerable
	// without having traced every request externally.
	SlowRequest time.Duration
	// SlowLog receives slow-request span trees (one JSON object per
	// line). nil uses os.Stderr.
	SlowLog io.Writer
}

// Design is one solved design registered with the server.
type Design struct {
	Name     string
	Result   *core.Result
	Plan     sweep.Stats
	Vertices int
	SeqBits  int
}

// Server serves workload sweeps over solved designs. Create with New,
// register designs with AddResult or LoadNetlist, and mount Handler on an
// http.Server.
type Server struct {
	cfg    Config
	eng    *sweep.Engine
	reg    *obs.Registry
	sem    chan struct{}
	start  time.Time
	flight *obs.FlightRecorder
	slowMu sync.Mutex // serializes SlowLog writes

	// errs and busy count failed and backpressured (429) requests.
	errs, busy *obs.Counter

	mu      sync.RWMutex
	designs map[string]*Design

	stopOnce sync.Once
	stop     chan struct{} // closed by Abort: cancels in-flight sweeps

	// onSlotAcquired is a test hook invoked while holding a concurrency
	// slot, before the engine runs; it lets tests pin requests in flight
	// deterministically.
	onSlotAcquired func()
}

// New returns a Server with no designs registered.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.SlowLog == nil {
		cfg.SlowLog = os.Stderr
	}
	cfg.Sweep.Obs = cfg.Obs
	if cfg.Artifacts != nil {
		// Guarded: assigning a nil *artifact.Store unconditionally would
		// make Sweep.Store a non-nil interface wrapping nil.
		cfg.Sweep.Store = cfg.Artifacts
	}
	// Pre-register the pipeline latency histograms so /metrics exposes
	// every stage's family — with identical fixed bucket layouts across
	// replicas — from the first scrape, not the first request.
	cfg.Obs.FixedHistogram("server.request_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("sweep.plan_compile_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("sweep.block_eval_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets)
	return &Server{
		cfg:     cfg,
		eng:     sweep.New(cfg.Sweep),
		reg:     cfg.Obs,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		errs:    cfg.Obs.Counter("server.errors"),
		busy:    cfg.Obs.Counter("server.rejected_busy"),
		start:   time.Now(),
		flight:  obs.NewFlightRecorder(cfg.FlightRecorderSize),
		designs: make(map[string]*Design),
		stop:    make(chan struct{}),
	}
}

// Engine exposes the shared sweep engine (for tests and stats).
func (s *Server) Engine() *sweep.Engine { return s.eng }

// DuplicateDesignError reports an attempt to register a second design
// under a name that is already taken. Callers registering from multiple
// sources (e.g. repeated -design flags) can unwrap it with errors.As to
// report which sources collided.
type DuplicateDesignError struct {
	Name string
}

func (e *DuplicateDesignError) Error() string {
	return fmt.Sprintf("server: design %q already registered", e.Name)
}

// AddResult registers a solved design under name (the design's own name
// when empty), eagerly compiling its evaluation plan so the first request
// pays no compile latency. Duplicate names are rejected: silently
// replacing a live design would make concurrent requests to one name
// answer from two different circuits.
func (s *Server) AddResult(name string, res *core.Result) (*Design, error) {
	return s.register(name, res, false)
}

// register compiles res's plan and registers it under name, replacing
// a live design there only when replace is set.
func (s *Server) register(name string, res *core.Result, replace bool) (*Design, error) {
	if name == "" {
		name = res.Analyzer.G.Design.Name
	}
	plan, err := s.eng.Plan(res)
	if err != nil {
		return nil, fmt.Errorf("server: compiling plan for %q: %w", name, err)
	}
	d := &Design{
		Name:     name,
		Result:   res,
		Plan:     plan.Stats(),
		Vertices: res.Analyzer.G.NumVerts(),
		SeqBits:  len(res.Analyzer.SeqIndex().Bits),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.designs[name]; dup && !replace {
		return nil, &DuplicateDesignError{Name: name}
	}
	s.designs[name] = d
	s.reg.Gauge("server.designs").Set(float64(len(s.designs)))
	return d, nil
}

// info is the design's GET /v1/designs row.
func (d *Design) info() DesignInfo {
	return DesignInfo{Name: d.Name, Vertices: d.Vertices, SeqBits: d.SeqBits, Plan: d.Plan}
}

// fingerprint renders the design's analyzer fingerprint for the flight
// record.
func (d *Design) fingerprint() string {
	return fmt.Sprintf("%016x", d.Result.Analyzer.Fingerprint())
}

// LoadNetlist parses a textual netlist, solves it symbolically under
// opts, and registers it under name (the netlist's design name when
// empty). The solve runs against a neutral all-0.5 baseline: the closed
// forms — the only thing sweeps reuse — depend on graph structure alone,
// not on the baseline values.
//
// With Config.Artifacts set, the solve is skipped entirely when the
// store holds an artifact for the design's fingerprint (a warm start,
// counted as artifact.warm_start), and a cold solve is persisted back
// (artifact.cold_start) so the next process restart warm-starts.
func (s *Server) LoadNetlist(name string, r io.Reader, opts core.Options) (*Design, error) {
	return s.LoadNetlistContext(context.Background(), name, r, opts)
}

// LoadNetlistContext is LoadNetlist with request-scoped tracing: the
// artifact restore (warm start) or symbolic solve (cold start) nests
// under ctx's current span, and the span gains an "artifact" attribute
// ("warm" or "cold") that the flight recorder surfaces as the upload's
// plan disposition.
func (s *Server) LoadNetlistContext(ctx context.Context, name string, r io.Reader, opts core.Options) (*Design, error) {
	a, err := s.analyzeNetlist(r, opts)
	if err != nil {
		return nil, err
	}
	if st := s.cfg.Artifacts; st != nil {
		res, _, err := st.GetContext(ctx, a)
		if err != nil {
			// A stale or corrupt artifact is never fatal: fall through to
			// the cold solve and regenerate it.
			s.reg.Counter("server.artifact_errors").Inc()
		}
		if res != nil {
			// Uploads and startup loads always solve against the neutral
			// baseline, so a warm start usually skips even the
			// re-evaluation; a store shared with CLI runs may hold other
			// inputs, which are plugged back in.
			if in := neutralInputs(a); !res.Inputs.Equal(in) {
				if err := res.Reevaluate(in); err != nil {
					return nil, fmt.Errorf("server: re-evaluating stored artifact for %q: %w", a.G.Design.Name, err)
				}
			}
			s.reg.Counter("artifact.warm_start").Inc()
			obs.SpanFromContext(ctx).SetAttr("artifact", "warm")
			return s.AddResult(name, res)
		}
	}
	res, err := a.SolveContext(ctx, neutralInputs(a))
	if err != nil {
		return nil, fmt.Errorf("server: solving %q: %w", a.G.Design.Name, err)
	}
	if s.cfg.Artifacts != nil {
		// AddResult compiles the plan through the sweep engine, whose
		// second-level store (wired in New) persists the artifact —
		// result and plan together — so the next restart warm-starts.
		s.reg.Counter("artifact.cold_start").Inc()
		obs.SpanFromContext(ctx).SetAttr("artifact", "cold")
	}
	return s.AddResult(name, res)
}

// analyzeNetlist runs the shared upload prelude: parse, validate,
// flatten, extract the bit graph, and build the analyzer.
func (s *Server) analyzeNetlist(r io.Reader, opts core.Options) (*core.Analyzer, error) {
	d, err := netlist.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("server: parsing netlist: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("server: netlist %q: %w", d.Name, err)
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		return nil, fmt.Errorf("server: flattening %q: %w", d.Name, err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		return nil, fmt.Errorf("server: building graph for %q: %w", d.Name, err)
	}
	opts.Obs = s.reg
	a, err := core.NewAnalyzer(g, opts)
	if err != nil {
		return nil, fmt.Errorf("server: analyzing %q: %w", d.Name, err)
	}
	return a, nil
}

// UnknownDesignError reports an edit against a name with no registered
// design: there is nothing to re-solve incrementally from.
type UnknownDesignError struct {
	Name string
}

func (e *UnknownDesignError) Error() string {
	return fmt.Sprintf("server: design %q not registered", e.Name)
}

// ReplaceResult registers a solved design under name, replacing any
// design already live there. The swap is atomic under the registry lock:
// requests in flight keep sweeping the result they resolved, new
// requests see the replacement. This is the ECO path's registration —
// uploads that must not silently displace a live design use AddResult.
func (s *Server) ReplaceResult(name string, res *core.Result) (*Design, error) {
	return s.register(name, res, true)
}

// EditNetlistContext applies an ECO: it parses the edited netlist,
// re-solves it incrementally from the registered design's converged
// state — walking only the FUBs whose fingerprints the edit moved — and
// atomically replaces the live design. The returned statistics report
// what was reused. A re-solve failure falls back to a cold solve (nil
// statistics) rather than failing the edit: incremental is an
// optimization. The request span gains artifact="incremental" (or
// "cold") so the flight recorder shows the disposition. With
// Config.Artifacts set, the replacement is persisted through the plan
// compile exactly like an upload.
func (s *Server) EditNetlistContext(ctx context.Context, name string, r io.Reader, opts core.Options) (*Design, *core.Incremental, error) {
	old := s.Design(name)
	if old == nil {
		return nil, nil, &UnknownDesignError{Name: name}
	}
	a, err := s.analyzeNetlist(r, opts)
	if err != nil {
		return nil, nil, err
	}
	in := neutralInputs(a)
	var (
		res *core.Result
		st  *core.Incremental
	)
	prior, err := old.Result.PriorState()
	if err == nil {
		res, st, err = a.ResolveIncrementalContext(ctx, in, prior)
	}
	if err != nil {
		// The prior was unusable (e.g. a design rename swapped in an
		// unrelated circuit): solve cold, the edit still lands.
		s.reg.Counter("server.edit_cold_fallbacks").Inc()
		res, err = a.SolveContext(ctx, in)
		if err != nil {
			return nil, nil, fmt.Errorf("server: solving %q: %w", a.G.Design.Name, err)
		}
	}
	disp := "cold"
	if st != nil {
		disp = "incremental"
	}
	obs.SpanFromContext(ctx).SetAttr("artifact", disp)
	d, err := s.ReplaceResult(name, res)
	if err != nil {
		return nil, nil, err
	}
	return d, st, nil
}

// neutralInputs assigns 0.5 to every structure port the design has; the
// symbolic solve only needs a complete environment, not meaningful values.
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

// Design returns the registered design, or nil.
func (s *Server) Design(name string) *Design {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.designs[name]
}

// DesignNames returns the registered design names (unordered).
func (s *Server) DesignNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.designs))
	for n := range s.designs {
		names = append(names, n)
	}
	return names
}

// Abort cancels every in-flight sweep. Call it when a graceful drain
// (http.Server.Shutdown) exceeds its deadline: pending responses fail
// with 503 instead of holding the process open. Idempotent.
func (s *Server) Abort() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// acquire claims a concurrency slot without queueing. It returns false —
// backpressure — when every slot is busy.
func (s *Server) acquire() bool {
	select {
	case s.sem <- struct{}{}:
		s.reg.Gauge("server.in_flight").Set(float64(len(s.sem)))
		if s.onSlotAcquired != nil {
			s.onSlotAcquired()
		}
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	<-s.sem
	s.reg.Gauge("server.in_flight").Set(float64(len(s.sem)))
}

// requestCtx derives the evaluation context for one request: the given
// context (the client's, already carrying the request span), capped by
// the request timeout, cancelled early by Abort.
func (s *Server) requestCtx(base context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(base, s.cfg.RequestTimeout)
	select {
	case <-s.stop:
		// Abort already happened: hand out a context that is cancelled
		// before the sweep starts, not racing a watcher goroutine.
		cancel()
		return ctx, cancel
	default:
	}
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
