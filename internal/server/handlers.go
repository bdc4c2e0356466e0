package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/httpx"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// SweepRequest is the body of POST /v1/sweep: one registered design plus
// one pAVF table per workload, in the same text format the CLIs exchange
// (see pavfio.Parse). Nodes additionally returns per-sequential-node
// seqAVFs for every workload.
type SweepRequest struct {
	Design    string          `json:"design"`
	Workloads []SweepWorkload `json:"workloads"`
	Nodes     bool            `json:"nodes,omitempty"`
}

// SweepWorkload names one workload and carries its measured pAVF table.
type SweepWorkload struct {
	Name string `json:"name"`
	PAVF string `json:"pavf"`
}

// SweepResponse is the body of a POST /v1/sweep answer and of
// cmd/sweeprun's report: plan statistics plus per-workload design
// summaries, index-aligned with the request. It is the wire schema
// clients decode; WriteSweepResponse writes its bytes.
type SweepResponse struct {
	Design    string           `json:"design"`
	Workloads int              `json:"workloads"`
	Plan      sweep.Stats      `json:"plan"`
	ElapsedMS float64          `json:"eval_elapsed_ms"`
	PerSec    float64          `json:"workloads_per_sec"`
	Results   []WorkloadResult `json:"results"`
}

// WorkloadResult is one workload's scores.
type WorkloadResult struct {
	Name    string             `json:"name"`
	Summary core.Summary       `json:"summary"`
	SeqAVF  map[string]float64 `json:"seqavf,omitempty"`
}

// DesignInfo describes one registered design on GET /v1/designs.
type DesignInfo struct {
	Name     string      `json:"name"`
	Vertices int         `json:"vertices"`
	SeqBits  int         `json:"seq_bits"`
	Plan     sweep.Stats `json:"plan"`
}

// EditResponse describes an applied ECO on POST /v1/designs/{name}/edit:
// the replacement design plus what the incremental re-solve reused.
// Incremental is null when the re-solve fell back to a cold solve.
type EditResponse struct {
	DesignInfo
	Incremental *core.Incremental `json:"incremental"`
}

// Handler returns the service mux:
//
//	GET  /healthz        — liveness + design count
//	GET  /metrics        — Prometheus text exposition (scrape me)
//	GET  /metrics.json   — obs registry JSON snapshot (spans, manifest)
//	GET  /debug/requests — flight recorder: last K request records
//	GET  /debug/pprof/   — net/http/pprof profiles
//	GET  /v1/designs     — registered designs and plan shapes
//	POST /v1/designs     — upload a textual netlist; solve + register it
//	POST /v1/designs/{name}/edit — ECO: incremental re-solve + atomic replace
//	POST /v1/sweep       — evaluate workload pAVF tables through one design
//	POST /v1/sweep/intervals — time-resolved sweep: multi-window tables → AVF time series
//	POST /v1/harden      — selective-hardening optimizer: budget sweep → protection plans
//	GET  /v1/artifacts/{fingerprint} — raw .sart bytes (fleet pull-through)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.PromHandler())
	mux.Handle("GET /metrics.json", s.reg.MetricsHandler())
	mux.Handle("GET /debug/requests", s.flight.Handler())
	mux.HandleFunc("GET /v1/designs", s.handleListDesigns)
	for _, rt := range []route{
		{endpoint: "/v1/designs", status: http.StatusCreated, work: "design upload", creates: true,
			requests: s.reg.Counter("server.upload_requests"), decode: s.decodeUpload},
		{endpoint: "/v1/designs/{name}/edit", work: "design edit",
			requests: s.reg.Counter("server.edit_requests"), decode: s.decodeEdit},
		{endpoint: "/v1/sweep", work: "sweep", requests: s.reg.Counter("server.sweep_requests"),
			ok: s.reg.Counter("server.sweep_ok"), decode: s.decodeSweep},
		{endpoint: "/v1/sweep/intervals", work: "interval sweep", requests: s.reg.Counter("sweep.interval_requests"),
			ok: s.reg.Counter("server.interval_sweep_ok"), decode: s.decodeIntervals},
		{endpoint: "/v1/harden", work: "harden sweep", requests: s.reg.Counter("harden.requests"),
			ok: s.reg.Counter("harden.ok"), decode: s.decodeHarden},
	} {
		mux.HandleFunc("POST "+rt.endpoint, s.serve(rt))
	}
	mux.HandleFunc("GET /v1/artifacts/{fingerprint}", s.handleGetArtifact)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// finishRequest closes the request span, observes the request latency,
// derives the flight record's per-stage durations from the span's
// children, records it, and — when the request overran the slow
// threshold — promotes the full span tree to the structured slow log.
func (s *Server) finishRequest(sp *obs.Span, start time.Time, rec obs.RequestRecord) {
	sp.SetAttr("status", rec.Status)
	sp.End()
	elapsed := time.Since(start)
	s.reg.FixedHistogram("server.request_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	rec.Time = time.Now()
	rec.DurationSeconds = elapsed.Seconds()
	if tid := sp.TraceID(); !tid.IsZero() {
		rec.TraceID = tid.String()
	}
	for _, c := range sp.Children() {
		d := c.Duration().Seconds()
		switch c.Name() {
		case "ingest":
			rec.IngestSeconds += d
		case "sweep.plan":
			rec.PlanSeconds += d
			if src, ok := c.Attr("source").(string); ok {
				rec.PlanSource = src
			}
		case "sweep.eval":
			rec.EvalSeconds += d
		case "encode":
			rec.EncodeSeconds += d
		case "solve", "artifact.restore":
			// Upload solves and restores count as the plan stage: they
			// are the "how do I get evaluable closed forms" phase.
			rec.PlanSeconds += d
		}
	}
	if rec.PlanSource == "" {
		if disp, ok := sp.Attr("artifact").(string); ok {
			rec.PlanSource = disp
		}
	}
	s.flight.Record(rec)
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		s.logSlowRequest(sp, rec)
	}
}

// logSlowRequest writes one JSON line: the flight record plus the full
// span tree of the offending request — enough to see which stage ate
// the budget without re-running anything.
func (s *Server) logSlowRequest(sp *obs.Span, rec obs.RequestRecord) {
	s.reg.Counter("server.slow_requests").Inc()
	line, err := json.Marshal(struct {
		SlowRequest obs.RequestRecord `json:"slow_request"`
		Spans       obs.SpanSnapshot  `json:"spans"`
	}{rec, sp.Snapshot()})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	fmt.Fprintf(s.cfg.SlowLog, "%s\n", line)
	s.slowMu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.designs)
	s.mu.RUnlock()
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"designs":   n,
		"in_flight": len(s.sem),
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleListDesigns(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]DesignInfo, 0, len(s.designs))
	for _, d := range s.designs {
		infos = append(infos, d.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	httpx.WriteJSON(w, http.StatusOK, infos)
}

// handleGetArtifact serves raw .sart bytes by fingerprint — the fleet's
// pull-through source. Peers verify what they fetch with the CRC-checked
// decoder, so this endpoint ships bytes as-is; it never decodes. A node
// without an artifact store (or without the artifact) answers 404 and
// the fetching peer moves down its rendezvous list.
func (s *Server) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.artifact_requests").Inc()
	st := s.cfg.Artifacts
	if st == nil {
		httpx.WriteError(w, s.errs, http.StatusNotFound, errors.New("artifact store not configured"))
		return
	}
	key := r.PathValue("fingerprint")
	if len(key) != 16 {
		httpx.WriteError(w, s.errs, http.StatusBadRequest, errors.New("fingerprint must be 16 hex digits"))
		return
	}
	fp, err := strconv.ParseUint(key, 16, 64)
	if err != nil || strings.ContainsAny(key, "ABCDEF+-") {
		httpx.WriteError(w, s.errs, http.StatusBadRequest, errors.New("fingerprint must be 16 lowercase hex digits"))
		return
	}
	data, err := st.Raw(fp)
	if errors.Is(err, fs.ErrNotExist) {
		httpx.WriteError(w, s.errs, http.StatusNotFound, fmt.Errorf("no artifact for fingerprint %s", key))
		return
	}
	if err != nil {
		httpx.WriteError(w, s.errs, http.StatusInternalServerError, fmt.Errorf("reading artifact: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// decodeUpload reads a textual netlist; the solve and registration run
// once admitted, under the design's own name or the ?name= override.
func (s *Server) decodeUpload(r *http.Request, body io.Reader) (*call, error) {
	nl, err := httpx.ReadBody(body)
	if err != nil {
		return nil, err
	}
	name := r.URL.Query().Get("name")
	return &call{run: func(ctx context.Context, _ *Design) (*Design, any, error) {
		d, err := s.LoadNetlistContext(ctx, name, bytes.NewReader(nl), core.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		return d, d.info(), nil
	}}, nil
}

// decodeEdit reads the full edited netlist of an ECO. Once admitted,
// the re-solve is seeded from the live design's converged per-FUB state
// and the registration is swapped atomically; the response reports how
// much of the prior solve survived the edit.
func (s *Server) decodeEdit(r *http.Request, body io.Reader) (*call, error) {
	nl, err := httpx.ReadBody(body)
	if err != nil {
		return nil, err
	}
	return &call{design: r.PathValue("name"), run: func(ctx context.Context, d *Design) (*Design, any, error) {
		nd, st, err := s.EditNetlistContext(ctx, d.Name, bytes.NewReader(nl), core.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		return nd, EditResponse{DesignInfo: nd.info(), Incremental: st}, nil
	}}, nil
}

// decodeStrict decodes one JSON envelope, refusing unknown fields.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// workloadName names the i-th workload of a request that left it blank.
func workloadName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("workload[%d]", i)
	}
	return name
}

// decodeSweep decodes a POST /v1/sweep envelope. Validation runs every
// pAVF table through the hardened parser — the ingestion choke-point
// where a NaN, an out-of-range value, or a duplicate record fails the
// request before anything reaches the long-lived engine.
func (s *Server) decodeSweep(_ *http.Request, body io.Reader) (*call, error) {
	var req SweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	ws := make([]sweep.Workload, len(req.Workloads))
	validate := func() error {
		if len(ws) == 0 {
			return httpx.Errorf(http.StatusBadRequest, "no workloads in request")
		}
		for i, rw := range req.Workloads {
			name := workloadName(rw.Name, i)
			in, err := pavfio.Parse(name, strings.NewReader(rw.PAVF))
			if err != nil {
				return fmt.Errorf("workload %q: %v", name, err)
			}
			ws[i] = sweep.Workload{Name: name, Inputs: in}
		}
		return nil
	}
	run := func(ctx context.Context, d *Design) (*Design, any, error) {
		batch, err := s.eng.SummarizeContext(ctx, d.Result, ws, req.Nodes)
		if err != nil {
			return nil, nil, err
		}
		reply := sweepReply{design: d.Name, batch: batch}
		if req.Nodes {
			reply.keys = d.nodeKeys()
		}
		return d, reply, nil
	}
	return &call{design: req.Design, workloads: len(ws), validate: validate, run: run}, nil
}
