package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"seqavf/internal/harden"
	"seqavf/internal/httpx"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// decodeHarden decodes POST /v1/harden, the selective-hardening
// optimizer over one registered design. The strict request parser
// rejects NaN/Inf/negative budgets and malformed cost tables with
// field-level errors; validation then runs the workload pAVF tables
// through the same hardened parser /v1/sweep uses.
func (s *Server) decodeHarden(_ *http.Request, body io.Reader) (*call, error) {
	start := time.Now()
	raw, err := httpx.ReadBody(body)
	if err != nil {
		return nil, err
	}
	req, err := harden.ParseRequest(raw)
	if err != nil {
		return nil, err
	}
	ws := make([]sweep.Workload, len(req.Workloads))
	validate := func() error {
		for i, rw := range req.Workloads {
			in, err := pavfio.Parse(rw.Name, strings.NewReader(rw.PAVF))
			if err != nil {
				return fmt.Errorf("workload %q: %v", rw.Name, err)
			}
			ws[i] = sweep.Workload{Name: rw.Name, Inputs: in}
		}
		return nil
	}
	run := func(ctx context.Context, d *Design) (*Design, any, error) {
		resp, err := s.harden(ctx, d, req, ws)
		if err != nil {
			return nil, nil, err
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		return d, resp, nil
	}
	return &call{design: req.Design, workloads: len(ws), validate: validate, run: run}, nil
}

// harden runs the optimizer. With workloads, node gains are computed on
// the mean AVF across them (one blocked sweep); without, on the design's
// solved baseline result. Term sensitivities (top_terms > 0) come from
// the artifact store's .sens cache when one is configured, keyed by
// (fingerprint, env hash).
func (s *Server) harden(ctx context.Context, d *Design, req *harden.Request, ws []sweep.Workload) (*harden.Response, error) {
	// The optimization substrate: the design's solved result, or — with
	// workloads — a shallow copy carrying the mean AVF vector across them
	// (gains are linear in AVF, so the mean-AVF plan minimizes the mean
	// residual chip AVF over the workload set).
	agg := d.Result
	a := d.Result.Analyzer
	var (
		env   pavf.Env
		names []string
	)
	if len(ws) == 0 {
		var err error
		if env, err = a.CheckedEnv(d.Result.Inputs); err != nil {
			return nil, httpx.Errorf(http.StatusInternalServerError, "design env: %v", err)
		}
	} else {
		batch, err := s.eng.SweepContext(ctx, d.Result, ws)
		if err != nil {
			return nil, err
		}
		// Each result's Env is the checked environment its workload was
		// evaluated at, so the mean env needs no rebuild.
		mean := make([]float64, len(d.Result.AVF))
		env = make(pavf.Env, len(batch.Results[0].Env))
		for _, res := range batch.Results {
			for v, x := range res.AVF {
				mean[v] += x
			}
			for t, x := range res.Env {
				env[t] += x
			}
		}
		n := float64(len(ws))
		for v := range mean {
			mean[v] /= n
		}
		for t := range env {
			env[t] /= n
		}
		cp := *d.Result
		cp.AVF = mean
		agg = &cp
		names = batch.Names
	}

	model, err := harden.NewModel(agg, req.Costs)
	if err != nil {
		return nil, err
	}
	osp := obs.SpanFromContext(ctx).Child("harden.optimize")
	plans, err := model.Sweep(req.Budgets, req.Solver)
	osp.SetAttr("budgets", len(req.Budgets))
	osp.End()
	s.reg.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets).Observe(osp.Duration().Seconds())
	if err != nil {
		return nil, err
	}

	resp := &harden.Response{
		Design:      d.Name,
		Workloads:   names,
		SeqBits:     model.SeqBits(),
		Candidates:  len(model.Candidates()),
		BaseChipAVF: model.Base().WeightedSeqAVF,
		Plans:       plans,
	}
	if req.TopTerms > 0 {
		// Term sensitivities are computed at the (mean) environment via
		// the analytical gradient, consulting the .sens cache first. The
		// plan comes from the engine's LRU, so a warm design pays nothing.
		plan, err := s.eng.PlanContext(ctx, d.Result)
		if err != nil {
			return nil, fmt.Errorf("compiling plan: %v", err)
		}
		var st harden.SensStore
		if s.cfg.Artifacts != nil {
			st = s.cfg.Artifacts
		}
		vec, hit, err := harden.CachedTermDerivs(plan, env, st)
		if err != nil {
			return nil, fmt.Errorf("term sensitivities: %v", err)
		}
		if hit {
			s.reg.Counter("harden.sens_cache_hits").Inc()
			resp.SensCache = "hit"
		} else {
			s.reg.Counter("harden.sens_cache_misses").Inc()
			resp.SensCache = "miss"
		}
		ranked := harden.RankDerivs(a.Universe(), vec.Deriv)
		if len(ranked) > req.TopTerms {
			ranked = ranked[:req.TopTerms]
		}
		resp.TopTerms = ranked
	}
	return resp, nil
}
