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
		// Term sensitivities consult the artifact store's .sens cache when
		// one is configured (guarded: a nil *artifact.Store would make a
		// non-nil interface).
		var st harden.SensStore
		if s.cfg.Artifacts != nil {
			st = s.cfg.Artifacts
		}
		resp, err := harden.Run(ctx, s.eng, d.Result, req, ws, st, s.reg)
		if err != nil {
			return nil, nil, err
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		return d, resp, nil
	}
	return &call{design: req.Design, workloads: len(ws), validate: validate, run: run}, nil
}
