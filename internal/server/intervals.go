package server

// POST /v1/sweep/intervals — the time-resolved sweep endpoint. The
// request carries one multi-window pAVF table per workload (the pavfio
// interval format); the engine evaluates every window as one lane of a
// single blocked batch and the response returns each workload's
// per-node AVF time series plus the summary statistics (peak window,
// peak/mean ratio) that a whole-run sweep cannot express.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"seqavf/internal/httpx"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// IntervalSweepRequest is the body of POST /v1/sweep/intervals: one
// registered design plus one multi-window interval table per workload
// (see pavfio.ParseIntervals for the text format).
type IntervalSweepRequest struct {
	Design    string                  `json:"design"`
	Workloads []IntervalSweepWorkload `json:"workloads"`
	// Nodes includes each workload's per-sequential-node AVF time
	// series in the response.
	Nodes bool `json:"nodes,omitempty"`
}

// IntervalSweepWorkload names one workload and carries its interval
// table. Name may be empty when the table itself carries a
// "# workload" directive; when both are present they must agree.
type IntervalSweepWorkload struct {
	Name  string `json:"name"`
	Table string `json:"table"`
}

// IntervalSweepResponse reports the time-resolved sweep: plan
// statistics plus per-workload AVF time series, index-aligned with the
// request. It is also cmd/sweeprun's -windows report. It is the wire
// schema clients decode; WriteIntervalSweepResponse writes its bytes.
type IntervalSweepResponse struct {
	Design           string                   `json:"design"`
	Workloads        int                      `json:"workloads"`
	WindowsEvaluated int                      `json:"windows_evaluated"`
	Plan             sweep.Stats              `json:"plan"`
	ElapsedMS        float64                  `json:"eval_elapsed_ms"`
	Results          []IntervalWorkloadResult `json:"results"`
}

// IntervalWindowInfo is one window's half-open cycle span.
type IntervalWindowInfo struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// IntervalWorkloadResult is one workload's AVF time series: the window
// geometry, the per-window chip AVF, its peak statistics, and (with
// nodes: true) the per-sequential-node series, each value index-aligned
// with Windows.
type IntervalWorkloadResult struct {
	Name             string               `json:"name"`
	Windows          []IntervalWindowInfo `json:"windows"`
	ChipAVF          []float64            `json:"chip_avf"`
	TimeWeightedMean float64              `json:"time_weighted_mean"`
	PeakWindow       int                  `json:"peak_window"`
	PeakChipAVF      float64              `json:"peak_chip_avf"`
	PeakToMean       float64              `json:"peak_to_mean"`
	SeqAVF           map[string][]float64 `json:"seqavf,omitempty"`
}

// decodeIntervals decodes a POST /v1/sweep/intervals envelope.
// Validation runs every interval table through the strict multi-window
// parser — malformed geometry or a single out-of-range value fails the
// request before anything reaches the engine.
func (s *Server) decodeIntervals(_ *http.Request, body io.Reader) (*call, error) {
	var req IntervalSweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	ws := make([]sweep.IntervalWorkload, len(req.Workloads))
	validate := func() error {
		if len(ws) == 0 {
			return httpx.Errorf(http.StatusBadRequest, "no workloads in request")
		}
		for i, rw := range req.Workloads {
			name := workloadName(rw.Name, i)
			tab, err := pavfio.ParseIntervals(name, strings.NewReader(rw.Table))
			if err != nil {
				return fmt.Errorf("workload %q: %v", name, err)
			}
			// Name consistency: a table directive must agree with the
			// request's name for the same workload (and supplies the name
			// when the request omits it).
			if tab.Workload != "" {
				if rw.Name != "" && rw.Name != tab.Workload {
					return fmt.Errorf("workload %q: table's '# workload %s' directive disagrees with the request name", rw.Name, tab.Workload)
				}
				name = tab.Workload
			}
			iw := sweep.IntervalWorkload{Name: name}
			for _, win := range tab.Windows {
				iw.Windows = append(iw.Windows, sweep.WindowSpan{Start: win.Start, End: win.End})
				iw.Inputs = append(iw.Inputs, win.Inputs)
			}
			ws[i] = iw
		}
		return nil
	}
	run := func(ctx context.Context, d *Design) (*Design, any, error) {
		batch, err := s.eng.SweepIntervalsContext(ctx, d.Result, ws)
		if err != nil {
			return nil, nil, err
		}
		var keys *nodeKeys
		if req.Nodes {
			keys = d.nodeKeys()
		}
		return d, newIntervalReply(d.Name, batch, keys), nil
	}
	return &call{design: req.Design, workloads: len(ws), validate: validate, run: run}, nil
}
