// Gateway routing for POST /v1/harden, the selective-hardening
// optimizer. A harden request with one budget routes like a sweep: to
// the design's rendezvous owner, with failover. A budget sweep (>= 2
// budgets) is embarrassingly parallel across budgets — each plan is an
// independent optimization over the same model — so the gateway splits
// the budget list contiguously across the top-2 candidates for the
// design, runs both halves concurrently, and splices the plan arrays
// back together in request order. Both candidates hold the design
// because design writes replicate to the runner-up (replicateDesign).
// Any sub-request failure falls back to a plain single-replica forward,
// so the fan-out is purely a latency optimization, never a correctness
// hazard.
//
// The gateway deliberately does not import internal/harden: it decodes
// only the two fields it routes by (design, budgets) and treats the
// rest of the envelope — and the replica responses — as opaque JSON.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"seqavf/internal/httpx"
	"seqavf/internal/obs"
)

// hardenFanout splits a budget sweep (>= 2 budgets) across the top-2
// ranked replicas and merges the plan arrays. Returns true when it wrote
// the response; false means the caller should fall back to a single
// forward (the fallback re-ranks, and any replica a sub-request found
// dead has been quarantined to the tail by then). The merged response
// carries the first half's metadata (sens_cache, top_terms, elapsed_ms)
// — both halves answer them identically except for elapsed time.
func (g *Gateway) hardenFanout(ctx context.Context, w http.ResponseWriter, design string, budgets []float64, body []byte) bool {
	sp := obs.SpanFromContext(ctx)
	sp.SetAttr("budgets", len(budgets))
	ranked := g.rank(design)
	if len(budgets) < 2 || len(ranked) < 2 {
		return false
	}
	var envelope map[string]json.RawMessage
	if err := json.Unmarshal(body, &envelope); err != nil {
		return false
	}
	mid := (len(budgets) + 1) / 2
	halves := [2][]float64{budgets[:mid], budgets[mid:]}
	var payloads [2]map[string]json.RawMessage
	var errs [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payloads[i], errs[i] = g.hardenSub(ctx, ranked[i], envelope, halves[i])
		}(i)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		return false
	}
	var plans [2][]json.RawMessage
	for i := range payloads {
		if err := json.Unmarshal(payloads[i]["plans"], &plans[i]); err != nil {
			return false
		}
	}
	all, err := json.Marshal(append(plans[0], plans[1]...))
	if err != nil {
		return false
	}
	merged := payloads[0]
	merged["plans"] = all
	g.reg.Counter("gateway.harden_fanout_total").Inc()
	g.reg.Counter("gateway.route_total").Add(2)
	sp.SetAttr("fanout", true)
	httpx.WriteJSON(w, http.StatusOK, merged)
	return true
}

// hardenSub posts one half of a split budget sweep to a replica: the
// original envelope with only the budgets field rewritten. Any non-200
// answer — including 429 backpressure — is an error here; the caller's
// single-replica fallback gives backpressure its normal path to the
// client.
func (g *Gateway) hardenSub(ctx context.Context, replica string, envelope map[string]json.RawMessage, budgets []float64) (map[string]json.RawMessage, error) {
	sub := make(map[string]json.RawMessage, len(envelope))
	for k, v := range envelope {
		sub[k] = v
	}
	b, err := json.Marshal(budgets)
	if err != nil {
		return nil, err
	}
	sub["budgets"] = b
	payload, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	resp, err := g.do(ctx, http.MethodPost, replica+"/v1/harden", "application/json", payload)
	if err != nil {
		g.reg.Counter("gateway.replica_errors").Inc()
		g.markDown(replica)
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if retryableStatus(resp.StatusCode) {
			g.reg.Counter("gateway.replica_errors").Inc()
			g.markDown(replica)
		}
		return nil, fmt.Errorf("replica %s returned %s", replica, resp.Status)
	}
	g.markUp(replica)
	var out map[string]json.RawMessage
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}
