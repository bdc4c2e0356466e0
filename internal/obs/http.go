package obs

import (
	"encoding/json"
	"net/http"
)

// MetricsHandler serves the registry's JSON snapshot — counters, gauges,
// histograms, span trees, and the run manifest — as one document per GET.
// It is the /metrics.json endpoint of long-running processes (seqavfd);
// batch CLIs keep using WriteFile via the -metrics flag, and Prometheus
// scrapers use PromHandler. Safe on a nil registry, which serves the
// empty snapshot.
//
// The response is materialized from one consistent Snapshot (a single
// registry read pass — see Registry.Snapshot) rather than by reading
// metric families piecemeal while writers are active, and carries an
// explicit charset so proxies do not have to sniff.
func (r *Registry) MetricsHandler() http.Handler {
	return jsonGetHandler(func() any { return r.Snapshot() })
}

// jsonGetHandler serves body() as one indented JSON document per GET
// (headers only on HEAD, 405 with Allow otherwise) — the shape every
// read-only JSON endpoint of this package shares.
func jsonGetHandler(body func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Headers are already out on error; nothing useful left to send.
		_ = enc.Encode(body())
	})
}
