package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"seqavf/internal/design"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
)

// TestPipelineContract pins the request pipeline's shared behaviour on
// every POST endpoint: 413 past the body cap, 400 on an unreadable body
// or a malformed envelope, 404 on an unknown design, 429 with
// Retry-After and server.rejected_busy when every slot is held, the
// traceparent echoed, and exactly one flight record per request carrying
// the endpoint and the status. Every slot is held throughout, so each
// rejection coming back with its own code (not 429) also proves the one
// admission rule: a request takes a slot only after its body was read
// and validated.
func TestPipelineContract(t *testing.T) {
	const limit = 1 << 20
	s, reg, results := newTestServer(t, Config{MaxConcurrent: 2, MaxBodyBytes: limit})
	h := s.Handler()

	cfg := design.DefaultConfig(5)
	cfg.NumFubs = 2
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	// Valid JSON up to the cap, so the streaming decoders trip on the
	// cap rather than on a syntax error.
	overCap := `{"design":"alpha","workloads":[{"name":"w","pavf":"` + strings.Repeat("#", 2*limit) + `"}]}`

	type probe struct {
		what   string
		path   string
		body   io.Reader
		status int
	}
	endpoints := []struct {
		endpoint string // flight-record label
		path     string
		valid    []byte
		probes   []probe // endpoint-specific rejections
	}{
		{"/v1/sweep", "/v1/sweep", sweepBody(t, "alpha", results["alpha"], 1, 600), []probe{
			{"malformed envelope", "/v1/sweep", strings.NewReader("{"), http.StatusBadRequest},
			{"unknown design", "/v1/sweep", strings.NewReader(`{"design":"nope","workloads":[{"name":"w","pavf":"R IQ.rd 0.5\n"}]}`), http.StatusNotFound},
		}},
		{"/v1/sweep/intervals", "/v1/sweep/intervals", intervalBody(t, "alpha", results["alpha"], 1, 2, 610, false), []probe{
			{"malformed envelope", "/v1/sweep/intervals", strings.NewReader(`{"design":"alpha","frobnicate":1}`), http.StatusBadRequest},
			{"unknown design", "/v1/sweep/intervals", strings.NewReader(`{"design":"nope","workloads":[]}`), http.StatusNotFound},
		}},
		{"/v1/harden", "/v1/harden", []byte(`{"design":"alpha","budgets":[5]}`), []probe{
			{"malformed envelope", "/v1/harden", strings.NewReader(`{"design":"alpha","budgets":[]}`), http.StatusBadRequest},
			{"unknown design", "/v1/harden", strings.NewReader(`{"design":"nope","budgets":[5]}`), http.StatusNotFound},
		}},
		{"/v1/designs", "/v1/designs", nl.Bytes(), nil},
		{"/v1/designs/{name}/edit", "/v1/designs/alpha/edit", nl.Bytes(), []probe{
			{"unknown design", "/v1/designs/nope/edit", bytes.NewReader(nl.Bytes()), http.StatusNotFound},
		}},
	}

	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, ep := range endpoints {
		probes := append([]probe{
			{"over the body cap", ep.path, strings.NewReader(overCap), http.StatusRequestEntityTooLarge},
			{"unreadable body", ep.path, iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
			{"valid while every slot is held", ep.path, bytes.NewReader(ep.valid), http.StatusTooManyRequests},
		}, ep.probes...)
		for _, p := range probes {
			t.Run(strings.TrimPrefix(ep.endpoint, "/")+"/"+p.what, func(t *testing.T) {
				records := s.flight.Len()
				busy := reg.Counter("server.rejected_busy").Load()
				req := httptest.NewRequest(http.MethodPost, p.path, p.body)
				req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)

				if rr.Code != p.status {
					t.Fatalf("status %d, want %d: %s", rr.Code, p.status, rr.Body)
				}
				var e map[string]string
				if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] == "" {
					t.Fatalf("body is not {\"error\": ...}: %s", rr.Body)
				}
				if tid, _, ok := obs.ParseTraceparent(rr.Header().Get("traceparent")); !ok || tid.String() != traceID {
					t.Fatalf("traceparent %q does not continue trace %s", rr.Header().Get("traceparent"), traceID)
				}
				wantBusy := busy
				if p.status == http.StatusTooManyRequests {
					wantBusy++
					if ra := rr.Header().Get("Retry-After"); ra != "1" {
						t.Fatalf("Retry-After = %q, want \"1\"", ra)
					}
				}
				if got := reg.Counter("server.rejected_busy").Load(); got != wantBusy {
					t.Fatalf("server.rejected_busy = %d, want %d", got, wantBusy)
				}
				if got := s.flight.Len(); got != records+1 {
					t.Fatalf("request left %d flight records, want 1", got-records)
				}
				last := s.flight.Snapshot()[0] // newest first
				if last.Endpoint != ep.endpoint || last.Status != p.status || last.TraceID != traceID {
					t.Fatalf("flight record = %s %d trace %s, want %s %d trace %s",
						last.Endpoint, last.Status, last.TraceID, ep.endpoint, p.status, traceID)
				}
			})
		}
	}
}
