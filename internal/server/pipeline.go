package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"seqavf/internal/httpx"
	"seqavf/internal/obs"
)

// route is one POST endpoint's plug-in to the request pipeline (serve).
// A route supplies only what is its own — the envelope decode, the
// table parsing, the engine call and the response — and the pipeline
// owns the rest: request span and traceparent echo, body cap, design
// lookup, the ingest span, admission, the request deadline, error
// mapping, the flight record and the final encode.
type route struct {
	endpoint string       // path, span attribute and flight-record label
	status   int          // success status code; 0 means 200
	work     string       // names the work in timeout and cancel errors
	creates  bool         // registers a new design instead of naming one: no lookup
	requests *obs.Counter // counted on arrival
	ok       *obs.Counter // counted on success; nil counts nothing
	// decode reads the capped body (and the URL) into a call. Its errors
	// are 400s unless typed (httpx.Error) or a tripped body cap (413).
	decode func(r *http.Request, body io.Reader) (*call, error)
}

// call is one decoded request.
type call struct {
	design    string // the registered design the request names
	workloads int    // workload count for the flight record
	// validate runs after the design resolved and before admission —
	// table parsing lives here, so malformed input never holds a slot.
	// Errors are 422s unless typed. nil skips the stage.
	validate func() error
	// run executes the request holding a slot, under the request
	// deadline, against the resolved design (nil when the route
	// creates one). It returns the design the response describes and
	// the response. Errors are 503s when the deadline passed or the
	// request was cancelled, 422s otherwise unless typed.
	run func(ctx context.Context, d *Design) (*Design, any, error)
}

// serve is the request pipeline every POST endpoint runs through:
// decode → validate → admit → execute → encode. There is one admission
// rule: a request takes a concurrency slot only after its body has been
// read and validated, so the slots are only ever held by evaluable work
// and a flood of malformed requests cannot crowd out good ones.
func (s *Server) serve(rt route) http.HandlerFunc {
	if rt.status == 0 {
		rt.status = http.StatusOK
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rt.requests.Inc()
		sp, rctx := httpx.StartSpan(s.reg, w, r, "server.request", rt.endpoint)
		start := time.Now()
		rec := obs.RequestRecord{Endpoint: rt.endpoint, Status: rt.status, Outcome: "ok"}
		defer func() { s.finishRequest(sp, start, rec) }()
		// Every reply write is the request's encode stage.
		encode := func(write func()) {
			esp := sp.Child("encode")
			write()
			esp.End()
		}
		fail := func(status int, err error) {
			encode(func() { rec.Status, rec.Outcome = httpx.WriteError(w, s.errs, status, err) })
		}

		// Ingest stage: everything before admission.
		isp := sp.Child("ingest")
		c, d, status, err := s.ingest(rt, w, r, isp, &rec)
		isp.End()
		if err != nil {
			fail(status, err)
			return
		}

		if !s.acquire() {
			// Backpressure: 429 plus a Retry-After hint, so saturated
			// clients back off instead of queueing server-side.
			s.busy.Inc()
			rec.Status, rec.Outcome = http.StatusTooManyRequests, "busy"
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			encode(func() {
				httpx.WriteJSON(w, http.StatusTooManyRequests, map[string]string{
					"error": "server at concurrency limit, retry later",
				})
			})
			return
		}
		defer s.release()

		ctx, cancel := s.requestCtx(rctx)
		defer cancel()
		out, resp, err := c.run(ctx, d)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fail(http.StatusServiceUnavailable, fmt.Errorf("%s timed out after %v", rt.work, s.cfg.RequestTimeout))
		case errors.Is(err, context.Canceled):
			// Client gone or server aborting a drain: the 503 only
			// reaches a client that is still listening.
			fail(http.StatusServiceUnavailable, fmt.Errorf("%s cancelled: %v", rt.work, err))
		case err != nil:
			fail(http.StatusUnprocessableEntity, err)
		default:
			rec.Design, rec.Fingerprint = out.Name, out.fingerprint()
			rt.ok.Inc()
			encode(func() { writeReply(w, rt.status, resp) })
		}
	}
}

// writeReply writes a success body: a streamedReply writes itself, and
// any other value goes through httpx.WriteJSON. Neither flushes, so
// net/http still frames a small reply with a Content-Length.
func writeReply(w http.ResponseWriter, status int, resp any) {
	r, ok := resp.(streamedReply)
	if !ok {
		httpx.WriteJSON(w, status, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status is out: a failed write can only be cut short, as
	// WriteJSON's can.
	_ = r.writeJSON(w)
}

// ingest decodes the envelope, resolves the named design and validates
// the request against it, filling the flight record as it learns the
// design and workload count. On failure it returns the status the error
// maps to unless typed.
func (s *Server) ingest(rt route, w http.ResponseWriter, r *http.Request, isp *obs.Span, rec *obs.RequestRecord) (*call, *Design, int, error) {
	c, err := rt.decode(r, httpx.Body(w, r, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	rec.Design, rec.Workloads = c.design, c.workloads
	var d *Design
	if !rt.creates {
		if d = s.Design(c.design); d == nil {
			return nil, nil, http.StatusNotFound, fmt.Errorf("unknown design %q (see GET /v1/designs)", c.design)
		}
		rec.Fingerprint = d.fingerprint()
	}
	if c.validate != nil {
		if err := c.validate(); err != nil {
			return nil, nil, http.StatusUnprocessableEntity, err
		}
		isp.SetAttr("workloads", c.workloads)
	}
	return c, d, 0, nil
}
