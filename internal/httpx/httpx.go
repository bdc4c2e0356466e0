// Package httpx is the HTTP plumbing seqavfd (internal/server) and
// seqavf-gateway (internal/fleet) share — traced request spans,
// trace-carrying outgoing requests, JSON replies and error bodies, and
// the capped body read — so the replica and the gateway cannot drift.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"seqavf/internal/obs"
)

// StartSpan opens a request's root span (named name, e.g.
// "server.request") under reg: it adopts an incoming W3C traceparent
// header, so an upstream hop's trace continues through this process,
// echoes the assigned traceparent on the response, and returns the span
// plus a context carrying it for downstream stages. The caller must End
// the span.
func StartSpan(reg *obs.Registry, w http.ResponseWriter, r *http.Request, name, endpoint string) (*obs.Span, context.Context) {
	ctx := r.Context()
	if tid, pid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		ctx = obs.ContextWithRemoteParent(ctx, tid, pid)
	}
	sp := reg.StartSpanContext(ctx, name)
	sp.SetAttr("endpoint", endpoint)
	if tid := sp.TraceID(); !tid.IsZero() {
		w.Header().Set("traceparent", obs.FormatTraceparent(tid, sp.SpanID()))
	}
	return sp, obs.ContextWithSpan(ctx, sp)
}

// NewRequest builds an outgoing request that continues ctx's trace: the
// current span rides along as the W3C traceparent header, so the next
// hop's request span joins this one's trace. body may be nil.
func NewRequest(ctx context.Context, method, url, contentType string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if sp := obs.SpanFromContext(ctx); !sp.TraceID().IsZero() {
		req.Header.Set("traceparent", obs.FormatTraceparent(sp.TraceID(), sp.SpanID()))
	}
	return req, nil
}

// WriteJSON encodes v, indented, with status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error is a request failure that carries its HTTP status.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf returns an *Error with the given status.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// WriteError counts a failed request on errs and writes the uniform
// {"error": ...} body. The status is 413 when err comes from a tripped
// body cap, an *Error's own status, and otherwise status. The status
// and message written are returned for the caller's request record.
func WriteError(w http.ResponseWriter, errs *obs.Counter, status int, err error) (int, string) {
	msg := err.Error()
	var tooLarge *http.MaxBytesError
	var he *Error
	switch {
	case errors.As(err, &tooLarge):
		status, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)
	case errors.As(err, &he):
		status = he.Status
	}
	errs.Inc()
	WriteJSON(w, status, map[string]string{"error": msg})
	return status, msg
}

// Body returns r's body capped at limit bytes; reading past the cap
// fails with an error WriteError maps to 413.
func Body(w http.ResponseWriter, r *http.Request, limit int64) io.Reader {
	return http.MaxBytesReader(w, r.Body, limit)
}

// ReadBody buffers a capped body (see Body). A failed read is wrapped
// as "reading body: ...", which WriteError answers with 413 when the cap
// tripped.
func ReadBody(body io.Reader) ([]byte, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return data, nil
}
