// Command seqavfd is the long-running workload-sweep service: it loads
// one or more netlist designs at startup, solves each symbolically once,
// and then serves sweep requests that re-evaluate the cached compiled
// plans against per-request pAVF tables — the paper's §5.1 compile-once /
// serve-many flow behind an HTTP API.
//
// Endpoints (see internal/server):
//
//	GET  /healthz        liveness + design count
//	GET  /metrics        Prometheus text exposition (scrape endpoint)
//	GET  /metrics.json   obs registry snapshot (counters, histograms, spans)
//	GET  /debug/requests flight recorder: last -flight request records
//	GET  /debug/pprof/   live profiles
//	GET  /v1/designs     registered designs
//	POST /v1/designs     upload a netlist (body = netlist text)
//	POST /v1/designs/{name}/edit  incremental (ECO) re-solve of a design
//	POST /v1/sweep       {"design": ..., "workloads": [{"name","pavf"}]}
//	POST /v1/sweep/intervals  time-resolved sweep: multi-window tables -> AVF time series
//	POST /v1/harden      selective-hardening optimizer: budget sweep -> plans
//	GET  /v1/artifacts/{fingerprint}  raw artifact bytes (fleet pull-through)
//
// Every request runs under a trace: an incoming W3C traceparent header
// is honored and echoed, and requests slower than -slow-sweep-ms emit
// their full span tree as one JSON line to stderr.
//
// Saturation returns 429 with Retry-After; SIGINT/SIGTERM drains
// in-flight sweeps for -drain before aborting them.
//
// Usage:
//
//	seqavfd -listen :8091 -design xeon.nl -design tiny.nl
//	seqavfd -listen :8091 -design xeon.nl -max-concurrent 16 -timeout 10s
//	seqavfd -listen :8091 -design xeon.nl -artifacts /var/cache/seqavf
//
// With -artifacts DIR, solved designs and their compiled plans persist
// across restarts in a content-addressed store keyed by the design
// fingerprint: a restarted daemon warm-starts each known design from
// disk instead of solving it again, and designs uploaded at runtime are
// persisted back. The startup log reports warm vs cold counts.
//
// With -peers URL,... the store additionally pulls through the fleet: a
// replica that misses locally fetches the artifact from the peer that
// owns its fingerprint (rendezvous order), verifies the bytes with the
// CRC-checked decoder, and installs them locally — so a replica
// restarted with an empty artifact directory warm-starts from its peers
// instead of re-solving. Run seqavf-gateway in front of the replica set
// to route clients consistently.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/server"
	"seqavf/internal/sweep"
)

func main() {
	listen := flag.String("listen", ":8091", "HTTP listen address")
	var designs []string
	flag.Func("design", "netlist file to load at startup (repeatable)", func(p string) error {
		designs = append(designs, p)
		return nil
	})
	loop := flag.Float64("loop", 0.3, "loop-boundary pAVF for loaded designs")
	pseudo := flag.Float64("pseudo", 0.2, "boundary pseudo-structure pAVF for loaded designs")
	workers := flag.Int("workers", 0, "evaluation workers per sweep (0 = all cores)")
	cache := flag.Int("cache", 0, "compiled-plan LRU capacity (0 = 8)")
	maxConc := flag.Int("max-concurrent", 0, "concurrent sweep requests before 429 (0 = all cores)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request sweep deadline")
	maxBody := flag.Int64("max-body", 8<<20, "request body size cap in bytes")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown drain deadline")
	flight := flag.Int("flight", 0, "flight-recorder capacity: request records kept for /debug/requests (0 = 128)")
	slowMS := flag.Int("slow-sweep-ms", 0, "promote requests slower than this to the slow log (full span tree, one JSON line to stderr; 0 = off)")
	arts := cliutil.ArtifactFlags()
	ob := cliutil.ObsFlags()
	flag.Parse()

	reg := ob.Start("seqavfd")
	store, err := arts.Open(reg)
	if err != nil {
		cliutil.Exit("seqavfd", err)
	}
	srv := server.New(server.Config{
		Sweep:              sweep.Options{Workers: *workers, CacheSize: *cache},
		Obs:                reg,
		MaxConcurrent:      *maxConc,
		RequestTimeout:     *timeout,
		MaxBodyBytes:       *maxBody,
		Artifacts:          store,
		FlightRecorderSize: *flight,
		SlowRequest:        time.Duration(*slowMS) * time.Millisecond,
	})

	opts := core.DefaultOptions()
	opts.LoopPAVF = *loop
	opts.PseudoPAVF = *pseudo
	seen := make(map[string]string) // design name -> netlist path
	for _, path := range designs {
		f, err := os.Open(path)
		if err != nil {
			cliutil.Exit("seqavfd", err)
		}
		d, err := srv.LoadNetlist("", f, opts)
		f.Close()
		if err != nil {
			var dup *server.DuplicateDesignError
			if errors.As(err, &dup) {
				// Two -design flags resolved to one name: refuse to start
				// rather than let requests to that name race for one slot.
				cliutil.Exit("seqavfd", fmt.Errorf(
					"duplicate design name %q: loaded from both %s and %s",
					dup.Name, seen[dup.Name], path))
			}
			cliutil.Exit("seqavfd", fmt.Errorf("%s: %w", path, err))
		}
		seen[d.Name] = path
		fmt.Fprintf(os.Stderr, "seqavfd: loaded %q (%d vertices, %d unique subterm sets)\n",
			d.Name, d.Vertices, d.Plan.UniqueSets)
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "seqavfd: artifact store %s: %d design(s) warm-started, %d solved cold (%d artifacts on disk, %d bytes)\n",
			store.Dir(),
			reg.Counter("artifact.warm_start").Load(),
			reg.Counter("artifact.cold_start").Load(),
			store.Len(), store.SizeBytes())
	}

	hs := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Fprintf(os.Stderr, "seqavfd: serving %d design(s) on %s\n", len(srv.DesignNames()), *listen)
	// A drain that overruns its deadline aborts the sweeps still running
	// so their worker pools stop.
	err = cliutil.Serve("seqavfd", hs, *drain, srv.Abort)
	if ferr := ob.Finish(); err == nil {
		err = ferr
	}
	if ob.Trace {
		reg.WritePhaseSummary(os.Stderr)
	}
	cliutil.Exit("seqavfd", err)
}
