// Package cliutil factors the boilerplate shared by the seqavf command
// line tools: uniform error exits, the observability flag trio
// (-metrics/-trace/-pprof), pAVF-table I/O, and named-workload loading.
package cliutil

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on the default mux served by -pprof
	"os"

	"seqavf/internal/obs"
)

// Exit prints "tool: err" to stderr and exits 1 when err is non-nil, and
// does nothing otherwise — the shared error-exit tail of every main.
func Exit(tool string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Obs carries the shared observability flags. Register with ObsFlags
// before flag.Parse, then Start after it; call Finish (usually deferred
// via Exit) once the run completes to flush -metrics.
type Obs struct {
	// Metrics is the -metrics destination: a JSON snapshot of all
	// counters, gauges, histograms, phase spans, and the run manifest.
	Metrics string
	// Trace enables live span printing to stderr (-trace).
	Trace bool
	// TraceJSONL is the -trace-jsonl destination: one JSON object per
	// finished span, carrying trace/span/parent IDs, appended to a file.
	TraceJSONL string
	// Pprof is the -pprof listen address for net/http/pprof.
	Pprof string
	// Reg is the registry created by Start.
	Reg *obs.Registry

	jsonl *os.File
}

// ObsFlags registers -metrics, -trace, -trace-jsonl, and -pprof on the
// default FlagSet.
func ObsFlags() *Obs {
	o := &Obs{}
	flag.StringVar(&o.Metrics, "metrics", "", "write a JSON metrics snapshot (counters, phase timings, manifest) to this file")
	flag.BoolVar(&o.Trace, "trace", false, "print phase spans to stderr as they finish")
	flag.StringVar(&o.TraceJSONL, "trace-jsonl", "", "append finished spans as JSON lines (with trace/span IDs) to this file")
	flag.StringVar(&o.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return o
}

// Start creates the run's registry, seeds its manifest with the tool name
// and argv, attaches the -trace/-trace-jsonl sinks, and starts the -pprof
// server. The returned registry is never nil; pass it into the pipelines'
// Obs options.
func (o *Obs) Start(tool string) *obs.Registry {
	o.Reg = obs.New()
	o.Reg.SetManifest("tool", tool)
	o.Reg.SetManifest("argv", os.Args[1:])
	var sinks []obs.Sink
	if o.Trace {
		sinks = append(sinks, obs.NewTextSink(os.Stderr))
	}
	if o.TraceJSONL != "" {
		f, err := os.OpenFile(o.TraceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			// Span export is telemetry, not the run's output: report and
			// continue rather than failing the sweep over a log path.
			fmt.Fprintf(os.Stderr, "%s: -trace-jsonl: %v (spans not exported)\n", tool, err)
		} else {
			o.jsonl = f
			sinks = append(sinks, obs.NewJSONLSink(f))
		}
	}
	if len(sinks) > 0 {
		o.Reg.SetSink(obs.MultiSink(sinks...))
	}
	if o.Pprof != "" {
		go func() {
			if err := http.ListenAndServe(o.Pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", tool, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "%s: pprof at http://%s/debug/pprof/\n", tool, o.Pprof)
	}
	return o.Reg
}

// Finish flushes the -metrics snapshot and closes the -trace-jsonl file
// (a no-op without those flags or before Start).
func (o *Obs) Finish() error {
	if o.jsonl != nil {
		if err := o.jsonl.Close(); err != nil {
			return fmt.Errorf("closing -trace-jsonl: %w", err)
		}
		o.jsonl = nil
	}
	if o.Reg == nil || o.Metrics == "" {
		return nil
	}
	if err := o.Reg.WriteFile(o.Metrics); err != nil {
		return fmt.Errorf("writing -metrics: %w", err)
	}
	return nil
}
