// Command sweeprun evaluates a directory of per-workload pAVF tables
// against one design in a single batch: the design is solved symbolically
// once, compiled into a deduplicated evaluation plan, and every workload
// is re-evaluated through the plan on a bounded worker pool — the
// compile-once / serve-many workflow of the paper's §5.1.
//
// Output is one JSON document: plan statistics plus, per workload, the
// design summary and (with -nodes) per-sequential-node seqAVFs.
//
// With -windows the matched files are parsed as multi-window interval
// tables instead (see internal/pavfio: "# window <idx> <start> <end>"
// sections), every window of every workload is evaluated as one lane of
// a single blocked batch, and the report carries each workload's
// per-window chip-AVF time series with its summary statistics (peak
// window, peak/mean ratio) — and, with -nodes, the per-sequential-node
// series.
//
// Usage:
//
//	sweeprun -netlist design.nl -pavfdir runs/ -out sweep.json
//	sweeprun -netlist design.nl -pavfdir runs/ -glob 'spec*.pavf' -workers 8 -nodes
//	sweeprun -netlist design.nl -pavfdir runs/ -artifacts ~/.cache/seqavf
//	sweeprun -netlist design.nl -pavfdir runs/ -glob '*.ipavf' -windows -nodes
//
// With -artifacts DIR, the solved equations and compiled plan are
// persisted to a content-addressed store keyed by the design
// fingerprint; reruns on the same design warm-start from disk instead
// of solving and compiling again.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

func main() {
	nl := flag.String("netlist", "", "netlist file (required)")
	dir := flag.String("pavfdir", "", "directory of per-workload pAVF tables (required)")
	glob := flag.String("glob", "*.pavf", "file pattern selecting workload tables in -pavfdir")
	workers := flag.Int("workers", 0, "evaluation workers (0 = all cores)")
	chunk := flag.Int("chunk", 0, "workloads per worker claim (0 = auto)")
	loop := flag.Float64("loop", 0.3, "loop-boundary pAVF")
	pseudo := flag.Float64("pseudo", 0.2, "boundary pseudo-structure pAVF")
	nodes := flag.Bool("nodes", false, "include per-sequential-node seqAVFs for each workload")
	windows := flag.Bool("windows", false, "parse matched tables as multi-window interval tables and report per-window AVF time series")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	arts := cliutil.ArtifactFlags()
	ob := cliutil.ObsFlags()
	flag.Parse()

	if *nl == "" || *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	reg := ob.Start("sweeprun")
	err := run(reg, arts, *nl, *dir, *glob, *workers, *chunk, *loop, *pseudo, *nodes, *windows, *out)
	if ob.Trace {
		reg.WritePhaseSummary(os.Stderr)
	}
	if err == nil {
		err = ob.Finish()
	}
	cliutil.Exit("sweeprun", err)
}

// report is the JSON document sweeprun emits.
type report struct {
	Design    string           `json:"design"`
	Workloads int              `json:"workloads"`
	Plan      sweep.Stats      `json:"plan"`
	Block     int              `json:"block"`
	ElapsedMS float64          `json:"eval_elapsed_ms"`
	PerSec    float64          `json:"workloads_per_sec"`
	Results   []workloadReport `json:"results"`
}

type workloadReport struct {
	Name    string             `json:"name"`
	Summary core.Summary       `json:"summary"`
	SeqAVF  map[string]float64 `json:"seqavf,omitempty"`
}

// intervalReport is the JSON document sweeprun emits with -windows.
type intervalReport struct {
	Design    string                   `json:"design"`
	Workloads int                      `json:"workloads"`
	Windows   int                      `json:"windows_evaluated"`
	Plan      sweep.Stats              `json:"plan"`
	Block     int                      `json:"block"`
	ElapsedMS float64                  `json:"eval_elapsed_ms"`
	Results   []intervalWorkloadReport `json:"results"`
}

// intervalWorkloadReport is one workload's AVF time series: window
// geometry, per-window chip AVF, peak statistics, and (with -nodes) the
// per-sequential-node series, each index-aligned with Windows.
type intervalWorkloadReport struct {
	Name             string               `json:"name"`
	Windows          []windowSpan         `json:"windows"`
	ChipAVF          []float64            `json:"chip_avf"`
	TimeWeightedMean float64              `json:"time_weighted_mean"`
	PeakWindow       int                  `json:"peak_window"`
	PeakChipAVF      float64              `json:"peak_chip_avf"`
	PeakToMean       float64              `json:"peak_to_mean"`
	SeqAVF           map[string][]float64 `json:"seqavf,omitempty"`
}

type windowSpan struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

func run(reg *obs.Registry, arts *cliutil.Artifacts, nlPath, dir, glob string, workers, chunk int, loop, pseudo float64, nodes, windows bool, out string) error {
	reg.SetManifest("netlist", nlPath)
	reg.SetManifest("pavfdir", dir)
	reg.SetManifest("glob", glob)
	reg.SetManifest("workers", workers)
	reg.SetManifest("windows", windows)

	// The whole run is one trace: load, solve/restore, and the sweep all
	// nest under a single root span, so -trace-jsonl output stitches into
	// one tree per invocation.
	root := reg.StartSpan("sweeprun")
	defer root.End()
	ctx := obs.ContextWithSpan(context.Background(), root)

	lsp := root.Child("load")
	f, err := os.Open(nlPath)
	if err != nil {
		return err
	}
	d, err := netlist.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return err
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		return err
	}
	g, err := graph.Build(fd)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.LoopPAVF = loop
	opts.PseudoPAVF = pseudo
	opts.Obs = reg
	a, err := core.NewAnalyzer(g, opts)
	if err != nil {
		return err
	}
	// -windows reads the same directory as interval tables; either way the
	// solve below is primed with the first inputs seen.
	var (
		named []pavfio.NamedInputs
		ivs   []pavfio.NamedIntervals
		first *core.Inputs
	)
	if windows {
		ivs, err = pavfio.ReadIntervalDir(dir, glob)
		if err != nil {
			return err
		}
		first = ivs[0].Table.Windows[0].Inputs
		lsp.SetAttr("workloads", len(ivs))
	} else {
		named, err = pavfio.ReadDir(dir, glob)
		if err != nil {
			return err
		}
		first = named[0].Inputs
		lsp.SetAttr("workloads", len(named))
	}
	lsp.End()

	// Solve once against the first workload; the sweep re-evaluates the
	// resulting closed forms for every workload, including the first.
	// With -artifacts, a previously solved run of the same design skips
	// the solve and restores the compiled plan from disk.
	st, err := arts.Open(reg)
	if err != nil {
		return err
	}
	res, disp, err := cliutil.SolveWithStore(ctx, "sweeprun", st, a, first, reg)
	if err != nil {
		return err
	}
	switch {
	case disp.Warm():
		fmt.Fprintf(os.Stderr, "sweeprun: warm start from artifact store (fingerprint %016x)\n", a.Fingerprint())
	case disp.Kind == "incremental":
		fmt.Fprintf(os.Stderr, "sweeprun: incremental re-solve from prior artifact (%d of %d FUBs reused, %d iterations)\n",
			disp.Incremental.FubsReused, disp.Incremental.FubsTotal, disp.Incremental.Iterations)
	}
	engOpts := sweep.Options{Workers: workers, ChunkSize: chunk, Obs: reg}
	if st != nil {
		engOpts.Store = st
	}
	eng := sweep.New(engOpts)

	if windows {
		return runIntervals(ctx, eng, res, d.Name, ivs, nodes, out)
	}

	ws := make([]sweep.Workload, len(named))
	for i, ni := range named {
		ws[i] = sweep.Workload{Name: ni.Name, Inputs: ni.Inputs}
	}
	batch, err := eng.SweepContext(ctx, res, ws)
	if err != nil {
		return err
	}

	rep := report{
		Design:    d.Name,
		Workloads: len(batch.Results),
		Plan:      batch.Plan.Stats(),
		Block:     sweep.DefaultBlockSize,
		ElapsedMS: float64(batch.Elapsed.Microseconds()) / 1e3,
		PerSec:    batch.WorkloadsPerSec(),
		Results:   make([]workloadReport, len(batch.Results)),
	}
	for i, r := range batch.Results {
		wr := workloadReport{Name: batch.Names[i], Summary: r.Summarize()}
		if nodes {
			wr.SeqAVF = r.SeqAVFByNode()
		}
		rep.Results[i] = wr
	}

	if err := emitReport(out, rep); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "sweeprun: %d workloads, %d unique subterms for %d equations, %.0f workloads/sec -> %s\n",
			rep.Workloads, rep.Plan.UniqueSets, rep.Plan.Vertices, rep.PerSec, out)
	}
	return nil
}

// runIntervals is the -windows path: every window of every workload
// becomes one lane of a single blocked batch through the shared compiled
// plan, and the report carries each workload's per-window time series
// with its summary statistics.
func runIntervals(ctx context.Context, eng *sweep.Engine, res *core.Result, design string, ivs []pavfio.NamedIntervals, nodes bool, out string) error {
	ws := make([]sweep.IntervalWorkload, len(ivs))
	for i, ni := range ivs {
		iw := sweep.IntervalWorkload{Name: ni.Name}
		for _, win := range ni.Table.Windows {
			iw.Windows = append(iw.Windows, sweep.WindowSpan{Start: win.Start, End: win.End})
			iw.Inputs = append(iw.Inputs, win.Inputs)
		}
		ws[i] = iw
	}
	batch, err := eng.SweepIntervalsContext(ctx, res, ws)
	if err != nil {
		return err
	}
	rep := intervalReport{
		Design:    design,
		Workloads: len(batch.Workloads),
		Windows:   batch.WindowsEvaluated,
		Plan:      batch.Plan.Stats(),
		Block:     sweep.DefaultBlockSize,
		ElapsedMS: float64(batch.Elapsed.Microseconds()) / 1e3,
		Results:   make([]intervalWorkloadReport, len(batch.Workloads)),
	}
	for i, iw := range batch.Workloads {
		wr := intervalWorkloadReport{
			Name:             iw.Name,
			Windows:          make([]windowSpan, len(iw.Windows)),
			ChipAVF:          iw.Summary.ChipAVF,
			TimeWeightedMean: iw.Summary.TimeWeightedMean,
			PeakWindow:       iw.Summary.PeakWindow,
			PeakChipAVF:      iw.Summary.PeakChipAVF,
			PeakToMean:       iw.Summary.PeakToMean,
		}
		for wi, span := range iw.Windows {
			wr.Windows[wi] = windowSpan{Start: span.Start, End: span.End}
		}
		if nodes {
			wr.SeqAVF = iw.NodeSeries()
		}
		rep.Results[i] = wr
	}
	if err := emitReport(out, rep); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "sweeprun: %d workloads, %d windows evaluated -> %s\n",
			rep.Workloads, rep.Windows, out)
	}
	return nil
}

// emitReport writes v as indented JSON to path, or to stdout when path
// is empty.
func emitReport(path string, v any) error {
	w := os.Stdout
	if path != "" {
		g, err := os.Create(path)
		if err != nil {
			return err
		}
		defer g.Close()
		w = g
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return bw.Flush()
}
