// Command perfbench is the request-level benchmark of seqavfd. It drives
// an in-process internal/server over loopback HTTP with a closed loop of
// two clients, checks sampled responses against an independent oracle,
// and, with --trace 1, times every layer of the request path from
// outside in a separate single-goroutine run. See README.md for the
// workloads, the metrics and the layers each one loads.
//
//	bash perfbench/run.sh --workload sweep-nodes --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads lists the benchmark's traffic mixes and, for each, the
// latency percentile latency_tail_ms reports. Each percentile is the
// highest that leaves at least ten samples beyond it at the throughput
// measured when the benchmark was defined (README.md), so the metric
// keeps its meaning across commits.
var workloads = map[string]float64{
	"sweep-nodes":     95,
	"sweep-batch":     90,
	"intervals-nodes": 90,
	"eco-mixed":       99,
}

const (
	setups     = 9 // set-ups per run; setup_s is their median
	keepPerCli = 2 // responses per client kept for verification
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the run's outcome and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "traffic mix: sweep-nodes, sweep-batch, intervals-nodes or eco-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from the traced run")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep-nodes|sweep-batch|intervals-nodes|eco-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	wd, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", "runs"))
	if err != nil {
		fail(err)
	}
	o.workDir = wd
	res, rep, err := run(o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// report is the run's provenance and detail, printed before the result.
type report struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Host           host              `json:"host"`
	InputDigest    string            `json:"input_sha256"`
	TailPercentile float64           `json:"latency_tail_percentile"`
	TailBeyond     int               `json:"latency_tail_samples_beyond"`
	Requests       int               `json:"requests"`
	Setups         []float64         `json:"setup_seconds"`
	Verified       int               `json:"responses_verified"`
	Errors         []string          `json:"errors,omitempty"`
	SpansFile      string            `json:"spans_file,omitempty"`
	Sum            *sumCheck         `json:"trace_sum,omitempty"`
	EndToEnd       map[string]metric `json:"end_to_end"`
}

// run executes one benchmark run: inputs, set-ups, the measured closed
// loop, verification, and (with trace) the traced run.
func run(o options) (*result, *report, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	// Eco-mixed uses one edit per loop; no client completes an edit in
	// under 2 ms, so this pool outlasts any run.
	maxEdits := int(o.seconds*500) + 64
	t0 := time.Now()
	in, err := generate(o.workload, o.seed, maxEdits)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	ver, err := newVerifier(in)
	if err != nil {
		return nil, nil, err
	}
	logf("%s seed %d: inputs generated in %v (sha256 %s)", o.workload, o.seed, time.Since(t0).Round(time.Millisecond), in.digest[:16])

	// Set-up: server.New until every design answered 201, several times.
	var setupTimes []float64
	var srv *instance
	for i := 0; i < setups; i++ {
		dir, err := os.MkdirTemp(o.workDir, "store-")
		if err != nil {
			return nil, nil, err
		}
		c := newClient()
		t := time.Now()
		s, err := startServer(dir)
		if err == nil {
			err = upload(c, s, in.designs)
		}
		el := time.Since(t)
		c.close()
		if err != nil {
			if s != nil {
				_ = s.stop()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, el.Seconds())
		if i < setups-1 {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		} else {
			srv = s
		}
	}
	defer srv.stop()

	warm, keep := 2, keepPerCli
	if o.workload == "eco-mixed" {
		// Keep two [edit, harden] loops per client.
		warm, keep = 10, 2*keepPerCli
	}
	ph := closedLoop(srv, in, warm, dur, keep)
	share, ferr := flightUnnamedShare(srv, ph.start.at, ph.end.at)
	if ferr != nil {
		ph.errs = append(ph.errs, ferr.Error())
	}

	failed := 0
	for _, c := range ph.calls {
		if !c.ok {
			failed++
		}
	}
	// Verification happens after the timed phase; a wrong output counts
	// as a failed request.
	for _, s := range ph.samples {
		if s.status/100 != 2 {
			continue // already counted as failed
		}
		if err := ver.check(s); err != nil {
			failed++
			ph.errs = append(ph.errs, fmt.Sprintf("verification of client %d request %d (%s): %v", s.client, s.seq, s.kind, err))
		}
	}
	n := len(ph.calls)
	if n == 0 {
		return nil, nil, fmt.Errorf("no request completed in the measured phase")
	}
	lat := sortedLatencies(ph.calls)
	p50, _ := percentile(lat, 50)
	pct := workloads[o.workload]
	tail, beyond := percentile(lat, pct)
	elapsed := ph.end.at.Sub(ph.start.at).Seconds()
	e2e := map[string]metric{
		"setup_s":              {median(setupTimes), "s"},
		"requests_per_s":       {float64(n) / elapsed, "1/s"},
		"latency_p50_ms":       {ms(p50), "ms"},
		"latency_tail_ms":      {ms(tail), "ms"},
		"alloc_mb_per_request": {float64(ph.end.allocs-ph.start.allocs) / 1e6 / float64(n), "MB"},
		"peak_heap_mb":         {float64(ph.peakHeap) / 1e6, "MB"},
		"cpu_ms_per_request":   {float64((ph.end.cpu - ph.start.cpu).Microseconds()) / 1e3 / float64(n), "ms"},
	}
	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Host: hostInfo(), InputDigest: in.digest,
		TailPercentile: pct, TailBeyond: beyond,
		Requests: n, Setups: setupTimes, Verified: len(ph.samples),
		EndToEnd: e2e,
	}
	res := &result{Attempted: n, Failed: failed}
	if !o.trace {
		res.Metrics = e2e
	} else {
		tr, err := tracedRun(o, in)
		if err != nil {
			return nil, nil, fmt.Errorf("traced run: %w", err)
		}
		res.Metrics = tr.layerMetrics(ms(p50))
		res.Metrics["server.flight_unnamed_share"] = metric{share, "ratio"}
		res.Metrics["runtime.gc_cpu_share"] = metric{(ph.end.gcCPU - ph.start.gcCPU) / (ph.end.totalCPU - ph.start.totalCPU), "ratio"}
		res.Metrics["runtime.gc_cycles_per_request"] = metric{float64(ph.end.gcCycles-ph.start.gcCycles) / float64(n), "count"}
		res.Metrics["sweep.block_evals"] = metric{float64(srv.reg.Counter("sweep.block_evals").Load()-ph.blockEvals0) / float64(n), "count"}
		res.Metrics["fail_ratio"] = metric{float64(failed) / float64(n), "ratio"}
		rep.Sum = tr.sum
		if rep.SpansFile, err = tr.writeSpans(o); err != nil {
			return nil, nil, err
		}
		ph.errs = append(ph.errs, tr.nestErrs...)
	}
	rep.Errors = ph.errs
	res.Correct = res.Failed == 0 && len(ph.errs) == 0
	for _, e := range ph.errs {
		logf("error: %s", e)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		logf("%-36s %14.4f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
