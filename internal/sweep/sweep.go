package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/obs"
)

// Options configure an Engine. The zero value is usable: all cores, auto
// chunking, an 8-plan cache, no telemetry.
type Options struct {
	// Workers bounds the evaluation goroutines. 0 uses GOMAXPROCS; 1 runs
	// serially. Results are identical either way.
	Workers int
	// ChunkSize is the number of workloads one worker claims at a time
	// (the shard granularity). 0 picks a size that gives each worker ~4
	// claims per batch, amortizing the claim overhead while keeping the
	// tail balanced. The chunk is rounded up to a multiple of BlockSize
	// so claims shard by whole blocks and only the batch tail runs
	// ragged.
	ChunkSize int
	// BlockSize is the kernel's lane width: workloads evaluated together
	// per plan traversal (Plan.EvalBlock). 0 uses DefaultBlockSize (16);
	// 1 or any negative value evaluates one workload per block. Results
	// are bit-identical at every width — the knob trades scratch-matrix
	// footprint against index-traffic amortization.
	BlockSize int
	// CacheSize bounds the compiled-plan LRU (by design fingerprint).
	// 0 means 8.
	CacheSize int
	// Obs receives engine telemetry: compile/eval spans, plan cache
	// hit/miss counters, workload counters, and a workloads/sec gauge.
	// nil disables instrumentation.
	Obs *obs.Registry
	// Store is an optional second-level plan store behind the in-memory
	// LRU (typically an *artifact.Store): a memory miss consults it
	// before compiling, and fresh compiles are persisted back. Store
	// failures never fail a sweep — they are counted and the engine
	// falls through to a fresh compile.
	Store PlanStore
}

// PlanStore is the second-level plan cache contract (satisfied by
// internal/artifact.Store without an import cycle). GetPlan returns
// (nil, nil) on a clean miss; a returned plan must be bit-identical in
// behavior to Compile(res). The context carries request-scoped trace
// state (the store parents its restore span under it), not
// cancellation: restores are short and run to completion.
type PlanStore interface {
	GetPlan(ctx context.Context, res *core.Result) (*Plan, error)
	PutPlan(res *core.Result, p *Plan) error
}

// Engine evaluates batches of workloads through compiled plans. One Engine
// serves any number of designs concurrently; plans are cached LRU by
// design fingerprint.
type Engine struct {
	opts  Options
	cache *planCache
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 8
	}
	return &Engine{opts: opts, cache: newPlanCache(opts.CacheSize)}
}

// Workload pairs a name with its measured pAVF tables.
type Workload struct {
	Name   string
	Inputs *core.Inputs
}

// Batch is the outcome of one sweep: per-workload results (index-aligned
// with the submitted workloads) plus the plan and timing.
type Batch struct {
	Plan *Plan
	// Names and Results are index-aligned with the submitted workloads.
	Names   []string
	Results []*core.Result
	// Elapsed covers evaluation only (compile time is cached and reported
	// on the compile span / counters instead).
	Elapsed time.Duration
}

// WorkloadsPerSec returns the batch evaluation throughput.
func (b *Batch) WorkloadsPerSec() float64 {
	if b.Elapsed <= 0 {
		return 0
	}
	return float64(len(b.Results)) / b.Elapsed.Seconds()
}

// Plan returns the compiled plan for res's design: from the in-memory
// LRU on hit, else from the second-level store (decoded plans enter the
// LRU like compiled ones), else by compiling — and a fresh compile is
// persisted back to the store so the next process starts warm.
func (e *Engine) Plan(res *core.Result) (*Plan, error) {
	return e.PlanContext(context.Background(), res)
}

// PlanContext is Plan with request-scoped tracing: the "sweep.plan"
// span nests under ctx's current span (the server's per-request root),
// its "source" attribute records how the plan was obtained (cache /
// store / compile), and cold compiles feed the
// sweep.plan_compile_seconds latency histogram.
func (e *Engine) PlanContext(ctx context.Context, res *core.Result) (*Plan, error) {
	fp := res.Analyzer.Fingerprint()
	sp := e.opts.Obs.StartSpanContext(ctx, "sweep.plan")
	defer sp.End()
	if p := e.cache.get(fp); p != nil {
		e.opts.Obs.Counter("sweep.plan_cache_hits").Inc()
		sp.SetAttr("source", "cache")
		return p, nil
	}
	e.opts.Obs.Counter("sweep.plan_cache_misses").Inc()
	if e.opts.Store != nil {
		p, err := e.opts.Store.GetPlan(obs.ContextWithSpan(ctx, sp), res)
		switch {
		case err != nil:
			// A corrupt or version-skewed artifact must not fail the
			// sweep: count it and recompile (the Put below overwrites
			// the bad entry).
			e.opts.Obs.Counter("sweep.plan_store_errors").Inc()
		case p != nil:
			e.opts.Obs.Counter("sweep.plan_store_hits").Inc()
			sp.SetAttr("source", "store")
			e.cache.put(p)
			return p, nil
		default:
			e.opts.Obs.Counter("sweep.plan_store_misses").Inc()
		}
	}
	csp := sp.Child("compile")
	start := time.Now()
	p, err := Compile(res)
	if err != nil {
		csp.End()
		return nil, err
	}
	e.opts.Obs.FixedHistogram("sweep.plan_compile_seconds", obs.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	st := p.Stats()
	csp.SetAttr("vertices", st.Vertices)
	csp.SetAttr("unique_sets", st.UniqueSets)
	csp.SetAttr("set_refs", st.SetRefs)
	csp.End()
	sp.SetAttr("source", "compile")
	e.opts.Obs.Counter("sweep.plan_compiles").Inc()
	e.cache.put(p)
	if e.opts.Store != nil {
		if err := e.opts.Store.PutPlan(res, p); err != nil {
			e.opts.Obs.Counter("sweep.plan_store_put_errors").Inc()
		}
	}
	return p, nil
}

// CachedPlans reports the number of plans currently cached.
func (e *Engine) CachedPlans() int { return e.cache.len() }

// Sweep evaluates every workload through res's compiled plan. Workloads
// are sharded into chunks claimed by a bounded worker pool; each worker
// reuses one subterm scratch buffer across its chunk. The first workload
// error aborts the batch.
func (e *Engine) Sweep(res *core.Result, workloads []Workload) (*Batch, error) {
	return e.SweepContext(context.Background(), res, workloads)
}

// SweepContext is Sweep with cancellation: when ctx is cancelled (an
// abandoned HTTP request, a server drain deadline), every worker stops at
// its next chunk claim instead of burning CPU through the rest of the
// batch, and the batch fails with the context's cause. Workloads already
// evaluated are discarded — a cancelled sweep returns no partial batch.
func (e *Engine) SweepContext(ctx context.Context, res *core.Result, workloads []Workload) (*Batch, error) {
	plan, err := e.PlanContext(ctx, res)
	if err != nil {
		return nil, err
	}
	n := len(workloads)
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	block := e.opts.BlockSize
	switch {
	case block == 0:
		block = DefaultBlockSize
	case block < 1:
		block = 1
	}
	chunk := e.opts.ChunkSize
	if chunk <= 0 {
		chunk = (n + workers*4 - 1) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	// Shard by whole blocks: every claim except the batch tail is a
	// multiple of the lane width, so ragged blocks appear at most once
	// per sweep instead of once per claim.
	chunk = (chunk + block - 1) / block * block

	sp := e.opts.Obs.StartSpanContext(ctx, "sweep.eval")
	sp.SetAttr("workloads", n)
	sp.SetAttr("workers", workers)
	sp.SetAttr("chunk", chunk)
	sp.SetAttr("block", block)
	// Resolved once per batch (one registry-map lookup), observed once
	// per kernel invocation — the per-block cost inside the worker loop
	// is two clock reads and one histogram mutex.
	blockHist := e.opts.Obs.FixedHistogram("sweep.block_eval_seconds", obs.LatencyBuckets)
	start := time.Now()

	batch := &Batch{
		Plan:    plan,
		Names:   make([]string, n),
		Results: make([]*core.Result, n),
	}
	for i, w := range workloads {
		batch.Names[i] = w.Name
	}

	done := ctx.Done()
	var next atomic.Int64
	var blocks atomic.Int64
	var firstErr atomic.Value // error
	run := func() {
		// Per-worker scratch, pooled across every claim the worker makes:
		// a NumSets x block matrix plus the worker's own EnvMatrix (its
		// SoA buffer is reused across blocks; the per-lane environments
		// are fresh because Results adopt them).
		var m EnvMatrix
		scratch := make([]float64, plan.ScratchLen(block))
		for {
			select {
			case <-done:
				firstErr.CompareAndSwap(nil, fmt.Errorf("sweep: cancelled: %w", context.Cause(ctx)))
				return
			default:
			}
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n || firstErr.Load() != nil {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for b := lo; b < hi; b += block {
				be := min(b+block, hi)
				bstart := time.Now()
				if err := plan.EvalBlockInto(workloads[b:be], &m, scratch, batch.Results[b:be]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				blockHist.Observe(time.Since(bstart).Seconds())
				blocks.Add(1)
			}
		}
	}
	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	batch.Elapsed = time.Since(start)
	sp.SetAttr("elapsed", batch.Elapsed.String())
	sp.End()
	if err, _ := firstErr.Load().(error); err != nil {
		if ctx.Err() != nil {
			e.opts.Obs.Counter("sweep.cancelled").Inc()
		}
		return nil, err
	}
	e.opts.Obs.Counter("sweep.workloads").Add(int64(n))
	e.opts.Obs.Counter("sweep.batches").Inc()
	e.opts.Obs.Gauge("sweep.workloads_per_sec").Set(batch.WorkloadsPerSec())
	// Kernel telemetry: how many kernel invocations the batch took, and
	// the kernel throughput.
	e.opts.Obs.Counter("sweep.workloads_blocked").Add(int64(n))
	e.opts.Obs.Counter("sweep.block_evals").Add(blocks.Load())
	e.opts.Obs.Gauge("sweep.kernel_workloads_per_sec").Set(batch.WorkloadsPerSec())
	return batch, nil
}
