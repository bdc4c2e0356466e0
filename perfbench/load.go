package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/obs"
	"seqavf/internal/server"
)

// clients is the closed loop's width: one client per core of the 2-vCPU
// host the benchmark was sized on, each on its own keep-alive connection.
const clients = 2

// instance is one in-process seqavfd: the server configured as
// cmd/seqavfd configures it (obs registry on, artifact store in a fresh
// directory, default concurrency, timeout and body cap), served over
// loopback HTTP.
type instance struct {
	reg  *obs.Registry
	hs   *http.Server
	url  string
	dir  string
	done chan error
}

func startServer(dir string) (*instance, error) {
	reg := obs.New()
	reg.SetManifest("tool", "seqavfd")
	store, err := artifact.Open(dir, artifact.Options{MaxBytes: 1 << 30, Obs: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Obs:            reg,
		Artifacts:      store,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   8 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{
		reg:  reg,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan error, 1),
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// stop shuts the server down, waits for its serve loop to exit and
// removes its artifact store.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// client owns one keep-alive connection and a reused response buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response into c.buf.
func (c *client) post(url string, body io.Reader, n int64) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return 0, err
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) get(url string) (int, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// upload registers every design of the workload, in order, and returns
// once each has answered 201.
func upload(c *client, in *instance, designs []*designInput) error {
	for _, d := range designs {
		st, err := c.post(in.url+"/v1/designs?name="+d.name, bytes.NewReader(d.netlist), int64(len(d.netlist)))
		if err != nil {
			return fmt.Errorf("uploading %s: %w", d.name, err)
		}
		if st != http.StatusCreated {
			return fmt.Errorf("uploading %s: status %d: %s", d.name, st, c.buf.Bytes())
		}
	}
	return nil
}

// sample is one response kept for verification after the timed phase.
type sample struct {
	kind   string // "sweep", "intervals", "edit", "harden"
	client int
	seq    int // request index within the client's stream
	status int
	body   []byte
}

// call is one completed request of the measured phase.
type call struct {
	latency time.Duration
	ok      bool // transport succeeded and status was 2xx
}

// traffic drives one client's request stream: next(i) sends the client's
// i-th request and reports its kind, status and error.
type traffic func(c *client, cl, i int) (kind string, status int, err error)

// trafficFor returns the workload's per-client request stream.
func trafficFor(in *inputs, srv *instance) traffic {
	switch in.workload {
	case "sweep-nodes", "sweep-batch":
		return func(c *client, cl, i int) (string, int, error) {
			b := in.bodies[(i*clients+cl)%len(in.bodies)]
			st, err := c.post(srv.url+"/v1/sweep", bytes.NewReader(b), int64(len(b)))
			return "sweep", st, err
		}
	case "intervals-nodes":
		return func(c *client, cl, i int) (string, int, error) {
			b := in.bodies[(i*clients+cl)%len(in.bodies)]
			st, err := c.post(srv.url+"/v1/sweep/intervals", bytes.NewReader(b), int64(len(b)))
			return "intervals", st, err
		}
	default: // eco-mixed: even requests edit, odd ones harden
		return func(c *client, cl, i int) (string, int, error) {
			d := in.designs[cl]
			if i%2 == 1 {
				b := in.harden[cl]
				st, err := c.post(srv.url+"/v1/harden", bytes.NewReader(b), int64(len(b)))
				return "harden", st, err
			}
			k := i / 2
			if k >= len(in.edits[cl]) {
				return "edit", 0, fmt.Errorf("client %d ran out of distinct edits after %d", cl, k)
			}
			body, n := in.edits[cl][k].body(d.netlist)
			st, err := c.post(srv.url+"/v1/designs/"+d.name+"/edit", body, n)
			return "edit", st, err
		}
	}
}

// runtimeSnap is the process counters read at the phase boundaries.
type runtimeSnap struct {
	at       time.Time
	cpu      time.Duration // user + sys
	allocs   uint64        // /gc/heap/allocs:bytes
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

var snapMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readSnap() runtimeSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid struct cannot fail
	s := make([]metrics.Sample, len(snapMetrics))
	for i, n := range snapMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// heapSampler polls the live heap while the measured phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// phase is the outcome of the measured closed-loop phase.
type phase struct {
	calls       []call
	samples     []sample
	start, end  runtimeSnap
	peakHeap    uint64
	blockEvals0 int64 // server's sweep.block_evals at the phase start
	errs        []string
}

// closedLoop runs `clients` clients, each sending its next request only
// after the previous one completes: warm untimed requests per client,
// then requests until the deadline. The first keep responses of each
// client's measured stream are kept for verification.
func closedLoop(srv *instance, in *inputs, warm int, dur time.Duration, keep int) *phase {
	next := trafficFor(in, srv)
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient()
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	ph := &phase{}
	var mu sync.Mutex
	seqs := make([]int, clients)
	// Warm-up: the same streams, untimed, so connections are open, the
	// plan cache is hot and the heap has grown to its working size.
	var wg sync.WaitGroup
	for cl := range cs {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for ; seqs[cl] < warm; seqs[cl]++ {
				if _, st, err := next(cs[cl], cl, seqs[cl]); err != nil || st/100 != 2 {
					mu.Lock()
					ph.errs = append(ph.errs, fmt.Sprintf("warm-up client %d: status %d err %v", cl, st, err))
					mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()
	runtime.GC()

	heap := startHeapSampler()
	ph.blockEvals0 = srv.reg.Counter("sweep.block_evals").Load()
	ph.start = readSnap()
	deadline := ph.start.at.Add(dur)
	for cl := range cs {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := cs[cl]
			for n := 0; time.Now().Before(deadline); n++ {
				i := seqs[cl]
				seqs[cl]++
				t0 := time.Now()
				kind, st, err := next(c, cl, i)
				lat := time.Since(t0)
				ok := err == nil && st/100 == 2
				mu.Lock()
				ph.calls = append(ph.calls, call{latency: lat, ok: ok})
				if !ok {
					ph.errs = append(ph.errs, fmt.Sprintf("client %d request %d (%s): status %d err %v: %.200s", cl, i, kind, st, err, c.buf.Bytes()))
				}
				if n < keep {
					ph.samples = append(ph.samples, sample{kind: kind, client: cl, seq: i, status: st, body: bytes.Clone(c.buf.Bytes())})
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	ph.end = readSnap()
	ph.peakHeap = heap.finish()
	return ph
}

// flightUnnamedShare reads /debug/requests and returns the share of
// request wall time, over records that finished inside [from, to], that
// falls outside the named ingest/plan/eval stages.
func flightUnnamedShare(srv *instance, from, to time.Time) (float64, error) {
	c := newClient()
	defer c.close()
	st, err := c.get(srv.url + "/debug/requests")
	if err != nil {
		return 0, err
	}
	if st != http.StatusOK {
		return 0, fmt.Errorf("/debug/requests: status %d", st)
	}
	var recs []obs.RequestRecord
	if err := json.Unmarshal(c.buf.Bytes(), &recs); err != nil {
		return 0, fmt.Errorf("/debug/requests: %w", err)
	}
	var wall, unnamed float64
	for _, r := range recs {
		if r.Time.Before(from) || r.Time.After(to) || r.Endpoint == "/v1/designs" {
			continue
		}
		wall += r.DurationSeconds
		if u := r.DurationSeconds - r.IngestSeconds - r.PlanSeconds - r.EvalSeconds; u > 0 {
			unnamed += u
		}
	}
	if wall == 0 {
		return 0, fmt.Errorf("/debug/requests: no records from the measured phase")
	}
	return unnamed / wall, nil
}

// percentile is the nearest-rank p-th percentile of sorted ds, with the
// number of samples strictly beyond it.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(float64(len(sorted))*p/100+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k], len(sorted) - 1 - k
}

func sortedLatencies(calls []call) []time.Duration {
	ds := make([]time.Duration, 0, len(calls))
	for _, c := range calls {
		ds = append(ds, c.latency)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
