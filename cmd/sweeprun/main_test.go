package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/stats"
)

// TestSweeprunMatchesService: for the same design and tables, sweeprun
// reports the POST /v1/sweep body, and sweeprun -windows the POST
// /v1/sweep/intervals body, byte for byte once the timing lines are
// removed — with -nodes (nodes: true) and without. The CLI runs with
// -pseudo 1, the service's solve options.
func TestSweeprunMatchesService(t *testing.T) {
	dir := t.TempDir()
	cfg := design.DefaultConfig(7)
	cfg.NumFubs = 4
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	nlPath := filepath.Join(dir, "design.nl")
	if err := os.WriteFile(nlPath, nl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(gen.Design)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.New(5)
	inputs := func() *core.Inputs {
		in := core.NewInputs()
		for _, sp := range a.ReadPortTerms() {
			in.ReadPorts[sp] = rng.Float64()
		}
		for _, sp := range a.WritePortTerms() {
			in.WritePorts[sp] = rng.Float64()
		}
		return in
	}
	write := func(name string, emit func(*strings.Builder) error) string {
		t.Helper()
		var sb strings.Builder
		if err := emit(&sb); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	sweepReq := server.SweepRequest{Design: gen.Design.Name, Nodes: true}
	ivReq := server.IntervalSweepRequest{Design: gen.Design.Name, Nodes: true}
	for _, name := range []string{"w0", "w1", "w2"} {
		in := inputs()
		text := write(name+".pavf", func(sb *strings.Builder) error { _, err := pavfio.Write(sb, in); return err })
		sweepReq.Workloads = append(sweepReq.Workloads, server.SweepWorkload{Name: name, PAVF: text})

		tab := &pavfio.IntervalTable{}
		for i := 0; i < 3; i++ {
			tab.Windows = append(tab.Windows, pavfio.IntervalWindow{
				Index: i, Start: uint64(100 * i), End: uint64(100*i + 60 + 10*i), Inputs: inputs(),
			})
		}
		text = write(name+".ipavf", func(sb *strings.Builder) error { _, err := pavfio.WriteIntervals(sb, tab); return err })
		ivReq.Workloads = append(ivReq.Workloads, server.IntervalSweepWorkload{Name: name, Table: text})
	}

	ts := httptest.NewServer(server.New(server.Config{Obs: obs.New()}).Handler())
	defer ts.Close()
	post := func(path string, v any) []byte {
		t.Helper()
		body, ok := v.([]byte)
		if !ok {
			var err error
			if body, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, out.Bytes())
		}
		return out.Bytes()
	}
	post("/v1/designs", nl.Bytes())

	plainSweep, plainIv := sweepReq, ivReq
	plainSweep.Nodes, plainIv.Nodes = false, false
	for _, tc := range []struct {
		name, glob, path string
		windows, nodes   bool
		req              any
	}{
		{"sweep", "*.pavf", "/v1/sweep", false, true, sweepReq},
		{"intervals", "*.ipavf", "/v1/sweep/intervals", true, true, ivReq},
		{"sweep-plain", "*.pavf", "/v1/sweep", false, false, plainSweep},
		{"intervals-plain", "*.ipavf", "/v1/sweep/intervals", true, false, plainIv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := post(tc.path, tc.req)
			out := filepath.Join(dir, tc.name+".json")
			if err := run(obs.New(), &cliutil.Artifacts{}, nlPath, dir, tc.glob, 1, 0, 0.3, 1.0, tc.nodes, tc.windows, out); err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := untimed(t, got), untimed(t, want); !reflect.DeepEqual(g, w) {
				t.Errorf("sweeprun report differs from POST %s:\ncli:     %s\nservice: %s", tc.path, got, want)
			}
			if g, w := timing.ReplaceAll(got, nil), timing.ReplaceAll(want, nil); !bytes.Equal(g, w) {
				t.Errorf("sweeprun report bytes differ from POST %s, timing aside:\ncli:     %s\nservice: %s", tc.path, g, w)
			}
			if bytes.Contains(got, []byte(`"seqavf"`)) != tc.nodes {
				t.Errorf("sweeprun report with nodes=%v: per-node seqavf present %v: %s", tc.nodes, !tc.nodes, got)
			}
		})
	}
}

// timing matches the wall-clock lines of an indented report.
var timing = regexp.MustCompile(`(?m)^  "(eval_elapsed_ms|workloads_per_sec)": [^\n]*\n`)

// untimed decodes a JSON report and drops its wall-clock fields.
func untimed(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if _, ok := m["eval_elapsed_ms"]; !ok {
		t.Fatalf("report has no eval_elapsed_ms: %s", data)
	}
	delete(m, "eval_elapsed_ms")
	delete(m, "workloads_per_sec")
	return m
}
