package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/stats"
)

// TestHardentoolMatchesService: for the same design and tables,
// hardentool's JSON report is the POST /v1/harden body, timing aside.
// The CLI runs with -pseudo 1, the service's solve options.
func TestHardentoolMatchesService(t *testing.T) {
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
	req := harden.Request{Design: gen.Design.Name, Budgets: []float64{8, 32, 1e6}, TopTerms: 5}
	rng := stats.New(3)
	for _, name := range []string{"w0", "w1", "w2"} {
		in := core.NewInputs()
		for _, sp := range a.ReadPortTerms() {
			in.ReadPorts[sp] = rng.Float64()
		}
		for _, sp := range a.WritePortTerms() {
			in.WritePorts[sp] = rng.Float64()
		}
		var sb strings.Builder
		if _, err := pavfio.Write(&sb, in); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".pavf"), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		req.Workloads = append(req.Workloads, harden.Workload{Name: name, PAVF: sb.String()})
	}

	ts := httptest.NewServer(server.New(server.Config{Obs: obs.New()}).Handler())
	defer ts.Close()
	post := func(path string, body []byte) []byte {
		t.Helper()
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
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := post("/v1/harden", body)

	out := filepath.Join(dir, "report.json")
	if err := run(obs.New(), &cliutil.Artifacts{}, nlPath, "", dir, "*.pavf", "8,32,1e6", "", "",
		5, 1, 0.3, 1.0, out, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := untimed(t, got), untimed(t, want); !reflect.DeepEqual(g, w) {
		t.Errorf("hardentool report differs from POST /v1/harden:\ncli:     %s\nservice: %s", got, want)
	}
}

// untimed decodes a JSON report and drops its wall-clock field.
func untimed(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if _, ok := m["elapsed_ms"]; !ok {
		t.Fatalf("report has no elapsed_ms: %s", data)
	}
	delete(m, "elapsed_ms")
	return m
}
