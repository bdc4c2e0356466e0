package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestFleetIntervalsThroughGateway: POST /v1/sweep/intervals through a
// 2-replica gateway is routed by design to the owning replica, and the
// answer is the one that replica gives directly — byte-for-byte apart
// from the timing field.
func TestFleetIntervalsThroughGateway(t *testing.T) {
	res := solvedDesign(t, 95)
	reps := newFleetReplicas(t, 2, 4, 0, nil)
	names := ownedDesigns(t, reps, res)
	_, gwReg, gwTS := newGateway(t, replicaURLs(reps))

	decode := func(raw []byte) map[string]any {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("bad interval response: %v\n%s", err, raw)
		}
		if _, ok := m["eval_elapsed_ms"]; !ok {
			t.Fatalf("response lacks eval_elapsed_ms: %s", raw)
		}
		delete(m, "eval_elapsed_ms")
		return m
	}
	for i, name := range names {
		body := intervalBody(t, name, res, 2, 3, 700+uint64(i)*10, true)
		resp, viaGateway := postJSON(t, http.DefaultClient, gwTS.URL+"/v1/sweep/intervals", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s via gateway: status %d: %s", name, resp.StatusCode, viaGateway)
		}
		if got := reps[i].reg.Counter("server.interval_sweep_ok").Load(); got != 1 {
			t.Fatalf("%s: owner served %d interval sweeps, want 1", name, got)
		}
		resp, direct := postJSON(t, http.DefaultClient, reps[i].ts.URL+"/v1/sweep/intervals", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s direct: status %d: %s", name, resp.StatusCode, direct)
		}
		if g, d := decode(viaGateway), decode(direct); !reflect.DeepEqual(g, d) {
			t.Fatalf("%s: gateway answer differs from the owner's:\n%s\n%s", name, viaGateway, direct)
		}
	}
	if got := gwReg.Counter("gateway.interval_requests").Load(); got != int64(len(names)) {
		t.Errorf("gateway.interval_requests = %d, want %d", got, len(names))
	}
}
