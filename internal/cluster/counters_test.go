package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/delta"
	"repro/internal/service"
)

// routerStatsSeries maps every router /stats field to the /metrics
// series that exposes the same fact; list fields compare by length. An
// empty series marks a field with no series of its own.
var routerStatsSeries = map[string]string{
	"backends":              "pim_router_backends_known",
	"healthy":               "pim_router_backends_healthy",
	"drained":               "", // names, not a count
	"replication":           "", // configuration, not a counter
	"requests":              "pim_router_requests_total",
	"bad_requests":          "pim_router_bad_requests_total",
	"retries":               "pim_router_retries_total",
	"ejections":             "pim_router_ejections_total",
	"readmissions":          "pim_router_readmissions_total",
	"no_backend":            "pim_router_no_backend_total",
	"peer_hints":            "pim_router_peer_hints_total",
	"coalesced":             "pim_router_coalesced_total",
	"replica_fills":         "pim_router_replica_fills_total",
	"replica_fill_errors":   "pim_router_replica_fill_errors_total",
	"replica_fills_pending": "pim_router_replica_fills_pending",
	"drains":                "pim_router_drains_total",
	"sessions_migrated":     "pim_router_sessions_migrated_total",
	"sessions_pinned":       "pim_router_sessions_pinned",
}

// scrapeSeries parses a text exposition into series (name plus labels)
// → value, skipping comments.
func scrapeSeries(t *testing.T, client *http.Client, url string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestRouterStatsAgreeWithMetrics drives mixed traffic through a
// router over two peer-filling shards — miss, hit, batch, bad request,
// a relayed 429 shed, session create plus delta, and the replica fills
// the schedules trigger — then checks that every router /stats field
// equals its pim_router_* series on /metrics.
func TestRouterStatsAgreeWithMetrics(t *testing.T) {
	// The shards shed one /schedule on demand, so the router relays a
	// real 429 without the test racing a shard's concurrency slot.
	var shed atomic.Bool
	urls := make([]string, 2)
	for i := range urls {
		svc := service.New(service.Config{PeerFill: NewPeerFill(nil, 0)})
		h := svc.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/schedule" && shed.CompareAndSwap(true, false) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"service: overloaded"}`, http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); svc.Close() })
		urls[i] = ts.URL
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: urls, PeerFill: true})
	client := ts.Client()
	text := clusterTrace(t, 3) // 2x2 grid

	post := func(path string, body any, want int) []byte {
		t.Helper()
		status, data := postJSON(t, client, ts.URL+path, body)
		if status != want {
			t.Fatalf("POST %s: status %d, want %d (%s)", path, status, want, data)
		}
		return data
	}
	post("/schedule", service.Request{Trace: text, Algorithm: "scds"}, http.StatusOK)   // miss
	post("/schedule", service.Request{Trace: text, Algorithm: "gomcds"}, http.StatusOK) // hit
	post("/schedule/batch", service.BatchRequest{Trace: text, Requests: []service.BatchSpec{
		{Algorithm: "scds"}, {Algorithm: "lomcds", Capacity: 8},
	}}, http.StatusOK)
	post("/schedule", "not a request", http.StatusBadRequest)
	shed.Store(true)
	post("/schedule", service.Request{Trace: text, Algorithm: "scds"}, http.StatusTooManyRequests)
	var info service.SessionInfo
	if err := json.Unmarshal(post("/session", service.CreateSessionRequest{Trace: text, Algorithm: "gomcds"}, http.StatusCreated), &info); err != nil {
		t.Fatal(err)
	}
	post("/session/"+info.SessionID+"/delta", delta.EditItemVolumes(0, 0, []int{7, 0, 0, 0}), http.StatusOK)
	rt.WaitReplicaFills()

	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := scrapeSeries(t, client, ts.URL+"/metrics")
	for field, raw := range stats {
		series, ok := routerStatsSeries[field]
		if !ok {
			t.Errorf("/stats field %q has no entry in routerStatsSeries", field)
			continue
		}
		if series == "" {
			continue
		}
		var v float64
		switch x := raw.(type) {
		case float64:
			v = x
		case []any:
			v = float64(len(x))
		default:
			t.Fatalf("/stats %q has unexpected type %T", field, raw)
		}
		got, ok := metrics[series]
		if !ok {
			t.Errorf("/metrics lacks %s (for /stats %q)", series, field)
		} else if got != v {
			t.Errorf("/stats %q = %v, /metrics %s = %v", field, v, series, got)
		}
	}
	// The traffic must have moved every counter it was meant to, or the
	// agreement above proves little.
	for _, field := range []string{"requests", "bad_requests", "replica_fills", "sessions_pinned"} {
		if stats[field] == float64(0) {
			t.Errorf("/stats %q is 0; the traffic did not exercise it", field)
		}
	}
}
