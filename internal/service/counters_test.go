package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/grid"
)

// statsSeries maps every /stats field to the /metrics series that
// exposes the same fact. An empty series marks a field with no series
// of its own; TestStatsAgreeWithMetrics fails on a field missing here,
// so a new counter cannot reach one surface without the other.
var statsSeries = map[string]string{
	"requests":                "pim_requests_total",
	"completed":               "pim_requests_completed_total",
	"rejected_overload":       `pim_requests_rejected_total{reason="overload"}`,
	"rejected_closed":         `pim_requests_rejected_total{reason="closed"}`,
	"bad_requests":            "pim_bad_requests_total",
	"deadline_expired":        "pim_deadline_expired_total",
	"errors":                  "pim_internal_errors_total",
	"inflight":                "pim_requests_inflight",
	"tables_built":            "pim_tables_built_total",
	"cache_hits":              "pim_cache_hits_total",
	"cache_misses":            "pim_cache_misses_total",
	"cache_shared_builds":     "pim_cache_shared_builds_total",
	"cache_evictions":         "pim_cache_evictions_total",
	"cache_entries":           "pim_cache_entries",
	"cache_hot_entries":       "", // split of cache_entries
	"cache_cold_entries":      "", // split of cache_entries
	"cache_bytes":             "pim_cache_bytes",
	"cache_demotions":         "pim_cache_demotions_total",
	"cache_promotions":        "pim_cache_promotions_total",
	"cache_admission_rejects": "pim_cache_admission_rejects_total",
	"sessions_created":        "pim_sessions_created_total",
	"sessions_active":         "pim_sessions_active",
	"deltas_applied":          "pim_deltas_applied_total",
	"batches":                 "pim_batches_total",
	"batch_specs":             "pim_batch_specs_total",
	"peer_fills":              "pim_peer_fills_total",
	"peer_fill_fallbacks":     "pim_peer_fill_fallbacks_total",
	"tables_served":           "pim_tables_served_total",
	"tables_prefilled":        "pim_tables_prefilled_total",
	"sessions_exported":       "pim_sessions_exported_total",
	"sessions_imported":       "pim_sessions_imported_total",
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

// TestStatsAgreeWithMetrics drives mixed traffic — miss, hit, batch,
// bad request, 429 shed, session create plus delta, and a peer fill —
// then checks that every /stats counter equals its pim_* series on
// /metrics, so operators and tests read the same numbers.
func TestStatsAgreeWithMetrics(t *testing.T) {
	owner := New(Config{})
	defer owner.Close()
	ownerTS := httptest.NewServer(owner.Handler())
	defer ownerTS.Close()

	svc := New(Config{MaxInflight: 1, PeerFill: peerFillVia(ownerTS.Client())})
	defer svc.Close()
	var block atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	svc.testHookRunning = func() {
		if block.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	textA := traceText(t, "lu", 6, grid.Square(3))
	textB := traceText(t, "matsquare", 6, grid.Square(3))

	post := func(path string, body any, want int) []byte {
		t.Helper()
		resp, data := postJSON(t, client, ts.URL+path, body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d (%s)", path, resp.StatusCode, want, data)
		}
		return data
	}
	post("/schedule", Request{Trace: textA, Algorithm: "scds"}, http.StatusOK)   // miss
	post("/schedule", Request{Trace: textA, Algorithm: "gomcds"}, http.StatusOK) // hit
	post("/schedule/batch", BatchRequest{Trace: textA, Requests: []BatchSpec{
		{Algorithm: "scds"}, {Algorithm: "lomcds", Capacity: 8},
	}}, http.StatusOK)
	post("/schedule", Request{Trace: textA, Algorithm: "nope"}, http.StatusBadRequest)

	// Peer fill: the owner has B cached; the hinted request adopts it.
	if _, err := owner.Schedule(context.Background(), Request{Trace: textB, Algorithm: "scds"}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(Request{Trace: textB, Algorithm: "scds"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/schedule", bytes.NewReader(body))
	req.Header.Set(PeerHintHeader, ownerTS.URL)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-hinted schedule: status %d", resp.StatusCode)
	}

	// Shed: hold the only slot, then a second request gets 429.
	block.Store(true)
	first := make(chan int, 1)
	go func() {
		b, _ := json.Marshal(Request{Trace: textA, Algorithm: "scds"})
		resp, err := client.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(b))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered
	post("/schedule", Request{Trace: textA, Algorithm: "scds"}, http.StatusTooManyRequests)
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("slot-holding request: status %d", code)
	}

	var info SessionInfo
	if err := json.Unmarshal(post("/session", CreateSessionRequest{Trace: textA, Algorithm: "gomcds"}, http.StatusCreated), &info); err != nil {
		t.Fatal(err)
	}
	post("/session/"+info.SessionID+"/delta",
		delta.EditItemVolumes(0, 0, append([]int{7}, make([]int, 8)...)), http.StatusOK)

	// The slot is released just after the response is written; let the
	// inflight gauge settle so both reads see one state.
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().Inflight != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("inflight never settled to 0")
		}
	}

	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := scrapeSeries(t, client, ts.URL+"/metrics")
	for field, v := range stats {
		series, ok := statsSeries[field]
		if !ok {
			t.Errorf("/stats field %q has no entry in statsSeries", field)
			continue
		}
		if series == "" {
			continue
		}
		got, ok := metrics[series]
		if !ok {
			t.Errorf("/metrics lacks %s (for /stats %q)", series, field)
		} else if got != v {
			t.Errorf("/stats %q = %v, /metrics %s = %v", field, v, series, got)
		}
	}
	if stats["cache_hot_entries"]+stats["cache_cold_entries"] != stats["cache_entries"] {
		t.Errorf("cache_hot_entries + cache_cold_entries != cache_entries: %v", stats)
	}
	// The traffic must have moved every counter it was meant to, or the
	// agreement above proves little.
	for _, field := range []string{"requests", "completed", "rejected_overload", "bad_requests",
		"tables_built", "cache_hits", "cache_misses", "batches", "batch_specs", "peer_fills",
		"sessions_created", "sessions_active", "deltas_applied"} {
		if stats[field] == 0 {
			t.Errorf("/stats %q is 0; the traffic did not exercise it", field)
		}
	}
}
