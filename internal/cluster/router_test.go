package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// backend is one in-process pimserve shard: a real service.Service
// behind a real HTTP listener.
type backend struct {
	svc *service.Service
	ts  *httptest.Server
}

func newBackend(t testing.TB, cfg service.Config) *backend {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return &backend{svc: svc, ts: ts}
}

func backendURLs(bs []*backend) []string {
	urls := make([]string, len(bs))
	for i, b := range bs {
		urls[i] = b.ts.URL
	}
	return urls
}

// clusterTrace builds the i-th distinct trace text: the lu kernel at
// varying sizes, so fingerprints differ but every trace stays cheap.
func clusterTrace(t testing.TB, i int) string {
	t.Helper()
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, gen.Generate(4+i%13, grid.Square(2+i%3))); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t testing.TB, client *http.Client, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func newTestRouter(t testing.TB, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // tests drive CheckHealth explicitly
	}
	rt := NewRouter(cfg)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

// Every request for one trace must land on one shard: fleet-wide
// tables_built stays equal to distinct traces, the invariant the whole
// cluster design exists to hold.
func TestRouterPinsTraceToOneShard(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	_, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	const distinct = 9
	for round := 0; round < 3; round++ {
		for i := 0; i < distinct; i++ {
			status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
				service.Request{Trace: clusterTrace(t, i), Algorithm: "scds"})
			if status != http.StatusOK {
				t.Fatalf("trace %d round %d: status %d: %s", i, round, status, body)
			}
		}
	}
	var fleetBuilt, shardsUsed uint64
	for _, b := range backends {
		st := b.svc.Stats()
		fleetBuilt += st.TablesBuilt
		if st.Requests > 0 {
			shardsUsed++
		}
	}
	if fleetBuilt != distinct {
		t.Fatalf("fleet tables_built = %d, want %d (one per distinct trace)", fleetBuilt, distinct)
	}
	if shardsUsed < 2 {
		t.Fatalf("only %d of 3 shards saw traffic across %d traces — routing is not spreading", shardsUsed, distinct)
	}
}

// An empty ring answers 503 with a Retry-After of about one health
// interval, still a positive integer when a negative interval disables
// the health loop.
func TestRouterEmptyRing503(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		want     string
	}{
		{-1, "1"},
		{-time.Second, "1"},
		{-5 * time.Second, "1"},
		{2 * time.Second, "3"},
	} {
		rt, ts := newTestRouter(t, RouterConfig{Backends: nil, HealthInterval: tc.interval})
		req := service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds"}
		body, _ := json.Marshal(req)
		resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("interval %v: status %d on empty ring, want 503", tc.interval, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.want {
			t.Fatalf("interval %v: 503 on empty ring has Retry-After %q, want %q", tc.interval, got, tc.want)
		}
		if st := rt.Stats(); st.NoBackend != 1 {
			t.Fatalf("interval %v: no_backend = %d, want 1", tc.interval, st.NoBackend)
		}
	}
}

// The replica-fill memo stays bounded over any number of distinct
// traces: it is cleared when full, and fills keep running after that.
func TestRouterFillMemoBounded(t *testing.T) {
	var prefills atomic.Uint64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/table/prefill" {
			prefills.Add(1)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer replica.Close()
	rt, _ := newTestRouter(t, RouterConfig{
		Backends:    []string{replica.URL},
		PeerFill:    true,
		Replication: 2,
	})

	const keys = maxFillMemo + 100
	peak := 0
	for i := 0; i < keys; i++ {
		// The source is not a ring member, so the one backend is always
		// a replica to fill.
		rt.maybeFillReplicas(routeInfo{key: []byte(fmt.Sprintf("key-%d", i)), trace: "t"}, "http://source")
		if i%64 == 63 || i == keys-1 {
			rt.WaitReplicaFills()
			rt.fillMu.Lock()
			peak = max(peak, len(rt.fillFilled))
			rt.fillMu.Unlock()
		}
	}
	if got := prefills.Load(); got != keys {
		t.Fatalf("replica saw %d prefills, want %d (one per distinct key)", got, keys)
	}
	if peak > maxFillMemo {
		t.Fatalf("fill memo reached %d entries, cap %d", peak, maxFillMemo)
	}
	rt.fillMu.Lock()
	n := len(rt.fillFilled)
	rt.fillMu.Unlock()
	if n == 0 || n > maxFillMemo {
		t.Fatalf("fill memo holds %d entries after %d keys, want 1..%d", n, keys, maxFillMemo)
	}
}

func TestRouterUnroutableBody400(t *testing.T) {
	b := newBackend(t, service.Config{})
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs([]*backend{b})})
	for _, body := range []string{
		`{"algorithm": "scds"}`, // no trace
		`not json`,
		`{"trace": "junk", "algorithm": "scds"}`, // trace won't decode
	} {
		resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := rt.Stats(); st.BadRequests != 3 || st.Requests != 0 {
		t.Fatalf("bad_requests/requests = %d/%d, want 3/0 (nothing proxied)", st.BadRequests, st.Requests)
	}
}

// A backend that dies answers nothing; the router must eject it, re-own
// the key on the shrunken ring, and retry so the client still gets a
// 200 — exactly once, on a live shard.
func TestRouterRetriesOnDeadBackend(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	// Find a trace owned by backend 0, then kill backend 0.
	var traceStr string
	for i := 0; i < 100; i++ {
		text := clusterTrace(t, i)
		tr, err := trace.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		if owner, _ := rt.Ring().Owner(fp[:]); owner == backends[0].ts.URL {
			traceStr = text
			break
		}
	}
	if traceStr == "" {
		t.Fatal("no probe trace hashed to backend 0")
	}
	backends[0].ts.CloseClientConnections()
	backends[0].ts.Close()

	status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: traceStr, Algorithm: "scds"})
	if status != http.StatusOK {
		t.Fatalf("status %d after backend death, want 200 via retry: %s", status, body)
	}
	st := rt.Stats()
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if st.Ejections != 1 || rt.Ring().Has(backends[0].ts.URL) {
		t.Fatal("dead backend not ejected from the ring")
	}
	// The survivor now owns the key; the next request goes straight
	// through with no further retry.
	if status, _ := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: traceStr, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("status %d on re-request after ejection", status)
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Fatalf("retries grew to %d on a settled ring", st.Retries)
	}
}

// Health checks are the only readmission path: a 503-ing backend leaves
// the ring on the next sweep and rejoins once it recovers, restoring
// the original key assignment.
func TestRouterHealthEjectAndReadmit(t *testing.T) {
	flaky := newBackend(t, service.Config{})
	steady := newBackend(t, service.Config{})

	// Wrap the flaky backend so health can be toggled without killing
	// the listener.
	var sick atomic.Bool
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		flaky.ts.Config.Handler.ServeHTTP(w, r)
	}))
	defer wrapped.Close()
	setHealthy := func(h bool) { sick.Store(!h) }

	rt, _ := newTestRouter(t, RouterConfig{Backends: []string{wrapped.URL, steady.ts.URL}})
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring starts with %d members, want 2", rt.Ring().Len())
	}

	setHealthy(false)
	rt.CheckHealth()
	if rt.Ring().Has(wrapped.URL) || rt.Ring().Len() != 1 {
		t.Fatal("sick backend still in the ring after a failing sweep")
	}
	if st := rt.Stats(); st.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", st.Ejections)
	}

	// Sweeps while it stays sick change nothing.
	setHealthy(false)
	rt.CheckHealth()
	if st := rt.Stats(); st.Ejections != 1 || st.Readmissions != 0 {
		t.Fatalf("sweep on a stable-sick fleet moved counters: %+v", st)
	}

	// One passing probe is not enough: readmission needs
	// DefaultReadmitAfter consecutive successes, so the first good sweep
	// only builds streak.
	setHealthy(true)
	rt.CheckHealth()
	if rt.Ring().Has(wrapped.URL) {
		t.Fatal("backend readmitted after a single passing probe")
	}
	if st := rt.Stats(); st.Readmissions != 0 {
		t.Fatalf("readmissions = %d after one passing probe, want 0", st.Readmissions)
	}

	rt.CheckHealth()
	if !rt.Ring().Has(wrapped.URL) || rt.Ring().Len() != 2 {
		t.Fatal("recovered backend not readmitted")
	}
	if st := rt.Stats(); st.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", st.Readmissions)
	}
}

// A backend that alternates one passing and one failing probe must stay
// out of the ring: before the consecutive-success requirement, every
// good probe readmitted it and every bad one ejected it, remapping its
// keys twice per cycle.
func TestRouterFlappingBackendStaysEjected(t *testing.T) {
	steady := newBackend(t, service.Config{})

	// Scripted backend: /healthz alternates 200 and 503 per probe.
	var probes atomic.Uint64
	flapping := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && probes.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "flap", http.StatusServiceUnavailable)
	}))
	defer flapping.Close()

	rt, _ := newTestRouter(t, RouterConfig{Backends: []string{flapping.URL, steady.ts.URL}})

	// First sweep probes healthy (probe 1, odd): the member stays.
	rt.CheckHealth()
	if !rt.Ring().Has(flapping.URL) {
		t.Fatal("healthy first probe ejected the backend")
	}
	// Second sweep fails (probe 2): ejected. From here on the backend
	// alternates pass/fail, never reaching two consecutive passes, so
	// it must never rejoin.
	for i := 0; i < 10; i++ {
		rt.CheckHealth()
		if i > 0 && rt.Ring().Has(flapping.URL) {
			t.Fatalf("flapping backend readmitted on sweep %d", i)
		}
	}
	st := rt.Stats()
	if st.Ejections != 1 {
		t.Fatalf("ejections = %d, want exactly 1 (eject once, stay out)", st.Ejections)
	}
	if st.Readmissions != 0 {
		t.Fatalf("readmissions = %d, want 0 for a flapping backend", st.Readmissions)
	}
}

// The pin map must forget sessions: any 2xx DELETE observed through the
// router removes the pin, and ejecting a backend drops the pins of the
// sessions that died with it. Before the fix both paths leaked an entry
// per session forever.
func TestRouterSessionPinMapForgets(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	ids := make([]string, 8)
	for i := range ids {
		status, body := postJSON(t, ts.Client(), ts.URL+"/session",
			service.CreateSessionRequest{Trace: clusterTrace(t, i), Algorithm: "scds"})
		if status != http.StatusCreated {
			t.Fatalf("create session %d: status %d: %s", i, status, body)
		}
		var info struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		ids[i] = info.SessionID
	}
	if st := rt.Stats(); st.SessionsPinned != len(ids) {
		t.Fatalf("sessions_pinned = %d, want %d", st.SessionsPinned, len(ids))
	}

	// Delete half through the router: each observed 2xx must unpin.
	for _, id := range ids[:4] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAllAndClose(resp)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("delete %s: status %d", id, resp.StatusCode)
		}
	}
	if st := rt.Stats(); st.SessionsPinned != 4 {
		t.Fatalf("sessions_pinned = %d after 4 deletes, want 4 (pin map leak)", st.SessionsPinned)
	}

	// Ejecting a backend must drop the pins of its sessions: they died
	// with the process, and a retained pin is both a memory leak and a
	// guaranteed-failing route.
	for _, b := range backends {
		rt.eject(b.ts.URL)
	}
	if st := rt.Stats(); st.SessionsPinned != 0 {
		t.Fatalf("sessions_pinned = %d after ejecting every backend, want 0", st.SessionsPinned)
	}
}

// Session traffic follows the pin, not the ring: every request for a
// session lands on the shard that created it, and deletion unpins.
func TestRouterSessionPinning(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	ids := make([]string, 6)
	for i := range ids {
		status, body := postJSON(t, ts.Client(), ts.URL+"/session",
			service.CreateSessionRequest{Trace: clusterTrace(t, i), Algorithm: "scds"})
		if status != http.StatusCreated {
			t.Fatalf("create session %d: status %d: %s", i, status, body)
		}
		var info struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &info); err != nil || info.SessionID == "" {
			t.Fatalf("create session %d: bad body %s", i, body)
		}
		ids[i] = info.SessionID
	}
	if st := rt.Stats(); st.SessionsPinned != len(ids) {
		t.Fatalf("sessions_pinned = %d, want %d", st.SessionsPinned, len(ids))
	}

	// Schedule each session several times through the router; a
	// mis-pinned request would 404 on the wrong shard.
	for _, id := range ids {
		for round := 0; round < 3; round++ {
			status, body := postJSON(t, ts.Client(), ts.URL+"/session/"+id+"/schedule", struct{}{})
			if status != http.StatusOK {
				t.Fatalf("session %s schedule: status %d: %s", id, status, body)
			}
		}
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete session: status %d", resp.StatusCode)
	}
	if st := rt.Stats(); st.SessionsPinned != len(ids)-1 {
		t.Fatalf("sessions_pinned = %d after delete, want %d", st.SessionsPinned, len(ids)-1)
	}

	// Unknown and deleted sessions are 404s at the router.
	for _, id := range []string{ids[0], "no-such-session"} {
		status, _ := postJSON(t, ts.Client(), ts.URL+"/session/"+id+"/schedule", struct{}{})
		if status != http.StatusNotFound {
			t.Fatalf("session %q: status %d, want 404", id, status)
		}
	}
}

// With peer fill on, a shard that (re)joins the ring inherits keys
// from whichever shard served them in its absence — and the router's
// hint (OwnerExcluding the new owner) names exactly that shard, so the
// joiner adopts the cached table instead of rebuilding. Fleet-wide
// tables_built stays at one per trace across the membership change.
func TestRouterPeerFillAcrossChurn(t *testing.T) {
	fill := NewPeerFill(nil, 0)
	mk := func() *backend { return newBackend(t, service.Config{PeerFill: fill}) }
	backends := []*backend{mk(), mk(), mk()}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends), PeerFill: true})

	// Take backend 2 out (down for maintenance) and find a trace whose
	// key belongs to it on the full ring: while it is away, another
	// shard owns the key; when it returns, the key moves back.
	joiner := backends[2].ts.URL
	rt.Ring().Remove(joiner)
	var text string
	var interim string
	for i := 0; i < 200; i++ {
		cand := clusterTrace(t, i)
		tr, err := trace.Decode(strings.NewReader(cand))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		ownerWhileAway, _ := rt.Ring().Owner(fp[:])
		full := NewRing(0)
		for _, b := range backendURLs(backends) {
			full.Add(b)
		}
		ownerWhenBack, _ := full.Owner(fp[:])
		if ownerWhenBack == joiner {
			text, interim = cand, ownerWhileAway
			break
		}
	}
	if text == "" {
		t.Fatal("no probe trace moves to the joining backend")
	}

	if status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: text, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("status %d while joiner away: %s", status, body)
	}

	rt.Ring().Add(joiner) // readmission
	if status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: text, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("status %d after rejoin: %s", status, body)
	}

	var fleetBuilt, fleetFills uint64
	for _, b := range backends {
		st := b.svc.Stats()
		fleetBuilt += st.TablesBuilt
		fleetFills += st.PeerFills
	}
	if fleetBuilt != 1 {
		t.Fatalf("fleet tables_built = %d across churn, want 1 (joiner should adopt %s's table, not rebuild)", fleetBuilt, interim)
	}
	if fleetFills != 1 {
		t.Fatalf("fleet peer_fills = %d, want 1", fleetFills)
	}
	joinerStats := backends[2].svc.Stats()
	if joinerStats.PeerFills != 1 || joinerStats.TablesBuilt != 0 {
		t.Fatalf("joiner peer_fills/built = %d/%d, want 1/0", joinerStats.PeerFills, joinerStats.TablesBuilt)
	}
	if st := rt.Stats(); st.PeerHints == 0 {
		t.Fatal("router never attached a peer hint with PeerFill on")
	}
}

// The router's own endpoints: /metrics exposes pim_router_* series,
// /healthz tracks ring emptiness, /stats is valid JSON.
func TestRouterObservability(t *testing.T) {
	b := newBackend(t, service.Config{})
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs([]*backend{b})})
	if status, _ := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("schedule via router: status %d", status)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"pim_router_requests_total 1",
		"pim_router_retries_total 0",
		"pim_router_ejections_total 0",
		"pim_router_readmissions_total 0",
		"pim_router_no_backend_total 0",
		"pim_router_backends_healthy 1",
		"pim_router_request_duration_seconds_bucket",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("metrics exposition lacks %q", series)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz: %d", resp.StatusCode)
	}
	rt.Ring().Remove(b.ts.URL)
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router healthz with empty ring: %d, want 503", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st RouterStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || len(st.Backends) != 1 {
		t.Fatalf("stats snapshot %+v", st)
	}
}

// The background health loop runs without manual driving and notices a
// death within a couple of intervals.
func TestRouterBackgroundHealthLoop(t *testing.T) {
	b1 := newBackend(t, service.Config{})
	b2 := newBackend(t, service.Config{})
	rt := NewRouter(RouterConfig{
		Backends:       []string{b1.ts.URL, b2.ts.URL},
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
	})
	defer rt.Close()

	b1.ts.CloseClientConnections()
	b1.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Ring().Has(b1.ts.URL) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rt.Ring().Has(b1.ts.URL) {
		t.Fatal("health loop never ejected a dead backend")
	}
	if !rt.Ring().Has(b2.ts.URL) {
		t.Fatal("health loop ejected a live backend")
	}
}

// A pooled connection the backend closed as idle (a shard shutting down
// closes its idle connections) fails the POST sent on it with net/http's
// unexported "server closed idle connection" error, which the transport
// does not retry itself. The backend never read that request, so the
// router must classify it as a connection error and retry elsewhere
// rather than relay a 502.
func TestIsConnErrorServerClosedIdle(t *testing.T) {
	err := &url.Error{Op: "Post", URL: "http://127.0.0.1:1/schedule", Err: errors.New("http: server closed idle connection")}
	if !isConnError(err) {
		t.Fatalf("isConnError(%v) = false, want true", err)
	}
	if isConnError(errors.New("decode response: unexpected status")) {
		t.Fatal("an unrelated error classified as a connection error")
	}
}
