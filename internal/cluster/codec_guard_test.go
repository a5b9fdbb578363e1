package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/service"
	"repro/internal/trace"
)

// evilTableServer serves, for every GET /table/{fp} request, a
// well-formed pimtab-v2 payload whose fingerprint matches the URL but
// whose declared shape is 100x100x10 = 100k cells — modest on the wire,
// but over any tight cell budget.
func evilTableServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.URL.Path, "/")
		fp, err := trace.ParseFingerprint(parts[len(parts)-1])
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload := cost.EncodeTableV2(fp, cost.NewResidenceTable(100, 100, 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(payload)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPeerFillRejectsOversizedTablePayload is the GET /table/{fp} adopt
// half of the DoS-guard fix: the peer-fill client used to decode any
// payload under the codec's 1 GiB hard ceiling, so a compromised or
// buggy peer could commit the adopting shard to an allocation its own
// MaxTableCells guard would refuse. With the budget threaded through,
// the decode must fail at the cell limit — before allocating.
func TestPeerFillRejectsOversizedTablePayload(t *testing.T) {
	ts := evilTableServer(t)
	tr, err := trace.Decode(bytes.NewReader([]byte(clusterTrace(t, 2))))
	if err != nil {
		t.Fatal(err)
	}
	fill := NewPeerFill(nil, 4096)
	_, err = fill(context.Background(), tr.Fingerprint(), ts.URL)
	if err == nil {
		t.Fatal("peer fill adopted a table payload over the cell budget")
	}
	if !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("error %q does not name the cell limit — the payload was rejected for the wrong reason", err)
	}

	// Unlimited (<= 0) keeps only the codec's hard ceiling, so the same
	// payload decodes — which is exactly the pre-fix behaviour the
	// budget exists to close off.
	if _, err := NewPeerFill(nil, 0)(context.Background(), tr.Fingerprint(), ts.URL); err != nil {
		t.Fatalf("unbudgeted peer fill rejected an in-ceiling payload: %v", err)
	}
}

// TestScheduleFallsBackOnOversizedPeerTable drives the same guard end
// to end through a schedule with a peer hint: the oversized payload is
// refused, the shard falls back to a local build, and the request still
// succeeds.
func TestScheduleFallsBackOnOversizedPeerTable(t *testing.T) {
	ts := evilTableServer(t)
	svc := service.New(service.Config{
		MaxTableCells: 4096,
		PeerFill:      NewPeerFill(nil, 4096),
	})
	defer svc.Close()
	resp, err := svc.Schedule(context.Background(), service.Request{
		Trace: clusterTrace(t, 2), Algorithm: "scds", PeerHint: ts.URL,
	})
	if err != nil {
		t.Fatalf("schedule with oversized peer table: %v", err)
	}
	if resp.CacheHit {
		t.Fatal("response claims a cache hit; the poisoned fill must have been a local build")
	}
	st := svc.Stats()
	if st.TablesBuilt != 1 || st.PeerFillFallback != 1 || st.PeerFills != 0 {
		t.Fatalf("stats after poisoned fill: built=%d fallbacks=%d fills=%d, want 1/1/0",
			st.TablesBuilt, st.PeerFillFallback, st.PeerFills)
	}
}

// TestPrefillRejectsOversizedPeerTable covers the POST /table/prefill
// half: a replica push whose source serves an oversized table must be
// refused at the cell limit and adopt nothing.
func TestPrefillRejectsOversizedPeerTable(t *testing.T) {
	ts := evilTableServer(t)
	svc := service.New(service.Config{
		MaxTableCells: 4096,
		PeerFill:      NewPeerFill(nil, 4096),
	})
	defer svc.Close()
	err := svc.Prefill(context.Background(), service.PrefillRequest{
		Trace: clusterTrace(t, 2), PeerHint: ts.URL,
	})
	if err == nil {
		t.Fatal("prefill adopted a table payload over the cell budget")
	}
	if !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("error %q does not name the cell limit", err)
	}
	if st := svc.Stats(); st.TablesPrefilled != 0 {
		t.Fatalf("tables_prefilled = %d after a rejected prefill, want 0", st.TablesPrefilled)
	}
}

// TestTableGetServesV2 pins the read side peer fill depends on, on a
// real service: GET /table/{fp} serves pimtab-v2 whose cells equal a
// fresh local build, both for a hot entry (encoded on the spot) and for
// a demoted one (its stored cold payload, served without promotion).
func TestTableGetServesV2(t *testing.T) {
	texts := []string{clusterTrace(t, 5), clusterTrace(t, 8)}
	fps := make([]trace.Fingerprint, len(texts))
	want := make([]cost.ResidenceTable, len(texts))
	for i, text := range texts {
		tr, err := trace.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = tr.Fingerprint()
		want[i] = cost.NewModel(tr).BuildResidenceTable()
	}
	// Room for the second table flat and the first compressed, but not
	// both flat: scheduling the second demotes the first.
	budget := 8*int64(len(want[1].Cells())) + 4*int64(len(want[0].Cells()))
	svc := service.New(service.Config{CacheBytes: budget})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, text := range texts {
		if _, err := svc.Schedule(context.Background(), service.Request{Trace: text, Algorithm: "scds"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.CacheColdEntries != 1 || st.CacheHotEntries != 1 {
		t.Fatalf("hot=%d cold=%d after two tables over budget %d, want 1/1", st.CacheHotEntries, st.CacheColdEntries, budget)
	}

	for i, tier := range []string{"cold", "hot"} {
		resp, err := http.Get(ts.URL + "/table/" + fps[i].String())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s GET /table: status %d: %s", tier, resp.StatusCode, buf.Bytes())
		}
		if !bytes.HasPrefix(buf.Bytes(), []byte("pimtab-v2\n")) {
			t.Fatalf("%s GET /table did not serve pimtab-v2", tier)
		}
		gotFP, got, err := cost.DecodeTableV2(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if gotFP != fps[i] {
			t.Fatalf("%s payload is for %s, want %s", tier, gotFP, fps[i])
		}
		if !slices.Equal(got.Cells(), want[i].Cells()) {
			t.Fatalf("%s served table cells differ from a fresh local build", tier)
		}
	}
	if st := svc.Stats(); st.CacheColdEntries != 1 || st.CachePromotions != 0 || st.TablesServed != 2 {
		t.Fatalf("after serving: cold=%d promotions=%d served=%d, want 1/0/2", st.CacheColdEntries, st.CachePromotions, st.TablesServed)
	}
}
