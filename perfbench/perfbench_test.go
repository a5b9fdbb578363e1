package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestPlanIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := NewPlan(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPlan(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.Bodies, b.Bodies) ||
			!reflect.DeepEqual(a.TraceText, b.TraceText) || !reflect.DeepEqual(a.SessionOwner, b.SessionOwner) {
			t.Errorf("%s: two plans from seed 7 differ", name)
		}
		c, err := NewPlan(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Ops, c.Ops) {
			t.Errorf("%s: seeds 7 and 8 give the same op sequence", name)
		}
		if err := a.checkDistinct(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSessionCycleKeepsEveryDeltaValid(t *testing.T) {
	p, err := NewPlan(sessionEdit, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes over each owner's cycle must materialize cleanly.
	for s := range p.SessionOwner {
		n := 0
		for _, op := range p.Ops[p.SessionOwner[s]] {
			if op.Session == s && op.isDelta() {
				n++
			}
		}
		cps := []Checkpoint{{Deltas: 2 * n}}
		err := checkSession(p, s, cps)
		if err == nil || !strings.Contains(err.Error(), "undecodable") {
			t.Fatalf("session %d: want only the empty checkpoint body to fail, got %v", s, err)
		}
	}
}

// serviceBody encodes a response the way the service writes it.
func serviceBody(t *testing.T, r service.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckerRejectsFlippedCenter(t *testing.T) {
	tr := workload.LU{}.Generate(6, grid.Square(4))
	ref, err := newReference(tr, "gomcds", 0)
	if err != nil {
		t.Fatal(err)
	}
	good := ref.Response
	good.CacheHit, good.ElapsedUS = true, 1234
	if err := checkSchedule(ref, serviceBody(t, good)); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	compact, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(ref, compact); err != nil {
		t.Fatalf("correct response in another layout rejected: %v", err)
	}

	bad := good
	bad.Centers = ref.Schedule.Clone().Centers
	bad.Centers[2][3] = (bad.Centers[2][3] + 1) % tr.Grid.NumProcs()
	err = checkSchedule(ref, serviceBody(t, bad))
	if err == nil || !strings.Contains(err.Error(), "window 2 item 3") {
		t.Fatalf("flipped center: got %v", err)
	}
}

func TestAnswerDigestIgnoresOnlyPerRequestFields(t *testing.T) {
	tr := workload.MatSquare{}.Generate(6, grid.Square(4))
	ref, err := newReference(tr, "lomcds", 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ref.Response, ref.Response
	a.CacheHit, a.ElapsedUS = false, 98765
	b.CacheHit, b.ElapsedUS = true, 3
	if answerDigest(serviceBody(t, a)) != answerDigest(serviceBody(t, b)) {
		t.Error("answers differing only in cache_hit and elapsed_us have different digests")
	}
	b.Centers = ref.Schedule.Clone().Centers
	b.Centers[0][0] = (b.Centers[0][0] + 1) % tr.Grid.NumProcs()
	if answerDigest(serviceBody(t, a)) == answerDigest(serviceBody(t, b)) {
		t.Error("a flipped center leaves the digest unchanged")
	}
	// A flipped center is caught after the correct body was accepted.
	if err := checkSchedule(ref, serviceBody(t, a)); err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(ref, serviceBody(t, b)); err == nil {
		t.Fatal("flipped center accepted after a correct answer")
	}
}

func TestCheckerRejectsCostThatDisagreesWithCenters(t *testing.T) {
	tr := workload.Stencil{}.Generate(6, grid.Square(4))
	ref, err := newReference(tr, "scds", 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := ref.Response
	bad.Cost.Move++
	bad.Cost.Total++
	if err := checkSchedule(ref, serviceBody(t, bad)); err == nil {
		t.Fatal("wrong cost accepted")
	}
}

func balancedCounters() Counters {
	return Counters{Shards: []service.Stats{
		{Requests: 10, Completed: 10, CacheHits: 5, CacheMisses: 3, CacheSharedBuild: 2},
		{Requests: 4, Completed: 4, CacheHits: 4},
	}}
}

func TestConservationRejectsDroppedSharedBuild(t *testing.T) {
	c := balancedCounters()
	c.Router.Coalesced = 3
	if err := checkConservation(17, c); err != nil {
		t.Fatalf("balanced counters rejected: %v", err)
	}
	c.Shards[0].CacheSharedBuild = 0
	err := checkConservation(17, c)
	if err == nil || !strings.Contains(err.Error(), "shared builds") {
		t.Fatalf("dropped shared builds: got %v", err)
	}
}

func TestConservationRejectsUnaccountedRoutedOp(t *testing.T) {
	c := balancedCounters()
	if err := checkConservation(15, c); err == nil {
		t.Fatal("15 routed ops against 14 shard requests and no coalescing accepted")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("two-value quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJSONIntField(t *testing.T) {
	body := []byte("{\n  \"layers_recomputed\": 42,\n  \"cached\": false\n}\n")
	if n, err := jsonIntField(body, "layers_recomputed"); err != nil || n != 42 {
		t.Fatalf("got %d, %v", n, err)
	}
	if n, err := jsonIntField([]byte(`{"layers_recomputed":7}`), "layers_recomputed"); err != nil || n != 7 {
		t.Fatalf("compact: got %d, %v", n, err)
	}
	if _, err := jsonIntField(body, "missing"); err == nil {
		t.Fatal("missing field accepted")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workload")
	}
	for _, w := range bench.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q, program has %v", w.Name, workloadNames)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		traced bool
	}{{bench.EndToEnd, false}, {bench.PerLayer, true}} {
		rec := &RunRecord{Traced: c.traced, Metrics: make(map[string]Metric)}
		if c.traced {
			rec.perLayer(&Runner{plan: &Plan{}}, Phase{Res: PhaseResult{Elapsed: time.Second}}, Phase{Res: PhaseResult{Elapsed: time.Second}}, LayerTimes{})
		} else {
			rec.endToEnd(Phase{}, 1, 1)
			rec.heapLive(1)
		}
		var names []string
		for _, m := range c.listed {
			names = append(names, m.Name)
			if got, ok := rec.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program reports %+v (present %v)", m.Name, m.Unit, got, ok)
			}
		}
		if !reflect.DeepEqual(names, rec.resultMetrics()) {
			t.Errorf("traced %v: BENCHMARK.json lists %v, result line carries %v", c.traced, names, rec.resultMetrics())
		}
	}
}

// TestBenchEndToEnd boots the fleet and runs every workload briefly,
// untraced and traced, checking the acceptance facts each workload was
// chosen for.
func TestBenchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the fleet")
	}
	dir := t.TempDir()
	// cache-churn builds a table only every dozen ops or so; its
	// traced case runs long enough that a zero count means no churn.
	for _, c := range []struct {
		workload string
		traced   bool
		seconds  int
	}{{hotRepeat, false, 1}, {hotRepeat, true, 1}, {cacheChurn, true, 3}, {sessionEdit, true, 1}} {
		rec, err := bench(c.workload, 5, c.seconds, c.traced, 1, dir, io.Discard)
		if err != nil {
			t.Fatalf("%s traced %v: %v", c.workload, c.traced, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Fatalf("%s traced %v: correct %v, %d of %d failed: %v", c.workload, c.traced, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
		}
		for _, n := range rec.resultMetrics() {
			if _, ok := rec.Metrics[n]; !ok {
				t.Errorf("%s: metric %s missing", c.workload, n)
			}
		}
		m := func(n string) float64 { return rec.Metrics[n].Value }
		switch {
		case !c.traced:
			if m("throughput_ops_s") <= 0 || m("latency_p50_ms") <= 0 || m("heap_live_mb") <= 0 {
				t.Errorf("%s: end-to-end metrics not measured: %+v", c.workload, rec.Metrics)
			}
		case c.workload == hotRepeat:
			if m("service.cache.hit_ratio") != 1 || m("service.cache.builds_per_kop") != 0 {
				t.Errorf("hot-repeat after warmup: hit ratio %v, builds/kop %v", m("service.cache.hit_ratio"), m("service.cache.builds_per_kop"))
			}
			if m("trace.decode.calls_per_op") == 0 || m("sched.gomcds.p50_ms") == 0 {
				t.Errorf("hot-repeat: decode and DP replays missing: %+v", rec.Metrics)
			}
		case c.workload == cacheChurn:
			for _, n := range []string{"service.cache.builds_per_kop", "service.cache.demotions_per_kop", "service.cache.promotions_per_kop"} {
				if m(n) <= 0 {
					t.Errorf("cache-churn: %s = %v, want > 0", n, m(n))
				}
			}
		case c.workload == sessionEdit:
			if m("trace.decode.calls_per_op") != 0 || m("delta.apply.p50_ms") == 0 {
				t.Errorf("session-edit: decode calls/op %v, delta.apply p50 %v", m("trace.decode.calls_per_op"), m("delta.apply.p50_ms"))
			}
		}
	}
}
