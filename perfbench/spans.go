package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// traceHeader carries "op.parent" span IDs from the client to the
// router and from the router's transport to a shard.
const traceHeader = "X-Perfbench-Span"

// Span names recorded at the layer boundaries.
const (
	spanClient = "client"
	spanRouter = "cluster.router"
	spanShard  = "service.shard"
)

// Span is one timed interval. Spans of one op share Op; background
// traffic (replica fills, peer fetches, health probes) has Op 0 and no
// parent.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Shard spans of ops: the stage names the service recorded on the
	// request context (which inner steps ran), and whether the shard's
	// demotion counter moved during the request.
	Stages  []string `json:"stages,omitempty"`
	Demoted bool     `json:"demoted,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. Spans are recorded
// only by the benchmark's own wrappers, transport and replays.
type Tracer struct {
	base    time.Time
	enabled atomic.Bool
	ids     atomic.Uint64

	mu      sync.Mutex
	spans   []Span
	shardOf map[uint64]int // op -> index of its shard span
}

func newTracer() *Tracer {
	return &Tracer{base: time.Now(), shardOf: make(map[uint64]int)}
}

func (t *Tracer) newID() uint64 { return t.ids.Add(1) }

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if s.Name == spanShard && s.Op != 0 {
		t.shardOf[s.Op] = len(t.spans)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// shardSpan returns the op's shard span, if the op reached a shard (a
// coalesced follower did not).
func (t *Tracer) shardSpan(op uint64) (Span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.shardOf[op]
	if !ok {
		return Span{}, false
	}
	return t.spans[i], true
}

// timed runs fn as a replayed inner step of op under parent.
func (t *Tracer) timed(op, parent uint64, name string, fn func()) {
	start := t.now()
	fn()
	t.record(Span{ID: t.newID(), Parent: parent, Op: op, Name: name, Start: start, End: t.now()})
}

type spanKey struct{}

type spanRef struct{ op, id uint64 }

func parseTraceHeader(v string) (op, parent uint64) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return 0, 0
	}
	op, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return op, parent
}

// wrapRouter records a cluster.router span around the router handler
// and hands its ID to the upstream transport through the request
// context.
func (t *Tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op, parent := parseTraceHeader(r.Header.Get(traceHeader))
		s := Span{ID: t.newID(), Parent: parent, Op: op, Name: spanRouter, Path: r.URL.Path, Start: t.now()}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{op, s.ID})))
		s.End = t.now()
		t.record(s)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// transport stamps the router span carried by the request context onto
// the upstream request. Requests without one (replica fills, peer
// fetches, health probes) go out unstamped.
func (t *Tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		ref, ok := r.Context().Value(spanKey{}).(spanRef)
		if !ok || !t.enabled.Load() {
			return base.RoundTrip(r)
		}
		r2 := r.Clone(r.Context())
		r2.Header.Set(traceHeader, fmt.Sprintf("%d.%d", ref.op, ref.id))
		return base.RoundTrip(r2)
	})
}

// wrapShard records a service.shard span around a shard handler. The
// span ends when the handler starts its response, so it is recorded
// before any byte of the response leaves the shard.
func (t *Tracer) wrapShard(svc *service.Service, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op, parent := parseTraceHeader(r.Header.Get(traceHeader))
		sw := &spanWriter{ResponseWriter: w, t: t, svc: svc,
			span: Span{ID: t.newID(), Parent: parent, Op: op, Name: spanShard, Path: r.URL.Path, Start: t.now()}}
		if op != 0 {
			sw.demotions = svc.Stats().CacheDemotions
			r = r.WithContext(obs.WithStages(r.Context(), func(stage string, _ time.Duration) {
				sw.mu.Lock()
				sw.span.Stages = append(sw.span.Stages, stage)
				sw.mu.Unlock()
			}))
		}
		h.ServeHTTP(sw, r)
		sw.finish()
	})
}

type spanWriter struct {
	http.ResponseWriter
	t         *Tracer
	svc       *service.Service
	demotions uint64

	mu   sync.Mutex
	span Span
	done bool
}

func (w *spanWriter) finish() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	w.done = true
	w.span.End = w.t.now()
	if w.span.Op != 0 {
		w.span.Demoted = w.svc.Stats().CacheDemotions != w.demotions
	}
	w.t.record(w.span)
}

func (w *spanWriter) WriteHeader(code int) {
	w.finish()
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanWriter) Write(b []byte) (int, error) {
	w.finish()
	return w.ResponseWriter.Write(b)
}

// writeSpans writes every span, one JSON object per line.
func (t *Tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Names of the replayed inner steps, and the per-layer p50 metric each
// feeds.
var replayMetric = map[string]string{
	"trace.Decode":                      "trace.decode.p50_ms",
	"Trace.Fingerprint":                 "trace.fingerprint.p50_ms",
	"cost.NewModel+BuildResidenceTable": "cost.build.p50_ms",
	"cost.DecodeTableV2+NewModel":       "cost.promote.p50_ms",
	"cost.EncodeTableV2":                "cost.demote.p50_ms",
	"Model.Evaluate":                    "cost.evaluate.p50_ms",
	"GOMCDS.Schedule":                   "sched.gomcds.p50_ms",
	"LOMCDS.Schedule":                   "sched.lomcds.p50_ms",
	"SCDS.Schedule":                     "sched.scds.p50_ms",
	"delta.Session.Apply":               "delta.apply.p50_ms",
	"delta.Session.Schedule":            "delta.schedule.p50_ms",
}

// LayerTimes is the span analysis of one traced phase.
type LayerTimes struct {
	RelaySelf   []time.Duration // router span minus its shard span
	ShardSelf   []time.Duration // shard span minus its replayed inner steps
	Inner       map[string][]time.Duration
	DecodeCalls int // "decode" stages the shards recorded for ops
	Unattrib    float64
}

// analyze computes self times from the span tree of the traced ops.
func (t *Tracer) analyze() LayerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	lt := LayerTimes{Inner: make(map[string][]time.Duration)}
	var clientTotal, outside time.Duration
	for _, s := range t.spans {
		switch s.Name {
		case spanClient:
			clientTotal += s.dur()
			own := s.dur()
			for _, c := range children[s.ID] {
				if t.spans[c].Name == spanRouter {
					own -= t.spans[c].dur()
				}
			}
			outside += own
		case spanRouter:
			var shards []Span
			for _, c := range children[s.ID] {
				if t.spans[c].Name == spanShard {
					shards = append(shards, t.spans[c])
				}
			}
			if len(shards) == 1 {
				lt.RelaySelf = append(lt.RelaySelf, s.dur()-shards[0].dur())
			}
		case spanShard:
			if s.Op == 0 {
				continue
			}
			self := s.dur()
			for _, c := range children[s.ID] {
				self -= t.spans[c].dur()
			}
			lt.ShardSelf = append(lt.ShardSelf, self)
			for _, st := range s.Stages {
				if st == "decode" {
					lt.DecodeCalls++
				}
			}
		default:
			if _, ok := replayMetric[s.Name]; ok {
				lt.Inner[s.Name] = append(lt.Inner[s.Name], s.dur())
			}
		}
	}
	if clientTotal > 0 {
		lt.Unattrib = float64(outside) / float64(clientTotal)
	}
	return lt
}

// percentileMS returns the q-quantile (nearest rank) of ds in ms, or 0
// for no samples.
func percentileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// mallocsOf returns the fewest heap allocations fn made over a few
// calls; other goroutines only ever add to the count.
func mallocsOf(fn func()) uint64 {
	var best uint64
	var a, b runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		if n := b.Mallocs - a.Mallocs; i == 0 || n < best {
			best = n
		}
	}
	return best
}
