package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// Placement is where the ring put a workload's keys: each shard's
// primary-key count and live session count, and a digest of the full
// key -> shard map. Keys is a digest of the keys alone, so two runs
// over the same inputs can be told apart from runs over changed ones.
type Placement struct {
	PrimaryKeys map[string]int `json:"primary_keys"`
	Sessions    map[string]int `json:"sessions"`
	Keys        string         `json:"keys"`
	Digest      string         `json:"digest"`
}

func placementOf(p *Plan, r *Runner, scraper *http.Client) (Placement, error) {
	pl := Placement{PrimaryKeys: make(map[string]int), Sessions: make(map[string]int)}
	h, keys := sha256.New(), sha256.New()
	for _, tr := range p.Traces {
		fp := tr.Fingerprint()
		keys.Write(fp[:])
		owner, ok := r.fleet.Router.Ring().Owner(fp[:])
		if !ok {
			return pl, errors.New("placement: ring has no owner")
		}
		pl.PrimaryKeys[owner]++
		fmt.Fprintf(h, "%s %s\n", fp, owner)
	}
	c, err := r.fleet.scrape(scraper)
	if err != nil {
		return pl, err
	}
	for i, s := range c.Shards {
		pl.Sessions[shardNames[i]] = s.SessionsActive
		fmt.Fprintf(h, "sessions %s %d\n", shardNames[i], s.SessionsActive)
	}
	pl.Keys = hex.EncodeToString(keys.Sum(nil))[:16]
	pl.Digest = hex.EncodeToString(h.Sum(nil))
	return pl, nil
}

// RunRecord is one run's ledger entry.
type RunRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Seconds    int                `json:"seconds"`
	Clients    int                `json:"clients"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Started    string             `json:"started"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	Correct    bool               `json:"correct"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]Metric  `json:"metrics"`
	Windows    []string           `json:"windows,omitempty"`
	Timing     map[string]float64 `json:"timing_s"` // wall seconds per stage of the run
	Placement  Placement          `json:"placement"`
}

func newRunRecord(p *Plan, seconds int, traced bool) *RunRecord {
	return &RunRecord{
		Workload:   p.Name,
		Seed:       p.Seed,
		Traced:     traced,
		Seconds:    seconds,
		Clients:    p.Clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
		Correct:    true,
		Metrics:    make(map[string]Metric),
		Timing:     make(map[string]float64),
	}
}

// commit names the checked-out revision, or "unknown" outside a git
// work tree.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (rec *RunRecord) fail(msg string) {
	rec.Correct = false
	if len(rec.Errors) < 10 {
		rec.Errors = append(rec.Errors, msg)
	}
}

// addPhase folds a measured phase's op counts into the record and
// asserts its counter conservation laws.
func (rec *RunRecord) addPhase(ph Phase) {
	rec.Attempted += ph.Res.Attempted
	rec.Failed += ph.Res.Failed
	if ph.Res.Failed > 0 {
		rec.fail(fmt.Sprintf("%d of %d ops failed: %s", ph.Res.Failed, ph.Res.Attempted, strings.Join(ph.Res.Errors, "; ")))
	}
	if err := checkConservation(ph.Res.ScheduleOps, ph.Counters); err != nil {
		rec.fail("conservation: " + err.Error())
	}
}

func (rec *RunRecord) set(name string, value float64, unit string, samples int) {
	rec.Metrics[name] = Metric{Value: value, Unit: unit, Samples: samples}
}

// perKop scales a count to per-thousand-ops.
func perKop(count uint64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(count) * 1000 / float64(ops)
}

// endToEnd sets the untraced run's metrics. Throughput, latency
// percentiles and CPU per op are medians over the phase's windows; the
// sample count is the fewest latencies any window's percentiles rest on.
func (rec *RunRecord) endToEnd(ph Phase, setup float64, setups int) {
	var tput, p50, p99, cpu []float64
	fewest := len(ph.Res.Samples)
	for _, w := range ph.Res.windows() {
		secs := w.Dur.Seconds()
		tput = append(tput, float64(w.Ops)/secs)
		p50 = append(p50, percentileMS(w.Lats, 0.50))
		p99 = append(p99, percentileMS(w.Lats, 0.99))
		cpu = append(cpu, float64(w.CPU)/float64(time.Millisecond)/float64(max(w.Ops, 1)))
		fewest = min(fewest, len(w.Lats))
	}
	rec.Windows = nil
	for i := range tput {
		rec.Windows = append(rec.Windows, fmt.Sprintf("window %d: %.1f ops/s p50 %.3f ms p99 %.3f ms cpu %.3f ms/op", i+1, tput[i], p50[i], p99[i], cpu[i]))
	}
	ok := int(ph.ok())
	rec.set("setup_s", setup, "s", setups)
	rec.set("throughput_ops_s", median(tput), "1/s", ok)
	rec.set("latency_p50_ms", median(p50), "ms", fewest)
	rec.set("latency_p99_ms", median(p99), "ms", fewest)
	rec.set("cpu_ms_per_op", median(cpu), "ms", ok)
	rec.set("error_ratio", float64(ph.Res.Failed)/float64(max(ph.Res.Attempted, 1)), "ratio", int(ph.Res.Attempted))
}

// heapLive sets the live heap the fleet holds at the end of the run.
func (rec *RunRecord) heapLive(mb float64) { rec.set("heap_live_mb", mb, "MB", 1) }

// Window is one slice of a timed phase.
type Window struct {
	Ops  uint64
	Dur  time.Duration
	CPU  time.Duration
	Lats []time.Duration
}

func (res PhaseResult) windows() []Window {
	var ws []Window
	for i := 1; i < len(res.Marks); i++ {
		a, b := res.Marks[i-1], res.Marks[i]
		w := Window{Ops: b.Ops - a.Ops, Dur: b.At - a.At, CPU: b.CPU - a.CPU}
		for _, s := range res.Samples {
			if s.Done > a.At && s.Done <= b.At {
				w.Lats = append(w.Lats, s.Lat)
			}
		}
		ws = append(ws, w)
	}
	return ws
}

// perLayer sets the traced run's metrics from its counters, its span
// analysis and the untraced phase that preceded it.
func (rec *RunRecord) perLayer(r *Runner, ph, base Phase, lt LayerTimes) {
	ops := ph.ok()
	n := float64(max(ops, 1))
	d, tot := ph.Counters, ph.Counters.total()

	rec.set("cluster.relay.self_p50_ms", percentileMS(lt.RelaySelf, 0.5), "ms", len(lt.RelaySelf))
	rec.set("cluster.coalesced_per_op", float64(d.Router.Coalesced)/n, "count/op", int(ops))
	rec.set("cluster.replica_fills_per_kop", perKop(d.Router.ReplicaFills, ops), "count/kop", int(ops))

	rec.set("service.shard.self_p50_ms", percentileMS(lt.ShardSelf, 0.5), "ms", len(lt.ShardSelf))
	outcomes := tot.CacheHits + tot.CacheMisses + tot.CacheSharedBuild
	hit := 0.0
	if outcomes > 0 {
		hit = float64(tot.CacheHits) / float64(outcomes)
	}
	rec.set("service.cache.hit_ratio", hit, "ratio", int(outcomes))
	rec.set("service.cache.builds_per_kop", perKop(tot.TablesBuilt, ops), "count/kop", int(ops))
	rec.set("service.cache.promotions_per_kop", perKop(tot.CachePromotions, ops), "count/kop", int(ops))
	rec.set("service.cache.demotions_per_kop", perKop(tot.CacheDemotions, ops), "count/kop", int(ops))
	rec.set("service.cache.evictions_per_kop", perKop(tot.CacheEvictions, ops), "count/kop", int(ops))
	rec.set("service.cache.bytes_mb", float64(tot.CacheBytes)/1e6, "MB", len(d.Shards))
	rec.set("service.shed_per_kop", perKop(tot.RejectedOverload, ops), "count/kop", int(ops))

	decodes := lt.Inner["trace.Decode"]
	rec.set("trace.decode.calls_per_op", float64(lt.DecodeCalls)/n, "count/op", int(ops))
	rec.set("trace.decode.allocs_per_call", decodeAllocs(r.plan, ph.Decodes), "count", len(decodes))
	for span, metric := range replayMetric {
		rec.set(metric, percentileMS(lt.Inner[span], 0.5), "ms", len(lt.Inner[span]))
	}
	rec.set("delta.layers_recomputed_per_op", float64(ph.Res.Layers)/n, "count/op", int(ops))

	rec.set("runtime.alloc_kb_per_op", float64(ph.Alloc)/1024/n, "KiB/op", int(ops))
	rec.set("unattributed_share", lt.Unattrib, "ratio", int(ops))
	traced := float64(ops) / ph.Res.Elapsed.Seconds()
	untraced := float64(base.ok()) / base.Res.Elapsed.Seconds()
	ratio := 0.0
	if untraced > 0 {
		ratio = traced / untraced
	}
	rec.set("tracing.overhead_ratio", ratio, "ratio", int(ops))
}

// decodeAllocs is the mean heap allocations per trace.Decode call over
// the traced phase's replays, each trace measured once while the fleet
// is idle.
func decodeAllocs(p *Plan, counts map[int]int) float64 {
	var calls, allocs uint64
	for tr, n := range counts {
		text := p.TraceText[tr]
		a := mallocsOf(func() { _, _ = trace.Decode(strings.NewReader(text)) })
		calls += uint64(n)
		allocs += uint64(n) * a
	}
	if calls == 0 {
		return 0
	}
	return float64(allocs) / float64(calls)
}

// endToEndMetrics and perLayerMetrics are the metric names the result
// line carries, as BENCHMARK.json lists them.
var endToEndMetrics = []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_op", "heap_live_mb"}

var perLayerMetrics = []string{
	"cluster.relay.self_p50_ms", "cluster.coalesced_per_op", "cluster.replica_fills_per_kop",
	"service.shard.self_p50_ms", "service.cache.hit_ratio", "service.cache.builds_per_kop",
	"service.cache.promotions_per_kop", "service.cache.demotions_per_kop", "service.cache.evictions_per_kop",
	"service.cache.bytes_mb", "service.shed_per_kop",
	"trace.decode.p50_ms", "trace.decode.allocs_per_call", "trace.decode.calls_per_op", "trace.fingerprint.p50_ms",
	"cost.build.p50_ms", "cost.promote.p50_ms", "cost.demote.p50_ms", "cost.evaluate.p50_ms",
	"sched.gomcds.p50_ms", "sched.lomcds.p50_ms", "sched.scds.p50_ms",
	"delta.apply.p50_ms", "delta.schedule.p50_ms", "delta.layers_recomputed_per_op",
	"runtime.alloc_kb_per_op", "unattributed_share", "tracing.overhead_ratio",
}

func (rec *RunRecord) resultMetrics() []string {
	if rec.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printResult writes the human-readable metric lines, then the result
// object as the last line.
func printResult(w io.Writer, rec *RunRecord) error {
	names := slices.Clip(rec.resultMetrics())
	if !rec.Traced {
		names = append(names, "error_ratio")
	}
	fmt.Fprintf(w, "run: workload %s seed %d traced %v clients %d GOMAXPROCS %d nproc %d %s commit %s\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Clients, rec.GOMAXPROCS, rec.NProc, rec.GoVersion, rec.Commit)
	fmt.Fprintf(w, "placement: primary keys %v sessions %v\n", rec.Placement.PrimaryKeys, rec.Placement.Sessions)
	fmt.Fprintf(w, "timing: %v\n", rec.Timing)
	for _, win := range rec.Windows {
		fmt.Fprintln(w, win)
	}
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "metric %-34s %14.6f %-9s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, n := range rec.resultMetrics() {
		m := rec.Metrics[n]
		metrics[n] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendLedger(dir string, rec *RunRecord) error {
	f, err := os.OpenFile(filepath.Join(dir, "ledger.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readLedger returns the ledger's records of one workload and mode.
func readLedger(dir, workload string, traced bool) ([]RunRecord, error) {
	f, err := os.Open(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []RunRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r RunRecord
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload == workload && r.Traced == traced && r.Correct {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// Spread is one metric's median and quartiles across runs.
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

// printSummary prints each metric's median and quartiles across the
// ledger's correct runs of this workload and mode, and records them in
// summary-<workload>-<mode>.json beside the ledger.
func printSummary(w io.Writer, dir string, rec *RunRecord) error {
	recs, err := readLedger(dir, rec.Workload, rec.Traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ledger: %d correct runs of %s (traced %v)\n", len(recs), rec.Workload, rec.Traced)
	summary := make(map[string]Spread)
	for _, n := range rec.resultMetrics() {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[n]; ok {
				xs = append(xs, m.Value)
			}
		}
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		summary[n] = Spread{Median: q2, Q1: q1, Q3: q3, Runs: len(xs)}
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(w, "across-runs %-34s median %14.6f q1 %14.6f q3 %14.6f iqr/median %.4f runs %d\n", n, q2, q1, q3, spread, len(xs))
	}
	mode := "e2e"
	if rec.Traced {
		mode = "traced"
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("summary-%s-%s.json", rec.Workload, mode)), data, 0o644)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default exclusive method); it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// checkPlacementLedger fails a run whose placement differs from an
// earlier run of the same workload and seed over the same keys.
func checkPlacementLedger(dir string, rec *RunRecord) error {
	path := filepath.Join(dir, "placement.json")
	known := make(map[string]string)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &known); err != nil {
			return fmt.Errorf("placement record %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	key := fmt.Sprintf("%s/%d/%s", rec.Workload, rec.Seed, rec.Placement.Keys)
	if prev, ok := known[key]; ok {
		if prev != rec.Placement.Digest {
			return fmt.Errorf("placement of %s differs from an earlier run of the same seed", key)
		}
		return nil
	}
	known[key] = rec.Placement.Digest
	data, err := json.MarshalIndent(known, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
