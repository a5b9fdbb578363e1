// Command perfbench is the repository's benchmark: it boots the
// deployed topology (one cluster router in front of two service shards)
// inside its own process on loopback sockets, drives it with a closed
// loop of nproc clients, checks every answer against serial single-node
// scheduling, and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each run also appends a
// record (seed, GOMAXPROCS, nproc, Go version, commit, every metric with
// its sample count, and the shard placement) to
// .bench_build/perfbench/ledger.jsonl, and prints the median and
// quartiles of each metric across the ledger's runs of the workload.
// Traced runs write their spans to .bench_build/perfbench/spans-*.jsonl.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times a run boots and warms a fleet; setup_s
// is the median.
const setupRuns = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Metric is one reported number with its unit and, for percentiles
// and per-call times, the sample count behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for the run ledger and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	switch {
	case *seconds < 1:
		return fail(fmt.Errorf("--seconds %d < 1", *seconds))
	case *traced != 0 && *traced != 1:
		return fail(fmt.Errorf("--trace %d: want 0 or 1", *traced))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	rec, err := bench(*name, *seed, *seconds, *traced == 1, setupRuns, *out, stdout)
	if err != nil {
		return fail(err)
	}
	if err := appendLedger(*out, rec); err != nil {
		return fail(err)
	}
	if err := printSummary(stdout, *out, rec); err != nil {
		return fail(err)
	}
	if err := printResult(stdout, rec); err != nil {
		return fail(err)
	}
	if !rec.Correct {
		fmt.Fprintln(stderr, "perfbench: run failed:", strings.Join(rec.Errors, "; "))
		return 1
	}
	return 0
}

// bench runs one workload end to end and returns its record. An error
// means the run could not be measured at all; a measured run with
// failed ops or a broken invariant returns a record with Correct false.
// The closed loop has one client per core: more clients or connections
// than cores would measure the OS scheduler.
func bench(name string, seed int64, seconds int, traced bool, setups int, out string, log io.Writer) (*RunRecord, error) {
	clients := runtime.NumCPU()
	plan, err := NewPlan(name, seed, clients)
	if err != nil {
		return nil, err
	}
	if err := plan.checkDistinct(); err != nil {
		return nil, err
	}
	rec := newRunRecord(plan, seconds, traced)
	lap := time.Now()
	stage := func(step string) {
		rec.Timing[step] += time.Since(lap).Seconds()
		lap = time.Now()
	}
	refs, err := buildReferences(plan, clients)
	if err != nil {
		return nil, err
	}
	stage("references")
	// heap_live_mb is the live heap beyond this baseline, which holds
	// the plan and the reference answers.
	heapBase := liveHeap()

	var tracer *Tracer
	if traced {
		tracer = newTracer()
	}
	scraper := &http.Client{}
	defer scraper.CloseIdleConnections()

	// Set up several times and report the median; the last fleet stays
	// up for the measured phases.
	var runner *Runner
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if runner != nil {
			stage("setups")
			runner.close()
			runner.fleet.Close()
			// Each set-up starts from a collected heap, so it does not
			// pay for collecting the fleet it replaces.
			runner = nil
			runtime.GC()
			stage("teardowns")
		}
		start := time.Now()
		fleet, err := bootFleet(plan.CacheBytes, tracer)
		if err != nil {
			return nil, err
		}
		runner = newRunner(plan, refs, fleet, tracer)
		if err := runner.setup(); err != nil {
			runner.close()
			fleet.Close()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		pl, err := placementOf(plan, runner, scraper)
		if err != nil {
			runner.close()
			fleet.Close()
			return nil, err
		}
		if i > 0 && pl.Digest != rec.Placement.Digest {
			rec.fail(fmt.Sprintf("set-up %d placed keys differently from set-up 1", i+1))
		}
		rec.Placement = pl
	}
	stage("setups")
	defer func() {
		runner.close()
		runner.fleet.Close()
	}()
	if err := checkPlacementLedger(out, rec); err != nil {
		rec.fail(err.Error())
	}

	phaseDur := time.Duration(seconds) * time.Second
	if !traced {
		// The phase and its per-op samples are out of scope before the
		// heap is read, so the heap figure is the fleet's.
		err := func() error {
			ph, err := measure(runner, scraper, phaseDur, false)
			if err != nil {
				return err
			}
			rec.addPhase(ph)
			rec.endToEnd(ph, median(setupTimes), len(setupTimes))
			return nil
		}()
		if err != nil {
			return nil, err
		}
		heap, settle := runner.settledHeap()
		rec.Attempted += settle.Attempted
		rec.Failed += settle.Failed
		if settle.Failed > 0 {
			rec.fail(fmt.Sprintf("after the measured phase: %d of %d ops failed: %s", settle.Failed, settle.Attempted, strings.Join(settle.Errors, "; ")))
		}
		rec.heapLive((heap - float64(heapBase)) / 1e6)
	} else {
		base, err := measure(runner, scraper, phaseDur/2, false)
		if err != nil {
			return nil, err
		}
		rec.addPhase(base)
		if plan.SessionOwner != nil {
			if err := runner.openMirrors(); err != nil {
				return nil, err
			}
		}
		tracer.enabled.Store(true)
		ph, err := measure(runner, scraper, phaseDur/2, true)
		tracer.enabled.Store(false)
		if err != nil {
			return nil, err
		}
		rec.addPhase(ph)
		rec.perLayer(runner, ph, base, tracer.analyze())
		path := fmt.Sprintf("%s/spans-%s-%d.jsonl", out, name, seed)
		if err := tracer.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans: %s\n", path)
	}
	stage("measure")
	// A session schedule that fails its check is a failed op.
	for _, err := range runner.checkSessions() {
		rec.Failed++
		rec.fail(err.Error())
	}
	stage("session_checks")
	if rec.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op was attempted in %ds", name, seconds)
	}
	return rec, nil
}

// checkDistinct rejects a plan whose traces collide: the cache and
// placement figures assume every trace is its own key.
func (p *Plan) checkDistinct() error {
	seen := make(map[string]int, len(p.Traces))
	for i, tr := range p.Traces {
		fp := tr.Fingerprint().String()
		if j, ok := seen[fp]; ok {
			return fmt.Errorf("%s: traces %d and %d are identical", p.Name, j, i)
		}
		seen[fp] = i
	}
	return nil
}

// Phase is one measured closed-loop phase with its resource and
// counter deltas.
type Phase struct {
	Res      PhaseResult
	Counters Counters // /stats deltas over the phase
	CPU      time.Duration
	Alloc    uint64 // bytes allocated by the whole process
	Decodes  map[int]int
}

func (ph Phase) ok() uint64 { return ph.Res.Attempted - ph.Res.Failed }

func measure(r *Runner, scraper *http.Client, dur time.Duration, traced bool) (Phase, error) {
	var ph Phase
	before, err := r.fleet.scrape(scraper)
	if err != nil {
		return ph, err
	}
	cpu0 := cpuTime()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.replay.decodes = make(map[int]int)
	ph.Res = r.run(dur, 0, traced)
	ph.CPU = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.Alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.Decodes = r.replay.decodes
	r.fleet.Router.WaitReplicaFills()
	after, err := r.fleet.scrape(scraper)
	if err != nil {
		return ph, err
	}
	ph.Counters = sub(before, after)
	return ph, nil
}

// heapReadings is how many live-heap readings heap_live_mb is the
// median of. Which tables are hot, each with its model, changes from op
// to op, so one reading would report the cache state of one instant.
const heapReadings = 11

// settleOps is how many untimed ops each client runs between two heap
// readings, enough to change the cache state in between.
const settleOps = 50

// settledHeap takes heapReadings live-heap readings after the measured
// phase, running settleOps more ops of the workload per client between
// two readings, and returns their median with what those ops did.
func (r *Runner) settledHeap() (float64, PhaseResult) {
	var readings []float64
	var settle PhaseResult
	for i := 0; i < heapReadings; i++ {
		if i > 0 {
			res := r.run(0, settleOps, false)
			settle.Attempted += res.Attempted
			settle.Failed += res.Failed
			settle.Errors = append(settle.Errors, res.Errors...)
		}
		readings = append(readings, float64(liveHeap()))
	}
	return median(readings), settle
}

// liveHeap is the heap in use after a forced garbage collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
