package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/trace"
)

// sampledCheckpoints caps the seeded sample of non-final session
// schedules kept per session for checking.
const sampledCheckpoints = 6

// Runner drives one booted fleet with the plan's closed loop. Each
// client goroutine owns its cycle position and, in session-edit, its
// own sessions, so no per-session state is shared between clients.
type Runner struct {
	plan   *Plan
	refs   []*Reference
	fleet  *Fleet
	client *http.Client
	tracer *Tracer // nil when untraced

	pos []int // next cycle position per client

	// Session state, indexed by session, touched only by its owner.
	sessionIDs []string
	deltas     []int
	schedules  []int
	last       []Checkpoint
	sampled    [][]Checkpoint
	mirrors    []*delta.Session // traced phase only

	replay replayCache
}

func newRunner(p *Plan, refs []*Reference, f *Fleet, tracer *Tracer) *Runner {
	n := len(p.SessionOwner)
	return &Runner{
		plan:  p,
		refs:  refs,
		fleet: f,
		// At most one connection per client: the load never holds
		// more sockets than there are cores.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     p.Clients,
			MaxIdleConnsPerHost: p.Clients,
			DisableCompression:  true,
		}},
		tracer:     tracer,
		pos:        make([]int, p.Clients),
		sessionIDs: make([]string, n),
		deltas:     make([]int, n),
		schedules:  make([]int, n),
		last:       make([]Checkpoint, n),
		sampled:    make([][]Checkpoint, n),
		replay:     replayCache{entries: make(map[int]*replayEntry)},
	}
}

func (r *Runner) close() { r.client.CloseIdleConnections() }

// setup opens the sessions and warms the fleet: every distinct
// schedule spec once in order (hot-repeat), then WarmOps closed-loop
// ops per client from the start of each cycle, then waits out the
// replica fills the warmup triggered.
func (r *Runner) setup() error {
	for s := range r.plan.SessionOwner {
		body, err := json.Marshal(service.CreateSessionRequest{Trace: r.plan.TraceText[s], Algorithm: "gomcds"})
		if err != nil {
			return err
		}
		var info service.SessionInfo
		if err := r.postJSON("/session", body, http.StatusCreated, &info); err != nil {
			return fmt.Errorf("open session %d: %w", s, err)
		}
		r.sessionIDs[s] = info.SessionID
		if err := r.postJSON("/session/"+info.SessionID+"/schedule", nil, http.StatusOK, nil); err != nil {
			return fmt.Errorf("schedule session %d: %w", s, err)
		}
	}
	if r.plan.Name == hotRepeat {
		var buf bytes.Buffer
		for i := range r.plan.Specs {
			op := Op{Spec: i}
			err := r.exec(op, &buf, 0)
			if err == nil {
				err = r.check(op, buf.Bytes(), &PhaseResult{})
			}
			if err != nil {
				return fmt.Errorf("warm spec %d: %w", i, err)
			}
		}
	}
	res := r.run(0, r.plan.WarmOps, false)
	if res.Failed > 0 {
		return fmt.Errorf("warmup: %d of %d ops failed: %s", res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	r.fleet.Router.WaitReplicaFills()
	return nil
}

func (r *Runner) postJSON(path string, body []byte, want int, v any) error {
	resp, err := r.client.Post(r.fleet.RouterURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	if v != nil {
		return json.Unmarshal(buf.Bytes(), v)
	}
	return nil
}

// phaseWindows is the number of equal windows a timed phase is split
// into; rates and percentiles are reported as the median over windows,
// so a burst of outside interference moves one window, not the result.
const phaseWindows = 6

// Sample is one successful op: when it completed (since the phase
// started) and how long it took.
type Sample struct {
	Done, Lat time.Duration
}

// Mark is a window boundary: the time since the phase started, the
// successful ops completed by then and the process CPU time.
type Mark struct {
	At  time.Duration
	Ops uint64
	CPU time.Duration
}

// PhaseResult is what one closed-loop phase measured.
type PhaseResult struct {
	Samples     []Sample
	Marks       []Mark // phaseWindows+1 boundaries of a timed phase
	Attempted   uint64
	Failed      uint64
	ScheduleOps uint64 // /schedule ops sent
	Layers      uint64 // DP layers the session schedules reported recomputing
	Elapsed     time.Duration
	Errors      []string // the first few failures
}

func (a *PhaseResult) merge(b PhaseResult) {
	a.Samples = append(a.Samples, b.Samples...)
	a.Attempted += b.Attempted
	a.Failed += b.Failed
	a.ScheduleOps += b.ScheduleOps
	a.Layers += b.Layers
	if len(a.Errors) < 5 {
		a.Errors = append(a.Errors, b.Errors...)
	}
}

// run is the closed loop: every client sends its next op as soon as
// the previous one completes, for n ops each (n > 0) or until dur has
// passed. With traced set, each op carries span IDs and is followed by
// a replay of its inner steps.
func (r *Runner) run(dur time.Duration, n int, traced bool) PhaseResult {
	results := make([]PhaseResult, r.plan.Clients)
	var okOps atomic.Uint64
	var marks []Mark
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	if n <= 0 {
		marks = append(marks, Mark{CPU: cpuTime()})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= phaseWindows; i++ {
				time.Sleep(time.Until(start.Add(dur * time.Duration(i) / phaseWindows)))
				marks = append(marks, Mark{At: time.Since(start), Ops: okOps.Load(), CPU: cpuTime()})
			}
		}()
	}
	for c := 0; c < r.plan.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			var buf bytes.Buffer
			for i := 0; n <= 0 || i < n; i++ {
				if n <= 0 && !time.Now().Before(deadline) {
					break
				}
				op := r.plan.op(c, r.pos[c])
				r.pos[c]++
				var id uint64
				if traced {
					id = r.tracer.newID()
				}
				t0 := time.Now()
				err := r.exec(op, &buf, id)
				lat := time.Since(t0)
				if traced {
					end := r.tracer.now()
					r.tracer.record(Span{ID: id, Op: id, Name: spanClient, Start: end - int64(lat), End: end})
				}
				res.Attempted++
				if r.plan.SessionOwner == nil {
					res.ScheduleOps++
				}
				if err == nil {
					err = r.check(op, buf.Bytes(), res)
				}
				if err != nil {
					res.Failed++
					if len(res.Errors) < 5 {
						res.Errors = append(res.Errors, err.Error())
					}
					continue
				}
				okOps.Add(1)
				res.Samples = append(res.Samples, Sample{Done: t0.Sub(start) + lat, Lat: lat})
				if traced {
					r.replayOp(op, id)
				}
			}
		}(c)
	}
	wg.Wait()
	var total PhaseResult
	for _, res := range results {
		total.merge(res)
	}
	total.Elapsed = time.Since(start)
	total.Marks = marks
	return total
}

// exec sends one op and reads its whole response into buf. A non-2xx
// status is an error.
func (r *Runner) exec(op Op, buf *bytes.Buffer, id uint64) error {
	var url string
	var body []byte
	switch {
	case r.plan.SessionOwner == nil:
		url, body = r.fleet.RouterURL+"/schedule", r.plan.Bodies[op.Spec]
	case op.isDelta():
		url, body = r.fleet.RouterURL+"/session/"+r.sessionIDs[op.Session]+"/delta", op.Body
	default:
		url = r.fleet.RouterURL + "/session/" + r.sessionIDs[op.Session] + "/schedule"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(traceHeader, fmt.Sprintf("%d.%d", id, id))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", url[len(r.fleet.RouterURL):], resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	return nil
}

// check verifies one op's response outside the timed interval and
// advances the session bookkeeping.
func (r *Runner) check(op Op, body []byte, res *PhaseResult) error {
	if r.plan.SessionOwner == nil {
		if err := checkSchedule(r.refs[op.Spec], body); err != nil {
			return fmt.Errorf("spec %d: %w", op.Spec, err)
		}
		return nil
	}
	s := op.Session
	if op.isDelta() {
		var dr service.DeltaResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			return fmt.Errorf("session %d delta: %v", s, err)
		}
		r.deltas[s]++
		if dr.Seq != uint64(r.deltas[s]) {
			return fmt.Errorf("session %d: delta seq %d, client sent %d", s, dr.Seq, r.deltas[s])
		}
		return nil
	}
	layers, err := jsonIntField(body, "layers_recomputed")
	if err != nil {
		return fmt.Errorf("session %d schedule: %w", s, err)
	}
	res.Layers += uint64(layers)
	r.schedules[s]++
	r.last[s] = Checkpoint{Deltas: r.deltas[s], Body: append(r.last[s].Body[:0], body...)}
	if len(r.sampled[s]) < sampledCheckpoints && r.sample(s) {
		r.sampled[s] = append(r.sampled[s], Checkpoint{Deltas: r.deltas[s], Body: append([]byte(nil), body...)})
	}
	return nil
}

// sample decides, from the seed alone, whether a session's current
// schedule joins the checked sample.
func (r *Runner) sample(s int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", r.plan.Seed, s, r.schedules[s])
	return h.Sum64()%16 == 0
}

// jsonIntField reads an integer field from a JSON object without
// decoding the rest of it.
func jsonIntField(body []byte, name string) (int, error) {
	key := []byte(`"` + name + `"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, fmt.Errorf("no %s field", name)
	}
	rest := bytes.TrimLeft(body[i+len(key):], " \t\r\n")
	if len(rest) == 0 || rest[0] != ':' {
		return 0, fmt.Errorf("malformed %s field", name)
	}
	rest = bytes.TrimLeft(rest[1:], " \t\r\n")
	j := bytes.IndexAny(rest, ", \t\r\n}")
	if j < 0 {
		return 0, fmt.Errorf("unterminated %s field", name)
	}
	return strconv.Atoi(string(rest[:j]))
}

// checkSessions checks every session's last schedule and the seeded
// sample of earlier ones, returning one error per session that fails.
func (r *Runner) checkSessions() []error {
	var errs []error
	for s := range r.sessionIDs {
		var cps []Checkpoint
		for _, cp := range r.sampled[s] {
			if cp.Deltas < r.last[s].Deltas {
				cps = append(cps, cp)
			}
		}
		if r.last[s].Body != nil {
			cps = append(cps, r.last[s])
		}
		if err := checkSession(r.plan, s, cps); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// openMirrors gives the traced phase a client-side delta.Session per
// session, in the state the shard's session is in now, to replay delta
// ops against.
func (r *Runner) openMirrors() error {
	r.mirrors = make([]*delta.Session, len(r.sessionIDs))
	for s := range r.mirrors {
		tr := r.plan.Traces[s].Clone()
		deltas, err := r.plan.sessionDeltas(s, r.deltas[s])
		if err != nil {
			return err
		}
		for _, d := range deltas {
			if err := delta.Materialize(tr, d); err != nil {
				return err
			}
		}
		m, err := delta.NewSession(tr, sched.GOMCDS{}, 0, delta.Options{})
		if err != nil {
			return err
		}
		if _, err := m.Schedule(); err != nil {
			return err
		}
		r.mirrors[s] = m
	}
	return nil
}

// replayOp times the op's inner steps by direct calls into the public
// functions, parented to the op's shard span. It replays only what the
// shard recorded doing: a coalesced follower reached no shard and
// replays nothing.
func (r *Runner) replayOp(op Op, id uint64) {
	sp, ok := r.tracer.shardSpan(id)
	if r.plan.SessionOwner != nil {
		r.replaySession(op, id, sp, ok)
		return
	}
	if !ok {
		return
	}
	t := r.tracer
	spec := r.plan.Specs[op.Spec]
	text := r.plan.TraceText[spec.Trace]
	var tr *trace.Trace
	t.timed(id, sp.ID, "trace.Decode", func() { tr, _ = trace.Decode(strings.NewReader(text)) })
	r.replay.countDecode(spec.Trace)
	var fp trace.Fingerprint
	t.timed(id, sp.ID, "Trace.Fingerprint", func() { fp = tr.Fingerprint() })

	e := r.replay.get(spec.Trace)
	switch {
	case slices.Contains(sp.Stages, "table.build"):
		e = &replayEntry{}
		t.timed(id, sp.ID, "cost.NewModel+BuildResidenceTable", func() {
			e.model = cost.NewModel(tr)
			e.table = e.model.BuildResidenceTable()
		})
		r.replay.put(spec.Trace, e)
	case slices.Contains(sp.Stages, "table.promote"):
		if e == nil {
			e = newReplayEntry(tr)
			r.replay.put(spec.Trace, e)
		}
		payload := cost.EncodeTableV2(fp, e.table)
		t.timed(id, sp.ID, "cost.DecodeTableV2+NewModel", func() {
			_, _, _ = cost.DecodeTableV2(payload)
			_ = cost.NewModel(tr)
		})
	case e == nil:
		e = newReplayEntry(tr)
		r.replay.put(spec.Trace, e)
	}
	if sp.Demoted {
		// The demoted table is the cache's LRU victim, which the client
		// cannot see; the op's own table stands in for it.
		t.timed(id, sp.ID, "cost.EncodeTableV2", func() { _ = cost.EncodeTableV2(fp, e.table) })
	}
	scheduler, _ := sched.ByName(spec.Algorithm)
	p := &sched.Problem{Model: e.model, Table: e.table, Capacity: spec.Capacity}
	var s cost.Schedule
	t.timed(id, sp.ID, scheduler.Name()+".Schedule", func() { s, _ = scheduler.Schedule(p) })
	t.timed(id, sp.ID, "Model.Evaluate", func() { _ = e.model.Evaluate(s) })
}

// replaySession applies the op to the session's mirror, timed when the
// op's shard span is known (the mirror must follow every delta either
// way).
func (r *Runner) replaySession(op Op, id uint64, sp Span, ok bool) {
	m := r.mirrors[op.Session]
	run := func(name string, fn func()) {
		if ok {
			r.tracer.timed(id, sp.ID, name, fn)
		} else {
			fn()
		}
	}
	if op.isDelta() {
		d, err := op.delta()
		if err != nil {
			return // the same body the shard accepted; cannot happen
		}
		run("delta.Session.Apply", func() { _, _ = m.Apply(d) })
		return
	}
	run("delta.Session.Schedule", func() { _, _ = m.Schedule() })
}

type replayEntry struct {
	model *cost.Model
	table cost.ResidenceTable
}

func newReplayEntry(tr *trace.Trace) *replayEntry {
	m := cost.NewModel(tr)
	return &replayEntry{model: m, table: m.BuildResidenceTable()}
}

// replayCache holds the replays' models and tables, so a replayed hit
// does not rebuild one; it is cleared whenever it outgrows its cell
// budget.
type replayCache struct {
	mu      sync.Mutex
	entries map[int]*replayEntry
	cells   int
	decodes map[int]int // replayed trace.Decode calls per trace
}

func (c *replayCache) countDecode(tr int) {
	c.mu.Lock()
	c.decodes[tr]++
	c.mu.Unlock()
}

const replayCacheCells = 8 << 20

func (c *replayCache) get(tr int) *replayEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[tr]
}

func (c *replayCache) put(tr int, e *replayEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cells+len(e.table.Cells()) > replayCacheCells {
		c.entries = make(map[int]*replayEntry)
		c.cells = 0
	}
	if old := c.entries[tr]; old != nil {
		c.cells -= len(old.table.Cells())
	}
	c.entries[tr] = e
	c.cells += len(e.table.Cells())
}
