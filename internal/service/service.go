// Package service turns the one-shot schedulers of internal/sched into
// a long-running, concurrency-bounded scheduling shard: the unit the
// cluster router (internal/cluster) places traces on.
//
// A Service accepts schedule requests (a trace in the pimtrace v1 text
// codec plus an algorithm name and memory capacity), runs the requested
// scheduler, and returns the center matrix with its cost breakdown.
// /schedule and /schedule/batch share one pipeline: a single request is
// a one-spec batch. Three properties distinguish it from calling sched
// directly:
//
//   - Model reuse. Cost models and residence tables — the dominant cost
//     of a scheduler run — are cached by the trace's canonical
//     trace.Fingerprint in a bytes-bounded two-tier cache: flat tables
//     in the hot tier, compressed pimtab-v2 payloads in the cold tier
//     (see cache.go). Requests carrying a trace already seen skip the
//     rebuild; concurrent misses on the same fingerprint are
//     deduplicated so the table is built exactly once (singleflight).
//   - Bounded concurrency. At most MaxInflight schedule computations
//     run at once; excess load is shed immediately with ErrOverloaded
//     (HTTP 429 + Retry-After) instead of queuing unboundedly.
//   - Deadlines and drain. Every request runs under a context; when it
//     expires the caller gets the context error at once while the
//     abandoned computation finishes in the background, still holding
//     its concurrency slot. Close refuses new requests and waits for
//     all in-flight work, so shutdown never strands a computation.
//
// The cached entries are capacity-independent (the residence table
// depends only on the trace), so requests that share a trace but differ
// in algorithm or capacity still share one table.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Defaults for Config fields left zero.
const (
	DefaultCacheSize    = 64
	DefaultMaxBodyBytes = 32 << 20

	// DefaultMaxTableCells matches the codec's 1 GiB payload ceiling
	// (cost.MaxTableCodecCells), so any table a shard will build is also
	// one a peer can ship.
	DefaultMaxTableCells = 128 << 20

	// DefaultTableBytes is the per-table allowance used to derive the
	// byte budget when Config.CacheBytes is unset: CacheSize tables of
	// this size keep the default deployment's memory ceiling in the same
	// regime the entry-capped cache had.
	DefaultTableBytes = 4 << 20
)

// ErrOverloaded is returned when MaxInflight computations are already
// running; the HTTP layer maps it to 429 with a Retry-After header.
var ErrOverloaded = errors.New("service: overloaded")

// ErrClosed is returned for requests arriving after Close began.
var ErrClosed = errors.New("service: shutting down")

// RequestError marks a client-side error (malformed trace, unknown
// algorithm, oversized body); the HTTP layer maps it to 400.
type RequestError struct {
	Err error
}

func (e *RequestError) Error() string { return "service: bad request: " + e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// Config tunes a Service. The zero value is usable: unbounded
// concurrency, no server-side deadline, DefaultCacheSize cache entries
// and DefaultMaxBodyBytes request bodies.
type Config struct {
	// MaxInflight bounds concurrent schedule computations (table builds
	// and scheduler runs); <= 0 means unbounded. Excess requests are
	// shed with ErrOverloaded, never queued.
	MaxInflight int

	// CacheSize is the number of {model, residence table} entries the
	// fingerprint-keyed LRU holds across both tiers; <= 0 means
	// DefaultCacheSize. Entries over the cap are evicted outright.
	CacheSize int

	// CacheBytes bounds the summed bytes of cached residence tables:
	// flat cells in the hot tier, compressed pimtab-v2 payloads in the
	// cold tier. Over budget, hot tables are demoted (compressed, kept
	// resident) before anything is evicted. <= 0 derives
	// CacheSize x DefaultTableBytes.
	CacheBytes int64

	// DisableColdTier reverts to a flat one-tier LRU under the same
	// byte budget: over-budget tables are evicted instead of demoted.
	// An ablation and benchmarking knob (scripts/bench.sh uses it to
	// measure what the cold tier saves), not a production setting.
	DisableColdTier bool

	// Timeout is the server-side deadline applied to every request on
	// top of the caller's context; <= 0 means none.
	Timeout time.Duration

	// MaxBodyBytes bounds the request body and the inline trace text;
	// <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// MaxSessions bounds concurrently live incremental sessions (each
	// holds a residence table and per-item DP state in memory); <= 0
	// means DefaultMaxSessions. Excess creations are shed with
	// ErrOverloaded.
	MaxSessions int

	// MaxBatchSpecs bounds the request specs one POST /schedule/batch
	// call may carry; <= 0 means DefaultMaxBatchSpecs.
	MaxBatchSpecs int

	// MaxTableCells bounds the residence table implied by a decoded
	// trace's declared shape (windows x data x processors); <= 0 means
	// DefaultMaxTableCells. A few directive bytes can declare an
	// arbitrarily large array, so body size alone does not bound the
	// work a request commits the service to — this does.
	MaxTableCells int64

	// PeerFill, when set, is consulted by an elected builder before it
	// computes a residence table locally: given the fingerprint and the
	// peer base URL the router supplied (the ring's previous owner of
	// the key), it returns the peer's cached table. Any error — peer
	// down, table not cached there, deadline, corrupt payload — is a
	// silent fallback to the local build. internal/cluster provides the
	// HTTP implementation over GET /table/{fingerprint}.
	PeerFill PeerFillFunc

	// PeerFillTimeout bounds one peer-fill fetch; <= 0 means
	// DefaultPeerFillTimeout. It deliberately stays well under a table
	// build's worst case: a slow peer must never cost more than the
	// rebuild it was meant to save.
	PeerFillTimeout time.Duration
}

// PeerFillFunc fetches a peer's cached {model, residence table} for a
// fingerprint. peerURL is the base URL of the shard to ask; the
// returned table must have been built from the exact trace the
// fingerprint names (implementations verify the fingerprint echoed in
// the payload).
type PeerFillFunc func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error)

// DefaultPeerFillTimeout bounds a peer-fill fetch when
// Config.PeerFillTimeout is zero.
const DefaultPeerFillTimeout = 500 * time.Millisecond

func (c Config) peerFillTimeout() time.Duration {
	if c.PeerFillTimeout <= 0 {
		return DefaultPeerFillTimeout
	}
	return c.PeerFillTimeout
}

func (c Config) cacheSize() int {
	if c.CacheSize <= 0 {
		return DefaultCacheSize
	}
	return c.CacheSize
}

func (c Config) cacheBytes() int64 {
	if c.CacheBytes <= 0 {
		return int64(c.cacheSize()) * DefaultTableBytes
	}
	return c.CacheBytes
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return DefaultMaxBodyBytes
	}
	return c.MaxBodyBytes
}

func (c Config) maxTableCells() int64 {
	if c.MaxTableCells <= 0 {
		return DefaultMaxTableCells
	}
	return c.MaxTableCells
}

// ingestTrace is the one intake path of every trace-carrying request:
// the size limit on the inline text, the timed pimtrace decode, and the
// scale guard, which rejects a trace whose declared shape implies a
// residence table over the cell budget. The product is taken in
// float64: each factor has already been validated non-negative, but
// their product can overflow int64 and a guard that overflows is no
// guard.
func (s *Service) ingestTrace(stages obs.Stages, text string) (*trace.Trace, error) {
	if int64(len(text)) > s.cfg.maxBodyBytes() {
		return nil, badRequest("trace text %d bytes exceeds limit %d", len(text), s.cfg.maxBodyBytes())
	}
	sp := stages.Start("decode")
	tr, err := trace.Decode(strings.NewReader(text))
	sp.End()
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	cells := float64(tr.NumWindows()) * float64(tr.NumData) *
		float64(tr.Grid.Width()) * float64(tr.Grid.Height())
	if cells > float64(s.cfg.maxTableCells()) {
		return nil, badRequest("trace shape %d windows x %d data x %s implies %.3g residence-table cells, limit %d",
			tr.NumWindows(), tr.NumData, tr.Grid, cells, s.cfg.maxTableCells())
	}
	return tr, nil
}

// checkSpec is the one algorithm and capacity validation of every
// scheduling entry point. The error is bare: callers wrap it as their
// request error.
func checkSpec(algorithm string, capacity int) (sched.Scheduler, error) {
	scheduler, err := sched.ByName(algorithm)
	if err == nil && capacity < 0 {
		err = fmt.Errorf("negative capacity %d", capacity)
	}
	return scheduler, err
}

// checkTableShape cross-checks a table this request did not build
// itself (a peer fill, a cold-tier promotion, a prefill) against the
// trace it is meant to serve.
func checkTableShape(table cost.ResidenceTable, tr *trace.Trace) error {
	if table.NumWindows() != tr.NumWindows() || table.NumData() != tr.NumData ||
		table.NumProcs() != tr.Grid.NumProcs() {
		return fmt.Errorf("table shape %dx%dx%d does not match trace %dx%dx%d",
			table.NumWindows(), table.NumData(), table.NumProcs(),
			tr.NumWindows(), tr.NumData, tr.Grid.NumProcs())
	}
	return nil
}

// Request is one scheduling job: a trace in the pimtrace v1 text
// format, the algorithm to run, and the per-processor memory capacity
// (0 = unbounded). Verify additionally re-checks the schedule with the
// independent referee (internal/verify) before responding.
type Request struct {
	Trace     string `json:"trace"`
	Algorithm string `json:"algorithm"`
	Capacity  int    `json:"capacity"`
	Verify    bool   `json:"verify,omitempty"`

	// PeerHint is the base URL of the shard to ask for a cached table
	// before building one locally, set by the HTTP layer from the
	// router's X-Pim-Peer header — never from the request body, so
	// clients cannot steer the service at arbitrary URLs.
	PeerHint string `json:"-"`
}

// CostJSON is a cost breakdown in a response.
type CostJSON struct {
	Residence int64 `json:"residence"`
	Move      int64 `json:"move"`
	Total     int64 `json:"total"`
}

// Response carries the schedule, its cost, and per-request telemetry.
type Response struct {
	Algorithm   string    `json:"algorithm"`
	Grid        string    `json:"grid"`
	NumData     int       `json:"num_data"`
	NumWindows  int       `json:"num_windows"`
	Capacity    int       `json:"capacity"`
	Centers     [][]int   `json:"centers"`
	Cost        CostJSON  `json:"cost"`
	Verified    *CostJSON `json:"verified,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	CacheHit    bool      `json:"cache_hit"`
	ElapsedUS   int64     `json:"elapsed_us"`
}

// Stats is a snapshot of the service's counters, served at /stats.
type Stats struct {
	Requests          uint64 `json:"requests"`
	Completed         uint64 `json:"completed"`
	RejectedOverload  uint64 `json:"rejected_overload"`
	RejectedClosed    uint64 `json:"rejected_closed"`
	BadRequests       uint64 `json:"bad_requests"`
	DeadlineExpired   uint64 `json:"deadline_expired"`
	Errors            uint64 `json:"errors"`
	Inflight          int64  `json:"inflight"`
	TablesBuilt       uint64 `json:"tables_built"`
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	CacheSharedBuild  uint64 `json:"cache_shared_builds"`
	CacheEvictions    uint64 `json:"cache_evictions"`
	CacheEntries      int    `json:"cache_entries"`
	CacheHotEntries   int    `json:"cache_hot_entries"`
	CacheColdEntries  int    `json:"cache_cold_entries"`
	CacheBytes        int64  `json:"cache_bytes"`
	CacheDemotions    uint64 `json:"cache_demotions"`
	CachePromotions   uint64 `json:"cache_promotions"`
	CacheAdmitRejects uint64 `json:"cache_admission_rejects"`
	SessionsCreated   uint64 `json:"sessions_created"`
	SessionsActive    int    `json:"sessions_active"`
	DeltasApplied     uint64 `json:"deltas_applied"`
	Batches           uint64 `json:"batches"`
	BatchSpecs        uint64 `json:"batch_specs"`
	PeerFills         uint64 `json:"peer_fills"`
	PeerFillFallback  uint64 `json:"peer_fill_fallbacks"`
	TablesServed      uint64 `json:"tables_served"`
	TablesPrefilled   uint64 `json:"tables_prefilled"`
	SessionsExported  uint64 `json:"sessions_exported"`
	SessionsImported  uint64 `json:"sessions_imported"`
}

// Service is a concurrent scheduling service. Create one with New; it
// is safe for use by any number of goroutines.
type Service struct {
	cfg   Config
	cache *tableCache
	slots chan struct{} // nil when MaxInflight <= 0

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // all request work, incl. abandoned background runs

	// sessions are the live incremental scheduling sessions, keyed by
	// service-assigned ID; sessionSeq mints those IDs.
	sessions   map[string]*sessionEntry
	sessionSeq uint64

	requests         atomic.Uint64
	completed        atomic.Uint64
	rejectedOverload atomic.Uint64
	rejectedClosed   atomic.Uint64
	badRequests      atomic.Uint64
	deadlineExpired  atomic.Uint64
	internalErrors   atomic.Uint64
	inflight         atomic.Int64
	tablesBuilt      atomic.Uint64
	sessionsCreated  atomic.Uint64
	deltasApplied    atomic.Uint64
	batches          atomic.Uint64
	batchSpecs       atomic.Uint64
	peerFills        atomic.Uint64
	peerFillFallback atomic.Uint64
	tablesServed     atomic.Uint64
	tablesPrefilled  atomic.Uint64
	sessionsExported atomic.Uint64
	sessionsImported atomic.Uint64

	// deltaLayersRecomputed remembers the layer count of the most recent
	// session schedule computation, exposed as a gauge: near zero under
	// delta traffic, spiking to items x windows on cold or fallback runs.
	deltaLayersRecomputed atomic.Int64

	// ewmaNanos is the decaying average of completed-request service
	// times, backing the Retry-After header on load-shed responses.
	ewmaNanos atomic.Int64

	// metrics is the obs registry over the counters above plus the
	// per-stage latency histograms; stages is the span sink feeding it.
	metrics *serviceMetrics
	stages  obs.Stages

	// testHookRunning, when set, is called by the worker after it has
	// claimed its concurrency slot and before any heavy work; tests use
	// it to hold a request in-flight deterministically.
	testHookRunning func()

	// testHookSessionOp, when set, is called by session operations
	// between the registry lookup and taking the entry's operation
	// lock; tests use it to interleave a DELETE into that window
	// deterministically.
	testHookSessionOp func()
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	s := &Service{
		cfg:      cfg,
		cache:    newTableCache(cfg.cacheSize(), cfg.cacheBytes(), !cfg.DisableColdTier),
		sessions: make(map[string]*sessionEntry),
	}
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	s.metrics = newServiceMetrics(s)
	s.stages = s.metrics.stageSink()
	return s
}

// Metrics returns the service's metric registry (served at /metrics by
// Handler); callers embedding the service elsewhere can mount or
// extend it.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// observeServiceTime folds one completed request's duration into the
// decaying average behind Retry-After (alpha = 1/8; the first sample
// seeds the average directly).
func (s *Service) observeServiceTime(d time.Duration) {
	for {
		old := s.ewmaNanos.Load()
		next := d.Nanoseconds()
		if next < 1 {
			next = 1 // a zero average would look unseeded
		}
		if old > 0 {
			next = old + (next-old)/8
			if next < 1 {
				next = 1
			}
		}
		if s.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds is the backoff advertised on load-shed responses:
// the decayed average service time rounded up to whole seconds,
// floored at 1 (no history looks like a fast service, and Retry-After
// must stay a positive integer) and capped at 60 so one pathological
// request cannot park clients for minutes.
func (s *Service) retryAfterSeconds() int {
	secs := (s.ewmaNanos.Load() + int64(time.Second) - 1) / int64(time.Second)
	switch {
	case secs < 1:
		return 1
	case secs > 60:
		return 60
	}
	return int(secs)
}

// Closed reports whether Close has begun; /healthz uses it.
func (s *Service) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close refuses new requests and waits for every in-flight computation
// — including runs abandoned by expired deadlines — to finish. It is
// idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is individually atomic; the set is not taken under one lock).
func (s *Service) Stats() Stats {
	st := s.cache.counters()
	st.Requests = s.requests.Load()
	st.Completed = s.completed.Load()
	st.RejectedOverload = s.rejectedOverload.Load()
	st.RejectedClosed = s.rejectedClosed.Load()
	st.BadRequests = s.badRequests.Load()
	st.DeadlineExpired = s.deadlineExpired.Load()
	st.Errors = s.internalErrors.Load()
	st.Inflight = s.inflight.Load()
	st.TablesBuilt = s.tablesBuilt.Load()
	st.SessionsCreated = s.sessionsCreated.Load()
	st.SessionsActive = s.sessionCount()
	st.DeltasApplied = s.deltasApplied.Load()
	st.Batches = s.batches.Load()
	st.BatchSpecs = s.batchSpecs.Load()
	st.PeerFills = s.peerFills.Load()
	st.PeerFillFallback = s.peerFillFallback.Load()
	st.TablesServed = s.tablesServed.Load()
	st.TablesPrefilled = s.tablesPrefilled.Load()
	st.SessionsExported = s.sessionsExported.Load()
	st.SessionsImported = s.sessionsImported.Load()
	return st
}

// Schedule runs one request as a one-spec batch through the shard's
// schedule pipeline (scheduleBatch) and unwraps the item: the spec's
// failure is the request's error, and the batch-level fingerprint and
// cache outcome move onto the response. The context bounds the caller's
// wait, not the computation: an expired context returns immediately
// while the work completes in the background.
func (s *Service) Schedule(ctx context.Context, req Request) (*Response, error) {
	s.requests.Add(1)
	start := time.Now()
	resp, err := s.scheduleOne(ctx, req)
	if elapsed := s.countOutcome(start, err); err == nil {
		resp.ElapsedUS = elapsed.Microseconds()
	}
	return resp, err
}

func (s *Service) scheduleOne(ctx context.Context, req Request) (*Response, error) {
	scheduler, err := checkSpec(req.Algorithm, req.Capacity)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	spec := []BatchSpec{{Algorithm: req.Algorithm, Capacity: req.Capacity, Verify: req.Verify}}
	batch, err := s.scheduleBatch(ctx, BatchRequest{Trace: req.Trace, Requests: spec, PeerHint: req.PeerHint},
		[]sched.Scheduler{scheduler})
	if err != nil {
		return nil, err
	}
	item := batch.Responses[0]
	if item.err != nil {
		return nil, item.err
	}
	// The hit/shared-build counters settle only on a delivered response:
	// a waiter abandoned by its context while the build was still in
	// flight never delivered a table, so it must not count as cache
	// traffic (the regression test pins this down).
	s.cache.settle(batch.cacheOutcome)
	item.Response.Fingerprint, item.Response.CacheHit = batch.Fingerprint, batch.CacheHit
	return item.Response, nil
}

// countOutcome classifies a finished schedule request into the request
// counters and returns its elapsed time; a completed request also feeds
// the Retry-After average and the request-duration histogram.
func (s *Service) countOutcome(start time.Time, err error) time.Duration {
	elapsed := time.Since(start)
	switch {
	case err == nil:
		s.completed.Add(1)
		s.observeServiceTime(elapsed)
		s.metrics.request.ObserveDuration(elapsed)
	case errors.Is(err, ErrOverloaded):
		s.rejectedOverload.Add(1)
	case errors.Is(err, ErrClosed):
		s.rejectedClosed.Add(1)
	case isRequestError(err):
		s.badRequests.Add(1)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.deadlineExpired.Add(1)
	default:
		s.internalErrors.Add(1)
	}
	return elapsed
}

func isRequestError(err error) bool {
	var re *RequestError
	return errors.As(err, &re)
}

// admit registers one unit of request work with Close's drain, refusing
// once Close began (wg.Add under the same lock, so Close's Wait cannot
// slip between the check and the registration). With slot it also
// claims a concurrency slot without queuing: full means shed now.
// release(slot) gives back what admit took.
func (s *Service) admit(slot bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	if !slot {
		return nil
	}
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			s.wg.Done()
			return ErrOverloaded
		}
	}
	s.inflight.Add(1)
	return nil
}

func (s *Service) release(slot bool) {
	if slot {
		if s.slots != nil {
			<-s.slots
		}
		s.inflight.Add(-1)
	}
	s.wg.Done()
}

// scheduleBatch is the shard's one schedule pipeline, behind both
// /schedule and /schedule/batch: ingest the trace, admit the request,
// fingerprint it, resolve the table cache once, then run every spec
// (already validated into schedulers) against the shared {model,
// table}. The request holds one concurrency slot for its whole run and
// is one unit of deadline; an expired context returns at once while the
// work finishes in the background, still holding the slot. The caller
// settles the returned cache outcome once it knows the request
// delivered.
func (s *Service) scheduleBatch(ctx context.Context, req BatchRequest, schedulers []sched.Scheduler) (*BatchResponse, error) {
	// Per-stage spans record into the service histograms and any sink
	// the caller carried in via obs.WithStages (pimbench-style
	// breakdowns over an embedded service).
	stages := obs.Tee(s.stages, obs.StagesFrom(ctx))
	tr, err := s.ingestTrace(stages, req.Trace)
	if err != nil {
		return nil, err
	}
	if err := s.admit(true); err != nil {
		return nil, err
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	sp := stages.Start("fingerprint")
	fp := tr.Fingerprint()
	sp.End()
	if err := ctx.Err(); err != nil {
		s.release(true)
		return nil, err
	}

	// The worker fills resp and closes done; a caller that gave up on
	// its context never reads resp.
	resp := &BatchResponse{Fingerprint: fp.String(), Responses: make([]BatchItem, len(req.Requests))}
	done := make(chan struct{})
	go func() {
		defer s.release(true)
		defer close(done)
		if s.testHookRunning != nil {
			s.testHookRunning()
		}
		entry, outcome := s.resolveTable(stages, fp, tr, req.PeerHint)
		resp.CacheHit, resp.cacheOutcome = outcome != cacheOutcomeBuild, outcome
		for i, spec := range req.Requests {
			r, err := s.runSpec(stages, tr, entry, schedulers[i], spec)
			resp.Responses[i] = BatchItem{Response: r, err: err}
			if err != nil {
				resp.Responses[i].Error = itemError(err)
			}
		}
	}()
	select {
	case <-done:
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runSpec runs one spec against the resolved cache entry and, when
// asked, referees the result. Its error is what /schedule reports: a
// *RequestError for an infeasible capacity, a plain error for a referee
// rejection.
func (s *Service) runSpec(stages obs.Stages, tr *trace.Trace, entry *cacheEntry, scheduler sched.Scheduler, spec BatchSpec) (*Response, error) {
	p := &sched.Problem{Model: entry.model, Table: entry.table, Capacity: spec.Capacity}
	sp := stages.Start("sched." + strings.ToLower(scheduler.Name()))
	schedule, err := scheduler.Schedule(p)
	sp.End()
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	bd := p.Model.Evaluate(schedule)
	resp := &Response{
		Algorithm:  scheduler.Name(),
		Grid:       tr.Grid.String(),
		NumData:    tr.NumData,
		NumWindows: tr.NumWindows(),
		Capacity:   spec.Capacity,
		Centers:    schedule.Centers,
		Cost:       CostJSON{Residence: bd.Residence, Move: bd.Move, Total: bd.Total()},
	}
	if spec.Verify {
		sp := stages.Start("verify")
		defer sp.End()
		if err := verify.Check(tr, schedule, spec.Capacity); err != nil {
			return nil, fmt.Errorf("service: referee rejected schedule: %v", err)
		}
		claim := verify.Breakdown{Residence: bd.Residence, Move: bd.Move}
		if err := verify.CrossCheck(tr, schedule, p.Model.DataSize, claim); err != nil {
			return nil, fmt.Errorf("service: %v", err)
		}
		resp.Verified = &CostJSON{Residence: claim.Residence, Move: claim.Move, Total: claim.Total()}
	}
	return resp, nil
}

// resolveTable resolves a fingerprint against the table cache. The
// elected builder first tries a peer fill when a hint is present,
// falling back silently to a local build; an elected promoter decodes
// the cold tier's compressed payload back to a flat table; everyone
// else either finds the entry ready (hit) or waits out the in-flight
// work (shared build). The returned entry is always ready. The caller
// settles the returned outcome into the cache counters once its
// request completes.
func (s *Service) resolveTable(stages obs.Stages, fp trace.Fingerprint, tr *trace.Trace, peerHint string) (*cacheEntry, cacheOutcome) {
	entry, role, comp := s.cache.acquire(fp)
	switch role {
	case cacheRoleBuilder:
		// The model outlives this request in the cache, so it must
		// not capture a request-scoped sink: service histograms only.
		m := cost.NewModel(tr)
		m.Stages = s.stages
		if table, ok := s.fetchPeerTable(stages, fp, tr, peerHint); ok {
			// Adopted, not built: tables_built stays flat, which is what
			// keeps the fleet-wide tables_built == distinct-traces
			// invariant true across shard topology changes.
			s.cache.publish(entry, m, table)
		} else {
			sp := stages.Start("table.build")
			s.cache.publish(entry, m, m.BuildResidenceTable())
			s.tablesBuilt.Add(1)
			sp.End()
		}
		return entry, cacheOutcomeBuild
	case cacheRolePromoter:
		// The cold tier held the table compressed; decode it instead of
		// rebuilding. The model was dropped at demotion (it is as large
		// as the table) and is rebuilt from the trace here.
		m := cost.NewModel(tr)
		m.Stages = s.stages
		sp := stages.Start("table.promote")
		table, err := s.decodePromoted(comp, fp, tr)
		sp.End()
		if err != nil {
			// A shard decoding a payload it compressed itself should
			// never get here; treat it as a miss and rebuild rather
			// than failing the request.
			sp := stages.Start("table.build")
			table = m.BuildResidenceTable()
			s.tablesBuilt.Add(1)
			sp.End()
		}
		s.cache.publish(entry, m, table)
		return entry, cacheOutcomePromote
	}
	select {
	case <-entry.ready:
		// Cache hit: record a zero-length span so hit counts
		// appear alongside build and wait in the stage series.
		stages.Record("table.hit", 0)
		return entry, cacheOutcomeHit
	default:
		// Another request is building this entry; its worker
		// always completes (pure CPU work), so waiting here
		// cannot hang. Our own caller is still free to time out
		// (scheduleBatch waits on its context too).
		sp := stages.Start("table.wait")
		<-entry.ready
		sp.End()
		return entry, cacheOutcomeShared
	}
}

// decodePromoted decodes a cold-tier payload back to a flat table,
// cross-checking the embedded fingerprint and the shape against the
// request's trace — the same paranoia peer fill applies, because a
// promoted table feeds schedules exactly like an adopted one.
func (s *Service) decodePromoted(comp []byte, fp trace.Fingerprint, tr *trace.Trace) (cost.ResidenceTable, error) {
	gotFP, table, err := cost.DecodeTableV2Limit(comp, s.cfg.maxTableCells())
	if err != nil {
		return cost.ResidenceTable{}, err
	}
	if gotFP != fp {
		return cost.ResidenceTable{}, fmt.Errorf("cold table is for %s, want %s", gotFP, fp)
	}
	return table, checkTableShape(table, tr)
}

// fetchPeerTable asks the hinted peer for its cached table, bounded by
// the peer-fill deadline. Every failure mode — no hook, no hint, peer
// down or slow, corrupt payload, or a table whose shape does not match
// the trace — reports false, and the caller builds locally.
func (s *Service) fetchPeerTable(stages obs.Stages, fp trace.Fingerprint, tr *trace.Trace, peerHint string) (cost.ResidenceTable, bool) {
	if s.cfg.PeerFill == nil || peerHint == "" {
		return cost.ResidenceTable{}, false
	}
	// The fetch deadline is independent of the request context: the
	// builder's work survives an abandoned requester, and the fetch must
	// stay bounded either way.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.peerFillTimeout())
	defer cancel()
	sp := stages.Start("table.peerfill")
	table, err := s.cfg.PeerFill(ctx, fp, peerHint)
	sp.End()
	if err == nil {
		err = checkTableShape(table, tr)
	}
	if err != nil {
		s.peerFillFallback.Add(1)
		return cost.ResidenceTable{}, false
	}
	s.peerFills.Add(1)
	return table, true
}
