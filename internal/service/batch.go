package service

import (
	"context"
	"errors"
	"time"

	"repro/internal/sched"
)

// DefaultMaxBatchSpecs bounds the specs one batch may carry when
// Config.MaxBatchSpecs is zero. A batch holds one concurrency slot for
// its whole run, so the bound keeps a single request from monopolizing
// a worker for unbounded time.
const DefaultMaxBatchSpecs = 1024

// BatchSpec is one scheduling job inside a batch: everything a Request
// carries except the trace, which the batch shares.
type BatchSpec struct {
	Algorithm string `json:"algorithm"`
	Capacity  int    `json:"capacity"`
	Verify    bool   `json:"verify,omitempty"`
}

// BatchRequest is the POST /schedule/batch body: one trace, decoded and
// fingerprinted once, scheduled under every spec. The cache is
// consulted exactly once for the whole batch, so N specs over a fresh
// trace cost one table build, not N.
type BatchRequest struct {
	Trace    string      `json:"trace"`
	Requests []BatchSpec `json:"requests"`

	// PeerHint mirrors Request.PeerHint: router-supplied, never decoded
	// from the body.
	PeerHint string `json:"-"`
}

// BatchItem is one spec's outcome. Exactly one of Response and Error is
// set: a spec whose scheduler run fails (infeasible capacity, referee
// rejection) reports its error in place without failing the batch.
// Fingerprint and CacheHit ride at the batch level; repeating them per
// item would bloat large batches for no information.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`

	// err is the typed failure behind Error; a one-spec batch run for
	// /schedule returns it as the request's error.
	err error
}

// itemError is an item's error text: the failure without the "bad
// request" prefix the same failure carries as a request error.
func itemError(err error) string {
	var re *RequestError
	if errors.As(err, &re) {
		return re.Err.Error()
	}
	return err.Error()
}

// BatchResponse carries the per-spec outcomes in request order.
type BatchResponse struct {
	Fingerprint string      `json:"fingerprint"`
	CacheHit    bool        `json:"cache_hit"`
	Responses   []BatchItem `json:"responses"`
	ElapsedUS   int64       `json:"elapsed_us"`

	cacheOutcome cacheOutcome
}

// ScheduleBatch runs one batch request: decode and fingerprint the
// trace once, resolve the table cache once, then run every spec against
// the shared {model, table}. The batch occupies one concurrency slot
// (it is one unit of shedding and one unit of deadline); specs run
// sequentially inside it.
func (s *Service) ScheduleBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	s.requests.Add(1)
	start := time.Now()
	resp, err := s.scheduleMany(ctx, req)
	if elapsed := s.countOutcome(start, err); err == nil {
		resp.ElapsedUS = elapsed.Microseconds()
		s.batches.Add(1)
		s.batchSpecs.Add(uint64(len(req.Requests)))
	}
	return resp, err
}

// scheduleMany validates every spec up front, so a malformed batch is
// rejected whole before any heavy work: mixing a typo'd algorithm into a
// thousand-spec batch is a client bug, not a partial success.
func (s *Service) scheduleMany(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if len(req.Requests) == 0 {
		return nil, badRequest("empty batch: no request specs")
	}
	if len(req.Requests) > s.cfg.MaxBatchSpecs {
		return nil, badRequest("batch carries %d specs, limit %d", len(req.Requests), s.cfg.MaxBatchSpecs)
	}
	schedulers := make([]sched.Scheduler, len(req.Requests))
	for i, spec := range req.Requests {
		scheduler, err := checkSpec(spec.Algorithm, spec.Capacity)
		if err != nil {
			return nil, badRequest("spec %d: %v", i, err)
		}
		schedulers[i] = scheduler
	}
	resp, err := s.scheduleBatch(ctx, req, schedulers)
	if err == nil {
		s.cache.settle(resp.cacheOutcome)
	}
	return resp, err
}
