package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/delta"
)

// DefaultMaxSessions bounds concurrently live incremental sessions when
// Config.MaxSessions is zero.
const DefaultMaxSessions = 64

// ErrSessionNotFound is returned for operations on an unknown or
// already-deleted session; the HTTP layer maps it to 404.
type ErrSessionNotFound struct{ ID string }

func (e *ErrSessionNotFound) Error() string { return "service: no session " + e.ID }

// CreateSessionRequest opens an incremental scheduling session over a
// starting trace (which may be empty apart from its header). The
// algorithm and capacity are fixed for the session's lifetime.
type CreateSessionRequest struct {
	Trace     string `json:"trace"`
	Algorithm string `json:"algorithm"`
	Capacity  int    `json:"capacity"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	SessionID   string `json:"session_id"`
	Algorithm   string `json:"algorithm"`
	Grid        string `json:"grid"`
	NumData     int    `json:"num_data"`
	NumWindows  int    `json:"num_windows"`
	Capacity    int    `json:"capacity"`
	Seq         uint64 `json:"seq"`
	Fingerprint string `json:"fingerprint"`
}

// DeltaResponse reports one applied delta: its position in the
// session's delta log and the chained fingerprint, which equals the
// canonical fingerprint of the materialized post-delta trace (so it
// remains a valid key for the table cache and any external store).
type DeltaResponse struct {
	SessionID   string `json:"session_id"`
	Seq         uint64 `json:"seq"`
	Fingerprint string `json:"fingerprint"`
	NumWindows  int    `json:"num_windows"`
}

// SessionScheduleResponse is a schedule of a session's current trace.
// LayersRecomputed counts the DP layers the call actually relaxed —
// zero for a cache hit, the stale suffix on the incremental path, or
// items x windows when the configuration forces a full scheduler rerun.
type SessionScheduleResponse struct {
	SessionID        string   `json:"session_id"`
	Algorithm        string   `json:"algorithm"`
	Seq              uint64   `json:"seq"`
	NumWindows       int      `json:"num_windows"`
	Centers          [][]int  `json:"centers"`
	Cost             CostJSON `json:"cost"`
	Fingerprint      string   `json:"fingerprint"`
	LayersRecomputed int      `json:"layers_recomputed"`
	Cached           bool     `json:"cached"`
	ElapsedUS        int64    `json:"elapsed_us"`
}

// sessionEntry pairs a session with its service-assigned ID. opMu and
// closed fence session operations against deletion: an operation holds
// opMu for its whole session access, and DeleteSession marks the entry
// closed under the same lock after unregistering it, so a request that
// lost the race to a concurrent DELETE observes closed and reports 404
// instead of operating on (and reporting success against) a session
// the service no longer owns.
type sessionEntry struct {
	id   string
	sess *delta.Session
	grid string

	opMu   sync.Mutex
	closed bool
}

// CreateSession decodes the starting trace, builds a session (its own
// model and residence table, counted in tables_built exactly once — no
// table work ever runs again for this session's deltas), and registers
// it under a fresh ID.
func (s *Service) CreateSession(req CreateSessionRequest) (*SessionInfo, error) {
	scheduler, err := checkSpec(req.Algorithm, req.Capacity)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	tr, err := s.ingestTrace(s.stages, req.Trace)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitSession(""); err != nil {
		return nil, err
	}
	sess, err := delta.NewSession(tr, scheduler, req.Capacity, s.sessionOptions())
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	s.tablesBuilt.Add(1) // the session's private table, built in NewSession
	s.sessionSeq++
	// The random suffix makes IDs unique across the whole fleet, not
	// just this instance: a cluster router pins sessions to shards by
	// ID, and two shards issuing the same "s000001" would cross their
	// pins. The sequence prefix keeps IDs orderable for humans.
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("service: session id: %w", err)
	}
	id := fmt.Sprintf("s%06d-%s", s.sessionSeq, hex.EncodeToString(nonce[:]))
	s.sessions[id] = &sessionEntry{id: id, sess: sess, grid: tr.Grid.String()}
	s.sessionsCreated.Add(1)
	return s.sessionInfo(s.sessions[id]), nil
}

// admitSession is session admission, under s.mu: refuse once Close
// began, refuse an ID this shard already holds (CreateSession passes
// "", which none does), and claim one of the MaxSessions slots.
func (s *Service) admitSession(id string) error {
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.sessions[id]; ok {
		return &ErrSessionExists{ID: id}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return fmt.Errorf("%w: %d sessions live", ErrOverloaded, len(s.sessions))
	}
	return nil
}

// sessionOptions wire a session into the service's stage histograms and
// its layers-recomputed gauge.
func (s *Service) sessionOptions() delta.Options {
	return delta.Options{
		Stages: s.stages,
		OnLayersRecomputed: func(layers int) {
			s.deltaLayersRecomputed.Store(int64(layers))
		},
	}
}

func (s *Service) sessionInfo(e *sessionEntry) *SessionInfo {
	return &SessionInfo{
		SessionID:   e.id,
		Algorithm:   e.sess.Algorithm(),
		Grid:        e.grid,
		NumData:     e.sess.NumData(),
		NumWindows:  e.sess.NumWindows(),
		Capacity:    e.sess.Capacity(),
		Seq:         e.sess.Seq(),
		Fingerprint: e.sess.Fingerprint().String(),
	}
}

func (s *Service) lookupSession(id string) (*sessionEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	e, ok := s.sessions[id]
	if !ok {
		return nil, &ErrSessionNotFound{ID: id}
	}
	return e, nil
}

// withSession runs fn holding the entry's operation lock, after
// re-checking that a concurrent DeleteSession did not close the entry
// between the registry lookup and the lock acquisition. The registry
// lock is never held across fn, so session work does not serialize
// unrelated requests; operations on one session serialize with each
// other and with its deletion.
func (s *Service) withSession(id string, fn func(e *sessionEntry) error) error {
	e, err := s.lookupSession(id)
	if err != nil {
		return err
	}
	if s.testHookSessionOp != nil {
		s.testHookSessionOp()
	}
	e.opMu.Lock()
	defer e.opMu.Unlock()
	if e.closed {
		return &ErrSessionNotFound{ID: id}
	}
	return fn(e)
}

// SessionInfo returns the current description of a session.
func (s *Service) SessionInfo(id string) (*SessionInfo, error) {
	var info *SessionInfo
	if err := s.withSession(id, func(e *sessionEntry) error {
		info = s.sessionInfo(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return info, nil
}

// ApplySessionDelta applies one delta to a session. Deltas on one
// session are serialized in arrival order; the returned sequence number
// is the delta's position in that order.
func (s *Service) ApplySessionDelta(id string, d delta.Delta) (*DeltaResponse, error) {
	var resp *DeltaResponse
	if err := s.withSession(id, func(e *sessionEntry) error {
		res, err := e.sess.Apply(d)
		if err != nil {
			return &RequestError{Err: err}
		}
		s.deltasApplied.Add(1)
		resp = &DeltaResponse{
			SessionID:   id,
			Seq:         res.Seq,
			Fingerprint: res.Fingerprint.String(),
			NumWindows:  res.NumWindows,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return resp, nil
}

// ScheduleSession computes (or serves from the session's cache) the
// schedule of a session's current trace.
func (s *Service) ScheduleSession(id string) (*SessionScheduleResponse, error) {
	var resp *SessionScheduleResponse
	if err := s.withSession(id, func(e *sessionEntry) error {
		start := time.Now()
		res, err := e.sess.Schedule()
		if err != nil {
			return &RequestError{Err: err} // infeasible capacity etc.
		}
		resp = &SessionScheduleResponse{
			SessionID:        id,
			Algorithm:        e.sess.Algorithm(),
			Seq:              e.sess.Seq(),
			NumWindows:       len(res.Schedule.Centers),
			Centers:          res.Schedule.Centers,
			Cost:             CostJSON{Residence: res.Cost.Residence, Move: res.Cost.Move, Total: res.Cost.Total()},
			Fingerprint:      e.sess.Fingerprint().String(),
			LayersRecomputed: res.LayersRecomputed,
			Cached:           res.Cached,
			ElapsedUS:        time.Since(start).Microseconds(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return resp, nil
}

// DeleteSession removes a session, freeing its table and DP state. The
// entry leaves the registry first (releasing its MaxSessions slot
// exactly once — a second DELETE no longer finds it), then is closed
// under its operation lock, which waits out any operation that found
// the entry before it left the map; an operation still between lookup
// and lock acquisition observes closed and reports 404.
func (s *Service) DeleteSession(id string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	e, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return &ErrSessionNotFound{ID: id}
	}
	delete(s.sessions, id)
	s.mu.Unlock()

	e.opMu.Lock()
	e.closed = true
	e.opMu.Unlock()
	return nil
}

// sessionCount returns the number of live sessions.
func (s *Service) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
