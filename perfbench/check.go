package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"

	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Reference is the serial single-node answer to one spec, with the
// digests of the response bodies already checked against it.
type Reference struct {
	Trace    *trace.Trace
	Schedule cost.Schedule
	Cost     service.CostJSON
	Response service.Response

	mu       sync.Mutex
	accepted map[uint64]bool // answerDigest of each body that passed
}

// perRequestKeys name the /schedule response fields that legitimately
// differ between two correct answers to the same spec.
var perRequestKeys = [][]byte{[]byte(`"cache_hit"`), []byte(`"elapsed_us"`)}

var digestSeed = maphash.MakeSeed()

// answerDigest hashes a response body with the values of its
// per-request fields left out, so every correct answer to one spec has
// one digest, whatever the encoder's layout or field order.
func answerDigest(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	for {
		at, key := -1, []byte(nil)
		for _, k := range perRequestKeys {
			if i := bytes.Index(body, k); i >= 0 && (at < 0 || i < at) {
				at, key = i, k
			}
		}
		if at < 0 {
			break
		}
		h.Write(body[:at+len(key)])
		body = body[at+len(key):]
		// The values are a bool and an integer: they end at the next
		// comma or closing brace.
		end := bytes.IndexAny(body, ",}")
		if end < 0 {
			end = len(body)
		}
		body = body[end:]
	}
	h.Write(body)
	return h.Sum64()
}

// newReference schedules the trace serially on a fresh model and
// re-prices the result with the independent referee in internal/verify.
func newReference(tr *trace.Trace, algorithm string, capacity int) (*Reference, error) {
	m := cost.NewModel(tr)
	return referenceOn(tr, m, m.BuildResidenceTable(), algorithm, capacity)
}

// referenceOn is newReference over a model and table already built
// from tr, so the specs of one trace share one build.
func referenceOn(tr *trace.Trace, m *cost.Model, table cost.ResidenceTable, algorithm string, capacity int) (*Reference, error) {
	scheduler, err := sched.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	s, err := scheduler.Schedule(&sched.Problem{Model: m, Table: table, Capacity: capacity})
	if err != nil {
		return nil, fmt.Errorf("reference %s/%d: %w", algorithm, capacity, err)
	}
	bd := m.Evaluate(s)
	if err := crossCheck(tr, s, capacity, bd.Residence, bd.Move); err != nil {
		return nil, fmt.Errorf("reference %s/%d: %w", algorithm, capacity, err)
	}
	ref := &Reference{
		Trace:    tr,
		Schedule: s,
		Cost:     service.CostJSON{Residence: bd.Residence, Move: bd.Move, Total: bd.Total()},
		accepted: make(map[uint64]bool),
	}
	ref.Response = service.Response{
		Algorithm:   scheduler.Name(),
		Grid:        tr.Grid.String(),
		NumData:     tr.NumData,
		NumWindows:  tr.NumWindows(),
		Capacity:    capacity,
		Centers:     s.Centers,
		Cost:        ref.Cost,
		Fingerprint: tr.Fingerprint().String(),
	}
	return ref, nil
}

// crossCheck recomputes a schedule's cost from its centers with
// internal/verify and compares it with the claimed breakdown.
func crossCheck(tr *trace.Trace, s cost.Schedule, capacity int, residence, move int64) error {
	if err := verify.Check(tr, s, capacity); err != nil {
		return err
	}
	got, err := verify.Cost(tr, s)
	if err != nil {
		return err
	}
	if got.Residence != residence || got.Move != move {
		return fmt.Errorf("claimed cost residence %d + move %d, recomputed %d + %d", residence, move, got.Residence, got.Move)
	}
	return nil
}

// buildReferences computes every spec's reference, one trace at a time
// on each of workers goroutines.
func buildReferences(p *Plan, workers int) ([]*Reference, error) {
	byTrace := make([][]int, len(p.Traces))
	for i, s := range p.Specs {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	refs := make([]*Reference, len(p.Specs))
	errs := make([]error, len(p.Traces))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				tr := p.Traces[t]
				m := cost.NewModel(tr)
				table := m.BuildResidenceTable()
				for _, i := range byTrace[t] {
					s := p.Specs[i]
					if refs[i], errs[t] = referenceOn(tr, m, table, s.Algorithm, s.Capacity); errs[t] != nil {
						break
					}
				}
			}
		}()
	}
	for t, specs := range byTrace {
		if len(specs) > 0 {
			next <- t
		}
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return refs, nil
}

// checkSchedule checks one /schedule response body against the spec's
// reference. The body is decoded: its centers and cost must equal the
// reference's bit for bit, and its claimed cost must match verify's
// recomputation from its own centers. A body whose answerDigest already
// passed is accepted without decoding it again, so the check costs the
// same per op whatever the response layout.
func checkSchedule(ref *Reference, body []byte) error {
	d := answerDigest(body)
	ref.mu.Lock()
	seen := ref.accepted[d]
	ref.mu.Unlock()
	if seen {
		return nil
	}
	var got service.Response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	want := ref.Response
	switch {
	case got.Algorithm != want.Algorithm || got.Capacity != want.Capacity:
		return fmt.Errorf("answered %s/%d, asked %s/%d", got.Algorithm, got.Capacity, want.Algorithm, want.Capacity)
	case got.Fingerprint != want.Fingerprint:
		return fmt.Errorf("fingerprint %s, want %s", got.Fingerprint, want.Fingerprint)
	case got.Grid != want.Grid || got.NumData != want.NumData || got.NumWindows != want.NumWindows:
		return fmt.Errorf("shape %s/%d/%d, want %s/%d/%d", got.Grid, got.NumData, got.NumWindows, want.Grid, want.NumData, want.NumWindows)
	}
	if err := checkAnswer(ref.Trace, want.Capacity, ref.Schedule, ref.Cost, got.Centers, got.Cost); err != nil {
		return err
	}
	ref.mu.Lock()
	ref.accepted[d] = true
	ref.mu.Unlock()
	return nil
}

// checkAnswer compares an answer's centers and cost with the
// reference's and recomputes the claimed cost from the claimed centers.
func checkAnswer(tr *trace.Trace, capacity int, want cost.Schedule, wantCost service.CostJSON, centers [][]int, got service.CostJSON) error {
	s := cost.Schedule{Centers: centers}
	if !s.Equal(want) {
		return fmt.Errorf("centers differ from the serial single-node schedule%s", firstDiff(want.Centers, centers))
	}
	if got != wantCost {
		return fmt.Errorf("cost %+v, serial single-node %+v", got, wantCost)
	}
	if err := crossCheck(tr, s, capacity, got.Residence, got.Move); err != nil {
		return fmt.Errorf("referee: %w", err)
	}
	return nil
}

func firstDiff(want, got [][]int) string {
	if len(want) != len(got) {
		return fmt.Sprintf(" (%d windows, want %d)", len(got), len(want))
	}
	for w := range want {
		if len(want[w]) != len(got[w]) {
			return fmt.Sprintf(" (window %d has %d items, want %d)", w, len(got[w]), len(want[w]))
		}
		for d := range want[w] {
			if want[w][d] != got[w][d] {
				return fmt.Sprintf(" (window %d item %d at %d, want %d)", w, d, got[w][d], want[w][d])
			}
		}
	}
	return ""
}

// Checkpoint is one session schedule response kept for checking, with
// the number of deltas the session had applied when it was taken.
type Checkpoint struct {
	Deltas int
	Body   []byte
}

// checkSession replays the session's deltas onto its base trace with
// delta.Materialize and checks each checkpoint (in delta order) against
// a full scheduler run on the materialized trace.
func checkSession(p *Plan, s int, cps []Checkpoint) error {
	if len(cps) == 0 {
		return nil
	}
	tr := p.Traces[s].Clone()
	deltas, err := p.sessionDeltas(s, cps[len(cps)-1].Deltas)
	if err != nil {
		return err
	}
	applied := 0
	for _, cp := range cps {
		for ; applied < cp.Deltas; applied++ {
			if err := delta.Materialize(tr, deltas[applied]); err != nil {
				return fmt.Errorf("session %d: materialize delta %d: %w", s, applied+1, err)
			}
		}
		var got service.SessionScheduleResponse
		if err := json.Unmarshal(cp.Body, &got); err != nil {
			return fmt.Errorf("session %d after %d deltas: undecodable response: %v", s, cp.Deltas, err)
		}
		if got.Seq != uint64(cp.Deltas) {
			return fmt.Errorf("session %d: schedule at seq %d, client sent %d deltas", s, got.Seq, cp.Deltas)
		}
		if fp := tr.Fingerprint().String(); got.Fingerprint != fp {
			return fmt.Errorf("session %d after %d deltas: fingerprint %s, materialized %s", s, cp.Deltas, got.Fingerprint, fp)
		}
		ref, err := newReference(tr, "gomcds", 0)
		if err != nil {
			return err
		}
		if err := checkAnswer(tr, 0, ref.Schedule, ref.Cost, got.Centers, got.Cost); err != nil {
			return fmt.Errorf("session %d after %d deltas: %w", s, cp.Deltas, err)
		}
	}
	return nil
}

// checkConservation asserts the counter laws over one phase's /stats
// deltas: every completed shard schedule request resolved its table as
// exactly one of hit, miss or shared build; and every routed schedule
// op reached a shard or was coalesced onto one that did.
func checkConservation(scheduleOps uint64, d Counters) error {
	var requests uint64
	for i, s := range d.Shards {
		requests += s.Requests
		if o := s.CacheHits + s.CacheMisses + s.CacheSharedBuild; o != s.Completed {
			return fmt.Errorf("shard %d: hits %d + misses %d + shared builds %d = %d != %d completed schedule requests",
				i, s.CacheHits, s.CacheMisses, s.CacheSharedBuild, o, s.Completed)
		}
	}
	if scheduleOps != requests+d.Router.Coalesced {
		return fmt.Errorf("%d routed schedule ops != %d shard schedule requests + %d coalesced",
			scheduleOps, requests, d.Router.Coalesced)
	}
	return nil
}

// sub returns the deltas b - a of the counters the benchmark reads;
// cache_bytes, a level, keeps b's value.
func sub(a, b Counters) Counters {
	d := Counters{Shards: make([]service.Stats, len(b.Shards))}
	d.Router.Coalesced = b.Router.Coalesced - a.Router.Coalesced
	d.Router.ReplicaFills = b.Router.ReplicaFills - a.Router.ReplicaFills
	for i, y := range b.Shards {
		x := a.Shards[i]
		d.Shards[i] = service.Stats{
			Requests:         y.Requests - x.Requests,
			Completed:        y.Completed - x.Completed,
			RejectedOverload: y.RejectedOverload - x.RejectedOverload,
			TablesBuilt:      y.TablesBuilt - x.TablesBuilt,
			CacheHits:        y.CacheHits - x.CacheHits,
			CacheMisses:      y.CacheMisses - x.CacheMisses,
			CacheSharedBuild: y.CacheSharedBuild - x.CacheSharedBuild,
			CacheEvictions:   y.CacheEvictions - x.CacheEvictions,
			CacheDemotions:   y.CacheDemotions - x.CacheDemotions,
			CachePromotions:  y.CachePromotions - x.CachePromotions,
			CacheBytes:       y.CacheBytes,
		}
	}
	return d
}

// total sums the shards' counters of one delta.
func (c Counters) total() service.Stats {
	var t service.Stats
	for _, s := range c.Shards {
		t.Requests += s.Requests
		t.Completed += s.Completed
		t.RejectedOverload += s.RejectedOverload
		t.TablesBuilt += s.TablesBuilt
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.CacheSharedBuild += s.CacheSharedBuild
		t.CacheEvictions += s.CacheEvictions
		t.CacheDemotions += s.CacheDemotions
		t.CachePromotions += s.CachePromotions
		t.CacheBytes += s.CacheBytes
	}
	return t
}
