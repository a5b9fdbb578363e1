package service

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/trace"
)

// fpN returns a distinct fingerprint for each n.
func fpN(n byte) trace.Fingerprint {
	var fp trace.Fingerprint
	fp[0] = n
	return fp
}

// testCacheBytes is a byte budget high enough that entry-count tests
// never trip byte pressure.
const testCacheBytes = 1 << 30

// Regression test: a tableCache constructed with max <= 1 must still
// singleflight. Before the guard, newTableCache(0, ...) accepted the
// bogus capacity and acquire evicted the entry it had just inserted, so
// every request — even over a trace just seen — re-elected a builder
// and the cache silently degraded to build-per-request.
func TestTableCacheTinyCapacitySingleflights(t *testing.T) {
	for _, max := range []int{0, 1} {
		c := newTableCache(max, testCacheBytes, true)
		e, role, _ := c.acquire(fpN(1))
		if role != cacheRoleBuilder {
			t.Fatalf("max=%d: first acquire did not elect a builder", max)
		}
		c.publish(e, nil, cost.ResidenceTable{})
		for i := 0; i < 3; i++ {
			e2, role, _ := c.acquire(fpN(1))
			if role != cacheRoleWait {
				t.Fatalf("max=%d: acquire %d re-elected role %d for a cached fingerprint (the entry evicted itself)", max, i, role)
			}
			select {
			case <-e2.ready:
				c.settle(cacheOutcomeHit) // as the request path does on completion
			default:
				t.Fatalf("max=%d: acquire %d returned an unpublished entry with no builder", max, i)
			}
		}
		cs := c.counters()
		if cs.CacheHits != 3 || cs.CacheMisses != 1 || cs.CacheEntries != 1 {
			t.Fatalf("max=%d: hits=%d misses=%d entries=%d, want 3/1/1", max, cs.CacheHits, cs.CacheMisses, cs.CacheEntries)
		}
	}
}

// The same failure observed end to end: repeated requests over one
// trace must build exactly one residence table (tables_built ==
// distinct traces) even when the cache capacity is degenerate.
func TestTinyCacheTablesBuiltEqualsDistinctTraces(t *testing.T) {
	for _, max := range []int{0, 1} {
		svc := New(Config{})
		svc.cache = newTableCache(max, testCacheBytes, true) // bypass Config's default clamp
		text := traceText(t, "lu", 4, grid.Square(2))
		for i := 0; i < 4; i++ {
			if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
				t.Fatalf("max=%d: request %d: %v", max, i, err)
			}
		}
		if st := svc.Stats(); st.TablesBuilt != 1 {
			t.Errorf("max=%d: tables_built = %d after 4 requests over 1 distinct trace, want 1", max, st.TablesBuilt)
		}
		svc.Close()
	}
}

// Eviction must never remove the entry acquire just inserted, even
// under interleaved fingerprints at capacity 1: the newest entry is the
// one the caller is about to build.
func TestTableCacheNeverEvictsJustInserted(t *testing.T) {
	c := newTableCache(1, testCacheBytes, true)
	for n := byte(1); n <= 4; n++ {
		e, role, _ := c.acquire(fpN(n))
		if role != cacheRoleBuilder {
			t.Fatalf("fingerprint %d: expected builder election", n)
		}
		if _, ok := c.items[fpN(n)]; !ok {
			t.Fatalf("fingerprint %d: just-inserted entry already evicted", n)
		}
		c.publish(e, nil, cost.ResidenceTable{})
	}
	if cs := c.counters(); cs.CacheEntries != 1 || cs.CacheEvictions != 3 {
		t.Fatalf("entries=%d evictions=%d, want 1 entry and 3 evictions of older entries", cs.CacheEntries, cs.CacheEvictions)
	}
}

// buildInto runs one acquire-as-builder/publish cycle for fp with a
// table of the given shape, as the request path would.
func buildInto(t *testing.T, c *tableCache, fp trace.Fingerprint, nw, nd, np int) {
	t.Helper()
	e, role, _ := c.acquire(fp)
	if role != cacheRoleBuilder {
		t.Fatalf("fingerprint %v: expected builder election, got role %d", fp[0], role)
	}
	table := cost.NewResidenceTable(nw, nd, np)
	for i, cells := 0, table.Cells(); i < len(cells); i++ {
		cells[i] = int64(100 + i%7) // smooth-ish, nonzero, deterministic
	}
	c.publish(e, nil, table)
	c.settle(cacheOutcomeBuild)
}

// Byte pressure demotes the LRU hot table into the cold tier instead of
// evicting it; a later acquire elects a promoter carrying the
// compressed payload back out.
func TestTableCacheDemotesAndPromotesUnderBytePressure(t *testing.T) {
	// Each 8x8x8 table is 4096 flat bytes; a 6000-byte budget fits one
	// flat table plus a compressed one, but never two flat.
	c := newTableCache(16, 6000, true)
	buildInto(t, c, fpN(1), 8, 8, 8)
	buildInto(t, c, fpN(2), 8, 8, 8)

	cs := c.counters()
	if cs.CacheDemotions != 1 || cs.CacheEvictions != 0 {
		t.Fatalf("demotions=%d evictions=%d after overflow, want 1 demotion and 0 evictions", cs.CacheDemotions, cs.CacheEvictions)
	}
	if cs.CacheHotEntries != 1 || cs.CacheColdEntries != 1 {
		t.Fatalf("hot=%d cold=%d, want 1/1", cs.CacheHotEntries, cs.CacheColdEntries)
	}
	if cs.CacheBytes > 6000 {
		t.Fatalf("cache bytes %d exceed the 6000-byte budget", cs.CacheBytes)
	}

	e, role, comp := c.acquire(fpN(1))
	if role != cacheRolePromoter {
		t.Fatalf("acquire of the demoted fingerprint elected role %d, want promoter", role)
	}
	if len(comp) == 0 {
		t.Fatal("promoter received no compressed payload")
	}
	gotFP, table, err := cost.DecodeTableV2(comp)
	if err != nil {
		t.Fatalf("cold payload does not decode: %v", err)
	}
	if gotFP != fpN(1) {
		t.Fatalf("cold payload is for %v, want %v", gotFP, fpN(1))
	}
	// Concurrent requests for an in-flight promotion must wait on the
	// entry, not re-elect.
	if _, role2, _ := c.acquire(fpN(1)); role2 != cacheRoleWait {
		t.Fatalf("second acquire during promotion elected role %d, want wait", role2)
	}
	c.publish(e, nil, table)
	c.settle(cacheOutcomePromote)

	cs = c.counters()
	if cs.CachePromotions != 1 {
		t.Fatalf("promotions=%d, want 1", cs.CachePromotions)
	}
	if cs.CacheHits != 1 {
		t.Fatalf("hits=%d after a settled promotion, want 1", cs.CacheHits)
	}
	// Promoting fp1 re-overflowed the budget, so fp2 must now be cold.
	if cs.CacheDemotions != 2 {
		t.Fatalf("demotions=%d, want 2 (fp2 demoted when fp1 came back)", cs.CacheDemotions)
	}
	if cs.CacheBytes > 6000 {
		t.Fatalf("cache bytes %d exceed the budget after promotion", cs.CacheBytes)
	}
}

// With the cold tier disabled the same pressure evicts outright: the
// ablation knob really does restore the flat one-tier LRU.
func TestTableCacheColdTierDisabledEvicts(t *testing.T) {
	c := newTableCache(16, 6000, false)
	buildInto(t, c, fpN(1), 8, 8, 8)
	buildInto(t, c, fpN(2), 8, 8, 8)
	cs := c.counters()
	if cs.CacheDemotions != 0 || cs.CacheEvictions != 1 || cs.CacheColdEntries != 0 {
		t.Fatalf("demotions=%d evictions=%d cold=%d with cold tier disabled, want 0/1/0",
			cs.CacheDemotions, cs.CacheEvictions, cs.CacheColdEntries)
	}
	if _, role, _ := c.acquire(fpN(1)); role != cacheRoleBuilder {
		t.Fatalf("evicted fingerprint re-acquired as role %d, want builder", role)
	}
}

// A table too small to shrink under the v2 header is evicted rather
// than demoted: "demoting" it would grow the cache.
func TestTableCacheTinyTableEvictsInsteadOfDemoting(t *testing.T) {
	c := newTableCache(16, 20, true)
	buildInto(t, c, fpN(1), 1, 1, 2) // 16 flat bytes; v2 payload is 66+ bytes
	buildInto(t, c, fpN(2), 1, 1, 2)
	cs := c.counters()
	if cs.CacheDemotions != 0 || cs.CacheEvictions != 1 {
		t.Fatalf("demotions=%d evictions=%d for an incompressible table, want 0/1", cs.CacheDemotions, cs.CacheEvictions)
	}
}

// Admission: when eviction pressure would remove a table demonstrably
// hotter than the newcomer, the newcomer is rejected instead — a scan
// of one-shot fingerprints must not flush a hot working set.
func TestTableCacheAdmissionprotectsHotVictim(t *testing.T) {
	c := newTableCache(16, 6000, false) // flat mode isolates admission from demotion
	buildInto(t, c, fpN(1), 8, 8, 8)
	// Make fp1 provably hot.
	for i := 0; i < 5; i++ {
		e, role, _ := c.acquire(fpN(1))
		if role != cacheRoleWait {
			t.Fatalf("warm acquire %d elected role %d", i, role)
		}
		<-e.ready
		c.settle(cacheOutcomeHit)
	}
	// A one-shot scan table arrives; the budget forces a choice.
	buildInto(t, c, fpN(2), 8, 8, 8)
	cs := c.counters()
	if cs.CacheAdmitRejects != 1 || cs.CacheEvictions != 0 {
		t.Fatalf("admissionRejects=%d evictions=%d, want the scan rejected and the hot table kept", cs.CacheAdmitRejects, cs.CacheEvictions)
	}
	if _, ok := c.items[fpN(1)]; !ok {
		t.Fatal("hot fingerprint was flushed by a one-shot scan")
	}
	if _, ok := c.items[fpN(2)]; ok {
		t.Fatal("rejected newcomer still resident")
	}
	// Equal frequency admits (ties preserve plain LRU behaviour), so a
	// genuinely recurring newcomer still displaces the old resident
	// once its frequency catches up.
	for i := 0; i < 6; i++ {
		e, role, _ := c.acquire(fpN(2))
		if role == cacheRoleBuilder {
			c.publish(e, nil, func() cost.ResidenceTable {
				tb := cost.NewResidenceTable(8, 8, 8)
				return tb
			}())
		}
		c.settle(cacheOutcomeHit)
	}
	if _, ok := c.items[fpN(2)]; !ok {
		t.Fatal("recurring newcomer never admitted")
	}
}

// Accounting invariant: after arbitrary churn, the cache's byte counter
// equals the sum of resident node sizes and every resident node is in
// exactly one tier list.
func TestTableCacheByteAccountingConsistent(t *testing.T) {
	c := newTableCache(8, 10000, true)
	for n := byte(1); n <= 12; n++ {
		buildInto(t, c, fpN(n), 8, int(n), 8)
	}
	for _, n := range []byte{3, 7, 11, 2, 12} {
		if e, role, comp := c.acquire(fpN(n)); role == cacheRolePromoter {
			_, table, err := cost.DecodeTableV2(comp)
			if err != nil {
				t.Fatalf("fingerprint %d: cold payload corrupt: %v", n, err)
			}
			c.publish(e, nil, table)
			c.settle(cacheOutcomePromote)
		} else if role == cacheRoleBuilder {
			c.publish(e, nil, cost.NewResidenceTable(8, int(n), 8))
			c.settle(cacheOutcomeBuild)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, n := range c.items {
		sum += n.bytes
	}
	if sum != c.bytes {
		t.Fatalf("accounted bytes %d != summed node bytes %d", c.bytes, sum)
	}
	if got := c.hot.Len() + c.cold.Len(); got != len(c.items) {
		t.Fatalf("tier lists hold %d nodes, index holds %d", got, len(c.items))
	}
	if c.bytes > 10000 {
		t.Fatalf("cache bytes %d exceed the budget", c.bytes)
	}
}
