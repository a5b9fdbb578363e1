package cost

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/workload"
)

func builtTable(t *testing.T) (trace.Fingerprint, ResidenceTable) {
	t.Helper()
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(6, grid.Square(3))
	m := NewModel(tr)
	return tr.Fingerprint(), m.BuildResidenceTable()
}

func int64Bytes(cells []int64) []byte {
	out := make([]byte, 0, 8*len(cells))
	for _, c := range cells {
		out = binary.LittleEndian.AppendUint64(out, uint64(c))
	}
	return out
}

func sameTable(a, b ResidenceTable) bool {
	return a.NumWindows() == b.NumWindows() && a.NumData() == b.NumData() &&
		a.NumProcs() == b.NumProcs() &&
		bytes.Equal(int64Bytes(a.Cells()), int64Bytes(b.Cells()))
}

// flatTableSize is the size a table would take with fixed 8-byte cells
// behind the same header: the reference the compression ratio is
// reported against.
func flatTableSize(t ResidenceTable) int {
	return tableCodecHeaderLen + 8*len(t.Cells())
}

func TestTableCodecRoundTrip(t *testing.T) {
	fp, table := builtTable(t)
	gotFP, got, err := DecodeTableV2(EncodeTableV2(fp, table))
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Fatalf("fingerprint %s, want %s", gotFP, fp)
	}
	if !sameTable(got, table) {
		t.Fatal("decoded table differs from original")
	}
	// The decoded table owns fresh backing: mutating it must not alias
	// the payload or the original.
	if len(got.Cells()) > 0 {
		got.Cells()[0]++
		if got.Cells()[0] == table.Cells()[0] {
			t.Fatal("decoded table aliases the original")
		}
	}
}

func TestTableCodecRoundTripEmpty(t *testing.T) {
	var fp trace.Fingerprint
	fp[0] = 0xab
	table := NewResidenceTable(0, 3, 9)
	gotFP, got, err := DecodeTableV2(EncodeTableV2(fp, table))
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp || got.NumWindows() != 0 || got.NumData() != 3 || got.NumProcs() != 9 {
		t.Fatalf("empty table round-trip: fp %s shape %dx%dx%d", gotFP, got.NumWindows(), got.NumData(), got.NumProcs())
	}
}

func TestTableCodecV2RoundTrip(t *testing.T) {
	shapes := []struct {
		kind string
		n    int
		side int
	}{
		{"lu", 6, 3}, {"matsquare", 8, 4}, {"stencil", 10, 2}, {"code", 5, 3},
	}
	for _, sh := range shapes {
		gen, err := workload.ByName(sh.kind)
		if err != nil {
			t.Fatal(err)
		}
		tr := gen.Generate(sh.n, grid.Square(sh.side))
		fp := tr.Fingerprint()
		table := NewModel(tr).BuildResidenceTable()
		payload := EncodeTableV2(fp, table)
		gotFP, got, err := DecodeTableV2(payload)
		if err != nil {
			t.Fatalf("%s/%d: %v", sh.kind, sh.n, err)
		}
		if gotFP != fp {
			t.Fatalf("%s/%d: fingerprint %s, want %s", sh.kind, sh.n, gotFP, fp)
		}
		if !sameTable(got, table) {
			t.Fatalf("%s/%d: decoded table differs from original", sh.kind, sh.n)
		}
	}
}

func TestTableCodecV2RoundTripExtremeCells(t *testing.T) {
	var fp trace.Fingerprint
	fp[3] = 0x7c
	table := NewResidenceTable(2, 3, 4)
	cells := table.Cells()
	cells[0] = math.MinInt64
	cells[1] = math.MaxInt64
	cells[2] = -1
	cells[len(cells)-1] = math.MaxInt64
	cells[len(cells)-2] = math.MinInt64
	_, got, err := DecodeTableV2(EncodeTableV2(fp, table))
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(got, table) {
		t.Fatal("extreme cell values did not survive the round trip")
	}
}

// TestDecodeTableV2LimitBudget pins the DoS guard on the bounded
// decoder shards run on outside input: a payload whose declared shape
// exceeds the caller's budget is rejected before any cell allocation.
func TestDecodeTableV2LimitBudget(t *testing.T) {
	fp, table := builtTable(t)
	payload := EncodeTableV2(fp, table)
	cells := int64(len(table.Cells()))
	if _, _, err := DecodeTableV2Limit(payload, cells); err != nil {
		t.Fatalf("rejected a table exactly at the budget: %v", err)
	}
	_, _, err := DecodeTableV2Limit(payload, cells-1)
	if err == nil || !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("budget %d did not reject a %d-cell table: %v", cells-1, cells, err)
	}
}

// olderVersion relabels a payload with the previous codec version's
// magic (same header length), the shape an old exporter would send.
func olderVersion(p []byte) []byte {
	q := append([]byte(nil), p...)
	q[len(tableCodecMagic)-2]-- // the version digit
	return q
}

type corruptCase struct {
	name    string
	mutate  func([]byte) []byte
	wantSub string
}

var corruptCases = []corruptCase{
	{"empty", func(p []byte) []byte { return nil }, "header needs"},
	{"short header", func(p []byte) []byte { return p[:tableCodecHeaderLen-1] }, "header needs"},
	{"wrong magic", func(p []byte) []byte {
		q := append([]byte(nil), p...)
		q[0] ^= 0xff
		return q
	}, "wrong magic"},
	{"older version", olderVersion, "wrong magic"},
	{"truncated cells", func(p []byte) []byte { return p[:len(p)-5] }, "truncated"},
	{"trailing junk", func(p []byte) []byte { return append(append([]byte(nil), p...), 0, 1, 2) }, "trailing"},
	{"oversized shape", func(p []byte) []byte {
		q := append([]byte(nil), p...)
		// Overwrite numWindows with a value whose cell count would
		// overflow a naive nw*nd*np multiplication.
		binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+32:], 1<<62)
		return q
	}, "out of range"},
	{"huge but in-range shape", func(p []byte) []byte {
		q := append([]byte(nil), p...)
		binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+32:], 1<<31-1)
		binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+40:], 1<<31-1)
		binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+48:], 1<<31-1)
		return q
	}, "cell limit"},
}

func checkRejectsCorruption(t *testing.T, decode func([]byte) (trace.Fingerprint, ResidenceTable, error)) {
	fp, table := builtTable(t)
	payload := EncodeTableV2(fp, table)
	for _, tc := range corruptCases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decode(tc.mutate(payload))
			if err == nil {
				t.Fatal("decoder accepted a corrupt payload")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestTableCodecV2RejectsCorruption(t *testing.T) {
	checkRejectsCorruption(t, DecodeTableV2)
}

// TestTableCodecRejectsCorruption runs the same corruptions through the
// bounded decoder peer fill, promotion and session import use, with a
// budget that admits the intact table.
func TestTableCodecRejectsCorruption(t *testing.T) {
	_, table := builtTable(t)
	budget := int64(len(table.Cells()))
	checkRejectsCorruption(t, func(p []byte) (trace.Fingerprint, ResidenceTable, error) {
		return DecodeTableV2Limit(p, budget)
	})
}

// TestTableCodecV2Compresses pins the cold tier's storage claim on a
// paper-shaped table: delta+varint must land at no more than half the
// flat encoding (the ≥2x gate), because the cold tier's whole
// point is holding more tables per byte.
func TestTableCodecV2Compresses(t *testing.T) {
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(16, grid.Square(4))
	fp := tr.Fingerprint()
	table := NewModel(tr).BuildResidenceTable()
	flat := flatTableSize(table)
	comp := len(EncodeTableV2(fp, table))
	if ratio := float64(flat) / float64(comp); ratio < 2 {
		t.Fatalf("compression ratio %.2f (flat %d, v2 %d), want >= 2", ratio, flat, comp)
	}
}

// FuzzTableCodecV2 feeds arbitrary payloads to DecodeTableV2: it must
// never panic, and anything it accepts must survive a re-encode/decode
// cycle with identical values. Byte identity is NOT required — varints
// are non-canonical, so an over-long encoding decodes fine but
// re-encodes shorter; value identity is the invariant. Each input also
// goes through the bounded decoder shards run on outside input, which
// must agree with the unbounded one and never accept more cells than
// its budget.
func FuzzTableCodecV2(f *testing.F) {
	const budget = 64
	var fp trace.Fingerprint
	f.Add([]byte{})
	f.Add([]byte(tableCodecMagic))
	f.Add(EncodeTableV2(fp, NewResidenceTable(0, 0, 0)))
	f.Add(EncodeTableV2(fp, NewResidenceTable(1, 1, 1)))
	f.Add(EncodeTableV2(fp, NewResidenceTable(2, 3, 4)))
	f.Add(olderVersion(EncodeTableV2(fp, NewResidenceTable(2, 3, 4)))) // must be rejected, not crash
	f.Add(EncodeTableV2(fp, NewResidenceTable(2, 5, 8)))               // valid, but over the budget
	f.Fuzz(func(t *testing.T, data []byte) {
		fpB, tableB, errB := DecodeTableV2Limit(data, budget)
		fp, table, err := DecodeTableV2(data)
		if errB == nil {
			if n := len(tableB.Cells()); n > budget {
				t.Fatalf("bounded decode accepted %d cells over a %d-cell budget", n, budget)
			}
			if err != nil || fpB != fp || !sameTable(tableB, table) {
				t.Fatalf("bounded decode accepted what the unbounded one decodes differently (err %v)", err)
			}
		}
		if err != nil {
			return
		}
		fp2, table2, err := DecodeTableV2(EncodeTableV2(fp, table))
		if err != nil {
			t.Fatalf("re-decode of an accepted payload failed: %v", err)
		}
		if fp2 != fp || !sameTable(table2, table) {
			t.Fatal("decode/encode/decode is not value-identity")
		}
	})
}

// BenchmarkTableCodecV2 measures encode and decode throughput and
// reports the compression ratio over flat 8-byte cells on a
// paper-shaped table; scripts/bench.sh snapshots the ratio into
// BENCH_CACHE.json.
func BenchmarkTableCodecV2(b *testing.B) {
	gen, err := workload.ByName("lu")
	if err != nil {
		b.Fatal(err)
	}
	tr := gen.Generate(16, grid.Square(4))
	fp := tr.Fingerprint()
	table := NewModel(tr).BuildResidenceTable()
	flat := flatTableSize(table)
	payload := EncodeTableV2(fp, table)
	ratio := float64(flat) / float64(len(payload))

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(payload))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendTableV2(buf[:0], fp, table)
		}
		b.ReportMetric(ratio, "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeTableV2(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ratio, "ratio")
	})
}
