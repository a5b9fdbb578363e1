package sched

import (
	"math/rand"
	"testing"

	"repro/internal/costgraph"
	"repro/internal/grid"
	"repro/internal/placement"
	"repro/internal/trace"
)

// randomProblem builds a seeded random instance for the kernel and
// allocation tests.
func randomKernelProblem(rng *rand.Rand, g grid.Grid, nd, nw, refs, capacity int) *Problem {
	tr := trace.New(g, nd)
	for w := 0; w < nw; w++ {
		win := tr.AddWindow()
		for r := 0; r < refs; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	return NewProblem(tr, capacity)
}

// TestGOMCDSKernelsProduceIdenticalSchedules pins the sweep and naive
// DP kernels together at the scheduler level: same schedules (not just
// costs) with and without capacity tracking, across random instances
// including 1xN and Nx1 arrays.
func TestGOMCDSKernelsProduceIdenticalSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	grids := []grid.Grid{grid.Square(3), grid.New(6, 1), grid.New(1, 6), grid.New(4, 2)}
	for iter := 0; iter < 30; iter++ {
		g := grids[iter%len(grids)]
		nd := 1 + rng.Intn(8)
		for _, capacity := range []int{0, 1 + (nd-1)/g.NumProcs()} {
			p := randomKernelProblem(rng, g, nd, 1+rng.Intn(5), 1+rng.Intn(20), capacity)
			// Vary item sizes so movement cost matters.
			for d := range p.Model.DataSize {
				p.Model.DataSize[d] = 1 + rng.Intn(3)
			}
			sweep := mustSchedule(t, GOMCDS{Kernel: costgraph.KernelSweep}, p)
			naive := mustSchedule(t, GOMCDS{Kernel: costgraph.KernelNaive}, p)
			if !sweep.Equal(naive) {
				t.Fatalf("iter %d (%v, nd=%d, cap=%d): sweep schedule %v != naive %v",
					iter, g, nd, capacity, sweep.Centers, naive.Centers)
			}
		}
	}
}

// TestGOMCDSCapacityAllocsBounded is the -benchmem regression guard for
// the capacity branch: before the Solver, every item allocated a fresh
// W x P nodeCost matrix plus the DP's choice/next rows — Θ(D·W)
// allocations per run. With solver scratch the per-item cost is one
// path slice, so a whole run must stay well under D·W allocations.
func TestGOMCDSCapacityAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nd, nw = 32, 8
	p := randomKernelProblem(rng, grid.Square(8), nd, nw, 256, placement.PaperCapacity(nd, 64))
	if _, err := (GOMCDS{}).Schedule(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := (GOMCDS{}).Schedule(p); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(nd * nw); allocs >= limit {
		t.Fatalf("GOMCDS capacity run allocated %.0f times, want < %.0f (per-item scratch is back)", allocs, limit)
	}
}
