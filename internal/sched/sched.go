// Package sched implements the paper's three data-scheduling
// algorithms:
//
//   - SCDS, single-center data scheduling (Algorithm 1): one center per
//     data item for the whole execution;
//   - LOMCDS, local-optimal multiple-center data scheduling (§3.2.1):
//     the best center per execution window, chosen without regard to
//     movement cost; and
//   - GOMCDS, global-optimal multiple-center data scheduling
//     (Algorithm 2): the center sequence minimizing residence plus
//     movement cost, found by a shortest path through the per-item
//     cost-graph.
//
// All three honor the PIM array's per-processor memory capacity using
// the paper's processor-list technique: candidate centers are ranked by
// cost and the first processor with a free memory slot wins.
package sched

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Problem is a prepared scheduling instance: the cost model, its
// precomputed residence table, and the memory capacity. Build one with
// NewProblem and feed it to any scheduler; the residence table is
// shared across scheduler runs.
type Problem struct {
	Model *cost.Model
	Table cost.ResidenceTable

	// Capacity is the per-processor memory size in data items;
	// 0 or less means unbounded.
	Capacity int
}

// NewProblem builds a Problem from a trace, computing the residence
// table in parallel.
func NewProblem(t *trace.Trace, capacity int) *Problem {
	m := cost.NewModel(t)
	return &Problem{Model: m, Table: m.BuildResidenceTable(), Capacity: capacity}
}

// NewProblemFromModel wraps an existing model (for callers that tweak
// DataSize before building the table).
func NewProblemFromModel(m *cost.Model, capacity int) *Problem {
	return &Problem{Model: m, Table: m.BuildResidenceTable(), Capacity: capacity}
}

// feasible reports whether the capacity can hold all data at all.
func (p *Problem) feasible() error {
	if p.Capacity > 0 && p.Capacity*p.Model.Grid.NumProcs() < p.Model.NumData {
		return fmt.Errorf("sched: %d data items exceed total memory %d processors x %d slots",
			p.Model.NumData, p.Model.Grid.NumProcs(), p.Capacity)
	}
	return nil
}

// Scheduler produces a data schedule (one center per item per window)
// for a problem instance.
type Scheduler interface {
	// Name returns the algorithm's identifier as used in the paper's
	// tables ("SCDS", "LOMCDS", "GOMCDS", ...).
	Name() string
	// Schedule computes the placement. It returns an error when the
	// instance is infeasible (total memory smaller than the data set).
	Schedule(p *Problem) (cost.Schedule, error)
}

// processorList returns the processor indices sorted by ascending cost
// (ties broken by processor index), the paper's "processor list".
func processorList(costs []int64, scratch []int) []int {
	list := scratch[:0]
	for c := range costs {
		list = append(list, c)
	}
	sort.Slice(list, func(i, j int) bool {
		if costs[list[i]] != costs[list[j]] {
			return costs[list[i]] < costs[list[j]]
		}
		return list[i] < list[j]
	})
	return list
}

// firstAvailable walks the processor list and reserves the first
// processor with a free slot. The caller guarantees feasibility, so a
// slot always exists; firstAvailable panics otherwise.
func firstAvailable(list []int, tracker *placement.Tracker) int {
	for _, c := range list {
		if tracker.TryPlace(c) {
			return c
		}
	}
	panic("sched: no processor with free memory (feasibility was checked)")
}

// SCDS is the single-center data scheduler (Algorithm 1). The data
// stays at one processor for the entire execution; the center of each
// item is the feasible processor minimizing the item's total residence
// cost over all windows.
type SCDS struct{}

// Name implements Scheduler.
func (SCDS) Name() string { return "SCDS" }

// Schedule implements Scheduler.
func (SCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Model.NumData, p.Model.Grid.NumProcs(), p.Model.NumWindows()

	// Total residence cost of each item at each candidate center,
	// aggregated over every window (the merged single execution
	// window), priced separably from the whole-run volume histograms.
	agg := p.Model.BuildAggregateTable()

	// Assignment is sequential: items compete for memory slots in ID
	// order, exactly as Algorithm 1's outer loop iterates.
	tracker := placement.NewTracker(np, p.Capacity)
	assign := make([]int, nd)
	scratch := make([]int, np)
	for d := 0; d < nd; d++ {
		assign[d] = firstAvailable(processorList(agg[d], scratch), tracker)
	}
	return cost.Uniform(assign, nw), nil
}

// LOMCDS is the local-optimal multiple-center scheduler: Algorithm 1
// applied independently to every execution window. Data migrates to
// each window's local-optimal center; the movement cost is paid at run
// time but ignored while choosing centers.
//
// A window that does not reference an item at all defines no center for
// it (every processor has residence cost zero); the item then stays
// where the previous window left it rather than being dragged to the
// tie-break processor. Items not referenced by any window seen so far
// are pre-placed at their whole-run best center, the initialization
// role of the paper's Section 3.2 first part.
type LOMCDS struct{}

// Name implements Scheduler.
func (LOMCDS) Name() string { return "LOMCDS" }

// Schedule implements Scheduler.
func (LOMCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Model.NumData, p.Model.Grid.NumProcs(), p.Model.NumWindows()
	centers := make([][]int, nw)

	// Whole-run aggregate residence, used to pre-place items before
	// their first reference (priced separably from the whole-run volume
	// histograms); and the per-(window, item) referenced-ness.
	agg := p.Model.BuildAggregateTable()
	referenced := make([][]bool, nw)
	for w := range referenced {
		referenced[w] = make([]bool, nd)
	}
	counts := p.Model.Counts()
	parallel.ForEach(nd, func(d int) {
		for w := 0; w < nw; w++ {
			referenced[w][d] = counts.Referenced(w, trace.DataID(d))
		}
	})

	prev := make([]int, nd)
	for d := range prev {
		prev[d] = -1
	}
	scratch := make([]int, np)
	distRow := make([]int64, np)
	for w := 0; w < nw; w++ {
		tracker := placement.NewTracker(np, p.Capacity)
		row := make([]int, nd)
		for d := 0; d < nd; d++ {
			var list []int
			switch {
			case referenced[w][d]:
				list = processorList(p.Table.Row(w, d), scratch)
			case prev[d] >= 0:
				// No center defined by this window: prefer staying put,
				// then the nearest processors.
				for c := 0; c < np; c++ {
					distRow[c] = int64(p.Model.Dist(prev[d], c))
				}
				list = processorList(distRow, scratch)
			default:
				list = processorList(agg[d], scratch)
			}
			row[d] = firstAvailable(list, tracker)
			prev[d] = row[d]
		}
		centers[w] = row
	}
	return cost.Schedule{Centers: centers}, nil
}

// GOMCDS is the global-optimal multiple-center scheduler (Algorithm 2):
// for each data item it builds the layered cost-graph over (window,
// processor) states — residence cost on the vertices, movement cost on
// the edges — and takes the shortest source-to-sink path as the
// center sequence.
//
// Under a memory capacity the items are scheduled one after another in
// ID order (the paper's processor-list discipline); processors whose
// memory is full in a window are forbidden vertices for later items.
// Without a capacity all items are independent and are scheduled in
// parallel; the result is then exactly optimal per item.
//
// The per-item DP runs the separable min-plus sweep kernel by default
// (costgraph.KernelSweep, O(P) per layer); set Kernel to
// costgraph.KernelNaive for the dense O(P²) relaxation. Both kernels
// produce identical schedules — internal/verify pins them together —
// so the choice is purely a speed/diagnostics knob.
type GOMCDS struct {
	// Kernel selects the layered-DP relaxation. The zero value is
	// costgraph.KernelSweep, the fast separable kernel.
	Kernel costgraph.Kernel
}

// Name implements Scheduler.
func (GOMCDS) Name() string { return "GOMCDS" }

// dpStage names the DP span recorded on the model's stage sink.
func (g GOMCDS) dpStage() string {
	if g.Kernel == costgraph.KernelNaive {
		return "sched.dp.naive"
	}
	return "sched.dp.sweep"
}

// Schedule implements Scheduler.
func (g GOMCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Model.NumData, p.Model.Grid.NumProcs(), p.Model.NumWindows()
	centers := make([][]int, nw)
	for w := range centers {
		centers[w] = make([]int, nd)
	}
	if nw == 0 {
		return cost.Schedule{Centers: centers}, nil
	}
	sp := obs.Stages(p.Model.Stages).Start(g.dpStage())
	defer sp.End()

	if p.Capacity <= 0 {
		// Independent items. With the sweep kernel the items are solved
		// by the batched layer-major DP: contiguous item blocks stream
		// through the flat residence table one window at a time, so one
		// layer pass touches one contiguous run of table cells. With the
		// naive kernel (a diagnostics knob) items are solved one at a
		// time as before. Either way solvers come from the
		// process-lifetime pool and survive across requests.
		if g.Kernel == costgraph.KernelNaive {
			parallel.ForEach(nd, func(d int) {
				solver := costgraph.GetSolver(p.Model.Grid.Width(), p.Model.Grid.Height())
				path := g.bestPath(p, d, nil, solver)
				for w := 0; w < nw; w++ {
					centers[w][d] = path[w]
				}
				costgraph.PutSolver(solver)
			})
		} else {
			cells := p.Table.Cells()
			blocks := runtime.GOMAXPROCS(0)
			if blocks > nd {
				blocks = nd
			}
			parallel.ForEach(blocks, func(b int) {
				lo, hi := b*nd/blocks, (b+1)*nd/blocks
				solver := costgraph.GetSolver(p.Model.Grid.Width(), p.Model.Grid.Height())
				sizes := solver.BatchSizes(hi - lo)
				for i := range sizes {
					sizes[i] = int64(p.Model.DataSize[lo+i])
				}
				totals, paths := solver.SolveBatch(cells, nw, nd, lo, hi, sizes)
				for i := 0; i < hi-lo; i++ {
					if totals[i] == costgraph.Inf {
						// Feasibility was checked and nothing is forbidden
						// without a capacity, so a blocked item is a bug.
						panic("sched: GOMCDS found no feasible center sequence")
					}
					path := paths[i*nw : (i+1)*nw]
					for w := 0; w < nw; w++ {
						centers[w][lo+i] = path[w]
					}
				}
				costgraph.PutSolver(solver)
			})
		}
		return cost.Schedule{Centers: centers}, nil
	}

	trackers := make([]*placement.Tracker, nw)
	for w := range trackers {
		trackers[w] = placement.NewTracker(np, p.Capacity)
	}
	solver := costgraph.GetSolver(p.Model.Grid.Width(), p.Model.Grid.Height())
	defer costgraph.PutSolver(solver)
	for d := 0; d < nd; d++ {
		path := g.bestPath(p, d, trackers, solver)
		for w := 0; w < nw; w++ {
			if !trackers[w].TryPlace(path[w]) {
				panic("sched: GOMCDS chose a full processor (forbidden vertex leaked)")
			}
			centers[w][d] = path[w]
		}
	}
	return cost.Schedule{Centers: centers}, nil
}

// bestPath runs the cost-graph shortest path for one item. trackers,
// when non-nil, mark full processors as forbidden vertices. The
// solver's NodeCost scratch assembles the layer costs without per-item
// allocation: rows alias the residence table directly when nothing is
// forbidden and are materialized (table value or Inf) under capacity
// tracking.
func (g GOMCDS) bestPath(p *Problem, d int, trackers []*placement.Tracker, solver *costgraph.Solver) []int {
	nw, np := p.Model.NumWindows(), p.Model.Grid.NumProcs()
	nodeCost := solver.NodeCost(nw)
	for w := 0; w < nw; w++ {
		if trackers == nil {
			nodeCost[w] = p.Table.Row(w, d)
			continue
		}
		row := nodeCost[w]
		tableRow := p.Table.Row(w, d)
		for c := 0; c < np; c++ {
			if trackers[w].Capacity() > 0 && trackers[w].Used(c) >= trackers[w].Capacity() {
				row[c] = costgraph.Inf
			} else {
				row[c] = tableRow[c]
			}
		}
	}
	size := int64(p.Model.DataSize[d])
	var total int64
	var path []int
	if g.Kernel == costgraph.KernelNaive {
		total, path = costgraph.ShortestLayeredPathNaive(nodeCost, p.Model.Grid.Width(), p.Model.Grid.Height(), size)
	} else {
		total, path = solver.Solve(nodeCost, size)
	}
	if path == nil || total == costgraph.Inf {
		// Feasibility was checked: every window has at least one free
		// slot for every item scheduled one at a time.
		panic("sched: GOMCDS found no feasible center sequence")
	}
	return path
}

// Fixed wraps a precomputed single-window assignment (such as a
// row-wise baseline distribution) as a no-movement Scheduler, so the
// experiment harness can treat baselines and real schedulers uniformly.
type Fixed struct {
	Label  string
	Assign placement.Assignment
}

// Name implements Scheduler.
func (f Fixed) Name() string { return f.Label }

// Schedule implements Scheduler.
func (f Fixed) Schedule(p *Problem) (cost.Schedule, error) {
	if len(f.Assign) != p.Model.NumData {
		return cost.Schedule{}, fmt.Errorf("sched: fixed assignment covers %d items, trace has %d",
			len(f.Assign), p.Model.NumData)
	}
	if err := f.Assign.Validate(p.Model.Grid, p.Capacity); err != nil {
		return cost.Schedule{}, err
	}
	return cost.Uniform(f.Assign, p.Model.NumWindows()), nil
}

// All returns the paper's three schedulers in presentation order
// (SCDS, LOMCDS, GOMCDS), for drivers that run the full comparison.
func All() []Scheduler {
	return []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}}
}

// ByName returns the scheduler with the given case-insensitive name
// ("scds", "lomcds" or "gomcds"), for command-line tools.
func ByName(name string) (Scheduler, error) {
	switch strings.ToLower(name) {
	case "scds":
		return SCDS{}, nil
	case "lomcds":
		return LOMCDS{}, nil
	case "gomcds":
		return GOMCDS{}, nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (want scds, lomcds or gomcds)", name)
}
