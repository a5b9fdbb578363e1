package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/delta"
	"repro/internal/grid"
	"repro/internal/placement"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload names. BENCHMARK.json lists cache-churn and session-edit.
// hot-repeat still runs with --workload hot-repeat, but the list leaves
// it out: three workloads leave room for 30 s runs only, and at that
// length its p99 spread past the 0.25 bound between runs on a shared
// host with heavy CPU steal. Every layer it exercises also works under
// cache-churn.
const (
	hotRepeat   = "hot-repeat"
	cacheChurn  = "cache-churn"
	sessionEdit = "session-edit"
)

var workloadNames = []string{hotRepeat, cacheChurn, sessionEdit}

// cycleOps is the length of each client's op cycle. A client that
// completes the cycle starts it again; both cycles are long enough that
// a measured phase rarely wraps, so a run measures the seed's whole
// draw rather than a short stretch of it many times over. Session
// cycles end where they started, so every delta stays valid on the
// next pass.
const (
	cycleOps        = 1 << 14
	sessionCycleOps = 1 << 15
)

// Spec is one distinct /schedule request: a trace, an algorithm and a
// capacity.
type Spec struct {
	Trace     int
	Algorithm string
	Capacity  int
}

// Op is one HTTP call of the closed loop. Schedule workloads send Spec;
// session-edit sends a delta (its JSON in Body) or, with Body nil, a
// session schedule on Session.
type Op struct {
	Spec    int
	Session int
	Body    []byte
}

func (op Op) isDelta() bool { return op.Body != nil }

func (op Op) delta() (delta.Delta, error) {
	var d delta.Delta
	err := json.Unmarshal(op.Body, &d)
	return d, err
}

// Plan is everything a workload sends, derived from (workload, seed,
// clients) alone: the program under test only ever sees these inputs.
type Plan struct {
	Name    string
	Seed    int64
	Clients int

	Traces    []*trace.Trace
	TraceText []string

	// Schedule workloads.
	Specs  []Spec
	Bodies [][]byte // per spec, the /schedule request body

	// CacheBytes is each shard's table-cache byte budget (0 = pimserve
	// default).
	CacheBytes int64

	// Ops[c] is client c's op cycle.
	Ops [][]Op

	// WarmOps is the number of ops each client runs, from the start of
	// its cycle, during set-up.
	WarmOps int

	// Session-edit: session i is opened over Traces[i] and driven only
	// by client SessionOwner[i], so its delta order is fixed.
	SessionOwner []int
}

// NewPlan generates a workload's inputs. It is a pure function of its
// arguments.
func NewPlan(name string, seed int64, clients int) (*Plan, error) {
	if clients < 1 {
		return nil, fmt.Errorf("clients %d < 1", clients)
	}
	p := &Plan{Name: name, Seed: seed, Clients: clients}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case hotRepeat:
		p.hotRepeat(rng)
	case cacheChurn:
		p.cacheChurn(rng)
	case sessionEdit:
		p.sessionEdit(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := p.encodeTraces(); err != nil {
		return nil, err
	}
	if p.Specs != nil {
		if err := p.encodeSpecs(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// hotRepeat: 16 paper-kernel traces on the paper's 4x4 array, all
// scheduled by uncapacitated GOMCDS, drawn Zipf so the two clients
// sometimes send the same request at once.
func (p *Plan) hotRepeat(rng *rand.Rand) {
	g := grid.Square(4)
	codeSeed := uint64(populationSeed)
	for _, n := range []int{12, 16} {
		for _, part := range []workload.Partition{workload.BlockPartition, workload.CyclicPartition} {
			p.Traces = append(p.Traces,
				workload.LU{Part: part}.Generate(n, g),
				workload.MatSquare{Part: part}.Generate(n, g),
				workload.Stencil{Part: part}.Generate(n, g))
		}
		for i := 0; i < 2; i++ {
			codeSeed++
			p.Traces = append(p.Traces, workload.Code{Seed: codeSeed}.Generate(n, g))
		}
	}
	for i := range p.Traces {
		p.Specs = append(p.Specs, Spec{Trace: i, Algorithm: "gomcds"})
	}
	p.WarmOps = 64
	p.drawSpecOps(rng, 1.2, func(tr int, _ *rand.Rand) int { return tr })
}

// cacheChurn: 72 traces over 4x4, 8x8 and 16x16 arrays with every
// algorithm x capacity mix, under a shard byte budget a fraction of the
// working set, so ops keep building, demoting and promoting tables.
func (p *Plan) cacheChurn(rng *rand.Rand) {
	codeSeed := uint64(populationSeed)
	kernels := func(n int, g grid.Grid) []*trace.Trace {
		codeSeed++
		return []*trace.Trace{
			workload.LU{}.Generate(n, g),
			workload.MatSquare{}.Generate(n, g),
			workload.Stencil{}.Generate(n, g),
			workload.Code{Seed: codeSeed}.Generate(n, g),
		}
	}
	for n := 8; n <= 15; n++ {
		p.Traces = append(p.Traces, kernels(n, grid.Square(4))...)
	}
	for n := 6; n <= 11; n++ {
		p.Traces = append(p.Traces, kernels(n, grid.Square(8))...)
	}
	for n := 5; n <= 8; n++ {
		p.Traces = append(p.Traces, kernels(n, grid.Square(16))...)
	}
	for i, tr := range p.Traces {
		paper := 2 * placement.MinCapacity(tr.NumData, tr.Grid.NumProcs())
		for _, algo := range []string{"gomcds", "lomcds", "scds"} {
			for _, c := range []int{0, paper} {
				p.Specs = append(p.Specs, Spec{Trace: i, Algorithm: algo, Capacity: c})
			}
		}
	}
	p.CacheBytes = 2 << 20
	p.WarmOps = 96
	// Specs of trace t sit at 6t..6t+5: draw the trace by Zipf, then
	// the algorithm x capacity uniformly.
	p.drawSpecOps(rng, 1.05, func(tr int, r *rand.Rand) int { return 6*tr + r.Intn(6) })
}

// populationSeed fixes a workload's trace population (the CODE
// kernel's reference streams, the session traces) and which traces are
// hot. The workload seed varies the draws, not the population: traces
// differ in cost by orders of magnitude, and their fingerprints decide
// which shard's cache budget each one competes for, so a seed that
// changed the population would change what the workload measures.
const populationSeed = 1998

// drawSpecOps fills each client's cycle with Zipf(s) draws over the
// traces, in a fixed shuffled popularity order, mapped to a spec.
func (p *Plan) drawSpecOps(rng *rand.Rand, s float64, spec func(tr int, r *rand.Rand) int) {
	rank := rand.New(rand.NewSource(populationSeed)).Perm(len(p.Traces))
	p.Ops = make([][]Op, p.Clients)
	for c := range p.Ops {
		r := rand.New(rand.NewSource(rng.Int63()))
		z := rand.NewZipf(r, s, 1, uint64(len(p.Traces)-1))
		ops := make([]Op, cycleOps)
		for k := range ops {
			ops[k] = Op{Spec: spec(rank[z.Uint64()], r)}
		}
		p.Ops[c] = ops
	}
}

// Session-edit shape: 16x16 arrays, 64-window traces over 64 items,
// two sessions per client.
const (
	sessionSide        = 16
	sessionData        = 64
	sessionWindows     = 64
	sessionsPerClient  = 2
	sessionRefsPerWin  = 4 * sessionSide * sessionSide
	sessionWindowSlack = 8 // window count stays within 64 +- slack
)

// sessionEdit: GOMCDS sessions pinned through the router, driven by
// seeded deltas (mostly edit_item, some append/remove_window) with
// session schedules interleaved.
func (p *Plan) sessionEdit(rng *rand.Rand) {
	g := grid.Square(sessionSide)
	np := g.NumProcs()
	n := p.Clients * sessionsPerClient
	pop := rand.New(rand.NewSource(populationSeed))
	for i := 0; i < n; i++ {
		tr := trace.New(g, sessionData)
		for w := 0; w < sessionWindows; w++ {
			win := tr.AddWindow()
			for r := 0; r < sessionRefsPerWin; r++ {
				win.Add(pop.Intn(np), trace.DataID(pop.Intn(sessionData)))
			}
		}
		p.Traces = append(p.Traces, tr)
		p.SessionOwner = append(p.SessionOwner, i%p.Clients)
	}
	p.WarmOps = 32
	p.Ops = make([][]Op, p.Clients)
	for c := range p.Ops {
		r := rand.New(rand.NewSource(rng.Int63()))
		var mine []int
		for i, owner := range p.SessionOwner {
			if owner == c {
				mine = append(mine, i)
			}
		}
		windows := make(map[int]int, len(mine))
		for _, s := range mine {
			windows[s] = sessionWindows
		}
		var ops []Op
		add := func(s int, d delta.Delta) {
			body, err := json.Marshal(d)
			if err != nil {
				panic(err) // a Delta always marshals
			}
			ops = append(ops, Op{Session: s, Body: body})
		}
		for k := 0; k < sessionCycleOps; k++ {
			s := mine[r.Intn(len(mine))]
			if r.Intn(4) == 0 {
				ops = append(ops, Op{Session: s}) // a session schedule
				continue
			}
			switch x := r.Intn(20); {
			case x == 0 && windows[s] < sessionWindows+sessionWindowSlack:
				add(s, delta.AppendWindow(randomRefs(r, np, 1+r.Intn(64))))
				windows[s]++
			case x == 1 && windows[s] > sessionWindows-sessionWindowSlack:
				add(s, delta.RemoveWindow(r.Intn(windows[s])))
				windows[s]--
			default:
				add(s, delta.EditItemVolumes(r.Intn(windows[s]), trace.DataID(r.Intn(sessionData)), randomVolumes(r, np)))
			}
		}
		// Close the cycle at the starting window counts, so every
		// delta stays valid when the cycle repeats.
		for _, s := range mine {
			for ; windows[s] > sessionWindows; windows[s]-- {
				add(s, delta.RemoveWindow(r.Intn(windows[s])))
			}
			for ; windows[s] < sessionWindows; windows[s]++ {
				add(s, delta.AppendWindow(randomRefs(r, np, 1+r.Intn(64))))
			}
		}
		p.Ops[c] = ops
	}
}

func randomRefs(r *rand.Rand, np, n int) []delta.Ref {
	refs := make([]delta.Ref, n)
	for i := range refs {
		refs[i] = delta.Ref{Proc: r.Intn(np), Data: trace.DataID(r.Intn(sessionData)), Volume: 1 + r.Intn(3)}
	}
	return refs
}

// randomVolumes is an edit's per-processor volume vector: a handful of
// processors referencing the item, the rest zero.
func randomVolumes(r *rand.Rand, np int) []int {
	v := make([]int, np)
	for i := r.Intn(12); i >= 0; i-- {
		v[r.Intn(np)] += 1 + r.Intn(3)
	}
	return v
}

func (p *Plan) encodeTraces() error {
	p.TraceText = make([]string, len(p.Traces))
	for i, tr := range p.Traces {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			return fmt.Errorf("encode trace %d: %w", i, err)
		}
		p.TraceText[i] = buf.String()
	}
	return nil
}

func (p *Plan) encodeSpecs() error {
	p.Bodies = make([][]byte, len(p.Specs))
	for i, s := range p.Specs {
		body, err := json.Marshal(service.Request{Trace: p.TraceText[s.Trace], Algorithm: s.Algorithm, Capacity: s.Capacity})
		if err != nil {
			return fmt.Errorf("encode spec %d: %w", i, err)
		}
		p.Bodies[i] = body
	}
	return nil
}

// op returns client c's k-th op (the cycle repeats).
func (p *Plan) op(c, k int) Op {
	ops := p.Ops[c]
	return ops[k%len(ops)]
}

// sessionDeltas returns, in order, the first n deltas client
// SessionOwner[s] sends to session s, walking the owner's cycle.
func (p *Plan) sessionDeltas(s, n int) ([]delta.Delta, error) {
	ops := p.Ops[p.SessionOwner[s]]
	out := make([]delta.Delta, 0, n)
	for k := 0; len(out) < n; k++ {
		if op := ops[k%len(ops)]; op.Session == s && op.isDelta() {
			d, err := op.delta()
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	}
	return out, nil
}
