package main

import (
	"math"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/threads"
	"repro/mpmd"
)

// EM3D inputs: two arrays (E and H) of em3dN values each, every value
// depending on em3dDegree values of the other array, em3dRemotePct percent
// of them (nominally) owned by the other member.
const (
	em3dMembers   = 2
	em3dN         = 2000
	em3dDegree    = 6
	em3dRemotePct = 30
	em3dWarmIters = 3
)

// em3dGraph is the seeded bipartite dependency graph: deps[a][i] lists the
// indices in array 1-a that element i of array a depends on.
type em3dGraph struct {
	n, block int
	deps     [2][][]int32
	weights  [2][][]float64
	remote   int // dependency edges whose source another member owns
	edges    int
}

func (g *em3dGraph) owner(i int) int { return i / g.block }

// newEM3DGraph builds the graph for a seed. Weights keep every update a
// contraction (|0.5| + sum|w| < 1), so values stay bounded however many
// iterations a run completes.
func newEM3DGraph(seed int64) *em3dGraph {
	rng := rand.New(rand.NewSource(seed))
	g := &em3dGraph{n: em3dN, block: (em3dN + em3dMembers - 1) / em3dMembers}
	for a := 0; a < 2; a++ {
		g.deps[a] = make([][]int32, g.n)
		g.weights[a] = make([][]float64, g.n)
		for i := 0; i < g.n; i++ {
			me := g.owner(i)
			for d := 0; d < em3dDegree; d++ {
				want := me
				if rng.Intn(100) < em3dRemotePct {
					want = (me + 1 + rng.Intn(em3dMembers-1)) % em3dMembers
				}
				lo := want * g.block
				hi := min(lo+g.block, g.n)
				j := lo + rng.Intn(hi-lo)
				if g.owner(j) != me {
					g.remote++
				}
				g.edges++
				g.deps[a][i] = append(g.deps[a][i], int32(j))
				g.weights[a][i] = append(g.weights[a][i], (rng.Float64()-0.5)*0.8/em3dDegree)
			}
		}
	}
	return g
}

// em3dInit is element i's starting value in array a.
func em3dInit(a, i int) float64 { return float64(i%17) + float64(a) }

// The EM3D kernel for element i of array a is a damped
// dst[i] = 0.5*dst[i] + 1 - sum_d w_id * src[dep_id], accumulated in
// dependency order; the serial reference and the members apply it with the
// same operation order.

// serialChecksums runs iters iterations in one address space and returns
// the checksum (sum of all E and H values) after each.
func (g *em3dGraph) serialChecksums(iters int) []float64 {
	var v [2][]float64
	for a := range v {
		v[a] = make([]float64, g.n)
		for i := range v[a] {
			v[a][i] = em3dInit(a, i)
		}
	}
	out := make([]float64, iters)
	for it := 0; it < iters; it++ {
		for a := 0; a < 2; a++ {
			src := v[1-a]
			for i := range v[a] {
				x := 0.5*v[a][i] + 1
				for d, j := range g.deps[a][i] {
					x -= g.weights[a][i][d] * src[j]
				}
				v[a][i] = x
			}
		}
		sum := 0.0
		for a := range v {
			for _, x := range v[a] {
				sum += x
			}
		}
		out[it] = sum
	}
	return out
}

// em3dVote is the per-iteration collective: the checksum, and whether any
// member wants to stop (so every member runs the same iteration count).
type em3dVote struct {
	Sum  float64
	Stop int64
}

func combineVote(a, b em3dVote) em3dVote {
	return em3dVote{Sum: a.Sum + b.Sum, Stop: max(a.Stop, b.Stop)}
}

// em3dRun is the state one em3d machine's members share.
type em3dRun struct {
	g         *em3dGraph
	tm        *mpmd.Team
	arr       [2]*mpmd.Dist[float64]
	lens      []float64    // seconds of each timed phase
	phases    [][]*phase   // [member][phase]
	spans     [][]*SpanBuf // [member][phase]; nil entries are untraced
	w         *window      // opened and closed around the last phase
	firstDone int64
	sums      []float64 // checksum after each iteration (member 0)
	errs      [em3dMembers]error
}

// runEM3D runs the EM3D kernel on the live backend, one process, two
// members, base variant: one Dist.GetAsync per remote dependency per phase.
// A traced run splits the window into an untraced and a traced half.
func runEM3D(sp spec) (*result, error) {
	setupStart := nanotime()
	g := newEM3DGraph(sp.Seed)
	m := liveMachine(sp, em3dMembers)
	rt := mpmd.NewRuntime(m)
	tm, err := mpmd.WorldTeam(rt)
	if err != nil {
		return nil, err
	}
	local := func(*threads.Thread) ([]machine.ShardStats, error) {
		return []machine.ShardStats{m.LocalStats()}, nil
	}
	run := &em3dRun{g: g, tm: tm, w: &window{shards: local}, lens: []float64{sp.Seconds}}
	if sp.Trace {
		run.lens = []float64{sp.Seconds / 2, sp.Seconds / 2}
	}
	for a := range run.arr {
		if run.arr[a], err = mpmd.NewDist[float64](tm, g.n, mpmd.LayoutBlock); err != nil {
			return nil, err
		}
	}
	run.phases = make([][]*phase, em3dMembers)
	run.spans = make([][]*SpanBuf, em3dMembers)
	for p := 0; p < em3dMembers; p++ {
		for _, l := range run.lens {
			run.phases[p] = append(run.phases[p], newPhase(l, 1))
		}
		run.spans[p] = make([]*SpanBuf, len(run.lens))
		if sp.Trace {
			run.spans[p][len(run.lens)-1] = NewSpanBuf(p, spanCap, sp.Stride, epoch)
		}
	}
	for p := 0; p < em3dMembers; p++ {
		p := p
		rt.OnNode(p, func(t *threads.Thread) { run.errs[p] = run.member(t, p) })
	}
	if err := rt.Run(); err != nil {
		return nil, err
	}
	for _, err := range run.errs {
		if err != nil {
			return nil, err
		}
	}
	r := &result{SetupS: float64(run.firstDone-setupStart) / 1e9}
	finishProcess(r)
	iters := int64(len(run.sums))
	r.Attempted = iters
	checkTransport(r, sp, nil)
	want := g.serialChecksums(int(iters))
	bad := int64(0)
	for i, s := range run.sums {
		if math.Abs(s-want[i]) > 1e-9*math.Abs(want[i])+1e-9 {
			bad++
		}
	}
	if bad > 0 {
		r.fail(bad, "%d of %d iterations: checksum differs from the serial reference", bad, iters)
	}
	r.Shares = map[string]float64{"remote_deps": float64(g.remote) / float64(g.edges)}
	last := len(run.lens) - 1
	var wins, pres []*phase
	for p := 0; p < em3dMembers; p++ {
		wins = append(wins, run.phases[p][last])
		pres = append(pres, run.phases[p][0])
	}
	r.setWindow(merged(wins), run.w)
	if sp.Trace {
		pre := merged(pres)
		r.PreOpsPerS = float64(pre.ops) / pre.seconds()
	}
	if r.Layers, err = counterLayers(run.w, r.Ops); err != nil {
		return nil, err
	}
	if sp.Trace {
		spans := make([]*SpanBuf, em3dMembers)
		for p := range spans {
			spans[p] = run.spans[p][last]
		}
		if err := r.finishSpans(sp.SpanFile, spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// member is one member's program: a first iteration (the end of set-up),
// warm-up iterations, then each timed phase, iterating until every member
// agrees the phase's time is up. Member 0 records the iterations (step
// times, checksums); both record their gets' round trips.
func (run *em3dRun) member(t *threads.Thread, me int) error {
	g, tm, arr := run.g, run.tm, run.arr
	for a := range arr {
		a := a
		if err := arr[a].ForEachLocal(t, func(i int, v *float64) { *v = em3dInit(a, i) }); err != nil {
			return err
		}
	}
	if err := tm.Barrier(t); err != nil {
		return err
	}
	lo := me * g.block
	var futs []*mpmd.Future[float64]
	var starts []int64
	var vals []float64
	it := int64(0)
	// iterate runs one iteration and returns whether any member voted stop.
	iterate := func(tr *SpanBuf, ph *phase, deadline int64) (bool, error) {
		root := tr.Begin(spOp, -1, it)
		for a := 0; a < 2; a++ {
			dst, src := arr[a], arr[1-a]
			mine, err := dst.Local(t)
			if err != nil {
				return false, err
			}
			// Issue one split-phase get per remote dependency.
			futs, starts = futs[:0], starts[:0]
			for off := range mine {
				for _, j := range g.deps[a][lo+off] {
					if g.owner(int(j)) == me {
						continue
					}
					s := tr.Begin(spDistGetAsync, root, it)
					starts = append(starts, nanotime())
					f, err := src.GetAsync(t, int(j))
					tr.End(s)
					if err != nil {
						return false, err
					}
					futs = append(futs, f)
				}
			}
			vals = vals[:0]
			for k, f := range futs {
				s := tr.Begin(spMpmdWait, root, it)
				vals = append(vals, f.Wait(t))
				tr.End(s)
				if ph != nil {
					ph.rtt.Record(nanotime() - starts[k])
				}
			}
			// Local update in dependency order, remote values consumed in
			// the order they were fetched.
			s := tr.Begin(spCompute, root, it)
			local, err := src.Local(t)
			if err != nil {
				return false, err
			}
			k := 0
			for off := range mine {
				i := lo + off
				x := 0.5*mine[off] + 1
				for d, j := range g.deps[a][i] {
					var y float64
					if g.owner(int(j)) == me {
						y = local[int(j)-lo]
					} else {
						y = vals[k]
						k++
					}
					x -= g.weights[a][i][d] * y
				}
				mine[off] = x
			}
			tr.End(s)
			b := tr.Begin(spBarrier, root, it)
			err = tm.Barrier(t)
			tr.End(b)
			if err != nil {
				return false, err
			}
		}
		vote := em3dVote{}
		for a := range arr {
			mine, err := arr[a].Local(t)
			if err != nil {
				return false, err
			}
			for _, x := range mine {
				vote.Sum += x
			}
		}
		if nanotime() >= deadline {
			vote.Stop = 1
		}
		s := tr.Begin(spAllReduce, root, it)
		res, err := mpmd.AllReduce(t, tm, vote, combineVote)
		tr.End(s)
		if err != nil {
			return false, err
		}
		now := nanotime()
		tr.End(root)
		if me == 0 {
			run.sums = append(run.sums, res.Sum)
			if ph != nil {
				ph.opDone(now)
			}
		}
		it++
		return res.Stop > 0, nil
	}
	if _, err := iterate(nil, nil, 0); err != nil {
		return err
	}
	if me == 0 {
		run.firstDone = nanotime()
	}
	for k := 0; k < em3dWarmIters; k++ {
		if _, err := iterate(nil, nil, math.MaxInt64); err != nil {
			return err
		}
	}
	for i, secs := range run.lens {
		if err := tm.Barrier(t); err != nil {
			return err
		}
		lastPhase := i == len(run.lens)-1
		if me == 0 && lastPhase {
			run.w.open(t)
		}
		ph := run.phases[me][i]
		ph.begin(nanotime())
		deadline := ph.start + int64(secs*1e9)
		for {
			stop, err := iterate(run.spans[me][i].Sampled(it), ph, deadline)
			if err != nil {
				return err
			}
			if stop {
				break
			}
		}
		if me == 0 && lastPhase {
			run.w.close(t)
		}
	}
	return nil
}
