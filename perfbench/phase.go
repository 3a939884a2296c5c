package main

import "math"

// phase accumulates one timed stretch of a run on one client thread: the
// round trips it observed, its step times, and its completed ops. All
// storage is allocated before the stretch starts.
type phase struct {
	rtt, step  *Hist
	stepEvery  int64 // ops per step
	ops        int64
	start      int64 // nanotime at begin
	last       int64 // nanotime of the last completed op
	blockStart int64
	perSec     []int64 // ops completed in each second
}

func newPhase(seconds float64, stepEvery int64) *phase {
	return &phase{rtt: NewHist(), step: NewHist(), stepEvery: stepEvery,
		perSec: make([]int64, int(math.Ceil(seconds))+1)}
}

// begin opens the phase at time now.
func (p *phase) begin(now int64) { p.start, p.blockStart, p.last = now, now, now }

// opDone counts one op completed at time now.
func (p *phase) opDone(now int64) {
	p.ops++
	p.last = now
	if sec := int((now - p.start) / 1e9); sec < len(p.perSec) {
		p.perSec[sec]++
	}
	if p.ops%p.stepEvery == 0 {
		p.step.Record(now - p.blockStart)
		p.blockStart = now
	}
}

// merged combines the same phase of several client threads.
func merged(ps []*phase) *phase {
	out := newPhase(0, 1)
	out.perSec = nil
	for i, p := range ps {
		out.rtt.Merge(p.rtt)
		out.step.Merge(p.step)
		out.ops += p.ops
		if i == 0 || p.start < out.start {
			out.start = p.start
		}
		out.last = max(out.last, p.last)
		if out.perSec == nil {
			out.perSec = make([]int64, len(p.perSec))
		}
		for s, v := range p.perSec {
			out.perSec[s] += v
		}
	}
	return out
}

// seconds is the phase's length, from begin to the last completed op.
func (p *phase) seconds() float64 { return float64(p.last-p.start) / 1e9 }
