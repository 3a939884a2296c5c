package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span names, one per layer boundary the harness wraps. The name says which
// public function of which layer the span times.
const (
	spOp            = iota // one op: an RMI issue-to-observed-reply, or one em3d iteration
	spCoreCall             // core.Runtime.Call
	spCoreCallAsync        // core.Runtime.CallAsync (issue only)
	spCoreWait             // core.Future.Wait
	spDistGetAsync         // mpmd.Dist.GetAsync (issue only)
	spMpmdWait             // mpmd.Future.Wait
	spBarrier              // mpmd.Team.Barrier (coll dissemination barrier)
	spAllReduce            // mpmd.AllReduce (coll binomial reduce + broadcast)
	spCompute              // em3d local update (the benchmark's own kernel)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "core.Call", "core.CallAsync", "core.Future.Wait",
	"mpmd.Dist.GetAsync", "mpmd.Future.Wait", "coll.Team.Barrier", "coll.AllReduce",
	"em3d.compute",
}

// Span is one timed call into a layer. Times are nanoseconds since the
// buffer's epoch; Parent indexes the enclosing span in the same buffer (-1
// for a root), and every span of one op carries that op's id.
type Span struct {
	Name       int32
	Parent     int32
	Op         int64
	Start, End int64
}

// SpanBuf records the spans of one client thread into memory allocated up
// front; when it is full further spans are dropped and counted. A nil
// *SpanBuf records nothing, so untraced code paths call the same methods.
type SpanBuf struct {
	tid     int
	epoch   time.Time
	spans   []Span
	dropped int64
	stride  int64
}

// NewSpanBuf preallocates room for capacity spans. Only every stride-th op
// is traced (see Sampled), which keeps a long run inside the buffer.
func NewSpanBuf(tid, capacity int, stride int64, epoch time.Time) *SpanBuf {
	if stride < 1 {
		stride = 1
	}
	return &SpanBuf{tid: tid, epoch: epoch, spans: make([]Span, 0, capacity), stride: stride}
}

// Sampled returns b when op is one of the traced ops, else nil.
func (b *SpanBuf) Sampled(op int64) *SpanBuf {
	if b == nil || op%b.stride != 0 {
		return nil
	}
	return b
}

// Begin opens a span and returns its id (-1 when untraced or full).
func (b *SpanBuf) Begin(name int, parent int32, op int64) int32 {
	if b == nil {
		return -1
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	now := int64(time.Since(b.epoch))
	b.spans = append(b.spans, Span{Name: int32(name), Parent: parent, Op: op, Start: now, End: now})
	return int32(len(b.spans) - 1)
}

// End closes span id.
func (b *SpanBuf) End(id int32) {
	if b == nil || id < 0 {
		return
	}
	b.spans[id].End = int64(time.Since(b.epoch))
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children count
// once; parts of a child outside the parent are ignored).
func selfTimes(spans []Span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		dur := s.End - s.Start
		ch := kids[int32(i)]
		if len(ch) == 0 {
			self[i] = dur
			continue
		}
		ivs = ivs[:0]
		for _, c := range ch {
			a, e := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if e > s.End {
				e = s.End
			}
			if e > a {
				ivs = append(ivs, iv{a, e})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = dur - covered
	}
	return self
}

// spanAgg sums one span name's durations and self times.
type spanAgg struct {
	Count      int64   `json:"count"`
	MeanUS     float64 `json:"mean_us"`      // mean duration
	MeanSelfUS float64 `json:"mean_self_us"` // mean self time
	PerOpUS    float64 `json:"per_op_us"`    // total duration per traced op that has the span
	ops        map[int64]bool
	total      int64
	totalSelf  int64
}

// aggregate computes per-name counts, mean durations and mean self times
// over every buffer's spans.
func aggregate(bufs []*SpanBuf) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			name := spanNames[s.Name]
			a := out[name]
			if a == nil {
				a = &spanAgg{ops: make(map[int64]bool)}
				out[name] = a
			}
			a.Count++
			a.total += s.End - s.Start
			a.totalSelf += self[i]
			a.ops[int64(b.tid)<<40|s.Op] = true
		}
	}
	for _, a := range out {
		a.MeanUS = float64(a.total) / float64(a.Count) / 1e3
		a.MeanSelfUS = float64(a.totalSelf) / float64(a.Count) / 1e3
		a.PerOpUS = float64(a.total) / float64(len(a.ops)) / 1e3
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing), one track per client thread, in the shape
// of the repository's own trace export. Each event's args carry its span
// id, parent id and op id.
func writeChromeTrace(w io.Writer, bufs []*SpanBuf) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"client%d"}}`, b.tid, b.tid)
		if b.dropped > 0 {
			sep()
			fmt.Fprintf(bw, `{"ph":"M","pid":0,"tid":%d,"name":"process_labels","args":{"labels":"%d spans dropped (buffer full)"}}`, b.tid, b.dropped)
		}
		for i, s := range b.spans {
			sep()
			fmt.Fprintf(bw, `{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{"id":%d,"parent":%d,"op":%d}}`,
				b.tid, usec(s.Start), usec(s.End-s.Start), spanNames[s.Name], i, s.Parent, s.Op)
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

// spanCap is each client thread's span buffer size (40 bytes a span).
const spanCap = 1 << 16

// usec formats nanoseconds as fractional microseconds with full precision.
func usec(ns int64) string { return fmt.Sprintf("%d.%03d", ns/1000, ns%1000) }
