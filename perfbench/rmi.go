package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
)

// Call kinds of the RMI workloads.
const (
	kindNull     = iota // 0-word null RMI, run inline in the handler
	kindBulk            // 1 KiB put, checksummed at the sink
	kindThreaded        // null RMI run on a fresh receiver thread
	numKinds
)

var kindNames = [numKinds]string{"null", "bulk1k", "threaded"}

const (
	bulkBytes   = 1024
	numPayloads = 64   // distinct seeded 1 KiB payloads, reused round-robin
	kindSeqLen  = 4096 // length of the seeded call-kind sequence
	pipeWindow  = 8    // outstanding CallAsyncs per pipeline client
	warmOps     = 2000 // ops per client before the window opens
	stepOps     = 1024 // ops per "step" of an RMI workload
	stallNS     = int64(2 * time.Second)
	sinkClassNm = "PBSink"
)

// kindSequence is the seeded call mix of a workload: pipeline draws 60%
// null, 20% bulk and 20% threaded; pingpong is all null.
func kindSequence(workload string, seed int64) []uint8 {
	seq := make([]uint8, kindSeqLen)
	if workload == "pingpong" {
		return seq
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range seq {
		switch x := rng.Intn(100); {
		case x < 60:
			seq[i] = kindNull
		case x < 80:
			seq[i] = kindBulk
		default:
			seq[i] = kindThreaded
		}
	}
	return seq
}

// payloads returns the seeded bulk payloads. The first 8 bytes of each hold
// the checksum of the rest, which the sink verifies on every put.
func payloads(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]byte, numPayloads)
	for i := range out {
		p := make([]byte, bulkBytes)
		rng.Read(p[8:])
		binary.LittleEndian.PutUint64(p, payloadSum(p[8:]))
		out[i] = p
	}
	return out
}

// payloadSum is a word-wise multiplicative hash, cheap next to the copy.
func payloadSum(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// sinkObj is the server-side processor object: it counts every call by
// kind and every bulk payload whose checksum does not match.
type sinkObj struct {
	calls  [numKinds]int64
	badSum int64
}

// counts is the read-back return value: calls per kind, bad checksums,
// then the serving process's peak RSS in KiB (countsRSS).
type counts struct{ V [numKinds + 2]int64 }

const (
	countsBad = numKinds     // index of the bad-checksum count
	countsRSS = numKinds + 1 // index of the server's peak RSS
)

func (c *counts) WireSize() int     { return 8 * len(c.V) }
func (c *counts) MarshalUnits() int { return len(c.V) }
func (c *counts) Encode(b []byte) int {
	for i, v := range c.V {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return 8 * len(c.V)
}
func (c *counts) Decode(b []byte) int {
	for i := range c.V {
		c.V[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return 8 * len(c.V)
}

// sinkClass is the server's class. Its snap method returns the serving
// shard's LocalStats, so the client can read a worker's counters at the
// edges of its window.
func sinkClass(m *machine.Machine) *core.Class {
	self := func(o any) *sinkObj { return o.(*sinkObj) }
	return &core.Class{
		Name: sinkClassNm,
		New:  func() any { return &sinkObj{} },
		Methods: []*core.Method{
			{Name: "null", Fn: func(t *threads.Thread, o any, a []core.Arg, r core.Arg) {
				self(o).calls[kindNull]++
			}},
			{Name: "tnull", Threaded: true, Fn: func(t *threads.Thread, o any, a []core.Arg, r core.Arg) {
				self(o).calls[kindThreaded]++
			}},
			{Name: "put",
				NewArgs: func() []core.Arg { return []core.Arg{&core.Bytes{}} },
				Fn: func(t *threads.Thread, o any, a []core.Arg, r core.Arg) {
					s := self(o)
					s.calls[kindBulk]++
					p := a[0].(*core.Bytes).V
					if len(p) != bulkBytes || binary.LittleEndian.Uint64(p) != payloadSum(p[8:]) {
						s.badSum++
					}
				}},
			{Name: "snap",
				NewRet: func() core.Arg { return &core.Bytes{} },
				Fn: func(t *threads.Thread, o any, a []core.Arg, r core.Arg) {
					b, err := json.Marshal(m.LocalStats())
					if err != nil {
						panic(fmt.Sprintf("perfbench: stats snapshot: %v", err))
					}
					r.(*core.Bytes).V = b
				}},
			{Name: "counts",
				NewRet: func() core.Arg { return &counts{} },
				Fn: func(t *threads.Thread, o any, a []core.Arg, r core.Arg) {
					s := self(o)
					c := r.(*counts)
					copy(c.V[:], s.calls[:])
					c.V[countsBad] = s.badSum
					c.V[countsRSS] = peakRSSKB()
				}},
		},
	}
}

// client is one load-generating thread of an RMI workload.
type client struct {
	rt       *core.Runtime
	gp       core.GPtr
	kinds    []uint8
	kpos     int
	bulkArgs [][]core.Arg
	spans    *SpanBuf // nil while untraced
	issued   [numKinds]int64
	done     [numKinds]int64
	stalls   int64
	op       int64 // ops issued so far: the op id
}

func (c *client) nextKind() uint8 {
	k := c.kinds[c.kpos]
	c.kpos = (c.kpos + 1) % len(c.kinds)
	return k
}

// pending is one outstanding pipeline call.
type pending struct {
	f     *core.Future
	kind  uint8
	op    int64
	start int64
	sp    *SpanBuf
	span  int32
}

func (c *client) issue(t *threads.Thread, p *pending) {
	k := c.nextKind()
	p.kind, p.op = k, c.op
	c.op++
	p.sp = c.spans.Sampled(p.op)
	p.span = p.sp.Begin(spOp, -1, p.op)
	p.start = nanotime()
	s := p.sp.Begin(spCoreCallAsync, p.span, p.op)
	switch k {
	case kindNull:
		p.f = c.rt.CallAsync(t, c.gp, "null", nil, nil)
	case kindBulk:
		p.f = c.rt.CallAsync(t, c.gp, "put", c.bulkArgs[p.op%numPayloads], nil)
	case kindThreaded:
		p.f = c.rt.CallAsync(t, c.gp, "tnull", nil, nil)
	}
	p.sp.End(s)
	c.issued[k]++
}

// complete waits for p's reply and returns the completion time.
func (c *client) complete(t *threads.Thread, p *pending) int64 {
	s := p.sp.Begin(spCoreWait, p.span, p.op)
	p.f.Wait(t)
	p.sp.End(s)
	now := nanotime()
	p.sp.End(p.span)
	p.f = nil
	c.done[p.kind]++
	if now-p.start > stallNS {
		c.stalls++
	}
	return now
}

// pingLoop is pingpong's client: one synchronous null Runtime.Call
// outstanding at a time. It runs n calls (n >= 0), or until deadline,
// recording into ph when ph is non-nil.
func (c *client) pingLoop(t *threads.Thread, n, deadline int64, ph *phase) {
	for i := int64(0); n < 0 || i < n; i++ {
		op := c.op
		c.op++
		sp := c.spans.Sampled(op)
		root := sp.Begin(spOp, -1, op)
		t0 := nanotime()
		s := sp.Begin(spCoreCall, root, op)
		c.rt.Call(t, c.gp, "null", nil, nil)
		sp.End(s)
		now := nanotime()
		sp.End(root)
		c.issued[kindNull]++
		c.done[kindNull]++
		if now-t0 > stallNS {
			c.stalls++
		}
		if ph != nil {
			ph.rtt.Record(now - t0)
			ph.opDone(now)
			if now >= deadline {
				return
			}
		}
	}
}

// pipeLoop is a pipeline client: a window of pipeWindow CallAsyncs kept
// full for n calls (n >= 0) or until deadline, then drained.
func (c *client) pipeLoop(t *threads.Thread, n, deadline int64, ph *phase) {
	var ring [pipeWindow]pending
	issued := int64(0)
	more := func() bool { return n < 0 || issued < n }
	for k := range ring {
		if !more() {
			break
		}
		c.issue(t, &ring[k])
		issued++
	}
	stop := false
	for k, outstanding := 0, issued; outstanding > 0; k = (k + 1) % pipeWindow {
		p := &ring[k]
		if p.f == nil {
			continue
		}
		start := p.start
		now := c.complete(t, p)
		outstanding--
		if ph != nil {
			ph.rtt.Record(now - start)
			ph.opDone(now)
			stop = stop || now >= deadline
		}
		if !stop && more() {
			c.issue(t, p)
			issued++
			outstanding++
		}
	}
}

// runRMI runs pingpong, pipeline or pipeline-socket on the net backend: a
// first (cold) call, warm-up, then the measured window. A traced run
// splits the window: an untraced first half (the overhead baseline) and a
// traced second half.
func runRMI(sp spec) (*result, error) {
	setupStart := nanotime()
	var nodes, nps, nclients int
	switch sp.Workload {
	case "pingpong":
		nodes, nps, nclients = 2, 1, 1
	case "pipeline", "pipeline-socket":
		nodes, nps, nclients = 3, 2, 2
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.Workload)
	}
	server := nodes - 1
	m, be, cleanup, err := netMachine(sp, nodes, nps)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rt := core.NewRuntime(m)
	rt.RegisterClass(sinkClass(m))
	gp := rt.CreateObject(server, sinkClassNm)
	bar := rt.NewBarrier(0, nclients)
	w := &window{shards: func(t *threads.Thread) ([]machine.ShardStats, error) {
		var b core.Bytes
		rt.Call(t, gp, "snap", nil, &b)
		var remote machine.ShardStats
		if err := json.Unmarshal(b.V, &remote); err != nil {
			return nil, err
		}
		return []machine.ShardStats{m.LocalStats(), remote}, nil
	}}

	kinds := kindSequence(sp.Workload, sp.Seed)
	var bulkArgs [][]core.Arg
	for _, p := range payloads(sp.Seed) {
		bulkArgs = append(bulkArgs, []core.Arg{&core.Bytes{V: p}})
	}
	win, pre := sp.Seconds, 0.0
	if sp.Trace {
		win, pre = sp.Seconds/2, sp.Seconds/2
	}
	clients := make([]*client, nclients)
	wins := make([]*phase, nclients)
	pres := make([]*phase, nclients)
	bufs := make([]*SpanBuf, nclients)
	for i := range clients {
		clients[i] = &client{rt: rt, gp: gp, kinds: kinds, kpos: i * kindSeqLen / nclients, bulkArgs: bulkArgs}
		wins[i], pres[i] = newPhase(win, stepOps), newPhase(pre, stepOps)
		if sp.Trace {
			bufs[i] = NewSpanBuf(i, spanCap, sp.Stride, epoch)
		}
	}

	var firstDone int64
	var readback counts
	for i, c := range clients {
		i, c := i, c
		rt.OnNode(i, func(t *threads.Thread) {
			loop := c.pingLoop
			if nclients > 1 {
				loop = c.pipeLoop
			}
			loop(t, 1, 0, nil)
			if i == 0 {
				firstDone = nanotime()
			}
			loop(t, warmOps, 0, nil)
			if sp.Trace {
				bar.Arrive(t)
				pres[i].begin(nanotime())
				loop(t, -1, pres[i].start+int64(pre*1e9), pres[i])
				c.spans = bufs[i]
			}
			if i == 0 {
				w.open(t)
			}
			bar.Arrive(t)
			wins[i].begin(nanotime())
			loop(t, -1, wins[i].start+int64(win*1e9), wins[i])
			bar.Arrive(t)
			if i == 0 {
				w.close(t)
				c.rt.Call(t, c.gp, "counts", nil, &readback)
			}
		})
	}
	if err := rt.Run(); err != nil {
		return nil, err
	}
	if isWorker() {
		return nil, nil
	}
	r := &result{SetupS: float64(firstDone-setupStart) / 1e9}
	finishProcess(r)
	r.RSSChildKB = readback.V[countsRSS] // read as the window closed; the server is in the worker shard
	var issued, done [numKinds]int64
	var stalls int64
	for _, c := range clients {
		for k := range issued {
			issued[k] += c.issued[k]
			done[k] += c.done[k]
		}
		stalls += c.stalls
	}
	for _, v := range issued {
		r.Attempted += v
	}
	checkTransport(r, sp, be)
	for k := range done {
		if done[k] != issued[k] {
			r.fail(issued[k]-done[k], "%s: %d issued, %d completed", kindNames[k], issued[k], done[k])
		}
		if got := readback.V[k]; got != done[k] {
			r.fail(abs(got-done[k]), "%s: server counted %d calls, clients completed %d", kindNames[k], got, done[k])
		}
	}
	if bad := readback.V[countsBad]; bad > 0 {
		r.fail(bad, "%d bulk payloads failed their checksum at the sink", bad)
	}
	if stalls > 0 {
		r.fail(stalls, "%d calls took longer than %v", stalls, time.Duration(stallNS))
	}
	r.setWindow(merged(wins), w)
	if sp.Trace {
		p := merged(pres)
		r.PreOpsPerS = float64(p.ops) / p.seconds()
	}
	var total int64
	for _, v := range done {
		total += v
	}
	r.Shares = map[string]float64{}
	for k, v := range done {
		r.Shares[kindNames[k]] = float64(v) / float64(max(total, 1))
	}
	if r.Layers, err = counterLayers(w, r.Ops); err != nil {
		return nil, err
	}
	if sp.Trace {
		if err := r.finishSpans(sp.SpanFile, bufs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
