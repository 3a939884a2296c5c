// Package mpl models IBM's native MPL message layer, which the paper uses as
// a reference point: its round-trip latency under AIX 3.2.5 is 88 µs, 21 µs
// slower than the paper's 0-Word Simple CC++ RMI.
//
// Only the matched blocking send/receive pair needed for the reference
// micro-benchmark is provided. Messages are matched by (source, tag), with
// MPL-profile per-side overheads charged on both ends.
package mpl

import (
	"time"

	"repro/internal/machine"
	"repro/internal/threads"
)

// AnySource matches a receive against any sending node.
const AnySource = -1

// World is an MPL communicator over a machine.
type World struct {
	m     *machine.Machine
	ranks []*rank
}

type rank struct {
	node    *machine.Node
	sched   *threads.Scheduler
	queue   []envelope // arrived, unmatched messages
	waiters []*threads.Thread
}

type envelope struct {
	src  int
	tag  int
	data []byte
}

// New creates an MPL world over m. Attach must be called per node before use.
func New(m *machine.Machine) *World {
	w := &World{m: m}
	for _, node := range m.Nodes() {
		r := &rank{node: node}
		node.OnArrival = r.onArrival
		w.ranks = append(w.ranks, r)
	}
	return w
}

// Attach binds node i to its scheduler.
func (w *World) Attach(i int, s *threads.Scheduler) { w.ranks[i].sched = s }

// onArrival moves arrivals into the match queue and wakes every waiter; no
// thread is left parked, so the doorbell is disarmed.
func (r *rank) onArrival() {
	r.drain()
	ws := r.waiters
	r.waiters = nil
	r.node.Disarm()
	for _, t := range ws {
		r.sched.MakeReady(t)
	}
}

// drain moves every packet in the node's inbox into the match queue and
// reports how many it moved.
func (r *rank) drain() int {
	n := 0
	for {
		pkt, ok := r.node.PopInbox()
		if !ok {
			return n
		}
		r.queue = append(r.queue, pkt.Payload.(envelope))
		n++
	}
}

// Send transmits data to node dst with the given tag, charging MPL's
// per-message sender overhead plus per-byte occupancy. MPL's blocking send
// completes once the message is on the wire (standard-mode semantics for
// small messages).
func (w *World) Send(t *threads.Thread, me, dst, tag int, data []byte) {
	cfg := t.Cfg()
	r := w.ranks[me]
	n := len(data)
	r.node.Acct.Count(machine.CntMsgShort, 1)
	r.node.Acct.Count(machine.CntBytesSent, int64(n))
	t.Charge(machine.CatNet, cfg.MPLOverhead+time.Duration(n)*cfg.GapPerByte)
	cp := make([]byte, n)
	copy(cp, data)
	r.node.Send(dst, time.Duration(n)*cfg.GapPerByte, n, envelope{src: me, tag: tag, data: cp})
}

// Recv blocks until a message with the given tag arrives from src
// (or from anyone when src == AnySource), charges the receive overhead, and
// returns the payload and actual source.
func (w *World) Recv(t *threads.Thread, me, src, tag int) ([]byte, int) {
	cfg := t.Cfg()
	r := w.ranks[me]
	for {
		for i, env := range r.queue {
			if env.tag != tag || (src != AnySource && env.src != src) {
				continue
			}
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			t.Charge(machine.CatNet, cfg.MPLOverhead)
			return env.data, env.src
		}
		// Arm before the final inbox check (see machine.Node.Arm): on a
		// direct-delivery backend arrivals reach the queue only through
		// onArrival, which runs only for an armed node.
		r.node.Arm()
		if r.drain() > 0 {
			continue
		}
		r.waiters = append(r.waiters, t)
		t.Block()
	}
}
