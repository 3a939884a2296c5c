package main

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/threads"
	"repro/mpmd"
)

// Ladder probes: each times one closed-loop operation through one layer's
// public API on a fresh two-node machine (client node 0, server node 1).
// Differences between rungs are the layers' self times.
const (
	ladderEcho     = "echo"     // am: Endpoint.RequestShort + echo handler + PollUntil
	ladderCall     = "call"     // core: Runtime.Call of a null method
	ladderThreaded = "threaded" // threads: Runtime.Call of a Threaded null method
	ladderBulk     = "bulk1k"   // wire: Runtime.Call carrying a 1 KiB put
	ladderTyped    = "typed"    // mpmd/rmigen: typed mpmd.Invoke of a null method
	ladderWarm     = 1000
	ladderSeconds  = 0.25
	ladderReps     = 3
)

// Ladder is the typed processor object of the typed rung.
type Ladder struct{}

// Null does nothing; it is the typed twin of the sink's null method.
func (*Ladder) Null(t *mpmd.Thread) {}

// runLadder runs one probe and reports its round-trip percentiles.
func runLadder(sp spec) (*result, error) {
	var m *machine.Machine
	cleanup := func() {}
	if sp.Backend == backendLive {
		m = liveMachine(sp, 2)
	} else {
		var err error
		if m, _, cleanup, err = netMachine(sp, 2, 1); err != nil {
			return nil, err
		}
	}
	defer cleanup()
	net := am.NewNet(m)
	rt := core.NewRuntimeOpts(m, core.Options{Transport: core.NewAMTransport(net)})
	var got uint64 // written by the pong handler on node 0's CPU
	hPong := net.Register("perfbench.pong", func(t *threads.Thread, msg am.Msg) { got = msg.A[0] })
	hPing := net.Register("perfbench.ping", func(t *threads.Thread, msg am.Msg) {
		net.Endpoint(msg.Dst).RequestShort(t, msg.Src, hPong, msg.A)
	})
	rt.RegisterClass(sinkClass(m))
	gp := rt.CreateObject(1, sinkClassNm)
	if err := mpmd.RegisterClass[Ladder](rt); err != nil {
		return nil, err
	}
	ref, err := mpmd.NewObject[Ladder](rt, 1)
	if err != nil {
		return nil, err
	}
	bulk := []core.Arg{&core.Bytes{V: payloads(sp.Seed)[0]}}
	rtt := NewHist()
	var opErr error
	var ops int64
	rt.OnNode(0, func(t *threads.Thread) {
		ep := net.Endpoint(0)
		var seq uint64
		echoed := func() bool { return got == seq }
		var op func()
		switch sp.Ladder {
		case ladderEcho:
			op = func() {
				seq++
				ep.RequestShort(t, 1, hPing, [4]uint64{seq})
				ep.PollUntil(t, echoed)
			}
		case ladderCall:
			op = func() { rt.Call(t, gp, "null", nil, nil) }
		case ladderThreaded:
			op = func() { rt.Call(t, gp, "tnull", nil, nil) }
		case ladderBulk:
			op = func() { rt.Call(t, gp, "put", bulk, nil) }
		case ladderTyped:
			op = func() {
				if _, err := mpmd.Invoke[mpmd.Void, mpmd.Void](t, ref, "Null", mpmd.Void{}); err != nil && opErr == nil {
					opErr = err
				}
			}
		default:
			opErr = fmt.Errorf("unknown ladder probe %q", sp.Ladder)
			return
		}
		for i := 0; i < ladderWarm; i++ {
			op()
		}
		deadline := nanotime() + int64(ladderSeconds*1e9)
		for now := nanotime(); now < deadline; {
			op()
			end := nanotime()
			rtt.Record(end - now)
			now = end
			ops++
		}
	})
	if err := rt.Run(); err != nil {
		return nil, err
	}
	if isWorker() {
		return nil, nil
	}
	if opErr != nil {
		return nil, opErr
	}
	return &result{Transport: sp.Backend, Attempted: ladderWarm + ops, Ops: ops, RTT: rtt}, nil
}
