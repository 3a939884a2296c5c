package main

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"testing"
)

func TestKindSequenceDeterministic(t *testing.T) {
	a, b := kindSequence("pipeline", 1), kindSequence("pipeline", 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different call-kind sequences")
	}
	if reflect.DeepEqual(a, kindSequence("pipeline", 2)) {
		t.Fatal("different seeds gave the same call-kind sequence")
	}
	var n [numKinds]int
	for _, k := range a {
		n[k]++
	}
	for k, want := range [numKinds]float64{0.6, 0.2, 0.2} {
		if got := float64(n[k]) / float64(len(a)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", kindNames[k], got, want)
		}
	}
	for _, k := range kindSequence("pingpong", 3) {
		if k != kindNull {
			t.Fatal("pingpong must issue only null calls")
		}
	}
}

func TestEM3DGraphDeterministic(t *testing.T) {
	a, b := newEM3DGraph(1), newEM3DGraph(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different graphs")
	}
	if reflect.DeepEqual(a.deps, newEM3DGraph(2).deps) {
		t.Fatal("different seeds gave the same graph")
	}
	share := float64(a.remote) / float64(a.edges)
	if share < 0.25 || share > 0.35 {
		t.Errorf("remote share %.3f, want about 0.30", share)
	}
	if got, want := a.serialChecksums(5), b.serialChecksums(5); !reflect.DeepEqual(got, want) {
		t.Error("serial reference is not deterministic")
	}
}

func TestPayloadChecksum(t *testing.T) {
	ps := payloads(4)
	if !reflect.DeepEqual(ps, payloads(4)) || reflect.DeepEqual(ps, payloads(5)) {
		t.Fatal("payloads must depend on the seed alone")
	}
	for _, p := range ps {
		if binary.LittleEndian.Uint64(p) != payloadSum(p[8:]) {
			t.Fatal("payload checksum does not verify")
		}
	}
	p := append([]byte(nil), ps[0]...)
	p[100] ^= 1
	if binary.LittleEndian.Uint64(p) == payloadSum(p[8:]) {
		t.Fatal("a flipped bit went unnoticed")
	}
}

// TestEM3DLive runs the em3d workload briefly in-process, untraced and
// traced, and checks that every iteration matched the serial reference.
func TestEM3DLive(t *testing.T) {
	for _, trace := range []bool{false, true} {
		sp := spec{Workload: "em3d", Mode: modeMeasure, Backend: backendLive, Seed: 3, Seconds: 0.4,
			Trace: trace, Stride: 2, SpanFile: filepath.Join(t.TempDir(), "trace.json")}
		r, err := runEM3D(sp)
		if err != nil {
			t.Fatalf("trace %v: %v", trace, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %v: %d of %d iterations failed: %v", trace, r.Failed, r.Attempted, r.Failures)
		}
		if r.Ops == 0 || r.Step.Count() != r.Ops || r.RTT.Count() == 0 || r.SetupS <= 0 {
			t.Errorf("trace %v: ops %d steps %d gets %d setup %v", trace, r.Ops, r.Step.Count(), r.RTT.Count(), r.SetupS)
		}
		if trace && (r.PreOpsPerS <= 0 || r.Spans["coll.AllReduce"] == nil || r.Spans["mpmd.Dist.GetAsync"] == nil) {
			t.Errorf("traced run: pre rate %v, spans %v", r.PreOpsPerS, r.Spans)
		}
	}
}

// TestLaddersLive runs every ladder rung on the live backend and checks the
// rungs produce round-trip samples.
func TestLaddersLive(t *testing.T) {
	for _, k := range []string{ladderEcho, ladderCall, ladderThreaded, ladderBulk, ladderTyped} {
		r, err := runLadder(spec{Mode: modeLadder, Ladder: k, Backend: backendLive, Seed: 1, Seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if r.RTT.Count() == 0 || r.RTT.Quantile(0.5) <= 0 {
			t.Errorf("%s: %d samples, p50 %v", k, r.RTT.Count(), r.RTT.Quantile(0.5))
		}
	}
}
