package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{Name: spOp, Parent: -1, Start: 0, End: 100},        // 0: root
		{Name: spCoreCall, Parent: 0, Start: 10, End: 30},   // 1
		{Name: spCoreWait, Parent: 0, Start: 20, End: 50},   // 2: overlaps 1
		{Name: spCoreWait, Parent: 0, Start: 90, End: 120},  // 3: runs past the root
		{Name: spCompute, Parent: 2, Start: 25, End: 35},    // 4: child of 2
		{Name: spCompute, Parent: 2, Start: 30, End: 40},    // 5: overlaps 4
		{Name: spBarrier, Parent: -1, Start: 200, End: 260}, // 6: another root, no children
	}
	// Root: children cover [10,50] and [90,100] -> 50 of 100.
	// Span 2: children cover [25,40] -> 15 of 30.
	want := []int64{50, 20, 15, 30, 10, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAggregateAndChromeTrace(t *testing.T) {
	b := NewSpanBuf(0, 8, 2, time.Now())
	for op := int64(0); op < 4; op++ {
		tr := b.Sampled(op)
		if (tr != nil) != (op%2 == 0) {
			t.Fatalf("op %d sampled = %v", op, tr != nil)
		}
		root := tr.Begin(spOp, -1, op)
		c := tr.Begin(spCoreCallAsync, root, op)
		tr.End(c)
		tr.End(root)
	}
	// Fill past capacity: 4 spans recorded so far, 4 more fit, then drops.
	for i := 0; i < 6; i++ {
		b.End(b.Begin(spCompute, -1, 10))
	}
	if len(b.spans) != 8 || b.dropped != 2 {
		t.Fatalf("recorded %d dropped %d, want 8 and 2", len(b.spans), b.dropped)
	}
	agg := aggregate([]*SpanBuf{b, nil})
	if agg["op"].Count != 2 || agg["core.CallAsync"].Count != 2 || agg["em3d.compute"].Count != 4 {
		t.Fatalf("aggregate counts: %+v", agg)
	}
	if a := agg["op"]; a.MeanSelfUS > a.MeanUS {
		t.Errorf("self time %v exceeds duration %v", a.MeanSelfUS, a.MeanUS)
	}
	var out bytes.Buffer
	if err := writeChromeTrace(&out, []*SpanBuf{b}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
			if _, ok := e.Args["parent"]; !ok {
				t.Errorf("event %q has no parent id", e.Name)
			}
		}
	}
	if complete != 8 {
		t.Errorf("%d complete events, want 8", complete)
	}
	var nilBuf *SpanBuf
	if nilBuf.Sampled(0) != nil || nilBuf.Begin(spOp, -1, 0) != -1 {
		t.Error("nil buffer must record nothing")
	}
}
