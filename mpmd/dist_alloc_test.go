package mpmd_test

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/mpmd"
)

// TestDistGetAsyncAllocs pins the allocation budget of a warm remote
// Dist.GetAsync+Wait on the live backend with the metrics plane on: at most
// 3 allocations per get across the whole machine (issuer, owner and
// delivery workers all run inside the measured window). The future is the
// one allocation the API requires; argument frames, reply frames, decode
// frames and wire buffers all recycle.
func TestDistGetAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops Puts on purpose")
	}
	const (
		budget = 3.0
		elems  = 64
	)
	m := mpmd.NewMachineWithBackend(mpmd.SPConfig(), 2,
		mpmd.NewLiveBackend(2, mpmd.LiveOptions{Watchdog: 2 * time.Minute}))
	rt := mpmd.NewRuntime(m)
	tm, err := mpmd.WorldTeam(rt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mpmd.NewDist[float64](tm, elems, mpmd.LayoutBlock)
	if err != nil {
		t.Fatal(err)
	}
	remote := elems - 1 // owned by rank 1
	var allocs float64
	var got float64
	rt.OnNode(1, func(th *mpmd.Thread) {
		if err := d.ForEachLocal(th, func(i int, v *float64) { *v = float64(i) / 2 }); err != nil {
			t.Error(err)
		}
		if err := tm.Barrier(th); err != nil {
			t.Error(err)
		}
	})
	rt.OnNode(0, func(th *mpmd.Thread) {
		if err := tm.Barrier(th); err != nil {
			t.Error(err)
			return
		}
		get := func() {
			f, err := d.GetAsync(th, remote)
			if err != nil {
				t.Error(err)
				return
			}
			got = f.Wait(th)
		}
		// Warm the stub cache, R-buffers, frame pools and ring capacities.
		for i := 0; i < 16; i++ {
			get()
		}
		// A GC in the window would drain the sync.Pools and bill their
		// refills to the gets.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs = testing.AllocsPerRun(300, get)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if want := float64(remote) / 2; got != want {
		t.Fatalf("GetAsync(%d) = %v, want %v", remote, got, want)
	}
	t.Logf("warm remote Dist.GetAsync+Wait: %.2f allocs/get", allocs)
	if allocs > budget {
		t.Errorf("warm remote Dist.GetAsync+Wait allocates %.2f/get, budget %v", allocs, budget)
	}
	snap, ok := m.Metrics()
	if !ok {
		t.Fatal("live machine reports no metrics plane; the budget must be measured with metrics on")
	}
	if n := snap.Hist(metrics.HstRMILatency).Count; n < 300 {
		t.Errorf("RMI latency histogram recorded %d gets, want >= 300", n)
	}
}
