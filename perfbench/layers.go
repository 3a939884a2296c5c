package main

import (
	"fmt"
	"os"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// counterLayers turns a window's machine-wide counter deltas into the
// per-layer ratios. ops is the window's op count.
func counterLayers(w *window, ops int64) (map[string]float64, error) {
	if w.err != nil {
		return nil, fmt.Errorf("window stats: %w", w.err)
	}
	acct, met := w.acct, w.met
	per := func(v int64) float64 { return float64(v) / float64(max(ops, 1)) }
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	c := func(i machine.Cnt) int64 { return acct[i] }
	mc := met.Counter
	return map[string]float64{
		"am.polls_per_op":               per(c(machine.CntPolls)),
		"am.msgs_per_op":                per(c(machine.CntMsgShort) + c(machine.CntMsgBulk)),
		"tham.stub_hit_ratio":           ratio(c(machine.CntStubHit), c(machine.CntStubMiss)),
		"tham.buf_reuse_ratio":          ratio(c(machine.CntBufReuse), c(machine.CntBufAlloc)),
		"threads.create_per_op":         per(c(machine.CntThreadCreate)),
		"threads.switch_per_op":         per(c(machine.CntContextSwitch)),
		"threads.lock_contended_per_op": per(c(machine.CntLockContended)),
		"live.notify_batch": func() float64 {
			if b := mc(metrics.CtrNotifyBatches); b > 0 {
				return float64(mc(metrics.CtrNotifies)) / float64(b)
			}
			return 0
		}(),
		"live.notify_depth_hwm":       float64(met.Gauge(metrics.GgeNotifyDepth).Max),
		"netlive.spin_wake_ratio":     ratio(mc(metrics.CtrShmSpinWakes), mc(metrics.CtrShmParkWakes)),
		"netlive.doorbells_per_kop":   1000 * per(mc(metrics.CtrShmDoorbells)),
		"netlive.shm_frames_per_op":   per(mc(metrics.CtrShmFramesOut)),
		"netlive.shm_bytes_per_op":    per(mc(metrics.CtrShmBytesOut)),
		"netlive.shm_ring_hwm_kb":     float64(met.Gauge(metrics.GgeShmRingDepth).Max) / 1024,
		"netlive.sock_frames_per_op":  per(mc(metrics.CtrFramesOut)),
		"netlive.peer_ring_hwm":       float64(met.Gauge(metrics.GgePeerRingDepth).Max),
		"netlive.writer_stall_p50_us": float64(met.Hist(metrics.HstWriterStall).P50()) / 1e3,
		"go.allocs_per_op":            per(int64(w.allocs)),
		"go.gc_per_kop":               1000 * per(int64(w.gcs)),
	}, nil
}

// finishSpans aggregates the traced run's spans into r and writes them to
// path as a Chrome trace.
func (r *result) finishSpans(path string, bufs []*SpanBuf) error {
	r.Spans = aggregate(bufs)
	for _, b := range bufs {
		r.SpansDropped += b.dropped
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, bufs); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
