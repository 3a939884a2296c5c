// Command perfbench is the repository's benchmark. It runs one closed-loop
// workload through the public API of the runtime stack, checks the
// outputs, and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (round trip, rate, CPU
// per op, memory, set-up time, step time); with -trace 1 a separate traced
// run records spans around every call into a layer, runs the ladder
// probes, and prints the per-layer metrics. Every machine is built in a
// fresh process of this binary (see spec), so rusage and RSS belong to the
// system under test, not the harness.
//
// Usage:
//
//	perfbench -workload pingpong|pipeline|pipeline-socket|em3d -seed N -seconds S -trace 0|1
//	perfbench spread FILE...   (spread of the metrics in saved result lines)
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the Go build cache and every file a run writes under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// workload describes one benchmark workload.
type workload struct {
	backend string
	why     string
}

// workloads lists every workload; BENCHMARK.json lists the gated ones with
// the same reasons. pingpong and pipeline run the same way but are not
// gated: their spread between runs exceeds any allowed bound (README.md).
var workloads = map[string]workload{
	"pingpong": {backendShm, "One warm null Runtime.Call outstanding across 2 processes over shm rings: dispatch, " +
		"locking, ring wake. Bypasses bulk marshal, thread spawn, typed layer and coll."},
	"pipeline": {backendShm, "2 clients x 8 CallAsyncs over shm rings, 60% null/20% 1KiB put/20% threaded: " +
		"ring batching, bulk marshal, thread spawn. Bypasses the socket path and typed layer."},
	"pipeline-socket": {backendSocket, "pipeline with shm rings disabled: socket writer/reader and peer " +
		"writer ring, the only wire off Linux. Bypasses the shm rings and their spin/park wake."},
	"em3d": {backendLive, "EM3D on Dist/Team, one live process, 2 members: typed layer, coll " +
		"barrier/allreduce, local compute. Bypasses netlive (no wire, no re-exec)."},
}

// subRuns is how many fresh machines a -trace 0 run measures, each for
// 1/subRuns of the run, one after another. The host's speed drifts over
// seconds to minutes, and a machine's rate settles at a level of its own
// (thread placement, scheduling), so each end-to-end metric is
// the median of the machines' own values: a slow stretch that covers a
// few machines moves a pooled figure but not the median. Each machine also
// times a set-up.
const subRuns = 15

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the contract line printed last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostStamp identifies the machine and inputs a result came from.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
}

func host() hostStamp {
	var u syscall.Utsname
	_ = syscall.Uname(&u)
	var rel []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		rel = append(rel, byte(c))
	}
	return hostStamp{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, string(rel)}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "exec":
			if len(os.Args) != 3 {
				fmt.Fprintln(os.Stderr, "usage: perfbench exec SPEC")
				os.Exit(2)
			}
			os.Exit(runSpec(os.Args[2]))
		case "spread":
			os.Exit(runSpread(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "workload: pingpong, pipeline, pipeline-socket or em3d")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// An interrupt stops the running measurement's processes before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	base := spec{Workload: *name, Backend: wl.backend, Seed: *seed, Seconds: *seconds, Mode: modeMeasure}
	rep := report{Workload: *name, Why: wl.why, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: host()}
	var err error
	if *trace == 0 {
		err = rep.endToEnd(ctx, base)
	} else {
		err = rep.perLayer(ctx, base)
	}
	if err != nil {
		rep.Failures = append(rep.Failures, err.Error())
		rep.Out.Failed = max(rep.Out.Failed, 1)
		rep.Out.Attempted = max(rep.Out.Attempted, rep.Out.Failed)
	}
	rep.Out.Correct = rep.Out.Failed == 0
	rep.print()
	if !rep.Out.Correct {
		os.Exit(1)
	}
}

// report is everything one invocation measured; it is printed as text,
// saved in full under workDir, and summarized in the contract line.
type report struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Host      hostStamp          `json:"host"`
	Transport string             `json:"transport"`
	Shares    map[string]float64 `json:"shares"`
	SetupS    []float64          `json:"setup_samples_s,omitempty"`
	Runs      map[string]*result `json:"runs"`
	SpanFile  string             `json:"span_file,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Out       output             `json:"result"`
}

// add folds one process's result into the report's totals.
func (rep *report) add(key string, r *result) {
	if rep.Runs == nil {
		rep.Runs = map[string]*result{}
	}
	rep.Runs[key] = r
	rep.Out.Attempted += r.Attempted
	rep.Out.Failed += r.Failed
	rep.Failures = append(rep.Failures, r.Failures...)
}

// endToEndUnits and perLayerUnits are the metrics each kind of run
// prints, with their units; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s": "s", "rtt_p50_us": "us", "rtt_p99_us": "us", "ops_per_s": "1/s",
	"cpu_us_per_op": "us", "peak_rss_mb": "MB", "step_ms": "ms", "step_p90_ms": "ms",
}

var perLayerUnits = map[string]string{
	"am.echo_rtt_us": "us", "am.polls_per_op": "count", "am.msgs_per_op": "count",
	"core.self_us": "us", "core.issue_us": "us", "core.wait_us": "us",
	"tham.stub_hit_ratio": "ratio", "tham.buf_reuse_ratio": "ratio",
	"threads.threaded_extra_us": "us", "threads.create_per_op": "count",
	"threads.switch_per_op": "count", "threads.lock_contended_per_op": "count",
	"wire.bulk1k_extra_us": "us",
	"live.notify_batch":    "count", "live.notify_depth_hwm": "count",
	"netlive.boundary_us": "us", "netlive.spin_wake_ratio": "ratio", "netlive.doorbells_per_kop": "count",
	"netlive.shm_frames_per_op": "count", "netlive.shm_bytes_per_op": "B", "netlive.shm_ring_hwm_kb": "KiB",
	"netlive.sock_frames_per_op": "count", "netlive.peer_ring_hwm": "count", "netlive.writer_stall_p50_us": "us",
	"mpmd.self_us": "us", "mpmd.getasync_us": "us", "mpmd.wait_us": "us",
	"coll.barrier_us": "us", "coll.allreduce_us": "us",
	"em3d.compute_ms": "ms", "em3d.comm_frac": "ratio",
	"go.allocs_per_op": "count", "go.gc_per_kop": "count",
	"proc.cpu_client_us_per_op": "us", "proc.cpu_server_us_per_op": "us",
	"bench.trace_overhead_frac": "ratio",
}

func (rep *report) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if rep.Trace == 1 {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	if rep.Out.Metrics == nil {
		rep.Out.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no NaN: report the metric as a failure, not as a number.
		rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s is %v", name, v))
		rep.Out.Failed++
		v = 0
	}
	rep.Out.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd is the untraced run: subRuns measured windows, each on a fresh
// machine; every metric is the median of the machines' values.
func (rep *report) endToEnd(ctx context.Context, base spec) error {
	sp := base
	sp.Seconds = base.Seconds / subRuns
	per := map[string][]float64{}
	rep.Shares = map[string]float64{}
	for i := 0; i < subRuns; i++ {
		r, err := execSpec(ctx, sp)
		if err != nil {
			return err
		}
		rep.add(fmt.Sprintf("run%d", i), r)
		rep.Transport = r.Transport
		rep.SetupS = append(rep.SetupS, r.SetupS)
		for k, v := range r.Shares {
			rep.Shares[k] += v / subRuns
		}
		ops := float64(max(r.Ops, 1))
		for name, v := range map[string]float64{
			"setup_s":       r.SetupS,
			"rtt_p50_us":    r.RTT.Quantile(0.50) / 1e3,
			"rtt_p99_us":    r.RTT.Quantile(0.99) / 1e3,
			"ops_per_s":     float64(r.Ops) / r.WindowS,
			"cpu_us_per_op": (r.CPUSelfUS + r.CPUChildUS) / ops,
			"step_ms":       r.Step.Quantile(0.50) / 1e6,
			"step_p90_ms":   r.Step.Quantile(0.90) / 1e6,
			"peak_rss_mb":   float64(r.RSSSelfKB+r.RSSChildKB) / 1024,
		} {
			per[name] = append(per[name], v)
		}
	}
	for name, vs := range per {
		rep.set(name, median(vs))
	}
	return nil
}

// ladderRungs lists the probes a traced run makes: every rung on the
// workload's backend, plus the am echo on the other side of the process
// boundary (live for net workloads, shm for em3d) for netlive.boundary_us.
func ladderRungs(backend string) [][2]string {
	rungs := [][2]string{}
	for _, k := range []string{ladderEcho, ladderCall, ladderThreaded, ladderBulk, ladderTyped} {
		rungs = append(rungs, [2]string{k, backend})
	}
	if backend == backendLive {
		return append(rungs, [2]string{ladderEcho, backendShm})
	}
	return append(rungs, [2]string{ladderEcho, backendLive})
}

// spansPerThreadOp estimates how many spans one client thread records per
// op of the workload, from an untraced run of it: a pipeline client sees
// half the ops, an em3d member every iteration.
func spansPerThreadOp(workload string, u *result) float64 {
	switch workload {
	case "pingpong":
		return 2
	case "em3d":
		gets := float64(u.RTT.Count()) / float64(max(u.Ops, 1)) / em3dMembers
		return 2*gets + 8
	default:
		return 3.0 / 2
	}
}

// perLayer is the traced run: an untraced window (the counter-derived
// metrics), a window of the same length on another machine whose first half
// is untraced and second half traced (spans, and the overhead measured on
// one machine), and the ladder probes.
func (rep *report) perLayer(ctx context.Context, base spec) error {
	half := base
	half.Seconds = base.Seconds / 2
	u, err := execSpec(ctx, half)
	if err != nil {
		return err
	}
	rep.add("untraced", u)
	rep.Transport, rep.Shares = u.Transport, u.Shares

	spans := float64(u.Ops) / 2 * spansPerThreadOp(base.Workload, u) // the traced half

	traced := half
	traced.Trace = true
	traced.Stride = int64(math.Ceil(spans / (0.8 * spanCap)))
	traced.SpanFile = filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", base.Workload, base.Seed))
	tr, err := execSpec(ctx, traced)
	if err != nil {
		return err
	}
	rep.add("traced", tr)
	rep.SpanFile = traced.SpanFile

	// Each rung runs ladderReps times, on a fresh machine each time and
	// round-robin over the rungs, and reports the median of its medians: a
	// machine's own level moves a single probe by more than a small rung
	// difference.
	p50s := map[string][]float64{}
	for i := 0; i < ladderReps; i++ {
		for _, rung := range ladderRungs(base.Backend) {
			sp := base
			sp.Mode, sp.Ladder, sp.Backend = modeLadder, rung[0], rung[1]
			r, err := execSpec(ctx, sp)
			if err != nil {
				return err
			}
			key := rung[0] + "." + rung[1]
			rep.add(fmt.Sprintf("ladder.%s.%d", key, i), r)
			p50s[key] = append(p50s[key], r.RTT.Quantile(0.50)/1e3)
		}
	}
	rtt := map[string]float64{}
	for k, v := range p50s {
		rtt[k] = median(v)
	}
	b := base.Backend
	net := b
	if b == backendLive {
		net = backendShm
	}
	for name, v := range u.Layers {
		rep.set(name, v)
	}
	rep.set("am.echo_rtt_us", rtt[ladderEcho+"."+b])
	rep.set("core.self_us", rtt[ladderCall+"."+b]-rtt[ladderEcho+"."+b])
	rep.set("netlive.boundary_us", rtt[ladderEcho+"."+net]-rtt[ladderEcho+"."+backendLive])
	rep.set("threads.threaded_extra_us", rtt[ladderThreaded+"."+b]-rtt[ladderCall+"."+b])
	rep.set("wire.bulk1k_extra_us", rtt[ladderBulk+"."+b]-rtt[ladderCall+"."+b])
	rep.set("mpmd.self_us", rtt[ladderTyped+"."+b]-rtt[ladderCall+"."+b])

	sp := func(name string) *spanAgg {
		if a := tr.Spans[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	rep.set("core.issue_us", sp("core.CallAsync").MeanSelfUS)
	rep.set("core.wait_us", sp("core.Future.Wait").MeanUS)
	rep.set("mpmd.getasync_us", sp("mpmd.Dist.GetAsync").MeanUS)
	rep.set("mpmd.wait_us", sp("mpmd.Future.Wait").MeanUS)
	rep.set("coll.barrier_us", sp("coll.Team.Barrier").MeanUS)
	rep.set("coll.allreduce_us", sp("coll.AllReduce").MeanUS)
	compute := sp("em3d.compute").PerOpUS
	rep.set("em3d.compute_ms", compute/1e3)
	commFrac := 0.0
	if step := sp("op").MeanUS; compute > 0 && step > 0 {
		commFrac = 1 - compute/step
	}
	rep.set("em3d.comm_frac", commFrac)

	ops := float64(max(u.Ops, 1))
	rep.set("proc.cpu_client_us_per_op", u.CPUSelfUS/ops)
	rep.set("proc.cpu_server_us_per_op", u.CPUChildUS/ops)
	rep.set("bench.trace_overhead_frac", tr.PreOpsPerS/(float64(tr.Ops)/tr.WindowS)-1)
	return nil
}

// print writes the text report, saves the full report, and prints the
// contract line last.
func (rep *report) print() {
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d transport=%s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Transport)
	fmt.Printf("# why: %s\n", rep.Why)
	h, _ := json.Marshal(rep.Host)
	fmt.Printf("# host: %s\n", h)
	sh, _ := json.Marshal(rep.Shares)
	fmt.Printf("# realized input shares: %s\n", sh)
	if len(rep.SetupS) > 0 {
		fmt.Printf("# setup samples (s): %.4f\n", rep.SetupS)
	}
	if rep.SpanFile != "" {
		fmt.Printf("# span file: %s\n", rep.SpanFile)
	}
	names := make([]string, 0, len(rep.Out.Metrics))
	for n := range rep.Out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Out.Metrics[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	frac := float64(rep.Out.Failed) / float64(max(rep.Out.Attempted, 1))
	fmt.Printf("%-34s %14.6f (%d of %d ops)\n", "failed_frac", frac, rep.Out.Failed, rep.Out.Attempted)
	for _, f := range rep.Failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	if b, err := json.MarshalIndent(rep, "", "  "); err == nil {
		path := filepath.Join(workDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	if rep.Out.Metrics == nil {
		rep.Out.Metrics = map[string]metric{}
	}
	b, _ := json.Marshal(rep.Out)
	fmt.Println(string(b))
}
