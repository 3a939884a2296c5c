package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/transport/live"
	"repro/internal/transport/netlive"
	"repro/mpmd"
)

// spec is one measurement, run in a process of its own: every machine a
// run builds gets a fresh process (the net backend allows one machine per
// process), and the process's rusage then belongs to that machine alone.
// A net worker shard is re-exec'd with the same spec.
type spec struct {
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"`             // modeMeasure or modeLadder
	Ladder   string  `json:"ladder,omitempty"` // ladder probe kind (modeLadder)
	Backend  string  `json:"backend"`          // backendShm, backendSocket or backendLive
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace,omitempty"`
	Stride   int64   `json:"stride,omitempty"`    // trace every stride-th op
	SpanFile string  `json:"span_file,omitempty"` // Chrome trace output (traced runs)
}

const (
	modeMeasure = "measure" // the workload's measured window
	modeLadder  = "ladder"  // one closed-loop layer probe

	backendShm    = "shm"    // net backend, shared-memory shard rings
	backendSocket = "socket" // net backend, rings disabled
	backendLive   = "live"   // live backend, one process

	workDir = ".bench_build/perfbench" // every file a run writes, under the working directory
)

// result is what one spec's process reports on its last stdout line.
type result struct {
	SetupS    float64  `json:"setup_s"` // start of the run to the first completed op
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Transport string   `json:"transport"`

	// The measured window: ops completed, its length (window start to the
	// last completion), every round trip and step, and the ops completed
	// in each second of it (so a run whose rate shifted part-way shows it).
	Ops       int64   `json:"ops"`
	WindowS   float64 `json:"window_s"`
	RTT       *Hist   `json:"rtt_ns"`
	Step      *Hist   `json:"step_ns"`
	PerSecond []int64 `json:"ops_per_second,omitempty"`
	// PreOpsPerS is a traced run's untraced first half, in ops/s.
	PreOpsPerS float64 `json:"pre_ops_per_s,omitempty"`

	CPUSelfUS  float64 `json:"cpu_self_us"`  // this process, over the window
	CPUChildUS float64 `json:"cpu_child_us"` // reaped worker shards, whole life
	RSSSelfKB  int64   `json:"rss_self_kb"`
	RSSChildKB int64   `json:"rss_child_kb"`

	Shares       map[string]float64  `json:"shares,omitempty"` // realized input shares
	Layers       map[string]float64  `json:"layers,omitempty"` // counter-derived per-layer values
	Spans        map[string]*spanAgg `json:"spans,omitempty"`
	SpansDropped int64               `json:"spans_dropped,omitempty"`
}

// setWindow records the measured window.
func (r *result) setWindow(p *phase, w *window) {
	r.Ops, r.WindowS = p.ops, p.seconds()
	r.RTT, r.Step, r.PerSecond = p.rtt, p.step, p.perSec
	r.CPUSelfUS = w.cpu
}

// fail records n failed ops and why.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// epoch is the harness clock origin; nanotime reads the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// isWorker reports whether this process is a re-exec'd net worker shard.
func isWorker() bool { return os.Getenv(netlive.EnvShard) != "" }

// runSpec executes one spec in this process and prints its result. A net
// worker shard runs the same code, serves until the machine quiesces and
// exits without printing.
func runSpec(arg string) int {
	var sp spec
	if err := json.Unmarshal([]byte(arg), &sp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad spec: %v\n", err)
		return 2
	}
	var r *result
	var err error
	switch {
	case sp.Mode == modeLadder:
		r, err = runLadder(sp)
	case sp.Workload == "em3d":
		r, err = runEM3D(sp)
	default:
		r, err = runRMI(sp)
	}
	if isWorker() {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
			return 1
		}
		return 0
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s/%s: %v\n", sp.Workload, sp.Mode, err)
		return 1
	}
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
	return 0
}

// watchdog bounds a machine's run: the window plus generous set-up and
// teardown room, so a wedged run fails instead of hanging.
func watchdog(sp spec) time.Duration {
	return time.Duration(sp.Seconds*float64(time.Second)) + 60*time.Second
}

// netMachine builds a net-backend machine of n nodes, nps per shard. On the
// parent it creates the rendezvous directory under workDir (relative,
// so socket paths stay short) and returns a cleanup that removes it.
func netMachine(sp spec, n, nps int) (*machine.Machine, *netlive.Backend, func(), error) {
	opts := netlive.Options{
		NodesPerShard: nps,
		DisableShm:    sp.Backend == backendSocket,
		Live:          live.Options{Watchdog: watchdog(sp)},
	}
	cleanup := func() {}
	if !isWorker() {
		dir, err := os.MkdirTemp(workDir, "rdv-")
		if err != nil {
			return nil, nil, nil, fmt.Errorf("rendezvous dir: %w", err)
		}
		opts.Dir = dir
		cleanup = func() { _ = os.RemoveAll(dir) }
	}
	be, err := netlive.New(n, opts)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return machine.NewWithBackend(mpmd.SPConfig(), n, be), be, cleanup, nil
}

// liveMachine builds a single-process live-backend machine of n nodes.
func liveMachine(sp spec, n int) *machine.Machine {
	return machine.NewWithBackend(mpmd.SPConfig(), n, live.New(n, live.Options{Watchdog: watchdog(sp)}))
}

// checkTransport fails every op when the wire is not the one the workload
// names, so a silent fallback reads as a failure rather than as slow.
func checkTransport(r *result, sp spec, be *netlive.Backend) {
	switch {
	case be == nil:
		r.Transport = "none"
	case be.ShmActive():
		r.Transport = backendShm
	default:
		r.Transport = backendSocket
	}
	want := sp.Backend
	if want == backendLive {
		want = "none"
	}
	if r.Transport != want {
		r.fail(r.Attempted, "transport is %s, want %s", r.Transport, want)
	}
}

// window snapshots everything a measured window is the difference of:
// every shard's stats, this process's CPU time and Go allocator counters.
// open and close run on a node thread at the window's edges.
type window struct {
	// shards returns every shard's stats as of now: this process's
	// LocalStats, plus each worker shard's read back through an RMI (the
	// worker takes its own LocalStats inside the call).
	shards func(t *threads.Thread) ([]machine.ShardStats, error)
	s0     []machine.ShardStats
	err    error
	cpu0   float64
	ms0    runtime.MemStats

	acct   machine.CounterSet // window deltas, merged over shards
	met    metrics.Snapshot   // window deltas; gauges keep the run's high-water marks
	cpu    float64            // this process's CPU over the window (µs)
	allocs uint64
	gcs    uint32
}

func (w *window) open(t *threads.Thread) {
	w.s0, w.err = w.shards(t)
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = selfCPU()
}

func (w *window) close(t *threads.Thread) {
	w.cpu = selfCPU() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocs, w.gcs = ms.Mallocs-w.ms0.Mallocs, ms.NumGC-w.ms0.NumGC
	s1, err := w.shards(t)
	if w.err == nil {
		w.err = err
	}
	if w.err != nil {
		return
	}
	merge := func(ss []machine.ShardStats) (machine.Snapshot, metrics.Snapshot) {
		var accts []machine.Snapshot
		var mets []metrics.Snapshot
		for _, s := range ss {
			accts = append(accts, s.Acct)
			mets = append(mets, s.Metrics)
		}
		return machine.MergeSnapshots(accts...), metrics.Merge(mets...)
	}
	a0, m0 := merge(w.s0)
	a1, m1 := merge(s1)
	for i := range w.acct {
		w.acct[i] = a1.Counters[i] - a0.Counters[i]
	}
	w.met = m1
	for i := range w.met.Counters {
		w.met.Counters[i] -= m0.Counters[i]
	}
	for i := range w.met.Hists {
		w.met.Hists[i] = m1.Hists[i].Sub(m0.Hists[i])
	}
}

// selfCPU is this process's user+system CPU time in µs.
func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvUS(ru.Utime) + tvUS(ru.Stime)
}

func tvUS(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }

// finishProcess fills the whole-process figures once Run has returned and
// every worker shard has been reaped. A worker's peak RSS is not taken from
// RUSAGE_CHILDREN: Linux starts an exec'd process's ru_maxrss at its
// parent's high-water mark, so it would read the parent's size whenever that
// is the larger. The worker reports its own instead (see sinkClass).
func finishProcess(r *result) {
	var kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	r.CPUChildUS = tvUS(kids.Utime) + tvUS(kids.Stime)
	r.RSSSelfKB = peakRSSKB()
}

// peakRSSKB is this process's own peak resident set in KiB: VmHWM, the
// high-water mark of the address space the last exec created, so neither
// the benchmark process that started this one nor any earlier program
// counts. Where /proc is missing it falls back to ru_maxrss.
func peakRSSKB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return int64(ru.Maxrss)
}

// execSpec runs sp in a fresh process of this binary and returns its
// result. A process that fails or prints no result is reported as an error.
// The process gets its own process group, so a timeout or a cancelled ctx
// also stops the net worker shards it re-exec'd.
func execSpec(ctx context.Context, sp spec) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, _ := json.Marshal(sp)
	ctx, cancel := context.WithTimeout(ctx, watchdog(sp)+30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "exec", string(arg))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s %s: %w", sp.Workload, sp.Mode, sp.Ladder, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s %s %s: no result: %v", sp.Workload, sp.Mode, sp.Ladder, err)
	}
	return &r, nil
}
