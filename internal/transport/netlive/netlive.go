// Package netlive is the sharded multi-process transport backend: the
// machine's n nodes are partitioned into shards of NodesPerShard consecutive
// nodes, each shard living in its own OS process, connected by Unix-domain
// sockets carrying length-prefixed frames of the same Active-Messages wire
// format the in-memory backends move — the 2026 analogue of the paper's SP
// network, with the runtime specialized to the substrate exactly as the
// paper argues it must be.
//
// # Topology and roles
//
// Shard 0 is the parent. Peer shards are either re-exec'd children (the
// parent launches its own binary again with MPMD_NETLIVE_SHARD set — the
// SPMD launch model, every process runs the identical program and therefore
// builds identical stub registries, object tables, and buffer managers) or
// independently launched workers pointed at the same rendezvous directory.
// Each shard listens on <dir>/shard-<i>.sock; connections are dialed lazily
// on first send, with retry while the peer comes up.
//
// Within a shard, execution delegates to the live backend unchanged: procs
// are goroutines, one CPU mutex per node, wall-clock time. A single-shard
// configuration (NodesPerShard >= n, the loopback mode) therefore behaves
// exactly like live and runs the full conformance suite.
//
// # The serialized path
//
// The machine layer routes a cross-shard Send through ShardBackend
// .DeliverRemote with the packet payload already encoded into a pooled
// wire.Buf (am.Msg's wire codec). Each peer shard has one writer goroutine
// owning the connection: frames queue on a ring, and each writer wake takes
// every queued frame up to writeBatchCap bytes, encodes them back to back
// into one reusable buffer, and puts the batch on the wire with a single
// write (a writev when the last frame's body is too large to copy). Order
// is preserved — per-sender FIFO to a destination holds end to end — and
// the bodies are released once the write returns, so a warm cross-shard
// send allocates nothing. The byte stream is exactly the per-frame
// encoding; only the syscall count changes.
//
// Each reader goroutine reads its connection through a fixed readBufSize
// buffer, so one read brings in many frames, and validates every frame at
// this single choke point before anything is allocated or dispatched for
// it: the length is at most maxFrameLen, the kind is known and its body at
// least the kind's minimum, packet src is a node and dst a local one, and
// control-frame shard ids are in range. A violation is reported through
// Err and closes that connection. A body that fits the read buffer is
// dispatched in place (the remote-arrival handler copies what it keeps, as
// for shm ring slots); a larger one is read into a pooled buffer. Packets go
// to the machine's remote-arrival handler, which decodes the payload,
// enqueues into the destination node's (thread-safe) inbox and, if a
// thread there is parked for arrivals, wakes it through the live backend's
// delivery worker. A payload the handler's decoder rejects is a violation
// like any other: Err, and the connection closed.
//
// # The shared-memory fast path
//
// Co-resident shards (the default deployment: one machine, many processes)
// skip the socket for data frames entirely. The parent creates one mmap'd
// single-producer single-consumer ring per ordered shard pair in the
// rendezvous directory before spawning; every shard attaches every ring it
// touches at New. A cross-shard packet is marshaled by the sending proc
// directly into a ring slot and consumed in place by the receiving shard's
// ring reader — same frame fields, zero syscalls, zero copies beyond the
// marshal itself. Consumers spin briefly then park; a producer that catches
// a parked consumer rings a kDoorbell control frame over the peer socket,
// which also keeps carrying the control plane (quiesce, stats) and all
// frames when the fast path is off (Options.DisableShm, MPMD_NETLIVE_NOSHM,
// a non-unix host, or a single shard). See shmring.go and DESIGN.md.
//
// # Lifecycle
//
// Runtimes call Topology.LocalQuiesced when their local node programs have
// finished. Children report to the parent (kMainsDone); when every shard has
// quiesced the parent broadcasts kAllDone, and each shard then runs its
// quiesce callback (typically a grace-delayed endpoint shutdown) so servers
// keep answering remote invocations until the whole machine is done. Run
// returns when the local procs have finished; the parent additionally waits
// for its children to exit and surfaces their status.
package netlive

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/live"
	"repro/internal/wire"
)

// Environment variables of the re-exec harness. The parent sets them for
// each child; a process finding them set assumes the worker role.
const (
	EnvShard = "MPMD_NETLIVE_SHARD"
	EnvDir   = "MPMD_NETLIVE_DIR"
	EnvNodes = "MPMD_NETLIVE_NODES"
	EnvNPS   = "MPMD_NETLIVE_NPS"
	// EnvNoShm (any non-empty value) disables the shared-memory ring fast
	// path. The parent propagates it to children whenever its own fast path
	// is off, so a shard pair can never disagree about the transport.
	EnvNoShm = "MPMD_NETLIVE_NOSHM"
)

// Options tune the net backend. The zero value is a single-shard (loopback)
// configuration.
type Options struct {
	// NodesPerShard is how many consecutive nodes share one process. Zero or
	// >= n means one shard: everything local, no sockets (loopback mode).
	NodesPerShard int
	// Live tunes the in-shard execution backend.
	Live live.Options
	// Shard fixes this backend's shard index explicitly (tests that build
	// several shards inside one process). Nil selects the role automatically:
	// MPMD_NETLIVE_SHARD when set (a re-exec'd child), else shard 0.
	Shard *int
	// Dir is the rendezvous directory holding the per-shard sockets. Empty
	// means MPMD_NETLIVE_DIR, or a fresh temp directory on the parent.
	Dir string
	// NoSpawn stops the parent from re-exec'ing children; the peer shards
	// are expected to be launched externally with the environment (or
	// explicit Options) pointing at Dir.
	NoSpawn bool
	// ChildArgs overrides the argument vector for re-exec'd children
	// (default: this process's own arguments). Tests use it to re-enter a
	// single test function.
	ChildArgs []string
	// DialTimeout bounds how long a writer waits for a peer's socket to
	// appear. Zero means 10s.
	DialTimeout time.Duration
	// DisableShm turns off the shared-memory ring fast path: every
	// cross-shard frame takes the socket writer. The MPMD_NETLIVE_NOSHM
	// environment variable has the same effect (and is what the parent sets
	// for re-exec'd children when its own fast path is off).
	DisableShm bool
	// ShmRingBytes sizes each directed ring's data area in bytes. Zero means
	// 1 MiB; values are clamped to at least 4 KiB and rounded up to a
	// multiple of 8. A frame larger than a quarter of the ring takes the
	// socket path.
	ShmRingBytes int
	// CPUsPerShard > 0 pins this shard's procs and delivery workers to the
	// CPU block [shard*CPUsPerShard, (shard+1)*CPUsPerShard), wrapped onto
	// the host's CPU count, by filling Live.CPUAffinity when that is empty.
	// Keeps co-resident shards from migrating onto each other's cores so
	// the shm rings behave like the paper's dedicated per-node processors.
	CPUsPerShard int
}

// frameKind is the frame discriminator on the wire. Every switch over it
// must dispatch all kinds and reject unknown bytes in a default clause —
// adding a kind then fails vet at every dispatch site that missed it.
//
//mpmdvet:exhaustive
type frameKind byte

// frame kinds on the wire.
const (
	kPacket    = frameKind(1) // u32 src, u32 dst, u32 size, payload
	kMainsDone = frameKind(2) // u32 shard
	kAllDone   = frameKind(3) // empty
	kStats     = frameKind(4) // u32 shard, JSON machine.ShardStats (worker -> parent, mid-run sample)
	kStatsReq  = frameKind(5) // empty (parent -> worker: report your stats now)
	kDoorbell  = frameKind(6) // u32 shard (sender: wake your parked consumer of my outbound ring)
	kStatsLast = frameKind(7) // as kStats, the worker's final report (sent once its procs finished)
)

const (
	// frameHdrLen is the frame prefix: u32 body length, u8 kind.
	frameHdrLen = 5
	// packetHdrLen is the kPacket body header: src, dst, size.
	packetHdrLen = 12
	// maxFrameLen bounds a frame body. A reader rejects a longer length
	// before allocating anything for it; push refuses to queue a longer
	// frame, so no writer ever produces one.
	maxFrameLen = 64 << 20
	// writeBatchCap is the per-peer coalescing buffer: one writer wake
	// encodes queued frames into it up to this many bytes and puts them on
	// the wire with a single write. A frame that does not fit ends the
	// batch and has its body written from its own buffer in the same writev.
	writeBatchCap = 64 << 10
	// readBufSize is the per-connection read buffer: one read syscall
	// brings in as many frames as the peer has written, and a body that
	// fits is dispatched in place from the buffered bytes.
	readBufSize = 64 << 10
)

// minBody is the shortest valid body of each frame kind; ok is false for a
// kind byte no writer produces.
func minBody(k frameKind) (n int, ok bool) {
	switch k {
	case kPacket:
		return packetHdrLen, true
	case kMainsDone, kStats, kStatsLast, kDoorbell:
		return 4, true
	case kAllDone, kStatsReq:
		return 0, true
	default:
		return 0, false
	}
}

// Backend is the sharded multi-process transport. Construct with New.
type Backend struct {
	inner *live.Backend

	n, nps, shards, shard int
	lo, hi                int // local node range [lo, hi)
	dir                   string
	ownsDir               bool
	opts                  Options

	ln       net.Listener
	peers    []*peer // indexed by shard; nil for self
	children []*exec.Cmd

	// shm is the shared-memory ring plane (nil when the fast path is off:
	// loopback, DisableShm, MPMD_NETLIVE_NOSHM, or a non-unix host).
	shm *shmPlane

	// remote is the machine's arrival upcall (SetRemoteHandler). Atomic:
	// reader goroutines may already be accepting peer connections while the
	// machine layer is still being constructed.
	remote atomic.Value // func(src, dst, size int, payload []byte) error

	q struct {
		sync.Mutex
		fn        func()       //mpmdvet:guard Mutex — quiesce callback (LocalQuiesced)
		localDone bool         //mpmdvet:guard Mutex — this shard's programs finished
		done      map[int]bool //mpmdvet:guard Mutex — parent: shards that reported mains-done
		fired     bool         //mpmdvet:guard Mutex
	}

	// met is the shard's message-plane registry: frame/byte counters, peer
	// ring depths, writer stalls. Per-node instruments live in the inner
	// live backend's registries.
	met *metrics.Registry

	// statsProv serializes this shard's stats payload (machine.ShardStats
	// JSON); the machine layer installs it via SetStatsProvider. Atomic: the
	// reader goroutines may field a kStatsReq while it is being installed.
	statsProv atomic.Value // func() []byte

	// peerStats is the latest stats payload from each worker shard, and
	// peerFinal marks the shards whose final report (kStatsLast) has
	// arrived; a mid-run sample never replaces a final report (parent only).
	statsMu   sync.Mutex
	peerStats map[int][]byte //mpmdvet:guard statsMu
	peerFinal map[int]bool   //mpmdvet:guard statsMu

	errMu sync.Mutex
	errs  []error //mpmdvet:guard errMu

	// conns/sockClosed: acceptLoop registers each accepted connection (and
	// its reader) under errMu, and shutdown flips sockClosed under the same
	// lock before waiting on readers — a connection that races shutdown is
	// closed on the spot instead of leaking an untracked reader.
	conns      []net.Conn //mpmdvet:guard errMu
	sockClosed bool       //mpmdvet:guard errMu
	readers    sync.WaitGroup
}

// New builds a net backend for n nodes. Role, shard layout, and rendezvous
// directory come from opts and the environment (see the package comment).
func New(n int, opts Options) (*Backend, error) {
	if n <= 0 {
		return nil, errors.New("netlive: need at least one node")
	}
	nps := opts.NodesPerShard
	if nps <= 0 || nps > n {
		nps = n
	}
	shards := (n + nps - 1) / nps
	shard := 0
	fromEnv := false
	switch {
	case opts.Shard != nil:
		shard = *opts.Shard
	case os.Getenv(EnvShard) != "":
		v, err := strconv.Atoi(os.Getenv(EnvShard))
		if err != nil {
			return nil, fmt.Errorf("netlive: bad %s: %v", EnvShard, err)
		}
		shard = v
		fromEnv = true
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("netlive: shard %d out of range [0,%d)", shard, shards)
	}
	if fromEnv {
		// The re-exec harness depends on every process building the identical
		// machine; catch divergence before it turns into misrouted frames.
		if en := os.Getenv(EnvNodes); en != "" && en != strconv.Itoa(n) {
			return nil, fmt.Errorf("netlive: child built %d nodes, parent %s (program divergence)", n, en)
		}
		if ep := os.Getenv(EnvNPS); ep != "" && ep != strconv.Itoa(nps) {
			return nil, fmt.Errorf("netlive: child built %d nodes/shard, parent %s (program divergence)", nps, ep)
		}
	}

	if opts.CPUsPerShard > 0 && len(opts.Live.CPUAffinity) == 0 {
		opts.Live.CPUAffinity = affinityBlock(shard, opts.CPUsPerShard)
	}

	b := newLocal(n, nps, shard, opts)
	if shards == 1 {
		return b, nil // loopback: no sockets, no peers
	}

	b.dir = opts.Dir
	if b.dir == "" {
		b.dir = os.Getenv(EnvDir)
	}
	if b.dir == "" {
		if shard != 0 {
			return nil, errors.New("netlive: worker shard has no rendezvous dir (set Options.Dir or " + EnvDir + ")")
		}
		dir, err := os.MkdirTemp("", "netlive-*")
		if err != nil {
			return nil, fmt.Errorf("netlive: rendezvous dir: %w", err)
		}
		b.dir = dir
		b.ownsDir = true
	}

	// Listen now — peers dial as soon as their first frame queues, and the
	// kernel backlog holds their connections — but accept (and read) only
	// once Run starts: machine and runtime construction happen between New
	// and Run, and an early frame dispatched into a half-built machine
	// would race it. Deferring the readers to Run gives every arriving
	// frame a happens-before edge over the whole setup.
	ln, err := net.Listen("unix", b.sockPath(shard))
	if err != nil {
		return nil, fmt.Errorf("netlive: shard %d listen: %w", shard, err)
	}
	b.ln = ln

	b.peers = make([]*peer, shards)
	for s := 0; s < shards; s++ {
		if s == shard {
			continue
		}
		b.peers[s] = newPeer(b, s)
	}

	// Ring mesh before spawning: a re-exec'd child's attach must find every
	// ring already initialized.
	if err := b.shmSetup(); err != nil {
		b.shutdownSockets()
		return nil, err
	}

	if shard == 0 && !opts.NoSpawn && opts.Shard == nil {
		if err := b.spawnChildren(); err != nil {
			b.shutdownSockets()
			return nil, err
		}
	}
	return b, nil
}

// newLocal builds the in-process half of a backend for shard of a machine
// of n nodes in shards of nps: the live inner backend, the local node range,
// and the guarded maps. New adds the sockets, rings, and children on top.
func newLocal(n, nps, shard int, opts Options) *Backend {
	b := &Backend{
		inner:  live.New(n, opts.Live),
		n:      n,
		nps:    nps,
		shards: (n + nps - 1) / nps,
		shard:  shard,
		lo:     shard * nps,
		opts:   opts,
	}
	b.hi = min(b.lo+nps, n)
	b.met = metrics.NewRegistry()
	// The maps are guarded; take the (uncontended) locks so construction is
	// checked by the same rule as every later access.
	b.statsMu.Lock()
	b.peerStats = make(map[int][]byte)
	b.peerFinal = make(map[int]bool)
	b.statsMu.Unlock()
	b.q.Lock()
	b.q.done = make(map[int]bool)
	b.q.Unlock()
	if opts.DialTimeout <= 0 {
		b.opts.DialTimeout = 10 * time.Second
	}
	return b
}

// affinityBlock is shard s's CPU set under Options.CPUsPerShard: a block of
// per consecutive CPUs starting at s*per, wrapped onto the host's CPU count
// (oversubscribed hosts share cores rather than erroring).
func affinityBlock(shard, per int) []int {
	ncpu := runtime.NumCPU()
	cpus := make([]int, 0, per)
	for k := 0; k < per; k++ {
		cpus = append(cpus, (shard*per+k)%ncpu)
	}
	return cpus
}

func (b *Backend) sockPath(shard int) string {
	return filepath.Join(b.dir, fmt.Sprintf("shard-%d.sock", shard))
}

// spawnChildren re-execs this binary once per peer shard, handing each the
// rendezvous directory and its shard index through the environment. Child
// stdout is redirected to stderr so the parent's own stdout (JSON reports)
// stays clean.
func (b *Backend) spawnChildren() error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("netlive: cannot re-exec: %w", err)
	}
	args := b.opts.ChildArgs
	if args == nil {
		args = os.Args[1:]
	}
	for s := 1; s < b.shards; s++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(),
			EnvShard+"="+strconv.Itoa(s),
			EnvDir+"="+b.dir,
			EnvNodes+"="+strconv.Itoa(b.n),
			EnvNPS+"="+strconv.Itoa(b.nps),
		)
		if b.shm == nil {
			// Parent runs without the fast path (option, env, or platform):
			// children must too, or the pair would strand ring frames.
			cmd.Env = append(cmd.Env, EnvNoShm+"=1")
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("netlive: spawn shard %d: %w", s, err)
		}
		b.children = append(b.children, cmd)
	}
	return nil
}

// --- transport.Backend ------------------------------------------------------

// Name implements transport.Backend.
func (b *Backend) Name() string { return "net" }

// NumNodes implements transport.Backend.
func (b *Backend) NumNodes() int { return b.n }

// Now implements transport.Backend (wall-clock since construction).
func (b *Backend) Now() time.Duration { return b.inner.Now() }

// Go implements transport.Backend. Procs can only be created on this
// shard's nodes; runtimes consult Topology and never ask for more.
func (b *Backend) Go(node int, name string, fn func(transport.Proc)) transport.Proc {
	if !b.IsLocal(node) {
		panic(fmt.Sprintf("netlive: proc %q on node %d, which lives in shard %d (this is shard %d)",
			name, node, b.shardOf(node), b.shard))
	}
	return b.inner.Go(node, name, fn)
}

// Deliver implements transport.Backend for local destinations; cross-shard
// packets travel through DeliverRemote (the machine routes them there).
func (b *Backend) Deliver(dst int, lat time.Duration, enqueue, notify func()) {
	if !b.IsLocal(dst) {
		panic(fmt.Sprintf("netlive: Deliver to remote node %d (cross-shard messages go through DeliverRemote)", dst))
	}
	b.inner.Deliver(dst, lat, enqueue, notify)
}

// DeliverDirect implements transport.DirectDeliverer for local destinations.
func (b *Backend) DeliverDirect(dst int, notify func()) {
	b.inner.DeliverDirect(dst, notify)
}

// After implements transport.Backend for local nodes.
func (b *Backend) After(node int, d time.Duration, fn func()) {
	if !b.IsLocal(node) {
		panic(fmt.Sprintf("netlive: After on remote node %d", node))
	}
	b.inner.After(node, d, fn)
}

// Run implements transport.Backend: execute the local shard, then tear the
// process mesh down. The parent additionally reaps its children and
// surfaces their exit status.
func (b *Backend) Run() error {
	if b.ln != nil {
		go b.acceptLoop()
	}
	b.shmStart()
	err := b.inner.Run()
	if b.shards > 1 && b.shard != 0 {
		// Final stats report: every local proc has finished, so the snapshot
		// covers the whole run, and the writer queue is drained before close —
		// the frame reaches the parent before this process exits.
		b.sendStats(kStatsLast)
	}
	if b.shards > 1 && b.shard == 0 {
		b.waitChildren()
		b.waitStats()
	}
	b.shutdownSockets()
	if lerr := b.inner.Err(); lerr != nil {
		b.addErr(lerr)
	}
	if err != nil {
		return err
	}
	return b.Err()
}

// waitChildren reaps the re-exec'd workers, bounded by the watchdog.
func (b *Backend) waitChildren() {
	deadline := b.opts.Live.Watchdog
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	for i, cmd := range b.children {
		c := cmd
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case werr := <-done:
			if werr != nil {
				b.addErr(fmt.Errorf("netlive: shard %d exited: %w", i+1, werr))
			}
		case <-time.After(deadline):
			_ = c.Process.Kill()
			b.addErr(fmt.Errorf("netlive: shard %d did not exit within %v; killed", i+1, deadline))
		}
	}
}

// shutdownSockets tears down the shm ring plane, then closes writers,
// accepted connections, and the listener, and removes the rendezvous dir on
// the parent that created it. It runs on every exit path — a stalled run's
// janitor included — so a wedged machine leaks neither ring mappings nor
// reader/consumer goroutines.
func (b *Backend) shutdownSockets() {
	b.shmShutdown()
	// Bounded flush before closing: frames queued during teardown (the
	// quiesce broadcast, doorbells, final stats) should reach the wire, but
	// a dead peer must not wedge the janitor.
	flushT := b.opts.DialTimeout
	if flushT > 2*time.Second {
		flushT = 2 * time.Second
	}
	for _, p := range b.peers {
		if p != nil {
			p.flush(flushT)
		}
	}
	for _, p := range b.peers {
		if p != nil {
			p.close()
		}
	}
	if b.ln != nil {
		_ = b.ln.Close()
	}
	b.errMu.Lock()
	b.sockClosed = true
	conns := b.conns
	b.conns = nil
	b.errMu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	b.readers.Wait()
	if b.ownsDir {
		_ = os.RemoveAll(b.dir)
	}
}

// Err returns the accumulated lifecycle errors (child exits, wire faults),
// or nil.
func (b *Backend) Err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return errors.Join(b.errs...)
}

func (b *Backend) addErr(err error) {
	b.errMu.Lock()
	b.errs = append(b.errs, err)
	b.errMu.Unlock()
}

// --- transport.Topology -----------------------------------------------------

// NumShards implements transport.Topology.
func (b *Backend) NumShards() int { return b.shards }

// Shard implements transport.Topology.
func (b *Backend) Shard() int { return b.shard }

func (b *Backend) shardOf(node int) int { return node / b.nps }

// IsLocal implements transport.Topology.
func (b *Backend) IsLocal(node int) bool { return node >= b.lo && node < b.hi }

// LocalNodes implements transport.Topology.
func (b *Backend) LocalNodes() []int {
	nodes := make([]int, 0, b.hi-b.lo)
	for i := b.lo; i < b.hi; i++ {
		nodes = append(nodes, i)
	}
	return nodes
}

// LocalQuiesced implements transport.Topology: record the callback, tell the
// parent this shard's programs are done, and fire once every shard is.
func (b *Backend) LocalQuiesced(fn func()) {
	b.q.Lock()
	b.q.fn = fn
	b.q.localDone = true
	b.q.Unlock()
	if b.shards == 1 {
		b.fireQuiesce()
		return
	}
	if b.shard == 0 {
		b.shardDone(0)
		return
	}
	f := b.frameBuf(4)
	binary.LittleEndian.PutUint32(f.Bytes(), uint32(b.shard))
	b.peers[0].push(outFrame{kind: kMainsDone, buf: f})
}

// shardDone (parent only) counts quiesced shards; on the last one it
// broadcasts kAllDone and quiesces locally.
func (b *Backend) shardDone(shard int) {
	b.q.Lock()
	b.q.done[shard] = true
	all := len(b.q.done) == b.shards
	b.q.Unlock()
	if !all {
		return
	}
	for _, p := range b.peers {
		if p != nil {
			p.push(outFrame{kind: kAllDone})
		}
	}
	b.fireQuiesce()
}

// fireQuiesce runs the quiesce callback exactly once.
func (b *Backend) fireQuiesce() {
	b.q.Lock()
	fn := b.q.fn
	fired := b.q.fired
	b.q.fired = fn != nil
	b.q.Unlock()
	if fn != nil && !fired {
		fn()
	}
}

// --- transport.ShardBackend -------------------------------------------------

// SetRemoteHandler implements transport.ShardBackend.
func (b *Backend) SetRemoteHandler(fn func(src, dst, size int, payload []byte) error) {
	b.remote.Store(fn)
}

// DeliverRemote implements transport.ShardBackend: frame the encoded packet
// and queue it on the destination shard's writer. Ownership of payload
// transfers here; the writer releases it after the bytes are on the wire.
func (b *Backend) DeliverRemote(src, dst, size int, payload *wire.Buf) {
	p := b.peers[b.shardOf(dst)]
	if p == nil {
		panic(fmt.Sprintf("netlive: DeliverRemote to local node %d", dst))
	}
	p.push(outFrame{kind: kPacket, src: src, dst: dst, size: size, buf: payload})
}

// frameBuf returns a pooled buffer for a control frame body.
func (b *Backend) frameBuf(n int) *wire.Buf { return wire.Get(n) }

// --- transport.MetricsSource ------------------------------------------------

// NodeMetrics implements transport.MetricsSource: the inner live backend's
// per-node registry for local nodes, nil for nodes of other shards.
func (b *Backend) NodeMetrics(node int) *metrics.Registry {
	if !b.IsLocal(node) {
		return nil
	}
	return b.inner.NodeMetrics(node)
}

// MetricsSnapshot implements transport.MetricsSource: this shard's local
// nodes merged with the shard's message-plane registry.
func (b *Backend) MetricsSnapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, b.hi-b.lo+1)
	snaps = append(snaps, b.met.Snapshot())
	for i := b.lo; i < b.hi; i++ {
		snaps = append(snaps, b.inner.NodeMetrics(i).Snapshot())
	}
	return metrics.Merge(snaps...)
}

// --- transport.StatsPlane ---------------------------------------------------

// SetStatsProvider implements transport.StatsPlane.
func (b *Backend) SetStatsProvider(fn func() []byte) { b.statsProv.Store(fn) }

// PeerStats implements transport.StatsPlane: the latest kStats payload from
// each worker shard (parent only; complete after Run).
func (b *Backend) PeerStats() map[int][]byte {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	out := make(map[int][]byte, len(b.peerStats))
	for s, p := range b.peerStats {
		out[s] = p
	}
	return out
}

// RequestStats implements transport.StatsPlane: ask every worker shard to
// report now. Safe mid-run — accounting and metrics are atomic on the worker.
func (b *Backend) RequestStats() {
	if b.shard != 0 {
		return
	}
	for _, p := range b.peers {
		if p != nil {
			p.push(outFrame{kind: kStatsReq})
		}
	}
}

// sendStats (workers) serializes the local stats payload and ships it to the
// parent as a kind frame: kStats for a mid-run sample, kStatsLast for the
// final report. No-op before the machine installs a provider.
func (b *Backend) sendStats(kind frameKind) {
	prov, _ := b.statsProv.Load().(func() []byte)
	if prov == nil || b.shard == 0 || b.peers == nil {
		return
	}
	// Drain the peer writers first: frames a proc queued just before
	// quiescing may still be sitting in a ring, and a snapshot taken now
	// would under-count net.frames.out against what provably reached the
	// peers. Bounded, so a dead connection cannot wedge the report.
	for _, p := range b.peers {
		if p != nil {
			p.flush(b.opts.DialTimeout)
		}
	}
	payload := prov()
	f := b.frameBuf(4 + len(payload))
	binary.LittleEndian.PutUint32(f.Bytes(), uint32(b.shard))
	copy(f.Bytes()[4:], payload)
	b.peers[0].push(outFrame{kind: kind, buf: f})
	// Bound the wait so a dead parent cannot wedge the worker's exit; the
	// frame is almost always already on the wire.
	b.peers[0].flush(b.opts.DialTimeout)
}

// storeStats (parent) records a worker's stats payload. The frame body is
// valid only during dispatch, so the payload is copied out. A mid-run sample
// that arrives after the final report is dropped: the final one covers the
// whole run.
func (b *Backend) storeStats(shard int, payload []byte, final bool) {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	if b.peerFinal[shard] && !final {
		return
	}
	b.peerStats[shard] = append([]byte(nil), payload...)
	if final {
		b.peerFinal[shard] = true
	}
}

// waitStats (parent) waits for every worker shard's final stats report
// before the sockets come down. A mid-run sample (RequestStats) does not
// count: only kStatsLast is sent after the worker's procs finished. Workers
// flush the frame before exiting, so by the time waitChildren has reaped
// them the bytes are at worst sitting in the parent's socket buffer; this
// wait gives the reader goroutines time to dispatch them. A missing report
// after the timeout is a lifecycle error (and ClusterStats will refuse to
// fabricate totals when no payload arrived at all).
func (b *Backend) waitStats() {
	deadline := time.Now().Add(b.opts.DialTimeout)
	for {
		b.statsMu.Lock()
		got := len(b.peerFinal)
		b.statsMu.Unlock()
		if got >= b.shards-1 {
			return
		}
		if time.Now().After(deadline) {
			b.addErr(fmt.Errorf("netlive: final stats from only %d of %d worker shards within %v",
				got, b.shards-1, b.opts.DialTimeout))
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// --- reading ----------------------------------------------------------------

// acceptLoop admits peer connections and spawns a reader for each.
func (b *Backend) acceptLoop() {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.errMu.Lock()
		if b.sockClosed {
			// Shutdown won the race: this connection was accepted after the
			// teardown snapshot, so nobody else would ever close it.
			b.errMu.Unlock()
			_ = conn.Close()
			return
		}
		b.conns = append(b.conns, conn)
		b.readers.Add(1)
		b.errMu.Unlock()
		go b.readLoop(conn)
	}
}

// readLoop reads one peer connection until it ends. A stream that breaks the
// frame rules is reported through Err and its connection closed.
func (b *Backend) readLoop(conn net.Conn) {
	defer b.readers.Done()
	if err := b.readFrames(conn); err != nil {
		b.addErr(err)
		_ = conn.Close()
	}
}

// readFrames decodes, validates, and dispatches the frames of one peer
// stream — the single choke point every socket-borne byte passes. It reads
// through a fixed-size buffer, so one read syscall brings in many frames; a
// body that fits the buffer is dispatched in place from the buffered bytes
// (the same no-retain contract the shm consumer gives remoteArrival), a
// larger one is read into a pooled buffer. Handlers run synchronously here,
// which preserves the sender's frame order.
//
// The stream ending — EOF, also in the middle of a frame, or the connection
// closed or reset by either side's teardown — returns nil; the partial frame
// is not dispatched. A frame that breaks the rules (length over maxFrameLen,
// unknown kind, body shorter than its kind's minimum, node or shard ids out
// of range, a packet for a node of another shard) returns an error before
// anything is allocated or dispatched for it.
func (b *Backend) readFrames(r io.Reader) error {
	br := bufio.NewReaderSize(r, readBufSize)
	for {
		hdr, err := br.Peek(frameHdrLen)
		if err != nil {
			return b.readErr(err)
		}
		n := binary.LittleEndian.Uint32(hdr)
		kind := frameKind(hdr[4])
		least, ok := minBody(kind)
		switch {
		case !ok:
			return b.badFrame("unknown kind %d", kind)
		case n > maxFrameLen:
			return b.badFrame("kind %d length %d over the %d-byte limit", kind, n, maxFrameLen)
		case n < uint32(least):
			return b.badFrame("kind %d body of %d bytes, want at least %d", kind, n, least)
		}
		_, _ = br.Discard(frameHdrLen)
		var body []byte
		var buf *wire.Buf
		if n <= readBufSize {
			if body, err = br.Peek(int(n)); err != nil {
				return b.readErr(err)
			}
		} else {
			buf = wire.Get(int(n))
			body = buf.Bytes()
			if _, err = io.ReadFull(br, body); err != nil {
				buf.Release()
				return b.readErr(err)
			}
		}
		if met := b.met; met != nil {
			met.Add(metrics.CtrFramesIn, 1)
			met.Add(metrics.CtrBytesIn, int64(frameHdrLen+n))
		}
		err = b.dispatch(kind, body)
		if buf != nil {
			buf.Release()
		} else {
			_, _ = br.Discard(int(n))
		}
		if err != nil {
			return err
		}
	}
}

// dispatch runs one validated-length frame. body is valid only for the
// call.
func (b *Backend) dispatch(kind frameKind, body []byte) error {
	switch kind {
	case kPacket:
		src := binary.LittleEndian.Uint32(body)
		dst := binary.LittleEndian.Uint32(body[4:])
		size := binary.LittleEndian.Uint32(body[8:])
		if src >= uint32(b.n) {
			return b.badFrame("packet src %d out of range [0,%d)", src, b.n)
		}
		if dst < uint32(b.lo) || dst >= uint32(b.hi) {
			return b.badFrame("packet dst %d not local (nodes [%d,%d))", dst, b.lo, b.hi)
		}
		remote, _ := b.remote.Load().(func(src, dst, size int, payload []byte) error)
		if remote == nil {
			panic("netlive: packet frame before the machine installed its remote handler")
		}
		if err := remote(int(src), int(dst), int(size), body[packetHdrLen:]); err != nil {
			return b.badFrame("packet %d->%d: %v", src, dst, err)
		}
	case kMainsDone:
		s, err := b.shardID(body)
		if err != nil {
			return err
		}
		b.shardDone(s)
	case kAllDone:
		b.fireQuiesce()
	case kStats, kStatsLast:
		s, err := b.shardID(body)
		if err != nil {
			return err
		}
		b.storeStats(s, body[4:], kind == kStatsLast)
	case kStatsReq:
		b.sendStats(kStats)
	case kDoorbell:
		s, err := b.shardID(body)
		if err != nil {
			return err
		}
		b.shmWake(s)
	default:
		return b.badFrame("unknown kind %d", kind)
	}
	return nil
}

// shardID decodes the u32 shard id leading a control frame body.
func (b *Backend) shardID(body []byte) (int, error) {
	s := binary.LittleEndian.Uint32(body)
	if s >= uint32(b.shards) {
		return 0, b.badFrame("shard id %d out of range [0,%d)", s, b.shards)
	}
	return int(s), nil
}

// badFrame is the error for a frame that breaks the frame rules.
func (b *Backend) badFrame(format string, args ...any) error {
	return fmt.Errorf("netlive: shard %d: bad frame from peer: %s", b.shard, fmt.Sprintf(format, args...))
}

// readErr maps a read failure to readFrames' result: nil when the stream
// just ended (see isClosedErr), else the wrapped error.
func (b *Backend) readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF || isClosedErr(err) {
		return nil
	}
	return fmt.Errorf("netlive: shard %d read: %w", b.shard, err)
}

// isClosedErr reports an I/O error that means the connection is gone rather
// than broken: closed locally by teardown, or hung up (EPIPE) or reset
// (ECONNRESET, a close with unread data) by a peer tearing down. A peer that
// dies instead surfaces through its exit status and the watchdog.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET)
}

// --- the per-peer writer ----------------------------------------------------

// outFrame is one queued wire frame. buf (optional) is the body beyond the
// packet header; ownership rides with the frame.
type outFrame struct {
	kind           frameKind
	src, dst, size int
	buf            *wire.Buf
	at             time.Duration // push time (backend clock), for writer-stall metrics
}

// bodyLen is the frame's body length on the wire.
func (f *outFrame) bodyLen() int {
	n := 0
	if f.kind == kPacket {
		n = packetHdrLen
	}
	if f.buf != nil {
		n += f.buf.Len()
	}
	return n
}

// putHeader encodes the frame prefix and, for a packet, its src/dst/size
// header into dst, returning the bytes written (at most
// frameHdrLen+packetHdrLen).
func (f *outFrame) putHeader(dst []byte) int {
	binary.LittleEndian.PutUint32(dst, uint32(f.bodyLen()))
	dst[4] = byte(f.kind)
	if f.kind != kPacket {
		return frameHdrLen
	}
	binary.LittleEndian.PutUint32(dst[5:], uint32(f.src))
	binary.LittleEndian.PutUint32(dst[9:], uint32(f.dst))
	binary.LittleEndian.PutUint32(dst[13:], uint32(f.size))
	return frameHdrLen + packetHdrLen
}

// peer owns the connection to one remote shard: an unbounded ring of frames
// drained by a single writer goroutine, so senders never block on the socket
// and per-sender order is preserved. The connection is dialed lazily on the
// first frame, retrying while the peer's listener comes up.
type peer struct {
	b     *Backend
	shard int

	mu     sync.Mutex
	cond   *sync.Cond          //mpmdvet:cond mu
	q      wire.Ring[outFrame] //mpmdvet:guard mu
	closed bool                //mpmdvet:guard mu

	started bool //mpmdvet:guard mu

	// queued counts frames ever pushed; sent counts frames the writer has
	// fully put on the wire (or dropped after a connection failure). flush
	// waits for them to meet — how a worker guarantees its final kStats frame
	// is out before the process exits.
	queued atomic.Int64
	sent   atomic.Int64
}

func newPeer(b *Backend, shard int) *peer {
	p := &peer{b: b, shard: shard}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// push queues a frame (never blocks) and lazily starts the writer. A frame
// over maxFrameLen is refused — reported through Err and dropped — since
// every reader would reject it.
//
//mpmd:coldpath its only allocation is the one-time lazy start of the per-peer writer goroutine
func (p *peer) push(f outFrame) {
	if n := f.bodyLen(); n > maxFrameLen {
		p.b.addErr(fmt.Errorf("netlive: frame of %d bytes to shard %d over the %d-byte limit; dropped", n, p.shard, maxFrameLen))
		f.buf.Release()
		return
	}
	f.at = p.b.inner.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if f.buf != nil {
			f.buf.Release()
		}
		return
	}
	p.q.Push(f)
	depth := p.q.Len()
	if !p.started {
		p.started = true
		go p.writeLoop()
	}
	p.queued.Add(1)
	p.mu.Unlock()
	if met := p.b.met; met != nil {
		met.Set(metrics.GgePeerRingDepth, int64(depth))
	}
	p.cond.Signal()
}

// flush waits (bounded) until every frame queued so far is on the wire —
// the write carrying its batch has returned. Only meaningful while the
// queue is still open.
func (p *peer) flush(timeout time.Duration) bool {
	want := p.queued.Load()
	deadline := time.Now().Add(timeout)
	for p.sent.Load() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// close shuts the queue; the writer exits after draining.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// dial connects to the peer shard, waiting for its socket to appear.
func (p *peer) dial() (net.Conn, error) {
	path := p.b.sockPath(p.shard)
	deadline := time.Now().Add(p.b.opts.DialTimeout)
	for {
		conn, err := net.Dial("unix", path)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("netlive: shard %d unreachable at %s: %w", p.shard, path, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writeLoop dials the peer and drains the frame ring onto the connection.
func (p *peer) writeLoop() {
	conn, err := p.dial()
	if err != nil {
		p.b.addErr(err)
		p.drainAndDrop()
		return
	}
	defer conn.Close()
	p.writeFrames(conn)
}

// writeFrames drains the frame ring onto w one batch per wake: every frame
// queued at the wake, up to writeBatchCap bytes, goes out in a single write.
// The bodies are released, and sent advanced, only after that write
// returns, so flush keeps meaning "on the wire". Returns when the ring is
// closed and drained, or after a write failure (the rest is dropped).
func (p *peer) writeFrames(w io.Writer) {
	bw := &batchWriter{buf: make([]byte, writeBatchCap+frameHdrLen+packetHdrLen)}
	for p.popBatch(bw) {
		met := p.b.met
		if met != nil {
			now := p.b.inner.Now()
			for i := range bw.frames {
				met.ObserveDur(metrics.HstWriterStall, now-bw.frames[i].at)
			}
		}
		n, werr := bw.write(w)
		frames := len(bw.frames)
		bw.release()
		p.sent.Add(int64(frames))
		if werr != nil {
			if !isClosedErr(werr) {
				p.b.addErr(fmt.Errorf("netlive: write to shard %d: %w", p.shard, werr))
			}
			p.drainAndDrop()
			return
		}
		if met != nil {
			met.Add(metrics.CtrWrites, 1)
			met.Add(metrics.CtrFramesOut, int64(frames))
			met.Add(metrics.CtrBytesOut, int64(n)) // total wire bytes: length prefixes + kinds + bodies
		}
	}
}

// popBatch waits for queued frames and moves the next batch into bw: frames
// in queue order while their whole encoding fits writeBatchCap, plus the
// first frame that does not fit, which ends the batch. False once the ring
// is closed and drained.
func (p *peer) popBatch(bw *batchWriter) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.q.Len() == 0 && !p.closed {
		p.cond.Wait()
	}
	used := 0
	for {
		f, ok := p.q.Pop()
		if !ok {
			break
		}
		bw.frames = append(bw.frames, f)
		used += frameHdrLen + f.bodyLen()
		if used > writeBatchCap {
			bw.tail = true
			break
		}
	}
	return len(bw.frames) > 0
}

// batchWriter is the writer goroutine's batch state: the frames popped for
// one write, the reusable coalescing buffer they are encoded into, and the
// two-element iovec for a batch whose last (tail) frame did not fit — its
// header is encoded with the rest, its body written from its own buffer.
type batchWriter struct {
	frames []outFrame
	tail   bool
	buf    []byte
	vec    [2][]byte
	bufs   net.Buffers
}

// write encodes the batch — byte for byte the frames' individual encodings,
// concatenated — and puts it on w with one Write, or one writev when the
// batch has a tail body. Returns the bytes written.
func (bw *batchWriter) write(w io.Writer) (int, error) {
	n := 0
	last := len(bw.frames) - 1
	for i := range bw.frames {
		f := &bw.frames[i]
		n += f.putHeader(bw.buf[n:])
		if f.buf != nil && !(bw.tail && i == last) {
			n += copy(bw.buf[n:], f.buf.Bytes())
		}
	}
	if t := bw.frames[last].buf; bw.tail && t != nil {
		bw.vec = [2][]byte{bw.buf[:n], t.Bytes()}
		bw.bufs = bw.vec[:]
		m, err := bw.bufs.WriteTo(w)
		return int(m), err
	}
	return w.Write(bw.buf[:n])
}

// release returns the batch's bodies to their pools and empties it.
func (bw *batchWriter) release() {
	for i := range bw.frames {
		if b := bw.frames[i].buf; b != nil {
			b.Release()
		}
	}
	clear(bw.frames)
	bw.frames = bw.frames[:0]
	bw.tail = false
	bw.vec = [2][]byte{}
}

// drainAndDrop releases queued frames after a connection failure so buffer
// pools are not starved.
func (p *peer) drainAndDrop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		f, ok := p.q.Pop()
		if !ok {
			if p.closed {
				return
			}
			p.cond.Wait()
			continue
		}
		if f.buf != nil {
			f.buf.Release()
		}
		p.sent.Add(1)
	}
}
