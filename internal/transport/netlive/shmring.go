//go:build unix

// Shared-memory shard rings: the zero-syscall fast path for co-resident
// shards. Each ordered shard pair (i, j) gets one mmap'd single-producer
// single-consumer byte ring per direction, created by the parent in the
// rendezvous directory before re-exec and attached by every shard at New.
// A cross-shard packet is marshaled by the sender directly into a ring
// slot (the slot-backed wire.Buf), published with an atomic cursor store,
// and consumed in place by the receiving shard's ring reader — the same
// length-delimited AM frame bytes the socket path carries, minus the
// write and read syscalls.
//
// The protocol is futex-free: a waiting consumer spins a bounded number of
// yields, then publishes a "parked" flag in the shared header and blocks;
// a producer that observes the flag (and wins the clear) sends a kDoorbell
// control frame over the existing peer socket. Under sustained load the
// flag is never set and no socket traffic happens at all.
package netlive

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Ring file layout: a 256-byte header, then capB data bytes. The cursor
// fields sit on separate cache lines so producer and consumer do not
// false-share. tail and head are free-running byte counts (never wrapped),
// so full/empty are unambiguous: used = tail - head.
const (
	shmMagic   = 0x474e49524d48531 // "SHMRING" as a number
	shmVersion = 1
	shmHdrSize = 256

	offMagic   = 0
	offVersion = 8
	offCapB    = 16
	offTail    = 64 // producer cursor (free-running bytes)
	offHead    = 128
	offParked  = 192

	// recHdrLen is the per-record header: u32 record length (header
	// included, padding excluded), u32 src, u32 dst, u32 size. Records are
	// 8-byte aligned and never straddle the wrap point; a wrapMarker in the
	// length field means "skip to offset 0".
	recHdrLen  = 16
	wrapMarker = ^uint32(0)

	// defaultRingBytes / minRingBytes bound the data area. The default
	// comfortably holds hundreds of in-flight 1 KiB bulk frames; the floor
	// keeps the contiguity invariant (one record <= a quarter of the ring)
	// satisfiable for every pooled frame class tests actually push through.
	defaultRingBytes = 1 << 20
	minRingBytes     = 4 << 10

	// shmSpinIters bounds the consumer's first spin stage: in-process yields
	// (runtime.Gosched), which cost almost nothing and catch a producer
	// sharing this Go scheduler (the in-process loopback rigs).
	shmSpinIters = 8
	// shmYieldIters bounds the second stage: OS-level yields (sched_yield),
	// which hand the core to the peer shard's *process*. On few-core hosts
	// this is what makes the ring pay off — a sustained cross-process
	// request/reply stream turns into cheap scheduler ping-pong instead of a
	// doorbell (socket round trip) per frame. Each iteration also yields
	// in-process so delivery workers and handlers keep running. Only after
	// both stages come up dry does the consumer park and wait for a doorbell.
	shmYieldIters = 4096
)

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// shmRing is one mapped directed ring. The file descriptor is closed right
// after mapping (the mapping keeps the pages alive); unmap is the only
// teardown.
type shmRing struct {
	raw    []byte
	data   []byte
	capB   uint64
	tail   *atomic.Uint64 //mpmdvet:shared — producer cursor in the mapped header, read by the peer process
	head   *atomic.Uint64 //mpmdvet:shared — consumer cursor in the mapped header
	parked *atomic.Uint32 //mpmdvet:shared — consumer park flag, CAS'd by producers
}

func mapRing(raw []byte) *shmRing {
	return &shmRing{
		raw:    raw,
		data:   raw[shmHdrSize:],
		capB:   (*atomic.Uint64)(unsafe.Pointer(&raw[offCapB])).Load(),
		tail:   (*atomic.Uint64)(unsafe.Pointer(&raw[offTail])),
		head:   (*atomic.Uint64)(unsafe.Pointer(&raw[offHead])),
		parked: (*atomic.Uint32)(unsafe.Pointer(&raw[offParked])),
	}
}

func (r *shmRing) unmap() {
	if r.raw != nil {
		_ = syscall.Munmap(r.raw)
		r.raw = nil
	}
}

// shmPrefaultSink defeats dead-load elimination in prefault.
var shmPrefaultSink byte

// prefault walks every page of the mapping once so first-touch faults happen
// at setup, not inside the measured traffic. The producing shard write-touches
// its outbound rings — safe because the ring is strictly SPSC, the peer never
// stores into the data area, and nothing below the published tail is visible
// yet — while inbound rings get read faults only: the consumer never stores
// into the data area either, so a read mapping is all its hot path needs.
func (r *shmRing) prefault(write bool) {
	const page = 4096
	for off := 0; off < len(r.raw); off += page {
		if write {
			r.raw[off] |= 0
		} else {
			shmPrefaultSink += r.raw[off]
		}
	}
}

// createRingFile creates and initializes one ring file. The magic is
// published last (atomically), so an attacher polling the file never sees
// a half-initialized header.
func createRingFile(path string, dataBytes uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	defer f.Close()
	size := shmHdrSize + int(dataBytes)
	if err := f.Truncate(int64(size)); err != nil {
		return err
	}
	raw, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	(*atomic.Uint64)(unsafe.Pointer(&raw[offVersion])).Store(shmVersion)
	(*atomic.Uint64)(unsafe.Pointer(&raw[offCapB])).Store(dataBytes)
	(*atomic.Uint64)(unsafe.Pointer(&raw[offMagic])).Store(shmMagic)
	return syscall.Munmap(raw)
}

// attachRing opens and maps one ring file, retrying until the deadline: in
// the re-exec harness the parent creates every ring before spawning, so a
// child's attach succeeds on the first try; externally launched workers may
// briefly poll while the parent comes up.
func attachRing(path string, deadline time.Time) (*shmRing, error) {
	for {
		r, err := tryAttach(path)
		if err == nil {
			return r, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("netlive: attach shm ring %s: %w", path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func tryAttach(path string) (*shmRing, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < shmHdrSize {
		return nil, fmt.Errorf("short file (%d bytes)", st.Size())
	}
	raw, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	if (*atomic.Uint64)(unsafe.Pointer(&raw[offMagic])).Load() != shmMagic {
		_ = syscall.Munmap(raw)
		return nil, fmt.Errorf("not initialized yet")
	}
	if v := (*atomic.Uint64)(unsafe.Pointer(&raw[offVersion])).Load(); v != shmVersion {
		_ = syscall.Munmap(raw)
		return nil, fmt.Errorf("ring version %d, want %d", v, shmVersion)
	}
	r := mapRing(raw)
	if uint64(st.Size()) != shmHdrSize+r.capB || r.capB%8 != 0 || r.capB == 0 {
		_ = syscall.Munmap(raw)
		return nil, fmt.Errorf("corrupt ring geometry (file %d, cap %d)", st.Size(), r.capB)
	}
	return r, nil
}

// shmTx is the producer end of one outbound ring. mu serializes this
// shard's many sender goroutines onto the single-producer cursor; the
// consumer is the peer process, reached only through the shared atomics.
type shmTx struct {
	r    *shmRing
	peer int

	mu     sync.Mutex
	tail   uint64    //mpmdvet:guard mu — local copy of the published producer cursor
	slot   *wire.Buf //mpmdvet:guard mu — reusable slot-backed marshal target
	closed bool      //mpmdvet:guard mu

	// quit mirrors closed without the lock: reserve's full-ring wait polls
	// it so teardown is never blocked behind a sender spinning on a ring
	// whose consumer is already gone.
	quit atomic.Bool
	// full latches after a reserve timeout (no consumer progress): the ring
	// is abandoned and every later frame takes the socket path.
	full atomic.Bool
}

// shmRx is the consumer end of one inbound ring.
type shmRx struct {
	r    *shmRing
	peer int
	wake chan struct{} // doorbell, capacity 1
}

// shmPlane is a backend's shared-memory transport state: one tx and one rx
// per peer shard (nil at the self index).
type shmPlane struct {
	tx     []*shmTx
	rx     []*shmRx
	stop   atomic.Bool
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func (p *shmPlane) closeRings() {
	for _, tx := range p.tx {
		if tx != nil {
			tx.r.unmap()
		}
	}
	for _, rx := range p.rx {
		if rx != nil {
			rx.r.unmap()
		}
	}
}

func (b *Backend) ringPath(from, to int) string {
	return fmt.Sprintf("%s/ring-%d-%d.shm", b.dir, from, to)
}

// shmSetup creates (parent) and attaches (every shard) the ring mesh. When
// the fast path is enabled, the rings are required: every shard attaches
// every ring or construction fails, so a pair can never disagree about
// whether a direction is ring- or socket-carried (which would reorder or
// strand frames). Falling back to sockets is a configuration decision
// (DisableShm, the MPMD_NETLIVE_NOSHM env, an unsupported OS, or — when
// shards stop being co-resident — the absence of a ring mesh), never a
// silent per-pair race.
func (b *Backend) shmSetup() error {
	if b.shards <= 1 || b.opts.DisableShm || os.Getenv(EnvNoShm) != "" {
		return nil
	}
	ringBytes := b.opts.ShmRingBytes
	if ringBytes <= 0 {
		ringBytes = defaultRingBytes
	}
	if ringBytes < minRingBytes {
		ringBytes = minRingBytes
	}
	ringBytes = int(align8(uint64(ringBytes)))
	if b.shard == 0 {
		for i := 0; i < b.shards; i++ {
			for j := 0; j < b.shards; j++ {
				if i == j {
					continue
				}
				if err := createRingFile(b.ringPath(i, j), uint64(ringBytes)); err != nil {
					return fmt.Errorf("netlive: create shm ring %d->%d: %w", i, j, err)
				}
			}
		}
	}
	p := &shmPlane{
		tx:     make([]*shmTx, b.shards),
		rx:     make([]*shmRx, b.shards),
		stopCh: make(chan struct{}),
	}
	deadline := time.Now().Add(b.opts.DialTimeout)
	for s := 0; s < b.shards; s++ {
		if s == b.shard {
			continue
		}
		out, err := attachRing(b.ringPath(b.shard, s), deadline)
		if err != nil {
			p.closeRings()
			return err
		}
		p.tx[s] = &shmTx{r: out, peer: s, slot: wire.NewSlot()}
		in, err := attachRing(b.ringPath(s, b.shard), deadline)
		if err != nil {
			p.closeRings()
			return err
		}
		p.rx[s] = &shmRx{r: in, peer: s, wake: make(chan struct{}, 1)}
		out.prefault(true)
		in.prefault(false)
	}
	b.shm = p
	return nil
}

// ShmActive reports whether the shared-memory fast path is carrying this
// backend's cross-shard packets (false on loopback, when disabled, or on
// platforms without it).
func (b *Backend) ShmActive() bool { return b.shm != nil }

// shmStart launches one consumer goroutine per inbound ring. Deferred to
// Run for the same happens-before reason as acceptLoop: no frame may
// dispatch into a half-built machine.
func (b *Backend) shmStart() {
	p := b.shm
	if p == nil {
		return
	}
	for _, rx := range p.rx {
		if rx != nil {
			p.wg.Add(1)
			go b.shmReadLoop(rx)
		}
	}
}

// shmShutdown stops the consumers, closes the producers behind their locks
// (the lock round-trip is the barrier that no in-flight send still touches
// the mapping), then unmaps every ring. Runs on every teardown path —
// including a stalled run's — so a wedged machine leaks neither goroutines
// nor mappings; a straggler proc that sends afterwards gets the socket
// path's closed-peer drop semantics instead of a fault on unmapped memory.
func (b *Backend) shmShutdown() {
	p := b.shm
	if p == nil || !p.stop.CompareAndSwap(false, true) {
		return
	}
	close(p.stopCh)
	for _, tx := range p.tx {
		if tx == nil {
			continue
		}
		tx.quit.Store(true)
		tx.mu.Lock()
		tx.closed = true
		tx.mu.Unlock()
	}
	p.wg.Wait()
	p.closeRings()
}

// shmWake rings a parked consumer's local doorbell (the kDoorbell frame
// handler).
func (b *Backend) shmWake(s int) {
	p := b.shm
	if p == nil || s < 0 || s >= len(p.rx) || p.rx[s] == nil {
		return
	}
	select {
	case p.rx[s].wake <- struct{}{}:
	default:
	}
}

// DeliverSlot implements transport.SlotSender: marshal the payload straight
// into the destination shard's ring. False routes the caller to the pooled
// DeliverRemote socket path.
//
//mpmd:hotpath
func (b *Backend) DeliverSlot(src, dst, size int, wp transport.FrameMarshaler) bool {
	p := b.shm
	if p == nil {
		return false
	}
	tx := p.tx[b.shardOf(dst)]
	if tx == nil {
		return false
	}
	return tx.send(b, src, dst, size, wp)
}

// send reserves a slot, marshals the payload into it through the slot-backed
// Buf, publishes the new tail, and rings the doorbell if the consumer is
// parked. The whole critical section is sender-side only — the consumer is
// coordinated purely through the shared cursors.
//
//mpmd:hotpath
func (tx *shmTx) send(b *Backend, src, dst, size int, wp transport.FrameMarshaler) bool {
	n := wp.WireLen()
	rec := align8(recHdrLen + uint64(n))
	if rec > tx.r.capB/4 || tx.full.Load() {
		// Oversize for the contiguity invariant, or the ring is abandoned.
		return false
	}
	tx.mu.Lock()
	if tx.closed {
		tx.mu.Unlock()
		return false
	}
	off, ok := tx.reserve(rec, b.opts.DialTimeout)
	if !ok {
		tx.mu.Unlock()
		b.shmRingFailed(tx)
		return false
	}
	data := tx.r.data
	binary.LittleEndian.PutUint32(data[off:], uint32(recHdrLen+uint64(n)))
	binary.LittleEndian.PutUint32(data[off+4:], uint32(src))
	binary.LittleEndian.PutUint32(data[off+8:], uint32(dst))
	binary.LittleEndian.PutUint32(data[off+12:], uint32(size))
	tx.slot.Bind(data[off+recHdrLen : off+recHdrLen+uint64(n)])
	wp.EncodeWire(tx.slot.Bytes())
	tx.slot.Release()
	tx.tail += rec
	tx.r.tail.Store(tx.tail)
	depth := tx.tail - tx.r.head.Load()
	tx.mu.Unlock()
	if met := b.met; met != nil {
		met.Add(metrics.CtrShmFramesOut, 1)
		met.Add(metrics.CtrShmBytesOut, int64(recHdrLen+uint64(n)))
		met.Set(metrics.GgeShmRingDepth, int64(depth))
	}
	// Doorbell only when the consumer has declared itself parked; the CAS
	// makes one producer win, so a parked consumer gets exactly one frame.
	// Sequential consistency of the atomics orders tail.Store before this
	// load against the consumer's parked.Store-then-tail.Load re-check, so
	// the wakeup cannot be lost.
	if tx.r.parked.Load() == 1 && tx.r.parked.CompareAndSwap(1, 0) {
		b.ringDoorbell(tx.peer)
	}
	return true
}

// reserve finds rec contiguous bytes, writing a wrap marker when the tail
// would straddle the end. Called with tx.mu held. A full ring waits for the
// consumer — briefly spinning, then sleeping in small steps bounded by
// timeout, after which the ring is declared dead (false).
//
//mpmdvet:locked tx.mu
func (tx *shmTx) reserve(rec uint64, timeout time.Duration) (uint64, bool) {
	r := tx.r
	capB := r.capB
	var deadline time.Time
	for spins := 0; ; spins++ {
		off := tx.tail % capB
		pad := uint64(0)
		if off+rec > capB {
			pad = capB - off
		}
		if tx.tail+pad+rec-r.head.Load() <= capB {
			if pad > 0 {
				binary.LittleEndian.PutUint32(r.data[off:], wrapMarker)
				tx.tail += pad
				off = 0
			}
			return off, true
		}
		if tx.quit.Load() {
			return 0, false
		}
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(timeout)
		} else if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// shmRingFailed latches a dead ring (reserve timed out or teardown raced
// the send) and records the event once.
//
//mpmd:coldpath failure latch; runs at most once per ring, after the fast path has given up on it
func (b *Backend) shmRingFailed(tx *shmTx) {
	if tx.full.CompareAndSwap(false, true) && !tx.quit.Load() {
		b.addErr(fmt.Errorf("netlive: shm ring to shard %d made no progress within %v; falling back to sockets", tx.peer, b.opts.DialTimeout))
	}
}

// shmReadLoop is the per-inbound-ring consumer: drain published records,
// dispatching each to the machine's remote-arrival handler in place, and
// wait (spin, then park) when the ring runs dry.
func (b *Backend) shmReadLoop(rx *shmRx) {
	defer b.shm.wg.Done()
	head := rx.r.head.Load()
	for {
		tail := rx.r.tail.Load()
		if tail == head {
			if !b.shmWaitData(rx, head) {
				return
			}
			continue
		}
		head = b.shmDrain(rx, head, tail)
	}
}

// shmDrain consumes records in [head, tail). The payload slice handed to
// the handler points directly into the mapped ring — valid only for the
// duration of the call, the same no-retain contract as the socket reader —
// and the head cursor is published only after the handler returns, so the
// producer cannot reuse the slot under a running handler.
//
//mpmd:hotpath
func (b *Backend) shmDrain(rx *shmRx, head, tail uint64) uint64 {
	r := rx.r
	data := r.data
	remote, _ := b.remote.Load().(func(src, dst, size int, payload []byte) error)
	frames, recBytes := int64(0), int64(0)
	for head != tail {
		off := head % r.capB
		recLen := binary.LittleEndian.Uint32(data[off:])
		if recLen == wrapMarker {
			head += r.capB - off
			r.head.Store(head)
			continue
		}
		if remote == nil {
			panic("netlive: shm packet frame before the machine installed its remote handler")
		}
		src := int(binary.LittleEndian.Uint32(data[off+4:]))
		dst := int(binary.LittleEndian.Uint32(data[off+8:]))
		size := int(binary.LittleEndian.Uint32(data[off+12:]))
		if err := remote(src, dst, size, data[off+recHdrLen:off+uint64(recLen)]); err != nil {
			b.shmBadRecord(rx, src, dst, err)
		}
		head += align8(uint64(recLen))
		r.head.Store(head)
		frames++
		recBytes += int64(recLen)
	}
	if met := b.met; met != nil {
		met.Add(metrics.CtrShmFramesIn, frames)
		met.Add(metrics.CtrShmBytesIn, recBytes)
	}
	return head
}

// shmBadRecord reports a ring record whose packet the machine's decoder
// rejected; the record is skipped. A shm ring has no connection to close,
// so the ring stays in service.
//
//mpmd:coldpath error report for a rejected record; a warm drain never reaches it
func (b *Backend) shmBadRecord(rx *shmRx, src, dst int, err error) {
	b.addErr(fmt.Errorf("netlive: shard %d: bad shm record from shard %d: packet %d->%d: %w", b.shard, rx.peer, src, dst, err))
}

// shmWaitData waits for the producer to move tail past head: a bounded
// spin of yields first, then park — publish the parked flag, re-check the
// tail (the producer's publish may have raced the flag), and block on the
// doorbell. Returns false on shutdown.
func (b *Backend) shmWaitData(rx *shmRx, head uint64) bool {
	p := b.shm
	r := rx.r
	for i := 0; i < shmSpinIters+shmYieldIters; i++ {
		if p.stop.Load() {
			return false
		}
		if r.tail.Load() != head {
			if met := b.met; met != nil {
				met.Add(metrics.CtrShmSpinWakes, 1)
			}
			return true
		}
		runtime.Gosched()
		if i >= shmSpinIters {
			osYield()
		}
	}
	// Drop any stale doorbell so the park below cannot be satisfied by a
	// wakeup for data already consumed.
	select {
	case <-rx.wake:
	default:
	}
	r.parked.Store(1)
	if r.tail.Load() != head {
		r.parked.Store(0)
		if met := b.met; met != nil {
			met.Add(metrics.CtrShmSpinWakes, 1)
		}
		return true
	}
	select {
	case <-rx.wake:
	case <-p.stopCh:
		return false
	}
	r.parked.Store(0)
	if met := b.met; met != nil {
		met.Add(metrics.CtrShmParkWakes, 1)
	}
	return true
}

// ringDoorbell wakes shard s's parked consumer of our outbound ring via a
// kDoorbell control frame on the existing peer socket — the only moment
// the fast path touches a file descriptor.
func (b *Backend) ringDoorbell(s int) {
	if met := b.met; met != nil {
		met.Add(metrics.CtrShmDoorbells, 1)
	}
	f := b.frameBuf(4)
	binary.LittleEndian.PutUint32(f.Bytes(), uint32(b.shard))
	b.peers[s].push(outFrame{kind: kDoorbell, buf: f})
}
