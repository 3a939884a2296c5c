package netlive

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// frameBackend is a socketless shard backend for driving readFrames and the
// peer writer directly. Packets readFrames dispatches are appended to *got.
func frameBackend(t testing.TB, n, nps, shard int) (*Backend, *[]gotPacket) {
	t.Helper()
	b := newLocal(n, nps, shard, Options{})
	t.Cleanup(func() { _ = b.inner.Run() })
	got := new([]gotPacket)
	b.SetRemoteHandler(func(src, dst, size int, payload []byte) error {
		*got = append(*got, gotPacket{src, dst, size, append([]byte(nil), payload...)})
		return nil
	})
	return b, got
}

// amHandlers is the handler count amFrameBackend's decoder accepts.
const amHandlers = 4

// amFrameBackend is frameBackend with the AM layer's wire decoder in the
// remote handler, as a machine built over am installs it: a packet whose
// payload is not a valid message fails the stream.
func amFrameBackend(t testing.TB, n, nps, shard int) (*Backend, *[]gotPacket) {
	b, got := frameBackend(t, n, nps, shard)
	b.SetRemoteHandler(func(src, dst, size int, payload []byte) error {
		m, err := am.DecodeWireMsg(src, dst, payload, amHandlers)
		if err != nil {
			return err
		}
		if m.PayloadBuf != nil {
			m.PayloadBuf.Release()
		}
		*got = append(*got, gotPacket{src, dst, size, append([]byte(nil), payload...)})
		return nil
	})
	return b, got
}

// amMsg is the wire form of an AM message for handler h carrying payload.
func amMsg(h am.HandlerID, payload []byte) []byte {
	m := &am.Msg{H: h, Bulk: len(payload) > 0, Payload: payload}
	b := make([]byte, m.WireLen())
	m.EncodeWire(b)
	return b
}

type gotPacket struct {
	src, dst, size int
	payload        []byte
}

// frame is one frame in the wire encoding: u32 body length, kind, body.
func frame(kind frameKind, body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = append(out, byte(kind))
	return append(out, body...)
}

// packet is a kPacket body: src, dst, size, then the payload.
func packet(src, dst, size uint32, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, src)
	out = binary.LittleEndian.AppendUint32(out, dst)
	out = binary.LittleEndian.AppendUint32(out, size)
	return append(out, payload...)
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// lenOnly is a bare frame prefix claiming n body bytes that never follow.
func lenOnly(kind frameKind, n uint32) []byte { return append(u32(n), byte(kind)) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func patterned(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

// TestReadFramesValidation feeds shard 1 of a 4-node, 2-shard machine
// (local nodes 2 and 3) well-formed, truncated, oversized, and
// out-of-range streams. A stream that just ends — also mid-frame — is a
// clean end and dispatches only its whole frames; a frame that breaks a rule
// fails the stream before it is dispatched.
func TestReadFramesValidation(t *testing.T) {
	good := frame(kPacket, packet(0, 2, 64, []byte("hi")))
	big := patterned(readBufSize+100, 3)
	cases := []struct {
		name    string
		stream  []byte
		wantErr string // substring; empty means a clean end
		packets int
	}{
		{"empty stream", nil, "", 0},
		{"one packet", good, "", 1},
		{"packets and control frames", cat(good, frame(kAllDone, nil), frame(kDoorbell, u32(0)),
			frame(kStatsReq, nil), frame(kMainsDone, u32(1)), frame(kStats, cat(u32(1), []byte("{}"))), good), "", 2},
		{"empty packet payload", frame(kPacket, packet(1, 3, 0, nil)), "", 1},
		{"body larger than the read buffer", frame(kPacket, packet(0, 2, 1, big)), "", 1},
		{"truncated header", good[:3], "", 0},
		{"truncated body", good[:len(good)-1], "", 0},
		{"whole frame then truncated", cat(good, good[:9]), "", 1},
		{"truncated large body", frame(kPacket, packet(0, 2, 1, big))[:readBufSize+50], "", 0},
		{"length over maxFrameLen", lenOnly(kPacket, maxFrameLen+1), "limit", 0},
		{"length all ones", lenOnly(kStats, 0xFFFFFFFF), "limit", 0},
		{"unknown kind 0", frame(frameKind(0), nil), "unknown kind", 0},
		{"unknown kind 200", cat(good, frame(frameKind(200), u32(1))), "unknown kind", 1},
		{"packet shorter than its header", frame(kPacket, make([]byte, packetHdrLen-1)), "at least 12", 0},
		{"doorbell without shard", frame(kDoorbell, []byte{0, 0, 0}), "at least 4", 0},
		{"mains-done without shard", frame(kMainsDone, nil), "at least 4", 0},
		{"stats without shard", frame(kStats, []byte{1}), "at least 4", 0},
		{"final stats without shard", frame(kStatsLast, nil), "at least 4", 0},
		{"packet src out of range", frame(kPacket, packet(4, 2, 0, nil)), "src 4", 0},
		{"packet src huge", frame(kPacket, packet(0xFFFFFFFF, 2, 0, nil)), "src 4294967295", 0},
		{"packet dst on another shard", frame(kPacket, packet(2, 0, 0, nil)), "dst 0 not local", 0},
		{"packet dst out of range", frame(kPacket, packet(0, 4, 0, nil)), "dst 4 not local", 0},
		{"doorbell shard out of range", frame(kDoorbell, u32(2)), "shard id 2", 0},
		{"mains-done shard out of range", cat(good, frame(kMainsDone, u32(0xFFFFFFFF))), "shard id", 1},
		{"stats shard out of range", frame(kStatsLast, cat(u32(9), []byte("{}"))), "shard id 9", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, got := frameBackend(t, 4, 2, 1)
			err := b.readFrames(bytes.NewReader(tc.stream))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("readFrames = %v, want a clean end", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("readFrames = %v, want an error containing %q", err, tc.wantErr)
			}
			if len(*got) != tc.packets {
				t.Fatalf("dispatched %d packets, want %d", len(*got), tc.packets)
			}
		})
	}
}

// TestReadFramesDispatch checks what arrives: packet fields and payload
// bytes — including a body dispatched in place from the read buffer and one
// read into a pooled buffer — and the stats plane's final-report rule.
func TestReadFramesDispatch(t *testing.T) {
	b, got := frameBackend(t, 4, 2, 0)
	small, big := patterned(1<<10, 1), patterned(readBufSize+1, 2)
	stream := cat(
		frame(kPacket, packet(2, 1, 7, small)),
		frame(kStatsLast, cat(u32(1), []byte("final"))),
		frame(kStats, cat(u32(1), []byte("late sample"))),
		frame(kPacket, packet(3, 0, 9, big)),
	)
	if err := b.readFrames(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	want := []gotPacket{{2, 1, 7, small}, {3, 0, 9, big}}
	if len(*got) != len(want) {
		t.Fatalf("got %d packets, want %d", len(*got), len(want))
	}
	for i, w := range want {
		g := (*got)[i]
		if g.src != w.src || g.dst != w.dst || g.size != w.size || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("packet %d = {%d %d %d %d bytes}, want {%d %d %d %d bytes}", i,
				g.src, g.dst, g.size, len(g.payload), w.src, w.dst, w.size, len(w.payload))
		}
	}
	if p := b.PeerStats()[1]; string(p) != "final" {
		t.Fatalf("peer stats = %q: a mid-run sample replaced the final report", p)
	}
	if in := b.met.Snapshot().Counter(metrics.CtrFramesIn); in != 4 {
		t.Fatalf("net.frames.in = %d, want 4", in)
	}
}

// TestReadFramesBadAMPayload: a packet frame that passes the frame rules but
// whose payload the AM decoder rejects — shorter than the message header, or
// for a handler that is not registered — fails the stream with a frame-rule
// error instead of panicking, and is not dispatched.
func TestReadFramesBadAMPayload(t *testing.T) {
	good := frame(kPacket, packet(0, 2, 64, amMsg(1, []byte("payload"))))
	cases := []struct {
		name    string
		stream  []byte
		wantErr string
		packets int
	}{
		{"valid message", good, "", 1},
		{"empty payload", cat(good, frame(kPacket, packet(0, 2, 0, nil))), "shorter than its 45-byte header", 1},
		{"payload one byte short", frame(kPacket, packet(0, 3, 0, amMsg(0, nil)[:44])), "shorter than its 45-byte header", 0},
		{"handler not registered", frame(kPacket, packet(1, 2, 0, amMsg(amHandlers, nil))), "handler 4, only 4 registered", 0},
		{"handler huge", frame(kPacket, packet(1, 2, 0, amMsg(0x7FFFFFFF, []byte("x")))), "handler 2147483647", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, got := amFrameBackend(t, 4, 2, 1)
			err := b.readFrames(bytes.NewReader(tc.stream))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("readFrames = %v, want a clean end", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr) ||
				!strings.Contains(err.Error(), "bad frame")):
				t.Fatalf("readFrames = %v, want a bad-frame error containing %q", err, tc.wantErr)
			}
			if len(*got) != tc.packets {
				t.Fatalf("dispatched %d packets, want %d", len(*got), tc.packets)
			}
		})
	}
}

// TestReadLoopRejectCloses: a stream that breaks the rules is reported
// through Err and its connection is closed, with no panic.
func TestReadLoopRejectCloses(t *testing.T) {
	for _, bad := range [][]byte{
		lenOnly(kPacket, maxFrameLen+1),
		frame(kPacket, packet(0, 2, 0, []byte("short"))), // rejected by the AM decoder
	} {
		b, _ := amFrameBackend(t, 4, 2, 1)
		local, remote := net.Pipe()
		b.readers.Add(1)
		go b.readLoop(local)
		if _, err := remote.Write(bad); err != nil {
			t.Fatal(err)
		}
		_ = remote.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := remote.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("peer read after a rejected frame = %v, want EOF (connection closed)", err)
		}
		b.readers.Wait()
		if err := b.Err(); err == nil || !strings.Contains(err.Error(), "bad frame") {
			t.Fatalf("Err = %v, want the rejected frame", err)
		}
	}
}

// TestReadFramesClosedMidBody: a connection closed by this side's teardown
// while a body is half read ends the stream cleanly — the read error is a
// teardown artifact, not a wire fault. Covers both the in-place and the
// pooled body read.
func TestReadFramesClosedMidBody(t *testing.T) {
	for _, body := range []int{100, readBufSize * 2} {
		b, got := frameBackend(t, 4, 2, 1)
		ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		f := frame(kPacket, packet(0, 2, 0, patterned(body, 5)))
		if _, err := w.Write(f[:len(f)/2]); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- b.readFrames(r) }()
		time.Sleep(20 * time.Millisecond) // let the reader block mid-body
		_ = r.Close()
		if err := <-done; err != nil {
			t.Fatalf("%d-byte body: readFrames after a local close mid-body = %v, want nil", body, err)
		}
		if len(*got) != 0 {
			t.Fatalf("%d-byte body: dispatched %d partial frames", body, len(*got))
		}
		_ = w.Close()
		_ = ln.Close()
	}
}

// FuzzReadFrames: no byte stream makes the reader panic, dispatch a packet
// that breaks the rules, or fail with anything but a frame-rule error.
// Packets go through the AM wire decoder, as on a real machine.
func FuzzReadFrames(f *testing.F) {
	for _, seed := range [][]byte{
		frame(kPacket, packet(0, 2, 64, amMsg(1, []byte("payload")))),
		cat(frame(kAllDone, nil), frame(kDoorbell, u32(1)), frame(kStatsLast, cat(u32(1), []byte("{}")))),
		lenOnly(kPacket, maxFrameLen+1),
		frame(kPacket, packet(0, 1, 0, nil)),
		frame(kPacket, packet(0, 2, 64, []byte("payload"))),
		frame(kPacket, packet(0, 3, 0, amMsg(amHandlers, nil))),
	} {
		f.Add(seed)
	}
	b, got := amFrameBackend(f, 4, 2, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		*got = (*got)[:0]
		err := b.readFrames(bytes.NewReader(data))
		if err != nil && !strings.Contains(err.Error(), "bad frame") {
			t.Fatalf("readFrames = %v, want nil or a frame-rule error", err)
		}
		consumed := 0
		for _, p := range *got {
			if p.src < 0 || p.src >= 4 || p.dst < 2 || p.dst >= 4 {
				t.Fatalf("dispatched packet src=%d dst=%d outside the rules", p.src, p.dst)
			}
			consumed += frameHdrLen + packetHdrLen + len(p.payload)
		}
		if consumed > len(data) {
			t.Fatalf("dispatched %d bytes of packets from a %d-byte stream", consumed, len(data))
		}
	})
}

// driven is a peer whose writer the test runs itself, through writeFrames,
// instead of the lazily started goroutine dialing the peer socket.
func driven(b *Backend, shard int) *peer {
	p := newPeer(b, shard)
	p.mu.Lock()
	p.started = true
	p.mu.Unlock()
	return p
}

// encodeEach is the per-frame wire encoding — the frame prefix, the packet
// header for packets, then the body — that a batch must reproduce byte for
// byte.
func encodeEach(frames []outFrame) []byte {
	var out []byte
	for _, f := range frames {
		var body []byte
		if f.kind == kPacket {
			body = packet(uint32(f.src), uint32(f.dst), uint32(f.size), nil)
		}
		if f.buf != nil {
			body = append(body, f.buf.Bytes()...)
		}
		out = append(out, frame(f.kind, body)...)
	}
	return out
}

// recorder is an io.Writer keeping every byte and counting Write calls.
type recorder struct {
	bytes.Buffer
	writes int
}

func (r *recorder) Write(p []byte) (int, error) { r.writes++; return r.Buffer.Write(p) }

// mixedFrames is a burst of packet and control frames with 0 B, 1 KiB and
// larger-than-the-cap bodies.
func mixedFrames(large int) []outFrame {
	body := func(p []byte) *wire.Buf { return wire.Copy(p) }
	shard := u32(1)
	return []outFrame{
		{kind: kPacket, src: 0, dst: 2, size: 1},
		{kind: kPacket, src: 1, dst: 3, size: 2, buf: body(patterned(1<<10, 1))},
		{kind: kDoorbell, buf: body(shard)},
		{kind: kAllDone},
		{kind: kPacket, src: 0, dst: 3, size: 3, buf: body(patterned(large, 2))},
		{kind: kStatsReq},
		{kind: kPacket, src: 1, dst: 2, size: 4, buf: body(patterned(1<<10, 3))},
		{kind: kMainsDone, buf: body(shard)},
	}
}

// TestBatchMatchesPerFrameEncoding drains a peer ring holding a mixed burst
// through the batch writer: the bytes written equal the concatenation of
// the frames' individual encodings, and the burst needs only as many
// writes as it has batches.
func TestBatchMatchesPerFrameEncoding(t *testing.T) {
	for _, tc := range []struct {
		name   string
		large  int
		writes int // Write calls on a plain io.Writer (a tail body is a second call)
	}{
		{"fits the cap", 4 << 10, 1},
		{"frame over the cap", writeBatchCap + 1000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := frameBackend(t, 4, 2, 0)
			p := driven(b, 1)
			frames := mixedFrames(tc.large)
			want := encodeEach(frames)
			for _, f := range frames {
				p.push(f)
			}
			p.close()
			var rec recorder
			p.writeFrames(&rec)
			if !bytes.Equal(rec.Bytes(), want) {
				t.Fatalf("batch bytes differ from per-frame encoding (%d vs %d bytes)", rec.Len(), len(want))
			}
			if rec.writes > tc.writes {
				t.Fatalf("%d Write calls, want at most %d", rec.writes, tc.writes)
			}
			snap := b.met.Snapshot()
			if got := snap.Counter(metrics.CtrFramesOut); got != int64(len(frames)) {
				t.Fatalf("net.frames.out = %d, want %d", got, len(frames))
			}
			if w := snap.Counter(metrics.CtrWrites); w < 1 || w > 2 {
				t.Fatalf("net.writes = %d, want 1 or 2 batches", w)
			}
			if got := snap.Counter(metrics.CtrBytesOut); got != int64(len(want)) {
				t.Fatalf("net.bytes.out = %d, want %d", got, len(want))
			}
			// The batch round-trips through the reader.
			rb, got := frameBackend(t, 4, 2, 1)
			if err := rb.readFrames(&rec.Buffer); err != nil {
				t.Fatal(err)
			}
			if len(*got) != 4 {
				t.Fatalf("reader dispatched %d packets, want 4", len(*got))
			}
		})
	}
}

// gateWriter blocks every Write until the test releases it.
type gateWriter struct {
	entered chan int // receives the byte count of each Write as it starts
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.entered <- len(p)
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

// TestFlushWaitsForBatchWrite: flush returns only once the write carrying
// the batch with the last queued frame has returned — not when the frame
// has merely been popped off the ring.
func TestFlushWaitsForBatchWrite(t *testing.T) {
	b, _ := frameBackend(t, 4, 2, 0)
	p := driven(b, 1)
	g := &gateWriter{entered: make(chan int), release: make(chan struct{})}
	writerDone := make(chan struct{})
	go func() { p.writeFrames(g); close(writerDone) }()

	p.push(outFrame{kind: kAllDone})
	<-g.entered // the writer is inside the first batch's write
	p.push(outFrame{kind: kPacket, src: 0, dst: 2, buf: wire.Copy(patterned(100, 1))})
	flushed := make(chan bool, 1)
	go func() { flushed <- p.flush(10 * time.Second) }()

	select {
	case <-flushed:
		t.Fatal("flush returned while the first batch was still being written")
	case <-time.After(30 * time.Millisecond):
	}
	g.release <- struct{}{}
	<-g.entered // second batch popped, its write in progress
	select {
	case <-flushed:
		t.Fatal("flush returned before the batch holding the last frame was written")
	case <-time.After(30 * time.Millisecond):
	}
	g.release <- struct{}{}
	if !<-flushed {
		t.Fatal("flush timed out")
	}
	g.mu.Lock()
	n := g.buf.Len()
	g.mu.Unlock()
	if want := frameHdrLen + frameHdrLen + packetHdrLen + 100; n != want {
		t.Fatalf("flush returned with %d bytes written, want %d", n, want)
	}
	p.close()
	<-writerDone
}
