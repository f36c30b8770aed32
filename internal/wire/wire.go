// Package wire is the frame protocol between a campaign supervisor
// and its injection worker subprocesses (kinject -worker). The paper's
// apparatus survived 35,000+ injections because the injected machine
// was expendable — the controller watched it from the outside and
// power-cycled it on failure. This package is the software boundary
// that makes our workers equally expendable: a worker that panics,
// livelocks the Go runtime, blows up the heap or is SIGKILLed takes
// down only itself; the supervisor sees a dead pipe and restarts it.
//
// Transport: internal/frame frames, each holding one JSON message,
// over any byte stream — the worker's stdin/stdout pipes, or a TCP
// connection for remote workers (kinject -connect). A corrupt or
// interleaved write (a stray fmt.Print in the worker) is a protocol
// error, never a wrong result; a torn frame reads as the peer's death.
// Streams whose reader supports SetReadDeadline (os.File pipes,
// net.Conn) additionally get mid-frame silence bounds: a peer that
// dies after writing half a frame cannot wedge Recv forever. The
// protocol is versioned via the hello/ready handshake; a
// version-skewed worker binary is rejected before any injection runs.
//
// Message flow:
//
//	supervisor -> worker   ping    (optional liveness/version probe;
//	                                remote pools vet a queued TCP
//	                                worker before handing it a study)
//	worker -> supervisor   pong    (echoes the protocol version)
//	supervisor -> worker   hello   (protocol version + study spec)
//	worker -> supervisor   ready   (version, golden fingerprint/disk
//	                                hash for cross-validation, target
//	                                totals per campaign)
//	supervisor -> worker   run     {campaign, ordinal}
//	worker -> supervisor   beat    (periodic liveness while running)
//	worker -> supervisor   result  {campaign, ordinal, result}
//	                    or fault   {campaign, ordinal, fault}  (the
//	                                worker exhausted its in-process
//	                                retries; quarantine the target)
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/frame"
	"repro/internal/inject"
)

// ProtocolVersion is bumped on any incompatible frame or message
// change; the hello/ready handshake rejects skew. Version 2 extended
// StudySpec with the fault-model tag: a version-1 worker would decode
// a model-tagged spec without error and then enumerate the wrong
// (bitflip) target list, so the skew must be rejected at the
// handshake, before any ordinal is interpreted. Version 3 added the
// ping/pong liveness probe that remote pools send BEFORE the hello:
// a version-2 worker treats the ping as a protocol error and
// disconnects, so a skewed remote worker is rejected at attach time
// instead of after it booted a whole study.
const ProtocolVersion = 3

// ErrBadFrame reports a corrupt or desynchronized frame: a length
// outside bounds, a CRC32C mismatch, or an undecodable payload. It is
// distinct from io.EOF (peer death): a bad frame means the stream can
// no longer be trusted and the worker must be restarted.
var ErrBadFrame = errors.New("wire: bad frame")

// ErrRecvTimeout reports that a Recv deadline expired: either the
// absolute deadline set with SetRecvDeadline, or the mid-frame silence
// bound set with SetFrameTimeout. A timed-out Conn must be abandoned —
// the buffered reader may hold a partial frame, so the stream can no
// longer be resynchronized.
var ErrRecvTimeout = errors.New("wire: recv deadline exceeded")

// ErrDeadlineUnsupported reports that the Conn's underlying reader has
// no SetReadDeadline (e.g. an in-memory pipe); deadline calls on such
// a Conn fail and Recv blocks as before.
var ErrDeadlineUnsupported = errors.New("wire: stream does not support read deadlines")

// Message types.
const (
	TypeHello  = "hello"
	TypeReady  = "ready"
	TypeRun    = "run"
	TypeBeat   = "beat"
	TypeResult = "result"
	TypeFault  = "fault"
	TypeError  = "error"
	TypePing   = "ping"
	TypePong   = "pong"
)

// StudySpec is the result-affecting study configuration shipped to a
// worker in the hello frame; the worker re-derives the identical
// deterministic target list from it, so run requests can name targets
// by {campaign key, ordinal} alone.
type StudySpec struct {
	Seed                int64
	Scale               int
	Campaigns           string // e.g. "ABC"
	MaxTargetsPerFunc   int
	MaxFuncsPerCampaign int
	DisableAssertions   bool
	// FaultModel is the canonical fault-model tag ("" = bitflip, the
	// pre-model default; see inject.ModelTag). Workers enumerate the
	// model's target list, so supervisor and worker must agree on it —
	// the protocol version guards the field's existence.
	FaultModel string        `json:",omitempty"`
	RunTimeout time.Duration // per-run wall-clock watchdog (0 = derive)
	MaxRetries int           // in-worker harness-fault retries before quarantine
	// EngineOptions are passed unchanged to the worker's runners. They
	// do not affect results, and their zero value is the default
	// engine, so they need no protocol bump. Embedded last, they keep
	// the spec's JSON field names and order.
	inject.EngineOptions
}

// Ready is the worker's handshake reply: the golden (fault-free) run
// oracle for cross-validation and the derived target totals.
type Ready struct {
	GoldenFP   string         // golden trace fingerprint
	GoldenDisk string         // golden disk hash, hex
	Totals     map[string]int // campaign key -> target count
}

// Msg is the on-wire union of all message kinds.
type Msg struct {
	Type     string
	Version  int                  `json:",omitempty"` // hello, ready
	Spec     *StudySpec           `json:",omitempty"` // hello
	Ready    *Ready               `json:",omitempty"` // ready
	Campaign string               `json:",omitempty"` // run, result, fault
	Ordinal  int                  `json:",omitempty"` // run, result, fault
	Result   *inject.Result       `json:",omitempty"` // result
	Fault    *inject.HarnessFault `json:",omitempty"` // fault
	Blocks   *cpu.BlockStats      `json:",omitempty"` // result, fault
	Text     string               `json:",omitempty"` // error
}

// deadlineReader is the read-deadline capability shared by os.File
// (the worker's stdin/stdout pipes) and net.Conn (remote workers).
type deadlineReader interface {
	SetReadDeadline(t time.Time) error
}

// Conn frames messages over a byte stream. Send is safe for
// concurrent use (the worker's heartbeat goroutine shares the writer
// with the run loop); Recv and the deadline setters must be called
// from a single goroutine.
type Conn struct {
	wmu sync.Mutex
	w   io.Writer
	br  *bufio.Reader

	// rd is the raw reader's deadline hook, nil when unsupported.
	// frameTimeout bounds mid-frame silence per read; recvDeadline is
	// an absolute bound on the whole next Recv.
	rd           deadlineReader
	frameTimeout time.Duration
	recvDeadline time.Time
}

// NewConn wraps a reader/writer pair (the two ends of the worker's
// stdin/stdout pipes, or one net.Conn for both). When the reader
// supports SetReadDeadline, SetFrameTimeout/SetRecvDeadline become
// available; otherwise they report ErrDeadlineUnsupported and Recv
// blocks indefinitely as before.
func NewConn(r io.Reader, w io.Writer) *Conn {
	c := &Conn{w: w, br: bufio.NewReaderSize(r, 1<<16)}
	if rd, ok := r.(deadlineReader); ok {
		// Having the method is not having the capability: an *os.File
		// inherited at exec (a worker's stdin) is in blocking mode and
		// fails every SetReadDeadline with ErrNoDeadline. Probe with a
		// harmless clear; on refusal the Conn stays deadline-less.
		if rd.SetReadDeadline(time.Time{}) == nil {
			c.rd = rd
		}
	}
	return c
}

// SupportsDeadline reports whether the underlying stream has read
// deadlines (os.File pipes and net.Conn do; in-memory pipes do not).
func (c *Conn) SupportsDeadline() bool { return c.rd != nil }

// SetFrameTimeout bounds the silence tolerated MID-frame: once the
// first byte of a frame has arrived, every subsequent read must make
// progress within d or Recv fails with ErrRecvTimeout. Waiting for a
// frame to BEGIN is not bounded — an idle worker legitimately waits
// indefinitely for its next request. 0 disables the bound. The setting
// is sticky across Recv calls.
func (c *Conn) SetFrameTimeout(d time.Duration) error {
	if c.rd == nil {
		if d == 0 {
			return nil // clearing a bound needs no capability
		}
		return ErrDeadlineUnsupported
	}
	c.frameTimeout = d
	return nil
}

// SetRecvDeadline sets an absolute deadline for subsequent Recv calls,
// covering the idle wait too (used to vet a freshly attached remote
// worker, where "no frame yet" is itself the failure). The zero time
// clears it. A deadline already in the past cancels a concurrent
// blocked Recv on deadline-capable streams.
func (c *Conn) SetRecvDeadline(t time.Time) error {
	if c.rd == nil {
		if t.IsZero() {
			return nil // clearing a bound needs no capability
		}
		return ErrDeadlineUnsupported
	}
	c.recvDeadline = t
	// Apply immediately so a blocked Recv observes a cancellation
	// without waiting for its next arm point.
	return c.rd.SetReadDeadline(t)
}

// armIdle applies the deadline for the wait-for-first-byte phase: only
// the absolute recv deadline bounds it.
func (c *Conn) armIdle() error {
	if c.rd == nil {
		return nil
	}
	return c.rd.SetReadDeadline(c.recvDeadline)
}

// armFrame applies the deadline for mid-frame reads: the sooner of the
// absolute recv deadline and now+frameTimeout.
func (c *Conn) armFrame() error {
	if c.rd == nil {
		return nil
	}
	t := c.recvDeadline
	if c.frameTimeout > 0 {
		if ft := time.Now().Add(c.frameTimeout); t.IsZero() || ft.Before(t) {
			t = ft
		}
	}
	if t.Equal(c.recvDeadline) {
		return nil // armIdle already applied exactly this
	}
	return c.rd.SetReadDeadline(t)
}

// mapReadErr normalizes read errors: deadline expiry becomes
// ErrRecvTimeout, a peer death mid-frame becomes io.EOF, and a corrupt
// frame becomes ErrBadFrame.
func mapReadErr(err error) error {
	var ce *frame.CorruptError
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrRecvTimeout, err)
	case err == frame.ErrTorn:
		return io.EOF
	case errors.As(err, &ce):
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return err
}

// Send writes one frame.
func (c *Conn) Send(m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: encode %s: %w", m.Type, err)
	}
	buf := frame.Append(nil, payload)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("wire: write %s: %w", m.Type, err)
	}
	return nil
}

// Recv reads one frame. io.EOF means the peer closed the stream (or
// died); a wrapped ErrBadFrame means the stream is corrupt; a wrapped
// ErrRecvTimeout means a deadline expired mid-wait. On any of the
// latter two the stream must be abandoned.
func (c *Conn) Recv() (*Msg, error) {
	// Phase 1: wait for the frame to begin. This is the legitimate idle
	// state (a worker between requests), bounded only by an explicit
	// absolute deadline. Peek does not consume, so the byte it waited
	// for is still there for frame.Read below.
	if err := c.armIdle(); err != nil {
		return nil, fmt.Errorf("wire: arm deadline: %w", err)
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, mapReadErr(err)
	}
	// Phase 2: the frame is in flight. A peer that goes silent now died
	// mid-write, so every subsequent read runs under the frame timeout.
	payload, err := frame.Read(frameReader{c})
	if err != nil {
		return nil, mapReadErr(err)
	}
	var m Msg
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadFrame, err)
	}
	return &m, nil
}

// frameReader reads a Conn's stream with every read under the
// mid-frame deadline.
type frameReader struct{ c *Conn }

func (r frameReader) Read(p []byte) (int, error) {
	if err := r.c.armFrame(); err != nil {
		return 0, fmt.Errorf("wire: arm deadline: %w", err)
	}
	return r.c.br.Read(p)
}

// Backend is the worker-side implementation served by Serve: boot the
// study from the spec, then execute injection runs by ordinal.
type Backend interface {
	// Boot prepares the worker's simulated machine and returns its
	// golden oracle for cross-validation.
	Boot(spec StudySpec) (Ready, error)
	// Run executes one target. A non-nil fault means the worker
	// exhausted its in-process retries and the target must be
	// quarantined; a non-nil error is fatal to the worker.
	Run(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error)
}

// BlockStatser is optionally implemented by backends that can report
// superblock-engine counter deltas since their previous reply; Serve
// attaches them to result and fault frames so the supervisor can
// aggregate worker CPU cache behavior into its metrics. Observability
// only — the field never affects results, and old supervisors simply
// ignore it, so it needs no protocol bump.
type BlockStatser interface {
	BlockStatsDelta() cpu.BlockStats
}

// ServeFrameTimeout is the mid-frame silence bound a served worker
// applies when its stream supports deadlines: a supervisor that dies
// after writing half a frame must not wedge the worker's Recv forever.
// Idle waits (no request in flight) stay unbounded — a queued worker
// legitimately waits indefinitely for its next hello.
const ServeFrameTimeout = 30 * time.Second

// Serve runs the worker side of the protocol until the supervisor
// closes the stream (clean shutdown, returns nil) or a fatal error
// occurs. Heartbeats are emitted every beatEvery while a boot or run
// is in flight, proving process liveness to the supervisor (run-level
// hangs are the in-worker watchdog's job; heartbeats catch a dead or
// frozen process). Ping frames are answered with pong at any point —
// remote pools probe a queued TCP worker's liveness and version before
// shipping it a study.
func Serve(r io.Reader, w io.Writer, b Backend, beatEvery time.Duration) error {
	conn := NewConn(r, w)
	conn.SetFrameTimeout(ServeFrameTimeout) // best effort; in-memory streams keep blocking
	if beatEvery <= 0 {
		beatEvery = time.Second
	}

	hello, err := conn.recvAnsweringPings()
	if err != nil {
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if hello.Type != TypeHello || hello.Spec == nil {
		conn.Send(&Msg{Type: TypeError, Text: fmt.Sprintf("unexpected %q, want hello", hello.Type)})
		return fmt.Errorf("wire: handshake: got %q, want hello", hello.Type)
	}
	if hello.Version != ProtocolVersion {
		conn.Send(&Msg{Type: TypeError, Text: fmt.Sprintf("protocol version %d != %d", hello.Version, ProtocolVersion)})
		return fmt.Errorf("wire: protocol version skew: supervisor %d, worker %d", hello.Version, ProtocolVersion)
	}

	ready, err := func() (Ready, error) {
		stop := heartbeat(conn, beatEvery)
		defer stop()
		return b.Boot(*hello.Spec)
	}()
	if err != nil {
		conn.Send(&Msg{Type: TypeError, Text: fmt.Sprintf("boot: %v", err)})
		return fmt.Errorf("wire: boot: %w", err)
	}
	if err := conn.Send(&Msg{Type: TypeReady, Version: ProtocolVersion, Ready: &ready}); err != nil {
		return err
	}

	for {
		m, err := conn.recvAnsweringPings()
		if errors.Is(err, io.EOF) {
			return nil // supervisor closed the stream: clean shutdown
		}
		if err != nil {
			return err
		}
		if m.Type != TypeRun {
			conn.Send(&Msg{Type: TypeError, Text: fmt.Sprintf("unexpected %q", m.Type)})
			return fmt.Errorf("wire: unexpected message %q", m.Type)
		}
		res, hf, err := func() (*inject.Result, *inject.HarnessFault, error) {
			stop := heartbeat(conn, beatEvery)
			defer stop()
			return b.Run(m.Campaign, m.Ordinal)
		}()
		if err != nil {
			conn.Send(&Msg{Type: TypeError, Text: fmt.Sprintf("run %s/%d: %v", m.Campaign, m.Ordinal, err)})
			return fmt.Errorf("wire: run %s/%d: %w", m.Campaign, m.Ordinal, err)
		}
		reply := &Msg{Campaign: m.Campaign, Ordinal: m.Ordinal}
		if hf != nil {
			reply.Type, reply.Fault = TypeFault, hf
		} else {
			reply.Type, reply.Result = TypeResult, res
		}
		if bs, ok := b.(BlockStatser); ok {
			if d := bs.BlockStatsDelta(); d != (cpu.BlockStats{}) {
				reply.Blocks = &d
			}
		}
		if err := conn.Send(reply); err != nil {
			return err
		}
	}
}

// recvAnsweringPings reads the next non-ping frame, replying to pings
// with a version-stamped pong (the remote-pool attach probe).
func (c *Conn) recvAnsweringPings() (*Msg, error) {
	for {
		m, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if m.Type == TypePing {
			if err := c.Send(&Msg{Type: TypePong, Version: ProtocolVersion}); err != nil {
				return nil, err
			}
			continue
		}
		return m, nil
	}
}

// heartbeat emits beat frames until the returned stop function is
// called. Send errors are ignored here: the run loop will surface the
// broken pipe on its own write.
func heartbeat(conn *Conn, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				conn.Send(&Msg{Type: TypeBeat})
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
