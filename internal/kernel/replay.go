package kernel

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// Checkpoint-at-activation support.
//
// A machine checkpoint (memory snapshot + CPU registers + console +
// pending fault frames) is not enough to restart an injection run from
// its activation point: the workload "scheduler" is host-side Go state —
// the engine's goroutines, token-passing channels and trace — which
// cannot be snapshotted. Instead, the golden (fault-free) run records
// the result of every machine operation the engine performs (kernel
// calls, raw reads/writes, cycle charges) once, in the golden log
// (RecordGolden). Until its activation event an injection run is the
// golden run, so its operations are a prefix of that log, and a
// checkpoint is a position in it plus the machine state there. A replay
// run re-executes the engine and workload goroutines natively but
// satisfies their machine operations from the golden log up to the
// checkpoint's position — microseconds of host work instead of
// milliseconds of simulation — then restores the machine checkpoint,
// applies this run's fault, and continues live execution to the
// outcome.
//
// A record run captures a checkpoint. It starts from the pristine
// snapshot the golden log starts from, or resumes an earlier checkpoint
// (a rung) without that checkpoint's fault, and runs live to its own
// activation event. It does not record: it verifies every live
// operation (kind, request and result) against the golden log at its
// position and advances the position, so CaptureCheckpoint takes the
// position it reached. A mismatch means the run left its golden path:
// the capture fails and the run reports ErrReplayDiverged.
//
// A checkpoint resumes at one of two points. One captured from the
// breakpoint hook resumes inside the top-level kernel call the
// breakpoint interrupted: its position is that call's, and the replay
// finishes the call live. One captured from a SyscallHook resumes at
// that system call's boundary, before the call is dispatched: nothing
// is in flight, its position is the call's, and the replay consults the
// hook again on the restored machine, which must handle the call (the
// hook's count of earlier calls reached the same value during the
// replayed prefix, because Syscall consults it before CallAddr). A
// record run resuming a rung at a boundary consults its own hook there,
// which must decline, and dispatches the call live.
//
// Checkpoint memory is a delta over the pristine snapshot: a capture
// stores only the pages changed since it (mem.TakeDeltaSnapshot), so a
// capture costs O(changed pages) and a record run resumed from a rung
// does not lengthen the snapshot chain.
//
// The engine is deterministic given identical operation results, so a
// replayed run is byte-identical to a full run. If that invariant is
// ever violated (an operation arrives that the log does not hold at the
// position), the run reports ErrReplayDiverged rather than guessing:
// the harness treats it as a fault of the harness, discards its
// checkpoints, and re-records on a fresh runner.

// ErrReplayDiverged reports that a checkpointed replay or a record run
// issued a machine operation the golden log does not hold at its
// position. It marks a harness fault, never a study outcome.
var ErrReplayDiverged = errors.New("kernel: checkpoint replay diverged from the golden log")

type opKind uint8

const (
	opCall opKind = iota + 1
	opRead32
	opWrite32
	opReadBytes
	opWriteBytes
	opPermAt
	opIsMapped
	opProtect
	opAddCycles
	opIntEnabled
)

func (k opKind) String() string {
	switch k {
	case opCall:
		return "Call"
	case opRead32:
		return "Read32"
	case opWrite32:
		return "Write32"
	case opReadBytes:
		return "ReadBytes"
	case opWriteBytes:
		return "WriteBytes"
	case opPermAt:
		return "PermAt"
	case opIsMapped:
		return "IsMapped"
	case opProtect:
		return "Protect"
	case opAddCycles:
		return "AddCycles"
	case opIntEnabled:
		return "IntEnabled"
	}
	return "op?"
}

// op is one recorded engine-visible machine operation: enough of the
// request to verify a run stays on script, plus the result. It is 20
// bytes; the results that do not fit inline (a ReadBytes buffer, an
// error) live in the log's side table.
type op struct {
	kind opKind
	flag bool   // boolean result
	addr uint32 // primary address (or cycle count for opAddCycles)
	arg  uint32 // secondary request datum (value, size, args hash)
	val  uint32 // 32-bit result
	side uint32 // 1 + index of the op's side entry, or 0 for none
}

// opSide is an op's out-of-line result.
type opSide struct {
	buf []byte // ReadBytes result
	err error  // error result
}

// GoldenLog is the golden run's op log: its ops in order, the side
// table holding their ReadBytes buffers and errors, and the pristine
// memory snapshot the run started from, which every checkpoint is a
// delta over. A runner records one and shares it, read-only, with every
// checkpoint.
type GoldenLog struct {
	ops   []op
	side  []opSide
	start *mem.Snapshot
}

func (l *GoldenLog) add(o op, buf []byte, err error) {
	if buf != nil || err != nil {
		l.side = append(l.side, opSide{buf: buf, err: err})
		o.side = uint32(len(l.side))
	}
	l.ops = append(l.ops, o)
}

// result returns o's out-of-line buffer and error.
func (l *GoldenLog) result(o *op) ([]byte, error) {
	if o.side == 0 {
		return nil, nil
	}
	s := &l.side[o.side-1]
	return s.buf, s.err
}

// resumePoint is where a replay leaves the log for live execution: the
// top-level call a breakpoint interrupted (id is its address), or the
// system call whose SyscallHook captured the checkpoint (id is the
// syscall number). args is hashArgs of the call's arguments.
type resumePoint struct {
	syscall bool
	id      uint32
	args    uint32
}

func syscallPoint(nr int, a [4]uint32) resumePoint {
	return resumePoint{syscall: true, id: uint32(nr), args: hashArgs(a[:])}
}

func (p resumePoint) String() string {
	if p.syscall {
		return fmt.Sprintf("syscall %d (args %#x)", p.id, p.args)
	}
	return fmt.Sprintf("call %#x (args %#x)", p.id, p.args)
}

// replay drives a run along the golden log. While it serves (live is
// false) it answers ops [0, from.pos) from the log; at from's resume
// point it restores from and runs live. A sibling replay then leaves the
// log; a record run verifies every live op against the log (live is
// true) until CaptureCheckpoint. Once err is set the replay is dead:
// every wrapper short-circuits and the engine winds down via its abort
// path; the caller maps err onto the run result.
type replay struct {
	log  *GoldenLog
	pos  int         // the next op's golden-log position
	from *Checkpoint // where serving ends; nil for a record run from the pristine state
	live bool        // serving is over: a record run verifying
	// record marks a record run: it verifies from from's resume point
	// on, and at a system call boundary its hook must decline.
	record bool
	// at is the resume point of a checkpoint captured now: the
	// top-level call executing, or the system call whose SyscallHook is
	// being consulted.
	at       resumePoint
	err      error
	onResume func(*Machine)
}

func (r *replay) failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrReplayDiverged, fmt.Sprintf(format, args...))
	}
}

// next serves the next logged op, verifying the request matches. It
// returns nil (and poisons the replay) on any mismatch, including
// running past the checkpoint's position.
func (r *replay) next(kind opKind, addr, arg uint32) *op {
	if r.err != nil {
		return nil
	}
	if r.pos >= r.from.pos {
		r.failf("op %d: %v(%#x) past the checkpoint's position (it resumes at %v)",
			r.pos, kind, addr, r.from.at)
		return nil
	}
	o := &r.log.ops[r.pos]
	if o.kind != kind || o.addr != addr || o.arg != arg {
		r.failf("op %d: got %v(%#x, %#x), golden %v(%#x, %#x)",
			r.pos, kind, addr, arg, o.kind, o.addr, o.arg)
		return nil
	}
	r.pos++
	return o
}

// atSyscallBoundary reports that serving is done and the checkpoint
// resumes at a system call boundary: the next Syscall must be that call.
func (r *replay) atSyscallBoundary() bool {
	return !r.live && r.pos == r.from.pos && r.from.at.syscall
}

// check verifies a record run's live op o, with its out-of-line result,
// against the golden log at the run's position. On a mismatch the run
// has left its golden path: it goes on live and captures nothing.
func (m *Machine) check(o op, buf []byte, err error) {
	r := m.rep
	var (
		g    op
		gbuf []byte
		gerr error
	)
	if r.pos < len(r.log.ops) {
		g = r.log.ops[r.pos]
		gbuf, gerr = r.log.result(&g)
		g.side = 0
	}
	if g != o || !bytes.Equal(buf, gbuf) || (err == nil) != (gerr == nil) || err != nil && err.Error() != gerr.Error() {
		r.failf("op %d: live %v(%#x, %#x) = %#x, golden %v(%#x, %#x) = %#x",
			r.pos, o.kind, o.addr, o.arg, o.val, g.kind, g.addr, g.arg, g.val)
		m.rep = nil
		return
	}
	r.pos++
}

func hashArgs(args []uint32) uint32 {
	h := uint32(2166136261)
	for _, a := range args {
		h = (h ^ a) * 16777619
	}
	return (h ^ uint32(len(args))) * 16777619
}

// Checkpoint is the full machine state at an activation point and its
// position in the golden log. One checkpoint serves every target
// sharing the activation event (a PC's breakpoint, or the Nth call of a
// system call), and as a rung it serves a record run of any later
// event.
type Checkpoint struct {
	log        *GoldenLog
	pos        int
	mem        *mem.Snapshot // a delta over log.start
	cpu        cpu.State
	cycleLimit uint64
	console    []byte
	frames     []faultFrame
	at         resumePoint
}

// Cycles returns the cycle counter at the capture point (the
// activation cycle of every run resumed from this checkpoint).
func (cp *Checkpoint) Cycles() uint64 { return cp.cpu.Cycles }

// RecordGolden runs the workloads like RunWorkloads and records the
// golden log of the run. start must be the snapshot of the machine's
// current state, which every record run restores before it starts.
func (m *Machine) RecordGolden(start *Snapshot, ws []Workload, cycleBudget uint64) (*RunResult, *GoldenLog) {
	g := &GoldenLog{start: start.mem}
	m.rec = g
	res := m.RunWorkloads(ws, cycleBudget)
	m.rec = nil
	return res, g
}

// CaptureCheckpoint snapshots the machine mid-run. It must be called
// while a record run is verifying, before the fault takes effect: from
// the breakpoint hook, where the checkpoint resumes inside the in-flight
// top-level call, or from a SyscallHook, where it resumes at that
// system call's boundary. It ends the verification: the checkpoint's
// position is the op the run reached. It returns nil when no record run
// is verifying (it never started, or it left its golden path).
func (m *Machine) CaptureCheckpoint() *Checkpoint {
	r := m.rep
	if r == nil || !r.live {
		if r != nil {
			r.failf("capture at op %d, before the rung's resume point", r.pos)
		}
		return nil
	}
	m.rep = nil
	return &Checkpoint{
		log:        r.log,
		pos:        r.pos,
		mem:        m.Mem.TakeDeltaSnapshot(r.log.start),
		cpu:        m.CPU.CaptureState(),
		cycleLimit: m.CycleLimit,
		console:    append([]byte(nil), m.Console.Bytes()...),
		frames:     append([]faultFrame(nil), m.faultStack...),
		at:         r.at,
	}
}

// RunWorkloadsFromCheckpoint runs the workloads exactly like
// RunWorkloads, but satisfies the prefix up to cp's position from the
// golden log, then restores the checkpoint, calls applyFlip (the fault
// injection; it may be nil) and continues live to the outcome. At a
// system call boundary the restored machine consults SyscallHook, which
// must handle the call. If the replay diverges from the log, the
// result's Err is the divergence error (wrapping ErrReplayDiverged) —
// never a counterfeit outcome.
func (m *Machine) RunWorkloadsFromCheckpoint(cp *Checkpoint, ws []Workload, applyFlip func(*Machine)) *RunResult {
	return m.runReplay(&replay{log: cp.log, from: cp, onResume: applyFlip}, ws)
}

// RecordWorkloads runs the workloads as a record run, which
// CaptureCheckpoint ends. Without a rung it runs from the current
// machine state, which must be the golden log's start, with a fresh
// cycleBudget; it calls arm first. With a rung, a checkpoint of g, it
// serves the prefix up to the rung's position from the golden log,
// restores the rung without a fault, calls arm (RestoreState disarms
// the debug registers) and continues live. Every live op until the
// capture must match the golden log; otherwise the result's Err wraps
// ErrReplayDiverged.
func (m *Machine) RecordWorkloads(g *GoldenLog, rung *Checkpoint, ws []Workload, cycleBudget uint64, arm func(*Machine)) *RunResult {
	r := &replay{log: g, from: rung, record: true, onResume: arm}
	if rung == nil {
		m.CycleLimit = m.CPU.Cycles + cycleBudget
		r.live = true
		if arm != nil {
			arm(m)
		}
	}
	return m.runReplay(r, ws)
}

func (m *Machine) runReplay(r *replay, ws []Workload) *RunResult {
	m.rep = r
	res := m.runWorkloads(ws)
	m.rep = nil
	if r.err == nil && !r.live {
		r.failf("run finished after %d of %d golden ops without reaching the checkpoint", r.pos, r.from.pos)
	}
	if r.err != nil {
		res.Err = r.err
	}
	return res
}

// replayCall satisfies a top-level kernel call while serving: answered
// from the log before the checkpoint's position, switched to live
// execution at the in-flight call the checkpoint interrupted.
func (m *Machine) replayCall(addr uint32, args []uint32) (uint32, error) {
	r := m.rep
	if r.err != nil {
		return 0, r.err
	}
	h := hashArgs(args)
	if r.pos < r.from.pos {
		o := &r.log.ops[r.pos]
		if o.kind != opCall || o.addr != addr || o.arg != h {
			r.failf("op %d: got Call(%#x, args %#x), golden %v(%#x, %#x)",
				r.pos, addr, h, o.kind, o.addr, o.arg)
			return 0, r.err
		}
		r.pos++
		return o.val, nil
	}
	if at := (resumePoint{id: addr, args: h}); at != r.from.at {
		r.failf("%v at the checkpoint's position, it resumes at %v", at, r.from.at)
		return 0, r.err
	}
	ret, err := m.resumeCheckpoint(r)
	if m.rep != nil && err == nil {
		// A record run that has not captured yet verifies the call it
		// resumed.
		m.check(op{kind: opCall, addr: addr, arg: h, val: ret}, nil, nil)
	}
	return ret, err
}

// replaySyscall switches a replay to live execution at the system call
// boundary its checkpoint was captured at. The call must be the
// captured one. The SyscallHook, consulted on the restored machine,
// must handle it for a sibling replay, and must decline it for a record
// run, which then dispatches the call live.
func (m *Machine) replaySyscall(nr int, a [4]uint32) (int32, error) {
	r := m.rep
	if r.err != nil {
		return 0, r.err
	}
	if at := syscallPoint(nr, a); at != r.from.at {
		r.failf("%v at the checkpoint's position, it resumes at %v", at, r.from.at)
		return 0, r.err
	}
	m.restoreCheckpoint(r)
	if m.SyscallHook != nil {
		if ret, handled := m.SyscallHook(nr, a); handled {
			if r.record {
				r.failf("the SyscallHook handled %v, where the rung was captured", r.from.at)
				return 0, r.err
			}
			return ret, nil
		}
	}
	if !r.record {
		r.failf("the SyscallHook did not handle %v, where the checkpoint was captured", r.from.at)
		return 0, r.err
	}
	ret, err := m.CallAddr(m.syscallFn, uint32(nr), a[0], a[1], a[2], a[3])
	if err != nil {
		return 0, err
	}
	return int32(ret), nil
}

// restoreCheckpoint ends a replay's served prefix: it restores the
// captured machine state and calls onResume (a sibling's fault, a record
// run's arming), so execution continues live from the checkpoint's
// resume point. A record run goes on verifying from the checkpoint's
// position.
func (m *Machine) restoreCheckpoint(r *replay) {
	cp := r.from
	r.live, r.at = true, cp.at
	if !r.record {
		m.rep = nil // live execution from here on
	}
	m.Mem.Restore(cp.mem)
	m.CPU.RestoreState(cp.cpu)
	m.CycleLimit = cp.cycleLimit
	m.PanicCode = 0
	m.Console.Reset()
	m.Console.Write(cp.console)
	m.faultStack = append(m.faultStack[:0], cp.frames...)
	m.faultDepth = len(cp.frames)
	if r.onResume != nil {
		r.onResume(m)
	}
}

// resumeCheckpoint restores the captured machine state, injects the
// fault, and finishes the interrupted call live — including unwinding
// any nested fault-handler frames exactly as the live path would.
func (m *Machine) resumeCheckpoint(r *replay) (uint32, error) {
	cp := r.from
	m.restoreCheckpoint(r)

	ret, err := m.runToReturn()
	// Unwind captured fault frames innermost-first, mirroring the live
	// handleUserFault/CallAddr contract: an error propagates without
	// restoring registers; a zero return is the unhandled-fault crash;
	// otherwise the interrupted context resumes at the faulting
	// instruction.
	for i := len(cp.frames) - 1; i >= 0; i-- {
		f := cp.frames[i]
		m.faultStack = m.faultStack[:i]
		m.faultDepth--
		if err != nil {
			return 0, err
		}
		m.CPU.Regs = f.regs
		m.CPU.EIP = f.eip
		m.CPU.Eflags = f.eflags
		if ret == 0 {
			return 0, m.crashErr(f.exc, 0)
		}
		ret, err = m.runToReturn()
	}
	return ret, err
}

// --- Engine-visible machine operations ---
//
// Every machine access the workload engine makes goes through one of
// these wrappers, which serve results from the golden log while a
// replay serves its prefix, and otherwise run live and pass the op to
// logged. With neither a recording nor a replay active they are plain
// pass-throughs.

// serving reports that the run's ops come from the golden log.
func (m *Machine) serving() bool { return m.rep != nil && !m.rep.live }

// logged passes a live op to the golden recording or to a record run's
// verification, whichever is active.
func (m *Machine) logged(o op, buf []byte, err error) {
	switch {
	case m.rec != nil:
		m.rec.add(o, bytes.Clone(buf), err)
	case m.rep != nil:
		m.check(o, buf, err)
	}
}

func (m *Machine) memRead32(addr uint32) (uint32, error) {
	if m.serving() {
		o := m.rep.next(opRead32, addr, 0)
		if o == nil {
			return 0, m.rep.err
		}
		_, err := m.rep.log.result(o)
		return o.val, err
	}
	v, err := m.Mem.Read32(addr)
	m.logged(op{kind: opRead32, addr: addr, val: v}, nil, err)
	return v, err
}

func (m *Machine) memWrite32(addr, v uint32) error {
	if m.serving() {
		o := m.rep.next(opWrite32, addr, v)
		if o == nil {
			return m.rep.err
		}
		_, err := m.rep.log.result(o)
		return err
	}
	err := m.Mem.Write32(addr, v)
	m.logged(op{kind: opWrite32, addr: addr, arg: v}, nil, err)
	return err
}

func (m *Machine) memReadBytes(addr, n uint32) ([]byte, error) {
	if m.serving() {
		o := m.rep.next(opReadBytes, addr, n)
		if o == nil {
			return nil, m.rep.err
		}
		// Copy: callers may mutate the returned slice, and the log is
		// shared by every replay.
		buf, err := m.rep.log.result(o)
		return append([]byte(nil), buf...), err
	}
	b, err := m.Mem.ReadBytes(addr, n)
	m.logged(op{kind: opReadBytes, addr: addr, arg: n}, b, err)
	return b, err
}

func (m *Machine) memWriteBytes(addr uint32, b []byte) error {
	if m.serving() {
		o := m.rep.next(opWriteBytes, addr, uint32(len(b)))
		if o == nil {
			return m.rep.err
		}
		_, err := m.rep.log.result(o)
		return err
	}
	err := m.Mem.WriteBytes(addr, b)
	m.logged(op{kind: opWriteBytes, addr: addr, arg: uint32(len(b))}, nil, err)
	return err
}

func (m *Machine) memPermAt(addr uint32) mem.Perm {
	if m.serving() {
		o := m.rep.next(opPermAt, addr, 0)
		if o == nil {
			return 0
		}
		return mem.Perm(o.val)
	}
	p := m.Mem.PermAt(addr)
	m.logged(op{kind: opPermAt, addr: addr, val: uint32(p)}, nil, nil)
	return p
}

func (m *Machine) memIsMapped(addr uint32) bool {
	if m.serving() {
		o := m.rep.next(opIsMapped, addr, 0)
		if o == nil {
			return false
		}
		return o.flag
	}
	ok := m.Mem.IsMapped(addr)
	m.logged(op{kind: opIsMapped, addr: addr, flag: ok}, nil, nil)
	return ok
}

func (m *Machine) memProtect(addr, size uint32, perm mem.Perm) {
	if m.serving() {
		m.rep.next(opProtect, addr, size|uint32(perm)<<24)
		return
	}
	m.Mem.Protect(addr, size, perm)
	m.logged(op{kind: opProtect, addr: addr, arg: size | uint32(perm)<<24}, nil, nil)
}

func (m *Machine) addCycles(n uint64) {
	if m.serving() {
		m.rep.next(opAddCycles, uint32(n), 0)
		return
	}
	m.CPU.Cycles += n
	m.logged(op{kind: opAddCycles, addr: uint32(n)}, nil, nil)
}

func (m *Machine) interruptsEnabled() bool {
	if m.serving() {
		o := m.rep.next(opIntEnabled, 0, 0)
		if o == nil {
			return false
		}
		return o.flag
	}
	on := m.CPU.Eflags&interruptFlag != 0
	m.logged(op{kind: opIntEnabled, flag: on}, nil, nil)
	return on
}
