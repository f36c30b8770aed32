package kernel

import (
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
// cannot be snapshotted. Instead, the first run of a target *records*
// the result of every machine operation the engine performs (kernel
// calls, raw reads/writes, cycle charges) from run start to the
// activation point. A replay run re-executes the engine and workload
// goroutines natively but satisfies their machine operations from the
// recorded log — microseconds of host work instead of milliseconds of
// simulation — and at the log's end restores the machine checkpoint,
// applies this run's fault, and continues live execution to the
// outcome.
//
// A checkpoint resumes at one of two points. One captured from the
// breakpoint hook resumes inside the top-level kernel call the
// breakpoint interrupted: the log ends just before that call, and the
// replay finishes it live. One captured from a SyscallHook resumes at
// that system call's boundary, before the call is dispatched: nothing
// is in flight, the log ends just before the call, and the replay
// consults the hook again on the restored machine, which must handle
// the call (the hook's count of earlier calls reached the same value
// during the replayed prefix, because Syscall consults it before
// CallAddr).
//
// The engine is deterministic given identical operation results, so a
// replayed run is byte-identical to a full run. If that invariant is
// ever violated (an operation arrives that the log does not contain),
// the replay reports ErrReplayDiverged rather than guessing: the
// harness treats it as a fault of the harness, discards the
// checkpoint, and re-records on a fresh runner.

// ErrReplayDiverged reports that a checkpointed replay issued a machine
// operation the recorded prefix does not contain. It marks a harness
// fault, never a study outcome.
var ErrReplayDiverged = errors.New("kernel: checkpoint replay diverged from recording")

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
// request to verify the replay stays on script, plus the result. It is
// 20 bytes; the results that do not fit inline (a ReadBytes buffer, an
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

// opLog is a recorded prefix: its ops in order, and the side table
// holding their ReadBytes buffers and errors.
type opLog struct {
	ops  []op
	side []opSide
}

func (l *opLog) add(o op, buf []byte, err error) {
	if buf != nil || err != nil {
		l.side = append(l.side, opSide{buf: buf, err: err})
		o.side = uint32(len(l.side))
	}
	l.ops = append(l.ops, o)
}

// result returns o's out-of-line buffer and error.
func (l *opLog) result(o *op) ([]byte, error) {
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

// recording accumulates the op log during a target's first run.
type recording struct {
	log opLog
	// at is the resume point of a checkpoint captured now: the
	// top-level call currently executing, or the system call whose
	// SyscallHook is being consulted.
	at resumePoint
}

// replay drives a run from a recorded prefix. Once err is set the
// replay is dead: every wrapper short-circuits and the engine winds
// down via its abort path; the caller maps err onto the run result.
type replay struct {
	cp        *Checkpoint
	i         int
	err       error
	switched  bool
	applyFlip func(*Machine)
}

func (r *replay) failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrReplayDiverged, fmt.Sprintf(format, args...))
	}
}

// next consumes the next recorded op, verifying the request matches.
// It returns nil (and poisons the replay) on any mismatch, including
// running past the end of the log.
func (r *replay) next(kind opKind, addr, arg uint32) *op {
	if r.err != nil {
		return nil
	}
	if r.i >= len(r.cp.log.ops) {
		r.failf("op %d: %v(%#x) past end of recording (checkpoint resumes at %v)",
			r.i, kind, addr, r.cp.at)
		return nil
	}
	o := &r.cp.log.ops[r.i]
	if o.kind != kind || o.addr != addr || o.arg != arg {
		r.failf("op %d: got %v(%#x, %#x), recorded %v(%#x, %#x)",
			r.i, kind, addr, arg, o.kind, o.addr, o.arg)
		return nil
	}
	r.i++
	return o
}

// atSyscallBoundary reports that the log is used up and the checkpoint
// resumes at a system call boundary: the next Syscall must be that call.
func (r *replay) atSyscallBoundary() bool {
	return r.i == len(r.cp.log.ops) && r.cp.at.syscall
}

func hashArgs(args []uint32) uint32 {
	h := uint32(2166136261)
	for _, a := range args {
		h = (h ^ a) * 16777619
	}
	return (h ^ uint32(len(args))) * 16777619
}

// Checkpoint is the full machine state at an activation point plus the
// recorded operation log leading up to it. One checkpoint serves every
// target sharing the activation event: a PC's breakpoint, or the Nth
// call of a system call.
type Checkpoint struct {
	mem        *mem.Snapshot
	cpu        cpu.State
	cycleLimit uint64
	console    []byte
	frames     []faultFrame
	log        opLog
	at         resumePoint
}

// Cycles returns the cycle counter at the capture point (the
// activation cycle of every run resumed from this checkpoint).
func (cp *Checkpoint) Cycles() uint64 { return cp.cpu.Cycles }

// StartRecording begins logging engine-visible machine operations for
// a subsequent CaptureCheckpoint. It must bracket a whole run.
func (m *Machine) StartRecording() { m.rec = &recording{} }

// StopRecording discards any recording still active (the run finished
// without reaching its activation point, or the caller abandons the
// attempt).
func (m *Machine) StopRecording() { m.rec = nil }

// CaptureCheckpoint snapshots the machine mid-run. It must be called
// while a recording run is executing, before the fault takes effect:
// from the breakpoint hook, where the checkpoint resumes inside the
// in-flight top-level call, or from a SyscallHook, where it resumes at
// that system call's boundary. It ends the recording: the op log covers
// exactly the prefix up to this point.
func (m *Machine) CaptureCheckpoint() *Checkpoint {
	rec := m.rec
	if rec == nil {
		return nil
	}
	m.rec = nil
	return &Checkpoint{
		mem:        m.Mem.TakeSnapshot(),
		cpu:        m.CPU.CaptureState(),
		cycleLimit: m.CycleLimit,
		console:    append([]byte(nil), m.Console.Bytes()...),
		frames:     append([]faultFrame(nil), m.faultStack...),
		log:        rec.log,
		at:         rec.at,
	}
}

// RunWorkloadsFromCheckpoint runs the workloads exactly like
// RunWorkloads, but satisfies the prefix up to cp's activation point
// from the recorded log, then restores the checkpoint, calls applyFlip
// (the fault injection; it may be nil) and continues live to the
// outcome. At a system call boundary the restored machine consults
// SyscallHook, which must handle the call. If the replay diverges from
// the recording, the result's Err is the divergence error (wrapping
// ErrReplayDiverged) — never a counterfeit outcome.
func (m *Machine) RunWorkloadsFromCheckpoint(cp *Checkpoint, ws []Workload, applyFlip func(*Machine)) *RunResult {
	r := &replay{cp: cp, applyFlip: applyFlip}
	m.rep = r
	res := m.runWorkloads(ws)
	m.rep = nil
	if r.err == nil && !r.switched {
		r.failf("run finished after %d of %d recorded ops without reaching the checkpoint", r.i, len(cp.log.ops))
	}
	if r.err != nil {
		res.Err = r.err
	}
	return res
}

// replayCall satisfies a top-level kernel call during replay: consumed
// from the log while the prefix lasts, switched to live execution at
// the in-flight call the checkpoint interrupted.
func (m *Machine) replayCall(addr uint32, args []uint32) (uint32, error) {
	r := m.rep
	if r.err != nil {
		return 0, r.err
	}
	h := hashArgs(args)
	if r.i < len(r.cp.log.ops) {
		o := &r.cp.log.ops[r.i]
		if o.kind != opCall || o.addr != addr || o.arg != h {
			r.failf("op %d: got Call(%#x, args %#x), recorded %v(%#x, %#x)",
				r.i, addr, h, o.kind, o.addr, o.arg)
			return 0, r.err
		}
		r.i++
		return o.val, nil
	}
	if at := (resumePoint{id: addr, args: h}); at != r.cp.at {
		r.failf("%v at the end of the log, checkpoint resumes at %v", at, r.cp.at)
		return 0, r.err
	}
	return m.resumeCheckpoint(r)
}

// replaySyscall switches a replay to live execution at the system call
// boundary its checkpoint was captured at. The call must be the
// captured one, and the SyscallHook, consulted on the restored machine,
// must handle it.
func (m *Machine) replaySyscall(nr int, a [4]uint32) (int32, error) {
	r := m.rep
	if r.err != nil {
		return 0, r.err
	}
	if at := syscallPoint(nr, a); at != r.cp.at {
		r.failf("%v at the end of the log, checkpoint resumes at %v", at, r.cp.at)
		return 0, r.err
	}
	m.restoreCheckpoint(r)
	if m.SyscallHook != nil {
		if ret, handled := m.SyscallHook(nr, a); handled {
			return ret, nil
		}
	}
	r.failf("the SyscallHook did not handle %v, where the checkpoint was captured", r.cp.at)
	return 0, r.err
}

// restoreCheckpoint ends a replay's prefix: it restores the captured
// machine state and injects the fault, so execution continues live
// from the checkpoint's resume point.
func (m *Machine) restoreCheckpoint(r *replay) {
	cp := r.cp
	r.switched = true
	m.rep = nil // live execution from here on
	m.Mem.Restore(cp.mem)
	m.CPU.RestoreState(cp.cpu)
	m.CycleLimit = cp.cycleLimit
	m.PanicCode = 0
	m.Console.Reset()
	m.Console.Write(cp.console)
	m.faultStack = append(m.faultStack[:0], cp.frames...)
	m.faultDepth = len(cp.frames)
	if r.applyFlip != nil {
		r.applyFlip(m)
	}
}

// resumeCheckpoint restores the captured machine state, injects the
// fault, and finishes the interrupted call live — including unwinding
// any nested fault-handler frames exactly as the live path would.
func (m *Machine) resumeCheckpoint(r *replay) (uint32, error) {
	cp := r.cp
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
// these wrappers, which record results during a recording run and
// serve them back during the replay prefix. With neither active they
// are plain pass-throughs.

func (m *Machine) memRead32(addr uint32) (uint32, error) {
	if m.rep != nil {
		o := m.rep.next(opRead32, addr, 0)
		if o == nil {
			return 0, m.rep.err
		}
		_, err := m.rep.cp.log.result(o)
		return o.val, err
	}
	v, err := m.Mem.Read32(addr)
	if m.rec != nil {
		m.rec.log.add(op{kind: opRead32, addr: addr, val: v}, nil, err)
	}
	return v, err
}

func (m *Machine) memWrite32(addr, v uint32) error {
	if m.rep != nil {
		o := m.rep.next(opWrite32, addr, v)
		if o == nil {
			return m.rep.err
		}
		_, err := m.rep.cp.log.result(o)
		return err
	}
	err := m.Mem.Write32(addr, v)
	if m.rec != nil {
		m.rec.log.add(op{kind: opWrite32, addr: addr, arg: v}, nil, err)
	}
	return err
}

func (m *Machine) memReadBytes(addr, n uint32) ([]byte, error) {
	if m.rep != nil {
		o := m.rep.next(opReadBytes, addr, n)
		if o == nil {
			return nil, m.rep.err
		}
		// Copy: callers may mutate the returned slice, and the log is
		// shared by every replay of this checkpoint.
		buf, err := m.rep.cp.log.result(o)
		return append([]byte(nil), buf...), err
	}
	b, err := m.Mem.ReadBytes(addr, n)
	if m.rec != nil {
		m.rec.log.add(op{kind: opReadBytes, addr: addr, arg: n}, append([]byte(nil), b...), err)
	}
	return b, err
}

func (m *Machine) memWriteBytes(addr uint32, b []byte) error {
	if m.rep != nil {
		o := m.rep.next(opWriteBytes, addr, uint32(len(b)))
		if o == nil {
			return m.rep.err
		}
		_, err := m.rep.cp.log.result(o)
		return err
	}
	err := m.Mem.WriteBytes(addr, b)
	if m.rec != nil {
		m.rec.log.add(op{kind: opWriteBytes, addr: addr, arg: uint32(len(b))}, nil, err)
	}
	return err
}

func (m *Machine) memPermAt(addr uint32) mem.Perm {
	if m.rep != nil {
		o := m.rep.next(opPermAt, addr, 0)
		if o == nil {
			return 0
		}
		return mem.Perm(o.val)
	}
	p := m.Mem.PermAt(addr)
	if m.rec != nil {
		m.rec.log.add(op{kind: opPermAt, addr: addr, val: uint32(p)}, nil, nil)
	}
	return p
}

func (m *Machine) memIsMapped(addr uint32) bool {
	if m.rep != nil {
		o := m.rep.next(opIsMapped, addr, 0)
		if o == nil {
			return false
		}
		return o.flag
	}
	ok := m.Mem.IsMapped(addr)
	if m.rec != nil {
		m.rec.log.add(op{kind: opIsMapped, addr: addr, flag: ok}, nil, nil)
	}
	return ok
}

func (m *Machine) memProtect(addr, size uint32, perm mem.Perm) {
	if m.rep != nil {
		m.rep.next(opProtect, addr, size|uint32(perm)<<24)
		return
	}
	m.Mem.Protect(addr, size, perm)
	if m.rec != nil {
		m.rec.log.add(op{kind: opProtect, addr: addr, arg: size | uint32(perm)<<24}, nil, nil)
	}
}

func (m *Machine) addCycles(n uint64) {
	if m.rep != nil {
		m.rep.next(opAddCycles, uint32(n), 0)
		return
	}
	m.CPU.Cycles += n
	if m.rec != nil {
		m.rec.log.add(op{kind: opAddCycles, addr: uint32(n)}, nil, nil)
	}
}

func (m *Machine) interruptsEnabled() bool {
	if m.rep != nil {
		o := m.rep.next(opIntEnabled, 0, 0)
		if o == nil {
			return false
		}
		return o.flag
	}
	on := m.CPU.Eflags&interruptFlag != 0
	if m.rec != nil {
		m.rec.log.add(op{kind: opIntEnabled, flag: on}, nil, nil)
	}
	return on
}
