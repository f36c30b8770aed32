package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/cpu"
	"repro/internal/ia32"
	"repro/internal/mem"
)

// Hang fast-forward.
//
// A hang burns its whole watchdog budget. Fast-forward finds a stretch
// in which the machine provably repeats with some period, jumps the
// cycle counter over whole periods, and leaves the last period and the
// watchdog firing to real execution, so a hang's HangEIP, its severity
// fsck and every result byte come from the machine. One confirm-and-
// jump serves two kinds of stretch, each with its own proof mode:
//
//   - Idle hangs, in the engine loop's idle branch: every workload is
//     parked, and the machine ticks the timer and runs the scheduler
//     over and over. The state repeats every few ticks except jiffies,
//     which do_timer increments on every tick. The proof allows that
//     one difference: a repeat except jiffies.
//   - In-call hangs, inside one kernel call: a loop in the CPU, or an
//     instruction that keeps faulting at a user address that
//     do_page_fault reports handled. The proof is an exact repeat.
//
// Arming. Idle and CPU-loop detection act only once the cycle counter
// exceeds GoldenCycles, so a run that finishes like the golden run
// never arms them. Fault-retry detection acts from the run's start: its
// exact-repeat proof does not depend on the golden run's length, and a
// run that restarts one faulting instruction with identical registers
// twice in a row is rare unless it loops. Every mode acts only during
// live execution: never while the golden log is recorded or a
// checkpoint prefix is replayed or verified, never with a debug
// register enabled, and never inside an idle probe. A machine whose
// GoldenCycles is zero never arms; it is the reference arm. The idle
// detection's start or the first in-call reference, whichever comes
// first, takes the run's one memory snapshot, so from then on mem's
// dirty set is exactly the pages written since arming.
//
// The reference state. A proof takes one reference at a period's start:
// the registers, EIP, EFLAGS, fault depth, console length, PanicCode
// and every page written since arming (bytes, permission and mapping).
// The period is confirmed when its end matches the reference in all of
// them, where a page not yet written at the reference must still match
// the arming snapshot. The idle mode also lets jiffies grow by what the
// period's ticks added, and compares the engine's trace and live count.
//
// Exact mode. Inside one kernel call only CPU and memory state drive
// the machine: no timer tick, workload or syscall hook runs there,
// handleUserFault is deterministic, `in` reads a constant, and no
// instruction reads the cycle counter (RDTSC and RDPMC raise #UD; the
// cpu package's TestCycleCounterUnreadable pins this). So an exact
// repeat with period P cycles continues until the watchdog. Detection
// runs at two points of runToReturn:
//   - Loops in the CPU. Once the call has run ffCallCycles, each CPU.Run
//     stops at the next detection point. There a window of at most
//     ffWindowInsts single-stepped instructions looks for a repeat of the
//     registers, EIP and EFLAGS alone (Brent's doubling), takes the
//     reference at the repeat and runs one more candidate period to
//     confirm it. A window that does not jump is a miss and doubles the
//     distance to the call's next point.
//   - Fault-retry loops. After a handled user fault, runToReturn restarts
//     the faulting instruction. When the registers, EIP, EFLAGS and fault
//     depth there match the previous restart's, the reference is taken;
//     the next matching restart confirms it. This mode may arm before
//     GoldenCycles (see Arming).
//
// Idle mode. Every idle tick records a fingerprint: the registers,
// EFLAGS, the cycles spent since the previous idle tick, and the number
// of pages written since arming. When the last 2P fingerprints are
// P-periodic (P ≤ ffMaxPeriod), the next P ticks are a probe. The probe
// period runs on the single-step loop with a memory watch on the
// jiffies dword, and the proof accepts only two uses of jiffies:
//   - inc dword [jiffies], when the five flags it sets are overwritten
//     before any instruction reads them;
//   - a dword compare of jiffies with a register or an immediate, when
//     only the next instruction, a jcc, reads its flags. Every accepted
//     condition depends only on the unsigned or signed order of the two
//     operands, so the branch outcome holds while jiffies stays between
//     the same breakpoints (the other operand, one past it, 2^31 and 0).
//     That bounds the jump. Overflow, sign and parity conditions reject.
//
// Anything else rejects: a mov or partial-width access, any other
// write, a string or stack access overlapping the dword, a host-side
// access, port I/O, an exception, a system call. So no register, flag
// or other memory ever holds a value derived from jiffies, and a
// period started from the probe's end state takes the probe's exact
// path, as long as jiffies stays within the horizon: by induction,
// each later period ends where the probe did, with jiffies grown again
// by the same amount. The probe period must also cost the cycles the
// detected period did.
//
// Aging. agePages runs every 64 ticks, and an idle jump skips those
// passes. It may only skip passes that write nothing, so at every aging
// point of the probe no used task slot may have a present, writable PTE.
//
// Jump. k is the largest number of whole periods that leaves at least
// one full period before CycleLimit, and in idle mode also stays within
// every compare's horizon. Only the cycle counter moves in exact mode;
// idle mode also advances jiffies, the tick count and the aging slot as
// k concrete periods would. Each mode stops trying after ffMaxMisses
// attempts per run that end without a jump.

const (
	// ffMaxPeriod is the longest period, in idle ticks, detection looks
	// for.
	ffMaxPeriod = 64
	// ffMaxMisses caps the proof attempts per run and mode that end
	// without a jump, so a stretch that only looks periodic stays cheap.
	ffMaxMisses = 8
	// ffCallCycles is how long a kernel call runs before its first
	// detection point in the CPU, and the first back-off after a miss.
	// It keeps the idle loop's short calls (timer_interrupt, schedule)
	// out of detection.
	ffCallCycles = 65536
	// ffWindowInsts bounds the instructions a detection window
	// single-steps looking for a repeat of the registers.
	ffWindowInsts = 8192
)

// The proof attempts counted against ffMaxMisses, per run.
const (
	ffModeIdle  = iota // idle probes
	ffModeLoop         // detection windows in the CPU
	ffModeRetry        // fault-retry references
	ffModes
)

// fastForward is a run's fast-forward state, created when the run first
// may fast-forward.
type fastForward struct {
	snap    *mem.Snapshot // memory at arming; nil until first needed
	jiffies uint32        // address of the jiffies dword
	misses  [ffModes]int

	// The idle detection, started at the first idle tick past
	// GoldenCycles.
	idle bool
	hist [2 * ffMaxPeriod]ffPrint
	n    int    // fingerprints recorded since detection last started over
	last uint64 // cycle counter at the previous idle tick
	// resume delays detection to this tick count (the next aging pass)
	// after a probe was refused because aging still had work to do.
	resume uint64
	probe  *ffProbe
}

// ffPrint is the cheap fingerprint of one idle tick.
type ffPrint struct {
	regs    ffRegs
	cycles  uint64 // cycles spent since the previous idle tick
	written int    // pages written since arming
}

// ffProbe is an idle probe in progress: P ticks run under the proof,
// then compared against the state at their start.
type ffProbe struct {
	period int
	ticks  int    // probe ticks completed
	cost   uint64 // cycles of the detected period
	start  ffState
	trace  int    // engine trace length at the start
	nlive  int    // live workloads at the start
	intOn  []bool // per tick: interrupts were on, so aging could run
	proof  ffProof
}

// ffState is a proof's reference: the machine state at a period's
// start.
type ffState struct {
	regs      ffRegs
	cycles    uint64
	console   int
	panicCode int
	jiffies   uint32
	pages     map[uint32]ffPage // pages written since arming, as they were here
}

// ffRegs is the CPU-side state the detectors compare cheaply.
type ffRegs struct {
	regs       [8]uint32
	eip        uint32
	eflags     uint32
	faultDepth int
}

// ffPage is one page written since arming: its bytes (nil when
// unmapped) and permissions.
type ffPage struct {
	data []byte
	perm mem.Perm
}

func (m *Machine) ffRegs() ffRegs {
	return ffRegs{regs: m.CPU.Regs, eip: m.CPU.EIP, eflags: m.CPU.Eflags, faultDepth: m.faultDepth}
}

// SkippedCycles returns the simulated cycles hang fast-forward has
// jumped over on this machine, across all runs.
func (m *Machine) SkippedCycles() uint64 { return m.skipped }

// ffArm returns the run's fast-forward state when the machine may
// fast-forward now, creating it at the run's first such point; nil
// when it may not. Only the fault-retry mode (retry) may arm before
// GoldenCycles.
func (m *Machine) ffArm(retry bool) *fastForward {
	if m.GoldenCycles == 0 || !retry && m.CPU.Cycles <= m.GoldenCycles || m.rec != nil || m.rep != nil ||
		m.CPU.DREnabled != [4]bool{} || m.proof != nil {
		return nil
	}
	if m.ff == nil {
		m.ff = &fastForward{jiffies: m.Symbol("jiffies")}
	}
	return m.ff
}

// base returns the run's arming snapshot, taking it on first use.
func (f *fastForward) base(m *Machine) *mem.Snapshot {
	if f.snap == nil {
		f.snap = m.Mem.TakeSnapshot()
	}
	return f.snap
}

// ffCapture takes a proof reference of the current state.
func (m *Machine) ffCapture() ffState {
	f := m.ff
	changed := m.Mem.PagesChangedSince(f.base(m))
	st := ffState{regs: m.ffRegs(), cycles: m.CPU.Cycles, console: m.Console.Len(), panicCode: m.PanicCode}
	st.jiffies, _ = m.Mem.Read32(f.jiffies)
	st.pages = make(map[uint32]ffPage, len(changed))
	for pn := range changed {
		pg := ffPage{perm: m.Mem.PermAt(pn << PageShift)}
		if d := m.Mem.RawPage(pn); d != nil {
			pg.data = bytes.Clone(d)
		}
		st.pages[pn] = pg
	}
	return st
}

// ffSame reports whether the machine is back in reference state st,
// except that jiffies grew by d (0 in exact mode).
func (m *Machine) ffSame(st *ffState, d uint32) bool {
	return m.ffRegs() == st.regs && m.Console.Len() == st.console && m.PanicCode == st.panicCode &&
		m.ffSamePages(st, d)
}

// ffSamePages compares every page written since arming with the
// reference: identical, except that jiffies grew by d. A page first
// written after the reference compares with the arming snapshot.
func (m *Machine) ffSamePages(st *ffState, d uint32) bool {
	f := m.ff
	changed := m.Mem.PagesChangedSince(f.snap)
	jpn, joff := f.jiffies>>PageShift, f.jiffies&(PageSize-1)
	if _, ok := changed[jpn]; !ok && d != 0 {
		return false
	}
	for pn := range changed {
		ref, ok := st.pages[pn]
		if !ok {
			ref = ffPage{data: f.snap.RawPage(pn), perm: f.snap.PermAt(pn << PageShift)}
		}
		cur := m.Mem.RawPage(pn)
		if m.Mem.PermAt(pn<<PageShift) != ref.perm || (cur == nil) != (ref.data == nil) {
			return false
		}
		if cur == nil {
			continue // unmapped at both ends
		}
		if pn != jpn {
			if !bytes.Equal(cur, ref.data) {
				return false
			}
			continue
		}
		if !bytes.Equal(cur[:joff], ref.data[:joff]) || !bytes.Equal(cur[joff+4:], ref.data[joff+4:]) ||
			binary.LittleEndian.Uint32(cur[joff:]) != st.jiffies+d {
			return false
		}
	}
	return true
}

// ffPeriods returns how many whole periods of cost cycles a jump may
// cover: it leaves at least one full period before the watchdog.
func (m *Machine) ffPeriods(cost uint64) uint64 {
	if cost == 0 || m.CPU.Cycles >= m.CycleLimit {
		return 0
	}
	k := (m.CycleLimit - m.CPU.Cycles) / cost
	if k < 2 {
		return 0
	}
	return k - 1
}

// ffJump advances the cycle counter by k periods of cost cycles.
func (m *Machine) ffJump(k, cost uint64) {
	m.CPU.Cycles += k * cost
	m.skipped += k * cost
}

// ffConfirm is exact mode's confirm-and-jump: when the machine is back
// in reference state ref, it jumps whole periods and reports true.
func (m *Machine) ffConfirm(ref *ffState) bool {
	cost := m.CPU.Cycles - ref.cycles
	if !m.ffSame(ref, 0) {
		return false
	}
	k := m.ffPeriods(cost)
	if k == 0 {
		return false
	}
	m.ffJump(k, cost)
	return true
}

// ffCall is one kernel call's in-call detection state: runToReturn
// keeps one per invocation.
type ffCall struct {
	next uint64 // cycle of the next detection point in the CPU
	gap  uint64 // distance to the point after a miss
	done bool   // the call jumped: what is left runs live
	// The fault-retry detector: the registers at the previous restart,
	// and a reference awaiting its confirmation.
	prev ffRegs
	seen bool
	ref  *ffState
}

// ffCallStart starts a call's detection: its first point in the CPU is
// due once it has run ffCallCycles and the run is past GoldenCycles. A
// machine that never arms gets no point, so its CPU.Run is never cut.
func (m *Machine) ffCallStart() ffCall {
	c := ffCall{next: math.MaxUint64, gap: ffCallCycles}
	if m.GoldenCycles != 0 {
		c.next = m.CPU.Cycles + ffCallCycles
		if c.next <= m.GoldenCycles {
			c.next = m.GoldenCycles + 1
		}
	}
	return c
}

// budget is the budget of the call's next CPU.Run: up to its next
// detection point, or to the watchdog when that comes first.
func (c *ffCall) budget(m *Machine) uint64 {
	b := m.remainingBudget()
	if d := c.next - m.CPU.Cycles; d < b {
		return d
	}
	return b
}

// ffDue reports whether a detection window runs now. A point at which
// the machine may not fast-forward yet (a verified prefix may end
// within the call) moves one gap on.
func (m *Machine) ffDue(c *ffCall) bool {
	if m.CPU.Cycles < c.next {
		return false
	}
	f := m.ffArm(false)
	switch {
	case f == nil:
		c.next = m.CPU.Cycles + c.gap
		return false
	case f.misses[ffModeLoop] >= ffMaxMisses:
		c.next = math.MaxUint64
		return false
	}
	return true
}

// ffLoop runs a detection window in the CPU. The window is real
// execution: it stops wherever CPU.Run would.
func (m *Machine) ffLoop(c *ffCall) (cpu.StopReason, *cpu.Exception) {
	w := ffWindow{m: m, left: ffWindowInsts, power: 1, lam: 1, tort: m.ffRegs()}
	reason, exc := stepRun(m.CPU, m.remainingBudget(), &w)
	if w.ref != nil && w.left == 0 && reason == cpu.StopBudget && m.ffConfirm(w.ref) {
		c.done, c.next = true, math.MaxUint64
		return reason, exc
	}
	m.ff.misses[ffModeLoop]++
	c.gap *= 2
	c.next = m.CPU.Cycles + c.gap
	return reason, exc
}

// ffWindow observes a detection window: Brent's cycle search over the
// registers, then, from the reference, one candidate period.
type ffWindow struct {
	m          *Machine
	left       int // instructions left in the search, then in the period
	power, lam int
	tort       ffRegs
	ref        *ffState
}

func (w *ffWindow) before(*cpu.CPU) {}

func (w *ffWindow) after(_ *cpu.CPU, err error) bool {
	if err != nil {
		return true
	}
	w.left--
	if w.ref != nil {
		return w.left == 0
	}
	r := w.m.ffRegs()
	if r == w.tort {
		st := w.m.ffCapture()
		w.ref, w.left = &st, w.lam
		return false
	}
	if w.left == 0 {
		return true
	}
	if w.power == w.lam {
		w.tort, w.power, w.lam = r, 2*w.power, 0
	}
	w.lam++
	return false
}

// ffRetry is the fault-retry detection point: runToReturn is about to
// restart an instruction whose user fault was handled.
func (m *Machine) ffRetry(c *ffCall) {
	f := m.ffArm(true)
	if c.done || f == nil || f.misses[ffModeRetry] >= ffMaxMisses {
		c.seen, c.ref = false, nil
		return
	}
	r := m.ffRegs()
	switch {
	case !c.seen || r != c.prev:
		if c.ref != nil {
			f.misses[ffModeRetry]++
			c.ref = nil
		}
	case c.ref == nil:
		st := m.ffCapture()
		c.ref = &st
	case m.ffConfirm(c.ref):
		c.done, c.next, c.ref = true, math.MaxUint64, nil
	default:
		f.misses[ffModeRetry]++
		c.ref = nil
	}
	c.prev, c.seen = r, true
}

// stepObserver watches a single-stepped stretch of kernel code.
type stepObserver interface {
	// before runs before every instruction.
	before(c *cpu.CPU)
	// after runs after it, with Step's error; true ends the stretch.
	after(c *cpu.CPU, err error) bool
}

// stepRun is the single-step reference loop (cpu.CPU.Run with blocks
// off) with o observing every instruction. It stops where Run would,
// and also when o ends the stretch, then with StopBudget short of the
// budget.
func stepRun(c *cpu.CPU, budget uint64, o stepObserver) (cpu.StopReason, *cpu.Exception) {
	limit := c.Cycles + budget
	for c.Cycles < limit {
		if c.EIP == cpu.HostReturn {
			return cpu.StopReturned, nil
		}
		if c.Stop != nil && c.Stop.Load() {
			return cpu.StopInterrupted, nil
		}
		o.before(c)
		err := c.Step()
		end := o.after(c, err)
		if err != nil {
			if errors.Is(err, cpu.ErrHalted) {
				return cpu.StopHalted, nil
			}
			var exc *cpu.Exception
			if errors.As(err, &exc) {
				return cpu.StopException, exc
			}
			return cpu.StopException, &cpu.Exception{Vector: cpu.VecDF, EIP: c.EIP}
		}
		if end {
			break
		}
	}
	if c.EIP == cpu.HostReturn {
		return cpu.StopReturned, nil
	}
	return cpu.StopBudget, nil
}

// ffProof observes an idle probe period instruction by instruction.
type ffProof struct {
	addr    uint32 // the jiffies dword
	jiffies uint32 // its value, tracked through the accepted incs
	incs    uint32
	// horizon is the largest advance of jiffies that keeps the jcc after
	// every observed compare on the branch the probe took.
	horizon uint32
	// taint holds the arithmetic flags whose value derives from jiffies.
	taint uint32
	// cmp reports that the previous instruction was an accepted compare
	// of jiffies (value cmpJ) with cmpX.
	cmp        bool
	cmpJ, cmpX uint32

	inStep        bool
	inst          ia32.Inst
	reads, writes int // watched accesses by the instruction in flight
	// bad records that the period did something the proof does not
	// accept; the probe then ends without a jump.
	bad bool
}

const (
	arithFlags = cpu.FlagCF | cpu.FlagPF | cpu.FlagAF | cpu.FlagZF | cpu.FlagSF | cpu.FlagOF
	incFlags   = arithFlags &^ cpu.FlagCF
)

// access is the memory watch on the jiffies dword.
func (p *ffProof) access(addr, n uint32, acc mem.Access) {
	switch {
	case !p.inStep || addr != p.addr || n != 4:
		p.bad = true // a host-side, partial-width or multi-dword access
	case acc == mem.AccessRead:
		p.reads++
	case acc == mem.AccessWrite:
		p.writes++
	default:
		p.bad = true
	}
}

// before checks the instruction about to execute; from here on, a
// watched access is the instruction's own.
func (p *ffProof) before(c *cpu.CPU) {
	p.check(c)
	p.inStep = true
}

// check decodes the instruction about to execute and checks its flag
// reads against the taint.
func (p *ffProof) check(c *cpu.CPU) {
	p.reads, p.writes = 0, 0
	p.inst = ia32.Inst{}
	var buf [ia32.MaxInstLen]byte
	n, err := c.Mem.Fetch(c.EIP, buf[:])
	if err != nil {
		p.bad = true
		return
	}
	inst, err := ia32.Decode(buf[:n])
	if err != nil {
		p.bad = true
		return
	}
	p.inst = inst
	if inst.Op == ia32.OpIn || inst.Op == ia32.OpOut {
		p.bad = true
	}
	reads := flagsRead(&inst)
	if p.cmp {
		p.cmp = false
		if inst.Op == ia32.OpJcc {
			if !orderCond(inst.Cond) {
				p.bad = true
			}
			p.bound(p.cmpJ, p.cmpX)
			reads = 0
		}
	}
	if reads&p.taint != 0 {
		p.bad = true // flags derived from jiffies are read
	}
}

// after retires the instruction: flags it overwrote lose their taint,
// and an accepted use of jiffies adds its own. A faulting instruction
// rejects the probe.
func (p *ffProof) after(c *cpu.CPU, err error) bool {
	p.inStep = false
	if err != nil {
		p.bad = true
		return false
	}
	i := &p.inst
	p.taint &^= flagsWritten(i)
	if p.reads+p.writes == 0 {
		return false
	}
	switch {
	case i.Op == ia32.OpInc && !i.W8 && p.reads == 1 && p.writes == 1:
		p.incs++
		p.jiffies++
		p.taint |= incFlags
	case i.Op == ia32.OpCmp && !i.W8 && p.reads == 1 && p.writes == 0:
		var x uint32
		switch {
		case i.Args[0].Kind == ia32.KindMem && i.HasImm:
			x = uint32(i.Imm)
		case i.Args[0].Kind == ia32.KindMem && i.Args[1].Kind == ia32.KindReg:
			x = c.Regs[i.Args[1].Reg]
		case i.Args[1].Kind == ia32.KindMem && i.Args[0].Kind == ia32.KindReg:
			x = c.Regs[i.Args[0].Reg]
		default:
			p.bad = true
			return false
		}
		p.cmp, p.cmpJ, p.cmpX = true, p.jiffies, x
		p.taint |= arithFlags
	default:
		p.bad = true // any other use: a mov, a string or stack access, a write
	}
	return false
}

// bound narrows the horizon so that jiffies, starting from j, stays in
// the interval between consecutive breakpoints of {x, x+1, 2^31, 0}
// that holds j: the unsigned and signed order of j and x, and with it
// every accepted condition, is constant there.
func (p *ffProof) bound(j, x uint32) {
	for _, b := range [...]uint32{x, x + 1, 1 << 31, 0} {
		if d := b - j; d != 0 && d-1 < p.horizon {
			p.horizon = d - 1
		}
	}
}

// orderCond reports whether a condition depends only on the order of a
// compare's operands: not overflow, sign or parity.
func orderCond(c ia32.Cond) bool {
	switch c {
	case ia32.CondO, ia32.CondNO, ia32.CondS, ia32.CondNS, ia32.CondP, ia32.CondNP:
		return false
	}
	return true
}

// condFlags returns the flags a condition code reads.
func condFlags(c ia32.Cond) uint32 {
	switch c >> 1 {
	case 0:
		return cpu.FlagOF
	case 1:
		return cpu.FlagCF
	case 2:
		return cpu.FlagZF
	case 3:
		return cpu.FlagCF | cpu.FlagZF
	case 4:
		return cpu.FlagSF
	case 5:
		return cpu.FlagPF
	case 6:
		return cpu.FlagSF | cpu.FlagOF
	}
	return cpu.FlagZF | cpu.FlagSF | cpu.FlagOF
}

// flagsRead over-approximates the arithmetic flags an instruction
// reads, following cpu.exec.
func flagsRead(i *ia32.Inst) uint32 {
	switch i.Op {
	case ia32.OpJcc, ia32.OpSetcc:
		return condFlags(i.Cond)
	case ia32.OpAdc, ia32.OpSbb, ia32.OpRcl, ia32.OpRcr, ia32.OpCmc:
		return cpu.FlagCF
	case ia32.OpInto:
		return cpu.FlagOF
	case ia32.OpLahf:
		return arithFlags &^ cpu.FlagOF
	case ia32.OpPushf:
		return arithFlags
	case ia32.OpScas, ia32.OpCmps:
		if i.Rep != ia32.RepNone {
			return cpu.FlagZF
		}
	}
	return 0
}

// flagsWritten under-approximates the arithmetic flags an instruction
// always overwrites, following cpu.exec. Shifts and rotates may leave
// every flag alone (a zero count), so they count as writing none.
func flagsWritten(i *ia32.Inst) uint32 {
	switch i.Op {
	case ia32.OpAdd, ia32.OpAdc, ia32.OpSub, ia32.OpSbb, ia32.OpCmp, ia32.OpNeg,
		ia32.OpAnd, ia32.OpOr, ia32.OpXor, ia32.OpTest, ia32.OpPopf:
		return arithFlags
	case ia32.OpInc, ia32.OpDec:
		return incFlags
	case ia32.OpMul, ia32.OpImul1, ia32.OpImul2, ia32.OpImul3:
		return cpu.FlagCF | cpu.FlagOF
	case ia32.OpSahf:
		return arithFlags &^ cpu.FlagOF
	case ia32.OpClc, ia32.OpStc, ia32.OpCmc:
		return cpu.FlagCF
	case ia32.OpScas, ia32.OpCmps:
		if i.Rep == ia32.RepNone {
			return arithFlags
		}
	}
	return 0
}

// ffIdle is the fast-forward step at the top of every idle tick.
func (e *engine) ffIdle() {
	m := e.m
	f := m.ff
	if f == nil || !f.idle {
		if f = m.ffArm(false); f != nil {
			f.base(m)
			f.idle, f.last = true, m.CPU.Cycles
		}
		return
	}
	if f.misses[ffModeIdle] >= ffMaxMisses {
		return
	}
	if pr := f.probe; pr != nil {
		if pr.ticks++; pr.ticks == pr.period {
			e.ffFinish()
		}
		return
	}
	fp := ffPrint{regs: m.ffRegs(), cycles: m.CPU.Cycles - f.last, written: m.Mem.DirtyCount()}
	f.last = m.CPU.Cycles
	if e.ticks < f.resume {
		return
	}
	f.hist[f.n%len(f.hist)] = fp
	f.n++
	if p := f.period(); p > 0 {
		e.ffProbe(p)
	}
}

// period returns the smallest P for which the last 2P fingerprints are
// P-periodic, or 0.
func (f *fastForward) period() int {
	at := func(ago int) *ffPrint { return &f.hist[(f.n-1-ago)%len(f.hist)] }
	for p := 1; p <= ffMaxPeriod && 2*p <= f.n; p++ {
		i := 0
		for i < p && *at(i) == *at(i + p) {
			i++
		}
		if i == p {
			return p
		}
	}
	return 0
}

// ffProbe starts a probe of period p at the current idle tick.
func (e *engine) ffProbe(p int) {
	m := e.m
	f := m.ff
	pr := &ffProbe{period: p, intOn: make([]bool, p), trace: len(e.trace), nlive: e.nlive}
	for i := 0; i < p; i++ {
		pr.cost += f.hist[(f.n-1-i)%len(f.hist)].cycles
	}
	f.n = 0
	if m.CPU.Eflags&interruptFlag != 0 && !e.agingIdle() {
		// A pass would still write-protect pages: try again after it.
		f.resume = (e.ticks/64 + 1) * 64
		return
	}
	pr.start = m.ffCapture()
	pr.proof = ffProof{addr: f.jiffies, jiffies: pr.start.jiffies, horizon: math.MaxUint32}
	f.probe = pr
	m.proof = &pr.proof
	m.Mem.SetWatch(f.jiffies, 4, pr.proof.access)
}

// ffAging is called at the aging point of every tick with interrupts
// on: a probe records that aging could run here and requires that it
// would write nothing.
func (e *engine) ffAging() {
	pr := e.m.ff.probe
	pr.intOn[pr.ticks] = true
	if !e.agingIdle() {
		pr.proof.bad = true
	}
}

// agingIdle reports whether agePages would write nothing for any slot:
// no used task slot has a present, writable PTE.
func (e *engine) agingIdle() bool {
	for s := 0; s < NTasks; s++ {
		base := e.m.TaskAddr(s)
		if st, _ := e.m.Mem.Read32(base + TaskState); st == TaskUnused {
			continue
		}
		for i := uint32(0); i < NPTEs; i++ {
			pte, err := e.m.Mem.Read32(base + TaskPTEs + i*4)
			if err == nil && pte&PTEPresent != 0 && pte&PTEWrite != 0 {
				return false
			}
		}
	}
	return true
}

// ffBreak ends an idle stretch: a workload is about to run, and host
// state the fingerprints cannot see moves with it.
func (e *engine) ffBreak() {
	if f := e.m.ff; f != nil {
		e.ffStop()
		f.n = 0
	}
}

// ffStop abandons a probe in progress: the run ended or a workload ran.
func (e *engine) ffStop() {
	if f := e.m.ff; f != nil && f.probe != nil {
		e.ffEndProbe()
		f.misses[ffModeIdle]++
	}
}

// ffEndProbe takes the proof off the machine and starts detection over.
func (e *engine) ffEndProbe() *ffProbe {
	f := e.m.ff
	pr := f.probe
	e.m.Mem.ClearWatch()
	e.m.proof = nil
	f.probe = nil
	f.n = 0
	f.last = e.m.CPU.Cycles
	return pr
}

// ffFinish judges a completed probe and jumps when it holds.
func (e *engine) ffFinish() {
	pr := e.ffEndProbe()
	if k := e.ffJumpLen(pr); k > 0 {
		e.ffJumpIdle(pr, k)
	} else {
		e.m.ff.misses[ffModeIdle]++
	}
}

// ffJumpLen returns how many whole periods after the probe the machine
// provably repeats, leaving one full period before the watchdog; 0
// when the probe does not hold.
func (e *engine) ffJumpLen(pr *ffProbe) uint64 {
	m, p := e.m, &pr.proof
	cost := m.CPU.Cycles - pr.start.cycles
	if p.bad || p.taint != 0 || cost != pr.cost || len(e.trace) != pr.trace || e.nlive != pr.nlive ||
		!m.ffSame(&pr.start, p.incs) {
		return 0
	}
	k := m.ffPeriods(cost)
	if p.incs > 0 && uint64(p.horizon/p.incs) < k {
		k = uint64(p.horizon / p.incs)
	}
	return k
}

// ffJumpIdle advances the machine by k periods of the proven idle
// stretch: jiffies, the cycle counter, the tick count and the aging
// slot move exactly as k concrete periods would have moved them.
func (e *engine) ffJumpIdle(pr *ffProbe, k uint64) {
	m := e.m
	f := m.ff
	p := uint64(pr.period)
	j, _ := m.Mem.Read32(f.jiffies)
	_ = m.Mem.Write32(f.jiffies, j+uint32(k*uint64(pr.proof.incs)))
	m.ffJump(k, m.CPU.Cycles-pr.start.cycles)
	// Tick ticks+i runs at phase (i-1) mod p of the period; agePages
	// runs (and moves ageSlot) on multiples of 64 with interrupts on.
	end := e.ticks + k*p
	for t := (e.ticks/64 + 1) * 64; t <= end; t += 64 {
		if pr.intOn[(t-e.ticks-1)%p] {
			e.ageSlot++
		}
	}
	e.ticks = end
	f.last = m.CPU.Cycles
}
