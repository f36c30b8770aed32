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
// A hang burns its whole watchdog budget, and most hangs spend nearly
// all of it in the engine loop's idle branch: every workload is
// parked, and the machine ticks the timer and runs the scheduler over
// and over. There the machine state repeats every few ticks, except
// jiffies, which do_timer increments on every tick. Fast-forward
// detects such a stretch, proves on one concrete period that jiffies
// cannot change the path the machine takes within the jump, and then
// advances jiffies, the cycle counter and the engine's tick counters
// by k whole periods at once. Everything after the jump, the watchdog
// firing included, is real execution, so a hang's HangEIP, its
// severity fsck and every result byte come from the machine.
//
// Arming. The engine arms at the first idle tick whose cycle counter
// exceeds GoldenCycles, so a run that finishes like the golden run
// never arms. It arms only during live execution: never while a
// checkpoint prefix is recorded or replayed, and never with a debug
// register enabled. Arming takes a memory snapshot, so from then on
// mem's dirty set is exactly the pages written since arming.
//
// Detection. Every idle tick records a fingerprint: the registers,
// EFLAGS, the cycles spent since the previous idle tick, and the
// number of pages written since arming. When the last 2P fingerprints
// are P-periodic (P ≤ ffMaxPeriod), the next P ticks are a probe.
//
// Probe. The probe period runs on the single-step loop with a memory
// watch on the jiffies dword. At its end the state must equal the
// state at its start exactly: the registers and EFLAGS, the console,
// PanicCode, the engine trace and live count, and every page written
// since arming (bytes, permission and mapping), except the jiffies
// dword, which must have grown by the number of incs the probe saw.
// The probe period must also cost the cycles the detected period did.
// The proof accepts only two uses of jiffies:
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
// by the same amount.
//
// Aging. agePages runs every 64 ticks, and a jump skips those passes.
// It may only skip passes that write nothing, so at every aging point
// of the probe no used task slot may have a present, writable PTE.
//
// Jump. k is the largest number of whole periods that stays within
// every compare's horizon and leaves at least one full period before
// CycleLimit. Detection starts over after every probe, jump or not.

const (
	// ffMaxPeriod is the longest period, in idle ticks, detection looks
	// for.
	ffMaxPeriod = 64
	// ffMaxMisses caps the probes per run that end without a jump, so
	// a stretch that only looks periodic stays cheap.
	ffMaxMisses = 8
)

// ffPrint is the cheap fingerprint of one idle tick.
type ffPrint struct {
	regs    [8]uint32
	eip     uint32
	eflags  uint32
	cycles  uint64 // cycles spent since the previous idle tick
	written int    // pages written since arming
}

// fastForward is the engine's per-run fast-forward state, created when
// the run arms.
type fastForward struct {
	snap    *mem.Snapshot
	jiffies uint32 // address of the jiffies dword
	hist    [2 * ffMaxPeriod]ffPrint
	n       int    // fingerprints recorded since detection last started over
	last    uint64 // cycle counter at the previous idle tick
	misses  int
	// resume delays detection to this tick count (the next aging pass)
	// after a probe was refused because aging still had work to do.
	resume uint64
	probe  *ffProbe
}

// ffProbe is a probe in progress: P ticks run under the proof, then
// compared against the state at their start.
type ffProbe struct {
	period int
	ticks  int    // probe ticks completed
	cost   uint64 // cycles of the detected period
	start  ffState
	intOn  []bool // per tick: interrupts were on, so aging could run
	proof  ffProof
}

// ffState is the exact machine and engine state at a probe's start.
type ffState struct {
	regs      [8]uint32
	eip       uint32
	eflags    uint32
	cycles    uint64
	jiffies   uint32
	console   int
	trace     int
	nlive     int
	panicCode int
	pages     map[uint32]ffPage
}

// ffPage is one page written since arming: its bytes (nil when
// unmapped) and permissions.
type ffPage struct {
	data []byte
	perm mem.Perm
}

// ffProof observes the probe period instruction by instruction.
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

// run is the single-step reference loop (cpu.CPU.Run with blocks off)
// with the proof observing every instruction.
func (p *ffProof) run(c *cpu.CPU, budget uint64) (cpu.StopReason, *cpu.Exception) {
	limit := c.Cycles + budget
	for c.Cycles < limit {
		if c.EIP == cpu.HostReturn {
			return cpu.StopReturned, nil
		}
		if c.Stop != nil && c.Stop.Load() {
			return cpu.StopInterrupted, nil
		}
		p.before(c)
		p.inStep = true
		err := c.Step()
		p.inStep = false
		if err != nil {
			p.bad = true
			if errors.Is(err, cpu.ErrHalted) {
				return cpu.StopHalted, nil
			}
			var exc *cpu.Exception
			if errors.As(err, &exc) {
				return cpu.StopException, exc
			}
			return cpu.StopException, &cpu.Exception{Vector: cpu.VecDF, EIP: c.EIP}
		}
		p.after(c)
	}
	if c.EIP == cpu.HostReturn {
		return cpu.StopReturned, nil
	}
	return cpu.StopBudget, nil
}

// before decodes the instruction about to execute and checks its flag
// reads against the taint.
func (p *ffProof) before(c *cpu.CPU) {
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
// and an accepted use of jiffies adds its own.
func (p *ffProof) after(c *cpu.CPU) {
	i := &p.inst
	p.taint &^= flagsWritten(i)
	if p.reads+p.writes == 0 {
		return
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
			return
		}
		p.cmp, p.cmpJ, p.cmpX = true, p.jiffies, x
		p.taint |= arithFlags
	default:
		p.bad = true // any other use: a mov, a string or stack access, a write
	}
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

// SkippedCycles returns the simulated cycles hang fast-forward has
// jumped over on this machine, across all runs.
func (m *Machine) SkippedCycles() uint64 { return m.skipped }

// ffIdle is the fast-forward step at the top of every idle tick.
func (e *engine) ffIdle() {
	f, m := e.ff, e.m
	if f == nil {
		if m.GoldenCycles == 0 || m.CPU.Cycles <= m.GoldenCycles ||
			m.rec != nil || m.rep != nil || m.CPU.DREnabled != [4]bool{} {
			return
		}
		e.ff = &fastForward{snap: m.Mem.TakeSnapshot(), jiffies: m.Symbol("jiffies"), last: m.CPU.Cycles}
		return
	}
	if f.misses >= ffMaxMisses {
		return
	}
	if pr := f.probe; pr != nil {
		if pr.ticks++; pr.ticks == pr.period {
			e.ffFinish()
		}
		return
	}
	fp := ffPrint{
		regs: m.CPU.Regs, eip: m.CPU.EIP, eflags: m.CPU.Eflags,
		cycles: m.CPU.Cycles - f.last, written: m.Mem.DirtyCount(),
	}
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
	f, m := e.ff, e.m
	pr := &ffProbe{period: p, intOn: make([]bool, p)}
	for i := 0; i < p; i++ {
		pr.cost += f.hist[(f.n-1-i)%len(f.hist)].cycles
	}
	f.n = 0
	if m.CPU.Eflags&interruptFlag != 0 && !e.agingIdle() {
		// A pass would still write-protect pages: try again after it.
		f.resume = (e.ticks/64 + 1) * 64
		return
	}
	changed, _ := m.Mem.PagesChangedSince(f.snap) // ffSamePages checks ok
	st := &pr.start
	st.regs, st.eip, st.eflags, st.cycles = m.CPU.Regs, m.CPU.EIP, m.CPU.Eflags, m.CPU.Cycles
	st.console, st.trace, st.nlive, st.panicCode = m.Console.Len(), len(e.trace), e.nlive, m.PanicCode
	st.jiffies, _ = m.Mem.Read32(f.jiffies)
	st.pages = make(map[uint32]ffPage, len(changed))
	for pn := range changed {
		pg := ffPage{perm: m.Mem.PermAt(pn << PageShift)}
		if d := m.Mem.RawPage(pn); d != nil {
			pg.data = bytes.Clone(d)
		}
		st.pages[pn] = pg
	}
	pr.proof = ffProof{addr: f.jiffies, jiffies: st.jiffies, horizon: math.MaxUint32}
	f.probe = pr
	m.proof = &pr.proof
	m.Mem.SetWatch(f.jiffies, 4, pr.proof.access)
}

// ffAging is called at the aging point of every tick with interrupts
// on: a probe records that aging could run here and requires that it
// would write nothing.
func (e *engine) ffAging() {
	pr := e.ff.probe
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
	if e.ff != nil {
		e.ffStop()
		e.ff.n = 0
	}
}

// ffStop abandons a probe in progress: the run ended or a workload ran.
func (e *engine) ffStop() {
	if e.ff != nil && e.ff.probe != nil {
		e.ffEndProbe()
		e.ff.misses++
	}
}

// ffEndProbe takes the proof off the machine and starts detection over.
func (e *engine) ffEndProbe() *ffProbe {
	f := e.ff
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
		e.ffJump(pr, k)
	} else {
		e.ff.misses++
	}
}

// ffJumpLen returns how many whole periods after the probe the machine
// provably repeats, leaving one full period before the watchdog; 0
// when the probe does not hold.
func (e *engine) ffJumpLen(pr *ffProbe) uint64 {
	m, st, p := e.m, &pr.start, &pr.proof
	cost := m.CPU.Cycles - st.cycles
	if p.bad || p.taint != 0 || cost != pr.cost || cost == 0 ||
		m.CPU.Regs != st.regs || m.CPU.EIP != st.eip || m.CPU.Eflags != st.eflags ||
		m.Console.Len() != st.console || len(e.trace) != st.trace || e.nlive != st.nlive ||
		m.PanicCode != st.panicCode || m.faultDepth != 0 ||
		!e.ffSamePages(st, p.incs) {
		return 0
	}
	if m.CPU.Cycles >= m.CycleLimit {
		return 0
	}
	k := (m.CycleLimit - m.CPU.Cycles) / cost
	if k < 2 {
		return 0
	}
	k--
	if p.incs > 0 && uint64(p.horizon/p.incs) < k {
		k = uint64(p.horizon / p.incs)
	}
	return k
}

// ffSamePages compares every page written since arming with the probe's
// start: identical, except that jiffies grew by d.
func (e *engine) ffSamePages(st *ffState, d uint32) bool {
	f, m := e.ff, e.m
	changed, ok := m.Mem.PagesChangedSince(f.snap)
	if !ok || len(changed) != len(st.pages) {
		return false
	}
	jpn, joff := f.jiffies>>PageShift, f.jiffies&(PageSize-1)
	if _, ok := st.pages[jpn]; !ok && d != 0 {
		return false
	}
	for pn := range changed {
		pg, ok := st.pages[pn]
		cur := m.Mem.RawPage(pn)
		if !ok || m.Mem.PermAt(pn<<PageShift) != pg.perm || (cur == nil) != (pg.data == nil) {
			return false
		}
		if cur == nil {
			continue // unmapped at both ends
		}
		if pn != jpn {
			if !bytes.Equal(cur, pg.data) {
				return false
			}
			continue
		}
		if !bytes.Equal(cur[:joff], pg.data[:joff]) || !bytes.Equal(cur[joff+4:], pg.data[joff+4:]) ||
			binary.LittleEndian.Uint32(cur[joff:]) != st.jiffies+d {
			return false
		}
	}
	return true
}

// ffJump advances the machine by k periods of the proven stretch:
// jiffies, the cycle counter, the tick count and the aging slot move
// exactly as k concrete periods would have moved them.
func (e *engine) ffJump(pr *ffProbe, k uint64) {
	f, m := e.ff, e.m
	p := uint64(pr.period)
	cost := m.CPU.Cycles - pr.start.cycles
	j, _ := m.Mem.Read32(f.jiffies)
	_ = m.Mem.Write32(f.jiffies, j+uint32(k*uint64(pr.proof.incs)))
	m.CPU.Cycles += k * cost
	m.skipped += k * cost
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
