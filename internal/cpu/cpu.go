// Package cpu implements the simulated IA-32 processor core: register
// file, EFLAGS, instruction execution, exceptions, debug registers
// (used by the error injector to trigger on a target instruction
// address, like the paper's injection driver), and a cycle counter
// (the paper's performance counter, used to measure crash latency).
package cpu

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ia32"
	"repro/internal/mem"
)

// EFLAGS bit positions.
const (
	FlagCF uint32 = 1 << 0
	FlagPF uint32 = 1 << 2
	FlagAF uint32 = 1 << 4
	FlagZF uint32 = 1 << 6
	FlagSF uint32 = 1 << 7
	FlagTF uint32 = 1 << 8
	FlagIF uint32 = 1 << 9
	FlagDF uint32 = 1 << 10
	FlagOF uint32 = 1 << 11
)

// Exception vectors (IA-32 numbering).
const (
	VecDE = 0  // divide error
	VecDB = 1  // debug
	VecBP = 3  // breakpoint (int3)
	VecOF = 4  // overflow (into)
	VecBR = 5  // bounds check
	VecUD = 6  // invalid opcode
	VecNM = 7  // device not available
	VecDF = 8  // double fault
	VecCS = 9  // coprocessor segment overrun
	VecTS = 10 // invalid TSS
	VecNP = 11 // segment not present
	VecSS = 12 // stack exception
	VecGP = 13 // general protection fault
	VecPF = 14 // page fault
)

// VectorName returns the human-readable trap name used in crash reports.
func VectorName(v int) string {
	switch v {
	case VecDE:
		return "divide error"
	case VecDB:
		return "debug"
	case VecBP:
		return "int3"
	case VecOF:
		return "overflow"
	case VecBR:
		return "bounds"
	case VecUD:
		return "invalid opcode"
	case VecNM:
		return "device not available"
	case VecDF:
		return "double fault"
	case VecCS:
		return "coprocessor segment overrun"
	case VecTS:
		return "invalid TSS"
	case VecNP:
		return "segment not present"
	case VecSS:
		return "stack exception"
	case VecGP:
		return "general protection fault"
	case VecPF:
		return "page fault"
	}
	return fmt.Sprintf("vector %d", v)
}

// Exception is a CPU exception. It satisfies error; the run loop and the
// crash handler inspect it to classify crashes.
type Exception struct {
	Vector int
	EIP    uint32 // address of the faulting instruction
	Addr   uint32 // faulting linear address (page faults)
	Write  bool   // page fault was a write
}

func (e *Exception) Error() string {
	if e.Vector == VecPF {
		return fmt.Sprintf("cpu: %s at eip 0x%08x, virtual address 0x%08x",
			VectorName(e.Vector), e.EIP, e.Addr)
	}
	return fmt.Sprintf("cpu: %s at eip 0x%08x", VectorName(e.Vector), e.EIP)
}

// ErrHalted is returned when the CPU executes HLT; outside an idle loop
// this leaves the system non-operational (a hang in the study's
// taxonomy).
var ErrHalted = errors.New("cpu: halted")

// CPU is the simulated processor.
type CPU struct {
	Regs   [8]uint32 // EAX..EDI, indexed by ia32.Reg
	EIP    uint32
	Eflags uint32
	Mem    *mem.Memory

	// Cycles is the performance counter: it advances with every
	// executed instruction and memory access.
	Cycles uint64

	// Debug registers: execute breakpoints (DR0-DR3 analog).
	DR        [4]uint32
	DREnabled [4]bool
	// OnBreakpoint is invoked before executing the instruction at an
	// enabled debug-register address. The hook typically flips a bit at
	// the address and disables the register (the injection driver).
	OnBreakpoint func(c *CPU, dr int)
	// Coverage, when set, records the cycle counter at the first start
	// of an instruction at every EIP, at the debug-register check: after
	// a run it holds exactly the PCs where an execute breakpoint could
	// have fired, and when it first could have. At every jcc start it
	// also records the arithmetic flags the branch sees. Run
	// single-steps while it is set.
	Coverage *Coverage

	// Port I/O hooks. OnOut receives OUT writes (console, panic port);
	// OnIn supplies IN reads. Nil hooks discard writes and read all-ones.
	OnOut func(port uint16, w8 bool, val uint32)
	OnIn  func(port uint16, w8 bool) uint32

	// PC sampling (the kernprof substitute): when SampleEvery > 0,
	// OnSample receives the current EIP every SampleEvery cycles.
	SampleEvery uint64
	OnSample    func(eip uint32)
	nextSample  uint64

	// Stop, when set, is a cooperative stop flag: Run polls it at
	// entry and every stopPollInterval instructions, returning
	// StopInterrupted once it is true. The injection harness's
	// wall-clock watchdog raises it to end Go-level livelocks that the
	// simulated-cycle budget alone would never catch (the cycle
	// counter is host state — a stuck interpreter loop that stops
	// advancing it starves the StopBudget check forever).
	Stop *atomic.Bool

	// DisableBlocks turns off the superblock trace-execution engine
	// (see block.go), forcing the per-instruction reference loop. The
	// zero value — blocks on — is the default; results are identical
	// either way, so this is an escape hatch and the reference arm for
	// parity testing.
	DisableBlocks bool

	fetch [ia32.MaxInstLen]byte

	// Decode cache: executable bytes only change when Mem.CodeGen
	// moves (writes to executable pages, mapping changes involving
	// them, restores that roll such changes back), so decoded
	// instructions are reusable across the hot interpreter loop — and,
	// since the snapshot/restore cycle bracketing each injection run
	// leaves codeGen alone unless code pages were dirtied, across whole
	// runs. The cache is a direct-mapped array with per-entry
	// generation tags: invalidation is free (stale generations simply
	// never match) and no per-generation reallocation happens.
	icache []icacheEntry

	// Superblock cache (see block.go): direct-mapped on the block's
	// start EIP, validated by the same code-generation tracking as the
	// decode cache, plus per-page generations so blocks survive code
	// changes on other pages.
	bcache []*block
	bstats BlockStats
	// lazy is the deferred arithmetic-flag record of the block loop
	// (flags.go); outside runBlocks it is always empty.
	lazy lazyFlags
	// buildOps and codeBuf are per-CPU scratch buffers for the block
	// being built (its ops and code bytes) and, in codeBuf, the code
	// bytes a block is revalidated against.
	buildOps []op
	codeBuf  [maxBlockInsts * ia32.MaxInstLen]byte

	// noBulkString forces the per-element REP MOVS/STOS loop; test-only
	// reference arm for the bulk-equivalence oracle (bulk_test.go).
	noBulkString bool
}

// icacheEntry is one decode-cache slot. An entry is live when its gen
// matches Mem.CodeGen()+1 (the +1 keeps the zero value invalid) and its
// eip matches the fetch address.
type icacheEntry struct {
	eip  uint32
	gen  uint64
	inst ia32.Inst
}

// icache geometry: direct-mapped on the low bits of EIP.
const (
	icacheBits = 12
	icacheSize = 1 << icacheBits
	icacheMask = icacheSize - 1
)

// New creates a CPU attached to m with all state zeroed (IF set, as the
// kernel runs with interrupts enabled).
func New(m *mem.Memory) *CPU {
	return &CPU{Mem: m, Eflags: FlagIF}
}

// Reset clears registers and flags (memory is managed separately via
// snapshots).
func (c *CPU) Reset() {
	c.Regs = [8]uint32{}
	c.EIP = 0
	c.Eflags = FlagIF
	c.lazy = lazyFlags{}
	c.Cycles = 0
	c.DR = [4]uint32{}
	c.DREnabled = [4]bool{}
	c.nextSample = 0
}

// State is the complete architectural register state of the CPU: what a
// checkpoint must capture to resume a run mid-flight. Host-side caches
// (the decode cache) and hooks are deliberately excluded — they are
// either revalidated via Mem.CodeGen or reinstalled by the caller.
type State struct {
	Regs   [8]uint32
	EIP    uint32
	Eflags uint32
	Cycles uint64
}

// CaptureState returns the current architectural state.
func (c *CPU) CaptureState() State {
	return State{Regs: c.Regs, EIP: c.EIP, Eflags: c.Eflags, Cycles: c.Cycles}
}

// RestoreState reinstates a captured architectural state and disarms
// all debug registers (checkpoints are captured from breakpoint hooks,
// after which the breakpoint is spent). The decode cache is left
// intact: its entries validate against Mem.CodeGen, so cached decodes
// stay usable exactly when the restored memory image still carries the
// same executable bytes.
func (c *CPU) RestoreState(s State) {
	c.Regs = s.Regs
	c.EIP = s.EIP
	c.Eflags = s.Eflags
	c.lazy = lazyFlags{}
	c.Cycles = s.Cycles
	c.DR = [4]uint32{}
	c.DREnabled = [4]bool{}
	c.nextSample = 0
}

// SetBreakpoint arms debug register dr at addr.
func (c *CPU) SetBreakpoint(dr int, addr uint32) {
	c.DR[dr] = addr
	c.DREnabled[dr] = true
}

// ClearBreakpoint disarms debug register dr.
func (c *CPU) ClearBreakpoint(dr int) { c.DREnabled[dr] = false }

// Coverage is the table of instruction-start addresses in
// [base, base+size): each started address maps to the cycle counter at
// its first start, and each started jcc to the flag combinations it
// saw.
type Coverage struct {
	base, size uint32
	first      map[uint32]uint64
	// seen caches addresses already in first, direct-mapped by a hash,
	// so that most steps of a loop skip the map.
	seen     [1 << 12]uint32
	branches map[uint32]FlagCombos
	// seenBranch caches, the same way, each jcc's set as it stands in
	// branches, so that a repeated combination skips the map.
	seenBranch [1 << 12]struct {
		eip uint32
		set FlagCombos
	}
}

// NewCoverage returns an empty table over [base, base+size).
func NewCoverage(base, size uint32) *Coverage {
	return &Coverage{base: base, size: size, first: make(map[uint32]uint64),
		branches: make(map[uint32]FlagCombos)}
}

// FlagCombos is a set of combinations of the five arithmetic flags a
// condition code reads: bit k stands for the combination whose CF, PF,
// ZF, SF and OF are bits 0 to 4 of k.
type FlagCombos uint32

// flagCombo returns the combination the flags fl hold.
func flagCombo(fl uint32) uint {
	return uint(fl&FlagCF | fl>>1&2 | fl>>4&(4|8) | fl>>7&16)
}

// comboFlags returns the flags of combination k.
func comboFlags(k uint) uint32 {
	f := uint32(k)
	return f&1 | f&2<<1 | f&(4|8)<<4 | f&16<<7
}

// Where returns the combinations of s under which condition cc holds.
func (s FlagCombos) Where(cc ia32.Cond) FlagCombos {
	var out FlagCombos
	for k := uint(0); k < 32; k++ {
		if s&(1<<k) != 0 && condHolds(uint8(cc), comboFlags(k)) {
			out |= 1 << k
		}
	}
	return out
}

// markBranch records that the jcc at eip started with the flags fl.
func (v *Coverage) markBranch(eip, fl uint32) {
	bit := FlagCombos(1) << flagCombo(fl)
	e := &v.seenBranch[eip*0x9E3779B1>>20]
	if e.eip == eip && e.set&bit != 0 || eip-v.base >= v.size {
		return
	}
	e.eip, e.set = eip, v.branches[eip]|bit
	v.branches[eip] = e.set
}

// Branch returns the flag combinations the jcc at addr saw at its
// starts; it is empty when no jcc started there.
func (v *Coverage) Branch(addr uint32) FlagCombos { return v.branches[addr] }

func (v *Coverage) mark(eip uint32, cycles uint64) {
	h := eip * 0x9E3779B1 >> 20
	if v.seen[h] == eip || eip-v.base >= v.size {
		return
	}
	v.seen[h] = eip
	if _, seen := v.first[eip]; !seen {
		v.first[eip] = cycles
	}
}

// FirstStart returns the cycle counter at the first start of an
// instruction at addr; started is false when none was started there,
// and known is false when addr lies outside the table.
func (v *Coverage) FirstStart(addr uint32) (cycle uint64, started, known bool) {
	if addr-v.base >= v.size {
		return 0, false, false
	}
	cycle, started = v.first[addr]
	return cycle, started, true
}

// StopReason tells why Run returned.
type StopReason int

// Stop reasons.
const (
	StopReturned    StopReason = iota + 1 // EIP reached the host return sentinel
	StopException                         // unhandled CPU exception
	StopBudget                            // cycle budget exhausted (watchdog)
	StopHalted                            // HLT executed
	StopInterrupted                       // cooperative Stop flag raised (harness watchdog)
)

func (r StopReason) String() string {
	switch r {
	case StopReturned:
		return "returned"
	case StopException:
		return "exception"
	case StopBudget:
		return "budget exhausted"
	case StopHalted:
		return "halted"
	case StopInterrupted:
		return "interrupted"
	}
	return "stop?"
}

// stopPollInterval is how many executed instructions pass between
// polls of the cooperative Stop flag (cheap enough to keep the hot
// interpreter loop atomic-free almost always, frequent enough that a
// stop lands within microseconds).
const stopPollInterval = 1024

// HostReturn is the sentinel return address pushed by the host when
// calling into simulated code; reaching it means the called function
// returned to the host.
const HostReturn uint32 = 0xFFFFFFF0

// Step executes one instruction. It returns nil on success, an
// *Exception on a fault/trap, or ErrHalted for HLT. On an exception the
// architectural state is that of the instruction start (faults are
// restartable, as on real hardware).
func (c *CPU) Step() error {
	// The 4-slot debug-register scan only runs while a breakpoint can
	// actually fire: after the injection hook disarms its register, the
	// rest of the run pays a single 4-byte compare per step.
	if c.OnBreakpoint != nil && c.DREnabled != [4]bool{} {
		for i := 0; i < 4; i++ {
			if c.DREnabled[i] && c.DR[i] == c.EIP {
				c.OnBreakpoint(c, i)
			}
		}
	}
	if c.Coverage != nil {
		c.Coverage.mark(c.EIP, c.Cycles)
	}

	if c.icache == nil {
		c.icache = make([]icacheEntry, icacheSize)
	}
	gen := c.Mem.CodeGen() + 1
	e := &c.icache[c.EIP&icacheMask]
	if e.gen != gen || e.eip != c.EIP {
		n, err := c.Mem.Fetch(c.EIP, c.fetch[:])
		if err != nil {
			return c.pageFault(err, c.EIP)
		}
		inst, derr := ia32.Decode(c.fetch[:n])
		if derr != nil {
			if errors.Is(derr, ia32.ErrTruncated) && n < ia32.MaxInstLen {
				// The instruction extends into an unfetchable page.
				return &Exception{Vector: VecPF, EIP: c.EIP, Addr: c.EIP + uint32(n)}
			}
			return &Exception{Vector: VecUD, EIP: c.EIP}
		}
		e.eip, e.gen, e.inst = c.EIP, gen, inst
	}
	if c.Coverage != nil && e.inst.Op == ia32.OpJcc {
		c.Coverage.markBranch(c.EIP, c.Eflags)
	}
	return c.exec(&e.inst)
}

// pageFault converts a mem.Fault into a page-fault exception.
func (c *CPU) pageFault(err error, _ uint32) error {
	var f *mem.Fault
	if errors.As(err, &f) {
		return &Exception{
			Vector: VecPF,
			EIP:    c.EIP,
			Addr:   f.Addr,
			Write:  f.Access == mem.AccessWrite,
		}
	}
	return err
}

// Run executes instructions until the budget is exhausted, an exception
// or halt occurs, or control returns to the host sentinel. It returns
// the stop reason and, for StopException, the exception.
//
// The default execution engine is the superblock loop (block.go); the
// per-instruction loop remains the reference and handles the cases
// the block engine conservatively declines: DisableBlocks, PC
// sampling and coverage recording (whose every-instruction EIP
// inspection a hoisted check cannot preserve).
func (c *CPU) Run(budget uint64) (StopReason, *Exception) {
	// Poll the stop flag once per Run entry so even livelocks made of
	// many short host calls (each executing fewer than
	// stopPollInterval instructions) observe the stop promptly.
	if c.Stop != nil && c.Stop.Load() {
		return StopInterrupted, nil
	}
	limit := c.Cycles + budget
	if !c.DisableBlocks && c.SampleEvery == 0 && c.Coverage == nil {
		return c.runBlocks(limit)
	}
	return c.runStep(limit)
}

// runStep is the single-step reference loop.
func (c *CPU) runStep(limit uint64) (StopReason, *Exception) {
	poll := 0
	for c.Cycles < limit {
		if c.EIP == HostReturn {
			return StopReturned, nil
		}
		if poll++; poll >= stopPollInterval {
			poll = 0
			if c.Stop != nil && c.Stop.Load() {
				return StopInterrupted, nil
			}
		}
		if c.SampleEvery > 0 && c.Cycles >= c.nextSample {
			c.OnSample(c.EIP)
			c.nextSample = c.Cycles + c.SampleEvery
		}
		err := c.Step()
		if err == nil {
			continue
		}
		if errors.Is(err, ErrHalted) {
			return StopHalted, nil
		}
		var exc *Exception
		if errors.As(err, &exc) {
			return StopException, exc
		}
		// Unknown internal error: surface as a double fault.
		return StopException, &Exception{Vector: VecDF, EIP: c.EIP}
	}
	if c.EIP == HostReturn {
		return StopReturned, nil
	}
	return StopBudget, nil
}

// reg8 reads an 8-bit register by encoding (AL..BH).
func (c *CPU) reg8(r ia32.Reg) uint8 {
	if r < 4 {
		return uint8(c.Regs[r])
	}
	return uint8(c.Regs[r-4] >> 8)
}

// setReg8 writes an 8-bit register by encoding.
func (c *CPU) setReg8(r ia32.Reg, v uint8) {
	if r < 4 {
		c.Regs[r] = c.Regs[r]&^uint32(0xFF) | uint32(v)
	} else {
		c.Regs[r-4] = c.Regs[r-4]&^uint32(0xFF00) | uint32(v)<<8
	}
}

// ea computes the effective address of a memory operand.
func (c *CPU) ea(m ia32.MemRef) uint32 {
	addr := uint32(m.Disp)
	if m.HasBase {
		addr += c.Regs[m.Base]
	}
	if m.HasIndex {
		addr += c.Regs[m.Index] * uint32(m.Scale)
	}
	return addr
}

// readArg reads an operand value (zero-extended for 8-bit).
func (c *CPU) readArg(a ia32.Arg, w8 bool) (uint32, error) {
	switch a.Kind {
	case ia32.KindReg:
		if w8 {
			return uint32(c.reg8(a.Reg)), nil
		}
		return c.Regs[a.Reg], nil
	case ia32.KindMem:
		addr := c.ea(a.Mem)
		c.Cycles++
		if w8 {
			v, err := c.Mem.Read8(addr)
			if err != nil {
				return 0, c.pageFault(err, addr)
			}
			return uint32(v), nil
		}
		v, err := c.Mem.Read32(addr)
		if err != nil {
			return 0, c.pageFault(err, addr)
		}
		return v, nil
	}
	return 0, &Exception{Vector: VecUD, EIP: c.EIP}
}

// writeArg writes an operand.
func (c *CPU) writeArg(a ia32.Arg, w8 bool, v uint32) error {
	switch a.Kind {
	case ia32.KindReg:
		if w8 {
			c.setReg8(a.Reg, uint8(v))
		} else {
			c.Regs[a.Reg] = v
		}
		return nil
	case ia32.KindMem:
		addr := c.ea(a.Mem)
		c.Cycles++
		var err error
		if w8 {
			err = c.Mem.Write8(addr, uint8(v))
		} else {
			err = c.Mem.Write32(addr, v)
		}
		if err != nil {
			return c.pageFault(err, addr)
		}
		return nil
	}
	return &Exception{Vector: VecUD, EIP: c.EIP}
}

// push writes v at ESP-4. Stack accesses that run off the ends of the
// address space raise #SS (stack exception), mirroring the stack-segment
// checks of real hardware.
func (c *CPU) push(v uint32) error {
	sp := c.Regs[ia32.ESP] - 4
	if sp >= 0xFFFFFFF8 || sp < 4 {
		return &Exception{Vector: VecSS, EIP: c.EIP, Addr: sp}
	}
	c.Cycles++
	if err := c.Mem.Write32(sp, v); err != nil {
		return c.pageFault(err, sp)
	}
	c.Regs[ia32.ESP] = sp
	return nil
}

// pop reads the value at ESP and grows the stack.
func (c *CPU) pop() (uint32, error) {
	sp := c.Regs[ia32.ESP]
	if sp >= 0xFFFFFFF8 || sp < 4 {
		return 0, &Exception{Vector: VecSS, EIP: c.EIP, Addr: sp}
	}
	c.Cycles++
	v, err := c.Mem.Read32(sp)
	if err != nil {
		return 0, c.pageFault(err, sp)
	}
	c.Regs[ia32.ESP] = sp + 4
	return v, nil
}
