package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/ext2"
	"repro/internal/ia32"
	"repro/internal/mem"
)

// ErrHang reports a watchdog timeout: the run exceeded its cycle budget
// without completing (the study's Hang outcome).
var ErrHang = errors.New("kernel: watchdog: system hang")

// ErrStopped reports that the harness's cooperative stop flag ended
// the run (the wall-clock watchdog). It is deliberately distinct from
// ErrHang: ErrHang is the paper's simulated Hang outcome, ErrStopped
// is a fault of the harness itself (a Go-level livelock) and must not
// be counted in any outcome table.
var ErrStopped = errors.New("kernel: run stopped by harness watchdog")

// CrashError reports that the kernel crashed: either a CPU exception
// escaped to the (host-side) crash handler, or the kernel panicked.
// Like an LKCD dump, it carries the register file and the top of the
// kernel stack at crash time.
type CrashError struct {
	Exc    *cpu.Exception // nil for a pure panic
	Panic  int            // panic code (0 when none)
	Cycles uint64         // cycle counter at crash time
	Regs   [8]uint32      // EAX..EDI at the crash
	Stack  []uint32       // top words of the kernel stack
	Code   []byte         // bytes at the crash EIP (the oops "Code:" line)
}

func (e *CrashError) Error() string {
	if e.Exc != nil {
		return e.Exc.Error()
	}
	return fmt.Sprintf("kernel panic (code %d)", e.Panic)
}

// Machine is the booted simulated system: CPU, memory, the assembled
// kernel image and the ramdisk with the root file system.
type Machine struct {
	Mem  *mem.Memory
	CPU  *cpu.CPU
	Prog *asm.Program

	// Console accumulates printk output (port 0xE9).
	Console bytes.Buffer

	// PanicCode is set when the kernel writes the panic port.
	PanicCode int

	// CycleLimit is the watchdog: kernel execution stops with ErrHang
	// when the CPU cycle counter reaches it.
	CycleLimit uint64

	// BootFiles is the tree the root file system was populated with.
	BootFiles map[string][]byte
	// BootManifest snapshots the boot-critical files for severity
	// analysis.
	BootManifest ext2.Manifest

	// SyscallHook, when non-nil, is consulted at the system_call
	// boundary before the kernel handler dispatches — the software
	// analog of debugfs fail_function. Returning handled=true
	// short-circuits the call and ret (typically -errno) becomes the
	// syscall's result; handled=false observes without interfering.
	// During a record run the hook may call CaptureCheckpoint before it
	// forces a return; replays of that checkpoint resume at this
	// boundary. Restore clears it: a hook is armed per run, never
	// inherited by the next one.
	SyscallHook func(nr int, args [4]uint32) (ret int32, handled bool)

	// GoldenCycles is the cycle counter at which the fault-free run
	// ends. When nonzero, hang fast-forward (fastforward.go) may arm:
	// its idle and CPU-loop detection in a run still going past it, its
	// fault-retry detection from a run's start. Zero, the default, never
	// arms, so every cycle is simulated; results are identical either
	// way.
	GoldenCycles uint64

	// ff is the run's hang fast-forward state (fastforward.go), nil
	// until the run arms; proof, when non-nil, runs kernel code on the
	// single-step loop under an idle probe; skipped counts the cycles
	// jumped.
	ff      *fastForward
	proof   *ffProof
	skipped uint64

	faultDepth int
	doPFAddr   uint32
	syscallFn  uint32

	// faultStack mirrors the Go-side saved contexts of the nested
	// handleUserFault calls in flight (one frame per faultDepth level),
	// so a checkpoint captured inside a fault handler can replicate the
	// exact unwind the live path would perform.
	faultStack []faultFrame

	// rec is the golden log while the golden run records it; rep drives
	// checkpoint replay and record runs (see replay.go). Both nil during
	// ordinary execution.
	rec *GoldenLog
	rep *replay

	// currentAddr/tasksAddr memoize the symbol lookups behind
	// CurrentSlot and TaskAddr, which the engine consults on every
	// scheduler tick; the symbol table never changes after Link.
	currentAddr uint32
	tasksAddr   uint32
}

// DefaultTree returns the root file system contents used at boot: the
// boot-critical files plus the working files the benchmark programs
// use.
func DefaultTree() map[string][]byte {
	libc := bytes.Repeat([]byte("\x7fELF libc.so.6 segment "), 700) // ~16 KiB
	return map[string][]byte{
		"/sbin/init":          []byte("\x7fELF init " + repeat("i", 600)),
		"/etc/inittab":        []byte("id:3:initdefault:\nsi::sysinit:/etc/rc\n"),
		"/etc/rc":             []byte("#!/bin/sh\nmount -a\n"),
		"/etc/passwd":         []byte("root:x:0:0:root:/root:/bin/sh\n"),
		"/lib/i686/libc.so.6": libc,
		"/bin/sh":             []byte("\x7fELF sh " + repeat("s", 900)),
		"/bin/looper":         []byte("\x7fELF looper " + repeat("l", 300)),
		"/work/fstime.dat":    bytes.Repeat([]byte("0123456789abcdef"), 2048), // 32 KiB
		"/work/readme.txt":    []byte("unixbench working area\n"),
	}
}

func repeat(s string, n int) string {
	b := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		b = append(b, s...)
	}
	return string(b)
}

// bootCritical lists the files whose damage makes the system
// unbootable (most severe crash).
var bootCritical = []string{"/sbin/init", "/etc/inittab", "/lib/i686/libc.so.6", "/bin/sh"}

// Boot assembles the kernel, lays out memory, builds the root file
// system and runs kernel_init on the simulated CPU.
func Boot() (*Machine, error) {
	return BootWithTree(DefaultTree())
}

// linkedProgram is the kernel image every boot in the process shares:
// assembling costs about as much as the rest of a boot, and nothing
// writes a Program once it is linked.
var linkedProgram = sync.OnceValues(Assemble)

// BootWithTree boots with a specific root file system tree.
func BootWithTree(files map[string][]byte) (*Machine, error) {
	prog, err := linkedProgram()
	if err != nil {
		return nil, err
	}

	m := &Machine{
		Mem:        mem.New(),
		Prog:       prog,
		CycleLimit: 1 << 62,
		BootFiles:  files,
	}
	// Linux direct-maps low physical memory at PAGE_OFFSET, so most
	// wild kernel-space reads land in mapped memory rather than
	// faulting immediately (which is why the paper's campaign C sees so
	// few paging requests). Map the whole lowmem window RW first, then
	// overlay the text sections read-execute.
	m.Mem.Map(LowmemBase, LowmemSize, mem.PermRW)
	m.Mem.Map(TextArch, TextSize, mem.PermRX)
	m.Mem.Map(TextKernel, TextSize, mem.PermRX)
	m.Mem.Map(TextMM, TextSize, mem.PermRX)
	m.Mem.Map(TextFS, TextSize, mem.PermRX)
	m.Mem.Map(TextDrivers, TextSize, mem.PermRX)
	m.Mem.Map(TextLib, TextSize, mem.PermRX)
	for _, s := range prog.Sections {
		if len(s.Code) == 0 {
			continue
		}
		if err := m.Mem.WriteRaw(s.Base, s.Code); err != nil {
			return nil, fmt.Errorf("kernel: load section %s: %w", s.Name, err)
		}
	}

	// Build the root file system and place it on the ramdisk.
	dev := disk.New(RamdiskBlocks)
	fs, err := ext2.Mkfs(dev, 256)
	if err != nil {
		return nil, fmt.Errorf("kernel: mkfs: %w", err)
	}
	if err := fs.PopulateTree(files); err != nil {
		return nil, fmt.Errorf("kernel: populate: %w", err)
	}
	man, err := fs.BuildManifest(bootCritical)
	if err != nil {
		return nil, fmt.Errorf("kernel: manifest: %w", err)
	}
	m.BootManifest = man
	if err := m.Mem.WriteRaw(RamdiskBase, dev.Image()); err != nil {
		return nil, fmt.Errorf("kernel: load ramdisk: %w", err)
	}

	m.CPU = cpu.New(m.Mem)
	m.CPU.OnOut = m.portOut
	m.CPU.OnIn = func(uint16, bool) uint32 { return 0xFFFFFFFF }

	var ok bool
	m.doPFAddr, ok = prog.Symbols["do_page_fault"]
	if !ok {
		return nil, errors.New("kernel: do_page_fault not assembled")
	}
	m.syscallFn, ok = prog.Symbols["system_call"]
	if !ok {
		return nil, errors.New("kernel: system_call not assembled")
	}

	if _, err := m.Call("kernel_init"); err != nil {
		return nil, fmt.Errorf("kernel: init: %w", err)
	}
	return m, nil
}

// Assemble builds the kernel program image (usable standalone by the
// profiler and the injector for static analysis).
func Assemble() (*asm.Program, error) {
	a := asm.New(BuildConsts())
	sources := []struct{ name, src string }{
		{"arch.s", archSource},
		{"kernel.s", kernSource},
		{"mm.s", mmSource},
		{"fs.s", fsSource},
		{"drivers.s", driversSource},
		{"lib.s", libSource},
		{"data.s", dataSource()},
	}
	for _, s := range sources {
		if err := a.AddSource(s.name, s.src); err != nil {
			return nil, err
		}
	}
	return a.Link(map[string]uint32{
		"arch":    TextArch,
		"kernel":  TextKernel,
		"mm":      TextMM,
		"fs":      TextFS,
		"drivers": TextDrivers,
		"lib":     TextLib,
		"kdata":   DataBase,
	}, []string{"arch", "kernel", "mm", "fs", "drivers", "lib"})
}

func (m *Machine) portOut(port uint16, _ bool, val uint32) {
	switch port {
	case PortConsole:
		m.Console.WriteByte(byte(val))
	case PortPanic:
		m.PanicCode = int(val)
	case PortMMUMap:
		m.Mem.Map(val&^uint32(PageSize-1), PageSize, mem.PermRW)
	case PortMMUWP:
		page := val &^ uint32(PageSize-1)
		if val&1 != 0 {
			m.Mem.Protect(page, PageSize, mem.PermRW)
		} else {
			m.Mem.Unmap(page, PageSize)
		}
	}
}

// Symbol returns the address of a kernel symbol.
func (m *Machine) Symbol(name string) uint32 { return m.Prog.Symbols[name] }

// ReadGlobal reads a 32-bit kernel variable by symbol name. It is an
// engine-visible operation (record/replay aware, see replay.go).
func (m *Machine) ReadGlobal(name string) uint32 {
	addr, ok := m.Prog.Symbols[name]
	if !ok {
		return 0
	}
	v, err := m.memRead32(addr)
	if err != nil {
		return 0
	}
	return v
}

// WriteGlobal writes a 32-bit kernel variable by symbol name.
func (m *Machine) WriteGlobal(name string, v uint32) error {
	addr, ok := m.Prog.Symbols[name]
	if !ok {
		return fmt.Errorf("kernel: no symbol %q", name)
	}
	return m.Mem.Write32(addr, v)
}

// TaskAddr returns the address of task slot i.
func (m *Machine) TaskAddr(slot int) uint32 {
	if m.tasksAddr == 0 {
		m.tasksAddr = m.Symbol("tasks")
	}
	return m.tasksAddr + uint32(slot)*TaskSize
}

// CurrentSlot returns the task-table slot of the kernel's `current`
// pointer, or -1 when it points outside the task table.
func (m *Machine) CurrentSlot() int {
	if m.currentAddr == 0 {
		m.currentAddr = m.Symbol("current")
	}
	cur, err := m.memRead32(m.currentAddr)
	if err != nil {
		return -1
	}
	base := m.TaskAddr(0)
	if cur < base || cur >= base+NTasks*TaskSize || (cur-base)%TaskSize != 0 {
		return -1
	}
	return int((cur - base) / TaskSize)
}

// TaskField reads a 32-bit field of a task. It is an engine-visible
// operation (record/replay aware, see replay.go).
func (m *Machine) TaskField(slot int, off uint32) uint32 {
	v, _ := m.memRead32(m.TaskAddr(slot) + off)
	return v
}

// DiskImage copies the ramdisk out of simulated memory.
func (m *Machine) DiskImage() ([]byte, error) {
	return m.Mem.ReadRaw(RamdiskBase, RamdiskSize)
}

// FSCheck runs fsck against the current ramdisk contents.
func (m *Machine) FSCheck() (*ext2.Report, error) {
	img, err := m.DiskImage()
	if err != nil {
		return nil, err
	}
	dev, err := disk.FromImage(img)
	if err != nil {
		return nil, err
	}
	return ext2.Check(dev), nil
}

// crashErr builds a crash record with the LKCD-style machine snapshot.
func (m *Machine) crashErr(exc *cpu.Exception, panicCode int) *CrashError {
	ce := &CrashError{Exc: exc, Panic: panicCode, Cycles: m.CPU.Cycles, Regs: m.CPU.Regs}
	esp := m.CPU.Regs[ia32.ESP]
	for i := uint32(0); i < 8; i++ {
		v, err := m.Mem.Read32(esp + 4*i)
		if err != nil {
			break
		}
		ce.Stack = append(ce.Stack, v)
	}
	if exc != nil {
		if code, err := m.Mem.ReadRaw(exc.EIP, 12); err == nil {
			ce.Code = code
		}
	}
	return ce
}

func (m *Machine) remainingBudget() uint64 {
	if m.CPU.Cycles >= m.CycleLimit {
		return 0
	}
	return m.CycleLimit - m.CPU.Cycles
}

// Call invokes a kernel function by name with cdecl arguments and runs
// it to completion, servicing legitimate user-space page faults by
// re-entering do_page_fault (as the hardware fault path would). It
// returns EAX, or ErrHang / *CrashError.
func (m *Machine) Call(fn string, args ...uint32) (uint32, error) {
	addr, ok := m.Prog.Symbols[fn]
	if !ok {
		return 0, fmt.Errorf("kernel: no function %q", fn)
	}
	return m.CallAddr(addr, args...)
}

// CallAddr is Call by address. At top level the kernel stack is reset;
// nested calls (fault handling) run on the live stack like exception
// frames. Top-level calls are an engine-visible machine operation: the
// golden run logs the result, a record run verifies it, and a replay
// prefix serves it from the golden log (or, at the checkpoint's
// position, resumes live from the checkpoint) — see replay.go.
func (m *Machine) CallAddr(addr uint32, args ...uint32) (uint32, error) {
	if m.faultDepth == 0 {
		if m.serving() {
			return m.replayCall(addr, args)
		}
		if m.rec != nil || m.rep != nil {
			at := resumePoint{id: addr, args: hashArgs(args)}
			if m.rep != nil {
				m.rep.at = at
			}
			ret, err := m.callAddr(addr, args)
			// A checkpoint captured mid-call ends the verification: the
			// in-flight call then belongs to the live suffix.
			if err == nil {
				m.logged(op{kind: opCall, addr: addr, arg: at.args, val: ret}, nil, nil)
			}
			return ret, err
		}
	}
	return m.callAddr(addr, args)
}

func (m *Machine) callAddr(addr uint32, args []uint32) (uint32, error) {
	if m.faultDepth == 0 {
		m.CPU.Regs[ia32.ESP] = StackTop
	}
	for i := len(args) - 1; i >= 0; i-- {
		m.CPU.Regs[ia32.ESP] -= 4
		if err := m.Mem.Write32(m.CPU.Regs[ia32.ESP], args[i]); err != nil {
			return 0, fmt.Errorf("kernel: push arg: %w", err)
		}
	}
	m.CPU.Regs[ia32.ESP] -= 4
	if err := m.Mem.Write32(m.CPU.Regs[ia32.ESP], cpu.HostReturn); err != nil {
		return 0, fmt.Errorf("kernel: push return: %w", err)
	}
	m.CPU.EIP = addr
	return m.runToReturn()
}

// runToReturn drives the CPU from the current EIP until the in-flight
// call returns to the host, crashes, hangs, or is stopped. It is also
// the entry point for resuming a checkpointed call mid-execution.
//
// Each invocation also runs in-call hang fast-forward (fastforward.go):
// CPU.Run stops at the call's detection points, where a window looks
// for a loop in the CPU, and every restart after a handled user fault
// is a fault-retry detection point.
func (m *Machine) runToReturn() (uint32, error) {
	c := m.ffCallStart()
	for {
		var reason cpu.StopReason
		var exc *cpu.Exception
		switch {
		case m.proof != nil:
			reason, exc = stepRun(m.CPU, m.remainingBudget(), m.proof)
		case m.ffDue(&c):
			reason, exc = m.ffLoop(&c)
		default:
			reason, exc = m.CPU.Run(c.budget(m))
		}
		switch reason {
		case cpu.StopReturned:
			return m.CPU.Regs[ia32.EAX], nil
		case cpu.StopBudget:
			if m.CPU.Cycles < m.CycleLimit {
				continue // a detection point, not the watchdog
			}
			return 0, ErrHang
		case cpu.StopInterrupted:
			return 0, ErrStopped
		case cpu.StopHalted:
			if m.PanicCode != 0 {
				return 0, m.crashErr(nil, m.PanicCode)
			}
			// A stray HLT leaves the system non-operational.
			return 0, ErrHang
		case cpu.StopException:
			if exc.Vector == cpu.VecPF && m.isUserAddr(exc.Addr) && m.faultDepth < 2 {
				handled, err := m.handleUserFault(exc)
				if err != nil {
					return 0, err
				}
				if handled {
					m.ffRetry(&c)
					continue // restart the faulting instruction
				}
			}
			return 0, m.crashErr(exc, 0)
		}
	}
}

func (m *Machine) isUserAddr(addr uint32) bool {
	return addr >= UserBase && addr < UserTop
}

// faultFrame is the Go-side saved context of one nested
// handleUserFault invocation, tracked on Machine.faultStack so a
// checkpoint captured inside a fault handler can finish the unwind.
type faultFrame struct {
	regs   [8]uint32
	eip    uint32
	eflags uint32
	exc    *cpu.Exception
}

// handleUserFault re-enters the kernel's do_page_fault for a user-space
// fault, preserving the interrupted register state (the role of the
// exception stub). A crash inside the handler propagates as the crash.
func (m *Machine) handleUserFault(exc *cpu.Exception) (bool, error) {
	savedRegs := m.CPU.Regs
	savedEIP := m.CPU.EIP
	savedFlags := m.CPU.Eflags

	var code uint32
	if exc.Write {
		code = 2
	}
	m.faultDepth++
	m.faultStack = append(m.faultStack, faultFrame{
		regs: savedRegs, eip: savedEIP, eflags: savedFlags, exc: exc,
	})
	ret, err := m.CallAddr(m.doPFAddr, exc.Addr, code)
	m.faultStack = m.faultStack[:len(m.faultStack)-1]
	m.faultDepth--
	if err != nil {
		return false, err
	}
	m.CPU.Regs = savedRegs
	m.CPU.EIP = savedEIP
	m.CPU.Eflags = savedFlags
	return ret != 0, nil
}

// Syscall executes a system call through the kernel's system_call
// entry. It returns the raw EAX as a signed value. SyscallHook sees the
// call first, in replayed prefixes too; a replay whose checkpoint was
// captured from the hook resumes here (see replay.go).
func (m *Machine) Syscall(nr int, args ...uint32) (int32, error) {
	var a [4]uint32
	copy(a[:], args)
	if m.proof != nil {
		m.proof.bad = true
	}
	if r := m.rep; r != nil {
		if r.atSyscallBoundary() {
			if err := m.replaySyscall(nr, a); err != nil {
				return 0, err
			}
		}
		if r.live {
			r.at = syscallPoint(nr, a)
		}
	}
	if m.SyscallHook != nil {
		if ret, handled := m.SyscallHook(nr, a); handled {
			return ret, nil
		}
	}
	ret, err := m.CallAddr(m.syscallFn, uint32(nr), a[0], a[1], a[2], a[3])
	if err != nil {
		return 0, err
	}
	return int32(ret), nil
}

// Snapshot captures the machine state for later restore (the study's
// "reboot between runs", without the reboot).
type Snapshot struct {
	mem    *mem.Snapshot
	cycles uint64
}

// TakeSnapshot snapshots memory and the cycle counter.
func (m *Machine) TakeSnapshot() *Snapshot {
	return &Snapshot{mem: m.Mem.TakeSnapshot(), cycles: m.CPU.Cycles}
}

// ReadRaw returns size bytes at addr as they were when s was taken,
// without restoring it.
func (s *Snapshot) ReadRaw(addr, size uint32) ([]byte, error) {
	return s.mem.ReadRaw(addr, size)
}

// RawPage returns page pn's bytes as they were when s was taken, or
// nil if the page was unmapped. Callers must treat it as read-only.
func (s *Snapshot) RawPage(pn uint32) []byte { return s.mem.RawPage(pn) }

// PagesChangedSince returns a conservative superset of the page
// numbers whose content may differ from the snapshot state (see
// mem.PagesChangedSince). The injection runner uses it to compare
// post-run disk state against the golden image page-by-page instead of
// copying the whole ramdisk every run.
func (m *Machine) PagesChangedSince(s *Snapshot) map[uint32]struct{} {
	return m.Mem.PagesChangedSince(s.mem)
}

// Restore rolls the machine back to the snapshot.
func (m *Machine) Restore(s *Snapshot) {
	m.Mem.Restore(s.mem)
	m.CPU.Reset()
	m.CPU.Cycles = s.cycles
	m.PanicCode = 0
	m.faultDepth = 0
	m.faultStack = m.faultStack[:0]
	m.rec = nil
	m.rep = nil
	m.ff = nil
	m.SyscallHook = nil
	m.Console.Reset()
}
