package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Workload is a user program driven against the kernel (a UnixBench
// benchmark in the study).
type Workload struct {
	Name string
	Main func(u *User)
}

// RunResult is the outcome of one workload run.
type RunResult struct {
	// Err is nil on clean completion, ErrHang on a watchdog timeout,
	// or a *CrashError.
	Err error
	// Trace is the deterministic user-visible record (program outputs,
	// unexpected syscall errors, exit codes). Comparing it against a
	// golden run detects fail-silence violations.
	Trace []string
	// Console is the kernel printk output.
	Console string
}

// Fingerprint hashes the trace for golden comparison.
func (r *RunResult) Fingerprint() string {
	h := sha256.New()
	for _, t := range r.Trace {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// interruptFlag mirrors cpu.FlagIF without importing the cpu package
// into the engine's hot path.
const interruptFlag = 1 << 9

// interruptsOffCost is the cycle cost charged per missed timer tick
// while interrupts are disabled, so the watchdog still makes progress.
const interruptsOffCost = 1000

// sentinel panic values used to unwind user-program goroutines.
var (
	errProcExit  = errors.New("proc exit")
	errProcAbort = errors.New("proc abort")
)

type proc struct {
	name     string
	pid      uint32
	slot     int
	resume   chan struct{}
	yield    chan struct{}
	done     bool
	finished chan struct{}
	// sigHandler, when set via User.OnSignal, receives caught signals
	// instead of the default die-on-signal action.
	sigHandler func(sig int)
}

type engine struct {
	m        *Machine
	procs    [NTasks]*proc
	nlive    int
	aborted  bool
	abortErr error
	trace    []string
	ticks    uint64
	ageSlot  int
}

// User is the handle a workload's Main uses to interact with the
// simulated system: system calls, user-memory access and compute time.
// All methods may only be called from the workload goroutine.
type User struct {
	e *engine
	p *proc
}

// RunWorkloads boots the given user programs as children of init and
// runs the system until every process exits, the kernel crashes, or
// the watchdog fires. cycleBudget bounds the total CPU cycles.
func (m *Machine) RunWorkloads(ws []Workload, cycleBudget uint64) *RunResult {
	m.CycleLimit = m.CPU.Cycles + cycleBudget
	return m.runWorkloads(ws)
}

// runWorkloads is the engine body shared by RunWorkloads and
// RecordWorkloads (which takes CycleLimit from a checkpoint instead of
// a fresh budget when it resumes one).
func (m *Machine) runWorkloads(ws []Workload) *RunResult {
	e := &engine{m: m}
	m.ff = nil
	defer func() { m.ff = nil }()

	res := &RunResult{}
	// Spawn every workload from init's context.
	for _, w := range ws {
		if err := e.spawnFromInit(w.Name, w.Main); err != nil {
			e.abort(err)
			break
		}
	}
	if !e.aborted {
		e.loop()
	}
	e.ffStop()
	e.cleanup()

	if e.abortErr == nil {
		// Clean shutdown: reap children and unmount.
		e.reapAll()
	}
	if e.abortErr == nil {
		if _, err := m.Call("sync_super"); err != nil {
			e.abortErr = err
		}
	}

	res.Err = e.abortErr
	res.Trace = e.trace
	res.Console = m.Console.String()
	return res
}

func (e *engine) tracef(format string, args ...interface{}) {
	e.trace = append(e.trace, fmt.Sprintf(format, args...))
}

func (e *engine) abort(err error) {
	if !e.aborted {
		e.aborted = true
		e.abortErr = err
	}
}

// spawnFromInit forks a child from the init task and registers its
// user program.
func (e *engine) spawnFromInit(name string, main func(u *User)) error {
	if e.m.CurrentSlot() != 0 {
		return fmt.Errorf("kernel: init not current at spawn")
	}
	return e.spawn(name, main)
}

// spawn forks from the current task and registers the child program.
func (e *engine) spawn(name string, main func(u *User)) error {
	ret, err := e.m.Syscall(SysFork)
	if err != nil {
		return err
	}
	if ret < 0 {
		// An injected fault (bit flip in sys_fork, forced error return at
		// the syscall boundary) can make the fork fail; record it in the
		// trace and continue with fewer processes. The golden trace never
		// contains this line, so the divergence classifies as a fail
		// silence violation rather than a harness error.
		e.tracef("spawn %s: fork failed: errno %d", name, -ret)
		return nil
	}
	pid := uint32(ret)
	slot := e.findSlotByPid(pid)
	if slot < 0 {
		return fmt.Errorf("kernel: forked pid %d not in task table", pid)
	}
	p := &proc{
		name:     name,
		pid:      pid,
		slot:     slot,
		resume:   make(chan struct{}),
		yield:    make(chan struct{}),
		finished: make(chan struct{}),
	}
	e.procs[slot] = p
	e.nlive++
	go e.procBody(p, main)
	return nil
}

func (e *engine) findSlotByPid(pid uint32) int {
	for s := 0; s < NTasks; s++ {
		if e.m.TaskField(s, TaskPid) == pid && e.m.TaskField(s, TaskState) != TaskUnused {
			return s
		}
	}
	return -1
}

// procBody runs a user program, maintaining the strict token-passing
// protocol: one resume is answered by exactly one yield.
func (e *engine) procBody(p *proc, main func(u *User)) {
	defer close(p.finished)
	<-p.resume
	func() {
		defer func() {
			r := recover()
			if r == nil || r == errProcExit || r == errProcAbort {
				return
			}
			panic(r)
		}()
		u := &User{e: e, p: p}
		u.checkAbort()
		main(u)
		u.Exit(0) // programs that fall off the end exit cleanly
	}()
	p.done = true
	e.nlive--
	p.yield <- struct{}{}
}

// loop is the machine's execution loop: the kernel's `current` decides
// which process gets the token; otherwise the timer ticks and the
// scheduler runs, exactly as an idle CPU would.
func (e *engine) loop() {
	for !e.aborted && e.nlive > 0 {
		slot := e.m.CurrentSlot()
		if slot < 0 {
			// `current` corrupted beyond the task table: the scheduler
			// has lost the CPU (the kernel would wedge or panic).
			e.abort(&CrashError{Panic: PanicSchedError, Cycles: e.m.CPU.Cycles})
			return
		}
		if slot >= 0 && slot < NTasks {
			if p := e.procs[slot]; p != nil && !p.done {
				e.ffBreak()
				p.resume <- struct{}{}
				<-p.yield
				continue
			}
		}
		// Idle (init) or a slot without a live program: advance time.
		e.ffIdle()
		e.tick()
		if e.aborted {
			return
		}
		e.doSchedule()
	}
}

// cleanup unwinds every remaining goroutine (after a crash or hang).
func (e *engine) cleanup() {
	for s := 0; s < NTasks; s++ {
		p := e.procs[s]
		if p == nil || p.done {
			continue
		}
		e.aborted = true
		if e.abortErr == nil {
			e.abortErr = errors.New("kernel: run aborted")
		}
		p.resume <- struct{}{}
		<-p.yield
	}
	for s := 0; s < NTasks; s++ {
		if p := e.procs[s]; p != nil {
			<-p.finished
		}
	}
}

// reapAll drains zombies from init's context after a clean run.
func (e *engine) reapAll() {
	for i := 0; i < NTasks*4; i++ {
		if e.m.CurrentSlot() != 0 {
			e.tick()
			if e.aborted {
				return
			}
			e.doSchedule()
			continue
		}
		ret, err := e.m.Syscall(SysWaitpid, 0, 0, 0)
		if err != nil {
			e.abort(err)
			return
		}
		if ret == -ECHILD {
			return
		}
		if ret == -ERestartSys {
			e.tick()
			e.doSchedule()
		}
	}
}

// tick fires the timer interrupt and runs the host-side page-aging
// daemon (the kswapd stand-in that write-protects pages so do_wp_page
// has real work). When the kernel has interrupts disabled (a corrupted
// CLI, for instance), the timer cannot fire: time still passes against
// the watchdog, but nothing gets woken — the authentic path to a hang.
func (e *engine) tick() {
	if e.aborted {
		return
	}
	if !e.m.interruptsEnabled() {
		e.m.addCycles(interruptsOffCost)
		e.ticks++
		return
	}
	if _, err := e.m.Call("timer_interrupt"); err != nil {
		e.abort(err)
		return
	}
	e.ticks++
	if e.m.ff != nil && e.m.ff.probe != nil {
		e.ffAging()
	}
	if e.ticks%64 == 0 {
		e.agePages()
	}
}

// agePages write-protects the present writable pages of one task
// (round-robin), marking every fourth page shared, so subsequent user
// writes exercise the do_wp_page paths.
func (e *engine) agePages() {
	slot := e.ageSlot % NTasks
	e.ageSlot++
	if e.m.TaskField(slot, TaskState) == TaskUnused {
		return
	}
	taskAddr := e.m.TaskAddr(slot)
	for i := uint32(0); i < NPTEs; i++ {
		pteAddr := taskAddr + TaskPTEs + i*4
		pte, err := e.m.memRead32(pteAddr)
		if err != nil || pte&PTEPresent == 0 || pte&PTEWrite == 0 {
			continue
		}
		pte &^= uint32(PTEWrite)
		if i%4 == 0 {
			pte |= PTEShared
		}
		if err := e.m.memWrite32(pteAddr, pte); err != nil {
			continue
		}
		page := pte &^ uint32(PageSize-1)
		if e.m.memIsMapped(page) {
			e.m.memProtect(page, PageSize, mem.PermRead)
		}
	}
}

func (e *engine) doSchedule() {
	if e.aborted {
		return
	}
	if _, err := e.m.Call("schedule"); err != nil {
		e.abort(err)
	}
}

func (e *engine) needResched() bool { return e.m.ReadGlobal("need_resched") != 0 }

// --- User API (called from workload goroutines holding the token) ---

func (u *User) checkAbort() {
	if u.e.aborted {
		panic(errProcAbort)
	}
}

// yieldUntilCurrent returns the token to the engine until the kernel
// schedules this process again.
func (u *User) yieldUntilCurrent() {
	for u.e.m.CurrentSlot() != u.p.slot {
		u.p.yield <- struct{}{}
		<-u.p.resume
		u.checkAbort()
	}
}

// maybePreempt honors the scheduler after a timer tick.
func (u *User) maybePreempt() {
	if u.e.needResched() {
		u.e.doSchedule()
		u.checkAbort()
		u.yieldUntilCurrent()
	}
}

// checkSignals delivers pending signals: caught signals (registered
// via sys_signal with a Go handler installed through OnSignal) run the
// handler; anything else takes the default action and kills the
// process.
func (u *User) checkSignals() {
	pending := u.e.m.TaskField(u.p.slot, TaskSigPending)
	if pending == 0 {
		return
	}
	caught := u.e.m.TaskField(u.p.slot, TaskSigCaught)
	if handled := pending & caught; handled != 0 && u.p.sigHandler != nil {
		pending &^= handled
		_ = u.e.m.memWrite32(u.e.m.TaskAddr(u.p.slot)+TaskSigPending, pending)
		for sig := 0; sig < 32; sig++ {
			if handled&(1<<uint(sig)) != 0 {
				u.p.sigHandler(sig)
			}
		}
	}
	if pending != 0 {
		u.e.tracef("%s[%d]: killed by signal mask %#x", u.p.name, u.p.pid, pending)
		u.Exit(int32(128 + pending))
	}
}

// OnSignal installs a handler for signals registered with sys_signal;
// signals without a registered kernel-side handler still kill the
// process.
func (u *User) OnSignal(h func(sig int)) {
	u.p.sigHandler = h
}

// Syscall issues a system call through the kernel's entry path. It
// retries "would block" returns after letting the scheduler run, and
// honors preemption — so control only comes back when the kernel
// scheduled this process again.
func (u *User) Syscall(nr int, args ...uint32) int32 {
	u.checkAbort()
	u.checkSignals()
	for {
		ret, err := u.e.m.Syscall(nr, args...)
		if err != nil {
			u.e.abort(err)
			panic(errProcAbort)
		}
		u.e.tick()
		u.checkAbort()
		if ret == -ERestartSys {
			u.e.doSchedule()
			u.checkAbort()
			u.yieldUntilCurrent()
			u.checkSignals()
			continue
		}
		u.maybePreempt()
		return ret
	}
}

// Exit terminates the process via sys_exit and unwinds the goroutine.
func (u *User) Exit(code int32) {
	u.checkAbort()
	u.e.tracef("%s[%d]: exit %d", u.p.name, u.p.pid, code)
	if _, err := u.e.m.Syscall(SysExit, uint32(code)); err != nil {
		u.e.abort(err)
	}
	panic(errProcExit)
}

// Spawn forks a child running main; returns the child pid.
func (u *User) Spawn(name string, main func(u *User)) int32 {
	u.checkAbort()
	ret, err := u.e.m.Syscall(SysFork)
	if err != nil {
		u.e.abort(err)
		panic(errProcAbort)
	}
	if ret < 0 {
		return ret
	}
	pid := uint32(ret)
	slot := u.e.findSlotByPid(pid)
	if slot < 0 {
		u.e.abort(fmt.Errorf("kernel: forked pid %d vanished", pid))
		panic(errProcAbort)
	}
	p := &proc{
		name:     name,
		pid:      pid,
		slot:     slot,
		resume:   make(chan struct{}),
		yield:    make(chan struct{}),
		finished: make(chan struct{}),
	}
	u.e.procs[slot] = p
	u.e.nlive++
	go u.e.procBody(p, main)
	u.e.tick()
	u.checkAbort()
	u.maybePreempt()
	return int32(pid)
}

// Logf appends to the deterministic user-visible trace.
func (u *User) Logf(format string, args ...interface{}) {
	u.e.tracef("%s[%d]: %s", u.p.name, u.p.pid, fmt.Sprintf(format, args...))
}

// Arena returns the base of this process's user arena.
func (u *User) Arena() uint32 {
	return u.e.m.TaskField(u.p.slot, TaskArena)
}

// touch simulates a user-mode memory access at addr, taking the page
// fault path when the page is missing or write-protected. It returns
// false when the kernel refused the access (SIGSEGV).
func (u *User) touch(addr uint32, write bool) bool {
	m := u.e.m
	perm := m.memPermAt(addr)
	if perm&mem.PermRead != 0 && (!write || perm&mem.PermWrite != 0) {
		return true
	}
	var code uint32
	if write {
		code = 2
	}
	ret, err := m.Call("do_page_fault", addr, code)
	if err != nil {
		u.e.abort(err)
		panic(errProcAbort)
	}
	return ret != 0
}

// Touch reads a user address, demand-paging as needed; a refused
// access kills the process like SIGSEGV.
func (u *User) Touch(addr uint32) {
	if !u.touch(addr, false) {
		u.Logf("segmentation fault (read %#x)", addr)
		u.Exit(139)
	}
}

// Poke writes a 32-bit value at a user address through the fault path.
func (u *User) Poke(addr, val uint32) {
	if !u.touch(addr, true) {
		u.Logf("segmentation fault (write %#x)", addr)
		u.Exit(139)
	}
	if err := u.e.m.memWrite32(addr, val); err != nil {
		u.Logf("segmentation fault (write %#x)", addr)
		u.Exit(139)
	}
}

// Peek reads a 32-bit value from a user address.
func (u *User) Peek(addr uint32) uint32 {
	u.Touch(addr)
	v, err := u.e.m.memRead32(addr)
	if err != nil {
		u.Logf("segmentation fault (read %#x)", addr)
		u.Exit(139)
	}
	return v
}

// WriteBuf copies bytes into user memory (paging each page in).
func (u *User) WriteBuf(addr uint32, b []byte) {
	for off := uint32(0); off < uint32(len(b)); off += PageSize {
		if !u.touch(addr+off, true) {
			u.Logf("segmentation fault (write %#x)", addr+off)
			u.Exit(139)
		}
	}
	if len(b) > 0 {
		if !u.touch(addr+uint32(len(b))-1, true) {
			u.Exit(139)
		}
	}
	if err := u.e.m.memWriteBytes(addr, b); err != nil {
		u.Logf("segmentation fault (write buf %#x)", addr)
		u.Exit(139)
	}
}

// ReadBuf copies bytes out of user memory.
func (u *User) ReadBuf(addr uint32, n uint32) []byte {
	for off := uint32(0); off < n; off += PageSize {
		u.Touch(addr + off)
	}
	if n > 0 {
		u.Touch(addr + n - 1)
	}
	b, err := u.e.m.memReadBytes(addr, n)
	if err != nil {
		u.Logf("segmentation fault (read buf %#x)", addr)
		u.Exit(139)
	}
	return b
}

// WriteString writes a NUL-terminated string into user memory.
func (u *User) WriteString(addr uint32, s string) {
	u.WriteBuf(addr, append([]byte(s), 0))
}

// Compute burns user-mode CPU time in timeslice-sized chunks, honoring
// timer preemption (hanoi/dhrystone-style workload phases).
func (u *User) Compute(cycles uint64) {
	const quantum = 2000
	for cycles > 0 {
		c := uint64(quantum)
		if c > cycles {
			c = cycles
		}
		u.e.m.addCycles(c)
		cycles -= c
		u.e.tick()
		u.checkAbort()
		u.maybePreempt()
	}
}
