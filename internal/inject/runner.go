package inject

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/dump"
	"repro/internal/ext2"
	"repro/internal/ia32"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Result is the record of a single injection experiment.
type Result struct {
	Campaign Campaign
	Target   Target
	Outcome  Outcome

	Activated       bool
	ActivationCycle uint64

	// Crash details (Outcome == OutcomeCrash).
	Crash   *dump.Record
	Latency uint64 // cycles from corrupted-instruction execution to crash
	// LatencyValid reports that Latency is meaningful: the crash
	// dump's cycle counter was at or after the activation point. A
	// crash record whose counter predates activation would otherwise
	// masquerade as a genuine zero-latency crash in the Figure 7
	// histogram; such records are excluded from the latency buckets.
	LatencyValid bool
	CrashSub     string // subsystem where the crash occurred ("" = outside kernel text)

	// Severity of the damage (crashes, hangs, and completed runs with
	// on-disk damage).
	Severity Severity

	// Hang diagnostics: where the CPU was when the watchdog fired.
	HangEIP uint32
	HangSub string

	// Fail-silence evidence for completed runs.
	TraceMismatch bool
	DiskMismatch  bool
	// BootBroken records that the boot-critical files were damaged
	// (the decisive test for most-severe outcomes).
	BootBroken bool

	// Case-study material: a window of text at the injection point
	// before and after the flip.
	OrigWindow    []byte
	CorruptWindow []byte
}

// InjectedSub is the subsystem the error was injected into.
func (r *Result) InjectedSub() string { return r.Target.Func.Section }

// Propagated reports whether a crash happened outside the injected
// subsystem.
func (r *Result) Propagated() bool {
	return r.Outcome == OutcomeCrash && r.CrashSub != "" && r.CrashSub != r.Target.Func.Section
}

// Runner executes injection experiments against a booted machine,
// restoring pristine state between runs (the paper rebooted the
// machine after every activated injection).
type Runner struct {
	M         *kernel.Machine
	Workloads []kernel.Workload

	// Budget is the watchdog cycle budget per run.
	Budget uint64
	// GoldenCycles is the cycle counter when the fault-free run ends.
	// It counts from power-on, so it includes the boot cycles (4,755)
	// as well as the run's own cost.
	GoldenCycles uint64
	// GoldenWall is the wall-clock time the golden run took.
	GoldenWall time.Duration
	// RunTimeout is the per-run wall-clock deadline enforced by
	// SafeRunTarget (the harness watchdog, layered on top of the
	// simulated-cycle Budget). Defaults to a generous multiple of
	// GoldenWall; 0 disables the wall-clock watchdog.
	RunTimeout time.Duration
	// HookBeforeRun, when set, runs at the top of every SafeRunTarget
	// call, after the watchdog is armed and before the machine runs.
	// It is the harness fault-injection point used by the
	// fault-tolerance tests (a panicking or stalling hook simulates a
	// harness bug on a chosen target).
	HookBeforeRun func(c Campaign, t Target)

	snap       *kernel.Snapshot
	goldenFP   string
	goldenDisk [32]byte
	// goldenSys holds, per syscall number, the cycle counter at each of
	// the golden run's invocations: their count is the occurrence space
	// of the syscall error-return model, and the Nth cycle is the first
	// golden activation of a (number, N) key.
	goldenSys map[int][]uint64

	// model is the fault model every target handed to this runner
	// belongs to (never nil; bitflip by default).
	model FaultModel
	// cpReason records why checkpointing is off when the model is
	// incompatible with the checkpoint layer (CheckpointDisabled).
	cpReason string

	// checkpointing enables the checkpoint layer: a point-model target
	// whose Result the golden run decides (a PC it never reached, or a
	// masked branch) is answered from cov; every other target is a
	// record run, which resumes the nearest checkpoint not past its
	// activation event (its key's own, else a rung, else the pristine
	// snapshot) and captures a machine checkpoint at that event (the
	// PC's breakpoint, or the syscall's hook boundary). A later target
	// with the same key resumes that checkpoint, so it runs activation
	// to outcome only. Results are byte-identical either way.
	checkpointing bool
	// golden is the golden run's op log, recorded when checkpointing is
	// on: every checkpoint is a position in it.
	golden *kernel.GoldenLog
	// cov is the golden run's coverage of kernel text, each started PC
	// with the cycle of its first start and each started jcc with the
	// flag combinations it saw, recorded for point models when
	// checkpointing is on. It is nil when the golden run changed a page
	// a text window can read, so that a never-run target's windows would
	// not be the pristine bytes.
	cov *cpu.Coverage
	// branchSummary reports that cov's jcc flag combinations decide a
	// corrupted branch's run: the golden run read no kernel text as
	// data, host reads included, so a flipped text byte can reach the
	// run only through the instructions that cover it.
	branchSummary bool
	// cps holds the checkpoints of one key group (ActivationKey.Group),
	// one per key. Targets arrive grouped: the bytes and bits of one
	// instruction consecutively, in non-decreasing PC order, and a
	// syscall's errno × occurrence targets consecutively, errno-major,
	// so the targets sharing a key sit three ordinals apart. A target
	// from another group drops them all.
	cps []cpEntry
	// rungs is the ladder a record run resumes from: the checkpoint
	// captured last in each of rungBins equal bins of golden cycles.
	rungs [rungBins]*kernel.Checkpoint
	// prov is how the last RunTarget produced its result.
	prov Provenance
	// diskBuf is the scratch buffer severity() assembles the ramdisk
	// into for fsck, reused across runs. It is maintained
	// incrementally: refillDiskBuf rolls it back to the post-golden-run
	// image and overlays only the pages that can differ from it (the
	// run's dirty pages plus goldenPages'), instead of copying the
	// whole ramdisk out of guest memory every run. diskTainted tracks
	// which diskBuf pages deviate from the golden image; diskPoisoned
	// forces a full reset after ext2.Repair wrote to the buffer at
	// unknown offsets.
	diskBuf      []byte
	diskTainted  map[uint32]struct{}
	diskPoisoned bool
	// goldenPages maps each ramdisk page the golden run touched to its
	// post-golden-run bytes: exactly the pages where the golden image
	// can differ from the pristine snapshot every injection run
	// restores to. Every other page of the golden image is the
	// snapshot's (goldenPage).
	goldenPages map[uint32][]byte

	// stop is the cooperative CPU stop flag; timedOut records that the
	// wall-clock watchdog (not some other stop source) raised it.
	stop     atomic.Bool
	timedOut atomic.Bool

	// watchdog is the reused wall-clock timer armed by SafeRunTarget;
	// a campaign is thousands of runs and each deserves no more than a
	// Reset, not a fresh timer allocation.
	watchdog *time.Timer

	// lastBStats is the CPU's block-engine counter snapshot at the
	// previous BlockStatsDelta call.
	lastBStats cpu.BlockStats
}

// GoldenFingerprint returns the trace fingerprint of the fault-free
// run. Parallel workers cross-validate their fingerprints against
// worker 0's before injecting: a divergent golden means divergent
// simulated machines, which would silently misclassify Fail Silence
// Violations.
func (r *Runner) GoldenFingerprint() string { return r.goldenFP }

// GoldenDiskHash returns the post-golden-run disk image hash (the
// second half of the cross-validation oracle).
func (r *Runner) GoldenDiskHash() [32]byte { return r.goldenDisk }

// GoldenSyscallCounts returns the golden run's per-syscall invocation
// counts; the syscall error-return model enumerates its occurrence
// targets from them.
func (r *Runner) GoldenSyscallCounts() map[int]uint64 {
	counts := make(map[int]uint64, len(r.goldenSys))
	for nr, cycles := range r.goldenSys {
		counts[nr] = uint64(len(cycles))
	}
	return counts
}

// Model returns the fault model this runner executes targets for.
func (r *Runner) Model() FaultModel { return r.model }

// BlockStatsDelta returns the CPU's superblock-engine counters
// accumulated since the previous call. Observability only: callers
// feed the deltas into obs.Metrics after each run.
func (r *Runner) BlockStatsDelta() cpu.BlockStats {
	cur := r.M.CPU.BlockStats()
	d := cur.Sub(r.lastBStats)
	r.lastBStats = cur
	return d
}

// Checkpointing reports whether checkpoint reuse is on.
func (r *Runner) Checkpointing() bool { return r.checkpointing }

// CheckpointDisabled reports whether checkpoint reuse is off because
// the fault model has no golden prefix (disk), and the model's typed
// reason. It returns false for a plain -checkpoint=false opt-out.
func (r *Runner) CheckpointDisabled() (bool, string) {
	return r.cpReason != "", r.cpReason
}

// windowSize is how much text each result snapshots around the
// injection point for case studies.
const windowSize = 16

// The golden run's coverage spans all kernel text, lib included.
const (
	textBase = kernel.TextArch
	textSpan = kernel.TextLib + kernel.TextSize - kernel.TextArch
)

// NewRunner boots a machine, performs the golden (fault-free) run to
// record the reference trace, disk image and text coverage, and
// prepares the pristine snapshot used between experiments.
func NewRunner(ws []kernel.Workload) (*Runner, error) {
	m, err := kernel.Boot()
	if err != nil {
		return nil, err
	}
	return newRunnerFromMachine(m, ws, RunnerOptions{})
}

// cpEntry is one checkpoint cache entry: the checkpoint the record run
// of key's first target captured at its activation event.
type cpEntry struct {
	key ActivationKey
	cp  *kernel.Checkpoint
}

// rungBins is the number of golden-cycle bins the rung ladder keeps one
// checkpoint in.
const rungBins = 8

// Provenance is how the runner produced a result.
type Provenance uint8

// Provenances, as LastProvenance reports them.
const (
	// ProvFull is a full run from the pristine snapshot: checkpointing
	// is off.
	ProvFull Provenance = iota
	// ProvSynthesized is a Not Activated result answered from golden
	// coverage without running.
	ProvSynthesized
	// ProvReplay is a record run resumed from its key's own checkpoint,
	// captured by an earlier target: it runs activation to outcome.
	ProvReplay
	// ProvRecord is a record run from the pristine snapshot.
	ProvRecord
	// ProvRecordRung is a record run resumed from a rung.
	ProvRecordRung
	// ProvMasked is a Not Manifested result of a corrupted branch that
	// takes the golden way at every golden start, answered from golden
	// coverage without running.
	ProvMasked
)

// LastProvenance reports how the last RunTarget produced its result.
func (r *Runner) LastProvenance() Provenance { return r.prov }

func newRunnerFromMachine(m *kernel.Machine, ws []kernel.Workload, opts RunnerOptions) (*Runner, error) {
	model := opts.Model
	if model == nil {
		model = bitflipModel{}
	}
	r := &Runner{M: m, Workloads: ws, model: model, checkpointing: !opts.NoCheckpoint}
	if cs := model.Checkpoint(); !cs.Compatible {
		// Never reuse a checkpoint for a model without a golden
		// prefix; record the model's typed reason.
		r.checkpointing = false
		r.cpReason = cs.Reason
	}
	r.snap = m.TakeSnapshot()
	m.CPU.Stop = &r.stop
	m.CPU.DisableBlocks = opts.NoBlocks
	// Only point-model targets consult coverage, and recording it
	// single-steps the golden run.
	var cov *cpu.Coverage
	if _, point := model.(PointModel); point && r.checkpointing {
		cov = cpu.NewCoverage(textBase, textSpan)
	}

	// Time the golden run's syscalls (their count is the enumeration
	// space of the syscall error-return model). The observer returns
	// handled=false, so the golden run is not perturbed.
	r.goldenSys = make(map[int][]uint64)
	m.SyscallHook = func(nr int, args [4]uint32) (int32, bool) {
		r.goldenSys[nr] = append(r.goldenSys[nr], m.CPU.Cycles)
		return 0, false
	}
	// Watch kernel text: a masked branch needs a golden run that
	// accesses it only by fetching instructions.
	textData := false
	if cov != nil {
		m.Mem.SetWatch(textBase, textSpan, func(_, _ uint32, acc mem.Access) {
			textData = textData || acc != mem.AccessExec
		})
	}
	wallStart := time.Now()
	m.CPU.Coverage = cov
	var res *kernel.RunResult
	if r.checkpointing {
		res, r.golden = m.RecordGolden(ws, 1<<40)
	} else {
		res = m.RunWorkloads(ws, 1<<40)
	}
	m.CPU.Coverage = nil
	m.Mem.ClearWatch()
	m.SyscallHook = nil
	if res.Err != nil {
		return nil, fmt.Errorf("inject: golden run failed: %w", res.Err)
	}
	r.GoldenWall = time.Since(wallStart)
	r.goldenFP = res.Fingerprint()
	img, err := m.DiskImage()
	if err != nil {
		return nil, err
	}
	dev, err := disk.FromImage(img)
	if err != nil {
		return nil, err
	}
	r.goldenDisk = dev.Hash()
	// The golden run's dirty set, intersected with the ramdisk, is
	// exactly where the golden image differs from the snapshot state;
	// the incremental disk comparison must always revisit those pages.
	// Intersected with text, it must be empty for a never-run target's
	// windows to be the pristine bytes.
	r.cov, r.branchSummary = cov, !textData
	r.goldenPages = make(map[uint32][]byte)
	for pn := range m.PagesChangedSince(r.snap) {
		if pn >= ramdiskFirstPage && pn < ramdiskEndPage {
			off := (pn - ramdiskFirstPage) * kernel.PageSize
			r.goldenPages[pn] = bytes.Clone(img[off : off+kernel.PageSize])
		}
		if pn >= textFirstPage && pn < textEndPage {
			r.cov = nil
		}
	}
	r.GoldenCycles = m.CPU.Cycles
	m.GoldenCycles = r.GoldenCycles // arms hang fast-forward from here on
	// Watchdog: generous multiple of the golden run (the paper's
	// hardware watchdog rebooted hung systems).
	r.Budget = r.GoldenCycles*5 + 2_000_000
	if opts.RunTimeout > 0 {
		r.RunTimeout = opts.RunTimeout
	} else {
		// Wall-clock watchdog default: a legitimate simulated hang
		// burns at most ~5x the golden cycles, so 20x the golden wall
		// time plus slack only fires on Go-level livelocks, never on
		// paper outcomes.
		r.RunTimeout = 20*r.GoldenWall + 2*time.Second
	}
	m.Restore(r.snap)
	return r, nil
}

// RunTarget executes one injection experiment and classifies it. A
// nil *HarnessFault means the Result carries a genuine paper outcome;
// a non-nil fault means the harness itself failed (the target byte
// could not be flipped, the wall-clock watchdog fired, the run ended
// with an unclassifiable host error, or a checkpointed run left its
// golden path) and the Result must be discarded — the machine state is
// suspect, so the caller should boot a fresh runner before retrying.
// Use SafeRunTarget to also isolate Go panics and arm the wall-clock
// watchdog.
//
// With checkpointing enabled (the default), a point-model target whose
// Result the golden run decides is answered without running (fromGolden):
// a PC the golden run never reached, or a corrupted branch that takes the
// golden way at every golden start. Every other target runs as a record
// run: it resumes its key's cached checkpoint, or else the rung captured
// latest before the key's first golden activation, or else starts from
// the pristine snapshot, and runs to its activation event, where it
// captures a machine checkpoint (a run resumed from its key's own
// checkpoint captures that one) and then applies its fault. Results are
// byte-identical to full runs in every mode.
func (r *Runner) RunTarget(c Campaign, t Target) (Result, *HarnessFault) {
	r.prov = ProvFull
	var (
		key        ActivationKey
		from       *kernel.Checkpoint // the key's own checkpoint, or a rung below it
		act, known = r.goldenActivation(t)
	)
	if r.checkpointing {
		if res, prov, ok := r.fromGolden(c, t); ok {
			r.prov = prov
			return res, nil
		}
		key = r.model.ActivationKey(t)
		r.prov = ProvReplay
		if from = r.cachedCheckpoint(key); from == nil {
			r.prov = ProvRecord
			if known {
				from = r.rungBelow(act)
			}
			if from != nil {
				r.prov = ProvRecordRung
			}
		}
	}
	res, kcp, hf := r.runTarget(c, t, from)
	switch {
	case hf != nil:
	case kcp != nil && known && kcp.Cycles() != act:
		hf = newFault(FaultReplayDiverged, t,
			"the record run captured at cycle %d, the golden run first reaches the activation event at %d",
			kcp.Cycles(), act)
	case kcp != nil:
		if kcp != from {
			r.cps = append(r.cps, cpEntry{key: key, cp: kcp})
			r.rungs[r.rungBin(kcp.Cycles())] = kcp
		}
	case known && act != never:
		// Until its activation event a run is the golden run, so this
		// one left its golden path.
		hf = newFault(FaultReplayDiverged, t,
			"the run left its golden path: the golden run reached the activation event, the record run never did")
	}
	if hf != nil {
		// The checkpoints (or the machine state) are suspect: the next
		// attempt re-records from pristine state.
		r.cps, r.rungs = nil, [rungBins]*kernel.Checkpoint{}
	}
	return res, hf
}

// never is the first golden activation of a key the golden run never
// reaches.
const never = math.MaxUint64

// goldenActivation returns the cycle counter at which the golden run
// first reaches t's activation event (never when it does not); known is
// false when the runner cannot tell (checkpointing is off, or golden
// coverage is unknown for t's PC).
func (r *Runner) goldenActivation(t Target) (cycle uint64, known bool) {
	if r.cov != nil {
		cycle, started, known := r.cov.FirstStart(t.InstAddr)
		if !started {
			cycle = never
		}
		return cycle, known
	}
	if _, armed := r.model.(ArmedModel); !armed || !r.checkpointing {
		return 0, false
	}
	if cycles := r.goldenSys[t.SysNr]; t.Occurrence >= 1 && t.Occurrence <= uint64(len(cycles)) {
		return cycles[t.Occurrence-1], true
	}
	return never, true
}

// rungBelow returns the rung with the largest capture cycle strictly
// below cycle, or nil.
func (r *Runner) rungBelow(cycle uint64) *kernel.Checkpoint {
	var best *kernel.Checkpoint
	for _, cp := range r.rungs {
		if cp != nil && cp.Cycles() < cycle && (best == nil || cp.Cycles() > best.Cycles()) {
			best = cp
		}
	}
	return best
}

// rungBin returns the ladder bin of a checkpoint captured at cycle.
func (r *Runner) rungBin(cycle uint64) int {
	return int(min(cycle, r.GoldenCycles) * rungBins / (r.GoldenCycles + 1))
}

// cachedCheckpoint returns the cached checkpoint for key, or nil. A key
// from another group first drops the cache, so that a record run never
// holds the old group's checkpoints beside its own.
func (r *Runner) cachedCheckpoint(key ActivationKey) *kernel.Checkpoint {
	for _, e := range r.cps {
		if e.key == key {
			return e.cp
		}
	}
	if len(r.cps) > 0 && r.cps[0].key.Group != key.Group {
		r.cps = nil
	}
	return nil
}

// runTarget runs t from checkpoint from, or from the pristine snapshot
// when from is nil, with its fault armed: a point model's at a
// breakpoint at InstAddr, whose hook captures, disarms and applies it;
// an armed model's by Arm, with OnActivate capturing. With checkpointing
// on it is a record run and returns its capture; with it off it is a
// full run.
func (r *Runner) runTarget(c Campaign, t Target, from *kernel.Checkpoint) (Result, *kernel.Checkpoint, *HarnessFault) {
	m := r.M
	res := Result{Campaign: c, Target: t, Severity: SeverityNone}
	if from == nil {
		m.Restore(r.snap)
	}
	var (
		kcp     *kernel.Checkpoint
		arm     func(*kernel.Machine)
		armed   *Armed
		bpFault *HarnessFault
	)
	switch model := r.model.(type) {
	case ArmedModel:
		var err error
		if armed, err = model.Arm(m, t); err != nil {
			return res, nil, newFault(FaultArm, t, "%v", err)
		}
		armed.OnActivate = func() { kcp = m.CaptureCheckpoint() }
	case PointModel:
		res.OrigWindow = r.pristineWindow(t.InstAddr)
		m.CPU.OnBreakpoint = func(_ *cpu.CPU, dr int) {
			// Capture before the flip: the checkpoint is the pristine
			// at-breakpoint state shared by every sibling target.
			kcp = m.CaptureCheckpoint()
			m.CPU.ClearBreakpoint(dr)
			if err := model.Apply(m, t); err != nil {
				bpFault = newFault(FaultBreakpointIO, t, "%v", err)
				return
			}
			res.Activated, res.ActivationCycle = true, m.CPU.Cycles
		}
		arm = func(m *kernel.Machine) { m.CPU.SetBreakpoint(0, t.InstAddr) }
	}
	var run *kernel.RunResult
	if r.checkpointing {
		run = m.RecordWorkloads(r.golden, from, r.Workloads, r.Budget, arm)
	} else {
		if arm != nil {
			arm(m)
		}
		run = m.RunWorkloads(r.Workloads, r.Budget)
	}
	m.CPU.OnBreakpoint = nil
	m.CPU.ClearBreakpoint(0)
	if armed != nil {
		if armed.Disarm != nil {
			armed.Disarm()
		}
		if armed.Activated != nil {
			res.Activated, res.ActivationCycle = armed.Activated()
		}
	}
	return res, kcp, r.finishRun(&res, run, t, bpFault)
}

// fromGolden answers a point-model target from the golden run, with
// the provenance of the answer; ok is false when the golden run does not
// decide t's Result, and t must run.
//
// A target at a PC the golden run never started is Not Activated.
// Activation depends only on whether the breakpoint PC is reached, and
// the golden run, which changed no text page, already showed it is not;
// so both windows are the pristine bytes.
//
// A target that masks its branch (maskedBranch) is Not Manifested, and
// its run is the golden run, cycle for cycle:
//   - It starts from the golden state at the PC's first golden start, the
//     breakpoint's cycle, and its memory then differs from the golden
//     memory only in the flipped byte.
//   - Any instruction that does not cover that byte behaves identically
//     on identical state. No other instruction the golden run started
//     covers it, and the golden run read no kernel text as data, host
//     reads included (branchSummary).
//   - At every start of the PC the state is the golden one. The corrupted
//     jcc has the same op and length, so it charges the same cycle, and
//     it moves EIP to the same place: the same direction, and when taken
//     the same displacement.
//
// So its state equals the golden run's until the end: the same trace,
// the same disk, no text write, and the corrupt window is the pristine
// one with the flip.
func (r *Runner) fromGolden(c Campaign, t Target) (res Result, prov Provenance, ok bool) {
	if r.cov == nil {
		return res, 0, false
	}
	first, started, known := r.cov.FirstStart(t.InstAddr)
	if !known {
		return res, 0, false
	}
	w := r.pristineWindow(t.InstAddr)
	res = Result{Campaign: c, Target: t, Severity: SeverityNone, OrigWindow: w}
	if !started {
		res.Outcome, res.CorruptWindow = OutcomeNotActivated, bytes.Clone(w)
		return res, ProvSynthesized, true
	}
	if res.CorruptWindow, ok = r.maskedBranch(t, w); !ok {
		return Result{}, 0, false
	}
	res.Outcome, res.Activated, res.ActivationCycle = OutcomeNotManifested, true, first
	return res, ProvMasked, true
}

// maskedBranch reports whether t, at a PC the golden run started, masks
// its branch, and returns its corrupt window; w is its pristine window.
// t must flip bits of an instruction byte, its pristine instruction must
// be a jcc and its corrupted bytes a jcc of the same length, and either
//   - only the displacement changed, and the original condition was
//     false at every golden start of the PC; or
//   - only the condition changed, and both conditions had the same truth
//     value at every golden start.
//
// The golden run must also have read no kernel text as data, and have
// started no other instruction that covers the flipped byte.
func (r *Runner) maskedBranch(t Target, w []byte) ([]byte, bool) {
	f, flips := r.model.(interface{ flipMask(Target) byte })
	if !flips || !r.branchSummary || w == nil {
		return nil, false
	}
	orig, err := ia32.Decode(w)
	if err != nil || orig.Op != ia32.OpJcc || uint(t.ByteOff) >= uint(orig.Len) {
		return nil, false
	}
	corrupt := bytes.Clone(w)
	corrupt[t.ByteOff] ^= f.flipMask(t)
	bad, err := ia32.Decode(corrupt)
	if err != nil || bad.Op != ia32.OpJcc || bad.Len != orig.Len {
		return nil, false
	}
	seen, same := r.cov.Branch(t.InstAddr), false
	switch {
	case bad.Cond == orig.Cond: // a new displacement, never taken
		same = seen.Where(orig.Cond) == 0
	case bad.Imm == orig.Imm: // a new condition with the same truth
		same = seen.Where(orig.Cond) == seen.Where(bad.Cond)
	}
	// An empty summary would hold every condition false vacuously.
	if seen == 0 || !same || r.coveredByOther(t.Addr(), t.InstAddr) {
		return nil, false
	}
	return corrupt, true
}

// coveredByOther reports whether an instruction the golden run started
// at an address other than pc covers byte a in its pristine decoding,
// or whether coverage cannot tell.
func (r *Runner) coveredByOther(a, pc uint32) bool {
	for s := a - (ia32.MaxInstLen - 1); s != a+1; s++ {
		_, started, known := r.cov.FirstStart(s)
		if !known {
			return true
		}
		if s == pc || !started {
			continue
		}
		w := r.pristineWindow(s)
		if w == nil {
			return true
		}
		if in, err := ia32.Decode(w); err != nil || s+uint32(in.Len) > a {
			return true
		}
	}
	return false
}

// pristineWindow returns the windowSize bytes at addr in the pristine
// snapshot, the case-study window every result carries from before
// its fault; nil when they are not all mapped.
func (r *Runner) pristineWindow(addr uint32) []byte {
	w, _ := r.snap.ReadRaw(addr, windowSize) // nil on a fault
	return w
}

// finishRun is the classification tail shared by full and record
// runs: snapshot the corrupt window, surface harness failures, then map
// the run result onto a paper outcome.
func (r *Runner) finishRun(res *Result, run *kernel.RunResult, t Target, bpFault *HarnessFault) *HarnessFault {
	m := r.M
	if w, err := m.Mem.ReadRaw(t.InstAddr, windowSize); err == nil {
		res.CorruptWindow = w
	}

	// Harness failures are surfaced before any outcome is assigned —
	// a failed bit flip is not "Not Activated", a watchdog-stopped
	// run is not a paper Hang, and a diverged record run is not any
	// outcome at all.
	if bpFault != nil {
		return bpFault
	}
	if errors.Is(run.Err, kernel.ErrStopped) {
		return newFault(FaultTimeout, t,
			"wall-clock watchdog fired after %v (simulated-cycle budget %d never tripped)",
			r.RunTimeout, r.Budget)
	}
	if errors.Is(run.Err, kernel.ErrReplayDiverged) {
		return newFault(FaultReplayDiverged, t, "%v", run.Err)
	}

	if !res.Activated {
		res.Outcome = OutcomeNotActivated
		return nil
	}

	switch {
	case run.Err == nil:
		r.classifyCompleted(res, run)
	case errors.Is(run.Err, kernel.ErrHang):
		res.Outcome = OutcomeHang
		res.HangEIP = m.CPU.EIP
		res.HangSub = m.Prog.SectionAt(res.HangEIP)
		res.Severity, res.BootBroken = r.severity()
	default:
		rec, ok := dump.Classify(run.Err)
		if !ok {
			// Unclassifiable host-level failure: a harness fault, not
			// a paper Hang (counting these as Hangs polluted Figure 4).
			return newFault(FaultHostError, t, "unclassifiable host error: %v", run.Err)
		}
		res.Outcome = OutcomeCrash
		res.Crash = &rec
		if rec.Cycles >= res.ActivationCycle {
			res.Latency = rec.Cycles - res.ActivationCycle
			res.LatencyValid = true
		}
		if rec.Cause == dump.CauseKernelPanic {
			// panic() lives in the core kernel.
			res.CrashSub = "kernel"
		} else {
			res.CrashSub = r.M.Prog.SectionAt(rec.EIP)
			if !isTextSub(res.CrashSub) {
				// The oops EIP is outside kernel text (a wild jump):
				// the error never reached another subsystem, so the
				// crash belongs to the faulted one.
				res.CrashSub = t.Func.Section
			}
		}
		res.Severity, res.BootBroken = r.severity()
	}
	return nil
}

// SafeRunTarget is RunTarget with full harness fault isolation: a Go
// panic anywhere in the run (interpreter, ext2 checker, dump
// classifier) is recovered into a FaultPanic instead of killing the
// campaign, and the wall-clock watchdog (RunTimeout) is armed so a
// Go-level livelock surfaces as a FaultTimeout. After any returned
// fault the machine state is suspect: discard this runner and boot a
// fresh one before retrying the target.
func (r *Runner) SafeRunTarget(c Campaign, t Target) (res Result, hf *HarnessFault) {
	defer func() {
		if p := recover(); p != nil {
			hf = newFault(FaultPanic, t, "panic: %v", p)
			hf.Stack = string(debug.Stack())
		}
	}()
	r.stop.Store(false)
	r.timedOut.Store(false)
	if r.RunTimeout > 0 {
		if r.watchdog == nil {
			r.watchdog = time.AfterFunc(r.RunTimeout, func() {
				r.timedOut.Store(true)
				r.stop.Store(true)
			})
		} else {
			r.watchdog.Reset(r.RunTimeout)
		}
		defer r.watchdog.Stop()
	}
	if r.HookBeforeRun != nil {
		r.HookBeforeRun(c, t)
	}
	return r.RunTarget(c, t)
}

// classifyCompleted separates Not Manifested from Fail Silence
// Violation for runs that finished: any divergence in the user-visible
// trace or the on-disk state means incorrect data propagated out.
func (r *Runner) classifyCompleted(res *Result, run *kernel.RunResult) {
	res.TraceMismatch = run.Fingerprint() != r.goldenFP
	res.DiskMismatch = r.diskChanged()
	if res.TraceMismatch || res.DiskMismatch {
		res.Outcome = OutcomeFailSilence
		res.Severity, res.BootBroken = r.severity()
		return
	}
	res.Outcome = OutcomeNotManifested
}

// Ramdisk and text page-number ranges, for intersecting dirty sets
// with the disk and with the pages a text window can read.
const (
	ramdiskFirstPage = uint32(kernel.RamdiskBase) >> kernel.PageShift
	ramdiskEndPage   = ramdiskFirstPage + kernel.RamdiskSize/kernel.PageSize
	textFirstPage    = uint32(textBase) >> kernel.PageShift
	textEndPage      = (textBase + textSpan + windowSize + kernel.PageSize - 1) >> kernel.PageShift
)

// diskCandidates returns the ramdisk page numbers where the live disk
// can differ from the post-golden-run image: the pages touched since
// the pristine snapshot (by this run or its checkpointed prefix) plus
// the pages the golden run itself touched.
func (r *Runner) diskCandidates() map[uint32]struct{} {
	cand := make(map[uint32]struct{}, len(r.goldenPages))
	for pn := range r.M.PagesChangedSince(r.snap) {
		if pn >= ramdiskFirstPage && pn < ramdiskEndPage {
			cand[pn] = struct{}{}
		}
	}
	for pn := range r.goldenPages {
		cand[pn] = struct{}{}
	}
	return cand
}

// goldenPage returns ramdisk page pn of the post-golden-run image.
func (r *Runner) goldenPage(pn uint32) []byte {
	if p, ok := r.goldenPages[pn]; ok {
		return p
	}
	return r.snap.RawPage(pn)
}

// diskBufPage returns ramdisk page pn's slice of diskBuf.
func (r *Runner) diskBufPage(pn uint32) []byte {
	off := (pn - ramdiskFirstPage) * kernel.PageSize
	return r.diskBuf[off : off+kernel.PageSize]
}

// diskChanged reports whether the live ramdisk differs from the
// post-golden-run image, comparing only the candidate pages instead of
// hashing the whole disk per run. An unmapped ramdisk page yields
// false, matching the historical DiskImage-error path (such runs are
// caught by severity grading on the trace-mismatch side if anything
// else diverged).
func (r *Runner) diskChanged() bool {
	cand := r.diskCandidates()
	for pn := range cand {
		if r.M.Mem.RawPage(pn) == nil {
			return false
		}
	}
	for pn := range cand {
		if !bytes.Equal(r.M.Mem.RawPage(pn), r.goldenPage(pn)) {
			return true
		}
	}
	return false
}

// refillDiskBuf brings diskBuf to the live guest ramdisk content. It
// first rolls tainted pages back to the golden image, then overlays the
// candidate pages from guest memory, so the per-call copy cost is
// proportional to the pages the run touched, not the disk size. It
// returns false when a ramdisk page is unmapped (the disk is gone).
func (r *Runner) refillDiskBuf() bool {
	switch {
	case r.diskBuf == nil || r.diskPoisoned:
		if r.diskBuf == nil {
			r.diskBuf = make([]byte, kernel.RamdiskSize)
			r.diskTainted = make(map[uint32]struct{})
		}
		for pn := ramdiskFirstPage; pn < ramdiskEndPage; pn++ {
			copy(r.diskBufPage(pn), r.goldenPage(pn))
		}
		clear(r.diskTainted)
		r.diskPoisoned = false
	default:
		for pn := range r.diskTainted {
			copy(r.diskBufPage(pn), r.goldenPage(pn))
			delete(r.diskTainted, pn)
		}
	}
	for pn := range r.diskCandidates() {
		p := r.M.Mem.RawPage(pn)
		if p == nil {
			return false
		}
		copy(r.diskBufPage(pn), p)
		r.diskTainted[pn] = struct{}{}
	}
	return true
}

// severity grades the post-run damage on the paper's three-level
// scale by checking the file system and the boot-critical files. The
// second result reports that the system would not boot (reinstall
// required).
func (r *Runner) severity() (Severity, bool) {
	// The scratch buffer holds a private copy of the ramdisk, so the
	// device (and ext2.Repair's writes to it) never touches guest
	// memory; it is brought up to date incrementally before each check.
	if !r.refillDiskBuf() {
		return SeverityMost, true
	}
	dev, err := disk.FromImage(r.diskBuf)
	if err != nil {
		return SeverityMost, true
	}
	rep := ext2.Check(dev)
	if rep.Status == ext2.StatusUnrecoverable {
		return SeverityMost, true
	}
	wasFixable := rep.Status == ext2.StatusFixable
	if wasFixable {
		// Repair writes into diskBuf at offsets the taint set does not
		// track: reset the buffer to the golden image on the next
		// refill.
		r.diskPoisoned = true
		if err := ext2.Repair(dev); err != nil {
			return SeverityMost, true
		}
	}
	fs, err := ext2.Open(dev)
	if err != nil {
		return SeverityMost, true
	}
	if err := fs.VerifyBoot(r.M.BootManifest); err != nil {
		// The system cannot come back up without reinstalling.
		return SeverityMost, true
	}
	if wasFixable {
		return SeveritySevere, false
	}
	return SeverityNormal, false
}

func isTextSub(s string) bool {
	switch s {
	case "arch", "fs", "kernel", "mm":
		return true
	}
	return false
}
