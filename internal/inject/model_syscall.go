package inject

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/kernel"
)

// syscallModel forces error returns at the system_call boundary — the
// software analog of debugfs fail_function: the Occurrence'th
// invocation of a chosen syscall returns -ENOMEM, -EIO or -EFAULT
// without running the handler. The activation event is that call: the
// runner captures a checkpoint at its SyscallHook boundary, keyed on
// (SysNr, Occurrence), and replays it for the other errnos forced
// there.
type syscallModel struct{}

// syscallErrnos are the forced error returns, in fixed enumeration
// order (the ROADMAP's -ENOMEM/-EIO/-EFAULT triple).
var syscallErrnos = []int{kernel.ENOMEM, kernel.EIO, kernel.EFAULT}

func (syscallModel) Name() string { return ModelSyscall }
func (syscallModel) Describe() string {
	return "forced -ENOMEM/-EIO/-EFAULT error return at the system_call boundary (fail_function analog)"
}
func (syscallModel) Checkpoint() CheckpointStatus { return CheckpointStatus{Compatible: true} }
func (syscallModel) ActivationKey(t Target) ActivationKey {
	return ActivationKey{Group: uint64(t.SysNr), Event: t.Occurrence}
}
func (syscallModel) Campaigns() []Campaign { return []Campaign{CampaignA} }

// Enumerate targets every syscall the golden run actually invokes
// (ctx.SyscallCounts): each wired syscall number × each errno × three
// occurrences (first, middle, last call), deduplicated. The handler
// function attributes the injection to its subsystem in every report.
func (syscallModel) Enumerate(ctx EnumContext, c Campaign, rng *rand.Rand) ([]Target, error) {
	if c != CampaignA {
		return nil, nil
	}
	nrs := make([]int, 0, len(ctx.SyscallCounts))
	for nr, n := range ctx.SyscallCounts {
		if n > 0 {
			nrs = append(nrs, nr)
		}
	}
	sort.Ints(nrs)
	var out []Target
	for _, nr := range nrs {
		handler := kernel.SyscallHandler(nr)
		if handler == "" {
			continue
		}
		fn, ok := ctx.Prog.FuncByName(handler)
		if !ok {
			return nil, fmt.Errorf("inject: syscall %d handler %q not in program", nr, handler)
		}
		n := ctx.SyscallCounts[nr]
		occs := []uint64{1, (n + 1) / 2, n}
		seen := make(map[uint64]bool, 3)
		var ts []Target
		for _, errno := range syscallErrnos {
			for _, occ := range occs {
				if seen[uint64(errno)<<32|occ] {
					continue
				}
				seen[uint64(errno)<<32|occ] = true
				ts = append(ts, Target{
					Model: ModelSyscall, Func: fn,
					SysNr: nr, SysName: handler, Errno: errno, Occurrence: occ,
				})
			}
		}
		out = append(out, subsample(ts, ctx.MaxTargetsPerFunc)...)
	}
	return out, nil
}

func (syscallModel) Arm(m *kernel.Machine, t Target) (*Armed, error) {
	if t.Occurrence == 0 {
		return nil, fmt.Errorf("syscall target occurrence must be >= 1")
	}
	var (
		count     uint64
		activated bool
		cycle     uint64
	)
	a := &Armed{
		Disarm:    func() { m.SyscallHook = nil },
		Activated: func() (bool, uint64) { return activated, cycle },
	}
	m.SyscallHook = func(nr int, args [4]uint32) (int32, bool) {
		if activated || nr != t.SysNr {
			return 0, false
		}
		if count++; count != t.Occurrence {
			return 0, false
		}
		if a.OnActivate != nil {
			a.OnActivate()
		}
		activated = true
		cycle = m.CPU.Cycles
		return -int32(t.Errno), true
	}
	return a, nil
}
