package inject

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/asm"
	"repro/internal/kernel"
)

// Registered fault model names. ModelBitflip is the paper's original
// instruction-bit-flip technique and the zero value: a Target with an
// empty Model field is a bitflip target, which keeps every journal and
// result set written before models existed readable — and keeps
// bitflip studies byte-identical to the pre-model reference.
const (
	ModelBitflip = "bitflip"
	ModelBurst   = "burst"
	ModelRegflip = "regflip"
	ModelSyscall = "syscall"
	ModelDisk    = "disk"
)

// CheckpointStatus is a fault model's declared compatibility with the
// checkpoint layer. A model whose fault takes effect at an activation
// event (a PC breakpoint, the Nth call of a syscall) is compatible:
// until that event a run is the golden run, so one checkpoint captured
// there serves every target with the same ActivationKey. A model whose
// fault is present before the run starts (disk) has no golden prefix
// and disables checkpointing with a typed Reason.
type CheckpointStatus struct {
	Compatible bool
	// Reason states why checkpoint reuse is unsound when Compatible is
	// false.
	Reason string
}

// ActivationKey names the event at which a target's fault takes
// effect; targets with equal keys share the run up to it. Group is a
// point model's breakpoint PC, or the syscall model's syscall number;
// Event tells one group's events apart (the syscall occurrence).
type ActivationKey struct {
	Group uint64
	Event uint64
}

// EnumContext is everything a fault model may consult while
// enumerating targets: the assembled program, the campaign's selected
// functions, the per-function subsample cap, and the golden run's
// per-syscall invocation counts (for occurrence-based models).
type EnumContext struct {
	Prog  *asm.Program
	Funcs []asm.Func
	// MaxTargetsPerFunc caps targets per function (or per equivalent
	// unit: per syscall number, per disk fault kind); 0 = no cap.
	MaxTargetsPerFunc int
	// SyscallCounts maps syscall number -> golden-run invocation count
	// (Runner.GoldenSyscallCounts).
	SyscallCounts map[int]uint64
}

// FaultModel owns one class of injected error end to end: which
// targets exist (Enumerate), how the fault is applied and when it
// counts as activated (PointModel.Apply at a PC breakpoint, or
// ArmedModel.Arm before the run), and whether the checkpoint layer is
// sound for it (Checkpoint) and which targets share a checkpoint
// (ActivationKey).
// Every registered model must also implement exactly one of
// PointModel or ArmedModel.
type FaultModel interface {
	// Name is the stable model key used in flags, journals and wire
	// specs.
	Name() string
	// Describe is a one-line human description (kinject -list-models).
	Describe() string
	// Checkpoint declares checkpoint compatibility.
	Checkpoint() CheckpointStatus
	// ActivationKey names t's activation event. The runner keeps the
	// checkpoints of one key group at a time; it never asks a model
	// whose Checkpoint is incompatible.
	ActivationKey(t Target) ActivationKey
	// Campaigns lists the campaigns the model gives meaning to; it is
	// the default selection when no -campaigns flag is given. Enumerate
	// returns an empty list (no error) for other campaigns.
	Campaigns() []Campaign
	// Enumerate lists the model's targets for one campaign. The rng is
	// seeded deterministically per campaign; models must consume it
	// deterministically so every worker derives the identical list.
	Enumerate(ctx EnumContext, c Campaign, rng *rand.Rand) ([]Target, error)
}

// PointModel is implemented by models whose activation point is a PC
// breakpoint: the runner arms a debug register at Target.InstAddr and
// calls Apply when it fires, mutating machine state (instruction
// bytes, a CPU register, a kernel data word). Their checkpoints are
// captured at the breakpoint and keyed on its PC (atPC).
type PointModel interface {
	FaultModel
	// Apply injects the fault into the machine stopped at the
	// activation PC. An error means the harness could not apply the
	// fault (a harness fault, not an outcome).
	Apply(m *kernel.Machine, t Target) error
}

// ArmedModel is implemented by models whose activation is not a PC
// breakpoint (a syscall occurrence, a disk medium fault): Arm installs
// the fault before the workloads run and reports activation afterwards.
// A checkpoint-compatible armed model (syscall) calls the runner's
// Armed.OnActivate at its activation event; the runner captures the
// checkpoint there.
type ArmedModel interface {
	FaultModel
	// Arm installs the fault on the restored pristine machine.
	Arm(m *kernel.Machine, t Target) (*Armed, error)
}

// Armed is a fault installed by an ArmedModel for one run.
type Armed struct {
	// Disarm removes any machine-level hook; called after the run.
	Disarm func()
	// Activated reports whether the fault fired and at which cycle.
	Activated func() (bool, uint64)
	// OnActivate, when the runner sets it, is called at the activation
	// event just before the fault takes effect.
	OnActivate func()
}

// registry holds every fault model in stable presentation order.
var registry = []FaultModel{
	bitflipModel{},
	burstModel{},
	regflipModel{},
	syscallModel{},
	diskModel{},
}

// Models returns every registered fault model, bitflip first.
func Models() []FaultModel {
	out := make([]FaultModel, len(registry))
	copy(out, registry)
	return out
}

// ModelNames returns the registered model names in presentation order.
func ModelNames() []string {
	names := make([]string, len(registry))
	for i, m := range registry {
		names[i] = m.Name()
	}
	return names
}

// ModelByName resolves a model name; "" means bitflip (the legacy
// default). Unknown names fail fast with the full model list, so a
// typo'd -fault-model aborts before any machine boots.
func ModelByName(name string) (FaultModel, error) {
	if name == "" {
		name = ModelBitflip
	}
	for _, m := range registry {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("inject: unknown fault model %q (available: %s)",
		name, strings.Join(ModelNames(), ", "))
}

// ModelTag canonicalizes a model name for persistence (journal
// headers, result sets, wire specs): bitflip — the pre-model default —
// is stored as the empty string, so bitflip artifacts stay
// byte-identical to those written before fault models existed.
func ModelTag(name string) string {
	if name == ModelBitflip {
		return ""
	}
	return name
}

// subsample deterministically thins a target list to max evenly spaced
// entries (the -max-targets cap). It is shared by core's legacy path
// and every model so the arithmetic — and therefore the target lists —
// cannot drift apart.
func subsample(ts []Target, max int) []Target {
	if max <= 0 || len(ts) <= max {
		return ts
	}
	step := float64(len(ts)) / float64(max)
	sub := make([]Target, 0, max)
	for i := 0; i < max; i++ {
		sub = append(sub, ts[int(float64(i)*step)])
	}
	return sub
}

// atPC is embedded by the point models: their activation event is the
// breakpoint at Target.InstAddr.
type atPC struct{}

func (atPC) Checkpoint() CheckpointStatus { return CheckpointStatus{Compatible: true} }
func (atPC) ActivationKey(t Target) ActivationKey {
	return ActivationKey{Group: uint64(t.InstAddr)}
}

// --- bitflip: the paper's instruction single-bit flip ---

type bitflipModel struct{ instFlip }

func (bitflipModel) Name() string { return ModelBitflip }
func (bitflipModel) Describe() string {
	return "single bit flip in instruction bytes at a PC breakpoint (the paper's campaigns A/B/C)"
}
func (bitflipModel) Campaigns() []Campaign {
	return []Campaign{CampaignA, CampaignB, CampaignC}
}

// Enumerate reproduces the pre-model campaign loop exactly — same
// per-function EnumerateTargets rng consumption, same even-spaced
// subsample — so bitflip target lists are identical to every study run
// before the FaultModel refactor.
func (bitflipModel) Enumerate(ctx EnumContext, c Campaign, rng *rand.Rand) ([]Target, error) {
	var out []Target
	for _, fn := range ctx.Funcs {
		ts, err := EnumerateTargets(ctx.Prog, fn, c, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, subsample(ts, ctx.MaxTargetsPerFunc)...)
	}
	return out, nil
}

// instFlip is embedded by the models that corrupt an instruction byte
// (bitflip, burst): Apply XORs flipMask into the byte at t.Addr(), and
// the runner reads the same mask to answer a masked branch.
type instFlip struct{ atPC }

// flipMask returns the bits t inverts in its byte.
func (instFlip) flipMask(t Target) byte { return t.BitMask() }

func (f instFlip) Apply(m *kernel.Machine, t Target) error {
	b, err := m.Mem.ReadRaw(t.Addr(), 1)
	if err != nil {
		return fmt.Errorf("read target byte %#x: %v", t.Addr(), err)
	}
	if err := m.Mem.WriteRaw(t.Addr(), []byte{b[0] ^ f.flipMask(t)}); err != nil {
		return fmt.Errorf("write target byte %#x: %v", t.Addr(), err)
	}
	return nil
}

// --- burst: adjacent multi-bit corruption of instruction bytes ---

type burstModel struct{ instFlip }

func (burstModel) Name() string { return ModelBurst }
func (burstModel) Describe() string {
	return "adjacent multi-bit burst (2-3 bits) in instruction bytes at a PC breakpoint"
}
func (burstModel) Campaigns() []Campaign {
	// A = bursts in non-branch instructions, B = bursts in conditional
	// branches; there is no single "condition-reversing burst", so C is
	// not meaningful for this model.
	return []Campaign{CampaignA, CampaignB}
}

func (burstModel) Enumerate(ctx EnumContext, c Campaign, rng *rand.Rand) ([]Target, error) {
	if c != CampaignA && c != CampaignB {
		return nil, nil
	}
	var out []Target
	for _, fn := range ctx.Funcs {
		insts, addrs, err := decodeFunc(ctx.Prog, fn)
		if err != nil {
			return nil, err
		}
		var ts []Target
		for i := range insts {
			in := &insts[i]
			if in.IsCondBranch() != (c == CampaignB) {
				continue
			}
			for b := 0; b < int(in.Len); b++ {
				width := 2 + rng.Intn(2)          // 2 or 3 adjacent bits
				bit := uint8(rng.Intn(9 - width)) // burst stays inside the byte
				ts = append(ts, Target{
					Model: ModelBurst,
					Func:  fn, InstAddr: addrs[i], InstLen: int(in.Len),
					ByteOff: b, Bit: bit, Width: width,
				})
			}
		}
		out = append(out, subsample(ts, ctx.MaxTargetsPerFunc)...)
	}
	return out, nil
}
