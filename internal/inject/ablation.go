package inject

import (
	"fmt"
	"time"

	"repro/internal/ia32"
	"repro/internal/kernel"
)

// DisableAssertions patches the booted kernel text, replacing every
// BUG()-style ud2 assertion with NOPs (same length, so addresses and
// branch targets are unchanged). This builds the paper's counterfactual:
// §8 attributes campaign C's dominant invalid-opcode crashes to kernel
// assertions, and the conclusions propose *adding* assertions to detect
// errors early and prevent propagation. Comparing a campaign against
// the assertion-stripped kernel quantifies exactly that effect.
//
// It returns the number of assertions disabled.
func DisableAssertions(m *kernel.Machine) (int, error) {
	patched := 0
	for _, fn := range m.Prog.Funcs {
		if !isTextSub(fn.Section) {
			continue
		}
		code, err := m.Mem.ReadRaw(fn.Addr, fn.Size)
		if err != nil {
			return patched, fmt.Errorf("inject: read %s: %w", fn.Name, err)
		}
		off := 0
		for off < len(code) {
			in, err := ia32.Decode(code[off:])
			if err != nil {
				break
			}
			if in.Op == ia32.OpUd2 {
				if err := m.Mem.WriteRaw(fn.Addr+uint32(off), []byte{0x90, 0x90}); err != nil {
					return patched, err
				}
				code[off], code[off+1] = 0x90, 0x90
				patched++
			}
			off += int(in.Len)
		}
	}
	return patched, nil
}

// EngineOptions select how a runner executes targets. Results are
// identical under every setting; the off settings are escape hatches
// and the reference arms for parity testing. The zero value is the
// fast engine, and the JSON form is part of the worker hello frame.
type EngineOptions struct {
	// NoCheckpoint disables checkpoint reuse and coverage answers,
	// forcing every target to run from the pristine boot snapshot.
	NoCheckpoint bool
	// NoBlocks disables the CPU's superblock trace-execution engine,
	// forcing per-instruction interpretation.
	NoBlocks bool `json:",omitempty"`
}

// RunnerOptions configure NewRunnerWithOptions.
type RunnerOptions struct {
	// DisableAssertions strips every kernel BUG()/ud2 assertion before
	// the golden run (the ablation build).
	DisableAssertions bool
	// RunTimeout overrides the per-run wall-clock watchdog deadline
	// used by SafeRunTarget (0 = derive a generous default from the
	// golden run's wall time).
	RunTimeout time.Duration
	// Model is the fault model the runner executes targets for (nil =
	// bitflip). Its ActivationKey decides which targets share a
	// checkpoint; a model without a golden prefix (disk) disables
	// checkpointing with a typed reason (Runner.CheckpointDisabled).
	Model FaultModel
	// EngineOptions select the execution engine.
	EngineOptions
}

// NewRunnerWithOptions is NewRunner with build options applied to the
// machine before the pristine snapshot is taken.
func NewRunnerWithOptions(ws []kernel.Workload, opts RunnerOptions) (*Runner, error) {
	m, err := kernel.Boot()
	if err != nil {
		return nil, err
	}
	if opts.DisableAssertions {
		if _, err := DisableAssertions(m); err != nil {
			return nil, err
		}
	}
	return newRunnerFromMachine(m, ws, opts)
}
