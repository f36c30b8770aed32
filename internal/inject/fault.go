package inject

import "fmt"

// FaultKind classifies a harness fault — a failure of the experiment
// apparatus itself, as opposed to a paper outcome of the injected
// system. The paper's apparatus (hardware watchdog, reboot, LKCD)
// survived 35,000+ injections because harness failures were isolated
// from the target; this type is the software analog.
type FaultKind string

// Harness fault kinds.
const (
	// FaultPanic — a Go panic escaped the run (interpreter, ext2
	// checker, dump classifier); recovered by SafeRunTarget.
	FaultPanic FaultKind = "panic"
	// FaultTimeout — the wall-clock watchdog stopped a Go-level
	// livelock that never tripped the simulated-cycle watchdog
	// (distinct from the paper's simulated Hang outcome).
	FaultTimeout FaultKind = "timeout"
	// FaultHostError — the run ended with a host-level error that is
	// neither a crash dump nor a hang (previously miscounted as a
	// paper Hang, polluting Figure 4).
	FaultHostError FaultKind = "host-error"
	// FaultBreakpointIO — the breakpoint handler could not read or
	// write the target byte (previously silently classified Not
	// Activated).
	FaultBreakpointIO FaultKind = "breakpoint-io"
	// FaultWorkerDeath — under process isolation, the target killed
	// worker subprocesses until the supervisor's per-target circuit
	// breaker opened; the target is quarantined like an exhausted
	// in-process retry.
	FaultWorkerDeath FaultKind = "worker-death"
	// FaultReplayDiverged — the run left its golden path: a
	// checkpointed replay's engine issued an operation that does not
	// match the recorded prefix, or a record run never reached a PC
	// the golden run executed. The cached checkpoint is discarded and
	// the retry (on a fresh runner) re-records from the pristine
	// snapshot.
	FaultReplayDiverged FaultKind = "replay-diverged"
	// FaultArm — an armed fault model (syscall, disk) could not
	// install its fault on the restored machine; the run never
	// started, so no outcome exists.
	FaultArm FaultKind = "arm"
)

// FaultKinds lists every declared harness fault kind.
var FaultKinds = [...]FaultKind{FaultPanic, FaultTimeout, FaultHostError, FaultBreakpointIO,
	FaultWorkerDeath, FaultReplayDiverged, FaultArm}

// HarnessFault records one failure of the harness during an injection
// run. It is not an outcome: the run produced no trustworthy result,
// the machine state is suspect, and the caller must boot a fresh
// runner before retrying the target. Exhausted retries quarantine the
// target in the journal.
type HarnessFault struct {
	// Kind is the fault category.
	Kind FaultKind
	// Msg is the human-readable cause (panic value, error text).
	Msg string
	// Stack is the Go stack at recovery time (FaultPanic only).
	Stack string `json:",omitempty"`
	// Model and Desc identify the injection being attempted in
	// model-neutral terms: Model is the fault-model name ("" =
	// bitflip) and Desc is Target.Describe(). The bit-flip-specific
	// fields below are still populated for instruction-byte models so
	// older tooling keeps parsing quarantine frames.
	Model string `json:",omitempty"`
	Desc  string `json:",omitempty"`
	// Legacy bit-flip target tagging.
	Func     string `json:",omitempty"`
	InstAddr uint32 `json:",omitempty"`
	ByteOff  int    `json:",omitempty"`
	Bit      uint8  `json:",omitempty"`
}

// Error renders the fault as an error string.
func (f *HarnessFault) Error() string {
	if f.Desc != "" {
		return fmt.Sprintf("inject: harness fault (%s) at %s: %s", f.Kind, f.Desc, f.Msg)
	}
	if f.Func != "" {
		// A legacy frame carries no function address: print the
		// absolute instruction address, not a function offset.
		return fmt.Sprintf("inject: harness fault (%s) at %s %#x byte %d bit %d: %s",
			f.Kind, f.Func, f.InstAddr, f.ByteOff, f.Bit, f.Msg)
	}
	return fmt.Sprintf("inject: harness fault (%s): %s", f.Kind, f.Msg)
}

// newFault builds a fault tagged with the target being attempted.
func newFault(kind FaultKind, t Target, format string, args ...interface{}) *HarnessFault {
	f := &HarnessFault{
		Kind:  kind,
		Msg:   fmt.Sprintf(format, args...),
		Model: t.Model,
		Desc:  t.Describe(),
		Func:  t.Func.Name,
	}
	switch t.Model {
	case "", ModelBitflip, ModelBurst, ModelRegflip:
		f.InstAddr = t.InstAddr
		f.ByteOff = t.ByteOff
		f.Bit = t.Bit
	}
	return f
}
