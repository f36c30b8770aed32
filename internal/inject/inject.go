// Package inject implements the Linux kernel error injector — the
// paper's primary contribution. It enumerates injection targets in the
// instruction stream of selected kernel functions, triggers a
// single-bit flip via a CPU debug register when the target instruction
// is reached (as the paper's injection driver did on IA-32 hardware),
// and classifies each run's outcome per the paper's Table 3: Not
// Activated, Not Manifested, Fail Silence Violation, Crash, or Hang.
package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/ia32"
)

// Campaign identifies one of the paper's three fault-injection
// campaigns (Table 4).
type Campaign int

// Campaigns.
const (
	// CampaignA — Any Random Error: a random bit in each byte of every
	// non-branch instruction.
	CampaignA Campaign = iota + 1
	// CampaignB — Random Branch Error: a random bit in each byte of
	// every conditional branch instruction.
	CampaignB
	// CampaignC — Valid but Incorrect Branch: the single bit that
	// reverses the condition of every conditional branch.
	CampaignC
)

func (c Campaign) String() string {
	switch c {
	case CampaignA:
		return "A (any random error)"
	case CampaignB:
		return "B (random branch error)"
	case CampaignC:
		return "C (valid but incorrect branch)"
	}
	return "campaign?"
}

// Target is one injection, tagged by fault model. The zero Model means
// bitflip (flip Bit of the byte at ByteOff within the instruction at
// InstAddr — the original, and only pre-model, target shape); every
// model-specific field is omitted from JSON when zero so bitflip
// journals and result sets are byte-identical to those written before
// fault models existed.
type Target struct {
	Func     asm.Func
	InstAddr uint32
	InstLen  int
	ByteOff  int
	Bit      uint8

	// Model names the fault model that owns this target; "" = bitflip.
	Model string `json:",omitempty"`
	// Width is the burst width in bits (burst model; bits
	// Bit..Bit+Width-1 of the byte are inverted).
	Width int `json:",omitempty"`
	// Reg is the 1-based CPU register index to corrupt (regflip model);
	// 0 means the target corrupts DataAddr instead. 1-based so the
	// bitflip zero value stays absent from JSON.
	Reg int `json:",omitempty"`
	// DataAddr is the kernel data word to corrupt (regflip model with
	// Reg == 0).
	DataAddr uint32 `json:",omitempty"`
	// SysNr/SysName/Errno/Occurrence describe a syscall error-return
	// injection: the Occurrence'th call of syscall SysNr returns
	// -Errno without running the handler (SysName).
	SysNr      int    `json:",omitempty"`
	SysName    string `json:",omitempty"`
	Errno      int    `json:",omitempty"`
	Occurrence uint64 `json:",omitempty"`
	// DiskKind/Block/FaultSeed describe a disk-I/O fault against
	// ramdisk block Block: "error" (unreadable, 0xFF fill),
	// "torn" (half-written), or "flaky" (seeded random bit rot).
	DiskKind  string `json:",omitempty"`
	Block     int    `json:",omitempty"`
	FaultSeed int64  `json:",omitempty"`
}

// Addr returns the address of the instruction byte to corrupt
// (bitflip/burst models).
func (t Target) Addr() uint32 { return t.InstAddr + uint32(t.ByteOff) }

// BitMask returns the byte mask inverted by an instruction-byte
// target: a single bit for bitflip, Width adjacent bits for burst.
func (t Target) BitMask() byte {
	if t.Width > 1 {
		return byte((1<<t.Width - 1) << t.Bit)
	}
	return 1 << t.Bit
}

// Describe renders the target in model-appropriate terms for logs,
// harness faults, and quarantine frames. Instruction targets name the
// instruction as function+offset.
func (t Target) Describe() string {
	off := t.InstAddr - t.Func.Addr
	switch t.Model {
	case ModelBurst:
		return fmt.Sprintf("%s+%#x byte %d bits %d-%d (burst)",
			t.Func.Name, off, t.ByteOff, t.Bit, int(t.Bit)+t.Width-1)
	case ModelRegflip:
		if t.Reg > 0 {
			return fmt.Sprintf("%s+%#x reg r%d bit %d (regflip)",
				t.Func.Name, off, t.Reg-1, t.Bit)
		}
		return fmt.Sprintf("%s+%#x data %#x bit %d (regflip)",
			t.Func.Name, off, t.DataAddr, t.Bit)
	case ModelSyscall:
		return fmt.Sprintf("syscall %s(%d) occurrence %d returns -%d",
			t.SysName, t.SysNr, t.Occurrence, t.Errno)
	case ModelDisk:
		return fmt.Sprintf("disk block %d fault %q seed %d",
			t.Block, t.DiskKind, t.FaultSeed)
	}
	return fmt.Sprintf("%s+%#x byte %d bit %d",
		t.Func.Name, off, t.ByteOff, t.Bit)
}

// Outcome classifies one injection run (paper Table 3).
type Outcome int

// Outcomes.
const (
	OutcomeNotActivated  Outcome = iota + 1 // corrupted instruction never executed
	OutcomeNotManifested                    // executed, no visible abnormal impact
	OutcomeFailSilence                      // incorrect data/response propagated out
	OutcomeCrash                            // OS stopped: bad trap / oops / panic
	OutcomeHang                             // resources exhausted, watchdog reset
)

func (o Outcome) String() string {
	switch o {
	case OutcomeNotActivated:
		return "not activated"
	case OutcomeNotManifested:
		return "not manifested"
	case OutcomeFailSilence:
		return "fail silence violation"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	}
	return "outcome?"
}

// Severity is the crash-severity scale of the paper's §7.1.
type Severity int

// Severities.
const (
	SeverityNone   Severity = iota // no crash
	SeverityNormal                 // automatic reboot (< 4 minutes)
	SeveritySevere                 // manual fsck required (> 5 minutes)
	SeverityMost                   // file-system reformat / OS reinstall (~1 hour)
)

func (s Severity) String() string {
	switch s {
	case SeverityNone:
		return "none"
	case SeverityNormal:
		return "normal"
	case SeveritySevere:
		return "severe"
	case SeverityMost:
		return "most severe"
	}
	return "severity?"
}

// decodeFunc decodes the instructions of fn from the program image.
func decodeFunc(prog *asm.Program, fn asm.Func) ([]ia32.Inst, []uint32, error) {
	sec, ok := prog.Sections[fn.Section]
	if !ok {
		return nil, nil, fmt.Errorf("inject: no section %q", fn.Section)
	}
	start := fn.Addr - sec.Base
	code := sec.Code[start : start+fn.Size]
	var insts []ia32.Inst
	var addrs []uint32
	off := 0
	for off < len(code) {
		in, err := ia32.Decode(code[off:])
		if err != nil {
			return nil, nil, fmt.Errorf("inject: %s+%#x: %w", fn.Name, off, err)
		}
		insts = append(insts, in)
		addrs = append(addrs, fn.Addr+uint32(off))
		off += int(in.Len)
	}
	return insts, addrs, nil
}

// EnumerateTargets lists every injection for a function under a
// campaign, per Table 4:
//
//	A: one random bit in each byte of every non-branch instruction
//	B: one random bit in each byte of every conditional branch
//	C: the condition-reversing bit of every conditional branch
//
// The rng drives the random bit choices deterministically.
func EnumerateTargets(prog *asm.Program, fn asm.Func, c Campaign, rng *rand.Rand) ([]Target, error) {
	insts, addrs, err := decodeFunc(prog, fn)
	if err != nil {
		return nil, err
	}
	var out []Target
	for i := range insts {
		in := &insts[i]
		switch c {
		case CampaignA:
			if in.IsCondBranch() {
				continue
			}
			for b := 0; b < int(in.Len); b++ {
				out = append(out, Target{
					Func: fn, InstAddr: addrs[i], InstLen: int(in.Len),
					ByteOff: b, Bit: uint8(rng.Intn(8)),
				})
			}
		case CampaignB:
			if !in.IsCondBranch() {
				continue
			}
			for b := 0; b < int(in.Len); b++ {
				out = append(out, Target{
					Func: fn, InstAddr: addrs[i], InstLen: int(in.Len),
					ByteOff: b, Bit: uint8(rng.Intn(8)),
				})
			}
		case CampaignC:
			if !in.IsCondBranch() {
				continue
			}
			off, bit, ok := in.CondFlipOffset()
			if !ok {
				continue
			}
			out = append(out, Target{
				Func: fn, InstAddr: addrs[i], InstLen: int(in.Len),
				ByteOff: off, Bit: bit,
			})
		}
	}
	return out, nil
}

// HasCondBranch reports whether fn contains at least one conditional
// branch (candidate for campaigns B and C).
func HasCondBranch(prog *asm.Program, fn asm.Func) bool {
	insts, _, err := decodeFunc(prog, fn)
	if err != nil {
		return false
	}
	for i := range insts {
		if insts[i].IsCondBranch() {
			return true
		}
	}
	return false
}
