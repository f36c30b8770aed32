package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/kernel"
)

// regflipModel corrupts live CPU state instead of program text: at a
// chosen PC (still a debug-register breakpoint, so the checkpoint
// cache applies) it flips one bit of a general-purpose register, or of
// a kernel data word (scheduler and allocator globals). This is the
// classic register/memory-state fault model that complements the
// paper's instruction-stream corruption.
type regflipModel struct{ atPC }

// regflipGlobals are the kernel data words eligible for data-state
// flips, in fixed enumeration order (scheduler state, pools, cached
// superblock fields — the globals every subsystem reads). Symbols
// missing from a build are skipped.
var regflipGlobals = []string{
	"current", "jiffies", "need_resched", "next_pid",
	"umask_val", "frame_top", "pg_free", "bh_free",
}

func (regflipModel) Name() string { return ModelRegflip }
func (regflipModel) Describe() string {
	return "single bit flip in a CPU register or kernel data word at a PC breakpoint"
}
func (regflipModel) Campaigns() []Campaign { return []Campaign{CampaignA} }

func (regflipModel) Enumerate(ctx EnumContext, c Campaign, rng *rand.Rand) ([]Target, error) {
	if c != CampaignA {
		return nil, nil
	}
	var globals []uint32
	for _, name := range regflipGlobals {
		if addr, ok := ctx.Prog.Symbols[name]; ok {
			globals = append(globals, addr)
		}
	}
	var out []Target
	for _, fn := range ctx.Funcs {
		insts, addrs, err := decodeFunc(ctx.Prog, fn)
		if err != nil {
			return nil, err
		}
		var ts []Target
		for i := range insts {
			ts = append(ts, Target{
				Model: ModelRegflip,
				Func:  fn, InstAddr: addrs[i], InstLen: int(insts[i].Len),
				Reg: 1 + rng.Intn(8), Bit: uint8(rng.Intn(32)),
			})
		}
		if len(globals) > 0 && len(insts) > 0 {
			// One data-word flip per function, applied when execution
			// reaches the function entry.
			ts = append(ts, Target{
				Model: ModelRegflip,
				Func:  fn, InstAddr: fn.Addr, InstLen: int(insts[0].Len),
				DataAddr: globals[rng.Intn(len(globals))], Bit: uint8(rng.Intn(32)),
			})
		}
		out = append(out, subsample(ts, ctx.MaxTargetsPerFunc)...)
	}
	return out, nil
}

func (regflipModel) Apply(m *kernel.Machine, t Target) error {
	if t.Reg > 0 {
		if t.Reg > len(m.CPU.Regs) {
			return fmt.Errorf("register index %d out of range", t.Reg)
		}
		m.CPU.Regs[t.Reg-1] ^= 1 << (t.Bit % 32)
		return nil
	}
	// Data-word flip: corrupt bit Bit of the 32-bit global at DataAddr
	// via the byte that holds it (raw access, as the injector's debug
	// harness would).
	addr := t.DataAddr + uint32(t.Bit/8)
	b, err := m.Mem.ReadRaw(addr, 1)
	if err != nil {
		return fmt.Errorf("read data word %#x: %v", addr, err)
	}
	if err := m.Mem.WriteRaw(addr, []byte{b[0] ^ (1 << (t.Bit % 8))}); err != nil {
		return fmt.Errorf("write data word %#x: %v", addr, err)
	}
	return nil
}
