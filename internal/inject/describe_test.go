package inject

import (
	"testing"

	"repro/internal/asm"
)

// TestDescribeFunctionOffsets: instruction targets name their
// instruction as function+offset, not function+absolute address, and
// a legacy harness-fault frame (no Desc, so no function address)
// prints the absolute address without a "+".
func TestDescribeFunctionOffsets(t *testing.T) {
	fn := asm.Func{Name: "__generic_copy_to_user", Addr: 0xc01001f3}
	at := fn.Addr + 0x1b
	for _, tc := range []struct {
		name string
		t    Target
		want string
	}{
		{"bitflip", Target{Func: fn, InstAddr: at, ByteOff: 1, Bit: 5},
			"__generic_copy_to_user+0x1b byte 1 bit 5"},
		{"bitflip named", Target{Model: ModelBitflip, Func: fn, InstAddr: at, ByteOff: 1, Bit: 5},
			"__generic_copy_to_user+0x1b byte 1 bit 5"},
		{"function entry", Target{Func: fn, InstAddr: fn.Addr, Bit: 7},
			"__generic_copy_to_user+0x0 byte 0 bit 7"},
		{"burst", Target{Model: ModelBurst, Func: fn, InstAddr: at, ByteOff: 2, Bit: 3, Width: 4},
			"__generic_copy_to_user+0x1b byte 2 bits 3-6 (burst)"},
		{"regflip reg", Target{Model: ModelRegflip, Func: fn, InstAddr: at, Reg: 3, Bit: 9},
			"__generic_copy_to_user+0x1b reg r2 bit 9 (regflip)"},
		{"regflip data", Target{Model: ModelRegflip, Func: fn, InstAddr: fn.Addr, DataAddr: 0xc0200010, Bit: 1},
			"__generic_copy_to_user+0x0 data 0xc0200010 bit 1 (regflip)"},
		{"syscall", Target{Model: ModelSyscall, SysName: "read", SysNr: 3, Occurrence: 2, Errno: 5},
			"syscall read(3) occurrence 2 returns -5"},
	} {
		if got := tc.t.Describe(); got != tc.want {
			t.Errorf("%s: Describe() = %q, want %q", tc.name, got, tc.want)
		}
	}

	f := newFault(FaultHostError, Target{Func: fn, InstAddr: at, ByteOff: 1, Bit: 5}, "boom")
	if got, want := f.Error(), "inject: harness fault (host-error) at __generic_copy_to_user+0x1b byte 1 bit 5: boom"; got != want {
		t.Errorf("fault Error() = %q, want %q", got, want)
	}
	legacy := &HarnessFault{Kind: FaultPanic, Msg: "boom", Func: fn.Name, InstAddr: at, ByteOff: 1, Bit: 5}
	if got, want := legacy.Error(), "inject: harness fault (panic) at __generic_copy_to_user 0xc010020e byte 1 bit 5: boom"; got != want {
		t.Errorf("legacy Error() = %q, want %q", got, want)
	}
}
