package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/disk"
	"repro/internal/kernel"
)

// diskModel injects storage faults against the ramdisk backing the
// ext2-lite root file system: a dead sector (0xFF fill), a torn write
// (half-committed block), or a flaky sector (seeded bit rot). The
// fault is applied to the pristine boot image before the workloads
// run, so no run shares a golden prefix with another and the
// checkpoint layer is disabled with a typed reason.
type diskModel struct{}

// diskBlockStride spaces the targeted blocks across the ramdisk
// geometry (superblock, bitmaps, inode tables, data) without
// enumerating all RamdiskBlocks per kind.
const diskBlockStride = 16

// diskFunc is the pseudo-function disk targets are attributed to:
// the fault is injected into the storage medium, not kernel text.
var diskFunc = asm.Func{Name: "ramdisk", Section: "disk"}

func (diskModel) Name() string { return ModelDisk }
func (diskModel) Describe() string {
	return "disk-I/O fault against a ramdisk block: error (dead sector), torn write, or flaky (seeded bit rot)"
}
func (diskModel) Checkpoint() CheckpointStatus {
	return CheckpointStatus{
		Compatible: false,
		Reason:     "the fault corrupts the boot disk image before the run, so there is no golden prefix to checkpoint",
	}
}
func (diskModel) Campaigns() []Campaign { return []Campaign{CampaignA} }

// ActivationKey is never asked for: checkpointing is off for disk.
func (diskModel) ActivationKey(Target) ActivationKey { return ActivationKey{} }

func (diskModel) Enumerate(ctx EnumContext, c Campaign, rng *rand.Rand) ([]Target, error) {
	if c != CampaignA {
		return nil, nil
	}
	var out []Target
	for _, kind := range disk.FaultKinds() {
		var ts []Target
		for blk := 0; blk < kernel.RamdiskBlocks; blk += diskBlockStride {
			t := Target{Model: ModelDisk, Func: diskFunc, DiskKind: string(kind), Block: blk}
			if kind == disk.FaultFlaky {
				t.FaultSeed = rng.Int63()
			}
			ts = append(ts, t)
		}
		out = append(out, subsample(ts, ctx.MaxTargetsPerFunc)...)
	}
	return out, nil
}

// Arm corrupts the targeted ramdisk block in guest memory with the
// shared disk.CorruptBlock pattern, so device-level tests and the
// in-kernel injector corrupt identically. The fault is present from
// the first instruction, so it counts as activated at arm time.
func (diskModel) Arm(m *kernel.Machine, t Target) (*Armed, error) {
	switch disk.FaultKind(t.DiskKind) {
	case disk.FaultError, disk.FaultTorn, disk.FaultFlaky:
	default:
		return nil, fmt.Errorf("unknown disk fault kind %q", t.DiskKind)
	}
	if t.Block < 0 || t.Block >= kernel.RamdiskBlocks {
		return nil, fmt.Errorf("ramdisk block %d out of range [0,%d)", t.Block, kernel.RamdiskBlocks)
	}
	addr := uint32(kernel.RamdiskBase) + uint32(t.Block)*uint32(disk.BlockSize)
	raw, err := m.Mem.ReadRaw(addr, uint32(disk.BlockSize))
	if err != nil {
		return nil, fmt.Errorf("read ramdisk block %d at %#x: %v", t.Block, addr, err)
	}
	blk := append([]byte(nil), raw...)
	disk.CorruptBlock(blk, disk.FaultKind(t.DiskKind), t.FaultSeed)
	if err := m.Mem.WriteRaw(addr, blk); err != nil {
		return nil, fmt.Errorf("write ramdisk block %d at %#x: %v", t.Block, addr, err)
	}
	cycle := m.CPU.Cycles
	return &Armed{Activated: func() (bool, uint64) { return true, cycle }}, nil
}
