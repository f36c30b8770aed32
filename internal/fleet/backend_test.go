package fleet

import (
	"testing"

	"repro/internal/inject"
	"repro/internal/wire"
)

// The engine options in a worker's hello spec must reach the study it
// boots and that study's runner.
func TestBackendBootPassesEngineOptions(t *testing.T) {
	opts := inject.EngineOptions{NoCheckpoint: true, NoBlocks: true}
	var b Backend
	if _, err := b.Boot(wire.StudySpec{Seed: 2003, Scale: 1, Campaigns: "C", MaxTargetsPerFunc: 1, MaxFuncsPerCampaign: 1, EngineOptions: opts}); err != nil {
		t.Fatal(err)
	}
	if b.study.Cfg.EngineOptions != opts {
		t.Fatalf("study engine options %+v, want %+v", b.study.Cfg.EngineOptions, opts)
	}
	if r := b.study.Runner; r.Checkpointing() || !r.M.CPU.DisableBlocks {
		t.Fatalf("runner checkpointing=%v blocks disabled=%v, want false and true", r.Checkpointing(), r.M.CPU.DisableBlocks)
	}
}
