package kernprof_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/kernprof"
	"repro/internal/unixbench"
)

// goldenProfile boots a runner and returns the profile of its golden
// pass, the way core.New derives a study's.
func goldenProfile(t *testing.T, scale int, opts inject.RunnerOptions) *kernprof.Profile {
	t.Helper()
	r, err := inject.NewRunnerWithOptions(unixbench.Suite(unixbench.Scale(scale)), opts)
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	return kernprof.FromSamples(r.M.Prog, r.GoldenSamples())
}

func TestCollectProfile(t *testing.T) {
	p := goldenProfile(t, 1, inject.RunnerOptions{})
	if p.Total == 0 || len(p.Funcs) < 20 {
		t.Fatalf("thin profile: total=%d funcs=%d", p.Total, len(p.Funcs))
	}
	t.Logf("profiled %d functions, %d samples\n%s", len(p.Funcs), p.Total, p.Render(20))

	// All four target subsystems must appear.
	for _, sec := range []string{"arch", "kernel", "mm", "fs"} {
		if p.SectionTotals[sec] == 0 {
			t.Errorf("no samples in subsystem %s", sec)
		}
	}

	// Cumulative percentages are monotone and end at 100.
	last := 0.0
	for _, f := range p.Funcs {
		if f.CumPct < last {
			t.Fatalf("cum pct not monotone at %s", f.Name)
		}
		last = f.CumPct
	}
	if last < 99.99 {
		t.Fatalf("cum pct ends at %f", last)
	}
}

func TestTopCoveringAndTable1(t *testing.T) {
	p := goldenProfile(t, 1, inject.RunnerOptions{})
	core := p.TopCovering(0.95)
	if len(core) == 0 || len(core) >= len(p.Funcs) {
		t.Fatalf("core set size %d of %d", len(core), len(p.Funcs))
	}
	// The core set must actually cover >= 95%.
	if core[len(core)-1].CumPct < 95 {
		t.Fatalf("core covers only %.2f%%", core[len(core)-1].CumPct)
	}

	rows, core2 := p.Table1(0.95)
	if len(core2) != len(core) {
		t.Fatalf("inconsistent core sets")
	}
	sumCore := 0
	sumAll := 0
	for _, r := range rows {
		sumCore += r.InCore
		sumAll += r.Profiled
	}
	if sumCore != len(core) {
		t.Fatalf("core rows sum %d != %d", sumCore, len(core))
	}
	if sumAll != len(p.Funcs) {
		t.Fatalf("profiled rows sum %d != %d", sumAll, len(p.Funcs))
	}
	t.Logf("Table 1: %+v (core %d functions)", rows, len(core))
}

func TestDeterministicProfile(t *testing.T) {
	p1 := goldenProfile(t, 1, inject.RunnerOptions{})
	p2 := goldenProfile(t, 1, inject.RunnerOptions{})
	if p1.Total != p2.Total || len(p1.Funcs) != len(p2.Funcs) {
		t.Fatalf("profiles differ: %d/%d vs %d/%d",
			p1.Total, len(p1.Funcs), p2.Total, len(p2.Funcs))
	}
	for i := range p1.Funcs {
		if p1.Funcs[i] != p2.Funcs[i] {
			t.Fatalf("rank %d differs: %+v vs %+v", i, p1.Funcs[i], p2.Funcs[i])
		}
	}
}

// TestGoldenPassProfile pins the profile every runner's golden pass
// records to testdata/profile_scaleN.txt: the rendering of the profile
// that a separate profiling run (kernprof.Collect, a second boot whose
// step loop sampled the PC every 97 cycles) recorded before sampling
// moved into the golden pass. The fault model, the assertion-stripped
// build and the checkpoint layer must not move a sample.
func TestGoldenPassProfile(t *testing.T) {
	model := func(name string) inject.FaultModel {
		m, err := inject.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	configs := []struct {
		name string
		opts inject.RunnerOptions
	}{
		{"bitflip", inject.RunnerOptions{}},
		{"no-assertions", inject.RunnerOptions{DisableAssertions: true}},
		{"checkpoint=false", inject.RunnerOptions{EngineOptions: inject.EngineOptions{NoCheckpoint: true}}},
		{"syscall", inject.RunnerOptions{Model: model("syscall")}},
		{"disk", inject.RunnerOptions{Model: model("disk")}},
	}
	for _, scale := range []int{1, 3} {
		want, err := os.ReadFile(fmt.Sprintf("testdata/profile_scale%d.txt", scale))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			t.Run(fmt.Sprintf("%s/scale=%d", c.name, scale), func(t *testing.T) {
				got := goldenProfile(t, scale, c.opts).Render(0)
				if got == string(want) {
					return
				}
				g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < min(len(g), len(w)); i++ {
					if g[i] != w[i] {
						t.Fatalf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
					}
				}
				t.Fatalf("got %d lines, want %d", len(g), len(w))
			})
		}
	}
}
