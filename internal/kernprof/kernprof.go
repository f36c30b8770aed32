// Package kernprof is the kernel profiler (the study's Kernprof v0.12
// substitute): it attributes to kernel functions the program-counter
// samples the CPU takes every cpu.SamplePeriod cycles of the injection
// runner's golden pass, while the benchmark workloads run. The study
// used it to find the most frequently used functions — the top
// functions covering 95% of samples became the injection targets.
package kernprof

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
)

// FuncProfile is one profiled function.
type FuncProfile struct {
	Name    string
	Section string
	Samples uint64
	Pct     float64 // share of all samples
	CumPct  float64 // cumulative share in rank order
}

// Profile is a kernel profile: PC samples attributed to functions.
type Profile struct {
	// Funcs is every function that received at least one sample,
	// sorted by sample count descending.
	Funcs []FuncProfile
	// Total is the total number of attributed samples.
	Total uint64
	// SectionTotals sums samples per subsystem.
	SectionTotals map[string]uint64
}

// FromSamples attributes PC samples, a count per sampled address, to
// the functions of prog; a sample outside every function (user code)
// is dropped.
func FromSamples(prog *asm.Program, samples map[uint32]uint64) *Profile {
	counts := make(map[asm.Func]uint64)
	for eip, n := range samples {
		if f, ok := prog.FuncAt(eip); ok {
			counts[f] += n
		}
	}
	p := &Profile{SectionTotals: make(map[string]uint64)}
	for f, n := range counts {
		p.Funcs = append(p.Funcs, FuncProfile{Name: f.Name, Section: f.Section, Samples: n})
		p.Total += n
		p.SectionTotals[f.Section] += n
	}
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Samples != p.Funcs[j].Samples {
			return p.Funcs[i].Samples > p.Funcs[j].Samples
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
	cum := uint64(0)
	for i := range p.Funcs {
		cum += p.Funcs[i].Samples
		p.Funcs[i].Pct = 100 * float64(p.Funcs[i].Samples) / float64(p.Total)
		p.Funcs[i].CumPct = 100 * float64(cum) / float64(p.Total)
	}
	return p
}

// TopCovering returns the smallest rank-ordered prefix of functions
// whose samples cover at least frac (0..1) of the total.
func (p *Profile) TopCovering(frac float64) []FuncProfile {
	target := frac * 100
	for i := range p.Funcs {
		if p.Funcs[i].CumPct >= target {
			return p.Funcs[:i+1]
		}
	}
	return p.Funcs
}

// SectionRow is one row of the paper's Table 1.
type SectionRow struct {
	Section  string
	Profiled int // functions within the subsystem that were sampled
	InCore   int // contribution to the core (top-covering) set
}

// Table1 computes the function distribution among kernel subsystems
// (paper Table 1): for each subsystem, how many functions were
// profiled and how many made the core set covering the given fraction.
func (p *Profile) Table1(frac float64) ([]SectionRow, []FuncProfile) {
	core := p.TopCovering(frac)
	coreBySec := make(map[string]int)
	for _, f := range core {
		coreBySec[f.Section]++
	}
	allBySec := make(map[string]int)
	for _, f := range p.Funcs {
		allBySec[f.Section]++
	}
	secs := make([]string, 0, len(allBySec))
	for s := range allBySec {
		secs = append(secs, s)
	}
	sort.Strings(secs)
	rows := make([]SectionRow, 0, len(secs))
	for _, s := range secs {
		rows = append(rows, SectionRow{Section: s, Profiled: allBySec[s], InCore: coreBySec[s]})
	}
	return rows, core
}

// Render formats the profile as a text table.
func (p *Profile) Render(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-8s %10s %7s %7s\n", "FUNCTION", "SUBSYS", "SAMPLES", "PCT", "CUM")
	for i, f := range p.Funcs {
		if max > 0 && i >= max {
			break
		}
		fmt.Fprintf(&b, "%-28s %-8s %10d %6.2f%% %6.2f%%\n",
			f.Name, f.Section, f.Samples, f.Pct, f.CumPct)
	}
	return b.String()
}
