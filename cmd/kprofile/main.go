// Command kprofile profiles the simulated kernel under the UnixBench
// workloads (the paper's Kernprof step) and prints the Figure 1
// subsystem sizes, the profile, and the Table 1 function distribution
// with its core set.
//
// Usage:
//
//	kprofile [-scale N] [-cover 0.95] [-top N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kprofile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kprofile", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "workload scale")
	cover := fs.Float64("cover", 0.95, "coverage fraction for the core set")
	top := fs.Int("top", 40, "functions to list (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s, err := core.New(core.Config{Scale: *scale, CoverFrac: *cover})
	if err != nil {
		return err
	}
	fmt.Println(s.ReportFigure1())
	fmt.Printf("kernel profile: %d functions, %d samples\n\n", len(s.Profile.Funcs), s.Profile.Total)
	fmt.Println(s.Profile.Render(*top))
	fmt.Println(s.ReportTable1())
	fmt.Printf("core set (%d functions):\n", len(s.Core))
	for _, f := range s.Core {
		fmt.Printf("  %-28s %-8s %6.2f%%\n", f.Name, f.Section, f.Pct)
	}
	return nil
}
