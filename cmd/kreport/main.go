// Command kreport re-analyzes a saved injection result set (produced
// by kinject -out) or a result journal (produced by kinject -journal)
// and prints the evaluation tables and figures. A partial journal —
// from an interrupted or still-running study — renders the report over
// the injections completed so far.
//
// Usage:
//
//	kreport [-verify] <results.json.gz | journal> [more sets...]
//	kreport -diff <a> <b>
//
// Given several result sets (or journals), kreport renders a
// side-by-side fault-model comparison — one column per set's fault
// model, with the outcome and severity distributions — followed by
// each set's full report. This is how studies run with different
// kinject -fault-model values are compared.
//
// -verify fscks each journal instead of reporting: every frame's
// length and CRC32C trailer is checked, and the first corrupt frame
// (if any) is reported with its index and file offset. A torn tail —
// the signature of a crash mid-write — is reported as recoverable;
// exit status is non-zero only for corruption or an unreadable file.
//
// -diff compares two result sets (saved files or journals) and names
// each difference: seed, scale, fault model and quarantine lists, and
// for each campaign the first target ordinal whose results differ, with
// the target and every differing field's two values. It exits 1 when
// the sets differ and 0 when they are identical, so a byte-parity check
// can name its own cause: cmp a b || { kreport -diff a b; exit 1; }.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/journal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kreport:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kreport", flag.ContinueOnError)
	verify := fs.Bool("verify", false, "fsck a journal: check every frame, report the first corruption")
	diff := fs.Bool("diff", false, "compare two result sets: name the first differing target of each campaign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 || *verify {
			return fmt.Errorf("usage: kreport -diff <a> <b>")
		}
		return runDiff(fs.Arg(0), fs.Arg(1), w)
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: kreport [-verify] <results.json.gz | journal> [more sets...]")
	}
	if *verify {
		// Verify every journal given, not just up to the first bad one:
		// a batch fsck that stops early would hide corruption in the
		// journals behind the first failure. All failures aggregate into
		// the exit status.
		var errs []error
		for _, path := range fs.Args() {
			if err := runVerify(path, w); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	sets := make([]*analysis.ResultSet, 0, fs.NArg())
	for _, path := range fs.Args() {
		rs, err := loadSet(path, w)
		if err != nil {
			return err
		}
		sets = append(sets, rs)
	}
	if len(sets) > 1 {
		// Several studies side by side: the fault-model comparison
		// table first, then each study's full report.
		fmt.Fprintln(w, analysis.RenderModelComparison(sets))
	}
	for _, rs := range sets {
		if _, err := fmt.Fprintln(w, analysis.RenderAll(rs)); err != nil {
			return err
		}
	}
	return nil
}

// loadSet reads one result set from a saved results file or a journal,
// announcing journal state (partial studies render over what is
// journaled so far).
func loadSet(path string, w io.Writer) (*analysis.ResultSet, error) {
	if journal.Sniff(path) {
		j, err := journal.Read(path)
		if err != nil {
			return nil, err
		}
		rs := j.ResultSet()
		state := "complete"
		if !j.Complete() {
			state = "partial"
		}
		fmt.Fprintf(w, "journal %s: %d injections journaled (%s)", path, j.CompletedCount(), state)
		if n := j.QuarantinedCount(); n > 0 {
			fmt.Fprintf(w, ", %d quarantined", n)
		}
		fmt.Fprint(w, "\n\n")
		return rs, nil
	}
	return analysis.Load(path)
}

// runVerify fscks one journal and renders the report. Corruption makes
// the command fail so scripts (and the CI chaos job) can gate on it.
func runVerify(path string, w io.Writer) error {
	if !journal.Sniff(path) {
		return fmt.Errorf("%s is not a journal file", path)
	}
	rep, err := journal.Verify(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "journal %s\n", rep.Path)
	fmt.Fprintf(w, "  format:      kjnl2 (CRC32C frames)\n")
	fmt.Fprintf(w, "  frames:      %d intact\n", rep.Frames)
	fmt.Fprintf(w, "  results:     %d injections", rep.Results)
	if rep.Quarantined > 0 {
		fmt.Fprintf(w, ", %d quarantined", rep.Quarantined)
	}
	fmt.Fprintln(w)
	keys := make([]string, 0, len(rep.Campaigns))
	for key := range rep.Campaigns {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(w, "  campaign %s:  %d targets announced\n", key, rep.Campaigns[key])
	}
	switch {
	case rep.Corrupt != nil:
		fmt.Fprintf(w, "  CORRUPT:     frame %d at offset %d: %s\n",
			rep.Corrupt.Frame, rep.Corrupt.Offset, rep.Corrupt.Reason)
		fmt.Fprintf(w, "  %d intact frames precede the corruption; do not resume from this journal\n", rep.Frames)
		return fmt.Errorf("%s: journal is corrupt (frame %d at offset %d)", path, rep.Corrupt.Frame, rep.Corrupt.Offset)
	case rep.Truncated:
		fmt.Fprintf(w, "  torn tail:   file ends mid-frame (crash signature); recoverable — kinject -resume truncates it\n")
	case rep.Trailer:
		fmt.Fprintf(w, "  trailer:     present (clean close)\n")
	}
	if rep.Complete {
		fmt.Fprintf(w, "  status:      complete — every announced target accounted for\n")
	} else {
		fmt.Fprintf(w, "  status:      partial — resumable with kinject -resume\n")
	}
	return nil
}
