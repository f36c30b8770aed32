package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/inject"
	"repro/internal/journal"
)

func TestRunReport(t *testing.T) {
	rs := &analysis.ResultSet{
		Seed:  1,
		Scale: 1,
		Results: map[string][]inject.Result{
			"A": {{
				Campaign:  inject.CampaignA,
				Target:    inject.Target{Func: asm.Func{Name: "sys_read", Section: "fs", Addr: 0x1000, Size: 32}},
				Outcome:   inject.OutcomeNotManifested,
				Activated: true,
			}},
		},
	}
	path := t.TempDir() + "/r.json.gz"
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 4 — campaign A") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("no-arg run accepted")
	}
	if err := run([]string{"/does/not/exist"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// kreport accepts a result journal wherever a results file is
// accepted, including a partial journal from an interrupted study.
func TestRunReportFromJournal(t *testing.T) {
	path := t.TempDir() + "/journal"
	w, err := journal.Create(path, journal.Header{Seed: 1, Scale: 1, Campaigns: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginCampaign(inject.CampaignA, 2); err != nil {
		t.Fatal(err)
	}
	res := inject.Result{
		Campaign:  inject.CampaignA,
		Target:    inject.Target{Func: asm.Func{Name: "sys_read", Section: "fs", Addr: 0x1000, Size: 32}},
		Outcome:   inject.OutcomeNotManifested,
		Activated: true,
	}
	if err := w.Put(inject.CampaignA, 0, 0, 2, res); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "1 injections journaled (partial)") {
		t.Fatalf("missing partial-journal note:\n%s", got)
	}
	if !strings.Contains(got, "Figure 4 — campaign A") {
		t.Fatalf("missing report:\n%s", got)
	}
}

// Several result sets render the side-by-side fault-model comparison
// before the individual reports.
func TestRunModelComparison(t *testing.T) {
	dir := t.TempDir()
	mk := func(name, model string) string {
		rs := &analysis.ResultSet{
			Seed:       1,
			Scale:      1,
			FaultModel: model,
			Results: map[string][]inject.Result{
				"A": {{
					Campaign:  inject.CampaignA,
					Target:    inject.Target{Model: model, Func: asm.Func{Name: "sys_read", Section: "fs", Addr: 0x1000, Size: 32}},
					Outcome:   inject.OutcomeCrash,
					Activated: true,
				}},
			},
		}
		path := dir + "/" + name
		if err := rs.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := mk("bitflip.json.gz", "")
	p2 := mk("syscall.json.gz", "syscall")

	var out bytes.Buffer
	if err := run([]string{p1, p2}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	cmp := strings.Index(got, "Fault-model comparison")
	if cmp < 0 {
		t.Fatalf("missing comparison table:\n%s", got)
	}
	first := strings.Index(got, "Injection study")
	if first >= 0 && first < cmp {
		t.Fatal("comparison table must precede the per-set reports")
	}
	for _, want := range []string{"bitflip", "fault model: syscall", "Figure 4 — campaign A"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q:\n%s", want, got)
		}
	}

	// A single set renders exactly as before — no comparison header.
	out.Reset()
	if err := run([]string{p1}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Fault-model comparison") {
		t.Fatal("single-set report grew a comparison table")
	}
}

// kreport -diff names the first differing target ordinal of each
// campaign, field by field, and exits non-zero exactly when the sets
// differ; it reads journals as well as saved sets.
func TestRunDiff(t *testing.T) {
	res := func(fn string, o inject.Outcome, hangEIP uint32) inject.Result {
		return inject.Result{
			Campaign: inject.CampaignA,
			Target:   inject.Target{Func: asm.Func{Name: fn, Section: "fs", Addr: 0x1000, Size: 32}, InstAddr: 0x1004, Bit: 3},
			Outcome:  o, Activated: true, HangEIP: hangEIP,
		}
	}
	base := func() *analysis.ResultSet {
		return &analysis.ResultSet{Seed: 1, Scale: 1, Results: map[string][]inject.Result{"A": {
			res("sys_read", inject.OutcomeNotManifested, 0),
			res("sys_write", inject.OutcomeHang, 0xC0101234),
			res("sys_open", inject.OutcomeCrash, 0),
		}}}
	}
	for _, tc := range []struct {
		name    string
		edit    func(rs *analysis.ResultSet)
		journal bool // save the second set as a journal
		want    []string
	}{
		{name: "identical", edit: func(*analysis.ResultSet) {}, want: []string{"identical"}},
		{name: "identical journal", edit: func(*analysis.ResultSet) {}, journal: true, want: []string{"identical"}},
		{
			name: "hang site",
			edit: func(rs *analysis.ResultSet) { rs.Results["A"][1].HangEIP = 0xC0105678 },
			want: []string{"campaign A: first difference at target ordinal 1", "target: sys_write+0x4 byte 0 bit 3",
				"HangEIP: 0xc0101234 vs 0xc0105678"},
		},
		{
			name:    "outcome from a journal",
			edit:    func(rs *analysis.ResultSet) { rs.Results["A"][2].Outcome = inject.OutcomeHang },
			journal: true,
			want:    []string{"first difference at target ordinal 2", "Outcome: crash vs hang"},
		},
		{
			// The second set quarantined ordinal 0, so its slice index 0
			// is ordinal 1: nothing shifts, and ordinal 0 is the
			// difference.
			name: "quarantine",
			edit: func(rs *analysis.ResultSet) {
				rs.Results["A"] = rs.Results["A"][1:]
				rs.Quarantined = map[string][]int{"A": {0}}
			},
			want: []string{"campaign A quarantined: [] vs [0]", "first difference at target ordinal 0",
				"target: sys_read+0x4 byte 0 bit 3", "only in the first set"},
		},
		{
			name: "study parameters",
			edit: func(rs *analysis.ResultSet) { rs.Seed, rs.Scale, rs.FaultModel = 2, 3, "syscall" },
			want: []string{"seed: 1 vs 2", "scale: 1 vs 3", "fault model: bitflip vs syscall"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pa, pb := dir+"/a.json.gz", dir+"/b.json.gz"
			if err := base().Save(pa); err != nil {
				t.Fatal(err)
			}
			b := base()
			tc.edit(b)
			if tc.journal {
				pb = dir + "/b.jnl"
				saveJournal(t, pb, b)
			} else if err := b.Save(pb); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := run([]string{"-diff", pa, pb}, &out)
			if identical := tc.want[0] == "identical"; identical != (err == nil) {
				t.Fatalf("err = %v, want identical=%v; output:\n%s", err, identical, out.String())
			}
			if err != nil && err != errDiffer {
				t.Fatalf("err = %v, want %v", err, errDiffer)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("missing %q in:\n%s", w, out.String())
				}
			}
		})
	}
	if err := run([]string{"-diff", "only-one"}, &bytes.Buffer{}); err == nil || err == errDiffer {
		t.Fatalf("-diff with one set: err = %v", err)
	}
}

// saveJournal writes rs's campaign A as a complete journal.
func saveJournal(t *testing.T, path string, rs *analysis.ResultSet) {
	t.Helper()
	w, err := journal.Create(path, journal.Header{Seed: rs.Seed, Scale: rs.Scale, Campaigns: "A", FaultModel: rs.FaultModel})
	if err != nil {
		t.Fatal(err)
	}
	n := len(rs.Results["A"]) + len(rs.Quarantined["A"])
	if err := w.BeginCampaign(inject.CampaignA, n); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs.Results["A"] {
		if err := w.Put(inject.CampaignA, 0, i, n, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
}
