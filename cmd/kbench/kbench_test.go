package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func specFile(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	spec, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, spec
}

// TestBenchmarkSchema holds BENCHMARK.json to its format's limits and to
// kbench's own tables.
func TestBenchmarkSchema(t *testing.T) {
	path, spec := specFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "command,end_to_end,paths,per_layer,run_seconds,workloads"; got != want {
		t.Errorf("top-level keys %s, want %s", got, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(spec.Workloads))
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", len(spec.EndToEnd))
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}

	workloadSet := map[string]bool{}
	for _, w := range spec.Workloads {
		checkName(w.Name)
		workloadSet[w.Name] = true
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is not one kbench runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(workloadSet) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, kbench runs %d", len(workloadSet), len(workloads))
	}

	e2e := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("e2e metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("e2e metric %s needs a bound in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound (%v < %v)", setupBound, maxBound)
	}

	for _, m := range spec.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound != nil {
			t.Errorf("per-layer metric %s: unit %q better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		e, ok := effectOf(m.Name)
		if !ok {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m.Name)
			continue
		}
		if !e2e[e.moves] {
			t.Errorf("per-layer metric %s moves %q, not an end-to-end metric", m.Name, e.moves)
		}
		if len(e.on) == 0 {
			t.Errorf("per-layer metric %s names no workload", m.Name)
		}
		for _, w := range e.on {
			if !workloadSet[w] {
				t.Errorf("per-layer metric %s: unknown workload %q", m.Name, w)
			}
		}
	}

	// Every study has its recorded seeds, the paper's 2003 and the
	// held-out 4242 among them, and the table maps -seed onto them.
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{2003, 4242} {
			if got, want := d.studySeed(w.study.key, seed); got != seed || want == "" {
				t.Errorf("digests.json records no digest for %s (%s) seed %d", w.name, w.study.key, seed)
			}
		}
		if s0, _ := d.studySeed(w.study.key, 0); s0 != 2003 {
			t.Errorf("%s: -seed 0 runs study seed %d, want 2003", w.name, s0)
		}
	}

	// The baseline records the machine and, per workload, the median and
	// quartiles of every end-to-end metric.
	var base struct {
		CPUs      int    `json:"cpus"`
		Go        string `json:"go"`
		Date      string `json:"date"`
		Workloads map[string]map[string]struct {
			Median, Q1, Q3 float64
			Unit           string
		} `json:"workloads"`
	}
	b, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatal(err)
	}
	if base.CPUs < 1 || base.Go == "" || base.Date == "" {
		t.Errorf("baseline.json lacks cpus, go or date: %d %q %q", base.CPUs, base.Go, base.Date)
	}
	for w := range workloadSet {
		for _, m := range spec.EndToEnd {
			q, ok := base.Workloads[w][m.Name]
			if !ok || q.Unit != m.Unit || !(q.Q1 <= q.Median && q.Median <= q.Q3) || q.Median <= 0 {
				t.Errorf("baseline.json: %s %s missing or inconsistent: %+v", w, m.Name, q)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // outlives root
		{ID: 5, Parent: 2, Name: "a1", Start: 15 * ms, End: 20 * ms},
	}
	selfTimes(spans)
	want := map[string]time.Duration{"root": 40 * ms, "a": 25 * ms, "b": 30 * ms, "c": 30 * ms, "a1": 5 * ms}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{1000, "p99"}, {100, "p90"}, {40, "p75"}, {20, "max"}, {0, "none"}} {
		xs := make(sample, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		if _, got := xs.tail(); got != c.want {
			t.Errorf("n=%d: tail %s, want %s", c.n, got, c.want)
		}
	}
}

// output is one kbench invocation's parsed standard output.
type output struct {
	points  map[string]map[string]point // workload -> metric -> line
	summary summary
}

func runKbench(t *testing.T, c config) (int, output, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(c, &stdout, &stderr)
	out := output{points: map[string]map[string]point{}}
	sc := bufio.NewScanner(&stdout)
	var last string
	for sc.Scan() {
		last = sc.Text()
		var p point
		if json.Unmarshal([]byte(last), &p) == nil && p.Metric != "" {
			if out.points[p.Workload] == nil {
				out.points[p.Workload] = map[string]point{}
			}
			out.points[p.Workload][p.Metric] = p
		}
	}
	if err := json.Unmarshal([]byte(last), &out.summary); err != nil {
		t.Fatalf("last line %q is not the summary: %v\n%s", last, err, stderr.String())
	}
	return code, out, stderr.String()
}

// TestSmoke runs every executor path on shrunken studies: the e2e run of
// all workloads, a traced run, and a run against a wrong digest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	_, spec := specFile(t)
	work := t.TempDir()
	small := make([]workload, len(workloads))
	for i, w := range workloads {
		w.study = w.study.shrink()
		small[i] = w
	}
	// No digest is recorded for the shrunken studies.
	c := config{root: root, spec: spec, workloads: small, seed: 2003, window: time.Second, work: work}

	code, out, stderr := runKbench(t, c)
	if code != 0 || !out.summary.Correct || out.summary.Failed != 0 {
		t.Fatalf("e2e run: exit %d, summary %+v\n%s", code, out.summary, stderr)
	}
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			if p, ok := out.points[w.name][m.Name]; !ok || p.Value <= 0 {
				t.Errorf("%s: %s missing or not positive", w.name, m.Name)
			}
		}
	}
	// The three executors of the sub8 study published the same bytes.
	digests := map[string]bool{}
	for _, l := range strings.Split(stderr, "\n") {
		if strings.Contains(l, ": sub8-") && strings.Contains(l, "ResultSet sha256 ") {
			digests[l[strings.LastIndex(l, " ")+1:]] = true
		}
	}
	if len(digests) != 1 {
		t.Errorf("sub8 executors published %d different ResultSets: %v", len(digests), digests)
	}

	one := c
	one.workloads = small[:1] // sub8-serial
	tc := one
	tc.trace = true
	code, out, stderr = runKbench(t, tc)
	if code != 0 {
		t.Fatalf("traced run: exit %d\n%s", code, stderr)
	}
	got := out.points["sub8-serial"]
	for _, m := range spec.PerLayer {
		if _, ok := got[m.Name]; !ok {
			t.Errorf("traced run did not emit %s", m.Name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(work, "spans-sub8-serial.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if camp := findSpan(spans, "campaign"); camp == nil {
		t.Error("no campaign span")
	} else {
		traced := (camp.dur() - sumSpans(spans, "ext2.replica")).Seconds()
		covered := got["inject.run.busy_s"].Value + got["journal.put.busy_s"].Value
		if covered < 0.9*traced {
			t.Errorf("inject.run + journal.put cover %.4fs of the %.4fs traced campaign", covered, traced)
		}
	}

	bad := one
	bad.digests = digestTable{"sub8/small": {{Seed: 2003, SHA256: "00"}}}
	code, out, _ = runKbench(t, bad)
	if code == 0 || out.summary.Correct {
		t.Errorf("a wrong expected digest passed: exit %d", code)
	}
	if f := out.points["sub8-serial"]["failed_frac"].Value; f != 1 || out.summary.Failed != out.summary.Attempted {
		t.Errorf("wrong digest: failed_frac %v, summary %+v", f, out.summary)
	}
}
