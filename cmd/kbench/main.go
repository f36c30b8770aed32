// Command kbench is the end-to-end benchmark of the injection harness:
// campaign throughput of the serial, process-isolated and fleet
// executors, and a traced breakdown of where one campaign's time goes.
//
// Usage (from the repository root):
//
//	bash cmd/kbench/run.sh [-workload a,b] [-seed N] [-seconds N] [-trace 0|1]
//
// run.sh builds kbench into .bench_build/ and runs it; kbench builds
// kinject and kampaignd from the tree (build time is not measured) and
// drives each workload through those CLIs and kampaignd's HTTP API, one
// study at a time. Every output is checked: a wrong or unreproducible
// ResultSet, a journal failing journal.Verify or a quarantined target
// makes kbench exit non-zero.
//
// With -trace 0 each workload is measured for -seconds (default:
// BENCHMARK.json's run_seconds) and reports the end-to-end metrics.
// With -trace 1 it instead runs the traced per-layer breakdown and
// writes its spans to .bench_build/work/spans-<workload>.json. Output
// is one JSON line per metric, then one summary line. BENCHMARK.json at
// the repository root lists the metrics; README.md explains them.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minSetups is the fewest set-ups an e2e run times, even when its
// campaigns used up the window.
const minSetups = 15

type bench struct {
	work      string
	kinject   string
	kampaignd string
	digests   digestTable
	log       io.Writer
}

// benchSpec is BENCHMARK.json: the metric list kbench reports.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wl := fs.String("workload", strings.Join(names, ","), "comma-separated workloads")
	seed := fs.Int64("seed", 2003, "study seed; one digests.json does not record for the study picks the recorded seed at index seed mod count")
	seconds := fs.Int("seconds", spec.RunSeconds, "e2e measurement time per workload")
	trace := fs.Int("trace", 0, "1 = run the traced per-layer breakdown instead of the e2e measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	}
	c := config{
		root: root, spec: spec, seed: *seed, trace: *trace == 1,
		window: time.Duration(*seconds) * time.Second,
		work:   filepath.Join(root, ".bench_build", "work"),
	}
	for _, n := range strings.Split(*wl, ",") {
		w, ok := workloadByName(n)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(names, ", ")))
		}
		c.workloads = append(c.workloads, w)
	}
	if c.digests, err = loadDigests(); err != nil {
		return fail(err)
	}
	return execute(c, stdout, stderr)
}

// config is one kbench invocation. The command line fills it from its
// flags; the smoke test fills it with shrunken studies, a temporary
// work directory and, to see a wrong digest fail, its own digest table.
type config struct {
	root      string // repository root
	spec      *benchSpec
	workloads []workload
	seed      int64
	window    time.Duration // e2e measurement time per workload
	trace     bool          // run the traced breakdown instead
	work      string        // built CLIs, campaign files and spans
	digests   digestTable   // nil: outputs are not held to a recorded digest
}

func execute(c config, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	b := &bench{work: c.work, digests: c.digests, log: stderr}
	if err := os.MkdirAll(filepath.Join(b.work, "bin"), 0o755); err != nil {
		return fail(err)
	}
	if err := b.build(c.root); err != nil {
		return fail(err)
	}
	if err := becomeSubreaper(); err != nil {
		return fail(err)
	}

	wanted := c.spec.EndToEnd
	if c.trace {
		wanted = c.spec.PerLayer
	}
	sum := summary{Correct: true, Metrics: map[string]valueUnit{}}
	enc := json.NewEncoder(stdout)
	for _, w := range c.workloads {
		seed, want := b.digests.studySeed(w.study.key, c.seed)
		fmt.Fprintf(stderr, "kbench: %s study seed %d: host calibration sha256(64 MiB) %.1f ms\n", w.name, seed, calibrate())
		var rep *report
		if c.trace {
			rep = b.traceRun(w, seed, want)
		} else {
			rep = b.measure(w, seed, want, c.window)
		}
		for _, m := range wanted {
			v, ok := rep.values[m.Name]
			if !ok {
				rep.problem("metric %s was not measured", m.Name)
				continue
			}
			enc.Encode(point{Workload: w.name, Metric: m.Name, Value: v.v, Unit: m.Unit, Tail: v.tail, N: v.n})
			key := m.Name
			if len(c.workloads) > 1 {
				key = w.name + "/" + m.Name
			}
			sum.Metrics[key] = valueUnit{v.v, m.Unit}
		}
		attempted, failed := rep.outcome()
		enc.Encode(point{Workload: w.name, Metric: "failed_frac", Value: float64(failed) / float64(attempted), Unit: "ratio"})
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "kbench: %s: INCORRECT: %s\n", w.name, p)
		}
		sum.Attempted += attempted
		sum.Failed += failed
		sum.Correct = sum.Correct && len(rep.problems) == 0 && failed == 0
	}
	enc.Encode(sum)
	if !sum.Correct {
		return 1
	}
	return 0
}

// point is one per-metric output line.
type point struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Tail     string  `json:"tail,omitempty"` // percentile a tail metric reports
	N        int     `json:"n,omitempty"`    // samples behind a tail metric
}

// summary is the last output line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload's metric values and correctness.
type report struct {
	values    map[string]measured
	attempted int // ordinals the checked campaigns announced
	failed    int // quarantined or missing ordinals among them
	problems  []string
}

type measured struct {
	v    float64
	tail string
	n    int
}

func newReport() *report { return &report{values: map[string]measured{}} }

func (r *report) set(name string, v float64) { r.values[name] = measured{v: v} }

func (r *report) setTail(name string, xs sample) {
	v, label := xs.tail()
	r.values[name] = measured{v: v, tail: label, n: len(xs)}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// account adds one checked campaign.
func (r *report) account(v verdict) {
	r.attempted += v.total
	r.failed += v.failed
	r.problems = append(r.problems, v.problems...)
}

// outcome is the run's attempted and failed ordinal counts: every
// ordinal fails when any output check failed.
func (r *report) outcome() (attempted, failed int) {
	attempted = max(r.attempted, 1)
	if len(r.problems) > 0 {
		return attempted, attempted
	}
	return attempted, r.failed
}

// measure is the e2e run of one workload within window. It runs whole
// campaigns back to back, starting another only while one more as long
// as the last still ends inside the window, then fills the rest of the
// window with set-up-only launches (at least minSetups set-ups in all).
// Each metric is the median over the campaigns, setup_s over every
// set-up. Only the first campaign may overrun the window.
func (b *bench) measure(w workload, seed int64, want string, window time.Duration) *report {
	rep := newReport()
	var (
		runs   []campaignRun
		counts []int // accounted ordinals per campaign
		digest string
	)
	start := time.Now()
	fits := func(last time.Duration) bool { return time.Since(start)+last <= window }
	for {
		t0 := time.Now()
		r, v, err := b.checkedCampaign(w, seed)
		if err != nil {
			rep.problem("campaign: %v", err)
			return rep
		}
		rep.account(v)
		if len(runs) == 0 {
			digest = v.digest
		} else if v.digest != digest {
			rep.problem("campaign %d published ResultSet %s, campaign 1 %s", len(runs)+1, v.digest, digest)
		}
		runs = append(runs, r)
		counts = append(counts, v.accounted)
		if !fits(time.Since(t0)) {
			break
		}
	}
	checkDigest(digest, want, rep)

	var setups, rate, wall, cpu, rss sample
	for i, r := range runs {
		setups = append(setups, r.setup.Seconds())
		rate = append(rate, float64(counts[i])/r.campaign.Seconds())
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds()/(float64(counts[i])/1000))
		rss = append(rss, float64(r.rssKiB)/1024)
	}
	for last := time.Duration(0); len(setups) < minSetups || fits(last); {
		t0 := time.Now()
		dir, err := os.MkdirTemp(b.work, w.name+"-setup-")
		if err != nil {
			rep.problem("%v", err)
			return rep
		}
		r, err := b.campaign(w, seed, dir, true)
		os.RemoveAll(dir)
		if err != nil {
			rep.problem("set-up probe: %v", err)
			return rep
		}
		setups = append(setups, r.setup.Seconds())
		last = time.Since(t0)
	}
	fmt.Fprintf(b.log, "kbench: %s study seed %d: %d campaigns of %d ordinals and %d set-ups in %.1f s, ResultSet sha256 %s\n",
		w.name, seed, len(runs), counts[0], len(setups), time.Since(start).Seconds(), digest)
	rep.set("inj_per_s", rate.median())
	rep.set("wall_s", wall.median())
	rep.set("setup_s", setups.median())
	rep.set("cpu_s_per_kinj", cpu.median())
	rep.set("rss_mb", rss.median())
	return rep
}

// checkedCampaign runs one campaign in a fresh directory and checks
// its output.
func (b *bench) checkedCampaign(w workload, seed int64) (campaignRun, verdict, error) {
	dir, err := os.MkdirTemp(b.work, w.name+"-")
	if err != nil {
		return campaignRun{}, verdict{}, err
	}
	defer os.RemoveAll(dir)
	r, err := b.campaign(w, seed, dir, false)
	if err != nil {
		return r, verdict{}, err
	}
	return r, checkCampaign(r.results, r.journal), nil
}

// checkDigest compares a published ResultSet with the digest recorded
// for its study and seed. All executors of a study share the record, so
// this also holds them to the same bytes.
func checkDigest(got, want string, rep *report) {
	if want != "" && got != want {
		rep.problem("ResultSet sha256 %s, recorded %s", got, want)
	}
}

// build compiles kinject and kampaignd from the tree.
func (b *bench) build(root string) error {
	bin := filepath.Join(b.work, "bin")
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/kinject", "./cmd/kampaignd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build: %v: %s", err, out)
	}
	b.kinject = filepath.Join(bin, "kinject")
	b.kampaignd = filepath.Join(bin, "kampaignd")
	return nil
}

// findRoot walks up from the working directory to the repository root,
// the directory holding cmd/kinject.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "kinject", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run kbench inside the repository (no cmd/kinject found above the working directory)")
		}
		dir = parent
	}
}

// calibrate times a fixed stdlib workload. It is not a metric; printed
// before every workload, it shows a host that slowed down mid-run.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	h := sha256.New()
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return ms(time.Since(t0))
}
