// Package core is the study facade: it wires the profiler, the
// injector and the analysis layer into the paper's experiment pipeline
// — profile the kernel in the golden run of UnixBench, select the most
// frequently used functions, run the three injection campaigns, and
// report the set-up (Table 1, Table 2, Figure 1); analysis.RenderAll
// renders every result table and figure.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/kernprof"
	"repro/internal/obs"
	"repro/internal/unixbench"
)

// ErrCancelled is returned by RunCampaign/RunAll when Config.Cancel
// was raised: the campaign stopped between runs, every completed
// result was delivered to the sink, and the study can be resumed.
var ErrCancelled = errors.New("core: campaign cancelled")

// newRunner boots an injection runner for a parallel worker
// (indirection point for worker-failure tests).
var newRunner = inject.NewRunnerWithOptions

// DefaultMaxRetries is how many times a target that harness-faulted is
// retried on a freshly booted runner before being quarantined.
const DefaultMaxRetries = 2

// Remote executes one target (named by campaign key and ordinal in
// the deterministic target list) in an isolated worker process. It is
// the seam between the campaign loop and the process-isolation
// supervisor: when Config.Remote is set, RunCampaign routes every
// injection through it instead of the in-process runner. A non-nil
// HarnessFault quarantines the target (worker-side retries exhausted,
// or the supervisor's circuit breaker opened); a non-nil error aborts
// the campaign. Implementations must be safe for concurrent use.
type Remote interface {
	Do(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error)
}

// ResultSink receives every completed injection result as soon as it
// finishes, in claim order (not target order). Implementations must be
// safe for concurrent use by parallel workers; journal.Writer is the
// canonical sink.
type ResultSink interface {
	// BeginCampaign announces a campaign and its total target count.
	BeginCampaign(c inject.Campaign, total int) error
	// Put delivers the result of target ordinal (an index into the
	// deterministic target list) completed by the given worker.
	Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error
	// Quarantine records a target abandoned after exhausted
	// harness-fault retries; resumed runs must skip it.
	Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error
}

// Config controls a study run.
type Config struct {
	// Scale sizes the benchmark workloads (1 = quick).
	Scale int
	// Seed drives all random bit selection.
	Seed int64
	// CoverFrac selects the profiling coverage for the core function
	// set (the paper used 0.95).
	CoverFrac float64
	// Campaigns to run (default: A, B, C).
	Campaigns []inject.Campaign
	// MaxTargetsPerFunc caps injections per function (0 = all); used
	// to subsample quick studies.
	MaxTargetsPerFunc int
	// MaxFuncsPerCampaign caps the number of functions injected per
	// campaign (0 = all selected).
	MaxFuncsPerCampaign int
	// DisableAssertions runs the study against the assertion-stripped
	// kernel build (the §8 ablation).
	DisableAssertions bool
	// FaultModel names the fault model driving target enumeration and
	// application ("" = bitflip, the paper's instruction bit flips).
	// See inject.Models for the registry.
	FaultModel string
	// Workers is the number of parallel injection machines (each runs
	// an isolated simulated system; results are deterministic and
	// identical to a single-worker run). 0 or 1 = serial.
	Workers int
	// Progress, when set, receives per-run progress. It always fires
	// with done == total when a campaign finishes.
	Progress func(c inject.Campaign, fn string, done, total int)
	// Sink, when set, receives every completed result as soon as it
	// finishes (the durability layer; see ResultSink).
	Sink ResultSink
	// SkipCompleted maps campaign key ("A"/"B"/"C") -> target ordinal
	// -> previously completed result. Those targets are not re-run;
	// the journaled result is reused verbatim (resume support).
	SkipCompleted map[string]map[int]inject.Result
	// Quarantined maps campaign key -> target ordinal -> true for
	// targets a previous run abandoned after exhausted harness-fault
	// retries. They are skipped (not re-run) and stay excluded from
	// the result set.
	Quarantined map[string]map[int]bool
	// MaxRetries is how many times a harness-faulted target is retried
	// on a freshly booted runner before quarantine. 0 means
	// DefaultMaxRetries; negative means no retries (quarantine on the
	// first fault).
	MaxRetries int
	// RunTimeout overrides the per-run wall-clock watchdog deadline
	// (0 = derive from the golden run's wall time).
	RunTimeout time.Duration
	// EngineOptions are passed unchanged to every runner.
	inject.EngineOptions
	// Cancel, when set, is polled by every worker before it claims a
	// target; once true the campaign stops and RunCampaign returns
	// ErrCancelled (graceful shutdown).
	Cancel *atomic.Bool
	// Remote, when set, executes every injection in an isolated worker
	// process instead of the in-process runner (-isolation=process).
	// Workers then sizes the dispatch concurrency against the remote
	// fleet rather than in-process simulated machines.
	Remote Remote
	// Metrics is updated live during campaigns (New substitutes a
	// private one when unset).
	Metrics *obs.Metrics
}

// DefaultConfig is the full-study configuration.
func DefaultConfig() Config {
	return Config{
		Scale:     1,
		Seed:      2003, // DSN 2003
		CoverFrac: 0.95,
		Campaigns: []inject.Campaign{inject.CampaignA, inject.CampaignB, inject.CampaignC},
	}
}

// Study is a prepared experiment: booted machine, golden run, profile
// and selected target functions.
type Study struct {
	Cfg     Config
	Profile *kernprof.Profile
	Core    []kernprof.FuncProfile
	Runner  *inject.Runner
	Model   inject.FaultModel
	Set     *analysis.ResultSet

	// FuncsFor maps each campaign to its selected functions.
	FuncsFor map[inject.Campaign][]asm.Func

	// targetMu guards targetCache; the target list of a campaign is
	// deterministic, so it is enumerated once and reused (worker mode
	// resolves one ordinal per run).
	targetMu    sync.Mutex
	targetCache map[inject.Campaign][]inject.Target
	// ws is the workload suite reused by per-ordinal runs.
	ws []kernel.Workload
}

// New prepares the injection runner and derives the kernel profile
// from its golden pass's PC samples: one booted machine, one run of
// the workloads.
func New(cfg Config) (*Study, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.CoverFrac == 0 {
		cfg.CoverFrac = 0.95
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New(cfg.Workers)
	}
	model, err := inject.ModelByName(cfg.FaultModel)
	if err != nil {
		return nil, err
	}
	if len(cfg.Campaigns) == 0 {
		cfg.Campaigns = model.Campaigns()
	}
	ws := unixbench.Suite(unixbench.Scale(cfg.Scale))
	s := &Study{
		Cfg:   cfg,
		Model: model,
		Set: &analysis.ResultSet{
			Version:    analysis.SchemaVersion,
			Seed:       cfg.Seed,
			Scale:      cfg.Scale,
			FaultModel: inject.ModelTag(model.Name()),
			Results:    make(map[string][]inject.Result),
		},
		FuncsFor:    make(map[inject.Campaign][]asm.Func),
		targetCache: make(map[inject.Campaign][]inject.Target),
		ws:          ws,
	}
	if s.Runner, err = inject.NewRunnerWithOptions(ws, s.runnerOptions()); err != nil {
		return nil, fmt.Errorf("core: runner: %w", err)
	}
	s.Profile = kernprof.FromSamples(s.Runner.M.Prog, s.Runner.GoldenSamples())
	s.Core = s.Profile.TopCovering(cfg.CoverFrac)
	s.selectFunctions()
	return s, nil
}

// selectFunctions chooses the target functions per campaign. Campaign
// A targets the core (most frequently used) functions, as the paper's
// profiling dictated; campaigns B and C extend to every selected-
// subsystem function containing conditional branches (the paper also
// injected more functions in those campaigns: 51/81/176).
func (s *Study) selectFunctions() {
	prog := s.Runner.M.Prog
	coreSet := make(map[string]bool, len(s.Core))
	for _, f := range s.Core {
		coreSet[f.Name] = true
	}

	var coreFuncs, branchFuncs []asm.Func
	for _, fn := range prog.Funcs {
		if !isTargetSubsystem(fn.Section) {
			continue
		}
		if coreSet[fn.Name] {
			coreFuncs = append(coreFuncs, fn)
		}
		if inject.HasCondBranch(prog, fn) {
			branchFuncs = append(branchFuncs, fn)
		}
	}
	sort.Slice(coreFuncs, func(i, j int) bool { return coreFuncs[i].Addr < coreFuncs[j].Addr })
	sort.Slice(branchFuncs, func(i, j int) bool { return branchFuncs[i].Addr < branchFuncs[j].Addr })

	for _, c := range s.Cfg.Campaigns {
		switch c {
		case inject.CampaignA:
			s.FuncsFor[c] = coreFuncs
		default:
			s.FuncsFor[c] = branchFuncs
		}
		if s.Cfg.MaxFuncsPerCampaign > 0 && len(s.FuncsFor[c]) > s.Cfg.MaxFuncsPerCampaign {
			s.FuncsFor[c] = s.FuncsFor[c][:s.Cfg.MaxFuncsPerCampaign]
		}
	}
}

func isTargetSubsystem(sec string) bool {
	switch sec {
	case "arch", "fs", "kernel", "mm":
		return true
	}
	return false
}

// Targets enumerates all injections for one campaign. The list is
// deterministic for a given configuration and cached after the first
// call; callers must not mutate it.
func (s *Study) Targets(c inject.Campaign) ([]inject.Target, error) {
	s.targetMu.Lock()
	defer s.targetMu.Unlock()
	if ts, ok := s.targetCache[c]; ok {
		return ts, nil
	}
	ts, err := s.enumerateTargets(c)
	if err != nil {
		return nil, err
	}
	s.targetCache[c] = ts
	return ts, nil
}

func (s *Study) enumerateTargets(c inject.Campaign) ([]inject.Target, error) {
	rng := rand.New(rand.NewSource(s.Cfg.Seed + int64(c)))
	return s.Model.Enumerate(inject.EnumContext{
		Prog:              s.Runner.M.Prog,
		Funcs:             s.FuncsFor[c],
		MaxTargetsPerFunc: s.Cfg.MaxTargetsPerFunc,
		SyscallCounts:     s.Runner.GoldenSyscallCounts(),
	}, c, rng)
}

// cancelled reports whether a graceful shutdown was requested.
func (s *Study) cancelled() bool {
	return s.Cfg.Cancel != nil && s.Cfg.Cancel.Load()
}

// runTimed executes one target on the given runner with full harness
// fault isolation, feeding metrics. A non-nil fault means the run
// produced no usable result and the runner's machine state is suspect.
func (s *Study) runTimed(runner *inject.Runner, worker int, c inject.Campaign, t inject.Target) (inject.Result, *inject.HarnessFault) {
	m := s.Cfg.Metrics
	m.RunsStarted.Add(1)
	start := time.Now()
	res, hf := runner.SafeRunTarget(c, t)
	if hf != nil {
		m.HarnessFault(worker, hf.Kind, time.Since(start))
	} else {
		m.RunFinished(worker, &res, time.Since(start))
	}
	m.BlockStats(runner.BlockStatsDelta())
	return res, hf
}

// maxRetries resolves Config.MaxRetries (0 = DefaultMaxRetries,
// negative = no retries).
func (s *Study) maxRetries() int {
	switch {
	case s.Cfg.MaxRetries == 0:
		return DefaultMaxRetries
	case s.Cfg.MaxRetries < 0:
		return 0
	}
	return s.Cfg.MaxRetries
}

func (s *Study) runnerOptions() inject.RunnerOptions {
	return inject.RunnerOptions{
		DisableAssertions: s.Cfg.DisableAssertions,
		RunTimeout:        s.Cfg.RunTimeout,
		Model:             s.Model,
		EngineOptions:     s.Cfg.EngineOptions,
	}
}

// bootValidatedRunner boots a fresh runner (for a parallel worker or
// to replace one whose machine state a harness fault left suspect) and
// cross-validates its golden run against the study runner's: the trace
// fingerprint and the disk hash must match exactly, otherwise the
// simulated machines have diverged and every fail-silence verdict the
// new runner produced would be incomparable. The study's harness
// fault-injection hook is carried over so retries see the same hook.
func (s *Study) bootValidatedRunner() (*inject.Runner, error) {
	r, err := newRunner(s.ws, s.runnerOptions())
	if err != nil {
		return nil, err
	}
	r.HookBeforeRun = s.Runner.HookBeforeRun
	if got, want := r.GoldenFingerprint(), s.Runner.GoldenFingerprint(); got != want {
		return nil, fmt.Errorf("core: golden cross-validation failed: trace fingerprint %q != reference %q (diverged simulated machine; refusing to inject)", got, want)
	}
	if got, want := r.GoldenDiskHash(), s.Runner.GoldenDiskHash(); got != want {
		return nil, fmt.Errorf("core: golden cross-validation failed: disk hash %x != reference %x (diverged simulated machine; refusing to inject)", got, want)
	}
	return r, nil
}

// runReliable executes one target under the retry-and-quarantine
// policy: every harness fault discards the current runner (its machine
// state is suspect) and boots a validated replacement; the target is
// retried up to maxRetries times and quarantined when retries are
// exhausted. It returns the result (hf == nil), the quarantining fault
// (hf != nil), and the runner the worker should continue with. A
// non-nil error means the harness could not recover (replacement boot
// or validation failed) and the campaign must abort.
func (s *Study) runReliable(runner *inject.Runner, worker int, c inject.Campaign, t inject.Target) (res inject.Result, hf *inject.HarnessFault, out *inject.Runner, err error) {
	out = runner
	m := s.Cfg.Metrics
	for attempt := 0; ; attempt++ {
		res, hf = s.runTimed(out, worker, c, t)
		if hf == nil {
			return res, nil, out, nil
		}
		fresh, berr := s.bootValidatedRunner()
		if berr != nil {
			return res, hf, out, fmt.Errorf("core: worker %d: reboot after harness fault (%v): %w", worker, hf, berr)
		}
		out = fresh
		m.RunnerReboots.Add(1)
		if attempt >= s.maxRetries() {
			m.Quarantined.Add(1)
			return res, hf, out, nil
		}
		m.Retries.Add(1)
	}
}

// RunOrdinal executes one target of a campaign, named by its ordinal
// in the deterministic target list, under the full in-process
// retry-and-quarantine policy (harness faults reboot the runner and
// retry up to MaxRetries times; a non-nil HarnessFault means the
// target must be quarantined). It is the execution entry point of
// worker mode (kinject -worker): the supervisor ships only {campaign,
// ordinal} and the worker re-derives the identical target list from
// the study spec.
func (s *Study) RunOrdinal(c inject.Campaign, ordinal int) (inject.Result, *inject.HarnessFault, error) {
	targets, err := s.Targets(c)
	if err != nil {
		return inject.Result{}, nil, err
	}
	if ordinal < 0 || ordinal >= len(targets) {
		return inject.Result{}, nil, fmt.Errorf("core: ordinal %d out of range (campaign %v has %d targets)", ordinal, c, len(targets))
	}
	res, hf, runner, err := s.runReliable(s.Runner, 0, c, targets[ordinal])
	s.Runner = runner
	return res, hf, err
}

// storeCampaign compacts the per-ordinal result slice into the stored
// set: quarantined ordinals (prior and new) are removed from the
// results and recorded in Set.Quarantined, so the analysis layer never
// sees a zero-valued placeholder and reports can state what was
// excluded. It returns the compacted slice.
func (s *Study) storeCampaign(key string, results []inject.Result, prior map[int]bool, fresh map[int]bool) []inject.Result {
	quar := make([]int, 0, len(prior)+len(fresh))
	for ord := range prior {
		quar = append(quar, ord)
	}
	for ord := range fresh {
		if !prior[ord] {
			quar = append(quar, ord)
		}
	}
	sort.Ints(quar)
	if len(quar) == 0 {
		s.Set.Results[key] = results
		return results
	}
	drop := make(map[int]bool, len(quar))
	for _, ord := range quar {
		drop[ord] = true
	}
	kept := make([]inject.Result, 0, len(results)-len(quar))
	for i := range results {
		if !drop[i] {
			kept = append(kept, results[i])
		}
	}
	s.Set.Results[key] = kept
	if s.Set.Quarantined == nil {
		s.Set.Quarantined = make(map[string][]int)
	}
	s.Set.Quarantined[key] = quar
	return kept
}

// RunCampaign executes one campaign and stores the results. With
// Cfg.Workers > 1, targets are spread across independent simulated
// machines (or, with Cfg.Remote, dispatched concurrently to the remote
// fleet); the result slice is ordered by target, so the output is
// identical to a serial run. Targets listed in Cfg.SkipCompleted are
// restored from their journaled results instead of re-run, targets in
// Cfg.Quarantined stay excluded, and every freshly completed result is
// streamed to Cfg.Sink, so an interrupted campaign resumes to an
// identical result set. Harness faults (Go panics, wall-clock
// timeouts, breakpoint I/O errors, unclassifiable host errors) never
// kill the campaign: the target is retried on freshly booted runners
// and quarantined when retries are exhausted.
func (s *Study) RunCampaign(c inject.Campaign) ([]inject.Result, error) {
	targets, err := s.Targets(c)
	if err != nil {
		return nil, err
	}
	key := analysis.CampaignKey(c)
	total := len(targets)
	skip := s.Cfg.SkipCompleted[key]
	prior := s.Cfg.Quarantined[key]
	results := make([]inject.Result, total)
	var pending []int
	nskip := 0
	for i := range targets {
		if prior[i] {
			continue
		}
		if res, ok := skip[i]; ok {
			results[i] = res
			nskip++
			continue
		}
		pending = append(pending, i)
	}
	s.Cfg.Metrics.Skipped.Add(int64(nskip))
	if s.Cfg.Sink != nil {
		if err := s.Cfg.Sink.BeginCampaign(c, total); err != nil {
			return nil, err
		}
	}
	if len(pending) == 0 {
		if s.Cfg.Progress != nil && total > 0 {
			s.Cfg.Progress(c, "", total, total)
		}
		return s.storeCampaign(key, results, prior, nil), nil
	}

	workers := min(max(s.Cfg.Workers, 1), len(pending))
	var run func(w, i int) (inject.Result, *inject.HarnessFault, error)
	if s.Cfg.Remote != nil {
		run = func(w, i int) (inject.Result, *inject.HarnessFault, error) {
			return RunRemote(s.Cfg.Remote, s.Cfg.Metrics, w, key, i)
		}
	} else {
		runners, err := s.bootWorkers(workers)
		if err != nil {
			return nil, err
		}
		// Worker 0 may reboot its runner after a harness fault; keep the
		// study pointed at the live one.
		defer func() { s.Runner = runners[0] }()
		run = func(w, i int) (inject.Result, *inject.HarnessFault, error) {
			res, hf, r, err := s.runReliable(runners[w], w, c, targets[i])
			runners[w] = r
			return res, hf, err
		}
	}

	var (
		mu    sync.Mutex
		done  = total - len(pending)
		fresh = make(map[int]bool)
	)
	err = Dispatch(len(pending), workers, s.cancelled, func(w, k int) error {
		i := pending[k]
		res, hf, err := run(w, i)
		if err != nil {
			return err
		}
		if s.Cfg.Sink != nil {
			if hf != nil {
				err = s.Cfg.Sink.Quarantine(c, w, i, *hf)
			} else {
				err = s.Cfg.Sink.Put(c, w, i, total, res)
			}
			if err != nil {
				return err
			}
		}
		// Progress calls are serialized so done counts arrive in order
		// and the last call reports done == total.
		mu.Lock()
		defer mu.Unlock()
		if hf != nil {
			fresh[i] = true
		} else {
			results[i] = res
		}
		done++
		if s.Cfg.Progress != nil {
			s.Cfg.Progress(c, targets[i].Func.Name, done, total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if done < total { // Dispatch stopped early without an error
		return nil, ErrCancelled
	}
	return s.storeCampaign(key, results, prior, fresh), nil
}

// bootWorkers returns one runner per in-process worker: worker 0 keeps
// the study's runner, and the others are booted concurrently before any
// injection runs. Each boot cross-validates the worker's golden
// fingerprint and disk hash against worker 0's, so a diverged or
// unbootable machine aborts the campaign with a diagnostic before a
// single result is journaled.
func (s *Study) bootWorkers(workers int) ([]*inject.Runner, error) {
	runners := make([]*inject.Runner, workers)
	runners[0] = s.Runner
	err := Dispatch(workers-1, workers-1, nil, func(_, k int) error {
		r, err := s.bootValidatedRunner()
		if err != nil {
			return fmt.Errorf("core: worker %d: %w", k+1, err)
		}
		runners[k+1] = r
		return nil
	})
	return runners, err
}

// RunRemote executes one target on r for the given worker, with
// metrics accounting. The remote worker's own in-process retries are
// invisible here; the fault it reports is counted once. It is the run
// step of both remote executors: the process-isolated campaign loop
// (Config.Remote) and the fleet's pools.
func RunRemote(r Remote, m *obs.Metrics, worker int, campaign string, ordinal int) (inject.Result, *inject.HarnessFault, error) {
	m.RunsStarted.Add(1)
	start := time.Now()
	res, hf, err := r.Do(campaign, ordinal)
	if err != nil {
		return inject.Result{}, nil, err
	}
	if hf != nil {
		m.HarnessFault(worker, hf.Kind, time.Since(start))
		m.Quarantined.Add(1)
		return inject.Result{}, hf, nil
	}
	if res == nil {
		return inject.Result{}, nil, fmt.Errorf("core: remote run %s/%d returned neither result nor fault", campaign, ordinal)
	}
	m.RunFinished(worker, res, time.Since(start))
	return *res, nil, nil
}

// Dispatch calls do(w, i) for the indices i in [0, n), each at most
// once, from min(workers, n) goroutines; w is the calling goroutine's
// worker number, in [0, min(workers, n)). Indices are claimed in
// ascending order until all are claimed, stop (polled before every
// claim when non-nil) reports true, or a call fails. The first error
// stops new claims, lets in-flight calls finish, and is returned. It
// is the one claim loop behind every executor: in-process and remote
// campaigns and fleet shards.
func Dispatch(n, workers int, stop func() bool, do func(w, i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && (stop == nil || !stop()) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := do(w, i); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// RunAll executes every configured campaign.
func (s *Study) RunAll() error {
	for _, c := range s.Cfg.Campaigns {
		if _, err := s.RunCampaign(c); err != nil {
			return err
		}
	}
	return nil
}

// Results returns the stored results for a campaign.
func (s *Study) Results(c inject.Campaign) []inject.Result {
	return s.Set.Results[analysis.CampaignKey(c)]
}

// --- report rendering ---

// ReportTable1 renders the function distribution among subsystems.
func (s *Study) ReportTable1() string {
	rows, coreFns := s.Profile.Table1(s.Cfg.CoverFrac)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: function distribution among kernel subsystems\n")
	fmt.Fprintf(&b, "%-10s %18s %22s\n", "Subsystem", "Profiled functions",
		fmt.Sprintf("In core (%.0f%%) set", 100*s.Cfg.CoverFrac))
	totalProf, totalCore := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %18d %22d\n", r.Section, r.Profiled, r.InCore)
		totalProf += r.Profiled
		totalCore += r.InCore
	}
	fmt.Fprintf(&b, "%-10s %18d %22d\n", "Total", totalProf, totalCore)
	fmt.Fprintf(&b, "\ntop functions covering %.0f%% of %d samples: %d\n",
		100*s.Cfg.CoverFrac, s.Profile.Total, len(coreFns))
	return b.String()
}

// ReportFigure1 renders the size of each kernel subsystem (Figure 1
// analog: text bytes and function counts of the mini-kernel).
func (s *Study) ReportFigure1() string {
	prog := s.Runner.M.Prog
	var b strings.Builder
	b.WriteString("Figure 1: size of kernel subsystems\n")
	fmt.Fprintf(&b, "%-10s %12s %10s\n", "Subsystem", "Text bytes", "Functions")
	for _, sub := range analysis.Subsystems {
		sec := prog.Sections[sub]
		if sec == nil {
			continue
		}
		n := 0
		for _, f := range prog.Funcs {
			if f.Section == sub {
				n++
			}
		}
		fmt.Fprintf(&b, "%-10s %12d %10d\n", sub, len(sec.Code), n)
	}
	return b.String()
}

// ReportTable2 summarizes the experimental setup (the paper's Table 2),
// with the simulated equivalents of each apparatus column.
func (s *Study) ReportTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: experimental setup summary\n")
	rows := [][2]string{
		{"CPU", "simulated IA-32 subset interpreter (internal/cpu)"},
		{"Memory", fmt.Sprintf("%d MiB lowmem direct-mapped at 0xC0000000", kernel.LowmemSize>>20)},
		{"Kernel", fmt.Sprintf("mini-kernel, %d functions in arch/fs/kernel/mm (+drivers, lib)", s.kernelFuncCount())},
		{"File system", fmt.Sprintf("ext2-lite, %d blocks x %d B ramdisk", kernel.RamdiskBlocks, kernel.PageSize)},
		{"Crash dump", "host crash handler + register/stack capture (internal/dump)"},
		{"Workload", fmt.Sprintf("UnixBench-like suite, 8 programs, scale %d", s.Cfg.Scale)},
		{"Profiling", fmt.Sprintf("PC sampling every %d cycles (internal/kernprof)", cpu.SamplePeriod)},
		{"Kernel debug", "AT&T disassembler + symbolized oops (internal/ia32)"},
		{"Injection tool", "debug-register single-bit injector (internal/inject)"},
		{"Watchdog", fmt.Sprintf("%d-cycle budget per run", s.Runner.Budget)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %s\n", r[0], r[1])
	}
	return b.String()
}

func (s *Study) kernelFuncCount() int {
	n := 0
	for _, f := range s.Runner.M.Prog.Funcs {
		if isTargetSubsystem(f.Section) {
			n++
		}
	}
	return n
}
