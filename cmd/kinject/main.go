// Command kinject runs the fault/error injection campaigns of the
// study and prints every table and figure of the evaluation.
//
// Usage:
//
//	kinject [-fault-model name] [-list-models]
//	        [-campaigns ABC] [-scale N] [-seed N]
//	        [-max-targets N] [-max-funcs N] [-workers N]
//	        [-no-assertions] [-journal path] [-resume path]
//	        [-run-timeout D] [-max-retries N]
//	        [-isolation inproc|process] [-max-worker-restarts N]
//	        [-breaker-threshold N] [-heartbeat-timeout D]
//	        [-out results.json.gz] [-cpuprofile prof.out] [-q]
//
// -fault-model selects the class of injected error (default bitflip,
// the paper's instruction bit flips): syscall error-returns at the
// system_call boundary, register/data-state flips at a PC breakpoint,
// adjacent multi-bit bursts, or disk-I/O faults against the ramdisk.
// -list-models prints every registered model with its checkpoint
// compatibility. Omitting -campaigns runs the model's own campaign
// set (ABC for bitflip). Each model's results are journaled, resumed
// and reported through the same machinery; compare studies across
// models with kreport <set1> <set2> ...
//
// A full run (no -max-targets) performs every injection of all three
// campaigns — several thousand experiments — and takes minutes; use
// -max-targets for a quick subsampled study, or -workers to spread the
// injections over parallel simulated machines (identical results).
// -no-assertions runs the study against the assertion-stripped kernel
// build (the paper's §8 ablation).
//
// -journal streams every completed injection to an append-only,
// crash-safe journal while the campaigns run. An interrupted study
// (SIGINT/SIGTERM are trapped and drain gracefully; a crash or OOM
// loses at most the unflushed batch) is continued with -resume, which
// restores the original flags from the journal header, re-derives the
// same deterministic target list, skips everything already journaled,
// and produces a result set identical to an uninterrupted run.
// kreport accepts a journal wherever a results file is accepted.
//
// The harness tolerates its own faults: a Go panic or wall-clock stall
// (-run-timeout, default derived from the golden run) during one
// injection is recovered, the target is retried on freshly booted
// machines up to -max-retries times, and then quarantined — journaled,
// skipped on resume, and reported as excluded rather than polluting
// the outcome tables. Parallel workers cross-validate their golden
// (fault-free) runs against worker 0's before injecting.
//
// -isolation=process runs every injection in supervised worker
// subprocesses (kinject -worker) instead of in-process machines:
// a worker that panics the runtime, livelocks, or is OOM-killed takes
// down only itself — the supervisor kills it on a missed heartbeat
// deadline, restarts it with backoff, quarantines a target that kills
// workers -breaker-threshold consecutive times, and fails the campaign
// loudly after -max-worker-restarts abnormal deaths. Results are
// byte-identical to an inproc run with the same seed.
//
// -connect addr turns this process into a remote TCP worker for a
// kampaignd started with -listen-workers: it dials the daemon's worker
// hub, serves the same wire protocol the stdin/stdout workers speak,
// and when the connection drops — daemon restart, network partition —
// redials with exponential backoff and jitter until interrupted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/supervisor"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kinject:", err)
		os.Exit(1)
	}
}

// resumeRestoredFlags are result-affecting flags stored in the journal
// header; giving them alongside -resume would silently disagree with
// the restored configuration.
var resumeRestoredFlags = map[string]bool{
	"campaigns":     true,
	"scale":         true,
	"seed":          true,
	"max-targets":   true,
	"max-funcs":     true,
	"no-assertions": true,
	"fault-model":   true,
	"journal":       true,
}

func run(args []string) error {
	fs := flag.NewFlagSet("kinject", flag.ContinueOnError)
	campaigns := fs.String("campaigns", "", "campaigns to run (subset of ABC; default: the fault model's campaigns)")
	faultModel := fs.String("fault-model", inject.ModelBitflip, "fault model to inject (see -list-models)")
	listModels := fs.Bool("list-models", false, "list the registered fault models and exit")
	scale := fs.Int("scale", 1, "workload scale")
	seed := fs.Int64("seed", 2003, "random seed for bit selection")
	maxTargets := fs.Int("max-targets", 0, "cap injections per function (0 = all)")
	maxFuncs := fs.Int("max-funcs", 0, "cap functions per campaign (0 = all)")
	out := fs.String("out", "", "save results to this file (gzipped JSON)")
	quiet := fs.Bool("q", false, "suppress progress output")
	noAsserts := fs.Bool("no-assertions", false, "strip kernel BUG() assertions (ablation build)")
	workers := fs.Int("workers", 1, "parallel injection machines")
	journalPath := fs.String("journal", "", "stream results to this append-only journal")
	resumePath := fs.String("resume", "", "resume an interrupted study from this journal")
	runTimeout := fs.Duration("run-timeout", 0, "wall-clock watchdog per injection run (0 = derive from the golden run)")
	checkpoint := fs.Bool("checkpoint", true, "reuse a machine checkpoint captured at each activation event (a PC's breakpoint, the Nth call of a syscall) across the injections that share it, start each event's first injection from the latest earlier checkpoint instead of from boot state, and answer from the golden run's coverage, without running them, injections at PCs it never reached and corrupted branches that go the golden way at every golden execution (results are identical either way)")
	blocks := fs.Bool("blocks", true, "execute via the CPU's superblock trace engine (results are identical either way)")
	maxRetries := fs.Int("max-retries", core.DefaultMaxRetries, "harness-fault retries before a target is quarantined")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the study to this file")
	isolation := fs.String("isolation", "inproc", "injection isolation: inproc (in-process machines) or process (supervised worker subprocesses)")
	workerMode := fs.Bool("worker", false, "serve injections as a worker subprocess over stdin/stdout (internal; spawned by -isolation=process)")
	connectAddr := fs.String("connect", "", "serve injections as a remote TCP worker for a kampaignd at this address (reconnects with backoff until interrupted)")
	maxWorkerRestarts := fs.Int("max-worker-restarts", supervisor.DefaultMaxRestarts, "abnormal worker deaths tolerated before the campaign fails (-isolation=process)")
	breakerThreshold := fs.Int("breaker-threshold", supervisor.DefaultBreakerThreshold, "consecutive worker deaths on one target before it is quarantined (-isolation=process)")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", supervisor.DefaultHeartbeatTimeout, "worker silence tolerated mid-run before a hard kill (-isolation=process)")
	chaosKill := fs.Float64("chaos-kill", 0, "chaos test: SIGKILL the worker of roughly this fraction of runs (-isolation=process)")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for the chaos/backoff-jitter RNG (0 = nondeterministic)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workerMode {
		return runWorker()
	}
	if *connectAddr != "" {
		return runRemoteWorker(*connectAddr)
	}
	if *listModels {
		printModels(os.Stdout)
		return nil
	}
	// Resolve the fault model before anything boots: a typo'd
	// -fault-model fails here with the full model list.
	model, err := inject.ModelByName(*faultModel)
	if err != nil {
		return err
	}
	switch *isolation {
	case "inproc", "process":
	default:
		return fmt.Errorf("unknown -isolation %q (want inproc or process)", *isolation)
	}
	if *chaosKill > 0 && *isolation != "process" {
		return fmt.Errorf("-chaos-kill requires -isolation=process")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := core.DefaultConfig()
	cfg.FaultModel = model.Name()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.MaxTargetsPerFunc = *maxTargets
	cfg.MaxFuncsPerCampaign = *maxFuncs
	cfg.DisableAssertions = *noAsserts
	cfg.Workers = *workers
	cfg.RunTimeout = *runTimeout
	cfg.EngineOptions = inject.EngineOptions{NoCheckpoint: !*checkpoint, NoBlocks: !*blocks}
	cfg.MaxRetries = *maxRetries
	if *maxRetries <= 0 {
		cfg.MaxRetries = -1 // quarantine on the first fault
	}

	var (
		jw          *journal.Writer
		prior       *journal.Journal
		campaignStr = *campaigns
		metrics     = obs.New(cfg.Workers)
		jwDrained   bool
	)
	// Every exit after a journal is open routes through this one drain:
	// flush the buffered batch, append the metrics trailer, fsync,
	// close. Scattered per-error Close calls used to miss paths (a bad
	// -campaigns after -resume leaked the open journal with its batch
	// undrained); the deferred call guarantees no return skips it.
	drainJournal := func() error {
		if jw == nil || jwDrained {
			return nil
		}
		jwDrained = true
		s := metrics.Snapshot()
		return jw.Close(&s)
	}
	defer drainJournal()
	if *resumePath != "" {
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			if resumeRestoredFlags[f.Name] && conflict == nil {
				conflict = fmt.Errorf("-%s conflicts with -resume (the value is restored from the journal)", f.Name)
			}
		})
		if conflict != nil {
			return conflict
		}
		w, j, err := journal.OpenAppend(*resumePath)
		if err != nil {
			return err
		}
		jw, prior = w, j
		h := j.Header
		cfg.Seed = h.Seed
		cfg.Scale = h.Scale
		cfg.MaxTargetsPerFunc = h.MaxTargetsPerFunc
		cfg.MaxFuncsPerCampaign = h.MaxFuncsPerCampaign
		cfg.DisableAssertions = h.DisableAssertions
		cfg.FaultModel = h.FaultModel // "" = bitflip (and every pre-v4 journal)
		campaignStr = h.Campaigns
		cfg.SkipCompleted = j.Completed()
		cfg.Quarantined = j.QuarantinedOrdinals()
		if model, err = inject.ModelByName(cfg.FaultModel); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	if campaignStr == "" {
		// No explicit -campaigns: run the model's own campaign set.
		for _, c := range model.Campaigns() {
			campaignStr += analysis.CampaignKey(c)
		}
	}

	cs, err := analysis.ParseCampaigns(campaignStr)
	if err != nil {
		return err
	}
	cfg.Campaigns = cs

	if *journalPath != "" {
		w, err := journal.Create(*journalPath, journal.Header{
			Version:             journal.Version,
			Seed:                cfg.Seed,
			Scale:               cfg.Scale,
			Campaigns:           strings.ToUpper(campaignStr),
			MaxTargetsPerFunc:   cfg.MaxTargetsPerFunc,
			MaxFuncsPerCampaign: cfg.MaxFuncsPerCampaign,
			DisableAssertions:   cfg.DisableAssertions,
			FaultModel:          inject.ModelTag(model.Name()),
		})
		if err != nil {
			return err
		}
		jw = w
	}

	cfg.Metrics = metrics
	if jw != nil {
		jw.Metrics = metrics
		cfg.Sink = jw
	}

	var cancel atomic.Bool
	cfg.Cancel = &cancel
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sigc); close(sigc) }()
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		cancel.Store(true)
		fmt.Fprintf(os.Stderr, "\ninterrupt: finishing in-flight runs and draining the journal...\n")
	}()

	// Live status line, cleared before any report output.
	statusLen := 0
	clearStatus := func() {
		if statusLen > 0 {
			fmt.Fprintf(os.Stderr, "\r%s\r", strings.Repeat(" ", statusLen))
			statusLen = 0
		}
	}
	if !*quiet {
		last := time.Now()
		cfg.Progress = func(c inject.Campaign, fn string, done, total int) {
			if done != total && time.Since(last) < 2*time.Second {
				return
			}
			last = time.Now()
			line := fmt.Sprintf("campaign %v: %d/%d (%s) | %s",
				c, done, total, fn, metrics.Snapshot().OneLine())
			if pad := statusLen - len(line); pad > 0 {
				line += strings.Repeat(" ", pad)
			}
			statusLen = len(line)
			fmt.Fprintf(os.Stderr, "\r%s", line)
		}
	}

	start := time.Now()
	s, err := core.New(cfg)
	if err != nil {
		return err
	}
	if *isolation == "process" {
		totals := make(map[string]int, len(cfg.Campaigns))
		for _, c := range cfg.Campaigns {
			ts, terr := s.Targets(c)
			if terr != nil {
				return terr
			}
			totals[analysis.CampaignKey(c)] = len(ts)
		}
		sup := supervisor.New(supervisor.Config{
			Command: workerCommand,
			Workers: cfg.Workers,
			Spec: wire.StudySpec{
				Seed:                cfg.Seed,
				Scale:               cfg.Scale,
				Campaigns:           strings.ToUpper(campaignStr),
				MaxTargetsPerFunc:   cfg.MaxTargetsPerFunc,
				MaxFuncsPerCampaign: cfg.MaxFuncsPerCampaign,
				DisableAssertions:   cfg.DisableAssertions,
				FaultModel:          inject.ModelTag(model.Name()),
				RunTimeout:          cfg.RunTimeout,
				MaxRetries:          cfg.MaxRetries,
				EngineOptions:       cfg.EngineOptions,
			},
			GoldenFP:         s.Runner.GoldenFingerprint(),
			GoldenDisk:       fmt.Sprintf("%x", s.Runner.GoldenDiskHash()),
			Totals:           totals,
			HeartbeatTimeout: *heartbeatTimeout,
			BreakerThreshold: *breakerThreshold,
			MaxRestarts:      *maxWorkerRestarts,
			ChaosKillRate:    *chaosKill,
			ChaosSeed:        *chaosSeed,
			Metrics:          metrics,
		})
		defer sup.Close()
		s.Cfg.Remote = sup
	}
	if prior != nil {
		fmt.Printf("resuming from %s: %d injections already journaled\n",
			*resumePath, prior.CompletedCount())
		if n := prior.QuarantinedCount(); n > 0 {
			fmt.Printf("%d quarantined targets stay excluded\n", n)
		}
	}
	if model.Name() != inject.ModelBitflip {
		fmt.Printf("fault model: %s — %s\n", model.Name(), model.Describe())
		if off, reason := s.Runner.CheckpointDisabled(); off {
			fmt.Printf("checkpoint reuse disabled: %s\n", reason)
		}
	}
	fmt.Printf("golden run: %d cycles; watchdog budget: %d cycles\n",
		s.Runner.GoldenCycles, s.Runner.Budget)
	for _, c := range cfg.Campaigns {
		fmt.Printf("campaign %v: %d target functions\n", c, len(s.FuncsFor[c]))
	}
	fmt.Println()

	runErr := s.RunAll()
	clearStatus()
	snap := metrics.Snapshot()
	if runErr != nil {
		// Drain everything already completed before reporting (the
		// deferred drain would also catch this; doing it eagerly keeps
		// the journal whole before the error text mentions it).
		drainJournal()
		if errors.Is(runErr, core.ErrCancelled) {
			if p := firstNonEmpty(*journalPath, *resumePath); p != "" {
				return fmt.Errorf("interrupted — completed runs are journaled; resume with: kinject -resume %s", p)
			}
			return fmt.Errorf("interrupted — no journal was kept; rerun with -journal to make the study resumable")
		}
		return runErr
	}
	if err := drainJournal(); err != nil {
		return err
	}
	fmt.Printf("completed in %s\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println(s.ReportTable2())
	fmt.Println(s.ReportTable1())
	fmt.Println(s.ReportFigure1())
	fmt.Println(analysis.RenderAll(s.Set))
	fmt.Println(snap.Render())

	if *out != "" {
		if err := s.Set.Save(*out); err != nil {
			return err
		}
		fmt.Printf("\nresults saved to %s\n", *out)
	}
	if p := firstNonEmpty(*journalPath, *resumePath); p != "" {
		fmt.Printf("\njournal written to %s\n", p)
	}
	return nil
}

// printModels renders the fault-model registry: one line of
// description per model plus its campaign set and whether the
// checkpoint layer applies (and, when it does not, the model's typed
// reason).
func printModels(w io.Writer) {
	fmt.Fprintln(w, "registered fault models (-fault-model):")
	for _, m := range inject.Models() {
		fmt.Fprintf(w, "\n  %-8s %s\n", m.Name(), m.Describe())
		keys := ""
		for _, c := range m.Campaigns() {
			keys += analysis.CampaignKey(c)
		}
		fmt.Fprintf(w, "           campaigns: %s\n", keys)
		if cs := m.Checkpoint(); cs.Compatible {
			fmt.Fprintf(w, "           checkpoint: reused across targets with the same activation event\n")
		} else {
			fmt.Fprintf(w, "           checkpoint: disabled — %s\n", cs.Reason)
		}
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
