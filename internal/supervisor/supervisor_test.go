package supervisor

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestHelperWorker is not a test: re-invoked as a subprocess by the
// supervisor tests, it serves the wire protocol over stdin/stdout with
// a scripted backend (selected by WORKER_BEHAVIOR).
func TestHelperWorker(t *testing.T) {
	if os.Getenv("SUPERVISOR_HELPER") == "" {
		return
	}
	behavior := os.Getenv("WORKER_BEHAVIOR")
	if behavior == "mute" {
		// Manual protocol: handshake, then freeze on the first run —
		// no heartbeats, no reply — to earn a heartbeat-deadline kill.
		conn := wire.NewConn(os.Stdin, os.Stdout)
		if _, err := conn.Recv(); err != nil {
			os.Exit(1)
		}
		conn.Send(&wire.Msg{Type: wire.TypeReady, Version: wire.ProtocolVersion, Ready: &wire.Ready{
			GoldenFP: "fp-test", GoldenDisk: "disk-test", Totals: map[string]int{"C": 64},
		}})
		conn.Recv()
		for {
			// Frozen, but via timers: a bare select{} would trip the Go
			// runtime's deadlock detector and exit instead of hanging.
			time.Sleep(time.Hour)
		}
	}
	err := wire.Serve(os.Stdin, os.Stdout, &scriptedWorker{behavior: behavior}, 2*time.Millisecond)
	if err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// scriptedWorker is the helper subprocess's backend.
type scriptedWorker struct{ behavior string }

func (b *scriptedWorker) Boot(spec wire.StudySpec) (wire.Ready, error) {
	fp := "fp-test"
	if b.behavior == "badgolden" {
		fp = "fp-diverged"
	}
	totals := map[string]int{"C": 64}
	if b.behavior == "badtotals" {
		totals["C"] = 63
	}
	return wire.Ready{GoldenFP: fp, GoldenDisk: "disk-test", Totals: totals}, nil
}

func (b *scriptedWorker) Run(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	switch b.behavior {
	case "crash":
		os.Exit(3)
	case "crash-on-3":
		if ordinal == 3 {
			os.Exit(3)
		}
	case "crash-once":
		if ordinal == 3 {
			sentinel := os.Getenv("WORKER_CRASH_SENTINEL")
			if _, err := os.Stat(sentinel); err != nil {
				os.WriteFile(sentinel, []byte("x"), 0o644)
				os.Exit(3)
			}
		}
	case "garbage":
		if ordinal == 9 {
			fmt.Print("stray stdout print corrupting the protocol stream")
			for { // let the supervisor notice the bad frame
				time.Sleep(time.Hour)
			}
		}
	case "fault":
		if ordinal == 7 {
			return nil, &inject.HarnessFault{Kind: inject.FaultPanic, Msg: "worker-side quarantine"}, nil
		}
	}
	return &inject.Result{
		Campaign: inject.CampaignC, Outcome: inject.OutcomeNotActivated, ActivationCycle: uint64(ordinal),
	}, nil, nil
}

// BlockStatsDelta makes the helper a wire.BlockStatser; only the
// "blocks" behavior reports nonzero deltas.
func (b *scriptedWorker) BlockStatsDelta() cpu.BlockStats {
	if b.behavior != "blocks" {
		return cpu.BlockStats{}
	}
	return cpu.BlockStats{Hits: 10, Misses: 2, Flushes: 1, Fallbacks: 3}
}

// helperConfig builds a supervisor Config spawning this test binary as
// the worker with the given scripted behavior.
func helperConfig(behavior string, env ...string) Config {
	return Config{
		Command: func() *exec.Cmd {
			cmd := exec.Command(os.Args[0], "-test.run=TestHelperWorker$")
			cmd.Env = append(os.Environ(), "SUPERVISOR_HELPER=1", "WORKER_BEHAVIOR="+behavior)
			cmd.Env = append(cmd.Env, env...)
			return cmd
		},
		Workers:     1,
		Spec:        wire.StudySpec{Campaigns: "C"},
		GoldenFP:    "fp-test",
		GoldenDisk:  "disk-test",
		Totals:      map[string]int{"C": 64},
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		ChaosSeed:   1,
	}
}

func TestHappyPathAndWorkerFault(t *testing.T) {
	s := New(helperConfig("fault"))
	defer s.Close()
	for _, ord := range []int{0, 1, 2} {
		res, hf, err := s.Do("C", ord)
		if err != nil || hf != nil {
			t.Fatalf("Do(%d): res=%v hf=%v err=%v", ord, res, hf, err)
		}
		if res.ActivationCycle != uint64(ord) {
			t.Fatalf("Do(%d) returned run %d's result", ord, res.ActivationCycle)
		}
	}
	// A worker-side quarantine (in-process retries exhausted) flows
	// through as a fault, not an error, and charges no restart.
	res, hf, err := s.Do("C", 7)
	if err != nil || res != nil || hf == nil || hf.Kind != inject.FaultPanic {
		t.Fatalf("worker fault: res=%v hf=%v err=%v", res, hf, err)
	}
	if got := s.Restarts(); got != 0 {
		t.Fatalf("healthy session charged %d restarts", got)
	}
}

// The block-engine deltas that result and fault frames carry are
// summed into the supervisor's metrics.
func TestBlockDeltasSummed(t *testing.T) {
	m := obs.New(1)
	cfg := helperConfig("blocks")
	cfg.Metrics = m
	s := New(cfg)
	defer s.Close()
	for ord := range 3 {
		if res, hf, err := s.Do("C", ord); err != nil || hf != nil || res == nil {
			t.Fatalf("Do(%d): res=%v hf=%v err=%v", ord, res, hf, err)
		}
	}
	snap := m.Snapshot()
	got := [4]int64{snap.BlockCacheHits, snap.BlockCacheMisses, snap.BlockFlushes, snap.BlockFallbacks}
	if want := [4]int64{30, 6, 3, 9}; got != want {
		t.Fatalf("block hits, misses, flushes, fallbacks = %v, want %v", got, want)
	}
}

// A worker that crashes once on a target is restarted (with the crash
// charged to the budget) and the target retried to success.
func TestCrashRetryAfterRestart(t *testing.T) {
	sentinel := filepath.Join(t.TempDir(), "crashed")
	m := obs.New(1)
	cfg := helperConfig("crash-once", "WORKER_CRASH_SENTINEL="+sentinel)
	cfg.Metrics = m
	s := New(cfg)
	defer s.Close()
	res, hf, err := s.Do("C", 3)
	if err != nil || hf != nil || res == nil || res.ActivationCycle != 3 {
		t.Fatalf("Do after crash: res=%v hf=%v err=%v", res, hf, err)
	}
	if got := s.Restarts(); got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	if m.Snapshot().WorkerRestarts != 1 {
		t.Fatalf("metrics: %+v", m.Snapshot())
	}
}

// A target that kills every worker sent at it trips the per-target
// circuit breaker: the caller gets a FaultWorkerDeath to quarantine,
// and other targets keep running.
func TestBreakerTrip(t *testing.T) {
	m := obs.New(1)
	cfg := helperConfig("crash-on-3")
	cfg.BreakerThreshold = 2
	cfg.Metrics = m
	s := New(cfg)
	defer s.Close()
	res, hf, err := s.Do("C", 3)
	if err != nil {
		t.Fatalf("breaker surfaced an error: %v", err)
	}
	if res != nil || hf == nil || hf.Kind != inject.FaultWorkerDeath {
		t.Fatalf("breaker: res=%v hf=%v", res, hf)
	}
	if !strings.Contains(hf.Msg, "circuit breaker") {
		t.Fatalf("breaker fault msg: %q", hf.Msg)
	}
	snap := m.Snapshot()
	if snap.BreakerTrips != 1 || snap.WorkerRestarts != 2 {
		t.Fatalf("metrics: trips=%d restarts=%d", snap.BreakerTrips, snap.WorkerRestarts)
	}
	// The poison target is quarantined; the campaign continues.
	if _, hf, err := s.Do("C", 4); err != nil || hf != nil {
		t.Fatalf("Do(4) after trip: hf=%v err=%v", hf, err)
	}
}

// A systemically broken binary (every run dies) exhausts the restart
// budget and fails loudly and stickily.
func TestRestartBudgetExhausted(t *testing.T) {
	cfg := helperConfig("crash")
	cfg.BreakerThreshold = 100 // keep the breaker out of the way
	cfg.MaxRestarts = 3
	s := New(cfg)
	defer s.Close()
	_, _, err := s.Do("C", 0)
	if err == nil || !strings.Contains(err.Error(), "restart budget exhausted") {
		t.Fatalf("budget: %v", err)
	}
	if _, _, err := s.Do("C", 1); err == nil {
		t.Fatal("broken supervisor accepted more work")
	}
}

// A worker whose golden run diverges from the study's reference is
// rejected before it executes a single injection — a hard failure, not
// a retry.
func TestGoldenMismatchFatal(t *testing.T) {
	s := New(helperConfig("badgolden"))
	defer s.Close()
	_, _, err := s.Do("C", 0)
	if err == nil || !strings.Contains(err.Error(), "golden cross-validation failed") {
		t.Fatalf("golden mismatch: %v", err)
	}
}

// A worker deriving a different target list is equally diverged.
func TestTotalsMismatchFatal(t *testing.T) {
	s := New(helperConfig("badtotals"))
	defer s.Close()
	_, _, err := s.Do("C", 0)
	if err == nil || !strings.Contains(err.Error(), "diverged target list") {
		t.Fatalf("totals mismatch: %v", err)
	}
}

// A frozen worker (alive but not heartbeating) is killed at the
// heartbeat deadline and the death handled like a crash.
func TestHeartbeatDeadlineKill(t *testing.T) {
	m := obs.New(1)
	cfg := helperConfig("mute")
	cfg.HeartbeatTimeout = 100 * time.Millisecond
	cfg.BreakerThreshold = 1
	cfg.Metrics = m
	s := New(cfg)
	defer s.Close()
	start := time.Now()
	res, hf, err := s.Do("C", 5)
	if err != nil || res != nil || hf == nil || hf.Kind != inject.FaultWorkerDeath {
		t.Fatalf("mute worker: res=%v hf=%v err=%v", res, hf, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline kill took %v", elapsed)
	}
	if m.Snapshot().WorkerKills == 0 {
		t.Fatal("no worker kill counted")
	}
}

// Garbage on the protocol stream (a stray print) is detected by the
// frame CRC and handled as a worker death, never decoded as a result.
func TestProtocolGarbage(t *testing.T) {
	cfg := helperConfig("garbage")
	cfg.BreakerThreshold = 2
	s := New(cfg)
	defer s.Close()
	res, hf, err := s.Do("C", 9)
	if err != nil {
		t.Fatalf("garbage stream surfaced an error: %v", err)
	}
	if res != nil || hf == nil || hf.Kind != inject.FaultWorkerDeath {
		t.Fatalf("garbage stream: res=%v hf=%v", res, hf)
	}
}

// Chaos kills are free retries: results stay correct and nothing is
// charged to the breaker or the restart budget.
func TestChaosKillsAreFreeRetries(t *testing.T) {
	m := obs.New(1)
	cfg := helperConfig("ok")
	cfg.ChaosKillRate = 0.5
	cfg.ChaosSeed = 7
	cfg.ChaosMaxDelay = 2 * time.Millisecond
	cfg.Metrics = m
	s := New(cfg)
	defer s.Close()
	for ord := 0; ord < 12; ord++ {
		res, hf, err := s.Do("C", ord)
		if err != nil || hf != nil || res == nil || res.ActivationCycle != uint64(ord) {
			t.Fatalf("Do(%d) under chaos: res=%v hf=%v err=%v", ord, res, hf, err)
		}
	}
	if got := s.Restarts(); got != 0 {
		t.Fatalf("chaos charged %d restarts to the budget", got)
	}
	// Kill goroutines fire after a random delay, possibly past the last
	// Do; give the scheduled ones a moment to land before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for m.Snapshot().ChaosKills == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Snapshot().ChaosKills == 0 {
		t.Fatal("no chaos kill landed in 12 runs at rate 0.5")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := New(helperConfig("ok"))
	if _, _, err := s.Do("C", 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, _, err := s.Do("C", 1); err == nil {
		t.Fatal("closed supervisor accepted work")
	}
}

// The chaos-kill decision stream must be a pure function of ChaosSeed:
// backoff-jitter draws (which depend on wall-clock scheduling of
// worker deaths) interleaving with chaos draws must not perturb them,
// or -chaos-seed reruns would diverge. The two streams are separate
// locked RNGs; this pins the decoupling.
func TestChaosStreamIndependentOfJitterDraws(t *testing.T) {
	ref := New(Config{ChaosSeed: 42})
	defer ref.Close()
	var want []float64
	for i := 0; i < 16; i++ {
		want = append(want, ref.chaosRng.Float64())
	}

	s := New(Config{ChaosSeed: 42})
	defer s.Close()
	for i := 0; i < 16; i++ {
		// Interleave jitter draws as a flapping fleet would.
		for j := 0; j < i%3; j++ {
			s.jitterRng.Int63n(1 << 20)
		}
		if got := s.chaosRng.Float64(); got != want[i] {
			t.Fatalf("chaos draw %d = %v, want %v: jitter draws perturbed the chaos stream", i, got, want[i])
		}
	}
}

// Concurrent chaos and jitter draws must be race-free (rand.Rand is
// not safe for concurrent use; each stream carries its own lock). Run
// under -race in CI.
func TestRNGStreamsConcurrentUse(t *testing.T) {
	s := New(Config{ChaosSeed: 1})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.chaosRng.Float64()
				s.jitterRng.Int63n(100)
			}
		}()
	}
	wg.Wait()
}

// dialLink adapts one end of a net.Pipe as a Link — the in-memory
// stand-in for a claimed TCP worker connection.
type dialLink struct {
	c    net.Conn
	conn *wire.Conn
}

func (l *dialLink) Conn() *wire.Conn { return l.conn }
func (l *dialLink) Kill()            { l.c.Close() }

// A supervisor configured with Dial instead of Command must run the
// identical protocol — handshake, golden cross-validation, dispatch,
// worker faults — over the dialed transport.
func TestDialTransport(t *testing.T) {
	var dials atomic.Int32
	cfg := helperConfig("")
	cfg.Command = nil
	cfg.Dial = func() (Link, error) {
		dials.Add(1)
		a, b := net.Pipe()
		go wire.Serve(b, b, &scriptedWorker{behavior: "fault"}, 5*time.Millisecond)
		return &dialLink{c: a, conn: wire.NewConn(a, a)}, nil
	}
	s := New(cfg)
	defer s.Close()
	for _, ord := range []int{0, 1, 2} {
		res, hf, err := s.Do("C", ord)
		if err != nil || hf != nil {
			t.Fatalf("Do(%d): res=%v hf=%v err=%v", ord, res, hf, err)
		}
		if res.ActivationCycle != uint64(ord) {
			t.Fatalf("Do(%d) returned run %d's result", ord, res.ActivationCycle)
		}
	}
	res, hf, err := s.Do("C", 7)
	if err != nil || res != nil || hf == nil || hf.Kind != inject.FaultPanic {
		t.Fatalf("worker fault over dial: res=%v hf=%v err=%v", res, hf, err)
	}
	if got := s.Restarts(); got != 0 {
		t.Fatalf("healthy dialed session charged %d restarts", got)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for one worker", n)
	}
}

// Every failed dial is a budgeted death: a pool whose remote workers
// never join must die in bounded time, not retry forever.
func TestDialFailureExhaustsBudget(t *testing.T) {
	var dials atomic.Int32
	cfg := helperConfig("")
	cfg.Command = nil
	cfg.MaxRestarts = 3
	cfg.Dial = func() (Link, error) {
		dials.Add(1)
		return nil, errors.New("no worker joined the hub")
	}
	s := New(cfg)
	defer s.Close()
	_, _, err := s.Do("C", 1)
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("undialable worker: %v, want restart-budget exhaustion", err)
	}
	if n := dials.Load(); n != 4 { // first boot + MaxRestarts retries
		t.Fatalf("%d dial attempts with MaxRestarts=3, want 4", n)
	}
}

// Killing a dialed link mid-run must unblock the supervisor (the read
// side sees the closed transport), charge a restart, and redial.
func TestDialLinkKillRestartsWorker(t *testing.T) {
	var mu sync.Mutex
	var links []*dialLink
	cfg := helperConfig("")
	cfg.Command = nil
	cfg.Dial = func() (Link, error) {
		a, b := net.Pipe()
		go wire.Serve(b, b, &scriptedWorker{}, 5*time.Millisecond)
		l := &dialLink{c: a, conn: wire.NewConn(a, a)}
		mu.Lock()
		links = append(links, l)
		mu.Unlock()
		return l, nil
	}
	s := New(cfg)
	defer s.Close()
	if _, _, err := s.Do("C", 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	links[0].Kill() // sever the first worker's transport
	mu.Unlock()
	res, _, err := s.Do("C", 1)
	if err != nil || res == nil {
		t.Fatalf("Do after link kill: res=%v err=%v (supervisor never redialed)", res, err)
	}
	if got := s.Restarts(); got < 1 {
		t.Fatalf("severed link charged %d restarts, want >= 1", got)
	}
}
