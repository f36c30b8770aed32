// Package supervisor owns the lifecycle of injection worker
// subprocesses (kinject -worker): the process-isolation layer that
// makes a campaign survive faults the in-process harness cannot — a
// runaway interpreter loop that pins the Go runtime, a memory blowup
// that OOM-kills the process, a harness bug that corrupts shared
// state. It is the software analog of the paper's hardware watchdog
// and reboot cycle: workers are expendable machines, the supervisor is
// the controller that power-cycles them.
//
// Policies:
//
//   - Heartbeat deadline per run: a worker that stops heartbeating
//     (dead, frozen, or wedged process) is hard-killed and replaced.
//     Run-level livelocks inside a healthy process are the worker's
//     own wall-clock watchdog's job (PR 2); the heartbeat catches the
//     process-level failures beneath it.
//   - Restart with exponential backoff and jitter after an abnormal
//     death, so a crash-looping binary does not spin the host.
//   - Per-target circuit breaker: a target that kills workers
//     BreakerThreshold consecutive times is abandoned with a
//     FaultWorkerDeath (the caller quarantines it in the journal,
//     reusing the quarantine frames from the in-process retry policy).
//   - Bounded restart budget: more than MaxRestarts abnormal worker
//     deaths across the campaign fail it loudly — a systemically
//     broken binary must not flap forever.
//   - Golden cross-validation: a worker whose golden (fault-free) run
//     fingerprint or disk hash differs from the study's reference is
//     rejected before it executes a single injection.
package supervisor

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultMaxRestarts      = 32
	DefaultHeartbeatTimeout = 15 * time.Second
	DefaultBootTimeout      = 2 * time.Minute
	defaultBackoffBase      = 100 * time.Millisecond
	defaultBackoffMax       = 5 * time.Second
	defaultChaosMaxDelay    = 10 * time.Millisecond
)

// Link is one worker transport: a local subprocess's stdin/stdout
// pipes or a remote worker's TCP connection. The supervisor's policies
// (heartbeat deadline, backoff, breaker, budget) are transport-blind;
// only acquisition and destruction differ.
type Link interface {
	// Conn is the framed protocol connection to the worker.
	Conn() *wire.Conn
	// Kill hard-stops the worker: close the transport (and SIGKILL the
	// process, for subprocess links). Must be safe to call repeatedly
	// and concurrently with a blocked Conn().Recv, which it unblocks.
	Kill()
}

// linkWaiter is optionally implemented by links whose endpoint's death
// is observable independently of the read stream (a subprocess exit);
// the supervisor reaps such workers even while no read is pending.
type linkWaiter interface {
	Wait() error
}

// Config describes a worker fleet.
type Config struct {
	// Command launches one worker process. The supervisor owns its
	// stdin/stdout; stderr is inherited. Exactly one of Command and
	// Dial must be set.
	Command func() *exec.Cmd
	// Dial, when set, acquires one remote worker transport instead of
	// spawning a subprocess (internal/fleet's remote pools claim a
	// connected TCP worker here). A Dial error is a retryable worker
	// death: it is charged to the restart budget and retried under the
	// usual exponential backoff, so a pool whose remote workers all
	// vanished eventually breaks instead of flapping forever.
	Dial func() (Link, error)
	// Workers is the maximum number of live worker processes.
	Workers int
	// Spec is the study configuration shipped to every worker.
	Spec wire.StudySpec
	// GoldenFP and GoldenDisk are the study's reference golden-run
	// oracle; a worker reporting anything else is rejected (diverged
	// simulated machine).
	GoldenFP   string
	GoldenDisk string
	// Totals, when set, maps campaign key -> expected target count; a
	// worker deriving different totals is rejected.
	Totals map[string]int

	// HeartbeatTimeout is the maximum silence tolerated from a worker
	// with a run in flight before it is killed (default
	// DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// BootTimeout is the maximum silence tolerated during worker boot
	// (heartbeats reset it; default DefaultBootTimeout).
	BootTimeout time.Duration
	// BreakerThreshold quarantines a target after this many
	// consecutive worker deaths on it (default
	// DefaultBreakerThreshold).
	BreakerThreshold int
	// MaxRestarts bounds abnormal worker deaths across the supervisor's
	// lifetime; beyond it every Do fails (default DefaultMaxRestarts).
	MaxRestarts int
	// BackoffBase/BackoffMax shape the exponential restart backoff.
	BackoffBase, BackoffMax time.Duration

	// ChaosKillRate, when > 0, SIGKILLs the worker of roughly that
	// fraction of runs after a random delay — the fault-injecting
	// wrapper used by the chaos tests. Chaos deaths are retried without
	// counting against the breaker or the restart budget.
	ChaosKillRate float64
	// ChaosSeed seeds the chaos-kill and backoff-jitter RNG streams
	// (0 = nondeterministic). The two streams are independent, so the
	// chaos decision sequence for a seed never depends on how many
	// jitter draws interleaved with it.
	ChaosSeed int64
	// ChaosMaxDelay bounds the random delay before a chaos kill.
	ChaosMaxDelay time.Duration

	// Metrics receives supervisor counters (New substitutes a private
	// one when unset).
	Metrics *obs.Metrics
}

// Supervisor manages the fleet and executes runs on it. Do is safe
// for concurrent use by campaign worker goroutines.
type Supervisor struct {
	cfg  Config
	idle chan *worker
	done chan struct{}

	mu         sync.Mutex
	live       int
	workers    map[*worker]struct{}
	deaths     map[string]int // campaign/ordinal -> consecutive worker deaths
	consecFail int            // abnormal deaths since the last successful run
	restarts   int            // abnormal deaths total (budget)
	broken     error          // sticky hard failure
	closeOnce  sync.Once

	// chaosRng and jitterRng are independent, individually locked RNG
	// streams. rand.Rand is not safe for concurrent use, and the
	// chaos-kill path and backoffSleep's jitter run on different
	// goroutines — beyond the data race, sharing one stream would make
	// the chaos-kill decision sequence for a given -chaos-seed depend
	// on how many backoff draws happened to interleave, destroying the
	// reproducibility the seed exists for. Each path gets its own
	// stream: chaosRng is seeded with ChaosSeed verbatim, jitterRng
	// with a fixed derivation of it.
	chaosRng  *lockedRand
	jitterRng *lockedRand
}

// lockedRand is a mutex-guarded rand.Rand usable from any goroutine.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
}

// worker is one live worker endpoint (subprocess or remote).
type worker struct {
	link     Link
	conn     *wire.Conn
	msgs     chan *wire.Msg
	readErr  error // valid once msgs is closed
	dead     chan struct{}
	deadOnce sync.Once
	waitErr  error // valid once dead is closed
	chaos    atomic.Bool
}

// markDead records the first observed death reason and closes dead.
// Two observers race here — the reader goroutine (read error, any
// transport) and the process waiter (exit status, subprocess links) —
// and either reason is accurate enough for logs.
func (w *worker) markDead(err error) {
	w.deadOnce.Do(func() {
		w.waitErr = err
		close(w.dead)
	})
}

// deathError marks a retryable worker death (crash, kill, torn pipe),
// as opposed to a fatal logic failure (version skew, golden mismatch).
type deathError struct{ err error }

func (e *deathError) Error() string { return e.err.Error() }
func (e *deathError) Unwrap() error { return e.err }

// New prepares a supervisor; workers are started lazily by Do.
func New(cfg Config) *Supervisor {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.BootTimeout <= 0 {
		cfg.BootTimeout = DefaultBootTimeout
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = DefaultMaxRestarts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = defaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = defaultBackoffMax
	}
	if cfg.ChaosMaxDelay <= 0 {
		cfg.ChaosMaxDelay = defaultChaosMaxDelay
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New(1)
	}
	seed := cfg.ChaosSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Supervisor{
		cfg:      cfg,
		idle:     make(chan *worker, cfg.Workers),
		done:     make(chan struct{}),
		workers:  make(map[*worker]struct{}),
		deaths:   make(map[string]int),
		chaosRng: newLockedRand(seed),
		// Any fixed odd offset decorrelates the streams; the value is
		// part of the -chaos-seed reproducibility contract.
		jitterRng: newLockedRand(seed ^ 0x6a09e667f3bcc909),
	}
}

// Do executes one target on the fleet: it acquires a worker (starting
// or restarting one as needed), dispatches the run, and supervises it
// to completion. A non-nil HarnessFault means the target was abandoned
// — either the worker itself quarantined it after in-process retries,
// or the per-target circuit breaker opened after repeated worker
// deaths. A non-nil error is a hard campaign failure (restart budget
// exhausted, diverged worker, supervisor closed).
func (s *Supervisor) Do(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	key := campaign + "/" + strconv.Itoa(ordinal)
	for {
		if err := s.errNow(); err != nil {
			return nil, nil, err
		}
		w, err := s.acquire()
		if err != nil {
			return nil, nil, err
		}
		res, hf, runErr := s.runOn(w, campaign, ordinal)
		if runErr == nil {
			s.mu.Lock()
			s.consecFail = 0
			delete(s.deaths, key)
			s.mu.Unlock()
			s.release(w)
			return res, hf, nil
		}
		chaos := w.chaos.Load()
		s.destroy(w)
		var fatal *fatalError
		if errors.As(runErr, &fatal) {
			return nil, nil, s.fail(runErr)
		}
		if chaos {
			continue // fault-injection kill: free retry, no penalties
		}
		if err := s.abnormalDeath(); err != nil {
			return nil, nil, err
		}
		s.mu.Lock()
		s.deaths[key]++
		n := s.deaths[key]
		s.mu.Unlock()
		if n >= s.cfg.BreakerThreshold {
			s.cfg.Metrics.BreakerTrips.Add(1)
			return nil, &inject.HarnessFault{
				Kind: inject.FaultWorkerDeath,
				Msg: fmt.Sprintf("circuit breaker open: %d consecutive worker deaths on this target (last: %v)",
					n, runErr),
			}, nil
		}
	}
}

// fatalError marks a hard, non-retryable failure surfaced during a
// run (worker-reported logic error, protocol version skew).
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// runOn dispatches one run to an acquired worker and supervises it
// under the heartbeat deadline. On success the caller releases the
// worker; on error the caller destroys it.
func (s *Supervisor) runOn(w *worker, campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	if err := w.conn.Send(&wire.Msg{Type: wire.TypeRun, Campaign: campaign, Ordinal: ordinal}); err != nil {
		return nil, nil, fmt.Errorf("supervisor: dispatch: %w", err)
	}
	s.maybeChaosKill(w)
	deadline := time.NewTimer(s.cfg.HeartbeatTimeout)
	defer deadline.Stop()
	for {
		select {
		case m, ok := <-w.msgs:
			if !ok {
				return nil, nil, fmt.Errorf("supervisor: worker died mid-run (read: %v, exit: %v)", w.readErr, w.exitErr())
			}
			switch m.Type {
			case wire.TypeBeat:
				resetTimer(deadline, s.cfg.HeartbeatTimeout)
			case wire.TypeResult, wire.TypeFault:
				if m.Campaign != campaign || m.Ordinal != ordinal {
					s.cfg.Metrics.FramesRejected.Add(1)
					return nil, nil, fmt.Errorf("supervisor: protocol error: reply for %s/%d, want %s/%d",
						m.Campaign, m.Ordinal, campaign, ordinal)
				}
				if m.Blocks != nil {
					s.cfg.Metrics.BlockStats(*m.Blocks)
				}
				if m.Type == wire.TypeFault {
					if m.Fault == nil {
						s.cfg.Metrics.FramesRejected.Add(1)
						return nil, nil, errors.New("supervisor: protocol error: fault frame without fault")
					}
					return nil, m.Fault, nil
				}
				if m.Result == nil {
					s.cfg.Metrics.FramesRejected.Add(1)
					return nil, nil, errors.New("supervisor: protocol error: result frame without result")
				}
				return m.Result, nil, nil
			case wire.TypeError:
				return nil, nil, &fatalError{fmt.Errorf("supervisor: worker error: %s", m.Text)}
			default:
				s.cfg.Metrics.FramesRejected.Add(1)
				return nil, nil, fmt.Errorf("supervisor: protocol error: unexpected %q frame", m.Type)
			}
		case <-deadline.C:
			s.cfg.Metrics.WorkerKills.Add(1)
			w.kill()
			return nil, nil, fmt.Errorf("supervisor: heartbeat deadline %v exceeded; worker killed", s.cfg.HeartbeatTimeout)
		case <-s.done:
			return nil, nil, &fatalError{errors.New("supervisor: closed")}
		}
	}
}

// acquire returns a live idle worker, starting one when the fleet is
// below Workers, or waits for a release.
func (s *Supervisor) acquire() (*worker, error) {
	for {
		if err := s.errNow(); err != nil {
			return nil, err
		}
		select {
		case w := <-s.idle:
			if ok, err := s.vetIdle(w); ok {
				return w, nil
			} else if err != nil {
				return nil, err
			}
			continue
		default:
		}
		s.mu.Lock()
		if s.live < s.cfg.Workers {
			s.live++
			s.mu.Unlock()
			w, err := s.start()
			if err != nil {
				s.mu.Lock()
				s.live--
				s.mu.Unlock()
				var died *deathError
				if errors.As(err, &died) {
					if aerr := s.abnormalDeath(); aerr != nil {
						return nil, aerr
					}
					continue // backoff applies on the next start
				}
				return nil, s.fail(err)
			}
			return w, nil
		}
		s.mu.Unlock()
		select {
		case w := <-s.idle:
			if ok, err := s.vetIdle(w); ok {
				return w, nil
			} else if err != nil {
				return nil, err
			}
		case <-s.done:
			return nil, errors.New("supervisor: closed")
		}
	}
}

// vetIdle checks a worker popped from the idle pool; a worker that
// died while idle (e.g. a chaos kill landing after its run finished)
// is reaped. The bool reports whether the worker is usable.
func (s *Supervisor) vetIdle(w *worker) (bool, error) {
	if !w.isDead() {
		return true, nil
	}
	chaos := w.chaos.Load()
	s.destroy(w)
	if !chaos {
		if err := s.abnormalDeath(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// procLink is the subprocess transport: stdin/stdout pipes to a
// worker the supervisor spawned and owns.
type procLink struct {
	cmd   *exec.Cmd
	stdin io.Closer
	conn  *wire.Conn
}

func (l *procLink) Conn() *wire.Conn { return l.conn }

func (l *procLink) Kill() {
	if l.stdin != nil {
		l.stdin.Close()
	}
	if l.cmd.Process != nil {
		l.cmd.Process.Kill()
	}
}

func (l *procLink) Wait() error { return l.cmd.Wait() }

// startProc spawns one worker subprocess and wraps its pipes.
func startProc(cmd *exec.Cmd) (Link, error) {
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("supervisor: stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("supervisor: stdout pipe: %w", err)
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("supervisor: start worker: %w", err)
	}
	return &procLink{cmd: cmd, stdin: stdin, conn: wire.NewConn(stdout, stdin)}, nil
}

// connect acquires one worker transport: Dial when configured (remote
// pools), else a spawned subprocess. Dial failures are retryable
// worker deaths — remote workers vanish for environmental reasons —
// while a subprocess that cannot even be spawned is a fatal
// configuration error.
func (s *Supervisor) connect() (Link, error) {
	if s.cfg.Dial != nil {
		l, err := s.cfg.Dial()
		if err != nil {
			return nil, &deathError{fmt.Errorf("supervisor: dial worker: %w", err)}
		}
		return l, nil
	}
	if s.cfg.Command == nil {
		return nil, errors.New("supervisor: no worker transport configured (need Command or Dial)")
	}
	return startProc(s.cfg.Command())
}

// start acquires and handshakes one worker, applying restart backoff.
func (s *Supervisor) start() (*worker, error) {
	if err := s.backoffSleep(); err != nil {
		return nil, err
	}
	link, err := s.connect()
	if err != nil {
		return nil, err
	}
	w := &worker{
		link: link,
		conn: link.Conn(),
		msgs: make(chan *wire.Msg, 64),
		dead: make(chan struct{}),
	}
	// Mid-frame silence bound: a worker that dies after writing half a
	// frame must fail the read within the heartbeat deadline instead of
	// wedging the reader forever. Best effort — in-memory test streams
	// keep blocking semantics.
	w.conn.SetFrameTimeout(s.cfg.HeartbeatTimeout)
	go func() {
		for {
			m, err := w.conn.Recv()
			if err != nil {
				w.readErr = err
				if errors.Is(err, wire.ErrRecvTimeout) {
					s.cfg.Metrics.DeadlineKills.Add(1)
				}
				close(w.msgs)
				w.markDead(err)
				return
			}
			w.msgs <- m
		}
	}()
	if lw, ok := link.(linkWaiter); ok {
		go func() { w.markDead(lw.Wait()) }()
	}

	hello := &wire.Msg{Type: wire.TypeHello, Version: wire.ProtocolVersion, Spec: &s.cfg.Spec}
	if err := w.conn.Send(hello); err != nil {
		s.reap(w)
		return nil, &deathError{fmt.Errorf("supervisor: handshake send: %w", err)}
	}
	deadline := time.NewTimer(s.cfg.BootTimeout)
	defer deadline.Stop()
	for {
		select {
		case m, ok := <-w.msgs:
			if !ok {
				s.reap(w)
				return nil, &deathError{fmt.Errorf("supervisor: worker died during boot (read: %v, exit: %v)", w.readErr, w.exitErr())}
			}
			switch m.Type {
			case wire.TypeBeat:
				resetTimer(deadline, s.cfg.BootTimeout)
			case wire.TypeReady:
				if err := s.validateReady(m); err != nil {
					s.reap(w)
					return nil, err // fatal: diverged or skewed worker
				}
				s.mu.Lock()
				s.workers[w] = struct{}{}
				s.mu.Unlock()
				return w, nil
			case wire.TypeError:
				s.reap(w)
				return nil, fmt.Errorf("supervisor: worker boot failed: %s", m.Text)
			default:
				s.cfg.Metrics.FramesRejected.Add(1)
				s.reap(w)
				return nil, &deathError{fmt.Errorf("supervisor: protocol error during boot: unexpected %q frame", m.Type)}
			}
		case <-deadline.C:
			s.cfg.Metrics.WorkerKills.Add(1)
			s.reap(w)
			return nil, &deathError{fmt.Errorf("supervisor: worker boot exceeded %v of silence; killed", s.cfg.BootTimeout)}
		case <-s.done:
			s.reap(w)
			return nil, errors.New("supervisor: closed")
		}
	}
}

// validateReady cross-validates a worker's handshake against the
// study's reference oracle. Any mismatch is fatal: the worker's
// simulated machine diverged and every verdict it produced would be
// incomparable.
func (s *Supervisor) validateReady(m *wire.Msg) error {
	if m.Version != wire.ProtocolVersion {
		return fmt.Errorf("supervisor: protocol version skew: worker %d, supervisor %d", m.Version, wire.ProtocolVersion)
	}
	if m.Ready == nil {
		return errors.New("supervisor: ready frame without payload")
	}
	if s.cfg.GoldenFP != "" && m.Ready.GoldenFP != s.cfg.GoldenFP {
		return fmt.Errorf("supervisor: golden cross-validation failed: worker trace fingerprint %q != reference %q (diverged simulated machine; refusing to inject)",
			m.Ready.GoldenFP, s.cfg.GoldenFP)
	}
	if s.cfg.GoldenDisk != "" && m.Ready.GoldenDisk != s.cfg.GoldenDisk {
		return fmt.Errorf("supervisor: golden cross-validation failed: worker disk hash %s != reference %s (diverged simulated machine; refusing to inject)",
			m.Ready.GoldenDisk, s.cfg.GoldenDisk)
	}
	for key, want := range s.cfg.Totals {
		if got := m.Ready.Totals[key]; got != want {
			return fmt.Errorf("supervisor: worker derived %d targets for campaign %s, reference has %d (diverged target list)", got, key, want)
		}
	}
	return nil
}

// release returns a worker to the idle pool.
func (s *Supervisor) release(w *worker) {
	select {
	case s.idle <- w:
	default:
		// Pool full (cannot happen: at most Workers live), be safe.
		s.destroy(w)
	}
}

// destroy kills and unregisters a worker.
func (s *Supervisor) destroy(w *worker) {
	s.mu.Lock()
	delete(s.workers, w)
	s.live--
	s.mu.Unlock()
	s.reap(w)
}

// reap kills a worker process that was never (or is no longer)
// registered and drains its reader.
func (s *Supervisor) reap(w *worker) {
	w.kill()
	go func() {
		for range w.msgs {
		}
	}()
}

// abnormalDeath charges one worker death to the restart budget and
// the backoff counter. The returned error is non-nil once the budget
// is exhausted: the binary is systemically broken and the campaign
// must fail loudly instead of flapping forever.
func (s *Supervisor) abnormalDeath() error {
	s.cfg.Metrics.WorkerRestarts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFail++
	s.restarts++
	if s.restarts > s.cfg.MaxRestarts && s.broken == nil {
		s.broken = fmt.Errorf("supervisor: worker restart budget exhausted (%d abnormal deaths > %d): worker binary or environment is systemically broken",
			s.restarts, s.cfg.MaxRestarts)
	}
	return s.broken
}

// backoffSleep applies exponential backoff with jitter before a
// restart (no-op for the first start after a healthy run). The timer
// is stopped on the cancellation branch too, so an aborted sleep does
// not strand a live timer until it fires.
func (s *Supervisor) backoffSleep() error {
	s.mu.Lock()
	n := s.consecFail
	s.mu.Unlock()
	if n <= 0 {
		return nil
	}
	d := s.cfg.BackoffBase << uint(n-1)
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	jitter := d + time.Duration(s.jitterRng.Int63n(int64(d/2)+1))
	t := time.NewTimer(jitter)
	select {
	case <-t.C:
		return nil
	case <-s.done:
		t.Stop()
		return errors.New("supervisor: closed")
	}
}

// maybeChaosKill SIGKILLs the worker after a random delay for roughly
// ChaosKillRate of runs (the chaos-testing fault injector). The delay
// is armed on its own timer and cancelled by Close, so a shutting-down
// supervisor does not leave kill goroutines firing into a fleet it no
// longer owns.
func (s *Supervisor) maybeChaosKill(w *worker) {
	if s.cfg.ChaosKillRate <= 0 {
		return
	}
	if s.chaosRng.Float64() >= s.cfg.ChaosKillRate {
		return
	}
	delay := time.Duration(s.chaosRng.Int63n(int64(s.cfg.ChaosMaxDelay) + 1))
	go func() {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-s.done:
			t.Stop()
			return
		}
		w.chaos.Store(true)
		s.cfg.Metrics.ChaosKills.Add(1)
		w.kill()
	}()
}

// errNow reports the sticky hard failure, if any.
func (s *Supervisor) errNow() error {
	select {
	case <-s.done:
		return errors.New("supervisor: closed")
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// fail records a sticky hard failure so concurrent Do calls stop too.
func (s *Supervisor) fail(err error) error {
	s.mu.Lock()
	if s.broken == nil {
		s.broken = err
	}
	err = s.broken
	s.mu.Unlock()
	return err
}

// Restarts reports the abnormal worker deaths charged so far.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// Close kills every worker and releases the fleet. Safe to call more
// than once.
func (s *Supervisor) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	ws := make([]*worker, 0, len(s.workers))
	for w := range s.workers {
		ws = append(ws, w)
	}
	s.workers = make(map[*worker]struct{})
	s.live = 0
	s.mu.Unlock()
	for _, w := range ws {
		s.reap(w)
	}
	// Drain idle references (already covered by the workers set, but
	// keep the channel empty for a clean shutdown).
	for {
		select {
		case <-s.idle:
		default:
			return
		}
	}
}

// kill hard-stops the worker's transport (and process, if any).
func (w *worker) kill() { w.link.Kill() }

func (w *worker) isDead() bool {
	select {
	case <-w.dead:
		return true
	default:
		return false
	}
}

// exitErr returns the process exit error once dead, else a pending
// marker.
func (w *worker) exitErr() error {
	select {
	case <-w.dead:
		return w.waitErr
	default:
		return errors.New("still running")
	}
}

// resetTimer safely re-arms a timer being consumed in a select.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
