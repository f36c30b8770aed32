package fleet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/wire"
)

// fakeBackend is a scripted wire.Backend: instant boot with a fixed
// golden oracle, canned results. It lets remote-pool tests exercise
// the full TCP + supervisor stack without building a real study.
type fakeBackend struct{}

func (fakeBackend) Boot(spec wire.StudySpec) (wire.Ready, error) {
	return wire.Ready{GoldenFP: "fp", GoldenDisk: "dd", Totals: map[string]int{"A": 10, "B": 6}}, nil
}

func (fakeBackend) Run(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	res := inject.Result{Outcome: inject.OutcomeNotActivated}
	return &res, nil, nil
}

func withFakeBackend(t *testing.T) {
	t.Helper()
	prev := newBackend
	newBackend = func() wire.Backend { return fakeBackend{} }
	t.Cleanup(func() { newBackend = prev })
}

func listenHub(t *testing.T) *Hub {
	t.Helper()
	h, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func startWorker(t *testing.T, addr string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ConnectWorker(ctx, addr, ConnectOptions{DialTimeout: 2 * time.Second})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("ConnectWorker did not return after cancel")
		}
	})
	return cancel
}

// A joiner that died in the queue must be discarded free by the attach
// probe, and a live joiner attached; after the pool kills its link the
// worker's reconnect loop must make it claimable again.
func TestHubProbeDiscardsDeadAttachesLiveAndReconnects(t *testing.T) {
	withFakeBackend(t)
	hub := listenHub(t)

	// Joiner 1: connects, then dies before being claimed.
	dead, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	// Joiner 2: a real worker loop (probe-answering, reconnecting).
	startWorker(t, hub.Addr())

	metrics := obs.New(1)
	dial := hub.dialFunc(PoolConfig{Name: "r", JoinWait: 10 * time.Second}, metrics)
	link, err := dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	link.Kill() // session ends cleanly; the worker redials

	link2, err := dial()
	if err != nil {
		t.Fatalf("dial after kill: %v (worker never reconnected)", err)
	}
	link2.Kill()

	snap := metrics.Snapshot()
	if snap.RemoteAttaches != 2 {
		t.Fatalf("RemoteAttaches = %d, want 2", snap.RemoteAttaches)
	}
	if snap.RemoteProbeFails < 1 {
		t.Fatalf("RemoteProbeFails = %d, want >= 1 (the dead joiner)", snap.RemoteProbeFails)
	}
	if st := hub.Stats(); st.Joined < 3 {
		t.Fatalf("hub joined %d connections, want >= 3 (dead + worker + reconnect)", st.Joined)
	}
}

// A worker speaking an older protocol answers the probe ping with an
// error frame (v2 had no ping); the pool must reject it at attach and,
// with no other joiner, charge a dial timeout.
func TestHubRejectsVersionSkewAtProbe(t *testing.T) {
	hub := listenHub(t)

	// A scripted v2-era worker: reads one frame, answers it with the
	// protocol error an old wire.Serve would produce.
	go func() {
		c, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			return
		}
		defer c.Close()
		conn := wire.NewConn(c, c)
		if _, err := conn.Recv(); err != nil {
			return
		}
		conn.Send(&wire.Msg{Type: wire.TypeError, Text: `unexpected "ping", want hello`})
		conn.Recv() // hold the connection open until the pool closes it
	}()

	metrics := obs.New(1)
	dial := hub.dialFunc(PoolConfig{Name: "r", JoinWait: 400 * time.Millisecond}, metrics)
	if _, err := dial(); err == nil {
		t.Fatal("dial attached a version-skewed worker")
	}
	snap := metrics.Snapshot()
	if snap.RemoteProbeFails != 1 {
		t.Fatalf("RemoteProbeFails = %d, want 1", snap.RemoteProbeFails)
	}
	if snap.RemoteDialTimeouts != 1 {
		t.Fatalf("RemoteDialTimeouts = %d, want 1", snap.RemoteDialTimeouts)
	}
	if snap.RemoteAttaches != 0 {
		t.Fatalf("RemoteAttaches = %d, want 0", snap.RemoteAttaches)
	}
}

// An empty join window is a budgeted death, not a hang: dial must
// return within JoinWait when no worker ever connects.
func TestDialTimesOutOnEmptyHub(t *testing.T) {
	hub := listenHub(t)
	dial := hub.dialFunc(PoolConfig{Name: "r", JoinWait: 100 * time.Millisecond}, obs.New(1))
	start := time.Now()
	if _, err := dial(); err == nil {
		t.Fatal("dial succeeded on an empty hub")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("dial took %v, want ~100ms", waited)
	}
}

// StopListener severs the join path without touching queued or
// attached workers; RestartListener rebinds the same address and
// reconnecting workers join again — the daemon-side partition drill.
func TestListenerStopRestart(t *testing.T) {
	withFakeBackend(t)
	hub := listenHub(t)
	hub.StopListener()
	if st := hub.Stats(); st.Listening {
		t.Fatal("hub claims to be listening after StopListener")
	}
	if c, err := net.DialTimeout("tcp", hub.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("dial succeeded while the listener was stopped")
	}
	if err := hub.RestartListener(); err != nil {
		t.Fatalf("RestartListener: %v", err)
	}
	startWorker(t, hub.Addr())
	dial := hub.dialFunc(PoolConfig{Name: "r", JoinWait: 10 * time.Second}, obs.New(1))
	link, err := dial()
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	link.Kill()
}

// ConnectWorker must return promptly on context cancellation, whether
// it is mid-session (blocked in Recv on the socket) or backing off.
func TestConnectWorkerCancels(t *testing.T) {
	withFakeBackend(t)
	hub := listenHub(t)
	ctx, cancel := context.WithCancel(context.Background())
	ret := make(chan error, 1)
	go func() {
		ret <- ConnectWorker(ctx, hub.Addr(), ConnectOptions{})
	}()
	// Wait until the worker is connected and parked in Recv.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().Joined == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-ret:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ConnectWorker returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConnectWorker did not return after cancel")
	}
}

// Full stack: a remote pool drains a campaign through real TCP workers
// via the real supervisor — handshake, golden cross-validation,
// dispatch and heartbeats all over the socket.
func TestRemotePoolDrainsCampaign(t *testing.T) {
	withFakeBackend(t)
	hub := listenHub(t)
	startWorker(t, hub.Addr())
	startWorker(t, hub.Addr())

	cfg := fleetConfig(PoolConfig{Name: "remote", Workers: 2, Hub: hub, JoinWait: 10 * time.Second})
	cfg.GoldenFP = "fp"
	cfg.GoldenDisk = "dd"
	cfg.Metrics = obs.New(2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := newQueue(t, cfg.Totals, 3)
	sink := newRecordSink()
	if err := f.Run(q, RunOptions{Sink: sink}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not drained")
	}
	for key, total := range cfg.Totals {
		puts, _ := sink.counts(key)
		if puts != total {
			t.Fatalf("campaign %s: %d distinct ordinals, want %d", key, puts, total)
		}
	}
	if snap := cfg.Metrics.Snapshot(); snap.RemoteAttaches < 1 {
		t.Fatalf("RemoteAttaches = %d, want >= 1", snap.RemoteAttaches)
	}
}
