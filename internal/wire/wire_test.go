package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/inject"
)

// pipePair builds two connected Conns (supervisor end, worker end).
func pipePair() (*Conn, *Conn, func()) {
	supR, workW := io.Pipe()
	workR, supW := io.Pipe()
	sup := NewConn(supR, supW)
	work := NewConn(workR, workW)
	return sup, work, func() {
		supW.Close()
		workW.Close()
	}
}

func TestFrameRoundTrip(t *testing.T) {
	res := inject.Result{Campaign: inject.CampaignC, Outcome: inject.OutcomeCrash, ActivationCycle: 42, LatencyValid: true}
	hf := inject.HarnessFault{Kind: inject.FaultPanic, Msg: "boom", Func: "sys_read"}
	msgs := []*Msg{
		{Type: TypeHello, Version: ProtocolVersion, Spec: &StudySpec{Seed: 2003, Scale: 1, Campaigns: "ABC", MaxRetries: -1, RunTimeout: 3 * time.Second}},
		{Type: TypeReady, Version: ProtocolVersion, Ready: &Ready{GoldenFP: "fp", GoldenDisk: "aa55", Totals: map[string]int{"A": 7}}},
		{Type: TypeRun, Campaign: "C", Ordinal: 12},
		{Type: TypeBeat},
		{Type: TypeResult, Campaign: "C", Ordinal: 12, Result: &res},
		{Type: TypeFault, Campaign: "C", Ordinal: 13, Fault: &hf},
		{Type: TypeError, Text: "it broke"},
	}
	var buf bytes.Buffer
	c := NewConn(&buf, &buf)
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip %s:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want EOF", err)
	}
}

// A StudySpec travels in hello frames, queue headers and kampaignd's
// spec.json files, so its JSON form is pinned: these strings were
// marshaled before the engine options moved into inject.EngineOptions.
func TestStudySpecJSONPinned(t *testing.T) {
	for _, tc := range []struct {
		spec StudySpec
		want string
	}{
		{StudySpec{Seed: 2003}, `{"Seed":2003,"Scale":0,"Campaigns":"","MaxTargetsPerFunc":0,"MaxFuncsPerCampaign":0,"DisableAssertions":false,"RunTimeout":0,"MaxRetries":0,"NoCheckpoint":false}`},
		{StudySpec{Seed: 2003, Scale: 1, Campaigns: "ABC", MaxTargetsPerFunc: 2, MaxFuncsPerCampaign: 3,
			DisableAssertions: true, FaultModel: "syscall", RunTimeout: 5 * time.Second, MaxRetries: 2,
			EngineOptions: inject.EngineOptions{NoCheckpoint: true, NoBlocks: true}},
			`{"Seed":2003,"Scale":1,"Campaigns":"ABC","MaxTargetsPerFunc":2,"MaxFuncsPerCampaign":3,"DisableAssertions":true,"FaultModel":"syscall","RunTimeout":5000000000,"MaxRetries":2,"NoCheckpoint":true,"NoBlocks":true}`},
	} {
		got, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("StudySpec JSON\n got %s\nwant %s", got, tc.want)
		}
		var back StudySpec
		if err := json.Unmarshal(got, &back); err != nil || back != tc.spec {
			t.Errorf("StudySpec JSON round trip: %+v, %v", back, err)
		}
	}
}

// A reply frame carrying block-engine deltas is pinned byte for byte:
// these bytes were encoded when the deltas had a wire type of their
// own, before they became a cpu.BlockStats.
func TestBlockDeltaFramePinned(t *testing.T) {
	const want = "800000007b2254797065223a226661756c74222c2243616d706169676e223a2243222c224f7264696e616c223a31332c224661756c74223a7b224b696e64223a2270616e6963222c224d7367223a22626f6f6d227d2c22426c6f636b73223a7b2248697473223a31302c224d6973736573223a322c2246616c6c6261636b73223a337d7db4fe2bd1"
	msg := &Msg{Type: TypeFault, Campaign: "C", Ordinal: 13,
		Fault:  &inject.HarnessFault{Kind: inject.FaultPanic, Msg: "boom"},
		Blocks: &cpu.BlockStats{Hits: 10, Misses: 2, Fallbacks: 3}}
	var buf bytes.Buffer
	c := NewConn(&buf, &buf)
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("frame\n got %s\nwant %s", got, want)
	}
	back, err := c.Recv()
	if err != nil || !reflect.DeepEqual(back, msg) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
}

// A flipped payload byte must surface as ErrBadFrame, not a decoded
// wrong message.
func TestRecvCorruptPayload(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf, &buf)
	if err := c.Send(&Msg{Type: TypeRun, Campaign: "A", Ordinal: 3}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[6] ^= 0x20 // inside the JSON payload
	if _, err := c.Recv(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt payload: %v, want ErrBadFrame", err)
	}
}

// Garbage where a length prefix should be (a stray print into the
// protocol stream) is a bad frame, not a 1.8 GB allocation.
func TestRecvBadLength(t *testing.T) {
	c := NewConn(bytes.NewReader([]byte("unexpected stdout noise........")), io.Discard)
	if _, err := c.Recv(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage stream: %v, want ErrBadFrame", err)
	}
}

// A mid-frame EOF (worker died while writing) reads as EOF, the
// peer-death signal, not as corruption.
func TestRecvTornFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf, &buf)
	if err := c.Send(&Msg{Type: TypeBeat}); err != nil {
		t.Fatal(err)
	}
	torn := NewConn(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), io.Discard)
	if _, err := torn.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("torn frame: %v, want EOF", err)
	}
}

// scriptedBackend serves canned runs and can inject latency.
type scriptedBackend struct {
	bootErr  error
	runDelay time.Duration

	mu   sync.Mutex
	runs []string
}

func (b *scriptedBackend) Boot(spec StudySpec) (Ready, error) {
	if b.bootErr != nil {
		return Ready{}, b.bootErr
	}
	return Ready{GoldenFP: "fp", GoldenDisk: "d15c", Totals: map[string]int{"C": 9}}, nil
}

func (b *scriptedBackend) Run(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	if b.runDelay > 0 {
		time.Sleep(b.runDelay)
	}
	b.mu.Lock()
	b.runs = append(b.runs, campaign)
	b.mu.Unlock()
	if ordinal == 13 {
		return nil, &inject.HarnessFault{Kind: inject.FaultTimeout, Msg: "worker-side quarantine"}, nil
	}
	return &inject.Result{Campaign: inject.CampaignC, Outcome: inject.OutcomeNotActivated, ActivationCycle: uint64(ordinal)}, nil, nil
}

// TestServeSession drives a full worker session: handshake, a result
// run, a fault run, then clean shutdown on stream close.
func TestServeSession(t *testing.T) {
	sup, work, closeAll := pipePair()
	b := &scriptedBackend{}
	done := make(chan error, 1)
	go func() { done <- Serve(workReader(work), workWriter(work), b, time.Minute) }()

	if err := sup.Send(&Msg{Type: TypeHello, Version: ProtocolVersion, Spec: &StudySpec{Campaigns: "C"}}); err != nil {
		t.Fatal(err)
	}
	ready := recvSkippingBeats(t, sup)
	if ready.Type != TypeReady || ready.Ready == nil || ready.Ready.GoldenFP != "fp" {
		t.Fatalf("handshake reply: %+v", ready)
	}

	if err := sup.Send(&Msg{Type: TypeRun, Campaign: "C", Ordinal: 4}); err != nil {
		t.Fatal(err)
	}
	reply := recvSkippingBeats(t, sup)
	if reply.Type != TypeResult || reply.Campaign != "C" || reply.Ordinal != 4 || reply.Result == nil || reply.Result.ActivationCycle != 4 {
		t.Fatalf("result reply: %+v", reply)
	}

	if err := sup.Send(&Msg{Type: TypeRun, Campaign: "C", Ordinal: 13}); err != nil {
		t.Fatal(err)
	}
	reply = recvSkippingBeats(t, sup)
	if reply.Type != TypeFault || reply.Ordinal != 13 || reply.Fault == nil || reply.Fault.Kind != inject.FaultTimeout {
		t.Fatalf("fault reply: %+v", reply)
	}

	closeAll()
	if err := <-done; err != nil {
		t.Fatalf("Serve on clean close: %v", err)
	}
}

// A version-skewed supervisor is rejected with an error frame before
// any injection runs.
func TestServeVersionSkew(t *testing.T) {
	sup, work, closeAll := pipePair()
	defer closeAll()
	done := make(chan error, 1)
	go func() { done <- Serve(workReader(work), workWriter(work), &scriptedBackend{}, time.Minute) }()
	if err := sup.Send(&Msg{Type: TypeHello, Version: ProtocolVersion + 1, Spec: &StudySpec{}}); err != nil {
		t.Fatal(err)
	}
	reply := recvSkippingBeats(t, sup)
	if reply.Type != TypeError {
		t.Fatalf("skewed hello reply: %+v", reply)
	}
	if err := <-done; err == nil {
		t.Fatal("Serve accepted a version-skewed hello")
	}
	if b := (&scriptedBackend{}); len(b.runs) != 0 {
		t.Fatal("runs executed despite skew")
	}
}

// trackingBackend records whether Boot or Run was ever reached.
type trackingBackend struct {
	boots atomic.Int32
	runs  atomic.Int32
}

func (b *trackingBackend) Boot(spec StudySpec) (Ready, error) {
	b.boots.Add(1)
	return Ready{}, nil
}

func (b *trackingBackend) Run(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	b.runs.Add(1)
	return &inject.Result{}, nil, nil
}

// TestServeOldWorkerRejected pins the version-1 → version-2 skew that
// motivated the bump: version 2 added StudySpec.FaultModel, which a
// version-1 worker would decode without error (unknown JSON fields are
// dropped) and then enumerate the wrong — bitflip — target list for a
// model-tagged study. The worker must reject the handshake outright:
// its backend is never booted, so no target list is ever derived, let
// alone mis-decoded.
func TestServeOldWorkerRejected(t *testing.T) {
	const oldVersion = 1
	sup, work, closeAll := pipePair()
	defer closeAll()
	b := &trackingBackend{}
	done := make(chan error, 1)
	go func() { done <- Serve(workReader(work), workWriter(work), b, time.Minute) }()

	// A supervisor still speaking version 1 ships a spec without a
	// fault-model tag; the current worker must refuse it rather than
	// assume bitflip.
	if err := sup.Send(&Msg{Type: TypeHello, Version: oldVersion,
		Spec: &StudySpec{Seed: 2003, Campaigns: "A", FaultModel: "syscall"}}); err != nil {
		t.Fatal(err)
	}
	reply := recvSkippingBeats(t, sup)
	if reply.Type != TypeError {
		t.Fatalf("old-version hello reply: %+v, want error frame", reply)
	}
	if err := <-done; err == nil {
		t.Fatal("Serve accepted a version-1 hello")
	}
	if n := b.boots.Load(); n != 0 {
		t.Fatalf("backend booted %d times despite version skew", n)
	}
	if n := b.runs.Load(); n != 0 {
		t.Fatalf("backend ran %d targets despite version skew", n)
	}
}

// Heartbeats must flow while a run is in flight, proving process
// liveness to the supervisor.
func TestServeHeartbeatsDuringRun(t *testing.T) {
	sup, work, closeAll := pipePair()
	b := &scriptedBackend{runDelay: 80 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- Serve(workReader(work), workWriter(work), b, 5*time.Millisecond) }()

	if err := sup.Send(&Msg{Type: TypeHello, Version: ProtocolVersion, Spec: &StudySpec{}}); err != nil {
		t.Fatal(err)
	}
	recvSkippingBeats(t, sup) // ready
	if err := sup.Send(&Msg{Type: TypeRun, Campaign: "C", Ordinal: 1}); err != nil {
		t.Fatal(err)
	}
	beats := 0
	for {
		m, err := sup.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == TypeBeat {
			beats++
			continue
		}
		if m.Type != TypeResult {
			t.Fatalf("unexpected %q frame", m.Type)
		}
		break
	}
	if beats < 3 {
		t.Fatalf("only %d heartbeats during an 80ms run at a 5ms period", beats)
	}
	closeAll()
	<-done
}

// recvSkippingBeats reads the next non-heartbeat frame.
func recvSkippingBeats(t *testing.T, c *Conn) *Msg {
	t.Helper()
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if m.Type != TypeBeat {
			return m
		}
	}
}

// workReader/workWriter expose the raw ends of the worker-side Conn
// for Serve (which builds its own Conn internally).
func workReader(c *Conn) io.Reader { return c.br }
func workWriter(c *Conn) io.Writer { return c.w }
