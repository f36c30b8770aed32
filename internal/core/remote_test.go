package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/inject"
	"repro/internal/obs"
)

// localRemote implements Remote on a second, independently booted
// Study — the in-process analog of a worker subprocess, exercising the
// remote dispatch path without process plumbing. RunOrdinal mutates
// the study's runner, so calls are serialized exactly as one worker
// process would serialize them.
type localRemote struct {
	mu sync.Mutex
	s  *Study
	// calls counts dispatches, proving the remote path actually ran.
	calls int
}

func (r *localRemote) Do(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	c, ok := analysis.CampaignFromKey(campaign)
	if !ok {
		return nil, nil, fmt.Errorf("unknown campaign key %q", campaign)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	res, hf, err := r.s.RunOrdinal(c, ordinal)
	if err != nil {
		return nil, nil, err
	}
	if hf != nil {
		return nil, hf, nil
	}
	return &res, nil, nil
}

// execShapes are the executor shapes a campaign must behave the same
// under: serial, in-process parallel, and the Remote path with one and
// with several dispatchers.
var execShapes = []execShape{
	{"serial", 1, false},
	{"inproc-workers=3", 3, false},
	{"remote-workers=1", 1, true},
	{"remote-workers=3", 3, true},
}

type execShape struct {
	name    string
	workers int
	remote  bool
}

// newShapeStudy builds the study cfg describes on one executor shape;
// cfg must describe resumeTestConfig's study, which is what a remote
// shape's worker side boots. exec is the study whose runner executes
// the injections (s itself, or the second study behind a localRemote)
// and is the one given metrics, so harness-fault retries are counted
// where they happen.
func newShapeStudy(t *testing.T, cfg Config, sh execShape, metrics *obs.Metrics) (s, exec *Study) {
	t.Helper()
	cfg.Workers = sh.workers
	if sh.remote {
		wcfg := resumeTestConfig()
		wcfg.Metrics = metrics
		var err error
		if exec, err = New(wcfg); err != nil {
			t.Fatal(err)
		}
		cfg.Remote = &localRemote{s: exec}
	} else {
		cfg.Metrics = metrics
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exec == nil {
		exec = s
	}
	return s, exec
}

// The remote dispatch path must produce a byte-identical result set to
// the in-process path for the same seed — serially and with parallel
// dispatchers — including quarantines flowing through the same frames.
func TestRemoteParity(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four studies")
	}
	dir := t.TempDir()
	ref, err := New(resumeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, ref, filepath.Join(dir, "ref.json.gz"))

	for _, workers := range []int{1, 3} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			backend, err := New(resumeTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			remote := &localRemote{s: backend}
			cfg := resumeTestConfig()
			cfg.Workers = workers
			cfg.Remote = remote
			sink := &countingSink{}
			cfg.Sink = sink
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunAll(); err != nil {
				t.Fatal(err)
			}
			if remote.calls == 0 {
				t.Fatal("remote path never dispatched")
			}
			got := saveBytes(t, s, filepath.Join(dir, fmt.Sprintf("remote%d.json.gz", workers)))
			if !bytes.Equal(got, want) {
				t.Fatalf("remote result set (workers=%d) differs from in-process reference", workers)
			}
			if sink.puts.Load() == 0 {
				t.Fatal("sink saw no results from the remote path")
			}
		})
	}
}
