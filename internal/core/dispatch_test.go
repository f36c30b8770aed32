package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDispatch pins the claim-loop contract every executor relies on.
// Run it under -race: the claim bookkeeping is shared by the workers.
func TestDispatch(t *testing.T) {
	errBoom := errors.New("boom")
	// The in-flight case: index 1's call is still running when index
	// 0's call fails, and must finish before Dispatch returns.
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	// The stop-the-others case: index 0 fails once index 1 is claimed.
	claimed1 := make(chan struct{})
	tests := []struct {
		name       string
		n, workers int
		// stopAfter makes stop report true from its (stopAfter+1)th
		// poll on; 0 passes a nil stop.
		stopAfter int
		// fail returns the error do reports for index i (nil = none).
		fail func(i int) error
		// check inspects the claims (indices and workers, in order of
		// claim), the stop polls seen at each claim, and the result.
		check func(t *testing.T, claims []claim, err error)
	}{
		{
			name: "n=0", n: 0, workers: 4,
			check: func(t *testing.T, claims []claim, err error) {
				if err != nil || len(claims) != 0 {
					t.Fatalf("err=%v claims=%v, want nil and none", err, claims)
				}
			},
		},
		{
			name: "workers>n", n: 3, workers: 8,
			check: func(t *testing.T, claims []claim, err error) {
				wantEachOnce(t, claims, err, 3)
				for _, c := range claims {
					if c.w < 0 || c.w >= 3 {
						t.Fatalf("worker %d outside [0, min(workers, n))", c.w)
					}
				}
			},
		},
		{
			name: "each index once, serial", n: 50, workers: 1,
			check: func(t *testing.T, claims []claim, err error) {
				wantEachOnce(t, claims, err, 50)
				for k, c := range claims {
					if c.i != k {
						t.Fatalf("claim %d took index %d, want ascending order", k, c.i)
					}
				}
			},
		},
		{
			name: "each index once, parallel", n: 500, workers: 8,
			check: func(t *testing.T, claims []claim, err error) {
				wantEachOnce(t, claims, err, 500)
			},
		},
		{
			name: "first error returned, nothing claimed after it", n: 10, workers: 1,
			fail: func(i int) error {
				if i == 3 {
					return errBoom
				}
				return nil
			},
			check: func(t *testing.T, claims []claim, err error) {
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want %v", err, errBoom)
				}
				if len(claims) != 4 || claims[3].i != 3 {
					t.Fatalf("claims = %v, want indices 0..3 and none after the failure", claims)
				}
			},
		},
		{
			name: "every call fails: one claim per worker at most", n: 100, workers: 4,
			fail: func(i int) error { return fmt.Errorf("index %d: %w", i, errBoom) },
			check: func(t *testing.T, claims []claim, err error) {
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want a wrapped %v", err, errBoom)
				}
				if len(claims) == 0 || len(claims) > 4 {
					t.Fatalf("%d claims, want 1..4 (a worker stops at its first failure)", len(claims))
				}
				seen := false
				for _, c := range claims {
					seen = seen || err.Error() == fmt.Sprintf("index %d: %v", c.i, errBoom)
				}
				if !seen {
					t.Fatalf("returned %v, not one of the claimed calls' errors %v", err, claims)
				}
			},
		},
		{
			name: "an error stops the other workers' claims", n: 1000, workers: 2,
			fail: func(i int) error {
				if i == 0 {
					<-claimed1
					return errBoom
				}
				if i == 1 {
					close(claimed1)
				}
				// Slow enough that the failure is recorded long before
				// the other worker could claim every index.
				time.Sleep(time.Millisecond)
				return nil
			},
			check: func(t *testing.T, claims []claim, err error) {
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want %v", err, errBoom)
				}
				if len(claims) >= 100 {
					t.Fatalf("%d claims after index 0 failed, want the other worker stopped", len(claims))
				}
			},
		},
		{
			name: "in-flight call finishes after the error", n: 2, workers: 2,
			fail: func(i int) error {
				if i == 0 {
					<-started
					close(release)
					return errBoom
				}
				close(started)
				<-release
				finished.Store(true)
				return nil
			},
			check: func(t *testing.T, claims []claim, err error) {
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want %v", err, errBoom)
				}
				if !finished.Load() {
					t.Fatal("Dispatch returned before the in-flight call finished")
				}
			},
		},
		{
			name: "stop polled before each claim", n: 10, workers: 1, stopAfter: 4,
			check: func(t *testing.T, claims []claim, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if len(claims) != 4 {
					t.Fatalf("%d claims, want 4 (stop trips on the 5th poll)", len(claims))
				}
				for k, c := range claims {
					if c.polls != k+1 {
						t.Fatalf("claim %d saw %d stop polls, want %d", k, c.polls, k+1)
					}
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				claims []claim
				polls  atomic.Int32
			)
			var stop func() bool
			if tc.stopAfter > 0 {
				stop = func() bool { return int(polls.Add(1)) > tc.stopAfter }
			}
			err := Dispatch(tc.n, tc.workers, stop, func(w, i int) error {
				mu.Lock()
				claims = append(claims, claim{w: w, i: i, polls: int(polls.Load())})
				mu.Unlock()
				if tc.fail != nil {
					return tc.fail(i)
				}
				return nil
			})
			tc.check(t, claims, err)
		})
	}
}

type claim struct{ w, i, polls int }

func wantEachOnce(t *testing.T, claims []claim, err error, n int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, n)
	for _, c := range claims {
		seen[c.i]++
	}
	for i, k := range seen {
		if k != 1 {
			t.Fatalf("index %d claimed %d times, want exactly once", i, k)
		}
	}
}
