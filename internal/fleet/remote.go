// Remote TCP worker pools. The daemon side listens on a hub
// (kampaignd -listen-workers); workers dial in over TCP (kinject
// -connect) and run the exact stdin/stdout wire protocol over the
// socket. A remote pool's supervisor treats a claimed hub connection
// like a spawned subprocess: same handshake, same golden
// cross-validation, same heartbeat deadlines, same restart budget —
// the transport is the only difference.
//
// Partition tolerance lives in three places:
//
//	attach probe  -> a claimed connection is pinged before a study is
//	                 shipped; dead, silent or version-skewed joiners
//	                 are discarded free and the claim loop keeps going
//	join wait     -> only an EMPTY join window charges the pool's
//	                 restart budget, so a pool whose remote workers
//	                 all vanished dies in bounded time and the
//	                 campaign degrades onto the surviving pools
//	reconnect     -> ConnectWorker redials with exponential backoff
//	                 and jitter, so a worker outlives daemon restarts
//	                 and transient partitions
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/supervisor"
	"repro/internal/wire"
)

// DefaultJoinWait bounds one remote dial's wait for a joinable worker
// when PoolConfig.JoinWait is zero.
const DefaultJoinWait = 30 * time.Second

// probeTimeout bounds the attach probe's wait for a pong. A var so
// partition tests can shrink it.
var probeTimeout = 5 * time.Second

// hubQueueDepth is the unclaimed-joiner buffer. A joiner arriving at a
// full queue is shed (connection closed); its reconnect loop retries.
const hubQueueDepth = 64

// Hub accepts TCP worker connections and queues them until a remote
// pool claims one. One hub serves every remote pool of a daemon.
type Hub struct {
	mu     sync.Mutex
	addr   string // stable across listener restarts
	ln     net.Listener
	closed bool

	conns chan net.Conn
	done  chan struct{}

	joins int64 // accepted connections, lifetime
	sheds int64 // joiners closed because the queue was full
}

// HubStats is the hub's live state for the status API.
type HubStats struct {
	Addr      string
	Listening bool
	Joined    int64 // connections accepted since start
	Queued    int   // joiners waiting to be claimed
	Shed      int64 `json:",omitempty"` // joiners dropped, queue full
}

// ListenHub binds the worker listener ("host:port"; ":0" picks a free
// port) and starts accepting joiners.
func ListenHub(addr string) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen workers: %w", err)
	}
	h := &Hub{
		addr:  ln.Addr().String(),
		ln:    ln,
		conns: make(chan net.Conn, hubQueueDepth),
		done:  make(chan struct{}),
	}
	go h.accept(ln)
	return h, nil
}

// Addr is the bound listen address (useful with ":0").
func (h *Hub) Addr() string { return h.addr }

func (h *Hub) accept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener stopped or hub closed
		}
		if tc, ok := c.(*net.TCPConn); ok {
			// OS keepalives reap connections whose peer vanished
			// without a FIN (power loss, hard partition) even while
			// they sit unclaimed in the queue.
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(30 * time.Second)
		}
		h.mu.Lock()
		closed := h.closed
		h.joins++
		h.mu.Unlock()
		if closed {
			c.Close()
			return
		}
		select {
		case h.conns <- c:
		default:
			h.mu.Lock()
			h.sheds++
			h.mu.Unlock()
			c.Close()
		}
	}
}

// claim pops one queued joiner, waiting up to timeout.
func (h *Hub) claim(timeout time.Duration) (net.Conn, bool) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c := <-h.conns:
		return c, true
	case <-h.done:
		return nil, false
	case <-t.C:
		return nil, false
	}
}

// StopListener closes the TCP listener without disturbing queued
// joiners or attached workers — the partition injector for tests and
// drills. RestartListener undoes it.
func (h *Hub) StopListener() {
	h.mu.Lock()
	ln := h.ln
	h.ln = nil
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// RestartListener rebinds the hub's address after StopListener.
func (h *Hub) RestartListener() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errors.New("fleet: hub closed")
	}
	if h.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", h.addr)
	if err != nil {
		return fmt.Errorf("fleet: restart worker listener: %w", err)
	}
	h.ln = ln
	go h.accept(ln)
	return nil
}

// Close stops the listener and closes every queued joiner.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ln := h.ln
	h.ln = nil
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	close(h.done)
	for {
		select {
		case c := <-h.conns:
			c.Close()
		default:
			return
		}
	}
}

// Stats snapshots the hub for the status API.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{
		Addr:      h.addr,
		Listening: h.ln != nil,
		Joined:    h.joins,
		Queued:    len(h.conns),
		Shed:      h.sheds,
	}
}

// dialFunc builds the supervisor Dial hook for one remote pool: claim
// a joiner, probe it, hand it over as a Link. Probe failures are free
// — the joiner may have died in the queue or speak an old protocol —
// and the loop keeps claiming until JoinWait empties. Only the empty
// window returns an error, which the supervisor charges to the pool's
// restart budget; that bounds how long a fully-partitioned remote
// pool lingers before the campaign degrades onto the survivors.
func (h *Hub) dialFunc(pc PoolConfig, metrics *obs.Metrics) func() (supervisor.Link, error) {
	wait := pc.JoinWait
	if wait <= 0 {
		wait = DefaultJoinWait
	}
	return func() (supervisor.Link, error) {
		deadline := time.Now().Add(wait)
		for {
			remain := time.Until(deadline)
			if remain <= 0 {
				break
			}
			c, ok := h.claim(remain)
			if !ok {
				break
			}
			conn := wire.NewConn(c, c)
			if err := probeWorker(conn); err != nil {
				c.Close()
				metrics.RemoteProbeFails.Add(1)
				continue
			}
			metrics.RemoteAttaches.Add(1)
			return &tcpLink{c: c, conn: conn}, nil
		}
		metrics.RemoteDialTimeouts.Add(1)
		return nil, fmt.Errorf("fleet: no remote worker joined pool %q within %s", pc.Name, wait)
	}
}

// probeWorker vets a claimed connection before a study is shipped:
// ping, await pong under a deadline, reject version skew. A v2 worker
// answers the unexpected ping with an error frame, so skew is caught
// here instead of mid-handshake.
func probeWorker(conn *wire.Conn) error {
	if err := conn.Send(&wire.Msg{Type: wire.TypePing, Version: wire.ProtocolVersion}); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	if err := conn.SetRecvDeadline(time.Now().Add(probeTimeout)); err != nil {
		return fmt.Errorf("arm probe deadline: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("await pong: %w", err)
	}
	if err := conn.SetRecvDeadline(time.Time{}); err != nil {
		return fmt.Errorf("clear probe deadline: %w", err)
	}
	if m.Type != wire.TypePong {
		return fmt.Errorf("probe answered with %q, want pong: %s", m.Type, m.Text)
	}
	if m.Version != wire.ProtocolVersion {
		return fmt.Errorf("protocol skew: worker speaks v%d, manager v%d", m.Version, wire.ProtocolVersion)
	}
	return nil
}

// tcpLink adapts a claimed hub connection to supervisor.Link. Kill
// closes the socket, which unblocks a Recv parked on it and makes the
// worker's Serve loop see EOF — a clean session end, so the worker's
// reconnect loop redials immediately.
type tcpLink struct {
	c    net.Conn
	conn *wire.Conn
}

func (l *tcpLink) Conn() *wire.Conn { return l.conn }

func (l *tcpLink) Kill() { l.c.Close() }

// newBackend builds the worker backend for one remote session (test
// seam — unit tests substitute a scripted backend).
var newBackend = func() wire.Backend { return &Backend{} }

// ConnectOptions tunes ConnectWorker's dial-and-reconnect loop.
type ConnectOptions struct {
	// DialTimeout bounds one TCP dial attempt (default 10s).
	DialTimeout time.Duration
	// MaxBackoff caps the reconnect backoff (default 30s).
	MaxBackoff time.Duration
	// Logf, when set, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

// ConnectWorker is the remote worker's life (kinject -connect): dial
// the hub, serve the wire protocol over the socket, and when the
// session ends — daemon restart, partition, supervisor kill — redial
// with exponential backoff plus jitter. A session that ends cleanly
// (peer EOF) resets the backoff, so a worker cycled by the supervisor
// rejoins immediately while a hub that is truly gone is probed ever
// more slowly. Returns only when ctx is cancelled.
func ConnectWorker(ctx context.Context, addr string, opts ConnectOptions) error {
	dialTO := opts.DialTimeout
	if dialTO <= 0 {
		dialTO = 10 * time.Second
	}
	maxBO := opts.MaxBackoff
	if maxBO <= 0 {
		maxBO = 30 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := time.Second
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := net.DialTimeout("tcp", addr, dialTO)
		if err != nil {
			logf("dial %s: %v", addr, err)
		} else {
			logf("connected to %s", addr)
			// ctx cancellation must unblock a Recv parked on the
			// socket; closing the connection does.
			stop := make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					c.Close()
				case <-stop:
				}
			}()
			serr := wire.Serve(c, c, newBackend(), WorkerBeatEvery)
			close(stop)
			c.Close()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if serr == nil {
				logf("session ended cleanly, rejoining")
				backoff = time.Second
				continue
			}
			logf("session ended: %v", serr)
		}
		// Exponential backoff with jitter in [backoff, 1.5*backoff):
		// a worker herd cut off by one partition must not redial in
		// lockstep when it heals.
		d := backoff + time.Duration(rng.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		backoff *= 2
		if backoff > maxBO {
			backoff = maxBO
		}
	}
}
