package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// campaignLimit bounds one campaign; the longest workload takes ~10 s.
const campaignLimit = 120 * time.Second

// shardSize is kampaignd's shard size for every fleet campaign.
const shardSize = 16

// campaignRun is one measured campaign: a study run start to finish
// through a user-facing CLI, timed from outside.
type campaignRun struct {
	setup    time.Duration // launch (or POST) -> set-up done
	campaign time.Duration // set-up done -> last injection done
	wall     time.Duration // launch (or POST) -> ResultSet on disk
	cpu      time.Duration // user+sys of every process in the tree
	rssKiB   int64         // peak RSS of the largest process in the tree
	polls    []time.Duration
	results  string // published ResultSet
	journal  string // journal it was rebuilt from
}

// charge adds a reaped process tree's resources to the campaign. CPU
// time adds up exactly: a process's rusage includes the children it
// reaped itself. Peak RSS does not — the kernel folds a reaped child's
// peak into its parent's as a maximum, and the supervisor reaps the
// workers it kills — so the tree's peak RSS is reported as that of its
// largest process, which survives either way.
func (r *campaignRun) charge(ex []exited) {
	for _, e := range ex {
		r.cpu += e.cpu
		r.rssKiB = max(r.rssKiB, e.rssKiB)
	}
}

// campaign runs w's study once in dir. With setupOnly the executor is
// stopped as soon as its set-up is done and only r.setup is measured.
func (b *bench) campaign(w workload, seed int64, dir string, setupOnly bool) (campaignRun, error) {
	if w.exec == execFleet {
		return b.fleetCampaign(w.study, seed, dir, fleetRun{remote: true, setupOnly: setupOnly, poll: 20 * time.Millisecond})
	}
	return b.kinjectCampaign(w, seed, dir, setupOnly)
}

func (b *bench) kinjectCampaign(w workload, seed int64, dir string, setupOnly bool) (campaignRun, error) {
	r := campaignRun{
		results: filepath.Join(dir, "results.json.gz"),
		journal: filepath.Join(dir, "journal.kjnl"),
	}
	args := append(w.study.kinjectArgs(seed), "-q", "-journal", r.journal, "-out", r.results)
	if w.exec == execProcess {
		args = append(args, "-isolation=process", "-workers", strconv.Itoa(parallelWorkers))
	}
	logPath := filepath.Join(dir, "kinject.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return r, err
	}
	defer logf.Close()

	t0 := time.Now()
	p, err := start(b.kinject, args, logf)
	if err != nil {
		return r, err
	}
	if setupOnly {
		end, ok := p.out.await(kinjectSetupEnd, campaignLimit)
		p.kill()
		_, rerr := reapAll(campaignLimit, groups(p))
		<-p.out.done
		p.release()
		if !ok {
			return r, fmt.Errorf("kinject printed no set-up line: %s", tailFile(logPath))
		}
		r.setup = end.at.Sub(t0)
		return r, rerr
	}
	ex, rerr := reapAll(campaignLimit, groups(p))
	<-p.out.done
	p.release()
	if rerr != nil {
		return r, rerr
	}
	r.charge(ex)
	var exit *exited
	for i := range ex {
		if ex[i].pid == p.pid {
			exit = &ex[i]
		}
	}
	if exit == nil || !exit.status.Exited() || exit.status.ExitStatus() != 0 {
		return r, fmt.Errorf("kinject %s failed: %s", strings.Join(args, " "), tailFile(logPath))
	}
	lines := p.out.snapshot()
	setupEnd, ok1 := kinjectSetupEnd(lines)
	done, ok2 := prefixed("completed in ")(lines)
	if !ok1 || !ok2 {
		return r, fmt.Errorf("kinject output lacks its set-up or completion line")
	}
	r.setup = setupEnd.at.Sub(t0)
	r.campaign = done.at.Sub(setupEnd.at)
	r.wall = exit.at.Sub(t0)
	return r, nil
}

// fleetCampaign POSTs the study to a fresh kampaignd with one local
// pool, plus (remote) one TCP pool served by a kinject -connect worker.
func (b *bench) fleetCampaign(s study, seed int64, dir string, how fleetRun) (campaignRun, error) {
	var r campaignRun
	logPath := filepath.Join(dir, "kampaignd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return r, err
	}
	defer logf.Close()
	d, err := b.startDaemon(dir, logf, how)
	if err != nil {
		return r, fmt.Errorf("%v: %s", err, tailFile(logPath))
	}
	ex, err := d.drive(s.submission(seed, shardSize), &r, how)
	if err != nil {
		return r, fmt.Errorf("%v: %s", err, tailFile(logPath))
	}
	r.charge(ex)
	r.results = filepath.Join(dir, "data", d.id, "results.json.gz")
	r.journal = filepath.Join(dir, "data", d.id, "journal.kjnl")
	return r, nil
}

// fleetRun says how fleetCampaign drives kampaignd.
type fleetRun struct {
	remote    bool          // add a TCP pool, served by one kinject -connect worker
	setupOnly bool          // stop once the campaign leaves booting
	poll      time.Duration // status period once the campaign runs
}

// daemon is a running kampaignd and the TCP worker attached to it.
type daemon struct {
	procs  []*proc
	base   string
	client *http.Client
	id     string
}

func (b *bench) startDaemon(dir string, logf *os.File, how fleetRun) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-data", filepath.Join(dir, "data"),
		"-pools", "1", "-shard-size", strconv.Itoa(shardSize)}
	if how.remote {
		args = append(args, "-listen-workers", "127.0.0.1:0", "-remote-pools", "1")
	}
	p, err := start(b.kampaignd, args, logf)
	if err != nil {
		return nil, err
	}
	d := &daemon{procs: []*proc{p}, client: &http.Client{
		Timeout: 10 * time.Second,
		// One poller, one connection.
		Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true},
	}}
	fail := func(err error) (*daemon, error) {
		d.stop(nil)
		return nil, err
	}
	const httpPrefix, tcpPrefix = "kampaignd listening on http://", "kampaignd workers on tcp://"
	l, ok := p.out.await(prefixed(httpPrefix), 30*time.Second)
	if !ok {
		return fail(errors.New("kampaignd did not start listening"))
	}
	d.base = "http://" + strings.TrimPrefix(l.text, httpPrefix)
	// Set-up ends before the remote pool dials, so a set-up-only run
	// needs no worker.
	if !how.remote || how.setupOnly {
		return d, nil
	}
	if l, ok = p.out.await(prefixed(tcpPrefix), 30*time.Second); !ok {
		return fail(errors.New("kampaignd opened no worker hub"))
	}
	w, err := start(b.kinject, []string{"-connect", strings.TrimPrefix(l.text, tcpPrefix)}, logf)
	if err != nil {
		return fail(err)
	}
	d.procs = append(d.procs, w)
	// Let the worker join the hub first, so no campaign waits on a dial.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var hub struct{ Queued int }
		if err := d.get("/workers", &hub); err == nil && hub.Queued > 0 {
			return d, nil
		}
		if time.Now().After(deadline) {
			return fail(errors.New("the TCP worker never joined the hub"))
		}
	}
}

// drive submits one campaign and polls it to the end (or, setupOnly,
// until it leaves the booting state), filling r's timings and status
// round trips; it then stops the daemon and returns the reaped tree.
func (d *daemon) drive(body map[string]any, r *campaignRun, how fleetRun) ([]exited, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return d.stop(err)
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/campaigns", "application/json", bytes.NewReader(buf))
	if err != nil {
		return d.stop(err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return d.stop(fmt.Errorf("POST /campaigns: %s %v", resp.Status, err))
	}
	d.id = sub.ID
	// Set-up ends when the daemon leaves "booting": polled every 5 ms.
	setupAt, state, err := d.await(r, "booting", 5*time.Millisecond, t0)
	if err != nil {
		return d.stop(err)
	}
	r.setup = setupAt.Sub(t0)
	if how.setupOnly {
		return d.stop(nil)
	}
	doneAt, state, err := d.await(r, state, how.poll, t0)
	if err == nil && state != "complete" {
		err = fmt.Errorf("campaign %s ended %s", d.id, state)
	}
	if err != nil {
		return d.stop(err)
	}
	r.wall = doneAt.Sub(t0)
	r.campaign = doneAt.Sub(setupAt)
	return d.stop(nil)
}

// await polls the campaign every period while its state is from, and
// returns when the state changed and to what.
func (d *daemon) await(r *campaignRun, from string, period time.Duration, t0 time.Time) (time.Time, string, error) {
	for {
		var st struct{ State, Error string }
		sent := time.Now()
		if err := d.get("/campaigns/"+d.id, &st); err != nil {
			return time.Time{}, "", err
		}
		now := time.Now()
		r.polls = append(r.polls, now.Sub(sent))
		if st.State == "failed" {
			return now, st.State, fmt.Errorf("campaign %s failed: %s", d.id, st.Error)
		}
		if st.State != from {
			return now, st.State, nil
		}
		if now.Sub(t0) > campaignLimit {
			return now, st.State, fmt.Errorf("campaign %s still %s after %v", d.id, from, campaignLimit)
		}
		time.Sleep(period)
	}
}

func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	io.Copy(io.Discard, resp.Body) // drained, the connection is reused
	return err
}

// stop shuts the daemon and its worker down with SIGTERM, reaps the
// whole tree, and returns cause, or the reaping error when cause is nil.
func (d *daemon) stop(cause error) ([]exited, error) {
	d.client.CloseIdleConnections()
	for _, p := range d.procs {
		p.signal(syscall.SIGTERM)
	}
	ex, err := reapAll(30*time.Second, groups(d.procs...))
	for _, p := range d.procs {
		<-p.out.done
		p.release()
	}
	if cause != nil {
		return ex, cause
	}
	return ex, err
}
