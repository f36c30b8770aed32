package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// prSetChildSubreaper is PR_SET_CHILD_SUBREAPER from <linux/prctl.h>.
const prSetChildSubreaper = 36

// becomeSubreaper makes every orphaned descendant of kbench a child of
// kbench instead of init, so reapAll can wait for worker processes that
// outlive their parent and charge their CPU time and peak RSS to the
// tree that started them.
func becomeSubreaper() error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); e != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", e)
	}
	return nil
}

// exited is one reaped process and its own resource usage.
type exited struct {
	pid    int
	at     time.Time
	status syscall.WaitStatus
	cpu    time.Duration // user + system
	rssKiB int64         // peak resident set
}

// reapAll waits for every child of this process — the processes kbench
// started and every orphaned descendant the subreaper bit hands over —
// until none is left. If any is still alive after limit, the process
// groups in groups are SIGKILLed and the returned error says so: each
// CLI kbench starts leads its own group, and its workers stay in that
// group when they are orphaned. Callers must not have an exec.Cmd of
// their own waiting concurrently: wait4(-1) reaps whichever child exits.
func reapAll(limit time.Duration, groups []int) ([]exited, error) {
	var killed atomic.Bool
	timer := time.AfterFunc(limit, func() {
		killed.Store(true)
		for _, g := range groups {
			syscall.Kill(-g, syscall.SIGKILL)
		}
	})
	var out []exited
	var err error
	for {
		var ws syscall.WaitStatus
		var ru syscall.Rusage
		pid, werr := syscall.Wait4(-1, &ws, 0, &ru)
		if errors.Is(werr, syscall.EINTR) {
			continue
		}
		if errors.Is(werr, syscall.ECHILD) {
			break
		}
		if werr != nil {
			err = fmt.Errorf("wait4: %w", werr)
			break
		}
		out = append(out, exited{pid: pid, at: time.Now(), status: ws,
			cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), rssKiB: ru.Maxrss})
	}
	timer.Stop()
	if killed.Load() && err == nil {
		err = fmt.Errorf("process tree still running after %v: killed", limit)
	}
	return out, err
}

// proc is one launched CLI process and its timestamped standard output.
type proc struct {
	cmd *exec.Cmd
	pid int // also its process group
	out *outLog
}

// start launches bin in a process group of its own, with its standard
// output captured line by line (each line stamped on arrival) and its
// standard error sent to errf. The caller reaps it with reapAll.
func start(bin string, args []string, errf *os.File) (*proc, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, errf
	// Its own group lets reapAll kill the CLI with its workers; outside
	// kbench's group, it would survive kbench being killed, so the kernel
	// kills it when kbench dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	o := &outLog{done: make(chan struct{})}
	go o.read(pr)
	return &proc{cmd: cmd, pid: cmd.Process.Pid, out: o}, nil
}

// signal delivers sig unless the process is already gone.
func (p *proc) signal(sig os.Signal) { p.cmd.Process.Signal(sig) }

// kill SIGKILLs the process and every worker in its group.
func (p *proc) kill() { syscall.Kill(-p.pid, syscall.SIGKILL) }

// groups lists the process groups of ps, for reapAll.
func groups(ps ...*proc) []int {
	gs := make([]int, len(ps))
	for i, p := range ps {
		gs[i] = p.pid
	}
	return gs
}

// release frees the process handle once reapAll has reaped it.
func (p *proc) release() { p.cmd.Process.Release() }

type outLine struct {
	at   time.Time
	text string
}

// outLog collects a process's standard output until EOF.
type outLog struct {
	mu    sync.Mutex
	lines []outLine
	done  chan struct{} // closed at EOF
}

func (o *outLog) read(r *os.File) {
	defer close(o.done)
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		l := outLine{at: time.Now(), text: sc.Text()}
		o.mu.Lock()
		o.lines = append(o.lines, l)
		o.mu.Unlock()
	}
	// Keep draining after an over-long line so the writer never blocks.
	io.Copy(io.Discard, r)
}

func (o *outLog) snapshot() []outLine {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]outLine(nil), o.lines...)
}

// await polls until find reports a line, the stream ends, or limit
// passes. Lines carry their arrival time, so the polling period does
// not affect the timestamps.
func (o *outLog) await(find func([]outLine) (outLine, bool), limit time.Duration) (outLine, bool) {
	deadline := time.Now().Add(limit)
	for {
		if l, ok := find(o.snapshot()); ok {
			return l, true
		}
		select {
		case <-o.done:
			return find(o.snapshot())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return outLine{}, false
		}
	}
}

// prefixed finds the first line starting with p.
func prefixed(p string) func([]outLine) (outLine, bool) {
	return func(ls []outLine) (outLine, bool) {
		for _, l := range ls {
			if strings.HasPrefix(l.text, p) {
				return l, true
			}
		}
		return outLine{}, false
	}
}

// kinjectSetupEnd finds the end of kinject's set-up: the blank line that
// follows its "campaign X: N target functions" lines, printed once the
// study is profiled, the golden run is done and the targets are known.
func kinjectSetupEnd(ls []outLine) (outLine, bool) {
	seen := false
	for _, l := range ls {
		switch {
		case strings.HasSuffix(l.text, " target functions"):
			seen = true
		case seen && l.text == "":
			return l, true
		}
	}
	return outLine{}, false
}

// tailFile returns the last few lines of a log file, for error messages.
func tailFile(path string) string {
	b, _ := os.ReadFile(path)
	ls := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(ls) > 5 {
		ls = ls[len(ls)-5:]
	}
	return strings.Join(ls, " | ")
}
