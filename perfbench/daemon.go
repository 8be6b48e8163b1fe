package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cmcluster process started by this benchmark. Its log
// (stderr) is kept in memory; the listen address comes from its
// "listening on" line, so a stale daemon on a fixed port can never
// answer in its place.
type daemon struct {
	cmd    *exec.Cmd
	pid    int
	addr   string
	exited chan struct{} // closed once the process has been reaped

	mu  sync.Mutex
	log []string
}

var (
	daemonsMu sync.Mutex
	daemons   = map[*daemon]bool{}
)

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches path with args and waits until it listens.
func startDaemon(path string, args ...string) (*daemon, error) {
	cmd := exec.Command(path, args...)
	// The kernel kills the daemon if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, exited: make(chan struct{})}
	daemonsMu.Lock()
	daemons[d] = true
	daemonsMu.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		// Wait only after the pipe is drained; its error is the exit
		// status, which stop and kill judge from the log instead.
		_ = cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		d.forget()
		return nil, fmt.Errorf("cmcluster exited before listening:\n%s", d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("cmcluster did not listen within 60 s:\n%s", d.logText())
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) forget() {
	daemonsMu.Lock()
	delete(daemons, d)
	daemonsMu.Unlock()
}

// kill SIGKILLs the daemon and waits until it is reaped.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.exited
	}
	d.forget()
}

// stop sends SIGTERM and waits up to timeout for a clean exit; it
// reports whether the daemon logged "drained cleanly". A daemon that
// does not exit in time is killed.
func (d *daemon) stop(timeout time.Duration) (bool, error) {
	defer d.forget()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return false, fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.kill()
		return false, fmt.Errorf("cmcluster did not exit within %v of SIGTERM", timeout)
	}
	return strings.Contains(d.logText(), "drained cleanly"), nil
}

// killDaemons kills every daemon still running; it runs on every exit
// path of the benchmark.
func killDaemons() {
	daemonsMu.Lock()
	var all []*daemon
	for d := range daemons {
		all = append(all, d)
	}
	daemonsMu.Unlock()
	for _, d := range all {
		d.kill()
	}
}
