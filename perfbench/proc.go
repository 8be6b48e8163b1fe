package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// parseSchedstat returns the CPU time in the first field of a
// /proc/<pid>/task/<tid>/schedstat line: nanoseconds the task ran.
func parseSchedstat(line string) (time.Duration, error) {
	f := strings.Fields(line)
	if len(f) != 3 {
		return 0, fmt.Errorf("proc schedstat: %q", line)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// hostTicks are the machine's cumulative CPU ticks from /proc/stat:
// busy counts every tick a CPU was running something, steal the ticks
// the hypervisor ran another guest while this one's CPU wanted to run,
// total every tick, idle ones included.
type hostTicks struct{ busy, steal, total int64 }

// parseProcStat reads the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, ...
func parseProcStat(stat string) (hostTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("proc stat: bad cpu line %q", line)
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("proc stat: %w", err)
		}
		v[i] = n
	}
	busy := v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
	return hostTicks{busy: busy, steal: v[7], total: busy + v[3] + v[4]}, nil
}

// readHostTicks reads /proc/stat; on a kernel without it, it reports
// zero ticks, which disables the steal correction.
func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	h, err := parseProcStat(string(b))
	if err != nil {
		return hostTicks{}
	}
	return h
}

// parseStatusHWM returns VmHWM, the peak resident set, in decimal MB
// from the contents of a /proc/<pid>/status file.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return float64(kb*1024) / 1e6, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU returns a process's CPU time at nanosecond resolution: the
// sum over its threads' schedstat. A Go daemon never ends a thread, so
// no thread's time drops out between two readings.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ESRCH) {
			continue // the thread ended after the directory was listed
		}
		if err != nil {
			return 0, err
		}
		d, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// procPeakRSS returns a process's peak resident set in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

// selfCPU returns this process's cumulative user plus system CPU time at
// microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
