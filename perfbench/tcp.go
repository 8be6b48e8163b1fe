package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftcms/internal/diskmodel"
	"ftcms/internal/integrity"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// tcp-play runs the real cmcluster daemon and talks to it only through
// its protocol.
const (
	tcpClips    = 8
	tcpClipKB   = 4096
	tcpClipSize = tcpClipKB * 1000
	tcpSpeed    = 1000
	// tcpSetups is how many daemons a run launches; setup_s is the median
	// launch-to-LIST time and the last daemon serves the run.
	tcpSetups = 9
	tcpZipf   = 1.1
	// tcpSlice is the slice length of the rate metrics.
	tcpSlice = time.Second
)

// daemonArgs: 3 nodes, replication 2, paced at the 1 ms round floor, and
// no patrol scrub (engine-degraded measures the scrub).
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-nodes", "3", "-rep", "2",
	"-clips", strconv.Itoa(tcpClips), "-clipkb", strconv.Itoa(tcpClipKB),
	"-speed", strconv.Itoa(tcpSpeed), "-scrub", "0"}

// roundInterval mirrors the daemon's pacer: the disk model's round for
// a 64 KB block, divided by -speed, floored at 1 ms.
func roundInterval() time.Duration {
	rd := diskmodel.Default().RoundDuration(64 * units.KB)
	iv := time.Duration(rd.Seconds() / tcpSpeed * float64(time.Second))
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// tcpWindow accumulates one timed window of client sessions.
type tcpWindow struct {
	wall, cpu        time.Duration
	slices           slicer
	bytes            int64
	sessions, failed int
	blocks, late     int
	ttfb, dial, gaps sample // ns
}

func (w *tcpWindow) add(o *tcpWindow) {
	w.bytes += o.bytes
	w.sessions += o.sessions
	w.failed += o.failed
	w.blocks += o.blocks
	w.late += o.late
	w.ttfb = append(w.ttfb, o.ttfb...)
	w.dial = append(w.dial, o.dial...)
	w.gaps = append(w.gaps, o.gaps...)
}

// tcpClient is one closed-loop connection: it PLAYs a Zipf-chosen clip,
// reads to EOF verifying every byte, and repeats at once.
type tcpClient struct {
	id         int
	addr       string
	clips      [][]byte
	rng        *rand.Rand
	zipf       *workload.ZipfSelector
	tr         *tracer
	buf        []byte
	interval   time.Duration
	nextSID    int32
	violations []string
	// delivered counts verified bytes across every client, for the
	// window's slices.
	delivered *atomic.Int64
}

func (c *tcpClient) session(w *tcpWindow) {
	sid := c.nextSID
	c.nextSID++
	clip := c.zipf.Pick(c.rng)
	if err := c.play(w, sid, clip); err != nil {
		w.failed++
		c.violations = append(c.violations, fmt.Sprintf("connection %d session %d (%s): %v", c.id, sid, clipName(clip), err))
	}
}

func (c *tcpClient) play(w *tcpWindow, sid int32, clip int) error {
	data := c.clips[clip]
	t0 := time.Now()
	ss := c.tr.begin("session", -1, sid, t0)
	defer func() { c.tr.end(ss, time.Now()) }()
	w.sessions++
	conn, err := net.Dial("tcp", c.addr)
	t1 := time.Now()
	c.tr.record("dial", ss, sid, t0, t1)
	if err != nil {
		return err
	}
	defer conn.Close()
	w.dial = append(w.dial, float64(t1.Sub(t0)))
	if _, err := fmt.Fprintf(conn, "PLAY %s\n", clipName(clip)); err != nil {
		return err
	}
	t2 := time.Now()
	c.tr.record("play", ss, sid, t1, t2)

	bc := newBlockClock(blockSize)
	var off int64
	var last time.Time
	for {
		var r0 time.Time
		if c.tr.on {
			r0 = time.Now()
		}
		n, err := conn.Read(c.buf)
		at := time.Now()
		c.tr.record("read", ss, sid, r0, at)
		if n > 0 {
			if off == 0 {
				w.ttfb = append(w.ttfb, float64(at.Sub(t1)))
			} else {
				w.gaps = append(w.gaps, float64(at.Sub(last)))
			}
			last = at
			got := c.buf[:n]
			if off+int64(n) > int64(len(data)) || !bytes.Equal(got, data[off:off+int64(n)]) {
				if i := bytes.Index(got, []byte("ERR ")); i >= 0 {
					return fmt.Errorf("daemon: %s", strings.TrimSpace(string(got[i:])))
				}
				return fmt.Errorf("byte mismatch in [%d, %d)", off, off+int64(n))
			}
			c.tr.record("verify", ss, sid, at, time.Now())
			c.delivered.Add(int64(n))
			off += int64(n)
			bc.observe(n, at)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	if off != int64(len(data)) {
		return fmt.Errorf("EOF after %d of %d bytes", off, len(data))
	}
	bc.finish(last)
	w.blocks += len(bc.done)
	w.late += lateBlocks(bc.done, c.interval)
	w.bytes += off
	return nil
}

// runTCPWindow runs every client in a closed loop for d; a session in
// flight at the deadline runs to EOF. This goroutine cuts the window
// into tcpSlice slices of verified bytes and the daemon's own CPU.
func runTCPWindow(clients []*tcpClient, d time.Duration, pid int) (*tcpWindow, error) {
	var delivered atomic.Int64
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	w := &tcpWindow{}
	w.slices.start(readHostTicks())
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*tcpWindow, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		c.delivered = &delivered
		parts[i] = &tcpWindow{}
		wg.Add(1)
		go func(c *tcpClient, w *tcpWindow) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.session(w)
			}
		}(c, parts[i])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(tcpSlice)
	defer tick.Stop()
	last := start
	for sampling := true; sampling; {
		select {
		case now := <-tick.C:
			if now.After(deadline) {
				continue // sessions are finishing; no new slice
			}
			cpu, err := procCPU(pid)
			if err != nil {
				<-done
				return nil, err
			}
			w.slices.cut(delivered.Load(), cpu-cpu0, now.Sub(last), readHostTicks())
			last = now
		case <-done:
			sampling = false
		}
	}
	w.wall = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	for _, p := range parts {
		w.add(p)
	}
	return w, nil
}

// request sends one command line and returns the whole reply.
func request(addr, line string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return "", err
	}
	b, err := io.ReadAll(conn)
	return string(b), err
}

// checkList verifies the LIST reply names every clip with its size.
func checkList(reply string) error {
	lines := strings.Split(strings.TrimSpace(reply), "\n")
	if len(lines) != tcpClips {
		return fmt.Errorf("LIST: %d lines, want %d: %q", len(lines), tcpClips, reply)
	}
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) < 2 || f[0] != clipName(i) || f[1] != strconv.Itoa(tcpClipSize) {
			return fmt.Errorf("LIST line %d: %q", i, l)
		}
	}
	return nil
}

var (
	tickHistRE = regexp.MustCompile(`tick_hist=\[([^\]]*)\]`)
	hiccupsRE  = regexp.MustCompile(`(?m)^node=(\d+) .*\bhiccups=(\d+)\b`)
)

// histP50 returns the median bucket of a cliutil histogram body
// ("200:480 500:32": value:count pairs in ascending value).
func histP50(body string) (float64, error) {
	type bucket struct{ v, n int64 }
	var bs []bucket
	var total int64
	for _, f := range strings.Fields(body) {
		v, n, ok := strings.Cut(f, ":")
		if !ok {
			return 0, fmt.Errorf("histogram entry %q", f)
		}
		vi, err1 := strconv.ParseInt(v, 10, 64)
		ni, err2 := strconv.ParseInt(n, 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("histogram entry %q", f)
		}
		bs = append(bs, bucket{vi, ni})
		total += ni
	}
	var seen int64
	for _, b := range bs {
		seen += b.n
		if 2*seen >= total {
			return float64(b.v), nil
		}
	}
	return 0, fmt.Errorf("empty histogram")
}

func runTCP(ctx *runCtx) (*report, error) {
	if ctx.daemon == "" {
		return nil, fmt.Errorf("tcp-play needs --daemon, the cmcluster binary")
	}
	rep := newReport()
	clips := genClips(tcpClips, tcpClipSize)

	// Set-up: launch-to-LIST, tcpSetups times; the last daemon stays.
	var setups sample
	var d *daemon
	for i := 0; i < tcpSetups; i++ {
		if d != nil {
			d.kill()
		}
		var reply string
		t, err := timeCPUBound(func() (err error) {
			if d, err = startDaemon(ctx.daemon, daemonArgs...); err != nil {
				return err
			}
			if reply, err = request(d.addr, "LIST"); err != nil {
				return fmt.Errorf("LIST: %w", err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(t))
		if err := checkList(reply); err != nil {
			return nil, err
		}
	}
	rep.e2e["setup_s"] = setups.median() / float64(time.Second)
	rep.layer["storage.load_ms_per_MB"] = setups.median() / float64(time.Millisecond) / megabytes(tcpClips*tcpClipSize)

	zipf, err := workload.NewZipfSelector(tcpClips, tcpZipf)
	if err != nil {
		return nil, err
	}
	interval := roundInterval()
	epoch := time.Now()
	conns := min(2, runtime.NumCPU())
	var clients []*tcpClient
	for i := 0; i < conns; i++ {
		clients = append(clients, &tcpClient{
			id: i, addr: d.addr, clips: clips, zipf: zipf, interval: interval,
			rng: rand.New(rand.NewSource(ctx.seed*1000 + int64(i))),
			tr:  newTracer(epoch), buf: make([]byte, 64<<10), nextSID: int32(i) << 24,
		})
	}

	a, b, err := timedWindows(ctx, func(dur time.Duration, traced bool) (*tcpWindow, error) {
		for _, c := range clients {
			c.tr.on = traced
		}
		return runTCPWindow(clients, dur, d.pid)
	})
	if err != nil {
		return nil, err
	}
	if rep.e2e["peak_rss_MB"], err = procPeakRSS(d.pid); err != nil {
		return nil, err
	}

	// One STATS, after the timed window, so a third connection never
	// competes with the clients.
	stats, err := request(d.addr, "STATS")
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	drained, err := d.stop(30 * time.Second)
	if err != nil {
		return nil, err
	}
	if !drained {
		rep.violations = append(rep.violations, "cmcluster did not log \"drained cleanly\" after SIGTERM")
	}
	for _, c := range clients {
		rep.violations = append(rep.violations, c.violations...)
	}
	nodes := hiccupsRE.FindAllStringSubmatch(stats, -1)
	if len(nodes) != 3 {
		return nil, fmt.Errorf("STATS: %d node lines, want 3: %q", len(nodes), stats)
	}
	var hic float64
	for _, m := range nodes {
		if m[2] != "0" {
			rep.violations = append(rep.violations, fmt.Sprintf("node %s: hiccups=%s, want 0", m[1], m[2]))
		}
		h, _ := strconv.ParseFloat(m[2], 64) // the pattern matched digits
		hic += h
	}
	rep.layer["core.hiccups"] = hic

	ttfb := a.ttfb.sorted()
	rep.e2e["goodput_MBps"] = a.slices.goodput(true) // paced by the daemon's round clock
	rep.e2e["ttfb_p50_ms"] = quantile(ttfb, 0.5) / 1e6
	rep.e2e["ttfb_p99_ms"] = quantile(ttfb, 0.99) / 1e6
	rep.e2e["late_block_pct"] = pct(float64(a.late), float64(a.blocks))
	rep.e2e["cpu_ms_per_MB"] = a.slices.cpuPerMB()
	rep.e2e["failed_pct"] = pct(float64(a.failed), float64(a.sessions))
	rep.attempted, rep.failed = a.sessions, a.failed
	rep.notes = append(rep.notes, tailNote("ttfb", ttfb, 1e6, "ms"), "rate slices: "+a.slices.note(),
		fmt.Sprintf("timed window: %d sessions on %d connections in %.2f s (%d slices), round interval %v, daemon CPU %.2f s, window goodput %.2f MB/s",
			a.sessions, conns, a.wall.Seconds(), len(a.slices.slices), interval, a.cpu.Seconds(), megabytes(a.bytes)/a.wall.Seconds()))

	if b != nil {
		L := rep.layer
		L["frontend.dial_ms_p50"] = b.dial.median() / 1e6
		L["frontend.first_byte_rounds_p50"] = b.ttfb.median() / float64(interval)
		L["frontend.read_gap_ms_p99"] = b.gaps.q(0.99) / 1e6
		m := tickHistRE.FindStringSubmatch(stats)
		if m == nil {
			return nil, fmt.Errorf("STATS: no tick_hist: %q", stats)
		}
		if L["frontend.tick_us_p50"], err = histP50(m[1]); err != nil {
			return nil, fmt.Errorf("STATS tick_hist: %w", err)
		}
		L["integrity.crc_us_per_block"] = microBench(func(blk []byte) { integrity.Sum(blk) })
		L["trace.overhead_goodput_MBps"] = b.slices.goodput(true) - a.slices.goodput(true)
		tr := newTracer(epoch)
		for _, c := range clients {
			tr.merge(c.tr)
		}
		lt, err := tr.summarize()
		if err != nil {
			return nil, err
		}
		L["trace.spans"] = float64(len(tr.spans))
		rep.spans = tr
		rep.notes = append(rep.notes, selfTable(lt)...)
	}
	return rep, nil
}
