package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/units"
)

// testServer builds the demo server with a fast disk model, stores clips,
// starts the round pacer and a TCP listener, and returns the address, the
// stored clip contents, and the server/listener handles (for shutdown
// tests).
func testServer(t *testing.T) (addr string, clips map[string][]byte, s *server, ln net.Listener) {
	t.Helper()
	return testServerSpares(t, 0)
}

// testServerSpares is testServer with a hot-spare budget.
func testServerSpares(t *testing.T, spares int) (addr string, clips map[string][]byte, s *server, ln net.Listener) {
	t.Helper()
	s, clips = newTestServer(t, spares)
	s.rounds.Start(s.tick)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.acceptLoop(ln)
	t.Cleanup(func() {
		s.beginShutdown(ln)
		s.rounds.Stop()
	})
	return ln.Addr().String(), clips, s, ln
}

// newTestServer builds the demo server with a fast disk model and
// stored clips, its round clock not started, so a test can start it or
// step s.tick by hand. Cleanup stops the clock, which wakes any handler
// still waiting on a round.
func newTestServer(t testing.TB, spares int) (*server, map[string][]byte) {
	t.Helper()
	cs, err := core.New(core.Config{
		Scheme: core.Declustered,
		Disk: diskmodel.Parameters{
			TransferRate: 45 * units.Mbps,
			Settle:       0.05 * units.Millisecond,
			Seek:         0.1 * units.Millisecond,
			Rotation:     0.1 * units.Millisecond,
			Capacity:     2 * units.GB,
			PlaybackRate: 1.5 * units.Mbps,
		},
		D: 7, P: 3, Block: 8 * units.KB, Q: 8, F: 2, Buffer: 16 * units.MB,
		Spares:    spares,
		ScrubRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	clips := map[string][]byte{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("clip-%d", i)
		data := make([]byte, 50_000)
		rng.Read(data)
		clips[name] = data
		if err := cs.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(cs, time.Millisecond, 10*time.Second)
	t.Cleanup(s.rounds.Stop)
	return s, clips
}

func send(t *testing.T, addr, cmd string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	buf := make([]byte, 64<<10)
	for {
		n, err := conn.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			return out.Bytes()
		}
	}
}

func TestHandleList(t *testing.T) {
	addr, _, _, _ := testServer(t)
	out := string(send(t, addr, "LIST"))
	if !strings.Contains(out, "clip-0 50000") || !strings.Contains(out, "clip-1 50000") {
		t.Fatalf("LIST output:\n%s", out)
	}
}

func TestHandleStats(t *testing.T) {
	addr, _, _, _ := testServer(t)
	out := string(send(t, addr, "STATS"))
	if !strings.Contains(out, "rounds=") || !strings.Contains(out, "failed=[]") {
		t.Fatalf("STATS output: %s", out)
	}
	// Hot-spare pool, online-rebuild progress and the integrity
	// subsystem are always reported, idle values included.
	for _, field := range []string{
		"spares=0", "rebuilding=-1", "rebuild_pending=0", "rebuild_total=0", "rebuilds_done=0",
		"scrub_scanned=", "scrub_total=", "scrub_cycles=", "corruptions=0", "corruption_repairs=0",
		"detect_hist=[]", "rebuild_hist=[]", "slipped=", "tick_hist=[",
	} {
		if !strings.Contains(out, field) {
			t.Fatalf("STATS missing %q: %s", field, out)
		}
	}
}

// TestCorruptIsDetectedAndRepaired: CORRUPT flips bits of a written
// block without any device error; the patrol scrub catches the checksum
// mismatch, repairs the block from parity, and playback stays
// byte-exact.
func TestCorruptIsDetectedAndRepaired(t *testing.T) {
	addr, clips, _, _ := testServer(t)
	if out := string(send(t, addr, "CORRUPT 2")); !strings.Contains(out, "OK disk 2 corrupted") {
		t.Fatalf("CORRUPT output: %s", out)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := string(send(t, addr, "STATS"))
		if strings.Contains(out, "corruptions=1") && strings.Contains(out, "corruption_repairs=1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub never repaired the corruption; last STATS: %s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, want := range clips {
		if got := send(t, addr, "PLAY "+name); !bytes.Equal(got, want) {
			t.Fatalf("PLAY %s after corruption: %d bytes, want %d (exact)", name, len(got), len(want))
		}
	}
}

// TestStatsReportsRebuildProgress: with a hot spare configured, STATS
// tracks the online rebuild through to completion after a detected disk
// failure.
func TestStatsReportsRebuildProgress(t *testing.T) {
	addr, clips, _, _ := testServerSpares(t, 1)
	if out := string(send(t, addr, "STATS")); !strings.Contains(out, "spares=1") {
		t.Fatalf("STATS before failure: %s", out)
	}
	if out := string(send(t, addr, "FAIL 3")); !strings.Contains(out, "OK disk 3 failed") {
		t.Fatalf("FAIL output: %s", out)
	}
	// Stream through the failure so detection fires and the rebuild
	// starts on the spare.
	got := send(t, addr, "PLAY clip-1")
	if !bytes.Equal(got, clips["clip-1"]) {
		t.Fatalf("degraded PLAY returned %d bytes, want %d", len(got), len(clips["clip-1"]))
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := string(send(t, addr, "STATS"))
		if strings.Contains(out, "spares=0") && strings.Contains(out, "rebuilds_done=1") &&
			strings.Contains(out, "rebuild_pending=0") && strings.Contains(out, "failed=[]") {
			// The completed detect→declare and fail→rejoin cycles must
			// each have produced exactly one histogram sample.
			if strings.Contains(out, "detect_hist=[]") || strings.Contains(out, "rebuild_hist=[]") {
				t.Fatalf("latency histograms empty after a completed rebuild: %s", out)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never completed; last STATS: %s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandlePlayByteExact(t *testing.T) {
	addr, clips, _, _ := testServer(t)
	got := send(t, addr, "PLAY clip-0")
	if !bytes.Equal(got, clips["clip-0"]) {
		t.Fatalf("PLAY returned %d bytes, want %d (exact)", len(got), len(clips["clip-0"]))
	}
}

func TestHandlePlayThroughFailure(t *testing.T) {
	addr, clips, _, _ := testServer(t)
	if out := string(send(t, addr, "FAIL 3")); !strings.Contains(out, "OK disk 3 failed") {
		t.Fatalf("FAIL output: %s", out)
	}
	got := send(t, addr, "PLAY clip-1")
	if !bytes.Equal(got, clips["clip-1"]) {
		t.Fatalf("degraded PLAY returned %d bytes, want %d", len(got), len(clips["clip-1"]))
	}
	if out := string(send(t, addr, "STATS")); !strings.Contains(out, "failed=[3]") {
		t.Fatalf("STATS after FAIL: %s", out)
	}
}

func TestHandleErrors(t *testing.T) {
	addr, _, _, _ := testServer(t)
	for cmd, want := range map[string]string{
		"PLAY":       "ERR usage",
		"PLAY nope":  "ERR",
		"FAIL":       "ERR usage",
		"FAIL 99":    "ERR",
		"CORRUPT":    "ERR usage",
		"CORRUPT x":  "ERR usage",
		"CORRUPT 99": "ERR",
		"BOGUS":      "ERR unknown command",
		"   ":        "ERR empty command",
	} {
		if out := string(send(t, addr, cmd)); !strings.Contains(out, want) {
			t.Errorf("%q -> %q, want %q", cmd, strings.TrimSpace(out), want)
		}
	}
}

// TestHandleConcurrentPlays: several clients stream simultaneously, all
// byte-exact — exercises the server mutex.
func TestHandleConcurrentPlays(t *testing.T) {
	addr, clips, _, _ := testServer(t)
	type result struct {
		name string
		data []byte
	}
	ch := make(chan result, 6)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("clip-%d", i%2)
		go func(name string) {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				ch <- result{name, nil}
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			fmt.Fprintf(conn, "PLAY %s\n", name)
			var out bytes.Buffer
			buf := make([]byte, 64<<10)
			for {
				n, err := conn.Read(buf)
				out.Write(buf[:n])
				if err != nil {
					break
				}
			}
			ch <- result{name, out.Bytes()}
		}(name)
	}
	for i := 0; i < 6; i++ {
		r := <-ch
		if !bytes.Equal(r.data, clips[r.name]) {
			t.Fatalf("concurrent PLAY %s returned %d bytes, want %d", r.name, len(r.data), len(clips[r.name]))
		}
	}
}

// TestFailIsDetectedNotCommanded: FAIL schedules an injected fault; the
// disk shows up as failed only because the health detector declared it
// from the stream's own read errors, and STATS reports degraded mode.
func TestFailIsDetectedNotCommanded(t *testing.T) {
	addr, clips, s, _ := testServer(t)
	if out := string(send(t, addr, "FAIL 3")); !strings.Contains(out, "OK disk 3 failed") {
		t.Fatalf("FAIL output: %s", out)
	}
	// The injector is armed but nothing has read disk 3 yet: not failed.
	s.mu.Lock()
	preFailed := len(s.srv.Stats().FailedDisks)
	s.mu.Unlock()
	if preFailed != 0 {
		t.Fatalf("disk failed before any read — FAIL bypassed the detector")
	}
	got := send(t, addr, "PLAY clip-1")
	if !bytes.Equal(got, clips["clip-1"]) {
		t.Fatalf("PLAY through detection returned %d bytes, want %d", len(got), len(clips["clip-1"]))
	}
	out := string(send(t, addr, "STATS"))
	if !strings.Contains(out, "failed=[3]") || !strings.Contains(out, "mode=degraded") {
		t.Fatalf("STATS after detection: %s", out)
	}
}

// TestGracefulShutdown: beginning shutdown stops new work but lets the
// in-flight stream finish byte-exact, and the drain completes.
func TestGracefulShutdown(t *testing.T) {
	addr, clips, s, ln := testServer(t)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, "PLAY clip-0\n")
	// Wait for first bytes so the stream is unambiguously in flight.
	buf := make([]byte, 64<<10)
	var out bytes.Buffer
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no bytes before shutdown: %v", err)
	}
	out.Write(buf[:n])

	s.beginShutdown(ln)

	// New connections are refused once the listener is closed.
	if c2, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		fmt.Fprintf(c2, "PLAY clip-1\n")
		reply := make([]byte, 256)
		m, _ := c2.Read(reply)
		if !strings.Contains(string(reply[:m]), "ERR shutting down") {
			t.Errorf("PLAY during drain got %q, want refusal", string(reply[:m]))
		}
		c2.Close()
	}

	// The in-flight stream drains to completion, byte-exact.
	for {
		n, err := conn.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !bytes.Equal(out.Bytes(), clips["clip-0"]) {
		t.Fatalf("drained stream delivered %d bytes, want %d exact", out.Len(), len(clips["clip-0"]))
	}
	if !s.drain(10 * time.Second) {
		t.Fatal("drain did not complete")
	}
}

// pipeCommand serves one command line to s.handle over a net.Pipe and
// returns the client end plus a channel closed when the handler returns.
func pipeCommand(t testing.TB, s *server, line string) (net.Conn, <-chan struct{}) {
	t.Helper()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(srv)
	}()
	t.Cleanup(func() { cli.Close() })
	// The write may not complete: a handler reads only the first line.
	go fmt.Fprintf(cli, "%s\n", line)
	return cli, done
}

// eventually polls cond under the server mutex until it holds.
func eventually(t *testing.T, s *server, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// fillAdmission opens streams of clip directly until admission refuses
// one, and returns them.
func fillAdmission(t *testing.T, s *server, clip string) []*core.Stream {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var held []*core.Stream
	for {
		st, err := s.srv.OpenStream(clip)
		if errors.Is(err, core.ErrAdmission) {
			return held
		}
		if err != nil {
			t.Fatal(err)
		}
		if held = append(held, st); len(held) > 10_000 {
			t.Fatal("admission never refused a stream")
		}
	}
}

// TestPlayWakesOnRound: with the clock stepped by hand, a PLAY handler
// parks on the round clock and gets its first bytes from the very next
// tick.
func TestPlayWakesOnRound(t *testing.T) {
	s, clips := newTestServer(t, 0)
	cli, _ := pipeCommand(t, s, "PLAY clip-0")
	eventually(t, s, "the handler waits on the round", func() bool { return s.rounds.Waiters() == 1 })
	s.tick()
	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64<<10)
	n, err := cli.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("no bytes after one tick: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf[:n], clips["clip-0"][:n]) {
		t.Fatalf("first %d bytes differ from the clip", n)
	}
}

// TestRefusedPlayAdmittedOnNextRound: a PLAY refused at capacity waits
// on the pending list; when a slot frees it is admitted at the end of
// the very next round, not before.
func TestRefusedPlayAdmittedOnNextRound(t *testing.T) {
	s, _ := newTestServer(t, 0)
	held := fillAdmission(t, s, "clip-0")
	pipeCommand(t, s, "PLAY clip-0")
	eventually(t, s, "the refused handler waits on the round", func() bool { return s.rounds.Waiters() == 1 })
	s.mu.Lock()
	held[0].Close()
	active := s.srv.Stats().Active
	s.mu.Unlock()
	if active != len(held)-1 {
		t.Fatalf("%d streams active after freeing a slot, want %d", active, len(held)-1)
	}
	s.tick()
	eventually(t, s, "the waiting PLAY is admitted", func() bool { return s.srv.Stats().Active == len(held) })
}

// TestStoppedClockReleasesHandlers: handlers blocked on the round clock,
// one waiting for data and one on the pending list, all return when the
// clock stops, and no goroutine outlives them.
func TestStoppedClockReleasesHandlers(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _ := newTestServer(t, 0)
	held := fillAdmission(t, s, "clip-0")
	s.mu.Lock()
	held[0].Close()
	s.mu.Unlock()
	var dones []<-chan struct{}
	for i := 0; i < 2; i++ {
		cli, done := pipeCommand(t, s, "PLAY clip-0")
		go io.Copy(io.Discard, cli)
		dones = append(dones, done)
		eventually(t, s, "the handler waits on the round", func() bool { return s.rounds.Waiters() == i+1 })
	}
	s.rounds.Stop()
	for _, done := range dones {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a handler stayed blocked after the clock stopped")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
