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

	"ftcms/internal/cluster"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/units"
)

// testCluster builds a 3-node, replication-2 cluster front end with a
// fast disk model, stores clips, starts the round clock at 1 ms and the
// listener, and returns the address plus the stored clip contents.
func testCluster(t *testing.T) (addr string, clips map[string][]byte, s *server, ln net.Listener) {
	t.Helper()
	s, clips = newTestServer(t)
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

// newTestServer builds the test cluster front end with its round clock
// not started, so a test can start it or step s.tick by hand. Cleanup
// stops the clock, which wakes any handler still waiting on a round.
func newTestServer(t testing.TB) (*server, map[string][]byte) {
	t.Helper()
	cfg := cluster.Config{
		Replication: 2,
		Faults:      &faultinject.Plan{Seed: 1},
	}
	nodeCfg := core.Config{
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
		ScrubRate: -1,
	}
	for i := 0; i < 3; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeCfg)
	}
	cl, err := cluster.New(cfg)
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
		if err := cl.AddClip(name, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(cl, nodeCfg, time.Millisecond, 10*time.Second, false)
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
	addr, _, _, _ := testCluster(t)
	out := string(send(t, addr, "LIST"))
	if !strings.Contains(out, "clip-0 50000 nodes=[") || !strings.Contains(out, "clip-1 50000 nodes=[") {
		t.Fatalf("LIST output:\n%s", out)
	}
}

func TestHandleStats(t *testing.T) {
	addr, _, _, _ := testCluster(t)
	out := string(send(t, addr, "STATS"))
	if !strings.Contains(out, "nodes=3 alive=3 failed=[]") {
		t.Fatalf("STATS output: %s", out)
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(out, fmt.Sprintf("node=%d ", i)) {
			t.Fatalf("STATS missing node %d line: %s", i, out)
		}
	}
	for _, field := range []string{
		"scrub_scanned=", "scrub_total=", "scrub_cycles=",
		"corruptions=0", "corruption_repairs=0",
		"detect_hist=[]", "rebuild_hist=[]", "slipped=", "tick_hist=[",
	} {
		if !strings.Contains(out, field) {
			t.Fatalf("STATS missing %q: %s", field, out)
		}
	}
}

// TestCorruptIsDetectedAndRepaired: CORRUPT rots one block inside node 1;
// the node's idle-bounded patrol scrub finds the checksum mismatch and
// repairs it from parity, surfacing in that node's STATS line, and both
// clips still stream byte-exact afterwards.
func TestCorruptIsDetectedAndRepaired(t *testing.T) {
	addr, clips, _, _ := testCluster(t)
	if out := string(send(t, addr, "CORRUPT 1 2")); !strings.Contains(out, "OK node 1 disk 2 corrupted") {
		t.Fatalf("CORRUPT output: %s", out)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := string(send(t, addr, "STATS"))
		var line string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "node=1 ") {
				line = l
			}
		}
		if strings.Contains(line, "corruptions=1") && strings.Contains(line, "corruption_repairs=1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corruption never detected and repaired: %s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, want := range clips {
		if got := send(t, addr, "PLAY "+name); !bytes.Equal(got, want) {
			t.Fatalf("PLAY %s after repair returned %d bytes, want %d (exact)", name, len(got), len(want))
		}
	}
}

func TestHandlePlayByteExact(t *testing.T) {
	addr, clips, _, _ := testCluster(t)
	got := send(t, addr, "PLAY clip-0")
	if !bytes.Equal(got, clips["clip-0"]) {
		t.Fatalf("PLAY returned %d bytes, want %d (exact)", len(got), len(clips["clip-0"]))
	}
}

// TestHandlePlayThroughNodeFailure: FAIL schedules a node fault that the
// detector discovers mid-stream; replication 2 keeps the playback
// byte-exact via failover to the surviving replica.
func TestHandlePlayThroughNodeFailure(t *testing.T) {
	addr, clips, s, _ := testCluster(t)
	if out := string(send(t, addr, "FAIL 0")); !strings.Contains(out, "OK node 0 failed") {
		t.Fatalf("FAIL output: %s", out)
	}
	got := send(t, addr, "PLAY clip-0")
	if !bytes.Equal(got, clips["clip-0"]) {
		t.Fatalf("PLAY through node failure returned %d bytes, want %d", len(got), len(clips["clip-0"]))
	}
	s.mu.Lock()
	st := s.cl.Stats()
	s.mu.Unlock()
	if st.Alive != 2 || len(st.FailedNodes) != 1 || st.FailedNodes[0] != 0 {
		t.Fatalf("node 0 not detected as failed: %+v", st)
	}
	if out := string(send(t, addr, "STATS")); !strings.Contains(out, "failed=[0]") {
		t.Fatalf("STATS after node failure: %s", out)
	}
}

func TestHandleErrors(t *testing.T) {
	addr, _, _, _ := testCluster(t)
	for cmd, want := range map[string]string{
		"PLAY":         "ERR usage",
		"PLAY nope":    "ERR",
		"FAIL":         "ERR usage",
		"FAIL 99":      "ERR node 99 out of range",
		"CORRUPT":      "ERR usage",
		"CORRUPT x 1":  "ERR usage",
		"CORRUPT 99 0": "ERR node 99 out of range",
		"CORRUPT 0 99": "ERR disk 99 out of range",
		"DRAIN":        "ERR usage",
		"DRAIN 99":     "ERR node 99 out of range",
		"REMOVE x":     "ERR usage",
		"REMOVE 99":    "ERR node 99 out of range",
		"ADDDISK":      "ERR usage",
		"ADDDISK 99":   "ERR node 99 out of range",
		// The test geometry is d=7, p=3; there is no BIBD layout for
		// v=8, k=3, so disk growth is refused before anything moves.
		"ADDDISK 0": "ERR",
		"BOGUS":     "ERR unknown command",
		"   ":       "ERR empty command",
	} {
		if out := string(send(t, addr, cmd)); !strings.Contains(out, want) {
			t.Errorf("%q -> %q, want %q", cmd, strings.TrimSpace(out), want)
		}
	}
}

// TestHandleJoinDrainRetire drives the elastic-reconfiguration protocol
// end to end over the wire: JOIN adds node 3 and bumps the view, DRAIN 0
// marks node 0 draining (visible in STATS), migration re-replicates its
// clips on idle capacity until it retires, and both clips still stream
// byte-exact from the reshaped cluster.
func TestHandleJoinDrainRetire(t *testing.T) {
	addr, clips, _, _ := testCluster(t)
	if out := string(send(t, addr, "JOIN")); !strings.Contains(out, "OK node 3 joined view=1") {
		t.Fatalf("JOIN output: %s", out)
	}
	if out := string(send(t, addr, "DRAIN 0")); !strings.Contains(out, "OK node 0 draining view=2") {
		t.Fatalf("DRAIN output: %s", out)
	}
	// At millisecond ticks the idle cluster can finish the whole drain
	// before the next STATS round-trip, so accept either phase here.
	if out := string(send(t, addr, "STATS")); !strings.Contains(out, "draining=[0]") &&
		!strings.Contains(out, "retired=[0]") {
		t.Fatalf("STATS during drain: %s", out)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		out := string(send(t, addr, "STATS"))
		if strings.Contains(out, "retired=[0]") {
			if !strings.Contains(out, "view=3") {
				t.Fatalf("retirement did not bump the view: %s", out)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 never retired: %s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, want := range clips {
		if got := send(t, addr, "PLAY "+name); !bytes.Equal(got, want) {
			t.Fatalf("PLAY %s after drain returned %d bytes, want %d (exact)", name, len(got), len(want))
		}
	}
	// The retired node must be gone from every replica set.
	out := string(send(t, addr, "LIST"))
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(l, "nodes=[0") || strings.Contains(l, " 0]") || strings.Contains(l, " 0 ") {
			t.Fatalf("retired node 0 still holds a replica: %s", l)
		}
	}
}

// TestHandleAutopilot drives the closed-loop controls over the wire:
// the STATS autopilot segment reports off until AUTOPILOT on enables
// the controller (mode, action count, cooldown and interlock become
// live), PLAY still admits in steady mode, and AUTOPILOT off freezes
// it again.
func TestHandleAutopilot(t *testing.T) {
	addr, clips, _, _ := testCluster(t)
	out := string(send(t, addr, "STATS"))
	if !strings.Contains(out, `autopilot=off`) || !strings.Contains(out, `autopilot_actions=0`) ||
		!strings.Contains(out, `autopilot_last=""`) || !strings.Contains(out, `autopilot_interlock=""`) {
		t.Fatalf("STATS autopilot segment while off: %s", out)
	}
	if out := string(send(t, addr, "AUTOPILOT on")); !strings.Contains(out, "OK autopilot on") {
		t.Fatalf("AUTOPILOT on: %s", out)
	}
	// The pacer steps the enabled pilot; an idle cluster stays in steady
	// mode with no actions and no interlock.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out = string(send(t, addr, "STATS"))
		if strings.Contains(out, `autopilot=steady`) && strings.Contains(out, `autopilot_last="none"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("STATS never showed the enabled controller: %s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out, "autopilot_actions=0") {
		t.Fatalf("idle controller fired an action: %s", out)
	}
	// Steady mode does not shed: PLAY streams byte-exact.
	if got := send(t, addr, "PLAY clip-0"); !bytes.Equal(got, clips["clip-0"]) {
		t.Fatalf("PLAY with autopilot on returned %d bytes, want %d", len(got), len(clips["clip-0"]))
	}
	if out := string(send(t, addr, "AUTOPILOT off")); !strings.Contains(out, "OK autopilot off") {
		t.Fatalf("AUTOPILOT off: %s", out)
	}
	if out := string(send(t, addr, "STATS")); !strings.Contains(out, "autopilot=off") {
		t.Fatalf("STATS after AUTOPILOT off: %s", out)
	}
	for _, cmd := range []string{"AUTOPILOT", "AUTOPILOT maybe"} {
		if out := string(send(t, addr, cmd)); !strings.Contains(out, "ERR usage: AUTOPILOT on|off") {
			t.Fatalf("%q -> %s", cmd, out)
		}
	}
}

// TestHandleConcurrentPlays: parallel clients stream byte-exact through
// the shared cluster mutex.
func TestHandleConcurrentPlays(t *testing.T) {
	addr, clips, _, _ := testCluster(t)
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
func fillAdmission(t *testing.T, s *server, clip string) []*cluster.Stream {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var held []*cluster.Stream
	for {
		st, err := s.cl.OpenStream(clip)
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
	s, clips := newTestServer(t)
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
	s, _ := newTestServer(t)
	held := fillAdmission(t, s, "clip-0")
	pipeCommand(t, s, "PLAY clip-0")
	eventually(t, s, "the refused handler waits on the round", func() bool {
		return s.rounds.Waiters() == 1 && s.cl.Stats().Rejected > 0
	})
	s.mu.Lock()
	held[0].Close()
	active := s.cl.Stats().Active
	s.mu.Unlock()
	if active != len(held)-1 {
		t.Fatalf("%d streams active after freeing a slot, want %d", active, len(held)-1)
	}
	s.tick()
	eventually(t, s, "the waiting PLAY is admitted", func() bool { return s.cl.Stats().Active == len(held) })
}

// TestStoppedClockReleasesHandlers: handlers blocked on the round clock,
// one waiting for data and one on the pending list, all return when the
// clock stops, and no goroutine outlives them.
func TestStoppedClockReleasesHandlers(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _ := newTestServer(t)
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

// FuzzProtocol: any command line leaves the handler returning without a
// panic while the round clock runs.
func FuzzProtocol(f *testing.F) {
	for _, seed := range []string{
		"LIST", "STATS", "PLAY clip-0", "PLAY clip-1 extra", "PLAY nope", "PLAY",
		"FAIL 0", "FAIL -1", "FAIL 99999999999999999999", "CORRUPT 1 2", "CORRUPT 0 -3",
		"JOIN", "DRAIN 0", "REMOVE 1", "ADDDISK 0", "AUTOPILOT on", "AUTOPILOT off", "AUTOPILOT",
		"", "   ", "BOGUS x y", "play clip-0\nSTATS", "\x00\xff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, _ := newTestServer(t)
		s.rounds.Start(s.tick)
		cli, done := pipeCommand(t, s, line)
		go io.Copy(io.Discard, cli)
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("handler did not return for %q", line)
		}
	})
}
