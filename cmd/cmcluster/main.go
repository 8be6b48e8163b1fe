// Command cmcluster is the cluster-tier demonstration front end: it
// composes several fault-tolerant arrays into one logical continuous
// media server (internal/cluster), stores synthetic clips across them
// with replication, paces cluster rounds in (scaled) real time, and
// proxies the cmserve protocol across nodes.
//
// Protocol (one command line per connection, like cmserve):
//
//	LIST                  clip names with sizes and replica nodes
//	PLAY <clip>           stream clip bytes; survives node failures when
//	                      the clip is replicated
//	STATS                 cluster counters plus per-node summaries,
//	                      including each node's scrub progress and
//	                      corruption detect/repair counters
//	FAIL <node>           demo alias for the node-fault injector: the
//	                      health detector discovers the fault from the
//	                      node's own probe errors and fails it over —
//	                      never an operator command on the data path
//	CORRUPT <node> <disk> demo alias for the silent-corruption injector:
//	                      rots blocks of one disk inside one node; only
//	                      that node's checksums (patrol scrub or read
//	                      path) can notice and repair it
//	JOIN                  join a fresh node (same geometry as the bootset)
//	                      into the cluster; replicas re-spread onto it on
//	                      idle round capacity
//	DRAIN <node>          gracefully drain a node: no new placements, its
//	                      clips re-replicate and its streams move without
//	                      a glitch, then it retires from the view
//	REMOVE <node>         remove a node immediately (admin fail-stop):
//	                      parked streams fail over exactly like a crash
//	ADDDISK <node>        grow one node by a disk; the node re-lays every
//	                      clip onto the wider stripe on idle capacity and
//	                      flips atomically (d+1 must have a BIBD
//	                      construction — the default d=7, p=3 does not;
//	                      start with -d 6 to demo growth)
//	AUTOPILOT on|off      enable or disable the closed-loop controller:
//	                      when on, it joins nodes on sustained rejects,
//	                      replaces detector-confirmed node losses, drains
//	                      surplus nodes off-peak, and sheds new sessions
//	                      under a failover backlog (see -autopilot to
//	                      start enabled; STATS carries autopilot=)
//
// Usage:
//
//	cmcluster -addr :9100 -nodes 3 -rep 2 -scheme declustered -d 7 -p 3
//
// Observability: -pprof serves net/http/pprof on a side address, and
// -cpuprofile/-memprofile write whole-run profiles, matching cmsim.
// The cluster STATS line carries the reconfiguration view (view=,
// draining=, retired=, migrate_progress=) and ends with slipped, the
// rounds the deadline pacer dropped after falling more than
// cliutil.CatchUp rounds behind, then tick_hist, a histogram of recent
// cluster-round Tick latencies (bucket upper bounds in µs), plus
// migrate_hist — the same latency restricted to rounds that actually
// carried migration traffic, so the cost of background re-replication
// on the tick is directly visible.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftcms/internal/autopilot"
	"ftcms/internal/cliutil"
	"ftcms/internal/cluster"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/units"
)

type server struct {
	mu sync.Mutex
	cl *cluster.Cluster

	// inj[i] is node i's disk-fault injector, armed at startup so
	// CORRUPT can script silent corruption inside a node. Distinct from
	// the cluster-level injector, which scripts whole-node faults.
	inj []*faultinject.Injector

	// tickHist tracks recent cluster-round Tick latencies (guarded by
	// mu, like the Tick it times); STATS reports it as tick_hist.
	tickHist cliutil.LatencyHist

	// migrateHist is tickHist restricted to rounds that copied at least
	// one migration block, so STATS can show what background
	// re-replication costs the tick. lastMigrated is the cumulative
	// block count at the previous round (both guarded by mu).
	migrateHist  cliutil.LatencyHist
	lastMigrated int64

	// nodeCfg is the boot-time per-node template; JOIN builds identical
	// nodes from it so a joined node is interchangeable with the bootset.
	nodeCfg core.Config

	// pilot is the closed-loop controller, stepped once per paced round
	// under mu. It always exists; AUTOPILOT on|off (and the -autopilot
	// flag) toggle whether it observes and acts.
	pilot *cluster.Pilot

	// rounds is the round clock: its pacer drives tick, and PLAY and
	// admission waits block on it under mu until a round has run.
	rounds *cliutil.RoundClock

	writeTimeout time.Duration
	closing      chan struct{}
	conns        sync.WaitGroup
}

// newServer builds the front end with a round clock of the given
// interval; the caller starts it with s.rounds.Start(s.tick).
func newServer(cl *cluster.Cluster, nodeCfg core.Config, interval, writeTimeout time.Duration, autopilotOn bool) *server {
	s := &server{
		cl:           cl,
		nodeCfg:      nodeCfg,
		pilot:        cluster.NewPilot(cl, nodeCfg, autopilot.Config{}),
		writeTimeout: writeTimeout,
		closing:      make(chan struct{}),
	}
	s.rounds = cliutil.NewRoundClock(interval, &s.mu)
	s.pilot.SetEnabled(autopilotOn)
	for i := 0; i < cl.NodeCount(); i++ {
		s.inj = append(s.inj, cl.NodeServer(i).InjectFaults(faultinject.Plan{Seed: int64(i) + 1}))
	}
	return s
}

// tick advances one cluster round under the mutex: the service tick,
// latency accounting, and one autopilot step, then wakes every handler
// waiting on the round. The round clock and hand-stepped tests drive
// rounds through here so the controller always observes completed
// rounds.
func (s *server) tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	if err := s.cl.Tick(); err != nil {
		log.Printf("cmcluster: tick: %v", err)
	}
	elapsed := time.Since(start)
	s.tickHist.Observe(elapsed)
	if mb := s.cl.MigratedBlocks(); mb > s.lastMigrated {
		s.migrateHist.Observe(elapsed)
		s.lastMigrated = mb
	}
	a, ok, err := s.pilot.Step()
	if ok {
		log.Printf("cmcluster: autopilot: %s", a)
		// Arm the corruption injector on any node the pilot just joined,
		// exactly as the JOIN verb does, so CORRUPT works against it.
		for len(s.inj) < s.cl.NodeCount() {
			id := len(s.inj)
			s.inj = append(s.inj, s.cl.NodeServer(id).InjectFaults(faultinject.Plan{Seed: int64(id) + 1}))
		}
	}
	if err != nil {
		log.Printf("cmcluster: autopilot: %v", err)
	}
	s.rounds.Broadcast()
}

func main() {
	addr := flag.String("addr", ":9100", "listen address")
	schemeFlag := flag.String("scheme", "declustered", "per-node fault-tolerance scheme")
	d := flag.Int("d", 7, "disks per node")
	p := flag.Int("p", 3, "parity group size")
	nodes := flag.Int("nodes", 3, "cluster nodes")
	rep := flag.Int("rep", 2, "replicas per clip")
	nclips := flag.Int("clips", 4, "synthetic clips to store")
	clipKB := flag.Int("clipkb", 256, "clip size in KB")
	speed := flag.Float64("speed", 100, "time acceleration factor")
	scrub := flag.Int("scrub", -1, "per-node patrol scrub rate in verify reads per disk per round (0: off, -1: idle-bounded)")
	wtimeout := flag.Duration("wtimeout", 10*time.Second, "per-client write deadline")
	autopilotOn := flag.Bool("autopilot", false, "start with the closed-loop controller enabled (AUTOPILOT on|off toggles it live)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	scheme, err := cliutil.ResolveCoreScheme(*schemeFlag)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	geo, err := cliutil.ParseGeometry(*d, *p)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("cmcluster: pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cmcluster: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cmcluster: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("cmcluster: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("cmcluster: %v", err)
			}
		}()
	}

	cfg := cluster.Config{
		Replication: *rep,
		// An empty plan arms the injector so FAIL can script node faults
		// for the detector to discover.
		Faults: &faultinject.Plan{Seed: 1},
	}
	nodeCfg := core.Config{
		Scheme:    scheme,
		Disk:      diskmodel.Default(),
		D:         geo.D,
		P:         geo.P,
		Block:     64 * units.KB,
		Q:         8,
		F:         2,
		Buffer:    256 * units.MB,
		ScrubRate: *scrub,
	}
	for i := 0; i < *nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeCfg)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < *nclips; i++ {
		data := make([]byte, *clipKB*1000)
		rng.Read(data)
		if err := cl.AddClip(fmt.Sprintf("clip-%d", i), data); err != nil {
			log.Fatalf("cmcluster: %v", err)
		}
	}
	// Every node's round duration is identical (same config), so one
	// clock drives the whole cluster. It keeps running through the drain
	// so in-flight streams finish delivery.
	interval := cliutil.PacedInterval(cl.NodeServer(0).RoundDuration(), *speed)
	s := newServer(cl, nodeCfg, interval, *wtimeout, *autopilotOn)
	s.rounds.Start(s.tick)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cmcluster: %v", err)
	}
	log.Printf("cmcluster: %d nodes × (%s, d=%d, p=%d), replication %d, %d clips, listening on %s",
		*nodes, scheme, geo.D, geo.P, *rep, *nclips, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("cmcluster: %v: stopping accept, draining active streams", sig)
		s.beginShutdown(ln)
	}()

	s.acceptLoop(ln)
	if s.drain(60 * time.Second) {
		log.Printf("cmcluster: drained cleanly")
	} else {
		log.Printf("cmcluster: drain timed out, exiting with streams active")
	}
}

// beginShutdown flips the server into draining mode and stops the accept
// loop by closing the listener.
func (s *server) beginShutdown(ln net.Listener) {
	select {
	case <-s.closing:
		return
	default:
	}
	close(s.closing)
	ln.Close()
}

// draining reports whether shutdown has begun.
func (s *server) draining() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// acceptLoop serves connections until the listener closes for shutdown.
func (s *server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining() {
				return
			}
			log.Printf("cmcluster: accept: %v", err)
			continue
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.handle(conn)
		}()
	}
}

// drain waits for active connection handlers to finish, up to timeout.
func (s *server) drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (s *server) write(conn net.Conn, data []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	_, err := conn.Write(data)
	return err
}

func (s *server) printf(conn net.Conn, format string, args ...any) error {
	return s.write(conn, []byte(fmt.Sprintf(format, args...)))
}

// parseNode parses the single <node> argument of a reconfiguration
// command and range-checks it, reporting usage or range errors to the
// client itself. ok is false when the command line was already answered.
func (s *server) parseNode(conn net.Conn, fields []string, usage string) (int, bool) {
	if len(fields) < 2 {
		s.printf(conn, "ERR usage: %s\n", usage)
		return 0, false
	}
	node, err := strconv.Atoi(fields[1])
	if err != nil {
		s.printf(conn, "ERR usage: %s\n", usage)
		return 0, false
	}
	s.mu.Lock()
	n := s.cl.NodeCount()
	s.mu.Unlock()
	if node < 0 || node >= n {
		s.printf(conn, "ERR node %d out of range [0, %d)\n", node, n)
		return 0, false
	}
	return node, true
}

func (s *server) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		s.printf(conn, "ERR empty command\n")
		return
	}
	switch strings.ToUpper(fields[0]) {
	case "LIST":
		s.mu.Lock()
		names := s.cl.Clips()
		type row struct {
			size     int64
			replicas []int
		}
		rows := make(map[string]row, len(names))
		for _, name := range names {
			rows[name] = row{s.cl.ClipSize(name), s.cl.Replicas(name)}
		}
		s.mu.Unlock()
		for _, name := range names {
			if s.printf(conn, "%s %d nodes=%v\n", name, rows[name].size, rows[name].replicas) != nil {
				return
			}
		}
	case "STATS":
		s.mu.Lock()
		st := s.cl.Stats()
		ticks := s.tickHist.String()
		migs := s.migrateHist.String()
		apMode := "off"
		var aps autopilot.Status
		if s.pilot.Enabled() {
			aps = s.pilot.Status()
			apMode = aps.Mode
		}
		s.mu.Unlock()
		if s.printf(conn, "round=%d nodes=%d alive=%d failed=%v active=%d awaiting_failover=%d served=%d failed_over=%d terminated=%d rejected=%d view=%d draining=%v retired=%v migrate_progress=%d/%d migrated_blocks=%d migrated_streams=%d autopilot=%s autopilot_actions=%d autopilot_cooldown=%d autopilot_last=%q autopilot_interlock=%q slipped=%d tick_hist=%s migrate_hist=%s\n",
			st.Round, st.Nodes, st.Alive, st.FailedNodes, st.Active, st.AwaitingFailover,
			st.Served, st.FailedOver, st.Terminated, st.Rejected,
			st.ViewVersion, st.Draining, st.Retired, st.MigrateDone, st.MigrateTotal,
			st.MigratedBlocks, st.MigratedStreams,
			apMode, aps.Actions, aps.Cooldown, aps.Last, aps.Interlock, s.rounds.Slipped(), ticks, migs) != nil {
			return
		}
		for i, ns := range st.Node {
			if s.printf(conn, "node=%d active=%d served=%d hiccups=%d failed_disks=%v mode=%s scrub_scanned=%d scrub_total=%d scrub_cycles=%d corruptions=%d corruption_repairs=%d detect_hist=%s rebuild_hist=%s\n",
				i, ns.Active, ns.Served, ns.Hiccups, ns.FailedDisks, ns.Mode,
				ns.ScrubScanned, ns.ScrubTotal, ns.ScrubCycles,
				ns.CorruptionsDetected, ns.CorruptionRepairs,
				cliutil.Histogram(ns.DetectLatencies), cliutil.Histogram(ns.RebuildLatencies)) != nil {
				return
			}
		}
	case "FAIL":
		// Demo alias for the node-fault injector: schedule a node
		// fail-stop starting next round; the detector's probes discover it
		// and trigger failover on their own.
		if len(fields) < 2 {
			s.printf(conn, "ERR usage: FAIL <node>\n")
			return
		}
		node, err := strconv.Atoi(fields[1])
		if err != nil {
			s.printf(conn, "ERR usage: FAIL <node>\n")
			return
		}
		s.mu.Lock()
		n := s.cl.NodeCount()
		if node < 0 || node >= n {
			s.mu.Unlock()
			s.printf(conn, "ERR node %d out of range [0, %d)\n", node, n)
			return
		}
		inj := s.cl.Injector()
		inj.AddFailStop(faultinject.FailStop{Disk: node, Round: inj.Round() + 1})
		s.mu.Unlock()
		s.printf(conn, "OK node %d failed\n", node)
	case "CORRUPT":
		// Demo alias for the silent-corruption injector: rot a burst of
		// blocks on one disk of one node starting next round. Nothing on
		// the data path is told — only that node's checksums (patrol
		// scrub or a stream read) can catch it and repair from parity.
		if len(fields) < 3 {
			s.printf(conn, "ERR usage: CORRUPT <node> <disk>\n")
			return
		}
		node, err1 := strconv.Atoi(fields[1])
		disk, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			s.printf(conn, "ERR usage: CORRUPT <node> <disk>\n")
			return
		}
		s.mu.Lock()
		if n := s.cl.NodeCount(); node < 0 || node >= n {
			s.mu.Unlock()
			s.printf(conn, "ERR node %d out of range [0, %d)\n", node, n)
			return
		}
		if nd := s.cl.NodeServer(node).Disks(); disk < 0 || disk >= nd {
			s.mu.Unlock()
			s.printf(conn, "ERR disk %d out of range [0, %d)\n", disk, nd)
			return
		}
		next := s.inj[node].Round() + 1
		s.inj[node].AddSilentCorruption(faultinject.SilentCorruption{
			Disk: disk, Block: -1, Rate: 1, From: next, Until: next + 1, Bits: 3,
		})
		s.mu.Unlock()
		s.printf(conn, "OK node %d disk %d corrupted\n", node, disk)
	case "JOIN":
		// Join a fresh node built from the boot-time template. The
		// migration planner re-spreads replicas onto it on idle round
		// capacity; nothing else changes until clips land there.
		s.mu.Lock()
		id, err := s.cl.JoinNode(s.nodeCfg)
		if err != nil {
			s.mu.Unlock()
			s.printf(conn, "ERR %v\n", err)
			return
		}
		// Arm the joined node's corruption injector like the bootset's so
		// CORRUPT works against it too.
		s.inj = append(s.inj, s.cl.NodeServer(id).InjectFaults(faultinject.Plan{Seed: int64(id) + 1}))
		view := s.cl.View().Version
		s.mu.Unlock()
		s.printf(conn, "OK node %d joined view=%d\n", id, view)
	case "DRAIN":
		node, ok := s.parseNode(conn, fields, "DRAIN <node>")
		if !ok {
			return
		}
		s.mu.Lock()
		err := s.cl.DrainNode(node)
		view := s.cl.View().Version
		s.mu.Unlock()
		if err != nil {
			s.printf(conn, "ERR %v\n", err)
			return
		}
		s.printf(conn, "OK node %d draining view=%d\n", node, view)
	case "REMOVE":
		node, ok := s.parseNode(conn, fields, "REMOVE <node>")
		if !ok {
			return
		}
		s.mu.Lock()
		err := s.cl.RemoveNode(node)
		view := s.cl.View().Version
		s.mu.Unlock()
		if err != nil {
			s.printf(conn, "ERR %v\n", err)
			return
		}
		s.printf(conn, "OK node %d removed view=%d\n", node, view)
	case "ADDDISK":
		node, ok := s.parseNode(conn, fields, "ADDDISK <node>")
		if !ok {
			return
		}
		s.mu.Lock()
		err := s.cl.AddDisk(node)
		s.mu.Unlock()
		if err != nil {
			// Most commonly: no BIBD construction for (d+1, p). The view
			// only bumps once the re-layout flips.
			s.printf(conn, "ERR %v\n", err)
			return
		}
		s.printf(conn, "OK node %d re-layout started\n", node)
	case "AUTOPILOT":
		if len(fields) < 2 {
			s.printf(conn, "ERR usage: AUTOPILOT on|off\n")
			return
		}
		switch strings.ToLower(fields[1]) {
		case "on":
			s.mu.Lock()
			s.pilot.SetEnabled(true)
			s.mu.Unlock()
			s.printf(conn, "OK autopilot on\n")
		case "off":
			s.mu.Lock()
			s.pilot.SetEnabled(false)
			s.mu.Unlock()
			s.printf(conn, "OK autopilot off\n")
		default:
			s.printf(conn, "ERR usage: AUTOPILOT on|off\n")
		}
	case "PLAY":
		if len(fields) < 2 {
			s.printf(conn, "ERR usage: PLAY <clip>\n")
			return
		}
		if s.draining() {
			s.printf(conn, "ERR shutting down\n")
			return
		}
		// Graceful degradation: while the autopilot sheds, new sessions
		// are refused up front instead of joining the admission retry
		// scrum — in-flight streams and failovers keep the capacity.
		s.mu.Lock()
		shedding := s.pilot.Shedding()
		s.mu.Unlock()
		if shedding {
			s.printf(conn, "ERR overloaded: autopilot is shedding new sessions\n")
			return
		}
		// Cluster-wide admission rejects wait on the paper's pending
		// list: the request retries at the end of each round.
		st, err := cliutil.Admit(s.rounds, func() (*cluster.Stream, error) {
			return s.cl.OpenStream(fields[1])
		})
		if err != nil {
			s.printf(conn, "ERR %v\n", err)
			return
		}
		if err := s.rounds.Play(st, func(b []byte) error { return s.write(conn, b) }); err != nil {
			s.printf(conn, "\nERR %v\n", err)
		}
	default:
		s.printf(conn, "ERR unknown command\n")
	}
}
