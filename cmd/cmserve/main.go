// Command cmserve is a demonstration TCP streaming server built on the
// core library: it stores synthetic clips in a fault-tolerant array,
// paces rounds in (scaled) real time, and streams clip bytes to TCP
// clients while tolerating disk failures injected at runtime.
//
// Protocol: a client connects and sends one line, "PLAY <clip>\n"; the
// server responds with the clip bytes as rounds deliver them, then
// closes. "LIST\n" returns the clip names. "STATS\n" reports counters,
// including the failure-lifecycle mode and the integrity subsystem
// (patrol-scrub progress, corruptions detected, repairs). "FAIL <disk>\n"
// is a demo alias for the fault injector: it schedules a fail-stop on the
// disk, which the health detector then discovers from the disk's own read
// errors — the server needs no operator command to degrade (a real
// deployment would not expose this knob at all). "CORRUPT <disk>\n"
// likewise schedules a silent bit flip on a random written block of the
// disk; only the checksum layer can see it, and the patrol scrub
// (enabled with -scrub) detects and repairs it from parity.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting
// connections, lets active streams drain, then exits. Every client write
// carries a deadline so one stalled client cannot wedge a handler.
//
// Usage:
//
//	cmserve -addr :9000 -scheme declustered -d 7 -p 3 -clips 4 -speed 100
//
// speed scales time: 100 means rounds run 100x faster than real playback.
//
// Observability: -pprof serves net/http/pprof on a side address, and
// -cpuprofile/-memprofile write whole-run profiles, matching cmsim.
// STATS ends with slipped, the rounds the deadline pacer dropped after
// falling more than cliutil.CatchUp rounds behind, and tick_hist, a
// histogram of recent per-round Tick latencies (bucket upper bounds in
// µs).
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

	"ftcms/internal/cliutil"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/units"
)

type server struct {
	mu       sync.Mutex
	srv      *core.Server
	injector *faultinject.Injector
	d        int

	// tickHist tracks recent per-round Tick latencies (guarded by mu,
	// like the Tick it times); STATS reports it as tick_hist.
	tickHist cliutil.LatencyHist

	// rounds is the round clock: its pacer drives tick, and PLAY and
	// admission waits block on it under mu until a round has run.
	rounds *cliutil.RoundClock

	// writeTimeout bounds every client write.
	writeTimeout time.Duration
	// closing is closed when shutdown begins: accept stops and new PLAY
	// commands are refused while in-flight streams drain.
	closing chan struct{}
	// conns tracks active connection handlers for the drain.
	conns sync.WaitGroup
}

// newServer builds the server with a round clock of the given
// interval; the caller starts it with s.rounds.Start(s.tick).
func newServer(cs *core.Server, interval, writeTimeout time.Duration) *server {
	s := &server{
		srv:          cs,
		injector:     cs.InjectFaults(faultinject.Plan{Seed: 1}),
		d:            cs.Disks(),
		writeTimeout: writeTimeout,
		closing:      make(chan struct{}),
	}
	s.rounds = cliutil.NewRoundClock(interval, &s.mu)
	return s
}

// tick advances one round under the mutex, records its latency, and
// wakes every handler waiting on the round.
func (s *server) tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	if err := s.srv.Tick(); err != nil {
		log.Printf("cmserve: tick: %v", err)
	}
	s.tickHist.Observe(time.Since(start))
	s.rounds.Broadcast()
}

func main() {
	addr := flag.String("addr", ":9000", "listen address")
	schemeFlag := flag.String("scheme", "declustered", "fault-tolerance scheme")
	d := flag.Int("d", 7, "disks")
	p := flag.Int("p", 3, "parity group size")
	nclips := flag.Int("clips", 4, "synthetic clips to store")
	clipKB := flag.Int("clipkb", 256, "clip size in KB")
	speed := flag.Float64("speed", 100, "time acceleration factor")
	spares := flag.Int("spares", 1, "hot spares for automatic online rebuild")
	scrub := flag.Int("scrub", -1, "patrol scrub rate in verify reads per round (0: off, -1: idle-bounded)")
	wtimeout := flag.Duration("wtimeout", 10*time.Second, "per-client write deadline")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	scheme, err := cliutil.ResolveCoreScheme(*schemeFlag)
	if err != nil {
		log.Fatalf("cmserve: %v", err)
	}
	geo, err := cliutil.ParseGeometry(*d, *p)
	if err != nil {
		log.Fatalf("cmserve: %v", err)
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("cmserve: pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cmserve: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cmserve: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("cmserve: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("cmserve: %v", err)
			}
		}()
	}

	cs, err := core.New(core.Config{
		Scheme:    scheme,
		Disk:      diskmodel.Default(),
		D:         geo.D,
		P:         geo.P,
		Block:     64 * units.KB,
		Q:         8,
		F:         2,
		Buffer:    256 * units.MB,
		Spares:    *spares,
		ScrubRate: *scrub,
	})
	if err != nil {
		log.Fatalf("cmserve: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < *nclips; i++ {
		data := make([]byte, *clipKB*1000)
		rng.Read(data)
		name := fmt.Sprintf("clip-%d", i)
		if err := cs.AddClip(name, data); err != nil {
			log.Fatalf("cmserve: %v", err)
		}
	}
	// One Tick per (scaled) round duration. The clock keeps running
	// through the drain so in-flight streams finish delivery.
	s := newServer(cs, cliutil.PacedInterval(cs.RoundDuration(), *speed), *wtimeout)
	s.rounds.Start(s.tick)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cmserve: %v", err)
	}
	log.Printf("cmserve: %s scheme on %d disks (%d spares), %d clips, listening on %s",
		*schemeFlag, *d, *spares, *nclips, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("cmserve: %v: stopping accept, draining active streams", sig)
		s.beginShutdown(ln)
	}()

	s.acceptLoop(ln)
	if s.drain(60 * time.Second) {
		log.Printf("cmserve: drained cleanly")
	} else {
		log.Printf("cmserve: drain timed out, exiting with streams active")
	}
}

// Disks exposes the configured disk count (used for FAIL validation).
func (s *server) disks() int { return s.d }

// beginShutdown flips the server into draining mode and stops the accept
// loop by closing the listener.
func (s *server) beginShutdown(ln net.Listener) {
	select {
	case <-s.closing:
		return // already shutting down
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
			log.Printf("cmserve: accept: %v", err)
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
// It reports whether the drain completed.
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

// write sends bytes to the client under the per-connection write
// deadline, so a stalled client cannot wedge the handler.
func (s *server) write(conn net.Conn, data []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	_, err := conn.Write(data)
	return err
}

func (s *server) printf(conn net.Conn, format string, args ...any) error {
	return s.write(conn, []byte(fmt.Sprintf(format, args...)))
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
		names := s.srv.Clips()
		s.mu.Unlock()
		for _, name := range names {
			s.mu.Lock()
			size := s.srv.ClipSize(name)
			s.mu.Unlock()
			if s.printf(conn, "%s %d\n", name, size) != nil {
				return
			}
		}
	case "STATS":
		s.mu.Lock()
		st := s.srv.Stats()
		ticks := s.tickHist.String()
		s.mu.Unlock()
		s.printf(conn, "rounds=%d active=%d served=%d hiccups=%d overflows=%d failed=%v mode=%s spares=%d rebuilding=%d rebuild_pending=%d rebuild_total=%d rebuilds_done=%d terminated=%d scrub_scanned=%d scrub_total=%d scrub_cycles=%d corruptions=%d corruption_repairs=%d detect_hist=%s rebuild_hist=%s slipped=%d tick_hist=%s\n",
			st.Rounds, st.Active, st.Served, st.Hiccups, st.Overflows, st.FailedDisks,
			st.Mode, st.SparesLeft, st.Rebuilding, st.RebuildPending, st.RebuildTotal,
			st.RebuildsDone, st.Terminated, st.ScrubScanned, st.ScrubTotal, st.ScrubCycles,
			st.CorruptionsDetected, st.CorruptionRepairs,
			cliutil.Histogram(st.DetectLatencies), cliutil.Histogram(st.RebuildLatencies), s.rounds.Slipped(), ticks)
	case "FAIL":
		// Demo alias for the fault injector: schedule a fail-stop on the
		// disk starting next round. The health detector notices from the
		// read errors and degrades the server on its own — FAIL is not an
		// operator command on the data path.
		if len(fields) < 2 {
			s.printf(conn, "ERR usage: FAIL <disk>\n")
			return
		}
		disk, err := strconv.Atoi(fields[1])
		if err != nil {
			s.printf(conn, "ERR usage: FAIL <disk>\n")
			return
		}
		if disk < 0 || disk >= s.disks() {
			s.printf(conn, "ERR disk %d out of range [0, %d)\n", disk, s.disks())
			return
		}
		s.mu.Lock()
		s.injector.AddFailStop(faultinject.FailStop{Disk: disk, Round: s.injector.Round() + 1})
		s.mu.Unlock()
		s.printf(conn, "OK disk %d failed\n", disk)
	case "CORRUPT":
		// Demo alias for silent corruption: flip bits of one random
		// written block next round. The device keeps serving the block
		// without error — only the checksum layer (read path or patrol
		// scrub) can catch it.
		if len(fields) < 2 {
			s.printf(conn, "ERR usage: CORRUPT <disk>\n")
			return
		}
		disk, err := strconv.Atoi(fields[1])
		if err != nil {
			s.printf(conn, "ERR usage: CORRUPT <disk>\n")
			return
		}
		if disk < 0 || disk >= s.disks() {
			s.printf(conn, "ERR disk %d out of range [0, %d)\n", disk, s.disks())
			return
		}
		s.mu.Lock()
		next := s.injector.Round() + 1
		s.injector.AddSilentCorruption(faultinject.SilentCorruption{
			Disk: disk, Block: -1, Rate: 1, From: next, Until: next + 1, Bits: 3,
		})
		s.mu.Unlock()
		s.printf(conn, "OK disk %d corrupted\n", disk)
	case "PLAY":
		if len(fields) < 2 {
			s.printf(conn, "ERR usage: PLAY <clip>\n")
			return
		}
		if s.draining() {
			s.printf(conn, "ERR shutting down\n")
			return
		}
		// Admission may be refused while the caps are full; the request
		// then waits on the paper's pending list, retrying each round.
		st, err := cliutil.Admit(s.rounds, func() (*core.Stream, error) {
			return s.srv.OpenStream(fields[1])
		})
		if err != nil {
			s.printf(conn, "ERR %v\n", err)
			return
		}
		if err := s.rounds.Play(st, func(b []byte) error { return s.write(conn, b) }); err != nil {
			// Second failure stranded the stream: tell the client why
			// instead of silently closing.
			s.printf(conn, "\nERR %v\n", err)
		}
	default:
		s.printf(conn, "ERR unknown command\n")
	}
}
