package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"ftcms/internal/cluster"
	"ftcms/internal/core"
	"ftcms/internal/diskmodel"
	"ftcms/internal/faultinject"
	"ftcms/internal/integrity"
	"ftcms/internal/recovery"
	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// The in-process engine workloads drive internal/cluster with the
// cmcluster daemon's exact node geometry, one goroutine running rounds
// back to back.
const (
	engNodes    = 3
	engReplicas = 2
	engClips    = 32
	engClipSize = 4096 * 1000
	// blockSize is the daemon's 64 KB block, in bytes.
	blockSize = 64 * 1000
	// engPatience is how many rounds a pending session keeps retrying
	// OpenStream before it is refused — the paper's pending list.
	engPatience = 32
	// engWarmRounds run before timing so the stream population is at
	// its steady state: a session lasts about 66 rounds.
	engWarmRounds = 300
	// engSliceRounds is the slice length of the rate metrics: one whole
	// fault cycle of engine-degraded, so every slice sees the same faults.
	engSliceRounds = failCycle
	// engFixedRounds is the timed prefix over which the seed alone
	// decides admission outcomes: sessions due in it give
	// admit_wait_p99_rounds and reject_pct, whatever the machine speed.
	engFixedRounds = 1000
	// engSetups is how many times a run builds the cluster; setup_s is
	// the median.
	engSetups = 5
	// engZipf is the catalog skew of session clip choice.
	engZipf = 1.1
)

// Fault script of engine-degraded, in rounds.
const (
	// Before timing, node 1's disk corruptDisk rots until node 1's
	// detector declares it failed (at most detectBudget rounds).
	corruptNode  = 1
	corruptDisk  = 3
	detectBudget = 20000
	// During timing, node rotNode takes a silent corruption at round
	// rotAt of every failCycle timed rounds, on each of its disks in
	// turn. Each is repaired on first read; the detector counts two
	// observations per corrupt read and declares a disk at 16, which
	// this slow stream stays far below over any run.
	rotNode = 2
	// Node 0 fail-stops at round failAt of every failCycle timed rounds
	// and rejoins at rejoinAt, so every window sees detection, failover
	// and parked retries.
	failNode  = 0
	failCycle = 500
	failAt    = 50
	rejoinAt  = 300
	// rotAt is the round of each fail cycle that corrupts a block on
	// rotNode.
	rotAt = 250
)

// engineNodeConfig is cmd/cmcluster's per-node configuration at its
// defaults: declustered d=7 p=3, 64 KB blocks, q=8, f=2, a 256 MB buffer
// and the idle-bounded patrol scrub.
func engineNodeConfig() core.Config {
	return core.Config{
		Scheme:    core.Declustered,
		Disk:      diskmodel.Default(),
		D:         7,
		P:         3,
		Block:     64 * units.KB,
		Q:         8,
		F:         2,
		Buffer:    256 * units.MB,
		ScrubRate: -1,
	}
}

// genClips regenerates clip payloads exactly as cmcluster does: one
// rand.NewSource(1) stream, n clips of size bytes, in order.
func genClips(n, size int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func clipName(i int) string { return fmt.Sprintf("clip-%d", i) }

// buildEngine makes the cluster and stores every clip, returning the
// time AddClip took on its own.
func buildEngine(clips [][]byte) (*cluster.Cluster, time.Duration, error) {
	cfg := cluster.Config{Replication: engReplicas, Faults: &faultinject.Plan{Seed: 1}}
	for i := 0; i < engNodes; i++ {
		cfg.Nodes = append(cfg.Nodes, engineNodeConfig())
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	for i, data := range clips {
		if err := cl.AddClip(clipName(i), data); err != nil {
			return nil, 0, err
		}
	}
	return cl, time.Since(t), nil
}

// esession is one engine playback session.
type esession struct {
	id      int32
	clip    int
	arrival float64 // in rounds
	due     int64   // first round it is offered
	dueWall time.Time
	st      *cluster.Stream
	off     int64
	started bool       // first byte read
	win     *engWindow // the window it was offered in, nil in warm-up
	prefix  bool       // due inside win's fixed accounting prefix
}

// engWindow accumulates one timed window.
type engWindow struct {
	start      time.Time
	cpu0       time.Duration
	firstRound int64 // cluster round before the window's first round
	fixedEnd   int64 // sessions due up to this round are in the fixed prefix

	rounds    sample // harness round wall, ns
	slices    slicer
	sliceWall time.Duration // round wall of the open slice
	bytes     int64
	blocks    int64
	ttfb      sample // ns

	// sessions counts the sessions offered in the window and failed
	// those of them that failed; offered, rejected and admitWait cover
	// only the sessions due in the fixed prefix.
	sessions, failed  int
	offered, rejected int
	admitWait         sample

	openCalls, admits, refusals int
	parkedRounds                int64
	utilSum                     float64
	utilN                       int
	nodeDetect                  sample
	st0                         cluster.Stats
	wall                        time.Duration
}

// engine is the load harness: it owns the cluster, the arrival source and the
// sessions, and runs rounds.
type engine struct {
	cl     *cluster.Cluster
	clips  [][]byte
	names  []string
	src    *workload.PoissonSource
	next   workload.Request
	more   bool
	tr     *tracer
	audit  bool // check every node's admission invariant each round
	buf    []byte
	nextID int32

	pending, active []*esession
	win             *engWindow
	timed           int64 // timed rounds run so far (the fault script's clock)
	degraded        bool
	failRound       int64 // cluster round node 0's fail-stop was scheduled, 0 when up
	detected        bool
	rot             *faultinject.Injector // rotNode's corruption injector
	rots            int64                 // corruptions scheduled on rotNode
	violations      []string
}

func (e *engine) violate(format string, args ...any) {
	e.violations = append(e.violations, fmt.Sprintf(format, args...))
}

// step runs one harness round: OpenStream for due and pending sessions,
// Tick, then Read on every active stream. The three phases share their
// boundary timestamps, so they add up to the round exactly.
func (e *engine) step() error {
	r := e.cl.Round() + 1
	w := e.win
	t0 := time.Now()
	rs := e.tr.begin("round", -1, -1, t0)
	for e.more && float64(e.next.Arrival) < float64(r) {
		s := &esession{id: e.nextID, clip: e.next.ClipID, arrival: float64(e.next.Arrival), due: r, dueWall: t0}
		e.nextID++
		if w != nil {
			s.win = w
			w.sessions++
			if r <= w.fixedEnd {
				s.prefix = true
				w.offered++
			}
		}
		e.pending = append(e.pending, s)
		e.next, e.more = e.src.Next()
	}

	op := e.tr.begin("open", rs, -1, t0)
	keep := e.pending[:0]
	for _, s := range e.pending {
		if r-s.due >= engPatience {
			if s.prefix {
				s.win.rejected++
			}
			continue
		}
		var c0 time.Time
		if e.tr.on {
			c0 = time.Now()
		}
		st, err := e.cl.OpenStream(e.names[s.clip])
		if e.tr.on {
			e.tr.record("cluster.open", op, s.id, c0, time.Now())
		}
		if w != nil {
			w.openCalls++
		}
		switch {
		case err == nil:
			s.st = st
			e.active = append(e.active, s)
			if w != nil {
				w.admits++
				if e.tr.on {
					w.refusals += e.refusalsBefore(s.clip, st.Node())
				}
				if s.prefix {
					s.win.admitWait = append(s.win.admitWait, float64(r)-s.arrival)
				}
			}
		case errors.Is(err, core.ErrAdmission):
			if w != nil && e.tr.on {
				for _, id := range e.cl.Replicas(e.names[s.clip]) {
					if e.cl.NodeAlive(id) {
						w.refusals++
					}
				}
			}
			keep = append(keep, s)
		default:
			e.violate("session %d: OpenStream(%s): %v", s.id, e.names[s.clip], err)
			if s.win != nil {
				s.win.failed++
			}
		}
	}
	e.pending = keep
	t1 := time.Now()
	e.tr.end(op, t1)

	tk := e.tr.begin("tick", rs, -1, t1)
	if err := e.cl.Tick(); err != nil {
		return fmt.Errorf("round %d: Tick: %w", r, err)
	}
	t2 := time.Now()
	e.tr.end(tk, t2)

	rd := e.tr.begin("read", rs, -1, t2)
	act := e.active[:0]
	for _, s := range e.active {
		if w != nil && s.st.Node() < 0 {
			w.parkedRounds++
		}
		done, err := e.drain(s, rd)
		switch {
		case err != nil:
			e.violate("session %d (%s): %v", s.id, e.names[s.clip], err)
			s.st.Close() // an unread stream would buffer forever
			if s.win != nil {
				s.win.failed++
			}
		case !done:
			act = append(act, s)
		}
	}
	for i := len(act); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = act
	t3 := time.Now()
	e.tr.end(rd, t3)
	e.tr.end(rs, t3)

	if w != nil {
		d := t3.Sub(t0)
		w.rounds = append(w.rounds, float64(d))
		if w.sliceWall += d; len(w.rounds)%engSliceRounds == 0 {
			w.slices.cut(w.bytes, selfCPU()-w.cpu0, w.sliceWall, readHostTicks())
			w.sliceWall = 0
		}
	}
	if e.audit {
		e.auditRound(r)
	}
	if e.degraded && w != nil {
		e.faultScript()
	}
	return nil
}

// drain reads everything a session's stream has ready and checks each
// byte against the clip. done reports a finished session.
func (e *engine) drain(s *esession, parent int32) (bool, error) {
	clip := e.clips[s.clip]
	w := e.win
	for {
		var c0 time.Time
		if e.tr.on {
			c0 = time.Now()
		}
		n, err := s.st.Read(e.buf)
		if e.tr.on {
			c1 := time.Now()
			e.tr.record("cluster.read", parent, s.id, c0, c1)
			c0 = c1
		}
		if n > 0 {
			if s.off+int64(n) > int64(len(clip)) || !bytes.Equal(e.buf[:n], clip[s.off:s.off+int64(n)]) {
				return false, fmt.Errorf("byte mismatch in [%d, %d)", s.off, s.off+int64(n))
			}
			if e.tr.on {
				e.tr.record("verify", parent, s.id, c0, time.Now())
			}
			if !s.started {
				s.started = true
				if w != nil {
					w.ttfb = append(w.ttfb, float64(time.Since(s.dueWall)))
				}
			}
			s.off += int64(n)
			if w != nil {
				w.bytes += int64(n)
				w.blocks++
			}
		}
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNoData):
			return false, nil
		case errors.Is(err, io.EOF):
			if s.off != int64(len(clip)) {
				return false, fmt.Errorf("EOF after %d of %d bytes", s.off, len(clip))
			}
			return true, nil
		default:
			return false, err
		}
	}
}

// refusalsBefore reconstructs how many replicas refused before node
// admitted the stream. The cluster tries serving replicas in ascending
// stream load, ties in placement order; the admitting node already
// counts the new stream.
func (e *engine) refusalsBefore(clip, node int) int {
	load := func(id int) int {
		n := e.cl.NodeServer(id).ActiveStreams()
		if id == node {
			n--
		}
		return n
	}
	mine := load(node)
	before, passed := 0, false
	for _, id := range e.cl.Replicas(e.names[clip]) {
		if id == node {
			passed = true
			continue
		}
		if !e.cl.NodeAlive(id) {
			continue
		}
		if l := load(id); l < mine || (l == mine && !passed) {
			before++
		}
	}
	return before
}

// auditRound checks the paper's admission invariant on every serving
// node and samples disk utilisation; it runs between rounds, outside
// the round's span.
func (e *engine) auditRound(r int64) {
	for i := 0; i < e.cl.NodeCount(); i++ {
		if !e.cl.NodeAlive(i) {
			continue
		}
		srv := e.cl.NodeServer(i)
		if err := srv.CheckAdmission(); err != nil {
			e.violate("round %d node %d: CheckAdmission: %v", r, i, err)
		}
		if w := e.win; w != nil {
			for d := 0; d < srv.Disks(); d++ {
				w.utilSum += float64(srv.DiskLoad(d)) / float64(srv.Budget())
				w.utilN++
			}
		}
	}
}

// faultScript drives node 0's fail-stop/rejoin cycle and node 2's
// corruptions in timed rounds.
func (e *engine) faultScript() {
	e.timed++
	k := e.timed % failCycle
	switch {
	case k == rotAt:
		next := e.rot.Round() + 1
		disk := int(e.rots % int64(e.cl.NodeServer(rotNode).Disks()))
		e.rots++
		e.rot.AddSilentCorruption(faultinject.SilentCorruption{Disk: disk, Block: -1, Rate: 1, From: next, Until: next + 1, Bits: 3})
	case k == failAt:
		inj := e.cl.Injector()
		e.failRound = e.cl.Round()
		e.detected = false
		inj.AddFailStop(faultinject.FailStop{Disk: failNode, Round: e.failRound + 1})
	case k == rejoinAt:
		if !e.detected {
			e.violate("node %d fail-stop at round %d not detected by round %d", failNode, e.failRound, e.cl.Round())
		}
		if err := e.cl.RejoinNode(failNode); err != nil {
			e.violate("rejoin node %d: %v", failNode, err)
		}
		e.failRound = 0
	case e.failRound > 0 && !e.detected && !e.cl.NodeAlive(failNode):
		e.detected = true
		e.win.nodeDetect = append(e.win.nodeDetect, float64(e.cl.Round()-e.failRound))
	}
}

// openWindow starts a timed window whose fixed accounting prefix covers
// the next engFixedRounds rounds.
func (e *engine) openWindow() {
	r := e.cl.Round()
	e.win = &engWindow{start: time.Now(), cpu0: selfCPU(), firstRound: r, fixedEnd: r + engFixedRounds, st0: e.cl.Stats()}
	e.win.slices.start(readHostTicks())
}

// runWindow runs rounds for at least d and until every session of the
// fixed prefix has been admitted or refused.
func (e *engine) runWindow(d time.Duration) (*engWindow, error) {
	e.openWindow()
	w := e.win
	minRounds := w.firstRound + engFixedRounds + engPatience + 1
	deadline := w.start.Add(d)
	for e.cl.Round() < minRounds || time.Now().Before(deadline) {
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	w.wall = time.Since(w.start)
	return w, nil
}

// engineSpec is one engine workload.
type engineSpec struct {
	rate     float64 // session arrivals per round
	degraded bool
}

// runEngine runs an engine workload.
func runEngine(ctx *runCtx, spec engineSpec) (*report, error) {
	rep := newReport()
	clips := genClips(engClips, engClipSize)

	// Set-up: build the cluster engSetups times; keep the last.
	var setups, loads sample
	var cl *cluster.Cluster
	for i := 0; i < engSetups; i++ {
		cl = nil
		runtime.GC()
		var load time.Duration
		d, err := timeCPUBound(func() (err error) {
			cl, load, err = buildEngine(clips)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(d))
		loads = append(loads, float64(load))
	}
	runtime.GC()
	rep.e2e["setup_s"] = setups.median() / float64(time.Second)
	rep.layer["storage.load_ms_per_MB"] = loads.median() / float64(time.Millisecond) / megabytes(int64(engClips)*engClipSize)

	zipf, err := workload.NewZipfSelector(engClips, engZipf)
	if err != nil {
		return nil, err
	}
	// Arrival times are in rounds: one unit of the source's clock is one
	// round, and the horizon is far beyond any run.
	src, err := workload.NewPoissonSource(spec.rate, 1e12, zipf, ctx.seed)
	if err != nil {
		return nil, err
	}
	e := &engine{cl: cl, clips: clips, src: src, tr: newTracer(time.Now()), audit: ctx.trace, buf: make([]byte, 64<<10), degraded: spec.degraded}
	for i := range clips {
		e.names = append(e.names, clipName(i))
	}
	e.next, e.more = src.Next()

	for i := 0; i < engWarmRounds; i++ {
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	if spec.degraded {
		if err := e.degrade(rep); err != nil {
			return nil, err
		}
	}

	a, b, err := timedWindows(ctx, func(d time.Duration, traced bool) (*engWindow, error) {
		e.tr.on = traced
		return e.runWindow(d)
	})
	if err != nil {
		return nil, err
	}

	e.fillE2E(rep, a)
	rep.e2e["peak_rss_MB"], err = procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	if b != nil {
		if err := e.fillLayers(rep, a, b, spec); err != nil {
			return nil, err
		}
	}
	e.checkEnd(rep, spec)
	rep.violations = append(rep.violations, e.violations...)
	rep.spans = e.tr
	return rep, nil
}

// degrade scripts engine-degraded's pre-timing faults: silent
// corruption on one disk of node 1 until node 1's detector declares the
// disk failed (nodes have no spares, so it stays degraded), then a slow
// stream of corruptions on node 2 for the timed rounds (faultScript).
func (e *engine) degrade(rep *report) error {
	srv := e.cl.NodeServer(corruptNode)
	inj := srv.InjectFaults(faultinject.Plan{Seed: 11})
	from := inj.Round() + 1
	inj.AddSilentCorruption(faultinject.SilentCorruption{Disk: corruptDisk, Block: -1, Rate: 1, From: from, Bits: 3})
	for i := 0; len(srv.Stats().FailedDisks) == 0; i++ {
		if i == detectBudget {
			return fmt.Errorf("node %d: disk %d corrupted for %d rounds and never declared failed", corruptNode, corruptDisk, detectBudget)
		}
		if err := e.step(); err != nil {
			return err
		}
	}
	srv.InjectFaults(faultinject.Plan{Seed: 11}) // the rot stops
	if lat := srv.DetectLatencies(); len(lat) > 0 {
		rep.layer["health.disk_detect_rounds"] = float64(lat[len(lat)-1])
	}

	e.rot = e.cl.NodeServer(rotNode).InjectFaults(faultinject.Plan{Seed: 12})
	return nil
}

// fillE2E derives the end-to-end metrics from an untraced window.
func (e *engine) fillE2E(rep *report, w *engWindow) {
	rep.e2e["goodput_MBps"] = w.slices.goodput(false)
	rep.e2e["cpu_ms_per_MB"] = w.slices.cpuPerMB()
	ttfb := w.ttfb.sorted()
	rep.e2e["ttfb_p50_ms"] = quantile(ttfb, 0.5) / 1e6
	rep.e2e["ttfb_p99_ms"] = quantile(ttfb, 0.99) / 1e6
	rounds := w.rounds.sorted()
	rep.e2e["round_p50_ms"] = quantile(rounds, 0.5) / 1e6
	rep.e2e["round_p99_ms"] = quantile(rounds, 0.99) / 1e6
	rep.e2e["admit_wait_p99_rounds"] = w.admitWait.q(0.99)
	rep.e2e["reject_pct"] = pct(float64(w.rejected), float64(w.offered))
	rep.e2e["failed_pct"] = pct(float64(w.failed), float64(w.sessions))
	rep.attempted, rep.failed = w.sessions, w.failed
	rep.notes = append(rep.notes,
		tailNote("ttfb", ttfb, 1e6, "ms"),
		tailNote("round", rounds, 1e6, "ms"),
		"rate slices: "+w.slices.note(),
		fmt.Sprintf("timed window: %d rounds (%d slices of %d) in %.2f s, %d sessions due in the first %d rounds (%d refused), %d stream opens",
			len(w.rounds), len(w.slices.slices), engSliceRounds, w.wall.Seconds(), w.offered, engFixedRounds, w.rejected, w.openCalls))
}

// fillLayers derives the per-layer metrics: spans and counters from the
// traced window b, overhead against the untraced window a.
func (e *engine) fillLayers(rep *report, a, b *engWindow, spec engineSpec) error {
	lt, err := e.tr.summarize()
	if err != nil {
		return err
	}
	L := rep.layer
	L["cluster.open_us_p50"] = durQ(lt, "cluster.open", 0.5, time.Microsecond)
	L["cluster.open_us_p99"] = durQ(lt, "cluster.open", 0.99, time.Microsecond)
	L["cluster.open_calls_per_admit"] = ratio(float64(b.openCalls), float64(b.admits))
	L["cluster.tick_ms_p50"] = durQ(lt, "tick", 0.5, time.Millisecond)
	L["cluster.tick_ms_p99"] = durQ(lt, "tick", 0.99, time.Millisecond)
	if r := lt["cluster.read"]; r != nil {
		L["cluster.read_us_per_MB"] = us(r.total) / megabytes(b.bytes)
	}
	st := e.cl.Stats()
	L["cluster.failed_over"] = float64(st.FailedOver - b.st0.FailedOver)
	L["cluster.parked_stream_rounds"] = float64(b.parkedRounds)
	L["cluster.node_detect_rounds"] = b.nodeDetect.median()
	L["admission.refusals_per_open"] = ratio(float64(b.refusals), float64(b.openCalls))
	L["sched.disk_util_pct"] = pct(b.utilSum, float64(b.utilN))
	L["core.blocks_delivered"] = float64(b.blocks)
	var det, repaired, scrub int64
	for i, n := range st.Node {
		n0 := b.st0.Node[i]
		det += n.CorruptionsDetected - n0.CorruptionsDetected
		repaired += n.CorruptionRepairs - n0.CorruptionRepairs
		scrub += (n.ScrubCycles-n0.ScrubCycles)*int64(n.ScrubTotal) + int64(n.ScrubScanned-n0.ScrubScanned)
	}
	L["integrity.corruptions_detected"] = float64(det)
	L["integrity.repairs"] = float64(repaired)
	L["integrity.scrub_blocks"] = float64(scrub)
	L["integrity.crc_us_per_block"] = microBench(func(blk []byte) { integrity.Sum(blk) })
	if spec.degraded {
		dst := make([]byte, blockSize)
		L["recovery.xor_us_per_block"] = microBench(func(blk []byte) { recovery.XORInto(dst, blk) })
	}

	// The round's children must add up to it: the phases share their
	// boundary timestamps.
	round := lt["round"]
	var phases time.Duration
	for _, n := range []string{"open", "tick", "read"} {
		if l := lt[n]; l != nil {
			phases += l.total
		}
	}
	if round == nil || round.total == 0 {
		return fmt.Errorf("trace: no harness rounds recorded")
	}
	L["trace.phase_sum_pct"] = pct(float64(phases), float64(round.total))
	if d := phases - round.total; d > time.Microsecond || d < -time.Microsecond {
		e.violate("trace: open+tick+read = %v, harness rounds = %v", phases, round.total)
	}
	L["trace.overhead_round_p50_ms"] = (b.rounds.median() - a.rounds.median()) / 1e6
	L["trace.overhead_goodput_MBps"] = b.slices.goodput(false) - a.slices.goodput(false)
	L["trace.spans"] = float64(len(e.tr.spans))
	rep.notes = append(rep.notes, selfTable(lt)...)
	return nil
}

// checkEnd applies the correctness gates every engine run must pass.
func (e *engine) checkEnd(rep *report, spec engineSpec) {
	st := e.cl.Stats()
	var hic, ovf int64
	degraded := 0
	for i, n := range st.Node {
		if n.Hiccups != 0 || n.Overflows != 0 {
			e.violate("node %d: hiccups=%d overflows=%d, want 0", i, n.Hiccups, n.Overflows)
		}
		hic += n.Hiccups
		ovf += n.Overflows
		degraded += e.cl.NodeServer(i).DegradedDisks()
	}
	rep.layer["core.hiccups"] = float64(hic)
	rep.layer["core.overflows"] = float64(ovf)
	if spec.degraded {
		rep.layer["recovery.degraded_disks"] = float64(degraded)
		if st.Terminated != 0 {
			e.violate("engine-degraded lost %d streams; every clip has %d replicas", st.Terminated, engReplicas)
		}
	}
}

// microBench times fn on one blockSize block and returns the median
// per-call time in µs over a fixed number of repetitions.
func microBench(fn func(blk []byte)) float64 {
	blk := make([]byte, blockSize)
	rand.New(rand.NewSource(2)).Read(blk)
	const reps, per = 64, 16
	var s sample
	for i := 0; i < reps; i++ {
		t := time.Now()
		for j := 0; j < per; j++ {
			fn(blk)
		}
		s = append(s, us(time.Since(t))/per)
	}
	return s.median()
}
