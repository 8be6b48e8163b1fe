package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"ftcms/internal/autopilot"
	"ftcms/internal/scenario"
	"ftcms/internal/units"
)

// sim-evening runs the scenario simulator on a builtin closed-loop day.
const (
	simScenario = "primetime-autopilot"
	// simSeeds is the length of a run's seed list; the timed window
	// cycles through it.
	simSeeds = 3
	// simCompiles is how many times a run compiles the scenario before
	// its first day; every timed day compiles it once more. setup_s is
	// the median over all of them, spread over the run so one burst of
	// interference cannot move every sample.
	simCompiles = 21
	// simClipLen and simRate are scenario.Run's clip shape: 50-second
	// clips at MPEG-1 rate.
	simClipLen = 50 * units.Second
	simRate    = 1.5 * units.Mbps
)

// simWindow accumulates the simulated days of one timed window.
type simWindow struct {
	wall          time.Duration
	days          int
	offered, lost int
	refused       int // rejected plus shed
	simBytes      float64
	slices        slicer // one slice per day, in simulated bytes
	reqRate       sample // offered requests per wall second, per day
	dayWall       sample // ns
	drain         sample // ns to drain a day's arrival source alone
	drained       int
	compiles      sample // ns per scenario compile
	maxQueue      sample
	peakActive    sample
	actions       sample
}

// fingerprint condenses a day's outcome — offered, serviced, rejected,
// shed and the autopilot's action trace — into a short hash.
func fingerprint(r scenario.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d serviced=%d rejected=%d shed=%d\n", r.Offered, r.Serviced, r.Rejected, r.Shed)
	for _, a := range r.Actions {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:8])
}

// streamedBytes estimates the payload a simulated day streamed: the
// timeline's in-flight count at each bucket close, held for the bucket,
// at the clip rate.
func streamedBytes(r scenario.Result, bucket units.Duration) float64 {
	var streamSeconds float64
	for _, b := range r.Timeline {
		streamSeconds += float64(b.Active) * bucket.Seconds()
	}
	return streamSeconds * float64(simRate) / 8
}

func simDay(c *scenario.Compiled, seed int64, workers int) (scenario.Result, error) {
	return scenario.Run(scenario.RunConfig{Scenario: c, Seed: seed, Workers: workers, Autopilot: &autopilot.Config{}})
}

// runSimWindow simulates days for d, cycling through seeds, and checks
// each day against the fingerprint recorded for its seed. Traced, it
// also drains each day's arrival source alone.
func runSimWindow(seeds []int64, ref map[int64]string, d time.Duration, tr *tracer, rep *report) (*simWindow, error) {
	w := &simWindow{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		seed := seeds[i%len(seeds)]
		c, compile, err := compileScenario()
		if err != nil {
			return nil, err
		}
		w.compiles = append(w.compiles, float64(compile))
		h0, c0, t0 := readHostTicks(), selfCPU(), time.Now()
		sp := tr.begin("scenario.run", -1, int32(i), t0)
		res, err := simDay(c, seed, 0)
		t1 := time.Now()
		cpu := selfCPU() - c0
		tr.end(sp, t1)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if fp := fingerprint(res); fp != ref[seed] {
			rep.violations = append(rep.violations, fmt.Sprintf("seed %d: outcome %s at default workers, %s at Workers 1", seed, fp, ref[seed]))
		}
		w.days++
		w.dayWall = append(w.dayWall, float64(t1.Sub(t0)))
		w.offered += res.Offered
		w.refused += res.Rejected + res.Shed
		w.lost += res.LostStreams
		day := streamedBytes(res, c.Bucket())
		w.simBytes += day
		w.slices.slices = append(w.slices.slices, slice{bytes: int64(day), wall: t1.Sub(t0), cpu: cpu, steal: stealBetween(h0, readHostTicks())})
		w.reqRate = append(w.reqRate, float64(res.Offered)/t1.Sub(t0).Seconds())
		w.maxQueue = append(w.maxQueue, float64(res.MaxQueue))
		w.peakActive = append(w.peakActive, float64(res.PeakActive))
		w.actions = append(w.actions, float64(len(res.Actions)))
		if tr.on {
			n, dd, err := drainSource(c, seed)
			if err != nil {
				return nil, err
			}
			tr.record("workload.drain", -1, int32(i), t1, t1.Add(dd))
			w.drain = append(w.drain, float64(dd))
			w.drained += n
		}
	}
	w.wall = time.Since(start)
	return w, nil
}

// drainSource builds a day's arrival source and pulls every request
// from it, with no server behind it.
func drainSource(c *scenario.Compiled, seed int64) (int, time.Duration, error) {
	t := time.Now()
	src, err := scenario.NewSource(c, simClipLen, seed)
	if err != nil {
		return 0, 0, err
	}
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	return n, time.Since(t), nil
}

// compileScenario compiles the day's scenario and times it.
func compileScenario() (*scenario.Compiled, time.Duration, error) {
	t := time.Now()
	c, err := scenario.Builtin(simScenario)
	return c, time.Since(t), err
}

func runSim(ctx *runCtx) (*report, error) {
	rep := newReport()
	var compiles sample
	var c *scenario.Compiled
	for i := 0; i < simCompiles; i++ {
		var d time.Duration
		var err error
		if c, d, err = compileScenario(); err != nil {
			return nil, err
		}
		compiles = append(compiles, float64(d))
	}

	// Reference outcomes at Workers 1, before timing.
	seeds := make([]int64, simSeeds)
	ref := make(map[int64]string)
	for i := range seeds {
		seeds[i] = ctx.seed*simSeeds + int64(i)
		res, err := simDay(c, seeds[i], 1)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		ref[seeds[i]] = fingerprint(res)
		rep.notes = append(rep.notes, fmt.Sprintf("fingerprint seed=%d %s (offered=%d serviced=%d rejected=%d shed=%d actions=%d)",
			seeds[i], ref[seeds[i]], res.Offered, res.Serviced, res.Rejected, res.Shed, len(res.Actions)))
	}

	tr := newTracer(time.Now())
	a, b, err := timedWindows(ctx, func(d time.Duration, traced bool) (*simWindow, error) {
		tr.on = traced
		return runSimWindow(seeds, ref, d, tr, rep)
	})
	if err != nil {
		return nil, err
	}
	compiles = append(compiles, a.compiles...)
	if b != nil {
		compiles = append(compiles, b.compiles...)
	}
	rep.e2e["setup_s"] = compiles.median() / float64(time.Second)
	rep.layer["scenario.compile_ms"] = compiles.median() / float64(time.Millisecond)

	simMB := a.simBytes / 1e6
	rep.e2e["goodput_MBps"] = a.slices.goodput(false)
	rep.e2e["cpu_ms_per_MB"] = a.slices.cpuPerMB()
	rep.e2e["reject_pct"] = pct(float64(a.refused), float64(a.offered))
	rep.e2e["failed_pct"] = pct(float64(a.lost), float64(a.offered))
	rep.e2e["sim_requests_per_s"] = a.reqRate.median()
	if rep.e2e["peak_rss_MB"], err = procPeakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	// A simulated day is the unit of work; a day that errors or diverges
	// from its reference fails.
	rep.attempted = a.days
	rep.notes = append(rep.notes, "rate slices: "+a.slices.note())
	rep.notes = append(rep.notes, fmt.Sprintf("timed window: %d days in %.2f s, %d requests offered, %d refused, %d streams lost in simulation, %.0f simulated MB streamed",
		a.days, a.wall.Seconds(), a.offered, a.refused, a.lost, simMB))

	if b != nil {
		L := rep.layer
		L["sim.engine_s"] = (b.dayWall.median() - b.drain.median()) / 1e9
		L["workload.arrivals_per_s"] = float64(b.drained) / (float64(sumNS(b.drain)) / 1e9)
		L["sim.max_queue"] = b.maxQueue.median()
		L["sim.peak_active"] = b.peakActive.median()
		L["autopilot.actions"] = b.actions.median()
		L["trace.overhead_goodput_MBps"] = b.slices.goodput(false) - a.slices.goodput(false)
		L["trace.spans"] = float64(len(tr.spans))
		lt, err := tr.summarize()
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, selfTable(lt)...)
		rep.spans = tr
	}
	return rep, nil
}

func sumNS(s sample) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}
