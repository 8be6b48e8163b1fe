package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile for
// it to say anything about the tail.
const minTail = 10

// tailLadder is the set of percentiles the tail rule picks from.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// quantile returns the q-quantile (0 < q <= 1) of ascending samples by
// nearest rank: the smallest sample with at least q·n samples at or
// below it. It returns 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps q·n from rounding up past an exact rank (0.99 is
	// not exact in binary).
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// above counts the ascending samples strictly greater than v.
func above(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// tailPercentile applies the tail rule: the highest percentile of
// tailLadder that leaves at least minTail samples above it. ok is false
// when not even the median does.
func tailPercentile(sorted []float64) (q, v float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		q := tailLadder[i]
		v := quantile(sorted, q)
		if above(sorted, v) >= minTail {
			return q, v, true
		}
	}
	return 0, 0, false
}

// sample is an unordered set of observations.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// q returns the sample's q-quantile.
func (s sample) q(q float64) float64 { return quantile(s.sorted(), q) }

// median returns the sample's median.
func (s sample) median() float64 { return s.q(0.5) }

// blockClock records, for one session, when the last byte of each
// fixed-size block arrived, measured from the session's first byte.
type blockClock struct {
	block int64
	first time.Time
	got   int64
	done  []time.Duration
}

func newBlockClock(block int64) *blockClock { return &blockClock{block: block} }

// observe accounts n bytes that arrived at at.
func (b *blockClock) observe(n int, at time.Time) {
	if n <= 0 {
		return
	}
	if b.got == 0 {
		b.first = at
	}
	b.got += int64(n)
	for int64(len(b.done)+1)*b.block <= b.got {
		b.done = append(b.done, at.Sub(b.first))
	}
}

// finish closes a trailing partial block that arrived at at.
func (b *blockClock) finish(at time.Time) {
	if b.got > int64(len(b.done))*b.block {
		b.done = append(b.done, at.Sub(b.first))
	}
}

// lateBlocks counts the paper's client-side hiccups: block k is due
// k·interval after the first byte, and it is late when its last byte
// arrives more than one interval after that.
func lateBlocks(done []time.Duration, interval time.Duration) int {
	late := 0
	for k, t := range done {
		if t > time.Duration(k+1)*interval {
			late++
		}
	}
	return late
}

// megabytes converts a byte count to decimal MB, the unit the rest of
// the repository uses.
func megabytes(n int64) float64 { return float64(n) / 1e6 }

// cpuMsPerMB is CPU time per verified payload megabyte; it is 0 when
// nothing was delivered.
func cpuMsPerMB(cpu time.Duration, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(cpu) / float64(time.Millisecond) / megabytes(bytes)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct is 100·num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// slice is one piece of a timed window: the payload verified in it, the
// wall time it took, the CPU the measured process spent, and how much
// of the machine the hypervisor took away meanwhile.
type slice struct {
	bytes     int64
	wall, cpu time.Duration
	steal     stolen
}

// stolen is the time a hypervisor ran other guests while this one's CPUs
// wanted to run (the steal column of /proc/stat), as a share of the busy
// ticks and as a share of all ticks.
type stolen struct{ ofBusy, ofAll float64 }

func stealBetween(from, to hostTicks) stolen {
	var st stolen
	d := float64(to.steal - from.steal)
	if b := to.busy - from.busy; b > 0 {
		st.ofBusy = d / float64(b)
	}
	if t := to.total - from.total; t > 0 {
		st.ofAll = d / float64(t)
	}
	return st
}

// ranFor returns the part of d the benchmark's work actually ran.
// Stolen time passes on the wall clock while no vCPU runs, and on a
// shared host it comes and goes by the second, so rates over raw wall
// time would measure the neighbours. A CPU-bound workload, which wants
// to run all the time, lost the stolen share of the busy ticks; a
// wall-clock paced one, mostly idle, lost its pacer's rounds while its
// CPU was stolen: the stolen share of all ticks. (Process CPU time
// already leaves steal out.)
func (st stolen) ranFor(d time.Duration, paced bool) time.Duration {
	share := st.ofBusy
	if paced {
		share = st.ofAll
	}
	return time.Duration(float64(d) * (1 - share))
}

// timeCPUBound runs fn, CPU-bound set-up work, and returns its wall time
// less the stolen share (see ranFor).
func timeCPUBound(fn func() error) (time.Duration, error) {
	h, t := readHostTicks(), time.Now()
	err := fn()
	d := time.Since(t)
	return stealBetween(h, readHostTicks()).ranFor(d, false), err
}

// slicer cuts a timed window into slices; the rate metrics are medians
// over them, so a burst of interference moves one slice, not the result.
type slicer struct {
	slices []slice
	// base holds the cumulative bytes, CPU and host ticks at the start of
	// the open slice.
	base     slice
	baseHost hostTicks
}

// start records the host ticks at the window's start.
func (s *slicer) start(h hostTicks) { s.baseHost = h }

// cut closes the open slice given the window's cumulative bytes and CPU,
// the open slice's wall time and the host ticks now.
func (s *slicer) cut(bytes int64, cpu, wall time.Duration, h hostTicks) {
	s.slices = append(s.slices, slice{bytes: bytes - s.base.bytes, wall: wall, cpu: cpu - s.base.cpu, steal: stealBetween(s.baseHost, h)})
	s.base = slice{bytes: bytes, cpu: cpu}
	s.baseHost = h
}

// goodput returns the median over slices of verified MB per second of
// unstolen time (see ranFor).
func (s *slicer) goodput(paced bool) float64 {
	var v sample
	for _, sl := range s.slices {
		v = append(v, megabytes(sl.bytes)/sl.steal.ranFor(sl.wall, paced).Seconds())
	}
	return v.median()
}

// note summarizes the slices for the report.
func (s *slicer) note() string {
	var busy, all sample
	for _, sl := range s.slices {
		busy = append(busy, 100*sl.steal.ofBusy)
		all = append(all, 100*sl.steal.ofAll)
	}
	return fmt.Sprintf("%d slices; hypervisor steal per slice: median %.1f%% (max %.1f%%) of busy CPU time, %.1f%% of all", len(s.slices), busy.median(), busy.q(1), all.median())
}

// cpuPerMB returns the median over slices of CPU ms per verified MB.
func (s *slicer) cpuPerMB() float64 {
	var v sample
	for _, sl := range s.slices {
		v = append(v, cpuMsPerMB(sl.cpu, sl.bytes))
	}
	return v.median()
}
