package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// Source streams a compiled scenario's arrivals in nondecreasing time
// order. It implements workload.ArrivalSource, holds O(active pauses)
// memory no matter how many subscribers the profile declares, and is
// fully determined by (profile, seed): session starts come from a
// non-homogeneous Poisson process sampled by thinning against the
// profile's peak rate (a squeeze envelope settles most candidates
// without evaluating the rate curve), clip choice from the Zipf
// selector (with flash crowds concentrating their excess on the hot
// clip), and VCR behavior (early stops, pause/resume) from the same
// seeded stream.
type Source struct {
	c   *Compiled
	rng *rand.Rand
	sel workload.Selector

	env    []rateBounds // squeeze envelope: envSegments slices of the day
	envInv float64      // segments per sim second

	clipSim   units.Duration // one clip's playback time, sim seconds
	resumeSim units.Duration // mean pause gap, sim seconds

	t        units.Duration // thinning clock
	nhppDone bool
	have     bool             // next is valid
	next     workload.Request // lookahead session start
	resumes  resumeHeap       // scheduled resume segments
}

// NewSource builds the arrival source for one run. clipLen is the
// catalog's clip playback length in simulated seconds — pause points and
// resume segments are scheduled against real playback time, which the
// profile's virtual clock does not compress.
func NewSource(c *Compiled, clipLen units.Duration, seed int64) (*Source, error) {
	if clipLen <= 0 {
		return nil, fmt.Errorf("scenario: clip length %v must be positive", clipLen)
	}
	p := c.Profile
	var sel workload.Selector
	if p.Zipf > 0 {
		z, err := workload.NewZipfSelector(p.CatalogSize, p.Zipf)
		if err != nil {
			return nil, err
		}
		sel = z
	} else {
		sel = workload.UniformSelector{N: p.CatalogSize}
	}
	return &Source{
		c:       c,
		rng:     rand.New(rand.NewSource(seed)),
		sel:     sel,
		env:     c.envelope(),
		envInv:  envSegments / float64(c.Duration()),
		clipSim: clipLen,
		// ResumeMin is virtual minutes; a virtual hour is 3600/TimeScale
		// sim seconds.
		resumeSim: units.Duration(p.Mix.ResumeMin*60) / units.Duration(p.TimeScale),
	}, nil
}

// Next returns the next request in arrival order. Session starts and
// scheduled resume segments interleave by timestamp; a resume re-enters
// admission as a fresh request for the remaining fraction of the clip.
func (s *Source) Next() (workload.Request, bool) {
	if !s.have && !s.nhppDone {
		s.advance()
	}
	// Emit whichever is earlier: the pending resume or the next start.
	if len(s.resumes) > 0 && (!s.have || s.resumes[0].at <= s.next.Arrival) {
		ev := s.resumes.pop()
		return workload.Request{Arrival: ev.at, ClipID: ev.clip, Frac: ev.frac}, true
	}
	if !s.have {
		return workload.Request{}, false
	}
	s.have = false
	return s.next, true
}

// advance draws the next accepted NHPP session start, applies the
// session mix, and parks it in s.next. Thinning: propose candidates at
// the constant peak rate, accept each with prob rate(t)/peak, i.e. when
// x = U·peak < Rate(t). The envelope segment holding t bounds Rate(t),
// so x ≥ hi rejects and x < lo accepts without evaluating Rate; only a
// candidate between the bounds pays for the exact comparison. Every
// decision equals x < Rate(t), so the stream is bit-identical to plain
// thinning.
func (s *Source) advance() {
	peak := s.c.PeakRate()
	for {
		s.t += units.Duration(s.rng.ExpFloat64() / peak)
		if s.t >= s.c.Duration() {
			s.nhppDone = true
			return
		}
		x := s.rng.Float64() * peak
		if b := s.bounds(s.t); x >= b.hi || x >= b.lo && x >= s.c.Rate(s.t) {
			continue // thinned out
		}
		s.next = s.session(s.t)
		s.have = true
		return
	}
}

// envSegments is the squeeze envelope's resolution: the day is cut into
// this many equal slices. Finer slices tighten the bounds around the
// diurnal curve (fewer exact evaluations) at 16 bytes each.
const envSegments = 2048

// rateBounds brackets the float value Rate returns anywhere in one
// envelope segment: lo ≤ Rate(t) ≤ hi. A segment that straddles a phase
// edge has lo = -Inf and hi = +Inf, so every candidate there takes the
// exact comparison.
type rateBounds struct{ lo, hi float64 }

// envelope builds the squeeze table for Source. Segment j spans
// [a_j, a_{j+1}] with a_j = j·w. Away from phase edges Rate is one
// smooth piece there — constant, or a sinusoid that is monotone between
// its peak and trough — so its extremes over the segment are its values
// at the two ends and at any peak or trough inside. The bounds are then
// widened by 1e-9 of the peak rate, far beyond the few-ulp error of
// Rate's float evaluation (its cosine argument stays within ±2π), and
// each segment absorbs its neighbours' bounds, because the lookup
// int(t·envSegments/duration) can round t one segment off.
//
// It lives here rather than in Compile: it costs ~2k Rate evaluations,
// a fraction of a millisecond that only a run that samples arrivals
// should pay.
func (c *Compiled) envelope() []rateBounds {
	w := c.duration / envSegments
	// The last segment ends at the latest time the sampler can draw, so
	// a phase ending with the day is not read past its end.
	end := units.Duration(math.Nextafter(float64(c.duration), 0))
	at := func(j int) units.Duration {
		if j == envSegments {
			return end
		}
		return units.Duration(j) * w
	}
	tol := 1e-9 * c.peakRate
	env := make([]rateBounds, envSegments)
	for j := range env {
		a, b := at(j), at(j+1)
		if c.straddles(a, b) {
			env[j] = rateBounds{math.Inf(-1), math.Inf(1)}
			continue
		}
		ra, rb := c.Rate(a), c.Rate(b)
		lo, hi := math.Min(ra, rb), math.Max(ra, rb)
		if ph := c.ratePhase(a); ph != nil && ph.diurnal {
			mult := c.flashMult(a)
			peak, trough := c.diurnalTurns(ph, a, b)
			if peak {
				hi = math.Max(hi, c.baseRate*mult)
			}
			if trough {
				lo = math.Min(lo, c.baseRate*ph.minFrac*mult)
			}
		}
		env[j] = rateBounds{lo - tol, hi + tol}
	}
	// Widen in place: prev holds segment j-1's own bounds.
	prev := env[0]
	for j := range env {
		own := env[j]
		if j+1 < envSegments {
			env[j] = env[j].union(env[j+1])
		}
		env[j] = env[j].union(prev)
		prev = own
	}
	return env
}

func (b rateBounds) union(o rateBounds) rateBounds {
	return rateBounds{math.Min(b.lo, o.lo), math.Max(b.hi, o.hi)}
}

// straddles reports whether a phase edge lies in [a, b]. An edge at 0
// splits nothing, since the sampler never draws t < 0; one at the day's
// end lies past the last segment.
func (c *Compiled) straddles(a, b units.Duration) bool {
	in := func(e units.Duration) bool { return e > 0 && e >= a && e <= b }
	for _, ph := range c.rate {
		if in(ph.start) || in(ph.end) {
			return true
		}
	}
	for _, ph := range c.flash {
		if in(ph.start) || in(ph.end) {
			return true
		}
	}
	return false
}

// diurnalTurns reports whether the diurnal phase's peak or trough lies
// in [a, b] — or within a hair of it, which only loosens the bounds.
// The shape's phase in cycles is (hour − peakHour)/DayHours: peaks sit
// at whole cycles, troughs at half cycles.
func (c *Compiled) diurnalTurns(ph *ratePhase, a, b units.Duration) (peak, trough bool) {
	const slack = 1e-9 // half-cycles
	half := func(t units.Duration) float64 {
		return 2 * (c.virtualHour(t) - ph.peakHour) / c.Profile.DayHours
	}
	for k := math.Ceil(half(a) - slack); k <= half(b)+slack; k++ {
		if math.Mod(k, 2) == 0 {
			peak = true
		} else {
			trough = true
		}
	}
	return peak, trough
}

// bounds returns the envelope segment that holds t.
func (s *Source) bounds(t units.Duration) rateBounds {
	return s.env[min(int(float64(t)*s.envInv), len(s.env)-1)]
}

// session turns an accepted start time into a request: clip choice, then
// the lean-back / VCR split.
func (s *Source) session(t units.Duration) workload.Request {
	// Flash crowds concentrate their excess on the hot clip: of a rate
	// multiplied by m, the fraction (m-1)/m is crowd surge, and the crowd
	// is there for one title.
	var clip int
	if ph := s.c.activeFlash(t); ph != nil && s.rng.Float64() < (ph.mult-1)/ph.mult {
		clip = ph.clip
	} else {
		clip = s.sel.Pick(s.rng)
	}

	req := workload.Request{Arrival: t, ClipID: clip}
	mix := s.c.Profile.Mix
	if mix.VCRShare <= 0 || s.rng.Float64() >= mix.VCRShare {
		return req // lean-back: the whole clip
	}
	u := s.rng.Float64()
	switch {
	case u < mix.Pause:
		// Watch 10–50% of the clip, pause, come back after an
		// exponential gap for the rest — if the day isn't over by then.
		watched := 0.1 + 0.4*s.rng.Float64()
		gap := units.Duration(s.rng.ExpFloat64()) * s.resumeSim
		resumeAt := t + units.Duration(watched)*s.clipSim + gap
		if resumeAt < s.c.Duration() {
			s.resumes.push(resumeEvent{at: resumeAt, clip: clip, frac: 1 - watched})
		}
		req.Frac = watched
	case u < mix.Pause+mix.EarlyStop:
		// Lose interest 10–90% of the way through; no resume.
		req.Frac = 0.1 + 0.8*s.rng.Float64()
	}
	return req
}

// resumeEvent is a scheduled second half of a paused session.
type resumeEvent struct {
	at   units.Duration
	clip int
	frac float64
}

// resumeHeap is a min-heap on resume time. Hand-rolled (not
// container/heap) to keep Next allocation-free on the steady path.
type resumeHeap []resumeEvent

func (h *resumeHeap) push(ev resumeEvent) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].at <= (*h)[i].at {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *resumeHeap) pop() resumeEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].at < old[small].at {
			small = l
		}
		if r < n && old[r].at < old[small].at {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}
