package scenario

import (
	"fmt"
	"math"

	"ftcms/internal/units"
)

// MaintEvent is one compiled maintenance action on the engines' clock.
type MaintEvent struct {
	// Action is one of the Action* constants.
	Action string
	// Node is the target node (ignored by join).
	Node int
	// At is the event time in simulated seconds.
	At units.Duration
}

// ratePhase is a base-rate window on the sim clock. Diurnal phases keep
// their shape parameters in virtual hours; the shape is evaluated on the
// virtual clock so TimeScale never distorts the curve.
type ratePhase struct {
	start, end units.Duration // sim seconds
	diurnal    bool
	level      float64 // constant: multiplier
	peakHour   float64 // diurnal: virtual hour of the peak
	minFrac    float64 // diurnal: trough fraction of the base rate
}

// flashPhase is a flash-crowd window on the sim clock.
type flashPhase struct {
	start, end units.Duration
	mult       float64
	clip       int
}

// Compiled is a profile mapped onto the simulators' clock: every virtual
// hour collapses to 3600/TimeScale simulated seconds and the per-second
// arrival rate scales up by TimeScale, so the day keeps its total
// session count and its shape while running in minutes.
type Compiled struct {
	// Profile is the validated, default-filled source profile.
	Profile Profile

	duration units.Duration // sim seconds for the whole day
	patience units.Duration // sim seconds (0 = forever)
	bucket   units.Duration // timeline bucket width, sim seconds
	baseRate float64        // sim arrivals/sec at shape 1.0: λ·TimeScale
	peakRate float64        // conservative bound over rate(t), for thinning
	rate     []ratePhase
	flash    []flashPhase
	maint    []MaintEvent
}

// Compile validates a profile and maps it onto the simulated clock.
func Compile(p Profile) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	s := p.TimeScale
	hour := units.Duration(3600 / s) // sim seconds per virtual hour
	c := &Compiled{
		Profile:  p,
		duration: units.Duration(p.DayHours) * hour,
		patience: units.Duration(p.PatienceMin/60) * hour,
		bucket:   units.Duration(p.BucketMin/60) * hour,
		// Virtual arrivals/virtual second, sped up by the compression.
		baseRate: float64(p.Subscribers) * p.SessionsPerDay / (p.DayHours * 3600) * s,
	}

	maxBase, maxFlash := 0.0, 1.0
	for _, ph := range p.Phases {
		switch ph.Kind {
		case KindConstant:
			level := 1.0
			if ph.Level != nil {
				level = *ph.Level
			}
			c.rate = append(c.rate, ratePhase{
				start: units.Duration(ph.StartHour) * hour,
				end:   units.Duration(ph.EndHour) * hour,
				level: level,
			})
			maxBase = math.Max(maxBase, level)
		case KindDiurnal:
			c.rate = append(c.rate, ratePhase{
				start:    units.Duration(ph.StartHour) * hour,
				end:      units.Duration(ph.EndHour) * hour,
				diurnal:  true,
				peakHour: ph.PeakHour,
				minFrac:  ph.MinFrac,
			})
			maxBase = math.Max(maxBase, 1)
		case KindFlashCrowd:
			c.flash = append(c.flash, flashPhase{
				start: units.Duration(ph.StartHour) * hour,
				end:   units.Duration(ph.EndHour) * hour,
				mult:  ph.Multiplier,
				clip:  ph.Clip,
			})
			maxFlash = math.Max(maxFlash, ph.Multiplier)
		case KindMaintenance:
			c.maint = append(c.maint, MaintEvent{
				Action: ph.Action,
				Node:   ph.Node,
				At:     units.Duration(ph.Hour) * hour,
			})
		}
	}
	// An empty rate schedule means flat base load all day.
	if len(c.rate) == 0 {
		c.rate = []ratePhase{{start: 0, end: c.duration, level: 1}}
		maxBase = math.Max(maxBase, 1)
	}
	c.peakRate = c.baseRate * maxBase * maxFlash
	if c.peakRate <= 0 {
		return nil, fmt.Errorf("scenario: profile %q offers no load (peak rate 0)", p.Name)
	}
	return c, nil
}

// Duration is the compressed day's length in simulated seconds.
func (c *Compiled) Duration() units.Duration { return c.duration }

// Patience is the abandonment bound in simulated seconds (0 = forever).
func (c *Compiled) Patience() units.Duration { return c.patience }

// Bucket is the timeline bucket width in simulated seconds.
func (c *Compiled) Bucket() units.Duration { return c.bucket }

// PeakRate bounds Rate over the whole day; the thinning sampler proposes
// candidates at this rate.
func (c *Compiled) PeakRate() float64 { return c.peakRate }

// Maintenance returns the compiled maintenance schedule.
func (c *Compiled) Maintenance() []MaintEvent { return c.maint }

// Rate is the instantaneous arrival rate (requests per simulated second)
// at sim time t: the base curve times any active flash-crowd multiplier.
func (c *Compiled) Rate(t units.Duration) float64 {
	return c.baseRate * c.baseShape(t) * c.flashMult(t)
}

// virtualHour converts sim time back to the profile's virtual clock.
func (c *Compiled) virtualHour(t units.Duration) float64 {
	return float64(t) * c.Profile.TimeScale / 3600
}

func (c *Compiled) baseShape(t units.Duration) float64 {
	ph := c.ratePhase(t)
	switch {
	case ph == nil:
		return 0 // gap in the schedule: no offered load
	case !ph.diurnal:
		return ph.level
	}
	// Sinusoid on the virtual clock: 1.0 at peakHour, minFrac at the
	// antipode, period one day.
	tau := c.virtualHour(t)
	cos := math.Cos(2 * math.Pi * (tau - ph.peakHour) / c.Profile.DayHours)
	return ph.minFrac + (1-ph.minFrac)*(1+cos)/2
}

// ratePhase returns the rate phase covering t (nil in a gap).
func (c *Compiled) ratePhase(t units.Duration) *ratePhase {
	for i := range c.rate {
		if t >= c.rate[i].start && t < c.rate[i].end {
			return &c.rate[i]
		}
	}
	return nil
}

// flashMult returns the active flash multiplier at t (1 outside crowds).
func (c *Compiled) flashMult(t units.Duration) float64 {
	if ph := c.activeFlash(t); ph != nil {
		return ph.mult
	}
	return 1
}

func (c *Compiled) activeFlash(t units.Duration) *flashPhase {
	for i := range c.flash {
		if t >= c.flash[i].start && t < c.flash[i].end {
			return &c.flash[i]
		}
	}
	return nil
}
