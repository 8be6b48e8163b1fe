package scenario

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ftcms/internal/units"
	"ftcms/internal/workload"
)

// fingerprint hashes an arrival stream: FNV-64a over each request's
// arrival bits, clip id and watch fraction, plus the count.
func fingerprint(src workload.ArrivalSource) (n int, sum uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for {
		req, ok := src.Next()
		if !ok {
			return n, h.Sum64()
		}
		n++
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(req.Arrival)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(req.ClipID))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(req.Frac))
		h.Write(buf[:])
	}
}

const vcrProfile = `{
	"name": "vcr", "subscribers": 200000, "time_scale": 480,
	"zipf": 1.1, "patience_min": 8,
	"mix": {"vcr_share": 0.5, "pause": 0.3, "early_stop": 0.3, "resume_min": 20},
	"phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
		{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 4, "clip": 7}
	]
}`

func newTestSource(t *testing.T, seed int64) *Source {
	t.Helper()
	c := mustCompile(t, vcrProfile)
	src, err := NewSource(c, 50*units.Second, seed)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSourceGoldenStreams pins the exact seeded arrival streams of the
// builtin days and the VCR test profile: count and fingerprint per
// (profile, seed). Any change to thinning, clip choice or the session mix
// that moves a single draw shows up here. The three flash-crowd days
// share one arrival curve, so they share one stream.
func TestSourceGoldenStreams(t *testing.T) {
	flash := []goldenStream{{1, 1444278, 0xf7b6bb2cadc7d8c1}, {7, 1442781, 0x339e79bb4b69f3db}}
	builtin := map[string][]goldenStream{
		"primetime":                    {{1, 1176785, 0xb05540bc14921623}, {7, 1175391, 0xcec0eb73ba8fb339}},
		"primetime-autopilot":          flash,
		"primetime-flashcrowd":         flash,
		"primetime-flashcrowd-rebuild": flash,
		"steady":                       {{1, 1999707, 0x2442f74a084e45aa}, {7, 2001426, 0xa46e587fa0013c07}},
	}
	if testing.Short() {
		builtin = map[string][]goldenStream{"primetime-autopilot": flash[:1]}
	}
	for name, want := range builtin {
		c, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range want {
			g.check(t, name, c)
		}
	}
	goldenStream{42, 303713, 0x9cef35f01a449d3c}.check(t, "vcr", mustCompile(t, vcrProfile))
}

type goldenStream struct {
	seed int64
	n    int
	hash uint64
}

func (g goldenStream) check(t *testing.T, name string, c *Compiled) {
	t.Helper()
	if n, h := fingerprint(sourceFor(t, c, g.seed)); n != g.n || h != g.hash {
		t.Errorf("%s seed %d: stream (%d, %#x), want (%d, %#x)", name, g.seed, n, h, g.n, g.hash)
	}
}

// TestSourceOrderedWithinHorizon: arrivals (session starts interleaved
// with resume segments) are nondecreasing and inside [0, Duration), and
// fractions stay in [0, 1).
func TestSourceOrderedWithinHorizon(t *testing.T) {
	c := mustCompile(t, vcrProfile)
	src, err := NewSource(c, 50*units.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev units.Duration = -1
	n, resumes := 0, 0
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		n++
		if req.Arrival < prev {
			t.Fatalf("arrival %v after %v out of order", req.Arrival, prev)
		}
		prev = req.Arrival
		if req.Arrival < 0 || req.Arrival >= c.Duration() {
			t.Fatalf("arrival %v outside [0, %v)", req.Arrival, c.Duration())
		}
		if req.Frac < 0 || req.Frac >= 1 {
			t.Fatalf("frac %g outside [0, 1)", req.Frac)
		}
		if req.Frac > 0 && req.Frac >= 0.5 && req.Frac <= 0.9 {
			resumes++ // resume segments carry frac 1-watched ∈ [0.5, 0.9]
		}
		if req.ClipID < 0 || req.ClipID >= c.Profile.CatalogSize {
			t.Fatalf("clip %d outside catalog", req.ClipID)
		}
	}
	// 200k subscribers × 2 sessions/day, shaped: the diurnal curve's mean
	// is 0.55 (≈220k sessions), the flash hour adds ≈50k, and pauses
	// re-emit ≈37k resume segments — ≈307k requests, Poisson noise ≪ 1%.
	if n < 270000 || n > 340000 {
		t.Fatalf("emitted %d requests, want ≈307000 (sessions + resumes)", n)
	}
	if resumes == 0 {
		t.Fatal("no resume segments emitted despite pause mix")
	}
	// Exhausted sources stay exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("source emitted after exhaustion")
	}
}

// TestSourceDeterminism: same profile and seed → byte-identical stream;
// a different seed diverges.
func TestSourceDeterminism(t *testing.T) {
	n1, h1 := fingerprint(newTestSource(t, 42))
	n2, h2 := fingerprint(newTestSource(t, 42))
	if n1 != n2 || h1 != h2 {
		t.Fatalf("same seed diverged: (%d, %#x) vs (%d, %#x)", n1, h1, n2, h2)
	}
	_, h3 := fingerprint(newTestSource(t, 43))
	if h3 == h1 {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSourceExpectedCount: the NHPP realizes the profile's integrated
// rate — a flat profile's count lands within a few σ of subscribers ×
// sessions_per_day.
func TestSourceExpectedCount(t *testing.T) {
	c := mustCompile(t, `{"name": "flat", "subscribers": 100000, "sessions_per_day": 2, "time_scale": 480}`)
	src, err := NewSource(c, 50*units.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := fingerprint(src)
	want, sigma := 200000.0, math.Sqrt(200000.0)
	if math.Abs(float64(n)-want) > 6*sigma {
		t.Fatalf("flat day emitted %d sessions, want %g ± %g", n, want, 6*sigma)
	}
}

// TestSourceHotClipConcentration: inside the flash window the hot clip
// draws ≈(m-1)/m of arrivals plus its organic share; outside it does not.
func TestSourceHotClipConcentration(t *testing.T) {
	c := mustCompile(t, vcrProfile)
	src, err := NewSource(c, 50*units.Second, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The flash window [20h, 21h) at 480×: [150 s, 157.5 s).
	start, end := c.flash[0].start, c.flash[0].end
	var inWin, inWinHot, outWin, outWinHot int
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if req.Frac > 0 && req.Frac >= 0.5 {
			continue // skip resume segments: they re-emit earlier choices
		}
		if req.Arrival >= start && req.Arrival < end {
			inWin++
			if req.ClipID == 7 {
				inWinHot++
			}
		} else {
			outWin++
			if req.ClipID == 7 {
				outWinHot++
			}
		}
	}
	if inWin == 0 || outWin == 0 {
		t.Fatalf("degenerate split: %d in window, %d outside", inWin, outWin)
	}
	hotShare := float64(inWinHot) / float64(inWin)
	organic := float64(outWinHot) / float64(outWin)
	// Multiplier 4 concentrates 3/4 of the window's arrivals on clip 7.
	if hotShare < 0.70 || hotShare > 0.85 {
		t.Fatalf("hot clip drew %.3f of flash-window arrivals, want ≈0.75", hotShare)
	}
	if organic > 0.1 {
		t.Fatalf("hot clip drew %.3f outside the window, want its small organic share", organic)
	}
}

// TestSourceLeanBackProfile: with no VCR share every request plays the
// whole clip and nothing is scheduled for resume.
func TestSourceLeanBackProfile(t *testing.T) {
	c := mustCompile(t, `{"name": "lb", "subscribers": 50000, "time_scale": 480, "zipf": 1.1}`)
	src, err := NewSource(c, 50*units.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if req.Frac != 0 {
			t.Fatalf("lean-back profile emitted frac %g", req.Frac)
		}
	}
}

// TestSourceBadClipLen rejects nonpositive clip lengths.
func TestSourceBadClipLen(t *testing.T) {
	c := mustCompile(t, `{"name": "x", "subscribers": 10}`)
	if _, err := NewSource(c, 0, 1); err == nil {
		t.Fatal("accepted zero clip length")
	}
}

// refSource is plain Lewis-Shedler thinning, the sampler Source replaced:
// every candidate evaluates Rate. It shares Source's state and session
// mix and differs only in advance, so any divergence is the envelope's.
type refSource struct{ *Source }

// sourceFor builds c's arrival source for one seed, with 50 s clips.
func sourceFor(t testing.TB, c *Compiled, seed int64) *Source {
	t.Helper()
	src, err := NewSource(c, 50*units.Second, seed)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func (r refSource) Next() (workload.Request, bool) {
	s := r.Source
	if !s.have && !s.nhppDone {
		r.advance()
	}
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

func (r refSource) advance() {
	s := r.Source
	peak := s.c.PeakRate()
	for {
		s.t += units.Duration(s.rng.ExpFloat64() / peak)
		if s.t >= s.c.Duration() {
			s.nhppDone = true
			return
		}
		if s.rng.Float64()*peak >= s.c.Rate(s.t) {
			continue // thinned out
		}
		s.next = s.session(s.t)
		s.have = true
		return
	}
}

// matchReference drains Source and the reference sampler side by side
// and fails at the first request that differs in any bit.
func matchReference(t testing.TB, name string, c *Compiled, seed int64) int {
	t.Helper()
	got, want := sourceFor(t, c, seed), refSource{sourceFor(t, c, seed)}
	for n := 0; ; n++ {
		g, gok := got.Next()
		w, wok := want.Next()
		if gok != wok || g != w {
			t.Fatalf("%s seed %d: request %d is (%+v, %v), reference (%+v, %v)", name, seed, n, g, gok, w, wok)
		}
		if !gok {
			return n
		}
	}
}

// edgeProfiles stress the envelope: edges on segment boundaries, gaps,
// stacked flash windows, extreme day lengths and compressions, flat and
// fully modulated diurnal curves.
var edgeProfiles = map[string]string{
	// At 240× a 24 h day is 360 s in 2048 segments of 0.17578125 s, so
	// 6 h, 12 h, 18 h and 18.0234375 h are exact segment boundaries. The
	// diurnal phase falls until it ends at 12 h, below the level after.
	"edge-on-boundary": `{"name": "b", "subscribers": 40000, "time_scale": 240, "zipf": 1.1, "phases": [
		{"kind": "constant", "start_hour": 0, "end_hour": 6, "level": 0.5},
		{"kind": "diurnal", "start_hour": 6, "end_hour": 12, "peak_hour": 6, "min_frac": 0.1},
		{"kind": "constant", "start_hour": 12, "end_hour": 24, "level": 1},
		{"kind": "flashcrowd", "start_hour": 18, "end_hour": 18.0234375, "multiplier": 3, "clip": 2}]}`,
	"level-0-and-gap": `{"name": "g", "subscribers": 40000, "time_scale": 480, "phases": [
		{"kind": "constant", "start_hour": 0, "end_hour": 5, "level": 1},
		{"kind": "constant", "start_hour": 5, "end_hour": 7, "level": 0},
		{"kind": "diurnal", "start_hour": 9, "end_hour": 24, "peak_hour": 20, "min_frac": 0.3}]}`,
	"two-flash": `{"name": "f", "subscribers": 40000, "time_scale": 240, "zipf": 0.8,
		"mix": {"vcr_share": 0.5, "pause": 0.4, "early_stop": 0.3, "resume_min": 10}, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
		{"kind": "flashcrowd", "start_hour": 8, "end_hour": 8.5, "multiplier": 6, "clip": 3},
		{"kind": "flashcrowd", "start_hour": 20.25, "end_hour": 21, "multiplier": 2.5, "clip": 0}]}`,
	"day-1.5h": `{"name": "d", "subscribers": 20000, "day_hours": 1.5, "time_scale": 30, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 1.5, "peak_hour": 0.4, "min_frac": 0.05},
		{"kind": "flashcrowd", "start_hour": 1, "end_hour": 1.2, "multiplier": 2, "clip": 1}]}`,
	"day-168h": `{"name": "w", "subscribers": 20000, "day_hours": 168, "time_scale": 3600, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 100, "peak_hour": 90, "min_frac": 0.25},
		{"kind": "constant", "start_hour": 100, "end_hour": 168, "level": 0.7}]}`,
	"scale-1": `{"name": "s1", "subscribers": 20000, "time_scale": 1, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 3, "min_frac": 0.1}]}`,
	"scale-86400": `{"name": "s2", "subscribers": 20000, "time_scale": 86400, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 12, "min_frac": 0.1},
		{"kind": "flashcrowd", "start_hour": 11, "end_hour": 13, "multiplier": 5, "clip": 0}]}`,
	// Trough at hour 0 and 24: the curve touches zero at the day's ends.
	"min-frac-0": `{"name": "m0", "subscribers": 40000, "time_scale": 240, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 12, "min_frac": 0}]}`,
	"min-frac-1": `{"name": "m1", "subscribers": 40000, "time_scale": 240, "phases": [
		{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 7, "min_frac": 1}]}`,
}

// TestSourceMatchesReference: the envelope changes no decision — every
// builtin (at a reduced population, same curve) and every edge profile
// emits the reference sampler's stream bit for bit, for several seeds.
func TestSourceMatchesReference(t *testing.T) {
	for _, name := range BuiltinNames() {
		p, err := BuiltinProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Subscribers = 100000
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			matchReference(t, name, c, seed)
		}
	}
	for name, src := range edgeProfiles {
		c := mustCompile(t, src)
		for seed := int64(1); seed <= 3; seed++ {
			if n := matchReference(t, name, c, seed); n == 0 {
				t.Fatalf("%s seed %d: empty stream", name, seed)
			}
		}
	}
}

// checkEnvelope asserts lo ≤ Rate(t) ≤ hi at each segment's ends and
// midpoint (under both the segment's own index and the sampler's lookup
// of t) and at every phase edge and its float neighbours.
func checkEnvelope(t testing.TB, name string, c *Compiled) {
	t.Helper()
	src := sourceFor(t, c, 1)
	check := func(b rateBounds, at units.Duration, what string) {
		if r := c.Rate(at); !(b.lo <= r && r <= b.hi) {
			t.Fatalf("%s: Rate(%v) = %v outside %s bounds [%v, %v]", name, at, r, what, b.lo, b.hi)
		}
	}
	day := c.Duration()
	last := units.Duration(math.Nextafter(float64(day), 0))
	w := day / envSegments
	// near probes e and its float neighbours inside the day.
	near := func(e units.Duration, what string) {
		for _, at := range []float64{math.Nextafter(float64(e), math.Inf(-1)), float64(e), math.Nextafter(float64(e), math.Inf(1))} {
			if at >= 0 && at < float64(day) {
				check(src.bounds(units.Duration(at)), units.Duration(at), what)
			}
		}
	}
	for j := range src.env {
		a, b := units.Duration(j)*w, min(units.Duration(j+1)*w, last)
		for _, at := range []units.Duration{a, (a + b) / 2, b} {
			check(src.env[j], at, "own segment")
		}
		check(src.bounds((a+b)/2), (a+b)/2, "looked-up segment")
		near(a, "boundary")
	}
	for _, ph := range c.rate {
		near(ph.start, "edge")
		near(ph.end, "edge")
	}
	for _, ph := range c.flash {
		near(ph.start, "edge")
		near(ph.end, "edge")
	}
}

// TestEnvelopeBounds: the envelope brackets Rate's float value for every
// builtin and edge profile.
func TestEnvelopeBounds(t *testing.T) {
	for _, name := range BuiltinNames() {
		c, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, name, c)
	}
	for name, src := range edgeProfiles {
		checkEnvelope(t, name, mustCompile(t, src))
	}
}

// TestEnvelopeLookupOneSegmentOff: the sampler's lookup
// int(t·envSegments/day) rounds some floats just below a segment
// boundary into the segment after it — 399 of them on the flagship's
// 240×, 24-hour geometry. checkEnvelope, run on that day by
// TestEnvelopeBounds, probes every boundary's float neighbours through
// the lookup; this test pins that the probe meets such misplaced
// floats, so it is not vacuous.
func TestEnvelopeLookupOneSegmentOff(t *testing.T) {
	c, err := Builtin("primetime-autopilot")
	if err != nil {
		t.Fatal(err)
	}
	src := sourceFor(t, c, 1)
	w := c.Duration() / envSegments
	off := 0
	for j := 1; j < envSegments; j++ {
		below := units.Duration(math.Nextafter(float64(units.Duration(j)*w), 0))
		if int(float64(below)*src.envInv) == j {
			off++
		}
	}
	if off == 0 {
		t.Fatal("no boundary float is looked up one segment off")
	}
}

// TestEnvelopeIsTight: on the flagship day the envelope settles all but
// ~0.4% of candidates; a regression to near-exact bounds everywhere
// would keep the stream right but lose the speedup silently.
func TestEnvelopeIsTight(t *testing.T) {
	c, err := Builtin("primetime-autopilot")
	if err != nil {
		t.Fatal(err)
	}
	src := sourceFor(t, c, 1)
	// The fraction of candidates that land between the bounds is the
	// envelope's mean gap over the peak rate.
	gap := 0.0
	for _, b := range src.env {
		gap += math.Min(b.hi, c.PeakRate()) - math.Max(b.lo, 0)
	}
	frac := gap / envSegments / c.PeakRate()
	t.Logf("%.5f of candidates reach the exact comparison", frac)
	if frac > 0.01 {
		t.Fatalf("%.4f of candidates reach the exact comparison, want < 0.01", frac)
	}
}

// FuzzSourceThinning: for any valid profile built from the fuzzed phase
// hours, levels, multiplier, compression and day length, the envelope
// brackets Rate and the stream matches the reference sampler bit for bit.
func FuzzSourceThinning(f *testing.F) {
	f.Add(24.0, 240.0, 8.0, 20.0, 20.5, 0.1, 0.0, 20.0, 21.0, 4.0, int64(1))
	f.Add(1.5, 86400.0, 0.5, 1.0, 0.3, 0.0, 1.0, 0.75, 1.5, 1.0, int64(2))
	f.Add(168.0, 1.0, 84.0, 168.0, 100.0, 1.0, 0.5, 0.0, 84.0, 9.0, int64(3))
	f.Add(24.0, 480.0, 12.0, 24.0, 0.0, 0.0, 2.0, 12.0, 12.0234375, 3.0, int64(4))
	f.Fuzz(func(t *testing.T, day, scale, split, end, peakHour, minFrac, level, flashStart, flashEnd, mult float64, seed int64) {
		for _, v := range []float64{day, scale, split, end, peakHour, minFrac, level, flashStart, flashEnd, mult} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// Keep the peak within 32× the base rate so one input drains in
		// milliseconds: candidates scale with level × multiplier.
		level, mult = math.Mod(math.Abs(level), 4), 1+math.Mod(math.Abs(mult), 8)
		// A constant phase [0, split), a diurnal phase [split, end) and a
		// gap to the day's end, with one flash crowd on top.
		p := Profile{
			Name: "fuzz", DayHours: day, TimeScale: scale, Subscribers: 5000,
			Phases: []Phase{
				{Kind: KindConstant, StartHour: 0, EndHour: split, Level: &level},
				{Kind: KindDiurnal, StartHour: split, EndHour: end, PeakHour: peakHour, MinFrac: minFrac},
				{Kind: KindFlashCrowd, StartHour: flashStart, EndHour: flashEnd, Multiplier: mult},
			},
		}
		c, err := Compile(p)
		if err != nil {
			t.Skip()
		}
		checkEnvelope(t, "fuzz", c)
		matchReference(t, "fuzz", c, seed)
	})
}

// BenchmarkSourceDrain drains the flagship million-subscriber day: every
// thinning candidate, clip pick and session mix draw of one sim run.
func BenchmarkSourceDrain(b *testing.B) {
	c, err := Builtin("primetime-autopilot")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		src, err := NewSource(c, 50*units.Second, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			total++
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "arrivals/s")
}
