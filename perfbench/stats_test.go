package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		wantQ  float64
		wantOK bool
	}{
		{100000, 0.9999, true}, // 10 samples above p99.99
		{99999, 0.999, true},
		{1000, 0.99, true}, // exactly 10 above p99
		{999, 0.95, true},  // 9 above p99, 49 above p95
		{200, 0.95, true},
		{199, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	}
	for _, c := range cases {
		q, v, ok := tailPercentile(seq(c.n))
		if ok != c.wantOK || q != c.wantQ {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, 100*q, ok, 100*c.wantQ, c.wantOK)
			continue
		}
		if ok && above(seq(c.n), v) < minTail {
			t.Errorf("n=%d: only %d samples above p%g", c.n, above(seq(c.n), v), 100*q)
		}
	}
	// Ties: every sample equal leaves none above any percentile.
	same := make([]float64, 5000)
	if _, _, ok := tailPercentile(same); ok {
		t.Error("constant samples: tail rule found a percentile with samples above it")
	}
}

func TestLateBlocks(t *testing.T) {
	ms := time.Millisecond
	done := []time.Duration{ms / 2, 19 * ms / 10, 3 * ms, 41 * ms / 10, 9 * ms}
	// Block k is late when it lands after (k+1) intervals: block 3 at
	// 4.1 ms (> 4 ms) and block 4 at 9 ms (> 5 ms); block 2 at exactly
	// 3 ms is on time.
	if got := lateBlocks(done, ms); got != 2 {
		t.Errorf("lateBlocks = %d, want 2", got)
	}
	if got := lateBlocks(done, 10*ms); got != 0 {
		t.Errorf("lateBlocks at a 10 ms interval = %d, want 0", got)
	}
}

func TestBlockClock(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	b := newBlockClock(10)
	b.observe(4, at(1))  // 4 bytes: first byte at 1 ms
	b.observe(8, at(3))  // 12: block 0 complete
	b.observe(28, at(6)) // 40: blocks 1, 2 and 3 complete
	b.observe(3, at(8))  // 43: a partial block 4
	b.finish(at(8))
	want := []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond}
	if len(b.done) != len(want) {
		t.Fatalf("done = %v, want %v", b.done, want)
	}
	for i := range want {
		if b.done[i] != want[i] {
			t.Fatalf("done = %v, want %v", b.done, want)
		}
	}
	exact := newBlockClock(10)
	exact.observe(20, at(2))
	exact.finish(at(2))
	if len(exact.done) != 2 {
		t.Errorf("block-aligned stream: %d blocks, want 2", len(exact.done))
	}
}

func TestCPUPerMB(t *testing.T) {
	if got := cpuMsPerMB(50*time.Millisecond, 25_000_000); math.Abs(got-2) > 1e-12 {
		t.Errorf("50 ms over 25 MB = %g ms/MB, want 2", got)
	}
	if got := cpuMsPerMB(time.Second, 0); got != 0 {
		t.Errorf("no bytes: %g, want 0", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	h, err := parseProcStat("cpu  100 5 20 300 7 1 2 40 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := (hostTicks{busy: 168, steal: 40, total: 475}); h != want {
		t.Errorf("ticks = %+v, want %+v", h, want)
	}
	if _, err := parseProcStat("intr 1 2 3\n"); err == nil {
		t.Error("a file without the cpu line parsed")
	}
}

func TestStealCorrection(t *testing.T) {
	from := hostTicks{busy: 1000, steal: 10, total: 4000}
	to := hostTicks{busy: 1200, steal: 60, total: 4400} // 50 of 200 busy ticks stolen, of 400 in all
	st := stealBetween(from, to)
	if st.ofBusy != 0.25 || st.ofAll != 0.125 {
		t.Fatalf("steal = %+v, want 0.25 of busy, 0.125 of all", st)
	}
	if got := st.ranFor(time.Second, false); got != 750*time.Millisecond {
		t.Errorf("CPU-bound ran %v of 1s, want 750ms", got)
	}
	if got := st.ranFor(time.Second, true); got != 875*time.Millisecond {
		t.Errorf("paced ran %v of 1s, want 875ms", got)
	}
	if st := stealBetween(to, to); st != (stolen{}) {
		t.Errorf("no ticks elapsed: steal = %+v, want none", st)
	}
}

func TestSlicer(t *testing.T) {
	var s slicer
	h := hostTicks{busy: 100, total: 200}
	s.start(h)
	// Three 1 s slices of 10, 30 and 20 MB; the second lost half its busy
	// ticks to the hypervisor, which the rate discounts.
	steals := []int64{0, 50, 0}
	var bytes int64
	var cpu time.Duration
	for i, mb := range []int64{10, 30, 20} {
		bytes += mb * 1e6
		cpu += time.Duration(mb) * 10 * time.Millisecond // 10 ms per MB
		h = hostTicks{busy: h.busy + 100, steal: h.steal + steals[i], total: h.total + 200}
		s.cut(bytes, cpu, time.Second, h)
	}
	if len(s.slices) != 3 || s.slices[1].bytes != 30e6 || s.slices[1].cpu != 300*time.Millisecond {
		t.Fatalf("slices = %+v", s.slices)
	}
	// Rates 10, 30/(1-0.5)=60 and 20 MB/s: the median is 20.
	if got := s.goodput(false); math.Abs(got-20) > 1e-9 {
		t.Errorf("goodput = %g, want 20", got)
	}
	if got := s.cpuPerMB(); math.Abs(got-10) > 1e-9 {
		t.Errorf("cpuPerMB = %g, want 10", got)
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("2000000123 456 78\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*time.Second+123 {
		t.Errorf("CPU = %v, want 2.000000123s", got)
	}
	if _, err := parseSchedstat("12 34"); err == nil {
		t.Error("short schedstat line parsed")
	}
}

func TestParseStatusHWM(t *testing.T) {
	got, err := parseStatusHWM("Name:\tcmcluster\nVmPeak:\t  900 kB\nVmHWM:\t  195312 kB\nVmRSS:\t 100 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := 195312 * 1024 / 1e6; got != want {
		t.Errorf("HWM = %g MB, want %g", got, want)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestHistP50(t *testing.T) {
	for _, c := range []struct {
		body string
		want float64
	}{{"100:300 200:100 500:99", 100}, {"50:10 100:10", 50}, {"50:9 100:10 200:1", 100}} {
		got, err := histP50(c.body)
		if err != nil || got != c.want {
			t.Errorf("histP50(%q) = %g, %v; want %g", c.body, got, err, c.want)
		}
	}
	if _, err := histP50(""); err == nil {
		t.Error("empty histogram parsed")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	tr := newTracer(t0)
	tr.on = true
	root := tr.begin("round", -1, -1, at(0))
	tr.record("open", root, -1, at(0), at(30))
	tk := tr.begin("tick", root, -1, at(30))
	tr.record("inner", tk, 7, at(40), at(50))
	tr.end(tk, at(90))
	tr.end(root, at(100))
	lt, err := tr.summarize()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]time.Duration{"round": 10, "open": 30, "tick": 50, "inner": 10} {
		if got := lt[name].self; got != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if lt["round"].total != 100 {
		t.Errorf("total(round) = %v, want 100ns", lt["round"].total)
	}
	tr.begin("open-forever", -1, -1, at(5))
	if _, err := tr.summarize(); err == nil {
		t.Error("an unended span summarized")
	}
	off := newTracer(t0)
	if i := off.begin("x", -1, -1, at(0)); i != -1 || len(off.spans) != 0 {
		t.Error("a tracer that is off recorded a span")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step: the
// same workloads, the gated end-to-end metrics under end_to_end, every
// other metric under per_layer.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
	var wantE2E, wantLayer []string
	for _, m := range endToEnd {
		if m.gated {
			wantE2E = append(wantE2E, m.name+" "+m.unit+" "+m.better)
		} else {
			wantLayer = append(wantLayer, m.name+" "+m.unit+" "+m.better)
		}
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, m.name+" "+m.unit+" "+m.better)
	}
	var gotE2E, gotLayer []string
	for _, m := range spec.EndToEnd {
		gotE2E = append(gotE2E, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range spec.PerLayer {
		gotLayer = append(gotLayer, m.Name+" "+m.Unit+" "+m.Better)
	}
	sort.Strings(wantLayer)
	sort.Strings(gotLayer)
	if !equal(gotE2E, wantE2E) {
		t.Errorf("end_to_end %v, want %v", gotE2E, wantE2E)
	}
	if !equal(gotLayer, wantLayer) {
		t.Errorf("per_layer %v, want %v", gotLayer, wantLayer)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
