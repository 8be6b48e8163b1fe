package workload

import (
	"math"
	"math/rand"
	"testing"

	"ftcms/internal/units"
)

func TestUniformCatalog(t *testing.T) {
	c, err := UniformCatalog(1000, 50*units.Second, 1.5*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	clip := c.Clip(42)
	if clip.ID != 42 {
		t.Fatalf("ID = %d", clip.ID)
	}
	// 50 s at 1.5 Mbps = 75 Mbit per clip.
	if clip.Size() != 75_000_000 {
		t.Fatalf("Size = %d, want 75e6", clip.Size())
	}
	// Library S = 75 Gbit = 9.375 GB — the paper-scale library.
	if c.TotalSize() != 75_000_000_000 {
		t.Fatalf("TotalSize = %d", c.TotalSize())
	}
}

func TestUniformCatalogValidation(t *testing.T) {
	if _, err := UniformCatalog(0, units.Second, units.Mbps); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := UniformCatalog(5, 0, units.Mbps); err == nil {
		t.Error("accepted zero length")
	}
	if _, err := UniformCatalog(5, units.Second, 0); err == nil {
		t.Error("accepted zero rate")
	}
}

func TestClipBlocks(t *testing.T) {
	clip := Clip{Length: 50 * units.Second, Rate: 1.5 * units.Mbps}
	// 75 Mbit in 2 Mbit blocks = 37.5 -> 38 (padded).
	if got := clip.Blocks(2_000_000); got != 38 {
		t.Fatalf("Blocks = %d, want 38", got)
	}
	// Exact division.
	if got := clip.Blocks(1_500_000); got != 50 {
		t.Fatalf("Blocks = %d, want 50", got)
	}
}

func TestClipBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Clip{Length: units.Second, Rate: units.Mbps}.Blocks(0)
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	sel := UniformSelector{N: 100}
	a, err := PoissonArrivals(20, 60*units.Second, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonArrivals(20, 60*units.Second, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c, err := PoissonArrivals(20, 60*units.Second, sel, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds gave identical traces")
		}
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	sel := UniformSelector{N: 10}
	reqs, err := PoissonArrivals(20, 600*units.Second, sel, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~12000 arrivals; allow 5σ ≈ 550.
	if n := len(reqs); math.Abs(float64(n)-12000) > 550 {
		t.Fatalf("got %d arrivals for mean 12000", n)
	}
	// Arrivals sorted and in range; clip IDs valid.
	for i, r := range reqs {
		if r.Arrival < 0 || r.Arrival >= 600*units.Second {
			t.Fatalf("arrival %d out of range: %v", i, r.Arrival)
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if r.ClipID < 0 || r.ClipID >= 10 {
			t.Fatalf("clip ID %d out of range", r.ClipID)
		}
	}
}

func TestPoissonArrivalsValidation(t *testing.T) {
	sel := UniformSelector{N: 10}
	if _, err := PoissonArrivals(0, units.Second, sel, 1); err == nil {
		t.Error("accepted zero rate")
	}
	if _, err := PoissonArrivals(1, 0, sel, 1); err == nil {
		t.Error("accepted zero horizon")
	}
}

func TestUniformSelectorCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sel := UniformSelector{N: 10}
	seen := map[int]int{}
	for i := 0; i < 10000; i++ {
		id := sel.Pick(rng)
		if id < 0 || id >= 10 {
			t.Fatalf("out of range pick %d", id)
		}
		seen[id]++
	}
	for i := 0; i < 10; i++ {
		if seen[i] < 800 || seen[i] > 1200 {
			t.Errorf("clip %d picked %d/10000 times, want ~1000", i, seen[i])
		}
	}
}

func TestZipfSelector(t *testing.T) {
	if _, err := NewZipfSelector(0, 1); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewZipfSelector(10, 0); err == nil {
		t.Error("accepted s=0")
	}
	z, err := NewZipfSelector(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		id := z.Pick(rng)
		if id < 0 || id >= 100 {
			t.Fatalf("out of range pick %d", id)
		}
		counts[id]++
	}
	// Rank 0 must dominate rank 10 by roughly 10x (Zipf-1), and the top
	// rank must be the most popular.
	if counts[0] < 5*counts[10] {
		t.Errorf("Zipf skew too weak: rank0=%d rank10=%d", counts[0], counts[10])
	}
	for i := 1; i < 100; i++ {
		if counts[i] > counts[0] {
			t.Errorf("rank %d (%d) more popular than rank 0 (%d)", i, counts[i], counts[0])
		}
	}
}

func TestBurstArrivals(t *testing.T) {
	sel := UniformSelector{N: 10}
	reqs, err := BurstArrivals(2, 50, 100*units.Second, 120*units.Second, 300*units.Second, sel, 9)
	if err != nil {
		t.Fatal(err)
	}
	var before, during, after int
	for i, r := range reqs {
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not sorted")
		}
		switch {
		case r.Arrival < 100*units.Second:
			before++
		case r.Arrival < 120*units.Second:
			during++
		default:
			after++
		}
	}
	// Expected ≈ 200 before, 1000 during, 360 after.
	if during < before || during < after {
		t.Fatalf("burst not visible: before=%d during=%d after=%d", before, during, after)
	}
	if during < 700 || during > 1300 {
		t.Fatalf("burst count %d far from expected ~1000", during)
	}
}

func TestBurstArrivalsValidation(t *testing.T) {
	sel := UniformSelector{N: 3}
	if _, err := BurstArrivals(0, 5, 0, 1, 10, sel, 1); err == nil {
		t.Error("accepted zero base rate")
	}
	if _, err := BurstArrivals(1, 0, 0, 1, 10, sel, 1); err == nil {
		t.Error("accepted zero burst rate")
	}
	if _, err := BurstArrivals(1, 5, 5, 3, 10, sel, 1); err == nil {
		t.Error("accepted end < start")
	}
	if _, err := BurstArrivals(1, 5, 0, 20, 10, sel, 1); err == nil {
		t.Error("accepted burst beyond horizon")
	}
}

// searchCDF is the inverse-CDF binary search the guide table replaced:
// the first index with cdf[i] ≥ u, capped at the last clip.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesSearch: the guide-table pick returns the binary
// search's index for every edge draw — 0, each cdf value exactly and
// its float neighbours, and the largest draw below 1 — including one-
// and two-clip catalogs and a steep skew whose tail plateaus at 1.0,
// where the first index reaching u must still win.
func TestZipfGuideMatchesSearch(t *testing.T) {
	cases := []struct {
		n int
		s float64
	}{{1, 1}, {2, 0.5}, {2, 8}, {7, 1.1}, {100, 1}, {1000, 1.1}, {1000, 8}, {4096, 0.3}}
	for _, tc := range cases {
		z, err := NewZipfSelector(tc.n, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		draws := []float64{0, math.Nextafter(1, 0)}
		for _, c := range z.cdf {
			for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
				if u >= 0 && u < 1 {
					draws = append(draws, u)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(tc.n)))
		for i := 0; i < 10000; i++ {
			draws = append(draws, rng.Float64())
		}
		for _, u := range draws {
			if got, want := z.pick(u), searchCDF(z.cdf, u); got != want {
				t.Fatalf("n=%d s=%g u=%v: guide picks %d, search %d", tc.n, tc.s, u, got, want)
			}
		}
		if tc.s == 8 && tc.n == 1000 && z.cdf[tc.n-2] != 1 {
			t.Fatalf("s=8 tail does not plateau at 1.0 (cdf[n-2] = %v); the case tests nothing", z.cdf[tc.n-2])
		}
	}
}
