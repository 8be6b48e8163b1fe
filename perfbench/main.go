// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload against the code in the enclosing checkout,
// checks every byte it delivers, prints a report and ends with one JSON
// line of metrics:
//
//	bash perfbench/run.sh --workload tcp-play --seed 1 --seconds 20 --trace 0
//
// run.sh builds cmd/cmcluster and this command from source. With
// --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
// run spends its first half untraced and its second half recording
// spans around every call into the system, and the JSON carries the
// per-layer metrics. Any correctness violation makes the JSON say
// "correct": false and the exit code 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names a metric with its unit and direction.
type metricDef struct {
	name, unit, better string
	// gated marks an end-to-end metric that is defined, never 0 and
	// steady on every workload: BENCHMARK.json bounds these. The other
	// end-to-end metrics apply to some workloads only, read 0 in every
	// passing run or (cpu_ms_per_MB) follow the host's steal, so
	// BENCHMARK.json lists them unbounded with the per-layer ones.
	gated bool
}

// endToEnd are the metrics a user of the server sees. Every workload's
// report prints all of them, n/a where one does not apply.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", true},
	{"goodput_MBps", "MB/s", "higher", true},
	{"ttfb_p50_ms", "ms", "lower", false},
	{"ttfb_p99_ms", "ms", "lower", false},
	{"late_block_pct", "%", "lower", false},
	{"cpu_ms_per_MB", "ms/MB", "lower", false},
	{"round_p50_ms", "ms", "lower", false},
	{"round_p99_ms", "ms", "lower", false},
	{"admit_wait_p99_rounds", "rounds", "lower", false},
	{"reject_pct", "%", "lower", false},
	{"failed_pct", "%", "lower", false},
	{"sim_requests_per_s", "req/s", "higher", false},
	{"peak_rss_MB", "MB", "lower", true},
}

// perLayer are the metrics of single layers, measured in the traced
// half of a --trace 1 run; a layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"frontend.dial_ms_p50", "ms", "lower", false},
	{"frontend.first_byte_rounds_p50", "rounds", "lower", false},
	{"frontend.read_gap_ms_p99", "ms", "lower", false},
	{"frontend.tick_us_p50", "us", "lower", false},
	{"cluster.open_us_p50", "us", "lower", false},
	{"cluster.open_us_p99", "us", "lower", false},
	{"cluster.open_calls_per_admit", "calls/admit", "lower", false},
	{"cluster.tick_ms_p50", "ms", "lower", false},
	{"cluster.tick_ms_p99", "ms", "lower", false},
	{"cluster.read_us_per_MB", "us/MB", "lower", false},
	{"cluster.failed_over", "count", "higher", false},
	{"cluster.parked_stream_rounds", "rounds", "lower", false},
	{"cluster.node_detect_rounds", "rounds", "lower", false},
	{"admission.refusals_per_open", "refusals/open", "lower", false},
	{"sched.disk_util_pct", "%", "higher", false},
	{"core.blocks_delivered", "count", "higher", false},
	{"core.hiccups", "count", "lower", false},
	{"core.overflows", "count", "lower", false},
	{"integrity.crc_us_per_block", "us", "lower", false},
	{"integrity.corruptions_detected", "count", "higher", false},
	{"integrity.repairs", "count", "higher", false},
	{"integrity.scrub_blocks", "count", "higher", false},
	{"recovery.xor_us_per_block", "us", "lower", false},
	{"recovery.degraded_disks", "count", "lower", false},
	{"health.disk_detect_rounds", "rounds", "lower", false},
	{"storage.load_ms_per_MB", "ms/MB", "lower", false},
	{"scenario.compile_ms", "ms", "lower", false},
	{"workload.arrivals_per_s", "1/s", "higher", false},
	{"sim.engine_s", "s", "lower", false},
	{"sim.max_queue", "count", "lower", false},
	{"sim.peak_active", "count", "higher", false},
	{"autopilot.actions", "count", "lower", false},
	{"trace.overhead_round_p50_ms", "ms", "lower", false},
	{"trace.overhead_goodput_MBps", "MB/s", "higher", false},
	{"trace.phase_sum_pct", "%", "lower", false},
	{"trace.spans", "count", "lower", false},
}

// runCtx is what a workload gets from the command line.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	daemon  string // path of the cmcluster binary
}

// report is a workload's outcome. A metric absent from e2e does not
// apply to the workload.
type report struct {
	e2e, layer        map[string]float64
	notes, violations []string
	attempted, failed int
	spans             *tracer
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// timedWindows runs a workload's timed window through run: whole when
// the run is untraced; traced, the first half untraced, for the
// end-to-end metrics and the overhead baseline, and the second half
// traced. b is the zero W when untraced.
func timedWindows[W any](ctx *runCtx, run func(d time.Duration, traced bool) (W, error)) (a, b W, err error) {
	if !ctx.trace {
		a, err = run(ctx.seconds, false)
		return a, b, err
	}
	if a, err = run(ctx.seconds/2, false); err != nil {
		return a, b, err
	}
	b, err = run(ctx.seconds/2, true)
	return a, b, err
}

// workloadDef is one named workload and the reason it is in the set.
type workloadDef struct {
	name, why string
	run       func(*runCtx) (*report, error)
}

var workloads = []workloadDef{
	{"tcp-play",
		"The only workload through the daemon's accept/parse/PLAY loop, its global mutex and its socket writes, paced at the 1 ms round floor.",
		runTCP},
	{"engine-surge",
		"Runs the full admitted population every round, above admission capacity: the tick's fetch/deliver path, read-path CRCs, admission and routing retries.",
		func(c *runCtx) (*report, error) { return runEngine(c, engineSpec{rate: 2}) }},
	{"engine-degraded",
		"The only workload whose rounds reconstruct, repair, detect and fail over, with idle capacity for the patrol scrub beside foreground reads.",
		func(c *runCtx) (*report, error) { return runEngine(c, engineSpec{rate: 1.2, degraded: true}) }},
	{"sim-evening",
		"The paper's section 8 evaluation engine: the primetime-autopilot scenario day with the autopilot on; it moves no bytes.",
		runSim},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: trace the second half of the window and report per-layer metrics")
	daemon := flag.String("daemon", "", "cmcluster binary built from the code under test")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	code, err := treeHash(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("code: sha256(go.mod, cmd/, internal/)=%s\n", code)
	fmt.Printf("why %s: %s\n", wl.name, wl.why)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killDaemons()
		os.Exit(3)
	}()
	defer killDaemons()

	ctx := &runCtx{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, daemon: *daemon}
	rep, err := wl.run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	if rep.attempted < 1 {
		rep.violations = append(rep.violations, "no session was attempted")
	}
	if ctx.trace && rep.spans != nil {
		path := filepath.Join(*out, "trace-"+wl.name+".csv")
		if err := rep.spans.writeCSV(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans.spans), path)
	}
	metrics := selectMetrics(rep, ctx.trace)
	printReport(os.Stdout, rep, ctx.trace)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(rep.violations) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if len(rep.violations) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the JSON metrics: the gated end-to-end ones
// untraced; the per-layer ones plus the ungated end-to-end ones (from the
// untraced half) traced. A gated metric must have been measured, and no
// value may be NaN or infinite.
func selectMetrics(rep *report, traced bool) map[string]jsonMetric {
	out := make(map[string]jsonMetric)
	put := func(m metricDef, v float64, ok bool) {
		if !ok && m.gated {
			rep.violations = append(rep.violations, fmt.Sprintf("metric %s was not measured", m.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.violations = append(rep.violations, fmt.Sprintf("metric %s = %v", m.name, v))
			v = 0
		}
		out[m.name] = jsonMetric{v, m.unit}
	}
	for _, m := range endToEnd {
		if m.gated != traced {
			v, ok := rep.e2e[m.name]
			put(m, v, ok)
		}
	}
	if traced {
		for _, m := range perLayer {
			put(m, rep.layer[m.name], true)
		}
	}
	return out
}

// printReport writes the human-readable report: every end-to-end metric
// with its unit, the per-layer metrics of a traced run, notes and
// violations.
func printReport(w io.Writer, rep *report, traced bool) {
	title := "end-to-end"
	if traced {
		title += " (untraced half)"
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range endToEnd {
		if v, ok := rep.e2e[m.name]; ok {
			fmt.Fprintf(w, "  %-24s %14.6g %s\n", m.name, v, m.unit)
		} else {
			fmt.Fprintf(w, "  %-24s %14s\n", m.name, "n/a")
		}
	}
	if traced {
		fmt.Fprintf(w, "per-layer (traced half):\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, rep.layer[m.name], m.unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "sessions: attempted=%d failed=%d\n", rep.attempted, rep.failed)
	const maxShown = 20
	for i, v := range rep.violations {
		if i == maxShown {
			fmt.Fprintf(w, "VIOLATION: ... and %d more\n", len(rep.violations)-maxShown)
			break
		}
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// tailNote states a timing's sample count and the tail rule's
// percentile for the report.
func tailNote(what string, sorted []float64, unit float64, unitName string) string {
	q, v, ok := tailPercentile(sorted)
	if !ok {
		return fmt.Sprintf("%s: n=%d, too few samples for any percentile with %d above it", what, len(sorted), minTail)
	}
	p99 := ""
	if above(sorted, quantile(sorted, 0.99)) < minTail {
		p99 = fmt.Sprintf("; p99 has fewer than %d samples above it", minTail)
	}
	return fmt.Sprintf("%s: n=%d p50=%.4f%s tail p%g=%.4f%s%s", what, len(sorted), quantile(sorted, 0.5)/unit, unitName, 100*q, v/unit, unitName, p99)
}

// treeHash fingerprints the code under test in the repository at root:
// a checkout the benchmark runs in need not be a git repository, so the
// commit is named by a hash of go.mod and every file under cmd/ and
// internal/.
func treeHash(root string) (string, error) {
	var files []string
	for _, top := range []string{"go.mod", "cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Type().IsRegular() {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("code under test: %w", err)
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
