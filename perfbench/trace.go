package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans stay in memory for the
// whole run and are written out once it ends.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	session    int32 // the session the work was for, -1 for none
}

// tracer records spans from one goroutine. A tracer that is off records
// nothing and costs a branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span starting at start and returns its index, or -1
// when tracing is off.
func (t *tracer) begin(name string, parent, session int32, start time.Time) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.epoch)), end: -1, parent: parent, session: session})
	return int32(len(t.spans) - 1)
}

// end closes span i at end; i < 0 is a no-op.
func (t *tracer) end(i int32, end time.Time) {
	if i >= 0 {
		t.spans[i].end = int64(end.Sub(t.epoch))
	}
}

// record adds a span whose bounds are already known.
func (t *tracer) record(name string, parent, session int32, start, end time.Time) int32 {
	i := t.begin(name, parent, session, start)
	t.end(i, end)
	return i
}

// merge appends another tracer's spans, re-basing their parent indices.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	// total sums the spans' durations; self subtracts the parts their
	// child spans cover.
	total, self time.Duration
	durs        sample // each span's duration in ns
}

// summarize computes each span name's count, total and self time. A
// span still open is an error: every begin must meet its end.
func (t *tracer) summarize() (map[string]*layerTime, error) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			return nil, fmt.Errorf("trace: span %q never ended", s.name)
		}
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - child[i])
		lt.durs = append(lt.durs, float64(d))
	}
	return out, nil
}

// durQ returns the q-quantile of a span name's durations in units of
// unit (0 when no such span was recorded).
func durQ(lt map[string]*layerTime, name string, q float64, unit time.Duration) float64 {
	l := lt[name]
	if l == nil {
		return 0
	}
	return l.durs.q(q) / float64(unit)
}

// writeCSV writes every span, one line each, to path.
func (t *tracer) writeCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,session")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.session)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders per-name self times, largest first, for the report.
func selfTable(lt map[string]*layerTime) []string {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if lt[names[a]].self != lt[names[b]].self {
			return lt[names[a]].self > lt[names[b]].self
		}
		return names[a] < names[b]
	})
	var out []string
	for _, n := range names {
		l := lt[n]
		out = append(out, fmt.Sprintf("%-16s spans=%-8d total=%-12s self=%s", n, l.count, l.total.Round(time.Microsecond), l.self.Round(time.Microsecond)))
	}
	return out
}
