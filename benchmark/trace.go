package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// spanName identifies what a span measured; each name belongs to one
// layer, which is its track in the trace file.
type spanName uint8

const (
	spSetup spanName = iota
	spRep
	spReplica
	spTcappBuild
	spNewSystem
	spInstall
	spFuncBind
	spChannel
	spCall  // Func.Call (issue)
	spDrain // sys.Run
	spSendData
	spWorkloadRun
	spProbe
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spSetup:       {"setup", "benchmark"},
	spRep:         {"rep", "benchmark"},
	spReplica:     {"replica", "benchmark"},
	spTcappBuild:  {"tcapp.Build", "tcapp"},
	spNewSystem:   {"tc.NewSystem", "tc"},
	spInstall:     {"sys.InstallPackage", "core"},
	spFuncBind:    {"sys.Func", "tc"},
	spChannel:     {"sys.Channel", "core"},
	spCall:        {"Func.Call", "tc"},
	spDrain:       {"sys.Run", "sim"},
	spSendData:    {"sys.SendData", "mailbox"},
	spWorkloadRun: {"workload.Run", "workload"},
	spProbe:       {"probe", "probe"},
}

// span is one timed call the benchmark made into a layer. It holds no
// pointers, so the preallocated slice costs the collector nothing.
type span struct {
	name       spanName
	parent     int32 // index of the enclosing span, -1 at top level
	rep        int32 // repetition identifier, -1 outside the repetitions
	start, end int64 // host-clock ns since the tracer started
}

// tracer records spans into a preallocated slice; nothing is written
// until the run ends. A nil *tracer is the untraced run: begin and end
// do nothing.
type tracer struct {
	t0      time.Time
	spans   []span
	open    int32 // innermost open span, -1 when none
	rep     int32
	dropped int // spans not recorded because the slice was full
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: -1, rep: -1}
}

// begin opens a span under the innermost open one and returns its
// index for end. When the slice is full the span is counted as dropped.
func (t *tracer) begin(name spanName) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: t.open, rep: t.rep,
		start: int64(time.Since(t.t0))})
	t.open = int32(i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.t0))
	t.open = s.parent
}

// setRep labels the spans that follow with a repetition identifier.
func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = int32(rep)
	}
}

// sumNs sums the durations of the spans named name among spans
// [from, to) and counts them.
func (t *tracer) sumNs(name spanName, from, to int) (ns float64, n int) {
	for _, s := range t.spans[from:to] {
		if s.name == name {
			ns += float64(s.end - s.start)
			n++
		}
	}
	return ns, n
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// foldRow is one line of the folded self-time table.
type foldRow struct {
	layer, name string
	count       int
	totalNs     int64
	selfNs      int64
}

// fold sums count, total and self time by span name.
func (t *tracer) fold() []foldRow {
	self := t.selfTimes()
	rows := make([]foldRow, numSpanNames)
	for i, s := range t.spans {
		r := &rows[s.name]
		r.count++
		r.totalNs += s.end - s.start
		r.selfNs += self[i]
	}
	var out []foldRow
	for n, r := range rows {
		if r.count > 0 {
			r.layer, r.name = spanInfo[n].layer, spanInfo[n].name
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

// printFold writes the per-layer self-time table: where the traced
// run's time went, without a profiler.
func (t *tracer) printFold(w io.Writer) {
	var all int64
	rows := t.fold()
	for _, r := range rows {
		all += r.selfNs
	}
	fmt.Fprintf(w, "%-10s %-20s %9s %12s %12s %7s\n", "layer", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-20s %9d %12.3f %12.3f %6.1f%%\n", r.layer, r.name, r.count,
			float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, 100*float64(r.selfNs)/float64(all))
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "(%d spans beyond the preallocated %d were not recorded)\n", t.dropped, cap(t.spans))
	}
}

// unattributed is the share of the repetition and replica spans' time
// that no child span covers: the part the benchmark cannot name a layer
// for from outside. Repetitions that recorded no child (steady_call's
// blocks beyond the per-call ones) say nothing either way and are left
// out.
func (t *tracer) unattributed() float64 {
	self := t.selfTimes()
	hasChild := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			hasChild[s.parent] = true
		}
	}
	var total, uncovered int64
	for i, s := range t.spans {
		if (s.name == spRep || s.name == spReplica) && hasChild[i] {
			total += s.end - s.start
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

// writeChrome writes the spans in Chrome trace-event format: complete
// ("X") events in host-clock microseconds, one track (tid) per layer,
// the span index, parent and repetition in args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	var layers []string
	for _, in := range spanInfo {
		if _, ok := tids[in.layer]; !ok {
			tids[in.layer] = len(tids) + 1
			layers = append(layers, in.layer)
		}
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, l := range layers {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tids[l], l)
	}
	for i, s := range t.spans {
		in := spanInfo[s.name]
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"rep":%d}}`,
			tids[in.layer], in.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.rep)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
