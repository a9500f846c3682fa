package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"softmem/internal/core"
	"softmem/internal/ipc"
)

// layerDefs lists the per-layer metrics a traced run prints, in order,
// with their units. A metric that does not apply to a workload (the
// spill tier's on serve, the ladder's outside serve) reads 0.
var layerDefs = []struct{ name, unit string }{
	{"ladder.resp_ns_per_op", "ns/op"},
	{"ladder.batch_ns_per_op", "ns/op"},
	{"ladder.sds_ns_per_op", "ns/op"},
	{"ladder.alloc_ns_per_op", "ns/op"},
	{"ladder.resp_allocs_per_op", "allocs/op"},
	{"ladder.batch_allocs_per_op", "allocs/op"},
	{"ladder.sds_allocs_per_op", "allocs/op"},
	{"ladder.alloc_allocs_per_op", "allocs/op"},
	{"kvstore.lockfree_hit_ratio", "ratio"},
	{"kvstore.lockfree_fallbacks", "count"},
	{"kvstore.cmds_per_lock", "ratio"},
	{"kvstore.busy_sheds", "count"},
	{"kvstore.hit_ratio", "ratio"},
	{"core.demands", "count"},
	{"core.demand_us", "us"},
	{"core.pages_released", "pages"},
	{"core.demand_yield", "ratio"},
	{"sds.entries_reclaimed", "count"},
	{"sds.bytes_per_reclaimed_entry", "B"},
	{"epoch.limbo_pages_max", "pages"},
	{"epoch.deferred_ops", "count"},
	{"alloc.failed_allocs", "count"},
	{"smd.kv_budget_rtt_us", "us"},
	{"smd.ant_budget_rtt_us", "us"},
	{"smd.requests", "count"},
	{"smd.reclaim_cycles", "count"},
	{"smd.denied", "count"},
	{"smd.slack_pages", "pages"},
	{"ipc.overhead_us", "us"},
	{"ipc.release_calls", "count"},
	{"ipc.release_rtt_us", "us"},
	{"spill.demotes", "count"},
	{"spill.demote_bytes", "B"},
	{"spill.compress_ratio", "ratio"},
	{"spill.write_amp", "ratio"},
	{"spill.promotions", "count"},
	{"spill.promote_us", "us"},
	{"spill.compact_ms", "ms"},
	{"spill.compacted_bytes", "B"},
	{"reclaim.wait_p50_us", "us"},
	{"reclaim.wait_p90_us", "us"},
	{"reclaim.mib_s", "MiB/s"},
	{"latency.get_p99_us", "us"},
	{"latency.set_p99_us", "us"},
	{"model.order_disagreements", "count"},
	{"trace.overhead_pct", "%"},
}

var layerUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range layerDefs {
		m[d.name] = d.unit
	}
	return m
}()

// Span names. A span is recorded around a call into a layer's public
// function or interface, from the benchmark's side of the call.
const (
	spanKVRequest  = "smd.request.kv"  // KV SMA → daemon budget request
	spanAntRequest = "smd.request.ant" // antagonist SMA → daemon budget request
	spanKVRelease  = "smd.release.kv"
	spanAntRelease = "smd.release.ant"
	spanKVDemand   = "core.demand.kv" // daemon → KV SMA reclamation demand
	spanAntDemand  = "core.demand.ant"
	spanShrink     = "core.shrink"
	spanCompact    = "spill.compact"
	spanLadder     = "ladder."
)

// span is one timed call. Spans of one op share id; parent indexes the
// enclosing span in the same tracer (-1 for a root).
type span struct {
	id         uint64
	parent     int32
	name       string
	start, end int64 // ns since the tracer's origin
	pages      int   // pages moved by the call, where it moves any
	demanded   int   // pages a reclamation demand asked for
}

// tracer keeps the spans of one traced round in memory. The calls it
// wraps run on the load goroutine and on the ipc goroutines serving
// demands while the load goroutine waits, so it is locked.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	cur    int32 // innermost open span, -1 when none
	op     uint64
	// root is the op in flight; it is appended only once a child span
	// needs a parent, so ops that never leave the process cost no span.
	rootName  string
	rootStart int64
	rootIdx   int32
	on        bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cur: -1, rootIdx: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// beginOp opens the root of one op; endOp closes it.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.rootName, t.rootStart, t.rootIdx, t.cur = name, t.now(), -1, -1
	t.mu.Unlock()
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.rootIdx >= 0 {
		t.spans[t.rootIdx].end = t.now()
	}
	t.rootIdx, t.cur, t.rootName = -1, -1, ""
	t.mu.Unlock()
}

// begin opens a child span of the innermost open span and returns its
// index, or -1 when tracing is off.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := t.cur
	if parent < 0 && t.rootName != "" {
		if t.rootIdx < 0 {
			t.rootIdx = int32(len(t.spans))
			t.spans = append(t.spans, span{id: t.op, parent: -1, name: t.rootName, start: t.rootStart})
		}
		parent = t.rootIdx
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: t.op, parent: parent, name: name, start: t.now()})
	t.cur = i
	return i
}

func (t *tracer) end(i int32, pages int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.spans[i].pages = pages
	t.cur = t.spans[i].parent
	if t.cur == t.rootIdx {
		t.cur = -1
	}
	t.mu.Unlock()
}

// record appends a finished root span (ladder rungs, compactions).
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := int64(start.Sub(t.origin))
	t.op++
	t.spans = append(t.spans, span{id: t.op, parent: -1, name: name, start: s, end: s + int64(d)})
	t.mu.Unlock()
}

func (s *span) dur() int64 { return s.end - s.start }

// layerTime is one layer's share of the traced spans.
type layerTime struct {
	calls       int
	total, self int64
}

// selfTimes aggregates the spans by name: each span's self time is its
// duration minus what its child spans cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	out := map[string]*layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		lt.calls++
		lt.total += s.dur()
		lt.self += s.dur() - child[i]
	}
	return out
}

// children returns, for each span, the indexes of its direct children.
func (t *tracer) children() [][]int32 {
	out := make([][]int32, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			out[p] = append(out[p], int32(i))
		}
	}
	return out
}

// writeTo writes the spans as tab-separated lines (id, parent, name,
// start ns, end ns, pages) to path.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tpages")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end, s.pages)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table of a traced round.
func (t *tracer) printSelfTimes(w *os.File, label string) {
	st := t.selfTimes()
	fmt.Fprintf(w, "  self time by layer (%s):\n", label)
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lt := st[name]
		fmt.Fprintf(w, "    %-18s calls %8d  total %10.3f ms  self %10.3f ms  self/call %9.2f us\n",
			name, lt.calls, float64(lt.total)/1e6, float64(lt.self)/1e6, float64(lt.self)/1e3/float64(lt.calls))
	}
}

// tracedDaemon wraps the core.DaemonClient an SMA is attached to,
// recording a span around each budget request and release.
type tracedDaemon struct {
	inner            core.DaemonClient
	t                *tracer
	request, release string
}

func (d *tracedDaemon) RequestBudget(pages int, u core.Usage) (int, error) {
	i := d.t.begin(d.request)
	g, err := d.inner.RequestBudget(pages, u)
	d.t.end(i, g)
	return g, err
}

func (d *tracedDaemon) ReleaseBudget(pages int, u core.Usage) error {
	i := d.t.begin(d.release)
	err := d.inner.ReleaseBudget(pages, u)
	d.t.end(i, pages)
	return err
}

// tracedTarget wraps the ipc.DemandTarget an SMA is dialled with,
// including its traced and budget-shrink extensions, recording a span
// around each reclamation demand the daemon sends.
type tracedTarget struct {
	sma    *core.SMA
	t      *tracer
	demand string
}

func (d *tracedTarget) HandleDemand(pages int) int {
	released, _, _ := d.HandleDemandTraced(pages, 0)
	return released
}

func (d *tracedTarget) HandleDemandTraced(pages int, reclaimID uint64) (int, []core.DemandSpan, *core.Usage) {
	i := d.t.begin(d.demand)
	released, spans, u := d.sma.HandleDemandTraced(pages, reclaimID)
	d.t.end(i, released)
	if i >= 0 {
		d.t.mu.Lock()
		d.t.spans[i].demanded = pages
		d.t.mu.Unlock()
	}
	return released, spans, u
}

func (d *tracedTarget) ShrinkBudget(pages int) {
	i := d.t.begin(spanShrink)
	d.sma.ShrinkBudget(pages)
	d.t.end(i, pages)
}

var (
	_ ipc.TracedDemandTarget = (*tracedTarget)(nil)
	_ ipc.BudgetShrinkTarget = (*tracedTarget)(nil)
	_ core.DaemonClient      = (*tracedDaemon)(nil)
)
