package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"softmem/internal/pages"
)

// roundResult is what one round measured.
type roundResult struct {
	traced bool

	setup     time.Duration // workload start to first timed op
	elapsed   time.Duration // timed region
	ops       int64         // KV operations in the timed region
	cpu       time.Duration // process user+sys CPU over the timed region
	heapBytes uint64        // Go heap bytes allocated over the timed region
	spaceAmp  float64       // soft bytes held / live value bytes, at round end

	getNs, setNs []uint32 // per-op latency samples of the timed region

	attempted int64 // every KV operation the round issued, probes included
	failed    int64 // operations whose output disagreed with the model

	// layer holds the per-layer metrics of a traced round.
	layer map[string]metric
	// waits are the antagonist pushes of a traced round that waited on a
	// reclaim cycle in the KV process, and waitPages the pages those
	// cycles moved; a run pools them over its traced rounds.
	waits     []uint32
	waitPages int64
}

// metric is one named value of the output object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// region brackets the timed part of a round: wall time, CPU and heap
// allocation deltas.
type region struct {
	t0    time.Time
	cpu0  time.Duration
	heap0 uint64
}

func beginRegion() region {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return region{t0: time.Now(), cpu0: processCPU(), heap0: ms.TotalAlloc}
}

func (g region) end(r *roundResult) {
	r.elapsed = time.Since(g.t0)
	r.cpu = processCPU() - g.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.TotalAlloc - g.heap0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// nsSince returns the nanoseconds since t0 as a latency sample,
// saturating at the uint32 range (4.29 s).
func nsSince(t0 time.Time) uint32 {
	d := time.Since(t0)
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// percentile returns the q-quantile (0..1) of samples by the nearest-rank
// rule; it sorts samples in place.
func percentile(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(samples[i])
}

// median of xs (sorted copy); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report aggregates the rounds of a run.
type report struct {
	correct           bool
	attempted, failed int64
	untraced, traced  []*roundResult
}

func summarize(rs []*roundResult) *report {
	rep := &report{correct: true}
	for _, r := range rs {
		rep.attempted += r.attempted
		rep.failed += r.failed
		if r.traced {
			rep.traced = append(rep.traced, r)
		} else {
			rep.untraced = append(rep.untraced, r)
		}
	}
	// The only failures a run may keep are those of a known fault on
	// inputs that do not depend on the seed, which every round repeats.
	// A round that fails a different number of operations shows a fault
	// that depends on the schedule or on timing.
	for _, r := range rs {
		if r.failed != rs[0].failed || r.attempted != rs[0].attempted {
			rep.correct = false
		}
	}
	return rep
}

// roundMetrics are the end-to-end metrics of one round; a run reports the
// median of each over its rounds.
func roundMetrics(r *roundResult) map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"setup_s":          r.setup.Seconds(),
		"throughput_ops_s": ops / r.elapsed.Seconds(),
		"get_p50_us":       percentile(r.getNs, 0.50) / 1e3,
		"get_p99_us":       percentile(r.getNs, 0.99) / 1e3,
		"set_p50_us":       percentile(r.setNs, 0.50) / 1e3,
		"set_p99_us":       percentile(r.setNs, 0.99) / 1e3,
		"cpu_us_per_op":    float64(r.cpu.Microseconds()) / ops,
		"heap_b_per_op":    float64(r.heapBytes) / ops,
		"space_amp":        r.spaceAmp,
	}
}

// e2eUnits are the end-to-end metrics a run prints. The p99 latencies
// are left out: they follow the machine's slow spells (on a 2-vCPU VM the
// serve p99 spread over ten seeds reached 0.29 of its median while p50
// stayed under 0.07), so a traced run reports them per layer instead.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "ops/s",
	"get_p50_us":       "us",
	"set_p50_us":       "us",
	"cpu_us_per_op":    "us",
	"heap_b_per_op":    "B",
	"space_amp":        "ratio",
}

// e2e returns the median end-to-end metrics of the untraced or traced
// rounds.
func (rep *report) e2e(traced bool) map[string]float64 {
	rs := rep.untraced
	if traced {
		rs = rep.traced
	}
	if len(rs) == 0 {
		return nil
	}
	// Each metric is the median of its per-round values: a slow spell of
	// the machine or a garbage collection lands in some rounds and not
	// others, and the median keeps it from moving the run's figure.
	per := map[string][]float64{}
	for _, r := range rs {
		for k, v := range roundMetrics(r) {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range per {
		out[k] = median(vs)
	}
	return out
}

func (rep *report) e2eMetrics() map[string]metric {
	out := map[string]metric{}
	for k, v := range rep.e2e(false) {
		if unit, ok := e2eUnits[k]; ok {
			out[k] = metric{Value: v, Unit: unit}
		}
	}
	return out
}

// layerMetrics returns the median of every per-layer metric over the
// traced rounds, plus the tracing overhead against the untraced rounds.
func (rep *report) layerMetrics() map[string]metric {
	per := map[string][]float64{}
	var waits []uint32
	var waitPages int64
	for _, r := range rep.traced {
		for k, m := range r.layer {
			per[k] = append(per[k], m.Value)
		}
		waits = append(waits, r.waits...)
		waitPages += r.waitPages
	}
	out := map[string]metric{}
	for _, d := range layerDefs {
		out[d.name] = metric{Value: median(per[d.name]), Unit: d.unit}
	}
	// Reclaim waits are too few per round for a tail, so they are pooled
	// over the run's traced rounds.
	var waitNs float64
	for _, w := range waits {
		waitNs += float64(w)
	}
	out["reclaim.wait_p50_us"] = metric{Value: percentile(waits, 0.50) / 1e3, Unit: "us"}
	out["reclaim.wait_p90_us"] = metric{Value: percentile(waits, 0.90) / 1e3, Unit: "us"}
	out["reclaim.mib_s"] = metric{Value: ratio(float64(waitPages*pages.Size)/(1<<20), waitNs/1e9), Unit: "MiB/s"}
	u, t := rep.e2e(false), rep.e2e(true)
	// The tails come from the untraced rounds, which replay the same
	// schedule without the wrappers' cost.
	out["latency.get_p99_us"] = metric{Value: u["get_p99_us"], Unit: "us"}
	out["latency.set_p99_us"] = metric{Value: u["set_p99_us"], Unit: "us"}
	if u != nil && t != nil && t["throughput_ops_s"] > 0 {
		// Per-op time of the traced rounds over the untraced ones, minus one.
		out["trace.overhead_pct"] = metric{Value: 100 * (u["throughput_ops_s"]/t["throughput_ops_s"] - 1), Unit: "%"}
	}
	return out
}

// printHuman writes a readable summary of the run to w.
func printHuman(w io.Writer, o *benchOptions, rs []*roundResult, rep *report) {
	fmt.Fprintf(w, "perfbench %s seed=%d rounds=%d (traced %d) attempted=%d failed=%d correct=%v\n",
		o.workload, o.seed, len(rs), len(rep.traced), rep.attempted, rep.failed, rep.correct)
	for i, r := range rs {
		m := roundMetrics(r)
		fmt.Fprintf(w, "  round %d traced=%-5v setup %.3f s  %.0f ops/s  get p50 %.3f p99 %.3f us  set p50 %.3f p99 %.3f us  cpu %.3f us/op  heap %.0f B/op  failed %d/%d\n",
			i, r.traced, m["setup_s"], m["throughput_ops_s"], m["get_p50_us"], m["get_p99_us"],
			m["set_p50_us"], m["set_p99_us"], m["cpu_us_per_op"], m["heap_b_per_op"], r.failed, r.attempted)
	}
	if n := len(rep.traced); n > 0 {
		var waits int
		for _, r := range rep.traced {
			waits += len(r.waits)
		}
		fmt.Fprintf(w, "  reclaim waits pooled over %d traced rounds: %d samples\n", n, waits)
	}
	u, t := rep.e2e(false), rep.e2e(true)
	keys := make([]string, 0, len(u))
	for k := range u {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if t != nil {
			fmt.Fprintf(w, "  %-18s %14.4f %-6s traced %14.4f\n", k, u[k], e2eUnits[k], t[k])
		} else {
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", k, u[k], e2eUnits[k])
		}
	}
	if len(rep.traced) > 0 {
		lm := rep.layerMetrics()
		for _, d := range layerDefs {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, lm[d.name].Value, d.unit)
		}
	}
}
