// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed wall-clock budget as whole
// rounds, checks every answer the program gives against a model kept
// apart from the program, and prints its metrics as one JSON object on
// the last line of standard output.
//
//	perfbench --workload serve|pressure|spill --seed N --seconds S --trace 0|1
//
// Each round builds a fresh stack (daemon, allocators, store, server or
// spill directory), preloads and warms it, replays the same seeded op
// schedule, checks the outputs and tears the stack down. Reclamation is
// driven by fixed points in that schedule, never by a timer, so every
// round of a run does exactly the same work and the reclaim counts repeat.
// With --trace 1 the run alternates untraced and traced rounds: the
// traced rounds wrap the calls into each layer's public interfaces and
// give the per-layer metrics, the untraced ones the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// benchOptions are the command line of one invocation.
type benchOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workDir holds the round's spill directories and sockets; it lies
	// inside the checkout so the benchmark writes nowhere else.
	workDir string
}

// workload runs one round on a fresh stack.
type workload interface {
	round(o *benchOptions, traced bool, sub uint64) (*roundResult, error)
}

func newWorkload(name string, o *benchOptions) (workload, error) {
	switch name {
	case "serve":
		return newServeWorkload(defaultServeConfig(), o.seed), nil
	case "pressure":
		return newPressureWorkload(pressureConfig(false), o.seed), nil
	case "spill":
		return newPressureWorkload(pressureConfig(true), o.seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve, pressure or spill)", name)
}

func main() {
	var o benchOptions
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve, pressure or spill")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall-clock budget for the measured rounds")
	flag.IntVar(&trace, "trace", 0, "1 runs traced rounds and prints the per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/work", "directory for spill segments and sockets")
	flag.Parse()
	o.trace = trace == 1
	// Every workload runs on one P. On a 2-vCPU VM the host's other
	// tenants take a varying share of the second vCPU: with two Ps the
	// pressure and spill rounds used 0.7 to 1.6 cores from run to run, and
	// their throughput followed it, a spread of up to 0.24 of the median
	// over ten seeds; on one P it was 0.10 to 0.11.
	runtime.GOMAXPROCS(1)
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *benchOptions) error {
	wl, err := newWorkload(o.workload, o)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return fmt.Errorf("workdir: %w", err)
	}
	rs, err := runRounds(o, wl)
	if err != nil {
		return err
	}
	rep := summarize(rs)
	printHuman(os.Stderr, o, rs, rep)
	head, err := json.Marshal(map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"rounds":      len(rs),
		"fingerprint": machineFingerprint(),
		"untraced":    rep.e2e(false),
		"traced":      rep.e2e(true),
	})
	if err != nil {
		return err
	}
	fmt.Printf("# perfbench report %s\n", head)
	metrics := rep.e2eMetrics()
	if o.trace {
		metrics = rep.layerMetrics()
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runRounds runs whole rounds until the wall-clock budget is spent. With
// tracing on, rounds alternate untraced/traced and the run ends on a
// traced round so both kinds are present.
func runRounds(o *benchOptions, wl workload) ([]*roundResult, error) {
	var rs []*roundResult
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		// Untraced runs draw each round's schedule from its own sub-seed, so
		// a run's medians average over schedules as well as over noise.
		// Traced runs replay sub-seed 0 in every round, so their per-layer
		// counts repeat exactly and the traced and untraced rounds they
		// compare do the same work.
		var sub uint64
		if !o.trace {
			sub = uint64(i)
		}
		// A collected heap at every round start keeps one round's garbage
		// from being charged to the next.
		runtime.GC()
		r, err := wl.round(o, traced, sub)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.traced = traced
		rs = append(rs, r)
		if time.Since(start) >= budget && (!o.trace || traced) {
			return rs, nil
		}
	}
}

// machineFingerprint identifies the machine a report was measured on;
// reports with different fingerprints are not comparable.
func machineFingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
