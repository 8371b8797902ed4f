// Command perfbench is the repository benchmark. It drives one closed-loop
// workload through the public dht, dht/queue and rma APIs inside a single
// process, checks every result, and prints metrics by name and unit.
//
//	go run . --workload kv-read-heavy --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics: host cost of the
// simulator (wall throughput, allocations, set-up time, memory) and the
// modelled LogGP cost (virtual-time throughput and latency). With
// --trace 1 it runs the same workload and seed twice on one world, first
// untraced and then traced, and prints the per-layer metrics: CPU profile
// attribution by repository package, layer-call latencies timed around the
// public calls, counters, the critical-path stage shares, a datatype probe
// and the tracing overhead. NOTES.md maps each metric to its layer.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole invocation: a wedged rank must end the process
// with an error, not hang the caller.
const watchdog = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: key draws, payload sizes and displacements derive from it")
	seconds := flag.Float64("seconds", 15, "wall seconds of each timed phase")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := flag.String("outdir", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, watchdog)
		os.Exit(3)
	})

	procs := goruntime.NumCPU()
	goruntime.GOMAXPROCS(procs)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s os/arch=%s/%s\n",
		procs, goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceFlag)
	fmt.Printf("shape: %s\n", w.shape)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traceFlag == 0 {
		res, err = endToEnd(w, *seed, budget)
	} else {
		res, err = traced(w, *seed, budget, *outDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed or returned wrong results\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// endToEnd measures the untraced workload: set-up repeated several times,
// then one timed phase.
func endToEnd(w *workload, seed int64, budget time.Duration) (result, error) {
	h := newHarness(w, seed)
	ph := &phase{budget: budget / timedWorlds, minSamples: minLatencySamples}
	if err := h.run(timedWorlds, []*phase{ph}, nil); err != nil {
		return result{}, err
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)

	lat := ph.latencies()
	p50, n50 := percentile(lat, 0.50)
	p99, n99 := percentile(lat, 0.99)
	if n99 < 0 {
		return result{}, fmt.Errorf("only %d modelled latency samples: p99 needs %d", len(lat), minLatencySamples)
	}
	fmt.Printf("samples: rounds=%d ops=%d attempted=%d failed=%d latency_samples=%d (p50 has %d beyond, p99 has %d beyond)\n",
		len(ph.rounds), ph.ops, ph.attempted, ph.failed, len(lat), n50, n99)
	fmt.Printf("worlds: sim_ops_per_s %s\n", fmtFloats(ph.worldRates))
	fmt.Printf("setup: %d set-ups, seconds %s\n", len(h.setups), fmtDurations(h.setups))
	// Printed but left out of the result object: the uncontended modelled
	// median is deterministic, so it reads the same on every run, and
	// fail_ratio is 0 on every accepted run (the object carries failed and
	// attempted).
	fmt.Printf("metric %-28s %16.6g %s\n", "model_p50_us", float64(p50)/1e3, "us")
	fmt.Printf("metric %-28s %16.6g %s\n", "fail_ratio", ratio(ph.failed, ph.attempted), "ratio")

	res := result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"sim_ops_per_s":   {simOpsPerSec(ph.rounds), "ops/s"},
			"allocs_per_op":   {float64(ph.mallocs) / float64(max(ph.ops, 1)), "allocs"},
			"setup_s":         {median(h.setups).Seconds(), "s"},
			"mem_peak_mib":    {float64(ms.Sys) / (1 << 20), "MiB"},
			"model_ops_per_s": {modelOpsPerSec(ph.rounds), "ops/s"},
			"model_p99_us":    {float64(p99) / 1e3, "us"},
		},
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.0f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
