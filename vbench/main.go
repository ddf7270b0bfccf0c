// Command vbench is the video store's end-to-end benchmark. It runs one
// of four workloads (ingest, playback, degraded, remote) against the
// real store, tier and net code, checks every byte it reads back
// against the generated clips, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, read from an
// enabled obs registry, Store.Stats and replays of the lower layers.
// Run it through run.py, which builds it with every cache inside the
// checkout:
//
//	python3 vbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "ingest, playback, degraded or remote")
	seed := fs.Int64("seed", 1, "seed for clips, key choices and op order")
	seconds := fs.Float64("seconds", 20, "how long to keep starting measurement cycles")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for journals")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the full report and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	tmpAbs, err := filepath.Abs(*tmp)
	if err != nil {
		return err
	}
	b, err := newBench(*seed, tmpAbs)
	if err != nil {
		return err
	}
	if err := b.generate(); err != nil {
		return err
	}
	env := stamp(*workload, *seed, *trace == 1, tmpAbs)
	budget := time.Duration(*seconds * float64(time.Second))

	var res result
	var report map[string]any
	if *trace == 1 {
		res, report, err = runTraced(b, wl, budget, *out, *workload, *seed)
		if err != nil {
			return err
		}
	} else {
		agg, err := runCycles(b, wl, budget)
		if err != nil {
			return err
		}
		res = agg.endToEnd()
		report = agg.report()
	}

	full := map[string]any{"env": env, "workload": *workload, "result": res, "detail": report}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace)
	if err := writeJSON(filepath.Join(*out, name), full); err != nil {
		return err
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("%-36s %14.4f %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCycles runs a warm-up cycle, then repeats the workload's cycle,
// tracing off, until the budget is spent (and at least minCycles
// times), pooling the measured cycles' samples.
func runCycles(b *bench, wl workload, budget time.Duration) (*aggregate, error) {
	agg := &aggregate{}
	start := time.Now()
	if err := agg.warmUp(b, wl); err != nil {
		return nil, err
	}
	for c := 1; c <= minCycles || time.Since(start) < budget; c++ {
		cs, err := runCycle(b, wl, c, false)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
		agg.add(cs)
	}
	return agg, nil
}

// minCycles keeps medians over cycles meaningful even when a short
// budget would stop after the first one.
const minCycles = 3

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of ds by the nearest-rank rule. ds
// is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// errGuard marks a start-up check that makes a workload meaningless.
var errGuard = errors.New("guard")

// stamp describes the host and inputs, so results from different
// hosts or seeds are never compared unnoticed.
func stamp(workload string, seed int64, traced bool, tmp string) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"clients":    clients(),
		"gf256":      gf256Kernel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"journal_fs": fsType(tmp),
	}
}
