// Command perfbench is the repository benchmark. It runs one workload from
// a seed, checks every output against the benchmark's own computation, and
// prints each end-to-end metric by name with its unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// observability off. With -trace 1 it first repeats the untraced phase as a
// reference, then runs a traced phase with observability on and prints the
// per-layer metrics instead, writing a Perfetto-loadable trace and the
// per-layer JSON under -out.
//
// Run it through run.py, which builds it from the checkout:
//
//	python3 perfbench/run.py --workload array-ebr --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"rcuarray/internal/core"
	"rcuarray/internal/obs"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for dur and checks its outputs. A traced
	// phase also fills phase.layers.
	measure(dur time.Duration, traced bool) (*phase, error)
	// writeTrace writes the traced phase's merged Perfetto trace.
	writeTrace(w io.Writer) error
	close()
}

// workload names a set-up function and how many set-ups a run times. start
// builds the cluster and the array, grows it and preloads it with pre, a
// fresh copy of the seeded contents that the instance keeps as its shadow.
type workload struct {
	name   string
	setups int
	start  func(seed uint64, pre []int64, traced bool) (instance, error)
}

var workloads = []workload{
	{"array-ebr", 21, startArray(core.VariantEBR)},
	{"array-qsbr", 21, startArray(core.VariantQSBR)},
	{"dist-serve", 5, startDist(true)},
	{"dist-bulk", 5, startDist(false)},
}

// phase is what one measured phase produced.
type phase struct {
	attempted, failed int64 // calls made; calls that returned an error
	elems             int64 // element operations completed
	elapsed           time.Duration
	rt                runtimeDelta
	calls             latency // per call of the workload's unit
	resizes           latency // per Grow
	heapMiB           float64
	layers            layers // traced phases only
}

func (p *phase) opsPerSec() float64 { return float64(p.elems) / p.elapsed.Seconds() }

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
	name := flag.String("workload", "", "workload: array-ebr, array-qsbr, dist-serve or dist-bulk")
	seed := flag.Uint64("seed", 1, "seed of every generated index and value stream")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced phase")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's outputs")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	res, err := run(w, *seed, dur, *trace == 1, *out)
	var mm *mismatch
	switch {
	case errors.As(err, &mm):
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		printResult(result{Correct: false, Attempted: 1, Metrics: map[string]metric{}})
		os.Exit(1)
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(2)
	}
	printResult(res)
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Println(string(b))
}

// run performs one benchmark run of w.
func run(w *workload, seed uint64, dur time.Duration, traced bool, out string) (result, error) {
	if !traced {
		p, setups, err := untraced(w, seed, dur, w.setups)
		if err != nil {
			return result{}, err
		}
		return endToEnd(w.name, seed, p, setups)
	}
	// The run's measured time is split between the untraced reference phase
	// and the traced phase, so a traced run costs what an untraced one does.
	base, _, err := untraced(w, seed, dur/2, 0)
	if err != nil {
		return result{}, err
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	runtime.GC()
	inst, err := w.start(seed, preload(seed, baseElems), true)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	p, err := inst.measure(dur/2, true)
	if err != nil {
		return result{}, err
	}
	p.layers.runtime(base)
	p.layers["trace.overhead_pct"] = 100 * (1 - p.opsPerSec()/base.opsPerSec())
	for name, v := range p.layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("per-layer metric %s undefined: no operation or resize completed", name)
		}
	}
	if err := writeOutputs(out, w.name, inst, p.layers); err != nil {
		return result{}, err
	}
	r := result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	fmt.Printf("%s seed %d traced: %.0f ops/s against %.0f untraced\n", w.name, seed, p.opsPerSec(), base.opsPerSec())
	for _, u := range layerUnits {
		v := p.layers[u.name]
		fmt.Printf("  %-28s %14.4f %s\n", u.name, v, u.unit)
		r.Metrics[u.name] = metric{v, u.unit}
	}
	return r, nil
}

// untraced sets w up once untimed, to warm the runtime, then setups more
// times, timing each; it keeps the last set-up and measures one phase on it
// with observability off. Before each set-up the freed heap is handed back
// to the operating system, so every set-up faults its memory in afresh, as
// a new process does. Left to the runtime's background scavenger, whether a
// set-up reused resident pages or faulted them in depended on its timing:
// on the reference host the median of 41 in-process set-ups ranged from 154
// to 230us over five processes, and from 455 to 491us with every set-up
// cold.
func untraced(w *workload, seed uint64, dur time.Duration, setups int) (*phase, []float64, error) {
	var inst instance
	times := make([]float64, 0, setups)
	for i := 0; i <= setups; i++ {
		if inst != nil {
			inst.close()
		}
		pre := preload(seed, baseElems)
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if inst, err = w.start(seed, pre, false); err != nil {
			return nil, nil, err
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	defer inst.close()
	p, err := inst.measure(dur, false)
	return p, times, err
}

// endToEnd turns an untraced phase into the end-to-end metrics. The p99 of
// calls is printed for reading but is not a metric: on the reference host it
// is set by scheduling jitter and spreads too far between runs to bound.
func endToEnd(name string, seed uint64, p *phase, setups []float64) (result, error) {
	if !p.calls.p50OK || !p.resizes.p50OK {
		return result{}, fmt.Errorf("%d calls and %d resizes timed, too few to report; run longer", p.calls.n, p.resizes.n)
	}
	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {p.opsPerSec(), "1/s"},
		"call_p50_us":   {p.calls.p50, "us"},
		"resize_p50_us": {p.resizes.p50, "us"},
		"heap_live_mib": {p.heapMiB, "MiB"},
	}
	fmt.Printf("%s seed %d: %d element ops in %.3fs\n", name, seed, p.elems, p.elapsed.Seconds())
	counts := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups", len(setups)),
		"call_p50_us":   fmt.Sprintf("n=%d", p.calls.n),
		"resize_p50_us": fmt.Sprintf("n=%d", p.resizes.n),
	}
	for _, k := range []string{"setup_s", "ops_per_s", "call_p50_us", "resize_p50_us", "heap_live_mib"} {
		fmt.Printf("  %-14s %14.6g %-4s %s\n", k, m[k].Value, m[k].Unit, counts[k])
	}
	if p.calls.p99OK {
		fmt.Printf("  (call p99     %14.4f us   n=%d, not bounded)\n", p.calls.p99, p.calls.n)
	}
	return result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// writeOutputs writes the traced run's two files: the merged Perfetto trace
// and the per-layer metrics keyed by name.
func writeOutputs(dir, name string, inst instance, l layers) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(dir, name+"-trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := inst.writeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", tracePath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	layersPath := filepath.Join(dir, name+"-layers.json")
	if err := os.WriteFile(layersPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", tracePath, layersPath)
	return nil
}
