// Command perfbench is the repository benchmark. One invocation runs one
// workload — three exhaustive verifier instances and a million-node
// discrete-event fault-injection sweep — for a fixed time, checks the
// output of every operation, and prints one JSON result object as the last
// line of standard output:
//
//	bash perfbench/run.sh --workload verify-exact --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (medians over the timed
// operations, all untraced and at Workers = GOMAXPROCS; times relative to
// the reference task of reference.go). With --trace 1 it
// reports the per-layer metrics of one traced operation instead and writes
// the recorded spans to .bench_build/traces/. METRICS.md maps every
// per-layer metric to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. The lists below are the benchmark's
// interface: they must match BENCHMARK.json (the self-test checks that).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"op_rel", "ratio"},
	{"op_cpu_rel", "ratio"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"explore.intern_s", "s"},
	{"explore.store.probes_per_state", "ratio"},
	{"explore.store.max_probe", "count"},
	{"explore.store.occupancy_ppm", "ppm"},
	{"explore.absorb_s", "s"},
	{"explore.worker_idle_s", "s"},
	{"explore.workers_speedup", "ratio"},
	{"verify.canonicalize_s", "s"},
	{"explore.new_symmetry_s", "s"},
	{"verify.step_s", "s"},
	{"verify.pack_s", "s"},
	{"explore.expand_s", "s"},
	{"verify.rank_s", "s"},
	{"verify.csr_s", "s"},
	{"verify.scc_s", "s"},
	{"verify.witness_s", "s"},
	{"verify.unattributed_cpu_s", "s"},
	{"explore.states", "count"},
	{"verify.edges", "count"},
	{"verify.sccs", "count"},
	{"explore.batch_fill_mean", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.bitstate.saturation_ppm", "ppm"},
	{"explore.bitstate.admitted_minus_exact", "count"},
	{"protocols.build_s", "s"},
	{"des.new_s", "s"},
	{"workload.run_s", "s"},
	{"des.cpu_ns_per_activation", "ns"},
	{"des.reactions_per_activation", "ratio"},
	{"des.activations", "count"},
	{"des.reactions", "count"},
	{"des.faults", "count"},
	{"des.heap_max", "count"},
	{"par.utilization", "ratio"},
	{"tracing_overhead", "ratio"},
	{"op_s", "s"},
	{"reference_s", "s"},
}

// metrics collects reported values by name.
type metrics map[string]float64

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Operation counts: every run times at least minOps operations, and the
// traced run compares its traced operation against tracedBaselineOps
// untraced ones.
const (
	minOps            = 3
	tracedBaselineOps = 3
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Uint64("seed", 1, "workload seed (only des-million draws from it; the verifier workloads are exhaustive)")
	seconds := fs.Float64("seconds", 30, "how long the timed operations run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (valid: %s)", *name, strings.Join(workloadNames(), " | "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}

	b, setups, err := setUps(setup, *seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", *name, err)
	}
	workers := runtime.GOMAXPROCS(0)
	var res result
	if *trace == 0 {
		ops := measure(b, workers, *seconds, minOps)
		res = newResult(ops, endToEnd, metrics{
			"op_rel":       median(ops, func(s sample) float64 { return s.wall }) / median(ops, func(s sample) float64 { return s.refWall }),
			"op_cpu_rel":   median(ops, func(s sample) float64 { return s.cpu }) / median(ops, func(s sample) float64 { return s.refCPU }),
			"peak_rss_mib": median(ops, func(s sample) float64 { return s.rssMiB }),
			"setup_s":      medianOf(setups),
		})
	} else {
		out := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", *name, *seed)
		res, err = traced(b, workers, out)
		if err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// Set-up timing: the instance is built setUpReps times and setup_s is the
// median. A build shorter than setUpMinBatch is repeated in a batch this
// long and timed as the batch mean, so no reported set-up time rests on
// timing a microsecond interval.
const (
	setUpReps     = 5
	setUpMinBatch = 200 * time.Millisecond
)

// setUps builds the workload instance setUpReps times, each from a
// collected heap, and returns the last instance built with the seconds of
// each build.
func setUps(setup setupFunc, seed uint64) (bench, []float64, error) {
	var b bench
	var times []float64
	for range setUpReps {
		runtime.GC()
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < setUpMinBatch {
			var err error
			if b, err = setup(seed); err != nil {
				return nil, nil, err
			}
			n++
		}
		times = append(times, time.Since(start).Seconds()/float64(n))
	}
	return b, times, nil
}

// sample is one timed operation and, for an untraced one, the reference
// task timed right before it.
type sample struct {
	wall, cpu, rssMiB float64
	refWall, refCPU   float64
	err               error
}

// measure runs at least ops operations, each after one reference task, and
// more while another pair of the mean length so far still ends within
// seconds, so a run's length does not depend on where the deadline falls
// in an operation.
func measure(b bench, workers int, seconds float64, ops int) []sample {
	ref := newRefTask(workers)
	start := time.Now()
	var out []sample
	for len(out) < ops || time.Since(start).Seconds()*float64(len(out)+1)/float64(len(out)) <= seconds {
		refWall, refCPU := ref.time()
		s := timeOp(b, workers, nil)
		s.refWall, s.refCPU = refWall, refCPU
		out = append(out, s)
		fmt.Fprintf(os.Stderr, "perfbench: operation %d: wall %.3fs cpu %.3fs peak %.1fMiB; reference wall %.3fs cpu %.3fs\n",
			len(out), s.wall, s.cpu, s.rssMiB, s.refWall, s.refCPU)
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", len(out), s.err)
		}
	}
	return out
}

// timeOp runs and checks one operation, returning its wall and CPU time and
// the process's peak RSS while it ran.
func timeOp(b bench, workers int, tr *tracing) sample {
	// Every operation starts from a collected heap. The heap's pages stay
	// mapped, so an operation reuses the memory the last one faulted in.
	runtime.GC()
	resetPeakRSS()
	c0 := cpuSeconds()
	t0 := time.Now()
	err := b.op(workers, tr)
	wall := time.Since(t0).Seconds()
	return sample{wall: wall, cpu: cpuSeconds() - c0, rssMiB: peakRSSMiB(), err: err}
}

// newResult assembles the printed result from the operations it rests on
// and one value for each metric of defs.
func newResult(ops []sample, defs []metricDef, m metrics) result {
	res := result{Attempted: len(ops), Metrics: map[string]metricValue{}}
	for _, s := range ops {
		if s.err != nil {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := m[d.name]
		// JSON has no NaN or Inf: a ratio over an empty count prints as 0.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func median(ops []sample, f func(sample) float64) float64 {
	v := make([]float64, len(ops))
	for i, s := range ops {
		v[i] = f(s)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS sets the kernel's peak-RSS mark (VmHWM) to the current RSS.
// Where that is not permitted the mark stays the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status, falling back to
// getrusage's whole-process maximum.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb int64
			if _, err := fmt.Sscanf(line, "VmHWM: %d kB", &kb); err == nil {
				return float64(kb) / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
