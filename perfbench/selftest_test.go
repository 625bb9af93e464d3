package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stateless/internal/verify"
)

// The benchmark's self-test, on instances small enough to run in seconds:
//
//	go -C perfbench test ./...

// smallRing is a verifier instance of the verify-exact kind; its wanted
// verdict is the one the verifier gives.
func smallRing(t *testing.T) *verifyBench {
	t.Helper()
	b, err := newVerifyBench(ring(5, 3), verify.Options{Store: verify.StoreHash}, verifyWant{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := verify.LabelRStabilizingOpts(b.p, b.x, verifyR, b.opts)
	if err != nil {
		t.Fatal(err)
	}
	b.want = verifyWant{stabilizing: d.Stabilizing, exact: d.Exact, states: d.States, quotient: d.Quotient}
	return b
}

// runBench runs the benchmark command line on a workload registered for
// the test and returns its parsed last line of output.
func runBench(t *testing.T, name string, setup setupFunc, trace string) result {
	t.Helper()
	workloads[name] = setup
	t.Cleanup(func() { delete(workloads, name) })
	var out bytes.Buffer
	if err := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestWrongExpectationFailsOperation(t *testing.T) {
	t.Chdir(t.TempDir())
	wrong := map[string]func(*verifyWant){
		"states":      func(w *verifyWant) { w.states++ },
		"quotient":    func(w *verifyWant) { w.quotient++ },
		"stabilizing": func(w *verifyWant) { w.stabilizing = !w.stabilizing },
		"exact":       func(w *verifyWant) { w.exact = !w.exact },
		"hash factor": func(w *verifyWant) { w.minHashFactor = 1e9 },
	}
	base := smallRing(t)
	for field, spoil := range wrong {
		res := runBench(t, "test-ring", func(uint64) (bench, error) {
			b := *base
			spoil(&b.want)
			return &b, nil
		}, "0")
		if res.Correct || res.Failed != res.Attempted || res.Attempted < minOps {
			t.Errorf("wrong %s: correct=%v failed=%d attempted=%d, want every operation failed",
				field, res.Correct, res.Failed, res.Attempted)
		}
	}
	res := runBench(t, "test-ring", func(uint64) (bench, error) { b := *base; return &b, nil }, "0")
	if !res.Correct || res.Failed != 0 {
		t.Errorf("right expectation: correct=%v failed=%d, want no failure", res.Correct, res.Failed)
	}
}

func TestDESSummaryMismatchFailsOperation(t *testing.T) {
	b, err := buildDES(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	ops := measure(b, 2, 0, 2)
	if ops[0].err != nil || ops[1].err != nil {
		t.Fatalf("sweeps at one seed disagree: %v, %v", ops[0].err, ops[1].err)
	}
	pin := pinOf(*b.ref)
	b.ref.P50++
	if s := timeOp(b, 2, nil); s.err == nil {
		t.Error("a sweep whose Summary differs from the reference passed its check")
	}
	b.ref = nil
	pin.Activations[1]++
	b.pins = map[uint64]desPin{b.seed: pin}
	if s := timeOp(b, 2, nil); s.err == nil {
		t.Error("a sweep whose Summary differs from the seed's pin passed its check")
	}
	b.ref, b.pins = nil, nil
	b.sc.Opts.HorizonRounds = 1 // too short to stabilize
	if s := timeOp(b, 2, nil); s.err == nil {
		t.Error("a sweep with unstabilized trials passed its check")
	}
}

// TestDESPinnedSeed runs the full des-million sweep at seed 1 against its
// pinned Summary (about 5 s).
func TestDESPinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweep")
	}
	b, err := newDESBench(1)
	if err != nil {
		t.Fatal(err)
	}
	if s := timeOp(b, 2, nil); s.err != nil {
		t.Error(s.err)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the printed metrics must
// match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared benchmarkJSON
	if err := json.Unmarshal(data, &declared); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range declared.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads = %s, BENCHMARK.json lists %s", got, want)
	}

	t.Chdir(t.TempDir())
	des := setupFunc(func(seed uint64) (bench, error) { return buildDES(seed, 256) })
	base := smallRing(t)
	ring := setupFunc(func(uint64) (bench, error) { b := *base; return &b, nil })
	for _, c := range []struct {
		name, trace string
		setup       setupFunc
		want        []struct{ Name, Unit string }
	}{
		{"test-ring", "0", ring, declared.EndToEnd},
		{"test-ring", "1", ring, declared.PerLayer},
		{"test-des", "0", des, declared.EndToEnd},
		{"test-des", "1", des, declared.PerLayer},
	} {
		res := runBench(t, c.name, c.setup, c.trace)
		if !res.Correct {
			t.Errorf("%s trace=%s: correct=false", c.name, c.trace)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s trace=%s: printed %d metrics, BENCHMARK.json lists %d", c.name, c.trace, len(res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%s: metric %s printed as %+v (present %v), want unit %s", c.name, c.trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}
