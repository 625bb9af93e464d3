package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"

	"stateless/internal/core"
	"stateless/internal/des"
	"stateless/internal/enc"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/verify"
	"stateless/internal/workload"
)

// bench is a built workload instance.
type bench interface {
	// op runs the timed operation once on workers workers and checks its
	// output; a non-nil error makes the operation count as failed. With
	// t non-nil the operation is traced: the program's registry is
	// attached and a span is recorded around the public call.
	op(workers int, t *tracing) error
	// layers fills the per-layer metrics of the traced operation s, whose
	// registry is reg, running whatever extra traced calls they need, and
	// returns the extra operations it ran.
	layers(tr *tracer, s sample, reg *obs.Registry, m metrics) []sample
}

// setupFunc builds a workload's bench from the seed; setup_s times it.
type setupFunc func(seed uint64) (bench, error)

// The workloads. Why each was chosen, and which layers each stresses, is
// recorded in BENCHMARK.json and METRICS.md.
var workloads = map[string]setupFunc{
	// Default exact path: one-word states, patch-DP expansion, byte-table
	// canonicalisation, sharded hash intern, edge log, rank/CSR/SCC.
	"verify-exact": func(uint64) (bench, error) {
		return newVerifyBench(ring(10, 3), verify.Options{Store: verify.StoreHash, Symmetry: verify.SymmetryAuto},
			verifyWant{stabilizing: true, exact: true, states: ringStates, quotient: 10})
	},
	// The same instance through the lossy key-frontier search: Bloom-filter
	// intern, no edge log, no SCC, so the pair isolates the store.
	// Admitted states may miss the exact count by hash omissions (fewer)
	// or by racing double admissions at workers ≥ 2 (more); the signed
	// difference is reported as a per-layer metric, not failed.
	"verify-bitstate": func(uint64) (bench, error) {
		return newVerifyBench(ring(10, 3), verify.Options{Store: verify.StoreBitstate, Symmetry: verify.SymmetryAuto},
			verifyWant{stabilizing: true, exact: false, states: ringStates, statesTol: bitstateTol,
				quotient: 10, minHashFactor: 100})
	},
	// Generic path: two-word states of a symmetric (not node-uniform)
	// protocol, so Σ^n seeding, the generic expansion and the multi-word
	// canonicaliser, none of the single-word fast paths of the rings.
	"verify-torus": func(uint64) (bench, error) {
		return newVerifyBench(torus(3, 3, 3), verify.Options{Store: verify.StoreHash, Symmetry: verify.SymmetryOn},
			verifyWant{stabilizing: true, exact: true, states: 34223, quotient: 9})
	},
	// The only workload of the des, workload and par layers.
	"des-million": newDESBench,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ringStates is the exact state count of the instance of verify-exact and
// verify-bitstate; bitstateTol, 0.1% of it, is how far the bitstate
// store's admitted count may stray from it before the operation fails.
// Hash omissions lower the count by a few states; the racing double
// admissions of the bitstate store at 2 workers raise it, with a heavy
// tail the tolerance must not turn into failures.
const (
	ringStates  = 217563
	bitstateTol = ringStates / 1000
)

func ring(n int, sigma uint64) func() (*core.Protocol, error) {
	return func() (*core.Protocol, error) { return protocols.SaturatingRing(n, sigma) }
}

func torus(rows, cols int, sigma uint64) func() (*core.Protocol, error) {
	return func() (*core.Protocol, error) { return protocols.SaturatingNet(graph.Torus(rows, cols), sigma) }
}

// verifyR is the fairness bound r of every verifier workload.
const verifyR = 2

// verifyWant is the expected verdict of a verifier workload.
type verifyWant struct {
	stabilizing, exact bool
	states, quotient   int
	// statesTol is the allowed |States − states| (0: exact match).
	statesTol int
	// minHashFactor, when positive, is the least acceptable HashFactor.
	minHashFactor float64
}

func (w verifyWant) check(d verify.Decision) error {
	switch {
	case d.Stabilizing != w.stabilizing:
		return fmt.Errorf("output mismatch: Stabilizing = %v, want %v", d.Stabilizing, w.stabilizing)
	case d.Exact != w.exact:
		return fmt.Errorf("output mismatch: Exact = %v, want %v", d.Exact, w.exact)
	case d.States < w.states-w.statesTol || d.States > w.states+w.statesTol:
		return fmt.Errorf("output mismatch: States = %d, want %d ± %d", d.States, w.states, w.statesTol)
	case d.Quotient != w.quotient:
		return fmt.Errorf("output mismatch: Quotient = %d, want %d", d.Quotient, w.quotient)
	case w.minHashFactor > 0 && !(d.HashFactor > w.minHashFactor):
		return fmt.Errorf("output mismatch: HashFactor = %g, want > %g", d.HashFactor, w.minHashFactor)
	}
	return nil
}

// verifyBench is one verifier instance: an r-stabilization check of a
// protocol with the all-zero input.
type verifyBench struct {
	build func() (*core.Protocol, error)
	p     *core.Protocol
	x     core.Input
	opts  verify.Options
	want  verifyWant
	last  verify.Decision
}

// newVerifyBench builds the protocol and then makes the verifier's own
// set-up calls once, so that setup_s times the set-up a verification pays
// before it explores, not only the protocol value.
func newVerifyBench(build func() (*core.Protocol, error), opts verify.Options, want verifyWant) (*verifyBench, error) {
	p, err := build()
	if err != nil {
		return nil, err
	}
	b := &verifyBench{build: build, p: p, x: make(core.Input, p.Graph().N()), opts: opts, want: want}
	b.prepare(nil)
	return b, nil
}

// prepare makes the set-up calls verify.LabelRStabilizingOpts makes before
// it explores: the state codec, the visited-state store and the symmetry
// tables. The verifier builds its own, so these are discarded. Each call is
// a span of tr when tr is not nil. It returns the seconds explore.NewSymmetry
// took under tr.
func (b *verifyBench) prepare(tr *tracer) float64 {
	g := b.p.Graph()
	var codec *enc.Codec
	tr.do("setup", "enc.NewStateCodec", func() { codec = enc.NewStateCodec(b.p.Space(), g.M(), g.N(), verifyR, false) })
	tr.do("setup", "explore.NewStore", func() {
		if b.opts.Store == verify.StoreBitstate {
			_ = explore.NewBitstate(codec.Words(), verify.DefaultBitstateBits, verify.DefaultBitstateK)
		} else {
			_ = explore.NewHash(codec.Words())
		}
	})
	if b.opts.Symmetry == verify.SymmetryOff {
		return 0
	}
	return tr.do("setup", "explore.NewSymmetry", func() { explore.NewSymmetry(b.p, b.x, codec) })
}

func (b *verifyBench) op(workers int, t *tracing) error {
	o := b.opts
	o.Workers = workers
	if t != nil {
		o.Metrics = t.reg
		defer t.span("verify.LabelRStabilizingOpts")()
	}
	d, err := verify.LabelRStabilizingOpts(b.p, b.x, verifyR, o)
	if err != nil {
		return err
	}
	b.last = d
	return b.want.check(d)
}

func (b *verifyBench) layers(tr *tracer, s sample, reg *obs.Registry, m metrics) []sample {
	snap := reg.Snapshot()
	// Stage timers carry their total in Ns, the analysis phases theirs in
	// a gauge's Value.
	sec := func(name string) float64 {
		v := snap[name]
		if v.Kind == "timer" {
			return float64(v.Ns) / 1e9
		}
		return float64(v.Value) / 1e9
	}
	stages := []string{explore.MetricExpandNs, explore.MetricInternNs, explore.MetricAbsorbNs,
		verify.MetricRankNs, verify.MetricCSRNs, verify.MetricSCCNs, verify.MetricWitnessNs}
	attributed := 0.0
	for _, st := range stages {
		attributed += sec(st)
	}
	states := float64(snap[explore.MetricStates].Value)
	fill := snap[explore.MetricBatchFill]
	m["explore.intern_s"] = sec(explore.MetricInternNs)
	m["explore.absorb_s"] = sec(explore.MetricAbsorbNs)
	m["explore.expand_s"] = sec(explore.MetricExpandNs)
	m["explore.worker_idle_s"] = sec(explore.MetricIdleNs)
	m["explore.store.probes_per_state"] = float64(snap[explore.MetricStoreProbes].Value) / float64(snap[explore.MetricStoreStates].Value)
	m["explore.store.max_probe"] = float64(snap[explore.MetricStoreMaxProbe].Value)
	m["explore.store.occupancy_ppm"] = float64(snap[explore.MetricStoreOccupancyPPM].Value)
	m["verify.step_s"] = sec(verify.MetricStepNs)
	m["verify.pack_s"] = sec(verify.MetricPackNs)
	m["verify.canonicalize_s"] = sec(verify.MetricCanonNs)
	m["verify.rank_s"] = sec(verify.MetricRankNs)
	m["verify.csr_s"] = sec(verify.MetricCSRNs)
	m["verify.scc_s"] = sec(verify.MetricSCCNs)
	m["verify.witness_s"] = sec(verify.MetricWitnessNs)
	m["verify.unattributed_cpu_s"] = s.cpu - attributed
	m["explore.states"] = states
	m["verify.edges"] = float64(snap[verify.MetricEdges].Value)
	m["verify.sccs"] = float64(snap[verify.MetricSCCs].Value)
	m["explore.batch_fill_mean"] = float64(fill.Sum) / float64(fill.Count)
	m["explore.states_per_s"] = states / s.wall
	if b.opts.Store == verify.StoreBitstate {
		m["explore.bitstate.saturation_ppm"] = float64(snap[explore.MetricStoreSaturationPPM].Value)
		m["explore.bitstate.admitted_minus_exact"] = float64(b.last.States - ringStates)
	}

	setup := tr.begin("setup", "setup")
	id := tr.begin("setup", "protocols.build")
	_, err := b.build()
	m["protocols.build_s"] = tr.end(id)
	if err != nil {
		tr.end(setup)
		return []sample{{err: err}}
	}
	m["explore.new_symmetry_s"] = b.prepare(tr)
	tr.end(setup)

	s1 := timeOp(b, 1, &tracing{tr: tr, reg: obs.NewRegistry(), run: "op-workers1"})
	m["explore.workers_speedup"] = s1.wall / s.wall
	return []sample{s1}
}

// DES workload shape: a 2^20-node saturating ring with |Σ| = 8 under the
// churn scenario and a Poisson daemon, swept over desTrials trials.
const (
	desNodes  = 1 << 20
	desSigma  = 8
	desTrials = 2
)

// desBench is the des-million instance. The first sweep of a run fixes
// the reference Summary every later sweep at the same seed must equal;
// where pins holds a known-good fingerprint for the seed, the first sweep
// must match it too.
type desBench struct {
	seed uint64
	sc   workload.Scenario
	ref  *workload.Summary
	pins map[uint64]desPin
}

func newDESBench(seed uint64) (bench, error) {
	b, err := buildDES(seed, desNodes)
	if err != nil {
		return nil, err
	}
	b.pins = desPinned
	return b, nil
}

// buildDES builds the des-million scenario on an n-node ring.
func buildDES(seed uint64, n int) (*desBench, error) {
	p, err := protocols.SaturatingRing(n, desSigma)
	if err != nil {
		return nil, err
	}
	sc, err := workload.NewScenario(workload.Churn, p, make(core.Input, n),
		workload.Options{Daemon: workload.DaemonPoisson})
	if err != nil {
		return nil, err
	}
	return &desBench{seed: seed, sc: sc}, nil
}

func (b *desBench) op(workers int, t *tracing) error {
	sc := b.sc
	if t != nil {
		sc.Opts.Metrics = t.reg
		defer t.span("workload.Run")()
	}
	sum, err := workload.Run(context.Background(), sc, desTrials, b.seed, workers)
	if err != nil {
		return err
	}
	return b.check(sum)
}

// check requires every trial to stabilize, the Summary to equal the run's
// first one at this seed, and the first to match the seed's pin if any.
func (b *desBench) check(sum workload.Summary) error {
	if sum.Stabilized != len(sum.Trials) || len(sum.Trials) != desTrials {
		return fmt.Errorf("output mismatch: %d of %d trials stabilized, want all %d", sum.Stabilized, len(sum.Trials), desTrials)
	}
	if b.ref == nil {
		fmt.Printf("des-million seed=%d %+v\n", b.seed, pinOf(sum))
		if pin, ok := b.pins[b.seed]; ok && pinOf(sum) != pin {
			return fmt.Errorf("output mismatch: Summary %+v at seed %d, known-good %+v", pinOf(sum), b.seed, pin)
		}
		ref := sum
		b.ref = &ref
		return nil
	}
	if !reflect.DeepEqual(*b.ref, sum) {
		return fmt.Errorf("output mismatch: Summary differs from the first sweep at seed %d", b.seed)
	}
	return nil
}

// desPin is the fingerprint of a des-million Summary: the recovery
// percentiles in ticks and each trial's activations and faults.
type desPin struct {
	P50, P95, P99, Max  uint64
	Activations, Faults [desTrials]uint64
}

func pinOf(sum workload.Summary) desPin {
	pin := desPin{P50: sum.P50, P95: sum.P95, P99: sum.P99, Max: sum.Max}
	for i, t := range sum.Trials {
		pin.Activations[i], pin.Faults[i] = t.Activations, t.Faults
	}
	return pin
}

// desPinned holds the Summary fingerprints of the des-million sweep at
// seeds 1 to 20, as the DES and workload layers give them today. A change
// that moves one changed the simulation, not only its speed.
var desPinned = map[uint64]desPin{
	1:  {3795, 6420, 6420, 6420, [desTrials]uint64{2397928, 2402278}, [desTrials]uint64{12, 10}},
	2:  {6420, 8603, 8603, 8603, [desTrials]uint64{2402278, 2400854}, [desTrials]uint64{10, 8}},
	3:  {104, 8603, 8603, 8603, [desTrials]uint64{2400854, 2401474}, [desTrials]uint64{8, 6}},
	4:  {0, 104, 104, 104, [desTrials]uint64{2401474, 2401300}, [desTrials]uint64{6, 6}},
	5:  {0, 533, 533, 533, [desTrials]uint64{2401300, 2399215}, [desTrials]uint64{6, 8}},
	6:  {269, 533, 533, 533, [desTrials]uint64{2399215, 2397940}, [desTrials]uint64{8, 4}},
	7:  {269, 3687, 3687, 3687, [desTrials]uint64{2397940, 2398826}, [desTrials]uint64{4, 2}},
	8:  {31, 3687, 3687, 3687, [desTrials]uint64{2398826, 2399103}, [desTrials]uint64{2, 8}},
	9:  {31, 277, 277, 277, [desTrials]uint64{2399103, 2400107}, [desTrials]uint64{8, 6}},
	10: {90, 277, 277, 277, [desTrials]uint64{2400107, 2399912}, [desTrials]uint64{6, 10}},
	11: {90, 1255, 1255, 1255, [desTrials]uint64{2399912, 2401082}, [desTrials]uint64{10, 6}},
	12: {1255, 5846, 5846, 5846, [desTrials]uint64{2401082, 2400133}, [desTrials]uint64{6, 2}},
	13: {1402, 5846, 5846, 5846, [desTrials]uint64{2400133, 2398299}, [desTrials]uint64{2, 6}},
	14: {1402, 2758, 2758, 2758, [desTrials]uint64{2398299, 2400621}, [desTrials]uint64{6, 10}},
	15: {453, 2758, 2758, 2758, [desTrials]uint64{2400621, 2399708}, [desTrials]uint64{10, 4}},
	16: {71, 453, 453, 453, [desTrials]uint64{2399708, 2399803}, [desTrials]uint64{4, 10}},
	17: {71, 2296, 2296, 2296, [desTrials]uint64{2399803, 2399064}, [desTrials]uint64{10, 6}},
	18: {667, 2296, 2296, 2296, [desTrials]uint64{2399064, 2400806}, [desTrials]uint64{6, 6}},
	19: {667, 6125, 6125, 6125, [desTrials]uint64{2400806, 2400173}, [desTrials]uint64{6, 8}},
	20: {6125, 7289, 7289, 7289, [desTrials]uint64{2400173, 2399484}, [desTrials]uint64{8, 10}},
}

func (b *desBench) layers(tr *tracer, s sample, reg *obs.Registry, m metrics) []sample {
	snap := reg.Snapshot()
	acts := float64(snap["des/activations"].Value)
	m["workload.run_s"] = s.wall
	m["des.activations"] = acts
	m["des.reactions"] = float64(snap["des/reactions"].Value)
	m["des.faults"] = float64(snap["des/faults"].Value)
	m["des.heap_max"] = float64(snap["des/heap_max"].Value)
	m["des.cpu_ns_per_activation"] = s.cpu * 1e9 / acts
	m["des.reactions_per_activation"] = m["des.reactions"] / acts

	defer tr.end(tr.begin("setup", "setup"))
	id := tr.begin("setup", "protocols.build")
	_, err := protocols.SaturatingRing(b.sc.P.Graph().N(), desSigma)
	m["protocols.build_s"] = tr.end(id)
	if err != nil {
		return []sample{{err: err}}
	}
	runtime.GC()
	p := b.sc.P
	l0 := core.RandomLabeling(p.Graph(), p.Space(), rand.New(rand.NewPCG(b.seed, b.seed)))
	id = tr.begin("setup", "des.New")
	_, err = des.New(p, b.sc.X, l0, des.NewPoisson(1, b.seed), des.Config{})
	m["des.new_s"] = tr.end(id)
	if err != nil {
		return []sample{{err: err}}
	}
	return nil
}
