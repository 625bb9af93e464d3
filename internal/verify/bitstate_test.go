package verify_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/verify"
)

// ringProto builds one of the two ring oracle protocols by name.
func ringProto(t *testing.T, kind string, n int, sigma uint64) *core.Protocol {
	t.Helper()
	var (
		p   *core.Protocol
		err error
	)
	switch kind {
	case "saturating":
		p, err = protocols.SaturatingRing(n, sigma)
	case "copy":
		p, err = protocols.CopyRing(n, sigma)
	default:
		t.Fatalf("unknown ring kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// isRotation reports whether b is a (possibly trivial) rotation of a.
func isRotation(a, b core.Labeling) bool {
	if len(a) != len(b) {
		return false
	}
	for s := 0; s < len(a); s++ {
		match := true
		for i := range a {
			if b[i] != a[(i+s)%len(a)] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestBitstateOracleSweep cross-checks the lossy bitstate path against the
// exact stores on small rings: a stabilizing protocol (SaturatingRing) and
// the canonical violating one (CopyRing), across sizes and alphabets. With
// a comfortably sized bit array (hash factor ≫ 100 at these state counts)
// no collisions occur, so the verdict, state count, and witness must all
// match the exact run.
func TestBitstateOracleSweep(t *testing.T) {
	for _, kind := range []string{"saturating", "copy"} {
		for _, n := range []int{4, 5, 6} {
			for _, sigma := range []uint64{2, 3} {
				t.Run(fmt.Sprintf("%s/n=%d/sigma=%d", kind, n, sigma), func(t *testing.T) {
					p := ringProto(t, kind, n, sigma)
					x := make(core.Input, n)
					base := verify.Options{
						Limit:    1 << 22,
						Workers:  1,
						Symmetry: verify.SymmetryOn,
					}
					exactOpts := base
					exactOpts.Store = verify.StoreHash
					exact, err := verify.LabelRStabilizingOpts(p, x, 2, exactOpts)
					if err != nil {
						t.Fatal(err)
					}
					if !exact.Exact {
						t.Fatal("exact-store decision not marked Exact")
					}

					bsOpts := base
					bsOpts.Store = verify.StoreBitstate
					bsOpts.BitstateBits = 22
					bs, err := verify.LabelRStabilizingOpts(p, x, 2, bsOpts)
					if err != nil {
						t.Fatal(err)
					}

					if bs.Stabilizing != exact.Stabilizing {
						t.Fatalf("verdicts disagree: bitstate=%v exact=%v", bs.Stabilizing, exact.Stabilizing)
					}
					if bs.States != exact.States {
						t.Fatalf("state counts disagree: bitstate=%d exact=%d", bs.States, exact.States)
					}
					if bs.Quotient != exact.Quotient {
						t.Fatalf("quotients disagree: bitstate=%d exact=%d", bs.Quotient, exact.Quotient)
					}
					if bs.BitstateK != verify.DefaultBitstateK {
						t.Fatalf("BitstateK = %d, want default %d", bs.BitstateK, verify.DefaultBitstateK)
					}
					if bs.HashFactor < 100 {
						t.Fatalf("HashFactor = %v on a 2^22 array with %d states", bs.HashFactor, bs.States)
					}
					if kind == "saturating" {
						// No violation found: the verdict is explicitly inexact.
						if !bs.Stabilizing || bs.Exact {
							t.Fatalf("bitstate on a stabilizing protocol: Stabilizing=%v Exact=%v, want true/false",
								bs.Stabilizing, bs.Exact)
						}
						if bs.Witness != nil {
							t.Fatal("stabilizing decision carries a witness")
						}
					} else {
						// A found violation is exact, with a concrete witness.
						if bs.Stabilizing || !bs.Exact {
							t.Fatalf("bitstate on CopyRing: Stabilizing=%v Exact=%v, want false/true",
								bs.Stabilizing, bs.Exact)
						}
						if bs.Witness == nil || exact.Witness == nil {
							t.Fatal("violation without witness")
						}
						wa, wb := bs.Witness.Labelings[0], bs.Witness.Labelings[1]
						if len(wa) != n || len(wb) != n {
							t.Fatalf("witness labelings have lengths %d/%d, want %d", len(wa), len(wb), n)
						}
						if reflect.DeepEqual(wa, wb) {
							t.Fatal("witness labelings are identical — no oscillation")
						}
						for _, l := range append(append(core.Labeling{}, wa...), wb...) {
							if uint64(l) >= sigma {
								t.Fatalf("witness label %d outside Σ = [0,%d)", l, sigma)
							}
						}
						// CopyRing's oscillation is a rotation of the labeling.
						if !isRotation(wa, wb) {
							t.Fatalf("witness %v / %v is not a rotation pair", wa, wb)
						}
					}
				})
			}
		}
	}
}

// TestBitstateOmissionSweep records what the lossy store gives up across
// array sizes: on SaturatingRing(10,3), r=2, quotiented (217,563 exact
// states), every BitstateBits × workers row must admit no more states
// than the exact store saw — admission is linearizable, so the only error
// a bitstate run can make is to omit — and the omission (admitted − exact)
// is logged next to Spin's hash factor. README's "Spin-class capacity"
// section tabulates these rows.
func TestBitstateOmissionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("ten 217k-state runs")
	}
	const n = 10
	p := ringProto(t, "saturating", n, 3)
	x := make(core.Input, n)
	exact, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Limit: 1 << 24, Store: verify.StoreHash, Symmetry: verify.SymmetryOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, logBits := range []int{20, 22, 24, 26, 27} {
		for _, workers := range []int{1, 2} {
			dec, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
				Limit:        1 << 24,
				Workers:      workers,
				Store:        verify.StoreBitstate,
				BitstateBits: logBits,
				Symmetry:     verify.SymmetryOn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Stabilizing || dec.Exact {
				t.Fatalf("bits=%d workers=%d: Stabilizing=%v Exact=%v, want a clean lossy sweep",
					logBits, workers, dec.Stabilizing, dec.Exact)
			}
			if dec.States > exact.States {
				t.Fatalf("bits=%d workers=%d: admitted %d states, more than the %d reachable",
					logBits, workers, dec.States, exact.States)
			}
			t.Logf("bits=2^%d workers=%d: admitted−exact = %d, hash factor %.1f",
				logBits, workers, dec.States-exact.States, dec.HashFactor)
		}
	}
}

// TestBitstateSaturatedNeverFalseViolation drives the bitstate store into
// total saturation (a 64-bit array, thousands of states) on stabilizing
// protocols: collisions prune almost the entire state space, but the
// on-the-fly violation check re-derives every candidate from the actual
// transition relation, so the run must never invent a violation — it may
// only under-explore and answer "no violation found".
func TestBitstateSaturatedNeverFalseViolation(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		for _, sigma := range []uint64{2, 3} {
			t.Run(fmt.Sprintf("n=%d/sigma=%d", n, sigma), func(t *testing.T) {
				p := ringProto(t, "saturating", n, sigma)
				x := make(core.Input, n)
				dec, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
					Limit:        1 << 22,
					Workers:      1,
					Store:        verify.StoreBitstate,
					BitstateBits: 6, // 64 bits: saturates within the first few states
					BitstateK:    3,
					Symmetry:     verify.SymmetryOn,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !dec.Stabilizing {
					t.Fatalf("saturated bitstate reported a violation on a stabilizing protocol: %+v", dec)
				}
				if dec.Exact {
					t.Fatal("saturated bitstate claimed an exact verdict")
				}
				if dec.Witness != nil {
					t.Fatalf("no-violation decision carries a witness: %+v", dec.Witness)
				}
				if dec.HashFactor > 100 {
					t.Fatalf("HashFactor = %v on a 64-bit array; saturation test is vacuous", dec.HashFactor)
				}
			})
		}
	}
}

// TestBitstateCheckpointKillResume interrupts a checkpointed bitstate run
// mid-exploration (the in-process analogue of SIGKILL: context cancellation
// the instant the first checkpoint lands) and resumes it from the manifest.
// The resumed decision must equal the uninterrupted oracle field for field.
func TestBitstateCheckpointKillResume(t *testing.T) {
	x10 := make(core.Input, 10)
	for _, tc := range []struct {
		kind  string
		n     int
		sigma uint64
	}{
		{"saturating", 9, 3}, // stabilizing: resume must finish the sweep
		{"copy", 9, 3},       // violating: witness must survive the kill
	} {
		t.Run(fmt.Sprintf("%s/n=%d", tc.kind, tc.n), func(t *testing.T) {
			p := ringProto(t, tc.kind, tc.n, tc.sigma)
			x := x10[:tc.n]
			base := verify.Options{
				Limit:        1 << 24,
				Workers:      1,
				Store:        verify.StoreBitstate,
				BitstateBits: 24,
				Symmetry:     verify.SymmetryOn,
			}

			oracle, err := verify.LabelRStabilizingOpts(p, x, 2, base)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			reg := obs.NewRegistry()
			interrupted := base
			interrupted.CheckpointDir = dir
			interrupted.CheckpointInterval = time.Millisecond
			interrupted.Context = ctx
			interrupted.Metrics = reg
			interrupted.ProgressInterval = time.Millisecond
			interrupted.Progress = func(pr verify.Progress) {
				if pr.Metrics["explore/checkpoints"].Value >= 1 {
					once.Do(cancel)
				}
			}
			_, err = verify.LabelRStabilizingOpts(p, x, 2, interrupted)
			if err == nil {
				t.Skip("run finished before the first checkpoint landed; nothing to resume")
			}
			if !errors.Is(err, verify.ErrCanceled) {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if snap["explore/checkpoints"].Value < 1 {
				t.Fatalf("canceled without a checkpoint: %v", snap["explore/checkpoints"])
			}

			resumed := base
			resumed.CheckpointDir = dir
			resumed.CheckpointInterval = time.Hour // no further checkpoints
			resumed.Resume = true
			got, err := verify.LabelRStabilizingOpts(p, x, 2, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("resumed decision differs from oracle:\n got %+v\nwant %+v", got, oracle)
			}
		})
	}
}

// TestBitstateResumeGuards: resume refuses a missing manifest, a mismatched
// configuration tag, and checkpointing is refused outright on exact stores.
func TestBitstateResumeGuards(t *testing.T) {
	p := ringProto(t, "saturating", 5, 3)
	x := make(core.Input, 5)

	if _, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Limit: 1 << 20, Store: verify.StoreHash, CheckpointDir: t.TempDir(),
	}); err == nil {
		t.Fatal("checkpointing on an exact store must be refused")
	}

	if _, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Limit: 1 << 20, Store: verify.StoreBitstate, CheckpointDir: t.TempDir(), Resume: true,
	}); err == nil {
		t.Fatal("resume without a manifest must fail")
	}

	// Checkpoint a run (1ms interval on a multi-ms exploration lands at
	// least one manifest), then try to resume it under a different r —
	// which changes the configuration tag.
	p8 := ringProto(t, "saturating", 8, 3)
	x8 := make(core.Input, 8)
	dir := t.TempDir()
	if _, err := verify.LabelRStabilizingOpts(p8, x8, 2, verify.Options{
		Limit: 1 << 22, Workers: 1, Store: verify.StoreBitstate, BitstateBits: 20,
		Symmetry: verify.SymmetryOn, CheckpointDir: dir, CheckpointInterval: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := explore.LoadManifest(dir)
	if err != nil {
		t.Skipf("no checkpoint landed during the run: %v", err)
	}
	if _, err := verify.LabelRStabilizingOpts(p8, x8, 3, verify.Options{
		Limit: 1 << 22, Workers: 1, Store: verify.StoreBitstate, BitstateBits: 20,
		Symmetry: verify.SymmetryOn, CheckpointDir: dir, Resume: true,
	}); err == nil {
		t.Fatal("resume with a mismatched configuration must fail")
	}

	// A checkpoint whose bits were written in the v1 layout (k independent
	// bits per state) must be refused, not read as blocked-filter words.
	if !strings.Contains(m.Tag, "|v2|") {
		t.Fatalf("checkpoint tag %q does not name the v2 bit layout", m.Tag)
	}
	m.Tag = strings.Replace(m.Tag, "|v2|", "|v1|", 1)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = verify.LabelRStabilizingOpts(p8, x8, 2, verify.Options{
		Limit: 1 << 22, Workers: 1, Store: verify.StoreBitstate, BitstateBits: 20,
		Symmetry: verify.SymmetryOn, CheckpointDir: dir, Resume: true,
	})
	if err == nil || !strings.Contains(err.Error(), "does not match run tag") {
		t.Fatalf("resume from a v1-layout checkpoint: err = %v, want a tag mismatch", err)
	}
}

// TestBitstateSpillWithinBudget is the capacity acceptance check: a ring
// whose packed space (2^40 states) is far beyond any exact-store budget
// completes under bitstate with a deliberately tiny frontier budget, spills
// to disk, and stays within a 256 MB accounting of store + frontier. The
// exact oracle (hash store — the packed space only matters to dense) pins
// the expected verdict and state count.
func TestBitstateSpillWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms capacity run")
	}
	const n = 10
	p := ringProto(t, "saturating", n, 3)
	x := make(core.Input, n)

	exact, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Limit: 1 << 24, Store: verify.StoreHash, Symmetry: verify.SymmetryOn,
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	dec, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Limit:         1 << 24,
		Store:         verify.StoreBitstate,
		BitstateBits:  26, // 8 MiB of bits, hash factor ~300 at 217k states
		Symmetry:      verify.SymmetryOn,
		SpillMemBytes: 1 << 16, // 64 KiB frontier budget: forces heavy spilling
		SpillDir:      t.TempDir(),
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stabilizing != exact.Stabilizing {
		t.Fatalf("verdicts disagree: bitstate=%v exact=%v", dec.Stabilizing, exact.Stabilizing)
	}
	// A handful of Bloom collisions are statistically possible at this hash
	// factor; the run must still cover essentially the whole space.
	if dec.States > exact.States || dec.States < exact.States-10 {
		t.Fatalf("bitstate covered %d of %d states", dec.States, exact.States)
	}

	snap := reg.Snapshot()
	if snap["explore/spill_chunks"].Value == 0 || snap["explore/spill_loads"].Value == 0 {
		t.Fatalf("64 KiB budget did not spill: chunks=%d loads=%d",
			snap["explore/spill_chunks"].Value, snap["explore/spill_loads"].Value)
	}
	if snap["explore/spill_bytes"].Value == 0 {
		t.Fatal("spilled chunks account zero bytes")
	}
	// Memory accounting: bit array + residual in-memory frontier stay far
	// inside the 256 MB budget that the packed space (2^40 states) denies
	// to any exact store.
	storeBytes := snap["store/bytes"].Value
	frontierBytes := snap["explore/frontier_mem_bytes"].Value
	if total := storeBytes + frontierBytes; total > 256<<20 {
		t.Fatalf("store+frontier = %d bytes, want ≤ 256 MiB", total)
	}
	if storeBytes != 8<<20 {
		t.Fatalf("store/bytes = %d, want %d (2^26 bits)", storeBytes, 8<<20)
	}
}
