package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// The reference task. On a shared host the speed of the same code drifts
// by a quarter or more over minutes, in wall and CPU time alike, with no
// steal time to show for it. The time-based end-to-end metrics therefore
// divide an operation's median time by the median time of this fixed task,
// run right before every operation in the same process: a drift that
// slows both cancels, a change to the program moves only the operation.
// The task is the benchmark's own code, so no change to the program can
// move it.
//
// It runs the way the operations run, on as many goroutines as they have
// workers, and does the kind of work the verifier does most: each
// goroutine inserts keys into an open-addressing hash table larger than
// the private caches, then sorts them. Its buffers are allocated once, so
// the task never waits for the garbage collector, whose pace depends on the
// workload's live heap.
const (
	refBits   = 20
	refSlots  = 1 << refBits // table slots per goroutine, 8 MiB
	refKeys   = refSlots / 2 // distinct keys inserted per round
	refRounds = 2
)

// refPart is one goroutine's buffers.
type refPart struct{ table, keys []uint64 }

// refTask is the reference task on a fixed number of goroutines.
type refTask struct{ parts []refPart }

// refSink keeps the compiler from discarding the task's results.
var refSink uint64

// newRefTask allocates the task's buffers for workers goroutines, 12 MiB
// each, and runs it once untimed so their pages are faulted in.
func newRefTask(workers int) *refTask {
	t := &refTask{parts: make([]refPart, workers)}
	for i := range t.parts {
		t.parts[i] = refPart{make([]uint64, refSlots), make([]uint64, 0, refKeys)}
	}
	t.run()
	return t
}

// time runs the task once from a collected heap and returns its wall and
// CPU seconds.
func (t *refTask) time() (wall, cpu float64) {
	runtime.GC()
	c0 := cpuSeconds()
	t0 := time.Now()
	t.run()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// run runs the task once. Its keys are the same on every run.
func (t *refTask) run() {
	var wg sync.WaitGroup
	sums := make([]uint64, len(t.parts))
	for w := range t.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range refRounds {
				sums[w] += t.parts[w].round(uint64(w*refRounds + round))
			}
		}()
	}
	wg.Wait()
	for _, s := range sums {
		refSink += s
	}
}

// round fills the table with refKeys pseudo-random keys drawn from seed,
// sorts them, and returns the median key.
func (p refPart) round(seed uint64) uint64 {
	clear(p.table)
	keys := p.keys[:0]
	x := 0x9e3779b97f4a7c15 + seed
	for len(keys) < refKeys {
		x ^= x << 13 // xorshift: never 0, which marks an empty slot
		x ^= x >> 7
		x ^= x << 17
		i := (x * 0x9e3779b97f4a7c15) >> (64 - refBits)
		for p.table[i] != 0 && p.table[i] != x {
			i = (i + 1) & (refSlots - 1)
		}
		if p.table[i] == 0 {
			p.table[i] = x
			keys = append(keys, x)
		}
	}
	slices.Sort(keys)
	return keys[len(keys)/2]
}
