package main

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The host reference is a fixed piece of work that does not use this
// repository: the same kind of memory traffic the simulator makes (a
// binary heap of event records, map updates over a working set larger
// than the caches, short-lived small allocations and the collector that
// frees them), with the same inputs every time. On a host shared with
// other tenants the simulator's speed drifts with memory contention over
// tens of seconds to minutes; the reference, timed between the passes
// of a run, drifts with it, so scaling the timings by it takes most of
// that drift out of them. It runs in a child process of this binary, so
// its heap and collector do not depend on the heap the program left
// live. See README.md.

// refEvent is about the size of a simulator event plus its payload.
type refEvent struct {
	at   float64
	data [10]int64
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

const (
	refOps      = 150_000 // operations per reference round
	refKeys     = 200_000 // map key space
	refQueueLen = 5_000   // events kept queued
	refKeepLen  = 50_000  // small allocations kept alive at once
)

// refSink keeps the reference's results live so the compiler cannot
// drop the work.
var refSink int64

// refNominal is a reference round's time on the host the benchmark was
// tuned on (2-vCPU Xeon VM, Go 1.24) in a quiet stretch. Timings are
// reported as measured × refNominal ÷ the reference rounds around them,
// so they read as seconds on that host.
const refNominal = 0.15

// refRounds reference rounds run before every set-up + pass round and
// once more after the last pass.
const refRounds = 3

// hostRefArg, as the only argument, makes the binary run refRounds
// reference rounds and print each one's process CPU and wall seconds.
const hostRefArg = "hostref"

// hostRef runs one reference round and returns its process CPU time and
// wall time.
func hostRef() (cpu, wall time.Duration) {
	cpu0 := processCPU()
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	q := &refQueue{}
	m := make(map[int64]int64)
	keep := make([]*refEvent, 0, refKeepLen)
	var acc int64
	for i := 0; i < refOps; i++ {
		heap.Push(q, refEvent{at: r.Float64()})
		k := r.Int63n(refKeys)
		m[k] += int64(i)
		if i%8 == 0 {
			if len(keep) == refKeepLen {
				keep = keep[:0]
			}
			keep = append(keep, &refEvent{at: float64(i)})
		}
		if q.Len() > refQueueLen {
			e := heap.Pop(q).(refEvent)
			acc += e.data[0] + m[k]
		}
	}
	refSink += acc + int64(len(keep))
	return processCPU() - cpu0, time.Since(t0)
}

// hostRefChild is the child process's side: refRounds rounds, one
// "cpu wall" line each.
func hostRefChild(w io.Writer) int {
	for k := 0; k < refRounds; k++ {
		c, wall := hostRef()
		fmt.Fprintf(w, "%.9f %.9f\n", c.Seconds(), wall.Seconds())
	}
	return 0
}

// hostRefs is the reference rounds of one run.
type hostRefs struct{ cpu, wall []float64 }

// sample runs refRounds rounds in a child process and waits for it.
func (h *hostRefs) sample() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(exe, hostRefArg).Output()
	if err != nil {
		return fmt.Errorf("host reference: %w", err)
	}
	lines := strings.Fields(string(out))
	if len(lines) != 2*refRounds {
		return fmt.Errorf("host reference printed %q", out)
	}
	for i := 0; i < len(lines); i += 2 {
		c, err1 := strconv.ParseFloat(lines[i], 64)
		w, err2 := strconv.ParseFloat(lines[i+1], 64)
		if err1 != nil || err2 != nil || c <= 0 || w <= 0 {
			return fmt.Errorf("host reference printed %q", out)
		}
		h.cpu = append(h.cpu, c)
		h.wall = append(h.wall, w)
	}
	return nil
}

// scales returns the factors that turn a CPU or wall timing of pass i
// into seconds on the reference host: refNominal ÷ the mean reference
// round sampled just before and just after the pass. Scaling each pass
// by the rounds around it follows the host's speed within a run too.
func (h *hostRefs) scales(i int) (cpu, wall float64) {
	lo, hi := i*refRounds, (i+2)*refRounds
	return refNominal / mean(h.cpu[lo:hi]), refNominal / mean(h.wall[lo:hi])
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
