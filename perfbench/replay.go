package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"manetp2p"
)

// counters are the program-made work counts of one replication, read
// from public getters after it ran. They are deterministic for a seed.
type counters struct {
	Events   uint64 // Sim.Fired
	TxFrames uint64 // Σ Medium.Stats(i).TxFrames
	RxFrames uint64 // Σ Medium.Stats(i).RxFrames

	// Σ Network.RoutingStats()
	CtrlOrig, CtrlRelayed, BcastOrig, BcastRelayed uint64
	DataSent, Delivered, Discoveries, SendFailed   uint64
	DupHits                                        uint64

	// Collector.TotalReceived per p2p message class
	RxConnect, RxQuery, RxHit uint64
}

// sum totals the counters of every replication.
func sum(counts [][]counters) counters {
	var t counters
	for _, cs := range counts {
		for _, c := range cs {
			t.add(c)
		}
	}
	return t
}

func (c *counters) add(o counters) {
	c.Events += o.Events
	c.TxFrames += o.TxFrames
	c.RxFrames += o.RxFrames
	c.CtrlOrig += o.CtrlOrig
	c.CtrlRelayed += o.CtrlRelayed
	c.BcastOrig += o.BcastOrig
	c.BcastRelayed += o.BcastRelayed
	c.DataSent += o.DataSent
	c.Delivered += o.Delivered
	c.Discoveries += o.Discoveries
	c.SendFailed += o.SendFailed
	c.DupHits += o.DupHits
	c.RxConnect += o.RxConnect
	c.RxQuery += o.RxQuery
	c.RxHit += o.RxHit
}

// The collector's message classes, in the order of telemetry.Class
// (connect, ping, pong, query, queryhit, ...). The self-tests pin these
// against Result.Totals.
const (
	classConnect = 0
	classQuery   = 3
	classHit     = 4
)

// replicaOf is replication rep of sc as a one-replication scenario:
// NewSimulation builds replication 0, which runs on Scenario.Seed, and
// the Pool runs replication rep on Seed+rep.
func replicaOf(sc manetp2p.Scenario, rep int) manetp2p.Scenario {
	sc.Seed += int64(rep)
	sc.Replications = 1
	return sc
}

// timeSetup builds every replication of the workload with
// NewSimulation, one after another, and returns each round's summed
// build time. It makes at least minRounds rounds and keeps going until
// minSeconds of building have been timed. It starts on a collected heap
// so that it does not pay for the garbage of what ran before.
func timeSetup(scs []manetp2p.Scenario, minRounds int, minSeconds float64) ([]time.Duration, error) {
	var sums []time.Duration
	var total time.Duration
	runtime.GC()
	for len(sums) < minRounds || total.Seconds() < minSeconds {
		var sum time.Duration
		for _, sc := range scs {
			for rep := 0; rep < sc.Replications; rep++ {
				t := time.Now()
				_, err := manetp2p.NewSimulation(replicaOf(sc, rep))
				sum += time.Since(t)
				if err != nil {
					return nil, err
				}
			}
		}
		sums = append(sums, sum)
		total += sum
	}
	return sums, nil
}

// replay re-runs every replication through NewSimulation + Step on
// workers goroutines and returns the counters per scenario and
// replication. With tr set, each replication's build, step and
// delivery-hook time are recorded as spans under parent; the delivery
// hooks are re-registered through the routers with timing wrappers.
func replay(scs []manetp2p.Scenario, workers int, tr *tracer, parent int) ([][]counters, []error) {
	type job struct{ sc, rep int }
	var jobs []job
	out := make([][]counters, len(scs))
	errs := make([]error, len(scs))
	for i, sc := range scs {
		out[i] = make([]counters, sc.Replications)
		for rep := 0; rep < sc.Replications; rep++ {
			jobs = append(jobs, job{i, rep})
		}
	}
	var mu sync.Mutex
	next := make(chan job)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				c, err := replayOne(scs[j.sc], j.rep, tr, parent)
				mu.Lock()
				out[j.sc][j.rep] = c
				if err != nil && errs[j.sc] == nil {
					errs[j.sc] = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return out, errs
}

func replayOne(sc manetp2p.Scenario, rep int, tr *tracer, parent int) (counters, error) {
	span := tr.begin(sc.Name+"/rep"+strconv.Itoa(rep), parent)
	defer tr.end(span)

	b := tr.begin("build", span)
	s, err := manetp2p.NewSimulation(replicaOf(sc, rep))
	tr.end(b)
	if err != nil {
		return counters{}, err
	}
	net := s.Net
	var deliver time.Duration
	if tr != nil {
		for i, sv := range net.Servents {
			if sv == nil {
				continue
			}
			net.Routers[i].OnUnicast(timed(sv.HandleUnicast, &deliver))
			net.Routers[i].OnBroadcast(timed(sv.HandleBroadcast, &deliver))
		}
	}
	st := tr.begin("step", span)
	s.Step(sc.Duration)
	tr.end(st)
	tr.add("deliver", st, deliver)

	c := counters{
		Events:    net.Sim.Fired(),
		RxConnect: net.Collector.TotalReceived(classConnect),
		RxQuery:   net.Collector.TotalReceived(classQuery),
		RxHit:     net.Collector.TotalReceived(classHit),
	}
	for i := range net.Routers {
		ms := net.Medium.Stats(i)
		c.TxFrames += ms.TxFrames
		c.RxFrames += ms.RxFrames
	}
	for _, rs := range net.RoutingStats() {
		c.CtrlOrig += rs.CtrlOrig
		c.CtrlRelayed += rs.CtrlRelayed
		c.BcastOrig += rs.BcastOrig
		c.BcastRelayed += rs.BcastRelayed
		c.DataSent += rs.DataSent
		c.Delivered += rs.Delivered
		c.Discoveries += rs.Discoveries
		c.SendFailed += rs.SendFailed
		c.DupHits += rs.DupHits
	}
	return c, nil
}

// timed wraps a delivery hook so the time spent inside it accumulates
// into acc. The hooks of one replication run on its goroutine only.
func timed[D any](fn func(D), acc *time.Duration) func(D) {
	return func(d D) {
		t := time.Now()
		fn(d)
		*acc += time.Since(t)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
