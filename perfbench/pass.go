package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"manetp2p"
)

// pass is one run of a workload through the user's path: every scenario
// submitted at once to the shared Pool, then every Result rendered.
type pass struct {
	wall, cpu          time.Duration // submit → last render, host wall and process CPU
	runWall, rendWall  time.Duration // the two phases of wall
	allocBytes, allocs uint64        // heap bytes and objects allocated over wall

	results []*manetp2p.Result // per scenario; nil where the run errored
	errs    []error            // per scenario
	digests []string           // per scenario, canonical Result JSON
	render  string             // digest of the rendered report

	streamPoints []int   // per scenario, points the metrics sink received
	ckptBytes    []int64 // per scenario, checkpoint file size at the end
}

// countingSink forwards to a JSONL sink and counts the points it sees.
type countingSink struct {
	manetp2p.MetricsSink
	n int
}

func (s *countingSink) Emit(p manetp2p.MetricsPoint) {
	s.n++
	s.MetricsSink.Emit(p)
}

// runPass executes one pass. scratch holds the checkpoint and JSONL
// files of checkpointed workloads. tr, when non-nil, records the pass's
// spans under parent.
func runPass(pool *manetp2p.Pool, w workload, scs []manetp2p.Scenario, scratch string, tr *tracer, parent int) *pass {
	p := &pass{
		results:      make([]*manetp2p.Result, len(scs)),
		errs:         make([]error, len(scs)),
		digests:      make([]string, len(scs)),
		streamPoints: make([]int, len(scs)),
		ckptBytes:    make([]int64, len(scs)),
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()

	runSpan := tr.begin("run", parent)
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func(i int, sc manetp2p.Scenario) {
			defer wg.Done()
			s := tr.begin("run:"+sc.Name, runSpan)
			defer tr.end(s)
			if w.checkpointed {
				p.results[i], p.errs[i] = runCheckpointed(pool, sc, scratch, &p.streamPoints[i])
			} else {
				p.results[i], p.errs[i] = pool.Run(sc)
			}
		}(i, sc)
	}
	wg.Wait()
	tr.end(runSpan)
	t1 := time.Now()

	rendSpan := tr.begin("render", parent)
	var out bytes.Buffer
	var ok []*manetp2p.Result
	for _, r := range p.results {
		if r != nil {
			ok = append(ok, r)
		}
	}
	renderErr := w.render(&out, ok)
	tr.end(rendSpan)
	t2 := time.Now()

	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	p.wall, p.runWall, p.rendWall = t2.Sub(t0), t1.Sub(t0), t2.Sub(t1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.allocs = ms1.Mallocs - ms0.Mallocs

	sum := sha256.Sum256(out.Bytes())
	p.render = hex.EncodeToString(sum[:8])
	for i, r := range p.results {
		if renderErr != nil && p.errs[i] == nil {
			p.errs[i] = fmt.Errorf("render: %w", renderErr)
		}
		if r == nil {
			continue
		}
		d, err := digest(r)
		if err != nil && p.errs[i] == nil {
			p.errs[i] = err
		}
		p.digests[i] = d
		if w.checkpointed {
			fi, err := os.Stat(ckptPath(scratch, scs[i]))
			if err != nil && p.errs[i] == nil {
				p.errs[i] = err
			} else if err == nil {
				p.ckptBytes[i] = fi.Size()
			}
		}
	}
	return p
}

func ckptPath(scratch string, sc manetp2p.Scenario) string {
	return filepath.Join(scratch, sc.Name+".ckpt")
}

// runCheckpointed is the `sweep -checkpoint -metrics` path for one
// scenario: a fresh checkpoint file and a JSONL metrics stream.
func runCheckpointed(pool *manetp2p.Pool, sc manetp2p.Scenario, scratch string, points *int) (*manetp2p.Result, error) {
	path := ckptPath(scratch, sc)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.Create(filepath.Join(scratch, sc.Name+".jsonl"))
	if err != nil {
		return nil, err
	}
	sink := &countingSink{MetricsSink: manetp2p.NewJSONLSink(f)}
	res, err := pool.RunCheckpointed(sc, manetp2p.CheckpointConfig{Path: path, Sink: sink})
	if cerr := sink.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("metrics sink: %w", cerr)
	}
	*points = sink.n
	return res, err
}

// digest hashes a Result as canonical JSON with the Workers knob zeroed,
// the normalisation manetp2p.SelfAudit compares Results under.
func digest(r *manetp2p.Result) (string, error) {
	clone := *r
	clone.Scenario.Workers = 0
	b, err := json.Marshal(&clone)
	if err != nil {
		return "", fmt.Errorf("digest %s: %w", r.Scenario.Name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// processCPU is the process's user+system CPU time so far. Getrusage
// of the calling process fails only for a bad pointer, so errors read
// as zero.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
