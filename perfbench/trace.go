package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run, kept in memory and
// written out when the benchmark ends.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`  // index of the enclosing span, -1 at the root
	Start  float64 `json:"start_s"` // seconds since the tracer started
	Dur    float64 `json:"dur_s"`
	// Summed marks a span whose Dur is the total of many short calls
	// inside the parent (the delivery hooks), not one interval.
	Summed bool `json:"summed,omitempty"`
}

// tracer records spans from the benchmark's side of the public API.
// A nil tracer records nothing, which is how untraced runs use it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Dur = now - t.spans[id].Start
}

// add records a summed span of total duration d under parent.
func (t *tracer) add(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := 0.0
	if parent >= 0 {
		start = t.spans[parent].Start
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, Dur: d.Seconds(), Summed: true})
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.Dur
		}
	}
	return s
}

// fold is a CPU profile's self time folded by the Go package of each
// sample's leaf frame, with the runtime split by what it was doing.
type fold struct {
	TotalNs  int64            `json:"total_ns"`  // the profile's own sample total
	FoldedNs int64            `json:"folded_ns"` // what the fold attributed to a package
	Packages map[string]int64 `json:"packages"`  // leaf package → self ns
	Runtime  map[string]int64 `json:"runtime"`   // copy, gc, malloc, other → self ns
}

// frac is ns as a share of the profile's total.
func (f *fold) frac(ns int64) float64 {
	if f.TotalNs == 0 {
		return 0
	}
	return float64(ns) / float64(f.TotalNs)
}

// foldProfile reads a CPU profile through the installed `go tool pprof`
// and folds it.
func foldProfile(path string) (*fold, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out.Bytes())
}

// parseTraces folds `pprof -traces` text: a header naming the sample
// total, then one block per stack, the sample value on the leaf line.
func parseTraces(text []byte) (*fold, error) {
	f := &fold{Packages: map[string]int64{}, Runtime: map[string]int64{}}
	var stack []string
	var value int64
	flush := func() {
		if len(stack) > 0 {
			f.add(stack, value)
		}
		stack = stack[:0]
	}
	haveTotal, expectValue := false, false
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Duration:"):
			_, tot, ok := strings.Cut(line, "Total samples = ")
			if !ok {
				return nil, fmt.Errorf("pprof header without a sample total: %q", line)
			}
			tot, _, _ = strings.Cut(tot, " ")
			ns, err := parseDur(tot)
			if err != nil {
				return nil, err
			}
			f.TotalNs, haveTotal = ns, true
		case strings.HasPrefix(line, "-----"):
			flush()
			expectValue = true
		case strings.TrimSpace(line) == "":
		case expectValue:
			v, frame, _ := strings.Cut(strings.TrimSpace(line), " ")
			ns, err := parseDur(v)
			if err != nil {
				return nil, fmt.Errorf("pprof sample line %q: %w", line, err)
			}
			value = ns
			stack = append(stack, frameName(frame))
			expectValue = false
		case len(stack) > 0:
			stack = append(stack, frameName(line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if !haveTotal {
		return nil, fmt.Errorf("pprof output has no sample total")
	}
	return f, nil
}

func frameName(s string) string {
	s = strings.TrimSpace(s)
	return strings.TrimSuffix(s, " (inline)")
}

// parseDur reads a pprof duration such as 10ms, 1.5s or 250us.
func parseDur(s string) (int64, error) {
	s = strings.Replace(s, "µs", "us", 1)
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof duration %q: %w", s, err)
	}
	return int64(d), nil
}

func (f *fold) add(stack []string, ns int64) {
	pkg := packageOf(stack[0])
	f.Packages[pkg] += ns
	f.FoldedNs += ns
	if layerOf(pkg) == "runtime" {
		f.Runtime[runtimeKind(stack)] += ns
	}
}

// packageOf is the import path of a symbol name as pprof prints it,
// e.g. manetp2p/internal/sim.(*Sim).Run → manetp2p/internal/sim.
func packageOf(sym string) string {
	sym = strings.TrimPrefix(sym, "type:.eq.")
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return "runtime" // assembly routines such as gcWriteBarrier carry no package
}

// layers are the repository's modules the fold reports a share for.
var layers = []string{
	"sim", "radio", "geom", "mobility", "route", "aodv", "p2p",
	"workload", "fault", "graphs", "telemetry", "checkpoint", "manetp2p",
}

// layerOf maps a package to its layer: manetp2p/internal/X is X, the
// root package is manetp2p, the Go runtime (with its internal
// packages) is runtime, and everything else is other.
func layerOf(pkg string) string {
	switch {
	case pkg == "manetp2p":
		return "manetp2p"
	case strings.HasPrefix(pkg, "manetp2p/internal/"):
		l := strings.TrimPrefix(pkg, "manetp2p/internal/")
		for _, known := range layers {
			if l == known {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "runtime"
	}
	return "other"
}

// runtimeKind splits runtime self time: garbage collection (any GC or
// write-barrier frame on the stack), allocation (mallocgc on the stack), copying
// (a memmove or duffcopy leaf) and the rest.
func runtimeKind(stack []string) string {
	malloc := false
	for _, fr := range stack {
		switch {
		case strings.HasPrefix(fr, "runtime.gc"), strings.HasPrefix(fr, "runtime.bgsweep"),
			strings.HasPrefix(fr, "runtime.bgscavenge"), strings.HasPrefix(fr, "runtime.markroot"),
			strings.HasPrefix(fr, "runtime.sweepone"), strings.HasPrefix(fr, "runtime.scanobject"),
			strings.HasPrefix(fr, "runtime.wbBuf"), strings.HasPrefix(fr, "gcWriteBarrier"),
			fr == "runtime._GC":
			return "gc"
		case strings.HasPrefix(fr, "runtime.mallocgc"):
			malloc = true
		}
	}
	switch {
	case malloc:
		return "malloc"
	case stack[0] == "runtime.duffcopy", stack[0] == "runtime.memmove", stack[0] == "runtime.typedmemmove":
		return "copy"
	}
	return "other"
}

// layerShares folds the package shares into layer shares.
func (f *fold) layerShares() map[string]float64 {
	ns := map[string]int64{}
	for pkg, v := range f.Packages {
		ns[layerOf(pkg)] += v
	}
	out := map[string]float64{}
	for l, v := range ns {
		out[l] = f.frac(v)
	}
	return out
}
