// Command perfbench is the repository's end-to-end benchmark. It runs a
// named workload through the public manetp2p API the way a user does —
// every scenario submitted at once to one shared Pool, every Result
// rendered with the report functions — checks the outputs, and prints
// each metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload paper150 --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
// adds one traced pass (spans from the benchmark's side of the API plus
// a CPU profile) and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"manetp2p"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == hostRefArg {
		os.Exit(hostRefChild(os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	wl      workload
	sz      size
	seed    int64
	seconds float64 // measure untraced passes for about this long (at least minPasses)
	trace   bool
	outDir  string // scratch files and trace artefacts
	dataDir string // the reconfig workload's plan files
	workers int    // Pool and replay workers
}

// Minimum passes per run: enough for a median and for comparing every
// pass's digests with the first.
const minPasses = 3

// Before every pass, set-up is timed for at least setupSeconds and at
// least setupRounds rounds, so that the set-up rounds sample the same
// stretch of host time as the passes; setup_s is the median round,
// scaled to the reference host.
const (
	setupSeconds = 0.3
	setupRounds  = 2
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper150 or reconfig")
	seed := fs.Int64("seed", 1, "base seed; replication r of every scenario runs on seed+r")
	seconds := fs.Float64("seconds", 40, "how long to measure untraced passes")
	traceFlag := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", *traceFlag)
		return 2
	}
	cfg := config{
		wl: wl, sz: wl.full, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		outDir: filepath.Join(".bench_build", "perfbench"), dataDir: filepath.Join("perfbench", "data"),
		workers: runtime.NumCPU(),
	}
	rep, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.summary(cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d replications failed the output check\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// metric is one named figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one invocation measured.
type report struct {
	endToEnd  []metric
	perLayer  []metric // only with trace
	attempted int
	failed    int
	artefact  string // trace artefact path, only with trace
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonSummary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) summary(traced bool) jsonSummary {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	s := jsonSummary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		s.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return s
}

// bench runs one invocation: untraced passes, each after host reference
// rounds and a stretch of set-up timing, for cfg.seconds; then a replay
// of every replication for the work counters; then, with cfg.trace, one
// traced pass.
// Human-readable lines go to log.
func bench(cfg config, log io.Writer) (*report, error) {
	scs, err := cfg.wl.scenarios(cfg.sz, cfg.seed, cfg.dataDir)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(cfg.outDir, fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	reps := 0
	for _, sc := range scs {
		reps += sc.Replications
	}

	pool := manetp2p.NewPool(cfg.workers)
	var passes []*pass
	var setup [][]time.Duration // per pass, the set-up rounds before it
	var ref hostRefs
	start := time.Now()
	// After minPasses, a round (host reference, set-up and pass) starts
	// only if a round of the mean length so far still ends within
	// cfg.seconds, so a run measures about cfg.seconds instead of up to
	// one round past it.
	for {
		elapsed := time.Since(start).Seconds()
		if n := len(passes); n >= minPasses && elapsed+elapsed/float64(n) > cfg.seconds {
			break
		}
		if err := ref.sample(); err != nil {
			return nil, err
		}
		s, err := timeSetup(scs, setupRounds, setupSeconds)
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
		passes = append(passes, runPass(pool, cfg.wl, scs, scratch, nil, -1))
	}
	if err := ref.sample(); err != nil {
		return nil, err
	}

	counts, replayErrs := replay(scs, cfg.workers, nil, -1)
	chk := newChecker(scs, log)
	chk.passes(passes)
	chk.frames(passes[0], counts, replayErrs)

	total := sum(counts)
	// Raw timings, and the same scaled to the reference host
	// (hostref.go): a pass and the set-up rounds before it by the
	// reference rounds around that pass, CPU timings by their CPU time
	// and wall timings by their wall time.
	var wall, cpu, setupS, alloc, mallocs []float64
	var wallRef, cpuRef, setupRef []float64
	for i, p := range passes {
		cpuScale, wallScale := ref.scales(i)
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		wallRef = append(wallRef, p.wall.Seconds()*wallScale)
		cpuRef = append(cpuRef, p.cpu.Seconds()*cpuScale)
		for _, d := range setup[i] {
			setupS = append(setupS, d.Seconds())
			setupRef = append(setupRef, d.Seconds()*wallScale)
		}
		alloc = append(alloc, float64(p.allocBytes))
		mallocs = append(mallocs, float64(p.allocs))
	}
	cpuMed := median(cpuRef)
	rep := &report{endToEnd: []metric{
		{"wall_s", median(wallRef), "s"},
		{"cpu_s", cpuMed, "s"},
		{"setup_s", median(setupRef), "s"},
		{"ns_per_event", ratio(cpuMed*1e9, float64(total.Events)), "ns"},
		{"ns_per_frame", ratio(cpuMed*1e9, float64(total.RxFrames)), "ns"},
		{"alloc_mb_per_rep", median(alloc) / float64(reps) / 1e6, "MB"},
		{"allocs_per_rep", median(mallocs) / float64(reps), "count"},
		{"peak_rss_mb", peakRSS() / 1e6, "MB"},
	}}
	nPasses := len(passes)

	if cfg.trace {
		rep.perLayer, rep.artefact, err = tracedRun(cfg, pool, scs, scratch, passes[0], counts, chk, median(wall))
		if err != nil {
			return nil, err
		}
		nPasses++
	}

	rep.attempted = reps * nPasses
	rep.failed = chk.failedReps() * nPasses

	fmt.Fprintf(log, "# workload %s seed %d: %d scenarios x %d reps, %.0f s simulated each, %d untraced passes on %d workers\n",
		cfg.wl.name, cfg.seed, len(scs), scs[0].Replications, cfg.sz.horizon, len(passes), cfg.workers)
	chk.printDigests(passes[0])
	fmt.Fprintf(log, "# pass wall_s %s\n", fmtList(wall))
	fmt.Fprintf(log, "# pass cpu_s %s\n", fmtList(cpu))
	fmt.Fprintf(log, "# pass alloc_bytes %s\n", fmtList(alloc))
	fmt.Fprintf(log, "# setup_s rounds %s\n", fmtList(setupS))
	fmt.Fprintf(log, "# host reference rounds cpu_s %s\n", fmtList(ref.cpu))
	fmt.Fprintf(log, "# host reference rounds wall_s %s\n", fmtList(ref.wall))
	fmt.Fprintf(log, "# pass wall_s scaled %s\n", fmtList(wallRef))
	fmt.Fprintf(log, "# pass cpu_s scaled %s\n", fmtList(cpuRef))
	// failed_frac is printed here and carried by the summary line's
	// attempted and failed fields: it is 0 on a correct run, so it is not
	// one of the summary's metrics.
	failedFrac := metric{"failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio"}
	for _, m := range append(append(rep.endToEnd, failedFrac), rep.perLayer...) {
		fmt.Fprintf(log, "%s %s %s\n", m.name, fmtValue(m.value), m.unit)
	}
	if rep.artefact != "" {
		fmt.Fprintf(log, "# trace artefact %s\n", rep.artefact)
	}
	return rep, nil
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

func fmtList(vs []float64) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(fmtValue(v))
	}
	return b.String()
}

// ratio divides, returning 0 for a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun makes one traced pass — the same Pool run and render as an
// untraced pass, then a replay with timed delivery hooks — under a CPU
// profile, checks it against the untraced pass and counters, and
// derives the per-layer metrics. The spans, the profile fold and the
// metrics are written to one artefact file, whose path is returned.
func tracedRun(cfg config, pool *manetp2p.Pool, scs []manetp2p.Scenario, scratch string, ref *pass, refCounts [][]counters, chk *checker, untracedWall float64) ([]metric, string, error) {
	profPath := filepath.Join(cfg.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", cfg.wl.name, cfg.seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, "", err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, "", err
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	passSpan := tr.begin("pass", -1)
	p := runPass(pool, cfg.wl, scs, scratch, tr, passSpan)
	tr.end(passSpan)
	replaySpan := tr.begin("replay", -1)
	counts, replayErrs := replay(scs, cfg.workers, tr, replaySpan)
	tr.end(replaySpan)

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, "", err
	}
	chk.traced(ref, p, refCounts, counts, replayErrs)

	f, err := foldProfile(profPath)
	if err != nil {
		return nil, "", err
	}

	total := sum(counts)
	var offered, resolved, found, requests float64
	var points, ckpt float64
	for i, r := range p.results {
		points += float64(p.streamPoints[i])
		ckpt += float64(p.ckptBytes[i])
		if r == nil {
			continue
		}
		if r.Workload != nil {
			offered += r.Workload.Offered.Mean * float64(r.Workload.Offered.N)
			resolved += r.Workload.Resolved.Mean * float64(r.Workload.Resolved.N)
		}
		for _, fc := range r.PerFile {
			requests += float64(fc.Requests)
			found += fc.FoundRate * float64(fc.Requests)
		}
	}
	ctrl := float64(total.CtrlOrig + total.CtrlRelayed + total.BcastOrig + total.BcastRelayed)
	shares := f.layerShares()

	ms := []metric{
		{"sim.events", float64(total.Events), "count"},
		{"radio.tx_frames", float64(total.TxFrames), "count"},
		{"radio.rx_frames", float64(total.RxFrames), "count"},
		{"radio.fanout", ratio(float64(total.RxFrames), float64(total.TxFrames)), "ratio"},
		{"route.ctrl_relayed", float64(total.CtrlRelayed), "count"},
		{"route.discoveries", float64(total.Discoveries), "count"},
		{"route.dup_hits", float64(total.DupHits), "count"},
		{"route.ctrl_per_delivered", ratio(ctrl, float64(total.Delivered)), "ratio"},
		{"route.send_fail_frac", ratio(float64(total.SendFailed), float64(total.DataSent)), "ratio"},
		{"p2p.rx.connect", float64(total.RxConnect), "count"},
		{"p2p.rx.query", float64(total.RxQuery), "count"},
		{"p2p.rx.hit", float64(total.RxHit), "count"},
		{"p2p.query_found_frac", ratio(found, requests), "ratio"},
		{"p2p.deliver_s", tr.total("deliver"), "s"},
		{"workload.offered", offered, "count"},
		{"workload.success_frac", ratio(resolved, offered), "ratio"},
		{"telemetry.stream_points", points, "count"},
		{"checkpoint.bytes", ckpt, "bytes"},
		{"manetp2p.build_s", tr.total("build"), "s"},
		{"manetp2p.run_s", p.runWall.Seconds(), "s"},
		{"manetp2p.render_s", p.rendWall.Seconds(), "s"},
		{"manetp2p.pool_busy_frac", ratio(p.cpu.Seconds(), p.wall.Seconds()*float64(cfg.workers)), "ratio"},
		{"runtime.num_gc", float64(gc1.NumGC - gc0.NumGC), "count"},
		{"trace.overhead_frac", ratio(p.wall.Seconds(), untracedWall) - 1, "ratio"},
		{"trace.fold_frac", f.frac(f.FoldedNs), "ratio"},
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_frac", shares[l], "ratio"})
	}
	ms = append(ms, metric{"other.self_frac", shares["other"], "ratio"})
	for _, k := range []string{"copy", "gc", "malloc", "other"} {
		ms = append(ms, metric{"runtime." + k + "_frac", f.frac(f.Runtime[k]), "ratio"})
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.wl.name, cfg.seed))
	if err := writeArtefact(path, cfg, tr, f, ms); err != nil {
		return nil, "", err
	}
	return ms, path, nil
}

// writeArtefact writes the traced run's spans, profile fold and
// per-layer metrics as one JSON file.
func writeArtefact(path string, cfg config, tr *tracer, f *fold, ms []metric) error {
	out := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Spans    []span                `json:"spans"`
		Fold     *fold                 `json:"fold"`
		Metrics  map[string]jsonMetric `json:"metrics"`
	}{Workload: cfg.wl.name, Seed: cfg.seed, Spans: tr.spans, Fold: f, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
