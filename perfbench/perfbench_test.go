package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"manetp2p"
)

// TestMain lets the test binary serve as the host reference's child
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == hostRefArg {
		os.Exit(hostRefChild(os.Stdout))
	}
	os.Exit(m.Run())
}

// toyConfig runs a workload at its toy size: the minimum number of
// passes, plans read from this directory, scratch in a test directory.
func toyConfig(t *testing.T, wl workload, seed int64, trace bool) config {
	return config{wl: wl, sz: wl.toy, seed: seed, trace: trace, outDir: t.TempDir(), dataDir: "data", workers: 2}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// get returns the named metric's value from either list.
func (r *report) get(name string) (float64, bool) {
	for _, m := range append(r.endToEnd, r.perLayer...) {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func checkMetrics(t *testing.T, what string, got []metric, want map[string]string, log string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		seen[m.name] = true
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, m.name)
		case unit != m.unit:
			t.Errorf("%s: metric %s has unit %s, BENCHMARK.json says %s", what, m.name, m.unit, unit)
		}
		if !strings.Contains(log, "\n"+m.name+" ") {
			t.Errorf("%s: metric %s is not printed", what, m.name)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: declared metric %s is not reported", what, name)
		}
	}
}

// Every workload, at toy size and traced, passes its output check and
// prints every declared metric with its declared unit.
func TestToyWorkloadsReportEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var log bytes.Buffer
			rep, err := bench(toyConfig(t, wl, 1, true), &log)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("failed %d of %d replications:\n%s", rep.failed, rep.attempted, log.String())
			}
			out := "\n" + log.String()
			checkMetrics(t, "end-to-end", rep.endToEnd, endToEnd, out)
			checkMetrics(t, "per-layer", rep.perLayer, perLayer, out)
			for _, m := range rep.endToEnd {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
			if v, _ := rep.get("trace.fold_frac"); v < 0.95 {
				t.Errorf("profile fold accounts for %.3f of samples, want >= 0.95", v)
			}
			if _, err := os.Stat(rep.artefact); err != nil {
				t.Errorf("trace artefact: %v", err)
			}
		})
	}
}

// The summary line holds exactly the contract's keys and the metrics of
// the selected mode.
func TestSummaryLine(t *testing.T) {
	rep := &report{
		endToEnd:  []metric{{"wall_s", 1.5, "s"}},
		perLayer:  []metric{{"sim.events", 10, "count"}},
		attempted: 4,
	}
	for _, traced := range []bool{false, true} {
		b, err := json.Marshal(rep.summary(traced))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("summary keys: %s", b)
		}
		want := `{"wall_s":{"value":1.5,"unit":"s"}}`
		if traced {
			want = `{"sim.events":{"value":10,"unit":"count"}}`
		}
		if string(got["metrics"]) != want {
			t.Errorf("traced=%v metrics %s, want %s", traced, got["metrics"], want)
		}
	}
}

// The work counters repeat exactly for one seed and change with it.
func TestCountersFollowSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			replayed := func(seed int64) [][]counters {
				scs, err := wl.scenarios(wl.toy, seed, "data")
				if err != nil {
					t.Fatal(err)
				}
				cs, errs := replay(scs, 2, nil, -1)
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				return cs
			}
			a, b, c := replayed(1), replayed(1), replayed(2)
			for i := range a {
				if a[i][0] != b[i][0] {
					t.Errorf("scenario %d, seed 1: counters %+v then %+v", i, a[i][0], b[i][0])
				}
				if a[i][0] == c[i][0] {
					t.Errorf("scenario %d: seeds 1 and 2 gave the same counters %+v", i, a[i][0])
				}
			}
		})
	}
}

// The collector class constants the replay reads match the per-class
// totals the Result reports. It runs on reconfig, whose toy size
// resolves queries.
func TestClassConstants(t *testing.T) {
	wl, err := findWorkload("reconfig")
	if err != nil {
		t.Fatal(err)
	}
	scs, err := wl.scenarios(wl.toy, 1, "data")
	if err != nil {
		t.Fatal(err)
	}
	sc := scs[1]
	res, err := manetp2p.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cs, errs := replay([]manetp2p.Scenario{sc}, 1, nil, -1)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, c := range []struct {
		class int
		got   uint64
	}{{classConnect, cs[0][0].RxConnect}, {classQuery, cs[0][0].RxQuery}, {classHit, cs[0][0].RxHit}} {
		s := res.Totals[c.class]
		if want := s.Mean * float64(s.N); !near(float64(c.got), want) || c.got == 0 {
			t.Errorf("class %d: replay counted %d, Result totals %.1f", c.class, c.got, want)
		}
	}
}

// The invariant checker and determinism audit pass on every toy
// scenario. This keeps the checker out of the timed runs.
func TestSelfAudit(t *testing.T) {
	for _, wl := range workloads {
		scs, err := wl.scenarios(wl.toy, 1, "data")
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			rep, err := manetp2p.SelfAudit(sc)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			if !rep.OK() {
				t.Errorf("%s: self-audit failed: %s (invariants %+v)", sc.Name, rep.Detail, rep.Invariants)
			}
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   manetp2p/internal/sim.(*Sim).Run
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.duffcopy
             manetp2p/internal/radio.(*Medium).deliver
-----------+-------------------------------------------------------
      10ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             manetp2p/internal/route.(*Pending[go.shape.struct { a int }]).Add
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   gcWriteBarrier
             manetp2p.(*Pool).Run
-----------+-------------------------------------------------------
      10ms   internal/runtime/maps.(*Map).getWithKey
             manetp2p/internal/aodv.(*Router).lookup
-----------+-------------------------------------------------------
`
	f, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNs != 100e6 || f.FoldedNs != 100e6 {
		t.Errorf("total %d folded %d, want 100ms each", f.TotalNs, f.FoldedNs)
	}
	shares := f.layerShares()
	for layer, want := range map[string]float64{"sim": 0.4, "runtime": 0.6} {
		if got := shares[layer]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s share %v, want %v", layer, got, want)
		}
	}
	for kind, want := range map[string]int64{"copy": 20e6, "malloc": 10e6, "gc": 20e6, "other": 10e6} {
		if got := f.Runtime[kind]; got != want {
			t.Errorf("runtime %s %d ns, want %d", kind, got, want)
		}
	}
	for sym, want := range map[string]string{
		"manetp2p/internal/route.(*Pending[go.shape.struct { a *manetp2p/internal/netif.Msg }]).Add": "manetp2p/internal/route",
		"type:.eq.manetp2p/internal/netif.Packet":                                                    "manetp2p/internal/netif",
		"manetp2p.aggregate": "manetp2p",
		"aeshashbody":        "runtime",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
	if _, err := parseTraces([]byte("no header\n")); err == nil {
		t.Error("output without a sample total parsed")
	}
}
