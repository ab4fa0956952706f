package main

import (
	"fmt"
	"io"
	"path/filepath"

	"manetp2p"
)

// size is how much simulation one pass of a workload runs: replications
// per algorithm and the simulated horizon of each.
type size struct {
	reps    int
	horizon float64 // seconds of simulated time
}

// workload is one named set of scenarios run together through one Pool.
// Why each exists is in README.md; the sizes are chosen so that a pass
// takes a few seconds on a 2-CPU host and a run sees several passes.
type workload struct {
	name string
	full size
	toy  size // the self-tests' size: same shape, a fraction of the work

	// scenario builds the workload's scenario for one algorithm.
	scenario func(alg manetp2p.Algorithm, sz size, seed int64, dataDir string) (manetp2p.Scenario, error)
	// render writes every Result with the report functions a user of
	// this path calls.
	render func(w io.Writer, rs []*manetp2p.Result) error
	// checkpointed runs the scenarios through Pool.RunCheckpointed with
	// a JSONL metrics sink, the `sweep -checkpoint -metrics` path.
	checkpointed bool
}

var workloads = []workload{
	{
		name:     "paper150",
		full:     size{reps: 16, horizon: 60},
		toy:      size{reps: 1, horizon: 30},
		scenario: paperScenario(150),
		render:   renderFigures,
	},
	{
		name:         "reconfig",
		full:         size{reps: 4, horizon: 600},
		toy:          size{reps: 1, horizon: 150},
		scenario:     reconfigScenario,
		render:       renderReconfig,
		checkpointed: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// seedBlock spaces the replication seeds of two command-line seeds.
const seedBlock = 1000

// scenarios builds the workload's four scenarios, one per algorithm, in
// the paper's order. Every replication of the run gets its own seed:
// algorithm a's replication r runs on seed·seedBlock + a·reps + r. Two
// command-line seeds therefore share no replication, and neither do two
// algorithms, so a run averages over 4·reps independent networks.
func (w workload) scenarios(sz size, seed int64, dataDir string) ([]manetp2p.Scenario, error) {
	var scs []manetp2p.Scenario
	for a, alg := range manetp2p.Algorithms() {
		sc, err := w.scenario(alg, sz, seed*seedBlock+int64(a*sz.reps), dataDir)
		if err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

// paperScenario is the paper's Table 2 setup at n nodes, the cmd/repro
// path, cut to the given horizon and replication count.
func paperScenario(n int) func(manetp2p.Algorithm, size, int64, string) (manetp2p.Scenario, error) {
	return func(alg manetp2p.Algorithm, sz size, seed int64, _ string) (manetp2p.Scenario, error) {
		sc := manetp2p.DefaultScenario(n, alg)
		sc.Duration = manetp2p.Seconds(sz.horizon)
		sc.Replications = sz.reps
		sc.Seed = seed
		return sc, nil
	}
}

// reconfigScenario is a connected 50-node arena under scripted demand
// and faults, with overlay snapshots and traffic buckets on: the
// workload where overlay links are torn down and rebuilt.
func reconfigScenario(alg manetp2p.Algorithm, sz size, seed int64, dataDir string) (manetp2p.Scenario, error) {
	plan, err := manetp2p.LoadWorkloadPlan(filepath.Join(dataDir, "reconfig_workload.json"))
	if err != nil {
		return manetp2p.Scenario{}, err
	}
	faults, err := manetp2p.LoadFaultPlan(filepath.Join(dataDir, "reconfig_faults.json"))
	if err != nil {
		return manetp2p.Scenario{}, err
	}
	sc := manetp2p.DefaultScenario(50, alg)
	sc.Name = fmt.Sprintf("reconfig-%s", alg)
	sc.AreaSide = 50
	sc.Range = 15
	sc.Duration = manetp2p.Seconds(sz.horizon)
	sc.Replications = sz.reps
	sc.Seed = seed
	sc.Workload = plan
	sc.Faults = faults
	sc.SnapshotEvery = manetp2p.Seconds(30)
	sc.TrafficBucket = manetp2p.Seconds(60)
	return sc, nil
}

// renderFigures renders the paper's figures for one population: the
// per-file curves (Figures 5/6) and the connect, ping and query node
// series (Figures 7–12).
func renderFigures(w io.Writer, rs []*manetp2p.Result) error {
	if err := manetp2p.WriteFileCurves(w, rs, 10); err != nil {
		return err
	}
	for _, k := range []manetp2p.SeriesKind{manetp2p.SeriesConnect, manetp2p.SeriesPing, manetp2p.SeriesQuery} {
		if err := manetp2p.WriteNodeSeries(w, k, rs); err != nil {
			return err
		}
	}
	return nil
}

// renderReconfig renders what `p2psim` prints for a fault and workload
// run: the summary, demand and resilience reports per result, then the
// traffic series side by side.
func renderReconfig(w io.Writer, rs []*manetp2p.Result) error {
	for _, r := range rs {
		manetp2p.WriteSummary(w, r)
		if err := manetp2p.WriteWorkload(w, r); err != nil {
			return err
		}
		if err := manetp2p.WriteResilience(w, r); err != nil {
			return err
		}
	}
	return manetp2p.WriteTrafficSeries(w, rs)
}
