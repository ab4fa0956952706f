package manetp2p

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p/internal/checkpoint"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

// ckptGolden gates the full 21-fixture fresh-process round-trip (about
// as expensive as the golden suite itself); ./check.sh checkpoint runs
// it. The cheap always-on variants below cover the same machinery.
var ckptGolden = flag.Bool("ckpt-golden", false,
	"run the full golden-fixture checkpoint/resume round-trip (./check.sh checkpoint)")

// ckptScenario is a busy but fast scenario: faults mid-run, health
// telemetry, snapshots, traffic buckets and churn all feed the Result,
// so a restore that loses any subsystem's state shows up.
func ckptScenario() Scenario {
	sc := DefaultScenario(30, Regular)
	sc.Name = "ckpt-roundtrip"
	sc.Duration = 240 * sim.Second
	sc.Replications = 2
	sc.Seed = 13
	sc.SnapshotEvery = 60 * sim.Second
	sc.TrafficBucket = 60 * sim.Second
	sc.HealthEvery = 10 * sim.Second
	sc.Churn = ChurnConfig{MeanUptime: 300 * sim.Second, MeanDowntime: 30 * sim.Second}
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(60*sim.Second, 90*sim.Second, AxisX, 50),
	}}
	sc.Params.PeerCache = p2p.PeerCacheConfig{Enabled: true}
	return sc
}

// A checkpointed run that is never interrupted must return exactly what
// the plain runner returns: persisting a finished replication only
// serializes its record.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := NewPool(0).RunCheckpointed(sc, CheckpointConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, plain), resultJSON(t, ckpt)) {
		t.Error("checkpointed run's Result differs from the plain run's")
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done || len(info.Completed) != sc.Replications {
		t.Errorf("final checkpoint state = done=%v completed=%v, want done, all reps",
			info.Done, info.Completed)
	}
}

// A fault scenario halted after its first replication and resumed
// in-process must reproduce the uninterrupted run's full Result
// byte-for-byte — Resilience explicitly included, since the stored
// record of replication 0 carries its health samples.
func TestCheckpointResumeUnderFaults(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Resilience == nil {
		t.Fatal("precondition: fault scenario produced no resilience telemetry")
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	pool := NewPool(0)
	_, err = pool.RunCheckpointed(sc, CheckpointConfig{Path: path, HaltAfter: 1})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("RunCheckpointed with HaltAfter: err = %v, want ErrHalted", err)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || len(info.Completed) != 1 || info.Completed[0] != 0 {
		t.Fatalf("halted checkpoint: done=%v completed=%v, want not done, [0]", info.Done, info.Completed)
	}
	resumed, err := pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := resultJSON(t, plain), resultJSON(t, resumed)
	if !bytes.Equal(ra, rb) {
		t.Error("resumed Result differs from the uninterrupted run")
	}
	pa, _ := json.Marshal(plain.Resilience)
	pb, _ := json.Marshal(resumed.Resilience)
	if !bytes.Equal(pa, pb) {
		t.Errorf("Result.Resilience diverged across resume:\nuninterrupted: %s\nresumed:       %s", pa, pb)
	}
}

// Resuming a finished checkpoint re-runs nothing: every replication
// loads from its stored record, so the Result must match even if the
// file is the only thing left of the original process.
func TestResumeCompletedCheckpoint(t *testing.T) {
	sc := ckptScenario()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	pool := NewPool(0)
	first, err := pool.RunCheckpointed(sc, CheckpointConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, first), resultJSON(t, again)) {
		t.Error("resume of a completed checkpoint changed the Result")
	}
}

// A replication failing mid-grid must surface its error through Pool
// machinery — never deadlock it. The injected failure is an unwritable
// checkpoint path, which every worker hits when it persists its
// finished replication.
func TestPoolSurfacesReplicationErrors(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := ckptScenario()
	sc.Replications = 4
	sc.Workers = 2
	pool := NewPool(2)
	_, err := pool.RunCheckpointed(sc, CheckpointConfig{
		Path: filepath.Join(blocker, "x.ckpt"), // blocker is a file: persist must fail
	})
	if err == nil {
		t.Fatal("RunCheckpointed with unwritable path returned nil error")
	}
	if errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want a persist failure, not ErrHalted", err)
	}
	// The pool must still be usable: all slots were released.
	sc2 := quickScenario(Regular, 15)
	sc2.Replications = 2
	if _, err := pool.Run(sc2); err != nil {
		t.Fatalf("pool unusable after failed run: %v", err)
	}
}

// resumeInFreshProcess re-execs this test binary to run
// TestCheckpointResumeChild in a brand-new process — the real crash
// -recovery shape: nothing survives but the checkpoint file. It returns
// the goldenMarshal-rendered Result of the resumed run.
func resumeInFreshProcess(t *testing.T, ckptPath string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "resumed.json")
	cmd := exec.Command(exe, "-test.run", "^TestCheckpointResumeChild$", "-test.count", "1")
	cmd.Env = append(os.Environ(),
		"MANETP2P_CKPT_RESUME="+ckptPath,
		"MANETP2P_CKPT_OUT="+out,
	)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process resume failed: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("fresh-process resume wrote no report: %v", err)
	}
	return data
}

// TestCheckpointResumeChild is the fresh process's half of the
// round-trip tests: inert unless invoked via resumeInFreshProcess.
func TestCheckpointResumeChild(t *testing.T) {
	path := os.Getenv("MANETP2P_CKPT_RESUME")
	if path == "" {
		t.Skip("child half of the fresh-process resume tests")
	}
	res, err := NewPool(0).ResumeCheckpoint(path, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("MANETP2P_CKPT_OUT"), goldenMarshal(t, res), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Always-on fresh-process round-trip on the fast scenario: halt after
// the first replication, resume in a new process, compare against the
// uninterrupted in-process run.
func TestCheckpointResumeFreshProcess(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err = NewPool(0).RunCheckpointed(sc, CheckpointConfig{Path: path, HaltAfter: 1})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	got := resumeInFreshProcess(t, path)
	want := goldenMarshal(t, plain)
	if !bytes.Equal(got, want) {
		t.Error("fresh-process resumed report differs from the uninterrupted run")
	}
}

// TestCheckpointGoldenFixtures is the acceptance bar: every committed
// golden fixture — 4 algorithm, 16 routing-matrix, 1 workload, 1
// download — is run checkpointed, resumed in a fresh process, and the
// resumed report must be byte-identical to the fixture on disk. A
// fixture with several replications halts after the first, so the
// resume loads one record and runs the rest; a single-replication
// fixture runs to completion, so the resume loads its only record.
// Expensive; gated behind -ckpt-golden and run by ./check.sh checkpoint.
func TestCheckpointGoldenFixtures(t *testing.T) {
	if !*ckptGolden {
		t.Skip("enable with -ckpt-golden (./check.sh checkpoint)")
	}
	type fixture struct {
		name string
		sc   Scenario
		path string
	}
	var fixtures []fixture
	for _, alg := range Algorithms() {
		fixtures = append(fixtures, fixture{
			name: strings.ToLower(alg.String()),
			sc:   goldenScenario(alg),
			path: filepath.Join("testdata", "golden", strings.ToLower(alg.String())+".json"),
		})
	}
	for _, sub := range []struct {
		name string
		kind RoutingKind
	}{{"aodv", RoutingAODV}, {"dsr", RoutingDSR}, {"flood", RoutingFlood}, {"dsdv", RoutingDSDV}} {
		for _, alg := range Algorithms() {
			fixtures = append(fixtures, fixture{
				name: "routing_" + sub.name + "_" + strings.ToLower(alg.String()),
				sc:   goldenRoutingScenario(alg, sub.kind),
				path: filepath.Join("testdata", "golden", "routing_"+sub.name+"_"+strings.ToLower(alg.String())+".json"),
			})
		}
	}
	fixtures = append(fixtures, fixture{
		name: "workload",
		sc:   goldenWorkloadScenario(),
		path: filepath.Join("testdata", "golden", "workload.json"),
	})
	fixtures = append(fixtures, fixture{
		name: "download",
		sc:   goldenDownloadScenario(),
		path: filepath.Join("testdata", "golden", "download.json"),
	})

	pool := NewPool(0)
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatalf("missing fixture: %v", err)
			}
			ckptPath := filepath.Join(t.TempDir(), fx.name+".ckpt")
			_, err = pool.RunCheckpointed(fx.sc, CheckpointConfig{Path: ckptPath, HaltAfter: 1})
			if fx.sc.Replications > 1 && !errors.Is(err, ErrHalted) {
				t.Fatalf("err = %v, want ErrHalted", err)
			}
			if fx.sc.Replications == 1 && err != nil {
				t.Fatal(err)
			}
			if dir := os.Getenv("MANETP2P_CKPT_ARTIFACT"); dir != "" && fx.name == "workload" {
				// Preserve the halted workload checkpoint for the CI
				// artifact before the resume completes it.
				data, err := os.ReadFile(ckptPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "workload.ckpt"), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got := resumeInFreshProcess(t, ckptPath)
			if !bytes.Equal(got, want) {
				t.Errorf("fresh-process resumed report differs from fixture %s", fx.path)
			}
		})
	}
}

// TestCheckpointTelemetryManifest pins the telemetry plane's
// checkpoint contract: every persisted checkpoint carries the section
// registry's manifest, resuming against a drifted manifest (a section
// renamed between the writing and resuming binaries) is refused, and a
// checkpoint stripped of the manifest — what a binary without the
// telemetry plane would write — is refused too.
func TestCheckpointTelemetryManifest(t *testing.T) {
	sc := ckptScenario()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	pool := NewPool(0)
	_, err := pool.RunCheckpointed(sc, CheckpointConfig{Path: path, HaltAfter: 1})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}

	f, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	manifest, ok := f.Sections[telemetrySectionName]
	if !ok {
		t.Fatalf("halted checkpoint has no %q section", telemetrySectionName)
	}
	if !bytes.Equal(manifest, sections.Manifest()) {
		t.Fatalf("persisted manifest %s differs from the live registry's %s",
			manifest, sections.Manifest())
	}

	// Drift: rename one section as a binary with a different telemetry
	// plane would have. The re-encoded file is internally consistent
	// (valid CRC), so only the manifest check can catch it.
	drifted := bytes.Replace(manifest, []byte(`"servent"`), []byte(`"servant"`), 1)
	if bytes.Equal(drifted, manifest) {
		t.Fatal("test manifest does not mention the servent section")
	}
	f.Sections[telemetrySectionName] = drifted
	if err := checkpoint.Write(path, f); err != nil {
		t.Fatal(err)
	}
	_, err = pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err == nil || !strings.Contains(err.Error(), "telemetry plane changed") {
		t.Errorf("resume with drifted manifest: err = %v, want telemetry-drift error", err)
	}

	// Absence: a checkpoint written by a binary without the telemetry
	// plane at all.
	delete(f.Sections, telemetrySectionName)
	if err := checkpoint.Write(path, f); err != nil {
		t.Fatal(err)
	}
	_, err = pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err == nil || !strings.Contains(err.Error(), "without the telemetry plane") {
		t.Errorf("resume without manifest: err = %v, want missing-manifest error", err)
	}
}

// rewriteHeader loads the checkpoint at path, lets edit change its
// decoded header and sections, and writes it back (valid CRCs, so only
// the header checks can object).
func rewriteHeader(t *testing.T, path string, edit func(hdr map[string]any, sections map[string][]byte)) {
	t.Helper()
	f, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr map[string]any
	if err := json.Unmarshal(f.Header, &hdr); err != nil {
		t.Fatal(err)
	}
	edit(hdr, f.Sections)
	if f.Header, err = json.Marshal(hdr); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(path, f); err != nil {
		t.Fatal(err)
	}
}

// Resume must refuse a header whose completed list does not describe
// the scenario's replications: an out-of-range or duplicate index would
// otherwise be carried into every later persist, a listed replication
// without its record cannot be loaded, a replication count that
// disagrees with the embedded scenario means the header is not this
// run's, and a done file must hold every replication.
func TestResumeValidatesCompleted(t *testing.T) {
	sc := quickScenario(Regular, 12)
	src := filepath.Join(t.TempDir(), "done.ckpt")
	pool := NewPool(0)
	if _, err := pool.RunCheckpointed(sc, CheckpointConfig{Path: src}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(hdr map[string]any, sections map[string][]byte)
		want string // substring of the error besides the path
	}{
		{"out-of-range", func(hdr map[string]any, s map[string][]byte) {
			hdr["completed"] = []int{0, 1, 2}
			s["rep/2"] = s["rep/0"]
		}, "replication 2"},
		{"negative", func(hdr map[string]any, s map[string][]byte) {
			hdr["completed"] = []int{-1, 0, 1}
			s["rep/-1"] = s["rep/0"]
		}, "replication -1"},
		{"duplicate", func(hdr map[string]any, s map[string][]byte) {
			hdr["completed"] = []int{0, 0, 1}
		}, "replication 0"},
		{"missing-section", func(hdr map[string]any, s map[string][]byte) {
			delete(s, "rep/1")
		}, "replication 1"},
		{"replications-mismatch", func(hdr map[string]any, s map[string][]byte) {
			hdr["replications"] = 3
		}, "3 replications"},
		{"done-incomplete", func(hdr map[string]any, s map[string][]byte) {
			hdr["completed"] = []int{0}
		}, "1 of 2 replications"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
			rewriteHeader(t, path, tc.edit)
			_, err := pool.ResumeCheckpoint(path, CheckpointConfig{})
			if err == nil {
				t.Fatal("resume accepted the header")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to name %s and %q", err, path, tc.want)
			}
		})
	}
}

// A file written by an older binary for an interrupted run holds, next
// to its finished records, a cursor for each in-flight replication.
// Resume ignores the cursor and runs that replication from its seed,
// so the Result still equals the uninterrupted run's.
func TestResumeLegacyCursorHeader(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	pool := NewPool(0)
	if _, err := pool.RunCheckpointed(sc, CheckpointConfig{Path: path, HaltAfter: 1}); !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	rewriteHeader(t, path, func(hdr map[string]any, _ map[string][]byte) {
		hdr["completed"] = []int{0}
		hdr["cursors"] = []map[string]any{{
			"rep": 1, "at": int64(sc.Duration / 2), "fired": 12345, "digest": "0123456789abcdef",
		}}
	})
	resumed, err := pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, plain), resultJSON(t, resumed)) {
		t.Error("resumed legacy checkpoint's Result differs from the uninterrupted run")
	}
}

// repResult is gob-encoded as the checkpoint record, so its exported
// field names are a file format: these are the names older binaries
// wrote, and renaming one would silently drop that measurement from
// every older file on resume.
func TestRecordFieldNamesStable(t *testing.T) {
	want := []string{
		"Requests", "Series", "Totals", "RxFrames", "TxFrames", "Clust", "PathLen",
		"Largest", "MeanDeg", "Alive", "DegSeries", "ConnRate", "QueryRate", "Deaths",
		"Energy", "Lifetimes", "Health", "Routing", "Members", "Checked", "ViolTotal",
		"Violations", "Workload", "Churnit",
	}
	var got []string
	typ := reflect.TypeOf(repResult{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record fields = %v, want %v", got, want)
	}
}
