package manetp2p

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"manetp2p/internal/checkpoint"
)

// This file wires internal/checkpoint into the runner: a scenario run
// persists each replication to one checkpoint file as it finishes, and
// a later process can resume the run, producing a report byte-identical
// to the uninterrupted run (DESIGN.md §11).
//
// The replication is the unit of checkpointing, as it is the unit of
// the paper's averages. A file holds the scenario, the full measurement
// record of every finished replication and the telemetry manifest.
// Resume loads the finished records and runs every other replication
// from its seed; nothing of an unfinished replication is kept, because
// rebuilding it from its seed is all a resume could do with it anyway.

// ErrHalted is returned by RunCheckpointed and ResumeCheckpoint when
// the run stopped after CheckpointConfig.HaltAfter replications with
// work remaining; the checkpoint file holds everything needed to resume.
var ErrHalted = errors.New("manetp2p: run halted after persisting its replications (resume to continue)")

// CheckpointConfig parameterizes a checkpointed run.
type CheckpointConfig struct {
	// Path is the checkpoint file, written atomically each time a
	// replication finishes and once more when the run is done.
	Path string
	// HaltAfter > 0 runs and persists only replications with index
	// below it, then returns ErrHalted if any replication remains — the
	// programmatic form of being preempted, used by -halt and the
	// round-trip tests. Which replications a halted file holds does not
	// depend on worker scheduling.
	HaltAfter int
	// Sink, when non-nil, receives the streamed telemetry time series
	// once the run completes, exactly as RunWithMetrics would emit it.
	// Not closed; nothing is streamed on a halt.
	Sink MetricsSink
}

// ckptHeader is the checkpoint file's JSON header — self-describing
// enough for tooling (and cmd/sweep's done/mismatch probes) without
// decoding any section. Unknown keys are ignored, so headers of older
// binaries (which also listed in-flight replication cursors) still read.
type ckptHeader struct {
	Kind      string          `json:"kind"`
	Scenario  json.RawMessage `json:"scenario"`
	Total     int             `json:"replications"`
	Completed []int           `json:"completed"`
	Done      bool            `json:"done"`
}

const ckptKind = "manetp2p-run"

// ckptState is the mutex-guarded progress shared by the replication
// workers of one checkpointed run; persist snapshots it to disk
// atomically.
type ckptState struct {
	mu       sync.Mutex
	path     string
	scenario json.RawMessage
	total    int
	records  map[int][]byte // gob-encoded finished replications
	done     bool
}

func newCkptState(path string, scenario []byte, total int) *ckptState {
	return &ckptState{path: path, scenario: scenario, total: total, records: map[int][]byte{}}
}

// persist writes the current progress to the checkpoint file. The
// caller holds st.mu.
func (st *ckptState) persist() error {
	hdr := ckptHeader{
		Kind: ckptKind, Scenario: st.scenario, Total: st.total, Done: st.done,
		Completed: make([]int, 0, len(st.records)),
	}
	f := &checkpoint.File{Sections: make(map[string][]byte, len(st.records)+1)}
	// The telemetry plane's shape travels with the run: resume refuses a
	// checkpoint whose section registry differs from this binary's.
	f.Sections[telemetrySectionName] = sections.Manifest()
	for rep, data := range st.records { // sorted below: byte-stable headers
		hdr.Completed = append(hdr.Completed, rep)
		f.Sections[sectionName(rep)] = data
	}
	sort.Ints(hdr.Completed)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("manetp2p: encoding checkpoint header: %w", err)
	}
	f.Header = hb
	return checkpoint.Write(st.path, f)
}

// complete records a finished replication and persists; it is the
// completion hook runReps calls on the worker.
func (st *ckptState) complete(rep int, rr repResult) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rr); err != nil {
		return fmt.Errorf("manetp2p: encoding replication record: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.records[rep] = buf.Bytes()
	return st.persist()
}

// finish marks the run done and persists, unless the file already says
// so (resuming a finished run rewrites nothing).
func (st *ckptState) finish() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return nil
	}
	st.done = true
	return st.persist()
}

func sectionName(rep int) string { return "rep/" + strconv.Itoa(rep) }

// telemetrySectionName is the checkpoint section holding the telemetry
// registry's manifest (section names in registration order).
const telemetrySectionName = "telemetry/manifest"

// RunCheckpointed executes the scenario like Run while persisting every
// finished replication to cfg.Path. With a zero cfg.HaltAfter it
// returns exactly what Run returns; with HaltAfter below the
// replication count it returns (nil, ErrHalted) once replications
// 0..HaltAfter-1 are persisted.
func (p *Pool) RunCheckpointed(sc Scenario, cfg CheckpointConfig) (*Result, error) {
	if cfg.Path == "" {
		return nil, errors.New("manetp2p: CheckpointConfig.Path is empty")
	}
	scJSON, err := MarshalJSONScenario(sc)
	if err != nil {
		return nil, err
	}
	return p.runCheckpointed(sc, cfg, newCkptState(cfg.Path, scJSON, sc.Replications), nil)
}

// ResumeCheckpoint picks a checkpointed run back up from path: the
// scenario comes from the file, finished replications are loaded
// without re-execution and every other one runs from its seed. cfg.Path
// is ignored (progress keeps going to the same file); cfg.HaltAfter
// works as in RunCheckpointed.
func (p *Pool) ResumeCheckpoint(path string, cfg CheckpointConfig) (*Result, error) {
	f, err := checkpoint.Read(path)
	if err != nil {
		return nil, err
	}
	sc, hdr, err := decodeCkptHeader(path, f.Header)
	if err != nil {
		return nil, err
	}
	manifest, ok := f.Sections[telemetrySectionName]
	if !ok {
		return nil, fmt.Errorf("manetp2p: checkpoint %s: no %q section — written by a binary without the telemetry plane", path, telemetrySectionName)
	}
	if err := sections.CheckManifest(manifest); err != nil {
		return nil, fmt.Errorf("manetp2p: checkpoint %s: %w — the telemetry plane changed between the writing and resuming binaries", path, err)
	}
	st := newCkptState(path, hdr.Scenario, hdr.Total)
	st.done = hdr.Done
	preloaded := make(map[int]repResult, len(hdr.Completed))
	for _, rep := range hdr.Completed {
		data, ok := f.Sections[sectionName(rep)]
		if !ok {
			return nil, fmt.Errorf("manetp2p: checkpoint %s: header lists replication %d complete but section %q is missing", path, rep, sectionName(rep))
		}
		var rr repResult
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rr); err != nil {
			return nil, fmt.Errorf("manetp2p: checkpoint %s: replication %d: decoding record: %w", path, rep, err)
		}
		preloaded[rep] = rr
		st.records[rep] = data
	}
	return p.runCheckpointed(sc, cfg, st, preloaded)
}

// runCheckpointed is the shared tail of RunCheckpointed and
// ResumeCheckpoint: it runs every replication below the halt point that
// is not preloaded, persisting each as it finishes.
func (p *Pool) runCheckpointed(sc Scenario, cfg CheckpointConfig, st *ckptState, preloaded map[int]repResult) (*Result, error) {
	n := sc.Replications
	if cfg.HaltAfter > 0 && cfg.HaltAfter < n {
		n = cfg.HaltAfter
	}
	reps, err := p.runReps(sc, n, preloaded, st.complete)
	if err != nil {
		return nil, err
	}
	if n < sc.Replications {
		return nil, fmt.Errorf("%w: %s", ErrHalted, st.path)
	}
	if err := st.finish(); err != nil {
		return nil, err
	}
	res := aggregate(sc, reps)
	streamMetrics(sc, reps, cfg.Sink)
	return res, nil
}

// CheckpointInfo summarizes a checkpoint file without decoding its
// payload sections — what tooling and the sweep driver need to decide
// whether a grid point is done, resumable, or belongs to a different
// scenario.
type CheckpointInfo struct {
	Scenario  Scenario
	Done      bool
	Total     int   // replications in the scenario
	Completed []int // replication indices finished and stored, ascending
}

// InspectCheckpoint reads only the header of the checkpoint at path.
func InspectCheckpoint(path string) (*CheckpointInfo, error) {
	hb, err := checkpoint.ReadHeader(path)
	if err != nil {
		return nil, err
	}
	sc, hdr, err := decodeCkptHeader(path, hb)
	if err != nil {
		return nil, err
	}
	return &CheckpointInfo{Scenario: sc, Done: hdr.Done, Total: hdr.Total, Completed: hdr.Completed}, nil
}

func decodeCkptHeader(path string, raw []byte) (Scenario, ckptHeader, error) {
	var hdr ckptHeader
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: header: %w", path, err)
	}
	if hdr.Kind != ckptKind {
		return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: kind %q, want %q", path, hdr.Kind, ckptKind)
	}
	sc, err := UnmarshalJSONScenario(hdr.Scenario)
	if err != nil {
		return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: scenario: %w", path, err)
	}
	if hdr.Total != sc.Replications {
		return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: header says %d replications, scenario says %d", path, hdr.Total, sc.Replications)
	}
	seen := make(map[int]bool, len(hdr.Completed))
	for _, rep := range hdr.Completed {
		switch {
		case rep < 0 || rep >= hdr.Total:
			return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: completed replication %d outside [0, %d)", path, rep, hdr.Total)
		case seen[rep]:
			return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: completed replication %d listed twice", path, rep)
		}
		seen[rep] = true
	}
	if hdr.Done && len(hdr.Completed) != hdr.Total {
		return Scenario{}, hdr, fmt.Errorf("manetp2p: checkpoint %s: marked done with %d of %d replications complete", path, len(hdr.Completed), hdr.Total)
	}
	return sc, hdr, nil
}
