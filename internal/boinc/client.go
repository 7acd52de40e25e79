package boinc

import (
	"encoding/json"
	"fmt"

	"vmdg/internal/cost"
)

// WorkUnit describes one Einstein@home-style task.
type WorkUnit struct {
	ID     string
	Seed   uint64
	Chunks int // analysis chunks to complete
	// CheckpointEvery controls how often progress is persisted.
	CheckpointEvery int
}

// DefaultWorkUnit returns a representative task: enough chunks to run for
// minutes of virtual time, checkpointing like the real client (~60 s).
func DefaultWorkUnit(id string, seed uint64) WorkUnit {
	return WorkUnit{ID: id, Seed: seed, Chunks: 4096, CheckpointEvery: 256}
}

// Progress is the client's persistent state — what survives a checkpoint
// and travels inside a VM migration payload.
type Progress struct {
	WorkUnit   WorkUnit
	ChunksDone int
	BestPeak   float64
}

// Marshal serializes progress for a checkpoint payload.
func (p Progress) Marshal() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("boinc: marshal progress: %v", err)) // fields are plain data
	}
	return b
}

// UnmarshalProgress reverses Marshal.
func UnmarshalProgress(data []byte) (Progress, error) {
	var p Progress
	if err := json.Unmarshal(data, &p); err != nil {
		return Progress{}, fmt.Errorf("boinc: unmarshal progress: %w", err)
	}
	return p, nil
}

// Worker is a cost.Program that performs work units forever (the paper's
// scenario: the BOINC client keeps the virtual CPU at 100%), checkpointing
// progress to the guest filesystem. It is resumable: construct with a
// restored Progress to continue a migrated task.
type Worker struct {
	// State is exported for checkpoint capture; treat as read-only.
	State Progress

	perChunk  cost.Counts
	stage     int // 0: compute next chunk, 1: checkpoint write, 2: fsync
	unitsDone int
}

// NewWorker starts (or resumes) a worker on the given progress.
func NewWorker(p Progress) *Worker {
	if p.WorkUnit.Chunks <= 0 {
		panic("boinc: work unit with no chunks")
	}
	return &Worker{State: p, perChunk: chunkCounts()}
}

// UnitsDone reports completed work units (for throughput accounting).
func (w *Worker) UnitsDone() int { return w.unitsDone }

// checkpointFile is where the client persists progress inside the guest.
const checkpointFile = "boinc-state.xml"

// checkpointBytes approximates the real client's state file size.
const checkpointBytes = 8 << 10

// Next implements cost.Program. The step stream is:
// compute chunk → (periodically: write checkpoint, fsync) → ... → unit
// completes → start the next unit.
func (w *Worker) Next() (cost.Step, bool) {
	switch w.stage {
	case 1:
		w.stage = 2
		return cost.Step{Kind: cost.StepDiskWrite, File: checkpointFile, Offset: 0, Bytes: checkpointBytes}, true
	case 2:
		w.stage = 0
		return cost.Step{Kind: cost.StepDiskSync, File: checkpointFile}, true
	}
	// Compute one chunk.
	w.State.ChunksDone++
	if w.State.ChunksDone >= w.WorkUnitChunks() {
		w.unitsDone++
		// Fetch the next unit: new seed, progress reset.
		w.State.WorkUnit.Seed++
		w.State.ChunksDone = 0
	}
	if ce := w.State.WorkUnit.CheckpointEvery; ce > 0 && w.State.ChunksDone%ce == 0 {
		w.stage = 1
	}
	c := w.perChunk
	return cost.Step{Kind: cost.StepCompute, Cycles: c.Cycles(), Mix: c.Mix()}, true
}

// WorkUnitChunks exposes the unit length.
func (w *Worker) WorkUnitChunks() int { return w.State.WorkUnit.Chunks }

// FiniteWorker wraps Worker to stop after completing n work units — the
// shape needed by experiments that measure a bounded task.
type FiniteWorker struct {
	*Worker
	Units int
}

// NewFiniteWorker runs exactly units work units then exits.
func NewFiniteWorker(p Progress, units int) *FiniteWorker {
	return &FiniteWorker{Worker: NewWorker(p), Units: units}
}

// Next implements cost.Program.
func (f *FiniteWorker) Next() (cost.Step, bool) {
	if f.UnitsDone() >= f.Units && f.stage == 0 {
		return cost.Step{}, false
	}
	return f.Worker.Next()
}

// EstimateUnitSeconds predicts how long one work unit takes on an
// unloaded native core at freqHz — useful for sizing experiments.
func EstimateUnitSeconds(wu WorkUnit, freqHz float64) float64 {
	c := chunkCounts()
	return c.Cycles() * float64(wu.Chunks) / freqHz
}
