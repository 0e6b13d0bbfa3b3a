package engine

import (
	"adcc/internal/ckpt"
	"adcc/internal/crash"
	"adcc/internal/mem"
	"adcc/internal/pmem"
)

// Guard is the per-run binding of a scheme to a machine: the uniform
// iteration-protection hooks a workload loop drives instead of switching
// on a mechanism enum. A native guard does nothing; a checkpoint guard
// saves the protected regions at iteration boundaries; a PMEM guard
// exposes a transaction pool the iteration body must write through.
//
// Guards carry per-run state (checkpointer, undo log) and are not safe
// for concurrent use; build one per workload run.
type Guard interface {
	// Register places regions under the guard's protection domain.
	// PMEM guards add them to the transactional pool; the others no-op.
	Register(regions ...mem.Region)
	// Pool returns the transaction pool of a PMEM guard, nil otherwise.
	// A non-nil pool means the iteration body must perform its
	// persistent updates transactionally.
	Pool() *pmem.Pool
	// EndIteration runs the guard's end-of-iteration action for the
	// given regions under a tag (typically the iteration number):
	// checkpoint guards save them, the others no-op.
	EndIteration(tag int64, regions ...mem.Region)
	// Checkpointer returns the underlying checkpointer of a checkpoint
	// guard, nil otherwise. Restart paths use it to restore state.
	Checkpointer() *ckpt.Checkpointer
}

// nativeGuard is the no-op guard of native and algorithm-directed runs
// (the latter protect themselves via selective flushes in the workload).
type nativeGuard struct{}

// NewNativeGuard returns the no-op guard.
func NewNativeGuard() Guard { return nativeGuard{} }

func (nativeGuard) Register(...mem.Region)            {}
func (nativeGuard) Pool() *pmem.Pool                  { return nil }
func (nativeGuard) EndIteration(int64, ...mem.Region) {}
func (nativeGuard) Checkpointer() *ckpt.Checkpointer  { return nil }

// checkpointGuard saves the protected regions on every EndIteration.
type checkpointGuard struct {
	cp *ckpt.Checkpointer
}

// NewCheckpointGuard wraps a checkpointer as a Guard. The caller chooses
// the target device (ckpt.NewHDD / ckpt.NewNVM).
func NewCheckpointGuard(cp *ckpt.Checkpointer) Guard {
	if cp == nil {
		panic("engine: checkpoint guard requires a checkpointer")
	}
	return &checkpointGuard{cp: cp}
}

func (g *checkpointGuard) Register(...mem.Region) {}
func (g *checkpointGuard) Pool() *pmem.Pool       { return nil }
func (g *checkpointGuard) EndIteration(tag int64, regions ...mem.Region) {
	g.cp.Checkpoint(tag, regions...)
}
func (g *checkpointGuard) Checkpointer() *ckpt.Checkpointer { return g.cp }

// pmemGuard owns an undo-log pool; registered regions join its
// transactional domain and the workload writes through Pool().
type pmemGuard struct {
	pool *pmem.Pool
}

// NewPMEMGuard builds a guard around a fresh undo-log pool able to hold
// logElems logged element values.
func NewPMEMGuard(m *crash.Machine, logElems int) Guard {
	return &pmemGuard{pool: pmem.NewPool(m, logElems)}
}

func (g *pmemGuard) Register(regions ...mem.Region)    { g.pool.Register(regions...) }
func (g *pmemGuard) Pool() *pmem.Pool                  { return g.pool }
func (g *pmemGuard) EndIteration(int64, ...mem.Region) {}
func (g *pmemGuard) Checkpointer() *ckpt.Checkpointer  { return nil }
