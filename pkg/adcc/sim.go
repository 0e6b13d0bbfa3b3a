package adcc

import (
	"adcc/internal/cache"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/kvlog"
	"adcc/internal/mem"
	"adcc/internal/stencil"
)

// This file re-exports the simulated platform: the machine (clock + CPU
// + heap + LLC + memory system), the crash emulator, and their
// configuration. The aliases are real type identities, so values move
// freely between the public API and the engine underneath it.

// SystemKind selects one of the paper's two memory systems.
type SystemKind = crash.SystemKind

// The paper's two platforms.
const (
	// NVMOnly is the NVM-only system: NVM main memory under volatile
	// CPU caches.
	NVMOnly = crash.NVMOnly
	// Hetero is the heterogeneous NVM/DRAM system: a DRAM cache tier in
	// front of NVM main memory.
	Hetero = crash.Hetero
)

// FlushInstr selects the simulated cache-flush instruction.
type FlushInstr = crash.FlushInstr

// Flush instruction variants (paper §II).
const (
	// CLFLUSH writes the line back and invalidates it.
	CLFLUSH = crash.CLFLUSH
	// CLWB writes the line back and keeps it resident.
	CLWB = crash.CLWB
)

// MachineConfig configures a simulated platform.
type MachineConfig = crash.MachineConfig

// CacheConfig configures the simulated last-level cache.
type CacheConfig = cache.Config

// Machine is a simulated platform: clock, CPU cost model, heap with
// live + persistent images, and the LLC.
type Machine = crash.Machine

// NewMachine builds a simulated platform. Zero-valued fields take the
// paper-shape defaults (NVM-only system, 2 MB LLC).
func NewMachine(cfg MachineConfig) *Machine { return crash.NewMachine(cfg) }

// FaultKind names a crash-time fault/persistency model.
type FaultKind = crash.FaultKind

// Crash-time fault/persistency models (see FaultModel).
const (
	// FailStop is the clean fail-stop baseline: the persistent image is
	// exactly what was explicitly persisted before the crash.
	FailStop = crash.FailStop
	// TornLine persists a partial prefix of one in-flight dirty cache
	// line, modeling a flush torn mid-writeback by the power failure.
	TornLine = crash.TornLine
	// EADR models an eADR platform whose LLC sits inside the persistence
	// domain: every dirty line drains to the image at crash time.
	EADR = crash.EADR
	// ReorderWB persists a seeded prefix of the dirty lines in a seeded
	// order, modeling writebacks racing the failure between fences.
	ReorderWB = crash.ReorderWB
	// BitFlip folds silent media bit flips into the persisted image.
	BitFlip = crash.BitFlip
)

// FaultModel configures one crash-time fault/persistency model: a kind
// plus its seed and optional shape parameters.
type FaultModel = crash.FaultModel

// FaultWrite is one deterministic word-level mutation a fault model
// applies to the persistent image at crash time.
type FaultWrite = crash.FaultWrite

// ParseFaultModel resolves a fault-model name ("failstop", "torn",
// "eadr", "reorder", "bitflip"; "" means failstop) to its FaultModel.
func ParseFaultModel(name string) (FaultModel, error) { return crash.ParseFaultModel(name) }

// FaultModelNames lists the recognized fault-model names in canonical
// order.
func FaultModelNames() []string { return crash.FaultModelNames() }

// Emulator injects crashes into a run at chosen execution points and
// enumerates a run's crash-point space (Profile).
type Emulator = crash.Emulator

// NewEmulator attaches a crash emulator to a machine.
func NewEmulator(m *Machine) *Emulator { return crash.NewEmulator(m) }

// CrashPoint names an injection site: an absolute memory-operation
// count or the n-th occurrence of a named program point.
type CrashPoint = crash.CrashPoint

// RunProfile is the crash-point space of one uninterrupted run.
type RunProfile = crash.RunProfile

// Addr is a simulated heap address.
type Addr = mem.Addr

// LineBytes is the cache-line granularity of the simulated machine.
const LineBytes = mem.LineSize

// Region is a named simulated heap region holding live data and its
// persistent NVM image.
type Region = mem.Region

// Workload program points that can be crashed at with
// Emulator.CrashAtTrigger.
const (
	// TriggerCGIterEnd fires at the end of each CG iteration.
	TriggerCGIterEnd = core.TriggerCGIterEnd
	// TriggerMMLoop1IterEnd fires after each submatrix multiplication.
	TriggerMMLoop1IterEnd = core.TriggerMMLoop1IterEnd
	// TriggerMCLookup fires after each Monte-Carlo lookup.
	TriggerMCLookup = core.TriggerMCLookup
	// TriggerStencilIterEnd fires at the end of each stencil sweep.
	TriggerStencilIterEnd = stencil.TriggerIterEnd
	// TriggerKVLogReqEnd fires at the end of each KV-store request.
	TriggerKVLogReqEnd = kvlog.TriggerReqEnd
)
