package harness

import (
	"adcc/internal/cache"
	"adcc/internal/crash"
	"adcc/internal/engine"
)

// llcConfig builds the standard LLC configuration used by the
// experiment drivers. The paper's Xeon E5606 has an 8 MB LLC; the
// reproduction scales problem sizes down 4-12x and the LLC with them so
// that working-set-to-cache ratios are preserved (ARCHITECTURE.md,
// "Scaling").
func llcConfig(sizeBytes, assoc int) cache.Config {
	return cache.Config{
		SizeBytes:         sizeBytes,
		LineBytes:         64,
		Assoc:             assoc,
		HitNS:             4,
		FlushChargesClean: true,
		PrefetchStreams:   16,
	}
}

// newMachine builds a platform of the given kind with the given LLC and
// the paper's 32 MB DRAM cache on heterogeneous systems.
func newMachine(kind crash.SystemKind, llcBytes, assoc int) *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: kind,
		Cache:  llcConfig(llcBytes, assoc),
	})
}

// Case labels for the seven-case comparison (paper §III-A), aliased to
// the engine's scheme-registry names so table rows and registry lookups
// cannot drift apart.
const (
	caseNative     = engine.SchemeNative
	caseCkptHDD    = engine.SchemeCkptHDD
	caseCkptNVM    = engine.SchemeCkptNVM
	caseCkptHetero = engine.SchemeCkptHetero
	casePMEM       = engine.SchemePMEM
	caseAlgoNVM    = engine.SchemeAlgoNVM
	caseAlgoHetero = engine.SchemeAlgoHetero
)

// normalize computes t/base as a ratio string-friendly float.
func normalize(t, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(t) / float64(base)
}
