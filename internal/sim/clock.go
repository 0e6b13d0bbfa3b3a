// Package sim provides the simulated-time substrate used by every other
// component of the reproduction: a deterministic nanosecond clock, a CPU
// compute-cost model, and named statistic counters.
//
// All performance results in the paper are relative execution times
// measured on an emulated NVM platform (Quartz). This package replaces the
// wall clock of that platform with a deterministic accumulator that the
// cache simulator, device models, and algorithm kernels advance explicitly.
package sim

import "fmt"

// Clock is a deterministic simulated-time accumulator measured in
// nanoseconds. The zero value is a clock at time zero, ready to use.
//
// Clock is not safe for concurrent use; the crash emulator runs a single
// simulated hardware thread, matching the paper's single-process setting.
type Clock struct {
	ns int64
}

// Now returns the current simulated time in nanoseconds.
func (c *Clock) Now() int64 { return c.ns }

// Advance moves simulated time forward by d nanoseconds. Negative d is a
// programming error and panics.
func (c *Clock) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %d", d))
	}
	c.ns += d
}

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.ns = 0 }

// Since returns the elapsed simulated nanoseconds since the mark.
func (c *Clock) Since(mark int64) int64 { return c.ns - mark }

// CPU models the compute (non-memory) cost of the simulated processor.
// The paper's testbed is a 2.13 GHz Xeon E5606; OpNS approximates the
// amortized cost of one floating-point operation including superscalar
// issue, i.e. substantially less than one cycle per flop is possible.
type CPU struct {
	Clock *Clock
	// OpNS is the simulated cost, in nanoseconds, of one arithmetic
	// operation. Fractional costs accumulate exactly via a remainder.
	OpNS float64

	remainder float64
}

// DefaultCPU returns a CPU model approximating the paper's 2.13 GHz Xeon
// E5606 (two flops per cycle sustained on scalar SSE code).
func DefaultCPU(c *Clock) *CPU {
	return &CPU{Clock: c, OpNS: 0.25}
}

// SetRemainder forces the fractional-nanosecond carry accumulated by
// Compute; the crash protocol clears it.
func (p *CPU) SetRemainder(r float64) { p.remainder = r }

// Remainder returns the fractional-nanosecond carry the next Compute
// adds to its cost.
func (p *CPU) Remainder() float64 { return p.remainder }

// Compute charges the clock for ops arithmetic operations.
func (p *CPU) Compute(ops int64) {
	if ops <= 0 {
		return
	}
	t := float64(ops)*p.OpNS + p.remainder
	whole := int64(t)
	p.remainder = t - float64(whole)
	p.Clock.Advance(whole)
}
