package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// refSliceS is the wall time of one calibration slice on a quiet host,
// frozen here so that "reference seconds" keep one meaning across
// commits: a time-valued metric is the measured wall time divided by the
// wall time of the slices that bracket it, times this constant. It was
// the tenth percentile of 200 slices on the 2-vCPU host the benchmark
// was written on; changing it (or the slice) re-bases every time-valued
// metric.
const refSliceS = 0.0550

const (
	calWords    = 1 << 20 // 8 MiB of uint64 per buffer, 4x the host's L2
	calMemSteps = 10_500_000
	calCPUSteps = 8_500_000
)

// calibrator runs the calibration slice: a fixed amount of work that
// touches no repository code, about two thirds of its time memory-bound
// (xorshift-addressed read-modify-write over 8 MiB, then a copy into a
// second 8 MiB buffer) and one third compute-bound (integer and float
// arithmetic on L1-resident values). The simulator slows down under a
// neighbour's load more than arithmetic does and about as much as the
// memory part: in three batches of runs of figures on a busy host,
// weighting the memory part two to three times the arithmetic gave the
// steadiest ratios (standard deviation 1.2% against 1.6% at equal
// weights in the first). The two buffers are the constant 16 MiB that
// peak_rss_mb includes.
type calibrator struct {
	a, b []uint64
	x    uint64
	acc  float64
}

func newCalibrator() *calibrator {
	c := &calibrator{a: make([]uint64, calWords), b: make([]uint64, calWords), x: 0x9e3779b97f4a7c15}
	for i := range c.a {
		c.a[i] = uint64(i) * 0x2545f4914f6cdd1d
	}
	copy(c.b, c.a)
	return c
}

// slice runs one calibration slice and returns its wall time.
func (c *calibrator) slice() time.Duration {
	start := time.Now()
	x := c.x
	a := c.a
	for i := 0; i < calMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[x&(calWords-1)] += x
	}
	copy(c.b, a)
	c.x = x
	var l1 [64]uint64
	f := 1.000001
	y := x | 1
	for i := 0; i < calCPUSteps; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		l1[i&63] ^= y >> 17
		f = f*1.0000001 + float64(l1[(i+7)&63]&3)*1e-9
	}
	c.acc += f + float64(l1[5]&1)
	return time.Since(start)
}

// meter times units with the ratio estimator: every unit is bracketed by
// two calibration slices and reported as wall / mean(slice before, slice
// after). Consecutive units share the slice between them; a slice older
// than staleAfter is not reused, so checks and set-up between units
// cannot separate a unit from its bracket.
type meter struct {
	cal      *calibrator
	last     time.Duration
	lastEnd  time.Time
	slices   []time.Duration
	rawWall  time.Duration
	mallocs  uint64
	allocB   uint64
	heapPeak uint64
}

const staleAfter = 40 * time.Millisecond

func newMeter() *meter { return &meter{cal: newCalibrator()} }

func (m *meter) takeSlice() time.Duration {
	d := m.cal.slice()
	m.last, m.lastEnd = d, time.Now()
	m.slices = append(m.slices, d)
	return d
}

// sample is one timed unit execution.
type sample struct {
	wall  time.Duration
	slice time.Duration // mean of the two bracketing slices
}

// ratio is the unit's wall time in calibration slices.
func (s sample) ratio() float64 { return float64(s.wall) / float64(s.slice) }

// refSeconds converts a duration measured inside the unit (the whole
// unit, or a part of it timed by the caller) to reference seconds.
func (s sample) refSeconds(d time.Duration) float64 {
	return float64(d) / float64(s.slice) * refSliceS
}

// measure times fn. The garbage collection and the memory statistics
// are outside the timed span.
func (m *meter) measure(fn func()) sample {
	before := m.last
	if before == 0 || time.Since(m.lastEnd) > staleAfter {
		before = m.takeSlice()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	after := m.takeSlice()
	m.rawWall += wall
	m.mallocs += ms1.Mallocs - ms0.Mallocs
	m.allocB += ms1.TotalAlloc - ms0.TotalAlloc
	if ms1.HeapInuse > m.heapPeak {
		m.heapPeak = ms1.HeapInuse
	}
	return sample{wall: wall, slice: (before + after) / 2}
}

// resetCounters clears the accumulated allocation, heap and wall
// counters, so that they cover the measured passes only.
func (m *meter) resetCounters() {
	m.rawWall, m.mallocs, m.allocB, m.heapPeak = 0, 0, 0, 0
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; it does not modify v. An empty v gives 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianRatio is the estimator behind every time-valued metric: the
// median over passes of one unit's wall/slice ratio.
func medianRatio(samples []sample) float64 {
	r := make([]float64, len(samples))
	for i, s := range samples {
		r[i] = s.ratio()
	}
	return median(r)
}

// cv is the coefficient of variation of the samples' ratios.
func cv(samples []sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	var sum, sq float64
	for _, s := range samples {
		sum += s.ratio()
	}
	mean := sum / float64(len(samples))
	for _, s := range samples {
		d := s.ratio() - mean
		sq += d * d
	}
	return math.Sqrt(sq/float64(len(samples)-1)) / mean
}
