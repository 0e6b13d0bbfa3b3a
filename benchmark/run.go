package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// quick shrinks every workload to a smoke test: tiny scales, one
	// set-up and two measured passes. Its numbers mean nothing.
	quick bool
	// dir is the scratch directory, inside the checkout.
	dir string
}

// setups is how many times a run builds its inputs and warms up; the
// set-up time reported is the per-unit median over them.
func (c config) setups() int {
	if c.quick {
		return 1
	}
	return 3
}

// minPasses is the least number of measured passes, whatever -seconds.
func (c config) minPasses() int {
	if c.quick {
		return 2
	}
	return 3
}

// unit is one timed call into the system (or a fixed batch of small
// calls). A workload instance runs its units in order, once per pass.
type unit struct {
	name string
	// job marks a unit that is one job a user waits for (a campaign, an
	// experiment, a submission); job_ms averages over these.
	job bool
	// run executes the unit; it is the timed span. pass numbers the
	// executions of this instance from 0. tr is nil when the pass is not
	// traced; otherwise run records its child spans under parent.
	run func(pass int, tr *tracer, parent int) error
	// check verifies the outputs of the last run, outside the timed span.
	check func() error
	// ops is the number of operations the last run performed.
	ops func() int
}

// instance is a workload built from one seed.
type instance struct {
	units []*unit
	close func()
	// observe is called after every traced pass with the samples of its
	// units, so that the workload can turn what its units recorded into
	// per-layer observations. May be nil.
	observe func(samples []sample)
	// layerMetrics returns the per-layer metrics observed. May be nil.
	layerMetrics func() map[string]float64
}

// workloadDef names a workload and builds instances of it.
type workloadDef struct {
	name string
	why  string
	// build makes the inputs from cfg.seed. It is timed as part of set-up.
	build func(cfg config) (*instance, error)
}

// runResult is what one invocation reports.
type runResult struct {
	attempted, failed int
	passes            int     // measured passes
	rawOpsPerS        float64 // operations per second of raw wall time in the units
	errs              []string
	metrics           map[string]float64
}

func (r *runResult) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// runner executes the passes of one workload run.
type runner struct {
	cfg  config
	m    *meter
	tr   *tracer
	root int
	res  *runResult
}

// pass runs every unit of inst once and returns the samples and the
// operations performed. Every failed run or check counts its unit's
// operations as failed.
func (r *runner) pass(inst *instance, n int, name string, traced bool) (samples []sample, ops int) {
	var tr *tracer
	passSpan := -1
	if traced {
		tr = r.tr
		passSpan = tr.begin(name, "bench", r.root)
		defer tr.end(passSpan)
	}
	for _, u := range inst.units {
		var err error
		unitSpan := -1
		s := r.m.measure(func() {
			if tr != nil {
				unitSpan = tr.begin(u.name, "bench", passSpan)
			}
			err = u.run(n, tr, unitSpan)
			if tr != nil {
				tr.end(unitSpan)
			}
		})
		if err == nil {
			err = u.check()
		}
		uops := u.ops()
		r.res.attempted += uops
		if err != nil {
			r.res.fail(max(uops, 1), "%s pass %d: %v", u.name, n, err)
		}
		samples = append(samples, s)
		ops += uops
	}
	if traced && inst.observe != nil {
		inst.observe(samples)
	}
	return samples, ops
}

// runWorkload performs one benchmark run: set-ups (build inputs, one
// verifying warm-up pass each), then measured passes for cfg.seconds.
// With cfg.trace the measured passes alternate between traced and
// untraced, the per-layer metrics come from the traced ones, and the
// layer drivers run afterwards.
func runWorkload(def *workloadDef, cfg config) (*runResult, *tracer, error) {
	// One processor: with two, the collector's concurrent work runs on
	// the second virtual CPU, whose availability on a shared host varies
	// independently of the first; the calibration slice does not see
	// that, and ops_per_s of the same code then ranged over 8% where it
	// ranges over 3% with one (eight alternating runs of figures).
	runtime.GOMAXPROCS(1)
	res := &runResult{metrics: map[string]float64{}}
	r := &runner{cfg: cfg, m: newMeter(), res: res}
	if cfg.trace {
		r.tr = newTracer()
		r.root = r.tr.begin(def.name, "bench", -1)
	}

	// Set-up: per repetition, the input build is one more unit next to
	// the warm-up pass; setup_s sums the per-unit medians.
	var inst *instance
	var setupSamples [][]sample
	passNo := 0
	for rep := 0; rep < cfg.setups(); rep++ {
		if inst != nil {
			inst.close()
		}
		var err error
		build := r.m.measure(func() { inst, err = def.build(cfg) })
		if err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", def.name, err)
		}
		samples, _ := r.pass(inst, passNo, fmt.Sprintf("warm-up %d", rep), false)
		passNo++
		setupSamples = append(setupSamples, append([]sample{build}, samples...))
	}
	defer func() { inst.close() }()
	res.metrics["setup_s"] = sumMedianRatios(setupSamples) * refSliceS

	// Measured passes.
	r.m.resetCounters()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	slices0 := len(r.m.slices)
	var plain, traced [][]sample
	opsPerPass := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var passRSS []float64
	for n := 0; n < cfg.minPasses() || time.Now().Before(deadline); n++ {
		withTrace := cfg.trace && n%2 == 0
		resetPeakRSS()
		samples, ops := r.pass(inst, passNo, fmt.Sprintf("pass %d", n), withTrace)
		passRSS = append(passRSS, peakRSSMB())
		passNo++
		opsPerPass = ops
		if withTrace {
			traced = append(traced, samples)
		} else {
			plain = append(plain, samples)
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	all := append(append([][]sample(nil), plain...), traced...)
	res.passes = len(all)
	measuredOps := float64(opsPerPass * len(all))

	refPass := sumMedianRatios(all) * refSliceS
	jobs, jobRef := 0, 0.0
	for i, u := range inst.units {
		if u.job {
			jobs++
			jobRef += medianRatio(column(all, i)) * refSliceS
		}
	}
	res.metrics["ops_per_s"] = float64(opsPerPass) / refPass
	res.rawOpsPerS = measuredOps / r.m.rawWall.Seconds()
	res.metrics["job_ms"] = jobRef / float64(jobs) * 1e3
	res.metrics["alloc_kb_per_op"] = float64(r.m.allocB) / 1024 / measuredOps
	// The peak of a pass is what the workload needs plus how far the heap
	// overshot before a collection finished; the smallest over the passes
	// is the one with the least of the second.
	res.metrics["peak_rss_mb"] = quantile(passRSS, 0)

	if cfg.trace {
		lm := res.metrics
		if inst.layerMetrics != nil {
			for k, v := range inst.layerMetrics() {
				lm[k] = v
			}
		}
		lm["go.mallocs_per_op"] = float64(r.m.mallocs) / measuredOps
		lm["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		lm["go.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		lm["go.heap_peak_mb"] = float64(r.m.heapPeak) / (1 << 20)
		lm["bench.raw_wall_s"] = r.m.rawWall.Seconds()
		var sl []float64
		for _, d := range r.m.slices[slices0:] {
			sl = append(sl, float64(d)/1e6)
		}
		lm["bench.cal_slice_ms_min"] = quantile(sl, 0)
		lm["bench.cal_slice_ms_p50"] = median(sl)
		lm["bench.cal_slice_ms_max"] = quantile(sl, 1)
		cvMax := 0.0
		for i := range inst.units {
			cvMax = max(cvMax, cv(column(all, i)))
		}
		lm["bench.unit_ratio_cv_max"] = cvMax
		// Overhead of tracing: traced and untraced passes alternate, so
		// both see the same host conditions.
		if len(plain) > 0 && len(traced) > 0 {
			lm["bench.trace_overhead_frac"] = sumMedianRatios(traced)/sumMedianRatios(plain) - 1
		}
		runLayerDrivers(r, lm)
		r.tr.end(r.root)
	}
	for name, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return res, r.tr, nil
}

// column returns unit i's sample from every pass.
func column(passes [][]sample, i int) []sample {
	out := make([]sample, len(passes))
	for p := range passes {
		out[p] = passes[p][i]
	}
	return out
}

// sumMedianRatios is the time of one pass in calibration slices: the sum
// over units of the unit's median ratio over the passes.
func sumMedianRatios(passes [][]sample) float64 {
	if len(passes) == 0 {
		return 0
	}
	sum := 0.0
	for i := range passes[0] {
		sum += medianRatio(column(passes, i))
	}
	return sum
}

// resetPeakRSS returns the heap's free memory to the system and resets
// the kernel's record of the peak resident set size to what is resident
// now, so that the next peakRSSMB reports the peak of one pass and
// peak_rss_mb can be taken over passes: the peak of the whole process
// depends on when the collector happened to run once, and reads 55 or
// 66 MB on the same inputs. Where /proc/self/clear_refs cannot be
// written, every pass reports the peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the peak resident set size (VmHWM) since the last
// reset. It includes the 16 MiB of calibration buffers.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
