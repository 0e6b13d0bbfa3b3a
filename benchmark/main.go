// Command benchmark is the repository's host-performance benchmark: it
// drives the system through its public API on four workloads, times
// every call against bracketing calibration slices, checks the outputs,
// and prints every metric by name with its unit, then one JSON object.
//
//	go run . -workload replay-failstop -seed 1 -seconds 20 -trace 0
//
// From the root of the repository use `bash benchmark/run.sh` with the
// same flags: it builds into .bench_build and runs from there. A metric
// run (-trace 0) prints the end-to-end metrics; a traced run (-trace 1)
// prints the per-layer metrics and writes the spans it kept in memory.
// README.md in this directory explains the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"adcc/pkg/adcc"
)

// workloads are the benchmark's four workloads. Each stresses other
// layers; see README.md for which layer should move which metric where.
var workloads = []*workloadDef{
	{
		name: "replay-failstop",
		why:  "the campaign path users run (crashsim -campaign -replay): profile and record runs, copy-on-write capture with the version fast path, restore, recover and resume",
		build: func(cfg config) (*instance, error) {
			return buildReplay(scaleSpecs(cfg, []adcc.CampaignSpec{
				{Workloads: []string{"cg"}, Scale: 0.5},
				{Workloads: []string{"stencil"}, Scale: 0.5},
				{Workloads: []string{"kvlog"}, Scale: 1.0},
				{Workloads: []string{"mm"}, Scale: 0.5},
			}))
		},
	},
	{
		name: "replay-fault",
		why:  "the same engine under fault models: no version fast path, an overlay computed and hashed per crash point, several times the host time per injection",
		build: func(cfg config) (*instance, error) {
			return buildReplay(scaleSpecs(cfg, []adcc.CampaignSpec{
				{Workloads: []string{"cg"}, Scale: 0.25, FaultModels: []string{"torn"}},
				{Workloads: []string{"stencil"}, Scale: 0.25, FaultModels: []string{"torn", "reorder"}},
				// No bit flips in a campaign unit: a flipped length word makes
				// recovery allocate by it, up to a fatal out-of-memory error
				// (see README.md, "Excluded, and why").
				{Workloads: []string{"kvlog"}, Scale: 0.25, FaultModels: []string{"torn", "reorder", "eadr"}},
				{Workloads: []string{"mm"}, Scale: 0.25, FaultModels: []string{"torn", "reorder"}},
			}))
		},
	},
	{
		name:  "figures",
		why:   "the paper-reproduction path: crash-free simulation through cache, memory, checkpoint and transaction models; bypasses crash capture, the campaign and the service",
		build: buildFigures,
	},
	{
		name:  "service",
		why:   "adccd behind HTTP driven by adccclient: fresh submissions beside reads of the report, store, query and event endpoints; the campaign share is small",
		build: buildService,
	},
}

// scaleSpecs seeds the campaign specs from the run's seed, and shrinks
// them for a smoke run.
func scaleSpecs(cfg config, specs []adcc.CampaignSpec) []adcc.CampaignSpec {
	for i := range specs {
		specs[i].Seed = cfg.seed
		if cfg.quick {
			specs[i].Scale = 0.02
		}
	}
	return specs
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// parseSeed turns the -seed argument into the seed of the inputs. A
// decimal int64 is taken as it is; anything else (a number that does not
// fit, a digest) is hashed, so that no seed a caller chooses is refused
// and the same argument always gives the same inputs.
func parseSeed(arg string) int64 {
	if n, err := strconv.ParseInt(arg, 10, 64); err == nil {
		return n
	}
	h := fnv.New64a()
	h.Write([]byte(arg))
	return int64(h.Sum64() >> 1)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: replay-failstop, replay-fault, figures or service")
	seed := fs.String("seed", "1", "seed the inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the measured passes run")
	trace := fs.Int("trace", 0, "0: metric run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run writes its spans to (default <dir>/trace-<workload>.json)")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke run: tiny scales and few passes; the numbers mean nothing")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory, inside the checkout")
	stability := fs.Int("stability", 0, "run every workload 2 x N times and compare the two sets against the declared bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	cfg.seed = parseSeed(*seed)
	if *stability > 0 {
		return runStability(*stability, cfg, stdout, stderr)
	}
	def := findWorkload(cfg.workload)
	if def == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; the workloads are:\n", cfg.workload)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-16s %s\n", w.name, w.why)
		}
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res, tr, err := runWorkload(def, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if tr != nil {
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(cfg.dir, "trace-"+def.name+".json")
		}
		if err := tr.write(path, def.name, cfg.seed); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "benchmark: FAILED CHECK:", e)
	}
	printResult(stdout, def, cfg, res)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the run's metrics by name with their units — the
// end-to-end ones for a metric run, the per-layer ones for a traced run
// — and then the result object.
func printResult(w io.Writer, def *workloadDef, cfg config, res *runResult) {
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
	}
	out := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s seed %d: %d measured passes, %d operations attempted, %d failed\n",
		def.name, cfg.seed, res.passes, res.attempted, res.failed)
	fmt.Fprintf(w, "(raw wall, informational: %.6g operations per second)\n", res.rawOpsPerS)
	for _, d := range decls {
		v := res.metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, _ := json.Marshal(out) // a map of floats and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}
