package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// runStability re-executes this binary for two alternating sets of n
// metric runs per workload, every run on another seed, and compares the
// sets against the bounds the benchmark declares: a metric passes when
// the two medians differ by no more than its bound, the interquartile
// spread of each set and of both together stays within the bound, and no
// single run is further than the bound from the median of all runs.
func runStability(n int, cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// values[workload][metric][set] holds one value per run.
	values := map[string]map[string][2][]float64{}
	for _, w := range workloads {
		values[w.name] = map[string][2][]float64{}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				seed := cfg.seed + int64(2*i+set)
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-dir", cfg.dir,
					"-quick="+strconv.FormatBool(cfg.quick))
				cmd.Stderr = stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				line, err := lastResult(out)
				if err != nil || !line.Correct {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: no correct result (%v)\n", w.name, seed, err)
					return 1
				}
				line.Metrics[rawName] = metricValue{Value: rawOpsPerS(out)}
				for name, mv := range line.Metrics {
					v := values[w.name][name]
					v[set] = append(v[set], mv.Value)
					values[w.name][name] = v
				}
				fmt.Fprintf(stderr, "run %d/%d set %c %s seed %d done\n", i+1, n, 'A'+set, w.name, seed)
			}
		}
	}

	fmt.Fprintf(stdout, "stability: 2 sets x %d runs per workload, -seconds %g, seeds %d..%d\n", n, cfg.seconds, cfg.seed, cfg.seed+int64(2*n-1))
	fmt.Fprintf(stdout, "%-16s %-16s %12s %12s %8s %8s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "shift", "iqr A", "iqr B", "iqr A+B", "max dev", "bound", "verdict")
	failed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.name][d.name]
			a, b := v[0], v[1]
			all := append(append([]float64(nil), a...), b...)
			pooled := median(all)
			shift := math.Abs(median(b)-median(a)) / median(a)
			maxDev := 0.0
			for _, x := range all {
				maxDev = max(maxDev, math.Abs(x-pooled)/pooled)
			}
			verdict := "PASS"
			if shift > d.bound || max(iqrSpread(a), iqrSpread(b), iqrSpread(all)) > d.bound || maxDev > d.bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %12.5g %12.5g %8.4f %8.4f %8.4f %8.4f %8.4f %6.2f  %s\n",
				w.name, d.name, median(a), median(b), shift, iqrSpread(a), iqrSpread(b), iqrSpread(all), maxDev, d.bound, verdict)
		}
	}
	// Raw wall time beside the estimator, and every run made.
	fmt.Fprintf(stdout, "\ninformational, not judged: operations per second of raw wall time against ops_per_s (reference seconds)\n")
	for _, w := range workloads {
		for _, name := range []string{rawName, "ops_per_s"} {
			v := values[w.name][name]
			all := append(append([]float64(nil), v[0]...), v[1]...)
			fmt.Fprintf(stdout, "%-16s %-18s iqr A+B %.4f  range %.4f\n", w.name, name, iqrSpread(all), (quantile(all, 1)-quantile(all, 0))/median(all))
		}
	}
	fmt.Fprintf(stdout, "\nevery run, in the order made (A1 B1 A2 B2 ...)\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.name][d.name]
			fmt.Fprintf(stdout, "%-16s %-16s", w.name, d.name)
			for i := range v[0] {
				fmt.Fprintf(stdout, " %.5g %.5g", v[0][i], v[1][i])
			}
			fmt.Fprintln(stdout)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "stability: %d of %d pairings FAIL\n", failed, len(workloads)*len(endToEnd))
		return 1
	}
	fmt.Fprintf(stdout, "stability: all %d pairings PASS\n", len(workloads)*len(endToEnd))
	return 0
}

// rawName is the pseudo-metric the stability report keeps raw wall
// throughput under.
const rawName = "raw ops per wall s"

var rawLineRE = regexp.MustCompile(`raw wall, informational: ([0-9.e+]+) operations per second`)

// rawOpsPerS reads the informational raw-wall line of a run's output.
func rawOpsPerS(out []byte) float64 {
	m := rawLineRE.FindSubmatch(out)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(string(m[1]), 64)
	return v
}

// lastResult decodes the result object on the last line of a run's
// standard output.
func lastResult(out []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	err := json.Unmarshal(last, &line)
	return line, err
}

// iqrSpread is the distance between the first and the third quartile of
// v as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), which is
// how the benchmark is judged.
func iqrSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quart(3) - quart(1)) / median(s)
}
