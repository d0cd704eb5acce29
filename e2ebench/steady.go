package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads: each metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload k times untraced, each in a fresh process
// with its own seed, and prints per end-to-end metric the median, the
// quartiles, the interquartile and full ranges as shares of the median,
// and the metric's bound from the BENCHMARK.json in the working directory.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs, one process each")
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" || *runs < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench steady: need --workload and --runs ≥ 1")
		return 2
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench steady: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench steady: %v\n", err)
		return 1
	}

	values := map[string][]float64{}
	units := map[string]string{}
	failedShare := map[string]bool{}
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench steady: run with seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench steady: run with seed %d: %v\n", s, err)
			return 1
		}
		failedShare[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}

	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %12s %12s %12s %8s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, n := range names {
		v := append([]float64(nil), values[n]...)
		sort.Float64s(v)
		med := quantile(v, 0.5)
		q1, q3 := quartiles(v)
		bound := "-"
		if b, ok := bounds[n]; ok {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
		}
		fmt.Printf("%-28s %12.5g %12.5g %12.5g %8.4f %8.4f %6s  %s\n", n, med, q1, q3,
			(q3-q1)/med, (v[len(v)-1]-v[0])/med, bound, units[n])
	}
	shares := make([]string, 0, len(failedShare))
	for s := range failedShare {
		shares = append(shares, s)
	}
	sort.Strings(shares)
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(shares, " "))
	return 0
}

// quartiles returns the first and third quartiles of sorted as Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}
