// Command e2ebench times the system end to end, in process, through the
// entry points a `tomo serve` request and a closed-loop epoch use, and
// checks every output against figures it computes itself.
//
//	e2ebench --workload select-cold --seed 1 --seconds 10 --trace 0
//	e2ebench steady --workload ring-mixed --runs 10
//
// A run prints a host line, an info line and, last, one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 re-runs the workload with timing wrappers
// at the layer boundaries, reports the per-layer split and writes the
// spans to .bench_build/spans/. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"robusttomo/internal/engine"
	"robusttomo/internal/service"
)

// setups is how many times a run sets its workload up; setup_s is their
// median, and the last one is measured.
const setups = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// instance is one set-up workload.
type instance interface {
	// round runs the next whole round of operations, reporting each
	// through r.op. It returns false when the workload can run no more.
	round(r *runState) (bool, error)
	// trace switches the timing wrappers on for the rest of the run.
	trace(tr *tracer)
	// layers returns the per-layer metrics from the traced phase and the
	// names of those that partition one operation: their per-op means add
	// up to the traced per-op mean, up to bench.unattributed_ms.
	layers(tr *tracer, ops int) (map[string]metric, []string)
	// verify checks every operation run so far and returns the indices of
	// those that failed a check, with one line per failure.
	verify() (map[int]bool, []string)
	close()
}

type workload struct {
	name string
	// prepare builds, once and untimed, the inputs that do not depend on
	// a set-up: the topology, instance pools and the request generator.
	// It returns the set-up, which starts the program's parts and warms
	// them up; run times it.
	prepare func(o options) (func() (instance, error), error)
}

var workloads = []workload{
	{"select-cold", prepareSelectCold},
	{"ring-mixed", prepareRingMixed},
	{"loop-learn", prepareLoopLearn},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runState collects the operations of one phase.
type runState struct {
	tr        *tracer
	nextOp    int       // index of the next operation over the whole run
	latencies []float64 // ms, this phase
	failed    map[int]bool
	notes     []string
	// excluded and excludedCPU add up the benchmark's own work between
	// operations (output checks, traced replays), which the measured
	// phase leaves out.
	excluded      time.Duration
	excludedCPU   time.Duration
	excludedAlloc uint64 // heap bytes
}

// op records one finished operation's latency and whether it failed on
// the spot (an error returned by the program).
func (r *runState) op(lat time.Duration, err error) {
	r.latencies = append(r.latencies, float64(lat)/1e6)
	if err != nil {
		r.fail(r.nextOp, err)
	}
	r.nextOp++
}

// fail marks an operation failed.
func (r *runState) fail(op int, err error) {
	r.failed[op] = true
	r.notes = append(r.notes, fmt.Sprintf("op %d: %v", op, err))
}

// harness runs the benchmark's own work between operations — generating
// the next request, and checking an output as soon as it is returned,
// which keeps memory flat over a run — and takes its wall and CPU time
// out of the measured phase.
func (r *runState) harness(f func()) {
	w0, c0, a0 := time.Now(), cpuTime(), allocBytes()
	f()
	r.excludedAlloc += allocBytes() - a0
	r.excludedCPU += cpuTime() - c0
	r.excluded += time.Since(w0)
}

// allocBytes is the heap allocated since the process started.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: select-cold, ring-mixed or loop-learn")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s) and --seconds ≥ 1\n", workloadNames())
		return 2
	}
	printLine("host", hostBlock())

	res, err := run(*w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workload, o options) (result, error) {
	setup, err := w.prepare(o)
	if err != nil {
		return result{}, fmt.Errorf("preparing %s: %w", w.name, err)
	}
	var inst instance
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		start := time.Now()
		next, err := setup()
		if err != nil {
			return result{}, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if inst != nil {
			inst.close()
			// Return the replaced set-up's memory now, so that the peak
			// resident set does not depend on when the collector would
			// have run.
			debug.FreeOSMemory()
		}
		inst = next
	}
	defer inst.close()

	if o.trace {
		return runTraced(inst, o)
	}
	r := &runState{failed: map[int]bool{}}
	ph, err := measure(inst, r, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return result{}, err
	}
	lat := append([]float64(nil), r.latencies...)
	sort.Float64s(lat)
	printLine("info", map[string]any{
		"samples": len(lat), "latency_p99_ms": quantile(lat, 0.99),
		"setup_runs_s": setupS, "exhausted": ph.exhausted, "chunk_p50_ms": chunkMedians(r.latencies, 5),
	})
	m := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"ops_per_s":      {float64(ph.ops) / ph.wall.Seconds(), "1/s"},
		"latency_p50_ms": {quantile(lat, 0.50), "ms"},
		"latency_p90_ms": {quantile(lat, 0.90), "ms"},
		"cpu_ms_per_op":  {ph.cpu.Seconds() * 1e3 / float64(ph.ops), "ms"},
		"peak_rss_mb":    {peakRSSMiB(), "MiB"},
	}
	return finish(inst, r, m), nil
}

// runTraced measures the first half of the run untraced, for the
// overhead baseline and the allocation count, and the second half with
// the timing wrappers on.
func runTraced(inst instance, o options) (result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	r := &runState{failed: map[int]bool{}}
	alloc0 := allocBytes()
	plain, err := measure(inst, r, half)
	if err != nil {
		return result{}, err
	}
	alloc := allocBytes() - alloc0 - r.excludedAlloc
	plainMean := mean(r.latencies)

	tr := newTracer()
	inst.trace(tr)
	r.tr = tr
	r.latencies = r.latencies[:0]
	traced, err := measure(inst, r, half)
	if err != nil {
		return result{}, err
	}
	m, covering := inst.layers(tr, traced.ops)
	for _, name := range perLayer {
		if _, ok := m[name]; !ok {
			// The workload does not pass through this layer.
			m[name] = metric{0, perLayerUnit(name)}
		}
	}
	m["go.alloc_kb_per_op"] = metric{float64(alloc) / 1024 / float64(plain.ops), "KiB"}
	tracedMean := mean(r.latencies)
	covered := 0.0
	for _, name := range covering {
		covered += m[name].Value
	}
	m["bench.unattributed_ms"] = metric{tracedMean - covered, "ms"}
	m["bench.trace_overhead_ms"] = metric{tracedMean - plainMean, "ms"}
	printLine("info", map[string]any{
		"untraced_ops": plain.ops, "traced_ops": traced.ops,
		"untraced_mean_ms": plainMean, "traced_mean_ms": tracedMean,
		"covered_share": covered / tracedMean, "covering_layers": covering,
	})
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: spans not written: %v\n", err)
	}
	return finish(inst, r, m), nil
}

// perLayer lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A workload reports 0 for a layer it does not
// pass through.
var perLayer = []string{
	"service.decode_ms", "service.submit_ms", "cluster.submit_ms", "service.wait_ms", "service.encode_ms",
	"selection.normalize_ms", "loss.normalize_ms", "selection.run_ms", "loss.run_ms",
	"tomo.matrix_build_ms", "er.panel_build_ms", "selection.greedy_ms",
	"er.gain_ms", "er.add_ms", "er.gain_evals",
	"cluster.peer_call_ms", "cluster.peer_calls_per_op", "cluster.peer_bytes_per_op",
	"cluster.forwards_per_op", "cluster.cache_hits_per_op", "service.executions_per_key",
	"agent.collect_ms", "agent.probes_per_epoch",
	"bandit.select_ms", "bandit.observe_ms", "tomo.rank_ms", "tomo.identify_ms", "diagnose.localize_ms",
	"go.alloc_kb_per_op", "bench.unattributed_ms", "bench.trace_overhead_ms",
}

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "bytes"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KiB"
	default:
		return "count"
	}
}

type phase struct {
	ops       int
	wall      time.Duration
	cpu       time.Duration
	exhausted bool
}

// measure runs whole rounds until d of measured time has passed or the
// workload can run no more. Measured time is wall time less the
// harness's.
func measure(inst instance, r *runState, d time.Duration) (phase, error) {
	first := r.nextOp
	ex0, exCPU0 := r.excluded, r.excludedCPU
	cpu0 := cpuTime()
	start := time.Now()
	var ph phase
	for time.Since(start)-(r.excluded-ex0) < d {
		more, err := inst.round(r)
		if err != nil {
			return ph, err
		}
		if !more {
			ph.exhausted = true
			break
		}
	}
	ph.wall = time.Since(start) - (r.excluded - ex0)
	ph.cpu = cpuTime() - cpu0 - (r.excludedCPU - exCPU0)
	ph.ops = r.nextOp - first
	if ph.ops == 0 {
		return ph, errors.New("no operation completed")
	}
	return ph, nil
}

func finish(inst instance, r *runState, m map[string]metric) result {
	failed, notes := inst.verify()
	for op := range r.failed {
		failed[op] = true
	}
	notes = append(r.notes, notes...)
	for i, n := range notes {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "check: … %d more\n", len(notes)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "check: %s\n", n)
	}
	return result{Correct: len(failed) == 0, Attempted: r.nextOp, Failed: len(failed), Metrics: m}
}

func printLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s: %s\n", tag, b)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func hostBlock() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": model, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set (getrusage reports
// KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// decodeSpec decodes a job body as the HTTP handler does: unknown fields
// are rejected.
func decodeSpec(body []byte) (service.JobSpec, error) {
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decode job spec: %w", err)
	}
	return spec, nil
}

// engineSpec is the engine view of a job spec, as the service resolves
// it.
func engineSpec(spec service.JobSpec) engine.Spec {
	name := spec.Engine
	if name == "" {
		name = "selection"
	}
	return engine.Spec{
		Engine: name, Params: spec.Params, Links: spec.Links, Paths: spec.Paths,
		Probs: spec.Probs, Costs: spec.Costs, Budget: spec.Budget,
		Algorithm: spec.Algorithm, MCRuns: spec.MCRuns, Seed: spec.Seed,
	}
}

// chunkMedians splits the latencies, in run order, into n equal chunks
// and returns each chunk's median: drift within a run shows here.
func chunkMedians(lat []float64, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c := lat[i*len(lat)/n : (i+1)*len(lat)/n]
		if len(c) > 0 {
			out = append(out, median(c))
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// splitmix64 derives independent per-item seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
