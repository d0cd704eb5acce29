package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"robusttomo/internal/engine"
	"robusttomo/internal/er"
	"robusttomo/internal/experiments"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// select-cold: unique MonteRoMe jobs through one service.Service.
const (
	coldCandidates = 150
	coldMCRuns     = 1000
	// coldBudget is the budget as a multiple of the SelectPath basis cost.
	coldBudget           = 1.0
	coldExpectedFailures = 3
	coldWarmup           = 8
	// The first coldERSample jobs of a run have their Objective checked
	// against an expected-rank estimate of the benchmark's own, from
	// coldERScenarios fresh scenarios: the two must agree within coldERZ
	// standard errors of their difference.
	coldERSample    = 3
	coldERScenarios = 2000
	coldERZ         = 6
)

// mcStream is the scenario stream the selection engine seeds its Monte
// Carlo panel with; the traced replay must use the same one, and checks
// that it reproduces the service's selection.
const mcStream = 0x5e1ec7

// selJob is one generated selection request: its HTTP body and the
// instance the checks read.
type selJob struct {
	body []byte
	spec service.JobSpec
}

// placementSeed fixes the monitor placements (and so the candidate paths
// and their costs) of every workload: placement i is the same in every
// run, so runs with different seeds meet the same mix of instance shapes,
// and the seed draws what varies between runs — failure models, Monte
// Carlo seeds, link metrics and probes.
const placementSeed = 1755

// placement builds monitor placement `set` of the topology with that many
// candidate paths.
func placement(tp *topo.Topology, candidates, set int) (*experiments.Instance, error) {
	return experiments.BuildInstance(experiments.Workload{Loaded: tp, CandidatePaths: candidates},
		experiments.Scale{ExpectedFailures: 1, Seed: placementSeed}, set)
}

// buildSelection generates a selection job on placement `set` with a
// failure model drawn from modelSeed.
func buildSelection(tp *topo.Topology, candidates, set int, modelSeed uint64, expFailures float64, alg string, runs int, mcSeed uint64, budget float64) (selJob, error) {
	in, err := placement(tp, candidates, set)
	if err != nil {
		return selJob{}, err
	}
	model, err := failure.NewModel(failure.Config{Links: in.PM.NumLinks(), ExpectedFailures: expFailures, Seed: modelSeed})
	if err != nil {
		return selJob{}, err
	}
	spec := service.JobSpec{
		Algorithm: alg,
		Links:     in.PM.NumLinks(),
		Paths:     make([][]int, in.PM.NumPaths()),
		Probs:     model.Probs(),
		Costs:     in.Costs,
		MCRuns:    runs,
		Seed:      mcSeed,
	}
	for i := range spec.Paths {
		spec.Paths[i] = append([]int(nil), in.PM.EdgesOf(i)...)
	}
	spec.Budget = budget * basisCost(in.PM, in.Costs)
	body, err := json.Marshal(spec)
	if err != nil {
		return selJob{}, err
	}
	return selJob{body: body, spec: spec}, nil
}

// basisCost is the probing cost of the SelectPath basis in path order.
func basisCost(pm *tomo.PathMatrix, costs []float64) float64 {
	order := make([]int, pm.NumPaths())
	for i := range order {
		order[i] = i
	}
	total := 0.0
	for _, q := range pm.SelectBasisIndices(order) {
		total += costs[q]
	}
	return total
}

// jobAPI is the job surface shared by service.Service and cluster.Node.
type jobAPI interface {
	Submit(spec service.JobSpec) (service.SubmitOutcome, error)
	Wait(ctx context.Context, id string) (service.JobStatus, error)
	Result(id string) (engine.Result, error)
}

// waitLimit bounds one job's wait; no job here comes near it.
const waitLimit = time.Minute

// serveJob takes one job from body bytes to result bytes: decode as the
// HTTP handler does, submit, wait, fetch and encode the result. With a
// tracer each step is a span under the operation's span.
func serveJob(api jobAPI, body []byte, tr *tracer, opID int32, op int, submitSpan string) ([]byte, error) {
	o := int64(op)
	t0 := time.Now()
	spec, err := decodeSpec(body)
	t1 := time.Now()
	tr.record(0, "service.decode", opID, o, t0, t1)
	if err != nil {
		return nil, err
	}
	out, err := api.Submit(spec)
	t2 := time.Now()
	tr.record(0, submitSpan, opID, o, t1, t2)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	st, err := api.Wait(ctx, out.ID)
	cancel()
	t3 := time.Now()
	tr.record(0, "service.wait", opID, o, t2, t3)
	if err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	res, err := api.Result(out.ID)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	b, err := json.Marshal(res)
	tr.record(0, "service.encode", opID, o, t3, time.Now())
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return b, nil
}

type selectCold struct {
	svc *service.Service
	gen func(i int) (selJob, error)
	// next is the index of the next job; jobs below coldWarmup warm the
	// service up.
	next int
	// sample holds the results of the first coldERSample operations for
	// the expected-rank check made after the measured phase.
	sample []coldOp
	// replays counts the traced replays, the denominator of the split.
	replays int
}

type coldOp struct {
	op     int
	spec   service.JobSpec
	result []byte
}

// prepareSelectCold loads the topology and generates the warm-up jobs;
// every later job is generated just before it is sent. Job i is the same
// for a given seed: its own monitor set, failure model and Monte Carlo
// seed.
func prepareSelectCold(o options) (func() (instance, error), error) {
	tp, err := topo.Preset(topo.AS1755)
	if err != nil {
		return nil, err
	}
	gen := func(i int) (selJob, error) {
		seed := splitmix64(o.seed<<20 + uint64(i))
		return buildSelection(tp, coldCandidates, i, seed, coldExpectedFailures,
			selection.AlgMonteRoMe, coldMCRuns, splitmix64(seed), coldBudget)
	}
	warm := make([]selJob, coldWarmup)
	for i := range warm {
		if warm[i], err = gen(i); err != nil {
			return nil, err
		}
	}
	return func() (instance, error) {
		w := &selectCold{svc: service.New(service.Config{}), gen: gen}
		for ; w.next < coldWarmup; w.next++ {
			if _, err := serveJob(w.svc, warm[w.next].body, nil, 0, 0, ""); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return w, nil
	}, nil
}

func (w *selectCold) round(r *runState) (bool, error) {
	var job selJob
	var err error
	r.harness(func() { job, err = w.gen(w.next) })
	if err != nil {
		return false, fmt.Errorf("generating job %d: %w", w.next, err)
	}
	w.next++
	op := r.nextOp
	opID := r.tr.beginOp(int64(op))
	start := time.Now()
	res, err := serveJob(w.svc, job.body, r.tr, opID, op, "service.submit")
	end := time.Now()
	r.tr.record(opID, "op", 0, int64(op), start, end)
	r.op(end.Sub(start), err)
	if err != nil {
		return true, nil
	}
	r.harness(func() {
		spec := job.spec
		var sel selection.Result
		err := json.Unmarshal(res, &sel)
		if err == nil {
			err = checkSelection(spec, sel)
		}
		if err != nil {
			r.fail(op, err)
		} else if len(w.sample) < coldERSample {
			w.sample = append(w.sample, coldOp{op: op, spec: spec, result: res})
		}
		if r.tr != nil {
			if err := replaySelection(r.tr, opID, op, spec, res); err != nil {
				r.fail(op, fmt.Errorf("traced replay: %w", err))
			}
			w.replays++
		}
	})
	return true, nil
}

// replaySelection re-runs a served selection job through the public
// constructors the engine uses, timing normalization, the normalized
// Job.Run, and the pieces of Run: path matrix and failure model, the
// Monte Carlo panel, and the RoMe greedy over a timed oracle. Each replay
// must reproduce the service's result.
func replaySelection(tr *tracer, opID int32, op int, spec service.JobSpec, served []byte) error {
	o := int64(op)
	t0 := time.Now()
	if _, err := spec.CanonicalKey(); err != nil {
		return err
	}
	t1 := time.Now()
	tr.record(0, "selection.normalize", opID, o, t0, t1)
	eng, err := engine.Lookup(selection.EngineName)
	if err != nil {
		return err
	}
	job, err := eng.Normalize(engineSpec(spec))
	if err != nil {
		return err
	}
	t2 := time.Now()
	res, err := job.Run(context.Background(), nil)
	t3 := time.Now()
	tr.record(0, "selection.run", opID, o, t2, t3)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if string(b) != string(served) {
		return errors.New("Job.Run result differs from the served result")
	}
	if spec.Algorithm != selection.AlgMonteRoMe {
		return nil
	}

	t4 := time.Now()
	paths := make([]routing.Path, len(spec.Paths))
	for i, p := range spec.Paths {
		paths[i].Edges = make([]graph.EdgeID, len(p))
		for k, l := range p {
			paths[i].Edges[k] = graph.EdgeID(l)
		}
	}
	pm, err := tomo.NewPathMatrix(paths, spec.Links)
	if err != nil {
		return err
	}
	model, err := failure.FromProbabilities(spec.Probs)
	if err != nil {
		return err
	}
	t5 := time.Now()
	tr.record(0, "tomo.matrix_build", opID, o, t4, t5)
	oracle := er.NewMonteCarloInc(pm, model, spec.MCRuns, stats.NewRNG(spec.Seed, mcStream))
	t6 := time.Now()
	tr.record(0, "er.panel_build", opID, o, t5, t6)
	timed, times := wrapOracle(oracle)
	split, err := selection.RoMe(pm, spec.Costs, spec.Budget, timed, selection.NewOptions())
	tr.record(0, "selection.greedy", opID, o, t6, time.Now())
	if err != nil {
		return err
	}
	tr.count("er.gain_ms", float64(times.gainNs)/1e6)
	tr.count("er.add_ms", float64(times.addNs)/1e6)
	tr.count("er.gain_evals", float64(times.gains))
	want := res.(selection.Result)
	if !equalInts(split.Selected, want.Selected) || split.Objective != want.Objective ||
		split.GainEvaluations != want.GainEvaluations {
		return errors.New("split replay differs from the served selection")
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *selectCold) trace(*tracer) {}

func (w *selectCold) layers(tr *tracer, ops int) (map[string]metric, []string) {
	m := map[string]metric{}
	covering := []string{"service.decode_ms", "service.submit_ms", "service.wait_ms", "service.encode_ms"}
	tr.meanMs(m, ops, covering...)
	tr.meanMs(m, w.replays, "selection.normalize_ms", "selection.run_ms",
		"tomo.matrix_build_ms", "er.panel_build_ms", "selection.greedy_ms")
	n := float64(max(w.replays, 1))
	m["er.gain_ms"] = metric{tr.counter("er.gain_ms") / n, "ms"}
	m["er.add_ms"] = metric{tr.counter("er.add_ms") / n, "ms"}
	m["er.gain_evals"] = metric{tr.counter("er.gain_evals") / n, "count"}
	return m, covering
}

// verify makes the expected-rank check on the sampled jobs; every other
// output was checked as it came back.
func (w *selectCold) verify() (map[int]bool, []string) {
	failed := map[int]bool{}
	var notes []string
	worstZ := 0.0
	for _, o := range w.sample {
		var res selection.Result
		err := json.Unmarshal(o.result, &res)
		if err == nil {
			var z float64
			z, err = checkExpectedRank(o.spec, res, splitmix64(o.spec.Seed))
			worstZ = math.Max(worstZ, z)
		}
		if err != nil {
			failed[o.op] = true
			notes = append(notes, fmt.Sprintf("op %d: %v", o.op, err))
		}
	}
	printLine("checks", map[string]any{"er_worst_standard_errors": worstZ, "er_bound_standard_errors": coldERZ})
	return failed, notes
}

// checkSelection checks a selection for feasibility and against the exact
// rank of its rows: indices distinct and in range, the recomputed cost
// within the budget, and 0 ≤ Objective ≤ rank.
func checkSelection(spec service.JobSpec, res selection.Result) error {
	seen := map[int]bool{}
	rows := make([][]int, 0, len(res.Selected))
	cost := 0.0
	for _, q := range res.Selected {
		if q < 0 || q >= len(spec.Paths) {
			return fmt.Errorf("selected path %d out of range", q)
		}
		if seen[q] {
			return fmt.Errorf("path %d selected twice", q)
		}
		seen[q] = true
		rows = append(rows, spec.Paths[q])
		if len(spec.Costs) > 0 {
			cost += spec.Costs[q]
		} else {
			cost++
		}
	}
	if cost > spec.Budget*(1+1e-12) {
		return fmt.Errorf("selection costs %v over budget %v", cost, spec.Budget)
	}
	rank := pathRank(spec.Links, rows)
	if !(res.Objective >= 0 && res.Objective <= float64(rank)+1e-9) {
		return fmt.Errorf("objective %v outside [0, rank %d]", res.Objective, rank)
	}
	return nil
}

// checkExpectedRank compares a MonteRoMe Objective with the benchmark's
// own expected-rank estimate of the selection: fresh scenarios drawn from
// the job's link probabilities, each scored by the exact rank of the
// surviving selected rows. It returns the deviation in standard errors.
func checkExpectedRank(spec service.JobSpec, res selection.Result, seed uint64) (float64, error) {
	rng := rand.New(rand.NewPCG(seed, 0xe57))
	memo := map[string]int{}
	key := make([]byte, len(res.Selected))
	down := make([]bool, spec.Links)
	var sum, sumSq float64
	for s := 0; s < coldERScenarios; s++ {
		for l, p := range spec.Probs {
			down[l] = rng.Float64() < p
		}
		var rows [][]int
		for i, q := range res.Selected {
			key[i] = 1
			for _, l := range spec.Paths[q] {
				if down[l] {
					key[i] = 0
					break
				}
			}
			if key[i] == 1 {
				rows = append(rows, spec.Paths[q])
			}
		}
		r, ok := memo[string(key)]
		if !ok {
			r = pathRank(spec.Links, rows)
			memo[string(key)] = r
		}
		sum += float64(r)
		sumSq += float64(r) * float64(r)
	}
	n := float64(coldERScenarios)
	est := sum / n
	sd := math.Sqrt(math.Max(sumSq/n-est*est, 0))
	se := sd * math.Sqrt(1/n+1/float64(spec.MCRuns))
	dev := math.Abs(res.Objective - est)
	if dev > coldERZ*se+1e-9 {
		return dev / se, fmt.Errorf("objective %v vs own ER estimate %v (standard error %v)", res.Objective, est, se)
	}
	return dev / math.Max(se, 1e-12), nil
}

func (w *selectCold) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.svc.Close(ctx)
}
