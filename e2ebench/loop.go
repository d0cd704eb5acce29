package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/bandit"
	"robusttomo/internal/diagnose"
	"robusttomo/internal/experiments"
	"robusttomo/internal/failure"
	"robusttomo/internal/sim"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// loop-learn: the closed probing loop in Learning mode over loopback TCP.
const (
	loopCandidates       = 100
	loopExpectedFailures = 2
	// loopBudget is the probing budget as a multiple of the SelectPath
	// basis cost.
	loopBudget = 0.5
	loopWarmup = 300
	// loopHorizon is the length of the failure schedule the runner draws
	// when it is built: a fixed size, so that set-up does not grow with
	// the run, and more than twice what a 10-second run here steps. A run
	// that reaches it ends early and says so.
	loopHorizon = loopWarmup + 40000
)

type loopLearn struct {
	pm      *tomo.PathMatrix
	costs   []float64
	budget  float64
	metrics []float64

	runner *sim.Runner
	coll   *timedCollector
	snoc   *agent.StreamNOC
	hubs   []*agent.Monitor
	epochs int // epochs stepped, warm-up included
	lastOp int

	// hist keeps, per epoch of a traced run, what the replay's twin
	// learner needs to catch up: the selection and the paths that
	// delivered.
	traced   bool
	hist     []epochHist
	replay   *bandit.LSR
	replayed int

	// Check scratch, reused every epoch.
	down       []bool // links down in the epoch
	onSurvivor []bool // links on a surviving path
	one        []int
	rows       [][]int
	basis      *exactBasis
}

type epochHist struct {
	selected []uint16
	avail    []uint64 // bit set over candidate paths
}

// prepareLoopLearn builds the fixed monitor placement and candidate
// paths, and draws the failure model and the ground-truth link metrics
// from the seed.
func prepareLoopLearn(o options) (func() (instance, error), error) {
	tp, err := topo.Preset(topo.AS1755)
	if err != nil {
		return nil, err
	}
	in, err := placement(tp, loopCandidates, 0)
	if err != nil {
		return nil, err
	}
	model, err := failure.NewModel(failure.Config{
		Links: in.PM.NumLinks(), ExpectedFailures: loopExpectedFailures, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(o.seed, 0x10e)
	metrics := make([]float64, in.PM.NumLinks())
	for l := range metrics {
		metrics[l] = 1 + 9*rng.Float64()
	}
	budget := loopBudget * basisCost(in.PM, in.Costs)
	return func() (instance, error) {
		return setupLoopLearn(o, tp, in, model, metrics, budget)
	}, nil
}

// setupLoopLearn builds the runner, which draws its failure schedule,
// starts the monitor hubs and the collector, and steps the warm-up
// epochs.
func setupLoopLearn(o options, tp *topo.Topology, in *experiments.Instance, model *failure.Model, metrics []float64, budget float64) (instance, error) {
	w := &loopLearn{
		pm: in.PM, costs: in.Costs, metrics: metrics, budget: budget, traced: o.trace,
	}
	var err error
	w.runner, err = sim.New(sim.Config{
		PM: in.PM, Costs: in.Costs, Budget: w.budget, Metrics: metrics,
		Failures: model, Horizon: loopHorizon, Mode: sim.Learning, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}

	// Monitors are the paths' sources, spread over at most nproc hubs.
	srcName := func(p int) string { return tp.Graph.Label(in.PM.Path(p).Src) }
	seen := map[string]bool{}
	var names []string
	for p := 0; p < in.PM.NumPaths(); p++ {
		if n := srcName(p); !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	addrs := map[string]string{}
	for i, name := range names {
		if i < runtime.NumCPU() {
			hub, err := agent.StartMonitor(fmt.Sprintf("hub%d", i), "127.0.0.1:0", w.runner.Oracle())
			if err != nil {
				w.close()
				return nil, err
			}
			w.hubs = append(w.hubs, hub)
		}
		addrs[name] = w.hubs[i%len(w.hubs)].Addr()
	}
	w.snoc, err = agent.NewStreamNOC(agent.StreamConfig{PM: in.PM, Monitors: addrs, SourceOf: srcName, Seed: o.seed})
	if err != nil {
		w.close()
		return nil, err
	}
	w.coll = &timedCollector{inner: w.snoc}
	if err := w.runner.UseCollector(w.coll); err != nil {
		w.close()
		return nil, err
	}
	w.down = make([]bool, in.PM.NumLinks())
	w.onSurvivor = make([]bool, in.PM.NumLinks())
	w.one = make([]int, 1)
	w.basis = newExactBasis(in.PM.NumLinks())
	for i := 0; i < loopWarmup; i++ {
		if _, err := w.runner.Step(context.Background()); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up epoch %d: %w", i, err)
		}
		w.epochs++
		w.remember()
	}
	return w, nil
}

func (w *loopLearn) round(r *runState) (bool, error) {
	if w.epochs >= loopHorizon {
		return false, nil
	}
	op := r.nextOp
	opID := r.tr.beginOp(int64(op))
	start := time.Now()
	rep, err := w.runner.Step(context.Background())
	end := time.Now()
	r.tr.record(opID, "op", 0, int64(op), start, end)
	r.op(end.Sub(start), err)
	w.epochs++
	w.lastOp = op
	if err != nil {
		return true, nil
	}
	r.harness(func() {
		w.remember()
		if err := w.checkEpoch(rep); err != nil {
			r.fail(op, fmt.Errorf("epoch %d: %w", rep.Epoch, err))
		}
		if r.tr != nil {
			if err := w.replayEpoch(r.tr, opID, op, rep); err != nil {
				r.fail(op, fmt.Errorf("traced replay: %w", err))
			}
		}
	})
	return true, nil
}

// remember appends the latest epoch to the twin learner's history.
func (w *loopLearn) remember() {
	if !w.traced {
		return
	}
	lg := w.coll.last
	h := epochHist{selected: make([]uint16, len(lg.selected)), avail: make([]uint64, (w.pm.NumPaths()+63)/64)}
	for i, q := range lg.selected {
		h.selected[i] = uint16(q)
	}
	for _, m := range lg.out.Measurements {
		if m.OK {
			h.avail[m.PathID/64] |= 1 << (m.PathID % 64)
		}
	}
	w.hist = append(w.hist, h)
}

// replayEpoch re-runs the layers of one Runner.Step on the epoch's
// collection through the same public calls, timing each: the learner's
// SelectAction and Observe (on a twin learner that has seen every earlier
// epoch), the surviving rank, identifiability and Boolean localization.
// The replay must reproduce the epoch's report.
func (w *loopLearn) replayEpoch(tr *tracer, opID int32, op int, rep sim.EpochReport) error {
	if w.replay == nil {
		lsr, err := bandit.New(w.pm, w.costs, w.budget, bandit.Options{})
		if err != nil {
			return err
		}
		w.replay = lsr
	}
	for ; w.replayed < len(w.hist)-1; w.replayed++ { // catch up, untimed
		h := w.hist[w.replayed]
		if _, err := w.replay.SelectAction(); err != nil {
			return err
		}
		sel := make([]int, len(h.selected))
		avail := make([]bool, w.pm.NumPaths())
		for i, q := range h.selected {
			sel[i] = int(q)
		}
		for q := range avail {
			avail[q] = h.avail[q/64]&(1<<(q%64)) != 0
		}
		if _, err := w.replay.Observe(sel, avail); err != nil {
			return err
		}
	}
	o := int64(op)
	lg := w.coll.last
	t0 := time.Now()
	sel, err := w.replay.SelectAction()
	t1 := time.Now()
	tr.record(0, "bandit.select", opID, o, t0, t1)
	if err != nil {
		return err
	}
	if !equalInts(sel, lg.selected) {
		return errors.New("replayed selection differs")
	}
	avail, surviving, ob := w.outcomes(lg)
	t2 := time.Now()
	_, err = w.replay.Observe(lg.selected, avail)
	t3 := time.Now()
	tr.record(0, "bandit.observe", opID, o, t2, t3)
	if err != nil {
		return err
	}
	w.replayed++
	rank := w.pm.RankOf(surviving)
	t4 := time.Now()
	tr.record(0, "tomo.rank", opID, o, t3, t4)
	sys, err := tomo.NewSystem(w.pm, surviving, nil)
	if err != nil {
		return err
	}
	ident := sys.NumIdentifiable()
	t5 := time.Now()
	tr.record(0, "tomo.identify", opID, o, t4, t5)
	diag, err := diagnose.Localize(w.pm, ob)
	tr.record(0, "diagnose.localize", opID, o, t5, time.Now())
	if err != nil {
		return err
	}
	var implicated []int
	for l, down := range diag.Implicated {
		if down {
			implicated = append(implicated, l)
		}
	}
	if rank != rep.Rank || ident != rep.Identifiable || !equalInts(implicated, rep.Implicated) {
		return errors.New("replayed rank, identifiability or localization differs from the epoch report")
	}
	return nil
}

// outcomes derives, from one collection, what Runner.Step hands its
// layers: path availabilities, surviving paths and the diagnoser's
// observation.
func (w *loopLearn) outcomes(lg epochLog) (avail []bool, surviving []int, ob diagnose.Observation) {
	avail = make([]bool, w.pm.NumPaths())
	for _, m := range lg.out.Measurements {
		ob.Paths = append(ob.Paths, m.PathID)
		ob.OK = append(ob.OK, m.OK)
		if m.OK {
			avail[m.PathID] = true
			surviving = append(surviving, m.PathID)
		}
	}
	return avail, surviving, ob
}

func (w *loopLearn) trace(tr *tracer) { w.coll.tr = tr }

func (w *loopLearn) layers(tr *tracer, ops int) (map[string]metric, []string) {
	m := map[string]metric{}
	covering := []string{"agent.collect_ms", "bandit.select_ms", "bandit.observe_ms",
		"tomo.rank_ms", "tomo.identify_ms", "diagnose.localize_ms"}
	tr.meanMs(m, ops, covering...)
	m["agent.probes_per_epoch"] = metric{tr.counter("agent.probes") / float64(ops), "count"}
	return m, covering
}

func (w *loopLearn) verify() (map[int]bool, []string) {
	failed := map[int]bool{}
	var notes []string
	values, ident, err := w.runner.Estimates(1, 1e-6)
	if err == nil {
		for l, ok := range ident {
			if ok && math.Abs(values[l]-w.metrics[l]) > 1e-6 {
				err = fmt.Errorf("identifiable link %d estimated %v, ground truth %v", l, values[l], w.metrics[l])
				break
			}
		}
	}
	if err != nil {
		// A run-level check: it fails the last operation.
		failed[w.lastOp] = true
		notes = append(notes, fmt.Sprintf("estimates: %v", err))
	}
	return failed, notes
}

// checkEpoch checks the latest epoch against the ground truth: the
// collection is whole, every measured value is the sum of its links'
// metrics, a path reads OK exactly when none of its links is down, the
// reported rank is the exact rank of the surviving rows, and every
// implicated link is down and on no surviving path.
func (w *loopLearn) checkEpoch(rep sim.EpochReport) error {
	lg := w.coll.last
	if lg.err != nil || rep.Collection.Degraded || lg.epoch != rep.Epoch {
		return fmt.Errorf("degraded collection: %v", lg.err)
	}
	oracle := w.runner.Oracle()
	for l := range w.down {
		w.one[0] = l
		_, ok := oracle.Measure(rep.Epoch, w.one)
		w.down[l] = !ok
	}
	if len(lg.out.Measurements) != len(lg.selected) {
		return fmt.Errorf("%d measurements for %d selected paths", len(lg.out.Measurements), len(lg.selected))
	}
	rows := w.rows[:0]
	clear(w.onSurvivor)
	for _, m := range lg.out.Measurements {
		links := w.pm.EdgesOf(m.PathID)
		up, sum := true, 0.0
		for _, l := range links {
			up = up && !w.down[l]
			sum += w.metrics[l]
		}
		if m.OK != up {
			return fmt.Errorf("path %d reads OK=%v, its links say %v", m.PathID, m.OK, up)
		}
		if m.OK {
			if m.Value != sum {
				return fmt.Errorf("path %d measured %v, ground truth %v", m.PathID, m.Value, sum)
			}
			rows = append(rows, links)
			for _, l := range links {
				w.onSurvivor[l] = true
			}
		}
	}
	w.rows = rows
	if r := w.basis.pathRank(rows); r != rep.Rank {
		return fmt.Errorf("rank %d, exact rank of surviving rows %d", rep.Rank, r)
	}
	for _, l := range rep.Implicated {
		if !w.down[l] || w.onSurvivor[l] {
			return fmt.Errorf("implicated link %d is up or on a surviving path", l)
		}
	}
	return nil
}

func (w *loopLearn) close() {
	if w.snoc != nil {
		w.snoc.Close()
	}
	for _, h := range w.hubs {
		h.Close()
	}
}
