package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"robusttomo/internal/cluster"
	"robusttomo/internal/engine"
	"robusttomo/internal/loss"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
	"robusttomo/internal/stats"
	"robusttomo/internal/topo"
)

// ring-mixed: three cluster nodes in one process over the TCP peer
// protocol; every key is submitted once at each node.
const (
	ringNodes = 3
	// Selection keys are ProbRoMe jobs on small instances drawn from a
	// pool of monitor placements, each key with fresh link probabilities.
	ringCandidates = 20
	ringInstances  = 32
	ringBudget     = 0.5
	// Every ringLossEvery-th key is a MINC loss job on a binary tree of
	// depth ringLossDepth (16 receivers) with ringLossProbes probes, each
	// link passing a probe with a rate drawn from [ringLossLow,
	// ringLossHigh).
	ringLossEvery  = 30
	ringLossDepth  = 4
	ringLossProbes = 1000
	ringLossLow    = 0.8
	ringLossHigh   = 0.99
	// A loss estimate must lie within ringLossZ standard deviations of the
	// pass rate the probes were generated from. Over a run, the mean
	// deviation, and the mean deviation towards the middle of the range,
	// must stay within ringLossAggZ/√(loss keys) standard deviations: that
	// catches a bias far smaller than one estimate's band.
	ringLossZ      = 10
	ringLossAggZ   = 3
	ringWarmupKeys = 150
	// ringNever is a hedge delay and call timeout far above any job here,
	// so no hedge fires and no call times out.
	ringNever = time.Minute
)

// ringKey is one generated key. Only the body is kept whole; the checks
// rebuild what they need from the instance pool.
type ringKey struct {
	body   []byte
	key    string // canonical job key, which the ring places
	loss   bool
	alpha  []float64 // loss keys: the per-link pass rates of the probes
	inst   int       // selection keys: the instance in the pool
	budget float64   // selection keys
	start  int       // node of the first submission
	pos    int       // the owner's place among the three submissions
}

// ringInst is one instance of the selection pool.
type ringInst struct {
	links int
	paths [][]int
	costs []float64
}

// ringOp is what the class summary keeps of one submission.
type ringOp struct {
	class int // index into ringClasses
	lat   float64
}

// ringClasses are the request classes: the engine, and whether the
// submission executes (at the owner, or forwarded to it) or is answered
// by the owner's cache over a forward or by the local cache.
var ringClasses = []string{
	"selection/exec-owner", "selection/exec-forwarded", "selection/hit-owner", "selection/hit-forwarded",
	"loss/exec-owner", "loss/exec-forwarded", "loss/hit-owner", "loss/hit-forwarded",
}

// opClass returns the class of the s-th submission of key ki.
func opClass(k *ringKey, s int) int {
	c := 0
	if k.loss {
		c = 4
	}
	atOwner := s == k.pos
	switch {
	case s == 0 && atOwner:
		return c
	case s == 0:
		return c + 1
	case atOwner:
		return c + 2
	default:
		return c + 3
	}
}

type ringMixed struct {
	svcs   []*service.Service
	nodes  []*cluster.Node
	trans  []*timedTransport
	cancel context.CancelFunc
	wg     sync.WaitGroup

	in     *ringInputs
	next   int    // index of the next key; the first ringWarmupKeys warm up
	placed [2]int // keys placed so far, selection and loss
	index  map[string]int
	ops    []ringOp // by operation index
	// The loss estimates' deviations, in standard deviations: the largest,
	// and per-key means summed over the run.
	worstZ   float64
	lossDev  lossDev
	lossKeys int

	// Traced phase: node counters at its start, and replay tallies.
	statsAt   []cluster.NodeStats
	normCalls map[string]int
	runCalls  map[string]int
}

// ringInputs is what every set-up of ring-mixed shares: the selection
// instance pool, the loss tree and the warm-up keys.
type ringInputs struct {
	seed  uint64
	pool  []ringInst
	basis []float64
	tree  *loss.Tree
	warm  []ringKey
}

// prepareRingMixed builds the instance pool and the warm-up keys; every
// later key is generated just before it is sent.
func prepareRingMixed(o options) (func() (instance, error), error) {
	tp, err := topo.Preset(topo.AS1755)
	if err != nil {
		return nil, err
	}
	in := &ringInputs{seed: o.seed, pool: make([]ringInst, ringInstances), basis: make([]float64, ringInstances),
		tree: loss.BinaryTree(ringLossDepth)}
	for i := range in.pool {
		p, err := placement(tp, ringCandidates, i)
		if err != nil {
			return nil, err
		}
		in.pool[i] = ringInst{links: p.PM.NumLinks(), paths: make([][]int, p.PM.NumPaths()), costs: p.Costs}
		for q := range in.pool[i].paths {
			in.pool[i].paths[q] = p.PM.EdgesOf(q)
		}
		in.basis[i] = basisCost(p.PM, p.Costs)
	}
	in.warm = make([]ringKey, ringWarmupKeys)
	for i := range in.warm {
		if in.warm[i], err = in.key(i); err != nil {
			return nil, err
		}
	}
	return func() (instance, error) {
		w := &ringMixed{in: in}
		if err := w.start(); err != nil {
			w.close()
			return nil, err
		}
		for w.next < ringWarmupKeys {
			if err := w.submitKey(nil); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return w, nil
	}, nil
}

// start brings up the three nodes, each over its own service, with the
// peer protocol served on loopback TCP and gossip off.
func (w *ringMixed) start() error {
	var lns []net.Listener
	var addrs []string
	for i := 0; i < ringNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	for i := 0; i < ringNodes; i++ {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		svc := service.New(service.Config{QueueDepth: 256})
		tt := &timedTransport{inner: cluster.NewTCPTransport()}
		node, err := cluster.New(cluster.Config{
			Self: addrs[i], Peers: peers, HedgeAfter: ringNever, CallTimeout: ringNever,
			GossipInterval: -1, Service: svc, Transport: tt,
		})
		if err != nil {
			svc.Close(ctx)
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		w.svcs = append(w.svcs, svc)
		w.nodes = append(w.nodes, node)
		w.trans = append(w.trans, tt)
		w.wg.Add(1)
		go func(ln net.Listener, n *cluster.Node) {
			defer w.wg.Done()
			// ServePeers returns once ctx is canceled and ln closed.
			_ = cluster.ServePeers(ctx, ln, n)
		}(lns[i], node)
	}
	return nil
}

// key generates key i: every ringLossEvery-th a loss job with fresh pass
// rates and probes, the others ProbRoMe jobs on instance i mod
// ringInstances with fresh link probabilities.
func (in *ringInputs) key(i int) (ringKey, error) {
	rng := stats.NewRNG(in.seed, 0x71<<32|uint64(i))
	var k ringKey
	var spec service.JobSpec
	if i%ringLossEvery == ringLossEvery-1 {
		k.loss = true
		k.alpha = make([]float64, in.tree.NumNodes())
		for j := range k.alpha {
			k.alpha[j] = ringLossLow + (ringLossHigh-ringLossLow)*rng.Float64()
		}
		params, err := json.Marshal(loss.Params{Parents: treeParents(in.tree), Probes: simulateProbes(in.tree, k.alpha, ringLossProbes, rng)})
		if err != nil {
			return k, err
		}
		spec = service.JobSpec{Engine: loss.EngineName, Params: params}
	} else {
		k.inst = i % ringInstances
		p := in.pool[k.inst]
		probs := make([]float64, p.links)
		for l := range probs {
			probs[l] = 0.001 + 0.03*rng.Float64()
		}
		k.budget = ringBudget * in.basis[k.inst]
		spec = service.JobSpec{Algorithm: selection.AlgProbRoMe, Links: p.links, Paths: p.paths,
			Probs: probs, Costs: p.costs, Budget: k.budget}
	}
	var err error
	if k.body, err = json.Marshal(spec); err != nil {
		return k, err
	}
	k.key, err = spec.CanonicalKey()
	return k, err
}

// place picks the node of the key's first submission: the one that puts
// the owner first, second or third in the key's rotation, cycling per
// engine, so every run has the same mix of local executions, forwards and
// cache hits for both engines.
func (w *ringMixed) place(k *ringKey) {
	if w.index == nil {
		w.index = map[string]int{}
		for i, n := range w.nodes {
			w.index[n.Self()] = i
		}
	}
	owner, _ := w.nodes[0].Ring().Owner(k.key, func(string) bool { return true })
	e := 0
	if k.loss {
		e = 1
	}
	k.pos = w.placed[e] % ringNodes
	w.placed[e]++
	k.start = (w.index[owner] - k.pos + ringNodes) % ringNodes
}

func treeParents(t *loss.Tree) []int {
	parents := make([]int, t.NumNodes())
	for k := range parents {
		parents[k] = t.Parent(k)
	}
	return parents
}

// simulateProbes sends n multicast probes down the tree: a probe crosses
// link k (into node k) with probability alpha[k], and a receiver sees it
// when every link from the root down to it passed.
func simulateProbes(t *loss.Tree, alpha []float64, n int, rng interface{ Float64() float64 }) [][]int {
	order := []int{t.Root()}
	for i := 0; i < len(order); i++ {
		order = append(order, t.Children(order[i])...)
	}
	reach := make([]bool, t.NumNodes())
	probes := make([][]int, n)
	for p := range probes {
		for _, k := range order {
			up := t.Parent(k) < 0 || reach[t.Parent(k)]
			reach[k] = up && rng.Float64() < alpha[k]
		}
		row := make([]int, len(t.Leaves()))
		for j, leaf := range t.Leaves() {
			if reach[leaf] {
				row[j] = 1
			}
		}
		probes[p] = row
	}
	return probes
}

func (w *ringMixed) round(r *runState) (bool, error) {
	return true, w.submitKey(r)
}

// submitKey submits the next key once at each node, starting at its start
// node, then checks the three answers. A nil r runs a warm-up key.
func (w *ringMixed) submitKey(r *runState) error {
	var k ringKey
	var err error
	if r == nil {
		k = w.in.warm[w.next]
	} else {
		r.harness(func() { k, err = w.in.key(w.next) })
	}
	if err != nil {
		return fmt.Errorf("generating key %d: %w", w.next, err)
	}
	w.place(&k)
	w.next++
	var ops [ringNodes]int
	var opIDs [ringNodes]int32
	var results [ringNodes][]byte
	for s := 0; s < ringNodes; s++ {
		node := w.nodes[(k.start+s)%ringNodes]
		if r == nil {
			if _, err := serveJob(node, k.body, nil, 0, 0, ""); err != nil {
				return err
			}
			continue
		}
		op := r.nextOp
		opID := r.tr.beginOp(int64(op))
		start := time.Now()
		res, err := serveJob(node, k.body, r.tr, opID, op, "cluster.submit")
		end := time.Now()
		r.tr.record(opID, "op", 0, int64(op), start, end)
		r.op(end.Sub(start), err)
		w.ops = append(w.ops, ringOp{class: opClass(&k, s), lat: float64(end.Sub(start)) / 1e6})
		ops[s], opIDs[s], results[s] = op, opID, res
	}
	if r == nil {
		return nil
	}
	r.harness(func() {
		if err := w.checkKey(&k, results); err != nil {
			for _, op := range ops {
				r.fail(op, err)
			}
		}
		if r.tr == nil {
			return
		}
		for s, res := range results {
			if res == nil {
				continue
			}
			if err := w.replay(r.tr, opIDs[s], ops[s], &k, s == 0, res); err != nil {
				r.fail(ops[s], fmt.Errorf("traced replay: %w", err))
			}
		}
	})
	return nil
}

// checkKey checks the three answers to one key: all present and
// byte-identical, and the result right for its engine.
func (w *ringMixed) checkKey(k *ringKey, results [ringNodes][]byte) error {
	for s, res := range results {
		switch {
		case res == nil:
			return fmt.Errorf("submission %d returned no result", s)
		case string(res) != string(results[0]):
			return fmt.Errorf("submission %d returned other bytes than the first", s)
		}
	}
	if k.loss {
		d, err := checkLoss(w.in.tree, k.alpha, results[0])
		w.worstZ = math.Max(w.worstZ, d.worst)
		if err == nil {
			w.lossDev.mean += d.mean
			w.lossDev.side += d.side
			w.lossDev.invSigma += d.invSigma
			w.lossKeys++
		}
		return err
	}
	var res selection.Result
	if err := json.Unmarshal(results[0], &res); err != nil {
		return err
	}
	in := w.in.pool[k.inst]
	return checkSelection(service.JobSpec{Links: in.links, Paths: in.paths, Costs: in.costs, Budget: k.budget}, res)
}

// replay times one normalization of the op's spec and, for the key's
// first submission (the one that executes), its normalized Job.Run, which
// must reproduce the served bytes.
func (w *ringMixed) replay(tr *tracer, opID int32, op int, k *ringKey, first bool, served []byte) error {
	o := int64(op)
	eng := selection.EngineName
	if k.loss {
		eng = loss.EngineName
	}
	spec, err := decodeSpec(k.body)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := spec.CanonicalKey(); err != nil {
		return err
	}
	tr.record(0, eng+".normalize", opID, o, t0, time.Now())
	w.normCalls[eng]++
	if !first {
		return nil
	}
	e, err := engine.Lookup(eng)
	if err != nil {
		return err
	}
	job, err := e.Normalize(engineSpec(spec))
	if err != nil {
		return err
	}
	t1 := time.Now()
	res, err := job.Run(context.Background(), nil)
	tr.record(0, eng+".run", opID, o, t1, time.Now())
	if err != nil {
		return err
	}
	w.runCalls[eng]++
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if string(b) != string(served) {
		return errors.New("Job.Run result differs from the served result")
	}
	return nil
}

func (w *ringMixed) trace(tr *tracer) {
	for _, t := range w.trans {
		t.tr = tr
	}
	w.statsAt = w.stats()
	w.normCalls = map[string]int{}
	w.runCalls = map[string]int{}
}

func (w *ringMixed) stats() []cluster.NodeStats {
	out := make([]cluster.NodeStats, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.Stats()
	}
	return out
}

func (w *ringMixed) layers(tr *tracer, ops int) (map[string]metric, []string) {
	m := map[string]metric{}
	covering := []string{"service.decode_ms", "cluster.submit_ms", "service.wait_ms", "service.encode_ms"}
	tr.meanMs(m, ops, covering...)
	for _, eng := range []string{selection.EngineName, loss.EngineName} {
		tr.meanMs(m, w.normCalls[eng], eng+".normalize_ms")
		tr.meanMs(m, w.runCalls[eng], eng+".run_ms")
	}
	_, calls := tr.layer("cluster.peer_call")
	tr.meanMs(m, calls, "cluster.peer_call_ms")
	m["cluster.peer_calls_per_op"] = metric{tr.counter("cluster.peer_calls") / float64(ops), "count"}
	m["cluster.peer_bytes_per_op"] = metric{tr.counter("cluster.peer_bytes") / float64(ops), "bytes"}
	var forwards, hits, executed uint64
	for i, st := range w.stats() {
		forwards += st.Forwards - w.statsAt[i].Forwards
		hits += st.CacheHits - w.statsAt[i].CacheHits
	}
	for _, s := range w.svcs {
		executed += s.Stats().Executed
	}
	m["cluster.forwards_per_op"] = metric{float64(forwards) / float64(ops), "count"}
	m["cluster.cache_hits_per_op"] = metric{float64(hits) / float64(ops), "count"}
	m["service.executions_per_key"] = metric{float64(executed) / float64(w.next), "count"}
	return m, covering
}

// verify makes the run-level checks; every key was checked as its three
// answers came back.
func (w *ringMixed) verify() (map[int]bool, []string) {
	failed := map[int]bool{}
	var notes []string
	fail := func(err error) {
		// A run-level check fails the last operation.
		failed[len(w.ops)-1] = true
		notes = append(notes, err.Error())
	}
	var executed uint64
	for _, s := range w.svcs {
		executed += s.Stats().Executed
	}
	if executed != uint64(w.next) {
		fail(fmt.Errorf("%d executions for %d distinct keys", executed, w.next))
	}
	for _, st := range w.stats() {
		if st.Hedges != 0 || st.Fallbacks != 0 || st.ForwardErrors != 0 {
			fail(fmt.Errorf("node %s: %d hedges, %d fallbacks, %d forward errors", st.Self, st.Hedges, st.Fallbacks, st.ForwardErrors))
		}
	}
	checks := map[string]any{"loss_worst_sigmas": w.worstZ, "loss_bound_sigmas": ringLossZ}
	if w.lossKeys > 0 {
		k := float64(w.lossKeys)
		bound := ringLossAggZ / math.Sqrt(k)
		mean, side := w.lossDev.mean/k, w.lossDev.side/k
		if math.Abs(mean) > bound || math.Abs(side) > bound {
			fail(fmt.Errorf("loss estimates biased: mean deviation %.3f, towards the middle %.3f, bound %.3f standard deviations",
				mean, -side, bound))
		}
		checks["loss_mean_sigmas"], checks["loss_side_sigmas"], checks["loss_aggregate_bound_sigmas"] = mean, side, bound
		// A constant bias b moves the mean deviation by b·mean(1/σ).
		checks["loss_detectable_bias"] = bound / (w.lossDev.invSigma / k)
	}
	printLine("classes", w.classSummary())
	printLine("checks", checks)
	return failed, notes
}

// lossDev sums up one loss estimate's deviations from the generating pass
// rates, in standard deviations: over the nodes, the largest, the mean,
// the mean signed so that an estimate pulled towards the middle of the
// generating range counts negative, and the mean of 1/σ.
type lossDev struct {
	worst, mean, side, invSigma float64
}

// checkLoss checks a loss result against the pass rates its probes were
// drawn from: Loss = 1 − Alpha exactly, and every Alpha within ringLossZ
// standard deviations, where a link's deviation is that of a binomial
// share over the probes expected to reach its upper end and be seen below
// it. It returns the deviations found.
func checkLoss(t *loss.Tree, alpha []float64, raw []byte) (lossDev, error) {
	var d lossDev
	var res loss.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return d, err
	}
	n := t.NumNodes()
	if len(res.Alpha) != n || len(res.Loss) != n {
		return d, fmt.Errorf("result covers %d nodes, tree has %d", len(res.Alpha), n)
	}
	// reachTo[k]: chance a probe reaches node k's parent; seen[k]: chance a
	// probe at node k is seen by some receiver below it.
	reachTo := make([]float64, n)
	seen := make([]float64, n)
	order := []int{t.Root()}
	for i := 0; i < len(order); i++ {
		order = append(order, t.Children(order[i])...)
	}
	for _, k := range order {
		reachTo[k] = 1
		if p := t.Parent(k); p >= 0 {
			reachTo[k] = reachTo[p] * alpha[p]
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		k := order[i]
		miss := 1.0
		for _, c := range t.Children(k) {
			miss *= 1 - alpha[c]*seen[c]
		}
		if len(t.Children(k)) == 0 {
			miss = 0
		}
		seen[k] = 1 - miss
	}
	for k := 0; k < n; k++ {
		if res.Loss[k] != 1-res.Alpha[k] {
			return d, fmt.Errorf("node %d: loss %v is not 1 − alpha %v", k, res.Loss[k], res.Alpha[k])
		}
		a := alpha[k]
		sigma := math.Sqrt(a * (1 - a) / (ringLossProbes * reachTo[k] * seen[k]))
		z := (res.Alpha[k] - a) / sigma
		d.worst = math.Max(d.worst, math.Abs(z))
		if math.Abs(z) > ringLossZ {
			return d, fmt.Errorf("node %d: alpha %v is %.1f standard deviations from %v", k, res.Alpha[k], z, a)
		}
		d.mean += z / float64(n)
		if a < (ringLossLow+ringLossHigh)/2 {
			z = -z
		}
		d.side += z / float64(n)
		d.invSigma += 1 / sigma / float64(n)
	}
	return d, nil
}

func (w *ringMixed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range w.nodes {
		n.Close(ctx)
	}
	if w.cancel != nil {
		w.cancel()
	}
	w.wg.Wait()
	for _, s := range w.svcs {
		s.Close(ctx)
	}
}

// classSummary reports each request class's share of the operations and
// its median latency, in latency order, with the cumulative share at the
// end of each class: the boundaries the named quantiles must stay clear
// of.
func (w *ringMixed) classSummary() []map[string]any {
	byClass := map[string][]float64{}
	for _, o := range w.ops {
		c := ringClasses[o.class]
		byClass[c] = append(byClass[c], o.lat)
	}
	type row struct {
		class string
		share float64
		p50   float64
	}
	var rows []row
	for c, lat := range byClass {
		rows = append(rows, row{c, float64(len(lat)) / float64(len(w.ops)), median(lat)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].p50 < rows[j].p50 })
	var out []map[string]any
	cum := 0.0
	for _, r := range rows {
		cum += r.share
		out = append(out, map[string]any{"class": r.class, "share": r.share, "p50_ms": r.p50, "ends_at": cum})
	}
	return out
}
