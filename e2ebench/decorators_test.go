package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/cluster"
	"robusttomo/internal/er"
	"robusttomo/internal/experiments"
	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
	"robusttomo/internal/sim"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

func smallInstance(t *testing.T, paths, set int) *experiments.Instance {
	t.Helper()
	tp, err := topo.Preset(topo.AS1755)
	if err != nil {
		t.Fatal(err)
	}
	in, err := experiments.BuildInstance(experiments.Workload{Loaded: tp, CandidatePaths: paths},
		experiments.Scale{ExpectedFailures: 3, Seed: 5}, set)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestTimedOracleSameSelection(t *testing.T) {
	in := smallInstance(t, 60, 1)
	budget := basisCost(in.PM, in.Costs)
	oracles := map[string]func() er.Incremental{
		"montecarlo": func() er.Incremental {
			return er.NewMonteCarloInc(in.PM, in.Model, 300, stats.NewRNG(9, mcStream))
		},
		"probbound": func() er.Incremental { return er.NewProbBoundInc(in.PM, in.Model) },
		"thetabound": func() er.Incremental {
			return er.NewThetaBoundInc(in.PM, er.Availabilities(in.PM, in.Model))
		},
	}
	for name, build := range oracles {
		bare := build()
		want, err := selection.RoMe(in.PM, in.Costs, budget, bare, selection.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		inner := build()
		timed, times := wrapOracle(inner)
		for _, iface := range []struct {
			name string
			has  func(er.Incremental) bool
		}{
			{"BatchGainer", func(o er.Incremental) bool { _, ok := o.(er.BatchGainer); return ok }},
			{"InitialGainer", func(o er.Incremental) bool { _, ok := o.(er.InitialGainer); return ok }},
		} {
			if iface.has(inner) != iface.has(timed) {
				t.Fatalf("%s: decorated oracle %s mismatch", name, iface.name)
			}
		}
		got, err := selection.RoMe(in.PM, in.Costs, budget, timed, selection.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decorated run %+v, bare run %+v", name, got, want)
		}
		if times.gains != want.GainEvaluations+want.SpeculativeEvaluations {
			t.Fatalf("%s: counted %d gains, greedy reports %d + %d speculative", name,
				times.gains, want.GainEvaluations, want.SpeculativeEvaluations)
		}
		if times.gainNs <= 0 || times.addNs <= 0 {
			t.Fatalf("%s: no time recorded (gain %d ns, add %d ns)", name, times.gainNs, times.addNs)
		}
	}
}

// loopbackRing builds a three-node ring over the loopback transport,
// optionally decorating each node's transport.
func loopbackRing(t *testing.T, tr *tracer) []*cluster.Node {
	t.Helper()
	lb := cluster.NewLoopbackTransport()
	addrs := []string{"n0", "n1", "n2"}
	var nodes []*cluster.Node
	for i, self := range addrs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		var transport cluster.Transport = lb
		if tr != nil {
			transport = &timedTransport{inner: lb, tr: tr}
		}
		svc := service.New(service.Config{Workers: 1})
		n, err := cluster.New(cluster.Config{Self: self, Peers: peers, HedgeAfter: ringNever,
			GossipInterval: -1, Service: svc, Transport: transport})
		if err != nil {
			t.Fatal(err)
		}
		lb.Register(self, n)
		nodes = append(nodes, n)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			n.Close(ctx)
			svc.Close(ctx)
		})
	}
	return nodes
}

func TestTimedTransportSameBytes(t *testing.T) {
	in := smallInstance(t, 20, 2)
	tr := newTracer()
	bare, timed := loopbackRing(t, nil), loopbackRing(t, tr)
	for k := 0; k < 6; k++ {
		spec := service.JobSpec{Algorithm: selection.AlgProbRoMe, Links: in.PM.NumLinks(),
			Probs: in.Model.Probs(), Budget: float64(3 + k)}
		for p := 0; p < in.PM.NumPaths(); p++ {
			spec.Paths = append(spec.Paths, in.PM.EdgesOf(p))
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bare {
			want, err := serveJob(bare[i], body, nil, 0, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			got, err := serveJob(timed[i], body, tr, 0, 0, "cluster.submit")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("key %d at node %d: decorated ring returned %s, bare ring %s", k, i, got, want)
			}
		}
	}
	if _, calls := tr.layer("cluster.peer_call"); calls == 0 || tr.counter("cluster.peer_calls") != float64(calls) {
		t.Fatalf("peer calls: %d spans, %v counted", calls, tr.counter("cluster.peer_calls"))
	}
	if tr.counter("cluster.peer_bytes") <= 0 {
		t.Fatal("no peer bytes counted")
	}
}

// exampleLoop builds a Learning-mode runner on the Section II example
// network, collecting over TCP through a StreamNOC, with the collector
// optionally decorated.
func exampleLoop(t *testing.T, tr *tracer, decorate bool) *sim.Runner {
	t.Helper()
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := tomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, pm.NumLinks())
	metrics := make([]float64, pm.NumLinks())
	for l := range probs {
		probs[l] = 0.1
		metrics[l] = 1 + float64(l)
	}
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	r, err := sim.New(sim.Config{PM: pm, Costs: costs, Budget: 6, Metrics: metrics, Failures: model,
		Horizon: 40, Mode: sim.Learning, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := agent.StartMonitor("hub", "127.0.0.1:0", r.Oracle())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	addrs := map[string]string{}
	for _, m := range ex.Monitors {
		addrs[ex.Graph.Label(m)] = hub.Addr()
	}
	snoc, err := agent.NewStreamNOC(agent.StreamConfig{PM: pm, Monitors: addrs,
		SourceOf: func(p int) string { return ex.Graph.Label(pm.Path(p).Src) }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snoc.Close() })
	var c sim.Collector = snoc
	if decorate {
		c = &timedCollector{inner: snoc, tr: tr}
	}
	if err := r.UseCollector(c); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTimedCollectorSameReports(t *testing.T) {
	tr := newTracer()
	bare, timed := exampleLoop(t, nil, false), exampleLoop(t, tr, true)
	want, err := bare.Run(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	got, err := timed.Run(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decorated reports differ:\n%v\n%v", got, want)
	}
	if _, n := tr.layer("agent.collect"); n != 40 {
		t.Fatalf("%d collect spans for 40 epochs", n)
	}
	if fmt.Sprint(bare.Learner().Counts()) != fmt.Sprint(timed.Learner().Counts()) {
		t.Fatal("learners diverged")
	}
}
