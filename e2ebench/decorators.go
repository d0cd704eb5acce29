package main

import (
	"context"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/cluster"
	"robusttomo/internal/er"
	"robusttomo/internal/sim"
)

// timedOracle decorates an er.Incremental: it adds up the time spent in
// gain calls and in Add and counts gain evaluations, and changes nothing
// the greedy sees. Use wrapOracle, which also forwards the optional
// er.BatchGainer and er.InitialGainer extensions so that the greedy takes
// the same path through the decorated oracle as through the bare one.
type timedOracle struct {
	inner  er.Incremental
	gainNs int64
	addNs  int64
	gains  int
}

func (o *timedOracle) Gain(q int) float64 {
	start := time.Now()
	g := o.inner.Gain(q)
	o.gainNs += int64(time.Since(start))
	o.gains++
	return g
}

func (o *timedOracle) Add(q int) {
	start := time.Now()
	o.inner.Add(q)
	o.addNs += int64(time.Since(start))
}

func (o *timedOracle) Value() float64 { return o.inner.Value() }

func (o *timedOracle) gainBatch(b er.BatchGainer, paths []int, out []float64) {
	start := time.Now()
	b.GainBatch(paths, out)
	o.gainNs += int64(time.Since(start))
	o.gains += len(paths)
}

func (o *timedOracle) initialGains(ig er.InitialGainer, out []float64) bool {
	start := time.Now()
	ok := ig.InitialGains(out)
	o.gainNs += int64(time.Since(start))
	if ok {
		o.gains += len(out)
	}
	return ok
}

type timedBatchOracle struct {
	*timedOracle
	b er.BatchGainer
}

func (o timedBatchOracle) GainBatch(paths []int, out []float64) { o.gainBatch(o.b, paths, out) }

type timedInitialOracle struct {
	*timedOracle
	ig er.InitialGainer
}

func (o timedInitialOracle) InitialGains(out []float64) bool { return o.initialGains(o.ig, out) }

type timedBatchInitialOracle struct {
	*timedOracle
	b  er.BatchGainer
	ig er.InitialGainer
}

func (o timedBatchInitialOracle) GainBatch(paths []int, out []float64) {
	o.gainBatch(o.b, paths, out)
}

func (o timedBatchInitialOracle) InitialGains(out []float64) bool {
	return o.initialGains(o.ig, out)
}

// wrapOracle returns inner decorated by a timedOracle, implementing
// exactly the optional extensions inner implements, and the timedOracle
// holding the figures.
func wrapOracle(inner er.Incremental) (er.Incremental, *timedOracle) {
	t := &timedOracle{inner: inner}
	b, isBatch := inner.(er.BatchGainer)
	ig, isInitial := inner.(er.InitialGainer)
	switch {
	case isBatch && isInitial:
		return timedBatchInitialOracle{t, b, ig}, t
	case isBatch:
		return timedBatchOracle{t, b}, t
	case isInitial:
		return timedInitialOracle{t, ig}, t
	default:
		return t, t
	}
}

// timedTransport decorates a cluster.Transport: with a tracer set, every
// call becomes a cluster.peer_call span under the operation in flight,
// and the calls and their frame bytes are counted.
type timedTransport struct {
	inner cluster.Transport
	tr    *tracer
}

func (t *timedTransport) Call(ctx context.Context, peer string, req *cluster.PeerRequest) (*cluster.PeerResponse, error) {
	if t.tr == nil {
		return t.inner.Call(ctx, peer, req)
	}
	start := time.Now()
	resp, err := t.inner.Call(ctx, peer, req)
	end := time.Now()
	t.tr.record(0, "cluster.peer_call", t.tr.opSpan.Load(), t.tr.op.Load(), start, end)
	// Frame sizes are measured by re-encoding, outside the timed call.
	n := 0
	if b, eerr := cluster.EncodePeerRequest(nil, req); eerr == nil {
		n += len(b)
	}
	if resp != nil {
		if b, eerr := cluster.EncodePeerResponse(nil, resp); eerr == nil {
			n += len(b)
		}
	}
	t.tr.count("cluster.peer_calls", 1)
	t.tr.count("cluster.peer_bytes", float64(n))
	return resp, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// epochLog is what the collector saw for one epoch: the selection it was
// asked to probe and what it assembled.
type epochLog struct {
	epoch    int
	selected []int
	out      agent.AssembledEpoch
	err      error
}

// timedCollector decorates a sim.AssembledCollector. It keeps the latest
// epoch's collection, which the output checks and the traced replay read
// once Runner.Step returns, and with a tracer set it records each
// collection as an agent.collect span.
type timedCollector struct {
	inner sim.AssembledCollector
	tr    *tracer
	last  epochLog
}

func (c *timedCollector) CollectEpoch(ctx context.Context, epoch int, selected []int) ([]agent.Measurement, error) {
	out, err := c.CollectAssembled(ctx, epoch, selected)
	return out.Measurements, err
}

func (c *timedCollector) CollectAssembled(ctx context.Context, epoch int, selected []int) (agent.AssembledEpoch, error) {
	start := time.Now()
	out, err := c.inner.CollectAssembled(ctx, epoch, selected)
	if c.tr != nil {
		c.tr.record(0, "agent.collect", c.tr.opSpan.Load(), c.tr.op.Load(), start, time.Now())
		c.tr.count("agent.probes", float64(len(selected)))
	}
	// The learner's selection may alias its scratch storage.
	c.last = epochLog{epoch: epoch, selected: append(c.last.selected[:0], selected...), out: out, err: err}
	return out, err
}
