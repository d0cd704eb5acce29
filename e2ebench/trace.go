package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0: none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory for the traced run. A nil
// *tracer records nothing, so the timing decorators cost one nil check
// in untraced runs.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32
	// op and opSpan name the operation in flight (the benchmark has a
	// single client, so there is at most one) for spans recorded on other
	// goroutines, such as peer calls made by a forward.
	op     atomic.Int64
	opSpan atomic.Int32

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// newID reserves a span ID, so a parent's ID is known before its children
// end.
func (t *tracer) newID() int32 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// beginOp marks the operation in flight and returns its span ID.
func (t *tracer) beginOp(op int64) int32 {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.op.Store(op)
	t.opSpan.Store(id)
	return id
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id int32, name string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layer sums the durations (in ms) and the number of spans with a name.
func (t *tracer) layer(name string) (totalMs float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			totalMs += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	return totalMs, n
}

// meanMs sets m[name], for each name, to the total time in ms of the spans
// named name less its "_ms" suffix, divided by n.
func (t *tracer) meanMs(m map[string]metric, n int, names ...string) {
	for _, name := range names {
		total, _ := t.layer(strings.TrimSuffix(name, "_ms"))
		m[name] = metric{total / float64(max(n, 1)), "ms"}
	}
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
