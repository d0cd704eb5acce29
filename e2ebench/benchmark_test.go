package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkFileMatches holds BENCHMARK.json to what the command
// prints: the workloads it knows, the end-to-end metrics of an untraced
// run and the per-layer metrics of a traced one, with their units.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bf struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	var e2e []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+"/"+m.Unit)
	}
	sort.Strings(e2e)
	want := []string{"cpu_ms_per_op/ms", "latency_p50_ms/ms", "latency_p90_ms/ms", "ops_per_s/1/s", "peak_rss_mb/MiB", "setup_s/s"}
	if len(e2e) != len(want) {
		t.Fatalf("end-to-end metrics %v, want %v", e2e, want)
	}
	for i := range want {
		if e2e[i] != want[i] {
			t.Fatalf("end-to-end metrics %v, want %v", e2e, want)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i] || m.Unit != perLayerUnit(perLayer[i]) {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the command", i, m.Name, m.Unit, perLayer[i], perLayerUnit(perLayer[i]))
		}
	}
}
