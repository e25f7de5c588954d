package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
)

// tinySizes runs every workload's full code path, checks included, in a
// fraction of a second.
var tinySizes = sizes{
	fig4: trainSpec{
		setup: experiment.Setup2, clients: 8, localSteps: 5, batch: 8, calibration: 1,
		legRounds: 3, evalEvery: 2, schemes: fig4Schemes, setups: 2,
	},
	fleet: trainSpec{
		setup: experiment.Setup1, clients: 2000, shards: 10, localSteps: 1, batch: 8,
		groupSize: 100, calibration: 1, evalEvery: 2, schemes: fullSizes.fleet.schemes, setups: 2,
	},
	devices: trainSpec{
		setup: experiment.Setup1, clients: 20, shards: 4, localSteps: 1, batch: 8,
		calibration: 1, cluster: true, durable: true, evalEvery: 2, schemes: fullSizes.devices.schemes, setups: 2,
	},
	serve: serveSpec{clients: 8, cacheSize: 64, distinct: 8, conns: 2, setups: 2, solves: 10},
}

func TestWorkloadsSmoke(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			r := newRun(name, 7, 300*time.Millisecond, traced, t.TempDir())
			if err := workloads[name](context.Background(), r, tinySizes); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			for _, c := range r.checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", name, traced, c.Name, c.Detail)
				}
			}
			rep, err := r.report()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), want)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables the harness
// reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no body", w.Name)
		}
	}
	for _, tc := range []struct {
		key  string
		json []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", tc.key, len(tc.json), len(tc.defs))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", tc.key, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}

// TestWrappersMirrorSeams checks that each traced wrapper implements exactly
// the optional interfaces of the program type it wraps.
func TestWrappersMirrorSeams(t *testing.T) {
	tr := newTracer()
	sampler, err := fl.NewBernoulliSampler([]float64{0.5, 0.5}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(4, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		inner any
		wrap  func() (any, error)
	}{
		{sampler, func() (any, error) { return wrapSampler(sampler, tr) }},
		{m, func() (any, error) { return wrapModel(m, tr) }},
		{engine.NewLocalBackend(engine.LocalOptions{}), func() (any, error) {
			return wrapBackend(engine.NewLocalBackend(engine.LocalOptions{}), tr)
		}},
		{engine.NewClusterBackend(engine.ClusterOptions{}), func() (any, error) {
			return wrapBackend(engine.NewClusterBackend(engine.ClusterOptions{}), tr)
		}},
	} {
		w, err := tc.wrap()
		if err != nil {
			t.Fatalf("wrap %T: %v", tc.inner, err)
		}
		if err := sameSeams(tc.inner, w); err != nil {
			t.Error(err)
		}
	}
	if _, ok := any(tracedBackend{}).(engine.EpochBackend); ok {
		t.Error("the local backend's wrapper claims EpochBackend")
	}
}
