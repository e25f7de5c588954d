package main

import (
	"context"
	"fmt"
	"time"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// The traced run wraps the program's seams. The engine type-asserts optional
// interfaces on them, and a wrapper that hid one would silently change what
// runs: without EffectiveQ the aggregator sees q = 1, without SGDStep the
// unfused step runs. So each wrapper embeds exactly the interface set of the
// value it wraps, and every wrap is checked against optionalSeams.

// optionalSeams lists every optional interface the program type-asserts on a
// sampler, backend or model.
var optionalSeams = []struct {
	name string
	has  func(any) bool
}{
	{"engine.LevelsSampler", func(v any) bool { _, ok := v.(engine.LevelsSampler); return ok }},
	{"engine.StatefulSampler", func(v any) bool { _, ok := v.(engine.StatefulSampler); return ok }},
	{"engine.PartialBackend", func(v any) bool { _, ok := v.(engine.PartialBackend); return ok }},
	{"engine.StatefulBackend", func(v any) bool { _, ok := v.(engine.StatefulBackend); return ok }},
	{"engine.EpochBackend", func(v any) bool { _, ok := v.(engine.EpochBackend); return ok }},
	{"Sockets", func(v any) bool { _, ok := v.(interface{ Sockets() int }); return ok }},
	{"model.LocalStepper", func(v any) bool { _, ok := v.(model.LocalStepper); return ok }},
}

// sameSeams reports an error unless inner and wrapper implement the same
// optional interfaces.
func sameSeams(inner, wrapper any) error {
	for _, s := range optionalSeams {
		if s.has(inner) != s.has(wrapper) {
			return fmt.Errorf("wrapper %T of %T differs on %s", wrapper, inner, s.name)
		}
	}
	return nil
}

type levelsStatefulSampler interface {
	engine.Sampler
	engine.LevelsSampler
	engine.StatefulSampler
}

// tracedSampler spans Sample and counts the participants it draws.
type tracedSampler struct {
	levelsStatefulSampler
	tr *tracer
}

func (s tracedSampler) Sample(round int) []int {
	id := s.tr.begin("engine.sample")
	ids := s.levelsStatefulSampler.Sample(round)
	s.tr.end(id)
	s.tr.count("engine.participants", len(ids))
	return ids
}

func wrapSampler(s engine.Sampler, tr *tracer) (engine.Sampler, error) {
	full, ok := s.(levelsStatefulSampler)
	if !ok {
		return nil, fmt.Errorf("no traced wrapper mirrors sampler %T", s)
	}
	w := tracedSampler{full, tr}
	return w, sameSeams(s, w)
}

type fullBackend interface {
	engine.ExecutionBackend
	engine.PartialBackend
	engine.StatefulBackend
}

// tracedBackend spans Open, Dispatch, DispatchPartials and every call of the
// partial sink, and counts what lands.
type tracedBackend struct {
	fullBackend
	tr *tracer
}

func (b tracedBackend) Open(ctx context.Context, spec *engine.Spec) error {
	id := b.tr.begin("engine.open")
	defer b.tr.end(id)
	return b.fullBackend.Open(ctx, spec)
}

func (b tracedBackend) Dispatch(ctx context.Context, round int, global tensor.Vec, tasks []engine.ClientTask) ([]engine.ClientUpdate, error) {
	id := b.tr.begin("engine.dispatch")
	ups, err := b.fullBackend.Dispatch(ctx, round, global, tasks)
	b.tr.end(id)
	b.tr.count("engine.landed", len(ups))
	return ups, err
}

func (b tracedBackend) DispatchPartials(ctx context.Context, round int, global tensor.Vec,
	tasks []engine.ClientTask, groupSize int, sink func(engine.Partial) error,
) error {
	id := b.tr.begin("engine.dispatch")
	defer b.tr.end(id)
	return b.fullBackend.DispatchPartials(ctx, round, global, tasks, groupSize, func(p engine.Partial) error {
		mid := b.tr.begin("engine.merge")
		err := sink(p)
		b.tr.end(mid)
		b.tr.count("engine.partials", 1)
		b.tr.count("engine.landed", len(p.Clients))
		return err
	})
}

type clusterSeams interface {
	engine.EpochBackend
	Sockets() int
}

// tracedClusterBackend adds the cluster backend's extra seams.
type tracedClusterBackend struct {
	tracedBackend
	cluster clusterSeams
}

func (b tracedClusterBackend) ApplyEpoch(ctx context.Context, r engine.Roster) error {
	return b.cluster.ApplyEpoch(ctx, r)
}

func (b tracedClusterBackend) Sockets() int { return b.cluster.Sockets() }

func wrapBackend(b engine.ExecutionBackend, tr *tracer) (engine.ExecutionBackend, error) {
	full, ok := b.(fullBackend)
	if !ok {
		return nil, fmt.Errorf("no traced wrapper mirrors backend %T", b)
	}
	var w engine.ExecutionBackend = tracedBackend{full, tr}
	if cs, ok := b.(clusterSeams); ok {
		w = tracedClusterBackend{tracedBackend{full, tr}, cs}
	}
	return w, sameSeams(b, w)
}

// tracedAggregator spans the flat Aggregate. Hierarchical rounds never call
// Aggregate, and the orchestrator requires the concrete
// engine.UnbiasedAggregator type there, so it is installed on flat dispatch
// only.
type tracedAggregator struct {
	inner engine.Aggregator
	tr    *tracer
}

func (a tracedAggregator) Aggregate(global tensor.Vec, updates []engine.ClientUpdate, weights, q []float64) error {
	id := a.tr.begin("engine.aggregate")
	defer a.tr.end(id)
	return a.inner.Aggregate(global, updates, weights, q)
}

type stepperModel interface {
	model.Model
	model.LocalStepper
}

// tracedModel counts and times every local step and spans evaluation.
type tracedModel struct {
	stepperModel
	tr *tracer
}

func (m tracedModel) SGDStep(w tensor.Vec, ds *data.Dataset, batchSize int, lr float64,
	r *stats.RNG, s *model.Scratch,
) (float64, error) {
	t0 := time.Now()
	sq, err := m.stepperModel.SGDStep(w, ds, batchSize, lr, r, s)
	m.tr.step(time.Since(t0))
	return sq, err
}

func (m tracedModel) StochasticGradient(w tensor.Vec, ds *data.Dataset, batchSize int,
	r *stats.RNG, grad tensor.Vec,
) error {
	t0 := time.Now()
	err := m.stepperModel.StochasticGradient(w, ds, batchSize, r, grad)
	m.tr.step(time.Since(t0))
	return err
}

func (m tracedModel) Loss(w tensor.Vec, ds *data.Dataset) (float64, error) {
	id := m.tr.begin("engine.eval")
	defer m.tr.end(id)
	return m.stepperModel.Loss(w, ds)
}

func (m tracedModel) Accuracy(w tensor.Vec, ds *data.Dataset) (float64, error) {
	id := m.tr.begin("engine.eval")
	defer m.tr.end(id)
	return m.stepperModel.Accuracy(w, ds)
}

func wrapModel(m model.Model, tr *tracer) (model.Model, error) {
	full, ok := m.(stepperModel)
	if !ok {
		return nil, fmt.Errorf("no traced wrapper mirrors model %T", m)
	}
	w := tracedModel{full, tr}
	return w, sameSeams(m, w)
}

// wrapCommit spans the round-commit hook.
func wrapCommit(commit func(*engine.RunState) error, tr *tracer) func(*engine.RunState) error {
	return func(st *engine.RunState) error {
		id := tr.begin("checkpoint.commit")
		defer tr.end(id)
		return commit(st)
	}
}
