package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Parent is the index of
// the enclosing span (-1 for a root) and Round the serial of the training
// round it belongs to (-1 outside a round).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// roundTrace holds the counts recorded at the boundaries of one round.
type roundTrace struct {
	Counts    map[string]float64 `json:"counts"`
	Steps     int64              `json:"model_steps"`
	StepNanos int64              `json:"model_step_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends.
//
// Spans nest as a stack: the orchestration goroutine opens and closes its
// spans in order, and the one kind opened elsewhere — the partial sink —
// runs while its dispatch span is open and is serialized by the backend, so
// the innermost open span is always the right parent. Model steps run on
// every worker at once and are far too many to keep, so they are counted
// and timed with atomics instead of spanned.
//
// All methods are no-ops on a nil tracer, which is how untraced runs call
// them.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	open   []int
	round  int // serial of the open round, -1 outside
	rounds []roundTrace
	peaks  map[string]float64

	steps, stepNanos atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), round: -1, peaks: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Round: t.round})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// closed records a span that has already ended, under the innermost open
// span. Concurrent callers use it instead of begin and end, which keep the
// stack of one goroutine.
func (t *tracer) closed(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Round: t.round,
	})
}

// beginRound opens the span of a new training round and its count record.
func (t *tracer) beginRound() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.round = len(t.rounds)
	t.rounds = append(t.rounds, roundTrace{
		Counts: map[string]float64{}, Steps: -t.steps.Load(), StepNanos: -t.stepNanos.Load(),
	})
	t.mu.Unlock()
	return t.begin("round")
}

// endRound closes the round span opened by beginRound.
func (t *tracer) endRound(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	rt := &t.rounds[t.round]
	rt.Steps += t.steps.Load()
	rt.StepNanos += t.stepNanos.Load()
	t.round = -1
	t.mu.Unlock()
}

// count adds v to the open round's count of name.
func (t *tracer) count(name string, v int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.round >= 0 {
		t.rounds[t.round].Counts[name] += float64(v)
	}
	t.mu.Unlock()
}

// peak records the highest value seen for name.
func (t *tracer) peak(name string, v int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.peaks[name] = max(t.peaks[name], float64(v))
	t.mu.Unlock()
}

// step counts one local SGD step that took d.
func (t *tracer) step(d time.Duration) {
	t.steps.Add(1)
	t.stepNanos.Add(int64(d))
}

// durations returns the length in seconds of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// perRound returns, for every round in which a span named name closed, the
// summed length of those spans in milliseconds.
func (t *tracer) perRound(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.Round >= 0 && s.End > 0 {
			sums[s.Round] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for r := 0; r < len(t.rounds); r++ {
		if v, ok := sums[r]; ok {
			out = append(out, v)
		}
	}
	return out
}

// roundMean returns the mean over rounds of a per-round count.
func (t *tracer) roundMean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rounds) == 0 {
		return 0
	}
	var s float64
	for _, rt := range t.rounds {
		s += rt.Counts[name]
	}
	return s / float64(len(t.rounds))
}

// stepMeans returns the mean number of model steps per round and the mean
// summed step time per round in milliseconds.
func (t *tracer) stepMeans() (steps, busyMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rounds) == 0 {
		return 0, 0
	}
	for _, rt := range t.rounds {
		steps += float64(rt.Steps)
		busyMs += float64(rt.StepNanos) / 1e6
	}
	n := float64(len(t.rounds))
	return steps / n, busyMs / n
}

// selfTimes returns each span name's total self time in milliseconds: a
// span's length minus the time its child spans cover. Children of one
// training span never overlap (see tracer), so their lengths add; the
// concurrent quotes of a serve window do overlap, and the window's self time
// is clamped at 0.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End > 0 {
			out[s.Name] += float64(max(s.End-s.Start-child[i], 0)) / 1e6
		}
	}
	return out
}

// write stores the trace — context, self times, per-round counts and every
// span — as one JSON file.
func (t *tracer) write(path string, ctx runContext) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Context runContext         `json:"context"`
		SelfMs  map[string]float64 `json:"self_ms"`
		Peaks   map[string]float64 `json:"peaks"`
		Rounds  []roundTrace       `json:"rounds"`
		Spans   []span             `json:"spans"`
	}{ctx, self, t.peaks, t.rounds, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
