package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"unbiasedfl/internal/checkpoint"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// trainSpec sizes one training workload.
type trainSpec struct {
	setup       experiment.SetupID
	clients     int
	shards      int // experiment.Options.FleetShards; 0 gives every client its own shard
	localSteps  int // E
	batch       int
	groupSize   int // K; 0 dispatches flat
	calibration int // calibration rounds inside BuildSetup
	cluster     bool
	durable     bool // commit a checkpoint every round
	// legRounds > 0 trains in legs of legRounds rounds, each a whole engine
	// run with seeds of its own, cycling through the schemes as the Fig. 4
	// comparison runs each scheme on its own. legRounds = 0 trains the one
	// scheme in one open-ended engine run that stops at the end of the
	// timed phase.
	legRounds int
	evalEvery int
	schemes   []string
	setups    int // set-ups timed per run; setup_s is their median
}

// paperRounds is the training horizon R the market is priced for (the
// paper's Fig. 4 horizon). The timed phase trains fewer rounds.
const paperRounds = 1000

// setupSeed fixes each training workload's data set, calibration and
// market, as the paper's data set is fixed; --seed drives each run's own
// randomness: participation coins and mini-batches of every leg. With 40
// devices, a market drawn per seed would change the work of a round (Σq)
// from seed to seed by more than the bounds allow.
const setupSeed = 1

// refRounds is how many rounds of an open-ended run the traced run replays
// untraced to compare models.
const refRounds = 4

// openRounds is the horizon of an open-ended run; it stops long before, from
// its commit hook.
const openRounds = 1 << 20

// errStop ends an open-ended run from its commit hook.
var errStop = errors.New("timed phase over")

// world is one set-up: the environment BuildSetup made and the market priced
// under every scheme of the workload.
type world struct {
	ts     trainSpec
	seed   uint64 // the run's seed
	env    *experiment.Environment
	priced []pricedScheme
}

type pricedScheme struct {
	name string
	out  *game.Outcome
	q    []float64 // out.Q clamped to [QMin, QMax]: the levels the sampler draws with
}

func buildWorld(ctx context.Context, r *run, ts trainSpec) (*world, error) {
	opts := experiment.Options{
		NumClients:  ts.clients,
		Rounds:      paperRounds,
		LocalSteps:  ts.localSteps,
		BatchSize:   ts.batch,
		EvalEvery:   ts.evalEvery,
		Calibration: ts.calibration,
		Seed:        setupSeed,
		Runs:        1,
		FleetShards: ts.shards,
	}
	id := r.tr.begin("experiment.build")
	env, err := experiment.BuildSetup(ctx, ts.setup, opts)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build setup: %w", err)
	}
	w := &world{ts: ts, seed: r.seed, env: env}
	for _, name := range ts.schemes {
		ps, err := game.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		id := r.tr.begin("game.price")
		out, err := ps.Price(env.Params)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("price %s: %w", name, err)
		}
		w.priced = append(w.priced, pricedScheme{name, out, env.Params.ClampQ(out.Q)})
	}
	return w, nil
}

// legRecord is what one engine run left for the checks.
type legRecord struct {
	scheme int
	seed   uint64
	rounds []roundRecord
	durs   []float64 // round wall times, ms
	final  tensor.Vec
	atRef  tensor.Vec // open-ended runs: the model after refRounds rounds
}

type roundRecord struct {
	participants int
	idsHash      uint64
}

// legSeed derives the sampler and SGD seed of leg from the run seed
// (SplitMix64 of the pair).
func legSeed(seed uint64, leg int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(leg+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// compile builds the engine spec and backend of one leg, wrapped for tracing
// when tr is not nil.
func (w *world) compile(leg, rounds int, tr *tracer) (engine.Spec, engine.ExecutionBackend, *legRecord, error) {
	rec := &legRecord{scheme: leg % len(w.priced), seed: legSeed(w.seed, leg)}
	ps := w.priced[rec.scheme]
	sampler, err := fl.NewBernoulliSampler(ps.q, stats.NewRNG(rec.seed))
	if err != nil {
		return engine.Spec{}, nil, nil, err
	}
	spec := engine.Spec{
		Model:      w.env.Model,
		Fed:        w.env.Fed,
		Rounds:     rounds,
		LocalSteps: w.ts.localSteps,
		BatchSize:  w.ts.batch,
		Schedule:   engine.ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  min(w.ts.evalEvery, rounds),
		Seed:       rec.seed ^ 0xDEADBEEF,
		Sampler:    sampler,
		Aggregator: engine.UnbiasedAggregator{},
		GroupSize:  w.ts.groupSize,
	}
	var backend engine.ExecutionBackend = engine.NewLocalBackend(engine.LocalOptions{Parallel: true})
	if w.ts.cluster {
		backend = engine.NewClusterBackend(engine.ClusterOptions{})
	}
	if tr == nil {
		return spec, backend, rec, nil
	}
	if spec.Model, err = wrapModel(spec.Model, tr); err != nil {
		return engine.Spec{}, nil, nil, err
	}
	if spec.Sampler, err = wrapSampler(spec.Sampler, tr); err != nil {
		return engine.Spec{}, nil, nil, err
	}
	if w.ts.groupSize <= 1 {
		spec.Aggregator = tracedAggregator{spec.Aggregator, tr}
	}
	if backend, err = wrapBackend(backend, tr); err != nil {
		return engine.Spec{}, nil, nil, err
	}
	return spec, backend, rec, nil
}

// phase times the training phase. It begins at the first round's start and
// ends with the last round; a round ends at OnRound or, in a durable
// workload, when its commit returns.
type phase struct {
	tr         *tracer
	backend    engine.ExecutionBackend
	first      time.Time
	last       time.Time
	roundStart time.Time
	roundSpan  int
	setupSpan  int
	landed     int
}

func (p *phase) hook(spec *engine.Spec, rec *legRecord, durable bool) {
	spec.OnRoundStart = func(int) {
		now := time.Now()
		if p.first.IsZero() {
			p.first = now
			p.tr.end(p.setupSpan)
		}
		p.roundStart = now
		p.roundSpan = p.tr.beginRound()
	}
	spec.OnRound = func(m engine.RoundMetrics) {
		if !durable {
			p.endRound(rec)
		}
		rec.rounds = append(rec.rounds, roundRecord{m.Participants, hashIDs(m.ParticipantIDs)})
		p.landed += m.Participants
		if s, ok := p.backend.(interface{ Sockets() int }); ok {
			p.tr.peak("engine.sockets", s.Sockets())
		}
	}
}

func (p *phase) endRound(rec *legRecord) {
	p.last = time.Now()
	rec.durs = append(rec.durs, float64(p.last.Sub(p.roundStart))/1e6)
	p.tr.endRound(p.roundSpan)
}

func hashIDs(ids []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		for i := range b {
			b[i] = byte(uint64(id) >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// runTraining runs one training workload: timed set-ups, the timed phase,
// the checks, and in a traced run the per-layer metrics.
func runTraining(ctx context.Context, r *run, ts trainSpec) error {
	var setupS []float64
	for i := 0; i < ts.setups-1; i++ {
		t0 := time.Now()
		sid := r.tr.begin("setup")
		w, err := buildWorld(ctx, r, ts)
		if err != nil {
			return err
		}
		spec, backend, _, err := w.compile(0, max(ts.legRounds, 1), r.tr)
		if err != nil {
			return err
		}
		if err := backend.Open(ctx, &spec); err != nil {
			return fmt.Errorf("open backend: %w", err)
		}
		r.tr.end(sid)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err := backend.Close(); err != nil {
			return fmt.Errorf("close backend: %w", err)
		}
	}

	t0 := time.Now()
	p := &phase{tr: r.tr, setupSpan: r.tr.begin("setup")}
	w, err := buildWorld(ctx, r, ts)
	if err != nil {
		return err
	}
	p0 := readPhase()
	var legs []*legRecord
	if ts.legRounds == 0 {
		rec, err := w.trainOpen(ctx, r, p, "run", 0, r.tr)
		if err != nil {
			return err
		}
		legs = []*legRecord{rec}
	} else if legs, err = w.trainLegs(ctx, r, p); err != nil {
		return err
	}
	setupS = append(setupS, p.first.Sub(t0).Seconds())
	if r.tr != nil {
		r.recordPhase(p0)
	}

	var durs []float64
	for _, l := range legs {
		durs = append(durs, l.durs...)
	}
	r.attempted = len(durs)
	r.e2e["setup_s"] = median(setupS)
	r.e2e["latency_p50_ms"] = median(durs)
	r.e2e["throughput_per_s"] = float64(p.landed) / p.last.Sub(p.first).Seconds()
	r.e2e["peak_rss_mb"] = peakRSSMB()

	if err := w.checkParticipation(r, legs); err != nil {
		return err
	}
	if err := w.checkModels(r, legs); err != nil {
		return err
	}
	if len(w.priced) > 1 {
		w.checkPricing(r)
	}
	if err := w.foldReplay(r, legs[0]); err != nil {
		return err
	}
	if ts.durable {
		if err := w.checkResume(r, legs[0]); err != nil {
			return err
		}
	}
	if r.tr == nil {
		return nil
	}
	if err := w.traceReference(ctx, r, legs); err != nil {
		return err
	}
	return w.layerMetrics(r, legs)
}

// trainLegs trains whole cycles of legs (one leg per scheme) until the
// timed phase has run for the run's window.
func (w *world) trainLegs(ctx context.Context, r *run, p *phase) ([]*legRecord, error) {
	var legs []*legRecord
	for leg := 0; ; leg++ {
		spec, backend, rec, err := w.compile(leg, w.ts.legRounds, r.tr)
		if err != nil {
			return nil, err
		}
		p.backend = backend
		p.hook(&spec, rec, false)
		res, err := engine.Run(ctx, spec, backend)
		if err != nil {
			return nil, fmt.Errorf("leg %d: %w", leg, err)
		}
		rec.final = res.FinalModel
		legs = append(legs, rec)
		if (leg+1)%len(w.priced) == 0 && time.Since(p.first) >= r.window {
			return legs, nil
		}
	}
}

// trainOpen trains one open-ended engine run and stops it, from its commit
// hook (the one hook that sees the model and can end a run), once the timed
// phase has run for the run's window and at least refRounds rounds (or,
// with stopAt > 0, after stopAt rounds). A durable workload's hook first
// commits a checkpoint, and its rounds end when the commit returns.
func (w *world) trainOpen(ctx context.Context, r *run, p *phase, label string, stopAt int, tr *tracer) (*legRecord, error) {
	spec, backend, rec, err := w.compile(0, openRounds, tr)
	if err != nil {
		return nil, err
	}
	p.backend = backend
	p.hook(&spec, rec, w.ts.durable)
	var mgr *checkpoint.Manager
	commit := func(*engine.RunState) error { return nil }
	if w.ts.durable {
		if mgr, err = checkpoint.Create(w.checkpointPath(r, label), w.checkpointMeta(r), checkpoint.Options{}); err != nil {
			return nil, err
		}
		commit = mgr.Commit
		if tr != nil {
			commit = wrapCommit(commit, tr)
		}
	}
	spec.OnRoundCommit = func(st *engine.RunState) error {
		err := commit(st)
		if w.ts.durable {
			p.endRound(rec)
		}
		if err != nil {
			return err
		}
		if st.NextRound == refRounds {
			rec.atRef = append(tensor.Vec(nil), st.Model...)
		}
		if st.NextRound == stopAt || (stopAt == 0 && st.NextRound >= refRounds && time.Since(p.first) >= r.window) {
			rec.final = append(tensor.Vec(nil), st.Model...)
			return errStop
		}
		return nil
	}
	_, err = engine.Run(ctx, spec, backend)
	if mgr != nil {
		if cerr := mgr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if !errors.Is(err, errStop) {
		return nil, fmt.Errorf("open-ended run: %v", err)
	}
	return rec, nil
}

func (w *world) checkpointPath(r *run, label string) string {
	return filepath.Join(r.dir, label+".ckpt")
}

func (w *world) checkpointMeta(r *run) checkpoint.Meta {
	return checkpoint.Meta{Label: r.workload, Seed: r.seed, Clients: w.ts.clients, Rounds: openRounds}
}

// checkResume reloads the final checkpoint: it must resume at the round the
// run stopped after, with a bit-identical model and one WAL record a round.
func (w *world) checkResume(r *run, rec *legRecord) error {
	path := w.checkpointPath(r, "run")
	mgr, st, err := checkpoint.Resume(path, w.checkpointMeta(r), checkpoint.Options{})
	if err != nil {
		r.check("checkpoint.resume", false, "resume: %v", err)
		return nil
	}
	if err := mgr.Close(); err != nil {
		return err
	}
	raw, err := os.ReadFile(checkpoint.WALPath(path))
	if err != nil {
		return err
	}
	records, tail, err := checkpoint.DecodeWAL(raw)
	if err != nil {
		return err
	}
	rounds := len(rec.rounds)
	r.check("checkpoint.resume", st.NextRound == rounds && bitEqual(st.Model, rec.final),
		"next round %d of %d, model bit-identical %v", st.NextRound, rounds, bitEqual(st.Model, rec.final))
	r.check("checkpoint.wal", len(records) == rounds && tail == nil,
		"%d records for %d rounds, tail %v", len(records), rounds, tail)
	if r.tr != nil {
		snap, err := os.Stat(path)
		if err != nil {
			return err
		}
		r.layer["checkpoint.snapshot_bytes"] = float64(snap.Size())
		r.layer["checkpoint.wal_bytes"] = float64(len(raw)) / float64(rounds)
	}
	return nil
}

// checkParticipation replays every leg's coin draws with a twin sampler of
// the same seed: each round's landed participants must be exactly the
// sampled set (every backend here is strict), and each count must lie within
// 6σ of Σ q_n for independent Bernoulli(q_n) draws.
func (w *world) checkParticipation(r *run, legs []*legRecord) error {
	same, rounds := true, 0
	worst := 0.0
	for _, l := range legs {
		q := w.priced[l.scheme].q
		var mu, varSum float64
		for _, qn := range q {
			mu += qn
			varSum += qn * (1 - qn)
		}
		twin, err := fl.NewBernoulliSampler(q, stats.NewRNG(l.seed))
		if err != nil {
			return err
		}
		for i, rr := range l.rounds {
			ids := twin.Sample(i)
			if len(ids) != rr.participants || hashIDs(ids) != rr.idsHash {
				same = false
			}
			z := math.Abs(float64(rr.participants)-mu) / math.Sqrt(varSum)
			if varSum == 0 && float64(rr.participants) == mu {
				z = 0
			}
			worst = max(worst, z)
			rounds++
		}
	}
	r.check("participants.landed_eq_sampled", same, "%d rounds", rounds)
	r.check("participants.within_6sigma", worst <= 6, "largest |n - sum q|/sigma = %.2f", worst)
	return nil
}

// checkModels requires every scheme's final model to be finite and to train
// below ln C, the loss of the zero model.
func (w *world) checkModels(r *run, legs []*legRecord) error {
	lnC := math.Log(float64(w.env.Fed.Train.Classes))
	last := map[int]*legRecord{}
	for _, l := range legs {
		last[l.scheme] = l
	}
	for s, l := range last {
		finite := l.final.IsFinite()
		loss := math.Inf(1)
		if finite {
			var err error
			if loss, err = w.env.Model.Loss(l.final, w.env.Fed.Train); err != nil {
				return err
			}
		}
		r.check("model."+w.priced[s].name+".below_lnC", finite && loss < lnC,
			"finite %v, final loss %.4f, ln C %.4f", finite, loss, lnC)
	}
	return nil
}

// checkPricing recomputes each scheme's spend and levels and the Theorem-1
// objective (α/R)·Σ(1−q_n)a_n²G_n²/q_n: every scheme must stay within budget
// with 0 < q_n ≤ QMax, and the proposed scheme must attain the lowest
// objective.
func (w *world) checkPricing(r *run) {
	p := w.env.Params
	objective := func(q []float64) float64 {
		var s float64
		for n, qn := range q {
			s += (1 - qn) * p.A[n] * p.A[n] * p.G[n] * p.G[n] / qn
		}
		return p.Alpha / p.R * s
	}
	obj := map[string]float64{}
	for _, ps := range w.priced {
		spend, inRange := 0.0, true
		for n, qn := range ps.out.Q {
			spend += ps.out.P[n] * qn
			inRange = inRange && qn > 0 && qn <= p.QMax
		}
		r.check("pricing."+ps.name+".feasible", spend <= p.B*(1+1e-9) && inRange,
			"spend %.6g of budget %.6g, 0 < q <= QMax %v", spend, p.B, inRange)
		obj[ps.name] = objective(ps.out.Q)
	}
	best := obj[game.SchemeNameProposed]
	ok := true
	for _, v := range obj {
		ok = ok && best <= v*(1+1e-12)
	}
	r.check("pricing.proposed_lowest_objective", ok, "objectives %v", obj)
}

// traceReference replays part of the traced training untraced, in the same
// warm process: the last leg, or the first refRounds rounds of an
// open-ended run. Observing a run must not perturb it, so the models must be
// bit-identical; the difference in round time is the tracing overhead. An
// open-ended run's first round also pays for first use (gob's type
// descriptors on every cluster connection, the workers' scratch arenas), so
// its overhead is taken over the rounds after it.
func (w *world) traceReference(ctx context.Context, r *run, legs []*legRecord) error {
	p := &phase{setupSpan: -1}
	traced := legs[len(legs)-1]
	var ref *legRecord
	var want, got tensor.Vec
	from := 0
	if w.ts.legRounds == 0 {
		rec, err := w.trainOpen(ctx, r, p, "reference", refRounds, nil)
		if err != nil {
			return err
		}
		ref, want, got, from = rec, traced.atRef, rec.atRef, 1
	} else {
		spec, backend, rec, err := w.compile(len(legs)-1, w.ts.legRounds, nil)
		if err != nil {
			return err
		}
		p.backend = backend
		p.hook(&spec, rec, false)
		res, err := engine.Run(ctx, spec, backend)
		if err != nil {
			return fmt.Errorf("reference leg: %w", err)
		}
		ref, want, got = rec, traced.final, res.FinalModel
	}
	n := len(ref.durs)
	r.check("trace.model_bit_identical", want != nil && bitEqual(want, got),
		"traced and untraced models after %d rounds", n)
	var tracedMs, refMs float64
	for i := from; i < n && i < len(traced.durs); i++ {
		tracedMs += traced.durs[i]
		refMs += ref.durs[i]
	}
	if refMs > 0 {
		r.layer["trace.overhead_pct"] = 100 * (tracedMs/refMs - 1)
	}
	return nil
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// layerMetrics turns the traced run's spans and counts into the per-layer
// metrics, and runs the replays of the layers no seam reaches.
func (w *world) layerMetrics(r *run, legs []*legRecord) error {
	tr := r.tr
	r.layer["experiment.build_s"] = median(tr.durations("experiment.build"))
	var price float64
	for _, d := range tr.durations("game.price") {
		price += d
	}
	r.layer["game.price_s"] = price / float64(w.ts.setups)
	r.layer["engine.open_s"] = median(tr.durations("engine.open"))
	for _, m := range []struct{ metric, span string }{
		{"engine.sample_ms", "engine.sample"},
		{"engine.dispatch_ms", "engine.dispatch"},
		{"engine.merge_ms", "engine.merge"},
		{"engine.aggregate_ms", "engine.aggregate"},
		{"engine.eval_ms", "engine.eval"},
		{"checkpoint.commit_ms", "checkpoint.commit"},
	} {
		r.layer[m.metric] = median(tr.perRound(m.span))
	}
	for _, c := range []string{"engine.participants", "engine.landed", "engine.partials"} {
		r.layer[c] = tr.roundMean(c)
	}
	r.layer["engine.sockets"] = tr.peaks["engine.sockets"]
	r.layer["model.steps"], r.layer["model.step_busy_ms"] = tr.stepMeans()
	if w.ts.cluster {
		return w.transportReplay(r, legs[0])
	}
	return nil
}
