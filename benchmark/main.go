// Command flbenchmark measures the federation end to end and layer by layer.
//
// One run executes one named workload for a fixed time and prints, as the
// last line of standard output, one JSON object: whether every correctness
// check passed, how many operations (training rounds or quotes) it attempted
// and how many failed, and its metrics. Build and run it through the
// launcher, which keeps every file it writes inside the checkout:
//
//	bash benchmark/run.sh --workload fleet-local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with nothing
// wrapped. With --trace 1 the same workload runs behind span-recording
// wrappers around the program's seams, and the metrics are the per-layer
// ones. README.md describes the workloads, the seeds and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two tables below mirror
// BENCHMARK.json; the smoke test keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"experiment.build_s", "s"},
	{"game.price_s", "s"},
	{"game.solve_us", "us"},
	{"engine.open_s", "s"},
	{"engine.sample_ms", "ms"},
	{"engine.dispatch_ms", "ms"},
	{"engine.merge_ms", "ms"},
	{"engine.aggregate_ms", "ms"},
	{"engine.eval_ms", "ms"},
	{"engine.participants", "count"},
	{"engine.landed", "count"},
	{"engine.partials", "count"},
	{"engine.sockets", "count"},
	{"model.steps", "count"},
	{"model.step_busy_ms", "ms"},
	{"fixpoint.ns_per_param", "ns"},
	{"fixpoint.fold_ms", "ms"},
	{"transport.update_bytes", "bytes"},
	{"transport.roundstart_bytes", "bytes"},
	{"transport.round_bytes", "bytes"},
	{"transport.codec_us", "us"},
	{"checkpoint.commit_ms", "ms"},
	{"checkpoint.snapshot_bytes", "bytes"},
	{"checkpoint.wal_bytes", "bytes"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.quote_p90_us", "us"},
	{"serve.quote_p99_us", "us"},
	{"proc.cpu_s", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.alloc_mb", "MB"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its body at a given scale.
var workloads = map[string]func(context.Context, *run, sizes) error{
	"paper-fig4":              func(ctx context.Context, r *run, s sizes) error { return runTraining(ctx, r, s.fig4) },
	"fleet-local":             func(ctx context.Context, r *run, s sizes) error { return runTraining(ctx, r, s.fleet) },
	"devices-cluster-durable": func(ctx context.Context, r *run, s sizes) error { return runTraining(ctx, r, s.devices) },
	"serve-quotes":            func(ctx context.Context, r *run, s sizes) error { return runServe(ctx, r, s.serve) },
}

// run is the state of one benchmark run: its inputs, the tracer when the run
// is traced, and everything it measured and checked.
type run struct {
	workload string
	seed     uint64
	window   time.Duration // length of the timed phase
	tr       *tracer       // nil in an untraced run
	dir      string        // scratch directory for checkpoint files

	attempted, failed int
	checks            []checkResult
	e2e               map[string]float64
	layer             map[string]float64
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newRun(workload string, seed uint64, window time.Duration, traced bool, dir string) *run {
	r := &run{
		workload: workload, seed: seed, window: window, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// check records the outcome of one correctness check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report assembles the final line. An untraced run must have measured every
// end-to-end metric as a positive number; a traced run reports every
// per-layer metric, with 0 for a layer the workload does not reach.
func (r *run) report() (*report, error) {
	rep := &report{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if r.tr == nil {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok || !(v > 0) {
				return nil, fmt.Errorf("workload %s measured no positive %s", r.workload, m.name)
			}
			rep.Metrics[m.name] = metricValue{v, m.unit}
		}
		return rep, nil
	}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
	}
	return rep, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run (paper-fig4, fleet-local, devices-cluster-durable, serve-quotes)")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs behind span-recording wrappers and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch, checkpoint and trace files")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "flbenchmark:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds, trace int, out string) error {
	body, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", workload, names)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	traces := filepath.Join(out, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := newRun(workload, seed, time.Duration(seconds)*time.Second, trace == 1, dir)
	host := startHost()
	if err := body(context.Background(), r, fullSizes); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	ctxRec := host.finish(r)
	rep, err := r.report()
	if err != nil {
		return err
	}

	if r.tr != nil {
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := r.tr.write(path, ctxRec); err != nil {
			return err
		}
		fmt.Println("trace", path)
	}
	for _, c := range r.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("check %-28s %-4s %s\n", c.Name, verdict, c.Detail)
	}
	ctxLine, err := json.Marshal(ctxRec)
	if err != nil {
		return err
	}
	fmt.Println("context", string(ctxLine))
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
