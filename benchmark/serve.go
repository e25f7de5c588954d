package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"unbiasedfl/internal/game"
	"unbiasedfl/internal/serve"
	"unbiasedfl/internal/stats"
)

// serveSpec sizes the serve-quotes workload.
type serveSpec struct {
	clients int // market size: clients per quoted game
	// cacheSize is the quote cache's capacity. Set-up primes it full, so the
	// cache — most of the process's memory — stays the same size all run.
	cacheSize int
	distinct  int // primed markets the hit phase cycles through, as flserve -load's -distinct
	conns     int // closed-loop workers, one keep-alive connection each
	setups    int // set-ups timed per run; setup_s is their median
	solves    int // fresh markets solved in-process for game.solve_us
}

// quoteServer is an in-process serve.Server on a loopback listener.
type quoteServer struct {
	cancel context.CancelFunc
	done   chan error
	url    string
	client *http.Client
}

func startServer(ss serveSpec) (*quoteServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{CacheSize: ss.cacheSize, DrainTimeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return &quoteServer{
		cancel: cancel,
		done:   done,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConns: ss.conns, MaxIdleConnsPerHost: ss.conns},
		},
	}, nil
}

// stop drains the server and waits for it to return.
func (s *quoteServer) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// quote posts one quote request and returns the response body.
func (s *quoteServer) quote(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/v1/quote", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("quote returned %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// cacheCounters scrapes the quote cache's hit and miss totals from /metrics.
func (s *quoteServer) cacheCounters() (hits, misses uint64, err error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		for _, m := range []struct {
			prefix string
			dst    *uint64
		}{{"flserve_cache_hits_total ", &hits}, {"flserve_cache_misses_total ", &misses}} {
			if v, ok := strings.CutPrefix(sc.Text(), m.prefix); ok {
				if *m.dst, err = strconv.ParseUint(strings.TrimSpace(v), 10, 64); err != nil {
					return 0, 0, fmt.Errorf("metric line %q: %w", sc.Text(), err)
				}
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics lacks the cache counters")
	}
	return hits, misses, nil
}

// market draws quoted game id of the run's seed: data weights, gradient
// bounds, costs and valuations spread around the Table-I scale, with a
// budget that binds.
func market(seed, id uint64, clients int) serve.ParamsJSON {
	rng := stats.NewRNG(legSeed(seed, int(id)))
	pj := serve.ParamsJSON{
		A: make([]float64, clients), G: make([]float64, clients),
		C: make([]float64, clients), V: make([]float64, clients),
		Alpha: 1, Beta: 1, R: 100, QMax: 1,
	}
	var asum float64
	for j := 0; j < clients; j++ {
		pj.A[j] = 0.5 + rng.Float64()
		asum += pj.A[j]
		pj.G[j] = 0.5 + 0.5*rng.Float64()
		pj.C[j] = 40 + 20*rng.Float64()
		pj.V[j] = 3000 + 1000*rng.Float64()
	}
	for j := range pj.A {
		pj.A[j] /= asum
	}
	pj.B = float64(clients) * (15 + 5*rng.Float64())
	return pj
}

func quoteBody(pj serve.ParamsJSON) ([]byte, error) {
	return json.Marshal(serve.QuoteRequest{Scheme: game.SchemeNameProposed, Params: pj})
}

// validQuote checks a fresh market's quote apart from the server: one price
// and level per client, 0 < q_n ≤ QMax, and spend Σ P_n q_n within budget.
func validQuote(body []byte, pj serve.ParamsJSON) error {
	var resp serve.QuoteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.P) != len(pj.A) || len(resp.Q) != len(pj.A) {
		return fmt.Errorf("%d prices and %d levels for %d clients", len(resp.P), len(resp.Q), len(pj.A))
	}
	var spend float64
	for n, q := range resp.Q {
		if !(q > 0 && q <= pj.QMax) {
			return fmt.Errorf("q[%d] = %v outside (0, %v]", n, q, pj.QMax)
		}
		spend += resp.P[n] * q
	}
	if spend > pj.B*(1+1e-9) {
		return fmt.Errorf("spend %v over budget %v", spend, pj.B)
	}
	return nil
}

// quoted is a market quoted fresh, kept so it can be asked for again: its
// body and the response every cached quote must return byte for byte.
type quoted struct {
	body, response []byte
}

// prime quotes markets first … first+n−1 once each, each a cache miss, and
// validates every response. It returns the last ss.distinct markets, which
// the FIFO cache still holds.
func prime(s *quoteServer, ss serveSpec, seed, first uint64, n int) ([]quoted, error) {
	var tail []quoted
	for i := 0; i < n; i++ {
		pj := market(seed, first+uint64(i), ss.clients)
		body, err := quoteBody(pj)
		if err != nil {
			return nil, err
		}
		resp, err := s.quote(body)
		if err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		if err := validQuote(resp, pj); err != nil {
			return nil, fmt.Errorf("primed market %d: %w", first+uint64(i), err)
		}
		if i >= n-ss.distinct {
			tail = append(tail, quoted{body, resp})
		}
	}
	return tail, nil
}

// phaseOut is the outcome of one closed-loop phase.
type phaseOut struct {
	quotes, invalid, failed int
	latencies               []float64 // µs
	elapsed                 time.Duration
	firstErr                error
}

// closedLoop drives the server with ss.conns workers, one keep-alive
// connection each, until d has passed: worker wk's g-th request is
// request(wk, g), sent once the previous response is read, and check
// validates its response.
func closedLoop(s *quoteServer, ss serveSpec, d time.Duration, span string, tr *tracer,
	request func(wk, g int) ([]byte, func([]byte) bool, error)) *phaseOut {
	results := make([]phaseOut, ss.conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for wk := 0; wk < ss.conns; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			res := &results[wk]
			fail := func(err error) {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
			}
			for g := 0; time.Now().Before(deadline); g++ {
				body, check, err := request(wk, g)
				if err != nil {
					fail(err)
					continue
				}
				t0 := time.Now()
				resp, err := s.quote(body)
				t1 := time.Now()
				if err != nil {
					fail(err)
					continue
				}
				tr.closed(span, t0, t1)
				res.quotes++
				res.latencies = append(res.latencies, float64(t1.Sub(t0))/1e3)
				if !check(resp) {
					res.invalid++
				}
			}
		}(wk)
	}
	wg.Wait()
	out := &phaseOut{elapsed: time.Since(start)}
	for _, res := range results {
		out.quotes += res.quotes
		out.invalid += res.invalid
		out.failed += res.failed
		out.latencies = append(out.latencies, res.latencies...)
		if out.firstErr == nil {
			out.firstErr = res.firstErr
		}
	}
	return out
}

// hitPhase cycles the workers through the cached markets in tail, as
// flserve -load does: every quote hits and must return the market's first
// response byte for byte.
func hitPhase(s *quoteServer, ss serveSpec, tail []quoted, d time.Duration, tr *tracer) *phaseOut {
	return closedLoop(s, ss, d, "serve.quote.hit", tr, func(wk, g int) ([]byte, func([]byte) bool, error) {
		q := tail[(g*ss.conns+wk)%len(tail)]
		return q.body, func(resp []byte) bool { return bytes.Equal(resp, q.response) }, nil
	})
}

// missPhase quotes a fresh market, never quoted before, with every request:
// every quote misses the cache and forces a KKT solve, and must be feasible.
// Fresh market ids start at freshBase.
func missPhase(s *quoteServer, ss serveSpec, seed, freshBase uint64, d time.Duration, tr *tracer) *phaseOut {
	return closedLoop(s, ss, d, "serve.quote.miss", tr, func(wk, g int) ([]byte, func([]byte) bool, error) {
		pj := market(seed, freshBase+uint64(g*ss.conns+wk), ss.clients)
		body, err := quoteBody(pj)
		return body, func(resp []byte) bool { return validQuote(resp, pj) == nil }, err
	})
}

// runServe runs the serve-quotes workload. Its timed window is two phases
// of half the run each: cached quotes (hits), then fresh markets (misses).
// throughput_per_s is the hit phase's rate and latency_p50_ms the miss
// phase's median, so each path moves a metric of its own whatever the mix
// of real traffic.
func runServe(ctx context.Context, r *run, ss serveSpec) error {
	var (
		setupS []float64
		srv    *quoteServer
		tail   []quoted
	)
	for i := 0; i < ss.setups; i++ {
		t0 := time.Now()
		id := r.tr.begin("setup")
		s, err := startServer(ss)
		if err != nil {
			return err
		}
		p, err := prime(s, ss, r.seed, 0, ss.cacheSize)
		r.tr.end(id)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			_ = s.stop()
			return err
		}
		if i < ss.setups-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stop server: %w", err)
			}
			continue
		}
		srv, tail = s, p
	}
	defer srv.stop()

	hits0, misses0, err := srv.cacheCounters()
	if err != nil {
		return err
	}
	r.check("serve.priming", hits0 == 0 && misses0 == uint64(ss.cacheSize),
		"%d primed markets: %d misses, %d hits", ss.cacheSize, misses0, hits0)

	p0 := readPhase()
	wid := r.tr.begin("serve.window")
	hit := hitPhase(srv, ss, tail, r.window/2, r.tr)
	miss := missPhase(srv, ss, r.seed, 1<<32, r.window/2, r.tr)
	r.tr.end(wid)
	if r.tr != nil {
		r.recordPhase(p0)
	}
	hits1, misses1, err := srv.cacheCounters()
	if err != nil {
		return err
	}
	hits, misses := hits1-hits0, misses1-misses0

	r.attempted = hit.quotes + hit.failed + miss.quotes + miss.failed
	r.failed = hit.failed + miss.failed
	for _, ph := range []*phaseOut{hit, miss} {
		if ph.firstErr != nil {
			fmt.Println("first failure:", ph.firstErr)
		}
	}
	r.check("serve.hits_identical", hit.invalid == 0,
		"%d of %d cached quotes differ from the market's first quote", hit.invalid, hit.quotes)
	r.check("serve.fresh_feasible", miss.invalid == 0,
		"%d of %d fresh quotes infeasible", miss.invalid, miss.quotes)
	r.check("serve.cache_accounting", hits == uint64(hit.quotes) && misses == uint64(miss.quotes),
		"%d cached and %d fresh quotes: %d hits, %d misses", hit.quotes, miss.quotes, hits, misses)

	r.e2e["setup_s"] = median(setupS)
	r.e2e["latency_p50_ms"] = median(miss.latencies) / 1e3
	r.e2e["throughput_per_s"] = float64(hit.quotes) / hit.elapsed.Seconds()
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if r.tr == nil {
		return nil
	}

	r.layer["serve.cache_hits"] = float64(hits)
	r.layer["serve.cache_misses"] = float64(misses)
	r.layer["serve.quote_p90_us"] = quantile(miss.latencies, 0.90)
	r.layer["serve.quote_p99_us"] = quantile(miss.latencies, 0.99)
	solve, err := solveReplay(r, ss)
	if err != nil {
		return err
	}
	r.layer["game.solve_us"] = solve
	// An untraced reference window gives the tracing overhead. The miss
	// phase has evicted the primed markets, so it primes distinct fresh ones
	// to cycle through; its hits must still be byte-identical.
	refTail, err := prime(srv, ss, r.seed, 1<<40, ss.distinct)
	if err != nil {
		return err
	}
	d := min(r.window/4, 2*time.Second) / 2
	refHit := hitPhase(srv, ss, refTail, d, nil)
	refMiss := missPhase(srv, ss, r.seed, 1<<44, d, nil)
	r.check("trace.responses_unperturbed", refHit.invalid+refMiss.invalid+refHit.failed+refMiss.failed == 0,
		"untraced reference window: %d invalid, %d failed",
		refHit.invalid+refMiss.invalid, refHit.failed+refMiss.failed)
	if refP50 := median(refMiss.latencies); refP50 > 0 {
		r.layer["trace.overhead_pct"] = 100 * (median(miss.latencies)/refP50 - 1)
	}
	return nil
}

// solveReplay times the proposed scheme's pricing of fresh markets of the
// served size in-process: the solve a cache miss pays, without HTTP.
func solveReplay(r *run, ss serveSpec) (float64, error) {
	ps, err := game.SchemeByName(game.SchemeNameProposed)
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, ss.solves)
	for i := 0; i < ss.solves; i++ {
		pj := market(r.seed, 1<<48+uint64(i), ss.clients)
		p, err := pj.ToGame()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := ps.Price(p); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0))/1e3)
	}
	return median(times), nil
}
