package main

import (
	"fmt"
	"math"
	"math/big"
	"net"
	"time"

	"unbiasedfl/internal/fixpoint"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/transport"
)

// Two layers sit inside the backends where no seam reaches them: the
// fixed-point fold and the wire codec. The benchmark replays each at the
// workload's real shapes after the timed phase.

// deltaPool is how many distinct synthetic deltas the fold replay cycles
// through: client n folds delta n mod deltaPool, as clients sharing one of
// 40 data shards would.
const deltaPool = 40

// foldCheckCoords is how many parameters the exact-sum check covers.
const foldCheckCoords = 16

// foldReplay folds one round of the first leg — its sampled participants,
// each scaled by a_n/q_n, over synthetic deltas drawn from the seed — into a
// fixpoint.Acc. The accumulated integers must lie within one 2^-81 rounding
// per addend of the exact math/big sum of the same float products. A traced
// run also times the fold.
func (w *world) foldReplay(r *run, leg *legRecord) error {
	q := w.priced[leg.scheme].q
	twin, err := fl.NewBernoulliSampler(q, stats.NewRNG(leg.seed))
	if err != nil {
		return err
	}
	ids := twin.Sample(0)
	weights := w.env.Fed.Weights
	params := w.env.Model.NumParams()
	pool := syntheticDeltas(r.seed, params)

	acc := fixpoint.New(params)
	fold := func() (time.Duration, error) {
		acc.Reset()
		t0 := time.Now()
		for _, n := range ids {
			if err := acc.AddScaled(weights[n]/q[n], pool[n%deltaPool]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	var times []float64
	var spent time.Duration
	for len(times) == 0 || (r.tr != nil && spent < 200*time.Millisecond) {
		d, err := fold()
		if err != nil {
			return err
		}
		times = append(times, float64(d))
		spent += d
	}
	if r.tr != nil {
		ns := median(times)
		r.layer["fixpoint.fold_ms"] = ns / 1e6
		if len(ids) > 0 {
			r.layer["fixpoint.ns_per_param"] = ns / float64(len(ids)*params)
		}
	}

	lo, hi, sat := acc.Limbs()
	worst := 0.0      // largest |integer sum − exact sum·2^80|, in grid units
	const prec = 2200 // covers the whole float64 exponent range plus carries
	for k := 0; k < foldCheckCoords && k < params; k++ {
		j := k * params / min(foldCheckCoords, params)
		exact := new(big.Float).SetPrec(prec)
		x := new(big.Float).SetPrec(prec)
		for _, n := range ids {
			exact.Add(exact, x.SetFloat64(weights[n]/q[n]*pool[n%deltaPool][j]))
		}
		exact.SetMantExp(exact, 80)
		sum := new(big.Float).SetPrec(prec).SetInt(int128(lo[j], hi[j]))
		d, _ := sum.Sub(sum, exact).Float64()
		worst = max(worst, math.Abs(d))
	}
	r.check("fixpoint.fold_exact", !sat && worst <= 0.5*float64(len(ids)),
		"%d addends x %d params, largest error %.3g grid units (bound %.1f), saturated %v",
		len(ids), params, worst, 0.5*float64(len(ids)), sat)
	return nil
}

// syntheticDeltas draws the fold replay's delta vectors, of the size and
// spread of a local update's delta.
func syntheticDeltas(seed uint64, params int) []tensor.Vec {
	rng := stats.NewRNG(seed ^ 0xF01D)
	pool := make([]tensor.Vec, deltaPool)
	for i := range pool {
		pool[i] = tensor.NewVec(params)
		for j := range pool[i] {
			pool[i][j] = 0.05 * rng.NormFloat64()
		}
	}
	return pool
}

// int128 reads a two's-complement 128-bit integer from its limbs.
func int128(lo, hi uint64) *big.Int {
	v := new(big.Int).SetInt64(int64(hi))
	v.Lsh(v, 64)
	return v.Add(v, new(big.Int).SetUint64(lo))
}

// countingConn counts the bytes written through a connection.
type countingConn struct {
	net.Conn
	written int
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written += n
	return n, err
}

// transportExchanges is how many round-start/update exchanges the codec
// replay times.
const transportExchanges = 200

// transportReplay sends the flat cluster round's two message shapes — the
// coordinator's round start carrying the global model, and a node's update
// carrying its delta and cursor — through transport.Codec over a loopback
// TCP pair, measuring bytes per frame and the time of one exchange.
func (w *world) transportReplay(r *run, leg *legRecord) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	a := <-ch
	if err != nil || a.err != nil {
		if a.conn != nil {
			a.conn.Close()
		}
		if dialed != nil {
			dialed.Close()
		}
		return fmt.Errorf("loopback pair: %v %v", err, a.err)
	}
	coordConn, nodeConn := &countingConn{Conn: a.conn}, &countingConn{Conn: dialed}
	coord, err := transport.NewCodec(coordConn, 10*time.Second)
	if err != nil {
		return err
	}
	defer coord.Close()
	node, err := transport.NewCodec(nodeConn, 10*time.Second)
	if err != nil {
		return err
	}
	defer node.Close()

	start := &transport.Message{Type: transport.MsgRoundStart, Round: 1, Model: leg.final, LR: 0.1}
	update := &transport.Message{
		Type: transport.MsgUpdate, ClientID: 1, Round: 1,
		Model: syntheticDeltas(r.seed, len(leg.final))[0], GradSqNorm: 1.5,
		Cursor: &transport.Cursor{RNG: [4]uint64{1, 2, 3, 4}, SqCount: 3, SqMean: 1.2, SqM2: 0.4},
	}
	// Messages are far smaller than the loopback socket buffers, so one
	// goroutine can play both ends.
	exchange := func() error {
		if err := coord.Send(start); err != nil {
			return err
		}
		if _, err := node.Recv(); err != nil {
			return err
		}
		if err := node.Send(update); err != nil {
			return err
		}
		_, err := coord.Recv()
		return err
	}
	// The first exchange on a connection also carries gob's type
	// descriptors; the cluster keeps its connections, so steady state is
	// what a round pays.
	if err := exchange(); err != nil {
		return err
	}
	c0, n0 := coordConn.written, nodeConn.written
	if err := exchange(); err != nil {
		return err
	}
	startBytes, updateBytes := coordConn.written-c0, nodeConn.written-n0
	times := make([]float64, 0, transportExchanges)
	for i := 0; i < transportExchanges; i++ {
		t0 := time.Now()
		if err := exchange(); err != nil {
			return err
		}
		times = append(times, float64(time.Since(t0))/1e3)
	}
	r.layer["transport.roundstart_bytes"] = float64(startBytes)
	r.layer["transport.update_bytes"] = float64(updateBytes)
	r.layer["transport.round_bytes"] = r.layer["engine.landed"] * float64(startBytes+updateBytes)
	r.layer["transport.codec_us"] = median(times)
	return nil
}
