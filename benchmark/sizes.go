package main

import (
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
)

// sizes fixes the scale of every workload. The benchmark runs at fullSizes;
// the smoke test runs the same code at a tiny scale.
type sizes struct {
	fig4, fleet, devices trainSpec
	serve                serveSpec
}

var fig4Schemes = []string{game.SchemeNameProposed, game.SchemeNameWeighted, game.SchemeNameUniform}

var fullSizes = sizes{
	// The Fig. 4 comparison at the paper's per-round scale: Setup 2, 40
	// devices, E = 100, batch 24, every scheme in turn.
	fig4: trainSpec{
		setup: experiment.Setup2, clients: 40, localSteps: 100, batch: 24, calibration: 1,
		legRounds: 20, evalEvery: 5, schemes: fig4Schemes, setups: 9,
	},
	// A priced round at 10^5 synthesized clients over 40 shared shards,
	// folded in groups of 1000 on the local backend.
	fleet: trainSpec{
		setup: experiment.Setup1, clients: 100_000, shards: 40, localSteps: 1, batch: 8,
		groupSize: 1000, calibration: 1, evalEvery: 10,
		schemes: []string{game.SchemeNameProposed}, setups: 7,
	},
	// 1000 physical devices, one loopback socket each, flat dispatch, a
	// checkpoint committed every round; per-update compute as in fleet.
	devices: trainSpec{
		setup: experiment.Setup1, clients: 1000, shards: 40, localSteps: 1, batch: 8,
		calibration: 1, cluster: true, durable: true, evalEvery: 10,
		schemes: []string{game.SchemeNameProposed}, setups: 7,
	},
	// Closed-loop quotes over 2 keep-alive connections against a cache
	// primed full (the server's default 4096 games) with 40-client markets:
	// half the window cycles through 32 cached markets, as flserve -load
	// does by default; the other half quotes only fresh markets, each a
	// cache miss and a KKT solve.
	serve: serveSpec{clients: 40, cacheSize: 4096, distinct: 32, conns: 2, setups: 3, solves: 200},
}
