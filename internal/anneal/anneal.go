// Package anneal provides the comparison optimizers the paper lists as
// alternatives for PART-IDDQ ("a variety of algorithms has been proposed
// for such kind of problems (force-driven, simulated annealing, Monte
// Carlo, genetic, e.g.)", §4): a simulated-annealing partitioner and a
// zero-temperature greedy hill climber. Both operate on the same
// partition moves as the evolution strategy, so the three optimizers are
// directly comparable — the experiments use them to show that the
// evolution strategy's Monte-Carlo descendants and lifetime-limited
// selection earn their keep against simpler local search.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

// contain converts a panic escaping an optimizer body into an error (the
// same containment the evolution worker pool applies per descendant).
// Error-valued panics — the estimator's numeric guards, injected faults —
// are wrapped rather than stringified so errors.Is sees through the
// recover boundary. Used as: defer contain(&err, "annealing").
func contain(err *error, optimizer string) {
	r := recover()
	if r == nil {
		return
	}
	if perr, ok := r.(error); ok {
		*err = fmt.Errorf("anneal: %s panicked: %w", optimizer, perr)
	} else {
		*err = fmt.Errorf("anneal: %s panicked: %v", optimizer, r)
	}
}

// checkFinite rejects a NaN/Inf move cost: a poisoned estimate must stop
// the run with a named error instead of silently steering acceptance.
func checkFinite(cost float64, moves int) error {
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return fmt.Errorf("anneal: move %d cost is %g: %w", moves, cost, partition.ErrNonFiniteCost)
	}
	return nil
}

// Params configures the annealing schedule.
type Params struct {
	// InitialTemp sets T₀. Zero selects it automatically from the cost
	// scale of random moves (a standard calibration pass).
	InitialTemp float64
	// Cooling is the geometric cooling factor per epoch, in (0, 1).
	Cooling float64
	// MovesPerEpoch is the number of attempted moves at each temperature.
	MovesPerEpoch int
	// MinTemp ends the schedule.
	MinTemp float64
	// MaxMoves bounds the total number of attempted moves.
	MaxMoves int
	Seed     int64
}

// DefaultParams returns a schedule that converges on the benchmark
// circuits in time comparable to the evolution strategy's budget.
func DefaultParams() Params {
	return Params{
		Cooling:       0.92,
		MovesPerEpoch: 400,
		MinTemp:       1e-4,
		MaxMoves:      200000,
		Seed:          1,
	}
}

func (p Params) validate() error {
	switch {
	case p.Cooling <= 0 || p.Cooling >= 1:
		return fmt.Errorf("anneal: cooling factor must be in (0,1)")
	case p.MovesPerEpoch < 1:
		return fmt.Errorf("anneal: moves per epoch must be >= 1")
	case p.MinTemp <= 0:
		return fmt.Errorf("anneal: minimum temperature must be positive")
	case p.MaxMoves < 1:
		return fmt.Errorf("anneal: move budget must be >= 1")
	case p.InitialTemp < 0:
		return fmt.Errorf("anneal: negative initial temperature")
	}
	return nil
}

// Result reports an annealing or hill-climbing run.
type Result struct {
	Best     *partition.Partition
	BestCost float64
	Moves    int // attempted moves
	Accepted int

	// Interrupted reports that the run was cancelled and Best holds the
	// best-so-far partition rather than a converged one. Err then wraps
	// the context's error; interruption is not a failure, so the
	// optimizer's error return stays nil.
	Interrupted bool
	Err         error
}

// interrupt marks the result best-so-far and wraps the context error.
func (r *Result) interrupt(ctxErr error, optimizer string) {
	r.Interrupted = true
	r.Err = fmt.Errorf("anneal: %s interrupted after %d moves: %w", optimizer, r.Moves, ctxErr)
}

// moveBuf holds the reusable buffers of randomMove. One buffer serves a
// whole optimizer run; the slices never escape a single call.
type moveBuf struct {
	gates   []int  // boundary gates of the source module
	targets []int  // legal target modules of one gate
	one     [1]int // single-gate argument for MoveGates
}

// randomMove applies one random boundary-gate move in place and returns
// false if the partition has no legal move.
//
//lint:hotpath anneal/hill-climb move generator — one call per candidate move
func randomMove(p *partition.Partition, rng *rand.Rand, sc *moveBuf) bool {
	if p.NumModules() < 2 {
		return false
	}
	for attempt := 0; attempt < 8; attempt++ {
		src := rng.Intn(p.NumModules())
		boundary := p.AppendBoundaryGates(sc.gates[:0], src)
		sc.gates = boundary[:0]
		if len(boundary) == 0 {
			continue
		}
		g := boundary[rng.Intn(len(boundary))]
		targets := p.AppendConnectedModules(sc.targets[:0], g)
		sc.targets = targets[:0]
		if len(targets) == 0 {
			continue
		}
		sc.one[0] = g
		if _, err := p.MoveGates(sc.one[:], src, targets[rng.Intn(len(targets))]); err == nil {
			return true
		}
	}
	return false
}

// Anneal runs simulated annealing from the start partition. The start is
// not modified. The context is checked at every temperature-epoch
// boundary, and a cancelled run returns the best-so-far Result with
// Interrupted set (and a nil error) instead of discarding the work done so
// far. A panic inside the move loop (an estimator numeric guard, an
// injected fault) is contained into an error; non-finite move costs end
// the run with an error wrapping partition.ErrNonFiniteCost. Both keep the
// best-so-far Result when one exists.
func Anneal(ctx context.Context, start *partition.Partition, prm Params) (res *Result, err error) {
	defer contain(&err, "annealing")
	if err := prm.validate(); err != nil {
		return nil, err
	}
	inj := chaos.FromContext(ctx)
	// Telemetry from the context; every handle is nil (and every record a
	// no-op) on unobserved runs.
	o := obs.FromContext(ctx)
	log := o.Log()
	moves := o.Counter(MetricMoves)
	accepted := o.Counter(MetricAccepted)
	epochs := o.Counter(MetricEpochs)
	tempG := o.Gauge(MetricTemperatureGauge)
	bestG := o.Gauge(MetricBestCostGauge)

	rng := rand.New(rand.NewSource(prm.Seed))
	cur := start.Clone()
	curCost := cur.PenalisedCost()
	res = &Result{Best: cur.Clone(), BestCost: curCost}
	var mb moveBuf

	temp := prm.InitialTemp
	if temp == 0 {
		temp = calibrateTemp(cur, curCost, rng, &mb)
	}
	log.Info("anneal run begin",
		"circuit", start.E.A.Circuit.Name, "initial_temp", temp,
		"cooling", prm.Cooling, "max_moves", prm.MaxMoves, "seed", prm.Seed)
	bestG.Set(res.BestCost)

	for temp > prm.MinTemp && res.Moves < prm.MaxMoves {
		if err := ctx.Err(); err != nil {
			res.interrupt(err, "annealing")
			log.Warn("anneal run interrupted",
				"moves", res.Moves, "best_cost", res.BestCost)
			return res, nil
		}
		for i := 0; i < prm.MovesPerEpoch && res.Moves < prm.MaxMoves; i++ {
			cand := cur.Clone()
			if !randomMove(cand, rng, &mb) {
				res.Moves = prm.MaxMoves
				break
			}
			res.Moves++
			moves.Inc()
			inj.MustPass(chaos.SiteAnnealPanic)
			inj.Sleep(chaos.SiteAnnealDelay)
			candCost := cand.PenalisedCost()
			if err := checkFinite(candCost, res.Moves); err != nil {
				return res, err
			}
			delta := candCost - curCost
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur, curCost = cand, candCost
				res.Accepted++
				accepted.Inc()
				if curCost < res.BestCost {
					res.BestCost = curCost
					res.Best = cur.Clone()
					bestG.Set(curCost)
				}
			}
		}
		epochs.Inc()
		tempG.Set(temp)
		log.Debug("anneal epoch",
			"temp", temp, "moves", res.Moves,
			"accepted", res.Accepted, "best_cost", res.BestCost)
		temp *= prm.Cooling
	}
	log.Info("anneal run end",
		"moves", res.Moves, "accepted", res.Accepted, "best_cost", res.BestCost)
	return res, nil
}

// calibrateTemp samples random moves and sets T₀ so an average uphill
// move is accepted with probability ≈ 0.8 (the classic Kirkpatrick
// initialisation).
func calibrateTemp(p *partition.Partition, baseCost float64, rng *rand.Rand, mb *moveBuf) float64 {
	var upSum float64
	ups := 0
	for i := 0; i < 24; i++ {
		cand := p.Clone()
		if !randomMove(cand, rng, mb) {
			break
		}
		if d := cand.PenalisedCost() - baseCost; d > 0 {
			upSum += d
			ups++
		}
	}
	if ups == 0 {
		return 1.0
	}
	return (upSum / float64(ups)) / -math.Log(0.8)
}

// hillClimbCheckEvery is how many attempted moves pass between two
// cancellation checks of HillClimb (the climber has no epochs, so
// the check runs on a fixed move cadence).
const hillClimbCheckEvery = 64

// HillClimb runs zero-temperature greedy local search: only improving
// moves are accepted; the search stops after `patience` consecutive
// rejected moves or when the move budget is exhausted. It is the
// strawman the §4 Monte-Carlo descendants are designed to beat.
// Cancellation, panic containment and non-finite costs are handled as in
// Anneal; the context is checked every hillClimbCheckEvery moves.
func HillClimb(ctx context.Context, start *partition.Partition, maxMoves, patience int, seed int64) (res *Result, err error) {
	defer contain(&err, "hill climb")
	if maxMoves < 1 || patience < 1 {
		return nil, fmt.Errorf("anneal: hill climb needs positive budgets")
	}
	inj := chaos.FromContext(ctx)
	o := obs.FromContext(ctx)
	log := o.Log()
	moves := o.Counter(MetricHillClimbMoves)
	accepted := o.Counter(MetricHillClimbAccepted)
	bestG := o.Gauge(MetricHillClimbBestCostGauge)

	rng := rand.New(rand.NewSource(seed))
	cur := start.Clone()
	curCost := cur.PenalisedCost()
	res = &Result{Best: cur.Clone(), BestCost: curCost}
	log.Info("hill climb begin",
		"circuit", start.E.A.Circuit.Name, "max_moves", maxMoves,
		"patience", patience, "seed", seed)
	bestG.Set(res.BestCost)
	rejected := 0
	var mb moveBuf
	for res.Moves < maxMoves && rejected < patience {
		if res.Moves%hillClimbCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				res.interrupt(err, "hill climb")
				log.Warn("hill climb interrupted",
					"moves", res.Moves, "best_cost", res.BestCost)
				return res, nil
			}
		}
		cand := cur.Clone()
		if !randomMove(cand, rng, &mb) {
			break
		}
		res.Moves++
		moves.Inc()
		inj.MustPass(chaos.SiteAnnealPanic)
		inj.Sleep(chaos.SiteAnnealDelay)
		candCost := cand.PenalisedCost()
		if err := checkFinite(candCost, res.Moves); err != nil {
			return res, err
		}
		if candCost < curCost {
			cur, curCost = cand, candCost
			res.Accepted++
			accepted.Inc()
			rejected = 0
			if curCost < res.BestCost {
				res.BestCost = curCost
				res.Best = cur.Clone()
				bestG.Set(curCost)
			}
		} else {
			rejected++
		}
	}
	log.Info("hill climb end",
		"moves", res.Moves, "accepted", res.Accepted, "best_cost", res.BestCost)
	return res, nil
}
