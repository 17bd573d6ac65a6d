package main

import (
	"context"
	"fmt"
	"math"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/heuristic"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/obs"
)

// offline is a closed loop with one client calling floorplanner.Solve
// in-process. Part (b) runs milp-o and milp-ho on SDR2 and SDR3 at a
// fixed budget and scores their objectives against exact's proven
// optimum; part (a) then runs exact under a fixed per-solve budget on
// relabelings of the instance library until the run's time is up.
type offline struct {
	cfg  *config
	chk  *checker
	cyc  *cycler
	milp []base // the MILP cells' instances
	ops  int64
}

// Per-solve budgets of the offline workload. The MILP budget is 3s: both
// engines give their constructive seed a quarter of it, and the seed takes
// 250-350ms on SDR3, so at 1s milp-o sometimes returns no solution at all.
const (
	offlineExactBudget = time.Second
	offlineMILPBudget  = 3 * time.Second
)

func setupOffline(cfg *config, chk *checker) (runner, error) {
	o := &offline{
		cfg:  cfg,
		chk:  chk,
		cyc:  newCycler(cfg.seed, cfg.library),
		milp: paperBases()[1:],
	}
	// The MILP cells are scored against these proven optima.
	for _, b := range o.milp {
		sol, err := floorplanner.Solve(context.Background(), b.p, floorplanner.Options{Engine: "exact", TimeLimit: 30 * time.Second})
		if err != nil {
			return nil, fmt.Errorf("reference solve of %s: %w", b.name, err)
		}
		if !sol.Proven {
			return nil, fmt.Errorf("reference solve of %s: exact did not prove optimality", b.name)
		}
		if err := guard.CheckSolution("exact", b.p, sol); err != nil {
			return nil, err
		}
		if err := chk.checkOptimum(b.name, sol.Objective(b.p), true); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *offline) close() {}

// solve runs one engine on one instance, checks the answer, and records
// it under parent.
func (o *offline) solve(tr *tracer, parent, op int64, engine string, in instance, budget time.Duration) (*core.Solution, time.Duration, *obs.Recorder, bool) {
	var rec *obs.Recorder
	var probe floorplanner.Probe
	if tr != nil {
		rec = floorplanner.NewRecorder()
		probe = rec
	}
	sid := tr.begin(spanSolve, parent, op)
	start := time.Now()
	sol, err := floorplanner.Solve(context.Background(), in.p, floorplanner.Options{Engine: engine, TimeLimit: budget, Probe: probe})
	elapsed := time.Since(start)
	tr.end(sid)
	if err == nil && o.cfg.tamper != nil {
		o.cfg.tamper(in.p, sol)
	}
	if err == nil {
		cid := tr.begin(spanCheck, parent, op)
		err = guard.CheckSolution(engine, in.p, sol)
		tr.end(cid)
	}
	if err == nil {
		err = o.chk.checkOptimum(in.base, sol.Objective(in.p), sol.Proven)
	}
	if err != nil {
		err = fmt.Errorf("%s on %s: %w", engine, in.base, err)
	}
	return sol, elapsed, rec, o.chk.op(err)
}

func (o *offline) measure(tr *tracer) values {
	v := values{}
	deadline := time.Now().Add(o.cfg.seconds)

	// Part (b): the paper's method at a fixed budget, scored by quality.
	var excess, seedMS []float64
	var pivots int64
	var cellSec float64
	for _, b := range o.milp {
		opt, _ := o.chk.optimumOf(b.name)
		for _, engine := range []string{"milp-o", "milp-ho"} {
			o.ops++
			in := o.cyc.relabel(b)
			root := tr.begin(spanCell, 0, o.ops)
			sol, elapsed, rec, ok := o.solve(tr, root, o.ops, engine, in, offlineMILPBudget)
			tr.end(root)
			cellSec += elapsed.Seconds()
			if ok {
				excess = append(excess, excessPct(sol.Objective(in.p), opt))
			}
			if rec != nil {
				pivots += rec.Total(obs.Pivots)
				if end, found := rec.EndOf("constructive"); found && engine == "milp-ho" {
					seedMS = append(seedMS, ms(end.At))
				}
			}
		}
	}
	v["quality_loss_pct"] = mean(excess)

	// Part (a): exact under a fixed per-solve budget, in whole rounds of
	// the library: at least one, and the last one started before the
	// deadline finishes.
	lat := map[string][]float64{} // by base
	var solves int
	var solveSec float64
	var nodes int64
	hits0, misses0 := core.CandCacheStats()
	for {
		o.ops++
		in := o.cyc.next()
		root := tr.begin(spanInstance, 0, o.ops)
		_, elapsed, rec, _ := o.solve(tr, root, o.ops, "exact", in, offlineExactBudget)
		lat[in.base] = append(lat[in.base], ms(elapsed))
		solves++
		solveSec += elapsed.Seconds()
		if rec != nil {
			nodes += rec.Total(obs.Nodes)
			for _, r := range in.p.Regions {
				eid := tr.begin(spanEnumerate, root, o.ops)
				core.EnumerateCandidates(in.p.Device, r.Req)
				tr.end(eid)
			}
		}
		tr.end(root)
		if o.cyc.roundDone() && !time.Now().Before(deadline) {
			break
		}
	}
	// The latency percentiles and the throughput are taken over the
	// library's designs, each design's latency being its median over the
	// rounds. A single solve's time moves by up to a fifth from noise
	// alone, and the p99 of all solves would be one order statistic of the
	// slowest design's few solves.
	var perBase []float64
	for _, xs := range lat {
		perBase = append(perBase, median(xs))
	}
	closedLoopMetrics(v, perBase)
	if tr == nil {
		return v
	}

	hits, misses := core.CandCacheStats()
	hits, misses = hits-hits0, misses-misses0
	v["core.cand_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	spans := tr.durations()
	v["core.enumerate_ms"] = mean(spans[spanEnumerate])
	v["guard.check_ms"] = mean(spans[spanCheck])
	v["exact.nodes"] = ratio(float64(nodes), float64(solves))
	v["exact.nodes_per_s"] = ratio(float64(nodes), solveSec)
	v["lp.pivots_per_s"] = ratio(float64(pivots), cellSec)
	v["heuristic.seed_ms"] = mean(seedMS)
	o.layers(tr, v)
	return v
}

// layers times direct calls into the MILP stack on the MILP cells'
// instances: model.Build, the root LP relaxation (lp.Solve), and
// milp.Solve warm-started from the constructive seed at the cells'
// budget. It runs after the measured window.
func (o *offline) layers(tr *tracer, v values) {
	var buildMS, rootMS, rootPivots, nodes, nodesPerS, gaps []float64
	for _, b := range o.milp {
		o.ops++
		start := time.Now()
		id := tr.begin(spanBuild, 0, o.ops)
		c, err := model.Build(b.p, model.Options{})
		tr.end(id)
		buildMS = append(buildMS, ms(time.Since(start)))
		if !o.chk.op(err) {
			continue
		}

		start = time.Now()
		id = tr.begin(spanLPRoot, 0, o.ops)
		root := lp.Solve(c.LP, lp.Options{Deadline: start.Add(30 * time.Second)})
		tr.end(id)
		rootMS = append(rootMS, ms(time.Since(start)))
		rootPivots = append(rootPivots, float64(root.Iterations))
		if !o.chk.op(lpStatusErr(b.name, root.Status)) {
			continue
		}

		seed, err := (&heuristic.Constructive{}).Solve(context.Background(), b.p, core.SolveOptions{TimeLimit: offlineMILPBudget})
		var ws []float64
		if err == nil {
			ws, err = c.WarmStartFrom(seed)
		}
		if !o.chk.op(err) {
			continue
		}
		id = tr.begin(spanMILP, 0, o.ops)
		res := milp.Solve(context.Background(), c.LP, milp.Options{TimeLimit: offlineMILPBudget, WarmStart: ws})
		tr.end(id)
		nodes = append(nodes, float64(res.Nodes))
		nodesPerS = append(nodesPerS, ratio(float64(res.Nodes), res.Elapsed.Seconds()))
		if gap := res.Gap(); !math.IsInf(gap, 0) && !math.IsNaN(gap) {
			gaps = append(gaps, gap)
		}
		o.chk.op(o.checkIncumbent(b, c, res))
	}
	v["model.build_ms"] = mean(buildMS)
	v["lp.root_ms"] = mean(rootMS)
	v["lp.root_pivots"] = mean(rootPivots)
	v["milp.nodes"] = mean(nodes)
	v["milp.nodes_per_s"] = mean(nodesPerS)
	v["milp.final_gap"] = mean(gaps)
}

// checkIncumbent decodes the direct MILP solve's incumbent and holds it
// to the validator and to exact's optimum.
func (o *offline) checkIncumbent(b base, c *model.Compiled, res milp.Result) error {
	if res.X == nil {
		return fmt.Errorf("milp.Solve on %s: no incumbent despite a warm start", b.name)
	}
	sol, err := c.Decode(res.X)
	if err != nil {
		return fmt.Errorf("milp.Solve on %s: %w", b.name, err)
	}
	if err := guard.CheckSolution("milp", b.p, sol); err != nil {
		return err
	}
	return o.chk.checkOptimum(b.name, sol.Objective(b.p), false)
}

func lpStatusErr(name string, st lp.Status) error {
	if st != lp.StatusOptimal {
		return fmt.Errorf("root LP of %s ended %s", name, st)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
