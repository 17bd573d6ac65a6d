// Package portfolio implements an algorithm-portfolio floorplanning
// engine: it races a configurable set of member engines concurrently
// under one shared deadline and returns the best answer any of them
// produces.
//
// The design follows the paper's own evaluation structure (Section VI
// contrasts the optimal MILP flow with fast heuristics under wall-clock
// budgets) and the observation of the follow-up floorplanners (Deak &
// Creț; Goswami & Bhatia) that cheap heuristics often match exact
// solvers on real instances — so the fastest service-grade answer is to
// run both and take whichever finishes best.
//
// Race semantics:
//
//   - Every member gets the same context, problem and SolveOptions (the
//     worker budget is split evenly) and runs in its own goroutine.
//   - A winner is ACCEPTED early in exactly two cases: a member returns a
//     proven-optimal solution (nothing can beat it under the paper's
//     lexicographic objective), or a trusted member proves infeasibility
//     (nothing can exist). Acceptance cancels the losers immediately.
//   - Otherwise the race runs until every member returns or the shared
//     deadline expires, and the best solution by objective cost wins —
//     so the portfolio is never worse than its best member under the
//     same budget.
//   - Member failures rank below solutions: a proven infeasibility from
//     a trusted (exact) member beats any heuristic failure, and
//     heuristic "infeasible" claims — which bounded backtracking cannot
//     actually prove — are degraded to exhausted-budget errors instead
//     of being reported as proofs.
//
// The race depends on the engine deadline contract (every member returns
// promptly once its TimeLimit or context expires); a small grace window
// bounds the wait for stragglers so one misbehaving member cannot stall
// the portfolio past its budget.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/guard"
	"repro/internal/heuristic"
	"repro/internal/model"
	"repro/internal/obs"
)

// Member is one engine in the race.
type Member struct {
	// Engine computes floorplans; it must honor ctx and TimeLimit.
	Engine core.Engine
	// TrustInfeasible marks engines whose ErrInfeasible is a proof
	// (exact, MILP). Untrusted members' infeasibility claims — e.g. the
	// constructive placer's bounded backtracking giving up — are treated
	// as exhausted budgets, not proofs.
	TrustInfeasible bool
}

// Portfolio races member engines under a shared budget. The zero value
// races DefaultMembers with no stats recording.
type Portfolio struct {
	// Members are the racing engines (empty = DefaultMembers()).
	Members []Member
	// Grace bounds the wait for stragglers after the shared deadline or
	// an accepted winner (0 = 150ms). Members honoring the deadline
	// contract return well within it.
	Grace time.Duration
	// Stats, when non-nil, receives per-member race/win/latency counts.
	Stats *Stats
}

// New returns a Portfolio over the given members (default set when none
// are given), recording into the process-wide Shared() stats.
func New(members ...Member) *Portfolio {
	return &Portfolio{Members: members, Stats: Shared()}
}

// DefaultMembers is the standard race: the exact engine (the only
// default member whose infeasibility verdicts are proofs), the paper's
// HO flow, and the three fast heuristics. milp-ho is deliberately NOT
// trusted: its MILP is restricted to the seed's sequence pair, so its
// infeasibility verdicts do not extend to the full problem.
func DefaultMembers() []Member {
	return []Member{
		{Engine: &exact.Engine{}, TrustInfeasible: true},
		{Engine: &model.HOEngine{}},
		{Engine: &heuristic.Constructive{}},
		{Engine: &heuristic.Annealing{}},
		{Engine: &heuristic.Tessellation{}},
	}
}

// Name implements core.Engine.
func (pf *Portfolio) Name() string { return "portfolio" }

// outcome is one member's race result.
type outcome struct {
	idx     int
	sol     *core.Solution
	err     error
	elapsed time.Duration
}

// Solve implements core.Engine: it races the members and returns the
// best accepted answer. The returned solution's Engine field names the
// winning member ("portfolio(exact)") so reports and the serving layer
// can attribute it.
func (pf *Portfolio) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (sol *core.Solution, err error) {
	opts = opts.Normalized()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	// Members inherit opts.Probe and open their own engine-named spans;
	// the portfolio's span carries the race-level best trajectory.
	sp := opts.Probe.Span(pf.Name())
	defer func() { sp.End(core.ObsOutcome(sol, err), obs.SlackUntil(deadline)) }()
	if err = p.Validate(); err != nil {
		return nil, err
	}
	members := pf.Members
	if len(members) == 0 {
		members = DefaultMembers()
	}
	grace := pf.Grace
	if grace <= 0 {
		grace = 150 * time.Millisecond
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !deadline.IsZero() {
		// Backstop: members enforce TimeLimit themselves; the context
		// deadline catches any that only watch ctx.
		var cancelD context.CancelFunc
		raceCtx, cancelD = context.WithDeadline(raceCtx, deadline)
		defer cancelD()
	}

	memberOpts := opts
	memberOpts.Workers = opts.Workers / len(members)
	if memberOpts.Workers < 1 {
		memberOpts.Workers = 1
	}

	results := make(chan outcome, len(members))
	for i, m := range members {
		go func(i int, m Member) {
			ms := time.Now()
			// The guard isolates member panics (one buggy engine must not
			// take down the whole race, or the serving worker) and keeps
			// illegal floorplans from winning.
			sol, err := guard.Wrap(m.Engine).Solve(raceCtx, p, memberOpts)
			results <- outcome{idx: i, sol: sol, err: err, elapsed: time.Since(ms)}
		}(i, m)
	}

	// stopAt bounds the whole collection; it tightens to now+grace once a
	// winner is accepted (or the deadline passes) so stragglers cannot
	// stall the race.
	var stopTimer *time.Timer
	var stopC <-chan time.Time
	if !deadline.IsZero() {
		stopTimer = time.NewTimer(time.Until(deadline) + grace)
		defer stopTimer.Stop()
		stopC = stopTimer.C
	}
	tighten := func() {
		cancel()
		if stopTimer == nil {
			stopTimer = time.NewTimer(grace)
			stopC = stopTimer.C
			return
		}
		if !stopTimer.Stop() {
			select {
			case <-stopTimer.C:
			default:
			}
		}
		stopTimer.Reset(grace)
	}

	var (
		best       *core.Solution
		bestIdx    = -1
		bestObj    float64
		infeasible error
		budgetErrs int
		otherErrs  []error
		accepted   bool
	)
collect:
	for got := 0; got < len(members); got++ {
		var out outcome
		select {
		case out = <-results:
		case <-stopC:
			// Grace expired: abandon stragglers (the buffered channel
			// lets their goroutines finish without leaking).
			break collect
		}
		name := members[out.idx].Engine.Name()
		pf.Stats.recordRun(name, out.elapsed, out.err)
		switch {
		case out.err == nil:
			obj := out.sol.Objective(p)
			if best == nil || obj < bestObj || (obj == bestObj && out.sol.Proven && !best.Proven) {
				best, bestIdx, bestObj = out.sol, out.idx, obj
				sp.Incumbent(obj)
			}
			if out.sol.Proven && !accepted {
				// Proven lexicographic optimum: accept, cancel losers.
				accepted = true
				tighten()
			}
		case errors.Is(out.err, core.ErrInfeasible):
			if members[out.idx].TrustInfeasible {
				infeasible = out.err
				if !accepted {
					accepted = true
					tighten()
				}
			} else {
				budgetErrs++
			}
		case errors.Is(out.err, core.ErrNoSolution),
			errors.Is(out.err, context.DeadlineExceeded),
			errors.Is(out.err, context.Canceled):
			budgetErrs++
		default:
			otherErrs = append(otherErrs, fmt.Errorf("%s: %w", name, out.err))
		}
	}

	if best != nil {
		win := *best
		win.Engine = fmt.Sprintf("portfolio(%s)", members[bestIdx].Engine.Name())
		win.Elapsed = time.Since(start)
		pf.Stats.recordWin(members[bestIdx].Engine.Name())
		return &win, nil
	}
	if infeasible != nil {
		return nil, infeasible
	}
	if budgetErrs > 0 {
		return nil, fmt.Errorf("portfolio: no member found a solution within the budget: %w", core.ErrNoSolution)
	}
	if len(otherErrs) > 0 {
		return nil, errors.Join(otherErrs...)
	}
	return nil, fmt.Errorf("portfolio: all members timed out without reporting: %w", core.ErrNoSolution)
}
