package guard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// FallbackMember is one stage of a fallback chain.
type FallbackMember struct {
	// Engine computes floorplans; it runs guarded (panic isolation +
	// solution verification), so the chain advances on any fault.
	Engine core.Engine
	// TrustInfeasible marks engines whose ErrInfeasible is a proof over
	// the full solution space (exact, milp-o): a trusted infeasibility
	// ends the chain immediately. Untrusted verdicts are treated as
	// exhausted budgets and the chain advances.
	TrustInfeasible bool
}

// Fallback is a graceful-degradation meta-engine: it tries its members
// in order under one shared budget, advancing past panics, invalid
// solutions, unexpected errors and per-stage budget expiry, so the
// caller always gets the best answer the remaining budget allows. The
// first member to produce a validated solution wins.
//
// Budget split: stage i of n receives remaining/(n-i) of the shared
// budget, so a stage that fails fast rolls its unused time over to the
// later stages while a stage that burns its slice cannot starve them.
type Fallback struct {
	// Members are the chain stages, in preference order.
	Members []FallbackMember
}

// NewFallback builds a fallback chain over the given members.
func NewFallback(members ...FallbackMember) *Fallback {
	return &Fallback{Members: members}
}

// Name implements core.Engine.
func (f *Fallback) Name() string { return "fallback" }

// Solve implements core.Engine: try members in order until one returns a
// validated solution, a trusted infeasibility proof, or the budget and
// chain are exhausted. The returned solution's Engine field names the
// winning member ("fallback(constructive)").
func (f *Fallback) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (sol *core.Solution, err error) {
	opts = opts.Normalized()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	sp := opts.Probe.Span(f.Name())
	defer func() {
		if err == nil && sol != nil {
			sp.Incumbent(sol.Objective(p))
		}
		sp.End(core.ObsOutcome(sol, err), obs.SlackUntil(deadline))
	}()
	if err = p.Validate(); err != nil {
		return nil, err
	}
	if len(f.Members) == 0 {
		return nil, fmt.Errorf("guard: fallback chain has no members")
	}

	stages := StageLogFrom(ctx) // nil outside a collecting caller
	var faults []error
	hardFault := false
	for i, m := range f.Members {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			break
		}
		name := m.Engine.Name()
		stageOpts := opts
		if !deadline.IsZero() {
			stageOpts.TimeLimit = time.Until(deadline) / time.Duration(len(f.Members)-i)
		}
		stageStart := time.Now()
		stageSol, stageErr := Wrap(m.Engine).Solve(ctx, p, stageOpts)
		if stages != nil {
			st := StageTiming{
				Engine:  name,
				Outcome: string(core.ObsOutcome(stageSol, stageErr)),
				Elapsed: time.Since(stageStart),
			}
			if stageErr != nil {
				st.Err = stageErr.Error()
			}
			stages.add(st)
		}
		switch {
		case stageErr == nil:
			win := *stageSol
			win.Engine = fmt.Sprintf("fallback(%s)", name)
			win.Elapsed = time.Since(start)
			return &win, nil
		case errors.Is(stageErr, core.ErrInfeasible) && m.TrustInfeasible:
			return nil, stageErr
		case errors.Is(stageErr, core.ErrInfeasible),
			errors.Is(stageErr, core.ErrNoSolution),
			errors.Is(stageErr, context.DeadlineExceeded):
			// Budget-class outcomes (including untrusted infeasibility
			// claims, which are not proofs): advance. %v, not %w — the
			// chain's final error must not inherit this stage's sentinel
			// identity, or an untrusted ErrInfeasible would surface as a
			// false infeasibility proof (cached and served as definitive)
			// whenever a later stage hard-faults.
			faults = append(faults, fmt.Errorf("%s: %v", name, stageErr))
		case errors.Is(stageErr, context.Canceled):
			if ctx.Err() != nil {
				// The caller canceled the whole solve: stop.
				return nil, stageErr
			}
			faults = append(faults, fmt.Errorf("%s: %v", name, stageErr))
		default:
			// Panic, invalid solution, or unexpected error: degrade to the
			// next member. %w is safe here: this branch excludes the
			// sentinel-matching errors by construction, and keeping the
			// chain means errors.As still surfaces PanicError /
			// InvalidSolutionError from the joined error.
			hardFault = true
			faults = append(faults, fmt.Errorf("%s: %w", name, stageErr))
		}
	}
	if !hardFault {
		return nil, fmt.Errorf("guard: no fallback member found a solution within the budget: %w", core.ErrNoSolution)
	}
	return nil, fmt.Errorf("guard: every fallback member failed: %w", errors.Join(faults...))
}
