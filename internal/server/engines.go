package server

import (
	"context"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/portfolio"
)

// engine resolves the named engine the way the floorplanner facade does
// (the "fallback" engine over the server's chain, empty = the library
// default), or adapts the Config.Solve override. The chaos injector,
// when enabled, sits inside the guard, so injected panics and poison
// solutions meet the same recovery and verification the real thing
// would; the guard runs exactly once per solve.
func (s *Server) engine(name string) (core.Engine, error) {
	var eng core.Engine
	var err error
	switch {
	case s.cfg.Solve != nil:
		eng = solveFuncEngine{name: name, solve: s.cfg.Solve}
	case name == "fallback":
		eng, err = floorplanner.NewFallback(s.cfg.FallbackChain...)
	default:
		eng, err = floorplanner.NewEngine(name)
	}
	if err != nil {
		return nil, err
	}
	if s.chaos != nil {
		eng = s.chaos.Around(eng)
	}
	return guard.Wrap(eng), nil
}

// solveFuncEngine adapts a SolveFunc to core.Engine under the requested
// engine name.
type solveFuncEngine struct {
	name  string
	solve SolveFunc
}

func (e solveFuncEngine) Name() string { return e.name }

func (e solveFuncEngine) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
	return e.solve(ctx, p, e.name, opts)
}

// defaultEngineNames lists the engines the default solver accepts.
func defaultEngineNames() []string { return floorplanner.EngineNames() }

// defaultPortfolioStats exposes the process-wide portfolio race counters
// (per-member races, wins, failures, cumulative latency) that /metrics
// renders; portfolio engines built through the floorplanner facade all
// record into this shared recorder.
func defaultPortfolioStats() []portfolio.MemberStats { return portfolio.Shared().Snapshot() }
