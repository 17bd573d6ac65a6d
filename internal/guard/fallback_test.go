package guard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func goodEngine(name string) core.Engine {
	return &stubEngine{name: name, fn: func(_ context.Context, p *core.Problem, _ core.SolveOptions) (*core.Solution, error) {
		return validSolution(p), nil
	}}
}

func panicEngine(name string) core.Engine {
	return &stubEngine{name: name, fn: func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error) {
		panic(name + " exploded")
	}}
}

func lyingEngine(name string) core.Engine {
	return &stubEngine{name: name, fn: func(_ context.Context, p *core.Problem, _ core.SolveOptions) (*core.Solution, error) {
		return invalidSolution(p), nil
	}}
}

func erroringEngine(name string, err error) core.Engine {
	return &stubEngine{name: name, fn: func(context.Context, *core.Problem, core.SolveOptions) (*core.Solution, error) {
		return nil, err
	}}
}

func TestFallbackAdvancesPastFaults(t *testing.T) {
	p := testProblem(t)
	f := NewFallback(
		FallbackMember{Engine: panicEngine("boom")},
		FallbackMember{Engine: lyingEngine("liar")},
		FallbackMember{Engine: goodEngine("good")},
	)
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("fallback served an invalid solution: %v", err)
	}
	if sol.Engine != "fallback(good)" {
		t.Errorf("winner = %q, want fallback(good)", sol.Engine)
	}
}

func TestFallbackTrustedInfeasibleShortCircuits(t *testing.T) {
	p := testProblem(t)
	called := false
	later := &stubEngine{name: "later", fn: func(_ context.Context, p *core.Problem, _ core.SolveOptions) (*core.Solution, error) {
		called = true
		return validSolution(p), nil
	}}
	f := NewFallback(
		FallbackMember{Engine: erroringEngine("prover", core.ErrInfeasible), TrustInfeasible: true},
		FallbackMember{Engine: later},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if called {
		t.Error("chain advanced past a trusted infeasibility proof")
	}
}

func TestFallbackUntrustedInfeasibleAdvances(t *testing.T) {
	p := testProblem(t)
	f := NewFallback(
		FallbackMember{Engine: erroringEngine("heuristic", core.ErrInfeasible)},
		FallbackMember{Engine: goodEngine("good")},
	)
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if sol.Engine != "fallback(good)" {
		t.Errorf("winner = %q, want fallback(good)", sol.Engine)
	}
}

func TestFallbackBudgetExhaustionIsNoSolution(t *testing.T) {
	p := testProblem(t)
	f := NewFallback(
		FallbackMember{Engine: erroringEngine("a", core.ErrNoSolution)},
		FallbackMember{Engine: erroringEngine("b", fmt.Errorf("slow: %w", context.DeadlineExceeded))},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("budget exhaustion should wrap ErrNoSolution, got %v", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Errorf("budget exhaustion misreported as a panic: %v", err)
	}
}

func TestFallbackAllHardFaults(t *testing.T) {
	p := testProblem(t)
	f := NewFallback(
		FallbackMember{Engine: panicEngine("boom")},
		FallbackMember{Engine: lyingEngine("liar")},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second})
	if err == nil {
		t.Fatal("all-faulty chain returned nil error")
	}
	if errors.Is(err, core.ErrNoSolution) || errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("hard faults must not masquerade as budget/infeasible outcomes: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("joined error does not expose the PanicError: %v", err)
	}
	var ie *InvalidSolutionError
	if !errors.As(err, &ie) {
		t.Errorf("joined error does not expose the InvalidSolutionError: %v", err)
	}
	if got := core.ObsOutcome(nil, err); got != obs.OutcomePanic {
		t.Errorf("ObsOutcome = %q, want %q", got, obs.OutcomePanic)
	}
}

// TestFallbackHardFaultDoesNotLeakStageSentinels is the regression test
// for a false infeasibility proof: milp-ho claims infeasible (untrusted,
// not a proof), then the next member panics. The joined hard-fault error
// must not satisfy errors.Is for the budget-class sentinels the chain
// deliberately advanced past, or the server would cache and serve the
// claim as definitive "infeasible" — and the fallback engine's own
// breaker would score the total failure as a success.
func TestFallbackHardFaultDoesNotLeakStageSentinels(t *testing.T) {
	p := testProblem(t)
	f := NewFallback(
		FallbackMember{Engine: erroringEngine("heuristic", core.ErrInfeasible)},
		FallbackMember{Engine: erroringEngine("slow", fmt.Errorf("slow: %w", context.DeadlineExceeded))},
		FallbackMember{Engine: erroringEngine("dry", core.ErrNoSolution)},
		FallbackMember{Engine: panicEngine("boom")},
	)
	_, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: 5 * time.Second})
	if err == nil {
		t.Fatal("faulty chain returned nil error")
	}
	for sentinel, name := range map[error]string{
		core.ErrInfeasible:       "ErrInfeasible",
		core.ErrNoSolution:       "ErrNoSolution",
		context.DeadlineExceeded: "DeadlineExceeded",
		context.Canceled:         "Canceled",
	} {
		if errors.Is(err, sentinel) {
			t.Errorf("hard-fault error leaks stage sentinel %s: %v", name, err)
		}
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("joined error does not expose the PanicError: %v", err)
	}
	if got := BreakerOutcomeOf(err); got != BreakerFailure {
		t.Errorf("BreakerOutcomeOf = %v, want BreakerFailure", got)
	}
}

func TestFallbackHonorsCancellation(t *testing.T) {
	p := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := NewFallback(FallbackMember{Engine: goodEngine("good")})
	_, err := f.Solve(ctx, p, core.SolveOptions{TimeLimit: time.Second})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context not honored: %v", err)
	}
}

// TestFallbackProbeContract mirrors the engine probe contract for the
// chain as a whole: one span named "fallback", ended exactly once, with
// the final incumbent equal to the returned objective.
func TestFallbackProbeContract(t *testing.T) {
	p := testProblem(t)
	rec := obs.NewRecorder()
	f := NewFallback(
		FallbackMember{Engine: panicEngine("boom")},
		FallbackMember{Engine: goodEngine("good")},
	)
	sol, err := f.Solve(context.Background(), p, core.SolveOptions{TimeLimit: time.Second, Probe: rec})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	var ended int
	for _, sp := range tr.Spans {
		if sp.Name == "fallback" && sp.Outcome != "" {
			ended++
			if sp.Outcome != string(obs.OutcomeSolved) {
				t.Errorf("fallback span outcome = %q, want %q", sp.Outcome, obs.OutcomeSolved)
			}
		}
	}
	if ended != 1 {
		t.Fatalf("fallback span ended %d times, want 1", ended)
	}
	incs := rec.Incumbents("fallback")
	if len(incs) == 0 {
		t.Fatal("no incumbent recorded on the fallback span")
	}
	if got, want := incs[len(incs)-1].Objective, sol.Objective(p); got != want {
		t.Errorf("final incumbent %v != returned objective %v", got, want)
	}
}
