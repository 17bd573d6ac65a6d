package guard

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
)

// StageTiming records one fallback-chain stage attempt: which member
// engine ran, how it ended, and how long it took. The flight recorder
// stores these per solve so /debug/solves and SIGUSR1 dumps can show
// where a degraded solve spent its budget.
type StageTiming struct {
	// Engine names the stage's member engine.
	Engine string
	// Outcome is the stage's obs outcome label ("solved", "panic", ...).
	Outcome string
	// Elapsed is the stage's wall-clock.
	Elapsed time.Duration
	// Err is the stage's error text, when it failed.
	Err string
}

// StageLog collects stage timings across one solve. Safe for concurrent
// use (a meta-engine may be raced inside a portfolio).
type StageLog struct {
	mu     sync.Mutex
	stages []StageTiming
}

// add appends one stage timing.
func (l *StageLog) add(st StageTiming) {
	l.mu.Lock()
	l.stages = append(l.stages, st)
	l.mu.Unlock()
}

// Stages returns the collected timings in emission order.
func (l *StageLog) Stages() []StageTiming {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]StageTiming(nil), l.stages...)
}

type stageLogKey struct{}

// WithStageLog returns a context carrying a stage-timing collector and
// the collector itself. If ctx already carries one, it is reused — so a
// caller that installs the log and then calls floorplanner.Solve, which
// installs it too, observes the same stages.
func WithStageLog(ctx context.Context) (context.Context, *StageLog) {
	if l := StageLogFrom(ctx); l != nil {
		return ctx, l
	}
	l := &StageLog{}
	return context.WithValue(ctx, stageLogKey{}, l), l
}

// StageLogFrom returns the context's stage-timing collector, or nil.
func StageLogFrom(ctx context.Context) *StageLog {
	l, _ := ctx.Value(stageLogKey{}).(*StageLog)
	return l
}

// Record describes one finished guarded solve of p as a flight record:
// the request digest, engine, outcome, objective, error text, duration
// and the stage log's timings (stages may be nil). digest is p's
// RequestDigest; callers that need it before the solve (profile labels)
// pass the value they already hold, so a solve is hashed once. Every
// input is safe to read while an abandoned solve is still running: the
// result pair, a caller-measured duration and the locked stage log.
func Record(digest string, p *core.Problem, engine string, sol *core.Solution, err error, elapsed time.Duration, stages *StageLog) flight.Record {
	rec := flight.Record{
		RequestDigest: digest,
		Engine:        engine,
		Outcome:       string(core.ObsOutcome(sol, err)),
		DurationMS:    durationMS(elapsed),
	}
	if sol != nil {
		obj := sol.Objective(p)
		rec.Objective = &obj
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if stages != nil {
		for _, st := range stages.Stages() {
			rec.Stages = append(rec.Stages, flight.Stage{
				Engine:    st.Engine,
				Outcome:   st.Outcome,
				ElapsedMS: durationMS(st.Elapsed),
				Err:       st.Err,
			})
		}
	}
	return rec
}

func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
