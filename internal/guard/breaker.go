package guard

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// BreakerState is a circuit breaker's effective state.
type BreakerState int

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; one probe request is
	// admitted to test whether the engine recovered.
	BreakerHalfOpen
	// BreakerOpen: requests are rejected until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// BreakerOutcome classifies one guarded run for the breaker's failure
// accounting.
type BreakerOutcome int

const (
	// BreakerNeutral: the run says nothing about engine health (queue
	// full, caller canceled, budget expired without a verdict). Neutral
	// runs neither trip nor reset the breaker.
	BreakerNeutral BreakerOutcome = iota
	// BreakerSuccess: the engine produced a definitive answer (validated
	// solution or proven infeasibility). Resets the consecutive-failure
	// count and closes a probing breaker.
	BreakerSuccess
	// BreakerFailure: the engine panicked, returned an invalid solution,
	// or failed unexpectedly. Counts toward the trip threshold and
	// re-opens a probing breaker.
	BreakerFailure
)

// BreakerOutcomeOf classifies an engine result for breaker accounting:
// definitive answers (nil error, proven infeasibility) are successes;
// budget and cancellation outcomes are neutral; everything else —
// panics, invalid solutions, unexpected errors — is a failure.
func BreakerOutcomeOf(err error) BreakerOutcome {
	switch {
	case err == nil, errors.Is(err, core.ErrInfeasible):
		return BreakerSuccess
	case errors.Is(err, core.ErrNoSolution),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return BreakerNeutral
	default:
		return BreakerFailure
	}
}

// BreakerConfig tunes a Breaker; the zero value gets production-minded
// defaults.
type BreakerConfig struct {
	// Threshold is the consecutive failures that open the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe (default 30s).
	Cooldown time.Duration
	// Clock supplies the current time (default time.Now); tests inject a
	// fake to step through the open -> half-open transition.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a per-engine consecutive-failure circuit breaker
// (closed/open/half-open). Usage contract: every Allow() that returns
// true must be paired with exactly one Record call — the half-open state
// reserves its single probe slot on Allow and releases it on Record.
type Breaker struct {
	name string
	cfg  BreakerConfig

	mu       sync.Mutex
	failures int  // consecutive failures while closed
	open     bool // tripped and not yet recovered
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    int64
}

// NewBreaker builds a breaker for the named engine.
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	return &Breaker{name: name, cfg: cfg.withDefaults()}
}

// stateLocked computes the effective state at now; callers hold mu.
func (b *Breaker) stateLocked(now time.Time) BreakerState {
	if !b.open {
		return BreakerClosed
	}
	if now.Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return BreakerOpen
}

// State returns the breaker's effective state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked(b.cfg.Clock())
}

// Allow reports whether a request may proceed. In the half-open state it
// admits exactly one probe at a time; the probe slot is released by the
// paired Record call.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked(b.cfg.Clock()) {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Record reports the outcome of a run admitted by Allow. A probe success
// closes the breaker; a probe failure re-opens it (restarting the
// cooldown); a neutral probe keeps the breaker half-open so the next
// Allow probes again.
func (b *Breaker) Record(o BreakerOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		b.probing = false
		switch o {
		case BreakerSuccess:
			b.open = false
			b.failures = 0
		case BreakerFailure:
			b.openedAt = b.cfg.Clock()
		}
		return
	}
	if b.open {
		// A stale result from a run admitted before the trip: the
		// breaker's verdict is already made, ignore it.
		return
	}
	switch o {
	case BreakerSuccess:
		b.failures = 0
	case BreakerFailure:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.open = true
			b.openedAt = b.cfg.Clock()
			b.trips++
		}
	}
}

// BreakerSnapshot is one breaker's observable state for /metrics.
type BreakerSnapshot struct {
	// Name is the engine the breaker guards.
	Name string
	// State is the effective state at snapshot time.
	State BreakerState
	// Failures is the current consecutive-failure count.
	Failures int
	// Trips counts closed -> open transitions over the breaker's life.
	Trips int64
}

// Snapshot returns the breaker's observable state.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		Name:     b.name,
		State:    b.stateLocked(b.cfg.Clock()),
		Failures: b.failures,
		Trips:    b.trips,
	}
}

// BreakerSet holds one breaker per engine name, created lazily with a
// shared config. Safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig
	mu  sync.Mutex
	m   map[string]*Breaker
}

// NewBreakerSet builds an empty set whose breakers share cfg.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: map[string]*Breaker{}}
}

// For returns (creating if needed) the named engine's breaker.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = NewBreaker(name, s.cfg)
		s.m[name] = b
	}
	return b
}

// Snapshot returns every breaker's state, sorted by engine name.
func (s *BreakerSet) Snapshot() []BreakerSnapshot {
	s.mu.Lock()
	breakers := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	out := make([]BreakerSnapshot, len(breakers))
	for i, b := range breakers {
		out[i] = b.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
