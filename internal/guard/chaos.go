package guard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// Fault is one kind of injected failure.
type Fault int

const (
	// FaultNone passes the call through to the inner engine.
	FaultNone Fault = iota
	// FaultPanic panics inside Solve.
	FaultPanic
	// FaultInvalid returns a deliberately illegal floorplan with a nil
	// error (the poison the serving boundary must catch).
	FaultInvalid
	// FaultError returns a spurious error wrapping ErrInjected.
	FaultError
	// FaultDelay sleeps before passing the call through, to exercise
	// deadline and straggler handling.
	FaultDelay
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultInvalid:
		return "invalid"
	case FaultError:
		return "error"
	default:
		return "delay"
	}
}

// ErrInjected is the spurious error FaultError returns.
var ErrInjected = errors.New("guard: injected chaos error")

// ChaosConfig schedules a Chaos wrapper's faults. Two modes:
//
//   - Script: a non-empty fault list cycled deterministically, one entry
//     per Solve call — exact control for unit tests.
//   - Weights: when Script is empty, each call draws a fault from the
//     weighted distribution using a rand.Rand seeded with Seed, so a
//     whole chaos run is reproducible from one integer.
type ChaosConfig struct {
	// Seed seeds the weighted draw (ignored in Script mode).
	Seed int64
	// Script, when non-empty, is cycled deterministically call by call.
	Script []Fault
	// PassWeight .. DelayWeight are the relative draw weights for the
	// weighted mode. All zero means every call passes through.
	PassWeight    int
	PanicWeight   int
	InvalidWeight int
	ErrorWeight   int
	DelayWeight   int
	// Delay is the FaultDelay sleep (default 10ms).
	Delay time.Duration
}

// Chaos wraps an engine with deterministic fault injection. It is safe
// for concurrent use; concurrent callers consume schedule entries in
// arrival order.
type Chaos struct {
	inner core.Engine
	cfg   ChaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	calls int
}

// NewChaos wraps inner with the fault schedule cfg describes.
func NewChaos(inner core.Engine, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// NewChaosInjector builds a Chaos with no inner engine, for callers
// that inject faults around other engines via Around or Apply (the
// daemon's -chaos flag wraps every engine it resolves this way).
func NewChaosInjector(cfg ChaosConfig) *Chaos { return NewChaos(nil, cfg) }

// Around returns inner with this injector's faults applied to every
// Solve. All engines wrapped by one injector consume its one schedule,
// and the wrapper keeps inner's name.
func (c *Chaos) Around(inner core.Engine) core.Engine { return chaosAround{c: c, inner: inner} }

type chaosAround struct {
	c     *Chaos
	inner core.Engine
}

func (e chaosAround) Name() string { return e.inner.Name() }

func (e chaosAround) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
	return e.c.Apply(ctx, p, func(ctx context.Context) (*core.Solution, error) {
		return e.inner.Solve(ctx, p, opts)
	})
}

// Name implements core.Engine: "chaos(<inner>)", or "chaos" for an
// injector with no inner engine.
func (c *Chaos) Name() string {
	if c.inner == nil {
		return "chaos"
	}
	return fmt.Sprintf("chaos(%s)", c.inner.Name())
}

// Calls returns how many Solve calls the wrapper has seen.
func (c *Chaos) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// next consumes one schedule entry and returns (call number, fault).
func (c *Chaos) next() (int, Fault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if len(c.cfg.Script) > 0 {
		return c.calls, c.cfg.Script[(c.calls-1)%len(c.cfg.Script)]
	}
	weights := [...]struct {
		f Fault
		w int
	}{
		{FaultNone, c.cfg.PassWeight},
		{FaultPanic, c.cfg.PanicWeight},
		{FaultInvalid, c.cfg.InvalidWeight},
		{FaultError, c.cfg.ErrorWeight},
		{FaultDelay, c.cfg.DelayWeight},
	}
	total := 0
	for _, e := range weights {
		if e.w > 0 {
			total += e.w
		}
	}
	if total == 0 {
		return c.calls, FaultNone
	}
	draw := c.rng.Intn(total)
	for _, e := range weights {
		if e.w <= 0 {
			continue
		}
		if draw < e.w {
			return c.calls, e.f
		}
		draw -= e.w
	}
	return c.calls, FaultNone
}

// Solve implements core.Engine: apply the scheduled fault, then (for
// FaultNone and FaultDelay) run the inner engine.
func (c *Chaos) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
	return c.Apply(ctx, p, func(ctx context.Context) (*core.Solution, error) {
		return c.inner.Solve(ctx, p, opts)
	})
}

// Apply consumes one schedule entry and applies it around inner: panic,
// error and invalid faults replace the call; none and delay run it
// (after the sleep). Solve and Around are built on it.
func (c *Chaos) Apply(ctx context.Context, p *core.Problem, inner func(context.Context) (*core.Solution, error)) (*core.Solution, error) {
	n, fault := c.next()
	switch fault {
	case FaultPanic:
		panic(fmt.Sprintf("%s: injected panic (call %d)", c.Name(), n))
	case FaultError:
		return nil, fmt.Errorf("%s: call %d: %w", c.Name(), n, ErrInjected)
	case FaultInvalid:
		return c.poison(p), nil
	case FaultDelay:
		d := c.cfg.Delay
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return inner(ctx)
}

// DefaultChaosWeights returns the weighted-mode defaults used by
// ParseChaosSpec when a seed spec names no explicit weights: mostly
// pass-through with a thin tail of every fault kind.
func DefaultChaosWeights() (pass, panicW, invalid, errW, delay int) {
	return 90, 4, 3, 2, 1
}

// ParseChaosSpec parses the -chaos flag grammar, mirroring
// reconfig.ParseFaultPlan:
//
//	off | none | ""                        no chaos (nil config)
//	script:panic,pass,error,...            deterministic script, cycled
//	seed:7                                 weighted mode, default weights
//	seed:7,panic:10,pass:85,delay:5        weighted mode, explicit weights
//
// Script entries are the Fault names (pass/none, panic, invalid, error,
// delay); weight keys are the same names plus required leading seed.
func ParseChaosSpec(spec string) (*ChaosConfig, error) {
	spec = strings.TrimSpace(spec)
	switch spec {
	case "", "off", "none":
		return nil, nil
	}

	if rest, ok := strings.CutPrefix(spec, "script:"); ok {
		var script []Fault
		for _, name := range strings.Split(rest, ",") {
			switch strings.TrimSpace(name) {
			case "pass", "none":
				script = append(script, FaultNone)
			case "panic":
				script = append(script, FaultPanic)
			case "invalid":
				script = append(script, FaultInvalid)
			case "error":
				script = append(script, FaultError)
			case "delay":
				script = append(script, FaultDelay)
			default:
				return nil, fmt.Errorf("guard: chaos script entry %q (want pass|panic|invalid|error|delay)", name)
			}
		}
		if len(script) == 0 {
			return nil, errors.New("guard: empty chaos script")
		}
		return &ChaosConfig{Script: script}, nil
	}

	if !strings.HasPrefix(spec, "seed:") {
		return nil, fmt.Errorf("guard: chaos spec %q (want off, script:..., or seed:N[,fault:weight...])", spec)
	}
	cfg := &ChaosConfig{}
	cfg.PassWeight, cfg.PanicWeight, cfg.InvalidWeight, cfg.ErrorWeight, cfg.DelayWeight = DefaultChaosWeights()
	explicit := false
	for i, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("guard: chaos spec part %q", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("guard: chaos spec %s:%s (want a non-negative integer)", key, val)
		}
		if i == 0 {
			if key != "seed" {
				return nil, fmt.Errorf("guard: chaos spec must start with seed:, got %q", part)
			}
			cfg.Seed = int64(n)
			continue
		}
		if !explicit {
			// First explicit weight clears the defaults: the spec now
			// defines the whole distribution.
			cfg.PassWeight, cfg.PanicWeight, cfg.InvalidWeight, cfg.ErrorWeight, cfg.DelayWeight = 0, 0, 0, 0, 0
			explicit = true
		}
		switch key {
		case "pass", "none":
			cfg.PassWeight = n
		case "panic":
			cfg.PanicWeight = n
		case "invalid":
			cfg.InvalidWeight = n
		case "error":
			cfg.ErrorWeight = n
		case "delay":
			cfg.DelayWeight = n
		case "seed":
			return nil, errors.New("guard: duplicate seed in chaos spec")
		default:
			return nil, fmt.Errorf("guard: chaos weight %q (want pass|panic|invalid|error|delay)", key)
		}
	}
	return cfg, nil
}

// poison builds a floorplan that always fails Solution.Validate: region
// 0 is placed off-device, the rest overlap at the origin.
func (c *Chaos) poison(p *core.Problem) *core.Solution {
	sol := &core.Solution{
		Regions: make([]grid.Rect, len(p.Regions)),
		FC:      make([]core.FCPlacement, len(p.FCAreas)),
		Engine:  c.Name(),
	}
	for i := range sol.FC {
		sol.FC[i] = core.FCPlacement{Request: i}
	}
	for i := range sol.Regions {
		sol.Regions[i] = grid.Rect{X: 0, Y: 0, W: 1, H: 1}
	}
	if len(sol.Regions) > 0 {
		sol.Regions[0] = grid.Rect{X: p.Device.Width(), Y: 0, W: 1, H: 1}
	}
	return sol
}
