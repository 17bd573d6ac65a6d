package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	floorplanner "repro"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/guard"
	"repro/internal/session"
)

// online is a closed loop with one client calling Session.Apply on
// in-memory FX70T sessions. Each session replays one stream of a fixed
// set from GenerateWorkload; streams run one after another in whole
// rounds of the set until the run's time is up. Arrivals greedy
// placement cannot fit go to the constructive engine (floorsim's default
// fallback).
type online struct {
	cfg   *config
	chk   *checker
	dev   *floorplanner.Device
	rng   *rand.Rand // orders the streams of each round
	round []int64    // stream seeds still to run in the current round
	ops   int64
}

// Session knobs of the online workload: floorsim's defaults, except a
// shorter fallback budget. A fallback solve that exhausts its budget
// stalls one event for the whole budget; at floorsim's 2s a handful of
// them decide a run's throughput.
const (
	onlineCooldown       = 6
	onlineFallbackBudget = 250 * time.Millisecond
)

func setupOnline(cfg *config, chk *checker) (runner, error) {
	o := &online{
		cfg: cfg,
		chk: chk,
		dev: floorplanner.VirtexFX70T(),
		rng: rand.New(rand.NewSource(cfg.seed)),
	}
	// Warm-up: one stream fills the process's candidate cache for the
	// module templates, as any long-lived session host has.
	warm := onlineStream(onlineWarmSeed, cfg.streamEvents)
	s, err := o.newSession(&tracedEngine{})
	if err != nil {
		return nil, err
	}
	for _, ev := range warm {
		if _, err := s.Apply(ev); err != nil {
			return nil, fmt.Errorf("warm-up event %s %s: %w", ev.Kind, ev.Name, err)
		}
	}
	return o, nil
}

func (o *online) close() {}

func (o *online) newSession(fb *tracedEngine) (*floorplanner.Session, error) {
	eng, err := floorplanner.NewEngine("constructive")
	if err != nil {
		return nil, err
	}
	fb.inner = eng
	fb.chk = o.chk
	fb.tamper = o.cfg.tamper
	return floorplanner.NewSession(floorplanner.SessionConfig{
		Device:         o.dev,
		Engine:         fb,
		SolveBudget:    onlineFallbackBudget,
		DefragCooldown: onlineCooldown,
	})
}

// onlineLayers accumulates the traced run's per-layer samples.
type onlineLayers struct {
	greedy, departure, mer, defrag, relocate []float64
	defragCycles, defragNoop, fallbackPlaced int
	fragSum                                  float64
	frames, relocations                      int
}

func (o *online) measure(tr *tracer) values {
	deadline := time.Now().Add(o.cfg.seconds)
	type eventKey struct {
		stream int64
		i      int
	}
	lat := map[eventKey][]float64{}
	var events, arrivals, rejected int
	var layers onlineLayers
	fb := &tracedEngine{tr: tr}
	for len(o.round) > 0 || time.Now().Before(deadline) {
		if len(o.round) == 0 {
			for _, i := range o.rng.Perm(len(o.cfg.streams)) {
				o.round = append(o.round, o.cfg.streams[i])
			}
		}
		stream := o.round[0]
		o.round = o.round[1:]
		s, err := o.newSession(fb)
		if !o.chk.op(err) {
			break
		}
		for i, ev := range onlineStream(stream, o.cfg.streamEvents) {
			o.ops++
			var before floorplanner.SessionSnapshot
			if tr != nil {
				before = s.Snapshot()
			}
			root := tr.begin(spanEvent, 0, o.ops)
			fb.parent, fb.op = root, o.ops
			start := time.Now()
			res, err := s.Apply(ev)
			elapsed := time.Since(start)
			tr.end(root)
			k := eventKey{stream, i}
			lat[k] = append(lat[k], ms(elapsed))
			events++
			if !o.chk.op(err) {
				continue
			}
			if ev.Kind == floorplanner.SessionArrival {
				arrivals++
				if res.Rejected {
					rejected++
				}
			}
			if tr != nil {
				o.traceEvent(tr, s, before, ev, res, elapsed, &layers)
			}
		}
		if st := s.Stats(); st.CorruptedFrames != 0 {
			o.chk.op(fmt.Errorf("session ended with %d corrupted frames", st.CorruptedFrames))
		} else {
			o.chk.op(nil)
		}
	}

	// Every round replays the same events, so each event's latency is its
	// median over the rounds: a phase in which the host runs slow moves
	// one round, not the run's tail.
	var perEvent []float64
	for _, xs := range lat {
		perEvent = append(perEvent, median(xs))
	}
	v := values{}
	closedLoopMetrics(v, perEvent)
	v["quality_loss_pct"] = 100 * ratio(float64(rejected), float64(arrivals))
	if tr == nil {
		return v
	}
	v["session.greedy_ms_p50"] = median(layers.greedy)
	v["session.departure_ms_p50"] = median(layers.departure)
	v["session.mer_ms_p50"] = median(layers.mer)
	v["session.defrag_ms_p50"] = median(layers.defrag)
	v["session.defrag_ms_p99"] = percentile(layers.defrag, 0.99)
	v["session.defrag_noop_ratio"] = ratio(float64(layers.defragNoop), float64(layers.defragCycles))
	v["session.fallback_attempts"] = float64(len(fb.ms))
	v["session.fallback_success_ratio"] = ratio(float64(layers.fallbackPlaced), float64(len(fb.ms)))
	v["session.fallback_ms_mean"] = mean(fb.ms)
	v["session.fragmentation_mean"] = ratio(layers.fragSum, float64(events))
	v["reconfig.frames_per_event"] = ratio(float64(layers.frames), float64(events))
	v["reconfig.relocations"] = float64(layers.relocations)
	v["bitstream.relocate_ms"] = mean(layers.relocate)
	return v
}

// traceEvent attributes one applied event to the session layers: it
// classifies the event's latency by what the event did, replays the
// resulting layout into a standalone session.FreeSpace to time the
// maximal-empty-rectangle computation, and re-runs every relocation a
// defragmentation executed through the bitstream filter.
func (o *online) traceEvent(tr *tracer, s *floorplanner.Session, before floorplanner.SessionSnapshot, ev floorplanner.SessionEvent, res *floorplanner.SessionEventResult, elapsed time.Duration, l *onlineLayers) {
	after := s.Snapshot()
	l.fragSum += res.Fragmentation
	if res.Fallback {
		l.fallbackPlaced++
	}
	l.frames += after.Reconfig.FramesWritten - before.Reconfig.FramesWritten
	l.relocations += after.Reconfig.Relocations - before.Reconfig.Relocations
	switch {
	case res.Defrag != nil:
		l.defrag = append(l.defrag, ms(elapsed))
		l.defragCycles++
		if !res.Defrag.Executed || res.Defrag.Schedule == nil || res.Defrag.Schedule.Executed == 0 {
			l.defragNoop++
		}
	case ev.Kind == floorplanner.SessionArrival && res.Placed && !res.Fallback:
		l.greedy = append(l.greedy, ms(elapsed))
	case ev.Kind == floorplanner.SessionDeparture && !res.Rejected:
		l.departure = append(l.departure, ms(elapsed))
	}

	fs := session.NewFreeSpace(o.dev)
	for _, m := range after.Live {
		if err := fs.Insert(m.Rect); err != nil {
			o.chk.op(fmt.Errorf("replaying the live layout: %w", err))
			return
		}
	}
	start := time.Now()
	id := tr.begin(spanMER, 0, o.ops)
	fs.MERs()
	tr.end(id)
	l.mer = append(l.mer, ms(time.Since(start)))

	if res.Defrag == nil || !res.Defrag.Executed {
		return
	}
	was := map[string]grid.Rect{}
	for _, m := range before.Live {
		was[m.Name] = m.Rect
	}
	for _, m := range after.Live {
		from, ok := was[m.Name]
		if !ok || from == m.Rect {
			continue
		}
		l.relocate = append(l.relocate, o.relocate(tr, m.Name, from, m.Rect))
	}
}

// relocate runs one module move through the bitstream filter: generate
// the module's partial bitstream at its old area, relocate it to the new
// one, and load it into a fresh configuration memory. It returns the
// Relocate call's time in milliseconds.
func (o *online) relocate(tr *tracer, name string, from, to grid.Rect) float64 {
	bs, err := bitstream.Generate(o.dev, from, o.ops)
	if !o.chk.op(err) {
		return 0
	}
	start := time.Now()
	id := tr.begin(spanRelocate, 0, o.ops)
	moved, err := bitstream.Relocate(o.dev, bs, to)
	tr.end(id)
	elapsed := time.Since(start)
	if err == nil {
		err = bitstream.NewConfigMemory(o.dev).Load(moved, name)
	}
	o.chk.op(err)
	return ms(elapsed)
}

// tracedEngine wraps a session's fallback engine: it times every
// fallback solve as a child span of the event that caused it, and holds
// each solution it returns to the validator.
type tracedEngine struct {
	inner      core.Engine
	chk        *checker
	tr         *tracer
	tamper     func(*core.Problem, *core.Solution)
	parent, op int64
	ms         []float64
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Solve(ctx context.Context, p *core.Problem, opts core.SolveOptions) (*core.Solution, error) {
	id := e.tr.begin(spanFallback, e.parent, e.op)
	start := time.Now()
	sol, err := e.inner.Solve(ctx, p, opts)
	e.ms = append(e.ms, ms(time.Since(start)))
	e.tr.end(id)
	if err == nil && e.tamper != nil {
		e.tamper(p, sol)
	}
	if err == nil {
		e.chk.op(guard.CheckSolution(e.inner.Name(), p, sol))
	}
	return sol, err
}
