package main

import (
	"fmt"
	"math/rand"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sdr"
)

// base is one design of the instance library. Every instance a run
// solves is a relabeling of a base: the regions are renamed after the
// run's seed, and the instance gets a device object of its own, so it is
// new to every cache keyed by the problem or by the device (core's
// candidate cache), while its optimum and its difficulty stay those of
// the base.
//
// Relabeling instead of drawing fresh random designs keeps the runs of
// different seeds comparable: exact's solve time on fresh sdr.Synthetic
// designs of 3-4 regions spans 2 ms to over 1 s, so the median of a few
// hundred of them still moves by 10-30% from seed to seed. Relabeling
// keeps the region order too: exact's time on one design moves by up to
// half with the order of its regions, so a seeded permutation would make
// the runs of different seeds differ by more than noise.
type base struct {
	name string
	p    *core.Problem
}

// The library's synthetic bases are sdr.Synthetic designs. Generator
// seed s has 3 regions when even and 4 when odd, and a constraint-mode FC
// request when (s-1000)%4 < 2, a metric-mode one otherwise. The 3-region
// bases (even seeds 1000-1098) are many and mostly fast, so the median
// solve falls in a dense spread of designs; the 4-region bases (odd seeds
// 1001-1015) and the SDR instances make the tail. Seed 1011 is left out:
// exact cannot prove it within the per-solve budget, so its solve time
// would only read back the budget.
func smallSeeds() []int64 {
	var out []int64
	for s := int64(1000); s < 1100; s += 2 {
		out = append(out, s)
	}
	return out
}

var largeSeeds = []int64{1001, 1003, 1005, 1007, 1009, 1013, 1015}

// synthBase builds the synthetic base of generator seed s: one FC
// request on a seeded region, in constraint or metric mode.
func synthBase(s int64) *core.Problem {
	regions := 3 + int(s%2)
	p, err := sdr.Synthetic(sdr.GeneratorConfig{
		Regions: regions, MaxCLB: 20, MaxBRAM: 2, MaxDSP: 4, ChainNets: true, Seed: s,
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: synthetic base %d: %v", s, err))
	}
	ri := rand.New(rand.NewSource(s)).Intn(regions)
	if (s-1000)%4 < 2 {
		return p.WithFCConstraints([]int{ri}, 1)
	}
	p.FCAreas = append(p.FCAreas, core.FCRequest{Region: ri, Mode: core.RelocMetric, Weight: 1})
	return p
}

// paperBases are the paper's SDR instances (Section VI).
func paperBases() []base {
	return []base{{"sdr", sdr.Problem()}, {"sdr2", sdr.SDR2()}, {"sdr3", sdr.SDR3()}}
}

// synthBases returns the synthetic bases of the given generator seeds.
func synthBases(seeds []int64) []base {
	out := make([]base, 0, len(seeds))
	for _, s := range seeds {
		out = append(out, base{fmt.Sprintf("syn%d", s), synthBase(s)})
	}
	return out
}

// library is every base the offline workload solves.
func library() []base {
	return append(append(paperBases(), synthBases(smallSeeds())...), synthBases(largeSeeds)...)
}

// relabel returns a copy of p with its regions renamed with tag. Every
// base is on the FX70T, and the copy gets a new FX70T object: core caches
// candidate lists by device identity, so the copy enumerates its
// candidates as a fresh design does.
func relabel(p *core.Problem, tag string) *core.Problem {
	q := *p
	q.Device = device.VirtexFX70T()
	if q.Device.Name() != p.Device.Name() {
		panic("perfbench: relabel of a base not on the FX70T")
	}
	q.Regions = make([]core.Region, len(p.Regions))
	for i, r := range p.Regions {
		q.Regions[i] = core.Region{Name: r.Name + "-" + tag, Req: r.Req.Clone()}
	}
	q.Nets = append([]core.Net(nil), p.Nets...)
	q.FCAreas = append([]core.FCRequest(nil), p.FCAreas...)
	return &q
}

// instance is one problem to solve, with the base it relabels.
type instance struct {
	base string
	p    *core.Problem
}

// cycler hands out relabelings of its bases in rounds, each round every
// base once in library order. A run measures whole rounds, so every run
// solves each base equally often; the fixed order also fixes which
// designs queue behind a slow one in the open loop.
type cycler struct {
	seed  int64
	n     int // relabelings handed out
	bases []base
	round []base
}

func newCycler(seed int64, bases []base) *cycler {
	return &cycler{seed: seed, bases: bases}
}

// relabel returns a new relabeling of b, named after the seed.
func (c *cycler) relabel(b base) instance {
	c.n++
	return instance{base: b.name, p: relabel(b.p, fmt.Sprintf("%x.%d", c.seed, c.n))}
}

// roundDone reports whether the current round is complete.
func (c *cycler) roundDone() bool { return len(c.round) == 0 }

func (c *cycler) next() instance {
	if len(c.round) == 0 {
		c.round = c.bases
	}
	b := c.round[0]
	c.round = c.round[1:]
	return c.relabel(b)
}

// onlineStreamSeeds are the GenerateWorkload seeds of the online
// workload's streams. A run replays them in whole rounds, each round in
// an order drawn from the run's seed, so every run's latency percentiles
// come from the same events.
var onlineStreamSeeds = []int64{101, 102, 103, 104, 105, 106, 107, 108}

// onlineWarmSeed is the stream of the online set-up's warm-up session.
const onlineWarmSeed = 100

// onlineStream returns a seeded arrival/departure stream for the FX70T
// at intensity 0.6.
func onlineStream(seed int64, events int) []floorplanner.SessionEvent {
	return floorplanner.GenerateWorkload(floorplanner.WorkloadConfig{
		Seed: seed, Events: events, Intensity: onlineIntensity,
	})
}

// onlineIntensity is the target occupancy of every session stream.
const onlineIntensity = 0.6
