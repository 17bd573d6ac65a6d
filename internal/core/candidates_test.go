package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/grid"
)

// bruteMinWaste finds the minimum waste over ALL legal rectangles (not
// only width-minimal ones) by complete enumeration.
func bruteMinWaste(d *device.Device, req device.Requirements) int {
	best := -1
	for x := 0; x < d.Width(); x++ {
		for y := 0; y < d.Height(); y++ {
			for w := 1; x+w <= d.Width(); w++ {
				for h := 1; y+h <= d.Height(); h++ {
					r := grid.Rect{X: x, Y: y, W: w, H: h}
					if !d.CanPlace(r) || !d.Satisfies(r, req) {
						continue
					}
					if waste := d.WastedFrames(r, req); best < 0 || waste < best {
						best = waste
					}
				}
			}
		}
	}
	return best
}

// TestQuickCandidatesReachBruteForceMinimum: the width-minimal candidate
// set always contains a rectangle achieving the global minimum waste —
// the losslessness property the exact engine relies on.
func TestQuickCandidatesReachBruteForceMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 6 + rng.Intn(8), Height: 2 + rng.Intn(4),
			BRAMEvery: 4, DSPEvery: 6,
			ForbiddenBlocks: rng.Intn(2),
			Seed:            seed,
		})
		req := device.Requirements{device.ClassCLB: 1 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			req[device.ClassBRAM] = 1 + rng.Intn(2)
		}
		want := bruteMinWaste(d, req)
		got := MinWaste(EnumerateCandidates(d, req))
		if got != want {
			t.Logf("seed %d: candidates min %d, brute force %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCandidatesAllLegal: every enumerated candidate is a legal,
// satisfying, width-minimal placement.
func TestQuickCandidatesAllLegal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := device.MustGenerate(device.GeneratorConfig{
			Width: 8 + rng.Intn(10), Height: 3 + rng.Intn(4),
			BRAMEvery: 5, DSPEvery: 7,
			ForbiddenBlocks: rng.Intn(3),
			Seed:            seed,
		})
		req := device.Requirements{device.ClassCLB: 2 + rng.Intn(8)}
		if rng.Intn(2) == 0 {
			req[device.ClassDSP] = 1
		}
		for _, c := range EnumerateCandidates(d, req) {
			if !d.CanPlace(c.Rect) || !d.Satisfies(c.Rect, req) {
				return false
			}
			if c.Rect.W > 1 {
				narrower := grid.Rect{X: c.Rect.X, Y: c.Rect.Y, W: c.Rect.W - 1, H: c.Rect.H}
				if d.Satisfies(narrower, req) {
					return false // not width-minimal for its anchor
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// mapWastedFrames is the map-based waste reference: per-class tile counts
// from CountClasses, each class priced at the frames of its last tile
// type.
func mapWastedFrames(d *device.Device, r grid.Rect, req device.Requirements) int {
	classFrames := map[device.Class]int{}
	for _, t := range d.Types() {
		classFrames[t.Class] = t.Frames
	}
	waste := 0
	for cl, n := range d.CountClasses(r) {
		if extra := n - req[cl]; extra > 0 {
			waste += extra * classFrames[cl]
		}
	}
	return waste
}

// TestCandidateWasteMatchesWastedFrames checks the waste the candidate
// sweep reads off its window counts against d.WastedFrames and the
// map-based reference, for every candidate on every device constructor
// under seeded random requirements.
func TestCandidateWasteMatchesWastedFrames(t *testing.T) {
	// Two CLB tile types with different frame counts exercise the
	// last-type-per-class rule; the cell grid is not columnar.
	mixedTypes := []device.TileType{
		{Name: "CLB-a", Class: device.ClassCLB, Frames: 36},
		{Name: "BRAM", Class: device.ClassBRAM, Frames: 30},
		{Name: "CLB-b", Class: device.ClassCLB, Frames: 40},
		{Name: "DSP", Class: device.ClassDSP, Frames: 28},
	}
	mixedRNG := rand.New(rand.NewSource(5))
	mixedCells := make([]device.TypeID, 14*6)
	for i := range mixedCells {
		mixedCells[i] = device.TypeID(mixedRNG.Intn(len(mixedTypes)))
	}
	mixed, err := device.New("mixed", 14, 6, mixedTypes, mixedCells, []grid.Rect{{X: 5, Y: 2, W: 2, H: 2}})
	if err != nil {
		t.Fatal(err)
	}
	devices := []*device.Device{
		device.VirtexFX70T(),
		device.Kintex7K160T(),
		device.Figure1Device(),
		device.Figure2Device(),
		device.MustGenerate(device.GeneratorConfig{Width: 30, Height: 6, BRAMEvery: 7, DSPEvery: 11, ForbiddenBlocks: 3, ForbiddenMaxW: 4, ForbiddenMaxH: 3, Seed: 9}),
		mixed,
	}
	rng := rand.New(rand.NewSource(21))
	for _, d := range devices {
		checked := 0
		for trial := 0; trial < 8; trial++ {
			req := device.Requirements{}
			avail := d.CountClasses(d.Bounds())
			for _, cl := range d.Classes() {
				if rng.Intn(3) > 0 {
					req[cl] = rng.Intn(avail[cl]/4 + 1)
				}
			}
			if trial == 0 {
				req[device.ClassIO] = 1 // a class no tile type provides
			}
			for _, c := range EnumerateCandidates(d, req) {
				want := mapWastedFrames(d, c.Rect, req)
				if got := d.WastedFrames(c.Rect, req); got != want {
					t.Fatalf("%s %v: WastedFrames = %d, map reference = %d", d.Name(), c.Rect, got, want)
				}
				if c.Waste != want {
					t.Fatalf("%s %v req %v: candidate waste = %d, want %d", d.Name(), c.Rect, req, c.Waste, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no candidates checked", d.Name())
		}
	}
}
