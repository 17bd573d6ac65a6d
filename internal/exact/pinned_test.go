package exact

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sdr"
)

// TestPinnedSearch pins, at Workers=1, the floorplan and the node count
// the search returns on the paper's designs. The engine's data layout
// (mask words, slot cache, candidate waste) may change how fast a node is
// processed; it must not change which nodes are visited or which
// floorplan wins the tie-breaks.
func TestPinnedSearch(t *testing.T) {
	rc := grid.NewRect
	fc := func(req, x, y, w, h int) core.FCPlacement {
		return core.FCPlacement{Request: req, Placed: true, Rect: rc(x, y, w, h)}
	}
	cases := []struct {
		name    string
		p       *core.Problem
		nodes   int
		waste   int
		wl      float64
		regions []grid.Rect
		fc      []core.FCPlacement
	}{
		{
			name: "SDR", p: sdr.Problem(), nodes: 1115541, waste: 126, wl: 1504,
			regions: []grid.Rect{rc(6, 0, 6, 5), rc(5, 5, 8, 1), rc(10, 6, 4, 2), rc(14, 6, 13, 1), rc(18, 1, 13, 5)},
		},
		{
			name: "SDR2", p: sdr.SDR2(), nodes: 198269, waste: 126, wl: 1632,
			regions: []grid.Rect{rc(4, 1, 6, 5), rc(4, 0, 8, 1), rc(10, 1, 4, 2), rc(14, 1, 13, 1), rc(18, 2, 13, 5)},
			fc: []core.FCPlacement{
				fc(0, 4, 6, 8, 1), fc(1, 4, 7, 8, 1), fc(2, 0, 0, 4, 2),
				fc(3, 0, 2, 4, 2), fc(4, 14, 0, 13, 1), fc(5, 14, 7, 13, 1),
			},
		},
		{
			name: "SDR3", p: sdr.SDR3(), nodes: 211570, waste: 126, wl: 1888,
			regions: []grid.Rect{rc(27, 3, 6, 5), rc(24, 2, 8, 1), rc(20, 2, 4, 2), rc(14, 1, 13, 1), rc(0, 0, 13, 5)},
			fc: []core.FCPlacement{
				fc(0, 4, 5, 8, 1), fc(1, 4, 6, 8, 1), fc(2, 4, 7, 8, 1),
				fc(3, 0, 5, 4, 2), fc(4, 20, 4, 4, 2), fc(5, 30, 0, 4, 2),
				fc(6, 14, 0, 13, 1), fc(7, 14, 6, 13, 1), fc(8, 14, 7, 13, 1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := (&Engine{}).Solve(context.Background(), tc.p, core.SolveOptions{TimeLimit: 120 * time.Second, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Proven {
				t.Fatal("not proven optimal")
			}
			m := sol.Metrics(tc.p)
			if m.RelocationMiss != 0 || m.WastedFrames != tc.waste || m.WireLength != tc.wl {
				t.Errorf("objective (miss, waste, wl) = (%v, %d, %v), want (0, %d, %v)",
					m.RelocationMiss, m.WastedFrames, m.WireLength, tc.waste, tc.wl)
			}
			if !slices.Equal(sol.Regions, tc.regions) {
				t.Errorf("regions = %v, want %v", sol.Regions, tc.regions)
			}
			if !slices.Equal(sol.FC, tc.fc) {
				t.Errorf("FC = %v, want %v", sol.FC, tc.fc)
			}
			if sol.Nodes != tc.nodes {
				t.Errorf("nodes = %d, want %d", sol.Nodes, tc.nodes)
			}
		})
	}
}
