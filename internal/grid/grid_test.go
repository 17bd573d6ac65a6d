package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(2, 3, 4, 5)
	if r.Area() != 20 {
		t.Fatalf("area = %d", r.Area())
	}
	if r.X2() != 6 || r.Y2() != 8 {
		t.Fatalf("edges = %d, %d", r.X2(), r.Y2())
	}
	if !r.Contains(2, 3) || !r.Contains(5, 7) {
		t.Fatal("corner containment")
	}
	if r.Contains(6, 3) || r.Contains(2, 8) {
		t.Fatal("exclusive edge containment")
	}
	if r.HalfPerimeter() != 9 {
		t.Fatalf("half perimeter = %d", r.HalfPerimeter())
	}
}

func TestNewRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero width")
		}
	}()
	NewRect(0, 0, 0, 3)
}

func TestOverlapSymmetric(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 3, H: 3}
	b := Rect{X: 2, Y: 2, W: 3, H: 3}
	c := Rect{X: 3, Y: 0, W: 2, H: 2}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a and b must overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Fatal("a and c must not overlap (touching edges)")
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 5, H: 5}
	b := Rect{X: 3, Y: 2, W: 5, H: 5}
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := Rect{X: 3, Y: 2, W: 2, H: 3}
	if got != want {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if _, ok := a.Intersect(Rect{X: 5, Y: 0, W: 1, H: 1}); ok {
		t.Fatal("touching rectangles must not intersect")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	f := func(ax, ay, bx, by int8, w1, h1, w2, h2 uint8) bool {
		a := Rect{X: int(ax), Y: int(ay), W: int(w1%10) + 1, H: int(h1%10) + 1}
		b := Rect{X: int(bx), Y: int(by), W: int(w2%10) + 1, H: int(h2%10) + 1}
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionProperties(t *testing.T) {
	f := func(ax, ay, bx, by int8, w1, h1, w2, h2 uint8) bool {
		a := Rect{X: int(ax % 20), Y: int(ay % 20), W: int(w1%10) + 1, H: int(h1%10) + 1}
		b := Rect{X: int(bx % 20), Y: int(by % 20), W: int(w2%10) + 1, H: int(h2%10) + 1}
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || i1 != i2 {
			return false // intersection must be symmetric
		}
		if ok1 != a.Overlaps(b) {
			return false // Overlaps and Intersect must agree
		}
		if ok1 && (!a.ContainsRect(i1) || !b.ContainsRect(i1)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslate(t *testing.T) {
	r := Rect{X: 1, Y: 2, W: 3, H: 4}
	got := r.Translate(-1, 5)
	want := Rect{X: 0, Y: 7, W: 3, H: 4}
	if got != want {
		t.Fatalf("translate = %v, want %v", got, want)
	}
}

func TestCenters(t *testing.T) {
	r := Rect{X: 0, Y: 0, W: 3, H: 4}
	if r.CenterX2() != 3 || r.CenterY2() != 4 {
		t.Fatalf("centers = %d, %d", r.CenterX2(), r.CenterY2())
	}
}

func TestDisjoint(t *testing.T) {
	rs := []Rect{{0, 0, 2, 2}, {2, 0, 2, 2}, {0, 2, 4, 1}}
	if !Disjoint(rs) {
		t.Fatal("rects should be disjoint")
	}
	rs = append(rs, Rect{1, 1, 2, 2})
	if Disjoint(rs) {
		t.Fatal("overlap not detected")
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := Interval{Lo: 2, Hi: 7}
	if a.Len() != 5 {
		t.Fatalf("len = %d", a.Len())
	}
	if got := a.Overlap(Interval{Lo: 5, Hi: 10}); got != 2 {
		t.Fatalf("overlap = %d", got)
	}
	if got := a.Overlap(Interval{Lo: 7, Hi: 9}); got != 0 {
		t.Fatalf("touching overlap = %d", got)
	}
}

func TestTilesVisitsAll(t *testing.T) {
	r := Rect{X: 1, Y: 1, W: 3, H: 2}
	seen := map[[2]int]bool{}
	r.Tiles(func(c, row int) { seen[[2]int{c, row}] = true })
	if len(seen) != 6 {
		t.Fatalf("visited %d tiles, want 6", len(seen))
	}
	for pos := range seen {
		if !r.Contains(pos[0], pos[1]) {
			t.Fatalf("visited tile %v outside rect", pos)
		}
	}
}

func TestMaskMatchesRects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		w := 1 + rng.Intn(70)
		h := 1 + rng.Intn(12)
		m := NewMask(w, h)
		var placed []Rect
		for i := 0; i < 5; i++ {
			r := Rect{
				X: rng.Intn(w), Y: rng.Intn(h),
				W: 1 + rng.Intn(w), H: 1 + rng.Intn(h),
			}
			probe := Rect{
				X: rng.Intn(w), Y: rng.Intn(h),
				W: 1 + rng.Intn(8), H: 1 + rng.Intn(4),
			}
			wantOverlap := false
			clippedProbe, okP := probe.Intersect(Rect{0, 0, w, h})
			if okP {
				for _, p := range placed {
					if clippedProbe.Overlaps(p) {
						wantOverlap = true
						break
					}
				}
			}
			if got := m.OverlapsRect(probe); got != wantOverlap {
				t.Fatalf("trial %d: OverlapsRect(%v) = %v, want %v (placed %v)", trial, probe, got, wantOverlap, placed)
			}
			m.SetRect(r)
			if cl, ok := r.Intersect(Rect{0, 0, w, h}); ok {
				placed = append(placed, cl)
			}
		}
		// Count must equal union area, computed by brute force.
		count := 0
		for c := 0; c < w; c++ {
			for row := 0; row < h; row++ {
				covered := false
				for _, p := range placed {
					if p.Contains(c, row) {
						covered = true
						break
					}
				}
				if covered {
					count++
				}
				if got := m.Get(c, row); got != covered {
					t.Fatalf("trial %d: Get(%d,%d) = %v, want %v", trial, c, row, got, covered)
				}
			}
		}
		if m.Count() != count {
			t.Fatalf("trial %d: count = %d, want %d", trial, m.Count(), count)
		}
	}
}

// TestMaskMatchesTileReference interleaves random SetRect, ClearRect and
// OverlapsRect calls against a per-tile [][]bool model. The widths put a
// row in one word, exactly fill one or two words, or spill one column
// into the next word; rects reach past every edge of the grid to exercise
// the clip.
func TestMaskMatchesTileReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{1, 41, 63, 64, 65, 128, 129} {
		for trial := 0; trial < 20; trial++ {
			h := 1 + rng.Intn(9)
			m := NewMask(w, h)
			ref := make([][]bool, h)
			for r := range ref {
				ref[r] = make([]bool, w)
			}
			randRect := func() Rect {
				return Rect{
					X: rng.Intn(w+8) - 4, Y: rng.Intn(h+4) - 2,
					W: rng.Intn(w + 4), H: rng.Intn(h + 2),
				}
			}
			// covered visits the tiles of rect inside the grid.
			covered := func(rect Rect, fn func(c, r int)) {
				for r := max(rect.Y, 0); r < min(rect.Y2(), h); r++ {
					for c := max(rect.X, 0); c < min(rect.X2(), w); c++ {
						fn(c, r)
					}
				}
			}
			for op := 0; op < 60; op++ {
				rect := randRect()
				switch rng.Intn(3) {
				case 0:
					m.SetRect(rect)
					covered(rect, func(c, r int) { ref[r][c] = true })
				case 1:
					m.ClearRect(rect)
					covered(rect, func(c, r int) { ref[r][c] = false })
				default:
					want := false
					covered(rect, func(c, r int) { want = want || ref[r][c] })
					if got := m.OverlapsRect(rect); got != want {
						t.Fatalf("w=%d h=%d op %d: OverlapsRect(%v) = %v, want %v", w, h, op, rect, got, want)
					}
				}
			}
			count := 0
			for r := 0; r < h; r++ {
				for c := 0; c < w; c++ {
					if got := m.Get(c, r); got != ref[r][c] {
						t.Fatalf("w=%d h=%d: Get(%d,%d) = %v, want %v", w, h, c, r, got, ref[r][c])
					}
					if ref[r][c] {
						count++
					}
				}
			}
			if got := m.Count(); got != count {
				t.Fatalf("w=%d h=%d: Count = %d, want %d", w, h, got, count)
			}
			if got := m.Any(); got != (count > 0) {
				t.Fatalf("w=%d h=%d: Any = %v with %d tiles set", w, h, got, count)
			}
		}
	}
}

func TestMaskSetClearRoundTrip(t *testing.T) {
	m := NewMask(41, 8)
	r := Rect{X: 5, Y: 2, W: 30, H: 4}
	m.SetRect(r)
	if !m.Any() {
		t.Fatal("mask should be non-empty")
	}
	m.ClearRect(r)
	if m.Any() {
		t.Fatal("mask should be empty after clearing the same rect")
	}
}

func TestMaskClone(t *testing.T) {
	m := NewMask(10, 10)
	m.Set(3, 3)
	cp := m.Clone()
	cp.Set(4, 4)
	if m.Get(4, 4) {
		t.Fatal("clone shares storage with original")
	}
	if !cp.Get(3, 3) {
		t.Fatal("clone lost original bits")
	}
}

func TestMaskReset(t *testing.T) {
	m := NewMask(10, 4)
	m.SetRect(Rect{0, 0, 10, 4})
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}
