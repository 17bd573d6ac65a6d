package grid

import "math/bits"

// Mask is a dense occupancy bitmap over a W x H tile grid. It is the
// workhorse of the combinatorial placement engines: overlap tests against
// the set of already-placed rectangles reduce to word-wise AND.
//
// Each row owns stride = ceil(W/64) whole words, so no word holds tiles of
// two rows: the tile (c, r) is bit c&63 of word r*stride + c>>6. The
// columns of a rectangle therefore map to the same word masks on every row
// it covers. On a device at most 64 columns wide (the FX70T is 41) that is
// one precomputed word per row; wider grids take one word more per 64
// columns spanned. The padding bits past column W-1 are never set.
type Mask struct {
	w, h   int
	stride int // words per row
	words  []uint64
}

// NewMask returns an empty mask for a w x h grid.
func NewMask(w, h int) *Mask {
	if w <= 0 || h <= 0 {
		panic("grid: non-positive mask dimensions")
	}
	stride := (w + 63) / 64
	return &Mask{w: w, h: h, stride: stride, words: make([]uint64, stride*h)}
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	cp := *m
	cp.words = append([]uint64(nil), m.words...)
	return &cp
}

// W returns the grid width.
func (m *Mask) W() int { return m.w }

// H returns the grid height.
func (m *Mask) H() int { return m.h }

func (m *Mask) bit(c, r int) (word int, bit uint64) {
	return r*m.stride + c>>6, 1 << uint(c&63)
}

// Get reports whether tile (c, r) is set.
func (m *Mask) Get(c, r int) bool {
	w, b := m.bit(c, r)
	return m.words[w]&b != 0
}

// Set marks tile (c, r).
func (m *Mask) Set(c, r int) {
	w, b := m.bit(c, r)
	m.words[w] |= b
}

// Clear unmarks tile (c, r).
func (m *Mask) Clear(c, r int) {
	w, b := m.bit(c, r)
	m.words[w] &^= b
}

// span clips rect to the grid and returns it in word terms: rows
// [y1, y2), words lo..hi of each row, and the column bits of the first
// and of the last of those words (when lo == hi the row's bits are
// first&last). A rect with no tile in the grid gets y1 >= y2.
func (m *Mask) span(rect Rect) (y1, y2, lo, hi int, first, last uint64) {
	x1, x2 := max(rect.X, 0), min(rect.X+rect.W, m.w)-1 // inclusive
	y1, y2 = max(rect.Y, 0), min(rect.Y+rect.H, m.h)
	if x1 > x2 {
		y2 = y1
	}
	return y1, y2, x1 >> 6, x2 >> 6, ^uint64(0) << uint(x1&63), ^uint64(0) >> uint(63-(x2&63))
}

// SetRect marks every tile covered by rect. Tiles outside the grid are
// ignored.
func (m *Mask) SetRect(rect Rect) { m.fill(rect, ^uint64(0)) }

// ClearRect unmarks every tile covered by rect.
func (m *Mask) ClearRect(rect Rect) { m.fill(rect, 0) }

// fill writes v (all ones or all zeros) over the tiles covered by rect.
func (m *Mask) fill(rect Rect, v uint64) {
	y1, y2, lo, hi, first, last := m.span(rect)
	if lo == hi {
		bits := first & last
		for i := y1*m.stride + lo; i < y2*m.stride; i += m.stride {
			m.words[i] = m.words[i]&^bits | v&bits
		}
		return
	}
	for i := y1 * m.stride; i < y2*m.stride; i += m.stride {
		m.words[i+lo] = m.words[i+lo]&^first | v&first
		for j := i + lo + 1; j < i+hi; j++ {
			m.words[j] = v
		}
		m.words[i+hi] = m.words[i+hi]&^last | v&last
	}
}

// OverlapsRect reports whether any tile covered by rect is set.
func (m *Mask) OverlapsRect(rect Rect) bool {
	y1, y2, lo, hi, first, last := m.span(rect)
	if lo == hi {
		bits := first & last
		for i := y1*m.stride + lo; i < y2*m.stride; i += m.stride {
			if m.words[i]&bits != 0 {
				return true
			}
		}
		return false
	}
	for i := y1 * m.stride; i < y2*m.stride; i += m.stride {
		if m.words[i+lo]&first != 0 || m.words[i+hi]&last != 0 {
			return true
		}
		for j := i + lo + 1; j < i+hi; j++ {
			if m.words[j] != 0 {
				return true
			}
		}
	}
	return false
}

// Count returns the number of set tiles.
func (m *Mask) Count() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether at least one tile is set.
func (m *Mask) Any() bool {
	for _, w := range m.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears the whole mask.
func (m *Mask) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
}
