package bitstream

import (
	"testing"

	"repro/internal/grid"
)

// TestPinnedBytes pins the CRC and Digest values of a fixed design. CRCs
// are part of Encode's format and cmd/relocate checks them, and Digest is
// what crash recovery compares, so any change to how either is computed
// must leave these numbers alone.
func TestPinnedBytes(t *testing.T) {
	d := fx()
	bs, err := Generate(d, grid.Rect{X: 4, Y: 5, W: 8, H: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if bs.CRC != 0x137ad736 {
		t.Fatalf("Generate CRC = %#08x, want 0x137ad736", bs.CRC)
	}
	moved, err := Relocate(d, bs, grid.Rect{X: 4, Y: 6, W: 8, H: 1})
	if err != nil {
		t.Fatal(err)
	}
	if moved.CRC != 0xea442c85 {
		t.Fatalf("Relocate CRC = %#08x, want 0xea442c85", moved.CRC)
	}
	cm := NewConfigMemory(d)
	if got := cm.Digest(); got != 0 {
		t.Fatalf("empty Digest = %#08x, want 0", got)
	}
	if err := cm.Load(bs, "a"); err != nil {
		t.Fatal(err)
	}
	if err := cm.Load(moved, "b"); err != nil {
		t.Fatal(err)
	}
	if got := cm.Digest(); got != 0x7131a5c4 {
		t.Fatalf("Digest = %#08x, want 0x7131a5c4", got)
	}
	// Loading in the other order must not change the address-ordered digest.
	cm2 := NewConfigMemory(d)
	if err := cm2.Load(moved, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cm2.Load(bs, "a"); err != nil {
		t.Fatal(err)
	}
	if got := cm2.Digest(); got != 0x7131a5c4 {
		t.Fatalf("reversed-load Digest = %#08x, want 0x7131a5c4", got)
	}
}
