package session

import "testing"

// TestPinnedFrameDigest replays a fixed seeded stream, with defragmentation
// on, and pins the configuration memory's digest and the reconfiguration
// counters at the end. Every arrival, departure and relocation writes or
// clears frames, so a change to the frame plane, the relocation filter or
// the CRC that altered any stored byte moves one of these numbers.
func TestPinnedFrameDigest(t *testing.T) {
	m := newTestManager(t, Config{FragThreshold: 0.45, DefragCooldown: 4})
	for i, ev := range GenerateWorkload(WorkloadConfig{Seed: 7, Events: 250, Intensity: 0.6}) {
		if _, err := m.Apply(ev); err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
	}
	rs := m.ReconfigStats()
	if got := m.FrameDigest(); got != 0xcf957aad {
		t.Errorf("FrameDigest = %#08x, want 0xcf957aad", got)
	}
	if rs.FramesWritten != 84990 || rs.Relocations != 123 {
		t.Errorf("frames written %d, relocations %d; want 84990, 123", rs.FramesWritten, rs.Relocations)
	}
}
