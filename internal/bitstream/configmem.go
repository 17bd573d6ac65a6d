package bitstream

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/grid"
)

// ConfigMemory simulates the device's configuration memory plane: frames
// are written through Load, which performs the checks the configuration
// interface (and a bitstream filter) would perform.
//
// The plane is dense. Every frame of every non-forbidden tile has one
// slot, laid out in address order (column, then row, then minor), and a
// per-tile base offset maps a frame address to its slot. Each slot holds
// its payload and its owner, an interned task id (0 = unconfigured), and
// each task keeps the list of slots it owns. Load, Unload, Frame and
// CorruptFrame therefore cost only the frames they touch, Digest walks
// the plane in address order without sorting, and LoadedFrames is a
// counter. An FX70T plane is 10,912 slots, about 700 KB of payload.
type ConfigMemory struct {
	dev  *device.Device
	w, h int
	// base[c*h+r] is the first slot of tile (c, r); base[c*h+r+1] ends
	// it. Forbidden tiles own no slots. The last entry is the slot count.
	base    []int
	payload [][FrameBytes]byte
	owner   []int32

	tasks  map[string]int32 // task name -> id (ids start at 1)
	names  []string         // per id; "" once released
	owned  [][]int32        // per id: the slots the task owns
	free   []int32          // released ids, reused by later tasks
	loaded int
}

// NewConfigMemory returns an empty configuration memory for d.
func NewConfigMemory(d *device.Device) *ConfigMemory {
	w, h := d.Width(), d.Height()
	base := make([]int, w*h+1)
	n := 0
	for c := 0; c < w; c++ {
		for r := 0; r < h; r++ {
			base[c*h+r] = n
			if !d.InForbidden(c, r) {
				n += d.TileAt(c, r).Frames
			}
		}
	}
	base[w*h] = n
	return &ConfigMemory{
		dev:     d,
		w:       w,
		h:       h,
		base:    base,
		payload: make([][FrameBytes]byte, n),
		owner:   make([]int32, n),
		tasks:   map[string]int32{},
		names:   []string{""},
		owned:   [][]int32{nil},
	}
}

// slot maps a frame address to its plane slot; ok is false for addresses
// outside the device, on forbidden tiles or past the tile's minors.
func (cm *ConfigMemory) slot(a FrameAddress) (int, bool) {
	if a.Column < 0 || a.Column >= cm.w || a.Row < 0 || a.Row >= cm.h || a.Minor < 0 {
		return 0, false
	}
	tile := a.Column*cm.h + a.Row
	if a.Minor >= cm.base[tile+1]-cm.base[tile] {
		return 0, false
	}
	return cm.base[tile] + a.Minor, true
}

// addr is the inverse of slot.
func (cm *ConfigMemory) addr(s int) FrameAddress {
	tile := sort.Search(len(cm.base)-1, func(i int) bool { return cm.base[i+1] > s })
	return FrameAddress{Column: tile / cm.h, Row: tile % cm.h, Minor: s - cm.base[tile]}
}

// Load writes a partial bitstream into configuration memory under the
// given task name. It rejects bitstreams with a stale CRC, frames outside
// the device or its stated area, frames addressed at forbidden tiles, and
// minor indices beyond the tile type's frame count. Tiles already owned
// by a different task are rejected too (the "must not overlap other
// tasks" rule of Definition .2). A rejected bitstream writes nothing.
func (cm *ConfigMemory) Load(bs *Bitstream, task string) error {
	if bs.DeviceName != cm.dev.Name() {
		return fmt.Errorf("bitstream: device mismatch: %q vs %q", bs.DeviceName, cm.dev.Name())
	}
	if !bs.CheckCRC() {
		return fmt.Errorf("bitstream: CRC mismatch (filter forgot to reseal?)")
	}
	bounds := cm.dev.Bounds()
	id := cm.tasks[task] // 0 when the task owns nothing yet
	var t device.TileType
	for i, f := range bs.Frames {
		c, r := f.Addr.Column, f.Addr.Row
		// The tile checks depend only on (c, r): a frame on the same tile
		// as the one before it has already passed them.
		if i == 0 || c != bs.Frames[i-1].Addr.Column || r != bs.Frames[i-1].Addr.Row {
			if !bounds.Contains(c, r) {
				return fmt.Errorf("bitstream: frame %v outside the device", f.Addr)
			}
			if !bs.Area.Contains(c, r) {
				return fmt.Errorf("bitstream: frame %v outside the declared area %v", f.Addr, bs.Area)
			}
			if cm.dev.InForbidden(c, r) {
				return fmt.Errorf("bitstream: frame %v targets a forbidden tile", f.Addr)
			}
			t = cm.dev.TileAt(c, r)
		}
		if f.Addr.Minor < 0 || f.Addr.Minor >= t.Frames {
			return fmt.Errorf("bitstream: frame %v has minor index beyond %s's %d frames", f.Addr, t.Name, t.Frames)
		}
		s := cm.base[c*cm.h+r] + f.Addr.Minor
		if o := cm.owner[s]; o != 0 && o != id {
			return fmt.Errorf("bitstream: frame %v already configured by task %q", f.Addr, cm.names[o])
		}
	}
	if id == 0 && len(bs.Frames) > 0 {
		id = cm.intern(task)
	}
	for _, f := range bs.Frames {
		s := cm.base[f.Addr.Column*cm.h+f.Addr.Row] + f.Addr.Minor
		if cm.owner[s] == 0 {
			cm.owner[s] = id
			cm.owned[id] = append(cm.owned[id], int32(s))
			cm.loaded++
		}
		cm.payload[s] = f.Payload
	}
	return nil
}

// intern gives a task that owns nothing yet an id.
func (cm *ConfigMemory) intern(task string) int32 {
	var id int32
	if n := len(cm.free); n > 0 {
		id = cm.free[n-1]
		cm.free = cm.free[:n-1]
		cm.names[id] = task
	} else {
		id = int32(len(cm.names))
		cm.names = append(cm.names, task)
		cm.owned = append(cm.owned, nil)
	}
	cm.tasks[task] = id
	return id
}

// Unload clears every frame owned by the task (the area becomes free for
// relocation targets again).
func (cm *ConfigMemory) Unload(task string) {
	id, ok := cm.tasks[task]
	if !ok {
		return
	}
	for _, s := range cm.owned[id] {
		cm.owner[s] = 0
	}
	cm.loaded -= len(cm.owned[id])
	cm.owned[id] = cm.owned[id][:0]
	cm.names[id] = ""
	cm.free = append(cm.free, id)
	delete(cm.tasks, task)
}

// Frame reads back one configured frame.
func (cm *ConfigMemory) Frame(addr FrameAddress) ([FrameBytes]byte, bool) {
	s, ok := cm.slot(addr)
	if !ok || cm.owner[s] == 0 {
		return [FrameBytes]byte{}, false
	}
	return cm.payload[s], true
}

// CorruptFrame flips the given bit mask into the first payload word of a
// loaded frame, reporting whether the frame existed. It models an upset
// during shift-in — the write "succeeded" but the stored content is
// wrong — and exists for fault injection; only readback can detect it.
func (cm *ConfigMemory) CorruptFrame(addr FrameAddress, mask byte) bool {
	s, ok := cm.slot(addr)
	if !ok || cm.owner[s] == 0 {
		return false
	}
	cm.payload[s][0] ^= mask
	return true
}

// Digest hashes every configured frame (address and payload, in address
// order) into one CRC-32. Two configuration memories holding the same
// design content at the same locations digest identically — the
// frame-for-frame equality check crash-recovery verification relies on.
func (cm *ConfigMemory) Digest() uint32 {
	st := newCRCStream()
	for tile := 0; tile < len(cm.base)-1; tile++ {
		c, r := tile/cm.h, tile%cm.h
		for s := cm.base[tile]; s < cm.base[tile+1]; s++ {
			if cm.owner[s] == 0 {
				continue
			}
			b := st.next(6 + FrameBytes)
			binary.LittleEndian.PutUint16(b[0:], uint16(c))
			binary.LittleEndian.PutUint16(b[2:], uint16(r))
			binary.LittleEndian.PutUint16(b[4:], uint16(s-cm.base[tile]))
			copy(b[6:], cm.payload[s][:])
		}
	}
	return st.sum()
}

// LoadedFrames returns the number of configured frames.
func (cm *ConfigMemory) LoadedFrames() int { return cm.loaded }

// TaskEquivalent reports whether two tasks' configurations are
// functionally identical: same relative frame layout and payloads within
// their areas. A correct relocation always satisfies this.
func (cm *ConfigMemory) TaskEquivalent(taskA string, areaA grid.Rect, taskB string, areaB grid.Rect) bool {
	if !areaA.SameShape(areaB) {
		return false
	}
	idA, idB := cm.tasks[taskA], cm.tasks[taskB]
	if idA == 0 || idB == 0 || len(cm.owned[idA]) != len(cm.owned[idB]) {
		return false
	}
	// Distinct frames of B map to distinct frames of A, so with equal
	// counts every frame of B matching one of A is a bijection.
	for _, sb := range cm.owned[idB] {
		a := cm.addr(int(sb))
		a.Column += areaA.X - areaB.X
		a.Row += areaA.Y - areaB.Y
		sa, ok := cm.slot(a)
		if !ok || cm.owner[sa] != idA || cm.payload[sa] != cm.payload[sb] {
			return false
		}
	}
	return true
}
