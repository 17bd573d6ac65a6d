package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/grid"
)

// refMemory is a map-based configuration memory: the straightforward
// model the dense plane must agree with, operation for operation.
type refMemory struct {
	dev    *device.Device
	frames map[FrameAddress][FrameBytes]byte
	owner  map[FrameAddress]string
}

func newRefMemory(d *device.Device) *refMemory {
	return &refMemory{dev: d, frames: map[FrameAddress][FrameBytes]byte{}, owner: map[FrameAddress]string{}}
}

func (rm *refMemory) Load(bs *Bitstream, task string) error {
	if bs.DeviceName != rm.dev.Name() {
		return fmt.Errorf("bitstream: device mismatch: %q vs %q", bs.DeviceName, rm.dev.Name())
	}
	if !bs.CheckCRC() {
		return fmt.Errorf("bitstream: CRC mismatch (filter forgot to reseal?)")
	}
	bounds := rm.dev.Bounds()
	for _, f := range bs.Frames {
		if !bounds.Contains(f.Addr.Column, f.Addr.Row) {
			return fmt.Errorf("bitstream: frame %v outside the device", f.Addr)
		}
		if !bs.Area.Contains(f.Addr.Column, f.Addr.Row) {
			return fmt.Errorf("bitstream: frame %v outside the declared area %v", f.Addr, bs.Area)
		}
		if rm.dev.InForbidden(f.Addr.Column, f.Addr.Row) {
			return fmt.Errorf("bitstream: frame %v targets a forbidden tile", f.Addr)
		}
		t := rm.dev.TileAt(f.Addr.Column, f.Addr.Row)
		if f.Addr.Minor < 0 || f.Addr.Minor >= t.Frames {
			return fmt.Errorf("bitstream: frame %v has minor index beyond %s's %d frames", f.Addr, t.Name, t.Frames)
		}
		if owner, taken := rm.owner[f.Addr]; taken && owner != task {
			return fmt.Errorf("bitstream: frame %v already configured by task %q", f.Addr, owner)
		}
	}
	for _, f := range bs.Frames {
		rm.frames[f.Addr] = f.Payload
		rm.owner[f.Addr] = task
	}
	return nil
}

func (rm *refMemory) Unload(task string) {
	for addr, owner := range rm.owner {
		if owner == task {
			delete(rm.frames, addr)
			delete(rm.owner, addr)
		}
	}
}

func (rm *refMemory) Frame(addr FrameAddress) ([FrameBytes]byte, bool) {
	p, ok := rm.frames[addr]
	return p, ok
}

func (rm *refMemory) CorruptFrame(addr FrameAddress, mask byte) bool {
	p, ok := rm.frames[addr]
	if !ok {
		return false
	}
	p[0] ^= mask
	rm.frames[addr] = p
	return true
}

func (rm *refMemory) Digest() uint32 {
	addrs := make([]FrameAddress, 0, len(rm.frames))
	for addr := range rm.frames {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		a, b := addrs[i], addrs[j]
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Minor < b.Minor
	})
	h := crc32.NewIEEE()
	var buf [6]byte
	for _, addr := range addrs {
		binary.LittleEndian.PutUint16(buf[0:], uint16(addr.Column))
		binary.LittleEndian.PutUint16(buf[2:], uint16(addr.Row))
		binary.LittleEndian.PutUint16(buf[4:], uint16(addr.Minor))
		h.Write(buf[:])
		p := rm.frames[addr]
		h.Write(p[:])
	}
	return h.Sum32()
}

func (rm *refMemory) TaskEquivalent(taskA string, areaA grid.Rect, taskB string, areaB grid.Rect) bool {
	if !areaA.SameShape(areaB) {
		return false
	}
	framesA := map[FrameAddress][FrameBytes]byte{}
	for addr, owner := range rm.owner {
		if owner == taskA {
			rel := FrameAddress{Column: addr.Column - areaA.X, Row: addr.Row - areaA.Y, Minor: addr.Minor}
			framesA[rel] = rm.frames[addr]
		}
	}
	count := 0
	for addr, owner := range rm.owner {
		if owner != taskB {
			continue
		}
		count++
		rel := FrameAddress{Column: addr.Column - areaB.X, Row: addr.Row - areaB.Y, Minor: addr.Minor}
		pa, ok := framesA[rel]
		if !ok || pa != rm.frames[addr] {
			return false
		}
	}
	return count == len(framesA) && count > 0
}

// checksumRef is the CRC byte stream written field by field through
// hash.Hash32, the way the format defines it.
func checksumRef(bs *Bitstream) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(bs.DeviceName))
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeInt(bs.Area.X)
	writeInt(bs.Area.Y)
	writeInt(bs.Area.W)
	writeInt(bs.Area.H)
	for _, f := range bs.Frames {
		writeInt(f.Addr.Column)
		writeInt(f.Addr.Row)
		writeInt(f.Addr.Minor)
		h.Write(f.Payload[:])
	}
	return h.Sum32()
}

// chooser supplies the differential check's decisions: a seeded rand in
// tests, the fuzzer's bytes in FuzzConfigMemory.
type chooser interface {
	intn(n int) int
}

type rngChooser struct{ *rand.Rand }

func (c rngChooser) intn(n int) int { return c.Intn(n) }

type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0])
	c.data = c.data[1:]
	return v % n
}

var diffTasks = []string{"a", "b", "c", ""}

// randomBitstream builds a bitstream for a random area, often hand-edited
// the ways a broken filter or a hostile input could edit it: a subset of
// a tile's minors, out-of-range minors, frames moved off the area or the
// device or onto forbidden tiles, duplicated or shuffled frames, a stale
// CRC or a foreign device name. nil when the drawn area is not placeable.
func randomBitstream(d *device.Device, ch chooser) *Bitstream {
	area := grid.Rect{X: ch.intn(d.Width()+2) - 1, Y: ch.intn(d.Height()+2) - 1, W: 1 + ch.intn(6), H: 1 + ch.intn(3)}
	bs, err := Generate(d, area, int64(ch.intn(4)))
	if err != nil {
		return nil
	}
	reseal := true
	i := ch.intn(len(bs.Frames))
	switch ch.intn(12) {
	case 0: // a subset of the tiles' minors
		kept := bs.Frames[:0]
		for _, f := range bs.Frames {
			if ch.intn(2) == 0 {
				kept = append(kept, f)
			}
		}
		bs.Frames = kept
	case 1: // minor index out of range
		bs.Frames[i].Addr.Minor = []int{-1, 28, 30, 36, 1 << 20}[ch.intn(5)]
	case 2: // anywhere on (or just off) the device, declared area widened
		bs.Area = d.Bounds()
		bs.Frames[i].Addr = FrameAddress{Column: ch.intn(d.Width()+2) - 1, Row: ch.intn(d.Height()+2) - 1, Minor: ch.intn(40)}
	case 3: // shifted off the declared area
		bs.Frames[i].Addr.Column += ch.intn(5) - 2
		bs.Frames[i].Addr.Row += ch.intn(3) - 1
	case 4: // the same frame twice, the second copy different
		dup := bs.Frames[i]
		dup.Payload[1] ^= 0x3c
		bs.Frames = append(bs.Frames, dup)
	case 5: // frames out of address order
		for k := len(bs.Frames) - 1; k > 0; k-- {
			j := ch.intn(k + 1)
			bs.Frames[k], bs.Frames[j] = bs.Frames[j], bs.Frames[k]
		}
	case 6: // payload tampered after sealing
		bs.Frames[i].Payload[0] ^= 1
		reseal = false
	case 7:
		bs.DeviceName = "other"
	case 8: // relocated to a compatible area
		if targets := d.CompatiblePlacements(area); len(targets) > 0 {
			moved, err := Relocate(d, bs, targets[ch.intn(len(targets))])
			if err == nil {
				bs = moved
			}
		}
	}
	if reseal {
		bs.Seal()
	}
	return bs
}

// diffMemory drives a ConfigMemory and a refMemory through the same
// random operations and fails on the first disagreement.
func diffMemory(t testing.TB, d *device.Device, ch chooser, steps int, more func() bool) {
	cm, rm := NewConfigMemory(d), newRefMemory(d)
	areas := map[string]grid.Rect{}
	randAddr := func() FrameAddress {
		a := FrameAddress{Column: ch.intn(d.Width()+2) - 1, Row: ch.intn(d.Height()+2) - 1, Minor: ch.intn(38) - 1}
		// Far out of range, where index arithmetic would overflow.
		far := []int{math.MaxInt, math.MinInt, math.MaxInt / d.Height()}
		if ch.intn(8) == 0 {
			a.Column = far[ch.intn(len(far))]
		}
		if ch.intn(8) == 0 {
			a.Minor = far[ch.intn(len(far))]
		}
		return a
	}
	for step := 0; step < steps && more(); step++ {
		task := diffTasks[ch.intn(len(diffTasks))]
		switch op := ch.intn(10); op {
		case 0, 1, 2, 3:
			bs := randomBitstream(d, ch)
			if bs == nil {
				continue
			}
			if got, want := bs.checksum(), checksumRef(bs); got != want {
				t.Fatalf("step %d: checksum %#x, reference stream %#x", step, got, want)
			}
			err, want := cm.Load(bs, task), rm.Load(bs, task)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("step %d: Load(%q) = %v, reference %v", step, task, err, want)
			}
			if err == nil {
				areas[task] = bs.Area
			}
		case 4:
			cm.Unload(task)
			rm.Unload(task)
		case 5:
			addr := randAddr()
			got, ok := cm.Frame(addr)
			want, wok := rm.Frame(addr)
			if ok != wok || got != want {
				t.Fatalf("step %d: Frame(%v) = %v, reference %v", step, addr, ok, wok)
			}
		case 6:
			// Hit a loaded frame as often as a random address.
			addr := randAddr()
			if ch.intn(2) == 0 && len(rm.frames) > 0 {
				if bs := randomBitstream(d, ch); bs != nil && len(bs.Frames) > 0 {
					addr = bs.Frames[0].Addr
				}
			}
			mask := byte(1 + ch.intn(255))
			if got, want := cm.CorruptFrame(addr, mask), rm.CorruptFrame(addr, mask); got != want {
				t.Fatalf("step %d: CorruptFrame(%v) = %v, reference %v", step, addr, got, want)
			}
		case 7:
			if got, want := cm.Digest(), rm.Digest(); got != want {
				t.Fatalf("step %d: Digest %#08x, reference %#08x", step, got, want)
			}
		case 8:
			other := diffTasks[ch.intn(len(diffTasks))]
			aa, ab := areas[task], areas[other]
			if ch.intn(4) == 0 {
				ab.X += ch.intn(3) - 1
			}
			if got, want := cm.TaskEquivalent(task, aa, other, ab), rm.TaskEquivalent(task, aa, other, ab); got != want {
				t.Fatalf("step %d: TaskEquivalent(%q %v, %q %v) = %v, reference %v", step, task, aa, other, ab, got, want)
			}
		case 9:
			// Load one task's design again at a compatible area under
			// another name, so TaskEquivalent sees true cases too.
			src, ok := areas[task]
			if !ok {
				continue
			}
			bs, err := Generate(d, src, 0)
			if err != nil {
				continue
			}
			targets := d.CompatiblePlacements(src)
			if len(targets) == 0 {
				continue
			}
			dst := targets[ch.intn(len(targets))]
			moved, err := Relocate(d, bs, dst)
			if err != nil {
				t.Fatal(err)
			}
			other := diffTasks[ch.intn(len(diffTasks))]
			err, want := cm.Load(moved, other), rm.Load(moved, other)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("step %d: Load(%q) = %v, reference %v", step, other, err, want)
			}
			if err == nil {
				areas[other] = dst
			}
		}
		if got, want := cm.LoadedFrames(), len(rm.frames); got != want {
			t.Fatalf("step %d: LoadedFrames %d, reference %d", step, got, want)
		}
	}
	if got, want := cm.Digest(), rm.Digest(); got != want {
		t.Fatalf("final Digest %#08x, reference %#08x", got, want)
	}
}

func diffDevices() []*device.Device {
	gen := device.MustGenerate(device.GeneratorConfig{
		Width: 24, Height: 6, BRAMEvery: 5, DSPEvery: 7,
		ForbiddenBlocks: 3, ForbiddenMaxW: 3, ForbiddenMaxH: 3, Seed: 5,
	})
	return []*device.Device{device.VirtexFX70T(), device.Kintex7K160T(), gen, device.Figure2Device()}
}

// TestConfigMemoryMatchesReference runs random operation sequences on the
// dense plane and on the map-based reference, on devices with and
// without forbidden tiles.
func TestConfigMemoryMatchesReference(t *testing.T) {
	for _, d := range diffDevices() {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				diffMemory(t, d, rngChooser{rand.New(rand.NewSource(seed))}, 400, func() bool { return true })
			}
		})
	}
}

// TestChecksumMatchesFieldStream checks the buffered CRC against the
// field-by-field stream, across buffer-boundary sizes and long names.
func TestChecksumMatchesFieldStream(t *testing.T) {
	d := fx()
	bs, err := Generate(d, grid.Rect{X: 0, Y: 0, W: 13, H: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 100; n++ {
		part := &Bitstream{DeviceName: bs.DeviceName, Area: bs.Area, Frames: bs.Frames[:n]}
		if got, want := part.checksum(), checksumRef(part); got != want {
			t.Fatalf("%d frames: checksum %#x, want %#x", n, got, want)
		}
	}
	long := &Bitstream{DeviceName: string(make([]byte, 3*crcChunk+5)), Area: bs.Area, Frames: bs.Frames[:3]}
	if got, want := long.checksum(), checksumRef(long); got != want {
		t.Fatalf("long name: checksum %#x, want %#x", got, want)
	}
	if got, want := bs.checksum(), checksumRef(bs); got != want {
		t.Fatalf("full: checksum %#x, want %#x", got, want)
	}
}

// FuzzConfigMemory runs the same differential check with the fuzzer's
// bytes choosing the device, the operations and their arguments.
func FuzzConfigMemory(f *testing.F) {
	devs := diffDevices()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ch := &byteChooser{data: data[1:]}
		diffMemory(t, devs[int(data[0])%len(devs)], ch, 200, func() bool { return len(ch.data) > 0 })
	})
}
