// Package bitstream provides a synthetic partial-bitstream substrate that
// makes the floorplanner's relocation story executable end to end.
//
// The paper assumes an external relocation filter (REPLICA [2,3] or BiRF
// [4,5]): moving a task between two compatible areas is "simply" a matter
// of changing the frame addresses in the partial bitstream and recomputing
// the CRC before feeding it to the configuration interface. This package
// implements exactly that pipeline against the tile-level device model:
//
//   - Generate builds a partial bitstream for an area: one frame per
//     (tile, minor index) with position-independent payloads,
//   - Relocate is the software filter: it verifies area compatibility,
//     rewrites every frame address by the (dx, dy) offset, and recomputes
//     the CRC — payloads are untouched,
//   - ConfigMemory simulates the configuration interface: it rejects
//     frames whose address does not match the expected tile type, so a
//     relocation to a non-compatible area fails exactly the way real
//     hardware would corrupt it.
package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/device"
	"repro/internal/grid"
)

// FrameBytes is the payload size of one configuration frame. (On Virtex-5
// a frame is 41 32-bit words; the exact figure is irrelevant to the
// relocation logic, so the model uses a round number.)
const FrameBytes = 64

// Magic identifies encoded bitstreams.
var Magic = [4]byte{'P', 'B', 'I', 'T'}

// FrameAddress locates one configuration frame on the device: the tile it
// configures plus the minor frame index within that tile (0 <= Minor <
// frames-per-tile of the tile's type).
type FrameAddress struct {
	Column int
	Row    int
	Minor  int
}

func (a FrameAddress) String() string {
	return fmt.Sprintf("FAR(c=%d,r=%d,m=%d)", a.Column, a.Row, a.Minor)
}

// Frame is one addressed configuration frame.
type Frame struct {
	Addr    FrameAddress
	Payload [FrameBytes]byte
}

// Bitstream is a partial bitstream for a rectangular area of a device.
type Bitstream struct {
	// DeviceName records the target device.
	DeviceName string
	// Area is the rectangle the bitstream configures.
	Area grid.Rect
	// Frames lists the configuration frames in address order
	// (column-major, then row, then minor).
	Frames []Frame
	// CRC is the CRC-32 (IEEE) over the header and all frames, as
	// maintained by Seal.
	CRC uint32
}

// payload derives the position-independent content of a frame: it depends
// on the tile's offset *within the area*, its type, the minor index and
// the design seed — but never on the absolute device position. This is
// the property real relocatable designs must have (identical
// configuration data across compatible areas, Definition .1).
func payload(seed int64, relC, relR int, t device.TypeID, minor int) [FrameBytes]byte {
	var out [FrameBytes]byte
	var ctr [16]byte
	binary.LittleEndian.PutUint64(ctr[0:], uint64(seed))
	binary.LittleEndian.PutUint16(ctr[8:], uint16(relC))
	binary.LittleEndian.PutUint16(ctr[10:], uint16(relR))
	binary.LittleEndian.PutUint16(ctr[12:], uint16(t))
	binary.LittleEndian.PutUint16(ctr[14:], uint16(minor))
	// Simple xorshift-style expansion of the counter block.
	state := crc32.ChecksumIEEE(ctr[:])
	for i := 0; i < FrameBytes; i += 4 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		binary.LittleEndian.PutUint32(out[i:], state)
	}
	return out
}

// Generate builds the partial bitstream of a design occupying area on
// device d. seed distinguishes different designs for the same area. The
// area must be a legal placement (inside the device, off forbidden
// areas).
func Generate(d *device.Device, area grid.Rect, seed int64) (*Bitstream, error) {
	if !d.CanPlace(area) {
		return nil, fmt.Errorf("bitstream: area %v is not a legal placement on %s", area, d.Name())
	}
	bs := &Bitstream{DeviceName: d.Name(), Area: area, Frames: make([]Frame, 0, d.FramesInRect(area))}
	area.Tiles(func(c, r int) {
		t := d.TypeAt(c, r)
		frames := d.Type(t).Frames
		for minor := 0; minor < frames; minor++ {
			bs.Frames = append(bs.Frames, Frame{
				Addr:    FrameAddress{Column: c, Row: r, Minor: minor},
				Payload: payload(seed, c-area.X, r-area.Y, t, minor),
			})
		}
	})
	bs.Seal()
	return bs, nil
}

// Seal recomputes the bitstream CRC (what a relocation filter must do
// after rewriting addresses).
func (bs *Bitstream) Seal() {
	bs.CRC = bs.checksum()
}

// CheckCRC reports whether the stored CRC matches the content.
func (bs *Bitstream) CheckCRC() bool {
	return bs.CRC == bs.checksum()
}

// checksum hashes the device name, the area as four int64s, then every
// frame as three int64 address fields and its payload. The byte stream is
// part of the Encode format: changing it changes every stored CRC.
func (bs *Bitstream) checksum() uint32 {
	s := newCRCStream()
	s.crc = crc32.ChecksumIEEE([]byte(bs.DeviceName))
	for _, v := range [4]int{bs.Area.X, bs.Area.Y, bs.Area.W, bs.Area.H} {
		binary.LittleEndian.PutUint64(s.next(8), uint64(int64(v)))
	}
	for i := range bs.Frames {
		f := &bs.Frames[i]
		b := s.next(24 + FrameBytes)
		binary.LittleEndian.PutUint64(b[0:], uint64(int64(f.Addr.Column)))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(f.Addr.Row)))
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(f.Addr.Minor)))
		copy(b[24:], f.Payload[:])
	}
	return s.sum()
}

// crcChunk is the size of the buffer a crcStream hashes in one call.
const crcChunk = 4096

var crcBufs = sync.Pool{New: func() any { return new([crcChunk]byte) }}

// crcStream computes a CRC-32 (IEEE) through a pooled buffer, so the hash
// sees a few long writes (its carry-less-multiply path) rather than one
// short write per field. The result equals hashing the same bytes through
// crc32.NewIEEE.
type crcStream struct {
	crc uint32
	n   int
	buf *[crcChunk]byte
}

func newCRCStream() crcStream {
	return crcStream{buf: crcBufs.Get().(*[crcChunk]byte)}
}

// next returns the following k bytes of the stream for the caller to
// fill (k <= crcChunk).
func (s *crcStream) next(k int) []byte {
	if s.n+k > crcChunk {
		s.flush()
	}
	b := s.buf[s.n : s.n+k]
	s.n += k
	return b
}

func (s *crcStream) flush() {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[:s.n])
	s.n = 0
}

// sum hashes what is buffered and returns the buffer to the pool; the
// stream must not be used afterwards.
func (s *crcStream) sum() uint32 {
	s.flush()
	crcBufs.Put(s.buf)
	s.buf = nil
	return s.crc
}

// FrameCount returns the number of frames, which for a generated
// bitstream equals device.FramesInRect of its area.
func (bs *Bitstream) FrameCount() int { return len(bs.Frames) }

// Relocate applies the software relocation filter: it returns a copy of
// the bitstream retargeted to the compatible area target on device d.
// Frame payloads are preserved bit-exactly; only addresses move by the
// area offset, and the CRC is recomputed. It fails if the areas are not
// compatible (Section II) or the target is not a legal placement.
func Relocate(d *device.Device, bs *Bitstream, target grid.Rect) (*Bitstream, error) {
	if bs.DeviceName != d.Name() {
		return nil, fmt.Errorf("bitstream: built for %q, relocating on %q", bs.DeviceName, d.Name())
	}
	if !d.CanPlace(target) {
		return nil, fmt.Errorf("bitstream: target %v is not a legal placement", target)
	}
	if !d.Compatible(bs.Area, target) {
		return nil, fmt.Errorf("bitstream: area %v is not compatible with target %v", bs.Area, target)
	}
	dx := target.X - bs.Area.X
	dy := target.Y - bs.Area.Y
	out := &Bitstream{
		DeviceName: bs.DeviceName,
		Area:       target,
		Frames:     make([]Frame, len(bs.Frames)),
	}
	for i, f := range bs.Frames {
		f.Addr.Column += dx
		f.Addr.Row += dy
		out.Frames[i] = f
	}
	out.Seal()
	return out, nil
}
