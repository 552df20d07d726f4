// Package frame is the binary framing shared by the runtime's three wire
// formats — OICT traces (internal/trace), OICJ journal segments
// (internal/journal) and OICA engine artifacts (internal/artifact). Each
// format opens with a 4-byte magic and a u16 version, lays out fixed
// little-endian fields with u16-length-prefixed strings and raw
// IEEE-754 floats, carries the engine fingerprint block, and is sealed by
// a CRC-32 (IEEE). The Reader is strict: it checks every length against
// the remaining input before it reads or allocates, so a hostile prefix
// cannot make a decoder allocate more than the input justifies.
//
// The package depends only on the standard library, so every format can
// use it without widening its own dependencies.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// MaxString caps every length-prefixed string (ids, fingerprint names).
const MaxString = 1024

// Typed decode failures. The Reader and Verify wrap them with the
// format's name and context; callers match them with errors.Is.
var (
	ErrBadMagic   = errors.New("bad magic")
	ErrBadVersion = errors.New("unsupported version")
	ErrTruncated  = errors.New("truncated input")
	ErrChecksum   = errors.New("checksum mismatch")
)

// Meta is the engine-configuration fingerprint: the configuration needed
// to rebuild the engine a trace, a journaled session or an artifact
// belongs to. Which form of a value is stored (the resolved disturbance
// memory in a trace, the canonical one in an artifact) is the format's
// choice.
type Meta struct {
	Plant         string `json:"plant"`
	Scenario      string `json:"scenario"`
	Policy        string `json:"policy"`
	Memory        int    `json:"memory,omitempty"`
	TrainEpisodes int    `json:"train_episodes,omitempty"`
	TrainSteps    int    `json:"train_steps,omitempty"`
	TrainSeed     int64  `json:"train_seed,omitempty"`
}

// MetaSize returns the encoded length of the fingerprint block.
func MetaSize(m *Meta) int {
	return 2 + 2 + 2 + 4 + 4 + 8 + 2 + len(m.Plant) + 2 + len(m.Scenario) + 2 + len(m.Policy)
}

// AppendHeader appends the magic and the u16 version.
func AppendHeader(dst []byte, magic string, version int) []byte {
	dst = append(dst, magic...)
	return binary.LittleEndian.AppendUint16(dst, uint16(version))
}

// AppendStr appends s with its u16 length prefix.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendF64s appends the IEEE-754 bits of each float.
func AppendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendMeta appends the fingerprint block:
//
//	u16 nx · u16 nu · u16 memory · u32 train episodes · u32 train steps ·
//	u64 train seed (two's complement) · str plant · str scenario · str policy
func AppendMeta(dst []byte, nx, nu int, m *Meta) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(nx))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(nu))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(m.Memory))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.TrainEpisodes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.TrainSteps))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.TrainSeed))
	dst = AppendStr(dst, m.Plant)
	dst = AppendStr(dst, m.Scenario)
	return AppendStr(dst, m.Policy)
}

// Seal appends the CRC-32 (IEEE) of dst[from:].
func Seal(dst []byte, from int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[from:]))
}

// Verify checks that b ends with the CRC-32 (IEEE) of the bytes before
// it; format names the wire format in the error.
func Verify(format string, b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%s: %w (%d bytes, no checksum)", format, ErrTruncated, len(b))
	}
	n := len(b) - 4
	stored := binary.LittleEndian.Uint32(b[n:])
	if got := crc32.ChecksumIEEE(b[:n]); got != stored {
		return fmt.Errorf("%s: %w (stored %08x, computed %08x)", format, ErrChecksum, stored, got)
	}
	return nil
}

// Reader is a bounds-checked little-endian cursor. Its first failure
// sticks: later reads return zero values and allocate nothing, so a
// decoder reads a whole structure and checks Err once.
type Reader struct {
	format string
	b      []byte
	off    int
	err    error
}

// NewReader reads b; format names the wire format in errors.
func NewReader(format string, b []byte) *Reader { return &Reader{format: format, b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Need reports whether n more bytes remain, failing the reader with
// ErrTruncated when they do not (a negative n never fits).
func (r *Reader) Need(n int) bool {
	if r.err == nil && uint(n) <= uint(len(r.b)-r.off) {
		return true
	}
	r.truncated(n)
	return false
}

// truncated is Need's failure path, kept out of line so Need and the
// fixed-width reads inline.
//
//go:noinline
func (r *Reader) truncated(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w at offset %d (need %d bytes)", r.format, ErrTruncated, r.off, n)
	}
}

// Fail records a format error, prefixed with the format's name, unless
// the reader has already failed.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.format+": "+format, args...)
	}
}

// Header reads the magic and the u16 version every format opens with,
// failing with ErrBadMagic or ErrBadVersion on a mismatch.
func (r *Reader) Header(magic string, version int) error {
	if !r.Need(len(magic) + 2) {
		return r.err
	}
	if got := r.b[r.off : r.off+len(magic)]; string(got) != magic {
		r.err = fmt.Errorf("%s: %w %q", r.format, ErrBadMagic, got)
		return r.err
	}
	r.off += len(magic)
	if v := int(r.U16()); v != version {
		r.err = fmt.Errorf("%s: %w %d (want %d)", r.format, ErrBadVersion, v, version)
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if !r.Need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.Need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.Need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.Need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads one float.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s reads n floats, checking the input holds them before allocating.
// It returns nil for n = 0.
func (r *Reader) F64s(n int) []float64 {
	if n == 0 || !r.Need(8*n) {
		return nil
	}
	b := r.b[r.off : r.off+8*n]
	r.off += 8 * n
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Str reads a u16-length-prefixed string of at most MaxString bytes.
func (r *Reader) Str() string {
	n := int(r.U16())
	if n > MaxString {
		r.Fail("string length %d exceeds %d", n, MaxString)
	}
	if !r.Need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Meta reads the fingerprint block AppendMeta writes.
func (r *Reader) Meta() (nx, nu int, m Meta) {
	nx = int(r.U16())
	nu = int(r.U16())
	m.Memory = int(r.U16())
	m.TrainEpisodes = int(r.U32())
	m.TrainSteps = int(r.U32())
	m.TrainSeed = int64(r.U64())
	m.Plant = r.Str()
	m.Scenario = r.Str()
	m.Policy = r.Str()
	return nx, nu, m
}
