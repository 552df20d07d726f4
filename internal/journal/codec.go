package journal

import (
	"encoding/binary"
	"fmt"

	"oic/internal/frame"
	"oic/internal/trace"
)

// Segment layout (internal/frame conventions: all integers
// little-endian, floats IEEE-754 bits, str = u16 length + bytes):
//
//	magic   [4]byte  "OICJ"
//	u16     version
//	u16     reserved (zero)
//	records…
//
// Each record:
//
//	u32     payload length
//	u8      type
//	payload (per-type layout below)
//	u32     CRC-32 (IEEE) of the preceding 5+length bytes
//
// Per-type payloads. The fingerprint block (u16 nx, u16 nu, u16 memory,
// u32 episodes, u32 steps, u64 seed, str plant, str scenario, str policy)
// is the one OICT and OICA headers carry, and a step is the trace step
// encoding (u8 flags, f64×nx w, f64×nu u, f64×nx x):
//
//	open:        str id, fingerprint, f64×nx x0
//	step:        str id, u16 nx, u16 nu, step
//	close:       str id
//	fleet-open:  str id, fingerprint, u32 budget, u32 workers,
//	             u32 max sessions
//	fleet-admit: str id, u32 member, u16 nx, f64×nx x0
//	fleet-step:  str id, u32 member, u16 nx, u16 nu, step
//	fleet-evict: str id, u32 member
//	fleet-close: str id
//
// The layout has no optional fields and no padding, so every valid
// record has exactly one encoding — an accepted record re-encodes to
// the identical bytes (fuzz-pinned), the same canonical-form property
// the trace and artifact formats hold.

const (
	magic = "OICJ"
	// HeaderSize is the segment header length in bytes.
	HeaderSize = 8
	// frameOverhead is a record's framing cost: length, type, CRC.
	frameOverhead = 4 + 1 + 4
)

// AppendHeader appends a segment header to dst.
func AppendHeader(dst []byte) []byte {
	return binary.LittleEndian.AppendUint16(frame.AppendHeader(dst, magic, Version), 0)
}

// CheckHeader validates a segment header prefix.
func CheckHeader(b []byte) error {
	if len(b) < HeaderSize {
		return fmt.Errorf("journal: segment shorter than header (%d bytes)", len(b))
	}
	r := frame.NewReader("journal", b[:HeaderSize])
	if err := r.Header(magic, Version); err != nil {
		return err
	}
	if v := r.U16(); v != 0 {
		return fmt.Errorf("journal: nonzero reserved field %d", v)
	}
	return nil
}

// AppendRecord validates r and appends its framed encoding to dst.
// The returned slice reuses dst's storage when capacity allows, so the
// writer's hot path stays allocation-free after warm-up.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	// Reserve the length prefix; backfill once the payload is known.
	dst = append(dst, 0, 0, 0, 0, byte(r.Type))
	body := len(dst)
	dst = frame.AppendStr(dst, r.ID)
	switch r.Type {
	case TypeOpen, TypeFleetOpen:
		dst = frame.AppendMeta(dst, r.NX, r.NU, &r.Meta)
		if r.Type == TypeOpen {
			dst = frame.AppendF64s(dst, r.X0)
		} else {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Budget))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Workers))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.MaxSessions))
		}
	case TypeStep, TypeFleetStep:
		if r.Type == TypeFleetStep {
			dst = binary.LittleEndian.AppendUint32(dst, r.Member)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.NX))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.NU))
		dst = trace.AppendStep(dst, &r.Step)
	case TypeClose, TypeFleetClose:
		// id only
	case TypeFleetAdmit:
		dst = binary.LittleEndian.AppendUint32(dst, r.Member)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.NX))
		dst = frame.AppendF64s(dst, r.X0)
	case TypeFleetEvict:
		dst = binary.LittleEndian.AppendUint32(dst, r.Member)
	}
	payload := len(dst) - body
	if payload > MaxPayload {
		return nil, fmt.Errorf("journal: record payload %d exceeds %d", payload, MaxPayload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	return frame.Seal(dst, start), nil
}

// DecodeRecord parses one framed record from the front of b, returning
// the record and the number of bytes consumed. It is strict: the CRC
// must match, the payload must decode exactly (no trailing bytes), and
// every field must be in range (Validate). A short or corrupt b returns
// an error and consumes nothing — the caller treats that as the torn
// tail.
func DecodeRecord(b []byte) (*Record, int, error) {
	if len(b) < frameOverhead {
		return nil, 0, fmt.Errorf("journal: truncated frame (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > MaxPayload {
		return nil, 0, fmt.Errorf("journal: payload length %d exceeds %d", n, MaxPayload)
	}
	total := frameOverhead + n
	if len(b) < total {
		return nil, 0, fmt.Errorf("journal: truncated record (have %d of %d bytes)", len(b), total)
	}
	if err := frame.Verify("journal", b[:total]); err != nil {
		return nil, 0, err
	}
	rec := &Record{Type: Type(b[4])}
	r := frame.NewReader("journal", b[5:total-4])
	rec.ID = r.Str()
	switch rec.Type {
	case TypeOpen, TypeFleetOpen:
		rec.NX, rec.NU, rec.Meta = r.Meta()
		if rec.Type == TypeOpen {
			rec.X0 = r.F64s(rec.NX)
		} else {
			rec.Budget = int(r.U32())
			rec.Workers = int(r.U32())
			rec.MaxSessions = int(r.U32())
		}
	case TypeStep, TypeFleetStep:
		if rec.Type == TypeFleetStep {
			rec.Member = r.U32()
		}
		rec.NX, rec.NU = int(r.U16()), int(r.U16())
		rec.Step = trace.ReadStep(r, rec.NX, rec.NU)
	case TypeClose, TypeFleetClose:
		// id only
	case TypeFleetAdmit:
		rec.Member = r.U32()
		rec.NX = int(r.U16())
		rec.X0 = r.F64s(rec.NX)
	case TypeFleetEvict:
		rec.Member = r.U32()
	default:
		return nil, 0, fmt.Errorf("journal: unknown record type %d", rec.Type)
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if r.Len() != 0 {
		return nil, 0, fmt.Errorf("journal: %d trailing payload bytes", r.Len())
	}
	if err := rec.Validate(); err != nil {
		return nil, 0, err
	}
	return rec, total, nil
}

// ReadSegment parses a whole segment. The header must be valid (a file
// that is not a journal is an error); the record stream is read until
// the first torn or corrupt record, which truncates the segment there —
// torn reports whether any bytes were discarded. No prefix of a valid
// segment, and no corruption of one, panics (fuzz-pinned).
func ReadSegment(b []byte) (recs []*Record, torn bool, err error) {
	if err := CheckHeader(b); err != nil {
		return nil, false, err
	}
	off := HeaderSize
	for off < len(b) {
		r, n, err := DecodeRecord(b[off:])
		if err != nil {
			return recs, true, nil
		}
		recs = append(recs, r)
		off += n
	}
	return recs, false, nil
}
