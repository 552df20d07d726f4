package oic

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// UnmarshalJSON decodes a tick's ws object without reflection. A fleet
// tick body carries one entry per member, so this decoder is on the served
// tick's path: one pass over the bytes fills one map and one backing
// []float64, both sized up front by counting separator bytes, and every
// entry is a capped slice of that backing array.
//
// The result is what encoding/json yields for a map[int][]float64, bit for
// bit:
//   - null sets the map to nil; any other non-object value is an error;
//   - a key is unquoted (escapes included) and parsed by
//     strconv.ParseInt(key, 10, 64), so "+1" and "01" both name member 1,
//     and the last duplicate wins;
//   - an entry of null is a nil w (the zero disturbance), and [] a non-nil
//     empty one (which Fleet.Tick rejects with ErrBadDimension);
//   - a null element is 0, a number is strconv.ParseFloat(n, 64) (so 1e400
//     is an error), and any other element is an error.
//
// Like encoding/json, decoding into a non-nil TickWS adds to it.
func (w *TickWS) UnmarshalJSON(data []byte) error {
	p := wsParser{b: data}
	p.space()
	if p.literal("null") {
		if err := p.end(); err != nil {
			return err
		}
		*w = nil
		return nil
	}
	m, err := p.object(*w)
	if err != nil {
		return err
	}
	if err := p.end(); err != nil {
		return err
	}
	*w = m
	return nil
}

// DecodeFleetTickRequest decodes a fleet tick body. A body of the shape
// clients send is decoded in one pass (decodeTickOnePass); every other
// body goes to encoding/json's Decoder, as it would without this
// function, so each answer, error or odd but valid body alike, is
// encoding/json's. A function rather than an UnmarshalJSON method: the
// method's fallback would call the method again.
func DecodeFleetTickRequest(body []byte) (FleetTickRequest, error) {
	if req, ok := decodeTickOnePass(body); ok {
		return req, nil
	}
	var req FleetTickRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeTickOnePass decodes body, reporting false unless all of these
// hold, which make its result encoding/json's:
//   - it is one object whose keys are exactly "ws" and "ticks" (no
//     escape, no case folding), each at most once;
//   - ws is null or an object the TickWS parser takes;
//   - ticks is null or an integer literal in int range;
//   - only whitespace follows the object.
func decodeTickOnePass(body []byte) (req FleetTickRequest, ok bool) {
	p := wsParser{b: body}
	p.space()
	if !p.eat('{') {
		return req, false
	}
	p.space()
	if p.eat('}') {
		return req, p.end() == nil
	}
	var seenWS, seenTicks bool
	for {
		p.space()
		switch {
		case p.literal(`"ws"`):
			if seenWS || !p.colon() {
				return req, false
			}
			seenWS = true
			if !p.literal("null") {
				ws, err := p.object(nil)
				if err != nil {
					return req, false
				}
				req.WS = ws
			}
		case p.literal(`"ticks"`):
			if seenTicks || !p.colon() {
				return req, false
			}
			seenTicks = true
			if !p.literal("null") {
				n, ok := p.integer()
				if !ok {
					return req, false
				}
				req.Ticks = n
			}
		default:
			return req, false
		}
		p.space()
		if p.eat('}') {
			return req, p.end() == nil
		}
		if !p.eat(',') {
			return req, false
		}
	}
}

// colon consumes a key's ':' and the whitespace around it.
func (p *wsParser) colon() bool {
	p.space()
	ok := p.eat(':')
	p.space()
	return ok
}

// integer scans an integer literal, -?(0|[1-9][0-9]*), that fits an int.
// A fraction or exponent after it is left for the caller to reject.
func (p *wsParser) integer() (int, bool) {
	start := p.i
	p.eat('-')
	if !p.eat('0') && !p.digits() {
		return 0, false
	}
	n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// object parses a ws object at the cursor, through its closing '}',
// adding its entries to m (a new map when m is nil). The map and the
// backing array are sized by counting separator bytes from the cursor
// to the end of input: an upper bound for this object's entries, whatever
// follows it.
func (p *wsParser) object(m TickWS) (TickWS, error) {
	if !p.eat('{') {
		return nil, p.errorf("want an object of member ID → w")
	}
	rest := p.b[p.i:]
	if m == nil {
		// Each entry has one ':' outside strings. The cap keeps a body of
		// duplicate keys from presizing a map far larger than its result.
		m = make(TickWS, min(bytes.Count(rest, []byte{':'}), maxPresize))
	}
	// Each element opens its array or follows a ',', and takes at least
	// two bytes with its separator, so both bounds hold and back never
	// overflows. make never returns nil, so an empty entry sliced from an
	// empty backing array is still non-nil.
	p.m = m
	p.back = make([]float64, min(bytes.Count(rest, []byte{','})+bytes.Count(rest, []byte{'['}), len(rest)/2))
	if err := p.members(); err != nil {
		return nil, err
	}
	return m, nil
}

// maxPresize caps the map size TickWS.UnmarshalJSON allocates up front;
// larger maps grow as entries arrive.
const maxPresize = 1 << 16

// errWS wraps every TickWS decoding error.
var errWS = errors.New("oic: ws")

// wsParser scans one ws object, parsing keys and numbers into m and back.
type wsParser struct {
	b    []byte
	i    int
	m    TickWS
	back []float64
	nums int // elements written to back
}

func (p *wsParser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWS}, args...)...)
}

// syntax reports an unexpected byte (or the end of input) at the cursor.
func (p *wsParser) syntax(want string) error {
	if p.i >= len(p.b) {
		return p.errorf("unexpected end of input, want %s", want)
	}
	return p.errorf("invalid character %q at offset %d, want %s", p.b[p.i], p.i, want)
}

// space skips JSON whitespace.
func (p *wsParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *wsParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes lit if it is next.
func (p *wsParser) literal(lit string) bool {
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// end requires nothing but whitespace after the value.
func (p *wsParser) end() error {
	p.space()
	if p.i != len(p.b) {
		return p.syntax("end of input")
	}
	return nil
}

// members parses the object's entries, its '{' already consumed, through
// its closing '}'.
func (p *wsParser) members() error {
	p.space()
	if p.eat('}') {
		return nil
	}
	for {
		p.space()
		id, err := p.key()
		if err != nil {
			return err
		}
		p.space()
		if !p.eat(':') {
			return p.syntax("':'")
		}
		p.space()
		if err := p.entry(id); err != nil {
			return err
		}
		p.space()
		if p.eat('}') {
			return nil
		}
		if !p.eat(',') {
			return p.syntax("',' or '}'")
		}
	}
}

// key scans a JSON string and parses it as a member ID.
func (p *wsParser) key() (int, error) {
	if !p.eat('"') {
		return 0, p.syntax("a quoted member ID")
	}
	start, escaped := p.i, false
	for {
		if p.i >= len(p.b) {
			return 0, p.syntax("'\"'")
		}
		c := p.b[p.i]
		switch {
		case c == '"':
			raw := p.b[start:p.i]
			p.i++
			return parseMemberID(raw, escaped)
		case c < 0x20:
			return 0, p.syntax("a string character")
		case c == '\\':
			escaped = true
			p.i++
			if p.i >= len(p.b) {
				return 0, p.syntax("an escape")
			}
			switch p.b[p.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.i++
			case 'u':
				if _, ok := hex4(p.b[p.i+1:]); !ok {
					return 0, p.syntax("four hex digits after \\u")
				}
				p.i += 5
			default:
				return 0, p.syntax("an escape")
			}
		default:
			p.i++
		}
	}
}

// entry parses one member's w: null, or an array of numbers and nulls.
func (p *wsParser) entry(id int) error {
	if p.literal("null") {
		p.m[id] = nil
		return nil
	}
	if !p.eat('[') {
		return p.syntax("a member's w: an array of numbers, or null")
	}
	start := p.nums
	p.space()
	if !p.eat(']') {
		for {
			p.space()
			if !p.literal("null") { // a null element stays 0
				if err := p.number(); err != nil {
					return err
				}
			}
			p.nums++
			p.space()
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return p.syntax("',' or ']'")
			}
		}
	}
	p.m[id] = p.back[start:p.nums:p.nums]
	return nil
}

// number scans one JSON number and stores it at back[nums].
func (p *wsParser) number() error {
	start := p.i
	p.eat('-')
	switch {
	case p.eat('0'):
	case p.i < len(p.b) && '1' <= p.b[p.i] && p.b[p.i] <= '9':
		p.digits()
	default:
		return p.syntax("a number or null")
	}
	if p.eat('.') && !p.digits() {
		return p.syntax("a digit")
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		if !p.digits() {
			return p.syntax("a digit")
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return p.errorf("number %s: %v", p.b[start:p.i], err)
	}
	p.back[p.nums] = f
	return nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (p *wsParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// parseMemberID unquotes a key's raw bytes and parses them the way
// encoding/json parses an int map key.
func parseMemberID(raw []byte, escaped bool) (int, error) {
	s := raw
	if escaped {
		var buf [32]byte
		s = unescape(buf[:0], raw)
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, fmt.Errorf("%w: member ID %q is not an int", errWS, raw)
	}
	return int(n), nil
}

// unescape appends the JSON string contents raw, escapes resolved, to dst.
// raw is well formed (key checked it). A \u escape outside ASCII becomes
// U+FFFD: no such key parses as an integer either way.
func unescape(dst, raw []byte) []byte {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		switch raw[i] {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r, _ := hex4(raw[i+1:])
			i += 4
			if r >= utf8.RuneSelf {
				dst = utf8.AppendRune(dst, utf8.RuneError)
				continue
			}
			c = byte(r)
		default: // '"', '\\', '/'
			c = raw[i]
		}
		dst = append(dst, c)
	}
	return dst
}

// hex4 parses the four hex digits that open b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
