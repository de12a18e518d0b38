package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The predict wire codec: a hand-written decoder and append-style encoders
// for the POST /v1/predict schema, shared by ioserve and the fleet router
// (request decode on both, the router's sub-request encode and its decode
// of replica responses, response encode on both). Reflection-based
// encoding/json was about half of the fleet's CPU on that path.
//
// The contract is equivalence with encoding/json on this schema, not a
// JSON dialect of its own:
//
//   - DecodePredictRequest accepts exactly the bodies a json.Decoder with
//     DisallowUnknownFields accepts as its first value, and fills
//     bit-identical fields. Keys match case-insensitively under
//     encoding/json's folding (so "ſystem" is "system"); a repeated key
//     ends where encoding/json's slice reuse ends it; null leaves strings
//     and ints untouched and nils slices; bytes after the first value are
//     ignored; numbers go through strconv exactly as encoding/json sends
//     them, so 1e400 and a fractional version are rejected and -0 stays -0.
//   - AppendPredictResponse writes byte for byte what
//     json.NewEncoder(w).Encode writes: HTML-escaped strings, U+FFFD for
//     invalid UTF-8, omitempty, ES6 float formatting, the trailing newline,
//     and an error (with nothing to send) for NaN and ±Inf.
//
// FuzzDecodePredictRequest and FuzzAppendPredictResponse gate both halves
// against encoding/json. Decoded rows are views into a flat []float64
// block allocated for the request (one block up to maxBlockGuess numbers);
// blocks are never pooled, because the batcher can still hold an abandoned
// wave's rows after the handler has returned.

// errUnexpectedEnd reports input that ended inside the first JSON value.
var errUnexpectedEnd = fmt.Errorf("serve: unexpected end of JSON input: %w", io.ErrUnexpectedEOF)

// errRepeatedSlice restarts a request decode in exact mode (see request).
var errRepeatedSlice = errors.New("serve: repeated slice field")

// maxNesting bounds how deep skipped values may nest (encoding/json's
// scanner limit).
const maxNesting = 10000

// decoder is a cursor over one JSON document.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(format string, args ...any) error {
	if d.off >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("serve: invalid JSON at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte unconsumed.
func (d *decoder) peek() (byte, error) {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c, nil
		}
	}
	return 0, errUnexpectedEnd
}

// delim consumes the byte peek returned when it is one of the two
// delimiters a container allows after a value or key.
func (d *decoder) delim(a, b byte) (byte, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	if c != a && c != b {
		return 0, d.errorf("invalid character %q, want %q or %q", c, a, b)
	}
	d.off++
	return c, nil
}

// str consumes the string at d.off (which holds its opening quote) and
// returns its raw contents. plain reports contents that need no unquoting:
// printable ASCII without escapes.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	start := d.off + 1
	plain = true
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(d.data) {
				return nil, false, errUnexpectedEnd
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(d.data) {
						return nil, false, errUnexpectedEnd
					}
					if !isHex(d.data[k]) {
						d.off = k
						return nil, false, d.errorf("invalid character %q in \\u escape", d.data[k])
					}
				}
				i += 6
			default:
				d.off = i + 1
				return nil, false, d.errorf("invalid escape %q", d.data[i+1])
			}
		case c < ' ':
			d.off = i
			return nil, false, d.errorf("control character %q in string", c)
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	d.off = len(d.data)
	return nil, false, errUnexpectedEnd
}

// number consumes a number literal, validating JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if i = digits(data, i); i < 0 {
		return nil, d.numberError(-i - 1)
	}
	if i < len(data) && data[i] == '.' {
		if i = digits(data, i+1); i < 0 {
			return nil, d.numberError(-i - 1)
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i = digits(data, i); i < 0 {
			return nil, d.numberError(-i - 1)
		}
	}
	d.off = i
	return data[start:i], nil
}

// digits skips the run of at least one digit at data[i:], returning the
// offset after it, or -(i+1) when there is none.
func digits(data []byte, i int) int {
	if i >= len(data) || !isDigit(data[i]) {
		return -i - 1
	}
	for i++; i < len(data) && isDigit(data[i]); i++ {
	}
	return i
}

func (d *decoder) numberError(at int) error {
	d.off = at
	if at >= len(d.data) {
		return errUnexpectedEnd
	}
	return d.errorf("invalid character %q in number", d.data[at])
}

// literal consumes one of true, false, null.
func (d *decoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.off >= len(d.data) {
			return errUnexpectedEnd
		}
		if d.data[d.off] != word[k] {
			return d.errorf("invalid character %q in literal %s", d.data[d.off], word)
		}
		d.off++
	}
	return nil
}

// floatLit parses a number literal the way encoding/json fills a float64:
// strconv.ParseFloat on the validated literal.
func (d *decoder) floatLit() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("serve: number %s does not fit a float64", lit)
	}
	return f, nil
}

// intLit parses a number literal the way encoding/json fills an int: decimal
// integers only.
func (d *decoder) intLit() (int64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: number %s is not an integer", lit)
	}
	return n, nil
}

// stringField consumes a string value; a null leaves *dst untouched. A
// value equal to one of known is stored as that string, without a copy.
func (d *decoder) stringField(dst *string, known ...string) error {
	switch c, err := d.peek(); {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '"':
		return d.errorf("cannot decode %q into a string", c)
	}
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if plain {
		for _, k := range known {
			if string(raw) == k {
				*dst = k
				return nil
			}
		}
		*dst = string(raw)
	} else {
		var buf [64]byte
		*dst = string(unquote(buf[:0], raw))
	}
	return nil
}

// intField consumes an integer value; a null leaves *dst untouched.
func (d *decoder) intField(dst *int64) error {
	switch c, err := d.peek(); {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.errorf("cannot decode %q into an integer", c)
	}
	n, err := d.intLit()
	if err == nil {
		*dst = n
	}
	return err
}

// floatField consumes a float value; a null leaves *dst untouched.
func (d *decoder) floatField(dst *float64) error {
	switch c, err := d.peek(); {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.errorf("cannot decode %q into a number", c)
	}
	f, err := d.floatLit()
	if err == nil {
		*dst = f
	}
	return err
}

// boolField consumes a bool value; a null leaves *dst untouched.
func (d *decoder) boolField(dst *bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.errorf("cannot decode %q into a bool", c)
}

// object walks one object value, calling field for each key (positioned at
// the key's value, which field must consume). A null object calls nothing
// and reports false.
func (d *decoder) object(field func(key []byte, plain bool) error) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c == 'n' {
		return false, d.literal("null")
	}
	if c != '{' {
		return false, d.errorf("cannot decode %q into an object", c)
	}
	d.off++
	if c, err = d.peek(); err != nil {
		return false, err
	}
	if c == '}' {
		d.off++
		return true, nil
	}
	for {
		if c != '"' {
			return false, d.errorf("invalid character %q looking for an object key", c)
		}
		key, plain, err := d.str()
		if err != nil {
			return false, err
		}
		if _, err := d.delim(':', ':'); err != nil {
			return false, err
		}
		if err := field(key, plain); err != nil {
			return false, err
		}
		if c, err = d.delim(',', '}'); err != nil {
			return false, err
		}
		if c == '}' {
			return true, nil
		}
		if c, err = d.peek(); err != nil {
			return false, err
		}
	}
}

// array walks one array value, calling elem at each element. A null array
// calls nothing and reports false.
func (d *decoder) array(elem func() error) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c == 'n' {
		return false, d.literal("null")
	}
	if c != '[' {
		return false, d.errorf("cannot decode %q into an array", c)
	}
	d.off++
	if c, err = d.peek(); err != nil {
		return false, err
	}
	if c == ']' {
		d.off++
		return true, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		if c, err = d.delim(',', ']'); err != nil {
			return false, err
		}
		if c == ']' {
			return true, nil
		}
	}
}

// skip consumes and validates any value (unknown response fields).
func (d *decoder) skip(depth int) error {
	if depth > maxNesting {
		return d.errorf("exceeded max depth")
	}
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, _, err = d.str()
	case c == '-' || isDigit(c):
		_, err = d.number()
	case c == 't':
		err = d.literal("true")
	case c == 'f':
		err = d.literal("false")
	case c == 'n':
		err = d.literal("null")
	case c == '[':
		_, err = d.array(func() error { return d.skip(depth + 1) })
	case c == '{':
		_, err = d.object(func([]byte, bool) error { return d.skip(depth + 1) })
	default:
		err = d.errorf("invalid character %q looking for a value", c)
	}
	return err
}

// DecodePredictRequest parses a POST /v1/predict body under the contract
// above. Rows are views into flat blocks allocated for this request.
func DecodePredictRequest(data []byte) (PredictRequest, error) {
	var req PredictRequest
	err := (&decoder{data: data}).request(&req, false)
	if err == errRepeatedSlice {
		req = PredictRequest{}
		err = (&decoder{data: data}).request(&req, true)
	}
	if err != nil {
		return PredictRequest{}, err
	}
	return req, nil
}

// request decodes the body's first value into req. The fast mode parses
// every number into flat blocks and hands out row views; a repeated
// "row" or "rows" key aborts it with errRepeatedSlice, and the exact mode
// then re-decodes into separately grown slices, because a repeat reuses
// the earlier slice's backing array exactly as encoding/json's does (a
// null element keeps whatever an earlier value left at its index).
func (d *decoder) request(req *PredictRequest, exact bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		// A top-level null leaves the request zero, as encoding/json
		// does; whatever follows it is not part of the first value.
		return d.literal("null")
	}
	if c != '{' {
		return d.errorf("cannot decode %q into a predict request", c)
	}
	var (
		block           []float64
		seenRow, seenRs bool
	)
	_, err = d.object(func(key []byte, plain bool) error {
		switch field(key, plain, "system", "version", "row", "rows") {
		case "system":
			return d.stringField(&req.System)
		case "version":
			v := int64(req.Version)
			err := d.intField(&v)
			req.Version = int(v)
			return err
		case "row":
			if exact {
				return d.floatsExact(&req.Row)
			}
			if seenRow {
				return errRepeatedSlice
			}
			seenRow = true
			row, err := d.floats(&block)
			req.Row = row
			return err
		case "rows":
			if exact {
				return d.rowsExact(&req.Rows)
			}
			if seenRs {
				return errRepeatedSlice
			}
			seenRs = true
			var rows [][]float64
			ok, err := d.array(func() error {
				if rows == nil {
					rest := d.data[d.off:]
					rows = make([][]float64, 0, min(bytes.Count(rest, []byte{'['}), maxRowsGuess))
				}
				row, err := d.floats(&block)
				rows = append(rows, row)
				return err
			})
			if ok && rows == nil {
				rows = [][]float64{}
			}
			req.Rows = rows
			return err
		}
		return fmt.Errorf("serve: unknown field %q", unquote(nil, key))
	})
	return err
}

// The first row sizes the request's allocations from a count over the rest
// of the body, which may hold long strings or trailing bytes that are not
// rows; these caps bound that guess. maxBlockGuess floats (64 KiB) hold a
// 64-row batch of the ~100 features a Theta row has.
const (
	maxBlockGuess = 8192
	maxRowsGuess  = 256
)

// floats decodes one number array (or null) onto the end of *block and
// returns its view. The block is sized at the first array to the count of
// '[' and ',' left in the body (every element follows one), capped by
// maxBlockGuess and by half the bytes left (consecutive numbers take at
// least two). A full block is not grown in place: decoding moves on to a
// fresh one, so views handed out earlier stay valid.
func (d *decoder) floats(block *[]float64) ([]float64, error) {
	c, err := d.peek()
	switch {
	case err != nil:
		return nil, err
	case c == 'n':
		return nil, d.literal("null")
	case c != '[':
		return nil, d.errorf("cannot decode %q into an array", c)
	}
	b := *block
	if b == nil {
		rest := d.data[d.off:]
		n := bytes.Count(rest, []byte{','}) + bytes.Count(rest, []byte{'['})
		b = make([]float64, 0, min(n, (len(rest)+1)/2, maxBlockGuess))
	}
	start := len(b)
	d.off++
	if c, err = d.peek(); err != nil {
		return nil, err
	}
	if c == ']' {
		d.off++
	} else {
		for {
			var f float64
			switch {
			case c == 'n':
				// A null element of a fresh slice stays 0.
				err = d.literal("null")
			case c == '-' || isDigit(c):
				f, err = d.floatLit()
			default: // a ']' here follows a trailing comma
				err = d.errorf("cannot decode %q into a number", c)
			}
			if err != nil {
				return nil, err
			}
			if len(b) == cap(b) {
				// Twice the room, but no more than this number and every
				// one the bytes left can hold; the row so far moves along.
				row := b[start:]
				b = make([]float64, len(row), len(row)+min(2*cap(b), (len(d.data)-d.off)/2+1))
				copy(b, row)
				start = 0
			}
			b = append(b, f)
			if c, err = d.delim(',', ']'); err != nil {
				return nil, err
			}
			if c == ']' {
				break
			}
			if c, err = d.peek(); err != nil {
				return nil, err
			}
		}
	}
	*block = b
	return b[start:len(b):len(b)], nil
}

// floatsExact decodes one number array into *s with encoding/json's slice
// semantics: the existing backing array is reused up to its capacity and
// grown one element at a time, a null element keeps what the index held,
// and an empty array leaves a fresh empty slice.
func (d *decoder) floatsExact(s *[]float64) error {
	i := 0
	ok, err := d.array(func() error {
		// Here len(*s) >= i, so i >= cap means len == cap == i and the
		// append grows the backing array exactly as reflect.Value.Grow(1).
		if i >= cap(*s) {
			*s = append(*s, 0)
		}
		if i >= len(*s) {
			*s = (*s)[:i+1]
		}
		i++
		return d.floatField(&(*s)[i-1])
	})
	switch {
	case err != nil:
		return err
	case !ok:
		*s = nil
	case i == 0:
		*s = []float64{}
	default:
		*s = (*s)[:i]
	}
	return nil
}

// rowsExact is floatsExact for the "rows" field.
func (d *decoder) rowsExact(s *[][]float64) error {
	i := 0
	ok, err := d.array(func() error {
		if i >= cap(*s) {
			*s = append(*s, nil)
		}
		if i >= len(*s) {
			*s = (*s)[:i+1]
		}
		i++
		return d.floatsExact(&(*s)[i-1])
	})
	switch {
	case err != nil:
		return err
	case !ok:
		*s = nil
	case i == 0:
		*s = [][]float64{}
	default:
		*s = (*s)[:i]
	}
	return nil
}

// timingFields are ServerTimings' keys in field order.
var timingFields = [...]string{"total_ns", "decode_ns", "cache_lookup_ns", "queue_wait_ns",
	"wave_assemble_ns", "evaluate_ns", "guard_ns", "finalize_ns", "observe_ns"}

// decodePredictResponse parses a replica's POST /v1/predict reply the way
// a plain json.Decoder does: unknown fields are skipped, null leaves a
// field as it was (nil for pointers and slices), and a repeated key keeps
// its last value. The guards land in one block sized by "count".
func decodePredictResponse(data []byte) (*PredictResponse, error) {
	d := &decoder{data: data}
	var out PredictResponse
	_, err := d.object(func(key []byte, plain bool) error {
		switch field(key, plain, "system", "version", "count", "predictions", "trace_id", "server_timings") {
		case "system":
			return d.stringField(&out.System)
		case "version":
			v := int64(out.Version)
			err := d.intField(&v)
			out.Version = int(v)
			return err
		case "count":
			v := int64(out.Count)
			err := d.intField(&v)
			out.Count = int(v)
			return err
		case "predictions":
			return d.predictions(&out.Predictions, out.Count)
		case "trace_id":
			return d.stringField(&out.TraceID)
		case "server_timings":
			st := out.ServerTimings
			if st == nil {
				st = new(ServerTimings)
			}
			ok, err := d.object(func(key []byte, plain bool) error {
				fields := [...]*int64{&st.TotalNs, &st.DecodeNs, &st.CacheLookupNs, &st.QueueWaitNs,
					&st.WaveAssembleNs, &st.EvaluateNs, &st.GuardNs, &st.FinalizeNs, &st.ObserveNs}
				if i := keyIndex(key, plain, timingFields[:]); i >= 0 {
					return d.intField(fields[i])
				}
				return d.skip(1)
			})
			if ok {
				out.ServerTimings = st
			} else if err == nil {
				out.ServerTimings = nil
			}
			return err
		}
		return d.skip(1)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// predictions decodes the predictions array. count (the reply's "count",
// which precedes it) sizes the result and one guard block when the body is
// long enough to hold that many (AppendPredictResponse writes at least 64
// bytes a prediction); guards past the block are allocated one by one, so
// the block never moves.
func (d *decoder) predictions(dst *[]PredictionResult, count int) error {
	var preds []PredictionResult
	var guards []Guard
	if count > 0 && count <= len(d.data)/64 {
		preds = make([]PredictionResult, 0, count)
		guards = make([]Guard, 0, count)
	}
	ok, err := d.array(func() error {
		var p PredictionResult
		_, err := d.object(func(key []byte, plain bool) error {
			switch field(key, plain, "log10_throughput", "throughput_bytes_per_sec", "guard", "cache_hit") {
			case "log10_throughput":
				return d.floatField(&p.Log10Throughput)
			case "throughput_bytes_per_sec":
				return d.floatField(&p.Throughput)
			case "guard":
				var g Guard
				if p.Guard != nil {
					g = *p.Guard
				}
				ok, err := d.object(func(key []byte, plain bool) error { return d.guardField(&g, key, plain) })
				switch {
				case !ok:
					p.Guard = nil
				case len(guards) < cap(guards):
					guards = append(guards, g)
					p.Guard = &guards[len(guards)-1]
				default:
					p.Guard = new(Guard)
					*p.Guard = g
				}
				return err
			case "cache_hit":
				return d.boolField(&p.CacheHit)
			}
			return d.skip(1)
		})
		preds = append(preds, p)
		return err
	})
	switch {
	case err != nil:
		return err
	case !ok:
		preds = nil
	case preds == nil:
		preds = []PredictionResult{}
	}
	*dst = preds
	return nil
}

// ErrorMessage returns the "error" member of a WriteError body, or false
// when body is not such an object (a proxy's HTML page, say).
func ErrorMessage(body []byte) (string, bool) {
	d := &decoder{data: body}
	var msg string
	ok, err := d.object(func(key []byte, plain bool) error {
		if field(key, plain, "error") != "" {
			return d.stringField(&msg)
		}
		return d.skip(1)
	})
	return msg, ok && err == nil && msg != ""
}

// guardField decodes one Guard key.
func (d *decoder) guardField(g *Guard, key []byte, plain bool) error {
	switch field(key, plain, "eu", "au", "ood", "at_noise_floor", "noise_floor_pct", "error_source") {
	case "eu":
		return d.floatField(&g.EU)
	case "au":
		return d.floatField(&g.AU)
	case "ood":
		return d.boolField(&g.OoD)
	case "at_noise_floor":
		return d.boolField(&g.AtNoiseFloor)
	case "noise_floor_pct":
		return d.floatField(&g.NoiseFloorPct)
	case "error_source":
		// A closed label set: share the constants, no copy per row.
		return d.stringField(&g.ErrorSource, SourceGeneralization, SourceInherentNoise, SourceModeling, SourceUnguarded)
	}
	return d.skip(1)
}

// field returns the schema name key matches ("" for none).
func field(key []byte, plain bool, names ...string) string {
	if i := keyIndex(key, plain, names); i >= 0 {
		return names[i]
	}
	return ""
}

// keyIndex returns the index of the field key names, or -1. Keys match as
// encoding/json matches them: exactly, or equal under its case folding
// (ASCII upper-casing plus Unicode simple folding, so "ſ" matches "s" and
// "K" matches "k"). names are lower-case ASCII.
func keyIndex(raw []byte, plain bool, names []string) int {
	key := raw
	if !plain {
		var buf [64]byte
		key = unquote(buf[:0], raw)
	}
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to the same name as the lower-case
// ASCII name under encoding/json's foldName.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j >= len(name) {
			return false
		}
		want := name[j]
		if 'a' <= want && want <= 'z' {
			want -= 'a' - 'A'
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != want {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if f := foldRune(r); f >= utf8.RuneSelf || byte(f) != want {
			return false
		}
		i += n
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unquote appends the decoded contents of a validated JSON string to dst,
// coercing invalid UTF-8 and unpaired surrogates to U+FFFD as
// encoding/json does.
func unquote(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default:
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(s[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// AppendPredictRequest appends req as json.Marshal encodes it. Floats are
// written in shortest round-trip form, so a replica decodes the same bits.
func AppendPredictRequest(dst []byte, req *PredictRequest) ([]byte, error) {
	var err error
	dst = append(dst, `{"system":`...)
	dst = AppendString(dst, req.System)
	if req.Version != 0 {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendInt(dst, int64(req.Version), 10)
	}
	if len(req.Row) > 0 {
		dst = append(dst, `,"row":`...)
		if dst, err = appendFloats(dst, req.Row); err != nil {
			return dst, err
		}
	}
	if len(req.Rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range req.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFloats(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendFloats appends one []float64 (null when nil).
func appendFloats(dst []byte, row []float64) ([]byte, error) {
	if row == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendPredictResponse appends resp as json.NewEncoder(w).Encode writes
// it, trailing newline included. On error (a NaN or ±Inf value) the
// appended bytes must be discarded, as encoding/json sends nothing.
func AppendPredictResponse(dst []byte, resp *PredictResponse) ([]byte, error) {
	dst = append(dst, '{')
	dst, err := AppendPredictResponseFields(dst, resp)
	if err != nil {
		return dst, err
	}
	return append(dst, '}', '\n'), nil
}

// AppendPredictResponseFields appends resp's members without the braces,
// for envelopes that embed PredictResponse (the fleet router's reply).
func AppendPredictResponseFields(dst []byte, resp *PredictResponse) ([]byte, error) {
	dst = append(dst, `"system":`...)
	dst = AppendString(dst, resp.System)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(resp.Version), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(resp.Count), 10)
	dst = append(dst, `,"predictions":`...)
	if resp.Predictions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Predictions {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendPrediction(dst, &resp.Predictions[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if resp.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = AppendString(dst, resp.TraceID)
	}
	if st := resp.ServerTimings; st != nil {
		for i, v := range [...]int64{st.TotalNs, st.DecodeNs, st.CacheLookupNs, st.QueueWaitNs,
			st.WaveAssembleNs, st.EvaluateNs, st.GuardNs, st.FinalizeNs, st.ObserveNs} {
			if i == 0 {
				dst = append(dst, `,"server_timings":{"`...)
			} else {
				dst = append(dst, `,"`...)
			}
			dst = append(dst, timingFields[i]...)
			dst = append(dst, `":`...)
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, '}')
	}
	return dst, nil
}

// appendPrediction appends one PredictionResult.
func appendPrediction(dst []byte, p *PredictionResult) ([]byte, error) {
	var err error
	dst = append(dst, `{"log10_throughput":`...)
	if dst, err = appendFloat(dst, p.Log10Throughput); err != nil {
		return dst, err
	}
	dst = append(dst, `,"throughput_bytes_per_sec":`...)
	if dst, err = appendFloat(dst, p.Throughput); err != nil {
		return dst, err
	}
	if g := p.Guard; g != nil {
		dst = append(dst, `,"guard":{"eu":`...)
		if dst, err = appendFloat(dst, g.EU); err != nil {
			return dst, err
		}
		dst = append(dst, `,"au":`...)
		if dst, err = appendFloat(dst, g.AU); err != nil {
			return dst, err
		}
		dst = append(dst, `,"ood":`...)
		dst = strconv.AppendBool(dst, g.OoD)
		dst = append(dst, `,"at_noise_floor":`...)
		dst = strconv.AppendBool(dst, g.AtNoiseFloor)
		if g.NoiseFloorPct != 0 {
			dst = append(dst, `,"noise_floor_pct":`...)
			if dst, err = appendFloat(dst, g.NoiseFloorPct); err != nil {
				return dst, err
			}
		}
		dst = append(dst, `,"error_source":`...)
		dst = AppendString(dst, g.ErrorSource)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, p.CacheHit)
	return append(dst, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, 'f' form inside [1e-6, 1e21) and a cleaned-up 'e'
// form outside it. NaN and ±Inf have no JSON form and are an error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("serve: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendString appends s as a JSON string the way encoding/json's default
// (HTML-escaping) encoder writes it.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JSONP consumers.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Body buffers are pooled across requests: the codec copies everything it
// keeps out of them. Buffers that grew past maxPooledBody are left to the
// GC, so one huge batch does not pin its memory in the pool.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// GetBuffer returns an empty pooled body buffer; PutBuffer returns it.
func GetBuffer() *[]byte {
	bp := bodyPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuffer recycles a buffer from GetBuffer. The caller must not touch
// it, or anything sliced from it, afterwards.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// readAll reads r to EOF into *bp, sized from hint (a Content-Length, or
// <= 0 when unknown). It returns the bytes read and the read error, nil at
// EOF; the bytes are valid until the buffer is recycled.
func readAll(bp *[]byte, r io.Reader, hint int64) ([]byte, error) {
	b := (*bp)[:0]
	if hint > int64(cap(b)) && hint < maxPooledBody {
		// One spare byte, so the read that reports EOF needs no growth.
		b = make([]byte, 0, hint+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*bp = b
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// ReadPredictRequest reads and decodes one request body. A read error
// (such as http.MaxBytesReader's limit) fails the request only when the
// first JSON value is still incomplete, which is when json.Decoder fails.
func ReadPredictRequest(r io.Reader, hint int64) (PredictRequest, error) {
	bp := GetBuffer()
	defer PutBuffer(bp)
	body, readErr := readAll(bp, r, hint)
	req, err := DecodePredictRequest(body)
	if err != nil && readErr != nil && errors.Is(err, io.ErrUnexpectedEOF) {
		err = readErr
	}
	return req, err
}

// ReadPredictResponse reads and decodes one replica reply body.
func ReadPredictResponse(r io.Reader, hint int64) (*PredictResponse, error) {
	bp := GetBuffer()
	defer PutBuffer(bp)
	body, readErr := readAll(bp, r, hint)
	resp, err := decodePredictResponse(body)
	if err != nil && readErr != nil {
		err = readErr
	}
	return resp, err
}
