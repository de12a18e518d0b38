package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

// referenceDecode is what the predict handlers did before the wire codec:
// a json.Decoder with DisallowUnknownFields reading the first value.
func referenceDecode(data []byte) (PredictRequest, error) {
	var req PredictRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// sameFloats reports bit-identical slices with the same nil-ness.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDecodeMatches fails when the codec's decision or values differ from
// encoding/json's on data.
func checkDecodeMatches(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceDecode(data)
	got, err := DecodePredictRequest(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode %q: codec err %v, encoding/json err %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.System != want.System || got.Version != want.Version {
		t.Fatalf("decode %q: system/version %q/%d, want %q/%d", data, got.System, got.Version, want.System, want.Version)
	}
	if !sameFloats(got.Row, want.Row) {
		t.Fatalf("decode %q: row %v (nil %v), want %v (nil %v)", data, got.Row, got.Row == nil, want.Row, want.Row == nil)
	}
	if (got.Rows == nil) != (want.Rows == nil) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("decode %q: rows %v, want %v", data, got.Rows, want.Rows)
	}
	for i := range want.Rows {
		if !sameFloats(got.Rows[i], want.Rows[i]) {
			t.Fatalf("decode %q: rows[%d] %v, want %v", data, i, got.Rows[i], want.Rows[i])
		}
	}
}

// decodeCases are the hand-picked edges; they also seed the fuzz corpus.
var decodeCases = []string{
	`{"system":"theta","rows":[[1,2.5,-0],[3e2,5e-324,0]]}`,
	`{"system":"theta","row":[-0]}`,
	`{"system":"theta","row":[1e400]}`,
	`{"system":"theta","row":[-1e400]}`,
	`{"system":"theta","row":[1e-400,5e-324,2.2250738585072014e-308]}`,
	`{"system":"theta","version":2,"row":[1]}`,
	`{"system":"theta","version":2.0,"row":[1]}`,
	`{"system":"theta","version":1e2,"row":[1]}`,
	`{"system":"theta","version":-0,"row":[1]}`,
	`{"system":"theta","version":9223372036854775808,"row":[1]}`,
	`{"system":"a","system":"b","SYSTEM":"c"}`,
	`{"System":"theta","ROWS":[[1]],"Version":3}`,
	`{"ſystem":"theta","row":[1]}`,
	`{"sy\u0073tem":"theta","row":[1]}`,
	`{"row":[1,2,3],"row":[4,null]}`,
	`{"row":[1,2,3],"row":[5],"row":[6,null,null,null]}`,
	`{"rows":[[1,2],[3]],"rows":[[null,null],null,[7]]}`,
	`{"rows":[[1,2]],"rows":[]}`,
	`{"rows":[[1,2]],"rows":null}`,
	`{"system":"theta","row":[]}`,
	`{"system":"theta","rows":[]}`,
	`{"system":"theta","rows":[[]]}`,
	`{"system":"theta","rows":[null]}`,
	`{"system":"theta","row":null,"rows":null}`,
	`{"system":null,"version":null}`,
	`{"system":"theta","row":[1]} trailing garbage`,
	`{"system":"theta","row":[1]}}`,
	`null`,
	`null garbage`,
	`nul`,
	`{}`,
	` {"system" : "theta" , "row" : [ 1 , 2 ] } `,
	`{"system":"theta","row":[1,]}`,
	`{"rows":[[0,]}`,
	`{"rows":[[0,],[1]]}`,
	`{"system":"theta","row":[,1]}`,
	`{"system":"theta","row":[01]}`,
	`{"system":"theta","row":[1.]}`,
	`{"system":"theta","row":[.5]}`,
	`{"system":"theta","row":[+1]}`,
	`{"system":"theta","row":[1e]}`,
	`{"system":"theta","row":["1"]}`,
	`{"system":"theta","row":[true]}`,
	`{"system":"theta","rows":[1]}`,
	`{"system":"theta","rows":{}}`,
	`{"system":1}`,
	`{"system":"theta","extra":1}`,
	`{"system":"theta",}`,
	`{"system":"theta"`,
	`{"system":"th\u00e9ta\ud800\udc00\ud800","row":[1]}`,
	"{\"system\":\"\xff\xfe\",\"row\":[1]}",
	"{\"system\":\"a\x01\"}",
	`{"system":"a\q"}`,
	`[]`,
	`"theta"`,
	`1`,
	``,
	"\ufeff{}",
}

func TestDecodePredictRequestMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		checkDecodeMatches(t, []byte(c))
	}
}

// FuzzDecodePredictRequest is the differential gate on the request
// decoder: the same accept/reject decision as json.Decoder with
// DisallowUnknownFields, and bit-identical System/Version/Row/Rows.
func FuzzDecodePredictRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatches(t, data)
	})
}

// TestDecodeRowsShareOneBlock pins the allocation shape the codec exists
// for: the rows of a request are views into one block, each capped so an
// append cannot run into its neighbour.
func TestDecodeRowsShareOneBlock(t *testing.T) {
	req, err := DecodePredictRequest([]byte(`{"system":"theta","rows":[[1,2],[3,4,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if uintptr(unsafe.Pointer(&req.Rows[1][0]))-uintptr(unsafe.Pointer(&req.Rows[0][0])) != 16 {
		t.Error("rows are not adjacent views of one block")
	}
	if cap(req.Rows[0]) != 2 {
		t.Errorf("row view cap %d, want 2", cap(req.Rows[0]))
	}
}

// TestDecodeAllocationBounded: bytes that are not numbers (trailing
// garbage after the first value, a long string of '[' and ',') must not
// size the decode's allocations, which stay within the string the request
// keeps plus the capped row and float guesses.
func TestDecodeAllocationBounded(t *testing.T) {
	junk := strings.Repeat("[,", 1<<20)
	const slack = maxBlockGuess*8 + maxRowsGuess*24 + 16<<10
	for _, c := range []struct {
		name, body string
		kept       int
	}{
		{"trailing garbage", `{"system":"theta","rows":[[1]]}` + junk, 0},
		{"long string", `{"rows":[[1]],"system":"` + junk + `"}`, len(junk)},
	} {
		data := []byte(c.body)
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			req, err := DecodePredictRequest(data)
			runtime.ReadMemStats(&after)
			if err != nil || len(req.Rows) != 1 || req.Rows[0][0] != 1 {
				t.Fatalf("%s: rows %v, err %v", c.name, req.Rows, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(c.kept + slack); least > limit {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes, want <= %d", c.name, len(data), least, limit)
		}
	}
}

// TestDecodeRowsPastBlockGuess: a request with more numbers than the
// first block holds continues in fresh blocks, rows split across the
// boundary included, with every value intact.
func TestDecodeRowsPastBlockGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 3*maxBlockGuess/97+1)
	for i := range rows {
		rows[i] = make([]float64, 97)
		for j := range rows[i] {
			if rows[i][j] = math.Float64frombits(rng.Uint64()); math.IsNaN(rows[i][j]) || math.IsInf(rows[i][j], 0) {
				rows[i][j] = rng.Float64() * 1e6
			}
		}
	}
	rows[len(rows)/2][0] = math.Copysign(0, -1)
	body, err := json.Marshal(PredictRequest{System: "theta", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeMatches(t, body)
	// Duplicate-heavy bodies also reach the guesses' caps.
	body, err = json.Marshal(PredictRequest{System: "theta", Rows: slices.Repeat([][]float64{{1, -0.5}}, 3*maxRowsGuess)})
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeMatches(t, body)
}

// randomResponse builds a response whose floats come from raw bit
// patterns, so NaN, ±Inf, -0 and subnormals all occur.
func randomResponse(rng *rand.Rand, system, traceID, source string, bits uint64) *PredictResponse {
	f := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Float64frombits(bits ^ rng.Uint64()&0xff)
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return float64(rng.Intn(2000)-1000) * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			return rng.NormFloat64()
		}
	}
	resp := &PredictResponse{System: system, Version: rng.Intn(5) - 1, Count: rng.Intn(4), TraceID: traceID}
	if rng.Intn(4) > 0 {
		resp.Predictions = []PredictionResult{}
	}
	for i := rng.Intn(4); i > 0; i-- {
		p := PredictionResult{Log10Throughput: f(), Throughput: f(), CacheHit: rng.Intn(2) == 0}
		if rng.Intn(3) > 0 {
			p.Guard = &Guard{EU: f(), AU: f(), OoD: rng.Intn(2) == 0, AtNoiseFloor: rng.Intn(2) == 0, ErrorSource: source}
			if rng.Intn(2) == 0 {
				p.Guard.NoiseFloorPct = f()
			}
		}
		resp.Predictions = append(resp.Predictions, p)
	}
	if rng.Intn(2) == 0 {
		resp.ServerTimings = &ServerTimings{TotalNs: rng.Int63(), DecodeNs: -rng.Int63n(9), EvaluateNs: int64(rng.Intn(1e6))}
	}
	return resp
}

// checkEncodeMatches fails when AppendPredictResponse's bytes differ from
// json.NewEncoder(w).Encode's, or one of them rejects what the other takes.
func checkEncodeMatches(t *testing.T, resp *PredictResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(resp)
	got, err := AppendPredictResponse([]byte("prefix"), resp)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("encode %+v: codec err %v, encoding/json err %v", resp, err, wantErr)
	}
	if err == nil && !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("encode mismatch:\n got %s\nwant %s", got[len("prefix"):], want.Bytes())
	}
}

// FuzzAppendPredictResponse is the differential gate on the response
// encoder: byte-identical output to json.Encoder for random responses,
// hostile strings and non-finite floats included.
func FuzzAppendPredictResponse(f *testing.F) {
	f.Add("theta", "00000000000000ff", SourceModeling, int64(1), uint64(0x8000000000000000))
	f.Add("<script>&\"\\\u2028\u2029", "", "\x00\x1f\x7f\xff", int64(2), uint64(0x7ff0000000000000))
	f.Add("th\xe9ta\xed\xa0\x80", "\t\n\r\b\f", "é✓", int64(3), uint64(0x7ff8000000000001))
	f.Add("", "", "", int64(4), uint64(1))
	f.Fuzz(func(t *testing.T, system, traceID, source string, seed int64, bits uint64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			checkEncodeMatches(t, randomResponse(rng, system, traceID, source, bits))
		}
	})
}

func TestAppendPredictResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkEncodeMatches(t, randomResponse(rng, "theta<&>", "0123456789abcdef", SourceGeneralization, rng.Uint64()))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, 1e21, 1e20, 5e-324, math.MaxFloat64, -1e-7, 123456789.125} {
		checkEncodeMatches(t, &PredictResponse{Predictions: []PredictionResult{{Log10Throughput: f, Throughput: -f}}})
	}
}

// TestAppendPredictRequestMatchesMarshal: the router's sub-request bytes
// are json.Marshal's, so a replica decodes the same bits.
func TestAppendPredictRequestMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		req := &PredictRequest{System: "theta", Version: rng.Intn(3)}
		for r := rng.Intn(4); r > 0; r-- {
			row := make([]float64, rng.Intn(5))
			for k := range row {
				row[k] = math.Float64frombits(rng.Uint64())
				if math.IsNaN(row[k]) || math.IsInf(row[k], 0) {
					row[k] = math.Copysign(0, -1)
				}
			}
			req.Rows = append(req.Rows, row)
		}
		if rng.Intn(3) == 0 {
			req.Row, req.Rows = []float64{rng.NormFloat64()}, nil
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPredictRequest(nil, req)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("got %s (%v), want %s", got, err, want)
		}
		back, err := DecodePredictRequest(got)
		if err != nil {
			t.Fatal(err)
		}
		for k := range req.Rows {
			if !sameFloats(back.Rows[k], req.Rows[k]) {
				t.Fatalf("round trip rows[%d] %v, want %v", k, back.Rows[k], req.Rows[k])
			}
		}
	}
	if _, err := AppendPredictRequest(nil, &PredictRequest{Row: []float64{math.NaN()}}); err == nil {
		t.Error("NaN row encoded")
	}
}

// TestDecodePredictResponseMatchesEncodingJSON: the router's view of a
// replica reply equals a plain json.Decoder's, unknown fields skipped.
func TestDecodePredictResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bodies [][]byte
	for i := 0; i < 500; i++ {
		resp := randomResponse(rng, "theta", "00000000000000ab", SourceInherentNoise, 0)
		body, err := AppendPredictResponse(nil, resp)
		if err != nil {
			continue
		}
		bodies = append(bodies, body)
	}
	for _, s := range []string{
		`{"system":"theta","extra":{"a":[1,{"b":null}],"c":"\u00e9"},"predictions":[{"guard":null,"cache_hit":true,"more":[]}]}`,
		`{"predictions":[{"guard":{"eu":1,"error_source":"g\u0065neralization"}},{"guard":{"au":2},"guard":{"eu":3}}]}`,
		`{"server_timings":{"total_ns":5,"later":1},"server_timings":null}`,
		`{"predictions":null,"count":2,"version":1}`,
		`null`,
		`{"count":1.5}`,
		`{"predictions":[{"cache_hit":1}]}`,
		`{"predictions":[{"log10_throughput":1e999}]}`,
		`{"system":"theta"`,
	} {
		bodies = append(bodies, []byte(s))
	}
	for _, body := range bodies {
		var want PredictResponse
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, err := decodePredictResponse(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode %s: codec err %v, encoding/json err %v", body, err, wantErr)
		}
		if err != nil {
			continue
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(&want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("decode %s:\n got %s\nwant %s", body, gotJSON, wantJSON)
		}
	}
}

// TestReadPredictRequestBodyLimit: a body past the size limit fails only
// while the first value is still incomplete, as json.Decoder does.
func TestReadPredictRequestBodyLimit(t *testing.T) {
	limited := func(body string, limit int64) error {
		rec := httptest.NewRecorder()
		r := http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(body)), limit)
		_, err := ReadPredictRequest(r, -1)
		return err
	}
	value := `{"system":"theta","row":[1]}`
	if err := limited(value+strings.Repeat(" ", 64), int64(len(value)+8)); err != nil {
		t.Errorf("complete value before the limit rejected: %v", err)
	}
	err := limited(`{"system":"theta","row":[`+strings.Repeat("1,", 64)+`1]}`, 32)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Errorf("truncated value: err %v, want the limit's error", err)
	}
	if _, err := ReadPredictRequest(iotest.OneByteReader(strings.NewReader(value)), int64(len(value))); err != nil {
		t.Errorf("one-byte reads: %v", err)
	}
}

// TestAppendFloatIntegers: integers and the 'f'/'e' boundary print as
// encoding/json prints them, sign of zero included.
func TestAppendFloatIntegers(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 128, 1e14, 999999999999999, 1e15, -1e15 + 1, 4503599627370497, 1e20, 1e21} {
		want, _ := json.Marshal(f)
		got, err := appendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestErrorMessageReadsWriteError: the router reads back exactly the
// message a replica's WriteError sent, and nothing from other bodies.
func TestErrorMessageReadsWriteError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, `overloaded <"soft-cap"> & é`)
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(map[string]string{"error": `overloaded <"soft-cap"> & é`})
	if rec.Body.String() != want.String() {
		t.Fatalf("WriteError body %q, encoding/json writes %q", rec.Body.String(), want.String())
	}
	if msg, ok := ErrorMessage(rec.Body.Bytes()); !ok || msg != `overloaded <"soft-cap"> & é` {
		t.Fatalf("ErrorMessage = %q, %v", msg, ok)
	}
	for _, body := range []string{`<html>bad gateway</html>`, `{"error":1}`, `{"error":""}`, `{"other":"x"}`, `{"error":"x"`} {
		if msg, ok := ErrorMessage([]byte(body)); ok {
			t.Errorf("ErrorMessage(%s) = %q, want none", body, msg)
		}
	}
}

// TestDecodePredictResponseAllocs pins the router's per-reply cost: the
// response, its predictions, one guard block, and the two strings.
func TestDecodePredictResponseAllocs(t *testing.T) {
	resp := &PredictResponse{System: "theta", Version: 1, Count: 16, TraceID: "00000000000000ab", ServerTimings: &ServerTimings{TotalNs: 1}}
	for i := 0; i < 16; i++ {
		resp.Predictions = append(resp.Predictions, PredictionResult{Log10Throughput: 8.5, Throughput: 3e8,
			Guard: &Guard{EU: 0.1, AU: 0.2, ErrorSource: SourceModeling}})
	}
	body, err := AppendPredictResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := decodePredictResponse(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs", allocs)
	if allocs > 6 {
		t.Errorf("decodePredictResponse: %v allocs per 16-row reply, want <= 6", allocs)
	}
}
