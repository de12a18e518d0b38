package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"iotaxo/internal/serve"
)

// TestAppendResponseMatchesEncodingJSON: the router's reply bytes are what
// json.NewEncoder(w).Encode wrote for the same Response.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		resp := &Response{
			PredictResponse: serve.PredictResponse{System: "theta<&>", Version: rng.Intn(3), Count: rng.Intn(3), TraceID: "00000000000000aa"},
			MembershipEpoch: uint64(rng.Intn(3)) << uint(rng.Intn(64)),
		}
		for k := rng.Intn(3); k > 0; k-- {
			p := serve.PredictionResult{Log10Throughput: rng.NormFloat64(), Throughput: math.Float64frombits(rng.Uint64()), CacheHit: k == 1}
			if k == 2 {
				p.Guard = &serve.Guard{EU: rng.Float64(), ErrorSource: serve.SourceModeling}
			}
			resp.Predictions = append(resp.Predictions, p)
		}
		for k := rng.Intn(3); k > 0; k-- {
			sh := ReplicaShare{Replica: "replica- ", Rows: rng.Intn(9), Version: k}
			for j := rng.Intn(3); j > 0; j-- {
				sh.TraceIDs = append(sh.TraceIDs, "00000000000000bb")
			}
			if rng.Intn(4) == 0 {
				sh.TraceIDs = []string{}
			}
			resp.Replicas = append(resp.Replicas, sh)
		}
		if rng.Intn(4) == 0 {
			resp.Replicas = []ReplicaShare{}
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		got, err := appendResponse(nil, resp)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("codec err %v, encoding/json err %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encode mismatch:\n got %s\nwant %s", got, want.Bytes())
		}
	}
}
