package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"iotaxo/internal/serve"
)

// reference holds the expected answer for every row of a stream, computed
// in-process from the registry the fleet serves: the GBT point prediction
// from gbt.Model.PredictAll, the guard from GuardConfig.Diagnose over
// Ensemble.Predict of the scaled row.
type reference struct {
	logs   []float64
	guards []serve.Guard
	// repeated marks rows the stream sends more than once. Only those may
	// be cache hits.
	repeated []bool
}

func newReference(mv *serve.ModelVersion, s *stream) (*reference, error) {
	table := s.table
	ref := &reference{
		logs:     mv.Model.PredictAll(table),
		guards:   make([]serve.Guard, len(table)),
		repeated: make([]bool, len(table)),
	}
	for _, reqs := range [][]request{s.warm, s.open, s.closed} {
		for _, r := range reqs {
			for k, i := range r.idx {
				if r.dup[k] {
					ref.repeated[i] = true
				}
			}
		}
	}
	scaled := make([]float64, len(mv.Columns))
	for i, row := range table {
		if err := mv.Scaler.TransformRow(row, scaled); err != nil {
			return nil, fmt.Errorf("scaling reference row %d: %w", i, err)
		}
		ref.guards[i] = mv.Guard.Diagnose(mv.Ensemble.Predict(scaled))
	}
	return ref, nil
}

// predictReply is the part of an ioserve or iorouter predict response the
// benchmark reads.
type predictReply struct {
	Count       int                      `json:"count"`
	Predictions []serve.PredictionResult `json:"predictions"`
}

// tally counts request outcomes and what the responses said about the
// duplicate stream.
type tally struct {
	attempted, failed, incorrect int
	rows, dupRows, hits          int
	// dueHits counts the rows that had to be cache hits.
	dueHits      int
	firstProblem string
}

func (t *tally) problem(format string, args ...any) {
	if t.firstProblem == "" {
		t.firstProblem = fmt.Sprintf(format, args...)
	}
}

// add counts one request: err is its transport or status failure, and
// verify checks the answer it got.
func (t *tally) add(err error, verify func() error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.problem("request failed: %v", err)
		return
	}
	if err := verify(); err != nil {
		t.incorrect++
		t.problem("%v", err)
	}
}

// verify checks a response body against the reference. Values must match
// bit for bit; a cache hit is only allowed on a row the stream repeats, and
// every row marked in due must be a hit (due may be nil).
func (t *tally) verify(ref *reference, req request, body []byte, due []bool) error {
	var reply predictReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if reply.Count != len(req.idx) {
		return fmt.Errorf("response count %d for %d rows", reply.Count, len(req.idx))
	}
	return t.verifyPredictions(ref, req, reply.Predictions, due)
}

func (t *tally) verifyPredictions(ref *reference, req request, preds []serve.PredictionResult, due []bool) error {
	if len(preds) != len(req.idx) {
		return fmt.Errorf("response has %d predictions for %d rows", len(preds), len(req.idx))
	}
	for k, i := range req.idx {
		p := preds[k]
		want := ref.logs[i]
		if math.Float64bits(p.Log10Throughput) != math.Float64bits(want) {
			return fmt.Errorf("row %d: log10_throughput %v, reference %v", k, p.Log10Throughput, want)
		}
		if math.Float64bits(p.Throughput) != math.Float64bits(math.Pow(10, want)) {
			return fmt.Errorf("row %d: throughput %v, reference %v", k, p.Throughput, math.Pow(10, want))
		}
		if p.Guard == nil || *p.Guard != ref.guards[i] {
			return fmt.Errorf("row %d: guard %+v, reference %+v", k, p.Guard, ref.guards[i])
		}
		if p.CacheHit && !ref.repeated[i] {
			return fmt.Errorf("row %d: cache hit on a row the stream sends once", k)
		}
		if due != nil && due[k] && !p.CacheHit {
			return fmt.Errorf("row %d: cache miss on a row answered before the request was sent", k)
		}
	}
	t.rows += len(req.idx)
	for k := range req.idx {
		if preds[k].CacheHit {
			t.hits++
		}
		if req.dup[k] {
			t.dupRows++
		}
		if due != nil && due[k] {
			t.dueHits++
		}
	}
	return nil
}

// phaseRun is one phase's requests and their samples.
type phaseRun struct {
	reqs    []request
	samples []sample
}

// dueHits marks, for each request of phases that ran one after another,
// the rows the fleet must answer from its cache: a row that came earlier
// in the same request (the replica evaluates it once and answers the copy
// as a hit), and a row that a response had already brought back before the
// request was sent, in an earlier phase or in this one. Dup-affinity
// routing sends every copy of a row to the replica that cached it, and the
// caches hold more rows than a run sends. A row whose earlier copy was
// still in flight may go either way.
func dueHits(phases []phaseRun) [][][]bool {
	answered := map[int]bool{} // rows answered in earlier phases
	out := make([][][]bool, len(phases))
	for p, ph := range phases {
		// first is when the earliest successful answer holding each row
		// came back, from the start of the phase.
		first := map[int]time.Duration{}
		for j, smp := range ph.samples {
			if smp.err != nil {
				continue
			}
			for _, i := range ph.reqs[j].idx {
				if e, ok := first[i]; !ok || smp.end < e {
					first[i] = smp.end
				}
			}
		}
		out[p] = make([][]bool, len(ph.reqs))
		for j, r := range ph.reqs {
			smp := ph.samples[j]
			sent := smp.end - smp.lat + smp.late
			due := make([]bool, len(r.idx))
			for k, i := range r.idx {
				e, ok := first[i]
				due[k] = answered[i] || slices.Contains(r.idx[:k], i) || ok && e < sent
			}
			out[p][j] = due
		}
		for i := range first {
			answered[i] = true
		}
	}
	return out
}

func (t *tally) errorShare() float64 {
	return float64(t.failed+t.incorrect) / float64(max(t.attempted, 1))
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.incorrect += o.incorrect
	t.rows += o.rows
	t.dupRows += o.dupRows
	t.hits += o.hits
	t.dueHits += o.dueHits
	if t.firstProblem == "" {
		t.firstProblem = o.firstProblem
	}
}
