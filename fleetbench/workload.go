package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// workload is one traffic mix. Each run replays an open-loop Poisson phase
// (latency, CPU per row) and then a closed-loop phase with nproc
// connections (rows per second).
type workload struct {
	name string
	// routed puts iorouter in front of two ioserve replicas; otherwise the
	// client talks to a single ioserve.
	routed     bool
	rowsPerReq int
	// dupShare is the probability that a row replays a row issued earlier
	// in the run (an exact duplicate job).
	dupShare float64
	// openRate is the open-loop arrival rate in requests per second, well
	// below capacity (about 370 routed 16-row or 690 single-row requests
	// per second with two connections on a two-CPU host), so the queue
	// stays bounded even while the host slows the fleet down.
	openRate float64
	// closedRate is a nominal capacity in requests per second; it only
	// sizes the closed-loop phase to take about its share of the run.
	closedRate float64
}

var workloads = []workload{
	// Never-seen jobs through the router: every row is evaluated, so the
	// model kernels and the full wire path with its owner split do the work.
	{name: "fleet-unique16", routed: true, rowsPerReq: 16, dupShare: 0, openRate: 100, closedRate: 450},
	// The paper's duplicate dominance (Sec. VI): cache reads and
	// dup-affinity routing do the work and evaluation is nearly idle.
	{name: "fleet-dup16", routed: true, rowsPerReq: 16, dupShare: 0.8, openRate: 100, closedRate: 450},
	// Lone rows straight to one replica: the batcher's straggler window and
	// its fixed per-flush cost dominate; the router is absent.
	{name: "replica-single", routed: false, rowsPerReq: 1, dupShare: 0, openRate: 300, closedRate: 650},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Phase sizing: the open loop gets openShare of --seconds, the closed loop
// is sized to take about the rest at the nominal capacity, and warmRequests
// untimed requests come first.
const (
	openShare    = 0.7
	warmRequests = 40
	benchSystem  = "theta"
)

// request is one pre-encoded predict call.
type request struct {
	// idx[k] is row k's position in stream.table.
	idx []int
	// dup[k] reports that row k replays a row issued earlier in the run
	// (earlier in this request included).
	dup  []bool
	body []byte
}

// stream is a workload's whole request sequence, fixed by the seed.
type stream struct {
	// table holds every distinct feature vector, in first-issue order.
	table  [][]float64
	warm   []request
	open   []request
	closed []request
	// sched is each open-loop request's send time, relative to the start of
	// the phase.
	sched []time.Duration
	// probe is the setup probe's body: one row issued nowhere else.
	probe []byte
	// byHash indexes table by rowHash.
	byHash map[uint64][]int
}

// indexOf finds a feature vector's position in the table.
func (s *stream) indexOf(row []float64) (int, bool) {
	for _, i := range s.byHash[rowHash(row)] {
		if rowsEqual(s.table[i], row) {
			return i, true
		}
	}
	return 0, false
}

func (s *stream) rows(r request) [][]float64 {
	out := make([][]float64, len(r.idx))
	for k, i := range r.idx {
		out[k] = s.table[i]
	}
	return out
}

// rowSource hands out feature vectors of simulated Theta jobs, each one
// distinct from every vector handed out before. Jobs come from machines
// seeded apart from the registry fixture, generated a chunk at a time.
type rowSource struct {
	seed uint64
	pool [][]float64
	next int
	gen  uint64
	s    *stream
}

const sourceChunk = 20000

func (s *rowSource) fresh() (int, error) {
	for {
		if s.next == len(s.pool) {
			cfg := system.ThetaLike(sourceChunk)
			s.gen++
			cfg.Seed = s.seed*7919 + 104729*s.gen
			m, err := system.Generate(cfg)
			if err != nil {
				return 0, fmt.Errorf("generating rows: %w", err)
			}
			fr, err := m.Frame()
			if err != nil {
				return 0, fmt.Errorf("framing rows: %w", err)
			}
			s.pool, s.next = fr.Rows(), 0
		}
		row := s.pool[s.next]
		s.next++
		if _, known := s.s.indexOf(row); known {
			continue
		}
		i := len(s.s.table)
		s.s.table = append(s.s.table, row)
		h := rowHash(row)
		s.s.byHash[h] = append(s.s.byHash[h], i)
		return i, nil
	}
}

func rowHash(row []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// buildStream generates the workload's requests for a run of the given
// length. The same seed gives the same rows, duplicates, schedule and
// bytes.
func buildStream(w workload, seed uint64, seconds float64) (*stream, error) {
	s := &stream{byHash: map[uint64][]int{}}
	src := &rowSource{seed: seed, s: s}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))

	probeIdx, err := src.fresh()
	if err != nil {
		return nil, err
	}
	if s.probe, err = encodeRows([][]float64{s.table[probeIdx]}); err != nil {
		return nil, err
	}
	// issued lists the table rows the run has sent; warm-up rows are kept
	// out so duplicates only replay rows of the measured phases.
	var issued []int
	next := func(dupShare float64, track bool) (request, error) {
		req := request{idx: make([]int, w.rowsPerReq), dup: make([]bool, w.rowsPerReq)}
		for k := range req.idx {
			if len(issued) > 0 && r.Float64() < dupShare {
				req.idx[k], req.dup[k] = issued[r.IntN(len(issued))], true
				continue
			}
			i, err := src.fresh()
			if err != nil {
				return request{}, err
			}
			req.idx[k] = i
			if track {
				issued = append(issued, i)
			}
		}
		body, err := encodeRows(s.rows(req))
		req.body = body
		return req, err
	}
	nOpen := int(math.Round(w.openRate * openShare * seconds))
	nClosed := int(math.Round(w.closedRate * (1 - openShare) * seconds))
	if nOpen < 1 || nClosed < 1 {
		return nil, fmt.Errorf("--seconds %v is too short for workload %s", seconds, w.name)
	}
	for range warmRequests {
		req, err := next(0, false)
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, req)
	}
	var at time.Duration
	for range nOpen {
		req, err := next(w.dupShare, true)
		if err != nil {
			return nil, err
		}
		s.open = append(s.open, req)
		s.sched = append(s.sched, at)
		at += time.Duration(r.ExpFloat64() / w.openRate * float64(time.Second))
	}
	for range nClosed {
		req, err := next(w.dupShare, true)
		if err != nil {
			return nil, err
		}
		s.closed = append(s.closed, req)
	}
	return s, nil
}

func encodeRows(rows [][]float64) ([]byte, error) {
	return json.Marshal(serve.PredictRequest{System: benchSystem, Rows: rows})
}

// inputStats is what a request sequence actually contained, measured from
// the rows themselves rather than from the generator's choices.
type inputStats struct {
	requests, rows, dups int
}

func (st inputStats) dupShare() float64   { return float64(st.dups) / float64(max(st.rows, 1)) }
func (st inputStats) rowsPerReq() float64 { return float64(st.rows) / float64(max(st.requests, 1)) }
func (st inputStats) String() string {
	return fmt.Sprintf("requests=%d rows=%d rows_per_request=%.2f dup_share=%.4f",
		st.requests, st.rows, st.rowsPerReq(), st.dupShare())
}

// measureInputs counts, over requests in send order, the rows whose exact
// feature vector was already sent earlier in the sequence.
func measureInputs(reqs []request, table [][]float64) inputStats {
	var st inputStats
	seen := map[uint64][][]float64{}
	for _, req := range reqs {
		st.requests++
		for _, i := range req.idx {
			row := table[i]
			st.rows++
			h := rowHash(row)
			dup := false
			for _, prev := range seen[h] {
				if rowsEqual(prev, row) {
					dup = true
					break
				}
			}
			if dup {
				st.dups++
			} else {
				seen[h] = append(seen[h], row)
			}
		}
	}
	return st
}
