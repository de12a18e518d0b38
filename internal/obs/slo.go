package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// slo.go implements service-level-objective tracking: per-priority-class
// good/bad counters in sliding time windows, multi-window burn rates in
// the SRE style (a fast window to catch sudden burns, a slow window to
// confirm them), and alert-state derivation. Objectives come from a flag
// grammar like `predict:p99=25ms,avail=99.9;control:avail=99`.

const (
	// sloBucketSeconds is the sliding-window resolution; sloSlowWindow
	// must be an exact multiple of it.
	sloBucketSeconds = 10
	sloFastWindow    = 5 * time.Minute
	sloSlowWindow    = time.Hour
	sloNumBuckets    = int(sloSlowWindow/time.Second) / sloBucketSeconds

	// Burn-rate alert thresholds, from the SRE multiwindow recipe: a
	// 14.4x burn exhausts a 30-day budget in 2 days (page-worthy when
	// both windows agree it is sustained); a 6x burn exhausts it in 5
	// days (ticket).
	sloPageBurn   = 14.4
	sloTicketBurn = 6.0
)

// SLOSpec is one parsed objective for one priority class: either a
// latency quantile bound (Quantile > 0) or an availability floor
// (Availability > 0).
type SLOSpec struct {
	Class string
	// Latency objective: Quantile in (0,1) (e.g. 0.99), QName its flag
	// spelling ("p99"), Target the bound.
	Quantile float64
	QName    string
	Target   time.Duration
	// Availability objective, as a fraction in (0,1) (99.9 -> 0.999).
	Availability float64
}

// String renders the objective in the human form used in /v1/slo bodies.
func (s SLOSpec) String() string {
	if s.Quantile > 0 {
		return fmt.Sprintf("%s:%s<=%s", s.Class, s.QName, s.Target)
	}
	return fmt.Sprintf("%s:availability>=%s%%", s.Class, trimFloat(s.Availability*100))
}

func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

// ParseSLO parses the -slo flag grammar: semicolon-separated class blocks,
// each `class:objective[,objective...]`, where an objective is
// `p50|p90|p99=<duration>` or `avail=<percent>`.
func ParseSLO(s string) ([]SLOSpec, error) {
	var specs []SLOSpec
	for _, block := range strings.Split(s, ";") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		class, objs, ok := strings.Cut(block, ":")
		class = strings.TrimSpace(class)
		if !ok || class == "" || strings.TrimSpace(objs) == "" {
			return nil, fmt.Errorf("obs: SLO block %q is not class:objective[,objective...]", block)
		}
		for _, obj := range strings.Split(objs, ",") {
			obj = strings.TrimSpace(obj)
			key, val, ok := strings.Cut(obj, "=")
			if !ok {
				return nil, fmt.Errorf("obs: SLO objective %q is not key=value", obj)
			}
			spec := SLOSpec{Class: class}
			switch key {
			case "p50", "p90", "p99":
				d, err := time.ParseDuration(val)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("obs: SLO objective %q: bad duration %q", obj, val)
				}
				spec.QName = key
				spec.Target = d
				switch key {
				case "p50":
					spec.Quantile = 0.50
				case "p90":
					spec.Quantile = 0.90
				case "p99":
					spec.Quantile = 0.99
				}
			case "avail":
				var pct float64
				if _, err := fmt.Sscanf(val, "%g", &pct); err != nil || pct <= 0 || pct >= 100 {
					return nil, fmt.Errorf("obs: SLO objective %q: availability must be a percent in (0,100)", obj)
				}
				spec.Availability = pct / 100
			default:
				return nil, fmt.Errorf("obs: SLO objective %q: unknown key %q (want p50/p90/p99/avail)", obj, key)
			}
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("obs: SLO spec %q declares no objectives", s)
	}
	return specs, nil
}

// sloBucket is one time slice of an objective's good/bad counts. Latency
// objectives also fill hist (over the shared latencyBuckets ladder) so the
// observed quantile can be reported alongside the target.
type sloBucket struct {
	start int64 // aligned unix seconds; 0 = never used
	n     uint64
	bad   uint64
	hist  [len(latencyBuckets) + 1]uint64
}

type sloObjective struct {
	spec    sloSpecInternal
	buckets [sloNumBuckets]sloBucket
	// lifetime counters for monotonic _total series.
	totalN   uint64
	totalBad uint64
}

// sloSpecInternal caches the nanosecond target alongside the public spec.
type sloSpecInternal struct {
	SLOSpec
	targetNs int64
	budget   float64 // allowed bad fraction: 1-quantile or 1-availability
}

// SLO tracks a set of objectives. All methods are safe for concurrent use.
type SLO struct {
	// Now is injectable for tests; defaults to time.Now.
	Now func() time.Time

	mu         sync.Mutex
	objectives []*sloObjective
	classes    map[string][]*sloObjective
}

// NewSLO builds a tracker for the given parsed objectives.
func NewSLO(specs []SLOSpec) *SLO {
	s := &SLO{classes: map[string][]*sloObjective{}}
	for _, spec := range specs {
		in := sloSpecInternal{SLOSpec: spec}
		if spec.Quantile > 0 {
			in.targetNs = spec.Target.Nanoseconds()
			in.budget = 1 - spec.Quantile
		} else {
			in.budget = 1 - spec.Availability
		}
		o := &sloObjective{spec: in}
		s.objectives = append(s.objectives, o)
		s.classes[spec.Class] = append(s.classes[spec.Class], o)
	}
	return s
}

func (s *SLO) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// Observe records one request outcome for class. Availability objectives
// count status >= 500 as bad (429 sheds are deliberate, not SLO-bad);
// latency objectives only observe successful (200) requests and count a
// duration above target as bad. Unknown classes are ignored.
func (s *SLO) Observe(class string, status int, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	objs := s.classes[class]
	if len(objs) == 0 {
		return
	}
	nowSec := s.now().Unix()
	aligned := nowSec - nowSec%sloBucketSeconds
	for _, o := range objs {
		b := &o.buckets[(aligned/sloBucketSeconds)%int64(sloNumBuckets)]
		if b.start != aligned {
			*b = sloBucket{start: aligned}
		}
		if o.spec.Quantile > 0 {
			if status != http.StatusOK {
				continue
			}
			b.n++
			o.totalN++
			ns := d.Nanoseconds()
			idx := len(latencyBuckets)
			for i, ub := range latencyBuckets {
				if ns <= ub {
					idx = i
					break
				}
			}
			b.hist[idx]++
			if ns > o.spec.targetNs {
				b.bad++
				o.totalBad++
			}
		} else {
			b.n++
			o.totalN++
			if status >= 500 {
				b.bad++
				o.totalBad++
			}
		}
	}
}

// SLOStatus is the externally visible state of one objective.
type SLOStatus struct {
	Class     string `json:"class"`
	Objective string `json:"objective"`

	TargetNs           int64   `json:"target_ns,omitempty"`
	ObservedQuantileNs int64   `json:"observed_quantile_ns,omitempty"`
	TargetAvailability float64 `json:"target_availability,omitempty"`
	ObservedAvail      float64 `json:"observed_availability,omitempty"`

	// Requests/Bad cover the slow (1h) window.
	Requests uint64 `json:"requests"`
	Bad      uint64 `json:"bad"`

	BurnRateFast   float64 `json:"burn_rate_fast"`
	BurnRateSlow   float64 `json:"burn_rate_slow"`
	BudgetConsumed float64 `json:"budget_consumed"`
	Alert          string  `json:"alert"`
	Met            bool    `json:"met"`
}

// Status reports every objective's current state, in declaration order.
func (s *SLO) Status() []SLOStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	out := make([]SLOStatus, 0, len(s.objectives))
	for _, o := range s.objectives {
		out = append(out, s.statusLocked(o, now))
	}
	return out
}

func (s *SLO) statusLocked(o *sloObjective, now time.Time) SLOStatus {
	fastN, fastBad, _ := o.window(now, sloFastWindow)
	slowN, slowBad, hist := o.window(now, sloSlowWindow)

	st := SLOStatus{
		Class:     o.spec.Class,
		Objective: o.spec.String(),
		Requests:  slowN,
		Bad:       slowBad,
	}
	st.BurnRateFast = burnRate(fastN, fastBad, o.spec.budget)
	st.BurnRateSlow = burnRate(slowN, slowBad, o.spec.budget)
	st.BudgetConsumed = st.BurnRateSlow
	switch {
	case st.BurnRateFast >= sloPageBurn && st.BurnRateSlow >= sloPageBurn:
		st.Alert = "page"
	case st.BurnRateSlow >= sloTicketBurn:
		st.Alert = "ticket"
	default:
		st.Alert = "ok"
	}
	st.Met = slowBad == 0 || st.BudgetConsumed <= 1

	if o.spec.Quantile > 0 {
		st.TargetNs = o.spec.targetNs
		st.ObservedQuantileNs = histQuantile(hist, slowN, o.spec.Quantile)
	} else {
		st.TargetAvailability = o.spec.Availability
		if slowN > 0 {
			st.ObservedAvail = float64(slowN-slowBad) / float64(slowN)
		} else {
			st.ObservedAvail = 1
		}
	}
	return st
}

// window sums the objective's buckets newer than now-span.
func (o *sloObjective) window(now time.Time, span time.Duration) (n, bad uint64, hist [len(latencyBuckets) + 1]uint64) {
	cutoff := now.Add(-span).Unix()
	nowSec := now.Unix()
	for i := range o.buckets {
		b := &o.buckets[i]
		// Future-dated starts cannot happen with a sane clock; stale ones
		// (older than the slow window) are dead slots awaiting reuse.
		if b.start == 0 || b.start <= cutoff || b.start > nowSec {
			continue
		}
		n += b.n
		bad += b.bad
		for j := range hist {
			hist[j] += b.hist[j]
		}
	}
	return n, bad, hist
}

func burnRate(n, bad uint64, budget float64) float64 {
	if n == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(n)) / budget
}

// histQuantile returns the q-quantile bucket bound in nanoseconds from a
// latencyBuckets-ladder histogram, 0 when the histogram is empty. Values in
// the overflow bucket report the ladder's top bound.
func histQuantile(hist [len(latencyBuckets) + 1]uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += hist[i]
		if cum >= target {
			return ub
		}
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// Handler serves GET /v1/slo: {"objectives":[...]}.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"objectives": s.Status()})
	})
}

// Families renders the objectives as {prefix}_slo_* metric families, one
// series per objective in label order (none for a nil SLO).
func (s *SLO) Families(prefix string) []PromFamily {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	now := s.now()
	type row struct {
		class, objective string
		st               SLOStatus
		totalN           uint64
		totalBad         uint64
	}
	rows := make([]row, 0, len(s.objectives))
	for _, o := range s.objectives {
		rows = append(rows, row{
			class:     o.spec.Class,
			objective: o.spec.String(),
			st:        s.statusLocked(o, now),
			totalN:    o.totalN,
			totalBad:  o.totalBad,
		})
	}
	s.mu.Unlock()
	labels := func(r row, kv ...string) string {
		return PromLabels(append([]string{"class", r.class, "objective", r.objective}, kv...)...)
	}
	sort.Slice(rows, func(i, j int) bool { return labels(rows[i]) < labels(rows[j]) })

	fams := []PromFamily{
		{Name: prefix + "_slo_requests_total", Help: "Requests observed per SLO objective.", Type: "counter"},
		{Name: prefix + "_slo_bad_total", Help: "SLO-violating requests per objective.", Type: "counter"},
		{Name: prefix + "_slo_burn_rate", Help: "Error-budget burn rate per objective and window (1.0 = consuming exactly the budget).", Type: "gauge"},
		{Name: prefix + "_slo_budget_consumed", Help: "Fraction of the slow-window error budget consumed.", Type: "gauge"},
		{Name: prefix + "_slo_met", Help: "Whether the objective is currently met (1) or burning beyond budget (0).", Type: "gauge"},
	}
	add := func(f *PromFamily, labels string, v float64) {
		f.Samples = append(f.Samples, PromSample{Name: f.Name, Labels: labels, Value: v})
	}
	for _, r := range rows {
		met := 0.0
		if r.st.Met {
			met = 1
		}
		add(&fams[0], labels(r), float64(r.totalN))
		add(&fams[1], labels(r), float64(r.totalBad))
		add(&fams[2], labels(r, "window", "5m"), r.st.BurnRateFast)
		add(&fams[2], labels(r, "window", "1h"), r.st.BurnRateSlow)
		add(&fams[3], labels(r), r.st.BudgetConsumed)
		add(&fams[4], labels(r), met)
	}
	return fams
}

// SLOMiddleware wraps next so every response is observed against the
// class classify assigns it (classify returning "" skips the request).
// A nil SLO passes next through untouched.
func SLOMiddleware(s *SLO, classify func(*http.Request) string, next http.Handler) http.Handler {
	if s == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classify(r)
		if class == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.Observe(class, rec.status, time.Since(start))
	})
}

// statusRecorder captures the response status for SLO accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
