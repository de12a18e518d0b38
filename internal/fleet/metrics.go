package fleet

import (
	"sort"
	"sync"
	"sync/atomic"

	"iotaxo/internal/obs"
)

// Router metrics, rendered in Prometheus text format at the router's
// /metrics. Members come and go at runtime, so the per-replica series
// live behind a small mutex (one map lookup per dispatch); the counters
// themselves stay atomics, and removal deletes the member's series
// outright — a departed member must not linger as a frozen row.

type replicaCounters struct {
	requests atomic.Uint64 // sub-requests dispatched (failover retries included)
	rows     atomic.Uint64 // rows dispatched
	errors   atomic.Uint64 // sub-request failures (any kind)
}

type routerMetrics struct {
	requests  atomic.Uint64 // client requests routed
	errors    atomic.Uint64 // client requests failed
	failovers atomic.Uint64 // sub-requests retried on another replica
	remaps    atomic.Uint64 // ring membership flips (joins, ejections, drains, expiries)
	healthy   atomic.Int64  // current ring size

	mu         sync.Mutex
	names      []string // sorted for deterministic rendering
	perReplica map[string]*replicaCounters
}

func (m *routerMetrics) init(names []string) {
	m.perReplica = make(map[string]*replicaCounters, len(names))
	for _, n := range names {
		m.perReplica[n] = &replicaCounters{}
		m.names = append(m.names, n)
	}
	sort.Strings(m.names)
}

// add creates the member's counter series (no-op when present: a
// re-registering member keeps its counts).
func (m *routerMetrics) add(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.perReplica[name]; ok {
		return
	}
	m.perReplica[name] = &replicaCounters{}
	m.names = append(m.names, name)
	sort.Strings(m.names)
}

// remove deletes the member's counter series.
func (m *routerMetrics) remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.perReplica[name]; !ok {
		return
	}
	delete(m.perReplica, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			break
		}
	}
}

func (m *routerMetrics) counters(name string) *replicaCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perReplica[name]
}

func (m *routerMetrics) dispatched(name string, rows int) {
	if c := m.counters(name); c != nil {
		c.requests.Add(1)
		c.rows.Add(uint64(rows))
	}
}

func (m *routerMetrics) replicaError(name string) {
	if c := m.counters(name); c != nil {
		c.errors.Add(1)
	}
}

// families renders the iorouter_* series.
func (m *routerMetrics) families() []obs.PromFamily {
	var fams []obs.PromFamily
	for _, s := range []struct {
		name, help, typ string
		val             float64
	}{
		{"iorouter_requests_total", "Client requests routed.", "counter", float64(m.requests.Load())},
		{"iorouter_errors_total", "Client requests answered with an error.", "counter", float64(m.errors.Load())},
		{"iorouter_failovers_total", "Sub-requests retried on another replica after a fault.", "counter", float64(m.failovers.Load())},
		{"iorouter_ring_remaps_total", "Ring membership flips (joins, ejections, drains, expiries).", "counter", float64(m.remaps.Load())},
		{"iorouter_replicas_healthy", "Replicas currently on the ring.", "gauge", float64(m.healthy.Load())},
	} {
		fams = append(fams, obs.PromFamily{Name: s.name, Help: s.help, Type: s.typ, Samples: []obs.PromSample{{Name: s.name, Value: s.val}}})
	}
	// Snapshot the member set so rendering never races add/remove.
	m.mu.Lock()
	names := make([]string, len(m.names))
	copy(names, m.names)
	counters := make(map[string]*replicaCounters, len(m.perReplica))
	for n, c := range m.perReplica {
		counters[n] = c
	}
	m.mu.Unlock()
	for _, s := range []struct {
		name, help string
		get        func(*replicaCounters) uint64
	}{
		{"iorouter_replica_requests_total", "Sub-requests dispatched per replica.", func(c *replicaCounters) uint64 { return c.requests.Load() }},
		{"iorouter_replica_rows_total", "Rows dispatched per replica.", func(c *replicaCounters) uint64 { return c.rows.Load() }},
		{"iorouter_replica_errors_total", "Sub-request failures per replica.", func(c *replicaCounters) uint64 { return c.errors.Load() }},
	} {
		f := obs.PromFamily{Name: s.name, Help: s.help, Type: "counter"}
		for _, n := range names {
			f.Samples = append(f.Samples, obs.PromSample{Name: s.name, Labels: obs.PromLabels("replica", n), Value: float64(s.get(counters[n]))})
		}
		fams = append(fams, f)
	}
	return fams
}
