package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Membership event kinds recorded by the fleet router. The set is closed
// so the per-event counters render deterministically (a dashboard alert on
// lease_expired must not silently match nothing because of a typo'd label).
const (
	MemberEventRegister        = "register"         // new member announced itself
	MemberEventReRegister      = "re_register"      // known member re-announced (router missed it, or it bounced)
	MemberEventAdmit           = "admit"            // health-proven member joined the ring
	MemberEventEject           = "eject"            // breaker tripped; arcs remapped away
	MemberEventReadmit         = "readmit"          // recovered member's arcs restored
	MemberEventLeaseExpired    = "lease_expired"    // heartbeats stopped; member removed
	MemberEventDeregister      = "deregister"       // graceful drain completed
	MemberEventFlapDamped      = "flap_damped"      // join/leave cycling; readmission held back
	MemberEventSnapshotRestore = "snapshot_restore" // membership rebuilt from the on-disk snapshot
)

// memberEventKinds is the closed set, in rendering order.
var memberEventKinds = []string{
	MemberEventRegister, MemberEventReRegister, MemberEventAdmit,
	MemberEventEject, MemberEventReadmit, MemberEventLeaseExpired,
	MemberEventDeregister, MemberEventFlapDamped, MemberEventSnapshotRestore,
}

// MembershipEvent is one fleet-membership transition, retained in a ring
// for the admin view and counted per kind for /metrics.
type MembershipEvent struct {
	Time   time.Time `json:"time"`
	Member string    `json:"member"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
}

// MembershipLog retains recent membership events (newest kept, oldest
// evicted) and counts them per kind. Safe for concurrent use; the clock is
// injectable for tests.
type MembershipLog struct {
	// Now is injectable for tests; nil uses time.Now.
	Now func() time.Time

	mu     sync.Mutex
	ring   []MembershipEvent // ring buffer, len == cap once full
	next   int               // next write position
	filled bool
	counts map[string]uint64
}

// NewMembershipLog retains up to capacity events (minimum 16).
func NewMembershipLog(capacity int) *MembershipLog {
	if capacity < 16 {
		capacity = 16
	}
	return &MembershipLog{
		ring:   make([]MembershipEvent, capacity),
		counts: make(map[string]uint64, len(memberEventKinds)),
	}
}

func (l *MembershipLog) now() time.Time {
	if l.Now != nil {
		return l.Now()
	}
	return time.Now()
}

// Record appends one event.
func (l *MembershipLog) Record(member, event, detail string) {
	l.mu.Lock()
	l.ring[l.next] = MembershipEvent{Time: l.now(), Member: member, Event: event, Detail: detail}
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.filled = true
	}
	l.counts[event]++
	l.mu.Unlock()
}

// Count returns how many events of one kind were recorded.
func (l *MembershipLog) Count(event string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[event]
}

// Recent returns up to limit retained events, newest first (limit <= 0
// returns all retained).
func (l *MembershipLog) Recent(limit int) []MembershipEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.ring)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]MembershipEvent, 0, limit)
	for i := 1; i <= limit; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Families renders the per-kind event counters. Every kind in the closed
// set is rendered (zeros included) so rate() queries never see a series
// appear from nowhere; kinds recorded outside the set (callers can invent
// them) render after, sorted.
func (l *MembershipLog) Families() []PromFamily {
	l.mu.Lock()
	counts := make(map[string]uint64, len(l.counts))
	for k, v := range l.counts {
		counts[k] = v
	}
	l.mu.Unlock()
	var extra []string
	for k := range counts {
		if !slices.Contains(memberEventKinds, k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	f := PromFamily{Name: "iorouter_membership_events_total", Help: "Fleet membership transitions by kind.", Type: "counter"}
	for _, k := range slices.Concat(memberEventKinds, extra) {
		f.Samples = append(f.Samples, PromSample{Name: f.Name, Labels: PromLabels("event", k), Value: float64(counts[k])})
	}
	return []PromFamily{f}
}
