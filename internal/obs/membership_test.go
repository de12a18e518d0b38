package obs

import (
	"strings"
	"testing"
	"time"
)

func TestMembershipLogRecordAndRecent(t *testing.T) {
	l := NewMembershipLog(64)
	now := time.Unix(5000, 0)
	l.Now = func() time.Time { return now }

	l.Record("r1", MemberEventRegister, "http://r1:8081")
	now = now.Add(time.Second)
	l.Record("r1", MemberEventAdmit, "first health probe passed")
	now = now.Add(time.Second)
	l.Record("r2", MemberEventRegister, "")

	if got := l.Count(MemberEventRegister); got != 2 {
		t.Fatalf("Count(register) = %d, want 2", got)
	}
	if got := l.Count(MemberEventEject); got != 0 {
		t.Fatalf("Count(eject) = %d, want 0", got)
	}

	recent := l.Recent(2)
	if len(recent) != 2 {
		t.Fatalf("Recent(2) returned %d events", len(recent))
	}
	// Newest first.
	if recent[0].Member != "r2" || recent[0].Event != MemberEventRegister {
		t.Fatalf("recent[0] = %+v", recent[0])
	}
	if recent[1].Member != "r1" || recent[1].Event != MemberEventAdmit {
		t.Fatalf("recent[1] = %+v", recent[1])
	}
	if !recent[0].Time.After(recent[1].Time) {
		t.Fatal("recent events not newest-first")
	}

	if all := l.Recent(100); len(all) != 3 {
		t.Fatalf("Recent(100) returned %d events, want all 3", len(all))
	}
}

func TestMembershipLogRingEviction(t *testing.T) {
	// Counts survive eviction; the retained window is the newest N.
	l := NewMembershipLog(16)
	for i := 0; i < 40; i++ {
		l.Record("r1", MemberEventLeaseExpired, "")
	}
	if got := l.Count(MemberEventLeaseExpired); got != 40 {
		t.Fatalf("Count = %d, want 40 (eviction must not lose counts)", got)
	}
	if got := len(l.Recent(100)); got != 16 {
		t.Fatalf("retained %d events, want the ring capacity 16", got)
	}
}

func TestMembershipLogMetricsZeros(t *testing.T) {
	// Every known event kind is exposed even at zero, so dashboards see a
	// stable label set from the first scrape; unknown kinds still render.
	l := NewMembershipLog(16)
	l.Record("r1", MemberEventRegister, "")
	l.Record("r1", MemberEventLeaseExpired, "")
	l.Record("r1", MemberEventLeaseExpired, "")
	l.Record("r1", "custom_event", "")

	var buf strings.Builder
	if err := WritePromText(&buf, l.Families()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`iorouter_membership_events_total{event="register"} 1`,
		`iorouter_membership_events_total{event="lease_expired"} 2`,
		`iorouter_membership_events_total{event="deregister"} 0`,
		`iorouter_membership_events_total{event="flap_damped"} 0`,
		`iorouter_membership_events_total{event="snapshot_restore"} 0`,
		`iorouter_membership_events_total{event="admit"} 0`,
		`iorouter_membership_events_total{event="eject"} 0`,
		`iorouter_membership_events_total{event="readmit"} 0`,
		`iorouter_membership_events_total{event="re_register"} 0`,
		`iorouter_membership_events_total{event="custom_event"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestFleetScrapeRemove(t *testing.T) {
	// A deregistered member's series disappear entirely — no ghost
	// iorouter_replica_up{...} 0 rows for fleet members that left on
	// purpose (MarkDown is for members that are down but still registered).
	fs := NewFleetScrape([]string{"r1", "r2"})
	if err := fs.Record("r1", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Record("r2", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}

	fs.Remove("r1")
	if fs.Up("r1") {
		t.Fatal("removed target still up")
	}
	if _, ok := fs.Gauge("r1", "ioserve_admission_inflight"); ok {
		t.Fatal("removed target's cached gauge still readable")
	}

	var buf strings.Builder
	if err := WritePromText(&buf, fs.Families()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `replica="r1"`) {
		t.Fatalf("removed replica still in exposition:\n%s", out)
	}
	for _, want := range []string{
		`iorouter_replica_up{replica="r2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("surviving replica missing %q in:\n%s", want, out)
		}
	}

	// Remove of an unknown target is a no-op, and a removed target can
	// come back via Record (a re-registration).
	fs.Remove("ghost")
	if err := fs.Record("r1", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}
	if !fs.Up("r1") {
		t.Fatal("re-recorded target not up")
	}
}
