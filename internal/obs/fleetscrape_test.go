package obs

import (
	"strings"
	"testing"
	"time"
)

func TestFleetScrapeUpAndStaleness(t *testing.T) {
	now := time.Unix(1000, 0)
	fs := NewFleetScrape([]string{"r1", "r2"})
	fs.Now = func() time.Time { return now }

	if err := fs.Record("r1", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}
	if !fs.Up("r1") || fs.Up("r2") {
		t.Fatalf("up state wrong: r1=%v r2=%v", fs.Up("r1"), fs.Up("r2"))
	}

	now = now.Add(7 * time.Second)
	var buf strings.Builder
	if err := WritePromText(&buf, fs.Families()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`iorouter_replica_up{replica="r1"} 1`,
		`iorouter_replica_up{replica="r2"} 0`,
		`iorouter_replica_scrape_age_seconds{replica="r1"} 7`,
		`iorouter_replica_scrape_age_seconds{replica="r2"} -1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// A failed scrape drops up but keeps the cache (gauge still readable).
	fs.MarkDown("r1")
	if fs.Up("r1") {
		t.Fatal("r1 still up after MarkDown")
	}
	if v, ok := fs.Gauge("r1", "ioserve_admission_inflight"); !ok || v != 2 {
		t.Fatalf("cached gauge lost after MarkDown: %g %v", v, ok)
	}
}

func TestFleetScrapeMergedFamilies(t *testing.T) {
	fs := NewFleetScrape([]string{"r1", "r2"})
	if err := fs.Record("r1", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Record("r2", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WritePromText(&buf, fs.Families()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ioserve_requests_total 20") {
		t.Errorf("merged counter missing/wrong in:\n%s", out)
	}
	if !strings.Contains(out, `ioserve_stage_latency_seconds_bucket{stage="evaluate",le="0.005"} 6`) {
		t.Errorf("merged histogram bucket missing/wrong in:\n%s", out)
	}
	if !strings.Contains(out, "# HELP ioserve_requests_total Fleet-aggregated:") {
		t.Errorf("merged HELP not marked fleet-aggregated in:\n%s", out)
	}
	// Down replicas are excluded from the merge.
	fs.MarkDown("r2")
	buf.Reset()
	_ = WritePromText(&buf, fs.Families())
	if !strings.Contains(buf.String(), "ioserve_requests_total 10") {
		t.Errorf("down replica still in merge:\n%s", buf.String())
	}
}

func TestFleetScrapeGaugeAndSamples(t *testing.T) {
	fs := NewFleetScrape(nil)
	// Unknown target auto-registers on Record.
	if err := fs.Record("late", []byte(sampleExposition)); err != nil {
		t.Fatal(err)
	}
	if v, ok := fs.Gauge("late", "ioserve_admission_inflight"); !ok || v != 2 {
		t.Fatalf("Gauge = %g, %v", v, ok)
	}
	if v, ok := fs.Gauge("late", `ioserve_active_version{system="theta"}`); !ok || v != 4 {
		t.Fatalf("labelled Gauge = %g, %v", v, ok)
	}
	if _, ok := fs.Gauge("late", "nope"); ok {
		t.Fatal("absent series reported present")
	}
	if _, ok := fs.Gauge("never", "ioserve_admission_inflight"); ok {
		t.Fatal("unknown target reported a gauge")
	}
	samples := fs.Samples("late", "ioserve_active_version")
	if len(samples) != 1 {
		t.Fatalf("Samples = %+v", samples)
	}
	if sys, ok := LabelValue(samples[0].Labels, "system"); !ok || sys != "theta" {
		t.Fatalf("sample labels = %q", samples[0].Labels)
	}
	// A parse failure marks the target down and errors.
	if err := fs.Record("late", []byte("garbage here\n")); err == nil {
		t.Fatal("bad exposition accepted")
	}
	if fs.Up("late") {
		t.Fatal("target still up after failed parse")
	}
}
