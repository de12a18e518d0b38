package obs

import (
	"strings"
	"testing"
	"time"
)

// TestLatencyHistObserve checks bucket assignment, cumulative rendering,
// and the sum/count lines.
func TestLatencyHistObserve(t *testing.T) {
	var h LatencyHist
	h.Observe(10 * time.Microsecond)  // <= 50µs bucket
	h.Observe(50 * time.Microsecond)  // boundary: still <= 50µs
	h.Observe(200 * time.Microsecond) // <= 250µs
	h.Observe(3 * time.Second)        // +Inf overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	var sb strings.Builder
	family := PromFamily{Name: "x_seconds", Help: "Test latency.", Type: "histogram", Samples: h.Samples("x_seconds")}
	if err := WritePromText(&sb, []PromFamily{family}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		"x_seconds_bucket{le=\"5e-05\"} 2",
		"x_seconds_bucket{le=\"0.00025\"} 3",
		"x_seconds_bucket{le=\"1\"} 3",
		"x_seconds_bucket{le=\"+Inf\"} 4",
		"x_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotone: every later bucket >= earlier.
	prev := uint64(0)
	var cum uint64
	for i := range latencyBuckets {
		cum += h.buckets[i].Load()
		if cum < prev {
			t.Fatalf("bucket %d not cumulative", i)
		}
		prev = cum
	}
}
