package obs

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

const sampleExposition = `# HELP ioserve_requests_total Total predict requests.
# TYPE ioserve_requests_total counter
ioserve_requests_total 10
# HELP ioserve_stage_latency_seconds Stage latency.
# TYPE ioserve_stage_latency_seconds histogram
ioserve_stage_latency_seconds_bucket{stage="evaluate",le="0.005"} 3
ioserve_stage_latency_seconds_bucket{stage="evaluate",le="+Inf"} 5
ioserve_stage_latency_seconds_sum{stage="evaluate"} 0.02
ioserve_stage_latency_seconds_count{stage="evaluate"} 5
# HELP ioserve_admission_inflight In-flight admitted requests.
# TYPE ioserve_admission_inflight gauge
ioserve_admission_inflight 2
ioserve_active_version{system="theta"} 4
`

func TestParsePromText(t *testing.T) {
	families, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PromFamily{}
	for _, f := range families {
		byName[f.Name] = f
	}
	counter := byName["ioserve_requests_total"]
	if counter.Type != "counter" || len(counter.Samples) != 1 || counter.Samples[0].Value != 10 {
		t.Fatalf("counter family parsed wrong: %+v", counter)
	}
	hist := byName["ioserve_stage_latency_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram type = %q", hist.Type)
	}
	// _bucket/_sum/_count all land under the base family.
	if len(hist.Samples) != 4 {
		t.Fatalf("histogram samples = %d, want 4: %+v", len(hist.Samples), hist.Samples)
	}
	// An undeclared series becomes its own untyped family.
	if f := byName["ioserve_active_version"]; f.Type != "untyped" || len(f.Samples) != 1 {
		t.Fatalf("undeclared series family: %+v", f)
	}
	if f := byName["ioserve_admission_inflight"]; f.Type != "gauge" || f.Samples[0].Value != 2 {
		t.Fatalf("gauge family: %+v", f)
	}
}

func TestParsePromTextMalformed(t *testing.T) {
	for _, body := range []string{
		"ioserve_requests_total notanumber\n",
		`broken{le="0.1" 3` + "\n",
		"not a name{} 1\n",
		"# TYPE h histogram\nh_sum 1\n# TYPE h counter\n",
	} {
		if _, err := ParsePromText([]byte(body)); err == nil {
			t.Errorf("ParsePromText(%q) did not error", body)
		}
	}
}

func TestLabelValue(t *testing.T) {
	labels := `{system="theta",le="0.005",msg="a,b"}`
	if v, ok := LabelValue(labels, "le"); !ok || v != "0.005" {
		t.Fatalf("le = %q, %v", v, ok)
	}
	if v, ok := LabelValue(labels, "msg"); !ok || v != "a,b" {
		t.Fatalf("quoted comma not honored: %q, %v", v, ok)
	}
	if _, ok := LabelValue(labels, "absent"); ok {
		t.Fatal("absent key reported present")
	}
}

func TestMergeFamiliesSumsCountersAndHistograms(t *testing.T) {
	a, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePromText([]byte(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeFamilies(a, b)
	byName := map[string]PromFamily{}
	for _, f := range merged {
		byName[f.Name] = f
	}
	if f := byName["ioserve_requests_total"]; f.Samples[0].Value != 20 {
		t.Fatalf("merged counter = %g, want 20", f.Samples[0].Value)
	}
	hist := byName["ioserve_stage_latency_seconds"]
	for _, s := range hist.Samples {
		want := map[string]float64{
			`ioserve_stage_latency_seconds_bucket{stage="evaluate",le="0.005"}`: 6,
			`ioserve_stage_latency_seconds_bucket{stage="evaluate",le="+Inf"}`:  10,
			`ioserve_stage_latency_seconds_sum{stage="evaluate"}`:               0.04,
			`ioserve_stage_latency_seconds_count{stage="evaluate"}`:             10,
		}[s.Name+s.Labels]
		if s.Value != want {
			t.Errorf("%s%s = %g, want %g", s.Name, s.Labels, s.Value, want)
		}
	}
	// Gauges and untyped series must not merge: summing point-in-time
	// values across processes is not meaningful.
	if _, ok := byName["ioserve_admission_inflight"]; ok {
		t.Fatal("gauge family leaked into the merge")
	}
	if _, ok := byName["ioserve_active_version"]; ok {
		t.Fatal("untyped family leaked into the merge")
	}
}

func TestMergeFamiliesDropsIncompatibleBuckets(t *testing.T) {
	a, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 2
`))
	b, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{le="0.25"} 1
h_bucket{le="+Inf"} 2
`))
	merged := MergeFamilies(a, b)
	for _, f := range merged {
		if f.Name == "h" {
			t.Fatalf("incompatible bucket ladders merged anyway: %+v", f)
		}
	}
}

func TestMergeFamiliesToleratesExtraLabelSets(t *testing.T) {
	// Replica B exposes an extra stage; its ladder for the shared stage
	// matches, so the family still merges.
	a, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{stage="evaluate",le="0.1"} 1
h_bucket{stage="evaluate",le="+Inf"} 1
`))
	b, _ := ParsePromText([]byte(`# TYPE h histogram
h_bucket{stage="evaluate",le="0.1"} 2
h_bucket{stage="evaluate",le="+Inf"} 2
h_bucket{stage="guard",le="0.1"} 5
h_bucket{stage="guard",le="+Inf"} 5
`))
	merged := MergeFamilies(a, b)
	if len(merged) != 1 {
		t.Fatalf("family did not merge: %+v", merged)
	}
	var evalBucket, guardBucket float64
	for _, s := range merged[0].Samples {
		if strings.Contains(s.Labels, `stage="evaluate"`) && strings.Contains(s.Labels, `le="0.1"`) {
			evalBucket = s.Value
		}
		if strings.Contains(s.Labels, `stage="guard"`) && strings.Contains(s.Labels, `le="0.1"`) {
			guardBucket = s.Value
		}
	}
	if evalBucket != 3 || guardBucket != 5 {
		t.Fatalf("evaluate=%g (want 3) guard=%g (want 5)", evalBucket, guardBucket)
	}
}

// TestFormatPromValue pins the renderer's value rule: integral values print
// as %d would print them, everything else as %g, with NaN, +Inf, -Inf and
// -0 spelled so they parse back to the same bits.
func TestFormatPromValue(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "-0"},
		{42, "42"},
		{-7, "-7"},
		{1e6, "1000000"},
		{12345678, "12345678"},
		{0.5, "0.5"},
		{5e-05, "5e-05"},
		{2.00604, "2.00604"},
		{1.2345678e+07 + 0.5, "1.23456785e+07"},
		{1e21, "1e+21"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	} {
		if got := formatPromValue(c.v); got != c.want {
			t.Errorf("formatPromValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	for _, v := range []float64{3, 999999, -12, 0.1875, 33.3333333333333, 250.00000000002754, 2e-06, 1e-300} {
		want := fmt.Sprintf("%g", v)
		if v == math.Trunc(v) {
			want = fmt.Sprintf("%d", int64(v))
		}
		if got := formatPromValue(v); got != want {
			t.Errorf("formatPromValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestPromLabels: label values are quoted exactly as %q quotes them.
func TestPromLabels(t *testing.T) {
	if got := PromLabels(); got != "" {
		t.Errorf("PromLabels() = %q, want empty", got)
	}
	for _, v := range []string{"theta", `qu"ote`, "new\nline\n", "tab\t", "é", "\x00", "predict:p99<=25ms"} {
		got := PromLabels("system", v, "le", "+Inf")
		if want := fmt.Sprintf("{system=%q,le=%q}", v, "+Inf"); got != want {
			t.Errorf("PromLabels(%q) = %s, want %s", v, got, want)
		}
	}
}

// TestWritePromText renders a family without HELP, one with no samples
// and one with labels, and reports write errors.
func TestWritePromText(t *testing.T) {
	fams := []PromFamily{
		{Name: "a_total", Type: "counter", Samples: []PromSample{{Name: "a_total", Value: 3}}},
		{Name: "b", Help: "Empty.", Type: "gauge"},
		{Name: "c", Help: "Labeled.", Type: "gauge", Samples: []PromSample{{Name: "c", Labels: PromLabels("k", "v"), Value: 0.25}}},
	}
	var buf bytes.Buffer
	if err := WritePromText(&buf, fams); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_total counter\na_total 3\n# HELP b Empty.\n# TYPE b gauge\n# HELP c Labeled.\n# TYPE c gauge\nc{k=\"v\"} 0.25\n"
	if buf.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", buf.String(), want)
	}
	if err := WritePromText(failingWriter{}, fams); err == nil {
		t.Fatal("write error not reported")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("broken pipe") }

// FuzzPromText: the parser reads replica bodies, so it must never panic,
// and whatever it accepts must survive a render and re-parse unchanged,
// values compared bit for bit.
func FuzzPromText(f *testing.F) {
	for _, path := range []string{
		"../serve/testdata/metrics.golden",
		"../drift/testdata/metrics.golden",
		"../fleet/testdata/router_metrics.golden",
	} {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.ReplaceAll(body, []byte("<masked>"), []byte("1.2345678e+07")))
	}
	f.Add([]byte(sampleExposition))
	f.Add([]byte("x NaN\nx{a=\"b\"} -0\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} +Inf\nh_sum -Inf\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		families, err := ParsePromText(body)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePromText(&buf, families); err != nil {
			t.Fatal(err)
		}
		again, err := ParsePromText(buf.Bytes())
		if err != nil {
			t.Fatalf("rendered body does not parse: %v\n%s", err, buf.Bytes())
		}
		if msg := diffFamilies(families, again); msg != "" {
			t.Fatalf("round trip changed the families: %s\ninput:\n%q\nrendered:\n%s", msg, body, buf.Bytes())
		}
	})
}

// diffFamilies describes the first difference between two family lists,
// comparing values by their bits so NaN matches NaN; "" when equal.
func diffFamilies(a, b []PromFamily) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d families, then %d", len(a), len(b))
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return fmt.Sprintf("family %d: %q/%q/%q with %d samples, then %q/%q/%q with %d",
				i, fa.Name, fa.Help, fa.Type, len(fa.Samples), fb.Name, fb.Help, fb.Type, len(fb.Samples))
		}
		for j := range fa.Samples {
			sa, sb := fa.Samples[j], fb.Samples[j]
			if sa.Name != sb.Name || sa.Labels != sb.Labels || math.Float64bits(sa.Value) != math.Float64bits(sb.Value) {
				return fmt.Sprintf("family %s sample %d: %+v, then %+v", fa.Name, j, sa, sb)
			}
		}
	}
	return ""
}
