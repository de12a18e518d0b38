package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promtext.go owns the Prometheus text exposition format (version 0.0.4):
// WritePromText is the one renderer every /metrics body in the serving
// stack goes through, and ParsePromText reads replica bodies back far
// enough to merge counter and histogram families fleet-wide. It is not a
// general client library: the parser rejects what it cannot render back
// identically and skips comments it does not understand.

// PromSample is one series line: a metric name, its rendered label block
// (including braces, or "" for an unlabelled series), and the value.
type PromSample struct {
	Name   string
	Labels string
	Value  float64
}

// PromFamily groups the samples belonging to one # TYPE declaration.
// Histogram families carry their _bucket/_sum/_count series as samples
// under the base family name.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// WritePromText renders families in declaration order: per family a
// # HELP line (when Help is set), a # TYPE line, then its samples. Values
// go through formatPromValue. The first write error is returned.
func WritePromText(w io.Writer, families []PromFamily) error {
	bw := bufio.NewWriter(w)
	for _, f := range families {
		if f.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.Name)
			bw.WriteByte(' ')
			bw.WriteString(f.Help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Type)
		bw.WriteByte('\n')
		for _, s := range f.Samples {
			bw.WriteString(s.Name)
			bw.WriteString(s.Labels)
			bw.WriteByte(' ')
			bw.WriteString(formatPromValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// PromLabels renders key/value pairs (k1, v1, k2, v2, ...) as a label
// block, `{k1="v1",k2="v2"}`, each value quoted by strconv.Quote. No pairs
// render as "".
func PromLabels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(kv[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// formatPromValue renders integral values without an exponent, so counters
// summed or converted through float64 read like integers, and everything
// else as %g would, with NaN, +Inf and -Inf spelled as Prometheus expects.
// Negative zero keeps its sign so every value parses back to the same bits.
func formatPromValue(v float64) string {
	if v == math.Trunc(v) && v >= -(1<<63) && v < 1<<63 && !(v == 0 && math.Signbit(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c == ':' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || (i > 0 && '0' <= c && c <= '9') {
			continue
		}
		return false
	}
	return true
}

// ParsePromText parses a text-format exposition body into families,
// in declaration order. Series that appear without a preceding # TYPE
// comment are collected into an implicit untyped family. A sample with an
// invalid metric name or a second # TYPE line for one family is an error;
// HELP and TYPE comments naming an invalid metric are skipped.
func ParsePromText(body []byte) ([]PromFamily, error) {
	var families []PromFamily
	index := map[string]int{} // family name -> families idx
	family := func(name string) *PromFamily {
		if i, ok := index[name]; ok {
			return &families[i]
		}
		families = append(families, PromFamily{Name: name, Type: "untyped"})
		index[name] = len(families) - 1
		return &families[len(families)-1]
	}
	// owner maps a series name (e.g. foo_bucket) to its family (foo).
	owner := map[string]string{}
	typed := map[string]bool{}

	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || !validMetricName(fields[2]) {
				continue
			}
			switch fields[1] {
			case "HELP":
				family(fields[2]).Help = fields[3]
			case "TYPE":
				if typed[fields[2]] {
					return nil, fmt.Errorf("obs: second TYPE line for %s", fields[2])
				}
				typed[fields[2]] = true
				f := family(fields[2])
				f.Type = fields[3]
				owner[fields[2]] = fields[2]
				if fields[3] == "histogram" || fields[3] == "summary" {
					owner[fields[2]+"_bucket"] = fields[2]
					owner[fields[2]+"_sum"] = fields[2]
					owner[fields[2]+"_count"] = fields[2]
				}
			}
			continue
		}
		name, labels, valueText, err := splitSample(line)
		if err != nil {
			return nil, err
		}
		if !validMetricName(name) {
			return nil, fmt.Errorf("obs: bad metric name in %q", line)
		}
		v, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad sample value in %q: %w", line, err)
		}
		famName, ok := owner[name]
		if !ok {
			famName = name
		}
		f := family(famName)
		f.Samples = append(f.Samples, PromSample{Name: name, Labels: labels, Value: v})
	}
	return families, nil
}

// splitSample cuts one series line into name, label block, and value text.
func splitSample(line string) (name, labels, value string, err error) {
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			return "", "", "", fmt.Errorf("obs: unterminated label block in %q", line)
		}
		name = line[:brace]
		labels = line[brace : end+1]
		value = strings.TrimSpace(line[end+1:])
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", "", "", fmt.Errorf("obs: malformed sample line %q", line)
		}
		name = line[:sp]
		labels = ""
		value = strings.TrimSpace(line[sp+1:])
	}
	if name == "" || value == "" {
		return "", "", "", fmt.Errorf("obs: malformed sample line %q", line)
	}
	return name, labels, value, nil
}

// LabelValue extracts the value of one key from a rendered label block
// like `{system="theta",le="0.005"}`.
func LabelValue(labels, key string) (string, bool) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, pair := range splitLabelPairs(inner) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k != key {
			continue
		}
		if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
			return v[1 : len(v)-1], true
		}
		return v, true
	}
	return "", false
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// MergeFamilies sums same-name samples (matched on name+labels) across
// several parsed expositions. Only counter and histogram families merge —
// gauges are point-in-time per-process values whose sum is rarely
// meaningful. Histogram families must expose identical bucket label sets
// in every input that carries them, otherwise the family is dropped
// (summing incompatible ladders would silently corrupt quantiles).
// Sample order within a family follows the first input that declared it.
func MergeFamilies(inputs ...[]PromFamily) []PromFamily {
	type acc struct {
		family PromFamily // samples in first-seen order, values filled at the end
		values map[string]float64
		drop   bool
	}
	var names []string
	byName := map[string]*acc{}

	for _, families := range inputs {
		for _, f := range families {
			if f.Type != "counter" && f.Type != "histogram" {
				continue
			}
			a, ok := byName[f.Name]
			if !ok {
				a = &acc{
					family: PromFamily{Name: f.Name, Help: f.Help, Type: f.Type},
					values: map[string]float64{},
				}
				byName[f.Name] = a
				names = append(names, f.Name)
			}
			if a.family.Type != f.Type {
				a.drop = true
				continue
			}
			if f.Type == "histogram" && !sameBuckets(a.family.Samples, f) {
				a.drop = true
				continue
			}
			for _, s := range f.Samples {
				key := s.Name + s.Labels
				if _, seen := a.values[key]; !seen {
					a.family.Samples = append(a.family.Samples, PromSample{Name: s.Name, Labels: s.Labels})
				}
				a.values[key] += s.Value
			}
		}
	}

	var out []PromFamily
	for _, name := range names {
		a := byName[name]
		if a.drop {
			continue
		}
		for i := range a.family.Samples {
			s := &a.family.Samples[i]
			s.Value = a.values[s.Name+s.Labels]
		}
		out = append(out, a.family)
	}
	return out
}

// sameBuckets reports whether a histogram family's bucket label sets in f
// are compatible with the ones already accumulated. A family with no
// accumulated buckets yet accepts anything.
func sameBuckets(accumulated []PromSample, f PromFamily) bool {
	have := bucketSet(accumulated, f.Name)
	if len(have) == 0 {
		return true
	}
	// Only bucket sets for label combinations present on both sides must
	// match; a replica may legitimately expose extra label values (e.g. a
	// stage the others have not hit yet).
	incoming := bucketSet(f.Samples, f.Name)
	for series, les := range incoming {
		if prior, ok := have[series]; ok && prior != les {
			return false
		}
	}
	return true
}

// bucketSet maps each _bucket series' non-le label signature to its sorted
// set of le values, rendered as one string for comparison.
func bucketSet(samples []PromSample, family string) map[string]string {
	sets := map[string][]string{}
	for _, s := range samples {
		if s.Name != family+"_bucket" {
			continue
		}
		le, ok := LabelValue(s.Labels, "le")
		if !ok {
			continue
		}
		sets[stripLabel(s.Labels, "le")] = append(sets[stripLabel(s.Labels, "le")], le)
	}
	out := make(map[string]string, len(sets))
	for k, les := range sets {
		sort.Strings(les)
		out[k] = strings.Join(les, ",")
	}
	return out
}

// stripLabel removes one key="value" pair from a rendered label block.
func stripLabel(labels, key string) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range splitLabelPairs(inner) {
		if k, _, ok := strings.Cut(pair, "="); ok && k == key {
			continue
		}
		kept = append(kept, pair)
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}
