// Command benchcmp diffs two BENCH_<date>.json snapshots (produced by
// `make bench` via cmd/benchjson) and fails when a benchmark regressed by
// more than the threshold — in wall clock (ns/op) or in heap traffic
// (allocs/op, when both snapshots carry the -benchmem columns). It is the
// CI tripwire for the serving/predict hot paths: scripts/benchcmp.sh feeds
// it the two newest snapshots.
//
// Usage:
//
//	benchcmp [-threshold 10] [-pattern 'Serve|Predict'] old.json new.json
//	benchcmp -max-allocs 'ServeBatch16<=44,ServeDupHeavyCacheOff<=43' old.json new.json
//
// -max-allocs adds absolute allocs/op ceilings checked against the NEW
// snapshot (substring match on the benchmark name): unlike the relative
// gate, an absolute ceiling cannot drift upward across a chain of
// re-baselines, so it pins budgets like "the serving path stays under N
// allocations" permanently. A named benchmark missing from the new
// snapshot or lacking allocs/op is reported and skipped, consistent with
// the no-fail-on-missing-data policy below.
//
// The paper's headline numbers are invariants, not benchmarks: Fig1a's
// best_err_% and default_err_%, Fig3's posix_test_err_% and ModelZoo's
// floor_% must be exactly equal in both snapshots whenever both record
// them, whatever -pattern selects. A fast path that moves one of them is a
// bug, however much time it saves.
//
// Benchmarks present in only one snapshot are reported and skipped, as is
// the allocs/op comparison when either side predates -benchmem recording;
// if the snapshots share no benchmark matching the pattern the comparison
// is a no-op (exit 0) — a tripwire must not fail on missing data, only on
// measured regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// report mirrors cmd/benchjson's output document. AllocsPerOp is a
// pointer: nil means the snapshot predates -benchmem recording (skip the
// alloc comparison), while a present 0 is a real zero-allocation baseline
// that regressions must be measured against.
type report struct {
	Date       string `json:"date"`
	Benchmarks map[string]struct {
		Iterations  int64              `json:"iterations"`
		NsPerOp     float64            `json:"ns_per_op"`
		AllocsPerOp *float64           `json:"allocs_per_op"`
		Metrics     map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

// invariants names the paper-figure metrics that must not move between
// snapshots, per benchmark.
var invariants = []struct{ bench, metric string }{
	{"Fig1a", "best_err_%"},
	{"Fig1a", "default_err_%"},
	{"Fig3", "posix_test_err_%"},
	{"ModelZoo", "floor_%"},
}

// checkInvariants compares the paper invariants across the snapshots and
// returns the number of mismatches. A side that does not record one is
// reported and skipped.
func checkInvariants(oldRep, newRep report) int {
	mismatches := 0
	for _, inv := range invariants {
		label := inv.bench + " " + inv.metric
		ov, okOld := oldRep.Benchmarks[inv.bench].Metrics[inv.metric]
		nv, okNew := newRep.Benchmarks[inv.bench].Metrics[inv.metric]
		if !okOld || !okNew {
			fmt.Printf("  %-32s not in both snapshots, invariant skipped\n", label)
			continue
		}
		verdict := "ok"
		if ov != nv {
			verdict = "INVARIANT CHANGED"
			mismatches++
		}
		fmt.Printf("  %-32s %14g -> %14g            %s\n", label, ov, nv, verdict)
	}
	return mismatches
}

func main() {
	threshold := flag.Float64("threshold", 10, "ns/op regression threshold in percent")
	allocThreshold := flag.Float64("alloc-threshold", -1,
		"allocs/op regression threshold in percent (< 0: same as -threshold); allocs are machine-independent, so cross-machine comparisons can gate them tighter than wall clock")
	pattern := flag.String("pattern", "Serve|Predict", "regexp selecting the benchmarks to compare")
	maxAllocs := flag.String("max-allocs", "",
		"absolute allocs/op ceilings on the new snapshot, comma-separated 'Name<=N' (substring match)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold pct] [-alloc-threshold pct] [-pattern re] [-max-allocs 'Name<=N,...'] old.json new.json")
		os.Exit(2)
	}
	if *allocThreshold < 0 {
		*allocThreshold = *threshold
	}
	ceilings, err := parseMaxAllocs(*maxAllocs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *pattern, *threshold, *allocThreshold, ceilings); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// allocCeiling is one parsed -max-allocs entry.
type allocCeiling struct {
	name string
	max  float64
}

// parseMaxAllocs parses the comma-separated 'Name<=N' ceiling list.
func parseMaxAllocs(spec string) ([]allocCeiling, error) {
	if spec == "" {
		return nil, nil
	}
	var out []allocCeiling
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, limit, ok := strings.Cut(part, "<=")
		if !ok {
			return nil, fmt.Errorf("bad -max-allocs entry %q (want Name<=N)", part)
		}
		max, err := strconv.ParseFloat(strings.TrimSpace(limit), 64)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("bad -max-allocs bound in %q", part)
		}
		out = append(out, allocCeiling{name: strings.TrimSpace(name), max: max})
	}
	return out, nil
}

// checkCeilings asserts the absolute allocs/op budgets against the new
// snapshot, returning the number of breaches. Missing benchmarks or
// missing allocs/op are reported and skipped, never failed.
func checkCeilings(rep report, ceilings []allocCeiling) int {
	breaches := 0
	for _, c := range ceilings {
		matched := false
		for name, b := range rep.Benchmarks {
			if !strings.Contains(name, c.name) {
				continue
			}
			matched = true
			if b.AllocsPerOp == nil {
				fmt.Printf("  %-32s no allocs/op recorded, ceiling <=%g skipped\n", name, c.max)
				continue
			}
			verdict := "ok"
			if *b.AllocsPerOp > c.max {
				verdict = "OVER BUDGET"
				breaches++
			}
			fmt.Printf("  %-32s %14.0f allocs/op vs ceiling %g  %s\n", name, *b.AllocsPerOp, c.max, verdict)
		}
		if !matched {
			fmt.Printf("  %-32s not in new snapshot, ceiling <=%g skipped\n", c.name, c.max)
		}
	}
	return breaches
}

func run(oldPath, newPath, pattern string, threshold, allocThreshold float64, ceilings []allocCeiling) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("bad -pattern: %w", err)
	}
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}

	var names []string
	for name := range oldRep.Benchmarks {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	fmt.Printf("benchcmp %s (%s) -> %s (%s), thresholds ns %.0f%% / allocs %.0f%%\n",
		oldPath, oldRep.Date, newPath, newRep.Date, threshold, allocThreshold)
	compared, regressions := 0, 0
	for _, name := range names {
		ob := oldRep.Benchmarks[name]
		nb, ok := newRep.Benchmarks[name]
		if !ok {
			fmt.Printf("  %-32s only in %s, skipped\n", name, oldPath)
			continue
		}
		if ob.NsPerOp <= 0 || nb.NsPerOp <= 0 {
			fmt.Printf("  %-32s no ns/op on one side, skipped\n", name)
			continue
		}
		compared++
		delta := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-32s %14.0f -> %14.0f ns/op      %+7.2f%%  %s\n",
			name, ob.NsPerOp, nb.NsPerOp, delta, verdict)
		// Heap-traffic tripwire. Snapshots recorded before -benchmem (or
		// runs without it) carry no allocs/op — that side is skipped,
		// never failed. A recorded 0 is a real baseline: any allocation
		// appearing on a zero-alloc path is a regression by definition.
		if ob.AllocsPerOp == nil || nb.AllocsPerOp == nil {
			continue
		}
		oa, na := *ob.AllocsPerOp, *nb.AllocsPerOp
		var aDelta float64
		regressed := false
		switch {
		case oa > 0:
			aDelta = 100 * (na - oa) / oa
			regressed = aDelta > allocThreshold
		case na > 0: // 0 -> N: infinite relative growth
			aDelta = math.Inf(1)
			regressed = true
		}
		aVerdict := "ok"
		if regressed {
			aVerdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-32s %14.0f -> %14.0f allocs/op  %+7.2f%%  %s\n",
			name, oa, na, aDelta, aVerdict)
	}
	for name := range newRep.Benchmarks {
		if re.MatchString(name) {
			if _, ok := oldRep.Benchmarks[name]; !ok {
				fmt.Printf("  %-32s new in %s (no baseline)\n", name, newPath)
			}
		}
	}
	breaches := checkCeilings(newRep, ceilings)
	changed := checkInvariants(oldRep, newRep)
	if compared == 0 && breaches == 0 && changed == 0 {
		fmt.Println("  no common benchmarks match the pattern; nothing to compare")
		return nil
	}
	if regressions > 0 || breaches > 0 || changed > 0 {
		return fmt.Errorf("%d regression(s) beyond threshold, %d absolute alloc budget breach(es) across %d compared benchmarks, and %d changed paper invariant(s)",
			regressions, breaches, compared, changed)
	}
	fmt.Printf("  %d benchmarks within threshold\n", compared)
	return nil
}

func load(path string) (report, error) {
	var rep report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s holds no benchmarks", path)
	}
	return rep, nil
}
