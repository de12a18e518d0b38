package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapshot writes a minimal BENCH_*.json with one serving benchmark and
// the paper-figure metrics, Fig1a's best error set to bestErr.
func snapshot(t *testing.T, name, bestErr string) string {
	t.Helper()
	body := `{"date":"2026-01-01T00:00:00Z","benchmarks":{
  "ServeBatch16":{"iterations":1,"ns_per_op":1000,"allocs_per_op":21},
  "Fig1a":{"iterations":1,"ns_per_op":5,"metrics":{"best_err_%":` + bestErr + `,"default_err_%":14.05}},
  "Fig3":{"iterations":1,"ns_per_op":5,"metrics":{"posix_test_err_%":11.77}},
  "ModelZoo":{"iterations":1,"ns_per_op":5,"metrics":{"floor_%":7.613,"ridge_err_%":14.96}}}}`
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFailsOnChangedPaperInvariant(t *testing.T) {
	old := snapshot(t, "old.json", "11.9")
	err := run(old, snapshot(t, "new.json", "11.91"), "Serve|Predict", 10, 10, nil)
	if err == nil || !strings.Contains(err.Error(), "1 changed paper invariant") {
		t.Fatalf("changed Fig1a best_err_%%: err = %v, want an invariant failure", err)
	}
	if err := run(old, snapshot(t, "same.json", "11.9"), "Serve|Predict", 10, 10, nil); err != nil {
		t.Fatalf("identical invariants: %v", err)
	}
	// The invariants are gated even when -pattern selects nothing else.
	if err := run(old, snapshot(t, "new2.json", "12"), "NoSuchBenchmark", 10, 10, nil); err == nil {
		t.Fatal("changed invariant passed under a pattern matching no benchmark")
	}
}
