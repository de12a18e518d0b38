package drift

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata")

// TestMetricsExpositionGolden pins the drift controller's /metrics
// collector from fixed per-system state, with no traffic or training.
func TestMetricsExpositionGolden(t *testing.T) {
	svc := serve.NewService(serve.NewRegistry(), serve.Options{MaxBatch: 1, MaxDelay: time.Millisecond})
	t.Cleanup(svc.Close)
	c := New(svc, testConfig())
	t.Cleanup(c.Close)

	theta := c.state("theta")
	theta.windowsTotal = 7
	theta.observedTotal = 4200
	theta.feedbackTotal = 96
	theta.psiMax = 0.3125
	theta.ksMax = 0.21875
	theta.lastErrMAE = 0.4375
	theta.lastNoiseMAE = 0.125
	theta.staged = 3
	theta.bufRows = make([][]float64, 5)
	theta.signals["psi"] = 2
	theta.signals["error"] = 1
	theta.retrains["started"] = 1
	theta.retrains["published"] = 1
	theta.actions["stage"] = 1
	theta.actions["hold"] = 4

	cori := c.state("cori")
	cori.windowsTotal = 2
	cori.observedTotal = 310
	cori.ksMax = 0.0625

	var buf bytes.Buffer
	if err := obs.WritePromText(&buf, c.Families()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s mismatch (rerun with -update to accept):\n--- got\n%s\n--- want\n%s", path, buf.Bytes(), want)
	}
}
