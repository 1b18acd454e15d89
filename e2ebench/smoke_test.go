package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Each workload, run briefly through the command, must pass its own checks
// and end its output with the result line: the end-to-end metrics untraced,
// the per-layer metrics traced.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// The command runs from the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	traceOut := filepath.Join(t.TempDir(), "trace.json")

	for _, name := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			code := run(context.Background(), []string{"--workload", name, "--seed", "3", "--seconds", "2",
				"--trace", traced, "--trace-out", traceOut}, &out, io.Discard)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, traced, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]jsonMetric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := e2eMetrics
			if traced == "1" {
				want = layerMetrics
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%s: result %+v", name, traced, res)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || (traced == "0" && m.Value <= 0) {
					t.Errorf("%s trace=%s: metric %s = %+v", name, traced, d.name, m)
				}
			}
		}
	}
	if _, err := os.Stat(traceOut); err != nil {
		t.Errorf("no trace written: %v", err)
	}
}
