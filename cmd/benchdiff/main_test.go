package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	const (
		host1   = `"host": {"cores": 2, "gomaxprocs": 2, "go": "go1.22.0"}`
		host4   = `"host": {"cores": 4, "gomaxprocs": 4, "go": "go1.22.0"}`
		base    = `"prepared": [{"query": "Q1", "rows": 1000, "density": 0.001, "mean_run_ns": 1000}], "bulk_load": [{"rows": 1000, "density": 0.001, "rows_per_sec": 5000}]`
		slower  = `"prepared": [{"query": "Q1", "rows": 1000, "density": 0.001, "mean_run_ns": 2000}], "bulk_load": [{"rows": 1000, "density": 0.001, "rows_per_sec": 5000}]`
		within  = `"prepared": [{"query": "Q1", "rows": 1000, "density": 0.001, "mean_run_ns": 1200}], "bulk_load": [{"rows": 1000, "density": 0.001, "rows_per_sec": 4500}]`
		halfQPS = `"prepared": [{"query": "Q1", "rows": 1000, "density": 0.001, "mean_run_ns": 1000}], "bulk_load": [{"rows": 1000, "density": 0.001, "rows_per_sec": 2500}]`
	)
	for _, tc := range []struct {
		name      string
		old, new  string
		regressed int
		want      string
	}{
		{"same host, one point 2x slower", host1 + ", " + base, host1 + ", " + slower, 1, "REGRESSED"},
		{"same host, throughput halved", host1 + ", " + base, host1 + ", " + halfQPS, 1, "REGRESSED"},
		{"same host, within threshold", host1 + ", " + base, host1 + ", " + within, 0, "no regression beyond threshold"},
		{"cores differ", host1 + ", " + base, host4 + ", " + slower, 0, "not comparable: nothing gated"},
		{"baseline without host", base, host1 + ", " + slower, 0, "not comparable: nothing gated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldR, err := parse([]byte("{" + tc.old + "}"))
			if err != nil {
				t.Fatal(err)
			}
			newR, err := parse([]byte("{" + tc.new + "}"))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if got := compare(&out, oldR, newR, "old.json", 0.25); got != tc.regressed {
				t.Errorf("regressed = %d, want %d\n%s", got, tc.regressed, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
			if strings.Contains(tc.want, "not comparable") && strings.Contains(out.String(), "prepared") {
				t.Errorf("a point was compared across hosts:\n%s", out.String())
			}
		})
	}
}
