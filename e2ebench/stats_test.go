package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileFloor(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{199, 0.95, false, 0},
		{200, 0.95, true, 190},
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{39, 0.75, false, 0},
		{40, 0.75, true, 30},
		{1, 0.5, true, 1}, // the median has no floor
		{9, 0.5, true, 5},
	} {
		v, err := seq(tc.n).percentile(tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err = %v, want ok = %v", tc.q*100, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && v != tc.want {
			t.Errorf("p%g of %d = %v, want %v", tc.q*100, tc.n, v, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := (sample{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := (sample{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := (sample{}).median(); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestTailRowFallsBack(t *testing.T) {
	r := newReport()
	r.tailRow("x_ms", seq(150), 0.95)
	if len(r.rows) != 1 || r.rows[0].name != "x_ms.p90" || r.rows[0].err != nil || r.rows[0].value != 135 {
		t.Fatalf("150 samples: got %+v, want x_ms.p90 = 135", r.rows)
	}
	if !strings.Contains(r.rows[0].note, "x_ms.p95") {
		t.Errorf("note %q does not say why p95 is missing", r.rows[0].note)
	}
	r = newReport()
	r.tailRow("x_ms", seq(20), 0.95)
	if len(r.rows) != 1 || r.rows[0].err == nil {
		t.Fatalf("20 samples: got %+v, want a refused row", r.rows)
	}
}

func iv(from, to int) interval {
	return interval{time.Duration(from), time.Duration(to)}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping counted once", []interval{iv(10, 40), iv(30, 60), iv(35, 45)}, 50},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to the parent", []interval{iv(-50, 10), iv(95, 200)}, 85},
		{"touching", []interval{iv(0, 50), iv(50, 100)}, 0},
		{"outside", []interval{iv(200, 300)}, 100},
	} {
		if got := selfTime(iv(0, 100), tc.children); got != tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "client.batch", ID: 7, Start: 0, End: 100},
		{Name: "router.batch", ID: 7, Start: 10, End: 90},
		{Name: "shard.batch", Start: 20, End: 80}, // no id: never a child
		{Name: "client.upload", ID: 8, Start: 100, End: 200},
		{Name: "router.analyze", ID: 8, Start: 150, End: 170},
	}
	self := selfTimes(spans)
	want := []time.Duration{20, 80, 60, 80, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if got := coverage(spans, "client."); got != 50 {
		t.Errorf("coverage = %v%%, want 50%%", got)
	}
}
