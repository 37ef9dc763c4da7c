package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"malevade/internal/obs"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	// 100 operations: 1..95 ms answered, 5 failed.
	var lat []float64
	for i := 95; i >= 1; i-- {
		lat = append(lat, float64(i))
	}
	lat = append(lat, inf, inf, inf, inf, inf)
	for _, c := range []struct{ q, want float64 }{
		{50, 50}, {90, 90}, {95, 95}, {96, inf}, {100, inf}, {0.5, 1},
	} {
		if got := percentile(lat, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	// With 11 of 100 failed, p90 lands on a failure: failures miss every
	// latency limit instead of vanishing from the sample.
	var lat2 []float64
	for i := 1; i <= 89; i++ {
		lat2 = append(lat2, float64(i))
	}
	for i := 0; i < 11; i++ {
		lat2 = append(lat2, inf)
	}
	if got := percentile(lat2, 90); got != inf {
		t.Errorf("p90 with 11%% failed = %v, want +Inf", got)
	}
	if got := percentile(lat2, 50); got != 50 {
		t.Errorf("p50 with 11%% failed = %v, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestMetricDeltasCountersAndHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("malevade_test_total", "Test counter.")
	vec := reg.CounterVec("malevade_test_by_kind_total", "Test counter vector.", "kind")
	h := reg.Histogram("malevade_test_seconds", "Test histogram.", []float64{0.001, 0.01})
	c.Add(5)
	vec.With("a").Add(2)
	h.Observe(0.0005)
	scrape := func() []byte {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := scrape()
	c.Add(3)
	vec.With("a").Add(1)
	vec.With("b").Add(4) // a series born between the scrapes
	h.Observe(0.002)
	h.Observe(0.02)
	after := scrape()

	d, err := metricDeltas(before, after)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"malevade_test_total":                      3,
		`malevade_test_by_kind_total{kind="a"}`:    1,
		`malevade_test_by_kind_total{kind="b"}`:    4,
		"malevade_test_seconds_count":              2,
		`malevade_test_seconds_bucket{le="0.001"}`: 0,
		`malevade_test_seconds_bucket{le="0.01"}`:  1,
		`malevade_test_seconds_bucket{le="+Inf"}`:  2,
	} {
		got, ok := d[key]
		if !ok {
			t.Errorf("no delta for %s (have %v)", key, d)
			continue
		}
		if got != want {
			t.Errorf("delta %s = %v, want %v", key, got, want)
		}
	}
	if got := d["malevade_test_seconds_sum"]; math.Abs(got-0.022) > 1e-12 {
		t.Errorf("histogram sum delta = %v, want 0.022", got)
	}
	if _, err := metricDeltas([]byte("not an exposition line with {"), after); err == nil {
		t.Error("unparseable scrape accepted")
	}
}

func TestScaledRescalesEveryTime(t *testing.T) {
	inf := math.Inf(1)
	p := phase{lat: []float64{2, 4, inf}, rows: 30, failed: 1, wall: 3 * time.Second}
	q := p.scaled(0.5)
	if q.lat[0] != 1 || q.lat[1] != 2 || q.lat[2] != inf {
		t.Errorf("scaled latencies = %v, want [1 2 +Inf]", q.lat)
	}
	if q.wall != 1500*time.Millisecond || q.rowsPerSec() != 20 {
		t.Errorf("scaled wall %v, rows/s %v; want 1.5s, 20", q.wall, q.rowsPerSec())
	}
	if q.rows != 30 || q.failed != 1 || p.lat[0] != 2 {
		t.Errorf("scaled changed counts or its input: %+v from %+v", q, p)
	}
}
