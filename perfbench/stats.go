package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"malevade/internal/obs"
)

// percentile returns the q-th percentile (0 < q ≤ 100) of latencies by the
// nearest-rank rule: the smallest value with at least q% of the sample at or
// below it. A failed operation is recorded as +Inf, so failures count as
// missing every latency limit rather than vanishing from the sample.
func percentile(latencies []float64, q float64) float64 {
	if len(latencies) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the middle value (the mean of the two middle values for an even
// count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// seriesKey names one exposition series: the metric name plus its labels in
// sorted order, so the same series keys identically in two scrapes.
func seriesKey(s obs.Sample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	names := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// metricDeltas parses two /metrics scrapes with obs.ParseText and returns
// after−before for every series present in the second. A series absent from
// the first counts from zero (a histogram born during the phase). Counters,
// and a histogram's _bucket, _sum and _count series, are all cumulative, so
// their deltas are what the phase added.
func metricDeltas(before, after []byte) (map[string]float64, error) {
	b, err := obs.ParseText(before)
	if err != nil {
		return nil, fmt.Errorf("parse first scrape: %w", err)
	}
	a, err := obs.ParseText(after)
	if err != nil {
		return nil, fmt.Errorf("parse second scrape: %w", err)
	}
	base := make(map[string]float64, len(b))
	for _, s := range b {
		base[seriesKey(s)] = s.Value
	}
	out := make(map[string]float64, len(a))
	for _, s := range a {
		k := seriesKey(s)
		out[k] = s.Value - base[k]
	}
	return out, nil
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS restarts the VmHWM high-water mark from the current resident
// set (Linux's clear_refs code 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
