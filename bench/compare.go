package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// sideStats is one result file's view of one workload: every run's
// value per metric, the inputs' fingerprints, and how many runs the
// noise guard marked unstable.
type sideStats struct {
	values   map[string][]float64
	units    map[string]string
	prints   map[string]bool // one entry per distinct fingerprint set
	unstable int
	runs     int
}

func collect(rf *resultFile) map[string]*sideStats {
	out := map[string]*sideStats{}
	for _, rec := range rf.Runs {
		for _, w := range rec.Workloads {
			s := out[w.Workload]
			if s == nil {
				s = &sideStats{values: map[string][]float64{}, units: map[string]string{}, prints: map[string]bool{}}
				out[w.Workload] = s
			}
			var fp []string
			for _, k := range sortedKeys(w.Fingerprints) {
				fp = append(fp, k+"="+w.Fingerprints[k])
			}
			fp = append(fp, fmt.Sprintf("seed=%d seconds=%d smoke=%t", rec.Seed, rec.Seconds, rec.Smoke))
			s.prints[strings.Join(fp, " ")] = true
			if w.Unstable {
				s.unstable++
			}
			s.runs++
			for name, m := range w.Metrics {
				s.values[name] = append(s.values[name], m.Value)
				s.units[name] = m.Unit
			}
		}
	}
	return out
}

// verdict judges b against a for one metric: how much worse b's median
// is as a share of a's, and whether the runs' own spread is too wide
// for the bound to mean anything.
func verdict(spec metricSpec, a, b []float64) (worse, spread float64, status string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if spec.better == "higher" {
			worse = -worse
		}
	}
	spread = spreadShare(a)
	if s := spreadShare(b); s > spread {
		spread = s
	}
	switch {
	case spec.bound == 0:
		return worse, spread, "-" // per-layer metrics carry no bound
	case spread > spec.bound:
		return worse, spread, "unresolved"
	case worse > spec.bound:
		return worse, spread, "regressed"
	}
	return worse, spread, "ok"
}

// compareFiles prints, per workload and metric, both medians, the
// bound and ok / regressed / unresolved. It refuses to compare runs of
// different inputs. Runs the noise guard marked unstable are counted in
// the workload's heading; whether they widen the spread past the bound
// is what "unresolved" then says. Exit status: 0 all ok, 1 something
// regressed or is unresolved, 3 fingerprints differ, 2 unreadable input.
func compareFiles(pathA, pathB string) int {
	ra, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	rb, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, b := collect(ra), collect(rb)
	names := sortedWorkloadNames(sortedKeys(a))
	code := 0
	for _, w := range names {
		sa, sb := a[w], b[w]
		if sb == nil {
			fmt.Printf("\n%s: only in %s\n", w, pathA)
			continue
		}
		if !sameKeys(sa.prints, sb.prints) {
			fmt.Fprintf(os.Stderr, "bench: %s: the two files ran different inputs (fingerprints, seed or sizing differ); refusing to compare\n", w)
			return 3
		}
		fmt.Printf("\n%s: %d runs vs %d runs", w, sa.runs, sb.runs)
		if sa.unstable+sb.unstable > 0 {
			fmt.Printf(" — the noise guard marked %d and %d of them unstable", sa.unstable, sb.unstable)
		}
		fmt.Printf("\n  %-36s %14s %14s %-6s %8s %8s %7s  %s\n", "metric", "a median", "b median", "unit", "worse", "spread", "bound", "status")
		var metrics []string
		for name := range sa.values {
			if _, ok := sb.values[name]; ok {
				metrics = append(metrics, name)
			}
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			spec := metricSpecs[name]
			worse, spread, status := verdict(spec, sa.values[name], sb.values[name])
			if status == "regressed" || status == "unresolved" {
				code = 1
			}
			fmt.Printf("  %-36s %14.6g %14.6g %-6s %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				name, median(sa.values[name]), median(sb.values[name]), sa.units[name],
				worse*100, spread*100, spec.bound*100, status)
		}
	}
	return code
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
