package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// combined results A (the base) and B, and flags every fingerprint or exact
// count that differs. It is the tool the "two sets of runs of one commit
// agree" criterion is checked with. Verdicts:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  not worse, but a run's own rep-to-rep spread (interquartile
//	            range over median) is wider than the bound, so "unchanged"
//	            cannot be claimed either
//	differs     an exact metric (simulated result) is not identical
//
// The exit code is 1 if any row is worse or anything exact differs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var a, b result
	if err := readJSON(pathA, &a); err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	if err := readJSON(pathB, &b); err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s  commit %s, seed %d, %s\n", pathA, a.Commit, a.Seed, a.host())
	fmt.Fprintf(w, "B: %s  commit %s, seed %d, %s\n", pathB, b.Commit, b.Seed, b.host())
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB vs A\tbound\tspread A\tspread B\tverdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\tmissing\n", wl.name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			verdict := verdictOf(d, sa, sb)
			if verdict == "worse" || verdict == "differs" {
				bad++
			}
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.Exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%.2f%%\t%.2f%%\t%s\n", wl.name, d.Name, d.Unit,
				sa.Median, sb.Median, worsening(d, sa, sb)*100, bound, sa.spread()*100, sb.spread()*100, verdict)
		}
	}
	tw.Flush()
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(w, "differs: %s fingerprint %s vs %s\n", wl.name, wa.Fingerprint, wb.Fingerprint)
			bad++
		}
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name].Median, wb.PerLayer[d.Name].Median
			if d.Exact && va != vb {
				fmt.Fprintf(w, "differs: %s %s %v vs %v\n", wl.name, d.Name, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d rows worse or different\n", bad)
		return 1
	}
	fmt.Fprintln(w, "the two results agree within the benchmark's bounds")
	return 0
}

// worsening is how much worse B's median is than A's as a share of A's
// (negative: better), whichever direction the metric improves in.
func worsening(d metricDef, a, b summary) float64 {
	if a.Median == 0 {
		return 0
	}
	rel := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

func verdictOf(d metricDef, a, b summary) string {
	switch {
	case d.Exact && a.Median != b.Median:
		return "differs"
	case d.Exact:
		return "ok"
	case worsening(d, a, b) > d.Bound:
		return "worse"
	case a.spread() > d.Bound || b.spread() > d.Bound:
		return "unresolved"
	}
	return "ok"
}
