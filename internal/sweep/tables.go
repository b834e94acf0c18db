package sweep

import (
	"fmt"
	"strings"

	"armcivt/internal/stats"
)

// contentionTitle captions a contention table the way the paper's figures
// do, naming the node count and message size only when the sweep varies
// them.
func contentionTitle(p Point, multiNodes, multiSizes bool) string {
	opName := "vectored put"
	if p.Op == "fadd" {
		opName = "fetch-&-add"
	}
	title := fmt.Sprintf("%s to rank 0, %s", opName, LevelName(p.Level))
	if multiSizes {
		title += fmt.Sprintf(", %dB segments", p.MsgSize)
	}
	if multiNodes {
		title += fmt.Sprintf(", %d nodes", p.Nodes)
	}
	if p.Window > 1 {
		title += fmt.Sprintf(", window %d", p.Window)
	}
	if p.Faults != "" {
		title += fmt.Sprintf(", faults %q", p.Faults)
	}
	return title + " — avg us/op per process rank"
}

// Group is one merged figure of a sweep: the series that share every axis
// value except the series identity (topology/seed/rep), in expansion order.
type Group struct {
	Title      string
	XLabel     string
	Contention bool  // true for series-valued groups that warrant a summary
	Point      Point // first point of the group (the shared axis values)
	Series     []*stats.Series
	Snapshots  []*stats.Table // per-point metrics snapshots, when collected
}

// Groups merges sweep results in expansion order. Failed points are skipped
// (their errors stay in Result.Err for the caller to report); ordering is by
// point index, so the merged output is independent of the worker count.
func Groups(results []Result) []Group {
	nodes, sizes := map[int]bool{}, map[int]bool{}
	for _, r := range results {
		nodes[r.Point.Nodes] = true
		sizes[r.Point.MsgSize] = true
	}
	multiNodes, multiSizes := len(nodes) > 1, len(sizes) > 1

	var order []string
	groups := map[string]*Group{}
	byLab := map[string]map[string]*stats.Series{}
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		e := experiments[r.Point.Experiment]
		key := r.Point.Experiment + "|" + e.group(r.Point)
		g, ok := groups[key]
		if !ok {
			g = &Group{
				Title:      e.title(r.Point, multiNodes, multiSizes),
				XLabel:     e.xLabel,
				Contention: e.x == nil,
				Point:      r.Point,
			}
			groups[key] = g
			byLab[key] = map[string]*stats.Series{}
			order = append(order, key)
		}
		if e.x == nil {
			g.Series = append(g.Series, r.Series())
		} else {
			s, ok := byLab[key][r.Label]
			if !ok {
				s = &stats.Series{Label: r.Label}
				byLab[key][r.Label] = s
				g.Series = append(g.Series, s)
			}
			s.Add(e.x(r.Point), r.Value)
		}
		if r.Snapshot != nil {
			g.Snapshots = append(g.Snapshots, r.Snapshot)
		}
	}
	out := make([]Group, 0, len(order))
	for _, key := range order {
		out = append(out, *groups[key])
	}
	return out
}

// Tables renders every merged group as a figure-compatible table.
func Tables(results []Result) []*stats.Table {
	var out []*stats.Table
	for _, g := range Groups(results) {
		out = append(out, stats.SeriesTable(g.Title, g.XLabel, g.Series))
	}
	return out
}

// SummaryTable condenses a group's series into per-topology mean/p50/p99/max
// rows, the summary block cmd/sweep prints under each contention figure.
func SummaryTable(title string, series []*stats.Series) *stats.Table {
	t := &stats.Table{
		Title:  title,
		Header: []string{"series", "mean us", "p50 us", "p99 us", "max us"},
	}
	for _, s := range series {
		sm := stats.Summarize(s.Y)
		t.AddRow(s.Label, sm.Mean, sm.P50, sm.P99, sm.Max)
	}
	return t
}

// AggComparison is one matched aggregation-off/on pair of contention
// results: the same topology, level, size, node count, window, faults, seed
// and repetition, differing only in Point.Agg.
type AggComparison struct {
	Label   string  // series identity of the pair (the off point's label)
	MeanOff float64 // mean us/op with aggregation off
	MeanOn  float64 // mean us/op with aggregation on
	Speedup float64 // MeanOff / MeanOn (>1 means aggregation won)
}

// CompareAgg matches series-valued results that differ only in the Agg
// toggle and compares mean per-op virtual-time latency. It returns one
// comparison per matched pair plus an error if no pair matched or if any
// aggregated mean exceeds its baseline by more than 1% — the regression
// gate CI runs on the aggregation grid.
func CompareAgg(results []Result) ([]AggComparison, error) {
	off := map[string]Result{}
	pairKey := func(p Point) string {
		p.Index = 0
		p.Agg = ""
		return p.Key()
	}
	for _, r := range results {
		if r.Err != "" || r.Point.Agg == "on" {
			continue
		}
		off[pairKey(r.Point)] = r
	}
	var out []AggComparison
	var failed []string
	for _, r := range results {
		if r.Err != "" || r.Point.Agg != "on" {
			continue
		}
		base, ok := off[pairKey(r.Point)]
		if !ok {
			continue
		}
		cmp := AggComparison{
			Label:   base.Label,
			MeanOff: stats.Summarize(base.Y).Mean,
			MeanOn:  stats.Summarize(r.Y).Mean,
		}
		if cmp.MeanOn > 0 {
			cmp.Speedup = cmp.MeanOff / cmp.MeanOn
		}
		out = append(out, cmp)
		if cmp.MeanOn > cmp.MeanOff*1.01 {
			failed = append(failed, fmt.Sprintf("%s: %.2f us/op aggregated vs %.2f baseline", base.Label, cmp.MeanOn, cmp.MeanOff))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: no aggregation off/on pairs to compare (need agg=off,on in the grid)")
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("sweep: aggregation regressed %d of %d pairs:\n\t%s", len(failed), len(out), strings.Join(failed, "\n\t"))
	}
	return out, nil
}

// Fingerprint returns a stable digest of merged tables, the quantity the
// determinism tests compare across worker counts: it hashes the rendered
// bytes of every table (never wall-clock data).
func Fingerprint(tables []*stats.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		t.Write(&sb)
		sb.WriteByte('\n')
	}
	return sb.String()
}
