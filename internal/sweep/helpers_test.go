package sweep

import (
	"reflect"
	"testing"
	"time"

	"armcivt/internal/stats"
)

func TestSpeedupVsSerial(t *testing.T) {
	for _, c := range []struct {
		name string
		st   Stats
		want float64
	}{
		{"pool of 4 fully used", Stats{Executed: 8, Wall: 2 * time.Second, SerialWall: 8 * time.Second}, 4},
		{"serial pool", Stats{Executed: 3, Wall: time.Second, SerialWall: time.Second}, 1},
		{"slower than serial", Stats{Executed: 2, Wall: 4 * time.Second, SerialWall: time.Second}, 0.25},
		{"zero wall", Stats{Executed: 5, SerialWall: time.Second}, 0},
		{"negative wall", Stats{Executed: 5, Wall: -time.Second, SerialWall: time.Second}, 0},
		{"nothing executed (all cache hits)", Stats{Points: 4, CacheHits: 4, Wall: time.Second}, 0},
		{"zero stats", Stats{}, 0},
	} {
		if got := c.st.SpeedupVsSerial(); got != c.want {
			t.Errorf("%s: SpeedupVsSerial() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSummaryTable(t *testing.T) {
	header := []string{"series", "mean us", "p50 us", "p99 us", "max us"}
	for _, c := range []struct {
		name   string
		series []*stats.Series
		rows   [][]string
	}{
		{"no series", nil, nil},
		{"empty series summarizes to zeros", []*stats.Series{{Label: "FCG"}},
			[][]string{{"FCG", "0", "0", "0", "0"}}},
		{"one point", []*stats.Series{{Label: "MFCG", X: []float64{1}, Y: []float64{7}}},
			[][]string{{"MFCG", "7", "7", "7", "7"}}},
		{"series keep their order", []*stats.Series{
			{Label: "FCG", X: []float64{1, 2, 3, 4}, Y: []float64{4, 1, 3, 2}},
			{Label: "CFCG", X: []float64{1, 2}, Y: []float64{10, 20}},
		}, [][]string{
			{"FCG", "2.500", "2.500", "3.970", "4"},
			{"CFCG", "15", "15", "19.900", "20"},
		}},
	} {
		tab := SummaryTable("summary: "+c.name, c.series)
		if tab.Title != "summary: "+c.name || !reflect.DeepEqual(tab.Header, header) {
			t.Errorf("%s: title %q, header %v", c.name, tab.Title, tab.Header)
		}
		if !reflect.DeepEqual(tab.Rows, c.rows) {
			t.Errorf("%s: rows %q, want %q", c.name, tab.Rows, c.rows)
		}
	}
}
