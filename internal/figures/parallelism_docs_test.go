package figures

// Documentation-drift check for the sharded kernel, the same pattern
// internal/sweep uses for docs/SWEEP.md: docs/PARALLELISM.md is the schema
// of record for every sim_* metric the kernel exports and for the -shards
// flag. These tests fail when code and document diverge in either
// direction.

import (
	"os"
	"strings"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// shardRegistry runs one instrumented sharded figure and returns its
// registry, so the drift tests measure what a real -shards run exports.
func shardRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	_, err := Contention(ContentionConfig{
		Kind: core.FCG, Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 4,
		Shards: 4, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

func TestEveryShardMetricIsDocumented(t *testing.T) {
	doc := readDoc(t, "../../docs/PARALLELISM.md")
	var simNames []string
	for _, name := range shardRegistry(t).Names() {
		if strings.HasPrefix(name, "sim_") {
			simNames = append(simNames, name)
		}
	}
	if len(simNames) < 6 {
		t.Fatalf("sharded run exported only %d sim_* names; the drift workload regressed: %v", len(simNames), simNames)
	}
	for _, name := range simNames {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %q is emitted but not documented in docs/PARALLELISM.md", name)
		}
	}
}

// TestParallelismDocsCoverEmittedNames is the inverse check: every
// documented sim_* name must actually be emitted, so the drift test cannot
// rot into vacuity.
func TestParallelismDocsCoverEmittedNames(t *testing.T) {
	have := map[string]bool{}
	for _, n := range shardRegistry(t).Names() {
		have[n] = true
	}
	for _, want := range []string{
		"sim_shards", "sim_windows_total", "sim_serial_instants_total",
		"sim_idle_lane_windows_total", "sim_lane_events_total",
		"sim_shard_utilization",
	} {
		if !have[want] {
			t.Errorf("documented metric %q not emitted by the drift workload", want)
		}
	}
}

// TestParallelismDocsPinTheKnobs: the flag spelling and API names that
// consumers depend on are stated verbatim in the document.
func TestParallelismDocsPinTheKnobs(t *testing.T) {
	doc := readDoc(t, "../../docs/PARALLELISM.md")
	for _, want := range []string{
		"`-shards`",           // the CLI flag every driver exposes
		"armci.Config.Shards", // the API knob
		"ConfigureShards",     // the kernel entry point
		"(time, seq, origin)", // the ordering key of the contract
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/PARALLELISM.md does not pin %q", want)
		}
	}
}

// TestParallelismDocsLinked: the document exists and is reachable from the
// README and from the sibling documents it cross-references.
func TestParallelismDocsLinked(t *testing.T) {
	readme := readDoc(t, "../../README.md")
	if !strings.Contains(readme, "docs/PARALLELISM.md") {
		t.Error("README.md does not link docs/PARALLELISM.md")
	}
	arch := readDoc(t, "../../docs/ARCHITECTURE.md")
	if !strings.Contains(arch, "PARALLELISM.md") {
		t.Error("docs/ARCHITECTURE.md does not link docs/PARALLELISM.md")
	}
}
