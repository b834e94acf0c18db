package main

import "testing"

// TestCheckFlags: flag combinations that would run but silently skip what
// they ask for are rejected; the CI invocations are accepted.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     int
		shards    int
		measure   bool
		maxLiveMB float64
		ok        bool
	}{
		{"no -scale", 0, 1, false, 0, false},
		{"ceiling without -measure", 1024, 1, false, 0.001, false},
		{"-measure on the sharded kernel", 1024, 8, true, 0, false},
		{"plain point", 1024, 1, false, 0, true},
		{"sharded point", 65536, 8, false, 0, true},
		{"CI footprint gate", 16384, 1, true, 256, true},
	} {
		err := checkFlags(tc.scale, tc.shards, tc.measure, tc.maxLiveMB)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
