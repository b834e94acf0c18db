package armci

import (
	"strings"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

func TestValidateRejects(t *testing.T) {
	base := func() Config { return DefaultConfig(4, 2) }
	cases := []struct {
		name  string
		tweak func(*Config)
		want  string // substring of the error
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"zero ppn", func(c *Config) { c.PPN = 0 }, "PPN"},
		{"tiny bufsize", func(c *Config) { c.BufSize = 100 }, "BufSize"},
		{"negative bufs", func(c *Config) { c.BufsPerProc = -1 }, "BufsPerProc"},
		{"negative overhead", func(c *Config) { c.CHTBaseOverhead = -sim.Microsecond }, "CHTBaseOverhead"},
		{"negative timeout", func(c *Config) { c.RequestTimeout = -sim.Millisecond }, "RequestTimeout"},
		{"negative credit timeout", func(c *Config) { c.CreditTimeout = -sim.Millisecond }, "CreditTimeout"},
		{"negative retries", func(c *Config) { c.MaxRetries = -2 }, "MaxRetries"},
		{"negative per-byte", func(c *Config) { c.CHTPerByte = -1 }, "CHTPerByte"},
		{"topology mismatch", func(c *Config) { c.Topology = core.MustNew(core.FCG, 5) }, "topology"},
		{"negative congestion threshold",
			func(c *Config) { c.Fabric.CongestionThreshold = -sim.Microsecond }, "Fabric.CongestionThreshold"},
		{"negative pace floor", func(c *Config) { c.Overload.PaceFloor = -sim.Microsecond }, "Overload.PaceFloor"},
		// A floor above the 5 ms ceiling would make the first CE mark clamp
		// its doubled gap to the ceiling, shrinking the gap on congestion.
		{"pace floor above ceiling", func(c *Config) { c.Overload.PaceFloor = 10 * sim.Millisecond }, "Overload.PaceFloor"},
		{"negative budget", func(c *Config) { c.Overload.Budget = -1 }, "Overload.Budget"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.tweak(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid config: %+v", c)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending field %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	c := DefaultConfig(8, 4)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected the default config: %v", err)
	}
}

func TestFaultsEnableResilienceDefaults(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(4, 1)
	cfg.Faults = faults.NewInjector(eng, 4, faults.MustParseSpec("cht:1@t=1ms"))
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.cfg.RequestTimeout != DefaultRequestTimeout {
		t.Errorf("RequestTimeout = %v, want default %v", rt.cfg.RequestTimeout, DefaultRequestTimeout)
	}
	if rt.cfg.CreditTimeout != defaultCreditTimeout {
		t.Errorf("CreditTimeout = %v, want default %v", rt.cfg.CreditTimeout, defaultCreditTimeout)
	}
	if rt.cfg.MaxRetries != defaultMaxRetries {
		t.Errorf("MaxRetries = %d, want default %d", rt.cfg.MaxRetries, defaultMaxRetries)
	}
}

func TestOverloadEnableAppliesDefaults(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(4, 1)
	cfg.Overload.Enabled = true
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ov := rt.cfg.Overload
	if ov.PaceFloor != defaultPaceFloor || ov.Budget != defaultOverloadBudget {
		t.Errorf("PaceFloor/Budget = %v/%d, want defaults %v/%d",
			ov.PaceFloor, ov.Budget, defaultPaceFloor, defaultOverloadBudget)
	}
	if !rt.cfg.Agg.Enabled {
		t.Error("overload protection did not arm aggregation for its coalesce rung")
	}
	if rt.cfg.Fabric.CongestionThreshold != congestionThreshold {
		t.Errorf("fabric marking threshold = %v, want %v",
			rt.cfg.Fabric.CongestionThreshold, congestionThreshold)
	}
}

func TestOverloadDisabledLeavesFabricUnmarked(t *testing.T) {
	eng := sim.New()
	rt, err := New(eng, DefaultConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rt.cfg.Fabric.CongestionThreshold != 0 {
		t.Errorf("overload-off config armed fabric marking: %v", rt.cfg.Fabric.CongestionThreshold)
	}
	if rt.overloadArmed {
		t.Error("overload-off runtime is armed")
	}
}

func TestNoFaultsKeepsResilienceDisabled(t *testing.T) {
	eng := sim.New()
	rt, err := New(eng, DefaultConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rt.cfg.RequestTimeout != 0 || rt.cfg.CreditTimeout != 0 {
		t.Errorf("fault-free config grew timeouts: %v/%v", rt.cfg.RequestTimeout, rt.cfg.CreditTimeout)
	}
}
