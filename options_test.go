package atypical

import (
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
)

func TestNewSystemOptions(t *testing.T) {
	mk := func(mutate func(*Config), options ...Option) *System {
		t.Helper()
		cfg := testConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		sys, err := NewSystem(cfg, options...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// The balance function defaults to arithmetic; the typed option
	// selects another.
	if sys := mk(nil); sys.balance != cluster.Arithmetic {
		t.Errorf("default balance = %v, want arithmetic", sys.balance)
	}
	sys := mk(nil, WithBalance(BalanceMax))
	if sys.balance != cluster.Max {
		t.Errorf("WithBalance gave %v, want max", sys.balance)
	}

	// Worker plumbing: Config.Workers and WithWorkers drive construction
	// only; query filtering stays serial unless WithQueryWorkers opts in.
	if sys := mk(nil); sys.workers != 0 || sys.queryWorkers != 0 {
		t.Errorf("default workers = %d/%d, want 0/0 (serial)", sys.workers, sys.queryWorkers)
	}
	if sys := mk(func(c *Config) { c.Workers = 3 }); sys.workers != 3 || sys.queryWorkers != 0 {
		t.Errorf("Config.Workers=3 gave %d/%d, want 3/0", sys.workers, sys.queryWorkers)
	}
	if sys := mk(func(c *Config) { c.Workers = 3 }, WithWorkers(5)); sys.workers != 5 || sys.queryWorkers != 0 {
		t.Errorf("WithWorkers(5) gave %d/%d, want 5/0", sys.workers, sys.queryWorkers)
	}
	sys = mk(nil, WithWorkers(5), WithQueryWorkers(2))
	if sys.workers != 5 || sys.queryWorkers != 2 {
		t.Errorf("WithWorkers(5)+WithQueryWorkers(2) gave %d/%d", sys.workers, sys.queryWorkers)
	}
	if sys.engine.Workers != 2 {
		t.Errorf("engine workers = %d, want 2", sys.engine.Workers)
	}
	// WithQueryWorkers(0) keeps query filtering serial while ingestion fans
	// out.
	if sys := mk(nil, WithWorkers(5), WithQueryWorkers(0)); sys.engine.Workers != 0 {
		t.Errorf("WithQueryWorkers(0) gave engine workers %d", sys.engine.Workers)
	}
}

func TestParseBalanceFacade(t *testing.T) {
	b, err := ParseBalance("geometric")
	if err != nil {
		t.Fatal(err)
	}
	if b != BalanceGeometric {
		t.Errorf("ParseBalance(geometric) = %v, want %v", b, BalanceGeometric)
	}
	if _, err := ParseBalance("nonsense"); err == nil {
		t.Error("bogus balance name accepted")
	}
}
