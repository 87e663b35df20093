package atypical

import (
	"errors"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
)

func TestNewSystemOptions(t *testing.T) {
	mk := func(options ...Option) *System {
		t.Helper()
		sys, err := NewSystem(testConfig(), options...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// The balance function defaults to arithmetic; the typed option
	// selects another.
	if sys := mk(); sys.balance != cluster.Arithmetic {
		t.Errorf("default balance = %v, want arithmetic", sys.balance)
	}
	sys := mk(WithBalance(BalanceMax))
	if sys.balance != cluster.Max {
		t.Errorf("WithBalance gave %v, want max", sys.balance)
	}

	// WithWorkers is the one worker knob: construction only, serial by
	// default. WithQueryWorkers is a deprecated no-op.
	if sys := mk(); sys.workers != 0 {
		t.Errorf("default workers = %d, want 0 (serial)", sys.workers)
	}
	if sys := mk(WithWorkers(5), WithQueryWorkers(2)); sys.workers != 5 {
		t.Errorf("WithWorkers(5)+WithQueryWorkers(2) gave %d workers, want 5", sys.workers)
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

// ParseStrategy accepts each strategy's short and long name, and nothing
// else: callers with a default substitute it before parsing.
func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"all": IntegrateAll, "pru": Pruned, "pruned": Pruned, "gui": Guided, "guided": Guided,
	} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "Gui", "integrate"} {
		if _, err := ParseStrategy(name); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("ParseStrategy(%q) error = %v, want ErrInvalidRequest", name, err)
		}
	}
}
