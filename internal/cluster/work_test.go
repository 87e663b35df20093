package cluster_test

import (
	"context"
	"testing"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// The frontier walk scores the same candidates, in the same order, as a
// walk that restarts from the chain's first list after every merge and
// re-proves each earlier rejection instead of scoring it again; it
// re-proves none. On the city-wide inputs of the first 7, 28 and 84 days
// (seed 1; BenchmarkIntegrateAll28Days and BenchmarkIntegrateAll84Days
// integrate the last two) the merge and similarity-evaluation counts equal
// that walk's, which met far more candidates:
//
//	days  merges  sims     met        re-proofs
//	 7      102     1,801      3,794      1,993
//	28      518    17,837     73,688     55,851
//	84    2,552   129,802  1,217,199  1,087,397
//
// Under Harmonic the frontier goes back to the first list after every
// merge, so that walk is the frontier walk.
func TestIntegrateWorkLongWindows(t *testing.T) {
	cfg := atypical.DefaultConfig()
	cfg.Seed = 1
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestMonthsCtx(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		days    int
		balance cluster.Balance
		inputs  int
		merges  int
		sims    int
	}{
		{7, cluster.Arithmetic, 581, 102, 1801},
		{28, cluster.Arithmetic, 2209, 518, 17837},
		{84, cluster.Arithmetic, 6483, 2552, 129802},
		{28, cluster.Harmonic, 2209, 173, 26765},
		{84, cluster.Harmonic, 6483, 690, 252486},
	} {
		micros := sys.Forest().MicrosInRange(cps.DayRange(sys.Spec(), 0, tc.days))
		opts := sys.Forest().Options()
		opts.Balance = tc.balance
		var gen cluster.IDGen
		_, merges, met, sims := cluster.IntegrateWork(&gen, micros, opts)
		t.Logf("%d days, %v: %d inputs, %d merges, %d met, %d sims", tc.days, tc.balance, len(micros), merges, met, sims)
		if len(micros) != tc.inputs || merges != tc.merges || sims != tc.sims {
			t.Errorf("%d days, %v: %d inputs, %d merges, %d sims; want %d, %d, %d",
				tc.days, tc.balance, len(micros), merges, sims, tc.inputs, tc.merges, tc.sims)
		}
		if reproofs := met - sims; reproofs != 0 {
			t.Errorf("%d days, %v: %d re-proofs, want 0", tc.days, tc.balance, reproofs)
		}
		if 10*met > 11*sims {
			t.Errorf("%d days, %v: %d candidates met for %d evaluations, want at most 1.1×", tc.days, tc.balance, met, sims)
		}
	}
}
