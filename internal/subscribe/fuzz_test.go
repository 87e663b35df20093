package subscribe

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/query"
)

// fuzzEnv is built once per process: the deployment is fuzz-invariant, only
// the stream and query parameters vary per input.
var (
	fuzzOnce sync.Once
	fuzzE    *env
)

func fuzzEnvOnce() *env {
	fuzzOnce.Do(func() { fuzzE = newEnv(60) })
	return fuzzE
}

// FuzzStandingQueryEquivalence fuzzes the package's correctness anchor: for
// any finite canonical stream, the events a standing query pushed must equal
// the batch Run answer after flush + rebuild, under both supported
// strategies, arbitrary δs operating points, every balance function, and
// δsim on both sides of 0.5 — the closure's both-keys rule and its
// either-key fallback. δsim is (1 + simRaw%19)/20: simRaw 9 gives the default
// 0.5.
func FuzzStandingQueryEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(150), uint8(1), uint8(5), false, uint8(9), uint8(0))
	f.Add(int64(42), uint16(400), uint8(2), uint8(0), true, uint8(9), uint8(0))
	f.Add(int64(7), uint16(60), uint8(3), uint8(40), false, uint8(9), uint8(0))
	f.Add(int64(3), uint16(500), uint8(2), uint8(1), false, uint8(5), uint8(3))
	f.Add(int64(5), uint16(300), uint8(1), uint8(2), true, uint8(5), uint8(1))
	f.Add(int64(11), uint16(500), uint8(3), uint8(1), false, uint8(13), uint8(4))
	f.Add(int64(13), uint16(300), uint8(2), uint8(3), true, uint8(13), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, daysRaw, dsRaw uint8, pru bool, simRaw, balRaw uint8) {
		e := *fuzzEnvOnce()
		e.opts.SimThreshold = float64(1+simRaw%19) / 20
		e.opts.Balance = cluster.Balances[int(balRaw)%len(cluster.Balances)]
		days := 1 + int(daysRaw%3)
		nrecs := 20 + int(n%600)
		deltaS := 1e-6 + float64(dsRaw%50)/5000
		strat := query.All
		if pru {
			strat = query.Pru
		}
		recs := e.randRecords(rand.New(rand.NewSource(seed)), nrecs, days)
		checkEquivalence(t, &e, recs, days, deltaS, strat)
	})
}
