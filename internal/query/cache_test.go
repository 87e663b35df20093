package query

import (
	"math"
	"strings"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/obs"
)

func cacheResult(candidates int) *Result {
	return &Result{
		Strategy:        All,
		CandidateMicros: candidates,
		Macros:          []*cluster.Cluster{{ID: 1}},
		Significant:     []*cluster.Cluster{{ID: 1}},
	}
}

// The LRU contract: hits refresh recency, capacity evicts the coldest key,
// and every transition lands in Stats and the bound metric families.
func TestAnswerCacheLRUAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewAnswerCache(2)
	c.BindMetrics(reg)

	if _, _, ok := c.get("a", 1, 0); ok {
		t.Fatal("empty cache claimed a hit")
	}
	c.put("a", 1, 0, 10, cacheResult(1))
	c.put("b", 1, 0, 10, cacheResult(2))
	if res, sensors, ok := c.get("a", 1, 0); !ok || sensors != 10 || res.CandidateMicros != 1 {
		t.Fatalf("get(a) = %+v, %d, %v", res, sensors, ok)
	}
	// "b" is now coldest; inserting "c" evicts it.
	c.put("c", 1, 0, 10, cacheResult(3))
	if _, _, ok := c.get("b", 1, 0); ok {
		t.Fatal("LRU kept the coldest entry")
	}
	if _, _, ok := c.get("c", 1, 0); !ok {
		t.Fatal("fresh entry missing")
	}
	hits, misses, evictions := c.Stats()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2 hits, 2 misses, 1 eviction", hits, misses, evictions)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"atyp_query_cache_hits_total":      2,
		"atyp_query_cache_misses_total":    2,
		"atyp_query_cache_evictions_total": 1,
	} {
		if v, ok := snap.Value(name); !ok || v != want {
			t.Errorf("%s = %v (present=%v), want %v", name, v, ok, want)
		}
	}
}

// A version mismatch drops the entry (one eviction) and reports a miss —
// the AppendDay invalidation path.
func TestAnswerCacheVersionStale(t *testing.T) {
	c := NewAnswerCache(4)
	c.put("a", 1, 0, 10, cacheResult(1))
	if _, _, ok := c.get("a", 2, 0); ok {
		t.Fatal("stale version served")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry retained: len=%d", c.Len())
	}
	_, misses, evictions := c.Stats()
	if misses != 1 || evictions != 1 {
		t.Fatalf("stale lookup counted %d misses, %d evictions; want 1, 1", misses, evictions)
	}
}

// A severity-generation mismatch drops the entry exactly like a forest
// version mismatch — the stamp that retires answers computed over a
// severity state that changed without a forest bump (the ingest
// AppendDay→AddDays window, RebuildSeverity).
func TestAnswerCacheSeverityGenStale(t *testing.T) {
	c := NewAnswerCache(4)
	c.put("a", 1, 7, 10, cacheResult(1))
	if _, _, ok := c.get("a", 1, 7); !ok {
		t.Fatal("matching stamps missed")
	}
	if _, _, ok := c.get("a", 1, 8); ok {
		t.Fatal("severity-stale entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("severity-stale entry retained: len=%d", c.Len())
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1 hit, 1 miss, 1 eviction", hits, misses, evictions)
	}
}

// The ingest-race regression: a Guided answer cached against one severity
// state must not be replayed after the severity index changes under an
// unchanged forest version. Before the severity generation stamp, this
// sequence (severity write with no AppendDay — exactly what a query racing
// ingest's AppendDay→AddDays window produces, and what RebuildSeverity does
// wholesale) served the first answer as fresh forever.
func TestEngineCacheInvalidatedBySeverityChange(t *testing.T) {
	e, spec := pipeline(t, 30, 3)
	e.Cache = NewAnswerCache(8)
	q := CityQuery(e.Net, spec, 0, 3, 0.02)

	first := run(t, e, q, Gui)
	if hits, misses, _ := e.Cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("first run stats = %d hits/%d misses, want 0/1", hits, misses)
	}
	second := run(t, e, q, Gui)
	if hits, _, _ := e.Cache.Stats(); hits != 1 {
		t.Fatal("repeat run did not hit the cache")
	}
	if second.RedZones != first.RedZones || len(second.Significant) != len(first.Significant) {
		t.Fatal("cache hit changed the answer")
	}

	// Severity changes, forest version does not: the cached Guided answer
	// must be retired, not replayed.
	e.Severity.Add([]cps.Record{{Sensor: 0, Window: 0, Severity: 1}})
	run(t, e, q, Gui)
	hits, misses, evictions := e.Cache.Stats()
	if hits != 1 || misses != 2 || evictions != 1 {
		t.Fatalf("post-severity-change stats = %d/%d/%d, want 1 hit, 2 misses, 1 eviction", hits, misses, evictions)
	}
}

// Partial results must never be stored, nil caches are inert, and returned
// results are slice copies the caller may mutate freely.
func TestAnswerCacheSafety(t *testing.T) {
	var nilCache *AnswerCache
	nilCache.put("a", 1, 0, 10, cacheResult(1))
	if _, _, ok := nilCache.get("a", 1, 0); ok {
		t.Fatal("nil cache served an answer")
	}
	nilCache.Clear()
	if h, m, e := nilCache.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatal("nil cache has stats")
	}
	if NewAnswerCache(0) != nil {
		t.Fatal("zero-entry cache not disabled")
	}

	c := NewAnswerCache(2)
	partial := cacheResult(1)
	partial.Partial = true
	partial.FailedShards = []string{"shard1"}
	c.put("p", 1, 0, 10, partial)
	if _, _, ok := c.get("p", 1, 0); ok {
		t.Fatal("partial result was cached")
	}

	c.put("a", 1, 0, 10, cacheResult(5))
	got, _, _ := c.get("a", 1, 0)
	got.Significant = got.Significant[:0] // caller truncates its copy
	again, _, _ := c.get("a", 1, 0)
	if len(again.Significant) != 1 {
		t.Fatal("caller mutation corrupted the cached answer")
	}
}

// FuzzCanonicalKeyCollisionFree drives random query pairs through
// CanonicalKey: equal keys must mean semantically equal queries (strategy,
// window, δs bits, region sequence), and equal queries must agree on key —
// the no-collision contract the answer cache's correctness rests on.
func FuzzCanonicalKeyCollisionFree(f *testing.F) {
	f.Add(int16(0), int16(96), 0.02, uint8(0), uint8(3), int16(10), int16(200), 0.02, uint8(1), uint8(3))
	f.Add(int16(5), int16(5), 0.0, uint8(2), uint8(0), int16(5), int16(5), 0.0, uint8(2), uint8(0))
	f.Add(int16(-3), int16(7), -0.5, uint8(1), uint8(8), int16(3), int16(7), 0.5, uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, from1, to1 int16, d1 float64, s1, n1 uint8,
		from2, to2 int16, d2 float64, s2, n2 uint8) {
		mk := func(from, to int16, d float64, s, n uint8) (Query, Strategy) {
			regions := make([]geo.RegionID, int(n)%9)
			for i := range regions {
				// Region sequences derived from the same (seed, length) pair
				// collide across the two queries exactly when the inputs
				// agree — what the equality check below expects.
				regions[i] = geo.RegionID(int(s)+i*int(n)) % 16
			}
			q := Query{
				Regions: regions,
				Time:    cps.TimeRange{From: cps.Window(from), To: cps.Window(to)},
				DeltaS:  d,
			}
			return q, Strategy(s % 3)
		}
		qa, sa := mk(from1, to1, d1, s1, n1)
		qb, sb := mk(from2, to2, d2, s2, n2)
		ka, kb := CanonicalKey(qa, sa), CanonicalKey(qb, sb)

		// δs identity is the bit pattern, not ==: the key must separate
		// -0.0 from +0.0 (different bounds are conceivable) and must unify
		// identical NaN payloads.
		same := sa == sb && qa.Time == qb.Time &&
			math.Float64bits(qa.DeltaS) == math.Float64bits(qb.DeltaS) &&
			len(qa.Regions) == len(qb.Regions)
		if same {
			for i := range qa.Regions {
				if qa.Regions[i] != qb.Regions[i] {
					same = false
					break
				}
			}
		}
		if same && ka != kb {
			t.Fatalf("equal queries, different keys:\n%q\n%q", ka, kb)
		}
		if !same && ka == kb {
			t.Fatalf("distinct queries collided on key %q:\n%+v %v\n%+v %v", ka, qa, sa, qb, sb)
		}
		if strings.Count(ka, "|") != 4 {
			t.Fatalf("key %q lost its field structure", ka)
		}
	})
}
