package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
)

// setupRepeats is how many times a run builds its Systems; setup_s is the
// median, so one slow build on a shared host does not move it.
const setupRepeats = 3

// inputs are a workload's generated months, made before any timer starts.
type inputs struct {
	cfg       atypical.Config
	net       *atypical.Network
	months    []*atypical.RecordSet
	records   int
	generateS float64
}

// generate returns the first n months of atypical records for a seed. The
// deployment is DefaultConfig's, so every seed queries the same topology and
// region sizes; the seed drives the events (which corridors congest, when,
// and where incidents strike) and, in the callers, the request lists.
func generate(seed int64, n int) (*inputs, error) {
	start := time.Now()
	cfg := atypical.DefaultConfig()
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	gcfg := gen.DefaultConfig(sys.Network())
	gcfg.Seed = seed
	gcfg.DaysPerMonth = cfg.DaysPerMonth
	g, err := gen.New(gcfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{cfg: cfg, net: sys.Network()}
	for m := 0; m < n; m++ {
		rs := g.Month(m).Atypical
		in.months = append(in.months, rs)
		in.records += rs.Len()
	}
	in.generateS = elapsedSince(start)
	return in, nil
}

// serveOptions are atypserve's default System options — observer, a
// 256-trace span ring, and a 256-entry query log sampling every query — so
// the work production does on every query is timed. extra comes last.
func serveOptions(extra ...atypical.Option) []atypical.Option {
	reg := atypical.NewObserver()
	atypical.RegisterRuntimeMetrics(reg)
	ring := atypical.NewTraceRing(256)
	opts := []atypical.Option{
		atypical.WithWorkers(0),
		atypical.WithQueryWorkers(0),
		atypical.WithObserver(reg),
		atypical.WithSpanExporter(ring.Export),
		atypical.WithQueryLog(atypical.QueryLogConfig{Entries: 256, SampleEvery: 1, Slow: time.Second}),
	}
	return append(opts, extra...)
}

// timeSetups runs build setupRepeats times and returns the median wall time
// in seconds. Every build but the last is released with its closer, so the
// caller keeps exactly one set of Systems.
func timeSetups(build func() (release func(), err error)) (float64, error) {
	times := make([]float64, 0, setupRepeats)
	var release func()
	for i := 0; i < setupRepeats; i++ {
		if release != nil {
			release()
		}
		runtime.GC()
		start := time.Now()
		rel, err := build()
		if err != nil {
			return 0, err
		}
		times = append(times, elapsedSince(start))
		release = rel
	}
	return median(times), nil
}

// heapBytes returns HeapAlloc after a forced collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// request is one entry of a fixed request list.
type request struct {
	req atypical.QueryRequest
	// shape names the request's strategy, range and scope, e.g. "Gui/7d/city".
	shape string
}

// scopes are the spatial scopes the request lists draw from.
var scopes = []string{"city", "district", "region"}

// scopeSets lists the region sets a scope can take: the whole city (nil),
// each district, or each single region; districts and regions without
// sensors are left out so every request covers part of the deployment.
func scopeSets(net *atypical.Network, scope string) [][]geo.RegionID {
	g := net.Grid
	sensors := func(rs []geo.RegionID) int {
		n := 0
		for _, r := range rs {
			n += len(net.SensorsInRegion(r))
		}
		return n
	}
	var out [][]geo.RegionID
	switch scope {
	case "district":
		for d := 0; d < g.NumDistricts(); d++ {
			if rs := g.DistrictRegions(d); sensors(rs) > 0 {
				out = append(out, rs)
			}
		}
	case "region":
		for _, r := range g.Regions() {
			if rs := []geo.RegionID{r.ID}; sensors(rs) > 0 {
				out = append(out, rs)
			}
		}
	default:
		out = append(out, nil)
	}
	return out
}

// requestList builds a seeded list. For each range and scope, replica k
// takes the k-th of `replicas` evenly spaced windows and steps through the
// scope's region sets, both from a seeded offset, and asks that shape under
// every strategy, so strategies are compared on matched shapes. Spacing the
// windows and regions evenly rather than drawing them at random keeps the
// list's cost close across seeds; the seed still moves every window and
// region and the order. The list is then shuffled.
func requestList(rng *rand.Rand, net *atypical.Network, totalDays, replicas int, ranges []int, strategies []atypical.Strategy) []request {
	var out []request
	for _, days := range ranges {
		starts := totalDays - days + 1
		for _, scope := range scopes {
			sets := scopeSets(net, scope)
			dayOff, setOff := rng.Intn(starts), rng.Intn(len(sets))
			for rep := 0; rep < replicas; rep++ {
				first := (dayOff + rep*starts/replicas) % starts
				regions := sets[(setOff+rep*len(sets)/replicas)%len(sets)]
				for _, s := range strategies {
					out = append(out, request{
						req:   atypical.QueryRequest{Regions: regions, FirstDay: first, Days: days, Strategy: s},
						shape: s.String() + "/" + strconv.Itoa(days) + "d/" + scope,
					})
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// digest fingerprints a significant set by features alone: IDs are minted
// per run, so two correct answers agree on features but not on IDs. Each
// cluster's sensor and window keys and exact severity bits are hashed, and
// the per-cluster hashes are combined in sorted order, so the set's order
// does not matter. It is cheap enough to run on every answer of a timed
// loop.
func digest(cs []*cluster.Cluster) uint64 {
	const prime = 1099511628211
	mix := func(h, v uint64) uint64 {
		for k := 0; k < 8; k++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
		return h
	}
	hs := make([]uint64, len(cs))
	for i, c := range cs {
		h := uint64(14695981039346656037)
		for _, e := range c.SF {
			h = mix(mix(h, uint64(e.Key)), math.Float64bits(float64(e.Sev)))
		}
		h = mix(h, math.MaxUint64)
		for _, e := range c.TF {
			h = mix(mix(h, uint64(e.Key)), math.Float64bits(float64(e.Sev)))
		}
		hs[i] = h
	}
	slices.Sort(hs)
	out := uint64(14695981039346656037)
	for _, h := range hs {
		out = mix(out, h)
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// even counts); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between closest
// ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
