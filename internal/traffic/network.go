// Package traffic models the road-network substrate of the paper's
// evaluation deployment: highways carrying loop-detector sensors at fixed
// mileposts, mapped onto pre-defined spatial regions.
//
// The paper's PeMS deployment covers Los Angeles and Ventura with ~4,076
// sensors on 38 highways (Section V). GenerateNetwork reproduces that shape
// deterministically and at configurable scale: a mix of east-west,
// north-south and diagonal highways across an LA-sized bounding box, sensors
// every ~half mile, and a zipcode-like grid hierarchy from package geo.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
)

// Direction is the travel direction of a highway.
type Direction uint8

// Highway directions. Paired freeways (e.g., 10E/10W in the paper's Example
// 2) are modeled as two distinct highways sharing a corridor.
const (
	East Direction = iota
	West
	North
	South
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	default:
		return "?"
	}
}

// HighwayID identifies a highway within a network.
type HighwayID uint16

// Highway is one directed freeway represented as a polyline.
type Highway struct {
	ID   HighwayID
	Name string // e.g. "I-10E"
	Dir  Direction
	// Path is the polyline of the highway; sensors sit on it.
	Path []geo.Point
	// Sensors holds the ids of the sensors on this highway ordered by
	// milepost (ascending).
	Sensors []cps.SensorID
}

// Sensor is one physical detector.
type Sensor struct {
	ID       cps.SensorID
	Highway  HighwayID
	MilePost float64 // distance along the highway, miles
	Loc      geo.Point
	Region   geo.RegionID
}

// Network is the full topology: highways, sensors, and the pre-defined
// region grid, with the sensor → region map the paper assumes (Section
// II-A: "with the help of a topology graph mapping the sensors to different
// regions, the spatial coverage can be represented by a set of sensors").
type Network struct {
	Highways []Highway
	Sensors  []Sensor // indexed by SensorID
	Grid     *geo.Grid

	sensorsByRegion map[geo.RegionID][]cps.SensorID
}

// NumSensors returns the number of sensors in the network.
func (n *Network) NumSensors() int { return len(n.Sensors) }

// Sensor returns the sensor with the given id. It panics on unknown ids,
// which indicate corrupted input data.
func (n *Network) Sensor(id cps.SensorID) Sensor { return n.Sensors[id] }

// SensorsInRegion returns the sensors located in region r, ascending.
func (n *Network) SensorsInRegion(r geo.RegionID) []cps.SensorID {
	return n.sensorsByRegion[r]
}

// SensorsInBox returns all sensors whose location falls inside box,
// ascending by id.
func (n *Network) SensorsInBox(box geo.BBox) []cps.SensorID {
	var out []cps.SensorID
	for _, s := range n.Sensors {
		if box.Contains(s.Loc) {
			out = append(out, s.ID)
		}
	}
	return out
}

// Distance returns the great-circle distance in miles between two sensors.
func (n *Network) Distance(a, b cps.SensorID) float64 {
	return geo.DistanceMiles(n.Sensors[a].Loc, n.Sensors[b].Loc)
}

// NeighborsOnHighway returns up to k sensors adjacent to s on the same
// highway in milepost order (k/2 on each side where available). Used by the
// workload generator to diffuse congestion along the road.
func (n *Network) NeighborsOnHighway(s cps.SensorID, k int) []cps.SensorID {
	hw := n.Highways[n.Sensors[s].Highway]
	idx := -1
	for i, id := range hw.Sensors {
		if id == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	lo := idx - k/2
	if lo < 0 {
		lo = 0
	}
	hi := idx + k/2 + 1
	if hi > len(hw.Sensors) {
		hi = len(hw.Sensors)
	}
	out := make([]cps.SensorID, 0, hi-lo-1)
	for i := lo; i < hi; i++ {
		if hw.Sensors[i] != s {
			out = append(out, hw.Sensors[i])
		}
	}
	return out
}

// Upstream returns the sensor one milepost step before s on its highway, or
// s itself at the highway start. Congestion propagates upstream (the queue
// grows backwards from the bottleneck).
func (n *Network) Upstream(s cps.SensorID) cps.SensorID {
	hw := n.Highways[n.Sensors[s].Highway]
	for i, id := range hw.Sensors {
		if id == s {
			if i == 0 {
				return s
			}
			return hw.Sensors[i-1]
		}
	}
	return s
}

// Config parameterizes GenerateNetwork.
type Config struct {
	// Box is the deployment area. Defaults to an LA+Ventura-sized box.
	Box geo.BBox
	// Highways is the number of directed highways. The paper's deployment
	// has 38.
	Highways int
	// SensorSpacingMiles is the distance between consecutive sensors on a
	// highway. PeMS detectors sit roughly every half mile.
	SensorSpacingMiles float64
	// GridRows/GridCols partition the box into pre-defined regions
	// (zipcode stand-ins); DistrictRows/Cols group them.
	GridRows, GridCols         int
	DistrictRows, DistrictCols int
	// Seed drives the deterministic layout jitter.
	Seed int64
}

// DefaultConfig mirrors the paper's deployment at full scale: 38 highways
// over an LA-sized box with ~0.5-mile sensor spacing, which yields roughly
// 4,000 sensors.
func DefaultConfig() Config {
	return Config{
		Box:                geo.BBox{Min: geo.Point{Lat: 33.60, Lon: -119.10}, Max: geo.Point{Lat: 34.45, Lon: -117.65}},
		Highways:           38,
		SensorSpacingMiles: 0.5,
		GridRows:           12, GridCols: 16,
		DistrictRows: 4, DistrictCols: 4,
		Seed: 1,
	}
}

// ScaledConfig returns DefaultConfig shrunk to approximately the given
// number of sensors for tests and laptop-scale benches. Scaling reduces the
// deployment area and highway count while keeping the sensor spacing dense,
// so the δd-connectivity structure of events (sensors ~0.5 miles apart,
// within the paper's 1.5-mile default distance threshold) is preserved at
// every scale.
func ScaledConfig(approxSensors int) Config {
	cfg := DefaultConfig()
	const fullScale = 4076 // the paper's sensor count at default spacing
	if approxSensors <= 0 || approxSensors >= fullScale {
		return cfg
	}
	ratio := float64(approxSensors) / fullScale
	side := math.Sqrt(ratio) // shrink both axes and the highway count
	cfg.Highways = maxI(4, int(float64(cfg.Highways)*side+0.5))
	if cfg.Highways%2 == 1 {
		cfg.Highways++ // keep direction pairs intact
	}
	center := cfg.Box.Center()
	halfLat := (cfg.Box.Max.Lat - cfg.Box.Min.Lat) / 2 * side
	halfLon := (cfg.Box.Max.Lon - cfg.Box.Min.Lon) / 2 * side
	cfg.Box = geo.BBox{
		Min: geo.Point{Lat: center.Lat - halfLat, Lon: center.Lon - halfLon},
		Max: geo.Point{Lat: center.Lat + halfLat, Lon: center.Lon + halfLon},
	}
	cfg.GridRows = maxI(4, int(float64(cfg.GridRows)*side+0.5))
	cfg.GridCols = maxI(4, int(float64(cfg.GridCols)*side+0.5))
	cfg.DistrictRows = maxI(2, cfg.GridRows/3)
	cfg.DistrictCols = maxI(2, cfg.GridCols/4)
	return cfg
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// GenerateNetwork deterministically lays out a synthetic network per cfg.
func GenerateNetwork(cfg Config) *Network {
	if cfg.Highways <= 0 || cfg.SensorSpacingMiles <= 0 {
		panic(fmt.Sprintf("traffic: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	grid := geo.NewGrid(cfg.Box, cfg.GridRows, cfg.GridCols, cfg.DistrictRows, cfg.DistrictCols)
	net := &Network{Grid: grid, sensorsByRegion: make(map[geo.RegionID][]cps.SensorID)}

	latSpan := cfg.Box.Max.Lat - cfg.Box.Min.Lat
	lonSpan := cfg.Box.Max.Lon - cfg.Box.Min.Lon

	for h := 0; h < cfg.Highways; h++ {
		hw := Highway{ID: HighwayID(h)}
		// Alternate between corridor shapes; paired directions share a
		// corridor offset slightly, reproducing 10E/10W-style pairs.
		pair := h / 2
		kind := pair % 3 // 0: east-west, 1: north-south, 2: diagonal
		jitter := (rng.Float64() - 0.5) * 0.02
		frac := (float64(pair%7) + 0.5) / 7 // spread corridors across the box
		offset := 0.004 * float64(h%2)      // separate the two directions
		const steps = 24
		for i := 0; i <= steps; i++ {
			t := float64(i) / steps
			wobble := 0.01 * math.Sin(t*math.Pi*3+float64(pair))
			var p geo.Point
			switch kind {
			case 0:
				p = geo.Point{
					Lat: cfg.Box.Min.Lat + latSpan*frac + wobble + jitter + offset,
					Lon: cfg.Box.Min.Lon + lonSpan*t,
				}
			case 1:
				p = geo.Point{
					Lat: cfg.Box.Min.Lat + latSpan*t,
					Lon: cfg.Box.Min.Lon + lonSpan*frac + wobble + jitter + offset,
				}
			default:
				p = geo.Point{
					Lat: cfg.Box.Min.Lat + latSpan*t + offset,
					Lon: cfg.Box.Min.Lon + lonSpan*(frac*0.6+0.4*t) + wobble + jitter,
				}
			}
			hw.Path = append(hw.Path, p)
		}
		switch {
		case kind == 0 && h%2 == 0:
			hw.Dir, hw.Name = East, fmt.Sprintf("I-%dE", 10+pair*2)
		case kind == 0:
			hw.Dir, hw.Name = West, fmt.Sprintf("I-%dW", 10+pair*2)
		case kind == 1 && h%2 == 0:
			hw.Dir, hw.Name = North, fmt.Sprintf("SR-%dN", 101+pair*2)
		case kind == 1:
			hw.Dir, hw.Name = South, fmt.Sprintf("SR-%dS", 101+pair*2)
		case h%2 == 0:
			hw.Dir, hw.Name = North, fmt.Sprintf("US-%dN", 201+pair*2)
		default:
			hw.Dir, hw.Name = South, fmt.Sprintf("US-%dS", 201+pair*2)
		}
		placeSensors(net, &hw, cfg.SensorSpacingMiles)
		net.Highways = append(net.Highways, hw)
	}
	for _, s := range net.Sensors {
		if s.Region != geo.NoRegion {
			net.sensorsByRegion[s.Region] = append(net.sensorsByRegion[s.Region], s.ID)
		}
	}
	for _, ids := range net.sensorsByRegion {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return net
}

// clampOpen clamps v into [lo, hi), the extent of a box on one axis.
func clampOpen(v, lo, hi float64) float64 {
	return min(max(v, lo), math.Nextafter(hi, lo))
}

// placeSensors walks the highway polyline placing a sensor every
// spacingMiles, appending to net.Sensors and hw.Sensors.
func placeSensors(net *Network, hw *Highway, spacingMiles float64) {
	var milepost, carry float64
	for i := 1; i < len(hw.Path); i++ {
		a, b := hw.Path[i-1], hw.Path[i]
		segLen := geo.DistanceMiles(a, b)
		if segLen == 0 {
			continue
		}
		pos := spacingMiles - carry
		for pos <= segLen {
			t := pos / segLen
			// The corridor wobble can carry a path past the deployment box;
			// clamping moves only those sensors, onto the box, so every
			// sensor lies in a region of the grid.
			box := net.Grid.Box
			loc := geo.Point{
				Lat: clampOpen(a.Lat+(b.Lat-a.Lat)*t, box.Min.Lat, box.Max.Lat),
				Lon: clampOpen(a.Lon+(b.Lon-a.Lon)*t, box.Min.Lon, box.Max.Lon),
			}
			id := cps.SensorID(len(net.Sensors))
			net.Sensors = append(net.Sensors, Sensor{
				ID:       id,
				Highway:  hw.ID,
				MilePost: milepost + pos,
				Loc:      loc,
				Region:   net.Grid.Locate(loc),
			})
			hw.Sensors = append(hw.Sensors, id)
			pos += spacingMiles
		}
		carry = segLen - (pos - spacingMiles)
		milepost += segLen
	}
}
