package traffic

import (
	"math"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
)

func TestGenerateNetworkFullScale(t *testing.T) {
	net := GenerateNetwork(DefaultConfig())
	if len(net.Highways) != 38 {
		t.Fatalf("highways = %d, want 38", len(net.Highways))
	}
	n := net.NumSensors()
	if n < 3000 || n > 6000 {
		t.Errorf("sensors = %d, want ~4000 (paper: 4076)", n)
	}
}

func TestGenerateNetworkDeterministic(t *testing.T) {
	a := GenerateNetwork(DefaultConfig())
	b := GenerateNetwork(DefaultConfig())
	if a.NumSensors() != b.NumSensors() {
		t.Fatal("same config should yield same sensor count")
	}
	for i := range a.Sensors {
		if a.Sensors[i] != b.Sensors[i] {
			t.Fatalf("sensor %d differs between runs", i)
		}
	}
}

func TestScaledConfig(t *testing.T) {
	for _, want := range []int{200, 500, 1000, 2000} {
		net := GenerateNetwork(ScaledConfig(want))
		got := net.NumSensors()
		if got < want/3 || got > want*3 {
			t.Errorf("ScaledConfig(%d) produced %d sensors", want, got)
		}
	}
	// Asking for full scale or more returns the default.
	if cfg := ScaledConfig(10000); cfg.SensorSpacingMiles != DefaultConfig().SensorSpacingMiles {
		t.Error("over-scale request should return default spacing")
	}
}

func TestSensorIDsAreDense(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(500))
	for i, s := range net.Sensors {
		if s.ID != cps.SensorID(i) {
			t.Fatalf("sensor at index %d has id %d", i, s.ID)
		}
	}
}

// TestSensorsLieInBoxAndRegions pins the network invariant the region
// hierarchy (red zones, city-wide queries) relies on: every sensor lies in a
// region of the grid, at every deployment size and seed.
func TestSensorsLieInBoxAndRegions(t *testing.T) {
	for _, size := range []int{50, 120, 150, 250, 400, 800, 2000, 4076} {
		for _, seed := range []int64{1, 2, 3, 42} {
			cfg := ScaledConfig(size)
			cfg.Seed = seed
			net := GenerateNetwork(cfg)
			for _, s := range net.Sensors {
				if s.Region == geo.NoRegion {
					t.Errorf("size %d seed %d: sensor %d at %v lies outside the grid %v", size, seed, s.ID, s.Loc, net.Grid.Box)
					continue
				}
				if !net.Grid.Region(s.Region).Box.Contains(s.Loc) {
					t.Errorf("size %d seed %d: sensor %d region box does not contain its location", size, seed, s.ID)
				}
			}
		}
	}
}

func TestSensorsByRegionConsistent(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(500))
	counted := 0
	for _, r := range net.Grid.Regions() {
		for _, id := range net.SensorsInRegion(r.ID) {
			if net.Sensor(id).Region != r.ID {
				t.Fatalf("sensor %d listed in region %d but located in %d", id, r.ID, net.Sensor(id).Region)
			}
			counted++
		}
	}
	inGrid := 0
	for _, s := range net.Sensors {
		if s.Region != geo.NoRegion {
			inGrid++
		}
	}
	if counted != inGrid {
		t.Errorf("region lists cover %d sensors, want %d", counted, inGrid)
	}
}

func TestMilepostsMonotone(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(500))
	for _, hw := range net.Highways {
		prev := -1.0
		for _, id := range hw.Sensors {
			mp := net.Sensor(id).MilePost
			if mp <= prev {
				t.Fatalf("highway %s milepost not increasing: %f after %f", hw.Name, mp, prev)
			}
			prev = mp
		}
	}
}

func TestConsecutiveSensorSpacing(t *testing.T) {
	cfg := ScaledConfig(1000)
	net := GenerateNetwork(cfg)
	for _, hw := range net.Highways[:4] {
		for i := 1; i < len(hw.Sensors); i++ {
			d := net.Distance(hw.Sensors[i-1], hw.Sensors[i])
			if d > cfg.SensorSpacingMiles*1.6 {
				t.Errorf("highway %s sensors %d-%d are %.2f miles apart (spacing %.2f)",
					hw.Name, i-1, i, d, cfg.SensorSpacingMiles)
			}
		}
	}
}

func TestNeighborsOnHighway(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(500))
	hw := net.Highways[0]
	if len(hw.Sensors) < 5 {
		t.Skip("highway too short for the test")
	}
	mid := hw.Sensors[len(hw.Sensors)/2]
	nb := net.NeighborsOnHighway(mid, 4)
	if len(nb) != 4 {
		t.Fatalf("neighbors = %d, want 4", len(nb))
	}
	for _, id := range nb {
		if id == mid {
			t.Error("neighbor list must exclude the sensor itself")
		}
		if net.Sensor(id).Highway != hw.ID {
			t.Error("neighbor on different highway")
		}
	}
	// At the start of the highway the window is truncated.
	first := hw.Sensors[0]
	nb = net.NeighborsOnHighway(first, 4)
	if len(nb) != 2 {
		t.Errorf("start-of-highway neighbors = %d, want 2", len(nb))
	}
}

func TestUpstream(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(500))
	hw := net.Highways[0]
	if got := net.Upstream(hw.Sensors[0]); got != hw.Sensors[0] {
		t.Error("upstream of the first sensor should be itself")
	}
	if len(hw.Sensors) > 1 {
		if got := net.Upstream(hw.Sensors[1]); got != hw.Sensors[0] {
			t.Errorf("Upstream = %d, want %d", got, hw.Sensors[0])
		}
	}
}

func TestSensorsInBox(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(500))
	all := net.SensorsInBox(net.Grid.Box)
	if len(all) == 0 {
		t.Fatal("no sensors in deployment box")
	}
	half := net.Grid.Box
	half.Max.Lon = (half.Min.Lon + half.Max.Lon) / 2
	some := net.SensorsInBox(half)
	if len(some) == 0 || len(some) >= len(all) {
		t.Errorf("half box has %d of %d sensors", len(some), len(all))
	}
}

func TestDirectionString(t *testing.T) {
	cases := map[Direction]string{East: "E", West: "W", North: "N", South: "S", Direction(9): "?"}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

func TestPairedHighwaysShareCorridor(t *testing.T) {
	net := GenerateNetwork(DefaultConfig())
	// Highways 0 and 1 are the E/W pair of the first corridor; their first
	// path points should be near each other but not identical.
	a, b := net.Highways[0].Path[0], net.Highways[1].Path[0]
	d := geo.DistanceMiles(a, b)
	if d == 0 || d > 5 {
		t.Errorf("paired corridors %.2f miles apart", d)
	}
	if net.Highways[0].Dir == net.Highways[1].Dir {
		t.Error("paired highways should have opposite directions")
	}
}

func TestDistanceMatchesGeo(t *testing.T) {
	net := GenerateNetwork(ScaledConfig(300))
	a, b := net.Sensors[0], net.Sensors[1]
	want := geo.DistanceMiles(a.Loc, b.Loc)
	if got := net.Distance(a.ID, b.ID); math.Abs(got-want) > 1e-12 {
		t.Errorf("Distance = %v, want %v", got, want)
	}
}
