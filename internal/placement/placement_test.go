package placement

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/adf"
	"repro/internal/routing"
	"repro/internal/symbol"
)

// invertADF mirrors the paper's example: three SPARCs and one SP-1 whose
// processors are half price, with the SP-1 behind a cost-2 link.
const invertADF = `APP invert
HOSTS
glen 1 sun4 1
aurora 1 sun4 1
joliet 1 sun4 1
bonnie 128 sp1 sun4*0.5
FOLDERS
0 glen
1 aurora
2 joliet
3-8 bonnie
PROCESSES
0 boss glen
PPC
glen <-> aurora 1
glen <-> joliet 1
glen <-> bonnie 2
`

func mustParse(t testing.TB, src string) *adf.File {
	t.Helper()
	f, err := adf.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func buildMap(t testing.TB, src string, opt Options) *Map {
	t.Helper()
	f := mustParse(t, src)
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(f, routing.Build(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWeightsNormalized(t *testing.T) {
	m := buildMap(t, invertADF, Options{})
	var sum float64
	for _, s := range m.Servers() {
		if s.Weight <= 0 {
			t.Fatalf("server %d weight %g", s.ID, s.Weight)
		}
		sum += s.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", sum)
	}
}

func TestHostSharesMatchPowerRatios(t *testing.T) {
	m := buildMap(t, invertADF, Options{})
	shares := m.HostShares()
	// Powers: glen/aurora/joliet = 1 each, bonnie = 256. Total 259.
	want := map[string]float64{
		"glen":   1.0 / 259,
		"aurora": 1.0 / 259,
		"joliet": 1.0 / 259,
		"bonnie": 256.0 / 259,
	}
	for h, w := range want {
		if math.Abs(shares[h]-w) > 1e-12 {
			t.Errorf("share[%s] = %g want %g", h, shares[h], w)
		}
	}
}

func TestHostShareSplitAcrossServers(t *testing.T) {
	// bonnie's six folder servers each carry 1/6 of bonnie's share.
	m := buildMap(t, invertADF, Options{})
	var bonnieServers []Server
	for _, s := range m.Servers() {
		if s.Host == "bonnie" {
			bonnieServers = append(bonnieServers, s)
		}
	}
	if len(bonnieServers) != 6 {
		t.Fatalf("bonnie servers = %d", len(bonnieServers))
	}
	for _, s := range bonnieServers[1:] {
		if math.Abs(s.Weight-bonnieServers[0].Weight) > 1e-12 {
			t.Fatalf("bonnie servers unequal: %g vs %g", s.Weight, bonnieServers[0].Weight)
		}
	}
}

func TestPlacementDeterministic(t *testing.T) {
	m1 := buildMap(t, invertADF, Options{Lambda: 0.5})
	m2 := buildMap(t, invertADF, Options{Lambda: 0.5})
	for i := 0; i < 500; i++ {
		k := symbol.K(symbol.Named(fmt.Sprintf("f%d", i)), uint32(i))
		a := m1.Place(k)
		b := m2.Place(k)
		if a.ID != b.ID {
			t.Fatalf("key %v placed at %d and %d by identical maps", k, a.ID, b.ID)
		}
	}
}

func TestPlaceHashAgreesWithPlace(t *testing.T) {
	m := buildMap(t, invertADF, Options{})
	k := symbol.K(7, 1, 2)
	if m.Place(k).ID != m.PlaceHash(k.Hash()).ID {
		t.Fatal("Place and PlaceHash disagree")
	}
}

func TestObservedSharesTrackIntended(t *testing.T) {
	// Hash 100k distinct keys; per-host observed frequency must be within
	// 10% relative (or 0.5 point absolute) of the intended share. This is
	// the E4 claim at unit-test scale.
	m := buildMap(t, invertADF, Options{})
	const n = 100000
	got := make(map[string]int)
	for i := 0; i < n; i++ {
		k := symbol.K(symbol.Named(fmt.Sprintf("folder-%d", i/16)), uint32(i%16))
		got[m.Place(k).Host]++
	}
	for host, share := range m.HostShares() {
		obs := float64(got[host]) / n
		if math.Abs(obs-share) > 0.1*share+0.005 {
			t.Errorf("host %s: observed %.4f intended %.4f", host, obs, share)
		}
	}
}

func TestUniformBaselineIgnoresPower(t *testing.T) {
	f := mustParse(t, invertADF)
	m, err := Uniform(f)
	if err != nil {
		t.Fatal(err)
	}
	shares := m.HostShares()
	// 9 servers: glen/aurora/joliet 1 each, bonnie 6 → bonnie gets 6/9 ≈
	// 0.667, nowhere near its 0.988 power share.
	if math.Abs(shares["bonnie"]-6.0/9) > 1e-12 {
		t.Fatalf("uniform bonnie share = %g want %g", shares["bonnie"], 6.0/9)
	}
}

func TestLambdaShiftsShareTowardCentralHosts(t *testing.T) {
	// Equal-power hosts on a line: hub — near — far, with the far link ten
	// times the cost. With Lambda=0 shares are equal; with Lambda>0 the
	// more central server gains.
	src := `APP loc
HOSTS
hub 1 sun4 1
near 1 sun4 1
far 1 sun4 1
PROCESSES
0 boss hub
FOLDERS
0 near
1 far
PPC
hub <-> near 1
near <-> far 10
`
	m0 := buildMap(t, src, Options{})
	m1 := buildMap(t, src, Options{Lambda: 1})
	s0 := m0.HostShares()
	s1 := m1.HostShares()
	if math.Abs(s0["near"]-0.5) > 1e-12 {
		t.Fatalf("lambda=0 near share = %g want 0.5", s0["near"])
	}
	if s1["near"] <= s0["near"] {
		t.Fatalf("lambda did not shift share toward central host: %g vs %g", s1["near"], s0["near"])
	}
}

func TestLambdaRequiresTable(t *testing.T) {
	f := mustParse(t, invertADF)
	if _, err := New(f, nil, Options{Lambda: 1}); err == nil {
		t.Fatal("Lambda without table accepted")
	}
}

func TestNoFoldersRejected(t *testing.T) {
	f := &adf.File{}
	if _, err := New(f, nil, Options{}); err == nil {
		t.Fatal("empty folder set accepted")
	}
	if _, err := Uniform(f); err == nil {
		t.Fatal("uniform with empty folder set accepted")
	}
}

func TestServerByID(t *testing.T) {
	m := buildMap(t, invertADF, Options{})
	s, ok := m.ServerByID(4)
	if !ok || s.Host != "bonnie" {
		t.Fatalf("ServerByID(4) = %+v,%v", s, ok)
	}
	if _, ok := m.ServerByID(99); ok {
		t.Fatal("phantom server found")
	}
	if m.Len() != 9 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Property: every hash lands on exactly one server, and that server is one
// of the declared ones.
func TestQuickPlaceTotal(t *testing.T) {
	m := buildMap(t, invertADF, Options{})
	valid := make(map[int]bool)
	for _, s := range m.Servers() {
		valid[s.ID] = true
	}
	f := func(h uint64) bool {
		return valid[m.PlaceHash(h).ID]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: placement is a pure function of the key hash.
func TestQuickPlaceDeterministic(t *testing.T) {
	m := buildMap(t, invertADF, Options{Lambda: 0.3})
	f := func(h uint64) bool {
		return m.PlaceHash(h).ID == m.PlaceHash(h).ID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPlace(b *testing.B) {
	m := buildMap(b, invertADF, Options{})
	k := symbol.K(42, 7, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Place(k)
	}
}
