package traffic

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
	"netwide/internal/sampling"
	"netwide/internal/topology"
)

func TestProfileShape(t *testing.T) {
	p := DefaultProfile()
	// Peak hour beats 4am.
	peakBin := int(p.PeakHour * BinsPerHour)
	nightBin := 4 * BinsPerHour
	if p.At(peakBin) <= p.At(nightBin) {
		t.Fatalf("peak %v <= night %v", p.At(peakBin), p.At(nightBin))
	}
	// Weekend suppression: same hour Saturday vs Wednesday.
	wed := 2*BinsPerDay + peakBin
	sat := 5*BinsPerDay + peakBin
	if p.At(sat) >= p.At(wed) {
		t.Fatalf("weekend %v >= weekday %v", p.At(sat), p.At(wed))
	}
	// Strictly positive everywhere.
	for bin := 0; bin < BinsPerWeek; bin++ {
		if p.At(bin) <= 0 {
			t.Fatalf("profile non-positive at bin %d", bin)
		}
	}
	if p.At(-5) != p.At(0) {
		t.Fatal("negative bins should clamp")
	}
}

func TestProfilePeriodicOverWeeks(t *testing.T) {
	p := DefaultProfile()
	for bin := 0; bin < BinsPerWeek; bin += 17 {
		if p.At(bin) != p.At(bin+BinsPerWeek) {
			t.Fatalf("profile not week-periodic at bin %d", bin)
		}
	}
}

func TestLognormalNoiseDeterministicAndUnitMean(t *testing.T) {
	a := LognormalNoise(7, 3, 100, 0.3)
	b := LognormalNoise(7, 3, 100, 0.3)
	if a != b {
		t.Fatal("noise not deterministic")
	}
	if LognormalNoise(8, 3, 100, 0.3) == a {
		t.Fatal("noise ignores seed")
	}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += LognormalNoise(1, i%121, i/121, 0.3)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("noise mean %v, want ~1", mean)
	}
}

func TestDefaultMixValidates(t *testing.T) {
	if err := DefaultMix().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultMix().MeanFlowBytes() <= 0 {
		t.Fatal("mean flow bytes must be positive")
	}
	var empty Mix
	if err := empty.Validate(); err == nil {
		t.Fatal("empty mix accepted")
	}
	bad := DefaultMix()
	bad[0].VolumeShare = 0.01
	if err := bad.Validate(); err == nil {
		t.Fatal("unnormalized mix accepted")
	}
}

func TestRealmTemplates(t *testing.T) {
	top := topology.Abilene()
	realm := NewRealm(top)
	rng := rand.New(rand.NewPCG(1, 2))

	// AddrRandomAtPoP yields addresses inside some customer of that PoP.
	tpl := AddrTemplate{Mode: AddrRandomAtPoP, PoP: topology.NYCM}
	for i := 0; i < 200; i++ {
		a := realm.DrawAddr(&tpl, rng)
		found := false
		for _, c := range top.CustomersAt(topology.NYCM) {
			for _, p := range c.Prefixes {
				if p.Contains(a) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("address %s outside NYCM customer space", a)
		}
	}

	// AddrHostSetAtPoP draws from a bounded host population.
	tpl = AddrTemplate{Mode: AddrHostSetAtPoP, PoP: topology.CHIN, Hosts: 4}
	seen := map[ipaddr.Addr]bool{}
	for i := 0; i < 200; i++ {
		seen[realm.DrawAddr(&tpl, rng)] = true
	}
	if len(seen) > 4 {
		t.Fatalf("host set produced %d distinct hosts, want <= 4", len(seen))
	}

	// Fixed address.
	want := ipaddr.FromOctets(10, 1, 2, 3)
	if got := realm.DrawAddr(&AddrTemplate{Mode: AddrFixed, Fixed: want}, rng); got != want {
		t.Fatalf("fixed addr %s", got)
	}

	// Prefix-constrained.
	pfx := ipaddr.MustPrefix("10.200.0.0", 14)
	for i := 0; i < 100; i++ {
		if a := realm.DrawAddr(&AddrTemplate{Mode: AddrRandomInPrefix, Prefix: pfx}, rng); !pfx.Contains(a) {
			t.Fatalf("prefix draw %s outside %s", a, pfx)
		}
	}
}

func TestDrawPortModes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	if p := DrawPort(&PortTemplate{Mode: PortFixed, Port: 80}, rng); p != 80 {
		t.Fatalf("fixed port %d", p)
	}
	for i := 0; i < 200; i++ {
		if p := DrawPort(&PortTemplate{Mode: PortEphemeral}, rng); p < 1024 {
			t.Fatalf("ephemeral port %d below 1024", p)
		}
		p := DrawPort(&PortTemplate{Mode: PortRange, Lo: 5000, Hi: 5050}, rng)
		if p < 5000 || p > 5050 {
			t.Fatalf("range port %d", p)
		}
	}
}

func TestBackgroundVolumesFollowGravityAndProfile(t *testing.T) {
	top := topology.Abilene()
	bg, err := NewBackground(top, 2e6, 42)
	if err != nil {
		t.Fatal(err)
	}
	bg.NoiseSigma = 0 // isolate the deterministic structure
	big := topology.ODPair{Origin: topology.NYCM, Dest: topology.WASH}
	small := topology.ODPair{Origin: topology.KSCY, Dest: topology.DNVR}
	if bg.TrueVolume(big, 100) <= bg.TrueVolume(small, 100) {
		t.Fatal("gravity ordering violated")
	}
	peak := int(bg.Profile.PeakHour * BinsPerHour)
	night := 4 * BinsPerHour
	if bg.TrueVolume(big, peak) <= bg.TrueVolume(big, night) {
		t.Fatal("diurnal ordering violated")
	}
	if _, err := NewBackground(top, 0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestBackgroundClassesDeterministic(t *testing.T) {
	top := topology.Abilene()
	bg, err := NewBackground(top, 2e6, 7)
	if err != nil {
		t.Fatal(err)
	}
	od := topology.ODPair{Origin: topology.ATLA, Dest: topology.LOSA}
	c1 := bg.Classes(od, 55, rand.New(rand.NewPCG(bg.BinSeed(od, 55))))
	c2 := bg.Classes(od, 55, rand.New(rand.NewPCG(bg.BinSeed(od, 55))))
	if len(c1) != len(c2) {
		t.Fatalf("regeneration differs: %d vs %d classes", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("class %d differs between regenerations", i)
		}
	}
	for _, c := range c1 {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMeasureStatistics(t *testing.T) {
	top := topology.Abilene()
	realm := NewRealm(top)
	s, _ := sampling.NewSampler(0.01)
	rng := rand.New(rand.NewPCG(5, 6))
	// 20k flows of 100 packets: expect ~20k*0.634 visible... with n=100,
	// pVis = 1-0.99^100 = 0.634; total sampled packets ~ 20k*100*0.01=20000.
	c := FlowClass{
		Count: 20000, PktsPerFlow: 100, BytesPerPkt: 500, Proto: flow.ProtoTCP,
		Src:     AddrTemplate{Mode: AddrRandomAtPoP, PoP: topology.ATLA},
		Dst:     AddrTemplate{Mode: AddrRandomAtPoP, PoP: topology.CHIN},
		SrcPort: PortTemplate{Mode: PortEphemeral},
		DstPort: PortTemplate{Mode: PortFixed, Port: 80},
	}
	var emitted int
	bytes, pkts, flows := Measure(&c, &s, realm, rng, func(r flow.Record) {
		emitted++
		if r.Packets == 0 {
			t.Fatal("emitted zero-packet record")
		}
		if r.Key.DstPort != 80 {
			t.Fatalf("dst port %d", r.Key.DstPort)
		}
	})
	if uint64(emitted) != flows {
		t.Fatalf("emitted %d != flows %d", emitted, flows)
	}
	wantVis := 20000 * 0.6340
	if math.Abs(float64(flows)-wantVis)/wantVis > 0.05 {
		t.Fatalf("visible flows %d, want ~%v", flows, wantVis)
	}
	wantPkts := 20000.0 * 100 * 0.01
	if math.Abs(float64(pkts)-wantPkts)/wantPkts > 0.05 {
		t.Fatalf("sampled packets %d, want ~%v", pkts, wantPkts)
	}
	wantBytes := wantPkts * 500
	if math.Abs(float64(bytes)-wantBytes)/wantBytes > 0.05 {
		t.Fatalf("sampled bytes %d, want ~%v", bytes, wantBytes)
	}
}

func TestMeasureSingleAlphaFlow(t *testing.T) {
	// One enormous flow (an ALPHA transfer): always visible, one record.
	top := topology.Abilene()
	realm := NewRealm(top)
	s, _ := sampling.NewSampler(0.01)
	rng := rand.New(rand.NewPCG(7, 8))
	c := FlowClass{
		Count: 1, PktsPerFlow: 1_000_000, BytesPerPkt: 1400, Proto: flow.ProtoTCP,
		Src:     AddrTemplate{Mode: AddrFixed, Fixed: ipaddr.FromOctets(10, 0, 0, 1)},
		Dst:     AddrTemplate{Mode: AddrFixed, Fixed: ipaddr.FromOctets(10, 96, 0, 1)},
		SrcPort: PortTemplate{Mode: PortFixed, Port: 5001},
		DstPort: PortTemplate{Mode: PortFixed, Port: 5001},
	}
	_, pkts, flows := Measure(&c, &s, realm, rng, nil)
	if flows != 1 {
		t.Fatalf("flows=%d, want 1", flows)
	}
	if math.Abs(float64(pkts)-10000)/10000 > 0.1 {
		t.Fatalf("sampled pkts %d, want ~10000", pkts)
	}
}

func TestMeasureEmptyClass(t *testing.T) {
	s, _ := sampling.NewSampler(0.01)
	realm := NewRealm(topology.Abilene())
	rng := rand.New(rand.NewPCG(9, 10))
	b, p, f := Measure(&FlowClass{}, &s, realm, rng, nil)
	if b != 0 || p != 0 || f != 0 {
		t.Fatal("empty class produced traffic")
	}
}

// Property: measured totals are internally consistent (flows>0 iff
// packets>0, bytes scale with packets).
func TestPropMeasureConsistency(t *testing.T) {
	top := topology.Abilene()
	realm := NewRealm(top)
	s, _ := sampling.NewSampler(0.01)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		c := FlowClass{
			Count:       uint64(rng.IntN(5000)),
			PktsPerFlow: uint64(1 + rng.IntN(2000)),
			BytesPerPkt: 40 + rng.Float64()*1400,
			Proto:       flow.ProtoTCP,
			Src:         AddrTemplate{Mode: AddrRandomAtPoP, PoP: topology.PoP(rng.IntN(topology.NumPoPs))},
			Dst:         AddrTemplate{Mode: AddrRandomAtPoP, PoP: topology.PoP(rng.IntN(topology.NumPoPs))},
			SrcPort:     PortTemplate{Mode: PortEphemeral},
			DstPort:     PortTemplate{Mode: PortFixed, Port: 80},
		}
		bytes, pkts, flows := Measure(&c, &s, realm, rng, nil)
		if (flows == 0) != (pkts == 0) || (flows == 0) != (bytes == 0) {
			return false
		}
		return pkts >= flows // every visible flow has at least 1 packet
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refPrefixIndex is the search prefixAt ran before its guide table: a
// binary search for the lower bound of x = u·total over the whole of cum.
func refPrefixIndex(sp *weightedPrefixes, u float64) int {
	x := u * sp.total
	lo, hi := 0, len(sp.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if sp.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestPrefixAtMatchesReference: the guided search returns the full search's
// index for every draw tried — uniform draws, every bucket edge and the
// Float64 grid points either side of it, and the draws that put x on and
// next to every cumulative weight — on the reference, geant and a
// synthetic topology, and on hand-made weight tables (equal weights, one
// dominant customer, zero-weight customers, a single prefix).
func TestPrefixAtMatchesReference(t *testing.T) {
	var realms []*Realm
	for _, name := range []string{"abilene", "geant", "synthetic:50:7"} {
		ref, err := topology.ParseRef(name)
		if err != nil {
			t.Fatal(err)
		}
		top, err := ref.Build()
		if err != nil {
			t.Fatal(err)
		}
		realms = append(realms, NewRealm(top))
	}
	for _, weights := range [][]float64{
		{1, 1, 1, 1, 1, 1, 1},
		{1e6, 1, 1, 1e-3, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{0, 2, 0, 0, 3, 0},
		{0.7},
	} {
		sp := weightedPrefixes{}
		for _, w := range weights {
			sp.prefixes = append(sp.prefixes, ipaddr.Prefix{})
			sp.total += w
			sp.cum = append(sp.cum, sp.total)
		}
		sp.buildGuide()
		realms = append(realms, &Realm{spaces: []weightedPrefixes{sp}})
	}
	rng := rand.New(rand.NewPCG(21, 21))
	const grid = 1 << 53
	check := func(sp *weightedPrefixes, u float64) {
		if u < 0 || u >= 1 {
			return
		}
		if got, want := sp.index(u), refPrefixIndex(sp, u); got != want {
			t.Fatalf("u %v (x %v, cum %v): guided index %d, full search %d", u, u*sp.total, sp.cum, got, want)
		}
	}
	neighbours := func(sp *weightedPrefixes, u float64) {
		j := int64(u * grid)
		for d := int64(-2); d <= 2; d++ {
			check(sp, float64(j+d)/grid)
		}
	}
	draws := 0
	for _, r := range realms {
		for i := range r.spaces {
			sp := &r.spaces[i]
			if len(sp.prefixes) == 0 {
				continue
			}
			for k := 0; k < 20000; k++ {
				check(sp, rng.Float64())
				draws++
			}
			buckets := len(sp.guide) - 1
			for b := 0; b <= buckets; b++ {
				neighbours(sp, float64(b)/float64(buckets))
			}
			for _, c := range sp.cum {
				neighbours(sp, c/sp.total)
			}
		}
	}
	if draws == 0 {
		t.Fatal("no realm had prefixes")
	}
}
