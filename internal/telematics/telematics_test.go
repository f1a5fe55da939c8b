package telematics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestProfileValidation(t *testing.T) {
	valid := Profile{
		ID: "v1", BaseDailySeconds: 20000, Allowance: 2e6,
		FirstCycleFactor: 0.5, SiteFactorRange: [2]float64{0.8, 1.2},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []func(*Profile){
		func(p *Profile) { p.ID = "" },
		func(p *Profile) { p.BaseDailySeconds = 0 },
		func(p *Profile) { p.BaseDailySeconds = 90000 },
		func(p *Profile) { p.Allowance = 0 },
		func(p *Profile) { p.NoiseSigma = -1 },
		func(p *Profile) { p.IdleMeanDays = -1 },
		func(p *Profile) { p.FirstCycleFactor = 0 },
		func(p *Profile) { p.FirstCycleFactor = 1.5 },
		func(p *Profile) { p.SiteFactorRange = [2]float64{1.2, 0.8} },
		func(p *Profile) { p.WeekdayFactor[3] = -1 },
	}
	for i, mutate := range cases {
		p := valid
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid profile accepted", i)
		}
	}
}

func TestGenerateUsageBoundsAndDeterminism(t *testing.T) {
	p := Profile{
		ID: "v1", BaseDailySeconds: 30000, Allowance: 2e6,
		FirstCycleFactor: 0.5, SiteFactorRange: [2]float64{0.8, 1.2},
		WeekdayFactor: [7]float64{1, 1, 1, 1, 1, 0.3, 0.1},
		NoiseSigma:    0.2, SeasonalAmp: 0.2, ZeroDayProb: 0.05,
		IdleEnterProb: 0.02, IdleMeanDays: 10,
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	u1, err := p.GenerateUsage(start, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := p.GenerateUsage(start, 500, rng.New(9))
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("same seed produced different series")
		}
		if u1[i] < 0 || u1[i] > 86400 {
			t.Fatalf("day %d outside physical bounds: %v", i, u1[i])
		}
	}
	if _, err := p.GenerateUsage(start, 0, rng.New(1)); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestGenerateUsageFirstCycleDerating(t *testing.T) {
	// The documented paper fact: first-cycle mean usage ≈ 30 % below
	// subsequent cycles. Verify the generated ratio lands near it on a
	// busy profile.
	p := Profile{
		ID: "v1", BaseDailySeconds: 30000, Allowance: 2e6,
		FirstCycleFactor: 0.45, SiteFactorRange: [2]float64{0.95, 1.05},
		WeekdayFactor: [7]float64{1, 1, 1, 1, 1, 0.2, 0.1},
		NoiseSigma:    0.1,
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	u, err := p.GenerateUsage(start, 1500, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var cum, firstSum, laterSum float64
	firstN, laterN := 0, 0
	for _, v := range u {
		if cum < p.Allowance {
			firstSum += v
			firstN++
		} else {
			laterSum += v
			laterN++
		}
		cum += v
	}
	if laterN == 0 {
		t.Fatal("series never left the first cycle; horizon too short")
	}
	ratio := (firstSum / float64(firstN)) / (laterSum / float64(laterN))
	if ratio < 0.5 || ratio > 0.9 {
		t.Fatalf("first-cycle usage ratio %.2f outside [0.5, 0.9] (paper: ≈0.7)", ratio)
	}
}

func TestGenerateFleetShape(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Vehicles = 10
	cfg.Days = 400
	fleet, err := GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Vehicles) != 10 {
		t.Fatalf("got %d vehicles", len(fleet.Vehicles))
	}
	classes := map[VehicleClass]bool{}
	for _, v := range fleet.Vehicles {
		if len(v.RawU) != 400 {
			t.Fatalf("vehicle %s has %d days", v.Profile.ID, len(v.RawU))
		}
		classes[v.Profile.Class] = true
	}
	if len(classes) < 4 {
		t.Fatalf("only %d classes in a 10-vehicle fleet", len(classes))
	}
}

func TestGenerateFleetDeterminism(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Vehicles = 4
	cfg.Days = 200
	f1, _ := GenerateFleet(cfg)
	f2, _ := GenerateFleet(cfg)
	for i := range f1.Vehicles {
		for d := range f1.Vehicles[i].RawU {
			if f1.Vehicles[i].RawU[d] != f2.Vehicles[i].RawU[d] {
				t.Fatal("same config produced different fleets")
			}
		}
	}
	cfg.Seed++
	f3, _ := GenerateFleet(cfg)
	diff := false
	for d := range f1.Vehicles[0].RawU {
		if f1.Vehicles[0].RawU[d] != f3.Vehicles[0].RawU[d] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fleets")
	}
}

func TestGenerateFleetCorruption(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Vehicles = 6
	cfg.Days = 600
	cfg.Corrupt = true
	cfg.CorruptionRate = 0.05
	fleet, err := GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, v := range fleet.Vehicles {
		for _, x := range v.RawU {
			if math.IsNaN(x) || x < 0 || x > 86400 {
				bad++
			}
		}
	}
	if bad == 0 {
		t.Fatal("corruption enabled but no artifact found")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Vehicles = 0
	if _, err := GenerateFleet(cfg); err == nil {
		t.Fatal("zero vehicles accepted")
	}
	cfg = DefaultFleetConfig()
	cfg.Days = -1
	if _, err := GenerateFleet(cfg); err == nil {
		t.Fatal("negative horizon accepted")
	}
	cfg = DefaultFleetConfig()
	cfg.Corrupt = true
	cfg.CorruptionRate = 2
	if _, err := GenerateFleet(cfg); err == nil {
		t.Fatal("corruption rate > 1 accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Vehicles = 3
	cfg.Days = 50
	cfg.Corrupt = true
	cfg.CorruptionRate = 0.1
	fleet, _ := GenerateFleet(cfg)

	var buf bytes.Buffer
	if err := fleet.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Vehicles) != 3 {
		t.Fatalf("round trip lost vehicles: %d", len(back.Vehicles))
	}
	for i, v := range back.Vehicles {
		orig := fleet.Vehicles[i]
		if v.Profile.ID != orig.Profile.ID || v.Profile.Class != orig.Profile.Class {
			t.Fatal("identity fields lost")
		}
		if !v.Start.Equal(orig.Start) {
			t.Fatal("start date lost")
		}
		for d := range orig.RawU {
			a, b := orig.RawU[d], v.RawU[d]
			if math.IsNaN(a) != math.IsNaN(b) {
				t.Fatalf("NaN mismatch at day %d", d)
			}
			if !math.IsNaN(a) && math.Abs(a-b) > 0.05 {
				t.Fatalf("value mismatch at day %d: %v vs %v", d, a, b)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header\n",
		"vehicle,model,class,date,seconds\nv1,m,c,not-a-date,1\n",
		"vehicle,model,class,date,seconds\nv1,m,c,2015-01-01,xyz\n",
		"vehicle,model,class,date,seconds\nv1,m,c,2015-01-01,1\nv1,m,c,2015-01-03,1\n", // gap
		"vehicle,model,class,date,seconds\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d: malformed CSV accepted", i)
		}
	}
}
