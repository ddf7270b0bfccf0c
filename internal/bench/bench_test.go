package bench

import (
	"testing"

	"approxcode/internal/core"
	"approxcode/internal/erasure"
)

// fastTiming keeps harness tests quick.
func fastTiming() TimingConfig { return TimingConfig{ShardSize: 8 * 1024, Iters: 1} }

func TestValidKMatchesPaperSlashes(t *testing.T) {
	// The "/" cells of the paper's tables: STAR invalid at k=9,15; TIP
	// invalid at k=7,13.
	if ValidK(core.FamilySTAR, 9) || ValidK(core.FamilySTAR, 15) {
		t.Fatal("STAR must reject non-prime k")
	}
	if ValidK(core.FamilyTIP, 7) || ValidK(core.FamilyTIP, 13) {
		t.Fatal("TIP must reject k with k+2 non-prime")
	}
	for _, k := range []int{5, 7, 11, 13, 17} {
		if !ValidK(core.FamilySTAR, k) {
			t.Fatalf("STAR must accept prime k=%d", k)
		}
	}
	for _, k := range []int{5, 9, 11, 15, 17} {
		if !ValidK(core.FamilyTIP, k) {
			t.Fatalf("TIP must accept k=%d", k)
		}
	}
	for _, k := range PaperKs {
		if !ValidK(core.FamilyRS, k) || !ValidK(core.FamilyLRC, k) {
			t.Fatalf("RS/LRC must accept k=%d", k)
		}
	}
}

func TestBuildersAllSweepConfigs(t *testing.T) {
	for _, f := range Families {
		for _, k := range PaperKs {
			if !ValidK(f, k) {
				if _, err := BuildBaseline(f, k, 4); err == nil && f != core.FamilyLRC && f != core.FamilyRS {
					t.Errorf("%s k=%d: invalid config accepted", f, k)
				}
				continue
			}
			for _, h := range PaperHs {
				if _, err := BuildBaseline(f, k, h); err != nil {
					t.Errorf("baseline %s k=%d h=%d: %v", f, k, h, err)
				}
				if _, err := BuildAppr(f, k, h, core.Even); err != nil {
					t.Errorf("appr %s k=%d h=%d: %v", f, k, h, err)
				}
			}
		}
	}
	if _, err := BuildBaseline(core.Family("nope"), 5, 4); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestAlignSize(t *testing.T) {
	if AlignSize(100, 24) != 96 {
		t.Fatal("alignment wrong")
	}
	if AlignSize(10, 24) != 24 {
		t.Fatal("minimum alignment wrong")
	}
	if AlignSize(96, 24) != 96 {
		t.Fatal("exact alignment changed")
	}
}

func TestMeasureEncodeDecodeBasics(t *testing.T) {
	tc := fastTiming()
	for _, f := range Families {
		c, err := BuildBaseline(f, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		secs, bytes, err := MeasureEncode(c, tc)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name(), err)
		}
		if secs < 0 || bytes <= 0 {
			t.Fatalf("%s: nonsense measurement", c.Name())
		}
		for fails := 1; fails <= 3; fails++ {
			secs, fb, err := MeasureDecode(c, FailureNodes(c, fails), tc)
			if err != nil {
				t.Fatalf("%s decode f=%d: %v", c.Name(), fails, err)
			}
			if secs < 0 || fb <= 0 {
				t.Fatalf("%s: nonsense decode measurement", c.Name())
			}
		}
	}
}

func TestFailureNodesAppr(t *testing.T) {
	c, err := BuildAppr(core.FamilyRS, 5, 4, core.Uneven)
	if err != nil {
		t.Fatal(err)
	}
	nodes := FailureNodes(c, 3)
	if len(nodes) != 3 {
		t.Fatal("wrong count")
	}
	for _, n := range nodes {
		if c.Role(n) != core.RoleData {
			t.Fatal("failure node is not a data node")
		}
		if c.StripeOf(n) != 1 {
			t.Fatal("failures must land on stripe 1")
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	// Spot-check the headline cell: APPR.RS(k,1,2,6) at k=5 -> 20.8%.
	for _, r := range rows {
		if r.Name == "APPR.RS(k,1,2,6)" {
			if v := r.Values[5]; v < 0.2075 || v > 0.2085 {
				t.Fatalf("k=5 improvement %.4f want ~0.208", v)
			}
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	models := Table2(5, 4)
	if len(models) != 8 {
		t.Fatalf("k=5 must include all 8 codes, got %d", len(models))
	}
	models = Table2(9, 4) // STAR invalid at k=9
	for _, m := range models {
		if m.Name == "STAR(9)" {
			t.Fatal("invalid STAR included")
		}
	}
}

func TestFig7Ordering(t *testing.T) {
	fig := Fig7(4)
	if len(fig.Series) != 3 {
		t.Fatal("want 3 series")
	}
	for i := range fig.Series[0].Points {
		rs := fig.Series[0].Points[i].Value
		a12 := fig.Series[1].Points[i].Value
		a21 := fig.Series[2].Points[i].Value
		if !(a12 < a21 && a21 < rs) {
			t.Fatalf("point %d: overhead ordering broken", i)
		}
	}
}

func TestFig8Validity(t *testing.T) {
	fig := Fig8(6)
	for _, s := range fig.Series {
		if len(s.Points) != len(PaperKs) {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
	}
	// STAR series must be invalid at k=9 (index 2).
	if fig.Series[1].Points[2].Valid {
		t.Fatal("STAR at k=9 must be invalid")
	}
}

// apprWork averages a deterministic work measure of APPR.RS(k,1,2,h)
// over the Even and Uneven structures, as the figures average their
// timings.
func apprWork(t *testing.T, k, h int, work func(erasure.Coder) float64) float64 {
	t.Helper()
	var sum float64
	for _, st := range []core.Structure{core.Even, core.Uneven} {
		c, err := BuildAppr(core.FamilyRS, k, h, st)
		if err != nil {
			t.Fatal(err)
		}
		sum += work(c)
	}
	return sum / 2
}

// parityPerData is the parity bytes one encode produces per data byte.
func parityPerData(c erasure.Coder) float64 {
	return float64(c.TotalShards()-c.DataShards()) / float64(c.DataShards())
}

// decodeMoved reconstructs one stripe after a double failure and
// returns the bytes the decode moves — survivor bytes read plus bytes
// rebuilt — per failed byte. The Approximate Code reports both counts;
// a baseline MDS decode reads DataShards survivors and rebuilds every
// failed column.
func decodeMoved(t *testing.T, c erasure.Coder) float64 {
	t.Helper()
	failed := FailureNodes(c, 2)
	size := AlignSize(16*1024, c.ShardSizeMultiple())
	stripe, err := erasure.RandomStripe(c, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failed {
		stripe[f] = nil
	}
	failedBytes := float64(len(failed) * size)
	if appr, ok := c.(*core.Code); ok {
		rep, err := appr.ReconstructReport(stripe, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(rep.BytesRead+rep.BytesRebuilt) / failedBytes
	}
	if err := c.Reconstruct(stripe); err != nil {
		t.Fatal(err)
	}
	return (float64(c.DataShards()*size) + failedBytes) / failedBytes
}

// checkWorkShape asserts, at every valid k of every APPR series, that
// the Approximate Code's deterministic work is below frac of the
// baseline's, and logs the figure's wall-time ratio. Wall time does not
// gate: it compares sub-millisecond timings on a shared host.
func checkWorkShape(t *testing.T, fig Figure, frac float64, work func(erasure.Coder) float64) {
	t.Helper()
	for si, s := range fig.Series[1:] {
		h := PaperHs[si]
		for i, p := range s.Points {
			base := fig.Series[0].Points[i]
			if !p.Valid || !base.Valid {
				continue
			}
			bc, err := BuildBaseline(core.FamilyRS, p.K, 4)
			if err != nil {
				t.Fatal(err)
			}
			bw, aw := work(bc), apprWork(t, p.K, h, work)
			if aw >= frac*bw {
				t.Errorf("%s k=%d: work %.3f, baseline %.3f: not below %.2fx", s.Name, p.K, aw, bw, frac)
			}
			t.Logf("%s k=%d: work %.3f vs baseline %.3f, wall-time ratio %.2f", s.Name, p.K, aw, bw, p.Value/base.Value)
		}
	}
}

func TestFigEncodingShape(t *testing.T) {
	fig, err := FigEncoding(core.FamilyRS, TimingConfig{ShardSize: 128 * 1024, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 { // baseline + h=4 + h=6
		t.Fatalf("want 3 series, got %d", len(fig.Series))
	}
	// The Approximate Codes generate fewer parities: every encode must
	// produce fewer parity bytes per data byte than the baseline's.
	checkWorkShape(t, fig, 1, parityPerData)
}

func TestFigDecodingDoubleFailuresFaster(t *testing.T) {
	fig, err := FigDecoding(core.FamilyRS, 2, TimingConfig{ShardSize: 256 * 1024, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Under double failures the Approximate Code skips unimportant
	// sub-stripes: its decode must move less than half the bytes the
	// baseline's does.
	checkWorkShape(t, fig, 0.5, func(c erasure.Coder) float64 { return decodeMoved(t, c) })
}

func TestFig13ShapesAndSpeedups(t *testing.T) {
	results, err := Fig13(5, 256<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	bestSpeedup := 0.0
	for _, r := range results {
		if r.Seconds < 0 {
			t.Fatalf("%s: negative time", r.Name)
		}
		if r.Speedup > bestSpeedup {
			bestSpeedup = r.Speedup
		}
	}
	// Fig 13's shape: Approximate recovery is multiple times faster.
	if bestSpeedup < 3 {
		t.Fatalf("best recovery speedup %.2f < 3x", bestSpeedup)
	}
}

func TestReliabilityReport(t *testing.T) {
	rows, err := ReliabilityReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("want Even and Uneven rows")
	}
}

func TestRunVideo(t *testing.T) {
	rep, err := RunVideo(300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost == 0 || rep.MeanPSNR < 35 {
		t.Fatalf("video report %+v fails the paper's 35 dB bar", rep)
	}
}

func TestRunHeadline(t *testing.T) {
	rep, err := RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityReduction < 0.55 {
		t.Fatalf("parity reduction %.3f", rep.ParityReduction)
	}
	if rep.StorageSaving < 0.207 || rep.StorageSaving > 0.209 {
		t.Fatalf("storage saving %.4f", rep.StorageSaving)
	}
	if rep.RecoverySpeedup < 3 {
		t.Fatalf("recovery speedup %.2f", rep.RecoverySpeedup)
	}
}

func TestFig13DES(t *testing.T) {
	results, err := Fig13DES(5, 4, 64<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("want 4 rows, got %d", len(results))
	}
	for i := 0; i+1 < len(results); i += 2 {
		base, appr := results[i], results[i+1]
		if base.Detection != appr.Detection {
			t.Fatalf("detection latency must be code-independent: %+v vs %+v", base, appr)
		}
		if appr.Repair >= base.Repair {
			t.Fatalf("f=%d: approximate repair %.2fs not faster than baseline %.2fs",
				appr.Failures, appr.Repair, base.Repair)
		}
		if appr.Total <= appr.Detection {
			t.Fatalf("total must exceed detection: %+v", appr)
		}
	}
}
