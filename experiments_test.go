package netwide_test

import "testing"

func TestAblationShapes(t *testing.T) {
	run := quickRun(t)
	pts, err := run.Ablation([]int{2, 4}, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // 2 ks x 1 alpha x {T2 on, off}
		t.Fatalf("ablation points %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Events <= 0 || pt.TruthRecall < 0 || pt.TruthRecall > 1 {
			t.Fatalf("bad point %+v", pt)
		}
	}
	// Dropping T² must never find more events at the same (k, alpha).
	byKey := map[[2]int][2]int{}
	for _, pt := range pts {
		key := [2]int{pt.K, int(pt.Alpha * 1e6)}
		v := byKey[key]
		if pt.UseT2 {
			v[0] = pt.Events
		} else {
			v[1] = pt.Events
		}
		byKey[key] = v
	}
	for key, v := range byKey {
		if v[1] > v[0] {
			t.Fatalf("k=%d: SPE-only found more events (%d) than SPE+T2 (%d)", key[0], v[1], v[0])
		}
	}
}

func TestBaselinesComparison(t *testing.T) {
	run := quickRun(t)
	bs, err := run.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("baseline scores %d, want 3", len(bs))
	}
	var subspace, ewma float64
	for _, b := range bs {
		if b.TruthRecall < 0 || b.TruthRecall > 1 {
			t.Fatalf("recall out of range: %+v", b)
		}
		switch b.Name {
		case "subspace(B,P,F)":
			subspace = b.TruthRecall
		case "ewma-per-link(B)":
			ewma = b.TruthRecall
		}
	}
	// The paper's core argument: the network-wide subspace view beats
	// single-link detection.
	if subspace <= ewma {
		t.Fatalf("subspace recall %v should beat per-link EWMA %v", subspace, ewma)
	}
}

func TestScoreDeterministic(t *testing.T) {
	run := quickRun(t)
	a := run.Score()
	b := run.Score()
	if a != b {
		t.Fatalf("score not deterministic: %+v vs %+v", a, b)
	}
}
