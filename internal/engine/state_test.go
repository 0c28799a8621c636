package engine

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestStateRestoreScoresIdentically pins the checkpoint/restore contract at
// the model layer: a model rebuilt from its serialized State must score
// every vector bit-identically to the original — same statistics, same
// alarms, same top-residual OD — and report the same generation and
// thresholds. The state additionally survives a gob round trip, which is
// how the checkpoint envelope actually carries it.
func TestStateRestoreScoresIdentically(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	train := synthTraffic(rng, 400, 12, 2)
	m, err := Fit(train, Options{K: 4, Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// Advance a generation so Gen survival is non-trivially pinned.
	m2, err := m.Refit(synthTraffic(rng, 400, 12, 2))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m2.State()); err != nil {
		t.Fatal(err)
	}
	var st ModelState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}

	if r.Gen() != m2.Gen() || r.Gen() != 1 {
		t.Fatalf("restored gen %d, want %d", r.Gen(), m2.Gen())
	}
	if r.P() != m2.P() || r.Opts() != m2.Opts() {
		t.Fatalf("restored shape/opts differ: P %d/%d opts %+v/%+v", r.P(), m2.P(), r.Opts(), m2.Opts())
	}
	q1, t1 := m2.Limits()
	q2, t2 := r.Limits()
	if q1 != q2 || t1 != t2 {
		t.Fatalf("restored limits (%v,%v), want (%v,%v)", q2, t2, q1, t1)
	}

	probe := synthTraffic(rng, 64, 12, 30) // noisy: some rows alarm
	alarms := 0
	for i := 0; i < probe.Rows(); i++ {
		x := probe.RowView(i)
		a, err := m2.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("row %d: original %+v, restored %+v", i, a, b)
		}
		if a.SPEAlarm || a.T2Alarm {
			alarms++
		}
	}
	if alarms == 0 {
		t.Fatal("probe raised no alarms; parity check is vacuous")
	}

	// A restored model must keep refitting (warm-started from its basis).
	r2, err := r.Refit(synthTraffic(rng, 400, 12, 2))
	if err != nil {
		t.Fatalf("refit of restored model: %v", err)
	}
	if r2.Gen() != 2 {
		t.Fatalf("refit gen %d, want 2", r2.Gen())
	}
}

// TestRestoreRejectsCorruptState walks the validation surface: every
// corruption of a valid state must be refused by the check it names — each
// case carries the reason it must be refused with — and never build a model
// (or panic). A case refused by an earlier check would leave its own check
// untested.
func TestRestoreRejectsCorruptState(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	m, err := Fit(synthTraffic(rng, 300, 10, 2), Options{K: 4, Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	good := m.State()

	cases := []struct {
		name string
		mut  func(st *ModelState)
		want string
	}{
		{"empty mean", func(st *ModelState) { st.Mean = nil }, "empty mean"},
		{"k zero", func(st *ModelState) { st.Opts.K = 0 }, "k=0 out of range"},
		{"k >= p", func(st *ModelState) { st.Opts.K = len(st.Mean) }, "k=10 out of range"},
		// Two stored axes, and a basis of exactly those two: only the
		// k-against-axes check stands between this state and a model.
		{"k beyond axes", func(st *ModelState) { st.Eigenvalues = st.Eigenvalues[:2]; trimCols(st, 2) }, "k=4 exceeds 2 stored axes"},
		{"absurd alpha", func(st *ModelState) { st.Opts.Alpha = 40 }, "alpha=40 out of (0,1)"},
		{"component rows truncated", func(st *ModelState) { st.Components = st.Components[:3*len(st.Eigenvalues)] }, "30 basis values, want 10 x 10"},
		{"wrong component length", func(st *ModelState) { st.Components = st.Components[:len(st.Components)-1] }, "99 basis values, want 10 x 10"},
		{"NaN mean", func(st *ModelState) { st.Mean[0] = math.NaN() }, "non-finite mean"},
		{"NaN component", func(st *ModelState) { st.Components[len(st.Eigenvalues)+1] = math.NaN() }, "non-finite component in row 1"},
		// Finite, and still poison: squared at the next bin it is +Inf.
		{"absurd mean", func(st *ModelState) { st.Mean[0] = 3e296 }, "non-finite mean"},
		{"absurd total variance", func(st *ModelState) { st.TotalVar = 1e200 }, "non-finite total variance"},
		{"negative eigenvalue", func(st *ModelState) { st.Eigenvalues[0] = -1 }, "negative eigenvalue"},
		{"Inf eigenvalue", func(st *ModelState) { st.Eigenvalues[0] = math.Inf(1) }, "non-finite eigenvalue"},
		{"zero Q limit", func(st *ModelState) { st.QLimit = 0 }, "Q limit 0 not a positive finite threshold"},
		{"NaN Q limit", func(st *ModelState) { st.QLimit = math.NaN() }, "Q limit NaN not a positive finite threshold"},
		{"negative T2 limit", func(st *ModelState) { st.T2Limit = -3 }, "T2 limit -3 not a positive finite threshold"},
		{"absurd N", func(st *ModelState) { st.N = 1 }, "needs n >= 2 observations"},
		{"negative total variance", func(st *ModelState) { st.TotalVar = -1 }, "negative total variance"},
	}
	for _, tc := range cases {
		st := cloneState(good)
		tc.mut(&st)
		if _, err := Restore(st); err == nil {
			t.Errorf("%s: corrupt state restored silently", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refused with %q, want the reason %q", tc.name, err, tc.want)
		}
	}

	// The untouched state still restores: the cases above failed for their
	// own reasons, not because cloning broke something.
	if _, err := Restore(cloneState(good)); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

func cloneState(st ModelState) ModelState {
	out := st
	out.Mean = append([]float64(nil), st.Mean...)
	out.Eigenvalues = append([]float64(nil), st.Eigenvalues...)
	out.Components = append([]float64(nil), st.Components...)
	return out
}

// trimCols keeps the first m columns of the row-major components.
func trimCols(st *ModelState, m int) {
	nc := len(st.Components) / len(st.Mean)
	var out []float64
	for i := range st.Mean {
		out = append(out, st.Components[i*nc:i*nc+m]...)
	}
	st.Components = out
}
