// Package identify pins down the OD flows responsible for each alarm
// raised by the subspace method, using the paper's procedure: "determine
// the smallest set of OD flows, which if removed from the corresponding
// statistic, would bring it under threshold" (Section 4).
//
// Exact minimality is a set-cover-like search; as in the paper's own
// practice, a greedy largest-contribution-first removal is used, which is
// exact whenever one flow dominates the statistic (the common case) and
// near-minimal otherwise.
//
// AttributeLive attributes one scored traffic vector against the model
// generation that scored it. It is the identification step of the one
// detection chain: the streaming lanes call it per alarmed bin, and the
// batch Run.Detect calls it on every alarmed row of the whole-run fit.
package identify

import (
	"netwide/internal/engine"
	"netwide/internal/mat"
)

// Attribution is the outcome for one alarm.
type Attribution struct {
	Alarm engine.Alarm
	// ODs are the column indexes (OD-pair indexes) whose removal brings
	// the statistic under its threshold, in decreasing order of
	// contribution.
	ODs []int
	// Residuals holds the centered residual (SPE alarms) or centered
	// traffic (T² alarms) value of each identified OD at the alarm bin;
	// the sign distinguishes spikes from dips.
	Residuals []float64
}

// MaxODsPerAlarm caps the identified set; alarms needing more flows than
// this are network-wide shifts and keeping every flow would not sharpen
// classification.
const MaxODsPerAlarm = 24

// AttributeLive attributes one already-scored traffic vector against the
// model generation that scored it, returning one Attribution per alarmed
// statistic (nil when the vector is clean). The vector is decomposed with
// engine.Model.Split, whose residual is the one the SPE was summed over.
func AttributeLive(m *engine.Model, bin int, x []float64, pt engine.Point) ([]Attribution, error) {
	if !pt.SPEAlarm && !pt.T2Alarm {
		return nil, nil
	}
	modeled, residual, err := m.Split(x)
	if err != nil {
		return nil, err
	}
	qLimit, t2Limit := m.Limits()
	var out []Attribution
	if pt.SPEAlarm {
		a := engine.Alarm{Bin: bin, Stat: engine.StatSPE, Value: pt.SPE, Limit: qLimit}
		ods, res := speFlows(residual, pt.SPE, qLimit)
		out = append(out, Attribution{Alarm: a, ODs: ods, Residuals: res})
	}
	if pt.T2Alarm {
		a := engine.Alarm{Bin: bin, Stat: engine.StatT2, Value: pt.T2, Limit: t2Limit}
		// Centered traffic, reassembled as modeled + residual.
		xc := make([]float64, len(modeled))
		for i := range xc {
			xc[i] = modeled[i] + residual[i]
		}
		ods, res := t2Flows(m.PCA(), m.Opts().K, xc, t2Limit)
		out = append(out, Attribution{Alarm: a, ODs: ods, Residuals: res})
	}
	return out, nil
}

// speFlows removes OD flows from the residual vector in decreasing order
// of squared residual, the lower OD index first among equals, until
// ‖x̃‖² <= δ² or MaxODsPerAlarm flows are gone.
//
// The walk never looks past the MaxODsPerAlarm largest contributions, so
// only those are ranked: one pass inserts each into a fixed, ordered
// array, and a contribution no larger than the array's last is dropped
// without a move.
func speFlows(row []float64, value, limit float64) (ods []int, residuals []float64) {
	var (
		top [MaxODsPerAlarm]int     // OD indexes, largest contribution first
		sqs [MaxODsPerAlarm]float64 // their squared residuals
		n   int
	)
	for od, v := range row {
		sq := v * v
		if n == len(top) {
			if sq <= sqs[n-1] {
				continue
			}
			n-- // the last contribution drops out
		}
		i := n
		n++
		for ; i > 0 && sq > sqs[i-1]; i-- {
			top[i], sqs[i] = top[i-1], sqs[i-1]
		}
		top[i], sqs[i] = od, sq
	}
	take, remaining := 0, value
	for take < n && remaining > limit {
		remaining -= sqs[take]
		take++
	}
	if take == 0 {
		if n == 0 {
			return nil, nil
		}
		// Defensive: an SPE alarm always has at least one contributor.
		take = 1
	}
	ods, residuals = make([]int, take), make([]float64, take)
	for i, od := range top[:take] {
		ods[i], residuals[i] = od, row[od]
	}
	return ods, residuals
}

// t2Flows greedily removes the OD flow whose exclusion most reduces the T²
// statistic until it is under the limit. Removing OD flow f changes each
// normal-subspace score s_i by -xc_f * v_i[f], where xc is the centered
// traffic vector. Among removals that reduce it equally, the lower OD
// index wins.
func t2Flows(pca *mat.PCA, k int, xc []float64, limit float64) (ods []int, residuals []float64) {
	p := pca.P()
	scores := make([]float64, k)
	for i := 0; i < k; i++ {
		for f := 0; f < p; f++ {
			scores[i] += xc[f] * pca.Components.At(f, i)
		}
	}
	t2 := func(s []float64) float64 {
		var v float64
		for i := 0; i < k; i++ {
			l := pca.Eigenvalues[i]
			if l <= 0 {
				continue
			}
			v += s[i] * s[i] / l
		}
		return v
	}

	// trial holds the candidate's scores and bestScores the best so far;
	// a better candidate swaps them, so the scan allocates nothing.
	removed := make([]bool, p)
	trial, bestScores := make([]float64, k), make([]float64, k)
	cur := t2(scores)
	for cur > limit && len(ods) < MaxODsPerAlarm {
		best, bestDrop := -1, 0.0
		for f := 0; f < p; f++ {
			if removed[f] {
				continue
			}
			v := pca.Components.RowView(f)
			for i := 0; i < k; i++ {
				trial[i] = scores[i] - xc[f]*v[i]
			}
			drop := cur - t2(trial)
			if drop > bestDrop {
				best, bestDrop = f, drop
				trial, bestScores = bestScores, trial
			}
		}
		if best < 0 {
			break // no single removal reduces the statistic further
		}
		removed[best] = true
		ods = append(ods, best)
		residuals = append(residuals, xc[best])
		scores, bestScores = bestScores, scores
		cur = t2(scores)
	}
	if len(ods) == 0 {
		// Fall back to the largest |centered traffic| flow.
		best, bestAbs := 0, 0.0
		for f := 0; f < p; f++ {
			v := xc[f]
			if v < 0 {
				v = -v
			}
			if v > bestAbs {
				best, bestAbs = f, v
			}
		}
		ods = append(ods, best)
		residuals = append(residuals, xc[best])
	}
	return ods, residuals
}
