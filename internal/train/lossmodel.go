package train

import (
	"math"

	"icache/internal/dataset"
)

// LossModel produces per-sample training losses with the two properties the
// paper's importance-sampling machinery depends on:
//
//  1. Losses decay as a sample is trained more, with hard samples (high
//     intrinsic difficulty) decaying slower and to a higher floor — so the
//     top of the loss ranking is persistent enough for a history-based
//     H-list to be worth caching.
//  2. Losses carry epoch-varying noise — so a sample's importance value
//     drifts across epochs, reproducing Fig. 3 and forcing the H-heap's
//     shadow-refresh machinery to earn its keep.
//
// This is the substitution for real SGD loss signals; the constants are
// chosen so the loss distribution is right-skewed (most samples become easy)
// like the empirical distributions in the loss-based IS literature.
type LossModel struct {
	spec      dataset.Spec
	modelSalt uint64
	count     []int32 // times each sample has been trained
	epoch     int
}

// NewLossModel builds a loss model for the dataset as seen by one DNN
// architecture. modelSalt perturbs which samples the model finds hard:
// different architectures broadly agree on difficulty but not exactly, and
// that partial disagreement is what the paper's multi-job experiment (two
// models ranking the same dataset differently) relies on. Salt 0 gives the
// dataset's intrinsic difficulty unmodified.
func NewLossModel(spec dataset.Spec, modelSalt uint64) (*LossModel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &LossModel{spec: spec, modelSalt: modelSalt, count: make([]int32, spec.NumSamples)}, nil
}

// difficulty is the sample's difficulty through this model's eyes: the
// intrinsic value with a bounded model-specific perturbation.
func (m *LossModel) difficulty(id dataset.SampleID) float64 {
	d := m.spec.Difficulty(id)
	if m.modelSalt == 0 {
		return d
	}
	d += 0.6 * (dataset.Unit(uint64(id), m.modelSalt) - 0.5)
	if d < 0.02 {
		d = 0.02
	}
	if d > 0.98 {
		d = 0.98
	}
	return d
}

// BeginEpoch advances the noise phase; call once per training epoch.
func (m *LossModel) BeginEpoch(epoch int) { m.epoch = epoch }

// Peek returns the loss the sample would report if trained now, without
// recording a training step.
func (m *LossModel) Peek(id dataset.SampleID) float64 {
	return m.loss(id, m.count[id])
}

// Train records one training step on the sample and returns its loss.
func (m *LossModel) Train(id dataset.SampleID) float64 {
	l := m.loss(id, m.count[id])
	m.count[id]++
	return l
}

// TrainCount reports how many times a sample has been trained.
func (m *LossModel) TrainCount(id dataset.SampleID) int { return int(m.count[id]) }

// loss computes the deterministic loss value for a sample with k prior
// training exposures at the current epoch.
func (m *LossModel) loss(id dataset.SampleID, k int32) float64 {
	d := m.difficulty(id)
	const initLoss = 2.3 // ≈ ln(10): untrained CIFAR10-style cross-entropy
	floor := 0.04 + 2.0*d*d
	rate := 0.45 * (1.15 - d)
	base := floor + (initLoss-floor)*math.Exp(-rate*float64(k))
	// Epoch-correlated multiplicative noise, ±15%, deterministic in
	// (sample, epoch) so reruns reproduce exactly.
	noise := 0.30 * (dataset.Unit(uint64(id)*2654435761+uint64(m.epoch), m.spec.Seed^0x105E) - 0.5)
	l := base * (1 + noise)
	if l < 0.01 {
		l = 0.01
	}
	return l
}
