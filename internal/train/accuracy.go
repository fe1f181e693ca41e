package train

import (
	"math"

	"icache/internal/dataset"
	"icache/internal/sampling"
)

// SubSource classifies where a scheme's substituted samples come from, which
// determines how much substitution distorts the training distribution
// (§V-E): substituting from the L-cache only re-weights unimportant samples,
// while substituting from the H-cache (or importance-blind substitution à la
// Quiver) over-trains important ones and shifts the distribution importance
// sampling chose.
type SubSource int

const (
	// SubSourceNone means the scheme never substitutes.
	SubSourceNone SubSource = iota
	// SubSourceLCache is iCache's shipping policy.
	SubSourceLCache
	// SubSourceHCache substitutes with important samples (Table III's
	// ST_HC, and the severity class for importance-blind substitution).
	SubSourceHCache
)

// SubstitutionSourcer is optionally implemented by data services to declare
// their substitution severity; the string is one of "none", "lcache", or
// "hcache". Schemes that do not implement it but still substitute are
// treated as "hcache" (importance-blind substitution carries the same
// distribution distortion). The contract is stringly typed so cache
// implementations do not need to import this package.
type SubstitutionSourcer interface {
	SubstitutionSource() string
}

// ParseSubSource maps a SubstitutionSourcer string to a SubSource.
func ParseSubSource(s string) SubSource {
	switch s {
	case "none":
		return SubSourceNone
	case "lcache":
		return SubSourceLCache
	default:
		return SubSourceHCache
	}
}

// Accuracy distortion coefficients, in percentage points. Calibrated so the
// paper's bounds hold: iCache loses <1% Top-1 on CIFAR-class datasets and
// <2% on ImageNet-class ones (Tables I/II), and ST_HC loses visibly more
// than ST_LC (Table III).
const (
	// skipCoeff scales the penalty for samples never trained in an epoch,
	// weighted by how important the skipped samples were.
	skipCoeff = 4.0
	// subLCCoeff scales the penalty per L-cache-substituted request.
	subLCCoeff = 5.0
	// subHCCoeff scales the penalty per H-cache/importance-blind
	// substituted request.
	subHCCoeff = 8.0
	// subSaturation caps the effective substitution fraction: beyond it,
	// additional substitutions redraw from the same distributional mass the
	// earlier ones already covered, so the marginal distortion vanishes.
	// Without the cap a compute-bound job whose loader substitutes most
	// L-requests would be charged far past the paper's observed bounds.
	subSaturation = 0.15
	// top5Damping is how much less Top-5 accuracy suffers than Top-1.
	top5Damping = 0.35
)

// accuracyModel tracks a job's accumulated training-signal distortion and
// converts it into Top-1/Top-5 accuracy estimates.
type accuracyModel struct {
	model ModelProfile
	spec  dataset.Spec

	// penEMA is the smoothed per-epoch distortion in accuracy points.
	penEMA  float64
	epochs  int
	rngSalt uint64
}

func newAccuracyModel(model ModelProfile, spec dataset.Spec, salt uint64) *accuracyModel {
	return &accuracyModel{model: model, spec: spec, rngSalt: salt}
}

// epochDistortion computes one epoch's distortion in accuracy points.
//
//   - trainedFrac: fraction of the dataset trained at least once this epoch.
//   - skippedImportance: mean importance percentile (0..1) of the samples
//     that were skipped — uniform skipping hurts much more than skipping
//     the least important tail, which is why importance sampling works.
//   - subLCFrac / subHCFrac: substituted requests as a fraction of trained
//     samples, split by substitution source.
func epochDistortion(sens, trainedFrac, skippedImportance, subLCFrac, subHCFrac float64) float64 {
	missed := 1 - trainedFrac
	if missed < 0 {
		missed = 0
	}
	if subLCFrac > subSaturation {
		subLCFrac = subSaturation
	}
	if subHCFrac > subSaturation {
		subHCFrac = subSaturation
	}
	p := skipCoeff * missed * skippedImportance * skippedImportance
	p += subLCCoeff * subLCFrac
	p += subHCCoeff * subHCFrac
	return p * sens
}

// observeEpoch folds one epoch's distortion into the running state.
func (a *accuracyModel) observeEpoch(distortion float64) {
	// Early epochs matter less for the final model; smooth with an EMA so
	// transient warm-up behaviour (cold caches, probe phases) washes out.
	const beta = 0.7
	if a.epochs == 0 {
		a.penEMA = distortion
	} else {
		a.penEMA = beta*a.penEMA + (1-beta)*distortion
	}
	a.epochs++
}

// accuracy returns the (Top-1, Top-5) estimate after the observed epochs.
func (a *accuracyModel) accuracy() (top1, top5 float64) {
	conv := 1 - math.Exp(-float64(a.epochs)/a.model.Tau)
	// Small deterministic run-to-run jitter (±0.05 points), as real
	// training exhibits.
	jitter := 0.1 * (dataset.Unit(uint64(a.epochs), a.rngSalt) - 0.5)
	top1 = a.model.BaseTop1*conv - a.penEMA + jitter
	top5 = a.model.BaseTop5*conv - top5Damping*a.penEMA + jitter*top5Damping
	if top1 < 0 {
		top1 = 0
	}
	if top5 > 100 {
		top5 = 100
	}
	if top5 < top1 {
		top5 = top1
	}
	return top1, top5
}

// skippedImportanceMean computes the mean importance percentile of the
// samples NOT fetched this epoch. fetched must be the epoch's schedule.
func skippedImportanceMean(tr *sampling.Tracker, fetched []dataset.SampleID) float64 {
	n := tr.Len()
	if len(fetched) >= n {
		return 0
	}
	perc := tr.Percentiles()
	seen := make([]bool, n)
	for _, id := range fetched {
		seen[id] = true
	}
	var sum float64
	count := 0
	for i := 0; i < n; i++ {
		if !seen[i] {
			sum += perc[i]
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
