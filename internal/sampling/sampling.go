// Package sampling implements the importance-sampling machinery of the
// paper: the loss-based importance tracker ([18] in the paper — a sample's
// importance is its historical training loss), the H-list exchanged between
// client and cache server, and the three epoch samplers the evaluation
// compares:
//
//   - Uniform: every sample, random order, exactly once (the Default baseline).
//   - CIS (computing-oriented IS): every sample is still *fetched*, but only
//     an importance-biased subset is *computed* — this is what all prior IS
//     work does and why it cannot help I/O-bound training (§II-B).
//   - IIS (I/O-oriented IS, the paper's idea): the subset to train is chosen
//     *before* the epoch from historical importance, so unselected samples
//     are never fetched at all.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"icache/internal/dataset"
)

// Tracker maintains per-sample importance values derived from observed
// training losses. Following the loss-based algorithm the paper adopts,
// the importance value is an exponential moving average of the sample's
// loss; samples not trained in an epoch keep their stale value, exactly as
// §III-A specifies ("Otherwise, its importance value will be unchanged").
type Tracker struct {
	iv    []float64
	decay float64 // weight kept from the previous value on each observation
}

// NewTracker creates a tracker for n samples. Every sample starts at
// initIV; a high initial value means untrained samples look important, so
// they all get fetched and measured early — the behaviour loss-based IS
// needs for a sound warm-up. decay in [0,1) controls smoothing: 0 keeps
// just the latest loss.
func NewTracker(n int, initIV, decay float64) (*Tracker, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sampling: tracker size %d, want > 0", n)
	}
	if decay < 0 || decay >= 1 {
		return nil, fmt.Errorf("sampling: decay %g, want [0,1)", decay)
	}
	t := &Tracker{iv: make([]float64, n), decay: decay}
	for i := range t.iv {
		t.iv[i] = initIV
	}
	return t, nil
}

// Len reports the number of tracked samples.
func (t *Tracker) Len() int { return len(t.iv) }

// Observe folds a freshly measured loss into the sample's importance value.
func (t *Tracker) Observe(id dataset.SampleID, loss float64) {
	t.iv[id] = t.decay*t.iv[id] + (1-t.decay)*loss
}

// Value returns the current importance value of a sample.
func (t *Tracker) Value(id dataset.SampleID) float64 { return t.iv[id] }

// Values returns a copy of all importance values indexed by sample ID.
func (t *Tracker) Values() []float64 {
	return append([]float64(nil), t.iv...)
}

// Percentiles returns each sample's relative importance value (RIV): its
// percentile position in [0,1] within the whole training set, the quantity
// the multi-job module aggregates across jobs (§III-D). Ties share the rank
// of their first occurrence, and ranks are normalized by n-1 so the largest
// value maps to 1.
func (t *Tracker) Percentiles() []float64 {
	n := len(t.iv)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.iv[idx[a]] < t.iv[idx[b]] })
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for rank, i := range idx {
		r := rank
		// Give equal values equal percentiles.
		if r > 0 && t.iv[i] == t.iv[idx[r-1]] {
			out[i] = out[idx[r-1]]
			continue
		}
		out[i] = float64(r) / float64(n-1)
	}
	return out
}

// Item is one H-list element: the <ID, IV> vector of §III-A.
type Item struct {
	ID dataset.SampleID
	IV float64
}

// HList records the training job's current H-samples, ordered by descending
// importance. It is what the client pushes to (and the cache manager pulls
// from) the server.
type HList struct {
	Items []Item
	set   map[dataset.SampleID]struct{}
}

// BuildHList returns the top-k samples by importance value. Ties beyond the
// cut break by ascending ID for determinism. k larger than the dataset is
// clamped.
func (t *Tracker) BuildHList(k int) *HList {
	if k < 0 {
		k = 0
	}
	if k > len(t.iv) {
		k = len(t.iv)
	}
	idx := make([]int, len(t.iv))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if t.iv[idx[a]] != t.iv[idx[b]] {
			return t.iv[idx[a]] > t.iv[idx[b]]
		}
		return idx[a] < idx[b]
	})
	h := &HList{Items: make([]Item, k), set: make(map[dataset.SampleID]struct{}, k)}
	for i := 0; i < k; i++ {
		id := dataset.SampleID(idx[i])
		h.Items[i] = Item{ID: id, IV: t.iv[idx[i]]}
		h.set[id] = struct{}{}
	}
	return h
}

// NewHList builds an H-list directly from items (used when deserializing
// from the wire).
func NewHList(items []Item) *HList {
	h := &HList{Items: append([]Item(nil), items...), set: make(map[dataset.SampleID]struct{}, len(items))}
	for _, it := range h.Items {
		h.set[it.ID] = struct{}{}
	}
	return h
}

// Contains reports whether id is an H-sample.
func (h *HList) Contains(id dataset.SampleID) bool {
	if h == nil {
		return false
	}
	_, ok := h.set[id]
	return ok
}

// Len reports the number of H-samples.
func (h *HList) Len() int {
	if h == nil {
		return 0
	}
	return len(h.Items)
}

// Schedule is one epoch's data-access plan. Fetch lists the samples the
// data loader will request, in order; Train marks which of those feed the
// GPU (CIS fetches everything but skips compute for some).
type Schedule struct {
	Fetch []dataset.SampleID
	Train []bool
}

// TrainedCount reports how many fetched samples are computed on.
func (s Schedule) TrainedCount() int {
	n := 0
	for _, t := range s.Train {
		if t {
			n++
		}
	}
	return n
}

// Batches splits the fetch order into mini-batches of size bs; the last
// batch may be short.
func (s Schedule) Batches(bs int) [][]dataset.SampleID {
	if bs <= 0 {
		panic(fmt.Sprintf("sampling: batch size %d", bs))
	}
	var out [][]dataset.SampleID
	for i := 0; i < len(s.Fetch); i += bs {
		j := i + bs
		if j > len(s.Fetch) {
			j = len(s.Fetch)
		}
		out = append(out, s.Fetch[i:j])
	}
	return out
}

// UniformSchedule is the Default baseline: a full random permutation, every
// sample trained.
func UniformSchedule(n int, rng *rand.Rand) Schedule {
	fetch := make([]dataset.SampleID, n)
	for i := range fetch {
		fetch[i] = dataset.SampleID(i)
	}
	rng.Shuffle(n, func(i, j int) { fetch[i], fetch[j] = fetch[j], fetch[i] })
	train := make([]bool, n)
	for i := range train {
		train[i] = true
	}
	return Schedule{Fetch: fetch, Train: train}
}

// The computing-oriented IS baseline's shares, matching the paper's observed
// ~1.3× compute reduction.
const (
	// cisComputeFraction is the share of fetched samples actually computed.
	cisComputeFraction = 0.77
	// cisHFraction is the share of the dataset treated as important;
	// important samples are always computed, the rest fill the compute
	// budget randomly.
	cisHFraction = 0.2
)

// CISSchedule fetches every sample (random order) but computes only an
// importance-biased subset: the top cisHFraction by importance always train;
// the remaining compute budget is spread uniformly over the rest.
func CISSchedule(t *Tracker, rng *rand.Rand) Schedule {
	n := t.Len()
	s := UniformSchedule(n, rng)
	hCount := int(cisHFraction * float64(n))
	h := t.BuildHList(hCount)
	budget := int(cisComputeFraction*float64(n)) - hCount
	lTotal := n - hCount
	var pL float64
	if lTotal > 0 && budget > 0 {
		pL = float64(budget) / float64(lTotal)
	}
	for i, id := range s.Fetch {
		if h.Contains(id) {
			s.Train[i] = true
		} else {
			s.Train[i] = rng.Float64() < pL
		}
	}
	return s
}

// IISConfig parameterizes the paper's I/O-oriented importance sampling.
type IISConfig struct {
	// TargetFraction is the share of the dataset fetched+trained per epoch.
	// The paper's ablation reports IIS cutting I/Os by up to 31.4%, i.e. a
	// target around 0.7.
	TargetFraction float64
	// HFraction is the share of the dataset considered H-samples (sized to
	// the cache in the paper's configuration, 0.2 by default).
	HFraction float64
	// HSelectProb is the per-epoch selection probability of an H-sample.
	// Below 1 so even H-samples rotate, preserving some diversity.
	HSelectProb float64
}

// DefaultIIS returns the configuration used across the evaluation.
func DefaultIIS() IISConfig {
	return IISConfig{TargetFraction: 0.7, HFraction: 0.2, HSelectProb: 0.95}
}

// Validate reports whether the config is sane.
func (c IISConfig) Validate() error {
	switch {
	case c.TargetFraction <= 0 || c.TargetFraction > 1:
		return fmt.Errorf("sampling: TargetFraction %g, want (0,1]", c.TargetFraction)
	case c.HFraction < 0 || c.HFraction > 1:
		return fmt.Errorf("sampling: HFraction %g, want [0,1]", c.HFraction)
	case c.HSelectProb < 0 || c.HSelectProb > 1:
		return fmt.Errorf("sampling: HSelectProb %g, want [0,1]", c.HSelectProb)
	}
	return nil
}

// IISSchedule chooses the epoch's subset before it starts, from historical
// importance values: H-samples are selected with HSelectProb, and the rest
// of the TargetFraction budget is filled by uniformly selected L-samples
// (the diversity the paper's L-cache exists to serve). Selected samples are
// fetched exactly once in random order and all of them train.
func IISSchedule(t *Tracker, cfg IISConfig, rng *rand.Rand) (Schedule, *HList) {
	n := t.Len()
	hCount := int(cfg.HFraction * float64(n))
	h := t.BuildHList(hCount)

	target := int(cfg.TargetFraction * float64(n))
	expectedH := cfg.HSelectProb * float64(hCount)
	budget := float64(target) - expectedH
	lTotal := n - hCount
	var pL float64
	if lTotal > 0 && budget > 0 {
		pL = budget / float64(lTotal)
		if pL > 1 {
			pL = 1
		}
	}

	fetch := make([]dataset.SampleID, 0, target+target/8)
	for _, it := range h.Items {
		if rng.Float64() < cfg.HSelectProb {
			fetch = append(fetch, it.ID)
		}
	}
	for id := 0; id < n; id++ {
		sid := dataset.SampleID(id)
		if !h.Contains(sid) && rng.Float64() < pL {
			fetch = append(fetch, sid)
		}
	}
	rng.Shuffle(len(fetch), func(i, j int) { fetch[i], fetch[j] = fetch[j], fetch[i] })
	train := make([]bool, len(fetch))
	for i := range train {
		train[i] = true
	}
	return Schedule{Fetch: fetch, Train: train}, h
}
