package metrics

// DecisionStats is the decision-level introspection ledger: every removal,
// admission, prefetch and substitution carries a reason code, so operators
// can answer "why did hit ratio dip in epoch 7?" from counters instead of a
// debugger.
//
// Two conservation identities hold at epoch boundaries (pinned by
// TestDecisionLedgerConservation):
//
//	EvictCapacity + EvictDeadOwner + EvictScrub + EvictCheckpointDenied
//	  + EvictDirUnavailable                                             == EvictTotal
//	PrefetchInTime + PrefetchLate + PrefetchWasted + PrefetchDropped   == PrefetchIssued
//
// The prefetch identity only balances at epoch boundaries because samples
// prefetched but not yet touched are still pending; the epoch sweep
// reclassifies the remainder as wasted (the selection that wanted them is
// over).
type DecisionStats struct {
	// Eviction reasons. Capacity is the policy's own insert-pressure
	// evictions (the paper's H/L replacement); the others are directed
	// drops: dead-owner (the directory credits the sample to another node),
	// scrub (anti-entropy sweep repair), checkpoint-denied (a restored
	// resident whose ownership replay was denied after rejoin),
	// dir-unavailable (the admission's claim got no answer).
	EvictCapacity         int64
	EvictDeadOwner        int64
	EvictScrub            int64
	EvictCheckpointDenied int64
	EvictDirUnavailable   int64
	// EvictTotal is counted independently at the removal core, so the sum
	// identity is a real wiring check, not an arithmetic tautology.
	EvictTotal int64

	// Admission provenance: what motivated each payload-store insert.
	// Peer-fetched bytes are forwarded, never admitted locally, so they have
	// no class here. AdmitPackage counts the L-cache package members the
	// wire's loader read and delivered.
	AdmitFetch     int64
	AdmitPrefetch  int64
	AdmitRehydrate int64
	AdmitPackage   int64

	// Prefetch outcome ledger. Issued counts every id offered to the pool;
	// in-time means the prefetched payload served a request before anything
	// else happened to it, late means the foreground beat the worker to the
	// fetch, wasted means it was evicted (or the epoch ended) untouched,
	// dropped folds queue-full, paused and failed fetches together.
	PrefetchIssued  int64
	PrefetchInTime  int64
	PrefetchLate    int64
	PrefetchWasted  int64
	PrefetchDropped int64

	// Substitution quality: exact means the same-region L-cache walk found
	// a loaded neighbour (the paper's intended substitution), fallback
	// means the cross-region H-resident fallback fired instead.
	SubExact    int64
	SubFallback int64

	// Per-epoch residency composition, snapshotted at the last epoch
	// boundary: how many H- and L-samples (and bytes) were resident the
	// moment the epoch turned. Gauges, not counters.
	Epoch       int64
	EpochHCount int64
	EpochLCount int64
	EpochHBytes int64
	EpochLBytes int64
}

// PrefetchTimeliness reports the fraction of completed prefetches that
// arrived in time to serve a request: in-time / (in-time + late + wasted).
// Zero when no prefetch has resolved yet.
func (d DecisionStats) PrefetchTimeliness() float64 {
	resolved := d.PrefetchInTime + d.PrefetchLate + d.PrefetchWasted
	if resolved == 0 {
		return 0
	}
	return float64(d.PrefetchInTime) / float64(resolved)
}
