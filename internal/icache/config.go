// Package icache implements the paper's contribution: the
// importance-sampling-informed cache. A Server combines
//
//   - an H-cache holding high-importance samples, managed by the
//     importance-informed replacement algorithm over a shadowed min-heap
//     (§III-B),
//   - an L-cache holding low-importance samples loaded by a dynamic-packaging
//     background loader and served with substitutability (§III-C),
//   - a cache manager that partitions capacity between the two regions and
//     pulls H-lists from clients (§III-A),
//   - a multi-job coordinator that estimates per-job caching benefit and
//     aggregates relative importance values (§III-D), and
//   - a distributed mode where per-node servers share a key-value directory
//     so cached items are never duplicated (§III-E).
package icache

import (
	"fmt"
	"time"
)

// SubstitutePolicy selects how an L-cache miss is served (§V-E, Table III).
type SubstitutePolicy int

const (
	// SubstituteLCache replaces a missed L-sample with an unused L-cache
	// resident — the policy iCache ships with, because it preserves the
	// H-sample distribution chosen by importance sampling.
	SubstituteLCache SubstitutePolicy = iota
	// SubstituteHCache replaces a missed L-sample with an H-cache resident.
	// Implemented only for the Table III accuracy comparison.
	SubstituteHCache
	// SubstituteNone disables substitution: every L-miss goes to storage
	// (the "Def" column of Table III).
	SubstituteNone
)

// String implements fmt.Stringer.
func (p SubstitutePolicy) String() string {
	switch p {
	case SubstituteLCache:
		return "st-lc"
	case SubstituteHCache:
		return "st-hc"
	case SubstituteNone:
		return "none"
	default:
		return fmt.Sprintf("SubstitutePolicy(%d)", int(p))
	}
}

// PartitionPolicy selects how the H-cache/L-cache split evolves.
type PartitionPolicy int

const (
	// PartitionStatic keeps the initial split (the paper's reported
	// operating point is 9:1 and its single-job evaluation holds there).
	PartitionStatic PartitionPolicy = iota
	// PartitionByFrequency applies the paper's §III-A formula
	// Size_hcache = Size_cache × Freq_H / (Freq_H + Freq_L) with per-sample
	// access frequencies smoothed across epochs. (Interpreting the formula
	// over raw request counts would shrink the H-cache far below the 9:1
	// operating point the paper itself reports, so the per-sample reading
	// is used; see DESIGN.md.)
	PartitionByFrequency
)

// String implements fmt.Stringer.
func (p PartitionPolicy) String() string {
	switch p {
	case PartitionStatic:
		return "static"
	case PartitionByFrequency:
		return "freq"
	default:
		return fmt.Sprintf("PartitionPolicy(%d)", int(p))
	}
}

// PackagingMode selects how the loading thread forms L-sample packages.
type PackagingMode int

const (
	// PackagingDynamic is iCache's §III-C design: packages are composed at
	// runtime from recently missed L-samples plus random fill, so every
	// loaded byte is a cacheable, currently useful sample.
	PackagingDynamic PackagingMode = iota
	// PackagingStatic models prior work (TFRecord/WebDataset-style): the
	// dataset is pre-packed into fixed chunks of consecutive IDs; serving a
	// missed L-sample loads its whole chunk, including members that are
	// H-samples, already cached, or already consumed — the read
	// amplification §II-C describes.
	PackagingStatic
)

// String implements fmt.Stringer.
func (p PackagingMode) String() string {
	switch p {
	case PackagingDynamic:
		return "dynamic"
	case PackagingStatic:
		return "static"
	default:
		return fmt.Sprintf("PackagingMode(%d)", int(p))
	}
}

// Config parameterizes an iCache server.
type Config struct {
	// CapacityBytes is the total cache budget (H-cache + L-cache).
	CapacityBytes int64
	// Partition selects static or frequency-adaptive partitioning.
	Partition PartitionPolicy
	// Substitute selects the L-miss substitution policy.
	Substitute SubstitutePolicy
	// EnableLCache turns the L-cache + dynamic packaging on. Disabling it
	// gives the "+HC" ablation rung of Fig. 10 (the "+IIS" rung — IIS over
	// a plain LRU — is built from the cache package's baselines instead).
	EnableLCache bool
	// Packaging selects dynamic packages composed by the background loading
	// thread (the paper's contribution) or static pre-packed chunks read in
	// the foreground on an L-miss (the prior-work baseline).
	Packaging PackagingMode
	// Tier2Bytes enables the §VI local-storage spill tier: H-cache
	// evictions land on a local NVMe/PM device of this capacity, and
	// H-misses check it before paying a remote read. 0 disables the tier.
	Tier2Bytes int64
}

// InitialHShare is the fraction of capacity the H-cache starts with: the
// paper's default Size_hcache:Size_lcache ratio of 9:1. PartitionByFrequency
// moves it from there (Server.HShare reports where it is).
const InitialHShare = 0.9

// The simulated server's fixed costs and tunings. A cache-served request
// costs storage.HitLatency, the one hit cost iCache and the baselines share.
const (
	// packageBytes is the dynamic-packaging unit (≥1 MB in the paper).
	packageBytes = 1 << 20
	// repackPerSample is the loading thread's bookkeeping cost per sample
	// packed: dynamic packaging must gather each scattered L-sample from
	// its original location (a server-side seek-bound read), write it into
	// the reorganized package, and update metadata before the package can
	// be loaded — re-packing is not free. This throttles how many fresh
	// substitutable samples reach the L-cache per second and is the cost
	// that calibrates the L-cache's hit-ratio contribution to the paper's
	// Fig. 11 (≈12 points on top of the H-cache's 25%).
	repackPerSample = 1700 * time.Microsecond
	// benefitThreshold is the Ratio_benefit above which a job is
	// cache-eligible. The paper uses 1.5 on end-to-end mini-batch times;
	// this reproduction measures per-request fetch latency, which spans a
	// smaller dynamic range (compute overlap is not in the probe), so it is
	// recalibrated to 1.1 to classify the same jobs as eligible.
	benefitThreshold = 1.1
	// probeBatches is the number of mini-batches measured per phase of the
	// multi-job cache-benefit estimation (20 cacheless + 20 cached in the
	// paper). Probing only happens when more than one job is registered.
	probeBatches = 20
	// freqDecay smooths the per-epoch access-frequency estimates used by
	// PartitionByFrequency.
	freqDecay = 0.5
	// tier2ReadLatency and tier2Bandwidth model the spill tier's local
	// device, a data-center NVMe.
	tier2ReadLatency = 80 * time.Microsecond
	tier2Bandwidth   = 2e9
)

// DefaultConfig returns the paper's defaults for a given capacity.
func DefaultConfig(capacityBytes int64) Config {
	return Config{
		CapacityBytes: capacityBytes,
		Partition:     PartitionStatic,
		Substitute:    SubstituteLCache,
		EnableLCache:  true,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("icache: CapacityBytes=%d, want > 0", c.CapacityBytes)
	case c.Tier2Bytes < 0:
		return fmt.Errorf("icache: negative Tier2Bytes %d", c.Tier2Bytes)
	}
	return nil
}
