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
	// HShare is the initial fraction of capacity given to the H-cache.
	// The paper's default Size_hcache:Size_lcache ratio is 9:1.
	HShare float64
	// Partition selects static or frequency-adaptive partitioning.
	Partition PartitionPolicy
	// PackageBytes is the dynamic-packaging unit (≥1 MB in the paper).
	PackageBytes int
	// HitLatency is the per-sample cost of a cache-served request.
	HitLatency time.Duration
	// Substitute selects the L-miss substitution policy.
	Substitute SubstitutePolicy
	// EnableLCache turns the L-cache + dynamic packaging on. Disabling it
	// gives the "+HC" ablation rung of Fig. 10 (the "+IIS" rung — IIS over
	// a plain LRU — is built from the cache package's baselines instead).
	EnableLCache bool
	// ProbeBatches is the number of mini-batches measured per phase of the
	// multi-job cache-benefit estimation (20 cacheless + 20 cached in the
	// paper). Probing only happens when more than one job is registered.
	ProbeBatches int
	// BenefitThreshold is the Ratio_benefit above which a job is
	// cache-eligible. The paper uses 1.5 on end-to-end mini-batch times;
	// this reproduction measures per-request fetch latency, which spans a
	// smaller dynamic range (compute overlap is not in the probe), so the
	// default is recalibrated to 1.1 to classify the same jobs as eligible.
	BenefitThreshold float64
	// FreqDecay smooths the per-epoch access-frequency estimates used by
	// PartitionByFrequency.
	FreqDecay float64
	// Packaging selects dynamic (the paper's contribution) or static
	// (prior-work baseline) package composition for the loading thread.
	Packaging PackagingMode
	// Tier2Bytes enables the §VI local-storage spill tier: H-cache
	// evictions land on a local NVMe/PM device of this capacity, and
	// H-misses check it before paying a remote read. 0 disables the tier.
	Tier2Bytes int64
	// Tier2ReadLatency and Tier2Bandwidth model the local device (defaults
	// target a data-center NVMe: 80µs, 2 GB/s).
	Tier2ReadLatency time.Duration
	Tier2Bandwidth   float64
	// Clairvoyant enables planned cross-epoch prefetching: because the IIS
	// sampler draws the next epoch's schedule before the epoch begins, the
	// future access sequence is known in advance (the NoPFS premise).
	// BeginEpoch then feeds the schedule into PlanSchedule so the background
	// loader composes its packages from exactly the L-samples the epoch will
	// consume (in first-access order) instead of waiting for misses. This
	// field switches the simulation only; on the byte-serving RPC path the
	// client that sends BeginEpochPlan is the switch, and the plan is the
	// only thing that prefetches: its missing H-samples are pre-placed by the
	// server's prefetch pool inside its backend-read budget, and its L-side
	// seeds the loader, whose samples get their bytes on first request. Off
	// by default: the simulated loader packs from misses and random fill.
	Clairvoyant bool
	// RepackPerSample is the loading thread's bookkeeping cost per sample
	// packed: dynamic packaging must gather each scattered L-sample from
	// its original location (a server-side seek-bound read), write it into
	// the reorganized package, and update metadata before the package can
	// be loaded — re-packing is not free. This throttles how many fresh
	// substitutable samples reach the L-cache per second and is the knob
	// that calibrates the L-cache's hit-ratio contribution to the paper's
	// Fig. 11 (≈12 points on top of the H-cache's 25%).
	RepackPerSample time.Duration
}

// DefaultConfig returns the paper's defaults for a given capacity.
func DefaultConfig(capacityBytes int64) Config {
	return Config{
		CapacityBytes:    capacityBytes,
		HShare:           0.9,
		Partition:        PartitionStatic,
		PackageBytes:     1 << 20,
		HitLatency:       20 * time.Microsecond,
		Substitute:       SubstituteLCache,
		EnableLCache:     true,
		ProbeBatches:     20,
		BenefitThreshold: 1.1,
		FreqDecay:        0.5,
		Tier2ReadLatency: 80 * time.Microsecond,
		Tier2Bandwidth:   2e9,
		RepackPerSample:  1700 * time.Microsecond,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("icache: CapacityBytes=%d, want > 0", c.CapacityBytes)
	case c.HShare <= 0 || c.HShare >= 1:
		return fmt.Errorf("icache: HShare=%g, want (0,1)", c.HShare)
	case c.PackageBytes <= 0:
		return fmt.Errorf("icache: PackageBytes=%d, want > 0", c.PackageBytes)
	case c.HitLatency < 0:
		return fmt.Errorf("icache: negative HitLatency %v", c.HitLatency)
	case c.ProbeBatches < 0:
		return fmt.Errorf("icache: ProbeBatches=%d, want >= 0", c.ProbeBatches)
	case c.BenefitThreshold <= 0:
		return fmt.Errorf("icache: BenefitThreshold=%g, want > 0", c.BenefitThreshold)
	case c.FreqDecay < 0 || c.FreqDecay >= 1:
		return fmt.Errorf("icache: FreqDecay=%g, want [0,1)", c.FreqDecay)
	case c.RepackPerSample < 0:
		return fmt.Errorf("icache: negative RepackPerSample %v", c.RepackPerSample)
	case c.Tier2Bytes < 0:
		return fmt.Errorf("icache: negative Tier2Bytes %d", c.Tier2Bytes)
	case c.Tier2Bytes > 0 && (c.Tier2ReadLatency < 0 || c.Tier2Bandwidth <= 0):
		return fmt.Errorf("icache: tier2 enabled with latency %v bandwidth %g", c.Tier2ReadLatency, c.Tier2Bandwidth)
	}
	return nil
}
