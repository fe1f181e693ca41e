package icache

import (
	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/metrics"
)

// Decision-level introspection for the policy engine: every directed
// removal carries a reason code, substitutions record which quality class
// served them, and epoch boundaries snapshot the H/L residency
// composition. All counters are mutated under the caller's policy lock
// (the same discipline as stats) and snapshotted into View's Ledger.

// DropReason classifies a directed removal (Server.DropFor) — a drop the
// policy did not choose itself. The type lives with the lifecycle steps
// that issue most of them (dkv/lifecycle.go), so a Server is their
// resident view as it stands.
type DropReason = dkv.DropReason

const (
	DropDeadOwner        = dkv.DropDeadOwner
	DropScrub            = dkv.DropScrub
	DropCheckpointDenied = dkv.DropCheckpointDenied
	DropDirUnavailable   = dkv.DropDirUnavailable
)

// decisionState holds the Server's introspection counters.
type decisionState struct {
	// directed is every successful DropFor, counted before the reason
	// switch, so reason-sum == directed is a wiring check on the reason
	// taxonomy rather than an arithmetic identity.
	directed             int64
	dropDeadOwner        int64
	dropScrub            int64
	dropCheckpointDenied int64
	dropDirUnavailable   int64

	subExact    int64
	subFallback int64

	// Residency composition at the last epoch boundary (the state the
	// previous epoch ended with).
	epochHCount, epochLCount int64
	epochHBytes, epochLBytes int64
}

// DropFor removes a sample from whichever cache region holds it, tagging
// the removal with its reason; it reports whether the sample was resident.
func (s *Server) DropFor(id dataset.SampleID, reason DropReason) bool {
	if !(s.h.remove(id) || s.l.remove(id)) {
		return false
	}
	s.dec.directed++
	switch reason {
	case DropScrub:
		s.dec.dropScrub++
	case DropCheckpointDenied:
		s.dec.dropCheckpointDenied++
	case DropDirUnavailable:
		s.dec.dropDirUnavailable++
	default:
		s.dec.dropDeadOwner++
	}
	return true
}

// noteSubstitution records which quality class served a substitution:
// exact is the same-region L-cache walk (the paper's intended
// substitutability), fallback the cross-region H-resident rung. Under a
// single-policy config one class is structurally zero; the split becomes
// informative when a cascading policy is active.
func (s *Server) noteSubstitution(policy SubstitutePolicy) {
	if policy == SubstituteLCache {
		s.dec.subExact++
	} else {
		s.dec.subFallback++
	}
}

// snapshotEpochResidency records the residency composition at an epoch
// boundary (called from startEpoch before any epoch-turn mutation, so it
// captures the state the finishing epoch ended with).
func (s *Server) snapshotEpochResidency() {
	s.dec.epochHCount = int64(s.h.len())
	s.dec.epochLCount = int64(s.l.len())
	s.dec.epochHBytes = s.h.used
	s.dec.epochLBytes = s.l.used
}

// decisionLedger snapshots the policy half of the decision ledger (View's
// Ledger).
func (s *Server) decisionLedger() metrics.DecisionStats {
	capacity := s.h.evictions + s.l.evictions
	return metrics.DecisionStats{
		EvictCapacity:         capacity,
		EvictDeadOwner:        s.dec.dropDeadOwner,
		EvictScrub:            s.dec.dropScrub,
		EvictCheckpointDenied: s.dec.dropCheckpointDenied,
		EvictDirUnavailable:   s.dec.dropDirUnavailable,
		EvictTotal:            capacity + s.dec.directed,
		SubExact:              s.dec.subExact,
		SubFallback:           s.dec.subFallback,
		Epoch:                 s.epoch,
		EpochHCount:           s.dec.epochHCount,
		EpochLCount:           s.dec.epochLCount,
		EpochHBytes:           s.dec.epochHBytes,
		EpochLBytes:           s.dec.epochLBytes,
	}
}
