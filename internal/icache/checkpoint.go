package icache

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"icache/internal/dataset"
	"icache/internal/sampling"
)

// Checkpointing lets an operator restart the cache service without losing a
// warmed cache: the paper's training jobs run for hours and the H-cache
// takes several epochs to converge on the hard-sample working set, so a
// cold restart costs real training time. A checkpoint captures the cache's
// *metadata* — which samples each region holds and the active importance
// values — not payload bytes, which the restored server refetches lazily
// (or eagerly, on the RPC layer) from the backend.

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// checkpointFile is the serialized cache state.
type checkpointFile struct {
	Version int    `json:"version"`
	Dataset string `json:"dataset"`
	// HList is the active (management) H-list.
	HList []checkpointItem `json:"h_list"`
	// HResidents holds the H-cache contents with their heap values.
	HResidents []checkpointItem `json:"h_residents"`
	// LResidents holds the L-cache contents.
	LResidents []int64 `json:"l_residents"`
	// FreqH/FreqL persist the partition EMAs.
	FreqH float64 `json:"freq_h"`
	FreqL float64 `json:"freq_l"`
}

type checkpointItem struct {
	ID int64   `json:"id"`
	IV float64 `json:"iv"`
}

// Checkpoint serializes the cache's state to w.
func (s *Server) Checkpoint(w io.Writer) error {
	cf := checkpointFile{
		Version: checkpointVersion,
		Dataset: s.spec.Name,
		FreqH:   s.freqH,
		FreqL:   s.freqL,
	}
	for _, it := range s.hlist.Items {
		cf.HList = append(cf.HList, checkpointItem{ID: int64(it.ID), IV: it.IV})
	}
	for _, e := range s.h.heap.Entries() {
		cf.HResidents = append(cf.HResidents, checkpointItem{ID: int64(e.ID), IV: e.IV})
	}
	for id := range s.l.items {
		cf.LResidents = append(cf.LResidents, int64(id))
	}
	// Both sorted by ID: the heap's array order depends on the map order its
	// refreshes walked, and a restore inserts in file order — L-cache arrival
	// order is eviction order — so one state must always write one file.
	slices.SortFunc(cf.HResidents, func(a, b checkpointItem) int { return cmp.Compare(a.ID, b.ID) })
	slices.Sort(cf.LResidents)
	enc := json.NewEncoder(w)
	return enc.Encode(cf)
}

// RestoreCheckpoint loads state produced by Checkpoint into a freshly
// constructed server (restoring over live state is rejected). The dataset
// must match; samples that no longer fit the configured budgets are
// silently dropped in importance order, so a checkpoint from a larger cache
// restores cleanly into a smaller one.
func (s *Server) RestoreCheckpoint(r io.Reader) error {
	if s.h.len() != 0 || s.l.len() != 0 {
		return fmt.Errorf("icache: restore into a non-empty cache")
	}
	var cf checkpointFile
	if err := json.NewDecoder(r).Decode(&cf); err != nil {
		return fmt.Errorf("icache: decode checkpoint: %w", err)
	}
	if cf.Version != checkpointVersion {
		return fmt.Errorf("icache: checkpoint version %d, want %d", cf.Version, checkpointVersion)
	}
	if cf.Dataset != s.spec.Name {
		return fmt.Errorf("icache: checkpoint is for dataset %q, server hosts %q", cf.Dataset, s.spec.Name)
	}

	items := make([]sampling.Item, 0, len(cf.HList))
	for _, it := range cf.HList {
		id := dataset.SampleID(it.ID)
		if !s.spec.Contains(id) {
			return fmt.Errorf("icache: checkpoint H-list sample %d out of range", it.ID)
		}
		items = append(items, sampling.Item{ID: id, IV: it.IV})
	}
	s.InstallHList(sampling.NewHList(items))

	for _, it := range cf.HResidents {
		id := dataset.SampleID(it.ID)
		if !s.spec.Contains(id) {
			return fmt.Errorf("icache: checkpoint H resident %d out of range", it.ID)
		}
		s.h.offer(id, s.spec.SampleBytes(id), it.IV)
	}
	for _, raw := range cf.LResidents {
		id := dataset.SampleID(raw)
		if !s.spec.Contains(id) {
			return fmt.Errorf("icache: checkpoint L resident %d out of range", raw)
		}
		s.l.insert(id, s.spec.SampleBytes(id))
	}
	s.freqH, s.freqL = cf.FreqH, cf.FreqL
	return nil
}

// Residents appends every cached sample ID (both regions) to dst in
// ascending order. The RPC layer uses it to eagerly rehydrate payloads after
// a restore; the lifecycle steps (dkv.Residents) walk it behind a watermark,
// which only a stable order makes meaningful.
func (s *Server) Residents(dst []dataset.SampleID) []dataset.SampleID {
	n := len(dst)
	for id := range s.h.items {
		dst = append(dst, id)
	}
	for id := range s.l.items {
		dst = append(dst, id)
	}
	slices.Sort(dst[n:])
	return dst
}
