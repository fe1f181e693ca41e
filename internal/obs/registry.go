package obs

import (
	"sort"
	"sync"
)

// Registry is a named-histogram set: each serving-path stage registers one
// histogram under a stable snake_case name and every exposition surface
// (Prometheus text, /debug/obs JSON) walks the registry in sorted-name
// order, so output ordering is deterministic. A nil *Registry hands out nil
// histograms, so wiring a registry through a component costs nothing when
// observability is off.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewRegistry allocates an empty registry.
func NewRegistry() *Registry { return &Registry{hists: make(map[string]*Histogram)} }

// Hist returns the named histogram, creating it on first use. On a nil
// registry it returns nil (a valid no-op histogram).
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// NamedSnapshot pairs a registered histogram's name with its snapshot.
type NamedSnapshot struct {
	Name string
	Snap HistSnapshot
}

// Snapshot captures every registered histogram, sorted by name (nil on a
// nil registry).
func (r *Registry) Snapshot() []NamedSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]NamedSnapshot, len(names))
	for i, name := range names {
		out[i] = NamedSnapshot{Name: name, Snap: r.hists[name].Snapshot()}
	}
	return out
}
