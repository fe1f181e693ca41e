package faults

import (
	"fmt"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
)

// Dir wraps any dkv.Service (the in-process dkv.Local, a network
// dkv.DirClient, a single replica of a partitioned directory, ...) with the
// fault schedule. Operations consult the injector under OpDirLookup /
// OpDirClaim / OpDirRelease; Len is never faulted (it is an observability
// call, not part of the data path).
//
// A time-windowed rule (Partition) reads the time since the injector's New,
// which lets a schedule in a virtual-clock bubble express "partition the
// directory for epoch 3".
type Dir struct {
	inner dkv.Service
	inj   *Injector
}

// WrapDir attaches an injector to a directory service.
func WrapDir(inner dkv.Service, inj *Injector) *Dir {
	return &Dir{inner: inner, inj: inj}
}

func (d *Dir) gate(op string) error {
	switch dec := d.inj.Decide(op); dec.Action {
	case ActError, ActDrop:
		return fmt.Errorf("faults: %s: %w", op, dec.Err)
	case ActDelay:
		if dec.Delay > 0 {
			time.Sleep(dec.Delay)
		}
	}
	return nil
}

// Lookup reports which node owns id, if any.
func (d *Dir) Lookup(id dataset.SampleID) (dkv.NodeID, bool, error) {
	if err := d.gate(OpDirLookup); err != nil {
		return 0, false, err
	}
	return d.inner.Lookup(id)
}

// LookupBatch resolves many ids in one directory operation. The whole batch
// is gated ONCE under OpDirLookup — it models one wire round trip, so a
// fault schedule that errors every Nth lookup fails the entire batch, just
// as a dropped frame would fail every id it carried.
func (d *Dir) LookupBatch(ids []dataset.SampleID) ([]dkv.Owner, error) {
	if err := d.gate(OpDirLookup); err != nil {
		return nil, err
	}
	return d.inner.LookupBatch(ids)
}

// Claim registers node as the owner of id (first claim wins).
func (d *Dir) Claim(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	if err := d.gate(OpDirClaim); err != nil {
		return false, err
	}
	return d.inner.Claim(id, node)
}

// Release removes node's ownership of id.
func (d *Dir) Release(id dataset.SampleID, node dkv.NodeID) (bool, error) {
	if err := d.gate(OpDirRelease); err != nil {
		return false, err
	}
	return d.inner.Release(id, node)
}

// Len reports the number of owned items (never faulted).
func (d *Dir) Len() (int, error) { return d.inner.Len() }

// Register grants node a lease (faulted under OpDirRegister: a partitioned
// node cannot re-register until the partition heals).
func (d *Dir) Register(node dkv.NodeID, ttl time.Duration) (dkv.NodeInfo, error) {
	if err := d.gate(OpDirRegister); err != nil {
		return dkv.NodeInfo{}, err
	}
	return d.inner.Register(node, ttl)
}

// Heartbeat renews node's lease (faulted under OpDirHeartbeat: dropping
// heartbeats is how a chaos schedule expires a healthy node's lease).
func (d *Dir) Heartbeat(node dkv.NodeID) (bool, error) {
	if err := d.gate(OpDirHeartbeat); err != nil {
		return false, err
	}
	return d.inner.Heartbeat(node)
}

// ListNodes reports membership state (faulted under OpDirScan).
func (d *Dir) ListNodes() ([]dkv.NodeInfo, error) {
	if err := d.gate(OpDirScan); err != nil {
		return nil, err
	}
	return d.inner.ListNodes()
}

// OwnedBy reports node's directory entries (faulted under OpDirScan).
func (d *Dir) OwnedBy(node dkv.NodeID, max int) ([]dataset.SampleID, error) {
	if err := d.gate(OpDirScan); err != nil {
		return nil, err
	}
	return d.inner.OwnedBy(node, max)
}

// PurgeDead garbage-collects Dead-owned entries (faulted under OpDirScan).
func (d *Dir) PurgeDead(max int) (int, error) {
	if err := d.gate(OpDirScan); err != nil {
		return 0, err
	}
	return d.inner.PurgeDead(max)
}
