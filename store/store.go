// Package store provides the pluggable checkpoint storage engine behind the
// chain executor. A Store holds the intermediate states a checkpointing
// schedule snapshots, keyed by slot index, and accounts for where the bytes
// live: the paper's Waggle node has 2 GB of RAM but a large SD card, so the
// two-level scheme of Section VI keeps a few states as in-memory tensor
// references and serializes the rest to flash.
//
// The schedule decides where each state goes: every Snapshot action carries
// a tier. Tiered carries that decision out, and its two halves are the other
// implementations:
//
//   - RAM keeps every slot as a zero-copy tensor reference; it is also the
//     executor's default for a schedule without a flash tier.
//   - Disk, Tiered's flash half, serializes every slot to a file, so
//     checkpoints cost I/O instead of memory.
//   - Tiered routes each slot to its RAM or its Disk half by the Snapshot's
//     tier, executing two-level plans with real spilling.
//
// Stores are not safe for concurrent use; the executor drives them from a
// single goroutine.
package store

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/schedule"
)

// Stats is the storage accounting of a store: where the checkpoint bytes
// currently live, the high-water marks, and the I/O the disk tier performed.
type Stats struct {
	// RAMBytes is the checkpoint data currently resident in RAM.
	RAMBytes int64
	// DiskBytes is the checkpoint data currently resident on disk.
	DiskBytes int64
	// PeakRAMBytes and PeakDiskBytes are the observed high-water marks.
	PeakRAMBytes  int64
	PeakDiskBytes int64
	// DiskWrites and DiskReads count slot serializations and restores.
	DiskWrites int
	DiskReads  int
}

// merge combines per-tier stats into one view.
func (s Stats) merge(o Stats) Stats {
	return Stats{
		RAMBytes:      s.RAMBytes + o.RAMBytes,
		DiskBytes:     s.DiskBytes + o.DiskBytes,
		PeakRAMBytes:  max(s.PeakRAMBytes, o.PeakRAMBytes),
		PeakDiskBytes: max(s.PeakDiskBytes, o.PeakDiskBytes),
		DiskWrites:    s.DiskWrites + o.DiskWrites,
		DiskReads:     s.DiskReads + o.DiskReads,
	}
}

// Store is a slot-addressed checkpoint container. The slot indices are the
// ones the schedule's Snapshot/Restore/Free actions carry; a slot holds at
// most one state at a time.
type Store interface {
	// Put stores t in the given free slot. tier is the storage medium the
	// schedule assigned to this snapshot; single-medium stores ignore it.
	// Implementations either retain t by reference (RAM) or serialize it
	// (disk); in both cases the caller must not mutate t while it is stored.
	Put(slot int, tier schedule.Tier, t *tensor.Tensor) error
	// Get returns the state stored in the slot. RAM-tier slots return the
	// stored reference; disk-tier slots deserialize a fresh tensor.
	Get(slot int) (*tensor.Tensor, error)
	// Free releases the slot.
	Free(slot int) error
	// BytesResident returns the checkpoint bytes currently held in RAM.
	BytesResident() int64
	// Holds reports whether the store retains t by reference.
	Holds(t *tensor.Tensor) bool
	// Stats returns the storage accounting accumulated so far.
	Stats() Stats
	// Close releases every slot and any backing resources (e.g. the disk
	// store's spill directory). The store must not be used afterwards.
	Close() error
}

// slotTable is the bookkeeping shared by the implementations: a growable
// dense table of occupied slots.
type slotTable[T any] struct {
	occupied []bool
	entries  []T
}

func (st *slotTable[T]) grow(slot int) {
	for len(st.occupied) <= slot {
		st.occupied = append(st.occupied, false)
		var zero T
		st.entries = append(st.entries, zero)
	}
}

func (st *slotTable[T]) put(slot int, v T) error {
	if slot < 0 {
		return fmt.Errorf("store: negative slot %d", slot)
	}
	st.grow(slot)
	if st.occupied[slot] {
		return fmt.Errorf("store: slot %d already occupied", slot)
	}
	st.occupied[slot] = true
	st.entries[slot] = v
	return nil
}

func (st *slotTable[T]) get(slot int) (T, error) {
	var zero T
	if slot < 0 || slot >= len(st.occupied) || !st.occupied[slot] {
		return zero, fmt.Errorf("store: slot %d is empty", slot)
	}
	return st.entries[slot], nil
}

func (st *slotTable[T]) free(slot int) (T, error) {
	v, err := st.get(slot)
	if err != nil {
		return v, err
	}
	var zero T
	st.occupied[slot] = false
	st.entries[slot] = zero
	return v, nil
}
