// Package emu provides the functional RISC-V-like emulator that drives the
// timing simulator, and the sparse data memory shared by the main thread and
// helper threads.
//
// Memory has two views, which is the crux of modeling Phelps faithfully
// (Section IV-A of the paper):
//
//   - The program-order view, used by the main thread's emulation: reads see
//     all earlier stores of the program, including those whose instructions
//     have been fetched but not yet retired by the timing model.
//   - The architectural (retire-time) view, used by helper-thread loads:
//     reads see only stores that the timing model has retired. Helper-thread
//     pre-execution runs ahead of retirement, so it can observe stale data —
//     exactly the effect the helper thread's private speculative store cache
//     exists to mitigate.
//
// Main-thread stores enter a pending overlay at emulation (fetch) time and
// are folded into the architectural image when the timing model retires them.
//
// The overlay is a page-shadow design sized for the simulation hot path: the
// architectural image is flat 4KB pages, and each page with pending stores
// carries a shadow — the youngest pending value per byte, an occupancy
// bitmap, and a per-byte count of covering stores. The program-order FIFO of
// staged stores is one flat ring of (seq, addr, size, value) records, so
// staging and retiring a store never allocates in steady state and the
// program-order view is a bitmap test away from the architectural fast path.
package emu

import (
	"encoding/binary"
	"fmt"
	"sort"

	"phelps/internal/codec"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// shadowPage overlays one architectural page with its pending-store image.
// data holds the youngest staged value for every occupied byte, occ is the
// byte-occupancy bitmap (bit set ⇔ count > 0), and count tracks how many
// staged-but-unretired stores cover each byte (bounded by the core's
// in-flight window, so uint16 has ample headroom). n is the number of
// occupied bytes; when it returns to zero the shadow is recycled.
type shadowPage struct {
	data  [pageSize]byte
	count [pageSize]uint16
	occ   [pageSize / 64]uint64
	n     int
}

// anyPending reports whether any byte in [off, off+size) is occupied.
// size is at most 8 and the range must lie within the page.
func (sp *shadowPage) anyPending(off uint64, size int) bool {
	w := off >> 6
	b := off & 63
	mask := (uint64(1)<<size - 1) << b
	if sp.occ[w]&mask != 0 {
		return true
	}
	if spill := b + uint64(size); spill > 64 {
		return sp.occ[w+1]&(uint64(1)<<(spill-64)-1) != 0
	}
	return false
}

// pendingStore is one staged-but-unretired store, held in program order in
// the Memory's flat ring.
type pendingStore struct {
	seq  uint64
	addr uint64
	val  uint64
	size int32
}

// Memory is a sparse 64-bit byte-addressable memory with a pending-store
// overlay. The zero value is not usable; call NewMemory.
type Memory struct {
	pages  map[uint64]*page
	shadow map[uint64]*shadowPage

	// Program-order FIFO of staged stores: a power-of-two ring indexed by
	// monotonic head/tail counters.
	ring []pendingStore
	head uint64
	tail uint64

	shadowFree []*shadowPage // recycled empty shadows (bounds steady-state allocation)
	nPend      int

	// frozen marks pages shared copy-on-write with a MemImage snapshot
	// (see checkpoint.go). Writes to a frozen page clone it first. nil —
	// the common case for memories that were never snapshotted — costs one
	// nil check on the write path and nothing on reads.
	frozen map[uint64]bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{
		pages:  make(map[uint64]*page),
		shadow: make(map[uint64]*shadowPage),
		ring:   make([]pendingStore, 64),
	}
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageShift
	p := m.pages[pn]
	if !create {
		return p
	}
	if p == nil {
		p = new(page)
		m.pages[pn] = p
	} else if m.frozen != nil && m.frozen[pn] {
		// Copy-on-write: the page is shared with a snapshot image.
		cp := new(page)
		*cp = *p
		m.pages[pn] = cp
		delete(m.frozen, pn)
		p = cp
	}
	return p
}

// ReadArchByte reads one byte from the architectural (retire-time) view.
func (m *Memory) ReadArchByte(addr uint64) byte {
	p := m.pages[addr>>pageShift]
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// WriteArchByte writes one byte directly into the architectural view,
// bypassing the overlay. Used for initial data setup and by retiring stores.
func (m *Memory) WriteArchByte(addr uint64, v byte) {
	m.pageFor(addr, true)[addr&pageMask] = v
}

// ReadArch reads size bytes (1, 4, or 8) little-endian from the architectural
// view. Accesses that stay within one page read the page image directly;
// only page-crossing accesses take the byte loop.
func (m *Memory) ReadArch(addr uint64, size int) uint64 {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.pages[addr>>pageShift]
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 1:
			return uint64(p[off])
		}
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.ReadArchByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// WriteArch writes size bytes little-endian into the architectural view.
func (m *Memory) WriteArch(addr uint64, size int, v uint64) {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.pageFor(addr, true)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 1:
			p[off] = byte(v)
		default:
			for i := 0; i < size; i++ {
				p[off+uint64(i)] = byte(v >> (8 * i))
			}
		}
		return
	}
	for i := 0; i < size; i++ {
		m.WriteArchByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadProgram reads size bytes from the program-order view: pending store
// data if present, architectural data otherwise. The common case — no
// pending bytes under the access — is one bitmap probe on top of the
// architectural fast path.
func (m *Memory) ReadProgram(addr uint64, size int) uint64 {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		pn := addr >> pageShift
		sp := m.shadow[pn]
		if sp == nil || !sp.anyPending(off, size) {
			return m.ReadArch(addr, size)
		}
		p := m.pages[pn]
		var v uint64
		for i := 0; i < size; i++ {
			o := off + uint64(i)
			var b byte
			if sp.occ[o>>6]&(1<<(o&63)) != 0 {
				b = sp.data[o]
			} else if p != nil {
				b = p[o]
			}
			v |= uint64(b) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		var b byte
		if sp := m.shadow[a>>pageShift]; sp != nil {
			o := a & pageMask
			if sp.occ[o>>6]&(1<<(o&63)) != 0 {
				b = sp.data[o]
			} else {
				b = m.ReadArchByte(a)
			}
		} else {
			b = m.ReadArchByte(a)
		}
		v |= uint64(b) << (8 * i)
	}
	return v
}

// shadowFor returns the shadow for addr's page, creating (or recycling) one
// if absent.
func (m *Memory) shadowFor(addr uint64) *shadowPage {
	pn := addr >> pageShift
	sp := m.shadow[pn]
	if sp == nil {
		if n := len(m.shadowFree); n > 0 {
			sp = m.shadowFree[n-1]
			m.shadowFree = m.shadowFree[:n-1]
		} else {
			sp = new(shadowPage)
		}
		m.shadow[pn] = sp
	}
	return sp
}

// releaseShadow recycles an emptied shadow page.
func (m *Memory) releaseShadow(pn uint64, sp *shadowPage) {
	delete(m.shadow, pn)
	// A released shadow is fully clean (n == 0 implies every count and occ
	// bit is zero), so it can be handed back out as-is. The free list stays
	// small: simulations touch few distinct pages per in-flight window.
	if len(m.shadowFree) < 16 {
		m.shadowFree = append(m.shadowFree, sp)
	}
}

// StagePendingStore records a store executed by the emulator but not yet
// retired by the timing model. seq must be strictly increasing across calls.
func (m *Memory) StagePendingStore(seq, addr uint64, size int, v uint64) {
	if m.tail-m.head == uint64(len(m.ring)) {
		m.growRing()
	}
	m.ring[m.tail&uint64(len(m.ring)-1)] = pendingStore{seq: seq, addr: addr, val: v, size: int32(size)}
	m.tail++

	sp := m.shadowFor(addr)
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		o := a & pageMask
		if i > 0 && o == 0 {
			sp = m.shadowFor(a) // crossed into the next page
		}
		if sp.count[o] == 0 {
			sp.occ[o>>6] |= 1 << (o & 63)
			sp.n++
		}
		sp.count[o]++
		sp.data[o] = byte(v >> (8 * i))
	}
	m.nPend += size
}

func (m *Memory) growRing() {
	next := make([]pendingStore, len(m.ring)*2)
	mask := uint64(len(m.ring) - 1)
	nextMask := uint64(len(next) - 1)
	for i := m.head; i != m.tail; i++ {
		next[i&nextMask] = m.ring[i&mask]
	}
	m.ring = next
}

// RetireStore folds the oldest pending store into the architectural view.
// Stores must be retired in the order they were staged; the ring head is the
// single source of truth, so a mismatched sequence number is rejected before
// any state changes.
func (m *Memory) RetireStore(seq, addr uint64, size int, v uint64) error {
	if m.head == m.tail {
		return fmt.Errorf("emu: retire store seq=%d addr=%#x with no stores pending", seq, addr)
	}
	ps := &m.ring[m.head&uint64(len(m.ring)-1)]
	if ps.seq != seq || ps.addr != addr || int(ps.size) != size {
		return fmt.Errorf("emu: retire store seq=%d addr=%#x out of order", seq, addr)
	}
	m.head++
	m.WriteArch(addr, size, ps.val)

	sp := m.shadow[addr>>pageShift]
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		o := a & pageMask
		if i > 0 && o == 0 {
			sp = m.shadow[a>>pageShift]
		}
		sp.count[o]--
		if sp.count[o] == 0 {
			sp.occ[o>>6] &^= 1 << (o & 63)
			sp.n--
			if sp.n == 0 {
				m.releaseShadow(a>>pageShift, sp)
			}
		}
	}
	m.nPend -= size
	return nil
}

// PendingBytes returns the number of staged, unretired store bytes.
func (m *Memory) PendingBytes() int { return m.nPend }

// PendingStores returns the number of staged, unretired store records. The
// invariant checker matches this against the store instructions the timing
// model holds in flight (see cpu.CheckInvariantsDeep).
func (m *Memory) PendingStores() int { return int(m.tail - m.head) }

// HashArch returns a 64-bit FNV-1a hash of the architectural memory image:
// every touched page's number and contents, in ascending page order. Zero
// pages that were never touched do not contribute, so two logically
// identical images hash equal regardless of construction order. Pending
// (staged, unretired) stores are ignored — hash freshly built workloads,
// before any run stages stores. phelpsd keys its result cache on this
// (DESIGN.md · phelpsd service).
func (m *Memory) HashArch() uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := codec.FNVOffset64
	for _, pn := range pns {
		h = codec.Mix64(h, pn)
		h = codec.Update64(h, m.pages[pn][:])
	}
	return h
}

// MemDiff is one byte address where two architectural views disagree.
type MemDiff struct {
	Addr uint64
	A, B byte
}

// DiffArch compares this memory's architectural view against another's,
// byte-by-byte over the union of touched pages (an untouched page reads as
// zero), returning up to max differing addresses in ascending order; max <= 0
// means unlimited. Pending-store overlays are ignored — callers comparing
// end-of-run state should first check PendingBytes() == 0 on both sides.
func (m *Memory) DiffArch(o *Memory, max int) []MemDiff {
	pns := make([]uint64, 0, len(m.pages)+len(o.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	for pn := range o.pages {
		if _, ok := m.pages[pn]; !ok {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var diffs []MemDiff
	var zero page
	for _, pn := range pns {
		pa, pb := m.pages[pn], o.pages[pn]
		if pa == pb {
			continue // shared copy-on-write page: identical by construction
		}
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		for i := 0; i < pageSize; i++ {
			if pa[i] != pb[i] {
				diffs = append(diffs, MemDiff{Addr: pn<<pageShift | uint64(i), A: pa[i], B: pb[i]})
				if max > 0 && len(diffs) >= max {
					return diffs
				}
			}
		}
	}
	return diffs
}

// --- typed convenience accessors for workload setup and verification ---

// SetU64 writes a 64-bit value into the architectural view.
func (m *Memory) SetU64(addr uint64, v uint64) { m.WriteArch(addr, 8, v) }

// U64 reads a 64-bit value from the architectural view.
func (m *Memory) U64(addr uint64) uint64 { return m.ReadArch(addr, 8) }

// SetU32 writes a 32-bit value into the architectural view.
func (m *Memory) SetU32(addr uint64, v uint32) { m.WriteArch(addr, 4, uint64(v)) }

// U32 reads a 32-bit value from the architectural view.
func (m *Memory) U32(addr uint64) uint32 { return uint32(m.ReadArch(addr, 4)) }

// SetI64 writes a signed 64-bit value into the architectural view.
func (m *Memory) SetI64(addr uint64, v int64) { m.WriteArch(addr, 8, uint64(v)) }

// I64 reads a signed 64-bit value from the architectural view.
func (m *Memory) I64(addr uint64) int64 { return int64(m.ReadArch(addr, 8)) }
