// Package interp executes IR functionally: a flat word-addressed memory, a
// per-thread Context that steps one instruction at a time (so timing models
// can drive it cycle by cycle), a whole-program Runner, and a profiler that
// collects the dynamic statistics the HELIX-RC evaluation depends on
// (iteration lengths, dependence distances, consumer fan-out, and the
// ground-truth dependence oracle used to score the alias analysis tiers).
package interp

import (
	"fmt"

	"helixrc/internal/ir"
)

// Memory is a flat, word-addressed store. Addresses are indices of 64-bit
// words; the zero page is reserved so address 0 is never valid data.
// Only the span [base, base+len(words)) is backed: programs lay their
// globals out from a high base address (ir.NewProgram), and backing the
// unused low range would cost every run megabytes of zeroing.
type Memory struct {
	base  int64 // address of words[0]
	words []int64
	arena int64
}

// NewMemory returns a memory initialized with the program's globals and an
// allocation arena starting after them.
func NewMemory(p *ir.Program) *Memory {
	m := &Memory{base: p.ArenaBase(), arena: p.ArenaBase()}
	for _, g := range p.Globals {
		m.base = min(m.base, g.Addr)
	}
	// Pre-size to the static data extent: growing by repeated doubling
	// zeroes and copies ~3x the final footprint, which shows up as the top
	// allocation cost in simulator profiles.
	m.words = make([]int64, p.ArenaBase()-m.base)
	for _, g := range p.Globals {
		for i, v := range g.Init {
			m.Store(g.Addr+int64(i), v)
		}
	}
	return m
}

// grow extends the backed span to cover addr, at least doubling it.
func (m *Memory) grow(addr int64) {
	end := m.base + int64(len(m.words))
	if addr >= m.base && addr < end {
		return
	}
	n := max(int64(len(m.words)), 1024)
	lo, hi := m.base, end
	if addr < lo {
		lo = max(0, min(addr, lo-n))
	} else {
		hi = max(addr+1, hi+n)
	}
	nw := make([]int64, hi-lo)
	copy(nw[m.base-lo:], m.words)
	m.base, m.words = lo, nw
}

// Load reads the word at addr. Negative addresses panic: they indicate a
// compiler or workload bug, not a recoverable condition.
func (m *Memory) Load(addr int64) int64 {
	if addr < 0 {
		panic(fmt.Sprintf("interp: load from negative address %d", addr))
	}
	i := addr - m.base
	if i < 0 || i >= int64(len(m.words)) {
		return 0
	}
	return m.words[i]
}

// Store writes the word at addr.
func (m *Memory) Store(addr, v int64) {
	if addr < 0 {
		panic(fmt.Sprintf("interp: store to negative address %d", addr))
	}
	m.grow(addr)
	m.words[addr-m.base] = v
}

// Alloc reserves size words from the arena and returns the base address.
func (m *Memory) Alloc(size int64) int64 {
	base := m.arena
	m.arena += size
	return base
}

// ArenaNext returns the next arena address (useful for tests).
func (m *Memory) ArenaNext() int64 { return m.arena }

// Snapshot copies a memory range for equality checks in tests.
func (m *Memory) Snapshot(base, size int64) []int64 {
	out := make([]int64, size)
	for i := int64(0); i < size; i++ {
		out[i] = m.Load(base + i)
	}
	return out
}
