// Package alias implements the may-alias analysis that HCC relies on, as a
// ladder of five cumulative precision tiers mirroring Figure 2 of the
// HELIX-RC paper:
//
//	TierBase  — VLLPA-like: Andersen-style, flow- and field-insensitive
//	TierFlow  — + flow-sensitive register tracking
//	TierPath  — + path-based naming (field paths, exact constant offsets)
//	TierType  — + data-type and type-cast incompatibility
//	TierLib   — + standard-library call effect summaries
//
// The analysis is a genuine whole-program points-to computation over the
// IR's allocation sites (globals and OpAlloc instructions), not a lookup
// table: raising the tier monotonically removes may-alias pairs.
package alias

import (
	"slices"

	"helixrc/internal/ir"
)

// SiteSet is a set of allocation sites, with a dedicated universal element
// for "could point anywhere" (lost track of the pointer). Members are kept
// as a sorted slice: sets are small, so merges and binary searches beat
// hashing, and a copy is a single allocation.
type SiteSet struct {
	Universal bool
	sites     []ir.Site // ascending, no duplicates; nil when Universal
}

// NewSiteSet returns an empty set.
func NewSiteSet() *SiteSet { return &SiteSet{} }

// Universe returns the universal set.
func Universe() *SiteSet { return &SiteSet{Universal: true} }

// Add inserts a site; it reports whether the set changed.
func (s *SiteSet) Add(site ir.Site) bool {
	if s.Universal {
		return false
	}
	i, found := slices.BinarySearch(s.sites, site)
	if found {
		return false
	}
	s.sites = slices.Insert(s.sites, i, site)
	return true
}

// AddAll unions other into s, reporting change.
func (s *SiteSet) AddAll(other *SiteSet) bool {
	if other == nil || other == s || s.Universal {
		return false
	}
	if other.Universal {
		return s.MakeUniversal()
	}
	fresh := 0
	i := 0
	for _, x := range other.sites {
		for i < len(s.sites) && s.sites[i] < x {
			i++
		}
		if i == len(s.sites) || s.sites[i] != x {
			fresh++
		}
	}
	if fresh == 0 {
		return false
	}
	// Merge from the back so the grown slice is filled in place.
	n := len(s.sites)
	s.sites = slices.Grow(s.sites, fresh)[:n+fresh]
	i, j := n-1, len(other.sites)-1
	for k := n + fresh - 1; j >= 0; k-- {
		switch {
		case i >= 0 && s.sites[i] >= other.sites[j]:
			if s.sites[i] == other.sites[j] {
				j--
			}
			s.sites[k] = s.sites[i]
			i--
		default:
			s.sites[k] = other.sites[j]
			j--
		}
	}
	return true
}

// MakeUniversal widens the set, reporting change.
func (s *SiteSet) MakeUniversal() bool {
	if s.Universal {
		return false
	}
	s.Universal = true
	s.sites = nil
	return true
}

// Empty reports whether the set has no sites and is not universal.
func (s *SiteSet) Empty() bool { return !s.Universal && len(s.sites) == 0 }

// Len returns the site count (0 for universal).
func (s *SiteSet) Len() int { return len(s.sites) }

// Has reports membership.
func (s *SiteSet) Has(site ir.Site) bool {
	if s.Universal {
		return true
	}
	_, found := slices.BinarySearch(s.sites, site)
	return found
}

// Single returns the set's only site, if it has exactly one.
func (s *SiteSet) Single() (ir.Site, bool) {
	if s.Universal || len(s.sites) != 1 {
		return 0, false
	}
	return s.sites[0], true
}

// Sites returns a copy of the members in ascending order (nil for
// universal).
func (s *SiteSet) Sites() []ir.Site { return slices.Clone(s.sites) }

// Equal reports whether two sets have the same members.
func (s *SiteSet) Equal(o *SiteSet) bool {
	return s.Universal == o.Universal && slices.Equal(s.sites, o.sites)
}

// subsetOf reports whether every member of s is in o.
func (s *SiteSet) subsetOf(o *SiteSet) bool {
	if o.Universal {
		return true
	}
	if s.Universal || len(s.sites) > len(o.sites) {
		return false
	}
	j := 0
	for _, x := range s.sites {
		for j < len(o.sites) && o.sites[j] < x {
			j++
		}
		if j == len(o.sites) || o.sites[j] != x {
			return false
		}
	}
	return true
}

// Clone returns a copy.
func (s *SiteSet) Clone() *SiteSet {
	return &SiteSet{Universal: s.Universal, sites: slices.Clone(s.sites)}
}

// Intersects reports whether two sets could name the same site. An empty
// set means the analysis lost track of the pointer entirely, which must be
// treated as universal for soundness.
func Intersects(a, b *SiteSet) bool {
	if a == nil || b == nil {
		return true
	}
	au := a.Universal || a.Empty()
	bu := b.Universal || b.Empty()
	if au || bu {
		return true
	}
	i, j := 0, 0
	for i < len(a.sites) && j < len(b.sites) {
		switch {
		case a.sites[i] < b.sites[j]:
			i++
		case a.sites[i] > b.sites[j]:
			j++
		default:
			return true
		}
	}
	return false
}
