package alias

import (
	"sort"

	"helixrc/internal/ir"
)

// globalSpan locates which global an address constant falls into, so that
// address-of-global constants become points-to facts.
type globalSpan struct {
	lo, hi int64
	site   ir.Site
}

type globalMap struct {
	spans []globalSpan
}

func newGlobalMap(p *ir.Program) *globalMap {
	gm := &globalMap{}
	for _, g := range p.Globals {
		gm.spans = append(gm.spans, globalSpan{lo: g.Addr, hi: g.Addr + g.Size, site: g.Site})
	}
	sort.Slice(gm.spans, func(i, j int) bool { return gm.spans[i].lo < gm.spans[j].lo })
	return gm
}

// siteOf returns the global whose span covers addr, if any.
func (gm *globalMap) siteOf(addr int64) (ir.Site, int64, bool) {
	i := sort.Search(len(gm.spans), func(i int) bool { return gm.spans[i].hi > addr })
	if i < len(gm.spans) && gm.spans[i].lo <= addr {
		return gm.spans[i].site, addr - gm.spans[i].lo, true
	}
	return 0, 0, false
}

// andersen holds the whole-program flow-insensitive points-to solution.
type andersen struct {
	prog *ir.Program
	gm   *globalMap
	// regPts[fn][reg] is the points-to set of a register anywhere in fn.
	regPts map[*ir.Function][]*SiteSet
	// content[site] is the points-to set of values stored into the site
	// (field-insensitive heap model).
	content []*SiteSet
	// ret[fn] is the points-to set of fn's return value.
	ret map[*ir.Function]*SiteSet
}

func solveAndersen(p *ir.Program) *andersen {
	a := &andersen{
		prog:    p,
		gm:      newGlobalMap(p),
		regPts:  map[*ir.Function][]*SiteSet{},
		content: make([]*SiteSet, p.NumSites()),
		ret:     map[*ir.Function]*SiteSet{},
	}
	for _, f := range p.Funcs {
		sets := make([]*SiteSet, f.NumRegs)
		for i := range sets {
			sets[i] = NewSiteSet()
		}
		a.regPts[f] = sets
		a.ret[f] = NewSiteSet()
	}
	// Generated loop bodies inherit the parent frame's registers at
	// dispatch: share the underlying points-to sets so the analysis sees
	// the runtime aliasing (otherwise those registers look undefined and
	// loads through them poison the solution).
	for _, f := range p.Funcs {
		if f.RegsFrom == nil {
			continue
		}
		parent := a.regPts[f.RegsFrom]
		sets := a.regPts[f]
		for i := 0; i < len(parent) && i < len(sets); i++ {
			sets[i] = parent[i]
		}
	}
	for s := range a.content {
		a.content[s] = NewSiteSet()
	}
	// Iterate to fixpoint; program sizes make a simple loop fine.
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if a.transferFunc(f) {
				changed = true
			}
		}
	}
	return a
}

// valPts resolves an operand's points-to set inside f.
func (a *andersen) valPts(f *ir.Function, v ir.Value) *SiteSet {
	switch v.Kind {
	case ir.KindReg:
		return a.regPts[f][v.Reg]
	case ir.KindConst:
		if site, _, ok := a.gm.siteOf(v.Imm); ok {
			s := NewSiteSet()
			s.Add(site)
			return s
		}
	}
	return NewSiteSet()
}

func (a *andersen) transferFunc(f *ir.Function) bool {
	changed := false
	regs := a.regPts[f]
	join := func(dst ir.Reg, src *SiteSet) {
		if dst == ir.NoReg {
			return
		}
		if regs[dst].AddAll(src) {
			changed = true
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpConst:
				join(in.Dst, a.valPts(f, in.A))
			case ir.OpMov:
				join(in.Dst, a.valPts(f, in.A))
			case ir.OpAdd, ir.OpSub, ir.OpFAdd, ir.OpFSub:
				// Pointer arithmetic keeps the base object.
				join(in.Dst, a.valPts(f, in.A))
				join(in.Dst, a.valPts(f, in.B))
			case ir.OpMin, ir.OpMax:
				join(in.Dst, a.valPts(f, in.A))
				join(in.Dst, a.valPts(f, in.B))
			case ir.OpAlloc:
				s := NewSiteSet()
				s.Add(in.Alloc)
				join(in.Dst, s)
			case ir.OpLoad:
				base := a.valPts(f, in.A)
				if base.Universal || base.Empty() {
					// Lost track: the load may produce any pointer.
					if in.Dst != ir.NoReg && regs[in.Dst].MakeUniversal() {
						changed = true
					}
					continue
				}
				for _, site := range base.Sites() {
					join(in.Dst, a.content[site])
				}
			case ir.OpStore:
				base := a.valPts(f, in.A)
				val := a.valPts(f, in.B)
				if val.Empty() {
					continue // storing a non-pointer
				}
				if base.Universal || base.Empty() {
					// Could store the pointer anywhere.
					for _, c := range a.content {
						if c.AddAll(val) {
							changed = true
						}
					}
					continue
				}
				for _, site := range base.Sites() {
					if a.content[site].AddAll(val) {
						changed = true
					}
				}
			case ir.OpCall:
				if in.Callee != nil {
					callee := in.Callee
					cregs := a.regPts[callee]
					for pi, param := range callee.Params {
						if pi < len(in.Args) {
							if cregs[param].AddAll(a.valPts(f, in.Args[pi])) {
								changed = true
							}
						}
					}
					join(in.Dst, a.ret[callee])
				}
				// Externs never produce or store pointers in this model.
			case ir.OpRet:
				if in.HasA {
					if a.ret[f].AddAll(a.valPts(f, in.A)) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}
