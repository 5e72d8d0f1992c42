// Package deps computes exact (value-based, last-writer) flow dependences
// for the affine fragment of a program, the analysis the paper obtains from
// ISL (Section 3.1, "Polyhedral Dependences"). A flow dependence relates a
// write instance to the read instances that observe the written value; pairs
// whose cell is overwritten by an intervening write are excluded, so the
// dependences are exact rather than transitive.
package deps

import (
	"fmt"

	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// Dep is the flow-dependence relation from one write access to one read
// access. The relation's output iterators carry the "'" suffix.
type Dep struct {
	Src *pdg.Statement // the writer
	Dst *pdg.Statement // the reader
	// DstRead indexes Dst.Reads, identifying which read this dependence
	// feeds.
	DstRead int
	// Rel maps source (write) iterations to target (read) iterations.
	Rel poly.Map
	// Exact reports whether every projection/subtraction involved was exact
	// over the integers.
	Exact bool
}

func (d *Dep) String() string {
	return fmt.Sprintf("%s -> %s (read #%d): %s", d.Src.ID, d.Dst.ID, d.DstRead, d.Rel)
}

// Flow is the program's full flow-dependence information.
type Flow struct {
	Model *pdg.Model
	Deps  []*Dep
	// Exact reports whether all dependences are exact.
	Exact bool
}

// From returns the dependences whose source is the given statement.
func (f *Flow) From(src *pdg.Statement) []*Dep {
	var out []*Dep
	for _, d := range f.Deps {
		if d.Src == src {
			out = append(out, d)
		}
	}
	return out
}

// To returns the dependences feeding the given read of a statement.
func (f *Flow) To(dst *pdg.Statement, read int) []*Dep {
	var out []*Dep
	for _, d := range f.Deps {
		if d.Dst == dst && d.DstRead == read {
			out = append(out, d)
		}
	}
	return out
}

const (
	dstSuffix  = "'"
	killSuffix = "''"
)

// Analyze computes flow dependences between every affine write and every
// affine read of the same array in the model. Statements or accesses outside
// the affine fragment are skipped (the instrumenter covers them dynamically).
func Analyze(m *pdg.Model) *Flow {
	f := &Flow{Model: m, Exact: true}
	// Writers per array.
	writers := map[string][]*pdg.Statement{}
	for _, s := range m.Stmts {
		if s.ControlAffine && s.Write.Affine {
			writers[s.Write.Array] = append(writers[s.Write.Array], s)
		}
	}
	for _, w := range m.Stmts {
		if !w.ControlAffine || !w.Write.Affine {
			continue
		}
		for _, r := range m.Stmts {
			if !r.ControlAffine {
				continue
			}
			for ri := range r.Reads {
				read := &r.Reads[ri]
				if !read.Affine || read.Array != w.Write.Array {
					continue
				}
				dep, exact := flowDep(w, r, read, writers[w.Write.Array])
				f.Exact = f.Exact && exact
				// An inexact dependence is kept even when it came out empty:
				// the emptiness may be an artifact of the approximation, and
				// callers must see the inexactness to fall back.
				if empty, _ := dep.IsEmpty(); !empty || !exact {
					f.Deps = append(f.Deps, &Dep{Src: w, Dst: r, DstRead: ri, Rel: dep, Exact: exact})
				}
			}
		}
	}
	return f
}

// flowDep computes the exact dependence w.Write -> read-of-r, subtracting
// pairs killed by any intervening writer.
func flowDep(w, r *pdg.Statement, read *pdg.Access, writers []*pdg.Statement) (poly.Map, bool) {
	exact := true
	dstRen := pdg.RenameSuffix(r.Iters, dstSuffix)
	dstIters := renamed(r.Iters, dstRen)

	// Memory-based dependence: same cell, domains, w before r.
	var memPieces []poly.BasicMap
	for _, branch := range pdg.SchedLTBranches(w, r, nil, dstRen) {
		bm := poly.NewBasicMap(w.ID, w.Iters, r.ID, dstIters)
		bm = bm.With(w.Domain.Cons...)
		bm = bm.With(renameCons(r.Domain.Cons, dstRen)...)
		for k := range w.Write.Index {
			bm = bm.With(poly.Eq(w.Write.Index[k], read.Index[k].Rename(dstRen)))
		}
		bm = bm.With(branch...)
		if empty, ex := bm.IsEmpty(); !(empty && ex) {
			memPieces = append(memPieces, bm)
		}
	}
	if len(memPieces) == 0 {
		return poly.Map{}, true
	}

	// Killed pairs: exists an intervening write k'' to the same cell with
	// w < k'' < r.
	var killedWrapped []poly.BasicSet
	for _, killer := range writers {
		killRen := pdg.RenameSuffix(killer.Iters, killSuffix)
		killIters := renamed(killer.Iters, killRen)
		for _, wk := range pdg.SchedLTBranches(w, killer, nil, killRen) {
			for _, kr := range pdg.SchedLTBranches(killer, r, killRen, dstRen) {
				dims := append(append(append([]string(nil), w.Iters...), dstIters...), killIters...)
				bs := poly.BasicSet{Tuple: "killed", Dims: dims}
				bs = bs.With(w.Domain.Cons...)
				bs = bs.With(renameCons(r.Domain.Cons, dstRen)...)
				bs = bs.With(renameCons(killer.Domain.Cons, killRen)...)
				// Same cell between w and r.
				for k := range w.Write.Index {
					bs = bs.With(poly.Eq(w.Write.Index[k], read.Index[k].Rename(dstRen)))
				}
				// Killer writes that same cell.
				for k := range killer.Write.Index {
					bs = bs.With(poly.Eq(killer.Write.Index[k].Rename(killRen), read.Index[k].Rename(dstRen)))
				}
				bs = bs.With(wk...)
				bs = bs.With(kr...)
				if empty, _ := bs.IsEmpty(); empty {
					continue
				}
				projected, ex := bs.ProjectOut(killIters...)
				exact = exact && ex
				if empty, _ := projected.IsEmpty(); !empty {
					killedWrapped = append(killedWrapped, projected.Simplified())
				}
			}
		}
	}

	// D_flow = D_mem \ killed, computed on the wrapped (flattened) form.
	memWrapped := make([]poly.BasicSet, len(memPieces))
	for i, bm := range memPieces {
		memWrapped[i] = bm.Wrap()
	}
	result := poly.UnionSet(memWrapped...)
	if len(killedWrapped) > 0 {
		result = result.Subtract(poly.UnionSet(killedWrapped...))
	}

	var out []poly.BasicMap
	template := poly.NewBasicMap(w.ID, w.Iters, r.ID, dstIters)
	for _, bs := range result.Pieces {
		bm := poly.UnwrapInto(bs, template)
		if empty, _ := bm.IsEmpty(); !empty {
			out = append(out, bm)
		}
	}
	return poly.UnionMap(out...), exact
}

func renamed(names []string, ren map[string]string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if nn, ok := ren[n]; ok {
			out[i] = nn
		} else {
			out[i] = n
		}
	}
	return out
}

func renameCons(cons []poly.Constraint, ren map[string]string) []poly.Constraint {
	out := make([]poly.Constraint, len(cons))
	for i, c := range cons {
		out[i] = c.Rename(ren)
	}
	return out
}
