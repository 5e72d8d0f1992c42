// Package usecount implements Algorithm 1 of the paper: compile-time
// determination of the number of uses of every definition in the affine
// fragment, as parametric piecewise polynomials. It also classifies arrays
// into statically analyzable vs dynamic (Section 5's affine/non-affine
// classification) and computes live-in use counts for the prologue.
package usecount

import (
	"fmt"

	"defuse/internal/deps"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// ArrayClass reports whether every access to a variable is statically
// analyzable; variables failing the test are protected by the dynamic
// scheme (Section 4).
type ArrayClass struct {
	Name       string
	Analyzable bool
	Reason     string // why not analyzable
}

// DefContrib is one outgoing dependence's contribution to a definition's use
// count: at the def site, the defined value joins the def-checksum
// Count(iterators, params) times for this dependence.
type DefContrib struct {
	Dep   *deps.Dep
	Count poly.Piecewise // over the writer's iterators and program parameters
}

// DefCount aggregates all contributions for one statement's write.
type DefCount struct {
	Stmt     *pdg.Statement
	Contribs []DefContrib
}

// TotalAt evaluates the definition's total use count at a concrete iteration.
func (d *DefCount) TotalAt(env map[string]int64) (int64, error) {
	var total int64
	for _, c := range d.Contribs {
		v, _, err := c.Count.Eval(env)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// LiveInContrib is one read access's live-in cells: for the parameterized
// cell (CellVars bound to the cell coordinates), Count gives how many times
// that cell's initial value is read before being overwritten.
type LiveInContrib struct {
	Stmt     *pdg.Statement
	ReadIdx  int
	CellVars []string
	Count    poly.Piecewise
}

// Analysis is the complete static use-count information of a model.
type Analysis struct {
	Flow    *deps.Flow
	Classes map[string]*ArrayClass
	// Defs maps each analyzable writer statement to its use-count info.
	Defs map[*pdg.Statement]*DefCount
	// LiveIns lists live-in contributions per analyzable array (summed
	// additively across entries when domains overlap).
	LiveIns map[string][]LiveInContrib
}

// Analyzable reports whether the named variable is in the static fragment.
func (a *Analysis) Analyzable(name string) bool {
	c, ok := a.Classes[name]
	return ok && c.Analyzable
}

// CellVarName names the k-th parameterized cell coordinate of an array.
// The '#' makes collision with program identifiers impossible (lang
// identifiers cannot contain '#'); instrumentation renames these to fresh
// program identifiers.
func CellVarName(array string, k int) string { return fmt.Sprintf("%s#c%d", array, k) }

// Analyze runs Algorithm 1 over the flow information.
func Analyze(f *deps.Flow) *Analysis {
	a := &Analysis{
		Flow:    f,
		Classes: classify(f.Model),
		Defs:    map[*pdg.Statement]*DefCount{},
		LiveIns: map[string][]LiveInContrib{},
	}

	// Use counts per definition (Algorithm 1): with the source iteration
	// parameterized, each dependence's target set is its relation read as a
	// set over the target iterators, with the source iterators as free
	// parameters. Its cardinality is the dependence's use-count
	// contribution.
	for _, s := range f.Model.Stmts {
		if !a.Analyzable(s.Write.Array) {
			continue
		}
		dc := &DefCount{Stmt: s}
		failed := false
		for _, d := range f.From(s) {
			var all poly.Piecewise
			for _, bm := range d.Rel.Pieces {
				target := poly.BasicSet{Tuple: bm.OutTuple, Dims: bm.Out, Cons: bm.Cons}
				pw, err := poly.Card(target)
				if err != nil {
					a.markDynamic(s.Write.Array, fmt.Sprintf("use count of %s not countable: %v", s.ID, err))
					failed = true
					break
				}
				all.Pieces = append(all.Pieces, pw.Pieces...)
			}
			if failed {
				break
			}
			dc.Contribs = append(dc.Contribs, DefContrib{Dep: d, Count: all})
		}
		if !failed {
			a.Defs[s] = dc
		}
	}

	// Live-in analysis: read iterations not fed by any dependence observe
	// the array's initial values; the prologue must fold those values into
	// the def-checksum with matching counts.
	for _, s := range f.Model.Stmts {
		for ri := range s.Reads {
			read := &s.Reads[ri]
			if !a.Analyzable(read.Array) {
				continue
			}
			uncovered, exact := a.uncoveredReads(s, ri)
			if !exact {
				a.markDynamic(read.Array, fmt.Sprintf("live-in reads of %s read #%d inexact: a flow dependence's range was over-approximated", s.ID, ri))
				continue
			}
			if empty, _ := uncovered.IsEmpty(); empty {
				continue
			}
			cellVars := make([]string, len(read.Index))
			for k := range cellVars {
				cellVars[k] = CellVarName(read.Array, k)
			}
			var pw poly.Piecewise
			ok := true
			for _, piece := range uncovered.Pieces {
				cons := append([]poly.Constraint(nil), piece.Cons...)
				for k, lin := range read.Index {
					cons = append(cons, poly.Eq(lin, poly.V(cellVars[k])))
				}
				set := poly.BasicSet{Tuple: s.ID, Dims: append([]string(nil), s.Iters...), Cons: cons}
				c, err := poly.Card(set)
				if err != nil {
					a.markDynamic(read.Array, fmt.Sprintf("live-in count of %s read #%d not countable: %v", s.ID, ri, err))
					ok = false
					break
				}
				pw.Pieces = append(pw.Pieces, c.Pieces...)
			}
			if ok {
				a.LiveIns[read.Array] = append(a.LiveIns[read.Array], LiveInContrib{
					Stmt: s, ReadIdx: ri, CellVars: cellVars, Count: pw,
				})
			}
		}
	}

	// A late markDynamic may have invalidated earlier results: drop def and
	// live-in info for arrays that ended up dynamic.
	for s := range a.Defs {
		if !a.Analyzable(s.Write.Array) {
			delete(a.Defs, s)
		}
	}
	for name := range a.LiveIns {
		if !a.Analyzable(name) {
			delete(a.LiveIns, name)
		}
	}
	return a
}

func (a *Analysis) markDynamic(array, reason string) {
	c := a.Classes[array]
	if c == nil {
		c = &ArrayClass{Name: array}
		a.Classes[array] = c
	}
	if c.Analyzable {
		c.Analyzable = false
		c.Reason = reason
	}
}

// uncoveredReads computes the read iterations of s's ri-th read that no flow
// dependence feeds (they observe live-in values). It reports false when a
// dependence's range is inexact: an over-approximated range covers reads no
// write feeds, and the result would undercount the live-in uses.
func (a *Analysis) uncoveredReads(s *pdg.Statement, ri int) (poly.Set, bool) {
	// Work in the dependence target space: iterators renamed with "'".
	ren := pdg.RenameSuffix(s.Iters, "'")
	dom := s.Domain.Rename(ren)
	covered := poly.Set{}
	for _, d := range a.Flow.To(s, ri) {
		for _, bm := range d.Rel.Pieces {
			rng, exact := bm.Range()
			if !exact {
				return poly.Set{}, false
			}
			covered.Pieces = append(covered.Pieces, rng)
		}
	}
	un := poly.UnionSet(dom).Subtract(covered)
	// Rename back to the statement's own iterator names.
	back := map[string]string{}
	for from, to := range ren {
		back[to] = from
	}
	for i := range un.Pieces {
		un.Pieces[i] = un.Pieces[i].Rename(back)
	}
	return un, true
}

// classify marks every declared variable analyzable unless some access to it
// is non-affine or sits under non-affine control.
func classify(m *pdg.Model) map[string]*ArrayClass {
	classes := map[string]*ArrayClass{}
	for _, d := range m.Prog.Decls {
		classes[d.Name] = &ArrayClass{Name: d.Name, Analyzable: true}
	}
	flag := func(name, reason string) {
		c := classes[name]
		if c != nil && c.Analyzable {
			c.Analyzable = false
			c.Reason = reason
		}
	}
	for _, s := range m.Stmts {
		accs := append([]pdg.Access{s.Write}, s.Reads...)
		for _, acc := range accs {
			switch {
			case !s.ControlAffine:
				flag(acc.Array, fmt.Sprintf("accessed by %s under non-affine control", s.ID))
			case !acc.Affine:
				flag(acc.Array, fmt.Sprintf("non-affine subscript in %s", s.ID))
			}
		}
	}
	// Conservatively treat variables that never appear in any modeled
	// statement but are declared as analyzable with no accesses (nothing to
	// protect).
	return classes
}
