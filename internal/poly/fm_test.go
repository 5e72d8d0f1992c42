package poly

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestRowDedup drives the row store past the linear-scan size into its
// hashed index, with duplicates and forced hash collisions on both sides of
// the switch: every distinct row is kept once, in first-seen order.
func TestRowDedup(t *testing.T) {
	var s rows
	s.reset(2)
	const distinct = 3 * linearDedup
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < distinct; i++ {
			r := []int64{int64(i), 1, int64(i % 7)}
			h := rowHash(r, false)
			if i%5 == 0 {
				h = 42 // collide with every other multiple of 5
			}
			s.insert(r, false, h)
			// The same coefficients as an equality are a different row.
			if i%9 == 0 {
				s.insert(r, true, h)
			}
		}
	}
	want := distinct + (distinct+8)/9
	if s.len() != want {
		t.Fatalf("kept %d rows, want %d", s.len(), want)
	}
	k := 0
	for i := 0; i < distinct; i++ {
		if got := s.row(k)[0]; got != int64(i) || s.eq[k] {
			t.Fatalf("row %d = %v (eq %v), want first-seen row %d", k, s.row(k), s.eq[k], i)
		}
		k++
		if i%9 == 0 {
			if !s.eq[k] || s.row(k)[0] != int64(i) {
				t.Fatalf("row %d = %v (eq %v), want equality row %d", k, s.row(k), s.eq[k], i)
			}
			k++
		}
	}
}

// TestKernelConcurrent runs emptiness and projection from several
// goroutines at once, as parallel compilations do, and checks every answer
// against the sequential one: pooled workspaces must never be shared.
func TestKernelConcurrent(t *testing.T) {
	names := []string{"a", "b", "i", "j", "n"}
	rng := rand.New(rand.NewSource(5))
	type answer struct {
		empty, exact bool
		proj         string
	}
	systems := make([][]Constraint, 300)
	want := make([]answer, len(systems))
	for k := range systems {
		systems[k] = randomSystem(rng, names)
		e, x := emptiness(systems[k])
		p, px, pi := project(systems[k], names[:2])
		want[k] = answer{e, x, fmt.Sprint(p, px, pi)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range systems {
				k := (k + g*len(systems)/4) % len(systems)
				e, x := emptiness(systems[k])
				p, px, pi := project(systems[k], names[:2])
				if got := (answer{e, x, fmt.Sprint(p, px, pi)}); got != want[k] {
					t.Errorf("goroutine %d, system %d: got %+v, want %+v", g, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
