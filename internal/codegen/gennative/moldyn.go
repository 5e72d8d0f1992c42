// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_moldyn_original executes the Original variant of the moldyn benchmark natively.
func run_moldyn_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	if epoch != 0 {
		return nil
	}
	p_n := m.Param("n")
	p_k := m.Param("k")
	p_maxiter := m.Param("maxiter")
	b_x, d_x := m.Var("x")
	b_f, d_f := m.Var("f")
	b_cutoff, _ := m.Var("cutoff")
	b_dt, _ := m.Var("dt")
	b_neigh, d_neigh := m.Var("neigh")
	b_iter, _ := m.Var("iter")
	b_stride, _ := m.Var("stride")
	m.Store(b_iter, uint64(int64(0)))
	for {
		if err := m.Tick(7, 1); err != nil {
			return err
		}
		t1 := int64(m.Load(b_iter))
		if !(t1 < p_maxiter) {
			break
		}
		t2 := int64(m.Load(b_stride))
		t3 := t2 + int64(1)
		m.Store(b_stride, uint64(t3))
		t4 := p_n - int64(1)
		for i_i0 := int64(0); i_i0 <= t4; i_i0++ {
			if err := m.Tick(9, 3); err != nil {
				return err
			}
			t5 := p_k - int64(1)
			for i_k0 := int64(0); i_k0 <= t5; i_k0++ {
				if err := m.Tick(10, 5); err != nil {
					return err
				}
				t6 := int64(m.Load(b_stride))
				t7 := i_k0 * t6
				t8 := i_i0 + t7
				if p_n == 0 {
					return m.ModZero(11, 46)
				}
				t9 := t8 % p_n
				t10 := i_i0
				if t10 < 0 || t10 >= d_neigh[0] {
					return m.OOB(t10, d_neigh[0], 0, "neigh", 11, 11)
				}
				t11 := i_k0
				if t11 < 0 || t11 >= d_neigh[1] {
					return m.OOB(t11, d_neigh[1], 1, "neigh", 11, 11)
				}
				t12 := b_neigh + int((t10)*d_neigh[1]+t11)
				m.Store(t12, uint64(t9))
			}
		}
		t13 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t13; i_i1++ {
			if err := m.Tick(14, 3); err != nil {
				return err
			}
			t14 := i_i1
			if t14 < 0 || t14 >= d_f[0] {
				return m.OOB(t14, d_f[0], 0, "f", 15, 9)
			}
			t15 := b_f + int(t14)
			m.StoreF(t15, float64(0))
		}
		t16 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t16; i_i2++ {
			if err := m.Tick(17, 3); err != nil {
				return err
			}
			t17 := p_k - int64(1)
			for i_k2 := int64(0); i_k2 <= t17; i_k2++ {
				if err := m.Tick(18, 5); err != nil {
					return err
				}
				t18 := i_i2
				if t18 < 0 || t18 >= d_f[0] {
					return m.OOB(t18, d_f[0], 0, "f", 19, 19)
				}
				t19 := b_f + int(t18)
				t20 := m.LoadF(t19)
				t21 := m.LoadF(b_cutoff)
				t22 := i_i2
				if t22 < 0 || t22 >= d_neigh[0] {
					return m.OOB(t22, d_neigh[0], 0, "neigh", 19, 41)
				}
				t23 := i_k2
				if t23 < 0 || t23 >= d_neigh[1] {
					return m.OOB(t23, d_neigh[1], 1, "neigh", 19, 41)
				}
				t24 := b_neigh + int((t22)*d_neigh[1]+t23)
				t25 := int64(m.Load(t24))
				t26 := t25
				if t26 < 0 || t26 >= d_x[0] {
					return m.OOB(t26, d_x[0], 0, "x", 19, 39)
				}
				t27 := b_x + int(t26)
				t28 := m.LoadF(t27)
				t29 := i_i2
				if t29 < 0 || t29 >= d_x[0] {
					return m.OOB(t29, d_x[0], 0, "x", 19, 58)
				}
				t30 := b_x + int(t29)
				t31 := m.LoadF(t30)
				t32 := float64(t28 - t31)
				t33 := float64(math.Min(t21, t32))
				t34 := float64(t20 + t33)
				t35 := i_i2
				if t35 < 0 || t35 >= d_f[0] {
					return m.OOB(t35, d_f[0], 0, "f", 19, 11)
				}
				t36 := b_f + int(t35)
				m.StoreF(t36, t34)
			}
		}
		t37 := p_n - int64(1)
		for i_i3 := int64(0); i_i3 <= t37; i_i3++ {
			if err := m.Tick(22, 3); err != nil {
				return err
			}
			t38 := i_i3
			if t38 < 0 || t38 >= d_x[0] {
				return m.OOB(t38, d_x[0], 0, "x", 23, 17)
			}
			t39 := b_x + int(t38)
			t40 := m.LoadF(t39)
			t41 := i_i3
			if t41 < 0 || t41 >= d_f[0] {
				return m.OOB(t41, d_f[0], 0, "f", 23, 25)
			}
			t42 := b_f + int(t41)
			t43 := m.LoadF(t42)
			t44 := m.LoadF(b_dt)
			t45 := float64(t43 * t44)
			t46 := float64(t40 + t45)
			t47 := i_i3
			if t47 < 0 || t47 >= d_x[0] {
				return m.OOB(t47, d_x[0], 0, "x", 23, 9)
			}
			t48 := b_x + int(t47)
			m.StoreF(t48, t46)
		}
		t49 := int64(m.Load(b_iter))
		t50 := t49 + int64(1)
		m.Store(b_iter, uint64(t50))
	}
	return nil
}

// run_moldyn_resilient executes the Resilient variant of the moldyn benchmark natively.
func run_moldyn_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_k := m.Param("k")
	p_maxiter := m.Param("maxiter")
	b_x, d_x := m.Var("x")
	b_f, d_f := m.Var("f")
	b_cutoff, _ := m.Var("cutoff")
	b_dt, _ := m.Var("dt")
	b_neigh, d_neigh := m.Var("neigh")
	b_iter, _ := m.Var("iter")
	b_stride, _ := m.Var("stride")
	b_x_cnt, d_x_cnt := m.Var("x_cnt")
	b_f_cnt, d_f_cnt := m.Var("f_cnt")
	b_cutoff_cnt, _ := m.Var("cutoff_cnt")
	b_dt_cnt, _ := m.Var("dt_cnt")
	b_neigh_cnt, d_neigh_cnt := m.Var("neigh_cnt")
	b_stride_cnt, _ := m.Var("stride_cnt")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_moldyn_resilient_n1(m, &cs, p_n, b_x, d_x, b_x_cnt, d_x_cnt); err != nil {
			return err
		}
		if err := run_moldyn_resilient_n2(m, &cs, p_n, b_f, d_f, b_f_cnt, d_f_cnt); err != nil {
			return err
		}
		m.Store(b_cutoff_cnt, uint64(int64(0)))
		t19 := m.LoadF(b_cutoff)
		cs.Fold(checksum.AccDef, math.Float64bits(t19), int64(1))
		t20 := m.LoadF(b_cutoff)
		cs.Fold(checksum.AccEDef, math.Float64bits(t20), int64(1))
		m.Store(b_dt_cnt, uint64(int64(0)))
		t21 := m.LoadF(b_dt)
		cs.Fold(checksum.AccDef, math.Float64bits(t21), int64(1))
		t22 := m.LoadF(b_dt)
		cs.Fold(checksum.AccEDef, math.Float64bits(t22), int64(1))
		t23 := p_n - int64(1)
		m.SetBounds(int64(0), t23)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_dy03 := start; i_dy03 <= end; i_dy03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_moldyn_resilient_n3(m, &cs, p_k, b_neigh, d_neigh, b_neigh_cnt, d_neigh_cnt, i_dy03); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		m.Store(b_stride_cnt, uint64(int64(0)))
		t36 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccDef, uint64(t36), int64(1))
		t37 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccEDef, uint64(t37), int64(1))
		m.Store(b_iter, uint64(int64(0)))
		if err := run_moldyn_resilient_n4(m, &cs, p_n, p_k, p_maxiter, b_x, d_x, b_f, d_f, b_cutoff, b_dt, b_neigh, d_neigh, b_iter, b_stride, b_x_cnt, d_x_cnt, b_f_cnt, d_f_cnt, b_cutoff_cnt, b_dt_cnt, b_neigh_cnt, d_neigh_cnt, b_stride_cnt); err != nil {
			return err
		}
		if err := run_moldyn_resilient_n5(m, &cs, p_n, b_x, d_x, b_x_cnt, d_x_cnt); err != nil {
			return err
		}
		if err := run_moldyn_resilient_n6(m, &cs, p_n, b_f, d_f, b_f_cnt, d_f_cnt); err != nil {
			return err
		}
		t209 := m.LoadF(b_cutoff)
		t210 := int64(m.Load(b_cutoff_cnt))
		t211 := t210 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t209), t211)
		t212 := m.LoadF(b_cutoff)
		cs.Fold(checksum.AccEUse, math.Float64bits(t212), int64(1))
		t213 := m.LoadF(b_dt)
		t214 := int64(m.Load(b_dt_cnt))
		t215 := t214 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t213), t215)
		t216 := m.LoadF(b_dt)
		cs.Fold(checksum.AccEUse, math.Float64bits(t216), int64(1))
		if err := run_moldyn_resilient_n7(m, &cs, p_n, p_k, b_neigh, d_neigh, b_neigh_cnt, d_neigh_cnt); err != nil {
			return err
		}
		t232 := int64(m.Load(b_stride))
		t233 := int64(m.Load(b_stride_cnt))
		t234 := t233 - int64(1)
		cs.Fold(checksum.AccDef, uint64(t232), t234)
		t235 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccEUse, uint64(t235), int64(1))
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_moldyn_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64, b_x_cnt int, d_x_cnt []int64) error {
	t1 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t1; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2 := i_dy0
		if t2 < 0 || t2 >= d_x_cnt[0] {
			return m.OOB(t2, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t3 := b_x_cnt + int(t2)
		m.Store(t3, uint64(int64(0)))
		t4 := i_dy0
		if t4 < 0 || t4 >= d_x[0] {
			return m.OOB(t4, d_x[0], 0, "x", 0, 0)
		}
		t5 := b_x + int(t4)
		t6 := m.LoadF(t5)
		cs.Fold(checksum.AccDef, math.Float64bits(t6), int64(1))
		t7 := i_dy0
		if t7 < 0 || t7 >= d_x[0] {
			return m.OOB(t7, d_x[0], 0, "x", 0, 0)
		}
		t8 := b_x + int(t7)
		t9 := m.LoadF(t8)
		cs.Fold(checksum.AccEDef, math.Float64bits(t9), int64(1))
	}
	return nil
}

func run_moldyn_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_f int, d_f []int64, b_f_cnt int, d_f_cnt []int64) error {
	t10 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t10; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t11 := i_dy02
		if t11 < 0 || t11 >= d_f_cnt[0] {
			return m.OOB(t11, d_f_cnt[0], 0, "f_cnt", 0, 0)
		}
		t12 := b_f_cnt + int(t11)
		m.Store(t12, uint64(int64(0)))
		t13 := i_dy02
		if t13 < 0 || t13 >= d_f[0] {
			return m.OOB(t13, d_f[0], 0, "f", 0, 0)
		}
		t14 := b_f + int(t13)
		t15 := m.LoadF(t14)
		cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
		t16 := i_dy02
		if t16 < 0 || t16 >= d_f[0] {
			return m.OOB(t16, d_f[0], 0, "f", 0, 0)
		}
		t17 := b_f + int(t16)
		t18 := m.LoadF(t17)
		cs.Fold(checksum.AccEDef, math.Float64bits(t18), int64(1))
	}
	return nil
}

func run_moldyn_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_k int64, b_neigh int, d_neigh []int64, b_neigh_cnt int, d_neigh_cnt []int64, i_dy03 int64) error {
	t24 := p_k - int64(1)
	for i_dy1 := int64(0); i_dy1 <= t24; i_dy1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t25 := i_dy03
		if t25 < 0 || t25 >= d_neigh_cnt[0] {
			return m.OOB(t25, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
		}
		t26 := i_dy1
		if t26 < 0 || t26 >= d_neigh_cnt[1] {
			return m.OOB(t26, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
		}
		t27 := b_neigh_cnt + int((t25)*d_neigh_cnt[1]+t26)
		m.Store(t27, uint64(int64(0)))
		t28 := i_dy03
		if t28 < 0 || t28 >= d_neigh[0] {
			return m.OOB(t28, d_neigh[0], 0, "neigh", 0, 0)
		}
		t29 := i_dy1
		if t29 < 0 || t29 >= d_neigh[1] {
			return m.OOB(t29, d_neigh[1], 1, "neigh", 0, 0)
		}
		t30 := b_neigh + int((t28)*d_neigh[1]+t29)
		t31 := int64(m.Load(t30))
		cs.Fold(checksum.AccDef, uint64(t31), int64(1))
		t32 := i_dy03
		if t32 < 0 || t32 >= d_neigh[0] {
			return m.OOB(t32, d_neigh[0], 0, "neigh", 0, 0)
		}
		t33 := i_dy1
		if t33 < 0 || t33 >= d_neigh[1] {
			return m.OOB(t33, d_neigh[1], 1, "neigh", 0, 0)
		}
		t34 := b_neigh + int((t32)*d_neigh[1]+t33)
		t35 := int64(m.Load(t34))
		cs.Fold(checksum.AccEDef, uint64(t35), int64(1))
	}
	return nil
}

func run_moldyn_resilient_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, p_maxiter int64, b_x int, d_x []int64, b_f int, d_f []int64, b_cutoff int, b_dt int, b_neigh int, d_neigh []int64, b_iter int, b_stride int, b_x_cnt int, d_x_cnt []int64, b_f_cnt int, d_f_cnt []int64, b_cutoff_cnt int, b_dt_cnt int, b_neigh_cnt int, d_neigh_cnt []int64, b_stride_cnt int) error {
	for {
		if err := m.Tick(7, 1); err != nil {
			return err
		}
		t38 := int64(m.Load(b_iter))
		if !(t38 < p_maxiter) {
			break
		}
		r_stride_r := int64(m.Load(b_stride))
		cs.Fold(checksum.AccUse, uint64(r_stride_r), int64(1))
		t39 := int64(m.Load(b_stride_cnt))
		t40 := t39 + int64(1)
		m.Store(b_stride_cnt, uint64(t40))
		t41 := int64(m.Load(b_stride))
		t42 := int64(m.Load(b_stride_cnt))
		t43 := t42 - int64(1)
		cs.Fold(checksum.AccDef, uint64(t41), t43)
		t44 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccEUse, uint64(t44), int64(1))
		t45 := r_stride_r + int64(1)
		r_stride_w := t45
		m.Store(b_stride, uint64(r_stride_w))
		cs.Fold(checksum.AccDef, uint64(r_stride_w), int64(1))
		cs.Fold(checksum.AccEDef, uint64(r_stride_w), int64(1))
		m.Store(b_stride_cnt, uint64(int64(0)))
		t46 := p_n - int64(1)
		for i_i0 := int64(0); i_i0 <= t46; i_i0++ {
			if err := m.Tick(9, 3); err != nil {
				return err
			}
			t47 := p_k - int64(1)
			for i_k0 := int64(0); i_k0 <= t47; i_k0++ {
				if err := m.Tick(10, 5); err != nil {
					return err
				}
				r_stride_r2 := int64(m.Load(b_stride))
				cs.Fold(checksum.AccUse, uint64(r_stride_r2), int64(1))
				t48 := int64(m.Load(b_stride_cnt))
				t49 := t48 + int64(1)
				m.Store(b_stride_cnt, uint64(t49))
				t50 := i_i0
				if t50 < 0 || t50 >= d_neigh[0] {
					return m.OOB(t50, d_neigh[0], 0, "neigh", 11, 11)
				}
				t51 := i_k0
				if t51 < 0 || t51 >= d_neigh[1] {
					return m.OOB(t51, d_neigh[1], 1, "neigh", 11, 11)
				}
				t52 := b_neigh + int((t50)*d_neigh[1]+t51)
				t53 := int64(m.Load(t52))
				t54 := i_i0
				if t54 < 0 || t54 >= d_neigh_cnt[0] {
					return m.OOB(t54, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t55 := i_k0
				if t55 < 0 || t55 >= d_neigh_cnt[1] {
					return m.OOB(t55, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t56 := b_neigh_cnt + int((t54)*d_neigh_cnt[1]+t55)
				t57 := int64(m.Load(t56))
				t58 := t57 - int64(1)
				cs.Fold(checksum.AccDef, uint64(t53), t58)
				t59 := i_i0
				if t59 < 0 || t59 >= d_neigh[0] {
					return m.OOB(t59, d_neigh[0], 0, "neigh", 11, 11)
				}
				t60 := i_k0
				if t60 < 0 || t60 >= d_neigh[1] {
					return m.OOB(t60, d_neigh[1], 1, "neigh", 11, 11)
				}
				t61 := b_neigh + int((t59)*d_neigh[1]+t60)
				t62 := int64(m.Load(t61))
				cs.Fold(checksum.AccEUse, uint64(t62), int64(1))
				t63 := i_k0 * r_stride_r2
				t64 := i_i0 + t63
				if p_n == 0 {
					return m.ModZero(11, 46)
				}
				t65 := t64 % p_n
				r_neigh_w := t65
				t66 := i_i0
				if t66 < 0 || t66 >= d_neigh[0] {
					return m.OOB(t66, d_neigh[0], 0, "neigh", 11, 11)
				}
				t67 := i_k0
				if t67 < 0 || t67 >= d_neigh[1] {
					return m.OOB(t67, d_neigh[1], 1, "neigh", 11, 11)
				}
				t68 := b_neigh + int((t66)*d_neigh[1]+t67)
				m.Store(t68, uint64(r_neigh_w))
				cs.Fold(checksum.AccDef, uint64(r_neigh_w), int64(1))
				cs.Fold(checksum.AccEDef, uint64(r_neigh_w), int64(1))
				t69 := i_i0
				if t69 < 0 || t69 >= d_neigh_cnt[0] {
					return m.OOB(t69, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t70 := i_k0
				if t70 < 0 || t70 >= d_neigh_cnt[1] {
					return m.OOB(t70, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t71 := b_neigh_cnt + int((t69)*d_neigh_cnt[1]+t70)
				m.Store(t71, uint64(int64(0)))
			}
		}
		t72 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t72; i_i1++ {
			if err := m.Tick(14, 3); err != nil {
				return err
			}
			t73 := i_i1
			if t73 < 0 || t73 >= d_f[0] {
				return m.OOB(t73, d_f[0], 0, "f", 15, 9)
			}
			t74 := b_f + int(t73)
			t75 := m.LoadF(t74)
			t76 := i_i1
			if t76 < 0 || t76 >= d_f_cnt[0] {
				return m.OOB(t76, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t77 := b_f_cnt + int(t76)
			t78 := int64(m.Load(t77))
			t79 := t78 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t75), t79)
			t80 := i_i1
			if t80 < 0 || t80 >= d_f[0] {
				return m.OOB(t80, d_f[0], 0, "f", 15, 9)
			}
			t81 := b_f + int(t80)
			t82 := m.LoadF(t81)
			cs.Fold(checksum.AccEUse, math.Float64bits(t82), int64(1))
			r_f_w := float64(0)
			t83 := i_i1
			if t83 < 0 || t83 >= d_f[0] {
				return m.OOB(t83, d_f[0], 0, "f", 15, 9)
			}
			t84 := b_f + int(t83)
			m.StoreF(t84, r_f_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_f_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_f_w), int64(1))
			t85 := i_i1
			if t85 < 0 || t85 >= d_f_cnt[0] {
				return m.OOB(t85, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t86 := b_f_cnt + int(t85)
			m.Store(t86, uint64(int64(0)))
		}
		t87 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t87; i_i2++ {
			if err := m.Tick(17, 3); err != nil {
				return err
			}
			t88 := p_k - int64(1)
			for i_k2 := int64(0); i_k2 <= t88; i_k2++ {
				if err := m.Tick(18, 5); err != nil {
					return err
				}
				t89 := i_i2
				if t89 < 0 || t89 >= d_f[0] {
					return m.OOB(t89, d_f[0], 0, "f", 19, 19)
				}
				t90 := b_f + int(t89)
				r_f_r := m.LoadF(t90)
				r_cutoff_r := m.LoadF(b_cutoff)
				t91 := i_i2
				if t91 < 0 || t91 >= d_neigh[0] {
					return m.OOB(t91, d_neigh[0], 0, "neigh", 19, 41)
				}
				t92 := i_k2
				if t92 < 0 || t92 >= d_neigh[1] {
					return m.OOB(t92, d_neigh[1], 1, "neigh", 19, 41)
				}
				t93 := b_neigh + int((t91)*d_neigh[1]+t92)
				r_neigh_r := int64(m.Load(t93))
				t94 := r_neigh_r
				if t94 < 0 || t94 >= d_x[0] {
					return m.OOB(t94, d_x[0], 0, "x", 19, 39)
				}
				t95 := b_x + int(t94)
				r_x_r := m.LoadF(t95)
				t96 := i_i2
				if t96 < 0 || t96 >= d_x[0] {
					return m.OOB(t96, d_x[0], 0, "x", 19, 58)
				}
				t97 := b_x + int(t96)
				r_x_r2 := m.LoadF(t97)
				cs.Fold(checksum.AccUse, math.Float64bits(r_f_r), int64(1))
				t98 := i_i2
				if t98 < 0 || t98 >= d_f_cnt[0] {
					return m.OOB(t98, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t99 := b_f_cnt + int(t98)
				t100 := int64(m.Load(t99))
				t101 := t100 + int64(1)
				t102 := i_i2
				if t102 < 0 || t102 >= d_f_cnt[0] {
					return m.OOB(t102, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t103 := b_f_cnt + int(t102)
				m.Store(t103, uint64(t101))
				cs.Fold(checksum.AccUse, math.Float64bits(r_cutoff_r), int64(1))
				t104 := int64(m.Load(b_cutoff_cnt))
				t105 := t104 + int64(1)
				m.Store(b_cutoff_cnt, uint64(t105))
				cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
				t106 := i_i2
				if t106 < 0 || t106 >= d_neigh[0] {
					return m.OOB(t106, d_neigh[0], 0, "neigh", 19, 41)
				}
				t107 := i_k2
				if t107 < 0 || t107 >= d_neigh[1] {
					return m.OOB(t107, d_neigh[1], 1, "neigh", 19, 41)
				}
				t108 := b_neigh + int((t106)*d_neigh[1]+t107)
				t109 := int64(m.Load(t108))
				t110 := t109
				if t110 < 0 || t110 >= d_x_cnt[0] {
					return m.OOB(t110, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t111 := b_x_cnt + int(t110)
				t112 := int64(m.Load(t111))
				t113 := t112 + int64(1)
				t114 := i_i2
				if t114 < 0 || t114 >= d_neigh[0] {
					return m.OOB(t114, d_neigh[0], 0, "neigh", 19, 41)
				}
				t115 := i_k2
				if t115 < 0 || t115 >= d_neigh[1] {
					return m.OOB(t115, d_neigh[1], 1, "neigh", 19, 41)
				}
				t116 := b_neigh + int((t114)*d_neigh[1]+t115)
				t117 := int64(m.Load(t116))
				t118 := t117
				if t118 < 0 || t118 >= d_x_cnt[0] {
					return m.OOB(t118, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t119 := b_x_cnt + int(t118)
				m.Store(t119, uint64(t113))
				cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
				t120 := i_i2
				if t120 < 0 || t120 >= d_x_cnt[0] {
					return m.OOB(t120, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t121 := b_x_cnt + int(t120)
				t122 := int64(m.Load(t121))
				t123 := t122 + int64(1)
				t124 := i_i2
				if t124 < 0 || t124 >= d_x_cnt[0] {
					return m.OOB(t124, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t125 := b_x_cnt + int(t124)
				m.Store(t125, uint64(t123))
				cs.Fold(checksum.AccUse, uint64(r_neigh_r), int64(1))
				t126 := i_i2
				if t126 < 0 || t126 >= d_neigh_cnt[0] {
					return m.OOB(t126, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t127 := i_k2
				if t127 < 0 || t127 >= d_neigh_cnt[1] {
					return m.OOB(t127, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t128 := b_neigh_cnt + int((t126)*d_neigh_cnt[1]+t127)
				t129 := int64(m.Load(t128))
				t130 := t129 + int64(1)
				t131 := i_i2
				if t131 < 0 || t131 >= d_neigh_cnt[0] {
					return m.OOB(t131, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t132 := i_k2
				if t132 < 0 || t132 >= d_neigh_cnt[1] {
					return m.OOB(t132, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t133 := b_neigh_cnt + int((t131)*d_neigh_cnt[1]+t132)
				m.Store(t133, uint64(t130))
				t134 := i_i2
				if t134 < 0 || t134 >= d_f[0] {
					return m.OOB(t134, d_f[0], 0, "f", 19, 11)
				}
				t135 := b_f + int(t134)
				t136 := m.LoadF(t135)
				t137 := i_i2
				if t137 < 0 || t137 >= d_f_cnt[0] {
					return m.OOB(t137, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t138 := b_f_cnt + int(t137)
				t139 := int64(m.Load(t138))
				t140 := t139 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(t136), t140)
				t141 := i_i2
				if t141 < 0 || t141 >= d_f[0] {
					return m.OOB(t141, d_f[0], 0, "f", 19, 11)
				}
				t142 := b_f + int(t141)
				t143 := m.LoadF(t142)
				cs.Fold(checksum.AccEUse, math.Float64bits(t143), int64(1))
				t144 := float64(r_x_r - r_x_r2)
				t145 := float64(math.Min(r_cutoff_r, t144))
				t146 := float64(r_f_r + t145)
				r_f_w2 := t146
				t147 := i_i2
				if t147 < 0 || t147 >= d_f[0] {
					return m.OOB(t147, d_f[0], 0, "f", 19, 11)
				}
				t148 := b_f + int(t147)
				m.StoreF(t148, r_f_w2)
				cs.Fold(checksum.AccDef, math.Float64bits(r_f_w2), int64(1))
				cs.Fold(checksum.AccEDef, math.Float64bits(r_f_w2), int64(1))
				t149 := i_i2
				if t149 < 0 || t149 >= d_f_cnt[0] {
					return m.OOB(t149, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t150 := b_f_cnt + int(t149)
				m.Store(t150, uint64(int64(0)))
			}
		}
		t151 := p_n - int64(1)
		for i_i3 := int64(0); i_i3 <= t151; i_i3++ {
			if err := m.Tick(22, 3); err != nil {
				return err
			}
			t152 := i_i3
			if t152 < 0 || t152 >= d_x[0] {
				return m.OOB(t152, d_x[0], 0, "x", 23, 17)
			}
			t153 := b_x + int(t152)
			r_x_r3 := m.LoadF(t153)
			t154 := i_i3
			if t154 < 0 || t154 >= d_f[0] {
				return m.OOB(t154, d_f[0], 0, "f", 23, 25)
			}
			t155 := b_f + int(t154)
			r_f_r2 := m.LoadF(t155)
			r_dt_r := m.LoadF(b_dt)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
			t156 := i_i3
			if t156 < 0 || t156 >= d_x_cnt[0] {
				return m.OOB(t156, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t157 := b_x_cnt + int(t156)
			t158 := int64(m.Load(t157))
			t159 := t158 + int64(1)
			t160 := i_i3
			if t160 < 0 || t160 >= d_x_cnt[0] {
				return m.OOB(t160, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t161 := b_x_cnt + int(t160)
			m.Store(t161, uint64(t159))
			cs.Fold(checksum.AccUse, math.Float64bits(r_f_r2), int64(1))
			t162 := i_i3
			if t162 < 0 || t162 >= d_f_cnt[0] {
				return m.OOB(t162, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t163 := b_f_cnt + int(t162)
			t164 := int64(m.Load(t163))
			t165 := t164 + int64(1)
			t166 := i_i3
			if t166 < 0 || t166 >= d_f_cnt[0] {
				return m.OOB(t166, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t167 := b_f_cnt + int(t166)
			m.Store(t167, uint64(t165))
			cs.Fold(checksum.AccUse, math.Float64bits(r_dt_r), int64(1))
			t168 := int64(m.Load(b_dt_cnt))
			t169 := t168 + int64(1)
			m.Store(b_dt_cnt, uint64(t169))
			t170 := i_i3
			if t170 < 0 || t170 >= d_x[0] {
				return m.OOB(t170, d_x[0], 0, "x", 23, 9)
			}
			t171 := b_x + int(t170)
			t172 := m.LoadF(t171)
			t173 := i_i3
			if t173 < 0 || t173 >= d_x_cnt[0] {
				return m.OOB(t173, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t174 := b_x_cnt + int(t173)
			t175 := int64(m.Load(t174))
			t176 := t175 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t172), t176)
			t177 := i_i3
			if t177 < 0 || t177 >= d_x[0] {
				return m.OOB(t177, d_x[0], 0, "x", 23, 9)
			}
			t178 := b_x + int(t177)
			t179 := m.LoadF(t178)
			cs.Fold(checksum.AccEUse, math.Float64bits(t179), int64(1))
			t180 := float64(r_f_r2 * r_dt_r)
			t181 := float64(r_x_r3 + t180)
			r_x_w := t181
			t182 := i_i3
			if t182 < 0 || t182 >= d_x[0] {
				return m.OOB(t182, d_x[0], 0, "x", 23, 9)
			}
			t183 := b_x + int(t182)
			m.StoreF(t183, r_x_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_x_w), int64(1))
			t184 := i_i3
			if t184 < 0 || t184 >= d_x_cnt[0] {
				return m.OOB(t184, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t185 := b_x_cnt + int(t184)
			m.Store(t185, uint64(int64(0)))
		}
		r_iter_r := int64(m.Load(b_iter))
		t186 := r_iter_r + int64(1)
		m.Store(b_iter, uint64(t186))
	}
	return nil
}

func run_moldyn_resilient_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64, b_x_cnt int, d_x_cnt []int64) error {
	t187 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t187; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t188 := i_dy0
		if t188 < 0 || t188 >= d_x[0] {
			return m.OOB(t188, d_x[0], 0, "x", 0, 0)
		}
		t189 := b_x + int(t188)
		t190 := m.LoadF(t189)
		t191 := i_dy0
		if t191 < 0 || t191 >= d_x_cnt[0] {
			return m.OOB(t191, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t192 := b_x_cnt + int(t191)
		t193 := int64(m.Load(t192))
		t194 := t193 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t190), t194)
		t195 := i_dy0
		if t195 < 0 || t195 >= d_x[0] {
			return m.OOB(t195, d_x[0], 0, "x", 0, 0)
		}
		t196 := b_x + int(t195)
		t197 := m.LoadF(t196)
		cs.Fold(checksum.AccEUse, math.Float64bits(t197), int64(1))
	}
	return nil
}

func run_moldyn_resilient_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_f int, d_f []int64, b_f_cnt int, d_f_cnt []int64) error {
	t198 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t198; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t199 := i_dy02
		if t199 < 0 || t199 >= d_f[0] {
			return m.OOB(t199, d_f[0], 0, "f", 0, 0)
		}
		t200 := b_f + int(t199)
		t201 := m.LoadF(t200)
		t202 := i_dy02
		if t202 < 0 || t202 >= d_f_cnt[0] {
			return m.OOB(t202, d_f_cnt[0], 0, "f_cnt", 0, 0)
		}
		t203 := b_f_cnt + int(t202)
		t204 := int64(m.Load(t203))
		t205 := t204 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t201), t205)
		t206 := i_dy02
		if t206 < 0 || t206 >= d_f[0] {
			return m.OOB(t206, d_f[0], 0, "f", 0, 0)
		}
		t207 := b_f + int(t206)
		t208 := m.LoadF(t207)
		cs.Fold(checksum.AccEUse, math.Float64bits(t208), int64(1))
	}
	return nil
}

func run_moldyn_resilient_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_neigh int, d_neigh []int64, b_neigh_cnt int, d_neigh_cnt []int64) error {
	t217 := p_n - int64(1)
	for i_dy03 := int64(0); i_dy03 <= t217; i_dy03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t218 := p_k - int64(1)
		for i_dy1 := int64(0); i_dy1 <= t218; i_dy1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t219 := i_dy03
			if t219 < 0 || t219 >= d_neigh[0] {
				return m.OOB(t219, d_neigh[0], 0, "neigh", 0, 0)
			}
			t220 := i_dy1
			if t220 < 0 || t220 >= d_neigh[1] {
				return m.OOB(t220, d_neigh[1], 1, "neigh", 0, 0)
			}
			t221 := b_neigh + int((t219)*d_neigh[1]+t220)
			t222 := int64(m.Load(t221))
			t223 := i_dy03
			if t223 < 0 || t223 >= d_neigh_cnt[0] {
				return m.OOB(t223, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
			}
			t224 := i_dy1
			if t224 < 0 || t224 >= d_neigh_cnt[1] {
				return m.OOB(t224, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
			}
			t225 := b_neigh_cnt + int((t223)*d_neigh_cnt[1]+t224)
			t226 := int64(m.Load(t225))
			t227 := t226 - int64(1)
			cs.Fold(checksum.AccDef, uint64(t222), t227)
			t228 := i_dy03
			if t228 < 0 || t228 >= d_neigh[0] {
				return m.OOB(t228, d_neigh[0], 0, "neigh", 0, 0)
			}
			t229 := i_dy1
			if t229 < 0 || t229 >= d_neigh[1] {
				return m.OOB(t229, d_neigh[1], 1, "neigh", 0, 0)
			}
			t230 := b_neigh + int((t228)*d_neigh[1]+t229)
			t231 := int64(m.Load(t230))
			cs.Fold(checksum.AccEUse, uint64(t231), int64(1))
		}
	}
	return nil
}

// run_moldyn_resilientopt executes the Resilient-Optimized variant of the moldyn benchmark natively.
func run_moldyn_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_k := m.Param("k")
	p_maxiter := m.Param("maxiter")
	b_x, d_x := m.Var("x")
	b_f, d_f := m.Var("f")
	b_cutoff, _ := m.Var("cutoff")
	b_dt, _ := m.Var("dt")
	b_neigh, d_neigh := m.Var("neigh")
	b_iter, _ := m.Var("iter")
	b_stride, _ := m.Var("stride")
	b_defuse_iter, _ := m.Var("defuse_iter")
	b_x_cnt, d_x_cnt := m.Var("x_cnt")
	b_f_cnt, d_f_cnt := m.Var("f_cnt")
	b_neigh_cnt, d_neigh_cnt := m.Var("neigh_cnt")
	b_stride_cnt, _ := m.Var("stride_cnt")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_moldyn_resilientopt_n1(m, &cs, p_n, b_x, d_x, b_x_cnt, d_x_cnt); err != nil {
			return err
		}
		if err := run_moldyn_resilientopt_n2(m, &cs, p_n, b_f, d_f, b_f_cnt, d_f_cnt); err != nil {
			return err
		}
		t19 := p_n - int64(1)
		m.SetBounds(int64(0), t19)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_dy03 := start; i_dy03 <= end; i_dy03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_moldyn_resilientopt_n3(m, &cs, p_k, b_neigh, d_neigh, b_neigh_cnt, d_neigh_cnt, i_dy03); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		m.Store(b_stride_cnt, uint64(int64(0)))
		t32 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccDef, uint64(t32), int64(1))
		t33 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccEDef, uint64(t33), int64(1))
		m.Store(b_iter, uint64(int64(0)))
		m.Store(b_defuse_iter, uint64(int64(0)))
		t34 := m.LoadF(b_cutoff)
		cs.Fold(checksum.AccDef, math.Float64bits(t34), int64(1))
		t35 := m.LoadF(b_cutoff)
		cs.Fold(checksum.AccEDef, math.Float64bits(t35), int64(1))
		t36 := m.LoadF(b_dt)
		cs.Fold(checksum.AccDef, math.Float64bits(t36), int64(1))
		t37 := m.LoadF(b_dt)
		cs.Fold(checksum.AccEDef, math.Float64bits(t37), int64(1))
		if err := run_moldyn_resilientopt_n4(m, &cs, p_n, p_k, p_maxiter, b_x, d_x, b_f, d_f, b_cutoff, b_dt, b_neigh, d_neigh, b_iter, b_stride, b_defuse_iter, b_x_cnt, d_x_cnt, b_f_cnt, d_f_cnt, b_neigh_cnt, d_neigh_cnt, b_stride_cnt); err != nil {
			return err
		}
		t186 := p_k - int64(1)
		t185 := t186 >= int64(0)
		if t185 {
			t187 := p_n - int64(1)
			t185 = t187 >= int64(0)
		}
		if t185 {
			t188 := m.LoadF(b_cutoff)
			t189 := p_n * int64(1)
			t190 := p_k * t189
			t191 := int64(m.Load(b_defuse_iter))
			t192 := t190 * t191
			cs.Fold(checksum.AccDef, math.Float64bits(t188), t192)
		}
		t193 := m.LoadF(b_cutoff)
		t194 := -int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t193), t194)
		t195 := m.LoadF(b_cutoff)
		cs.Fold(checksum.AccEUse, math.Float64bits(t195), int64(1))
		t196 := p_n - int64(1)
		if t196 >= int64(0) {
			t197 := m.LoadF(b_dt)
			t198 := int64(m.Load(b_defuse_iter))
			t199 := p_n * t198
			cs.Fold(checksum.AccDef, math.Float64bits(t197), t199)
		}
		t200 := m.LoadF(b_dt)
		t201 := -int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t200), t201)
		t202 := m.LoadF(b_dt)
		cs.Fold(checksum.AccEUse, math.Float64bits(t202), int64(1))
		if err := run_moldyn_resilientopt_n5(m, &cs, p_n, b_x, d_x, b_x_cnt, d_x_cnt); err != nil {
			return err
		}
		if err := run_moldyn_resilientopt_n6(m, &cs, p_n, b_f, d_f, b_f_cnt, d_f_cnt); err != nil {
			return err
		}
		if err := run_moldyn_resilientopt_n7(m, &cs, p_n, p_k, b_neigh, d_neigh, b_neigh_cnt, d_neigh_cnt); err != nil {
			return err
		}
		t240 := int64(m.Load(b_stride))
		t241 := int64(m.Load(b_stride_cnt))
		t242 := t241 - int64(1)
		cs.Fold(checksum.AccDef, uint64(t240), t242)
		t243 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccEUse, uint64(t243), int64(1))
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_moldyn_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64, b_x_cnt int, d_x_cnt []int64) error {
	t1 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t1; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2 := i_dy0
		if t2 < 0 || t2 >= d_x_cnt[0] {
			return m.OOB(t2, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t3 := b_x_cnt + int(t2)
		m.Store(t3, uint64(int64(0)))
		t4 := i_dy0
		if t4 < 0 || t4 >= d_x[0] {
			return m.OOB(t4, d_x[0], 0, "x", 0, 0)
		}
		t5 := b_x + int(t4)
		t6 := m.LoadF(t5)
		cs.Fold(checksum.AccDef, math.Float64bits(t6), int64(1))
		t7 := i_dy0
		if t7 < 0 || t7 >= d_x[0] {
			return m.OOB(t7, d_x[0], 0, "x", 0, 0)
		}
		t8 := b_x + int(t7)
		t9 := m.LoadF(t8)
		cs.Fold(checksum.AccEDef, math.Float64bits(t9), int64(1))
	}
	return nil
}

func run_moldyn_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_f int, d_f []int64, b_f_cnt int, d_f_cnt []int64) error {
	t10 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t10; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t11 := i_dy02
		if t11 < 0 || t11 >= d_f_cnt[0] {
			return m.OOB(t11, d_f_cnt[0], 0, "f_cnt", 0, 0)
		}
		t12 := b_f_cnt + int(t11)
		m.Store(t12, uint64(int64(0)))
		t13 := i_dy02
		if t13 < 0 || t13 >= d_f[0] {
			return m.OOB(t13, d_f[0], 0, "f", 0, 0)
		}
		t14 := b_f + int(t13)
		t15 := m.LoadF(t14)
		cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
		t16 := i_dy02
		if t16 < 0 || t16 >= d_f[0] {
			return m.OOB(t16, d_f[0], 0, "f", 0, 0)
		}
		t17 := b_f + int(t16)
		t18 := m.LoadF(t17)
		cs.Fold(checksum.AccEDef, math.Float64bits(t18), int64(1))
	}
	return nil
}

func run_moldyn_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_k int64, b_neigh int, d_neigh []int64, b_neigh_cnt int, d_neigh_cnt []int64, i_dy03 int64) error {
	t20 := p_k - int64(1)
	for i_dy1 := int64(0); i_dy1 <= t20; i_dy1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t21 := i_dy03
		if t21 < 0 || t21 >= d_neigh_cnt[0] {
			return m.OOB(t21, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
		}
		t22 := i_dy1
		if t22 < 0 || t22 >= d_neigh_cnt[1] {
			return m.OOB(t22, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
		}
		t23 := b_neigh_cnt + int((t21)*d_neigh_cnt[1]+t22)
		m.Store(t23, uint64(int64(0)))
		t24 := i_dy03
		if t24 < 0 || t24 >= d_neigh[0] {
			return m.OOB(t24, d_neigh[0], 0, "neigh", 0, 0)
		}
		t25 := i_dy1
		if t25 < 0 || t25 >= d_neigh[1] {
			return m.OOB(t25, d_neigh[1], 1, "neigh", 0, 0)
		}
		t26 := b_neigh + int((t24)*d_neigh[1]+t25)
		t27 := int64(m.Load(t26))
		cs.Fold(checksum.AccDef, uint64(t27), int64(1))
		t28 := i_dy03
		if t28 < 0 || t28 >= d_neigh[0] {
			return m.OOB(t28, d_neigh[0], 0, "neigh", 0, 0)
		}
		t29 := i_dy1
		if t29 < 0 || t29 >= d_neigh[1] {
			return m.OOB(t29, d_neigh[1], 1, "neigh", 0, 0)
		}
		t30 := b_neigh + int((t28)*d_neigh[1]+t29)
		t31 := int64(m.Load(t30))
		cs.Fold(checksum.AccEDef, uint64(t31), int64(1))
	}
	return nil
}

func run_moldyn_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, p_maxiter int64, b_x int, d_x []int64, b_f int, d_f []int64, b_cutoff int, b_dt int, b_neigh int, d_neigh []int64, b_iter int, b_stride int, b_defuse_iter int, b_x_cnt int, d_x_cnt []int64, b_f_cnt int, d_f_cnt []int64, b_neigh_cnt int, d_neigh_cnt []int64, b_stride_cnt int) error {
	for {
		if err := m.Tick(7, 1); err != nil {
			return err
		}
		t38 := int64(m.Load(b_iter))
		if !(t38 < p_maxiter) {
			break
		}
		t39 := int64(m.Load(b_defuse_iter))
		t40 := t39 + int64(1)
		m.Store(b_defuse_iter, uint64(t40))
		r_stride_r := int64(m.Load(b_stride))
		cs.Fold(checksum.AccUse, uint64(r_stride_r), int64(1))
		t41 := int64(m.Load(b_stride_cnt))
		t42 := t41 + int64(1)
		m.Store(b_stride_cnt, uint64(t42))
		t43 := int64(m.Load(b_stride))
		t44 := int64(m.Load(b_stride_cnt))
		t45 := t44 - int64(1)
		cs.Fold(checksum.AccDef, uint64(t43), t45)
		t46 := int64(m.Load(b_stride))
		cs.Fold(checksum.AccEUse, uint64(t46), int64(1))
		t47 := r_stride_r + int64(1)
		r_stride_w := t47
		m.Store(b_stride, uint64(r_stride_w))
		cs.Fold(checksum.AccDef, uint64(r_stride_w), int64(1))
		cs.Fold(checksum.AccEDef, uint64(r_stride_w), int64(1))
		m.Store(b_stride_cnt, uint64(int64(0)))
		t48 := p_n - int64(1)
		for i_i0 := int64(0); i_i0 <= t48; i_i0++ {
			if err := m.Tick(9, 3); err != nil {
				return err
			}
			t49 := p_k - int64(1)
			for i_k0 := int64(0); i_k0 <= t49; i_k0++ {
				if err := m.Tick(10, 5); err != nil {
					return err
				}
				r_stride_r2 := int64(m.Load(b_stride))
				cs.Fold(checksum.AccUse, uint64(r_stride_r2), int64(1))
				t50 := int64(m.Load(b_stride_cnt))
				t51 := t50 + int64(1)
				m.Store(b_stride_cnt, uint64(t51))
				t52 := i_i0
				if t52 < 0 || t52 >= d_neigh[0] {
					return m.OOB(t52, d_neigh[0], 0, "neigh", 11, 11)
				}
				t53 := i_k0
				if t53 < 0 || t53 >= d_neigh[1] {
					return m.OOB(t53, d_neigh[1], 1, "neigh", 11, 11)
				}
				t54 := b_neigh + int((t52)*d_neigh[1]+t53)
				t55 := int64(m.Load(t54))
				t56 := i_i0
				if t56 < 0 || t56 >= d_neigh_cnt[0] {
					return m.OOB(t56, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t57 := i_k0
				if t57 < 0 || t57 >= d_neigh_cnt[1] {
					return m.OOB(t57, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t58 := b_neigh_cnt + int((t56)*d_neigh_cnt[1]+t57)
				t59 := int64(m.Load(t58))
				t60 := t59 - int64(1)
				cs.Fold(checksum.AccDef, uint64(t55), t60)
				t61 := i_i0
				if t61 < 0 || t61 >= d_neigh[0] {
					return m.OOB(t61, d_neigh[0], 0, "neigh", 11, 11)
				}
				t62 := i_k0
				if t62 < 0 || t62 >= d_neigh[1] {
					return m.OOB(t62, d_neigh[1], 1, "neigh", 11, 11)
				}
				t63 := b_neigh + int((t61)*d_neigh[1]+t62)
				t64 := int64(m.Load(t63))
				cs.Fold(checksum.AccEUse, uint64(t64), int64(1))
				t65 := i_k0 * r_stride_r2
				t66 := i_i0 + t65
				if p_n == 0 {
					return m.ModZero(11, 46)
				}
				t67 := t66 % p_n
				r_neigh_w := t67
				t68 := i_i0
				if t68 < 0 || t68 >= d_neigh[0] {
					return m.OOB(t68, d_neigh[0], 0, "neigh", 11, 11)
				}
				t69 := i_k0
				if t69 < 0 || t69 >= d_neigh[1] {
					return m.OOB(t69, d_neigh[1], 1, "neigh", 11, 11)
				}
				t70 := b_neigh + int((t68)*d_neigh[1]+t69)
				m.Store(t70, uint64(r_neigh_w))
				cs.Fold(checksum.AccDef, uint64(r_neigh_w), int64(1))
				cs.Fold(checksum.AccEDef, uint64(r_neigh_w), int64(1))
				t71 := i_i0
				if t71 < 0 || t71 >= d_neigh_cnt[0] {
					return m.OOB(t71, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t72 := i_k0
				if t72 < 0 || t72 >= d_neigh_cnt[1] {
					return m.OOB(t72, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t73 := b_neigh_cnt + int((t71)*d_neigh_cnt[1]+t72)
				m.Store(t73, uint64(int64(0)))
			}
		}
		t74 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t74; i_i1++ {
			if err := m.Tick(14, 3); err != nil {
				return err
			}
			t75 := i_i1
			if t75 < 0 || t75 >= d_f[0] {
				return m.OOB(t75, d_f[0], 0, "f", 15, 9)
			}
			t76 := b_f + int(t75)
			t77 := m.LoadF(t76)
			t78 := i_i1
			if t78 < 0 || t78 >= d_f_cnt[0] {
				return m.OOB(t78, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t79 := b_f_cnt + int(t78)
			t80 := int64(m.Load(t79))
			t81 := t80 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t77), t81)
			t82 := i_i1
			if t82 < 0 || t82 >= d_f[0] {
				return m.OOB(t82, d_f[0], 0, "f", 15, 9)
			}
			t83 := b_f + int(t82)
			t84 := m.LoadF(t83)
			cs.Fold(checksum.AccEUse, math.Float64bits(t84), int64(1))
			r_f_w := float64(0)
			t85 := i_i1
			if t85 < 0 || t85 >= d_f[0] {
				return m.OOB(t85, d_f[0], 0, "f", 15, 9)
			}
			t86 := b_f + int(t85)
			m.StoreF(t86, r_f_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_f_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_f_w), int64(1))
			t87 := i_i1
			if t87 < 0 || t87 >= d_f_cnt[0] {
				return m.OOB(t87, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t88 := b_f_cnt + int(t87)
			m.Store(t88, uint64(int64(0)))
		}
		t89 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t89; i_i2++ {
			if err := m.Tick(17, 3); err != nil {
				return err
			}
			t90 := p_k - int64(1)
			for i_k2 := int64(0); i_k2 <= t90; i_k2++ {
				if err := m.Tick(18, 5); err != nil {
					return err
				}
				t91 := i_i2
				if t91 < 0 || t91 >= d_f[0] {
					return m.OOB(t91, d_f[0], 0, "f", 19, 19)
				}
				t92 := b_f + int(t91)
				r_f_r := m.LoadF(t92)
				r_cutoff_r := m.LoadF(b_cutoff)
				t93 := i_i2
				if t93 < 0 || t93 >= d_neigh[0] {
					return m.OOB(t93, d_neigh[0], 0, "neigh", 19, 41)
				}
				t94 := i_k2
				if t94 < 0 || t94 >= d_neigh[1] {
					return m.OOB(t94, d_neigh[1], 1, "neigh", 19, 41)
				}
				t95 := b_neigh + int((t93)*d_neigh[1]+t94)
				r_neigh_r := int64(m.Load(t95))
				t96 := r_neigh_r
				if t96 < 0 || t96 >= d_x[0] {
					return m.OOB(t96, d_x[0], 0, "x", 19, 39)
				}
				t97 := b_x + int(t96)
				r_x_r := m.LoadF(t97)
				t98 := i_i2
				if t98 < 0 || t98 >= d_x[0] {
					return m.OOB(t98, d_x[0], 0, "x", 19, 58)
				}
				t99 := b_x + int(t98)
				r_x_r2 := m.LoadF(t99)
				cs.Fold(checksum.AccUse, math.Float64bits(r_f_r), int64(1))
				t100 := i_i2
				if t100 < 0 || t100 >= d_f_cnt[0] {
					return m.OOB(t100, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t101 := b_f_cnt + int(t100)
				t102 := int64(m.Load(t101))
				t103 := t102 + int64(1)
				t104 := i_i2
				if t104 < 0 || t104 >= d_f_cnt[0] {
					return m.OOB(t104, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t105 := b_f_cnt + int(t104)
				m.Store(t105, uint64(t103))
				cs.Fold(checksum.AccUse, math.Float64bits(r_cutoff_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
				t106 := i_i2
				if t106 < 0 || t106 >= d_neigh[0] {
					return m.OOB(t106, d_neigh[0], 0, "neigh", 19, 41)
				}
				t107 := i_k2
				if t107 < 0 || t107 >= d_neigh[1] {
					return m.OOB(t107, d_neigh[1], 1, "neigh", 19, 41)
				}
				t108 := b_neigh + int((t106)*d_neigh[1]+t107)
				t109 := int64(m.Load(t108))
				t110 := t109
				if t110 < 0 || t110 >= d_x_cnt[0] {
					return m.OOB(t110, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t111 := b_x_cnt + int(t110)
				t112 := int64(m.Load(t111))
				t113 := t112 + int64(1)
				t114 := i_i2
				if t114 < 0 || t114 >= d_neigh[0] {
					return m.OOB(t114, d_neigh[0], 0, "neigh", 19, 41)
				}
				t115 := i_k2
				if t115 < 0 || t115 >= d_neigh[1] {
					return m.OOB(t115, d_neigh[1], 1, "neigh", 19, 41)
				}
				t116 := b_neigh + int((t114)*d_neigh[1]+t115)
				t117 := int64(m.Load(t116))
				t118 := t117
				if t118 < 0 || t118 >= d_x_cnt[0] {
					return m.OOB(t118, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t119 := b_x_cnt + int(t118)
				m.Store(t119, uint64(t113))
				cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
				t120 := i_i2
				if t120 < 0 || t120 >= d_x_cnt[0] {
					return m.OOB(t120, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t121 := b_x_cnt + int(t120)
				t122 := int64(m.Load(t121))
				t123 := t122 + int64(1)
				t124 := i_i2
				if t124 < 0 || t124 >= d_x_cnt[0] {
					return m.OOB(t124, d_x_cnt[0], 0, "x_cnt", 0, 0)
				}
				t125 := b_x_cnt + int(t124)
				m.Store(t125, uint64(t123))
				cs.Fold(checksum.AccUse, uint64(r_neigh_r), int64(1))
				t126 := i_i2
				if t126 < 0 || t126 >= d_neigh_cnt[0] {
					return m.OOB(t126, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t127 := i_k2
				if t127 < 0 || t127 >= d_neigh_cnt[1] {
					return m.OOB(t127, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t128 := b_neigh_cnt + int((t126)*d_neigh_cnt[1]+t127)
				t129 := int64(m.Load(t128))
				t130 := t129 + int64(1)
				t131 := i_i2
				if t131 < 0 || t131 >= d_neigh_cnt[0] {
					return m.OOB(t131, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
				}
				t132 := i_k2
				if t132 < 0 || t132 >= d_neigh_cnt[1] {
					return m.OOB(t132, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
				}
				t133 := b_neigh_cnt + int((t131)*d_neigh_cnt[1]+t132)
				m.Store(t133, uint64(t130))
				t134 := i_i2
				if t134 < 0 || t134 >= d_f[0] {
					return m.OOB(t134, d_f[0], 0, "f", 19, 11)
				}
				t135 := b_f + int(t134)
				t136 := m.LoadF(t135)
				t137 := i_i2
				if t137 < 0 || t137 >= d_f_cnt[0] {
					return m.OOB(t137, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t138 := b_f_cnt + int(t137)
				t139 := int64(m.Load(t138))
				t140 := t139 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(t136), t140)
				t141 := i_i2
				if t141 < 0 || t141 >= d_f[0] {
					return m.OOB(t141, d_f[0], 0, "f", 19, 11)
				}
				t142 := b_f + int(t141)
				t143 := m.LoadF(t142)
				cs.Fold(checksum.AccEUse, math.Float64bits(t143), int64(1))
				t144 := float64(r_x_r - r_x_r2)
				t145 := float64(math.Min(r_cutoff_r, t144))
				t146 := float64(r_f_r + t145)
				r_f_w2 := t146
				t147 := i_i2
				if t147 < 0 || t147 >= d_f[0] {
					return m.OOB(t147, d_f[0], 0, "f", 19, 11)
				}
				t148 := b_f + int(t147)
				m.StoreF(t148, r_f_w2)
				cs.Fold(checksum.AccDef, math.Float64bits(r_f_w2), int64(1))
				cs.Fold(checksum.AccEDef, math.Float64bits(r_f_w2), int64(1))
				t149 := i_i2
				if t149 < 0 || t149 >= d_f_cnt[0] {
					return m.OOB(t149, d_f_cnt[0], 0, "f_cnt", 0, 0)
				}
				t150 := b_f_cnt + int(t149)
				m.Store(t150, uint64(int64(0)))
			}
		}
		t151 := p_n - int64(1)
		for i_i3 := int64(0); i_i3 <= t151; i_i3++ {
			if err := m.Tick(22, 3); err != nil {
				return err
			}
			t152 := i_i3
			if t152 < 0 || t152 >= d_x[0] {
				return m.OOB(t152, d_x[0], 0, "x", 23, 17)
			}
			t153 := b_x + int(t152)
			r_x_r3 := m.LoadF(t153)
			t154 := i_i3
			if t154 < 0 || t154 >= d_f[0] {
				return m.OOB(t154, d_f[0], 0, "f", 23, 25)
			}
			t155 := b_f + int(t154)
			r_f_r2 := m.LoadF(t155)
			r_dt_r := m.LoadF(b_dt)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
			t156 := i_i3
			if t156 < 0 || t156 >= d_x_cnt[0] {
				return m.OOB(t156, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t157 := b_x_cnt + int(t156)
			t158 := int64(m.Load(t157))
			t159 := t158 + int64(1)
			t160 := i_i3
			if t160 < 0 || t160 >= d_x_cnt[0] {
				return m.OOB(t160, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t161 := b_x_cnt + int(t160)
			m.Store(t161, uint64(t159))
			cs.Fold(checksum.AccUse, math.Float64bits(r_f_r2), int64(1))
			t162 := i_i3
			if t162 < 0 || t162 >= d_f_cnt[0] {
				return m.OOB(t162, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t163 := b_f_cnt + int(t162)
			t164 := int64(m.Load(t163))
			t165 := t164 + int64(1)
			t166 := i_i3
			if t166 < 0 || t166 >= d_f_cnt[0] {
				return m.OOB(t166, d_f_cnt[0], 0, "f_cnt", 0, 0)
			}
			t167 := b_f_cnt + int(t166)
			m.Store(t167, uint64(t165))
			cs.Fold(checksum.AccUse, math.Float64bits(r_dt_r), int64(1))
			t168 := i_i3
			if t168 < 0 || t168 >= d_x[0] {
				return m.OOB(t168, d_x[0], 0, "x", 23, 9)
			}
			t169 := b_x + int(t168)
			t170 := m.LoadF(t169)
			t171 := i_i3
			if t171 < 0 || t171 >= d_x_cnt[0] {
				return m.OOB(t171, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t172 := b_x_cnt + int(t171)
			t173 := int64(m.Load(t172))
			t174 := t173 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t170), t174)
			t175 := i_i3
			if t175 < 0 || t175 >= d_x[0] {
				return m.OOB(t175, d_x[0], 0, "x", 23, 9)
			}
			t176 := b_x + int(t175)
			t177 := m.LoadF(t176)
			cs.Fold(checksum.AccEUse, math.Float64bits(t177), int64(1))
			t178 := float64(r_f_r2 * r_dt_r)
			t179 := float64(r_x_r3 + t178)
			r_x_w := t179
			t180 := i_i3
			if t180 < 0 || t180 >= d_x[0] {
				return m.OOB(t180, d_x[0], 0, "x", 23, 9)
			}
			t181 := b_x + int(t180)
			m.StoreF(t181, r_x_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_x_w), int64(1))
			t182 := i_i3
			if t182 < 0 || t182 >= d_x_cnt[0] {
				return m.OOB(t182, d_x_cnt[0], 0, "x_cnt", 0, 0)
			}
			t183 := b_x_cnt + int(t182)
			m.Store(t183, uint64(int64(0)))
		}
		r_iter_r := int64(m.Load(b_iter))
		t184 := r_iter_r + int64(1)
		m.Store(b_iter, uint64(t184))
	}
	return nil
}

func run_moldyn_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64, b_x_cnt int, d_x_cnt []int64) error {
	t203 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t203; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t204 := i_dy0
		if t204 < 0 || t204 >= d_x[0] {
			return m.OOB(t204, d_x[0], 0, "x", 0, 0)
		}
		t205 := b_x + int(t204)
		t206 := m.LoadF(t205)
		t207 := i_dy0
		if t207 < 0 || t207 >= d_x_cnt[0] {
			return m.OOB(t207, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t208 := b_x_cnt + int(t207)
		t209 := int64(m.Load(t208))
		t210 := t209 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t206), t210)
		t211 := i_dy0
		if t211 < 0 || t211 >= d_x[0] {
			return m.OOB(t211, d_x[0], 0, "x", 0, 0)
		}
		t212 := b_x + int(t211)
		t213 := m.LoadF(t212)
		cs.Fold(checksum.AccEUse, math.Float64bits(t213), int64(1))
	}
	return nil
}

func run_moldyn_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_f int, d_f []int64, b_f_cnt int, d_f_cnt []int64) error {
	t214 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t214; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t215 := i_dy02
		if t215 < 0 || t215 >= d_f[0] {
			return m.OOB(t215, d_f[0], 0, "f", 0, 0)
		}
		t216 := b_f + int(t215)
		t217 := m.LoadF(t216)
		t218 := i_dy02
		if t218 < 0 || t218 >= d_f_cnt[0] {
			return m.OOB(t218, d_f_cnt[0], 0, "f_cnt", 0, 0)
		}
		t219 := b_f_cnt + int(t218)
		t220 := int64(m.Load(t219))
		t221 := t220 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t217), t221)
		t222 := i_dy02
		if t222 < 0 || t222 >= d_f[0] {
			return m.OOB(t222, d_f[0], 0, "f", 0, 0)
		}
		t223 := b_f + int(t222)
		t224 := m.LoadF(t223)
		cs.Fold(checksum.AccEUse, math.Float64bits(t224), int64(1))
	}
	return nil
}

func run_moldyn_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_neigh int, d_neigh []int64, b_neigh_cnt int, d_neigh_cnt []int64) error {
	t225 := p_n - int64(1)
	for i_dy03 := int64(0); i_dy03 <= t225; i_dy03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t226 := p_k - int64(1)
		for i_dy1 := int64(0); i_dy1 <= t226; i_dy1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t227 := i_dy03
			if t227 < 0 || t227 >= d_neigh[0] {
				return m.OOB(t227, d_neigh[0], 0, "neigh", 0, 0)
			}
			t228 := i_dy1
			if t228 < 0 || t228 >= d_neigh[1] {
				return m.OOB(t228, d_neigh[1], 1, "neigh", 0, 0)
			}
			t229 := b_neigh + int((t227)*d_neigh[1]+t228)
			t230 := int64(m.Load(t229))
			t231 := i_dy03
			if t231 < 0 || t231 >= d_neigh_cnt[0] {
				return m.OOB(t231, d_neigh_cnt[0], 0, "neigh_cnt", 0, 0)
			}
			t232 := i_dy1
			if t232 < 0 || t232 >= d_neigh_cnt[1] {
				return m.OOB(t232, d_neigh_cnt[1], 1, "neigh_cnt", 0, 0)
			}
			t233 := b_neigh_cnt + int((t231)*d_neigh_cnt[1]+t232)
			t234 := int64(m.Load(t233))
			t235 := t234 - int64(1)
			cs.Fold(checksum.AccDef, uint64(t230), t235)
			t236 := i_dy03
			if t236 < 0 || t236 >= d_neigh[0] {
				return m.OOB(t236, d_neigh[0], 0, "neigh", 0, 0)
			}
			t237 := i_dy1
			if t237 < 0 || t237 >= d_neigh[1] {
				return m.OOB(t237, d_neigh[1], 1, "neigh", 0, 0)
			}
			t238 := b_neigh + int((t236)*d_neigh[1]+t237)
			t239 := int64(m.Load(t238))
			cs.Fold(checksum.AccEUse, uint64(t239), int64(1))
		}
	}
	return nil
}
