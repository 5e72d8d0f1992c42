// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_cg_original executes the Original variant of the CG benchmark natively.
func run_cg_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	if epoch != 0 {
		return nil
	}
	p_n := m.Param("n")
	p_k := m.Param("k")
	p_maxiter := m.Param("maxiter")
	b_Aval, d_Aval := m.Var("Aval")
	b_p, d_p := m.Var("p")
	b_q, d_q := m.Var("q")
	b_x, d_x := m.Var("x")
	b_r, d_r := m.Var("r")
	b_alpha, _ := m.Var("alpha")
	b_beta, _ := m.Var("beta")
	b_rnorm, _ := m.Var("rnorm")
	b_rnorm_new, _ := m.Var("rnorm_new")
	b_pq, _ := m.Var("pq")
	b_cols, d_cols := m.Var("cols")
	b_iter, _ := m.Var("iter")
	m.Store(b_iter, uint64(int64(0)))
	for {
		if err := m.Tick(8, 1); err != nil {
			return err
		}
		t1 := int64(m.Load(b_iter))
		if !(t1 < p_maxiter) {
			break
		}
		t2 := p_n - int64(1)
		for i_i0 := int64(0); i_i0 <= t2; i_i0++ {
			if err := m.Tick(9, 3); err != nil {
				return err
			}
			t3 := i_i0
			if t3 < 0 || t3 >= d_q[0] {
				return m.OOB(t3, d_q[0], 0, "q", 10, 9)
			}
			t4 := b_q + int(t3)
			m.StoreF(t4, float64(0))
		}
		t5 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t5; i_i1++ {
			if err := m.Tick(12, 3); err != nil {
				return err
			}
			t6 := p_k - int64(1)
			for i_j1 := int64(0); i_j1 <= t6; i_j1++ {
				if err := m.Tick(13, 5); err != nil {
					return err
				}
				t7 := i_i1
				if t7 < 0 || t7 >= d_Aval[0] {
					return m.OOB(t7, d_Aval[0], 0, "Aval", 14, 20)
				}
				t8 := i_j1
				if t8 < 0 || t8 >= d_Aval[1] {
					return m.OOB(t8, d_Aval[1], 1, "Aval", 14, 20)
				}
				t9 := b_Aval + int((t7)*d_Aval[1]+t8)
				t10 := m.LoadF(t9)
				t11 := i_i1
				if t11 < 0 || t11 >= d_cols[0] {
					return m.OOB(t11, d_cols[0], 0, "cols", 14, 37)
				}
				t12 := i_j1
				if t12 < 0 || t12 >= d_cols[1] {
					return m.OOB(t12, d_cols[1], 1, "cols", 14, 37)
				}
				t13 := b_cols + int((t11)*d_cols[1]+t12)
				t14 := int64(m.Load(t13))
				t15 := t14
				if t15 < 0 || t15 >= d_p[0] {
					return m.OOB(t15, d_p[0], 0, "p", 14, 35)
				}
				t16 := b_p + int(t15)
				t17 := m.LoadF(t16)
				t18 := float64(t10 * t17)
				t19 := i_i1
				if t19 < 0 || t19 >= d_q[0] {
					return m.OOB(t19, d_q[0], 0, "q", 14, 11)
				}
				t20 := b_q + int(t19)
				t21 := m.LoadF(t20)
				t22 := float64(t21 + t18)
				m.StoreF(t20, t22)
			}
		}
		m.StoreF(b_pq, float64(0))
		t23 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t23; i_i2++ {
			if err := m.Tick(18, 3); err != nil {
				return err
			}
			t24 := i_i2
			if t24 < 0 || t24 >= d_p[0] {
				return m.OOB(t24, d_p[0], 0, "p", 19, 15)
			}
			t25 := b_p + int(t24)
			t26 := m.LoadF(t25)
			t27 := i_i2
			if t27 < 0 || t27 >= d_q[0] {
				return m.OOB(t27, d_q[0], 0, "q", 19, 23)
			}
			t28 := b_q + int(t27)
			t29 := m.LoadF(t28)
			t30 := float64(t26 * t29)
			t31 := m.LoadF(b_pq)
			t32 := float64(t31 + t30)
			m.StoreF(b_pq, t32)
		}
		t33 := m.LoadF(b_rnorm)
		t34 := m.LoadF(b_pq)
		if t34 == 0 {
			return m.DivZero(21, 17)
		}
		t35 := float64(t33 / t34)
		m.StoreF(b_alpha, t35)
		t36 := p_n - int64(1)
		for i_i3 := int64(0); i_i3 <= t36; i_i3++ {
			if err := m.Tick(22, 3); err != nil {
				return err
			}
			t37 := i_i3
			if t37 < 0 || t37 >= d_x[0] {
				return m.OOB(t37, d_x[0], 0, "x", 23, 17)
			}
			t38 := b_x + int(t37)
			t39 := m.LoadF(t38)
			t40 := m.LoadF(b_alpha)
			t41 := i_i3
			if t41 < 0 || t41 >= d_p[0] {
				return m.OOB(t41, d_p[0], 0, "p", 23, 33)
			}
			t42 := b_p + int(t41)
			t43 := m.LoadF(t42)
			t44 := float64(t40 * t43)
			t45 := float64(t39 + t44)
			t46 := i_i3
			if t46 < 0 || t46 >= d_x[0] {
				return m.OOB(t46, d_x[0], 0, "x", 23, 9)
			}
			t47 := b_x + int(t46)
			m.StoreF(t47, t45)
		}
		t48 := p_n - int64(1)
		for i_i4 := int64(0); i_i4 <= t48; i_i4++ {
			if err := m.Tick(25, 3); err != nil {
				return err
			}
			t49 := i_i4
			if t49 < 0 || t49 >= d_r[0] {
				return m.OOB(t49, d_r[0], 0, "r", 26, 17)
			}
			t50 := b_r + int(t49)
			t51 := m.LoadF(t50)
			t52 := m.LoadF(b_alpha)
			t53 := i_i4
			if t53 < 0 || t53 >= d_q[0] {
				return m.OOB(t53, d_q[0], 0, "q", 26, 33)
			}
			t54 := b_q + int(t53)
			t55 := m.LoadF(t54)
			t56 := float64(t52 * t55)
			t57 := float64(t51 - t56)
			t58 := i_i4
			if t58 < 0 || t58 >= d_r[0] {
				return m.OOB(t58, d_r[0], 0, "r", 26, 9)
			}
			t59 := b_r + int(t58)
			m.StoreF(t59, t57)
		}
		m.StoreF(b_rnorm_new, float64(0))
		t60 := p_n - int64(1)
		for i_i5 := int64(0); i_i5 <= t60; i_i5++ {
			if err := m.Tick(29, 3); err != nil {
				return err
			}
			t61 := i_i5
			if t61 < 0 || t61 >= d_r[0] {
				return m.OOB(t61, d_r[0], 0, "r", 30, 22)
			}
			t62 := b_r + int(t61)
			t63 := m.LoadF(t62)
			t64 := i_i5
			if t64 < 0 || t64 >= d_r[0] {
				return m.OOB(t64, d_r[0], 0, "r", 30, 30)
			}
			t65 := b_r + int(t64)
			t66 := m.LoadF(t65)
			t67 := float64(t63 * t66)
			t68 := m.LoadF(b_rnorm_new)
			t69 := float64(t68 + t67)
			m.StoreF(b_rnorm_new, t69)
		}
		t70 := m.LoadF(b_rnorm_new)
		t71 := m.LoadF(b_rnorm)
		if t71 == 0 {
			return m.DivZero(32, 20)
		}
		t72 := float64(t70 / t71)
		m.StoreF(b_beta, t72)
		t73 := m.LoadF(b_rnorm_new)
		m.StoreF(b_rnorm, t73)
		t74 := p_n - int64(1)
		for i_i6 := int64(0); i_i6 <= t74; i_i6++ {
			if err := m.Tick(34, 3); err != nil {
				return err
			}
			t75 := i_i6
			if t75 < 0 || t75 >= d_r[0] {
				return m.OOB(t75, d_r[0], 0, "r", 35, 17)
			}
			t76 := b_r + int(t75)
			t77 := m.LoadF(t76)
			t78 := m.LoadF(b_beta)
			t79 := i_i6
			if t79 < 0 || t79 >= d_p[0] {
				return m.OOB(t79, d_p[0], 0, "p", 35, 32)
			}
			t80 := b_p + int(t79)
			t81 := m.LoadF(t80)
			t82 := float64(t78 * t81)
			t83 := float64(t77 + t82)
			t84 := i_i6
			if t84 < 0 || t84 >= d_p[0] {
				return m.OOB(t84, d_p[0], 0, "p", 35, 9)
			}
			t85 := b_p + int(t84)
			m.StoreF(t85, t83)
		}
		t86 := int64(m.Load(b_iter))
		t87 := t86 + int64(1)
		m.Store(b_iter, uint64(t87))
	}
	return nil
}

// run_cg_resilient executes the Resilient variant of the CG benchmark natively.
func run_cg_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_k := m.Param("k")
	p_maxiter := m.Param("maxiter")
	b_Aval, d_Aval := m.Var("Aval")
	b_p, d_p := m.Var("p")
	b_q, d_q := m.Var("q")
	b_x, d_x := m.Var("x")
	b_r, d_r := m.Var("r")
	b_alpha, _ := m.Var("alpha")
	b_beta, _ := m.Var("beta")
	b_rnorm, _ := m.Var("rnorm")
	b_rnorm_new, _ := m.Var("rnorm_new")
	b_pq, _ := m.Var("pq")
	b_cols, d_cols := m.Var("cols")
	b_iter, _ := m.Var("iter")
	b_Aval_cnt, d_Aval_cnt := m.Var("Aval_cnt")
	b_p_cnt, d_p_cnt := m.Var("p_cnt")
	b_q_cnt, d_q_cnt := m.Var("q_cnt")
	b_x_cnt, d_x_cnt := m.Var("x_cnt")
	b_r_cnt, d_r_cnt := m.Var("r_cnt")
	b_alpha_cnt, _ := m.Var("alpha_cnt")
	b_beta_cnt, _ := m.Var("beta_cnt")
	b_rnorm_cnt, _ := m.Var("rnorm_cnt")
	b_rnorm_new_cnt, _ := m.Var("rnorm_new_cnt")
	b_pq_cnt, _ := m.Var("pq_cnt")
	b_cols_cnt, d_cols_cnt := m.Var("cols_cnt")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		t1 := p_n - int64(1)
		m.SetBounds(int64(0), t1)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_dy0 := start; i_dy0 <= end; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_cg_resilient_n1(m, &cs, p_k, b_Aval, d_Aval, b_Aval_cnt, d_Aval_cnt, i_dy0); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		if err := run_cg_resilient_n2(m, &cs, p_n, b_p, d_p, b_p_cnt, d_p_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n3(m, &cs, p_n, b_q, d_q, b_q_cnt, d_q_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n4(m, &cs, p_n, b_x, d_x, b_x_cnt, d_x_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n5(m, &cs, p_n, b_r, d_r, b_r_cnt, d_r_cnt); err != nil {
			return err
		}
		m.Store(b_alpha_cnt, uint64(int64(0)))
		t50 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccDef, math.Float64bits(t50), int64(1))
		t51 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccEDef, math.Float64bits(t51), int64(1))
		m.Store(b_beta_cnt, uint64(int64(0)))
		t52 := m.LoadF(b_beta)
		cs.Fold(checksum.AccDef, math.Float64bits(t52), int64(1))
		t53 := m.LoadF(b_beta)
		cs.Fold(checksum.AccEDef, math.Float64bits(t53), int64(1))
		m.Store(b_rnorm_cnt, uint64(int64(0)))
		t54 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccDef, math.Float64bits(t54), int64(1))
		t55 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccEDef, math.Float64bits(t55), int64(1))
		m.Store(b_rnorm_new_cnt, uint64(int64(0)))
		t56 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccDef, math.Float64bits(t56), int64(1))
		t57 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccEDef, math.Float64bits(t57), int64(1))
		m.Store(b_pq_cnt, uint64(int64(0)))
		t58 := m.LoadF(b_pq)
		cs.Fold(checksum.AccDef, math.Float64bits(t58), int64(1))
		t59 := m.LoadF(b_pq)
		cs.Fold(checksum.AccEDef, math.Float64bits(t59), int64(1))
		if err := run_cg_resilient_n6(m, &cs, p_n, p_k, b_cols, d_cols, b_cols_cnt, d_cols_cnt); err != nil {
			return err
		}
		m.Store(b_iter, uint64(int64(0)))
		if err := run_cg_resilient_n7(m, &cs, p_n, p_k, p_maxiter, b_Aval, d_Aval, b_p, d_p, b_q, d_q, b_x, d_x, b_r, d_r, b_alpha, b_beta, b_rnorm, b_rnorm_new, b_pq, b_cols, d_cols, b_iter, b_Aval_cnt, d_Aval_cnt, b_p_cnt, d_p_cnt, b_q_cnt, d_q_cnt, b_x_cnt, d_x_cnt, b_r_cnt, d_r_cnt, b_alpha_cnt, b_beta_cnt, b_rnorm_cnt, b_rnorm_new_cnt, b_pq_cnt, b_cols_cnt, d_cols_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n10(m, &cs, p_n, p_k, b_Aval, d_Aval, b_Aval_cnt, d_Aval_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n11(m, &cs, p_n, b_p, d_p, b_p_cnt, d_p_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n12(m, &cs, p_n, b_q, d_q, b_q_cnt, d_q_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n13(m, &cs, p_n, b_x, d_x, b_x_cnt, d_x_cnt); err != nil {
			return err
		}
		if err := run_cg_resilient_n14(m, &cs, p_n, b_r, d_r, b_r_cnt, d_r_cnt); err != nil {
			return err
		}
		t390 := m.LoadF(b_alpha)
		t391 := int64(m.Load(b_alpha_cnt))
		t392 := t391 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t390), t392)
		t393 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccEUse, math.Float64bits(t393), int64(1))
		t394 := m.LoadF(b_beta)
		t395 := int64(m.Load(b_beta_cnt))
		t396 := t395 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t394), t396)
		t397 := m.LoadF(b_beta)
		cs.Fold(checksum.AccEUse, math.Float64bits(t397), int64(1))
		t398 := m.LoadF(b_rnorm)
		t399 := int64(m.Load(b_rnorm_cnt))
		t400 := t399 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t398), t400)
		t401 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccEUse, math.Float64bits(t401), int64(1))
		t402 := m.LoadF(b_rnorm_new)
		t403 := int64(m.Load(b_rnorm_new_cnt))
		t404 := t403 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t402), t404)
		t405 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccEUse, math.Float64bits(t405), int64(1))
		t406 := m.LoadF(b_pq)
		t407 := int64(m.Load(b_pq_cnt))
		t408 := t407 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t406), t408)
		t409 := m.LoadF(b_pq)
		cs.Fold(checksum.AccEUse, math.Float64bits(t409), int64(1))
		if err := run_cg_resilient_n15(m, &cs, p_n, p_k, b_cols, d_cols, b_cols_cnt, d_cols_cnt); err != nil {
			return err
		}
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_cg_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_k int64, b_Aval int, d_Aval []int64, b_Aval_cnt int, d_Aval_cnt []int64, i_dy0 int64) error {
	t2 := p_k - int64(1)
	for i_dy1 := int64(0); i_dy1 <= t2; i_dy1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3 := i_dy0
		if t3 < 0 || t3 >= d_Aval_cnt[0] {
			return m.OOB(t3, d_Aval_cnt[0], 0, "Aval_cnt", 0, 0)
		}
		t4 := i_dy1
		if t4 < 0 || t4 >= d_Aval_cnt[1] {
			return m.OOB(t4, d_Aval_cnt[1], 1, "Aval_cnt", 0, 0)
		}
		t5 := b_Aval_cnt + int((t3)*d_Aval_cnt[1]+t4)
		m.Store(t5, uint64(int64(0)))
		t6 := i_dy0
		if t6 < 0 || t6 >= d_Aval[0] {
			return m.OOB(t6, d_Aval[0], 0, "Aval", 0, 0)
		}
		t7 := i_dy1
		if t7 < 0 || t7 >= d_Aval[1] {
			return m.OOB(t7, d_Aval[1], 1, "Aval", 0, 0)
		}
		t8 := b_Aval + int((t6)*d_Aval[1]+t7)
		t9 := m.LoadF(t8)
		cs.Fold(checksum.AccDef, math.Float64bits(t9), int64(1))
		t10 := i_dy0
		if t10 < 0 || t10 >= d_Aval[0] {
			return m.OOB(t10, d_Aval[0], 0, "Aval", 0, 0)
		}
		t11 := i_dy1
		if t11 < 0 || t11 >= d_Aval[1] {
			return m.OOB(t11, d_Aval[1], 1, "Aval", 0, 0)
		}
		t12 := b_Aval + int((t10)*d_Aval[1]+t11)
		t13 := m.LoadF(t12)
		cs.Fold(checksum.AccEDef, math.Float64bits(t13), int64(1))
	}
	return nil
}

func run_cg_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_p int, d_p []int64, b_p_cnt int, d_p_cnt []int64) error {
	t14 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t14; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t15 := i_dy02
		if t15 < 0 || t15 >= d_p_cnt[0] {
			return m.OOB(t15, d_p_cnt[0], 0, "p_cnt", 0, 0)
		}
		t16 := b_p_cnt + int(t15)
		m.Store(t16, uint64(int64(0)))
		t17 := i_dy02
		if t17 < 0 || t17 >= d_p[0] {
			return m.OOB(t17, d_p[0], 0, "p", 0, 0)
		}
		t18 := b_p + int(t17)
		t19 := m.LoadF(t18)
		cs.Fold(checksum.AccDef, math.Float64bits(t19), int64(1))
		t20 := i_dy02
		if t20 < 0 || t20 >= d_p[0] {
			return m.OOB(t20, d_p[0], 0, "p", 0, 0)
		}
		t21 := b_p + int(t20)
		t22 := m.LoadF(t21)
		cs.Fold(checksum.AccEDef, math.Float64bits(t22), int64(1))
	}
	return nil
}

func run_cg_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_q int, d_q []int64, b_q_cnt int, d_q_cnt []int64) error {
	t23 := p_n - int64(1)
	for i_dy03 := int64(0); i_dy03 <= t23; i_dy03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t24 := i_dy03
		if t24 < 0 || t24 >= d_q_cnt[0] {
			return m.OOB(t24, d_q_cnt[0], 0, "q_cnt", 0, 0)
		}
		t25 := b_q_cnt + int(t24)
		m.Store(t25, uint64(int64(0)))
		t26 := i_dy03
		if t26 < 0 || t26 >= d_q[0] {
			return m.OOB(t26, d_q[0], 0, "q", 0, 0)
		}
		t27 := b_q + int(t26)
		t28 := m.LoadF(t27)
		cs.Fold(checksum.AccDef, math.Float64bits(t28), int64(1))
		t29 := i_dy03
		if t29 < 0 || t29 >= d_q[0] {
			return m.OOB(t29, d_q[0], 0, "q", 0, 0)
		}
		t30 := b_q + int(t29)
		t31 := m.LoadF(t30)
		cs.Fold(checksum.AccEDef, math.Float64bits(t31), int64(1))
	}
	return nil
}

func run_cg_resilient_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64, b_x_cnt int, d_x_cnt []int64) error {
	t32 := p_n - int64(1)
	for i_dy04 := int64(0); i_dy04 <= t32; i_dy04++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t33 := i_dy04
		if t33 < 0 || t33 >= d_x_cnt[0] {
			return m.OOB(t33, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t34 := b_x_cnt + int(t33)
		m.Store(t34, uint64(int64(0)))
		t35 := i_dy04
		if t35 < 0 || t35 >= d_x[0] {
			return m.OOB(t35, d_x[0], 0, "x", 0, 0)
		}
		t36 := b_x + int(t35)
		t37 := m.LoadF(t36)
		cs.Fold(checksum.AccDef, math.Float64bits(t37), int64(1))
		t38 := i_dy04
		if t38 < 0 || t38 >= d_x[0] {
			return m.OOB(t38, d_x[0], 0, "x", 0, 0)
		}
		t39 := b_x + int(t38)
		t40 := m.LoadF(t39)
		cs.Fold(checksum.AccEDef, math.Float64bits(t40), int64(1))
	}
	return nil
}

func run_cg_resilient_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_r int, d_r []int64, b_r_cnt int, d_r_cnt []int64) error {
	t41 := p_n - int64(1)
	for i_dy05 := int64(0); i_dy05 <= t41; i_dy05++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t42 := i_dy05
		if t42 < 0 || t42 >= d_r_cnt[0] {
			return m.OOB(t42, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t43 := b_r_cnt + int(t42)
		m.Store(t43, uint64(int64(0)))
		t44 := i_dy05
		if t44 < 0 || t44 >= d_r[0] {
			return m.OOB(t44, d_r[0], 0, "r", 0, 0)
		}
		t45 := b_r + int(t44)
		t46 := m.LoadF(t45)
		cs.Fold(checksum.AccDef, math.Float64bits(t46), int64(1))
		t47 := i_dy05
		if t47 < 0 || t47 >= d_r[0] {
			return m.OOB(t47, d_r[0], 0, "r", 0, 0)
		}
		t48 := b_r + int(t47)
		t49 := m.LoadF(t48)
		cs.Fold(checksum.AccEDef, math.Float64bits(t49), int64(1))
	}
	return nil
}

func run_cg_resilient_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_cols int, d_cols []int64, b_cols_cnt int, d_cols_cnt []int64) error {
	t60 := p_n - int64(1)
	for i_dy06 := int64(0); i_dy06 <= t60; i_dy06++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t61 := p_k - int64(1)
		for i_dy12 := int64(0); i_dy12 <= t61; i_dy12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t62 := i_dy06
			if t62 < 0 || t62 >= d_cols_cnt[0] {
				return m.OOB(t62, d_cols_cnt[0], 0, "cols_cnt", 0, 0)
			}
			t63 := i_dy12
			if t63 < 0 || t63 >= d_cols_cnt[1] {
				return m.OOB(t63, d_cols_cnt[1], 1, "cols_cnt", 0, 0)
			}
			t64 := b_cols_cnt + int((t62)*d_cols_cnt[1]+t63)
			m.Store(t64, uint64(int64(0)))
			t65 := i_dy06
			if t65 < 0 || t65 >= d_cols[0] {
				return m.OOB(t65, d_cols[0], 0, "cols", 0, 0)
			}
			t66 := i_dy12
			if t66 < 0 || t66 >= d_cols[1] {
				return m.OOB(t66, d_cols[1], 1, "cols", 0, 0)
			}
			t67 := b_cols + int((t65)*d_cols[1]+t66)
			t68 := int64(m.Load(t67))
			cs.Fold(checksum.AccDef, uint64(t68), int64(1))
			t69 := i_dy06
			if t69 < 0 || t69 >= d_cols[0] {
				return m.OOB(t69, d_cols[0], 0, "cols", 0, 0)
			}
			t70 := i_dy12
			if t70 < 0 || t70 >= d_cols[1] {
				return m.OOB(t70, d_cols[1], 1, "cols", 0, 0)
			}
			t71 := b_cols + int((t69)*d_cols[1]+t70)
			t72 := int64(m.Load(t71))
			cs.Fold(checksum.AccEDef, uint64(t72), int64(1))
		}
	}
	return nil
}

func run_cg_resilient_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, p_maxiter int64, b_Aval int, d_Aval []int64, b_p int, d_p []int64, b_q int, d_q []int64, b_x int, d_x []int64, b_r int, d_r []int64, b_alpha int, b_beta int, b_rnorm int, b_rnorm_new int, b_pq int, b_cols int, d_cols []int64, b_iter int, b_Aval_cnt int, d_Aval_cnt []int64, b_p_cnt int, d_p_cnt []int64, b_q_cnt int, d_q_cnt []int64, b_x_cnt int, d_x_cnt []int64, b_r_cnt int, d_r_cnt []int64, b_alpha_cnt int, b_beta_cnt int, b_rnorm_cnt int, b_rnorm_new_cnt int, b_pq_cnt int, b_cols_cnt int, d_cols_cnt []int64) error {
	for {
		if err := m.Tick(8, 1); err != nil {
			return err
		}
		t73 := int64(m.Load(b_iter))
		if !(t73 < p_maxiter) {
			break
		}
		t74 := p_n - int64(1)
		for i_i0 := int64(0); i_i0 <= t74; i_i0++ {
			if err := m.Tick(9, 3); err != nil {
				return err
			}
			t75 := i_i0
			if t75 < 0 || t75 >= d_q[0] {
				return m.OOB(t75, d_q[0], 0, "q", 10, 9)
			}
			t76 := b_q + int(t75)
			t77 := m.LoadF(t76)
			t78 := i_i0
			if t78 < 0 || t78 >= d_q_cnt[0] {
				return m.OOB(t78, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t79 := b_q_cnt + int(t78)
			t80 := int64(m.Load(t79))
			t81 := t80 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t77), t81)
			t82 := i_i0
			if t82 < 0 || t82 >= d_q[0] {
				return m.OOB(t82, d_q[0], 0, "q", 10, 9)
			}
			t83 := b_q + int(t82)
			t84 := m.LoadF(t83)
			cs.Fold(checksum.AccEUse, math.Float64bits(t84), int64(1))
			r_q_w := float64(0)
			t85 := i_i0
			if t85 < 0 || t85 >= d_q[0] {
				return m.OOB(t85, d_q[0], 0, "q", 10, 9)
			}
			t86 := b_q + int(t85)
			m.StoreF(t86, r_q_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_q_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_q_w), int64(1))
			t87 := i_i0
			if t87 < 0 || t87 >= d_q_cnt[0] {
				return m.OOB(t87, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t88 := b_q_cnt + int(t87)
			m.Store(t88, uint64(int64(0)))
		}
		if err := run_cg_resilient_n8(m, cs, p_n, p_k, b_Aval, d_Aval, b_p, d_p, b_q, d_q, b_cols, d_cols, b_Aval_cnt, d_Aval_cnt, b_p_cnt, d_p_cnt, b_q_cnt, d_q_cnt, b_cols_cnt, d_cols_cnt); err != nil {
			return err
		}
		t147 := m.LoadF(b_pq)
		t148 := int64(m.Load(b_pq_cnt))
		t149 := t148 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t147), t149)
		t150 := m.LoadF(b_pq)
		cs.Fold(checksum.AccEUse, math.Float64bits(t150), int64(1))
		r_pq_w := float64(0)
		m.StoreF(b_pq, r_pq_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_pq_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_pq_w), int64(1))
		m.Store(b_pq_cnt, uint64(int64(0)))
		t151 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t151; i_i2++ {
			if err := m.Tick(18, 3); err != nil {
				return err
			}
			t152 := i_i2
			if t152 < 0 || t152 >= d_p[0] {
				return m.OOB(t152, d_p[0], 0, "p", 19, 15)
			}
			t153 := b_p + int(t152)
			r_p_r2 := m.LoadF(t153)
			t154 := i_i2
			if t154 < 0 || t154 >= d_q[0] {
				return m.OOB(t154, d_q[0], 0, "q", 19, 23)
			}
			t155 := b_q + int(t154)
			r_q_r2 := m.LoadF(t155)
			r_pq_r := m.LoadF(b_pq)
			cs.Fold(checksum.AccUse, math.Float64bits(r_pq_r), int64(1))
			t156 := int64(m.Load(b_pq_cnt))
			t157 := t156 + int64(1)
			m.Store(b_pq_cnt, uint64(t157))
			cs.Fold(checksum.AccUse, math.Float64bits(r_p_r2), int64(1))
			t158 := i_i2
			if t158 < 0 || t158 >= d_p_cnt[0] {
				return m.OOB(t158, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t159 := b_p_cnt + int(t158)
			t160 := int64(m.Load(t159))
			t161 := t160 + int64(1)
			t162 := i_i2
			if t162 < 0 || t162 >= d_p_cnt[0] {
				return m.OOB(t162, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t163 := b_p_cnt + int(t162)
			m.Store(t163, uint64(t161))
			cs.Fold(checksum.AccUse, math.Float64bits(r_q_r2), int64(1))
			t164 := i_i2
			if t164 < 0 || t164 >= d_q_cnt[0] {
				return m.OOB(t164, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t165 := b_q_cnt + int(t164)
			t166 := int64(m.Load(t165))
			t167 := t166 + int64(1)
			t168 := i_i2
			if t168 < 0 || t168 >= d_q_cnt[0] {
				return m.OOB(t168, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t169 := b_q_cnt + int(t168)
			m.Store(t169, uint64(t167))
			t170 := int64(m.Load(b_pq_cnt))
			t171 := t170 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_pq_r), t171)
			cs.Fold(checksum.AccEUse, math.Float64bits(r_pq_r), int64(1))
			t172 := float64(r_p_r2 * r_q_r2)
			t173 := float64(r_pq_r + t172)
			r_pq_w2 := t173
			m.StoreF(b_pq, r_pq_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_pq_w2), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_pq_w2), int64(1))
			m.Store(b_pq_cnt, uint64(int64(0)))
		}
		r_rnorm_r := m.LoadF(b_rnorm)
		r_pq_r2 := m.LoadF(b_pq)
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_r), int64(1))
		t174 := int64(m.Load(b_rnorm_cnt))
		t175 := t174 + int64(1)
		m.Store(b_rnorm_cnt, uint64(t175))
		cs.Fold(checksum.AccUse, math.Float64bits(r_pq_r2), int64(1))
		t176 := int64(m.Load(b_pq_cnt))
		t177 := t176 + int64(1)
		m.Store(b_pq_cnt, uint64(t177))
		t178 := m.LoadF(b_alpha)
		t179 := int64(m.Load(b_alpha_cnt))
		t180 := t179 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t178), t180)
		t181 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccEUse, math.Float64bits(t181), int64(1))
		if r_pq_r2 == 0 {
			return m.DivZero(21, 17)
		}
		t182 := float64(r_rnorm_r / r_pq_r2)
		r_alpha_w := t182
		m.StoreF(b_alpha, r_alpha_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_alpha_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_alpha_w), int64(1))
		m.Store(b_alpha_cnt, uint64(int64(0)))
		if err := run_cg_resilient_n9(m, cs, p_n, b_p, d_p, b_x, d_x, b_alpha, b_p_cnt, d_p_cnt, b_x_cnt, d_x_cnt, b_alpha_cnt); err != nil {
			return err
		}
		t218 := p_n - int64(1)
		for i_i4 := int64(0); i_i4 <= t218; i_i4++ {
			if err := m.Tick(25, 3); err != nil {
				return err
			}
			t219 := i_i4
			if t219 < 0 || t219 >= d_r[0] {
				return m.OOB(t219, d_r[0], 0, "r", 26, 17)
			}
			t220 := b_r + int(t219)
			r_r_r := m.LoadF(t220)
			r_alpha_r2 := m.LoadF(b_alpha)
			t221 := i_i4
			if t221 < 0 || t221 >= d_q[0] {
				return m.OOB(t221, d_q[0], 0, "q", 26, 33)
			}
			t222 := b_q + int(t221)
			r_q_r3 := m.LoadF(t222)
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r), int64(1))
			t223 := i_i4
			if t223 < 0 || t223 >= d_r_cnt[0] {
				return m.OOB(t223, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t224 := b_r_cnt + int(t223)
			t225 := int64(m.Load(t224))
			t226 := t225 + int64(1)
			t227 := i_i4
			if t227 < 0 || t227 >= d_r_cnt[0] {
				return m.OOB(t227, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t228 := b_r_cnt + int(t227)
			m.Store(t228, uint64(t226))
			cs.Fold(checksum.AccUse, math.Float64bits(r_alpha_r2), int64(1))
			t229 := int64(m.Load(b_alpha_cnt))
			t230 := t229 + int64(1)
			m.Store(b_alpha_cnt, uint64(t230))
			cs.Fold(checksum.AccUse, math.Float64bits(r_q_r3), int64(1))
			t231 := i_i4
			if t231 < 0 || t231 >= d_q_cnt[0] {
				return m.OOB(t231, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t232 := b_q_cnt + int(t231)
			t233 := int64(m.Load(t232))
			t234 := t233 + int64(1)
			t235 := i_i4
			if t235 < 0 || t235 >= d_q_cnt[0] {
				return m.OOB(t235, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t236 := b_q_cnt + int(t235)
			m.Store(t236, uint64(t234))
			t237 := i_i4
			if t237 < 0 || t237 >= d_r[0] {
				return m.OOB(t237, d_r[0], 0, "r", 26, 9)
			}
			t238 := b_r + int(t237)
			t239 := m.LoadF(t238)
			t240 := i_i4
			if t240 < 0 || t240 >= d_r_cnt[0] {
				return m.OOB(t240, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t241 := b_r_cnt + int(t240)
			t242 := int64(m.Load(t241))
			t243 := t242 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t239), t243)
			t244 := i_i4
			if t244 < 0 || t244 >= d_r[0] {
				return m.OOB(t244, d_r[0], 0, "r", 26, 9)
			}
			t245 := b_r + int(t244)
			t246 := m.LoadF(t245)
			cs.Fold(checksum.AccEUse, math.Float64bits(t246), int64(1))
			t247 := float64(r_alpha_r2 * r_q_r3)
			t248 := float64(r_r_r - t247)
			r_r_w := t248
			t249 := i_i4
			if t249 < 0 || t249 >= d_r[0] {
				return m.OOB(t249, d_r[0], 0, "r", 26, 9)
			}
			t250 := b_r + int(t249)
			m.StoreF(t250, r_r_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_r_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_r_w), int64(1))
			t251 := i_i4
			if t251 < 0 || t251 >= d_r_cnt[0] {
				return m.OOB(t251, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t252 := b_r_cnt + int(t251)
			m.Store(t252, uint64(int64(0)))
		}
		t253 := m.LoadF(b_rnorm_new)
		t254 := int64(m.Load(b_rnorm_new_cnt))
		t255 := t254 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t253), t255)
		t256 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccEUse, math.Float64bits(t256), int64(1))
		r_rnorm_new_w := float64(0)
		m.StoreF(b_rnorm_new, r_rnorm_new_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_new_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_rnorm_new_w), int64(1))
		m.Store(b_rnorm_new_cnt, uint64(int64(0)))
		t257 := p_n - int64(1)
		for i_i5 := int64(0); i_i5 <= t257; i_i5++ {
			if err := m.Tick(29, 3); err != nil {
				return err
			}
			t258 := i_i5
			if t258 < 0 || t258 >= d_r[0] {
				return m.OOB(t258, d_r[0], 0, "r", 30, 22)
			}
			t259 := b_r + int(t258)
			r_r_r2 := m.LoadF(t259)
			t260 := i_i5
			if t260 < 0 || t260 >= d_r[0] {
				return m.OOB(t260, d_r[0], 0, "r", 30, 30)
			}
			t261 := b_r + int(t260)
			r_r_r3 := m.LoadF(t261)
			r_rnorm_new_r := m.LoadF(b_rnorm_new)
			cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_new_r), int64(1))
			t262 := int64(m.Load(b_rnorm_new_cnt))
			t263 := t262 + int64(1)
			m.Store(b_rnorm_new_cnt, uint64(t263))
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r2), int64(1))
			t264 := i_i5
			if t264 < 0 || t264 >= d_r_cnt[0] {
				return m.OOB(t264, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t265 := b_r_cnt + int(t264)
			t266 := int64(m.Load(t265))
			t267 := t266 + int64(1)
			t268 := i_i5
			if t268 < 0 || t268 >= d_r_cnt[0] {
				return m.OOB(t268, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t269 := b_r_cnt + int(t268)
			m.Store(t269, uint64(t267))
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r3), int64(1))
			t270 := i_i5
			if t270 < 0 || t270 >= d_r_cnt[0] {
				return m.OOB(t270, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t271 := b_r_cnt + int(t270)
			t272 := int64(m.Load(t271))
			t273 := t272 + int64(1)
			t274 := i_i5
			if t274 < 0 || t274 >= d_r_cnt[0] {
				return m.OOB(t274, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t275 := b_r_cnt + int(t274)
			m.Store(t275, uint64(t273))
			t276 := int64(m.Load(b_rnorm_new_cnt))
			t277 := t276 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_new_r), t277)
			cs.Fold(checksum.AccEUse, math.Float64bits(r_rnorm_new_r), int64(1))
			t278 := float64(r_r_r2 * r_r_r3)
			t279 := float64(r_rnorm_new_r + t278)
			r_rnorm_new_w2 := t279
			m.StoreF(b_rnorm_new, r_rnorm_new_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_new_w2), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_rnorm_new_w2), int64(1))
			m.Store(b_rnorm_new_cnt, uint64(int64(0)))
		}
		r_rnorm_new_r2 := m.LoadF(b_rnorm_new)
		r_rnorm_r2 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_new_r2), int64(1))
		t280 := int64(m.Load(b_rnorm_new_cnt))
		t281 := t280 + int64(1)
		m.Store(b_rnorm_new_cnt, uint64(t281))
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_r2), int64(1))
		t282 := int64(m.Load(b_rnorm_cnt))
		t283 := t282 + int64(1)
		m.Store(b_rnorm_cnt, uint64(t283))
		t284 := m.LoadF(b_beta)
		t285 := int64(m.Load(b_beta_cnt))
		t286 := t285 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t284), t286)
		t287 := m.LoadF(b_beta)
		cs.Fold(checksum.AccEUse, math.Float64bits(t287), int64(1))
		if r_rnorm_r2 == 0 {
			return m.DivZero(32, 20)
		}
		t288 := float64(r_rnorm_new_r2 / r_rnorm_r2)
		r_beta_w := t288
		m.StoreF(b_beta, r_beta_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_beta_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_beta_w), int64(1))
		m.Store(b_beta_cnt, uint64(int64(0)))
		r_rnorm_new_r3 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_new_r3), int64(1))
		t289 := int64(m.Load(b_rnorm_new_cnt))
		t290 := t289 + int64(1)
		m.Store(b_rnorm_new_cnt, uint64(t290))
		t291 := m.LoadF(b_rnorm)
		t292 := int64(m.Load(b_rnorm_cnt))
		t293 := t292 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t291), t293)
		t294 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccEUse, math.Float64bits(t294), int64(1))
		r_rnorm_w := r_rnorm_new_r3
		m.StoreF(b_rnorm, r_rnorm_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_rnorm_w), int64(1))
		m.Store(b_rnorm_cnt, uint64(int64(0)))
		t295 := p_n - int64(1)
		for i_i6 := int64(0); i_i6 <= t295; i_i6++ {
			if err := m.Tick(34, 3); err != nil {
				return err
			}
			t296 := i_i6
			if t296 < 0 || t296 >= d_r[0] {
				return m.OOB(t296, d_r[0], 0, "r", 35, 17)
			}
			t297 := b_r + int(t296)
			r_r_r4 := m.LoadF(t297)
			r_beta_r := m.LoadF(b_beta)
			t298 := i_i6
			if t298 < 0 || t298 >= d_p[0] {
				return m.OOB(t298, d_p[0], 0, "p", 35, 32)
			}
			t299 := b_p + int(t298)
			r_p_r4 := m.LoadF(t299)
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r4), int64(1))
			t300 := i_i6
			if t300 < 0 || t300 >= d_r_cnt[0] {
				return m.OOB(t300, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t301 := b_r_cnt + int(t300)
			t302 := int64(m.Load(t301))
			t303 := t302 + int64(1)
			t304 := i_i6
			if t304 < 0 || t304 >= d_r_cnt[0] {
				return m.OOB(t304, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t305 := b_r_cnt + int(t304)
			m.Store(t305, uint64(t303))
			cs.Fold(checksum.AccUse, math.Float64bits(r_beta_r), int64(1))
			t306 := int64(m.Load(b_beta_cnt))
			t307 := t306 + int64(1)
			m.Store(b_beta_cnt, uint64(t307))
			cs.Fold(checksum.AccUse, math.Float64bits(r_p_r4), int64(1))
			t308 := i_i6
			if t308 < 0 || t308 >= d_p_cnt[0] {
				return m.OOB(t308, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t309 := b_p_cnt + int(t308)
			t310 := int64(m.Load(t309))
			t311 := t310 + int64(1)
			t312 := i_i6
			if t312 < 0 || t312 >= d_p_cnt[0] {
				return m.OOB(t312, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t313 := b_p_cnt + int(t312)
			m.Store(t313, uint64(t311))
			t314 := i_i6
			if t314 < 0 || t314 >= d_p[0] {
				return m.OOB(t314, d_p[0], 0, "p", 35, 9)
			}
			t315 := b_p + int(t314)
			t316 := m.LoadF(t315)
			t317 := i_i6
			if t317 < 0 || t317 >= d_p_cnt[0] {
				return m.OOB(t317, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t318 := b_p_cnt + int(t317)
			t319 := int64(m.Load(t318))
			t320 := t319 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t316), t320)
			t321 := i_i6
			if t321 < 0 || t321 >= d_p[0] {
				return m.OOB(t321, d_p[0], 0, "p", 35, 9)
			}
			t322 := b_p + int(t321)
			t323 := m.LoadF(t322)
			cs.Fold(checksum.AccEUse, math.Float64bits(t323), int64(1))
			t324 := float64(r_beta_r * r_p_r4)
			t325 := float64(r_r_r4 + t324)
			r_p_w := t325
			t326 := i_i6
			if t326 < 0 || t326 >= d_p[0] {
				return m.OOB(t326, d_p[0], 0, "p", 35, 9)
			}
			t327 := b_p + int(t326)
			m.StoreF(t327, r_p_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_p_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_p_w), int64(1))
			t328 := i_i6
			if t328 < 0 || t328 >= d_p_cnt[0] {
				return m.OOB(t328, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t329 := b_p_cnt + int(t328)
			m.Store(t329, uint64(int64(0)))
		}
		r_iter_r := int64(m.Load(b_iter))
		t330 := r_iter_r + int64(1)
		m.Store(b_iter, uint64(t330))
	}
	return nil
}

func run_cg_resilient_n8(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_Aval int, d_Aval []int64, b_p int, d_p []int64, b_q int, d_q []int64, b_cols int, d_cols []int64, b_Aval_cnt int, d_Aval_cnt []int64, b_p_cnt int, d_p_cnt []int64, b_q_cnt int, d_q_cnt []int64, b_cols_cnt int, d_cols_cnt []int64) error {
	t89 := p_n - int64(1)
	for i_i1 := int64(0); i_i1 <= t89; i_i1++ {
		if err := m.Tick(12, 3); err != nil {
			return err
		}
		t90 := p_k - int64(1)
		for i_j1 := int64(0); i_j1 <= t90; i_j1++ {
			if err := m.Tick(13, 5); err != nil {
				return err
			}
			t91 := i_i1
			if t91 < 0 || t91 >= d_Aval[0] {
				return m.OOB(t91, d_Aval[0], 0, "Aval", 14, 20)
			}
			t92 := i_j1
			if t92 < 0 || t92 >= d_Aval[1] {
				return m.OOB(t92, d_Aval[1], 1, "Aval", 14, 20)
			}
			t93 := b_Aval + int((t91)*d_Aval[1]+t92)
			r_Aval_r := m.LoadF(t93)
			t94 := i_i1
			if t94 < 0 || t94 >= d_cols[0] {
				return m.OOB(t94, d_cols[0], 0, "cols", 14, 37)
			}
			t95 := i_j1
			if t95 < 0 || t95 >= d_cols[1] {
				return m.OOB(t95, d_cols[1], 1, "cols", 14, 37)
			}
			t96 := b_cols + int((t94)*d_cols[1]+t95)
			r_cols_r := int64(m.Load(t96))
			t97 := r_cols_r
			if t97 < 0 || t97 >= d_p[0] {
				return m.OOB(t97, d_p[0], 0, "p", 14, 35)
			}
			t98 := b_p + int(t97)
			r_p_r := m.LoadF(t98)
			t99 := i_i1
			if t99 < 0 || t99 >= d_q[0] {
				return m.OOB(t99, d_q[0], 0, "q", 14, 11)
			}
			t100 := b_q + int(t99)
			r_q_r := m.LoadF(t100)
			cs.Fold(checksum.AccUse, math.Float64bits(r_q_r), int64(1))
			t101 := i_i1
			if t101 < 0 || t101 >= d_q_cnt[0] {
				return m.OOB(t101, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t102 := b_q_cnt + int(t101)
			t103 := int64(m.Load(t102))
			t104 := t103 + int64(1)
			t105 := i_i1
			if t105 < 0 || t105 >= d_q_cnt[0] {
				return m.OOB(t105, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t106 := b_q_cnt + int(t105)
			m.Store(t106, uint64(t104))
			cs.Fold(checksum.AccUse, math.Float64bits(r_Aval_r), int64(1))
			t107 := i_i1
			if t107 < 0 || t107 >= d_Aval_cnt[0] {
				return m.OOB(t107, d_Aval_cnt[0], 0, "Aval_cnt", 0, 0)
			}
			t108 := i_j1
			if t108 < 0 || t108 >= d_Aval_cnt[1] {
				return m.OOB(t108, d_Aval_cnt[1], 1, "Aval_cnt", 0, 0)
			}
			t109 := b_Aval_cnt + int((t107)*d_Aval_cnt[1]+t108)
			t110 := int64(m.Load(t109))
			t111 := t110 + int64(1)
			t112 := i_i1
			if t112 < 0 || t112 >= d_Aval_cnt[0] {
				return m.OOB(t112, d_Aval_cnt[0], 0, "Aval_cnt", 0, 0)
			}
			t113 := i_j1
			if t113 < 0 || t113 >= d_Aval_cnt[1] {
				return m.OOB(t113, d_Aval_cnt[1], 1, "Aval_cnt", 0, 0)
			}
			t114 := b_Aval_cnt + int((t112)*d_Aval_cnt[1]+t113)
			m.Store(t114, uint64(t111))
			cs.Fold(checksum.AccUse, math.Float64bits(r_p_r), int64(1))
			t115 := i_i1
			if t115 < 0 || t115 >= d_cols[0] {
				return m.OOB(t115, d_cols[0], 0, "cols", 14, 37)
			}
			t116 := i_j1
			if t116 < 0 || t116 >= d_cols[1] {
				return m.OOB(t116, d_cols[1], 1, "cols", 14, 37)
			}
			t117 := b_cols + int((t115)*d_cols[1]+t116)
			t118 := int64(m.Load(t117))
			t119 := t118
			if t119 < 0 || t119 >= d_p_cnt[0] {
				return m.OOB(t119, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t120 := b_p_cnt + int(t119)
			t121 := int64(m.Load(t120))
			t122 := t121 + int64(1)
			t123 := i_i1
			if t123 < 0 || t123 >= d_cols[0] {
				return m.OOB(t123, d_cols[0], 0, "cols", 14, 37)
			}
			t124 := i_j1
			if t124 < 0 || t124 >= d_cols[1] {
				return m.OOB(t124, d_cols[1], 1, "cols", 14, 37)
			}
			t125 := b_cols + int((t123)*d_cols[1]+t124)
			t126 := int64(m.Load(t125))
			t127 := t126
			if t127 < 0 || t127 >= d_p_cnt[0] {
				return m.OOB(t127, d_p_cnt[0], 0, "p_cnt", 0, 0)
			}
			t128 := b_p_cnt + int(t127)
			m.Store(t128, uint64(t122))
			cs.Fold(checksum.AccUse, uint64(r_cols_r), int64(1))
			t129 := i_i1
			if t129 < 0 || t129 >= d_cols_cnt[0] {
				return m.OOB(t129, d_cols_cnt[0], 0, "cols_cnt", 0, 0)
			}
			t130 := i_j1
			if t130 < 0 || t130 >= d_cols_cnt[1] {
				return m.OOB(t130, d_cols_cnt[1], 1, "cols_cnt", 0, 0)
			}
			t131 := b_cols_cnt + int((t129)*d_cols_cnt[1]+t130)
			t132 := int64(m.Load(t131))
			t133 := t132 + int64(1)
			t134 := i_i1
			if t134 < 0 || t134 >= d_cols_cnt[0] {
				return m.OOB(t134, d_cols_cnt[0], 0, "cols_cnt", 0, 0)
			}
			t135 := i_j1
			if t135 < 0 || t135 >= d_cols_cnt[1] {
				return m.OOB(t135, d_cols_cnt[1], 1, "cols_cnt", 0, 0)
			}
			t136 := b_cols_cnt + int((t134)*d_cols_cnt[1]+t135)
			m.Store(t136, uint64(t133))
			t137 := i_i1
			if t137 < 0 || t137 >= d_q_cnt[0] {
				return m.OOB(t137, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t138 := b_q_cnt + int(t137)
			t139 := int64(m.Load(t138))
			t140 := t139 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_q_r), t140)
			cs.Fold(checksum.AccEUse, math.Float64bits(r_q_r), int64(1))
			t141 := float64(r_Aval_r * r_p_r)
			t142 := float64(r_q_r + t141)
			r_q_w2 := t142
			t143 := i_i1
			if t143 < 0 || t143 >= d_q[0] {
				return m.OOB(t143, d_q[0], 0, "q", 14, 11)
			}
			t144 := b_q + int(t143)
			m.StoreF(t144, r_q_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_q_w2), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_q_w2), int64(1))
			t145 := i_i1
			if t145 < 0 || t145 >= d_q_cnt[0] {
				return m.OOB(t145, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t146 := b_q_cnt + int(t145)
			m.Store(t146, uint64(int64(0)))
		}
	}
	return nil
}

func run_cg_resilient_n9(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_p int, d_p []int64, b_x int, d_x []int64, b_alpha int, b_p_cnt int, d_p_cnt []int64, b_x_cnt int, d_x_cnt []int64, b_alpha_cnt int) error {
	t183 := p_n - int64(1)
	for i_i3 := int64(0); i_i3 <= t183; i_i3++ {
		if err := m.Tick(22, 3); err != nil {
			return err
		}
		t184 := i_i3
		if t184 < 0 || t184 >= d_x[0] {
			return m.OOB(t184, d_x[0], 0, "x", 23, 17)
		}
		t185 := b_x + int(t184)
		r_x_r := m.LoadF(t185)
		r_alpha_r := m.LoadF(b_alpha)
		t186 := i_i3
		if t186 < 0 || t186 >= d_p[0] {
			return m.OOB(t186, d_p[0], 0, "p", 23, 33)
		}
		t187 := b_p + int(t186)
		r_p_r3 := m.LoadF(t187)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
		t188 := i_i3
		if t188 < 0 || t188 >= d_x_cnt[0] {
			return m.OOB(t188, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t189 := b_x_cnt + int(t188)
		t190 := int64(m.Load(t189))
		t191 := t190 + int64(1)
		t192 := i_i3
		if t192 < 0 || t192 >= d_x_cnt[0] {
			return m.OOB(t192, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t193 := b_x_cnt + int(t192)
		m.Store(t193, uint64(t191))
		cs.Fold(checksum.AccUse, math.Float64bits(r_alpha_r), int64(1))
		t194 := int64(m.Load(b_alpha_cnt))
		t195 := t194 + int64(1)
		m.Store(b_alpha_cnt, uint64(t195))
		cs.Fold(checksum.AccUse, math.Float64bits(r_p_r3), int64(1))
		t196 := i_i3
		if t196 < 0 || t196 >= d_p_cnt[0] {
			return m.OOB(t196, d_p_cnt[0], 0, "p_cnt", 0, 0)
		}
		t197 := b_p_cnt + int(t196)
		t198 := int64(m.Load(t197))
		t199 := t198 + int64(1)
		t200 := i_i3
		if t200 < 0 || t200 >= d_p_cnt[0] {
			return m.OOB(t200, d_p_cnt[0], 0, "p_cnt", 0, 0)
		}
		t201 := b_p_cnt + int(t200)
		m.Store(t201, uint64(t199))
		t202 := i_i3
		if t202 < 0 || t202 >= d_x[0] {
			return m.OOB(t202, d_x[0], 0, "x", 23, 9)
		}
		t203 := b_x + int(t202)
		t204 := m.LoadF(t203)
		t205 := i_i3
		if t205 < 0 || t205 >= d_x_cnt[0] {
			return m.OOB(t205, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t206 := b_x_cnt + int(t205)
		t207 := int64(m.Load(t206))
		t208 := t207 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t204), t208)
		t209 := i_i3
		if t209 < 0 || t209 >= d_x[0] {
			return m.OOB(t209, d_x[0], 0, "x", 23, 9)
		}
		t210 := b_x + int(t209)
		t211 := m.LoadF(t210)
		cs.Fold(checksum.AccEUse, math.Float64bits(t211), int64(1))
		t212 := float64(r_alpha_r * r_p_r3)
		t213 := float64(r_x_r + t212)
		r_x_w := t213
		t214 := i_i3
		if t214 < 0 || t214 >= d_x[0] {
			return m.OOB(t214, d_x[0], 0, "x", 23, 9)
		}
		t215 := b_x + int(t214)
		m.StoreF(t215, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_x_w), int64(1))
		t216 := i_i3
		if t216 < 0 || t216 >= d_x_cnt[0] {
			return m.OOB(t216, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t217 := b_x_cnt + int(t216)
		m.Store(t217, uint64(int64(0)))
	}
	return nil
}

func run_cg_resilient_n10(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_Aval int, d_Aval []int64, b_Aval_cnt int, d_Aval_cnt []int64) error {
	t331 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t331; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t332 := p_k - int64(1)
		for i_dy1 := int64(0); i_dy1 <= t332; i_dy1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t333 := i_dy0
			if t333 < 0 || t333 >= d_Aval[0] {
				return m.OOB(t333, d_Aval[0], 0, "Aval", 0, 0)
			}
			t334 := i_dy1
			if t334 < 0 || t334 >= d_Aval[1] {
				return m.OOB(t334, d_Aval[1], 1, "Aval", 0, 0)
			}
			t335 := b_Aval + int((t333)*d_Aval[1]+t334)
			t336 := m.LoadF(t335)
			t337 := i_dy0
			if t337 < 0 || t337 >= d_Aval_cnt[0] {
				return m.OOB(t337, d_Aval_cnt[0], 0, "Aval_cnt", 0, 0)
			}
			t338 := i_dy1
			if t338 < 0 || t338 >= d_Aval_cnt[1] {
				return m.OOB(t338, d_Aval_cnt[1], 1, "Aval_cnt", 0, 0)
			}
			t339 := b_Aval_cnt + int((t337)*d_Aval_cnt[1]+t338)
			t340 := int64(m.Load(t339))
			t341 := t340 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t336), t341)
			t342 := i_dy0
			if t342 < 0 || t342 >= d_Aval[0] {
				return m.OOB(t342, d_Aval[0], 0, "Aval", 0, 0)
			}
			t343 := i_dy1
			if t343 < 0 || t343 >= d_Aval[1] {
				return m.OOB(t343, d_Aval[1], 1, "Aval", 0, 0)
			}
			t344 := b_Aval + int((t342)*d_Aval[1]+t343)
			t345 := m.LoadF(t344)
			cs.Fold(checksum.AccEUse, math.Float64bits(t345), int64(1))
		}
	}
	return nil
}

func run_cg_resilient_n11(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_p int, d_p []int64, b_p_cnt int, d_p_cnt []int64) error {
	t346 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t346; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t347 := i_dy02
		if t347 < 0 || t347 >= d_p[0] {
			return m.OOB(t347, d_p[0], 0, "p", 0, 0)
		}
		t348 := b_p + int(t347)
		t349 := m.LoadF(t348)
		t350 := i_dy02
		if t350 < 0 || t350 >= d_p_cnt[0] {
			return m.OOB(t350, d_p_cnt[0], 0, "p_cnt", 0, 0)
		}
		t351 := b_p_cnt + int(t350)
		t352 := int64(m.Load(t351))
		t353 := t352 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t349), t353)
		t354 := i_dy02
		if t354 < 0 || t354 >= d_p[0] {
			return m.OOB(t354, d_p[0], 0, "p", 0, 0)
		}
		t355 := b_p + int(t354)
		t356 := m.LoadF(t355)
		cs.Fold(checksum.AccEUse, math.Float64bits(t356), int64(1))
	}
	return nil
}

func run_cg_resilient_n12(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_q int, d_q []int64, b_q_cnt int, d_q_cnt []int64) error {
	t357 := p_n - int64(1)
	for i_dy03 := int64(0); i_dy03 <= t357; i_dy03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t358 := i_dy03
		if t358 < 0 || t358 >= d_q[0] {
			return m.OOB(t358, d_q[0], 0, "q", 0, 0)
		}
		t359 := b_q + int(t358)
		t360 := m.LoadF(t359)
		t361 := i_dy03
		if t361 < 0 || t361 >= d_q_cnt[0] {
			return m.OOB(t361, d_q_cnt[0], 0, "q_cnt", 0, 0)
		}
		t362 := b_q_cnt + int(t361)
		t363 := int64(m.Load(t362))
		t364 := t363 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t360), t364)
		t365 := i_dy03
		if t365 < 0 || t365 >= d_q[0] {
			return m.OOB(t365, d_q[0], 0, "q", 0, 0)
		}
		t366 := b_q + int(t365)
		t367 := m.LoadF(t366)
		cs.Fold(checksum.AccEUse, math.Float64bits(t367), int64(1))
	}
	return nil
}

func run_cg_resilient_n13(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64, b_x_cnt int, d_x_cnt []int64) error {
	t368 := p_n - int64(1)
	for i_dy04 := int64(0); i_dy04 <= t368; i_dy04++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t369 := i_dy04
		if t369 < 0 || t369 >= d_x[0] {
			return m.OOB(t369, d_x[0], 0, "x", 0, 0)
		}
		t370 := b_x + int(t369)
		t371 := m.LoadF(t370)
		t372 := i_dy04
		if t372 < 0 || t372 >= d_x_cnt[0] {
			return m.OOB(t372, d_x_cnt[0], 0, "x_cnt", 0, 0)
		}
		t373 := b_x_cnt + int(t372)
		t374 := int64(m.Load(t373))
		t375 := t374 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t371), t375)
		t376 := i_dy04
		if t376 < 0 || t376 >= d_x[0] {
			return m.OOB(t376, d_x[0], 0, "x", 0, 0)
		}
		t377 := b_x + int(t376)
		t378 := m.LoadF(t377)
		cs.Fold(checksum.AccEUse, math.Float64bits(t378), int64(1))
	}
	return nil
}

func run_cg_resilient_n14(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_r int, d_r []int64, b_r_cnt int, d_r_cnt []int64) error {
	t379 := p_n - int64(1)
	for i_dy05 := int64(0); i_dy05 <= t379; i_dy05++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t380 := i_dy05
		if t380 < 0 || t380 >= d_r[0] {
			return m.OOB(t380, d_r[0], 0, "r", 0, 0)
		}
		t381 := b_r + int(t380)
		t382 := m.LoadF(t381)
		t383 := i_dy05
		if t383 < 0 || t383 >= d_r_cnt[0] {
			return m.OOB(t383, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t384 := b_r_cnt + int(t383)
		t385 := int64(m.Load(t384))
		t386 := t385 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t382), t386)
		t387 := i_dy05
		if t387 < 0 || t387 >= d_r[0] {
			return m.OOB(t387, d_r[0], 0, "r", 0, 0)
		}
		t388 := b_r + int(t387)
		t389 := m.LoadF(t388)
		cs.Fold(checksum.AccEUse, math.Float64bits(t389), int64(1))
	}
	return nil
}

func run_cg_resilient_n15(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_cols int, d_cols []int64, b_cols_cnt int, d_cols_cnt []int64) error {
	t410 := p_n - int64(1)
	for i_dy06 := int64(0); i_dy06 <= t410; i_dy06++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t411 := p_k - int64(1)
		for i_dy12 := int64(0); i_dy12 <= t411; i_dy12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t412 := i_dy06
			if t412 < 0 || t412 >= d_cols[0] {
				return m.OOB(t412, d_cols[0], 0, "cols", 0, 0)
			}
			t413 := i_dy12
			if t413 < 0 || t413 >= d_cols[1] {
				return m.OOB(t413, d_cols[1], 1, "cols", 0, 0)
			}
			t414 := b_cols + int((t412)*d_cols[1]+t413)
			t415 := int64(m.Load(t414))
			t416 := i_dy06
			if t416 < 0 || t416 >= d_cols_cnt[0] {
				return m.OOB(t416, d_cols_cnt[0], 0, "cols_cnt", 0, 0)
			}
			t417 := i_dy12
			if t417 < 0 || t417 >= d_cols_cnt[1] {
				return m.OOB(t417, d_cols_cnt[1], 1, "cols_cnt", 0, 0)
			}
			t418 := b_cols_cnt + int((t416)*d_cols_cnt[1]+t417)
			t419 := int64(m.Load(t418))
			t420 := t419 - int64(1)
			cs.Fold(checksum.AccDef, uint64(t415), t420)
			t421 := i_dy06
			if t421 < 0 || t421 >= d_cols[0] {
				return m.OOB(t421, d_cols[0], 0, "cols", 0, 0)
			}
			t422 := i_dy12
			if t422 < 0 || t422 >= d_cols[1] {
				return m.OOB(t422, d_cols[1], 1, "cols", 0, 0)
			}
			t423 := b_cols + int((t421)*d_cols[1]+t422)
			t424 := int64(m.Load(t423))
			cs.Fold(checksum.AccEUse, uint64(t424), int64(1))
		}
	}
	return nil
}

// run_cg_resilientopt executes the Resilient-Optimized variant of the CG benchmark natively.
func run_cg_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_k := m.Param("k")
	p_maxiter := m.Param("maxiter")
	b_Aval, d_Aval := m.Var("Aval")
	b_p, d_p := m.Var("p")
	b_q, d_q := m.Var("q")
	b_x, d_x := m.Var("x")
	b_r, d_r := m.Var("r")
	b_alpha, _ := m.Var("alpha")
	b_beta, _ := m.Var("beta")
	b_rnorm, _ := m.Var("rnorm")
	b_rnorm_new, _ := m.Var("rnorm_new")
	b_pq, _ := m.Var("pq")
	b_cols, d_cols := m.Var("cols")
	b_iter, _ := m.Var("iter")
	b_defuse_iter, _ := m.Var("defuse_iter")
	b_p_icnt, d_p_icnt := m.Var("p_icnt")
	b_q_cnt, d_q_cnt := m.Var("q_cnt")
	b_r_cnt, d_r_cnt := m.Var("r_cnt")
	b_alpha_cnt, _ := m.Var("alpha_cnt")
	b_beta_cnt, _ := m.Var("beta_cnt")
	b_rnorm_new_cnt, _ := m.Var("rnorm_new_cnt")
	b_pq_cnt, _ := m.Var("pq_cnt")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_cg_resilientopt_n1(m, &cs, p_n, b_q, d_q, b_q_cnt, d_q_cnt); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n2(m, &cs, p_n, b_r, d_r, b_r_cnt, d_r_cnt); err != nil {
			return err
		}
		m.Store(b_alpha_cnt, uint64(int64(0)))
		t19 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccDef, math.Float64bits(t19), int64(1))
		t20 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccEDef, math.Float64bits(t20), int64(1))
		m.Store(b_beta_cnt, uint64(int64(0)))
		t21 := m.LoadF(b_beta)
		cs.Fold(checksum.AccDef, math.Float64bits(t21), int64(1))
		t22 := m.LoadF(b_beta)
		cs.Fold(checksum.AccEDef, math.Float64bits(t22), int64(1))
		m.Store(b_rnorm_new_cnt, uint64(int64(0)))
		t23 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccDef, math.Float64bits(t23), int64(1))
		t24 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccEDef, math.Float64bits(t24), int64(1))
		m.Store(b_pq_cnt, uint64(int64(0)))
		t25 := m.LoadF(b_pq)
		cs.Fold(checksum.AccDef, math.Float64bits(t25), int64(1))
		t26 := m.LoadF(b_pq)
		cs.Fold(checksum.AccEDef, math.Float64bits(t26), int64(1))
		m.Store(b_iter, uint64(int64(0)))
		m.Store(b_defuse_iter, uint64(int64(0)))
		if err := run_cg_resilientopt_n3(m, &cs, p_n, p_k, b_Aval, d_Aval); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n4(m, &cs, p_n, p_k, b_cols, d_cols); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n5(m, &cs, p_n, b_p_icnt, d_p_icnt); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n6(m, &cs, p_n, p_k, b_cols, d_cols, b_p_icnt, d_p_icnt); err != nil {
			return err
		}
		t66 := p_n - int64(1)
		m.SetBounds(int64(0), t66)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_ie03 := start; i_ie03 <= end; i_ie03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t67 := i_ie03
		if t67 < 0 || t67 >= d_p[0] {
			return m.OOB(t67, d_p[0], 0, "p", 0, 0)
		}
		t68 := b_p + int(t67)
		t69 := m.LoadF(t68)
		t70 := i_ie03
		if t70 < 0 || t70 >= d_p_icnt[0] {
			return m.OOB(t70, d_p_icnt[0], 0, "p_icnt", 0, 0)
		}
		t71 := b_p_icnt + int(t70)
		t72 := int64(m.Load(t71))
		cs.Fold(checksum.AccDef, math.Float64bits(t69), t72)
		t73 := i_ie03
		if t73 < 0 || t73 >= d_p[0] {
			return m.OOB(t73, d_p[0], 0, "p", 0, 0)
		}
		t74 := b_p + int(t73)
		t75 := m.LoadF(t74)
		cs.Fold(checksum.AccDef, math.Float64bits(t75), int64(1))
		t76 := i_ie03
		if t76 < 0 || t76 >= d_p[0] {
			return m.OOB(t76, d_p[0], 0, "p", 0, 0)
		}
		t77 := b_p + int(t76)
		t78 := m.LoadF(t77)
		cs.Fold(checksum.AccDef, math.Float64bits(t78), int64(1))
		t79 := i_ie03
		if t79 < 0 || t79 >= d_p[0] {
			return m.OOB(t79, d_p[0], 0, "p", 0, 0)
		}
		t80 := b_p + int(t79)
		t81 := m.LoadF(t80)
		cs.Fold(checksum.AccDef, math.Float64bits(t81), int64(1))
	}
	if epoch == epochs-1 {
		t82 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccDef, math.Float64bits(t82), int64(1))
		t83 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccDef, math.Float64bits(t83), int64(1))
		if err := run_cg_resilientopt_n7(m, &cs, p_n, b_x, d_x); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n8(m, &cs, p_n, p_k, p_maxiter, b_Aval, d_Aval, b_p, d_p, b_q, d_q, b_x, d_x, b_r, d_r, b_alpha, b_beta, b_rnorm, b_rnorm_new, b_pq, b_cols, d_cols, b_iter, b_defuse_iter, b_p_icnt, d_p_icnt, b_q_cnt, d_q_cnt, b_r_cnt, d_r_cnt, b_alpha_cnt, b_beta_cnt, b_rnorm_new_cnt, b_pq_cnt); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n10(m, &cs, p_n, p_k, b_Aval, d_Aval, b_defuse_iter); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n11(m, &cs, p_n, p_k, b_cols, d_cols, b_defuse_iter); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n12(m, &cs, p_n, b_p, d_p, b_p_icnt, d_p_icnt); err != nil {
			return err
		}
		t315 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccUse, math.Float64bits(t315), int64(1))
		t316 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccUse, math.Float64bits(t316), int64(1))
		if err := run_cg_resilientopt_n13(m, &cs, p_n, b_x, d_x); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n14(m, &cs, p_n, b_q, d_q, b_q_cnt, d_q_cnt); err != nil {
			return err
		}
		if err := run_cg_resilientopt_n15(m, &cs, p_n, b_r, d_r, b_r_cnt, d_r_cnt); err != nil {
			return err
		}
		t343 := m.LoadF(b_alpha)
		t344 := int64(m.Load(b_alpha_cnt))
		t345 := t344 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t343), t345)
		t346 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccEUse, math.Float64bits(t346), int64(1))
		t347 := m.LoadF(b_beta)
		t348 := int64(m.Load(b_beta_cnt))
		t349 := t348 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t347), t349)
		t350 := m.LoadF(b_beta)
		cs.Fold(checksum.AccEUse, math.Float64bits(t350), int64(1))
		t351 := m.LoadF(b_rnorm_new)
		t352 := int64(m.Load(b_rnorm_new_cnt))
		t353 := t352 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t351), t353)
		t354 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccEUse, math.Float64bits(t354), int64(1))
		t355 := m.LoadF(b_pq)
		t356 := int64(m.Load(b_pq_cnt))
		t357 := t356 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t355), t357)
		t358 := m.LoadF(b_pq)
		cs.Fold(checksum.AccEUse, math.Float64bits(t358), int64(1))
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_cg_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_q int, d_q []int64, b_q_cnt int, d_q_cnt []int64) error {
	t1 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t1; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2 := i_dy0
		if t2 < 0 || t2 >= d_q_cnt[0] {
			return m.OOB(t2, d_q_cnt[0], 0, "q_cnt", 0, 0)
		}
		t3 := b_q_cnt + int(t2)
		m.Store(t3, uint64(int64(0)))
		t4 := i_dy0
		if t4 < 0 || t4 >= d_q[0] {
			return m.OOB(t4, d_q[0], 0, "q", 0, 0)
		}
		t5 := b_q + int(t4)
		t6 := m.LoadF(t5)
		cs.Fold(checksum.AccDef, math.Float64bits(t6), int64(1))
		t7 := i_dy0
		if t7 < 0 || t7 >= d_q[0] {
			return m.OOB(t7, d_q[0], 0, "q", 0, 0)
		}
		t8 := b_q + int(t7)
		t9 := m.LoadF(t8)
		cs.Fold(checksum.AccEDef, math.Float64bits(t9), int64(1))
	}
	return nil
}

func run_cg_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_r int, d_r []int64, b_r_cnt int, d_r_cnt []int64) error {
	t10 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t10; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t11 := i_dy02
		if t11 < 0 || t11 >= d_r_cnt[0] {
			return m.OOB(t11, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t12 := b_r_cnt + int(t11)
		m.Store(t12, uint64(int64(0)))
		t13 := i_dy02
		if t13 < 0 || t13 >= d_r[0] {
			return m.OOB(t13, d_r[0], 0, "r", 0, 0)
		}
		t14 := b_r + int(t13)
		t15 := m.LoadF(t14)
		cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
		t16 := i_dy02
		if t16 < 0 || t16 >= d_r[0] {
			return m.OOB(t16, d_r[0], 0, "r", 0, 0)
		}
		t17 := b_r + int(t16)
		t18 := m.LoadF(t17)
		cs.Fold(checksum.AccEDef, math.Float64bits(t18), int64(1))
	}
	return nil
}

func run_cg_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_Aval int, d_Aval []int64) error {
	t27 := p_n - int64(1)
	for i_ie0 := int64(0); i_ie0 <= t27; i_ie0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t28 := p_k - int64(1)
		for i_ie1 := int64(0); i_ie1 <= t28; i_ie1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t29 := i_ie0
			if t29 < 0 || t29 >= d_Aval[0] {
				return m.OOB(t29, d_Aval[0], 0, "Aval", 0, 0)
			}
			t30 := i_ie1
			if t30 < 0 || t30 >= d_Aval[1] {
				return m.OOB(t30, d_Aval[1], 1, "Aval", 0, 0)
			}
			t31 := b_Aval + int((t29)*d_Aval[1]+t30)
			t32 := m.LoadF(t31)
			cs.Fold(checksum.AccDef, math.Float64bits(t32), int64(1))
			t33 := i_ie0
			if t33 < 0 || t33 >= d_Aval[0] {
				return m.OOB(t33, d_Aval[0], 0, "Aval", 0, 0)
			}
			t34 := i_ie1
			if t34 < 0 || t34 >= d_Aval[1] {
				return m.OOB(t34, d_Aval[1], 1, "Aval", 0, 0)
			}
			t35 := b_Aval + int((t33)*d_Aval[1]+t34)
			t36 := m.LoadF(t35)
			cs.Fold(checksum.AccEDef, math.Float64bits(t36), int64(1))
		}
	}
	return nil
}

func run_cg_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_cols int, d_cols []int64) error {
	t37 := p_n - int64(1)
	for i_ie02 := int64(0); i_ie02 <= t37; i_ie02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t38 := p_k - int64(1)
		for i_ie12 := int64(0); i_ie12 <= t38; i_ie12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t39 := i_ie02
			if t39 < 0 || t39 >= d_cols[0] {
				return m.OOB(t39, d_cols[0], 0, "cols", 0, 0)
			}
			t40 := i_ie12
			if t40 < 0 || t40 >= d_cols[1] {
				return m.OOB(t40, d_cols[1], 1, "cols", 0, 0)
			}
			t41 := b_cols + int((t39)*d_cols[1]+t40)
			t42 := int64(m.Load(t41))
			cs.Fold(checksum.AccDef, uint64(t42), int64(1))
			t43 := i_ie02
			if t43 < 0 || t43 >= d_cols[0] {
				return m.OOB(t43, d_cols[0], 0, "cols", 0, 0)
			}
			t44 := i_ie12
			if t44 < 0 || t44 >= d_cols[1] {
				return m.OOB(t44, d_cols[1], 1, "cols", 0, 0)
			}
			t45 := b_cols + int((t43)*d_cols[1]+t44)
			t46 := int64(m.Load(t45))
			cs.Fold(checksum.AccEDef, uint64(t46), int64(1))
		}
	}
	return nil
}

func run_cg_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_p_icnt int, d_p_icnt []int64) error {
	t47 := p_n - int64(1)
	for i_iz0 := int64(0); i_iz0 <= t47; i_iz0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t48 := i_iz0
		if t48 < 0 || t48 >= d_p_icnt[0] {
			return m.OOB(t48, d_p_icnt[0], 0, "p_icnt", 0, 0)
		}
		t49 := b_p_icnt + int(t48)
		m.Store(t49, uint64(int64(0)))
	}
	return nil
}

func run_cg_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_cols int, d_cols []int64, b_p_icnt int, d_p_icnt []int64) error {
	t50 := p_n - int64(1)
	for i_i1 := int64(0); i_i1 <= t50; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t51 := p_k - int64(1)
		for i_j1 := int64(0); i_j1 <= t51; i_j1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t52 := i_i1
			if t52 < 0 || t52 >= d_cols[0] {
				return m.OOB(t52, d_cols[0], 0, "cols", 14, 37)
			}
			t53 := i_j1
			if t53 < 0 || t53 >= d_cols[1] {
				return m.OOB(t53, d_cols[1], 1, "cols", 14, 37)
			}
			t54 := b_cols + int((t52)*d_cols[1]+t53)
			t55 := int64(m.Load(t54))
			t56 := t55
			if t56 < 0 || t56 >= d_p_icnt[0] {
				return m.OOB(t56, d_p_icnt[0], 0, "p_icnt", 0, 0)
			}
			t57 := b_p_icnt + int(t56)
			t58 := int64(m.Load(t57))
			t59 := t58 + int64(1)
			t60 := i_i1
			if t60 < 0 || t60 >= d_cols[0] {
				return m.OOB(t60, d_cols[0], 0, "cols", 14, 37)
			}
			t61 := i_j1
			if t61 < 0 || t61 >= d_cols[1] {
				return m.OOB(t61, d_cols[1], 1, "cols", 14, 37)
			}
			t62 := b_cols + int((t60)*d_cols[1]+t61)
			t63 := int64(m.Load(t62))
			t64 := t63
			if t64 < 0 || t64 >= d_p_icnt[0] {
				return m.OOB(t64, d_p_icnt[0], 0, "p_icnt", 0, 0)
			}
			t65 := b_p_icnt + int(t64)
			m.Store(t65, uint64(t59))
		}
	}
	return nil
}

func run_cg_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64) error {
	t84 := p_n - int64(1)
	for i_ie04 := int64(0); i_ie04 <= t84; i_ie04++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t85 := i_ie04
		if t85 < 0 || t85 >= d_x[0] {
			return m.OOB(t85, d_x[0], 0, "x", 0, 0)
		}
		t86 := b_x + int(t85)
		t87 := m.LoadF(t86)
		cs.Fold(checksum.AccDef, math.Float64bits(t87), int64(1))
	}
	return nil
}

func run_cg_resilientopt_n8(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, p_maxiter int64, b_Aval int, d_Aval []int64, b_p int, d_p []int64, b_q int, d_q []int64, b_x int, d_x []int64, b_r int, d_r []int64, b_alpha int, b_beta int, b_rnorm int, b_rnorm_new int, b_pq int, b_cols int, d_cols []int64, b_iter int, b_defuse_iter int, b_p_icnt int, d_p_icnt []int64, b_q_cnt int, d_q_cnt []int64, b_r_cnt int, d_r_cnt []int64, b_alpha_cnt int, b_beta_cnt int, b_rnorm_new_cnt int, b_pq_cnt int) error {
	for {
		if err := m.Tick(8, 1); err != nil {
			return err
		}
		t88 := int64(m.Load(b_iter))
		if !(t88 < p_maxiter) {
			break
		}
		t89 := int64(m.Load(b_defuse_iter))
		t90 := t89 + int64(1)
		m.Store(b_defuse_iter, uint64(t90))
		t91 := p_n - int64(1)
		for i_i0 := int64(0); i_i0 <= t91; i_i0++ {
			if err := m.Tick(9, 3); err != nil {
				return err
			}
			t92 := i_i0
			if t92 < 0 || t92 >= d_q[0] {
				return m.OOB(t92, d_q[0], 0, "q", 10, 9)
			}
			t93 := b_q + int(t92)
			t94 := m.LoadF(t93)
			t95 := i_i0
			if t95 < 0 || t95 >= d_q_cnt[0] {
				return m.OOB(t95, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t96 := b_q_cnt + int(t95)
			t97 := int64(m.Load(t96))
			t98 := t97 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t94), t98)
			t99 := i_i0
			if t99 < 0 || t99 >= d_q[0] {
				return m.OOB(t99, d_q[0], 0, "q", 10, 9)
			}
			t100 := b_q + int(t99)
			t101 := m.LoadF(t100)
			cs.Fold(checksum.AccEUse, math.Float64bits(t101), int64(1))
			r_q_w := float64(0)
			t102 := i_i0
			if t102 < 0 || t102 >= d_q[0] {
				return m.OOB(t102, d_q[0], 0, "q", 10, 9)
			}
			t103 := b_q + int(t102)
			m.StoreF(t103, r_q_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_q_w), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_q_w), int64(1))
			t104 := i_i0
			if t104 < 0 || t104 >= d_q_cnt[0] {
				return m.OOB(t104, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t105 := b_q_cnt + int(t104)
			m.Store(t105, uint64(int64(0)))
		}
		t106 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t106; i_i1++ {
			if err := m.Tick(12, 3); err != nil {
				return err
			}
			t107 := p_k - int64(1)
			for i_j1 := int64(0); i_j1 <= t107; i_j1++ {
				if err := m.Tick(13, 5); err != nil {
					return err
				}
				t108 := i_i1
				if t108 < 0 || t108 >= d_Aval[0] {
					return m.OOB(t108, d_Aval[0], 0, "Aval", 14, 20)
				}
				t109 := i_j1
				if t109 < 0 || t109 >= d_Aval[1] {
					return m.OOB(t109, d_Aval[1], 1, "Aval", 14, 20)
				}
				t110 := b_Aval + int((t108)*d_Aval[1]+t109)
				r_Aval_r := m.LoadF(t110)
				t111 := i_i1
				if t111 < 0 || t111 >= d_cols[0] {
					return m.OOB(t111, d_cols[0], 0, "cols", 14, 37)
				}
				t112 := i_j1
				if t112 < 0 || t112 >= d_cols[1] {
					return m.OOB(t112, d_cols[1], 1, "cols", 14, 37)
				}
				t113 := b_cols + int((t111)*d_cols[1]+t112)
				r_cols_r := int64(m.Load(t113))
				t114 := r_cols_r
				if t114 < 0 || t114 >= d_p[0] {
					return m.OOB(t114, d_p[0], 0, "p", 14, 35)
				}
				t115 := b_p + int(t114)
				r_p_r := m.LoadF(t115)
				t116 := i_i1
				if t116 < 0 || t116 >= d_q[0] {
					return m.OOB(t116, d_q[0], 0, "q", 14, 11)
				}
				t117 := b_q + int(t116)
				r_q_r := m.LoadF(t117)
				cs.Fold(checksum.AccUse, math.Float64bits(r_q_r), int64(1))
				t118 := i_i1
				if t118 < 0 || t118 >= d_q_cnt[0] {
					return m.OOB(t118, d_q_cnt[0], 0, "q_cnt", 0, 0)
				}
				t119 := b_q_cnt + int(t118)
				t120 := int64(m.Load(t119))
				t121 := t120 + int64(1)
				t122 := i_i1
				if t122 < 0 || t122 >= d_q_cnt[0] {
					return m.OOB(t122, d_q_cnt[0], 0, "q_cnt", 0, 0)
				}
				t123 := b_q_cnt + int(t122)
				m.Store(t123, uint64(t121))
				cs.Fold(checksum.AccUse, math.Float64bits(r_Aval_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_p_r), int64(1))
				cs.Fold(checksum.AccUse, uint64(r_cols_r), int64(1))
				t124 := i_i1
				if t124 < 0 || t124 >= d_q_cnt[0] {
					return m.OOB(t124, d_q_cnt[0], 0, "q_cnt", 0, 0)
				}
				t125 := b_q_cnt + int(t124)
				t126 := int64(m.Load(t125))
				t127 := t126 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_q_r), t127)
				cs.Fold(checksum.AccEUse, math.Float64bits(r_q_r), int64(1))
				t128 := float64(r_Aval_r * r_p_r)
				t129 := float64(r_q_r + t128)
				r_q_w2 := t129
				t130 := i_i1
				if t130 < 0 || t130 >= d_q[0] {
					return m.OOB(t130, d_q[0], 0, "q", 14, 11)
				}
				t131 := b_q + int(t130)
				m.StoreF(t131, r_q_w2)
				cs.Fold(checksum.AccDef, math.Float64bits(r_q_w2), int64(1))
				cs.Fold(checksum.AccEDef, math.Float64bits(r_q_w2), int64(1))
				t132 := i_i1
				if t132 < 0 || t132 >= d_q_cnt[0] {
					return m.OOB(t132, d_q_cnt[0], 0, "q_cnt", 0, 0)
				}
				t133 := b_q_cnt + int(t132)
				m.Store(t133, uint64(int64(0)))
			}
		}
		t134 := m.LoadF(b_pq)
		t135 := int64(m.Load(b_pq_cnt))
		t136 := t135 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t134), t136)
		t137 := m.LoadF(b_pq)
		cs.Fold(checksum.AccEUse, math.Float64bits(t137), int64(1))
		r_pq_w := float64(0)
		m.StoreF(b_pq, r_pq_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_pq_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_pq_w), int64(1))
		m.Store(b_pq_cnt, uint64(int64(0)))
		t138 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t138; i_i2++ {
			if err := m.Tick(18, 3); err != nil {
				return err
			}
			t139 := i_i2
			if t139 < 0 || t139 >= d_p[0] {
				return m.OOB(t139, d_p[0], 0, "p", 19, 15)
			}
			t140 := b_p + int(t139)
			r_p_r2 := m.LoadF(t140)
			t141 := i_i2
			if t141 < 0 || t141 >= d_q[0] {
				return m.OOB(t141, d_q[0], 0, "q", 19, 23)
			}
			t142 := b_q + int(t141)
			r_q_r2 := m.LoadF(t142)
			r_pq_r := m.LoadF(b_pq)
			cs.Fold(checksum.AccUse, math.Float64bits(r_pq_r), int64(1))
			t143 := int64(m.Load(b_pq_cnt))
			t144 := t143 + int64(1)
			m.Store(b_pq_cnt, uint64(t144))
			cs.Fold(checksum.AccUse, math.Float64bits(r_p_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_q_r2), int64(1))
			t145 := i_i2
			if t145 < 0 || t145 >= d_q_cnt[0] {
				return m.OOB(t145, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t146 := b_q_cnt + int(t145)
			t147 := int64(m.Load(t146))
			t148 := t147 + int64(1)
			t149 := i_i2
			if t149 < 0 || t149 >= d_q_cnt[0] {
				return m.OOB(t149, d_q_cnt[0], 0, "q_cnt", 0, 0)
			}
			t150 := b_q_cnt + int(t149)
			m.Store(t150, uint64(t148))
			t151 := int64(m.Load(b_pq_cnt))
			t152 := t151 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_pq_r), t152)
			cs.Fold(checksum.AccEUse, math.Float64bits(r_pq_r), int64(1))
			t153 := float64(r_p_r2 * r_q_r2)
			t154 := float64(r_pq_r + t153)
			r_pq_w2 := t154
			m.StoreF(b_pq, r_pq_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_pq_w2), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_pq_w2), int64(1))
			m.Store(b_pq_cnt, uint64(int64(0)))
		}
		r_rnorm_r := m.LoadF(b_rnorm)
		r_pq_r2 := m.LoadF(b_pq)
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_pq_r2), int64(1))
		t155 := int64(m.Load(b_pq_cnt))
		t156 := t155 + int64(1)
		m.Store(b_pq_cnt, uint64(t156))
		t157 := m.LoadF(b_alpha)
		t158 := int64(m.Load(b_alpha_cnt))
		t159 := t158 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t157), t159)
		t160 := m.LoadF(b_alpha)
		cs.Fold(checksum.AccEUse, math.Float64bits(t160), int64(1))
		if r_pq_r2 == 0 {
			return m.DivZero(21, 17)
		}
		t161 := float64(r_rnorm_r / r_pq_r2)
		r_alpha_w := t161
		m.StoreF(b_alpha, r_alpha_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_alpha_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_alpha_w), int64(1))
		m.Store(b_alpha_cnt, uint64(int64(0)))
		t162 := p_n - int64(1)
		for i_i3 := int64(0); i_i3 <= t162; i_i3++ {
			if err := m.Tick(22, 3); err != nil {
				return err
			}
			t163 := i_i3
			if t163 < 0 || t163 >= d_x[0] {
				return m.OOB(t163, d_x[0], 0, "x", 23, 17)
			}
			t164 := b_x + int(t163)
			r_x_r := m.LoadF(t164)
			r_alpha_r := m.LoadF(b_alpha)
			t165 := i_i3
			if t165 < 0 || t165 >= d_p[0] {
				return m.OOB(t165, d_p[0], 0, "p", 23, 33)
			}
			t166 := b_p + int(t165)
			r_p_r3 := m.LoadF(t166)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_alpha_r), int64(1))
			t167 := int64(m.Load(b_alpha_cnt))
			t168 := t167 + int64(1)
			m.Store(b_alpha_cnt, uint64(t168))
			cs.Fold(checksum.AccUse, math.Float64bits(r_p_r3), int64(1))
			t169 := float64(r_alpha_r * r_p_r3)
			t170 := float64(r_x_r + t169)
			r_x_w := t170
			t171 := i_i3
			if t171 < 0 || t171 >= d_x[0] {
				return m.OOB(t171, d_x[0], 0, "x", 23, 9)
			}
			t172 := b_x + int(t171)
			m.StoreF(t172, r_x_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		}
		if err := run_cg_resilientopt_n9(m, cs, p_n, b_q, d_q, b_r, d_r, b_alpha, b_q_cnt, d_q_cnt, b_r_cnt, d_r_cnt, b_alpha_cnt); err != nil {
			return err
		}
		t208 := m.LoadF(b_rnorm_new)
		t209 := int64(m.Load(b_rnorm_new_cnt))
		t210 := t209 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t208), t210)
		t211 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccEUse, math.Float64bits(t211), int64(1))
		r_rnorm_new_w := float64(0)
		m.StoreF(b_rnorm_new, r_rnorm_new_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_new_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_rnorm_new_w), int64(1))
		m.Store(b_rnorm_new_cnt, uint64(int64(0)))
		t212 := p_n - int64(1)
		for i_i5 := int64(0); i_i5 <= t212; i_i5++ {
			if err := m.Tick(29, 3); err != nil {
				return err
			}
			t213 := i_i5
			if t213 < 0 || t213 >= d_r[0] {
				return m.OOB(t213, d_r[0], 0, "r", 30, 22)
			}
			t214 := b_r + int(t213)
			r_r_r2 := m.LoadF(t214)
			t215 := i_i5
			if t215 < 0 || t215 >= d_r[0] {
				return m.OOB(t215, d_r[0], 0, "r", 30, 30)
			}
			t216 := b_r + int(t215)
			r_r_r3 := m.LoadF(t216)
			r_rnorm_new_r := m.LoadF(b_rnorm_new)
			cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_new_r), int64(1))
			t217 := int64(m.Load(b_rnorm_new_cnt))
			t218 := t217 + int64(1)
			m.Store(b_rnorm_new_cnt, uint64(t218))
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r2), int64(1))
			t219 := i_i5
			if t219 < 0 || t219 >= d_r_cnt[0] {
				return m.OOB(t219, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t220 := b_r_cnt + int(t219)
			t221 := int64(m.Load(t220))
			t222 := t221 + int64(1)
			t223 := i_i5
			if t223 < 0 || t223 >= d_r_cnt[0] {
				return m.OOB(t223, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t224 := b_r_cnt + int(t223)
			m.Store(t224, uint64(t222))
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r3), int64(1))
			t225 := i_i5
			if t225 < 0 || t225 >= d_r_cnt[0] {
				return m.OOB(t225, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t226 := b_r_cnt + int(t225)
			t227 := int64(m.Load(t226))
			t228 := t227 + int64(1)
			t229 := i_i5
			if t229 < 0 || t229 >= d_r_cnt[0] {
				return m.OOB(t229, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t230 := b_r_cnt + int(t229)
			m.Store(t230, uint64(t228))
			t231 := int64(m.Load(b_rnorm_new_cnt))
			t232 := t231 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_new_r), t232)
			cs.Fold(checksum.AccEUse, math.Float64bits(r_rnorm_new_r), int64(1))
			t233 := float64(r_r_r2 * r_r_r3)
			t234 := float64(r_rnorm_new_r + t233)
			r_rnorm_new_w2 := t234
			m.StoreF(b_rnorm_new, r_rnorm_new_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_new_w2), int64(1))
			cs.Fold(checksum.AccEDef, math.Float64bits(r_rnorm_new_w2), int64(1))
			m.Store(b_rnorm_new_cnt, uint64(int64(0)))
		}
		r_rnorm_new_r2 := m.LoadF(b_rnorm_new)
		r_rnorm_r2 := m.LoadF(b_rnorm)
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_new_r2), int64(1))
		t235 := int64(m.Load(b_rnorm_new_cnt))
		t236 := t235 + int64(1)
		m.Store(b_rnorm_new_cnt, uint64(t236))
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_r2), int64(1))
		t237 := m.LoadF(b_beta)
		t238 := int64(m.Load(b_beta_cnt))
		t239 := t238 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t237), t239)
		t240 := m.LoadF(b_beta)
		cs.Fold(checksum.AccEUse, math.Float64bits(t240), int64(1))
		if r_rnorm_r2 == 0 {
			return m.DivZero(32, 20)
		}
		t241 := float64(r_rnorm_new_r2 / r_rnorm_r2)
		r_beta_w := t241
		m.StoreF(b_beta, r_beta_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_beta_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_beta_w), int64(1))
		m.Store(b_beta_cnt, uint64(int64(0)))
		r_rnorm_new_r3 := m.LoadF(b_rnorm_new)
		cs.Fold(checksum.AccUse, math.Float64bits(r_rnorm_new_r3), int64(1))
		t242 := int64(m.Load(b_rnorm_new_cnt))
		t243 := t242 + int64(1)
		m.Store(b_rnorm_new_cnt, uint64(t243))
		r_rnorm_w := r_rnorm_new_r3
		m.StoreF(b_rnorm, r_rnorm_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_w), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_rnorm_w), int64(1))
		t244 := p_n - int64(1)
		for i_i6 := int64(0); i_i6 <= t244; i_i6++ {
			if err := m.Tick(34, 3); err != nil {
				return err
			}
			t245 := i_i6
			if t245 < 0 || t245 >= d_r[0] {
				return m.OOB(t245, d_r[0], 0, "r", 35, 17)
			}
			t246 := b_r + int(t245)
			r_r_r4 := m.LoadF(t246)
			r_beta_r := m.LoadF(b_beta)
			t247 := i_i6
			if t247 < 0 || t247 >= d_p[0] {
				return m.OOB(t247, d_p[0], 0, "p", 35, 32)
			}
			t248 := b_p + int(t247)
			r_p_r4 := m.LoadF(t248)
			cs.Fold(checksum.AccUse, math.Float64bits(r_r_r4), int64(1))
			t249 := i_i6
			if t249 < 0 || t249 >= d_r_cnt[0] {
				return m.OOB(t249, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t250 := b_r_cnt + int(t249)
			t251 := int64(m.Load(t250))
			t252 := t251 + int64(1)
			t253 := i_i6
			if t253 < 0 || t253 >= d_r_cnt[0] {
				return m.OOB(t253, d_r_cnt[0], 0, "r_cnt", 0, 0)
			}
			t254 := b_r_cnt + int(t253)
			m.Store(t254, uint64(t252))
			cs.Fold(checksum.AccUse, math.Float64bits(r_beta_r), int64(1))
			t255 := int64(m.Load(b_beta_cnt))
			t256 := t255 + int64(1)
			m.Store(b_beta_cnt, uint64(t256))
			cs.Fold(checksum.AccUse, math.Float64bits(r_p_r4), int64(1))
			t257 := float64(r_beta_r * r_p_r4)
			t258 := float64(r_r_r4 + t257)
			r_p_w := t258
			t259 := i_i6
			if t259 < 0 || t259 >= d_p[0] {
				return m.OOB(t259, d_p[0], 0, "p", 35, 9)
			}
			t260 := b_p + int(t259)
			m.StoreF(t260, r_p_w)
			t261 := i_i6
			if t261 < 0 || t261 >= d_p_icnt[0] {
				return m.OOB(t261, d_p_icnt[0], 0, "p_icnt", 0, 0)
			}
			t262 := b_p_icnt + int(t261)
			t263 := int64(m.Load(t262))
			cs.Fold(checksum.AccDef, math.Float64bits(r_p_w), t263)
			cs.Fold(checksum.AccDef, math.Float64bits(r_p_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_p_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_p_w), int64(1))
		}
		r_iter_r := int64(m.Load(b_iter))
		t264 := r_iter_r + int64(1)
		m.Store(b_iter, uint64(t264))
	}
	return nil
}

func run_cg_resilientopt_n9(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_q int, d_q []int64, b_r int, d_r []int64, b_alpha int, b_q_cnt int, d_q_cnt []int64, b_r_cnt int, d_r_cnt []int64, b_alpha_cnt int) error {
	t173 := p_n - int64(1)
	for i_i4 := int64(0); i_i4 <= t173; i_i4++ {
		if err := m.Tick(25, 3); err != nil {
			return err
		}
		t174 := i_i4
		if t174 < 0 || t174 >= d_r[0] {
			return m.OOB(t174, d_r[0], 0, "r", 26, 17)
		}
		t175 := b_r + int(t174)
		r_r_r := m.LoadF(t175)
		r_alpha_r2 := m.LoadF(b_alpha)
		t176 := i_i4
		if t176 < 0 || t176 >= d_q[0] {
			return m.OOB(t176, d_q[0], 0, "q", 26, 33)
		}
		t177 := b_q + int(t176)
		r_q_r3 := m.LoadF(t177)
		cs.Fold(checksum.AccUse, math.Float64bits(r_r_r), int64(1))
		t178 := i_i4
		if t178 < 0 || t178 >= d_r_cnt[0] {
			return m.OOB(t178, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t179 := b_r_cnt + int(t178)
		t180 := int64(m.Load(t179))
		t181 := t180 + int64(1)
		t182 := i_i4
		if t182 < 0 || t182 >= d_r_cnt[0] {
			return m.OOB(t182, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t183 := b_r_cnt + int(t182)
		m.Store(t183, uint64(t181))
		cs.Fold(checksum.AccUse, math.Float64bits(r_alpha_r2), int64(1))
		t184 := int64(m.Load(b_alpha_cnt))
		t185 := t184 + int64(1)
		m.Store(b_alpha_cnt, uint64(t185))
		cs.Fold(checksum.AccUse, math.Float64bits(r_q_r3), int64(1))
		t186 := i_i4
		if t186 < 0 || t186 >= d_q_cnt[0] {
			return m.OOB(t186, d_q_cnt[0], 0, "q_cnt", 0, 0)
		}
		t187 := b_q_cnt + int(t186)
		t188 := int64(m.Load(t187))
		t189 := t188 + int64(1)
		t190 := i_i4
		if t190 < 0 || t190 >= d_q_cnt[0] {
			return m.OOB(t190, d_q_cnt[0], 0, "q_cnt", 0, 0)
		}
		t191 := b_q_cnt + int(t190)
		m.Store(t191, uint64(t189))
		t192 := i_i4
		if t192 < 0 || t192 >= d_r[0] {
			return m.OOB(t192, d_r[0], 0, "r", 26, 9)
		}
		t193 := b_r + int(t192)
		t194 := m.LoadF(t193)
		t195 := i_i4
		if t195 < 0 || t195 >= d_r_cnt[0] {
			return m.OOB(t195, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t196 := b_r_cnt + int(t195)
		t197 := int64(m.Load(t196))
		t198 := t197 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t194), t198)
		t199 := i_i4
		if t199 < 0 || t199 >= d_r[0] {
			return m.OOB(t199, d_r[0], 0, "r", 26, 9)
		}
		t200 := b_r + int(t199)
		t201 := m.LoadF(t200)
		cs.Fold(checksum.AccEUse, math.Float64bits(t201), int64(1))
		t202 := float64(r_alpha_r2 * r_q_r3)
		t203 := float64(r_r_r - t202)
		r_r_w := t203
		t204 := i_i4
		if t204 < 0 || t204 >= d_r[0] {
			return m.OOB(t204, d_r[0], 0, "r", 26, 9)
		}
		t205 := b_r + int(t204)
		m.StoreF(t205, r_r_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_r_w), int64(1))
		cs.Fold(checksum.AccEDef, math.Float64bits(r_r_w), int64(1))
		t206 := i_i4
		if t206 < 0 || t206 >= d_r_cnt[0] {
			return m.OOB(t206, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t207 := b_r_cnt + int(t206)
		m.Store(t207, uint64(int64(0)))
	}
	return nil
}

func run_cg_resilientopt_n10(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_Aval int, d_Aval []int64, b_defuse_iter int) error {
	t265 := p_n - int64(1)
	for i_ie0 := int64(0); i_ie0 <= t265; i_ie0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t266 := p_k - int64(1)
		for i_ie1 := int64(0); i_ie1 <= t266; i_ie1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t267 := i_ie0
			if t267 < 0 || t267 >= d_Aval[0] {
				return m.OOB(t267, d_Aval[0], 0, "Aval", 0, 0)
			}
			t268 := i_ie1
			if t268 < 0 || t268 >= d_Aval[1] {
				return m.OOB(t268, d_Aval[1], 1, "Aval", 0, 0)
			}
			t269 := b_Aval + int((t267)*d_Aval[1]+t268)
			t270 := m.LoadF(t269)
			t271 := int64(m.Load(b_defuse_iter))
			t272 := int64(1) * t271
			cs.Fold(checksum.AccDef, math.Float64bits(t270), t272)
			t273 := i_ie0
			if t273 < 0 || t273 >= d_Aval[0] {
				return m.OOB(t273, d_Aval[0], 0, "Aval", 0, 0)
			}
			t274 := i_ie1
			if t274 < 0 || t274 >= d_Aval[1] {
				return m.OOB(t274, d_Aval[1], 1, "Aval", 0, 0)
			}
			t275 := b_Aval + int((t273)*d_Aval[1]+t274)
			t276 := m.LoadF(t275)
			t277 := -int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t276), t277)
			t278 := i_ie0
			if t278 < 0 || t278 >= d_Aval[0] {
				return m.OOB(t278, d_Aval[0], 0, "Aval", 0, 0)
			}
			t279 := i_ie1
			if t279 < 0 || t279 >= d_Aval[1] {
				return m.OOB(t279, d_Aval[1], 1, "Aval", 0, 0)
			}
			t280 := b_Aval + int((t278)*d_Aval[1]+t279)
			t281 := m.LoadF(t280)
			cs.Fold(checksum.AccEUse, math.Float64bits(t281), int64(1))
		}
	}
	return nil
}

func run_cg_resilientopt_n11(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_k int64, b_cols int, d_cols []int64, b_defuse_iter int) error {
	t282 := p_n - int64(1)
	for i_ie02 := int64(0); i_ie02 <= t282; i_ie02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t283 := p_k - int64(1)
		for i_ie12 := int64(0); i_ie12 <= t283; i_ie12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t284 := i_ie02
			if t284 < 0 || t284 >= d_cols[0] {
				return m.OOB(t284, d_cols[0], 0, "cols", 0, 0)
			}
			t285 := i_ie12
			if t285 < 0 || t285 >= d_cols[1] {
				return m.OOB(t285, d_cols[1], 1, "cols", 0, 0)
			}
			t286 := b_cols + int((t284)*d_cols[1]+t285)
			t287 := int64(m.Load(t286))
			t288 := int64(m.Load(b_defuse_iter))
			t289 := int64(1) * t288
			cs.Fold(checksum.AccDef, uint64(t287), t289)
			t290 := i_ie02
			if t290 < 0 || t290 >= d_cols[0] {
				return m.OOB(t290, d_cols[0], 0, "cols", 0, 0)
			}
			t291 := i_ie12
			if t291 < 0 || t291 >= d_cols[1] {
				return m.OOB(t291, d_cols[1], 1, "cols", 0, 0)
			}
			t292 := b_cols + int((t290)*d_cols[1]+t291)
			t293 := int64(m.Load(t292))
			t294 := -int64(1)
			cs.Fold(checksum.AccDef, uint64(t293), t294)
			t295 := i_ie02
			if t295 < 0 || t295 >= d_cols[0] {
				return m.OOB(t295, d_cols[0], 0, "cols", 0, 0)
			}
			t296 := i_ie12
			if t296 < 0 || t296 >= d_cols[1] {
				return m.OOB(t296, d_cols[1], 1, "cols", 0, 0)
			}
			t297 := b_cols + int((t295)*d_cols[1]+t296)
			t298 := int64(m.Load(t297))
			cs.Fold(checksum.AccEUse, uint64(t298), int64(1))
		}
	}
	return nil
}

func run_cg_resilientopt_n12(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_p int, d_p []int64, b_p_icnt int, d_p_icnt []int64) error {
	t299 := p_n - int64(1)
	for i_ie03 := int64(0); i_ie03 <= t299; i_ie03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t300 := i_ie03
		if t300 < 0 || t300 >= d_p[0] {
			return m.OOB(t300, d_p[0], 0, "p", 0, 0)
		}
		t301 := b_p + int(t300)
		t302 := m.LoadF(t301)
		t303 := i_ie03
		if t303 < 0 || t303 >= d_p_icnt[0] {
			return m.OOB(t303, d_p_icnt[0], 0, "p_icnt", 0, 0)
		}
		t304 := b_p_icnt + int(t303)
		t305 := int64(m.Load(t304))
		cs.Fold(checksum.AccUse, math.Float64bits(t302), t305)
		t306 := i_ie03
		if t306 < 0 || t306 >= d_p[0] {
			return m.OOB(t306, d_p[0], 0, "p", 0, 0)
		}
		t307 := b_p + int(t306)
		t308 := m.LoadF(t307)
		cs.Fold(checksum.AccUse, math.Float64bits(t308), int64(1))
		t309 := i_ie03
		if t309 < 0 || t309 >= d_p[0] {
			return m.OOB(t309, d_p[0], 0, "p", 0, 0)
		}
		t310 := b_p + int(t309)
		t311 := m.LoadF(t310)
		cs.Fold(checksum.AccUse, math.Float64bits(t311), int64(1))
		t312 := i_ie03
		if t312 < 0 || t312 >= d_p[0] {
			return m.OOB(t312, d_p[0], 0, "p", 0, 0)
		}
		t313 := b_p + int(t312)
		t314 := m.LoadF(t313)
		cs.Fold(checksum.AccUse, math.Float64bits(t314), int64(1))
	}
	return nil
}

func run_cg_resilientopt_n13(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_x int, d_x []int64) error {
	t317 := p_n - int64(1)
	for i_ie04 := int64(0); i_ie04 <= t317; i_ie04++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t318 := i_ie04
		if t318 < 0 || t318 >= d_x[0] {
			return m.OOB(t318, d_x[0], 0, "x", 0, 0)
		}
		t319 := b_x + int(t318)
		t320 := m.LoadF(t319)
		cs.Fold(checksum.AccUse, math.Float64bits(t320), int64(1))
	}
	return nil
}

func run_cg_resilientopt_n14(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_q int, d_q []int64, b_q_cnt int, d_q_cnt []int64) error {
	t321 := p_n - int64(1)
	for i_dy0 := int64(0); i_dy0 <= t321; i_dy0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t322 := i_dy0
		if t322 < 0 || t322 >= d_q[0] {
			return m.OOB(t322, d_q[0], 0, "q", 0, 0)
		}
		t323 := b_q + int(t322)
		t324 := m.LoadF(t323)
		t325 := i_dy0
		if t325 < 0 || t325 >= d_q_cnt[0] {
			return m.OOB(t325, d_q_cnt[0], 0, "q_cnt", 0, 0)
		}
		t326 := b_q_cnt + int(t325)
		t327 := int64(m.Load(t326))
		t328 := t327 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t324), t328)
		t329 := i_dy0
		if t329 < 0 || t329 >= d_q[0] {
			return m.OOB(t329, d_q[0], 0, "q", 0, 0)
		}
		t330 := b_q + int(t329)
		t331 := m.LoadF(t330)
		cs.Fold(checksum.AccEUse, math.Float64bits(t331), int64(1))
	}
	return nil
}

func run_cg_resilientopt_n15(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_r int, d_r []int64, b_r_cnt int, d_r_cnt []int64) error {
	t332 := p_n - int64(1)
	for i_dy02 := int64(0); i_dy02 <= t332; i_dy02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t333 := i_dy02
		if t333 < 0 || t333 >= d_r[0] {
			return m.OOB(t333, d_r[0], 0, "r", 0, 0)
		}
		t334 := b_r + int(t333)
		t335 := m.LoadF(t334)
		t336 := i_dy02
		if t336 < 0 || t336 >= d_r_cnt[0] {
			return m.OOB(t336, d_r_cnt[0], 0, "r_cnt", 0, 0)
		}
		t337 := b_r_cnt + int(t336)
		t338 := int64(m.Load(t337))
		t339 := t338 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(t335), t339)
		t340 := i_dy02
		if t340 < 0 || t340 >= d_r[0] {
			return m.OOB(t340, d_r[0], 0, "r", 0, 0)
		}
		t341 := b_r + int(t340)
		t342 := m.LoadF(t341)
		cs.Fold(checksum.AccEUse, math.Float64bits(t342), int64(1))
	}
	return nil
}
