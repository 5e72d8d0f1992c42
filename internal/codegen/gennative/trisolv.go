// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_trisolv_original executes the Original variant of the trisolv benchmark natively.
func run_trisolv_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_L, d_L := m.Var("L")
	b_x, d_x := m.Var("x")
	b_b, d_b := m.Var("b")
	if epoch == 0 {
		t1 := p_n - int64(1)
		m.SetBounds(int64(0), t1)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_i := start; i_i <= end; i_i++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		t2 := i_i
		if t2 < 0 || t2 >= d_b[0] {
			return m.OOB(t2, d_b[0], 0, "b", 5, 14)
		}
		t3 := b_b + int(t2)
		t4 := m.LoadF(t3)
		t5 := i_i
		if t5 < 0 || t5 >= d_x[0] {
			return m.OOB(t5, d_x[0], 0, "x", 5, 7)
		}
		t6 := b_x + int(t5)
		m.StoreF(t6, t4)
		t7 := i_i - int64(1)
		for i_j := int64(0); i_j <= t7; i_j++ {
			if err := m.Tick(6, 3); err != nil {
				return err
			}
			t8 := i_i
			if t8 < 0 || t8 >= d_x[0] {
				return m.OOB(t8, d_x[0], 0, "x", 7, 16)
			}
			t9 := b_x + int(t8)
			t10 := m.LoadF(t9)
			t11 := i_i
			if t11 < 0 || t11 >= d_L[0] {
				return m.OOB(t11, d_L[0], 0, "L", 7, 23)
			}
			t12 := i_j
			if t12 < 0 || t12 >= d_L[1] {
				return m.OOB(t12, d_L[1], 1, "L", 7, 23)
			}
			t13 := b_L + int((t11)*d_L[1]+t12)
			t14 := m.LoadF(t13)
			t15 := i_j
			if t15 < 0 || t15 >= d_x[0] {
				return m.OOB(t15, d_x[0], 0, "x", 7, 33)
			}
			t16 := b_x + int(t15)
			t17 := m.LoadF(t16)
			t18 := float64(t14 * t17)
			t19 := float64(t10 - t18)
			t20 := i_i
			if t20 < 0 || t20 >= d_x[0] {
				return m.OOB(t20, d_x[0], 0, "x", 7, 9)
			}
			t21 := b_x + int(t20)
			m.StoreF(t21, t19)
		}
		t22 := i_i
		if t22 < 0 || t22 >= d_x[0] {
			return m.OOB(t22, d_x[0], 0, "x", 9, 14)
		}
		t23 := b_x + int(t22)
		t24 := m.LoadF(t23)
		t25 := i_i
		if t25 < 0 || t25 >= d_L[0] {
			return m.OOB(t25, d_L[0], 0, "L", 9, 21)
		}
		t26 := i_i
		if t26 < 0 || t26 >= d_L[1] {
			return m.OOB(t26, d_L[1], 1, "L", 9, 21)
		}
		t27 := b_L + int((t25)*d_L[1]+t26)
		t28 := m.LoadF(t27)
		if t28 == 0 {
			return m.DivZero(9, 19)
		}
		t29 := float64(t24 / t28)
		t30 := i_i
		if t30 < 0 || t30 >= d_x[0] {
			return m.OOB(t30, d_x[0], 0, "x", 9, 7)
		}
		t31 := b_x + int(t30)
		m.StoreF(t31, t29)
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_trisolv_resilient executes the Resilient variant of the trisolv benchmark natively.
func run_trisolv_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_L, d_L := m.Var("L")
	b_x, d_x := m.Var("x")
	b_b, d_b := m.Var("b")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_trisolv_resilient_n1(m, &cs, p_n, b_L, d_L); err != nil {
			return err
		}
		if err := run_trisolv_resilient_n2(m, &cs, p_n, b_b, d_b); err != nil {
			return err
		}
		t18 := p_n - int64(1)
		m.SetBounds(int64(0), t18)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_i := start; i_i <= end; i_i++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		t19 := i_i
		if t19 < 0 || t19 >= d_b[0] {
			return m.OOB(t19, d_b[0], 0, "b", 5, 14)
		}
		t20 := b_b + int(t19)
		r_b_r := m.LoadF(t20)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t21 := i_i
		if t21 < 0 || t21 >= d_x[0] {
			return m.OOB(t21, d_x[0], 0, "x", 5, 7)
		}
		t22 := b_x + int(t21)
		m.StoreF(t22, r_x_w)
		t24 := i_i - int64(1)
		t23 := t24 >= int64(0)
		if t23 {
			t25 := -i_i
			t26 := t25 + int64(1)
			t23 = t26 >= int64(0)
		}
		if t23 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), i_i)
		}
		t27 := i_i - int64(2)
		if t27 >= int64(0) {
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		}
		t28 := -i_i
		if t28 >= int64(0) {
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		}
		if err := run_trisolv_resilient_n3(m, &cs, b_L, d_L, b_x, d_x, i_i); err != nil {
			return err
		}
		t54 := i_i
		if t54 < 0 || t54 >= d_x[0] {
			return m.OOB(t54, d_x[0], 0, "x", 9, 14)
		}
		t55 := b_x + int(t54)
		r_x_r3 := m.LoadF(t55)
		t56 := i_i
		if t56 < 0 || t56 >= d_L[0] {
			return m.OOB(t56, d_L[0], 0, "L", 9, 21)
		}
		t57 := i_i
		if t57 < 0 || t57 >= d_L[1] {
			return m.OOB(t57, d_L[1], 1, "L", 9, 21)
		}
		t58 := b_L + int((t56)*d_L[1]+t57)
		r_L_r2 := m.LoadF(t58)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t59 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t59
		t60 := i_i
		if t60 < 0 || t60 >= d_x[0] {
			return m.OOB(t60, d_x[0], 0, "x", 9, 7)
		}
		t61 := b_x + int(t60)
		m.StoreF(t61, r_x_w3)
		t62 := -i_i
		t63 := t62 + p_n
		t64 := t63 - int64(2)
		if t64 >= int64(0) {
			t65 := -i_i
			t66 := t65 + p_n
			t67 := t66 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w3), t67)
		}
	}
	if epoch == epochs-1 {
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_trisolv_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64) error {
	t1 := p_n - int64(1)
	for i_li0 := int64(0); i_li0 <= t1; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2 := p_n - int64(1)
		for i_li1 := int64(0); i_li1 <= t2; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3 := i_li0 - i_li1
			t4 := t3 - int64(1)
			if t4 >= int64(0) {
				t5 := i_li0
				if t5 < 0 || t5 >= d_L[0] {
					return m.OOB(t5, d_L[0], 0, "L", 0, 0)
				}
				t6 := i_li1
				if t6 < 0 || t6 >= d_L[1] {
					return m.OOB(t6, d_L[1], 1, "L", 0, 0)
				}
				t7 := b_L + int((t5)*d_L[1]+t6)
				t8 := m.LoadF(t7)
				cs.Fold(checksum.AccDef, math.Float64bits(t8), int64(1))
			}
			t9 := i_li0 - i_li1
			if t9 == int64(0) {
				t10 := i_li0
				if t10 < 0 || t10 >= d_L[0] {
					return m.OOB(t10, d_L[0], 0, "L", 0, 0)
				}
				t11 := i_li1
				if t11 < 0 || t11 >= d_L[1] {
					return m.OOB(t11, d_L[1], 1, "L", 0, 0)
				}
				t12 := b_L + int((t10)*d_L[1]+t11)
				t13 := m.LoadF(t12)
				cs.Fold(checksum.AccDef, math.Float64bits(t13), int64(1))
			}
		}
	}
	return nil
}

func run_trisolv_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_b int, d_b []int64) error {
	t14 := p_n - int64(1)
	for i_li02 := int64(0); i_li02 <= t14; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t15 := i_li02
		if t15 < 0 || t15 >= d_b[0] {
			return m.OOB(t15, d_b[0], 0, "b", 0, 0)
		}
		t16 := b_b + int(t15)
		t17 := m.LoadF(t16)
		cs.Fold(checksum.AccDef, math.Float64bits(t17), int64(1))
	}
	return nil
}

func run_trisolv_resilient_n3(m *codegen.Machine, cs *checksum.Folds, b_L int, d_L []int64, b_x int, d_x []int64, i_i int64) error {
	t29 := i_i - int64(1)
	for i_j := int64(0); i_j <= t29; i_j++ {
		if err := m.Tick(6, 3); err != nil {
			return err
		}
		t30 := i_i
		if t30 < 0 || t30 >= d_x[0] {
			return m.OOB(t30, d_x[0], 0, "x", 7, 16)
		}
		t31 := b_x + int(t30)
		r_x_r := m.LoadF(t31)
		t32 := i_i
		if t32 < 0 || t32 >= d_L[0] {
			return m.OOB(t32, d_L[0], 0, "L", 7, 23)
		}
		t33 := i_j
		if t33 < 0 || t33 >= d_L[1] {
			return m.OOB(t33, d_L[1], 1, "L", 7, 23)
		}
		t34 := b_L + int((t32)*d_L[1]+t33)
		r_L_r := m.LoadF(t34)
		t35 := i_j
		if t35 < 0 || t35 >= d_x[0] {
			return m.OOB(t35, d_x[0], 0, "x", 7, 33)
		}
		t36 := b_x + int(t35)
		r_x_r2 := m.LoadF(t36)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
		t37 := float64(r_L_r * r_x_r2)
		t38 := float64(r_x_r - t37)
		r_x_w2 := t38
		t39 := i_i
		if t39 < 0 || t39 >= d_x[0] {
			return m.OOB(t39, d_x[0], 0, "x", 7, 9)
		}
		t40 := b_x + int(t39)
		m.StoreF(t40, r_x_w2)
		t42 := i_i - i_j
		t43 := t42 - int64(2)
		t41 := t43 >= int64(0)
		if t41 {
			t44 := -i_i
			t45 := t44 + i_j
			t46 := t45 + int64(2)
			t41 = t46 >= int64(0)
		}
		if t41 {
			t47 := i_i - i_j
			t48 := t47 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), t48)
		}
		t49 := i_i - i_j
		t50 := t49 - int64(3)
		if t50 >= int64(0) {
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
		}
		t51 := -i_i
		t52 := t51 + i_j
		t53 := t52 + int64(1)
		if t53 >= int64(0) {
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
		}
	}
	return nil
}

// run_trisolv_resilientopt executes the Resilient-Optimized variant of the trisolv benchmark natively.
func run_trisolv_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_L, d_L := m.Var("L")
	b_x, d_x := m.Var("x")
	b_b, d_b := m.Var("b")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_trisolv_resilientopt_n1(m, &cs, p_n, b_L, d_L); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n2(m, &cs, p_n, b_b, d_b); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n3(m, &cs, p_n, b_L, d_L, b_x, d_x, b_b, d_b); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n4(m, &cs, p_n, b_L, d_L, b_x, d_x, b_b, d_b); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n5(m, &cs, p_n, b_L, d_L, b_x, d_x, b_b, d_b); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n6(m, &cs, p_n, b_L, d_L, b_x, d_x, b_b, d_b); err != nil {
			return err
		}
		t110 := p_n - int64(2)
		m.SetBounds(int64(2), t110)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_i := start; i_i <= end; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t111 := i_i
		if t111 < 0 || t111 >= d_b[0] {
			return m.OOB(t111, d_b[0], 0, "b", 5, 14)
		}
		t112 := b_b + int(t111)
		r_b_r := m.LoadF(t112)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t113 := i_i
		if t113 < 0 || t113 >= d_x[0] {
			return m.OOB(t113, d_x[0], 0, "x", 5, 7)
		}
		t114 := b_x + int(t113)
		m.StoreF(t114, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		if err := run_trisolv_resilientopt_n7(m, &cs, b_L, d_L, b_x, d_x, i_i); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n8(m, &cs, b_L, d_L, b_x, d_x, i_i); err != nil {
			return err
		}
		if err := run_trisolv_resilientopt_n9(m, &cs, b_L, d_L, b_x, d_x, i_i); err != nil {
			return err
		}
		t157 := i_i
		if t157 < 0 || t157 >= d_x[0] {
			return m.OOB(t157, d_x[0], 0, "x", 9, 14)
		}
		t158 := b_x + int(t157)
		r_x_r3 := m.LoadF(t158)
		t159 := i_i
		if t159 < 0 || t159 >= d_L[0] {
			return m.OOB(t159, d_L[0], 0, "L", 9, 21)
		}
		t160 := i_i
		if t160 < 0 || t160 >= d_L[1] {
			return m.OOB(t160, d_L[1], 1, "L", 9, 21)
		}
		t161 := b_L + int((t159)*d_L[1]+t160)
		r_L_r2 := m.LoadF(t161)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t162 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t162
		t163 := i_i
		if t163 < 0 || t163 >= d_x[0] {
			return m.OOB(t163, d_x[0], 0, "x", 9, 7)
		}
		t164 := b_x + int(t163)
		m.StoreF(t164, r_x_w3)
		t165 := -i_i
		t166 := t165 + p_n
		t167 := t166 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w3), t167)
	}
	if epoch == epochs-1 {
		if err := run_trisolv_resilientopt_n10(m, &cs, p_n, b_L, d_L, b_x, d_x, b_b, d_b); err != nil {
			return err
		}
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_trisolv_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64) error {
	t1 := p_n - int64(1)
	for i_li0 := int64(0); i_li0 <= t1; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2 := p_n - int64(1)
		t3 := i_li0 - int64(1)
		t4 := codegen.MinI(t2, t3)
		for i_li1 := int64(0); i_li1 <= t4; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5 := i_li0
			if t5 < 0 || t5 >= d_L[0] {
				return m.OOB(t5, d_L[0], 0, "L", 0, 0)
			}
			t6 := i_li1
			if t6 < 0 || t6 >= d_L[1] {
				return m.OOB(t6, d_L[1], 1, "L", 0, 0)
			}
			t7 := b_L + int((t5)*d_L[1]+t6)
			t8 := m.LoadF(t7)
			cs.Fold(checksum.AccDef, math.Float64bits(t8), int64(1))
		}
		t9 := codegen.MaxI(int64(0), i_li0)
		t10 := p_n - int64(1)
		for i_li1 := t9; i_li1 <= t10; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t11 := i_li0 - i_li1
			if t11 == int64(0) {
				t12 := i_li0
				if t12 < 0 || t12 >= d_L[0] {
					return m.OOB(t12, d_L[0], 0, "L", 0, 0)
				}
				t13 := i_li1
				if t13 < 0 || t13 >= d_L[1] {
					return m.OOB(t13, d_L[1], 1, "L", 0, 0)
				}
				t14 := b_L + int((t12)*d_L[1]+t13)
				t15 := m.LoadF(t14)
				cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
			}
		}
	}
	return nil
}

func run_trisolv_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_b int, d_b []int64) error {
	t16 := p_n - int64(1)
	for i_li02 := int64(0); i_li02 <= t16; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t17 := i_li02
		if t17 < 0 || t17 >= d_b[0] {
			return m.OOB(t17, d_b[0], 0, "b", 0, 0)
		}
		t18 := b_b + int(t17)
		t19 := m.LoadF(t18)
		cs.Fold(checksum.AccDef, math.Float64bits(t19), int64(1))
	}
	return nil
}

func run_trisolv_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_x int, d_x []int64, b_b int, d_b []int64) error {
	t20 := p_n - int64(2)
	t21 := codegen.MinI(t20, int64(0))
	for i_i := int64(0); i_i <= t21; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t22 := i_i
		if t22 < 0 || t22 >= d_b[0] {
			return m.OOB(t22, d_b[0], 0, "b", 5, 14)
		}
		t23 := b_b + int(t22)
		r_b_r := m.LoadF(t23)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t24 := i_i
		if t24 < 0 || t24 >= d_x[0] {
			return m.OOB(t24, d_x[0], 0, "x", 5, 7)
		}
		t25 := b_x + int(t24)
		m.StoreF(t25, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		t26 := i_i
		if t26 < 0 || t26 >= d_x[0] {
			return m.OOB(t26, d_x[0], 0, "x", 9, 14)
		}
		t27 := b_x + int(t26)
		r_x_r3 := m.LoadF(t27)
		t28 := i_i
		if t28 < 0 || t28 >= d_L[0] {
			return m.OOB(t28, d_L[0], 0, "L", 9, 21)
		}
		t29 := i_i
		if t29 < 0 || t29 >= d_L[1] {
			return m.OOB(t29, d_L[1], 1, "L", 9, 21)
		}
		t30 := b_L + int((t28)*d_L[1]+t29)
		r_L_r2 := m.LoadF(t30)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t31 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t31
		t32 := i_i
		if t32 < 0 || t32 >= d_x[0] {
			return m.OOB(t32, d_x[0], 0, "x", 9, 7)
		}
		t33 := b_x + int(t32)
		m.StoreF(t33, r_x_w3)
		t34 := -i_i
		t35 := t34 + p_n
		t36 := t35 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w3), t36)
	}
	return nil
}

func run_trisolv_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_x int, d_x []int64, b_b int, d_b []int64) error {
	t37 := p_n - int64(1)
	t38 := codegen.MaxI(int64(0), t37)
	t39 := p_n - int64(1)
	t40 := codegen.MinI(t39, int64(0))
	for i_i := t38; i_i <= t40; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t41 := i_i
		if t41 < 0 || t41 >= d_b[0] {
			return m.OOB(t41, d_b[0], 0, "b", 5, 14)
		}
		t42 := b_b + int(t41)
		r_b_r := m.LoadF(t42)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t43 := i_i
		if t43 < 0 || t43 >= d_x[0] {
			return m.OOB(t43, d_x[0], 0, "x", 5, 7)
		}
		t44 := b_x + int(t43)
		m.StoreF(t44, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		t45 := i_i
		if t45 < 0 || t45 >= d_x[0] {
			return m.OOB(t45, d_x[0], 0, "x", 9, 14)
		}
		t46 := b_x + int(t45)
		r_x_r3 := m.LoadF(t46)
		t47 := i_i
		if t47 < 0 || t47 >= d_L[0] {
			return m.OOB(t47, d_L[0], 0, "L", 9, 21)
		}
		t48 := i_i
		if t48 < 0 || t48 >= d_L[1] {
			return m.OOB(t48, d_L[1], 1, "L", 9, 21)
		}
		t49 := b_L + int((t47)*d_L[1]+t48)
		r_L_r2 := m.LoadF(t49)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t50 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t50
		t51 := i_i
		if t51 < 0 || t51 >= d_x[0] {
			return m.OOB(t51, d_x[0], 0, "x", 9, 7)
		}
		t52 := b_x + int(t51)
		m.StoreF(t52, r_x_w3)
	}
	return nil
}

func run_trisolv_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_x int, d_x []int64, b_b int, d_b []int64) error {
	t53 := p_n - int64(2)
	t54 := codegen.MinI(t53, int64(1))
	for i_i := int64(1); i_i <= t54; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t55 := i_i
		if t55 < 0 || t55 >= d_b[0] {
			return m.OOB(t55, d_b[0], 0, "b", 5, 14)
		}
		t56 := b_b + int(t55)
		r_b_r := m.LoadF(t56)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t57 := i_i
		if t57 < 0 || t57 >= d_x[0] {
			return m.OOB(t57, d_x[0], 0, "x", 5, 7)
		}
		t58 := b_x + int(t57)
		m.StoreF(t58, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), i_i)
		t59 := i_i - int64(1)
		for i_j := int64(0); i_j <= t59; i_j++ {
			if err := m.Tick(6, 3); err != nil {
				return err
			}
			t60 := i_i
			if t60 < 0 || t60 >= d_x[0] {
				return m.OOB(t60, d_x[0], 0, "x", 7, 16)
			}
			t61 := b_x + int(t60)
			r_x_r := m.LoadF(t61)
			t62 := i_i
			if t62 < 0 || t62 >= d_L[0] {
				return m.OOB(t62, d_L[0], 0, "L", 7, 23)
			}
			t63 := i_j
			if t63 < 0 || t63 >= d_L[1] {
				return m.OOB(t63, d_L[1], 1, "L", 7, 23)
			}
			t64 := b_L + int((t62)*d_L[1]+t63)
			r_L_r := m.LoadF(t64)
			t65 := i_j
			if t65 < 0 || t65 >= d_x[0] {
				return m.OOB(t65, d_x[0], 0, "x", 7, 33)
			}
			t66 := b_x + int(t65)
			r_x_r2 := m.LoadF(t66)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
			t67 := float64(r_L_r * r_x_r2)
			t68 := float64(r_x_r - t67)
			r_x_w2 := t68
			t69 := i_i
			if t69 < 0 || t69 >= d_x[0] {
				return m.OOB(t69, d_x[0], 0, "x", 7, 9)
			}
			t70 := b_x + int(t69)
			m.StoreF(t70, r_x_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
		}
		t71 := i_i
		if t71 < 0 || t71 >= d_x[0] {
			return m.OOB(t71, d_x[0], 0, "x", 9, 14)
		}
		t72 := b_x + int(t71)
		r_x_r3 := m.LoadF(t72)
		t73 := i_i
		if t73 < 0 || t73 >= d_L[0] {
			return m.OOB(t73, d_L[0], 0, "L", 9, 21)
		}
		t74 := i_i
		if t74 < 0 || t74 >= d_L[1] {
			return m.OOB(t74, d_L[1], 1, "L", 9, 21)
		}
		t75 := b_L + int((t73)*d_L[1]+t74)
		r_L_r2 := m.LoadF(t75)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t76 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t76
		t77 := i_i
		if t77 < 0 || t77 >= d_x[0] {
			return m.OOB(t77, d_x[0], 0, "x", 9, 7)
		}
		t78 := b_x + int(t77)
		m.StoreF(t78, r_x_w3)
		t79 := -i_i
		t80 := t79 + p_n
		t81 := t80 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w3), t81)
	}
	return nil
}

func run_trisolv_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_x int, d_x []int64, b_b int, d_b []int64) error {
	t82 := p_n - int64(1)
	t83 := codegen.MaxI(int64(1), t82)
	t84 := p_n - int64(1)
	t85 := codegen.MinI(t84, int64(1))
	for i_i := t83; i_i <= t85; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t86 := i_i
		if t86 < 0 || t86 >= d_b[0] {
			return m.OOB(t86, d_b[0], 0, "b", 5, 14)
		}
		t87 := b_b + int(t86)
		r_b_r := m.LoadF(t87)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t88 := i_i
		if t88 < 0 || t88 >= d_x[0] {
			return m.OOB(t88, d_x[0], 0, "x", 5, 7)
		}
		t89 := b_x + int(t88)
		m.StoreF(t89, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), i_i)
		t90 := i_i - int64(1)
		for i_j := int64(0); i_j <= t90; i_j++ {
			if err := m.Tick(6, 3); err != nil {
				return err
			}
			t91 := i_i
			if t91 < 0 || t91 >= d_x[0] {
				return m.OOB(t91, d_x[0], 0, "x", 7, 16)
			}
			t92 := b_x + int(t91)
			r_x_r := m.LoadF(t92)
			t93 := i_i
			if t93 < 0 || t93 >= d_L[0] {
				return m.OOB(t93, d_L[0], 0, "L", 7, 23)
			}
			t94 := i_j
			if t94 < 0 || t94 >= d_L[1] {
				return m.OOB(t94, d_L[1], 1, "L", 7, 23)
			}
			t95 := b_L + int((t93)*d_L[1]+t94)
			r_L_r := m.LoadF(t95)
			t96 := i_j
			if t96 < 0 || t96 >= d_x[0] {
				return m.OOB(t96, d_x[0], 0, "x", 7, 33)
			}
			t97 := b_x + int(t96)
			r_x_r2 := m.LoadF(t97)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
			t98 := float64(r_L_r * r_x_r2)
			t99 := float64(r_x_r - t98)
			r_x_w2 := t99
			t100 := i_i
			if t100 < 0 || t100 >= d_x[0] {
				return m.OOB(t100, d_x[0], 0, "x", 7, 9)
			}
			t101 := b_x + int(t100)
			m.StoreF(t101, r_x_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
		}
		t102 := i_i
		if t102 < 0 || t102 >= d_x[0] {
			return m.OOB(t102, d_x[0], 0, "x", 9, 14)
		}
		t103 := b_x + int(t102)
		r_x_r3 := m.LoadF(t103)
		t104 := i_i
		if t104 < 0 || t104 >= d_L[0] {
			return m.OOB(t104, d_L[0], 0, "L", 9, 21)
		}
		t105 := i_i
		if t105 < 0 || t105 >= d_L[1] {
			return m.OOB(t105, d_L[1], 1, "L", 9, 21)
		}
		t106 := b_L + int((t104)*d_L[1]+t105)
		r_L_r2 := m.LoadF(t106)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t107 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t107
		t108 := i_i
		if t108 < 0 || t108 >= d_x[0] {
			return m.OOB(t108, d_x[0], 0, "x", 9, 7)
		}
		t109 := b_x + int(t108)
		m.StoreF(t109, r_x_w3)
	}
	return nil
}

func run_trisolv_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, b_L int, d_L []int64, b_x int, d_x []int64, i_i int64) error {
	t115 := i_i - int64(3)
	for i_j := int64(0); i_j <= t115; i_j++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t116 := i_i
		if t116 < 0 || t116 >= d_x[0] {
			return m.OOB(t116, d_x[0], 0, "x", 7, 16)
		}
		t117 := b_x + int(t116)
		r_x_r := m.LoadF(t117)
		t118 := i_i
		if t118 < 0 || t118 >= d_L[0] {
			return m.OOB(t118, d_L[0], 0, "L", 7, 23)
		}
		t119 := i_j
		if t119 < 0 || t119 >= d_L[1] {
			return m.OOB(t119, d_L[1], 1, "L", 7, 23)
		}
		t120 := b_L + int((t118)*d_L[1]+t119)
		r_L_r := m.LoadF(t120)
		t121 := i_j
		if t121 < 0 || t121 >= d_x[0] {
			return m.OOB(t121, d_x[0], 0, "x", 7, 33)
		}
		t122 := b_x + int(t121)
		r_x_r2 := m.LoadF(t122)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
		t123 := float64(r_L_r * r_x_r2)
		t124 := float64(r_x_r - t123)
		r_x_w2 := t124
		t125 := i_i
		if t125 < 0 || t125 >= d_x[0] {
			return m.OOB(t125, d_x[0], 0, "x", 7, 9)
		}
		t126 := b_x + int(t125)
		m.StoreF(t126, r_x_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
	}
	return nil
}

func run_trisolv_resilientopt_n8(m *codegen.Machine, cs *checksum.Folds, b_L int, d_L []int64, b_x int, d_x []int64, i_i int64) error {
	t127 := i_i - int64(2)
	t128 := codegen.MaxI(int64(0), t127)
	t129 := i_i - int64(2)
	for i_j := t128; i_j <= t129; i_j++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t130 := i_i
		if t130 < 0 || t130 >= d_x[0] {
			return m.OOB(t130, d_x[0], 0, "x", 7, 16)
		}
		t131 := b_x + int(t130)
		r_x_r := m.LoadF(t131)
		t132 := i_i
		if t132 < 0 || t132 >= d_L[0] {
			return m.OOB(t132, d_L[0], 0, "L", 7, 23)
		}
		t133 := i_j
		if t133 < 0 || t133 >= d_L[1] {
			return m.OOB(t133, d_L[1], 1, "L", 7, 23)
		}
		t134 := b_L + int((t132)*d_L[1]+t133)
		r_L_r := m.LoadF(t134)
		t135 := i_j
		if t135 < 0 || t135 >= d_x[0] {
			return m.OOB(t135, d_x[0], 0, "x", 7, 33)
		}
		t136 := b_x + int(t135)
		r_x_r2 := m.LoadF(t136)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
		t137 := float64(r_L_r * r_x_r2)
		t138 := float64(r_x_r - t137)
		r_x_w2 := t138
		t139 := i_i
		if t139 < 0 || t139 >= d_x[0] {
			return m.OOB(t139, d_x[0], 0, "x", 7, 9)
		}
		t140 := b_x + int(t139)
		m.StoreF(t140, r_x_w2)
		t141 := i_i - i_j
		t142 := t141 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), t142)
	}
	return nil
}

func run_trisolv_resilientopt_n9(m *codegen.Machine, cs *checksum.Folds, b_L int, d_L []int64, b_x int, d_x []int64, i_i int64) error {
	t143 := i_i - int64(1)
	t144 := codegen.MaxI(int64(0), t143)
	t145 := i_i - int64(1)
	for i_j := t144; i_j <= t145; i_j++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t146 := i_i
		if t146 < 0 || t146 >= d_x[0] {
			return m.OOB(t146, d_x[0], 0, "x", 7, 16)
		}
		t147 := b_x + int(t146)
		r_x_r := m.LoadF(t147)
		t148 := i_i
		if t148 < 0 || t148 >= d_L[0] {
			return m.OOB(t148, d_L[0], 0, "L", 7, 23)
		}
		t149 := i_j
		if t149 < 0 || t149 >= d_L[1] {
			return m.OOB(t149, d_L[1], 1, "L", 7, 23)
		}
		t150 := b_L + int((t148)*d_L[1]+t149)
		r_L_r := m.LoadF(t150)
		t151 := i_j
		if t151 < 0 || t151 >= d_x[0] {
			return m.OOB(t151, d_x[0], 0, "x", 7, 33)
		}
		t152 := b_x + int(t151)
		r_x_r2 := m.LoadF(t152)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
		t153 := float64(r_L_r * r_x_r2)
		t154 := float64(r_x_r - t153)
		r_x_w2 := t154
		t155 := i_i
		if t155 < 0 || t155 >= d_x[0] {
			return m.OOB(t155, d_x[0], 0, "x", 7, 9)
		}
		t156 := b_x + int(t155)
		m.StoreF(t156, r_x_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
	}
	return nil
}

func run_trisolv_resilientopt_n10(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_x int, d_x []int64, b_b int, d_b []int64) error {
	t168 := p_n - int64(1)
	t169 := codegen.MaxI(int64(2), t168)
	t170 := p_n - int64(1)
	for i_i := t169; i_i <= t170; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t171 := i_i
		if t171 < 0 || t171 >= d_b[0] {
			return m.OOB(t171, d_b[0], 0, "b", 5, 14)
		}
		t172 := b_b + int(t171)
		r_b_r := m.LoadF(t172)
		cs.Fold(checksum.AccUse, math.Float64bits(r_b_r), int64(1))
		r_x_w := r_b_r
		t173 := i_i
		if t173 < 0 || t173 >= d_x[0] {
			return m.OOB(t173, d_x[0], 0, "x", 5, 7)
		}
		t174 := b_x + int(t173)
		m.StoreF(t174, r_x_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_x_w), int64(1))
		t175 := i_i - int64(3)
		for i_j := int64(0); i_j <= t175; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t176 := i_i
			if t176 < 0 || t176 >= d_x[0] {
				return m.OOB(t176, d_x[0], 0, "x", 7, 16)
			}
			t177 := b_x + int(t176)
			r_x_r := m.LoadF(t177)
			t178 := i_i
			if t178 < 0 || t178 >= d_L[0] {
				return m.OOB(t178, d_L[0], 0, "L", 7, 23)
			}
			t179 := i_j
			if t179 < 0 || t179 >= d_L[1] {
				return m.OOB(t179, d_L[1], 1, "L", 7, 23)
			}
			t180 := b_L + int((t178)*d_L[1]+t179)
			r_L_r := m.LoadF(t180)
			t181 := i_j
			if t181 < 0 || t181 >= d_x[0] {
				return m.OOB(t181, d_x[0], 0, "x", 7, 33)
			}
			t182 := b_x + int(t181)
			r_x_r2 := m.LoadF(t182)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
			t183 := float64(r_L_r * r_x_r2)
			t184 := float64(r_x_r - t183)
			r_x_w2 := t184
			t185 := i_i
			if t185 < 0 || t185 >= d_x[0] {
				return m.OOB(t185, d_x[0], 0, "x", 7, 9)
			}
			t186 := b_x + int(t185)
			m.StoreF(t186, r_x_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
		}
		t187 := i_i - int64(2)
		t188 := codegen.MaxI(int64(0), t187)
		t189 := i_i - int64(2)
		for i_j := t188; i_j <= t189; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t190 := i_i
			if t190 < 0 || t190 >= d_x[0] {
				return m.OOB(t190, d_x[0], 0, "x", 7, 16)
			}
			t191 := b_x + int(t190)
			r_x_r := m.LoadF(t191)
			t192 := i_i
			if t192 < 0 || t192 >= d_L[0] {
				return m.OOB(t192, d_L[0], 0, "L", 7, 23)
			}
			t193 := i_j
			if t193 < 0 || t193 >= d_L[1] {
				return m.OOB(t193, d_L[1], 1, "L", 7, 23)
			}
			t194 := b_L + int((t192)*d_L[1]+t193)
			r_L_r := m.LoadF(t194)
			t195 := i_j
			if t195 < 0 || t195 >= d_x[0] {
				return m.OOB(t195, d_x[0], 0, "x", 7, 33)
			}
			t196 := b_x + int(t195)
			r_x_r2 := m.LoadF(t196)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
			t197 := float64(r_L_r * r_x_r2)
			t198 := float64(r_x_r - t197)
			r_x_w2 := t198
			t199 := i_i
			if t199 < 0 || t199 >= d_x[0] {
				return m.OOB(t199, d_x[0], 0, "x", 7, 9)
			}
			t200 := b_x + int(t199)
			m.StoreF(t200, r_x_w2)
			t201 := i_i - i_j
			t202 := t201 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), t202)
		}
		t203 := i_i - int64(1)
		t204 := codegen.MaxI(int64(0), t203)
		t205 := i_i - int64(1)
		for i_j := t204; i_j <= t205; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t206 := i_i
			if t206 < 0 || t206 >= d_x[0] {
				return m.OOB(t206, d_x[0], 0, "x", 7, 16)
			}
			t207 := b_x + int(t206)
			r_x_r := m.LoadF(t207)
			t208 := i_i
			if t208 < 0 || t208 >= d_L[0] {
				return m.OOB(t208, d_L[0], 0, "L", 7, 23)
			}
			t209 := i_j
			if t209 < 0 || t209 >= d_L[1] {
				return m.OOB(t209, d_L[1], 1, "L", 7, 23)
			}
			t210 := b_L + int((t208)*d_L[1]+t209)
			r_L_r := m.LoadF(t210)
			t211 := i_j
			if t211 < 0 || t211 >= d_x[0] {
				return m.OOB(t211, d_x[0], 0, "x", 7, 33)
			}
			t212 := b_x + int(t211)
			r_x_r2 := m.LoadF(t212)
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_x_r2), int64(1))
			t213 := float64(r_L_r * r_x_r2)
			t214 := float64(r_x_r - t213)
			r_x_w2 := t214
			t215 := i_i
			if t215 < 0 || t215 >= d_x[0] {
				return m.OOB(t215, d_x[0], 0, "x", 7, 9)
			}
			t216 := b_x + int(t215)
			m.StoreF(t216, r_x_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_x_w2), int64(1))
		}
		t217 := i_i
		if t217 < 0 || t217 >= d_x[0] {
			return m.OOB(t217, d_x[0], 0, "x", 9, 14)
		}
		t218 := b_x + int(t217)
		r_x_r3 := m.LoadF(t218)
		t219 := i_i
		if t219 < 0 || t219 >= d_L[0] {
			return m.OOB(t219, d_L[0], 0, "L", 9, 21)
		}
		t220 := i_i
		if t220 < 0 || t220 >= d_L[1] {
			return m.OOB(t220, d_L[1], 1, "L", 9, 21)
		}
		t221 := b_L + int((t219)*d_L[1]+t220)
		r_L_r2 := m.LoadF(t221)
		cs.Fold(checksum.AccUse, math.Float64bits(r_x_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 19)
		}
		t222 := float64(r_x_r3 / r_L_r2)
		r_x_w3 := t222
		t223 := i_i
		if t223 < 0 || t223 >= d_x[0] {
			return m.OOB(t223, d_x[0], 0, "x", 9, 7)
		}
		t224 := b_x + int(t223)
		m.StoreF(t224, r_x_w3)
	}
	return nil
}
