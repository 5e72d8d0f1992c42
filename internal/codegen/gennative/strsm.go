// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_strsm_original executes the Original variant of the strsm benchmark natively.
func run_strsm_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_m := m.Param("m")
	b_L, d_L := m.Var("L")
	b_B, d_B := m.Var("B")
	if epoch == 0 {
		t1 := p_m - int64(1)
		m.SetBounds(int64(0), t1)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_j := start; i_j <= end; i_j++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		t2 := p_n - int64(1)
		for i_i := int64(0); i_i <= t2; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t3 := i_i - int64(1)
			for i_k := int64(0); i_k <= t3; i_k++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t4 := i_i
				if t4 < 0 || t4 >= d_B[0] {
					return m.OOB(t4, d_B[0], 0, "B", 7, 21)
				}
				t5 := i_j
				if t5 < 0 || t5 >= d_B[1] {
					return m.OOB(t5, d_B[1], 1, "B", 7, 21)
				}
				t6 := b_B + int((t4)*d_B[1]+t5)
				t7 := m.LoadF(t6)
				t8 := i_i
				if t8 < 0 || t8 >= d_L[0] {
					return m.OOB(t8, d_L[0], 0, "L", 7, 31)
				}
				t9 := i_k
				if t9 < 0 || t9 >= d_L[1] {
					return m.OOB(t9, d_L[1], 1, "L", 7, 31)
				}
				t10 := b_L + int((t8)*d_L[1]+t9)
				t11 := m.LoadF(t10)
				t12 := i_k
				if t12 < 0 || t12 >= d_B[0] {
					return m.OOB(t12, d_B[0], 0, "B", 7, 41)
				}
				t13 := i_j
				if t13 < 0 || t13 >= d_B[1] {
					return m.OOB(t13, d_B[1], 1, "B", 7, 41)
				}
				t14 := b_B + int((t12)*d_B[1]+t13)
				t15 := m.LoadF(t14)
				t16 := float64(t11 * t15)
				t17 := float64(t7 - t16)
				t18 := i_i
				if t18 < 0 || t18 >= d_B[0] {
					return m.OOB(t18, d_B[0], 0, "B", 7, 11)
				}
				t19 := i_j
				if t19 < 0 || t19 >= d_B[1] {
					return m.OOB(t19, d_B[1], 1, "B", 7, 11)
				}
				t20 := b_B + int((t18)*d_B[1]+t19)
				m.StoreF(t20, t17)
			}
			t21 := i_i
			if t21 < 0 || t21 >= d_B[0] {
				return m.OOB(t21, d_B[0], 0, "B", 9, 19)
			}
			t22 := i_j
			if t22 < 0 || t22 >= d_B[1] {
				return m.OOB(t22, d_B[1], 1, "B", 9, 19)
			}
			t23 := b_B + int((t21)*d_B[1]+t22)
			t24 := m.LoadF(t23)
			t25 := i_i
			if t25 < 0 || t25 >= d_L[0] {
				return m.OOB(t25, d_L[0], 0, "L", 9, 29)
			}
			t26 := i_i
			if t26 < 0 || t26 >= d_L[1] {
				return m.OOB(t26, d_L[1], 1, "L", 9, 29)
			}
			t27 := b_L + int((t25)*d_L[1]+t26)
			t28 := m.LoadF(t27)
			if t28 == 0 {
				return m.DivZero(9, 27)
			}
			t29 := float64(t24 / t28)
			t30 := i_i
			if t30 < 0 || t30 >= d_B[0] {
				return m.OOB(t30, d_B[0], 0, "B", 9, 9)
			}
			t31 := i_j
			if t31 < 0 || t31 >= d_B[1] {
				return m.OOB(t31, d_B[1], 1, "B", 9, 9)
			}
			t32 := b_B + int((t30)*d_B[1]+t31)
			m.StoreF(t32, t29)
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_strsm_resilient executes the Resilient variant of the strsm benchmark natively.
func run_strsm_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_m := m.Param("m")
	b_L, d_L := m.Var("L")
	b_B, d_B := m.Var("B")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_strsm_resilient_n1(m, &cs, p_n, p_m, b_L, d_L); err != nil {
			return err
		}
		if err := run_strsm_resilient_n2(m, &cs, p_n, p_m, b_B, d_B); err != nil {
			return err
		}
		t38 := p_m - int64(1)
		m.SetBounds(int64(0), t38)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_j := start; i_j <= end; i_j++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		if err := run_strsm_resilient_n3(m, &cs, p_n, b_L, d_L, b_B, d_B, i_j); err != nil {
			return err
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

func run_strsm_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_L int, d_L []int64) error {
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
			t4 := i_li0 - i_li1
			t5 := t4 - int64(1)
			t3 := t5 >= int64(0)
			if t3 {
				t6 := p_m - int64(1)
				t3 = t6 >= int64(0)
			}
			if t3 {
				t7 := i_li0
				if t7 < 0 || t7 >= d_L[0] {
					return m.OOB(t7, d_L[0], 0, "L", 0, 0)
				}
				t8 := i_li1
				if t8 < 0 || t8 >= d_L[1] {
					return m.OOB(t8, d_L[1], 1, "L", 0, 0)
				}
				t9 := b_L + int((t7)*d_L[1]+t8)
				t10 := m.LoadF(t9)
				cs.Fold(checksum.AccDef, math.Float64bits(t10), p_m)
			}
			t12 := i_li0 - i_li1
			t11 := t12 == int64(0)
			if t11 {
				t13 := p_m - int64(1)
				t11 = t13 >= int64(0)
			}
			if t11 {
				t14 := i_li0
				if t14 < 0 || t14 >= d_L[0] {
					return m.OOB(t14, d_L[0], 0, "L", 0, 0)
				}
				t15 := i_li1
				if t15 < 0 || t15 >= d_L[1] {
					return m.OOB(t15, d_L[1], 1, "L", 0, 0)
				}
				t16 := b_L + int((t14)*d_L[1]+t15)
				t17 := m.LoadF(t16)
				cs.Fold(checksum.AccDef, math.Float64bits(t17), p_m)
			}
		}
	}
	return nil
}

func run_strsm_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_B int, d_B []int64) error {
	t18 := p_n - int64(1)
	for i_li02 := int64(0); i_li02 <= t18; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t19 := p_m - int64(1)
		for i_li12 := int64(0); i_li12 <= t19; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t21 := i_li02 - int64(1)
			t20 := t21 >= int64(0)
			if t20 {
				t22 := -i_li02
				t23 := t22 + int64(1)
				t20 = t23 >= int64(0)
			}
			if t20 {
				t24 := i_li02
				if t24 < 0 || t24 >= d_B[0] {
					return m.OOB(t24, d_B[0], 0, "B", 0, 0)
				}
				t25 := i_li12
				if t25 < 0 || t25 >= d_B[1] {
					return m.OOB(t25, d_B[1], 1, "B", 0, 0)
				}
				t26 := b_B + int((t24)*d_B[1]+t25)
				t27 := m.LoadF(t26)
				cs.Fold(checksum.AccDef, math.Float64bits(t27), i_li02)
			}
			t28 := i_li02 - int64(2)
			if t28 >= int64(0) {
				t29 := i_li02
				if t29 < 0 || t29 >= d_B[0] {
					return m.OOB(t29, d_B[0], 0, "B", 0, 0)
				}
				t30 := i_li12
				if t30 < 0 || t30 >= d_B[1] {
					return m.OOB(t30, d_B[1], 1, "B", 0, 0)
				}
				t31 := b_B + int((t29)*d_B[1]+t30)
				t32 := m.LoadF(t31)
				cs.Fold(checksum.AccDef, math.Float64bits(t32), int64(1))
			}
			t33 := -i_li02
			if t33 >= int64(0) {
				t34 := i_li02
				if t34 < 0 || t34 >= d_B[0] {
					return m.OOB(t34, d_B[0], 0, "B", 0, 0)
				}
				t35 := i_li12
				if t35 < 0 || t35 >= d_B[1] {
					return m.OOB(t35, d_B[1], 1, "B", 0, 0)
				}
				t36 := b_B + int((t34)*d_B[1]+t35)
				t37 := m.LoadF(t36)
				cs.Fold(checksum.AccDef, math.Float64bits(t37), int64(1))
			}
		}
	}
	return nil
}

func run_strsm_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_B int, d_B []int64, i_j int64) error {
	t39 := p_n - int64(1)
	for i_i := int64(0); i_i <= t39; i_i++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t40 := i_i - int64(1)
		for i_k := int64(0); i_k <= t40; i_k++ {
			if err := m.Tick(6, 5); err != nil {
				return err
			}
			t41 := i_i
			if t41 < 0 || t41 >= d_B[0] {
				return m.OOB(t41, d_B[0], 0, "B", 7, 21)
			}
			t42 := i_j
			if t42 < 0 || t42 >= d_B[1] {
				return m.OOB(t42, d_B[1], 1, "B", 7, 21)
			}
			t43 := b_B + int((t41)*d_B[1]+t42)
			r_B_r := m.LoadF(t43)
			t44 := i_i
			if t44 < 0 || t44 >= d_L[0] {
				return m.OOB(t44, d_L[0], 0, "L", 7, 31)
			}
			t45 := i_k
			if t45 < 0 || t45 >= d_L[1] {
				return m.OOB(t45, d_L[1], 1, "L", 7, 31)
			}
			t46 := b_L + int((t44)*d_L[1]+t45)
			r_L_r := m.LoadF(t46)
			t47 := i_k
			if t47 < 0 || t47 >= d_B[0] {
				return m.OOB(t47, d_B[0], 0, "B", 7, 41)
			}
			t48 := i_j
			if t48 < 0 || t48 >= d_B[1] {
				return m.OOB(t48, d_B[1], 1, "B", 7, 41)
			}
			t49 := b_B + int((t47)*d_B[1]+t48)
			r_B_r2 := m.LoadF(t49)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t50 := float64(r_L_r * r_B_r2)
			t51 := float64(r_B_r - t50)
			r_B_w := t51
			t52 := i_i
			if t52 < 0 || t52 >= d_B[0] {
				return m.OOB(t52, d_B[0], 0, "B", 7, 11)
			}
			t53 := i_j
			if t53 < 0 || t53 >= d_B[1] {
				return m.OOB(t53, d_B[1], 1, "B", 7, 11)
			}
			t54 := b_B + int((t52)*d_B[1]+t53)
			m.StoreF(t54, r_B_w)
			t56 := i_i - i_k
			t57 := t56 - int64(2)
			t55 := t57 >= int64(0)
			if t55 {
				t58 := -i_i
				t59 := t58 + i_k
				t60 := t59 + int64(2)
				t55 = t60 >= int64(0)
			}
			if t55 {
				t61 := i_i - i_k
				t62 := t61 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t62)
			}
			t63 := i_i - i_k
			t64 := t63 - int64(3)
			if t64 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			}
			t65 := -i_i
			t66 := t65 + i_k
			t67 := t66 + int64(1)
			if t67 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			}
		}
		t68 := i_i
		if t68 < 0 || t68 >= d_B[0] {
			return m.OOB(t68, d_B[0], 0, "B", 9, 19)
		}
		t69 := i_j
		if t69 < 0 || t69 >= d_B[1] {
			return m.OOB(t69, d_B[1], 1, "B", 9, 19)
		}
		t70 := b_B + int((t68)*d_B[1]+t69)
		r_B_r3 := m.LoadF(t70)
		t71 := i_i
		if t71 < 0 || t71 >= d_L[0] {
			return m.OOB(t71, d_L[0], 0, "L", 9, 29)
		}
		t72 := i_i
		if t72 < 0 || t72 >= d_L[1] {
			return m.OOB(t72, d_L[1], 1, "L", 9, 29)
		}
		t73 := b_L + int((t71)*d_L[1]+t72)
		r_L_r2 := m.LoadF(t73)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 27)
		}
		t74 := float64(r_B_r3 / r_L_r2)
		r_B_w2 := t74
		t75 := i_i
		if t75 < 0 || t75 >= d_B[0] {
			return m.OOB(t75, d_B[0], 0, "B", 9, 9)
		}
		t76 := i_j
		if t76 < 0 || t76 >= d_B[1] {
			return m.OOB(t76, d_B[1], 1, "B", 9, 9)
		}
		t77 := b_B + int((t75)*d_B[1]+t76)
		m.StoreF(t77, r_B_w2)
		t78 := -i_i
		t79 := t78 + p_n
		t80 := t79 - int64(2)
		if t80 >= int64(0) {
			t81 := -i_i
			t82 := t81 + p_n
			t83 := t82 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t83)
		}
	}
	return nil
}

// run_strsm_resilientopt executes the Resilient-Optimized variant of the strsm benchmark natively.
func run_strsm_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_m := m.Param("m")
	b_L, d_L := m.Var("L")
	b_B, d_B := m.Var("B")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_strsm_resilientopt_n1(m, &cs, p_n, p_m, b_L, d_L); err != nil {
			return err
		}
		if err := run_strsm_resilientopt_n2(m, &cs, p_n, p_m, b_B, d_B); err != nil {
			return err
		}
		if err := run_strsm_resilientopt_n3(m, &cs, p_n, p_m, b_B, d_B); err != nil {
			return err
		}
		if err := run_strsm_resilientopt_n4(m, &cs, p_n, p_m, b_B, d_B); err != nil {
			return err
		}
		t39 := p_m - int64(1)
		m.SetBounds(int64(0), t39)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_j := start; i_j <= end; i_j++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		if err := run_strsm_resilientopt_n5(m, &cs, p_n, b_L, d_L, b_B, d_B, i_j); err != nil {
			return err
		}
		if err := run_strsm_resilientopt_n6(m, &cs, p_n, b_L, d_L, b_B, d_B, i_j); err != nil {
			return err
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

func run_strsm_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_L int, d_L []int64) error {
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
			t5 := p_m - int64(1)
			if t5 >= int64(0) {
				t6 := i_li0
				if t6 < 0 || t6 >= d_L[0] {
					return m.OOB(t6, d_L[0], 0, "L", 0, 0)
				}
				t7 := i_li1
				if t7 < 0 || t7 >= d_L[1] {
					return m.OOB(t7, d_L[1], 1, "L", 0, 0)
				}
				t8 := b_L + int((t6)*d_L[1]+t7)
				t9 := m.LoadF(t8)
				cs.Fold(checksum.AccDef, math.Float64bits(t9), p_m)
			}
		}
		t10 := codegen.MaxI(int64(0), i_li0)
		t11 := p_n - int64(1)
		for i_li1 := t10; i_li1 <= t11; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t13 := i_li0 - i_li1
			t12 := t13 == int64(0)
			if t12 {
				t14 := p_m - int64(1)
				t12 = t14 >= int64(0)
			}
			if t12 {
				t15 := i_li0
				if t15 < 0 || t15 >= d_L[0] {
					return m.OOB(t15, d_L[0], 0, "L", 0, 0)
				}
				t16 := i_li1
				if t16 < 0 || t16 >= d_L[1] {
					return m.OOB(t16, d_L[1], 1, "L", 0, 0)
				}
				t17 := b_L + int((t15)*d_L[1]+t16)
				t18 := m.LoadF(t17)
				cs.Fold(checksum.AccDef, math.Float64bits(t18), p_m)
			}
		}
	}
	return nil
}

func run_strsm_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_B int, d_B []int64) error {
	t19 := p_n - int64(1)
	t20 := codegen.MinI(t19, int64(0))
	for i_li02 := int64(0); i_li02 <= t20; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t21 := p_m - int64(1)
		for i_li12 := int64(0); i_li12 <= t21; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t22 := i_li02
			if t22 < 0 || t22 >= d_B[0] {
				return m.OOB(t22, d_B[0], 0, "B", 0, 0)
			}
			t23 := i_li12
			if t23 < 0 || t23 >= d_B[1] {
				return m.OOB(t23, d_B[1], 1, "B", 0, 0)
			}
			t24 := b_B + int((t22)*d_B[1]+t23)
			t25 := m.LoadF(t24)
			cs.Fold(checksum.AccDef, math.Float64bits(t25), int64(1))
		}
	}
	return nil
}

func run_strsm_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_B int, d_B []int64) error {
	t26 := p_n - int64(1)
	t27 := codegen.MinI(t26, int64(1))
	for i_li02 := int64(1); i_li02 <= t27; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t28 := p_m - int64(1)
		for i_li12 := int64(0); i_li12 <= t28; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t29 := i_li02
			if t29 < 0 || t29 >= d_B[0] {
				return m.OOB(t29, d_B[0], 0, "B", 0, 0)
			}
			t30 := i_li12
			if t30 < 0 || t30 >= d_B[1] {
				return m.OOB(t30, d_B[1], 1, "B", 0, 0)
			}
			t31 := b_B + int((t29)*d_B[1]+t30)
			t32 := m.LoadF(t31)
			cs.Fold(checksum.AccDef, math.Float64bits(t32), i_li02)
		}
	}
	return nil
}

func run_strsm_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_B int, d_B []int64) error {
	t33 := p_n - int64(1)
	for i_li02 := int64(2); i_li02 <= t33; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t34 := p_m - int64(1)
		for i_li12 := int64(0); i_li12 <= t34; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t35 := i_li02
			if t35 < 0 || t35 >= d_B[0] {
				return m.OOB(t35, d_B[0], 0, "B", 0, 0)
			}
			t36 := i_li12
			if t36 < 0 || t36 >= d_B[1] {
				return m.OOB(t36, d_B[1], 1, "B", 0, 0)
			}
			t37 := b_B + int((t35)*d_B[1]+t36)
			t38 := m.LoadF(t37)
			cs.Fold(checksum.AccDef, math.Float64bits(t38), int64(1))
		}
	}
	return nil
}

func run_strsm_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_B int, d_B []int64, i_j int64) error {
	t40 := p_n - int64(2)
	for i_i := int64(0); i_i <= t40; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t41 := i_i - int64(3)
		for i_k := int64(0); i_k <= t41; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t42 := i_i
			if t42 < 0 || t42 >= d_B[0] {
				return m.OOB(t42, d_B[0], 0, "B", 7, 21)
			}
			t43 := i_j
			if t43 < 0 || t43 >= d_B[1] {
				return m.OOB(t43, d_B[1], 1, "B", 7, 21)
			}
			t44 := b_B + int((t42)*d_B[1]+t43)
			r_B_r := m.LoadF(t44)
			t45 := i_i
			if t45 < 0 || t45 >= d_L[0] {
				return m.OOB(t45, d_L[0], 0, "L", 7, 31)
			}
			t46 := i_k
			if t46 < 0 || t46 >= d_L[1] {
				return m.OOB(t46, d_L[1], 1, "L", 7, 31)
			}
			t47 := b_L + int((t45)*d_L[1]+t46)
			r_L_r := m.LoadF(t47)
			t48 := i_k
			if t48 < 0 || t48 >= d_B[0] {
				return m.OOB(t48, d_B[0], 0, "B", 7, 41)
			}
			t49 := i_j
			if t49 < 0 || t49 >= d_B[1] {
				return m.OOB(t49, d_B[1], 1, "B", 7, 41)
			}
			t50 := b_B + int((t48)*d_B[1]+t49)
			r_B_r2 := m.LoadF(t50)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t51 := float64(r_L_r * r_B_r2)
			t52 := float64(r_B_r - t51)
			r_B_w := t52
			t53 := i_i
			if t53 < 0 || t53 >= d_B[0] {
				return m.OOB(t53, d_B[0], 0, "B", 7, 11)
			}
			t54 := i_j
			if t54 < 0 || t54 >= d_B[1] {
				return m.OOB(t54, d_B[1], 1, "B", 7, 11)
			}
			t55 := b_B + int((t53)*d_B[1]+t54)
			m.StoreF(t55, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t56 := i_i - int64(2)
		t57 := codegen.MaxI(int64(0), t56)
		t58 := i_i - int64(2)
		for i_k := t57; i_k <= t58; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t59 := i_i
			if t59 < 0 || t59 >= d_B[0] {
				return m.OOB(t59, d_B[0], 0, "B", 7, 21)
			}
			t60 := i_j
			if t60 < 0 || t60 >= d_B[1] {
				return m.OOB(t60, d_B[1], 1, "B", 7, 21)
			}
			t61 := b_B + int((t59)*d_B[1]+t60)
			r_B_r := m.LoadF(t61)
			t62 := i_i
			if t62 < 0 || t62 >= d_L[0] {
				return m.OOB(t62, d_L[0], 0, "L", 7, 31)
			}
			t63 := i_k
			if t63 < 0 || t63 >= d_L[1] {
				return m.OOB(t63, d_L[1], 1, "L", 7, 31)
			}
			t64 := b_L + int((t62)*d_L[1]+t63)
			r_L_r := m.LoadF(t64)
			t65 := i_k
			if t65 < 0 || t65 >= d_B[0] {
				return m.OOB(t65, d_B[0], 0, "B", 7, 41)
			}
			t66 := i_j
			if t66 < 0 || t66 >= d_B[1] {
				return m.OOB(t66, d_B[1], 1, "B", 7, 41)
			}
			t67 := b_B + int((t65)*d_B[1]+t66)
			r_B_r2 := m.LoadF(t67)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t68 := float64(r_L_r * r_B_r2)
			t69 := float64(r_B_r - t68)
			r_B_w := t69
			t70 := i_i
			if t70 < 0 || t70 >= d_B[0] {
				return m.OOB(t70, d_B[0], 0, "B", 7, 11)
			}
			t71 := i_j
			if t71 < 0 || t71 >= d_B[1] {
				return m.OOB(t71, d_B[1], 1, "B", 7, 11)
			}
			t72 := b_B + int((t70)*d_B[1]+t71)
			m.StoreF(t72, r_B_w)
			t73 := i_i - i_k
			t74 := t73 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t74)
		}
		t75 := i_i - int64(1)
		t76 := codegen.MaxI(int64(0), t75)
		t77 := i_i - int64(1)
		for i_k := t76; i_k <= t77; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t78 := i_i
			if t78 < 0 || t78 >= d_B[0] {
				return m.OOB(t78, d_B[0], 0, "B", 7, 21)
			}
			t79 := i_j
			if t79 < 0 || t79 >= d_B[1] {
				return m.OOB(t79, d_B[1], 1, "B", 7, 21)
			}
			t80 := b_B + int((t78)*d_B[1]+t79)
			r_B_r := m.LoadF(t80)
			t81 := i_i
			if t81 < 0 || t81 >= d_L[0] {
				return m.OOB(t81, d_L[0], 0, "L", 7, 31)
			}
			t82 := i_k
			if t82 < 0 || t82 >= d_L[1] {
				return m.OOB(t82, d_L[1], 1, "L", 7, 31)
			}
			t83 := b_L + int((t81)*d_L[1]+t82)
			r_L_r := m.LoadF(t83)
			t84 := i_k
			if t84 < 0 || t84 >= d_B[0] {
				return m.OOB(t84, d_B[0], 0, "B", 7, 41)
			}
			t85 := i_j
			if t85 < 0 || t85 >= d_B[1] {
				return m.OOB(t85, d_B[1], 1, "B", 7, 41)
			}
			t86 := b_B + int((t84)*d_B[1]+t85)
			r_B_r2 := m.LoadF(t86)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t87 := float64(r_L_r * r_B_r2)
			t88 := float64(r_B_r - t87)
			r_B_w := t88
			t89 := i_i
			if t89 < 0 || t89 >= d_B[0] {
				return m.OOB(t89, d_B[0], 0, "B", 7, 11)
			}
			t90 := i_j
			if t90 < 0 || t90 >= d_B[1] {
				return m.OOB(t90, d_B[1], 1, "B", 7, 11)
			}
			t91 := b_B + int((t89)*d_B[1]+t90)
			m.StoreF(t91, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t92 := i_i
		if t92 < 0 || t92 >= d_B[0] {
			return m.OOB(t92, d_B[0], 0, "B", 9, 19)
		}
		t93 := i_j
		if t93 < 0 || t93 >= d_B[1] {
			return m.OOB(t93, d_B[1], 1, "B", 9, 19)
		}
		t94 := b_B + int((t92)*d_B[1]+t93)
		r_B_r3 := m.LoadF(t94)
		t95 := i_i
		if t95 < 0 || t95 >= d_L[0] {
			return m.OOB(t95, d_L[0], 0, "L", 9, 29)
		}
		t96 := i_i
		if t96 < 0 || t96 >= d_L[1] {
			return m.OOB(t96, d_L[1], 1, "L", 9, 29)
		}
		t97 := b_L + int((t95)*d_L[1]+t96)
		r_L_r2 := m.LoadF(t97)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 27)
		}
		t98 := float64(r_B_r3 / r_L_r2)
		r_B_w2 := t98
		t99 := i_i
		if t99 < 0 || t99 >= d_B[0] {
			return m.OOB(t99, d_B[0], 0, "B", 9, 9)
		}
		t100 := i_j
		if t100 < 0 || t100 >= d_B[1] {
			return m.OOB(t100, d_B[1], 1, "B", 9, 9)
		}
		t101 := b_B + int((t99)*d_B[1]+t100)
		m.StoreF(t101, r_B_w2)
		t102 := -i_i
		t103 := t102 + p_n
		t104 := t103 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t104)
	}
	return nil
}

func run_strsm_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_L int, d_L []int64, b_B int, d_B []int64, i_j int64) error {
	t105 := p_n - int64(1)
	t106 := codegen.MaxI(int64(0), t105)
	t107 := p_n - int64(1)
	for i_i := t106; i_i <= t107; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t108 := i_i - int64(3)
		for i_k := int64(0); i_k <= t108; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t109 := i_i
			if t109 < 0 || t109 >= d_B[0] {
				return m.OOB(t109, d_B[0], 0, "B", 7, 21)
			}
			t110 := i_j
			if t110 < 0 || t110 >= d_B[1] {
				return m.OOB(t110, d_B[1], 1, "B", 7, 21)
			}
			t111 := b_B + int((t109)*d_B[1]+t110)
			r_B_r := m.LoadF(t111)
			t112 := i_i
			if t112 < 0 || t112 >= d_L[0] {
				return m.OOB(t112, d_L[0], 0, "L", 7, 31)
			}
			t113 := i_k
			if t113 < 0 || t113 >= d_L[1] {
				return m.OOB(t113, d_L[1], 1, "L", 7, 31)
			}
			t114 := b_L + int((t112)*d_L[1]+t113)
			r_L_r := m.LoadF(t114)
			t115 := i_k
			if t115 < 0 || t115 >= d_B[0] {
				return m.OOB(t115, d_B[0], 0, "B", 7, 41)
			}
			t116 := i_j
			if t116 < 0 || t116 >= d_B[1] {
				return m.OOB(t116, d_B[1], 1, "B", 7, 41)
			}
			t117 := b_B + int((t115)*d_B[1]+t116)
			r_B_r2 := m.LoadF(t117)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t118 := float64(r_L_r * r_B_r2)
			t119 := float64(r_B_r - t118)
			r_B_w := t119
			t120 := i_i
			if t120 < 0 || t120 >= d_B[0] {
				return m.OOB(t120, d_B[0], 0, "B", 7, 11)
			}
			t121 := i_j
			if t121 < 0 || t121 >= d_B[1] {
				return m.OOB(t121, d_B[1], 1, "B", 7, 11)
			}
			t122 := b_B + int((t120)*d_B[1]+t121)
			m.StoreF(t122, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t123 := i_i - int64(2)
		t124 := codegen.MaxI(int64(0), t123)
		t125 := i_i - int64(2)
		for i_k := t124; i_k <= t125; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t126 := i_i
			if t126 < 0 || t126 >= d_B[0] {
				return m.OOB(t126, d_B[0], 0, "B", 7, 21)
			}
			t127 := i_j
			if t127 < 0 || t127 >= d_B[1] {
				return m.OOB(t127, d_B[1], 1, "B", 7, 21)
			}
			t128 := b_B + int((t126)*d_B[1]+t127)
			r_B_r := m.LoadF(t128)
			t129 := i_i
			if t129 < 0 || t129 >= d_L[0] {
				return m.OOB(t129, d_L[0], 0, "L", 7, 31)
			}
			t130 := i_k
			if t130 < 0 || t130 >= d_L[1] {
				return m.OOB(t130, d_L[1], 1, "L", 7, 31)
			}
			t131 := b_L + int((t129)*d_L[1]+t130)
			r_L_r := m.LoadF(t131)
			t132 := i_k
			if t132 < 0 || t132 >= d_B[0] {
				return m.OOB(t132, d_B[0], 0, "B", 7, 41)
			}
			t133 := i_j
			if t133 < 0 || t133 >= d_B[1] {
				return m.OOB(t133, d_B[1], 1, "B", 7, 41)
			}
			t134 := b_B + int((t132)*d_B[1]+t133)
			r_B_r2 := m.LoadF(t134)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t135 := float64(r_L_r * r_B_r2)
			t136 := float64(r_B_r - t135)
			r_B_w := t136
			t137 := i_i
			if t137 < 0 || t137 >= d_B[0] {
				return m.OOB(t137, d_B[0], 0, "B", 7, 11)
			}
			t138 := i_j
			if t138 < 0 || t138 >= d_B[1] {
				return m.OOB(t138, d_B[1], 1, "B", 7, 11)
			}
			t139 := b_B + int((t137)*d_B[1]+t138)
			m.StoreF(t139, r_B_w)
			t140 := i_i - i_k
			t141 := t140 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t141)
		}
		t142 := i_i - int64(1)
		t143 := codegen.MaxI(int64(0), t142)
		t144 := i_i - int64(1)
		for i_k := t143; i_k <= t144; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t145 := i_i
			if t145 < 0 || t145 >= d_B[0] {
				return m.OOB(t145, d_B[0], 0, "B", 7, 21)
			}
			t146 := i_j
			if t146 < 0 || t146 >= d_B[1] {
				return m.OOB(t146, d_B[1], 1, "B", 7, 21)
			}
			t147 := b_B + int((t145)*d_B[1]+t146)
			r_B_r := m.LoadF(t147)
			t148 := i_i
			if t148 < 0 || t148 >= d_L[0] {
				return m.OOB(t148, d_L[0], 0, "L", 7, 31)
			}
			t149 := i_k
			if t149 < 0 || t149 >= d_L[1] {
				return m.OOB(t149, d_L[1], 1, "L", 7, 31)
			}
			t150 := b_L + int((t148)*d_L[1]+t149)
			r_L_r := m.LoadF(t150)
			t151 := i_k
			if t151 < 0 || t151 >= d_B[0] {
				return m.OOB(t151, d_B[0], 0, "B", 7, 41)
			}
			t152 := i_j
			if t152 < 0 || t152 >= d_B[1] {
				return m.OOB(t152, d_B[1], 1, "B", 7, 41)
			}
			t153 := b_B + int((t151)*d_B[1]+t152)
			r_B_r2 := m.LoadF(t153)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_L_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			t154 := float64(r_L_r * r_B_r2)
			t155 := float64(r_B_r - t154)
			r_B_w := t155
			t156 := i_i
			if t156 < 0 || t156 >= d_B[0] {
				return m.OOB(t156, d_B[0], 0, "B", 7, 11)
			}
			t157 := i_j
			if t157 < 0 || t157 >= d_B[1] {
				return m.OOB(t157, d_B[1], 1, "B", 7, 11)
			}
			t158 := b_B + int((t156)*d_B[1]+t157)
			m.StoreF(t158, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t159 := i_i
		if t159 < 0 || t159 >= d_B[0] {
			return m.OOB(t159, d_B[0], 0, "B", 9, 19)
		}
		t160 := i_j
		if t160 < 0 || t160 >= d_B[1] {
			return m.OOB(t160, d_B[1], 1, "B", 9, 19)
		}
		t161 := b_B + int((t159)*d_B[1]+t160)
		r_B_r3 := m.LoadF(t161)
		t162 := i_i
		if t162 < 0 || t162 >= d_L[0] {
			return m.OOB(t162, d_L[0], 0, "L", 9, 29)
		}
		t163 := i_i
		if t163 < 0 || t163 >= d_L[1] {
			return m.OOB(t163, d_L[1], 1, "L", 9, 29)
		}
		t164 := b_L + int((t162)*d_L[1]+t163)
		r_L_r2 := m.LoadF(t164)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_L_r2), int64(1))
		if r_L_r2 == 0 {
			return m.DivZero(9, 27)
		}
		t165 := float64(r_B_r3 / r_L_r2)
		r_B_w2 := t165
		t166 := i_i
		if t166 < 0 || t166 >= d_B[0] {
			return m.OOB(t166, d_B[0], 0, "B", 9, 9)
		}
		t167 := i_j
		if t167 < 0 || t167 >= d_B[1] {
			return m.OOB(t167, d_B[1], 1, "B", 9, 9)
		}
		t168 := b_B + int((t166)*d_B[1]+t167)
		m.StoreF(t168, r_B_w2)
	}
	return nil
}
