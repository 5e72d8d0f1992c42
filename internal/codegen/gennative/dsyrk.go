// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_dsyrk_original executes the Original variant of the dsyrk benchmark natively.
func run_dsyrk_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_m := m.Param("m")
	b_C, d_C := m.Var("C")
	b_A, d_A := m.Var("A")
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
		t2 := p_n - int64(1)
		for i_j := int64(0); i_j <= t2; i_j++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t3 := p_m - int64(1)
			for i_k := int64(0); i_k <= t3; i_k++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t4 := i_i
				if t4 < 0 || t4 >= d_C[0] {
					return m.OOB(t4, d_C[0], 0, "C", 7, 21)
				}
				t5 := i_j
				if t5 < 0 || t5 >= d_C[1] {
					return m.OOB(t5, d_C[1], 1, "C", 7, 21)
				}
				t6 := b_C + int((t4)*d_C[1]+t5)
				t7 := m.LoadF(t6)
				t8 := i_i
				if t8 < 0 || t8 >= d_A[0] {
					return m.OOB(t8, d_A[0], 0, "A", 7, 31)
				}
				t9 := i_k
				if t9 < 0 || t9 >= d_A[1] {
					return m.OOB(t9, d_A[1], 1, "A", 7, 31)
				}
				t10 := b_A + int((t8)*d_A[1]+t9)
				t11 := m.LoadF(t10)
				t12 := i_j
				if t12 < 0 || t12 >= d_A[0] {
					return m.OOB(t12, d_A[0], 0, "A", 7, 41)
				}
				t13 := i_k
				if t13 < 0 || t13 >= d_A[1] {
					return m.OOB(t13, d_A[1], 1, "A", 7, 41)
				}
				t14 := b_A + int((t12)*d_A[1]+t13)
				t15 := m.LoadF(t14)
				t16 := float64(t11 * t15)
				t17 := float64(t7 + t16)
				t18 := i_i
				if t18 < 0 || t18 >= d_C[0] {
					return m.OOB(t18, d_C[0], 0, "C", 7, 11)
				}
				t19 := i_j
				if t19 < 0 || t19 >= d_C[1] {
					return m.OOB(t19, d_C[1], 1, "C", 7, 11)
				}
				t20 := b_C + int((t18)*d_C[1]+t19)
				m.StoreF(t20, t17)
			}
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_dsyrk_resilient executes the Resilient variant of the dsyrk benchmark natively.
func run_dsyrk_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_m := m.Param("m")
	b_C, d_C := m.Var("C")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_dsyrk_resilient_n1(m, &cs, p_n, p_m, b_C, d_C); err != nil {
			return err
		}
		if err := run_dsyrk_resilient_n2(m, &cs, p_n, p_m, b_A, d_A); err != nil {
			return err
		}
		t23 := p_n - int64(1)
		m.SetBounds(int64(0), t23)
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
		if err := run_dsyrk_resilient_n3(m, &cs, p_n, p_m, b_C, d_C, b_A, d_A, i_i); err != nil {
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

func run_dsyrk_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_C int, d_C []int64) error {
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
			t4 := p_m - int64(1)
			t3 := t4 >= int64(0)
			if t3 {
				t5 := -p_m
				t6 := t5 + int64(1)
				t3 = t6 >= int64(0)
			}
			if t3 {
				t7 := i_li0
				if t7 < 0 || t7 >= d_C[0] {
					return m.OOB(t7, d_C[0], 0, "C", 0, 0)
				}
				t8 := i_li1
				if t8 < 0 || t8 >= d_C[1] {
					return m.OOB(t8, d_C[1], 1, "C", 0, 0)
				}
				t9 := b_C + int((t7)*d_C[1]+t8)
				t10 := m.LoadF(t9)
				cs.Fold(checksum.AccDef, math.Float64bits(t10), p_m)
			}
			t11 := p_m - int64(2)
			if t11 >= int64(0) {
				t12 := i_li0
				if t12 < 0 || t12 >= d_C[0] {
					return m.OOB(t12, d_C[0], 0, "C", 0, 0)
				}
				t13 := i_li1
				if t13 < 0 || t13 >= d_C[1] {
					return m.OOB(t13, d_C[1], 1, "C", 0, 0)
				}
				t14 := b_C + int((t12)*d_C[1]+t13)
				t15 := m.LoadF(t14)
				cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
			}
		}
	}
	return nil
}

func run_dsyrk_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_A int, d_A []int64) error {
	t16 := p_n - int64(1)
	for i_li02 := int64(0); i_li02 <= t16; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t17 := p_m - int64(1)
		for i_li12 := int64(0); i_li12 <= t17; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t18 := i_li02
			if t18 < 0 || t18 >= d_A[0] {
				return m.OOB(t18, d_A[0], 0, "A", 0, 0)
			}
			t19 := i_li12
			if t19 < 0 || t19 >= d_A[1] {
				return m.OOB(t19, d_A[1], 1, "A", 0, 0)
			}
			t20 := b_A + int((t18)*d_A[1]+t19)
			t21 := m.LoadF(t20)
			t22 := int64(2) * p_n
			cs.Fold(checksum.AccDef, math.Float64bits(t21), t22)
		}
	}
	return nil
}

func run_dsyrk_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_C int, d_C []int64, b_A int, d_A []int64, i_i int64) error {
	t24 := p_n - int64(1)
	for i_j := int64(0); i_j <= t24; i_j++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t25 := p_m - int64(1)
		for i_k := int64(0); i_k <= t25; i_k++ {
			if err := m.Tick(6, 5); err != nil {
				return err
			}
			t26 := i_i
			if t26 < 0 || t26 >= d_C[0] {
				return m.OOB(t26, d_C[0], 0, "C", 7, 21)
			}
			t27 := i_j
			if t27 < 0 || t27 >= d_C[1] {
				return m.OOB(t27, d_C[1], 1, "C", 7, 21)
			}
			t28 := b_C + int((t26)*d_C[1]+t27)
			r_C_r := m.LoadF(t28)
			t29 := i_i
			if t29 < 0 || t29 >= d_A[0] {
				return m.OOB(t29, d_A[0], 0, "A", 7, 31)
			}
			t30 := i_k
			if t30 < 0 || t30 >= d_A[1] {
				return m.OOB(t30, d_A[1], 1, "A", 7, 31)
			}
			t31 := b_A + int((t29)*d_A[1]+t30)
			r_A_r := m.LoadF(t31)
			t32 := i_j
			if t32 < 0 || t32 >= d_A[0] {
				return m.OOB(t32, d_A[0], 0, "A", 7, 41)
			}
			t33 := i_k
			if t33 < 0 || t33 >= d_A[1] {
				return m.OOB(t33, d_A[1], 1, "A", 7, 41)
			}
			t34 := b_A + int((t32)*d_A[1]+t33)
			r_A_r2 := m.LoadF(t34)
			cs.Fold(checksum.AccUse, math.Float64bits(r_C_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			t35 := float64(r_A_r * r_A_r2)
			t36 := float64(r_C_r + t35)
			r_C_w := t36
			t37 := i_i
			if t37 < 0 || t37 >= d_C[0] {
				return m.OOB(t37, d_C[0], 0, "C", 7, 11)
			}
			t38 := i_j
			if t38 < 0 || t38 >= d_C[1] {
				return m.OOB(t38, d_C[1], 1, "C", 7, 11)
			}
			t39 := b_C + int((t37)*d_C[1]+t38)
			m.StoreF(t39, r_C_w)
			t41 := -i_k
			t42 := t41 + p_m
			t43 := t42 - int64(2)
			t40 := t43 >= int64(0)
			if t40 {
				t44 := i_k - p_m
				t45 := t44 + int64(2)
				t40 = t45 >= int64(0)
			}
			if t40 {
				t46 := -i_k
				t47 := t46 + p_m
				t48 := t47 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_C_w), t48)
			}
			t49 := -i_k
			t50 := t49 + p_m
			t51 := t50 - int64(3)
			if t51 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_C_w), int64(1))
			}
		}
	}
	return nil
}

// run_dsyrk_resilientopt executes the Resilient-Optimized variant of the dsyrk benchmark natively.
func run_dsyrk_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	p_m := m.Param("m")
	b_C, d_C := m.Var("C")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_dsyrk_resilientopt_n1(m, &cs, p_n, p_m, b_C, d_C); err != nil {
			return err
		}
		if err := run_dsyrk_resilientopt_n2(m, &cs, p_n, p_m, b_A, d_A); err != nil {
			return err
		}
		t23 := p_n - int64(1)
		m.SetBounds(int64(0), t23)
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
		if err := run_dsyrk_resilientopt_n3(m, &cs, p_n, p_m, b_C, d_C, b_A, d_A, i_i); err != nil {
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

func run_dsyrk_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_C int, d_C []int64) error {
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
			t4 := p_m - int64(1)
			t3 := t4 >= int64(0)
			if t3 {
				t5 := -p_m
				t6 := t5 + int64(1)
				t3 = t6 >= int64(0)
			}
			if t3 {
				t7 := i_li0
				if t7 < 0 || t7 >= d_C[0] {
					return m.OOB(t7, d_C[0], 0, "C", 0, 0)
				}
				t8 := i_li1
				if t8 < 0 || t8 >= d_C[1] {
					return m.OOB(t8, d_C[1], 1, "C", 0, 0)
				}
				t9 := b_C + int((t7)*d_C[1]+t8)
				t10 := m.LoadF(t9)
				cs.Fold(checksum.AccDef, math.Float64bits(t10), p_m)
			}
			t11 := p_m - int64(2)
			if t11 >= int64(0) {
				t12 := i_li0
				if t12 < 0 || t12 >= d_C[0] {
					return m.OOB(t12, d_C[0], 0, "C", 0, 0)
				}
				t13 := i_li1
				if t13 < 0 || t13 >= d_C[1] {
					return m.OOB(t13, d_C[1], 1, "C", 0, 0)
				}
				t14 := b_C + int((t12)*d_C[1]+t13)
				t15 := m.LoadF(t14)
				cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
			}
		}
	}
	return nil
}

func run_dsyrk_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_A int, d_A []int64) error {
	t16 := p_n - int64(1)
	for i_li02 := int64(0); i_li02 <= t16; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t17 := p_m - int64(1)
		for i_li12 := int64(0); i_li12 <= t17; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t18 := i_li02
			if t18 < 0 || t18 >= d_A[0] {
				return m.OOB(t18, d_A[0], 0, "A", 0, 0)
			}
			t19 := i_li12
			if t19 < 0 || t19 >= d_A[1] {
				return m.OOB(t19, d_A[1], 1, "A", 0, 0)
			}
			t20 := b_A + int((t18)*d_A[1]+t19)
			t21 := m.LoadF(t20)
			t22 := int64(2) * p_n
			cs.Fold(checksum.AccDef, math.Float64bits(t21), t22)
		}
	}
	return nil
}

func run_dsyrk_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, p_m int64, b_C int, d_C []int64, b_A int, d_A []int64, i_i int64) error {
	t24 := p_n - int64(1)
	for i_j := int64(0); i_j <= t24; i_j++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t25 := p_m - int64(3)
		for i_k := int64(0); i_k <= t25; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t26 := i_i
			if t26 < 0 || t26 >= d_C[0] {
				return m.OOB(t26, d_C[0], 0, "C", 7, 21)
			}
			t27 := i_j
			if t27 < 0 || t27 >= d_C[1] {
				return m.OOB(t27, d_C[1], 1, "C", 7, 21)
			}
			t28 := b_C + int((t26)*d_C[1]+t27)
			r_C_r := m.LoadF(t28)
			t29 := i_i
			if t29 < 0 || t29 >= d_A[0] {
				return m.OOB(t29, d_A[0], 0, "A", 7, 31)
			}
			t30 := i_k
			if t30 < 0 || t30 >= d_A[1] {
				return m.OOB(t30, d_A[1], 1, "A", 7, 31)
			}
			t31 := b_A + int((t29)*d_A[1]+t30)
			r_A_r := m.LoadF(t31)
			t32 := i_j
			if t32 < 0 || t32 >= d_A[0] {
				return m.OOB(t32, d_A[0], 0, "A", 7, 41)
			}
			t33 := i_k
			if t33 < 0 || t33 >= d_A[1] {
				return m.OOB(t33, d_A[1], 1, "A", 7, 41)
			}
			t34 := b_A + int((t32)*d_A[1]+t33)
			r_A_r2 := m.LoadF(t34)
			cs.Fold(checksum.AccUse, math.Float64bits(r_C_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			t35 := float64(r_A_r * r_A_r2)
			t36 := float64(r_C_r + t35)
			r_C_w := t36
			t37 := i_i
			if t37 < 0 || t37 >= d_C[0] {
				return m.OOB(t37, d_C[0], 0, "C", 7, 11)
			}
			t38 := i_j
			if t38 < 0 || t38 >= d_C[1] {
				return m.OOB(t38, d_C[1], 1, "C", 7, 11)
			}
			t39 := b_C + int((t37)*d_C[1]+t38)
			m.StoreF(t39, r_C_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_C_w), int64(1))
		}
		t40 := p_m - int64(2)
		t41 := codegen.MaxI(int64(0), t40)
		t42 := p_m - int64(2)
		for i_k := t41; i_k <= t42; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t43 := i_i
			if t43 < 0 || t43 >= d_C[0] {
				return m.OOB(t43, d_C[0], 0, "C", 7, 21)
			}
			t44 := i_j
			if t44 < 0 || t44 >= d_C[1] {
				return m.OOB(t44, d_C[1], 1, "C", 7, 21)
			}
			t45 := b_C + int((t43)*d_C[1]+t44)
			r_C_r := m.LoadF(t45)
			t46 := i_i
			if t46 < 0 || t46 >= d_A[0] {
				return m.OOB(t46, d_A[0], 0, "A", 7, 31)
			}
			t47 := i_k
			if t47 < 0 || t47 >= d_A[1] {
				return m.OOB(t47, d_A[1], 1, "A", 7, 31)
			}
			t48 := b_A + int((t46)*d_A[1]+t47)
			r_A_r := m.LoadF(t48)
			t49 := i_j
			if t49 < 0 || t49 >= d_A[0] {
				return m.OOB(t49, d_A[0], 0, "A", 7, 41)
			}
			t50 := i_k
			if t50 < 0 || t50 >= d_A[1] {
				return m.OOB(t50, d_A[1], 1, "A", 7, 41)
			}
			t51 := b_A + int((t49)*d_A[1]+t50)
			r_A_r2 := m.LoadF(t51)
			cs.Fold(checksum.AccUse, math.Float64bits(r_C_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			t52 := float64(r_A_r * r_A_r2)
			t53 := float64(r_C_r + t52)
			r_C_w := t53
			t54 := i_i
			if t54 < 0 || t54 >= d_C[0] {
				return m.OOB(t54, d_C[0], 0, "C", 7, 11)
			}
			t55 := i_j
			if t55 < 0 || t55 >= d_C[1] {
				return m.OOB(t55, d_C[1], 1, "C", 7, 11)
			}
			t56 := b_C + int((t54)*d_C[1]+t55)
			m.StoreF(t56, r_C_w)
			t57 := -i_k
			t58 := t57 + p_m
			t59 := t58 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_C_w), t59)
		}
		t60 := p_m - int64(1)
		t61 := codegen.MaxI(int64(0), t60)
		t62 := p_m - int64(1)
		for i_k := t61; i_k <= t62; i_k++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t63 := i_i
			if t63 < 0 || t63 >= d_C[0] {
				return m.OOB(t63, d_C[0], 0, "C", 7, 21)
			}
			t64 := i_j
			if t64 < 0 || t64 >= d_C[1] {
				return m.OOB(t64, d_C[1], 1, "C", 7, 21)
			}
			t65 := b_C + int((t63)*d_C[1]+t64)
			r_C_r := m.LoadF(t65)
			t66 := i_i
			if t66 < 0 || t66 >= d_A[0] {
				return m.OOB(t66, d_A[0], 0, "A", 7, 31)
			}
			t67 := i_k
			if t67 < 0 || t67 >= d_A[1] {
				return m.OOB(t67, d_A[1], 1, "A", 7, 31)
			}
			t68 := b_A + int((t66)*d_A[1]+t67)
			r_A_r := m.LoadF(t68)
			t69 := i_j
			if t69 < 0 || t69 >= d_A[0] {
				return m.OOB(t69, d_A[0], 0, "A", 7, 41)
			}
			t70 := i_k
			if t70 < 0 || t70 >= d_A[1] {
				return m.OOB(t70, d_A[1], 1, "A", 7, 41)
			}
			t71 := b_A + int((t69)*d_A[1]+t70)
			r_A_r2 := m.LoadF(t71)
			cs.Fold(checksum.AccUse, math.Float64bits(r_C_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			t72 := float64(r_A_r * r_A_r2)
			t73 := float64(r_C_r + t72)
			r_C_w := t73
			t74 := i_i
			if t74 < 0 || t74 >= d_C[0] {
				return m.OOB(t74, d_C[0], 0, "C", 7, 11)
			}
			t75 := i_j
			if t75 < 0 || t75 >= d_C[1] {
				return m.OOB(t75, d_C[1], 1, "C", 7, 11)
			}
			t76 := b_C + int((t74)*d_C[1]+t75)
			m.StoreF(t76, r_C_w)
		}
	}
	return nil
}
