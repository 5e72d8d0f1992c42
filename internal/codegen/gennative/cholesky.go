// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_cholesky_original executes the Original variant of the cholesky benchmark natively.
func run_cholesky_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
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
	for i_j := start; i_j <= end; i_j++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		t2 := i_j
		if t2 < 0 || t2 >= d_A[0] {
			return m.OOB(t2, d_A[0], 0, "A", 5, 22)
		}
		t3 := i_j
		if t3 < 0 || t3 >= d_A[1] {
			return m.OOB(t3, d_A[1], 1, "A", 5, 22)
		}
		t4 := b_A + int((t2)*d_A[1]+t3)
		t5 := m.LoadF(t4)
		t6 := float64(math.Sqrt(t5))
		t7 := i_j
		if t7 < 0 || t7 >= d_A[0] {
			return m.OOB(t7, d_A[0], 0, "A", 5, 7)
		}
		t8 := i_j
		if t8 < 0 || t8 >= d_A[1] {
			return m.OOB(t8, d_A[1], 1, "A", 5, 7)
		}
		t9 := b_A + int((t7)*d_A[1]+t8)
		m.StoreF(t9, t6)
		t10 := i_j + int64(1)
		t11 := p_n - int64(1)
		for i_i := t10; i_i <= t11; i_i++ {
			if err := m.Tick(6, 3); err != nil {
				return err
			}
			t12 := i_i
			if t12 < 0 || t12 >= d_A[0] {
				return m.OOB(t12, d_A[0], 0, "A", 7, 19)
			}
			t13 := i_j
			if t13 < 0 || t13 >= d_A[1] {
				return m.OOB(t13, d_A[1], 1, "A", 7, 19)
			}
			t14 := b_A + int((t12)*d_A[1]+t13)
			t15 := m.LoadF(t14)
			t16 := i_j
			if t16 < 0 || t16 >= d_A[0] {
				return m.OOB(t16, d_A[0], 0, "A", 7, 29)
			}
			t17 := i_j
			if t17 < 0 || t17 >= d_A[1] {
				return m.OOB(t17, d_A[1], 1, "A", 7, 29)
			}
			t18 := b_A + int((t16)*d_A[1]+t17)
			t19 := m.LoadF(t18)
			if t19 == 0 {
				return m.DivZero(7, 27)
			}
			t20 := float64(t15 / t19)
			t21 := i_i
			if t21 < 0 || t21 >= d_A[0] {
				return m.OOB(t21, d_A[0], 0, "A", 7, 9)
			}
			t22 := i_j
			if t22 < 0 || t22 >= d_A[1] {
				return m.OOB(t22, d_A[1], 1, "A", 7, 9)
			}
			t23 := b_A + int((t21)*d_A[1]+t22)
			m.StoreF(t23, t20)
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_cholesky_resilient executes the Resilient variant of the cholesky benchmark natively.
func run_cholesky_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_cholesky_resilient_n1(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t14 := p_n - int64(1)
		m.SetBounds(int64(0), t14)
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
		t15 := i_j
		if t15 < 0 || t15 >= d_A[0] {
			return m.OOB(t15, d_A[0], 0, "A", 5, 22)
		}
		t16 := i_j
		if t16 < 0 || t16 >= d_A[1] {
			return m.OOB(t16, d_A[1], 1, "A", 5, 22)
		}
		t17 := b_A + int((t15)*d_A[1]+t16)
		r_A_r := m.LoadF(t17)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		t18 := float64(math.Sqrt(r_A_r))
		r_A_w := t18
		t19 := i_j
		if t19 < 0 || t19 >= d_A[0] {
			return m.OOB(t19, d_A[0], 0, "A", 5, 7)
		}
		t20 := i_j
		if t20 < 0 || t20 >= d_A[1] {
			return m.OOB(t20, d_A[1], 1, "A", 5, 7)
		}
		t21 := b_A + int((t19)*d_A[1]+t20)
		m.StoreF(t21, r_A_w)
		t22 := -i_j
		t23 := t22 + p_n
		t24 := t23 - int64(2)
		if t24 >= int64(0) {
			t25 := -i_j
			t26 := t25 + p_n
			t27 := t26 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t27)
		}
		if err := run_cholesky_resilient_n2(m, &cs, p_n, b_A, d_A, i_j); err != nil {
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

func run_cholesky_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
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
			if t3 == int64(0) {
				t4 := i_li0
				if t4 < 0 || t4 >= d_A[0] {
					return m.OOB(t4, d_A[0], 0, "A", 0, 0)
				}
				t5 := i_li1
				if t5 < 0 || t5 >= d_A[1] {
					return m.OOB(t5, d_A[1], 1, "A", 0, 0)
				}
				t6 := b_A + int((t4)*d_A[1]+t5)
				t7 := m.LoadF(t6)
				cs.Fold(checksum.AccDef, math.Float64bits(t7), int64(1))
			}
			t8 := i_li0 - i_li1
			t9 := t8 - int64(1)
			if t9 >= int64(0) {
				t10 := i_li0
				if t10 < 0 || t10 >= d_A[0] {
					return m.OOB(t10, d_A[0], 0, "A", 0, 0)
				}
				t11 := i_li1
				if t11 < 0 || t11 >= d_A[1] {
					return m.OOB(t11, d_A[1], 1, "A", 0, 0)
				}
				t12 := b_A + int((t10)*d_A[1]+t11)
				t13 := m.LoadF(t12)
				cs.Fold(checksum.AccDef, math.Float64bits(t13), int64(1))
			}
		}
	}
	return nil
}

func run_cholesky_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_j int64) error {
	t28 := i_j + int64(1)
	t29 := p_n - int64(1)
	for i_i := t28; i_i <= t29; i_i++ {
		if err := m.Tick(6, 3); err != nil {
			return err
		}
		t30 := i_i
		if t30 < 0 || t30 >= d_A[0] {
			return m.OOB(t30, d_A[0], 0, "A", 7, 19)
		}
		t31 := i_j
		if t31 < 0 || t31 >= d_A[1] {
			return m.OOB(t31, d_A[1], 1, "A", 7, 19)
		}
		t32 := b_A + int((t30)*d_A[1]+t31)
		r_A_r2 := m.LoadF(t32)
		t33 := i_j
		if t33 < 0 || t33 >= d_A[0] {
			return m.OOB(t33, d_A[0], 0, "A", 7, 29)
		}
		t34 := i_j
		if t34 < 0 || t34 >= d_A[1] {
			return m.OOB(t34, d_A[1], 1, "A", 7, 29)
		}
		t35 := b_A + int((t33)*d_A[1]+t34)
		r_A_r3 := m.LoadF(t35)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
		if r_A_r3 == 0 {
			return m.DivZero(7, 27)
		}
		t36 := float64(r_A_r2 / r_A_r3)
		t37 := i_i
		if t37 < 0 || t37 >= d_A[0] {
			return m.OOB(t37, d_A[0], 0, "A", 7, 9)
		}
		t38 := i_j
		if t38 < 0 || t38 >= d_A[1] {
			return m.OOB(t38, d_A[1], 1, "A", 7, 9)
		}
		t39 := b_A + int((t37)*d_A[1]+t38)
		m.StoreF(t39, t36)
	}
	return nil
}

// run_cholesky_resilientopt executes the Resilient-Optimized variant of the cholesky benchmark natively.
func run_cholesky_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_cholesky_resilientopt_n1(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t16 := p_n - int64(2)
		m.SetBounds(int64(0), t16)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_j := start; i_j <= end; i_j++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t17 := i_j
		if t17 < 0 || t17 >= d_A[0] {
			return m.OOB(t17, d_A[0], 0, "A", 5, 22)
		}
		t18 := i_j
		if t18 < 0 || t18 >= d_A[1] {
			return m.OOB(t18, d_A[1], 1, "A", 5, 22)
		}
		t19 := b_A + int((t17)*d_A[1]+t18)
		r_A_r := m.LoadF(t19)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		t20 := float64(math.Sqrt(r_A_r))
		r_A_w := t20
		t21 := i_j
		if t21 < 0 || t21 >= d_A[0] {
			return m.OOB(t21, d_A[0], 0, "A", 5, 7)
		}
		t22 := i_j
		if t22 < 0 || t22 >= d_A[1] {
			return m.OOB(t22, d_A[1], 1, "A", 5, 7)
		}
		t23 := b_A + int((t21)*d_A[1]+t22)
		m.StoreF(t23, r_A_w)
		t24 := -i_j
		t25 := t24 + p_n
		t26 := t25 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t26)
		if err := run_cholesky_resilientopt_n2(m, &cs, p_n, b_A, d_A, i_j); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		if err := run_cholesky_resilientopt_n3(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_cholesky_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
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
			if t5 < 0 || t5 >= d_A[0] {
				return m.OOB(t5, d_A[0], 0, "A", 0, 0)
			}
			t6 := i_li1
			if t6 < 0 || t6 >= d_A[1] {
				return m.OOB(t6, d_A[1], 1, "A", 0, 0)
			}
			t7 := b_A + int((t5)*d_A[1]+t6)
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
				if t12 < 0 || t12 >= d_A[0] {
					return m.OOB(t12, d_A[0], 0, "A", 0, 0)
				}
				t13 := i_li1
				if t13 < 0 || t13 >= d_A[1] {
					return m.OOB(t13, d_A[1], 1, "A", 0, 0)
				}
				t14 := b_A + int((t12)*d_A[1]+t13)
				t15 := m.LoadF(t14)
				cs.Fold(checksum.AccDef, math.Float64bits(t15), int64(1))
			}
		}
	}
	return nil
}

func run_cholesky_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_j int64) error {
	t27 := i_j + int64(1)
	t28 := p_n - int64(1)
	for i_i := t27; i_i <= t28; i_i++ {
		if err := m.Tick(6, 3); err != nil {
			return err
		}
		t29 := i_i
		if t29 < 0 || t29 >= d_A[0] {
			return m.OOB(t29, d_A[0], 0, "A", 7, 19)
		}
		t30 := i_j
		if t30 < 0 || t30 >= d_A[1] {
			return m.OOB(t30, d_A[1], 1, "A", 7, 19)
		}
		t31 := b_A + int((t29)*d_A[1]+t30)
		r_A_r2 := m.LoadF(t31)
		t32 := i_j
		if t32 < 0 || t32 >= d_A[0] {
			return m.OOB(t32, d_A[0], 0, "A", 7, 29)
		}
		t33 := i_j
		if t33 < 0 || t33 >= d_A[1] {
			return m.OOB(t33, d_A[1], 1, "A", 7, 29)
		}
		t34 := b_A + int((t32)*d_A[1]+t33)
		r_A_r3 := m.LoadF(t34)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
		if r_A_r3 == 0 {
			return m.DivZero(7, 27)
		}
		t35 := float64(r_A_r2 / r_A_r3)
		t36 := i_i
		if t36 < 0 || t36 >= d_A[0] {
			return m.OOB(t36, d_A[0], 0, "A", 7, 9)
		}
		t37 := i_j
		if t37 < 0 || t37 >= d_A[1] {
			return m.OOB(t37, d_A[1], 1, "A", 7, 9)
		}
		t38 := b_A + int((t36)*d_A[1]+t37)
		m.StoreF(t38, t35)
	}
	return nil
}

func run_cholesky_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t39 := p_n - int64(1)
	t40 := codegen.MaxI(int64(0), t39)
	t41 := p_n - int64(1)
	for i_j := t40; i_j <= t41; i_j++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t42 := i_j
		if t42 < 0 || t42 >= d_A[0] {
			return m.OOB(t42, d_A[0], 0, "A", 5, 22)
		}
		t43 := i_j
		if t43 < 0 || t43 >= d_A[1] {
			return m.OOB(t43, d_A[1], 1, "A", 5, 22)
		}
		t44 := b_A + int((t42)*d_A[1]+t43)
		r_A_r := m.LoadF(t44)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		t45 := float64(math.Sqrt(r_A_r))
		r_A_w := t45
		t46 := i_j
		if t46 < 0 || t46 >= d_A[0] {
			return m.OOB(t46, d_A[0], 0, "A", 5, 7)
		}
		t47 := i_j
		if t47 < 0 || t47 >= d_A[1] {
			return m.OOB(t47, d_A[1], 1, "A", 5, 7)
		}
		t48 := b_A + int((t46)*d_A[1]+t47)
		m.StoreF(t48, r_A_w)
	}
	return nil
}
