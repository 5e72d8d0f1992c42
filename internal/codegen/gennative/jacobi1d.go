// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_jacobi1d_original executes the Original variant of the jacobi1d benchmark natively.
func run_jacobi1d_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	b_B, d_B := m.Var("B")
	if epoch == 0 {
		t1 := p_tsteps - int64(1)
		m.SetBounds(int64(0), t1)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_t := start; i_t <= end; i_t++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		t2 := p_n - int64(2)
		for i_i := int64(1); i_i <= t2; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t3 := i_i - int64(1)
			t4 := t3
			if t4 < 0 || t4 >= d_A[0] {
				return m.OOB(t4, d_A[0], 0, "A", 6, 17)
			}
			t5 := b_A + int(t4)
			t6 := m.LoadF(t5)
			t7 := i_i
			if t7 < 0 || t7 >= d_A[0] {
				return m.OOB(t7, d_A[0], 0, "A", 6, 28)
			}
			t8 := b_A + int(t7)
			t9 := m.LoadF(t8)
			t10 := float64(t6 + t9)
			t11 := i_i + int64(1)
			t12 := t11
			if t12 < 0 || t12 >= d_A[0] {
				return m.OOB(t12, d_A[0], 0, "A", 6, 35)
			}
			t13 := b_A + int(t12)
			t14 := m.LoadF(t13)
			t15 := float64(t10 + t14)
			if float64(3) == 0 {
				return m.DivZero(6, 45)
			}
			t16 := float64(t15 / float64(3))
			t17 := i_i
			if t17 < 0 || t17 >= d_B[0] {
				return m.OOB(t17, d_B[0], 0, "B", 6, 9)
			}
			t18 := b_B + int(t17)
			m.StoreF(t18, t16)
		}
		t19 := p_n - int64(2)
		for i_i := int64(1); i_i <= t19; i_i++ {
			if err := m.Tick(8, 3); err != nil {
				return err
			}
			t20 := i_i
			if t20 < 0 || t20 >= d_B[0] {
				return m.OOB(t20, d_B[0], 0, "B", 9, 16)
			}
			t21 := b_B + int(t20)
			t22 := m.LoadF(t21)
			t23 := i_i
			if t23 < 0 || t23 >= d_A[0] {
				return m.OOB(t23, d_A[0], 0, "A", 9, 9)
			}
			t24 := b_A + int(t23)
			m.StoreF(t24, t22)
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_jacobi1d_resilient executes the Resilient variant of the jacobi1d benchmark natively.
func run_jacobi1d_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	b_B, d_B := m.Var("B")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_jacobi1d_resilient_n1(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		t90 := p_tsteps - int64(1)
		m.SetBounds(int64(0), t90)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_t := start; i_t <= end; i_t++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		if err := run_jacobi1d_resilient_n2(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_jacobi1d_resilient_n3(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B, i_t); err != nil {
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

func run_jacobi1d_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t1 := p_n - int64(1)
	for i_li0 := int64(0); i_li0 <= t1; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4 := -i_li0
		t5 := t4 + p_n
		t6 := t5 - int64(3)
		t3 := t6 >= int64(0)
		if t3 {
			t7 := -i_li0
			t3 = t7 >= int64(0)
		}
		t2 := t3
		if t2 {
			t8 := p_tsteps - int64(1)
			t2 = t8 >= int64(0)
		}
		if t2 {
			t9 := i_li0
			if t9 < 0 || t9 >= d_A[0] {
				return m.OOB(t9, d_A[0], 0, "A", 0, 0)
			}
			t10 := b_A + int(t9)
			t11 := m.LoadF(t10)
			cs.Fold(checksum.AccDef, math.Float64bits(t11), p_tsteps)
		}
		t15 := -i_li0
		t16 := t15 + p_n
		t17 := t16 - int64(3)
		t14 := t17 >= int64(0)
		if t14 {
			t18 := i_li0 - int64(1)
			t14 = t18 >= int64(0)
		}
		t13 := t14
		if t13 {
			t19 := p_tsteps - int64(1)
			t13 = t19 >= int64(0)
		}
		t12 := t13
		if t12 {
			t20 := -p_tsteps
			t21 := t20 + int64(1)
			t12 = t21 >= int64(0)
		}
		if t12 {
			t22 := i_li0
			if t22 < 0 || t22 >= d_A[0] {
				return m.OOB(t22, d_A[0], 0, "A", 0, 0)
			}
			t23 := b_A + int(t22)
			t24 := m.LoadF(t23)
			cs.Fold(checksum.AccDef, math.Float64bits(t24), p_tsteps)
		}
		t27 := -i_li0
		t28 := t27 + p_n
		t29 := t28 - int64(3)
		t26 := t29 >= int64(0)
		if t26 {
			t30 := i_li0 - int64(1)
			t26 = t30 >= int64(0)
		}
		t25 := t26
		if t25 {
			t31 := p_tsteps - int64(2)
			t25 = t31 >= int64(0)
		}
		if t25 {
			t32 := i_li0
			if t32 < 0 || t32 >= d_A[0] {
				return m.OOB(t32, d_A[0], 0, "A", 0, 0)
			}
			t33 := b_A + int(t32)
			t34 := m.LoadF(t33)
			cs.Fold(checksum.AccDef, math.Float64bits(t34), int64(1))
		}
		t38 := i_li0 - int64(1)
		t37 := t38 >= int64(0)
		if t37 {
			t39 := -i_li0
			t40 := t39 + p_n
			t41 := t40 - int64(2)
			t37 = t41 >= int64(0)
		}
		t36 := t37
		if t36 {
			t42 := p_tsteps - int64(1)
			t36 = t42 >= int64(0)
		}
		t35 := t36
		if t35 {
			t43 := -p_tsteps
			t44 := t43 + int64(1)
			t35 = t44 >= int64(0)
		}
		if t35 {
			t45 := i_li0
			if t45 < 0 || t45 >= d_A[0] {
				return m.OOB(t45, d_A[0], 0, "A", 0, 0)
			}
			t46 := b_A + int(t45)
			t47 := m.LoadF(t46)
			cs.Fold(checksum.AccDef, math.Float64bits(t47), p_tsteps)
		}
		t50 := i_li0 - int64(1)
		t49 := t50 >= int64(0)
		if t49 {
			t51 := -i_li0
			t52 := t51 + p_n
			t53 := t52 - int64(2)
			t49 = t53 >= int64(0)
		}
		t48 := t49
		if t48 {
			t54 := p_tsteps - int64(2)
			t48 = t54 >= int64(0)
		}
		if t48 {
			t55 := i_li0
			if t55 < 0 || t55 >= d_A[0] {
				return m.OOB(t55, d_A[0], 0, "A", 0, 0)
			}
			t56 := b_A + int(t55)
			t57 := m.LoadF(t56)
			cs.Fold(checksum.AccDef, math.Float64bits(t57), int64(1))
		}
		t60 := i_li0 - int64(2)
		t59 := t60 >= int64(0)
		if t59 {
			t61 := i_li0 - p_n
			t62 := t61 + int64(1)
			t59 = t62 >= int64(0)
		}
		t58 := t59
		if t58 {
			t63 := p_tsteps - int64(1)
			t58 = t63 >= int64(0)
		}
		if t58 {
			t64 := i_li0
			if t64 < 0 || t64 >= d_A[0] {
				return m.OOB(t64, d_A[0], 0, "A", 0, 0)
			}
			t65 := b_A + int(t64)
			t66 := m.LoadF(t65)
			cs.Fold(checksum.AccDef, math.Float64bits(t66), p_tsteps)
		}
		t70 := i_li0 - int64(2)
		t69 := t70 >= int64(0)
		if t69 {
			t71 := -i_li0
			t72 := t71 + p_n
			t73 := t72 - int64(2)
			t69 = t73 >= int64(0)
		}
		t68 := t69
		if t68 {
			t74 := p_tsteps - int64(1)
			t68 = t74 >= int64(0)
		}
		t67 := t68
		if t67 {
			t75 := -p_tsteps
			t76 := t75 + int64(1)
			t67 = t76 >= int64(0)
		}
		if t67 {
			t77 := i_li0
			if t77 < 0 || t77 >= d_A[0] {
				return m.OOB(t77, d_A[0], 0, "A", 0, 0)
			}
			t78 := b_A + int(t77)
			t79 := m.LoadF(t78)
			cs.Fold(checksum.AccDef, math.Float64bits(t79), p_tsteps)
		}
		t82 := i_li0 - int64(2)
		t81 := t82 >= int64(0)
		if t81 {
			t83 := -i_li0
			t84 := t83 + p_n
			t85 := t84 - int64(2)
			t81 = t85 >= int64(0)
		}
		t80 := t81
		if t80 {
			t86 := p_tsteps - int64(2)
			t80 = t86 >= int64(0)
		}
		if t80 {
			t87 := i_li0
			if t87 < 0 || t87 >= d_A[0] {
				return m.OOB(t87, d_A[0], 0, "A", 0, 0)
			}
			t88 := b_A + int(t87)
			t89 := m.LoadF(t88)
			cs.Fold(checksum.AccDef, math.Float64bits(t89), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t91 := p_n - int64(2)
	for i_i := int64(1); i_i <= t91; i_i++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t92 := i_i - int64(1)
		t93 := t92
		if t93 < 0 || t93 >= d_A[0] {
			return m.OOB(t93, d_A[0], 0, "A", 6, 17)
		}
		t94 := b_A + int(t93)
		r_A_r := m.LoadF(t94)
		t95 := i_i
		if t95 < 0 || t95 >= d_A[0] {
			return m.OOB(t95, d_A[0], 0, "A", 6, 28)
		}
		t96 := b_A + int(t95)
		r_A_r2 := m.LoadF(t96)
		t97 := i_i + int64(1)
		t98 := t97
		if t98 < 0 || t98 >= d_A[0] {
			return m.OOB(t98, d_A[0], 0, "A", 6, 35)
		}
		t99 := b_A + int(t98)
		r_A_r3 := m.LoadF(t99)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
		t100 := float64(r_A_r + r_A_r2)
		t101 := float64(t100 + r_A_r3)
		if float64(3) == 0 {
			return m.DivZero(6, 45)
		}
		t102 := float64(t101 / float64(3))
		r_B_w := t102
		t103 := i_i
		if t103 < 0 || t103 >= d_B[0] {
			return m.OOB(t103, d_B[0], 0, "B", 6, 9)
		}
		t104 := b_B + int(t103)
		m.StoreF(t104, r_B_w)
		t105 := -i_t
		if t105 >= int64(0) {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t107 := i_t - int64(1)
		t106 := t107 >= int64(0)
		if t106 {
			t108 := i_t - p_tsteps
			t109 := t108 + int64(1)
			t106 = t109 >= int64(0)
		}
		if t106 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t111 := i_t - int64(1)
		t110 := t111 >= int64(0)
		if t110 {
			t112 := -i_t
			t113 := t112 + p_tsteps
			t114 := t113 - int64(2)
			t110 = t114 >= int64(0)
		}
		if t110 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t115 := p_n - int64(2)
	for i_i := int64(1); i_i <= t115; i_i++ {
		if err := m.Tick(8, 3); err != nil {
			return err
		}
		t116 := i_i
		if t116 < 0 || t116 >= d_B[0] {
			return m.OOB(t116, d_B[0], 0, "B", 9, 16)
		}
		t117 := b_B + int(t116)
		r_B_r := m.LoadF(t117)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
		r_A_w := r_B_r
		t118 := i_i
		if t118 < 0 || t118 >= d_A[0] {
			return m.OOB(t118, d_A[0], 0, "A", 9, 9)
		}
		t119 := b_A + int(t118)
		m.StoreF(t119, r_A_w)
		t122 := -i_i
		t123 := t122 + p_n
		t124 := t123 - int64(3)
		t121 := t124 >= int64(0)
		if t121 {
			t125 := -i_t
			t126 := t125 + p_tsteps
			t127 := t126 - int64(2)
			t121 = t127 >= int64(0)
		}
		t120 := t121
		if t120 {
			t128 := i_t - p_tsteps
			t129 := t128 + int64(2)
			t120 = t129 >= int64(0)
		}
		if t120 {
			t130 := -i_t
			t131 := t130 + p_tsteps
			t132 := t131 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t132)
		}
		t134 := -i_i
		t135 := t134 + p_n
		t136 := t135 - int64(3)
		t133 := t136 >= int64(0)
		if t133 {
			t137 := -i_t
			t138 := t137 + p_tsteps
			t139 := t138 - int64(3)
			t133 = t139 >= int64(0)
		}
		if t133 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t141 := -i_t
		t142 := t141 + p_tsteps
		t143 := t142 - int64(2)
		t140 := t143 >= int64(0)
		if t140 {
			t144 := i_t - p_tsteps
			t145 := t144 + int64(2)
			t140 = t145 >= int64(0)
		}
		if t140 {
			t146 := -i_t
			t147 := t146 + p_tsteps
			t148 := t147 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t148)
		}
		t149 := -i_t
		t150 := t149 + p_tsteps
		t151 := t150 - int64(3)
		if t151 >= int64(0) {
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t154 := i_i - int64(2)
		t153 := t154 >= int64(0)
		if t153 {
			t155 := -i_t
			t156 := t155 + p_tsteps
			t157 := t156 - int64(2)
			t153 = t157 >= int64(0)
		}
		t152 := t153
		if t152 {
			t158 := i_t - p_tsteps
			t159 := t158 + int64(2)
			t152 = t159 >= int64(0)
		}
		if t152 {
			t160 := -i_t
			t161 := t160 + p_tsteps
			t162 := t161 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t162)
		}
		t164 := i_i - int64(2)
		t163 := t164 >= int64(0)
		if t163 {
			t165 := -i_t
			t166 := t165 + p_tsteps
			t167 := t166 - int64(3)
			t163 = t167 >= int64(0)
		}
		if t163 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

// run_jacobi1d_resilientopt executes the Resilient-Optimized variant of the jacobi1d benchmark natively.
func run_jacobi1d_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	b_B, d_B := m.Var("B")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_jacobi1d_resilientopt_n1(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n2(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n3(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n4(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n5(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n6(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		t112 := p_tsteps - int64(3)
		t113 := codegen.MinI(t112, int64(0))
		m.SetBounds(int64(0), t113)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_t := start; i_t <= end; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n7(m, &cs, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n8(m, &cs, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n9(m, &cs, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n10(m, &cs, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n11(m, &cs, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		if err := run_jacobi1d_resilientopt_n12(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n13(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n14(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n15(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_jacobi1d_resilientopt_n16(m, &cs, p_tsteps, p_n, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t1 := p_n - int64(3)
	t2 := codegen.MinI(t1, int64(0))
	for i_li0 := int64(0); i_li0 <= t2; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3 := p_tsteps - int64(1)
		if t3 >= int64(0) {
			t4 := i_li0
			if t4 < 0 || t4 >= d_A[0] {
				return m.OOB(t4, d_A[0], 0, "A", 0, 0)
			}
			t5 := b_A + int(t4)
			t6 := m.LoadF(t5)
			cs.Fold(checksum.AccDef, math.Float64bits(t6), p_tsteps)
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t7 := p_n - int64(3)
	t8 := codegen.MinI(t7, int64(1))
	for i_li0 := int64(1); i_li0 <= t8; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t10 := p_tsteps - int64(1)
		t9 := t10 >= int64(0)
		if t9 {
			t11 := -p_tsteps
			t12 := t11 + int64(1)
			t9 = t12 >= int64(0)
		}
		if t9 {
			t13 := i_li0
			if t13 < 0 || t13 >= d_A[0] {
				return m.OOB(t13, d_A[0], 0, "A", 0, 0)
			}
			t14 := b_A + int(t13)
			t15 := m.LoadF(t14)
			cs.Fold(checksum.AccDef, math.Float64bits(t15), p_tsteps)
		}
		t16 := p_tsteps - int64(2)
		if t16 >= int64(0) {
			t17 := i_li0
			if t17 < 0 || t17 >= d_A[0] {
				return m.OOB(t17, d_A[0], 0, "A", 0, 0)
			}
			t18 := b_A + int(t17)
			t19 := m.LoadF(t18)
			cs.Fold(checksum.AccDef, math.Float64bits(t19), int64(1))
		}
		t21 := p_tsteps - int64(1)
		t20 := t21 >= int64(0)
		if t20 {
			t22 := -p_tsteps
			t23 := t22 + int64(1)
			t20 = t23 >= int64(0)
		}
		if t20 {
			t24 := i_li0
			if t24 < 0 || t24 >= d_A[0] {
				return m.OOB(t24, d_A[0], 0, "A", 0, 0)
			}
			t25 := b_A + int(t24)
			t26 := m.LoadF(t25)
			cs.Fold(checksum.AccDef, math.Float64bits(t26), p_tsteps)
		}
		t27 := p_tsteps - int64(2)
		if t27 >= int64(0) {
			t28 := i_li0
			if t28 < 0 || t28 >= d_A[0] {
				return m.OOB(t28, d_A[0], 0, "A", 0, 0)
			}
			t29 := b_A + int(t28)
			t30 := m.LoadF(t29)
			cs.Fold(checksum.AccDef, math.Float64bits(t30), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t31 := p_n - int64(3)
	for i_li0 := int64(2); i_li0 <= t31; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t33 := p_tsteps - int64(1)
		t32 := t33 >= int64(0)
		if t32 {
			t34 := -p_tsteps
			t35 := t34 + int64(1)
			t32 = t35 >= int64(0)
		}
		if t32 {
			t36 := i_li0
			if t36 < 0 || t36 >= d_A[0] {
				return m.OOB(t36, d_A[0], 0, "A", 0, 0)
			}
			t37 := b_A + int(t36)
			t38 := m.LoadF(t37)
			cs.Fold(checksum.AccDef, math.Float64bits(t38), p_tsteps)
		}
		t39 := p_tsteps - int64(2)
		if t39 >= int64(0) {
			t40 := i_li0
			if t40 < 0 || t40 >= d_A[0] {
				return m.OOB(t40, d_A[0], 0, "A", 0, 0)
			}
			t41 := b_A + int(t40)
			t42 := m.LoadF(t41)
			cs.Fold(checksum.AccDef, math.Float64bits(t42), int64(1))
		}
		t44 := p_tsteps - int64(1)
		t43 := t44 >= int64(0)
		if t43 {
			t45 := -p_tsteps
			t46 := t45 + int64(1)
			t43 = t46 >= int64(0)
		}
		if t43 {
			t47 := i_li0
			if t47 < 0 || t47 >= d_A[0] {
				return m.OOB(t47, d_A[0], 0, "A", 0, 0)
			}
			t48 := b_A + int(t47)
			t49 := m.LoadF(t48)
			cs.Fold(checksum.AccDef, math.Float64bits(t49), p_tsteps)
		}
		t50 := p_tsteps - int64(2)
		if t50 >= int64(0) {
			t51 := i_li0
			if t51 < 0 || t51 >= d_A[0] {
				return m.OOB(t51, d_A[0], 0, "A", 0, 0)
			}
			t52 := b_A + int(t51)
			t53 := m.LoadF(t52)
			cs.Fold(checksum.AccDef, math.Float64bits(t53), int64(1))
		}
		t55 := p_tsteps - int64(1)
		t54 := t55 >= int64(0)
		if t54 {
			t56 := -p_tsteps
			t57 := t56 + int64(1)
			t54 = t57 >= int64(0)
		}
		if t54 {
			t58 := i_li0
			if t58 < 0 || t58 >= d_A[0] {
				return m.OOB(t58, d_A[0], 0, "A", 0, 0)
			}
			t59 := b_A + int(t58)
			t60 := m.LoadF(t59)
			cs.Fold(checksum.AccDef, math.Float64bits(t60), p_tsteps)
		}
		t61 := p_tsteps - int64(2)
		if t61 >= int64(0) {
			t62 := i_li0
			if t62 < 0 || t62 >= d_A[0] {
				return m.OOB(t62, d_A[0], 0, "A", 0, 0)
			}
			t63 := b_A + int(t62)
			t64 := m.LoadF(t63)
			cs.Fold(checksum.AccDef, math.Float64bits(t64), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t65 := p_n - int64(2)
	t66 := codegen.MaxI(int64(1), t65)
	t67 := p_n - int64(2)
	t68 := codegen.MinI(t67, int64(1))
	for i_li0 := t66; i_li0 <= t68; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t70 := p_tsteps - int64(1)
		t69 := t70 >= int64(0)
		if t69 {
			t71 := -p_tsteps
			t72 := t71 + int64(1)
			t69 = t72 >= int64(0)
		}
		if t69 {
			t73 := i_li0
			if t73 < 0 || t73 >= d_A[0] {
				return m.OOB(t73, d_A[0], 0, "A", 0, 0)
			}
			t74 := b_A + int(t73)
			t75 := m.LoadF(t74)
			cs.Fold(checksum.AccDef, math.Float64bits(t75), p_tsteps)
		}
		t76 := p_tsteps - int64(2)
		if t76 >= int64(0) {
			t77 := i_li0
			if t77 < 0 || t77 >= d_A[0] {
				return m.OOB(t77, d_A[0], 0, "A", 0, 0)
			}
			t78 := b_A + int(t77)
			t79 := m.LoadF(t78)
			cs.Fold(checksum.AccDef, math.Float64bits(t79), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t80 := p_n - int64(2)
	t81 := codegen.MaxI(int64(2), t80)
	t82 := p_n - int64(2)
	for i_li0 := t81; i_li0 <= t82; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t84 := p_tsteps - int64(1)
		t83 := t84 >= int64(0)
		if t83 {
			t85 := -p_tsteps
			t86 := t85 + int64(1)
			t83 = t86 >= int64(0)
		}
		if t83 {
			t87 := i_li0
			if t87 < 0 || t87 >= d_A[0] {
				return m.OOB(t87, d_A[0], 0, "A", 0, 0)
			}
			t88 := b_A + int(t87)
			t89 := m.LoadF(t88)
			cs.Fold(checksum.AccDef, math.Float64bits(t89), p_tsteps)
		}
		t90 := p_tsteps - int64(2)
		if t90 >= int64(0) {
			t91 := i_li0
			if t91 < 0 || t91 >= d_A[0] {
				return m.OOB(t91, d_A[0], 0, "A", 0, 0)
			}
			t92 := b_A + int(t91)
			t93 := m.LoadF(t92)
			cs.Fold(checksum.AccDef, math.Float64bits(t93), int64(1))
		}
		t95 := p_tsteps - int64(1)
		t94 := t95 >= int64(0)
		if t94 {
			t96 := -p_tsteps
			t97 := t96 + int64(1)
			t94 = t97 >= int64(0)
		}
		if t94 {
			t98 := i_li0
			if t98 < 0 || t98 >= d_A[0] {
				return m.OOB(t98, d_A[0], 0, "A", 0, 0)
			}
			t99 := b_A + int(t98)
			t100 := m.LoadF(t99)
			cs.Fold(checksum.AccDef, math.Float64bits(t100), p_tsteps)
		}
		t101 := p_tsteps - int64(2)
		if t101 >= int64(0) {
			t102 := i_li0
			if t102 < 0 || t102 >= d_A[0] {
				return m.OOB(t102, d_A[0], 0, "A", 0, 0)
			}
			t103 := b_A + int(t102)
			t104 := m.LoadF(t103)
			cs.Fold(checksum.AccDef, math.Float64bits(t104), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t105 := p_n - int64(1)
	t106 := codegen.MaxI(int64(2), t105)
	t107 := p_n - int64(1)
	for i_li0 := t106; i_li0 <= t107; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t108 := p_tsteps - int64(1)
		if t108 >= int64(0) {
			t109 := i_li0
			if t109 < 0 || t109 >= d_A[0] {
				return m.OOB(t109, d_A[0], 0, "A", 0, 0)
			}
			t110 := b_A + int(t109)
			t111 := m.LoadF(t110)
			cs.Fold(checksum.AccDef, math.Float64bits(t111), p_tsteps)
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t114 := p_n - int64(2)
	for i_i := int64(1); i_i <= t114; i_i++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t115 := i_i - int64(1)
		t116 := t115
		if t116 < 0 || t116 >= d_A[0] {
			return m.OOB(t116, d_A[0], 0, "A", 6, 17)
		}
		t117 := b_A + int(t116)
		r_A_r := m.LoadF(t117)
		t118 := i_i
		if t118 < 0 || t118 >= d_A[0] {
			return m.OOB(t118, d_A[0], 0, "A", 6, 28)
		}
		t119 := b_A + int(t118)
		r_A_r2 := m.LoadF(t119)
		t120 := i_i + int64(1)
		t121 := t120
		if t121 < 0 || t121 >= d_A[0] {
			return m.OOB(t121, d_A[0], 0, "A", 6, 35)
		}
		t122 := b_A + int(t121)
		r_A_r3 := m.LoadF(t122)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
		t123 := float64(r_A_r + r_A_r2)
		t124 := float64(t123 + r_A_r3)
		if float64(3) == 0 {
			return m.DivZero(6, 45)
		}
		t125 := float64(t124 / float64(3))
		r_B_w := t125
		t126 := i_i
		if t126 < 0 || t126 >= d_B[0] {
			return m.OOB(t126, d_B[0], 0, "B", 6, 9)
		}
		t127 := b_B + int(t126)
		m.StoreF(t127, r_B_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
	}
	return nil
}

func run_jacobi1d_resilientopt_n8(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t128 := p_n - int64(3)
	t129 := codegen.MinI(t128, int64(1))
	for i_i := int64(1); i_i <= t129; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t130 := i_i
		if t130 < 0 || t130 >= d_B[0] {
			return m.OOB(t130, d_B[0], 0, "B", 9, 16)
		}
		t131 := b_B + int(t130)
		r_B_r := m.LoadF(t131)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
		r_A_w := r_B_r
		t132 := i_i
		if t132 < 0 || t132 >= d_A[0] {
			return m.OOB(t132, d_A[0], 0, "A", 9, 9)
		}
		t133 := b_A + int(t132)
		m.StoreF(t133, r_A_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
	}
	return nil
}

func run_jacobi1d_resilientopt_n9(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t134 := p_n - int64(3)
	for i_i := int64(2); i_i <= t134; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t135 := i_i
		if t135 < 0 || t135 >= d_B[0] {
			return m.OOB(t135, d_B[0], 0, "B", 9, 16)
		}
		t136 := b_B + int(t135)
		r_B_r := m.LoadF(t136)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
		r_A_w := r_B_r
		t137 := i_i
		if t137 < 0 || t137 >= d_A[0] {
			return m.OOB(t137, d_A[0], 0, "A", 9, 9)
		}
		t138 := b_A + int(t137)
		m.StoreF(t138, r_A_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
	}
	return nil
}

func run_jacobi1d_resilientopt_n10(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t139 := p_n - int64(2)
	t140 := codegen.MaxI(int64(1), t139)
	t141 := p_n - int64(2)
	t142 := codegen.MinI(t141, int64(1))
	for i_i := t140; i_i <= t142; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t143 := i_i
		if t143 < 0 || t143 >= d_B[0] {
			return m.OOB(t143, d_B[0], 0, "B", 9, 16)
		}
		t144 := b_B + int(t143)
		r_B_r := m.LoadF(t144)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
		r_A_w := r_B_r
		t145 := i_i
		if t145 < 0 || t145 >= d_A[0] {
			return m.OOB(t145, d_A[0], 0, "A", 9, 9)
		}
		t146 := b_A + int(t145)
		m.StoreF(t146, r_A_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
	}
	return nil
}

func run_jacobi1d_resilientopt_n11(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t147 := p_n - int64(2)
	t148 := codegen.MaxI(int64(2), t147)
	t149 := p_n - int64(2)
	for i_i := t148; i_i <= t149; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t150 := i_i
		if t150 < 0 || t150 >= d_B[0] {
			return m.OOB(t150, d_B[0], 0, "B", 9, 16)
		}
		t151 := b_B + int(t150)
		r_B_r := m.LoadF(t151)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
		r_A_w := r_B_r
		t152 := i_i
		if t152 < 0 || t152 >= d_A[0] {
			return m.OOB(t152, d_A[0], 0, "A", 9, 9)
		}
		t153 := b_A + int(t152)
		m.StoreF(t153, r_A_w)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
	}
	return nil
}

func run_jacobi1d_resilientopt_n12(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t154 := p_tsteps - int64(2)
	t155 := codegen.MaxI(int64(0), t154)
	t156 := p_tsteps - int64(2)
	t157 := codegen.MinI(t156, int64(0))
	for i_t := t155; i_t <= t157; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t158 := p_n - int64(2)
		for i_i := int64(1); i_i <= t158; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t159 := i_i - int64(1)
			t160 := t159
			if t160 < 0 || t160 >= d_A[0] {
				return m.OOB(t160, d_A[0], 0, "A", 6, 17)
			}
			t161 := b_A + int(t160)
			r_A_r := m.LoadF(t161)
			t162 := i_i
			if t162 < 0 || t162 >= d_A[0] {
				return m.OOB(t162, d_A[0], 0, "A", 6, 28)
			}
			t163 := b_A + int(t162)
			r_A_r2 := m.LoadF(t163)
			t164 := i_i + int64(1)
			t165 := t164
			if t165 < 0 || t165 >= d_A[0] {
				return m.OOB(t165, d_A[0], 0, "A", 6, 35)
			}
			t166 := b_A + int(t165)
			r_A_r3 := m.LoadF(t166)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			t167 := float64(r_A_r + r_A_r2)
			t168 := float64(t167 + r_A_r3)
			if float64(3) == 0 {
				return m.DivZero(6, 45)
			}
			t169 := float64(t168 / float64(3))
			r_B_w := t169
			t170 := i_i
			if t170 < 0 || t170 >= d_B[0] {
				return m.OOB(t170, d_B[0], 0, "B", 6, 9)
			}
			t171 := b_B + int(t170)
			m.StoreF(t171, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t172 := p_n - int64(3)
		t173 := codegen.MinI(t172, int64(1))
		for i_i := int64(1); i_i <= t173; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t174 := i_i
			if t174 < 0 || t174 >= d_B[0] {
				return m.OOB(t174, d_B[0], 0, "B", 9, 16)
			}
			t175 := b_B + int(t174)
			r_B_r := m.LoadF(t175)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t176 := i_i
			if t176 < 0 || t176 >= d_A[0] {
				return m.OOB(t176, d_A[0], 0, "A", 9, 9)
			}
			t177 := b_A + int(t176)
			m.StoreF(t177, r_A_w)
			t178 := -i_t
			t179 := t178 + p_tsteps
			t180 := t179 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t180)
			t181 := -i_t
			t182 := t181 + p_tsteps
			t183 := t182 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t183)
		}
		t184 := p_n - int64(3)
		for i_i := int64(2); i_i <= t184; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t185 := i_i
			if t185 < 0 || t185 >= d_B[0] {
				return m.OOB(t185, d_B[0], 0, "B", 9, 16)
			}
			t186 := b_B + int(t185)
			r_B_r := m.LoadF(t186)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t187 := i_i
			if t187 < 0 || t187 >= d_A[0] {
				return m.OOB(t187, d_A[0], 0, "A", 9, 9)
			}
			t188 := b_A + int(t187)
			m.StoreF(t188, r_A_w)
			t189 := -i_t
			t190 := t189 + p_tsteps
			t191 := t190 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t191)
			t192 := -i_t
			t193 := t192 + p_tsteps
			t194 := t193 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t194)
			t195 := -i_t
			t196 := t195 + p_tsteps
			t197 := t196 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t197)
		}
		t198 := p_n - int64(2)
		t199 := codegen.MaxI(int64(1), t198)
		t200 := p_n - int64(2)
		t201 := codegen.MinI(t200, int64(1))
		for i_i := t199; i_i <= t201; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t202 := i_i
			if t202 < 0 || t202 >= d_B[0] {
				return m.OOB(t202, d_B[0], 0, "B", 9, 16)
			}
			t203 := b_B + int(t202)
			r_B_r := m.LoadF(t203)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t204 := i_i
			if t204 < 0 || t204 >= d_A[0] {
				return m.OOB(t204, d_A[0], 0, "A", 9, 9)
			}
			t205 := b_A + int(t204)
			m.StoreF(t205, r_A_w)
			t206 := -i_t
			t207 := t206 + p_tsteps
			t208 := t207 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t208)
		}
		t209 := p_n - int64(2)
		t210 := codegen.MaxI(int64(2), t209)
		t211 := p_n - int64(2)
		for i_i := t210; i_i <= t211; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t212 := i_i
			if t212 < 0 || t212 >= d_B[0] {
				return m.OOB(t212, d_B[0], 0, "B", 9, 16)
			}
			t213 := b_B + int(t212)
			r_B_r := m.LoadF(t213)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t214 := i_i
			if t214 < 0 || t214 >= d_A[0] {
				return m.OOB(t214, d_A[0], 0, "A", 9, 9)
			}
			t215 := b_A + int(t214)
			m.StoreF(t215, r_A_w)
			t216 := -i_t
			t217 := t216 + p_tsteps
			t218 := t217 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t218)
			t219 := -i_t
			t220 := t219 + p_tsteps
			t221 := t220 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t221)
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n13(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t222 := p_tsteps - int64(1)
	t223 := codegen.MaxI(int64(0), t222)
	t224 := p_tsteps - int64(1)
	t225 := codegen.MinI(t224, int64(0))
	for i_t := t223; i_t <= t225; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t226 := p_n - int64(2)
		for i_i := int64(1); i_i <= t226; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t227 := i_i - int64(1)
			t228 := t227
			if t228 < 0 || t228 >= d_A[0] {
				return m.OOB(t228, d_A[0], 0, "A", 6, 17)
			}
			t229 := b_A + int(t228)
			r_A_r := m.LoadF(t229)
			t230 := i_i
			if t230 < 0 || t230 >= d_A[0] {
				return m.OOB(t230, d_A[0], 0, "A", 6, 28)
			}
			t231 := b_A + int(t230)
			r_A_r2 := m.LoadF(t231)
			t232 := i_i + int64(1)
			t233 := t232
			if t233 < 0 || t233 >= d_A[0] {
				return m.OOB(t233, d_A[0], 0, "A", 6, 35)
			}
			t234 := b_A + int(t233)
			r_A_r3 := m.LoadF(t234)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			t235 := float64(r_A_r + r_A_r2)
			t236 := float64(t235 + r_A_r3)
			if float64(3) == 0 {
				return m.DivZero(6, 45)
			}
			t237 := float64(t236 / float64(3))
			r_B_w := t237
			t238 := i_i
			if t238 < 0 || t238 >= d_B[0] {
				return m.OOB(t238, d_B[0], 0, "B", 6, 9)
			}
			t239 := b_B + int(t238)
			m.StoreF(t239, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t240 := p_n - int64(2)
		for i_i := int64(1); i_i <= t240; i_i++ {
			if err := m.Tick(8, 3); err != nil {
				return err
			}
			t241 := i_i
			if t241 < 0 || t241 >= d_B[0] {
				return m.OOB(t241, d_B[0], 0, "B", 9, 16)
			}
			t242 := b_B + int(t241)
			r_B_r := m.LoadF(t242)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t243 := i_i
			if t243 < 0 || t243 >= d_A[0] {
				return m.OOB(t243, d_A[0], 0, "A", 9, 9)
			}
			t244 := b_A + int(t243)
			m.StoreF(t244, r_A_w)
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n14(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t245 := p_tsteps - int64(3)
	for i_t := int64(1); i_t <= t245; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t246 := p_n - int64(2)
		for i_i := int64(1); i_i <= t246; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t247 := i_i - int64(1)
			t248 := t247
			if t248 < 0 || t248 >= d_A[0] {
				return m.OOB(t248, d_A[0], 0, "A", 6, 17)
			}
			t249 := b_A + int(t248)
			r_A_r := m.LoadF(t249)
			t250 := i_i
			if t250 < 0 || t250 >= d_A[0] {
				return m.OOB(t250, d_A[0], 0, "A", 6, 28)
			}
			t251 := b_A + int(t250)
			r_A_r2 := m.LoadF(t251)
			t252 := i_i + int64(1)
			t253 := t252
			if t253 < 0 || t253 >= d_A[0] {
				return m.OOB(t253, d_A[0], 0, "A", 6, 35)
			}
			t254 := b_A + int(t253)
			r_A_r3 := m.LoadF(t254)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			t255 := float64(r_A_r + r_A_r2)
			t256 := float64(t255 + r_A_r3)
			if float64(3) == 0 {
				return m.DivZero(6, 45)
			}
			t257 := float64(t256 / float64(3))
			r_B_w := t257
			t258 := i_i
			if t258 < 0 || t258 >= d_B[0] {
				return m.OOB(t258, d_B[0], 0, "B", 6, 9)
			}
			t259 := b_B + int(t258)
			m.StoreF(t259, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t260 := p_n - int64(3)
		t261 := codegen.MinI(t260, int64(1))
		for i_i := int64(1); i_i <= t261; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t262 := i_i
			if t262 < 0 || t262 >= d_B[0] {
				return m.OOB(t262, d_B[0], 0, "B", 9, 16)
			}
			t263 := b_B + int(t262)
			r_B_r := m.LoadF(t263)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t264 := i_i
			if t264 < 0 || t264 >= d_A[0] {
				return m.OOB(t264, d_A[0], 0, "A", 9, 9)
			}
			t265 := b_A + int(t264)
			m.StoreF(t265, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t266 := p_n - int64(3)
		for i_i := int64(2); i_i <= t266; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t267 := i_i
			if t267 < 0 || t267 >= d_B[0] {
				return m.OOB(t267, d_B[0], 0, "B", 9, 16)
			}
			t268 := b_B + int(t267)
			r_B_r := m.LoadF(t268)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t269 := i_i
			if t269 < 0 || t269 >= d_A[0] {
				return m.OOB(t269, d_A[0], 0, "A", 9, 9)
			}
			t270 := b_A + int(t269)
			m.StoreF(t270, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t271 := p_n - int64(2)
		t272 := codegen.MaxI(int64(1), t271)
		t273 := p_n - int64(2)
		t274 := codegen.MinI(t273, int64(1))
		for i_i := t272; i_i <= t274; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t275 := i_i
			if t275 < 0 || t275 >= d_B[0] {
				return m.OOB(t275, d_B[0], 0, "B", 9, 16)
			}
			t276 := b_B + int(t275)
			r_B_r := m.LoadF(t276)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t277 := i_i
			if t277 < 0 || t277 >= d_A[0] {
				return m.OOB(t277, d_A[0], 0, "A", 9, 9)
			}
			t278 := b_A + int(t277)
			m.StoreF(t278, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t279 := p_n - int64(2)
		t280 := codegen.MaxI(int64(2), t279)
		t281 := p_n - int64(2)
		for i_i := t280; i_i <= t281; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t282 := i_i
			if t282 < 0 || t282 >= d_B[0] {
				return m.OOB(t282, d_B[0], 0, "B", 9, 16)
			}
			t283 := b_B + int(t282)
			r_B_r := m.LoadF(t283)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t284 := i_i
			if t284 < 0 || t284 >= d_A[0] {
				return m.OOB(t284, d_A[0], 0, "A", 9, 9)
			}
			t285 := b_A + int(t284)
			m.StoreF(t285, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n15(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t286 := p_tsteps - int64(2)
	t287 := codegen.MaxI(int64(1), t286)
	t288 := p_tsteps - int64(2)
	for i_t := t287; i_t <= t288; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t289 := p_n - int64(2)
		for i_i := int64(1); i_i <= t289; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t290 := i_i - int64(1)
			t291 := t290
			if t291 < 0 || t291 >= d_A[0] {
				return m.OOB(t291, d_A[0], 0, "A", 6, 17)
			}
			t292 := b_A + int(t291)
			r_A_r := m.LoadF(t292)
			t293 := i_i
			if t293 < 0 || t293 >= d_A[0] {
				return m.OOB(t293, d_A[0], 0, "A", 6, 28)
			}
			t294 := b_A + int(t293)
			r_A_r2 := m.LoadF(t294)
			t295 := i_i + int64(1)
			t296 := t295
			if t296 < 0 || t296 >= d_A[0] {
				return m.OOB(t296, d_A[0], 0, "A", 6, 35)
			}
			t297 := b_A + int(t296)
			r_A_r3 := m.LoadF(t297)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			t298 := float64(r_A_r + r_A_r2)
			t299 := float64(t298 + r_A_r3)
			if float64(3) == 0 {
				return m.DivZero(6, 45)
			}
			t300 := float64(t299 / float64(3))
			r_B_w := t300
			t301 := i_i
			if t301 < 0 || t301 >= d_B[0] {
				return m.OOB(t301, d_B[0], 0, "B", 6, 9)
			}
			t302 := b_B + int(t301)
			m.StoreF(t302, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t303 := p_n - int64(3)
		t304 := codegen.MinI(t303, int64(1))
		for i_i := int64(1); i_i <= t304; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t305 := i_i
			if t305 < 0 || t305 >= d_B[0] {
				return m.OOB(t305, d_B[0], 0, "B", 9, 16)
			}
			t306 := b_B + int(t305)
			r_B_r := m.LoadF(t306)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t307 := i_i
			if t307 < 0 || t307 >= d_A[0] {
				return m.OOB(t307, d_A[0], 0, "A", 9, 9)
			}
			t308 := b_A + int(t307)
			m.StoreF(t308, r_A_w)
			t309 := -i_t
			t310 := t309 + p_tsteps
			t311 := t310 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t311)
			t312 := -i_t
			t313 := t312 + p_tsteps
			t314 := t313 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t314)
		}
		t315 := p_n - int64(3)
		for i_i := int64(2); i_i <= t315; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t316 := i_i
			if t316 < 0 || t316 >= d_B[0] {
				return m.OOB(t316, d_B[0], 0, "B", 9, 16)
			}
			t317 := b_B + int(t316)
			r_B_r := m.LoadF(t317)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t318 := i_i
			if t318 < 0 || t318 >= d_A[0] {
				return m.OOB(t318, d_A[0], 0, "A", 9, 9)
			}
			t319 := b_A + int(t318)
			m.StoreF(t319, r_A_w)
			t320 := -i_t
			t321 := t320 + p_tsteps
			t322 := t321 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t322)
			t323 := -i_t
			t324 := t323 + p_tsteps
			t325 := t324 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t325)
			t326 := -i_t
			t327 := t326 + p_tsteps
			t328 := t327 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t328)
		}
		t329 := p_n - int64(2)
		t330 := codegen.MaxI(int64(1), t329)
		t331 := p_n - int64(2)
		t332 := codegen.MinI(t331, int64(1))
		for i_i := t330; i_i <= t332; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t333 := i_i
			if t333 < 0 || t333 >= d_B[0] {
				return m.OOB(t333, d_B[0], 0, "B", 9, 16)
			}
			t334 := b_B + int(t333)
			r_B_r := m.LoadF(t334)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t335 := i_i
			if t335 < 0 || t335 >= d_A[0] {
				return m.OOB(t335, d_A[0], 0, "A", 9, 9)
			}
			t336 := b_A + int(t335)
			m.StoreF(t336, r_A_w)
			t337 := -i_t
			t338 := t337 + p_tsteps
			t339 := t338 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t339)
		}
		t340 := p_n - int64(2)
		t341 := codegen.MaxI(int64(2), t340)
		t342 := p_n - int64(2)
		for i_i := t341; i_i <= t342; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t343 := i_i
			if t343 < 0 || t343 >= d_B[0] {
				return m.OOB(t343, d_B[0], 0, "B", 9, 16)
			}
			t344 := b_B + int(t343)
			r_B_r := m.LoadF(t344)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t345 := i_i
			if t345 < 0 || t345 >= d_A[0] {
				return m.OOB(t345, d_A[0], 0, "A", 9, 9)
			}
			t346 := b_A + int(t345)
			m.StoreF(t346, r_A_w)
			t347 := -i_t
			t348 := t347 + p_tsteps
			t349 := t348 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t349)
			t350 := -i_t
			t351 := t350 + p_tsteps
			t352 := t351 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t352)
		}
	}
	return nil
}

func run_jacobi1d_resilientopt_n16(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t353 := p_tsteps - int64(1)
	t354 := codegen.MaxI(int64(1), t353)
	t355 := p_tsteps - int64(1)
	for i_t := t354; i_t <= t355; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t356 := p_n - int64(2)
		for i_i := int64(1); i_i <= t356; i_i++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t357 := i_i - int64(1)
			t358 := t357
			if t358 < 0 || t358 >= d_A[0] {
				return m.OOB(t358, d_A[0], 0, "A", 6, 17)
			}
			t359 := b_A + int(t358)
			r_A_r := m.LoadF(t359)
			t360 := i_i
			if t360 < 0 || t360 >= d_A[0] {
				return m.OOB(t360, d_A[0], 0, "A", 6, 28)
			}
			t361 := b_A + int(t360)
			r_A_r2 := m.LoadF(t361)
			t362 := i_i + int64(1)
			t363 := t362
			if t363 < 0 || t363 >= d_A[0] {
				return m.OOB(t363, d_A[0], 0, "A", 6, 35)
			}
			t364 := b_A + int(t363)
			r_A_r3 := m.LoadF(t364)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			t365 := float64(r_A_r + r_A_r2)
			t366 := float64(t365 + r_A_r3)
			if float64(3) == 0 {
				return m.DivZero(6, 45)
			}
			t367 := float64(t366 / float64(3))
			r_B_w := t367
			t368 := i_i
			if t368 < 0 || t368 >= d_B[0] {
				return m.OOB(t368, d_B[0], 0, "B", 6, 9)
			}
			t369 := b_B + int(t368)
			m.StoreF(t369, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t370 := p_n - int64(2)
		for i_i := int64(1); i_i <= t370; i_i++ {
			if err := m.Tick(8, 3); err != nil {
				return err
			}
			t371 := i_i
			if t371 < 0 || t371 >= d_B[0] {
				return m.OOB(t371, d_B[0], 0, "B", 9, 16)
			}
			t372 := b_B + int(t371)
			r_B_r := m.LoadF(t372)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			r_A_w := r_B_r
			t373 := i_i
			if t373 < 0 || t373 >= d_A[0] {
				return m.OOB(t373, d_A[0], 0, "A", 9, 9)
			}
			t374 := b_A + int(t373)
			m.StoreF(t374, r_A_w)
		}
	}
	return nil
}
