// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_seidel_original executes the Original variant of the seidel benchmark natively.
func run_seidel_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
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
			t3 := p_n - int64(2)
			for i_j := int64(1); i_j <= t3; i_j++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t4 := i_i - int64(1)
				t5 := t4
				if t5 < 0 || t5 >= d_A[0] {
					return m.OOB(t5, d_A[0], 0, "A", 7, 22)
				}
				t6 := i_j - int64(1)
				t7 := t6
				if t7 < 0 || t7 >= d_A[1] {
					return m.OOB(t7, d_A[1], 1, "A", 7, 22)
				}
				t8 := b_A + int((t5)*d_A[1]+t7)
				t9 := m.LoadF(t8)
				t10 := i_i - int64(1)
				t11 := t10
				if t11 < 0 || t11 >= d_A[0] {
					return m.OOB(t11, d_A[0], 0, "A", 7, 40)
				}
				t12 := i_j
				if t12 < 0 || t12 >= d_A[1] {
					return m.OOB(t12, d_A[1], 1, "A", 7, 40)
				}
				t13 := b_A + int((t11)*d_A[1]+t12)
				t14 := m.LoadF(t13)
				t15 := float64(t9 + t14)
				t16 := i_i - int64(1)
				t17 := t16
				if t17 < 0 || t17 >= d_A[0] {
					return m.OOB(t17, d_A[0], 0, "A", 7, 54)
				}
				t18 := i_j + int64(1)
				t19 := t18
				if t19 < 0 || t19 >= d_A[1] {
					return m.OOB(t19, d_A[1], 1, "A", 7, 54)
				}
				t20 := b_A + int((t17)*d_A[1]+t19)
				t21 := m.LoadF(t20)
				t22 := float64(t15 + t21)
				t23 := i_i
				if t23 < 0 || t23 >= d_A[0] {
					return m.OOB(t23, d_A[0], 0, "A", 7, 72)
				}
				t24 := i_j - int64(1)
				t25 := t24
				if t25 < 0 || t25 >= d_A[1] {
					return m.OOB(t25, d_A[1], 1, "A", 7, 72)
				}
				t26 := b_A + int((t23)*d_A[1]+t25)
				t27 := m.LoadF(t26)
				t28 := float64(t22 + t27)
				t29 := i_i
				if t29 < 0 || t29 >= d_A[0] {
					return m.OOB(t29, d_A[0], 0, "A", 7, 86)
				}
				t30 := i_j
				if t30 < 0 || t30 >= d_A[1] {
					return m.OOB(t30, d_A[1], 1, "A", 7, 86)
				}
				t31 := b_A + int((t29)*d_A[1]+t30)
				t32 := m.LoadF(t31)
				t33 := float64(t28 + t32)
				t34 := i_i
				if t34 < 0 || t34 >= d_A[0] {
					return m.OOB(t34, d_A[0], 0, "A", 7, 96)
				}
				t35 := i_j + int64(1)
				t36 := t35
				if t36 < 0 || t36 >= d_A[1] {
					return m.OOB(t36, d_A[1], 1, "A", 7, 96)
				}
				t37 := b_A + int((t34)*d_A[1]+t36)
				t38 := m.LoadF(t37)
				t39 := float64(t33 + t38)
				t40 := i_i + int64(1)
				t41 := t40
				if t41 < 0 || t41 >= d_A[0] {
					return m.OOB(t41, d_A[0], 0, "A", 7, 110)
				}
				t42 := i_j - int64(1)
				t43 := t42
				if t43 < 0 || t43 >= d_A[1] {
					return m.OOB(t43, d_A[1], 1, "A", 7, 110)
				}
				t44 := b_A + int((t41)*d_A[1]+t43)
				t45 := m.LoadF(t44)
				t46 := float64(t39 + t45)
				t47 := i_i + int64(1)
				t48 := t47
				if t48 < 0 || t48 >= d_A[0] {
					return m.OOB(t48, d_A[0], 0, "A", 7, 128)
				}
				t49 := i_j
				if t49 < 0 || t49 >= d_A[1] {
					return m.OOB(t49, d_A[1], 1, "A", 7, 128)
				}
				t50 := b_A + int((t48)*d_A[1]+t49)
				t51 := m.LoadF(t50)
				t52 := float64(t46 + t51)
				t53 := i_i + int64(1)
				t54 := t53
				if t54 < 0 || t54 >= d_A[0] {
					return m.OOB(t54, d_A[0], 0, "A", 7, 142)
				}
				t55 := i_j + int64(1)
				t56 := t55
				if t56 < 0 || t56 >= d_A[1] {
					return m.OOB(t56, d_A[1], 1, "A", 7, 142)
				}
				t57 := b_A + int((t54)*d_A[1]+t56)
				t58 := m.LoadF(t57)
				t59 := float64(t52 + t58)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t60 := float64(t59 / float64(9))
				t61 := i_i
				if t61 < 0 || t61 >= d_A[0] {
					return m.OOB(t61, d_A[0], 0, "A", 7, 11)
				}
				t62 := i_j
				if t62 < 0 || t62 >= d_A[1] {
					return m.OOB(t62, d_A[1], 1, "A", 7, 11)
				}
				t63 := b_A + int((t61)*d_A[1]+t62)
				m.StoreF(t63, t60)
			}
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_seidel_resilient executes the Resilient variant of the seidel benchmark natively.
func run_seidel_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_seidel_resilient_n1(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		t338 := p_tsteps - int64(1)
		m.SetBounds(int64(0), t338)
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
		if err := run_seidel_resilient_n5(m, &cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
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

func run_seidel_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t1 := p_n - int64(1)
	for i_li0 := int64(0); i_li0 <= t1; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilient_n2(m, cs, p_tsteps, p_n, b_A, d_A, i_li0); err != nil {
			return err
		}
	}
	return nil
}

func run_seidel_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_li0 int64) error {
	t2 := p_n - int64(1)
	for i_li1 := int64(0); i_li1 <= t2; i_li1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilient_n3(m, cs, p_tsteps, p_n, b_A, d_A, i_li0, i_li1); err != nil {
			return err
		}
		if err := run_seidel_resilient_n4(m, cs, p_tsteps, p_n, b_A, d_A, i_li0, i_li1); err != nil {
			return err
		}
	}
	return nil
}

func run_seidel_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_li0 int64, i_li1 int64) error {
	t5 := -i_li1
	t6 := t5 + p_n
	t7 := t6 - int64(3)
	t4 := t7 >= int64(0)
	if t4 {
		t8 := -i_li0
		t4 = t8 >= int64(0)
	}
	t3 := t4
	if t3 {
		t9 := p_tsteps - int64(1)
		t3 = t9 >= int64(0)
	}
	if t3 {
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
		cs.Fold(checksum.AccDef, math.Float64bits(t13), p_tsteps)
	}
	t17 := -i_li0
	t18 := t17 + p_n
	t19 := t18 - int64(3)
	t16 := t19 >= int64(0)
	if t16 {
		t20 := i_li0 - int64(1)
		t16 = t20 >= int64(0)
	}
	t15 := t16
	if t15 {
		t21 := -i_li1
		t15 = t21 >= int64(0)
	}
	t14 := t15
	if t14 {
		t22 := p_tsteps - int64(1)
		t14 = t22 >= int64(0)
	}
	if t14 {
		t23 := i_li0
		if t23 < 0 || t23 >= d_A[0] {
			return m.OOB(t23, d_A[0], 0, "A", 0, 0)
		}
		t24 := i_li1
		if t24 < 0 || t24 >= d_A[1] {
			return m.OOB(t24, d_A[1], 1, "A", 0, 0)
		}
		t25 := b_A + int((t23)*d_A[1]+t24)
		t26 := m.LoadF(t25)
		cs.Fold(checksum.AccDef, math.Float64bits(t26), p_tsteps)
	}
	t30 := i_li1 - int64(1)
	t29 := t30 >= int64(0)
	if t29 {
		t31 := -i_li1
		t32 := t31 + p_n
		t33 := t32 - int64(2)
		t29 = t33 >= int64(0)
	}
	t28 := t29
	if t28 {
		t34 := -i_li0
		t28 = t34 >= int64(0)
	}
	t27 := t28
	if t27 {
		t35 := p_tsteps - int64(1)
		t27 = t35 >= int64(0)
	}
	if t27 {
		t36 := i_li0
		if t36 < 0 || t36 >= d_A[0] {
			return m.OOB(t36, d_A[0], 0, "A", 0, 0)
		}
		t37 := i_li1
		if t37 < 0 || t37 >= d_A[1] {
			return m.OOB(t37, d_A[1], 1, "A", 0, 0)
		}
		t38 := b_A + int((t36)*d_A[1]+t37)
		t39 := m.LoadF(t38)
		cs.Fold(checksum.AccDef, math.Float64bits(t39), p_tsteps)
	}
	t42 := i_li1 - int64(2)
	t41 := t42 >= int64(0)
	if t41 {
		t43 := -i_li0
		t41 = t43 >= int64(0)
	}
	t40 := t41
	if t40 {
		t44 := p_tsteps - int64(1)
		t40 = t44 >= int64(0)
	}
	if t40 {
		t45 := i_li0
		if t45 < 0 || t45 >= d_A[0] {
			return m.OOB(t45, d_A[0], 0, "A", 0, 0)
		}
		t46 := i_li1
		if t46 < 0 || t46 >= d_A[1] {
			return m.OOB(t46, d_A[1], 1, "A", 0, 0)
		}
		t47 := b_A + int((t45)*d_A[1]+t46)
		t48 := m.LoadF(t47)
		cs.Fold(checksum.AccDef, math.Float64bits(t48), p_tsteps)
	}
	t52 := -i_li0
	t53 := t52 + p_n
	t54 := t53 - int64(3)
	t51 := t54 >= int64(0)
	if t51 {
		t55 := i_li0 - int64(1)
		t51 = t55 >= int64(0)
	}
	t50 := t51
	if t50 {
		t56 := i_li1 - p_n
		t57 := t56 + int64(1)
		t50 = t57 >= int64(0)
	}
	t49 := t50
	if t49 {
		t58 := p_tsteps - int64(1)
		t49 = t58 >= int64(0)
	}
	if t49 {
		t59 := i_li0
		if t59 < 0 || t59 >= d_A[0] {
			return m.OOB(t59, d_A[0], 0, "A", 0, 0)
		}
		t60 := i_li1
		if t60 < 0 || t60 >= d_A[1] {
			return m.OOB(t60, d_A[1], 1, "A", 0, 0)
		}
		t61 := b_A + int((t59)*d_A[1]+t60)
		t62 := m.LoadF(t61)
		cs.Fold(checksum.AccDef, math.Float64bits(t62), p_tsteps)
	}
	t66 := i_li0 - int64(1)
	t65 := t66 >= int64(0)
	if t65 {
		t67 := -i_li0
		t68 := t67 + p_n
		t69 := t68 - int64(2)
		t65 = t69 >= int64(0)
	}
	t64 := t65
	if t64 {
		t70 := -i_li1
		t64 = t70 >= int64(0)
	}
	t63 := t64
	if t63 {
		t71 := p_tsteps - int64(1)
		t63 = t71 >= int64(0)
	}
	if t63 {
		t72 := i_li0
		if t72 < 0 || t72 >= d_A[0] {
			return m.OOB(t72, d_A[0], 0, "A", 0, 0)
		}
		t73 := i_li1
		if t73 < 0 || t73 >= d_A[1] {
			return m.OOB(t73, d_A[1], 1, "A", 0, 0)
		}
		t74 := b_A + int((t72)*d_A[1]+t73)
		t75 := m.LoadF(t74)
		cs.Fold(checksum.AccDef, math.Float64bits(t75), p_tsteps)
	}
	t81 := i_li0 - int64(1)
	t80 := t81 >= int64(0)
	if t80 {
		t82 := -i_li0
		t83 := t82 + p_n
		t84 := t83 - int64(2)
		t80 = t84 >= int64(0)
	}
	t79 := t80
	if t79 {
		t85 := i_li1 - int64(1)
		t79 = t85 >= int64(0)
	}
	t78 := t79
	if t78 {
		t86 := -i_li1
		t87 := t86 + p_n
		t88 := t87 - int64(2)
		t78 = t88 >= int64(0)
	}
	t77 := t78
	if t77 {
		t89 := p_tsteps - int64(1)
		t77 = t89 >= int64(0)
	}
	t76 := t77
	if t76 {
		t90 := -p_tsteps
		t91 := t90 + int64(1)
		t76 = t91 >= int64(0)
	}
	if t76 {
		t92 := i_li0
		if t92 < 0 || t92 >= d_A[0] {
			return m.OOB(t92, d_A[0], 0, "A", 0, 0)
		}
		t93 := i_li1
		if t93 < 0 || t93 >= d_A[1] {
			return m.OOB(t93, d_A[1], 1, "A", 0, 0)
		}
		t94 := b_A + int((t92)*d_A[1]+t93)
		t95 := m.LoadF(t94)
		cs.Fold(checksum.AccDef, math.Float64bits(t95), p_tsteps)
	}
	t100 := i_li0 - int64(1)
	t99 := t100 >= int64(0)
	if t99 {
		t101 := -i_li0
		t102 := t101 + p_n
		t103 := t102 - int64(2)
		t99 = t103 >= int64(0)
	}
	t98 := t99
	if t98 {
		t104 := i_li1 - int64(1)
		t98 = t104 >= int64(0)
	}
	t97 := t98
	if t97 {
		t105 := -i_li1
		t106 := t105 + p_n
		t107 := t106 - int64(2)
		t97 = t107 >= int64(0)
	}
	t96 := t97
	if t96 {
		t108 := p_tsteps - int64(2)
		t96 = t108 >= int64(0)
	}
	if t96 {
		t109 := i_li0
		if t109 < 0 || t109 >= d_A[0] {
			return m.OOB(t109, d_A[0], 0, "A", 0, 0)
		}
		t110 := i_li1
		if t110 < 0 || t110 >= d_A[1] {
			return m.OOB(t110, d_A[1], 1, "A", 0, 0)
		}
		t111 := b_A + int((t109)*d_A[1]+t110)
		t112 := m.LoadF(t111)
		cs.Fold(checksum.AccDef, math.Float64bits(t112), int64(1))
	}
	t116 := i_li0 - int64(1)
	t115 := t116 >= int64(0)
	if t115 {
		t117 := -i_li0
		t118 := t117 + p_n
		t119 := t118 - int64(2)
		t115 = t119 >= int64(0)
	}
	t114 := t115
	if t114 {
		t120 := i_li1 - p_n
		t121 := t120 + int64(1)
		t114 = t121 >= int64(0)
	}
	t113 := t114
	if t113 {
		t122 := p_tsteps - int64(1)
		t113 = t122 >= int64(0)
	}
	if t113 {
		t123 := i_li0
		if t123 < 0 || t123 >= d_A[0] {
			return m.OOB(t123, d_A[0], 0, "A", 0, 0)
		}
		t124 := i_li1
		if t124 < 0 || t124 >= d_A[1] {
			return m.OOB(t124, d_A[1], 1, "A", 0, 0)
		}
		t125 := b_A + int((t123)*d_A[1]+t124)
		t126 := m.LoadF(t125)
		cs.Fold(checksum.AccDef, math.Float64bits(t126), p_tsteps)
	}
	t132 := i_li0 - int64(1)
	t131 := t132 >= int64(0)
	if t131 {
		t133 := -i_li0
		t134 := t133 + p_n
		t135 := t134 - int64(2)
		t131 = t135 >= int64(0)
	}
	t130 := t131
	if t130 {
		t136 := i_li1 - int64(2)
		t130 = t136 >= int64(0)
	}
	t129 := t130
	if t129 {
		t137 := -i_li1
		t138 := t137 + p_n
		t139 := t138 - int64(2)
		t129 = t139 >= int64(0)
	}
	t128 := t129
	if t128 {
		t140 := p_tsteps - int64(1)
		t128 = t140 >= int64(0)
	}
	t127 := t128
	if t127 {
		t141 := -p_tsteps
		t142 := t141 + int64(1)
		t127 = t142 >= int64(0)
	}
	if t127 {
		t143 := i_li0
		if t143 < 0 || t143 >= d_A[0] {
			return m.OOB(t143, d_A[0], 0, "A", 0, 0)
		}
		t144 := i_li1
		if t144 < 0 || t144 >= d_A[1] {
			return m.OOB(t144, d_A[1], 1, "A", 0, 0)
		}
		t145 := b_A + int((t143)*d_A[1]+t144)
		t146 := m.LoadF(t145)
		cs.Fold(checksum.AccDef, math.Float64bits(t146), p_tsteps)
	}
	t151 := i_li0 - int64(1)
	t150 := t151 >= int64(0)
	if t150 {
		t152 := -i_li0
		t153 := t152 + p_n
		t154 := t153 - int64(2)
		t150 = t154 >= int64(0)
	}
	t149 := t150
	if t149 {
		t155 := i_li1 - int64(2)
		t149 = t155 >= int64(0)
	}
	t148 := t149
	if t148 {
		t156 := -i_li1
		t157 := t156 + p_n
		t158 := t157 - int64(2)
		t148 = t158 >= int64(0)
	}
	t147 := t148
	if t147 {
		t159 := p_tsteps - int64(2)
		t147 = t159 >= int64(0)
	}
	if t147 {
		t160 := i_li0
		if t160 < 0 || t160 >= d_A[0] {
			return m.OOB(t160, d_A[0], 0, "A", 0, 0)
		}
		t161 := i_li1
		if t161 < 0 || t161 >= d_A[1] {
			return m.OOB(t161, d_A[1], 1, "A", 0, 0)
		}
		t162 := b_A + int((t160)*d_A[1]+t161)
		t163 := m.LoadF(t162)
		cs.Fold(checksum.AccDef, math.Float64bits(t163), int64(1))
	}
	t166 := -i_li1
	t167 := t166 + p_n
	t168 := t167 - int64(3)
	t165 := t168 >= int64(0)
	if t165 {
		t169 := i_li0 - p_n
		t170 := t169 + int64(1)
		t165 = t170 >= int64(0)
	}
	t164 := t165
	if t164 {
		t171 := p_tsteps - int64(1)
		t164 = t171 >= int64(0)
	}
	if t164 {
		t172 := i_li0
		if t172 < 0 || t172 >= d_A[0] {
			return m.OOB(t172, d_A[0], 0, "A", 0, 0)
		}
		t173 := i_li1
		if t173 < 0 || t173 >= d_A[1] {
			return m.OOB(t173, d_A[1], 1, "A", 0, 0)
		}
		t174 := b_A + int((t172)*d_A[1]+t173)
		t175 := m.LoadF(t174)
		cs.Fold(checksum.AccDef, math.Float64bits(t175), p_tsteps)
	}
	t179 := i_li0 - int64(2)
	t178 := t179 >= int64(0)
	if t178 {
		t180 := -i_li0
		t181 := t180 + p_n
		t182 := t181 - int64(2)
		t178 = t182 >= int64(0)
	}
	t177 := t178
	if t177 {
		t183 := -i_li1
		t177 = t183 >= int64(0)
	}
	t176 := t177
	if t176 {
		t184 := p_tsteps - int64(1)
		t176 = t184 >= int64(0)
	}
	if t176 {
		t185 := i_li0
		if t185 < 0 || t185 >= d_A[0] {
			return m.OOB(t185, d_A[0], 0, "A", 0, 0)
		}
		t186 := i_li1
		if t186 < 0 || t186 >= d_A[1] {
			return m.OOB(t186, d_A[1], 1, "A", 0, 0)
		}
		t187 := b_A + int((t185)*d_A[1]+t186)
		t188 := m.LoadF(t187)
		cs.Fold(checksum.AccDef, math.Float64bits(t188), p_tsteps)
	}
	t194 := i_li0 - int64(2)
	t193 := t194 >= int64(0)
	if t193 {
		t195 := -i_li1
		t196 := t195 + p_n
		t197 := t196 - int64(3)
		t193 = t197 >= int64(0)
	}
	t192 := t193
	if t192 {
		t198 := -i_li0
		t199 := t198 + p_n
		t200 := t199 - int64(2)
		t192 = t200 >= int64(0)
	}
	t191 := t192
	if t191 {
		t201 := i_li1 - int64(1)
		t191 = t201 >= int64(0)
	}
	t190 := t191
	if t190 {
		t202 := p_tsteps - int64(1)
		t190 = t202 >= int64(0)
	}
	t189 := t190
	if t189 {
		t203 := -p_tsteps
		t204 := t203 + int64(1)
		t189 = t204 >= int64(0)
	}
	if t189 {
		t205 := i_li0
		if t205 < 0 || t205 >= d_A[0] {
			return m.OOB(t205, d_A[0], 0, "A", 0, 0)
		}
		t206 := i_li1
		if t206 < 0 || t206 >= d_A[1] {
			return m.OOB(t206, d_A[1], 1, "A", 0, 0)
		}
		t207 := b_A + int((t205)*d_A[1]+t206)
		t208 := m.LoadF(t207)
		cs.Fold(checksum.AccDef, math.Float64bits(t208), p_tsteps)
	}
	t213 := i_li0 - int64(2)
	t212 := t213 >= int64(0)
	if t212 {
		t214 := -i_li1
		t215 := t214 + p_n
		t216 := t215 - int64(3)
		t212 = t216 >= int64(0)
	}
	t211 := t212
	if t211 {
		t217 := -i_li0
		t218 := t217 + p_n
		t219 := t218 - int64(2)
		t211 = t219 >= int64(0)
	}
	t210 := t211
	if t210 {
		t220 := i_li1 - int64(1)
		t210 = t220 >= int64(0)
	}
	t209 := t210
	if t209 {
		t221 := p_tsteps - int64(2)
		t209 = t221 >= int64(0)
	}
	if t209 {
		t222 := i_li0
		if t222 < 0 || t222 >= d_A[0] {
			return m.OOB(t222, d_A[0], 0, "A", 0, 0)
		}
		t223 := i_li1
		if t223 < 0 || t223 >= d_A[1] {
			return m.OOB(t223, d_A[1], 1, "A", 0, 0)
		}
		t224 := b_A + int((t222)*d_A[1]+t223)
		t225 := m.LoadF(t224)
		cs.Fold(checksum.AccDef, math.Float64bits(t225), int64(1))
	}
	t229 := i_li1 - int64(1)
	t228 := t229 >= int64(0)
	if t228 {
		t230 := -i_li1
		t231 := t230 + p_n
		t232 := t231 - int64(2)
		t228 = t232 >= int64(0)
	}
	t227 := t228
	if t227 {
		t233 := i_li0 - p_n
		t234 := t233 + int64(1)
		t227 = t234 >= int64(0)
	}
	t226 := t227
	if t226 {
		t235 := p_tsteps - int64(1)
		t226 = t235 >= int64(0)
	}
	if t226 {
		t236 := i_li0
		if t236 < 0 || t236 >= d_A[0] {
			return m.OOB(t236, d_A[0], 0, "A", 0, 0)
		}
		t237 := i_li1
		if t237 < 0 || t237 >= d_A[1] {
			return m.OOB(t237, d_A[1], 1, "A", 0, 0)
		}
		t238 := b_A + int((t236)*d_A[1]+t237)
		t239 := m.LoadF(t238)
		cs.Fold(checksum.AccDef, math.Float64bits(t239), p_tsteps)
	}
	t245 := i_li0 - int64(2)
	t244 := t245 >= int64(0)
	if t244 {
		t246 := i_li1 - int64(1)
		t244 = t246 >= int64(0)
	}
	t243 := t244
	if t243 {
		t247 := -i_li1
		t248 := t247 + p_n
		t249 := t248 - int64(2)
		t243 = t249 >= int64(0)
	}
	t242 := t243
	if t242 {
		t250 := -i_li0
		t251 := t250 + p_n
		t252 := t251 - int64(2)
		t242 = t252 >= int64(0)
	}
	t241 := t242
	if t241 {
		t253 := p_tsteps - int64(1)
		t241 = t253 >= int64(0)
	}
	t240 := t241
	if t240 {
		t254 := -p_tsteps
		t255 := t254 + int64(1)
		t240 = t255 >= int64(0)
	}
	if t240 {
		t256 := i_li0
		if t256 < 0 || t256 >= d_A[0] {
			return m.OOB(t256, d_A[0], 0, "A", 0, 0)
		}
		t257 := i_li1
		if t257 < 0 || t257 >= d_A[1] {
			return m.OOB(t257, d_A[1], 1, "A", 0, 0)
		}
		t258 := b_A + int((t256)*d_A[1]+t257)
		t259 := m.LoadF(t258)
		cs.Fold(checksum.AccDef, math.Float64bits(t259), p_tsteps)
	}
	t264 := i_li0 - int64(2)
	t263 := t264 >= int64(0)
	if t263 {
		t265 := i_li1 - int64(1)
		t263 = t265 >= int64(0)
	}
	t262 := t263
	if t262 {
		t266 := -i_li1
		t267 := t266 + p_n
		t268 := t267 - int64(2)
		t262 = t268 >= int64(0)
	}
	t261 := t262
	if t261 {
		t269 := -i_li0
		t270 := t269 + p_n
		t271 := t270 - int64(2)
		t261 = t271 >= int64(0)
	}
	t260 := t261
	if t260 {
		t272 := p_tsteps - int64(2)
		t260 = t272 >= int64(0)
	}
	if t260 {
		t273 := i_li0
		if t273 < 0 || t273 >= d_A[0] {
			return m.OOB(t273, d_A[0], 0, "A", 0, 0)
		}
		t274 := i_li1
		if t274 < 0 || t274 >= d_A[1] {
			return m.OOB(t274, d_A[1], 1, "A", 0, 0)
		}
		t275 := b_A + int((t273)*d_A[1]+t274)
		t276 := m.LoadF(t275)
		cs.Fold(checksum.AccDef, math.Float64bits(t276), int64(1))
	}
	t279 := i_li1 - int64(2)
	t278 := t279 >= int64(0)
	if t278 {
		t280 := i_li0 - p_n
		t281 := t280 + int64(1)
		t278 = t281 >= int64(0)
	}
	t277 := t278
	if t277 {
		t282 := p_tsteps - int64(1)
		t277 = t282 >= int64(0)
	}
	if t277 {
		t283 := i_li0
		if t283 < 0 || t283 >= d_A[0] {
			return m.OOB(t283, d_A[0], 0, "A", 0, 0)
		}
		t284 := i_li1
		if t284 < 0 || t284 >= d_A[1] {
			return m.OOB(t284, d_A[1], 1, "A", 0, 0)
		}
		t285 := b_A + int((t283)*d_A[1]+t284)
		t286 := m.LoadF(t285)
		cs.Fold(checksum.AccDef, math.Float64bits(t286), p_tsteps)
	}
	t290 := i_li0 - int64(2)
	t289 := t290 >= int64(0)
	if t289 {
		t291 := -i_li0
		t292 := t291 + p_n
		t293 := t292 - int64(2)
		t289 = t293 >= int64(0)
	}
	t288 := t289
	if t288 {
		t294 := i_li1 - p_n
		t295 := t294 + int64(1)
		t288 = t295 >= int64(0)
	}
	t287 := t288
	if t287 {
		t296 := p_tsteps - int64(1)
		t287 = t296 >= int64(0)
	}
	if t287 {
		t297 := i_li0
		if t297 < 0 || t297 >= d_A[0] {
			return m.OOB(t297, d_A[0], 0, "A", 0, 0)
		}
		t298 := i_li1
		if t298 < 0 || t298 >= d_A[1] {
			return m.OOB(t298, d_A[1], 1, "A", 0, 0)
		}
		t299 := b_A + int((t297)*d_A[1]+t298)
		t300 := m.LoadF(t299)
		cs.Fold(checksum.AccDef, math.Float64bits(t300), p_tsteps)
	}
	t306 := i_li0 - int64(2)
	t305 := t306 >= int64(0)
	if t305 {
		t307 := i_li1 - int64(2)
		t305 = t307 >= int64(0)
	}
	t304 := t305
	if t304 {
		t308 := -i_li0
		t309 := t308 + p_n
		t310 := t309 - int64(2)
		t304 = t310 >= int64(0)
	}
	t303 := t304
	if t303 {
		t311 := -i_li1
		t312 := t311 + p_n
		t313 := t312 - int64(2)
		t303 = t313 >= int64(0)
	}
	t302 := t303
	if t302 {
		t314 := p_tsteps - int64(1)
		t302 = t314 >= int64(0)
	}
	t301 := t302
	if t301 {
		t315 := -p_tsteps
		t316 := t315 + int64(1)
		t301 = t316 >= int64(0)
	}
	if t301 {
		t317 := i_li0
		if t317 < 0 || t317 >= d_A[0] {
			return m.OOB(t317, d_A[0], 0, "A", 0, 0)
		}
		t318 := i_li1
		if t318 < 0 || t318 >= d_A[1] {
			return m.OOB(t318, d_A[1], 1, "A", 0, 0)
		}
		t319 := b_A + int((t317)*d_A[1]+t318)
		t320 := m.LoadF(t319)
		cs.Fold(checksum.AccDef, math.Float64bits(t320), p_tsteps)
	}
	return nil
}

func run_seidel_resilient_n4(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_li0 int64, i_li1 int64) error {
	t325 := i_li0 - int64(2)
	t324 := t325 >= int64(0)
	if t324 {
		t326 := i_li1 - int64(2)
		t324 = t326 >= int64(0)
	}
	t323 := t324
	if t323 {
		t327 := -i_li0
		t328 := t327 + p_n
		t329 := t328 - int64(2)
		t323 = t329 >= int64(0)
	}
	t322 := t323
	if t322 {
		t330 := -i_li1
		t331 := t330 + p_n
		t332 := t331 - int64(2)
		t322 = t332 >= int64(0)
	}
	t321 := t322
	if t321 {
		t333 := p_tsteps - int64(2)
		t321 = t333 >= int64(0)
	}
	if t321 {
		t334 := i_li0
		if t334 < 0 || t334 >= d_A[0] {
			return m.OOB(t334, d_A[0], 0, "A", 0, 0)
		}
		t335 := i_li1
		if t335 < 0 || t335 >= d_A[1] {
			return m.OOB(t335, d_A[1], 1, "A", 0, 0)
		}
		t336 := b_A + int((t334)*d_A[1]+t335)
		t337 := m.LoadF(t336)
		cs.Fold(checksum.AccDef, math.Float64bits(t337), int64(1))
	}
	return nil
}

func run_seidel_resilient_n5(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t339 := p_n - int64(2)
	for i_i := int64(1); i_i <= t339; i_i++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t340 := p_n - int64(2)
		for i_j := int64(1); i_j <= t340; i_j++ {
			if err := m.Tick(6, 5); err != nil {
				return err
			}
			t341 := i_i - int64(1)
			t342 := t341
			if t342 < 0 || t342 >= d_A[0] {
				return m.OOB(t342, d_A[0], 0, "A", 7, 22)
			}
			t343 := i_j - int64(1)
			t344 := t343
			if t344 < 0 || t344 >= d_A[1] {
				return m.OOB(t344, d_A[1], 1, "A", 7, 22)
			}
			t345 := b_A + int((t342)*d_A[1]+t344)
			r_A_r := m.LoadF(t345)
			t346 := i_i - int64(1)
			t347 := t346
			if t347 < 0 || t347 >= d_A[0] {
				return m.OOB(t347, d_A[0], 0, "A", 7, 40)
			}
			t348 := i_j
			if t348 < 0 || t348 >= d_A[1] {
				return m.OOB(t348, d_A[1], 1, "A", 7, 40)
			}
			t349 := b_A + int((t347)*d_A[1]+t348)
			r_A_r2 := m.LoadF(t349)
			t350 := i_i - int64(1)
			t351 := t350
			if t351 < 0 || t351 >= d_A[0] {
				return m.OOB(t351, d_A[0], 0, "A", 7, 54)
			}
			t352 := i_j + int64(1)
			t353 := t352
			if t353 < 0 || t353 >= d_A[1] {
				return m.OOB(t353, d_A[1], 1, "A", 7, 54)
			}
			t354 := b_A + int((t351)*d_A[1]+t353)
			r_A_r3 := m.LoadF(t354)
			t355 := i_i
			if t355 < 0 || t355 >= d_A[0] {
				return m.OOB(t355, d_A[0], 0, "A", 7, 72)
			}
			t356 := i_j - int64(1)
			t357 := t356
			if t357 < 0 || t357 >= d_A[1] {
				return m.OOB(t357, d_A[1], 1, "A", 7, 72)
			}
			t358 := b_A + int((t355)*d_A[1]+t357)
			r_A_r4 := m.LoadF(t358)
			t359 := i_i
			if t359 < 0 || t359 >= d_A[0] {
				return m.OOB(t359, d_A[0], 0, "A", 7, 86)
			}
			t360 := i_j
			if t360 < 0 || t360 >= d_A[1] {
				return m.OOB(t360, d_A[1], 1, "A", 7, 86)
			}
			t361 := b_A + int((t359)*d_A[1]+t360)
			r_A_r5 := m.LoadF(t361)
			t362 := i_i
			if t362 < 0 || t362 >= d_A[0] {
				return m.OOB(t362, d_A[0], 0, "A", 7, 96)
			}
			t363 := i_j + int64(1)
			t364 := t363
			if t364 < 0 || t364 >= d_A[1] {
				return m.OOB(t364, d_A[1], 1, "A", 7, 96)
			}
			t365 := b_A + int((t362)*d_A[1]+t364)
			r_A_r6 := m.LoadF(t365)
			t366 := i_i + int64(1)
			t367 := t366
			if t367 < 0 || t367 >= d_A[0] {
				return m.OOB(t367, d_A[0], 0, "A", 7, 110)
			}
			t368 := i_j - int64(1)
			t369 := t368
			if t369 < 0 || t369 >= d_A[1] {
				return m.OOB(t369, d_A[1], 1, "A", 7, 110)
			}
			t370 := b_A + int((t367)*d_A[1]+t369)
			r_A_r7 := m.LoadF(t370)
			t371 := i_i + int64(1)
			t372 := t371
			if t372 < 0 || t372 >= d_A[0] {
				return m.OOB(t372, d_A[0], 0, "A", 7, 128)
			}
			t373 := i_j
			if t373 < 0 || t373 >= d_A[1] {
				return m.OOB(t373, d_A[1], 1, "A", 7, 128)
			}
			t374 := b_A + int((t372)*d_A[1]+t373)
			r_A_r8 := m.LoadF(t374)
			t375 := i_i + int64(1)
			t376 := t375
			if t376 < 0 || t376 >= d_A[0] {
				return m.OOB(t376, d_A[0], 0, "A", 7, 142)
			}
			t377 := i_j + int64(1)
			t378 := t377
			if t378 < 0 || t378 >= d_A[1] {
				return m.OOB(t378, d_A[1], 1, "A", 7, 142)
			}
			t379 := b_A + int((t376)*d_A[1]+t378)
			r_A_r9 := m.LoadF(t379)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t380 := float64(r_A_r + r_A_r2)
			t381 := float64(t380 + r_A_r3)
			t382 := float64(t381 + r_A_r4)
			t383 := float64(t382 + r_A_r5)
			t384 := float64(t383 + r_A_r6)
			t385 := float64(t384 + r_A_r7)
			t386 := float64(t385 + r_A_r8)
			t387 := float64(t386 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t388 := float64(t387 / float64(9))
			r_A_w := t388
			t389 := i_i
			if t389 < 0 || t389 >= d_A[0] {
				return m.OOB(t389, d_A[0], 0, "A", 7, 11)
			}
			t390 := i_j
			if t390 < 0 || t390 >= d_A[1] {
				return m.OOB(t390, d_A[1], 1, "A", 7, 11)
			}
			t391 := b_A + int((t389)*d_A[1]+t390)
			m.StoreF(t391, r_A_w)
			t394 := -i_i
			t395 := t394 + p_n
			t396 := t395 - int64(3)
			t393 := t396 >= int64(0)
			if t393 {
				t397 := -i_j
				t398 := t397 + p_n
				t399 := t398 - int64(3)
				t393 = t399 >= int64(0)
			}
			t392 := t393
			if t392 {
				t400 := -i_t
				t392 = t400 >= int64(0)
			}
			if t392 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t404 := -i_i
			t405 := t404 + p_n
			t406 := t405 - int64(3)
			t403 := t406 >= int64(0)
			if t403 {
				t407 := -i_j
				t408 := t407 + p_n
				t409 := t408 - int64(3)
				t403 = t409 >= int64(0)
			}
			t402 := t403
			if t402 {
				t410 := i_t - int64(1)
				t402 = t410 >= int64(0)
			}
			t401 := t402
			if t401 {
				t411 := i_t - p_tsteps
				t412 := t411 + int64(1)
				t401 = t412 >= int64(0)
			}
			if t401 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t416 := -i_i
			t417 := t416 + p_n
			t418 := t417 - int64(3)
			t415 := t418 >= int64(0)
			if t415 {
				t419 := -i_j
				t420 := t419 + p_n
				t421 := t420 - int64(3)
				t415 = t421 >= int64(0)
			}
			t414 := t415
			if t414 {
				t422 := i_t - int64(1)
				t414 = t422 >= int64(0)
			}
			t413 := t414
			if t413 {
				t423 := -i_t
				t424 := t423 + p_tsteps
				t425 := t424 - int64(2)
				t413 = t425 >= int64(0)
			}
			if t413 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t427 := -i_i
			t428 := t427 + p_n
			t429 := t428 - int64(3)
			t426 := t429 >= int64(0)
			if t426 {
				t430 := -i_t
				t426 = t430 >= int64(0)
			}
			if t426 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t433 := -i_i
			t434 := t433 + p_n
			t435 := t434 - int64(3)
			t432 := t435 >= int64(0)
			if t432 {
				t436 := i_t - int64(1)
				t432 = t436 >= int64(0)
			}
			t431 := t432
			if t431 {
				t437 := i_t - p_tsteps
				t438 := t437 + int64(1)
				t431 = t438 >= int64(0)
			}
			if t431 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t441 := -i_i
			t442 := t441 + p_n
			t443 := t442 - int64(3)
			t440 := t443 >= int64(0)
			if t440 {
				t444 := i_t - int64(1)
				t440 = t444 >= int64(0)
			}
			t439 := t440
			if t439 {
				t445 := -i_t
				t446 := t445 + p_tsteps
				t447 := t446 - int64(2)
				t439 = t447 >= int64(0)
			}
			if t439 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t450 := -i_i
			t451 := t450 + p_n
			t452 := t451 - int64(3)
			t449 := t452 >= int64(0)
			if t449 {
				t453 := i_j - int64(2)
				t449 = t453 >= int64(0)
			}
			t448 := t449
			if t448 {
				t454 := -i_t
				t448 = t454 >= int64(0)
			}
			if t448 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t458 := -i_i
			t459 := t458 + p_n
			t460 := t459 - int64(3)
			t457 := t460 >= int64(0)
			if t457 {
				t461 := i_j - int64(2)
				t457 = t461 >= int64(0)
			}
			t456 := t457
			if t456 {
				t462 := i_t - int64(1)
				t456 = t462 >= int64(0)
			}
			t455 := t456
			if t455 {
				t463 := i_t - p_tsteps
				t464 := t463 + int64(1)
				t455 = t464 >= int64(0)
			}
			if t455 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t468 := -i_i
			t469 := t468 + p_n
			t470 := t469 - int64(3)
			t467 := t470 >= int64(0)
			if t467 {
				t471 := i_j - int64(2)
				t467 = t471 >= int64(0)
			}
			t466 := t467
			if t466 {
				t472 := i_t - int64(1)
				t466 = t472 >= int64(0)
			}
			t465 := t466
			if t465 {
				t473 := -i_t
				t474 := t473 + p_tsteps
				t475 := t474 - int64(2)
				t465 = t475 >= int64(0)
			}
			if t465 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t477 := -i_j
			t478 := t477 + p_n
			t479 := t478 - int64(3)
			t476 := t479 >= int64(0)
			if t476 {
				t480 := -i_t
				t476 = t480 >= int64(0)
			}
			if t476 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t483 := -i_j
			t484 := t483 + p_n
			t485 := t484 - int64(3)
			t482 := t485 >= int64(0)
			if t482 {
				t486 := i_t - int64(1)
				t482 = t486 >= int64(0)
			}
			t481 := t482
			if t481 {
				t487 := i_t - p_tsteps
				t488 := t487 + int64(1)
				t481 = t488 >= int64(0)
			}
			if t481 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t491 := -i_j
			t492 := t491 + p_n
			t493 := t492 - int64(3)
			t490 := t493 >= int64(0)
			if t490 {
				t494 := i_t - int64(1)
				t490 = t494 >= int64(0)
			}
			t489 := t490
			if t489 {
				t495 := -i_t
				t496 := t495 + p_tsteps
				t497 := t496 - int64(2)
				t489 = t497 >= int64(0)
			}
			if t489 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t499 := -i_t
			t500 := t499 + p_tsteps
			t501 := t500 - int64(2)
			t498 := t501 >= int64(0)
			if t498 {
				t502 := i_t - p_tsteps
				t503 := t502 + int64(2)
				t498 = t503 >= int64(0)
			}
			if t498 {
				t504 := -i_t
				t505 := t504 + p_tsteps
				t506 := t505 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t506)
			}
			t507 := -i_t
			t508 := t507 + p_tsteps
			t509 := t508 - int64(3)
			if t509 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t512 := i_j - int64(2)
			t511 := t512 >= int64(0)
			if t511 {
				t513 := -i_t
				t514 := t513 + p_tsteps
				t515 := t514 - int64(2)
				t511 = t515 >= int64(0)
			}
			t510 := t511
			if t510 {
				t516 := i_t - p_tsteps
				t517 := t516 + int64(2)
				t510 = t517 >= int64(0)
			}
			if t510 {
				t518 := -i_t
				t519 := t518 + p_tsteps
				t520 := t519 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t520)
			}
			t522 := i_j - int64(2)
			t521 := t522 >= int64(0)
			if t521 {
				t523 := -i_t
				t524 := t523 + p_tsteps
				t525 := t524 - int64(3)
				t521 = t525 >= int64(0)
			}
			if t521 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t529 := i_i - int64(2)
			t528 := t529 >= int64(0)
			if t528 {
				t530 := -i_j
				t531 := t530 + p_n
				t532 := t531 - int64(3)
				t528 = t532 >= int64(0)
			}
			t527 := t528
			if t527 {
				t533 := -i_t
				t534 := t533 + p_tsteps
				t535 := t534 - int64(2)
				t527 = t535 >= int64(0)
			}
			t526 := t527
			if t526 {
				t536 := i_t - p_tsteps
				t537 := t536 + int64(2)
				t526 = t537 >= int64(0)
			}
			if t526 {
				t538 := -i_t
				t539 := t538 + p_tsteps
				t540 := t539 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t540)
			}
			t543 := i_i - int64(2)
			t542 := t543 >= int64(0)
			if t542 {
				t544 := -i_j
				t545 := t544 + p_n
				t546 := t545 - int64(3)
				t542 = t546 >= int64(0)
			}
			t541 := t542
			if t541 {
				t547 := -i_t
				t548 := t547 + p_tsteps
				t549 := t548 - int64(3)
				t541 = t549 >= int64(0)
			}
			if t541 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t552 := i_i - int64(2)
			t551 := t552 >= int64(0)
			if t551 {
				t553 := -i_t
				t554 := t553 + p_tsteps
				t555 := t554 - int64(2)
				t551 = t555 >= int64(0)
			}
			t550 := t551
			if t550 {
				t556 := i_t - p_tsteps
				t557 := t556 + int64(2)
				t550 = t557 >= int64(0)
			}
			if t550 {
				t558 := -i_t
				t559 := t558 + p_tsteps
				t560 := t559 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t560)
			}
			t562 := i_i - int64(2)
			t561 := t562 >= int64(0)
			if t561 {
				t563 := -i_t
				t564 := t563 + p_tsteps
				t565 := t564 - int64(3)
				t561 = t565 >= int64(0)
			}
			if t561 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t569 := i_i - int64(2)
			t568 := t569 >= int64(0)
			if t568 {
				t570 := i_j - int64(2)
				t568 = t570 >= int64(0)
			}
			t567 := t568
			if t567 {
				t571 := -i_t
				t572 := t571 + p_tsteps
				t573 := t572 - int64(2)
				t567 = t573 >= int64(0)
			}
			t566 := t567
			if t566 {
				t574 := i_t - p_tsteps
				t575 := t574 + int64(2)
				t566 = t575 >= int64(0)
			}
			if t566 {
				t576 := -i_t
				t577 := t576 + p_tsteps
				t578 := t577 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t578)
			}
			t581 := i_i - int64(2)
			t580 := t581 >= int64(0)
			if t580 {
				t582 := i_j - int64(2)
				t580 = t582 >= int64(0)
			}
			t579 := t580
			if t579 {
				t583 := -i_t
				t584 := t583 + p_tsteps
				t585 := t584 - int64(3)
				t579 = t585 >= int64(0)
			}
			if t579 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
		}
	}
	return nil
}

// run_seidel_resilientopt executes the Resilient-Optimized variant of the seidel benchmark natively.
func run_seidel_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_seidel_resilientopt_n1(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n2(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n3(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n4(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n5(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n6(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		t626 := p_tsteps - int64(3)
		t627 := codegen.MinI(t626, int64(0))
		m.SetBounds(int64(0), t627)
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
		if err := run_seidel_resilientopt_n7(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n8(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n9(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n10(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		if err := run_seidel_resilientopt_n11(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n15(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n17(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n21(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n25(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_seidel_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t1 := p_n - int64(1)
	t2 := codegen.MinI(t1, int64(0))
	for i_li0 := int64(0); i_li0 <= t2; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3 := p_n - int64(3)
		t4 := codegen.MinI(t3, int64(0))
		for i_li1 := int64(0); i_li1 <= t4; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5 := p_tsteps - int64(1)
			if t5 >= int64(0) {
				t6 := i_li0
				if t6 < 0 || t6 >= d_A[0] {
					return m.OOB(t6, d_A[0], 0, "A", 0, 0)
				}
				t7 := i_li1
				if t7 < 0 || t7 >= d_A[1] {
					return m.OOB(t7, d_A[1], 1, "A", 0, 0)
				}
				t8 := b_A + int((t6)*d_A[1]+t7)
				t9 := m.LoadF(t8)
				cs.Fold(checksum.AccDef, math.Float64bits(t9), p_tsteps)
			}
		}
		t10 := p_n - int64(3)
		t11 := codegen.MinI(t10, int64(1))
		for i_li1 := int64(1); i_li1 <= t11; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t12 := p_tsteps - int64(1)
			if t12 >= int64(0) {
				t13 := i_li0
				if t13 < 0 || t13 >= d_A[0] {
					return m.OOB(t13, d_A[0], 0, "A", 0, 0)
				}
				t14 := i_li1
				if t14 < 0 || t14 >= d_A[1] {
					return m.OOB(t14, d_A[1], 1, "A", 0, 0)
				}
				t15 := b_A + int((t13)*d_A[1]+t14)
				t16 := m.LoadF(t15)
				cs.Fold(checksum.AccDef, math.Float64bits(t16), p_tsteps)
			}
			t17 := p_tsteps - int64(1)
			if t17 >= int64(0) {
				t18 := i_li0
				if t18 < 0 || t18 >= d_A[0] {
					return m.OOB(t18, d_A[0], 0, "A", 0, 0)
				}
				t19 := i_li1
				if t19 < 0 || t19 >= d_A[1] {
					return m.OOB(t19, d_A[1], 1, "A", 0, 0)
				}
				t20 := b_A + int((t18)*d_A[1]+t19)
				t21 := m.LoadF(t20)
				cs.Fold(checksum.AccDef, math.Float64bits(t21), p_tsteps)
			}
		}
		t22 := p_n - int64(3)
		for i_li1 := int64(2); i_li1 <= t22; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t23 := p_tsteps - int64(1)
			if t23 >= int64(0) {
				t24 := i_li0
				if t24 < 0 || t24 >= d_A[0] {
					return m.OOB(t24, d_A[0], 0, "A", 0, 0)
				}
				t25 := i_li1
				if t25 < 0 || t25 >= d_A[1] {
					return m.OOB(t25, d_A[1], 1, "A", 0, 0)
				}
				t26 := b_A + int((t24)*d_A[1]+t25)
				t27 := m.LoadF(t26)
				cs.Fold(checksum.AccDef, math.Float64bits(t27), p_tsteps)
			}
			t28 := p_tsteps - int64(1)
			if t28 >= int64(0) {
				t29 := i_li0
				if t29 < 0 || t29 >= d_A[0] {
					return m.OOB(t29, d_A[0], 0, "A", 0, 0)
				}
				t30 := i_li1
				if t30 < 0 || t30 >= d_A[1] {
					return m.OOB(t30, d_A[1], 1, "A", 0, 0)
				}
				t31 := b_A + int((t29)*d_A[1]+t30)
				t32 := m.LoadF(t31)
				cs.Fold(checksum.AccDef, math.Float64bits(t32), p_tsteps)
			}
			t33 := p_tsteps - int64(1)
			if t33 >= int64(0) {
				t34 := i_li0
				if t34 < 0 || t34 >= d_A[0] {
					return m.OOB(t34, d_A[0], 0, "A", 0, 0)
				}
				t35 := i_li1
				if t35 < 0 || t35 >= d_A[1] {
					return m.OOB(t35, d_A[1], 1, "A", 0, 0)
				}
				t36 := b_A + int((t34)*d_A[1]+t35)
				t37 := m.LoadF(t36)
				cs.Fold(checksum.AccDef, math.Float64bits(t37), p_tsteps)
			}
		}
		t38 := p_n - int64(2)
		t39 := codegen.MaxI(int64(1), t38)
		t40 := p_n - int64(2)
		t41 := codegen.MinI(t40, int64(1))
		for i_li1 := t39; i_li1 <= t41; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t42 := p_tsteps - int64(1)
			if t42 >= int64(0) {
				t43 := i_li0
				if t43 < 0 || t43 >= d_A[0] {
					return m.OOB(t43, d_A[0], 0, "A", 0, 0)
				}
				t44 := i_li1
				if t44 < 0 || t44 >= d_A[1] {
					return m.OOB(t44, d_A[1], 1, "A", 0, 0)
				}
				t45 := b_A + int((t43)*d_A[1]+t44)
				t46 := m.LoadF(t45)
				cs.Fold(checksum.AccDef, math.Float64bits(t46), p_tsteps)
			}
		}
		t47 := p_n - int64(2)
		t48 := codegen.MaxI(int64(2), t47)
		t49 := p_n - int64(2)
		for i_li1 := t48; i_li1 <= t49; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t50 := p_tsteps - int64(1)
			if t50 >= int64(0) {
				t51 := i_li0
				if t51 < 0 || t51 >= d_A[0] {
					return m.OOB(t51, d_A[0], 0, "A", 0, 0)
				}
				t52 := i_li1
				if t52 < 0 || t52 >= d_A[1] {
					return m.OOB(t52, d_A[1], 1, "A", 0, 0)
				}
				t53 := b_A + int((t51)*d_A[1]+t52)
				t54 := m.LoadF(t53)
				cs.Fold(checksum.AccDef, math.Float64bits(t54), p_tsteps)
			}
			t55 := p_tsteps - int64(1)
			if t55 >= int64(0) {
				t56 := i_li0
				if t56 < 0 || t56 >= d_A[0] {
					return m.OOB(t56, d_A[0], 0, "A", 0, 0)
				}
				t57 := i_li1
				if t57 < 0 || t57 >= d_A[1] {
					return m.OOB(t57, d_A[1], 1, "A", 0, 0)
				}
				t58 := b_A + int((t56)*d_A[1]+t57)
				t59 := m.LoadF(t58)
				cs.Fold(checksum.AccDef, math.Float64bits(t59), p_tsteps)
			}
		}
		t60 := p_n - int64(1)
		t61 := codegen.MaxI(int64(2), t60)
		t62 := p_n - int64(1)
		for i_li1 := t61; i_li1 <= t62; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t63 := p_tsteps - int64(1)
			if t63 >= int64(0) {
				t64 := i_li0
				if t64 < 0 || t64 >= d_A[0] {
					return m.OOB(t64, d_A[0], 0, "A", 0, 0)
				}
				t65 := i_li1
				if t65 < 0 || t65 >= d_A[1] {
					return m.OOB(t65, d_A[1], 1, "A", 0, 0)
				}
				t66 := b_A + int((t64)*d_A[1]+t65)
				t67 := m.LoadF(t66)
				cs.Fold(checksum.AccDef, math.Float64bits(t67), p_tsteps)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t68 := p_n - int64(3)
	t69 := codegen.MinI(t68, int64(1))
	for i_li0 := int64(1); i_li0 <= t69; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t70 := p_n - int64(1)
		t71 := codegen.MinI(t70, int64(0))
		for i_li1 := int64(0); i_li1 <= t71; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t72 := p_tsteps - int64(1)
			if t72 >= int64(0) {
				t73 := i_li0
				if t73 < 0 || t73 >= d_A[0] {
					return m.OOB(t73, d_A[0], 0, "A", 0, 0)
				}
				t74 := i_li1
				if t74 < 0 || t74 >= d_A[1] {
					return m.OOB(t74, d_A[1], 1, "A", 0, 0)
				}
				t75 := b_A + int((t73)*d_A[1]+t74)
				t76 := m.LoadF(t75)
				cs.Fold(checksum.AccDef, math.Float64bits(t76), p_tsteps)
			}
			t77 := p_tsteps - int64(1)
			if t77 >= int64(0) {
				t78 := i_li0
				if t78 < 0 || t78 >= d_A[0] {
					return m.OOB(t78, d_A[0], 0, "A", 0, 0)
				}
				t79 := i_li1
				if t79 < 0 || t79 >= d_A[1] {
					return m.OOB(t79, d_A[1], 1, "A", 0, 0)
				}
				t80 := b_A + int((t78)*d_A[1]+t79)
				t81 := m.LoadF(t80)
				cs.Fold(checksum.AccDef, math.Float64bits(t81), p_tsteps)
			}
		}
		t82 := p_n - int64(2)
		t83 := codegen.MinI(t82, int64(1))
		for i_li1 := int64(1); i_li1 <= t83; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t85 := p_tsteps - int64(1)
			t84 := t85 >= int64(0)
			if t84 {
				t86 := -p_tsteps
				t87 := t86 + int64(1)
				t84 = t87 >= int64(0)
			}
			if t84 {
				t88 := i_li0
				if t88 < 0 || t88 >= d_A[0] {
					return m.OOB(t88, d_A[0], 0, "A", 0, 0)
				}
				t89 := i_li1
				if t89 < 0 || t89 >= d_A[1] {
					return m.OOB(t89, d_A[1], 1, "A", 0, 0)
				}
				t90 := b_A + int((t88)*d_A[1]+t89)
				t91 := m.LoadF(t90)
				cs.Fold(checksum.AccDef, math.Float64bits(t91), p_tsteps)
			}
			t92 := p_tsteps - int64(2)
			if t92 >= int64(0) {
				t93 := i_li0
				if t93 < 0 || t93 >= d_A[0] {
					return m.OOB(t93, d_A[0], 0, "A", 0, 0)
				}
				t94 := i_li1
				if t94 < 0 || t94 >= d_A[1] {
					return m.OOB(t94, d_A[1], 1, "A", 0, 0)
				}
				t95 := b_A + int((t93)*d_A[1]+t94)
				t96 := m.LoadF(t95)
				cs.Fold(checksum.AccDef, math.Float64bits(t96), int64(1))
			}
		}
		t97 := p_n - int64(2)
		for i_li1 := int64(2); i_li1 <= t97; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t99 := p_tsteps - int64(1)
			t98 := t99 >= int64(0)
			if t98 {
				t100 := -p_tsteps
				t101 := t100 + int64(1)
				t98 = t101 >= int64(0)
			}
			if t98 {
				t102 := i_li0
				if t102 < 0 || t102 >= d_A[0] {
					return m.OOB(t102, d_A[0], 0, "A", 0, 0)
				}
				t103 := i_li1
				if t103 < 0 || t103 >= d_A[1] {
					return m.OOB(t103, d_A[1], 1, "A", 0, 0)
				}
				t104 := b_A + int((t102)*d_A[1]+t103)
				t105 := m.LoadF(t104)
				cs.Fold(checksum.AccDef, math.Float64bits(t105), p_tsteps)
			}
			t106 := p_tsteps - int64(2)
			if t106 >= int64(0) {
				t107 := i_li0
				if t107 < 0 || t107 >= d_A[0] {
					return m.OOB(t107, d_A[0], 0, "A", 0, 0)
				}
				t108 := i_li1
				if t108 < 0 || t108 >= d_A[1] {
					return m.OOB(t108, d_A[1], 1, "A", 0, 0)
				}
				t109 := b_A + int((t107)*d_A[1]+t108)
				t110 := m.LoadF(t109)
				cs.Fold(checksum.AccDef, math.Float64bits(t110), int64(1))
			}
			t112 := p_tsteps - int64(1)
			t111 := t112 >= int64(0)
			if t111 {
				t113 := -p_tsteps
				t114 := t113 + int64(1)
				t111 = t114 >= int64(0)
			}
			if t111 {
				t115 := i_li0
				if t115 < 0 || t115 >= d_A[0] {
					return m.OOB(t115, d_A[0], 0, "A", 0, 0)
				}
				t116 := i_li1
				if t116 < 0 || t116 >= d_A[1] {
					return m.OOB(t116, d_A[1], 1, "A", 0, 0)
				}
				t117 := b_A + int((t115)*d_A[1]+t116)
				t118 := m.LoadF(t117)
				cs.Fold(checksum.AccDef, math.Float64bits(t118), p_tsteps)
			}
			t119 := p_tsteps - int64(2)
			if t119 >= int64(0) {
				t120 := i_li0
				if t120 < 0 || t120 >= d_A[0] {
					return m.OOB(t120, d_A[0], 0, "A", 0, 0)
				}
				t121 := i_li1
				if t121 < 0 || t121 >= d_A[1] {
					return m.OOB(t121, d_A[1], 1, "A", 0, 0)
				}
				t122 := b_A + int((t120)*d_A[1]+t121)
				t123 := m.LoadF(t122)
				cs.Fold(checksum.AccDef, math.Float64bits(t123), int64(1))
			}
		}
		t124 := p_n - int64(1)
		t125 := codegen.MaxI(int64(1), t124)
		t126 := p_n - int64(1)
		for i_li1 := t125; i_li1 <= t126; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t127 := p_tsteps - int64(1)
			if t127 >= int64(0) {
				t128 := i_li0
				if t128 < 0 || t128 >= d_A[0] {
					return m.OOB(t128, d_A[0], 0, "A", 0, 0)
				}
				t129 := i_li1
				if t129 < 0 || t129 >= d_A[1] {
					return m.OOB(t129, d_A[1], 1, "A", 0, 0)
				}
				t130 := b_A + int((t128)*d_A[1]+t129)
				t131 := m.LoadF(t130)
				cs.Fold(checksum.AccDef, math.Float64bits(t131), p_tsteps)
			}
			t132 := p_tsteps - int64(1)
			if t132 >= int64(0) {
				t133 := i_li0
				if t133 < 0 || t133 >= d_A[0] {
					return m.OOB(t133, d_A[0], 0, "A", 0, 0)
				}
				t134 := i_li1
				if t134 < 0 || t134 >= d_A[1] {
					return m.OOB(t134, d_A[1], 1, "A", 0, 0)
				}
				t135 := b_A + int((t133)*d_A[1]+t134)
				t136 := m.LoadF(t135)
				cs.Fold(checksum.AccDef, math.Float64bits(t136), p_tsteps)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t137 := p_n - int64(3)
	for i_li0 := int64(2); i_li0 <= t137; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t138 := p_n - int64(1)
		t139 := codegen.MinI(t138, int64(0))
		for i_li1 := int64(0); i_li1 <= t139; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t140 := p_tsteps - int64(1)
			if t140 >= int64(0) {
				t141 := i_li0
				if t141 < 0 || t141 >= d_A[0] {
					return m.OOB(t141, d_A[0], 0, "A", 0, 0)
				}
				t142 := i_li1
				if t142 < 0 || t142 >= d_A[1] {
					return m.OOB(t142, d_A[1], 1, "A", 0, 0)
				}
				t143 := b_A + int((t141)*d_A[1]+t142)
				t144 := m.LoadF(t143)
				cs.Fold(checksum.AccDef, math.Float64bits(t144), p_tsteps)
			}
			t145 := p_tsteps - int64(1)
			if t145 >= int64(0) {
				t146 := i_li0
				if t146 < 0 || t146 >= d_A[0] {
					return m.OOB(t146, d_A[0], 0, "A", 0, 0)
				}
				t147 := i_li1
				if t147 < 0 || t147 >= d_A[1] {
					return m.OOB(t147, d_A[1], 1, "A", 0, 0)
				}
				t148 := b_A + int((t146)*d_A[1]+t147)
				t149 := m.LoadF(t148)
				cs.Fold(checksum.AccDef, math.Float64bits(t149), p_tsteps)
			}
			t150 := p_tsteps - int64(1)
			if t150 >= int64(0) {
				t151 := i_li0
				if t151 < 0 || t151 >= d_A[0] {
					return m.OOB(t151, d_A[0], 0, "A", 0, 0)
				}
				t152 := i_li1
				if t152 < 0 || t152 >= d_A[1] {
					return m.OOB(t152, d_A[1], 1, "A", 0, 0)
				}
				t153 := b_A + int((t151)*d_A[1]+t152)
				t154 := m.LoadF(t153)
				cs.Fold(checksum.AccDef, math.Float64bits(t154), p_tsteps)
			}
		}
		t155 := p_n - int64(2)
		t156 := codegen.MinI(t155, int64(1))
		for i_li1 := int64(1); i_li1 <= t156; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t158 := p_tsteps - int64(1)
			t157 := t158 >= int64(0)
			if t157 {
				t159 := -p_tsteps
				t160 := t159 + int64(1)
				t157 = t160 >= int64(0)
			}
			if t157 {
				t161 := i_li0
				if t161 < 0 || t161 >= d_A[0] {
					return m.OOB(t161, d_A[0], 0, "A", 0, 0)
				}
				t162 := i_li1
				if t162 < 0 || t162 >= d_A[1] {
					return m.OOB(t162, d_A[1], 1, "A", 0, 0)
				}
				t163 := b_A + int((t161)*d_A[1]+t162)
				t164 := m.LoadF(t163)
				cs.Fold(checksum.AccDef, math.Float64bits(t164), p_tsteps)
			}
			t165 := p_tsteps - int64(2)
			if t165 >= int64(0) {
				t166 := i_li0
				if t166 < 0 || t166 >= d_A[0] {
					return m.OOB(t166, d_A[0], 0, "A", 0, 0)
				}
				t167 := i_li1
				if t167 < 0 || t167 >= d_A[1] {
					return m.OOB(t167, d_A[1], 1, "A", 0, 0)
				}
				t168 := b_A + int((t166)*d_A[1]+t167)
				t169 := m.LoadF(t168)
				cs.Fold(checksum.AccDef, math.Float64bits(t169), int64(1))
			}
			t171 := p_tsteps - int64(1)
			t170 := t171 >= int64(0)
			if t170 {
				t172 := -p_tsteps
				t173 := t172 + int64(1)
				t170 = t173 >= int64(0)
			}
			if t170 {
				t174 := i_li0
				if t174 < 0 || t174 >= d_A[0] {
					return m.OOB(t174, d_A[0], 0, "A", 0, 0)
				}
				t175 := i_li1
				if t175 < 0 || t175 >= d_A[1] {
					return m.OOB(t175, d_A[1], 1, "A", 0, 0)
				}
				t176 := b_A + int((t174)*d_A[1]+t175)
				t177 := m.LoadF(t176)
				cs.Fold(checksum.AccDef, math.Float64bits(t177), p_tsteps)
			}
			t178 := p_tsteps - int64(2)
			if t178 >= int64(0) {
				t179 := i_li0
				if t179 < 0 || t179 >= d_A[0] {
					return m.OOB(t179, d_A[0], 0, "A", 0, 0)
				}
				t180 := i_li1
				if t180 < 0 || t180 >= d_A[1] {
					return m.OOB(t180, d_A[1], 1, "A", 0, 0)
				}
				t181 := b_A + int((t179)*d_A[1]+t180)
				t182 := m.LoadF(t181)
				cs.Fold(checksum.AccDef, math.Float64bits(t182), int64(1))
			}
			t184 := p_tsteps - int64(1)
			t183 := t184 >= int64(0)
			if t183 {
				t185 := -p_tsteps
				t186 := t185 + int64(1)
				t183 = t186 >= int64(0)
			}
			if t183 {
				t187 := i_li0
				if t187 < 0 || t187 >= d_A[0] {
					return m.OOB(t187, d_A[0], 0, "A", 0, 0)
				}
				t188 := i_li1
				if t188 < 0 || t188 >= d_A[1] {
					return m.OOB(t188, d_A[1], 1, "A", 0, 0)
				}
				t189 := b_A + int((t187)*d_A[1]+t188)
				t190 := m.LoadF(t189)
				cs.Fold(checksum.AccDef, math.Float64bits(t190), p_tsteps)
			}
			t191 := p_tsteps - int64(2)
			if t191 >= int64(0) {
				t192 := i_li0
				if t192 < 0 || t192 >= d_A[0] {
					return m.OOB(t192, d_A[0], 0, "A", 0, 0)
				}
				t193 := i_li1
				if t193 < 0 || t193 >= d_A[1] {
					return m.OOB(t193, d_A[1], 1, "A", 0, 0)
				}
				t194 := b_A + int((t192)*d_A[1]+t193)
				t195 := m.LoadF(t194)
				cs.Fold(checksum.AccDef, math.Float64bits(t195), int64(1))
			}
		}
		t196 := p_n - int64(3)
		for i_li1 := int64(2); i_li1 <= t196; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t198 := p_tsteps - int64(1)
			t197 := t198 >= int64(0)
			if t197 {
				t199 := -p_tsteps
				t200 := t199 + int64(1)
				t197 = t200 >= int64(0)
			}
			if t197 {
				t201 := i_li0
				if t201 < 0 || t201 >= d_A[0] {
					return m.OOB(t201, d_A[0], 0, "A", 0, 0)
				}
				t202 := i_li1
				if t202 < 0 || t202 >= d_A[1] {
					return m.OOB(t202, d_A[1], 1, "A", 0, 0)
				}
				t203 := b_A + int((t201)*d_A[1]+t202)
				t204 := m.LoadF(t203)
				cs.Fold(checksum.AccDef, math.Float64bits(t204), p_tsteps)
			}
			t205 := p_tsteps - int64(2)
			if t205 >= int64(0) {
				t206 := i_li0
				if t206 < 0 || t206 >= d_A[0] {
					return m.OOB(t206, d_A[0], 0, "A", 0, 0)
				}
				t207 := i_li1
				if t207 < 0 || t207 >= d_A[1] {
					return m.OOB(t207, d_A[1], 1, "A", 0, 0)
				}
				t208 := b_A + int((t206)*d_A[1]+t207)
				t209 := m.LoadF(t208)
				cs.Fold(checksum.AccDef, math.Float64bits(t209), int64(1))
			}
			t211 := p_tsteps - int64(1)
			t210 := t211 >= int64(0)
			if t210 {
				t212 := -p_tsteps
				t213 := t212 + int64(1)
				t210 = t213 >= int64(0)
			}
			if t210 {
				t214 := i_li0
				if t214 < 0 || t214 >= d_A[0] {
					return m.OOB(t214, d_A[0], 0, "A", 0, 0)
				}
				t215 := i_li1
				if t215 < 0 || t215 >= d_A[1] {
					return m.OOB(t215, d_A[1], 1, "A", 0, 0)
				}
				t216 := b_A + int((t214)*d_A[1]+t215)
				t217 := m.LoadF(t216)
				cs.Fold(checksum.AccDef, math.Float64bits(t217), p_tsteps)
			}
			t218 := p_tsteps - int64(2)
			if t218 >= int64(0) {
				t219 := i_li0
				if t219 < 0 || t219 >= d_A[0] {
					return m.OOB(t219, d_A[0], 0, "A", 0, 0)
				}
				t220 := i_li1
				if t220 < 0 || t220 >= d_A[1] {
					return m.OOB(t220, d_A[1], 1, "A", 0, 0)
				}
				t221 := b_A + int((t219)*d_A[1]+t220)
				t222 := m.LoadF(t221)
				cs.Fold(checksum.AccDef, math.Float64bits(t222), int64(1))
			}
			t224 := p_tsteps - int64(1)
			t223 := t224 >= int64(0)
			if t223 {
				t225 := -p_tsteps
				t226 := t225 + int64(1)
				t223 = t226 >= int64(0)
			}
			if t223 {
				t227 := i_li0
				if t227 < 0 || t227 >= d_A[0] {
					return m.OOB(t227, d_A[0], 0, "A", 0, 0)
				}
				t228 := i_li1
				if t228 < 0 || t228 >= d_A[1] {
					return m.OOB(t228, d_A[1], 1, "A", 0, 0)
				}
				t229 := b_A + int((t227)*d_A[1]+t228)
				t230 := m.LoadF(t229)
				cs.Fold(checksum.AccDef, math.Float64bits(t230), p_tsteps)
			}
			t231 := p_tsteps - int64(2)
			if t231 >= int64(0) {
				t232 := i_li0
				if t232 < 0 || t232 >= d_A[0] {
					return m.OOB(t232, d_A[0], 0, "A", 0, 0)
				}
				t233 := i_li1
				if t233 < 0 || t233 >= d_A[1] {
					return m.OOB(t233, d_A[1], 1, "A", 0, 0)
				}
				t234 := b_A + int((t232)*d_A[1]+t233)
				t235 := m.LoadF(t234)
				cs.Fold(checksum.AccDef, math.Float64bits(t235), int64(1))
			}
			t237 := p_tsteps - int64(1)
			t236 := t237 >= int64(0)
			if t236 {
				t238 := -p_tsteps
				t239 := t238 + int64(1)
				t236 = t239 >= int64(0)
			}
			if t236 {
				t240 := i_li0
				if t240 < 0 || t240 >= d_A[0] {
					return m.OOB(t240, d_A[0], 0, "A", 0, 0)
				}
				t241 := i_li1
				if t241 < 0 || t241 >= d_A[1] {
					return m.OOB(t241, d_A[1], 1, "A", 0, 0)
				}
				t242 := b_A + int((t240)*d_A[1]+t241)
				t243 := m.LoadF(t242)
				cs.Fold(checksum.AccDef, math.Float64bits(t243), p_tsteps)
			}
			t244 := p_tsteps - int64(2)
			if t244 >= int64(0) {
				t245 := i_li0
				if t245 < 0 || t245 >= d_A[0] {
					return m.OOB(t245, d_A[0], 0, "A", 0, 0)
				}
				t246 := i_li1
				if t246 < 0 || t246 >= d_A[1] {
					return m.OOB(t246, d_A[1], 1, "A", 0, 0)
				}
				t247 := b_A + int((t245)*d_A[1]+t246)
				t248 := m.LoadF(t247)
				cs.Fold(checksum.AccDef, math.Float64bits(t248), int64(1))
			}
			t250 := p_tsteps - int64(1)
			t249 := t250 >= int64(0)
			if t249 {
				t251 := -p_tsteps
				t252 := t251 + int64(1)
				t249 = t252 >= int64(0)
			}
			if t249 {
				t253 := i_li0
				if t253 < 0 || t253 >= d_A[0] {
					return m.OOB(t253, d_A[0], 0, "A", 0, 0)
				}
				t254 := i_li1
				if t254 < 0 || t254 >= d_A[1] {
					return m.OOB(t254, d_A[1], 1, "A", 0, 0)
				}
				t255 := b_A + int((t253)*d_A[1]+t254)
				t256 := m.LoadF(t255)
				cs.Fold(checksum.AccDef, math.Float64bits(t256), p_tsteps)
			}
			t257 := p_tsteps - int64(2)
			if t257 >= int64(0) {
				t258 := i_li0
				if t258 < 0 || t258 >= d_A[0] {
					return m.OOB(t258, d_A[0], 0, "A", 0, 0)
				}
				t259 := i_li1
				if t259 < 0 || t259 >= d_A[1] {
					return m.OOB(t259, d_A[1], 1, "A", 0, 0)
				}
				t260 := b_A + int((t258)*d_A[1]+t259)
				t261 := m.LoadF(t260)
				cs.Fold(checksum.AccDef, math.Float64bits(t261), int64(1))
			}
		}
		t262 := p_n - int64(2)
		t263 := codegen.MaxI(int64(2), t262)
		t264 := p_n - int64(2)
		for i_li1 := t263; i_li1 <= t264; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t266 := p_tsteps - int64(1)
			t265 := t266 >= int64(0)
			if t265 {
				t267 := -p_tsteps
				t268 := t267 + int64(1)
				t265 = t268 >= int64(0)
			}
			if t265 {
				t269 := i_li0
				if t269 < 0 || t269 >= d_A[0] {
					return m.OOB(t269, d_A[0], 0, "A", 0, 0)
				}
				t270 := i_li1
				if t270 < 0 || t270 >= d_A[1] {
					return m.OOB(t270, d_A[1], 1, "A", 0, 0)
				}
				t271 := b_A + int((t269)*d_A[1]+t270)
				t272 := m.LoadF(t271)
				cs.Fold(checksum.AccDef, math.Float64bits(t272), p_tsteps)
			}
			t273 := p_tsteps - int64(2)
			if t273 >= int64(0) {
				t274 := i_li0
				if t274 < 0 || t274 >= d_A[0] {
					return m.OOB(t274, d_A[0], 0, "A", 0, 0)
				}
				t275 := i_li1
				if t275 < 0 || t275 >= d_A[1] {
					return m.OOB(t275, d_A[1], 1, "A", 0, 0)
				}
				t276 := b_A + int((t274)*d_A[1]+t275)
				t277 := m.LoadF(t276)
				cs.Fold(checksum.AccDef, math.Float64bits(t277), int64(1))
			}
			t279 := p_tsteps - int64(1)
			t278 := t279 >= int64(0)
			if t278 {
				t280 := -p_tsteps
				t281 := t280 + int64(1)
				t278 = t281 >= int64(0)
			}
			if t278 {
				t282 := i_li0
				if t282 < 0 || t282 >= d_A[0] {
					return m.OOB(t282, d_A[0], 0, "A", 0, 0)
				}
				t283 := i_li1
				if t283 < 0 || t283 >= d_A[1] {
					return m.OOB(t283, d_A[1], 1, "A", 0, 0)
				}
				t284 := b_A + int((t282)*d_A[1]+t283)
				t285 := m.LoadF(t284)
				cs.Fold(checksum.AccDef, math.Float64bits(t285), p_tsteps)
			}
			t286 := p_tsteps - int64(2)
			if t286 >= int64(0) {
				t287 := i_li0
				if t287 < 0 || t287 >= d_A[0] {
					return m.OOB(t287, d_A[0], 0, "A", 0, 0)
				}
				t288 := i_li1
				if t288 < 0 || t288 >= d_A[1] {
					return m.OOB(t288, d_A[1], 1, "A", 0, 0)
				}
				t289 := b_A + int((t287)*d_A[1]+t288)
				t290 := m.LoadF(t289)
				cs.Fold(checksum.AccDef, math.Float64bits(t290), int64(1))
			}
			t292 := p_tsteps - int64(1)
			t291 := t292 >= int64(0)
			if t291 {
				t293 := -p_tsteps
				t294 := t293 + int64(1)
				t291 = t294 >= int64(0)
			}
			if t291 {
				t295 := i_li0
				if t295 < 0 || t295 >= d_A[0] {
					return m.OOB(t295, d_A[0], 0, "A", 0, 0)
				}
				t296 := i_li1
				if t296 < 0 || t296 >= d_A[1] {
					return m.OOB(t296, d_A[1], 1, "A", 0, 0)
				}
				t297 := b_A + int((t295)*d_A[1]+t296)
				t298 := m.LoadF(t297)
				cs.Fold(checksum.AccDef, math.Float64bits(t298), p_tsteps)
			}
			t299 := p_tsteps - int64(2)
			if t299 >= int64(0) {
				t300 := i_li0
				if t300 < 0 || t300 >= d_A[0] {
					return m.OOB(t300, d_A[0], 0, "A", 0, 0)
				}
				t301 := i_li1
				if t301 < 0 || t301 >= d_A[1] {
					return m.OOB(t301, d_A[1], 1, "A", 0, 0)
				}
				t302 := b_A + int((t300)*d_A[1]+t301)
				t303 := m.LoadF(t302)
				cs.Fold(checksum.AccDef, math.Float64bits(t303), int64(1))
			}
			t305 := p_tsteps - int64(1)
			t304 := t305 >= int64(0)
			if t304 {
				t306 := -p_tsteps
				t307 := t306 + int64(1)
				t304 = t307 >= int64(0)
			}
			if t304 {
				t308 := i_li0
				if t308 < 0 || t308 >= d_A[0] {
					return m.OOB(t308, d_A[0], 0, "A", 0, 0)
				}
				t309 := i_li1
				if t309 < 0 || t309 >= d_A[1] {
					return m.OOB(t309, d_A[1], 1, "A", 0, 0)
				}
				t310 := b_A + int((t308)*d_A[1]+t309)
				t311 := m.LoadF(t310)
				cs.Fold(checksum.AccDef, math.Float64bits(t311), p_tsteps)
			}
			t312 := p_tsteps - int64(2)
			if t312 >= int64(0) {
				t313 := i_li0
				if t313 < 0 || t313 >= d_A[0] {
					return m.OOB(t313, d_A[0], 0, "A", 0, 0)
				}
				t314 := i_li1
				if t314 < 0 || t314 >= d_A[1] {
					return m.OOB(t314, d_A[1], 1, "A", 0, 0)
				}
				t315 := b_A + int((t313)*d_A[1]+t314)
				t316 := m.LoadF(t315)
				cs.Fold(checksum.AccDef, math.Float64bits(t316), int64(1))
			}
		}
		t317 := p_n - int64(1)
		t318 := codegen.MaxI(int64(1), t317)
		t319 := p_n - int64(1)
		for i_li1 := t318; i_li1 <= t319; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t320 := p_tsteps - int64(1)
			if t320 >= int64(0) {
				t321 := i_li0
				if t321 < 0 || t321 >= d_A[0] {
					return m.OOB(t321, d_A[0], 0, "A", 0, 0)
				}
				t322 := i_li1
				if t322 < 0 || t322 >= d_A[1] {
					return m.OOB(t322, d_A[1], 1, "A", 0, 0)
				}
				t323 := b_A + int((t321)*d_A[1]+t322)
				t324 := m.LoadF(t323)
				cs.Fold(checksum.AccDef, math.Float64bits(t324), p_tsteps)
			}
			t325 := p_tsteps - int64(1)
			if t325 >= int64(0) {
				t326 := i_li0
				if t326 < 0 || t326 >= d_A[0] {
					return m.OOB(t326, d_A[0], 0, "A", 0, 0)
				}
				t327 := i_li1
				if t327 < 0 || t327 >= d_A[1] {
					return m.OOB(t327, d_A[1], 1, "A", 0, 0)
				}
				t328 := b_A + int((t326)*d_A[1]+t327)
				t329 := m.LoadF(t328)
				cs.Fold(checksum.AccDef, math.Float64bits(t329), p_tsteps)
			}
			t330 := p_tsteps - int64(1)
			if t330 >= int64(0) {
				t331 := i_li0
				if t331 < 0 || t331 >= d_A[0] {
					return m.OOB(t331, d_A[0], 0, "A", 0, 0)
				}
				t332 := i_li1
				if t332 < 0 || t332 >= d_A[1] {
					return m.OOB(t332, d_A[1], 1, "A", 0, 0)
				}
				t333 := b_A + int((t331)*d_A[1]+t332)
				t334 := m.LoadF(t333)
				cs.Fold(checksum.AccDef, math.Float64bits(t334), p_tsteps)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t335 := p_n - int64(2)
	t336 := codegen.MaxI(int64(1), t335)
	t337 := p_n - int64(2)
	t338 := codegen.MinI(t337, int64(1))
	for i_li0 := t336; i_li0 <= t338; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t339 := p_n - int64(1)
		t340 := codegen.MinI(t339, int64(0))
		for i_li1 := int64(0); i_li1 <= t340; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t341 := p_tsteps - int64(1)
			if t341 >= int64(0) {
				t342 := i_li0
				if t342 < 0 || t342 >= d_A[0] {
					return m.OOB(t342, d_A[0], 0, "A", 0, 0)
				}
				t343 := i_li1
				if t343 < 0 || t343 >= d_A[1] {
					return m.OOB(t343, d_A[1], 1, "A", 0, 0)
				}
				t344 := b_A + int((t342)*d_A[1]+t343)
				t345 := m.LoadF(t344)
				cs.Fold(checksum.AccDef, math.Float64bits(t345), p_tsteps)
			}
		}
		t346 := p_n - int64(2)
		for i_li1 := int64(1); i_li1 <= t346; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t348 := p_tsteps - int64(1)
			t347 := t348 >= int64(0)
			if t347 {
				t349 := -p_tsteps
				t350 := t349 + int64(1)
				t347 = t350 >= int64(0)
			}
			if t347 {
				t351 := i_li0
				if t351 < 0 || t351 >= d_A[0] {
					return m.OOB(t351, d_A[0], 0, "A", 0, 0)
				}
				t352 := i_li1
				if t352 < 0 || t352 >= d_A[1] {
					return m.OOB(t352, d_A[1], 1, "A", 0, 0)
				}
				t353 := b_A + int((t351)*d_A[1]+t352)
				t354 := m.LoadF(t353)
				cs.Fold(checksum.AccDef, math.Float64bits(t354), p_tsteps)
			}
			t355 := p_tsteps - int64(2)
			if t355 >= int64(0) {
				t356 := i_li0
				if t356 < 0 || t356 >= d_A[0] {
					return m.OOB(t356, d_A[0], 0, "A", 0, 0)
				}
				t357 := i_li1
				if t357 < 0 || t357 >= d_A[1] {
					return m.OOB(t357, d_A[1], 1, "A", 0, 0)
				}
				t358 := b_A + int((t356)*d_A[1]+t357)
				t359 := m.LoadF(t358)
				cs.Fold(checksum.AccDef, math.Float64bits(t359), int64(1))
			}
		}
		t360 := p_n - int64(1)
		t361 := codegen.MaxI(int64(1), t360)
		t362 := p_n - int64(1)
		for i_li1 := t361; i_li1 <= t362; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t363 := p_tsteps - int64(1)
			if t363 >= int64(0) {
				t364 := i_li0
				if t364 < 0 || t364 >= d_A[0] {
					return m.OOB(t364, d_A[0], 0, "A", 0, 0)
				}
				t365 := i_li1
				if t365 < 0 || t365 >= d_A[1] {
					return m.OOB(t365, d_A[1], 1, "A", 0, 0)
				}
				t366 := b_A + int((t364)*d_A[1]+t365)
				t367 := m.LoadF(t366)
				cs.Fold(checksum.AccDef, math.Float64bits(t367), p_tsteps)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t368 := p_n - int64(2)
	t369 := codegen.MaxI(int64(2), t368)
	t370 := p_n - int64(2)
	for i_li0 := t369; i_li0 <= t370; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t371 := p_n - int64(1)
		t372 := codegen.MinI(t371, int64(0))
		for i_li1 := int64(0); i_li1 <= t372; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t373 := p_tsteps - int64(1)
			if t373 >= int64(0) {
				t374 := i_li0
				if t374 < 0 || t374 >= d_A[0] {
					return m.OOB(t374, d_A[0], 0, "A", 0, 0)
				}
				t375 := i_li1
				if t375 < 0 || t375 >= d_A[1] {
					return m.OOB(t375, d_A[1], 1, "A", 0, 0)
				}
				t376 := b_A + int((t374)*d_A[1]+t375)
				t377 := m.LoadF(t376)
				cs.Fold(checksum.AccDef, math.Float64bits(t377), p_tsteps)
			}
			t378 := p_tsteps - int64(1)
			if t378 >= int64(0) {
				t379 := i_li0
				if t379 < 0 || t379 >= d_A[0] {
					return m.OOB(t379, d_A[0], 0, "A", 0, 0)
				}
				t380 := i_li1
				if t380 < 0 || t380 >= d_A[1] {
					return m.OOB(t380, d_A[1], 1, "A", 0, 0)
				}
				t381 := b_A + int((t379)*d_A[1]+t380)
				t382 := m.LoadF(t381)
				cs.Fold(checksum.AccDef, math.Float64bits(t382), p_tsteps)
			}
		}
		t383 := p_n - int64(2)
		t384 := codegen.MinI(t383, int64(1))
		for i_li1 := int64(1); i_li1 <= t384; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t386 := p_tsteps - int64(1)
			t385 := t386 >= int64(0)
			if t385 {
				t387 := -p_tsteps
				t388 := t387 + int64(1)
				t385 = t388 >= int64(0)
			}
			if t385 {
				t389 := i_li0
				if t389 < 0 || t389 >= d_A[0] {
					return m.OOB(t389, d_A[0], 0, "A", 0, 0)
				}
				t390 := i_li1
				if t390 < 0 || t390 >= d_A[1] {
					return m.OOB(t390, d_A[1], 1, "A", 0, 0)
				}
				t391 := b_A + int((t389)*d_A[1]+t390)
				t392 := m.LoadF(t391)
				cs.Fold(checksum.AccDef, math.Float64bits(t392), p_tsteps)
			}
			t393 := p_tsteps - int64(2)
			if t393 >= int64(0) {
				t394 := i_li0
				if t394 < 0 || t394 >= d_A[0] {
					return m.OOB(t394, d_A[0], 0, "A", 0, 0)
				}
				t395 := i_li1
				if t395 < 0 || t395 >= d_A[1] {
					return m.OOB(t395, d_A[1], 1, "A", 0, 0)
				}
				t396 := b_A + int((t394)*d_A[1]+t395)
				t397 := m.LoadF(t396)
				cs.Fold(checksum.AccDef, math.Float64bits(t397), int64(1))
			}
			t399 := p_tsteps - int64(1)
			t398 := t399 >= int64(0)
			if t398 {
				t400 := -p_tsteps
				t401 := t400 + int64(1)
				t398 = t401 >= int64(0)
			}
			if t398 {
				t402 := i_li0
				if t402 < 0 || t402 >= d_A[0] {
					return m.OOB(t402, d_A[0], 0, "A", 0, 0)
				}
				t403 := i_li1
				if t403 < 0 || t403 >= d_A[1] {
					return m.OOB(t403, d_A[1], 1, "A", 0, 0)
				}
				t404 := b_A + int((t402)*d_A[1]+t403)
				t405 := m.LoadF(t404)
				cs.Fold(checksum.AccDef, math.Float64bits(t405), p_tsteps)
			}
			t406 := p_tsteps - int64(2)
			if t406 >= int64(0) {
				t407 := i_li0
				if t407 < 0 || t407 >= d_A[0] {
					return m.OOB(t407, d_A[0], 0, "A", 0, 0)
				}
				t408 := i_li1
				if t408 < 0 || t408 >= d_A[1] {
					return m.OOB(t408, d_A[1], 1, "A", 0, 0)
				}
				t409 := b_A + int((t407)*d_A[1]+t408)
				t410 := m.LoadF(t409)
				cs.Fold(checksum.AccDef, math.Float64bits(t410), int64(1))
			}
			t412 := p_tsteps - int64(1)
			t411 := t412 >= int64(0)
			if t411 {
				t413 := -p_tsteps
				t414 := t413 + int64(1)
				t411 = t414 >= int64(0)
			}
			if t411 {
				t415 := i_li0
				if t415 < 0 || t415 >= d_A[0] {
					return m.OOB(t415, d_A[0], 0, "A", 0, 0)
				}
				t416 := i_li1
				if t416 < 0 || t416 >= d_A[1] {
					return m.OOB(t416, d_A[1], 1, "A", 0, 0)
				}
				t417 := b_A + int((t415)*d_A[1]+t416)
				t418 := m.LoadF(t417)
				cs.Fold(checksum.AccDef, math.Float64bits(t418), p_tsteps)
			}
			t419 := p_tsteps - int64(2)
			if t419 >= int64(0) {
				t420 := i_li0
				if t420 < 0 || t420 >= d_A[0] {
					return m.OOB(t420, d_A[0], 0, "A", 0, 0)
				}
				t421 := i_li1
				if t421 < 0 || t421 >= d_A[1] {
					return m.OOB(t421, d_A[1], 1, "A", 0, 0)
				}
				t422 := b_A + int((t420)*d_A[1]+t421)
				t423 := m.LoadF(t422)
				cs.Fold(checksum.AccDef, math.Float64bits(t423), int64(1))
			}
		}
		t424 := p_n - int64(3)
		for i_li1 := int64(2); i_li1 <= t424; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t426 := p_tsteps - int64(1)
			t425 := t426 >= int64(0)
			if t425 {
				t427 := -p_tsteps
				t428 := t427 + int64(1)
				t425 = t428 >= int64(0)
			}
			if t425 {
				t429 := i_li0
				if t429 < 0 || t429 >= d_A[0] {
					return m.OOB(t429, d_A[0], 0, "A", 0, 0)
				}
				t430 := i_li1
				if t430 < 0 || t430 >= d_A[1] {
					return m.OOB(t430, d_A[1], 1, "A", 0, 0)
				}
				t431 := b_A + int((t429)*d_A[1]+t430)
				t432 := m.LoadF(t431)
				cs.Fold(checksum.AccDef, math.Float64bits(t432), p_tsteps)
			}
			t433 := p_tsteps - int64(2)
			if t433 >= int64(0) {
				t434 := i_li0
				if t434 < 0 || t434 >= d_A[0] {
					return m.OOB(t434, d_A[0], 0, "A", 0, 0)
				}
				t435 := i_li1
				if t435 < 0 || t435 >= d_A[1] {
					return m.OOB(t435, d_A[1], 1, "A", 0, 0)
				}
				t436 := b_A + int((t434)*d_A[1]+t435)
				t437 := m.LoadF(t436)
				cs.Fold(checksum.AccDef, math.Float64bits(t437), int64(1))
			}
			t439 := p_tsteps - int64(1)
			t438 := t439 >= int64(0)
			if t438 {
				t440 := -p_tsteps
				t441 := t440 + int64(1)
				t438 = t441 >= int64(0)
			}
			if t438 {
				t442 := i_li0
				if t442 < 0 || t442 >= d_A[0] {
					return m.OOB(t442, d_A[0], 0, "A", 0, 0)
				}
				t443 := i_li1
				if t443 < 0 || t443 >= d_A[1] {
					return m.OOB(t443, d_A[1], 1, "A", 0, 0)
				}
				t444 := b_A + int((t442)*d_A[1]+t443)
				t445 := m.LoadF(t444)
				cs.Fold(checksum.AccDef, math.Float64bits(t445), p_tsteps)
			}
			t446 := p_tsteps - int64(2)
			if t446 >= int64(0) {
				t447 := i_li0
				if t447 < 0 || t447 >= d_A[0] {
					return m.OOB(t447, d_A[0], 0, "A", 0, 0)
				}
				t448 := i_li1
				if t448 < 0 || t448 >= d_A[1] {
					return m.OOB(t448, d_A[1], 1, "A", 0, 0)
				}
				t449 := b_A + int((t447)*d_A[1]+t448)
				t450 := m.LoadF(t449)
				cs.Fold(checksum.AccDef, math.Float64bits(t450), int64(1))
			}
			t452 := p_tsteps - int64(1)
			t451 := t452 >= int64(0)
			if t451 {
				t453 := -p_tsteps
				t454 := t453 + int64(1)
				t451 = t454 >= int64(0)
			}
			if t451 {
				t455 := i_li0
				if t455 < 0 || t455 >= d_A[0] {
					return m.OOB(t455, d_A[0], 0, "A", 0, 0)
				}
				t456 := i_li1
				if t456 < 0 || t456 >= d_A[1] {
					return m.OOB(t456, d_A[1], 1, "A", 0, 0)
				}
				t457 := b_A + int((t455)*d_A[1]+t456)
				t458 := m.LoadF(t457)
				cs.Fold(checksum.AccDef, math.Float64bits(t458), p_tsteps)
			}
			t459 := p_tsteps - int64(2)
			if t459 >= int64(0) {
				t460 := i_li0
				if t460 < 0 || t460 >= d_A[0] {
					return m.OOB(t460, d_A[0], 0, "A", 0, 0)
				}
				t461 := i_li1
				if t461 < 0 || t461 >= d_A[1] {
					return m.OOB(t461, d_A[1], 1, "A", 0, 0)
				}
				t462 := b_A + int((t460)*d_A[1]+t461)
				t463 := m.LoadF(t462)
				cs.Fold(checksum.AccDef, math.Float64bits(t463), int64(1))
			}
			t465 := p_tsteps - int64(1)
			t464 := t465 >= int64(0)
			if t464 {
				t466 := -p_tsteps
				t467 := t466 + int64(1)
				t464 = t467 >= int64(0)
			}
			if t464 {
				t468 := i_li0
				if t468 < 0 || t468 >= d_A[0] {
					return m.OOB(t468, d_A[0], 0, "A", 0, 0)
				}
				t469 := i_li1
				if t469 < 0 || t469 >= d_A[1] {
					return m.OOB(t469, d_A[1], 1, "A", 0, 0)
				}
				t470 := b_A + int((t468)*d_A[1]+t469)
				t471 := m.LoadF(t470)
				cs.Fold(checksum.AccDef, math.Float64bits(t471), p_tsteps)
			}
			t472 := p_tsteps - int64(2)
			if t472 >= int64(0) {
				t473 := i_li0
				if t473 < 0 || t473 >= d_A[0] {
					return m.OOB(t473, d_A[0], 0, "A", 0, 0)
				}
				t474 := i_li1
				if t474 < 0 || t474 >= d_A[1] {
					return m.OOB(t474, d_A[1], 1, "A", 0, 0)
				}
				t475 := b_A + int((t473)*d_A[1]+t474)
				t476 := m.LoadF(t475)
				cs.Fold(checksum.AccDef, math.Float64bits(t476), int64(1))
			}
			t478 := p_tsteps - int64(1)
			t477 := t478 >= int64(0)
			if t477 {
				t479 := -p_tsteps
				t480 := t479 + int64(1)
				t477 = t480 >= int64(0)
			}
			if t477 {
				t481 := i_li0
				if t481 < 0 || t481 >= d_A[0] {
					return m.OOB(t481, d_A[0], 0, "A", 0, 0)
				}
				t482 := i_li1
				if t482 < 0 || t482 >= d_A[1] {
					return m.OOB(t482, d_A[1], 1, "A", 0, 0)
				}
				t483 := b_A + int((t481)*d_A[1]+t482)
				t484 := m.LoadF(t483)
				cs.Fold(checksum.AccDef, math.Float64bits(t484), p_tsteps)
			}
			t485 := p_tsteps - int64(2)
			if t485 >= int64(0) {
				t486 := i_li0
				if t486 < 0 || t486 >= d_A[0] {
					return m.OOB(t486, d_A[0], 0, "A", 0, 0)
				}
				t487 := i_li1
				if t487 < 0 || t487 >= d_A[1] {
					return m.OOB(t487, d_A[1], 1, "A", 0, 0)
				}
				t488 := b_A + int((t486)*d_A[1]+t487)
				t489 := m.LoadF(t488)
				cs.Fold(checksum.AccDef, math.Float64bits(t489), int64(1))
			}
		}
		t490 := p_n - int64(2)
		t491 := codegen.MaxI(int64(2), t490)
		t492 := p_n - int64(2)
		for i_li1 := t491; i_li1 <= t492; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t494 := p_tsteps - int64(1)
			t493 := t494 >= int64(0)
			if t493 {
				t495 := -p_tsteps
				t496 := t495 + int64(1)
				t493 = t496 >= int64(0)
			}
			if t493 {
				t497 := i_li0
				if t497 < 0 || t497 >= d_A[0] {
					return m.OOB(t497, d_A[0], 0, "A", 0, 0)
				}
				t498 := i_li1
				if t498 < 0 || t498 >= d_A[1] {
					return m.OOB(t498, d_A[1], 1, "A", 0, 0)
				}
				t499 := b_A + int((t497)*d_A[1]+t498)
				t500 := m.LoadF(t499)
				cs.Fold(checksum.AccDef, math.Float64bits(t500), p_tsteps)
			}
			t501 := p_tsteps - int64(2)
			if t501 >= int64(0) {
				t502 := i_li0
				if t502 < 0 || t502 >= d_A[0] {
					return m.OOB(t502, d_A[0], 0, "A", 0, 0)
				}
				t503 := i_li1
				if t503 < 0 || t503 >= d_A[1] {
					return m.OOB(t503, d_A[1], 1, "A", 0, 0)
				}
				t504 := b_A + int((t502)*d_A[1]+t503)
				t505 := m.LoadF(t504)
				cs.Fold(checksum.AccDef, math.Float64bits(t505), int64(1))
			}
			t507 := p_tsteps - int64(1)
			t506 := t507 >= int64(0)
			if t506 {
				t508 := -p_tsteps
				t509 := t508 + int64(1)
				t506 = t509 >= int64(0)
			}
			if t506 {
				t510 := i_li0
				if t510 < 0 || t510 >= d_A[0] {
					return m.OOB(t510, d_A[0], 0, "A", 0, 0)
				}
				t511 := i_li1
				if t511 < 0 || t511 >= d_A[1] {
					return m.OOB(t511, d_A[1], 1, "A", 0, 0)
				}
				t512 := b_A + int((t510)*d_A[1]+t511)
				t513 := m.LoadF(t512)
				cs.Fold(checksum.AccDef, math.Float64bits(t513), p_tsteps)
			}
			t514 := p_tsteps - int64(2)
			if t514 >= int64(0) {
				t515 := i_li0
				if t515 < 0 || t515 >= d_A[0] {
					return m.OOB(t515, d_A[0], 0, "A", 0, 0)
				}
				t516 := i_li1
				if t516 < 0 || t516 >= d_A[1] {
					return m.OOB(t516, d_A[1], 1, "A", 0, 0)
				}
				t517 := b_A + int((t515)*d_A[1]+t516)
				t518 := m.LoadF(t517)
				cs.Fold(checksum.AccDef, math.Float64bits(t518), int64(1))
			}
			t520 := p_tsteps - int64(1)
			t519 := t520 >= int64(0)
			if t519 {
				t521 := -p_tsteps
				t522 := t521 + int64(1)
				t519 = t522 >= int64(0)
			}
			if t519 {
				t523 := i_li0
				if t523 < 0 || t523 >= d_A[0] {
					return m.OOB(t523, d_A[0], 0, "A", 0, 0)
				}
				t524 := i_li1
				if t524 < 0 || t524 >= d_A[1] {
					return m.OOB(t524, d_A[1], 1, "A", 0, 0)
				}
				t525 := b_A + int((t523)*d_A[1]+t524)
				t526 := m.LoadF(t525)
				cs.Fold(checksum.AccDef, math.Float64bits(t526), p_tsteps)
			}
			t527 := p_tsteps - int64(2)
			if t527 >= int64(0) {
				t528 := i_li0
				if t528 < 0 || t528 >= d_A[0] {
					return m.OOB(t528, d_A[0], 0, "A", 0, 0)
				}
				t529 := i_li1
				if t529 < 0 || t529 >= d_A[1] {
					return m.OOB(t529, d_A[1], 1, "A", 0, 0)
				}
				t530 := b_A + int((t528)*d_A[1]+t529)
				t531 := m.LoadF(t530)
				cs.Fold(checksum.AccDef, math.Float64bits(t531), int64(1))
			}
			t533 := p_tsteps - int64(1)
			t532 := t533 >= int64(0)
			if t532 {
				t534 := -p_tsteps
				t535 := t534 + int64(1)
				t532 = t535 >= int64(0)
			}
			if t532 {
				t536 := i_li0
				if t536 < 0 || t536 >= d_A[0] {
					return m.OOB(t536, d_A[0], 0, "A", 0, 0)
				}
				t537 := i_li1
				if t537 < 0 || t537 >= d_A[1] {
					return m.OOB(t537, d_A[1], 1, "A", 0, 0)
				}
				t538 := b_A + int((t536)*d_A[1]+t537)
				t539 := m.LoadF(t538)
				cs.Fold(checksum.AccDef, math.Float64bits(t539), p_tsteps)
			}
			t540 := p_tsteps - int64(2)
			if t540 >= int64(0) {
				t541 := i_li0
				if t541 < 0 || t541 >= d_A[0] {
					return m.OOB(t541, d_A[0], 0, "A", 0, 0)
				}
				t542 := i_li1
				if t542 < 0 || t542 >= d_A[1] {
					return m.OOB(t542, d_A[1], 1, "A", 0, 0)
				}
				t543 := b_A + int((t541)*d_A[1]+t542)
				t544 := m.LoadF(t543)
				cs.Fold(checksum.AccDef, math.Float64bits(t544), int64(1))
			}
		}
		t545 := p_n - int64(1)
		t546 := codegen.MaxI(int64(1), t545)
		t547 := p_n - int64(1)
		for i_li1 := t546; i_li1 <= t547; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t548 := p_tsteps - int64(1)
			if t548 >= int64(0) {
				t549 := i_li0
				if t549 < 0 || t549 >= d_A[0] {
					return m.OOB(t549, d_A[0], 0, "A", 0, 0)
				}
				t550 := i_li1
				if t550 < 0 || t550 >= d_A[1] {
					return m.OOB(t550, d_A[1], 1, "A", 0, 0)
				}
				t551 := b_A + int((t549)*d_A[1]+t550)
				t552 := m.LoadF(t551)
				cs.Fold(checksum.AccDef, math.Float64bits(t552), p_tsteps)
			}
			t553 := p_tsteps - int64(1)
			if t553 >= int64(0) {
				t554 := i_li0
				if t554 < 0 || t554 >= d_A[0] {
					return m.OOB(t554, d_A[0], 0, "A", 0, 0)
				}
				t555 := i_li1
				if t555 < 0 || t555 >= d_A[1] {
					return m.OOB(t555, d_A[1], 1, "A", 0, 0)
				}
				t556 := b_A + int((t554)*d_A[1]+t555)
				t557 := m.LoadF(t556)
				cs.Fold(checksum.AccDef, math.Float64bits(t557), p_tsteps)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t558 := p_n - int64(1)
	t559 := codegen.MaxI(int64(1), t558)
	t560 := p_n - int64(1)
	for i_li0 := t559; i_li0 <= t560; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t561 := p_n - int64(3)
		t562 := codegen.MinI(t561, int64(0))
		for i_li1 := int64(0); i_li1 <= t562; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t563 := p_tsteps - int64(1)
			if t563 >= int64(0) {
				t564 := i_li0
				if t564 < 0 || t564 >= d_A[0] {
					return m.OOB(t564, d_A[0], 0, "A", 0, 0)
				}
				t565 := i_li1
				if t565 < 0 || t565 >= d_A[1] {
					return m.OOB(t565, d_A[1], 1, "A", 0, 0)
				}
				t566 := b_A + int((t564)*d_A[1]+t565)
				t567 := m.LoadF(t566)
				cs.Fold(checksum.AccDef, math.Float64bits(t567), p_tsteps)
			}
		}
		t568 := p_n - int64(3)
		t569 := codegen.MinI(t568, int64(1))
		for i_li1 := int64(1); i_li1 <= t569; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t570 := p_tsteps - int64(1)
			if t570 >= int64(0) {
				t571 := i_li0
				if t571 < 0 || t571 >= d_A[0] {
					return m.OOB(t571, d_A[0], 0, "A", 0, 0)
				}
				t572 := i_li1
				if t572 < 0 || t572 >= d_A[1] {
					return m.OOB(t572, d_A[1], 1, "A", 0, 0)
				}
				t573 := b_A + int((t571)*d_A[1]+t572)
				t574 := m.LoadF(t573)
				cs.Fold(checksum.AccDef, math.Float64bits(t574), p_tsteps)
			}
			t575 := p_tsteps - int64(1)
			if t575 >= int64(0) {
				t576 := i_li0
				if t576 < 0 || t576 >= d_A[0] {
					return m.OOB(t576, d_A[0], 0, "A", 0, 0)
				}
				t577 := i_li1
				if t577 < 0 || t577 >= d_A[1] {
					return m.OOB(t577, d_A[1], 1, "A", 0, 0)
				}
				t578 := b_A + int((t576)*d_A[1]+t577)
				t579 := m.LoadF(t578)
				cs.Fold(checksum.AccDef, math.Float64bits(t579), p_tsteps)
			}
		}
		t580 := p_n - int64(3)
		for i_li1 := int64(2); i_li1 <= t580; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t581 := p_tsteps - int64(1)
			if t581 >= int64(0) {
				t582 := i_li0
				if t582 < 0 || t582 >= d_A[0] {
					return m.OOB(t582, d_A[0], 0, "A", 0, 0)
				}
				t583 := i_li1
				if t583 < 0 || t583 >= d_A[1] {
					return m.OOB(t583, d_A[1], 1, "A", 0, 0)
				}
				t584 := b_A + int((t582)*d_A[1]+t583)
				t585 := m.LoadF(t584)
				cs.Fold(checksum.AccDef, math.Float64bits(t585), p_tsteps)
			}
			t586 := p_tsteps - int64(1)
			if t586 >= int64(0) {
				t587 := i_li0
				if t587 < 0 || t587 >= d_A[0] {
					return m.OOB(t587, d_A[0], 0, "A", 0, 0)
				}
				t588 := i_li1
				if t588 < 0 || t588 >= d_A[1] {
					return m.OOB(t588, d_A[1], 1, "A", 0, 0)
				}
				t589 := b_A + int((t587)*d_A[1]+t588)
				t590 := m.LoadF(t589)
				cs.Fold(checksum.AccDef, math.Float64bits(t590), p_tsteps)
			}
			t591 := p_tsteps - int64(1)
			if t591 >= int64(0) {
				t592 := i_li0
				if t592 < 0 || t592 >= d_A[0] {
					return m.OOB(t592, d_A[0], 0, "A", 0, 0)
				}
				t593 := i_li1
				if t593 < 0 || t593 >= d_A[1] {
					return m.OOB(t593, d_A[1], 1, "A", 0, 0)
				}
				t594 := b_A + int((t592)*d_A[1]+t593)
				t595 := m.LoadF(t594)
				cs.Fold(checksum.AccDef, math.Float64bits(t595), p_tsteps)
			}
		}
		t596 := p_n - int64(2)
		t597 := codegen.MaxI(int64(1), t596)
		t598 := p_n - int64(2)
		t599 := codegen.MinI(t598, int64(1))
		for i_li1 := t597; i_li1 <= t599; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t600 := p_tsteps - int64(1)
			if t600 >= int64(0) {
				t601 := i_li0
				if t601 < 0 || t601 >= d_A[0] {
					return m.OOB(t601, d_A[0], 0, "A", 0, 0)
				}
				t602 := i_li1
				if t602 < 0 || t602 >= d_A[1] {
					return m.OOB(t602, d_A[1], 1, "A", 0, 0)
				}
				t603 := b_A + int((t601)*d_A[1]+t602)
				t604 := m.LoadF(t603)
				cs.Fold(checksum.AccDef, math.Float64bits(t604), p_tsteps)
			}
		}
		t605 := p_n - int64(2)
		t606 := codegen.MaxI(int64(2), t605)
		t607 := p_n - int64(2)
		for i_li1 := t606; i_li1 <= t607; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t608 := p_tsteps - int64(1)
			if t608 >= int64(0) {
				t609 := i_li0
				if t609 < 0 || t609 >= d_A[0] {
					return m.OOB(t609, d_A[0], 0, "A", 0, 0)
				}
				t610 := i_li1
				if t610 < 0 || t610 >= d_A[1] {
					return m.OOB(t610, d_A[1], 1, "A", 0, 0)
				}
				t611 := b_A + int((t609)*d_A[1]+t610)
				t612 := m.LoadF(t611)
				cs.Fold(checksum.AccDef, math.Float64bits(t612), p_tsteps)
			}
			t613 := p_tsteps - int64(1)
			if t613 >= int64(0) {
				t614 := i_li0
				if t614 < 0 || t614 >= d_A[0] {
					return m.OOB(t614, d_A[0], 0, "A", 0, 0)
				}
				t615 := i_li1
				if t615 < 0 || t615 >= d_A[1] {
					return m.OOB(t615, d_A[1], 1, "A", 0, 0)
				}
				t616 := b_A + int((t614)*d_A[1]+t615)
				t617 := m.LoadF(t616)
				cs.Fold(checksum.AccDef, math.Float64bits(t617), p_tsteps)
			}
		}
		t618 := p_n - int64(1)
		t619 := codegen.MaxI(int64(2), t618)
		t620 := p_n - int64(1)
		for i_li1 := t619; i_li1 <= t620; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t621 := p_tsteps - int64(1)
			if t621 >= int64(0) {
				t622 := i_li0
				if t622 < 0 || t622 >= d_A[0] {
					return m.OOB(t622, d_A[0], 0, "A", 0, 0)
				}
				t623 := i_li1
				if t623 < 0 || t623 >= d_A[1] {
					return m.OOB(t623, d_A[1], 1, "A", 0, 0)
				}
				t624 := b_A + int((t622)*d_A[1]+t623)
				t625 := m.LoadF(t624)
				cs.Fold(checksum.AccDef, math.Float64bits(t625), p_tsteps)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t628 := p_n - int64(3)
	t629 := codegen.MinI(t628, int64(1))
	for i_i := int64(1); i_i <= t629; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t630 := p_n - int64(3)
		t631 := codegen.MinI(t630, int64(1))
		for i_j := int64(1); i_j <= t631; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t632 := i_i - int64(1)
			t633 := t632
			if t633 < 0 || t633 >= d_A[0] {
				return m.OOB(t633, d_A[0], 0, "A", 7, 22)
			}
			t634 := i_j - int64(1)
			t635 := t634
			if t635 < 0 || t635 >= d_A[1] {
				return m.OOB(t635, d_A[1], 1, "A", 7, 22)
			}
			t636 := b_A + int((t633)*d_A[1]+t635)
			r_A_r := m.LoadF(t636)
			t637 := i_i - int64(1)
			t638 := t637
			if t638 < 0 || t638 >= d_A[0] {
				return m.OOB(t638, d_A[0], 0, "A", 7, 40)
			}
			t639 := i_j
			if t639 < 0 || t639 >= d_A[1] {
				return m.OOB(t639, d_A[1], 1, "A", 7, 40)
			}
			t640 := b_A + int((t638)*d_A[1]+t639)
			r_A_r2 := m.LoadF(t640)
			t641 := i_i - int64(1)
			t642 := t641
			if t642 < 0 || t642 >= d_A[0] {
				return m.OOB(t642, d_A[0], 0, "A", 7, 54)
			}
			t643 := i_j + int64(1)
			t644 := t643
			if t644 < 0 || t644 >= d_A[1] {
				return m.OOB(t644, d_A[1], 1, "A", 7, 54)
			}
			t645 := b_A + int((t642)*d_A[1]+t644)
			r_A_r3 := m.LoadF(t645)
			t646 := i_i
			if t646 < 0 || t646 >= d_A[0] {
				return m.OOB(t646, d_A[0], 0, "A", 7, 72)
			}
			t647 := i_j - int64(1)
			t648 := t647
			if t648 < 0 || t648 >= d_A[1] {
				return m.OOB(t648, d_A[1], 1, "A", 7, 72)
			}
			t649 := b_A + int((t646)*d_A[1]+t648)
			r_A_r4 := m.LoadF(t649)
			t650 := i_i
			if t650 < 0 || t650 >= d_A[0] {
				return m.OOB(t650, d_A[0], 0, "A", 7, 86)
			}
			t651 := i_j
			if t651 < 0 || t651 >= d_A[1] {
				return m.OOB(t651, d_A[1], 1, "A", 7, 86)
			}
			t652 := b_A + int((t650)*d_A[1]+t651)
			r_A_r5 := m.LoadF(t652)
			t653 := i_i
			if t653 < 0 || t653 >= d_A[0] {
				return m.OOB(t653, d_A[0], 0, "A", 7, 96)
			}
			t654 := i_j + int64(1)
			t655 := t654
			if t655 < 0 || t655 >= d_A[1] {
				return m.OOB(t655, d_A[1], 1, "A", 7, 96)
			}
			t656 := b_A + int((t653)*d_A[1]+t655)
			r_A_r6 := m.LoadF(t656)
			t657 := i_i + int64(1)
			t658 := t657
			if t658 < 0 || t658 >= d_A[0] {
				return m.OOB(t658, d_A[0], 0, "A", 7, 110)
			}
			t659 := i_j - int64(1)
			t660 := t659
			if t660 < 0 || t660 >= d_A[1] {
				return m.OOB(t660, d_A[1], 1, "A", 7, 110)
			}
			t661 := b_A + int((t658)*d_A[1]+t660)
			r_A_r7 := m.LoadF(t661)
			t662 := i_i + int64(1)
			t663 := t662
			if t663 < 0 || t663 >= d_A[0] {
				return m.OOB(t663, d_A[0], 0, "A", 7, 128)
			}
			t664 := i_j
			if t664 < 0 || t664 >= d_A[1] {
				return m.OOB(t664, d_A[1], 1, "A", 7, 128)
			}
			t665 := b_A + int((t663)*d_A[1]+t664)
			r_A_r8 := m.LoadF(t665)
			t666 := i_i + int64(1)
			t667 := t666
			if t667 < 0 || t667 >= d_A[0] {
				return m.OOB(t667, d_A[0], 0, "A", 7, 142)
			}
			t668 := i_j + int64(1)
			t669 := t668
			if t669 < 0 || t669 >= d_A[1] {
				return m.OOB(t669, d_A[1], 1, "A", 7, 142)
			}
			t670 := b_A + int((t667)*d_A[1]+t669)
			r_A_r9 := m.LoadF(t670)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t671 := float64(r_A_r + r_A_r2)
			t672 := float64(t671 + r_A_r3)
			t673 := float64(t672 + r_A_r4)
			t674 := float64(t673 + r_A_r5)
			t675 := float64(t674 + r_A_r6)
			t676 := float64(t675 + r_A_r7)
			t677 := float64(t676 + r_A_r8)
			t678 := float64(t677 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t679 := float64(t678 / float64(9))
			r_A_w := t679
			t680 := i_i
			if t680 < 0 || t680 >= d_A[0] {
				return m.OOB(t680, d_A[0], 0, "A", 7, 11)
			}
			t681 := i_j
			if t681 < 0 || t681 >= d_A[1] {
				return m.OOB(t681, d_A[1], 1, "A", 7, 11)
			}
			t682 := b_A + int((t680)*d_A[1]+t681)
			m.StoreF(t682, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t683 := p_n - int64(3)
		for i_j := int64(2); i_j <= t683; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t684 := i_i - int64(1)
			t685 := t684
			if t685 < 0 || t685 >= d_A[0] {
				return m.OOB(t685, d_A[0], 0, "A", 7, 22)
			}
			t686 := i_j - int64(1)
			t687 := t686
			if t687 < 0 || t687 >= d_A[1] {
				return m.OOB(t687, d_A[1], 1, "A", 7, 22)
			}
			t688 := b_A + int((t685)*d_A[1]+t687)
			r_A_r := m.LoadF(t688)
			t689 := i_i - int64(1)
			t690 := t689
			if t690 < 0 || t690 >= d_A[0] {
				return m.OOB(t690, d_A[0], 0, "A", 7, 40)
			}
			t691 := i_j
			if t691 < 0 || t691 >= d_A[1] {
				return m.OOB(t691, d_A[1], 1, "A", 7, 40)
			}
			t692 := b_A + int((t690)*d_A[1]+t691)
			r_A_r2 := m.LoadF(t692)
			t693 := i_i - int64(1)
			t694 := t693
			if t694 < 0 || t694 >= d_A[0] {
				return m.OOB(t694, d_A[0], 0, "A", 7, 54)
			}
			t695 := i_j + int64(1)
			t696 := t695
			if t696 < 0 || t696 >= d_A[1] {
				return m.OOB(t696, d_A[1], 1, "A", 7, 54)
			}
			t697 := b_A + int((t694)*d_A[1]+t696)
			r_A_r3 := m.LoadF(t697)
			t698 := i_i
			if t698 < 0 || t698 >= d_A[0] {
				return m.OOB(t698, d_A[0], 0, "A", 7, 72)
			}
			t699 := i_j - int64(1)
			t700 := t699
			if t700 < 0 || t700 >= d_A[1] {
				return m.OOB(t700, d_A[1], 1, "A", 7, 72)
			}
			t701 := b_A + int((t698)*d_A[1]+t700)
			r_A_r4 := m.LoadF(t701)
			t702 := i_i
			if t702 < 0 || t702 >= d_A[0] {
				return m.OOB(t702, d_A[0], 0, "A", 7, 86)
			}
			t703 := i_j
			if t703 < 0 || t703 >= d_A[1] {
				return m.OOB(t703, d_A[1], 1, "A", 7, 86)
			}
			t704 := b_A + int((t702)*d_A[1]+t703)
			r_A_r5 := m.LoadF(t704)
			t705 := i_i
			if t705 < 0 || t705 >= d_A[0] {
				return m.OOB(t705, d_A[0], 0, "A", 7, 96)
			}
			t706 := i_j + int64(1)
			t707 := t706
			if t707 < 0 || t707 >= d_A[1] {
				return m.OOB(t707, d_A[1], 1, "A", 7, 96)
			}
			t708 := b_A + int((t705)*d_A[1]+t707)
			r_A_r6 := m.LoadF(t708)
			t709 := i_i + int64(1)
			t710 := t709
			if t710 < 0 || t710 >= d_A[0] {
				return m.OOB(t710, d_A[0], 0, "A", 7, 110)
			}
			t711 := i_j - int64(1)
			t712 := t711
			if t712 < 0 || t712 >= d_A[1] {
				return m.OOB(t712, d_A[1], 1, "A", 7, 110)
			}
			t713 := b_A + int((t710)*d_A[1]+t712)
			r_A_r7 := m.LoadF(t713)
			t714 := i_i + int64(1)
			t715 := t714
			if t715 < 0 || t715 >= d_A[0] {
				return m.OOB(t715, d_A[0], 0, "A", 7, 128)
			}
			t716 := i_j
			if t716 < 0 || t716 >= d_A[1] {
				return m.OOB(t716, d_A[1], 1, "A", 7, 128)
			}
			t717 := b_A + int((t715)*d_A[1]+t716)
			r_A_r8 := m.LoadF(t717)
			t718 := i_i + int64(1)
			t719 := t718
			if t719 < 0 || t719 >= d_A[0] {
				return m.OOB(t719, d_A[0], 0, "A", 7, 142)
			}
			t720 := i_j + int64(1)
			t721 := t720
			if t721 < 0 || t721 >= d_A[1] {
				return m.OOB(t721, d_A[1], 1, "A", 7, 142)
			}
			t722 := b_A + int((t719)*d_A[1]+t721)
			r_A_r9 := m.LoadF(t722)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t723 := float64(r_A_r + r_A_r2)
			t724 := float64(t723 + r_A_r3)
			t725 := float64(t724 + r_A_r4)
			t726 := float64(t725 + r_A_r5)
			t727 := float64(t726 + r_A_r6)
			t728 := float64(t727 + r_A_r7)
			t729 := float64(t728 + r_A_r8)
			t730 := float64(t729 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t731 := float64(t730 / float64(9))
			r_A_w := t731
			t732 := i_i
			if t732 < 0 || t732 >= d_A[0] {
				return m.OOB(t732, d_A[0], 0, "A", 7, 11)
			}
			t733 := i_j
			if t733 < 0 || t733 >= d_A[1] {
				return m.OOB(t733, d_A[1], 1, "A", 7, 11)
			}
			t734 := b_A + int((t732)*d_A[1]+t733)
			m.StoreF(t734, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t735 := p_n - int64(2)
		t736 := codegen.MaxI(int64(1), t735)
		t737 := p_n - int64(2)
		for i_j := t736; i_j <= t737; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t738 := i_i - int64(1)
			t739 := t738
			if t739 < 0 || t739 >= d_A[0] {
				return m.OOB(t739, d_A[0], 0, "A", 7, 22)
			}
			t740 := i_j - int64(1)
			t741 := t740
			if t741 < 0 || t741 >= d_A[1] {
				return m.OOB(t741, d_A[1], 1, "A", 7, 22)
			}
			t742 := b_A + int((t739)*d_A[1]+t741)
			r_A_r := m.LoadF(t742)
			t743 := i_i - int64(1)
			t744 := t743
			if t744 < 0 || t744 >= d_A[0] {
				return m.OOB(t744, d_A[0], 0, "A", 7, 40)
			}
			t745 := i_j
			if t745 < 0 || t745 >= d_A[1] {
				return m.OOB(t745, d_A[1], 1, "A", 7, 40)
			}
			t746 := b_A + int((t744)*d_A[1]+t745)
			r_A_r2 := m.LoadF(t746)
			t747 := i_i - int64(1)
			t748 := t747
			if t748 < 0 || t748 >= d_A[0] {
				return m.OOB(t748, d_A[0], 0, "A", 7, 54)
			}
			t749 := i_j + int64(1)
			t750 := t749
			if t750 < 0 || t750 >= d_A[1] {
				return m.OOB(t750, d_A[1], 1, "A", 7, 54)
			}
			t751 := b_A + int((t748)*d_A[1]+t750)
			r_A_r3 := m.LoadF(t751)
			t752 := i_i
			if t752 < 0 || t752 >= d_A[0] {
				return m.OOB(t752, d_A[0], 0, "A", 7, 72)
			}
			t753 := i_j - int64(1)
			t754 := t753
			if t754 < 0 || t754 >= d_A[1] {
				return m.OOB(t754, d_A[1], 1, "A", 7, 72)
			}
			t755 := b_A + int((t752)*d_A[1]+t754)
			r_A_r4 := m.LoadF(t755)
			t756 := i_i
			if t756 < 0 || t756 >= d_A[0] {
				return m.OOB(t756, d_A[0], 0, "A", 7, 86)
			}
			t757 := i_j
			if t757 < 0 || t757 >= d_A[1] {
				return m.OOB(t757, d_A[1], 1, "A", 7, 86)
			}
			t758 := b_A + int((t756)*d_A[1]+t757)
			r_A_r5 := m.LoadF(t758)
			t759 := i_i
			if t759 < 0 || t759 >= d_A[0] {
				return m.OOB(t759, d_A[0], 0, "A", 7, 96)
			}
			t760 := i_j + int64(1)
			t761 := t760
			if t761 < 0 || t761 >= d_A[1] {
				return m.OOB(t761, d_A[1], 1, "A", 7, 96)
			}
			t762 := b_A + int((t759)*d_A[1]+t761)
			r_A_r6 := m.LoadF(t762)
			t763 := i_i + int64(1)
			t764 := t763
			if t764 < 0 || t764 >= d_A[0] {
				return m.OOB(t764, d_A[0], 0, "A", 7, 110)
			}
			t765 := i_j - int64(1)
			t766 := t765
			if t766 < 0 || t766 >= d_A[1] {
				return m.OOB(t766, d_A[1], 1, "A", 7, 110)
			}
			t767 := b_A + int((t764)*d_A[1]+t766)
			r_A_r7 := m.LoadF(t767)
			t768 := i_i + int64(1)
			t769 := t768
			if t769 < 0 || t769 >= d_A[0] {
				return m.OOB(t769, d_A[0], 0, "A", 7, 128)
			}
			t770 := i_j
			if t770 < 0 || t770 >= d_A[1] {
				return m.OOB(t770, d_A[1], 1, "A", 7, 128)
			}
			t771 := b_A + int((t769)*d_A[1]+t770)
			r_A_r8 := m.LoadF(t771)
			t772 := i_i + int64(1)
			t773 := t772
			if t773 < 0 || t773 >= d_A[0] {
				return m.OOB(t773, d_A[0], 0, "A", 7, 142)
			}
			t774 := i_j + int64(1)
			t775 := t774
			if t775 < 0 || t775 >= d_A[1] {
				return m.OOB(t775, d_A[1], 1, "A", 7, 142)
			}
			t776 := b_A + int((t773)*d_A[1]+t775)
			r_A_r9 := m.LoadF(t776)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t777 := float64(r_A_r + r_A_r2)
			t778 := float64(t777 + r_A_r3)
			t779 := float64(t778 + r_A_r4)
			t780 := float64(t779 + r_A_r5)
			t781 := float64(t780 + r_A_r6)
			t782 := float64(t781 + r_A_r7)
			t783 := float64(t782 + r_A_r8)
			t784 := float64(t783 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t785 := float64(t784 / float64(9))
			r_A_w := t785
			t786 := i_i
			if t786 < 0 || t786 >= d_A[0] {
				return m.OOB(t786, d_A[0], 0, "A", 7, 11)
			}
			t787 := i_j
			if t787 < 0 || t787 >= d_A[1] {
				return m.OOB(t787, d_A[1], 1, "A", 7, 11)
			}
			t788 := b_A + int((t786)*d_A[1]+t787)
			m.StoreF(t788, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n8(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t789 := p_n - int64(3)
	for i_i := int64(2); i_i <= t789; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t790 := p_n - int64(3)
		t791 := codegen.MinI(t790, int64(1))
		for i_j := int64(1); i_j <= t791; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t792 := i_i - int64(1)
			t793 := t792
			if t793 < 0 || t793 >= d_A[0] {
				return m.OOB(t793, d_A[0], 0, "A", 7, 22)
			}
			t794 := i_j - int64(1)
			t795 := t794
			if t795 < 0 || t795 >= d_A[1] {
				return m.OOB(t795, d_A[1], 1, "A", 7, 22)
			}
			t796 := b_A + int((t793)*d_A[1]+t795)
			r_A_r := m.LoadF(t796)
			t797 := i_i - int64(1)
			t798 := t797
			if t798 < 0 || t798 >= d_A[0] {
				return m.OOB(t798, d_A[0], 0, "A", 7, 40)
			}
			t799 := i_j
			if t799 < 0 || t799 >= d_A[1] {
				return m.OOB(t799, d_A[1], 1, "A", 7, 40)
			}
			t800 := b_A + int((t798)*d_A[1]+t799)
			r_A_r2 := m.LoadF(t800)
			t801 := i_i - int64(1)
			t802 := t801
			if t802 < 0 || t802 >= d_A[0] {
				return m.OOB(t802, d_A[0], 0, "A", 7, 54)
			}
			t803 := i_j + int64(1)
			t804 := t803
			if t804 < 0 || t804 >= d_A[1] {
				return m.OOB(t804, d_A[1], 1, "A", 7, 54)
			}
			t805 := b_A + int((t802)*d_A[1]+t804)
			r_A_r3 := m.LoadF(t805)
			t806 := i_i
			if t806 < 0 || t806 >= d_A[0] {
				return m.OOB(t806, d_A[0], 0, "A", 7, 72)
			}
			t807 := i_j - int64(1)
			t808 := t807
			if t808 < 0 || t808 >= d_A[1] {
				return m.OOB(t808, d_A[1], 1, "A", 7, 72)
			}
			t809 := b_A + int((t806)*d_A[1]+t808)
			r_A_r4 := m.LoadF(t809)
			t810 := i_i
			if t810 < 0 || t810 >= d_A[0] {
				return m.OOB(t810, d_A[0], 0, "A", 7, 86)
			}
			t811 := i_j
			if t811 < 0 || t811 >= d_A[1] {
				return m.OOB(t811, d_A[1], 1, "A", 7, 86)
			}
			t812 := b_A + int((t810)*d_A[1]+t811)
			r_A_r5 := m.LoadF(t812)
			t813 := i_i
			if t813 < 0 || t813 >= d_A[0] {
				return m.OOB(t813, d_A[0], 0, "A", 7, 96)
			}
			t814 := i_j + int64(1)
			t815 := t814
			if t815 < 0 || t815 >= d_A[1] {
				return m.OOB(t815, d_A[1], 1, "A", 7, 96)
			}
			t816 := b_A + int((t813)*d_A[1]+t815)
			r_A_r6 := m.LoadF(t816)
			t817 := i_i + int64(1)
			t818 := t817
			if t818 < 0 || t818 >= d_A[0] {
				return m.OOB(t818, d_A[0], 0, "A", 7, 110)
			}
			t819 := i_j - int64(1)
			t820 := t819
			if t820 < 0 || t820 >= d_A[1] {
				return m.OOB(t820, d_A[1], 1, "A", 7, 110)
			}
			t821 := b_A + int((t818)*d_A[1]+t820)
			r_A_r7 := m.LoadF(t821)
			t822 := i_i + int64(1)
			t823 := t822
			if t823 < 0 || t823 >= d_A[0] {
				return m.OOB(t823, d_A[0], 0, "A", 7, 128)
			}
			t824 := i_j
			if t824 < 0 || t824 >= d_A[1] {
				return m.OOB(t824, d_A[1], 1, "A", 7, 128)
			}
			t825 := b_A + int((t823)*d_A[1]+t824)
			r_A_r8 := m.LoadF(t825)
			t826 := i_i + int64(1)
			t827 := t826
			if t827 < 0 || t827 >= d_A[0] {
				return m.OOB(t827, d_A[0], 0, "A", 7, 142)
			}
			t828 := i_j + int64(1)
			t829 := t828
			if t829 < 0 || t829 >= d_A[1] {
				return m.OOB(t829, d_A[1], 1, "A", 7, 142)
			}
			t830 := b_A + int((t827)*d_A[1]+t829)
			r_A_r9 := m.LoadF(t830)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t831 := float64(r_A_r + r_A_r2)
			t832 := float64(t831 + r_A_r3)
			t833 := float64(t832 + r_A_r4)
			t834 := float64(t833 + r_A_r5)
			t835 := float64(t834 + r_A_r6)
			t836 := float64(t835 + r_A_r7)
			t837 := float64(t836 + r_A_r8)
			t838 := float64(t837 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t839 := float64(t838 / float64(9))
			r_A_w := t839
			t840 := i_i
			if t840 < 0 || t840 >= d_A[0] {
				return m.OOB(t840, d_A[0], 0, "A", 7, 11)
			}
			t841 := i_j
			if t841 < 0 || t841 >= d_A[1] {
				return m.OOB(t841, d_A[1], 1, "A", 7, 11)
			}
			t842 := b_A + int((t840)*d_A[1]+t841)
			m.StoreF(t842, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t843 := p_n - int64(3)
		for i_j := int64(2); i_j <= t843; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t844 := i_i - int64(1)
			t845 := t844
			if t845 < 0 || t845 >= d_A[0] {
				return m.OOB(t845, d_A[0], 0, "A", 7, 22)
			}
			t846 := i_j - int64(1)
			t847 := t846
			if t847 < 0 || t847 >= d_A[1] {
				return m.OOB(t847, d_A[1], 1, "A", 7, 22)
			}
			t848 := b_A + int((t845)*d_A[1]+t847)
			r_A_r := m.LoadF(t848)
			t849 := i_i - int64(1)
			t850 := t849
			if t850 < 0 || t850 >= d_A[0] {
				return m.OOB(t850, d_A[0], 0, "A", 7, 40)
			}
			t851 := i_j
			if t851 < 0 || t851 >= d_A[1] {
				return m.OOB(t851, d_A[1], 1, "A", 7, 40)
			}
			t852 := b_A + int((t850)*d_A[1]+t851)
			r_A_r2 := m.LoadF(t852)
			t853 := i_i - int64(1)
			t854 := t853
			if t854 < 0 || t854 >= d_A[0] {
				return m.OOB(t854, d_A[0], 0, "A", 7, 54)
			}
			t855 := i_j + int64(1)
			t856 := t855
			if t856 < 0 || t856 >= d_A[1] {
				return m.OOB(t856, d_A[1], 1, "A", 7, 54)
			}
			t857 := b_A + int((t854)*d_A[1]+t856)
			r_A_r3 := m.LoadF(t857)
			t858 := i_i
			if t858 < 0 || t858 >= d_A[0] {
				return m.OOB(t858, d_A[0], 0, "A", 7, 72)
			}
			t859 := i_j - int64(1)
			t860 := t859
			if t860 < 0 || t860 >= d_A[1] {
				return m.OOB(t860, d_A[1], 1, "A", 7, 72)
			}
			t861 := b_A + int((t858)*d_A[1]+t860)
			r_A_r4 := m.LoadF(t861)
			t862 := i_i
			if t862 < 0 || t862 >= d_A[0] {
				return m.OOB(t862, d_A[0], 0, "A", 7, 86)
			}
			t863 := i_j
			if t863 < 0 || t863 >= d_A[1] {
				return m.OOB(t863, d_A[1], 1, "A", 7, 86)
			}
			t864 := b_A + int((t862)*d_A[1]+t863)
			r_A_r5 := m.LoadF(t864)
			t865 := i_i
			if t865 < 0 || t865 >= d_A[0] {
				return m.OOB(t865, d_A[0], 0, "A", 7, 96)
			}
			t866 := i_j + int64(1)
			t867 := t866
			if t867 < 0 || t867 >= d_A[1] {
				return m.OOB(t867, d_A[1], 1, "A", 7, 96)
			}
			t868 := b_A + int((t865)*d_A[1]+t867)
			r_A_r6 := m.LoadF(t868)
			t869 := i_i + int64(1)
			t870 := t869
			if t870 < 0 || t870 >= d_A[0] {
				return m.OOB(t870, d_A[0], 0, "A", 7, 110)
			}
			t871 := i_j - int64(1)
			t872 := t871
			if t872 < 0 || t872 >= d_A[1] {
				return m.OOB(t872, d_A[1], 1, "A", 7, 110)
			}
			t873 := b_A + int((t870)*d_A[1]+t872)
			r_A_r7 := m.LoadF(t873)
			t874 := i_i + int64(1)
			t875 := t874
			if t875 < 0 || t875 >= d_A[0] {
				return m.OOB(t875, d_A[0], 0, "A", 7, 128)
			}
			t876 := i_j
			if t876 < 0 || t876 >= d_A[1] {
				return m.OOB(t876, d_A[1], 1, "A", 7, 128)
			}
			t877 := b_A + int((t875)*d_A[1]+t876)
			r_A_r8 := m.LoadF(t877)
			t878 := i_i + int64(1)
			t879 := t878
			if t879 < 0 || t879 >= d_A[0] {
				return m.OOB(t879, d_A[0], 0, "A", 7, 142)
			}
			t880 := i_j + int64(1)
			t881 := t880
			if t881 < 0 || t881 >= d_A[1] {
				return m.OOB(t881, d_A[1], 1, "A", 7, 142)
			}
			t882 := b_A + int((t879)*d_A[1]+t881)
			r_A_r9 := m.LoadF(t882)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t883 := float64(r_A_r + r_A_r2)
			t884 := float64(t883 + r_A_r3)
			t885 := float64(t884 + r_A_r4)
			t886 := float64(t885 + r_A_r5)
			t887 := float64(t886 + r_A_r6)
			t888 := float64(t887 + r_A_r7)
			t889 := float64(t888 + r_A_r8)
			t890 := float64(t889 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t891 := float64(t890 / float64(9))
			r_A_w := t891
			t892 := i_i
			if t892 < 0 || t892 >= d_A[0] {
				return m.OOB(t892, d_A[0], 0, "A", 7, 11)
			}
			t893 := i_j
			if t893 < 0 || t893 >= d_A[1] {
				return m.OOB(t893, d_A[1], 1, "A", 7, 11)
			}
			t894 := b_A + int((t892)*d_A[1]+t893)
			m.StoreF(t894, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t895 := p_n - int64(2)
		t896 := codegen.MaxI(int64(1), t895)
		t897 := p_n - int64(2)
		for i_j := t896; i_j <= t897; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t898 := i_i - int64(1)
			t899 := t898
			if t899 < 0 || t899 >= d_A[0] {
				return m.OOB(t899, d_A[0], 0, "A", 7, 22)
			}
			t900 := i_j - int64(1)
			t901 := t900
			if t901 < 0 || t901 >= d_A[1] {
				return m.OOB(t901, d_A[1], 1, "A", 7, 22)
			}
			t902 := b_A + int((t899)*d_A[1]+t901)
			r_A_r := m.LoadF(t902)
			t903 := i_i - int64(1)
			t904 := t903
			if t904 < 0 || t904 >= d_A[0] {
				return m.OOB(t904, d_A[0], 0, "A", 7, 40)
			}
			t905 := i_j
			if t905 < 0 || t905 >= d_A[1] {
				return m.OOB(t905, d_A[1], 1, "A", 7, 40)
			}
			t906 := b_A + int((t904)*d_A[1]+t905)
			r_A_r2 := m.LoadF(t906)
			t907 := i_i - int64(1)
			t908 := t907
			if t908 < 0 || t908 >= d_A[0] {
				return m.OOB(t908, d_A[0], 0, "A", 7, 54)
			}
			t909 := i_j + int64(1)
			t910 := t909
			if t910 < 0 || t910 >= d_A[1] {
				return m.OOB(t910, d_A[1], 1, "A", 7, 54)
			}
			t911 := b_A + int((t908)*d_A[1]+t910)
			r_A_r3 := m.LoadF(t911)
			t912 := i_i
			if t912 < 0 || t912 >= d_A[0] {
				return m.OOB(t912, d_A[0], 0, "A", 7, 72)
			}
			t913 := i_j - int64(1)
			t914 := t913
			if t914 < 0 || t914 >= d_A[1] {
				return m.OOB(t914, d_A[1], 1, "A", 7, 72)
			}
			t915 := b_A + int((t912)*d_A[1]+t914)
			r_A_r4 := m.LoadF(t915)
			t916 := i_i
			if t916 < 0 || t916 >= d_A[0] {
				return m.OOB(t916, d_A[0], 0, "A", 7, 86)
			}
			t917 := i_j
			if t917 < 0 || t917 >= d_A[1] {
				return m.OOB(t917, d_A[1], 1, "A", 7, 86)
			}
			t918 := b_A + int((t916)*d_A[1]+t917)
			r_A_r5 := m.LoadF(t918)
			t919 := i_i
			if t919 < 0 || t919 >= d_A[0] {
				return m.OOB(t919, d_A[0], 0, "A", 7, 96)
			}
			t920 := i_j + int64(1)
			t921 := t920
			if t921 < 0 || t921 >= d_A[1] {
				return m.OOB(t921, d_A[1], 1, "A", 7, 96)
			}
			t922 := b_A + int((t919)*d_A[1]+t921)
			r_A_r6 := m.LoadF(t922)
			t923 := i_i + int64(1)
			t924 := t923
			if t924 < 0 || t924 >= d_A[0] {
				return m.OOB(t924, d_A[0], 0, "A", 7, 110)
			}
			t925 := i_j - int64(1)
			t926 := t925
			if t926 < 0 || t926 >= d_A[1] {
				return m.OOB(t926, d_A[1], 1, "A", 7, 110)
			}
			t927 := b_A + int((t924)*d_A[1]+t926)
			r_A_r7 := m.LoadF(t927)
			t928 := i_i + int64(1)
			t929 := t928
			if t929 < 0 || t929 >= d_A[0] {
				return m.OOB(t929, d_A[0], 0, "A", 7, 128)
			}
			t930 := i_j
			if t930 < 0 || t930 >= d_A[1] {
				return m.OOB(t930, d_A[1], 1, "A", 7, 128)
			}
			t931 := b_A + int((t929)*d_A[1]+t930)
			r_A_r8 := m.LoadF(t931)
			t932 := i_i + int64(1)
			t933 := t932
			if t933 < 0 || t933 >= d_A[0] {
				return m.OOB(t933, d_A[0], 0, "A", 7, 142)
			}
			t934 := i_j + int64(1)
			t935 := t934
			if t935 < 0 || t935 >= d_A[1] {
				return m.OOB(t935, d_A[1], 1, "A", 7, 142)
			}
			t936 := b_A + int((t933)*d_A[1]+t935)
			r_A_r9 := m.LoadF(t936)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t937 := float64(r_A_r + r_A_r2)
			t938 := float64(t937 + r_A_r3)
			t939 := float64(t938 + r_A_r4)
			t940 := float64(t939 + r_A_r5)
			t941 := float64(t940 + r_A_r6)
			t942 := float64(t941 + r_A_r7)
			t943 := float64(t942 + r_A_r8)
			t944 := float64(t943 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t945 := float64(t944 / float64(9))
			r_A_w := t945
			t946 := i_i
			if t946 < 0 || t946 >= d_A[0] {
				return m.OOB(t946, d_A[0], 0, "A", 7, 11)
			}
			t947 := i_j
			if t947 < 0 || t947 >= d_A[1] {
				return m.OOB(t947, d_A[1], 1, "A", 7, 11)
			}
			t948 := b_A + int((t946)*d_A[1]+t947)
			m.StoreF(t948, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n9(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t949 := p_n - int64(2)
	t950 := codegen.MaxI(int64(1), t949)
	t951 := p_n - int64(2)
	t952 := codegen.MinI(t951, int64(1))
	for i_i := t950; i_i <= t952; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t953 := p_n - int64(2)
		for i_j := int64(1); i_j <= t953; i_j++ {
			if err := m.Tick(6, 5); err != nil {
				return err
			}
			t954 := i_i - int64(1)
			t955 := t954
			if t955 < 0 || t955 >= d_A[0] {
				return m.OOB(t955, d_A[0], 0, "A", 7, 22)
			}
			t956 := i_j - int64(1)
			t957 := t956
			if t957 < 0 || t957 >= d_A[1] {
				return m.OOB(t957, d_A[1], 1, "A", 7, 22)
			}
			t958 := b_A + int((t955)*d_A[1]+t957)
			r_A_r := m.LoadF(t958)
			t959 := i_i - int64(1)
			t960 := t959
			if t960 < 0 || t960 >= d_A[0] {
				return m.OOB(t960, d_A[0], 0, "A", 7, 40)
			}
			t961 := i_j
			if t961 < 0 || t961 >= d_A[1] {
				return m.OOB(t961, d_A[1], 1, "A", 7, 40)
			}
			t962 := b_A + int((t960)*d_A[1]+t961)
			r_A_r2 := m.LoadF(t962)
			t963 := i_i - int64(1)
			t964 := t963
			if t964 < 0 || t964 >= d_A[0] {
				return m.OOB(t964, d_A[0], 0, "A", 7, 54)
			}
			t965 := i_j + int64(1)
			t966 := t965
			if t966 < 0 || t966 >= d_A[1] {
				return m.OOB(t966, d_A[1], 1, "A", 7, 54)
			}
			t967 := b_A + int((t964)*d_A[1]+t966)
			r_A_r3 := m.LoadF(t967)
			t968 := i_i
			if t968 < 0 || t968 >= d_A[0] {
				return m.OOB(t968, d_A[0], 0, "A", 7, 72)
			}
			t969 := i_j - int64(1)
			t970 := t969
			if t970 < 0 || t970 >= d_A[1] {
				return m.OOB(t970, d_A[1], 1, "A", 7, 72)
			}
			t971 := b_A + int((t968)*d_A[1]+t970)
			r_A_r4 := m.LoadF(t971)
			t972 := i_i
			if t972 < 0 || t972 >= d_A[0] {
				return m.OOB(t972, d_A[0], 0, "A", 7, 86)
			}
			t973 := i_j
			if t973 < 0 || t973 >= d_A[1] {
				return m.OOB(t973, d_A[1], 1, "A", 7, 86)
			}
			t974 := b_A + int((t972)*d_A[1]+t973)
			r_A_r5 := m.LoadF(t974)
			t975 := i_i
			if t975 < 0 || t975 >= d_A[0] {
				return m.OOB(t975, d_A[0], 0, "A", 7, 96)
			}
			t976 := i_j + int64(1)
			t977 := t976
			if t977 < 0 || t977 >= d_A[1] {
				return m.OOB(t977, d_A[1], 1, "A", 7, 96)
			}
			t978 := b_A + int((t975)*d_A[1]+t977)
			r_A_r6 := m.LoadF(t978)
			t979 := i_i + int64(1)
			t980 := t979
			if t980 < 0 || t980 >= d_A[0] {
				return m.OOB(t980, d_A[0], 0, "A", 7, 110)
			}
			t981 := i_j - int64(1)
			t982 := t981
			if t982 < 0 || t982 >= d_A[1] {
				return m.OOB(t982, d_A[1], 1, "A", 7, 110)
			}
			t983 := b_A + int((t980)*d_A[1]+t982)
			r_A_r7 := m.LoadF(t983)
			t984 := i_i + int64(1)
			t985 := t984
			if t985 < 0 || t985 >= d_A[0] {
				return m.OOB(t985, d_A[0], 0, "A", 7, 128)
			}
			t986 := i_j
			if t986 < 0 || t986 >= d_A[1] {
				return m.OOB(t986, d_A[1], 1, "A", 7, 128)
			}
			t987 := b_A + int((t985)*d_A[1]+t986)
			r_A_r8 := m.LoadF(t987)
			t988 := i_i + int64(1)
			t989 := t988
			if t989 < 0 || t989 >= d_A[0] {
				return m.OOB(t989, d_A[0], 0, "A", 7, 142)
			}
			t990 := i_j + int64(1)
			t991 := t990
			if t991 < 0 || t991 >= d_A[1] {
				return m.OOB(t991, d_A[1], 1, "A", 7, 142)
			}
			t992 := b_A + int((t989)*d_A[1]+t991)
			r_A_r9 := m.LoadF(t992)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t993 := float64(r_A_r + r_A_r2)
			t994 := float64(t993 + r_A_r3)
			t995 := float64(t994 + r_A_r4)
			t996 := float64(t995 + r_A_r5)
			t997 := float64(t996 + r_A_r6)
			t998 := float64(t997 + r_A_r7)
			t999 := float64(t998 + r_A_r8)
			t1000 := float64(t999 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1001 := float64(t1000 / float64(9))
			r_A_w := t1001
			t1002 := i_i
			if t1002 < 0 || t1002 >= d_A[0] {
				return m.OOB(t1002, d_A[0], 0, "A", 7, 11)
			}
			t1003 := i_j
			if t1003 < 0 || t1003 >= d_A[1] {
				return m.OOB(t1003, d_A[1], 1, "A", 7, 11)
			}
			t1004 := b_A + int((t1002)*d_A[1]+t1003)
			m.StoreF(t1004, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n10(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t1005 := p_n - int64(2)
	t1006 := codegen.MaxI(int64(2), t1005)
	t1007 := p_n - int64(2)
	for i_i := t1006; i_i <= t1007; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1008 := p_n - int64(3)
		t1009 := codegen.MinI(t1008, int64(1))
		for i_j := int64(1); i_j <= t1009; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1010 := i_i - int64(1)
			t1011 := t1010
			if t1011 < 0 || t1011 >= d_A[0] {
				return m.OOB(t1011, d_A[0], 0, "A", 7, 22)
			}
			t1012 := i_j - int64(1)
			t1013 := t1012
			if t1013 < 0 || t1013 >= d_A[1] {
				return m.OOB(t1013, d_A[1], 1, "A", 7, 22)
			}
			t1014 := b_A + int((t1011)*d_A[1]+t1013)
			r_A_r := m.LoadF(t1014)
			t1015 := i_i - int64(1)
			t1016 := t1015
			if t1016 < 0 || t1016 >= d_A[0] {
				return m.OOB(t1016, d_A[0], 0, "A", 7, 40)
			}
			t1017 := i_j
			if t1017 < 0 || t1017 >= d_A[1] {
				return m.OOB(t1017, d_A[1], 1, "A", 7, 40)
			}
			t1018 := b_A + int((t1016)*d_A[1]+t1017)
			r_A_r2 := m.LoadF(t1018)
			t1019 := i_i - int64(1)
			t1020 := t1019
			if t1020 < 0 || t1020 >= d_A[0] {
				return m.OOB(t1020, d_A[0], 0, "A", 7, 54)
			}
			t1021 := i_j + int64(1)
			t1022 := t1021
			if t1022 < 0 || t1022 >= d_A[1] {
				return m.OOB(t1022, d_A[1], 1, "A", 7, 54)
			}
			t1023 := b_A + int((t1020)*d_A[1]+t1022)
			r_A_r3 := m.LoadF(t1023)
			t1024 := i_i
			if t1024 < 0 || t1024 >= d_A[0] {
				return m.OOB(t1024, d_A[0], 0, "A", 7, 72)
			}
			t1025 := i_j - int64(1)
			t1026 := t1025
			if t1026 < 0 || t1026 >= d_A[1] {
				return m.OOB(t1026, d_A[1], 1, "A", 7, 72)
			}
			t1027 := b_A + int((t1024)*d_A[1]+t1026)
			r_A_r4 := m.LoadF(t1027)
			t1028 := i_i
			if t1028 < 0 || t1028 >= d_A[0] {
				return m.OOB(t1028, d_A[0], 0, "A", 7, 86)
			}
			t1029 := i_j
			if t1029 < 0 || t1029 >= d_A[1] {
				return m.OOB(t1029, d_A[1], 1, "A", 7, 86)
			}
			t1030 := b_A + int((t1028)*d_A[1]+t1029)
			r_A_r5 := m.LoadF(t1030)
			t1031 := i_i
			if t1031 < 0 || t1031 >= d_A[0] {
				return m.OOB(t1031, d_A[0], 0, "A", 7, 96)
			}
			t1032 := i_j + int64(1)
			t1033 := t1032
			if t1033 < 0 || t1033 >= d_A[1] {
				return m.OOB(t1033, d_A[1], 1, "A", 7, 96)
			}
			t1034 := b_A + int((t1031)*d_A[1]+t1033)
			r_A_r6 := m.LoadF(t1034)
			t1035 := i_i + int64(1)
			t1036 := t1035
			if t1036 < 0 || t1036 >= d_A[0] {
				return m.OOB(t1036, d_A[0], 0, "A", 7, 110)
			}
			t1037 := i_j - int64(1)
			t1038 := t1037
			if t1038 < 0 || t1038 >= d_A[1] {
				return m.OOB(t1038, d_A[1], 1, "A", 7, 110)
			}
			t1039 := b_A + int((t1036)*d_A[1]+t1038)
			r_A_r7 := m.LoadF(t1039)
			t1040 := i_i + int64(1)
			t1041 := t1040
			if t1041 < 0 || t1041 >= d_A[0] {
				return m.OOB(t1041, d_A[0], 0, "A", 7, 128)
			}
			t1042 := i_j
			if t1042 < 0 || t1042 >= d_A[1] {
				return m.OOB(t1042, d_A[1], 1, "A", 7, 128)
			}
			t1043 := b_A + int((t1041)*d_A[1]+t1042)
			r_A_r8 := m.LoadF(t1043)
			t1044 := i_i + int64(1)
			t1045 := t1044
			if t1045 < 0 || t1045 >= d_A[0] {
				return m.OOB(t1045, d_A[0], 0, "A", 7, 142)
			}
			t1046 := i_j + int64(1)
			t1047 := t1046
			if t1047 < 0 || t1047 >= d_A[1] {
				return m.OOB(t1047, d_A[1], 1, "A", 7, 142)
			}
			t1048 := b_A + int((t1045)*d_A[1]+t1047)
			r_A_r9 := m.LoadF(t1048)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1049 := float64(r_A_r + r_A_r2)
			t1050 := float64(t1049 + r_A_r3)
			t1051 := float64(t1050 + r_A_r4)
			t1052 := float64(t1051 + r_A_r5)
			t1053 := float64(t1052 + r_A_r6)
			t1054 := float64(t1053 + r_A_r7)
			t1055 := float64(t1054 + r_A_r8)
			t1056 := float64(t1055 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1057 := float64(t1056 / float64(9))
			r_A_w := t1057
			t1058 := i_i
			if t1058 < 0 || t1058 >= d_A[0] {
				return m.OOB(t1058, d_A[0], 0, "A", 7, 11)
			}
			t1059 := i_j
			if t1059 < 0 || t1059 >= d_A[1] {
				return m.OOB(t1059, d_A[1], 1, "A", 7, 11)
			}
			t1060 := b_A + int((t1058)*d_A[1]+t1059)
			m.StoreF(t1060, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t1061 := p_n - int64(3)
		for i_j := int64(2); i_j <= t1061; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1062 := i_i - int64(1)
			t1063 := t1062
			if t1063 < 0 || t1063 >= d_A[0] {
				return m.OOB(t1063, d_A[0], 0, "A", 7, 22)
			}
			t1064 := i_j - int64(1)
			t1065 := t1064
			if t1065 < 0 || t1065 >= d_A[1] {
				return m.OOB(t1065, d_A[1], 1, "A", 7, 22)
			}
			t1066 := b_A + int((t1063)*d_A[1]+t1065)
			r_A_r := m.LoadF(t1066)
			t1067 := i_i - int64(1)
			t1068 := t1067
			if t1068 < 0 || t1068 >= d_A[0] {
				return m.OOB(t1068, d_A[0], 0, "A", 7, 40)
			}
			t1069 := i_j
			if t1069 < 0 || t1069 >= d_A[1] {
				return m.OOB(t1069, d_A[1], 1, "A", 7, 40)
			}
			t1070 := b_A + int((t1068)*d_A[1]+t1069)
			r_A_r2 := m.LoadF(t1070)
			t1071 := i_i - int64(1)
			t1072 := t1071
			if t1072 < 0 || t1072 >= d_A[0] {
				return m.OOB(t1072, d_A[0], 0, "A", 7, 54)
			}
			t1073 := i_j + int64(1)
			t1074 := t1073
			if t1074 < 0 || t1074 >= d_A[1] {
				return m.OOB(t1074, d_A[1], 1, "A", 7, 54)
			}
			t1075 := b_A + int((t1072)*d_A[1]+t1074)
			r_A_r3 := m.LoadF(t1075)
			t1076 := i_i
			if t1076 < 0 || t1076 >= d_A[0] {
				return m.OOB(t1076, d_A[0], 0, "A", 7, 72)
			}
			t1077 := i_j - int64(1)
			t1078 := t1077
			if t1078 < 0 || t1078 >= d_A[1] {
				return m.OOB(t1078, d_A[1], 1, "A", 7, 72)
			}
			t1079 := b_A + int((t1076)*d_A[1]+t1078)
			r_A_r4 := m.LoadF(t1079)
			t1080 := i_i
			if t1080 < 0 || t1080 >= d_A[0] {
				return m.OOB(t1080, d_A[0], 0, "A", 7, 86)
			}
			t1081 := i_j
			if t1081 < 0 || t1081 >= d_A[1] {
				return m.OOB(t1081, d_A[1], 1, "A", 7, 86)
			}
			t1082 := b_A + int((t1080)*d_A[1]+t1081)
			r_A_r5 := m.LoadF(t1082)
			t1083 := i_i
			if t1083 < 0 || t1083 >= d_A[0] {
				return m.OOB(t1083, d_A[0], 0, "A", 7, 96)
			}
			t1084 := i_j + int64(1)
			t1085 := t1084
			if t1085 < 0 || t1085 >= d_A[1] {
				return m.OOB(t1085, d_A[1], 1, "A", 7, 96)
			}
			t1086 := b_A + int((t1083)*d_A[1]+t1085)
			r_A_r6 := m.LoadF(t1086)
			t1087 := i_i + int64(1)
			t1088 := t1087
			if t1088 < 0 || t1088 >= d_A[0] {
				return m.OOB(t1088, d_A[0], 0, "A", 7, 110)
			}
			t1089 := i_j - int64(1)
			t1090 := t1089
			if t1090 < 0 || t1090 >= d_A[1] {
				return m.OOB(t1090, d_A[1], 1, "A", 7, 110)
			}
			t1091 := b_A + int((t1088)*d_A[1]+t1090)
			r_A_r7 := m.LoadF(t1091)
			t1092 := i_i + int64(1)
			t1093 := t1092
			if t1093 < 0 || t1093 >= d_A[0] {
				return m.OOB(t1093, d_A[0], 0, "A", 7, 128)
			}
			t1094 := i_j
			if t1094 < 0 || t1094 >= d_A[1] {
				return m.OOB(t1094, d_A[1], 1, "A", 7, 128)
			}
			t1095 := b_A + int((t1093)*d_A[1]+t1094)
			r_A_r8 := m.LoadF(t1095)
			t1096 := i_i + int64(1)
			t1097 := t1096
			if t1097 < 0 || t1097 >= d_A[0] {
				return m.OOB(t1097, d_A[0], 0, "A", 7, 142)
			}
			t1098 := i_j + int64(1)
			t1099 := t1098
			if t1099 < 0 || t1099 >= d_A[1] {
				return m.OOB(t1099, d_A[1], 1, "A", 7, 142)
			}
			t1100 := b_A + int((t1097)*d_A[1]+t1099)
			r_A_r9 := m.LoadF(t1100)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1101 := float64(r_A_r + r_A_r2)
			t1102 := float64(t1101 + r_A_r3)
			t1103 := float64(t1102 + r_A_r4)
			t1104 := float64(t1103 + r_A_r5)
			t1105 := float64(t1104 + r_A_r6)
			t1106 := float64(t1105 + r_A_r7)
			t1107 := float64(t1106 + r_A_r8)
			t1108 := float64(t1107 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1109 := float64(t1108 / float64(9))
			r_A_w := t1109
			t1110 := i_i
			if t1110 < 0 || t1110 >= d_A[0] {
				return m.OOB(t1110, d_A[0], 0, "A", 7, 11)
			}
			t1111 := i_j
			if t1111 < 0 || t1111 >= d_A[1] {
				return m.OOB(t1111, d_A[1], 1, "A", 7, 11)
			}
			t1112 := b_A + int((t1110)*d_A[1]+t1111)
			m.StoreF(t1112, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t1113 := p_n - int64(2)
		t1114 := codegen.MaxI(int64(1), t1113)
		t1115 := p_n - int64(2)
		for i_j := t1114; i_j <= t1115; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1116 := i_i - int64(1)
			t1117 := t1116
			if t1117 < 0 || t1117 >= d_A[0] {
				return m.OOB(t1117, d_A[0], 0, "A", 7, 22)
			}
			t1118 := i_j - int64(1)
			t1119 := t1118
			if t1119 < 0 || t1119 >= d_A[1] {
				return m.OOB(t1119, d_A[1], 1, "A", 7, 22)
			}
			t1120 := b_A + int((t1117)*d_A[1]+t1119)
			r_A_r := m.LoadF(t1120)
			t1121 := i_i - int64(1)
			t1122 := t1121
			if t1122 < 0 || t1122 >= d_A[0] {
				return m.OOB(t1122, d_A[0], 0, "A", 7, 40)
			}
			t1123 := i_j
			if t1123 < 0 || t1123 >= d_A[1] {
				return m.OOB(t1123, d_A[1], 1, "A", 7, 40)
			}
			t1124 := b_A + int((t1122)*d_A[1]+t1123)
			r_A_r2 := m.LoadF(t1124)
			t1125 := i_i - int64(1)
			t1126 := t1125
			if t1126 < 0 || t1126 >= d_A[0] {
				return m.OOB(t1126, d_A[0], 0, "A", 7, 54)
			}
			t1127 := i_j + int64(1)
			t1128 := t1127
			if t1128 < 0 || t1128 >= d_A[1] {
				return m.OOB(t1128, d_A[1], 1, "A", 7, 54)
			}
			t1129 := b_A + int((t1126)*d_A[1]+t1128)
			r_A_r3 := m.LoadF(t1129)
			t1130 := i_i
			if t1130 < 0 || t1130 >= d_A[0] {
				return m.OOB(t1130, d_A[0], 0, "A", 7, 72)
			}
			t1131 := i_j - int64(1)
			t1132 := t1131
			if t1132 < 0 || t1132 >= d_A[1] {
				return m.OOB(t1132, d_A[1], 1, "A", 7, 72)
			}
			t1133 := b_A + int((t1130)*d_A[1]+t1132)
			r_A_r4 := m.LoadF(t1133)
			t1134 := i_i
			if t1134 < 0 || t1134 >= d_A[0] {
				return m.OOB(t1134, d_A[0], 0, "A", 7, 86)
			}
			t1135 := i_j
			if t1135 < 0 || t1135 >= d_A[1] {
				return m.OOB(t1135, d_A[1], 1, "A", 7, 86)
			}
			t1136 := b_A + int((t1134)*d_A[1]+t1135)
			r_A_r5 := m.LoadF(t1136)
			t1137 := i_i
			if t1137 < 0 || t1137 >= d_A[0] {
				return m.OOB(t1137, d_A[0], 0, "A", 7, 96)
			}
			t1138 := i_j + int64(1)
			t1139 := t1138
			if t1139 < 0 || t1139 >= d_A[1] {
				return m.OOB(t1139, d_A[1], 1, "A", 7, 96)
			}
			t1140 := b_A + int((t1137)*d_A[1]+t1139)
			r_A_r6 := m.LoadF(t1140)
			t1141 := i_i + int64(1)
			t1142 := t1141
			if t1142 < 0 || t1142 >= d_A[0] {
				return m.OOB(t1142, d_A[0], 0, "A", 7, 110)
			}
			t1143 := i_j - int64(1)
			t1144 := t1143
			if t1144 < 0 || t1144 >= d_A[1] {
				return m.OOB(t1144, d_A[1], 1, "A", 7, 110)
			}
			t1145 := b_A + int((t1142)*d_A[1]+t1144)
			r_A_r7 := m.LoadF(t1145)
			t1146 := i_i + int64(1)
			t1147 := t1146
			if t1147 < 0 || t1147 >= d_A[0] {
				return m.OOB(t1147, d_A[0], 0, "A", 7, 128)
			}
			t1148 := i_j
			if t1148 < 0 || t1148 >= d_A[1] {
				return m.OOB(t1148, d_A[1], 1, "A", 7, 128)
			}
			t1149 := b_A + int((t1147)*d_A[1]+t1148)
			r_A_r8 := m.LoadF(t1149)
			t1150 := i_i + int64(1)
			t1151 := t1150
			if t1151 < 0 || t1151 >= d_A[0] {
				return m.OOB(t1151, d_A[0], 0, "A", 7, 142)
			}
			t1152 := i_j + int64(1)
			t1153 := t1152
			if t1153 < 0 || t1153 >= d_A[1] {
				return m.OOB(t1153, d_A[1], 1, "A", 7, 142)
			}
			t1154 := b_A + int((t1151)*d_A[1]+t1153)
			r_A_r9 := m.LoadF(t1154)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1155 := float64(r_A_r + r_A_r2)
			t1156 := float64(t1155 + r_A_r3)
			t1157 := float64(t1156 + r_A_r4)
			t1158 := float64(t1157 + r_A_r5)
			t1159 := float64(t1158 + r_A_r6)
			t1160 := float64(t1159 + r_A_r7)
			t1161 := float64(t1160 + r_A_r8)
			t1162 := float64(t1161 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1163 := float64(t1162 / float64(9))
			r_A_w := t1163
			t1164 := i_i
			if t1164 < 0 || t1164 >= d_A[0] {
				return m.OOB(t1164, d_A[0], 0, "A", 7, 11)
			}
			t1165 := i_j
			if t1165 < 0 || t1165 >= d_A[1] {
				return m.OOB(t1165, d_A[1], 1, "A", 7, 11)
			}
			t1166 := b_A + int((t1164)*d_A[1]+t1165)
			m.StoreF(t1166, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n11(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t1167 := p_tsteps - int64(2)
	t1168 := codegen.MaxI(int64(0), t1167)
	t1169 := p_tsteps - int64(2)
	t1170 := codegen.MinI(t1169, int64(0))
	for i_t := t1168; i_t <= t1170; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n12(m, cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n13(m, cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
			return err
		}
		t1543 := p_n - int64(2)
		t1544 := codegen.MaxI(int64(1), t1543)
		t1545 := p_n - int64(2)
		t1546 := codegen.MinI(t1545, int64(1))
		for i_i := t1544; i_i <= t1546; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1547 := p_n - int64(2)
			for i_j := int64(1); i_j <= t1547; i_j++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t1548 := i_i - int64(1)
				t1549 := t1548
				if t1549 < 0 || t1549 >= d_A[0] {
					return m.OOB(t1549, d_A[0], 0, "A", 7, 22)
				}
				t1550 := i_j - int64(1)
				t1551 := t1550
				if t1551 < 0 || t1551 >= d_A[1] {
					return m.OOB(t1551, d_A[1], 1, "A", 7, 22)
				}
				t1552 := b_A + int((t1549)*d_A[1]+t1551)
				r_A_r := m.LoadF(t1552)
				t1553 := i_i - int64(1)
				t1554 := t1553
				if t1554 < 0 || t1554 >= d_A[0] {
					return m.OOB(t1554, d_A[0], 0, "A", 7, 40)
				}
				t1555 := i_j
				if t1555 < 0 || t1555 >= d_A[1] {
					return m.OOB(t1555, d_A[1], 1, "A", 7, 40)
				}
				t1556 := b_A + int((t1554)*d_A[1]+t1555)
				r_A_r2 := m.LoadF(t1556)
				t1557 := i_i - int64(1)
				t1558 := t1557
				if t1558 < 0 || t1558 >= d_A[0] {
					return m.OOB(t1558, d_A[0], 0, "A", 7, 54)
				}
				t1559 := i_j + int64(1)
				t1560 := t1559
				if t1560 < 0 || t1560 >= d_A[1] {
					return m.OOB(t1560, d_A[1], 1, "A", 7, 54)
				}
				t1561 := b_A + int((t1558)*d_A[1]+t1560)
				r_A_r3 := m.LoadF(t1561)
				t1562 := i_i
				if t1562 < 0 || t1562 >= d_A[0] {
					return m.OOB(t1562, d_A[0], 0, "A", 7, 72)
				}
				t1563 := i_j - int64(1)
				t1564 := t1563
				if t1564 < 0 || t1564 >= d_A[1] {
					return m.OOB(t1564, d_A[1], 1, "A", 7, 72)
				}
				t1565 := b_A + int((t1562)*d_A[1]+t1564)
				r_A_r4 := m.LoadF(t1565)
				t1566 := i_i
				if t1566 < 0 || t1566 >= d_A[0] {
					return m.OOB(t1566, d_A[0], 0, "A", 7, 86)
				}
				t1567 := i_j
				if t1567 < 0 || t1567 >= d_A[1] {
					return m.OOB(t1567, d_A[1], 1, "A", 7, 86)
				}
				t1568 := b_A + int((t1566)*d_A[1]+t1567)
				r_A_r5 := m.LoadF(t1568)
				t1569 := i_i
				if t1569 < 0 || t1569 >= d_A[0] {
					return m.OOB(t1569, d_A[0], 0, "A", 7, 96)
				}
				t1570 := i_j + int64(1)
				t1571 := t1570
				if t1571 < 0 || t1571 >= d_A[1] {
					return m.OOB(t1571, d_A[1], 1, "A", 7, 96)
				}
				t1572 := b_A + int((t1569)*d_A[1]+t1571)
				r_A_r6 := m.LoadF(t1572)
				t1573 := i_i + int64(1)
				t1574 := t1573
				if t1574 < 0 || t1574 >= d_A[0] {
					return m.OOB(t1574, d_A[0], 0, "A", 7, 110)
				}
				t1575 := i_j - int64(1)
				t1576 := t1575
				if t1576 < 0 || t1576 >= d_A[1] {
					return m.OOB(t1576, d_A[1], 1, "A", 7, 110)
				}
				t1577 := b_A + int((t1574)*d_A[1]+t1576)
				r_A_r7 := m.LoadF(t1577)
				t1578 := i_i + int64(1)
				t1579 := t1578
				if t1579 < 0 || t1579 >= d_A[0] {
					return m.OOB(t1579, d_A[0], 0, "A", 7, 128)
				}
				t1580 := i_j
				if t1580 < 0 || t1580 >= d_A[1] {
					return m.OOB(t1580, d_A[1], 1, "A", 7, 128)
				}
				t1581 := b_A + int((t1579)*d_A[1]+t1580)
				r_A_r8 := m.LoadF(t1581)
				t1582 := i_i + int64(1)
				t1583 := t1582
				if t1583 < 0 || t1583 >= d_A[0] {
					return m.OOB(t1583, d_A[0], 0, "A", 7, 142)
				}
				t1584 := i_j + int64(1)
				t1585 := t1584
				if t1585 < 0 || t1585 >= d_A[1] {
					return m.OOB(t1585, d_A[1], 1, "A", 7, 142)
				}
				t1586 := b_A + int((t1583)*d_A[1]+t1585)
				r_A_r9 := m.LoadF(t1586)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t1587 := float64(r_A_r + r_A_r2)
				t1588 := float64(t1587 + r_A_r3)
				t1589 := float64(t1588 + r_A_r4)
				t1590 := float64(t1589 + r_A_r5)
				t1591 := float64(t1590 + r_A_r6)
				t1592 := float64(t1591 + r_A_r7)
				t1593 := float64(t1592 + r_A_r8)
				t1594 := float64(t1593 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t1595 := float64(t1594 / float64(9))
				r_A_w := t1595
				t1596 := i_i
				if t1596 < 0 || t1596 >= d_A[0] {
					return m.OOB(t1596, d_A[0], 0, "A", 7, 11)
				}
				t1597 := i_j
				if t1597 < 0 || t1597 >= d_A[1] {
					return m.OOB(t1597, d_A[1], 1, "A", 7, 11)
				}
				t1598 := b_A + int((t1596)*d_A[1]+t1597)
				m.StoreF(t1598, r_A_w)
				t1599 := -i_t
				t1600 := t1599 + p_tsteps
				t1601 := t1600 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1601)
			}
		}
		if err := run_seidel_resilientopt_n14(m, cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
			return err
		}
	}
	return nil
}

func run_seidel_resilientopt_n12(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t1171 := p_n - int64(3)
	t1172 := codegen.MinI(t1171, int64(1))
	for i_i := int64(1); i_i <= t1172; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1173 := p_n - int64(3)
		t1174 := codegen.MinI(t1173, int64(1))
		for i_j := int64(1); i_j <= t1174; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1175 := i_i - int64(1)
			t1176 := t1175
			if t1176 < 0 || t1176 >= d_A[0] {
				return m.OOB(t1176, d_A[0], 0, "A", 7, 22)
			}
			t1177 := i_j - int64(1)
			t1178 := t1177
			if t1178 < 0 || t1178 >= d_A[1] {
				return m.OOB(t1178, d_A[1], 1, "A", 7, 22)
			}
			t1179 := b_A + int((t1176)*d_A[1]+t1178)
			r_A_r := m.LoadF(t1179)
			t1180 := i_i - int64(1)
			t1181 := t1180
			if t1181 < 0 || t1181 >= d_A[0] {
				return m.OOB(t1181, d_A[0], 0, "A", 7, 40)
			}
			t1182 := i_j
			if t1182 < 0 || t1182 >= d_A[1] {
				return m.OOB(t1182, d_A[1], 1, "A", 7, 40)
			}
			t1183 := b_A + int((t1181)*d_A[1]+t1182)
			r_A_r2 := m.LoadF(t1183)
			t1184 := i_i - int64(1)
			t1185 := t1184
			if t1185 < 0 || t1185 >= d_A[0] {
				return m.OOB(t1185, d_A[0], 0, "A", 7, 54)
			}
			t1186 := i_j + int64(1)
			t1187 := t1186
			if t1187 < 0 || t1187 >= d_A[1] {
				return m.OOB(t1187, d_A[1], 1, "A", 7, 54)
			}
			t1188 := b_A + int((t1185)*d_A[1]+t1187)
			r_A_r3 := m.LoadF(t1188)
			t1189 := i_i
			if t1189 < 0 || t1189 >= d_A[0] {
				return m.OOB(t1189, d_A[0], 0, "A", 7, 72)
			}
			t1190 := i_j - int64(1)
			t1191 := t1190
			if t1191 < 0 || t1191 >= d_A[1] {
				return m.OOB(t1191, d_A[1], 1, "A", 7, 72)
			}
			t1192 := b_A + int((t1189)*d_A[1]+t1191)
			r_A_r4 := m.LoadF(t1192)
			t1193 := i_i
			if t1193 < 0 || t1193 >= d_A[0] {
				return m.OOB(t1193, d_A[0], 0, "A", 7, 86)
			}
			t1194 := i_j
			if t1194 < 0 || t1194 >= d_A[1] {
				return m.OOB(t1194, d_A[1], 1, "A", 7, 86)
			}
			t1195 := b_A + int((t1193)*d_A[1]+t1194)
			r_A_r5 := m.LoadF(t1195)
			t1196 := i_i
			if t1196 < 0 || t1196 >= d_A[0] {
				return m.OOB(t1196, d_A[0], 0, "A", 7, 96)
			}
			t1197 := i_j + int64(1)
			t1198 := t1197
			if t1198 < 0 || t1198 >= d_A[1] {
				return m.OOB(t1198, d_A[1], 1, "A", 7, 96)
			}
			t1199 := b_A + int((t1196)*d_A[1]+t1198)
			r_A_r6 := m.LoadF(t1199)
			t1200 := i_i + int64(1)
			t1201 := t1200
			if t1201 < 0 || t1201 >= d_A[0] {
				return m.OOB(t1201, d_A[0], 0, "A", 7, 110)
			}
			t1202 := i_j - int64(1)
			t1203 := t1202
			if t1203 < 0 || t1203 >= d_A[1] {
				return m.OOB(t1203, d_A[1], 1, "A", 7, 110)
			}
			t1204 := b_A + int((t1201)*d_A[1]+t1203)
			r_A_r7 := m.LoadF(t1204)
			t1205 := i_i + int64(1)
			t1206 := t1205
			if t1206 < 0 || t1206 >= d_A[0] {
				return m.OOB(t1206, d_A[0], 0, "A", 7, 128)
			}
			t1207 := i_j
			if t1207 < 0 || t1207 >= d_A[1] {
				return m.OOB(t1207, d_A[1], 1, "A", 7, 128)
			}
			t1208 := b_A + int((t1206)*d_A[1]+t1207)
			r_A_r8 := m.LoadF(t1208)
			t1209 := i_i + int64(1)
			t1210 := t1209
			if t1210 < 0 || t1210 >= d_A[0] {
				return m.OOB(t1210, d_A[0], 0, "A", 7, 142)
			}
			t1211 := i_j + int64(1)
			t1212 := t1211
			if t1212 < 0 || t1212 >= d_A[1] {
				return m.OOB(t1212, d_A[1], 1, "A", 7, 142)
			}
			t1213 := b_A + int((t1210)*d_A[1]+t1212)
			r_A_r9 := m.LoadF(t1213)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1214 := float64(r_A_r + r_A_r2)
			t1215 := float64(t1214 + r_A_r3)
			t1216 := float64(t1215 + r_A_r4)
			t1217 := float64(t1216 + r_A_r5)
			t1218 := float64(t1217 + r_A_r6)
			t1219 := float64(t1218 + r_A_r7)
			t1220 := float64(t1219 + r_A_r8)
			t1221 := float64(t1220 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1222 := float64(t1221 / float64(9))
			r_A_w := t1222
			t1223 := i_i
			if t1223 < 0 || t1223 >= d_A[0] {
				return m.OOB(t1223, d_A[0], 0, "A", 7, 11)
			}
			t1224 := i_j
			if t1224 < 0 || t1224 >= d_A[1] {
				return m.OOB(t1224, d_A[1], 1, "A", 7, 11)
			}
			t1225 := b_A + int((t1223)*d_A[1]+t1224)
			m.StoreF(t1225, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1226 := -i_t
			t1227 := t1226 + p_tsteps
			t1228 := t1227 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1228)
		}
		t1229 := p_n - int64(3)
		for i_j := int64(2); i_j <= t1229; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1230 := i_i - int64(1)
			t1231 := t1230
			if t1231 < 0 || t1231 >= d_A[0] {
				return m.OOB(t1231, d_A[0], 0, "A", 7, 22)
			}
			t1232 := i_j - int64(1)
			t1233 := t1232
			if t1233 < 0 || t1233 >= d_A[1] {
				return m.OOB(t1233, d_A[1], 1, "A", 7, 22)
			}
			t1234 := b_A + int((t1231)*d_A[1]+t1233)
			r_A_r := m.LoadF(t1234)
			t1235 := i_i - int64(1)
			t1236 := t1235
			if t1236 < 0 || t1236 >= d_A[0] {
				return m.OOB(t1236, d_A[0], 0, "A", 7, 40)
			}
			t1237 := i_j
			if t1237 < 0 || t1237 >= d_A[1] {
				return m.OOB(t1237, d_A[1], 1, "A", 7, 40)
			}
			t1238 := b_A + int((t1236)*d_A[1]+t1237)
			r_A_r2 := m.LoadF(t1238)
			t1239 := i_i - int64(1)
			t1240 := t1239
			if t1240 < 0 || t1240 >= d_A[0] {
				return m.OOB(t1240, d_A[0], 0, "A", 7, 54)
			}
			t1241 := i_j + int64(1)
			t1242 := t1241
			if t1242 < 0 || t1242 >= d_A[1] {
				return m.OOB(t1242, d_A[1], 1, "A", 7, 54)
			}
			t1243 := b_A + int((t1240)*d_A[1]+t1242)
			r_A_r3 := m.LoadF(t1243)
			t1244 := i_i
			if t1244 < 0 || t1244 >= d_A[0] {
				return m.OOB(t1244, d_A[0], 0, "A", 7, 72)
			}
			t1245 := i_j - int64(1)
			t1246 := t1245
			if t1246 < 0 || t1246 >= d_A[1] {
				return m.OOB(t1246, d_A[1], 1, "A", 7, 72)
			}
			t1247 := b_A + int((t1244)*d_A[1]+t1246)
			r_A_r4 := m.LoadF(t1247)
			t1248 := i_i
			if t1248 < 0 || t1248 >= d_A[0] {
				return m.OOB(t1248, d_A[0], 0, "A", 7, 86)
			}
			t1249 := i_j
			if t1249 < 0 || t1249 >= d_A[1] {
				return m.OOB(t1249, d_A[1], 1, "A", 7, 86)
			}
			t1250 := b_A + int((t1248)*d_A[1]+t1249)
			r_A_r5 := m.LoadF(t1250)
			t1251 := i_i
			if t1251 < 0 || t1251 >= d_A[0] {
				return m.OOB(t1251, d_A[0], 0, "A", 7, 96)
			}
			t1252 := i_j + int64(1)
			t1253 := t1252
			if t1253 < 0 || t1253 >= d_A[1] {
				return m.OOB(t1253, d_A[1], 1, "A", 7, 96)
			}
			t1254 := b_A + int((t1251)*d_A[1]+t1253)
			r_A_r6 := m.LoadF(t1254)
			t1255 := i_i + int64(1)
			t1256 := t1255
			if t1256 < 0 || t1256 >= d_A[0] {
				return m.OOB(t1256, d_A[0], 0, "A", 7, 110)
			}
			t1257 := i_j - int64(1)
			t1258 := t1257
			if t1258 < 0 || t1258 >= d_A[1] {
				return m.OOB(t1258, d_A[1], 1, "A", 7, 110)
			}
			t1259 := b_A + int((t1256)*d_A[1]+t1258)
			r_A_r7 := m.LoadF(t1259)
			t1260 := i_i + int64(1)
			t1261 := t1260
			if t1261 < 0 || t1261 >= d_A[0] {
				return m.OOB(t1261, d_A[0], 0, "A", 7, 128)
			}
			t1262 := i_j
			if t1262 < 0 || t1262 >= d_A[1] {
				return m.OOB(t1262, d_A[1], 1, "A", 7, 128)
			}
			t1263 := b_A + int((t1261)*d_A[1]+t1262)
			r_A_r8 := m.LoadF(t1263)
			t1264 := i_i + int64(1)
			t1265 := t1264
			if t1265 < 0 || t1265 >= d_A[0] {
				return m.OOB(t1265, d_A[0], 0, "A", 7, 142)
			}
			t1266 := i_j + int64(1)
			t1267 := t1266
			if t1267 < 0 || t1267 >= d_A[1] {
				return m.OOB(t1267, d_A[1], 1, "A", 7, 142)
			}
			t1268 := b_A + int((t1265)*d_A[1]+t1267)
			r_A_r9 := m.LoadF(t1268)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1269 := float64(r_A_r + r_A_r2)
			t1270 := float64(t1269 + r_A_r3)
			t1271 := float64(t1270 + r_A_r4)
			t1272 := float64(t1271 + r_A_r5)
			t1273 := float64(t1272 + r_A_r6)
			t1274 := float64(t1273 + r_A_r7)
			t1275 := float64(t1274 + r_A_r8)
			t1276 := float64(t1275 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1277 := float64(t1276 / float64(9))
			r_A_w := t1277
			t1278 := i_i
			if t1278 < 0 || t1278 >= d_A[0] {
				return m.OOB(t1278, d_A[0], 0, "A", 7, 11)
			}
			t1279 := i_j
			if t1279 < 0 || t1279 >= d_A[1] {
				return m.OOB(t1279, d_A[1], 1, "A", 7, 11)
			}
			t1280 := b_A + int((t1278)*d_A[1]+t1279)
			m.StoreF(t1280, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1281 := -i_t
			t1282 := t1281 + p_tsteps
			t1283 := t1282 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1283)
			t1284 := -i_t
			t1285 := t1284 + p_tsteps
			t1286 := t1285 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1286)
		}
		t1287 := p_n - int64(2)
		t1288 := codegen.MaxI(int64(1), t1287)
		t1289 := p_n - int64(2)
		for i_j := t1288; i_j <= t1289; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1290 := i_i - int64(1)
			t1291 := t1290
			if t1291 < 0 || t1291 >= d_A[0] {
				return m.OOB(t1291, d_A[0], 0, "A", 7, 22)
			}
			t1292 := i_j - int64(1)
			t1293 := t1292
			if t1293 < 0 || t1293 >= d_A[1] {
				return m.OOB(t1293, d_A[1], 1, "A", 7, 22)
			}
			t1294 := b_A + int((t1291)*d_A[1]+t1293)
			r_A_r := m.LoadF(t1294)
			t1295 := i_i - int64(1)
			t1296 := t1295
			if t1296 < 0 || t1296 >= d_A[0] {
				return m.OOB(t1296, d_A[0], 0, "A", 7, 40)
			}
			t1297 := i_j
			if t1297 < 0 || t1297 >= d_A[1] {
				return m.OOB(t1297, d_A[1], 1, "A", 7, 40)
			}
			t1298 := b_A + int((t1296)*d_A[1]+t1297)
			r_A_r2 := m.LoadF(t1298)
			t1299 := i_i - int64(1)
			t1300 := t1299
			if t1300 < 0 || t1300 >= d_A[0] {
				return m.OOB(t1300, d_A[0], 0, "A", 7, 54)
			}
			t1301 := i_j + int64(1)
			t1302 := t1301
			if t1302 < 0 || t1302 >= d_A[1] {
				return m.OOB(t1302, d_A[1], 1, "A", 7, 54)
			}
			t1303 := b_A + int((t1300)*d_A[1]+t1302)
			r_A_r3 := m.LoadF(t1303)
			t1304 := i_i
			if t1304 < 0 || t1304 >= d_A[0] {
				return m.OOB(t1304, d_A[0], 0, "A", 7, 72)
			}
			t1305 := i_j - int64(1)
			t1306 := t1305
			if t1306 < 0 || t1306 >= d_A[1] {
				return m.OOB(t1306, d_A[1], 1, "A", 7, 72)
			}
			t1307 := b_A + int((t1304)*d_A[1]+t1306)
			r_A_r4 := m.LoadF(t1307)
			t1308 := i_i
			if t1308 < 0 || t1308 >= d_A[0] {
				return m.OOB(t1308, d_A[0], 0, "A", 7, 86)
			}
			t1309 := i_j
			if t1309 < 0 || t1309 >= d_A[1] {
				return m.OOB(t1309, d_A[1], 1, "A", 7, 86)
			}
			t1310 := b_A + int((t1308)*d_A[1]+t1309)
			r_A_r5 := m.LoadF(t1310)
			t1311 := i_i
			if t1311 < 0 || t1311 >= d_A[0] {
				return m.OOB(t1311, d_A[0], 0, "A", 7, 96)
			}
			t1312 := i_j + int64(1)
			t1313 := t1312
			if t1313 < 0 || t1313 >= d_A[1] {
				return m.OOB(t1313, d_A[1], 1, "A", 7, 96)
			}
			t1314 := b_A + int((t1311)*d_A[1]+t1313)
			r_A_r6 := m.LoadF(t1314)
			t1315 := i_i + int64(1)
			t1316 := t1315
			if t1316 < 0 || t1316 >= d_A[0] {
				return m.OOB(t1316, d_A[0], 0, "A", 7, 110)
			}
			t1317 := i_j - int64(1)
			t1318 := t1317
			if t1318 < 0 || t1318 >= d_A[1] {
				return m.OOB(t1318, d_A[1], 1, "A", 7, 110)
			}
			t1319 := b_A + int((t1316)*d_A[1]+t1318)
			r_A_r7 := m.LoadF(t1319)
			t1320 := i_i + int64(1)
			t1321 := t1320
			if t1321 < 0 || t1321 >= d_A[0] {
				return m.OOB(t1321, d_A[0], 0, "A", 7, 128)
			}
			t1322 := i_j
			if t1322 < 0 || t1322 >= d_A[1] {
				return m.OOB(t1322, d_A[1], 1, "A", 7, 128)
			}
			t1323 := b_A + int((t1321)*d_A[1]+t1322)
			r_A_r8 := m.LoadF(t1323)
			t1324 := i_i + int64(1)
			t1325 := t1324
			if t1325 < 0 || t1325 >= d_A[0] {
				return m.OOB(t1325, d_A[0], 0, "A", 7, 142)
			}
			t1326 := i_j + int64(1)
			t1327 := t1326
			if t1327 < 0 || t1327 >= d_A[1] {
				return m.OOB(t1327, d_A[1], 1, "A", 7, 142)
			}
			t1328 := b_A + int((t1325)*d_A[1]+t1327)
			r_A_r9 := m.LoadF(t1328)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1329 := float64(r_A_r + r_A_r2)
			t1330 := float64(t1329 + r_A_r3)
			t1331 := float64(t1330 + r_A_r4)
			t1332 := float64(t1331 + r_A_r5)
			t1333 := float64(t1332 + r_A_r6)
			t1334 := float64(t1333 + r_A_r7)
			t1335 := float64(t1334 + r_A_r8)
			t1336 := float64(t1335 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1337 := float64(t1336 / float64(9))
			r_A_w := t1337
			t1338 := i_i
			if t1338 < 0 || t1338 >= d_A[0] {
				return m.OOB(t1338, d_A[0], 0, "A", 7, 11)
			}
			t1339 := i_j
			if t1339 < 0 || t1339 >= d_A[1] {
				return m.OOB(t1339, d_A[1], 1, "A", 7, 11)
			}
			t1340 := b_A + int((t1338)*d_A[1]+t1339)
			m.StoreF(t1340, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1341 := -i_t
			t1342 := t1341 + p_tsteps
			t1343 := t1342 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1343)
			t1344 := -i_t
			t1345 := t1344 + p_tsteps
			t1346 := t1345 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1346)
		}
	}
	return nil
}

func run_seidel_resilientopt_n13(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t1347 := p_n - int64(3)
	for i_i := int64(2); i_i <= t1347; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1348 := p_n - int64(3)
		t1349 := codegen.MinI(t1348, int64(1))
		for i_j := int64(1); i_j <= t1349; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1350 := i_i - int64(1)
			t1351 := t1350
			if t1351 < 0 || t1351 >= d_A[0] {
				return m.OOB(t1351, d_A[0], 0, "A", 7, 22)
			}
			t1352 := i_j - int64(1)
			t1353 := t1352
			if t1353 < 0 || t1353 >= d_A[1] {
				return m.OOB(t1353, d_A[1], 1, "A", 7, 22)
			}
			t1354 := b_A + int((t1351)*d_A[1]+t1353)
			r_A_r := m.LoadF(t1354)
			t1355 := i_i - int64(1)
			t1356 := t1355
			if t1356 < 0 || t1356 >= d_A[0] {
				return m.OOB(t1356, d_A[0], 0, "A", 7, 40)
			}
			t1357 := i_j
			if t1357 < 0 || t1357 >= d_A[1] {
				return m.OOB(t1357, d_A[1], 1, "A", 7, 40)
			}
			t1358 := b_A + int((t1356)*d_A[1]+t1357)
			r_A_r2 := m.LoadF(t1358)
			t1359 := i_i - int64(1)
			t1360 := t1359
			if t1360 < 0 || t1360 >= d_A[0] {
				return m.OOB(t1360, d_A[0], 0, "A", 7, 54)
			}
			t1361 := i_j + int64(1)
			t1362 := t1361
			if t1362 < 0 || t1362 >= d_A[1] {
				return m.OOB(t1362, d_A[1], 1, "A", 7, 54)
			}
			t1363 := b_A + int((t1360)*d_A[1]+t1362)
			r_A_r3 := m.LoadF(t1363)
			t1364 := i_i
			if t1364 < 0 || t1364 >= d_A[0] {
				return m.OOB(t1364, d_A[0], 0, "A", 7, 72)
			}
			t1365 := i_j - int64(1)
			t1366 := t1365
			if t1366 < 0 || t1366 >= d_A[1] {
				return m.OOB(t1366, d_A[1], 1, "A", 7, 72)
			}
			t1367 := b_A + int((t1364)*d_A[1]+t1366)
			r_A_r4 := m.LoadF(t1367)
			t1368 := i_i
			if t1368 < 0 || t1368 >= d_A[0] {
				return m.OOB(t1368, d_A[0], 0, "A", 7, 86)
			}
			t1369 := i_j
			if t1369 < 0 || t1369 >= d_A[1] {
				return m.OOB(t1369, d_A[1], 1, "A", 7, 86)
			}
			t1370 := b_A + int((t1368)*d_A[1]+t1369)
			r_A_r5 := m.LoadF(t1370)
			t1371 := i_i
			if t1371 < 0 || t1371 >= d_A[0] {
				return m.OOB(t1371, d_A[0], 0, "A", 7, 96)
			}
			t1372 := i_j + int64(1)
			t1373 := t1372
			if t1373 < 0 || t1373 >= d_A[1] {
				return m.OOB(t1373, d_A[1], 1, "A", 7, 96)
			}
			t1374 := b_A + int((t1371)*d_A[1]+t1373)
			r_A_r6 := m.LoadF(t1374)
			t1375 := i_i + int64(1)
			t1376 := t1375
			if t1376 < 0 || t1376 >= d_A[0] {
				return m.OOB(t1376, d_A[0], 0, "A", 7, 110)
			}
			t1377 := i_j - int64(1)
			t1378 := t1377
			if t1378 < 0 || t1378 >= d_A[1] {
				return m.OOB(t1378, d_A[1], 1, "A", 7, 110)
			}
			t1379 := b_A + int((t1376)*d_A[1]+t1378)
			r_A_r7 := m.LoadF(t1379)
			t1380 := i_i + int64(1)
			t1381 := t1380
			if t1381 < 0 || t1381 >= d_A[0] {
				return m.OOB(t1381, d_A[0], 0, "A", 7, 128)
			}
			t1382 := i_j
			if t1382 < 0 || t1382 >= d_A[1] {
				return m.OOB(t1382, d_A[1], 1, "A", 7, 128)
			}
			t1383 := b_A + int((t1381)*d_A[1]+t1382)
			r_A_r8 := m.LoadF(t1383)
			t1384 := i_i + int64(1)
			t1385 := t1384
			if t1385 < 0 || t1385 >= d_A[0] {
				return m.OOB(t1385, d_A[0], 0, "A", 7, 142)
			}
			t1386 := i_j + int64(1)
			t1387 := t1386
			if t1387 < 0 || t1387 >= d_A[1] {
				return m.OOB(t1387, d_A[1], 1, "A", 7, 142)
			}
			t1388 := b_A + int((t1385)*d_A[1]+t1387)
			r_A_r9 := m.LoadF(t1388)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1389 := float64(r_A_r + r_A_r2)
			t1390 := float64(t1389 + r_A_r3)
			t1391 := float64(t1390 + r_A_r4)
			t1392 := float64(t1391 + r_A_r5)
			t1393 := float64(t1392 + r_A_r6)
			t1394 := float64(t1393 + r_A_r7)
			t1395 := float64(t1394 + r_A_r8)
			t1396 := float64(t1395 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1397 := float64(t1396 / float64(9))
			r_A_w := t1397
			t1398 := i_i
			if t1398 < 0 || t1398 >= d_A[0] {
				return m.OOB(t1398, d_A[0], 0, "A", 7, 11)
			}
			t1399 := i_j
			if t1399 < 0 || t1399 >= d_A[1] {
				return m.OOB(t1399, d_A[1], 1, "A", 7, 11)
			}
			t1400 := b_A + int((t1398)*d_A[1]+t1399)
			m.StoreF(t1400, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1401 := -i_t
			t1402 := t1401 + p_tsteps
			t1403 := t1402 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1403)
			t1404 := -i_t
			t1405 := t1404 + p_tsteps
			t1406 := t1405 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1406)
			t1407 := -i_t
			t1408 := t1407 + p_tsteps
			t1409 := t1408 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1409)
		}
		t1410 := p_n - int64(3)
		for i_j := int64(2); i_j <= t1410; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1411 := i_i - int64(1)
			t1412 := t1411
			if t1412 < 0 || t1412 >= d_A[0] {
				return m.OOB(t1412, d_A[0], 0, "A", 7, 22)
			}
			t1413 := i_j - int64(1)
			t1414 := t1413
			if t1414 < 0 || t1414 >= d_A[1] {
				return m.OOB(t1414, d_A[1], 1, "A", 7, 22)
			}
			t1415 := b_A + int((t1412)*d_A[1]+t1414)
			r_A_r := m.LoadF(t1415)
			t1416 := i_i - int64(1)
			t1417 := t1416
			if t1417 < 0 || t1417 >= d_A[0] {
				return m.OOB(t1417, d_A[0], 0, "A", 7, 40)
			}
			t1418 := i_j
			if t1418 < 0 || t1418 >= d_A[1] {
				return m.OOB(t1418, d_A[1], 1, "A", 7, 40)
			}
			t1419 := b_A + int((t1417)*d_A[1]+t1418)
			r_A_r2 := m.LoadF(t1419)
			t1420 := i_i - int64(1)
			t1421 := t1420
			if t1421 < 0 || t1421 >= d_A[0] {
				return m.OOB(t1421, d_A[0], 0, "A", 7, 54)
			}
			t1422 := i_j + int64(1)
			t1423 := t1422
			if t1423 < 0 || t1423 >= d_A[1] {
				return m.OOB(t1423, d_A[1], 1, "A", 7, 54)
			}
			t1424 := b_A + int((t1421)*d_A[1]+t1423)
			r_A_r3 := m.LoadF(t1424)
			t1425 := i_i
			if t1425 < 0 || t1425 >= d_A[0] {
				return m.OOB(t1425, d_A[0], 0, "A", 7, 72)
			}
			t1426 := i_j - int64(1)
			t1427 := t1426
			if t1427 < 0 || t1427 >= d_A[1] {
				return m.OOB(t1427, d_A[1], 1, "A", 7, 72)
			}
			t1428 := b_A + int((t1425)*d_A[1]+t1427)
			r_A_r4 := m.LoadF(t1428)
			t1429 := i_i
			if t1429 < 0 || t1429 >= d_A[0] {
				return m.OOB(t1429, d_A[0], 0, "A", 7, 86)
			}
			t1430 := i_j
			if t1430 < 0 || t1430 >= d_A[1] {
				return m.OOB(t1430, d_A[1], 1, "A", 7, 86)
			}
			t1431 := b_A + int((t1429)*d_A[1]+t1430)
			r_A_r5 := m.LoadF(t1431)
			t1432 := i_i
			if t1432 < 0 || t1432 >= d_A[0] {
				return m.OOB(t1432, d_A[0], 0, "A", 7, 96)
			}
			t1433 := i_j + int64(1)
			t1434 := t1433
			if t1434 < 0 || t1434 >= d_A[1] {
				return m.OOB(t1434, d_A[1], 1, "A", 7, 96)
			}
			t1435 := b_A + int((t1432)*d_A[1]+t1434)
			r_A_r6 := m.LoadF(t1435)
			t1436 := i_i + int64(1)
			t1437 := t1436
			if t1437 < 0 || t1437 >= d_A[0] {
				return m.OOB(t1437, d_A[0], 0, "A", 7, 110)
			}
			t1438 := i_j - int64(1)
			t1439 := t1438
			if t1439 < 0 || t1439 >= d_A[1] {
				return m.OOB(t1439, d_A[1], 1, "A", 7, 110)
			}
			t1440 := b_A + int((t1437)*d_A[1]+t1439)
			r_A_r7 := m.LoadF(t1440)
			t1441 := i_i + int64(1)
			t1442 := t1441
			if t1442 < 0 || t1442 >= d_A[0] {
				return m.OOB(t1442, d_A[0], 0, "A", 7, 128)
			}
			t1443 := i_j
			if t1443 < 0 || t1443 >= d_A[1] {
				return m.OOB(t1443, d_A[1], 1, "A", 7, 128)
			}
			t1444 := b_A + int((t1442)*d_A[1]+t1443)
			r_A_r8 := m.LoadF(t1444)
			t1445 := i_i + int64(1)
			t1446 := t1445
			if t1446 < 0 || t1446 >= d_A[0] {
				return m.OOB(t1446, d_A[0], 0, "A", 7, 142)
			}
			t1447 := i_j + int64(1)
			t1448 := t1447
			if t1448 < 0 || t1448 >= d_A[1] {
				return m.OOB(t1448, d_A[1], 1, "A", 7, 142)
			}
			t1449 := b_A + int((t1446)*d_A[1]+t1448)
			r_A_r9 := m.LoadF(t1449)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1450 := float64(r_A_r + r_A_r2)
			t1451 := float64(t1450 + r_A_r3)
			t1452 := float64(t1451 + r_A_r4)
			t1453 := float64(t1452 + r_A_r5)
			t1454 := float64(t1453 + r_A_r6)
			t1455 := float64(t1454 + r_A_r7)
			t1456 := float64(t1455 + r_A_r8)
			t1457 := float64(t1456 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1458 := float64(t1457 / float64(9))
			r_A_w := t1458
			t1459 := i_i
			if t1459 < 0 || t1459 >= d_A[0] {
				return m.OOB(t1459, d_A[0], 0, "A", 7, 11)
			}
			t1460 := i_j
			if t1460 < 0 || t1460 >= d_A[1] {
				return m.OOB(t1460, d_A[1], 1, "A", 7, 11)
			}
			t1461 := b_A + int((t1459)*d_A[1]+t1460)
			m.StoreF(t1461, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1462 := -i_t
			t1463 := t1462 + p_tsteps
			t1464 := t1463 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1464)
			t1465 := -i_t
			t1466 := t1465 + p_tsteps
			t1467 := t1466 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1467)
			t1468 := -i_t
			t1469 := t1468 + p_tsteps
			t1470 := t1469 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1470)
			t1471 := -i_t
			t1472 := t1471 + p_tsteps
			t1473 := t1472 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1473)
			t1474 := -i_t
			t1475 := t1474 + p_tsteps
			t1476 := t1475 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1476)
		}
		t1477 := p_n - int64(2)
		t1478 := codegen.MaxI(int64(1), t1477)
		t1479 := p_n - int64(2)
		for i_j := t1478; i_j <= t1479; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1480 := i_i - int64(1)
			t1481 := t1480
			if t1481 < 0 || t1481 >= d_A[0] {
				return m.OOB(t1481, d_A[0], 0, "A", 7, 22)
			}
			t1482 := i_j - int64(1)
			t1483 := t1482
			if t1483 < 0 || t1483 >= d_A[1] {
				return m.OOB(t1483, d_A[1], 1, "A", 7, 22)
			}
			t1484 := b_A + int((t1481)*d_A[1]+t1483)
			r_A_r := m.LoadF(t1484)
			t1485 := i_i - int64(1)
			t1486 := t1485
			if t1486 < 0 || t1486 >= d_A[0] {
				return m.OOB(t1486, d_A[0], 0, "A", 7, 40)
			}
			t1487 := i_j
			if t1487 < 0 || t1487 >= d_A[1] {
				return m.OOB(t1487, d_A[1], 1, "A", 7, 40)
			}
			t1488 := b_A + int((t1486)*d_A[1]+t1487)
			r_A_r2 := m.LoadF(t1488)
			t1489 := i_i - int64(1)
			t1490 := t1489
			if t1490 < 0 || t1490 >= d_A[0] {
				return m.OOB(t1490, d_A[0], 0, "A", 7, 54)
			}
			t1491 := i_j + int64(1)
			t1492 := t1491
			if t1492 < 0 || t1492 >= d_A[1] {
				return m.OOB(t1492, d_A[1], 1, "A", 7, 54)
			}
			t1493 := b_A + int((t1490)*d_A[1]+t1492)
			r_A_r3 := m.LoadF(t1493)
			t1494 := i_i
			if t1494 < 0 || t1494 >= d_A[0] {
				return m.OOB(t1494, d_A[0], 0, "A", 7, 72)
			}
			t1495 := i_j - int64(1)
			t1496 := t1495
			if t1496 < 0 || t1496 >= d_A[1] {
				return m.OOB(t1496, d_A[1], 1, "A", 7, 72)
			}
			t1497 := b_A + int((t1494)*d_A[1]+t1496)
			r_A_r4 := m.LoadF(t1497)
			t1498 := i_i
			if t1498 < 0 || t1498 >= d_A[0] {
				return m.OOB(t1498, d_A[0], 0, "A", 7, 86)
			}
			t1499 := i_j
			if t1499 < 0 || t1499 >= d_A[1] {
				return m.OOB(t1499, d_A[1], 1, "A", 7, 86)
			}
			t1500 := b_A + int((t1498)*d_A[1]+t1499)
			r_A_r5 := m.LoadF(t1500)
			t1501 := i_i
			if t1501 < 0 || t1501 >= d_A[0] {
				return m.OOB(t1501, d_A[0], 0, "A", 7, 96)
			}
			t1502 := i_j + int64(1)
			t1503 := t1502
			if t1503 < 0 || t1503 >= d_A[1] {
				return m.OOB(t1503, d_A[1], 1, "A", 7, 96)
			}
			t1504 := b_A + int((t1501)*d_A[1]+t1503)
			r_A_r6 := m.LoadF(t1504)
			t1505 := i_i + int64(1)
			t1506 := t1505
			if t1506 < 0 || t1506 >= d_A[0] {
				return m.OOB(t1506, d_A[0], 0, "A", 7, 110)
			}
			t1507 := i_j - int64(1)
			t1508 := t1507
			if t1508 < 0 || t1508 >= d_A[1] {
				return m.OOB(t1508, d_A[1], 1, "A", 7, 110)
			}
			t1509 := b_A + int((t1506)*d_A[1]+t1508)
			r_A_r7 := m.LoadF(t1509)
			t1510 := i_i + int64(1)
			t1511 := t1510
			if t1511 < 0 || t1511 >= d_A[0] {
				return m.OOB(t1511, d_A[0], 0, "A", 7, 128)
			}
			t1512 := i_j
			if t1512 < 0 || t1512 >= d_A[1] {
				return m.OOB(t1512, d_A[1], 1, "A", 7, 128)
			}
			t1513 := b_A + int((t1511)*d_A[1]+t1512)
			r_A_r8 := m.LoadF(t1513)
			t1514 := i_i + int64(1)
			t1515 := t1514
			if t1515 < 0 || t1515 >= d_A[0] {
				return m.OOB(t1515, d_A[0], 0, "A", 7, 142)
			}
			t1516 := i_j + int64(1)
			t1517 := t1516
			if t1517 < 0 || t1517 >= d_A[1] {
				return m.OOB(t1517, d_A[1], 1, "A", 7, 142)
			}
			t1518 := b_A + int((t1515)*d_A[1]+t1517)
			r_A_r9 := m.LoadF(t1518)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1519 := float64(r_A_r + r_A_r2)
			t1520 := float64(t1519 + r_A_r3)
			t1521 := float64(t1520 + r_A_r4)
			t1522 := float64(t1521 + r_A_r5)
			t1523 := float64(t1522 + r_A_r6)
			t1524 := float64(t1523 + r_A_r7)
			t1525 := float64(t1524 + r_A_r8)
			t1526 := float64(t1525 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1527 := float64(t1526 / float64(9))
			r_A_w := t1527
			t1528 := i_i
			if t1528 < 0 || t1528 >= d_A[0] {
				return m.OOB(t1528, d_A[0], 0, "A", 7, 11)
			}
			t1529 := i_j
			if t1529 < 0 || t1529 >= d_A[1] {
				return m.OOB(t1529, d_A[1], 1, "A", 7, 11)
			}
			t1530 := b_A + int((t1528)*d_A[1]+t1529)
			m.StoreF(t1530, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1531 := -i_t
			t1532 := t1531 + p_tsteps
			t1533 := t1532 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1533)
			t1534 := -i_t
			t1535 := t1534 + p_tsteps
			t1536 := t1535 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1536)
			t1537 := -i_t
			t1538 := t1537 + p_tsteps
			t1539 := t1538 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1539)
			t1540 := -i_t
			t1541 := t1540 + p_tsteps
			t1542 := t1541 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1542)
		}
	}
	return nil
}

func run_seidel_resilientopt_n14(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t1602 := p_n - int64(2)
	t1603 := codegen.MaxI(int64(2), t1602)
	t1604 := p_n - int64(2)
	for i_i := t1603; i_i <= t1604; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1605 := p_n - int64(3)
		t1606 := codegen.MinI(t1605, int64(1))
		for i_j := int64(1); i_j <= t1606; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1607 := i_i - int64(1)
			t1608 := t1607
			if t1608 < 0 || t1608 >= d_A[0] {
				return m.OOB(t1608, d_A[0], 0, "A", 7, 22)
			}
			t1609 := i_j - int64(1)
			t1610 := t1609
			if t1610 < 0 || t1610 >= d_A[1] {
				return m.OOB(t1610, d_A[1], 1, "A", 7, 22)
			}
			t1611 := b_A + int((t1608)*d_A[1]+t1610)
			r_A_r := m.LoadF(t1611)
			t1612 := i_i - int64(1)
			t1613 := t1612
			if t1613 < 0 || t1613 >= d_A[0] {
				return m.OOB(t1613, d_A[0], 0, "A", 7, 40)
			}
			t1614 := i_j
			if t1614 < 0 || t1614 >= d_A[1] {
				return m.OOB(t1614, d_A[1], 1, "A", 7, 40)
			}
			t1615 := b_A + int((t1613)*d_A[1]+t1614)
			r_A_r2 := m.LoadF(t1615)
			t1616 := i_i - int64(1)
			t1617 := t1616
			if t1617 < 0 || t1617 >= d_A[0] {
				return m.OOB(t1617, d_A[0], 0, "A", 7, 54)
			}
			t1618 := i_j + int64(1)
			t1619 := t1618
			if t1619 < 0 || t1619 >= d_A[1] {
				return m.OOB(t1619, d_A[1], 1, "A", 7, 54)
			}
			t1620 := b_A + int((t1617)*d_A[1]+t1619)
			r_A_r3 := m.LoadF(t1620)
			t1621 := i_i
			if t1621 < 0 || t1621 >= d_A[0] {
				return m.OOB(t1621, d_A[0], 0, "A", 7, 72)
			}
			t1622 := i_j - int64(1)
			t1623 := t1622
			if t1623 < 0 || t1623 >= d_A[1] {
				return m.OOB(t1623, d_A[1], 1, "A", 7, 72)
			}
			t1624 := b_A + int((t1621)*d_A[1]+t1623)
			r_A_r4 := m.LoadF(t1624)
			t1625 := i_i
			if t1625 < 0 || t1625 >= d_A[0] {
				return m.OOB(t1625, d_A[0], 0, "A", 7, 86)
			}
			t1626 := i_j
			if t1626 < 0 || t1626 >= d_A[1] {
				return m.OOB(t1626, d_A[1], 1, "A", 7, 86)
			}
			t1627 := b_A + int((t1625)*d_A[1]+t1626)
			r_A_r5 := m.LoadF(t1627)
			t1628 := i_i
			if t1628 < 0 || t1628 >= d_A[0] {
				return m.OOB(t1628, d_A[0], 0, "A", 7, 96)
			}
			t1629 := i_j + int64(1)
			t1630 := t1629
			if t1630 < 0 || t1630 >= d_A[1] {
				return m.OOB(t1630, d_A[1], 1, "A", 7, 96)
			}
			t1631 := b_A + int((t1628)*d_A[1]+t1630)
			r_A_r6 := m.LoadF(t1631)
			t1632 := i_i + int64(1)
			t1633 := t1632
			if t1633 < 0 || t1633 >= d_A[0] {
				return m.OOB(t1633, d_A[0], 0, "A", 7, 110)
			}
			t1634 := i_j - int64(1)
			t1635 := t1634
			if t1635 < 0 || t1635 >= d_A[1] {
				return m.OOB(t1635, d_A[1], 1, "A", 7, 110)
			}
			t1636 := b_A + int((t1633)*d_A[1]+t1635)
			r_A_r7 := m.LoadF(t1636)
			t1637 := i_i + int64(1)
			t1638 := t1637
			if t1638 < 0 || t1638 >= d_A[0] {
				return m.OOB(t1638, d_A[0], 0, "A", 7, 128)
			}
			t1639 := i_j
			if t1639 < 0 || t1639 >= d_A[1] {
				return m.OOB(t1639, d_A[1], 1, "A", 7, 128)
			}
			t1640 := b_A + int((t1638)*d_A[1]+t1639)
			r_A_r8 := m.LoadF(t1640)
			t1641 := i_i + int64(1)
			t1642 := t1641
			if t1642 < 0 || t1642 >= d_A[0] {
				return m.OOB(t1642, d_A[0], 0, "A", 7, 142)
			}
			t1643 := i_j + int64(1)
			t1644 := t1643
			if t1644 < 0 || t1644 >= d_A[1] {
				return m.OOB(t1644, d_A[1], 1, "A", 7, 142)
			}
			t1645 := b_A + int((t1642)*d_A[1]+t1644)
			r_A_r9 := m.LoadF(t1645)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1646 := float64(r_A_r + r_A_r2)
			t1647 := float64(t1646 + r_A_r3)
			t1648 := float64(t1647 + r_A_r4)
			t1649 := float64(t1648 + r_A_r5)
			t1650 := float64(t1649 + r_A_r6)
			t1651 := float64(t1650 + r_A_r7)
			t1652 := float64(t1651 + r_A_r8)
			t1653 := float64(t1652 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1654 := float64(t1653 / float64(9))
			r_A_w := t1654
			t1655 := i_i
			if t1655 < 0 || t1655 >= d_A[0] {
				return m.OOB(t1655, d_A[0], 0, "A", 7, 11)
			}
			t1656 := i_j
			if t1656 < 0 || t1656 >= d_A[1] {
				return m.OOB(t1656, d_A[1], 1, "A", 7, 11)
			}
			t1657 := b_A + int((t1655)*d_A[1]+t1656)
			m.StoreF(t1657, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1658 := -i_t
			t1659 := t1658 + p_tsteps
			t1660 := t1659 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1660)
			t1661 := -i_t
			t1662 := t1661 + p_tsteps
			t1663 := t1662 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1663)
			t1664 := -i_t
			t1665 := t1664 + p_tsteps
			t1666 := t1665 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1666)
		}
		t1667 := p_n - int64(3)
		for i_j := int64(2); i_j <= t1667; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1668 := i_i - int64(1)
			t1669 := t1668
			if t1669 < 0 || t1669 >= d_A[0] {
				return m.OOB(t1669, d_A[0], 0, "A", 7, 22)
			}
			t1670 := i_j - int64(1)
			t1671 := t1670
			if t1671 < 0 || t1671 >= d_A[1] {
				return m.OOB(t1671, d_A[1], 1, "A", 7, 22)
			}
			t1672 := b_A + int((t1669)*d_A[1]+t1671)
			r_A_r := m.LoadF(t1672)
			t1673 := i_i - int64(1)
			t1674 := t1673
			if t1674 < 0 || t1674 >= d_A[0] {
				return m.OOB(t1674, d_A[0], 0, "A", 7, 40)
			}
			t1675 := i_j
			if t1675 < 0 || t1675 >= d_A[1] {
				return m.OOB(t1675, d_A[1], 1, "A", 7, 40)
			}
			t1676 := b_A + int((t1674)*d_A[1]+t1675)
			r_A_r2 := m.LoadF(t1676)
			t1677 := i_i - int64(1)
			t1678 := t1677
			if t1678 < 0 || t1678 >= d_A[0] {
				return m.OOB(t1678, d_A[0], 0, "A", 7, 54)
			}
			t1679 := i_j + int64(1)
			t1680 := t1679
			if t1680 < 0 || t1680 >= d_A[1] {
				return m.OOB(t1680, d_A[1], 1, "A", 7, 54)
			}
			t1681 := b_A + int((t1678)*d_A[1]+t1680)
			r_A_r3 := m.LoadF(t1681)
			t1682 := i_i
			if t1682 < 0 || t1682 >= d_A[0] {
				return m.OOB(t1682, d_A[0], 0, "A", 7, 72)
			}
			t1683 := i_j - int64(1)
			t1684 := t1683
			if t1684 < 0 || t1684 >= d_A[1] {
				return m.OOB(t1684, d_A[1], 1, "A", 7, 72)
			}
			t1685 := b_A + int((t1682)*d_A[1]+t1684)
			r_A_r4 := m.LoadF(t1685)
			t1686 := i_i
			if t1686 < 0 || t1686 >= d_A[0] {
				return m.OOB(t1686, d_A[0], 0, "A", 7, 86)
			}
			t1687 := i_j
			if t1687 < 0 || t1687 >= d_A[1] {
				return m.OOB(t1687, d_A[1], 1, "A", 7, 86)
			}
			t1688 := b_A + int((t1686)*d_A[1]+t1687)
			r_A_r5 := m.LoadF(t1688)
			t1689 := i_i
			if t1689 < 0 || t1689 >= d_A[0] {
				return m.OOB(t1689, d_A[0], 0, "A", 7, 96)
			}
			t1690 := i_j + int64(1)
			t1691 := t1690
			if t1691 < 0 || t1691 >= d_A[1] {
				return m.OOB(t1691, d_A[1], 1, "A", 7, 96)
			}
			t1692 := b_A + int((t1689)*d_A[1]+t1691)
			r_A_r6 := m.LoadF(t1692)
			t1693 := i_i + int64(1)
			t1694 := t1693
			if t1694 < 0 || t1694 >= d_A[0] {
				return m.OOB(t1694, d_A[0], 0, "A", 7, 110)
			}
			t1695 := i_j - int64(1)
			t1696 := t1695
			if t1696 < 0 || t1696 >= d_A[1] {
				return m.OOB(t1696, d_A[1], 1, "A", 7, 110)
			}
			t1697 := b_A + int((t1694)*d_A[1]+t1696)
			r_A_r7 := m.LoadF(t1697)
			t1698 := i_i + int64(1)
			t1699 := t1698
			if t1699 < 0 || t1699 >= d_A[0] {
				return m.OOB(t1699, d_A[0], 0, "A", 7, 128)
			}
			t1700 := i_j
			if t1700 < 0 || t1700 >= d_A[1] {
				return m.OOB(t1700, d_A[1], 1, "A", 7, 128)
			}
			t1701 := b_A + int((t1699)*d_A[1]+t1700)
			r_A_r8 := m.LoadF(t1701)
			t1702 := i_i + int64(1)
			t1703 := t1702
			if t1703 < 0 || t1703 >= d_A[0] {
				return m.OOB(t1703, d_A[0], 0, "A", 7, 142)
			}
			t1704 := i_j + int64(1)
			t1705 := t1704
			if t1705 < 0 || t1705 >= d_A[1] {
				return m.OOB(t1705, d_A[1], 1, "A", 7, 142)
			}
			t1706 := b_A + int((t1703)*d_A[1]+t1705)
			r_A_r9 := m.LoadF(t1706)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1707 := float64(r_A_r + r_A_r2)
			t1708 := float64(t1707 + r_A_r3)
			t1709 := float64(t1708 + r_A_r4)
			t1710 := float64(t1709 + r_A_r5)
			t1711 := float64(t1710 + r_A_r6)
			t1712 := float64(t1711 + r_A_r7)
			t1713 := float64(t1712 + r_A_r8)
			t1714 := float64(t1713 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1715 := float64(t1714 / float64(9))
			r_A_w := t1715
			t1716 := i_i
			if t1716 < 0 || t1716 >= d_A[0] {
				return m.OOB(t1716, d_A[0], 0, "A", 7, 11)
			}
			t1717 := i_j
			if t1717 < 0 || t1717 >= d_A[1] {
				return m.OOB(t1717, d_A[1], 1, "A", 7, 11)
			}
			t1718 := b_A + int((t1716)*d_A[1]+t1717)
			m.StoreF(t1718, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t1719 := -i_t
			t1720 := t1719 + p_tsteps
			t1721 := t1720 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1721)
			t1722 := -i_t
			t1723 := t1722 + p_tsteps
			t1724 := t1723 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1724)
			t1725 := -i_t
			t1726 := t1725 + p_tsteps
			t1727 := t1726 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1727)
			t1728 := -i_t
			t1729 := t1728 + p_tsteps
			t1730 := t1729 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1730)
			t1731 := -i_t
			t1732 := t1731 + p_tsteps
			t1733 := t1732 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1733)
		}
		t1734 := p_n - int64(2)
		t1735 := codegen.MaxI(int64(1), t1734)
		t1736 := p_n - int64(2)
		for i_j := t1735; i_j <= t1736; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1737 := i_i - int64(1)
			t1738 := t1737
			if t1738 < 0 || t1738 >= d_A[0] {
				return m.OOB(t1738, d_A[0], 0, "A", 7, 22)
			}
			t1739 := i_j - int64(1)
			t1740 := t1739
			if t1740 < 0 || t1740 >= d_A[1] {
				return m.OOB(t1740, d_A[1], 1, "A", 7, 22)
			}
			t1741 := b_A + int((t1738)*d_A[1]+t1740)
			r_A_r := m.LoadF(t1741)
			t1742 := i_i - int64(1)
			t1743 := t1742
			if t1743 < 0 || t1743 >= d_A[0] {
				return m.OOB(t1743, d_A[0], 0, "A", 7, 40)
			}
			t1744 := i_j
			if t1744 < 0 || t1744 >= d_A[1] {
				return m.OOB(t1744, d_A[1], 1, "A", 7, 40)
			}
			t1745 := b_A + int((t1743)*d_A[1]+t1744)
			r_A_r2 := m.LoadF(t1745)
			t1746 := i_i - int64(1)
			t1747 := t1746
			if t1747 < 0 || t1747 >= d_A[0] {
				return m.OOB(t1747, d_A[0], 0, "A", 7, 54)
			}
			t1748 := i_j + int64(1)
			t1749 := t1748
			if t1749 < 0 || t1749 >= d_A[1] {
				return m.OOB(t1749, d_A[1], 1, "A", 7, 54)
			}
			t1750 := b_A + int((t1747)*d_A[1]+t1749)
			r_A_r3 := m.LoadF(t1750)
			t1751 := i_i
			if t1751 < 0 || t1751 >= d_A[0] {
				return m.OOB(t1751, d_A[0], 0, "A", 7, 72)
			}
			t1752 := i_j - int64(1)
			t1753 := t1752
			if t1753 < 0 || t1753 >= d_A[1] {
				return m.OOB(t1753, d_A[1], 1, "A", 7, 72)
			}
			t1754 := b_A + int((t1751)*d_A[1]+t1753)
			r_A_r4 := m.LoadF(t1754)
			t1755 := i_i
			if t1755 < 0 || t1755 >= d_A[0] {
				return m.OOB(t1755, d_A[0], 0, "A", 7, 86)
			}
			t1756 := i_j
			if t1756 < 0 || t1756 >= d_A[1] {
				return m.OOB(t1756, d_A[1], 1, "A", 7, 86)
			}
			t1757 := b_A + int((t1755)*d_A[1]+t1756)
			r_A_r5 := m.LoadF(t1757)
			t1758 := i_i
			if t1758 < 0 || t1758 >= d_A[0] {
				return m.OOB(t1758, d_A[0], 0, "A", 7, 96)
			}
			t1759 := i_j + int64(1)
			t1760 := t1759
			if t1760 < 0 || t1760 >= d_A[1] {
				return m.OOB(t1760, d_A[1], 1, "A", 7, 96)
			}
			t1761 := b_A + int((t1758)*d_A[1]+t1760)
			r_A_r6 := m.LoadF(t1761)
			t1762 := i_i + int64(1)
			t1763 := t1762
			if t1763 < 0 || t1763 >= d_A[0] {
				return m.OOB(t1763, d_A[0], 0, "A", 7, 110)
			}
			t1764 := i_j - int64(1)
			t1765 := t1764
			if t1765 < 0 || t1765 >= d_A[1] {
				return m.OOB(t1765, d_A[1], 1, "A", 7, 110)
			}
			t1766 := b_A + int((t1763)*d_A[1]+t1765)
			r_A_r7 := m.LoadF(t1766)
			t1767 := i_i + int64(1)
			t1768 := t1767
			if t1768 < 0 || t1768 >= d_A[0] {
				return m.OOB(t1768, d_A[0], 0, "A", 7, 128)
			}
			t1769 := i_j
			if t1769 < 0 || t1769 >= d_A[1] {
				return m.OOB(t1769, d_A[1], 1, "A", 7, 128)
			}
			t1770 := b_A + int((t1768)*d_A[1]+t1769)
			r_A_r8 := m.LoadF(t1770)
			t1771 := i_i + int64(1)
			t1772 := t1771
			if t1772 < 0 || t1772 >= d_A[0] {
				return m.OOB(t1772, d_A[0], 0, "A", 7, 142)
			}
			t1773 := i_j + int64(1)
			t1774 := t1773
			if t1774 < 0 || t1774 >= d_A[1] {
				return m.OOB(t1774, d_A[1], 1, "A", 7, 142)
			}
			t1775 := b_A + int((t1772)*d_A[1]+t1774)
			r_A_r9 := m.LoadF(t1775)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1776 := float64(r_A_r + r_A_r2)
			t1777 := float64(t1776 + r_A_r3)
			t1778 := float64(t1777 + r_A_r4)
			t1779 := float64(t1778 + r_A_r5)
			t1780 := float64(t1779 + r_A_r6)
			t1781 := float64(t1780 + r_A_r7)
			t1782 := float64(t1781 + r_A_r8)
			t1783 := float64(t1782 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1784 := float64(t1783 / float64(9))
			r_A_w := t1784
			t1785 := i_i
			if t1785 < 0 || t1785 >= d_A[0] {
				return m.OOB(t1785, d_A[0], 0, "A", 7, 11)
			}
			t1786 := i_j
			if t1786 < 0 || t1786 >= d_A[1] {
				return m.OOB(t1786, d_A[1], 1, "A", 7, 11)
			}
			t1787 := b_A + int((t1785)*d_A[1]+t1786)
			m.StoreF(t1787, r_A_w)
			t1788 := -i_t
			t1789 := t1788 + p_tsteps
			t1790 := t1789 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1790)
			t1791 := -i_t
			t1792 := t1791 + p_tsteps
			t1793 := t1792 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1793)
			t1794 := -i_t
			t1795 := t1794 + p_tsteps
			t1796 := t1795 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1796)
			t1797 := -i_t
			t1798 := t1797 + p_tsteps
			t1799 := t1798 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t1799)
		}
	}
	return nil
}

func run_seidel_resilientopt_n15(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t1800 := p_tsteps - int64(1)
	t1801 := codegen.MaxI(int64(0), t1800)
	t1802 := p_tsteps - int64(1)
	t1803 := codegen.MinI(t1802, int64(0))
	for i_t := t1801; i_t <= t1803; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n16(m, cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t1964 := p_n - int64(2)
		t1965 := codegen.MaxI(int64(1), t1964)
		t1966 := p_n - int64(2)
		for i_i := t1965; i_i <= t1966; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1967 := p_n - int64(3)
			for i_j := int64(1); i_j <= t1967; i_j++ {
				if err := m.Tick(0, 0); err != nil {
					return err
				}
				t1968 := i_i - int64(1)
				t1969 := t1968
				if t1969 < 0 || t1969 >= d_A[0] {
					return m.OOB(t1969, d_A[0], 0, "A", 7, 22)
				}
				t1970 := i_j - int64(1)
				t1971 := t1970
				if t1971 < 0 || t1971 >= d_A[1] {
					return m.OOB(t1971, d_A[1], 1, "A", 7, 22)
				}
				t1972 := b_A + int((t1969)*d_A[1]+t1971)
				r_A_r := m.LoadF(t1972)
				t1973 := i_i - int64(1)
				t1974 := t1973
				if t1974 < 0 || t1974 >= d_A[0] {
					return m.OOB(t1974, d_A[0], 0, "A", 7, 40)
				}
				t1975 := i_j
				if t1975 < 0 || t1975 >= d_A[1] {
					return m.OOB(t1975, d_A[1], 1, "A", 7, 40)
				}
				t1976 := b_A + int((t1974)*d_A[1]+t1975)
				r_A_r2 := m.LoadF(t1976)
				t1977 := i_i - int64(1)
				t1978 := t1977
				if t1978 < 0 || t1978 >= d_A[0] {
					return m.OOB(t1978, d_A[0], 0, "A", 7, 54)
				}
				t1979 := i_j + int64(1)
				t1980 := t1979
				if t1980 < 0 || t1980 >= d_A[1] {
					return m.OOB(t1980, d_A[1], 1, "A", 7, 54)
				}
				t1981 := b_A + int((t1978)*d_A[1]+t1980)
				r_A_r3 := m.LoadF(t1981)
				t1982 := i_i
				if t1982 < 0 || t1982 >= d_A[0] {
					return m.OOB(t1982, d_A[0], 0, "A", 7, 72)
				}
				t1983 := i_j - int64(1)
				t1984 := t1983
				if t1984 < 0 || t1984 >= d_A[1] {
					return m.OOB(t1984, d_A[1], 1, "A", 7, 72)
				}
				t1985 := b_A + int((t1982)*d_A[1]+t1984)
				r_A_r4 := m.LoadF(t1985)
				t1986 := i_i
				if t1986 < 0 || t1986 >= d_A[0] {
					return m.OOB(t1986, d_A[0], 0, "A", 7, 86)
				}
				t1987 := i_j
				if t1987 < 0 || t1987 >= d_A[1] {
					return m.OOB(t1987, d_A[1], 1, "A", 7, 86)
				}
				t1988 := b_A + int((t1986)*d_A[1]+t1987)
				r_A_r5 := m.LoadF(t1988)
				t1989 := i_i
				if t1989 < 0 || t1989 >= d_A[0] {
					return m.OOB(t1989, d_A[0], 0, "A", 7, 96)
				}
				t1990 := i_j + int64(1)
				t1991 := t1990
				if t1991 < 0 || t1991 >= d_A[1] {
					return m.OOB(t1991, d_A[1], 1, "A", 7, 96)
				}
				t1992 := b_A + int((t1989)*d_A[1]+t1991)
				r_A_r6 := m.LoadF(t1992)
				t1993 := i_i + int64(1)
				t1994 := t1993
				if t1994 < 0 || t1994 >= d_A[0] {
					return m.OOB(t1994, d_A[0], 0, "A", 7, 110)
				}
				t1995 := i_j - int64(1)
				t1996 := t1995
				if t1996 < 0 || t1996 >= d_A[1] {
					return m.OOB(t1996, d_A[1], 1, "A", 7, 110)
				}
				t1997 := b_A + int((t1994)*d_A[1]+t1996)
				r_A_r7 := m.LoadF(t1997)
				t1998 := i_i + int64(1)
				t1999 := t1998
				if t1999 < 0 || t1999 >= d_A[0] {
					return m.OOB(t1999, d_A[0], 0, "A", 7, 128)
				}
				t2000 := i_j
				if t2000 < 0 || t2000 >= d_A[1] {
					return m.OOB(t2000, d_A[1], 1, "A", 7, 128)
				}
				t2001 := b_A + int((t1999)*d_A[1]+t2000)
				r_A_r8 := m.LoadF(t2001)
				t2002 := i_i + int64(1)
				t2003 := t2002
				if t2003 < 0 || t2003 >= d_A[0] {
					return m.OOB(t2003, d_A[0], 0, "A", 7, 142)
				}
				t2004 := i_j + int64(1)
				t2005 := t2004
				if t2005 < 0 || t2005 >= d_A[1] {
					return m.OOB(t2005, d_A[1], 1, "A", 7, 142)
				}
				t2006 := b_A + int((t2003)*d_A[1]+t2005)
				r_A_r9 := m.LoadF(t2006)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t2007 := float64(r_A_r + r_A_r2)
				t2008 := float64(t2007 + r_A_r3)
				t2009 := float64(t2008 + r_A_r4)
				t2010 := float64(t2009 + r_A_r5)
				t2011 := float64(t2010 + r_A_r6)
				t2012 := float64(t2011 + r_A_r7)
				t2013 := float64(t2012 + r_A_r8)
				t2014 := float64(t2013 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t2015 := float64(t2014 / float64(9))
				r_A_w := t2015
				t2016 := i_i
				if t2016 < 0 || t2016 >= d_A[0] {
					return m.OOB(t2016, d_A[0], 0, "A", 7, 11)
				}
				t2017 := i_j
				if t2017 < 0 || t2017 >= d_A[1] {
					return m.OOB(t2017, d_A[1], 1, "A", 7, 11)
				}
				t2018 := b_A + int((t2016)*d_A[1]+t2017)
				m.StoreF(t2018, r_A_w)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t2019 := p_n - int64(2)
			t2020 := codegen.MaxI(int64(1), t2019)
			t2021 := p_n - int64(2)
			for i_j := t2020; i_j <= t2021; i_j++ {
				if err := m.Tick(0, 0); err != nil {
					return err
				}
				t2022 := i_i - int64(1)
				t2023 := t2022
				if t2023 < 0 || t2023 >= d_A[0] {
					return m.OOB(t2023, d_A[0], 0, "A", 7, 22)
				}
				t2024 := i_j - int64(1)
				t2025 := t2024
				if t2025 < 0 || t2025 >= d_A[1] {
					return m.OOB(t2025, d_A[1], 1, "A", 7, 22)
				}
				t2026 := b_A + int((t2023)*d_A[1]+t2025)
				r_A_r := m.LoadF(t2026)
				t2027 := i_i - int64(1)
				t2028 := t2027
				if t2028 < 0 || t2028 >= d_A[0] {
					return m.OOB(t2028, d_A[0], 0, "A", 7, 40)
				}
				t2029 := i_j
				if t2029 < 0 || t2029 >= d_A[1] {
					return m.OOB(t2029, d_A[1], 1, "A", 7, 40)
				}
				t2030 := b_A + int((t2028)*d_A[1]+t2029)
				r_A_r2 := m.LoadF(t2030)
				t2031 := i_i - int64(1)
				t2032 := t2031
				if t2032 < 0 || t2032 >= d_A[0] {
					return m.OOB(t2032, d_A[0], 0, "A", 7, 54)
				}
				t2033 := i_j + int64(1)
				t2034 := t2033
				if t2034 < 0 || t2034 >= d_A[1] {
					return m.OOB(t2034, d_A[1], 1, "A", 7, 54)
				}
				t2035 := b_A + int((t2032)*d_A[1]+t2034)
				r_A_r3 := m.LoadF(t2035)
				t2036 := i_i
				if t2036 < 0 || t2036 >= d_A[0] {
					return m.OOB(t2036, d_A[0], 0, "A", 7, 72)
				}
				t2037 := i_j - int64(1)
				t2038 := t2037
				if t2038 < 0 || t2038 >= d_A[1] {
					return m.OOB(t2038, d_A[1], 1, "A", 7, 72)
				}
				t2039 := b_A + int((t2036)*d_A[1]+t2038)
				r_A_r4 := m.LoadF(t2039)
				t2040 := i_i
				if t2040 < 0 || t2040 >= d_A[0] {
					return m.OOB(t2040, d_A[0], 0, "A", 7, 86)
				}
				t2041 := i_j
				if t2041 < 0 || t2041 >= d_A[1] {
					return m.OOB(t2041, d_A[1], 1, "A", 7, 86)
				}
				t2042 := b_A + int((t2040)*d_A[1]+t2041)
				r_A_r5 := m.LoadF(t2042)
				t2043 := i_i
				if t2043 < 0 || t2043 >= d_A[0] {
					return m.OOB(t2043, d_A[0], 0, "A", 7, 96)
				}
				t2044 := i_j + int64(1)
				t2045 := t2044
				if t2045 < 0 || t2045 >= d_A[1] {
					return m.OOB(t2045, d_A[1], 1, "A", 7, 96)
				}
				t2046 := b_A + int((t2043)*d_A[1]+t2045)
				r_A_r6 := m.LoadF(t2046)
				t2047 := i_i + int64(1)
				t2048 := t2047
				if t2048 < 0 || t2048 >= d_A[0] {
					return m.OOB(t2048, d_A[0], 0, "A", 7, 110)
				}
				t2049 := i_j - int64(1)
				t2050 := t2049
				if t2050 < 0 || t2050 >= d_A[1] {
					return m.OOB(t2050, d_A[1], 1, "A", 7, 110)
				}
				t2051 := b_A + int((t2048)*d_A[1]+t2050)
				r_A_r7 := m.LoadF(t2051)
				t2052 := i_i + int64(1)
				t2053 := t2052
				if t2053 < 0 || t2053 >= d_A[0] {
					return m.OOB(t2053, d_A[0], 0, "A", 7, 128)
				}
				t2054 := i_j
				if t2054 < 0 || t2054 >= d_A[1] {
					return m.OOB(t2054, d_A[1], 1, "A", 7, 128)
				}
				t2055 := b_A + int((t2053)*d_A[1]+t2054)
				r_A_r8 := m.LoadF(t2055)
				t2056 := i_i + int64(1)
				t2057 := t2056
				if t2057 < 0 || t2057 >= d_A[0] {
					return m.OOB(t2057, d_A[0], 0, "A", 7, 142)
				}
				t2058 := i_j + int64(1)
				t2059 := t2058
				if t2059 < 0 || t2059 >= d_A[1] {
					return m.OOB(t2059, d_A[1], 1, "A", 7, 142)
				}
				t2060 := b_A + int((t2057)*d_A[1]+t2059)
				r_A_r9 := m.LoadF(t2060)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t2061 := float64(r_A_r + r_A_r2)
				t2062 := float64(t2061 + r_A_r3)
				t2063 := float64(t2062 + r_A_r4)
				t2064 := float64(t2063 + r_A_r5)
				t2065 := float64(t2064 + r_A_r6)
				t2066 := float64(t2065 + r_A_r7)
				t2067 := float64(t2066 + r_A_r8)
				t2068 := float64(t2067 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t2069 := float64(t2068 / float64(9))
				r_A_w := t2069
				t2070 := i_i
				if t2070 < 0 || t2070 >= d_A[0] {
					return m.OOB(t2070, d_A[0], 0, "A", 7, 11)
				}
				t2071 := i_j
				if t2071 < 0 || t2071 >= d_A[1] {
					return m.OOB(t2071, d_A[1], 1, "A", 7, 11)
				}
				t2072 := b_A + int((t2070)*d_A[1]+t2071)
				m.StoreF(t2072, r_A_w)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n16(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t1804 := p_n - int64(3)
	for i_i := int64(1); i_i <= t1804; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1805 := p_n - int64(3)
		t1806 := codegen.MinI(t1805, int64(1))
		for i_j := int64(1); i_j <= t1806; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1807 := i_i - int64(1)
			t1808 := t1807
			if t1808 < 0 || t1808 >= d_A[0] {
				return m.OOB(t1808, d_A[0], 0, "A", 7, 22)
			}
			t1809 := i_j - int64(1)
			t1810 := t1809
			if t1810 < 0 || t1810 >= d_A[1] {
				return m.OOB(t1810, d_A[1], 1, "A", 7, 22)
			}
			t1811 := b_A + int((t1808)*d_A[1]+t1810)
			r_A_r := m.LoadF(t1811)
			t1812 := i_i - int64(1)
			t1813 := t1812
			if t1813 < 0 || t1813 >= d_A[0] {
				return m.OOB(t1813, d_A[0], 0, "A", 7, 40)
			}
			t1814 := i_j
			if t1814 < 0 || t1814 >= d_A[1] {
				return m.OOB(t1814, d_A[1], 1, "A", 7, 40)
			}
			t1815 := b_A + int((t1813)*d_A[1]+t1814)
			r_A_r2 := m.LoadF(t1815)
			t1816 := i_i - int64(1)
			t1817 := t1816
			if t1817 < 0 || t1817 >= d_A[0] {
				return m.OOB(t1817, d_A[0], 0, "A", 7, 54)
			}
			t1818 := i_j + int64(1)
			t1819 := t1818
			if t1819 < 0 || t1819 >= d_A[1] {
				return m.OOB(t1819, d_A[1], 1, "A", 7, 54)
			}
			t1820 := b_A + int((t1817)*d_A[1]+t1819)
			r_A_r3 := m.LoadF(t1820)
			t1821 := i_i
			if t1821 < 0 || t1821 >= d_A[0] {
				return m.OOB(t1821, d_A[0], 0, "A", 7, 72)
			}
			t1822 := i_j - int64(1)
			t1823 := t1822
			if t1823 < 0 || t1823 >= d_A[1] {
				return m.OOB(t1823, d_A[1], 1, "A", 7, 72)
			}
			t1824 := b_A + int((t1821)*d_A[1]+t1823)
			r_A_r4 := m.LoadF(t1824)
			t1825 := i_i
			if t1825 < 0 || t1825 >= d_A[0] {
				return m.OOB(t1825, d_A[0], 0, "A", 7, 86)
			}
			t1826 := i_j
			if t1826 < 0 || t1826 >= d_A[1] {
				return m.OOB(t1826, d_A[1], 1, "A", 7, 86)
			}
			t1827 := b_A + int((t1825)*d_A[1]+t1826)
			r_A_r5 := m.LoadF(t1827)
			t1828 := i_i
			if t1828 < 0 || t1828 >= d_A[0] {
				return m.OOB(t1828, d_A[0], 0, "A", 7, 96)
			}
			t1829 := i_j + int64(1)
			t1830 := t1829
			if t1830 < 0 || t1830 >= d_A[1] {
				return m.OOB(t1830, d_A[1], 1, "A", 7, 96)
			}
			t1831 := b_A + int((t1828)*d_A[1]+t1830)
			r_A_r6 := m.LoadF(t1831)
			t1832 := i_i + int64(1)
			t1833 := t1832
			if t1833 < 0 || t1833 >= d_A[0] {
				return m.OOB(t1833, d_A[0], 0, "A", 7, 110)
			}
			t1834 := i_j - int64(1)
			t1835 := t1834
			if t1835 < 0 || t1835 >= d_A[1] {
				return m.OOB(t1835, d_A[1], 1, "A", 7, 110)
			}
			t1836 := b_A + int((t1833)*d_A[1]+t1835)
			r_A_r7 := m.LoadF(t1836)
			t1837 := i_i + int64(1)
			t1838 := t1837
			if t1838 < 0 || t1838 >= d_A[0] {
				return m.OOB(t1838, d_A[0], 0, "A", 7, 128)
			}
			t1839 := i_j
			if t1839 < 0 || t1839 >= d_A[1] {
				return m.OOB(t1839, d_A[1], 1, "A", 7, 128)
			}
			t1840 := b_A + int((t1838)*d_A[1]+t1839)
			r_A_r8 := m.LoadF(t1840)
			t1841 := i_i + int64(1)
			t1842 := t1841
			if t1842 < 0 || t1842 >= d_A[0] {
				return m.OOB(t1842, d_A[0], 0, "A", 7, 142)
			}
			t1843 := i_j + int64(1)
			t1844 := t1843
			if t1844 < 0 || t1844 >= d_A[1] {
				return m.OOB(t1844, d_A[1], 1, "A", 7, 142)
			}
			t1845 := b_A + int((t1842)*d_A[1]+t1844)
			r_A_r9 := m.LoadF(t1845)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1846 := float64(r_A_r + r_A_r2)
			t1847 := float64(t1846 + r_A_r3)
			t1848 := float64(t1847 + r_A_r4)
			t1849 := float64(t1848 + r_A_r5)
			t1850 := float64(t1849 + r_A_r6)
			t1851 := float64(t1850 + r_A_r7)
			t1852 := float64(t1851 + r_A_r8)
			t1853 := float64(t1852 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1854 := float64(t1853 / float64(9))
			r_A_w := t1854
			t1855 := i_i
			if t1855 < 0 || t1855 >= d_A[0] {
				return m.OOB(t1855, d_A[0], 0, "A", 7, 11)
			}
			t1856 := i_j
			if t1856 < 0 || t1856 >= d_A[1] {
				return m.OOB(t1856, d_A[1], 1, "A", 7, 11)
			}
			t1857 := b_A + int((t1855)*d_A[1]+t1856)
			m.StoreF(t1857, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t1858 := p_n - int64(3)
		for i_j := int64(2); i_j <= t1858; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1859 := i_i - int64(1)
			t1860 := t1859
			if t1860 < 0 || t1860 >= d_A[0] {
				return m.OOB(t1860, d_A[0], 0, "A", 7, 22)
			}
			t1861 := i_j - int64(1)
			t1862 := t1861
			if t1862 < 0 || t1862 >= d_A[1] {
				return m.OOB(t1862, d_A[1], 1, "A", 7, 22)
			}
			t1863 := b_A + int((t1860)*d_A[1]+t1862)
			r_A_r := m.LoadF(t1863)
			t1864 := i_i - int64(1)
			t1865 := t1864
			if t1865 < 0 || t1865 >= d_A[0] {
				return m.OOB(t1865, d_A[0], 0, "A", 7, 40)
			}
			t1866 := i_j
			if t1866 < 0 || t1866 >= d_A[1] {
				return m.OOB(t1866, d_A[1], 1, "A", 7, 40)
			}
			t1867 := b_A + int((t1865)*d_A[1]+t1866)
			r_A_r2 := m.LoadF(t1867)
			t1868 := i_i - int64(1)
			t1869 := t1868
			if t1869 < 0 || t1869 >= d_A[0] {
				return m.OOB(t1869, d_A[0], 0, "A", 7, 54)
			}
			t1870 := i_j + int64(1)
			t1871 := t1870
			if t1871 < 0 || t1871 >= d_A[1] {
				return m.OOB(t1871, d_A[1], 1, "A", 7, 54)
			}
			t1872 := b_A + int((t1869)*d_A[1]+t1871)
			r_A_r3 := m.LoadF(t1872)
			t1873 := i_i
			if t1873 < 0 || t1873 >= d_A[0] {
				return m.OOB(t1873, d_A[0], 0, "A", 7, 72)
			}
			t1874 := i_j - int64(1)
			t1875 := t1874
			if t1875 < 0 || t1875 >= d_A[1] {
				return m.OOB(t1875, d_A[1], 1, "A", 7, 72)
			}
			t1876 := b_A + int((t1873)*d_A[1]+t1875)
			r_A_r4 := m.LoadF(t1876)
			t1877 := i_i
			if t1877 < 0 || t1877 >= d_A[0] {
				return m.OOB(t1877, d_A[0], 0, "A", 7, 86)
			}
			t1878 := i_j
			if t1878 < 0 || t1878 >= d_A[1] {
				return m.OOB(t1878, d_A[1], 1, "A", 7, 86)
			}
			t1879 := b_A + int((t1877)*d_A[1]+t1878)
			r_A_r5 := m.LoadF(t1879)
			t1880 := i_i
			if t1880 < 0 || t1880 >= d_A[0] {
				return m.OOB(t1880, d_A[0], 0, "A", 7, 96)
			}
			t1881 := i_j + int64(1)
			t1882 := t1881
			if t1882 < 0 || t1882 >= d_A[1] {
				return m.OOB(t1882, d_A[1], 1, "A", 7, 96)
			}
			t1883 := b_A + int((t1880)*d_A[1]+t1882)
			r_A_r6 := m.LoadF(t1883)
			t1884 := i_i + int64(1)
			t1885 := t1884
			if t1885 < 0 || t1885 >= d_A[0] {
				return m.OOB(t1885, d_A[0], 0, "A", 7, 110)
			}
			t1886 := i_j - int64(1)
			t1887 := t1886
			if t1887 < 0 || t1887 >= d_A[1] {
				return m.OOB(t1887, d_A[1], 1, "A", 7, 110)
			}
			t1888 := b_A + int((t1885)*d_A[1]+t1887)
			r_A_r7 := m.LoadF(t1888)
			t1889 := i_i + int64(1)
			t1890 := t1889
			if t1890 < 0 || t1890 >= d_A[0] {
				return m.OOB(t1890, d_A[0], 0, "A", 7, 128)
			}
			t1891 := i_j
			if t1891 < 0 || t1891 >= d_A[1] {
				return m.OOB(t1891, d_A[1], 1, "A", 7, 128)
			}
			t1892 := b_A + int((t1890)*d_A[1]+t1891)
			r_A_r8 := m.LoadF(t1892)
			t1893 := i_i + int64(1)
			t1894 := t1893
			if t1894 < 0 || t1894 >= d_A[0] {
				return m.OOB(t1894, d_A[0], 0, "A", 7, 142)
			}
			t1895 := i_j + int64(1)
			t1896 := t1895
			if t1896 < 0 || t1896 >= d_A[1] {
				return m.OOB(t1896, d_A[1], 1, "A", 7, 142)
			}
			t1897 := b_A + int((t1894)*d_A[1]+t1896)
			r_A_r9 := m.LoadF(t1897)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1898 := float64(r_A_r + r_A_r2)
			t1899 := float64(t1898 + r_A_r3)
			t1900 := float64(t1899 + r_A_r4)
			t1901 := float64(t1900 + r_A_r5)
			t1902 := float64(t1901 + r_A_r6)
			t1903 := float64(t1902 + r_A_r7)
			t1904 := float64(t1903 + r_A_r8)
			t1905 := float64(t1904 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1906 := float64(t1905 / float64(9))
			r_A_w := t1906
			t1907 := i_i
			if t1907 < 0 || t1907 >= d_A[0] {
				return m.OOB(t1907, d_A[0], 0, "A", 7, 11)
			}
			t1908 := i_j
			if t1908 < 0 || t1908 >= d_A[1] {
				return m.OOB(t1908, d_A[1], 1, "A", 7, 11)
			}
			t1909 := b_A + int((t1907)*d_A[1]+t1908)
			m.StoreF(t1909, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t1910 := p_n - int64(2)
		t1911 := codegen.MaxI(int64(1), t1910)
		t1912 := p_n - int64(2)
		for i_j := t1911; i_j <= t1912; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1913 := i_i - int64(1)
			t1914 := t1913
			if t1914 < 0 || t1914 >= d_A[0] {
				return m.OOB(t1914, d_A[0], 0, "A", 7, 22)
			}
			t1915 := i_j - int64(1)
			t1916 := t1915
			if t1916 < 0 || t1916 >= d_A[1] {
				return m.OOB(t1916, d_A[1], 1, "A", 7, 22)
			}
			t1917 := b_A + int((t1914)*d_A[1]+t1916)
			r_A_r := m.LoadF(t1917)
			t1918 := i_i - int64(1)
			t1919 := t1918
			if t1919 < 0 || t1919 >= d_A[0] {
				return m.OOB(t1919, d_A[0], 0, "A", 7, 40)
			}
			t1920 := i_j
			if t1920 < 0 || t1920 >= d_A[1] {
				return m.OOB(t1920, d_A[1], 1, "A", 7, 40)
			}
			t1921 := b_A + int((t1919)*d_A[1]+t1920)
			r_A_r2 := m.LoadF(t1921)
			t1922 := i_i - int64(1)
			t1923 := t1922
			if t1923 < 0 || t1923 >= d_A[0] {
				return m.OOB(t1923, d_A[0], 0, "A", 7, 54)
			}
			t1924 := i_j + int64(1)
			t1925 := t1924
			if t1925 < 0 || t1925 >= d_A[1] {
				return m.OOB(t1925, d_A[1], 1, "A", 7, 54)
			}
			t1926 := b_A + int((t1923)*d_A[1]+t1925)
			r_A_r3 := m.LoadF(t1926)
			t1927 := i_i
			if t1927 < 0 || t1927 >= d_A[0] {
				return m.OOB(t1927, d_A[0], 0, "A", 7, 72)
			}
			t1928 := i_j - int64(1)
			t1929 := t1928
			if t1929 < 0 || t1929 >= d_A[1] {
				return m.OOB(t1929, d_A[1], 1, "A", 7, 72)
			}
			t1930 := b_A + int((t1927)*d_A[1]+t1929)
			r_A_r4 := m.LoadF(t1930)
			t1931 := i_i
			if t1931 < 0 || t1931 >= d_A[0] {
				return m.OOB(t1931, d_A[0], 0, "A", 7, 86)
			}
			t1932 := i_j
			if t1932 < 0 || t1932 >= d_A[1] {
				return m.OOB(t1932, d_A[1], 1, "A", 7, 86)
			}
			t1933 := b_A + int((t1931)*d_A[1]+t1932)
			r_A_r5 := m.LoadF(t1933)
			t1934 := i_i
			if t1934 < 0 || t1934 >= d_A[0] {
				return m.OOB(t1934, d_A[0], 0, "A", 7, 96)
			}
			t1935 := i_j + int64(1)
			t1936 := t1935
			if t1936 < 0 || t1936 >= d_A[1] {
				return m.OOB(t1936, d_A[1], 1, "A", 7, 96)
			}
			t1937 := b_A + int((t1934)*d_A[1]+t1936)
			r_A_r6 := m.LoadF(t1937)
			t1938 := i_i + int64(1)
			t1939 := t1938
			if t1939 < 0 || t1939 >= d_A[0] {
				return m.OOB(t1939, d_A[0], 0, "A", 7, 110)
			}
			t1940 := i_j - int64(1)
			t1941 := t1940
			if t1941 < 0 || t1941 >= d_A[1] {
				return m.OOB(t1941, d_A[1], 1, "A", 7, 110)
			}
			t1942 := b_A + int((t1939)*d_A[1]+t1941)
			r_A_r7 := m.LoadF(t1942)
			t1943 := i_i + int64(1)
			t1944 := t1943
			if t1944 < 0 || t1944 >= d_A[0] {
				return m.OOB(t1944, d_A[0], 0, "A", 7, 128)
			}
			t1945 := i_j
			if t1945 < 0 || t1945 >= d_A[1] {
				return m.OOB(t1945, d_A[1], 1, "A", 7, 128)
			}
			t1946 := b_A + int((t1944)*d_A[1]+t1945)
			r_A_r8 := m.LoadF(t1946)
			t1947 := i_i + int64(1)
			t1948 := t1947
			if t1948 < 0 || t1948 >= d_A[0] {
				return m.OOB(t1948, d_A[0], 0, "A", 7, 142)
			}
			t1949 := i_j + int64(1)
			t1950 := t1949
			if t1950 < 0 || t1950 >= d_A[1] {
				return m.OOB(t1950, d_A[1], 1, "A", 7, 142)
			}
			t1951 := b_A + int((t1948)*d_A[1]+t1950)
			r_A_r9 := m.LoadF(t1951)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t1952 := float64(r_A_r + r_A_r2)
			t1953 := float64(t1952 + r_A_r3)
			t1954 := float64(t1953 + r_A_r4)
			t1955 := float64(t1954 + r_A_r5)
			t1956 := float64(t1955 + r_A_r6)
			t1957 := float64(t1956 + r_A_r7)
			t1958 := float64(t1957 + r_A_r8)
			t1959 := float64(t1958 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t1960 := float64(t1959 / float64(9))
			r_A_w := t1960
			t1961 := i_i
			if t1961 < 0 || t1961 >= d_A[0] {
				return m.OOB(t1961, d_A[0], 0, "A", 7, 11)
			}
			t1962 := i_j
			if t1962 < 0 || t1962 >= d_A[1] {
				return m.OOB(t1962, d_A[1], 1, "A", 7, 11)
			}
			t1963 := b_A + int((t1961)*d_A[1]+t1962)
			m.StoreF(t1963, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n17(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t2073 := p_tsteps - int64(3)
	for i_t := int64(1); i_t <= t2073; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n18(m, cs, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n19(m, cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t2395 := p_n - int64(2)
		t2396 := codegen.MaxI(int64(1), t2395)
		t2397 := p_n - int64(2)
		t2398 := codegen.MinI(t2397, int64(1))
		for i_i := t2396; i_i <= t2398; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2399 := p_n - int64(2)
			for i_j := int64(1); i_j <= t2399; i_j++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t2400 := i_i - int64(1)
				t2401 := t2400
				if t2401 < 0 || t2401 >= d_A[0] {
					return m.OOB(t2401, d_A[0], 0, "A", 7, 22)
				}
				t2402 := i_j - int64(1)
				t2403 := t2402
				if t2403 < 0 || t2403 >= d_A[1] {
					return m.OOB(t2403, d_A[1], 1, "A", 7, 22)
				}
				t2404 := b_A + int((t2401)*d_A[1]+t2403)
				r_A_r := m.LoadF(t2404)
				t2405 := i_i - int64(1)
				t2406 := t2405
				if t2406 < 0 || t2406 >= d_A[0] {
					return m.OOB(t2406, d_A[0], 0, "A", 7, 40)
				}
				t2407 := i_j
				if t2407 < 0 || t2407 >= d_A[1] {
					return m.OOB(t2407, d_A[1], 1, "A", 7, 40)
				}
				t2408 := b_A + int((t2406)*d_A[1]+t2407)
				r_A_r2 := m.LoadF(t2408)
				t2409 := i_i - int64(1)
				t2410 := t2409
				if t2410 < 0 || t2410 >= d_A[0] {
					return m.OOB(t2410, d_A[0], 0, "A", 7, 54)
				}
				t2411 := i_j + int64(1)
				t2412 := t2411
				if t2412 < 0 || t2412 >= d_A[1] {
					return m.OOB(t2412, d_A[1], 1, "A", 7, 54)
				}
				t2413 := b_A + int((t2410)*d_A[1]+t2412)
				r_A_r3 := m.LoadF(t2413)
				t2414 := i_i
				if t2414 < 0 || t2414 >= d_A[0] {
					return m.OOB(t2414, d_A[0], 0, "A", 7, 72)
				}
				t2415 := i_j - int64(1)
				t2416 := t2415
				if t2416 < 0 || t2416 >= d_A[1] {
					return m.OOB(t2416, d_A[1], 1, "A", 7, 72)
				}
				t2417 := b_A + int((t2414)*d_A[1]+t2416)
				r_A_r4 := m.LoadF(t2417)
				t2418 := i_i
				if t2418 < 0 || t2418 >= d_A[0] {
					return m.OOB(t2418, d_A[0], 0, "A", 7, 86)
				}
				t2419 := i_j
				if t2419 < 0 || t2419 >= d_A[1] {
					return m.OOB(t2419, d_A[1], 1, "A", 7, 86)
				}
				t2420 := b_A + int((t2418)*d_A[1]+t2419)
				r_A_r5 := m.LoadF(t2420)
				t2421 := i_i
				if t2421 < 0 || t2421 >= d_A[0] {
					return m.OOB(t2421, d_A[0], 0, "A", 7, 96)
				}
				t2422 := i_j + int64(1)
				t2423 := t2422
				if t2423 < 0 || t2423 >= d_A[1] {
					return m.OOB(t2423, d_A[1], 1, "A", 7, 96)
				}
				t2424 := b_A + int((t2421)*d_A[1]+t2423)
				r_A_r6 := m.LoadF(t2424)
				t2425 := i_i + int64(1)
				t2426 := t2425
				if t2426 < 0 || t2426 >= d_A[0] {
					return m.OOB(t2426, d_A[0], 0, "A", 7, 110)
				}
				t2427 := i_j - int64(1)
				t2428 := t2427
				if t2428 < 0 || t2428 >= d_A[1] {
					return m.OOB(t2428, d_A[1], 1, "A", 7, 110)
				}
				t2429 := b_A + int((t2426)*d_A[1]+t2428)
				r_A_r7 := m.LoadF(t2429)
				t2430 := i_i + int64(1)
				t2431 := t2430
				if t2431 < 0 || t2431 >= d_A[0] {
					return m.OOB(t2431, d_A[0], 0, "A", 7, 128)
				}
				t2432 := i_j
				if t2432 < 0 || t2432 >= d_A[1] {
					return m.OOB(t2432, d_A[1], 1, "A", 7, 128)
				}
				t2433 := b_A + int((t2431)*d_A[1]+t2432)
				r_A_r8 := m.LoadF(t2433)
				t2434 := i_i + int64(1)
				t2435 := t2434
				if t2435 < 0 || t2435 >= d_A[0] {
					return m.OOB(t2435, d_A[0], 0, "A", 7, 142)
				}
				t2436 := i_j + int64(1)
				t2437 := t2436
				if t2437 < 0 || t2437 >= d_A[1] {
					return m.OOB(t2437, d_A[1], 1, "A", 7, 142)
				}
				t2438 := b_A + int((t2435)*d_A[1]+t2437)
				r_A_r9 := m.LoadF(t2438)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t2439 := float64(r_A_r + r_A_r2)
				t2440 := float64(t2439 + r_A_r3)
				t2441 := float64(t2440 + r_A_r4)
				t2442 := float64(t2441 + r_A_r5)
				t2443 := float64(t2442 + r_A_r6)
				t2444 := float64(t2443 + r_A_r7)
				t2445 := float64(t2444 + r_A_r8)
				t2446 := float64(t2445 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t2447 := float64(t2446 / float64(9))
				r_A_w := t2447
				t2448 := i_i
				if t2448 < 0 || t2448 >= d_A[0] {
					return m.OOB(t2448, d_A[0], 0, "A", 7, 11)
				}
				t2449 := i_j
				if t2449 < 0 || t2449 >= d_A[1] {
					return m.OOB(t2449, d_A[1], 1, "A", 7, 11)
				}
				t2450 := b_A + int((t2448)*d_A[1]+t2449)
				m.StoreF(t2450, r_A_w)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
		}
		if err := run_seidel_resilientopt_n20(m, cs, p_n, b_A, d_A); err != nil {
			return err
		}
	}
	return nil
}

func run_seidel_resilientopt_n18(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t2074 := p_n - int64(3)
	t2075 := codegen.MinI(t2074, int64(1))
	for i_i := int64(1); i_i <= t2075; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2076 := p_n - int64(3)
		t2077 := codegen.MinI(t2076, int64(1))
		for i_j := int64(1); i_j <= t2077; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2078 := i_i - int64(1)
			t2079 := t2078
			if t2079 < 0 || t2079 >= d_A[0] {
				return m.OOB(t2079, d_A[0], 0, "A", 7, 22)
			}
			t2080 := i_j - int64(1)
			t2081 := t2080
			if t2081 < 0 || t2081 >= d_A[1] {
				return m.OOB(t2081, d_A[1], 1, "A", 7, 22)
			}
			t2082 := b_A + int((t2079)*d_A[1]+t2081)
			r_A_r := m.LoadF(t2082)
			t2083 := i_i - int64(1)
			t2084 := t2083
			if t2084 < 0 || t2084 >= d_A[0] {
				return m.OOB(t2084, d_A[0], 0, "A", 7, 40)
			}
			t2085 := i_j
			if t2085 < 0 || t2085 >= d_A[1] {
				return m.OOB(t2085, d_A[1], 1, "A", 7, 40)
			}
			t2086 := b_A + int((t2084)*d_A[1]+t2085)
			r_A_r2 := m.LoadF(t2086)
			t2087 := i_i - int64(1)
			t2088 := t2087
			if t2088 < 0 || t2088 >= d_A[0] {
				return m.OOB(t2088, d_A[0], 0, "A", 7, 54)
			}
			t2089 := i_j + int64(1)
			t2090 := t2089
			if t2090 < 0 || t2090 >= d_A[1] {
				return m.OOB(t2090, d_A[1], 1, "A", 7, 54)
			}
			t2091 := b_A + int((t2088)*d_A[1]+t2090)
			r_A_r3 := m.LoadF(t2091)
			t2092 := i_i
			if t2092 < 0 || t2092 >= d_A[0] {
				return m.OOB(t2092, d_A[0], 0, "A", 7, 72)
			}
			t2093 := i_j - int64(1)
			t2094 := t2093
			if t2094 < 0 || t2094 >= d_A[1] {
				return m.OOB(t2094, d_A[1], 1, "A", 7, 72)
			}
			t2095 := b_A + int((t2092)*d_A[1]+t2094)
			r_A_r4 := m.LoadF(t2095)
			t2096 := i_i
			if t2096 < 0 || t2096 >= d_A[0] {
				return m.OOB(t2096, d_A[0], 0, "A", 7, 86)
			}
			t2097 := i_j
			if t2097 < 0 || t2097 >= d_A[1] {
				return m.OOB(t2097, d_A[1], 1, "A", 7, 86)
			}
			t2098 := b_A + int((t2096)*d_A[1]+t2097)
			r_A_r5 := m.LoadF(t2098)
			t2099 := i_i
			if t2099 < 0 || t2099 >= d_A[0] {
				return m.OOB(t2099, d_A[0], 0, "A", 7, 96)
			}
			t2100 := i_j + int64(1)
			t2101 := t2100
			if t2101 < 0 || t2101 >= d_A[1] {
				return m.OOB(t2101, d_A[1], 1, "A", 7, 96)
			}
			t2102 := b_A + int((t2099)*d_A[1]+t2101)
			r_A_r6 := m.LoadF(t2102)
			t2103 := i_i + int64(1)
			t2104 := t2103
			if t2104 < 0 || t2104 >= d_A[0] {
				return m.OOB(t2104, d_A[0], 0, "A", 7, 110)
			}
			t2105 := i_j - int64(1)
			t2106 := t2105
			if t2106 < 0 || t2106 >= d_A[1] {
				return m.OOB(t2106, d_A[1], 1, "A", 7, 110)
			}
			t2107 := b_A + int((t2104)*d_A[1]+t2106)
			r_A_r7 := m.LoadF(t2107)
			t2108 := i_i + int64(1)
			t2109 := t2108
			if t2109 < 0 || t2109 >= d_A[0] {
				return m.OOB(t2109, d_A[0], 0, "A", 7, 128)
			}
			t2110 := i_j
			if t2110 < 0 || t2110 >= d_A[1] {
				return m.OOB(t2110, d_A[1], 1, "A", 7, 128)
			}
			t2111 := b_A + int((t2109)*d_A[1]+t2110)
			r_A_r8 := m.LoadF(t2111)
			t2112 := i_i + int64(1)
			t2113 := t2112
			if t2113 < 0 || t2113 >= d_A[0] {
				return m.OOB(t2113, d_A[0], 0, "A", 7, 142)
			}
			t2114 := i_j + int64(1)
			t2115 := t2114
			if t2115 < 0 || t2115 >= d_A[1] {
				return m.OOB(t2115, d_A[1], 1, "A", 7, 142)
			}
			t2116 := b_A + int((t2113)*d_A[1]+t2115)
			r_A_r9 := m.LoadF(t2116)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2117 := float64(r_A_r + r_A_r2)
			t2118 := float64(t2117 + r_A_r3)
			t2119 := float64(t2118 + r_A_r4)
			t2120 := float64(t2119 + r_A_r5)
			t2121 := float64(t2120 + r_A_r6)
			t2122 := float64(t2121 + r_A_r7)
			t2123 := float64(t2122 + r_A_r8)
			t2124 := float64(t2123 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2125 := float64(t2124 / float64(9))
			r_A_w := t2125
			t2126 := i_i
			if t2126 < 0 || t2126 >= d_A[0] {
				return m.OOB(t2126, d_A[0], 0, "A", 7, 11)
			}
			t2127 := i_j
			if t2127 < 0 || t2127 >= d_A[1] {
				return m.OOB(t2127, d_A[1], 1, "A", 7, 11)
			}
			t2128 := b_A + int((t2126)*d_A[1]+t2127)
			m.StoreF(t2128, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t2129 := p_n - int64(3)
		for i_j := int64(2); i_j <= t2129; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2130 := i_i - int64(1)
			t2131 := t2130
			if t2131 < 0 || t2131 >= d_A[0] {
				return m.OOB(t2131, d_A[0], 0, "A", 7, 22)
			}
			t2132 := i_j - int64(1)
			t2133 := t2132
			if t2133 < 0 || t2133 >= d_A[1] {
				return m.OOB(t2133, d_A[1], 1, "A", 7, 22)
			}
			t2134 := b_A + int((t2131)*d_A[1]+t2133)
			r_A_r := m.LoadF(t2134)
			t2135 := i_i - int64(1)
			t2136 := t2135
			if t2136 < 0 || t2136 >= d_A[0] {
				return m.OOB(t2136, d_A[0], 0, "A", 7, 40)
			}
			t2137 := i_j
			if t2137 < 0 || t2137 >= d_A[1] {
				return m.OOB(t2137, d_A[1], 1, "A", 7, 40)
			}
			t2138 := b_A + int((t2136)*d_A[1]+t2137)
			r_A_r2 := m.LoadF(t2138)
			t2139 := i_i - int64(1)
			t2140 := t2139
			if t2140 < 0 || t2140 >= d_A[0] {
				return m.OOB(t2140, d_A[0], 0, "A", 7, 54)
			}
			t2141 := i_j + int64(1)
			t2142 := t2141
			if t2142 < 0 || t2142 >= d_A[1] {
				return m.OOB(t2142, d_A[1], 1, "A", 7, 54)
			}
			t2143 := b_A + int((t2140)*d_A[1]+t2142)
			r_A_r3 := m.LoadF(t2143)
			t2144 := i_i
			if t2144 < 0 || t2144 >= d_A[0] {
				return m.OOB(t2144, d_A[0], 0, "A", 7, 72)
			}
			t2145 := i_j - int64(1)
			t2146 := t2145
			if t2146 < 0 || t2146 >= d_A[1] {
				return m.OOB(t2146, d_A[1], 1, "A", 7, 72)
			}
			t2147 := b_A + int((t2144)*d_A[1]+t2146)
			r_A_r4 := m.LoadF(t2147)
			t2148 := i_i
			if t2148 < 0 || t2148 >= d_A[0] {
				return m.OOB(t2148, d_A[0], 0, "A", 7, 86)
			}
			t2149 := i_j
			if t2149 < 0 || t2149 >= d_A[1] {
				return m.OOB(t2149, d_A[1], 1, "A", 7, 86)
			}
			t2150 := b_A + int((t2148)*d_A[1]+t2149)
			r_A_r5 := m.LoadF(t2150)
			t2151 := i_i
			if t2151 < 0 || t2151 >= d_A[0] {
				return m.OOB(t2151, d_A[0], 0, "A", 7, 96)
			}
			t2152 := i_j + int64(1)
			t2153 := t2152
			if t2153 < 0 || t2153 >= d_A[1] {
				return m.OOB(t2153, d_A[1], 1, "A", 7, 96)
			}
			t2154 := b_A + int((t2151)*d_A[1]+t2153)
			r_A_r6 := m.LoadF(t2154)
			t2155 := i_i + int64(1)
			t2156 := t2155
			if t2156 < 0 || t2156 >= d_A[0] {
				return m.OOB(t2156, d_A[0], 0, "A", 7, 110)
			}
			t2157 := i_j - int64(1)
			t2158 := t2157
			if t2158 < 0 || t2158 >= d_A[1] {
				return m.OOB(t2158, d_A[1], 1, "A", 7, 110)
			}
			t2159 := b_A + int((t2156)*d_A[1]+t2158)
			r_A_r7 := m.LoadF(t2159)
			t2160 := i_i + int64(1)
			t2161 := t2160
			if t2161 < 0 || t2161 >= d_A[0] {
				return m.OOB(t2161, d_A[0], 0, "A", 7, 128)
			}
			t2162 := i_j
			if t2162 < 0 || t2162 >= d_A[1] {
				return m.OOB(t2162, d_A[1], 1, "A", 7, 128)
			}
			t2163 := b_A + int((t2161)*d_A[1]+t2162)
			r_A_r8 := m.LoadF(t2163)
			t2164 := i_i + int64(1)
			t2165 := t2164
			if t2165 < 0 || t2165 >= d_A[0] {
				return m.OOB(t2165, d_A[0], 0, "A", 7, 142)
			}
			t2166 := i_j + int64(1)
			t2167 := t2166
			if t2167 < 0 || t2167 >= d_A[1] {
				return m.OOB(t2167, d_A[1], 1, "A", 7, 142)
			}
			t2168 := b_A + int((t2165)*d_A[1]+t2167)
			r_A_r9 := m.LoadF(t2168)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2169 := float64(r_A_r + r_A_r2)
			t2170 := float64(t2169 + r_A_r3)
			t2171 := float64(t2170 + r_A_r4)
			t2172 := float64(t2171 + r_A_r5)
			t2173 := float64(t2172 + r_A_r6)
			t2174 := float64(t2173 + r_A_r7)
			t2175 := float64(t2174 + r_A_r8)
			t2176 := float64(t2175 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2177 := float64(t2176 / float64(9))
			r_A_w := t2177
			t2178 := i_i
			if t2178 < 0 || t2178 >= d_A[0] {
				return m.OOB(t2178, d_A[0], 0, "A", 7, 11)
			}
			t2179 := i_j
			if t2179 < 0 || t2179 >= d_A[1] {
				return m.OOB(t2179, d_A[1], 1, "A", 7, 11)
			}
			t2180 := b_A + int((t2178)*d_A[1]+t2179)
			m.StoreF(t2180, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t2181 := p_n - int64(2)
		t2182 := codegen.MaxI(int64(1), t2181)
		t2183 := p_n - int64(2)
		for i_j := t2182; i_j <= t2183; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2184 := i_i - int64(1)
			t2185 := t2184
			if t2185 < 0 || t2185 >= d_A[0] {
				return m.OOB(t2185, d_A[0], 0, "A", 7, 22)
			}
			t2186 := i_j - int64(1)
			t2187 := t2186
			if t2187 < 0 || t2187 >= d_A[1] {
				return m.OOB(t2187, d_A[1], 1, "A", 7, 22)
			}
			t2188 := b_A + int((t2185)*d_A[1]+t2187)
			r_A_r := m.LoadF(t2188)
			t2189 := i_i - int64(1)
			t2190 := t2189
			if t2190 < 0 || t2190 >= d_A[0] {
				return m.OOB(t2190, d_A[0], 0, "A", 7, 40)
			}
			t2191 := i_j
			if t2191 < 0 || t2191 >= d_A[1] {
				return m.OOB(t2191, d_A[1], 1, "A", 7, 40)
			}
			t2192 := b_A + int((t2190)*d_A[1]+t2191)
			r_A_r2 := m.LoadF(t2192)
			t2193 := i_i - int64(1)
			t2194 := t2193
			if t2194 < 0 || t2194 >= d_A[0] {
				return m.OOB(t2194, d_A[0], 0, "A", 7, 54)
			}
			t2195 := i_j + int64(1)
			t2196 := t2195
			if t2196 < 0 || t2196 >= d_A[1] {
				return m.OOB(t2196, d_A[1], 1, "A", 7, 54)
			}
			t2197 := b_A + int((t2194)*d_A[1]+t2196)
			r_A_r3 := m.LoadF(t2197)
			t2198 := i_i
			if t2198 < 0 || t2198 >= d_A[0] {
				return m.OOB(t2198, d_A[0], 0, "A", 7, 72)
			}
			t2199 := i_j - int64(1)
			t2200 := t2199
			if t2200 < 0 || t2200 >= d_A[1] {
				return m.OOB(t2200, d_A[1], 1, "A", 7, 72)
			}
			t2201 := b_A + int((t2198)*d_A[1]+t2200)
			r_A_r4 := m.LoadF(t2201)
			t2202 := i_i
			if t2202 < 0 || t2202 >= d_A[0] {
				return m.OOB(t2202, d_A[0], 0, "A", 7, 86)
			}
			t2203 := i_j
			if t2203 < 0 || t2203 >= d_A[1] {
				return m.OOB(t2203, d_A[1], 1, "A", 7, 86)
			}
			t2204 := b_A + int((t2202)*d_A[1]+t2203)
			r_A_r5 := m.LoadF(t2204)
			t2205 := i_i
			if t2205 < 0 || t2205 >= d_A[0] {
				return m.OOB(t2205, d_A[0], 0, "A", 7, 96)
			}
			t2206 := i_j + int64(1)
			t2207 := t2206
			if t2207 < 0 || t2207 >= d_A[1] {
				return m.OOB(t2207, d_A[1], 1, "A", 7, 96)
			}
			t2208 := b_A + int((t2205)*d_A[1]+t2207)
			r_A_r6 := m.LoadF(t2208)
			t2209 := i_i + int64(1)
			t2210 := t2209
			if t2210 < 0 || t2210 >= d_A[0] {
				return m.OOB(t2210, d_A[0], 0, "A", 7, 110)
			}
			t2211 := i_j - int64(1)
			t2212 := t2211
			if t2212 < 0 || t2212 >= d_A[1] {
				return m.OOB(t2212, d_A[1], 1, "A", 7, 110)
			}
			t2213 := b_A + int((t2210)*d_A[1]+t2212)
			r_A_r7 := m.LoadF(t2213)
			t2214 := i_i + int64(1)
			t2215 := t2214
			if t2215 < 0 || t2215 >= d_A[0] {
				return m.OOB(t2215, d_A[0], 0, "A", 7, 128)
			}
			t2216 := i_j
			if t2216 < 0 || t2216 >= d_A[1] {
				return m.OOB(t2216, d_A[1], 1, "A", 7, 128)
			}
			t2217 := b_A + int((t2215)*d_A[1]+t2216)
			r_A_r8 := m.LoadF(t2217)
			t2218 := i_i + int64(1)
			t2219 := t2218
			if t2219 < 0 || t2219 >= d_A[0] {
				return m.OOB(t2219, d_A[0], 0, "A", 7, 142)
			}
			t2220 := i_j + int64(1)
			t2221 := t2220
			if t2221 < 0 || t2221 >= d_A[1] {
				return m.OOB(t2221, d_A[1], 1, "A", 7, 142)
			}
			t2222 := b_A + int((t2219)*d_A[1]+t2221)
			r_A_r9 := m.LoadF(t2222)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2223 := float64(r_A_r + r_A_r2)
			t2224 := float64(t2223 + r_A_r3)
			t2225 := float64(t2224 + r_A_r4)
			t2226 := float64(t2225 + r_A_r5)
			t2227 := float64(t2226 + r_A_r6)
			t2228 := float64(t2227 + r_A_r7)
			t2229 := float64(t2228 + r_A_r8)
			t2230 := float64(t2229 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2231 := float64(t2230 / float64(9))
			r_A_w := t2231
			t2232 := i_i
			if t2232 < 0 || t2232 >= d_A[0] {
				return m.OOB(t2232, d_A[0], 0, "A", 7, 11)
			}
			t2233 := i_j
			if t2233 < 0 || t2233 >= d_A[1] {
				return m.OOB(t2233, d_A[1], 1, "A", 7, 11)
			}
			t2234 := b_A + int((t2232)*d_A[1]+t2233)
			m.StoreF(t2234, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n19(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t2235 := p_n - int64(3)
	for i_i := int64(2); i_i <= t2235; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2236 := p_n - int64(3)
		t2237 := codegen.MinI(t2236, int64(1))
		for i_j := int64(1); i_j <= t2237; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2238 := i_i - int64(1)
			t2239 := t2238
			if t2239 < 0 || t2239 >= d_A[0] {
				return m.OOB(t2239, d_A[0], 0, "A", 7, 22)
			}
			t2240 := i_j - int64(1)
			t2241 := t2240
			if t2241 < 0 || t2241 >= d_A[1] {
				return m.OOB(t2241, d_A[1], 1, "A", 7, 22)
			}
			t2242 := b_A + int((t2239)*d_A[1]+t2241)
			r_A_r := m.LoadF(t2242)
			t2243 := i_i - int64(1)
			t2244 := t2243
			if t2244 < 0 || t2244 >= d_A[0] {
				return m.OOB(t2244, d_A[0], 0, "A", 7, 40)
			}
			t2245 := i_j
			if t2245 < 0 || t2245 >= d_A[1] {
				return m.OOB(t2245, d_A[1], 1, "A", 7, 40)
			}
			t2246 := b_A + int((t2244)*d_A[1]+t2245)
			r_A_r2 := m.LoadF(t2246)
			t2247 := i_i - int64(1)
			t2248 := t2247
			if t2248 < 0 || t2248 >= d_A[0] {
				return m.OOB(t2248, d_A[0], 0, "A", 7, 54)
			}
			t2249 := i_j + int64(1)
			t2250 := t2249
			if t2250 < 0 || t2250 >= d_A[1] {
				return m.OOB(t2250, d_A[1], 1, "A", 7, 54)
			}
			t2251 := b_A + int((t2248)*d_A[1]+t2250)
			r_A_r3 := m.LoadF(t2251)
			t2252 := i_i
			if t2252 < 0 || t2252 >= d_A[0] {
				return m.OOB(t2252, d_A[0], 0, "A", 7, 72)
			}
			t2253 := i_j - int64(1)
			t2254 := t2253
			if t2254 < 0 || t2254 >= d_A[1] {
				return m.OOB(t2254, d_A[1], 1, "A", 7, 72)
			}
			t2255 := b_A + int((t2252)*d_A[1]+t2254)
			r_A_r4 := m.LoadF(t2255)
			t2256 := i_i
			if t2256 < 0 || t2256 >= d_A[0] {
				return m.OOB(t2256, d_A[0], 0, "A", 7, 86)
			}
			t2257 := i_j
			if t2257 < 0 || t2257 >= d_A[1] {
				return m.OOB(t2257, d_A[1], 1, "A", 7, 86)
			}
			t2258 := b_A + int((t2256)*d_A[1]+t2257)
			r_A_r5 := m.LoadF(t2258)
			t2259 := i_i
			if t2259 < 0 || t2259 >= d_A[0] {
				return m.OOB(t2259, d_A[0], 0, "A", 7, 96)
			}
			t2260 := i_j + int64(1)
			t2261 := t2260
			if t2261 < 0 || t2261 >= d_A[1] {
				return m.OOB(t2261, d_A[1], 1, "A", 7, 96)
			}
			t2262 := b_A + int((t2259)*d_A[1]+t2261)
			r_A_r6 := m.LoadF(t2262)
			t2263 := i_i + int64(1)
			t2264 := t2263
			if t2264 < 0 || t2264 >= d_A[0] {
				return m.OOB(t2264, d_A[0], 0, "A", 7, 110)
			}
			t2265 := i_j - int64(1)
			t2266 := t2265
			if t2266 < 0 || t2266 >= d_A[1] {
				return m.OOB(t2266, d_A[1], 1, "A", 7, 110)
			}
			t2267 := b_A + int((t2264)*d_A[1]+t2266)
			r_A_r7 := m.LoadF(t2267)
			t2268 := i_i + int64(1)
			t2269 := t2268
			if t2269 < 0 || t2269 >= d_A[0] {
				return m.OOB(t2269, d_A[0], 0, "A", 7, 128)
			}
			t2270 := i_j
			if t2270 < 0 || t2270 >= d_A[1] {
				return m.OOB(t2270, d_A[1], 1, "A", 7, 128)
			}
			t2271 := b_A + int((t2269)*d_A[1]+t2270)
			r_A_r8 := m.LoadF(t2271)
			t2272 := i_i + int64(1)
			t2273 := t2272
			if t2273 < 0 || t2273 >= d_A[0] {
				return m.OOB(t2273, d_A[0], 0, "A", 7, 142)
			}
			t2274 := i_j + int64(1)
			t2275 := t2274
			if t2275 < 0 || t2275 >= d_A[1] {
				return m.OOB(t2275, d_A[1], 1, "A", 7, 142)
			}
			t2276 := b_A + int((t2273)*d_A[1]+t2275)
			r_A_r9 := m.LoadF(t2276)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2277 := float64(r_A_r + r_A_r2)
			t2278 := float64(t2277 + r_A_r3)
			t2279 := float64(t2278 + r_A_r4)
			t2280 := float64(t2279 + r_A_r5)
			t2281 := float64(t2280 + r_A_r6)
			t2282 := float64(t2281 + r_A_r7)
			t2283 := float64(t2282 + r_A_r8)
			t2284 := float64(t2283 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2285 := float64(t2284 / float64(9))
			r_A_w := t2285
			t2286 := i_i
			if t2286 < 0 || t2286 >= d_A[0] {
				return m.OOB(t2286, d_A[0], 0, "A", 7, 11)
			}
			t2287 := i_j
			if t2287 < 0 || t2287 >= d_A[1] {
				return m.OOB(t2287, d_A[1], 1, "A", 7, 11)
			}
			t2288 := b_A + int((t2286)*d_A[1]+t2287)
			m.StoreF(t2288, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t2289 := p_n - int64(3)
		for i_j := int64(2); i_j <= t2289; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2290 := i_i - int64(1)
			t2291 := t2290
			if t2291 < 0 || t2291 >= d_A[0] {
				return m.OOB(t2291, d_A[0], 0, "A", 7, 22)
			}
			t2292 := i_j - int64(1)
			t2293 := t2292
			if t2293 < 0 || t2293 >= d_A[1] {
				return m.OOB(t2293, d_A[1], 1, "A", 7, 22)
			}
			t2294 := b_A + int((t2291)*d_A[1]+t2293)
			r_A_r := m.LoadF(t2294)
			t2295 := i_i - int64(1)
			t2296 := t2295
			if t2296 < 0 || t2296 >= d_A[0] {
				return m.OOB(t2296, d_A[0], 0, "A", 7, 40)
			}
			t2297 := i_j
			if t2297 < 0 || t2297 >= d_A[1] {
				return m.OOB(t2297, d_A[1], 1, "A", 7, 40)
			}
			t2298 := b_A + int((t2296)*d_A[1]+t2297)
			r_A_r2 := m.LoadF(t2298)
			t2299 := i_i - int64(1)
			t2300 := t2299
			if t2300 < 0 || t2300 >= d_A[0] {
				return m.OOB(t2300, d_A[0], 0, "A", 7, 54)
			}
			t2301 := i_j + int64(1)
			t2302 := t2301
			if t2302 < 0 || t2302 >= d_A[1] {
				return m.OOB(t2302, d_A[1], 1, "A", 7, 54)
			}
			t2303 := b_A + int((t2300)*d_A[1]+t2302)
			r_A_r3 := m.LoadF(t2303)
			t2304 := i_i
			if t2304 < 0 || t2304 >= d_A[0] {
				return m.OOB(t2304, d_A[0], 0, "A", 7, 72)
			}
			t2305 := i_j - int64(1)
			t2306 := t2305
			if t2306 < 0 || t2306 >= d_A[1] {
				return m.OOB(t2306, d_A[1], 1, "A", 7, 72)
			}
			t2307 := b_A + int((t2304)*d_A[1]+t2306)
			r_A_r4 := m.LoadF(t2307)
			t2308 := i_i
			if t2308 < 0 || t2308 >= d_A[0] {
				return m.OOB(t2308, d_A[0], 0, "A", 7, 86)
			}
			t2309 := i_j
			if t2309 < 0 || t2309 >= d_A[1] {
				return m.OOB(t2309, d_A[1], 1, "A", 7, 86)
			}
			t2310 := b_A + int((t2308)*d_A[1]+t2309)
			r_A_r5 := m.LoadF(t2310)
			t2311 := i_i
			if t2311 < 0 || t2311 >= d_A[0] {
				return m.OOB(t2311, d_A[0], 0, "A", 7, 96)
			}
			t2312 := i_j + int64(1)
			t2313 := t2312
			if t2313 < 0 || t2313 >= d_A[1] {
				return m.OOB(t2313, d_A[1], 1, "A", 7, 96)
			}
			t2314 := b_A + int((t2311)*d_A[1]+t2313)
			r_A_r6 := m.LoadF(t2314)
			t2315 := i_i + int64(1)
			t2316 := t2315
			if t2316 < 0 || t2316 >= d_A[0] {
				return m.OOB(t2316, d_A[0], 0, "A", 7, 110)
			}
			t2317 := i_j - int64(1)
			t2318 := t2317
			if t2318 < 0 || t2318 >= d_A[1] {
				return m.OOB(t2318, d_A[1], 1, "A", 7, 110)
			}
			t2319 := b_A + int((t2316)*d_A[1]+t2318)
			r_A_r7 := m.LoadF(t2319)
			t2320 := i_i + int64(1)
			t2321 := t2320
			if t2321 < 0 || t2321 >= d_A[0] {
				return m.OOB(t2321, d_A[0], 0, "A", 7, 128)
			}
			t2322 := i_j
			if t2322 < 0 || t2322 >= d_A[1] {
				return m.OOB(t2322, d_A[1], 1, "A", 7, 128)
			}
			t2323 := b_A + int((t2321)*d_A[1]+t2322)
			r_A_r8 := m.LoadF(t2323)
			t2324 := i_i + int64(1)
			t2325 := t2324
			if t2325 < 0 || t2325 >= d_A[0] {
				return m.OOB(t2325, d_A[0], 0, "A", 7, 142)
			}
			t2326 := i_j + int64(1)
			t2327 := t2326
			if t2327 < 0 || t2327 >= d_A[1] {
				return m.OOB(t2327, d_A[1], 1, "A", 7, 142)
			}
			t2328 := b_A + int((t2325)*d_A[1]+t2327)
			r_A_r9 := m.LoadF(t2328)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2329 := float64(r_A_r + r_A_r2)
			t2330 := float64(t2329 + r_A_r3)
			t2331 := float64(t2330 + r_A_r4)
			t2332 := float64(t2331 + r_A_r5)
			t2333 := float64(t2332 + r_A_r6)
			t2334 := float64(t2333 + r_A_r7)
			t2335 := float64(t2334 + r_A_r8)
			t2336 := float64(t2335 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2337 := float64(t2336 / float64(9))
			r_A_w := t2337
			t2338 := i_i
			if t2338 < 0 || t2338 >= d_A[0] {
				return m.OOB(t2338, d_A[0], 0, "A", 7, 11)
			}
			t2339 := i_j
			if t2339 < 0 || t2339 >= d_A[1] {
				return m.OOB(t2339, d_A[1], 1, "A", 7, 11)
			}
			t2340 := b_A + int((t2338)*d_A[1]+t2339)
			m.StoreF(t2340, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t2341 := p_n - int64(2)
		t2342 := codegen.MaxI(int64(1), t2341)
		t2343 := p_n - int64(2)
		for i_j := t2342; i_j <= t2343; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2344 := i_i - int64(1)
			t2345 := t2344
			if t2345 < 0 || t2345 >= d_A[0] {
				return m.OOB(t2345, d_A[0], 0, "A", 7, 22)
			}
			t2346 := i_j - int64(1)
			t2347 := t2346
			if t2347 < 0 || t2347 >= d_A[1] {
				return m.OOB(t2347, d_A[1], 1, "A", 7, 22)
			}
			t2348 := b_A + int((t2345)*d_A[1]+t2347)
			r_A_r := m.LoadF(t2348)
			t2349 := i_i - int64(1)
			t2350 := t2349
			if t2350 < 0 || t2350 >= d_A[0] {
				return m.OOB(t2350, d_A[0], 0, "A", 7, 40)
			}
			t2351 := i_j
			if t2351 < 0 || t2351 >= d_A[1] {
				return m.OOB(t2351, d_A[1], 1, "A", 7, 40)
			}
			t2352 := b_A + int((t2350)*d_A[1]+t2351)
			r_A_r2 := m.LoadF(t2352)
			t2353 := i_i - int64(1)
			t2354 := t2353
			if t2354 < 0 || t2354 >= d_A[0] {
				return m.OOB(t2354, d_A[0], 0, "A", 7, 54)
			}
			t2355 := i_j + int64(1)
			t2356 := t2355
			if t2356 < 0 || t2356 >= d_A[1] {
				return m.OOB(t2356, d_A[1], 1, "A", 7, 54)
			}
			t2357 := b_A + int((t2354)*d_A[1]+t2356)
			r_A_r3 := m.LoadF(t2357)
			t2358 := i_i
			if t2358 < 0 || t2358 >= d_A[0] {
				return m.OOB(t2358, d_A[0], 0, "A", 7, 72)
			}
			t2359 := i_j - int64(1)
			t2360 := t2359
			if t2360 < 0 || t2360 >= d_A[1] {
				return m.OOB(t2360, d_A[1], 1, "A", 7, 72)
			}
			t2361 := b_A + int((t2358)*d_A[1]+t2360)
			r_A_r4 := m.LoadF(t2361)
			t2362 := i_i
			if t2362 < 0 || t2362 >= d_A[0] {
				return m.OOB(t2362, d_A[0], 0, "A", 7, 86)
			}
			t2363 := i_j
			if t2363 < 0 || t2363 >= d_A[1] {
				return m.OOB(t2363, d_A[1], 1, "A", 7, 86)
			}
			t2364 := b_A + int((t2362)*d_A[1]+t2363)
			r_A_r5 := m.LoadF(t2364)
			t2365 := i_i
			if t2365 < 0 || t2365 >= d_A[0] {
				return m.OOB(t2365, d_A[0], 0, "A", 7, 96)
			}
			t2366 := i_j + int64(1)
			t2367 := t2366
			if t2367 < 0 || t2367 >= d_A[1] {
				return m.OOB(t2367, d_A[1], 1, "A", 7, 96)
			}
			t2368 := b_A + int((t2365)*d_A[1]+t2367)
			r_A_r6 := m.LoadF(t2368)
			t2369 := i_i + int64(1)
			t2370 := t2369
			if t2370 < 0 || t2370 >= d_A[0] {
				return m.OOB(t2370, d_A[0], 0, "A", 7, 110)
			}
			t2371 := i_j - int64(1)
			t2372 := t2371
			if t2372 < 0 || t2372 >= d_A[1] {
				return m.OOB(t2372, d_A[1], 1, "A", 7, 110)
			}
			t2373 := b_A + int((t2370)*d_A[1]+t2372)
			r_A_r7 := m.LoadF(t2373)
			t2374 := i_i + int64(1)
			t2375 := t2374
			if t2375 < 0 || t2375 >= d_A[0] {
				return m.OOB(t2375, d_A[0], 0, "A", 7, 128)
			}
			t2376 := i_j
			if t2376 < 0 || t2376 >= d_A[1] {
				return m.OOB(t2376, d_A[1], 1, "A", 7, 128)
			}
			t2377 := b_A + int((t2375)*d_A[1]+t2376)
			r_A_r8 := m.LoadF(t2377)
			t2378 := i_i + int64(1)
			t2379 := t2378
			if t2379 < 0 || t2379 >= d_A[0] {
				return m.OOB(t2379, d_A[0], 0, "A", 7, 142)
			}
			t2380 := i_j + int64(1)
			t2381 := t2380
			if t2381 < 0 || t2381 >= d_A[1] {
				return m.OOB(t2381, d_A[1], 1, "A", 7, 142)
			}
			t2382 := b_A + int((t2379)*d_A[1]+t2381)
			r_A_r9 := m.LoadF(t2382)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2383 := float64(r_A_r + r_A_r2)
			t2384 := float64(t2383 + r_A_r3)
			t2385 := float64(t2384 + r_A_r4)
			t2386 := float64(t2385 + r_A_r5)
			t2387 := float64(t2386 + r_A_r6)
			t2388 := float64(t2387 + r_A_r7)
			t2389 := float64(t2388 + r_A_r8)
			t2390 := float64(t2389 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2391 := float64(t2390 / float64(9))
			r_A_w := t2391
			t2392 := i_i
			if t2392 < 0 || t2392 >= d_A[0] {
				return m.OOB(t2392, d_A[0], 0, "A", 7, 11)
			}
			t2393 := i_j
			if t2393 < 0 || t2393 >= d_A[1] {
				return m.OOB(t2393, d_A[1], 1, "A", 7, 11)
			}
			t2394 := b_A + int((t2392)*d_A[1]+t2393)
			m.StoreF(t2394, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n20(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t2451 := p_n - int64(2)
	t2452 := codegen.MaxI(int64(2), t2451)
	t2453 := p_n - int64(2)
	for i_i := t2452; i_i <= t2453; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2454 := p_n - int64(3)
		t2455 := codegen.MinI(t2454, int64(1))
		for i_j := int64(1); i_j <= t2455; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2456 := i_i - int64(1)
			t2457 := t2456
			if t2457 < 0 || t2457 >= d_A[0] {
				return m.OOB(t2457, d_A[0], 0, "A", 7, 22)
			}
			t2458 := i_j - int64(1)
			t2459 := t2458
			if t2459 < 0 || t2459 >= d_A[1] {
				return m.OOB(t2459, d_A[1], 1, "A", 7, 22)
			}
			t2460 := b_A + int((t2457)*d_A[1]+t2459)
			r_A_r := m.LoadF(t2460)
			t2461 := i_i - int64(1)
			t2462 := t2461
			if t2462 < 0 || t2462 >= d_A[0] {
				return m.OOB(t2462, d_A[0], 0, "A", 7, 40)
			}
			t2463 := i_j
			if t2463 < 0 || t2463 >= d_A[1] {
				return m.OOB(t2463, d_A[1], 1, "A", 7, 40)
			}
			t2464 := b_A + int((t2462)*d_A[1]+t2463)
			r_A_r2 := m.LoadF(t2464)
			t2465 := i_i - int64(1)
			t2466 := t2465
			if t2466 < 0 || t2466 >= d_A[0] {
				return m.OOB(t2466, d_A[0], 0, "A", 7, 54)
			}
			t2467 := i_j + int64(1)
			t2468 := t2467
			if t2468 < 0 || t2468 >= d_A[1] {
				return m.OOB(t2468, d_A[1], 1, "A", 7, 54)
			}
			t2469 := b_A + int((t2466)*d_A[1]+t2468)
			r_A_r3 := m.LoadF(t2469)
			t2470 := i_i
			if t2470 < 0 || t2470 >= d_A[0] {
				return m.OOB(t2470, d_A[0], 0, "A", 7, 72)
			}
			t2471 := i_j - int64(1)
			t2472 := t2471
			if t2472 < 0 || t2472 >= d_A[1] {
				return m.OOB(t2472, d_A[1], 1, "A", 7, 72)
			}
			t2473 := b_A + int((t2470)*d_A[1]+t2472)
			r_A_r4 := m.LoadF(t2473)
			t2474 := i_i
			if t2474 < 0 || t2474 >= d_A[0] {
				return m.OOB(t2474, d_A[0], 0, "A", 7, 86)
			}
			t2475 := i_j
			if t2475 < 0 || t2475 >= d_A[1] {
				return m.OOB(t2475, d_A[1], 1, "A", 7, 86)
			}
			t2476 := b_A + int((t2474)*d_A[1]+t2475)
			r_A_r5 := m.LoadF(t2476)
			t2477 := i_i
			if t2477 < 0 || t2477 >= d_A[0] {
				return m.OOB(t2477, d_A[0], 0, "A", 7, 96)
			}
			t2478 := i_j + int64(1)
			t2479 := t2478
			if t2479 < 0 || t2479 >= d_A[1] {
				return m.OOB(t2479, d_A[1], 1, "A", 7, 96)
			}
			t2480 := b_A + int((t2477)*d_A[1]+t2479)
			r_A_r6 := m.LoadF(t2480)
			t2481 := i_i + int64(1)
			t2482 := t2481
			if t2482 < 0 || t2482 >= d_A[0] {
				return m.OOB(t2482, d_A[0], 0, "A", 7, 110)
			}
			t2483 := i_j - int64(1)
			t2484 := t2483
			if t2484 < 0 || t2484 >= d_A[1] {
				return m.OOB(t2484, d_A[1], 1, "A", 7, 110)
			}
			t2485 := b_A + int((t2482)*d_A[1]+t2484)
			r_A_r7 := m.LoadF(t2485)
			t2486 := i_i + int64(1)
			t2487 := t2486
			if t2487 < 0 || t2487 >= d_A[0] {
				return m.OOB(t2487, d_A[0], 0, "A", 7, 128)
			}
			t2488 := i_j
			if t2488 < 0 || t2488 >= d_A[1] {
				return m.OOB(t2488, d_A[1], 1, "A", 7, 128)
			}
			t2489 := b_A + int((t2487)*d_A[1]+t2488)
			r_A_r8 := m.LoadF(t2489)
			t2490 := i_i + int64(1)
			t2491 := t2490
			if t2491 < 0 || t2491 >= d_A[0] {
				return m.OOB(t2491, d_A[0], 0, "A", 7, 142)
			}
			t2492 := i_j + int64(1)
			t2493 := t2492
			if t2493 < 0 || t2493 >= d_A[1] {
				return m.OOB(t2493, d_A[1], 1, "A", 7, 142)
			}
			t2494 := b_A + int((t2491)*d_A[1]+t2493)
			r_A_r9 := m.LoadF(t2494)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2495 := float64(r_A_r + r_A_r2)
			t2496 := float64(t2495 + r_A_r3)
			t2497 := float64(t2496 + r_A_r4)
			t2498 := float64(t2497 + r_A_r5)
			t2499 := float64(t2498 + r_A_r6)
			t2500 := float64(t2499 + r_A_r7)
			t2501 := float64(t2500 + r_A_r8)
			t2502 := float64(t2501 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2503 := float64(t2502 / float64(9))
			r_A_w := t2503
			t2504 := i_i
			if t2504 < 0 || t2504 >= d_A[0] {
				return m.OOB(t2504, d_A[0], 0, "A", 7, 11)
			}
			t2505 := i_j
			if t2505 < 0 || t2505 >= d_A[1] {
				return m.OOB(t2505, d_A[1], 1, "A", 7, 11)
			}
			t2506 := b_A + int((t2504)*d_A[1]+t2505)
			m.StoreF(t2506, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t2507 := p_n - int64(3)
		for i_j := int64(2); i_j <= t2507; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2508 := i_i - int64(1)
			t2509 := t2508
			if t2509 < 0 || t2509 >= d_A[0] {
				return m.OOB(t2509, d_A[0], 0, "A", 7, 22)
			}
			t2510 := i_j - int64(1)
			t2511 := t2510
			if t2511 < 0 || t2511 >= d_A[1] {
				return m.OOB(t2511, d_A[1], 1, "A", 7, 22)
			}
			t2512 := b_A + int((t2509)*d_A[1]+t2511)
			r_A_r := m.LoadF(t2512)
			t2513 := i_i - int64(1)
			t2514 := t2513
			if t2514 < 0 || t2514 >= d_A[0] {
				return m.OOB(t2514, d_A[0], 0, "A", 7, 40)
			}
			t2515 := i_j
			if t2515 < 0 || t2515 >= d_A[1] {
				return m.OOB(t2515, d_A[1], 1, "A", 7, 40)
			}
			t2516 := b_A + int((t2514)*d_A[1]+t2515)
			r_A_r2 := m.LoadF(t2516)
			t2517 := i_i - int64(1)
			t2518 := t2517
			if t2518 < 0 || t2518 >= d_A[0] {
				return m.OOB(t2518, d_A[0], 0, "A", 7, 54)
			}
			t2519 := i_j + int64(1)
			t2520 := t2519
			if t2520 < 0 || t2520 >= d_A[1] {
				return m.OOB(t2520, d_A[1], 1, "A", 7, 54)
			}
			t2521 := b_A + int((t2518)*d_A[1]+t2520)
			r_A_r3 := m.LoadF(t2521)
			t2522 := i_i
			if t2522 < 0 || t2522 >= d_A[0] {
				return m.OOB(t2522, d_A[0], 0, "A", 7, 72)
			}
			t2523 := i_j - int64(1)
			t2524 := t2523
			if t2524 < 0 || t2524 >= d_A[1] {
				return m.OOB(t2524, d_A[1], 1, "A", 7, 72)
			}
			t2525 := b_A + int((t2522)*d_A[1]+t2524)
			r_A_r4 := m.LoadF(t2525)
			t2526 := i_i
			if t2526 < 0 || t2526 >= d_A[0] {
				return m.OOB(t2526, d_A[0], 0, "A", 7, 86)
			}
			t2527 := i_j
			if t2527 < 0 || t2527 >= d_A[1] {
				return m.OOB(t2527, d_A[1], 1, "A", 7, 86)
			}
			t2528 := b_A + int((t2526)*d_A[1]+t2527)
			r_A_r5 := m.LoadF(t2528)
			t2529 := i_i
			if t2529 < 0 || t2529 >= d_A[0] {
				return m.OOB(t2529, d_A[0], 0, "A", 7, 96)
			}
			t2530 := i_j + int64(1)
			t2531 := t2530
			if t2531 < 0 || t2531 >= d_A[1] {
				return m.OOB(t2531, d_A[1], 1, "A", 7, 96)
			}
			t2532 := b_A + int((t2529)*d_A[1]+t2531)
			r_A_r6 := m.LoadF(t2532)
			t2533 := i_i + int64(1)
			t2534 := t2533
			if t2534 < 0 || t2534 >= d_A[0] {
				return m.OOB(t2534, d_A[0], 0, "A", 7, 110)
			}
			t2535 := i_j - int64(1)
			t2536 := t2535
			if t2536 < 0 || t2536 >= d_A[1] {
				return m.OOB(t2536, d_A[1], 1, "A", 7, 110)
			}
			t2537 := b_A + int((t2534)*d_A[1]+t2536)
			r_A_r7 := m.LoadF(t2537)
			t2538 := i_i + int64(1)
			t2539 := t2538
			if t2539 < 0 || t2539 >= d_A[0] {
				return m.OOB(t2539, d_A[0], 0, "A", 7, 128)
			}
			t2540 := i_j
			if t2540 < 0 || t2540 >= d_A[1] {
				return m.OOB(t2540, d_A[1], 1, "A", 7, 128)
			}
			t2541 := b_A + int((t2539)*d_A[1]+t2540)
			r_A_r8 := m.LoadF(t2541)
			t2542 := i_i + int64(1)
			t2543 := t2542
			if t2543 < 0 || t2543 >= d_A[0] {
				return m.OOB(t2543, d_A[0], 0, "A", 7, 142)
			}
			t2544 := i_j + int64(1)
			t2545 := t2544
			if t2545 < 0 || t2545 >= d_A[1] {
				return m.OOB(t2545, d_A[1], 1, "A", 7, 142)
			}
			t2546 := b_A + int((t2543)*d_A[1]+t2545)
			r_A_r9 := m.LoadF(t2546)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2547 := float64(r_A_r + r_A_r2)
			t2548 := float64(t2547 + r_A_r3)
			t2549 := float64(t2548 + r_A_r4)
			t2550 := float64(t2549 + r_A_r5)
			t2551 := float64(t2550 + r_A_r6)
			t2552 := float64(t2551 + r_A_r7)
			t2553 := float64(t2552 + r_A_r8)
			t2554 := float64(t2553 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2555 := float64(t2554 / float64(9))
			r_A_w := t2555
			t2556 := i_i
			if t2556 < 0 || t2556 >= d_A[0] {
				return m.OOB(t2556, d_A[0], 0, "A", 7, 11)
			}
			t2557 := i_j
			if t2557 < 0 || t2557 >= d_A[1] {
				return m.OOB(t2557, d_A[1], 1, "A", 7, 11)
			}
			t2558 := b_A + int((t2556)*d_A[1]+t2557)
			m.StoreF(t2558, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t2559 := p_n - int64(2)
		t2560 := codegen.MaxI(int64(1), t2559)
		t2561 := p_n - int64(2)
		for i_j := t2560; i_j <= t2561; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2562 := i_i - int64(1)
			t2563 := t2562
			if t2563 < 0 || t2563 >= d_A[0] {
				return m.OOB(t2563, d_A[0], 0, "A", 7, 22)
			}
			t2564 := i_j - int64(1)
			t2565 := t2564
			if t2565 < 0 || t2565 >= d_A[1] {
				return m.OOB(t2565, d_A[1], 1, "A", 7, 22)
			}
			t2566 := b_A + int((t2563)*d_A[1]+t2565)
			r_A_r := m.LoadF(t2566)
			t2567 := i_i - int64(1)
			t2568 := t2567
			if t2568 < 0 || t2568 >= d_A[0] {
				return m.OOB(t2568, d_A[0], 0, "A", 7, 40)
			}
			t2569 := i_j
			if t2569 < 0 || t2569 >= d_A[1] {
				return m.OOB(t2569, d_A[1], 1, "A", 7, 40)
			}
			t2570 := b_A + int((t2568)*d_A[1]+t2569)
			r_A_r2 := m.LoadF(t2570)
			t2571 := i_i - int64(1)
			t2572 := t2571
			if t2572 < 0 || t2572 >= d_A[0] {
				return m.OOB(t2572, d_A[0], 0, "A", 7, 54)
			}
			t2573 := i_j + int64(1)
			t2574 := t2573
			if t2574 < 0 || t2574 >= d_A[1] {
				return m.OOB(t2574, d_A[1], 1, "A", 7, 54)
			}
			t2575 := b_A + int((t2572)*d_A[1]+t2574)
			r_A_r3 := m.LoadF(t2575)
			t2576 := i_i
			if t2576 < 0 || t2576 >= d_A[0] {
				return m.OOB(t2576, d_A[0], 0, "A", 7, 72)
			}
			t2577 := i_j - int64(1)
			t2578 := t2577
			if t2578 < 0 || t2578 >= d_A[1] {
				return m.OOB(t2578, d_A[1], 1, "A", 7, 72)
			}
			t2579 := b_A + int((t2576)*d_A[1]+t2578)
			r_A_r4 := m.LoadF(t2579)
			t2580 := i_i
			if t2580 < 0 || t2580 >= d_A[0] {
				return m.OOB(t2580, d_A[0], 0, "A", 7, 86)
			}
			t2581 := i_j
			if t2581 < 0 || t2581 >= d_A[1] {
				return m.OOB(t2581, d_A[1], 1, "A", 7, 86)
			}
			t2582 := b_A + int((t2580)*d_A[1]+t2581)
			r_A_r5 := m.LoadF(t2582)
			t2583 := i_i
			if t2583 < 0 || t2583 >= d_A[0] {
				return m.OOB(t2583, d_A[0], 0, "A", 7, 96)
			}
			t2584 := i_j + int64(1)
			t2585 := t2584
			if t2585 < 0 || t2585 >= d_A[1] {
				return m.OOB(t2585, d_A[1], 1, "A", 7, 96)
			}
			t2586 := b_A + int((t2583)*d_A[1]+t2585)
			r_A_r6 := m.LoadF(t2586)
			t2587 := i_i + int64(1)
			t2588 := t2587
			if t2588 < 0 || t2588 >= d_A[0] {
				return m.OOB(t2588, d_A[0], 0, "A", 7, 110)
			}
			t2589 := i_j - int64(1)
			t2590 := t2589
			if t2590 < 0 || t2590 >= d_A[1] {
				return m.OOB(t2590, d_A[1], 1, "A", 7, 110)
			}
			t2591 := b_A + int((t2588)*d_A[1]+t2590)
			r_A_r7 := m.LoadF(t2591)
			t2592 := i_i + int64(1)
			t2593 := t2592
			if t2593 < 0 || t2593 >= d_A[0] {
				return m.OOB(t2593, d_A[0], 0, "A", 7, 128)
			}
			t2594 := i_j
			if t2594 < 0 || t2594 >= d_A[1] {
				return m.OOB(t2594, d_A[1], 1, "A", 7, 128)
			}
			t2595 := b_A + int((t2593)*d_A[1]+t2594)
			r_A_r8 := m.LoadF(t2595)
			t2596 := i_i + int64(1)
			t2597 := t2596
			if t2597 < 0 || t2597 >= d_A[0] {
				return m.OOB(t2597, d_A[0], 0, "A", 7, 142)
			}
			t2598 := i_j + int64(1)
			t2599 := t2598
			if t2599 < 0 || t2599 >= d_A[1] {
				return m.OOB(t2599, d_A[1], 1, "A", 7, 142)
			}
			t2600 := b_A + int((t2597)*d_A[1]+t2599)
			r_A_r9 := m.LoadF(t2600)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2601 := float64(r_A_r + r_A_r2)
			t2602 := float64(t2601 + r_A_r3)
			t2603 := float64(t2602 + r_A_r4)
			t2604 := float64(t2603 + r_A_r5)
			t2605 := float64(t2604 + r_A_r6)
			t2606 := float64(t2605 + r_A_r7)
			t2607 := float64(t2606 + r_A_r8)
			t2608 := float64(t2607 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2609 := float64(t2608 / float64(9))
			r_A_w := t2609
			t2610 := i_i
			if t2610 < 0 || t2610 >= d_A[0] {
				return m.OOB(t2610, d_A[0], 0, "A", 7, 11)
			}
			t2611 := i_j
			if t2611 < 0 || t2611 >= d_A[1] {
				return m.OOB(t2611, d_A[1], 1, "A", 7, 11)
			}
			t2612 := b_A + int((t2610)*d_A[1]+t2611)
			m.StoreF(t2612, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}

func run_seidel_resilientopt_n21(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t2613 := p_tsteps - int64(2)
	t2614 := codegen.MaxI(int64(1), t2613)
	t2615 := p_tsteps - int64(2)
	for i_t := t2614; i_t <= t2615; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n22(m, cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n23(m, cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
			return err
		}
		t2988 := p_n - int64(2)
		t2989 := codegen.MaxI(int64(1), t2988)
		t2990 := p_n - int64(2)
		t2991 := codegen.MinI(t2990, int64(1))
		for i_i := t2989; i_i <= t2991; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2992 := p_n - int64(2)
			for i_j := int64(1); i_j <= t2992; i_j++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t2993 := i_i - int64(1)
				t2994 := t2993
				if t2994 < 0 || t2994 >= d_A[0] {
					return m.OOB(t2994, d_A[0], 0, "A", 7, 22)
				}
				t2995 := i_j - int64(1)
				t2996 := t2995
				if t2996 < 0 || t2996 >= d_A[1] {
					return m.OOB(t2996, d_A[1], 1, "A", 7, 22)
				}
				t2997 := b_A + int((t2994)*d_A[1]+t2996)
				r_A_r := m.LoadF(t2997)
				t2998 := i_i - int64(1)
				t2999 := t2998
				if t2999 < 0 || t2999 >= d_A[0] {
					return m.OOB(t2999, d_A[0], 0, "A", 7, 40)
				}
				t3000 := i_j
				if t3000 < 0 || t3000 >= d_A[1] {
					return m.OOB(t3000, d_A[1], 1, "A", 7, 40)
				}
				t3001 := b_A + int((t2999)*d_A[1]+t3000)
				r_A_r2 := m.LoadF(t3001)
				t3002 := i_i - int64(1)
				t3003 := t3002
				if t3003 < 0 || t3003 >= d_A[0] {
					return m.OOB(t3003, d_A[0], 0, "A", 7, 54)
				}
				t3004 := i_j + int64(1)
				t3005 := t3004
				if t3005 < 0 || t3005 >= d_A[1] {
					return m.OOB(t3005, d_A[1], 1, "A", 7, 54)
				}
				t3006 := b_A + int((t3003)*d_A[1]+t3005)
				r_A_r3 := m.LoadF(t3006)
				t3007 := i_i
				if t3007 < 0 || t3007 >= d_A[0] {
					return m.OOB(t3007, d_A[0], 0, "A", 7, 72)
				}
				t3008 := i_j - int64(1)
				t3009 := t3008
				if t3009 < 0 || t3009 >= d_A[1] {
					return m.OOB(t3009, d_A[1], 1, "A", 7, 72)
				}
				t3010 := b_A + int((t3007)*d_A[1]+t3009)
				r_A_r4 := m.LoadF(t3010)
				t3011 := i_i
				if t3011 < 0 || t3011 >= d_A[0] {
					return m.OOB(t3011, d_A[0], 0, "A", 7, 86)
				}
				t3012 := i_j
				if t3012 < 0 || t3012 >= d_A[1] {
					return m.OOB(t3012, d_A[1], 1, "A", 7, 86)
				}
				t3013 := b_A + int((t3011)*d_A[1]+t3012)
				r_A_r5 := m.LoadF(t3013)
				t3014 := i_i
				if t3014 < 0 || t3014 >= d_A[0] {
					return m.OOB(t3014, d_A[0], 0, "A", 7, 96)
				}
				t3015 := i_j + int64(1)
				t3016 := t3015
				if t3016 < 0 || t3016 >= d_A[1] {
					return m.OOB(t3016, d_A[1], 1, "A", 7, 96)
				}
				t3017 := b_A + int((t3014)*d_A[1]+t3016)
				r_A_r6 := m.LoadF(t3017)
				t3018 := i_i + int64(1)
				t3019 := t3018
				if t3019 < 0 || t3019 >= d_A[0] {
					return m.OOB(t3019, d_A[0], 0, "A", 7, 110)
				}
				t3020 := i_j - int64(1)
				t3021 := t3020
				if t3021 < 0 || t3021 >= d_A[1] {
					return m.OOB(t3021, d_A[1], 1, "A", 7, 110)
				}
				t3022 := b_A + int((t3019)*d_A[1]+t3021)
				r_A_r7 := m.LoadF(t3022)
				t3023 := i_i + int64(1)
				t3024 := t3023
				if t3024 < 0 || t3024 >= d_A[0] {
					return m.OOB(t3024, d_A[0], 0, "A", 7, 128)
				}
				t3025 := i_j
				if t3025 < 0 || t3025 >= d_A[1] {
					return m.OOB(t3025, d_A[1], 1, "A", 7, 128)
				}
				t3026 := b_A + int((t3024)*d_A[1]+t3025)
				r_A_r8 := m.LoadF(t3026)
				t3027 := i_i + int64(1)
				t3028 := t3027
				if t3028 < 0 || t3028 >= d_A[0] {
					return m.OOB(t3028, d_A[0], 0, "A", 7, 142)
				}
				t3029 := i_j + int64(1)
				t3030 := t3029
				if t3030 < 0 || t3030 >= d_A[1] {
					return m.OOB(t3030, d_A[1], 1, "A", 7, 142)
				}
				t3031 := b_A + int((t3028)*d_A[1]+t3030)
				r_A_r9 := m.LoadF(t3031)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t3032 := float64(r_A_r + r_A_r2)
				t3033 := float64(t3032 + r_A_r3)
				t3034 := float64(t3033 + r_A_r4)
				t3035 := float64(t3034 + r_A_r5)
				t3036 := float64(t3035 + r_A_r6)
				t3037 := float64(t3036 + r_A_r7)
				t3038 := float64(t3037 + r_A_r8)
				t3039 := float64(t3038 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t3040 := float64(t3039 / float64(9))
				r_A_w := t3040
				t3041 := i_i
				if t3041 < 0 || t3041 >= d_A[0] {
					return m.OOB(t3041, d_A[0], 0, "A", 7, 11)
				}
				t3042 := i_j
				if t3042 < 0 || t3042 >= d_A[1] {
					return m.OOB(t3042, d_A[1], 1, "A", 7, 11)
				}
				t3043 := b_A + int((t3041)*d_A[1]+t3042)
				m.StoreF(t3043, r_A_w)
				t3044 := -i_t
				t3045 := t3044 + p_tsteps
				t3046 := t3045 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3046)
			}
		}
		if err := run_seidel_resilientopt_n24(m, cs, p_tsteps, p_n, b_A, d_A, i_t); err != nil {
			return err
		}
	}
	return nil
}

func run_seidel_resilientopt_n22(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t2616 := p_n - int64(3)
	t2617 := codegen.MinI(t2616, int64(1))
	for i_i := int64(1); i_i <= t2617; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2618 := p_n - int64(3)
		t2619 := codegen.MinI(t2618, int64(1))
		for i_j := int64(1); i_j <= t2619; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2620 := i_i - int64(1)
			t2621 := t2620
			if t2621 < 0 || t2621 >= d_A[0] {
				return m.OOB(t2621, d_A[0], 0, "A", 7, 22)
			}
			t2622 := i_j - int64(1)
			t2623 := t2622
			if t2623 < 0 || t2623 >= d_A[1] {
				return m.OOB(t2623, d_A[1], 1, "A", 7, 22)
			}
			t2624 := b_A + int((t2621)*d_A[1]+t2623)
			r_A_r := m.LoadF(t2624)
			t2625 := i_i - int64(1)
			t2626 := t2625
			if t2626 < 0 || t2626 >= d_A[0] {
				return m.OOB(t2626, d_A[0], 0, "A", 7, 40)
			}
			t2627 := i_j
			if t2627 < 0 || t2627 >= d_A[1] {
				return m.OOB(t2627, d_A[1], 1, "A", 7, 40)
			}
			t2628 := b_A + int((t2626)*d_A[1]+t2627)
			r_A_r2 := m.LoadF(t2628)
			t2629 := i_i - int64(1)
			t2630 := t2629
			if t2630 < 0 || t2630 >= d_A[0] {
				return m.OOB(t2630, d_A[0], 0, "A", 7, 54)
			}
			t2631 := i_j + int64(1)
			t2632 := t2631
			if t2632 < 0 || t2632 >= d_A[1] {
				return m.OOB(t2632, d_A[1], 1, "A", 7, 54)
			}
			t2633 := b_A + int((t2630)*d_A[1]+t2632)
			r_A_r3 := m.LoadF(t2633)
			t2634 := i_i
			if t2634 < 0 || t2634 >= d_A[0] {
				return m.OOB(t2634, d_A[0], 0, "A", 7, 72)
			}
			t2635 := i_j - int64(1)
			t2636 := t2635
			if t2636 < 0 || t2636 >= d_A[1] {
				return m.OOB(t2636, d_A[1], 1, "A", 7, 72)
			}
			t2637 := b_A + int((t2634)*d_A[1]+t2636)
			r_A_r4 := m.LoadF(t2637)
			t2638 := i_i
			if t2638 < 0 || t2638 >= d_A[0] {
				return m.OOB(t2638, d_A[0], 0, "A", 7, 86)
			}
			t2639 := i_j
			if t2639 < 0 || t2639 >= d_A[1] {
				return m.OOB(t2639, d_A[1], 1, "A", 7, 86)
			}
			t2640 := b_A + int((t2638)*d_A[1]+t2639)
			r_A_r5 := m.LoadF(t2640)
			t2641 := i_i
			if t2641 < 0 || t2641 >= d_A[0] {
				return m.OOB(t2641, d_A[0], 0, "A", 7, 96)
			}
			t2642 := i_j + int64(1)
			t2643 := t2642
			if t2643 < 0 || t2643 >= d_A[1] {
				return m.OOB(t2643, d_A[1], 1, "A", 7, 96)
			}
			t2644 := b_A + int((t2641)*d_A[1]+t2643)
			r_A_r6 := m.LoadF(t2644)
			t2645 := i_i + int64(1)
			t2646 := t2645
			if t2646 < 0 || t2646 >= d_A[0] {
				return m.OOB(t2646, d_A[0], 0, "A", 7, 110)
			}
			t2647 := i_j - int64(1)
			t2648 := t2647
			if t2648 < 0 || t2648 >= d_A[1] {
				return m.OOB(t2648, d_A[1], 1, "A", 7, 110)
			}
			t2649 := b_A + int((t2646)*d_A[1]+t2648)
			r_A_r7 := m.LoadF(t2649)
			t2650 := i_i + int64(1)
			t2651 := t2650
			if t2651 < 0 || t2651 >= d_A[0] {
				return m.OOB(t2651, d_A[0], 0, "A", 7, 128)
			}
			t2652 := i_j
			if t2652 < 0 || t2652 >= d_A[1] {
				return m.OOB(t2652, d_A[1], 1, "A", 7, 128)
			}
			t2653 := b_A + int((t2651)*d_A[1]+t2652)
			r_A_r8 := m.LoadF(t2653)
			t2654 := i_i + int64(1)
			t2655 := t2654
			if t2655 < 0 || t2655 >= d_A[0] {
				return m.OOB(t2655, d_A[0], 0, "A", 7, 142)
			}
			t2656 := i_j + int64(1)
			t2657 := t2656
			if t2657 < 0 || t2657 >= d_A[1] {
				return m.OOB(t2657, d_A[1], 1, "A", 7, 142)
			}
			t2658 := b_A + int((t2655)*d_A[1]+t2657)
			r_A_r9 := m.LoadF(t2658)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2659 := float64(r_A_r + r_A_r2)
			t2660 := float64(t2659 + r_A_r3)
			t2661 := float64(t2660 + r_A_r4)
			t2662 := float64(t2661 + r_A_r5)
			t2663 := float64(t2662 + r_A_r6)
			t2664 := float64(t2663 + r_A_r7)
			t2665 := float64(t2664 + r_A_r8)
			t2666 := float64(t2665 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2667 := float64(t2666 / float64(9))
			r_A_w := t2667
			t2668 := i_i
			if t2668 < 0 || t2668 >= d_A[0] {
				return m.OOB(t2668, d_A[0], 0, "A", 7, 11)
			}
			t2669 := i_j
			if t2669 < 0 || t2669 >= d_A[1] {
				return m.OOB(t2669, d_A[1], 1, "A", 7, 11)
			}
			t2670 := b_A + int((t2668)*d_A[1]+t2669)
			m.StoreF(t2670, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t2671 := -i_t
			t2672 := t2671 + p_tsteps
			t2673 := t2672 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2673)
		}
		t2674 := p_n - int64(3)
		for i_j := int64(2); i_j <= t2674; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2675 := i_i - int64(1)
			t2676 := t2675
			if t2676 < 0 || t2676 >= d_A[0] {
				return m.OOB(t2676, d_A[0], 0, "A", 7, 22)
			}
			t2677 := i_j - int64(1)
			t2678 := t2677
			if t2678 < 0 || t2678 >= d_A[1] {
				return m.OOB(t2678, d_A[1], 1, "A", 7, 22)
			}
			t2679 := b_A + int((t2676)*d_A[1]+t2678)
			r_A_r := m.LoadF(t2679)
			t2680 := i_i - int64(1)
			t2681 := t2680
			if t2681 < 0 || t2681 >= d_A[0] {
				return m.OOB(t2681, d_A[0], 0, "A", 7, 40)
			}
			t2682 := i_j
			if t2682 < 0 || t2682 >= d_A[1] {
				return m.OOB(t2682, d_A[1], 1, "A", 7, 40)
			}
			t2683 := b_A + int((t2681)*d_A[1]+t2682)
			r_A_r2 := m.LoadF(t2683)
			t2684 := i_i - int64(1)
			t2685 := t2684
			if t2685 < 0 || t2685 >= d_A[0] {
				return m.OOB(t2685, d_A[0], 0, "A", 7, 54)
			}
			t2686 := i_j + int64(1)
			t2687 := t2686
			if t2687 < 0 || t2687 >= d_A[1] {
				return m.OOB(t2687, d_A[1], 1, "A", 7, 54)
			}
			t2688 := b_A + int((t2685)*d_A[1]+t2687)
			r_A_r3 := m.LoadF(t2688)
			t2689 := i_i
			if t2689 < 0 || t2689 >= d_A[0] {
				return m.OOB(t2689, d_A[0], 0, "A", 7, 72)
			}
			t2690 := i_j - int64(1)
			t2691 := t2690
			if t2691 < 0 || t2691 >= d_A[1] {
				return m.OOB(t2691, d_A[1], 1, "A", 7, 72)
			}
			t2692 := b_A + int((t2689)*d_A[1]+t2691)
			r_A_r4 := m.LoadF(t2692)
			t2693 := i_i
			if t2693 < 0 || t2693 >= d_A[0] {
				return m.OOB(t2693, d_A[0], 0, "A", 7, 86)
			}
			t2694 := i_j
			if t2694 < 0 || t2694 >= d_A[1] {
				return m.OOB(t2694, d_A[1], 1, "A", 7, 86)
			}
			t2695 := b_A + int((t2693)*d_A[1]+t2694)
			r_A_r5 := m.LoadF(t2695)
			t2696 := i_i
			if t2696 < 0 || t2696 >= d_A[0] {
				return m.OOB(t2696, d_A[0], 0, "A", 7, 96)
			}
			t2697 := i_j + int64(1)
			t2698 := t2697
			if t2698 < 0 || t2698 >= d_A[1] {
				return m.OOB(t2698, d_A[1], 1, "A", 7, 96)
			}
			t2699 := b_A + int((t2696)*d_A[1]+t2698)
			r_A_r6 := m.LoadF(t2699)
			t2700 := i_i + int64(1)
			t2701 := t2700
			if t2701 < 0 || t2701 >= d_A[0] {
				return m.OOB(t2701, d_A[0], 0, "A", 7, 110)
			}
			t2702 := i_j - int64(1)
			t2703 := t2702
			if t2703 < 0 || t2703 >= d_A[1] {
				return m.OOB(t2703, d_A[1], 1, "A", 7, 110)
			}
			t2704 := b_A + int((t2701)*d_A[1]+t2703)
			r_A_r7 := m.LoadF(t2704)
			t2705 := i_i + int64(1)
			t2706 := t2705
			if t2706 < 0 || t2706 >= d_A[0] {
				return m.OOB(t2706, d_A[0], 0, "A", 7, 128)
			}
			t2707 := i_j
			if t2707 < 0 || t2707 >= d_A[1] {
				return m.OOB(t2707, d_A[1], 1, "A", 7, 128)
			}
			t2708 := b_A + int((t2706)*d_A[1]+t2707)
			r_A_r8 := m.LoadF(t2708)
			t2709 := i_i + int64(1)
			t2710 := t2709
			if t2710 < 0 || t2710 >= d_A[0] {
				return m.OOB(t2710, d_A[0], 0, "A", 7, 142)
			}
			t2711 := i_j + int64(1)
			t2712 := t2711
			if t2712 < 0 || t2712 >= d_A[1] {
				return m.OOB(t2712, d_A[1], 1, "A", 7, 142)
			}
			t2713 := b_A + int((t2710)*d_A[1]+t2712)
			r_A_r9 := m.LoadF(t2713)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2714 := float64(r_A_r + r_A_r2)
			t2715 := float64(t2714 + r_A_r3)
			t2716 := float64(t2715 + r_A_r4)
			t2717 := float64(t2716 + r_A_r5)
			t2718 := float64(t2717 + r_A_r6)
			t2719 := float64(t2718 + r_A_r7)
			t2720 := float64(t2719 + r_A_r8)
			t2721 := float64(t2720 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2722 := float64(t2721 / float64(9))
			r_A_w := t2722
			t2723 := i_i
			if t2723 < 0 || t2723 >= d_A[0] {
				return m.OOB(t2723, d_A[0], 0, "A", 7, 11)
			}
			t2724 := i_j
			if t2724 < 0 || t2724 >= d_A[1] {
				return m.OOB(t2724, d_A[1], 1, "A", 7, 11)
			}
			t2725 := b_A + int((t2723)*d_A[1]+t2724)
			m.StoreF(t2725, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t2726 := -i_t
			t2727 := t2726 + p_tsteps
			t2728 := t2727 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2728)
			t2729 := -i_t
			t2730 := t2729 + p_tsteps
			t2731 := t2730 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2731)
		}
		t2732 := p_n - int64(2)
		t2733 := codegen.MaxI(int64(1), t2732)
		t2734 := p_n - int64(2)
		for i_j := t2733; i_j <= t2734; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2735 := i_i - int64(1)
			t2736 := t2735
			if t2736 < 0 || t2736 >= d_A[0] {
				return m.OOB(t2736, d_A[0], 0, "A", 7, 22)
			}
			t2737 := i_j - int64(1)
			t2738 := t2737
			if t2738 < 0 || t2738 >= d_A[1] {
				return m.OOB(t2738, d_A[1], 1, "A", 7, 22)
			}
			t2739 := b_A + int((t2736)*d_A[1]+t2738)
			r_A_r := m.LoadF(t2739)
			t2740 := i_i - int64(1)
			t2741 := t2740
			if t2741 < 0 || t2741 >= d_A[0] {
				return m.OOB(t2741, d_A[0], 0, "A", 7, 40)
			}
			t2742 := i_j
			if t2742 < 0 || t2742 >= d_A[1] {
				return m.OOB(t2742, d_A[1], 1, "A", 7, 40)
			}
			t2743 := b_A + int((t2741)*d_A[1]+t2742)
			r_A_r2 := m.LoadF(t2743)
			t2744 := i_i - int64(1)
			t2745 := t2744
			if t2745 < 0 || t2745 >= d_A[0] {
				return m.OOB(t2745, d_A[0], 0, "A", 7, 54)
			}
			t2746 := i_j + int64(1)
			t2747 := t2746
			if t2747 < 0 || t2747 >= d_A[1] {
				return m.OOB(t2747, d_A[1], 1, "A", 7, 54)
			}
			t2748 := b_A + int((t2745)*d_A[1]+t2747)
			r_A_r3 := m.LoadF(t2748)
			t2749 := i_i
			if t2749 < 0 || t2749 >= d_A[0] {
				return m.OOB(t2749, d_A[0], 0, "A", 7, 72)
			}
			t2750 := i_j - int64(1)
			t2751 := t2750
			if t2751 < 0 || t2751 >= d_A[1] {
				return m.OOB(t2751, d_A[1], 1, "A", 7, 72)
			}
			t2752 := b_A + int((t2749)*d_A[1]+t2751)
			r_A_r4 := m.LoadF(t2752)
			t2753 := i_i
			if t2753 < 0 || t2753 >= d_A[0] {
				return m.OOB(t2753, d_A[0], 0, "A", 7, 86)
			}
			t2754 := i_j
			if t2754 < 0 || t2754 >= d_A[1] {
				return m.OOB(t2754, d_A[1], 1, "A", 7, 86)
			}
			t2755 := b_A + int((t2753)*d_A[1]+t2754)
			r_A_r5 := m.LoadF(t2755)
			t2756 := i_i
			if t2756 < 0 || t2756 >= d_A[0] {
				return m.OOB(t2756, d_A[0], 0, "A", 7, 96)
			}
			t2757 := i_j + int64(1)
			t2758 := t2757
			if t2758 < 0 || t2758 >= d_A[1] {
				return m.OOB(t2758, d_A[1], 1, "A", 7, 96)
			}
			t2759 := b_A + int((t2756)*d_A[1]+t2758)
			r_A_r6 := m.LoadF(t2759)
			t2760 := i_i + int64(1)
			t2761 := t2760
			if t2761 < 0 || t2761 >= d_A[0] {
				return m.OOB(t2761, d_A[0], 0, "A", 7, 110)
			}
			t2762 := i_j - int64(1)
			t2763 := t2762
			if t2763 < 0 || t2763 >= d_A[1] {
				return m.OOB(t2763, d_A[1], 1, "A", 7, 110)
			}
			t2764 := b_A + int((t2761)*d_A[1]+t2763)
			r_A_r7 := m.LoadF(t2764)
			t2765 := i_i + int64(1)
			t2766 := t2765
			if t2766 < 0 || t2766 >= d_A[0] {
				return m.OOB(t2766, d_A[0], 0, "A", 7, 128)
			}
			t2767 := i_j
			if t2767 < 0 || t2767 >= d_A[1] {
				return m.OOB(t2767, d_A[1], 1, "A", 7, 128)
			}
			t2768 := b_A + int((t2766)*d_A[1]+t2767)
			r_A_r8 := m.LoadF(t2768)
			t2769 := i_i + int64(1)
			t2770 := t2769
			if t2770 < 0 || t2770 >= d_A[0] {
				return m.OOB(t2770, d_A[0], 0, "A", 7, 142)
			}
			t2771 := i_j + int64(1)
			t2772 := t2771
			if t2772 < 0 || t2772 >= d_A[1] {
				return m.OOB(t2772, d_A[1], 1, "A", 7, 142)
			}
			t2773 := b_A + int((t2770)*d_A[1]+t2772)
			r_A_r9 := m.LoadF(t2773)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2774 := float64(r_A_r + r_A_r2)
			t2775 := float64(t2774 + r_A_r3)
			t2776 := float64(t2775 + r_A_r4)
			t2777 := float64(t2776 + r_A_r5)
			t2778 := float64(t2777 + r_A_r6)
			t2779 := float64(t2778 + r_A_r7)
			t2780 := float64(t2779 + r_A_r8)
			t2781 := float64(t2780 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2782 := float64(t2781 / float64(9))
			r_A_w := t2782
			t2783 := i_i
			if t2783 < 0 || t2783 >= d_A[0] {
				return m.OOB(t2783, d_A[0], 0, "A", 7, 11)
			}
			t2784 := i_j
			if t2784 < 0 || t2784 >= d_A[1] {
				return m.OOB(t2784, d_A[1], 1, "A", 7, 11)
			}
			t2785 := b_A + int((t2783)*d_A[1]+t2784)
			m.StoreF(t2785, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t2786 := -i_t
			t2787 := t2786 + p_tsteps
			t2788 := t2787 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2788)
			t2789 := -i_t
			t2790 := t2789 + p_tsteps
			t2791 := t2790 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2791)
		}
	}
	return nil
}

func run_seidel_resilientopt_n23(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t2792 := p_n - int64(3)
	for i_i := int64(2); i_i <= t2792; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2793 := p_n - int64(3)
		t2794 := codegen.MinI(t2793, int64(1))
		for i_j := int64(1); i_j <= t2794; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2795 := i_i - int64(1)
			t2796 := t2795
			if t2796 < 0 || t2796 >= d_A[0] {
				return m.OOB(t2796, d_A[0], 0, "A", 7, 22)
			}
			t2797 := i_j - int64(1)
			t2798 := t2797
			if t2798 < 0 || t2798 >= d_A[1] {
				return m.OOB(t2798, d_A[1], 1, "A", 7, 22)
			}
			t2799 := b_A + int((t2796)*d_A[1]+t2798)
			r_A_r := m.LoadF(t2799)
			t2800 := i_i - int64(1)
			t2801 := t2800
			if t2801 < 0 || t2801 >= d_A[0] {
				return m.OOB(t2801, d_A[0], 0, "A", 7, 40)
			}
			t2802 := i_j
			if t2802 < 0 || t2802 >= d_A[1] {
				return m.OOB(t2802, d_A[1], 1, "A", 7, 40)
			}
			t2803 := b_A + int((t2801)*d_A[1]+t2802)
			r_A_r2 := m.LoadF(t2803)
			t2804 := i_i - int64(1)
			t2805 := t2804
			if t2805 < 0 || t2805 >= d_A[0] {
				return m.OOB(t2805, d_A[0], 0, "A", 7, 54)
			}
			t2806 := i_j + int64(1)
			t2807 := t2806
			if t2807 < 0 || t2807 >= d_A[1] {
				return m.OOB(t2807, d_A[1], 1, "A", 7, 54)
			}
			t2808 := b_A + int((t2805)*d_A[1]+t2807)
			r_A_r3 := m.LoadF(t2808)
			t2809 := i_i
			if t2809 < 0 || t2809 >= d_A[0] {
				return m.OOB(t2809, d_A[0], 0, "A", 7, 72)
			}
			t2810 := i_j - int64(1)
			t2811 := t2810
			if t2811 < 0 || t2811 >= d_A[1] {
				return m.OOB(t2811, d_A[1], 1, "A", 7, 72)
			}
			t2812 := b_A + int((t2809)*d_A[1]+t2811)
			r_A_r4 := m.LoadF(t2812)
			t2813 := i_i
			if t2813 < 0 || t2813 >= d_A[0] {
				return m.OOB(t2813, d_A[0], 0, "A", 7, 86)
			}
			t2814 := i_j
			if t2814 < 0 || t2814 >= d_A[1] {
				return m.OOB(t2814, d_A[1], 1, "A", 7, 86)
			}
			t2815 := b_A + int((t2813)*d_A[1]+t2814)
			r_A_r5 := m.LoadF(t2815)
			t2816 := i_i
			if t2816 < 0 || t2816 >= d_A[0] {
				return m.OOB(t2816, d_A[0], 0, "A", 7, 96)
			}
			t2817 := i_j + int64(1)
			t2818 := t2817
			if t2818 < 0 || t2818 >= d_A[1] {
				return m.OOB(t2818, d_A[1], 1, "A", 7, 96)
			}
			t2819 := b_A + int((t2816)*d_A[1]+t2818)
			r_A_r6 := m.LoadF(t2819)
			t2820 := i_i + int64(1)
			t2821 := t2820
			if t2821 < 0 || t2821 >= d_A[0] {
				return m.OOB(t2821, d_A[0], 0, "A", 7, 110)
			}
			t2822 := i_j - int64(1)
			t2823 := t2822
			if t2823 < 0 || t2823 >= d_A[1] {
				return m.OOB(t2823, d_A[1], 1, "A", 7, 110)
			}
			t2824 := b_A + int((t2821)*d_A[1]+t2823)
			r_A_r7 := m.LoadF(t2824)
			t2825 := i_i + int64(1)
			t2826 := t2825
			if t2826 < 0 || t2826 >= d_A[0] {
				return m.OOB(t2826, d_A[0], 0, "A", 7, 128)
			}
			t2827 := i_j
			if t2827 < 0 || t2827 >= d_A[1] {
				return m.OOB(t2827, d_A[1], 1, "A", 7, 128)
			}
			t2828 := b_A + int((t2826)*d_A[1]+t2827)
			r_A_r8 := m.LoadF(t2828)
			t2829 := i_i + int64(1)
			t2830 := t2829
			if t2830 < 0 || t2830 >= d_A[0] {
				return m.OOB(t2830, d_A[0], 0, "A", 7, 142)
			}
			t2831 := i_j + int64(1)
			t2832 := t2831
			if t2832 < 0 || t2832 >= d_A[1] {
				return m.OOB(t2832, d_A[1], 1, "A", 7, 142)
			}
			t2833 := b_A + int((t2830)*d_A[1]+t2832)
			r_A_r9 := m.LoadF(t2833)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2834 := float64(r_A_r + r_A_r2)
			t2835 := float64(t2834 + r_A_r3)
			t2836 := float64(t2835 + r_A_r4)
			t2837 := float64(t2836 + r_A_r5)
			t2838 := float64(t2837 + r_A_r6)
			t2839 := float64(t2838 + r_A_r7)
			t2840 := float64(t2839 + r_A_r8)
			t2841 := float64(t2840 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2842 := float64(t2841 / float64(9))
			r_A_w := t2842
			t2843 := i_i
			if t2843 < 0 || t2843 >= d_A[0] {
				return m.OOB(t2843, d_A[0], 0, "A", 7, 11)
			}
			t2844 := i_j
			if t2844 < 0 || t2844 >= d_A[1] {
				return m.OOB(t2844, d_A[1], 1, "A", 7, 11)
			}
			t2845 := b_A + int((t2843)*d_A[1]+t2844)
			m.StoreF(t2845, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t2846 := -i_t
			t2847 := t2846 + p_tsteps
			t2848 := t2847 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2848)
			t2849 := -i_t
			t2850 := t2849 + p_tsteps
			t2851 := t2850 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2851)
			t2852 := -i_t
			t2853 := t2852 + p_tsteps
			t2854 := t2853 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2854)
		}
		t2855 := p_n - int64(3)
		for i_j := int64(2); i_j <= t2855; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2856 := i_i - int64(1)
			t2857 := t2856
			if t2857 < 0 || t2857 >= d_A[0] {
				return m.OOB(t2857, d_A[0], 0, "A", 7, 22)
			}
			t2858 := i_j - int64(1)
			t2859 := t2858
			if t2859 < 0 || t2859 >= d_A[1] {
				return m.OOB(t2859, d_A[1], 1, "A", 7, 22)
			}
			t2860 := b_A + int((t2857)*d_A[1]+t2859)
			r_A_r := m.LoadF(t2860)
			t2861 := i_i - int64(1)
			t2862 := t2861
			if t2862 < 0 || t2862 >= d_A[0] {
				return m.OOB(t2862, d_A[0], 0, "A", 7, 40)
			}
			t2863 := i_j
			if t2863 < 0 || t2863 >= d_A[1] {
				return m.OOB(t2863, d_A[1], 1, "A", 7, 40)
			}
			t2864 := b_A + int((t2862)*d_A[1]+t2863)
			r_A_r2 := m.LoadF(t2864)
			t2865 := i_i - int64(1)
			t2866 := t2865
			if t2866 < 0 || t2866 >= d_A[0] {
				return m.OOB(t2866, d_A[0], 0, "A", 7, 54)
			}
			t2867 := i_j + int64(1)
			t2868 := t2867
			if t2868 < 0 || t2868 >= d_A[1] {
				return m.OOB(t2868, d_A[1], 1, "A", 7, 54)
			}
			t2869 := b_A + int((t2866)*d_A[1]+t2868)
			r_A_r3 := m.LoadF(t2869)
			t2870 := i_i
			if t2870 < 0 || t2870 >= d_A[0] {
				return m.OOB(t2870, d_A[0], 0, "A", 7, 72)
			}
			t2871 := i_j - int64(1)
			t2872 := t2871
			if t2872 < 0 || t2872 >= d_A[1] {
				return m.OOB(t2872, d_A[1], 1, "A", 7, 72)
			}
			t2873 := b_A + int((t2870)*d_A[1]+t2872)
			r_A_r4 := m.LoadF(t2873)
			t2874 := i_i
			if t2874 < 0 || t2874 >= d_A[0] {
				return m.OOB(t2874, d_A[0], 0, "A", 7, 86)
			}
			t2875 := i_j
			if t2875 < 0 || t2875 >= d_A[1] {
				return m.OOB(t2875, d_A[1], 1, "A", 7, 86)
			}
			t2876 := b_A + int((t2874)*d_A[1]+t2875)
			r_A_r5 := m.LoadF(t2876)
			t2877 := i_i
			if t2877 < 0 || t2877 >= d_A[0] {
				return m.OOB(t2877, d_A[0], 0, "A", 7, 96)
			}
			t2878 := i_j + int64(1)
			t2879 := t2878
			if t2879 < 0 || t2879 >= d_A[1] {
				return m.OOB(t2879, d_A[1], 1, "A", 7, 96)
			}
			t2880 := b_A + int((t2877)*d_A[1]+t2879)
			r_A_r6 := m.LoadF(t2880)
			t2881 := i_i + int64(1)
			t2882 := t2881
			if t2882 < 0 || t2882 >= d_A[0] {
				return m.OOB(t2882, d_A[0], 0, "A", 7, 110)
			}
			t2883 := i_j - int64(1)
			t2884 := t2883
			if t2884 < 0 || t2884 >= d_A[1] {
				return m.OOB(t2884, d_A[1], 1, "A", 7, 110)
			}
			t2885 := b_A + int((t2882)*d_A[1]+t2884)
			r_A_r7 := m.LoadF(t2885)
			t2886 := i_i + int64(1)
			t2887 := t2886
			if t2887 < 0 || t2887 >= d_A[0] {
				return m.OOB(t2887, d_A[0], 0, "A", 7, 128)
			}
			t2888 := i_j
			if t2888 < 0 || t2888 >= d_A[1] {
				return m.OOB(t2888, d_A[1], 1, "A", 7, 128)
			}
			t2889 := b_A + int((t2887)*d_A[1]+t2888)
			r_A_r8 := m.LoadF(t2889)
			t2890 := i_i + int64(1)
			t2891 := t2890
			if t2891 < 0 || t2891 >= d_A[0] {
				return m.OOB(t2891, d_A[0], 0, "A", 7, 142)
			}
			t2892 := i_j + int64(1)
			t2893 := t2892
			if t2893 < 0 || t2893 >= d_A[1] {
				return m.OOB(t2893, d_A[1], 1, "A", 7, 142)
			}
			t2894 := b_A + int((t2891)*d_A[1]+t2893)
			r_A_r9 := m.LoadF(t2894)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2895 := float64(r_A_r + r_A_r2)
			t2896 := float64(t2895 + r_A_r3)
			t2897 := float64(t2896 + r_A_r4)
			t2898 := float64(t2897 + r_A_r5)
			t2899 := float64(t2898 + r_A_r6)
			t2900 := float64(t2899 + r_A_r7)
			t2901 := float64(t2900 + r_A_r8)
			t2902 := float64(t2901 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2903 := float64(t2902 / float64(9))
			r_A_w := t2903
			t2904 := i_i
			if t2904 < 0 || t2904 >= d_A[0] {
				return m.OOB(t2904, d_A[0], 0, "A", 7, 11)
			}
			t2905 := i_j
			if t2905 < 0 || t2905 >= d_A[1] {
				return m.OOB(t2905, d_A[1], 1, "A", 7, 11)
			}
			t2906 := b_A + int((t2904)*d_A[1]+t2905)
			m.StoreF(t2906, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t2907 := -i_t
			t2908 := t2907 + p_tsteps
			t2909 := t2908 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2909)
			t2910 := -i_t
			t2911 := t2910 + p_tsteps
			t2912 := t2911 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2912)
			t2913 := -i_t
			t2914 := t2913 + p_tsteps
			t2915 := t2914 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2915)
			t2916 := -i_t
			t2917 := t2916 + p_tsteps
			t2918 := t2917 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2918)
			t2919 := -i_t
			t2920 := t2919 + p_tsteps
			t2921 := t2920 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2921)
		}
		t2922 := p_n - int64(2)
		t2923 := codegen.MaxI(int64(1), t2922)
		t2924 := p_n - int64(2)
		for i_j := t2923; i_j <= t2924; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2925 := i_i - int64(1)
			t2926 := t2925
			if t2926 < 0 || t2926 >= d_A[0] {
				return m.OOB(t2926, d_A[0], 0, "A", 7, 22)
			}
			t2927 := i_j - int64(1)
			t2928 := t2927
			if t2928 < 0 || t2928 >= d_A[1] {
				return m.OOB(t2928, d_A[1], 1, "A", 7, 22)
			}
			t2929 := b_A + int((t2926)*d_A[1]+t2928)
			r_A_r := m.LoadF(t2929)
			t2930 := i_i - int64(1)
			t2931 := t2930
			if t2931 < 0 || t2931 >= d_A[0] {
				return m.OOB(t2931, d_A[0], 0, "A", 7, 40)
			}
			t2932 := i_j
			if t2932 < 0 || t2932 >= d_A[1] {
				return m.OOB(t2932, d_A[1], 1, "A", 7, 40)
			}
			t2933 := b_A + int((t2931)*d_A[1]+t2932)
			r_A_r2 := m.LoadF(t2933)
			t2934 := i_i - int64(1)
			t2935 := t2934
			if t2935 < 0 || t2935 >= d_A[0] {
				return m.OOB(t2935, d_A[0], 0, "A", 7, 54)
			}
			t2936 := i_j + int64(1)
			t2937 := t2936
			if t2937 < 0 || t2937 >= d_A[1] {
				return m.OOB(t2937, d_A[1], 1, "A", 7, 54)
			}
			t2938 := b_A + int((t2935)*d_A[1]+t2937)
			r_A_r3 := m.LoadF(t2938)
			t2939 := i_i
			if t2939 < 0 || t2939 >= d_A[0] {
				return m.OOB(t2939, d_A[0], 0, "A", 7, 72)
			}
			t2940 := i_j - int64(1)
			t2941 := t2940
			if t2941 < 0 || t2941 >= d_A[1] {
				return m.OOB(t2941, d_A[1], 1, "A", 7, 72)
			}
			t2942 := b_A + int((t2939)*d_A[1]+t2941)
			r_A_r4 := m.LoadF(t2942)
			t2943 := i_i
			if t2943 < 0 || t2943 >= d_A[0] {
				return m.OOB(t2943, d_A[0], 0, "A", 7, 86)
			}
			t2944 := i_j
			if t2944 < 0 || t2944 >= d_A[1] {
				return m.OOB(t2944, d_A[1], 1, "A", 7, 86)
			}
			t2945 := b_A + int((t2943)*d_A[1]+t2944)
			r_A_r5 := m.LoadF(t2945)
			t2946 := i_i
			if t2946 < 0 || t2946 >= d_A[0] {
				return m.OOB(t2946, d_A[0], 0, "A", 7, 96)
			}
			t2947 := i_j + int64(1)
			t2948 := t2947
			if t2948 < 0 || t2948 >= d_A[1] {
				return m.OOB(t2948, d_A[1], 1, "A", 7, 96)
			}
			t2949 := b_A + int((t2946)*d_A[1]+t2948)
			r_A_r6 := m.LoadF(t2949)
			t2950 := i_i + int64(1)
			t2951 := t2950
			if t2951 < 0 || t2951 >= d_A[0] {
				return m.OOB(t2951, d_A[0], 0, "A", 7, 110)
			}
			t2952 := i_j - int64(1)
			t2953 := t2952
			if t2953 < 0 || t2953 >= d_A[1] {
				return m.OOB(t2953, d_A[1], 1, "A", 7, 110)
			}
			t2954 := b_A + int((t2951)*d_A[1]+t2953)
			r_A_r7 := m.LoadF(t2954)
			t2955 := i_i + int64(1)
			t2956 := t2955
			if t2956 < 0 || t2956 >= d_A[0] {
				return m.OOB(t2956, d_A[0], 0, "A", 7, 128)
			}
			t2957 := i_j
			if t2957 < 0 || t2957 >= d_A[1] {
				return m.OOB(t2957, d_A[1], 1, "A", 7, 128)
			}
			t2958 := b_A + int((t2956)*d_A[1]+t2957)
			r_A_r8 := m.LoadF(t2958)
			t2959 := i_i + int64(1)
			t2960 := t2959
			if t2960 < 0 || t2960 >= d_A[0] {
				return m.OOB(t2960, d_A[0], 0, "A", 7, 142)
			}
			t2961 := i_j + int64(1)
			t2962 := t2961
			if t2962 < 0 || t2962 >= d_A[1] {
				return m.OOB(t2962, d_A[1], 1, "A", 7, 142)
			}
			t2963 := b_A + int((t2960)*d_A[1]+t2962)
			r_A_r9 := m.LoadF(t2963)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t2964 := float64(r_A_r + r_A_r2)
			t2965 := float64(t2964 + r_A_r3)
			t2966 := float64(t2965 + r_A_r4)
			t2967 := float64(t2966 + r_A_r5)
			t2968 := float64(t2967 + r_A_r6)
			t2969 := float64(t2968 + r_A_r7)
			t2970 := float64(t2969 + r_A_r8)
			t2971 := float64(t2970 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t2972 := float64(t2971 / float64(9))
			r_A_w := t2972
			t2973 := i_i
			if t2973 < 0 || t2973 >= d_A[0] {
				return m.OOB(t2973, d_A[0], 0, "A", 7, 11)
			}
			t2974 := i_j
			if t2974 < 0 || t2974 >= d_A[1] {
				return m.OOB(t2974, d_A[1], 1, "A", 7, 11)
			}
			t2975 := b_A + int((t2973)*d_A[1]+t2974)
			m.StoreF(t2975, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t2976 := -i_t
			t2977 := t2976 + p_tsteps
			t2978 := t2977 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2978)
			t2979 := -i_t
			t2980 := t2979 + p_tsteps
			t2981 := t2980 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2981)
			t2982 := -i_t
			t2983 := t2982 + p_tsteps
			t2984 := t2983 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2984)
			t2985 := -i_t
			t2986 := t2985 + p_tsteps
			t2987 := t2986 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t2987)
		}
	}
	return nil
}

func run_seidel_resilientopt_n24(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64, i_t int64) error {
	t3047 := p_n - int64(2)
	t3048 := codegen.MaxI(int64(2), t3047)
	t3049 := p_n - int64(2)
	for i_i := t3048; i_i <= t3049; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3050 := p_n - int64(3)
		t3051 := codegen.MinI(t3050, int64(1))
		for i_j := int64(1); i_j <= t3051; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3052 := i_i - int64(1)
			t3053 := t3052
			if t3053 < 0 || t3053 >= d_A[0] {
				return m.OOB(t3053, d_A[0], 0, "A", 7, 22)
			}
			t3054 := i_j - int64(1)
			t3055 := t3054
			if t3055 < 0 || t3055 >= d_A[1] {
				return m.OOB(t3055, d_A[1], 1, "A", 7, 22)
			}
			t3056 := b_A + int((t3053)*d_A[1]+t3055)
			r_A_r := m.LoadF(t3056)
			t3057 := i_i - int64(1)
			t3058 := t3057
			if t3058 < 0 || t3058 >= d_A[0] {
				return m.OOB(t3058, d_A[0], 0, "A", 7, 40)
			}
			t3059 := i_j
			if t3059 < 0 || t3059 >= d_A[1] {
				return m.OOB(t3059, d_A[1], 1, "A", 7, 40)
			}
			t3060 := b_A + int((t3058)*d_A[1]+t3059)
			r_A_r2 := m.LoadF(t3060)
			t3061 := i_i - int64(1)
			t3062 := t3061
			if t3062 < 0 || t3062 >= d_A[0] {
				return m.OOB(t3062, d_A[0], 0, "A", 7, 54)
			}
			t3063 := i_j + int64(1)
			t3064 := t3063
			if t3064 < 0 || t3064 >= d_A[1] {
				return m.OOB(t3064, d_A[1], 1, "A", 7, 54)
			}
			t3065 := b_A + int((t3062)*d_A[1]+t3064)
			r_A_r3 := m.LoadF(t3065)
			t3066 := i_i
			if t3066 < 0 || t3066 >= d_A[0] {
				return m.OOB(t3066, d_A[0], 0, "A", 7, 72)
			}
			t3067 := i_j - int64(1)
			t3068 := t3067
			if t3068 < 0 || t3068 >= d_A[1] {
				return m.OOB(t3068, d_A[1], 1, "A", 7, 72)
			}
			t3069 := b_A + int((t3066)*d_A[1]+t3068)
			r_A_r4 := m.LoadF(t3069)
			t3070 := i_i
			if t3070 < 0 || t3070 >= d_A[0] {
				return m.OOB(t3070, d_A[0], 0, "A", 7, 86)
			}
			t3071 := i_j
			if t3071 < 0 || t3071 >= d_A[1] {
				return m.OOB(t3071, d_A[1], 1, "A", 7, 86)
			}
			t3072 := b_A + int((t3070)*d_A[1]+t3071)
			r_A_r5 := m.LoadF(t3072)
			t3073 := i_i
			if t3073 < 0 || t3073 >= d_A[0] {
				return m.OOB(t3073, d_A[0], 0, "A", 7, 96)
			}
			t3074 := i_j + int64(1)
			t3075 := t3074
			if t3075 < 0 || t3075 >= d_A[1] {
				return m.OOB(t3075, d_A[1], 1, "A", 7, 96)
			}
			t3076 := b_A + int((t3073)*d_A[1]+t3075)
			r_A_r6 := m.LoadF(t3076)
			t3077 := i_i + int64(1)
			t3078 := t3077
			if t3078 < 0 || t3078 >= d_A[0] {
				return m.OOB(t3078, d_A[0], 0, "A", 7, 110)
			}
			t3079 := i_j - int64(1)
			t3080 := t3079
			if t3080 < 0 || t3080 >= d_A[1] {
				return m.OOB(t3080, d_A[1], 1, "A", 7, 110)
			}
			t3081 := b_A + int((t3078)*d_A[1]+t3080)
			r_A_r7 := m.LoadF(t3081)
			t3082 := i_i + int64(1)
			t3083 := t3082
			if t3083 < 0 || t3083 >= d_A[0] {
				return m.OOB(t3083, d_A[0], 0, "A", 7, 128)
			}
			t3084 := i_j
			if t3084 < 0 || t3084 >= d_A[1] {
				return m.OOB(t3084, d_A[1], 1, "A", 7, 128)
			}
			t3085 := b_A + int((t3083)*d_A[1]+t3084)
			r_A_r8 := m.LoadF(t3085)
			t3086 := i_i + int64(1)
			t3087 := t3086
			if t3087 < 0 || t3087 >= d_A[0] {
				return m.OOB(t3087, d_A[0], 0, "A", 7, 142)
			}
			t3088 := i_j + int64(1)
			t3089 := t3088
			if t3089 < 0 || t3089 >= d_A[1] {
				return m.OOB(t3089, d_A[1], 1, "A", 7, 142)
			}
			t3090 := b_A + int((t3087)*d_A[1]+t3089)
			r_A_r9 := m.LoadF(t3090)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t3091 := float64(r_A_r + r_A_r2)
			t3092 := float64(t3091 + r_A_r3)
			t3093 := float64(t3092 + r_A_r4)
			t3094 := float64(t3093 + r_A_r5)
			t3095 := float64(t3094 + r_A_r6)
			t3096 := float64(t3095 + r_A_r7)
			t3097 := float64(t3096 + r_A_r8)
			t3098 := float64(t3097 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t3099 := float64(t3098 / float64(9))
			r_A_w := t3099
			t3100 := i_i
			if t3100 < 0 || t3100 >= d_A[0] {
				return m.OOB(t3100, d_A[0], 0, "A", 7, 11)
			}
			t3101 := i_j
			if t3101 < 0 || t3101 >= d_A[1] {
				return m.OOB(t3101, d_A[1], 1, "A", 7, 11)
			}
			t3102 := b_A + int((t3100)*d_A[1]+t3101)
			m.StoreF(t3102, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t3103 := -i_t
			t3104 := t3103 + p_tsteps
			t3105 := t3104 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3105)
			t3106 := -i_t
			t3107 := t3106 + p_tsteps
			t3108 := t3107 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3108)
			t3109 := -i_t
			t3110 := t3109 + p_tsteps
			t3111 := t3110 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3111)
		}
		t3112 := p_n - int64(3)
		for i_j := int64(2); i_j <= t3112; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3113 := i_i - int64(1)
			t3114 := t3113
			if t3114 < 0 || t3114 >= d_A[0] {
				return m.OOB(t3114, d_A[0], 0, "A", 7, 22)
			}
			t3115 := i_j - int64(1)
			t3116 := t3115
			if t3116 < 0 || t3116 >= d_A[1] {
				return m.OOB(t3116, d_A[1], 1, "A", 7, 22)
			}
			t3117 := b_A + int((t3114)*d_A[1]+t3116)
			r_A_r := m.LoadF(t3117)
			t3118 := i_i - int64(1)
			t3119 := t3118
			if t3119 < 0 || t3119 >= d_A[0] {
				return m.OOB(t3119, d_A[0], 0, "A", 7, 40)
			}
			t3120 := i_j
			if t3120 < 0 || t3120 >= d_A[1] {
				return m.OOB(t3120, d_A[1], 1, "A", 7, 40)
			}
			t3121 := b_A + int((t3119)*d_A[1]+t3120)
			r_A_r2 := m.LoadF(t3121)
			t3122 := i_i - int64(1)
			t3123 := t3122
			if t3123 < 0 || t3123 >= d_A[0] {
				return m.OOB(t3123, d_A[0], 0, "A", 7, 54)
			}
			t3124 := i_j + int64(1)
			t3125 := t3124
			if t3125 < 0 || t3125 >= d_A[1] {
				return m.OOB(t3125, d_A[1], 1, "A", 7, 54)
			}
			t3126 := b_A + int((t3123)*d_A[1]+t3125)
			r_A_r3 := m.LoadF(t3126)
			t3127 := i_i
			if t3127 < 0 || t3127 >= d_A[0] {
				return m.OOB(t3127, d_A[0], 0, "A", 7, 72)
			}
			t3128 := i_j - int64(1)
			t3129 := t3128
			if t3129 < 0 || t3129 >= d_A[1] {
				return m.OOB(t3129, d_A[1], 1, "A", 7, 72)
			}
			t3130 := b_A + int((t3127)*d_A[1]+t3129)
			r_A_r4 := m.LoadF(t3130)
			t3131 := i_i
			if t3131 < 0 || t3131 >= d_A[0] {
				return m.OOB(t3131, d_A[0], 0, "A", 7, 86)
			}
			t3132 := i_j
			if t3132 < 0 || t3132 >= d_A[1] {
				return m.OOB(t3132, d_A[1], 1, "A", 7, 86)
			}
			t3133 := b_A + int((t3131)*d_A[1]+t3132)
			r_A_r5 := m.LoadF(t3133)
			t3134 := i_i
			if t3134 < 0 || t3134 >= d_A[0] {
				return m.OOB(t3134, d_A[0], 0, "A", 7, 96)
			}
			t3135 := i_j + int64(1)
			t3136 := t3135
			if t3136 < 0 || t3136 >= d_A[1] {
				return m.OOB(t3136, d_A[1], 1, "A", 7, 96)
			}
			t3137 := b_A + int((t3134)*d_A[1]+t3136)
			r_A_r6 := m.LoadF(t3137)
			t3138 := i_i + int64(1)
			t3139 := t3138
			if t3139 < 0 || t3139 >= d_A[0] {
				return m.OOB(t3139, d_A[0], 0, "A", 7, 110)
			}
			t3140 := i_j - int64(1)
			t3141 := t3140
			if t3141 < 0 || t3141 >= d_A[1] {
				return m.OOB(t3141, d_A[1], 1, "A", 7, 110)
			}
			t3142 := b_A + int((t3139)*d_A[1]+t3141)
			r_A_r7 := m.LoadF(t3142)
			t3143 := i_i + int64(1)
			t3144 := t3143
			if t3144 < 0 || t3144 >= d_A[0] {
				return m.OOB(t3144, d_A[0], 0, "A", 7, 128)
			}
			t3145 := i_j
			if t3145 < 0 || t3145 >= d_A[1] {
				return m.OOB(t3145, d_A[1], 1, "A", 7, 128)
			}
			t3146 := b_A + int((t3144)*d_A[1]+t3145)
			r_A_r8 := m.LoadF(t3146)
			t3147 := i_i + int64(1)
			t3148 := t3147
			if t3148 < 0 || t3148 >= d_A[0] {
				return m.OOB(t3148, d_A[0], 0, "A", 7, 142)
			}
			t3149 := i_j + int64(1)
			t3150 := t3149
			if t3150 < 0 || t3150 >= d_A[1] {
				return m.OOB(t3150, d_A[1], 1, "A", 7, 142)
			}
			t3151 := b_A + int((t3148)*d_A[1]+t3150)
			r_A_r9 := m.LoadF(t3151)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t3152 := float64(r_A_r + r_A_r2)
			t3153 := float64(t3152 + r_A_r3)
			t3154 := float64(t3153 + r_A_r4)
			t3155 := float64(t3154 + r_A_r5)
			t3156 := float64(t3155 + r_A_r6)
			t3157 := float64(t3156 + r_A_r7)
			t3158 := float64(t3157 + r_A_r8)
			t3159 := float64(t3158 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t3160 := float64(t3159 / float64(9))
			r_A_w := t3160
			t3161 := i_i
			if t3161 < 0 || t3161 >= d_A[0] {
				return m.OOB(t3161, d_A[0], 0, "A", 7, 11)
			}
			t3162 := i_j
			if t3162 < 0 || t3162 >= d_A[1] {
				return m.OOB(t3162, d_A[1], 1, "A", 7, 11)
			}
			t3163 := b_A + int((t3161)*d_A[1]+t3162)
			m.StoreF(t3163, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			t3164 := -i_t
			t3165 := t3164 + p_tsteps
			t3166 := t3165 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3166)
			t3167 := -i_t
			t3168 := t3167 + p_tsteps
			t3169 := t3168 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3169)
			t3170 := -i_t
			t3171 := t3170 + p_tsteps
			t3172 := t3171 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3172)
			t3173 := -i_t
			t3174 := t3173 + p_tsteps
			t3175 := t3174 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3175)
			t3176 := -i_t
			t3177 := t3176 + p_tsteps
			t3178 := t3177 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3178)
		}
		t3179 := p_n - int64(2)
		t3180 := codegen.MaxI(int64(1), t3179)
		t3181 := p_n - int64(2)
		for i_j := t3180; i_j <= t3181; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3182 := i_i - int64(1)
			t3183 := t3182
			if t3183 < 0 || t3183 >= d_A[0] {
				return m.OOB(t3183, d_A[0], 0, "A", 7, 22)
			}
			t3184 := i_j - int64(1)
			t3185 := t3184
			if t3185 < 0 || t3185 >= d_A[1] {
				return m.OOB(t3185, d_A[1], 1, "A", 7, 22)
			}
			t3186 := b_A + int((t3183)*d_A[1]+t3185)
			r_A_r := m.LoadF(t3186)
			t3187 := i_i - int64(1)
			t3188 := t3187
			if t3188 < 0 || t3188 >= d_A[0] {
				return m.OOB(t3188, d_A[0], 0, "A", 7, 40)
			}
			t3189 := i_j
			if t3189 < 0 || t3189 >= d_A[1] {
				return m.OOB(t3189, d_A[1], 1, "A", 7, 40)
			}
			t3190 := b_A + int((t3188)*d_A[1]+t3189)
			r_A_r2 := m.LoadF(t3190)
			t3191 := i_i - int64(1)
			t3192 := t3191
			if t3192 < 0 || t3192 >= d_A[0] {
				return m.OOB(t3192, d_A[0], 0, "A", 7, 54)
			}
			t3193 := i_j + int64(1)
			t3194 := t3193
			if t3194 < 0 || t3194 >= d_A[1] {
				return m.OOB(t3194, d_A[1], 1, "A", 7, 54)
			}
			t3195 := b_A + int((t3192)*d_A[1]+t3194)
			r_A_r3 := m.LoadF(t3195)
			t3196 := i_i
			if t3196 < 0 || t3196 >= d_A[0] {
				return m.OOB(t3196, d_A[0], 0, "A", 7, 72)
			}
			t3197 := i_j - int64(1)
			t3198 := t3197
			if t3198 < 0 || t3198 >= d_A[1] {
				return m.OOB(t3198, d_A[1], 1, "A", 7, 72)
			}
			t3199 := b_A + int((t3196)*d_A[1]+t3198)
			r_A_r4 := m.LoadF(t3199)
			t3200 := i_i
			if t3200 < 0 || t3200 >= d_A[0] {
				return m.OOB(t3200, d_A[0], 0, "A", 7, 86)
			}
			t3201 := i_j
			if t3201 < 0 || t3201 >= d_A[1] {
				return m.OOB(t3201, d_A[1], 1, "A", 7, 86)
			}
			t3202 := b_A + int((t3200)*d_A[1]+t3201)
			r_A_r5 := m.LoadF(t3202)
			t3203 := i_i
			if t3203 < 0 || t3203 >= d_A[0] {
				return m.OOB(t3203, d_A[0], 0, "A", 7, 96)
			}
			t3204 := i_j + int64(1)
			t3205 := t3204
			if t3205 < 0 || t3205 >= d_A[1] {
				return m.OOB(t3205, d_A[1], 1, "A", 7, 96)
			}
			t3206 := b_A + int((t3203)*d_A[1]+t3205)
			r_A_r6 := m.LoadF(t3206)
			t3207 := i_i + int64(1)
			t3208 := t3207
			if t3208 < 0 || t3208 >= d_A[0] {
				return m.OOB(t3208, d_A[0], 0, "A", 7, 110)
			}
			t3209 := i_j - int64(1)
			t3210 := t3209
			if t3210 < 0 || t3210 >= d_A[1] {
				return m.OOB(t3210, d_A[1], 1, "A", 7, 110)
			}
			t3211 := b_A + int((t3208)*d_A[1]+t3210)
			r_A_r7 := m.LoadF(t3211)
			t3212 := i_i + int64(1)
			t3213 := t3212
			if t3213 < 0 || t3213 >= d_A[0] {
				return m.OOB(t3213, d_A[0], 0, "A", 7, 128)
			}
			t3214 := i_j
			if t3214 < 0 || t3214 >= d_A[1] {
				return m.OOB(t3214, d_A[1], 1, "A", 7, 128)
			}
			t3215 := b_A + int((t3213)*d_A[1]+t3214)
			r_A_r8 := m.LoadF(t3215)
			t3216 := i_i + int64(1)
			t3217 := t3216
			if t3217 < 0 || t3217 >= d_A[0] {
				return m.OOB(t3217, d_A[0], 0, "A", 7, 142)
			}
			t3218 := i_j + int64(1)
			t3219 := t3218
			if t3219 < 0 || t3219 >= d_A[1] {
				return m.OOB(t3219, d_A[1], 1, "A", 7, 142)
			}
			t3220 := b_A + int((t3217)*d_A[1]+t3219)
			r_A_r9 := m.LoadF(t3220)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t3221 := float64(r_A_r + r_A_r2)
			t3222 := float64(t3221 + r_A_r3)
			t3223 := float64(t3222 + r_A_r4)
			t3224 := float64(t3223 + r_A_r5)
			t3225 := float64(t3224 + r_A_r6)
			t3226 := float64(t3225 + r_A_r7)
			t3227 := float64(t3226 + r_A_r8)
			t3228 := float64(t3227 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t3229 := float64(t3228 / float64(9))
			r_A_w := t3229
			t3230 := i_i
			if t3230 < 0 || t3230 >= d_A[0] {
				return m.OOB(t3230, d_A[0], 0, "A", 7, 11)
			}
			t3231 := i_j
			if t3231 < 0 || t3231 >= d_A[1] {
				return m.OOB(t3231, d_A[1], 1, "A", 7, 11)
			}
			t3232 := b_A + int((t3230)*d_A[1]+t3231)
			m.StoreF(t3232, r_A_w)
			t3233 := -i_t
			t3234 := t3233 + p_tsteps
			t3235 := t3234 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3235)
			t3236 := -i_t
			t3237 := t3236 + p_tsteps
			t3238 := t3237 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3238)
			t3239 := -i_t
			t3240 := t3239 + p_tsteps
			t3241 := t3240 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3241)
			t3242 := -i_t
			t3243 := t3242 + p_tsteps
			t3244 := t3243 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t3244)
		}
	}
	return nil
}

func run_seidel_resilientopt_n25(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t3245 := p_tsteps - int64(1)
	t3246 := codegen.MaxI(int64(1), t3245)
	t3247 := p_tsteps - int64(1)
	for i_t := t3246; i_t <= t3247; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_seidel_resilientopt_n26(m, cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t3408 := p_n - int64(2)
		t3409 := codegen.MaxI(int64(1), t3408)
		t3410 := p_n - int64(2)
		for i_i := t3409; i_i <= t3410; i_i++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3411 := p_n - int64(3)
			for i_j := int64(1); i_j <= t3411; i_j++ {
				if err := m.Tick(0, 0); err != nil {
					return err
				}
				t3412 := i_i - int64(1)
				t3413 := t3412
				if t3413 < 0 || t3413 >= d_A[0] {
					return m.OOB(t3413, d_A[0], 0, "A", 7, 22)
				}
				t3414 := i_j - int64(1)
				t3415 := t3414
				if t3415 < 0 || t3415 >= d_A[1] {
					return m.OOB(t3415, d_A[1], 1, "A", 7, 22)
				}
				t3416 := b_A + int((t3413)*d_A[1]+t3415)
				r_A_r := m.LoadF(t3416)
				t3417 := i_i - int64(1)
				t3418 := t3417
				if t3418 < 0 || t3418 >= d_A[0] {
					return m.OOB(t3418, d_A[0], 0, "A", 7, 40)
				}
				t3419 := i_j
				if t3419 < 0 || t3419 >= d_A[1] {
					return m.OOB(t3419, d_A[1], 1, "A", 7, 40)
				}
				t3420 := b_A + int((t3418)*d_A[1]+t3419)
				r_A_r2 := m.LoadF(t3420)
				t3421 := i_i - int64(1)
				t3422 := t3421
				if t3422 < 0 || t3422 >= d_A[0] {
					return m.OOB(t3422, d_A[0], 0, "A", 7, 54)
				}
				t3423 := i_j + int64(1)
				t3424 := t3423
				if t3424 < 0 || t3424 >= d_A[1] {
					return m.OOB(t3424, d_A[1], 1, "A", 7, 54)
				}
				t3425 := b_A + int((t3422)*d_A[1]+t3424)
				r_A_r3 := m.LoadF(t3425)
				t3426 := i_i
				if t3426 < 0 || t3426 >= d_A[0] {
					return m.OOB(t3426, d_A[0], 0, "A", 7, 72)
				}
				t3427 := i_j - int64(1)
				t3428 := t3427
				if t3428 < 0 || t3428 >= d_A[1] {
					return m.OOB(t3428, d_A[1], 1, "A", 7, 72)
				}
				t3429 := b_A + int((t3426)*d_A[1]+t3428)
				r_A_r4 := m.LoadF(t3429)
				t3430 := i_i
				if t3430 < 0 || t3430 >= d_A[0] {
					return m.OOB(t3430, d_A[0], 0, "A", 7, 86)
				}
				t3431 := i_j
				if t3431 < 0 || t3431 >= d_A[1] {
					return m.OOB(t3431, d_A[1], 1, "A", 7, 86)
				}
				t3432 := b_A + int((t3430)*d_A[1]+t3431)
				r_A_r5 := m.LoadF(t3432)
				t3433 := i_i
				if t3433 < 0 || t3433 >= d_A[0] {
					return m.OOB(t3433, d_A[0], 0, "A", 7, 96)
				}
				t3434 := i_j + int64(1)
				t3435 := t3434
				if t3435 < 0 || t3435 >= d_A[1] {
					return m.OOB(t3435, d_A[1], 1, "A", 7, 96)
				}
				t3436 := b_A + int((t3433)*d_A[1]+t3435)
				r_A_r6 := m.LoadF(t3436)
				t3437 := i_i + int64(1)
				t3438 := t3437
				if t3438 < 0 || t3438 >= d_A[0] {
					return m.OOB(t3438, d_A[0], 0, "A", 7, 110)
				}
				t3439 := i_j - int64(1)
				t3440 := t3439
				if t3440 < 0 || t3440 >= d_A[1] {
					return m.OOB(t3440, d_A[1], 1, "A", 7, 110)
				}
				t3441 := b_A + int((t3438)*d_A[1]+t3440)
				r_A_r7 := m.LoadF(t3441)
				t3442 := i_i + int64(1)
				t3443 := t3442
				if t3443 < 0 || t3443 >= d_A[0] {
					return m.OOB(t3443, d_A[0], 0, "A", 7, 128)
				}
				t3444 := i_j
				if t3444 < 0 || t3444 >= d_A[1] {
					return m.OOB(t3444, d_A[1], 1, "A", 7, 128)
				}
				t3445 := b_A + int((t3443)*d_A[1]+t3444)
				r_A_r8 := m.LoadF(t3445)
				t3446 := i_i + int64(1)
				t3447 := t3446
				if t3447 < 0 || t3447 >= d_A[0] {
					return m.OOB(t3447, d_A[0], 0, "A", 7, 142)
				}
				t3448 := i_j + int64(1)
				t3449 := t3448
				if t3449 < 0 || t3449 >= d_A[1] {
					return m.OOB(t3449, d_A[1], 1, "A", 7, 142)
				}
				t3450 := b_A + int((t3447)*d_A[1]+t3449)
				r_A_r9 := m.LoadF(t3450)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t3451 := float64(r_A_r + r_A_r2)
				t3452 := float64(t3451 + r_A_r3)
				t3453 := float64(t3452 + r_A_r4)
				t3454 := float64(t3453 + r_A_r5)
				t3455 := float64(t3454 + r_A_r6)
				t3456 := float64(t3455 + r_A_r7)
				t3457 := float64(t3456 + r_A_r8)
				t3458 := float64(t3457 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t3459 := float64(t3458 / float64(9))
				r_A_w := t3459
				t3460 := i_i
				if t3460 < 0 || t3460 >= d_A[0] {
					return m.OOB(t3460, d_A[0], 0, "A", 7, 11)
				}
				t3461 := i_j
				if t3461 < 0 || t3461 >= d_A[1] {
					return m.OOB(t3461, d_A[1], 1, "A", 7, 11)
				}
				t3462 := b_A + int((t3460)*d_A[1]+t3461)
				m.StoreF(t3462, r_A_w)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			}
			t3463 := p_n - int64(2)
			t3464 := codegen.MaxI(int64(1), t3463)
			t3465 := p_n - int64(2)
			for i_j := t3464; i_j <= t3465; i_j++ {
				if err := m.Tick(0, 0); err != nil {
					return err
				}
				t3466 := i_i - int64(1)
				t3467 := t3466
				if t3467 < 0 || t3467 >= d_A[0] {
					return m.OOB(t3467, d_A[0], 0, "A", 7, 22)
				}
				t3468 := i_j - int64(1)
				t3469 := t3468
				if t3469 < 0 || t3469 >= d_A[1] {
					return m.OOB(t3469, d_A[1], 1, "A", 7, 22)
				}
				t3470 := b_A + int((t3467)*d_A[1]+t3469)
				r_A_r := m.LoadF(t3470)
				t3471 := i_i - int64(1)
				t3472 := t3471
				if t3472 < 0 || t3472 >= d_A[0] {
					return m.OOB(t3472, d_A[0], 0, "A", 7, 40)
				}
				t3473 := i_j
				if t3473 < 0 || t3473 >= d_A[1] {
					return m.OOB(t3473, d_A[1], 1, "A", 7, 40)
				}
				t3474 := b_A + int((t3472)*d_A[1]+t3473)
				r_A_r2 := m.LoadF(t3474)
				t3475 := i_i - int64(1)
				t3476 := t3475
				if t3476 < 0 || t3476 >= d_A[0] {
					return m.OOB(t3476, d_A[0], 0, "A", 7, 54)
				}
				t3477 := i_j + int64(1)
				t3478 := t3477
				if t3478 < 0 || t3478 >= d_A[1] {
					return m.OOB(t3478, d_A[1], 1, "A", 7, 54)
				}
				t3479 := b_A + int((t3476)*d_A[1]+t3478)
				r_A_r3 := m.LoadF(t3479)
				t3480 := i_i
				if t3480 < 0 || t3480 >= d_A[0] {
					return m.OOB(t3480, d_A[0], 0, "A", 7, 72)
				}
				t3481 := i_j - int64(1)
				t3482 := t3481
				if t3482 < 0 || t3482 >= d_A[1] {
					return m.OOB(t3482, d_A[1], 1, "A", 7, 72)
				}
				t3483 := b_A + int((t3480)*d_A[1]+t3482)
				r_A_r4 := m.LoadF(t3483)
				t3484 := i_i
				if t3484 < 0 || t3484 >= d_A[0] {
					return m.OOB(t3484, d_A[0], 0, "A", 7, 86)
				}
				t3485 := i_j
				if t3485 < 0 || t3485 >= d_A[1] {
					return m.OOB(t3485, d_A[1], 1, "A", 7, 86)
				}
				t3486 := b_A + int((t3484)*d_A[1]+t3485)
				r_A_r5 := m.LoadF(t3486)
				t3487 := i_i
				if t3487 < 0 || t3487 >= d_A[0] {
					return m.OOB(t3487, d_A[0], 0, "A", 7, 96)
				}
				t3488 := i_j + int64(1)
				t3489 := t3488
				if t3489 < 0 || t3489 >= d_A[1] {
					return m.OOB(t3489, d_A[1], 1, "A", 7, 96)
				}
				t3490 := b_A + int((t3487)*d_A[1]+t3489)
				r_A_r6 := m.LoadF(t3490)
				t3491 := i_i + int64(1)
				t3492 := t3491
				if t3492 < 0 || t3492 >= d_A[0] {
					return m.OOB(t3492, d_A[0], 0, "A", 7, 110)
				}
				t3493 := i_j - int64(1)
				t3494 := t3493
				if t3494 < 0 || t3494 >= d_A[1] {
					return m.OOB(t3494, d_A[1], 1, "A", 7, 110)
				}
				t3495 := b_A + int((t3492)*d_A[1]+t3494)
				r_A_r7 := m.LoadF(t3495)
				t3496 := i_i + int64(1)
				t3497 := t3496
				if t3497 < 0 || t3497 >= d_A[0] {
					return m.OOB(t3497, d_A[0], 0, "A", 7, 128)
				}
				t3498 := i_j
				if t3498 < 0 || t3498 >= d_A[1] {
					return m.OOB(t3498, d_A[1], 1, "A", 7, 128)
				}
				t3499 := b_A + int((t3497)*d_A[1]+t3498)
				r_A_r8 := m.LoadF(t3499)
				t3500 := i_i + int64(1)
				t3501 := t3500
				if t3501 < 0 || t3501 >= d_A[0] {
					return m.OOB(t3501, d_A[0], 0, "A", 7, 142)
				}
				t3502 := i_j + int64(1)
				t3503 := t3502
				if t3503 < 0 || t3503 >= d_A[1] {
					return m.OOB(t3503, d_A[1], 1, "A", 7, 142)
				}
				t3504 := b_A + int((t3501)*d_A[1]+t3503)
				r_A_r9 := m.LoadF(t3504)
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
				t3505 := float64(r_A_r + r_A_r2)
				t3506 := float64(t3505 + r_A_r3)
				t3507 := float64(t3506 + r_A_r4)
				t3508 := float64(t3507 + r_A_r5)
				t3509 := float64(t3508 + r_A_r6)
				t3510 := float64(t3509 + r_A_r7)
				t3511 := float64(t3510 + r_A_r8)
				t3512 := float64(t3511 + r_A_r9)
				if float64(9) == 0 {
					return m.DivZero(7, 159)
				}
				t3513 := float64(t3512 / float64(9))
				r_A_w := t3513
				t3514 := i_i
				if t3514 < 0 || t3514 >= d_A[0] {
					return m.OOB(t3514, d_A[0], 0, "A", 7, 11)
				}
				t3515 := i_j
				if t3515 < 0 || t3515 >= d_A[1] {
					return m.OOB(t3515, d_A[1], 1, "A", 7, 11)
				}
				t3516 := b_A + int((t3514)*d_A[1]+t3515)
				m.StoreF(t3516, r_A_w)
			}
		}
	}
	return nil
}

func run_seidel_resilientopt_n26(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t3248 := p_n - int64(3)
	for i_i := int64(1); i_i <= t3248; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3249 := p_n - int64(3)
		t3250 := codegen.MinI(t3249, int64(1))
		for i_j := int64(1); i_j <= t3250; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3251 := i_i - int64(1)
			t3252 := t3251
			if t3252 < 0 || t3252 >= d_A[0] {
				return m.OOB(t3252, d_A[0], 0, "A", 7, 22)
			}
			t3253 := i_j - int64(1)
			t3254 := t3253
			if t3254 < 0 || t3254 >= d_A[1] {
				return m.OOB(t3254, d_A[1], 1, "A", 7, 22)
			}
			t3255 := b_A + int((t3252)*d_A[1]+t3254)
			r_A_r := m.LoadF(t3255)
			t3256 := i_i - int64(1)
			t3257 := t3256
			if t3257 < 0 || t3257 >= d_A[0] {
				return m.OOB(t3257, d_A[0], 0, "A", 7, 40)
			}
			t3258 := i_j
			if t3258 < 0 || t3258 >= d_A[1] {
				return m.OOB(t3258, d_A[1], 1, "A", 7, 40)
			}
			t3259 := b_A + int((t3257)*d_A[1]+t3258)
			r_A_r2 := m.LoadF(t3259)
			t3260 := i_i - int64(1)
			t3261 := t3260
			if t3261 < 0 || t3261 >= d_A[0] {
				return m.OOB(t3261, d_A[0], 0, "A", 7, 54)
			}
			t3262 := i_j + int64(1)
			t3263 := t3262
			if t3263 < 0 || t3263 >= d_A[1] {
				return m.OOB(t3263, d_A[1], 1, "A", 7, 54)
			}
			t3264 := b_A + int((t3261)*d_A[1]+t3263)
			r_A_r3 := m.LoadF(t3264)
			t3265 := i_i
			if t3265 < 0 || t3265 >= d_A[0] {
				return m.OOB(t3265, d_A[0], 0, "A", 7, 72)
			}
			t3266 := i_j - int64(1)
			t3267 := t3266
			if t3267 < 0 || t3267 >= d_A[1] {
				return m.OOB(t3267, d_A[1], 1, "A", 7, 72)
			}
			t3268 := b_A + int((t3265)*d_A[1]+t3267)
			r_A_r4 := m.LoadF(t3268)
			t3269 := i_i
			if t3269 < 0 || t3269 >= d_A[0] {
				return m.OOB(t3269, d_A[0], 0, "A", 7, 86)
			}
			t3270 := i_j
			if t3270 < 0 || t3270 >= d_A[1] {
				return m.OOB(t3270, d_A[1], 1, "A", 7, 86)
			}
			t3271 := b_A + int((t3269)*d_A[1]+t3270)
			r_A_r5 := m.LoadF(t3271)
			t3272 := i_i
			if t3272 < 0 || t3272 >= d_A[0] {
				return m.OOB(t3272, d_A[0], 0, "A", 7, 96)
			}
			t3273 := i_j + int64(1)
			t3274 := t3273
			if t3274 < 0 || t3274 >= d_A[1] {
				return m.OOB(t3274, d_A[1], 1, "A", 7, 96)
			}
			t3275 := b_A + int((t3272)*d_A[1]+t3274)
			r_A_r6 := m.LoadF(t3275)
			t3276 := i_i + int64(1)
			t3277 := t3276
			if t3277 < 0 || t3277 >= d_A[0] {
				return m.OOB(t3277, d_A[0], 0, "A", 7, 110)
			}
			t3278 := i_j - int64(1)
			t3279 := t3278
			if t3279 < 0 || t3279 >= d_A[1] {
				return m.OOB(t3279, d_A[1], 1, "A", 7, 110)
			}
			t3280 := b_A + int((t3277)*d_A[1]+t3279)
			r_A_r7 := m.LoadF(t3280)
			t3281 := i_i + int64(1)
			t3282 := t3281
			if t3282 < 0 || t3282 >= d_A[0] {
				return m.OOB(t3282, d_A[0], 0, "A", 7, 128)
			}
			t3283 := i_j
			if t3283 < 0 || t3283 >= d_A[1] {
				return m.OOB(t3283, d_A[1], 1, "A", 7, 128)
			}
			t3284 := b_A + int((t3282)*d_A[1]+t3283)
			r_A_r8 := m.LoadF(t3284)
			t3285 := i_i + int64(1)
			t3286 := t3285
			if t3286 < 0 || t3286 >= d_A[0] {
				return m.OOB(t3286, d_A[0], 0, "A", 7, 142)
			}
			t3287 := i_j + int64(1)
			t3288 := t3287
			if t3288 < 0 || t3288 >= d_A[1] {
				return m.OOB(t3288, d_A[1], 1, "A", 7, 142)
			}
			t3289 := b_A + int((t3286)*d_A[1]+t3288)
			r_A_r9 := m.LoadF(t3289)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t3290 := float64(r_A_r + r_A_r2)
			t3291 := float64(t3290 + r_A_r3)
			t3292 := float64(t3291 + r_A_r4)
			t3293 := float64(t3292 + r_A_r5)
			t3294 := float64(t3293 + r_A_r6)
			t3295 := float64(t3294 + r_A_r7)
			t3296 := float64(t3295 + r_A_r8)
			t3297 := float64(t3296 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t3298 := float64(t3297 / float64(9))
			r_A_w := t3298
			t3299 := i_i
			if t3299 < 0 || t3299 >= d_A[0] {
				return m.OOB(t3299, d_A[0], 0, "A", 7, 11)
			}
			t3300 := i_j
			if t3300 < 0 || t3300 >= d_A[1] {
				return m.OOB(t3300, d_A[1], 1, "A", 7, 11)
			}
			t3301 := b_A + int((t3299)*d_A[1]+t3300)
			m.StoreF(t3301, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t3302 := p_n - int64(3)
		for i_j := int64(2); i_j <= t3302; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3303 := i_i - int64(1)
			t3304 := t3303
			if t3304 < 0 || t3304 >= d_A[0] {
				return m.OOB(t3304, d_A[0], 0, "A", 7, 22)
			}
			t3305 := i_j - int64(1)
			t3306 := t3305
			if t3306 < 0 || t3306 >= d_A[1] {
				return m.OOB(t3306, d_A[1], 1, "A", 7, 22)
			}
			t3307 := b_A + int((t3304)*d_A[1]+t3306)
			r_A_r := m.LoadF(t3307)
			t3308 := i_i - int64(1)
			t3309 := t3308
			if t3309 < 0 || t3309 >= d_A[0] {
				return m.OOB(t3309, d_A[0], 0, "A", 7, 40)
			}
			t3310 := i_j
			if t3310 < 0 || t3310 >= d_A[1] {
				return m.OOB(t3310, d_A[1], 1, "A", 7, 40)
			}
			t3311 := b_A + int((t3309)*d_A[1]+t3310)
			r_A_r2 := m.LoadF(t3311)
			t3312 := i_i - int64(1)
			t3313 := t3312
			if t3313 < 0 || t3313 >= d_A[0] {
				return m.OOB(t3313, d_A[0], 0, "A", 7, 54)
			}
			t3314 := i_j + int64(1)
			t3315 := t3314
			if t3315 < 0 || t3315 >= d_A[1] {
				return m.OOB(t3315, d_A[1], 1, "A", 7, 54)
			}
			t3316 := b_A + int((t3313)*d_A[1]+t3315)
			r_A_r3 := m.LoadF(t3316)
			t3317 := i_i
			if t3317 < 0 || t3317 >= d_A[0] {
				return m.OOB(t3317, d_A[0], 0, "A", 7, 72)
			}
			t3318 := i_j - int64(1)
			t3319 := t3318
			if t3319 < 0 || t3319 >= d_A[1] {
				return m.OOB(t3319, d_A[1], 1, "A", 7, 72)
			}
			t3320 := b_A + int((t3317)*d_A[1]+t3319)
			r_A_r4 := m.LoadF(t3320)
			t3321 := i_i
			if t3321 < 0 || t3321 >= d_A[0] {
				return m.OOB(t3321, d_A[0], 0, "A", 7, 86)
			}
			t3322 := i_j
			if t3322 < 0 || t3322 >= d_A[1] {
				return m.OOB(t3322, d_A[1], 1, "A", 7, 86)
			}
			t3323 := b_A + int((t3321)*d_A[1]+t3322)
			r_A_r5 := m.LoadF(t3323)
			t3324 := i_i
			if t3324 < 0 || t3324 >= d_A[0] {
				return m.OOB(t3324, d_A[0], 0, "A", 7, 96)
			}
			t3325 := i_j + int64(1)
			t3326 := t3325
			if t3326 < 0 || t3326 >= d_A[1] {
				return m.OOB(t3326, d_A[1], 1, "A", 7, 96)
			}
			t3327 := b_A + int((t3324)*d_A[1]+t3326)
			r_A_r6 := m.LoadF(t3327)
			t3328 := i_i + int64(1)
			t3329 := t3328
			if t3329 < 0 || t3329 >= d_A[0] {
				return m.OOB(t3329, d_A[0], 0, "A", 7, 110)
			}
			t3330 := i_j - int64(1)
			t3331 := t3330
			if t3331 < 0 || t3331 >= d_A[1] {
				return m.OOB(t3331, d_A[1], 1, "A", 7, 110)
			}
			t3332 := b_A + int((t3329)*d_A[1]+t3331)
			r_A_r7 := m.LoadF(t3332)
			t3333 := i_i + int64(1)
			t3334 := t3333
			if t3334 < 0 || t3334 >= d_A[0] {
				return m.OOB(t3334, d_A[0], 0, "A", 7, 128)
			}
			t3335 := i_j
			if t3335 < 0 || t3335 >= d_A[1] {
				return m.OOB(t3335, d_A[1], 1, "A", 7, 128)
			}
			t3336 := b_A + int((t3334)*d_A[1]+t3335)
			r_A_r8 := m.LoadF(t3336)
			t3337 := i_i + int64(1)
			t3338 := t3337
			if t3338 < 0 || t3338 >= d_A[0] {
				return m.OOB(t3338, d_A[0], 0, "A", 7, 142)
			}
			t3339 := i_j + int64(1)
			t3340 := t3339
			if t3340 < 0 || t3340 >= d_A[1] {
				return m.OOB(t3340, d_A[1], 1, "A", 7, 142)
			}
			t3341 := b_A + int((t3338)*d_A[1]+t3340)
			r_A_r9 := m.LoadF(t3341)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t3342 := float64(r_A_r + r_A_r2)
			t3343 := float64(t3342 + r_A_r3)
			t3344 := float64(t3343 + r_A_r4)
			t3345 := float64(t3344 + r_A_r5)
			t3346 := float64(t3345 + r_A_r6)
			t3347 := float64(t3346 + r_A_r7)
			t3348 := float64(t3347 + r_A_r8)
			t3349 := float64(t3348 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t3350 := float64(t3349 / float64(9))
			r_A_w := t3350
			t3351 := i_i
			if t3351 < 0 || t3351 >= d_A[0] {
				return m.OOB(t3351, d_A[0], 0, "A", 7, 11)
			}
			t3352 := i_j
			if t3352 < 0 || t3352 >= d_A[1] {
				return m.OOB(t3352, d_A[1], 1, "A", 7, 11)
			}
			t3353 := b_A + int((t3351)*d_A[1]+t3352)
			m.StoreF(t3353, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
		t3354 := p_n - int64(2)
		t3355 := codegen.MaxI(int64(1), t3354)
		t3356 := p_n - int64(2)
		for i_j := t3355; i_j <= t3356; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3357 := i_i - int64(1)
			t3358 := t3357
			if t3358 < 0 || t3358 >= d_A[0] {
				return m.OOB(t3358, d_A[0], 0, "A", 7, 22)
			}
			t3359 := i_j - int64(1)
			t3360 := t3359
			if t3360 < 0 || t3360 >= d_A[1] {
				return m.OOB(t3360, d_A[1], 1, "A", 7, 22)
			}
			t3361 := b_A + int((t3358)*d_A[1]+t3360)
			r_A_r := m.LoadF(t3361)
			t3362 := i_i - int64(1)
			t3363 := t3362
			if t3363 < 0 || t3363 >= d_A[0] {
				return m.OOB(t3363, d_A[0], 0, "A", 7, 40)
			}
			t3364 := i_j
			if t3364 < 0 || t3364 >= d_A[1] {
				return m.OOB(t3364, d_A[1], 1, "A", 7, 40)
			}
			t3365 := b_A + int((t3363)*d_A[1]+t3364)
			r_A_r2 := m.LoadF(t3365)
			t3366 := i_i - int64(1)
			t3367 := t3366
			if t3367 < 0 || t3367 >= d_A[0] {
				return m.OOB(t3367, d_A[0], 0, "A", 7, 54)
			}
			t3368 := i_j + int64(1)
			t3369 := t3368
			if t3369 < 0 || t3369 >= d_A[1] {
				return m.OOB(t3369, d_A[1], 1, "A", 7, 54)
			}
			t3370 := b_A + int((t3367)*d_A[1]+t3369)
			r_A_r3 := m.LoadF(t3370)
			t3371 := i_i
			if t3371 < 0 || t3371 >= d_A[0] {
				return m.OOB(t3371, d_A[0], 0, "A", 7, 72)
			}
			t3372 := i_j - int64(1)
			t3373 := t3372
			if t3373 < 0 || t3373 >= d_A[1] {
				return m.OOB(t3373, d_A[1], 1, "A", 7, 72)
			}
			t3374 := b_A + int((t3371)*d_A[1]+t3373)
			r_A_r4 := m.LoadF(t3374)
			t3375 := i_i
			if t3375 < 0 || t3375 >= d_A[0] {
				return m.OOB(t3375, d_A[0], 0, "A", 7, 86)
			}
			t3376 := i_j
			if t3376 < 0 || t3376 >= d_A[1] {
				return m.OOB(t3376, d_A[1], 1, "A", 7, 86)
			}
			t3377 := b_A + int((t3375)*d_A[1]+t3376)
			r_A_r5 := m.LoadF(t3377)
			t3378 := i_i
			if t3378 < 0 || t3378 >= d_A[0] {
				return m.OOB(t3378, d_A[0], 0, "A", 7, 96)
			}
			t3379 := i_j + int64(1)
			t3380 := t3379
			if t3380 < 0 || t3380 >= d_A[1] {
				return m.OOB(t3380, d_A[1], 1, "A", 7, 96)
			}
			t3381 := b_A + int((t3378)*d_A[1]+t3380)
			r_A_r6 := m.LoadF(t3381)
			t3382 := i_i + int64(1)
			t3383 := t3382
			if t3383 < 0 || t3383 >= d_A[0] {
				return m.OOB(t3383, d_A[0], 0, "A", 7, 110)
			}
			t3384 := i_j - int64(1)
			t3385 := t3384
			if t3385 < 0 || t3385 >= d_A[1] {
				return m.OOB(t3385, d_A[1], 1, "A", 7, 110)
			}
			t3386 := b_A + int((t3383)*d_A[1]+t3385)
			r_A_r7 := m.LoadF(t3386)
			t3387 := i_i + int64(1)
			t3388 := t3387
			if t3388 < 0 || t3388 >= d_A[0] {
				return m.OOB(t3388, d_A[0], 0, "A", 7, 128)
			}
			t3389 := i_j
			if t3389 < 0 || t3389 >= d_A[1] {
				return m.OOB(t3389, d_A[1], 1, "A", 7, 128)
			}
			t3390 := b_A + int((t3388)*d_A[1]+t3389)
			r_A_r8 := m.LoadF(t3390)
			t3391 := i_i + int64(1)
			t3392 := t3391
			if t3392 < 0 || t3392 >= d_A[0] {
				return m.OOB(t3392, d_A[0], 0, "A", 7, 142)
			}
			t3393 := i_j + int64(1)
			t3394 := t3393
			if t3394 < 0 || t3394 >= d_A[1] {
				return m.OOB(t3394, d_A[1], 1, "A", 7, 142)
			}
			t3395 := b_A + int((t3392)*d_A[1]+t3394)
			r_A_r9 := m.LoadF(t3395)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r9), int64(1))
			t3396 := float64(r_A_r + r_A_r2)
			t3397 := float64(t3396 + r_A_r3)
			t3398 := float64(t3397 + r_A_r4)
			t3399 := float64(t3398 + r_A_r5)
			t3400 := float64(t3399 + r_A_r6)
			t3401 := float64(t3400 + r_A_r7)
			t3402 := float64(t3401 + r_A_r8)
			t3403 := float64(t3402 + r_A_r9)
			if float64(9) == 0 {
				return m.DivZero(7, 159)
			}
			t3404 := float64(t3403 / float64(9))
			r_A_w := t3404
			t3405 := i_i
			if t3405 < 0 || t3405 >= d_A[0] {
				return m.OOB(t3405, d_A[0], 0, "A", 7, 11)
			}
			t3406 := i_j
			if t3406 < 0 || t3406 >= d_A[1] {
				return m.OOB(t3406, d_A[1], 1, "A", 7, 11)
			}
			t3407 := b_A + int((t3405)*d_A[1]+t3406)
			m.StoreF(t3407, r_A_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), int64(1))
		}
	}
	return nil
}
