// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_lu_original executes the Original variant of the LU benchmark natively.
func run_lu_original(m *codegen.Machine, epoch, epochs int) error {
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
	for i_k := start; i_k <= end; i_k++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		t2 := i_k + int64(1)
		t3 := p_n - int64(1)
		for i_j := t2; i_j <= t3; i_j++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t4 := i_k
			if t4 < 0 || t4 >= d_A[0] {
				return m.OOB(t4, d_A[0], 0, "A", 6, 19)
			}
			t5 := i_j
			if t5 < 0 || t5 >= d_A[1] {
				return m.OOB(t5, d_A[1], 1, "A", 6, 19)
			}
			t6 := b_A + int((t4)*d_A[1]+t5)
			t7 := m.LoadF(t6)
			t8 := i_k
			if t8 < 0 || t8 >= d_A[0] {
				return m.OOB(t8, d_A[0], 0, "A", 6, 29)
			}
			t9 := i_k
			if t9 < 0 || t9 >= d_A[1] {
				return m.OOB(t9, d_A[1], 1, "A", 6, 29)
			}
			t10 := b_A + int((t8)*d_A[1]+t9)
			t11 := m.LoadF(t10)
			if t11 == 0 {
				return m.DivZero(6, 27)
			}
			t12 := float64(t7 / t11)
			t13 := i_k
			if t13 < 0 || t13 >= d_A[0] {
				return m.OOB(t13, d_A[0], 0, "A", 6, 9)
			}
			t14 := i_j
			if t14 < 0 || t14 >= d_A[1] {
				return m.OOB(t14, d_A[1], 1, "A", 6, 9)
			}
			t15 := b_A + int((t13)*d_A[1]+t14)
			m.StoreF(t15, t12)
		}
		t16 := i_k + int64(1)
		t17 := p_n - int64(1)
		for i_i := t16; i_i <= t17; i_i++ {
			if err := m.Tick(8, 3); err != nil {
				return err
			}
			t18 := i_k + int64(1)
			t19 := p_n - int64(1)
			for i_j := t18; i_j <= t19; i_j++ {
				if err := m.Tick(9, 5); err != nil {
					return err
				}
				t20 := i_i
				if t20 < 0 || t20 >= d_A[0] {
					return m.OOB(t20, d_A[0], 0, "A", 10, 21)
				}
				t21 := i_j
				if t21 < 0 || t21 >= d_A[1] {
					return m.OOB(t21, d_A[1], 1, "A", 10, 21)
				}
				t22 := b_A + int((t20)*d_A[1]+t21)
				t23 := m.LoadF(t22)
				t24 := i_i
				if t24 < 0 || t24 >= d_A[0] {
					return m.OOB(t24, d_A[0], 0, "A", 10, 31)
				}
				t25 := i_k
				if t25 < 0 || t25 >= d_A[1] {
					return m.OOB(t25, d_A[1], 1, "A", 10, 31)
				}
				t26 := b_A + int((t24)*d_A[1]+t25)
				t27 := m.LoadF(t26)
				t28 := i_k
				if t28 < 0 || t28 >= d_A[0] {
					return m.OOB(t28, d_A[0], 0, "A", 10, 41)
				}
				t29 := i_j
				if t29 < 0 || t29 >= d_A[1] {
					return m.OOB(t29, d_A[1], 1, "A", 10, 41)
				}
				t30 := b_A + int((t28)*d_A[1]+t29)
				t31 := m.LoadF(t30)
				t32 := float64(t27 * t31)
				t33 := float64(t23 - t32)
				t34 := i_i
				if t34 < 0 || t34 >= d_A[0] {
					return m.OOB(t34, d_A[0], 0, "A", 10, 11)
				}
				t35 := i_j
				if t35 < 0 || t35 >= d_A[1] {
					return m.OOB(t35, d_A[1], 1, "A", 10, 11)
				}
				t36 := b_A + int((t34)*d_A[1]+t35)
				m.StoreF(t36, t33)
			}
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_lu_resilient executes the Resilient variant of the LU benchmark natively.
func run_lu_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_lu_resilient_n1(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t74 := p_n - int64(1)
		m.SetBounds(int64(0), t74)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_k := start; i_k <= end; i_k++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		if err := run_lu_resilient_n2(m, &cs, p_n, b_A, d_A, i_k); err != nil {
			return err
		}
		if err := run_lu_resilient_n3(m, &cs, p_n, b_A, d_A, i_k); err != nil {
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

func run_lu_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
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
			t4 := -i_li0
			t5 := t4 + i_li1
			t6 := t5 - int64(1)
			t3 := t6 >= int64(0)
			if t3 {
				t7 := -i_li0
				t3 = t7 >= int64(0)
			}
			if t3 {
				t8 := i_li0
				if t8 < 0 || t8 >= d_A[0] {
					return m.OOB(t8, d_A[0], 0, "A", 0, 0)
				}
				t9 := i_li1
				if t9 < 0 || t9 >= d_A[1] {
					return m.OOB(t9, d_A[1], 1, "A", 0, 0)
				}
				t10 := b_A + int((t8)*d_A[1]+t9)
				t11 := m.LoadF(t10)
				cs.Fold(checksum.AccDef, math.Float64bits(t11), int64(1))
			}
			t14 := -i_li0
			t13 := t14 >= int64(0)
			if t13 {
				t15 := i_li0 - i_li1
				t13 = t15 == int64(0)
			}
			t12 := t13
			if t12 {
				t16 := -i_li0
				t17 := t16 + p_n
				t18 := t17 - int64(2)
				t12 = t18 >= int64(0)
			}
			if t12 {
				t19 := i_li0
				if t19 < 0 || t19 >= d_A[0] {
					return m.OOB(t19, d_A[0], 0, "A", 0, 0)
				}
				t20 := i_li1
				if t20 < 0 || t20 >= d_A[1] {
					return m.OOB(t20, d_A[1], 1, "A", 0, 0)
				}
				t21 := b_A + int((t19)*d_A[1]+t20)
				t22 := m.LoadF(t21)
				t23 := -i_li0
				t24 := t23 + p_n
				t25 := t24 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(t22), t25)
			}
			t28 := i_li0 - int64(1)
			t27 := t28 >= int64(0)
			if t27 {
				t29 := -i_li0
				t30 := t29 + i_li1
				t27 = t30 >= int64(0)
			}
			t26 := t27
			if t26 {
				t31 := -i_li0
				t32 := t31 + int64(1)
				t26 = t32 >= int64(0)
			}
			if t26 {
				t33 := i_li0
				if t33 < 0 || t33 >= d_A[0] {
					return m.OOB(t33, d_A[0], 0, "A", 0, 0)
				}
				t34 := i_li1
				if t34 < 0 || t34 >= d_A[1] {
					return m.OOB(t34, d_A[1], 1, "A", 0, 0)
				}
				t35 := b_A + int((t33)*d_A[1]+t34)
				t36 := m.LoadF(t35)
				cs.Fold(checksum.AccDef, math.Float64bits(t36), i_li0)
			}
			t38 := -i_li0
			t39 := t38 + i_li1
			t37 := t39 >= int64(0)
			if t37 {
				t40 := i_li0 - int64(2)
				t37 = t40 >= int64(0)
			}
			if t37 {
				t41 := i_li0
				if t41 < 0 || t41 >= d_A[0] {
					return m.OOB(t41, d_A[0], 0, "A", 0, 0)
				}
				t42 := i_li1
				if t42 < 0 || t42 >= d_A[1] {
					return m.OOB(t42, d_A[1], 1, "A", 0, 0)
				}
				t43 := b_A + int((t41)*d_A[1]+t42)
				t44 := m.LoadF(t43)
				cs.Fold(checksum.AccDef, math.Float64bits(t44), int64(1))
			}
			t47 := i_li1 - int64(1)
			t46 := t47 >= int64(0)
			if t46 {
				t48 := i_li0 - i_li1
				t49 := t48 - int64(1)
				t46 = t49 >= int64(0)
			}
			t45 := t46
			if t45 {
				t50 := -i_li1
				t51 := t50 + int64(1)
				t45 = t51 >= int64(0)
			}
			if t45 {
				t52 := i_li0
				if t52 < 0 || t52 >= d_A[0] {
					return m.OOB(t52, d_A[0], 0, "A", 0, 0)
				}
				t53 := i_li1
				if t53 < 0 || t53 >= d_A[1] {
					return m.OOB(t53, d_A[1], 1, "A", 0, 0)
				}
				t54 := b_A + int((t52)*d_A[1]+t53)
				t55 := m.LoadF(t54)
				cs.Fold(checksum.AccDef, math.Float64bits(t55), i_li1)
			}
			t57 := i_li0 - i_li1
			t58 := t57 - int64(1)
			t56 := t58 >= int64(0)
			if t56 {
				t59 := i_li1 - int64(2)
				t56 = t59 >= int64(0)
			}
			if t56 {
				t60 := i_li0
				if t60 < 0 || t60 >= d_A[0] {
					return m.OOB(t60, d_A[0], 0, "A", 0, 0)
				}
				t61 := i_li1
				if t61 < 0 || t61 >= d_A[1] {
					return m.OOB(t61, d_A[1], 1, "A", 0, 0)
				}
				t62 := b_A + int((t60)*d_A[1]+t61)
				t63 := m.LoadF(t62)
				cs.Fold(checksum.AccDef, math.Float64bits(t63), int64(1))
			}
			t65 := i_li0 - int64(1)
			t64 := t65 >= int64(0)
			if t64 {
				t66 := -i_li1
				t64 = t66 >= int64(0)
			}
			if t64 {
				t67 := i_li0
				if t67 < 0 || t67 >= d_A[0] {
					return m.OOB(t67, d_A[0], 0, "A", 0, 0)
				}
				t68 := i_li1
				if t68 < 0 || t68 >= d_A[1] {
					return m.OOB(t68, d_A[1], 1, "A", 0, 0)
				}
				t69 := b_A + int((t67)*d_A[1]+t68)
				t70 := m.LoadF(t69)
				t71 := -i_li1
				t72 := t71 + p_n
				t73 := t72 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(t70), t73)
			}
		}
	}
	return nil
}

func run_lu_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t75 := i_k + int64(1)
	t76 := p_n - int64(1)
	for i_j := t75; i_j <= t76; i_j++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t77 := i_k
		if t77 < 0 || t77 >= d_A[0] {
			return m.OOB(t77, d_A[0], 0, "A", 6, 19)
		}
		t78 := i_j
		if t78 < 0 || t78 >= d_A[1] {
			return m.OOB(t78, d_A[1], 1, "A", 6, 19)
		}
		t79 := b_A + int((t77)*d_A[1]+t78)
		r_A_r := m.LoadF(t79)
		t80 := i_k
		if t80 < 0 || t80 >= d_A[0] {
			return m.OOB(t80, d_A[0], 0, "A", 6, 29)
		}
		t81 := i_k
		if t81 < 0 || t81 >= d_A[1] {
			return m.OOB(t81, d_A[1], 1, "A", 6, 29)
		}
		t82 := b_A + int((t80)*d_A[1]+t81)
		r_A_r2 := m.LoadF(t82)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		if r_A_r2 == 0 {
			return m.DivZero(6, 27)
		}
		t83 := float64(r_A_r / r_A_r2)
		r_A_w := t83
		t84 := i_k
		if t84 < 0 || t84 >= d_A[0] {
			return m.OOB(t84, d_A[0], 0, "A", 6, 9)
		}
		t85 := i_j
		if t85 < 0 || t85 >= d_A[1] {
			return m.OOB(t85, d_A[1], 1, "A", 6, 9)
		}
		t86 := b_A + int((t84)*d_A[1]+t85)
		m.StoreF(t86, r_A_w)
		t87 := -i_k
		t88 := t87 + p_n
		t89 := t88 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t89)
	}
	return nil
}

func run_lu_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t90 := i_k + int64(1)
	t91 := p_n - int64(1)
	for i_i := t90; i_i <= t91; i_i++ {
		if err := m.Tick(8, 3); err != nil {
			return err
		}
		t92 := i_k + int64(1)
		t93 := p_n - int64(1)
		for i_j := t92; i_j <= t93; i_j++ {
			if err := m.Tick(9, 5); err != nil {
				return err
			}
			t94 := i_i
			if t94 < 0 || t94 >= d_A[0] {
				return m.OOB(t94, d_A[0], 0, "A", 10, 21)
			}
			t95 := i_j
			if t95 < 0 || t95 >= d_A[1] {
				return m.OOB(t95, d_A[1], 1, "A", 10, 21)
			}
			t96 := b_A + int((t94)*d_A[1]+t95)
			r_A_r3 := m.LoadF(t96)
			t97 := i_i
			if t97 < 0 || t97 >= d_A[0] {
				return m.OOB(t97, d_A[0], 0, "A", 10, 31)
			}
			t98 := i_k
			if t98 < 0 || t98 >= d_A[1] {
				return m.OOB(t98, d_A[1], 1, "A", 10, 31)
			}
			t99 := b_A + int((t97)*d_A[1]+t98)
			r_A_r4 := m.LoadF(t99)
			t100 := i_k
			if t100 < 0 || t100 >= d_A[0] {
				return m.OOB(t100, d_A[0], 0, "A", 10, 41)
			}
			t101 := i_j
			if t101 < 0 || t101 >= d_A[1] {
				return m.OOB(t101, d_A[1], 1, "A", 10, 41)
			}
			t102 := b_A + int((t100)*d_A[1]+t101)
			r_A_r5 := m.LoadF(t102)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t103 := float64(r_A_r4 * r_A_r5)
			t104 := float64(r_A_r3 - t103)
			r_A_w2 := t104
			t105 := i_i
			if t105 < 0 || t105 >= d_A[0] {
				return m.OOB(t105, d_A[0], 0, "A", 10, 11)
			}
			t106 := i_j
			if t106 < 0 || t106 >= d_A[1] {
				return m.OOB(t106, d_A[1], 1, "A", 10, 11)
			}
			t107 := b_A + int((t105)*d_A[1]+t106)
			m.StoreF(t107, r_A_w2)
			t109 := -i_i
			t110 := t109 + i_j
			t111 := t110 - int64(1)
			t108 := t111 >= int64(0)
			if t108 {
				t112 := -i_i
				t113 := t112 + i_k
				t114 := t113 + int64(1)
				t108 = t114 >= int64(0)
			}
			if t108 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), int64(1))
			}
			t117 := -i_i
			t118 := t117 + i_j
			t116 := t118 == int64(0)
			if t116 {
				t119 := -i_i
				t120 := t119 + i_k
				t121 := t120 + int64(1)
				t116 = t121 >= int64(0)
			}
			t115 := t116
			if t115 {
				t122 := -i_i
				t123 := t122 + p_n
				t124 := t123 - int64(2)
				t115 = t124 >= int64(0)
			}
			if t115 {
				t125 := -i_i
				t126 := t125 + p_n
				t127 := t126 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t127)
			}
			t130 := i_i - i_k
			t131 := t130 - int64(2)
			t129 := t131 >= int64(0)
			if t129 {
				t132 := -i_i
				t133 := t132 + i_j
				t129 = t133 >= int64(0)
			}
			t128 := t129
			if t128 {
				t134 := -i_i
				t135 := t134 + i_k
				t136 := t135 + int64(2)
				t128 = t136 >= int64(0)
			}
			if t128 {
				t137 := i_i - i_k
				t138 := t137 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t138)
			}
			t140 := -i_i
			t141 := t140 + i_j
			t139 := t141 >= int64(0)
			if t139 {
				t142 := i_i - i_k
				t143 := t142 - int64(3)
				t139 = t143 >= int64(0)
			}
			if t139 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), int64(1))
			}
			t146 := i_j - i_k
			t147 := t146 - int64(2)
			t145 := t147 >= int64(0)
			if t145 {
				t148 := i_i - i_j
				t149 := t148 - int64(1)
				t145 = t149 >= int64(0)
			}
			t144 := t145
			if t144 {
				t150 := -i_j
				t151 := t150 + i_k
				t152 := t151 + int64(2)
				t144 = t152 >= int64(0)
			}
			if t144 {
				t153 := i_j - i_k
				t154 := t153 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t154)
			}
			t156 := i_i - i_j
			t157 := t156 - int64(1)
			t155 := t157 >= int64(0)
			if t155 {
				t158 := i_j - i_k
				t159 := t158 - int64(3)
				t155 = t159 >= int64(0)
			}
			if t155 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), int64(1))
			}
			t161 := i_i - i_k
			t162 := t161 - int64(2)
			t160 := t162 >= int64(0)
			if t160 {
				t163 := -i_j
				t164 := t163 + i_k
				t165 := t164 + int64(1)
				t160 = t165 >= int64(0)
			}
			if t160 {
				t166 := -i_j
				t167 := t166 + p_n
				t168 := t167 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t168)
			}
		}
	}
	return nil
}

// run_lu_resilientopt executes the Resilient-Optimized variant of the LU benchmark natively.
func run_lu_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_n := m.Param("n")
	b_A, d_A := m.Var("A")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_lu_resilientopt_n1(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n2(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n3(m, &cs, p_n, b_A, d_A); err != nil {
			return err
		}
		t70 := p_n - int64(1)
		m.SetBounds(int64(0), t70)
	}
	lo, hi, ok := m.Bounds()
	if !ok {
		return codegen.ErrNoBounds(epoch)
	}
	start, end := codegen.Slice(lo, hi, epoch, epochs)
	for i_k := start; i_k <= end; i_k++ {
		if err := m.Tick(4, 1); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n4(m, &cs, p_n, b_A, d_A, i_k); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n5(m, &cs, p_n, b_A, d_A, i_k); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n6(m, &cs, p_n, b_A, d_A, i_k); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n7(m, &cs, p_n, b_A, d_A, i_k); err != nil {
			return err
		}
		if err := run_lu_resilientopt_n8(m, &cs, p_n, b_A, d_A, i_k); err != nil {
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

func run_lu_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t1 := p_n - int64(2)
	t2 := codegen.MinI(t1, int64(0))
	for i_li0 := int64(0); i_li0 <= t2; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3 := p_n - int64(1)
		t4 := codegen.MinI(t3, i_li0)
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
			t9 := -i_li0
			t10 := t9 + p_n
			t11 := t10 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t8), t11)
		}
		t12 := i_li0 + int64(1)
		t13 := codegen.MaxI(int64(0), t12)
		t14 := p_n - int64(1)
		for i_li1 := t13; i_li1 <= t14; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t15 := i_li0
			if t15 < 0 || t15 >= d_A[0] {
				return m.OOB(t15, d_A[0], 0, "A", 0, 0)
			}
			t16 := i_li1
			if t16 < 0 || t16 >= d_A[1] {
				return m.OOB(t16, d_A[1], 1, "A", 0, 0)
			}
			t17 := b_A + int((t15)*d_A[1]+t16)
			t18 := m.LoadF(t17)
			cs.Fold(checksum.AccDef, math.Float64bits(t18), int64(1))
		}
	}
	return nil
}

func run_lu_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t19 := p_n - int64(1)
	t20 := codegen.MinI(t19, int64(1))
	for i_li0 := int64(1); i_li0 <= t20; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t21 := p_n - int64(1)
		t22 := i_li0 - int64(1)
		t23 := codegen.MinI(t21, t22)
		for i_li1 := int64(0); i_li1 <= t23; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
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
			t28 := -i_li1
			t29 := t28 + p_n
			t30 := t29 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t27), t30)
		}
		t31 := codegen.MaxI(int64(0), i_li0)
		t32 := p_n - int64(1)
		for i_li1 := t31; i_li1 <= t32; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t33 := i_li0
			if t33 < 0 || t33 >= d_A[0] {
				return m.OOB(t33, d_A[0], 0, "A", 0, 0)
			}
			t34 := i_li1
			if t34 < 0 || t34 >= d_A[1] {
				return m.OOB(t34, d_A[1], 1, "A", 0, 0)
			}
			t35 := b_A + int((t33)*d_A[1]+t34)
			t36 := m.LoadF(t35)
			cs.Fold(checksum.AccDef, math.Float64bits(t36), i_li0)
		}
	}
	return nil
}

func run_lu_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64) error {
	t37 := p_n - int64(1)
	for i_li0 := int64(2); i_li0 <= t37; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t38 := p_n - int64(1)
		t39 := i_li0 - int64(1)
		t40 := codegen.MinI(t38, t39)
		t41 := codegen.MinI(t40, int64(0))
		for i_li1 := int64(0); i_li1 <= t41; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t42 := i_li0
			if t42 < 0 || t42 >= d_A[0] {
				return m.OOB(t42, d_A[0], 0, "A", 0, 0)
			}
			t43 := i_li1
			if t43 < 0 || t43 >= d_A[1] {
				return m.OOB(t43, d_A[1], 1, "A", 0, 0)
			}
			t44 := b_A + int((t42)*d_A[1]+t43)
			t45 := m.LoadF(t44)
			t46 := -i_li1
			t47 := t46 + p_n
			t48 := t47 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(t45), t48)
		}
		t49 := p_n - int64(1)
		t50 := i_li0 - int64(1)
		t51 := codegen.MinI(t49, t50)
		t52 := codegen.MinI(t51, int64(1))
		for i_li1 := int64(1); i_li1 <= t52; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t53 := i_li0
			if t53 < 0 || t53 >= d_A[0] {
				return m.OOB(t53, d_A[0], 0, "A", 0, 0)
			}
			t54 := i_li1
			if t54 < 0 || t54 >= d_A[1] {
				return m.OOB(t54, d_A[1], 1, "A", 0, 0)
			}
			t55 := b_A + int((t53)*d_A[1]+t54)
			t56 := m.LoadF(t55)
			cs.Fold(checksum.AccDef, math.Float64bits(t56), i_li1)
		}
		t57 := p_n - int64(1)
		t58 := i_li0 - int64(1)
		t59 := codegen.MinI(t57, t58)
		for i_li1 := int64(2); i_li1 <= t59; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t60 := i_li0
			if t60 < 0 || t60 >= d_A[0] {
				return m.OOB(t60, d_A[0], 0, "A", 0, 0)
			}
			t61 := i_li1
			if t61 < 0 || t61 >= d_A[1] {
				return m.OOB(t61, d_A[1], 1, "A", 0, 0)
			}
			t62 := b_A + int((t60)*d_A[1]+t61)
			t63 := m.LoadF(t62)
			cs.Fold(checksum.AccDef, math.Float64bits(t63), int64(1))
		}
		t64 := codegen.MaxI(int64(0), i_li0)
		t65 := p_n - int64(1)
		for i_li1 := t64; i_li1 <= t65; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t66 := i_li0
			if t66 < 0 || t66 >= d_A[0] {
				return m.OOB(t66, d_A[0], 0, "A", 0, 0)
			}
			t67 := i_li1
			if t67 < 0 || t67 >= d_A[1] {
				return m.OOB(t67, d_A[1], 1, "A", 0, 0)
			}
			t68 := b_A + int((t66)*d_A[1]+t67)
			t69 := m.LoadF(t68)
			cs.Fold(checksum.AccDef, math.Float64bits(t69), int64(1))
		}
	}
	return nil
}

func run_lu_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t71 := i_k + int64(1)
	t72 := p_n - int64(1)
	for i_j := t71; i_j <= t72; i_j++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		t73 := i_k
		if t73 < 0 || t73 >= d_A[0] {
			return m.OOB(t73, d_A[0], 0, "A", 6, 19)
		}
		t74 := i_j
		if t74 < 0 || t74 >= d_A[1] {
			return m.OOB(t74, d_A[1], 1, "A", 6, 19)
		}
		t75 := b_A + int((t73)*d_A[1]+t74)
		r_A_r := m.LoadF(t75)
		t76 := i_k
		if t76 < 0 || t76 >= d_A[0] {
			return m.OOB(t76, d_A[0], 0, "A", 6, 29)
		}
		t77 := i_k
		if t77 < 0 || t77 >= d_A[1] {
			return m.OOB(t77, d_A[1], 1, "A", 6, 29)
		}
		t78 := b_A + int((t76)*d_A[1]+t77)
		r_A_r2 := m.LoadF(t78)
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		if r_A_r2 == 0 {
			return m.DivZero(6, 27)
		}
		t79 := float64(r_A_r / r_A_r2)
		r_A_w := t79
		t80 := i_k
		if t80 < 0 || t80 >= d_A[0] {
			return m.OOB(t80, d_A[0], 0, "A", 6, 9)
		}
		t81 := i_j
		if t81 < 0 || t81 >= d_A[1] {
			return m.OOB(t81, d_A[1], 1, "A", 6, 9)
		}
		t82 := b_A + int((t80)*d_A[1]+t81)
		m.StoreF(t82, r_A_w)
		t83 := -i_k
		t84 := t83 + p_n
		t85 := t84 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_A_w), t85)
	}
	return nil
}

func run_lu_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t86 := i_k + int64(1)
	t87 := p_n - int64(2)
	t88 := i_k + int64(1)
	t89 := codegen.MinI(t87, t88)
	for i_i := t86; i_i <= t89; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t90 := i_k + int64(1)
		t91 := p_n - int64(1)
		t92 := codegen.MinI(t91, i_i)
		for i_j := t90; i_j <= t92; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t93 := i_i
			if t93 < 0 || t93 >= d_A[0] {
				return m.OOB(t93, d_A[0], 0, "A", 10, 21)
			}
			t94 := i_j
			if t94 < 0 || t94 >= d_A[1] {
				return m.OOB(t94, d_A[1], 1, "A", 10, 21)
			}
			t95 := b_A + int((t93)*d_A[1]+t94)
			r_A_r3 := m.LoadF(t95)
			t96 := i_i
			if t96 < 0 || t96 >= d_A[0] {
				return m.OOB(t96, d_A[0], 0, "A", 10, 31)
			}
			t97 := i_k
			if t97 < 0 || t97 >= d_A[1] {
				return m.OOB(t97, d_A[1], 1, "A", 10, 31)
			}
			t98 := b_A + int((t96)*d_A[1]+t97)
			r_A_r4 := m.LoadF(t98)
			t99 := i_k
			if t99 < 0 || t99 >= d_A[0] {
				return m.OOB(t99, d_A[0], 0, "A", 10, 41)
			}
			t100 := i_j
			if t100 < 0 || t100 >= d_A[1] {
				return m.OOB(t100, d_A[1], 1, "A", 10, 41)
			}
			t101 := b_A + int((t99)*d_A[1]+t100)
			r_A_r5 := m.LoadF(t101)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t102 := float64(r_A_r4 * r_A_r5)
			t103 := float64(r_A_r3 - t102)
			r_A_w2 := t103
			t104 := i_i
			if t104 < 0 || t104 >= d_A[0] {
				return m.OOB(t104, d_A[0], 0, "A", 10, 11)
			}
			t105 := i_j
			if t105 < 0 || t105 >= d_A[1] {
				return m.OOB(t105, d_A[1], 1, "A", 10, 11)
			}
			t106 := b_A + int((t104)*d_A[1]+t105)
			m.StoreF(t106, r_A_w2)
			t107 := -i_i
			t108 := t107 + p_n
			t109 := t108 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t109)
		}
		t110 := i_k + int64(1)
		t111 := i_i + int64(1)
		t112 := codegen.MaxI(t110, t111)
		t113 := p_n - int64(1)
		for i_j := t112; i_j <= t113; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t114 := i_i
			if t114 < 0 || t114 >= d_A[0] {
				return m.OOB(t114, d_A[0], 0, "A", 10, 21)
			}
			t115 := i_j
			if t115 < 0 || t115 >= d_A[1] {
				return m.OOB(t115, d_A[1], 1, "A", 10, 21)
			}
			t116 := b_A + int((t114)*d_A[1]+t115)
			r_A_r3 := m.LoadF(t116)
			t117 := i_i
			if t117 < 0 || t117 >= d_A[0] {
				return m.OOB(t117, d_A[0], 0, "A", 10, 31)
			}
			t118 := i_k
			if t118 < 0 || t118 >= d_A[1] {
				return m.OOB(t118, d_A[1], 1, "A", 10, 31)
			}
			t119 := b_A + int((t117)*d_A[1]+t118)
			r_A_r4 := m.LoadF(t119)
			t120 := i_k
			if t120 < 0 || t120 >= d_A[0] {
				return m.OOB(t120, d_A[0], 0, "A", 10, 41)
			}
			t121 := i_j
			if t121 < 0 || t121 >= d_A[1] {
				return m.OOB(t121, d_A[1], 1, "A", 10, 41)
			}
			t122 := b_A + int((t120)*d_A[1]+t121)
			r_A_r5 := m.LoadF(t122)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t123 := float64(r_A_r4 * r_A_r5)
			t124 := float64(r_A_r3 - t123)
			r_A_w2 := t124
			t125 := i_i
			if t125 < 0 || t125 >= d_A[0] {
				return m.OOB(t125, d_A[0], 0, "A", 10, 11)
			}
			t126 := i_j
			if t126 < 0 || t126 >= d_A[1] {
				return m.OOB(t126, d_A[1], 1, "A", 10, 11)
			}
			t127 := b_A + int((t125)*d_A[1]+t126)
			m.StoreF(t127, r_A_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), int64(1))
		}
	}
	return nil
}

func run_lu_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t128 := i_k + int64(1)
	t129 := p_n - int64(1)
	t130 := codegen.MaxI(t128, t129)
	t131 := p_n - int64(1)
	t132 := i_k + int64(1)
	t133 := codegen.MinI(t131, t132)
	for i_i := t130; i_i <= t133; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t134 := i_k + int64(1)
		t135 := p_n - int64(1)
		for i_j := t134; i_j <= t135; i_j++ {
			if err := m.Tick(9, 5); err != nil {
				return err
			}
			t136 := i_i
			if t136 < 0 || t136 >= d_A[0] {
				return m.OOB(t136, d_A[0], 0, "A", 10, 21)
			}
			t137 := i_j
			if t137 < 0 || t137 >= d_A[1] {
				return m.OOB(t137, d_A[1], 1, "A", 10, 21)
			}
			t138 := b_A + int((t136)*d_A[1]+t137)
			r_A_r3 := m.LoadF(t138)
			t139 := i_i
			if t139 < 0 || t139 >= d_A[0] {
				return m.OOB(t139, d_A[0], 0, "A", 10, 31)
			}
			t140 := i_k
			if t140 < 0 || t140 >= d_A[1] {
				return m.OOB(t140, d_A[1], 1, "A", 10, 31)
			}
			t141 := b_A + int((t139)*d_A[1]+t140)
			r_A_r4 := m.LoadF(t141)
			t142 := i_k
			if t142 < 0 || t142 >= d_A[0] {
				return m.OOB(t142, d_A[0], 0, "A", 10, 41)
			}
			t143 := i_j
			if t143 < 0 || t143 >= d_A[1] {
				return m.OOB(t143, d_A[1], 1, "A", 10, 41)
			}
			t144 := b_A + int((t142)*d_A[1]+t143)
			r_A_r5 := m.LoadF(t144)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t145 := float64(r_A_r4 * r_A_r5)
			t146 := float64(r_A_r3 - t145)
			r_A_w2 := t146
			t147 := i_i
			if t147 < 0 || t147 >= d_A[0] {
				return m.OOB(t147, d_A[0], 0, "A", 10, 11)
			}
			t148 := i_j
			if t148 < 0 || t148 >= d_A[1] {
				return m.OOB(t148, d_A[1], 1, "A", 10, 11)
			}
			t149 := b_A + int((t147)*d_A[1]+t148)
			m.StoreF(t149, r_A_w2)
		}
	}
	return nil
}

func run_lu_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t150 := i_k + int64(2)
	t151 := p_n - int64(1)
	t152 := i_k + int64(2)
	t153 := codegen.MinI(t151, t152)
	for i_i := t150; i_i <= t153; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t154 := i_k + int64(1)
		t155 := p_n - int64(1)
		t156 := i_i - int64(1)
		t157 := codegen.MinI(t155, t156)
		for i_j := t154; i_j <= t157; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t158 := i_i
			if t158 < 0 || t158 >= d_A[0] {
				return m.OOB(t158, d_A[0], 0, "A", 10, 21)
			}
			t159 := i_j
			if t159 < 0 || t159 >= d_A[1] {
				return m.OOB(t159, d_A[1], 1, "A", 10, 21)
			}
			t160 := b_A + int((t158)*d_A[1]+t159)
			r_A_r3 := m.LoadF(t160)
			t161 := i_i
			if t161 < 0 || t161 >= d_A[0] {
				return m.OOB(t161, d_A[0], 0, "A", 10, 31)
			}
			t162 := i_k
			if t162 < 0 || t162 >= d_A[1] {
				return m.OOB(t162, d_A[1], 1, "A", 10, 31)
			}
			t163 := b_A + int((t161)*d_A[1]+t162)
			r_A_r4 := m.LoadF(t163)
			t164 := i_k
			if t164 < 0 || t164 >= d_A[0] {
				return m.OOB(t164, d_A[0], 0, "A", 10, 41)
			}
			t165 := i_j
			if t165 < 0 || t165 >= d_A[1] {
				return m.OOB(t165, d_A[1], 1, "A", 10, 41)
			}
			t166 := b_A + int((t164)*d_A[1]+t165)
			r_A_r5 := m.LoadF(t166)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t167 := float64(r_A_r4 * r_A_r5)
			t168 := float64(r_A_r3 - t167)
			r_A_w2 := t168
			t169 := i_i
			if t169 < 0 || t169 >= d_A[0] {
				return m.OOB(t169, d_A[0], 0, "A", 10, 11)
			}
			t170 := i_j
			if t170 < 0 || t170 >= d_A[1] {
				return m.OOB(t170, d_A[1], 1, "A", 10, 11)
			}
			t171 := b_A + int((t169)*d_A[1]+t170)
			m.StoreF(t171, r_A_w2)
			t172 := -i_j
			t173 := t172 + p_n
			t174 := t173 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t174)
		}
		t175 := i_k + int64(1)
		t176 := codegen.MaxI(t175, i_i)
		t177 := p_n - int64(1)
		for i_j := t176; i_j <= t177; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t178 := i_i
			if t178 < 0 || t178 >= d_A[0] {
				return m.OOB(t178, d_A[0], 0, "A", 10, 21)
			}
			t179 := i_j
			if t179 < 0 || t179 >= d_A[1] {
				return m.OOB(t179, d_A[1], 1, "A", 10, 21)
			}
			t180 := b_A + int((t178)*d_A[1]+t179)
			r_A_r3 := m.LoadF(t180)
			t181 := i_i
			if t181 < 0 || t181 >= d_A[0] {
				return m.OOB(t181, d_A[0], 0, "A", 10, 31)
			}
			t182 := i_k
			if t182 < 0 || t182 >= d_A[1] {
				return m.OOB(t182, d_A[1], 1, "A", 10, 31)
			}
			t183 := b_A + int((t181)*d_A[1]+t182)
			r_A_r4 := m.LoadF(t183)
			t184 := i_k
			if t184 < 0 || t184 >= d_A[0] {
				return m.OOB(t184, d_A[0], 0, "A", 10, 41)
			}
			t185 := i_j
			if t185 < 0 || t185 >= d_A[1] {
				return m.OOB(t185, d_A[1], 1, "A", 10, 41)
			}
			t186 := b_A + int((t184)*d_A[1]+t185)
			r_A_r5 := m.LoadF(t186)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t187 := float64(r_A_r4 * r_A_r5)
			t188 := float64(r_A_r3 - t187)
			r_A_w2 := t188
			t189 := i_i
			if t189 < 0 || t189 >= d_A[0] {
				return m.OOB(t189, d_A[0], 0, "A", 10, 11)
			}
			t190 := i_j
			if t190 < 0 || t190 >= d_A[1] {
				return m.OOB(t190, d_A[1], 1, "A", 10, 11)
			}
			t191 := b_A + int((t189)*d_A[1]+t190)
			m.StoreF(t191, r_A_w2)
			t192 := i_i - i_k
			t193 := t192 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t193)
		}
	}
	return nil
}

func run_lu_resilientopt_n8(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_A int, d_A []int64, i_k int64) error {
	t194 := i_k + int64(3)
	t195 := p_n - int64(1)
	for i_i := t194; i_i <= t195; i_i++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t196 := i_k + int64(1)
		t197 := p_n - int64(1)
		t198 := i_i - int64(1)
		t199 := codegen.MinI(t197, t198)
		t200 := i_k + int64(1)
		t201 := codegen.MinI(t199, t200)
		for i_j := t196; i_j <= t201; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t202 := i_i
			if t202 < 0 || t202 >= d_A[0] {
				return m.OOB(t202, d_A[0], 0, "A", 10, 21)
			}
			t203 := i_j
			if t203 < 0 || t203 >= d_A[1] {
				return m.OOB(t203, d_A[1], 1, "A", 10, 21)
			}
			t204 := b_A + int((t202)*d_A[1]+t203)
			r_A_r3 := m.LoadF(t204)
			t205 := i_i
			if t205 < 0 || t205 >= d_A[0] {
				return m.OOB(t205, d_A[0], 0, "A", 10, 31)
			}
			t206 := i_k
			if t206 < 0 || t206 >= d_A[1] {
				return m.OOB(t206, d_A[1], 1, "A", 10, 31)
			}
			t207 := b_A + int((t205)*d_A[1]+t206)
			r_A_r4 := m.LoadF(t207)
			t208 := i_k
			if t208 < 0 || t208 >= d_A[0] {
				return m.OOB(t208, d_A[0], 0, "A", 10, 41)
			}
			t209 := i_j
			if t209 < 0 || t209 >= d_A[1] {
				return m.OOB(t209, d_A[1], 1, "A", 10, 41)
			}
			t210 := b_A + int((t208)*d_A[1]+t209)
			r_A_r5 := m.LoadF(t210)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t211 := float64(r_A_r4 * r_A_r5)
			t212 := float64(r_A_r3 - t211)
			r_A_w2 := t212
			t213 := i_i
			if t213 < 0 || t213 >= d_A[0] {
				return m.OOB(t213, d_A[0], 0, "A", 10, 11)
			}
			t214 := i_j
			if t214 < 0 || t214 >= d_A[1] {
				return m.OOB(t214, d_A[1], 1, "A", 10, 11)
			}
			t215 := b_A + int((t213)*d_A[1]+t214)
			m.StoreF(t215, r_A_w2)
			t216 := -i_j
			t217 := t216 + p_n
			t218 := t217 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t218)
		}
		t219 := i_k + int64(2)
		t220 := p_n - int64(1)
		t221 := i_i - int64(1)
		t222 := codegen.MinI(t220, t221)
		t223 := i_k + int64(2)
		t224 := codegen.MinI(t222, t223)
		for i_j := t219; i_j <= t224; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t225 := i_i
			if t225 < 0 || t225 >= d_A[0] {
				return m.OOB(t225, d_A[0], 0, "A", 10, 21)
			}
			t226 := i_j
			if t226 < 0 || t226 >= d_A[1] {
				return m.OOB(t226, d_A[1], 1, "A", 10, 21)
			}
			t227 := b_A + int((t225)*d_A[1]+t226)
			r_A_r3 := m.LoadF(t227)
			t228 := i_i
			if t228 < 0 || t228 >= d_A[0] {
				return m.OOB(t228, d_A[0], 0, "A", 10, 31)
			}
			t229 := i_k
			if t229 < 0 || t229 >= d_A[1] {
				return m.OOB(t229, d_A[1], 1, "A", 10, 31)
			}
			t230 := b_A + int((t228)*d_A[1]+t229)
			r_A_r4 := m.LoadF(t230)
			t231 := i_k
			if t231 < 0 || t231 >= d_A[0] {
				return m.OOB(t231, d_A[0], 0, "A", 10, 41)
			}
			t232 := i_j
			if t232 < 0 || t232 >= d_A[1] {
				return m.OOB(t232, d_A[1], 1, "A", 10, 41)
			}
			t233 := b_A + int((t231)*d_A[1]+t232)
			r_A_r5 := m.LoadF(t233)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t234 := float64(r_A_r4 * r_A_r5)
			t235 := float64(r_A_r3 - t234)
			r_A_w2 := t235
			t236 := i_i
			if t236 < 0 || t236 >= d_A[0] {
				return m.OOB(t236, d_A[0], 0, "A", 10, 11)
			}
			t237 := i_j
			if t237 < 0 || t237 >= d_A[1] {
				return m.OOB(t237, d_A[1], 1, "A", 10, 11)
			}
			t238 := b_A + int((t236)*d_A[1]+t237)
			m.StoreF(t238, r_A_w2)
			t239 := i_j - i_k
			t240 := t239 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), t240)
		}
		t241 := i_k + int64(3)
		t242 := p_n - int64(1)
		t243 := i_i - int64(1)
		t244 := codegen.MinI(t242, t243)
		for i_j := t241; i_j <= t244; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t245 := i_i
			if t245 < 0 || t245 >= d_A[0] {
				return m.OOB(t245, d_A[0], 0, "A", 10, 21)
			}
			t246 := i_j
			if t246 < 0 || t246 >= d_A[1] {
				return m.OOB(t246, d_A[1], 1, "A", 10, 21)
			}
			t247 := b_A + int((t245)*d_A[1]+t246)
			r_A_r3 := m.LoadF(t247)
			t248 := i_i
			if t248 < 0 || t248 >= d_A[0] {
				return m.OOB(t248, d_A[0], 0, "A", 10, 31)
			}
			t249 := i_k
			if t249 < 0 || t249 >= d_A[1] {
				return m.OOB(t249, d_A[1], 1, "A", 10, 31)
			}
			t250 := b_A + int((t248)*d_A[1]+t249)
			r_A_r4 := m.LoadF(t250)
			t251 := i_k
			if t251 < 0 || t251 >= d_A[0] {
				return m.OOB(t251, d_A[0], 0, "A", 10, 41)
			}
			t252 := i_j
			if t252 < 0 || t252 >= d_A[1] {
				return m.OOB(t252, d_A[1], 1, "A", 10, 41)
			}
			t253 := b_A + int((t251)*d_A[1]+t252)
			r_A_r5 := m.LoadF(t253)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t254 := float64(r_A_r4 * r_A_r5)
			t255 := float64(r_A_r3 - t254)
			r_A_w2 := t255
			t256 := i_i
			if t256 < 0 || t256 >= d_A[0] {
				return m.OOB(t256, d_A[0], 0, "A", 10, 11)
			}
			t257 := i_j
			if t257 < 0 || t257 >= d_A[1] {
				return m.OOB(t257, d_A[1], 1, "A", 10, 11)
			}
			t258 := b_A + int((t256)*d_A[1]+t257)
			m.StoreF(t258, r_A_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), int64(1))
		}
		t259 := i_k + int64(1)
		t260 := codegen.MaxI(t259, i_i)
		t261 := p_n - int64(1)
		for i_j := t260; i_j <= t261; i_j++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t262 := i_i
			if t262 < 0 || t262 >= d_A[0] {
				return m.OOB(t262, d_A[0], 0, "A", 10, 21)
			}
			t263 := i_j
			if t263 < 0 || t263 >= d_A[1] {
				return m.OOB(t263, d_A[1], 1, "A", 10, 21)
			}
			t264 := b_A + int((t262)*d_A[1]+t263)
			r_A_r3 := m.LoadF(t264)
			t265 := i_i
			if t265 < 0 || t265 >= d_A[0] {
				return m.OOB(t265, d_A[0], 0, "A", 10, 31)
			}
			t266 := i_k
			if t266 < 0 || t266 >= d_A[1] {
				return m.OOB(t266, d_A[1], 1, "A", 10, 31)
			}
			t267 := b_A + int((t265)*d_A[1]+t266)
			r_A_r4 := m.LoadF(t267)
			t268 := i_k
			if t268 < 0 || t268 >= d_A[0] {
				return m.OOB(t268, d_A[0], 0, "A", 10, 41)
			}
			t269 := i_j
			if t269 < 0 || t269 >= d_A[1] {
				return m.OOB(t269, d_A[1], 1, "A", 10, 41)
			}
			t270 := b_A + int((t268)*d_A[1]+t269)
			r_A_r5 := m.LoadF(t270)
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			t271 := float64(r_A_r4 * r_A_r5)
			t272 := float64(r_A_r3 - t271)
			r_A_w2 := t272
			t273 := i_i
			if t273 < 0 || t273 >= d_A[0] {
				return m.OOB(t273, d_A[0], 0, "A", 10, 11)
			}
			t274 := i_j
			if t274 < 0 || t274 >= d_A[1] {
				return m.OOB(t274, d_A[1], 1, "A", 10, 11)
			}
			t275 := b_A + int((t273)*d_A[1]+t274)
			m.StoreF(t275, r_A_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_A_w2), int64(1))
		}
	}
	return nil
}
