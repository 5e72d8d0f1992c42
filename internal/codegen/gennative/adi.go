// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

import (
	"math"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
)

// run_adi_original executes the Original variant of the ADI benchmark natively.
func run_adi_original(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_X, d_X := m.Var("X")
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
		t2 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t2; i_i1++ {
			if err := m.Tick(5, 3); err != nil {
				return err
			}
			t3 := p_n - int64(1)
			for i_i2 := int64(1); i_i2 <= t3; i_i2++ {
				if err := m.Tick(6, 5); err != nil {
					return err
				}
				t4 := i_i1
				if t4 < 0 || t4 >= d_X[0] {
					return m.OOB(t4, d_X[0], 0, "X", 7, 23)
				}
				t5 := i_i2
				if t5 < 0 || t5 >= d_X[1] {
					return m.OOB(t5, d_X[1], 1, "X", 7, 23)
				}
				t6 := b_X + int((t4)*d_X[1]+t5)
				t7 := m.LoadF(t6)
				t8 := i_i1
				if t8 < 0 || t8 >= d_X[0] {
					return m.OOB(t8, d_X[0], 0, "X", 7, 35)
				}
				t9 := i_i2 - int64(1)
				t10 := t9
				if t10 < 0 || t10 >= d_X[1] {
					return m.OOB(t10, d_X[1], 1, "X", 7, 35)
				}
				t11 := b_X + int((t8)*d_X[1]+t10)
				t12 := m.LoadF(t11)
				t13 := i_i1
				if t13 < 0 || t13 >= d_A[0] {
					return m.OOB(t13, d_A[0], 0, "A", 7, 51)
				}
				t14 := i_i2
				if t14 < 0 || t14 >= d_A[1] {
					return m.OOB(t14, d_A[1], 1, "A", 7, 51)
				}
				t15 := b_A + int((t13)*d_A[1]+t14)
				t16 := m.LoadF(t15)
				t17 := float64(t12 * t16)
				t18 := i_i1
				if t18 < 0 || t18 >= d_B[0] {
					return m.OOB(t18, d_B[0], 0, "B", 7, 63)
				}
				t19 := i_i2 - int64(1)
				t20 := t19
				if t20 < 0 || t20 >= d_B[1] {
					return m.OOB(t20, d_B[1], 1, "B", 7, 63)
				}
				t21 := b_B + int((t18)*d_B[1]+t20)
				t22 := m.LoadF(t21)
				if t22 == 0 {
					return m.DivZero(7, 61)
				}
				t23 := float64(t17 / t22)
				t24 := float64(t7 - t23)
				t25 := i_i1
				if t25 < 0 || t25 >= d_X[0] {
					return m.OOB(t25, d_X[0], 0, "X", 7, 11)
				}
				t26 := i_i2
				if t26 < 0 || t26 >= d_X[1] {
					return m.OOB(t26, d_X[1], 1, "X", 7, 11)
				}
				t27 := b_X + int((t25)*d_X[1]+t26)
				m.StoreF(t27, t24)
				t28 := i_i1
				if t28 < 0 || t28 >= d_B[0] {
					return m.OOB(t28, d_B[0], 0, "B", 8, 23)
				}
				t29 := i_i2
				if t29 < 0 || t29 >= d_B[1] {
					return m.OOB(t29, d_B[1], 1, "B", 8, 23)
				}
				t30 := b_B + int((t28)*d_B[1]+t29)
				t31 := m.LoadF(t30)
				t32 := i_i1
				if t32 < 0 || t32 >= d_A[0] {
					return m.OOB(t32, d_A[0], 0, "A", 8, 35)
				}
				t33 := i_i2
				if t33 < 0 || t33 >= d_A[1] {
					return m.OOB(t33, d_A[1], 1, "A", 8, 35)
				}
				t34 := b_A + int((t32)*d_A[1]+t33)
				t35 := m.LoadF(t34)
				t36 := i_i1
				if t36 < 0 || t36 >= d_A[0] {
					return m.OOB(t36, d_A[0], 0, "A", 8, 47)
				}
				t37 := i_i2
				if t37 < 0 || t37 >= d_A[1] {
					return m.OOB(t37, d_A[1], 1, "A", 8, 47)
				}
				t38 := b_A + int((t36)*d_A[1]+t37)
				t39 := m.LoadF(t38)
				t40 := float64(t35 * t39)
				t41 := i_i1
				if t41 < 0 || t41 >= d_B[0] {
					return m.OOB(t41, d_B[0], 0, "B", 8, 59)
				}
				t42 := i_i2 - int64(1)
				t43 := t42
				if t43 < 0 || t43 >= d_B[1] {
					return m.OOB(t43, d_B[1], 1, "B", 8, 59)
				}
				t44 := b_B + int((t41)*d_B[1]+t43)
				t45 := m.LoadF(t44)
				if t45 == 0 {
					return m.DivZero(8, 57)
				}
				t46 := float64(t40 / t45)
				t47 := float64(t31 - t46)
				t48 := i_i1
				if t48 < 0 || t48 >= d_B[0] {
					return m.OOB(t48, d_B[0], 0, "B", 8, 11)
				}
				t49 := i_i2
				if t49 < 0 || t49 >= d_B[1] {
					return m.OOB(t49, d_B[1], 1, "B", 8, 11)
				}
				t50 := b_B + int((t48)*d_B[1]+t49)
				m.StoreF(t50, t47)
			}
		}
		t51 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t51; i_i1++ {
			if err := m.Tick(11, 3); err != nil {
				return err
			}
			t52 := i_i1
			if t52 < 0 || t52 >= d_X[0] {
				return m.OOB(t52, d_X[0], 0, "X", 12, 24)
			}
			t53 := p_n - int64(1)
			t54 := t53
			if t54 < 0 || t54 >= d_X[1] {
				return m.OOB(t54, d_X[1], 1, "X", 12, 24)
			}
			t55 := b_X + int((t52)*d_X[1]+t54)
			t56 := m.LoadF(t55)
			t57 := i_i1
			if t57 < 0 || t57 >= d_B[0] {
				return m.OOB(t57, d_B[0], 0, "B", 12, 39)
			}
			t58 := p_n - int64(1)
			t59 := t58
			if t59 < 0 || t59 >= d_B[1] {
				return m.OOB(t59, d_B[1], 1, "B", 12, 39)
			}
			t60 := b_B + int((t57)*d_B[1]+t59)
			t61 := m.LoadF(t60)
			if t61 == 0 {
				return m.DivZero(12, 37)
			}
			t62 := float64(t56 / t61)
			t63 := i_i1
			if t63 < 0 || t63 >= d_X[0] {
				return m.OOB(t63, d_X[0], 0, "X", 12, 9)
			}
			t64 := p_n - int64(1)
			t65 := t64
			if t65 < 0 || t65 >= d_X[1] {
				return m.OOB(t65, d_X[1], 1, "X", 12, 9)
			}
			t66 := b_X + int((t63)*d_X[1]+t65)
			m.StoreF(t66, t62)
		}
		t67 := p_n - int64(1)
		for i_i1 := int64(0); i_i1 <= t67; i_i1++ {
			if err := m.Tick(14, 3); err != nil {
				return err
			}
			t68 := p_n - int64(3)
			for i_i2 := int64(0); i_i2 <= t68; i_i2++ {
				if err := m.Tick(15, 5); err != nil {
					return err
				}
				t69 := i_i1
				if t69 < 0 || t69 >= d_X[0] {
					return m.OOB(t69, d_X[0], 0, "X", 16, 32)
				}
				t70 := p_n - int64(2)
				t71 := t70 - i_i2
				t72 := t71
				if t72 < 0 || t72 >= d_X[1] {
					return m.OOB(t72, d_X[1], 1, "X", 16, 32)
				}
				t73 := b_X + int((t69)*d_X[1]+t72)
				t74 := m.LoadF(t73)
				t75 := i_i1
				if t75 < 0 || t75 >= d_X[0] {
					return m.OOB(t75, d_X[0], 0, "X", 16, 52)
				}
				t76 := p_n - int64(2)
				t77 := t76 - i_i2
				t78 := t77 - int64(1)
				t79 := t78
				if t79 < 0 || t79 >= d_X[1] {
					return m.OOB(t79, d_X[1], 1, "X", 16, 52)
				}
				t80 := b_X + int((t75)*d_X[1]+t79)
				t81 := m.LoadF(t80)
				t82 := i_i1
				if t82 < 0 || t82 >= d_A[0] {
					return m.OOB(t82, d_A[0], 0, "A", 16, 76)
				}
				t83 := p_n - i_i2
				t84 := t83 - int64(3)
				t85 := t84
				if t85 < 0 || t85 >= d_A[1] {
					return m.OOB(t85, d_A[1], 1, "A", 16, 76)
				}
				t86 := b_A + int((t82)*d_A[1]+t85)
				t87 := m.LoadF(t86)
				t88 := float64(t81 * t87)
				t89 := float64(t74 - t88)
				t90 := i_i1
				if t90 < 0 || t90 >= d_B[0] {
					return m.OOB(t90, d_B[0], 0, "B", 16, 97)
				}
				t91 := p_n - int64(3)
				t92 := t91 - i_i2
				t93 := t92
				if t93 < 0 || t93 >= d_B[1] {
					return m.OOB(t93, d_B[1], 1, "B", 16, 97)
				}
				t94 := b_B + int((t90)*d_B[1]+t93)
				t95 := m.LoadF(t94)
				if t95 == 0 {
					return m.DivZero(16, 95)
				}
				t96 := float64(t89 / t95)
				t97 := i_i1
				if t97 < 0 || t97 >= d_X[0] {
					return m.OOB(t97, d_X[0], 0, "X", 16, 11)
				}
				t98 := p_n - i_i2
				t99 := t98 - int64(2)
				t100 := t99
				if t100 < 0 || t100 >= d_X[1] {
					return m.OOB(t100, d_X[1], 1, "X", 16, 11)
				}
				t101 := b_X + int((t97)*d_X[1]+t100)
				m.StoreF(t101, t96)
			}
		}
		t102 := p_n - int64(1)
		for i_i1 := int64(1); i_i1 <= t102; i_i1++ {
			if err := m.Tick(19, 3); err != nil {
				return err
			}
			t103 := p_n - int64(1)
			for i_i2 := int64(0); i_i2 <= t103; i_i2++ {
				if err := m.Tick(20, 5); err != nil {
					return err
				}
				t104 := i_i1
				if t104 < 0 || t104 >= d_X[0] {
					return m.OOB(t104, d_X[0], 0, "X", 21, 23)
				}
				t105 := i_i2
				if t105 < 0 || t105 >= d_X[1] {
					return m.OOB(t105, d_X[1], 1, "X", 21, 23)
				}
				t106 := b_X + int((t104)*d_X[1]+t105)
				t107 := m.LoadF(t106)
				t108 := i_i1 - int64(1)
				t109 := t108
				if t109 < 0 || t109 >= d_X[0] {
					return m.OOB(t109, d_X[0], 0, "X", 21, 35)
				}
				t110 := i_i2
				if t110 < 0 || t110 >= d_X[1] {
					return m.OOB(t110, d_X[1], 1, "X", 21, 35)
				}
				t111 := b_X + int((t109)*d_X[1]+t110)
				t112 := m.LoadF(t111)
				t113 := i_i1
				if t113 < 0 || t113 >= d_A[0] {
					return m.OOB(t113, d_A[0], 0, "A", 21, 51)
				}
				t114 := i_i2
				if t114 < 0 || t114 >= d_A[1] {
					return m.OOB(t114, d_A[1], 1, "A", 21, 51)
				}
				t115 := b_A + int((t113)*d_A[1]+t114)
				t116 := m.LoadF(t115)
				t117 := float64(t112 * t116)
				t118 := i_i1 - int64(1)
				t119 := t118
				if t119 < 0 || t119 >= d_B[0] {
					return m.OOB(t119, d_B[0], 0, "B", 21, 63)
				}
				t120 := i_i2
				if t120 < 0 || t120 >= d_B[1] {
					return m.OOB(t120, d_B[1], 1, "B", 21, 63)
				}
				t121 := b_B + int((t119)*d_B[1]+t120)
				t122 := m.LoadF(t121)
				if t122 == 0 {
					return m.DivZero(21, 61)
				}
				t123 := float64(t117 / t122)
				t124 := float64(t107 - t123)
				t125 := i_i1
				if t125 < 0 || t125 >= d_X[0] {
					return m.OOB(t125, d_X[0], 0, "X", 21, 11)
				}
				t126 := i_i2
				if t126 < 0 || t126 >= d_X[1] {
					return m.OOB(t126, d_X[1], 1, "X", 21, 11)
				}
				t127 := b_X + int((t125)*d_X[1]+t126)
				m.StoreF(t127, t124)
				t128 := i_i1
				if t128 < 0 || t128 >= d_B[0] {
					return m.OOB(t128, d_B[0], 0, "B", 22, 23)
				}
				t129 := i_i2
				if t129 < 0 || t129 >= d_B[1] {
					return m.OOB(t129, d_B[1], 1, "B", 22, 23)
				}
				t130 := b_B + int((t128)*d_B[1]+t129)
				t131 := m.LoadF(t130)
				t132 := i_i1
				if t132 < 0 || t132 >= d_A[0] {
					return m.OOB(t132, d_A[0], 0, "A", 22, 35)
				}
				t133 := i_i2
				if t133 < 0 || t133 >= d_A[1] {
					return m.OOB(t133, d_A[1], 1, "A", 22, 35)
				}
				t134 := b_A + int((t132)*d_A[1]+t133)
				t135 := m.LoadF(t134)
				t136 := i_i1
				if t136 < 0 || t136 >= d_A[0] {
					return m.OOB(t136, d_A[0], 0, "A", 22, 47)
				}
				t137 := i_i2
				if t137 < 0 || t137 >= d_A[1] {
					return m.OOB(t137, d_A[1], 1, "A", 22, 47)
				}
				t138 := b_A + int((t136)*d_A[1]+t137)
				t139 := m.LoadF(t138)
				t140 := float64(t135 * t139)
				t141 := i_i1 - int64(1)
				t142 := t141
				if t142 < 0 || t142 >= d_B[0] {
					return m.OOB(t142, d_B[0], 0, "B", 22, 59)
				}
				t143 := i_i2
				if t143 < 0 || t143 >= d_B[1] {
					return m.OOB(t143, d_B[1], 1, "B", 22, 59)
				}
				t144 := b_B + int((t142)*d_B[1]+t143)
				t145 := m.LoadF(t144)
				if t145 == 0 {
					return m.DivZero(22, 57)
				}
				t146 := float64(t140 / t145)
				t147 := float64(t131 - t146)
				t148 := i_i1
				if t148 < 0 || t148 >= d_B[0] {
					return m.OOB(t148, d_B[0], 0, "B", 22, 11)
				}
				t149 := i_i2
				if t149 < 0 || t149 >= d_B[1] {
					return m.OOB(t149, d_B[1], 1, "B", 22, 11)
				}
				t150 := b_B + int((t148)*d_B[1]+t149)
				m.StoreF(t150, t147)
			}
		}
		t151 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t151; i_i2++ {
			if err := m.Tick(25, 3); err != nil {
				return err
			}
			t152 := p_n - int64(1)
			t153 := t152
			if t153 < 0 || t153 >= d_X[0] {
				return m.OOB(t153, d_X[0], 0, "X", 26, 24)
			}
			t154 := i_i2
			if t154 < 0 || t154 >= d_X[1] {
				return m.OOB(t154, d_X[1], 1, "X", 26, 24)
			}
			t155 := b_X + int((t153)*d_X[1]+t154)
			t156 := m.LoadF(t155)
			t157 := p_n - int64(1)
			t158 := t157
			if t158 < 0 || t158 >= d_B[0] {
				return m.OOB(t158, d_B[0], 0, "B", 26, 39)
			}
			t159 := i_i2
			if t159 < 0 || t159 >= d_B[1] {
				return m.OOB(t159, d_B[1], 1, "B", 26, 39)
			}
			t160 := b_B + int((t158)*d_B[1]+t159)
			t161 := m.LoadF(t160)
			if t161 == 0 {
				return m.DivZero(26, 37)
			}
			t162 := float64(t156 / t161)
			t163 := p_n - int64(1)
			t164 := t163
			if t164 < 0 || t164 >= d_X[0] {
				return m.OOB(t164, d_X[0], 0, "X", 26, 9)
			}
			t165 := i_i2
			if t165 < 0 || t165 >= d_X[1] {
				return m.OOB(t165, d_X[1], 1, "X", 26, 9)
			}
			t166 := b_X + int((t164)*d_X[1]+t165)
			m.StoreF(t166, t162)
		}
		t167 := p_n - int64(3)
		for i_i1 := int64(0); i_i1 <= t167; i_i1++ {
			if err := m.Tick(28, 3); err != nil {
				return err
			}
			t168 := p_n - int64(1)
			for i_i2 := int64(0); i_i2 <= t168; i_i2++ {
				if err := m.Tick(29, 5); err != nil {
					return err
				}
				t169 := p_n - int64(2)
				t170 := t169 - i_i1
				t171 := t170
				if t171 < 0 || t171 >= d_X[0] {
					return m.OOB(t171, d_X[0], 0, "X", 30, 32)
				}
				t172 := i_i2
				if t172 < 0 || t172 >= d_X[1] {
					return m.OOB(t172, d_X[1], 1, "X", 30, 32)
				}
				t173 := b_X + int((t171)*d_X[1]+t172)
				t174 := m.LoadF(t173)
				t175 := p_n - i_i1
				t176 := t175 - int64(3)
				t177 := t176
				if t177 < 0 || t177 >= d_X[0] {
					return m.OOB(t177, d_X[0], 0, "X", 30, 52)
				}
				t178 := i_i2
				if t178 < 0 || t178 >= d_X[1] {
					return m.OOB(t178, d_X[1], 1, "X", 30, 52)
				}
				t179 := b_X + int((t177)*d_X[1]+t178)
				t180 := m.LoadF(t179)
				t181 := p_n - int64(3)
				t182 := t181 - i_i1
				t183 := t182
				if t183 < 0 || t183 >= d_A[0] {
					return m.OOB(t183, d_A[0], 0, "A", 30, 72)
				}
				t184 := i_i2
				if t184 < 0 || t184 >= d_A[1] {
					return m.OOB(t184, d_A[1], 1, "A", 30, 72)
				}
				t185 := b_A + int((t183)*d_A[1]+t184)
				t186 := m.LoadF(t185)
				t187 := float64(t180 * t186)
				t188 := float64(t174 - t187)
				t189 := p_n - int64(2)
				t190 := t189 - i_i1
				t191 := t190
				if t191 < 0 || t191 >= d_B[0] {
					return m.OOB(t191, d_B[0], 0, "B", 30, 93)
				}
				t192 := i_i2
				if t192 < 0 || t192 >= d_B[1] {
					return m.OOB(t192, d_B[1], 1, "B", 30, 93)
				}
				t193 := b_B + int((t191)*d_B[1]+t192)
				t194 := m.LoadF(t193)
				if t194 == 0 {
					return m.DivZero(30, 91)
				}
				t195 := float64(t188 / t194)
				t196 := p_n - int64(2)
				t197 := t196 - i_i1
				t198 := t197
				if t198 < 0 || t198 >= d_X[0] {
					return m.OOB(t198, d_X[0], 0, "X", 30, 11)
				}
				t199 := i_i2
				if t199 < 0 || t199 >= d_X[1] {
					return m.OOB(t199, d_X[1], 1, "X", 30, 11)
				}
				t200 := b_X + int((t198)*d_X[1]+t199)
				m.StoreF(t200, t195)
			}
		}
	}
	if epoch == epochs-1 {
	}
	return nil
}

// run_adi_resilient executes the Resilient variant of the ADI benchmark natively.
func run_adi_resilient(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_X, d_X := m.Var("X")
	b_A, d_A := m.Var("A")
	b_B, d_B := m.Var("B")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_adi_resilient_n1(m, &cs, p_tsteps, p_n, b_X, d_X); err != nil {
			return err
		}
		if err := run_adi_resilient_n5(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_adi_resilient_n6(m, &cs, p_tsteps, p_n, b_B, d_B); err != nil {
			return err
		}
		t578 := p_tsteps - int64(1)
		m.SetBounds(int64(0), t578)
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
		if err := run_adi_resilient_n7(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilient_n10(m, &cs, p_tsteps, p_n, b_X, d_X, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilient_n11(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilient_n12(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilient_n15(m, &cs, p_tsteps, p_n, b_X, d_X, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilient_n16(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
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

func run_adi_resilient_n1(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64) error {
	t1 := p_n - int64(1)
	for i_li0 := int64(0); i_li0 <= t1; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilient_n2(m, cs, p_tsteps, p_n, b_X, d_X, i_li0); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilient_n2(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, i_li0 int64) error {
	t2 := p_n - int64(1)
	for i_li1 := int64(0); i_li1 <= t2; i_li1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilient_n3(m, cs, p_tsteps, p_n, b_X, d_X, i_li0, i_li1); err != nil {
			return err
		}
		if err := run_adi_resilient_n4(m, cs, p_tsteps, p_n, b_X, d_X, i_li0, i_li1); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilient_n3(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, i_li0 int64, i_li1 int64) error {
	t7 := i_li1 - int64(1)
	t6 := t7 >= int64(0)
	if t6 {
		t8 := -i_li1
		t9 := t8 + p_n
		t10 := t9 - int64(2)
		t6 = t10 >= int64(0)
	}
	t5 := t6
	if t5 {
		t11 := p_tsteps - int64(1)
		t5 = t11 >= int64(0)
	}
	t4 := t5
	if t4 {
		t12 := -i_li0
		t4 = t12 >= int64(0)
	}
	t3 := t4
	if t3 {
		t13 := -p_tsteps
		t14 := t13 + int64(1)
		t3 = t14 >= int64(0)
	}
	if t3 {
		t15 := i_li0
		if t15 < 0 || t15 >= d_X[0] {
			return m.OOB(t15, d_X[0], 0, "X", 0, 0)
		}
		t16 := i_li1
		if t16 < 0 || t16 >= d_X[1] {
			return m.OOB(t16, d_X[1], 1, "X", 0, 0)
		}
		t17 := b_X + int((t15)*d_X[1]+t16)
		t18 := m.LoadF(t17)
		cs.Fold(checksum.AccDef, math.Float64bits(t18), p_tsteps)
	}
	t22 := i_li1 - int64(1)
	t21 := t22 >= int64(0)
	if t21 {
		t23 := -i_li1
		t24 := t23 + p_n
		t25 := t24 - int64(2)
		t21 = t25 >= int64(0)
	}
	t20 := t21
	if t20 {
		t26 := -i_li0
		t20 = t26 >= int64(0)
	}
	t19 := t20
	if t19 {
		t27 := p_tsteps - int64(2)
		t19 = t27 >= int64(0)
	}
	if t19 {
		t28 := i_li0
		if t28 < 0 || t28 >= d_X[0] {
			return m.OOB(t28, d_X[0], 0, "X", 0, 0)
		}
		t29 := i_li1
		if t29 < 0 || t29 >= d_X[1] {
			return m.OOB(t29, d_X[1], 1, "X", 0, 0)
		}
		t30 := b_X + int((t28)*d_X[1]+t29)
		t31 := m.LoadF(t30)
		cs.Fold(checksum.AccDef, math.Float64bits(t31), int64(1))
	}
	t37 := i_li1 - int64(1)
	t36 := t37 >= int64(0)
	if t36 {
		t38 := -i_li1
		t39 := t38 + p_n
		t40 := t39 - int64(2)
		t36 = t40 >= int64(0)
	}
	t35 := t36
	if t35 {
		t41 := p_tsteps - int64(1)
		t35 = t41 >= int64(0)
	}
	t34 := t35
	if t34 {
		t42 := -i_li0
		t43 := t42 + p_n
		t44 := t43 - int64(2)
		t34 = t44 >= int64(0)
	}
	t33 := t34
	if t33 {
		t45 := i_li0 - int64(1)
		t33 = t45 >= int64(0)
	}
	t32 := t33
	if t32 {
		t46 := -p_tsteps
		t47 := t46 + int64(1)
		t32 = t47 >= int64(0)
	}
	if t32 {
		t48 := i_li0
		if t48 < 0 || t48 >= d_X[0] {
			return m.OOB(t48, d_X[0], 0, "X", 0, 0)
		}
		t49 := i_li1
		if t49 < 0 || t49 >= d_X[1] {
			return m.OOB(t49, d_X[1], 1, "X", 0, 0)
		}
		t50 := b_X + int((t48)*d_X[1]+t49)
		t51 := m.LoadF(t50)
		cs.Fold(checksum.AccDef, math.Float64bits(t51), p_tsteps)
	}
	t56 := i_li1 - int64(1)
	t55 := t56 >= int64(0)
	if t55 {
		t57 := -i_li1
		t58 := t57 + p_n
		t59 := t58 - int64(2)
		t55 = t59 >= int64(0)
	}
	t54 := t55
	if t54 {
		t60 := -i_li0
		t61 := t60 + p_n
		t62 := t61 - int64(2)
		t54 = t62 >= int64(0)
	}
	t53 := t54
	if t53 {
		t63 := i_li0 - int64(1)
		t53 = t63 >= int64(0)
	}
	t52 := t53
	if t52 {
		t64 := p_tsteps - int64(2)
		t52 = t64 >= int64(0)
	}
	if t52 {
		t65 := i_li0
		if t65 < 0 || t65 >= d_X[0] {
			return m.OOB(t65, d_X[0], 0, "X", 0, 0)
		}
		t66 := i_li1
		if t66 < 0 || t66 >= d_X[1] {
			return m.OOB(t66, d_X[1], 1, "X", 0, 0)
		}
		t67 := b_X + int((t65)*d_X[1]+t66)
		t68 := m.LoadF(t67)
		cs.Fold(checksum.AccDef, math.Float64bits(t68), int64(1))
	}
	t73 := i_li1 - int64(1)
	t72 := t73 >= int64(0)
	if t72 {
		t74 := -i_li1
		t75 := t74 + p_n
		t76 := t75 - int64(2)
		t72 = t76 >= int64(0)
	}
	t71 := t72
	if t71 {
		t77 := p_tsteps - int64(1)
		t71 = t77 >= int64(0)
	}
	t70 := t71
	if t70 {
		t78 := -i_li0
		t79 := t78 + p_n
		t80 := t79 - int64(1)
		t70 = t80 == int64(0)
	}
	t69 := t70
	if t69 {
		t81 := -p_tsteps
		t82 := t81 + int64(1)
		t69 = t82 >= int64(0)
	}
	if t69 {
		t83 := i_li0
		if t83 < 0 || t83 >= d_X[0] {
			return m.OOB(t83, d_X[0], 0, "X", 0, 0)
		}
		t84 := i_li1
		if t84 < 0 || t84 >= d_X[1] {
			return m.OOB(t84, d_X[1], 1, "X", 0, 0)
		}
		t85 := b_X + int((t83)*d_X[1]+t84)
		t86 := m.LoadF(t85)
		cs.Fold(checksum.AccDef, math.Float64bits(t86), p_tsteps)
	}
	t90 := i_li1 - int64(1)
	t89 := t90 >= int64(0)
	if t89 {
		t91 := -i_li1
		t92 := t91 + p_n
		t93 := t92 - int64(2)
		t89 = t93 >= int64(0)
	}
	t88 := t89
	if t88 {
		t94 := -i_li0
		t95 := t94 + p_n
		t96 := t95 - int64(1)
		t88 = t96 == int64(0)
	}
	t87 := t88
	if t87 {
		t97 := p_tsteps - int64(2)
		t87 = t97 >= int64(0)
	}
	if t87 {
		t98 := i_li0
		if t98 < 0 || t98 >= d_X[0] {
			return m.OOB(t98, d_X[0], 0, "X", 0, 0)
		}
		t99 := i_li1
		if t99 < 0 || t99 >= d_X[1] {
			return m.OOB(t99, d_X[1], 1, "X", 0, 0)
		}
		t100 := b_X + int((t98)*d_X[1]+t99)
		t101 := m.LoadF(t100)
		cs.Fold(checksum.AccDef, math.Float64bits(t101), int64(1))
	}
	t106 := p_tsteps - int64(1)
	t105 := t106 >= int64(0)
	if t105 {
		t107 := -i_li0
		t108 := t107 + p_n
		t109 := t108 - int64(2)
		t105 = t109 >= int64(0)
	}
	t104 := t105
	if t104 {
		t110 := -i_li0
		t104 = t110 >= int64(0)
	}
	t103 := t104
	if t103 {
		t111 := -i_li1
		t112 := t111 + p_n
		t113 := t112 - int64(1)
		t103 = t113 == int64(0)
	}
	t102 := t103
	if t102 {
		t114 := -p_tsteps
		t115 := t114 + int64(1)
		t102 = t115 >= int64(0)
	}
	if t102 {
		t116 := i_li0
		if t116 < 0 || t116 >= d_X[0] {
			return m.OOB(t116, d_X[0], 0, "X", 0, 0)
		}
		t117 := i_li1
		if t117 < 0 || t117 >= d_X[1] {
			return m.OOB(t117, d_X[1], 1, "X", 0, 0)
		}
		t118 := b_X + int((t116)*d_X[1]+t117)
		t119 := m.LoadF(t118)
		cs.Fold(checksum.AccDef, math.Float64bits(t119), p_tsteps)
	}
	t123 := -i_li0
	t124 := t123 + p_n
	t125 := t124 - int64(2)
	t122 := t125 >= int64(0)
	if t122 {
		t126 := -i_li0
		t122 = t126 >= int64(0)
	}
	t121 := t122
	if t121 {
		t127 := -i_li1
		t128 := t127 + p_n
		t129 := t128 - int64(1)
		t121 = t129 == int64(0)
	}
	t120 := t121
	if t120 {
		t130 := p_tsteps - int64(2)
		t120 = t130 >= int64(0)
	}
	if t120 {
		t131 := i_li0
		if t131 < 0 || t131 >= d_X[0] {
			return m.OOB(t131, d_X[0], 0, "X", 0, 0)
		}
		t132 := i_li1
		if t132 < 0 || t132 >= d_X[1] {
			return m.OOB(t132, d_X[1], 1, "X", 0, 0)
		}
		t133 := b_X + int((t131)*d_X[1]+t132)
		t134 := m.LoadF(t133)
		cs.Fold(checksum.AccDef, math.Float64bits(t134), int64(1))
	}
	t139 := p_tsteps - int64(1)
	t138 := t139 >= int64(0)
	if t138 {
		t140 := -i_li0
		t141 := t140 + p_n
		t142 := t141 - int64(2)
		t138 = t142 >= int64(0)
	}
	t137 := t138
	if t137 {
		t143 := i_li0 - int64(1)
		t137 = t143 >= int64(0)
	}
	t136 := t137
	if t136 {
		t144 := -i_li1
		t145 := t144 + p_n
		t146 := t145 - int64(1)
		t136 = t146 == int64(0)
	}
	t135 := t136
	if t135 {
		t147 := -p_tsteps
		t148 := t147 + int64(1)
		t135 = t148 >= int64(0)
	}
	if t135 {
		t149 := i_li0
		if t149 < 0 || t149 >= d_X[0] {
			return m.OOB(t149, d_X[0], 0, "X", 0, 0)
		}
		t150 := i_li1
		if t150 < 0 || t150 >= d_X[1] {
			return m.OOB(t150, d_X[1], 1, "X", 0, 0)
		}
		t151 := b_X + int((t149)*d_X[1]+t150)
		t152 := m.LoadF(t151)
		cs.Fold(checksum.AccDef, math.Float64bits(t152), p_tsteps)
	}
	t156 := -i_li0
	t157 := t156 + p_n
	t158 := t157 - int64(2)
	t155 := t158 >= int64(0)
	if t155 {
		t159 := i_li0 - int64(1)
		t155 = t159 >= int64(0)
	}
	t154 := t155
	if t154 {
		t160 := -i_li1
		t161 := t160 + p_n
		t162 := t161 - int64(1)
		t154 = t162 == int64(0)
	}
	t153 := t154
	if t153 {
		t163 := p_tsteps - int64(2)
		t153 = t163 >= int64(0)
	}
	if t153 {
		t164 := i_li0
		if t164 < 0 || t164 >= d_X[0] {
			return m.OOB(t164, d_X[0], 0, "X", 0, 0)
		}
		t165 := i_li1
		if t165 < 0 || t165 >= d_X[1] {
			return m.OOB(t165, d_X[1], 1, "X", 0, 0)
		}
		t166 := b_X + int((t164)*d_X[1]+t165)
		t167 := m.LoadF(t166)
		cs.Fold(checksum.AccDef, math.Float64bits(t167), int64(1))
	}
	t172 := p_n - int64(2)
	t171 := t172 >= int64(0)
	if t171 {
		t173 := p_tsteps - int64(1)
		t171 = t173 >= int64(0)
	}
	t170 := t171
	if t170 {
		t174 := -i_li0
		t175 := t174 + p_n
		t176 := t175 - int64(1)
		t170 = t176 == int64(0)
	}
	t169 := t170
	if t169 {
		t177 := -i_li1
		t178 := t177 + p_n
		t179 := t178 - int64(1)
		t169 = t179 == int64(0)
	}
	t168 := t169
	if t168 {
		t180 := -p_tsteps
		t181 := t180 + int64(1)
		t168 = t181 >= int64(0)
	}
	if t168 {
		t182 := i_li0
		if t182 < 0 || t182 >= d_X[0] {
			return m.OOB(t182, d_X[0], 0, "X", 0, 0)
		}
		t183 := i_li1
		if t183 < 0 || t183 >= d_X[1] {
			return m.OOB(t183, d_X[1], 1, "X", 0, 0)
		}
		t184 := b_X + int((t182)*d_X[1]+t183)
		t185 := m.LoadF(t184)
		cs.Fold(checksum.AccDef, math.Float64bits(t185), p_tsteps)
	}
	t189 := p_n - int64(2)
	t188 := t189 >= int64(0)
	if t188 {
		t190 := -i_li0
		t191 := t190 + p_n
		t192 := t191 - int64(1)
		t188 = t192 == int64(0)
	}
	t187 := t188
	if t187 {
		t193 := -i_li1
		t194 := t193 + p_n
		t195 := t194 - int64(1)
		t187 = t195 == int64(0)
	}
	t186 := t187
	if t186 {
		t196 := p_tsteps - int64(2)
		t186 = t196 >= int64(0)
	}
	if t186 {
		t197 := i_li0
		if t197 < 0 || t197 >= d_X[0] {
			return m.OOB(t197, d_X[0], 0, "X", 0, 0)
		}
		t198 := i_li1
		if t198 < 0 || t198 >= d_X[1] {
			return m.OOB(t198, d_X[1], 1, "X", 0, 0)
		}
		t199 := b_X + int((t197)*d_X[1]+t198)
		t200 := m.LoadF(t199)
		cs.Fold(checksum.AccDef, math.Float64bits(t200), int64(1))
	}
	t204 := -i_li1
	t203 := t204 >= int64(0)
	if t203 {
		t205 := -i_li0
		t206 := t205 + p_n
		t207 := t206 - int64(2)
		t203 = t207 >= int64(0)
	}
	t202 := t203
	if t202 {
		t208 := -i_li0
		t202 = t208 >= int64(0)
	}
	t201 := t202
	if t201 {
		t209 := p_tsteps - int64(1)
		t201 = t209 >= int64(0)
	}
	if t201 {
		t210 := i_li0
		if t210 < 0 || t210 >= d_X[0] {
			return m.OOB(t210, d_X[0], 0, "X", 0, 0)
		}
		t211 := i_li1
		if t211 < 0 || t211 >= d_X[1] {
			return m.OOB(t211, d_X[1], 1, "X", 0, 0)
		}
		t212 := b_X + int((t210)*d_X[1]+t211)
		t213 := m.LoadF(t212)
		cs.Fold(checksum.AccDef, math.Float64bits(t213), p_tsteps)
	}
	t218 := -i_li1
	t217 := t218 >= int64(0)
	if t217 {
		t219 := -i_li0
		t220 := t219 + p_n
		t221 := t220 - int64(2)
		t217 = t221 >= int64(0)
	}
	t216 := t217
	if t216 {
		t222 := i_li0 - int64(1)
		t216 = t222 >= int64(0)
	}
	t215 := t216
	if t215 {
		t223 := p_tsteps - int64(1)
		t215 = t223 >= int64(0)
	}
	t214 := t215
	if t214 {
		t224 := -p_tsteps
		t225 := t224 + int64(1)
		t214 = t225 >= int64(0)
	}
	if t214 {
		t226 := i_li0
		if t226 < 0 || t226 >= d_X[0] {
			return m.OOB(t226, d_X[0], 0, "X", 0, 0)
		}
		t227 := i_li1
		if t227 < 0 || t227 >= d_X[1] {
			return m.OOB(t227, d_X[1], 1, "X", 0, 0)
		}
		t228 := b_X + int((t226)*d_X[1]+t227)
		t229 := m.LoadF(t228)
		t230 := int64(3) * p_tsteps
		cs.Fold(checksum.AccDef, math.Float64bits(t229), t230)
	}
	t234 := -i_li1
	t233 := t234 >= int64(0)
	if t233 {
		t235 := -i_li0
		t236 := t235 + p_n
		t237 := t236 - int64(2)
		t233 = t237 >= int64(0)
	}
	t232 := t233
	if t232 {
		t238 := i_li0 - int64(1)
		t232 = t238 >= int64(0)
	}
	t231 := t232
	if t231 {
		t239 := p_tsteps - int64(2)
		t231 = t239 >= int64(0)
	}
	if t231 {
		t240 := i_li0
		if t240 < 0 || t240 >= d_X[0] {
			return m.OOB(t240, d_X[0], 0, "X", 0, 0)
		}
		t241 := i_li1
		if t241 < 0 || t241 >= d_X[1] {
			return m.OOB(t241, d_X[1], 1, "X", 0, 0)
		}
		t242 := b_X + int((t240)*d_X[1]+t241)
		t243 := m.LoadF(t242)
		cs.Fold(checksum.AccDef, math.Float64bits(t243), int64(3))
	}
	t248 := -i_li1
	t247 := t248 >= int64(0)
	if t247 {
		t249 := p_n - int64(2)
		t247 = t249 >= int64(0)
	}
	t246 := t247
	if t246 {
		t250 := p_tsteps - int64(1)
		t246 = t250 >= int64(0)
	}
	t245 := t246
	if t245 {
		t251 := -i_li0
		t252 := t251 + p_n
		t253 := t252 - int64(1)
		t245 = t253 == int64(0)
	}
	t244 := t245
	if t244 {
		t254 := -p_tsteps
		t255 := t254 + int64(1)
		t244 = t255 >= int64(0)
	}
	if t244 {
		t256 := i_li0
		if t256 < 0 || t256 >= d_X[0] {
			return m.OOB(t256, d_X[0], 0, "X", 0, 0)
		}
		t257 := i_li1
		if t257 < 0 || t257 >= d_X[1] {
			return m.OOB(t257, d_X[1], 1, "X", 0, 0)
		}
		t258 := b_X + int((t256)*d_X[1]+t257)
		t259 := m.LoadF(t258)
		cs.Fold(checksum.AccDef, math.Float64bits(t259), p_tsteps)
	}
	t263 := -i_li1
	t262 := t263 >= int64(0)
	if t262 {
		t264 := p_n - int64(2)
		t262 = t264 >= int64(0)
	}
	t261 := t262
	if t261 {
		t265 := -i_li0
		t266 := t265 + p_n
		t267 := t266 - int64(1)
		t261 = t267 == int64(0)
	}
	t260 := t261
	if t260 {
		t268 := p_tsteps - int64(2)
		t260 = t268 >= int64(0)
	}
	if t260 {
		t269 := i_li0
		if t269 < 0 || t269 >= d_X[0] {
			return m.OOB(t269, d_X[0], 0, "X", 0, 0)
		}
		t270 := i_li1
		if t270 < 0 || t270 >= d_X[1] {
			return m.OOB(t270, d_X[1], 1, "X", 0, 0)
		}
		t271 := b_X + int((t269)*d_X[1]+t270)
		t272 := m.LoadF(t271)
		cs.Fold(checksum.AccDef, math.Float64bits(t272), int64(1))
	}
	t275 := -p_n
	t276 := t275 + int64(1)
	t274 := t276 >= int64(0)
	if t274 {
		t277 := p_tsteps - int64(1)
		t274 = t277 >= int64(0)
	}
	t273 := t274
	if t273 {
		t278 := -p_tsteps
		t279 := t278 + int64(1)
		t273 = t279 >= int64(0)
	}
	if t273 {
		t280 := i_li0
		if t280 < 0 || t280 >= d_X[0] {
			return m.OOB(t280, d_X[0], 0, "X", 0, 0)
		}
		t281 := i_li1
		if t281 < 0 || t281 >= d_X[1] {
			return m.OOB(t281, d_X[1], 1, "X", 0, 0)
		}
		t282 := b_X + int((t280)*d_X[1]+t281)
		t283 := m.LoadF(t282)
		cs.Fold(checksum.AccDef, math.Float64bits(t283), p_tsteps)
	}
	t285 := -p_n
	t286 := t285 + int64(1)
	t284 := t286 >= int64(0)
	if t284 {
		t287 := p_tsteps - int64(2)
		t284 = t287 >= int64(0)
	}
	if t284 {
		t288 := i_li0
		if t288 < 0 || t288 >= d_X[0] {
			return m.OOB(t288, d_X[0], 0, "X", 0, 0)
		}
		t289 := i_li1
		if t289 < 0 || t289 >= d_X[1] {
			return m.OOB(t289, d_X[1], 1, "X", 0, 0)
		}
		t290 := b_X + int((t288)*d_X[1]+t289)
		t291 := m.LoadF(t290)
		cs.Fold(checksum.AccDef, math.Float64bits(t291), int64(1))
	}
	t295 := -i_li1
	t296 := t295 + p_n
	t297 := t296 - int64(3)
	t294 := t297 >= int64(0)
	if t294 {
		t298 := -i_li1
		t294 = t298 >= int64(0)
	}
	t293 := t294
	if t293 {
		t299 := -i_li0
		t293 = t299 >= int64(0)
	}
	t292 := t293
	if t292 {
		t300 := p_tsteps - int64(1)
		t292 = t300 >= int64(0)
	}
	if t292 {
		t301 := i_li0
		if t301 < 0 || t301 >= d_X[0] {
			return m.OOB(t301, d_X[0], 0, "X", 0, 0)
		}
		t302 := i_li1
		if t302 < 0 || t302 >= d_X[1] {
			return m.OOB(t302, d_X[1], 1, "X", 0, 0)
		}
		t303 := b_X + int((t301)*d_X[1]+t302)
		t304 := m.LoadF(t303)
		cs.Fold(checksum.AccDef, math.Float64bits(t304), p_tsteps)
	}
	t309 := -i_li1
	t310 := t309 + p_n
	t311 := t310 - int64(3)
	t308 := t311 >= int64(0)
	if t308 {
		t312 := -i_li1
		t308 = t312 >= int64(0)
	}
	t307 := t308
	if t307 {
		t313 := p_tsteps - int64(1)
		t307 = t313 >= int64(0)
	}
	t306 := t307
	if t306 {
		t314 := -i_li0
		t315 := t314 + p_n
		t316 := t315 - int64(1)
		t306 = t316 == int64(0)
	}
	t305 := t306
	if t305 {
		t317 := -p_tsteps
		t318 := t317 + int64(1)
		t305 = t318 >= int64(0)
	}
	if t305 {
		t319 := i_li0
		if t319 < 0 || t319 >= d_X[0] {
			return m.OOB(t319, d_X[0], 0, "X", 0, 0)
		}
		t320 := i_li1
		if t320 < 0 || t320 >= d_X[1] {
			return m.OOB(t320, d_X[1], 1, "X", 0, 0)
		}
		t321 := b_X + int((t319)*d_X[1]+t320)
		t322 := m.LoadF(t321)
		cs.Fold(checksum.AccDef, math.Float64bits(t322), p_tsteps)
	}
	return nil
}

func run_adi_resilient_n4(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, i_li0 int64, i_li1 int64) error {
	t326 := -i_li1
	t327 := t326 + p_n
	t328 := t327 - int64(3)
	t325 := t328 >= int64(0)
	if t325 {
		t329 := -i_li1
		t325 = t329 >= int64(0)
	}
	t324 := t325
	if t324 {
		t330 := -i_li0
		t331 := t330 + p_n
		t332 := t331 - int64(1)
		t324 = t332 == int64(0)
	}
	t323 := t324
	if t323 {
		t333 := p_tsteps - int64(2)
		t323 = t333 >= int64(0)
	}
	if t323 {
		t334 := i_li0
		if t334 < 0 || t334 >= d_X[0] {
			return m.OOB(t334, d_X[0], 0, "X", 0, 0)
		}
		t335 := i_li1
		if t335 < 0 || t335 >= d_X[1] {
			return m.OOB(t335, d_X[1], 1, "X", 0, 0)
		}
		t336 := b_X + int((t334)*d_X[1]+t335)
		t337 := m.LoadF(t336)
		cs.Fold(checksum.AccDef, math.Float64bits(t337), int64(1))
	}
	t342 := -i_li1
	t343 := t342 + p_n
	t344 := t343 - int64(2)
	t341 := t344 >= int64(0)
	if t341 {
		t345 := -i_li1
		t341 = t345 >= int64(0)
	}
	t340 := t341
	if t340 {
		t346 := p_tsteps - int64(1)
		t340 = t346 >= int64(0)
	}
	t339 := t340
	if t339 {
		t347 := -i_li0
		t348 := t347 + p_n
		t349 := t348 - int64(1)
		t339 = t349 == int64(0)
	}
	t338 := t339
	if t338 {
		t350 := -p_tsteps
		t351 := t350 + int64(1)
		t338 = t351 >= int64(0)
	}
	if t338 {
		t352 := i_li0
		if t352 < 0 || t352 >= d_X[0] {
			return m.OOB(t352, d_X[0], 0, "X", 0, 0)
		}
		t353 := i_li1
		if t353 < 0 || t353 >= d_X[1] {
			return m.OOB(t353, d_X[1], 1, "X", 0, 0)
		}
		t354 := b_X + int((t352)*d_X[1]+t353)
		t355 := m.LoadF(t354)
		cs.Fold(checksum.AccDef, math.Float64bits(t355), p_tsteps)
	}
	t359 := -i_li1
	t360 := t359 + p_n
	t361 := t360 - int64(2)
	t358 := t361 >= int64(0)
	if t358 {
		t362 := -i_li1
		t358 = t362 >= int64(0)
	}
	t357 := t358
	if t357 {
		t363 := -i_li0
		t364 := t363 + p_n
		t365 := t364 - int64(1)
		t357 = t365 == int64(0)
	}
	t356 := t357
	if t356 {
		t366 := p_tsteps - int64(2)
		t356 = t366 >= int64(0)
	}
	if t356 {
		t367 := i_li0
		if t367 < 0 || t367 >= d_X[0] {
			return m.OOB(t367, d_X[0], 0, "X", 0, 0)
		}
		t368 := i_li1
		if t368 < 0 || t368 >= d_X[1] {
			return m.OOB(t368, d_X[1], 1, "X", 0, 0)
		}
		t369 := b_X + int((t367)*d_X[1]+t368)
		t370 := m.LoadF(t369)
		cs.Fold(checksum.AccDef, math.Float64bits(t370), int64(1))
	}
	t374 := -i_li1
	t375 := t374 + p_n
	t376 := t375 - int64(2)
	t373 := t376 >= int64(0)
	if t373 {
		t377 := -i_li1
		t373 = t377 >= int64(0)
	}
	t372 := t373
	if t372 {
		t378 := -i_li0
		t372 = t378 >= int64(0)
	}
	t371 := t372
	if t371 {
		t379 := p_tsteps - int64(1)
		t371 = t379 >= int64(0)
	}
	if t371 {
		t380 := i_li0
		if t380 < 0 || t380 >= d_X[0] {
			return m.OOB(t380, d_X[0], 0, "X", 0, 0)
		}
		t381 := i_li1
		if t381 < 0 || t381 >= d_X[1] {
			return m.OOB(t381, d_X[1], 1, "X", 0, 0)
		}
		t382 := b_X + int((t380)*d_X[1]+t381)
		t383 := m.LoadF(t382)
		cs.Fold(checksum.AccDef, math.Float64bits(t383), p_tsteps)
	}
	t387 := -i_li0
	t388 := t387 + p_n
	t389 := t388 - int64(3)
	t386 := t389 >= int64(0)
	if t386 {
		t390 := -i_li1
		t386 = t390 >= int64(0)
	}
	t385 := t386
	if t385 {
		t391 := -i_li0
		t385 = t391 >= int64(0)
	}
	t384 := t385
	if t384 {
		t392 := p_tsteps - int64(1)
		t384 = t392 >= int64(0)
	}
	if t384 {
		t393 := i_li0
		if t393 < 0 || t393 >= d_X[0] {
			return m.OOB(t393, d_X[0], 0, "X", 0, 0)
		}
		t394 := i_li1
		if t394 < 0 || t394 >= d_X[1] {
			return m.OOB(t394, d_X[1], 1, "X", 0, 0)
		}
		t395 := b_X + int((t393)*d_X[1]+t394)
		t396 := m.LoadF(t395)
		cs.Fold(checksum.AccDef, math.Float64bits(t396), p_tsteps)
	}
	return nil
}

func run_adi_resilient_n5(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t397 := p_n - int64(1)
	for i_li02 := int64(0); i_li02 <= t397; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t398 := p_n - int64(1)
		for i_li12 := int64(0); i_li12 <= t398; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t400 := i_li12 - int64(1)
			t399 := t400 >= int64(0)
			if t399 {
				t401 := p_tsteps - int64(1)
				t399 = t401 >= int64(0)
			}
			if t399 {
				t402 := i_li02
				if t402 < 0 || t402 >= d_A[0] {
					return m.OOB(t402, d_A[0], 0, "A", 0, 0)
				}
				t403 := i_li12
				if t403 < 0 || t403 >= d_A[1] {
					return m.OOB(t403, d_A[1], 1, "A", 0, 0)
				}
				t404 := b_A + int((t402)*d_A[1]+t403)
				t405 := m.LoadF(t404)
				t406 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t405), t406)
			}
			t408 := -i_li12
			t409 := t408 + p_n
			t410 := t409 - int64(3)
			t407 := t410 >= int64(0)
			if t407 {
				t411 := p_tsteps - int64(1)
				t407 = t411 >= int64(0)
			}
			if t407 {
				t412 := i_li02
				if t412 < 0 || t412 >= d_A[0] {
					return m.OOB(t412, d_A[0], 0, "A", 0, 0)
				}
				t413 := i_li12
				if t413 < 0 || t413 >= d_A[1] {
					return m.OOB(t413, d_A[1], 1, "A", 0, 0)
				}
				t414 := b_A + int((t412)*d_A[1]+t413)
				t415 := m.LoadF(t414)
				cs.Fold(checksum.AccDef, math.Float64bits(t415), p_tsteps)
			}
			t417 := i_li02 - int64(1)
			t416 := t417 >= int64(0)
			if t416 {
				t418 := p_tsteps - int64(1)
				t416 = t418 >= int64(0)
			}
			if t416 {
				t419 := i_li02
				if t419 < 0 || t419 >= d_A[0] {
					return m.OOB(t419, d_A[0], 0, "A", 0, 0)
				}
				t420 := i_li12
				if t420 < 0 || t420 >= d_A[1] {
					return m.OOB(t420, d_A[1], 1, "A", 0, 0)
				}
				t421 := b_A + int((t419)*d_A[1]+t420)
				t422 := m.LoadF(t421)
				t423 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t422), t423)
			}
			t425 := -i_li02
			t426 := t425 + p_n
			t427 := t426 - int64(3)
			t424 := t427 >= int64(0)
			if t424 {
				t428 := p_tsteps - int64(1)
				t424 = t428 >= int64(0)
			}
			if t424 {
				t429 := i_li02
				if t429 < 0 || t429 >= d_A[0] {
					return m.OOB(t429, d_A[0], 0, "A", 0, 0)
				}
				t430 := i_li12
				if t430 < 0 || t430 >= d_A[1] {
					return m.OOB(t430, d_A[1], 1, "A", 0, 0)
				}
				t431 := b_A + int((t429)*d_A[1]+t430)
				t432 := m.LoadF(t431)
				cs.Fold(checksum.AccDef, math.Float64bits(t432), p_tsteps)
			}
		}
	}
	return nil
}

func run_adi_resilient_n6(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_B int, d_B []int64) error {
	t433 := p_n - int64(1)
	for i_li03 := int64(0); i_li03 <= t433; i_li03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t434 := p_n - int64(1)
		for i_li13 := int64(0); i_li13 <= t434; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t438 := -i_li13
			t439 := t438 + p_n
			t440 := t439 - int64(2)
			t437 := t440 >= int64(0)
			if t437 {
				t441 := -i_li13
				t437 = t441 >= int64(0)
			}
			t436 := t437
			if t436 {
				t442 := -i_li03
				t436 = t442 >= int64(0)
			}
			t435 := t436
			if t435 {
				t443 := p_tsteps - int64(1)
				t435 = t443 >= int64(0)
			}
			if t435 {
				t444 := i_li03
				if t444 < 0 || t444 >= d_B[0] {
					return m.OOB(t444, d_B[0], 0, "B", 0, 0)
				}
				t445 := i_li13
				if t445 < 0 || t445 >= d_B[1] {
					return m.OOB(t445, d_B[1], 1, "B", 0, 0)
				}
				t446 := b_B + int((t444)*d_B[1]+t445)
				t447 := m.LoadF(t446)
				t448 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t447), t448)
			}
			t452 := -i_li13
			t451 := t452 >= int64(0)
			if t451 {
				t453 := i_li03 - int64(1)
				t451 = t453 >= int64(0)
			}
			t450 := t451
			if t450 {
				t454 := p_tsteps - int64(1)
				t450 = t454 >= int64(0)
			}
			t449 := t450
			if t449 {
				t455 := -p_tsteps
				t456 := t455 + int64(1)
				t449 = t456 >= int64(0)
			}
			if t449 {
				t457 := i_li03
				if t457 < 0 || t457 >= d_B[0] {
					return m.OOB(t457, d_B[0], 0, "B", 0, 0)
				}
				t458 := i_li13
				if t458 < 0 || t458 >= d_B[1] {
					return m.OOB(t458, d_B[1], 1, "B", 0, 0)
				}
				t459 := b_B + int((t457)*d_B[1]+t458)
				t460 := m.LoadF(t459)
				t461 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t460), t461)
			}
			t464 := -i_li13
			t463 := t464 >= int64(0)
			if t463 {
				t465 := i_li03 - int64(1)
				t463 = t465 >= int64(0)
			}
			t462 := t463
			if t462 {
				t466 := p_tsteps - int64(2)
				t462 = t466 >= int64(0)
			}
			if t462 {
				t467 := i_li03
				if t467 < 0 || t467 >= d_B[0] {
					return m.OOB(t467, d_B[0], 0, "B", 0, 0)
				}
				t468 := i_li13
				if t468 < 0 || t468 >= d_B[1] {
					return m.OOB(t468, d_B[1], 1, "B", 0, 0)
				}
				t469 := b_B + int((t467)*d_B[1]+t468)
				t470 := m.LoadF(t469)
				cs.Fold(checksum.AccDef, math.Float64bits(t470), int64(3))
			}
			t474 := i_li13 - int64(1)
			t473 := t474 >= int64(0)
			if t473 {
				t475 := p_tsteps - int64(1)
				t473 = t475 >= int64(0)
			}
			t472 := t473
			if t472 {
				t476 := -i_li03
				t472 = t476 >= int64(0)
			}
			t471 := t472
			if t471 {
				t477 := -p_tsteps
				t478 := t477 + int64(1)
				t471 = t478 >= int64(0)
			}
			if t471 {
				t479 := i_li03
				if t479 < 0 || t479 >= d_B[0] {
					return m.OOB(t479, d_B[0], 0, "B", 0, 0)
				}
				t480 := i_li13
				if t480 < 0 || t480 >= d_B[1] {
					return m.OOB(t480, d_B[1], 1, "B", 0, 0)
				}
				t481 := b_B + int((t479)*d_B[1]+t480)
				t482 := m.LoadF(t481)
				cs.Fold(checksum.AccDef, math.Float64bits(t482), p_tsteps)
			}
			t485 := i_li13 - int64(1)
			t484 := t485 >= int64(0)
			if t484 {
				t486 := -i_li03
				t484 = t486 >= int64(0)
			}
			t483 := t484
			if t483 {
				t487 := p_tsteps - int64(2)
				t483 = t487 >= int64(0)
			}
			if t483 {
				t488 := i_li03
				if t488 < 0 || t488 >= d_B[0] {
					return m.OOB(t488, d_B[0], 0, "B", 0, 0)
				}
				t489 := i_li13
				if t489 < 0 || t489 >= d_B[1] {
					return m.OOB(t489, d_B[1], 1, "B", 0, 0)
				}
				t490 := b_B + int((t488)*d_B[1]+t489)
				t491 := m.LoadF(t490)
				cs.Fold(checksum.AccDef, math.Float64bits(t491), int64(1))
			}
			t495 := i_li13 - int64(1)
			t494 := t495 >= int64(0)
			if t494 {
				t496 := p_tsteps - int64(1)
				t494 = t496 >= int64(0)
			}
			t493 := t494
			if t493 {
				t497 := i_li03 - int64(1)
				t493 = t497 >= int64(0)
			}
			t492 := t493
			if t492 {
				t498 := -p_tsteps
				t499 := t498 + int64(1)
				t492 = t499 >= int64(0)
			}
			if t492 {
				t500 := i_li03
				if t500 < 0 || t500 >= d_B[0] {
					return m.OOB(t500, d_B[0], 0, "B", 0, 0)
				}
				t501 := i_li13
				if t501 < 0 || t501 >= d_B[1] {
					return m.OOB(t501, d_B[1], 1, "B", 0, 0)
				}
				t502 := b_B + int((t500)*d_B[1]+t501)
				t503 := m.LoadF(t502)
				cs.Fold(checksum.AccDef, math.Float64bits(t503), p_tsteps)
			}
			t506 := i_li13 - int64(1)
			t505 := t506 >= int64(0)
			if t505 {
				t507 := i_li03 - int64(1)
				t505 = t507 >= int64(0)
			}
			t504 := t505
			if t504 {
				t508 := p_tsteps - int64(2)
				t504 = t508 >= int64(0)
			}
			if t504 {
				t509 := i_li03
				if t509 < 0 || t509 >= d_B[0] {
					return m.OOB(t509, d_B[0], 0, "B", 0, 0)
				}
				t510 := i_li13
				if t510 < 0 || t510 >= d_B[1] {
					return m.OOB(t510, d_B[1], 1, "B", 0, 0)
				}
				t511 := b_B + int((t509)*d_B[1]+t510)
				t512 := m.LoadF(t511)
				cs.Fold(checksum.AccDef, math.Float64bits(t512), int64(1))
			}
			t514 := -p_n
			t515 := t514 + int64(1)
			t513 := t515 >= int64(0)
			if t513 {
				t516 := p_tsteps - int64(1)
				t513 = t516 >= int64(0)
			}
			if t513 {
				t517 := i_li03
				if t517 < 0 || t517 >= d_B[0] {
					return m.OOB(t517, d_B[0], 0, "B", 0, 0)
				}
				t518 := i_li13
				if t518 < 0 || t518 >= d_B[1] {
					return m.OOB(t518, d_B[1], 1, "B", 0, 0)
				}
				t519 := b_B + int((t517)*d_B[1]+t518)
				t520 := m.LoadF(t519)
				t521 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t520), t521)
			}
			t525 := -i_li13
			t526 := t525 + p_n
			t527 := t526 - int64(3)
			t524 := t527 >= int64(0)
			if t524 {
				t528 := -i_li13
				t524 = t528 >= int64(0)
			}
			t523 := t524
			if t523 {
				t529 := -i_li03
				t523 = t529 >= int64(0)
			}
			t522 := t523
			if t522 {
				t530 := p_tsteps - int64(1)
				t522 = t530 >= int64(0)
			}
			if t522 {
				t531 := i_li03
				if t531 < 0 || t531 >= d_B[0] {
					return m.OOB(t531, d_B[0], 0, "B", 0, 0)
				}
				t532 := i_li13
				if t532 < 0 || t532 >= d_B[1] {
					return m.OOB(t532, d_B[1], 1, "B", 0, 0)
				}
				t533 := b_B + int((t531)*d_B[1]+t532)
				t534 := m.LoadF(t533)
				cs.Fold(checksum.AccDef, math.Float64bits(t534), p_tsteps)
			}
			t539 := -i_li13
			t540 := t539 + p_n
			t541 := t540 - int64(3)
			t538 := t541 >= int64(0)
			if t538 {
				t542 := -i_li13
				t538 = t542 >= int64(0)
			}
			t537 := t538
			if t537 {
				t543 := i_li03 - int64(1)
				t537 = t543 >= int64(0)
			}
			t536 := t537
			if t536 {
				t544 := p_tsteps - int64(1)
				t536 = t544 >= int64(0)
			}
			t535 := t536
			if t535 {
				t545 := -p_tsteps
				t546 := t545 + int64(1)
				t535 = t546 >= int64(0)
			}
			if t535 {
				t547 := i_li03
				if t547 < 0 || t547 >= d_B[0] {
					return m.OOB(t547, d_B[0], 0, "B", 0, 0)
				}
				t548 := i_li13
				if t548 < 0 || t548 >= d_B[1] {
					return m.OOB(t548, d_B[1], 1, "B", 0, 0)
				}
				t549 := b_B + int((t547)*d_B[1]+t548)
				t550 := m.LoadF(t549)
				cs.Fold(checksum.AccDef, math.Float64bits(t550), p_tsteps)
			}
			t554 := -i_li13
			t555 := t554 + p_n
			t556 := t555 - int64(3)
			t553 := t556 >= int64(0)
			if t553 {
				t557 := -i_li13
				t553 = t557 >= int64(0)
			}
			t552 := t553
			if t552 {
				t558 := i_li03 - int64(1)
				t552 = t558 >= int64(0)
			}
			t551 := t552
			if t551 {
				t559 := p_tsteps - int64(2)
				t551 = t559 >= int64(0)
			}
			if t551 {
				t560 := i_li03
				if t560 < 0 || t560 >= d_B[0] {
					return m.OOB(t560, d_B[0], 0, "B", 0, 0)
				}
				t561 := i_li13
				if t561 < 0 || t561 >= d_B[1] {
					return m.OOB(t561, d_B[1], 1, "B", 0, 0)
				}
				t562 := b_B + int((t560)*d_B[1]+t561)
				t563 := m.LoadF(t562)
				cs.Fold(checksum.AccDef, math.Float64bits(t563), int64(1))
			}
			t567 := -i_li03
			t568 := t567 + p_n
			t569 := t568 - int64(2)
			t566 := t569 >= int64(0)
			if t566 {
				t570 := -i_li13
				t566 = t570 >= int64(0)
			}
			t565 := t566
			if t565 {
				t571 := -i_li03
				t565 = t571 >= int64(0)
			}
			t564 := t565
			if t564 {
				t572 := p_tsteps - int64(1)
				t564 = t572 >= int64(0)
			}
			if t564 {
				t573 := i_li03
				if t573 < 0 || t573 >= d_B[0] {
					return m.OOB(t573, d_B[0], 0, "B", 0, 0)
				}
				t574 := i_li13
				if t574 < 0 || t574 >= d_B[1] {
					return m.OOB(t574, d_B[1], 1, "B", 0, 0)
				}
				t575 := b_B + int((t573)*d_B[1]+t574)
				t576 := m.LoadF(t575)
				t577 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t576), t577)
			}
		}
	}
	return nil
}

func run_adi_resilient_n7(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t579 := p_n - int64(1)
	for i_i1 := int64(0); i_i1 <= t579; i_i1++ {
		if err := m.Tick(5, 3); err != nil {
			return err
		}
		if err := run_adi_resilient_n8(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_i1, i_t); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilient_n8(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_i1 int64, i_t int64) error {
	t580 := p_n - int64(1)
	for i_i2 := int64(1); i_i2 <= t580; i_i2++ {
		if err := m.Tick(6, 5); err != nil {
			return err
		}
		t581 := i_i1
		if t581 < 0 || t581 >= d_X[0] {
			return m.OOB(t581, d_X[0], 0, "X", 7, 23)
		}
		t582 := i_i2
		if t582 < 0 || t582 >= d_X[1] {
			return m.OOB(t582, d_X[1], 1, "X", 7, 23)
		}
		t583 := b_X + int((t581)*d_X[1]+t582)
		r_X_r := m.LoadF(t583)
		t584 := i_i1
		if t584 < 0 || t584 >= d_X[0] {
			return m.OOB(t584, d_X[0], 0, "X", 7, 35)
		}
		t585 := i_i2 - int64(1)
		t586 := t585
		if t586 < 0 || t586 >= d_X[1] {
			return m.OOB(t586, d_X[1], 1, "X", 7, 35)
		}
		t587 := b_X + int((t584)*d_X[1]+t586)
		r_X_r2 := m.LoadF(t587)
		t588 := i_i1
		if t588 < 0 || t588 >= d_A[0] {
			return m.OOB(t588, d_A[0], 0, "A", 7, 51)
		}
		t589 := i_i2
		if t589 < 0 || t589 >= d_A[1] {
			return m.OOB(t589, d_A[1], 1, "A", 7, 51)
		}
		t590 := b_A + int((t588)*d_A[1]+t589)
		r_A_r := m.LoadF(t590)
		t591 := i_i1
		if t591 < 0 || t591 >= d_B[0] {
			return m.OOB(t591, d_B[0], 0, "B", 7, 63)
		}
		t592 := i_i2 - int64(1)
		t593 := t592
		if t593 < 0 || t593 >= d_B[1] {
			return m.OOB(t593, d_B[1], 1, "B", 7, 63)
		}
		t594 := b_B + int((t591)*d_B[1]+t593)
		r_B_r := m.LoadF(t594)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
		t595 := float64(r_X_r2 * r_A_r)
		if r_B_r == 0 {
			return m.DivZero(7, 61)
		}
		t596 := float64(t595 / r_B_r)
		t597 := float64(r_X_r - t596)
		r_X_w := t597
		t598 := i_i1
		if t598 < 0 || t598 >= d_X[0] {
			return m.OOB(t598, d_X[0], 0, "X", 7, 11)
		}
		t599 := i_i2
		if t599 < 0 || t599 >= d_X[1] {
			return m.OOB(t599, d_X[1], 1, "X", 7, 11)
		}
		t600 := b_X + int((t598)*d_X[1]+t599)
		m.StoreF(t600, r_X_w)
		if err := run_adi_resilient_n9(m, cs, p_tsteps, p_n, i_i1, i_i2, i_t, r_X_w); err != nil {
			return err
		}
		t889 := i_i1
		if t889 < 0 || t889 >= d_B[0] {
			return m.OOB(t889, d_B[0], 0, "B", 8, 23)
		}
		t890 := i_i2
		if t890 < 0 || t890 >= d_B[1] {
			return m.OOB(t890, d_B[1], 1, "B", 8, 23)
		}
		t891 := b_B + int((t889)*d_B[1]+t890)
		r_B_r2 := m.LoadF(t891)
		t892 := i_i1
		if t892 < 0 || t892 >= d_A[0] {
			return m.OOB(t892, d_A[0], 0, "A", 8, 35)
		}
		t893 := i_i2
		if t893 < 0 || t893 >= d_A[1] {
			return m.OOB(t893, d_A[1], 1, "A", 8, 35)
		}
		t894 := b_A + int((t892)*d_A[1]+t893)
		r_A_r2 := m.LoadF(t894)
		t895 := i_i1
		if t895 < 0 || t895 >= d_A[0] {
			return m.OOB(t895, d_A[0], 0, "A", 8, 47)
		}
		t896 := i_i2
		if t896 < 0 || t896 >= d_A[1] {
			return m.OOB(t896, d_A[1], 1, "A", 8, 47)
		}
		t897 := b_A + int((t895)*d_A[1]+t896)
		r_A_r3 := m.LoadF(t897)
		t898 := i_i1
		if t898 < 0 || t898 >= d_B[0] {
			return m.OOB(t898, d_B[0], 0, "B", 8, 59)
		}
		t899 := i_i2 - int64(1)
		t900 := t899
		if t900 < 0 || t900 >= d_B[1] {
			return m.OOB(t900, d_B[1], 1, "B", 8, 59)
		}
		t901 := b_B + int((t898)*d_B[1]+t900)
		r_B_r3 := m.LoadF(t901)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
		t902 := float64(r_A_r2 * r_A_r3)
		if r_B_r3 == 0 {
			return m.DivZero(8, 57)
		}
		t903 := float64(t902 / r_B_r3)
		t904 := float64(r_B_r2 - t903)
		r_B_w := t904
		t905 := i_i1
		if t905 < 0 || t905 >= d_B[0] {
			return m.OOB(t905, d_B[0], 0, "B", 8, 11)
		}
		t906 := i_i2
		if t906 < 0 || t906 >= d_B[1] {
			return m.OOB(t906, d_B[1], 1, "B", 8, 11)
		}
		t907 := b_B + int((t905)*d_B[1]+t906)
		m.StoreF(t907, r_B_w)
		t910 := -i_i2
		t911 := t910 + p_n
		t912 := t911 - int64(2)
		t909 := t912 >= int64(0)
		if t909 {
			t913 := -i_t
			t909 = t913 >= int64(0)
		}
		t908 := t909
		if t908 {
			t914 := -i_i1
			t908 = t914 >= int64(0)
		}
		if t908 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t917 := -i_i2
		t918 := t917 + p_n
		t919 := t918 - int64(2)
		t916 := t919 >= int64(0)
		if t916 {
			t920 := -i_t
			t916 = t920 >= int64(0)
		}
		t915 := t916
		if t915 {
			t921 := i_i1 - int64(1)
			t915 = t921 >= int64(0)
		}
		if t915 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t925 := -i_i2
		t926 := t925 + p_n
		t927 := t926 - int64(2)
		t924 := t927 >= int64(0)
		if t924 {
			t928 := i_t - int64(1)
			t924 = t928 >= int64(0)
		}
		t923 := t924
		if t923 {
			t929 := i_t - p_tsteps
			t930 := t929 + int64(1)
			t923 = t930 >= int64(0)
		}
		t922 := t923
		if t922 {
			t931 := -i_i1
			t922 = t931 >= int64(0)
		}
		if t922 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t935 := -i_i2
		t936 := t935 + p_n
		t937 := t936 - int64(2)
		t934 := t937 >= int64(0)
		if t934 {
			t938 := i_t - int64(1)
			t934 = t938 >= int64(0)
		}
		t933 := t934
		if t933 {
			t939 := i_t - p_tsteps
			t940 := t939 + int64(1)
			t933 = t940 >= int64(0)
		}
		t932 := t933
		if t932 {
			t941 := i_i1 - int64(1)
			t932 = t941 >= int64(0)
		}
		if t932 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t945 := -i_i2
		t946 := t945 + p_n
		t947 := t946 - int64(2)
		t944 := t947 >= int64(0)
		if t944 {
			t948 := i_t - int64(1)
			t944 = t948 >= int64(0)
		}
		t943 := t944
		if t943 {
			t949 := -i_t
			t950 := t949 + p_tsteps
			t951 := t950 - int64(2)
			t943 = t951 >= int64(0)
		}
		t942 := t943
		if t942 {
			t952 := -i_i1
			t942 = t952 >= int64(0)
		}
		if t942 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t956 := -i_i2
		t957 := t956 + p_n
		t958 := t957 - int64(2)
		t955 := t958 >= int64(0)
		if t955 {
			t959 := i_t - int64(1)
			t955 = t959 >= int64(0)
		}
		t954 := t955
		if t954 {
			t960 := -i_t
			t961 := t960 + p_tsteps
			t962 := t961 - int64(2)
			t954 = t962 >= int64(0)
		}
		t953 := t954
		if t953 {
			t963 := i_i1 - int64(1)
			t953 = t963 >= int64(0)
		}
		if t953 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t966 := -i_t
		t967 := t966 + p_tsteps
		t968 := t967 - int64(2)
		t965 := t968 >= int64(0)
		if t965 {
			t969 := -i_i1
			t965 = t969 >= int64(0)
		}
		t964 := t965
		if t964 {
			t970 := i_t - p_tsteps
			t971 := t970 + int64(2)
			t964 = t971 >= int64(0)
		}
		if t964 {
			t972 := -i_t
			t973 := t972 + p_tsteps
			t974 := t973 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t974)
		}
		t976 := -i_i1
		t975 := t976 >= int64(0)
		if t975 {
			t977 := -i_t
			t978 := t977 + p_tsteps
			t979 := t978 - int64(3)
			t975 = t979 >= int64(0)
		}
		if t975 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t982 := i_i2 - p_n
		t983 := t982 + int64(1)
		t981 := t983 == int64(0)
		if t981 {
			t984 := -i_t
			t981 = t984 >= int64(0)
		}
		t980 := t981
		if t980 {
			t985 := -i_i1
			t980 = t985 >= int64(0)
		}
		if t980 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t988 := i_i2 - p_n
		t989 := t988 + int64(1)
		t987 := t989 == int64(0)
		if t987 {
			t990 := -i_t
			t987 = t990 >= int64(0)
		}
		t986 := t987
		if t986 {
			t991 := i_i1 - int64(1)
			t986 = t991 >= int64(0)
		}
		if t986 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t995 := i_i2 - p_n
		t996 := t995 + int64(1)
		t994 := t996 == int64(0)
		if t994 {
			t997 := i_t - int64(1)
			t994 = t997 >= int64(0)
		}
		t993 := t994
		if t993 {
			t998 := i_t - p_tsteps
			t999 := t998 + int64(1)
			t993 = t999 >= int64(0)
		}
		t992 := t993
		if t992 {
			t1000 := -i_i1
			t992 = t1000 >= int64(0)
		}
		if t992 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1004 := i_i2 - p_n
		t1005 := t1004 + int64(1)
		t1003 := t1005 == int64(0)
		if t1003 {
			t1006 := i_t - int64(1)
			t1003 = t1006 >= int64(0)
		}
		t1002 := t1003
		if t1002 {
			t1007 := i_t - p_tsteps
			t1008 := t1007 + int64(1)
			t1002 = t1008 >= int64(0)
		}
		t1001 := t1002
		if t1001 {
			t1009 := i_i1 - int64(1)
			t1001 = t1009 >= int64(0)
		}
		if t1001 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1013 := i_i2 - p_n
		t1014 := t1013 + int64(1)
		t1012 := t1014 == int64(0)
		if t1012 {
			t1015 := i_t - int64(1)
			t1012 = t1015 >= int64(0)
		}
		t1011 := t1012
		if t1011 {
			t1016 := -i_t
			t1017 := t1016 + p_tsteps
			t1018 := t1017 - int64(2)
			t1011 = t1018 >= int64(0)
		}
		t1010 := t1011
		if t1010 {
			t1019 := -i_i1
			t1010 = t1019 >= int64(0)
		}
		if t1010 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1023 := i_i2 - p_n
		t1024 := t1023 + int64(1)
		t1022 := t1024 == int64(0)
		if t1022 {
			t1025 := i_t - int64(1)
			t1022 = t1025 >= int64(0)
		}
		t1021 := t1022
		if t1021 {
			t1026 := -i_t
			t1027 := t1026 + p_tsteps
			t1028 := t1027 - int64(2)
			t1021 = t1028 >= int64(0)
		}
		t1020 := t1021
		if t1020 {
			t1029 := i_i1 - int64(1)
			t1020 = t1029 >= int64(0)
		}
		if t1020 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1032 := -i_i2
		t1033 := t1032 + p_n
		t1034 := t1033 - int64(3)
		t1031 := t1034 >= int64(0)
		if t1031 {
			t1035 := -i_t
			t1031 = t1035 >= int64(0)
		}
		t1030 := t1031
		if t1030 {
			t1036 := -i_i1
			t1030 = t1036 >= int64(0)
		}
		if t1030 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1039 := -i_i2
		t1040 := t1039 + p_n
		t1041 := t1040 - int64(3)
		t1038 := t1041 >= int64(0)
		if t1038 {
			t1042 := -i_t
			t1038 = t1042 >= int64(0)
		}
		t1037 := t1038
		if t1037 {
			t1043 := i_i1 - int64(1)
			t1037 = t1043 >= int64(0)
		}
		if t1037 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1047 := -i_i2
		t1048 := t1047 + p_n
		t1049 := t1048 - int64(3)
		t1046 := t1049 >= int64(0)
		if t1046 {
			t1050 := i_t - int64(1)
			t1046 = t1050 >= int64(0)
		}
		t1045 := t1046
		if t1045 {
			t1051 := i_t - p_tsteps
			t1052 := t1051 + int64(1)
			t1045 = t1052 >= int64(0)
		}
		t1044 := t1045
		if t1044 {
			t1053 := -i_i1
			t1044 = t1053 >= int64(0)
		}
		if t1044 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1057 := -i_i2
		t1058 := t1057 + p_n
		t1059 := t1058 - int64(3)
		t1056 := t1059 >= int64(0)
		if t1056 {
			t1060 := i_t - int64(1)
			t1056 = t1060 >= int64(0)
		}
		t1055 := t1056
		if t1055 {
			t1061 := i_t - p_tsteps
			t1062 := t1061 + int64(1)
			t1055 = t1062 >= int64(0)
		}
		t1054 := t1055
		if t1054 {
			t1063 := i_i1 - int64(1)
			t1054 = t1063 >= int64(0)
		}
		if t1054 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1067 := -i_i2
		t1068 := t1067 + p_n
		t1069 := t1068 - int64(3)
		t1066 := t1069 >= int64(0)
		if t1066 {
			t1070 := i_t - int64(1)
			t1066 = t1070 >= int64(0)
		}
		t1065 := t1066
		if t1065 {
			t1071 := -i_t
			t1072 := t1071 + p_tsteps
			t1073 := t1072 - int64(2)
			t1065 = t1073 >= int64(0)
		}
		t1064 := t1065
		if t1064 {
			t1074 := -i_i1
			t1064 = t1074 >= int64(0)
		}
		if t1064 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1078 := -i_i2
		t1079 := t1078 + p_n
		t1080 := t1079 - int64(3)
		t1077 := t1080 >= int64(0)
		if t1077 {
			t1081 := i_t - int64(1)
			t1077 = t1081 >= int64(0)
		}
		t1076 := t1077
		if t1076 {
			t1082 := -i_t
			t1083 := t1082 + p_tsteps
			t1084 := t1083 - int64(2)
			t1076 = t1084 >= int64(0)
		}
		t1075 := t1076
		if t1075 {
			t1085 := i_i1 - int64(1)
			t1075 = t1085 >= int64(0)
		}
		if t1075 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1087 := -i_t
		t1086 := t1087 >= int64(0)
		if t1086 {
			t1088 := -i_i1
			t1086 = t1088 >= int64(0)
		}
		if t1086 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t1091 := i_t - int64(1)
		t1090 := t1091 >= int64(0)
		if t1090 {
			t1092 := i_t - p_tsteps
			t1093 := t1092 + int64(1)
			t1090 = t1093 >= int64(0)
		}
		t1089 := t1090
		if t1089 {
			t1094 := -i_i1
			t1089 = t1094 >= int64(0)
		}
		if t1089 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t1097 := i_t - int64(1)
		t1096 := t1097 >= int64(0)
		if t1096 {
			t1098 := -i_t
			t1099 := t1098 + p_tsteps
			t1100 := t1099 - int64(2)
			t1096 = t1100 >= int64(0)
		}
		t1095 := t1096
		if t1095 {
			t1101 := -i_i1
			t1095 = t1101 >= int64(0)
		}
		if t1095 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t1103 := i_i1 - int64(1)
		t1102 := t1103 >= int64(0)
		if t1102 {
			t1104 := -i_t
			t1102 = t1104 >= int64(0)
		}
		if t1102 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1107 := i_i1 - int64(1)
		t1106 := t1107 >= int64(0)
		if t1106 {
			t1108 := i_t - int64(1)
			t1106 = t1108 >= int64(0)
		}
		t1105 := t1106
		if t1105 {
			t1109 := i_t - p_tsteps
			t1110 := t1109 + int64(1)
			t1105 = t1110 >= int64(0)
		}
		if t1105 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1113 := i_i1 - int64(1)
		t1112 := t1113 >= int64(0)
		if t1112 {
			t1114 := i_t - int64(1)
			t1112 = t1114 >= int64(0)
		}
		t1111 := t1112
		if t1111 {
			t1115 := -i_t
			t1116 := t1115 + p_tsteps
			t1117 := t1116 - int64(2)
			t1111 = t1117 >= int64(0)
		}
		if t1111 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilient_n9(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, i_i1 int64, i_i2 int64, i_t int64, r_X_w float64) error {
	t603 := -i_i2
	t604 := t603 + p_n
	t605 := t604 - int64(2)
	t602 := t605 >= int64(0)
	if t602 {
		t606 := -i_t
		t602 = t606 >= int64(0)
	}
	t601 := t602
	if t601 {
		t607 := -i_i1
		t601 = t607 >= int64(0)
	}
	if t601 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t611 := -i_i2
	t612 := t611 + p_n
	t613 := t612 - int64(2)
	t610 := t613 >= int64(0)
	if t610 {
		t614 := -i_t
		t610 = t614 >= int64(0)
	}
	t609 := t610
	if t609 {
		t615 := i_i1 - int64(1)
		t609 = t615 >= int64(0)
	}
	t608 := t609
	if t608 {
		t616 := -i_i1
		t617 := t616 + p_n
		t618 := t617 - int64(2)
		t608 = t618 >= int64(0)
	}
	if t608 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t621 := -i_i2
	t622 := t621 + p_n
	t623 := t622 - int64(2)
	t620 := t623 >= int64(0)
	if t620 {
		t624 := -i_t
		t620 = t624 >= int64(0)
	}
	t619 := t620
	if t619 {
		t625 := i_i1 - p_n
		t626 := t625 + int64(1)
		t619 = t626 >= int64(0)
	}
	if t619 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t630 := -i_i2
	t631 := t630 + p_n
	t632 := t631 - int64(2)
	t629 := t632 >= int64(0)
	if t629 {
		t633 := i_t - int64(1)
		t629 = t633 >= int64(0)
	}
	t628 := t629
	if t628 {
		t634 := i_t - p_tsteps
		t635 := t634 + int64(1)
		t628 = t635 >= int64(0)
	}
	t627 := t628
	if t627 {
		t636 := -i_i1
		t627 = t636 >= int64(0)
	}
	if t627 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t641 := -i_i2
	t642 := t641 + p_n
	t643 := t642 - int64(2)
	t640 := t643 >= int64(0)
	if t640 {
		t644 := i_t - int64(1)
		t640 = t644 >= int64(0)
	}
	t639 := t640
	if t639 {
		t645 := i_t - p_tsteps
		t646 := t645 + int64(1)
		t639 = t646 >= int64(0)
	}
	t638 := t639
	if t638 {
		t647 := i_i1 - int64(1)
		t638 = t647 >= int64(0)
	}
	t637 := t638
	if t637 {
		t648 := -i_i1
		t649 := t648 + p_n
		t650 := t649 - int64(2)
		t637 = t650 >= int64(0)
	}
	if t637 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t654 := -i_i2
	t655 := t654 + p_n
	t656 := t655 - int64(2)
	t653 := t656 >= int64(0)
	if t653 {
		t657 := i_t - int64(1)
		t653 = t657 >= int64(0)
	}
	t652 := t653
	if t652 {
		t658 := i_t - p_tsteps
		t659 := t658 + int64(1)
		t652 = t659 >= int64(0)
	}
	t651 := t652
	if t651 {
		t660 := i_i1 - p_n
		t661 := t660 + int64(1)
		t651 = t661 >= int64(0)
	}
	if t651 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t665 := -i_i2
	t666 := t665 + p_n
	t667 := t666 - int64(2)
	t664 := t667 >= int64(0)
	if t664 {
		t668 := i_t - int64(1)
		t664 = t668 >= int64(0)
	}
	t663 := t664
	if t663 {
		t669 := -i_t
		t670 := t669 + p_tsteps
		t671 := t670 - int64(2)
		t663 = t671 >= int64(0)
	}
	t662 := t663
	if t662 {
		t672 := -i_i1
		t662 = t672 >= int64(0)
	}
	if t662 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t677 := -i_i2
	t678 := t677 + p_n
	t679 := t678 - int64(2)
	t676 := t679 >= int64(0)
	if t676 {
		t680 := i_t - int64(1)
		t676 = t680 >= int64(0)
	}
	t675 := t676
	if t675 {
		t681 := -i_t
		t682 := t681 + p_tsteps
		t683 := t682 - int64(2)
		t675 = t683 >= int64(0)
	}
	t674 := t675
	if t674 {
		t684 := i_i1 - int64(1)
		t674 = t684 >= int64(0)
	}
	t673 := t674
	if t673 {
		t685 := -i_i1
		t686 := t685 + p_n
		t687 := t686 - int64(2)
		t673 = t687 >= int64(0)
	}
	if t673 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t691 := -i_i2
	t692 := t691 + p_n
	t693 := t692 - int64(2)
	t690 := t693 >= int64(0)
	if t690 {
		t694 := i_t - int64(1)
		t690 = t694 >= int64(0)
	}
	t689 := t690
	if t689 {
		t695 := -i_t
		t696 := t695 + p_tsteps
		t697 := t696 - int64(2)
		t689 = t697 >= int64(0)
	}
	t688 := t689
	if t688 {
		t698 := i_i1 - p_n
		t699 := t698 + int64(1)
		t688 = t699 >= int64(0)
	}
	if t688 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
	}
	t702 := i_i2 - p_n
	t703 := t702 + int64(1)
	t701 := t703 == int64(0)
	if t701 {
		t704 := -i_t
		t701 = t704 >= int64(0)
	}
	t700 := t701
	if t700 {
		t705 := -i_i1
		t700 = t705 >= int64(0)
	}
	if t700 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t709 := i_i2 - p_n
	t710 := t709 + int64(1)
	t708 := t710 == int64(0)
	if t708 {
		t711 := -i_t
		t708 = t711 >= int64(0)
	}
	t707 := t708
	if t707 {
		t712 := i_i1 - int64(1)
		t707 = t712 >= int64(0)
	}
	t706 := t707
	if t706 {
		t713 := -i_i1
		t714 := t713 + p_n
		t715 := t714 - int64(2)
		t706 = t715 >= int64(0)
	}
	if t706 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t718 := i_i2 - p_n
	t719 := t718 + int64(1)
	t717 := t719 == int64(0)
	if t717 {
		t720 := -i_t
		t717 = t720 >= int64(0)
	}
	t716 := t717
	if t716 {
		t721 := i_i1 - p_n
		t722 := t721 + int64(1)
		t716 = t722 >= int64(0)
	}
	if t716 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t726 := i_i2 - p_n
	t727 := t726 + int64(1)
	t725 := t727 == int64(0)
	if t725 {
		t728 := i_t - int64(1)
		t725 = t728 >= int64(0)
	}
	t724 := t725
	if t724 {
		t729 := i_t - p_tsteps
		t730 := t729 + int64(1)
		t724 = t730 >= int64(0)
	}
	t723 := t724
	if t723 {
		t731 := -i_i1
		t723 = t731 >= int64(0)
	}
	if t723 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t736 := i_i2 - p_n
	t737 := t736 + int64(1)
	t735 := t737 == int64(0)
	if t735 {
		t738 := i_t - int64(1)
		t735 = t738 >= int64(0)
	}
	t734 := t735
	if t734 {
		t739 := i_t - p_tsteps
		t740 := t739 + int64(1)
		t734 = t740 >= int64(0)
	}
	t733 := t734
	if t733 {
		t741 := i_i1 - int64(1)
		t733 = t741 >= int64(0)
	}
	t732 := t733
	if t732 {
		t742 := -i_i1
		t743 := t742 + p_n
		t744 := t743 - int64(2)
		t732 = t744 >= int64(0)
	}
	if t732 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t748 := i_i2 - p_n
	t749 := t748 + int64(1)
	t747 := t749 == int64(0)
	if t747 {
		t750 := i_t - int64(1)
		t747 = t750 >= int64(0)
	}
	t746 := t747
	if t746 {
		t751 := i_t - p_tsteps
		t752 := t751 + int64(1)
		t746 = t752 >= int64(0)
	}
	t745 := t746
	if t745 {
		t753 := i_i1 - p_n
		t754 := t753 + int64(1)
		t745 = t754 >= int64(0)
	}
	if t745 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t758 := i_i2 - p_n
	t759 := t758 + int64(1)
	t757 := t759 == int64(0)
	if t757 {
		t760 := i_t - int64(1)
		t757 = t760 >= int64(0)
	}
	t756 := t757
	if t756 {
		t761 := -i_t
		t762 := t761 + p_tsteps
		t763 := t762 - int64(2)
		t756 = t763 >= int64(0)
	}
	t755 := t756
	if t755 {
		t764 := -i_i1
		t755 = t764 >= int64(0)
	}
	if t755 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t769 := i_i2 - p_n
	t770 := t769 + int64(1)
	t768 := t770 == int64(0)
	if t768 {
		t771 := i_t - int64(1)
		t768 = t771 >= int64(0)
	}
	t767 := t768
	if t767 {
		t772 := -i_t
		t773 := t772 + p_tsteps
		t774 := t773 - int64(2)
		t767 = t774 >= int64(0)
	}
	t766 := t767
	if t766 {
		t775 := i_i1 - int64(1)
		t766 = t775 >= int64(0)
	}
	t765 := t766
	if t765 {
		t776 := -i_i1
		t777 := t776 + p_n
		t778 := t777 - int64(2)
		t765 = t778 >= int64(0)
	}
	if t765 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t782 := i_i2 - p_n
	t783 := t782 + int64(1)
	t781 := t783 == int64(0)
	if t781 {
		t784 := i_t - int64(1)
		t781 = t784 >= int64(0)
	}
	t780 := t781
	if t780 {
		t785 := -i_t
		t786 := t785 + p_tsteps
		t787 := t786 - int64(2)
		t780 = t787 >= int64(0)
	}
	t779 := t780
	if t779 {
		t788 := i_i1 - p_n
		t789 := t788 + int64(1)
		t779 = t789 >= int64(0)
	}
	if t779 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t792 := -i_i2
	t793 := t792 + p_n
	t794 := t793 - int64(3)
	t791 := t794 >= int64(0)
	if t791 {
		t795 := -i_t
		t791 = t795 >= int64(0)
	}
	t790 := t791
	if t790 {
		t796 := -i_i1
		t790 = t796 >= int64(0)
	}
	if t790 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t800 := -i_i2
	t801 := t800 + p_n
	t802 := t801 - int64(3)
	t799 := t802 >= int64(0)
	if t799 {
		t803 := -i_t
		t799 = t803 >= int64(0)
	}
	t798 := t799
	if t798 {
		t804 := i_i1 - int64(1)
		t798 = t804 >= int64(0)
	}
	t797 := t798
	if t797 {
		t805 := -i_i1
		t806 := t805 + p_n
		t807 := t806 - int64(2)
		t797 = t807 >= int64(0)
	}
	if t797 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t810 := -i_i2
	t811 := t810 + p_n
	t812 := t811 - int64(3)
	t809 := t812 >= int64(0)
	if t809 {
		t813 := -i_t
		t809 = t813 >= int64(0)
	}
	t808 := t809
	if t808 {
		t814 := i_i1 - p_n
		t815 := t814 + int64(1)
		t808 = t815 >= int64(0)
	}
	if t808 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t819 := -i_i2
	t820 := t819 + p_n
	t821 := t820 - int64(3)
	t818 := t821 >= int64(0)
	if t818 {
		t822 := i_t - int64(1)
		t818 = t822 >= int64(0)
	}
	t817 := t818
	if t817 {
		t823 := i_t - p_tsteps
		t824 := t823 + int64(1)
		t817 = t824 >= int64(0)
	}
	t816 := t817
	if t816 {
		t825 := -i_i1
		t816 = t825 >= int64(0)
	}
	if t816 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t830 := -i_i2
	t831 := t830 + p_n
	t832 := t831 - int64(3)
	t829 := t832 >= int64(0)
	if t829 {
		t833 := i_t - int64(1)
		t829 = t833 >= int64(0)
	}
	t828 := t829
	if t828 {
		t834 := i_t - p_tsteps
		t835 := t834 + int64(1)
		t828 = t835 >= int64(0)
	}
	t827 := t828
	if t827 {
		t836 := i_i1 - int64(1)
		t827 = t836 >= int64(0)
	}
	t826 := t827
	if t826 {
		t837 := -i_i1
		t838 := t837 + p_n
		t839 := t838 - int64(2)
		t826 = t839 >= int64(0)
	}
	if t826 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t843 := -i_i2
	t844 := t843 + p_n
	t845 := t844 - int64(3)
	t842 := t845 >= int64(0)
	if t842 {
		t846 := i_t - int64(1)
		t842 = t846 >= int64(0)
	}
	t841 := t842
	if t841 {
		t847 := i_t - p_tsteps
		t848 := t847 + int64(1)
		t841 = t848 >= int64(0)
	}
	t840 := t841
	if t840 {
		t849 := i_i1 - p_n
		t850 := t849 + int64(1)
		t840 = t850 >= int64(0)
	}
	if t840 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t854 := -i_i2
	t855 := t854 + p_n
	t856 := t855 - int64(3)
	t853 := t856 >= int64(0)
	if t853 {
		t857 := i_t - int64(1)
		t853 = t857 >= int64(0)
	}
	t852 := t853
	if t852 {
		t858 := -i_t
		t859 := t858 + p_tsteps
		t860 := t859 - int64(2)
		t852 = t860 >= int64(0)
	}
	t851 := t852
	if t851 {
		t861 := -i_i1
		t851 = t861 >= int64(0)
	}
	if t851 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t866 := -i_i2
	t867 := t866 + p_n
	t868 := t867 - int64(3)
	t865 := t868 >= int64(0)
	if t865 {
		t869 := i_t - int64(1)
		t865 = t869 >= int64(0)
	}
	t864 := t865
	if t864 {
		t870 := -i_t
		t871 := t870 + p_tsteps
		t872 := t871 - int64(2)
		t864 = t872 >= int64(0)
	}
	t863 := t864
	if t863 {
		t873 := i_i1 - int64(1)
		t863 = t873 >= int64(0)
	}
	t862 := t863
	if t862 {
		t874 := -i_i1
		t875 := t874 + p_n
		t876 := t875 - int64(2)
		t862 = t876 >= int64(0)
	}
	if t862 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	t880 := -i_i2
	t881 := t880 + p_n
	t882 := t881 - int64(3)
	t879 := t882 >= int64(0)
	if t879 {
		t883 := i_t - int64(1)
		t879 = t883 >= int64(0)
	}
	t878 := t879
	if t878 {
		t884 := -i_t
		t885 := t884 + p_tsteps
		t886 := t885 - int64(2)
		t878 = t886 >= int64(0)
	}
	t877 := t878
	if t877 {
		t887 := i_i1 - p_n
		t888 := t887 + int64(1)
		t877 = t888 >= int64(0)
	}
	if t877 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
	}
	return nil
}

func run_adi_resilient_n10(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64, i_t int64) error {
	t1118 := p_n - int64(1)
	for i_i1 := int64(0); i_i1 <= t1118; i_i1++ {
		if err := m.Tick(11, 3); err != nil {
			return err
		}
		t1119 := i_i1
		if t1119 < 0 || t1119 >= d_X[0] {
			return m.OOB(t1119, d_X[0], 0, "X", 12, 24)
		}
		t1120 := p_n - int64(1)
		t1121 := t1120
		if t1121 < 0 || t1121 >= d_X[1] {
			return m.OOB(t1121, d_X[1], 1, "X", 12, 24)
		}
		t1122 := b_X + int((t1119)*d_X[1]+t1121)
		r_X_r3 := m.LoadF(t1122)
		t1123 := i_i1
		if t1123 < 0 || t1123 >= d_B[0] {
			return m.OOB(t1123, d_B[0], 0, "B", 12, 39)
		}
		t1124 := p_n - int64(1)
		t1125 := t1124
		if t1125 < 0 || t1125 >= d_B[1] {
			return m.OOB(t1125, d_B[1], 1, "B", 12, 39)
		}
		t1126 := b_B + int((t1123)*d_B[1]+t1125)
		r_B_r4 := m.LoadF(t1126)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t1127 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t1127
		t1128 := i_i1
		if t1128 < 0 || t1128 >= d_X[0] {
			return m.OOB(t1128, d_X[0], 0, "X", 12, 9)
		}
		t1129 := p_n - int64(1)
		t1130 := t1129
		if t1130 < 0 || t1130 >= d_X[1] {
			return m.OOB(t1130, d_X[1], 1, "X", 12, 9)
		}
		t1131 := b_X + int((t1128)*d_X[1]+t1130)
		m.StoreF(t1131, r_X_w2)
		t1135 := -i_t
		t1136 := t1135 + p_tsteps
		t1137 := t1136 - int64(2)
		t1134 := t1137 >= int64(0)
		if t1134 {
			t1138 := -i_i1
			t1134 = t1138 >= int64(0)
		}
		t1133 := t1134
		if t1133 {
			t1139 := -i_i1
			t1140 := t1139 + p_n
			t1141 := t1140 - int64(2)
			t1133 = t1141 >= int64(0)
		}
		t1132 := t1133
		if t1132 {
			t1142 := i_t - p_tsteps
			t1143 := t1142 + int64(2)
			t1132 = t1143 >= int64(0)
		}
		if t1132 {
			t1144 := -i_t
			t1145 := t1144 + p_tsteps
			t1146 := t1145 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), t1146)
		}
		t1149 := -i_i1
		t1148 := t1149 >= int64(0)
		if t1148 {
			t1150 := -i_i1
			t1151 := t1150 + p_n
			t1152 := t1151 - int64(2)
			t1148 = t1152 >= int64(0)
		}
		t1147 := t1148
		if t1147 {
			t1153 := -i_t
			t1154 := t1153 + p_tsteps
			t1155 := t1154 - int64(3)
			t1147 = t1155 >= int64(0)
		}
		if t1147 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1158 := i_i1 - int64(1)
		t1157 := t1158 >= int64(0)
		if t1157 {
			t1159 := -i_t
			t1157 = t1159 >= int64(0)
		}
		t1156 := t1157
		if t1156 {
			t1160 := -i_i1
			t1161 := t1160 + p_n
			t1162 := t1161 - int64(2)
			t1156 = t1162 >= int64(0)
		}
		if t1156 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1165 := p_n - int64(2)
		t1164 := t1165 >= int64(0)
		if t1164 {
			t1166 := -i_t
			t1164 = t1166 >= int64(0)
		}
		t1163 := t1164
		if t1163 {
			t1167 := i_i1 - p_n
			t1168 := t1167 + int64(1)
			t1163 = t1168 >= int64(0)
		}
		if t1163 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1172 := i_i1 - int64(1)
		t1171 := t1172 >= int64(0)
		if t1171 {
			t1173 := i_t - int64(1)
			t1171 = t1173 >= int64(0)
		}
		t1170 := t1171
		if t1170 {
			t1174 := i_t - p_tsteps
			t1175 := t1174 + int64(1)
			t1170 = t1175 >= int64(0)
		}
		t1169 := t1170
		if t1169 {
			t1176 := -i_i1
			t1177 := t1176 + p_n
			t1178 := t1177 - int64(2)
			t1169 = t1178 >= int64(0)
		}
		if t1169 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1182 := p_n - int64(2)
		t1181 := t1182 >= int64(0)
		if t1181 {
			t1183 := i_t - int64(1)
			t1181 = t1183 >= int64(0)
		}
		t1180 := t1181
		if t1180 {
			t1184 := i_t - p_tsteps
			t1185 := t1184 + int64(1)
			t1180 = t1185 >= int64(0)
		}
		t1179 := t1180
		if t1179 {
			t1186 := i_i1 - p_n
			t1187 := t1186 + int64(1)
			t1179 = t1187 >= int64(0)
		}
		if t1179 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1191 := i_i1 - int64(1)
		t1190 := t1191 >= int64(0)
		if t1190 {
			t1192 := i_t - int64(1)
			t1190 = t1192 >= int64(0)
		}
		t1189 := t1190
		if t1189 {
			t1193 := -i_t
			t1194 := t1193 + p_tsteps
			t1195 := t1194 - int64(2)
			t1189 = t1195 >= int64(0)
		}
		t1188 := t1189
		if t1188 {
			t1196 := -i_i1
			t1197 := t1196 + p_n
			t1198 := t1197 - int64(2)
			t1188 = t1198 >= int64(0)
		}
		if t1188 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1202 := p_n - int64(2)
		t1201 := t1202 >= int64(0)
		if t1201 {
			t1203 := i_t - int64(1)
			t1201 = t1203 >= int64(0)
		}
		t1200 := t1201
		if t1200 {
			t1204 := -i_t
			t1205 := t1204 + p_tsteps
			t1206 := t1205 - int64(2)
			t1200 = t1206 >= int64(0)
		}
		t1199 := t1200
		if t1199 {
			t1207 := i_i1 - p_n
			t1208 := t1207 + int64(1)
			t1199 = t1208 >= int64(0)
		}
		if t1199 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1211 := p_n - int64(2)
		t1210 := t1211 >= int64(0)
		if t1210 {
			t1212 := -i_t
			t1210 = t1212 >= int64(0)
		}
		t1209 := t1210
		if t1209 {
			t1213 := -i_i1
			t1209 = t1213 >= int64(0)
		}
		if t1209 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1217 := p_n - int64(2)
		t1216 := t1217 >= int64(0)
		if t1216 {
			t1218 := i_t - int64(1)
			t1216 = t1218 >= int64(0)
		}
		t1215 := t1216
		if t1215 {
			t1219 := i_t - p_tsteps
			t1220 := t1219 + int64(1)
			t1215 = t1220 >= int64(0)
		}
		t1214 := t1215
		if t1214 {
			t1221 := -i_i1
			t1214 = t1221 >= int64(0)
		}
		if t1214 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1225 := p_n - int64(2)
		t1224 := t1225 >= int64(0)
		if t1224 {
			t1226 := i_t - int64(1)
			t1224 = t1226 >= int64(0)
		}
		t1223 := t1224
		if t1223 {
			t1227 := -i_t
			t1228 := t1227 + p_tsteps
			t1229 := t1228 - int64(2)
			t1223 = t1229 >= int64(0)
		}
		t1222 := t1223
		if t1222 {
			t1230 := -i_i1
			t1222 = t1230 >= int64(0)
		}
		if t1222 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1232 := -p_n
		t1233 := t1232 + int64(1)
		t1231 := t1233 >= int64(0)
		if t1231 {
			t1234 := -i_t
			t1231 = t1234 >= int64(0)
		}
		if t1231 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1237 := -p_n
		t1238 := t1237 + int64(1)
		t1236 := t1238 >= int64(0)
		if t1236 {
			t1239 := i_t - int64(1)
			t1236 = t1239 >= int64(0)
		}
		t1235 := t1236
		if t1235 {
			t1240 := i_t - p_tsteps
			t1241 := t1240 + int64(1)
			t1235 = t1241 >= int64(0)
		}
		if t1235 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1244 := -p_n
		t1245 := t1244 + int64(1)
		t1243 := t1245 >= int64(0)
		if t1243 {
			t1246 := i_t - int64(1)
			t1243 = t1246 >= int64(0)
		}
		t1242 := t1243
		if t1242 {
			t1247 := -i_t
			t1248 := t1247 + p_tsteps
			t1249 := t1248 - int64(2)
			t1242 = t1249 >= int64(0)
		}
		if t1242 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1252 := -i_i1
		t1253 := t1252 + p_n
		t1254 := t1253 - int64(3)
		t1251 := t1254 >= int64(0)
		if t1251 {
			t1255 := -i_t
			t1251 = t1255 >= int64(0)
		}
		t1250 := t1251
		if t1250 {
			t1256 := -i_i1
			t1250 = t1256 >= int64(0)
		}
		if t1250 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1260 := -i_i1
		t1261 := t1260 + p_n
		t1262 := t1261 - int64(3)
		t1259 := t1262 >= int64(0)
		if t1259 {
			t1263 := i_t - int64(1)
			t1259 = t1263 >= int64(0)
		}
		t1258 := t1259
		if t1258 {
			t1264 := i_t - p_tsteps
			t1265 := t1264 + int64(1)
			t1258 = t1265 >= int64(0)
		}
		t1257 := t1258
		if t1257 {
			t1266 := -i_i1
			t1257 = t1266 >= int64(0)
		}
		if t1257 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t1270 := -i_i1
		t1271 := t1270 + p_n
		t1272 := t1271 - int64(3)
		t1269 := t1272 >= int64(0)
		if t1269 {
			t1273 := i_t - int64(1)
			t1269 = t1273 >= int64(0)
		}
		t1268 := t1269
		if t1268 {
			t1274 := -i_t
			t1275 := t1274 + p_tsteps
			t1276 := t1275 - int64(2)
			t1268 = t1276 >= int64(0)
		}
		t1267 := t1268
		if t1267 {
			t1277 := -i_i1
			t1267 = t1277 >= int64(0)
		}
		if t1267 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilient_n11(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t1278 := p_n - int64(1)
	for i_i1 := int64(0); i_i1 <= t1278; i_i1++ {
		if err := m.Tick(14, 3); err != nil {
			return err
		}
		t1279 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t1279; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t1280 := i_i1
			if t1280 < 0 || t1280 >= d_X[0] {
				return m.OOB(t1280, d_X[0], 0, "X", 16, 32)
			}
			t1281 := p_n - int64(2)
			t1282 := t1281 - i_i2
			t1283 := t1282
			if t1283 < 0 || t1283 >= d_X[1] {
				return m.OOB(t1283, d_X[1], 1, "X", 16, 32)
			}
			t1284 := b_X + int((t1280)*d_X[1]+t1283)
			r_X_r4 := m.LoadF(t1284)
			t1285 := i_i1
			if t1285 < 0 || t1285 >= d_X[0] {
				return m.OOB(t1285, d_X[0], 0, "X", 16, 52)
			}
			t1286 := p_n - int64(2)
			t1287 := t1286 - i_i2
			t1288 := t1287 - int64(1)
			t1289 := t1288
			if t1289 < 0 || t1289 >= d_X[1] {
				return m.OOB(t1289, d_X[1], 1, "X", 16, 52)
			}
			t1290 := b_X + int((t1285)*d_X[1]+t1289)
			r_X_r5 := m.LoadF(t1290)
			t1291 := i_i1
			if t1291 < 0 || t1291 >= d_A[0] {
				return m.OOB(t1291, d_A[0], 0, "A", 16, 76)
			}
			t1292 := p_n - i_i2
			t1293 := t1292 - int64(3)
			t1294 := t1293
			if t1294 < 0 || t1294 >= d_A[1] {
				return m.OOB(t1294, d_A[1], 1, "A", 16, 76)
			}
			t1295 := b_A + int((t1291)*d_A[1]+t1294)
			r_A_r4 := m.LoadF(t1295)
			t1296 := i_i1
			if t1296 < 0 || t1296 >= d_B[0] {
				return m.OOB(t1296, d_B[0], 0, "B", 16, 97)
			}
			t1297 := p_n - int64(3)
			t1298 := t1297 - i_i2
			t1299 := t1298
			if t1299 < 0 || t1299 >= d_B[1] {
				return m.OOB(t1299, d_B[1], 1, "B", 16, 97)
			}
			t1300 := b_B + int((t1296)*d_B[1]+t1299)
			r_B_r5 := m.LoadF(t1300)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t1301 := float64(r_X_r5 * r_A_r4)
			t1302 := float64(r_X_r4 - t1301)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t1303 := float64(t1302 / r_B_r5)
			r_X_w3 := t1303
			t1304 := i_i1
			if t1304 < 0 || t1304 >= d_X[0] {
				return m.OOB(t1304, d_X[0], 0, "X", 16, 11)
			}
			t1305 := p_n - i_i2
			t1306 := t1305 - int64(2)
			t1307 := t1306
			if t1307 < 0 || t1307 >= d_X[1] {
				return m.OOB(t1307, d_X[1], 1, "X", 16, 11)
			}
			t1308 := b_X + int((t1304)*d_X[1]+t1307)
			m.StoreF(t1308, r_X_w3)
			t1311 := -i_t
			t1312 := t1311 + p_tsteps
			t1313 := t1312 - int64(2)
			t1310 := t1313 >= int64(0)
			if t1310 {
				t1314 := -i_i1
				t1310 = t1314 >= int64(0)
			}
			t1309 := t1310
			if t1309 {
				t1315 := i_t - p_tsteps
				t1316 := t1315 + int64(2)
				t1309 = t1316 >= int64(0)
			}
			if t1309 {
				t1317 := -i_t
				t1318 := t1317 + p_tsteps
				t1319 := t1318 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), t1319)
			}
			t1321 := -i_i1
			t1320 := t1321 >= int64(0)
			if t1320 {
				t1322 := -i_t
				t1323 := t1322 + p_tsteps
				t1324 := t1323 - int64(3)
				t1320 = t1324 >= int64(0)
			}
			if t1320 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1327 := i_i1 - int64(1)
			t1326 := t1327 >= int64(0)
			if t1326 {
				t1328 := -i_t
				t1326 = t1328 >= int64(0)
			}
			t1325 := t1326
			if t1325 {
				t1329 := -i_i1
				t1330 := t1329 + p_n
				t1331 := t1330 - int64(2)
				t1325 = t1331 >= int64(0)
			}
			if t1325 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1333 := -i_t
			t1332 := t1333 >= int64(0)
			if t1332 {
				t1334 := i_i1 - p_n
				t1335 := t1334 + int64(1)
				t1332 = t1335 >= int64(0)
			}
			if t1332 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1339 := i_i1 - int64(1)
			t1338 := t1339 >= int64(0)
			if t1338 {
				t1340 := i_t - int64(1)
				t1338 = t1340 >= int64(0)
			}
			t1337 := t1338
			if t1337 {
				t1341 := i_t - p_tsteps
				t1342 := t1341 + int64(1)
				t1337 = t1342 >= int64(0)
			}
			t1336 := t1337
			if t1336 {
				t1343 := -i_i1
				t1344 := t1343 + p_n
				t1345 := t1344 - int64(2)
				t1336 = t1345 >= int64(0)
			}
			if t1336 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1348 := i_t - int64(1)
			t1347 := t1348 >= int64(0)
			if t1347 {
				t1349 := i_t - p_tsteps
				t1350 := t1349 + int64(1)
				t1347 = t1350 >= int64(0)
			}
			t1346 := t1347
			if t1346 {
				t1351 := i_i1 - p_n
				t1352 := t1351 + int64(1)
				t1346 = t1352 >= int64(0)
			}
			if t1346 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1356 := i_i1 - int64(1)
			t1355 := t1356 >= int64(0)
			if t1355 {
				t1357 := i_t - int64(1)
				t1355 = t1357 >= int64(0)
			}
			t1354 := t1355
			if t1354 {
				t1358 := -i_t
				t1359 := t1358 + p_tsteps
				t1360 := t1359 - int64(2)
				t1354 = t1360 >= int64(0)
			}
			t1353 := t1354
			if t1353 {
				t1361 := -i_i1
				t1362 := t1361 + p_n
				t1363 := t1362 - int64(2)
				t1353 = t1363 >= int64(0)
			}
			if t1353 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1366 := i_t - int64(1)
			t1365 := t1366 >= int64(0)
			if t1365 {
				t1367 := -i_t
				t1368 := t1367 + p_tsteps
				t1369 := t1368 - int64(2)
				t1365 = t1369 >= int64(0)
			}
			t1364 := t1365
			if t1364 {
				t1370 := i_i1 - p_n
				t1371 := t1370 + int64(1)
				t1364 = t1371 >= int64(0)
			}
			if t1364 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
			t1373 := -i_t
			t1372 := t1373 >= int64(0)
			if t1372 {
				t1374 := -i_i1
				t1372 = t1374 >= int64(0)
			}
			if t1372 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
			}
			t1377 := i_t - int64(1)
			t1376 := t1377 >= int64(0)
			if t1376 {
				t1378 := i_t - p_tsteps
				t1379 := t1378 + int64(1)
				t1376 = t1379 >= int64(0)
			}
			t1375 := t1376
			if t1375 {
				t1380 := -i_i1
				t1375 = t1380 >= int64(0)
			}
			if t1375 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
			}
			t1383 := i_t - int64(1)
			t1382 := t1383 >= int64(0)
			if t1382 {
				t1384 := -i_t
				t1385 := t1384 + p_tsteps
				t1386 := t1385 - int64(2)
				t1382 = t1386 >= int64(0)
			}
			t1381 := t1382
			if t1381 {
				t1387 := -i_i1
				t1381 = t1387 >= int64(0)
			}
			if t1381 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
			}
		}
	}
	return nil
}

func run_adi_resilient_n12(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t1388 := p_n - int64(1)
	for i_i1 := int64(1); i_i1 <= t1388; i_i1++ {
		if err := m.Tick(19, 3); err != nil {
			return err
		}
		if err := run_adi_resilient_n13(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_i1, i_t); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilient_n13(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_i1 int64, i_t int64) error {
	t1389 := p_n - int64(1)
	for i_i2 := int64(0); i_i2 <= t1389; i_i2++ {
		if err := m.Tick(20, 5); err != nil {
			return err
		}
		t1390 := i_i1
		if t1390 < 0 || t1390 >= d_X[0] {
			return m.OOB(t1390, d_X[0], 0, "X", 21, 23)
		}
		t1391 := i_i2
		if t1391 < 0 || t1391 >= d_X[1] {
			return m.OOB(t1391, d_X[1], 1, "X", 21, 23)
		}
		t1392 := b_X + int((t1390)*d_X[1]+t1391)
		r_X_r6 := m.LoadF(t1392)
		t1393 := i_i1 - int64(1)
		t1394 := t1393
		if t1394 < 0 || t1394 >= d_X[0] {
			return m.OOB(t1394, d_X[0], 0, "X", 21, 35)
		}
		t1395 := i_i2
		if t1395 < 0 || t1395 >= d_X[1] {
			return m.OOB(t1395, d_X[1], 1, "X", 21, 35)
		}
		t1396 := b_X + int((t1394)*d_X[1]+t1395)
		r_X_r7 := m.LoadF(t1396)
		t1397 := i_i1
		if t1397 < 0 || t1397 >= d_A[0] {
			return m.OOB(t1397, d_A[0], 0, "A", 21, 51)
		}
		t1398 := i_i2
		if t1398 < 0 || t1398 >= d_A[1] {
			return m.OOB(t1398, d_A[1], 1, "A", 21, 51)
		}
		t1399 := b_A + int((t1397)*d_A[1]+t1398)
		r_A_r5 := m.LoadF(t1399)
		t1400 := i_i1 - int64(1)
		t1401 := t1400
		if t1401 < 0 || t1401 >= d_B[0] {
			return m.OOB(t1401, d_B[0], 0, "B", 21, 63)
		}
		t1402 := i_i2
		if t1402 < 0 || t1402 >= d_B[1] {
			return m.OOB(t1402, d_B[1], 1, "B", 21, 63)
		}
		t1403 := b_B + int((t1401)*d_B[1]+t1402)
		r_B_r6 := m.LoadF(t1403)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
		t1404 := float64(r_X_r7 * r_A_r5)
		if r_B_r6 == 0 {
			return m.DivZero(21, 61)
		}
		t1405 := float64(t1404 / r_B_r6)
		t1406 := float64(r_X_r6 - t1405)
		r_X_w4 := t1406
		t1407 := i_i1
		if t1407 < 0 || t1407 >= d_X[0] {
			return m.OOB(t1407, d_X[0], 0, "X", 21, 11)
		}
		t1408 := i_i2
		if t1408 < 0 || t1408 >= d_X[1] {
			return m.OOB(t1408, d_X[1], 1, "X", 21, 11)
		}
		t1409 := b_X + int((t1407)*d_X[1]+t1408)
		m.StoreF(t1409, r_X_w4)
		if err := run_adi_resilient_n14(m, cs, p_tsteps, p_n, i_i1, i_i2, i_t, r_X_w4); err != nil {
			return err
		}
		t1698 := i_i1
		if t1698 < 0 || t1698 >= d_B[0] {
			return m.OOB(t1698, d_B[0], 0, "B", 22, 23)
		}
		t1699 := i_i2
		if t1699 < 0 || t1699 >= d_B[1] {
			return m.OOB(t1699, d_B[1], 1, "B", 22, 23)
		}
		t1700 := b_B + int((t1698)*d_B[1]+t1699)
		r_B_r7 := m.LoadF(t1700)
		t1701 := i_i1
		if t1701 < 0 || t1701 >= d_A[0] {
			return m.OOB(t1701, d_A[0], 0, "A", 22, 35)
		}
		t1702 := i_i2
		if t1702 < 0 || t1702 >= d_A[1] {
			return m.OOB(t1702, d_A[1], 1, "A", 22, 35)
		}
		t1703 := b_A + int((t1701)*d_A[1]+t1702)
		r_A_r6 := m.LoadF(t1703)
		t1704 := i_i1
		if t1704 < 0 || t1704 >= d_A[0] {
			return m.OOB(t1704, d_A[0], 0, "A", 22, 47)
		}
		t1705 := i_i2
		if t1705 < 0 || t1705 >= d_A[1] {
			return m.OOB(t1705, d_A[1], 1, "A", 22, 47)
		}
		t1706 := b_A + int((t1704)*d_A[1]+t1705)
		r_A_r7 := m.LoadF(t1706)
		t1707 := i_i1 - int64(1)
		t1708 := t1707
		if t1708 < 0 || t1708 >= d_B[0] {
			return m.OOB(t1708, d_B[0], 0, "B", 22, 59)
		}
		t1709 := i_i2
		if t1709 < 0 || t1709 >= d_B[1] {
			return m.OOB(t1709, d_B[1], 1, "B", 22, 59)
		}
		t1710 := b_B + int((t1708)*d_B[1]+t1709)
		r_B_r8 := m.LoadF(t1710)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
		t1711 := float64(r_A_r6 * r_A_r7)
		if r_B_r8 == 0 {
			return m.DivZero(22, 57)
		}
		t1712 := float64(t1711 / r_B_r8)
		t1713 := float64(r_B_r7 - t1712)
		r_B_w2 := t1713
		t1714 := i_i1
		if t1714 < 0 || t1714 >= d_B[0] {
			return m.OOB(t1714, d_B[0], 0, "B", 22, 11)
		}
		t1715 := i_i2
		if t1715 < 0 || t1715 >= d_B[1] {
			return m.OOB(t1715, d_B[1], 1, "B", 22, 11)
		}
		t1716 := b_B + int((t1714)*d_B[1]+t1715)
		m.StoreF(t1716, r_B_w2)
		t1719 := -i_i2
		t1718 := t1719 >= int64(0)
		if t1718 {
			t1720 := -i_t
			t1721 := t1720 + p_tsteps
			t1722 := t1721 - int64(2)
			t1718 = t1722 >= int64(0)
		}
		t1717 := t1718
		if t1717 {
			t1723 := i_t - p_tsteps
			t1724 := t1723 + int64(2)
			t1717 = t1724 >= int64(0)
		}
		if t1717 {
			t1725 := int64(3) * i_t
			t1726 := -t1725
			t1727 := int64(3) * p_tsteps
			t1728 := t1726 + t1727
			t1729 := t1728 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t1729)
		}
		t1731 := -i_i2
		t1730 := t1731 >= int64(0)
		if t1730 {
			t1732 := -i_t
			t1733 := t1732 + p_tsteps
			t1734 := t1733 - int64(3)
			t1730 = t1734 >= int64(0)
		}
		if t1730 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1737 := i_i2 - int64(1)
		t1736 := t1737 >= int64(0)
		if t1736 {
			t1738 := -i_t
			t1739 := t1738 + p_tsteps
			t1740 := t1739 - int64(2)
			t1736 = t1740 >= int64(0)
		}
		t1735 := t1736
		if t1735 {
			t1741 := i_t - p_tsteps
			t1742 := t1741 + int64(2)
			t1735 = t1742 >= int64(0)
		}
		if t1735 {
			t1743 := -i_t
			t1744 := t1743 + p_tsteps
			t1745 := t1744 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t1745)
		}
		t1747 := i_i2 - int64(1)
		t1746 := t1747 >= int64(0)
		if t1746 {
			t1748 := -i_t
			t1749 := t1748 + p_tsteps
			t1750 := t1749 - int64(3)
			t1746 = t1750 >= int64(0)
		}
		if t1746 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1754 := -i_i2
		t1755 := t1754 + p_n
		t1756 := t1755 - int64(3)
		t1753 := t1756 >= int64(0)
		if t1753 {
			t1757 := -i_i2
			t1753 = t1757 >= int64(0)
		}
		t1752 := t1753
		if t1752 {
			t1758 := -i_t
			t1759 := t1758 + p_tsteps
			t1760 := t1759 - int64(2)
			t1752 = t1760 >= int64(0)
		}
		t1751 := t1752
		if t1751 {
			t1761 := i_t - p_tsteps
			t1762 := t1761 + int64(2)
			t1751 = t1762 >= int64(0)
		}
		if t1751 {
			t1763 := -i_t
			t1764 := t1763 + p_tsteps
			t1765 := t1764 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t1765)
		}
		t1768 := -i_i2
		t1769 := t1768 + p_n
		t1770 := t1769 - int64(3)
		t1767 := t1770 >= int64(0)
		if t1767 {
			t1771 := -i_i2
			t1767 = t1771 >= int64(0)
		}
		t1766 := t1767
		if t1766 {
			t1772 := -i_t
			t1773 := t1772 + p_tsteps
			t1774 := t1773 - int64(3)
			t1766 = t1774 >= int64(0)
		}
		if t1766 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1777 := -i_i1
		t1778 := t1777 + p_n
		t1779 := t1778 - int64(2)
		t1776 := t1779 >= int64(0)
		if t1776 {
			t1780 := -i_i2
			t1776 = t1780 >= int64(0)
		}
		t1775 := t1776
		if t1775 {
			t1781 := -i_t
			t1775 = t1781 >= int64(0)
		}
		if t1775 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1785 := -i_i1
		t1786 := t1785 + p_n
		t1787 := t1786 - int64(2)
		t1784 := t1787 >= int64(0)
		if t1784 {
			t1788 := -i_i2
			t1784 = t1788 >= int64(0)
		}
		t1783 := t1784
		if t1783 {
			t1789 := i_t - int64(1)
			t1783 = t1789 >= int64(0)
		}
		t1782 := t1783
		if t1782 {
			t1790 := i_t - p_tsteps
			t1791 := t1790 + int64(1)
			t1782 = t1791 >= int64(0)
		}
		if t1782 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1795 := -i_i1
		t1796 := t1795 + p_n
		t1797 := t1796 - int64(2)
		t1794 := t1797 >= int64(0)
		if t1794 {
			t1798 := -i_i2
			t1794 = t1798 >= int64(0)
		}
		t1793 := t1794
		if t1793 {
			t1799 := i_t - int64(1)
			t1793 = t1799 >= int64(0)
		}
		t1792 := t1793
		if t1792 {
			t1800 := -i_t
			t1801 := t1800 + p_tsteps
			t1802 := t1801 - int64(2)
			t1792 = t1802 >= int64(0)
		}
		if t1792 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1805 := -i_i1
		t1806 := t1805 + p_n
		t1807 := t1806 - int64(2)
		t1804 := t1807 >= int64(0)
		if t1804 {
			t1808 := i_i2 - int64(1)
			t1804 = t1808 >= int64(0)
		}
		t1803 := t1804
		if t1803 {
			t1809 := -i_t
			t1803 = t1809 >= int64(0)
		}
		if t1803 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1813 := -i_i1
		t1814 := t1813 + p_n
		t1815 := t1814 - int64(2)
		t1812 := t1815 >= int64(0)
		if t1812 {
			t1816 := i_i2 - int64(1)
			t1812 = t1816 >= int64(0)
		}
		t1811 := t1812
		if t1811 {
			t1817 := i_t - int64(1)
			t1811 = t1817 >= int64(0)
		}
		t1810 := t1811
		if t1810 {
			t1818 := i_t - p_tsteps
			t1819 := t1818 + int64(1)
			t1810 = t1819 >= int64(0)
		}
		if t1810 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1823 := -i_i1
		t1824 := t1823 + p_n
		t1825 := t1824 - int64(2)
		t1822 := t1825 >= int64(0)
		if t1822 {
			t1826 := i_i2 - int64(1)
			t1822 = t1826 >= int64(0)
		}
		t1821 := t1822
		if t1821 {
			t1827 := i_t - int64(1)
			t1821 = t1827 >= int64(0)
		}
		t1820 := t1821
		if t1820 {
			t1828 := -i_t
			t1829 := t1828 + p_tsteps
			t1830 := t1829 - int64(2)
			t1820 = t1830 >= int64(0)
		}
		if t1820 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1833 := i_i1 - p_n
		t1834 := t1833 + int64(1)
		t1832 := t1834 == int64(0)
		if t1832 {
			t1835 := -i_i2
			t1832 = t1835 >= int64(0)
		}
		t1831 := t1832
		if t1831 {
			t1836 := -i_t
			t1831 = t1836 >= int64(0)
		}
		if t1831 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1840 := i_i1 - p_n
		t1841 := t1840 + int64(1)
		t1839 := t1841 == int64(0)
		if t1839 {
			t1842 := -i_i2
			t1839 = t1842 >= int64(0)
		}
		t1838 := t1839
		if t1838 {
			t1843 := i_t - int64(1)
			t1838 = t1843 >= int64(0)
		}
		t1837 := t1838
		if t1837 {
			t1844 := i_t - p_tsteps
			t1845 := t1844 + int64(1)
			t1837 = t1845 >= int64(0)
		}
		if t1837 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1849 := i_i1 - p_n
		t1850 := t1849 + int64(1)
		t1848 := t1850 == int64(0)
		if t1848 {
			t1851 := -i_i2
			t1848 = t1851 >= int64(0)
		}
		t1847 := t1848
		if t1847 {
			t1852 := i_t - int64(1)
			t1847 = t1852 >= int64(0)
		}
		t1846 := t1847
		if t1846 {
			t1853 := -i_t
			t1854 := t1853 + p_tsteps
			t1855 := t1854 - int64(2)
			t1846 = t1855 >= int64(0)
		}
		if t1846 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1858 := i_i1 - p_n
		t1859 := t1858 + int64(1)
		t1857 := t1859 == int64(0)
		if t1857 {
			t1860 := i_i2 - int64(1)
			t1857 = t1860 >= int64(0)
		}
		t1856 := t1857
		if t1856 {
			t1861 := -i_t
			t1856 = t1861 >= int64(0)
		}
		if t1856 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1865 := i_i1 - p_n
		t1866 := t1865 + int64(1)
		t1864 := t1866 == int64(0)
		if t1864 {
			t1867 := i_i2 - int64(1)
			t1864 = t1867 >= int64(0)
		}
		t1863 := t1864
		if t1863 {
			t1868 := i_t - int64(1)
			t1863 = t1868 >= int64(0)
		}
		t1862 := t1863
		if t1862 {
			t1869 := i_t - p_tsteps
			t1870 := t1869 + int64(1)
			t1862 = t1870 >= int64(0)
		}
		if t1862 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1874 := i_i1 - p_n
		t1875 := t1874 + int64(1)
		t1873 := t1875 == int64(0)
		if t1873 {
			t1876 := i_i2 - int64(1)
			t1873 = t1876 >= int64(0)
		}
		t1872 := t1873
		if t1872 {
			t1877 := i_t - int64(1)
			t1872 = t1877 >= int64(0)
		}
		t1871 := t1872
		if t1871 {
			t1878 := -i_t
			t1879 := t1878 + p_tsteps
			t1880 := t1879 - int64(2)
			t1871 = t1880 >= int64(0)
		}
		if t1871 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilient_n14(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, i_i1 int64, i_i2 int64, i_t int64, r_X_w4 float64) error {
	t1412 := -i_i1
	t1413 := t1412 + p_n
	t1414 := t1413 - int64(2)
	t1411 := t1414 >= int64(0)
	if t1411 {
		t1415 := -i_i2
		t1411 = t1415 >= int64(0)
	}
	t1410 := t1411
	if t1410 {
		t1416 := -i_t
		t1410 = t1416 >= int64(0)
	}
	if t1410 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1420 := -i_i1
	t1421 := t1420 + p_n
	t1422 := t1421 - int64(2)
	t1419 := t1422 >= int64(0)
	if t1419 {
		t1423 := -i_i2
		t1419 = t1423 >= int64(0)
	}
	t1418 := t1419
	if t1418 {
		t1424 := i_t - int64(1)
		t1418 = t1424 >= int64(0)
	}
	t1417 := t1418
	if t1417 {
		t1425 := i_t - p_tsteps
		t1426 := t1425 + int64(1)
		t1417 = t1426 >= int64(0)
	}
	if t1417 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1430 := -i_i1
	t1431 := t1430 + p_n
	t1432 := t1431 - int64(2)
	t1429 := t1432 >= int64(0)
	if t1429 {
		t1433 := -i_i2
		t1429 = t1433 >= int64(0)
	}
	t1428 := t1429
	if t1428 {
		t1434 := i_t - int64(1)
		t1428 = t1434 >= int64(0)
	}
	t1427 := t1428
	if t1427 {
		t1435 := -i_t
		t1436 := t1435 + p_tsteps
		t1437 := t1436 - int64(2)
		t1427 = t1437 >= int64(0)
	}
	if t1427 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1441 := -i_i1
	t1442 := t1441 + p_n
	t1443 := t1442 - int64(2)
	t1440 := t1443 >= int64(0)
	if t1440 {
		t1444 := i_i2 - int64(1)
		t1440 = t1444 >= int64(0)
	}
	t1439 := t1440
	if t1439 {
		t1445 := -i_t
		t1439 = t1445 >= int64(0)
	}
	t1438 := t1439
	if t1438 {
		t1446 := -i_i2
		t1447 := t1446 + p_n
		t1448 := t1447 - int64(2)
		t1438 = t1448 >= int64(0)
	}
	if t1438 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1451 := -i_i1
	t1452 := t1451 + p_n
	t1453 := t1452 - int64(2)
	t1450 := t1453 >= int64(0)
	if t1450 {
		t1454 := -i_t
		t1450 = t1454 >= int64(0)
	}
	t1449 := t1450
	if t1449 {
		t1455 := i_i2 - p_n
		t1456 := t1455 + int64(1)
		t1449 = t1456 >= int64(0)
	}
	if t1449 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1461 := -i_i1
	t1462 := t1461 + p_n
	t1463 := t1462 - int64(2)
	t1460 := t1463 >= int64(0)
	if t1460 {
		t1464 := i_i2 - int64(1)
		t1460 = t1464 >= int64(0)
	}
	t1459 := t1460
	if t1459 {
		t1465 := i_t - int64(1)
		t1459 = t1465 >= int64(0)
	}
	t1458 := t1459
	if t1458 {
		t1466 := i_t - p_tsteps
		t1467 := t1466 + int64(1)
		t1458 = t1467 >= int64(0)
	}
	t1457 := t1458
	if t1457 {
		t1468 := -i_i2
		t1469 := t1468 + p_n
		t1470 := t1469 - int64(2)
		t1457 = t1470 >= int64(0)
	}
	if t1457 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1474 := -i_i1
	t1475 := t1474 + p_n
	t1476 := t1475 - int64(2)
	t1473 := t1476 >= int64(0)
	if t1473 {
		t1477 := i_t - int64(1)
		t1473 = t1477 >= int64(0)
	}
	t1472 := t1473
	if t1472 {
		t1478 := i_t - p_tsteps
		t1479 := t1478 + int64(1)
		t1472 = t1479 >= int64(0)
	}
	t1471 := t1472
	if t1471 {
		t1480 := i_i2 - p_n
		t1481 := t1480 + int64(1)
		t1471 = t1481 >= int64(0)
	}
	if t1471 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1486 := -i_i1
	t1487 := t1486 + p_n
	t1488 := t1487 - int64(2)
	t1485 := t1488 >= int64(0)
	if t1485 {
		t1489 := i_i2 - int64(1)
		t1485 = t1489 >= int64(0)
	}
	t1484 := t1485
	if t1484 {
		t1490 := i_t - int64(1)
		t1484 = t1490 >= int64(0)
	}
	t1483 := t1484
	if t1483 {
		t1491 := -i_t
		t1492 := t1491 + p_tsteps
		t1493 := t1492 - int64(2)
		t1483 = t1493 >= int64(0)
	}
	t1482 := t1483
	if t1482 {
		t1494 := -i_i2
		t1495 := t1494 + p_n
		t1496 := t1495 - int64(2)
		t1482 = t1496 >= int64(0)
	}
	if t1482 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1500 := -i_i1
	t1501 := t1500 + p_n
	t1502 := t1501 - int64(2)
	t1499 := t1502 >= int64(0)
	if t1499 {
		t1503 := i_t - int64(1)
		t1499 = t1503 >= int64(0)
	}
	t1498 := t1499
	if t1498 {
		t1504 := -i_t
		t1505 := t1504 + p_tsteps
		t1506 := t1505 - int64(2)
		t1498 = t1506 >= int64(0)
	}
	t1497 := t1498
	if t1497 {
		t1507 := i_i2 - p_n
		t1508 := t1507 + int64(1)
		t1497 = t1508 >= int64(0)
	}
	if t1497 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
	}
	t1511 := i_i1 - p_n
	t1512 := t1511 + int64(1)
	t1510 := t1512 == int64(0)
	if t1510 {
		t1513 := -i_i2
		t1510 = t1513 >= int64(0)
	}
	t1509 := t1510
	if t1509 {
		t1514 := -i_t
		t1509 = t1514 >= int64(0)
	}
	if t1509 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1518 := i_i1 - p_n
	t1519 := t1518 + int64(1)
	t1517 := t1519 == int64(0)
	if t1517 {
		t1520 := -i_i2
		t1517 = t1520 >= int64(0)
	}
	t1516 := t1517
	if t1516 {
		t1521 := i_t - int64(1)
		t1516 = t1521 >= int64(0)
	}
	t1515 := t1516
	if t1515 {
		t1522 := i_t - p_tsteps
		t1523 := t1522 + int64(1)
		t1515 = t1523 >= int64(0)
	}
	if t1515 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1527 := i_i1 - p_n
	t1528 := t1527 + int64(1)
	t1526 := t1528 == int64(0)
	if t1526 {
		t1529 := -i_i2
		t1526 = t1529 >= int64(0)
	}
	t1525 := t1526
	if t1525 {
		t1530 := i_t - int64(1)
		t1525 = t1530 >= int64(0)
	}
	t1524 := t1525
	if t1524 {
		t1531 := -i_t
		t1532 := t1531 + p_tsteps
		t1533 := t1532 - int64(2)
		t1524 = t1533 >= int64(0)
	}
	if t1524 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1537 := i_i1 - p_n
	t1538 := t1537 + int64(1)
	t1536 := t1538 == int64(0)
	if t1536 {
		t1539 := i_i2 - int64(1)
		t1536 = t1539 >= int64(0)
	}
	t1535 := t1536
	if t1535 {
		t1540 := -i_t
		t1535 = t1540 >= int64(0)
	}
	t1534 := t1535
	if t1534 {
		t1541 := -i_i2
		t1542 := t1541 + p_n
		t1543 := t1542 - int64(2)
		t1534 = t1543 >= int64(0)
	}
	if t1534 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1546 := i_i1 - p_n
	t1547 := t1546 + int64(1)
	t1545 := t1547 == int64(0)
	if t1545 {
		t1548 := -i_t
		t1545 = t1548 >= int64(0)
	}
	t1544 := t1545
	if t1544 {
		t1549 := i_i2 - p_n
		t1550 := t1549 + int64(1)
		t1544 = t1550 >= int64(0)
	}
	if t1544 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1555 := i_i1 - p_n
	t1556 := t1555 + int64(1)
	t1554 := t1556 == int64(0)
	if t1554 {
		t1557 := i_i2 - int64(1)
		t1554 = t1557 >= int64(0)
	}
	t1553 := t1554
	if t1553 {
		t1558 := i_t - int64(1)
		t1553 = t1558 >= int64(0)
	}
	t1552 := t1553
	if t1552 {
		t1559 := i_t - p_tsteps
		t1560 := t1559 + int64(1)
		t1552 = t1560 >= int64(0)
	}
	t1551 := t1552
	if t1551 {
		t1561 := -i_i2
		t1562 := t1561 + p_n
		t1563 := t1562 - int64(2)
		t1551 = t1563 >= int64(0)
	}
	if t1551 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1567 := i_i1 - p_n
	t1568 := t1567 + int64(1)
	t1566 := t1568 == int64(0)
	if t1566 {
		t1569 := i_t - int64(1)
		t1566 = t1569 >= int64(0)
	}
	t1565 := t1566
	if t1565 {
		t1570 := i_t - p_tsteps
		t1571 := t1570 + int64(1)
		t1565 = t1571 >= int64(0)
	}
	t1564 := t1565
	if t1564 {
		t1572 := i_i2 - p_n
		t1573 := t1572 + int64(1)
		t1564 = t1573 >= int64(0)
	}
	if t1564 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1578 := i_i1 - p_n
	t1579 := t1578 + int64(1)
	t1577 := t1579 == int64(0)
	if t1577 {
		t1580 := i_i2 - int64(1)
		t1577 = t1580 >= int64(0)
	}
	t1576 := t1577
	if t1576 {
		t1581 := i_t - int64(1)
		t1576 = t1581 >= int64(0)
	}
	t1575 := t1576
	if t1575 {
		t1582 := -i_t
		t1583 := t1582 + p_tsteps
		t1584 := t1583 - int64(2)
		t1575 = t1584 >= int64(0)
	}
	t1574 := t1575
	if t1574 {
		t1585 := -i_i2
		t1586 := t1585 + p_n
		t1587 := t1586 - int64(2)
		t1574 = t1587 >= int64(0)
	}
	if t1574 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1591 := i_i1 - p_n
	t1592 := t1591 + int64(1)
	t1590 := t1592 == int64(0)
	if t1590 {
		t1593 := i_t - int64(1)
		t1590 = t1593 >= int64(0)
	}
	t1589 := t1590
	if t1589 {
		t1594 := -i_t
		t1595 := t1594 + p_tsteps
		t1596 := t1595 - int64(2)
		t1589 = t1596 >= int64(0)
	}
	t1588 := t1589
	if t1588 {
		t1597 := i_i2 - p_n
		t1598 := t1597 + int64(1)
		t1588 = t1598 >= int64(0)
	}
	if t1588 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1601 := -i_i1
	t1602 := t1601 + p_n
	t1603 := t1602 - int64(3)
	t1600 := t1603 >= int64(0)
	if t1600 {
		t1604 := -i_i2
		t1600 = t1604 >= int64(0)
	}
	t1599 := t1600
	if t1599 {
		t1605 := -i_t
		t1599 = t1605 >= int64(0)
	}
	if t1599 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1609 := -i_i1
	t1610 := t1609 + p_n
	t1611 := t1610 - int64(3)
	t1608 := t1611 >= int64(0)
	if t1608 {
		t1612 := -i_i2
		t1608 = t1612 >= int64(0)
	}
	t1607 := t1608
	if t1607 {
		t1613 := i_t - int64(1)
		t1607 = t1613 >= int64(0)
	}
	t1606 := t1607
	if t1606 {
		t1614 := i_t - p_tsteps
		t1615 := t1614 + int64(1)
		t1606 = t1615 >= int64(0)
	}
	if t1606 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1619 := -i_i1
	t1620 := t1619 + p_n
	t1621 := t1620 - int64(3)
	t1618 := t1621 >= int64(0)
	if t1618 {
		t1622 := -i_i2
		t1618 = t1622 >= int64(0)
	}
	t1617 := t1618
	if t1617 {
		t1623 := i_t - int64(1)
		t1617 = t1623 >= int64(0)
	}
	t1616 := t1617
	if t1616 {
		t1624 := -i_t
		t1625 := t1624 + p_tsteps
		t1626 := t1625 - int64(2)
		t1616 = t1626 >= int64(0)
	}
	if t1616 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1630 := -i_i1
	t1631 := t1630 + p_n
	t1632 := t1631 - int64(3)
	t1629 := t1632 >= int64(0)
	if t1629 {
		t1633 := i_i2 - int64(1)
		t1629 = t1633 >= int64(0)
	}
	t1628 := t1629
	if t1628 {
		t1634 := -i_t
		t1628 = t1634 >= int64(0)
	}
	t1627 := t1628
	if t1627 {
		t1635 := -i_i2
		t1636 := t1635 + p_n
		t1637 := t1636 - int64(2)
		t1627 = t1637 >= int64(0)
	}
	if t1627 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1640 := -i_i1
	t1641 := t1640 + p_n
	t1642 := t1641 - int64(3)
	t1639 := t1642 >= int64(0)
	if t1639 {
		t1643 := -i_t
		t1639 = t1643 >= int64(0)
	}
	t1638 := t1639
	if t1638 {
		t1644 := i_i2 - p_n
		t1645 := t1644 + int64(1)
		t1638 = t1645 >= int64(0)
	}
	if t1638 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1650 := -i_i1
	t1651 := t1650 + p_n
	t1652 := t1651 - int64(3)
	t1649 := t1652 >= int64(0)
	if t1649 {
		t1653 := i_i2 - int64(1)
		t1649 = t1653 >= int64(0)
	}
	t1648 := t1649
	if t1648 {
		t1654 := i_t - int64(1)
		t1648 = t1654 >= int64(0)
	}
	t1647 := t1648
	if t1647 {
		t1655 := i_t - p_tsteps
		t1656 := t1655 + int64(1)
		t1647 = t1656 >= int64(0)
	}
	t1646 := t1647
	if t1646 {
		t1657 := -i_i2
		t1658 := t1657 + p_n
		t1659 := t1658 - int64(2)
		t1646 = t1659 >= int64(0)
	}
	if t1646 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1663 := -i_i1
	t1664 := t1663 + p_n
	t1665 := t1664 - int64(3)
	t1662 := t1665 >= int64(0)
	if t1662 {
		t1666 := i_t - int64(1)
		t1662 = t1666 >= int64(0)
	}
	t1661 := t1662
	if t1661 {
		t1667 := i_t - p_tsteps
		t1668 := t1667 + int64(1)
		t1661 = t1668 >= int64(0)
	}
	t1660 := t1661
	if t1660 {
		t1669 := i_i2 - p_n
		t1670 := t1669 + int64(1)
		t1660 = t1670 >= int64(0)
	}
	if t1660 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1675 := -i_i1
	t1676 := t1675 + p_n
	t1677 := t1676 - int64(3)
	t1674 := t1677 >= int64(0)
	if t1674 {
		t1678 := i_i2 - int64(1)
		t1674 = t1678 >= int64(0)
	}
	t1673 := t1674
	if t1673 {
		t1679 := i_t - int64(1)
		t1673 = t1679 >= int64(0)
	}
	t1672 := t1673
	if t1672 {
		t1680 := -i_t
		t1681 := t1680 + p_tsteps
		t1682 := t1681 - int64(2)
		t1672 = t1682 >= int64(0)
	}
	t1671 := t1672
	if t1671 {
		t1683 := -i_i2
		t1684 := t1683 + p_n
		t1685 := t1684 - int64(2)
		t1671 = t1685 >= int64(0)
	}
	if t1671 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	t1689 := -i_i1
	t1690 := t1689 + p_n
	t1691 := t1690 - int64(3)
	t1688 := t1691 >= int64(0)
	if t1688 {
		t1692 := i_t - int64(1)
		t1688 = t1692 >= int64(0)
	}
	t1687 := t1688
	if t1687 {
		t1693 := -i_t
		t1694 := t1693 + p_tsteps
		t1695 := t1694 - int64(2)
		t1687 = t1695 >= int64(0)
	}
	t1686 := t1687
	if t1686 {
		t1696 := i_i2 - p_n
		t1697 := t1696 + int64(1)
		t1686 = t1697 >= int64(0)
	}
	if t1686 {
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
	}
	return nil
}

func run_adi_resilient_n15(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64, i_t int64) error {
	t1881 := p_n - int64(1)
	for i_i2 := int64(0); i_i2 <= t1881; i_i2++ {
		if err := m.Tick(25, 3); err != nil {
			return err
		}
		t1882 := p_n - int64(1)
		t1883 := t1882
		if t1883 < 0 || t1883 >= d_X[0] {
			return m.OOB(t1883, d_X[0], 0, "X", 26, 24)
		}
		t1884 := i_i2
		if t1884 < 0 || t1884 >= d_X[1] {
			return m.OOB(t1884, d_X[1], 1, "X", 26, 24)
		}
		t1885 := b_X + int((t1883)*d_X[1]+t1884)
		r_X_r8 := m.LoadF(t1885)
		t1886 := p_n - int64(1)
		t1887 := t1886
		if t1887 < 0 || t1887 >= d_B[0] {
			return m.OOB(t1887, d_B[0], 0, "B", 26, 39)
		}
		t1888 := i_i2
		if t1888 < 0 || t1888 >= d_B[1] {
			return m.OOB(t1888, d_B[1], 1, "B", 26, 39)
		}
		t1889 := b_B + int((t1887)*d_B[1]+t1888)
		r_B_r9 := m.LoadF(t1889)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t1890 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t1890
		t1891 := p_n - int64(1)
		t1892 := t1891
		if t1892 < 0 || t1892 >= d_X[0] {
			return m.OOB(t1892, d_X[0], 0, "X", 26, 9)
		}
		t1893 := i_i2
		if t1893 < 0 || t1893 >= d_X[1] {
			return m.OOB(t1893, d_X[1], 1, "X", 26, 9)
		}
		t1894 := b_X + int((t1892)*d_X[1]+t1893)
		m.StoreF(t1894, r_X_w5)
		t1898 := i_i2 - int64(1)
		t1897 := t1898 >= int64(0)
		if t1897 {
			t1899 := -i_t
			t1900 := t1899 + p_tsteps
			t1901 := t1900 - int64(2)
			t1897 = t1901 >= int64(0)
		}
		t1896 := t1897
		if t1896 {
			t1902 := -i_i2
			t1903 := t1902 + p_n
			t1904 := t1903 - int64(2)
			t1896 = t1904 >= int64(0)
		}
		t1895 := t1896
		if t1895 {
			t1905 := i_t - p_tsteps
			t1906 := t1905 + int64(2)
			t1895 = t1906 >= int64(0)
		}
		if t1895 {
			t1907 := -i_t
			t1908 := t1907 + p_tsteps
			t1909 := t1908 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t1909)
		}
		t1912 := i_i2 - int64(1)
		t1911 := t1912 >= int64(0)
		if t1911 {
			t1913 := -i_i2
			t1914 := t1913 + p_n
			t1915 := t1914 - int64(2)
			t1911 = t1915 >= int64(0)
		}
		t1910 := t1911
		if t1910 {
			t1916 := -i_t
			t1917 := t1916 + p_tsteps
			t1918 := t1917 - int64(3)
			t1910 = t1918 >= int64(0)
		}
		if t1910 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t1922 := -i_t
		t1923 := t1922 + p_tsteps
		t1924 := t1923 - int64(2)
		t1921 := t1924 >= int64(0)
		if t1921 {
			t1925 := i_i2 - p_n
			t1926 := t1925 + int64(1)
			t1921 = t1926 >= int64(0)
		}
		t1920 := t1921
		if t1920 {
			t1927 := p_n - int64(2)
			t1920 = t1927 >= int64(0)
		}
		t1919 := t1920
		if t1919 {
			t1928 := i_t - p_tsteps
			t1929 := t1928 + int64(2)
			t1919 = t1929 >= int64(0)
		}
		if t1919 {
			t1930 := -i_t
			t1931 := t1930 + p_tsteps
			t1932 := t1931 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t1932)
		}
		t1935 := i_i2 - p_n
		t1936 := t1935 + int64(1)
		t1934 := t1936 >= int64(0)
		if t1934 {
			t1937 := p_n - int64(2)
			t1934 = t1937 >= int64(0)
		}
		t1933 := t1934
		if t1933 {
			t1938 := -i_t
			t1939 := t1938 + p_tsteps
			t1940 := t1939 - int64(3)
			t1933 = t1940 >= int64(0)
		}
		if t1933 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t1944 := -i_i2
		t1943 := t1944 >= int64(0)
		if t1943 {
			t1945 := p_n - int64(2)
			t1943 = t1945 >= int64(0)
		}
		t1942 := t1943
		if t1942 {
			t1946 := -i_t
			t1947 := t1946 + p_tsteps
			t1948 := t1947 - int64(2)
			t1942 = t1948 >= int64(0)
		}
		t1941 := t1942
		if t1941 {
			t1949 := i_t - p_tsteps
			t1950 := t1949 + int64(2)
			t1941 = t1950 >= int64(0)
		}
		if t1941 {
			t1951 := -i_t
			t1952 := t1951 + p_tsteps
			t1953 := t1952 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t1953)
		}
		t1956 := -i_i2
		t1955 := t1956 >= int64(0)
		if t1955 {
			t1957 := p_n - int64(2)
			t1955 = t1957 >= int64(0)
		}
		t1954 := t1955
		if t1954 {
			t1958 := -i_t
			t1959 := t1958 + p_tsteps
			t1960 := t1959 - int64(3)
			t1954 = t1960 >= int64(0)
		}
		if t1954 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t1963 := -p_n
		t1964 := t1963 + int64(1)
		t1962 := t1964 >= int64(0)
		if t1962 {
			t1965 := -i_t
			t1966 := t1965 + p_tsteps
			t1967 := t1966 - int64(2)
			t1962 = t1967 >= int64(0)
		}
		t1961 := t1962
		if t1961 {
			t1968 := i_t - p_tsteps
			t1969 := t1968 + int64(2)
			t1961 = t1969 >= int64(0)
		}
		if t1961 {
			t1970 := -i_t
			t1971 := t1970 + p_tsteps
			t1972 := t1971 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t1972)
		}
		t1974 := -p_n
		t1975 := t1974 + int64(1)
		t1973 := t1975 >= int64(0)
		if t1973 {
			t1976 := -i_t
			t1977 := t1976 + p_tsteps
			t1978 := t1977 - int64(3)
			t1973 = t1978 >= int64(0)
		}
		if t1973 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t1982 := -i_i2
		t1983 := t1982 + p_n
		t1984 := t1983 - int64(3)
		t1981 := t1984 >= int64(0)
		if t1981 {
			t1985 := -i_i2
			t1981 = t1985 >= int64(0)
		}
		t1980 := t1981
		if t1980 {
			t1986 := -i_t
			t1987 := t1986 + p_tsteps
			t1988 := t1987 - int64(2)
			t1980 = t1988 >= int64(0)
		}
		t1979 := t1980
		if t1979 {
			t1989 := i_t - p_tsteps
			t1990 := t1989 + int64(2)
			t1979 = t1990 >= int64(0)
		}
		if t1979 {
			t1991 := -i_t
			t1992 := t1991 + p_tsteps
			t1993 := t1992 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t1993)
		}
		t1996 := -i_i2
		t1997 := t1996 + p_n
		t1998 := t1997 - int64(3)
		t1995 := t1998 >= int64(0)
		if t1995 {
			t1999 := -i_i2
			t1995 = t1999 >= int64(0)
		}
		t1994 := t1995
		if t1994 {
			t2000 := -i_t
			t2001 := t2000 + p_tsteps
			t2002 := t2001 - int64(3)
			t1994 = t2002 >= int64(0)
		}
		if t1994 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t2006 := -i_i2
		t2005 := t2006 >= int64(0)
		if t2005 {
			t2007 := -i_i2
			t2008 := t2007 + p_n
			t2009 := t2008 - int64(2)
			t2005 = t2009 >= int64(0)
		}
		t2004 := t2005
		if t2004 {
			t2010 := -i_t
			t2011 := t2010 + p_tsteps
			t2012 := t2011 - int64(2)
			t2004 = t2012 >= int64(0)
		}
		t2003 := t2004
		if t2003 {
			t2013 := i_t - p_tsteps
			t2014 := t2013 + int64(2)
			t2003 = t2014 >= int64(0)
		}
		if t2003 {
			t2015 := -i_t
			t2016 := t2015 + p_tsteps
			t2017 := t2016 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2017)
		}
		t2020 := -i_i2
		t2019 := t2020 >= int64(0)
		if t2019 {
			t2021 := -i_i2
			t2022 := t2021 + p_n
			t2023 := t2022 - int64(2)
			t2019 = t2023 >= int64(0)
		}
		t2018 := t2019
		if t2018 {
			t2024 := -i_t
			t2025 := t2024 + p_tsteps
			t2026 := t2025 - int64(3)
			t2018 = t2026 >= int64(0)
		}
		if t2018 {
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
	}
	return nil
}

func run_adi_resilient_n16(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t2027 := p_n - int64(3)
	for i_i1 := int64(0); i_i1 <= t2027; i_i1++ {
		if err := m.Tick(28, 3); err != nil {
			return err
		}
		t2028 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t2028; i_i2++ {
			if err := m.Tick(29, 5); err != nil {
				return err
			}
			t2029 := p_n - int64(2)
			t2030 := t2029 - i_i1
			t2031 := t2030
			if t2031 < 0 || t2031 >= d_X[0] {
				return m.OOB(t2031, d_X[0], 0, "X", 30, 32)
			}
			t2032 := i_i2
			if t2032 < 0 || t2032 >= d_X[1] {
				return m.OOB(t2032, d_X[1], 1, "X", 30, 32)
			}
			t2033 := b_X + int((t2031)*d_X[1]+t2032)
			r_X_r9 := m.LoadF(t2033)
			t2034 := p_n - i_i1
			t2035 := t2034 - int64(3)
			t2036 := t2035
			if t2036 < 0 || t2036 >= d_X[0] {
				return m.OOB(t2036, d_X[0], 0, "X", 30, 52)
			}
			t2037 := i_i2
			if t2037 < 0 || t2037 >= d_X[1] {
				return m.OOB(t2037, d_X[1], 1, "X", 30, 52)
			}
			t2038 := b_X + int((t2036)*d_X[1]+t2037)
			r_X_r10 := m.LoadF(t2038)
			t2039 := p_n - int64(3)
			t2040 := t2039 - i_i1
			t2041 := t2040
			if t2041 < 0 || t2041 >= d_A[0] {
				return m.OOB(t2041, d_A[0], 0, "A", 30, 72)
			}
			t2042 := i_i2
			if t2042 < 0 || t2042 >= d_A[1] {
				return m.OOB(t2042, d_A[1], 1, "A", 30, 72)
			}
			t2043 := b_A + int((t2041)*d_A[1]+t2042)
			r_A_r8 := m.LoadF(t2043)
			t2044 := p_n - int64(2)
			t2045 := t2044 - i_i1
			t2046 := t2045
			if t2046 < 0 || t2046 >= d_B[0] {
				return m.OOB(t2046, d_B[0], 0, "B", 30, 93)
			}
			t2047 := i_i2
			if t2047 < 0 || t2047 >= d_B[1] {
				return m.OOB(t2047, d_B[1], 1, "B", 30, 93)
			}
			t2048 := b_B + int((t2046)*d_B[1]+t2047)
			r_B_r10 := m.LoadF(t2048)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t2049 := float64(r_X_r10 * r_A_r8)
			t2050 := float64(r_X_r9 - t2049)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t2051 := float64(t2050 / r_B_r10)
			r_X_w6 := t2051
			t2052 := p_n - int64(2)
			t2053 := t2052 - i_i1
			t2054 := t2053
			if t2054 < 0 || t2054 >= d_X[0] {
				return m.OOB(t2054, d_X[0], 0, "X", 30, 11)
			}
			t2055 := i_i2
			if t2055 < 0 || t2055 >= d_X[1] {
				return m.OOB(t2055, d_X[1], 1, "X", 30, 11)
			}
			t2056 := b_X + int((t2054)*d_X[1]+t2055)
			m.StoreF(t2056, r_X_w6)
			t2060 := i_i2 - int64(1)
			t2059 := t2060 >= int64(0)
			if t2059 {
				t2061 := -i_t
				t2062 := t2061 + p_tsteps
				t2063 := t2062 - int64(2)
				t2059 = t2063 >= int64(0)
			}
			t2058 := t2059
			if t2058 {
				t2064 := -i_i2
				t2065 := t2064 + p_n
				t2066 := t2065 - int64(2)
				t2058 = t2066 >= int64(0)
			}
			t2057 := t2058
			if t2057 {
				t2067 := i_t - p_tsteps
				t2068 := t2067 + int64(2)
				t2057 = t2068 >= int64(0)
			}
			if t2057 {
				t2069 := -i_t
				t2070 := t2069 + p_tsteps
				t2071 := t2070 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t2071)
			}
			t2074 := i_i2 - int64(1)
			t2073 := t2074 >= int64(0)
			if t2073 {
				t2075 := -i_i2
				t2076 := t2075 + p_n
				t2077 := t2076 - int64(2)
				t2073 = t2077 >= int64(0)
			}
			t2072 := t2073
			if t2072 {
				t2078 := -i_t
				t2079 := t2078 + p_tsteps
				t2080 := t2079 - int64(3)
				t2072 = t2080 >= int64(0)
			}
			if t2072 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(1))
			}
			t2083 := -i_t
			t2084 := t2083 + p_tsteps
			t2085 := t2084 - int64(2)
			t2082 := t2085 >= int64(0)
			if t2082 {
				t2086 := i_i2 - p_n
				t2087 := t2086 + int64(1)
				t2082 = t2087 >= int64(0)
			}
			t2081 := t2082
			if t2081 {
				t2088 := i_t - p_tsteps
				t2089 := t2088 + int64(2)
				t2081 = t2089 >= int64(0)
			}
			if t2081 {
				t2090 := -i_t
				t2091 := t2090 + p_tsteps
				t2092 := t2091 - int64(1)
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t2092)
			}
			t2094 := i_i2 - p_n
			t2095 := t2094 + int64(1)
			t2093 := t2095 >= int64(0)
			if t2093 {
				t2096 := -i_t
				t2097 := t2096 + p_tsteps
				t2098 := t2097 - int64(3)
				t2093 = t2098 >= int64(0)
			}
			if t2093 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(1))
			}
			t2101 := -i_i2
			t2100 := t2101 >= int64(0)
			if t2100 {
				t2102 := -i_t
				t2103 := t2102 + p_tsteps
				t2104 := t2103 - int64(2)
				t2100 = t2104 >= int64(0)
			}
			t2099 := t2100
			if t2099 {
				t2105 := i_t - p_tsteps
				t2106 := t2105 + int64(2)
				t2099 = t2106 >= int64(0)
			}
			if t2099 {
				t2107 := int64(3) * i_t
				t2108 := -t2107
				t2109 := int64(3) * p_tsteps
				t2110 := t2108 + t2109
				t2111 := t2110 - int64(3)
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t2111)
			}
			t2113 := -i_i2
			t2112 := t2113 >= int64(0)
			if t2112 {
				t2114 := -i_t
				t2115 := t2114 + p_tsteps
				t2116 := t2115 - int64(3)
				t2112 = t2116 >= int64(0)
			}
			if t2112 {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(3))
			}
		}
	}
	return nil
}

// run_adi_resilientopt executes the Resilient-Optimized variant of the ADI benchmark natively.
func run_adi_resilientopt(m *codegen.Machine, epoch, epochs int) error {
	if err := codegen.CheckEpoch(epoch, epochs); err != nil {
		return err
	}
	p_tsteps := m.Param("tsteps")
	p_n := m.Param("n")
	b_X, d_X := m.Var("X")
	b_A, d_A := m.Var("A")
	b_B, d_B := m.Var("B")
	cs := checksum.NewFolds(m.Pair().Kind())
	defer m.Pair().Flush(&cs)
	if epoch == 0 {
		if err := run_adi_resilientopt_n1(m, &cs, p_tsteps, p_n, b_X, d_X); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n2(m, &cs, p_tsteps, p_n, b_X, d_X); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n3(m, &cs, p_tsteps, p_n, b_X, d_X); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n4(m, &cs, p_tsteps, p_n, b_X, d_X); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n5(m, &cs, p_tsteps, p_n, b_X, d_X); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n6(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n7(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n8(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n9(m, &cs, p_tsteps, p_n, b_A, d_A); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n10(m, &cs, p_tsteps, p_n, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n11(m, &cs, p_tsteps, p_n, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n12(m, &cs, p_tsteps, p_n, b_B, d_B); err != nil {
			return err
		}
		t555 := p_tsteps - int64(3)
		t556 := codegen.MinI(t555, int64(0))
		m.SetBounds(int64(0), t556)
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
		if err := run_adi_resilientopt_n13(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n14(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n15(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n16(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n17(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n18(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n19(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n20(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n21(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n22(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n23(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n24(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n25(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n26(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n28(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n29(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n30(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n31(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n32(m, &cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n33(m, &cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
	}
	if epoch == epochs-1 {
		if err := run_adi_resilientopt_n34(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n47(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n56(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n69(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n82(m, &cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		m.Pair().Flush(&cs)
		if err := m.Assert(0, 0); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilientopt_n1(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64) error {
	t1 := p_n - int64(3)
	t2 := codegen.MinI(t1, int64(0))
	for i_li0 := int64(0); i_li0 <= t2; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3 := p_n - int64(1)
		t4 := codegen.MinI(t3, int64(0))
		for i_li1 := int64(0); i_li1 <= t4; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5 := p_tsteps - int64(1)
			if t5 >= int64(0) {
				t6 := i_li0
				if t6 < 0 || t6 >= d_X[0] {
					return m.OOB(t6, d_X[0], 0, "X", 0, 0)
				}
				t7 := i_li1
				if t7 < 0 || t7 >= d_X[1] {
					return m.OOB(t7, d_X[1], 1, "X", 0, 0)
				}
				t8 := b_X + int((t6)*d_X[1]+t7)
				t9 := m.LoadF(t8)
				cs.Fold(checksum.AccDef, math.Float64bits(t9), p_tsteps)
			}
			t10 := p_tsteps - int64(1)
			if t10 >= int64(0) {
				t11 := i_li0
				if t11 < 0 || t11 >= d_X[0] {
					return m.OOB(t11, d_X[0], 0, "X", 0, 0)
				}
				t12 := i_li1
				if t12 < 0 || t12 >= d_X[1] {
					return m.OOB(t12, d_X[1], 1, "X", 0, 0)
				}
				t13 := b_X + int((t11)*d_X[1]+t12)
				t14 := m.LoadF(t13)
				cs.Fold(checksum.AccDef, math.Float64bits(t14), p_tsteps)
			}
			t15 := p_tsteps - int64(1)
			if t15 >= int64(0) {
				t16 := i_li0
				if t16 < 0 || t16 >= d_X[0] {
					return m.OOB(t16, d_X[0], 0, "X", 0, 0)
				}
				t17 := i_li1
				if t17 < 0 || t17 >= d_X[1] {
					return m.OOB(t17, d_X[1], 1, "X", 0, 0)
				}
				t18 := b_X + int((t16)*d_X[1]+t17)
				t19 := m.LoadF(t18)
				cs.Fold(checksum.AccDef, math.Float64bits(t19), p_tsteps)
			}
			t20 := p_tsteps - int64(1)
			if t20 >= int64(0) {
				t21 := i_li0
				if t21 < 0 || t21 >= d_X[0] {
					return m.OOB(t21, d_X[0], 0, "X", 0, 0)
				}
				t22 := i_li1
				if t22 < 0 || t22 >= d_X[1] {
					return m.OOB(t22, d_X[1], 1, "X", 0, 0)
				}
				t23 := b_X + int((t21)*d_X[1]+t22)
				t24 := m.LoadF(t23)
				cs.Fold(checksum.AccDef, math.Float64bits(t24), p_tsteps)
			}
		}
		t25 := p_n - int64(2)
		for i_li1 := int64(1); i_li1 <= t25; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t27 := p_tsteps - int64(1)
			t26 := t27 >= int64(0)
			if t26 {
				t28 := -p_tsteps
				t29 := t28 + int64(1)
				t26 = t29 >= int64(0)
			}
			if t26 {
				t30 := i_li0
				if t30 < 0 || t30 >= d_X[0] {
					return m.OOB(t30, d_X[0], 0, "X", 0, 0)
				}
				t31 := i_li1
				if t31 < 0 || t31 >= d_X[1] {
					return m.OOB(t31, d_X[1], 1, "X", 0, 0)
				}
				t32 := b_X + int((t30)*d_X[1]+t31)
				t33 := m.LoadF(t32)
				cs.Fold(checksum.AccDef, math.Float64bits(t33), p_tsteps)
			}
			t34 := p_tsteps - int64(2)
			if t34 >= int64(0) {
				t35 := i_li0
				if t35 < 0 || t35 >= d_X[0] {
					return m.OOB(t35, d_X[0], 0, "X", 0, 0)
				}
				t36 := i_li1
				if t36 < 0 || t36 >= d_X[1] {
					return m.OOB(t36, d_X[1], 1, "X", 0, 0)
				}
				t37 := b_X + int((t35)*d_X[1]+t36)
				t38 := m.LoadF(t37)
				cs.Fold(checksum.AccDef, math.Float64bits(t38), int64(1))
			}
		}
		t39 := p_n - int64(1)
		t40 := codegen.MaxI(int64(1), t39)
		t41 := p_n - int64(1)
		for i_li1 := t40; i_li1 <= t41; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t43 := p_tsteps - int64(1)
			t42 := t43 >= int64(0)
			if t42 {
				t44 := -p_tsteps
				t45 := t44 + int64(1)
				t42 = t45 >= int64(0)
			}
			if t42 {
				t46 := i_li0
				if t46 < 0 || t46 >= d_X[0] {
					return m.OOB(t46, d_X[0], 0, "X", 0, 0)
				}
				t47 := i_li1
				if t47 < 0 || t47 >= d_X[1] {
					return m.OOB(t47, d_X[1], 1, "X", 0, 0)
				}
				t48 := b_X + int((t46)*d_X[1]+t47)
				t49 := m.LoadF(t48)
				cs.Fold(checksum.AccDef, math.Float64bits(t49), p_tsteps)
			}
			t50 := p_tsteps - int64(2)
			if t50 >= int64(0) {
				t51 := i_li0
				if t51 < 0 || t51 >= d_X[0] {
					return m.OOB(t51, d_X[0], 0, "X", 0, 0)
				}
				t52 := i_li1
				if t52 < 0 || t52 >= d_X[1] {
					return m.OOB(t52, d_X[1], 1, "X", 0, 0)
				}
				t53 := b_X + int((t51)*d_X[1]+t52)
				t54 := m.LoadF(t53)
				cs.Fold(checksum.AccDef, math.Float64bits(t54), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n2(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64) error {
	t55 := p_n - int64(2)
	t56 := codegen.MaxI(int64(0), t55)
	t57 := p_n - int64(2)
	t58 := codegen.MinI(t57, int64(0))
	for i_li0 := t56; i_li0 <= t58; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t59 := p_n - int64(1)
		t60 := codegen.MinI(t59, int64(0))
		for i_li1 := int64(0); i_li1 <= t60; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t61 := p_tsteps - int64(1)
			if t61 >= int64(0) {
				t62 := i_li0
				if t62 < 0 || t62 >= d_X[0] {
					return m.OOB(t62, d_X[0], 0, "X", 0, 0)
				}
				t63 := i_li1
				if t63 < 0 || t63 >= d_X[1] {
					return m.OOB(t63, d_X[1], 1, "X", 0, 0)
				}
				t64 := b_X + int((t62)*d_X[1]+t63)
				t65 := m.LoadF(t64)
				cs.Fold(checksum.AccDef, math.Float64bits(t65), p_tsteps)
			}
			t66 := p_tsteps - int64(1)
			if t66 >= int64(0) {
				t67 := i_li0
				if t67 < 0 || t67 >= d_X[0] {
					return m.OOB(t67, d_X[0], 0, "X", 0, 0)
				}
				t68 := i_li1
				if t68 < 0 || t68 >= d_X[1] {
					return m.OOB(t68, d_X[1], 1, "X", 0, 0)
				}
				t69 := b_X + int((t67)*d_X[1]+t68)
				t70 := m.LoadF(t69)
				cs.Fold(checksum.AccDef, math.Float64bits(t70), p_tsteps)
			}
		}
		t71 := p_n - int64(1)
		for i_li1 := int64(1); i_li1 <= t71; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t73 := p_tsteps - int64(1)
			t72 := t73 >= int64(0)
			if t72 {
				t74 := -p_tsteps
				t75 := t74 + int64(1)
				t72 = t75 >= int64(0)
			}
			if t72 {
				t76 := i_li0
				if t76 < 0 || t76 >= d_X[0] {
					return m.OOB(t76, d_X[0], 0, "X", 0, 0)
				}
				t77 := i_li1
				if t77 < 0 || t77 >= d_X[1] {
					return m.OOB(t77, d_X[1], 1, "X", 0, 0)
				}
				t78 := b_X + int((t76)*d_X[1]+t77)
				t79 := m.LoadF(t78)
				cs.Fold(checksum.AccDef, math.Float64bits(t79), p_tsteps)
			}
			t80 := p_tsteps - int64(2)
			if t80 >= int64(0) {
				t81 := i_li0
				if t81 < 0 || t81 >= d_X[0] {
					return m.OOB(t81, d_X[0], 0, "X", 0, 0)
				}
				t82 := i_li1
				if t82 < 0 || t82 >= d_X[1] {
					return m.OOB(t82, d_X[1], 1, "X", 0, 0)
				}
				t83 := b_X + int((t81)*d_X[1]+t82)
				t84 := m.LoadF(t83)
				cs.Fold(checksum.AccDef, math.Float64bits(t84), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n3(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64) error {
	t85 := p_n - int64(1)
	t86 := codegen.MaxI(int64(0), t85)
	t87 := p_n - int64(1)
	t88 := codegen.MinI(t87, int64(0))
	for i_li0 := t86; i_li0 <= t88; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t89 := p_n - int64(1)
		for i_li1 := int64(0); i_li1 <= t89; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t91 := p_tsteps - int64(1)
			t90 := t91 >= int64(0)
			if t90 {
				t92 := -p_tsteps
				t93 := t92 + int64(1)
				t90 = t93 >= int64(0)
			}
			if t90 {
				t94 := i_li0
				if t94 < 0 || t94 >= d_X[0] {
					return m.OOB(t94, d_X[0], 0, "X", 0, 0)
				}
				t95 := i_li1
				if t95 < 0 || t95 >= d_X[1] {
					return m.OOB(t95, d_X[1], 1, "X", 0, 0)
				}
				t96 := b_X + int((t94)*d_X[1]+t95)
				t97 := m.LoadF(t96)
				cs.Fold(checksum.AccDef, math.Float64bits(t97), p_tsteps)
			}
			t98 := p_tsteps - int64(2)
			if t98 >= int64(0) {
				t99 := i_li0
				if t99 < 0 || t99 >= d_X[0] {
					return m.OOB(t99, d_X[0], 0, "X", 0, 0)
				}
				t100 := i_li1
				if t100 < 0 || t100 >= d_X[1] {
					return m.OOB(t100, d_X[1], 1, "X", 0, 0)
				}
				t101 := b_X + int((t99)*d_X[1]+t100)
				t102 := m.LoadF(t101)
				cs.Fold(checksum.AccDef, math.Float64bits(t102), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n4(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64) error {
	t103 := p_n - int64(2)
	for i_li0 := int64(1); i_li0 <= t103; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t104 := p_n - int64(1)
		t105 := codegen.MinI(t104, int64(0))
		for i_li1 := int64(0); i_li1 <= t105; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t107 := p_tsteps - int64(1)
			t106 := t107 >= int64(0)
			if t106 {
				t108 := -p_tsteps
				t109 := t108 + int64(1)
				t106 = t109 >= int64(0)
			}
			if t106 {
				t110 := i_li0
				if t110 < 0 || t110 >= d_X[0] {
					return m.OOB(t110, d_X[0], 0, "X", 0, 0)
				}
				t111 := i_li1
				if t111 < 0 || t111 >= d_X[1] {
					return m.OOB(t111, d_X[1], 1, "X", 0, 0)
				}
				t112 := b_X + int((t110)*d_X[1]+t111)
				t113 := m.LoadF(t112)
				t114 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t113), t114)
			}
			t115 := p_tsteps - int64(2)
			if t115 >= int64(0) {
				t116 := i_li0
				if t116 < 0 || t116 >= d_X[0] {
					return m.OOB(t116, d_X[0], 0, "X", 0, 0)
				}
				t117 := i_li1
				if t117 < 0 || t117 >= d_X[1] {
					return m.OOB(t117, d_X[1], 1, "X", 0, 0)
				}
				t118 := b_X + int((t116)*d_X[1]+t117)
				t119 := m.LoadF(t118)
				cs.Fold(checksum.AccDef, math.Float64bits(t119), int64(3))
			}
		}
		t120 := p_n - int64(2)
		for i_li1 := int64(1); i_li1 <= t120; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t122 := p_tsteps - int64(1)
			t121 := t122 >= int64(0)
			if t121 {
				t123 := -p_tsteps
				t124 := t123 + int64(1)
				t121 = t124 >= int64(0)
			}
			if t121 {
				t125 := i_li0
				if t125 < 0 || t125 >= d_X[0] {
					return m.OOB(t125, d_X[0], 0, "X", 0, 0)
				}
				t126 := i_li1
				if t126 < 0 || t126 >= d_X[1] {
					return m.OOB(t126, d_X[1], 1, "X", 0, 0)
				}
				t127 := b_X + int((t125)*d_X[1]+t126)
				t128 := m.LoadF(t127)
				cs.Fold(checksum.AccDef, math.Float64bits(t128), p_tsteps)
			}
			t129 := p_tsteps - int64(2)
			if t129 >= int64(0) {
				t130 := i_li0
				if t130 < 0 || t130 >= d_X[0] {
					return m.OOB(t130, d_X[0], 0, "X", 0, 0)
				}
				t131 := i_li1
				if t131 < 0 || t131 >= d_X[1] {
					return m.OOB(t131, d_X[1], 1, "X", 0, 0)
				}
				t132 := b_X + int((t130)*d_X[1]+t131)
				t133 := m.LoadF(t132)
				cs.Fold(checksum.AccDef, math.Float64bits(t133), int64(1))
			}
		}
		t134 := p_n - int64(1)
		t135 := codegen.MaxI(int64(1), t134)
		t136 := p_n - int64(1)
		for i_li1 := t135; i_li1 <= t136; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t138 := p_tsteps - int64(1)
			t137 := t138 >= int64(0)
			if t137 {
				t139 := -p_tsteps
				t140 := t139 + int64(1)
				t137 = t140 >= int64(0)
			}
			if t137 {
				t141 := i_li0
				if t141 < 0 || t141 >= d_X[0] {
					return m.OOB(t141, d_X[0], 0, "X", 0, 0)
				}
				t142 := i_li1
				if t142 < 0 || t142 >= d_X[1] {
					return m.OOB(t142, d_X[1], 1, "X", 0, 0)
				}
				t143 := b_X + int((t141)*d_X[1]+t142)
				t144 := m.LoadF(t143)
				cs.Fold(checksum.AccDef, math.Float64bits(t144), p_tsteps)
			}
			t145 := p_tsteps - int64(2)
			if t145 >= int64(0) {
				t146 := i_li0
				if t146 < 0 || t146 >= d_X[0] {
					return m.OOB(t146, d_X[0], 0, "X", 0, 0)
				}
				t147 := i_li1
				if t147 < 0 || t147 >= d_X[1] {
					return m.OOB(t147, d_X[1], 1, "X", 0, 0)
				}
				t148 := b_X + int((t146)*d_X[1]+t147)
				t149 := m.LoadF(t148)
				cs.Fold(checksum.AccDef, math.Float64bits(t149), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n5(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64) error {
	t150 := p_n - int64(1)
	t151 := codegen.MaxI(int64(1), t150)
	t152 := p_n - int64(1)
	for i_li0 := t151; i_li0 <= t152; i_li0++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t153 := p_n - int64(3)
		t154 := codegen.MinI(t153, int64(0))
		for i_li1 := int64(0); i_li1 <= t154; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t156 := p_tsteps - int64(1)
			t155 := t156 >= int64(0)
			if t155 {
				t157 := -p_tsteps
				t158 := t157 + int64(1)
				t155 = t158 >= int64(0)
			}
			if t155 {
				t159 := i_li0
				if t159 < 0 || t159 >= d_X[0] {
					return m.OOB(t159, d_X[0], 0, "X", 0, 0)
				}
				t160 := i_li1
				if t160 < 0 || t160 >= d_X[1] {
					return m.OOB(t160, d_X[1], 1, "X", 0, 0)
				}
				t161 := b_X + int((t159)*d_X[1]+t160)
				t162 := m.LoadF(t161)
				cs.Fold(checksum.AccDef, math.Float64bits(t162), p_tsteps)
			}
			t163 := p_tsteps - int64(2)
			if t163 >= int64(0) {
				t164 := i_li0
				if t164 < 0 || t164 >= d_X[0] {
					return m.OOB(t164, d_X[0], 0, "X", 0, 0)
				}
				t165 := i_li1
				if t165 < 0 || t165 >= d_X[1] {
					return m.OOB(t165, d_X[1], 1, "X", 0, 0)
				}
				t166 := b_X + int((t164)*d_X[1]+t165)
				t167 := m.LoadF(t166)
				cs.Fold(checksum.AccDef, math.Float64bits(t167), int64(1))
			}
			t169 := p_tsteps - int64(1)
			t168 := t169 >= int64(0)
			if t168 {
				t170 := -p_tsteps
				t171 := t170 + int64(1)
				t168 = t171 >= int64(0)
			}
			if t168 {
				t172 := i_li0
				if t172 < 0 || t172 >= d_X[0] {
					return m.OOB(t172, d_X[0], 0, "X", 0, 0)
				}
				t173 := i_li1
				if t173 < 0 || t173 >= d_X[1] {
					return m.OOB(t173, d_X[1], 1, "X", 0, 0)
				}
				t174 := b_X + int((t172)*d_X[1]+t173)
				t175 := m.LoadF(t174)
				cs.Fold(checksum.AccDef, math.Float64bits(t175), p_tsteps)
			}
			t176 := p_tsteps - int64(2)
			if t176 >= int64(0) {
				t177 := i_li0
				if t177 < 0 || t177 >= d_X[0] {
					return m.OOB(t177, d_X[0], 0, "X", 0, 0)
				}
				t178 := i_li1
				if t178 < 0 || t178 >= d_X[1] {
					return m.OOB(t178, d_X[1], 1, "X", 0, 0)
				}
				t179 := b_X + int((t177)*d_X[1]+t178)
				t180 := m.LoadF(t179)
				cs.Fold(checksum.AccDef, math.Float64bits(t180), int64(1))
			}
			t182 := p_tsteps - int64(1)
			t181 := t182 >= int64(0)
			if t181 {
				t183 := -p_tsteps
				t184 := t183 + int64(1)
				t181 = t184 >= int64(0)
			}
			if t181 {
				t185 := i_li0
				if t185 < 0 || t185 >= d_X[0] {
					return m.OOB(t185, d_X[0], 0, "X", 0, 0)
				}
				t186 := i_li1
				if t186 < 0 || t186 >= d_X[1] {
					return m.OOB(t186, d_X[1], 1, "X", 0, 0)
				}
				t187 := b_X + int((t185)*d_X[1]+t186)
				t188 := m.LoadF(t187)
				cs.Fold(checksum.AccDef, math.Float64bits(t188), p_tsteps)
			}
			t189 := p_tsteps - int64(2)
			if t189 >= int64(0) {
				t190 := i_li0
				if t190 < 0 || t190 >= d_X[0] {
					return m.OOB(t190, d_X[0], 0, "X", 0, 0)
				}
				t191 := i_li1
				if t191 < 0 || t191 >= d_X[1] {
					return m.OOB(t191, d_X[1], 1, "X", 0, 0)
				}
				t192 := b_X + int((t190)*d_X[1]+t191)
				t193 := m.LoadF(t192)
				cs.Fold(checksum.AccDef, math.Float64bits(t193), int64(1))
			}
		}
		t194 := p_n - int64(2)
		t195 := codegen.MaxI(int64(0), t194)
		t196 := p_n - int64(1)
		t197 := codegen.MinI(t196, int64(0))
		for i_li1 := t195; i_li1 <= t197; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t199 := p_tsteps - int64(1)
			t198 := t199 >= int64(0)
			if t198 {
				t200 := -p_tsteps
				t201 := t200 + int64(1)
				t198 = t201 >= int64(0)
			}
			if t198 {
				t202 := i_li0
				if t202 < 0 || t202 >= d_X[0] {
					return m.OOB(t202, d_X[0], 0, "X", 0, 0)
				}
				t203 := i_li1
				if t203 < 0 || t203 >= d_X[1] {
					return m.OOB(t203, d_X[1], 1, "X", 0, 0)
				}
				t204 := b_X + int((t202)*d_X[1]+t203)
				t205 := m.LoadF(t204)
				cs.Fold(checksum.AccDef, math.Float64bits(t205), p_tsteps)
			}
			t206 := p_tsteps - int64(2)
			if t206 >= int64(0) {
				t207 := i_li0
				if t207 < 0 || t207 >= d_X[0] {
					return m.OOB(t207, d_X[0], 0, "X", 0, 0)
				}
				t208 := i_li1
				if t208 < 0 || t208 >= d_X[1] {
					return m.OOB(t208, d_X[1], 1, "X", 0, 0)
				}
				t209 := b_X + int((t207)*d_X[1]+t208)
				t210 := m.LoadF(t209)
				cs.Fold(checksum.AccDef, math.Float64bits(t210), int64(1))
			}
			t212 := p_tsteps - int64(1)
			t211 := t212 >= int64(0)
			if t211 {
				t213 := -p_tsteps
				t214 := t213 + int64(1)
				t211 = t214 >= int64(0)
			}
			if t211 {
				t215 := i_li0
				if t215 < 0 || t215 >= d_X[0] {
					return m.OOB(t215, d_X[0], 0, "X", 0, 0)
				}
				t216 := i_li1
				if t216 < 0 || t216 >= d_X[1] {
					return m.OOB(t216, d_X[1], 1, "X", 0, 0)
				}
				t217 := b_X + int((t215)*d_X[1]+t216)
				t218 := m.LoadF(t217)
				cs.Fold(checksum.AccDef, math.Float64bits(t218), p_tsteps)
			}
			t219 := p_tsteps - int64(2)
			if t219 >= int64(0) {
				t220 := i_li0
				if t220 < 0 || t220 >= d_X[0] {
					return m.OOB(t220, d_X[0], 0, "X", 0, 0)
				}
				t221 := i_li1
				if t221 < 0 || t221 >= d_X[1] {
					return m.OOB(t221, d_X[1], 1, "X", 0, 0)
				}
				t222 := b_X + int((t220)*d_X[1]+t221)
				t223 := m.LoadF(t222)
				cs.Fold(checksum.AccDef, math.Float64bits(t223), int64(1))
			}
		}
		t224 := p_n - int64(2)
		for i_li1 := int64(1); i_li1 <= t224; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t226 := p_tsteps - int64(1)
			t225 := t226 >= int64(0)
			if t225 {
				t227 := -p_tsteps
				t228 := t227 + int64(1)
				t225 = t228 >= int64(0)
			}
			if t225 {
				t229 := i_li0
				if t229 < 0 || t229 >= d_X[0] {
					return m.OOB(t229, d_X[0], 0, "X", 0, 0)
				}
				t230 := i_li1
				if t230 < 0 || t230 >= d_X[1] {
					return m.OOB(t230, d_X[1], 1, "X", 0, 0)
				}
				t231 := b_X + int((t229)*d_X[1]+t230)
				t232 := m.LoadF(t231)
				cs.Fold(checksum.AccDef, math.Float64bits(t232), p_tsteps)
			}
			t233 := p_tsteps - int64(2)
			if t233 >= int64(0) {
				t234 := i_li0
				if t234 < 0 || t234 >= d_X[0] {
					return m.OOB(t234, d_X[0], 0, "X", 0, 0)
				}
				t235 := i_li1
				if t235 < 0 || t235 >= d_X[1] {
					return m.OOB(t235, d_X[1], 1, "X", 0, 0)
				}
				t236 := b_X + int((t234)*d_X[1]+t235)
				t237 := m.LoadF(t236)
				cs.Fold(checksum.AccDef, math.Float64bits(t237), int64(1))
			}
		}
		t238 := p_n - int64(1)
		t239 := codegen.MaxI(int64(1), t238)
		t240 := p_n - int64(1)
		for i_li1 := t239; i_li1 <= t240; i_li1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t242 := p_tsteps - int64(1)
			t241 := t242 >= int64(0)
			if t241 {
				t243 := -p_tsteps
				t244 := t243 + int64(1)
				t241 = t244 >= int64(0)
			}
			if t241 {
				t245 := i_li0
				if t245 < 0 || t245 >= d_X[0] {
					return m.OOB(t245, d_X[0], 0, "X", 0, 0)
				}
				t246 := i_li1
				if t246 < 0 || t246 >= d_X[1] {
					return m.OOB(t246, d_X[1], 1, "X", 0, 0)
				}
				t247 := b_X + int((t245)*d_X[1]+t246)
				t248 := m.LoadF(t247)
				cs.Fold(checksum.AccDef, math.Float64bits(t248), p_tsteps)
			}
			t249 := p_tsteps - int64(2)
			if t249 >= int64(0) {
				t250 := i_li0
				if t250 < 0 || t250 >= d_X[0] {
					return m.OOB(t250, d_X[0], 0, "X", 0, 0)
				}
				t251 := i_li1
				if t251 < 0 || t251 >= d_X[1] {
					return m.OOB(t251, d_X[1], 1, "X", 0, 0)
				}
				t252 := b_X + int((t250)*d_X[1]+t251)
				t253 := m.LoadF(t252)
				cs.Fold(checksum.AccDef, math.Float64bits(t253), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n6(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t254 := p_n - int64(3)
	t255 := codegen.MinI(t254, int64(0))
	for i_li02 := int64(0); i_li02 <= t255; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t256 := p_n - int64(1)
		t257 := codegen.MinI(t256, int64(0))
		for i_li12 := int64(0); i_li12 <= t257; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t258 := p_tsteps - int64(1)
			if t258 >= int64(0) {
				t259 := i_li02
				if t259 < 0 || t259 >= d_A[0] {
					return m.OOB(t259, d_A[0], 0, "A", 0, 0)
				}
				t260 := i_li12
				if t260 < 0 || t260 >= d_A[1] {
					return m.OOB(t260, d_A[1], 1, "A", 0, 0)
				}
				t261 := b_A + int((t259)*d_A[1]+t260)
				t262 := m.LoadF(t261)
				cs.Fold(checksum.AccDef, math.Float64bits(t262), p_tsteps)
			}
			t263 := p_tsteps - int64(1)
			if t263 >= int64(0) {
				t264 := i_li02
				if t264 < 0 || t264 >= d_A[0] {
					return m.OOB(t264, d_A[0], 0, "A", 0, 0)
				}
				t265 := i_li12
				if t265 < 0 || t265 >= d_A[1] {
					return m.OOB(t265, d_A[1], 1, "A", 0, 0)
				}
				t266 := b_A + int((t264)*d_A[1]+t265)
				t267 := m.LoadF(t266)
				cs.Fold(checksum.AccDef, math.Float64bits(t267), p_tsteps)
			}
		}
		t268 := p_n - int64(3)
		for i_li12 := int64(1); i_li12 <= t268; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t269 := p_tsteps - int64(1)
			if t269 >= int64(0) {
				t270 := i_li02
				if t270 < 0 || t270 >= d_A[0] {
					return m.OOB(t270, d_A[0], 0, "A", 0, 0)
				}
				t271 := i_li12
				if t271 < 0 || t271 >= d_A[1] {
					return m.OOB(t271, d_A[1], 1, "A", 0, 0)
				}
				t272 := b_A + int((t270)*d_A[1]+t271)
				t273 := m.LoadF(t272)
				t274 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t273), t274)
			}
			t275 := p_tsteps - int64(1)
			if t275 >= int64(0) {
				t276 := i_li02
				if t276 < 0 || t276 >= d_A[0] {
					return m.OOB(t276, d_A[0], 0, "A", 0, 0)
				}
				t277 := i_li12
				if t277 < 0 || t277 >= d_A[1] {
					return m.OOB(t277, d_A[1], 1, "A", 0, 0)
				}
				t278 := b_A + int((t276)*d_A[1]+t277)
				t279 := m.LoadF(t278)
				cs.Fold(checksum.AccDef, math.Float64bits(t279), p_tsteps)
			}
			t280 := p_tsteps - int64(1)
			if t280 >= int64(0) {
				t281 := i_li02
				if t281 < 0 || t281 >= d_A[0] {
					return m.OOB(t281, d_A[0], 0, "A", 0, 0)
				}
				t282 := i_li12
				if t282 < 0 || t282 >= d_A[1] {
					return m.OOB(t282, d_A[1], 1, "A", 0, 0)
				}
				t283 := b_A + int((t281)*d_A[1]+t282)
				t284 := m.LoadF(t283)
				cs.Fold(checksum.AccDef, math.Float64bits(t284), p_tsteps)
			}
		}
		t285 := p_n - int64(2)
		t286 := codegen.MaxI(int64(1), t285)
		t287 := p_n - int64(1)
		for i_li12 := t286; i_li12 <= t287; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t288 := p_tsteps - int64(1)
			if t288 >= int64(0) {
				t289 := i_li02
				if t289 < 0 || t289 >= d_A[0] {
					return m.OOB(t289, d_A[0], 0, "A", 0, 0)
				}
				t290 := i_li12
				if t290 < 0 || t290 >= d_A[1] {
					return m.OOB(t290, d_A[1], 1, "A", 0, 0)
				}
				t291 := b_A + int((t289)*d_A[1]+t290)
				t292 := m.LoadF(t291)
				t293 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t292), t293)
			}
			t294 := p_tsteps - int64(1)
			if t294 >= int64(0) {
				t295 := i_li02
				if t295 < 0 || t295 >= d_A[0] {
					return m.OOB(t295, d_A[0], 0, "A", 0, 0)
				}
				t296 := i_li12
				if t296 < 0 || t296 >= d_A[1] {
					return m.OOB(t296, d_A[1], 1, "A", 0, 0)
				}
				t297 := b_A + int((t295)*d_A[1]+t296)
				t298 := m.LoadF(t297)
				cs.Fold(checksum.AccDef, math.Float64bits(t298), p_tsteps)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n7(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t299 := p_n - int64(2)
	t300 := codegen.MaxI(int64(0), t299)
	t301 := p_n - int64(1)
	t302 := codegen.MinI(t301, int64(0))
	for i_li02 := t300; i_li02 <= t302; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t303 := p_n - int64(1)
		for i_li12 := int64(1); i_li12 <= t303; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t304 := p_tsteps - int64(1)
			if t304 >= int64(0) {
				t305 := i_li02
				if t305 < 0 || t305 >= d_A[0] {
					return m.OOB(t305, d_A[0], 0, "A", 0, 0)
				}
				t306 := i_li12
				if t306 < 0 || t306 >= d_A[1] {
					return m.OOB(t306, d_A[1], 1, "A", 0, 0)
				}
				t307 := b_A + int((t305)*d_A[1]+t306)
				t308 := m.LoadF(t307)
				t309 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t308), t309)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n8(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t310 := p_n - int64(3)
	for i_li02 := int64(1); i_li02 <= t310; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t311 := p_n - int64(1)
		t312 := codegen.MinI(t311, int64(0))
		for i_li12 := int64(0); i_li12 <= t312; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t313 := p_tsteps - int64(1)
			if t313 >= int64(0) {
				t314 := i_li02
				if t314 < 0 || t314 >= d_A[0] {
					return m.OOB(t314, d_A[0], 0, "A", 0, 0)
				}
				t315 := i_li12
				if t315 < 0 || t315 >= d_A[1] {
					return m.OOB(t315, d_A[1], 1, "A", 0, 0)
				}
				t316 := b_A + int((t314)*d_A[1]+t315)
				t317 := m.LoadF(t316)
				cs.Fold(checksum.AccDef, math.Float64bits(t317), p_tsteps)
			}
			t318 := p_tsteps - int64(1)
			if t318 >= int64(0) {
				t319 := i_li02
				if t319 < 0 || t319 >= d_A[0] {
					return m.OOB(t319, d_A[0], 0, "A", 0, 0)
				}
				t320 := i_li12
				if t320 < 0 || t320 >= d_A[1] {
					return m.OOB(t320, d_A[1], 1, "A", 0, 0)
				}
				t321 := b_A + int((t319)*d_A[1]+t320)
				t322 := m.LoadF(t321)
				t323 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t322), t323)
			}
			t324 := p_tsteps - int64(1)
			if t324 >= int64(0) {
				t325 := i_li02
				if t325 < 0 || t325 >= d_A[0] {
					return m.OOB(t325, d_A[0], 0, "A", 0, 0)
				}
				t326 := i_li12
				if t326 < 0 || t326 >= d_A[1] {
					return m.OOB(t326, d_A[1], 1, "A", 0, 0)
				}
				t327 := b_A + int((t325)*d_A[1]+t326)
				t328 := m.LoadF(t327)
				cs.Fold(checksum.AccDef, math.Float64bits(t328), p_tsteps)
			}
		}
		t329 := p_n - int64(3)
		for i_li12 := int64(1); i_li12 <= t329; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t330 := p_tsteps - int64(1)
			if t330 >= int64(0) {
				t331 := i_li02
				if t331 < 0 || t331 >= d_A[0] {
					return m.OOB(t331, d_A[0], 0, "A", 0, 0)
				}
				t332 := i_li12
				if t332 < 0 || t332 >= d_A[1] {
					return m.OOB(t332, d_A[1], 1, "A", 0, 0)
				}
				t333 := b_A + int((t331)*d_A[1]+t332)
				t334 := m.LoadF(t333)
				t335 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t334), t335)
			}
			t336 := p_tsteps - int64(1)
			if t336 >= int64(0) {
				t337 := i_li02
				if t337 < 0 || t337 >= d_A[0] {
					return m.OOB(t337, d_A[0], 0, "A", 0, 0)
				}
				t338 := i_li12
				if t338 < 0 || t338 >= d_A[1] {
					return m.OOB(t338, d_A[1], 1, "A", 0, 0)
				}
				t339 := b_A + int((t337)*d_A[1]+t338)
				t340 := m.LoadF(t339)
				cs.Fold(checksum.AccDef, math.Float64bits(t340), p_tsteps)
			}
			t341 := p_tsteps - int64(1)
			if t341 >= int64(0) {
				t342 := i_li02
				if t342 < 0 || t342 >= d_A[0] {
					return m.OOB(t342, d_A[0], 0, "A", 0, 0)
				}
				t343 := i_li12
				if t343 < 0 || t343 >= d_A[1] {
					return m.OOB(t343, d_A[1], 1, "A", 0, 0)
				}
				t344 := b_A + int((t342)*d_A[1]+t343)
				t345 := m.LoadF(t344)
				t346 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t345), t346)
			}
			t347 := p_tsteps - int64(1)
			if t347 >= int64(0) {
				t348 := i_li02
				if t348 < 0 || t348 >= d_A[0] {
					return m.OOB(t348, d_A[0], 0, "A", 0, 0)
				}
				t349 := i_li12
				if t349 < 0 || t349 >= d_A[1] {
					return m.OOB(t349, d_A[1], 1, "A", 0, 0)
				}
				t350 := b_A + int((t348)*d_A[1]+t349)
				t351 := m.LoadF(t350)
				cs.Fold(checksum.AccDef, math.Float64bits(t351), p_tsteps)
			}
		}
		t352 := p_n - int64(2)
		t353 := codegen.MaxI(int64(1), t352)
		t354 := p_n - int64(1)
		for i_li12 := t353; i_li12 <= t354; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t355 := p_tsteps - int64(1)
			if t355 >= int64(0) {
				t356 := i_li02
				if t356 < 0 || t356 >= d_A[0] {
					return m.OOB(t356, d_A[0], 0, "A", 0, 0)
				}
				t357 := i_li12
				if t357 < 0 || t357 >= d_A[1] {
					return m.OOB(t357, d_A[1], 1, "A", 0, 0)
				}
				t358 := b_A + int((t356)*d_A[1]+t357)
				t359 := m.LoadF(t358)
				t360 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t359), t360)
			}
			t361 := p_tsteps - int64(1)
			if t361 >= int64(0) {
				t362 := i_li02
				if t362 < 0 || t362 >= d_A[0] {
					return m.OOB(t362, d_A[0], 0, "A", 0, 0)
				}
				t363 := i_li12
				if t363 < 0 || t363 >= d_A[1] {
					return m.OOB(t363, d_A[1], 1, "A", 0, 0)
				}
				t364 := b_A + int((t362)*d_A[1]+t363)
				t365 := m.LoadF(t364)
				t366 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t365), t366)
			}
			t367 := p_tsteps - int64(1)
			if t367 >= int64(0) {
				t368 := i_li02
				if t368 < 0 || t368 >= d_A[0] {
					return m.OOB(t368, d_A[0], 0, "A", 0, 0)
				}
				t369 := i_li12
				if t369 < 0 || t369 >= d_A[1] {
					return m.OOB(t369, d_A[1], 1, "A", 0, 0)
				}
				t370 := b_A + int((t368)*d_A[1]+t369)
				t371 := m.LoadF(t370)
				cs.Fold(checksum.AccDef, math.Float64bits(t371), p_tsteps)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n9(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_A int, d_A []int64) error {
	t372 := p_n - int64(2)
	t373 := codegen.MaxI(int64(1), t372)
	t374 := p_n - int64(1)
	for i_li02 := t373; i_li02 <= t374; i_li02++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t375 := p_n - int64(3)
		t376 := codegen.MinI(t375, int64(0))
		for i_li12 := int64(0); i_li12 <= t376; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t377 := p_tsteps - int64(1)
			if t377 >= int64(0) {
				t378 := i_li02
				if t378 < 0 || t378 >= d_A[0] {
					return m.OOB(t378, d_A[0], 0, "A", 0, 0)
				}
				t379 := i_li12
				if t379 < 0 || t379 >= d_A[1] {
					return m.OOB(t379, d_A[1], 1, "A", 0, 0)
				}
				t380 := b_A + int((t378)*d_A[1]+t379)
				t381 := m.LoadF(t380)
				cs.Fold(checksum.AccDef, math.Float64bits(t381), p_tsteps)
			}
			t382 := p_tsteps - int64(1)
			if t382 >= int64(0) {
				t383 := i_li02
				if t383 < 0 || t383 >= d_A[0] {
					return m.OOB(t383, d_A[0], 0, "A", 0, 0)
				}
				t384 := i_li12
				if t384 < 0 || t384 >= d_A[1] {
					return m.OOB(t384, d_A[1], 1, "A", 0, 0)
				}
				t385 := b_A + int((t383)*d_A[1]+t384)
				t386 := m.LoadF(t385)
				t387 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t386), t387)
			}
		}
		t388 := p_n - int64(2)
		t389 := codegen.MaxI(int64(0), t388)
		t390 := p_n - int64(1)
		t391 := codegen.MinI(t390, int64(0))
		for i_li12 := t389; i_li12 <= t391; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t392 := p_tsteps - int64(1)
			if t392 >= int64(0) {
				t393 := i_li02
				if t393 < 0 || t393 >= d_A[0] {
					return m.OOB(t393, d_A[0], 0, "A", 0, 0)
				}
				t394 := i_li12
				if t394 < 0 || t394 >= d_A[1] {
					return m.OOB(t394, d_A[1], 1, "A", 0, 0)
				}
				t395 := b_A + int((t393)*d_A[1]+t394)
				t396 := m.LoadF(t395)
				t397 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t396), t397)
			}
		}
		t398 := p_n - int64(3)
		for i_li12 := int64(1); i_li12 <= t398; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t399 := p_tsteps - int64(1)
			if t399 >= int64(0) {
				t400 := i_li02
				if t400 < 0 || t400 >= d_A[0] {
					return m.OOB(t400, d_A[0], 0, "A", 0, 0)
				}
				t401 := i_li12
				if t401 < 0 || t401 >= d_A[1] {
					return m.OOB(t401, d_A[1], 1, "A", 0, 0)
				}
				t402 := b_A + int((t400)*d_A[1]+t401)
				t403 := m.LoadF(t402)
				t404 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t403), t404)
			}
			t405 := p_tsteps - int64(1)
			if t405 >= int64(0) {
				t406 := i_li02
				if t406 < 0 || t406 >= d_A[0] {
					return m.OOB(t406, d_A[0], 0, "A", 0, 0)
				}
				t407 := i_li12
				if t407 < 0 || t407 >= d_A[1] {
					return m.OOB(t407, d_A[1], 1, "A", 0, 0)
				}
				t408 := b_A + int((t406)*d_A[1]+t407)
				t409 := m.LoadF(t408)
				cs.Fold(checksum.AccDef, math.Float64bits(t409), p_tsteps)
			}
			t410 := p_tsteps - int64(1)
			if t410 >= int64(0) {
				t411 := i_li02
				if t411 < 0 || t411 >= d_A[0] {
					return m.OOB(t411, d_A[0], 0, "A", 0, 0)
				}
				t412 := i_li12
				if t412 < 0 || t412 >= d_A[1] {
					return m.OOB(t412, d_A[1], 1, "A", 0, 0)
				}
				t413 := b_A + int((t411)*d_A[1]+t412)
				t414 := m.LoadF(t413)
				t415 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t414), t415)
			}
		}
		t416 := p_n - int64(2)
		t417 := codegen.MaxI(int64(1), t416)
		t418 := p_n - int64(1)
		for i_li12 := t417; i_li12 <= t418; i_li12++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t419 := p_tsteps - int64(1)
			if t419 >= int64(0) {
				t420 := i_li02
				if t420 < 0 || t420 >= d_A[0] {
					return m.OOB(t420, d_A[0], 0, "A", 0, 0)
				}
				t421 := i_li12
				if t421 < 0 || t421 >= d_A[1] {
					return m.OOB(t421, d_A[1], 1, "A", 0, 0)
				}
				t422 := b_A + int((t420)*d_A[1]+t421)
				t423 := m.LoadF(t422)
				t424 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t423), t424)
			}
			t425 := p_tsteps - int64(1)
			if t425 >= int64(0) {
				t426 := i_li02
				if t426 < 0 || t426 >= d_A[0] {
					return m.OOB(t426, d_A[0], 0, "A", 0, 0)
				}
				t427 := i_li12
				if t427 < 0 || t427 >= d_A[1] {
					return m.OOB(t427, d_A[1], 1, "A", 0, 0)
				}
				t428 := b_A + int((t426)*d_A[1]+t427)
				t429 := m.LoadF(t428)
				t430 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t429), t430)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n10(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_B int, d_B []int64) error {
	t431 := p_n - int64(2)
	t432 := codegen.MinI(t431, int64(0))
	for i_li03 := int64(0); i_li03 <= t432; i_li03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t433 := p_n - int64(3)
		t434 := codegen.MinI(t433, int64(0))
		for i_li13 := int64(0); i_li13 <= t434; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t435 := p_tsteps - int64(1)
			if t435 >= int64(0) {
				t436 := i_li03
				if t436 < 0 || t436 >= d_B[0] {
					return m.OOB(t436, d_B[0], 0, "B", 0, 0)
				}
				t437 := i_li13
				if t437 < 0 || t437 >= d_B[1] {
					return m.OOB(t437, d_B[1], 1, "B", 0, 0)
				}
				t438 := b_B + int((t436)*d_B[1]+t437)
				t439 := m.LoadF(t438)
				t440 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t439), t440)
			}
			t441 := p_tsteps - int64(1)
			if t441 >= int64(0) {
				t442 := i_li03
				if t442 < 0 || t442 >= d_B[0] {
					return m.OOB(t442, d_B[0], 0, "B", 0, 0)
				}
				t443 := i_li13
				if t443 < 0 || t443 >= d_B[1] {
					return m.OOB(t443, d_B[1], 1, "B", 0, 0)
				}
				t444 := b_B + int((t442)*d_B[1]+t443)
				t445 := m.LoadF(t444)
				cs.Fold(checksum.AccDef, math.Float64bits(t445), p_tsteps)
			}
			t446 := p_tsteps - int64(1)
			if t446 >= int64(0) {
				t447 := i_li03
				if t447 < 0 || t447 >= d_B[0] {
					return m.OOB(t447, d_B[0], 0, "B", 0, 0)
				}
				t448 := i_li13
				if t448 < 0 || t448 >= d_B[1] {
					return m.OOB(t448, d_B[1], 1, "B", 0, 0)
				}
				t449 := b_B + int((t447)*d_B[1]+t448)
				t450 := m.LoadF(t449)
				t451 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t450), t451)
			}
		}
		t452 := p_n - int64(2)
		t453 := codegen.MaxI(int64(0), t452)
		t454 := p_n - int64(1)
		t455 := codegen.MinI(t454, int64(0))
		for i_li13 := t453; i_li13 <= t455; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t456 := p_tsteps - int64(1)
			if t456 >= int64(0) {
				t457 := i_li03
				if t457 < 0 || t457 >= d_B[0] {
					return m.OOB(t457, d_B[0], 0, "B", 0, 0)
				}
				t458 := i_li13
				if t458 < 0 || t458 >= d_B[1] {
					return m.OOB(t458, d_B[1], 1, "B", 0, 0)
				}
				t459 := b_B + int((t457)*d_B[1]+t458)
				t460 := m.LoadF(t459)
				t461 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t460), t461)
			}
			t462 := p_tsteps - int64(1)
			if t462 >= int64(0) {
				t463 := i_li03
				if t463 < 0 || t463 >= d_B[0] {
					return m.OOB(t463, d_B[0], 0, "B", 0, 0)
				}
				t464 := i_li13
				if t464 < 0 || t464 >= d_B[1] {
					return m.OOB(t464, d_B[1], 1, "B", 0, 0)
				}
				t465 := b_B + int((t463)*d_B[1]+t464)
				t466 := m.LoadF(t465)
				t467 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t466), t467)
			}
		}
		t468 := p_n - int64(1)
		for i_li13 := int64(1); i_li13 <= t468; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t470 := p_tsteps - int64(1)
			t469 := t470 >= int64(0)
			if t469 {
				t471 := -p_tsteps
				t472 := t471 + int64(1)
				t469 = t472 >= int64(0)
			}
			if t469 {
				t473 := i_li03
				if t473 < 0 || t473 >= d_B[0] {
					return m.OOB(t473, d_B[0], 0, "B", 0, 0)
				}
				t474 := i_li13
				if t474 < 0 || t474 >= d_B[1] {
					return m.OOB(t474, d_B[1], 1, "B", 0, 0)
				}
				t475 := b_B + int((t473)*d_B[1]+t474)
				t476 := m.LoadF(t475)
				cs.Fold(checksum.AccDef, math.Float64bits(t476), p_tsteps)
			}
			t477 := p_tsteps - int64(2)
			if t477 >= int64(0) {
				t478 := i_li03
				if t478 < 0 || t478 >= d_B[0] {
					return m.OOB(t478, d_B[0], 0, "B", 0, 0)
				}
				t479 := i_li13
				if t479 < 0 || t479 >= d_B[1] {
					return m.OOB(t479, d_B[1], 1, "B", 0, 0)
				}
				t480 := b_B + int((t478)*d_B[1]+t479)
				t481 := m.LoadF(t480)
				cs.Fold(checksum.AccDef, math.Float64bits(t481), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n11(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_B int, d_B []int64) error {
	t482 := p_n - int64(1)
	t483 := codegen.MaxI(int64(0), t482)
	t484 := p_n - int64(1)
	t485 := codegen.MinI(t484, int64(0))
	for i_li03 := t483; i_li03 <= t485; i_li03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t486 := p_n - int64(1)
		for i_li13 := int64(0); i_li13 <= t486; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t487 := p_tsteps - int64(1)
			if t487 >= int64(0) {
				t488 := i_li03
				if t488 < 0 || t488 >= d_B[0] {
					return m.OOB(t488, d_B[0], 0, "B", 0, 0)
				}
				t489 := i_li13
				if t489 < 0 || t489 >= d_B[1] {
					return m.OOB(t489, d_B[1], 1, "B", 0, 0)
				}
				t490 := b_B + int((t488)*d_B[1]+t489)
				t491 := m.LoadF(t490)
				t492 := int64(2) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t491), t492)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n12(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_B int, d_B []int64) error {
	t493 := p_n - int64(1)
	for i_li03 := int64(1); i_li03 <= t493; i_li03++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t494 := p_n - int64(3)
		t495 := codegen.MinI(t494, int64(0))
		for i_li13 := int64(0); i_li13 <= t495; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t497 := p_tsteps - int64(1)
			t496 := t497 >= int64(0)
			if t496 {
				t498 := -p_tsteps
				t499 := t498 + int64(1)
				t496 = t499 >= int64(0)
			}
			if t496 {
				t500 := i_li03
				if t500 < 0 || t500 >= d_B[0] {
					return m.OOB(t500, d_B[0], 0, "B", 0, 0)
				}
				t501 := i_li13
				if t501 < 0 || t501 >= d_B[1] {
					return m.OOB(t501, d_B[1], 1, "B", 0, 0)
				}
				t502 := b_B + int((t500)*d_B[1]+t501)
				t503 := m.LoadF(t502)
				t504 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t503), t504)
			}
			t505 := p_tsteps - int64(2)
			if t505 >= int64(0) {
				t506 := i_li03
				if t506 < 0 || t506 >= d_B[0] {
					return m.OOB(t506, d_B[0], 0, "B", 0, 0)
				}
				t507 := i_li13
				if t507 < 0 || t507 >= d_B[1] {
					return m.OOB(t507, d_B[1], 1, "B", 0, 0)
				}
				t508 := b_B + int((t506)*d_B[1]+t507)
				t509 := m.LoadF(t508)
				cs.Fold(checksum.AccDef, math.Float64bits(t509), int64(3))
			}
			t511 := p_tsteps - int64(1)
			t510 := t511 >= int64(0)
			if t510 {
				t512 := -p_tsteps
				t513 := t512 + int64(1)
				t510 = t513 >= int64(0)
			}
			if t510 {
				t514 := i_li03
				if t514 < 0 || t514 >= d_B[0] {
					return m.OOB(t514, d_B[0], 0, "B", 0, 0)
				}
				t515 := i_li13
				if t515 < 0 || t515 >= d_B[1] {
					return m.OOB(t515, d_B[1], 1, "B", 0, 0)
				}
				t516 := b_B + int((t514)*d_B[1]+t515)
				t517 := m.LoadF(t516)
				cs.Fold(checksum.AccDef, math.Float64bits(t517), p_tsteps)
			}
			t518 := p_tsteps - int64(2)
			if t518 >= int64(0) {
				t519 := i_li03
				if t519 < 0 || t519 >= d_B[0] {
					return m.OOB(t519, d_B[0], 0, "B", 0, 0)
				}
				t520 := i_li13
				if t520 < 0 || t520 >= d_B[1] {
					return m.OOB(t520, d_B[1], 1, "B", 0, 0)
				}
				t521 := b_B + int((t519)*d_B[1]+t520)
				t522 := m.LoadF(t521)
				cs.Fold(checksum.AccDef, math.Float64bits(t522), int64(1))
			}
		}
		t523 := p_n - int64(2)
		t524 := codegen.MaxI(int64(0), t523)
		t525 := p_n - int64(1)
		t526 := codegen.MinI(t525, int64(0))
		for i_li13 := t524; i_li13 <= t526; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t528 := p_tsteps - int64(1)
			t527 := t528 >= int64(0)
			if t527 {
				t529 := -p_tsteps
				t530 := t529 + int64(1)
				t527 = t530 >= int64(0)
			}
			if t527 {
				t531 := i_li03
				if t531 < 0 || t531 >= d_B[0] {
					return m.OOB(t531, d_B[0], 0, "B", 0, 0)
				}
				t532 := i_li13
				if t532 < 0 || t532 >= d_B[1] {
					return m.OOB(t532, d_B[1], 1, "B", 0, 0)
				}
				t533 := b_B + int((t531)*d_B[1]+t532)
				t534 := m.LoadF(t533)
				t535 := int64(3) * p_tsteps
				cs.Fold(checksum.AccDef, math.Float64bits(t534), t535)
			}
			t536 := p_tsteps - int64(2)
			if t536 >= int64(0) {
				t537 := i_li03
				if t537 < 0 || t537 >= d_B[0] {
					return m.OOB(t537, d_B[0], 0, "B", 0, 0)
				}
				t538 := i_li13
				if t538 < 0 || t538 >= d_B[1] {
					return m.OOB(t538, d_B[1], 1, "B", 0, 0)
				}
				t539 := b_B + int((t537)*d_B[1]+t538)
				t540 := m.LoadF(t539)
				cs.Fold(checksum.AccDef, math.Float64bits(t540), int64(3))
			}
		}
		t541 := p_n - int64(1)
		for i_li13 := int64(1); i_li13 <= t541; i_li13++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t543 := p_tsteps - int64(1)
			t542 := t543 >= int64(0)
			if t542 {
				t544 := -p_tsteps
				t545 := t544 + int64(1)
				t542 = t545 >= int64(0)
			}
			if t542 {
				t546 := i_li03
				if t546 < 0 || t546 >= d_B[0] {
					return m.OOB(t546, d_B[0], 0, "B", 0, 0)
				}
				t547 := i_li13
				if t547 < 0 || t547 >= d_B[1] {
					return m.OOB(t547, d_B[1], 1, "B", 0, 0)
				}
				t548 := b_B + int((t546)*d_B[1]+t547)
				t549 := m.LoadF(t548)
				cs.Fold(checksum.AccDef, math.Float64bits(t549), p_tsteps)
			}
			t550 := p_tsteps - int64(2)
			if t550 >= int64(0) {
				t551 := i_li03
				if t551 < 0 || t551 >= d_B[0] {
					return m.OOB(t551, d_B[0], 0, "B", 0, 0)
				}
				t552 := i_li13
				if t552 < 0 || t552 >= d_B[1] {
					return m.OOB(t552, d_B[1], 1, "B", 0, 0)
				}
				t553 := b_B + int((t551)*d_B[1]+t552)
				t554 := m.LoadF(t553)
				cs.Fold(checksum.AccDef, math.Float64bits(t554), int64(1))
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n13(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t557 := p_n - int64(1)
	t558 := codegen.MinI(t557, int64(0))
	for i_i1 := int64(0); i_i1 <= t558; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t559 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t559; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t560 := i_i1
			if t560 < 0 || t560 >= d_X[0] {
				return m.OOB(t560, d_X[0], 0, "X", 7, 23)
			}
			t561 := i_i2
			if t561 < 0 || t561 >= d_X[1] {
				return m.OOB(t561, d_X[1], 1, "X", 7, 23)
			}
			t562 := b_X + int((t560)*d_X[1]+t561)
			r_X_r := m.LoadF(t562)
			t563 := i_i1
			if t563 < 0 || t563 >= d_X[0] {
				return m.OOB(t563, d_X[0], 0, "X", 7, 35)
			}
			t564 := i_i2 - int64(1)
			t565 := t564
			if t565 < 0 || t565 >= d_X[1] {
				return m.OOB(t565, d_X[1], 1, "X", 7, 35)
			}
			t566 := b_X + int((t563)*d_X[1]+t565)
			r_X_r2 := m.LoadF(t566)
			t567 := i_i1
			if t567 < 0 || t567 >= d_A[0] {
				return m.OOB(t567, d_A[0], 0, "A", 7, 51)
			}
			t568 := i_i2
			if t568 < 0 || t568 >= d_A[1] {
				return m.OOB(t568, d_A[1], 1, "A", 7, 51)
			}
			t569 := b_A + int((t567)*d_A[1]+t568)
			r_A_r := m.LoadF(t569)
			t570 := i_i1
			if t570 < 0 || t570 >= d_B[0] {
				return m.OOB(t570, d_B[0], 0, "B", 7, 63)
			}
			t571 := i_i2 - int64(1)
			t572 := t571
			if t572 < 0 || t572 >= d_B[1] {
				return m.OOB(t572, d_B[1], 1, "B", 7, 63)
			}
			t573 := b_B + int((t570)*d_B[1]+t572)
			r_B_r := m.LoadF(t573)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t574 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t575 := float64(t574 / r_B_r)
			t576 := float64(r_X_r - t575)
			r_X_w := t576
			t577 := i_i1
			if t577 < 0 || t577 >= d_X[0] {
				return m.OOB(t577, d_X[0], 0, "X", 7, 11)
			}
			t578 := i_i2
			if t578 < 0 || t578 >= d_X[1] {
				return m.OOB(t578, d_X[1], 1, "X", 7, 11)
			}
			t579 := b_X + int((t577)*d_X[1]+t578)
			m.StoreF(t579, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t580 := i_i1
			if t580 < 0 || t580 >= d_B[0] {
				return m.OOB(t580, d_B[0], 0, "B", 8, 23)
			}
			t581 := i_i2
			if t581 < 0 || t581 >= d_B[1] {
				return m.OOB(t581, d_B[1], 1, "B", 8, 23)
			}
			t582 := b_B + int((t580)*d_B[1]+t581)
			r_B_r2 := m.LoadF(t582)
			t583 := i_i1
			if t583 < 0 || t583 >= d_A[0] {
				return m.OOB(t583, d_A[0], 0, "A", 8, 35)
			}
			t584 := i_i2
			if t584 < 0 || t584 >= d_A[1] {
				return m.OOB(t584, d_A[1], 1, "A", 8, 35)
			}
			t585 := b_A + int((t583)*d_A[1]+t584)
			r_A_r2 := m.LoadF(t585)
			t586 := i_i1
			if t586 < 0 || t586 >= d_A[0] {
				return m.OOB(t586, d_A[0], 0, "A", 8, 47)
			}
			t587 := i_i2
			if t587 < 0 || t587 >= d_A[1] {
				return m.OOB(t587, d_A[1], 1, "A", 8, 47)
			}
			t588 := b_A + int((t586)*d_A[1]+t587)
			r_A_r3 := m.LoadF(t588)
			t589 := i_i1
			if t589 < 0 || t589 >= d_B[0] {
				return m.OOB(t589, d_B[0], 0, "B", 8, 59)
			}
			t590 := i_i2 - int64(1)
			t591 := t590
			if t591 < 0 || t591 >= d_B[1] {
				return m.OOB(t591, d_B[1], 1, "B", 8, 59)
			}
			t592 := b_B + int((t589)*d_B[1]+t591)
			r_B_r3 := m.LoadF(t592)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t593 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t594 := float64(t593 / r_B_r3)
			t595 := float64(r_B_r2 - t594)
			r_B_w := t595
			t596 := i_i1
			if t596 < 0 || t596 >= d_B[0] {
				return m.OOB(t596, d_B[0], 0, "B", 8, 11)
			}
			t597 := i_i2
			if t597 < 0 || t597 >= d_B[1] {
				return m.OOB(t597, d_B[1], 1, "B", 8, 11)
			}
			t598 := b_B + int((t596)*d_B[1]+t597)
			m.StoreF(t598, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t599 := p_n - int64(2)
		t600 := codegen.MaxI(int64(1), t599)
		t601 := p_n - int64(2)
		for i_i2 := t600; i_i2 <= t601; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t602 := i_i1
			if t602 < 0 || t602 >= d_X[0] {
				return m.OOB(t602, d_X[0], 0, "X", 7, 23)
			}
			t603 := i_i2
			if t603 < 0 || t603 >= d_X[1] {
				return m.OOB(t603, d_X[1], 1, "X", 7, 23)
			}
			t604 := b_X + int((t602)*d_X[1]+t603)
			r_X_r := m.LoadF(t604)
			t605 := i_i1
			if t605 < 0 || t605 >= d_X[0] {
				return m.OOB(t605, d_X[0], 0, "X", 7, 35)
			}
			t606 := i_i2 - int64(1)
			t607 := t606
			if t607 < 0 || t607 >= d_X[1] {
				return m.OOB(t607, d_X[1], 1, "X", 7, 35)
			}
			t608 := b_X + int((t605)*d_X[1]+t607)
			r_X_r2 := m.LoadF(t608)
			t609 := i_i1
			if t609 < 0 || t609 >= d_A[0] {
				return m.OOB(t609, d_A[0], 0, "A", 7, 51)
			}
			t610 := i_i2
			if t610 < 0 || t610 >= d_A[1] {
				return m.OOB(t610, d_A[1], 1, "A", 7, 51)
			}
			t611 := b_A + int((t609)*d_A[1]+t610)
			r_A_r := m.LoadF(t611)
			t612 := i_i1
			if t612 < 0 || t612 >= d_B[0] {
				return m.OOB(t612, d_B[0], 0, "B", 7, 63)
			}
			t613 := i_i2 - int64(1)
			t614 := t613
			if t614 < 0 || t614 >= d_B[1] {
				return m.OOB(t614, d_B[1], 1, "B", 7, 63)
			}
			t615 := b_B + int((t612)*d_B[1]+t614)
			r_B_r := m.LoadF(t615)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t616 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t617 := float64(t616 / r_B_r)
			t618 := float64(r_X_r - t617)
			r_X_w := t618
			t619 := i_i1
			if t619 < 0 || t619 >= d_X[0] {
				return m.OOB(t619, d_X[0], 0, "X", 7, 11)
			}
			t620 := i_i2
			if t620 < 0 || t620 >= d_X[1] {
				return m.OOB(t620, d_X[1], 1, "X", 7, 11)
			}
			t621 := b_X + int((t619)*d_X[1]+t620)
			m.StoreF(t621, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t622 := i_i1
			if t622 < 0 || t622 >= d_B[0] {
				return m.OOB(t622, d_B[0], 0, "B", 8, 23)
			}
			t623 := i_i2
			if t623 < 0 || t623 >= d_B[1] {
				return m.OOB(t623, d_B[1], 1, "B", 8, 23)
			}
			t624 := b_B + int((t622)*d_B[1]+t623)
			r_B_r2 := m.LoadF(t624)
			t625 := i_i1
			if t625 < 0 || t625 >= d_A[0] {
				return m.OOB(t625, d_A[0], 0, "A", 8, 35)
			}
			t626 := i_i2
			if t626 < 0 || t626 >= d_A[1] {
				return m.OOB(t626, d_A[1], 1, "A", 8, 35)
			}
			t627 := b_A + int((t625)*d_A[1]+t626)
			r_A_r2 := m.LoadF(t627)
			t628 := i_i1
			if t628 < 0 || t628 >= d_A[0] {
				return m.OOB(t628, d_A[0], 0, "A", 8, 47)
			}
			t629 := i_i2
			if t629 < 0 || t629 >= d_A[1] {
				return m.OOB(t629, d_A[1], 1, "A", 8, 47)
			}
			t630 := b_A + int((t628)*d_A[1]+t629)
			r_A_r3 := m.LoadF(t630)
			t631 := i_i1
			if t631 < 0 || t631 >= d_B[0] {
				return m.OOB(t631, d_B[0], 0, "B", 8, 59)
			}
			t632 := i_i2 - int64(1)
			t633 := t632
			if t633 < 0 || t633 >= d_B[1] {
				return m.OOB(t633, d_B[1], 1, "B", 8, 59)
			}
			t634 := b_B + int((t631)*d_B[1]+t633)
			r_B_r3 := m.LoadF(t634)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t635 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t636 := float64(t635 / r_B_r3)
			t637 := float64(r_B_r2 - t636)
			r_B_w := t637
			t638 := i_i1
			if t638 < 0 || t638 >= d_B[0] {
				return m.OOB(t638, d_B[0], 0, "B", 8, 11)
			}
			t639 := i_i2
			if t639 < 0 || t639 >= d_B[1] {
				return m.OOB(t639, d_B[1], 1, "B", 8, 11)
			}
			t640 := b_B + int((t638)*d_B[1]+t639)
			m.StoreF(t640, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t641 := p_n - int64(1)
		t642 := codegen.MaxI(int64(1), t641)
		t643 := p_n - int64(1)
		for i_i2 := t642; i_i2 <= t643; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t644 := i_i1
			if t644 < 0 || t644 >= d_X[0] {
				return m.OOB(t644, d_X[0], 0, "X", 7, 23)
			}
			t645 := i_i2
			if t645 < 0 || t645 >= d_X[1] {
				return m.OOB(t645, d_X[1], 1, "X", 7, 23)
			}
			t646 := b_X + int((t644)*d_X[1]+t645)
			r_X_r := m.LoadF(t646)
			t647 := i_i1
			if t647 < 0 || t647 >= d_X[0] {
				return m.OOB(t647, d_X[0], 0, "X", 7, 35)
			}
			t648 := i_i2 - int64(1)
			t649 := t648
			if t649 < 0 || t649 >= d_X[1] {
				return m.OOB(t649, d_X[1], 1, "X", 7, 35)
			}
			t650 := b_X + int((t647)*d_X[1]+t649)
			r_X_r2 := m.LoadF(t650)
			t651 := i_i1
			if t651 < 0 || t651 >= d_A[0] {
				return m.OOB(t651, d_A[0], 0, "A", 7, 51)
			}
			t652 := i_i2
			if t652 < 0 || t652 >= d_A[1] {
				return m.OOB(t652, d_A[1], 1, "A", 7, 51)
			}
			t653 := b_A + int((t651)*d_A[1]+t652)
			r_A_r := m.LoadF(t653)
			t654 := i_i1
			if t654 < 0 || t654 >= d_B[0] {
				return m.OOB(t654, d_B[0], 0, "B", 7, 63)
			}
			t655 := i_i2 - int64(1)
			t656 := t655
			if t656 < 0 || t656 >= d_B[1] {
				return m.OOB(t656, d_B[1], 1, "B", 7, 63)
			}
			t657 := b_B + int((t654)*d_B[1]+t656)
			r_B_r := m.LoadF(t657)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t658 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t659 := float64(t658 / r_B_r)
			t660 := float64(r_X_r - t659)
			r_X_w := t660
			t661 := i_i1
			if t661 < 0 || t661 >= d_X[0] {
				return m.OOB(t661, d_X[0], 0, "X", 7, 11)
			}
			t662 := i_i2
			if t662 < 0 || t662 >= d_X[1] {
				return m.OOB(t662, d_X[1], 1, "X", 7, 11)
			}
			t663 := b_X + int((t661)*d_X[1]+t662)
			m.StoreF(t663, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t664 := i_i1
			if t664 < 0 || t664 >= d_B[0] {
				return m.OOB(t664, d_B[0], 0, "B", 8, 23)
			}
			t665 := i_i2
			if t665 < 0 || t665 >= d_B[1] {
				return m.OOB(t665, d_B[1], 1, "B", 8, 23)
			}
			t666 := b_B + int((t664)*d_B[1]+t665)
			r_B_r2 := m.LoadF(t666)
			t667 := i_i1
			if t667 < 0 || t667 >= d_A[0] {
				return m.OOB(t667, d_A[0], 0, "A", 8, 35)
			}
			t668 := i_i2
			if t668 < 0 || t668 >= d_A[1] {
				return m.OOB(t668, d_A[1], 1, "A", 8, 35)
			}
			t669 := b_A + int((t667)*d_A[1]+t668)
			r_A_r2 := m.LoadF(t669)
			t670 := i_i1
			if t670 < 0 || t670 >= d_A[0] {
				return m.OOB(t670, d_A[0], 0, "A", 8, 47)
			}
			t671 := i_i2
			if t671 < 0 || t671 >= d_A[1] {
				return m.OOB(t671, d_A[1], 1, "A", 8, 47)
			}
			t672 := b_A + int((t670)*d_A[1]+t671)
			r_A_r3 := m.LoadF(t672)
			t673 := i_i1
			if t673 < 0 || t673 >= d_B[0] {
				return m.OOB(t673, d_B[0], 0, "B", 8, 59)
			}
			t674 := i_i2 - int64(1)
			t675 := t674
			if t675 < 0 || t675 >= d_B[1] {
				return m.OOB(t675, d_B[1], 1, "B", 8, 59)
			}
			t676 := b_B + int((t673)*d_B[1]+t675)
			r_B_r3 := m.LoadF(t676)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t677 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t678 := float64(t677 / r_B_r3)
			t679 := float64(r_B_r2 - t678)
			r_B_w := t679
			t680 := i_i1
			if t680 < 0 || t680 >= d_B[0] {
				return m.OOB(t680, d_B[0], 0, "B", 8, 11)
			}
			t681 := i_i2
			if t681 < 0 || t681 >= d_B[1] {
				return m.OOB(t681, d_B[1], 1, "B", 8, 11)
			}
			t682 := b_B + int((t680)*d_B[1]+t681)
			m.StoreF(t682, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n14(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t683 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t683; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t684 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t684; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t685 := i_i1
			if t685 < 0 || t685 >= d_X[0] {
				return m.OOB(t685, d_X[0], 0, "X", 7, 23)
			}
			t686 := i_i2
			if t686 < 0 || t686 >= d_X[1] {
				return m.OOB(t686, d_X[1], 1, "X", 7, 23)
			}
			t687 := b_X + int((t685)*d_X[1]+t686)
			r_X_r := m.LoadF(t687)
			t688 := i_i1
			if t688 < 0 || t688 >= d_X[0] {
				return m.OOB(t688, d_X[0], 0, "X", 7, 35)
			}
			t689 := i_i2 - int64(1)
			t690 := t689
			if t690 < 0 || t690 >= d_X[1] {
				return m.OOB(t690, d_X[1], 1, "X", 7, 35)
			}
			t691 := b_X + int((t688)*d_X[1]+t690)
			r_X_r2 := m.LoadF(t691)
			t692 := i_i1
			if t692 < 0 || t692 >= d_A[0] {
				return m.OOB(t692, d_A[0], 0, "A", 7, 51)
			}
			t693 := i_i2
			if t693 < 0 || t693 >= d_A[1] {
				return m.OOB(t693, d_A[1], 1, "A", 7, 51)
			}
			t694 := b_A + int((t692)*d_A[1]+t693)
			r_A_r := m.LoadF(t694)
			t695 := i_i1
			if t695 < 0 || t695 >= d_B[0] {
				return m.OOB(t695, d_B[0], 0, "B", 7, 63)
			}
			t696 := i_i2 - int64(1)
			t697 := t696
			if t697 < 0 || t697 >= d_B[1] {
				return m.OOB(t697, d_B[1], 1, "B", 7, 63)
			}
			t698 := b_B + int((t695)*d_B[1]+t697)
			r_B_r := m.LoadF(t698)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t699 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t700 := float64(t699 / r_B_r)
			t701 := float64(r_X_r - t700)
			r_X_w := t701
			t702 := i_i1
			if t702 < 0 || t702 >= d_X[0] {
				return m.OOB(t702, d_X[0], 0, "X", 7, 11)
			}
			t703 := i_i2
			if t703 < 0 || t703 >= d_X[1] {
				return m.OOB(t703, d_X[1], 1, "X", 7, 11)
			}
			t704 := b_X + int((t702)*d_X[1]+t703)
			m.StoreF(t704, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t705 := i_i1
			if t705 < 0 || t705 >= d_B[0] {
				return m.OOB(t705, d_B[0], 0, "B", 8, 23)
			}
			t706 := i_i2
			if t706 < 0 || t706 >= d_B[1] {
				return m.OOB(t706, d_B[1], 1, "B", 8, 23)
			}
			t707 := b_B + int((t705)*d_B[1]+t706)
			r_B_r2 := m.LoadF(t707)
			t708 := i_i1
			if t708 < 0 || t708 >= d_A[0] {
				return m.OOB(t708, d_A[0], 0, "A", 8, 35)
			}
			t709 := i_i2
			if t709 < 0 || t709 >= d_A[1] {
				return m.OOB(t709, d_A[1], 1, "A", 8, 35)
			}
			t710 := b_A + int((t708)*d_A[1]+t709)
			r_A_r2 := m.LoadF(t710)
			t711 := i_i1
			if t711 < 0 || t711 >= d_A[0] {
				return m.OOB(t711, d_A[0], 0, "A", 8, 47)
			}
			t712 := i_i2
			if t712 < 0 || t712 >= d_A[1] {
				return m.OOB(t712, d_A[1], 1, "A", 8, 47)
			}
			t713 := b_A + int((t711)*d_A[1]+t712)
			r_A_r3 := m.LoadF(t713)
			t714 := i_i1
			if t714 < 0 || t714 >= d_B[0] {
				return m.OOB(t714, d_B[0], 0, "B", 8, 59)
			}
			t715 := i_i2 - int64(1)
			t716 := t715
			if t716 < 0 || t716 >= d_B[1] {
				return m.OOB(t716, d_B[1], 1, "B", 8, 59)
			}
			t717 := b_B + int((t714)*d_B[1]+t716)
			r_B_r3 := m.LoadF(t717)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t718 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t719 := float64(t718 / r_B_r3)
			t720 := float64(r_B_r2 - t719)
			r_B_w := t720
			t721 := i_i1
			if t721 < 0 || t721 >= d_B[0] {
				return m.OOB(t721, d_B[0], 0, "B", 8, 11)
			}
			t722 := i_i2
			if t722 < 0 || t722 >= d_B[1] {
				return m.OOB(t722, d_B[1], 1, "B", 8, 11)
			}
			t723 := b_B + int((t721)*d_B[1]+t722)
			m.StoreF(t723, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t724 := p_n - int64(2)
		t725 := codegen.MaxI(int64(1), t724)
		t726 := p_n - int64(2)
		for i_i2 := t725; i_i2 <= t726; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t727 := i_i1
			if t727 < 0 || t727 >= d_X[0] {
				return m.OOB(t727, d_X[0], 0, "X", 7, 23)
			}
			t728 := i_i2
			if t728 < 0 || t728 >= d_X[1] {
				return m.OOB(t728, d_X[1], 1, "X", 7, 23)
			}
			t729 := b_X + int((t727)*d_X[1]+t728)
			r_X_r := m.LoadF(t729)
			t730 := i_i1
			if t730 < 0 || t730 >= d_X[0] {
				return m.OOB(t730, d_X[0], 0, "X", 7, 35)
			}
			t731 := i_i2 - int64(1)
			t732 := t731
			if t732 < 0 || t732 >= d_X[1] {
				return m.OOB(t732, d_X[1], 1, "X", 7, 35)
			}
			t733 := b_X + int((t730)*d_X[1]+t732)
			r_X_r2 := m.LoadF(t733)
			t734 := i_i1
			if t734 < 0 || t734 >= d_A[0] {
				return m.OOB(t734, d_A[0], 0, "A", 7, 51)
			}
			t735 := i_i2
			if t735 < 0 || t735 >= d_A[1] {
				return m.OOB(t735, d_A[1], 1, "A", 7, 51)
			}
			t736 := b_A + int((t734)*d_A[1]+t735)
			r_A_r := m.LoadF(t736)
			t737 := i_i1
			if t737 < 0 || t737 >= d_B[0] {
				return m.OOB(t737, d_B[0], 0, "B", 7, 63)
			}
			t738 := i_i2 - int64(1)
			t739 := t738
			if t739 < 0 || t739 >= d_B[1] {
				return m.OOB(t739, d_B[1], 1, "B", 7, 63)
			}
			t740 := b_B + int((t737)*d_B[1]+t739)
			r_B_r := m.LoadF(t740)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t741 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t742 := float64(t741 / r_B_r)
			t743 := float64(r_X_r - t742)
			r_X_w := t743
			t744 := i_i1
			if t744 < 0 || t744 >= d_X[0] {
				return m.OOB(t744, d_X[0], 0, "X", 7, 11)
			}
			t745 := i_i2
			if t745 < 0 || t745 >= d_X[1] {
				return m.OOB(t745, d_X[1], 1, "X", 7, 11)
			}
			t746 := b_X + int((t744)*d_X[1]+t745)
			m.StoreF(t746, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t747 := i_i1
			if t747 < 0 || t747 >= d_B[0] {
				return m.OOB(t747, d_B[0], 0, "B", 8, 23)
			}
			t748 := i_i2
			if t748 < 0 || t748 >= d_B[1] {
				return m.OOB(t748, d_B[1], 1, "B", 8, 23)
			}
			t749 := b_B + int((t747)*d_B[1]+t748)
			r_B_r2 := m.LoadF(t749)
			t750 := i_i1
			if t750 < 0 || t750 >= d_A[0] {
				return m.OOB(t750, d_A[0], 0, "A", 8, 35)
			}
			t751 := i_i2
			if t751 < 0 || t751 >= d_A[1] {
				return m.OOB(t751, d_A[1], 1, "A", 8, 35)
			}
			t752 := b_A + int((t750)*d_A[1]+t751)
			r_A_r2 := m.LoadF(t752)
			t753 := i_i1
			if t753 < 0 || t753 >= d_A[0] {
				return m.OOB(t753, d_A[0], 0, "A", 8, 47)
			}
			t754 := i_i2
			if t754 < 0 || t754 >= d_A[1] {
				return m.OOB(t754, d_A[1], 1, "A", 8, 47)
			}
			t755 := b_A + int((t753)*d_A[1]+t754)
			r_A_r3 := m.LoadF(t755)
			t756 := i_i1
			if t756 < 0 || t756 >= d_B[0] {
				return m.OOB(t756, d_B[0], 0, "B", 8, 59)
			}
			t757 := i_i2 - int64(1)
			t758 := t757
			if t758 < 0 || t758 >= d_B[1] {
				return m.OOB(t758, d_B[1], 1, "B", 8, 59)
			}
			t759 := b_B + int((t756)*d_B[1]+t758)
			r_B_r3 := m.LoadF(t759)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t760 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t761 := float64(t760 / r_B_r3)
			t762 := float64(r_B_r2 - t761)
			r_B_w := t762
			t763 := i_i1
			if t763 < 0 || t763 >= d_B[0] {
				return m.OOB(t763, d_B[0], 0, "B", 8, 11)
			}
			t764 := i_i2
			if t764 < 0 || t764 >= d_B[1] {
				return m.OOB(t764, d_B[1], 1, "B", 8, 11)
			}
			t765 := b_B + int((t763)*d_B[1]+t764)
			m.StoreF(t765, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t766 := p_n - int64(1)
		t767 := codegen.MaxI(int64(1), t766)
		t768 := p_n - int64(1)
		for i_i2 := t767; i_i2 <= t768; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t769 := i_i1
			if t769 < 0 || t769 >= d_X[0] {
				return m.OOB(t769, d_X[0], 0, "X", 7, 23)
			}
			t770 := i_i2
			if t770 < 0 || t770 >= d_X[1] {
				return m.OOB(t770, d_X[1], 1, "X", 7, 23)
			}
			t771 := b_X + int((t769)*d_X[1]+t770)
			r_X_r := m.LoadF(t771)
			t772 := i_i1
			if t772 < 0 || t772 >= d_X[0] {
				return m.OOB(t772, d_X[0], 0, "X", 7, 35)
			}
			t773 := i_i2 - int64(1)
			t774 := t773
			if t774 < 0 || t774 >= d_X[1] {
				return m.OOB(t774, d_X[1], 1, "X", 7, 35)
			}
			t775 := b_X + int((t772)*d_X[1]+t774)
			r_X_r2 := m.LoadF(t775)
			t776 := i_i1
			if t776 < 0 || t776 >= d_A[0] {
				return m.OOB(t776, d_A[0], 0, "A", 7, 51)
			}
			t777 := i_i2
			if t777 < 0 || t777 >= d_A[1] {
				return m.OOB(t777, d_A[1], 1, "A", 7, 51)
			}
			t778 := b_A + int((t776)*d_A[1]+t777)
			r_A_r := m.LoadF(t778)
			t779 := i_i1
			if t779 < 0 || t779 >= d_B[0] {
				return m.OOB(t779, d_B[0], 0, "B", 7, 63)
			}
			t780 := i_i2 - int64(1)
			t781 := t780
			if t781 < 0 || t781 >= d_B[1] {
				return m.OOB(t781, d_B[1], 1, "B", 7, 63)
			}
			t782 := b_B + int((t779)*d_B[1]+t781)
			r_B_r := m.LoadF(t782)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t783 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t784 := float64(t783 / r_B_r)
			t785 := float64(r_X_r - t784)
			r_X_w := t785
			t786 := i_i1
			if t786 < 0 || t786 >= d_X[0] {
				return m.OOB(t786, d_X[0], 0, "X", 7, 11)
			}
			t787 := i_i2
			if t787 < 0 || t787 >= d_X[1] {
				return m.OOB(t787, d_X[1], 1, "X", 7, 11)
			}
			t788 := b_X + int((t786)*d_X[1]+t787)
			m.StoreF(t788, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t789 := i_i1
			if t789 < 0 || t789 >= d_B[0] {
				return m.OOB(t789, d_B[0], 0, "B", 8, 23)
			}
			t790 := i_i2
			if t790 < 0 || t790 >= d_B[1] {
				return m.OOB(t790, d_B[1], 1, "B", 8, 23)
			}
			t791 := b_B + int((t789)*d_B[1]+t790)
			r_B_r2 := m.LoadF(t791)
			t792 := i_i1
			if t792 < 0 || t792 >= d_A[0] {
				return m.OOB(t792, d_A[0], 0, "A", 8, 35)
			}
			t793 := i_i2
			if t793 < 0 || t793 >= d_A[1] {
				return m.OOB(t793, d_A[1], 1, "A", 8, 35)
			}
			t794 := b_A + int((t792)*d_A[1]+t793)
			r_A_r2 := m.LoadF(t794)
			t795 := i_i1
			if t795 < 0 || t795 >= d_A[0] {
				return m.OOB(t795, d_A[0], 0, "A", 8, 47)
			}
			t796 := i_i2
			if t796 < 0 || t796 >= d_A[1] {
				return m.OOB(t796, d_A[1], 1, "A", 8, 47)
			}
			t797 := b_A + int((t795)*d_A[1]+t796)
			r_A_r3 := m.LoadF(t797)
			t798 := i_i1
			if t798 < 0 || t798 >= d_B[0] {
				return m.OOB(t798, d_B[0], 0, "B", 8, 59)
			}
			t799 := i_i2 - int64(1)
			t800 := t799
			if t800 < 0 || t800 >= d_B[1] {
				return m.OOB(t800, d_B[1], 1, "B", 8, 59)
			}
			t801 := b_B + int((t798)*d_B[1]+t800)
			r_B_r3 := m.LoadF(t801)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t802 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t803 := float64(t802 / r_B_r3)
			t804 := float64(r_B_r2 - t803)
			r_B_w := t804
			t805 := i_i1
			if t805 < 0 || t805 >= d_B[0] {
				return m.OOB(t805, d_B[0], 0, "B", 8, 11)
			}
			t806 := i_i2
			if t806 < 0 || t806 >= d_B[1] {
				return m.OOB(t806, d_B[1], 1, "B", 8, 11)
			}
			t807 := b_B + int((t805)*d_B[1]+t806)
			m.StoreF(t807, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n15(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t808 := p_n - int64(1)
	t809 := codegen.MaxI(int64(1), t808)
	t810 := p_n - int64(1)
	for i_i1 := t809; i_i1 <= t810; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t811 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t811; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t812 := i_i1
			if t812 < 0 || t812 >= d_X[0] {
				return m.OOB(t812, d_X[0], 0, "X", 7, 23)
			}
			t813 := i_i2
			if t813 < 0 || t813 >= d_X[1] {
				return m.OOB(t813, d_X[1], 1, "X", 7, 23)
			}
			t814 := b_X + int((t812)*d_X[1]+t813)
			r_X_r := m.LoadF(t814)
			t815 := i_i1
			if t815 < 0 || t815 >= d_X[0] {
				return m.OOB(t815, d_X[0], 0, "X", 7, 35)
			}
			t816 := i_i2 - int64(1)
			t817 := t816
			if t817 < 0 || t817 >= d_X[1] {
				return m.OOB(t817, d_X[1], 1, "X", 7, 35)
			}
			t818 := b_X + int((t815)*d_X[1]+t817)
			r_X_r2 := m.LoadF(t818)
			t819 := i_i1
			if t819 < 0 || t819 >= d_A[0] {
				return m.OOB(t819, d_A[0], 0, "A", 7, 51)
			}
			t820 := i_i2
			if t820 < 0 || t820 >= d_A[1] {
				return m.OOB(t820, d_A[1], 1, "A", 7, 51)
			}
			t821 := b_A + int((t819)*d_A[1]+t820)
			r_A_r := m.LoadF(t821)
			t822 := i_i1
			if t822 < 0 || t822 >= d_B[0] {
				return m.OOB(t822, d_B[0], 0, "B", 7, 63)
			}
			t823 := i_i2 - int64(1)
			t824 := t823
			if t824 < 0 || t824 >= d_B[1] {
				return m.OOB(t824, d_B[1], 1, "B", 7, 63)
			}
			t825 := b_B + int((t822)*d_B[1]+t824)
			r_B_r := m.LoadF(t825)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t826 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t827 := float64(t826 / r_B_r)
			t828 := float64(r_X_r - t827)
			r_X_w := t828
			t829 := i_i1
			if t829 < 0 || t829 >= d_X[0] {
				return m.OOB(t829, d_X[0], 0, "X", 7, 11)
			}
			t830 := i_i2
			if t830 < 0 || t830 >= d_X[1] {
				return m.OOB(t830, d_X[1], 1, "X", 7, 11)
			}
			t831 := b_X + int((t829)*d_X[1]+t830)
			m.StoreF(t831, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t832 := i_i1
			if t832 < 0 || t832 >= d_B[0] {
				return m.OOB(t832, d_B[0], 0, "B", 8, 23)
			}
			t833 := i_i2
			if t833 < 0 || t833 >= d_B[1] {
				return m.OOB(t833, d_B[1], 1, "B", 8, 23)
			}
			t834 := b_B + int((t832)*d_B[1]+t833)
			r_B_r2 := m.LoadF(t834)
			t835 := i_i1
			if t835 < 0 || t835 >= d_A[0] {
				return m.OOB(t835, d_A[0], 0, "A", 8, 35)
			}
			t836 := i_i2
			if t836 < 0 || t836 >= d_A[1] {
				return m.OOB(t836, d_A[1], 1, "A", 8, 35)
			}
			t837 := b_A + int((t835)*d_A[1]+t836)
			r_A_r2 := m.LoadF(t837)
			t838 := i_i1
			if t838 < 0 || t838 >= d_A[0] {
				return m.OOB(t838, d_A[0], 0, "A", 8, 47)
			}
			t839 := i_i2
			if t839 < 0 || t839 >= d_A[1] {
				return m.OOB(t839, d_A[1], 1, "A", 8, 47)
			}
			t840 := b_A + int((t838)*d_A[1]+t839)
			r_A_r3 := m.LoadF(t840)
			t841 := i_i1
			if t841 < 0 || t841 >= d_B[0] {
				return m.OOB(t841, d_B[0], 0, "B", 8, 59)
			}
			t842 := i_i2 - int64(1)
			t843 := t842
			if t843 < 0 || t843 >= d_B[1] {
				return m.OOB(t843, d_B[1], 1, "B", 8, 59)
			}
			t844 := b_B + int((t841)*d_B[1]+t843)
			r_B_r3 := m.LoadF(t844)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t845 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t846 := float64(t845 / r_B_r3)
			t847 := float64(r_B_r2 - t846)
			r_B_w := t847
			t848 := i_i1
			if t848 < 0 || t848 >= d_B[0] {
				return m.OOB(t848, d_B[0], 0, "B", 8, 11)
			}
			t849 := i_i2
			if t849 < 0 || t849 >= d_B[1] {
				return m.OOB(t849, d_B[1], 1, "B", 8, 11)
			}
			t850 := b_B + int((t848)*d_B[1]+t849)
			m.StoreF(t850, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t851 := p_n - int64(2)
		t852 := codegen.MaxI(int64(1), t851)
		t853 := p_n - int64(2)
		for i_i2 := t852; i_i2 <= t853; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t854 := i_i1
			if t854 < 0 || t854 >= d_X[0] {
				return m.OOB(t854, d_X[0], 0, "X", 7, 23)
			}
			t855 := i_i2
			if t855 < 0 || t855 >= d_X[1] {
				return m.OOB(t855, d_X[1], 1, "X", 7, 23)
			}
			t856 := b_X + int((t854)*d_X[1]+t855)
			r_X_r := m.LoadF(t856)
			t857 := i_i1
			if t857 < 0 || t857 >= d_X[0] {
				return m.OOB(t857, d_X[0], 0, "X", 7, 35)
			}
			t858 := i_i2 - int64(1)
			t859 := t858
			if t859 < 0 || t859 >= d_X[1] {
				return m.OOB(t859, d_X[1], 1, "X", 7, 35)
			}
			t860 := b_X + int((t857)*d_X[1]+t859)
			r_X_r2 := m.LoadF(t860)
			t861 := i_i1
			if t861 < 0 || t861 >= d_A[0] {
				return m.OOB(t861, d_A[0], 0, "A", 7, 51)
			}
			t862 := i_i2
			if t862 < 0 || t862 >= d_A[1] {
				return m.OOB(t862, d_A[1], 1, "A", 7, 51)
			}
			t863 := b_A + int((t861)*d_A[1]+t862)
			r_A_r := m.LoadF(t863)
			t864 := i_i1
			if t864 < 0 || t864 >= d_B[0] {
				return m.OOB(t864, d_B[0], 0, "B", 7, 63)
			}
			t865 := i_i2 - int64(1)
			t866 := t865
			if t866 < 0 || t866 >= d_B[1] {
				return m.OOB(t866, d_B[1], 1, "B", 7, 63)
			}
			t867 := b_B + int((t864)*d_B[1]+t866)
			r_B_r := m.LoadF(t867)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t868 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t869 := float64(t868 / r_B_r)
			t870 := float64(r_X_r - t869)
			r_X_w := t870
			t871 := i_i1
			if t871 < 0 || t871 >= d_X[0] {
				return m.OOB(t871, d_X[0], 0, "X", 7, 11)
			}
			t872 := i_i2
			if t872 < 0 || t872 >= d_X[1] {
				return m.OOB(t872, d_X[1], 1, "X", 7, 11)
			}
			t873 := b_X + int((t871)*d_X[1]+t872)
			m.StoreF(t873, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t874 := i_i1
			if t874 < 0 || t874 >= d_B[0] {
				return m.OOB(t874, d_B[0], 0, "B", 8, 23)
			}
			t875 := i_i2
			if t875 < 0 || t875 >= d_B[1] {
				return m.OOB(t875, d_B[1], 1, "B", 8, 23)
			}
			t876 := b_B + int((t874)*d_B[1]+t875)
			r_B_r2 := m.LoadF(t876)
			t877 := i_i1
			if t877 < 0 || t877 >= d_A[0] {
				return m.OOB(t877, d_A[0], 0, "A", 8, 35)
			}
			t878 := i_i2
			if t878 < 0 || t878 >= d_A[1] {
				return m.OOB(t878, d_A[1], 1, "A", 8, 35)
			}
			t879 := b_A + int((t877)*d_A[1]+t878)
			r_A_r2 := m.LoadF(t879)
			t880 := i_i1
			if t880 < 0 || t880 >= d_A[0] {
				return m.OOB(t880, d_A[0], 0, "A", 8, 47)
			}
			t881 := i_i2
			if t881 < 0 || t881 >= d_A[1] {
				return m.OOB(t881, d_A[1], 1, "A", 8, 47)
			}
			t882 := b_A + int((t880)*d_A[1]+t881)
			r_A_r3 := m.LoadF(t882)
			t883 := i_i1
			if t883 < 0 || t883 >= d_B[0] {
				return m.OOB(t883, d_B[0], 0, "B", 8, 59)
			}
			t884 := i_i2 - int64(1)
			t885 := t884
			if t885 < 0 || t885 >= d_B[1] {
				return m.OOB(t885, d_B[1], 1, "B", 8, 59)
			}
			t886 := b_B + int((t883)*d_B[1]+t885)
			r_B_r3 := m.LoadF(t886)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t887 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t888 := float64(t887 / r_B_r3)
			t889 := float64(r_B_r2 - t888)
			r_B_w := t889
			t890 := i_i1
			if t890 < 0 || t890 >= d_B[0] {
				return m.OOB(t890, d_B[0], 0, "B", 8, 11)
			}
			t891 := i_i2
			if t891 < 0 || t891 >= d_B[1] {
				return m.OOB(t891, d_B[1], 1, "B", 8, 11)
			}
			t892 := b_B + int((t890)*d_B[1]+t891)
			m.StoreF(t892, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t893 := p_n - int64(1)
		t894 := codegen.MaxI(int64(1), t893)
		t895 := p_n - int64(1)
		for i_i2 := t894; i_i2 <= t895; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t896 := i_i1
			if t896 < 0 || t896 >= d_X[0] {
				return m.OOB(t896, d_X[0], 0, "X", 7, 23)
			}
			t897 := i_i2
			if t897 < 0 || t897 >= d_X[1] {
				return m.OOB(t897, d_X[1], 1, "X", 7, 23)
			}
			t898 := b_X + int((t896)*d_X[1]+t897)
			r_X_r := m.LoadF(t898)
			t899 := i_i1
			if t899 < 0 || t899 >= d_X[0] {
				return m.OOB(t899, d_X[0], 0, "X", 7, 35)
			}
			t900 := i_i2 - int64(1)
			t901 := t900
			if t901 < 0 || t901 >= d_X[1] {
				return m.OOB(t901, d_X[1], 1, "X", 7, 35)
			}
			t902 := b_X + int((t899)*d_X[1]+t901)
			r_X_r2 := m.LoadF(t902)
			t903 := i_i1
			if t903 < 0 || t903 >= d_A[0] {
				return m.OOB(t903, d_A[0], 0, "A", 7, 51)
			}
			t904 := i_i2
			if t904 < 0 || t904 >= d_A[1] {
				return m.OOB(t904, d_A[1], 1, "A", 7, 51)
			}
			t905 := b_A + int((t903)*d_A[1]+t904)
			r_A_r := m.LoadF(t905)
			t906 := i_i1
			if t906 < 0 || t906 >= d_B[0] {
				return m.OOB(t906, d_B[0], 0, "B", 7, 63)
			}
			t907 := i_i2 - int64(1)
			t908 := t907
			if t908 < 0 || t908 >= d_B[1] {
				return m.OOB(t908, d_B[1], 1, "B", 7, 63)
			}
			t909 := b_B + int((t906)*d_B[1]+t908)
			r_B_r := m.LoadF(t909)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t910 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t911 := float64(t910 / r_B_r)
			t912 := float64(r_X_r - t911)
			r_X_w := t912
			t913 := i_i1
			if t913 < 0 || t913 >= d_X[0] {
				return m.OOB(t913, d_X[0], 0, "X", 7, 11)
			}
			t914 := i_i2
			if t914 < 0 || t914 >= d_X[1] {
				return m.OOB(t914, d_X[1], 1, "X", 7, 11)
			}
			t915 := b_X + int((t913)*d_X[1]+t914)
			m.StoreF(t915, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t916 := i_i1
			if t916 < 0 || t916 >= d_B[0] {
				return m.OOB(t916, d_B[0], 0, "B", 8, 23)
			}
			t917 := i_i2
			if t917 < 0 || t917 >= d_B[1] {
				return m.OOB(t917, d_B[1], 1, "B", 8, 23)
			}
			t918 := b_B + int((t916)*d_B[1]+t917)
			r_B_r2 := m.LoadF(t918)
			t919 := i_i1
			if t919 < 0 || t919 >= d_A[0] {
				return m.OOB(t919, d_A[0], 0, "A", 8, 35)
			}
			t920 := i_i2
			if t920 < 0 || t920 >= d_A[1] {
				return m.OOB(t920, d_A[1], 1, "A", 8, 35)
			}
			t921 := b_A + int((t919)*d_A[1]+t920)
			r_A_r2 := m.LoadF(t921)
			t922 := i_i1
			if t922 < 0 || t922 >= d_A[0] {
				return m.OOB(t922, d_A[0], 0, "A", 8, 47)
			}
			t923 := i_i2
			if t923 < 0 || t923 >= d_A[1] {
				return m.OOB(t923, d_A[1], 1, "A", 8, 47)
			}
			t924 := b_A + int((t922)*d_A[1]+t923)
			r_A_r3 := m.LoadF(t924)
			t925 := i_i1
			if t925 < 0 || t925 >= d_B[0] {
				return m.OOB(t925, d_B[0], 0, "B", 8, 59)
			}
			t926 := i_i2 - int64(1)
			t927 := t926
			if t927 < 0 || t927 >= d_B[1] {
				return m.OOB(t927, d_B[1], 1, "B", 8, 59)
			}
			t928 := b_B + int((t925)*d_B[1]+t927)
			r_B_r3 := m.LoadF(t928)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t929 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t930 := float64(t929 / r_B_r3)
			t931 := float64(r_B_r2 - t930)
			r_B_w := t931
			t932 := i_i1
			if t932 < 0 || t932 >= d_B[0] {
				return m.OOB(t932, d_B[0], 0, "B", 8, 11)
			}
			t933 := i_i2
			if t933 < 0 || t933 >= d_B[1] {
				return m.OOB(t933, d_B[1], 1, "B", 8, 11)
			}
			t934 := b_B + int((t932)*d_B[1]+t933)
			m.StoreF(t934, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n16(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t935 := p_n - int64(3)
	t936 := codegen.MinI(t935, int64(0))
	for i_i1 := int64(0); i_i1 <= t936; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t937 := i_i1
		if t937 < 0 || t937 >= d_X[0] {
			return m.OOB(t937, d_X[0], 0, "X", 12, 24)
		}
		t938 := p_n - int64(1)
		t939 := t938
		if t939 < 0 || t939 >= d_X[1] {
			return m.OOB(t939, d_X[1], 1, "X", 12, 24)
		}
		t940 := b_X + int((t937)*d_X[1]+t939)
		r_X_r3 := m.LoadF(t940)
		t941 := i_i1
		if t941 < 0 || t941 >= d_B[0] {
			return m.OOB(t941, d_B[0], 0, "B", 12, 39)
		}
		t942 := p_n - int64(1)
		t943 := t942
		if t943 < 0 || t943 >= d_B[1] {
			return m.OOB(t943, d_B[1], 1, "B", 12, 39)
		}
		t944 := b_B + int((t941)*d_B[1]+t943)
		r_B_r4 := m.LoadF(t944)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t945 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t945
		t946 := i_i1
		if t946 < 0 || t946 >= d_X[0] {
			return m.OOB(t946, d_X[0], 0, "X", 12, 9)
		}
		t947 := p_n - int64(1)
		t948 := t947
		if t948 < 0 || t948 >= d_X[1] {
			return m.OOB(t948, d_X[1], 1, "X", 12, 9)
		}
		t949 := b_X + int((t946)*d_X[1]+t948)
		m.StoreF(t949, r_X_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n17(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t950 := p_n - int64(2)
	t951 := codegen.MaxI(int64(0), t950)
	t952 := p_n - int64(2)
	t953 := codegen.MinI(t952, int64(0))
	for i_i1 := t951; i_i1 <= t953; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t954 := i_i1
		if t954 < 0 || t954 >= d_X[0] {
			return m.OOB(t954, d_X[0], 0, "X", 12, 24)
		}
		t955 := p_n - int64(1)
		t956 := t955
		if t956 < 0 || t956 >= d_X[1] {
			return m.OOB(t956, d_X[1], 1, "X", 12, 24)
		}
		t957 := b_X + int((t954)*d_X[1]+t956)
		r_X_r3 := m.LoadF(t957)
		t958 := i_i1
		if t958 < 0 || t958 >= d_B[0] {
			return m.OOB(t958, d_B[0], 0, "B", 12, 39)
		}
		t959 := p_n - int64(1)
		t960 := t959
		if t960 < 0 || t960 >= d_B[1] {
			return m.OOB(t960, d_B[1], 1, "B", 12, 39)
		}
		t961 := b_B + int((t958)*d_B[1]+t960)
		r_B_r4 := m.LoadF(t961)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t962 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t962
		t963 := i_i1
		if t963 < 0 || t963 >= d_X[0] {
			return m.OOB(t963, d_X[0], 0, "X", 12, 9)
		}
		t964 := p_n - int64(1)
		t965 := t964
		if t965 < 0 || t965 >= d_X[1] {
			return m.OOB(t965, d_X[1], 1, "X", 12, 9)
		}
		t966 := b_X + int((t963)*d_X[1]+t965)
		m.StoreF(t966, r_X_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n18(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t967 := p_n - int64(1)
	t968 := codegen.MaxI(int64(0), t967)
	t969 := p_n - int64(1)
	t970 := codegen.MinI(t969, int64(0))
	for i_i1 := t968; i_i1 <= t970; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t971 := i_i1
		if t971 < 0 || t971 >= d_X[0] {
			return m.OOB(t971, d_X[0], 0, "X", 12, 24)
		}
		t972 := p_n - int64(1)
		t973 := t972
		if t973 < 0 || t973 >= d_X[1] {
			return m.OOB(t973, d_X[1], 1, "X", 12, 24)
		}
		t974 := b_X + int((t971)*d_X[1]+t973)
		r_X_r3 := m.LoadF(t974)
		t975 := i_i1
		if t975 < 0 || t975 >= d_B[0] {
			return m.OOB(t975, d_B[0], 0, "B", 12, 39)
		}
		t976 := p_n - int64(1)
		t977 := t976
		if t977 < 0 || t977 >= d_B[1] {
			return m.OOB(t977, d_B[1], 1, "B", 12, 39)
		}
		t978 := b_B + int((t975)*d_B[1]+t977)
		r_B_r4 := m.LoadF(t978)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t979 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t979
		t980 := i_i1
		if t980 < 0 || t980 >= d_X[0] {
			return m.OOB(t980, d_X[0], 0, "X", 12, 9)
		}
		t981 := p_n - int64(1)
		t982 := t981
		if t982 < 0 || t982 >= d_X[1] {
			return m.OOB(t982, d_X[1], 1, "X", 12, 9)
		}
		t983 := b_X + int((t980)*d_X[1]+t982)
		m.StoreF(t983, r_X_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n19(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t984 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t984; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t985 := i_i1
		if t985 < 0 || t985 >= d_X[0] {
			return m.OOB(t985, d_X[0], 0, "X", 12, 24)
		}
		t986 := p_n - int64(1)
		t987 := t986
		if t987 < 0 || t987 >= d_X[1] {
			return m.OOB(t987, d_X[1], 1, "X", 12, 24)
		}
		t988 := b_X + int((t985)*d_X[1]+t987)
		r_X_r3 := m.LoadF(t988)
		t989 := i_i1
		if t989 < 0 || t989 >= d_B[0] {
			return m.OOB(t989, d_B[0], 0, "B", 12, 39)
		}
		t990 := p_n - int64(1)
		t991 := t990
		if t991 < 0 || t991 >= d_B[1] {
			return m.OOB(t991, d_B[1], 1, "B", 12, 39)
		}
		t992 := b_B + int((t989)*d_B[1]+t991)
		r_B_r4 := m.LoadF(t992)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t993 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t993
		t994 := i_i1
		if t994 < 0 || t994 >= d_X[0] {
			return m.OOB(t994, d_X[0], 0, "X", 12, 9)
		}
		t995 := p_n - int64(1)
		t996 := t995
		if t996 < 0 || t996 >= d_X[1] {
			return m.OOB(t996, d_X[1], 1, "X", 12, 9)
		}
		t997 := b_X + int((t994)*d_X[1]+t996)
		m.StoreF(t997, r_X_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n20(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t998 := p_n - int64(1)
	t999 := codegen.MaxI(int64(1), t998)
	t1000 := p_n - int64(1)
	for i_i1 := t999; i_i1 <= t1000; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1001 := i_i1
		if t1001 < 0 || t1001 >= d_X[0] {
			return m.OOB(t1001, d_X[0], 0, "X", 12, 24)
		}
		t1002 := p_n - int64(1)
		t1003 := t1002
		if t1003 < 0 || t1003 >= d_X[1] {
			return m.OOB(t1003, d_X[1], 1, "X", 12, 24)
		}
		t1004 := b_X + int((t1001)*d_X[1]+t1003)
		r_X_r3 := m.LoadF(t1004)
		t1005 := i_i1
		if t1005 < 0 || t1005 >= d_B[0] {
			return m.OOB(t1005, d_B[0], 0, "B", 12, 39)
		}
		t1006 := p_n - int64(1)
		t1007 := t1006
		if t1007 < 0 || t1007 >= d_B[1] {
			return m.OOB(t1007, d_B[1], 1, "B", 12, 39)
		}
		t1008 := b_B + int((t1005)*d_B[1]+t1007)
		r_B_r4 := m.LoadF(t1008)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t1009 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t1009
		t1010 := i_i1
		if t1010 < 0 || t1010 >= d_X[0] {
			return m.OOB(t1010, d_X[0], 0, "X", 12, 9)
		}
		t1011 := p_n - int64(1)
		t1012 := t1011
		if t1012 < 0 || t1012 >= d_X[1] {
			return m.OOB(t1012, d_X[1], 1, "X", 12, 9)
		}
		t1013 := b_X + int((t1010)*d_X[1]+t1012)
		m.StoreF(t1013, r_X_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n21(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1014 := p_n - int64(1)
	t1015 := codegen.MinI(t1014, int64(0))
	for i_i1 := int64(0); i_i1 <= t1015; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1016 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t1016; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t1017 := i_i1
			if t1017 < 0 || t1017 >= d_X[0] {
				return m.OOB(t1017, d_X[0], 0, "X", 16, 32)
			}
			t1018 := p_n - int64(2)
			t1019 := t1018 - i_i2
			t1020 := t1019
			if t1020 < 0 || t1020 >= d_X[1] {
				return m.OOB(t1020, d_X[1], 1, "X", 16, 32)
			}
			t1021 := b_X + int((t1017)*d_X[1]+t1020)
			r_X_r4 := m.LoadF(t1021)
			t1022 := i_i1
			if t1022 < 0 || t1022 >= d_X[0] {
				return m.OOB(t1022, d_X[0], 0, "X", 16, 52)
			}
			t1023 := p_n - int64(2)
			t1024 := t1023 - i_i2
			t1025 := t1024 - int64(1)
			t1026 := t1025
			if t1026 < 0 || t1026 >= d_X[1] {
				return m.OOB(t1026, d_X[1], 1, "X", 16, 52)
			}
			t1027 := b_X + int((t1022)*d_X[1]+t1026)
			r_X_r5 := m.LoadF(t1027)
			t1028 := i_i1
			if t1028 < 0 || t1028 >= d_A[0] {
				return m.OOB(t1028, d_A[0], 0, "A", 16, 76)
			}
			t1029 := p_n - i_i2
			t1030 := t1029 - int64(3)
			t1031 := t1030
			if t1031 < 0 || t1031 >= d_A[1] {
				return m.OOB(t1031, d_A[1], 1, "A", 16, 76)
			}
			t1032 := b_A + int((t1028)*d_A[1]+t1031)
			r_A_r4 := m.LoadF(t1032)
			t1033 := i_i1
			if t1033 < 0 || t1033 >= d_B[0] {
				return m.OOB(t1033, d_B[0], 0, "B", 16, 97)
			}
			t1034 := p_n - int64(3)
			t1035 := t1034 - i_i2
			t1036 := t1035
			if t1036 < 0 || t1036 >= d_B[1] {
				return m.OOB(t1036, d_B[1], 1, "B", 16, 97)
			}
			t1037 := b_B + int((t1033)*d_B[1]+t1036)
			r_B_r5 := m.LoadF(t1037)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t1038 := float64(r_X_r5 * r_A_r4)
			t1039 := float64(r_X_r4 - t1038)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t1040 := float64(t1039 / r_B_r5)
			r_X_w3 := t1040
			t1041 := i_i1
			if t1041 < 0 || t1041 >= d_X[0] {
				return m.OOB(t1041, d_X[0], 0, "X", 16, 11)
			}
			t1042 := p_n - i_i2
			t1043 := t1042 - int64(2)
			t1044 := t1043
			if t1044 < 0 || t1044 >= d_X[1] {
				return m.OOB(t1044, d_X[1], 1, "X", 16, 11)
			}
			t1045 := b_X + int((t1041)*d_X[1]+t1044)
			m.StoreF(t1045, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n22(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1046 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t1046; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1047 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t1047; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t1048 := i_i1
			if t1048 < 0 || t1048 >= d_X[0] {
				return m.OOB(t1048, d_X[0], 0, "X", 16, 32)
			}
			t1049 := p_n - int64(2)
			t1050 := t1049 - i_i2
			t1051 := t1050
			if t1051 < 0 || t1051 >= d_X[1] {
				return m.OOB(t1051, d_X[1], 1, "X", 16, 32)
			}
			t1052 := b_X + int((t1048)*d_X[1]+t1051)
			r_X_r4 := m.LoadF(t1052)
			t1053 := i_i1
			if t1053 < 0 || t1053 >= d_X[0] {
				return m.OOB(t1053, d_X[0], 0, "X", 16, 52)
			}
			t1054 := p_n - int64(2)
			t1055 := t1054 - i_i2
			t1056 := t1055 - int64(1)
			t1057 := t1056
			if t1057 < 0 || t1057 >= d_X[1] {
				return m.OOB(t1057, d_X[1], 1, "X", 16, 52)
			}
			t1058 := b_X + int((t1053)*d_X[1]+t1057)
			r_X_r5 := m.LoadF(t1058)
			t1059 := i_i1
			if t1059 < 0 || t1059 >= d_A[0] {
				return m.OOB(t1059, d_A[0], 0, "A", 16, 76)
			}
			t1060 := p_n - i_i2
			t1061 := t1060 - int64(3)
			t1062 := t1061
			if t1062 < 0 || t1062 >= d_A[1] {
				return m.OOB(t1062, d_A[1], 1, "A", 16, 76)
			}
			t1063 := b_A + int((t1059)*d_A[1]+t1062)
			r_A_r4 := m.LoadF(t1063)
			t1064 := i_i1
			if t1064 < 0 || t1064 >= d_B[0] {
				return m.OOB(t1064, d_B[0], 0, "B", 16, 97)
			}
			t1065 := p_n - int64(3)
			t1066 := t1065 - i_i2
			t1067 := t1066
			if t1067 < 0 || t1067 >= d_B[1] {
				return m.OOB(t1067, d_B[1], 1, "B", 16, 97)
			}
			t1068 := b_B + int((t1064)*d_B[1]+t1067)
			r_B_r5 := m.LoadF(t1068)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t1069 := float64(r_X_r5 * r_A_r4)
			t1070 := float64(r_X_r4 - t1069)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t1071 := float64(t1070 / r_B_r5)
			r_X_w3 := t1071
			t1072 := i_i1
			if t1072 < 0 || t1072 >= d_X[0] {
				return m.OOB(t1072, d_X[0], 0, "X", 16, 11)
			}
			t1073 := p_n - i_i2
			t1074 := t1073 - int64(2)
			t1075 := t1074
			if t1075 < 0 || t1075 >= d_X[1] {
				return m.OOB(t1075, d_X[1], 1, "X", 16, 11)
			}
			t1076 := b_X + int((t1072)*d_X[1]+t1075)
			m.StoreF(t1076, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n23(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1077 := p_n - int64(1)
	t1078 := codegen.MaxI(int64(1), t1077)
	t1079 := p_n - int64(1)
	for i_i1 := t1078; i_i1 <= t1079; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1080 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t1080; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t1081 := i_i1
			if t1081 < 0 || t1081 >= d_X[0] {
				return m.OOB(t1081, d_X[0], 0, "X", 16, 32)
			}
			t1082 := p_n - int64(2)
			t1083 := t1082 - i_i2
			t1084 := t1083
			if t1084 < 0 || t1084 >= d_X[1] {
				return m.OOB(t1084, d_X[1], 1, "X", 16, 32)
			}
			t1085 := b_X + int((t1081)*d_X[1]+t1084)
			r_X_r4 := m.LoadF(t1085)
			t1086 := i_i1
			if t1086 < 0 || t1086 >= d_X[0] {
				return m.OOB(t1086, d_X[0], 0, "X", 16, 52)
			}
			t1087 := p_n - int64(2)
			t1088 := t1087 - i_i2
			t1089 := t1088 - int64(1)
			t1090 := t1089
			if t1090 < 0 || t1090 >= d_X[1] {
				return m.OOB(t1090, d_X[1], 1, "X", 16, 52)
			}
			t1091 := b_X + int((t1086)*d_X[1]+t1090)
			r_X_r5 := m.LoadF(t1091)
			t1092 := i_i1
			if t1092 < 0 || t1092 >= d_A[0] {
				return m.OOB(t1092, d_A[0], 0, "A", 16, 76)
			}
			t1093 := p_n - i_i2
			t1094 := t1093 - int64(3)
			t1095 := t1094
			if t1095 < 0 || t1095 >= d_A[1] {
				return m.OOB(t1095, d_A[1], 1, "A", 16, 76)
			}
			t1096 := b_A + int((t1092)*d_A[1]+t1095)
			r_A_r4 := m.LoadF(t1096)
			t1097 := i_i1
			if t1097 < 0 || t1097 >= d_B[0] {
				return m.OOB(t1097, d_B[0], 0, "B", 16, 97)
			}
			t1098 := p_n - int64(3)
			t1099 := t1098 - i_i2
			t1100 := t1099
			if t1100 < 0 || t1100 >= d_B[1] {
				return m.OOB(t1100, d_B[1], 1, "B", 16, 97)
			}
			t1101 := b_B + int((t1097)*d_B[1]+t1100)
			r_B_r5 := m.LoadF(t1101)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t1102 := float64(r_X_r5 * r_A_r4)
			t1103 := float64(r_X_r4 - t1102)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t1104 := float64(t1103 / r_B_r5)
			r_X_w3 := t1104
			t1105 := i_i1
			if t1105 < 0 || t1105 >= d_X[0] {
				return m.OOB(t1105, d_X[0], 0, "X", 16, 11)
			}
			t1106 := p_n - i_i2
			t1107 := t1106 - int64(2)
			t1108 := t1107
			if t1108 < 0 || t1108 >= d_X[1] {
				return m.OOB(t1108, d_X[1], 1, "X", 16, 11)
			}
			t1109 := b_X + int((t1105)*d_X[1]+t1108)
			m.StoreF(t1109, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n24(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1110 := p_n - int64(3)
	for i_i1 := int64(1); i_i1 <= t1110; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1111 := p_n - int64(1)
		t1112 := codegen.MinI(t1111, int64(0))
		for i_i2 := int64(0); i_i2 <= t1112; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1113 := i_i1
			if t1113 < 0 || t1113 >= d_X[0] {
				return m.OOB(t1113, d_X[0], 0, "X", 21, 23)
			}
			t1114 := i_i2
			if t1114 < 0 || t1114 >= d_X[1] {
				return m.OOB(t1114, d_X[1], 1, "X", 21, 23)
			}
			t1115 := b_X + int((t1113)*d_X[1]+t1114)
			r_X_r6 := m.LoadF(t1115)
			t1116 := i_i1 - int64(1)
			t1117 := t1116
			if t1117 < 0 || t1117 >= d_X[0] {
				return m.OOB(t1117, d_X[0], 0, "X", 21, 35)
			}
			t1118 := i_i2
			if t1118 < 0 || t1118 >= d_X[1] {
				return m.OOB(t1118, d_X[1], 1, "X", 21, 35)
			}
			t1119 := b_X + int((t1117)*d_X[1]+t1118)
			r_X_r7 := m.LoadF(t1119)
			t1120 := i_i1
			if t1120 < 0 || t1120 >= d_A[0] {
				return m.OOB(t1120, d_A[0], 0, "A", 21, 51)
			}
			t1121 := i_i2
			if t1121 < 0 || t1121 >= d_A[1] {
				return m.OOB(t1121, d_A[1], 1, "A", 21, 51)
			}
			t1122 := b_A + int((t1120)*d_A[1]+t1121)
			r_A_r5 := m.LoadF(t1122)
			t1123 := i_i1 - int64(1)
			t1124 := t1123
			if t1124 < 0 || t1124 >= d_B[0] {
				return m.OOB(t1124, d_B[0], 0, "B", 21, 63)
			}
			t1125 := i_i2
			if t1125 < 0 || t1125 >= d_B[1] {
				return m.OOB(t1125, d_B[1], 1, "B", 21, 63)
			}
			t1126 := b_B + int((t1124)*d_B[1]+t1125)
			r_B_r6 := m.LoadF(t1126)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1127 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1128 := float64(t1127 / r_B_r6)
			t1129 := float64(r_X_r6 - t1128)
			r_X_w4 := t1129
			t1130 := i_i1
			if t1130 < 0 || t1130 >= d_X[0] {
				return m.OOB(t1130, d_X[0], 0, "X", 21, 11)
			}
			t1131 := i_i2
			if t1131 < 0 || t1131 >= d_X[1] {
				return m.OOB(t1131, d_X[1], 1, "X", 21, 11)
			}
			t1132 := b_X + int((t1130)*d_X[1]+t1131)
			m.StoreF(t1132, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t1133 := i_i1
			if t1133 < 0 || t1133 >= d_B[0] {
				return m.OOB(t1133, d_B[0], 0, "B", 22, 23)
			}
			t1134 := i_i2
			if t1134 < 0 || t1134 >= d_B[1] {
				return m.OOB(t1134, d_B[1], 1, "B", 22, 23)
			}
			t1135 := b_B + int((t1133)*d_B[1]+t1134)
			r_B_r7 := m.LoadF(t1135)
			t1136 := i_i1
			if t1136 < 0 || t1136 >= d_A[0] {
				return m.OOB(t1136, d_A[0], 0, "A", 22, 35)
			}
			t1137 := i_i2
			if t1137 < 0 || t1137 >= d_A[1] {
				return m.OOB(t1137, d_A[1], 1, "A", 22, 35)
			}
			t1138 := b_A + int((t1136)*d_A[1]+t1137)
			r_A_r6 := m.LoadF(t1138)
			t1139 := i_i1
			if t1139 < 0 || t1139 >= d_A[0] {
				return m.OOB(t1139, d_A[0], 0, "A", 22, 47)
			}
			t1140 := i_i2
			if t1140 < 0 || t1140 >= d_A[1] {
				return m.OOB(t1140, d_A[1], 1, "A", 22, 47)
			}
			t1141 := b_A + int((t1139)*d_A[1]+t1140)
			r_A_r7 := m.LoadF(t1141)
			t1142 := i_i1 - int64(1)
			t1143 := t1142
			if t1143 < 0 || t1143 >= d_B[0] {
				return m.OOB(t1143, d_B[0], 0, "B", 22, 59)
			}
			t1144 := i_i2
			if t1144 < 0 || t1144 >= d_B[1] {
				return m.OOB(t1144, d_B[1], 1, "B", 22, 59)
			}
			t1145 := b_B + int((t1143)*d_B[1]+t1144)
			r_B_r8 := m.LoadF(t1145)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1146 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1147 := float64(t1146 / r_B_r8)
			t1148 := float64(r_B_r7 - t1147)
			r_B_w2 := t1148
			t1149 := i_i1
			if t1149 < 0 || t1149 >= d_B[0] {
				return m.OOB(t1149, d_B[0], 0, "B", 22, 11)
			}
			t1150 := i_i2
			if t1150 < 0 || t1150 >= d_B[1] {
				return m.OOB(t1150, d_B[1], 1, "B", 22, 11)
			}
			t1151 := b_B + int((t1149)*d_B[1]+t1150)
			m.StoreF(t1151, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1152 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t1152; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1153 := i_i1
			if t1153 < 0 || t1153 >= d_X[0] {
				return m.OOB(t1153, d_X[0], 0, "X", 21, 23)
			}
			t1154 := i_i2
			if t1154 < 0 || t1154 >= d_X[1] {
				return m.OOB(t1154, d_X[1], 1, "X", 21, 23)
			}
			t1155 := b_X + int((t1153)*d_X[1]+t1154)
			r_X_r6 := m.LoadF(t1155)
			t1156 := i_i1 - int64(1)
			t1157 := t1156
			if t1157 < 0 || t1157 >= d_X[0] {
				return m.OOB(t1157, d_X[0], 0, "X", 21, 35)
			}
			t1158 := i_i2
			if t1158 < 0 || t1158 >= d_X[1] {
				return m.OOB(t1158, d_X[1], 1, "X", 21, 35)
			}
			t1159 := b_X + int((t1157)*d_X[1]+t1158)
			r_X_r7 := m.LoadF(t1159)
			t1160 := i_i1
			if t1160 < 0 || t1160 >= d_A[0] {
				return m.OOB(t1160, d_A[0], 0, "A", 21, 51)
			}
			t1161 := i_i2
			if t1161 < 0 || t1161 >= d_A[1] {
				return m.OOB(t1161, d_A[1], 1, "A", 21, 51)
			}
			t1162 := b_A + int((t1160)*d_A[1]+t1161)
			r_A_r5 := m.LoadF(t1162)
			t1163 := i_i1 - int64(1)
			t1164 := t1163
			if t1164 < 0 || t1164 >= d_B[0] {
				return m.OOB(t1164, d_B[0], 0, "B", 21, 63)
			}
			t1165 := i_i2
			if t1165 < 0 || t1165 >= d_B[1] {
				return m.OOB(t1165, d_B[1], 1, "B", 21, 63)
			}
			t1166 := b_B + int((t1164)*d_B[1]+t1165)
			r_B_r6 := m.LoadF(t1166)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1167 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1168 := float64(t1167 / r_B_r6)
			t1169 := float64(r_X_r6 - t1168)
			r_X_w4 := t1169
			t1170 := i_i1
			if t1170 < 0 || t1170 >= d_X[0] {
				return m.OOB(t1170, d_X[0], 0, "X", 21, 11)
			}
			t1171 := i_i2
			if t1171 < 0 || t1171 >= d_X[1] {
				return m.OOB(t1171, d_X[1], 1, "X", 21, 11)
			}
			t1172 := b_X + int((t1170)*d_X[1]+t1171)
			m.StoreF(t1172, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t1173 := i_i1
			if t1173 < 0 || t1173 >= d_B[0] {
				return m.OOB(t1173, d_B[0], 0, "B", 22, 23)
			}
			t1174 := i_i2
			if t1174 < 0 || t1174 >= d_B[1] {
				return m.OOB(t1174, d_B[1], 1, "B", 22, 23)
			}
			t1175 := b_B + int((t1173)*d_B[1]+t1174)
			r_B_r7 := m.LoadF(t1175)
			t1176 := i_i1
			if t1176 < 0 || t1176 >= d_A[0] {
				return m.OOB(t1176, d_A[0], 0, "A", 22, 35)
			}
			t1177 := i_i2
			if t1177 < 0 || t1177 >= d_A[1] {
				return m.OOB(t1177, d_A[1], 1, "A", 22, 35)
			}
			t1178 := b_A + int((t1176)*d_A[1]+t1177)
			r_A_r6 := m.LoadF(t1178)
			t1179 := i_i1
			if t1179 < 0 || t1179 >= d_A[0] {
				return m.OOB(t1179, d_A[0], 0, "A", 22, 47)
			}
			t1180 := i_i2
			if t1180 < 0 || t1180 >= d_A[1] {
				return m.OOB(t1180, d_A[1], 1, "A", 22, 47)
			}
			t1181 := b_A + int((t1179)*d_A[1]+t1180)
			r_A_r7 := m.LoadF(t1181)
			t1182 := i_i1 - int64(1)
			t1183 := t1182
			if t1183 < 0 || t1183 >= d_B[0] {
				return m.OOB(t1183, d_B[0], 0, "B", 22, 59)
			}
			t1184 := i_i2
			if t1184 < 0 || t1184 >= d_B[1] {
				return m.OOB(t1184, d_B[1], 1, "B", 22, 59)
			}
			t1185 := b_B + int((t1183)*d_B[1]+t1184)
			r_B_r8 := m.LoadF(t1185)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1186 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1187 := float64(t1186 / r_B_r8)
			t1188 := float64(r_B_r7 - t1187)
			r_B_w2 := t1188
			t1189 := i_i1
			if t1189 < 0 || t1189 >= d_B[0] {
				return m.OOB(t1189, d_B[0], 0, "B", 22, 11)
			}
			t1190 := i_i2
			if t1190 < 0 || t1190 >= d_B[1] {
				return m.OOB(t1190, d_B[1], 1, "B", 22, 11)
			}
			t1191 := b_B + int((t1189)*d_B[1]+t1190)
			m.StoreF(t1191, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1192 := p_n - int64(1)
		t1193 := codegen.MaxI(int64(1), t1192)
		t1194 := p_n - int64(1)
		for i_i2 := t1193; i_i2 <= t1194; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1195 := i_i1
			if t1195 < 0 || t1195 >= d_X[0] {
				return m.OOB(t1195, d_X[0], 0, "X", 21, 23)
			}
			t1196 := i_i2
			if t1196 < 0 || t1196 >= d_X[1] {
				return m.OOB(t1196, d_X[1], 1, "X", 21, 23)
			}
			t1197 := b_X + int((t1195)*d_X[1]+t1196)
			r_X_r6 := m.LoadF(t1197)
			t1198 := i_i1 - int64(1)
			t1199 := t1198
			if t1199 < 0 || t1199 >= d_X[0] {
				return m.OOB(t1199, d_X[0], 0, "X", 21, 35)
			}
			t1200 := i_i2
			if t1200 < 0 || t1200 >= d_X[1] {
				return m.OOB(t1200, d_X[1], 1, "X", 21, 35)
			}
			t1201 := b_X + int((t1199)*d_X[1]+t1200)
			r_X_r7 := m.LoadF(t1201)
			t1202 := i_i1
			if t1202 < 0 || t1202 >= d_A[0] {
				return m.OOB(t1202, d_A[0], 0, "A", 21, 51)
			}
			t1203 := i_i2
			if t1203 < 0 || t1203 >= d_A[1] {
				return m.OOB(t1203, d_A[1], 1, "A", 21, 51)
			}
			t1204 := b_A + int((t1202)*d_A[1]+t1203)
			r_A_r5 := m.LoadF(t1204)
			t1205 := i_i1 - int64(1)
			t1206 := t1205
			if t1206 < 0 || t1206 >= d_B[0] {
				return m.OOB(t1206, d_B[0], 0, "B", 21, 63)
			}
			t1207 := i_i2
			if t1207 < 0 || t1207 >= d_B[1] {
				return m.OOB(t1207, d_B[1], 1, "B", 21, 63)
			}
			t1208 := b_B + int((t1206)*d_B[1]+t1207)
			r_B_r6 := m.LoadF(t1208)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1209 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1210 := float64(t1209 / r_B_r6)
			t1211 := float64(r_X_r6 - t1210)
			r_X_w4 := t1211
			t1212 := i_i1
			if t1212 < 0 || t1212 >= d_X[0] {
				return m.OOB(t1212, d_X[0], 0, "X", 21, 11)
			}
			t1213 := i_i2
			if t1213 < 0 || t1213 >= d_X[1] {
				return m.OOB(t1213, d_X[1], 1, "X", 21, 11)
			}
			t1214 := b_X + int((t1212)*d_X[1]+t1213)
			m.StoreF(t1214, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t1215 := i_i1
			if t1215 < 0 || t1215 >= d_B[0] {
				return m.OOB(t1215, d_B[0], 0, "B", 22, 23)
			}
			t1216 := i_i2
			if t1216 < 0 || t1216 >= d_B[1] {
				return m.OOB(t1216, d_B[1], 1, "B", 22, 23)
			}
			t1217 := b_B + int((t1215)*d_B[1]+t1216)
			r_B_r7 := m.LoadF(t1217)
			t1218 := i_i1
			if t1218 < 0 || t1218 >= d_A[0] {
				return m.OOB(t1218, d_A[0], 0, "A", 22, 35)
			}
			t1219 := i_i2
			if t1219 < 0 || t1219 >= d_A[1] {
				return m.OOB(t1219, d_A[1], 1, "A", 22, 35)
			}
			t1220 := b_A + int((t1218)*d_A[1]+t1219)
			r_A_r6 := m.LoadF(t1220)
			t1221 := i_i1
			if t1221 < 0 || t1221 >= d_A[0] {
				return m.OOB(t1221, d_A[0], 0, "A", 22, 47)
			}
			t1222 := i_i2
			if t1222 < 0 || t1222 >= d_A[1] {
				return m.OOB(t1222, d_A[1], 1, "A", 22, 47)
			}
			t1223 := b_A + int((t1221)*d_A[1]+t1222)
			r_A_r7 := m.LoadF(t1223)
			t1224 := i_i1 - int64(1)
			t1225 := t1224
			if t1225 < 0 || t1225 >= d_B[0] {
				return m.OOB(t1225, d_B[0], 0, "B", 22, 59)
			}
			t1226 := i_i2
			if t1226 < 0 || t1226 >= d_B[1] {
				return m.OOB(t1226, d_B[1], 1, "B", 22, 59)
			}
			t1227 := b_B + int((t1225)*d_B[1]+t1226)
			r_B_r8 := m.LoadF(t1227)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1228 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1229 := float64(t1228 / r_B_r8)
			t1230 := float64(r_B_r7 - t1229)
			r_B_w2 := t1230
			t1231 := i_i1
			if t1231 < 0 || t1231 >= d_B[0] {
				return m.OOB(t1231, d_B[0], 0, "B", 22, 11)
			}
			t1232 := i_i2
			if t1232 < 0 || t1232 >= d_B[1] {
				return m.OOB(t1232, d_B[1], 1, "B", 22, 11)
			}
			t1233 := b_B + int((t1231)*d_B[1]+t1232)
			m.StoreF(t1233, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n25(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1234 := p_n - int64(2)
	t1235 := codegen.MaxI(int64(1), t1234)
	t1236 := p_n - int64(2)
	for i_i1 := t1235; i_i1 <= t1236; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1237 := p_n - int64(1)
		t1238 := codegen.MinI(t1237, int64(0))
		for i_i2 := int64(0); i_i2 <= t1238; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1239 := i_i1
			if t1239 < 0 || t1239 >= d_X[0] {
				return m.OOB(t1239, d_X[0], 0, "X", 21, 23)
			}
			t1240 := i_i2
			if t1240 < 0 || t1240 >= d_X[1] {
				return m.OOB(t1240, d_X[1], 1, "X", 21, 23)
			}
			t1241 := b_X + int((t1239)*d_X[1]+t1240)
			r_X_r6 := m.LoadF(t1241)
			t1242 := i_i1 - int64(1)
			t1243 := t1242
			if t1243 < 0 || t1243 >= d_X[0] {
				return m.OOB(t1243, d_X[0], 0, "X", 21, 35)
			}
			t1244 := i_i2
			if t1244 < 0 || t1244 >= d_X[1] {
				return m.OOB(t1244, d_X[1], 1, "X", 21, 35)
			}
			t1245 := b_X + int((t1243)*d_X[1]+t1244)
			r_X_r7 := m.LoadF(t1245)
			t1246 := i_i1
			if t1246 < 0 || t1246 >= d_A[0] {
				return m.OOB(t1246, d_A[0], 0, "A", 21, 51)
			}
			t1247 := i_i2
			if t1247 < 0 || t1247 >= d_A[1] {
				return m.OOB(t1247, d_A[1], 1, "A", 21, 51)
			}
			t1248 := b_A + int((t1246)*d_A[1]+t1247)
			r_A_r5 := m.LoadF(t1248)
			t1249 := i_i1 - int64(1)
			t1250 := t1249
			if t1250 < 0 || t1250 >= d_B[0] {
				return m.OOB(t1250, d_B[0], 0, "B", 21, 63)
			}
			t1251 := i_i2
			if t1251 < 0 || t1251 >= d_B[1] {
				return m.OOB(t1251, d_B[1], 1, "B", 21, 63)
			}
			t1252 := b_B + int((t1250)*d_B[1]+t1251)
			r_B_r6 := m.LoadF(t1252)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1253 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1254 := float64(t1253 / r_B_r6)
			t1255 := float64(r_X_r6 - t1254)
			r_X_w4 := t1255
			t1256 := i_i1
			if t1256 < 0 || t1256 >= d_X[0] {
				return m.OOB(t1256, d_X[0], 0, "X", 21, 11)
			}
			t1257 := i_i2
			if t1257 < 0 || t1257 >= d_X[1] {
				return m.OOB(t1257, d_X[1], 1, "X", 21, 11)
			}
			t1258 := b_X + int((t1256)*d_X[1]+t1257)
			m.StoreF(t1258, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t1259 := i_i1
			if t1259 < 0 || t1259 >= d_B[0] {
				return m.OOB(t1259, d_B[0], 0, "B", 22, 23)
			}
			t1260 := i_i2
			if t1260 < 0 || t1260 >= d_B[1] {
				return m.OOB(t1260, d_B[1], 1, "B", 22, 23)
			}
			t1261 := b_B + int((t1259)*d_B[1]+t1260)
			r_B_r7 := m.LoadF(t1261)
			t1262 := i_i1
			if t1262 < 0 || t1262 >= d_A[0] {
				return m.OOB(t1262, d_A[0], 0, "A", 22, 35)
			}
			t1263 := i_i2
			if t1263 < 0 || t1263 >= d_A[1] {
				return m.OOB(t1263, d_A[1], 1, "A", 22, 35)
			}
			t1264 := b_A + int((t1262)*d_A[1]+t1263)
			r_A_r6 := m.LoadF(t1264)
			t1265 := i_i1
			if t1265 < 0 || t1265 >= d_A[0] {
				return m.OOB(t1265, d_A[0], 0, "A", 22, 47)
			}
			t1266 := i_i2
			if t1266 < 0 || t1266 >= d_A[1] {
				return m.OOB(t1266, d_A[1], 1, "A", 22, 47)
			}
			t1267 := b_A + int((t1265)*d_A[1]+t1266)
			r_A_r7 := m.LoadF(t1267)
			t1268 := i_i1 - int64(1)
			t1269 := t1268
			if t1269 < 0 || t1269 >= d_B[0] {
				return m.OOB(t1269, d_B[0], 0, "B", 22, 59)
			}
			t1270 := i_i2
			if t1270 < 0 || t1270 >= d_B[1] {
				return m.OOB(t1270, d_B[1], 1, "B", 22, 59)
			}
			t1271 := b_B + int((t1269)*d_B[1]+t1270)
			r_B_r8 := m.LoadF(t1271)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1272 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1273 := float64(t1272 / r_B_r8)
			t1274 := float64(r_B_r7 - t1273)
			r_B_w2 := t1274
			t1275 := i_i1
			if t1275 < 0 || t1275 >= d_B[0] {
				return m.OOB(t1275, d_B[0], 0, "B", 22, 11)
			}
			t1276 := i_i2
			if t1276 < 0 || t1276 >= d_B[1] {
				return m.OOB(t1276, d_B[1], 1, "B", 22, 11)
			}
			t1277 := b_B + int((t1275)*d_B[1]+t1276)
			m.StoreF(t1277, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1278 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t1278; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1279 := i_i1
			if t1279 < 0 || t1279 >= d_X[0] {
				return m.OOB(t1279, d_X[0], 0, "X", 21, 23)
			}
			t1280 := i_i2
			if t1280 < 0 || t1280 >= d_X[1] {
				return m.OOB(t1280, d_X[1], 1, "X", 21, 23)
			}
			t1281 := b_X + int((t1279)*d_X[1]+t1280)
			r_X_r6 := m.LoadF(t1281)
			t1282 := i_i1 - int64(1)
			t1283 := t1282
			if t1283 < 0 || t1283 >= d_X[0] {
				return m.OOB(t1283, d_X[0], 0, "X", 21, 35)
			}
			t1284 := i_i2
			if t1284 < 0 || t1284 >= d_X[1] {
				return m.OOB(t1284, d_X[1], 1, "X", 21, 35)
			}
			t1285 := b_X + int((t1283)*d_X[1]+t1284)
			r_X_r7 := m.LoadF(t1285)
			t1286 := i_i1
			if t1286 < 0 || t1286 >= d_A[0] {
				return m.OOB(t1286, d_A[0], 0, "A", 21, 51)
			}
			t1287 := i_i2
			if t1287 < 0 || t1287 >= d_A[1] {
				return m.OOB(t1287, d_A[1], 1, "A", 21, 51)
			}
			t1288 := b_A + int((t1286)*d_A[1]+t1287)
			r_A_r5 := m.LoadF(t1288)
			t1289 := i_i1 - int64(1)
			t1290 := t1289
			if t1290 < 0 || t1290 >= d_B[0] {
				return m.OOB(t1290, d_B[0], 0, "B", 21, 63)
			}
			t1291 := i_i2
			if t1291 < 0 || t1291 >= d_B[1] {
				return m.OOB(t1291, d_B[1], 1, "B", 21, 63)
			}
			t1292 := b_B + int((t1290)*d_B[1]+t1291)
			r_B_r6 := m.LoadF(t1292)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1293 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1294 := float64(t1293 / r_B_r6)
			t1295 := float64(r_X_r6 - t1294)
			r_X_w4 := t1295
			t1296 := i_i1
			if t1296 < 0 || t1296 >= d_X[0] {
				return m.OOB(t1296, d_X[0], 0, "X", 21, 11)
			}
			t1297 := i_i2
			if t1297 < 0 || t1297 >= d_X[1] {
				return m.OOB(t1297, d_X[1], 1, "X", 21, 11)
			}
			t1298 := b_X + int((t1296)*d_X[1]+t1297)
			m.StoreF(t1298, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t1299 := i_i1
			if t1299 < 0 || t1299 >= d_B[0] {
				return m.OOB(t1299, d_B[0], 0, "B", 22, 23)
			}
			t1300 := i_i2
			if t1300 < 0 || t1300 >= d_B[1] {
				return m.OOB(t1300, d_B[1], 1, "B", 22, 23)
			}
			t1301 := b_B + int((t1299)*d_B[1]+t1300)
			r_B_r7 := m.LoadF(t1301)
			t1302 := i_i1
			if t1302 < 0 || t1302 >= d_A[0] {
				return m.OOB(t1302, d_A[0], 0, "A", 22, 35)
			}
			t1303 := i_i2
			if t1303 < 0 || t1303 >= d_A[1] {
				return m.OOB(t1303, d_A[1], 1, "A", 22, 35)
			}
			t1304 := b_A + int((t1302)*d_A[1]+t1303)
			r_A_r6 := m.LoadF(t1304)
			t1305 := i_i1
			if t1305 < 0 || t1305 >= d_A[0] {
				return m.OOB(t1305, d_A[0], 0, "A", 22, 47)
			}
			t1306 := i_i2
			if t1306 < 0 || t1306 >= d_A[1] {
				return m.OOB(t1306, d_A[1], 1, "A", 22, 47)
			}
			t1307 := b_A + int((t1305)*d_A[1]+t1306)
			r_A_r7 := m.LoadF(t1307)
			t1308 := i_i1 - int64(1)
			t1309 := t1308
			if t1309 < 0 || t1309 >= d_B[0] {
				return m.OOB(t1309, d_B[0], 0, "B", 22, 59)
			}
			t1310 := i_i2
			if t1310 < 0 || t1310 >= d_B[1] {
				return m.OOB(t1310, d_B[1], 1, "B", 22, 59)
			}
			t1311 := b_B + int((t1309)*d_B[1]+t1310)
			r_B_r8 := m.LoadF(t1311)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1312 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1313 := float64(t1312 / r_B_r8)
			t1314 := float64(r_B_r7 - t1313)
			r_B_w2 := t1314
			t1315 := i_i1
			if t1315 < 0 || t1315 >= d_B[0] {
				return m.OOB(t1315, d_B[0], 0, "B", 22, 11)
			}
			t1316 := i_i2
			if t1316 < 0 || t1316 >= d_B[1] {
				return m.OOB(t1316, d_B[1], 1, "B", 22, 11)
			}
			t1317 := b_B + int((t1315)*d_B[1]+t1316)
			m.StoreF(t1317, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t1318 := p_n - int64(1)
		t1319 := codegen.MaxI(int64(1), t1318)
		t1320 := p_n - int64(1)
		for i_i2 := t1319; i_i2 <= t1320; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1321 := i_i1
			if t1321 < 0 || t1321 >= d_X[0] {
				return m.OOB(t1321, d_X[0], 0, "X", 21, 23)
			}
			t1322 := i_i2
			if t1322 < 0 || t1322 >= d_X[1] {
				return m.OOB(t1322, d_X[1], 1, "X", 21, 23)
			}
			t1323 := b_X + int((t1321)*d_X[1]+t1322)
			r_X_r6 := m.LoadF(t1323)
			t1324 := i_i1 - int64(1)
			t1325 := t1324
			if t1325 < 0 || t1325 >= d_X[0] {
				return m.OOB(t1325, d_X[0], 0, "X", 21, 35)
			}
			t1326 := i_i2
			if t1326 < 0 || t1326 >= d_X[1] {
				return m.OOB(t1326, d_X[1], 1, "X", 21, 35)
			}
			t1327 := b_X + int((t1325)*d_X[1]+t1326)
			r_X_r7 := m.LoadF(t1327)
			t1328 := i_i1
			if t1328 < 0 || t1328 >= d_A[0] {
				return m.OOB(t1328, d_A[0], 0, "A", 21, 51)
			}
			t1329 := i_i2
			if t1329 < 0 || t1329 >= d_A[1] {
				return m.OOB(t1329, d_A[1], 1, "A", 21, 51)
			}
			t1330 := b_A + int((t1328)*d_A[1]+t1329)
			r_A_r5 := m.LoadF(t1330)
			t1331 := i_i1 - int64(1)
			t1332 := t1331
			if t1332 < 0 || t1332 >= d_B[0] {
				return m.OOB(t1332, d_B[0], 0, "B", 21, 63)
			}
			t1333 := i_i2
			if t1333 < 0 || t1333 >= d_B[1] {
				return m.OOB(t1333, d_B[1], 1, "B", 21, 63)
			}
			t1334 := b_B + int((t1332)*d_B[1]+t1333)
			r_B_r6 := m.LoadF(t1334)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1335 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1336 := float64(t1335 / r_B_r6)
			t1337 := float64(r_X_r6 - t1336)
			r_X_w4 := t1337
			t1338 := i_i1
			if t1338 < 0 || t1338 >= d_X[0] {
				return m.OOB(t1338, d_X[0], 0, "X", 21, 11)
			}
			t1339 := i_i2
			if t1339 < 0 || t1339 >= d_X[1] {
				return m.OOB(t1339, d_X[1], 1, "X", 21, 11)
			}
			t1340 := b_X + int((t1338)*d_X[1]+t1339)
			m.StoreF(t1340, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t1341 := i_i1
			if t1341 < 0 || t1341 >= d_B[0] {
				return m.OOB(t1341, d_B[0], 0, "B", 22, 23)
			}
			t1342 := i_i2
			if t1342 < 0 || t1342 >= d_B[1] {
				return m.OOB(t1342, d_B[1], 1, "B", 22, 23)
			}
			t1343 := b_B + int((t1341)*d_B[1]+t1342)
			r_B_r7 := m.LoadF(t1343)
			t1344 := i_i1
			if t1344 < 0 || t1344 >= d_A[0] {
				return m.OOB(t1344, d_A[0], 0, "A", 22, 35)
			}
			t1345 := i_i2
			if t1345 < 0 || t1345 >= d_A[1] {
				return m.OOB(t1345, d_A[1], 1, "A", 22, 35)
			}
			t1346 := b_A + int((t1344)*d_A[1]+t1345)
			r_A_r6 := m.LoadF(t1346)
			t1347 := i_i1
			if t1347 < 0 || t1347 >= d_A[0] {
				return m.OOB(t1347, d_A[0], 0, "A", 22, 47)
			}
			t1348 := i_i2
			if t1348 < 0 || t1348 >= d_A[1] {
				return m.OOB(t1348, d_A[1], 1, "A", 22, 47)
			}
			t1349 := b_A + int((t1347)*d_A[1]+t1348)
			r_A_r7 := m.LoadF(t1349)
			t1350 := i_i1 - int64(1)
			t1351 := t1350
			if t1351 < 0 || t1351 >= d_B[0] {
				return m.OOB(t1351, d_B[0], 0, "B", 22, 59)
			}
			t1352 := i_i2
			if t1352 < 0 || t1352 >= d_B[1] {
				return m.OOB(t1352, d_B[1], 1, "B", 22, 59)
			}
			t1353 := b_B + int((t1351)*d_B[1]+t1352)
			r_B_r8 := m.LoadF(t1353)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1354 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1355 := float64(t1354 / r_B_r8)
			t1356 := float64(r_B_r7 - t1355)
			r_B_w2 := t1356
			t1357 := i_i1
			if t1357 < 0 || t1357 >= d_B[0] {
				return m.OOB(t1357, d_B[0], 0, "B", 22, 11)
			}
			t1358 := i_i2
			if t1358 < 0 || t1358 >= d_B[1] {
				return m.OOB(t1358, d_B[1], 1, "B", 22, 11)
			}
			t1359 := b_B + int((t1357)*d_B[1]+t1358)
			m.StoreF(t1359, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n26(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1360 := p_n - int64(1)
	t1361 := codegen.MaxI(int64(1), t1360)
	t1362 := p_n - int64(1)
	for i_i1 := t1361; i_i1 <= t1362; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n27(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_i1); err != nil {
			return err
		}
		t1404 := p_n - int64(2)
		t1405 := codegen.MaxI(int64(0), t1404)
		t1406 := p_n - int64(1)
		t1407 := codegen.MinI(t1406, int64(0))
		for i_i2 := t1405; i_i2 <= t1407; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1408 := i_i1
			if t1408 < 0 || t1408 >= d_X[0] {
				return m.OOB(t1408, d_X[0], 0, "X", 21, 23)
			}
			t1409 := i_i2
			if t1409 < 0 || t1409 >= d_X[1] {
				return m.OOB(t1409, d_X[1], 1, "X", 21, 23)
			}
			t1410 := b_X + int((t1408)*d_X[1]+t1409)
			r_X_r6 := m.LoadF(t1410)
			t1411 := i_i1 - int64(1)
			t1412 := t1411
			if t1412 < 0 || t1412 >= d_X[0] {
				return m.OOB(t1412, d_X[0], 0, "X", 21, 35)
			}
			t1413 := i_i2
			if t1413 < 0 || t1413 >= d_X[1] {
				return m.OOB(t1413, d_X[1], 1, "X", 21, 35)
			}
			t1414 := b_X + int((t1412)*d_X[1]+t1413)
			r_X_r7 := m.LoadF(t1414)
			t1415 := i_i1
			if t1415 < 0 || t1415 >= d_A[0] {
				return m.OOB(t1415, d_A[0], 0, "A", 21, 51)
			}
			t1416 := i_i2
			if t1416 < 0 || t1416 >= d_A[1] {
				return m.OOB(t1416, d_A[1], 1, "A", 21, 51)
			}
			t1417 := b_A + int((t1415)*d_A[1]+t1416)
			r_A_r5 := m.LoadF(t1417)
			t1418 := i_i1 - int64(1)
			t1419 := t1418
			if t1419 < 0 || t1419 >= d_B[0] {
				return m.OOB(t1419, d_B[0], 0, "B", 21, 63)
			}
			t1420 := i_i2
			if t1420 < 0 || t1420 >= d_B[1] {
				return m.OOB(t1420, d_B[1], 1, "B", 21, 63)
			}
			t1421 := b_B + int((t1419)*d_B[1]+t1420)
			r_B_r6 := m.LoadF(t1421)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1422 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1423 := float64(t1422 / r_B_r6)
			t1424 := float64(r_X_r6 - t1423)
			r_X_w4 := t1424
			t1425 := i_i1
			if t1425 < 0 || t1425 >= d_X[0] {
				return m.OOB(t1425, d_X[0], 0, "X", 21, 11)
			}
			t1426 := i_i2
			if t1426 < 0 || t1426 >= d_X[1] {
				return m.OOB(t1426, d_X[1], 1, "X", 21, 11)
			}
			t1427 := b_X + int((t1425)*d_X[1]+t1426)
			m.StoreF(t1427, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t1428 := i_i1
			if t1428 < 0 || t1428 >= d_B[0] {
				return m.OOB(t1428, d_B[0], 0, "B", 22, 23)
			}
			t1429 := i_i2
			if t1429 < 0 || t1429 >= d_B[1] {
				return m.OOB(t1429, d_B[1], 1, "B", 22, 23)
			}
			t1430 := b_B + int((t1428)*d_B[1]+t1429)
			r_B_r7 := m.LoadF(t1430)
			t1431 := i_i1
			if t1431 < 0 || t1431 >= d_A[0] {
				return m.OOB(t1431, d_A[0], 0, "A", 22, 35)
			}
			t1432 := i_i2
			if t1432 < 0 || t1432 >= d_A[1] {
				return m.OOB(t1432, d_A[1], 1, "A", 22, 35)
			}
			t1433 := b_A + int((t1431)*d_A[1]+t1432)
			r_A_r6 := m.LoadF(t1433)
			t1434 := i_i1
			if t1434 < 0 || t1434 >= d_A[0] {
				return m.OOB(t1434, d_A[0], 0, "A", 22, 47)
			}
			t1435 := i_i2
			if t1435 < 0 || t1435 >= d_A[1] {
				return m.OOB(t1435, d_A[1], 1, "A", 22, 47)
			}
			t1436 := b_A + int((t1434)*d_A[1]+t1435)
			r_A_r7 := m.LoadF(t1436)
			t1437 := i_i1 - int64(1)
			t1438 := t1437
			if t1438 < 0 || t1438 >= d_B[0] {
				return m.OOB(t1438, d_B[0], 0, "B", 22, 59)
			}
			t1439 := i_i2
			if t1439 < 0 || t1439 >= d_B[1] {
				return m.OOB(t1439, d_B[1], 1, "B", 22, 59)
			}
			t1440 := b_B + int((t1438)*d_B[1]+t1439)
			r_B_r8 := m.LoadF(t1440)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1441 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1442 := float64(t1441 / r_B_r8)
			t1443 := float64(r_B_r7 - t1442)
			r_B_w2 := t1443
			t1444 := i_i1
			if t1444 < 0 || t1444 >= d_B[0] {
				return m.OOB(t1444, d_B[0], 0, "B", 22, 11)
			}
			t1445 := i_i2
			if t1445 < 0 || t1445 >= d_B[1] {
				return m.OOB(t1445, d_B[1], 1, "B", 22, 11)
			}
			t1446 := b_B + int((t1444)*d_B[1]+t1445)
			m.StoreF(t1446, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1447 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t1447; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1448 := i_i1
			if t1448 < 0 || t1448 >= d_X[0] {
				return m.OOB(t1448, d_X[0], 0, "X", 21, 23)
			}
			t1449 := i_i2
			if t1449 < 0 || t1449 >= d_X[1] {
				return m.OOB(t1449, d_X[1], 1, "X", 21, 23)
			}
			t1450 := b_X + int((t1448)*d_X[1]+t1449)
			r_X_r6 := m.LoadF(t1450)
			t1451 := i_i1 - int64(1)
			t1452 := t1451
			if t1452 < 0 || t1452 >= d_X[0] {
				return m.OOB(t1452, d_X[0], 0, "X", 21, 35)
			}
			t1453 := i_i2
			if t1453 < 0 || t1453 >= d_X[1] {
				return m.OOB(t1453, d_X[1], 1, "X", 21, 35)
			}
			t1454 := b_X + int((t1452)*d_X[1]+t1453)
			r_X_r7 := m.LoadF(t1454)
			t1455 := i_i1
			if t1455 < 0 || t1455 >= d_A[0] {
				return m.OOB(t1455, d_A[0], 0, "A", 21, 51)
			}
			t1456 := i_i2
			if t1456 < 0 || t1456 >= d_A[1] {
				return m.OOB(t1456, d_A[1], 1, "A", 21, 51)
			}
			t1457 := b_A + int((t1455)*d_A[1]+t1456)
			r_A_r5 := m.LoadF(t1457)
			t1458 := i_i1 - int64(1)
			t1459 := t1458
			if t1459 < 0 || t1459 >= d_B[0] {
				return m.OOB(t1459, d_B[0], 0, "B", 21, 63)
			}
			t1460 := i_i2
			if t1460 < 0 || t1460 >= d_B[1] {
				return m.OOB(t1460, d_B[1], 1, "B", 21, 63)
			}
			t1461 := b_B + int((t1459)*d_B[1]+t1460)
			r_B_r6 := m.LoadF(t1461)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1462 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1463 := float64(t1462 / r_B_r6)
			t1464 := float64(r_X_r6 - t1463)
			r_X_w4 := t1464
			t1465 := i_i1
			if t1465 < 0 || t1465 >= d_X[0] {
				return m.OOB(t1465, d_X[0], 0, "X", 21, 11)
			}
			t1466 := i_i2
			if t1466 < 0 || t1466 >= d_X[1] {
				return m.OOB(t1466, d_X[1], 1, "X", 21, 11)
			}
			t1467 := b_X + int((t1465)*d_X[1]+t1466)
			m.StoreF(t1467, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t1468 := i_i1
			if t1468 < 0 || t1468 >= d_B[0] {
				return m.OOB(t1468, d_B[0], 0, "B", 22, 23)
			}
			t1469 := i_i2
			if t1469 < 0 || t1469 >= d_B[1] {
				return m.OOB(t1469, d_B[1], 1, "B", 22, 23)
			}
			t1470 := b_B + int((t1468)*d_B[1]+t1469)
			r_B_r7 := m.LoadF(t1470)
			t1471 := i_i1
			if t1471 < 0 || t1471 >= d_A[0] {
				return m.OOB(t1471, d_A[0], 0, "A", 22, 35)
			}
			t1472 := i_i2
			if t1472 < 0 || t1472 >= d_A[1] {
				return m.OOB(t1472, d_A[1], 1, "A", 22, 35)
			}
			t1473 := b_A + int((t1471)*d_A[1]+t1472)
			r_A_r6 := m.LoadF(t1473)
			t1474 := i_i1
			if t1474 < 0 || t1474 >= d_A[0] {
				return m.OOB(t1474, d_A[0], 0, "A", 22, 47)
			}
			t1475 := i_i2
			if t1475 < 0 || t1475 >= d_A[1] {
				return m.OOB(t1475, d_A[1], 1, "A", 22, 47)
			}
			t1476 := b_A + int((t1474)*d_A[1]+t1475)
			r_A_r7 := m.LoadF(t1476)
			t1477 := i_i1 - int64(1)
			t1478 := t1477
			if t1478 < 0 || t1478 >= d_B[0] {
				return m.OOB(t1478, d_B[0], 0, "B", 22, 59)
			}
			t1479 := i_i2
			if t1479 < 0 || t1479 >= d_B[1] {
				return m.OOB(t1479, d_B[1], 1, "B", 22, 59)
			}
			t1480 := b_B + int((t1478)*d_B[1]+t1479)
			r_B_r8 := m.LoadF(t1480)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1481 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1482 := float64(t1481 / r_B_r8)
			t1483 := float64(r_B_r7 - t1482)
			r_B_w2 := t1483
			t1484 := i_i1
			if t1484 < 0 || t1484 >= d_B[0] {
				return m.OOB(t1484, d_B[0], 0, "B", 22, 11)
			}
			t1485 := i_i2
			if t1485 < 0 || t1485 >= d_B[1] {
				return m.OOB(t1485, d_B[1], 1, "B", 22, 11)
			}
			t1486 := b_B + int((t1484)*d_B[1]+t1485)
			m.StoreF(t1486, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t1487 := p_n - int64(1)
		t1488 := codegen.MaxI(int64(1), t1487)
		t1489 := p_n - int64(1)
		for i_i2 := t1488; i_i2 <= t1489; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1490 := i_i1
			if t1490 < 0 || t1490 >= d_X[0] {
				return m.OOB(t1490, d_X[0], 0, "X", 21, 23)
			}
			t1491 := i_i2
			if t1491 < 0 || t1491 >= d_X[1] {
				return m.OOB(t1491, d_X[1], 1, "X", 21, 23)
			}
			t1492 := b_X + int((t1490)*d_X[1]+t1491)
			r_X_r6 := m.LoadF(t1492)
			t1493 := i_i1 - int64(1)
			t1494 := t1493
			if t1494 < 0 || t1494 >= d_X[0] {
				return m.OOB(t1494, d_X[0], 0, "X", 21, 35)
			}
			t1495 := i_i2
			if t1495 < 0 || t1495 >= d_X[1] {
				return m.OOB(t1495, d_X[1], 1, "X", 21, 35)
			}
			t1496 := b_X + int((t1494)*d_X[1]+t1495)
			r_X_r7 := m.LoadF(t1496)
			t1497 := i_i1
			if t1497 < 0 || t1497 >= d_A[0] {
				return m.OOB(t1497, d_A[0], 0, "A", 21, 51)
			}
			t1498 := i_i2
			if t1498 < 0 || t1498 >= d_A[1] {
				return m.OOB(t1498, d_A[1], 1, "A", 21, 51)
			}
			t1499 := b_A + int((t1497)*d_A[1]+t1498)
			r_A_r5 := m.LoadF(t1499)
			t1500 := i_i1 - int64(1)
			t1501 := t1500
			if t1501 < 0 || t1501 >= d_B[0] {
				return m.OOB(t1501, d_B[0], 0, "B", 21, 63)
			}
			t1502 := i_i2
			if t1502 < 0 || t1502 >= d_B[1] {
				return m.OOB(t1502, d_B[1], 1, "B", 21, 63)
			}
			t1503 := b_B + int((t1501)*d_B[1]+t1502)
			r_B_r6 := m.LoadF(t1503)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t1504 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t1505 := float64(t1504 / r_B_r6)
			t1506 := float64(r_X_r6 - t1505)
			r_X_w4 := t1506
			t1507 := i_i1
			if t1507 < 0 || t1507 >= d_X[0] {
				return m.OOB(t1507, d_X[0], 0, "X", 21, 11)
			}
			t1508 := i_i2
			if t1508 < 0 || t1508 >= d_X[1] {
				return m.OOB(t1508, d_X[1], 1, "X", 21, 11)
			}
			t1509 := b_X + int((t1507)*d_X[1]+t1508)
			m.StoreF(t1509, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t1510 := i_i1
			if t1510 < 0 || t1510 >= d_B[0] {
				return m.OOB(t1510, d_B[0], 0, "B", 22, 23)
			}
			t1511 := i_i2
			if t1511 < 0 || t1511 >= d_B[1] {
				return m.OOB(t1511, d_B[1], 1, "B", 22, 23)
			}
			t1512 := b_B + int((t1510)*d_B[1]+t1511)
			r_B_r7 := m.LoadF(t1512)
			t1513 := i_i1
			if t1513 < 0 || t1513 >= d_A[0] {
				return m.OOB(t1513, d_A[0], 0, "A", 22, 35)
			}
			t1514 := i_i2
			if t1514 < 0 || t1514 >= d_A[1] {
				return m.OOB(t1514, d_A[1], 1, "A", 22, 35)
			}
			t1515 := b_A + int((t1513)*d_A[1]+t1514)
			r_A_r6 := m.LoadF(t1515)
			t1516 := i_i1
			if t1516 < 0 || t1516 >= d_A[0] {
				return m.OOB(t1516, d_A[0], 0, "A", 22, 47)
			}
			t1517 := i_i2
			if t1517 < 0 || t1517 >= d_A[1] {
				return m.OOB(t1517, d_A[1], 1, "A", 22, 47)
			}
			t1518 := b_A + int((t1516)*d_A[1]+t1517)
			r_A_r7 := m.LoadF(t1518)
			t1519 := i_i1 - int64(1)
			t1520 := t1519
			if t1520 < 0 || t1520 >= d_B[0] {
				return m.OOB(t1520, d_B[0], 0, "B", 22, 59)
			}
			t1521 := i_i2
			if t1521 < 0 || t1521 >= d_B[1] {
				return m.OOB(t1521, d_B[1], 1, "B", 22, 59)
			}
			t1522 := b_B + int((t1520)*d_B[1]+t1521)
			r_B_r8 := m.LoadF(t1522)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t1523 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t1524 := float64(t1523 / r_B_r8)
			t1525 := float64(r_B_r7 - t1524)
			r_B_w2 := t1525
			t1526 := i_i1
			if t1526 < 0 || t1526 >= d_B[0] {
				return m.OOB(t1526, d_B[0], 0, "B", 22, 11)
			}
			t1527 := i_i2
			if t1527 < 0 || t1527 >= d_B[1] {
				return m.OOB(t1527, d_B[1], 1, "B", 22, 11)
			}
			t1528 := b_B + int((t1526)*d_B[1]+t1527)
			m.StoreF(t1528, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n27(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_i1 int64) error {
	t1363 := p_n - int64(3)
	t1364 := codegen.MinI(t1363, int64(0))
	for i_i2 := int64(0); i_i2 <= t1364; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1365 := i_i1
		if t1365 < 0 || t1365 >= d_X[0] {
			return m.OOB(t1365, d_X[0], 0, "X", 21, 23)
		}
		t1366 := i_i2
		if t1366 < 0 || t1366 >= d_X[1] {
			return m.OOB(t1366, d_X[1], 1, "X", 21, 23)
		}
		t1367 := b_X + int((t1365)*d_X[1]+t1366)
		r_X_r6 := m.LoadF(t1367)
		t1368 := i_i1 - int64(1)
		t1369 := t1368
		if t1369 < 0 || t1369 >= d_X[0] {
			return m.OOB(t1369, d_X[0], 0, "X", 21, 35)
		}
		t1370 := i_i2
		if t1370 < 0 || t1370 >= d_X[1] {
			return m.OOB(t1370, d_X[1], 1, "X", 21, 35)
		}
		t1371 := b_X + int((t1369)*d_X[1]+t1370)
		r_X_r7 := m.LoadF(t1371)
		t1372 := i_i1
		if t1372 < 0 || t1372 >= d_A[0] {
			return m.OOB(t1372, d_A[0], 0, "A", 21, 51)
		}
		t1373 := i_i2
		if t1373 < 0 || t1373 >= d_A[1] {
			return m.OOB(t1373, d_A[1], 1, "A", 21, 51)
		}
		t1374 := b_A + int((t1372)*d_A[1]+t1373)
		r_A_r5 := m.LoadF(t1374)
		t1375 := i_i1 - int64(1)
		t1376 := t1375
		if t1376 < 0 || t1376 >= d_B[0] {
			return m.OOB(t1376, d_B[0], 0, "B", 21, 63)
		}
		t1377 := i_i2
		if t1377 < 0 || t1377 >= d_B[1] {
			return m.OOB(t1377, d_B[1], 1, "B", 21, 63)
		}
		t1378 := b_B + int((t1376)*d_B[1]+t1377)
		r_B_r6 := m.LoadF(t1378)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
		t1379 := float64(r_X_r7 * r_A_r5)
		if r_B_r6 == 0 {
			return m.DivZero(21, 61)
		}
		t1380 := float64(t1379 / r_B_r6)
		t1381 := float64(r_X_r6 - t1380)
		r_X_w4 := t1381
		t1382 := i_i1
		if t1382 < 0 || t1382 >= d_X[0] {
			return m.OOB(t1382, d_X[0], 0, "X", 21, 11)
		}
		t1383 := i_i2
		if t1383 < 0 || t1383 >= d_X[1] {
			return m.OOB(t1383, d_X[1], 1, "X", 21, 11)
		}
		t1384 := b_X + int((t1382)*d_X[1]+t1383)
		m.StoreF(t1384, r_X_w4)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
		t1385 := i_i1
		if t1385 < 0 || t1385 >= d_B[0] {
			return m.OOB(t1385, d_B[0], 0, "B", 22, 23)
		}
		t1386 := i_i2
		if t1386 < 0 || t1386 >= d_B[1] {
			return m.OOB(t1386, d_B[1], 1, "B", 22, 23)
		}
		t1387 := b_B + int((t1385)*d_B[1]+t1386)
		r_B_r7 := m.LoadF(t1387)
		t1388 := i_i1
		if t1388 < 0 || t1388 >= d_A[0] {
			return m.OOB(t1388, d_A[0], 0, "A", 22, 35)
		}
		t1389 := i_i2
		if t1389 < 0 || t1389 >= d_A[1] {
			return m.OOB(t1389, d_A[1], 1, "A", 22, 35)
		}
		t1390 := b_A + int((t1388)*d_A[1]+t1389)
		r_A_r6 := m.LoadF(t1390)
		t1391 := i_i1
		if t1391 < 0 || t1391 >= d_A[0] {
			return m.OOB(t1391, d_A[0], 0, "A", 22, 47)
		}
		t1392 := i_i2
		if t1392 < 0 || t1392 >= d_A[1] {
			return m.OOB(t1392, d_A[1], 1, "A", 22, 47)
		}
		t1393 := b_A + int((t1391)*d_A[1]+t1392)
		r_A_r7 := m.LoadF(t1393)
		t1394 := i_i1 - int64(1)
		t1395 := t1394
		if t1395 < 0 || t1395 >= d_B[0] {
			return m.OOB(t1395, d_B[0], 0, "B", 22, 59)
		}
		t1396 := i_i2
		if t1396 < 0 || t1396 >= d_B[1] {
			return m.OOB(t1396, d_B[1], 1, "B", 22, 59)
		}
		t1397 := b_B + int((t1395)*d_B[1]+t1396)
		r_B_r8 := m.LoadF(t1397)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
		t1398 := float64(r_A_r6 * r_A_r7)
		if r_B_r8 == 0 {
			return m.DivZero(22, 57)
		}
		t1399 := float64(t1398 / r_B_r8)
		t1400 := float64(r_B_r7 - t1399)
		r_B_w2 := t1400
		t1401 := i_i1
		if t1401 < 0 || t1401 >= d_B[0] {
			return m.OOB(t1401, d_B[0], 0, "B", 22, 11)
		}
		t1402 := i_i2
		if t1402 < 0 || t1402 >= d_B[1] {
			return m.OOB(t1402, d_B[1], 1, "B", 22, 11)
		}
		t1403 := b_B + int((t1401)*d_B[1]+t1402)
		m.StoreF(t1403, r_B_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n28(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t1529 := p_n - int64(3)
	t1530 := codegen.MinI(t1529, int64(0))
	for i_i2 := int64(0); i_i2 <= t1530; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1531 := p_n - int64(1)
		t1532 := t1531
		if t1532 < 0 || t1532 >= d_X[0] {
			return m.OOB(t1532, d_X[0], 0, "X", 26, 24)
		}
		t1533 := i_i2
		if t1533 < 0 || t1533 >= d_X[1] {
			return m.OOB(t1533, d_X[1], 1, "X", 26, 24)
		}
		t1534 := b_X + int((t1532)*d_X[1]+t1533)
		r_X_r8 := m.LoadF(t1534)
		t1535 := p_n - int64(1)
		t1536 := t1535
		if t1536 < 0 || t1536 >= d_B[0] {
			return m.OOB(t1536, d_B[0], 0, "B", 26, 39)
		}
		t1537 := i_i2
		if t1537 < 0 || t1537 >= d_B[1] {
			return m.OOB(t1537, d_B[1], 1, "B", 26, 39)
		}
		t1538 := b_B + int((t1536)*d_B[1]+t1537)
		r_B_r9 := m.LoadF(t1538)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t1539 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t1539
		t1540 := p_n - int64(1)
		t1541 := t1540
		if t1541 < 0 || t1541 >= d_X[0] {
			return m.OOB(t1541, d_X[0], 0, "X", 26, 9)
		}
		t1542 := i_i2
		if t1542 < 0 || t1542 >= d_X[1] {
			return m.OOB(t1542, d_X[1], 1, "X", 26, 9)
		}
		t1543 := b_X + int((t1541)*d_X[1]+t1542)
		m.StoreF(t1543, r_X_w5)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n29(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t1544 := p_n - int64(2)
	t1545 := codegen.MaxI(int64(0), t1544)
	t1546 := p_n - int64(2)
	t1547 := codegen.MinI(t1546, int64(0))
	for i_i2 := t1545; i_i2 <= t1547; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1548 := p_n - int64(1)
		t1549 := t1548
		if t1549 < 0 || t1549 >= d_X[0] {
			return m.OOB(t1549, d_X[0], 0, "X", 26, 24)
		}
		t1550 := i_i2
		if t1550 < 0 || t1550 >= d_X[1] {
			return m.OOB(t1550, d_X[1], 1, "X", 26, 24)
		}
		t1551 := b_X + int((t1549)*d_X[1]+t1550)
		r_X_r8 := m.LoadF(t1551)
		t1552 := p_n - int64(1)
		t1553 := t1552
		if t1553 < 0 || t1553 >= d_B[0] {
			return m.OOB(t1553, d_B[0], 0, "B", 26, 39)
		}
		t1554 := i_i2
		if t1554 < 0 || t1554 >= d_B[1] {
			return m.OOB(t1554, d_B[1], 1, "B", 26, 39)
		}
		t1555 := b_B + int((t1553)*d_B[1]+t1554)
		r_B_r9 := m.LoadF(t1555)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t1556 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t1556
		t1557 := p_n - int64(1)
		t1558 := t1557
		if t1558 < 0 || t1558 >= d_X[0] {
			return m.OOB(t1558, d_X[0], 0, "X", 26, 9)
		}
		t1559 := i_i2
		if t1559 < 0 || t1559 >= d_X[1] {
			return m.OOB(t1559, d_X[1], 1, "X", 26, 9)
		}
		t1560 := b_X + int((t1558)*d_X[1]+t1559)
		m.StoreF(t1560, r_X_w5)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n30(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t1561 := p_n - int64(1)
	t1562 := codegen.MaxI(int64(0), t1561)
	t1563 := p_n - int64(1)
	t1564 := codegen.MinI(t1563, int64(0))
	for i_i2 := t1562; i_i2 <= t1564; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1565 := p_n - int64(1)
		t1566 := t1565
		if t1566 < 0 || t1566 >= d_X[0] {
			return m.OOB(t1566, d_X[0], 0, "X", 26, 24)
		}
		t1567 := i_i2
		if t1567 < 0 || t1567 >= d_X[1] {
			return m.OOB(t1567, d_X[1], 1, "X", 26, 24)
		}
		t1568 := b_X + int((t1566)*d_X[1]+t1567)
		r_X_r8 := m.LoadF(t1568)
		t1569 := p_n - int64(1)
		t1570 := t1569
		if t1570 < 0 || t1570 >= d_B[0] {
			return m.OOB(t1570, d_B[0], 0, "B", 26, 39)
		}
		t1571 := i_i2
		if t1571 < 0 || t1571 >= d_B[1] {
			return m.OOB(t1571, d_B[1], 1, "B", 26, 39)
		}
		t1572 := b_B + int((t1570)*d_B[1]+t1571)
		r_B_r9 := m.LoadF(t1572)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t1573 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t1573
		t1574 := p_n - int64(1)
		t1575 := t1574
		if t1575 < 0 || t1575 >= d_X[0] {
			return m.OOB(t1575, d_X[0], 0, "X", 26, 9)
		}
		t1576 := i_i2
		if t1576 < 0 || t1576 >= d_X[1] {
			return m.OOB(t1576, d_X[1], 1, "X", 26, 9)
		}
		t1577 := b_X + int((t1575)*d_X[1]+t1576)
		m.StoreF(t1577, r_X_w5)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n31(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t1578 := p_n - int64(2)
	for i_i2 := int64(1); i_i2 <= t1578; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1579 := p_n - int64(1)
		t1580 := t1579
		if t1580 < 0 || t1580 >= d_X[0] {
			return m.OOB(t1580, d_X[0], 0, "X", 26, 24)
		}
		t1581 := i_i2
		if t1581 < 0 || t1581 >= d_X[1] {
			return m.OOB(t1581, d_X[1], 1, "X", 26, 24)
		}
		t1582 := b_X + int((t1580)*d_X[1]+t1581)
		r_X_r8 := m.LoadF(t1582)
		t1583 := p_n - int64(1)
		t1584 := t1583
		if t1584 < 0 || t1584 >= d_B[0] {
			return m.OOB(t1584, d_B[0], 0, "B", 26, 39)
		}
		t1585 := i_i2
		if t1585 < 0 || t1585 >= d_B[1] {
			return m.OOB(t1585, d_B[1], 1, "B", 26, 39)
		}
		t1586 := b_B + int((t1584)*d_B[1]+t1585)
		r_B_r9 := m.LoadF(t1586)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t1587 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t1587
		t1588 := p_n - int64(1)
		t1589 := t1588
		if t1589 < 0 || t1589 >= d_X[0] {
			return m.OOB(t1589, d_X[0], 0, "X", 26, 9)
		}
		t1590 := i_i2
		if t1590 < 0 || t1590 >= d_X[1] {
			return m.OOB(t1590, d_X[1], 1, "X", 26, 9)
		}
		t1591 := b_X + int((t1589)*d_X[1]+t1590)
		m.StoreF(t1591, r_X_w5)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n32(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t1592 := p_n - int64(1)
	t1593 := codegen.MaxI(int64(1), t1592)
	t1594 := p_n - int64(1)
	for i_i2 := t1593; i_i2 <= t1594; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1595 := p_n - int64(1)
		t1596 := t1595
		if t1596 < 0 || t1596 >= d_X[0] {
			return m.OOB(t1596, d_X[0], 0, "X", 26, 24)
		}
		t1597 := i_i2
		if t1597 < 0 || t1597 >= d_X[1] {
			return m.OOB(t1597, d_X[1], 1, "X", 26, 24)
		}
		t1598 := b_X + int((t1596)*d_X[1]+t1597)
		r_X_r8 := m.LoadF(t1598)
		t1599 := p_n - int64(1)
		t1600 := t1599
		if t1600 < 0 || t1600 >= d_B[0] {
			return m.OOB(t1600, d_B[0], 0, "B", 26, 39)
		}
		t1601 := i_i2
		if t1601 < 0 || t1601 >= d_B[1] {
			return m.OOB(t1601, d_B[1], 1, "B", 26, 39)
		}
		t1602 := b_B + int((t1600)*d_B[1]+t1601)
		r_B_r9 := m.LoadF(t1602)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t1603 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t1603
		t1604 := p_n - int64(1)
		t1605 := t1604
		if t1605 < 0 || t1605 >= d_X[0] {
			return m.OOB(t1605, d_X[0], 0, "X", 26, 9)
		}
		t1606 := i_i2
		if t1606 < 0 || t1606 >= d_X[1] {
			return m.OOB(t1606, d_X[1], 1, "X", 26, 9)
		}
		t1607 := b_X + int((t1605)*d_X[1]+t1606)
		m.StoreF(t1607, r_X_w5)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n33(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1608 := p_n - int64(3)
	for i_i1 := int64(0); i_i1 <= t1608; i_i1++ {
		if err := m.Tick(28, 3); err != nil {
			return err
		}
		t1609 := p_n - int64(1)
		t1610 := codegen.MinI(t1609, int64(0))
		for i_i2 := int64(0); i_i2 <= t1610; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1611 := p_n - int64(2)
			t1612 := t1611 - i_i1
			t1613 := t1612
			if t1613 < 0 || t1613 >= d_X[0] {
				return m.OOB(t1613, d_X[0], 0, "X", 30, 32)
			}
			t1614 := i_i2
			if t1614 < 0 || t1614 >= d_X[1] {
				return m.OOB(t1614, d_X[1], 1, "X", 30, 32)
			}
			t1615 := b_X + int((t1613)*d_X[1]+t1614)
			r_X_r9 := m.LoadF(t1615)
			t1616 := p_n - i_i1
			t1617 := t1616 - int64(3)
			t1618 := t1617
			if t1618 < 0 || t1618 >= d_X[0] {
				return m.OOB(t1618, d_X[0], 0, "X", 30, 52)
			}
			t1619 := i_i2
			if t1619 < 0 || t1619 >= d_X[1] {
				return m.OOB(t1619, d_X[1], 1, "X", 30, 52)
			}
			t1620 := b_X + int((t1618)*d_X[1]+t1619)
			r_X_r10 := m.LoadF(t1620)
			t1621 := p_n - int64(3)
			t1622 := t1621 - i_i1
			t1623 := t1622
			if t1623 < 0 || t1623 >= d_A[0] {
				return m.OOB(t1623, d_A[0], 0, "A", 30, 72)
			}
			t1624 := i_i2
			if t1624 < 0 || t1624 >= d_A[1] {
				return m.OOB(t1624, d_A[1], 1, "A", 30, 72)
			}
			t1625 := b_A + int((t1623)*d_A[1]+t1624)
			r_A_r8 := m.LoadF(t1625)
			t1626 := p_n - int64(2)
			t1627 := t1626 - i_i1
			t1628 := t1627
			if t1628 < 0 || t1628 >= d_B[0] {
				return m.OOB(t1628, d_B[0], 0, "B", 30, 93)
			}
			t1629 := i_i2
			if t1629 < 0 || t1629 >= d_B[1] {
				return m.OOB(t1629, d_B[1], 1, "B", 30, 93)
			}
			t1630 := b_B + int((t1628)*d_B[1]+t1629)
			r_B_r10 := m.LoadF(t1630)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t1631 := float64(r_X_r10 * r_A_r8)
			t1632 := float64(r_X_r9 - t1631)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t1633 := float64(t1632 / r_B_r10)
			r_X_w6 := t1633
			t1634 := p_n - int64(2)
			t1635 := t1634 - i_i1
			t1636 := t1635
			if t1636 < 0 || t1636 >= d_X[0] {
				return m.OOB(t1636, d_X[0], 0, "X", 30, 11)
			}
			t1637 := i_i2
			if t1637 < 0 || t1637 >= d_X[1] {
				return m.OOB(t1637, d_X[1], 1, "X", 30, 11)
			}
			t1638 := b_X + int((t1636)*d_X[1]+t1637)
			m.StoreF(t1638, r_X_w6)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(3))
		}
		t1639 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t1639; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1640 := p_n - int64(2)
			t1641 := t1640 - i_i1
			t1642 := t1641
			if t1642 < 0 || t1642 >= d_X[0] {
				return m.OOB(t1642, d_X[0], 0, "X", 30, 32)
			}
			t1643 := i_i2
			if t1643 < 0 || t1643 >= d_X[1] {
				return m.OOB(t1643, d_X[1], 1, "X", 30, 32)
			}
			t1644 := b_X + int((t1642)*d_X[1]+t1643)
			r_X_r9 := m.LoadF(t1644)
			t1645 := p_n - i_i1
			t1646 := t1645 - int64(3)
			t1647 := t1646
			if t1647 < 0 || t1647 >= d_X[0] {
				return m.OOB(t1647, d_X[0], 0, "X", 30, 52)
			}
			t1648 := i_i2
			if t1648 < 0 || t1648 >= d_X[1] {
				return m.OOB(t1648, d_X[1], 1, "X", 30, 52)
			}
			t1649 := b_X + int((t1647)*d_X[1]+t1648)
			r_X_r10 := m.LoadF(t1649)
			t1650 := p_n - int64(3)
			t1651 := t1650 - i_i1
			t1652 := t1651
			if t1652 < 0 || t1652 >= d_A[0] {
				return m.OOB(t1652, d_A[0], 0, "A", 30, 72)
			}
			t1653 := i_i2
			if t1653 < 0 || t1653 >= d_A[1] {
				return m.OOB(t1653, d_A[1], 1, "A", 30, 72)
			}
			t1654 := b_A + int((t1652)*d_A[1]+t1653)
			r_A_r8 := m.LoadF(t1654)
			t1655 := p_n - int64(2)
			t1656 := t1655 - i_i1
			t1657 := t1656
			if t1657 < 0 || t1657 >= d_B[0] {
				return m.OOB(t1657, d_B[0], 0, "B", 30, 93)
			}
			t1658 := i_i2
			if t1658 < 0 || t1658 >= d_B[1] {
				return m.OOB(t1658, d_B[1], 1, "B", 30, 93)
			}
			t1659 := b_B + int((t1657)*d_B[1]+t1658)
			r_B_r10 := m.LoadF(t1659)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t1660 := float64(r_X_r10 * r_A_r8)
			t1661 := float64(r_X_r9 - t1660)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t1662 := float64(t1661 / r_B_r10)
			r_X_w6 := t1662
			t1663 := p_n - int64(2)
			t1664 := t1663 - i_i1
			t1665 := t1664
			if t1665 < 0 || t1665 >= d_X[0] {
				return m.OOB(t1665, d_X[0], 0, "X", 30, 11)
			}
			t1666 := i_i2
			if t1666 < 0 || t1666 >= d_X[1] {
				return m.OOB(t1666, d_X[1], 1, "X", 30, 11)
			}
			t1667 := b_X + int((t1665)*d_X[1]+t1666)
			m.StoreF(t1667, r_X_w6)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(1))
		}
		t1668 := p_n - int64(1)
		t1669 := codegen.MaxI(int64(1), t1668)
		t1670 := p_n - int64(1)
		for i_i2 := t1669; i_i2 <= t1670; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1671 := p_n - int64(2)
			t1672 := t1671 - i_i1
			t1673 := t1672
			if t1673 < 0 || t1673 >= d_X[0] {
				return m.OOB(t1673, d_X[0], 0, "X", 30, 32)
			}
			t1674 := i_i2
			if t1674 < 0 || t1674 >= d_X[1] {
				return m.OOB(t1674, d_X[1], 1, "X", 30, 32)
			}
			t1675 := b_X + int((t1673)*d_X[1]+t1674)
			r_X_r9 := m.LoadF(t1675)
			t1676 := p_n - i_i1
			t1677 := t1676 - int64(3)
			t1678 := t1677
			if t1678 < 0 || t1678 >= d_X[0] {
				return m.OOB(t1678, d_X[0], 0, "X", 30, 52)
			}
			t1679 := i_i2
			if t1679 < 0 || t1679 >= d_X[1] {
				return m.OOB(t1679, d_X[1], 1, "X", 30, 52)
			}
			t1680 := b_X + int((t1678)*d_X[1]+t1679)
			r_X_r10 := m.LoadF(t1680)
			t1681 := p_n - int64(3)
			t1682 := t1681 - i_i1
			t1683 := t1682
			if t1683 < 0 || t1683 >= d_A[0] {
				return m.OOB(t1683, d_A[0], 0, "A", 30, 72)
			}
			t1684 := i_i2
			if t1684 < 0 || t1684 >= d_A[1] {
				return m.OOB(t1684, d_A[1], 1, "A", 30, 72)
			}
			t1685 := b_A + int((t1683)*d_A[1]+t1684)
			r_A_r8 := m.LoadF(t1685)
			t1686 := p_n - int64(2)
			t1687 := t1686 - i_i1
			t1688 := t1687
			if t1688 < 0 || t1688 >= d_B[0] {
				return m.OOB(t1688, d_B[0], 0, "B", 30, 93)
			}
			t1689 := i_i2
			if t1689 < 0 || t1689 >= d_B[1] {
				return m.OOB(t1689, d_B[1], 1, "B", 30, 93)
			}
			t1690 := b_B + int((t1688)*d_B[1]+t1689)
			r_B_r10 := m.LoadF(t1690)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t1691 := float64(r_X_r10 * r_A_r8)
			t1692 := float64(r_X_r9 - t1691)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t1693 := float64(t1692 / r_B_r10)
			r_X_w6 := t1693
			t1694 := p_n - int64(2)
			t1695 := t1694 - i_i1
			t1696 := t1695
			if t1696 < 0 || t1696 >= d_X[0] {
				return m.OOB(t1696, d_X[0], 0, "X", 30, 11)
			}
			t1697 := i_i2
			if t1697 < 0 || t1697 >= d_X[1] {
				return m.OOB(t1697, d_X[1], 1, "X", 30, 11)
			}
			t1698 := b_X + int((t1696)*d_X[1]+t1697)
			m.StoreF(t1698, r_X_w6)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n34(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1699 := p_tsteps - int64(2)
	t1700 := codegen.MaxI(int64(0), t1699)
	t1701 := p_tsteps - int64(2)
	t1702 := codegen.MinI(t1701, int64(0))
	for i_t := t1700; i_t <= t1702; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n35(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n36(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n37(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t2090 := p_n - int64(3)
		t2091 := codegen.MinI(t2090, int64(0))
		for i_i1 := int64(0); i_i1 <= t2091; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2092 := i_i1
			if t2092 < 0 || t2092 >= d_X[0] {
				return m.OOB(t2092, d_X[0], 0, "X", 12, 24)
			}
			t2093 := p_n - int64(1)
			t2094 := t2093
			if t2094 < 0 || t2094 >= d_X[1] {
				return m.OOB(t2094, d_X[1], 1, "X", 12, 24)
			}
			t2095 := b_X + int((t2092)*d_X[1]+t2094)
			r_X_r3 := m.LoadF(t2095)
			t2096 := i_i1
			if t2096 < 0 || t2096 >= d_B[0] {
				return m.OOB(t2096, d_B[0], 0, "B", 12, 39)
			}
			t2097 := p_n - int64(1)
			t2098 := t2097
			if t2098 < 0 || t2098 >= d_B[1] {
				return m.OOB(t2098, d_B[1], 1, "B", 12, 39)
			}
			t2099 := b_B + int((t2096)*d_B[1]+t2098)
			r_B_r4 := m.LoadF(t2099)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t2100 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t2100
			t2101 := i_i1
			if t2101 < 0 || t2101 >= d_X[0] {
				return m.OOB(t2101, d_X[0], 0, "X", 12, 9)
			}
			t2102 := p_n - int64(1)
			t2103 := t2102
			if t2103 < 0 || t2103 >= d_X[1] {
				return m.OOB(t2103, d_X[1], 1, "X", 12, 9)
			}
			t2104 := b_X + int((t2101)*d_X[1]+t2103)
			m.StoreF(t2104, r_X_w2)
			t2105 := -i_t
			t2106 := t2105 + p_tsteps
			t2107 := t2106 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), t2107)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t2108 := p_n - int64(2)
		t2109 := codegen.MaxI(int64(0), t2108)
		t2110 := p_n - int64(2)
		t2111 := codegen.MinI(t2110, int64(0))
		for i_i1 := t2109; i_i1 <= t2111; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2112 := i_i1
			if t2112 < 0 || t2112 >= d_X[0] {
				return m.OOB(t2112, d_X[0], 0, "X", 12, 24)
			}
			t2113 := p_n - int64(1)
			t2114 := t2113
			if t2114 < 0 || t2114 >= d_X[1] {
				return m.OOB(t2114, d_X[1], 1, "X", 12, 24)
			}
			t2115 := b_X + int((t2112)*d_X[1]+t2114)
			r_X_r3 := m.LoadF(t2115)
			t2116 := i_i1
			if t2116 < 0 || t2116 >= d_B[0] {
				return m.OOB(t2116, d_B[0], 0, "B", 12, 39)
			}
			t2117 := p_n - int64(1)
			t2118 := t2117
			if t2118 < 0 || t2118 >= d_B[1] {
				return m.OOB(t2118, d_B[1], 1, "B", 12, 39)
			}
			t2119 := b_B + int((t2116)*d_B[1]+t2118)
			r_B_r4 := m.LoadF(t2119)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t2120 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t2120
			t2121 := i_i1
			if t2121 < 0 || t2121 >= d_X[0] {
				return m.OOB(t2121, d_X[0], 0, "X", 12, 9)
			}
			t2122 := p_n - int64(1)
			t2123 := t2122
			if t2123 < 0 || t2123 >= d_X[1] {
				return m.OOB(t2123, d_X[1], 1, "X", 12, 9)
			}
			t2124 := b_X + int((t2121)*d_X[1]+t2123)
			m.StoreF(t2124, r_X_w2)
			t2125 := -i_t
			t2126 := t2125 + p_tsteps
			t2127 := t2126 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), t2127)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t2128 := p_n - int64(1)
		t2129 := codegen.MaxI(int64(0), t2128)
		t2130 := p_n - int64(1)
		t2131 := codegen.MinI(t2130, int64(0))
		for i_i1 := t2129; i_i1 <= t2131; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2132 := i_i1
			if t2132 < 0 || t2132 >= d_X[0] {
				return m.OOB(t2132, d_X[0], 0, "X", 12, 24)
			}
			t2133 := p_n - int64(1)
			t2134 := t2133
			if t2134 < 0 || t2134 >= d_X[1] {
				return m.OOB(t2134, d_X[1], 1, "X", 12, 24)
			}
			t2135 := b_X + int((t2132)*d_X[1]+t2134)
			r_X_r3 := m.LoadF(t2135)
			t2136 := i_i1
			if t2136 < 0 || t2136 >= d_B[0] {
				return m.OOB(t2136, d_B[0], 0, "B", 12, 39)
			}
			t2137 := p_n - int64(1)
			t2138 := t2137
			if t2138 < 0 || t2138 >= d_B[1] {
				return m.OOB(t2138, d_B[1], 1, "B", 12, 39)
			}
			t2139 := b_B + int((t2136)*d_B[1]+t2138)
			r_B_r4 := m.LoadF(t2139)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t2140 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t2140
			t2141 := i_i1
			if t2141 < 0 || t2141 >= d_X[0] {
				return m.OOB(t2141, d_X[0], 0, "X", 12, 9)
			}
			t2142 := p_n - int64(1)
			t2143 := t2142
			if t2143 < 0 || t2143 >= d_X[1] {
				return m.OOB(t2143, d_X[1], 1, "X", 12, 9)
			}
			t2144 := b_X + int((t2141)*d_X[1]+t2143)
			m.StoreF(t2144, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t2145 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t2145; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2146 := i_i1
			if t2146 < 0 || t2146 >= d_X[0] {
				return m.OOB(t2146, d_X[0], 0, "X", 12, 24)
			}
			t2147 := p_n - int64(1)
			t2148 := t2147
			if t2148 < 0 || t2148 >= d_X[1] {
				return m.OOB(t2148, d_X[1], 1, "X", 12, 24)
			}
			t2149 := b_X + int((t2146)*d_X[1]+t2148)
			r_X_r3 := m.LoadF(t2149)
			t2150 := i_i1
			if t2150 < 0 || t2150 >= d_B[0] {
				return m.OOB(t2150, d_B[0], 0, "B", 12, 39)
			}
			t2151 := p_n - int64(1)
			t2152 := t2151
			if t2152 < 0 || t2152 >= d_B[1] {
				return m.OOB(t2152, d_B[1], 1, "B", 12, 39)
			}
			t2153 := b_B + int((t2150)*d_B[1]+t2152)
			r_B_r4 := m.LoadF(t2153)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t2154 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t2154
			t2155 := i_i1
			if t2155 < 0 || t2155 >= d_X[0] {
				return m.OOB(t2155, d_X[0], 0, "X", 12, 9)
			}
			t2156 := p_n - int64(1)
			t2157 := t2156
			if t2157 < 0 || t2157 >= d_X[1] {
				return m.OOB(t2157, d_X[1], 1, "X", 12, 9)
			}
			t2158 := b_X + int((t2155)*d_X[1]+t2157)
			m.StoreF(t2158, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t2159 := p_n - int64(1)
		t2160 := codegen.MaxI(int64(1), t2159)
		t2161 := p_n - int64(1)
		for i_i1 := t2160; i_i1 <= t2161; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2162 := i_i1
			if t2162 < 0 || t2162 >= d_X[0] {
				return m.OOB(t2162, d_X[0], 0, "X", 12, 24)
			}
			t2163 := p_n - int64(1)
			t2164 := t2163
			if t2164 < 0 || t2164 >= d_X[1] {
				return m.OOB(t2164, d_X[1], 1, "X", 12, 24)
			}
			t2165 := b_X + int((t2162)*d_X[1]+t2164)
			r_X_r3 := m.LoadF(t2165)
			t2166 := i_i1
			if t2166 < 0 || t2166 >= d_B[0] {
				return m.OOB(t2166, d_B[0], 0, "B", 12, 39)
			}
			t2167 := p_n - int64(1)
			t2168 := t2167
			if t2168 < 0 || t2168 >= d_B[1] {
				return m.OOB(t2168, d_B[1], 1, "B", 12, 39)
			}
			t2169 := b_B + int((t2166)*d_B[1]+t2168)
			r_B_r4 := m.LoadF(t2169)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t2170 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t2170
			t2171 := i_i1
			if t2171 < 0 || t2171 >= d_X[0] {
				return m.OOB(t2171, d_X[0], 0, "X", 12, 9)
			}
			t2172 := p_n - int64(1)
			t2173 := t2172
			if t2173 < 0 || t2173 >= d_X[1] {
				return m.OOB(t2173, d_X[1], 1, "X", 12, 9)
			}
			t2174 := b_X + int((t2171)*d_X[1]+t2173)
			m.StoreF(t2174, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		if err := run_adi_resilientopt_n38(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n39(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n40(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n41(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n42(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n43(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n45(m, cs, p_tsteps, p_n, b_X, d_X, b_B, d_B, i_t); err != nil {
			return err
		}
		t2764 := p_n - int64(2)
		t2765 := codegen.MaxI(int64(0), t2764)
		t2766 := p_n - int64(2)
		t2767 := codegen.MinI(t2766, int64(0))
		for i_i2 := t2765; i_i2 <= t2767; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2768 := p_n - int64(1)
			t2769 := t2768
			if t2769 < 0 || t2769 >= d_X[0] {
				return m.OOB(t2769, d_X[0], 0, "X", 26, 24)
			}
			t2770 := i_i2
			if t2770 < 0 || t2770 >= d_X[1] {
				return m.OOB(t2770, d_X[1], 1, "X", 26, 24)
			}
			t2771 := b_X + int((t2769)*d_X[1]+t2770)
			r_X_r8 := m.LoadF(t2771)
			t2772 := p_n - int64(1)
			t2773 := t2772
			if t2773 < 0 || t2773 >= d_B[0] {
				return m.OOB(t2773, d_B[0], 0, "B", 26, 39)
			}
			t2774 := i_i2
			if t2774 < 0 || t2774 >= d_B[1] {
				return m.OOB(t2774, d_B[1], 1, "B", 26, 39)
			}
			t2775 := b_B + int((t2773)*d_B[1]+t2774)
			r_B_r9 := m.LoadF(t2775)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t2776 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t2776
			t2777 := p_n - int64(1)
			t2778 := t2777
			if t2778 < 0 || t2778 >= d_X[0] {
				return m.OOB(t2778, d_X[0], 0, "X", 26, 9)
			}
			t2779 := i_i2
			if t2779 < 0 || t2779 >= d_X[1] {
				return m.OOB(t2779, d_X[1], 1, "X", 26, 9)
			}
			t2780 := b_X + int((t2778)*d_X[1]+t2779)
			m.StoreF(t2780, r_X_w5)
			t2781 := -i_t
			t2782 := t2781 + p_tsteps
			t2783 := t2782 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2783)
			t2784 := -i_t
			t2785 := t2784 + p_tsteps
			t2786 := t2785 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2786)
		}
		t2787 := p_n - int64(1)
		t2788 := codegen.MaxI(int64(0), t2787)
		t2789 := p_n - int64(1)
		t2790 := codegen.MinI(t2789, int64(0))
		for i_i2 := t2788; i_i2 <= t2790; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2791 := p_n - int64(1)
			t2792 := t2791
			if t2792 < 0 || t2792 >= d_X[0] {
				return m.OOB(t2792, d_X[0], 0, "X", 26, 24)
			}
			t2793 := i_i2
			if t2793 < 0 || t2793 >= d_X[1] {
				return m.OOB(t2793, d_X[1], 1, "X", 26, 24)
			}
			t2794 := b_X + int((t2792)*d_X[1]+t2793)
			r_X_r8 := m.LoadF(t2794)
			t2795 := p_n - int64(1)
			t2796 := t2795
			if t2796 < 0 || t2796 >= d_B[0] {
				return m.OOB(t2796, d_B[0], 0, "B", 26, 39)
			}
			t2797 := i_i2
			if t2797 < 0 || t2797 >= d_B[1] {
				return m.OOB(t2797, d_B[1], 1, "B", 26, 39)
			}
			t2798 := b_B + int((t2796)*d_B[1]+t2797)
			r_B_r9 := m.LoadF(t2798)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t2799 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t2799
			t2800 := p_n - int64(1)
			t2801 := t2800
			if t2801 < 0 || t2801 >= d_X[0] {
				return m.OOB(t2801, d_X[0], 0, "X", 26, 9)
			}
			t2802 := i_i2
			if t2802 < 0 || t2802 >= d_X[1] {
				return m.OOB(t2802, d_X[1], 1, "X", 26, 9)
			}
			t2803 := b_X + int((t2801)*d_X[1]+t2802)
			m.StoreF(t2803, r_X_w5)
			t2804 := -i_t
			t2805 := t2804 + p_tsteps
			t2806 := t2805 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2806)
		}
		t2807 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t2807; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2808 := p_n - int64(1)
			t2809 := t2808
			if t2809 < 0 || t2809 >= d_X[0] {
				return m.OOB(t2809, d_X[0], 0, "X", 26, 24)
			}
			t2810 := i_i2
			if t2810 < 0 || t2810 >= d_X[1] {
				return m.OOB(t2810, d_X[1], 1, "X", 26, 24)
			}
			t2811 := b_X + int((t2809)*d_X[1]+t2810)
			r_X_r8 := m.LoadF(t2811)
			t2812 := p_n - int64(1)
			t2813 := t2812
			if t2813 < 0 || t2813 >= d_B[0] {
				return m.OOB(t2813, d_B[0], 0, "B", 26, 39)
			}
			t2814 := i_i2
			if t2814 < 0 || t2814 >= d_B[1] {
				return m.OOB(t2814, d_B[1], 1, "B", 26, 39)
			}
			t2815 := b_B + int((t2813)*d_B[1]+t2814)
			r_B_r9 := m.LoadF(t2815)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t2816 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t2816
			t2817 := p_n - int64(1)
			t2818 := t2817
			if t2818 < 0 || t2818 >= d_X[0] {
				return m.OOB(t2818, d_X[0], 0, "X", 26, 9)
			}
			t2819 := i_i2
			if t2819 < 0 || t2819 >= d_X[1] {
				return m.OOB(t2819, d_X[1], 1, "X", 26, 9)
			}
			t2820 := b_X + int((t2818)*d_X[1]+t2819)
			m.StoreF(t2820, r_X_w5)
			t2821 := -i_t
			t2822 := t2821 + p_tsteps
			t2823 := t2822 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2823)
		}
		t2824 := p_n - int64(1)
		t2825 := codegen.MaxI(int64(1), t2824)
		t2826 := p_n - int64(1)
		for i_i2 := t2825; i_i2 <= t2826; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2827 := p_n - int64(1)
			t2828 := t2827
			if t2828 < 0 || t2828 >= d_X[0] {
				return m.OOB(t2828, d_X[0], 0, "X", 26, 24)
			}
			t2829 := i_i2
			if t2829 < 0 || t2829 >= d_X[1] {
				return m.OOB(t2829, d_X[1], 1, "X", 26, 24)
			}
			t2830 := b_X + int((t2828)*d_X[1]+t2829)
			r_X_r8 := m.LoadF(t2830)
			t2831 := p_n - int64(1)
			t2832 := t2831
			if t2832 < 0 || t2832 >= d_B[0] {
				return m.OOB(t2832, d_B[0], 0, "B", 26, 39)
			}
			t2833 := i_i2
			if t2833 < 0 || t2833 >= d_B[1] {
				return m.OOB(t2833, d_B[1], 1, "B", 26, 39)
			}
			t2834 := b_B + int((t2832)*d_B[1]+t2833)
			r_B_r9 := m.LoadF(t2834)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t2835 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t2835
			t2836 := p_n - int64(1)
			t2837 := t2836
			if t2837 < 0 || t2837 >= d_X[0] {
				return m.OOB(t2837, d_X[0], 0, "X", 26, 9)
			}
			t2838 := i_i2
			if t2838 < 0 || t2838 >= d_X[1] {
				return m.OOB(t2838, d_X[1], 1, "X", 26, 9)
			}
			t2839 := b_X + int((t2837)*d_X[1]+t2838)
			m.StoreF(t2839, r_X_w5)
			t2840 := -i_t
			t2841 := t2840 + p_tsteps
			t2842 := t2841 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2842)
		}
		if err := run_adi_resilientopt_n46(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilientopt_n35(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t1703 := p_n - int64(1)
	t1704 := codegen.MinI(t1703, int64(0))
	for i_i1 := int64(0); i_i1 <= t1704; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1705 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t1705; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1706 := i_i1
			if t1706 < 0 || t1706 >= d_X[0] {
				return m.OOB(t1706, d_X[0], 0, "X", 7, 23)
			}
			t1707 := i_i2
			if t1707 < 0 || t1707 >= d_X[1] {
				return m.OOB(t1707, d_X[1], 1, "X", 7, 23)
			}
			t1708 := b_X + int((t1706)*d_X[1]+t1707)
			r_X_r := m.LoadF(t1708)
			t1709 := i_i1
			if t1709 < 0 || t1709 >= d_X[0] {
				return m.OOB(t1709, d_X[0], 0, "X", 7, 35)
			}
			t1710 := i_i2 - int64(1)
			t1711 := t1710
			if t1711 < 0 || t1711 >= d_X[1] {
				return m.OOB(t1711, d_X[1], 1, "X", 7, 35)
			}
			t1712 := b_X + int((t1709)*d_X[1]+t1711)
			r_X_r2 := m.LoadF(t1712)
			t1713 := i_i1
			if t1713 < 0 || t1713 >= d_A[0] {
				return m.OOB(t1713, d_A[0], 0, "A", 7, 51)
			}
			t1714 := i_i2
			if t1714 < 0 || t1714 >= d_A[1] {
				return m.OOB(t1714, d_A[1], 1, "A", 7, 51)
			}
			t1715 := b_A + int((t1713)*d_A[1]+t1714)
			r_A_r := m.LoadF(t1715)
			t1716 := i_i1
			if t1716 < 0 || t1716 >= d_B[0] {
				return m.OOB(t1716, d_B[0], 0, "B", 7, 63)
			}
			t1717 := i_i2 - int64(1)
			t1718 := t1717
			if t1718 < 0 || t1718 >= d_B[1] {
				return m.OOB(t1718, d_B[1], 1, "B", 7, 63)
			}
			t1719 := b_B + int((t1716)*d_B[1]+t1718)
			r_B_r := m.LoadF(t1719)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1720 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1721 := float64(t1720 / r_B_r)
			t1722 := float64(r_X_r - t1721)
			r_X_w := t1722
			t1723 := i_i1
			if t1723 < 0 || t1723 >= d_X[0] {
				return m.OOB(t1723, d_X[0], 0, "X", 7, 11)
			}
			t1724 := i_i2
			if t1724 < 0 || t1724 >= d_X[1] {
				return m.OOB(t1724, d_X[1], 1, "X", 7, 11)
			}
			t1725 := b_X + int((t1723)*d_X[1]+t1724)
			m.StoreF(t1725, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t1726 := i_i1
			if t1726 < 0 || t1726 >= d_B[0] {
				return m.OOB(t1726, d_B[0], 0, "B", 8, 23)
			}
			t1727 := i_i2
			if t1727 < 0 || t1727 >= d_B[1] {
				return m.OOB(t1727, d_B[1], 1, "B", 8, 23)
			}
			t1728 := b_B + int((t1726)*d_B[1]+t1727)
			r_B_r2 := m.LoadF(t1728)
			t1729 := i_i1
			if t1729 < 0 || t1729 >= d_A[0] {
				return m.OOB(t1729, d_A[0], 0, "A", 8, 35)
			}
			t1730 := i_i2
			if t1730 < 0 || t1730 >= d_A[1] {
				return m.OOB(t1730, d_A[1], 1, "A", 8, 35)
			}
			t1731 := b_A + int((t1729)*d_A[1]+t1730)
			r_A_r2 := m.LoadF(t1731)
			t1732 := i_i1
			if t1732 < 0 || t1732 >= d_A[0] {
				return m.OOB(t1732, d_A[0], 0, "A", 8, 47)
			}
			t1733 := i_i2
			if t1733 < 0 || t1733 >= d_A[1] {
				return m.OOB(t1733, d_A[1], 1, "A", 8, 47)
			}
			t1734 := b_A + int((t1732)*d_A[1]+t1733)
			r_A_r3 := m.LoadF(t1734)
			t1735 := i_i1
			if t1735 < 0 || t1735 >= d_B[0] {
				return m.OOB(t1735, d_B[0], 0, "B", 8, 59)
			}
			t1736 := i_i2 - int64(1)
			t1737 := t1736
			if t1737 < 0 || t1737 >= d_B[1] {
				return m.OOB(t1737, d_B[1], 1, "B", 8, 59)
			}
			t1738 := b_B + int((t1735)*d_B[1]+t1737)
			r_B_r3 := m.LoadF(t1738)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t1739 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t1740 := float64(t1739 / r_B_r3)
			t1741 := float64(r_B_r2 - t1740)
			r_B_w := t1741
			t1742 := i_i1
			if t1742 < 0 || t1742 >= d_B[0] {
				return m.OOB(t1742, d_B[0], 0, "B", 8, 11)
			}
			t1743 := i_i2
			if t1743 < 0 || t1743 >= d_B[1] {
				return m.OOB(t1743, d_B[1], 1, "B", 8, 11)
			}
			t1744 := b_B + int((t1742)*d_B[1]+t1743)
			m.StoreF(t1744, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			t1745 := -i_t
			t1746 := t1745 + p_tsteps
			t1747 := t1746 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t1747)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t1748 := p_n - int64(2)
		t1749 := codegen.MaxI(int64(1), t1748)
		t1750 := p_n - int64(2)
		for i_i2 := t1749; i_i2 <= t1750; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1751 := i_i1
			if t1751 < 0 || t1751 >= d_X[0] {
				return m.OOB(t1751, d_X[0], 0, "X", 7, 23)
			}
			t1752 := i_i2
			if t1752 < 0 || t1752 >= d_X[1] {
				return m.OOB(t1752, d_X[1], 1, "X", 7, 23)
			}
			t1753 := b_X + int((t1751)*d_X[1]+t1752)
			r_X_r := m.LoadF(t1753)
			t1754 := i_i1
			if t1754 < 0 || t1754 >= d_X[0] {
				return m.OOB(t1754, d_X[0], 0, "X", 7, 35)
			}
			t1755 := i_i2 - int64(1)
			t1756 := t1755
			if t1756 < 0 || t1756 >= d_X[1] {
				return m.OOB(t1756, d_X[1], 1, "X", 7, 35)
			}
			t1757 := b_X + int((t1754)*d_X[1]+t1756)
			r_X_r2 := m.LoadF(t1757)
			t1758 := i_i1
			if t1758 < 0 || t1758 >= d_A[0] {
				return m.OOB(t1758, d_A[0], 0, "A", 7, 51)
			}
			t1759 := i_i2
			if t1759 < 0 || t1759 >= d_A[1] {
				return m.OOB(t1759, d_A[1], 1, "A", 7, 51)
			}
			t1760 := b_A + int((t1758)*d_A[1]+t1759)
			r_A_r := m.LoadF(t1760)
			t1761 := i_i1
			if t1761 < 0 || t1761 >= d_B[0] {
				return m.OOB(t1761, d_B[0], 0, "B", 7, 63)
			}
			t1762 := i_i2 - int64(1)
			t1763 := t1762
			if t1763 < 0 || t1763 >= d_B[1] {
				return m.OOB(t1763, d_B[1], 1, "B", 7, 63)
			}
			t1764 := b_B + int((t1761)*d_B[1]+t1763)
			r_B_r := m.LoadF(t1764)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1765 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1766 := float64(t1765 / r_B_r)
			t1767 := float64(r_X_r - t1766)
			r_X_w := t1767
			t1768 := i_i1
			if t1768 < 0 || t1768 >= d_X[0] {
				return m.OOB(t1768, d_X[0], 0, "X", 7, 11)
			}
			t1769 := i_i2
			if t1769 < 0 || t1769 >= d_X[1] {
				return m.OOB(t1769, d_X[1], 1, "X", 7, 11)
			}
			t1770 := b_X + int((t1768)*d_X[1]+t1769)
			m.StoreF(t1770, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t1771 := i_i1
			if t1771 < 0 || t1771 >= d_B[0] {
				return m.OOB(t1771, d_B[0], 0, "B", 8, 23)
			}
			t1772 := i_i2
			if t1772 < 0 || t1772 >= d_B[1] {
				return m.OOB(t1772, d_B[1], 1, "B", 8, 23)
			}
			t1773 := b_B + int((t1771)*d_B[1]+t1772)
			r_B_r2 := m.LoadF(t1773)
			t1774 := i_i1
			if t1774 < 0 || t1774 >= d_A[0] {
				return m.OOB(t1774, d_A[0], 0, "A", 8, 35)
			}
			t1775 := i_i2
			if t1775 < 0 || t1775 >= d_A[1] {
				return m.OOB(t1775, d_A[1], 1, "A", 8, 35)
			}
			t1776 := b_A + int((t1774)*d_A[1]+t1775)
			r_A_r2 := m.LoadF(t1776)
			t1777 := i_i1
			if t1777 < 0 || t1777 >= d_A[0] {
				return m.OOB(t1777, d_A[0], 0, "A", 8, 47)
			}
			t1778 := i_i2
			if t1778 < 0 || t1778 >= d_A[1] {
				return m.OOB(t1778, d_A[1], 1, "A", 8, 47)
			}
			t1779 := b_A + int((t1777)*d_A[1]+t1778)
			r_A_r3 := m.LoadF(t1779)
			t1780 := i_i1
			if t1780 < 0 || t1780 >= d_B[0] {
				return m.OOB(t1780, d_B[0], 0, "B", 8, 59)
			}
			t1781 := i_i2 - int64(1)
			t1782 := t1781
			if t1782 < 0 || t1782 >= d_B[1] {
				return m.OOB(t1782, d_B[1], 1, "B", 8, 59)
			}
			t1783 := b_B + int((t1780)*d_B[1]+t1782)
			r_B_r3 := m.LoadF(t1783)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t1784 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t1785 := float64(t1784 / r_B_r3)
			t1786 := float64(r_B_r2 - t1785)
			r_B_w := t1786
			t1787 := i_i1
			if t1787 < 0 || t1787 >= d_B[0] {
				return m.OOB(t1787, d_B[0], 0, "B", 8, 11)
			}
			t1788 := i_i2
			if t1788 < 0 || t1788 >= d_B[1] {
				return m.OOB(t1788, d_B[1], 1, "B", 8, 11)
			}
			t1789 := b_B + int((t1787)*d_B[1]+t1788)
			m.StoreF(t1789, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			t1790 := -i_t
			t1791 := t1790 + p_tsteps
			t1792 := t1791 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t1792)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t1793 := p_n - int64(1)
		t1794 := codegen.MaxI(int64(1), t1793)
		t1795 := p_n - int64(1)
		for i_i2 := t1794; i_i2 <= t1795; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1796 := i_i1
			if t1796 < 0 || t1796 >= d_X[0] {
				return m.OOB(t1796, d_X[0], 0, "X", 7, 23)
			}
			t1797 := i_i2
			if t1797 < 0 || t1797 >= d_X[1] {
				return m.OOB(t1797, d_X[1], 1, "X", 7, 23)
			}
			t1798 := b_X + int((t1796)*d_X[1]+t1797)
			r_X_r := m.LoadF(t1798)
			t1799 := i_i1
			if t1799 < 0 || t1799 >= d_X[0] {
				return m.OOB(t1799, d_X[0], 0, "X", 7, 35)
			}
			t1800 := i_i2 - int64(1)
			t1801 := t1800
			if t1801 < 0 || t1801 >= d_X[1] {
				return m.OOB(t1801, d_X[1], 1, "X", 7, 35)
			}
			t1802 := b_X + int((t1799)*d_X[1]+t1801)
			r_X_r2 := m.LoadF(t1802)
			t1803 := i_i1
			if t1803 < 0 || t1803 >= d_A[0] {
				return m.OOB(t1803, d_A[0], 0, "A", 7, 51)
			}
			t1804 := i_i2
			if t1804 < 0 || t1804 >= d_A[1] {
				return m.OOB(t1804, d_A[1], 1, "A", 7, 51)
			}
			t1805 := b_A + int((t1803)*d_A[1]+t1804)
			r_A_r := m.LoadF(t1805)
			t1806 := i_i1
			if t1806 < 0 || t1806 >= d_B[0] {
				return m.OOB(t1806, d_B[0], 0, "B", 7, 63)
			}
			t1807 := i_i2 - int64(1)
			t1808 := t1807
			if t1808 < 0 || t1808 >= d_B[1] {
				return m.OOB(t1808, d_B[1], 1, "B", 7, 63)
			}
			t1809 := b_B + int((t1806)*d_B[1]+t1808)
			r_B_r := m.LoadF(t1809)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1810 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1811 := float64(t1810 / r_B_r)
			t1812 := float64(r_X_r - t1811)
			r_X_w := t1812
			t1813 := i_i1
			if t1813 < 0 || t1813 >= d_X[0] {
				return m.OOB(t1813, d_X[0], 0, "X", 7, 11)
			}
			t1814 := i_i2
			if t1814 < 0 || t1814 >= d_X[1] {
				return m.OOB(t1814, d_X[1], 1, "X", 7, 11)
			}
			t1815 := b_X + int((t1813)*d_X[1]+t1814)
			m.StoreF(t1815, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t1816 := i_i1
			if t1816 < 0 || t1816 >= d_B[0] {
				return m.OOB(t1816, d_B[0], 0, "B", 8, 23)
			}
			t1817 := i_i2
			if t1817 < 0 || t1817 >= d_B[1] {
				return m.OOB(t1817, d_B[1], 1, "B", 8, 23)
			}
			t1818 := b_B + int((t1816)*d_B[1]+t1817)
			r_B_r2 := m.LoadF(t1818)
			t1819 := i_i1
			if t1819 < 0 || t1819 >= d_A[0] {
				return m.OOB(t1819, d_A[0], 0, "A", 8, 35)
			}
			t1820 := i_i2
			if t1820 < 0 || t1820 >= d_A[1] {
				return m.OOB(t1820, d_A[1], 1, "A", 8, 35)
			}
			t1821 := b_A + int((t1819)*d_A[1]+t1820)
			r_A_r2 := m.LoadF(t1821)
			t1822 := i_i1
			if t1822 < 0 || t1822 >= d_A[0] {
				return m.OOB(t1822, d_A[0], 0, "A", 8, 47)
			}
			t1823 := i_i2
			if t1823 < 0 || t1823 >= d_A[1] {
				return m.OOB(t1823, d_A[1], 1, "A", 8, 47)
			}
			t1824 := b_A + int((t1822)*d_A[1]+t1823)
			r_A_r3 := m.LoadF(t1824)
			t1825 := i_i1
			if t1825 < 0 || t1825 >= d_B[0] {
				return m.OOB(t1825, d_B[0], 0, "B", 8, 59)
			}
			t1826 := i_i2 - int64(1)
			t1827 := t1826
			if t1827 < 0 || t1827 >= d_B[1] {
				return m.OOB(t1827, d_B[1], 1, "B", 8, 59)
			}
			t1828 := b_B + int((t1825)*d_B[1]+t1827)
			r_B_r3 := m.LoadF(t1828)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t1829 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t1830 := float64(t1829 / r_B_r3)
			t1831 := float64(r_B_r2 - t1830)
			r_B_w := t1831
			t1832 := i_i1
			if t1832 < 0 || t1832 >= d_B[0] {
				return m.OOB(t1832, d_B[0], 0, "B", 8, 11)
			}
			t1833 := i_i2
			if t1833 < 0 || t1833 >= d_B[1] {
				return m.OOB(t1833, d_B[1], 1, "B", 8, 11)
			}
			t1834 := b_B + int((t1832)*d_B[1]+t1833)
			m.StoreF(t1834, r_B_w)
			t1835 := -i_t
			t1836 := t1835 + p_tsteps
			t1837 := t1836 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t1837)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n36(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1838 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t1838; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1839 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t1839; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1840 := i_i1
			if t1840 < 0 || t1840 >= d_X[0] {
				return m.OOB(t1840, d_X[0], 0, "X", 7, 23)
			}
			t1841 := i_i2
			if t1841 < 0 || t1841 >= d_X[1] {
				return m.OOB(t1841, d_X[1], 1, "X", 7, 23)
			}
			t1842 := b_X + int((t1840)*d_X[1]+t1841)
			r_X_r := m.LoadF(t1842)
			t1843 := i_i1
			if t1843 < 0 || t1843 >= d_X[0] {
				return m.OOB(t1843, d_X[0], 0, "X", 7, 35)
			}
			t1844 := i_i2 - int64(1)
			t1845 := t1844
			if t1845 < 0 || t1845 >= d_X[1] {
				return m.OOB(t1845, d_X[1], 1, "X", 7, 35)
			}
			t1846 := b_X + int((t1843)*d_X[1]+t1845)
			r_X_r2 := m.LoadF(t1846)
			t1847 := i_i1
			if t1847 < 0 || t1847 >= d_A[0] {
				return m.OOB(t1847, d_A[0], 0, "A", 7, 51)
			}
			t1848 := i_i2
			if t1848 < 0 || t1848 >= d_A[1] {
				return m.OOB(t1848, d_A[1], 1, "A", 7, 51)
			}
			t1849 := b_A + int((t1847)*d_A[1]+t1848)
			r_A_r := m.LoadF(t1849)
			t1850 := i_i1
			if t1850 < 0 || t1850 >= d_B[0] {
				return m.OOB(t1850, d_B[0], 0, "B", 7, 63)
			}
			t1851 := i_i2 - int64(1)
			t1852 := t1851
			if t1852 < 0 || t1852 >= d_B[1] {
				return m.OOB(t1852, d_B[1], 1, "B", 7, 63)
			}
			t1853 := b_B + int((t1850)*d_B[1]+t1852)
			r_B_r := m.LoadF(t1853)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1854 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1855 := float64(t1854 / r_B_r)
			t1856 := float64(r_X_r - t1855)
			r_X_w := t1856
			t1857 := i_i1
			if t1857 < 0 || t1857 >= d_X[0] {
				return m.OOB(t1857, d_X[0], 0, "X", 7, 11)
			}
			t1858 := i_i2
			if t1858 < 0 || t1858 >= d_X[1] {
				return m.OOB(t1858, d_X[1], 1, "X", 7, 11)
			}
			t1859 := b_X + int((t1857)*d_X[1]+t1858)
			m.StoreF(t1859, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t1860 := i_i1
			if t1860 < 0 || t1860 >= d_B[0] {
				return m.OOB(t1860, d_B[0], 0, "B", 8, 23)
			}
			t1861 := i_i2
			if t1861 < 0 || t1861 >= d_B[1] {
				return m.OOB(t1861, d_B[1], 1, "B", 8, 23)
			}
			t1862 := b_B + int((t1860)*d_B[1]+t1861)
			r_B_r2 := m.LoadF(t1862)
			t1863 := i_i1
			if t1863 < 0 || t1863 >= d_A[0] {
				return m.OOB(t1863, d_A[0], 0, "A", 8, 35)
			}
			t1864 := i_i2
			if t1864 < 0 || t1864 >= d_A[1] {
				return m.OOB(t1864, d_A[1], 1, "A", 8, 35)
			}
			t1865 := b_A + int((t1863)*d_A[1]+t1864)
			r_A_r2 := m.LoadF(t1865)
			t1866 := i_i1
			if t1866 < 0 || t1866 >= d_A[0] {
				return m.OOB(t1866, d_A[0], 0, "A", 8, 47)
			}
			t1867 := i_i2
			if t1867 < 0 || t1867 >= d_A[1] {
				return m.OOB(t1867, d_A[1], 1, "A", 8, 47)
			}
			t1868 := b_A + int((t1866)*d_A[1]+t1867)
			r_A_r3 := m.LoadF(t1868)
			t1869 := i_i1
			if t1869 < 0 || t1869 >= d_B[0] {
				return m.OOB(t1869, d_B[0], 0, "B", 8, 59)
			}
			t1870 := i_i2 - int64(1)
			t1871 := t1870
			if t1871 < 0 || t1871 >= d_B[1] {
				return m.OOB(t1871, d_B[1], 1, "B", 8, 59)
			}
			t1872 := b_B + int((t1869)*d_B[1]+t1871)
			r_B_r3 := m.LoadF(t1872)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t1873 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t1874 := float64(t1873 / r_B_r3)
			t1875 := float64(r_B_r2 - t1874)
			r_B_w := t1875
			t1876 := i_i1
			if t1876 < 0 || t1876 >= d_B[0] {
				return m.OOB(t1876, d_B[0], 0, "B", 8, 11)
			}
			t1877 := i_i2
			if t1877 < 0 || t1877 >= d_B[1] {
				return m.OOB(t1877, d_B[1], 1, "B", 8, 11)
			}
			t1878 := b_B + int((t1876)*d_B[1]+t1877)
			m.StoreF(t1878, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1879 := p_n - int64(2)
		t1880 := codegen.MaxI(int64(1), t1879)
		t1881 := p_n - int64(2)
		for i_i2 := t1880; i_i2 <= t1881; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1882 := i_i1
			if t1882 < 0 || t1882 >= d_X[0] {
				return m.OOB(t1882, d_X[0], 0, "X", 7, 23)
			}
			t1883 := i_i2
			if t1883 < 0 || t1883 >= d_X[1] {
				return m.OOB(t1883, d_X[1], 1, "X", 7, 23)
			}
			t1884 := b_X + int((t1882)*d_X[1]+t1883)
			r_X_r := m.LoadF(t1884)
			t1885 := i_i1
			if t1885 < 0 || t1885 >= d_X[0] {
				return m.OOB(t1885, d_X[0], 0, "X", 7, 35)
			}
			t1886 := i_i2 - int64(1)
			t1887 := t1886
			if t1887 < 0 || t1887 >= d_X[1] {
				return m.OOB(t1887, d_X[1], 1, "X", 7, 35)
			}
			t1888 := b_X + int((t1885)*d_X[1]+t1887)
			r_X_r2 := m.LoadF(t1888)
			t1889 := i_i1
			if t1889 < 0 || t1889 >= d_A[0] {
				return m.OOB(t1889, d_A[0], 0, "A", 7, 51)
			}
			t1890 := i_i2
			if t1890 < 0 || t1890 >= d_A[1] {
				return m.OOB(t1890, d_A[1], 1, "A", 7, 51)
			}
			t1891 := b_A + int((t1889)*d_A[1]+t1890)
			r_A_r := m.LoadF(t1891)
			t1892 := i_i1
			if t1892 < 0 || t1892 >= d_B[0] {
				return m.OOB(t1892, d_B[0], 0, "B", 7, 63)
			}
			t1893 := i_i2 - int64(1)
			t1894 := t1893
			if t1894 < 0 || t1894 >= d_B[1] {
				return m.OOB(t1894, d_B[1], 1, "B", 7, 63)
			}
			t1895 := b_B + int((t1892)*d_B[1]+t1894)
			r_B_r := m.LoadF(t1895)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1896 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1897 := float64(t1896 / r_B_r)
			t1898 := float64(r_X_r - t1897)
			r_X_w := t1898
			t1899 := i_i1
			if t1899 < 0 || t1899 >= d_X[0] {
				return m.OOB(t1899, d_X[0], 0, "X", 7, 11)
			}
			t1900 := i_i2
			if t1900 < 0 || t1900 >= d_X[1] {
				return m.OOB(t1900, d_X[1], 1, "X", 7, 11)
			}
			t1901 := b_X + int((t1899)*d_X[1]+t1900)
			m.StoreF(t1901, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t1902 := i_i1
			if t1902 < 0 || t1902 >= d_B[0] {
				return m.OOB(t1902, d_B[0], 0, "B", 8, 23)
			}
			t1903 := i_i2
			if t1903 < 0 || t1903 >= d_B[1] {
				return m.OOB(t1903, d_B[1], 1, "B", 8, 23)
			}
			t1904 := b_B + int((t1902)*d_B[1]+t1903)
			r_B_r2 := m.LoadF(t1904)
			t1905 := i_i1
			if t1905 < 0 || t1905 >= d_A[0] {
				return m.OOB(t1905, d_A[0], 0, "A", 8, 35)
			}
			t1906 := i_i2
			if t1906 < 0 || t1906 >= d_A[1] {
				return m.OOB(t1906, d_A[1], 1, "A", 8, 35)
			}
			t1907 := b_A + int((t1905)*d_A[1]+t1906)
			r_A_r2 := m.LoadF(t1907)
			t1908 := i_i1
			if t1908 < 0 || t1908 >= d_A[0] {
				return m.OOB(t1908, d_A[0], 0, "A", 8, 47)
			}
			t1909 := i_i2
			if t1909 < 0 || t1909 >= d_A[1] {
				return m.OOB(t1909, d_A[1], 1, "A", 8, 47)
			}
			t1910 := b_A + int((t1908)*d_A[1]+t1909)
			r_A_r3 := m.LoadF(t1910)
			t1911 := i_i1
			if t1911 < 0 || t1911 >= d_B[0] {
				return m.OOB(t1911, d_B[0], 0, "B", 8, 59)
			}
			t1912 := i_i2 - int64(1)
			t1913 := t1912
			if t1913 < 0 || t1913 >= d_B[1] {
				return m.OOB(t1913, d_B[1], 1, "B", 8, 59)
			}
			t1914 := b_B + int((t1911)*d_B[1]+t1913)
			r_B_r3 := m.LoadF(t1914)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t1915 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t1916 := float64(t1915 / r_B_r3)
			t1917 := float64(r_B_r2 - t1916)
			r_B_w := t1917
			t1918 := i_i1
			if t1918 < 0 || t1918 >= d_B[0] {
				return m.OOB(t1918, d_B[0], 0, "B", 8, 11)
			}
			t1919 := i_i2
			if t1919 < 0 || t1919 >= d_B[1] {
				return m.OOB(t1919, d_B[1], 1, "B", 8, 11)
			}
			t1920 := b_B + int((t1918)*d_B[1]+t1919)
			m.StoreF(t1920, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t1921 := p_n - int64(1)
		t1922 := codegen.MaxI(int64(1), t1921)
		t1923 := p_n - int64(1)
		for i_i2 := t1922; i_i2 <= t1923; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1924 := i_i1
			if t1924 < 0 || t1924 >= d_X[0] {
				return m.OOB(t1924, d_X[0], 0, "X", 7, 23)
			}
			t1925 := i_i2
			if t1925 < 0 || t1925 >= d_X[1] {
				return m.OOB(t1925, d_X[1], 1, "X", 7, 23)
			}
			t1926 := b_X + int((t1924)*d_X[1]+t1925)
			r_X_r := m.LoadF(t1926)
			t1927 := i_i1
			if t1927 < 0 || t1927 >= d_X[0] {
				return m.OOB(t1927, d_X[0], 0, "X", 7, 35)
			}
			t1928 := i_i2 - int64(1)
			t1929 := t1928
			if t1929 < 0 || t1929 >= d_X[1] {
				return m.OOB(t1929, d_X[1], 1, "X", 7, 35)
			}
			t1930 := b_X + int((t1927)*d_X[1]+t1929)
			r_X_r2 := m.LoadF(t1930)
			t1931 := i_i1
			if t1931 < 0 || t1931 >= d_A[0] {
				return m.OOB(t1931, d_A[0], 0, "A", 7, 51)
			}
			t1932 := i_i2
			if t1932 < 0 || t1932 >= d_A[1] {
				return m.OOB(t1932, d_A[1], 1, "A", 7, 51)
			}
			t1933 := b_A + int((t1931)*d_A[1]+t1932)
			r_A_r := m.LoadF(t1933)
			t1934 := i_i1
			if t1934 < 0 || t1934 >= d_B[0] {
				return m.OOB(t1934, d_B[0], 0, "B", 7, 63)
			}
			t1935 := i_i2 - int64(1)
			t1936 := t1935
			if t1936 < 0 || t1936 >= d_B[1] {
				return m.OOB(t1936, d_B[1], 1, "B", 7, 63)
			}
			t1937 := b_B + int((t1934)*d_B[1]+t1936)
			r_B_r := m.LoadF(t1937)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1938 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1939 := float64(t1938 / r_B_r)
			t1940 := float64(r_X_r - t1939)
			r_X_w := t1940
			t1941 := i_i1
			if t1941 < 0 || t1941 >= d_X[0] {
				return m.OOB(t1941, d_X[0], 0, "X", 7, 11)
			}
			t1942 := i_i2
			if t1942 < 0 || t1942 >= d_X[1] {
				return m.OOB(t1942, d_X[1], 1, "X", 7, 11)
			}
			t1943 := b_X + int((t1941)*d_X[1]+t1942)
			m.StoreF(t1943, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t1944 := i_i1
			if t1944 < 0 || t1944 >= d_B[0] {
				return m.OOB(t1944, d_B[0], 0, "B", 8, 23)
			}
			t1945 := i_i2
			if t1945 < 0 || t1945 >= d_B[1] {
				return m.OOB(t1945, d_B[1], 1, "B", 8, 23)
			}
			t1946 := b_B + int((t1944)*d_B[1]+t1945)
			r_B_r2 := m.LoadF(t1946)
			t1947 := i_i1
			if t1947 < 0 || t1947 >= d_A[0] {
				return m.OOB(t1947, d_A[0], 0, "A", 8, 35)
			}
			t1948 := i_i2
			if t1948 < 0 || t1948 >= d_A[1] {
				return m.OOB(t1948, d_A[1], 1, "A", 8, 35)
			}
			t1949 := b_A + int((t1947)*d_A[1]+t1948)
			r_A_r2 := m.LoadF(t1949)
			t1950 := i_i1
			if t1950 < 0 || t1950 >= d_A[0] {
				return m.OOB(t1950, d_A[0], 0, "A", 8, 47)
			}
			t1951 := i_i2
			if t1951 < 0 || t1951 >= d_A[1] {
				return m.OOB(t1951, d_A[1], 1, "A", 8, 47)
			}
			t1952 := b_A + int((t1950)*d_A[1]+t1951)
			r_A_r3 := m.LoadF(t1952)
			t1953 := i_i1
			if t1953 < 0 || t1953 >= d_B[0] {
				return m.OOB(t1953, d_B[0], 0, "B", 8, 59)
			}
			t1954 := i_i2 - int64(1)
			t1955 := t1954
			if t1955 < 0 || t1955 >= d_B[1] {
				return m.OOB(t1955, d_B[1], 1, "B", 8, 59)
			}
			t1956 := b_B + int((t1953)*d_B[1]+t1955)
			r_B_r3 := m.LoadF(t1956)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t1957 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t1958 := float64(t1957 / r_B_r3)
			t1959 := float64(r_B_r2 - t1958)
			r_B_w := t1959
			t1960 := i_i1
			if t1960 < 0 || t1960 >= d_B[0] {
				return m.OOB(t1960, d_B[0], 0, "B", 8, 11)
			}
			t1961 := i_i2
			if t1961 < 0 || t1961 >= d_B[1] {
				return m.OOB(t1961, d_B[1], 1, "B", 8, 11)
			}
			t1962 := b_B + int((t1960)*d_B[1]+t1961)
			m.StoreF(t1962, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n37(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t1963 := p_n - int64(1)
	t1964 := codegen.MaxI(int64(1), t1963)
	t1965 := p_n - int64(1)
	for i_i1 := t1964; i_i1 <= t1965; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t1966 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t1966; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t1967 := i_i1
			if t1967 < 0 || t1967 >= d_X[0] {
				return m.OOB(t1967, d_X[0], 0, "X", 7, 23)
			}
			t1968 := i_i2
			if t1968 < 0 || t1968 >= d_X[1] {
				return m.OOB(t1968, d_X[1], 1, "X", 7, 23)
			}
			t1969 := b_X + int((t1967)*d_X[1]+t1968)
			r_X_r := m.LoadF(t1969)
			t1970 := i_i1
			if t1970 < 0 || t1970 >= d_X[0] {
				return m.OOB(t1970, d_X[0], 0, "X", 7, 35)
			}
			t1971 := i_i2 - int64(1)
			t1972 := t1971
			if t1972 < 0 || t1972 >= d_X[1] {
				return m.OOB(t1972, d_X[1], 1, "X", 7, 35)
			}
			t1973 := b_X + int((t1970)*d_X[1]+t1972)
			r_X_r2 := m.LoadF(t1973)
			t1974 := i_i1
			if t1974 < 0 || t1974 >= d_A[0] {
				return m.OOB(t1974, d_A[0], 0, "A", 7, 51)
			}
			t1975 := i_i2
			if t1975 < 0 || t1975 >= d_A[1] {
				return m.OOB(t1975, d_A[1], 1, "A", 7, 51)
			}
			t1976 := b_A + int((t1974)*d_A[1]+t1975)
			r_A_r := m.LoadF(t1976)
			t1977 := i_i1
			if t1977 < 0 || t1977 >= d_B[0] {
				return m.OOB(t1977, d_B[0], 0, "B", 7, 63)
			}
			t1978 := i_i2 - int64(1)
			t1979 := t1978
			if t1979 < 0 || t1979 >= d_B[1] {
				return m.OOB(t1979, d_B[1], 1, "B", 7, 63)
			}
			t1980 := b_B + int((t1977)*d_B[1]+t1979)
			r_B_r := m.LoadF(t1980)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t1981 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t1982 := float64(t1981 / r_B_r)
			t1983 := float64(r_X_r - t1982)
			r_X_w := t1983
			t1984 := i_i1
			if t1984 < 0 || t1984 >= d_X[0] {
				return m.OOB(t1984, d_X[0], 0, "X", 7, 11)
			}
			t1985 := i_i2
			if t1985 < 0 || t1985 >= d_X[1] {
				return m.OOB(t1985, d_X[1], 1, "X", 7, 11)
			}
			t1986 := b_X + int((t1984)*d_X[1]+t1985)
			m.StoreF(t1986, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t1987 := i_i1
			if t1987 < 0 || t1987 >= d_B[0] {
				return m.OOB(t1987, d_B[0], 0, "B", 8, 23)
			}
			t1988 := i_i2
			if t1988 < 0 || t1988 >= d_B[1] {
				return m.OOB(t1988, d_B[1], 1, "B", 8, 23)
			}
			t1989 := b_B + int((t1987)*d_B[1]+t1988)
			r_B_r2 := m.LoadF(t1989)
			t1990 := i_i1
			if t1990 < 0 || t1990 >= d_A[0] {
				return m.OOB(t1990, d_A[0], 0, "A", 8, 35)
			}
			t1991 := i_i2
			if t1991 < 0 || t1991 >= d_A[1] {
				return m.OOB(t1991, d_A[1], 1, "A", 8, 35)
			}
			t1992 := b_A + int((t1990)*d_A[1]+t1991)
			r_A_r2 := m.LoadF(t1992)
			t1993 := i_i1
			if t1993 < 0 || t1993 >= d_A[0] {
				return m.OOB(t1993, d_A[0], 0, "A", 8, 47)
			}
			t1994 := i_i2
			if t1994 < 0 || t1994 >= d_A[1] {
				return m.OOB(t1994, d_A[1], 1, "A", 8, 47)
			}
			t1995 := b_A + int((t1993)*d_A[1]+t1994)
			r_A_r3 := m.LoadF(t1995)
			t1996 := i_i1
			if t1996 < 0 || t1996 >= d_B[0] {
				return m.OOB(t1996, d_B[0], 0, "B", 8, 59)
			}
			t1997 := i_i2 - int64(1)
			t1998 := t1997
			if t1998 < 0 || t1998 >= d_B[1] {
				return m.OOB(t1998, d_B[1], 1, "B", 8, 59)
			}
			t1999 := b_B + int((t1996)*d_B[1]+t1998)
			r_B_r3 := m.LoadF(t1999)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t2000 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t2001 := float64(t2000 / r_B_r3)
			t2002 := float64(r_B_r2 - t2001)
			r_B_w := t2002
			t2003 := i_i1
			if t2003 < 0 || t2003 >= d_B[0] {
				return m.OOB(t2003, d_B[0], 0, "B", 8, 11)
			}
			t2004 := i_i2
			if t2004 < 0 || t2004 >= d_B[1] {
				return m.OOB(t2004, d_B[1], 1, "B", 8, 11)
			}
			t2005 := b_B + int((t2003)*d_B[1]+t2004)
			m.StoreF(t2005, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t2006 := p_n - int64(2)
		t2007 := codegen.MaxI(int64(1), t2006)
		t2008 := p_n - int64(2)
		for i_i2 := t2007; i_i2 <= t2008; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2009 := i_i1
			if t2009 < 0 || t2009 >= d_X[0] {
				return m.OOB(t2009, d_X[0], 0, "X", 7, 23)
			}
			t2010 := i_i2
			if t2010 < 0 || t2010 >= d_X[1] {
				return m.OOB(t2010, d_X[1], 1, "X", 7, 23)
			}
			t2011 := b_X + int((t2009)*d_X[1]+t2010)
			r_X_r := m.LoadF(t2011)
			t2012 := i_i1
			if t2012 < 0 || t2012 >= d_X[0] {
				return m.OOB(t2012, d_X[0], 0, "X", 7, 35)
			}
			t2013 := i_i2 - int64(1)
			t2014 := t2013
			if t2014 < 0 || t2014 >= d_X[1] {
				return m.OOB(t2014, d_X[1], 1, "X", 7, 35)
			}
			t2015 := b_X + int((t2012)*d_X[1]+t2014)
			r_X_r2 := m.LoadF(t2015)
			t2016 := i_i1
			if t2016 < 0 || t2016 >= d_A[0] {
				return m.OOB(t2016, d_A[0], 0, "A", 7, 51)
			}
			t2017 := i_i2
			if t2017 < 0 || t2017 >= d_A[1] {
				return m.OOB(t2017, d_A[1], 1, "A", 7, 51)
			}
			t2018 := b_A + int((t2016)*d_A[1]+t2017)
			r_A_r := m.LoadF(t2018)
			t2019 := i_i1
			if t2019 < 0 || t2019 >= d_B[0] {
				return m.OOB(t2019, d_B[0], 0, "B", 7, 63)
			}
			t2020 := i_i2 - int64(1)
			t2021 := t2020
			if t2021 < 0 || t2021 >= d_B[1] {
				return m.OOB(t2021, d_B[1], 1, "B", 7, 63)
			}
			t2022 := b_B + int((t2019)*d_B[1]+t2021)
			r_B_r := m.LoadF(t2022)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t2023 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t2024 := float64(t2023 / r_B_r)
			t2025 := float64(r_X_r - t2024)
			r_X_w := t2025
			t2026 := i_i1
			if t2026 < 0 || t2026 >= d_X[0] {
				return m.OOB(t2026, d_X[0], 0, "X", 7, 11)
			}
			t2027 := i_i2
			if t2027 < 0 || t2027 >= d_X[1] {
				return m.OOB(t2027, d_X[1], 1, "X", 7, 11)
			}
			t2028 := b_X + int((t2026)*d_X[1]+t2027)
			m.StoreF(t2028, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t2029 := i_i1
			if t2029 < 0 || t2029 >= d_B[0] {
				return m.OOB(t2029, d_B[0], 0, "B", 8, 23)
			}
			t2030 := i_i2
			if t2030 < 0 || t2030 >= d_B[1] {
				return m.OOB(t2030, d_B[1], 1, "B", 8, 23)
			}
			t2031 := b_B + int((t2029)*d_B[1]+t2030)
			r_B_r2 := m.LoadF(t2031)
			t2032 := i_i1
			if t2032 < 0 || t2032 >= d_A[0] {
				return m.OOB(t2032, d_A[0], 0, "A", 8, 35)
			}
			t2033 := i_i2
			if t2033 < 0 || t2033 >= d_A[1] {
				return m.OOB(t2033, d_A[1], 1, "A", 8, 35)
			}
			t2034 := b_A + int((t2032)*d_A[1]+t2033)
			r_A_r2 := m.LoadF(t2034)
			t2035 := i_i1
			if t2035 < 0 || t2035 >= d_A[0] {
				return m.OOB(t2035, d_A[0], 0, "A", 8, 47)
			}
			t2036 := i_i2
			if t2036 < 0 || t2036 >= d_A[1] {
				return m.OOB(t2036, d_A[1], 1, "A", 8, 47)
			}
			t2037 := b_A + int((t2035)*d_A[1]+t2036)
			r_A_r3 := m.LoadF(t2037)
			t2038 := i_i1
			if t2038 < 0 || t2038 >= d_B[0] {
				return m.OOB(t2038, d_B[0], 0, "B", 8, 59)
			}
			t2039 := i_i2 - int64(1)
			t2040 := t2039
			if t2040 < 0 || t2040 >= d_B[1] {
				return m.OOB(t2040, d_B[1], 1, "B", 8, 59)
			}
			t2041 := b_B + int((t2038)*d_B[1]+t2040)
			r_B_r3 := m.LoadF(t2041)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t2042 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t2043 := float64(t2042 / r_B_r3)
			t2044 := float64(r_B_r2 - t2043)
			r_B_w := t2044
			t2045 := i_i1
			if t2045 < 0 || t2045 >= d_B[0] {
				return m.OOB(t2045, d_B[0], 0, "B", 8, 11)
			}
			t2046 := i_i2
			if t2046 < 0 || t2046 >= d_B[1] {
				return m.OOB(t2046, d_B[1], 1, "B", 8, 11)
			}
			t2047 := b_B + int((t2045)*d_B[1]+t2046)
			m.StoreF(t2047, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t2048 := p_n - int64(1)
		t2049 := codegen.MaxI(int64(1), t2048)
		t2050 := p_n - int64(1)
		for i_i2 := t2049; i_i2 <= t2050; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2051 := i_i1
			if t2051 < 0 || t2051 >= d_X[0] {
				return m.OOB(t2051, d_X[0], 0, "X", 7, 23)
			}
			t2052 := i_i2
			if t2052 < 0 || t2052 >= d_X[1] {
				return m.OOB(t2052, d_X[1], 1, "X", 7, 23)
			}
			t2053 := b_X + int((t2051)*d_X[1]+t2052)
			r_X_r := m.LoadF(t2053)
			t2054 := i_i1
			if t2054 < 0 || t2054 >= d_X[0] {
				return m.OOB(t2054, d_X[0], 0, "X", 7, 35)
			}
			t2055 := i_i2 - int64(1)
			t2056 := t2055
			if t2056 < 0 || t2056 >= d_X[1] {
				return m.OOB(t2056, d_X[1], 1, "X", 7, 35)
			}
			t2057 := b_X + int((t2054)*d_X[1]+t2056)
			r_X_r2 := m.LoadF(t2057)
			t2058 := i_i1
			if t2058 < 0 || t2058 >= d_A[0] {
				return m.OOB(t2058, d_A[0], 0, "A", 7, 51)
			}
			t2059 := i_i2
			if t2059 < 0 || t2059 >= d_A[1] {
				return m.OOB(t2059, d_A[1], 1, "A", 7, 51)
			}
			t2060 := b_A + int((t2058)*d_A[1]+t2059)
			r_A_r := m.LoadF(t2060)
			t2061 := i_i1
			if t2061 < 0 || t2061 >= d_B[0] {
				return m.OOB(t2061, d_B[0], 0, "B", 7, 63)
			}
			t2062 := i_i2 - int64(1)
			t2063 := t2062
			if t2063 < 0 || t2063 >= d_B[1] {
				return m.OOB(t2063, d_B[1], 1, "B", 7, 63)
			}
			t2064 := b_B + int((t2061)*d_B[1]+t2063)
			r_B_r := m.LoadF(t2064)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t2065 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t2066 := float64(t2065 / r_B_r)
			t2067 := float64(r_X_r - t2066)
			r_X_w := t2067
			t2068 := i_i1
			if t2068 < 0 || t2068 >= d_X[0] {
				return m.OOB(t2068, d_X[0], 0, "X", 7, 11)
			}
			t2069 := i_i2
			if t2069 < 0 || t2069 >= d_X[1] {
				return m.OOB(t2069, d_X[1], 1, "X", 7, 11)
			}
			t2070 := b_X + int((t2068)*d_X[1]+t2069)
			m.StoreF(t2070, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t2071 := i_i1
			if t2071 < 0 || t2071 >= d_B[0] {
				return m.OOB(t2071, d_B[0], 0, "B", 8, 23)
			}
			t2072 := i_i2
			if t2072 < 0 || t2072 >= d_B[1] {
				return m.OOB(t2072, d_B[1], 1, "B", 8, 23)
			}
			t2073 := b_B + int((t2071)*d_B[1]+t2072)
			r_B_r2 := m.LoadF(t2073)
			t2074 := i_i1
			if t2074 < 0 || t2074 >= d_A[0] {
				return m.OOB(t2074, d_A[0], 0, "A", 8, 35)
			}
			t2075 := i_i2
			if t2075 < 0 || t2075 >= d_A[1] {
				return m.OOB(t2075, d_A[1], 1, "A", 8, 35)
			}
			t2076 := b_A + int((t2074)*d_A[1]+t2075)
			r_A_r2 := m.LoadF(t2076)
			t2077 := i_i1
			if t2077 < 0 || t2077 >= d_A[0] {
				return m.OOB(t2077, d_A[0], 0, "A", 8, 47)
			}
			t2078 := i_i2
			if t2078 < 0 || t2078 >= d_A[1] {
				return m.OOB(t2078, d_A[1], 1, "A", 8, 47)
			}
			t2079 := b_A + int((t2077)*d_A[1]+t2078)
			r_A_r3 := m.LoadF(t2079)
			t2080 := i_i1
			if t2080 < 0 || t2080 >= d_B[0] {
				return m.OOB(t2080, d_B[0], 0, "B", 8, 59)
			}
			t2081 := i_i2 - int64(1)
			t2082 := t2081
			if t2082 < 0 || t2082 >= d_B[1] {
				return m.OOB(t2082, d_B[1], 1, "B", 8, 59)
			}
			t2083 := b_B + int((t2080)*d_B[1]+t2082)
			r_B_r3 := m.LoadF(t2083)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t2084 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t2085 := float64(t2084 / r_B_r3)
			t2086 := float64(r_B_r2 - t2085)
			r_B_w := t2086
			t2087 := i_i1
			if t2087 < 0 || t2087 >= d_B[0] {
				return m.OOB(t2087, d_B[0], 0, "B", 8, 11)
			}
			t2088 := i_i2
			if t2088 < 0 || t2088 >= d_B[1] {
				return m.OOB(t2088, d_B[1], 1, "B", 8, 11)
			}
			t2089 := b_B + int((t2087)*d_B[1]+t2088)
			m.StoreF(t2089, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n38(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t2175 := p_n - int64(1)
	t2176 := codegen.MinI(t2175, int64(0))
	for i_i1 := int64(0); i_i1 <= t2176; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2177 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t2177; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t2178 := i_i1
			if t2178 < 0 || t2178 >= d_X[0] {
				return m.OOB(t2178, d_X[0], 0, "X", 16, 32)
			}
			t2179 := p_n - int64(2)
			t2180 := t2179 - i_i2
			t2181 := t2180
			if t2181 < 0 || t2181 >= d_X[1] {
				return m.OOB(t2181, d_X[1], 1, "X", 16, 32)
			}
			t2182 := b_X + int((t2178)*d_X[1]+t2181)
			r_X_r4 := m.LoadF(t2182)
			t2183 := i_i1
			if t2183 < 0 || t2183 >= d_X[0] {
				return m.OOB(t2183, d_X[0], 0, "X", 16, 52)
			}
			t2184 := p_n - int64(2)
			t2185 := t2184 - i_i2
			t2186 := t2185 - int64(1)
			t2187 := t2186
			if t2187 < 0 || t2187 >= d_X[1] {
				return m.OOB(t2187, d_X[1], 1, "X", 16, 52)
			}
			t2188 := b_X + int((t2183)*d_X[1]+t2187)
			r_X_r5 := m.LoadF(t2188)
			t2189 := i_i1
			if t2189 < 0 || t2189 >= d_A[0] {
				return m.OOB(t2189, d_A[0], 0, "A", 16, 76)
			}
			t2190 := p_n - i_i2
			t2191 := t2190 - int64(3)
			t2192 := t2191
			if t2192 < 0 || t2192 >= d_A[1] {
				return m.OOB(t2192, d_A[1], 1, "A", 16, 76)
			}
			t2193 := b_A + int((t2189)*d_A[1]+t2192)
			r_A_r4 := m.LoadF(t2193)
			t2194 := i_i1
			if t2194 < 0 || t2194 >= d_B[0] {
				return m.OOB(t2194, d_B[0], 0, "B", 16, 97)
			}
			t2195 := p_n - int64(3)
			t2196 := t2195 - i_i2
			t2197 := t2196
			if t2197 < 0 || t2197 >= d_B[1] {
				return m.OOB(t2197, d_B[1], 1, "B", 16, 97)
			}
			t2198 := b_B + int((t2194)*d_B[1]+t2197)
			r_B_r5 := m.LoadF(t2198)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t2199 := float64(r_X_r5 * r_A_r4)
			t2200 := float64(r_X_r4 - t2199)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t2201 := float64(t2200 / r_B_r5)
			r_X_w3 := t2201
			t2202 := i_i1
			if t2202 < 0 || t2202 >= d_X[0] {
				return m.OOB(t2202, d_X[0], 0, "X", 16, 11)
			}
			t2203 := p_n - i_i2
			t2204 := t2203 - int64(2)
			t2205 := t2204
			if t2205 < 0 || t2205 >= d_X[1] {
				return m.OOB(t2205, d_X[1], 1, "X", 16, 11)
			}
			t2206 := b_X + int((t2202)*d_X[1]+t2205)
			m.StoreF(t2206, r_X_w3)
			t2207 := -i_t
			t2208 := t2207 + p_tsteps
			t2209 := t2208 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), t2209)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n39(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t2210 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t2210; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2211 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t2211; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t2212 := i_i1
			if t2212 < 0 || t2212 >= d_X[0] {
				return m.OOB(t2212, d_X[0], 0, "X", 16, 32)
			}
			t2213 := p_n - int64(2)
			t2214 := t2213 - i_i2
			t2215 := t2214
			if t2215 < 0 || t2215 >= d_X[1] {
				return m.OOB(t2215, d_X[1], 1, "X", 16, 32)
			}
			t2216 := b_X + int((t2212)*d_X[1]+t2215)
			r_X_r4 := m.LoadF(t2216)
			t2217 := i_i1
			if t2217 < 0 || t2217 >= d_X[0] {
				return m.OOB(t2217, d_X[0], 0, "X", 16, 52)
			}
			t2218 := p_n - int64(2)
			t2219 := t2218 - i_i2
			t2220 := t2219 - int64(1)
			t2221 := t2220
			if t2221 < 0 || t2221 >= d_X[1] {
				return m.OOB(t2221, d_X[1], 1, "X", 16, 52)
			}
			t2222 := b_X + int((t2217)*d_X[1]+t2221)
			r_X_r5 := m.LoadF(t2222)
			t2223 := i_i1
			if t2223 < 0 || t2223 >= d_A[0] {
				return m.OOB(t2223, d_A[0], 0, "A", 16, 76)
			}
			t2224 := p_n - i_i2
			t2225 := t2224 - int64(3)
			t2226 := t2225
			if t2226 < 0 || t2226 >= d_A[1] {
				return m.OOB(t2226, d_A[1], 1, "A", 16, 76)
			}
			t2227 := b_A + int((t2223)*d_A[1]+t2226)
			r_A_r4 := m.LoadF(t2227)
			t2228 := i_i1
			if t2228 < 0 || t2228 >= d_B[0] {
				return m.OOB(t2228, d_B[0], 0, "B", 16, 97)
			}
			t2229 := p_n - int64(3)
			t2230 := t2229 - i_i2
			t2231 := t2230
			if t2231 < 0 || t2231 >= d_B[1] {
				return m.OOB(t2231, d_B[1], 1, "B", 16, 97)
			}
			t2232 := b_B + int((t2228)*d_B[1]+t2231)
			r_B_r5 := m.LoadF(t2232)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t2233 := float64(r_X_r5 * r_A_r4)
			t2234 := float64(r_X_r4 - t2233)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t2235 := float64(t2234 / r_B_r5)
			r_X_w3 := t2235
			t2236 := i_i1
			if t2236 < 0 || t2236 >= d_X[0] {
				return m.OOB(t2236, d_X[0], 0, "X", 16, 11)
			}
			t2237 := p_n - i_i2
			t2238 := t2237 - int64(2)
			t2239 := t2238
			if t2239 < 0 || t2239 >= d_X[1] {
				return m.OOB(t2239, d_X[1], 1, "X", 16, 11)
			}
			t2240 := b_X + int((t2236)*d_X[1]+t2239)
			m.StoreF(t2240, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n40(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t2241 := p_n - int64(1)
	t2242 := codegen.MaxI(int64(1), t2241)
	t2243 := p_n - int64(1)
	for i_i1 := t2242; i_i1 <= t2243; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2244 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t2244; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t2245 := i_i1
			if t2245 < 0 || t2245 >= d_X[0] {
				return m.OOB(t2245, d_X[0], 0, "X", 16, 32)
			}
			t2246 := p_n - int64(2)
			t2247 := t2246 - i_i2
			t2248 := t2247
			if t2248 < 0 || t2248 >= d_X[1] {
				return m.OOB(t2248, d_X[1], 1, "X", 16, 32)
			}
			t2249 := b_X + int((t2245)*d_X[1]+t2248)
			r_X_r4 := m.LoadF(t2249)
			t2250 := i_i1
			if t2250 < 0 || t2250 >= d_X[0] {
				return m.OOB(t2250, d_X[0], 0, "X", 16, 52)
			}
			t2251 := p_n - int64(2)
			t2252 := t2251 - i_i2
			t2253 := t2252 - int64(1)
			t2254 := t2253
			if t2254 < 0 || t2254 >= d_X[1] {
				return m.OOB(t2254, d_X[1], 1, "X", 16, 52)
			}
			t2255 := b_X + int((t2250)*d_X[1]+t2254)
			r_X_r5 := m.LoadF(t2255)
			t2256 := i_i1
			if t2256 < 0 || t2256 >= d_A[0] {
				return m.OOB(t2256, d_A[0], 0, "A", 16, 76)
			}
			t2257 := p_n - i_i2
			t2258 := t2257 - int64(3)
			t2259 := t2258
			if t2259 < 0 || t2259 >= d_A[1] {
				return m.OOB(t2259, d_A[1], 1, "A", 16, 76)
			}
			t2260 := b_A + int((t2256)*d_A[1]+t2259)
			r_A_r4 := m.LoadF(t2260)
			t2261 := i_i1
			if t2261 < 0 || t2261 >= d_B[0] {
				return m.OOB(t2261, d_B[0], 0, "B", 16, 97)
			}
			t2262 := p_n - int64(3)
			t2263 := t2262 - i_i2
			t2264 := t2263
			if t2264 < 0 || t2264 >= d_B[1] {
				return m.OOB(t2264, d_B[1], 1, "B", 16, 97)
			}
			t2265 := b_B + int((t2261)*d_B[1]+t2264)
			r_B_r5 := m.LoadF(t2265)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t2266 := float64(r_X_r5 * r_A_r4)
			t2267 := float64(r_X_r4 - t2266)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t2268 := float64(t2267 / r_B_r5)
			r_X_w3 := t2268
			t2269 := i_i1
			if t2269 < 0 || t2269 >= d_X[0] {
				return m.OOB(t2269, d_X[0], 0, "X", 16, 11)
			}
			t2270 := p_n - i_i2
			t2271 := t2270 - int64(2)
			t2272 := t2271
			if t2272 < 0 || t2272 >= d_X[1] {
				return m.OOB(t2272, d_X[1], 1, "X", 16, 11)
			}
			t2273 := b_X + int((t2269)*d_X[1]+t2272)
			m.StoreF(t2273, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n41(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t2274 := p_n - int64(3)
	for i_i1 := int64(1); i_i1 <= t2274; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2275 := p_n - int64(1)
		t2276 := codegen.MinI(t2275, int64(0))
		for i_i2 := int64(0); i_i2 <= t2276; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2277 := i_i1
			if t2277 < 0 || t2277 >= d_X[0] {
				return m.OOB(t2277, d_X[0], 0, "X", 21, 23)
			}
			t2278 := i_i2
			if t2278 < 0 || t2278 >= d_X[1] {
				return m.OOB(t2278, d_X[1], 1, "X", 21, 23)
			}
			t2279 := b_X + int((t2277)*d_X[1]+t2278)
			r_X_r6 := m.LoadF(t2279)
			t2280 := i_i1 - int64(1)
			t2281 := t2280
			if t2281 < 0 || t2281 >= d_X[0] {
				return m.OOB(t2281, d_X[0], 0, "X", 21, 35)
			}
			t2282 := i_i2
			if t2282 < 0 || t2282 >= d_X[1] {
				return m.OOB(t2282, d_X[1], 1, "X", 21, 35)
			}
			t2283 := b_X + int((t2281)*d_X[1]+t2282)
			r_X_r7 := m.LoadF(t2283)
			t2284 := i_i1
			if t2284 < 0 || t2284 >= d_A[0] {
				return m.OOB(t2284, d_A[0], 0, "A", 21, 51)
			}
			t2285 := i_i2
			if t2285 < 0 || t2285 >= d_A[1] {
				return m.OOB(t2285, d_A[1], 1, "A", 21, 51)
			}
			t2286 := b_A + int((t2284)*d_A[1]+t2285)
			r_A_r5 := m.LoadF(t2286)
			t2287 := i_i1 - int64(1)
			t2288 := t2287
			if t2288 < 0 || t2288 >= d_B[0] {
				return m.OOB(t2288, d_B[0], 0, "B", 21, 63)
			}
			t2289 := i_i2
			if t2289 < 0 || t2289 >= d_B[1] {
				return m.OOB(t2289, d_B[1], 1, "B", 21, 63)
			}
			t2290 := b_B + int((t2288)*d_B[1]+t2289)
			r_B_r6 := m.LoadF(t2290)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2291 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2292 := float64(t2291 / r_B_r6)
			t2293 := float64(r_X_r6 - t2292)
			r_X_w4 := t2293
			t2294 := i_i1
			if t2294 < 0 || t2294 >= d_X[0] {
				return m.OOB(t2294, d_X[0], 0, "X", 21, 11)
			}
			t2295 := i_i2
			if t2295 < 0 || t2295 >= d_X[1] {
				return m.OOB(t2295, d_X[1], 1, "X", 21, 11)
			}
			t2296 := b_X + int((t2294)*d_X[1]+t2295)
			m.StoreF(t2296, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t2297 := i_i1
			if t2297 < 0 || t2297 >= d_B[0] {
				return m.OOB(t2297, d_B[0], 0, "B", 22, 23)
			}
			t2298 := i_i2
			if t2298 < 0 || t2298 >= d_B[1] {
				return m.OOB(t2298, d_B[1], 1, "B", 22, 23)
			}
			t2299 := b_B + int((t2297)*d_B[1]+t2298)
			r_B_r7 := m.LoadF(t2299)
			t2300 := i_i1
			if t2300 < 0 || t2300 >= d_A[0] {
				return m.OOB(t2300, d_A[0], 0, "A", 22, 35)
			}
			t2301 := i_i2
			if t2301 < 0 || t2301 >= d_A[1] {
				return m.OOB(t2301, d_A[1], 1, "A", 22, 35)
			}
			t2302 := b_A + int((t2300)*d_A[1]+t2301)
			r_A_r6 := m.LoadF(t2302)
			t2303 := i_i1
			if t2303 < 0 || t2303 >= d_A[0] {
				return m.OOB(t2303, d_A[0], 0, "A", 22, 47)
			}
			t2304 := i_i2
			if t2304 < 0 || t2304 >= d_A[1] {
				return m.OOB(t2304, d_A[1], 1, "A", 22, 47)
			}
			t2305 := b_A + int((t2303)*d_A[1]+t2304)
			r_A_r7 := m.LoadF(t2305)
			t2306 := i_i1 - int64(1)
			t2307 := t2306
			if t2307 < 0 || t2307 >= d_B[0] {
				return m.OOB(t2307, d_B[0], 0, "B", 22, 59)
			}
			t2308 := i_i2
			if t2308 < 0 || t2308 >= d_B[1] {
				return m.OOB(t2308, d_B[1], 1, "B", 22, 59)
			}
			t2309 := b_B + int((t2307)*d_B[1]+t2308)
			r_B_r8 := m.LoadF(t2309)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2310 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2311 := float64(t2310 / r_B_r8)
			t2312 := float64(r_B_r7 - t2311)
			r_B_w2 := t2312
			t2313 := i_i1
			if t2313 < 0 || t2313 >= d_B[0] {
				return m.OOB(t2313, d_B[0], 0, "B", 22, 11)
			}
			t2314 := i_i2
			if t2314 < 0 || t2314 >= d_B[1] {
				return m.OOB(t2314, d_B[1], 1, "B", 22, 11)
			}
			t2315 := b_B + int((t2313)*d_B[1]+t2314)
			m.StoreF(t2315, r_B_w2)
			t2316 := int64(3) * i_t
			t2317 := -t2316
			t2318 := int64(3) * p_tsteps
			t2319 := t2317 + t2318
			t2320 := t2319 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2320)
			t2321 := -i_t
			t2322 := t2321 + p_tsteps
			t2323 := t2322 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2323)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t2324 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t2324; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2325 := i_i1
			if t2325 < 0 || t2325 >= d_X[0] {
				return m.OOB(t2325, d_X[0], 0, "X", 21, 23)
			}
			t2326 := i_i2
			if t2326 < 0 || t2326 >= d_X[1] {
				return m.OOB(t2326, d_X[1], 1, "X", 21, 23)
			}
			t2327 := b_X + int((t2325)*d_X[1]+t2326)
			r_X_r6 := m.LoadF(t2327)
			t2328 := i_i1 - int64(1)
			t2329 := t2328
			if t2329 < 0 || t2329 >= d_X[0] {
				return m.OOB(t2329, d_X[0], 0, "X", 21, 35)
			}
			t2330 := i_i2
			if t2330 < 0 || t2330 >= d_X[1] {
				return m.OOB(t2330, d_X[1], 1, "X", 21, 35)
			}
			t2331 := b_X + int((t2329)*d_X[1]+t2330)
			r_X_r7 := m.LoadF(t2331)
			t2332 := i_i1
			if t2332 < 0 || t2332 >= d_A[0] {
				return m.OOB(t2332, d_A[0], 0, "A", 21, 51)
			}
			t2333 := i_i2
			if t2333 < 0 || t2333 >= d_A[1] {
				return m.OOB(t2333, d_A[1], 1, "A", 21, 51)
			}
			t2334 := b_A + int((t2332)*d_A[1]+t2333)
			r_A_r5 := m.LoadF(t2334)
			t2335 := i_i1 - int64(1)
			t2336 := t2335
			if t2336 < 0 || t2336 >= d_B[0] {
				return m.OOB(t2336, d_B[0], 0, "B", 21, 63)
			}
			t2337 := i_i2
			if t2337 < 0 || t2337 >= d_B[1] {
				return m.OOB(t2337, d_B[1], 1, "B", 21, 63)
			}
			t2338 := b_B + int((t2336)*d_B[1]+t2337)
			r_B_r6 := m.LoadF(t2338)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2339 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2340 := float64(t2339 / r_B_r6)
			t2341 := float64(r_X_r6 - t2340)
			r_X_w4 := t2341
			t2342 := i_i1
			if t2342 < 0 || t2342 >= d_X[0] {
				return m.OOB(t2342, d_X[0], 0, "X", 21, 11)
			}
			t2343 := i_i2
			if t2343 < 0 || t2343 >= d_X[1] {
				return m.OOB(t2343, d_X[1], 1, "X", 21, 11)
			}
			t2344 := b_X + int((t2342)*d_X[1]+t2343)
			m.StoreF(t2344, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t2345 := i_i1
			if t2345 < 0 || t2345 >= d_B[0] {
				return m.OOB(t2345, d_B[0], 0, "B", 22, 23)
			}
			t2346 := i_i2
			if t2346 < 0 || t2346 >= d_B[1] {
				return m.OOB(t2346, d_B[1], 1, "B", 22, 23)
			}
			t2347 := b_B + int((t2345)*d_B[1]+t2346)
			r_B_r7 := m.LoadF(t2347)
			t2348 := i_i1
			if t2348 < 0 || t2348 >= d_A[0] {
				return m.OOB(t2348, d_A[0], 0, "A", 22, 35)
			}
			t2349 := i_i2
			if t2349 < 0 || t2349 >= d_A[1] {
				return m.OOB(t2349, d_A[1], 1, "A", 22, 35)
			}
			t2350 := b_A + int((t2348)*d_A[1]+t2349)
			r_A_r6 := m.LoadF(t2350)
			t2351 := i_i1
			if t2351 < 0 || t2351 >= d_A[0] {
				return m.OOB(t2351, d_A[0], 0, "A", 22, 47)
			}
			t2352 := i_i2
			if t2352 < 0 || t2352 >= d_A[1] {
				return m.OOB(t2352, d_A[1], 1, "A", 22, 47)
			}
			t2353 := b_A + int((t2351)*d_A[1]+t2352)
			r_A_r7 := m.LoadF(t2353)
			t2354 := i_i1 - int64(1)
			t2355 := t2354
			if t2355 < 0 || t2355 >= d_B[0] {
				return m.OOB(t2355, d_B[0], 0, "B", 22, 59)
			}
			t2356 := i_i2
			if t2356 < 0 || t2356 >= d_B[1] {
				return m.OOB(t2356, d_B[1], 1, "B", 22, 59)
			}
			t2357 := b_B + int((t2355)*d_B[1]+t2356)
			r_B_r8 := m.LoadF(t2357)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2358 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2359 := float64(t2358 / r_B_r8)
			t2360 := float64(r_B_r7 - t2359)
			r_B_w2 := t2360
			t2361 := i_i1
			if t2361 < 0 || t2361 >= d_B[0] {
				return m.OOB(t2361, d_B[0], 0, "B", 22, 11)
			}
			t2362 := i_i2
			if t2362 < 0 || t2362 >= d_B[1] {
				return m.OOB(t2362, d_B[1], 1, "B", 22, 11)
			}
			t2363 := b_B + int((t2361)*d_B[1]+t2362)
			m.StoreF(t2363, r_B_w2)
			t2364 := -i_t
			t2365 := t2364 + p_tsteps
			t2366 := t2365 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2366)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t2367 := p_n - int64(1)
		t2368 := codegen.MaxI(int64(1), t2367)
		t2369 := p_n - int64(1)
		for i_i2 := t2368; i_i2 <= t2369; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2370 := i_i1
			if t2370 < 0 || t2370 >= d_X[0] {
				return m.OOB(t2370, d_X[0], 0, "X", 21, 23)
			}
			t2371 := i_i2
			if t2371 < 0 || t2371 >= d_X[1] {
				return m.OOB(t2371, d_X[1], 1, "X", 21, 23)
			}
			t2372 := b_X + int((t2370)*d_X[1]+t2371)
			r_X_r6 := m.LoadF(t2372)
			t2373 := i_i1 - int64(1)
			t2374 := t2373
			if t2374 < 0 || t2374 >= d_X[0] {
				return m.OOB(t2374, d_X[0], 0, "X", 21, 35)
			}
			t2375 := i_i2
			if t2375 < 0 || t2375 >= d_X[1] {
				return m.OOB(t2375, d_X[1], 1, "X", 21, 35)
			}
			t2376 := b_X + int((t2374)*d_X[1]+t2375)
			r_X_r7 := m.LoadF(t2376)
			t2377 := i_i1
			if t2377 < 0 || t2377 >= d_A[0] {
				return m.OOB(t2377, d_A[0], 0, "A", 21, 51)
			}
			t2378 := i_i2
			if t2378 < 0 || t2378 >= d_A[1] {
				return m.OOB(t2378, d_A[1], 1, "A", 21, 51)
			}
			t2379 := b_A + int((t2377)*d_A[1]+t2378)
			r_A_r5 := m.LoadF(t2379)
			t2380 := i_i1 - int64(1)
			t2381 := t2380
			if t2381 < 0 || t2381 >= d_B[0] {
				return m.OOB(t2381, d_B[0], 0, "B", 21, 63)
			}
			t2382 := i_i2
			if t2382 < 0 || t2382 >= d_B[1] {
				return m.OOB(t2382, d_B[1], 1, "B", 21, 63)
			}
			t2383 := b_B + int((t2381)*d_B[1]+t2382)
			r_B_r6 := m.LoadF(t2383)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2384 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2385 := float64(t2384 / r_B_r6)
			t2386 := float64(r_X_r6 - t2385)
			r_X_w4 := t2386
			t2387 := i_i1
			if t2387 < 0 || t2387 >= d_X[0] {
				return m.OOB(t2387, d_X[0], 0, "X", 21, 11)
			}
			t2388 := i_i2
			if t2388 < 0 || t2388 >= d_X[1] {
				return m.OOB(t2388, d_X[1], 1, "X", 21, 11)
			}
			t2389 := b_X + int((t2387)*d_X[1]+t2388)
			m.StoreF(t2389, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t2390 := i_i1
			if t2390 < 0 || t2390 >= d_B[0] {
				return m.OOB(t2390, d_B[0], 0, "B", 22, 23)
			}
			t2391 := i_i2
			if t2391 < 0 || t2391 >= d_B[1] {
				return m.OOB(t2391, d_B[1], 1, "B", 22, 23)
			}
			t2392 := b_B + int((t2390)*d_B[1]+t2391)
			r_B_r7 := m.LoadF(t2392)
			t2393 := i_i1
			if t2393 < 0 || t2393 >= d_A[0] {
				return m.OOB(t2393, d_A[0], 0, "A", 22, 35)
			}
			t2394 := i_i2
			if t2394 < 0 || t2394 >= d_A[1] {
				return m.OOB(t2394, d_A[1], 1, "A", 22, 35)
			}
			t2395 := b_A + int((t2393)*d_A[1]+t2394)
			r_A_r6 := m.LoadF(t2395)
			t2396 := i_i1
			if t2396 < 0 || t2396 >= d_A[0] {
				return m.OOB(t2396, d_A[0], 0, "A", 22, 47)
			}
			t2397 := i_i2
			if t2397 < 0 || t2397 >= d_A[1] {
				return m.OOB(t2397, d_A[1], 1, "A", 22, 47)
			}
			t2398 := b_A + int((t2396)*d_A[1]+t2397)
			r_A_r7 := m.LoadF(t2398)
			t2399 := i_i1 - int64(1)
			t2400 := t2399
			if t2400 < 0 || t2400 >= d_B[0] {
				return m.OOB(t2400, d_B[0], 0, "B", 22, 59)
			}
			t2401 := i_i2
			if t2401 < 0 || t2401 >= d_B[1] {
				return m.OOB(t2401, d_B[1], 1, "B", 22, 59)
			}
			t2402 := b_B + int((t2400)*d_B[1]+t2401)
			r_B_r8 := m.LoadF(t2402)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2403 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2404 := float64(t2403 / r_B_r8)
			t2405 := float64(r_B_r7 - t2404)
			r_B_w2 := t2405
			t2406 := i_i1
			if t2406 < 0 || t2406 >= d_B[0] {
				return m.OOB(t2406, d_B[0], 0, "B", 22, 11)
			}
			t2407 := i_i2
			if t2407 < 0 || t2407 >= d_B[1] {
				return m.OOB(t2407, d_B[1], 1, "B", 22, 11)
			}
			t2408 := b_B + int((t2406)*d_B[1]+t2407)
			m.StoreF(t2408, r_B_w2)
			t2409 := -i_t
			t2410 := t2409 + p_tsteps
			t2411 := t2410 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2411)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n42(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t2412 := p_n - int64(2)
	t2413 := codegen.MaxI(int64(1), t2412)
	t2414 := p_n - int64(2)
	for i_i1 := t2413; i_i1 <= t2414; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2415 := p_n - int64(1)
		t2416 := codegen.MinI(t2415, int64(0))
		for i_i2 := int64(0); i_i2 <= t2416; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2417 := i_i1
			if t2417 < 0 || t2417 >= d_X[0] {
				return m.OOB(t2417, d_X[0], 0, "X", 21, 23)
			}
			t2418 := i_i2
			if t2418 < 0 || t2418 >= d_X[1] {
				return m.OOB(t2418, d_X[1], 1, "X", 21, 23)
			}
			t2419 := b_X + int((t2417)*d_X[1]+t2418)
			r_X_r6 := m.LoadF(t2419)
			t2420 := i_i1 - int64(1)
			t2421 := t2420
			if t2421 < 0 || t2421 >= d_X[0] {
				return m.OOB(t2421, d_X[0], 0, "X", 21, 35)
			}
			t2422 := i_i2
			if t2422 < 0 || t2422 >= d_X[1] {
				return m.OOB(t2422, d_X[1], 1, "X", 21, 35)
			}
			t2423 := b_X + int((t2421)*d_X[1]+t2422)
			r_X_r7 := m.LoadF(t2423)
			t2424 := i_i1
			if t2424 < 0 || t2424 >= d_A[0] {
				return m.OOB(t2424, d_A[0], 0, "A", 21, 51)
			}
			t2425 := i_i2
			if t2425 < 0 || t2425 >= d_A[1] {
				return m.OOB(t2425, d_A[1], 1, "A", 21, 51)
			}
			t2426 := b_A + int((t2424)*d_A[1]+t2425)
			r_A_r5 := m.LoadF(t2426)
			t2427 := i_i1 - int64(1)
			t2428 := t2427
			if t2428 < 0 || t2428 >= d_B[0] {
				return m.OOB(t2428, d_B[0], 0, "B", 21, 63)
			}
			t2429 := i_i2
			if t2429 < 0 || t2429 >= d_B[1] {
				return m.OOB(t2429, d_B[1], 1, "B", 21, 63)
			}
			t2430 := b_B + int((t2428)*d_B[1]+t2429)
			r_B_r6 := m.LoadF(t2430)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2431 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2432 := float64(t2431 / r_B_r6)
			t2433 := float64(r_X_r6 - t2432)
			r_X_w4 := t2433
			t2434 := i_i1
			if t2434 < 0 || t2434 >= d_X[0] {
				return m.OOB(t2434, d_X[0], 0, "X", 21, 11)
			}
			t2435 := i_i2
			if t2435 < 0 || t2435 >= d_X[1] {
				return m.OOB(t2435, d_X[1], 1, "X", 21, 11)
			}
			t2436 := b_X + int((t2434)*d_X[1]+t2435)
			m.StoreF(t2436, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t2437 := i_i1
			if t2437 < 0 || t2437 >= d_B[0] {
				return m.OOB(t2437, d_B[0], 0, "B", 22, 23)
			}
			t2438 := i_i2
			if t2438 < 0 || t2438 >= d_B[1] {
				return m.OOB(t2438, d_B[1], 1, "B", 22, 23)
			}
			t2439 := b_B + int((t2437)*d_B[1]+t2438)
			r_B_r7 := m.LoadF(t2439)
			t2440 := i_i1
			if t2440 < 0 || t2440 >= d_A[0] {
				return m.OOB(t2440, d_A[0], 0, "A", 22, 35)
			}
			t2441 := i_i2
			if t2441 < 0 || t2441 >= d_A[1] {
				return m.OOB(t2441, d_A[1], 1, "A", 22, 35)
			}
			t2442 := b_A + int((t2440)*d_A[1]+t2441)
			r_A_r6 := m.LoadF(t2442)
			t2443 := i_i1
			if t2443 < 0 || t2443 >= d_A[0] {
				return m.OOB(t2443, d_A[0], 0, "A", 22, 47)
			}
			t2444 := i_i2
			if t2444 < 0 || t2444 >= d_A[1] {
				return m.OOB(t2444, d_A[1], 1, "A", 22, 47)
			}
			t2445 := b_A + int((t2443)*d_A[1]+t2444)
			r_A_r7 := m.LoadF(t2445)
			t2446 := i_i1 - int64(1)
			t2447 := t2446
			if t2447 < 0 || t2447 >= d_B[0] {
				return m.OOB(t2447, d_B[0], 0, "B", 22, 59)
			}
			t2448 := i_i2
			if t2448 < 0 || t2448 >= d_B[1] {
				return m.OOB(t2448, d_B[1], 1, "B", 22, 59)
			}
			t2449 := b_B + int((t2447)*d_B[1]+t2448)
			r_B_r8 := m.LoadF(t2449)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2450 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2451 := float64(t2450 / r_B_r8)
			t2452 := float64(r_B_r7 - t2451)
			r_B_w2 := t2452
			t2453 := i_i1
			if t2453 < 0 || t2453 >= d_B[0] {
				return m.OOB(t2453, d_B[0], 0, "B", 22, 11)
			}
			t2454 := i_i2
			if t2454 < 0 || t2454 >= d_B[1] {
				return m.OOB(t2454, d_B[1], 1, "B", 22, 11)
			}
			t2455 := b_B + int((t2453)*d_B[1]+t2454)
			m.StoreF(t2455, r_B_w2)
			t2456 := int64(3) * i_t
			t2457 := -t2456
			t2458 := int64(3) * p_tsteps
			t2459 := t2457 + t2458
			t2460 := t2459 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2460)
			t2461 := -i_t
			t2462 := t2461 + p_tsteps
			t2463 := t2462 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2463)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t2464 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t2464; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2465 := i_i1
			if t2465 < 0 || t2465 >= d_X[0] {
				return m.OOB(t2465, d_X[0], 0, "X", 21, 23)
			}
			t2466 := i_i2
			if t2466 < 0 || t2466 >= d_X[1] {
				return m.OOB(t2466, d_X[1], 1, "X", 21, 23)
			}
			t2467 := b_X + int((t2465)*d_X[1]+t2466)
			r_X_r6 := m.LoadF(t2467)
			t2468 := i_i1 - int64(1)
			t2469 := t2468
			if t2469 < 0 || t2469 >= d_X[0] {
				return m.OOB(t2469, d_X[0], 0, "X", 21, 35)
			}
			t2470 := i_i2
			if t2470 < 0 || t2470 >= d_X[1] {
				return m.OOB(t2470, d_X[1], 1, "X", 21, 35)
			}
			t2471 := b_X + int((t2469)*d_X[1]+t2470)
			r_X_r7 := m.LoadF(t2471)
			t2472 := i_i1
			if t2472 < 0 || t2472 >= d_A[0] {
				return m.OOB(t2472, d_A[0], 0, "A", 21, 51)
			}
			t2473 := i_i2
			if t2473 < 0 || t2473 >= d_A[1] {
				return m.OOB(t2473, d_A[1], 1, "A", 21, 51)
			}
			t2474 := b_A + int((t2472)*d_A[1]+t2473)
			r_A_r5 := m.LoadF(t2474)
			t2475 := i_i1 - int64(1)
			t2476 := t2475
			if t2476 < 0 || t2476 >= d_B[0] {
				return m.OOB(t2476, d_B[0], 0, "B", 21, 63)
			}
			t2477 := i_i2
			if t2477 < 0 || t2477 >= d_B[1] {
				return m.OOB(t2477, d_B[1], 1, "B", 21, 63)
			}
			t2478 := b_B + int((t2476)*d_B[1]+t2477)
			r_B_r6 := m.LoadF(t2478)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2479 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2480 := float64(t2479 / r_B_r6)
			t2481 := float64(r_X_r6 - t2480)
			r_X_w4 := t2481
			t2482 := i_i1
			if t2482 < 0 || t2482 >= d_X[0] {
				return m.OOB(t2482, d_X[0], 0, "X", 21, 11)
			}
			t2483 := i_i2
			if t2483 < 0 || t2483 >= d_X[1] {
				return m.OOB(t2483, d_X[1], 1, "X", 21, 11)
			}
			t2484 := b_X + int((t2482)*d_X[1]+t2483)
			m.StoreF(t2484, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t2485 := i_i1
			if t2485 < 0 || t2485 >= d_B[0] {
				return m.OOB(t2485, d_B[0], 0, "B", 22, 23)
			}
			t2486 := i_i2
			if t2486 < 0 || t2486 >= d_B[1] {
				return m.OOB(t2486, d_B[1], 1, "B", 22, 23)
			}
			t2487 := b_B + int((t2485)*d_B[1]+t2486)
			r_B_r7 := m.LoadF(t2487)
			t2488 := i_i1
			if t2488 < 0 || t2488 >= d_A[0] {
				return m.OOB(t2488, d_A[0], 0, "A", 22, 35)
			}
			t2489 := i_i2
			if t2489 < 0 || t2489 >= d_A[1] {
				return m.OOB(t2489, d_A[1], 1, "A", 22, 35)
			}
			t2490 := b_A + int((t2488)*d_A[1]+t2489)
			r_A_r6 := m.LoadF(t2490)
			t2491 := i_i1
			if t2491 < 0 || t2491 >= d_A[0] {
				return m.OOB(t2491, d_A[0], 0, "A", 22, 47)
			}
			t2492 := i_i2
			if t2492 < 0 || t2492 >= d_A[1] {
				return m.OOB(t2492, d_A[1], 1, "A", 22, 47)
			}
			t2493 := b_A + int((t2491)*d_A[1]+t2492)
			r_A_r7 := m.LoadF(t2493)
			t2494 := i_i1 - int64(1)
			t2495 := t2494
			if t2495 < 0 || t2495 >= d_B[0] {
				return m.OOB(t2495, d_B[0], 0, "B", 22, 59)
			}
			t2496 := i_i2
			if t2496 < 0 || t2496 >= d_B[1] {
				return m.OOB(t2496, d_B[1], 1, "B", 22, 59)
			}
			t2497 := b_B + int((t2495)*d_B[1]+t2496)
			r_B_r8 := m.LoadF(t2497)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2498 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2499 := float64(t2498 / r_B_r8)
			t2500 := float64(r_B_r7 - t2499)
			r_B_w2 := t2500
			t2501 := i_i1
			if t2501 < 0 || t2501 >= d_B[0] {
				return m.OOB(t2501, d_B[0], 0, "B", 22, 11)
			}
			t2502 := i_i2
			if t2502 < 0 || t2502 >= d_B[1] {
				return m.OOB(t2502, d_B[1], 1, "B", 22, 11)
			}
			t2503 := b_B + int((t2501)*d_B[1]+t2502)
			m.StoreF(t2503, r_B_w2)
			t2504 := -i_t
			t2505 := t2504 + p_tsteps
			t2506 := t2505 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2506)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t2507 := p_n - int64(1)
		t2508 := codegen.MaxI(int64(1), t2507)
		t2509 := p_n - int64(1)
		for i_i2 := t2508; i_i2 <= t2509; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2510 := i_i1
			if t2510 < 0 || t2510 >= d_X[0] {
				return m.OOB(t2510, d_X[0], 0, "X", 21, 23)
			}
			t2511 := i_i2
			if t2511 < 0 || t2511 >= d_X[1] {
				return m.OOB(t2511, d_X[1], 1, "X", 21, 23)
			}
			t2512 := b_X + int((t2510)*d_X[1]+t2511)
			r_X_r6 := m.LoadF(t2512)
			t2513 := i_i1 - int64(1)
			t2514 := t2513
			if t2514 < 0 || t2514 >= d_X[0] {
				return m.OOB(t2514, d_X[0], 0, "X", 21, 35)
			}
			t2515 := i_i2
			if t2515 < 0 || t2515 >= d_X[1] {
				return m.OOB(t2515, d_X[1], 1, "X", 21, 35)
			}
			t2516 := b_X + int((t2514)*d_X[1]+t2515)
			r_X_r7 := m.LoadF(t2516)
			t2517 := i_i1
			if t2517 < 0 || t2517 >= d_A[0] {
				return m.OOB(t2517, d_A[0], 0, "A", 21, 51)
			}
			t2518 := i_i2
			if t2518 < 0 || t2518 >= d_A[1] {
				return m.OOB(t2518, d_A[1], 1, "A", 21, 51)
			}
			t2519 := b_A + int((t2517)*d_A[1]+t2518)
			r_A_r5 := m.LoadF(t2519)
			t2520 := i_i1 - int64(1)
			t2521 := t2520
			if t2521 < 0 || t2521 >= d_B[0] {
				return m.OOB(t2521, d_B[0], 0, "B", 21, 63)
			}
			t2522 := i_i2
			if t2522 < 0 || t2522 >= d_B[1] {
				return m.OOB(t2522, d_B[1], 1, "B", 21, 63)
			}
			t2523 := b_B + int((t2521)*d_B[1]+t2522)
			r_B_r6 := m.LoadF(t2523)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2524 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2525 := float64(t2524 / r_B_r6)
			t2526 := float64(r_X_r6 - t2525)
			r_X_w4 := t2526
			t2527 := i_i1
			if t2527 < 0 || t2527 >= d_X[0] {
				return m.OOB(t2527, d_X[0], 0, "X", 21, 11)
			}
			t2528 := i_i2
			if t2528 < 0 || t2528 >= d_X[1] {
				return m.OOB(t2528, d_X[1], 1, "X", 21, 11)
			}
			t2529 := b_X + int((t2527)*d_X[1]+t2528)
			m.StoreF(t2529, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t2530 := i_i1
			if t2530 < 0 || t2530 >= d_B[0] {
				return m.OOB(t2530, d_B[0], 0, "B", 22, 23)
			}
			t2531 := i_i2
			if t2531 < 0 || t2531 >= d_B[1] {
				return m.OOB(t2531, d_B[1], 1, "B", 22, 23)
			}
			t2532 := b_B + int((t2530)*d_B[1]+t2531)
			r_B_r7 := m.LoadF(t2532)
			t2533 := i_i1
			if t2533 < 0 || t2533 >= d_A[0] {
				return m.OOB(t2533, d_A[0], 0, "A", 22, 35)
			}
			t2534 := i_i2
			if t2534 < 0 || t2534 >= d_A[1] {
				return m.OOB(t2534, d_A[1], 1, "A", 22, 35)
			}
			t2535 := b_A + int((t2533)*d_A[1]+t2534)
			r_A_r6 := m.LoadF(t2535)
			t2536 := i_i1
			if t2536 < 0 || t2536 >= d_A[0] {
				return m.OOB(t2536, d_A[0], 0, "A", 22, 47)
			}
			t2537 := i_i2
			if t2537 < 0 || t2537 >= d_A[1] {
				return m.OOB(t2537, d_A[1], 1, "A", 22, 47)
			}
			t2538 := b_A + int((t2536)*d_A[1]+t2537)
			r_A_r7 := m.LoadF(t2538)
			t2539 := i_i1 - int64(1)
			t2540 := t2539
			if t2540 < 0 || t2540 >= d_B[0] {
				return m.OOB(t2540, d_B[0], 0, "B", 22, 59)
			}
			t2541 := i_i2
			if t2541 < 0 || t2541 >= d_B[1] {
				return m.OOB(t2541, d_B[1], 1, "B", 22, 59)
			}
			t2542 := b_B + int((t2540)*d_B[1]+t2541)
			r_B_r8 := m.LoadF(t2542)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2543 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2544 := float64(t2543 / r_B_r8)
			t2545 := float64(r_B_r7 - t2544)
			r_B_w2 := t2545
			t2546 := i_i1
			if t2546 < 0 || t2546 >= d_B[0] {
				return m.OOB(t2546, d_B[0], 0, "B", 22, 11)
			}
			t2547 := i_i2
			if t2547 < 0 || t2547 >= d_B[1] {
				return m.OOB(t2547, d_B[1], 1, "B", 22, 11)
			}
			t2548 := b_B + int((t2546)*d_B[1]+t2547)
			m.StoreF(t2548, r_B_w2)
			t2549 := -i_t
			t2550 := t2549 + p_tsteps
			t2551 := t2550 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2551)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n43(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t2552 := p_n - int64(1)
	t2553 := codegen.MaxI(int64(1), t2552)
	t2554 := p_n - int64(1)
	for i_i1 := t2553; i_i1 <= t2554; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n44(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_i1, i_t); err != nil {
			return err
		}
		t2604 := p_n - int64(2)
		t2605 := codegen.MaxI(int64(0), t2604)
		t2606 := p_n - int64(1)
		t2607 := codegen.MinI(t2606, int64(0))
		for i_i2 := t2605; i_i2 <= t2607; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2608 := i_i1
			if t2608 < 0 || t2608 >= d_X[0] {
				return m.OOB(t2608, d_X[0], 0, "X", 21, 23)
			}
			t2609 := i_i2
			if t2609 < 0 || t2609 >= d_X[1] {
				return m.OOB(t2609, d_X[1], 1, "X", 21, 23)
			}
			t2610 := b_X + int((t2608)*d_X[1]+t2609)
			r_X_r6 := m.LoadF(t2610)
			t2611 := i_i1 - int64(1)
			t2612 := t2611
			if t2612 < 0 || t2612 >= d_X[0] {
				return m.OOB(t2612, d_X[0], 0, "X", 21, 35)
			}
			t2613 := i_i2
			if t2613 < 0 || t2613 >= d_X[1] {
				return m.OOB(t2613, d_X[1], 1, "X", 21, 35)
			}
			t2614 := b_X + int((t2612)*d_X[1]+t2613)
			r_X_r7 := m.LoadF(t2614)
			t2615 := i_i1
			if t2615 < 0 || t2615 >= d_A[0] {
				return m.OOB(t2615, d_A[0], 0, "A", 21, 51)
			}
			t2616 := i_i2
			if t2616 < 0 || t2616 >= d_A[1] {
				return m.OOB(t2616, d_A[1], 1, "A", 21, 51)
			}
			t2617 := b_A + int((t2615)*d_A[1]+t2616)
			r_A_r5 := m.LoadF(t2617)
			t2618 := i_i1 - int64(1)
			t2619 := t2618
			if t2619 < 0 || t2619 >= d_B[0] {
				return m.OOB(t2619, d_B[0], 0, "B", 21, 63)
			}
			t2620 := i_i2
			if t2620 < 0 || t2620 >= d_B[1] {
				return m.OOB(t2620, d_B[1], 1, "B", 21, 63)
			}
			t2621 := b_B + int((t2619)*d_B[1]+t2620)
			r_B_r6 := m.LoadF(t2621)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2622 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2623 := float64(t2622 / r_B_r6)
			t2624 := float64(r_X_r6 - t2623)
			r_X_w4 := t2624
			t2625 := i_i1
			if t2625 < 0 || t2625 >= d_X[0] {
				return m.OOB(t2625, d_X[0], 0, "X", 21, 11)
			}
			t2626 := i_i2
			if t2626 < 0 || t2626 >= d_X[1] {
				return m.OOB(t2626, d_X[1], 1, "X", 21, 11)
			}
			t2627 := b_X + int((t2625)*d_X[1]+t2626)
			m.StoreF(t2627, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t2628 := i_i1
			if t2628 < 0 || t2628 >= d_B[0] {
				return m.OOB(t2628, d_B[0], 0, "B", 22, 23)
			}
			t2629 := i_i2
			if t2629 < 0 || t2629 >= d_B[1] {
				return m.OOB(t2629, d_B[1], 1, "B", 22, 23)
			}
			t2630 := b_B + int((t2628)*d_B[1]+t2629)
			r_B_r7 := m.LoadF(t2630)
			t2631 := i_i1
			if t2631 < 0 || t2631 >= d_A[0] {
				return m.OOB(t2631, d_A[0], 0, "A", 22, 35)
			}
			t2632 := i_i2
			if t2632 < 0 || t2632 >= d_A[1] {
				return m.OOB(t2632, d_A[1], 1, "A", 22, 35)
			}
			t2633 := b_A + int((t2631)*d_A[1]+t2632)
			r_A_r6 := m.LoadF(t2633)
			t2634 := i_i1
			if t2634 < 0 || t2634 >= d_A[0] {
				return m.OOB(t2634, d_A[0], 0, "A", 22, 47)
			}
			t2635 := i_i2
			if t2635 < 0 || t2635 >= d_A[1] {
				return m.OOB(t2635, d_A[1], 1, "A", 22, 47)
			}
			t2636 := b_A + int((t2634)*d_A[1]+t2635)
			r_A_r7 := m.LoadF(t2636)
			t2637 := i_i1 - int64(1)
			t2638 := t2637
			if t2638 < 0 || t2638 >= d_B[0] {
				return m.OOB(t2638, d_B[0], 0, "B", 22, 59)
			}
			t2639 := i_i2
			if t2639 < 0 || t2639 >= d_B[1] {
				return m.OOB(t2639, d_B[1], 1, "B", 22, 59)
			}
			t2640 := b_B + int((t2638)*d_B[1]+t2639)
			r_B_r8 := m.LoadF(t2640)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2641 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2642 := float64(t2641 / r_B_r8)
			t2643 := float64(r_B_r7 - t2642)
			r_B_w2 := t2643
			t2644 := i_i1
			if t2644 < 0 || t2644 >= d_B[0] {
				return m.OOB(t2644, d_B[0], 0, "B", 22, 11)
			}
			t2645 := i_i2
			if t2645 < 0 || t2645 >= d_B[1] {
				return m.OOB(t2645, d_B[1], 1, "B", 22, 11)
			}
			t2646 := b_B + int((t2644)*d_B[1]+t2645)
			m.StoreF(t2646, r_B_w2)
			t2647 := int64(3) * i_t
			t2648 := -t2647
			t2649 := int64(3) * p_tsteps
			t2650 := t2648 + t2649
			t2651 := t2650 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2651)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t2652 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t2652; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2653 := i_i1
			if t2653 < 0 || t2653 >= d_X[0] {
				return m.OOB(t2653, d_X[0], 0, "X", 21, 23)
			}
			t2654 := i_i2
			if t2654 < 0 || t2654 >= d_X[1] {
				return m.OOB(t2654, d_X[1], 1, "X", 21, 23)
			}
			t2655 := b_X + int((t2653)*d_X[1]+t2654)
			r_X_r6 := m.LoadF(t2655)
			t2656 := i_i1 - int64(1)
			t2657 := t2656
			if t2657 < 0 || t2657 >= d_X[0] {
				return m.OOB(t2657, d_X[0], 0, "X", 21, 35)
			}
			t2658 := i_i2
			if t2658 < 0 || t2658 >= d_X[1] {
				return m.OOB(t2658, d_X[1], 1, "X", 21, 35)
			}
			t2659 := b_X + int((t2657)*d_X[1]+t2658)
			r_X_r7 := m.LoadF(t2659)
			t2660 := i_i1
			if t2660 < 0 || t2660 >= d_A[0] {
				return m.OOB(t2660, d_A[0], 0, "A", 21, 51)
			}
			t2661 := i_i2
			if t2661 < 0 || t2661 >= d_A[1] {
				return m.OOB(t2661, d_A[1], 1, "A", 21, 51)
			}
			t2662 := b_A + int((t2660)*d_A[1]+t2661)
			r_A_r5 := m.LoadF(t2662)
			t2663 := i_i1 - int64(1)
			t2664 := t2663
			if t2664 < 0 || t2664 >= d_B[0] {
				return m.OOB(t2664, d_B[0], 0, "B", 21, 63)
			}
			t2665 := i_i2
			if t2665 < 0 || t2665 >= d_B[1] {
				return m.OOB(t2665, d_B[1], 1, "B", 21, 63)
			}
			t2666 := b_B + int((t2664)*d_B[1]+t2665)
			r_B_r6 := m.LoadF(t2666)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2667 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2668 := float64(t2667 / r_B_r6)
			t2669 := float64(r_X_r6 - t2668)
			r_X_w4 := t2669
			t2670 := i_i1
			if t2670 < 0 || t2670 >= d_X[0] {
				return m.OOB(t2670, d_X[0], 0, "X", 21, 11)
			}
			t2671 := i_i2
			if t2671 < 0 || t2671 >= d_X[1] {
				return m.OOB(t2671, d_X[1], 1, "X", 21, 11)
			}
			t2672 := b_X + int((t2670)*d_X[1]+t2671)
			m.StoreF(t2672, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t2673 := i_i1
			if t2673 < 0 || t2673 >= d_B[0] {
				return m.OOB(t2673, d_B[0], 0, "B", 22, 23)
			}
			t2674 := i_i2
			if t2674 < 0 || t2674 >= d_B[1] {
				return m.OOB(t2674, d_B[1], 1, "B", 22, 23)
			}
			t2675 := b_B + int((t2673)*d_B[1]+t2674)
			r_B_r7 := m.LoadF(t2675)
			t2676 := i_i1
			if t2676 < 0 || t2676 >= d_A[0] {
				return m.OOB(t2676, d_A[0], 0, "A", 22, 35)
			}
			t2677 := i_i2
			if t2677 < 0 || t2677 >= d_A[1] {
				return m.OOB(t2677, d_A[1], 1, "A", 22, 35)
			}
			t2678 := b_A + int((t2676)*d_A[1]+t2677)
			r_A_r6 := m.LoadF(t2678)
			t2679 := i_i1
			if t2679 < 0 || t2679 >= d_A[0] {
				return m.OOB(t2679, d_A[0], 0, "A", 22, 47)
			}
			t2680 := i_i2
			if t2680 < 0 || t2680 >= d_A[1] {
				return m.OOB(t2680, d_A[1], 1, "A", 22, 47)
			}
			t2681 := b_A + int((t2679)*d_A[1]+t2680)
			r_A_r7 := m.LoadF(t2681)
			t2682 := i_i1 - int64(1)
			t2683 := t2682
			if t2683 < 0 || t2683 >= d_B[0] {
				return m.OOB(t2683, d_B[0], 0, "B", 22, 59)
			}
			t2684 := i_i2
			if t2684 < 0 || t2684 >= d_B[1] {
				return m.OOB(t2684, d_B[1], 1, "B", 22, 59)
			}
			t2685 := b_B + int((t2683)*d_B[1]+t2684)
			r_B_r8 := m.LoadF(t2685)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2686 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2687 := float64(t2686 / r_B_r8)
			t2688 := float64(r_B_r7 - t2687)
			r_B_w2 := t2688
			t2689 := i_i1
			if t2689 < 0 || t2689 >= d_B[0] {
				return m.OOB(t2689, d_B[0], 0, "B", 22, 11)
			}
			t2690 := i_i2
			if t2690 < 0 || t2690 >= d_B[1] {
				return m.OOB(t2690, d_B[1], 1, "B", 22, 11)
			}
			t2691 := b_B + int((t2689)*d_B[1]+t2690)
			m.StoreF(t2691, r_B_w2)
			t2692 := -i_t
			t2693 := t2692 + p_tsteps
			t2694 := t2693 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2694)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t2695 := p_n - int64(1)
		t2696 := codegen.MaxI(int64(1), t2695)
		t2697 := p_n - int64(1)
		for i_i2 := t2696; i_i2 <= t2697; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2698 := i_i1
			if t2698 < 0 || t2698 >= d_X[0] {
				return m.OOB(t2698, d_X[0], 0, "X", 21, 23)
			}
			t2699 := i_i2
			if t2699 < 0 || t2699 >= d_X[1] {
				return m.OOB(t2699, d_X[1], 1, "X", 21, 23)
			}
			t2700 := b_X + int((t2698)*d_X[1]+t2699)
			r_X_r6 := m.LoadF(t2700)
			t2701 := i_i1 - int64(1)
			t2702 := t2701
			if t2702 < 0 || t2702 >= d_X[0] {
				return m.OOB(t2702, d_X[0], 0, "X", 21, 35)
			}
			t2703 := i_i2
			if t2703 < 0 || t2703 >= d_X[1] {
				return m.OOB(t2703, d_X[1], 1, "X", 21, 35)
			}
			t2704 := b_X + int((t2702)*d_X[1]+t2703)
			r_X_r7 := m.LoadF(t2704)
			t2705 := i_i1
			if t2705 < 0 || t2705 >= d_A[0] {
				return m.OOB(t2705, d_A[0], 0, "A", 21, 51)
			}
			t2706 := i_i2
			if t2706 < 0 || t2706 >= d_A[1] {
				return m.OOB(t2706, d_A[1], 1, "A", 21, 51)
			}
			t2707 := b_A + int((t2705)*d_A[1]+t2706)
			r_A_r5 := m.LoadF(t2707)
			t2708 := i_i1 - int64(1)
			t2709 := t2708
			if t2709 < 0 || t2709 >= d_B[0] {
				return m.OOB(t2709, d_B[0], 0, "B", 21, 63)
			}
			t2710 := i_i2
			if t2710 < 0 || t2710 >= d_B[1] {
				return m.OOB(t2710, d_B[1], 1, "B", 21, 63)
			}
			t2711 := b_B + int((t2709)*d_B[1]+t2710)
			r_B_r6 := m.LoadF(t2711)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t2712 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t2713 := float64(t2712 / r_B_r6)
			t2714 := float64(r_X_r6 - t2713)
			r_X_w4 := t2714
			t2715 := i_i1
			if t2715 < 0 || t2715 >= d_X[0] {
				return m.OOB(t2715, d_X[0], 0, "X", 21, 11)
			}
			t2716 := i_i2
			if t2716 < 0 || t2716 >= d_X[1] {
				return m.OOB(t2716, d_X[1], 1, "X", 21, 11)
			}
			t2717 := b_X + int((t2715)*d_X[1]+t2716)
			m.StoreF(t2717, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t2718 := i_i1
			if t2718 < 0 || t2718 >= d_B[0] {
				return m.OOB(t2718, d_B[0], 0, "B", 22, 23)
			}
			t2719 := i_i2
			if t2719 < 0 || t2719 >= d_B[1] {
				return m.OOB(t2719, d_B[1], 1, "B", 22, 23)
			}
			t2720 := b_B + int((t2718)*d_B[1]+t2719)
			r_B_r7 := m.LoadF(t2720)
			t2721 := i_i1
			if t2721 < 0 || t2721 >= d_A[0] {
				return m.OOB(t2721, d_A[0], 0, "A", 22, 35)
			}
			t2722 := i_i2
			if t2722 < 0 || t2722 >= d_A[1] {
				return m.OOB(t2722, d_A[1], 1, "A", 22, 35)
			}
			t2723 := b_A + int((t2721)*d_A[1]+t2722)
			r_A_r6 := m.LoadF(t2723)
			t2724 := i_i1
			if t2724 < 0 || t2724 >= d_A[0] {
				return m.OOB(t2724, d_A[0], 0, "A", 22, 47)
			}
			t2725 := i_i2
			if t2725 < 0 || t2725 >= d_A[1] {
				return m.OOB(t2725, d_A[1], 1, "A", 22, 47)
			}
			t2726 := b_A + int((t2724)*d_A[1]+t2725)
			r_A_r7 := m.LoadF(t2726)
			t2727 := i_i1 - int64(1)
			t2728 := t2727
			if t2728 < 0 || t2728 >= d_B[0] {
				return m.OOB(t2728, d_B[0], 0, "B", 22, 59)
			}
			t2729 := i_i2
			if t2729 < 0 || t2729 >= d_B[1] {
				return m.OOB(t2729, d_B[1], 1, "B", 22, 59)
			}
			t2730 := b_B + int((t2728)*d_B[1]+t2729)
			r_B_r8 := m.LoadF(t2730)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t2731 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t2732 := float64(t2731 / r_B_r8)
			t2733 := float64(r_B_r7 - t2732)
			r_B_w2 := t2733
			t2734 := i_i1
			if t2734 < 0 || t2734 >= d_B[0] {
				return m.OOB(t2734, d_B[0], 0, "B", 22, 11)
			}
			t2735 := i_i2
			if t2735 < 0 || t2735 >= d_B[1] {
				return m.OOB(t2735, d_B[1], 1, "B", 22, 11)
			}
			t2736 := b_B + int((t2734)*d_B[1]+t2735)
			m.StoreF(t2736, r_B_w2)
			t2737 := -i_t
			t2738 := t2737 + p_tsteps
			t2739 := t2738 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2739)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n44(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_i1 int64, i_t int64) error {
	t2555 := p_n - int64(3)
	t2556 := codegen.MinI(t2555, int64(0))
	for i_i2 := int64(0); i_i2 <= t2556; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2557 := i_i1
		if t2557 < 0 || t2557 >= d_X[0] {
			return m.OOB(t2557, d_X[0], 0, "X", 21, 23)
		}
		t2558 := i_i2
		if t2558 < 0 || t2558 >= d_X[1] {
			return m.OOB(t2558, d_X[1], 1, "X", 21, 23)
		}
		t2559 := b_X + int((t2557)*d_X[1]+t2558)
		r_X_r6 := m.LoadF(t2559)
		t2560 := i_i1 - int64(1)
		t2561 := t2560
		if t2561 < 0 || t2561 >= d_X[0] {
			return m.OOB(t2561, d_X[0], 0, "X", 21, 35)
		}
		t2562 := i_i2
		if t2562 < 0 || t2562 >= d_X[1] {
			return m.OOB(t2562, d_X[1], 1, "X", 21, 35)
		}
		t2563 := b_X + int((t2561)*d_X[1]+t2562)
		r_X_r7 := m.LoadF(t2563)
		t2564 := i_i1
		if t2564 < 0 || t2564 >= d_A[0] {
			return m.OOB(t2564, d_A[0], 0, "A", 21, 51)
		}
		t2565 := i_i2
		if t2565 < 0 || t2565 >= d_A[1] {
			return m.OOB(t2565, d_A[1], 1, "A", 21, 51)
		}
		t2566 := b_A + int((t2564)*d_A[1]+t2565)
		r_A_r5 := m.LoadF(t2566)
		t2567 := i_i1 - int64(1)
		t2568 := t2567
		if t2568 < 0 || t2568 >= d_B[0] {
			return m.OOB(t2568, d_B[0], 0, "B", 21, 63)
		}
		t2569 := i_i2
		if t2569 < 0 || t2569 >= d_B[1] {
			return m.OOB(t2569, d_B[1], 1, "B", 21, 63)
		}
		t2570 := b_B + int((t2568)*d_B[1]+t2569)
		r_B_r6 := m.LoadF(t2570)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
		t2571 := float64(r_X_r7 * r_A_r5)
		if r_B_r6 == 0 {
			return m.DivZero(21, 61)
		}
		t2572 := float64(t2571 / r_B_r6)
		t2573 := float64(r_X_r6 - t2572)
		r_X_w4 := t2573
		t2574 := i_i1
		if t2574 < 0 || t2574 >= d_X[0] {
			return m.OOB(t2574, d_X[0], 0, "X", 21, 11)
		}
		t2575 := i_i2
		if t2575 < 0 || t2575 >= d_X[1] {
			return m.OOB(t2575, d_X[1], 1, "X", 21, 11)
		}
		t2576 := b_X + int((t2574)*d_X[1]+t2575)
		m.StoreF(t2576, r_X_w4)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
		t2577 := i_i1
		if t2577 < 0 || t2577 >= d_B[0] {
			return m.OOB(t2577, d_B[0], 0, "B", 22, 23)
		}
		t2578 := i_i2
		if t2578 < 0 || t2578 >= d_B[1] {
			return m.OOB(t2578, d_B[1], 1, "B", 22, 23)
		}
		t2579 := b_B + int((t2577)*d_B[1]+t2578)
		r_B_r7 := m.LoadF(t2579)
		t2580 := i_i1
		if t2580 < 0 || t2580 >= d_A[0] {
			return m.OOB(t2580, d_A[0], 0, "A", 22, 35)
		}
		t2581 := i_i2
		if t2581 < 0 || t2581 >= d_A[1] {
			return m.OOB(t2581, d_A[1], 1, "A", 22, 35)
		}
		t2582 := b_A + int((t2580)*d_A[1]+t2581)
		r_A_r6 := m.LoadF(t2582)
		t2583 := i_i1
		if t2583 < 0 || t2583 >= d_A[0] {
			return m.OOB(t2583, d_A[0], 0, "A", 22, 47)
		}
		t2584 := i_i2
		if t2584 < 0 || t2584 >= d_A[1] {
			return m.OOB(t2584, d_A[1], 1, "A", 22, 47)
		}
		t2585 := b_A + int((t2583)*d_A[1]+t2584)
		r_A_r7 := m.LoadF(t2585)
		t2586 := i_i1 - int64(1)
		t2587 := t2586
		if t2587 < 0 || t2587 >= d_B[0] {
			return m.OOB(t2587, d_B[0], 0, "B", 22, 59)
		}
		t2588 := i_i2
		if t2588 < 0 || t2588 >= d_B[1] {
			return m.OOB(t2588, d_B[1], 1, "B", 22, 59)
		}
		t2589 := b_B + int((t2587)*d_B[1]+t2588)
		r_B_r8 := m.LoadF(t2589)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
		t2590 := float64(r_A_r6 * r_A_r7)
		if r_B_r8 == 0 {
			return m.DivZero(22, 57)
		}
		t2591 := float64(t2590 / r_B_r8)
		t2592 := float64(r_B_r7 - t2591)
		r_B_w2 := t2592
		t2593 := i_i1
		if t2593 < 0 || t2593 >= d_B[0] {
			return m.OOB(t2593, d_B[0], 0, "B", 22, 11)
		}
		t2594 := i_i2
		if t2594 < 0 || t2594 >= d_B[1] {
			return m.OOB(t2594, d_B[1], 1, "B", 22, 11)
		}
		t2595 := b_B + int((t2593)*d_B[1]+t2594)
		m.StoreF(t2595, r_B_w2)
		t2596 := int64(3) * i_t
		t2597 := -t2596
		t2598 := int64(3) * p_tsteps
		t2599 := t2597 + t2598
		t2600 := t2599 - int64(3)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2600)
		t2601 := -i_t
		t2602 := t2601 + p_tsteps
		t2603 := t2602 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t2603)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n45(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64, i_t int64) error {
	t2740 := p_n - int64(3)
	t2741 := codegen.MinI(t2740, int64(0))
	for i_i2 := int64(0); i_i2 <= t2741; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2742 := p_n - int64(1)
		t2743 := t2742
		if t2743 < 0 || t2743 >= d_X[0] {
			return m.OOB(t2743, d_X[0], 0, "X", 26, 24)
		}
		t2744 := i_i2
		if t2744 < 0 || t2744 >= d_X[1] {
			return m.OOB(t2744, d_X[1], 1, "X", 26, 24)
		}
		t2745 := b_X + int((t2743)*d_X[1]+t2744)
		r_X_r8 := m.LoadF(t2745)
		t2746 := p_n - int64(1)
		t2747 := t2746
		if t2747 < 0 || t2747 >= d_B[0] {
			return m.OOB(t2747, d_B[0], 0, "B", 26, 39)
		}
		t2748 := i_i2
		if t2748 < 0 || t2748 >= d_B[1] {
			return m.OOB(t2748, d_B[1], 1, "B", 26, 39)
		}
		t2749 := b_B + int((t2747)*d_B[1]+t2748)
		r_B_r9 := m.LoadF(t2749)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t2750 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t2750
		t2751 := p_n - int64(1)
		t2752 := t2751
		if t2752 < 0 || t2752 >= d_X[0] {
			return m.OOB(t2752, d_X[0], 0, "X", 26, 9)
		}
		t2753 := i_i2
		if t2753 < 0 || t2753 >= d_X[1] {
			return m.OOB(t2753, d_X[1], 1, "X", 26, 9)
		}
		t2754 := b_X + int((t2752)*d_X[1]+t2753)
		m.StoreF(t2754, r_X_w5)
		t2755 := -i_t
		t2756 := t2755 + p_tsteps
		t2757 := t2756 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2757)
		t2758 := -i_t
		t2759 := t2758 + p_tsteps
		t2760 := t2759 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2760)
		t2761 := -i_t
		t2762 := t2761 + p_tsteps
		t2763 := t2762 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t2763)
	}
	return nil
}

func run_adi_resilientopt_n46(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t2843 := p_n - int64(3)
	for i_i1 := int64(0); i_i1 <= t2843; i_i1++ {
		if err := m.Tick(28, 3); err != nil {
			return err
		}
		t2844 := p_n - int64(1)
		t2845 := codegen.MinI(t2844, int64(0))
		for i_i2 := int64(0); i_i2 <= t2845; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2846 := p_n - int64(2)
			t2847 := t2846 - i_i1
			t2848 := t2847
			if t2848 < 0 || t2848 >= d_X[0] {
				return m.OOB(t2848, d_X[0], 0, "X", 30, 32)
			}
			t2849 := i_i2
			if t2849 < 0 || t2849 >= d_X[1] {
				return m.OOB(t2849, d_X[1], 1, "X", 30, 32)
			}
			t2850 := b_X + int((t2848)*d_X[1]+t2849)
			r_X_r9 := m.LoadF(t2850)
			t2851 := p_n - i_i1
			t2852 := t2851 - int64(3)
			t2853 := t2852
			if t2853 < 0 || t2853 >= d_X[0] {
				return m.OOB(t2853, d_X[0], 0, "X", 30, 52)
			}
			t2854 := i_i2
			if t2854 < 0 || t2854 >= d_X[1] {
				return m.OOB(t2854, d_X[1], 1, "X", 30, 52)
			}
			t2855 := b_X + int((t2853)*d_X[1]+t2854)
			r_X_r10 := m.LoadF(t2855)
			t2856 := p_n - int64(3)
			t2857 := t2856 - i_i1
			t2858 := t2857
			if t2858 < 0 || t2858 >= d_A[0] {
				return m.OOB(t2858, d_A[0], 0, "A", 30, 72)
			}
			t2859 := i_i2
			if t2859 < 0 || t2859 >= d_A[1] {
				return m.OOB(t2859, d_A[1], 1, "A", 30, 72)
			}
			t2860 := b_A + int((t2858)*d_A[1]+t2859)
			r_A_r8 := m.LoadF(t2860)
			t2861 := p_n - int64(2)
			t2862 := t2861 - i_i1
			t2863 := t2862
			if t2863 < 0 || t2863 >= d_B[0] {
				return m.OOB(t2863, d_B[0], 0, "B", 30, 93)
			}
			t2864 := i_i2
			if t2864 < 0 || t2864 >= d_B[1] {
				return m.OOB(t2864, d_B[1], 1, "B", 30, 93)
			}
			t2865 := b_B + int((t2863)*d_B[1]+t2864)
			r_B_r10 := m.LoadF(t2865)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t2866 := float64(r_X_r10 * r_A_r8)
			t2867 := float64(r_X_r9 - t2866)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t2868 := float64(t2867 / r_B_r10)
			r_X_w6 := t2868
			t2869 := p_n - int64(2)
			t2870 := t2869 - i_i1
			t2871 := t2870
			if t2871 < 0 || t2871 >= d_X[0] {
				return m.OOB(t2871, d_X[0], 0, "X", 30, 11)
			}
			t2872 := i_i2
			if t2872 < 0 || t2872 >= d_X[1] {
				return m.OOB(t2872, d_X[1], 1, "X", 30, 11)
			}
			t2873 := b_X + int((t2871)*d_X[1]+t2872)
			m.StoreF(t2873, r_X_w6)
			t2874 := int64(3) * i_t
			t2875 := -t2874
			t2876 := int64(3) * p_tsteps
			t2877 := t2875 + t2876
			t2878 := t2877 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t2878)
		}
		t2879 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t2879; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2880 := p_n - int64(2)
			t2881 := t2880 - i_i1
			t2882 := t2881
			if t2882 < 0 || t2882 >= d_X[0] {
				return m.OOB(t2882, d_X[0], 0, "X", 30, 32)
			}
			t2883 := i_i2
			if t2883 < 0 || t2883 >= d_X[1] {
				return m.OOB(t2883, d_X[1], 1, "X", 30, 32)
			}
			t2884 := b_X + int((t2882)*d_X[1]+t2883)
			r_X_r9 := m.LoadF(t2884)
			t2885 := p_n - i_i1
			t2886 := t2885 - int64(3)
			t2887 := t2886
			if t2887 < 0 || t2887 >= d_X[0] {
				return m.OOB(t2887, d_X[0], 0, "X", 30, 52)
			}
			t2888 := i_i2
			if t2888 < 0 || t2888 >= d_X[1] {
				return m.OOB(t2888, d_X[1], 1, "X", 30, 52)
			}
			t2889 := b_X + int((t2887)*d_X[1]+t2888)
			r_X_r10 := m.LoadF(t2889)
			t2890 := p_n - int64(3)
			t2891 := t2890 - i_i1
			t2892 := t2891
			if t2892 < 0 || t2892 >= d_A[0] {
				return m.OOB(t2892, d_A[0], 0, "A", 30, 72)
			}
			t2893 := i_i2
			if t2893 < 0 || t2893 >= d_A[1] {
				return m.OOB(t2893, d_A[1], 1, "A", 30, 72)
			}
			t2894 := b_A + int((t2892)*d_A[1]+t2893)
			r_A_r8 := m.LoadF(t2894)
			t2895 := p_n - int64(2)
			t2896 := t2895 - i_i1
			t2897 := t2896
			if t2897 < 0 || t2897 >= d_B[0] {
				return m.OOB(t2897, d_B[0], 0, "B", 30, 93)
			}
			t2898 := i_i2
			if t2898 < 0 || t2898 >= d_B[1] {
				return m.OOB(t2898, d_B[1], 1, "B", 30, 93)
			}
			t2899 := b_B + int((t2897)*d_B[1]+t2898)
			r_B_r10 := m.LoadF(t2899)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t2900 := float64(r_X_r10 * r_A_r8)
			t2901 := float64(r_X_r9 - t2900)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t2902 := float64(t2901 / r_B_r10)
			r_X_w6 := t2902
			t2903 := p_n - int64(2)
			t2904 := t2903 - i_i1
			t2905 := t2904
			if t2905 < 0 || t2905 >= d_X[0] {
				return m.OOB(t2905, d_X[0], 0, "X", 30, 11)
			}
			t2906 := i_i2
			if t2906 < 0 || t2906 >= d_X[1] {
				return m.OOB(t2906, d_X[1], 1, "X", 30, 11)
			}
			t2907 := b_X + int((t2905)*d_X[1]+t2906)
			m.StoreF(t2907, r_X_w6)
			t2908 := -i_t
			t2909 := t2908 + p_tsteps
			t2910 := t2909 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t2910)
		}
		t2911 := p_n - int64(1)
		t2912 := codegen.MaxI(int64(1), t2911)
		t2913 := p_n - int64(1)
		for i_i2 := t2912; i_i2 <= t2913; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2914 := p_n - int64(2)
			t2915 := t2914 - i_i1
			t2916 := t2915
			if t2916 < 0 || t2916 >= d_X[0] {
				return m.OOB(t2916, d_X[0], 0, "X", 30, 32)
			}
			t2917 := i_i2
			if t2917 < 0 || t2917 >= d_X[1] {
				return m.OOB(t2917, d_X[1], 1, "X", 30, 32)
			}
			t2918 := b_X + int((t2916)*d_X[1]+t2917)
			r_X_r9 := m.LoadF(t2918)
			t2919 := p_n - i_i1
			t2920 := t2919 - int64(3)
			t2921 := t2920
			if t2921 < 0 || t2921 >= d_X[0] {
				return m.OOB(t2921, d_X[0], 0, "X", 30, 52)
			}
			t2922 := i_i2
			if t2922 < 0 || t2922 >= d_X[1] {
				return m.OOB(t2922, d_X[1], 1, "X", 30, 52)
			}
			t2923 := b_X + int((t2921)*d_X[1]+t2922)
			r_X_r10 := m.LoadF(t2923)
			t2924 := p_n - int64(3)
			t2925 := t2924 - i_i1
			t2926 := t2925
			if t2926 < 0 || t2926 >= d_A[0] {
				return m.OOB(t2926, d_A[0], 0, "A", 30, 72)
			}
			t2927 := i_i2
			if t2927 < 0 || t2927 >= d_A[1] {
				return m.OOB(t2927, d_A[1], 1, "A", 30, 72)
			}
			t2928 := b_A + int((t2926)*d_A[1]+t2927)
			r_A_r8 := m.LoadF(t2928)
			t2929 := p_n - int64(2)
			t2930 := t2929 - i_i1
			t2931 := t2930
			if t2931 < 0 || t2931 >= d_B[0] {
				return m.OOB(t2931, d_B[0], 0, "B", 30, 93)
			}
			t2932 := i_i2
			if t2932 < 0 || t2932 >= d_B[1] {
				return m.OOB(t2932, d_B[1], 1, "B", 30, 93)
			}
			t2933 := b_B + int((t2931)*d_B[1]+t2932)
			r_B_r10 := m.LoadF(t2933)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t2934 := float64(r_X_r10 * r_A_r8)
			t2935 := float64(r_X_r9 - t2934)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t2936 := float64(t2935 / r_B_r10)
			r_X_w6 := t2936
			t2937 := p_n - int64(2)
			t2938 := t2937 - i_i1
			t2939 := t2938
			if t2939 < 0 || t2939 >= d_X[0] {
				return m.OOB(t2939, d_X[0], 0, "X", 30, 11)
			}
			t2940 := i_i2
			if t2940 < 0 || t2940 >= d_X[1] {
				return m.OOB(t2940, d_X[1], 1, "X", 30, 11)
			}
			t2941 := b_X + int((t2939)*d_X[1]+t2940)
			m.StoreF(t2941, r_X_w6)
			t2942 := -i_t
			t2943 := t2942 + p_tsteps
			t2944 := t2943 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t2944)
		}
	}
	return nil
}

func run_adi_resilientopt_n47(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t2945 := p_tsteps - int64(1)
	t2946 := codegen.MaxI(int64(0), t2945)
	t2947 := p_tsteps - int64(1)
	t2948 := codegen.MinI(t2947, int64(0))
	for i_t := t2946; i_t <= t2948; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n48(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n49(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n50(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t3327 := p_n - int64(3)
		t3328 := codegen.MinI(t3327, int64(0))
		for i_i1 := int64(0); i_i1 <= t3328; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3329 := i_i1
			if t3329 < 0 || t3329 >= d_X[0] {
				return m.OOB(t3329, d_X[0], 0, "X", 12, 24)
			}
			t3330 := p_n - int64(1)
			t3331 := t3330
			if t3331 < 0 || t3331 >= d_X[1] {
				return m.OOB(t3331, d_X[1], 1, "X", 12, 24)
			}
			t3332 := b_X + int((t3329)*d_X[1]+t3331)
			r_X_r3 := m.LoadF(t3332)
			t3333 := i_i1
			if t3333 < 0 || t3333 >= d_B[0] {
				return m.OOB(t3333, d_B[0], 0, "B", 12, 39)
			}
			t3334 := p_n - int64(1)
			t3335 := t3334
			if t3335 < 0 || t3335 >= d_B[1] {
				return m.OOB(t3335, d_B[1], 1, "B", 12, 39)
			}
			t3336 := b_B + int((t3333)*d_B[1]+t3335)
			r_B_r4 := m.LoadF(t3336)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t3337 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t3337
			t3338 := i_i1
			if t3338 < 0 || t3338 >= d_X[0] {
				return m.OOB(t3338, d_X[0], 0, "X", 12, 9)
			}
			t3339 := p_n - int64(1)
			t3340 := t3339
			if t3340 < 0 || t3340 >= d_X[1] {
				return m.OOB(t3340, d_X[1], 1, "X", 12, 9)
			}
			t3341 := b_X + int((t3338)*d_X[1]+t3340)
			m.StoreF(t3341, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t3342 := p_n - int64(2)
		t3343 := codegen.MaxI(int64(0), t3342)
		t3344 := p_n - int64(1)
		t3345 := codegen.MinI(t3344, int64(0))
		for i_i1 := t3343; i_i1 <= t3345; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3346 := i_i1
			if t3346 < 0 || t3346 >= d_X[0] {
				return m.OOB(t3346, d_X[0], 0, "X", 12, 24)
			}
			t3347 := p_n - int64(1)
			t3348 := t3347
			if t3348 < 0 || t3348 >= d_X[1] {
				return m.OOB(t3348, d_X[1], 1, "X", 12, 24)
			}
			t3349 := b_X + int((t3346)*d_X[1]+t3348)
			r_X_r3 := m.LoadF(t3349)
			t3350 := i_i1
			if t3350 < 0 || t3350 >= d_B[0] {
				return m.OOB(t3350, d_B[0], 0, "B", 12, 39)
			}
			t3351 := p_n - int64(1)
			t3352 := t3351
			if t3352 < 0 || t3352 >= d_B[1] {
				return m.OOB(t3352, d_B[1], 1, "B", 12, 39)
			}
			t3353 := b_B + int((t3350)*d_B[1]+t3352)
			r_B_r4 := m.LoadF(t3353)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t3354 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t3354
			t3355 := i_i1
			if t3355 < 0 || t3355 >= d_X[0] {
				return m.OOB(t3355, d_X[0], 0, "X", 12, 9)
			}
			t3356 := p_n - int64(1)
			t3357 := t3356
			if t3357 < 0 || t3357 >= d_X[1] {
				return m.OOB(t3357, d_X[1], 1, "X", 12, 9)
			}
			t3358 := b_X + int((t3355)*d_X[1]+t3357)
			m.StoreF(t3358, r_X_w2)
			t3359 := p_n - int64(2)
			if t3359 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			}
			t3360 := -p_n
			t3361 := t3360 + int64(1)
			if t3361 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			}
		}
		t3362 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t3362; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3363 := i_i1
			if t3363 < 0 || t3363 >= d_X[0] {
				return m.OOB(t3363, d_X[0], 0, "X", 12, 24)
			}
			t3364 := p_n - int64(1)
			t3365 := t3364
			if t3365 < 0 || t3365 >= d_X[1] {
				return m.OOB(t3365, d_X[1], 1, "X", 12, 24)
			}
			t3366 := b_X + int((t3363)*d_X[1]+t3365)
			r_X_r3 := m.LoadF(t3366)
			t3367 := i_i1
			if t3367 < 0 || t3367 >= d_B[0] {
				return m.OOB(t3367, d_B[0], 0, "B", 12, 39)
			}
			t3368 := p_n - int64(1)
			t3369 := t3368
			if t3369 < 0 || t3369 >= d_B[1] {
				return m.OOB(t3369, d_B[1], 1, "B", 12, 39)
			}
			t3370 := b_B + int((t3367)*d_B[1]+t3369)
			r_B_r4 := m.LoadF(t3370)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t3371 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t3371
			t3372 := i_i1
			if t3372 < 0 || t3372 >= d_X[0] {
				return m.OOB(t3372, d_X[0], 0, "X", 12, 9)
			}
			t3373 := p_n - int64(1)
			t3374 := t3373
			if t3374 < 0 || t3374 >= d_X[1] {
				return m.OOB(t3374, d_X[1], 1, "X", 12, 9)
			}
			t3375 := b_X + int((t3372)*d_X[1]+t3374)
			m.StoreF(t3375, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t3376 := p_n - int64(1)
		t3377 := codegen.MaxI(int64(1), t3376)
		t3378 := p_n - int64(1)
		for i_i1 := t3377; i_i1 <= t3378; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3379 := i_i1
			if t3379 < 0 || t3379 >= d_X[0] {
				return m.OOB(t3379, d_X[0], 0, "X", 12, 24)
			}
			t3380 := p_n - int64(1)
			t3381 := t3380
			if t3381 < 0 || t3381 >= d_X[1] {
				return m.OOB(t3381, d_X[1], 1, "X", 12, 24)
			}
			t3382 := b_X + int((t3379)*d_X[1]+t3381)
			r_X_r3 := m.LoadF(t3382)
			t3383 := i_i1
			if t3383 < 0 || t3383 >= d_B[0] {
				return m.OOB(t3383, d_B[0], 0, "B", 12, 39)
			}
			t3384 := p_n - int64(1)
			t3385 := t3384
			if t3385 < 0 || t3385 >= d_B[1] {
				return m.OOB(t3385, d_B[1], 1, "B", 12, 39)
			}
			t3386 := b_B + int((t3383)*d_B[1]+t3385)
			r_B_r4 := m.LoadF(t3386)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t3387 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t3387
			t3388 := i_i1
			if t3388 < 0 || t3388 >= d_X[0] {
				return m.OOB(t3388, d_X[0], 0, "X", 12, 9)
			}
			t3389 := p_n - int64(1)
			t3390 := t3389
			if t3390 < 0 || t3390 >= d_X[1] {
				return m.OOB(t3390, d_X[1], 1, "X", 12, 9)
			}
			t3391 := b_X + int((t3388)*d_X[1]+t3390)
			m.StoreF(t3391, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		if err := run_adi_resilientopt_n51(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t3424 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t3424; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3425 := p_n - int64(3)
			for i_i2 := int64(0); i_i2 <= t3425; i_i2++ {
				if err := m.Tick(15, 5); err != nil {
					return err
				}
				t3426 := i_i1
				if t3426 < 0 || t3426 >= d_X[0] {
					return m.OOB(t3426, d_X[0], 0, "X", 16, 32)
				}
				t3427 := p_n - int64(2)
				t3428 := t3427 - i_i2
				t3429 := t3428
				if t3429 < 0 || t3429 >= d_X[1] {
					return m.OOB(t3429, d_X[1], 1, "X", 16, 32)
				}
				t3430 := b_X + int((t3426)*d_X[1]+t3429)
				r_X_r4 := m.LoadF(t3430)
				t3431 := i_i1
				if t3431 < 0 || t3431 >= d_X[0] {
					return m.OOB(t3431, d_X[0], 0, "X", 16, 52)
				}
				t3432 := p_n - int64(2)
				t3433 := t3432 - i_i2
				t3434 := t3433 - int64(1)
				t3435 := t3434
				if t3435 < 0 || t3435 >= d_X[1] {
					return m.OOB(t3435, d_X[1], 1, "X", 16, 52)
				}
				t3436 := b_X + int((t3431)*d_X[1]+t3435)
				r_X_r5 := m.LoadF(t3436)
				t3437 := i_i1
				if t3437 < 0 || t3437 >= d_A[0] {
					return m.OOB(t3437, d_A[0], 0, "A", 16, 76)
				}
				t3438 := p_n - i_i2
				t3439 := t3438 - int64(3)
				t3440 := t3439
				if t3440 < 0 || t3440 >= d_A[1] {
					return m.OOB(t3440, d_A[1], 1, "A", 16, 76)
				}
				t3441 := b_A + int((t3437)*d_A[1]+t3440)
				r_A_r4 := m.LoadF(t3441)
				t3442 := i_i1
				if t3442 < 0 || t3442 >= d_B[0] {
					return m.OOB(t3442, d_B[0], 0, "B", 16, 97)
				}
				t3443 := p_n - int64(3)
				t3444 := t3443 - i_i2
				t3445 := t3444
				if t3445 < 0 || t3445 >= d_B[1] {
					return m.OOB(t3445, d_B[1], 1, "B", 16, 97)
				}
				t3446 := b_B + int((t3442)*d_B[1]+t3445)
				r_B_r5 := m.LoadF(t3446)
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
				t3447 := float64(r_X_r5 * r_A_r4)
				t3448 := float64(r_X_r4 - t3447)
				if r_B_r5 == 0 {
					return m.DivZero(16, 95)
				}
				t3449 := float64(t3448 / r_B_r5)
				r_X_w3 := t3449
				t3450 := i_i1
				if t3450 < 0 || t3450 >= d_X[0] {
					return m.OOB(t3450, d_X[0], 0, "X", 16, 11)
				}
				t3451 := p_n - i_i2
				t3452 := t3451 - int64(2)
				t3453 := t3452
				if t3453 < 0 || t3453 >= d_X[1] {
					return m.OOB(t3453, d_X[1], 1, "X", 16, 11)
				}
				t3454 := b_X + int((t3450)*d_X[1]+t3453)
				m.StoreF(t3454, r_X_w3)
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
		}
		if err := run_adi_resilientopt_n52(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n53(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n54(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n55(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t3864 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t3864; i_i2++ {
			if err := m.Tick(25, 3); err != nil {
				return err
			}
			t3865 := p_n - int64(1)
			t3866 := t3865
			if t3866 < 0 || t3866 >= d_X[0] {
				return m.OOB(t3866, d_X[0], 0, "X", 26, 24)
			}
			t3867 := i_i2
			if t3867 < 0 || t3867 >= d_X[1] {
				return m.OOB(t3867, d_X[1], 1, "X", 26, 24)
			}
			t3868 := b_X + int((t3866)*d_X[1]+t3867)
			r_X_r8 := m.LoadF(t3868)
			t3869 := p_n - int64(1)
			t3870 := t3869
			if t3870 < 0 || t3870 >= d_B[0] {
				return m.OOB(t3870, d_B[0], 0, "B", 26, 39)
			}
			t3871 := i_i2
			if t3871 < 0 || t3871 >= d_B[1] {
				return m.OOB(t3871, d_B[1], 1, "B", 26, 39)
			}
			t3872 := b_B + int((t3870)*d_B[1]+t3871)
			r_B_r9 := m.LoadF(t3872)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t3873 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t3873
			t3874 := p_n - int64(1)
			t3875 := t3874
			if t3875 < 0 || t3875 >= d_X[0] {
				return m.OOB(t3875, d_X[0], 0, "X", 26, 9)
			}
			t3876 := i_i2
			if t3876 < 0 || t3876 >= d_X[1] {
				return m.OOB(t3876, d_X[1], 1, "X", 26, 9)
			}
			t3877 := b_X + int((t3875)*d_X[1]+t3876)
			m.StoreF(t3877, r_X_w5)
		}
		t3878 := p_n - int64(3)
		for i_i1 := int64(0); i_i1 <= t3878; i_i1++ {
			if err := m.Tick(28, 3); err != nil {
				return err
			}
			t3879 := p_n - int64(1)
			for i_i2 := int64(0); i_i2 <= t3879; i_i2++ {
				if err := m.Tick(29, 5); err != nil {
					return err
				}
				t3880 := p_n - int64(2)
				t3881 := t3880 - i_i1
				t3882 := t3881
				if t3882 < 0 || t3882 >= d_X[0] {
					return m.OOB(t3882, d_X[0], 0, "X", 30, 32)
				}
				t3883 := i_i2
				if t3883 < 0 || t3883 >= d_X[1] {
					return m.OOB(t3883, d_X[1], 1, "X", 30, 32)
				}
				t3884 := b_X + int((t3882)*d_X[1]+t3883)
				r_X_r9 := m.LoadF(t3884)
				t3885 := p_n - i_i1
				t3886 := t3885 - int64(3)
				t3887 := t3886
				if t3887 < 0 || t3887 >= d_X[0] {
					return m.OOB(t3887, d_X[0], 0, "X", 30, 52)
				}
				t3888 := i_i2
				if t3888 < 0 || t3888 >= d_X[1] {
					return m.OOB(t3888, d_X[1], 1, "X", 30, 52)
				}
				t3889 := b_X + int((t3887)*d_X[1]+t3888)
				r_X_r10 := m.LoadF(t3889)
				t3890 := p_n - int64(3)
				t3891 := t3890 - i_i1
				t3892 := t3891
				if t3892 < 0 || t3892 >= d_A[0] {
					return m.OOB(t3892, d_A[0], 0, "A", 30, 72)
				}
				t3893 := i_i2
				if t3893 < 0 || t3893 >= d_A[1] {
					return m.OOB(t3893, d_A[1], 1, "A", 30, 72)
				}
				t3894 := b_A + int((t3892)*d_A[1]+t3893)
				r_A_r8 := m.LoadF(t3894)
				t3895 := p_n - int64(2)
				t3896 := t3895 - i_i1
				t3897 := t3896
				if t3897 < 0 || t3897 >= d_B[0] {
					return m.OOB(t3897, d_B[0], 0, "B", 30, 93)
				}
				t3898 := i_i2
				if t3898 < 0 || t3898 >= d_B[1] {
					return m.OOB(t3898, d_B[1], 1, "B", 30, 93)
				}
				t3899 := b_B + int((t3897)*d_B[1]+t3898)
				r_B_r10 := m.LoadF(t3899)
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
				t3900 := float64(r_X_r10 * r_A_r8)
				t3901 := float64(r_X_r9 - t3900)
				if r_B_r10 == 0 {
					return m.DivZero(30, 91)
				}
				t3902 := float64(t3901 / r_B_r10)
				r_X_w6 := t3902
				t3903 := p_n - int64(2)
				t3904 := t3903 - i_i1
				t3905 := t3904
				if t3905 < 0 || t3905 >= d_X[0] {
					return m.OOB(t3905, d_X[0], 0, "X", 30, 11)
				}
				t3906 := i_i2
				if t3906 < 0 || t3906 >= d_X[1] {
					return m.OOB(t3906, d_X[1], 1, "X", 30, 11)
				}
				t3907 := b_X + int((t3905)*d_X[1]+t3906)
				m.StoreF(t3907, r_X_w6)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n48(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t2949 := p_n - int64(1)
	t2950 := codegen.MinI(t2949, int64(0))
	for i_i1 := int64(0); i_i1 <= t2950; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t2951 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t2951; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2952 := i_i1
			if t2952 < 0 || t2952 >= d_X[0] {
				return m.OOB(t2952, d_X[0], 0, "X", 7, 23)
			}
			t2953 := i_i2
			if t2953 < 0 || t2953 >= d_X[1] {
				return m.OOB(t2953, d_X[1], 1, "X", 7, 23)
			}
			t2954 := b_X + int((t2952)*d_X[1]+t2953)
			r_X_r := m.LoadF(t2954)
			t2955 := i_i1
			if t2955 < 0 || t2955 >= d_X[0] {
				return m.OOB(t2955, d_X[0], 0, "X", 7, 35)
			}
			t2956 := i_i2 - int64(1)
			t2957 := t2956
			if t2957 < 0 || t2957 >= d_X[1] {
				return m.OOB(t2957, d_X[1], 1, "X", 7, 35)
			}
			t2958 := b_X + int((t2955)*d_X[1]+t2957)
			r_X_r2 := m.LoadF(t2958)
			t2959 := i_i1
			if t2959 < 0 || t2959 >= d_A[0] {
				return m.OOB(t2959, d_A[0], 0, "A", 7, 51)
			}
			t2960 := i_i2
			if t2960 < 0 || t2960 >= d_A[1] {
				return m.OOB(t2960, d_A[1], 1, "A", 7, 51)
			}
			t2961 := b_A + int((t2959)*d_A[1]+t2960)
			r_A_r := m.LoadF(t2961)
			t2962 := i_i1
			if t2962 < 0 || t2962 >= d_B[0] {
				return m.OOB(t2962, d_B[0], 0, "B", 7, 63)
			}
			t2963 := i_i2 - int64(1)
			t2964 := t2963
			if t2964 < 0 || t2964 >= d_B[1] {
				return m.OOB(t2964, d_B[1], 1, "B", 7, 63)
			}
			t2965 := b_B + int((t2962)*d_B[1]+t2964)
			r_B_r := m.LoadF(t2965)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t2966 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t2967 := float64(t2966 / r_B_r)
			t2968 := float64(r_X_r - t2967)
			r_X_w := t2968
			t2969 := i_i1
			if t2969 < 0 || t2969 >= d_X[0] {
				return m.OOB(t2969, d_X[0], 0, "X", 7, 11)
			}
			t2970 := i_i2
			if t2970 < 0 || t2970 >= d_X[1] {
				return m.OOB(t2970, d_X[1], 1, "X", 7, 11)
			}
			t2971 := b_X + int((t2969)*d_X[1]+t2970)
			m.StoreF(t2971, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t2972 := i_i1
			if t2972 < 0 || t2972 >= d_B[0] {
				return m.OOB(t2972, d_B[0], 0, "B", 8, 23)
			}
			t2973 := i_i2
			if t2973 < 0 || t2973 >= d_B[1] {
				return m.OOB(t2973, d_B[1], 1, "B", 8, 23)
			}
			t2974 := b_B + int((t2972)*d_B[1]+t2973)
			r_B_r2 := m.LoadF(t2974)
			t2975 := i_i1
			if t2975 < 0 || t2975 >= d_A[0] {
				return m.OOB(t2975, d_A[0], 0, "A", 8, 35)
			}
			t2976 := i_i2
			if t2976 < 0 || t2976 >= d_A[1] {
				return m.OOB(t2976, d_A[1], 1, "A", 8, 35)
			}
			t2977 := b_A + int((t2975)*d_A[1]+t2976)
			r_A_r2 := m.LoadF(t2977)
			t2978 := i_i1
			if t2978 < 0 || t2978 >= d_A[0] {
				return m.OOB(t2978, d_A[0], 0, "A", 8, 47)
			}
			t2979 := i_i2
			if t2979 < 0 || t2979 >= d_A[1] {
				return m.OOB(t2979, d_A[1], 1, "A", 8, 47)
			}
			t2980 := b_A + int((t2978)*d_A[1]+t2979)
			r_A_r3 := m.LoadF(t2980)
			t2981 := i_i1
			if t2981 < 0 || t2981 >= d_B[0] {
				return m.OOB(t2981, d_B[0], 0, "B", 8, 59)
			}
			t2982 := i_i2 - int64(1)
			t2983 := t2982
			if t2983 < 0 || t2983 >= d_B[1] {
				return m.OOB(t2983, d_B[1], 1, "B", 8, 59)
			}
			t2984 := b_B + int((t2981)*d_B[1]+t2983)
			r_B_r3 := m.LoadF(t2984)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t2985 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t2986 := float64(t2985 / r_B_r3)
			t2987 := float64(r_B_r2 - t2986)
			r_B_w := t2987
			t2988 := i_i1
			if t2988 < 0 || t2988 >= d_B[0] {
				return m.OOB(t2988, d_B[0], 0, "B", 8, 11)
			}
			t2989 := i_i2
			if t2989 < 0 || t2989 >= d_B[1] {
				return m.OOB(t2989, d_B[1], 1, "B", 8, 11)
			}
			t2990 := b_B + int((t2988)*d_B[1]+t2989)
			m.StoreF(t2990, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t2991 := p_n - int64(2)
		t2992 := codegen.MaxI(int64(1), t2991)
		t2993 := p_n - int64(2)
		for i_i2 := t2992; i_i2 <= t2993; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t2994 := i_i1
			if t2994 < 0 || t2994 >= d_X[0] {
				return m.OOB(t2994, d_X[0], 0, "X", 7, 23)
			}
			t2995 := i_i2
			if t2995 < 0 || t2995 >= d_X[1] {
				return m.OOB(t2995, d_X[1], 1, "X", 7, 23)
			}
			t2996 := b_X + int((t2994)*d_X[1]+t2995)
			r_X_r := m.LoadF(t2996)
			t2997 := i_i1
			if t2997 < 0 || t2997 >= d_X[0] {
				return m.OOB(t2997, d_X[0], 0, "X", 7, 35)
			}
			t2998 := i_i2 - int64(1)
			t2999 := t2998
			if t2999 < 0 || t2999 >= d_X[1] {
				return m.OOB(t2999, d_X[1], 1, "X", 7, 35)
			}
			t3000 := b_X + int((t2997)*d_X[1]+t2999)
			r_X_r2 := m.LoadF(t3000)
			t3001 := i_i1
			if t3001 < 0 || t3001 >= d_A[0] {
				return m.OOB(t3001, d_A[0], 0, "A", 7, 51)
			}
			t3002 := i_i2
			if t3002 < 0 || t3002 >= d_A[1] {
				return m.OOB(t3002, d_A[1], 1, "A", 7, 51)
			}
			t3003 := b_A + int((t3001)*d_A[1]+t3002)
			r_A_r := m.LoadF(t3003)
			t3004 := i_i1
			if t3004 < 0 || t3004 >= d_B[0] {
				return m.OOB(t3004, d_B[0], 0, "B", 7, 63)
			}
			t3005 := i_i2 - int64(1)
			t3006 := t3005
			if t3006 < 0 || t3006 >= d_B[1] {
				return m.OOB(t3006, d_B[1], 1, "B", 7, 63)
			}
			t3007 := b_B + int((t3004)*d_B[1]+t3006)
			r_B_r := m.LoadF(t3007)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3008 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3009 := float64(t3008 / r_B_r)
			t3010 := float64(r_X_r - t3009)
			r_X_w := t3010
			t3011 := i_i1
			if t3011 < 0 || t3011 >= d_X[0] {
				return m.OOB(t3011, d_X[0], 0, "X", 7, 11)
			}
			t3012 := i_i2
			if t3012 < 0 || t3012 >= d_X[1] {
				return m.OOB(t3012, d_X[1], 1, "X", 7, 11)
			}
			t3013 := b_X + int((t3011)*d_X[1]+t3012)
			m.StoreF(t3013, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t3014 := i_i1
			if t3014 < 0 || t3014 >= d_B[0] {
				return m.OOB(t3014, d_B[0], 0, "B", 8, 23)
			}
			t3015 := i_i2
			if t3015 < 0 || t3015 >= d_B[1] {
				return m.OOB(t3015, d_B[1], 1, "B", 8, 23)
			}
			t3016 := b_B + int((t3014)*d_B[1]+t3015)
			r_B_r2 := m.LoadF(t3016)
			t3017 := i_i1
			if t3017 < 0 || t3017 >= d_A[0] {
				return m.OOB(t3017, d_A[0], 0, "A", 8, 35)
			}
			t3018 := i_i2
			if t3018 < 0 || t3018 >= d_A[1] {
				return m.OOB(t3018, d_A[1], 1, "A", 8, 35)
			}
			t3019 := b_A + int((t3017)*d_A[1]+t3018)
			r_A_r2 := m.LoadF(t3019)
			t3020 := i_i1
			if t3020 < 0 || t3020 >= d_A[0] {
				return m.OOB(t3020, d_A[0], 0, "A", 8, 47)
			}
			t3021 := i_i2
			if t3021 < 0 || t3021 >= d_A[1] {
				return m.OOB(t3021, d_A[1], 1, "A", 8, 47)
			}
			t3022 := b_A + int((t3020)*d_A[1]+t3021)
			r_A_r3 := m.LoadF(t3022)
			t3023 := i_i1
			if t3023 < 0 || t3023 >= d_B[0] {
				return m.OOB(t3023, d_B[0], 0, "B", 8, 59)
			}
			t3024 := i_i2 - int64(1)
			t3025 := t3024
			if t3025 < 0 || t3025 >= d_B[1] {
				return m.OOB(t3025, d_B[1], 1, "B", 8, 59)
			}
			t3026 := b_B + int((t3023)*d_B[1]+t3025)
			r_B_r3 := m.LoadF(t3026)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3027 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3028 := float64(t3027 / r_B_r3)
			t3029 := float64(r_B_r2 - t3028)
			r_B_w := t3029
			t3030 := i_i1
			if t3030 < 0 || t3030 >= d_B[0] {
				return m.OOB(t3030, d_B[0], 0, "B", 8, 11)
			}
			t3031 := i_i2
			if t3031 < 0 || t3031 >= d_B[1] {
				return m.OOB(t3031, d_B[1], 1, "B", 8, 11)
			}
			t3032 := b_B + int((t3030)*d_B[1]+t3031)
			m.StoreF(t3032, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t3033 := p_n - int64(1)
		t3034 := codegen.MaxI(int64(1), t3033)
		t3035 := p_n - int64(1)
		for i_i2 := t3034; i_i2 <= t3035; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3036 := i_i1
			if t3036 < 0 || t3036 >= d_X[0] {
				return m.OOB(t3036, d_X[0], 0, "X", 7, 23)
			}
			t3037 := i_i2
			if t3037 < 0 || t3037 >= d_X[1] {
				return m.OOB(t3037, d_X[1], 1, "X", 7, 23)
			}
			t3038 := b_X + int((t3036)*d_X[1]+t3037)
			r_X_r := m.LoadF(t3038)
			t3039 := i_i1
			if t3039 < 0 || t3039 >= d_X[0] {
				return m.OOB(t3039, d_X[0], 0, "X", 7, 35)
			}
			t3040 := i_i2 - int64(1)
			t3041 := t3040
			if t3041 < 0 || t3041 >= d_X[1] {
				return m.OOB(t3041, d_X[1], 1, "X", 7, 35)
			}
			t3042 := b_X + int((t3039)*d_X[1]+t3041)
			r_X_r2 := m.LoadF(t3042)
			t3043 := i_i1
			if t3043 < 0 || t3043 >= d_A[0] {
				return m.OOB(t3043, d_A[0], 0, "A", 7, 51)
			}
			t3044 := i_i2
			if t3044 < 0 || t3044 >= d_A[1] {
				return m.OOB(t3044, d_A[1], 1, "A", 7, 51)
			}
			t3045 := b_A + int((t3043)*d_A[1]+t3044)
			r_A_r := m.LoadF(t3045)
			t3046 := i_i1
			if t3046 < 0 || t3046 >= d_B[0] {
				return m.OOB(t3046, d_B[0], 0, "B", 7, 63)
			}
			t3047 := i_i2 - int64(1)
			t3048 := t3047
			if t3048 < 0 || t3048 >= d_B[1] {
				return m.OOB(t3048, d_B[1], 1, "B", 7, 63)
			}
			t3049 := b_B + int((t3046)*d_B[1]+t3048)
			r_B_r := m.LoadF(t3049)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3050 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3051 := float64(t3050 / r_B_r)
			t3052 := float64(r_X_r - t3051)
			r_X_w := t3052
			t3053 := i_i1
			if t3053 < 0 || t3053 >= d_X[0] {
				return m.OOB(t3053, d_X[0], 0, "X", 7, 11)
			}
			t3054 := i_i2
			if t3054 < 0 || t3054 >= d_X[1] {
				return m.OOB(t3054, d_X[1], 1, "X", 7, 11)
			}
			t3055 := b_X + int((t3053)*d_X[1]+t3054)
			m.StoreF(t3055, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t3056 := i_i1
			if t3056 < 0 || t3056 >= d_B[0] {
				return m.OOB(t3056, d_B[0], 0, "B", 8, 23)
			}
			t3057 := i_i2
			if t3057 < 0 || t3057 >= d_B[1] {
				return m.OOB(t3057, d_B[1], 1, "B", 8, 23)
			}
			t3058 := b_B + int((t3056)*d_B[1]+t3057)
			r_B_r2 := m.LoadF(t3058)
			t3059 := i_i1
			if t3059 < 0 || t3059 >= d_A[0] {
				return m.OOB(t3059, d_A[0], 0, "A", 8, 35)
			}
			t3060 := i_i2
			if t3060 < 0 || t3060 >= d_A[1] {
				return m.OOB(t3060, d_A[1], 1, "A", 8, 35)
			}
			t3061 := b_A + int((t3059)*d_A[1]+t3060)
			r_A_r2 := m.LoadF(t3061)
			t3062 := i_i1
			if t3062 < 0 || t3062 >= d_A[0] {
				return m.OOB(t3062, d_A[0], 0, "A", 8, 47)
			}
			t3063 := i_i2
			if t3063 < 0 || t3063 >= d_A[1] {
				return m.OOB(t3063, d_A[1], 1, "A", 8, 47)
			}
			t3064 := b_A + int((t3062)*d_A[1]+t3063)
			r_A_r3 := m.LoadF(t3064)
			t3065 := i_i1
			if t3065 < 0 || t3065 >= d_B[0] {
				return m.OOB(t3065, d_B[0], 0, "B", 8, 59)
			}
			t3066 := i_i2 - int64(1)
			t3067 := t3066
			if t3067 < 0 || t3067 >= d_B[1] {
				return m.OOB(t3067, d_B[1], 1, "B", 8, 59)
			}
			t3068 := b_B + int((t3065)*d_B[1]+t3067)
			r_B_r3 := m.LoadF(t3068)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3069 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3070 := float64(t3069 / r_B_r3)
			t3071 := float64(r_B_r2 - t3070)
			r_B_w := t3071
			t3072 := i_i1
			if t3072 < 0 || t3072 >= d_B[0] {
				return m.OOB(t3072, d_B[0], 0, "B", 8, 11)
			}
			t3073 := i_i2
			if t3073 < 0 || t3073 >= d_B[1] {
				return m.OOB(t3073, d_B[1], 1, "B", 8, 11)
			}
			t3074 := b_B + int((t3072)*d_B[1]+t3073)
			m.StoreF(t3074, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n49(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3075 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t3075; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3076 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t3076; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3077 := i_i1
			if t3077 < 0 || t3077 >= d_X[0] {
				return m.OOB(t3077, d_X[0], 0, "X", 7, 23)
			}
			t3078 := i_i2
			if t3078 < 0 || t3078 >= d_X[1] {
				return m.OOB(t3078, d_X[1], 1, "X", 7, 23)
			}
			t3079 := b_X + int((t3077)*d_X[1]+t3078)
			r_X_r := m.LoadF(t3079)
			t3080 := i_i1
			if t3080 < 0 || t3080 >= d_X[0] {
				return m.OOB(t3080, d_X[0], 0, "X", 7, 35)
			}
			t3081 := i_i2 - int64(1)
			t3082 := t3081
			if t3082 < 0 || t3082 >= d_X[1] {
				return m.OOB(t3082, d_X[1], 1, "X", 7, 35)
			}
			t3083 := b_X + int((t3080)*d_X[1]+t3082)
			r_X_r2 := m.LoadF(t3083)
			t3084 := i_i1
			if t3084 < 0 || t3084 >= d_A[0] {
				return m.OOB(t3084, d_A[0], 0, "A", 7, 51)
			}
			t3085 := i_i2
			if t3085 < 0 || t3085 >= d_A[1] {
				return m.OOB(t3085, d_A[1], 1, "A", 7, 51)
			}
			t3086 := b_A + int((t3084)*d_A[1]+t3085)
			r_A_r := m.LoadF(t3086)
			t3087 := i_i1
			if t3087 < 0 || t3087 >= d_B[0] {
				return m.OOB(t3087, d_B[0], 0, "B", 7, 63)
			}
			t3088 := i_i2 - int64(1)
			t3089 := t3088
			if t3089 < 0 || t3089 >= d_B[1] {
				return m.OOB(t3089, d_B[1], 1, "B", 7, 63)
			}
			t3090 := b_B + int((t3087)*d_B[1]+t3089)
			r_B_r := m.LoadF(t3090)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3091 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3092 := float64(t3091 / r_B_r)
			t3093 := float64(r_X_r - t3092)
			r_X_w := t3093
			t3094 := i_i1
			if t3094 < 0 || t3094 >= d_X[0] {
				return m.OOB(t3094, d_X[0], 0, "X", 7, 11)
			}
			t3095 := i_i2
			if t3095 < 0 || t3095 >= d_X[1] {
				return m.OOB(t3095, d_X[1], 1, "X", 7, 11)
			}
			t3096 := b_X + int((t3094)*d_X[1]+t3095)
			m.StoreF(t3096, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t3097 := i_i1
			if t3097 < 0 || t3097 >= d_B[0] {
				return m.OOB(t3097, d_B[0], 0, "B", 8, 23)
			}
			t3098 := i_i2
			if t3098 < 0 || t3098 >= d_B[1] {
				return m.OOB(t3098, d_B[1], 1, "B", 8, 23)
			}
			t3099 := b_B + int((t3097)*d_B[1]+t3098)
			r_B_r2 := m.LoadF(t3099)
			t3100 := i_i1
			if t3100 < 0 || t3100 >= d_A[0] {
				return m.OOB(t3100, d_A[0], 0, "A", 8, 35)
			}
			t3101 := i_i2
			if t3101 < 0 || t3101 >= d_A[1] {
				return m.OOB(t3101, d_A[1], 1, "A", 8, 35)
			}
			t3102 := b_A + int((t3100)*d_A[1]+t3101)
			r_A_r2 := m.LoadF(t3102)
			t3103 := i_i1
			if t3103 < 0 || t3103 >= d_A[0] {
				return m.OOB(t3103, d_A[0], 0, "A", 8, 47)
			}
			t3104 := i_i2
			if t3104 < 0 || t3104 >= d_A[1] {
				return m.OOB(t3104, d_A[1], 1, "A", 8, 47)
			}
			t3105 := b_A + int((t3103)*d_A[1]+t3104)
			r_A_r3 := m.LoadF(t3105)
			t3106 := i_i1
			if t3106 < 0 || t3106 >= d_B[0] {
				return m.OOB(t3106, d_B[0], 0, "B", 8, 59)
			}
			t3107 := i_i2 - int64(1)
			t3108 := t3107
			if t3108 < 0 || t3108 >= d_B[1] {
				return m.OOB(t3108, d_B[1], 1, "B", 8, 59)
			}
			t3109 := b_B + int((t3106)*d_B[1]+t3108)
			r_B_r3 := m.LoadF(t3109)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3110 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3111 := float64(t3110 / r_B_r3)
			t3112 := float64(r_B_r2 - t3111)
			r_B_w := t3112
			t3113 := i_i1
			if t3113 < 0 || t3113 >= d_B[0] {
				return m.OOB(t3113, d_B[0], 0, "B", 8, 11)
			}
			t3114 := i_i2
			if t3114 < 0 || t3114 >= d_B[1] {
				return m.OOB(t3114, d_B[1], 1, "B", 8, 11)
			}
			t3115 := b_B + int((t3113)*d_B[1]+t3114)
			m.StoreF(t3115, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t3116 := p_n - int64(2)
		t3117 := codegen.MaxI(int64(1), t3116)
		t3118 := p_n - int64(2)
		for i_i2 := t3117; i_i2 <= t3118; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3119 := i_i1
			if t3119 < 0 || t3119 >= d_X[0] {
				return m.OOB(t3119, d_X[0], 0, "X", 7, 23)
			}
			t3120 := i_i2
			if t3120 < 0 || t3120 >= d_X[1] {
				return m.OOB(t3120, d_X[1], 1, "X", 7, 23)
			}
			t3121 := b_X + int((t3119)*d_X[1]+t3120)
			r_X_r := m.LoadF(t3121)
			t3122 := i_i1
			if t3122 < 0 || t3122 >= d_X[0] {
				return m.OOB(t3122, d_X[0], 0, "X", 7, 35)
			}
			t3123 := i_i2 - int64(1)
			t3124 := t3123
			if t3124 < 0 || t3124 >= d_X[1] {
				return m.OOB(t3124, d_X[1], 1, "X", 7, 35)
			}
			t3125 := b_X + int((t3122)*d_X[1]+t3124)
			r_X_r2 := m.LoadF(t3125)
			t3126 := i_i1
			if t3126 < 0 || t3126 >= d_A[0] {
				return m.OOB(t3126, d_A[0], 0, "A", 7, 51)
			}
			t3127 := i_i2
			if t3127 < 0 || t3127 >= d_A[1] {
				return m.OOB(t3127, d_A[1], 1, "A", 7, 51)
			}
			t3128 := b_A + int((t3126)*d_A[1]+t3127)
			r_A_r := m.LoadF(t3128)
			t3129 := i_i1
			if t3129 < 0 || t3129 >= d_B[0] {
				return m.OOB(t3129, d_B[0], 0, "B", 7, 63)
			}
			t3130 := i_i2 - int64(1)
			t3131 := t3130
			if t3131 < 0 || t3131 >= d_B[1] {
				return m.OOB(t3131, d_B[1], 1, "B", 7, 63)
			}
			t3132 := b_B + int((t3129)*d_B[1]+t3131)
			r_B_r := m.LoadF(t3132)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3133 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3134 := float64(t3133 / r_B_r)
			t3135 := float64(r_X_r - t3134)
			r_X_w := t3135
			t3136 := i_i1
			if t3136 < 0 || t3136 >= d_X[0] {
				return m.OOB(t3136, d_X[0], 0, "X", 7, 11)
			}
			t3137 := i_i2
			if t3137 < 0 || t3137 >= d_X[1] {
				return m.OOB(t3137, d_X[1], 1, "X", 7, 11)
			}
			t3138 := b_X + int((t3136)*d_X[1]+t3137)
			m.StoreF(t3138, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t3139 := i_i1
			if t3139 < 0 || t3139 >= d_B[0] {
				return m.OOB(t3139, d_B[0], 0, "B", 8, 23)
			}
			t3140 := i_i2
			if t3140 < 0 || t3140 >= d_B[1] {
				return m.OOB(t3140, d_B[1], 1, "B", 8, 23)
			}
			t3141 := b_B + int((t3139)*d_B[1]+t3140)
			r_B_r2 := m.LoadF(t3141)
			t3142 := i_i1
			if t3142 < 0 || t3142 >= d_A[0] {
				return m.OOB(t3142, d_A[0], 0, "A", 8, 35)
			}
			t3143 := i_i2
			if t3143 < 0 || t3143 >= d_A[1] {
				return m.OOB(t3143, d_A[1], 1, "A", 8, 35)
			}
			t3144 := b_A + int((t3142)*d_A[1]+t3143)
			r_A_r2 := m.LoadF(t3144)
			t3145 := i_i1
			if t3145 < 0 || t3145 >= d_A[0] {
				return m.OOB(t3145, d_A[0], 0, "A", 8, 47)
			}
			t3146 := i_i2
			if t3146 < 0 || t3146 >= d_A[1] {
				return m.OOB(t3146, d_A[1], 1, "A", 8, 47)
			}
			t3147 := b_A + int((t3145)*d_A[1]+t3146)
			r_A_r3 := m.LoadF(t3147)
			t3148 := i_i1
			if t3148 < 0 || t3148 >= d_B[0] {
				return m.OOB(t3148, d_B[0], 0, "B", 8, 59)
			}
			t3149 := i_i2 - int64(1)
			t3150 := t3149
			if t3150 < 0 || t3150 >= d_B[1] {
				return m.OOB(t3150, d_B[1], 1, "B", 8, 59)
			}
			t3151 := b_B + int((t3148)*d_B[1]+t3150)
			r_B_r3 := m.LoadF(t3151)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3152 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3153 := float64(t3152 / r_B_r3)
			t3154 := float64(r_B_r2 - t3153)
			r_B_w := t3154
			t3155 := i_i1
			if t3155 < 0 || t3155 >= d_B[0] {
				return m.OOB(t3155, d_B[0], 0, "B", 8, 11)
			}
			t3156 := i_i2
			if t3156 < 0 || t3156 >= d_B[1] {
				return m.OOB(t3156, d_B[1], 1, "B", 8, 11)
			}
			t3157 := b_B + int((t3155)*d_B[1]+t3156)
			m.StoreF(t3157, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t3158 := p_n - int64(1)
		t3159 := codegen.MaxI(int64(1), t3158)
		t3160 := p_n - int64(1)
		for i_i2 := t3159; i_i2 <= t3160; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3161 := i_i1
			if t3161 < 0 || t3161 >= d_X[0] {
				return m.OOB(t3161, d_X[0], 0, "X", 7, 23)
			}
			t3162 := i_i2
			if t3162 < 0 || t3162 >= d_X[1] {
				return m.OOB(t3162, d_X[1], 1, "X", 7, 23)
			}
			t3163 := b_X + int((t3161)*d_X[1]+t3162)
			r_X_r := m.LoadF(t3163)
			t3164 := i_i1
			if t3164 < 0 || t3164 >= d_X[0] {
				return m.OOB(t3164, d_X[0], 0, "X", 7, 35)
			}
			t3165 := i_i2 - int64(1)
			t3166 := t3165
			if t3166 < 0 || t3166 >= d_X[1] {
				return m.OOB(t3166, d_X[1], 1, "X", 7, 35)
			}
			t3167 := b_X + int((t3164)*d_X[1]+t3166)
			r_X_r2 := m.LoadF(t3167)
			t3168 := i_i1
			if t3168 < 0 || t3168 >= d_A[0] {
				return m.OOB(t3168, d_A[0], 0, "A", 7, 51)
			}
			t3169 := i_i2
			if t3169 < 0 || t3169 >= d_A[1] {
				return m.OOB(t3169, d_A[1], 1, "A", 7, 51)
			}
			t3170 := b_A + int((t3168)*d_A[1]+t3169)
			r_A_r := m.LoadF(t3170)
			t3171 := i_i1
			if t3171 < 0 || t3171 >= d_B[0] {
				return m.OOB(t3171, d_B[0], 0, "B", 7, 63)
			}
			t3172 := i_i2 - int64(1)
			t3173 := t3172
			if t3173 < 0 || t3173 >= d_B[1] {
				return m.OOB(t3173, d_B[1], 1, "B", 7, 63)
			}
			t3174 := b_B + int((t3171)*d_B[1]+t3173)
			r_B_r := m.LoadF(t3174)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3175 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3176 := float64(t3175 / r_B_r)
			t3177 := float64(r_X_r - t3176)
			r_X_w := t3177
			t3178 := i_i1
			if t3178 < 0 || t3178 >= d_X[0] {
				return m.OOB(t3178, d_X[0], 0, "X", 7, 11)
			}
			t3179 := i_i2
			if t3179 < 0 || t3179 >= d_X[1] {
				return m.OOB(t3179, d_X[1], 1, "X", 7, 11)
			}
			t3180 := b_X + int((t3178)*d_X[1]+t3179)
			m.StoreF(t3180, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t3181 := i_i1
			if t3181 < 0 || t3181 >= d_B[0] {
				return m.OOB(t3181, d_B[0], 0, "B", 8, 23)
			}
			t3182 := i_i2
			if t3182 < 0 || t3182 >= d_B[1] {
				return m.OOB(t3182, d_B[1], 1, "B", 8, 23)
			}
			t3183 := b_B + int((t3181)*d_B[1]+t3182)
			r_B_r2 := m.LoadF(t3183)
			t3184 := i_i1
			if t3184 < 0 || t3184 >= d_A[0] {
				return m.OOB(t3184, d_A[0], 0, "A", 8, 35)
			}
			t3185 := i_i2
			if t3185 < 0 || t3185 >= d_A[1] {
				return m.OOB(t3185, d_A[1], 1, "A", 8, 35)
			}
			t3186 := b_A + int((t3184)*d_A[1]+t3185)
			r_A_r2 := m.LoadF(t3186)
			t3187 := i_i1
			if t3187 < 0 || t3187 >= d_A[0] {
				return m.OOB(t3187, d_A[0], 0, "A", 8, 47)
			}
			t3188 := i_i2
			if t3188 < 0 || t3188 >= d_A[1] {
				return m.OOB(t3188, d_A[1], 1, "A", 8, 47)
			}
			t3189 := b_A + int((t3187)*d_A[1]+t3188)
			r_A_r3 := m.LoadF(t3189)
			t3190 := i_i1
			if t3190 < 0 || t3190 >= d_B[0] {
				return m.OOB(t3190, d_B[0], 0, "B", 8, 59)
			}
			t3191 := i_i2 - int64(1)
			t3192 := t3191
			if t3192 < 0 || t3192 >= d_B[1] {
				return m.OOB(t3192, d_B[1], 1, "B", 8, 59)
			}
			t3193 := b_B + int((t3190)*d_B[1]+t3192)
			r_B_r3 := m.LoadF(t3193)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3194 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3195 := float64(t3194 / r_B_r3)
			t3196 := float64(r_B_r2 - t3195)
			r_B_w := t3196
			t3197 := i_i1
			if t3197 < 0 || t3197 >= d_B[0] {
				return m.OOB(t3197, d_B[0], 0, "B", 8, 11)
			}
			t3198 := i_i2
			if t3198 < 0 || t3198 >= d_B[1] {
				return m.OOB(t3198, d_B[1], 1, "B", 8, 11)
			}
			t3199 := b_B + int((t3197)*d_B[1]+t3198)
			m.StoreF(t3199, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n50(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3200 := p_n - int64(1)
	t3201 := codegen.MaxI(int64(1), t3200)
	t3202 := p_n - int64(1)
	for i_i1 := t3201; i_i1 <= t3202; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3203 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t3203; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3204 := i_i1
			if t3204 < 0 || t3204 >= d_X[0] {
				return m.OOB(t3204, d_X[0], 0, "X", 7, 23)
			}
			t3205 := i_i2
			if t3205 < 0 || t3205 >= d_X[1] {
				return m.OOB(t3205, d_X[1], 1, "X", 7, 23)
			}
			t3206 := b_X + int((t3204)*d_X[1]+t3205)
			r_X_r := m.LoadF(t3206)
			t3207 := i_i1
			if t3207 < 0 || t3207 >= d_X[0] {
				return m.OOB(t3207, d_X[0], 0, "X", 7, 35)
			}
			t3208 := i_i2 - int64(1)
			t3209 := t3208
			if t3209 < 0 || t3209 >= d_X[1] {
				return m.OOB(t3209, d_X[1], 1, "X", 7, 35)
			}
			t3210 := b_X + int((t3207)*d_X[1]+t3209)
			r_X_r2 := m.LoadF(t3210)
			t3211 := i_i1
			if t3211 < 0 || t3211 >= d_A[0] {
				return m.OOB(t3211, d_A[0], 0, "A", 7, 51)
			}
			t3212 := i_i2
			if t3212 < 0 || t3212 >= d_A[1] {
				return m.OOB(t3212, d_A[1], 1, "A", 7, 51)
			}
			t3213 := b_A + int((t3211)*d_A[1]+t3212)
			r_A_r := m.LoadF(t3213)
			t3214 := i_i1
			if t3214 < 0 || t3214 >= d_B[0] {
				return m.OOB(t3214, d_B[0], 0, "B", 7, 63)
			}
			t3215 := i_i2 - int64(1)
			t3216 := t3215
			if t3216 < 0 || t3216 >= d_B[1] {
				return m.OOB(t3216, d_B[1], 1, "B", 7, 63)
			}
			t3217 := b_B + int((t3214)*d_B[1]+t3216)
			r_B_r := m.LoadF(t3217)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3218 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3219 := float64(t3218 / r_B_r)
			t3220 := float64(r_X_r - t3219)
			r_X_w := t3220
			t3221 := i_i1
			if t3221 < 0 || t3221 >= d_X[0] {
				return m.OOB(t3221, d_X[0], 0, "X", 7, 11)
			}
			t3222 := i_i2
			if t3222 < 0 || t3222 >= d_X[1] {
				return m.OOB(t3222, d_X[1], 1, "X", 7, 11)
			}
			t3223 := b_X + int((t3221)*d_X[1]+t3222)
			m.StoreF(t3223, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t3224 := i_i1
			if t3224 < 0 || t3224 >= d_B[0] {
				return m.OOB(t3224, d_B[0], 0, "B", 8, 23)
			}
			t3225 := i_i2
			if t3225 < 0 || t3225 >= d_B[1] {
				return m.OOB(t3225, d_B[1], 1, "B", 8, 23)
			}
			t3226 := b_B + int((t3224)*d_B[1]+t3225)
			r_B_r2 := m.LoadF(t3226)
			t3227 := i_i1
			if t3227 < 0 || t3227 >= d_A[0] {
				return m.OOB(t3227, d_A[0], 0, "A", 8, 35)
			}
			t3228 := i_i2
			if t3228 < 0 || t3228 >= d_A[1] {
				return m.OOB(t3228, d_A[1], 1, "A", 8, 35)
			}
			t3229 := b_A + int((t3227)*d_A[1]+t3228)
			r_A_r2 := m.LoadF(t3229)
			t3230 := i_i1
			if t3230 < 0 || t3230 >= d_A[0] {
				return m.OOB(t3230, d_A[0], 0, "A", 8, 47)
			}
			t3231 := i_i2
			if t3231 < 0 || t3231 >= d_A[1] {
				return m.OOB(t3231, d_A[1], 1, "A", 8, 47)
			}
			t3232 := b_A + int((t3230)*d_A[1]+t3231)
			r_A_r3 := m.LoadF(t3232)
			t3233 := i_i1
			if t3233 < 0 || t3233 >= d_B[0] {
				return m.OOB(t3233, d_B[0], 0, "B", 8, 59)
			}
			t3234 := i_i2 - int64(1)
			t3235 := t3234
			if t3235 < 0 || t3235 >= d_B[1] {
				return m.OOB(t3235, d_B[1], 1, "B", 8, 59)
			}
			t3236 := b_B + int((t3233)*d_B[1]+t3235)
			r_B_r3 := m.LoadF(t3236)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3237 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3238 := float64(t3237 / r_B_r3)
			t3239 := float64(r_B_r2 - t3238)
			r_B_w := t3239
			t3240 := i_i1
			if t3240 < 0 || t3240 >= d_B[0] {
				return m.OOB(t3240, d_B[0], 0, "B", 8, 11)
			}
			t3241 := i_i2
			if t3241 < 0 || t3241 >= d_B[1] {
				return m.OOB(t3241, d_B[1], 1, "B", 8, 11)
			}
			t3242 := b_B + int((t3240)*d_B[1]+t3241)
			m.StoreF(t3242, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t3243 := p_n - int64(2)
		t3244 := codegen.MaxI(int64(1), t3243)
		t3245 := p_n - int64(2)
		for i_i2 := t3244; i_i2 <= t3245; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3246 := i_i1
			if t3246 < 0 || t3246 >= d_X[0] {
				return m.OOB(t3246, d_X[0], 0, "X", 7, 23)
			}
			t3247 := i_i2
			if t3247 < 0 || t3247 >= d_X[1] {
				return m.OOB(t3247, d_X[1], 1, "X", 7, 23)
			}
			t3248 := b_X + int((t3246)*d_X[1]+t3247)
			r_X_r := m.LoadF(t3248)
			t3249 := i_i1
			if t3249 < 0 || t3249 >= d_X[0] {
				return m.OOB(t3249, d_X[0], 0, "X", 7, 35)
			}
			t3250 := i_i2 - int64(1)
			t3251 := t3250
			if t3251 < 0 || t3251 >= d_X[1] {
				return m.OOB(t3251, d_X[1], 1, "X", 7, 35)
			}
			t3252 := b_X + int((t3249)*d_X[1]+t3251)
			r_X_r2 := m.LoadF(t3252)
			t3253 := i_i1
			if t3253 < 0 || t3253 >= d_A[0] {
				return m.OOB(t3253, d_A[0], 0, "A", 7, 51)
			}
			t3254 := i_i2
			if t3254 < 0 || t3254 >= d_A[1] {
				return m.OOB(t3254, d_A[1], 1, "A", 7, 51)
			}
			t3255 := b_A + int((t3253)*d_A[1]+t3254)
			r_A_r := m.LoadF(t3255)
			t3256 := i_i1
			if t3256 < 0 || t3256 >= d_B[0] {
				return m.OOB(t3256, d_B[0], 0, "B", 7, 63)
			}
			t3257 := i_i2 - int64(1)
			t3258 := t3257
			if t3258 < 0 || t3258 >= d_B[1] {
				return m.OOB(t3258, d_B[1], 1, "B", 7, 63)
			}
			t3259 := b_B + int((t3256)*d_B[1]+t3258)
			r_B_r := m.LoadF(t3259)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3260 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3261 := float64(t3260 / r_B_r)
			t3262 := float64(r_X_r - t3261)
			r_X_w := t3262
			t3263 := i_i1
			if t3263 < 0 || t3263 >= d_X[0] {
				return m.OOB(t3263, d_X[0], 0, "X", 7, 11)
			}
			t3264 := i_i2
			if t3264 < 0 || t3264 >= d_X[1] {
				return m.OOB(t3264, d_X[1], 1, "X", 7, 11)
			}
			t3265 := b_X + int((t3263)*d_X[1]+t3264)
			m.StoreF(t3265, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t3266 := i_i1
			if t3266 < 0 || t3266 >= d_B[0] {
				return m.OOB(t3266, d_B[0], 0, "B", 8, 23)
			}
			t3267 := i_i2
			if t3267 < 0 || t3267 >= d_B[1] {
				return m.OOB(t3267, d_B[1], 1, "B", 8, 23)
			}
			t3268 := b_B + int((t3266)*d_B[1]+t3267)
			r_B_r2 := m.LoadF(t3268)
			t3269 := i_i1
			if t3269 < 0 || t3269 >= d_A[0] {
				return m.OOB(t3269, d_A[0], 0, "A", 8, 35)
			}
			t3270 := i_i2
			if t3270 < 0 || t3270 >= d_A[1] {
				return m.OOB(t3270, d_A[1], 1, "A", 8, 35)
			}
			t3271 := b_A + int((t3269)*d_A[1]+t3270)
			r_A_r2 := m.LoadF(t3271)
			t3272 := i_i1
			if t3272 < 0 || t3272 >= d_A[0] {
				return m.OOB(t3272, d_A[0], 0, "A", 8, 47)
			}
			t3273 := i_i2
			if t3273 < 0 || t3273 >= d_A[1] {
				return m.OOB(t3273, d_A[1], 1, "A", 8, 47)
			}
			t3274 := b_A + int((t3272)*d_A[1]+t3273)
			r_A_r3 := m.LoadF(t3274)
			t3275 := i_i1
			if t3275 < 0 || t3275 >= d_B[0] {
				return m.OOB(t3275, d_B[0], 0, "B", 8, 59)
			}
			t3276 := i_i2 - int64(1)
			t3277 := t3276
			if t3277 < 0 || t3277 >= d_B[1] {
				return m.OOB(t3277, d_B[1], 1, "B", 8, 59)
			}
			t3278 := b_B + int((t3275)*d_B[1]+t3277)
			r_B_r3 := m.LoadF(t3278)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3279 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3280 := float64(t3279 / r_B_r3)
			t3281 := float64(r_B_r2 - t3280)
			r_B_w := t3281
			t3282 := i_i1
			if t3282 < 0 || t3282 >= d_B[0] {
				return m.OOB(t3282, d_B[0], 0, "B", 8, 11)
			}
			t3283 := i_i2
			if t3283 < 0 || t3283 >= d_B[1] {
				return m.OOB(t3283, d_B[1], 1, "B", 8, 11)
			}
			t3284 := b_B + int((t3282)*d_B[1]+t3283)
			m.StoreF(t3284, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t3285 := p_n - int64(1)
		t3286 := codegen.MaxI(int64(1), t3285)
		t3287 := p_n - int64(1)
		for i_i2 := t3286; i_i2 <= t3287; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3288 := i_i1
			if t3288 < 0 || t3288 >= d_X[0] {
				return m.OOB(t3288, d_X[0], 0, "X", 7, 23)
			}
			t3289 := i_i2
			if t3289 < 0 || t3289 >= d_X[1] {
				return m.OOB(t3289, d_X[1], 1, "X", 7, 23)
			}
			t3290 := b_X + int((t3288)*d_X[1]+t3289)
			r_X_r := m.LoadF(t3290)
			t3291 := i_i1
			if t3291 < 0 || t3291 >= d_X[0] {
				return m.OOB(t3291, d_X[0], 0, "X", 7, 35)
			}
			t3292 := i_i2 - int64(1)
			t3293 := t3292
			if t3293 < 0 || t3293 >= d_X[1] {
				return m.OOB(t3293, d_X[1], 1, "X", 7, 35)
			}
			t3294 := b_X + int((t3291)*d_X[1]+t3293)
			r_X_r2 := m.LoadF(t3294)
			t3295 := i_i1
			if t3295 < 0 || t3295 >= d_A[0] {
				return m.OOB(t3295, d_A[0], 0, "A", 7, 51)
			}
			t3296 := i_i2
			if t3296 < 0 || t3296 >= d_A[1] {
				return m.OOB(t3296, d_A[1], 1, "A", 7, 51)
			}
			t3297 := b_A + int((t3295)*d_A[1]+t3296)
			r_A_r := m.LoadF(t3297)
			t3298 := i_i1
			if t3298 < 0 || t3298 >= d_B[0] {
				return m.OOB(t3298, d_B[0], 0, "B", 7, 63)
			}
			t3299 := i_i2 - int64(1)
			t3300 := t3299
			if t3300 < 0 || t3300 >= d_B[1] {
				return m.OOB(t3300, d_B[1], 1, "B", 7, 63)
			}
			t3301 := b_B + int((t3298)*d_B[1]+t3300)
			r_B_r := m.LoadF(t3301)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3302 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3303 := float64(t3302 / r_B_r)
			t3304 := float64(r_X_r - t3303)
			r_X_w := t3304
			t3305 := i_i1
			if t3305 < 0 || t3305 >= d_X[0] {
				return m.OOB(t3305, d_X[0], 0, "X", 7, 11)
			}
			t3306 := i_i2
			if t3306 < 0 || t3306 >= d_X[1] {
				return m.OOB(t3306, d_X[1], 1, "X", 7, 11)
			}
			t3307 := b_X + int((t3305)*d_X[1]+t3306)
			m.StoreF(t3307, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t3308 := i_i1
			if t3308 < 0 || t3308 >= d_B[0] {
				return m.OOB(t3308, d_B[0], 0, "B", 8, 23)
			}
			t3309 := i_i2
			if t3309 < 0 || t3309 >= d_B[1] {
				return m.OOB(t3309, d_B[1], 1, "B", 8, 23)
			}
			t3310 := b_B + int((t3308)*d_B[1]+t3309)
			r_B_r2 := m.LoadF(t3310)
			t3311 := i_i1
			if t3311 < 0 || t3311 >= d_A[0] {
				return m.OOB(t3311, d_A[0], 0, "A", 8, 35)
			}
			t3312 := i_i2
			if t3312 < 0 || t3312 >= d_A[1] {
				return m.OOB(t3312, d_A[1], 1, "A", 8, 35)
			}
			t3313 := b_A + int((t3311)*d_A[1]+t3312)
			r_A_r2 := m.LoadF(t3313)
			t3314 := i_i1
			if t3314 < 0 || t3314 >= d_A[0] {
				return m.OOB(t3314, d_A[0], 0, "A", 8, 47)
			}
			t3315 := i_i2
			if t3315 < 0 || t3315 >= d_A[1] {
				return m.OOB(t3315, d_A[1], 1, "A", 8, 47)
			}
			t3316 := b_A + int((t3314)*d_A[1]+t3315)
			r_A_r3 := m.LoadF(t3316)
			t3317 := i_i1
			if t3317 < 0 || t3317 >= d_B[0] {
				return m.OOB(t3317, d_B[0], 0, "B", 8, 59)
			}
			t3318 := i_i2 - int64(1)
			t3319 := t3318
			if t3319 < 0 || t3319 >= d_B[1] {
				return m.OOB(t3319, d_B[1], 1, "B", 8, 59)
			}
			t3320 := b_B + int((t3317)*d_B[1]+t3319)
			r_B_r3 := m.LoadF(t3320)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3321 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3322 := float64(t3321 / r_B_r3)
			t3323 := float64(r_B_r2 - t3322)
			r_B_w := t3323
			t3324 := i_i1
			if t3324 < 0 || t3324 >= d_B[0] {
				return m.OOB(t3324, d_B[0], 0, "B", 8, 11)
			}
			t3325 := i_i2
			if t3325 < 0 || t3325 >= d_B[1] {
				return m.OOB(t3325, d_B[1], 1, "B", 8, 11)
			}
			t3326 := b_B + int((t3324)*d_B[1]+t3325)
			m.StoreF(t3326, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n51(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3392 := p_n - int64(1)
	t3393 := codegen.MinI(t3392, int64(0))
	for i_i1 := int64(0); i_i1 <= t3393; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3394 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t3394; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t3395 := i_i1
			if t3395 < 0 || t3395 >= d_X[0] {
				return m.OOB(t3395, d_X[0], 0, "X", 16, 32)
			}
			t3396 := p_n - int64(2)
			t3397 := t3396 - i_i2
			t3398 := t3397
			if t3398 < 0 || t3398 >= d_X[1] {
				return m.OOB(t3398, d_X[1], 1, "X", 16, 32)
			}
			t3399 := b_X + int((t3395)*d_X[1]+t3398)
			r_X_r4 := m.LoadF(t3399)
			t3400 := i_i1
			if t3400 < 0 || t3400 >= d_X[0] {
				return m.OOB(t3400, d_X[0], 0, "X", 16, 52)
			}
			t3401 := p_n - int64(2)
			t3402 := t3401 - i_i2
			t3403 := t3402 - int64(1)
			t3404 := t3403
			if t3404 < 0 || t3404 >= d_X[1] {
				return m.OOB(t3404, d_X[1], 1, "X", 16, 52)
			}
			t3405 := b_X + int((t3400)*d_X[1]+t3404)
			r_X_r5 := m.LoadF(t3405)
			t3406 := i_i1
			if t3406 < 0 || t3406 >= d_A[0] {
				return m.OOB(t3406, d_A[0], 0, "A", 16, 76)
			}
			t3407 := p_n - i_i2
			t3408 := t3407 - int64(3)
			t3409 := t3408
			if t3409 < 0 || t3409 >= d_A[1] {
				return m.OOB(t3409, d_A[1], 1, "A", 16, 76)
			}
			t3410 := b_A + int((t3406)*d_A[1]+t3409)
			r_A_r4 := m.LoadF(t3410)
			t3411 := i_i1
			if t3411 < 0 || t3411 >= d_B[0] {
				return m.OOB(t3411, d_B[0], 0, "B", 16, 97)
			}
			t3412 := p_n - int64(3)
			t3413 := t3412 - i_i2
			t3414 := t3413
			if t3414 < 0 || t3414 >= d_B[1] {
				return m.OOB(t3414, d_B[1], 1, "B", 16, 97)
			}
			t3415 := b_B + int((t3411)*d_B[1]+t3414)
			r_B_r5 := m.LoadF(t3415)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t3416 := float64(r_X_r5 * r_A_r4)
			t3417 := float64(r_X_r4 - t3416)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t3418 := float64(t3417 / r_B_r5)
			r_X_w3 := t3418
			t3419 := i_i1
			if t3419 < 0 || t3419 >= d_X[0] {
				return m.OOB(t3419, d_X[0], 0, "X", 16, 11)
			}
			t3420 := p_n - i_i2
			t3421 := t3420 - int64(2)
			t3422 := t3421
			if t3422 < 0 || t3422 >= d_X[1] {
				return m.OOB(t3422, d_X[1], 1, "X", 16, 11)
			}
			t3423 := b_X + int((t3419)*d_X[1]+t3422)
			m.StoreF(t3423, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n52(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3455 := p_n - int64(1)
	t3456 := codegen.MaxI(int64(1), t3455)
	t3457 := p_n - int64(1)
	for i_i1 := t3456; i_i1 <= t3457; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3458 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t3458; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t3459 := i_i1
			if t3459 < 0 || t3459 >= d_X[0] {
				return m.OOB(t3459, d_X[0], 0, "X", 16, 32)
			}
			t3460 := p_n - int64(2)
			t3461 := t3460 - i_i2
			t3462 := t3461
			if t3462 < 0 || t3462 >= d_X[1] {
				return m.OOB(t3462, d_X[1], 1, "X", 16, 32)
			}
			t3463 := b_X + int((t3459)*d_X[1]+t3462)
			r_X_r4 := m.LoadF(t3463)
			t3464 := i_i1
			if t3464 < 0 || t3464 >= d_X[0] {
				return m.OOB(t3464, d_X[0], 0, "X", 16, 52)
			}
			t3465 := p_n - int64(2)
			t3466 := t3465 - i_i2
			t3467 := t3466 - int64(1)
			t3468 := t3467
			if t3468 < 0 || t3468 >= d_X[1] {
				return m.OOB(t3468, d_X[1], 1, "X", 16, 52)
			}
			t3469 := b_X + int((t3464)*d_X[1]+t3468)
			r_X_r5 := m.LoadF(t3469)
			t3470 := i_i1
			if t3470 < 0 || t3470 >= d_A[0] {
				return m.OOB(t3470, d_A[0], 0, "A", 16, 76)
			}
			t3471 := p_n - i_i2
			t3472 := t3471 - int64(3)
			t3473 := t3472
			if t3473 < 0 || t3473 >= d_A[1] {
				return m.OOB(t3473, d_A[1], 1, "A", 16, 76)
			}
			t3474 := b_A + int((t3470)*d_A[1]+t3473)
			r_A_r4 := m.LoadF(t3474)
			t3475 := i_i1
			if t3475 < 0 || t3475 >= d_B[0] {
				return m.OOB(t3475, d_B[0], 0, "B", 16, 97)
			}
			t3476 := p_n - int64(3)
			t3477 := t3476 - i_i2
			t3478 := t3477
			if t3478 < 0 || t3478 >= d_B[1] {
				return m.OOB(t3478, d_B[1], 1, "B", 16, 97)
			}
			t3479 := b_B + int((t3475)*d_B[1]+t3478)
			r_B_r5 := m.LoadF(t3479)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t3480 := float64(r_X_r5 * r_A_r4)
			t3481 := float64(r_X_r4 - t3480)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t3482 := float64(t3481 / r_B_r5)
			r_X_w3 := t3482
			t3483 := i_i1
			if t3483 < 0 || t3483 >= d_X[0] {
				return m.OOB(t3483, d_X[0], 0, "X", 16, 11)
			}
			t3484 := p_n - i_i2
			t3485 := t3484 - int64(2)
			t3486 := t3485
			if t3486 < 0 || t3486 >= d_X[1] {
				return m.OOB(t3486, d_X[1], 1, "X", 16, 11)
			}
			t3487 := b_X + int((t3483)*d_X[1]+t3486)
			m.StoreF(t3487, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n53(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3488 := p_n - int64(3)
	for i_i1 := int64(1); i_i1 <= t3488; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3489 := p_n - int64(1)
		t3490 := codegen.MinI(t3489, int64(0))
		for i_i2 := int64(0); i_i2 <= t3490; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3491 := i_i1
			if t3491 < 0 || t3491 >= d_X[0] {
				return m.OOB(t3491, d_X[0], 0, "X", 21, 23)
			}
			t3492 := i_i2
			if t3492 < 0 || t3492 >= d_X[1] {
				return m.OOB(t3492, d_X[1], 1, "X", 21, 23)
			}
			t3493 := b_X + int((t3491)*d_X[1]+t3492)
			r_X_r6 := m.LoadF(t3493)
			t3494 := i_i1 - int64(1)
			t3495 := t3494
			if t3495 < 0 || t3495 >= d_X[0] {
				return m.OOB(t3495, d_X[0], 0, "X", 21, 35)
			}
			t3496 := i_i2
			if t3496 < 0 || t3496 >= d_X[1] {
				return m.OOB(t3496, d_X[1], 1, "X", 21, 35)
			}
			t3497 := b_X + int((t3495)*d_X[1]+t3496)
			r_X_r7 := m.LoadF(t3497)
			t3498 := i_i1
			if t3498 < 0 || t3498 >= d_A[0] {
				return m.OOB(t3498, d_A[0], 0, "A", 21, 51)
			}
			t3499 := i_i2
			if t3499 < 0 || t3499 >= d_A[1] {
				return m.OOB(t3499, d_A[1], 1, "A", 21, 51)
			}
			t3500 := b_A + int((t3498)*d_A[1]+t3499)
			r_A_r5 := m.LoadF(t3500)
			t3501 := i_i1 - int64(1)
			t3502 := t3501
			if t3502 < 0 || t3502 >= d_B[0] {
				return m.OOB(t3502, d_B[0], 0, "B", 21, 63)
			}
			t3503 := i_i2
			if t3503 < 0 || t3503 >= d_B[1] {
				return m.OOB(t3503, d_B[1], 1, "B", 21, 63)
			}
			t3504 := b_B + int((t3502)*d_B[1]+t3503)
			r_B_r6 := m.LoadF(t3504)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3505 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3506 := float64(t3505 / r_B_r6)
			t3507 := float64(r_X_r6 - t3506)
			r_X_w4 := t3507
			t3508 := i_i1
			if t3508 < 0 || t3508 >= d_X[0] {
				return m.OOB(t3508, d_X[0], 0, "X", 21, 11)
			}
			t3509 := i_i2
			if t3509 < 0 || t3509 >= d_X[1] {
				return m.OOB(t3509, d_X[1], 1, "X", 21, 11)
			}
			t3510 := b_X + int((t3508)*d_X[1]+t3509)
			m.StoreF(t3510, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t3511 := i_i1
			if t3511 < 0 || t3511 >= d_B[0] {
				return m.OOB(t3511, d_B[0], 0, "B", 22, 23)
			}
			t3512 := i_i2
			if t3512 < 0 || t3512 >= d_B[1] {
				return m.OOB(t3512, d_B[1], 1, "B", 22, 23)
			}
			t3513 := b_B + int((t3511)*d_B[1]+t3512)
			r_B_r7 := m.LoadF(t3513)
			t3514 := i_i1
			if t3514 < 0 || t3514 >= d_A[0] {
				return m.OOB(t3514, d_A[0], 0, "A", 22, 35)
			}
			t3515 := i_i2
			if t3515 < 0 || t3515 >= d_A[1] {
				return m.OOB(t3515, d_A[1], 1, "A", 22, 35)
			}
			t3516 := b_A + int((t3514)*d_A[1]+t3515)
			r_A_r6 := m.LoadF(t3516)
			t3517 := i_i1
			if t3517 < 0 || t3517 >= d_A[0] {
				return m.OOB(t3517, d_A[0], 0, "A", 22, 47)
			}
			t3518 := i_i2
			if t3518 < 0 || t3518 >= d_A[1] {
				return m.OOB(t3518, d_A[1], 1, "A", 22, 47)
			}
			t3519 := b_A + int((t3517)*d_A[1]+t3518)
			r_A_r7 := m.LoadF(t3519)
			t3520 := i_i1 - int64(1)
			t3521 := t3520
			if t3521 < 0 || t3521 >= d_B[0] {
				return m.OOB(t3521, d_B[0], 0, "B", 22, 59)
			}
			t3522 := i_i2
			if t3522 < 0 || t3522 >= d_B[1] {
				return m.OOB(t3522, d_B[1], 1, "B", 22, 59)
			}
			t3523 := b_B + int((t3521)*d_B[1]+t3522)
			r_B_r8 := m.LoadF(t3523)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3524 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3525 := float64(t3524 / r_B_r8)
			t3526 := float64(r_B_r7 - t3525)
			r_B_w2 := t3526
			t3527 := i_i1
			if t3527 < 0 || t3527 >= d_B[0] {
				return m.OOB(t3527, d_B[0], 0, "B", 22, 11)
			}
			t3528 := i_i2
			if t3528 < 0 || t3528 >= d_B[1] {
				return m.OOB(t3528, d_B[1], 1, "B", 22, 11)
			}
			t3529 := b_B + int((t3527)*d_B[1]+t3528)
			m.StoreF(t3529, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t3530 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t3530; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3531 := i_i1
			if t3531 < 0 || t3531 >= d_X[0] {
				return m.OOB(t3531, d_X[0], 0, "X", 21, 23)
			}
			t3532 := i_i2
			if t3532 < 0 || t3532 >= d_X[1] {
				return m.OOB(t3532, d_X[1], 1, "X", 21, 23)
			}
			t3533 := b_X + int((t3531)*d_X[1]+t3532)
			r_X_r6 := m.LoadF(t3533)
			t3534 := i_i1 - int64(1)
			t3535 := t3534
			if t3535 < 0 || t3535 >= d_X[0] {
				return m.OOB(t3535, d_X[0], 0, "X", 21, 35)
			}
			t3536 := i_i2
			if t3536 < 0 || t3536 >= d_X[1] {
				return m.OOB(t3536, d_X[1], 1, "X", 21, 35)
			}
			t3537 := b_X + int((t3535)*d_X[1]+t3536)
			r_X_r7 := m.LoadF(t3537)
			t3538 := i_i1
			if t3538 < 0 || t3538 >= d_A[0] {
				return m.OOB(t3538, d_A[0], 0, "A", 21, 51)
			}
			t3539 := i_i2
			if t3539 < 0 || t3539 >= d_A[1] {
				return m.OOB(t3539, d_A[1], 1, "A", 21, 51)
			}
			t3540 := b_A + int((t3538)*d_A[1]+t3539)
			r_A_r5 := m.LoadF(t3540)
			t3541 := i_i1 - int64(1)
			t3542 := t3541
			if t3542 < 0 || t3542 >= d_B[0] {
				return m.OOB(t3542, d_B[0], 0, "B", 21, 63)
			}
			t3543 := i_i2
			if t3543 < 0 || t3543 >= d_B[1] {
				return m.OOB(t3543, d_B[1], 1, "B", 21, 63)
			}
			t3544 := b_B + int((t3542)*d_B[1]+t3543)
			r_B_r6 := m.LoadF(t3544)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3545 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3546 := float64(t3545 / r_B_r6)
			t3547 := float64(r_X_r6 - t3546)
			r_X_w4 := t3547
			t3548 := i_i1
			if t3548 < 0 || t3548 >= d_X[0] {
				return m.OOB(t3548, d_X[0], 0, "X", 21, 11)
			}
			t3549 := i_i2
			if t3549 < 0 || t3549 >= d_X[1] {
				return m.OOB(t3549, d_X[1], 1, "X", 21, 11)
			}
			t3550 := b_X + int((t3548)*d_X[1]+t3549)
			m.StoreF(t3550, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t3551 := i_i1
			if t3551 < 0 || t3551 >= d_B[0] {
				return m.OOB(t3551, d_B[0], 0, "B", 22, 23)
			}
			t3552 := i_i2
			if t3552 < 0 || t3552 >= d_B[1] {
				return m.OOB(t3552, d_B[1], 1, "B", 22, 23)
			}
			t3553 := b_B + int((t3551)*d_B[1]+t3552)
			r_B_r7 := m.LoadF(t3553)
			t3554 := i_i1
			if t3554 < 0 || t3554 >= d_A[0] {
				return m.OOB(t3554, d_A[0], 0, "A", 22, 35)
			}
			t3555 := i_i2
			if t3555 < 0 || t3555 >= d_A[1] {
				return m.OOB(t3555, d_A[1], 1, "A", 22, 35)
			}
			t3556 := b_A + int((t3554)*d_A[1]+t3555)
			r_A_r6 := m.LoadF(t3556)
			t3557 := i_i1
			if t3557 < 0 || t3557 >= d_A[0] {
				return m.OOB(t3557, d_A[0], 0, "A", 22, 47)
			}
			t3558 := i_i2
			if t3558 < 0 || t3558 >= d_A[1] {
				return m.OOB(t3558, d_A[1], 1, "A", 22, 47)
			}
			t3559 := b_A + int((t3557)*d_A[1]+t3558)
			r_A_r7 := m.LoadF(t3559)
			t3560 := i_i1 - int64(1)
			t3561 := t3560
			if t3561 < 0 || t3561 >= d_B[0] {
				return m.OOB(t3561, d_B[0], 0, "B", 22, 59)
			}
			t3562 := i_i2
			if t3562 < 0 || t3562 >= d_B[1] {
				return m.OOB(t3562, d_B[1], 1, "B", 22, 59)
			}
			t3563 := b_B + int((t3561)*d_B[1]+t3562)
			r_B_r8 := m.LoadF(t3563)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3564 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3565 := float64(t3564 / r_B_r8)
			t3566 := float64(r_B_r7 - t3565)
			r_B_w2 := t3566
			t3567 := i_i1
			if t3567 < 0 || t3567 >= d_B[0] {
				return m.OOB(t3567, d_B[0], 0, "B", 22, 11)
			}
			t3568 := i_i2
			if t3568 < 0 || t3568 >= d_B[1] {
				return m.OOB(t3568, d_B[1], 1, "B", 22, 11)
			}
			t3569 := b_B + int((t3567)*d_B[1]+t3568)
			m.StoreF(t3569, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t3570 := p_n - int64(1)
		t3571 := codegen.MaxI(int64(1), t3570)
		t3572 := p_n - int64(1)
		for i_i2 := t3571; i_i2 <= t3572; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3573 := i_i1
			if t3573 < 0 || t3573 >= d_X[0] {
				return m.OOB(t3573, d_X[0], 0, "X", 21, 23)
			}
			t3574 := i_i2
			if t3574 < 0 || t3574 >= d_X[1] {
				return m.OOB(t3574, d_X[1], 1, "X", 21, 23)
			}
			t3575 := b_X + int((t3573)*d_X[1]+t3574)
			r_X_r6 := m.LoadF(t3575)
			t3576 := i_i1 - int64(1)
			t3577 := t3576
			if t3577 < 0 || t3577 >= d_X[0] {
				return m.OOB(t3577, d_X[0], 0, "X", 21, 35)
			}
			t3578 := i_i2
			if t3578 < 0 || t3578 >= d_X[1] {
				return m.OOB(t3578, d_X[1], 1, "X", 21, 35)
			}
			t3579 := b_X + int((t3577)*d_X[1]+t3578)
			r_X_r7 := m.LoadF(t3579)
			t3580 := i_i1
			if t3580 < 0 || t3580 >= d_A[0] {
				return m.OOB(t3580, d_A[0], 0, "A", 21, 51)
			}
			t3581 := i_i2
			if t3581 < 0 || t3581 >= d_A[1] {
				return m.OOB(t3581, d_A[1], 1, "A", 21, 51)
			}
			t3582 := b_A + int((t3580)*d_A[1]+t3581)
			r_A_r5 := m.LoadF(t3582)
			t3583 := i_i1 - int64(1)
			t3584 := t3583
			if t3584 < 0 || t3584 >= d_B[0] {
				return m.OOB(t3584, d_B[0], 0, "B", 21, 63)
			}
			t3585 := i_i2
			if t3585 < 0 || t3585 >= d_B[1] {
				return m.OOB(t3585, d_B[1], 1, "B", 21, 63)
			}
			t3586 := b_B + int((t3584)*d_B[1]+t3585)
			r_B_r6 := m.LoadF(t3586)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3587 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3588 := float64(t3587 / r_B_r6)
			t3589 := float64(r_X_r6 - t3588)
			r_X_w4 := t3589
			t3590 := i_i1
			if t3590 < 0 || t3590 >= d_X[0] {
				return m.OOB(t3590, d_X[0], 0, "X", 21, 11)
			}
			t3591 := i_i2
			if t3591 < 0 || t3591 >= d_X[1] {
				return m.OOB(t3591, d_X[1], 1, "X", 21, 11)
			}
			t3592 := b_X + int((t3590)*d_X[1]+t3591)
			m.StoreF(t3592, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t3593 := i_i1
			if t3593 < 0 || t3593 >= d_B[0] {
				return m.OOB(t3593, d_B[0], 0, "B", 22, 23)
			}
			t3594 := i_i2
			if t3594 < 0 || t3594 >= d_B[1] {
				return m.OOB(t3594, d_B[1], 1, "B", 22, 23)
			}
			t3595 := b_B + int((t3593)*d_B[1]+t3594)
			r_B_r7 := m.LoadF(t3595)
			t3596 := i_i1
			if t3596 < 0 || t3596 >= d_A[0] {
				return m.OOB(t3596, d_A[0], 0, "A", 22, 35)
			}
			t3597 := i_i2
			if t3597 < 0 || t3597 >= d_A[1] {
				return m.OOB(t3597, d_A[1], 1, "A", 22, 35)
			}
			t3598 := b_A + int((t3596)*d_A[1]+t3597)
			r_A_r6 := m.LoadF(t3598)
			t3599 := i_i1
			if t3599 < 0 || t3599 >= d_A[0] {
				return m.OOB(t3599, d_A[0], 0, "A", 22, 47)
			}
			t3600 := i_i2
			if t3600 < 0 || t3600 >= d_A[1] {
				return m.OOB(t3600, d_A[1], 1, "A", 22, 47)
			}
			t3601 := b_A + int((t3599)*d_A[1]+t3600)
			r_A_r7 := m.LoadF(t3601)
			t3602 := i_i1 - int64(1)
			t3603 := t3602
			if t3603 < 0 || t3603 >= d_B[0] {
				return m.OOB(t3603, d_B[0], 0, "B", 22, 59)
			}
			t3604 := i_i2
			if t3604 < 0 || t3604 >= d_B[1] {
				return m.OOB(t3604, d_B[1], 1, "B", 22, 59)
			}
			t3605 := b_B + int((t3603)*d_B[1]+t3604)
			r_B_r8 := m.LoadF(t3605)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3606 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3607 := float64(t3606 / r_B_r8)
			t3608 := float64(r_B_r7 - t3607)
			r_B_w2 := t3608
			t3609 := i_i1
			if t3609 < 0 || t3609 >= d_B[0] {
				return m.OOB(t3609, d_B[0], 0, "B", 22, 11)
			}
			t3610 := i_i2
			if t3610 < 0 || t3610 >= d_B[1] {
				return m.OOB(t3610, d_B[1], 1, "B", 22, 11)
			}
			t3611 := b_B + int((t3609)*d_B[1]+t3610)
			m.StoreF(t3611, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n54(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3612 := p_n - int64(2)
	t3613 := codegen.MaxI(int64(1), t3612)
	t3614 := p_n - int64(2)
	for i_i1 := t3613; i_i1 <= t3614; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3615 := p_n - int64(1)
		t3616 := codegen.MinI(t3615, int64(0))
		for i_i2 := int64(0); i_i2 <= t3616; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3617 := i_i1
			if t3617 < 0 || t3617 >= d_X[0] {
				return m.OOB(t3617, d_X[0], 0, "X", 21, 23)
			}
			t3618 := i_i2
			if t3618 < 0 || t3618 >= d_X[1] {
				return m.OOB(t3618, d_X[1], 1, "X", 21, 23)
			}
			t3619 := b_X + int((t3617)*d_X[1]+t3618)
			r_X_r6 := m.LoadF(t3619)
			t3620 := i_i1 - int64(1)
			t3621 := t3620
			if t3621 < 0 || t3621 >= d_X[0] {
				return m.OOB(t3621, d_X[0], 0, "X", 21, 35)
			}
			t3622 := i_i2
			if t3622 < 0 || t3622 >= d_X[1] {
				return m.OOB(t3622, d_X[1], 1, "X", 21, 35)
			}
			t3623 := b_X + int((t3621)*d_X[1]+t3622)
			r_X_r7 := m.LoadF(t3623)
			t3624 := i_i1
			if t3624 < 0 || t3624 >= d_A[0] {
				return m.OOB(t3624, d_A[0], 0, "A", 21, 51)
			}
			t3625 := i_i2
			if t3625 < 0 || t3625 >= d_A[1] {
				return m.OOB(t3625, d_A[1], 1, "A", 21, 51)
			}
			t3626 := b_A + int((t3624)*d_A[1]+t3625)
			r_A_r5 := m.LoadF(t3626)
			t3627 := i_i1 - int64(1)
			t3628 := t3627
			if t3628 < 0 || t3628 >= d_B[0] {
				return m.OOB(t3628, d_B[0], 0, "B", 21, 63)
			}
			t3629 := i_i2
			if t3629 < 0 || t3629 >= d_B[1] {
				return m.OOB(t3629, d_B[1], 1, "B", 21, 63)
			}
			t3630 := b_B + int((t3628)*d_B[1]+t3629)
			r_B_r6 := m.LoadF(t3630)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3631 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3632 := float64(t3631 / r_B_r6)
			t3633 := float64(r_X_r6 - t3632)
			r_X_w4 := t3633
			t3634 := i_i1
			if t3634 < 0 || t3634 >= d_X[0] {
				return m.OOB(t3634, d_X[0], 0, "X", 21, 11)
			}
			t3635 := i_i2
			if t3635 < 0 || t3635 >= d_X[1] {
				return m.OOB(t3635, d_X[1], 1, "X", 21, 11)
			}
			t3636 := b_X + int((t3634)*d_X[1]+t3635)
			m.StoreF(t3636, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t3637 := i_i1
			if t3637 < 0 || t3637 >= d_B[0] {
				return m.OOB(t3637, d_B[0], 0, "B", 22, 23)
			}
			t3638 := i_i2
			if t3638 < 0 || t3638 >= d_B[1] {
				return m.OOB(t3638, d_B[1], 1, "B", 22, 23)
			}
			t3639 := b_B + int((t3637)*d_B[1]+t3638)
			r_B_r7 := m.LoadF(t3639)
			t3640 := i_i1
			if t3640 < 0 || t3640 >= d_A[0] {
				return m.OOB(t3640, d_A[0], 0, "A", 22, 35)
			}
			t3641 := i_i2
			if t3641 < 0 || t3641 >= d_A[1] {
				return m.OOB(t3641, d_A[1], 1, "A", 22, 35)
			}
			t3642 := b_A + int((t3640)*d_A[1]+t3641)
			r_A_r6 := m.LoadF(t3642)
			t3643 := i_i1
			if t3643 < 0 || t3643 >= d_A[0] {
				return m.OOB(t3643, d_A[0], 0, "A", 22, 47)
			}
			t3644 := i_i2
			if t3644 < 0 || t3644 >= d_A[1] {
				return m.OOB(t3644, d_A[1], 1, "A", 22, 47)
			}
			t3645 := b_A + int((t3643)*d_A[1]+t3644)
			r_A_r7 := m.LoadF(t3645)
			t3646 := i_i1 - int64(1)
			t3647 := t3646
			if t3647 < 0 || t3647 >= d_B[0] {
				return m.OOB(t3647, d_B[0], 0, "B", 22, 59)
			}
			t3648 := i_i2
			if t3648 < 0 || t3648 >= d_B[1] {
				return m.OOB(t3648, d_B[1], 1, "B", 22, 59)
			}
			t3649 := b_B + int((t3647)*d_B[1]+t3648)
			r_B_r8 := m.LoadF(t3649)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3650 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3651 := float64(t3650 / r_B_r8)
			t3652 := float64(r_B_r7 - t3651)
			r_B_w2 := t3652
			t3653 := i_i1
			if t3653 < 0 || t3653 >= d_B[0] {
				return m.OOB(t3653, d_B[0], 0, "B", 22, 11)
			}
			t3654 := i_i2
			if t3654 < 0 || t3654 >= d_B[1] {
				return m.OOB(t3654, d_B[1], 1, "B", 22, 11)
			}
			t3655 := b_B + int((t3653)*d_B[1]+t3654)
			m.StoreF(t3655, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t3656 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t3656; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3657 := i_i1
			if t3657 < 0 || t3657 >= d_X[0] {
				return m.OOB(t3657, d_X[0], 0, "X", 21, 23)
			}
			t3658 := i_i2
			if t3658 < 0 || t3658 >= d_X[1] {
				return m.OOB(t3658, d_X[1], 1, "X", 21, 23)
			}
			t3659 := b_X + int((t3657)*d_X[1]+t3658)
			r_X_r6 := m.LoadF(t3659)
			t3660 := i_i1 - int64(1)
			t3661 := t3660
			if t3661 < 0 || t3661 >= d_X[0] {
				return m.OOB(t3661, d_X[0], 0, "X", 21, 35)
			}
			t3662 := i_i2
			if t3662 < 0 || t3662 >= d_X[1] {
				return m.OOB(t3662, d_X[1], 1, "X", 21, 35)
			}
			t3663 := b_X + int((t3661)*d_X[1]+t3662)
			r_X_r7 := m.LoadF(t3663)
			t3664 := i_i1
			if t3664 < 0 || t3664 >= d_A[0] {
				return m.OOB(t3664, d_A[0], 0, "A", 21, 51)
			}
			t3665 := i_i2
			if t3665 < 0 || t3665 >= d_A[1] {
				return m.OOB(t3665, d_A[1], 1, "A", 21, 51)
			}
			t3666 := b_A + int((t3664)*d_A[1]+t3665)
			r_A_r5 := m.LoadF(t3666)
			t3667 := i_i1 - int64(1)
			t3668 := t3667
			if t3668 < 0 || t3668 >= d_B[0] {
				return m.OOB(t3668, d_B[0], 0, "B", 21, 63)
			}
			t3669 := i_i2
			if t3669 < 0 || t3669 >= d_B[1] {
				return m.OOB(t3669, d_B[1], 1, "B", 21, 63)
			}
			t3670 := b_B + int((t3668)*d_B[1]+t3669)
			r_B_r6 := m.LoadF(t3670)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3671 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3672 := float64(t3671 / r_B_r6)
			t3673 := float64(r_X_r6 - t3672)
			r_X_w4 := t3673
			t3674 := i_i1
			if t3674 < 0 || t3674 >= d_X[0] {
				return m.OOB(t3674, d_X[0], 0, "X", 21, 11)
			}
			t3675 := i_i2
			if t3675 < 0 || t3675 >= d_X[1] {
				return m.OOB(t3675, d_X[1], 1, "X", 21, 11)
			}
			t3676 := b_X + int((t3674)*d_X[1]+t3675)
			m.StoreF(t3676, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t3677 := i_i1
			if t3677 < 0 || t3677 >= d_B[0] {
				return m.OOB(t3677, d_B[0], 0, "B", 22, 23)
			}
			t3678 := i_i2
			if t3678 < 0 || t3678 >= d_B[1] {
				return m.OOB(t3678, d_B[1], 1, "B", 22, 23)
			}
			t3679 := b_B + int((t3677)*d_B[1]+t3678)
			r_B_r7 := m.LoadF(t3679)
			t3680 := i_i1
			if t3680 < 0 || t3680 >= d_A[0] {
				return m.OOB(t3680, d_A[0], 0, "A", 22, 35)
			}
			t3681 := i_i2
			if t3681 < 0 || t3681 >= d_A[1] {
				return m.OOB(t3681, d_A[1], 1, "A", 22, 35)
			}
			t3682 := b_A + int((t3680)*d_A[1]+t3681)
			r_A_r6 := m.LoadF(t3682)
			t3683 := i_i1
			if t3683 < 0 || t3683 >= d_A[0] {
				return m.OOB(t3683, d_A[0], 0, "A", 22, 47)
			}
			t3684 := i_i2
			if t3684 < 0 || t3684 >= d_A[1] {
				return m.OOB(t3684, d_A[1], 1, "A", 22, 47)
			}
			t3685 := b_A + int((t3683)*d_A[1]+t3684)
			r_A_r7 := m.LoadF(t3685)
			t3686 := i_i1 - int64(1)
			t3687 := t3686
			if t3687 < 0 || t3687 >= d_B[0] {
				return m.OOB(t3687, d_B[0], 0, "B", 22, 59)
			}
			t3688 := i_i2
			if t3688 < 0 || t3688 >= d_B[1] {
				return m.OOB(t3688, d_B[1], 1, "B", 22, 59)
			}
			t3689 := b_B + int((t3687)*d_B[1]+t3688)
			r_B_r8 := m.LoadF(t3689)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3690 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3691 := float64(t3690 / r_B_r8)
			t3692 := float64(r_B_r7 - t3691)
			r_B_w2 := t3692
			t3693 := i_i1
			if t3693 < 0 || t3693 >= d_B[0] {
				return m.OOB(t3693, d_B[0], 0, "B", 22, 11)
			}
			t3694 := i_i2
			if t3694 < 0 || t3694 >= d_B[1] {
				return m.OOB(t3694, d_B[1], 1, "B", 22, 11)
			}
			t3695 := b_B + int((t3693)*d_B[1]+t3694)
			m.StoreF(t3695, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t3696 := p_n - int64(1)
		t3697 := codegen.MaxI(int64(1), t3696)
		t3698 := p_n - int64(1)
		for i_i2 := t3697; i_i2 <= t3698; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3699 := i_i1
			if t3699 < 0 || t3699 >= d_X[0] {
				return m.OOB(t3699, d_X[0], 0, "X", 21, 23)
			}
			t3700 := i_i2
			if t3700 < 0 || t3700 >= d_X[1] {
				return m.OOB(t3700, d_X[1], 1, "X", 21, 23)
			}
			t3701 := b_X + int((t3699)*d_X[1]+t3700)
			r_X_r6 := m.LoadF(t3701)
			t3702 := i_i1 - int64(1)
			t3703 := t3702
			if t3703 < 0 || t3703 >= d_X[0] {
				return m.OOB(t3703, d_X[0], 0, "X", 21, 35)
			}
			t3704 := i_i2
			if t3704 < 0 || t3704 >= d_X[1] {
				return m.OOB(t3704, d_X[1], 1, "X", 21, 35)
			}
			t3705 := b_X + int((t3703)*d_X[1]+t3704)
			r_X_r7 := m.LoadF(t3705)
			t3706 := i_i1
			if t3706 < 0 || t3706 >= d_A[0] {
				return m.OOB(t3706, d_A[0], 0, "A", 21, 51)
			}
			t3707 := i_i2
			if t3707 < 0 || t3707 >= d_A[1] {
				return m.OOB(t3707, d_A[1], 1, "A", 21, 51)
			}
			t3708 := b_A + int((t3706)*d_A[1]+t3707)
			r_A_r5 := m.LoadF(t3708)
			t3709 := i_i1 - int64(1)
			t3710 := t3709
			if t3710 < 0 || t3710 >= d_B[0] {
				return m.OOB(t3710, d_B[0], 0, "B", 21, 63)
			}
			t3711 := i_i2
			if t3711 < 0 || t3711 >= d_B[1] {
				return m.OOB(t3711, d_B[1], 1, "B", 21, 63)
			}
			t3712 := b_B + int((t3710)*d_B[1]+t3711)
			r_B_r6 := m.LoadF(t3712)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3713 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3714 := float64(t3713 / r_B_r6)
			t3715 := float64(r_X_r6 - t3714)
			r_X_w4 := t3715
			t3716 := i_i1
			if t3716 < 0 || t3716 >= d_X[0] {
				return m.OOB(t3716, d_X[0], 0, "X", 21, 11)
			}
			t3717 := i_i2
			if t3717 < 0 || t3717 >= d_X[1] {
				return m.OOB(t3717, d_X[1], 1, "X", 21, 11)
			}
			t3718 := b_X + int((t3716)*d_X[1]+t3717)
			m.StoreF(t3718, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t3719 := i_i1
			if t3719 < 0 || t3719 >= d_B[0] {
				return m.OOB(t3719, d_B[0], 0, "B", 22, 23)
			}
			t3720 := i_i2
			if t3720 < 0 || t3720 >= d_B[1] {
				return m.OOB(t3720, d_B[1], 1, "B", 22, 23)
			}
			t3721 := b_B + int((t3719)*d_B[1]+t3720)
			r_B_r7 := m.LoadF(t3721)
			t3722 := i_i1
			if t3722 < 0 || t3722 >= d_A[0] {
				return m.OOB(t3722, d_A[0], 0, "A", 22, 35)
			}
			t3723 := i_i2
			if t3723 < 0 || t3723 >= d_A[1] {
				return m.OOB(t3723, d_A[1], 1, "A", 22, 35)
			}
			t3724 := b_A + int((t3722)*d_A[1]+t3723)
			r_A_r6 := m.LoadF(t3724)
			t3725 := i_i1
			if t3725 < 0 || t3725 >= d_A[0] {
				return m.OOB(t3725, d_A[0], 0, "A", 22, 47)
			}
			t3726 := i_i2
			if t3726 < 0 || t3726 >= d_A[1] {
				return m.OOB(t3726, d_A[1], 1, "A", 22, 47)
			}
			t3727 := b_A + int((t3725)*d_A[1]+t3726)
			r_A_r7 := m.LoadF(t3727)
			t3728 := i_i1 - int64(1)
			t3729 := t3728
			if t3729 < 0 || t3729 >= d_B[0] {
				return m.OOB(t3729, d_B[0], 0, "B", 22, 59)
			}
			t3730 := i_i2
			if t3730 < 0 || t3730 >= d_B[1] {
				return m.OOB(t3730, d_B[1], 1, "B", 22, 59)
			}
			t3731 := b_B + int((t3729)*d_B[1]+t3730)
			r_B_r8 := m.LoadF(t3731)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3732 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3733 := float64(t3732 / r_B_r8)
			t3734 := float64(r_B_r7 - t3733)
			r_B_w2 := t3734
			t3735 := i_i1
			if t3735 < 0 || t3735 >= d_B[0] {
				return m.OOB(t3735, d_B[0], 0, "B", 22, 11)
			}
			t3736 := i_i2
			if t3736 < 0 || t3736 >= d_B[1] {
				return m.OOB(t3736, d_B[1], 1, "B", 22, 11)
			}
			t3737 := b_B + int((t3735)*d_B[1]+t3736)
			m.StoreF(t3737, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n55(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3738 := p_n - int64(1)
	t3739 := codegen.MaxI(int64(1), t3738)
	t3740 := p_n - int64(1)
	for i_i1 := t3739; i_i1 <= t3740; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3741 := p_n - int64(1)
		t3742 := codegen.MinI(t3741, int64(0))
		for i_i2 := int64(0); i_i2 <= t3742; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3743 := i_i1
			if t3743 < 0 || t3743 >= d_X[0] {
				return m.OOB(t3743, d_X[0], 0, "X", 21, 23)
			}
			t3744 := i_i2
			if t3744 < 0 || t3744 >= d_X[1] {
				return m.OOB(t3744, d_X[1], 1, "X", 21, 23)
			}
			t3745 := b_X + int((t3743)*d_X[1]+t3744)
			r_X_r6 := m.LoadF(t3745)
			t3746 := i_i1 - int64(1)
			t3747 := t3746
			if t3747 < 0 || t3747 >= d_X[0] {
				return m.OOB(t3747, d_X[0], 0, "X", 21, 35)
			}
			t3748 := i_i2
			if t3748 < 0 || t3748 >= d_X[1] {
				return m.OOB(t3748, d_X[1], 1, "X", 21, 35)
			}
			t3749 := b_X + int((t3747)*d_X[1]+t3748)
			r_X_r7 := m.LoadF(t3749)
			t3750 := i_i1
			if t3750 < 0 || t3750 >= d_A[0] {
				return m.OOB(t3750, d_A[0], 0, "A", 21, 51)
			}
			t3751 := i_i2
			if t3751 < 0 || t3751 >= d_A[1] {
				return m.OOB(t3751, d_A[1], 1, "A", 21, 51)
			}
			t3752 := b_A + int((t3750)*d_A[1]+t3751)
			r_A_r5 := m.LoadF(t3752)
			t3753 := i_i1 - int64(1)
			t3754 := t3753
			if t3754 < 0 || t3754 >= d_B[0] {
				return m.OOB(t3754, d_B[0], 0, "B", 21, 63)
			}
			t3755 := i_i2
			if t3755 < 0 || t3755 >= d_B[1] {
				return m.OOB(t3755, d_B[1], 1, "B", 21, 63)
			}
			t3756 := b_B + int((t3754)*d_B[1]+t3755)
			r_B_r6 := m.LoadF(t3756)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3757 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3758 := float64(t3757 / r_B_r6)
			t3759 := float64(r_X_r6 - t3758)
			r_X_w4 := t3759
			t3760 := i_i1
			if t3760 < 0 || t3760 >= d_X[0] {
				return m.OOB(t3760, d_X[0], 0, "X", 21, 11)
			}
			t3761 := i_i2
			if t3761 < 0 || t3761 >= d_X[1] {
				return m.OOB(t3761, d_X[1], 1, "X", 21, 11)
			}
			t3762 := b_X + int((t3760)*d_X[1]+t3761)
			m.StoreF(t3762, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t3763 := i_i1
			if t3763 < 0 || t3763 >= d_B[0] {
				return m.OOB(t3763, d_B[0], 0, "B", 22, 23)
			}
			t3764 := i_i2
			if t3764 < 0 || t3764 >= d_B[1] {
				return m.OOB(t3764, d_B[1], 1, "B", 22, 23)
			}
			t3765 := b_B + int((t3763)*d_B[1]+t3764)
			r_B_r7 := m.LoadF(t3765)
			t3766 := i_i1
			if t3766 < 0 || t3766 >= d_A[0] {
				return m.OOB(t3766, d_A[0], 0, "A", 22, 35)
			}
			t3767 := i_i2
			if t3767 < 0 || t3767 >= d_A[1] {
				return m.OOB(t3767, d_A[1], 1, "A", 22, 35)
			}
			t3768 := b_A + int((t3766)*d_A[1]+t3767)
			r_A_r6 := m.LoadF(t3768)
			t3769 := i_i1
			if t3769 < 0 || t3769 >= d_A[0] {
				return m.OOB(t3769, d_A[0], 0, "A", 22, 47)
			}
			t3770 := i_i2
			if t3770 < 0 || t3770 >= d_A[1] {
				return m.OOB(t3770, d_A[1], 1, "A", 22, 47)
			}
			t3771 := b_A + int((t3769)*d_A[1]+t3770)
			r_A_r7 := m.LoadF(t3771)
			t3772 := i_i1 - int64(1)
			t3773 := t3772
			if t3773 < 0 || t3773 >= d_B[0] {
				return m.OOB(t3773, d_B[0], 0, "B", 22, 59)
			}
			t3774 := i_i2
			if t3774 < 0 || t3774 >= d_B[1] {
				return m.OOB(t3774, d_B[1], 1, "B", 22, 59)
			}
			t3775 := b_B + int((t3773)*d_B[1]+t3774)
			r_B_r8 := m.LoadF(t3775)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3776 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3777 := float64(t3776 / r_B_r8)
			t3778 := float64(r_B_r7 - t3777)
			r_B_w2 := t3778
			t3779 := i_i1
			if t3779 < 0 || t3779 >= d_B[0] {
				return m.OOB(t3779, d_B[0], 0, "B", 22, 11)
			}
			t3780 := i_i2
			if t3780 < 0 || t3780 >= d_B[1] {
				return m.OOB(t3780, d_B[1], 1, "B", 22, 11)
			}
			t3781 := b_B + int((t3779)*d_B[1]+t3780)
			m.StoreF(t3781, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t3782 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t3782; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3783 := i_i1
			if t3783 < 0 || t3783 >= d_X[0] {
				return m.OOB(t3783, d_X[0], 0, "X", 21, 23)
			}
			t3784 := i_i2
			if t3784 < 0 || t3784 >= d_X[1] {
				return m.OOB(t3784, d_X[1], 1, "X", 21, 23)
			}
			t3785 := b_X + int((t3783)*d_X[1]+t3784)
			r_X_r6 := m.LoadF(t3785)
			t3786 := i_i1 - int64(1)
			t3787 := t3786
			if t3787 < 0 || t3787 >= d_X[0] {
				return m.OOB(t3787, d_X[0], 0, "X", 21, 35)
			}
			t3788 := i_i2
			if t3788 < 0 || t3788 >= d_X[1] {
				return m.OOB(t3788, d_X[1], 1, "X", 21, 35)
			}
			t3789 := b_X + int((t3787)*d_X[1]+t3788)
			r_X_r7 := m.LoadF(t3789)
			t3790 := i_i1
			if t3790 < 0 || t3790 >= d_A[0] {
				return m.OOB(t3790, d_A[0], 0, "A", 21, 51)
			}
			t3791 := i_i2
			if t3791 < 0 || t3791 >= d_A[1] {
				return m.OOB(t3791, d_A[1], 1, "A", 21, 51)
			}
			t3792 := b_A + int((t3790)*d_A[1]+t3791)
			r_A_r5 := m.LoadF(t3792)
			t3793 := i_i1 - int64(1)
			t3794 := t3793
			if t3794 < 0 || t3794 >= d_B[0] {
				return m.OOB(t3794, d_B[0], 0, "B", 21, 63)
			}
			t3795 := i_i2
			if t3795 < 0 || t3795 >= d_B[1] {
				return m.OOB(t3795, d_B[1], 1, "B", 21, 63)
			}
			t3796 := b_B + int((t3794)*d_B[1]+t3795)
			r_B_r6 := m.LoadF(t3796)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3797 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3798 := float64(t3797 / r_B_r6)
			t3799 := float64(r_X_r6 - t3798)
			r_X_w4 := t3799
			t3800 := i_i1
			if t3800 < 0 || t3800 >= d_X[0] {
				return m.OOB(t3800, d_X[0], 0, "X", 21, 11)
			}
			t3801 := i_i2
			if t3801 < 0 || t3801 >= d_X[1] {
				return m.OOB(t3801, d_X[1], 1, "X", 21, 11)
			}
			t3802 := b_X + int((t3800)*d_X[1]+t3801)
			m.StoreF(t3802, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t3803 := i_i1
			if t3803 < 0 || t3803 >= d_B[0] {
				return m.OOB(t3803, d_B[0], 0, "B", 22, 23)
			}
			t3804 := i_i2
			if t3804 < 0 || t3804 >= d_B[1] {
				return m.OOB(t3804, d_B[1], 1, "B", 22, 23)
			}
			t3805 := b_B + int((t3803)*d_B[1]+t3804)
			r_B_r7 := m.LoadF(t3805)
			t3806 := i_i1
			if t3806 < 0 || t3806 >= d_A[0] {
				return m.OOB(t3806, d_A[0], 0, "A", 22, 35)
			}
			t3807 := i_i2
			if t3807 < 0 || t3807 >= d_A[1] {
				return m.OOB(t3807, d_A[1], 1, "A", 22, 35)
			}
			t3808 := b_A + int((t3806)*d_A[1]+t3807)
			r_A_r6 := m.LoadF(t3808)
			t3809 := i_i1
			if t3809 < 0 || t3809 >= d_A[0] {
				return m.OOB(t3809, d_A[0], 0, "A", 22, 47)
			}
			t3810 := i_i2
			if t3810 < 0 || t3810 >= d_A[1] {
				return m.OOB(t3810, d_A[1], 1, "A", 22, 47)
			}
			t3811 := b_A + int((t3809)*d_A[1]+t3810)
			r_A_r7 := m.LoadF(t3811)
			t3812 := i_i1 - int64(1)
			t3813 := t3812
			if t3813 < 0 || t3813 >= d_B[0] {
				return m.OOB(t3813, d_B[0], 0, "B", 22, 59)
			}
			t3814 := i_i2
			if t3814 < 0 || t3814 >= d_B[1] {
				return m.OOB(t3814, d_B[1], 1, "B", 22, 59)
			}
			t3815 := b_B + int((t3813)*d_B[1]+t3814)
			r_B_r8 := m.LoadF(t3815)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3816 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3817 := float64(t3816 / r_B_r8)
			t3818 := float64(r_B_r7 - t3817)
			r_B_w2 := t3818
			t3819 := i_i1
			if t3819 < 0 || t3819 >= d_B[0] {
				return m.OOB(t3819, d_B[0], 0, "B", 22, 11)
			}
			t3820 := i_i2
			if t3820 < 0 || t3820 >= d_B[1] {
				return m.OOB(t3820, d_B[1], 1, "B", 22, 11)
			}
			t3821 := b_B + int((t3819)*d_B[1]+t3820)
			m.StoreF(t3821, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t3822 := p_n - int64(1)
		t3823 := codegen.MaxI(int64(1), t3822)
		t3824 := p_n - int64(1)
		for i_i2 := t3823; i_i2 <= t3824; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3825 := i_i1
			if t3825 < 0 || t3825 >= d_X[0] {
				return m.OOB(t3825, d_X[0], 0, "X", 21, 23)
			}
			t3826 := i_i2
			if t3826 < 0 || t3826 >= d_X[1] {
				return m.OOB(t3826, d_X[1], 1, "X", 21, 23)
			}
			t3827 := b_X + int((t3825)*d_X[1]+t3826)
			r_X_r6 := m.LoadF(t3827)
			t3828 := i_i1 - int64(1)
			t3829 := t3828
			if t3829 < 0 || t3829 >= d_X[0] {
				return m.OOB(t3829, d_X[0], 0, "X", 21, 35)
			}
			t3830 := i_i2
			if t3830 < 0 || t3830 >= d_X[1] {
				return m.OOB(t3830, d_X[1], 1, "X", 21, 35)
			}
			t3831 := b_X + int((t3829)*d_X[1]+t3830)
			r_X_r7 := m.LoadF(t3831)
			t3832 := i_i1
			if t3832 < 0 || t3832 >= d_A[0] {
				return m.OOB(t3832, d_A[0], 0, "A", 21, 51)
			}
			t3833 := i_i2
			if t3833 < 0 || t3833 >= d_A[1] {
				return m.OOB(t3833, d_A[1], 1, "A", 21, 51)
			}
			t3834 := b_A + int((t3832)*d_A[1]+t3833)
			r_A_r5 := m.LoadF(t3834)
			t3835 := i_i1 - int64(1)
			t3836 := t3835
			if t3836 < 0 || t3836 >= d_B[0] {
				return m.OOB(t3836, d_B[0], 0, "B", 21, 63)
			}
			t3837 := i_i2
			if t3837 < 0 || t3837 >= d_B[1] {
				return m.OOB(t3837, d_B[1], 1, "B", 21, 63)
			}
			t3838 := b_B + int((t3836)*d_B[1]+t3837)
			r_B_r6 := m.LoadF(t3838)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t3839 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t3840 := float64(t3839 / r_B_r6)
			t3841 := float64(r_X_r6 - t3840)
			r_X_w4 := t3841
			t3842 := i_i1
			if t3842 < 0 || t3842 >= d_X[0] {
				return m.OOB(t3842, d_X[0], 0, "X", 21, 11)
			}
			t3843 := i_i2
			if t3843 < 0 || t3843 >= d_X[1] {
				return m.OOB(t3843, d_X[1], 1, "X", 21, 11)
			}
			t3844 := b_X + int((t3842)*d_X[1]+t3843)
			m.StoreF(t3844, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t3845 := i_i1
			if t3845 < 0 || t3845 >= d_B[0] {
				return m.OOB(t3845, d_B[0], 0, "B", 22, 23)
			}
			t3846 := i_i2
			if t3846 < 0 || t3846 >= d_B[1] {
				return m.OOB(t3846, d_B[1], 1, "B", 22, 23)
			}
			t3847 := b_B + int((t3845)*d_B[1]+t3846)
			r_B_r7 := m.LoadF(t3847)
			t3848 := i_i1
			if t3848 < 0 || t3848 >= d_A[0] {
				return m.OOB(t3848, d_A[0], 0, "A", 22, 35)
			}
			t3849 := i_i2
			if t3849 < 0 || t3849 >= d_A[1] {
				return m.OOB(t3849, d_A[1], 1, "A", 22, 35)
			}
			t3850 := b_A + int((t3848)*d_A[1]+t3849)
			r_A_r6 := m.LoadF(t3850)
			t3851 := i_i1
			if t3851 < 0 || t3851 >= d_A[0] {
				return m.OOB(t3851, d_A[0], 0, "A", 22, 47)
			}
			t3852 := i_i2
			if t3852 < 0 || t3852 >= d_A[1] {
				return m.OOB(t3852, d_A[1], 1, "A", 22, 47)
			}
			t3853 := b_A + int((t3851)*d_A[1]+t3852)
			r_A_r7 := m.LoadF(t3853)
			t3854 := i_i1 - int64(1)
			t3855 := t3854
			if t3855 < 0 || t3855 >= d_B[0] {
				return m.OOB(t3855, d_B[0], 0, "B", 22, 59)
			}
			t3856 := i_i2
			if t3856 < 0 || t3856 >= d_B[1] {
				return m.OOB(t3856, d_B[1], 1, "B", 22, 59)
			}
			t3857 := b_B + int((t3855)*d_B[1]+t3856)
			r_B_r8 := m.LoadF(t3857)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t3858 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t3859 := float64(t3858 / r_B_r8)
			t3860 := float64(r_B_r7 - t3859)
			r_B_w2 := t3860
			t3861 := i_i1
			if t3861 < 0 || t3861 >= d_B[0] {
				return m.OOB(t3861, d_B[0], 0, "B", 22, 11)
			}
			t3862 := i_i2
			if t3862 < 0 || t3862 >= d_B[1] {
				return m.OOB(t3862, d_B[1], 1, "B", 22, 11)
			}
			t3863 := b_B + int((t3861)*d_B[1]+t3862)
			m.StoreF(t3863, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n56(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3908 := p_tsteps - int64(3)
	for i_t := int64(1); i_t <= t3908; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n57(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n58(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n59(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n60(m, cs, p_n, b_X, d_X, b_B, d_B); err != nil {
			return err
		}
		t4302 := p_n - int64(2)
		t4303 := codegen.MaxI(int64(0), t4302)
		t4304 := p_n - int64(2)
		t4305 := codegen.MinI(t4304, int64(0))
		for i_i1 := t4303; i_i1 <= t4305; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4306 := i_i1
			if t4306 < 0 || t4306 >= d_X[0] {
				return m.OOB(t4306, d_X[0], 0, "X", 12, 24)
			}
			t4307 := p_n - int64(1)
			t4308 := t4307
			if t4308 < 0 || t4308 >= d_X[1] {
				return m.OOB(t4308, d_X[1], 1, "X", 12, 24)
			}
			t4309 := b_X + int((t4306)*d_X[1]+t4308)
			r_X_r3 := m.LoadF(t4309)
			t4310 := i_i1
			if t4310 < 0 || t4310 >= d_B[0] {
				return m.OOB(t4310, d_B[0], 0, "B", 12, 39)
			}
			t4311 := p_n - int64(1)
			t4312 := t4311
			if t4312 < 0 || t4312 >= d_B[1] {
				return m.OOB(t4312, d_B[1], 1, "B", 12, 39)
			}
			t4313 := b_B + int((t4310)*d_B[1]+t4312)
			r_B_r4 := m.LoadF(t4313)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t4314 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t4314
			t4315 := i_i1
			if t4315 < 0 || t4315 >= d_X[0] {
				return m.OOB(t4315, d_X[0], 0, "X", 12, 9)
			}
			t4316 := p_n - int64(1)
			t4317 := t4316
			if t4317 < 0 || t4317 >= d_X[1] {
				return m.OOB(t4317, d_X[1], 1, "X", 12, 9)
			}
			t4318 := b_X + int((t4315)*d_X[1]+t4317)
			m.StoreF(t4318, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t4319 := p_n - int64(1)
		t4320 := codegen.MaxI(int64(0), t4319)
		t4321 := p_n - int64(1)
		t4322 := codegen.MinI(t4321, int64(0))
		for i_i1 := t4320; i_i1 <= t4322; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4323 := i_i1
			if t4323 < 0 || t4323 >= d_X[0] {
				return m.OOB(t4323, d_X[0], 0, "X", 12, 24)
			}
			t4324 := p_n - int64(1)
			t4325 := t4324
			if t4325 < 0 || t4325 >= d_X[1] {
				return m.OOB(t4325, d_X[1], 1, "X", 12, 24)
			}
			t4326 := b_X + int((t4323)*d_X[1]+t4325)
			r_X_r3 := m.LoadF(t4326)
			t4327 := i_i1
			if t4327 < 0 || t4327 >= d_B[0] {
				return m.OOB(t4327, d_B[0], 0, "B", 12, 39)
			}
			t4328 := p_n - int64(1)
			t4329 := t4328
			if t4329 < 0 || t4329 >= d_B[1] {
				return m.OOB(t4329, d_B[1], 1, "B", 12, 39)
			}
			t4330 := b_B + int((t4327)*d_B[1]+t4329)
			r_B_r4 := m.LoadF(t4330)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t4331 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t4331
			t4332 := i_i1
			if t4332 < 0 || t4332 >= d_X[0] {
				return m.OOB(t4332, d_X[0], 0, "X", 12, 9)
			}
			t4333 := p_n - int64(1)
			t4334 := t4333
			if t4334 < 0 || t4334 >= d_X[1] {
				return m.OOB(t4334, d_X[1], 1, "X", 12, 9)
			}
			t4335 := b_X + int((t4332)*d_X[1]+t4334)
			m.StoreF(t4335, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t4336 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t4336; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4337 := i_i1
			if t4337 < 0 || t4337 >= d_X[0] {
				return m.OOB(t4337, d_X[0], 0, "X", 12, 24)
			}
			t4338 := p_n - int64(1)
			t4339 := t4338
			if t4339 < 0 || t4339 >= d_X[1] {
				return m.OOB(t4339, d_X[1], 1, "X", 12, 24)
			}
			t4340 := b_X + int((t4337)*d_X[1]+t4339)
			r_X_r3 := m.LoadF(t4340)
			t4341 := i_i1
			if t4341 < 0 || t4341 >= d_B[0] {
				return m.OOB(t4341, d_B[0], 0, "B", 12, 39)
			}
			t4342 := p_n - int64(1)
			t4343 := t4342
			if t4343 < 0 || t4343 >= d_B[1] {
				return m.OOB(t4343, d_B[1], 1, "B", 12, 39)
			}
			t4344 := b_B + int((t4341)*d_B[1]+t4343)
			r_B_r4 := m.LoadF(t4344)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t4345 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t4345
			t4346 := i_i1
			if t4346 < 0 || t4346 >= d_X[0] {
				return m.OOB(t4346, d_X[0], 0, "X", 12, 9)
			}
			t4347 := p_n - int64(1)
			t4348 := t4347
			if t4348 < 0 || t4348 >= d_X[1] {
				return m.OOB(t4348, d_X[1], 1, "X", 12, 9)
			}
			t4349 := b_X + int((t4346)*d_X[1]+t4348)
			m.StoreF(t4349, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t4350 := p_n - int64(1)
		t4351 := codegen.MaxI(int64(1), t4350)
		t4352 := p_n - int64(1)
		for i_i1 := t4351; i_i1 <= t4352; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4353 := i_i1
			if t4353 < 0 || t4353 >= d_X[0] {
				return m.OOB(t4353, d_X[0], 0, "X", 12, 24)
			}
			t4354 := p_n - int64(1)
			t4355 := t4354
			if t4355 < 0 || t4355 >= d_X[1] {
				return m.OOB(t4355, d_X[1], 1, "X", 12, 24)
			}
			t4356 := b_X + int((t4353)*d_X[1]+t4355)
			r_X_r3 := m.LoadF(t4356)
			t4357 := i_i1
			if t4357 < 0 || t4357 >= d_B[0] {
				return m.OOB(t4357, d_B[0], 0, "B", 12, 39)
			}
			t4358 := p_n - int64(1)
			t4359 := t4358
			if t4359 < 0 || t4359 >= d_B[1] {
				return m.OOB(t4359, d_B[1], 1, "B", 12, 39)
			}
			t4360 := b_B + int((t4357)*d_B[1]+t4359)
			r_B_r4 := m.LoadF(t4360)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t4361 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t4361
			t4362 := i_i1
			if t4362 < 0 || t4362 >= d_X[0] {
				return m.OOB(t4362, d_X[0], 0, "X", 12, 9)
			}
			t4363 := p_n - int64(1)
			t4364 := t4363
			if t4364 < 0 || t4364 >= d_X[1] {
				return m.OOB(t4364, d_X[1], 1, "X", 12, 9)
			}
			t4365 := b_X + int((t4362)*d_X[1]+t4364)
			m.StoreF(t4365, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		if err := run_adi_resilientopt_n61(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n62(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n63(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n64(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n65(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n66(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t4881 := p_n - int64(3)
		t4882 := codegen.MinI(t4881, int64(0))
		for i_i2 := int64(0); i_i2 <= t4882; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4883 := p_n - int64(1)
			t4884 := t4883
			if t4884 < 0 || t4884 >= d_X[0] {
				return m.OOB(t4884, d_X[0], 0, "X", 26, 24)
			}
			t4885 := i_i2
			if t4885 < 0 || t4885 >= d_X[1] {
				return m.OOB(t4885, d_X[1], 1, "X", 26, 24)
			}
			t4886 := b_X + int((t4884)*d_X[1]+t4885)
			r_X_r8 := m.LoadF(t4886)
			t4887 := p_n - int64(1)
			t4888 := t4887
			if t4888 < 0 || t4888 >= d_B[0] {
				return m.OOB(t4888, d_B[0], 0, "B", 26, 39)
			}
			t4889 := i_i2
			if t4889 < 0 || t4889 >= d_B[1] {
				return m.OOB(t4889, d_B[1], 1, "B", 26, 39)
			}
			t4890 := b_B + int((t4888)*d_B[1]+t4889)
			r_B_r9 := m.LoadF(t4890)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t4891 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t4891
			t4892 := p_n - int64(1)
			t4893 := t4892
			if t4893 < 0 || t4893 >= d_X[0] {
				return m.OOB(t4893, d_X[0], 0, "X", 26, 9)
			}
			t4894 := i_i2
			if t4894 < 0 || t4894 >= d_X[1] {
				return m.OOB(t4894, d_X[1], 1, "X", 26, 9)
			}
			t4895 := b_X + int((t4893)*d_X[1]+t4894)
			m.StoreF(t4895, r_X_w5)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t4896 := p_n - int64(2)
		t4897 := codegen.MaxI(int64(0), t4896)
		t4898 := p_n - int64(2)
		t4899 := codegen.MinI(t4898, int64(0))
		for i_i2 := t4897; i_i2 <= t4899; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4900 := p_n - int64(1)
			t4901 := t4900
			if t4901 < 0 || t4901 >= d_X[0] {
				return m.OOB(t4901, d_X[0], 0, "X", 26, 24)
			}
			t4902 := i_i2
			if t4902 < 0 || t4902 >= d_X[1] {
				return m.OOB(t4902, d_X[1], 1, "X", 26, 24)
			}
			t4903 := b_X + int((t4901)*d_X[1]+t4902)
			r_X_r8 := m.LoadF(t4903)
			t4904 := p_n - int64(1)
			t4905 := t4904
			if t4905 < 0 || t4905 >= d_B[0] {
				return m.OOB(t4905, d_B[0], 0, "B", 26, 39)
			}
			t4906 := i_i2
			if t4906 < 0 || t4906 >= d_B[1] {
				return m.OOB(t4906, d_B[1], 1, "B", 26, 39)
			}
			t4907 := b_B + int((t4905)*d_B[1]+t4906)
			r_B_r9 := m.LoadF(t4907)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t4908 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t4908
			t4909 := p_n - int64(1)
			t4910 := t4909
			if t4910 < 0 || t4910 >= d_X[0] {
				return m.OOB(t4910, d_X[0], 0, "X", 26, 9)
			}
			t4911 := i_i2
			if t4911 < 0 || t4911 >= d_X[1] {
				return m.OOB(t4911, d_X[1], 1, "X", 26, 9)
			}
			t4912 := b_X + int((t4910)*d_X[1]+t4911)
			m.StoreF(t4912, r_X_w5)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t4913 := p_n - int64(1)
		t4914 := codegen.MaxI(int64(0), t4913)
		t4915 := p_n - int64(1)
		t4916 := codegen.MinI(t4915, int64(0))
		for i_i2 := t4914; i_i2 <= t4916; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4917 := p_n - int64(1)
			t4918 := t4917
			if t4918 < 0 || t4918 >= d_X[0] {
				return m.OOB(t4918, d_X[0], 0, "X", 26, 24)
			}
			t4919 := i_i2
			if t4919 < 0 || t4919 >= d_X[1] {
				return m.OOB(t4919, d_X[1], 1, "X", 26, 24)
			}
			t4920 := b_X + int((t4918)*d_X[1]+t4919)
			r_X_r8 := m.LoadF(t4920)
			t4921 := p_n - int64(1)
			t4922 := t4921
			if t4922 < 0 || t4922 >= d_B[0] {
				return m.OOB(t4922, d_B[0], 0, "B", 26, 39)
			}
			t4923 := i_i2
			if t4923 < 0 || t4923 >= d_B[1] {
				return m.OOB(t4923, d_B[1], 1, "B", 26, 39)
			}
			t4924 := b_B + int((t4922)*d_B[1]+t4923)
			r_B_r9 := m.LoadF(t4924)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t4925 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t4925
			t4926 := p_n - int64(1)
			t4927 := t4926
			if t4927 < 0 || t4927 >= d_X[0] {
				return m.OOB(t4927, d_X[0], 0, "X", 26, 9)
			}
			t4928 := i_i2
			if t4928 < 0 || t4928 >= d_X[1] {
				return m.OOB(t4928, d_X[1], 1, "X", 26, 9)
			}
			t4929 := b_X + int((t4927)*d_X[1]+t4928)
			m.StoreF(t4929, r_X_w5)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t4930 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t4930; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4931 := p_n - int64(1)
			t4932 := t4931
			if t4932 < 0 || t4932 >= d_X[0] {
				return m.OOB(t4932, d_X[0], 0, "X", 26, 24)
			}
			t4933 := i_i2
			if t4933 < 0 || t4933 >= d_X[1] {
				return m.OOB(t4933, d_X[1], 1, "X", 26, 24)
			}
			t4934 := b_X + int((t4932)*d_X[1]+t4933)
			r_X_r8 := m.LoadF(t4934)
			t4935 := p_n - int64(1)
			t4936 := t4935
			if t4936 < 0 || t4936 >= d_B[0] {
				return m.OOB(t4936, d_B[0], 0, "B", 26, 39)
			}
			t4937 := i_i2
			if t4937 < 0 || t4937 >= d_B[1] {
				return m.OOB(t4937, d_B[1], 1, "B", 26, 39)
			}
			t4938 := b_B + int((t4936)*d_B[1]+t4937)
			r_B_r9 := m.LoadF(t4938)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t4939 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t4939
			t4940 := p_n - int64(1)
			t4941 := t4940
			if t4941 < 0 || t4941 >= d_X[0] {
				return m.OOB(t4941, d_X[0], 0, "X", 26, 9)
			}
			t4942 := i_i2
			if t4942 < 0 || t4942 >= d_X[1] {
				return m.OOB(t4942, d_X[1], 1, "X", 26, 9)
			}
			t4943 := b_X + int((t4941)*d_X[1]+t4942)
			m.StoreF(t4943, r_X_w5)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		t4944 := p_n - int64(1)
		t4945 := codegen.MaxI(int64(1), t4944)
		t4946 := p_n - int64(1)
		for i_i2 := t4945; i_i2 <= t4946; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4947 := p_n - int64(1)
			t4948 := t4947
			if t4948 < 0 || t4948 >= d_X[0] {
				return m.OOB(t4948, d_X[0], 0, "X", 26, 24)
			}
			t4949 := i_i2
			if t4949 < 0 || t4949 >= d_X[1] {
				return m.OOB(t4949, d_X[1], 1, "X", 26, 24)
			}
			t4950 := b_X + int((t4948)*d_X[1]+t4949)
			r_X_r8 := m.LoadF(t4950)
			t4951 := p_n - int64(1)
			t4952 := t4951
			if t4952 < 0 || t4952 >= d_B[0] {
				return m.OOB(t4952, d_B[0], 0, "B", 26, 39)
			}
			t4953 := i_i2
			if t4953 < 0 || t4953 >= d_B[1] {
				return m.OOB(t4953, d_B[1], 1, "B", 26, 39)
			}
			t4954 := b_B + int((t4952)*d_B[1]+t4953)
			r_B_r9 := m.LoadF(t4954)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t4955 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t4955
			t4956 := p_n - int64(1)
			t4957 := t4956
			if t4957 < 0 || t4957 >= d_X[0] {
				return m.OOB(t4957, d_X[0], 0, "X", 26, 9)
			}
			t4958 := i_i2
			if t4958 < 0 || t4958 >= d_X[1] {
				return m.OOB(t4958, d_X[1], 1, "X", 26, 9)
			}
			t4959 := b_X + int((t4957)*d_X[1]+t4958)
			m.StoreF(t4959, r_X_w5)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), int64(1))
		}
		if err := run_adi_resilientopt_n68(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilientopt_n57(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t3909 := p_n - int64(1)
	t3910 := codegen.MinI(t3909, int64(0))
	for i_i1 := int64(0); i_i1 <= t3910; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t3911 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t3911; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3912 := i_i1
			if t3912 < 0 || t3912 >= d_X[0] {
				return m.OOB(t3912, d_X[0], 0, "X", 7, 23)
			}
			t3913 := i_i2
			if t3913 < 0 || t3913 >= d_X[1] {
				return m.OOB(t3913, d_X[1], 1, "X", 7, 23)
			}
			t3914 := b_X + int((t3912)*d_X[1]+t3913)
			r_X_r := m.LoadF(t3914)
			t3915 := i_i1
			if t3915 < 0 || t3915 >= d_X[0] {
				return m.OOB(t3915, d_X[0], 0, "X", 7, 35)
			}
			t3916 := i_i2 - int64(1)
			t3917 := t3916
			if t3917 < 0 || t3917 >= d_X[1] {
				return m.OOB(t3917, d_X[1], 1, "X", 7, 35)
			}
			t3918 := b_X + int((t3915)*d_X[1]+t3917)
			r_X_r2 := m.LoadF(t3918)
			t3919 := i_i1
			if t3919 < 0 || t3919 >= d_A[0] {
				return m.OOB(t3919, d_A[0], 0, "A", 7, 51)
			}
			t3920 := i_i2
			if t3920 < 0 || t3920 >= d_A[1] {
				return m.OOB(t3920, d_A[1], 1, "A", 7, 51)
			}
			t3921 := b_A + int((t3919)*d_A[1]+t3920)
			r_A_r := m.LoadF(t3921)
			t3922 := i_i1
			if t3922 < 0 || t3922 >= d_B[0] {
				return m.OOB(t3922, d_B[0], 0, "B", 7, 63)
			}
			t3923 := i_i2 - int64(1)
			t3924 := t3923
			if t3924 < 0 || t3924 >= d_B[1] {
				return m.OOB(t3924, d_B[1], 1, "B", 7, 63)
			}
			t3925 := b_B + int((t3922)*d_B[1]+t3924)
			r_B_r := m.LoadF(t3925)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3926 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3927 := float64(t3926 / r_B_r)
			t3928 := float64(r_X_r - t3927)
			r_X_w := t3928
			t3929 := i_i1
			if t3929 < 0 || t3929 >= d_X[0] {
				return m.OOB(t3929, d_X[0], 0, "X", 7, 11)
			}
			t3930 := i_i2
			if t3930 < 0 || t3930 >= d_X[1] {
				return m.OOB(t3930, d_X[1], 1, "X", 7, 11)
			}
			t3931 := b_X + int((t3929)*d_X[1]+t3930)
			m.StoreF(t3931, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t3932 := i_i1
			if t3932 < 0 || t3932 >= d_B[0] {
				return m.OOB(t3932, d_B[0], 0, "B", 8, 23)
			}
			t3933 := i_i2
			if t3933 < 0 || t3933 >= d_B[1] {
				return m.OOB(t3933, d_B[1], 1, "B", 8, 23)
			}
			t3934 := b_B + int((t3932)*d_B[1]+t3933)
			r_B_r2 := m.LoadF(t3934)
			t3935 := i_i1
			if t3935 < 0 || t3935 >= d_A[0] {
				return m.OOB(t3935, d_A[0], 0, "A", 8, 35)
			}
			t3936 := i_i2
			if t3936 < 0 || t3936 >= d_A[1] {
				return m.OOB(t3936, d_A[1], 1, "A", 8, 35)
			}
			t3937 := b_A + int((t3935)*d_A[1]+t3936)
			r_A_r2 := m.LoadF(t3937)
			t3938 := i_i1
			if t3938 < 0 || t3938 >= d_A[0] {
				return m.OOB(t3938, d_A[0], 0, "A", 8, 47)
			}
			t3939 := i_i2
			if t3939 < 0 || t3939 >= d_A[1] {
				return m.OOB(t3939, d_A[1], 1, "A", 8, 47)
			}
			t3940 := b_A + int((t3938)*d_A[1]+t3939)
			r_A_r3 := m.LoadF(t3940)
			t3941 := i_i1
			if t3941 < 0 || t3941 >= d_B[0] {
				return m.OOB(t3941, d_B[0], 0, "B", 8, 59)
			}
			t3942 := i_i2 - int64(1)
			t3943 := t3942
			if t3943 < 0 || t3943 >= d_B[1] {
				return m.OOB(t3943, d_B[1], 1, "B", 8, 59)
			}
			t3944 := b_B + int((t3941)*d_B[1]+t3943)
			r_B_r3 := m.LoadF(t3944)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3945 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3946 := float64(t3945 / r_B_r3)
			t3947 := float64(r_B_r2 - t3946)
			r_B_w := t3947
			t3948 := i_i1
			if t3948 < 0 || t3948 >= d_B[0] {
				return m.OOB(t3948, d_B[0], 0, "B", 8, 11)
			}
			t3949 := i_i2
			if t3949 < 0 || t3949 >= d_B[1] {
				return m.OOB(t3949, d_B[1], 1, "B", 8, 11)
			}
			t3950 := b_B + int((t3948)*d_B[1]+t3949)
			m.StoreF(t3950, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t3951 := p_n - int64(2)
		t3952 := codegen.MaxI(int64(1), t3951)
		t3953 := p_n - int64(2)
		for i_i2 := t3952; i_i2 <= t3953; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3954 := i_i1
			if t3954 < 0 || t3954 >= d_X[0] {
				return m.OOB(t3954, d_X[0], 0, "X", 7, 23)
			}
			t3955 := i_i2
			if t3955 < 0 || t3955 >= d_X[1] {
				return m.OOB(t3955, d_X[1], 1, "X", 7, 23)
			}
			t3956 := b_X + int((t3954)*d_X[1]+t3955)
			r_X_r := m.LoadF(t3956)
			t3957 := i_i1
			if t3957 < 0 || t3957 >= d_X[0] {
				return m.OOB(t3957, d_X[0], 0, "X", 7, 35)
			}
			t3958 := i_i2 - int64(1)
			t3959 := t3958
			if t3959 < 0 || t3959 >= d_X[1] {
				return m.OOB(t3959, d_X[1], 1, "X", 7, 35)
			}
			t3960 := b_X + int((t3957)*d_X[1]+t3959)
			r_X_r2 := m.LoadF(t3960)
			t3961 := i_i1
			if t3961 < 0 || t3961 >= d_A[0] {
				return m.OOB(t3961, d_A[0], 0, "A", 7, 51)
			}
			t3962 := i_i2
			if t3962 < 0 || t3962 >= d_A[1] {
				return m.OOB(t3962, d_A[1], 1, "A", 7, 51)
			}
			t3963 := b_A + int((t3961)*d_A[1]+t3962)
			r_A_r := m.LoadF(t3963)
			t3964 := i_i1
			if t3964 < 0 || t3964 >= d_B[0] {
				return m.OOB(t3964, d_B[0], 0, "B", 7, 63)
			}
			t3965 := i_i2 - int64(1)
			t3966 := t3965
			if t3966 < 0 || t3966 >= d_B[1] {
				return m.OOB(t3966, d_B[1], 1, "B", 7, 63)
			}
			t3967 := b_B + int((t3964)*d_B[1]+t3966)
			r_B_r := m.LoadF(t3967)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t3968 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t3969 := float64(t3968 / r_B_r)
			t3970 := float64(r_X_r - t3969)
			r_X_w := t3970
			t3971 := i_i1
			if t3971 < 0 || t3971 >= d_X[0] {
				return m.OOB(t3971, d_X[0], 0, "X", 7, 11)
			}
			t3972 := i_i2
			if t3972 < 0 || t3972 >= d_X[1] {
				return m.OOB(t3972, d_X[1], 1, "X", 7, 11)
			}
			t3973 := b_X + int((t3971)*d_X[1]+t3972)
			m.StoreF(t3973, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t3974 := i_i1
			if t3974 < 0 || t3974 >= d_B[0] {
				return m.OOB(t3974, d_B[0], 0, "B", 8, 23)
			}
			t3975 := i_i2
			if t3975 < 0 || t3975 >= d_B[1] {
				return m.OOB(t3975, d_B[1], 1, "B", 8, 23)
			}
			t3976 := b_B + int((t3974)*d_B[1]+t3975)
			r_B_r2 := m.LoadF(t3976)
			t3977 := i_i1
			if t3977 < 0 || t3977 >= d_A[0] {
				return m.OOB(t3977, d_A[0], 0, "A", 8, 35)
			}
			t3978 := i_i2
			if t3978 < 0 || t3978 >= d_A[1] {
				return m.OOB(t3978, d_A[1], 1, "A", 8, 35)
			}
			t3979 := b_A + int((t3977)*d_A[1]+t3978)
			r_A_r2 := m.LoadF(t3979)
			t3980 := i_i1
			if t3980 < 0 || t3980 >= d_A[0] {
				return m.OOB(t3980, d_A[0], 0, "A", 8, 47)
			}
			t3981 := i_i2
			if t3981 < 0 || t3981 >= d_A[1] {
				return m.OOB(t3981, d_A[1], 1, "A", 8, 47)
			}
			t3982 := b_A + int((t3980)*d_A[1]+t3981)
			r_A_r3 := m.LoadF(t3982)
			t3983 := i_i1
			if t3983 < 0 || t3983 >= d_B[0] {
				return m.OOB(t3983, d_B[0], 0, "B", 8, 59)
			}
			t3984 := i_i2 - int64(1)
			t3985 := t3984
			if t3985 < 0 || t3985 >= d_B[1] {
				return m.OOB(t3985, d_B[1], 1, "B", 8, 59)
			}
			t3986 := b_B + int((t3983)*d_B[1]+t3985)
			r_B_r3 := m.LoadF(t3986)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t3987 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t3988 := float64(t3987 / r_B_r3)
			t3989 := float64(r_B_r2 - t3988)
			r_B_w := t3989
			t3990 := i_i1
			if t3990 < 0 || t3990 >= d_B[0] {
				return m.OOB(t3990, d_B[0], 0, "B", 8, 11)
			}
			t3991 := i_i2
			if t3991 < 0 || t3991 >= d_B[1] {
				return m.OOB(t3991, d_B[1], 1, "B", 8, 11)
			}
			t3992 := b_B + int((t3990)*d_B[1]+t3991)
			m.StoreF(t3992, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t3993 := p_n - int64(1)
		t3994 := codegen.MaxI(int64(1), t3993)
		t3995 := p_n - int64(1)
		for i_i2 := t3994; i_i2 <= t3995; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t3996 := i_i1
			if t3996 < 0 || t3996 >= d_X[0] {
				return m.OOB(t3996, d_X[0], 0, "X", 7, 23)
			}
			t3997 := i_i2
			if t3997 < 0 || t3997 >= d_X[1] {
				return m.OOB(t3997, d_X[1], 1, "X", 7, 23)
			}
			t3998 := b_X + int((t3996)*d_X[1]+t3997)
			r_X_r := m.LoadF(t3998)
			t3999 := i_i1
			if t3999 < 0 || t3999 >= d_X[0] {
				return m.OOB(t3999, d_X[0], 0, "X", 7, 35)
			}
			t4000 := i_i2 - int64(1)
			t4001 := t4000
			if t4001 < 0 || t4001 >= d_X[1] {
				return m.OOB(t4001, d_X[1], 1, "X", 7, 35)
			}
			t4002 := b_X + int((t3999)*d_X[1]+t4001)
			r_X_r2 := m.LoadF(t4002)
			t4003 := i_i1
			if t4003 < 0 || t4003 >= d_A[0] {
				return m.OOB(t4003, d_A[0], 0, "A", 7, 51)
			}
			t4004 := i_i2
			if t4004 < 0 || t4004 >= d_A[1] {
				return m.OOB(t4004, d_A[1], 1, "A", 7, 51)
			}
			t4005 := b_A + int((t4003)*d_A[1]+t4004)
			r_A_r := m.LoadF(t4005)
			t4006 := i_i1
			if t4006 < 0 || t4006 >= d_B[0] {
				return m.OOB(t4006, d_B[0], 0, "B", 7, 63)
			}
			t4007 := i_i2 - int64(1)
			t4008 := t4007
			if t4008 < 0 || t4008 >= d_B[1] {
				return m.OOB(t4008, d_B[1], 1, "B", 7, 63)
			}
			t4009 := b_B + int((t4006)*d_B[1]+t4008)
			r_B_r := m.LoadF(t4009)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4010 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4011 := float64(t4010 / r_B_r)
			t4012 := float64(r_X_r - t4011)
			r_X_w := t4012
			t4013 := i_i1
			if t4013 < 0 || t4013 >= d_X[0] {
				return m.OOB(t4013, d_X[0], 0, "X", 7, 11)
			}
			t4014 := i_i2
			if t4014 < 0 || t4014 >= d_X[1] {
				return m.OOB(t4014, d_X[1], 1, "X", 7, 11)
			}
			t4015 := b_X + int((t4013)*d_X[1]+t4014)
			m.StoreF(t4015, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t4016 := i_i1
			if t4016 < 0 || t4016 >= d_B[0] {
				return m.OOB(t4016, d_B[0], 0, "B", 8, 23)
			}
			t4017 := i_i2
			if t4017 < 0 || t4017 >= d_B[1] {
				return m.OOB(t4017, d_B[1], 1, "B", 8, 23)
			}
			t4018 := b_B + int((t4016)*d_B[1]+t4017)
			r_B_r2 := m.LoadF(t4018)
			t4019 := i_i1
			if t4019 < 0 || t4019 >= d_A[0] {
				return m.OOB(t4019, d_A[0], 0, "A", 8, 35)
			}
			t4020 := i_i2
			if t4020 < 0 || t4020 >= d_A[1] {
				return m.OOB(t4020, d_A[1], 1, "A", 8, 35)
			}
			t4021 := b_A + int((t4019)*d_A[1]+t4020)
			r_A_r2 := m.LoadF(t4021)
			t4022 := i_i1
			if t4022 < 0 || t4022 >= d_A[0] {
				return m.OOB(t4022, d_A[0], 0, "A", 8, 47)
			}
			t4023 := i_i2
			if t4023 < 0 || t4023 >= d_A[1] {
				return m.OOB(t4023, d_A[1], 1, "A", 8, 47)
			}
			t4024 := b_A + int((t4022)*d_A[1]+t4023)
			r_A_r3 := m.LoadF(t4024)
			t4025 := i_i1
			if t4025 < 0 || t4025 >= d_B[0] {
				return m.OOB(t4025, d_B[0], 0, "B", 8, 59)
			}
			t4026 := i_i2 - int64(1)
			t4027 := t4026
			if t4027 < 0 || t4027 >= d_B[1] {
				return m.OOB(t4027, d_B[1], 1, "B", 8, 59)
			}
			t4028 := b_B + int((t4025)*d_B[1]+t4027)
			r_B_r3 := m.LoadF(t4028)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4029 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4030 := float64(t4029 / r_B_r3)
			t4031 := float64(r_B_r2 - t4030)
			r_B_w := t4031
			t4032 := i_i1
			if t4032 < 0 || t4032 >= d_B[0] {
				return m.OOB(t4032, d_B[0], 0, "B", 8, 11)
			}
			t4033 := i_i2
			if t4033 < 0 || t4033 >= d_B[1] {
				return m.OOB(t4033, d_B[1], 1, "B", 8, 11)
			}
			t4034 := b_B + int((t4032)*d_B[1]+t4033)
			m.StoreF(t4034, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n58(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4035 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t4035; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4036 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t4036; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4037 := i_i1
			if t4037 < 0 || t4037 >= d_X[0] {
				return m.OOB(t4037, d_X[0], 0, "X", 7, 23)
			}
			t4038 := i_i2
			if t4038 < 0 || t4038 >= d_X[1] {
				return m.OOB(t4038, d_X[1], 1, "X", 7, 23)
			}
			t4039 := b_X + int((t4037)*d_X[1]+t4038)
			r_X_r := m.LoadF(t4039)
			t4040 := i_i1
			if t4040 < 0 || t4040 >= d_X[0] {
				return m.OOB(t4040, d_X[0], 0, "X", 7, 35)
			}
			t4041 := i_i2 - int64(1)
			t4042 := t4041
			if t4042 < 0 || t4042 >= d_X[1] {
				return m.OOB(t4042, d_X[1], 1, "X", 7, 35)
			}
			t4043 := b_X + int((t4040)*d_X[1]+t4042)
			r_X_r2 := m.LoadF(t4043)
			t4044 := i_i1
			if t4044 < 0 || t4044 >= d_A[0] {
				return m.OOB(t4044, d_A[0], 0, "A", 7, 51)
			}
			t4045 := i_i2
			if t4045 < 0 || t4045 >= d_A[1] {
				return m.OOB(t4045, d_A[1], 1, "A", 7, 51)
			}
			t4046 := b_A + int((t4044)*d_A[1]+t4045)
			r_A_r := m.LoadF(t4046)
			t4047 := i_i1
			if t4047 < 0 || t4047 >= d_B[0] {
				return m.OOB(t4047, d_B[0], 0, "B", 7, 63)
			}
			t4048 := i_i2 - int64(1)
			t4049 := t4048
			if t4049 < 0 || t4049 >= d_B[1] {
				return m.OOB(t4049, d_B[1], 1, "B", 7, 63)
			}
			t4050 := b_B + int((t4047)*d_B[1]+t4049)
			r_B_r := m.LoadF(t4050)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4051 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4052 := float64(t4051 / r_B_r)
			t4053 := float64(r_X_r - t4052)
			r_X_w := t4053
			t4054 := i_i1
			if t4054 < 0 || t4054 >= d_X[0] {
				return m.OOB(t4054, d_X[0], 0, "X", 7, 11)
			}
			t4055 := i_i2
			if t4055 < 0 || t4055 >= d_X[1] {
				return m.OOB(t4055, d_X[1], 1, "X", 7, 11)
			}
			t4056 := b_X + int((t4054)*d_X[1]+t4055)
			m.StoreF(t4056, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t4057 := i_i1
			if t4057 < 0 || t4057 >= d_B[0] {
				return m.OOB(t4057, d_B[0], 0, "B", 8, 23)
			}
			t4058 := i_i2
			if t4058 < 0 || t4058 >= d_B[1] {
				return m.OOB(t4058, d_B[1], 1, "B", 8, 23)
			}
			t4059 := b_B + int((t4057)*d_B[1]+t4058)
			r_B_r2 := m.LoadF(t4059)
			t4060 := i_i1
			if t4060 < 0 || t4060 >= d_A[0] {
				return m.OOB(t4060, d_A[0], 0, "A", 8, 35)
			}
			t4061 := i_i2
			if t4061 < 0 || t4061 >= d_A[1] {
				return m.OOB(t4061, d_A[1], 1, "A", 8, 35)
			}
			t4062 := b_A + int((t4060)*d_A[1]+t4061)
			r_A_r2 := m.LoadF(t4062)
			t4063 := i_i1
			if t4063 < 0 || t4063 >= d_A[0] {
				return m.OOB(t4063, d_A[0], 0, "A", 8, 47)
			}
			t4064 := i_i2
			if t4064 < 0 || t4064 >= d_A[1] {
				return m.OOB(t4064, d_A[1], 1, "A", 8, 47)
			}
			t4065 := b_A + int((t4063)*d_A[1]+t4064)
			r_A_r3 := m.LoadF(t4065)
			t4066 := i_i1
			if t4066 < 0 || t4066 >= d_B[0] {
				return m.OOB(t4066, d_B[0], 0, "B", 8, 59)
			}
			t4067 := i_i2 - int64(1)
			t4068 := t4067
			if t4068 < 0 || t4068 >= d_B[1] {
				return m.OOB(t4068, d_B[1], 1, "B", 8, 59)
			}
			t4069 := b_B + int((t4066)*d_B[1]+t4068)
			r_B_r3 := m.LoadF(t4069)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4070 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4071 := float64(t4070 / r_B_r3)
			t4072 := float64(r_B_r2 - t4071)
			r_B_w := t4072
			t4073 := i_i1
			if t4073 < 0 || t4073 >= d_B[0] {
				return m.OOB(t4073, d_B[0], 0, "B", 8, 11)
			}
			t4074 := i_i2
			if t4074 < 0 || t4074 >= d_B[1] {
				return m.OOB(t4074, d_B[1], 1, "B", 8, 11)
			}
			t4075 := b_B + int((t4073)*d_B[1]+t4074)
			m.StoreF(t4075, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t4076 := p_n - int64(2)
		t4077 := codegen.MaxI(int64(1), t4076)
		t4078 := p_n - int64(2)
		for i_i2 := t4077; i_i2 <= t4078; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4079 := i_i1
			if t4079 < 0 || t4079 >= d_X[0] {
				return m.OOB(t4079, d_X[0], 0, "X", 7, 23)
			}
			t4080 := i_i2
			if t4080 < 0 || t4080 >= d_X[1] {
				return m.OOB(t4080, d_X[1], 1, "X", 7, 23)
			}
			t4081 := b_X + int((t4079)*d_X[1]+t4080)
			r_X_r := m.LoadF(t4081)
			t4082 := i_i1
			if t4082 < 0 || t4082 >= d_X[0] {
				return m.OOB(t4082, d_X[0], 0, "X", 7, 35)
			}
			t4083 := i_i2 - int64(1)
			t4084 := t4083
			if t4084 < 0 || t4084 >= d_X[1] {
				return m.OOB(t4084, d_X[1], 1, "X", 7, 35)
			}
			t4085 := b_X + int((t4082)*d_X[1]+t4084)
			r_X_r2 := m.LoadF(t4085)
			t4086 := i_i1
			if t4086 < 0 || t4086 >= d_A[0] {
				return m.OOB(t4086, d_A[0], 0, "A", 7, 51)
			}
			t4087 := i_i2
			if t4087 < 0 || t4087 >= d_A[1] {
				return m.OOB(t4087, d_A[1], 1, "A", 7, 51)
			}
			t4088 := b_A + int((t4086)*d_A[1]+t4087)
			r_A_r := m.LoadF(t4088)
			t4089 := i_i1
			if t4089 < 0 || t4089 >= d_B[0] {
				return m.OOB(t4089, d_B[0], 0, "B", 7, 63)
			}
			t4090 := i_i2 - int64(1)
			t4091 := t4090
			if t4091 < 0 || t4091 >= d_B[1] {
				return m.OOB(t4091, d_B[1], 1, "B", 7, 63)
			}
			t4092 := b_B + int((t4089)*d_B[1]+t4091)
			r_B_r := m.LoadF(t4092)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4093 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4094 := float64(t4093 / r_B_r)
			t4095 := float64(r_X_r - t4094)
			r_X_w := t4095
			t4096 := i_i1
			if t4096 < 0 || t4096 >= d_X[0] {
				return m.OOB(t4096, d_X[0], 0, "X", 7, 11)
			}
			t4097 := i_i2
			if t4097 < 0 || t4097 >= d_X[1] {
				return m.OOB(t4097, d_X[1], 1, "X", 7, 11)
			}
			t4098 := b_X + int((t4096)*d_X[1]+t4097)
			m.StoreF(t4098, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t4099 := i_i1
			if t4099 < 0 || t4099 >= d_B[0] {
				return m.OOB(t4099, d_B[0], 0, "B", 8, 23)
			}
			t4100 := i_i2
			if t4100 < 0 || t4100 >= d_B[1] {
				return m.OOB(t4100, d_B[1], 1, "B", 8, 23)
			}
			t4101 := b_B + int((t4099)*d_B[1]+t4100)
			r_B_r2 := m.LoadF(t4101)
			t4102 := i_i1
			if t4102 < 0 || t4102 >= d_A[0] {
				return m.OOB(t4102, d_A[0], 0, "A", 8, 35)
			}
			t4103 := i_i2
			if t4103 < 0 || t4103 >= d_A[1] {
				return m.OOB(t4103, d_A[1], 1, "A", 8, 35)
			}
			t4104 := b_A + int((t4102)*d_A[1]+t4103)
			r_A_r2 := m.LoadF(t4104)
			t4105 := i_i1
			if t4105 < 0 || t4105 >= d_A[0] {
				return m.OOB(t4105, d_A[0], 0, "A", 8, 47)
			}
			t4106 := i_i2
			if t4106 < 0 || t4106 >= d_A[1] {
				return m.OOB(t4106, d_A[1], 1, "A", 8, 47)
			}
			t4107 := b_A + int((t4105)*d_A[1]+t4106)
			r_A_r3 := m.LoadF(t4107)
			t4108 := i_i1
			if t4108 < 0 || t4108 >= d_B[0] {
				return m.OOB(t4108, d_B[0], 0, "B", 8, 59)
			}
			t4109 := i_i2 - int64(1)
			t4110 := t4109
			if t4110 < 0 || t4110 >= d_B[1] {
				return m.OOB(t4110, d_B[1], 1, "B", 8, 59)
			}
			t4111 := b_B + int((t4108)*d_B[1]+t4110)
			r_B_r3 := m.LoadF(t4111)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4112 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4113 := float64(t4112 / r_B_r3)
			t4114 := float64(r_B_r2 - t4113)
			r_B_w := t4114
			t4115 := i_i1
			if t4115 < 0 || t4115 >= d_B[0] {
				return m.OOB(t4115, d_B[0], 0, "B", 8, 11)
			}
			t4116 := i_i2
			if t4116 < 0 || t4116 >= d_B[1] {
				return m.OOB(t4116, d_B[1], 1, "B", 8, 11)
			}
			t4117 := b_B + int((t4115)*d_B[1]+t4116)
			m.StoreF(t4117, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t4118 := p_n - int64(1)
		t4119 := codegen.MaxI(int64(1), t4118)
		t4120 := p_n - int64(1)
		for i_i2 := t4119; i_i2 <= t4120; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4121 := i_i1
			if t4121 < 0 || t4121 >= d_X[0] {
				return m.OOB(t4121, d_X[0], 0, "X", 7, 23)
			}
			t4122 := i_i2
			if t4122 < 0 || t4122 >= d_X[1] {
				return m.OOB(t4122, d_X[1], 1, "X", 7, 23)
			}
			t4123 := b_X + int((t4121)*d_X[1]+t4122)
			r_X_r := m.LoadF(t4123)
			t4124 := i_i1
			if t4124 < 0 || t4124 >= d_X[0] {
				return m.OOB(t4124, d_X[0], 0, "X", 7, 35)
			}
			t4125 := i_i2 - int64(1)
			t4126 := t4125
			if t4126 < 0 || t4126 >= d_X[1] {
				return m.OOB(t4126, d_X[1], 1, "X", 7, 35)
			}
			t4127 := b_X + int((t4124)*d_X[1]+t4126)
			r_X_r2 := m.LoadF(t4127)
			t4128 := i_i1
			if t4128 < 0 || t4128 >= d_A[0] {
				return m.OOB(t4128, d_A[0], 0, "A", 7, 51)
			}
			t4129 := i_i2
			if t4129 < 0 || t4129 >= d_A[1] {
				return m.OOB(t4129, d_A[1], 1, "A", 7, 51)
			}
			t4130 := b_A + int((t4128)*d_A[1]+t4129)
			r_A_r := m.LoadF(t4130)
			t4131 := i_i1
			if t4131 < 0 || t4131 >= d_B[0] {
				return m.OOB(t4131, d_B[0], 0, "B", 7, 63)
			}
			t4132 := i_i2 - int64(1)
			t4133 := t4132
			if t4133 < 0 || t4133 >= d_B[1] {
				return m.OOB(t4133, d_B[1], 1, "B", 7, 63)
			}
			t4134 := b_B + int((t4131)*d_B[1]+t4133)
			r_B_r := m.LoadF(t4134)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4135 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4136 := float64(t4135 / r_B_r)
			t4137 := float64(r_X_r - t4136)
			r_X_w := t4137
			t4138 := i_i1
			if t4138 < 0 || t4138 >= d_X[0] {
				return m.OOB(t4138, d_X[0], 0, "X", 7, 11)
			}
			t4139 := i_i2
			if t4139 < 0 || t4139 >= d_X[1] {
				return m.OOB(t4139, d_X[1], 1, "X", 7, 11)
			}
			t4140 := b_X + int((t4138)*d_X[1]+t4139)
			m.StoreF(t4140, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t4141 := i_i1
			if t4141 < 0 || t4141 >= d_B[0] {
				return m.OOB(t4141, d_B[0], 0, "B", 8, 23)
			}
			t4142 := i_i2
			if t4142 < 0 || t4142 >= d_B[1] {
				return m.OOB(t4142, d_B[1], 1, "B", 8, 23)
			}
			t4143 := b_B + int((t4141)*d_B[1]+t4142)
			r_B_r2 := m.LoadF(t4143)
			t4144 := i_i1
			if t4144 < 0 || t4144 >= d_A[0] {
				return m.OOB(t4144, d_A[0], 0, "A", 8, 35)
			}
			t4145 := i_i2
			if t4145 < 0 || t4145 >= d_A[1] {
				return m.OOB(t4145, d_A[1], 1, "A", 8, 35)
			}
			t4146 := b_A + int((t4144)*d_A[1]+t4145)
			r_A_r2 := m.LoadF(t4146)
			t4147 := i_i1
			if t4147 < 0 || t4147 >= d_A[0] {
				return m.OOB(t4147, d_A[0], 0, "A", 8, 47)
			}
			t4148 := i_i2
			if t4148 < 0 || t4148 >= d_A[1] {
				return m.OOB(t4148, d_A[1], 1, "A", 8, 47)
			}
			t4149 := b_A + int((t4147)*d_A[1]+t4148)
			r_A_r3 := m.LoadF(t4149)
			t4150 := i_i1
			if t4150 < 0 || t4150 >= d_B[0] {
				return m.OOB(t4150, d_B[0], 0, "B", 8, 59)
			}
			t4151 := i_i2 - int64(1)
			t4152 := t4151
			if t4152 < 0 || t4152 >= d_B[1] {
				return m.OOB(t4152, d_B[1], 1, "B", 8, 59)
			}
			t4153 := b_B + int((t4150)*d_B[1]+t4152)
			r_B_r3 := m.LoadF(t4153)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4154 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4155 := float64(t4154 / r_B_r3)
			t4156 := float64(r_B_r2 - t4155)
			r_B_w := t4156
			t4157 := i_i1
			if t4157 < 0 || t4157 >= d_B[0] {
				return m.OOB(t4157, d_B[0], 0, "B", 8, 11)
			}
			t4158 := i_i2
			if t4158 < 0 || t4158 >= d_B[1] {
				return m.OOB(t4158, d_B[1], 1, "B", 8, 11)
			}
			t4159 := b_B + int((t4157)*d_B[1]+t4158)
			m.StoreF(t4159, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n59(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4160 := p_n - int64(1)
	t4161 := codegen.MaxI(int64(1), t4160)
	t4162 := p_n - int64(1)
	for i_i1 := t4161; i_i1 <= t4162; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4163 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t4163; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4164 := i_i1
			if t4164 < 0 || t4164 >= d_X[0] {
				return m.OOB(t4164, d_X[0], 0, "X", 7, 23)
			}
			t4165 := i_i2
			if t4165 < 0 || t4165 >= d_X[1] {
				return m.OOB(t4165, d_X[1], 1, "X", 7, 23)
			}
			t4166 := b_X + int((t4164)*d_X[1]+t4165)
			r_X_r := m.LoadF(t4166)
			t4167 := i_i1
			if t4167 < 0 || t4167 >= d_X[0] {
				return m.OOB(t4167, d_X[0], 0, "X", 7, 35)
			}
			t4168 := i_i2 - int64(1)
			t4169 := t4168
			if t4169 < 0 || t4169 >= d_X[1] {
				return m.OOB(t4169, d_X[1], 1, "X", 7, 35)
			}
			t4170 := b_X + int((t4167)*d_X[1]+t4169)
			r_X_r2 := m.LoadF(t4170)
			t4171 := i_i1
			if t4171 < 0 || t4171 >= d_A[0] {
				return m.OOB(t4171, d_A[0], 0, "A", 7, 51)
			}
			t4172 := i_i2
			if t4172 < 0 || t4172 >= d_A[1] {
				return m.OOB(t4172, d_A[1], 1, "A", 7, 51)
			}
			t4173 := b_A + int((t4171)*d_A[1]+t4172)
			r_A_r := m.LoadF(t4173)
			t4174 := i_i1
			if t4174 < 0 || t4174 >= d_B[0] {
				return m.OOB(t4174, d_B[0], 0, "B", 7, 63)
			}
			t4175 := i_i2 - int64(1)
			t4176 := t4175
			if t4176 < 0 || t4176 >= d_B[1] {
				return m.OOB(t4176, d_B[1], 1, "B", 7, 63)
			}
			t4177 := b_B + int((t4174)*d_B[1]+t4176)
			r_B_r := m.LoadF(t4177)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4178 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4179 := float64(t4178 / r_B_r)
			t4180 := float64(r_X_r - t4179)
			r_X_w := t4180
			t4181 := i_i1
			if t4181 < 0 || t4181 >= d_X[0] {
				return m.OOB(t4181, d_X[0], 0, "X", 7, 11)
			}
			t4182 := i_i2
			if t4182 < 0 || t4182 >= d_X[1] {
				return m.OOB(t4182, d_X[1], 1, "X", 7, 11)
			}
			t4183 := b_X + int((t4181)*d_X[1]+t4182)
			m.StoreF(t4183, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t4184 := i_i1
			if t4184 < 0 || t4184 >= d_B[0] {
				return m.OOB(t4184, d_B[0], 0, "B", 8, 23)
			}
			t4185 := i_i2
			if t4185 < 0 || t4185 >= d_B[1] {
				return m.OOB(t4185, d_B[1], 1, "B", 8, 23)
			}
			t4186 := b_B + int((t4184)*d_B[1]+t4185)
			r_B_r2 := m.LoadF(t4186)
			t4187 := i_i1
			if t4187 < 0 || t4187 >= d_A[0] {
				return m.OOB(t4187, d_A[0], 0, "A", 8, 35)
			}
			t4188 := i_i2
			if t4188 < 0 || t4188 >= d_A[1] {
				return m.OOB(t4188, d_A[1], 1, "A", 8, 35)
			}
			t4189 := b_A + int((t4187)*d_A[1]+t4188)
			r_A_r2 := m.LoadF(t4189)
			t4190 := i_i1
			if t4190 < 0 || t4190 >= d_A[0] {
				return m.OOB(t4190, d_A[0], 0, "A", 8, 47)
			}
			t4191 := i_i2
			if t4191 < 0 || t4191 >= d_A[1] {
				return m.OOB(t4191, d_A[1], 1, "A", 8, 47)
			}
			t4192 := b_A + int((t4190)*d_A[1]+t4191)
			r_A_r3 := m.LoadF(t4192)
			t4193 := i_i1
			if t4193 < 0 || t4193 >= d_B[0] {
				return m.OOB(t4193, d_B[0], 0, "B", 8, 59)
			}
			t4194 := i_i2 - int64(1)
			t4195 := t4194
			if t4195 < 0 || t4195 >= d_B[1] {
				return m.OOB(t4195, d_B[1], 1, "B", 8, 59)
			}
			t4196 := b_B + int((t4193)*d_B[1]+t4195)
			r_B_r3 := m.LoadF(t4196)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4197 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4198 := float64(t4197 / r_B_r3)
			t4199 := float64(r_B_r2 - t4198)
			r_B_w := t4199
			t4200 := i_i1
			if t4200 < 0 || t4200 >= d_B[0] {
				return m.OOB(t4200, d_B[0], 0, "B", 8, 11)
			}
			t4201 := i_i2
			if t4201 < 0 || t4201 >= d_B[1] {
				return m.OOB(t4201, d_B[1], 1, "B", 8, 11)
			}
			t4202 := b_B + int((t4200)*d_B[1]+t4201)
			m.StoreF(t4202, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t4203 := p_n - int64(2)
		t4204 := codegen.MaxI(int64(1), t4203)
		t4205 := p_n - int64(2)
		for i_i2 := t4204; i_i2 <= t4205; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4206 := i_i1
			if t4206 < 0 || t4206 >= d_X[0] {
				return m.OOB(t4206, d_X[0], 0, "X", 7, 23)
			}
			t4207 := i_i2
			if t4207 < 0 || t4207 >= d_X[1] {
				return m.OOB(t4207, d_X[1], 1, "X", 7, 23)
			}
			t4208 := b_X + int((t4206)*d_X[1]+t4207)
			r_X_r := m.LoadF(t4208)
			t4209 := i_i1
			if t4209 < 0 || t4209 >= d_X[0] {
				return m.OOB(t4209, d_X[0], 0, "X", 7, 35)
			}
			t4210 := i_i2 - int64(1)
			t4211 := t4210
			if t4211 < 0 || t4211 >= d_X[1] {
				return m.OOB(t4211, d_X[1], 1, "X", 7, 35)
			}
			t4212 := b_X + int((t4209)*d_X[1]+t4211)
			r_X_r2 := m.LoadF(t4212)
			t4213 := i_i1
			if t4213 < 0 || t4213 >= d_A[0] {
				return m.OOB(t4213, d_A[0], 0, "A", 7, 51)
			}
			t4214 := i_i2
			if t4214 < 0 || t4214 >= d_A[1] {
				return m.OOB(t4214, d_A[1], 1, "A", 7, 51)
			}
			t4215 := b_A + int((t4213)*d_A[1]+t4214)
			r_A_r := m.LoadF(t4215)
			t4216 := i_i1
			if t4216 < 0 || t4216 >= d_B[0] {
				return m.OOB(t4216, d_B[0], 0, "B", 7, 63)
			}
			t4217 := i_i2 - int64(1)
			t4218 := t4217
			if t4218 < 0 || t4218 >= d_B[1] {
				return m.OOB(t4218, d_B[1], 1, "B", 7, 63)
			}
			t4219 := b_B + int((t4216)*d_B[1]+t4218)
			r_B_r := m.LoadF(t4219)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4220 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4221 := float64(t4220 / r_B_r)
			t4222 := float64(r_X_r - t4221)
			r_X_w := t4222
			t4223 := i_i1
			if t4223 < 0 || t4223 >= d_X[0] {
				return m.OOB(t4223, d_X[0], 0, "X", 7, 11)
			}
			t4224 := i_i2
			if t4224 < 0 || t4224 >= d_X[1] {
				return m.OOB(t4224, d_X[1], 1, "X", 7, 11)
			}
			t4225 := b_X + int((t4223)*d_X[1]+t4224)
			m.StoreF(t4225, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t4226 := i_i1
			if t4226 < 0 || t4226 >= d_B[0] {
				return m.OOB(t4226, d_B[0], 0, "B", 8, 23)
			}
			t4227 := i_i2
			if t4227 < 0 || t4227 >= d_B[1] {
				return m.OOB(t4227, d_B[1], 1, "B", 8, 23)
			}
			t4228 := b_B + int((t4226)*d_B[1]+t4227)
			r_B_r2 := m.LoadF(t4228)
			t4229 := i_i1
			if t4229 < 0 || t4229 >= d_A[0] {
				return m.OOB(t4229, d_A[0], 0, "A", 8, 35)
			}
			t4230 := i_i2
			if t4230 < 0 || t4230 >= d_A[1] {
				return m.OOB(t4230, d_A[1], 1, "A", 8, 35)
			}
			t4231 := b_A + int((t4229)*d_A[1]+t4230)
			r_A_r2 := m.LoadF(t4231)
			t4232 := i_i1
			if t4232 < 0 || t4232 >= d_A[0] {
				return m.OOB(t4232, d_A[0], 0, "A", 8, 47)
			}
			t4233 := i_i2
			if t4233 < 0 || t4233 >= d_A[1] {
				return m.OOB(t4233, d_A[1], 1, "A", 8, 47)
			}
			t4234 := b_A + int((t4232)*d_A[1]+t4233)
			r_A_r3 := m.LoadF(t4234)
			t4235 := i_i1
			if t4235 < 0 || t4235 >= d_B[0] {
				return m.OOB(t4235, d_B[0], 0, "B", 8, 59)
			}
			t4236 := i_i2 - int64(1)
			t4237 := t4236
			if t4237 < 0 || t4237 >= d_B[1] {
				return m.OOB(t4237, d_B[1], 1, "B", 8, 59)
			}
			t4238 := b_B + int((t4235)*d_B[1]+t4237)
			r_B_r3 := m.LoadF(t4238)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4239 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4240 := float64(t4239 / r_B_r3)
			t4241 := float64(r_B_r2 - t4240)
			r_B_w := t4241
			t4242 := i_i1
			if t4242 < 0 || t4242 >= d_B[0] {
				return m.OOB(t4242, d_B[0], 0, "B", 8, 11)
			}
			t4243 := i_i2
			if t4243 < 0 || t4243 >= d_B[1] {
				return m.OOB(t4243, d_B[1], 1, "B", 8, 11)
			}
			t4244 := b_B + int((t4242)*d_B[1]+t4243)
			m.StoreF(t4244, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t4245 := p_n - int64(1)
		t4246 := codegen.MaxI(int64(1), t4245)
		t4247 := p_n - int64(1)
		for i_i2 := t4246; i_i2 <= t4247; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4248 := i_i1
			if t4248 < 0 || t4248 >= d_X[0] {
				return m.OOB(t4248, d_X[0], 0, "X", 7, 23)
			}
			t4249 := i_i2
			if t4249 < 0 || t4249 >= d_X[1] {
				return m.OOB(t4249, d_X[1], 1, "X", 7, 23)
			}
			t4250 := b_X + int((t4248)*d_X[1]+t4249)
			r_X_r := m.LoadF(t4250)
			t4251 := i_i1
			if t4251 < 0 || t4251 >= d_X[0] {
				return m.OOB(t4251, d_X[0], 0, "X", 7, 35)
			}
			t4252 := i_i2 - int64(1)
			t4253 := t4252
			if t4253 < 0 || t4253 >= d_X[1] {
				return m.OOB(t4253, d_X[1], 1, "X", 7, 35)
			}
			t4254 := b_X + int((t4251)*d_X[1]+t4253)
			r_X_r2 := m.LoadF(t4254)
			t4255 := i_i1
			if t4255 < 0 || t4255 >= d_A[0] {
				return m.OOB(t4255, d_A[0], 0, "A", 7, 51)
			}
			t4256 := i_i2
			if t4256 < 0 || t4256 >= d_A[1] {
				return m.OOB(t4256, d_A[1], 1, "A", 7, 51)
			}
			t4257 := b_A + int((t4255)*d_A[1]+t4256)
			r_A_r := m.LoadF(t4257)
			t4258 := i_i1
			if t4258 < 0 || t4258 >= d_B[0] {
				return m.OOB(t4258, d_B[0], 0, "B", 7, 63)
			}
			t4259 := i_i2 - int64(1)
			t4260 := t4259
			if t4260 < 0 || t4260 >= d_B[1] {
				return m.OOB(t4260, d_B[1], 1, "B", 7, 63)
			}
			t4261 := b_B + int((t4258)*d_B[1]+t4260)
			r_B_r := m.LoadF(t4261)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t4262 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t4263 := float64(t4262 / r_B_r)
			t4264 := float64(r_X_r - t4263)
			r_X_w := t4264
			t4265 := i_i1
			if t4265 < 0 || t4265 >= d_X[0] {
				return m.OOB(t4265, d_X[0], 0, "X", 7, 11)
			}
			t4266 := i_i2
			if t4266 < 0 || t4266 >= d_X[1] {
				return m.OOB(t4266, d_X[1], 1, "X", 7, 11)
			}
			t4267 := b_X + int((t4265)*d_X[1]+t4266)
			m.StoreF(t4267, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t4268 := i_i1
			if t4268 < 0 || t4268 >= d_B[0] {
				return m.OOB(t4268, d_B[0], 0, "B", 8, 23)
			}
			t4269 := i_i2
			if t4269 < 0 || t4269 >= d_B[1] {
				return m.OOB(t4269, d_B[1], 1, "B", 8, 23)
			}
			t4270 := b_B + int((t4268)*d_B[1]+t4269)
			r_B_r2 := m.LoadF(t4270)
			t4271 := i_i1
			if t4271 < 0 || t4271 >= d_A[0] {
				return m.OOB(t4271, d_A[0], 0, "A", 8, 35)
			}
			t4272 := i_i2
			if t4272 < 0 || t4272 >= d_A[1] {
				return m.OOB(t4272, d_A[1], 1, "A", 8, 35)
			}
			t4273 := b_A + int((t4271)*d_A[1]+t4272)
			r_A_r2 := m.LoadF(t4273)
			t4274 := i_i1
			if t4274 < 0 || t4274 >= d_A[0] {
				return m.OOB(t4274, d_A[0], 0, "A", 8, 47)
			}
			t4275 := i_i2
			if t4275 < 0 || t4275 >= d_A[1] {
				return m.OOB(t4275, d_A[1], 1, "A", 8, 47)
			}
			t4276 := b_A + int((t4274)*d_A[1]+t4275)
			r_A_r3 := m.LoadF(t4276)
			t4277 := i_i1
			if t4277 < 0 || t4277 >= d_B[0] {
				return m.OOB(t4277, d_B[0], 0, "B", 8, 59)
			}
			t4278 := i_i2 - int64(1)
			t4279 := t4278
			if t4279 < 0 || t4279 >= d_B[1] {
				return m.OOB(t4279, d_B[1], 1, "B", 8, 59)
			}
			t4280 := b_B + int((t4277)*d_B[1]+t4279)
			r_B_r3 := m.LoadF(t4280)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t4281 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t4282 := float64(t4281 / r_B_r3)
			t4283 := float64(r_B_r2 - t4282)
			r_B_w := t4283
			t4284 := i_i1
			if t4284 < 0 || t4284 >= d_B[0] {
				return m.OOB(t4284, d_B[0], 0, "B", 8, 11)
			}
			t4285 := i_i2
			if t4285 < 0 || t4285 >= d_B[1] {
				return m.OOB(t4285, d_B[1], 1, "B", 8, 11)
			}
			t4286 := b_B + int((t4284)*d_B[1]+t4285)
			m.StoreF(t4286, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n60(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64) error {
	t4287 := p_n - int64(3)
	t4288 := codegen.MinI(t4287, int64(0))
	for i_i1 := int64(0); i_i1 <= t4288; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4289 := i_i1
		if t4289 < 0 || t4289 >= d_X[0] {
			return m.OOB(t4289, d_X[0], 0, "X", 12, 24)
		}
		t4290 := p_n - int64(1)
		t4291 := t4290
		if t4291 < 0 || t4291 >= d_X[1] {
			return m.OOB(t4291, d_X[1], 1, "X", 12, 24)
		}
		t4292 := b_X + int((t4289)*d_X[1]+t4291)
		r_X_r3 := m.LoadF(t4292)
		t4293 := i_i1
		if t4293 < 0 || t4293 >= d_B[0] {
			return m.OOB(t4293, d_B[0], 0, "B", 12, 39)
		}
		t4294 := p_n - int64(1)
		t4295 := t4294
		if t4295 < 0 || t4295 >= d_B[1] {
			return m.OOB(t4295, d_B[1], 1, "B", 12, 39)
		}
		t4296 := b_B + int((t4293)*d_B[1]+t4295)
		r_B_r4 := m.LoadF(t4296)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
		if r_B_r4 == 0 {
			return m.DivZero(12, 37)
		}
		t4297 := float64(r_X_r3 / r_B_r4)
		r_X_w2 := t4297
		t4298 := i_i1
		if t4298 < 0 || t4298 >= d_X[0] {
			return m.OOB(t4298, d_X[0], 0, "X", 12, 9)
		}
		t4299 := p_n - int64(1)
		t4300 := t4299
		if t4300 < 0 || t4300 >= d_X[1] {
			return m.OOB(t4300, d_X[1], 1, "X", 12, 9)
		}
		t4301 := b_X + int((t4298)*d_X[1]+t4300)
		m.StoreF(t4301, r_X_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n61(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4366 := p_n - int64(1)
	t4367 := codegen.MinI(t4366, int64(0))
	for i_i1 := int64(0); i_i1 <= t4367; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4368 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t4368; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t4369 := i_i1
			if t4369 < 0 || t4369 >= d_X[0] {
				return m.OOB(t4369, d_X[0], 0, "X", 16, 32)
			}
			t4370 := p_n - int64(2)
			t4371 := t4370 - i_i2
			t4372 := t4371
			if t4372 < 0 || t4372 >= d_X[1] {
				return m.OOB(t4372, d_X[1], 1, "X", 16, 32)
			}
			t4373 := b_X + int((t4369)*d_X[1]+t4372)
			r_X_r4 := m.LoadF(t4373)
			t4374 := i_i1
			if t4374 < 0 || t4374 >= d_X[0] {
				return m.OOB(t4374, d_X[0], 0, "X", 16, 52)
			}
			t4375 := p_n - int64(2)
			t4376 := t4375 - i_i2
			t4377 := t4376 - int64(1)
			t4378 := t4377
			if t4378 < 0 || t4378 >= d_X[1] {
				return m.OOB(t4378, d_X[1], 1, "X", 16, 52)
			}
			t4379 := b_X + int((t4374)*d_X[1]+t4378)
			r_X_r5 := m.LoadF(t4379)
			t4380 := i_i1
			if t4380 < 0 || t4380 >= d_A[0] {
				return m.OOB(t4380, d_A[0], 0, "A", 16, 76)
			}
			t4381 := p_n - i_i2
			t4382 := t4381 - int64(3)
			t4383 := t4382
			if t4383 < 0 || t4383 >= d_A[1] {
				return m.OOB(t4383, d_A[1], 1, "A", 16, 76)
			}
			t4384 := b_A + int((t4380)*d_A[1]+t4383)
			r_A_r4 := m.LoadF(t4384)
			t4385 := i_i1
			if t4385 < 0 || t4385 >= d_B[0] {
				return m.OOB(t4385, d_B[0], 0, "B", 16, 97)
			}
			t4386 := p_n - int64(3)
			t4387 := t4386 - i_i2
			t4388 := t4387
			if t4388 < 0 || t4388 >= d_B[1] {
				return m.OOB(t4388, d_B[1], 1, "B", 16, 97)
			}
			t4389 := b_B + int((t4385)*d_B[1]+t4388)
			r_B_r5 := m.LoadF(t4389)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t4390 := float64(r_X_r5 * r_A_r4)
			t4391 := float64(r_X_r4 - t4390)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t4392 := float64(t4391 / r_B_r5)
			r_X_w3 := t4392
			t4393 := i_i1
			if t4393 < 0 || t4393 >= d_X[0] {
				return m.OOB(t4393, d_X[0], 0, "X", 16, 11)
			}
			t4394 := p_n - i_i2
			t4395 := t4394 - int64(2)
			t4396 := t4395
			if t4396 < 0 || t4396 >= d_X[1] {
				return m.OOB(t4396, d_X[1], 1, "X", 16, 11)
			}
			t4397 := b_X + int((t4393)*d_X[1]+t4396)
			m.StoreF(t4397, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n62(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4398 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t4398; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4399 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t4399; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t4400 := i_i1
			if t4400 < 0 || t4400 >= d_X[0] {
				return m.OOB(t4400, d_X[0], 0, "X", 16, 32)
			}
			t4401 := p_n - int64(2)
			t4402 := t4401 - i_i2
			t4403 := t4402
			if t4403 < 0 || t4403 >= d_X[1] {
				return m.OOB(t4403, d_X[1], 1, "X", 16, 32)
			}
			t4404 := b_X + int((t4400)*d_X[1]+t4403)
			r_X_r4 := m.LoadF(t4404)
			t4405 := i_i1
			if t4405 < 0 || t4405 >= d_X[0] {
				return m.OOB(t4405, d_X[0], 0, "X", 16, 52)
			}
			t4406 := p_n - int64(2)
			t4407 := t4406 - i_i2
			t4408 := t4407 - int64(1)
			t4409 := t4408
			if t4409 < 0 || t4409 >= d_X[1] {
				return m.OOB(t4409, d_X[1], 1, "X", 16, 52)
			}
			t4410 := b_X + int((t4405)*d_X[1]+t4409)
			r_X_r5 := m.LoadF(t4410)
			t4411 := i_i1
			if t4411 < 0 || t4411 >= d_A[0] {
				return m.OOB(t4411, d_A[0], 0, "A", 16, 76)
			}
			t4412 := p_n - i_i2
			t4413 := t4412 - int64(3)
			t4414 := t4413
			if t4414 < 0 || t4414 >= d_A[1] {
				return m.OOB(t4414, d_A[1], 1, "A", 16, 76)
			}
			t4415 := b_A + int((t4411)*d_A[1]+t4414)
			r_A_r4 := m.LoadF(t4415)
			t4416 := i_i1
			if t4416 < 0 || t4416 >= d_B[0] {
				return m.OOB(t4416, d_B[0], 0, "B", 16, 97)
			}
			t4417 := p_n - int64(3)
			t4418 := t4417 - i_i2
			t4419 := t4418
			if t4419 < 0 || t4419 >= d_B[1] {
				return m.OOB(t4419, d_B[1], 1, "B", 16, 97)
			}
			t4420 := b_B + int((t4416)*d_B[1]+t4419)
			r_B_r5 := m.LoadF(t4420)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t4421 := float64(r_X_r5 * r_A_r4)
			t4422 := float64(r_X_r4 - t4421)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t4423 := float64(t4422 / r_B_r5)
			r_X_w3 := t4423
			t4424 := i_i1
			if t4424 < 0 || t4424 >= d_X[0] {
				return m.OOB(t4424, d_X[0], 0, "X", 16, 11)
			}
			t4425 := p_n - i_i2
			t4426 := t4425 - int64(2)
			t4427 := t4426
			if t4427 < 0 || t4427 >= d_X[1] {
				return m.OOB(t4427, d_X[1], 1, "X", 16, 11)
			}
			t4428 := b_X + int((t4424)*d_X[1]+t4427)
			m.StoreF(t4428, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n63(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4429 := p_n - int64(1)
	t4430 := codegen.MaxI(int64(1), t4429)
	t4431 := p_n - int64(1)
	for i_i1 := t4430; i_i1 <= t4431; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4432 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t4432; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t4433 := i_i1
			if t4433 < 0 || t4433 >= d_X[0] {
				return m.OOB(t4433, d_X[0], 0, "X", 16, 32)
			}
			t4434 := p_n - int64(2)
			t4435 := t4434 - i_i2
			t4436 := t4435
			if t4436 < 0 || t4436 >= d_X[1] {
				return m.OOB(t4436, d_X[1], 1, "X", 16, 32)
			}
			t4437 := b_X + int((t4433)*d_X[1]+t4436)
			r_X_r4 := m.LoadF(t4437)
			t4438 := i_i1
			if t4438 < 0 || t4438 >= d_X[0] {
				return m.OOB(t4438, d_X[0], 0, "X", 16, 52)
			}
			t4439 := p_n - int64(2)
			t4440 := t4439 - i_i2
			t4441 := t4440 - int64(1)
			t4442 := t4441
			if t4442 < 0 || t4442 >= d_X[1] {
				return m.OOB(t4442, d_X[1], 1, "X", 16, 52)
			}
			t4443 := b_X + int((t4438)*d_X[1]+t4442)
			r_X_r5 := m.LoadF(t4443)
			t4444 := i_i1
			if t4444 < 0 || t4444 >= d_A[0] {
				return m.OOB(t4444, d_A[0], 0, "A", 16, 76)
			}
			t4445 := p_n - i_i2
			t4446 := t4445 - int64(3)
			t4447 := t4446
			if t4447 < 0 || t4447 >= d_A[1] {
				return m.OOB(t4447, d_A[1], 1, "A", 16, 76)
			}
			t4448 := b_A + int((t4444)*d_A[1]+t4447)
			r_A_r4 := m.LoadF(t4448)
			t4449 := i_i1
			if t4449 < 0 || t4449 >= d_B[0] {
				return m.OOB(t4449, d_B[0], 0, "B", 16, 97)
			}
			t4450 := p_n - int64(3)
			t4451 := t4450 - i_i2
			t4452 := t4451
			if t4452 < 0 || t4452 >= d_B[1] {
				return m.OOB(t4452, d_B[1], 1, "B", 16, 97)
			}
			t4453 := b_B + int((t4449)*d_B[1]+t4452)
			r_B_r5 := m.LoadF(t4453)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t4454 := float64(r_X_r5 * r_A_r4)
			t4455 := float64(r_X_r4 - t4454)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t4456 := float64(t4455 / r_B_r5)
			r_X_w3 := t4456
			t4457 := i_i1
			if t4457 < 0 || t4457 >= d_X[0] {
				return m.OOB(t4457, d_X[0], 0, "X", 16, 11)
			}
			t4458 := p_n - i_i2
			t4459 := t4458 - int64(2)
			t4460 := t4459
			if t4460 < 0 || t4460 >= d_X[1] {
				return m.OOB(t4460, d_X[1], 1, "X", 16, 11)
			}
			t4461 := b_X + int((t4457)*d_X[1]+t4460)
			m.StoreF(t4461, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n64(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4462 := p_n - int64(3)
	for i_i1 := int64(1); i_i1 <= t4462; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4463 := p_n - int64(1)
		t4464 := codegen.MinI(t4463, int64(0))
		for i_i2 := int64(0); i_i2 <= t4464; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4465 := i_i1
			if t4465 < 0 || t4465 >= d_X[0] {
				return m.OOB(t4465, d_X[0], 0, "X", 21, 23)
			}
			t4466 := i_i2
			if t4466 < 0 || t4466 >= d_X[1] {
				return m.OOB(t4466, d_X[1], 1, "X", 21, 23)
			}
			t4467 := b_X + int((t4465)*d_X[1]+t4466)
			r_X_r6 := m.LoadF(t4467)
			t4468 := i_i1 - int64(1)
			t4469 := t4468
			if t4469 < 0 || t4469 >= d_X[0] {
				return m.OOB(t4469, d_X[0], 0, "X", 21, 35)
			}
			t4470 := i_i2
			if t4470 < 0 || t4470 >= d_X[1] {
				return m.OOB(t4470, d_X[1], 1, "X", 21, 35)
			}
			t4471 := b_X + int((t4469)*d_X[1]+t4470)
			r_X_r7 := m.LoadF(t4471)
			t4472 := i_i1
			if t4472 < 0 || t4472 >= d_A[0] {
				return m.OOB(t4472, d_A[0], 0, "A", 21, 51)
			}
			t4473 := i_i2
			if t4473 < 0 || t4473 >= d_A[1] {
				return m.OOB(t4473, d_A[1], 1, "A", 21, 51)
			}
			t4474 := b_A + int((t4472)*d_A[1]+t4473)
			r_A_r5 := m.LoadF(t4474)
			t4475 := i_i1 - int64(1)
			t4476 := t4475
			if t4476 < 0 || t4476 >= d_B[0] {
				return m.OOB(t4476, d_B[0], 0, "B", 21, 63)
			}
			t4477 := i_i2
			if t4477 < 0 || t4477 >= d_B[1] {
				return m.OOB(t4477, d_B[1], 1, "B", 21, 63)
			}
			t4478 := b_B + int((t4476)*d_B[1]+t4477)
			r_B_r6 := m.LoadF(t4478)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4479 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4480 := float64(t4479 / r_B_r6)
			t4481 := float64(r_X_r6 - t4480)
			r_X_w4 := t4481
			t4482 := i_i1
			if t4482 < 0 || t4482 >= d_X[0] {
				return m.OOB(t4482, d_X[0], 0, "X", 21, 11)
			}
			t4483 := i_i2
			if t4483 < 0 || t4483 >= d_X[1] {
				return m.OOB(t4483, d_X[1], 1, "X", 21, 11)
			}
			t4484 := b_X + int((t4482)*d_X[1]+t4483)
			m.StoreF(t4484, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t4485 := i_i1
			if t4485 < 0 || t4485 >= d_B[0] {
				return m.OOB(t4485, d_B[0], 0, "B", 22, 23)
			}
			t4486 := i_i2
			if t4486 < 0 || t4486 >= d_B[1] {
				return m.OOB(t4486, d_B[1], 1, "B", 22, 23)
			}
			t4487 := b_B + int((t4485)*d_B[1]+t4486)
			r_B_r7 := m.LoadF(t4487)
			t4488 := i_i1
			if t4488 < 0 || t4488 >= d_A[0] {
				return m.OOB(t4488, d_A[0], 0, "A", 22, 35)
			}
			t4489 := i_i2
			if t4489 < 0 || t4489 >= d_A[1] {
				return m.OOB(t4489, d_A[1], 1, "A", 22, 35)
			}
			t4490 := b_A + int((t4488)*d_A[1]+t4489)
			r_A_r6 := m.LoadF(t4490)
			t4491 := i_i1
			if t4491 < 0 || t4491 >= d_A[0] {
				return m.OOB(t4491, d_A[0], 0, "A", 22, 47)
			}
			t4492 := i_i2
			if t4492 < 0 || t4492 >= d_A[1] {
				return m.OOB(t4492, d_A[1], 1, "A", 22, 47)
			}
			t4493 := b_A + int((t4491)*d_A[1]+t4492)
			r_A_r7 := m.LoadF(t4493)
			t4494 := i_i1 - int64(1)
			t4495 := t4494
			if t4495 < 0 || t4495 >= d_B[0] {
				return m.OOB(t4495, d_B[0], 0, "B", 22, 59)
			}
			t4496 := i_i2
			if t4496 < 0 || t4496 >= d_B[1] {
				return m.OOB(t4496, d_B[1], 1, "B", 22, 59)
			}
			t4497 := b_B + int((t4495)*d_B[1]+t4496)
			r_B_r8 := m.LoadF(t4497)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4498 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4499 := float64(t4498 / r_B_r8)
			t4500 := float64(r_B_r7 - t4499)
			r_B_w2 := t4500
			t4501 := i_i1
			if t4501 < 0 || t4501 >= d_B[0] {
				return m.OOB(t4501, d_B[0], 0, "B", 22, 11)
			}
			t4502 := i_i2
			if t4502 < 0 || t4502 >= d_B[1] {
				return m.OOB(t4502, d_B[1], 1, "B", 22, 11)
			}
			t4503 := b_B + int((t4501)*d_B[1]+t4502)
			m.StoreF(t4503, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t4504 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t4504; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4505 := i_i1
			if t4505 < 0 || t4505 >= d_X[0] {
				return m.OOB(t4505, d_X[0], 0, "X", 21, 23)
			}
			t4506 := i_i2
			if t4506 < 0 || t4506 >= d_X[1] {
				return m.OOB(t4506, d_X[1], 1, "X", 21, 23)
			}
			t4507 := b_X + int((t4505)*d_X[1]+t4506)
			r_X_r6 := m.LoadF(t4507)
			t4508 := i_i1 - int64(1)
			t4509 := t4508
			if t4509 < 0 || t4509 >= d_X[0] {
				return m.OOB(t4509, d_X[0], 0, "X", 21, 35)
			}
			t4510 := i_i2
			if t4510 < 0 || t4510 >= d_X[1] {
				return m.OOB(t4510, d_X[1], 1, "X", 21, 35)
			}
			t4511 := b_X + int((t4509)*d_X[1]+t4510)
			r_X_r7 := m.LoadF(t4511)
			t4512 := i_i1
			if t4512 < 0 || t4512 >= d_A[0] {
				return m.OOB(t4512, d_A[0], 0, "A", 21, 51)
			}
			t4513 := i_i2
			if t4513 < 0 || t4513 >= d_A[1] {
				return m.OOB(t4513, d_A[1], 1, "A", 21, 51)
			}
			t4514 := b_A + int((t4512)*d_A[1]+t4513)
			r_A_r5 := m.LoadF(t4514)
			t4515 := i_i1 - int64(1)
			t4516 := t4515
			if t4516 < 0 || t4516 >= d_B[0] {
				return m.OOB(t4516, d_B[0], 0, "B", 21, 63)
			}
			t4517 := i_i2
			if t4517 < 0 || t4517 >= d_B[1] {
				return m.OOB(t4517, d_B[1], 1, "B", 21, 63)
			}
			t4518 := b_B + int((t4516)*d_B[1]+t4517)
			r_B_r6 := m.LoadF(t4518)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4519 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4520 := float64(t4519 / r_B_r6)
			t4521 := float64(r_X_r6 - t4520)
			r_X_w4 := t4521
			t4522 := i_i1
			if t4522 < 0 || t4522 >= d_X[0] {
				return m.OOB(t4522, d_X[0], 0, "X", 21, 11)
			}
			t4523 := i_i2
			if t4523 < 0 || t4523 >= d_X[1] {
				return m.OOB(t4523, d_X[1], 1, "X", 21, 11)
			}
			t4524 := b_X + int((t4522)*d_X[1]+t4523)
			m.StoreF(t4524, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t4525 := i_i1
			if t4525 < 0 || t4525 >= d_B[0] {
				return m.OOB(t4525, d_B[0], 0, "B", 22, 23)
			}
			t4526 := i_i2
			if t4526 < 0 || t4526 >= d_B[1] {
				return m.OOB(t4526, d_B[1], 1, "B", 22, 23)
			}
			t4527 := b_B + int((t4525)*d_B[1]+t4526)
			r_B_r7 := m.LoadF(t4527)
			t4528 := i_i1
			if t4528 < 0 || t4528 >= d_A[0] {
				return m.OOB(t4528, d_A[0], 0, "A", 22, 35)
			}
			t4529 := i_i2
			if t4529 < 0 || t4529 >= d_A[1] {
				return m.OOB(t4529, d_A[1], 1, "A", 22, 35)
			}
			t4530 := b_A + int((t4528)*d_A[1]+t4529)
			r_A_r6 := m.LoadF(t4530)
			t4531 := i_i1
			if t4531 < 0 || t4531 >= d_A[0] {
				return m.OOB(t4531, d_A[0], 0, "A", 22, 47)
			}
			t4532 := i_i2
			if t4532 < 0 || t4532 >= d_A[1] {
				return m.OOB(t4532, d_A[1], 1, "A", 22, 47)
			}
			t4533 := b_A + int((t4531)*d_A[1]+t4532)
			r_A_r7 := m.LoadF(t4533)
			t4534 := i_i1 - int64(1)
			t4535 := t4534
			if t4535 < 0 || t4535 >= d_B[0] {
				return m.OOB(t4535, d_B[0], 0, "B", 22, 59)
			}
			t4536 := i_i2
			if t4536 < 0 || t4536 >= d_B[1] {
				return m.OOB(t4536, d_B[1], 1, "B", 22, 59)
			}
			t4537 := b_B + int((t4535)*d_B[1]+t4536)
			r_B_r8 := m.LoadF(t4537)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4538 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4539 := float64(t4538 / r_B_r8)
			t4540 := float64(r_B_r7 - t4539)
			r_B_w2 := t4540
			t4541 := i_i1
			if t4541 < 0 || t4541 >= d_B[0] {
				return m.OOB(t4541, d_B[0], 0, "B", 22, 11)
			}
			t4542 := i_i2
			if t4542 < 0 || t4542 >= d_B[1] {
				return m.OOB(t4542, d_B[1], 1, "B", 22, 11)
			}
			t4543 := b_B + int((t4541)*d_B[1]+t4542)
			m.StoreF(t4543, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t4544 := p_n - int64(1)
		t4545 := codegen.MaxI(int64(1), t4544)
		t4546 := p_n - int64(1)
		for i_i2 := t4545; i_i2 <= t4546; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4547 := i_i1
			if t4547 < 0 || t4547 >= d_X[0] {
				return m.OOB(t4547, d_X[0], 0, "X", 21, 23)
			}
			t4548 := i_i2
			if t4548 < 0 || t4548 >= d_X[1] {
				return m.OOB(t4548, d_X[1], 1, "X", 21, 23)
			}
			t4549 := b_X + int((t4547)*d_X[1]+t4548)
			r_X_r6 := m.LoadF(t4549)
			t4550 := i_i1 - int64(1)
			t4551 := t4550
			if t4551 < 0 || t4551 >= d_X[0] {
				return m.OOB(t4551, d_X[0], 0, "X", 21, 35)
			}
			t4552 := i_i2
			if t4552 < 0 || t4552 >= d_X[1] {
				return m.OOB(t4552, d_X[1], 1, "X", 21, 35)
			}
			t4553 := b_X + int((t4551)*d_X[1]+t4552)
			r_X_r7 := m.LoadF(t4553)
			t4554 := i_i1
			if t4554 < 0 || t4554 >= d_A[0] {
				return m.OOB(t4554, d_A[0], 0, "A", 21, 51)
			}
			t4555 := i_i2
			if t4555 < 0 || t4555 >= d_A[1] {
				return m.OOB(t4555, d_A[1], 1, "A", 21, 51)
			}
			t4556 := b_A + int((t4554)*d_A[1]+t4555)
			r_A_r5 := m.LoadF(t4556)
			t4557 := i_i1 - int64(1)
			t4558 := t4557
			if t4558 < 0 || t4558 >= d_B[0] {
				return m.OOB(t4558, d_B[0], 0, "B", 21, 63)
			}
			t4559 := i_i2
			if t4559 < 0 || t4559 >= d_B[1] {
				return m.OOB(t4559, d_B[1], 1, "B", 21, 63)
			}
			t4560 := b_B + int((t4558)*d_B[1]+t4559)
			r_B_r6 := m.LoadF(t4560)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4561 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4562 := float64(t4561 / r_B_r6)
			t4563 := float64(r_X_r6 - t4562)
			r_X_w4 := t4563
			t4564 := i_i1
			if t4564 < 0 || t4564 >= d_X[0] {
				return m.OOB(t4564, d_X[0], 0, "X", 21, 11)
			}
			t4565 := i_i2
			if t4565 < 0 || t4565 >= d_X[1] {
				return m.OOB(t4565, d_X[1], 1, "X", 21, 11)
			}
			t4566 := b_X + int((t4564)*d_X[1]+t4565)
			m.StoreF(t4566, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t4567 := i_i1
			if t4567 < 0 || t4567 >= d_B[0] {
				return m.OOB(t4567, d_B[0], 0, "B", 22, 23)
			}
			t4568 := i_i2
			if t4568 < 0 || t4568 >= d_B[1] {
				return m.OOB(t4568, d_B[1], 1, "B", 22, 23)
			}
			t4569 := b_B + int((t4567)*d_B[1]+t4568)
			r_B_r7 := m.LoadF(t4569)
			t4570 := i_i1
			if t4570 < 0 || t4570 >= d_A[0] {
				return m.OOB(t4570, d_A[0], 0, "A", 22, 35)
			}
			t4571 := i_i2
			if t4571 < 0 || t4571 >= d_A[1] {
				return m.OOB(t4571, d_A[1], 1, "A", 22, 35)
			}
			t4572 := b_A + int((t4570)*d_A[1]+t4571)
			r_A_r6 := m.LoadF(t4572)
			t4573 := i_i1
			if t4573 < 0 || t4573 >= d_A[0] {
				return m.OOB(t4573, d_A[0], 0, "A", 22, 47)
			}
			t4574 := i_i2
			if t4574 < 0 || t4574 >= d_A[1] {
				return m.OOB(t4574, d_A[1], 1, "A", 22, 47)
			}
			t4575 := b_A + int((t4573)*d_A[1]+t4574)
			r_A_r7 := m.LoadF(t4575)
			t4576 := i_i1 - int64(1)
			t4577 := t4576
			if t4577 < 0 || t4577 >= d_B[0] {
				return m.OOB(t4577, d_B[0], 0, "B", 22, 59)
			}
			t4578 := i_i2
			if t4578 < 0 || t4578 >= d_B[1] {
				return m.OOB(t4578, d_B[1], 1, "B", 22, 59)
			}
			t4579 := b_B + int((t4577)*d_B[1]+t4578)
			r_B_r8 := m.LoadF(t4579)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4580 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4581 := float64(t4580 / r_B_r8)
			t4582 := float64(r_B_r7 - t4581)
			r_B_w2 := t4582
			t4583 := i_i1
			if t4583 < 0 || t4583 >= d_B[0] {
				return m.OOB(t4583, d_B[0], 0, "B", 22, 11)
			}
			t4584 := i_i2
			if t4584 < 0 || t4584 >= d_B[1] {
				return m.OOB(t4584, d_B[1], 1, "B", 22, 11)
			}
			t4585 := b_B + int((t4583)*d_B[1]+t4584)
			m.StoreF(t4585, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n65(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4586 := p_n - int64(2)
	t4587 := codegen.MaxI(int64(1), t4586)
	t4588 := p_n - int64(2)
	for i_i1 := t4587; i_i1 <= t4588; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4589 := p_n - int64(1)
		t4590 := codegen.MinI(t4589, int64(0))
		for i_i2 := int64(0); i_i2 <= t4590; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4591 := i_i1
			if t4591 < 0 || t4591 >= d_X[0] {
				return m.OOB(t4591, d_X[0], 0, "X", 21, 23)
			}
			t4592 := i_i2
			if t4592 < 0 || t4592 >= d_X[1] {
				return m.OOB(t4592, d_X[1], 1, "X", 21, 23)
			}
			t4593 := b_X + int((t4591)*d_X[1]+t4592)
			r_X_r6 := m.LoadF(t4593)
			t4594 := i_i1 - int64(1)
			t4595 := t4594
			if t4595 < 0 || t4595 >= d_X[0] {
				return m.OOB(t4595, d_X[0], 0, "X", 21, 35)
			}
			t4596 := i_i2
			if t4596 < 0 || t4596 >= d_X[1] {
				return m.OOB(t4596, d_X[1], 1, "X", 21, 35)
			}
			t4597 := b_X + int((t4595)*d_X[1]+t4596)
			r_X_r7 := m.LoadF(t4597)
			t4598 := i_i1
			if t4598 < 0 || t4598 >= d_A[0] {
				return m.OOB(t4598, d_A[0], 0, "A", 21, 51)
			}
			t4599 := i_i2
			if t4599 < 0 || t4599 >= d_A[1] {
				return m.OOB(t4599, d_A[1], 1, "A", 21, 51)
			}
			t4600 := b_A + int((t4598)*d_A[1]+t4599)
			r_A_r5 := m.LoadF(t4600)
			t4601 := i_i1 - int64(1)
			t4602 := t4601
			if t4602 < 0 || t4602 >= d_B[0] {
				return m.OOB(t4602, d_B[0], 0, "B", 21, 63)
			}
			t4603 := i_i2
			if t4603 < 0 || t4603 >= d_B[1] {
				return m.OOB(t4603, d_B[1], 1, "B", 21, 63)
			}
			t4604 := b_B + int((t4602)*d_B[1]+t4603)
			r_B_r6 := m.LoadF(t4604)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4605 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4606 := float64(t4605 / r_B_r6)
			t4607 := float64(r_X_r6 - t4606)
			r_X_w4 := t4607
			t4608 := i_i1
			if t4608 < 0 || t4608 >= d_X[0] {
				return m.OOB(t4608, d_X[0], 0, "X", 21, 11)
			}
			t4609 := i_i2
			if t4609 < 0 || t4609 >= d_X[1] {
				return m.OOB(t4609, d_X[1], 1, "X", 21, 11)
			}
			t4610 := b_X + int((t4608)*d_X[1]+t4609)
			m.StoreF(t4610, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t4611 := i_i1
			if t4611 < 0 || t4611 >= d_B[0] {
				return m.OOB(t4611, d_B[0], 0, "B", 22, 23)
			}
			t4612 := i_i2
			if t4612 < 0 || t4612 >= d_B[1] {
				return m.OOB(t4612, d_B[1], 1, "B", 22, 23)
			}
			t4613 := b_B + int((t4611)*d_B[1]+t4612)
			r_B_r7 := m.LoadF(t4613)
			t4614 := i_i1
			if t4614 < 0 || t4614 >= d_A[0] {
				return m.OOB(t4614, d_A[0], 0, "A", 22, 35)
			}
			t4615 := i_i2
			if t4615 < 0 || t4615 >= d_A[1] {
				return m.OOB(t4615, d_A[1], 1, "A", 22, 35)
			}
			t4616 := b_A + int((t4614)*d_A[1]+t4615)
			r_A_r6 := m.LoadF(t4616)
			t4617 := i_i1
			if t4617 < 0 || t4617 >= d_A[0] {
				return m.OOB(t4617, d_A[0], 0, "A", 22, 47)
			}
			t4618 := i_i2
			if t4618 < 0 || t4618 >= d_A[1] {
				return m.OOB(t4618, d_A[1], 1, "A", 22, 47)
			}
			t4619 := b_A + int((t4617)*d_A[1]+t4618)
			r_A_r7 := m.LoadF(t4619)
			t4620 := i_i1 - int64(1)
			t4621 := t4620
			if t4621 < 0 || t4621 >= d_B[0] {
				return m.OOB(t4621, d_B[0], 0, "B", 22, 59)
			}
			t4622 := i_i2
			if t4622 < 0 || t4622 >= d_B[1] {
				return m.OOB(t4622, d_B[1], 1, "B", 22, 59)
			}
			t4623 := b_B + int((t4621)*d_B[1]+t4622)
			r_B_r8 := m.LoadF(t4623)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4624 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4625 := float64(t4624 / r_B_r8)
			t4626 := float64(r_B_r7 - t4625)
			r_B_w2 := t4626
			t4627 := i_i1
			if t4627 < 0 || t4627 >= d_B[0] {
				return m.OOB(t4627, d_B[0], 0, "B", 22, 11)
			}
			t4628 := i_i2
			if t4628 < 0 || t4628 >= d_B[1] {
				return m.OOB(t4628, d_B[1], 1, "B", 22, 11)
			}
			t4629 := b_B + int((t4627)*d_B[1]+t4628)
			m.StoreF(t4629, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t4630 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t4630; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4631 := i_i1
			if t4631 < 0 || t4631 >= d_X[0] {
				return m.OOB(t4631, d_X[0], 0, "X", 21, 23)
			}
			t4632 := i_i2
			if t4632 < 0 || t4632 >= d_X[1] {
				return m.OOB(t4632, d_X[1], 1, "X", 21, 23)
			}
			t4633 := b_X + int((t4631)*d_X[1]+t4632)
			r_X_r6 := m.LoadF(t4633)
			t4634 := i_i1 - int64(1)
			t4635 := t4634
			if t4635 < 0 || t4635 >= d_X[0] {
				return m.OOB(t4635, d_X[0], 0, "X", 21, 35)
			}
			t4636 := i_i2
			if t4636 < 0 || t4636 >= d_X[1] {
				return m.OOB(t4636, d_X[1], 1, "X", 21, 35)
			}
			t4637 := b_X + int((t4635)*d_X[1]+t4636)
			r_X_r7 := m.LoadF(t4637)
			t4638 := i_i1
			if t4638 < 0 || t4638 >= d_A[0] {
				return m.OOB(t4638, d_A[0], 0, "A", 21, 51)
			}
			t4639 := i_i2
			if t4639 < 0 || t4639 >= d_A[1] {
				return m.OOB(t4639, d_A[1], 1, "A", 21, 51)
			}
			t4640 := b_A + int((t4638)*d_A[1]+t4639)
			r_A_r5 := m.LoadF(t4640)
			t4641 := i_i1 - int64(1)
			t4642 := t4641
			if t4642 < 0 || t4642 >= d_B[0] {
				return m.OOB(t4642, d_B[0], 0, "B", 21, 63)
			}
			t4643 := i_i2
			if t4643 < 0 || t4643 >= d_B[1] {
				return m.OOB(t4643, d_B[1], 1, "B", 21, 63)
			}
			t4644 := b_B + int((t4642)*d_B[1]+t4643)
			r_B_r6 := m.LoadF(t4644)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4645 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4646 := float64(t4645 / r_B_r6)
			t4647 := float64(r_X_r6 - t4646)
			r_X_w4 := t4647
			t4648 := i_i1
			if t4648 < 0 || t4648 >= d_X[0] {
				return m.OOB(t4648, d_X[0], 0, "X", 21, 11)
			}
			t4649 := i_i2
			if t4649 < 0 || t4649 >= d_X[1] {
				return m.OOB(t4649, d_X[1], 1, "X", 21, 11)
			}
			t4650 := b_X + int((t4648)*d_X[1]+t4649)
			m.StoreF(t4650, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t4651 := i_i1
			if t4651 < 0 || t4651 >= d_B[0] {
				return m.OOB(t4651, d_B[0], 0, "B", 22, 23)
			}
			t4652 := i_i2
			if t4652 < 0 || t4652 >= d_B[1] {
				return m.OOB(t4652, d_B[1], 1, "B", 22, 23)
			}
			t4653 := b_B + int((t4651)*d_B[1]+t4652)
			r_B_r7 := m.LoadF(t4653)
			t4654 := i_i1
			if t4654 < 0 || t4654 >= d_A[0] {
				return m.OOB(t4654, d_A[0], 0, "A", 22, 35)
			}
			t4655 := i_i2
			if t4655 < 0 || t4655 >= d_A[1] {
				return m.OOB(t4655, d_A[1], 1, "A", 22, 35)
			}
			t4656 := b_A + int((t4654)*d_A[1]+t4655)
			r_A_r6 := m.LoadF(t4656)
			t4657 := i_i1
			if t4657 < 0 || t4657 >= d_A[0] {
				return m.OOB(t4657, d_A[0], 0, "A", 22, 47)
			}
			t4658 := i_i2
			if t4658 < 0 || t4658 >= d_A[1] {
				return m.OOB(t4658, d_A[1], 1, "A", 22, 47)
			}
			t4659 := b_A + int((t4657)*d_A[1]+t4658)
			r_A_r7 := m.LoadF(t4659)
			t4660 := i_i1 - int64(1)
			t4661 := t4660
			if t4661 < 0 || t4661 >= d_B[0] {
				return m.OOB(t4661, d_B[0], 0, "B", 22, 59)
			}
			t4662 := i_i2
			if t4662 < 0 || t4662 >= d_B[1] {
				return m.OOB(t4662, d_B[1], 1, "B", 22, 59)
			}
			t4663 := b_B + int((t4661)*d_B[1]+t4662)
			r_B_r8 := m.LoadF(t4663)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4664 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4665 := float64(t4664 / r_B_r8)
			t4666 := float64(r_B_r7 - t4665)
			r_B_w2 := t4666
			t4667 := i_i1
			if t4667 < 0 || t4667 >= d_B[0] {
				return m.OOB(t4667, d_B[0], 0, "B", 22, 11)
			}
			t4668 := i_i2
			if t4668 < 0 || t4668 >= d_B[1] {
				return m.OOB(t4668, d_B[1], 1, "B", 22, 11)
			}
			t4669 := b_B + int((t4667)*d_B[1]+t4668)
			m.StoreF(t4669, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t4670 := p_n - int64(1)
		t4671 := codegen.MaxI(int64(1), t4670)
		t4672 := p_n - int64(1)
		for i_i2 := t4671; i_i2 <= t4672; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4673 := i_i1
			if t4673 < 0 || t4673 >= d_X[0] {
				return m.OOB(t4673, d_X[0], 0, "X", 21, 23)
			}
			t4674 := i_i2
			if t4674 < 0 || t4674 >= d_X[1] {
				return m.OOB(t4674, d_X[1], 1, "X", 21, 23)
			}
			t4675 := b_X + int((t4673)*d_X[1]+t4674)
			r_X_r6 := m.LoadF(t4675)
			t4676 := i_i1 - int64(1)
			t4677 := t4676
			if t4677 < 0 || t4677 >= d_X[0] {
				return m.OOB(t4677, d_X[0], 0, "X", 21, 35)
			}
			t4678 := i_i2
			if t4678 < 0 || t4678 >= d_X[1] {
				return m.OOB(t4678, d_X[1], 1, "X", 21, 35)
			}
			t4679 := b_X + int((t4677)*d_X[1]+t4678)
			r_X_r7 := m.LoadF(t4679)
			t4680 := i_i1
			if t4680 < 0 || t4680 >= d_A[0] {
				return m.OOB(t4680, d_A[0], 0, "A", 21, 51)
			}
			t4681 := i_i2
			if t4681 < 0 || t4681 >= d_A[1] {
				return m.OOB(t4681, d_A[1], 1, "A", 21, 51)
			}
			t4682 := b_A + int((t4680)*d_A[1]+t4681)
			r_A_r5 := m.LoadF(t4682)
			t4683 := i_i1 - int64(1)
			t4684 := t4683
			if t4684 < 0 || t4684 >= d_B[0] {
				return m.OOB(t4684, d_B[0], 0, "B", 21, 63)
			}
			t4685 := i_i2
			if t4685 < 0 || t4685 >= d_B[1] {
				return m.OOB(t4685, d_B[1], 1, "B", 21, 63)
			}
			t4686 := b_B + int((t4684)*d_B[1]+t4685)
			r_B_r6 := m.LoadF(t4686)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4687 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4688 := float64(t4687 / r_B_r6)
			t4689 := float64(r_X_r6 - t4688)
			r_X_w4 := t4689
			t4690 := i_i1
			if t4690 < 0 || t4690 >= d_X[0] {
				return m.OOB(t4690, d_X[0], 0, "X", 21, 11)
			}
			t4691 := i_i2
			if t4691 < 0 || t4691 >= d_X[1] {
				return m.OOB(t4691, d_X[1], 1, "X", 21, 11)
			}
			t4692 := b_X + int((t4690)*d_X[1]+t4691)
			m.StoreF(t4692, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t4693 := i_i1
			if t4693 < 0 || t4693 >= d_B[0] {
				return m.OOB(t4693, d_B[0], 0, "B", 22, 23)
			}
			t4694 := i_i2
			if t4694 < 0 || t4694 >= d_B[1] {
				return m.OOB(t4694, d_B[1], 1, "B", 22, 23)
			}
			t4695 := b_B + int((t4693)*d_B[1]+t4694)
			r_B_r7 := m.LoadF(t4695)
			t4696 := i_i1
			if t4696 < 0 || t4696 >= d_A[0] {
				return m.OOB(t4696, d_A[0], 0, "A", 22, 35)
			}
			t4697 := i_i2
			if t4697 < 0 || t4697 >= d_A[1] {
				return m.OOB(t4697, d_A[1], 1, "A", 22, 35)
			}
			t4698 := b_A + int((t4696)*d_A[1]+t4697)
			r_A_r6 := m.LoadF(t4698)
			t4699 := i_i1
			if t4699 < 0 || t4699 >= d_A[0] {
				return m.OOB(t4699, d_A[0], 0, "A", 22, 47)
			}
			t4700 := i_i2
			if t4700 < 0 || t4700 >= d_A[1] {
				return m.OOB(t4700, d_A[1], 1, "A", 22, 47)
			}
			t4701 := b_A + int((t4699)*d_A[1]+t4700)
			r_A_r7 := m.LoadF(t4701)
			t4702 := i_i1 - int64(1)
			t4703 := t4702
			if t4703 < 0 || t4703 >= d_B[0] {
				return m.OOB(t4703, d_B[0], 0, "B", 22, 59)
			}
			t4704 := i_i2
			if t4704 < 0 || t4704 >= d_B[1] {
				return m.OOB(t4704, d_B[1], 1, "B", 22, 59)
			}
			t4705 := b_B + int((t4703)*d_B[1]+t4704)
			r_B_r8 := m.LoadF(t4705)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4706 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4707 := float64(t4706 / r_B_r8)
			t4708 := float64(r_B_r7 - t4707)
			r_B_w2 := t4708
			t4709 := i_i1
			if t4709 < 0 || t4709 >= d_B[0] {
				return m.OOB(t4709, d_B[0], 0, "B", 22, 11)
			}
			t4710 := i_i2
			if t4710 < 0 || t4710 >= d_B[1] {
				return m.OOB(t4710, d_B[1], 1, "B", 22, 11)
			}
			t4711 := b_B + int((t4709)*d_B[1]+t4710)
			m.StoreF(t4711, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n66(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4712 := p_n - int64(1)
	t4713 := codegen.MaxI(int64(1), t4712)
	t4714 := p_n - int64(1)
	for i_i1 := t4713; i_i1 <= t4714; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n67(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_i1); err != nil {
			return err
		}
		t4756 := p_n - int64(2)
		t4757 := codegen.MaxI(int64(0), t4756)
		t4758 := p_n - int64(1)
		t4759 := codegen.MinI(t4758, int64(0))
		for i_i2 := t4757; i_i2 <= t4759; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4760 := i_i1
			if t4760 < 0 || t4760 >= d_X[0] {
				return m.OOB(t4760, d_X[0], 0, "X", 21, 23)
			}
			t4761 := i_i2
			if t4761 < 0 || t4761 >= d_X[1] {
				return m.OOB(t4761, d_X[1], 1, "X", 21, 23)
			}
			t4762 := b_X + int((t4760)*d_X[1]+t4761)
			r_X_r6 := m.LoadF(t4762)
			t4763 := i_i1 - int64(1)
			t4764 := t4763
			if t4764 < 0 || t4764 >= d_X[0] {
				return m.OOB(t4764, d_X[0], 0, "X", 21, 35)
			}
			t4765 := i_i2
			if t4765 < 0 || t4765 >= d_X[1] {
				return m.OOB(t4765, d_X[1], 1, "X", 21, 35)
			}
			t4766 := b_X + int((t4764)*d_X[1]+t4765)
			r_X_r7 := m.LoadF(t4766)
			t4767 := i_i1
			if t4767 < 0 || t4767 >= d_A[0] {
				return m.OOB(t4767, d_A[0], 0, "A", 21, 51)
			}
			t4768 := i_i2
			if t4768 < 0 || t4768 >= d_A[1] {
				return m.OOB(t4768, d_A[1], 1, "A", 21, 51)
			}
			t4769 := b_A + int((t4767)*d_A[1]+t4768)
			r_A_r5 := m.LoadF(t4769)
			t4770 := i_i1 - int64(1)
			t4771 := t4770
			if t4771 < 0 || t4771 >= d_B[0] {
				return m.OOB(t4771, d_B[0], 0, "B", 21, 63)
			}
			t4772 := i_i2
			if t4772 < 0 || t4772 >= d_B[1] {
				return m.OOB(t4772, d_B[1], 1, "B", 21, 63)
			}
			t4773 := b_B + int((t4771)*d_B[1]+t4772)
			r_B_r6 := m.LoadF(t4773)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4774 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4775 := float64(t4774 / r_B_r6)
			t4776 := float64(r_X_r6 - t4775)
			r_X_w4 := t4776
			t4777 := i_i1
			if t4777 < 0 || t4777 >= d_X[0] {
				return m.OOB(t4777, d_X[0], 0, "X", 21, 11)
			}
			t4778 := i_i2
			if t4778 < 0 || t4778 >= d_X[1] {
				return m.OOB(t4778, d_X[1], 1, "X", 21, 11)
			}
			t4779 := b_X + int((t4777)*d_X[1]+t4778)
			m.StoreF(t4779, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t4780 := i_i1
			if t4780 < 0 || t4780 >= d_B[0] {
				return m.OOB(t4780, d_B[0], 0, "B", 22, 23)
			}
			t4781 := i_i2
			if t4781 < 0 || t4781 >= d_B[1] {
				return m.OOB(t4781, d_B[1], 1, "B", 22, 23)
			}
			t4782 := b_B + int((t4780)*d_B[1]+t4781)
			r_B_r7 := m.LoadF(t4782)
			t4783 := i_i1
			if t4783 < 0 || t4783 >= d_A[0] {
				return m.OOB(t4783, d_A[0], 0, "A", 22, 35)
			}
			t4784 := i_i2
			if t4784 < 0 || t4784 >= d_A[1] {
				return m.OOB(t4784, d_A[1], 1, "A", 22, 35)
			}
			t4785 := b_A + int((t4783)*d_A[1]+t4784)
			r_A_r6 := m.LoadF(t4785)
			t4786 := i_i1
			if t4786 < 0 || t4786 >= d_A[0] {
				return m.OOB(t4786, d_A[0], 0, "A", 22, 47)
			}
			t4787 := i_i2
			if t4787 < 0 || t4787 >= d_A[1] {
				return m.OOB(t4787, d_A[1], 1, "A", 22, 47)
			}
			t4788 := b_A + int((t4786)*d_A[1]+t4787)
			r_A_r7 := m.LoadF(t4788)
			t4789 := i_i1 - int64(1)
			t4790 := t4789
			if t4790 < 0 || t4790 >= d_B[0] {
				return m.OOB(t4790, d_B[0], 0, "B", 22, 59)
			}
			t4791 := i_i2
			if t4791 < 0 || t4791 >= d_B[1] {
				return m.OOB(t4791, d_B[1], 1, "B", 22, 59)
			}
			t4792 := b_B + int((t4790)*d_B[1]+t4791)
			r_B_r8 := m.LoadF(t4792)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4793 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4794 := float64(t4793 / r_B_r8)
			t4795 := float64(r_B_r7 - t4794)
			r_B_w2 := t4795
			t4796 := i_i1
			if t4796 < 0 || t4796 >= d_B[0] {
				return m.OOB(t4796, d_B[0], 0, "B", 22, 11)
			}
			t4797 := i_i2
			if t4797 < 0 || t4797 >= d_B[1] {
				return m.OOB(t4797, d_B[1], 1, "B", 22, 11)
			}
			t4798 := b_B + int((t4796)*d_B[1]+t4797)
			m.StoreF(t4798, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t4799 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t4799; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4800 := i_i1
			if t4800 < 0 || t4800 >= d_X[0] {
				return m.OOB(t4800, d_X[0], 0, "X", 21, 23)
			}
			t4801 := i_i2
			if t4801 < 0 || t4801 >= d_X[1] {
				return m.OOB(t4801, d_X[1], 1, "X", 21, 23)
			}
			t4802 := b_X + int((t4800)*d_X[1]+t4801)
			r_X_r6 := m.LoadF(t4802)
			t4803 := i_i1 - int64(1)
			t4804 := t4803
			if t4804 < 0 || t4804 >= d_X[0] {
				return m.OOB(t4804, d_X[0], 0, "X", 21, 35)
			}
			t4805 := i_i2
			if t4805 < 0 || t4805 >= d_X[1] {
				return m.OOB(t4805, d_X[1], 1, "X", 21, 35)
			}
			t4806 := b_X + int((t4804)*d_X[1]+t4805)
			r_X_r7 := m.LoadF(t4806)
			t4807 := i_i1
			if t4807 < 0 || t4807 >= d_A[0] {
				return m.OOB(t4807, d_A[0], 0, "A", 21, 51)
			}
			t4808 := i_i2
			if t4808 < 0 || t4808 >= d_A[1] {
				return m.OOB(t4808, d_A[1], 1, "A", 21, 51)
			}
			t4809 := b_A + int((t4807)*d_A[1]+t4808)
			r_A_r5 := m.LoadF(t4809)
			t4810 := i_i1 - int64(1)
			t4811 := t4810
			if t4811 < 0 || t4811 >= d_B[0] {
				return m.OOB(t4811, d_B[0], 0, "B", 21, 63)
			}
			t4812 := i_i2
			if t4812 < 0 || t4812 >= d_B[1] {
				return m.OOB(t4812, d_B[1], 1, "B", 21, 63)
			}
			t4813 := b_B + int((t4811)*d_B[1]+t4812)
			r_B_r6 := m.LoadF(t4813)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4814 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4815 := float64(t4814 / r_B_r6)
			t4816 := float64(r_X_r6 - t4815)
			r_X_w4 := t4816
			t4817 := i_i1
			if t4817 < 0 || t4817 >= d_X[0] {
				return m.OOB(t4817, d_X[0], 0, "X", 21, 11)
			}
			t4818 := i_i2
			if t4818 < 0 || t4818 >= d_X[1] {
				return m.OOB(t4818, d_X[1], 1, "X", 21, 11)
			}
			t4819 := b_X + int((t4817)*d_X[1]+t4818)
			m.StoreF(t4819, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t4820 := i_i1
			if t4820 < 0 || t4820 >= d_B[0] {
				return m.OOB(t4820, d_B[0], 0, "B", 22, 23)
			}
			t4821 := i_i2
			if t4821 < 0 || t4821 >= d_B[1] {
				return m.OOB(t4821, d_B[1], 1, "B", 22, 23)
			}
			t4822 := b_B + int((t4820)*d_B[1]+t4821)
			r_B_r7 := m.LoadF(t4822)
			t4823 := i_i1
			if t4823 < 0 || t4823 >= d_A[0] {
				return m.OOB(t4823, d_A[0], 0, "A", 22, 35)
			}
			t4824 := i_i2
			if t4824 < 0 || t4824 >= d_A[1] {
				return m.OOB(t4824, d_A[1], 1, "A", 22, 35)
			}
			t4825 := b_A + int((t4823)*d_A[1]+t4824)
			r_A_r6 := m.LoadF(t4825)
			t4826 := i_i1
			if t4826 < 0 || t4826 >= d_A[0] {
				return m.OOB(t4826, d_A[0], 0, "A", 22, 47)
			}
			t4827 := i_i2
			if t4827 < 0 || t4827 >= d_A[1] {
				return m.OOB(t4827, d_A[1], 1, "A", 22, 47)
			}
			t4828 := b_A + int((t4826)*d_A[1]+t4827)
			r_A_r7 := m.LoadF(t4828)
			t4829 := i_i1 - int64(1)
			t4830 := t4829
			if t4830 < 0 || t4830 >= d_B[0] {
				return m.OOB(t4830, d_B[0], 0, "B", 22, 59)
			}
			t4831 := i_i2
			if t4831 < 0 || t4831 >= d_B[1] {
				return m.OOB(t4831, d_B[1], 1, "B", 22, 59)
			}
			t4832 := b_B + int((t4830)*d_B[1]+t4831)
			r_B_r8 := m.LoadF(t4832)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4833 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4834 := float64(t4833 / r_B_r8)
			t4835 := float64(r_B_r7 - t4834)
			r_B_w2 := t4835
			t4836 := i_i1
			if t4836 < 0 || t4836 >= d_B[0] {
				return m.OOB(t4836, d_B[0], 0, "B", 22, 11)
			}
			t4837 := i_i2
			if t4837 < 0 || t4837 >= d_B[1] {
				return m.OOB(t4837, d_B[1], 1, "B", 22, 11)
			}
			t4838 := b_B + int((t4836)*d_B[1]+t4837)
			m.StoreF(t4838, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t4839 := p_n - int64(1)
		t4840 := codegen.MaxI(int64(1), t4839)
		t4841 := p_n - int64(1)
		for i_i2 := t4840; i_i2 <= t4841; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4842 := i_i1
			if t4842 < 0 || t4842 >= d_X[0] {
				return m.OOB(t4842, d_X[0], 0, "X", 21, 23)
			}
			t4843 := i_i2
			if t4843 < 0 || t4843 >= d_X[1] {
				return m.OOB(t4843, d_X[1], 1, "X", 21, 23)
			}
			t4844 := b_X + int((t4842)*d_X[1]+t4843)
			r_X_r6 := m.LoadF(t4844)
			t4845 := i_i1 - int64(1)
			t4846 := t4845
			if t4846 < 0 || t4846 >= d_X[0] {
				return m.OOB(t4846, d_X[0], 0, "X", 21, 35)
			}
			t4847 := i_i2
			if t4847 < 0 || t4847 >= d_X[1] {
				return m.OOB(t4847, d_X[1], 1, "X", 21, 35)
			}
			t4848 := b_X + int((t4846)*d_X[1]+t4847)
			r_X_r7 := m.LoadF(t4848)
			t4849 := i_i1
			if t4849 < 0 || t4849 >= d_A[0] {
				return m.OOB(t4849, d_A[0], 0, "A", 21, 51)
			}
			t4850 := i_i2
			if t4850 < 0 || t4850 >= d_A[1] {
				return m.OOB(t4850, d_A[1], 1, "A", 21, 51)
			}
			t4851 := b_A + int((t4849)*d_A[1]+t4850)
			r_A_r5 := m.LoadF(t4851)
			t4852 := i_i1 - int64(1)
			t4853 := t4852
			if t4853 < 0 || t4853 >= d_B[0] {
				return m.OOB(t4853, d_B[0], 0, "B", 21, 63)
			}
			t4854 := i_i2
			if t4854 < 0 || t4854 >= d_B[1] {
				return m.OOB(t4854, d_B[1], 1, "B", 21, 63)
			}
			t4855 := b_B + int((t4853)*d_B[1]+t4854)
			r_B_r6 := m.LoadF(t4855)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t4856 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t4857 := float64(t4856 / r_B_r6)
			t4858 := float64(r_X_r6 - t4857)
			r_X_w4 := t4858
			t4859 := i_i1
			if t4859 < 0 || t4859 >= d_X[0] {
				return m.OOB(t4859, d_X[0], 0, "X", 21, 11)
			}
			t4860 := i_i2
			if t4860 < 0 || t4860 >= d_X[1] {
				return m.OOB(t4860, d_X[1], 1, "X", 21, 11)
			}
			t4861 := b_X + int((t4859)*d_X[1]+t4860)
			m.StoreF(t4861, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t4862 := i_i1
			if t4862 < 0 || t4862 >= d_B[0] {
				return m.OOB(t4862, d_B[0], 0, "B", 22, 23)
			}
			t4863 := i_i2
			if t4863 < 0 || t4863 >= d_B[1] {
				return m.OOB(t4863, d_B[1], 1, "B", 22, 23)
			}
			t4864 := b_B + int((t4862)*d_B[1]+t4863)
			r_B_r7 := m.LoadF(t4864)
			t4865 := i_i1
			if t4865 < 0 || t4865 >= d_A[0] {
				return m.OOB(t4865, d_A[0], 0, "A", 22, 35)
			}
			t4866 := i_i2
			if t4866 < 0 || t4866 >= d_A[1] {
				return m.OOB(t4866, d_A[1], 1, "A", 22, 35)
			}
			t4867 := b_A + int((t4865)*d_A[1]+t4866)
			r_A_r6 := m.LoadF(t4867)
			t4868 := i_i1
			if t4868 < 0 || t4868 >= d_A[0] {
				return m.OOB(t4868, d_A[0], 0, "A", 22, 47)
			}
			t4869 := i_i2
			if t4869 < 0 || t4869 >= d_A[1] {
				return m.OOB(t4869, d_A[1], 1, "A", 22, 47)
			}
			t4870 := b_A + int((t4868)*d_A[1]+t4869)
			r_A_r7 := m.LoadF(t4870)
			t4871 := i_i1 - int64(1)
			t4872 := t4871
			if t4872 < 0 || t4872 >= d_B[0] {
				return m.OOB(t4872, d_B[0], 0, "B", 22, 59)
			}
			t4873 := i_i2
			if t4873 < 0 || t4873 >= d_B[1] {
				return m.OOB(t4873, d_B[1], 1, "B", 22, 59)
			}
			t4874 := b_B + int((t4872)*d_B[1]+t4873)
			r_B_r8 := m.LoadF(t4874)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t4875 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t4876 := float64(t4875 / r_B_r8)
			t4877 := float64(r_B_r7 - t4876)
			r_B_w2 := t4877
			t4878 := i_i1
			if t4878 < 0 || t4878 >= d_B[0] {
				return m.OOB(t4878, d_B[0], 0, "B", 22, 11)
			}
			t4879 := i_i2
			if t4879 < 0 || t4879 >= d_B[1] {
				return m.OOB(t4879, d_B[1], 1, "B", 22, 11)
			}
			t4880 := b_B + int((t4878)*d_B[1]+t4879)
			m.StoreF(t4880, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n67(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_i1 int64) error {
	t4715 := p_n - int64(3)
	t4716 := codegen.MinI(t4715, int64(0))
	for i_i2 := int64(0); i_i2 <= t4716; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t4717 := i_i1
		if t4717 < 0 || t4717 >= d_X[0] {
			return m.OOB(t4717, d_X[0], 0, "X", 21, 23)
		}
		t4718 := i_i2
		if t4718 < 0 || t4718 >= d_X[1] {
			return m.OOB(t4718, d_X[1], 1, "X", 21, 23)
		}
		t4719 := b_X + int((t4717)*d_X[1]+t4718)
		r_X_r6 := m.LoadF(t4719)
		t4720 := i_i1 - int64(1)
		t4721 := t4720
		if t4721 < 0 || t4721 >= d_X[0] {
			return m.OOB(t4721, d_X[0], 0, "X", 21, 35)
		}
		t4722 := i_i2
		if t4722 < 0 || t4722 >= d_X[1] {
			return m.OOB(t4722, d_X[1], 1, "X", 21, 35)
		}
		t4723 := b_X + int((t4721)*d_X[1]+t4722)
		r_X_r7 := m.LoadF(t4723)
		t4724 := i_i1
		if t4724 < 0 || t4724 >= d_A[0] {
			return m.OOB(t4724, d_A[0], 0, "A", 21, 51)
		}
		t4725 := i_i2
		if t4725 < 0 || t4725 >= d_A[1] {
			return m.OOB(t4725, d_A[1], 1, "A", 21, 51)
		}
		t4726 := b_A + int((t4724)*d_A[1]+t4725)
		r_A_r5 := m.LoadF(t4726)
		t4727 := i_i1 - int64(1)
		t4728 := t4727
		if t4728 < 0 || t4728 >= d_B[0] {
			return m.OOB(t4728, d_B[0], 0, "B", 21, 63)
		}
		t4729 := i_i2
		if t4729 < 0 || t4729 >= d_B[1] {
			return m.OOB(t4729, d_B[1], 1, "B", 21, 63)
		}
		t4730 := b_B + int((t4728)*d_B[1]+t4729)
		r_B_r6 := m.LoadF(t4730)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
		t4731 := float64(r_X_r7 * r_A_r5)
		if r_B_r6 == 0 {
			return m.DivZero(21, 61)
		}
		t4732 := float64(t4731 / r_B_r6)
		t4733 := float64(r_X_r6 - t4732)
		r_X_w4 := t4733
		t4734 := i_i1
		if t4734 < 0 || t4734 >= d_X[0] {
			return m.OOB(t4734, d_X[0], 0, "X", 21, 11)
		}
		t4735 := i_i2
		if t4735 < 0 || t4735 >= d_X[1] {
			return m.OOB(t4735, d_X[1], 1, "X", 21, 11)
		}
		t4736 := b_X + int((t4734)*d_X[1]+t4735)
		m.StoreF(t4736, r_X_w4)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
		t4737 := i_i1
		if t4737 < 0 || t4737 >= d_B[0] {
			return m.OOB(t4737, d_B[0], 0, "B", 22, 23)
		}
		t4738 := i_i2
		if t4738 < 0 || t4738 >= d_B[1] {
			return m.OOB(t4738, d_B[1], 1, "B", 22, 23)
		}
		t4739 := b_B + int((t4737)*d_B[1]+t4738)
		r_B_r7 := m.LoadF(t4739)
		t4740 := i_i1
		if t4740 < 0 || t4740 >= d_A[0] {
			return m.OOB(t4740, d_A[0], 0, "A", 22, 35)
		}
		t4741 := i_i2
		if t4741 < 0 || t4741 >= d_A[1] {
			return m.OOB(t4741, d_A[1], 1, "A", 22, 35)
		}
		t4742 := b_A + int((t4740)*d_A[1]+t4741)
		r_A_r6 := m.LoadF(t4742)
		t4743 := i_i1
		if t4743 < 0 || t4743 >= d_A[0] {
			return m.OOB(t4743, d_A[0], 0, "A", 22, 47)
		}
		t4744 := i_i2
		if t4744 < 0 || t4744 >= d_A[1] {
			return m.OOB(t4744, d_A[1], 1, "A", 22, 47)
		}
		t4745 := b_A + int((t4743)*d_A[1]+t4744)
		r_A_r7 := m.LoadF(t4745)
		t4746 := i_i1 - int64(1)
		t4747 := t4746
		if t4747 < 0 || t4747 >= d_B[0] {
			return m.OOB(t4747, d_B[0], 0, "B", 22, 59)
		}
		t4748 := i_i2
		if t4748 < 0 || t4748 >= d_B[1] {
			return m.OOB(t4748, d_B[1], 1, "B", 22, 59)
		}
		t4749 := b_B + int((t4747)*d_B[1]+t4748)
		r_B_r8 := m.LoadF(t4749)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
		t4750 := float64(r_A_r6 * r_A_r7)
		if r_B_r8 == 0 {
			return m.DivZero(22, 57)
		}
		t4751 := float64(t4750 / r_B_r8)
		t4752 := float64(r_B_r7 - t4751)
		r_B_w2 := t4752
		t4753 := i_i1
		if t4753 < 0 || t4753 >= d_B[0] {
			return m.OOB(t4753, d_B[0], 0, "B", 22, 11)
		}
		t4754 := i_i2
		if t4754 < 0 || t4754 >= d_B[1] {
			return m.OOB(t4754, d_B[1], 1, "B", 22, 11)
		}
		t4755 := b_B + int((t4753)*d_B[1]+t4754)
		m.StoreF(t4755, r_B_w2)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n68(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t4960 := p_n - int64(3)
	for i_i1 := int64(0); i_i1 <= t4960; i_i1++ {
		if err := m.Tick(28, 3); err != nil {
			return err
		}
		t4961 := p_n - int64(1)
		t4962 := codegen.MinI(t4961, int64(0))
		for i_i2 := int64(0); i_i2 <= t4962; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4963 := p_n - int64(2)
			t4964 := t4963 - i_i1
			t4965 := t4964
			if t4965 < 0 || t4965 >= d_X[0] {
				return m.OOB(t4965, d_X[0], 0, "X", 30, 32)
			}
			t4966 := i_i2
			if t4966 < 0 || t4966 >= d_X[1] {
				return m.OOB(t4966, d_X[1], 1, "X", 30, 32)
			}
			t4967 := b_X + int((t4965)*d_X[1]+t4966)
			r_X_r9 := m.LoadF(t4967)
			t4968 := p_n - i_i1
			t4969 := t4968 - int64(3)
			t4970 := t4969
			if t4970 < 0 || t4970 >= d_X[0] {
				return m.OOB(t4970, d_X[0], 0, "X", 30, 52)
			}
			t4971 := i_i2
			if t4971 < 0 || t4971 >= d_X[1] {
				return m.OOB(t4971, d_X[1], 1, "X", 30, 52)
			}
			t4972 := b_X + int((t4970)*d_X[1]+t4971)
			r_X_r10 := m.LoadF(t4972)
			t4973 := p_n - int64(3)
			t4974 := t4973 - i_i1
			t4975 := t4974
			if t4975 < 0 || t4975 >= d_A[0] {
				return m.OOB(t4975, d_A[0], 0, "A", 30, 72)
			}
			t4976 := i_i2
			if t4976 < 0 || t4976 >= d_A[1] {
				return m.OOB(t4976, d_A[1], 1, "A", 30, 72)
			}
			t4977 := b_A + int((t4975)*d_A[1]+t4976)
			r_A_r8 := m.LoadF(t4977)
			t4978 := p_n - int64(2)
			t4979 := t4978 - i_i1
			t4980 := t4979
			if t4980 < 0 || t4980 >= d_B[0] {
				return m.OOB(t4980, d_B[0], 0, "B", 30, 93)
			}
			t4981 := i_i2
			if t4981 < 0 || t4981 >= d_B[1] {
				return m.OOB(t4981, d_B[1], 1, "B", 30, 93)
			}
			t4982 := b_B + int((t4980)*d_B[1]+t4981)
			r_B_r10 := m.LoadF(t4982)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t4983 := float64(r_X_r10 * r_A_r8)
			t4984 := float64(r_X_r9 - t4983)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t4985 := float64(t4984 / r_B_r10)
			r_X_w6 := t4985
			t4986 := p_n - int64(2)
			t4987 := t4986 - i_i1
			t4988 := t4987
			if t4988 < 0 || t4988 >= d_X[0] {
				return m.OOB(t4988, d_X[0], 0, "X", 30, 11)
			}
			t4989 := i_i2
			if t4989 < 0 || t4989 >= d_X[1] {
				return m.OOB(t4989, d_X[1], 1, "X", 30, 11)
			}
			t4990 := b_X + int((t4988)*d_X[1]+t4989)
			m.StoreF(t4990, r_X_w6)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(3))
		}
		t4991 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t4991; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t4992 := p_n - int64(2)
			t4993 := t4992 - i_i1
			t4994 := t4993
			if t4994 < 0 || t4994 >= d_X[0] {
				return m.OOB(t4994, d_X[0], 0, "X", 30, 32)
			}
			t4995 := i_i2
			if t4995 < 0 || t4995 >= d_X[1] {
				return m.OOB(t4995, d_X[1], 1, "X", 30, 32)
			}
			t4996 := b_X + int((t4994)*d_X[1]+t4995)
			r_X_r9 := m.LoadF(t4996)
			t4997 := p_n - i_i1
			t4998 := t4997 - int64(3)
			t4999 := t4998
			if t4999 < 0 || t4999 >= d_X[0] {
				return m.OOB(t4999, d_X[0], 0, "X", 30, 52)
			}
			t5000 := i_i2
			if t5000 < 0 || t5000 >= d_X[1] {
				return m.OOB(t5000, d_X[1], 1, "X", 30, 52)
			}
			t5001 := b_X + int((t4999)*d_X[1]+t5000)
			r_X_r10 := m.LoadF(t5001)
			t5002 := p_n - int64(3)
			t5003 := t5002 - i_i1
			t5004 := t5003
			if t5004 < 0 || t5004 >= d_A[0] {
				return m.OOB(t5004, d_A[0], 0, "A", 30, 72)
			}
			t5005 := i_i2
			if t5005 < 0 || t5005 >= d_A[1] {
				return m.OOB(t5005, d_A[1], 1, "A", 30, 72)
			}
			t5006 := b_A + int((t5004)*d_A[1]+t5005)
			r_A_r8 := m.LoadF(t5006)
			t5007 := p_n - int64(2)
			t5008 := t5007 - i_i1
			t5009 := t5008
			if t5009 < 0 || t5009 >= d_B[0] {
				return m.OOB(t5009, d_B[0], 0, "B", 30, 93)
			}
			t5010 := i_i2
			if t5010 < 0 || t5010 >= d_B[1] {
				return m.OOB(t5010, d_B[1], 1, "B", 30, 93)
			}
			t5011 := b_B + int((t5009)*d_B[1]+t5010)
			r_B_r10 := m.LoadF(t5011)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t5012 := float64(r_X_r10 * r_A_r8)
			t5013 := float64(r_X_r9 - t5012)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t5014 := float64(t5013 / r_B_r10)
			r_X_w6 := t5014
			t5015 := p_n - int64(2)
			t5016 := t5015 - i_i1
			t5017 := t5016
			if t5017 < 0 || t5017 >= d_X[0] {
				return m.OOB(t5017, d_X[0], 0, "X", 30, 11)
			}
			t5018 := i_i2
			if t5018 < 0 || t5018 >= d_X[1] {
				return m.OOB(t5018, d_X[1], 1, "X", 30, 11)
			}
			t5019 := b_X + int((t5017)*d_X[1]+t5018)
			m.StoreF(t5019, r_X_w6)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(1))
		}
		t5020 := p_n - int64(1)
		t5021 := codegen.MaxI(int64(1), t5020)
		t5022 := p_n - int64(1)
		for i_i2 := t5021; i_i2 <= t5022; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5023 := p_n - int64(2)
			t5024 := t5023 - i_i1
			t5025 := t5024
			if t5025 < 0 || t5025 >= d_X[0] {
				return m.OOB(t5025, d_X[0], 0, "X", 30, 32)
			}
			t5026 := i_i2
			if t5026 < 0 || t5026 >= d_X[1] {
				return m.OOB(t5026, d_X[1], 1, "X", 30, 32)
			}
			t5027 := b_X + int((t5025)*d_X[1]+t5026)
			r_X_r9 := m.LoadF(t5027)
			t5028 := p_n - i_i1
			t5029 := t5028 - int64(3)
			t5030 := t5029
			if t5030 < 0 || t5030 >= d_X[0] {
				return m.OOB(t5030, d_X[0], 0, "X", 30, 52)
			}
			t5031 := i_i2
			if t5031 < 0 || t5031 >= d_X[1] {
				return m.OOB(t5031, d_X[1], 1, "X", 30, 52)
			}
			t5032 := b_X + int((t5030)*d_X[1]+t5031)
			r_X_r10 := m.LoadF(t5032)
			t5033 := p_n - int64(3)
			t5034 := t5033 - i_i1
			t5035 := t5034
			if t5035 < 0 || t5035 >= d_A[0] {
				return m.OOB(t5035, d_A[0], 0, "A", 30, 72)
			}
			t5036 := i_i2
			if t5036 < 0 || t5036 >= d_A[1] {
				return m.OOB(t5036, d_A[1], 1, "A", 30, 72)
			}
			t5037 := b_A + int((t5035)*d_A[1]+t5036)
			r_A_r8 := m.LoadF(t5037)
			t5038 := p_n - int64(2)
			t5039 := t5038 - i_i1
			t5040 := t5039
			if t5040 < 0 || t5040 >= d_B[0] {
				return m.OOB(t5040, d_B[0], 0, "B", 30, 93)
			}
			t5041 := i_i2
			if t5041 < 0 || t5041 >= d_B[1] {
				return m.OOB(t5041, d_B[1], 1, "B", 30, 93)
			}
			t5042 := b_B + int((t5040)*d_B[1]+t5041)
			r_B_r10 := m.LoadF(t5042)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t5043 := float64(r_X_r10 * r_A_r8)
			t5044 := float64(r_X_r9 - t5043)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t5045 := float64(t5044 / r_B_r10)
			r_X_w6 := t5045
			t5046 := p_n - int64(2)
			t5047 := t5046 - i_i1
			t5048 := t5047
			if t5048 < 0 || t5048 >= d_X[0] {
				return m.OOB(t5048, d_X[0], 0, "X", 30, 11)
			}
			t5049 := i_i2
			if t5049 < 0 || t5049 >= d_X[1] {
				return m.OOB(t5049, d_X[1], 1, "X", 30, 11)
			}
			t5050 := b_X + int((t5048)*d_X[1]+t5049)
			m.StoreF(t5050, r_X_w6)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n69(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t5051 := p_tsteps - int64(2)
	t5052 := codegen.MaxI(int64(1), t5051)
	t5053 := p_tsteps - int64(2)
	for i_t := t5052; i_t <= t5053; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n70(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n71(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n72(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t5441 := p_n - int64(3)
		t5442 := codegen.MinI(t5441, int64(0))
		for i_i1 := int64(0); i_i1 <= t5442; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5443 := i_i1
			if t5443 < 0 || t5443 >= d_X[0] {
				return m.OOB(t5443, d_X[0], 0, "X", 12, 24)
			}
			t5444 := p_n - int64(1)
			t5445 := t5444
			if t5445 < 0 || t5445 >= d_X[1] {
				return m.OOB(t5445, d_X[1], 1, "X", 12, 24)
			}
			t5446 := b_X + int((t5443)*d_X[1]+t5445)
			r_X_r3 := m.LoadF(t5446)
			t5447 := i_i1
			if t5447 < 0 || t5447 >= d_B[0] {
				return m.OOB(t5447, d_B[0], 0, "B", 12, 39)
			}
			t5448 := p_n - int64(1)
			t5449 := t5448
			if t5449 < 0 || t5449 >= d_B[1] {
				return m.OOB(t5449, d_B[1], 1, "B", 12, 39)
			}
			t5450 := b_B + int((t5447)*d_B[1]+t5449)
			r_B_r4 := m.LoadF(t5450)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t5451 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t5451
			t5452 := i_i1
			if t5452 < 0 || t5452 >= d_X[0] {
				return m.OOB(t5452, d_X[0], 0, "X", 12, 9)
			}
			t5453 := p_n - int64(1)
			t5454 := t5453
			if t5454 < 0 || t5454 >= d_X[1] {
				return m.OOB(t5454, d_X[1], 1, "X", 12, 9)
			}
			t5455 := b_X + int((t5452)*d_X[1]+t5454)
			m.StoreF(t5455, r_X_w2)
			t5456 := -i_t
			t5457 := t5456 + p_tsteps
			t5458 := t5457 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), t5458)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t5459 := p_n - int64(2)
		t5460 := codegen.MaxI(int64(0), t5459)
		t5461 := p_n - int64(2)
		t5462 := codegen.MinI(t5461, int64(0))
		for i_i1 := t5460; i_i1 <= t5462; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5463 := i_i1
			if t5463 < 0 || t5463 >= d_X[0] {
				return m.OOB(t5463, d_X[0], 0, "X", 12, 24)
			}
			t5464 := p_n - int64(1)
			t5465 := t5464
			if t5465 < 0 || t5465 >= d_X[1] {
				return m.OOB(t5465, d_X[1], 1, "X", 12, 24)
			}
			t5466 := b_X + int((t5463)*d_X[1]+t5465)
			r_X_r3 := m.LoadF(t5466)
			t5467 := i_i1
			if t5467 < 0 || t5467 >= d_B[0] {
				return m.OOB(t5467, d_B[0], 0, "B", 12, 39)
			}
			t5468 := p_n - int64(1)
			t5469 := t5468
			if t5469 < 0 || t5469 >= d_B[1] {
				return m.OOB(t5469, d_B[1], 1, "B", 12, 39)
			}
			t5470 := b_B + int((t5467)*d_B[1]+t5469)
			r_B_r4 := m.LoadF(t5470)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t5471 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t5471
			t5472 := i_i1
			if t5472 < 0 || t5472 >= d_X[0] {
				return m.OOB(t5472, d_X[0], 0, "X", 12, 9)
			}
			t5473 := p_n - int64(1)
			t5474 := t5473
			if t5474 < 0 || t5474 >= d_X[1] {
				return m.OOB(t5474, d_X[1], 1, "X", 12, 9)
			}
			t5475 := b_X + int((t5472)*d_X[1]+t5474)
			m.StoreF(t5475, r_X_w2)
			t5476 := -i_t
			t5477 := t5476 + p_tsteps
			t5478 := t5477 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), t5478)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t5479 := p_n - int64(1)
		t5480 := codegen.MaxI(int64(0), t5479)
		t5481 := p_n - int64(1)
		t5482 := codegen.MinI(t5481, int64(0))
		for i_i1 := t5480; i_i1 <= t5482; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5483 := i_i1
			if t5483 < 0 || t5483 >= d_X[0] {
				return m.OOB(t5483, d_X[0], 0, "X", 12, 24)
			}
			t5484 := p_n - int64(1)
			t5485 := t5484
			if t5485 < 0 || t5485 >= d_X[1] {
				return m.OOB(t5485, d_X[1], 1, "X", 12, 24)
			}
			t5486 := b_X + int((t5483)*d_X[1]+t5485)
			r_X_r3 := m.LoadF(t5486)
			t5487 := i_i1
			if t5487 < 0 || t5487 >= d_B[0] {
				return m.OOB(t5487, d_B[0], 0, "B", 12, 39)
			}
			t5488 := p_n - int64(1)
			t5489 := t5488
			if t5489 < 0 || t5489 >= d_B[1] {
				return m.OOB(t5489, d_B[1], 1, "B", 12, 39)
			}
			t5490 := b_B + int((t5487)*d_B[1]+t5489)
			r_B_r4 := m.LoadF(t5490)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t5491 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t5491
			t5492 := i_i1
			if t5492 < 0 || t5492 >= d_X[0] {
				return m.OOB(t5492, d_X[0], 0, "X", 12, 9)
			}
			t5493 := p_n - int64(1)
			t5494 := t5493
			if t5494 < 0 || t5494 >= d_X[1] {
				return m.OOB(t5494, d_X[1], 1, "X", 12, 9)
			}
			t5495 := b_X + int((t5492)*d_X[1]+t5494)
			m.StoreF(t5495, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t5496 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t5496; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5497 := i_i1
			if t5497 < 0 || t5497 >= d_X[0] {
				return m.OOB(t5497, d_X[0], 0, "X", 12, 24)
			}
			t5498 := p_n - int64(1)
			t5499 := t5498
			if t5499 < 0 || t5499 >= d_X[1] {
				return m.OOB(t5499, d_X[1], 1, "X", 12, 24)
			}
			t5500 := b_X + int((t5497)*d_X[1]+t5499)
			r_X_r3 := m.LoadF(t5500)
			t5501 := i_i1
			if t5501 < 0 || t5501 >= d_B[0] {
				return m.OOB(t5501, d_B[0], 0, "B", 12, 39)
			}
			t5502 := p_n - int64(1)
			t5503 := t5502
			if t5503 < 0 || t5503 >= d_B[1] {
				return m.OOB(t5503, d_B[1], 1, "B", 12, 39)
			}
			t5504 := b_B + int((t5501)*d_B[1]+t5503)
			r_B_r4 := m.LoadF(t5504)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t5505 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t5505
			t5506 := i_i1
			if t5506 < 0 || t5506 >= d_X[0] {
				return m.OOB(t5506, d_X[0], 0, "X", 12, 9)
			}
			t5507 := p_n - int64(1)
			t5508 := t5507
			if t5508 < 0 || t5508 >= d_X[1] {
				return m.OOB(t5508, d_X[1], 1, "X", 12, 9)
			}
			t5509 := b_X + int((t5506)*d_X[1]+t5508)
			m.StoreF(t5509, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t5510 := p_n - int64(1)
		t5511 := codegen.MaxI(int64(1), t5510)
		t5512 := p_n - int64(1)
		for i_i1 := t5511; i_i1 <= t5512; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5513 := i_i1
			if t5513 < 0 || t5513 >= d_X[0] {
				return m.OOB(t5513, d_X[0], 0, "X", 12, 24)
			}
			t5514 := p_n - int64(1)
			t5515 := t5514
			if t5515 < 0 || t5515 >= d_X[1] {
				return m.OOB(t5515, d_X[1], 1, "X", 12, 24)
			}
			t5516 := b_X + int((t5513)*d_X[1]+t5515)
			r_X_r3 := m.LoadF(t5516)
			t5517 := i_i1
			if t5517 < 0 || t5517 >= d_B[0] {
				return m.OOB(t5517, d_B[0], 0, "B", 12, 39)
			}
			t5518 := p_n - int64(1)
			t5519 := t5518
			if t5519 < 0 || t5519 >= d_B[1] {
				return m.OOB(t5519, d_B[1], 1, "B", 12, 39)
			}
			t5520 := b_B + int((t5517)*d_B[1]+t5519)
			r_B_r4 := m.LoadF(t5520)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t5521 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t5521
			t5522 := i_i1
			if t5522 < 0 || t5522 >= d_X[0] {
				return m.OOB(t5522, d_X[0], 0, "X", 12, 9)
			}
			t5523 := p_n - int64(1)
			t5524 := t5523
			if t5524 < 0 || t5524 >= d_X[1] {
				return m.OOB(t5524, d_X[1], 1, "X", 12, 9)
			}
			t5525 := b_X + int((t5522)*d_X[1]+t5524)
			m.StoreF(t5525, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		if err := run_adi_resilientopt_n73(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n74(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n75(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n76(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n77(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n78(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n80(m, cs, p_tsteps, p_n, b_X, d_X, b_B, d_B, i_t); err != nil {
			return err
		}
		t6115 := p_n - int64(2)
		t6116 := codegen.MaxI(int64(0), t6115)
		t6117 := p_n - int64(2)
		t6118 := codegen.MinI(t6117, int64(0))
		for i_i2 := t6116; i_i2 <= t6118; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6119 := p_n - int64(1)
			t6120 := t6119
			if t6120 < 0 || t6120 >= d_X[0] {
				return m.OOB(t6120, d_X[0], 0, "X", 26, 24)
			}
			t6121 := i_i2
			if t6121 < 0 || t6121 >= d_X[1] {
				return m.OOB(t6121, d_X[1], 1, "X", 26, 24)
			}
			t6122 := b_X + int((t6120)*d_X[1]+t6121)
			r_X_r8 := m.LoadF(t6122)
			t6123 := p_n - int64(1)
			t6124 := t6123
			if t6124 < 0 || t6124 >= d_B[0] {
				return m.OOB(t6124, d_B[0], 0, "B", 26, 39)
			}
			t6125 := i_i2
			if t6125 < 0 || t6125 >= d_B[1] {
				return m.OOB(t6125, d_B[1], 1, "B", 26, 39)
			}
			t6126 := b_B + int((t6124)*d_B[1]+t6125)
			r_B_r9 := m.LoadF(t6126)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t6127 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t6127
			t6128 := p_n - int64(1)
			t6129 := t6128
			if t6129 < 0 || t6129 >= d_X[0] {
				return m.OOB(t6129, d_X[0], 0, "X", 26, 9)
			}
			t6130 := i_i2
			if t6130 < 0 || t6130 >= d_X[1] {
				return m.OOB(t6130, d_X[1], 1, "X", 26, 9)
			}
			t6131 := b_X + int((t6129)*d_X[1]+t6130)
			m.StoreF(t6131, r_X_w5)
			t6132 := -i_t
			t6133 := t6132 + p_tsteps
			t6134 := t6133 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6134)
			t6135 := -i_t
			t6136 := t6135 + p_tsteps
			t6137 := t6136 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6137)
		}
		t6138 := p_n - int64(1)
		t6139 := codegen.MaxI(int64(0), t6138)
		t6140 := p_n - int64(1)
		t6141 := codegen.MinI(t6140, int64(0))
		for i_i2 := t6139; i_i2 <= t6141; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6142 := p_n - int64(1)
			t6143 := t6142
			if t6143 < 0 || t6143 >= d_X[0] {
				return m.OOB(t6143, d_X[0], 0, "X", 26, 24)
			}
			t6144 := i_i2
			if t6144 < 0 || t6144 >= d_X[1] {
				return m.OOB(t6144, d_X[1], 1, "X", 26, 24)
			}
			t6145 := b_X + int((t6143)*d_X[1]+t6144)
			r_X_r8 := m.LoadF(t6145)
			t6146 := p_n - int64(1)
			t6147 := t6146
			if t6147 < 0 || t6147 >= d_B[0] {
				return m.OOB(t6147, d_B[0], 0, "B", 26, 39)
			}
			t6148 := i_i2
			if t6148 < 0 || t6148 >= d_B[1] {
				return m.OOB(t6148, d_B[1], 1, "B", 26, 39)
			}
			t6149 := b_B + int((t6147)*d_B[1]+t6148)
			r_B_r9 := m.LoadF(t6149)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t6150 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t6150
			t6151 := p_n - int64(1)
			t6152 := t6151
			if t6152 < 0 || t6152 >= d_X[0] {
				return m.OOB(t6152, d_X[0], 0, "X", 26, 9)
			}
			t6153 := i_i2
			if t6153 < 0 || t6153 >= d_X[1] {
				return m.OOB(t6153, d_X[1], 1, "X", 26, 9)
			}
			t6154 := b_X + int((t6152)*d_X[1]+t6153)
			m.StoreF(t6154, r_X_w5)
			t6155 := -i_t
			t6156 := t6155 + p_tsteps
			t6157 := t6156 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6157)
		}
		t6158 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t6158; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6159 := p_n - int64(1)
			t6160 := t6159
			if t6160 < 0 || t6160 >= d_X[0] {
				return m.OOB(t6160, d_X[0], 0, "X", 26, 24)
			}
			t6161 := i_i2
			if t6161 < 0 || t6161 >= d_X[1] {
				return m.OOB(t6161, d_X[1], 1, "X", 26, 24)
			}
			t6162 := b_X + int((t6160)*d_X[1]+t6161)
			r_X_r8 := m.LoadF(t6162)
			t6163 := p_n - int64(1)
			t6164 := t6163
			if t6164 < 0 || t6164 >= d_B[0] {
				return m.OOB(t6164, d_B[0], 0, "B", 26, 39)
			}
			t6165 := i_i2
			if t6165 < 0 || t6165 >= d_B[1] {
				return m.OOB(t6165, d_B[1], 1, "B", 26, 39)
			}
			t6166 := b_B + int((t6164)*d_B[1]+t6165)
			r_B_r9 := m.LoadF(t6166)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t6167 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t6167
			t6168 := p_n - int64(1)
			t6169 := t6168
			if t6169 < 0 || t6169 >= d_X[0] {
				return m.OOB(t6169, d_X[0], 0, "X", 26, 9)
			}
			t6170 := i_i2
			if t6170 < 0 || t6170 >= d_X[1] {
				return m.OOB(t6170, d_X[1], 1, "X", 26, 9)
			}
			t6171 := b_X + int((t6169)*d_X[1]+t6170)
			m.StoreF(t6171, r_X_w5)
			t6172 := -i_t
			t6173 := t6172 + p_tsteps
			t6174 := t6173 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6174)
		}
		t6175 := p_n - int64(1)
		t6176 := codegen.MaxI(int64(1), t6175)
		t6177 := p_n - int64(1)
		for i_i2 := t6176; i_i2 <= t6177; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6178 := p_n - int64(1)
			t6179 := t6178
			if t6179 < 0 || t6179 >= d_X[0] {
				return m.OOB(t6179, d_X[0], 0, "X", 26, 24)
			}
			t6180 := i_i2
			if t6180 < 0 || t6180 >= d_X[1] {
				return m.OOB(t6180, d_X[1], 1, "X", 26, 24)
			}
			t6181 := b_X + int((t6179)*d_X[1]+t6180)
			r_X_r8 := m.LoadF(t6181)
			t6182 := p_n - int64(1)
			t6183 := t6182
			if t6183 < 0 || t6183 >= d_B[0] {
				return m.OOB(t6183, d_B[0], 0, "B", 26, 39)
			}
			t6184 := i_i2
			if t6184 < 0 || t6184 >= d_B[1] {
				return m.OOB(t6184, d_B[1], 1, "B", 26, 39)
			}
			t6185 := b_B + int((t6183)*d_B[1]+t6184)
			r_B_r9 := m.LoadF(t6185)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t6186 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t6186
			t6187 := p_n - int64(1)
			t6188 := t6187
			if t6188 < 0 || t6188 >= d_X[0] {
				return m.OOB(t6188, d_X[0], 0, "X", 26, 9)
			}
			t6189 := i_i2
			if t6189 < 0 || t6189 >= d_X[1] {
				return m.OOB(t6189, d_X[1], 1, "X", 26, 9)
			}
			t6190 := b_X + int((t6188)*d_X[1]+t6189)
			m.StoreF(t6190, r_X_w5)
			t6191 := -i_t
			t6192 := t6191 + p_tsteps
			t6193 := t6192 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6193)
		}
		if err := run_adi_resilientopt_n81(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_t); err != nil {
			return err
		}
	}
	return nil
}

func run_adi_resilientopt_n70(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t5054 := p_n - int64(1)
	t5055 := codegen.MinI(t5054, int64(0))
	for i_i1 := int64(0); i_i1 <= t5055; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5056 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t5056; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5057 := i_i1
			if t5057 < 0 || t5057 >= d_X[0] {
				return m.OOB(t5057, d_X[0], 0, "X", 7, 23)
			}
			t5058 := i_i2
			if t5058 < 0 || t5058 >= d_X[1] {
				return m.OOB(t5058, d_X[1], 1, "X", 7, 23)
			}
			t5059 := b_X + int((t5057)*d_X[1]+t5058)
			r_X_r := m.LoadF(t5059)
			t5060 := i_i1
			if t5060 < 0 || t5060 >= d_X[0] {
				return m.OOB(t5060, d_X[0], 0, "X", 7, 35)
			}
			t5061 := i_i2 - int64(1)
			t5062 := t5061
			if t5062 < 0 || t5062 >= d_X[1] {
				return m.OOB(t5062, d_X[1], 1, "X", 7, 35)
			}
			t5063 := b_X + int((t5060)*d_X[1]+t5062)
			r_X_r2 := m.LoadF(t5063)
			t5064 := i_i1
			if t5064 < 0 || t5064 >= d_A[0] {
				return m.OOB(t5064, d_A[0], 0, "A", 7, 51)
			}
			t5065 := i_i2
			if t5065 < 0 || t5065 >= d_A[1] {
				return m.OOB(t5065, d_A[1], 1, "A", 7, 51)
			}
			t5066 := b_A + int((t5064)*d_A[1]+t5065)
			r_A_r := m.LoadF(t5066)
			t5067 := i_i1
			if t5067 < 0 || t5067 >= d_B[0] {
				return m.OOB(t5067, d_B[0], 0, "B", 7, 63)
			}
			t5068 := i_i2 - int64(1)
			t5069 := t5068
			if t5069 < 0 || t5069 >= d_B[1] {
				return m.OOB(t5069, d_B[1], 1, "B", 7, 63)
			}
			t5070 := b_B + int((t5067)*d_B[1]+t5069)
			r_B_r := m.LoadF(t5070)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5071 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5072 := float64(t5071 / r_B_r)
			t5073 := float64(r_X_r - t5072)
			r_X_w := t5073
			t5074 := i_i1
			if t5074 < 0 || t5074 >= d_X[0] {
				return m.OOB(t5074, d_X[0], 0, "X", 7, 11)
			}
			t5075 := i_i2
			if t5075 < 0 || t5075 >= d_X[1] {
				return m.OOB(t5075, d_X[1], 1, "X", 7, 11)
			}
			t5076 := b_X + int((t5074)*d_X[1]+t5075)
			m.StoreF(t5076, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t5077 := i_i1
			if t5077 < 0 || t5077 >= d_B[0] {
				return m.OOB(t5077, d_B[0], 0, "B", 8, 23)
			}
			t5078 := i_i2
			if t5078 < 0 || t5078 >= d_B[1] {
				return m.OOB(t5078, d_B[1], 1, "B", 8, 23)
			}
			t5079 := b_B + int((t5077)*d_B[1]+t5078)
			r_B_r2 := m.LoadF(t5079)
			t5080 := i_i1
			if t5080 < 0 || t5080 >= d_A[0] {
				return m.OOB(t5080, d_A[0], 0, "A", 8, 35)
			}
			t5081 := i_i2
			if t5081 < 0 || t5081 >= d_A[1] {
				return m.OOB(t5081, d_A[1], 1, "A", 8, 35)
			}
			t5082 := b_A + int((t5080)*d_A[1]+t5081)
			r_A_r2 := m.LoadF(t5082)
			t5083 := i_i1
			if t5083 < 0 || t5083 >= d_A[0] {
				return m.OOB(t5083, d_A[0], 0, "A", 8, 47)
			}
			t5084 := i_i2
			if t5084 < 0 || t5084 >= d_A[1] {
				return m.OOB(t5084, d_A[1], 1, "A", 8, 47)
			}
			t5085 := b_A + int((t5083)*d_A[1]+t5084)
			r_A_r3 := m.LoadF(t5085)
			t5086 := i_i1
			if t5086 < 0 || t5086 >= d_B[0] {
				return m.OOB(t5086, d_B[0], 0, "B", 8, 59)
			}
			t5087 := i_i2 - int64(1)
			t5088 := t5087
			if t5088 < 0 || t5088 >= d_B[1] {
				return m.OOB(t5088, d_B[1], 1, "B", 8, 59)
			}
			t5089 := b_B + int((t5086)*d_B[1]+t5088)
			r_B_r3 := m.LoadF(t5089)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5090 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5091 := float64(t5090 / r_B_r3)
			t5092 := float64(r_B_r2 - t5091)
			r_B_w := t5092
			t5093 := i_i1
			if t5093 < 0 || t5093 >= d_B[0] {
				return m.OOB(t5093, d_B[0], 0, "B", 8, 11)
			}
			t5094 := i_i2
			if t5094 < 0 || t5094 >= d_B[1] {
				return m.OOB(t5094, d_B[1], 1, "B", 8, 11)
			}
			t5095 := b_B + int((t5093)*d_B[1]+t5094)
			m.StoreF(t5095, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			t5096 := -i_t
			t5097 := t5096 + p_tsteps
			t5098 := t5097 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t5098)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t5099 := p_n - int64(2)
		t5100 := codegen.MaxI(int64(1), t5099)
		t5101 := p_n - int64(2)
		for i_i2 := t5100; i_i2 <= t5101; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5102 := i_i1
			if t5102 < 0 || t5102 >= d_X[0] {
				return m.OOB(t5102, d_X[0], 0, "X", 7, 23)
			}
			t5103 := i_i2
			if t5103 < 0 || t5103 >= d_X[1] {
				return m.OOB(t5103, d_X[1], 1, "X", 7, 23)
			}
			t5104 := b_X + int((t5102)*d_X[1]+t5103)
			r_X_r := m.LoadF(t5104)
			t5105 := i_i1
			if t5105 < 0 || t5105 >= d_X[0] {
				return m.OOB(t5105, d_X[0], 0, "X", 7, 35)
			}
			t5106 := i_i2 - int64(1)
			t5107 := t5106
			if t5107 < 0 || t5107 >= d_X[1] {
				return m.OOB(t5107, d_X[1], 1, "X", 7, 35)
			}
			t5108 := b_X + int((t5105)*d_X[1]+t5107)
			r_X_r2 := m.LoadF(t5108)
			t5109 := i_i1
			if t5109 < 0 || t5109 >= d_A[0] {
				return m.OOB(t5109, d_A[0], 0, "A", 7, 51)
			}
			t5110 := i_i2
			if t5110 < 0 || t5110 >= d_A[1] {
				return m.OOB(t5110, d_A[1], 1, "A", 7, 51)
			}
			t5111 := b_A + int((t5109)*d_A[1]+t5110)
			r_A_r := m.LoadF(t5111)
			t5112 := i_i1
			if t5112 < 0 || t5112 >= d_B[0] {
				return m.OOB(t5112, d_B[0], 0, "B", 7, 63)
			}
			t5113 := i_i2 - int64(1)
			t5114 := t5113
			if t5114 < 0 || t5114 >= d_B[1] {
				return m.OOB(t5114, d_B[1], 1, "B", 7, 63)
			}
			t5115 := b_B + int((t5112)*d_B[1]+t5114)
			r_B_r := m.LoadF(t5115)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5116 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5117 := float64(t5116 / r_B_r)
			t5118 := float64(r_X_r - t5117)
			r_X_w := t5118
			t5119 := i_i1
			if t5119 < 0 || t5119 >= d_X[0] {
				return m.OOB(t5119, d_X[0], 0, "X", 7, 11)
			}
			t5120 := i_i2
			if t5120 < 0 || t5120 >= d_X[1] {
				return m.OOB(t5120, d_X[1], 1, "X", 7, 11)
			}
			t5121 := b_X + int((t5119)*d_X[1]+t5120)
			m.StoreF(t5121, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t5122 := i_i1
			if t5122 < 0 || t5122 >= d_B[0] {
				return m.OOB(t5122, d_B[0], 0, "B", 8, 23)
			}
			t5123 := i_i2
			if t5123 < 0 || t5123 >= d_B[1] {
				return m.OOB(t5123, d_B[1], 1, "B", 8, 23)
			}
			t5124 := b_B + int((t5122)*d_B[1]+t5123)
			r_B_r2 := m.LoadF(t5124)
			t5125 := i_i1
			if t5125 < 0 || t5125 >= d_A[0] {
				return m.OOB(t5125, d_A[0], 0, "A", 8, 35)
			}
			t5126 := i_i2
			if t5126 < 0 || t5126 >= d_A[1] {
				return m.OOB(t5126, d_A[1], 1, "A", 8, 35)
			}
			t5127 := b_A + int((t5125)*d_A[1]+t5126)
			r_A_r2 := m.LoadF(t5127)
			t5128 := i_i1
			if t5128 < 0 || t5128 >= d_A[0] {
				return m.OOB(t5128, d_A[0], 0, "A", 8, 47)
			}
			t5129 := i_i2
			if t5129 < 0 || t5129 >= d_A[1] {
				return m.OOB(t5129, d_A[1], 1, "A", 8, 47)
			}
			t5130 := b_A + int((t5128)*d_A[1]+t5129)
			r_A_r3 := m.LoadF(t5130)
			t5131 := i_i1
			if t5131 < 0 || t5131 >= d_B[0] {
				return m.OOB(t5131, d_B[0], 0, "B", 8, 59)
			}
			t5132 := i_i2 - int64(1)
			t5133 := t5132
			if t5133 < 0 || t5133 >= d_B[1] {
				return m.OOB(t5133, d_B[1], 1, "B", 8, 59)
			}
			t5134 := b_B + int((t5131)*d_B[1]+t5133)
			r_B_r3 := m.LoadF(t5134)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5135 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5136 := float64(t5135 / r_B_r3)
			t5137 := float64(r_B_r2 - t5136)
			r_B_w := t5137
			t5138 := i_i1
			if t5138 < 0 || t5138 >= d_B[0] {
				return m.OOB(t5138, d_B[0], 0, "B", 8, 11)
			}
			t5139 := i_i2
			if t5139 < 0 || t5139 >= d_B[1] {
				return m.OOB(t5139, d_B[1], 1, "B", 8, 11)
			}
			t5140 := b_B + int((t5138)*d_B[1]+t5139)
			m.StoreF(t5140, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			t5141 := -i_t
			t5142 := t5141 + p_tsteps
			t5143 := t5142 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t5143)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t5144 := p_n - int64(1)
		t5145 := codegen.MaxI(int64(1), t5144)
		t5146 := p_n - int64(1)
		for i_i2 := t5145; i_i2 <= t5146; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5147 := i_i1
			if t5147 < 0 || t5147 >= d_X[0] {
				return m.OOB(t5147, d_X[0], 0, "X", 7, 23)
			}
			t5148 := i_i2
			if t5148 < 0 || t5148 >= d_X[1] {
				return m.OOB(t5148, d_X[1], 1, "X", 7, 23)
			}
			t5149 := b_X + int((t5147)*d_X[1]+t5148)
			r_X_r := m.LoadF(t5149)
			t5150 := i_i1
			if t5150 < 0 || t5150 >= d_X[0] {
				return m.OOB(t5150, d_X[0], 0, "X", 7, 35)
			}
			t5151 := i_i2 - int64(1)
			t5152 := t5151
			if t5152 < 0 || t5152 >= d_X[1] {
				return m.OOB(t5152, d_X[1], 1, "X", 7, 35)
			}
			t5153 := b_X + int((t5150)*d_X[1]+t5152)
			r_X_r2 := m.LoadF(t5153)
			t5154 := i_i1
			if t5154 < 0 || t5154 >= d_A[0] {
				return m.OOB(t5154, d_A[0], 0, "A", 7, 51)
			}
			t5155 := i_i2
			if t5155 < 0 || t5155 >= d_A[1] {
				return m.OOB(t5155, d_A[1], 1, "A", 7, 51)
			}
			t5156 := b_A + int((t5154)*d_A[1]+t5155)
			r_A_r := m.LoadF(t5156)
			t5157 := i_i1
			if t5157 < 0 || t5157 >= d_B[0] {
				return m.OOB(t5157, d_B[0], 0, "B", 7, 63)
			}
			t5158 := i_i2 - int64(1)
			t5159 := t5158
			if t5159 < 0 || t5159 >= d_B[1] {
				return m.OOB(t5159, d_B[1], 1, "B", 7, 63)
			}
			t5160 := b_B + int((t5157)*d_B[1]+t5159)
			r_B_r := m.LoadF(t5160)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5161 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5162 := float64(t5161 / r_B_r)
			t5163 := float64(r_X_r - t5162)
			r_X_w := t5163
			t5164 := i_i1
			if t5164 < 0 || t5164 >= d_X[0] {
				return m.OOB(t5164, d_X[0], 0, "X", 7, 11)
			}
			t5165 := i_i2
			if t5165 < 0 || t5165 >= d_X[1] {
				return m.OOB(t5165, d_X[1], 1, "X", 7, 11)
			}
			t5166 := b_X + int((t5164)*d_X[1]+t5165)
			m.StoreF(t5166, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t5167 := i_i1
			if t5167 < 0 || t5167 >= d_B[0] {
				return m.OOB(t5167, d_B[0], 0, "B", 8, 23)
			}
			t5168 := i_i2
			if t5168 < 0 || t5168 >= d_B[1] {
				return m.OOB(t5168, d_B[1], 1, "B", 8, 23)
			}
			t5169 := b_B + int((t5167)*d_B[1]+t5168)
			r_B_r2 := m.LoadF(t5169)
			t5170 := i_i1
			if t5170 < 0 || t5170 >= d_A[0] {
				return m.OOB(t5170, d_A[0], 0, "A", 8, 35)
			}
			t5171 := i_i2
			if t5171 < 0 || t5171 >= d_A[1] {
				return m.OOB(t5171, d_A[1], 1, "A", 8, 35)
			}
			t5172 := b_A + int((t5170)*d_A[1]+t5171)
			r_A_r2 := m.LoadF(t5172)
			t5173 := i_i1
			if t5173 < 0 || t5173 >= d_A[0] {
				return m.OOB(t5173, d_A[0], 0, "A", 8, 47)
			}
			t5174 := i_i2
			if t5174 < 0 || t5174 >= d_A[1] {
				return m.OOB(t5174, d_A[1], 1, "A", 8, 47)
			}
			t5175 := b_A + int((t5173)*d_A[1]+t5174)
			r_A_r3 := m.LoadF(t5175)
			t5176 := i_i1
			if t5176 < 0 || t5176 >= d_B[0] {
				return m.OOB(t5176, d_B[0], 0, "B", 8, 59)
			}
			t5177 := i_i2 - int64(1)
			t5178 := t5177
			if t5178 < 0 || t5178 >= d_B[1] {
				return m.OOB(t5178, d_B[1], 1, "B", 8, 59)
			}
			t5179 := b_B + int((t5176)*d_B[1]+t5178)
			r_B_r3 := m.LoadF(t5179)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5180 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5181 := float64(t5180 / r_B_r3)
			t5182 := float64(r_B_r2 - t5181)
			r_B_w := t5182
			t5183 := i_i1
			if t5183 < 0 || t5183 >= d_B[0] {
				return m.OOB(t5183, d_B[0], 0, "B", 8, 11)
			}
			t5184 := i_i2
			if t5184 < 0 || t5184 >= d_B[1] {
				return m.OOB(t5184, d_B[1], 1, "B", 8, 11)
			}
			t5185 := b_B + int((t5183)*d_B[1]+t5184)
			m.StoreF(t5185, r_B_w)
			t5186 := -i_t
			t5187 := t5186 + p_tsteps
			t5188 := t5187 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), t5188)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n71(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t5189 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t5189; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5190 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t5190; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5191 := i_i1
			if t5191 < 0 || t5191 >= d_X[0] {
				return m.OOB(t5191, d_X[0], 0, "X", 7, 23)
			}
			t5192 := i_i2
			if t5192 < 0 || t5192 >= d_X[1] {
				return m.OOB(t5192, d_X[1], 1, "X", 7, 23)
			}
			t5193 := b_X + int((t5191)*d_X[1]+t5192)
			r_X_r := m.LoadF(t5193)
			t5194 := i_i1
			if t5194 < 0 || t5194 >= d_X[0] {
				return m.OOB(t5194, d_X[0], 0, "X", 7, 35)
			}
			t5195 := i_i2 - int64(1)
			t5196 := t5195
			if t5196 < 0 || t5196 >= d_X[1] {
				return m.OOB(t5196, d_X[1], 1, "X", 7, 35)
			}
			t5197 := b_X + int((t5194)*d_X[1]+t5196)
			r_X_r2 := m.LoadF(t5197)
			t5198 := i_i1
			if t5198 < 0 || t5198 >= d_A[0] {
				return m.OOB(t5198, d_A[0], 0, "A", 7, 51)
			}
			t5199 := i_i2
			if t5199 < 0 || t5199 >= d_A[1] {
				return m.OOB(t5199, d_A[1], 1, "A", 7, 51)
			}
			t5200 := b_A + int((t5198)*d_A[1]+t5199)
			r_A_r := m.LoadF(t5200)
			t5201 := i_i1
			if t5201 < 0 || t5201 >= d_B[0] {
				return m.OOB(t5201, d_B[0], 0, "B", 7, 63)
			}
			t5202 := i_i2 - int64(1)
			t5203 := t5202
			if t5203 < 0 || t5203 >= d_B[1] {
				return m.OOB(t5203, d_B[1], 1, "B", 7, 63)
			}
			t5204 := b_B + int((t5201)*d_B[1]+t5203)
			r_B_r := m.LoadF(t5204)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5205 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5206 := float64(t5205 / r_B_r)
			t5207 := float64(r_X_r - t5206)
			r_X_w := t5207
			t5208 := i_i1
			if t5208 < 0 || t5208 >= d_X[0] {
				return m.OOB(t5208, d_X[0], 0, "X", 7, 11)
			}
			t5209 := i_i2
			if t5209 < 0 || t5209 >= d_X[1] {
				return m.OOB(t5209, d_X[1], 1, "X", 7, 11)
			}
			t5210 := b_X + int((t5208)*d_X[1]+t5209)
			m.StoreF(t5210, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t5211 := i_i1
			if t5211 < 0 || t5211 >= d_B[0] {
				return m.OOB(t5211, d_B[0], 0, "B", 8, 23)
			}
			t5212 := i_i2
			if t5212 < 0 || t5212 >= d_B[1] {
				return m.OOB(t5212, d_B[1], 1, "B", 8, 23)
			}
			t5213 := b_B + int((t5211)*d_B[1]+t5212)
			r_B_r2 := m.LoadF(t5213)
			t5214 := i_i1
			if t5214 < 0 || t5214 >= d_A[0] {
				return m.OOB(t5214, d_A[0], 0, "A", 8, 35)
			}
			t5215 := i_i2
			if t5215 < 0 || t5215 >= d_A[1] {
				return m.OOB(t5215, d_A[1], 1, "A", 8, 35)
			}
			t5216 := b_A + int((t5214)*d_A[1]+t5215)
			r_A_r2 := m.LoadF(t5216)
			t5217 := i_i1
			if t5217 < 0 || t5217 >= d_A[0] {
				return m.OOB(t5217, d_A[0], 0, "A", 8, 47)
			}
			t5218 := i_i2
			if t5218 < 0 || t5218 >= d_A[1] {
				return m.OOB(t5218, d_A[1], 1, "A", 8, 47)
			}
			t5219 := b_A + int((t5217)*d_A[1]+t5218)
			r_A_r3 := m.LoadF(t5219)
			t5220 := i_i1
			if t5220 < 0 || t5220 >= d_B[0] {
				return m.OOB(t5220, d_B[0], 0, "B", 8, 59)
			}
			t5221 := i_i2 - int64(1)
			t5222 := t5221
			if t5222 < 0 || t5222 >= d_B[1] {
				return m.OOB(t5222, d_B[1], 1, "B", 8, 59)
			}
			t5223 := b_B + int((t5220)*d_B[1]+t5222)
			r_B_r3 := m.LoadF(t5223)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5224 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5225 := float64(t5224 / r_B_r3)
			t5226 := float64(r_B_r2 - t5225)
			r_B_w := t5226
			t5227 := i_i1
			if t5227 < 0 || t5227 >= d_B[0] {
				return m.OOB(t5227, d_B[0], 0, "B", 8, 11)
			}
			t5228 := i_i2
			if t5228 < 0 || t5228 >= d_B[1] {
				return m.OOB(t5228, d_B[1], 1, "B", 8, 11)
			}
			t5229 := b_B + int((t5227)*d_B[1]+t5228)
			m.StoreF(t5229, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t5230 := p_n - int64(2)
		t5231 := codegen.MaxI(int64(1), t5230)
		t5232 := p_n - int64(2)
		for i_i2 := t5231; i_i2 <= t5232; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5233 := i_i1
			if t5233 < 0 || t5233 >= d_X[0] {
				return m.OOB(t5233, d_X[0], 0, "X", 7, 23)
			}
			t5234 := i_i2
			if t5234 < 0 || t5234 >= d_X[1] {
				return m.OOB(t5234, d_X[1], 1, "X", 7, 23)
			}
			t5235 := b_X + int((t5233)*d_X[1]+t5234)
			r_X_r := m.LoadF(t5235)
			t5236 := i_i1
			if t5236 < 0 || t5236 >= d_X[0] {
				return m.OOB(t5236, d_X[0], 0, "X", 7, 35)
			}
			t5237 := i_i2 - int64(1)
			t5238 := t5237
			if t5238 < 0 || t5238 >= d_X[1] {
				return m.OOB(t5238, d_X[1], 1, "X", 7, 35)
			}
			t5239 := b_X + int((t5236)*d_X[1]+t5238)
			r_X_r2 := m.LoadF(t5239)
			t5240 := i_i1
			if t5240 < 0 || t5240 >= d_A[0] {
				return m.OOB(t5240, d_A[0], 0, "A", 7, 51)
			}
			t5241 := i_i2
			if t5241 < 0 || t5241 >= d_A[1] {
				return m.OOB(t5241, d_A[1], 1, "A", 7, 51)
			}
			t5242 := b_A + int((t5240)*d_A[1]+t5241)
			r_A_r := m.LoadF(t5242)
			t5243 := i_i1
			if t5243 < 0 || t5243 >= d_B[0] {
				return m.OOB(t5243, d_B[0], 0, "B", 7, 63)
			}
			t5244 := i_i2 - int64(1)
			t5245 := t5244
			if t5245 < 0 || t5245 >= d_B[1] {
				return m.OOB(t5245, d_B[1], 1, "B", 7, 63)
			}
			t5246 := b_B + int((t5243)*d_B[1]+t5245)
			r_B_r := m.LoadF(t5246)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5247 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5248 := float64(t5247 / r_B_r)
			t5249 := float64(r_X_r - t5248)
			r_X_w := t5249
			t5250 := i_i1
			if t5250 < 0 || t5250 >= d_X[0] {
				return m.OOB(t5250, d_X[0], 0, "X", 7, 11)
			}
			t5251 := i_i2
			if t5251 < 0 || t5251 >= d_X[1] {
				return m.OOB(t5251, d_X[1], 1, "X", 7, 11)
			}
			t5252 := b_X + int((t5250)*d_X[1]+t5251)
			m.StoreF(t5252, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t5253 := i_i1
			if t5253 < 0 || t5253 >= d_B[0] {
				return m.OOB(t5253, d_B[0], 0, "B", 8, 23)
			}
			t5254 := i_i2
			if t5254 < 0 || t5254 >= d_B[1] {
				return m.OOB(t5254, d_B[1], 1, "B", 8, 23)
			}
			t5255 := b_B + int((t5253)*d_B[1]+t5254)
			r_B_r2 := m.LoadF(t5255)
			t5256 := i_i1
			if t5256 < 0 || t5256 >= d_A[0] {
				return m.OOB(t5256, d_A[0], 0, "A", 8, 35)
			}
			t5257 := i_i2
			if t5257 < 0 || t5257 >= d_A[1] {
				return m.OOB(t5257, d_A[1], 1, "A", 8, 35)
			}
			t5258 := b_A + int((t5256)*d_A[1]+t5257)
			r_A_r2 := m.LoadF(t5258)
			t5259 := i_i1
			if t5259 < 0 || t5259 >= d_A[0] {
				return m.OOB(t5259, d_A[0], 0, "A", 8, 47)
			}
			t5260 := i_i2
			if t5260 < 0 || t5260 >= d_A[1] {
				return m.OOB(t5260, d_A[1], 1, "A", 8, 47)
			}
			t5261 := b_A + int((t5259)*d_A[1]+t5260)
			r_A_r3 := m.LoadF(t5261)
			t5262 := i_i1
			if t5262 < 0 || t5262 >= d_B[0] {
				return m.OOB(t5262, d_B[0], 0, "B", 8, 59)
			}
			t5263 := i_i2 - int64(1)
			t5264 := t5263
			if t5264 < 0 || t5264 >= d_B[1] {
				return m.OOB(t5264, d_B[1], 1, "B", 8, 59)
			}
			t5265 := b_B + int((t5262)*d_B[1]+t5264)
			r_B_r3 := m.LoadF(t5265)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5266 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5267 := float64(t5266 / r_B_r3)
			t5268 := float64(r_B_r2 - t5267)
			r_B_w := t5268
			t5269 := i_i1
			if t5269 < 0 || t5269 >= d_B[0] {
				return m.OOB(t5269, d_B[0], 0, "B", 8, 11)
			}
			t5270 := i_i2
			if t5270 < 0 || t5270 >= d_B[1] {
				return m.OOB(t5270, d_B[1], 1, "B", 8, 11)
			}
			t5271 := b_B + int((t5269)*d_B[1]+t5270)
			m.StoreF(t5271, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t5272 := p_n - int64(1)
		t5273 := codegen.MaxI(int64(1), t5272)
		t5274 := p_n - int64(1)
		for i_i2 := t5273; i_i2 <= t5274; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5275 := i_i1
			if t5275 < 0 || t5275 >= d_X[0] {
				return m.OOB(t5275, d_X[0], 0, "X", 7, 23)
			}
			t5276 := i_i2
			if t5276 < 0 || t5276 >= d_X[1] {
				return m.OOB(t5276, d_X[1], 1, "X", 7, 23)
			}
			t5277 := b_X + int((t5275)*d_X[1]+t5276)
			r_X_r := m.LoadF(t5277)
			t5278 := i_i1
			if t5278 < 0 || t5278 >= d_X[0] {
				return m.OOB(t5278, d_X[0], 0, "X", 7, 35)
			}
			t5279 := i_i2 - int64(1)
			t5280 := t5279
			if t5280 < 0 || t5280 >= d_X[1] {
				return m.OOB(t5280, d_X[1], 1, "X", 7, 35)
			}
			t5281 := b_X + int((t5278)*d_X[1]+t5280)
			r_X_r2 := m.LoadF(t5281)
			t5282 := i_i1
			if t5282 < 0 || t5282 >= d_A[0] {
				return m.OOB(t5282, d_A[0], 0, "A", 7, 51)
			}
			t5283 := i_i2
			if t5283 < 0 || t5283 >= d_A[1] {
				return m.OOB(t5283, d_A[1], 1, "A", 7, 51)
			}
			t5284 := b_A + int((t5282)*d_A[1]+t5283)
			r_A_r := m.LoadF(t5284)
			t5285 := i_i1
			if t5285 < 0 || t5285 >= d_B[0] {
				return m.OOB(t5285, d_B[0], 0, "B", 7, 63)
			}
			t5286 := i_i2 - int64(1)
			t5287 := t5286
			if t5287 < 0 || t5287 >= d_B[1] {
				return m.OOB(t5287, d_B[1], 1, "B", 7, 63)
			}
			t5288 := b_B + int((t5285)*d_B[1]+t5287)
			r_B_r := m.LoadF(t5288)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5289 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5290 := float64(t5289 / r_B_r)
			t5291 := float64(r_X_r - t5290)
			r_X_w := t5291
			t5292 := i_i1
			if t5292 < 0 || t5292 >= d_X[0] {
				return m.OOB(t5292, d_X[0], 0, "X", 7, 11)
			}
			t5293 := i_i2
			if t5293 < 0 || t5293 >= d_X[1] {
				return m.OOB(t5293, d_X[1], 1, "X", 7, 11)
			}
			t5294 := b_X + int((t5292)*d_X[1]+t5293)
			m.StoreF(t5294, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t5295 := i_i1
			if t5295 < 0 || t5295 >= d_B[0] {
				return m.OOB(t5295, d_B[0], 0, "B", 8, 23)
			}
			t5296 := i_i2
			if t5296 < 0 || t5296 >= d_B[1] {
				return m.OOB(t5296, d_B[1], 1, "B", 8, 23)
			}
			t5297 := b_B + int((t5295)*d_B[1]+t5296)
			r_B_r2 := m.LoadF(t5297)
			t5298 := i_i1
			if t5298 < 0 || t5298 >= d_A[0] {
				return m.OOB(t5298, d_A[0], 0, "A", 8, 35)
			}
			t5299 := i_i2
			if t5299 < 0 || t5299 >= d_A[1] {
				return m.OOB(t5299, d_A[1], 1, "A", 8, 35)
			}
			t5300 := b_A + int((t5298)*d_A[1]+t5299)
			r_A_r2 := m.LoadF(t5300)
			t5301 := i_i1
			if t5301 < 0 || t5301 >= d_A[0] {
				return m.OOB(t5301, d_A[0], 0, "A", 8, 47)
			}
			t5302 := i_i2
			if t5302 < 0 || t5302 >= d_A[1] {
				return m.OOB(t5302, d_A[1], 1, "A", 8, 47)
			}
			t5303 := b_A + int((t5301)*d_A[1]+t5302)
			r_A_r3 := m.LoadF(t5303)
			t5304 := i_i1
			if t5304 < 0 || t5304 >= d_B[0] {
				return m.OOB(t5304, d_B[0], 0, "B", 8, 59)
			}
			t5305 := i_i2 - int64(1)
			t5306 := t5305
			if t5306 < 0 || t5306 >= d_B[1] {
				return m.OOB(t5306, d_B[1], 1, "B", 8, 59)
			}
			t5307 := b_B + int((t5304)*d_B[1]+t5306)
			r_B_r3 := m.LoadF(t5307)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5308 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5309 := float64(t5308 / r_B_r3)
			t5310 := float64(r_B_r2 - t5309)
			r_B_w := t5310
			t5311 := i_i1
			if t5311 < 0 || t5311 >= d_B[0] {
				return m.OOB(t5311, d_B[0], 0, "B", 8, 11)
			}
			t5312 := i_i2
			if t5312 < 0 || t5312 >= d_B[1] {
				return m.OOB(t5312, d_B[1], 1, "B", 8, 11)
			}
			t5313 := b_B + int((t5311)*d_B[1]+t5312)
			m.StoreF(t5313, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n72(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t5314 := p_n - int64(1)
	t5315 := codegen.MaxI(int64(1), t5314)
	t5316 := p_n - int64(1)
	for i_i1 := t5315; i_i1 <= t5316; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5317 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t5317; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5318 := i_i1
			if t5318 < 0 || t5318 >= d_X[0] {
				return m.OOB(t5318, d_X[0], 0, "X", 7, 23)
			}
			t5319 := i_i2
			if t5319 < 0 || t5319 >= d_X[1] {
				return m.OOB(t5319, d_X[1], 1, "X", 7, 23)
			}
			t5320 := b_X + int((t5318)*d_X[1]+t5319)
			r_X_r := m.LoadF(t5320)
			t5321 := i_i1
			if t5321 < 0 || t5321 >= d_X[0] {
				return m.OOB(t5321, d_X[0], 0, "X", 7, 35)
			}
			t5322 := i_i2 - int64(1)
			t5323 := t5322
			if t5323 < 0 || t5323 >= d_X[1] {
				return m.OOB(t5323, d_X[1], 1, "X", 7, 35)
			}
			t5324 := b_X + int((t5321)*d_X[1]+t5323)
			r_X_r2 := m.LoadF(t5324)
			t5325 := i_i1
			if t5325 < 0 || t5325 >= d_A[0] {
				return m.OOB(t5325, d_A[0], 0, "A", 7, 51)
			}
			t5326 := i_i2
			if t5326 < 0 || t5326 >= d_A[1] {
				return m.OOB(t5326, d_A[1], 1, "A", 7, 51)
			}
			t5327 := b_A + int((t5325)*d_A[1]+t5326)
			r_A_r := m.LoadF(t5327)
			t5328 := i_i1
			if t5328 < 0 || t5328 >= d_B[0] {
				return m.OOB(t5328, d_B[0], 0, "B", 7, 63)
			}
			t5329 := i_i2 - int64(1)
			t5330 := t5329
			if t5330 < 0 || t5330 >= d_B[1] {
				return m.OOB(t5330, d_B[1], 1, "B", 7, 63)
			}
			t5331 := b_B + int((t5328)*d_B[1]+t5330)
			r_B_r := m.LoadF(t5331)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5332 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5333 := float64(t5332 / r_B_r)
			t5334 := float64(r_X_r - t5333)
			r_X_w := t5334
			t5335 := i_i1
			if t5335 < 0 || t5335 >= d_X[0] {
				return m.OOB(t5335, d_X[0], 0, "X", 7, 11)
			}
			t5336 := i_i2
			if t5336 < 0 || t5336 >= d_X[1] {
				return m.OOB(t5336, d_X[1], 1, "X", 7, 11)
			}
			t5337 := b_X + int((t5335)*d_X[1]+t5336)
			m.StoreF(t5337, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t5338 := i_i1
			if t5338 < 0 || t5338 >= d_B[0] {
				return m.OOB(t5338, d_B[0], 0, "B", 8, 23)
			}
			t5339 := i_i2
			if t5339 < 0 || t5339 >= d_B[1] {
				return m.OOB(t5339, d_B[1], 1, "B", 8, 23)
			}
			t5340 := b_B + int((t5338)*d_B[1]+t5339)
			r_B_r2 := m.LoadF(t5340)
			t5341 := i_i1
			if t5341 < 0 || t5341 >= d_A[0] {
				return m.OOB(t5341, d_A[0], 0, "A", 8, 35)
			}
			t5342 := i_i2
			if t5342 < 0 || t5342 >= d_A[1] {
				return m.OOB(t5342, d_A[1], 1, "A", 8, 35)
			}
			t5343 := b_A + int((t5341)*d_A[1]+t5342)
			r_A_r2 := m.LoadF(t5343)
			t5344 := i_i1
			if t5344 < 0 || t5344 >= d_A[0] {
				return m.OOB(t5344, d_A[0], 0, "A", 8, 47)
			}
			t5345 := i_i2
			if t5345 < 0 || t5345 >= d_A[1] {
				return m.OOB(t5345, d_A[1], 1, "A", 8, 47)
			}
			t5346 := b_A + int((t5344)*d_A[1]+t5345)
			r_A_r3 := m.LoadF(t5346)
			t5347 := i_i1
			if t5347 < 0 || t5347 >= d_B[0] {
				return m.OOB(t5347, d_B[0], 0, "B", 8, 59)
			}
			t5348 := i_i2 - int64(1)
			t5349 := t5348
			if t5349 < 0 || t5349 >= d_B[1] {
				return m.OOB(t5349, d_B[1], 1, "B", 8, 59)
			}
			t5350 := b_B + int((t5347)*d_B[1]+t5349)
			r_B_r3 := m.LoadF(t5350)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5351 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5352 := float64(t5351 / r_B_r3)
			t5353 := float64(r_B_r2 - t5352)
			r_B_w := t5353
			t5354 := i_i1
			if t5354 < 0 || t5354 >= d_B[0] {
				return m.OOB(t5354, d_B[0], 0, "B", 8, 11)
			}
			t5355 := i_i2
			if t5355 < 0 || t5355 >= d_B[1] {
				return m.OOB(t5355, d_B[1], 1, "B", 8, 11)
			}
			t5356 := b_B + int((t5354)*d_B[1]+t5355)
			m.StoreF(t5356, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t5357 := p_n - int64(2)
		t5358 := codegen.MaxI(int64(1), t5357)
		t5359 := p_n - int64(2)
		for i_i2 := t5358; i_i2 <= t5359; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5360 := i_i1
			if t5360 < 0 || t5360 >= d_X[0] {
				return m.OOB(t5360, d_X[0], 0, "X", 7, 23)
			}
			t5361 := i_i2
			if t5361 < 0 || t5361 >= d_X[1] {
				return m.OOB(t5361, d_X[1], 1, "X", 7, 23)
			}
			t5362 := b_X + int((t5360)*d_X[1]+t5361)
			r_X_r := m.LoadF(t5362)
			t5363 := i_i1
			if t5363 < 0 || t5363 >= d_X[0] {
				return m.OOB(t5363, d_X[0], 0, "X", 7, 35)
			}
			t5364 := i_i2 - int64(1)
			t5365 := t5364
			if t5365 < 0 || t5365 >= d_X[1] {
				return m.OOB(t5365, d_X[1], 1, "X", 7, 35)
			}
			t5366 := b_X + int((t5363)*d_X[1]+t5365)
			r_X_r2 := m.LoadF(t5366)
			t5367 := i_i1
			if t5367 < 0 || t5367 >= d_A[0] {
				return m.OOB(t5367, d_A[0], 0, "A", 7, 51)
			}
			t5368 := i_i2
			if t5368 < 0 || t5368 >= d_A[1] {
				return m.OOB(t5368, d_A[1], 1, "A", 7, 51)
			}
			t5369 := b_A + int((t5367)*d_A[1]+t5368)
			r_A_r := m.LoadF(t5369)
			t5370 := i_i1
			if t5370 < 0 || t5370 >= d_B[0] {
				return m.OOB(t5370, d_B[0], 0, "B", 7, 63)
			}
			t5371 := i_i2 - int64(1)
			t5372 := t5371
			if t5372 < 0 || t5372 >= d_B[1] {
				return m.OOB(t5372, d_B[1], 1, "B", 7, 63)
			}
			t5373 := b_B + int((t5370)*d_B[1]+t5372)
			r_B_r := m.LoadF(t5373)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5374 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5375 := float64(t5374 / r_B_r)
			t5376 := float64(r_X_r - t5375)
			r_X_w := t5376
			t5377 := i_i1
			if t5377 < 0 || t5377 >= d_X[0] {
				return m.OOB(t5377, d_X[0], 0, "X", 7, 11)
			}
			t5378 := i_i2
			if t5378 < 0 || t5378 >= d_X[1] {
				return m.OOB(t5378, d_X[1], 1, "X", 7, 11)
			}
			t5379 := b_X + int((t5377)*d_X[1]+t5378)
			m.StoreF(t5379, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t5380 := i_i1
			if t5380 < 0 || t5380 >= d_B[0] {
				return m.OOB(t5380, d_B[0], 0, "B", 8, 23)
			}
			t5381 := i_i2
			if t5381 < 0 || t5381 >= d_B[1] {
				return m.OOB(t5381, d_B[1], 1, "B", 8, 23)
			}
			t5382 := b_B + int((t5380)*d_B[1]+t5381)
			r_B_r2 := m.LoadF(t5382)
			t5383 := i_i1
			if t5383 < 0 || t5383 >= d_A[0] {
				return m.OOB(t5383, d_A[0], 0, "A", 8, 35)
			}
			t5384 := i_i2
			if t5384 < 0 || t5384 >= d_A[1] {
				return m.OOB(t5384, d_A[1], 1, "A", 8, 35)
			}
			t5385 := b_A + int((t5383)*d_A[1]+t5384)
			r_A_r2 := m.LoadF(t5385)
			t5386 := i_i1
			if t5386 < 0 || t5386 >= d_A[0] {
				return m.OOB(t5386, d_A[0], 0, "A", 8, 47)
			}
			t5387 := i_i2
			if t5387 < 0 || t5387 >= d_A[1] {
				return m.OOB(t5387, d_A[1], 1, "A", 8, 47)
			}
			t5388 := b_A + int((t5386)*d_A[1]+t5387)
			r_A_r3 := m.LoadF(t5388)
			t5389 := i_i1
			if t5389 < 0 || t5389 >= d_B[0] {
				return m.OOB(t5389, d_B[0], 0, "B", 8, 59)
			}
			t5390 := i_i2 - int64(1)
			t5391 := t5390
			if t5391 < 0 || t5391 >= d_B[1] {
				return m.OOB(t5391, d_B[1], 1, "B", 8, 59)
			}
			t5392 := b_B + int((t5389)*d_B[1]+t5391)
			r_B_r3 := m.LoadF(t5392)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5393 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5394 := float64(t5393 / r_B_r3)
			t5395 := float64(r_B_r2 - t5394)
			r_B_w := t5395
			t5396 := i_i1
			if t5396 < 0 || t5396 >= d_B[0] {
				return m.OOB(t5396, d_B[0], 0, "B", 8, 11)
			}
			t5397 := i_i2
			if t5397 < 0 || t5397 >= d_B[1] {
				return m.OOB(t5397, d_B[1], 1, "B", 8, 11)
			}
			t5398 := b_B + int((t5396)*d_B[1]+t5397)
			m.StoreF(t5398, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t5399 := p_n - int64(1)
		t5400 := codegen.MaxI(int64(1), t5399)
		t5401 := p_n - int64(1)
		for i_i2 := t5400; i_i2 <= t5401; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5402 := i_i1
			if t5402 < 0 || t5402 >= d_X[0] {
				return m.OOB(t5402, d_X[0], 0, "X", 7, 23)
			}
			t5403 := i_i2
			if t5403 < 0 || t5403 >= d_X[1] {
				return m.OOB(t5403, d_X[1], 1, "X", 7, 23)
			}
			t5404 := b_X + int((t5402)*d_X[1]+t5403)
			r_X_r := m.LoadF(t5404)
			t5405 := i_i1
			if t5405 < 0 || t5405 >= d_X[0] {
				return m.OOB(t5405, d_X[0], 0, "X", 7, 35)
			}
			t5406 := i_i2 - int64(1)
			t5407 := t5406
			if t5407 < 0 || t5407 >= d_X[1] {
				return m.OOB(t5407, d_X[1], 1, "X", 7, 35)
			}
			t5408 := b_X + int((t5405)*d_X[1]+t5407)
			r_X_r2 := m.LoadF(t5408)
			t5409 := i_i1
			if t5409 < 0 || t5409 >= d_A[0] {
				return m.OOB(t5409, d_A[0], 0, "A", 7, 51)
			}
			t5410 := i_i2
			if t5410 < 0 || t5410 >= d_A[1] {
				return m.OOB(t5410, d_A[1], 1, "A", 7, 51)
			}
			t5411 := b_A + int((t5409)*d_A[1]+t5410)
			r_A_r := m.LoadF(t5411)
			t5412 := i_i1
			if t5412 < 0 || t5412 >= d_B[0] {
				return m.OOB(t5412, d_B[0], 0, "B", 7, 63)
			}
			t5413 := i_i2 - int64(1)
			t5414 := t5413
			if t5414 < 0 || t5414 >= d_B[1] {
				return m.OOB(t5414, d_B[1], 1, "B", 7, 63)
			}
			t5415 := b_B + int((t5412)*d_B[1]+t5414)
			r_B_r := m.LoadF(t5415)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t5416 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t5417 := float64(t5416 / r_B_r)
			t5418 := float64(r_X_r - t5417)
			r_X_w := t5418
			t5419 := i_i1
			if t5419 < 0 || t5419 >= d_X[0] {
				return m.OOB(t5419, d_X[0], 0, "X", 7, 11)
			}
			t5420 := i_i2
			if t5420 < 0 || t5420 >= d_X[1] {
				return m.OOB(t5420, d_X[1], 1, "X", 7, 11)
			}
			t5421 := b_X + int((t5419)*d_X[1]+t5420)
			m.StoreF(t5421, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t5422 := i_i1
			if t5422 < 0 || t5422 >= d_B[0] {
				return m.OOB(t5422, d_B[0], 0, "B", 8, 23)
			}
			t5423 := i_i2
			if t5423 < 0 || t5423 >= d_B[1] {
				return m.OOB(t5423, d_B[1], 1, "B", 8, 23)
			}
			t5424 := b_B + int((t5422)*d_B[1]+t5423)
			r_B_r2 := m.LoadF(t5424)
			t5425 := i_i1
			if t5425 < 0 || t5425 >= d_A[0] {
				return m.OOB(t5425, d_A[0], 0, "A", 8, 35)
			}
			t5426 := i_i2
			if t5426 < 0 || t5426 >= d_A[1] {
				return m.OOB(t5426, d_A[1], 1, "A", 8, 35)
			}
			t5427 := b_A + int((t5425)*d_A[1]+t5426)
			r_A_r2 := m.LoadF(t5427)
			t5428 := i_i1
			if t5428 < 0 || t5428 >= d_A[0] {
				return m.OOB(t5428, d_A[0], 0, "A", 8, 47)
			}
			t5429 := i_i2
			if t5429 < 0 || t5429 >= d_A[1] {
				return m.OOB(t5429, d_A[1], 1, "A", 8, 47)
			}
			t5430 := b_A + int((t5428)*d_A[1]+t5429)
			r_A_r3 := m.LoadF(t5430)
			t5431 := i_i1
			if t5431 < 0 || t5431 >= d_B[0] {
				return m.OOB(t5431, d_B[0], 0, "B", 8, 59)
			}
			t5432 := i_i2 - int64(1)
			t5433 := t5432
			if t5433 < 0 || t5433 >= d_B[1] {
				return m.OOB(t5433, d_B[1], 1, "B", 8, 59)
			}
			t5434 := b_B + int((t5431)*d_B[1]+t5433)
			r_B_r3 := m.LoadF(t5434)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t5435 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t5436 := float64(t5435 / r_B_r3)
			t5437 := float64(r_B_r2 - t5436)
			r_B_w := t5437
			t5438 := i_i1
			if t5438 < 0 || t5438 >= d_B[0] {
				return m.OOB(t5438, d_B[0], 0, "B", 8, 11)
			}
			t5439 := i_i2
			if t5439 < 0 || t5439 >= d_B[1] {
				return m.OOB(t5439, d_B[1], 1, "B", 8, 11)
			}
			t5440 := b_B + int((t5438)*d_B[1]+t5439)
			m.StoreF(t5440, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n73(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t5526 := p_n - int64(1)
	t5527 := codegen.MinI(t5526, int64(0))
	for i_i1 := int64(0); i_i1 <= t5527; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5528 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t5528; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t5529 := i_i1
			if t5529 < 0 || t5529 >= d_X[0] {
				return m.OOB(t5529, d_X[0], 0, "X", 16, 32)
			}
			t5530 := p_n - int64(2)
			t5531 := t5530 - i_i2
			t5532 := t5531
			if t5532 < 0 || t5532 >= d_X[1] {
				return m.OOB(t5532, d_X[1], 1, "X", 16, 32)
			}
			t5533 := b_X + int((t5529)*d_X[1]+t5532)
			r_X_r4 := m.LoadF(t5533)
			t5534 := i_i1
			if t5534 < 0 || t5534 >= d_X[0] {
				return m.OOB(t5534, d_X[0], 0, "X", 16, 52)
			}
			t5535 := p_n - int64(2)
			t5536 := t5535 - i_i2
			t5537 := t5536 - int64(1)
			t5538 := t5537
			if t5538 < 0 || t5538 >= d_X[1] {
				return m.OOB(t5538, d_X[1], 1, "X", 16, 52)
			}
			t5539 := b_X + int((t5534)*d_X[1]+t5538)
			r_X_r5 := m.LoadF(t5539)
			t5540 := i_i1
			if t5540 < 0 || t5540 >= d_A[0] {
				return m.OOB(t5540, d_A[0], 0, "A", 16, 76)
			}
			t5541 := p_n - i_i2
			t5542 := t5541 - int64(3)
			t5543 := t5542
			if t5543 < 0 || t5543 >= d_A[1] {
				return m.OOB(t5543, d_A[1], 1, "A", 16, 76)
			}
			t5544 := b_A + int((t5540)*d_A[1]+t5543)
			r_A_r4 := m.LoadF(t5544)
			t5545 := i_i1
			if t5545 < 0 || t5545 >= d_B[0] {
				return m.OOB(t5545, d_B[0], 0, "B", 16, 97)
			}
			t5546 := p_n - int64(3)
			t5547 := t5546 - i_i2
			t5548 := t5547
			if t5548 < 0 || t5548 >= d_B[1] {
				return m.OOB(t5548, d_B[1], 1, "B", 16, 97)
			}
			t5549 := b_B + int((t5545)*d_B[1]+t5548)
			r_B_r5 := m.LoadF(t5549)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t5550 := float64(r_X_r5 * r_A_r4)
			t5551 := float64(r_X_r4 - t5550)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t5552 := float64(t5551 / r_B_r5)
			r_X_w3 := t5552
			t5553 := i_i1
			if t5553 < 0 || t5553 >= d_X[0] {
				return m.OOB(t5553, d_X[0], 0, "X", 16, 11)
			}
			t5554 := p_n - i_i2
			t5555 := t5554 - int64(2)
			t5556 := t5555
			if t5556 < 0 || t5556 >= d_X[1] {
				return m.OOB(t5556, d_X[1], 1, "X", 16, 11)
			}
			t5557 := b_X + int((t5553)*d_X[1]+t5556)
			m.StoreF(t5557, r_X_w3)
			t5558 := -i_t
			t5559 := t5558 + p_tsteps
			t5560 := t5559 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), t5560)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n74(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t5561 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t5561; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5562 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t5562; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t5563 := i_i1
			if t5563 < 0 || t5563 >= d_X[0] {
				return m.OOB(t5563, d_X[0], 0, "X", 16, 32)
			}
			t5564 := p_n - int64(2)
			t5565 := t5564 - i_i2
			t5566 := t5565
			if t5566 < 0 || t5566 >= d_X[1] {
				return m.OOB(t5566, d_X[1], 1, "X", 16, 32)
			}
			t5567 := b_X + int((t5563)*d_X[1]+t5566)
			r_X_r4 := m.LoadF(t5567)
			t5568 := i_i1
			if t5568 < 0 || t5568 >= d_X[0] {
				return m.OOB(t5568, d_X[0], 0, "X", 16, 52)
			}
			t5569 := p_n - int64(2)
			t5570 := t5569 - i_i2
			t5571 := t5570 - int64(1)
			t5572 := t5571
			if t5572 < 0 || t5572 >= d_X[1] {
				return m.OOB(t5572, d_X[1], 1, "X", 16, 52)
			}
			t5573 := b_X + int((t5568)*d_X[1]+t5572)
			r_X_r5 := m.LoadF(t5573)
			t5574 := i_i1
			if t5574 < 0 || t5574 >= d_A[0] {
				return m.OOB(t5574, d_A[0], 0, "A", 16, 76)
			}
			t5575 := p_n - i_i2
			t5576 := t5575 - int64(3)
			t5577 := t5576
			if t5577 < 0 || t5577 >= d_A[1] {
				return m.OOB(t5577, d_A[1], 1, "A", 16, 76)
			}
			t5578 := b_A + int((t5574)*d_A[1]+t5577)
			r_A_r4 := m.LoadF(t5578)
			t5579 := i_i1
			if t5579 < 0 || t5579 >= d_B[0] {
				return m.OOB(t5579, d_B[0], 0, "B", 16, 97)
			}
			t5580 := p_n - int64(3)
			t5581 := t5580 - i_i2
			t5582 := t5581
			if t5582 < 0 || t5582 >= d_B[1] {
				return m.OOB(t5582, d_B[1], 1, "B", 16, 97)
			}
			t5583 := b_B + int((t5579)*d_B[1]+t5582)
			r_B_r5 := m.LoadF(t5583)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t5584 := float64(r_X_r5 * r_A_r4)
			t5585 := float64(r_X_r4 - t5584)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t5586 := float64(t5585 / r_B_r5)
			r_X_w3 := t5586
			t5587 := i_i1
			if t5587 < 0 || t5587 >= d_X[0] {
				return m.OOB(t5587, d_X[0], 0, "X", 16, 11)
			}
			t5588 := p_n - i_i2
			t5589 := t5588 - int64(2)
			t5590 := t5589
			if t5590 < 0 || t5590 >= d_X[1] {
				return m.OOB(t5590, d_X[1], 1, "X", 16, 11)
			}
			t5591 := b_X + int((t5587)*d_X[1]+t5590)
			m.StoreF(t5591, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n75(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t5592 := p_n - int64(1)
	t5593 := codegen.MaxI(int64(1), t5592)
	t5594 := p_n - int64(1)
	for i_i1 := t5593; i_i1 <= t5594; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5595 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t5595; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t5596 := i_i1
			if t5596 < 0 || t5596 >= d_X[0] {
				return m.OOB(t5596, d_X[0], 0, "X", 16, 32)
			}
			t5597 := p_n - int64(2)
			t5598 := t5597 - i_i2
			t5599 := t5598
			if t5599 < 0 || t5599 >= d_X[1] {
				return m.OOB(t5599, d_X[1], 1, "X", 16, 32)
			}
			t5600 := b_X + int((t5596)*d_X[1]+t5599)
			r_X_r4 := m.LoadF(t5600)
			t5601 := i_i1
			if t5601 < 0 || t5601 >= d_X[0] {
				return m.OOB(t5601, d_X[0], 0, "X", 16, 52)
			}
			t5602 := p_n - int64(2)
			t5603 := t5602 - i_i2
			t5604 := t5603 - int64(1)
			t5605 := t5604
			if t5605 < 0 || t5605 >= d_X[1] {
				return m.OOB(t5605, d_X[1], 1, "X", 16, 52)
			}
			t5606 := b_X + int((t5601)*d_X[1]+t5605)
			r_X_r5 := m.LoadF(t5606)
			t5607 := i_i1
			if t5607 < 0 || t5607 >= d_A[0] {
				return m.OOB(t5607, d_A[0], 0, "A", 16, 76)
			}
			t5608 := p_n - i_i2
			t5609 := t5608 - int64(3)
			t5610 := t5609
			if t5610 < 0 || t5610 >= d_A[1] {
				return m.OOB(t5610, d_A[1], 1, "A", 16, 76)
			}
			t5611 := b_A + int((t5607)*d_A[1]+t5610)
			r_A_r4 := m.LoadF(t5611)
			t5612 := i_i1
			if t5612 < 0 || t5612 >= d_B[0] {
				return m.OOB(t5612, d_B[0], 0, "B", 16, 97)
			}
			t5613 := p_n - int64(3)
			t5614 := t5613 - i_i2
			t5615 := t5614
			if t5615 < 0 || t5615 >= d_B[1] {
				return m.OOB(t5615, d_B[1], 1, "B", 16, 97)
			}
			t5616 := b_B + int((t5612)*d_B[1]+t5615)
			r_B_r5 := m.LoadF(t5616)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t5617 := float64(r_X_r5 * r_A_r4)
			t5618 := float64(r_X_r4 - t5617)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t5619 := float64(t5618 / r_B_r5)
			r_X_w3 := t5619
			t5620 := i_i1
			if t5620 < 0 || t5620 >= d_X[0] {
				return m.OOB(t5620, d_X[0], 0, "X", 16, 11)
			}
			t5621 := p_n - i_i2
			t5622 := t5621 - int64(2)
			t5623 := t5622
			if t5623 < 0 || t5623 >= d_X[1] {
				return m.OOB(t5623, d_X[1], 1, "X", 16, 11)
			}
			t5624 := b_X + int((t5620)*d_X[1]+t5623)
			m.StoreF(t5624, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n76(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t5625 := p_n - int64(3)
	for i_i1 := int64(1); i_i1 <= t5625; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5626 := p_n - int64(1)
		t5627 := codegen.MinI(t5626, int64(0))
		for i_i2 := int64(0); i_i2 <= t5627; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5628 := i_i1
			if t5628 < 0 || t5628 >= d_X[0] {
				return m.OOB(t5628, d_X[0], 0, "X", 21, 23)
			}
			t5629 := i_i2
			if t5629 < 0 || t5629 >= d_X[1] {
				return m.OOB(t5629, d_X[1], 1, "X", 21, 23)
			}
			t5630 := b_X + int((t5628)*d_X[1]+t5629)
			r_X_r6 := m.LoadF(t5630)
			t5631 := i_i1 - int64(1)
			t5632 := t5631
			if t5632 < 0 || t5632 >= d_X[0] {
				return m.OOB(t5632, d_X[0], 0, "X", 21, 35)
			}
			t5633 := i_i2
			if t5633 < 0 || t5633 >= d_X[1] {
				return m.OOB(t5633, d_X[1], 1, "X", 21, 35)
			}
			t5634 := b_X + int((t5632)*d_X[1]+t5633)
			r_X_r7 := m.LoadF(t5634)
			t5635 := i_i1
			if t5635 < 0 || t5635 >= d_A[0] {
				return m.OOB(t5635, d_A[0], 0, "A", 21, 51)
			}
			t5636 := i_i2
			if t5636 < 0 || t5636 >= d_A[1] {
				return m.OOB(t5636, d_A[1], 1, "A", 21, 51)
			}
			t5637 := b_A + int((t5635)*d_A[1]+t5636)
			r_A_r5 := m.LoadF(t5637)
			t5638 := i_i1 - int64(1)
			t5639 := t5638
			if t5639 < 0 || t5639 >= d_B[0] {
				return m.OOB(t5639, d_B[0], 0, "B", 21, 63)
			}
			t5640 := i_i2
			if t5640 < 0 || t5640 >= d_B[1] {
				return m.OOB(t5640, d_B[1], 1, "B", 21, 63)
			}
			t5641 := b_B + int((t5639)*d_B[1]+t5640)
			r_B_r6 := m.LoadF(t5641)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5642 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5643 := float64(t5642 / r_B_r6)
			t5644 := float64(r_X_r6 - t5643)
			r_X_w4 := t5644
			t5645 := i_i1
			if t5645 < 0 || t5645 >= d_X[0] {
				return m.OOB(t5645, d_X[0], 0, "X", 21, 11)
			}
			t5646 := i_i2
			if t5646 < 0 || t5646 >= d_X[1] {
				return m.OOB(t5646, d_X[1], 1, "X", 21, 11)
			}
			t5647 := b_X + int((t5645)*d_X[1]+t5646)
			m.StoreF(t5647, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t5648 := i_i1
			if t5648 < 0 || t5648 >= d_B[0] {
				return m.OOB(t5648, d_B[0], 0, "B", 22, 23)
			}
			t5649 := i_i2
			if t5649 < 0 || t5649 >= d_B[1] {
				return m.OOB(t5649, d_B[1], 1, "B", 22, 23)
			}
			t5650 := b_B + int((t5648)*d_B[1]+t5649)
			r_B_r7 := m.LoadF(t5650)
			t5651 := i_i1
			if t5651 < 0 || t5651 >= d_A[0] {
				return m.OOB(t5651, d_A[0], 0, "A", 22, 35)
			}
			t5652 := i_i2
			if t5652 < 0 || t5652 >= d_A[1] {
				return m.OOB(t5652, d_A[1], 1, "A", 22, 35)
			}
			t5653 := b_A + int((t5651)*d_A[1]+t5652)
			r_A_r6 := m.LoadF(t5653)
			t5654 := i_i1
			if t5654 < 0 || t5654 >= d_A[0] {
				return m.OOB(t5654, d_A[0], 0, "A", 22, 47)
			}
			t5655 := i_i2
			if t5655 < 0 || t5655 >= d_A[1] {
				return m.OOB(t5655, d_A[1], 1, "A", 22, 47)
			}
			t5656 := b_A + int((t5654)*d_A[1]+t5655)
			r_A_r7 := m.LoadF(t5656)
			t5657 := i_i1 - int64(1)
			t5658 := t5657
			if t5658 < 0 || t5658 >= d_B[0] {
				return m.OOB(t5658, d_B[0], 0, "B", 22, 59)
			}
			t5659 := i_i2
			if t5659 < 0 || t5659 >= d_B[1] {
				return m.OOB(t5659, d_B[1], 1, "B", 22, 59)
			}
			t5660 := b_B + int((t5658)*d_B[1]+t5659)
			r_B_r8 := m.LoadF(t5660)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5661 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5662 := float64(t5661 / r_B_r8)
			t5663 := float64(r_B_r7 - t5662)
			r_B_w2 := t5663
			t5664 := i_i1
			if t5664 < 0 || t5664 >= d_B[0] {
				return m.OOB(t5664, d_B[0], 0, "B", 22, 11)
			}
			t5665 := i_i2
			if t5665 < 0 || t5665 >= d_B[1] {
				return m.OOB(t5665, d_B[1], 1, "B", 22, 11)
			}
			t5666 := b_B + int((t5664)*d_B[1]+t5665)
			m.StoreF(t5666, r_B_w2)
			t5667 := int64(3) * i_t
			t5668 := -t5667
			t5669 := int64(3) * p_tsteps
			t5670 := t5668 + t5669
			t5671 := t5670 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5671)
			t5672 := -i_t
			t5673 := t5672 + p_tsteps
			t5674 := t5673 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5674)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t5675 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t5675; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5676 := i_i1
			if t5676 < 0 || t5676 >= d_X[0] {
				return m.OOB(t5676, d_X[0], 0, "X", 21, 23)
			}
			t5677 := i_i2
			if t5677 < 0 || t5677 >= d_X[1] {
				return m.OOB(t5677, d_X[1], 1, "X", 21, 23)
			}
			t5678 := b_X + int((t5676)*d_X[1]+t5677)
			r_X_r6 := m.LoadF(t5678)
			t5679 := i_i1 - int64(1)
			t5680 := t5679
			if t5680 < 0 || t5680 >= d_X[0] {
				return m.OOB(t5680, d_X[0], 0, "X", 21, 35)
			}
			t5681 := i_i2
			if t5681 < 0 || t5681 >= d_X[1] {
				return m.OOB(t5681, d_X[1], 1, "X", 21, 35)
			}
			t5682 := b_X + int((t5680)*d_X[1]+t5681)
			r_X_r7 := m.LoadF(t5682)
			t5683 := i_i1
			if t5683 < 0 || t5683 >= d_A[0] {
				return m.OOB(t5683, d_A[0], 0, "A", 21, 51)
			}
			t5684 := i_i2
			if t5684 < 0 || t5684 >= d_A[1] {
				return m.OOB(t5684, d_A[1], 1, "A", 21, 51)
			}
			t5685 := b_A + int((t5683)*d_A[1]+t5684)
			r_A_r5 := m.LoadF(t5685)
			t5686 := i_i1 - int64(1)
			t5687 := t5686
			if t5687 < 0 || t5687 >= d_B[0] {
				return m.OOB(t5687, d_B[0], 0, "B", 21, 63)
			}
			t5688 := i_i2
			if t5688 < 0 || t5688 >= d_B[1] {
				return m.OOB(t5688, d_B[1], 1, "B", 21, 63)
			}
			t5689 := b_B + int((t5687)*d_B[1]+t5688)
			r_B_r6 := m.LoadF(t5689)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5690 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5691 := float64(t5690 / r_B_r6)
			t5692 := float64(r_X_r6 - t5691)
			r_X_w4 := t5692
			t5693 := i_i1
			if t5693 < 0 || t5693 >= d_X[0] {
				return m.OOB(t5693, d_X[0], 0, "X", 21, 11)
			}
			t5694 := i_i2
			if t5694 < 0 || t5694 >= d_X[1] {
				return m.OOB(t5694, d_X[1], 1, "X", 21, 11)
			}
			t5695 := b_X + int((t5693)*d_X[1]+t5694)
			m.StoreF(t5695, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t5696 := i_i1
			if t5696 < 0 || t5696 >= d_B[0] {
				return m.OOB(t5696, d_B[0], 0, "B", 22, 23)
			}
			t5697 := i_i2
			if t5697 < 0 || t5697 >= d_B[1] {
				return m.OOB(t5697, d_B[1], 1, "B", 22, 23)
			}
			t5698 := b_B + int((t5696)*d_B[1]+t5697)
			r_B_r7 := m.LoadF(t5698)
			t5699 := i_i1
			if t5699 < 0 || t5699 >= d_A[0] {
				return m.OOB(t5699, d_A[0], 0, "A", 22, 35)
			}
			t5700 := i_i2
			if t5700 < 0 || t5700 >= d_A[1] {
				return m.OOB(t5700, d_A[1], 1, "A", 22, 35)
			}
			t5701 := b_A + int((t5699)*d_A[1]+t5700)
			r_A_r6 := m.LoadF(t5701)
			t5702 := i_i1
			if t5702 < 0 || t5702 >= d_A[0] {
				return m.OOB(t5702, d_A[0], 0, "A", 22, 47)
			}
			t5703 := i_i2
			if t5703 < 0 || t5703 >= d_A[1] {
				return m.OOB(t5703, d_A[1], 1, "A", 22, 47)
			}
			t5704 := b_A + int((t5702)*d_A[1]+t5703)
			r_A_r7 := m.LoadF(t5704)
			t5705 := i_i1 - int64(1)
			t5706 := t5705
			if t5706 < 0 || t5706 >= d_B[0] {
				return m.OOB(t5706, d_B[0], 0, "B", 22, 59)
			}
			t5707 := i_i2
			if t5707 < 0 || t5707 >= d_B[1] {
				return m.OOB(t5707, d_B[1], 1, "B", 22, 59)
			}
			t5708 := b_B + int((t5706)*d_B[1]+t5707)
			r_B_r8 := m.LoadF(t5708)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5709 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5710 := float64(t5709 / r_B_r8)
			t5711 := float64(r_B_r7 - t5710)
			r_B_w2 := t5711
			t5712 := i_i1
			if t5712 < 0 || t5712 >= d_B[0] {
				return m.OOB(t5712, d_B[0], 0, "B", 22, 11)
			}
			t5713 := i_i2
			if t5713 < 0 || t5713 >= d_B[1] {
				return m.OOB(t5713, d_B[1], 1, "B", 22, 11)
			}
			t5714 := b_B + int((t5712)*d_B[1]+t5713)
			m.StoreF(t5714, r_B_w2)
			t5715 := -i_t
			t5716 := t5715 + p_tsteps
			t5717 := t5716 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5717)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t5718 := p_n - int64(1)
		t5719 := codegen.MaxI(int64(1), t5718)
		t5720 := p_n - int64(1)
		for i_i2 := t5719; i_i2 <= t5720; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5721 := i_i1
			if t5721 < 0 || t5721 >= d_X[0] {
				return m.OOB(t5721, d_X[0], 0, "X", 21, 23)
			}
			t5722 := i_i2
			if t5722 < 0 || t5722 >= d_X[1] {
				return m.OOB(t5722, d_X[1], 1, "X", 21, 23)
			}
			t5723 := b_X + int((t5721)*d_X[1]+t5722)
			r_X_r6 := m.LoadF(t5723)
			t5724 := i_i1 - int64(1)
			t5725 := t5724
			if t5725 < 0 || t5725 >= d_X[0] {
				return m.OOB(t5725, d_X[0], 0, "X", 21, 35)
			}
			t5726 := i_i2
			if t5726 < 0 || t5726 >= d_X[1] {
				return m.OOB(t5726, d_X[1], 1, "X", 21, 35)
			}
			t5727 := b_X + int((t5725)*d_X[1]+t5726)
			r_X_r7 := m.LoadF(t5727)
			t5728 := i_i1
			if t5728 < 0 || t5728 >= d_A[0] {
				return m.OOB(t5728, d_A[0], 0, "A", 21, 51)
			}
			t5729 := i_i2
			if t5729 < 0 || t5729 >= d_A[1] {
				return m.OOB(t5729, d_A[1], 1, "A", 21, 51)
			}
			t5730 := b_A + int((t5728)*d_A[1]+t5729)
			r_A_r5 := m.LoadF(t5730)
			t5731 := i_i1 - int64(1)
			t5732 := t5731
			if t5732 < 0 || t5732 >= d_B[0] {
				return m.OOB(t5732, d_B[0], 0, "B", 21, 63)
			}
			t5733 := i_i2
			if t5733 < 0 || t5733 >= d_B[1] {
				return m.OOB(t5733, d_B[1], 1, "B", 21, 63)
			}
			t5734 := b_B + int((t5732)*d_B[1]+t5733)
			r_B_r6 := m.LoadF(t5734)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5735 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5736 := float64(t5735 / r_B_r6)
			t5737 := float64(r_X_r6 - t5736)
			r_X_w4 := t5737
			t5738 := i_i1
			if t5738 < 0 || t5738 >= d_X[0] {
				return m.OOB(t5738, d_X[0], 0, "X", 21, 11)
			}
			t5739 := i_i2
			if t5739 < 0 || t5739 >= d_X[1] {
				return m.OOB(t5739, d_X[1], 1, "X", 21, 11)
			}
			t5740 := b_X + int((t5738)*d_X[1]+t5739)
			m.StoreF(t5740, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t5741 := i_i1
			if t5741 < 0 || t5741 >= d_B[0] {
				return m.OOB(t5741, d_B[0], 0, "B", 22, 23)
			}
			t5742 := i_i2
			if t5742 < 0 || t5742 >= d_B[1] {
				return m.OOB(t5742, d_B[1], 1, "B", 22, 23)
			}
			t5743 := b_B + int((t5741)*d_B[1]+t5742)
			r_B_r7 := m.LoadF(t5743)
			t5744 := i_i1
			if t5744 < 0 || t5744 >= d_A[0] {
				return m.OOB(t5744, d_A[0], 0, "A", 22, 35)
			}
			t5745 := i_i2
			if t5745 < 0 || t5745 >= d_A[1] {
				return m.OOB(t5745, d_A[1], 1, "A", 22, 35)
			}
			t5746 := b_A + int((t5744)*d_A[1]+t5745)
			r_A_r6 := m.LoadF(t5746)
			t5747 := i_i1
			if t5747 < 0 || t5747 >= d_A[0] {
				return m.OOB(t5747, d_A[0], 0, "A", 22, 47)
			}
			t5748 := i_i2
			if t5748 < 0 || t5748 >= d_A[1] {
				return m.OOB(t5748, d_A[1], 1, "A", 22, 47)
			}
			t5749 := b_A + int((t5747)*d_A[1]+t5748)
			r_A_r7 := m.LoadF(t5749)
			t5750 := i_i1 - int64(1)
			t5751 := t5750
			if t5751 < 0 || t5751 >= d_B[0] {
				return m.OOB(t5751, d_B[0], 0, "B", 22, 59)
			}
			t5752 := i_i2
			if t5752 < 0 || t5752 >= d_B[1] {
				return m.OOB(t5752, d_B[1], 1, "B", 22, 59)
			}
			t5753 := b_B + int((t5751)*d_B[1]+t5752)
			r_B_r8 := m.LoadF(t5753)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5754 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5755 := float64(t5754 / r_B_r8)
			t5756 := float64(r_B_r7 - t5755)
			r_B_w2 := t5756
			t5757 := i_i1
			if t5757 < 0 || t5757 >= d_B[0] {
				return m.OOB(t5757, d_B[0], 0, "B", 22, 11)
			}
			t5758 := i_i2
			if t5758 < 0 || t5758 >= d_B[1] {
				return m.OOB(t5758, d_B[1], 1, "B", 22, 11)
			}
			t5759 := b_B + int((t5757)*d_B[1]+t5758)
			m.StoreF(t5759, r_B_w2)
			t5760 := -i_t
			t5761 := t5760 + p_tsteps
			t5762 := t5761 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5762)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n77(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t5763 := p_n - int64(2)
	t5764 := codegen.MaxI(int64(1), t5763)
	t5765 := p_n - int64(2)
	for i_i1 := t5764; i_i1 <= t5765; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5766 := p_n - int64(1)
		t5767 := codegen.MinI(t5766, int64(0))
		for i_i2 := int64(0); i_i2 <= t5767; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5768 := i_i1
			if t5768 < 0 || t5768 >= d_X[0] {
				return m.OOB(t5768, d_X[0], 0, "X", 21, 23)
			}
			t5769 := i_i2
			if t5769 < 0 || t5769 >= d_X[1] {
				return m.OOB(t5769, d_X[1], 1, "X", 21, 23)
			}
			t5770 := b_X + int((t5768)*d_X[1]+t5769)
			r_X_r6 := m.LoadF(t5770)
			t5771 := i_i1 - int64(1)
			t5772 := t5771
			if t5772 < 0 || t5772 >= d_X[0] {
				return m.OOB(t5772, d_X[0], 0, "X", 21, 35)
			}
			t5773 := i_i2
			if t5773 < 0 || t5773 >= d_X[1] {
				return m.OOB(t5773, d_X[1], 1, "X", 21, 35)
			}
			t5774 := b_X + int((t5772)*d_X[1]+t5773)
			r_X_r7 := m.LoadF(t5774)
			t5775 := i_i1
			if t5775 < 0 || t5775 >= d_A[0] {
				return m.OOB(t5775, d_A[0], 0, "A", 21, 51)
			}
			t5776 := i_i2
			if t5776 < 0 || t5776 >= d_A[1] {
				return m.OOB(t5776, d_A[1], 1, "A", 21, 51)
			}
			t5777 := b_A + int((t5775)*d_A[1]+t5776)
			r_A_r5 := m.LoadF(t5777)
			t5778 := i_i1 - int64(1)
			t5779 := t5778
			if t5779 < 0 || t5779 >= d_B[0] {
				return m.OOB(t5779, d_B[0], 0, "B", 21, 63)
			}
			t5780 := i_i2
			if t5780 < 0 || t5780 >= d_B[1] {
				return m.OOB(t5780, d_B[1], 1, "B", 21, 63)
			}
			t5781 := b_B + int((t5779)*d_B[1]+t5780)
			r_B_r6 := m.LoadF(t5781)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5782 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5783 := float64(t5782 / r_B_r6)
			t5784 := float64(r_X_r6 - t5783)
			r_X_w4 := t5784
			t5785 := i_i1
			if t5785 < 0 || t5785 >= d_X[0] {
				return m.OOB(t5785, d_X[0], 0, "X", 21, 11)
			}
			t5786 := i_i2
			if t5786 < 0 || t5786 >= d_X[1] {
				return m.OOB(t5786, d_X[1], 1, "X", 21, 11)
			}
			t5787 := b_X + int((t5785)*d_X[1]+t5786)
			m.StoreF(t5787, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t5788 := i_i1
			if t5788 < 0 || t5788 >= d_B[0] {
				return m.OOB(t5788, d_B[0], 0, "B", 22, 23)
			}
			t5789 := i_i2
			if t5789 < 0 || t5789 >= d_B[1] {
				return m.OOB(t5789, d_B[1], 1, "B", 22, 23)
			}
			t5790 := b_B + int((t5788)*d_B[1]+t5789)
			r_B_r7 := m.LoadF(t5790)
			t5791 := i_i1
			if t5791 < 0 || t5791 >= d_A[0] {
				return m.OOB(t5791, d_A[0], 0, "A", 22, 35)
			}
			t5792 := i_i2
			if t5792 < 0 || t5792 >= d_A[1] {
				return m.OOB(t5792, d_A[1], 1, "A", 22, 35)
			}
			t5793 := b_A + int((t5791)*d_A[1]+t5792)
			r_A_r6 := m.LoadF(t5793)
			t5794 := i_i1
			if t5794 < 0 || t5794 >= d_A[0] {
				return m.OOB(t5794, d_A[0], 0, "A", 22, 47)
			}
			t5795 := i_i2
			if t5795 < 0 || t5795 >= d_A[1] {
				return m.OOB(t5795, d_A[1], 1, "A", 22, 47)
			}
			t5796 := b_A + int((t5794)*d_A[1]+t5795)
			r_A_r7 := m.LoadF(t5796)
			t5797 := i_i1 - int64(1)
			t5798 := t5797
			if t5798 < 0 || t5798 >= d_B[0] {
				return m.OOB(t5798, d_B[0], 0, "B", 22, 59)
			}
			t5799 := i_i2
			if t5799 < 0 || t5799 >= d_B[1] {
				return m.OOB(t5799, d_B[1], 1, "B", 22, 59)
			}
			t5800 := b_B + int((t5798)*d_B[1]+t5799)
			r_B_r8 := m.LoadF(t5800)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5801 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5802 := float64(t5801 / r_B_r8)
			t5803 := float64(r_B_r7 - t5802)
			r_B_w2 := t5803
			t5804 := i_i1
			if t5804 < 0 || t5804 >= d_B[0] {
				return m.OOB(t5804, d_B[0], 0, "B", 22, 11)
			}
			t5805 := i_i2
			if t5805 < 0 || t5805 >= d_B[1] {
				return m.OOB(t5805, d_B[1], 1, "B", 22, 11)
			}
			t5806 := b_B + int((t5804)*d_B[1]+t5805)
			m.StoreF(t5806, r_B_w2)
			t5807 := int64(3) * i_t
			t5808 := -t5807
			t5809 := int64(3) * p_tsteps
			t5810 := t5808 + t5809
			t5811 := t5810 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5811)
			t5812 := -i_t
			t5813 := t5812 + p_tsteps
			t5814 := t5813 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5814)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t5815 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t5815; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5816 := i_i1
			if t5816 < 0 || t5816 >= d_X[0] {
				return m.OOB(t5816, d_X[0], 0, "X", 21, 23)
			}
			t5817 := i_i2
			if t5817 < 0 || t5817 >= d_X[1] {
				return m.OOB(t5817, d_X[1], 1, "X", 21, 23)
			}
			t5818 := b_X + int((t5816)*d_X[1]+t5817)
			r_X_r6 := m.LoadF(t5818)
			t5819 := i_i1 - int64(1)
			t5820 := t5819
			if t5820 < 0 || t5820 >= d_X[0] {
				return m.OOB(t5820, d_X[0], 0, "X", 21, 35)
			}
			t5821 := i_i2
			if t5821 < 0 || t5821 >= d_X[1] {
				return m.OOB(t5821, d_X[1], 1, "X", 21, 35)
			}
			t5822 := b_X + int((t5820)*d_X[1]+t5821)
			r_X_r7 := m.LoadF(t5822)
			t5823 := i_i1
			if t5823 < 0 || t5823 >= d_A[0] {
				return m.OOB(t5823, d_A[0], 0, "A", 21, 51)
			}
			t5824 := i_i2
			if t5824 < 0 || t5824 >= d_A[1] {
				return m.OOB(t5824, d_A[1], 1, "A", 21, 51)
			}
			t5825 := b_A + int((t5823)*d_A[1]+t5824)
			r_A_r5 := m.LoadF(t5825)
			t5826 := i_i1 - int64(1)
			t5827 := t5826
			if t5827 < 0 || t5827 >= d_B[0] {
				return m.OOB(t5827, d_B[0], 0, "B", 21, 63)
			}
			t5828 := i_i2
			if t5828 < 0 || t5828 >= d_B[1] {
				return m.OOB(t5828, d_B[1], 1, "B", 21, 63)
			}
			t5829 := b_B + int((t5827)*d_B[1]+t5828)
			r_B_r6 := m.LoadF(t5829)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5830 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5831 := float64(t5830 / r_B_r6)
			t5832 := float64(r_X_r6 - t5831)
			r_X_w4 := t5832
			t5833 := i_i1
			if t5833 < 0 || t5833 >= d_X[0] {
				return m.OOB(t5833, d_X[0], 0, "X", 21, 11)
			}
			t5834 := i_i2
			if t5834 < 0 || t5834 >= d_X[1] {
				return m.OOB(t5834, d_X[1], 1, "X", 21, 11)
			}
			t5835 := b_X + int((t5833)*d_X[1]+t5834)
			m.StoreF(t5835, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t5836 := i_i1
			if t5836 < 0 || t5836 >= d_B[0] {
				return m.OOB(t5836, d_B[0], 0, "B", 22, 23)
			}
			t5837 := i_i2
			if t5837 < 0 || t5837 >= d_B[1] {
				return m.OOB(t5837, d_B[1], 1, "B", 22, 23)
			}
			t5838 := b_B + int((t5836)*d_B[1]+t5837)
			r_B_r7 := m.LoadF(t5838)
			t5839 := i_i1
			if t5839 < 0 || t5839 >= d_A[0] {
				return m.OOB(t5839, d_A[0], 0, "A", 22, 35)
			}
			t5840 := i_i2
			if t5840 < 0 || t5840 >= d_A[1] {
				return m.OOB(t5840, d_A[1], 1, "A", 22, 35)
			}
			t5841 := b_A + int((t5839)*d_A[1]+t5840)
			r_A_r6 := m.LoadF(t5841)
			t5842 := i_i1
			if t5842 < 0 || t5842 >= d_A[0] {
				return m.OOB(t5842, d_A[0], 0, "A", 22, 47)
			}
			t5843 := i_i2
			if t5843 < 0 || t5843 >= d_A[1] {
				return m.OOB(t5843, d_A[1], 1, "A", 22, 47)
			}
			t5844 := b_A + int((t5842)*d_A[1]+t5843)
			r_A_r7 := m.LoadF(t5844)
			t5845 := i_i1 - int64(1)
			t5846 := t5845
			if t5846 < 0 || t5846 >= d_B[0] {
				return m.OOB(t5846, d_B[0], 0, "B", 22, 59)
			}
			t5847 := i_i2
			if t5847 < 0 || t5847 >= d_B[1] {
				return m.OOB(t5847, d_B[1], 1, "B", 22, 59)
			}
			t5848 := b_B + int((t5846)*d_B[1]+t5847)
			r_B_r8 := m.LoadF(t5848)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5849 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5850 := float64(t5849 / r_B_r8)
			t5851 := float64(r_B_r7 - t5850)
			r_B_w2 := t5851
			t5852 := i_i1
			if t5852 < 0 || t5852 >= d_B[0] {
				return m.OOB(t5852, d_B[0], 0, "B", 22, 11)
			}
			t5853 := i_i2
			if t5853 < 0 || t5853 >= d_B[1] {
				return m.OOB(t5853, d_B[1], 1, "B", 22, 11)
			}
			t5854 := b_B + int((t5852)*d_B[1]+t5853)
			m.StoreF(t5854, r_B_w2)
			t5855 := -i_t
			t5856 := t5855 + p_tsteps
			t5857 := t5856 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5857)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t5858 := p_n - int64(1)
		t5859 := codegen.MaxI(int64(1), t5858)
		t5860 := p_n - int64(1)
		for i_i2 := t5859; i_i2 <= t5860; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5861 := i_i1
			if t5861 < 0 || t5861 >= d_X[0] {
				return m.OOB(t5861, d_X[0], 0, "X", 21, 23)
			}
			t5862 := i_i2
			if t5862 < 0 || t5862 >= d_X[1] {
				return m.OOB(t5862, d_X[1], 1, "X", 21, 23)
			}
			t5863 := b_X + int((t5861)*d_X[1]+t5862)
			r_X_r6 := m.LoadF(t5863)
			t5864 := i_i1 - int64(1)
			t5865 := t5864
			if t5865 < 0 || t5865 >= d_X[0] {
				return m.OOB(t5865, d_X[0], 0, "X", 21, 35)
			}
			t5866 := i_i2
			if t5866 < 0 || t5866 >= d_X[1] {
				return m.OOB(t5866, d_X[1], 1, "X", 21, 35)
			}
			t5867 := b_X + int((t5865)*d_X[1]+t5866)
			r_X_r7 := m.LoadF(t5867)
			t5868 := i_i1
			if t5868 < 0 || t5868 >= d_A[0] {
				return m.OOB(t5868, d_A[0], 0, "A", 21, 51)
			}
			t5869 := i_i2
			if t5869 < 0 || t5869 >= d_A[1] {
				return m.OOB(t5869, d_A[1], 1, "A", 21, 51)
			}
			t5870 := b_A + int((t5868)*d_A[1]+t5869)
			r_A_r5 := m.LoadF(t5870)
			t5871 := i_i1 - int64(1)
			t5872 := t5871
			if t5872 < 0 || t5872 >= d_B[0] {
				return m.OOB(t5872, d_B[0], 0, "B", 21, 63)
			}
			t5873 := i_i2
			if t5873 < 0 || t5873 >= d_B[1] {
				return m.OOB(t5873, d_B[1], 1, "B", 21, 63)
			}
			t5874 := b_B + int((t5872)*d_B[1]+t5873)
			r_B_r6 := m.LoadF(t5874)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5875 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5876 := float64(t5875 / r_B_r6)
			t5877 := float64(r_X_r6 - t5876)
			r_X_w4 := t5877
			t5878 := i_i1
			if t5878 < 0 || t5878 >= d_X[0] {
				return m.OOB(t5878, d_X[0], 0, "X", 21, 11)
			}
			t5879 := i_i2
			if t5879 < 0 || t5879 >= d_X[1] {
				return m.OOB(t5879, d_X[1], 1, "X", 21, 11)
			}
			t5880 := b_X + int((t5878)*d_X[1]+t5879)
			m.StoreF(t5880, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t5881 := i_i1
			if t5881 < 0 || t5881 >= d_B[0] {
				return m.OOB(t5881, d_B[0], 0, "B", 22, 23)
			}
			t5882 := i_i2
			if t5882 < 0 || t5882 >= d_B[1] {
				return m.OOB(t5882, d_B[1], 1, "B", 22, 23)
			}
			t5883 := b_B + int((t5881)*d_B[1]+t5882)
			r_B_r7 := m.LoadF(t5883)
			t5884 := i_i1
			if t5884 < 0 || t5884 >= d_A[0] {
				return m.OOB(t5884, d_A[0], 0, "A", 22, 35)
			}
			t5885 := i_i2
			if t5885 < 0 || t5885 >= d_A[1] {
				return m.OOB(t5885, d_A[1], 1, "A", 22, 35)
			}
			t5886 := b_A + int((t5884)*d_A[1]+t5885)
			r_A_r6 := m.LoadF(t5886)
			t5887 := i_i1
			if t5887 < 0 || t5887 >= d_A[0] {
				return m.OOB(t5887, d_A[0], 0, "A", 22, 47)
			}
			t5888 := i_i2
			if t5888 < 0 || t5888 >= d_A[1] {
				return m.OOB(t5888, d_A[1], 1, "A", 22, 47)
			}
			t5889 := b_A + int((t5887)*d_A[1]+t5888)
			r_A_r7 := m.LoadF(t5889)
			t5890 := i_i1 - int64(1)
			t5891 := t5890
			if t5891 < 0 || t5891 >= d_B[0] {
				return m.OOB(t5891, d_B[0], 0, "B", 22, 59)
			}
			t5892 := i_i2
			if t5892 < 0 || t5892 >= d_B[1] {
				return m.OOB(t5892, d_B[1], 1, "B", 22, 59)
			}
			t5893 := b_B + int((t5891)*d_B[1]+t5892)
			r_B_r8 := m.LoadF(t5893)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5894 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5895 := float64(t5894 / r_B_r8)
			t5896 := float64(r_B_r7 - t5895)
			r_B_w2 := t5896
			t5897 := i_i1
			if t5897 < 0 || t5897 >= d_B[0] {
				return m.OOB(t5897, d_B[0], 0, "B", 22, 11)
			}
			t5898 := i_i2
			if t5898 < 0 || t5898 >= d_B[1] {
				return m.OOB(t5898, d_B[1], 1, "B", 22, 11)
			}
			t5899 := b_B + int((t5897)*d_B[1]+t5898)
			m.StoreF(t5899, r_B_w2)
			t5900 := -i_t
			t5901 := t5900 + p_tsteps
			t5902 := t5901 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5902)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n78(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t5903 := p_n - int64(1)
	t5904 := codegen.MaxI(int64(1), t5903)
	t5905 := p_n - int64(1)
	for i_i1 := t5904; i_i1 <= t5905; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n79(m, cs, p_tsteps, p_n, b_X, d_X, b_A, d_A, b_B, d_B, i_i1, i_t); err != nil {
			return err
		}
		t5955 := p_n - int64(2)
		t5956 := codegen.MaxI(int64(0), t5955)
		t5957 := p_n - int64(1)
		t5958 := codegen.MinI(t5957, int64(0))
		for i_i2 := t5956; i_i2 <= t5958; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t5959 := i_i1
			if t5959 < 0 || t5959 >= d_X[0] {
				return m.OOB(t5959, d_X[0], 0, "X", 21, 23)
			}
			t5960 := i_i2
			if t5960 < 0 || t5960 >= d_X[1] {
				return m.OOB(t5960, d_X[1], 1, "X", 21, 23)
			}
			t5961 := b_X + int((t5959)*d_X[1]+t5960)
			r_X_r6 := m.LoadF(t5961)
			t5962 := i_i1 - int64(1)
			t5963 := t5962
			if t5963 < 0 || t5963 >= d_X[0] {
				return m.OOB(t5963, d_X[0], 0, "X", 21, 35)
			}
			t5964 := i_i2
			if t5964 < 0 || t5964 >= d_X[1] {
				return m.OOB(t5964, d_X[1], 1, "X", 21, 35)
			}
			t5965 := b_X + int((t5963)*d_X[1]+t5964)
			r_X_r7 := m.LoadF(t5965)
			t5966 := i_i1
			if t5966 < 0 || t5966 >= d_A[0] {
				return m.OOB(t5966, d_A[0], 0, "A", 21, 51)
			}
			t5967 := i_i2
			if t5967 < 0 || t5967 >= d_A[1] {
				return m.OOB(t5967, d_A[1], 1, "A", 21, 51)
			}
			t5968 := b_A + int((t5966)*d_A[1]+t5967)
			r_A_r5 := m.LoadF(t5968)
			t5969 := i_i1 - int64(1)
			t5970 := t5969
			if t5970 < 0 || t5970 >= d_B[0] {
				return m.OOB(t5970, d_B[0], 0, "B", 21, 63)
			}
			t5971 := i_i2
			if t5971 < 0 || t5971 >= d_B[1] {
				return m.OOB(t5971, d_B[1], 1, "B", 21, 63)
			}
			t5972 := b_B + int((t5970)*d_B[1]+t5971)
			r_B_r6 := m.LoadF(t5972)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t5973 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t5974 := float64(t5973 / r_B_r6)
			t5975 := float64(r_X_r6 - t5974)
			r_X_w4 := t5975
			t5976 := i_i1
			if t5976 < 0 || t5976 >= d_X[0] {
				return m.OOB(t5976, d_X[0], 0, "X", 21, 11)
			}
			t5977 := i_i2
			if t5977 < 0 || t5977 >= d_X[1] {
				return m.OOB(t5977, d_X[1], 1, "X", 21, 11)
			}
			t5978 := b_X + int((t5976)*d_X[1]+t5977)
			m.StoreF(t5978, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t5979 := i_i1
			if t5979 < 0 || t5979 >= d_B[0] {
				return m.OOB(t5979, d_B[0], 0, "B", 22, 23)
			}
			t5980 := i_i2
			if t5980 < 0 || t5980 >= d_B[1] {
				return m.OOB(t5980, d_B[1], 1, "B", 22, 23)
			}
			t5981 := b_B + int((t5979)*d_B[1]+t5980)
			r_B_r7 := m.LoadF(t5981)
			t5982 := i_i1
			if t5982 < 0 || t5982 >= d_A[0] {
				return m.OOB(t5982, d_A[0], 0, "A", 22, 35)
			}
			t5983 := i_i2
			if t5983 < 0 || t5983 >= d_A[1] {
				return m.OOB(t5983, d_A[1], 1, "A", 22, 35)
			}
			t5984 := b_A + int((t5982)*d_A[1]+t5983)
			r_A_r6 := m.LoadF(t5984)
			t5985 := i_i1
			if t5985 < 0 || t5985 >= d_A[0] {
				return m.OOB(t5985, d_A[0], 0, "A", 22, 47)
			}
			t5986 := i_i2
			if t5986 < 0 || t5986 >= d_A[1] {
				return m.OOB(t5986, d_A[1], 1, "A", 22, 47)
			}
			t5987 := b_A + int((t5985)*d_A[1]+t5986)
			r_A_r7 := m.LoadF(t5987)
			t5988 := i_i1 - int64(1)
			t5989 := t5988
			if t5989 < 0 || t5989 >= d_B[0] {
				return m.OOB(t5989, d_B[0], 0, "B", 22, 59)
			}
			t5990 := i_i2
			if t5990 < 0 || t5990 >= d_B[1] {
				return m.OOB(t5990, d_B[1], 1, "B", 22, 59)
			}
			t5991 := b_B + int((t5989)*d_B[1]+t5990)
			r_B_r8 := m.LoadF(t5991)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t5992 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t5993 := float64(t5992 / r_B_r8)
			t5994 := float64(r_B_r7 - t5993)
			r_B_w2 := t5994
			t5995 := i_i1
			if t5995 < 0 || t5995 >= d_B[0] {
				return m.OOB(t5995, d_B[0], 0, "B", 22, 11)
			}
			t5996 := i_i2
			if t5996 < 0 || t5996 >= d_B[1] {
				return m.OOB(t5996, d_B[1], 1, "B", 22, 11)
			}
			t5997 := b_B + int((t5995)*d_B[1]+t5996)
			m.StoreF(t5997, r_B_w2)
			t5998 := int64(3) * i_t
			t5999 := -t5998
			t6000 := int64(3) * p_tsteps
			t6001 := t5999 + t6000
			t6002 := t6001 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t6002)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t6003 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t6003; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6004 := i_i1
			if t6004 < 0 || t6004 >= d_X[0] {
				return m.OOB(t6004, d_X[0], 0, "X", 21, 23)
			}
			t6005 := i_i2
			if t6005 < 0 || t6005 >= d_X[1] {
				return m.OOB(t6005, d_X[1], 1, "X", 21, 23)
			}
			t6006 := b_X + int((t6004)*d_X[1]+t6005)
			r_X_r6 := m.LoadF(t6006)
			t6007 := i_i1 - int64(1)
			t6008 := t6007
			if t6008 < 0 || t6008 >= d_X[0] {
				return m.OOB(t6008, d_X[0], 0, "X", 21, 35)
			}
			t6009 := i_i2
			if t6009 < 0 || t6009 >= d_X[1] {
				return m.OOB(t6009, d_X[1], 1, "X", 21, 35)
			}
			t6010 := b_X + int((t6008)*d_X[1]+t6009)
			r_X_r7 := m.LoadF(t6010)
			t6011 := i_i1
			if t6011 < 0 || t6011 >= d_A[0] {
				return m.OOB(t6011, d_A[0], 0, "A", 21, 51)
			}
			t6012 := i_i2
			if t6012 < 0 || t6012 >= d_A[1] {
				return m.OOB(t6012, d_A[1], 1, "A", 21, 51)
			}
			t6013 := b_A + int((t6011)*d_A[1]+t6012)
			r_A_r5 := m.LoadF(t6013)
			t6014 := i_i1 - int64(1)
			t6015 := t6014
			if t6015 < 0 || t6015 >= d_B[0] {
				return m.OOB(t6015, d_B[0], 0, "B", 21, 63)
			}
			t6016 := i_i2
			if t6016 < 0 || t6016 >= d_B[1] {
				return m.OOB(t6016, d_B[1], 1, "B", 21, 63)
			}
			t6017 := b_B + int((t6015)*d_B[1]+t6016)
			r_B_r6 := m.LoadF(t6017)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t6018 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t6019 := float64(t6018 / r_B_r6)
			t6020 := float64(r_X_r6 - t6019)
			r_X_w4 := t6020
			t6021 := i_i1
			if t6021 < 0 || t6021 >= d_X[0] {
				return m.OOB(t6021, d_X[0], 0, "X", 21, 11)
			}
			t6022 := i_i2
			if t6022 < 0 || t6022 >= d_X[1] {
				return m.OOB(t6022, d_X[1], 1, "X", 21, 11)
			}
			t6023 := b_X + int((t6021)*d_X[1]+t6022)
			m.StoreF(t6023, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t6024 := i_i1
			if t6024 < 0 || t6024 >= d_B[0] {
				return m.OOB(t6024, d_B[0], 0, "B", 22, 23)
			}
			t6025 := i_i2
			if t6025 < 0 || t6025 >= d_B[1] {
				return m.OOB(t6025, d_B[1], 1, "B", 22, 23)
			}
			t6026 := b_B + int((t6024)*d_B[1]+t6025)
			r_B_r7 := m.LoadF(t6026)
			t6027 := i_i1
			if t6027 < 0 || t6027 >= d_A[0] {
				return m.OOB(t6027, d_A[0], 0, "A", 22, 35)
			}
			t6028 := i_i2
			if t6028 < 0 || t6028 >= d_A[1] {
				return m.OOB(t6028, d_A[1], 1, "A", 22, 35)
			}
			t6029 := b_A + int((t6027)*d_A[1]+t6028)
			r_A_r6 := m.LoadF(t6029)
			t6030 := i_i1
			if t6030 < 0 || t6030 >= d_A[0] {
				return m.OOB(t6030, d_A[0], 0, "A", 22, 47)
			}
			t6031 := i_i2
			if t6031 < 0 || t6031 >= d_A[1] {
				return m.OOB(t6031, d_A[1], 1, "A", 22, 47)
			}
			t6032 := b_A + int((t6030)*d_A[1]+t6031)
			r_A_r7 := m.LoadF(t6032)
			t6033 := i_i1 - int64(1)
			t6034 := t6033
			if t6034 < 0 || t6034 >= d_B[0] {
				return m.OOB(t6034, d_B[0], 0, "B", 22, 59)
			}
			t6035 := i_i2
			if t6035 < 0 || t6035 >= d_B[1] {
				return m.OOB(t6035, d_B[1], 1, "B", 22, 59)
			}
			t6036 := b_B + int((t6034)*d_B[1]+t6035)
			r_B_r8 := m.LoadF(t6036)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t6037 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t6038 := float64(t6037 / r_B_r8)
			t6039 := float64(r_B_r7 - t6038)
			r_B_w2 := t6039
			t6040 := i_i1
			if t6040 < 0 || t6040 >= d_B[0] {
				return m.OOB(t6040, d_B[0], 0, "B", 22, 11)
			}
			t6041 := i_i2
			if t6041 < 0 || t6041 >= d_B[1] {
				return m.OOB(t6041, d_B[1], 1, "B", 22, 11)
			}
			t6042 := b_B + int((t6040)*d_B[1]+t6041)
			m.StoreF(t6042, r_B_w2)
			t6043 := -i_t
			t6044 := t6043 + p_tsteps
			t6045 := t6044 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t6045)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t6046 := p_n - int64(1)
		t6047 := codegen.MaxI(int64(1), t6046)
		t6048 := p_n - int64(1)
		for i_i2 := t6047; i_i2 <= t6048; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6049 := i_i1
			if t6049 < 0 || t6049 >= d_X[0] {
				return m.OOB(t6049, d_X[0], 0, "X", 21, 23)
			}
			t6050 := i_i2
			if t6050 < 0 || t6050 >= d_X[1] {
				return m.OOB(t6050, d_X[1], 1, "X", 21, 23)
			}
			t6051 := b_X + int((t6049)*d_X[1]+t6050)
			r_X_r6 := m.LoadF(t6051)
			t6052 := i_i1 - int64(1)
			t6053 := t6052
			if t6053 < 0 || t6053 >= d_X[0] {
				return m.OOB(t6053, d_X[0], 0, "X", 21, 35)
			}
			t6054 := i_i2
			if t6054 < 0 || t6054 >= d_X[1] {
				return m.OOB(t6054, d_X[1], 1, "X", 21, 35)
			}
			t6055 := b_X + int((t6053)*d_X[1]+t6054)
			r_X_r7 := m.LoadF(t6055)
			t6056 := i_i1
			if t6056 < 0 || t6056 >= d_A[0] {
				return m.OOB(t6056, d_A[0], 0, "A", 21, 51)
			}
			t6057 := i_i2
			if t6057 < 0 || t6057 >= d_A[1] {
				return m.OOB(t6057, d_A[1], 1, "A", 21, 51)
			}
			t6058 := b_A + int((t6056)*d_A[1]+t6057)
			r_A_r5 := m.LoadF(t6058)
			t6059 := i_i1 - int64(1)
			t6060 := t6059
			if t6060 < 0 || t6060 >= d_B[0] {
				return m.OOB(t6060, d_B[0], 0, "B", 21, 63)
			}
			t6061 := i_i2
			if t6061 < 0 || t6061 >= d_B[1] {
				return m.OOB(t6061, d_B[1], 1, "B", 21, 63)
			}
			t6062 := b_B + int((t6060)*d_B[1]+t6061)
			r_B_r6 := m.LoadF(t6062)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t6063 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t6064 := float64(t6063 / r_B_r6)
			t6065 := float64(r_X_r6 - t6064)
			r_X_w4 := t6065
			t6066 := i_i1
			if t6066 < 0 || t6066 >= d_X[0] {
				return m.OOB(t6066, d_X[0], 0, "X", 21, 11)
			}
			t6067 := i_i2
			if t6067 < 0 || t6067 >= d_X[1] {
				return m.OOB(t6067, d_X[1], 1, "X", 21, 11)
			}
			t6068 := b_X + int((t6066)*d_X[1]+t6067)
			m.StoreF(t6068, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t6069 := i_i1
			if t6069 < 0 || t6069 >= d_B[0] {
				return m.OOB(t6069, d_B[0], 0, "B", 22, 23)
			}
			t6070 := i_i2
			if t6070 < 0 || t6070 >= d_B[1] {
				return m.OOB(t6070, d_B[1], 1, "B", 22, 23)
			}
			t6071 := b_B + int((t6069)*d_B[1]+t6070)
			r_B_r7 := m.LoadF(t6071)
			t6072 := i_i1
			if t6072 < 0 || t6072 >= d_A[0] {
				return m.OOB(t6072, d_A[0], 0, "A", 22, 35)
			}
			t6073 := i_i2
			if t6073 < 0 || t6073 >= d_A[1] {
				return m.OOB(t6073, d_A[1], 1, "A", 22, 35)
			}
			t6074 := b_A + int((t6072)*d_A[1]+t6073)
			r_A_r6 := m.LoadF(t6074)
			t6075 := i_i1
			if t6075 < 0 || t6075 >= d_A[0] {
				return m.OOB(t6075, d_A[0], 0, "A", 22, 47)
			}
			t6076 := i_i2
			if t6076 < 0 || t6076 >= d_A[1] {
				return m.OOB(t6076, d_A[1], 1, "A", 22, 47)
			}
			t6077 := b_A + int((t6075)*d_A[1]+t6076)
			r_A_r7 := m.LoadF(t6077)
			t6078 := i_i1 - int64(1)
			t6079 := t6078
			if t6079 < 0 || t6079 >= d_B[0] {
				return m.OOB(t6079, d_B[0], 0, "B", 22, 59)
			}
			t6080 := i_i2
			if t6080 < 0 || t6080 >= d_B[1] {
				return m.OOB(t6080, d_B[1], 1, "B", 22, 59)
			}
			t6081 := b_B + int((t6079)*d_B[1]+t6080)
			r_B_r8 := m.LoadF(t6081)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t6082 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t6083 := float64(t6082 / r_B_r8)
			t6084 := float64(r_B_r7 - t6083)
			r_B_w2 := t6084
			t6085 := i_i1
			if t6085 < 0 || t6085 >= d_B[0] {
				return m.OOB(t6085, d_B[0], 0, "B", 22, 11)
			}
			t6086 := i_i2
			if t6086 < 0 || t6086 >= d_B[1] {
				return m.OOB(t6086, d_B[1], 1, "B", 22, 11)
			}
			t6087 := b_B + int((t6085)*d_B[1]+t6086)
			m.StoreF(t6087, r_B_w2)
			t6088 := -i_t
			t6089 := t6088 + p_tsteps
			t6090 := t6089 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t6090)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n79(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_i1 int64, i_t int64) error {
	t5906 := p_n - int64(3)
	t5907 := codegen.MinI(t5906, int64(0))
	for i_i2 := int64(0); i_i2 <= t5907; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t5908 := i_i1
		if t5908 < 0 || t5908 >= d_X[0] {
			return m.OOB(t5908, d_X[0], 0, "X", 21, 23)
		}
		t5909 := i_i2
		if t5909 < 0 || t5909 >= d_X[1] {
			return m.OOB(t5909, d_X[1], 1, "X", 21, 23)
		}
		t5910 := b_X + int((t5908)*d_X[1]+t5909)
		r_X_r6 := m.LoadF(t5910)
		t5911 := i_i1 - int64(1)
		t5912 := t5911
		if t5912 < 0 || t5912 >= d_X[0] {
			return m.OOB(t5912, d_X[0], 0, "X", 21, 35)
		}
		t5913 := i_i2
		if t5913 < 0 || t5913 >= d_X[1] {
			return m.OOB(t5913, d_X[1], 1, "X", 21, 35)
		}
		t5914 := b_X + int((t5912)*d_X[1]+t5913)
		r_X_r7 := m.LoadF(t5914)
		t5915 := i_i1
		if t5915 < 0 || t5915 >= d_A[0] {
			return m.OOB(t5915, d_A[0], 0, "A", 21, 51)
		}
		t5916 := i_i2
		if t5916 < 0 || t5916 >= d_A[1] {
			return m.OOB(t5916, d_A[1], 1, "A", 21, 51)
		}
		t5917 := b_A + int((t5915)*d_A[1]+t5916)
		r_A_r5 := m.LoadF(t5917)
		t5918 := i_i1 - int64(1)
		t5919 := t5918
		if t5919 < 0 || t5919 >= d_B[0] {
			return m.OOB(t5919, d_B[0], 0, "B", 21, 63)
		}
		t5920 := i_i2
		if t5920 < 0 || t5920 >= d_B[1] {
			return m.OOB(t5920, d_B[1], 1, "B", 21, 63)
		}
		t5921 := b_B + int((t5919)*d_B[1]+t5920)
		r_B_r6 := m.LoadF(t5921)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
		t5922 := float64(r_X_r7 * r_A_r5)
		if r_B_r6 == 0 {
			return m.DivZero(21, 61)
		}
		t5923 := float64(t5922 / r_B_r6)
		t5924 := float64(r_X_r6 - t5923)
		r_X_w4 := t5924
		t5925 := i_i1
		if t5925 < 0 || t5925 >= d_X[0] {
			return m.OOB(t5925, d_X[0], 0, "X", 21, 11)
		}
		t5926 := i_i2
		if t5926 < 0 || t5926 >= d_X[1] {
			return m.OOB(t5926, d_X[1], 1, "X", 21, 11)
		}
		t5927 := b_X + int((t5925)*d_X[1]+t5926)
		m.StoreF(t5927, r_X_w4)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
		t5928 := i_i1
		if t5928 < 0 || t5928 >= d_B[0] {
			return m.OOB(t5928, d_B[0], 0, "B", 22, 23)
		}
		t5929 := i_i2
		if t5929 < 0 || t5929 >= d_B[1] {
			return m.OOB(t5929, d_B[1], 1, "B", 22, 23)
		}
		t5930 := b_B + int((t5928)*d_B[1]+t5929)
		r_B_r7 := m.LoadF(t5930)
		t5931 := i_i1
		if t5931 < 0 || t5931 >= d_A[0] {
			return m.OOB(t5931, d_A[0], 0, "A", 22, 35)
		}
		t5932 := i_i2
		if t5932 < 0 || t5932 >= d_A[1] {
			return m.OOB(t5932, d_A[1], 1, "A", 22, 35)
		}
		t5933 := b_A + int((t5931)*d_A[1]+t5932)
		r_A_r6 := m.LoadF(t5933)
		t5934 := i_i1
		if t5934 < 0 || t5934 >= d_A[0] {
			return m.OOB(t5934, d_A[0], 0, "A", 22, 47)
		}
		t5935 := i_i2
		if t5935 < 0 || t5935 >= d_A[1] {
			return m.OOB(t5935, d_A[1], 1, "A", 22, 47)
		}
		t5936 := b_A + int((t5934)*d_A[1]+t5935)
		r_A_r7 := m.LoadF(t5936)
		t5937 := i_i1 - int64(1)
		t5938 := t5937
		if t5938 < 0 || t5938 >= d_B[0] {
			return m.OOB(t5938, d_B[0], 0, "B", 22, 59)
		}
		t5939 := i_i2
		if t5939 < 0 || t5939 >= d_B[1] {
			return m.OOB(t5939, d_B[1], 1, "B", 22, 59)
		}
		t5940 := b_B + int((t5938)*d_B[1]+t5939)
		r_B_r8 := m.LoadF(t5940)
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
		t5941 := float64(r_A_r6 * r_A_r7)
		if r_B_r8 == 0 {
			return m.DivZero(22, 57)
		}
		t5942 := float64(t5941 / r_B_r8)
		t5943 := float64(r_B_r7 - t5942)
		r_B_w2 := t5943
		t5944 := i_i1
		if t5944 < 0 || t5944 >= d_B[0] {
			return m.OOB(t5944, d_B[0], 0, "B", 22, 11)
		}
		t5945 := i_i2
		if t5945 < 0 || t5945 >= d_B[1] {
			return m.OOB(t5945, d_B[1], 1, "B", 22, 11)
		}
		t5946 := b_B + int((t5944)*d_B[1]+t5945)
		m.StoreF(t5946, r_B_w2)
		t5947 := int64(3) * i_t
		t5948 := -t5947
		t5949 := int64(3) * p_tsteps
		t5950 := t5948 + t5949
		t5951 := t5950 - int64(3)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5951)
		t5952 := -i_t
		t5953 := t5952 + p_tsteps
		t5954 := t5953 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), t5954)
		cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
	}
	return nil
}

func run_adi_resilientopt_n80(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_B int, d_B []int64, i_t int64) error {
	t6091 := p_n - int64(3)
	t6092 := codegen.MinI(t6091, int64(0))
	for i_i2 := int64(0); i_i2 <= t6092; i_i2++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6093 := p_n - int64(1)
		t6094 := t6093
		if t6094 < 0 || t6094 >= d_X[0] {
			return m.OOB(t6094, d_X[0], 0, "X", 26, 24)
		}
		t6095 := i_i2
		if t6095 < 0 || t6095 >= d_X[1] {
			return m.OOB(t6095, d_X[1], 1, "X", 26, 24)
		}
		t6096 := b_X + int((t6094)*d_X[1]+t6095)
		r_X_r8 := m.LoadF(t6096)
		t6097 := p_n - int64(1)
		t6098 := t6097
		if t6098 < 0 || t6098 >= d_B[0] {
			return m.OOB(t6098, d_B[0], 0, "B", 26, 39)
		}
		t6099 := i_i2
		if t6099 < 0 || t6099 >= d_B[1] {
			return m.OOB(t6099, d_B[1], 1, "B", 26, 39)
		}
		t6100 := b_B + int((t6098)*d_B[1]+t6099)
		r_B_r9 := m.LoadF(t6100)
		cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
		cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
		if r_B_r9 == 0 {
			return m.DivZero(26, 37)
		}
		t6101 := float64(r_X_r8 / r_B_r9)
		r_X_w5 := t6101
		t6102 := p_n - int64(1)
		t6103 := t6102
		if t6103 < 0 || t6103 >= d_X[0] {
			return m.OOB(t6103, d_X[0], 0, "X", 26, 9)
		}
		t6104 := i_i2
		if t6104 < 0 || t6104 >= d_X[1] {
			return m.OOB(t6104, d_X[1], 1, "X", 26, 9)
		}
		t6105 := b_X + int((t6103)*d_X[1]+t6104)
		m.StoreF(t6105, r_X_w5)
		t6106 := -i_t
		t6107 := t6106 + p_tsteps
		t6108 := t6107 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6108)
		t6109 := -i_t
		t6110 := t6109 + p_tsteps
		t6111 := t6110 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6111)
		t6112 := -i_t
		t6113 := t6112 + p_tsteps
		t6114 := t6113 - int64(1)
		cs.Fold(checksum.AccDef, math.Float64bits(r_X_w5), t6114)
	}
	return nil
}

func run_adi_resilientopt_n81(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64, i_t int64) error {
	t6194 := p_n - int64(3)
	for i_i1 := int64(0); i_i1 <= t6194; i_i1++ {
		if err := m.Tick(28, 3); err != nil {
			return err
		}
		t6195 := p_n - int64(1)
		t6196 := codegen.MinI(t6195, int64(0))
		for i_i2 := int64(0); i_i2 <= t6196; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6197 := p_n - int64(2)
			t6198 := t6197 - i_i1
			t6199 := t6198
			if t6199 < 0 || t6199 >= d_X[0] {
				return m.OOB(t6199, d_X[0], 0, "X", 30, 32)
			}
			t6200 := i_i2
			if t6200 < 0 || t6200 >= d_X[1] {
				return m.OOB(t6200, d_X[1], 1, "X", 30, 32)
			}
			t6201 := b_X + int((t6199)*d_X[1]+t6200)
			r_X_r9 := m.LoadF(t6201)
			t6202 := p_n - i_i1
			t6203 := t6202 - int64(3)
			t6204 := t6203
			if t6204 < 0 || t6204 >= d_X[0] {
				return m.OOB(t6204, d_X[0], 0, "X", 30, 52)
			}
			t6205 := i_i2
			if t6205 < 0 || t6205 >= d_X[1] {
				return m.OOB(t6205, d_X[1], 1, "X", 30, 52)
			}
			t6206 := b_X + int((t6204)*d_X[1]+t6205)
			r_X_r10 := m.LoadF(t6206)
			t6207 := p_n - int64(3)
			t6208 := t6207 - i_i1
			t6209 := t6208
			if t6209 < 0 || t6209 >= d_A[0] {
				return m.OOB(t6209, d_A[0], 0, "A", 30, 72)
			}
			t6210 := i_i2
			if t6210 < 0 || t6210 >= d_A[1] {
				return m.OOB(t6210, d_A[1], 1, "A", 30, 72)
			}
			t6211 := b_A + int((t6209)*d_A[1]+t6210)
			r_A_r8 := m.LoadF(t6211)
			t6212 := p_n - int64(2)
			t6213 := t6212 - i_i1
			t6214 := t6213
			if t6214 < 0 || t6214 >= d_B[0] {
				return m.OOB(t6214, d_B[0], 0, "B", 30, 93)
			}
			t6215 := i_i2
			if t6215 < 0 || t6215 >= d_B[1] {
				return m.OOB(t6215, d_B[1], 1, "B", 30, 93)
			}
			t6216 := b_B + int((t6214)*d_B[1]+t6215)
			r_B_r10 := m.LoadF(t6216)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t6217 := float64(r_X_r10 * r_A_r8)
			t6218 := float64(r_X_r9 - t6217)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t6219 := float64(t6218 / r_B_r10)
			r_X_w6 := t6219
			t6220 := p_n - int64(2)
			t6221 := t6220 - i_i1
			t6222 := t6221
			if t6222 < 0 || t6222 >= d_X[0] {
				return m.OOB(t6222, d_X[0], 0, "X", 30, 11)
			}
			t6223 := i_i2
			if t6223 < 0 || t6223 >= d_X[1] {
				return m.OOB(t6223, d_X[1], 1, "X", 30, 11)
			}
			t6224 := b_X + int((t6222)*d_X[1]+t6223)
			m.StoreF(t6224, r_X_w6)
			t6225 := int64(3) * i_t
			t6226 := -t6225
			t6227 := int64(3) * p_tsteps
			t6228 := t6226 + t6227
			t6229 := t6228 - int64(3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t6229)
		}
		t6230 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t6230; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6231 := p_n - int64(2)
			t6232 := t6231 - i_i1
			t6233 := t6232
			if t6233 < 0 || t6233 >= d_X[0] {
				return m.OOB(t6233, d_X[0], 0, "X", 30, 32)
			}
			t6234 := i_i2
			if t6234 < 0 || t6234 >= d_X[1] {
				return m.OOB(t6234, d_X[1], 1, "X", 30, 32)
			}
			t6235 := b_X + int((t6233)*d_X[1]+t6234)
			r_X_r9 := m.LoadF(t6235)
			t6236 := p_n - i_i1
			t6237 := t6236 - int64(3)
			t6238 := t6237
			if t6238 < 0 || t6238 >= d_X[0] {
				return m.OOB(t6238, d_X[0], 0, "X", 30, 52)
			}
			t6239 := i_i2
			if t6239 < 0 || t6239 >= d_X[1] {
				return m.OOB(t6239, d_X[1], 1, "X", 30, 52)
			}
			t6240 := b_X + int((t6238)*d_X[1]+t6239)
			r_X_r10 := m.LoadF(t6240)
			t6241 := p_n - int64(3)
			t6242 := t6241 - i_i1
			t6243 := t6242
			if t6243 < 0 || t6243 >= d_A[0] {
				return m.OOB(t6243, d_A[0], 0, "A", 30, 72)
			}
			t6244 := i_i2
			if t6244 < 0 || t6244 >= d_A[1] {
				return m.OOB(t6244, d_A[1], 1, "A", 30, 72)
			}
			t6245 := b_A + int((t6243)*d_A[1]+t6244)
			r_A_r8 := m.LoadF(t6245)
			t6246 := p_n - int64(2)
			t6247 := t6246 - i_i1
			t6248 := t6247
			if t6248 < 0 || t6248 >= d_B[0] {
				return m.OOB(t6248, d_B[0], 0, "B", 30, 93)
			}
			t6249 := i_i2
			if t6249 < 0 || t6249 >= d_B[1] {
				return m.OOB(t6249, d_B[1], 1, "B", 30, 93)
			}
			t6250 := b_B + int((t6248)*d_B[1]+t6249)
			r_B_r10 := m.LoadF(t6250)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t6251 := float64(r_X_r10 * r_A_r8)
			t6252 := float64(r_X_r9 - t6251)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t6253 := float64(t6252 / r_B_r10)
			r_X_w6 := t6253
			t6254 := p_n - int64(2)
			t6255 := t6254 - i_i1
			t6256 := t6255
			if t6256 < 0 || t6256 >= d_X[0] {
				return m.OOB(t6256, d_X[0], 0, "X", 30, 11)
			}
			t6257 := i_i2
			if t6257 < 0 || t6257 >= d_X[1] {
				return m.OOB(t6257, d_X[1], 1, "X", 30, 11)
			}
			t6258 := b_X + int((t6256)*d_X[1]+t6257)
			m.StoreF(t6258, r_X_w6)
			t6259 := -i_t
			t6260 := t6259 + p_tsteps
			t6261 := t6260 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t6261)
		}
		t6262 := p_n - int64(1)
		t6263 := codegen.MaxI(int64(1), t6262)
		t6264 := p_n - int64(1)
		for i_i2 := t6263; i_i2 <= t6264; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6265 := p_n - int64(2)
			t6266 := t6265 - i_i1
			t6267 := t6266
			if t6267 < 0 || t6267 >= d_X[0] {
				return m.OOB(t6267, d_X[0], 0, "X", 30, 32)
			}
			t6268 := i_i2
			if t6268 < 0 || t6268 >= d_X[1] {
				return m.OOB(t6268, d_X[1], 1, "X", 30, 32)
			}
			t6269 := b_X + int((t6267)*d_X[1]+t6268)
			r_X_r9 := m.LoadF(t6269)
			t6270 := p_n - i_i1
			t6271 := t6270 - int64(3)
			t6272 := t6271
			if t6272 < 0 || t6272 >= d_X[0] {
				return m.OOB(t6272, d_X[0], 0, "X", 30, 52)
			}
			t6273 := i_i2
			if t6273 < 0 || t6273 >= d_X[1] {
				return m.OOB(t6273, d_X[1], 1, "X", 30, 52)
			}
			t6274 := b_X + int((t6272)*d_X[1]+t6273)
			r_X_r10 := m.LoadF(t6274)
			t6275 := p_n - int64(3)
			t6276 := t6275 - i_i1
			t6277 := t6276
			if t6277 < 0 || t6277 >= d_A[0] {
				return m.OOB(t6277, d_A[0], 0, "A", 30, 72)
			}
			t6278 := i_i2
			if t6278 < 0 || t6278 >= d_A[1] {
				return m.OOB(t6278, d_A[1], 1, "A", 30, 72)
			}
			t6279 := b_A + int((t6277)*d_A[1]+t6278)
			r_A_r8 := m.LoadF(t6279)
			t6280 := p_n - int64(2)
			t6281 := t6280 - i_i1
			t6282 := t6281
			if t6282 < 0 || t6282 >= d_B[0] {
				return m.OOB(t6282, d_B[0], 0, "B", 30, 93)
			}
			t6283 := i_i2
			if t6283 < 0 || t6283 >= d_B[1] {
				return m.OOB(t6283, d_B[1], 1, "B", 30, 93)
			}
			t6284 := b_B + int((t6282)*d_B[1]+t6283)
			r_B_r10 := m.LoadF(t6284)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
			t6285 := float64(r_X_r10 * r_A_r8)
			t6286 := float64(r_X_r9 - t6285)
			if r_B_r10 == 0 {
				return m.DivZero(30, 91)
			}
			t6287 := float64(t6286 / r_B_r10)
			r_X_w6 := t6287
			t6288 := p_n - int64(2)
			t6289 := t6288 - i_i1
			t6290 := t6289
			if t6290 < 0 || t6290 >= d_X[0] {
				return m.OOB(t6290, d_X[0], 0, "X", 30, 11)
			}
			t6291 := i_i2
			if t6291 < 0 || t6291 >= d_X[1] {
				return m.OOB(t6291, d_X[1], 1, "X", 30, 11)
			}
			t6292 := b_X + int((t6290)*d_X[1]+t6291)
			m.StoreF(t6292, r_X_w6)
			t6293 := -i_t
			t6294 := t6293 + p_tsteps
			t6295 := t6294 - int64(1)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w6), t6295)
		}
	}
	return nil
}

func run_adi_resilientopt_n82(m *codegen.Machine, cs *checksum.Folds, p_tsteps int64, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6296 := p_tsteps - int64(1)
	t6297 := codegen.MaxI(int64(1), t6296)
	t6298 := p_tsteps - int64(1)
	for i_t := t6297; i_t <= t6298; i_t++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n83(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n84(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n85(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t6677 := p_n - int64(3)
		t6678 := codegen.MinI(t6677, int64(0))
		for i_i1 := int64(0); i_i1 <= t6678; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6679 := i_i1
			if t6679 < 0 || t6679 >= d_X[0] {
				return m.OOB(t6679, d_X[0], 0, "X", 12, 24)
			}
			t6680 := p_n - int64(1)
			t6681 := t6680
			if t6681 < 0 || t6681 >= d_X[1] {
				return m.OOB(t6681, d_X[1], 1, "X", 12, 24)
			}
			t6682 := b_X + int((t6679)*d_X[1]+t6681)
			r_X_r3 := m.LoadF(t6682)
			t6683 := i_i1
			if t6683 < 0 || t6683 >= d_B[0] {
				return m.OOB(t6683, d_B[0], 0, "B", 12, 39)
			}
			t6684 := p_n - int64(1)
			t6685 := t6684
			if t6685 < 0 || t6685 >= d_B[1] {
				return m.OOB(t6685, d_B[1], 1, "B", 12, 39)
			}
			t6686 := b_B + int((t6683)*d_B[1]+t6685)
			r_B_r4 := m.LoadF(t6686)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t6687 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t6687
			t6688 := i_i1
			if t6688 < 0 || t6688 >= d_X[0] {
				return m.OOB(t6688, d_X[0], 0, "X", 12, 9)
			}
			t6689 := p_n - int64(1)
			t6690 := t6689
			if t6690 < 0 || t6690 >= d_X[1] {
				return m.OOB(t6690, d_X[1], 1, "X", 12, 9)
			}
			t6691 := b_X + int((t6688)*d_X[1]+t6690)
			m.StoreF(t6691, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t6692 := p_n - int64(2)
		t6693 := codegen.MaxI(int64(0), t6692)
		t6694 := p_n - int64(1)
		t6695 := codegen.MinI(t6694, int64(0))
		for i_i1 := t6693; i_i1 <= t6695; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6696 := i_i1
			if t6696 < 0 || t6696 >= d_X[0] {
				return m.OOB(t6696, d_X[0], 0, "X", 12, 24)
			}
			t6697 := p_n - int64(1)
			t6698 := t6697
			if t6698 < 0 || t6698 >= d_X[1] {
				return m.OOB(t6698, d_X[1], 1, "X", 12, 24)
			}
			t6699 := b_X + int((t6696)*d_X[1]+t6698)
			r_X_r3 := m.LoadF(t6699)
			t6700 := i_i1
			if t6700 < 0 || t6700 >= d_B[0] {
				return m.OOB(t6700, d_B[0], 0, "B", 12, 39)
			}
			t6701 := p_n - int64(1)
			t6702 := t6701
			if t6702 < 0 || t6702 >= d_B[1] {
				return m.OOB(t6702, d_B[1], 1, "B", 12, 39)
			}
			t6703 := b_B + int((t6700)*d_B[1]+t6702)
			r_B_r4 := m.LoadF(t6703)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t6704 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t6704
			t6705 := i_i1
			if t6705 < 0 || t6705 >= d_X[0] {
				return m.OOB(t6705, d_X[0], 0, "X", 12, 9)
			}
			t6706 := p_n - int64(1)
			t6707 := t6706
			if t6707 < 0 || t6707 >= d_X[1] {
				return m.OOB(t6707, d_X[1], 1, "X", 12, 9)
			}
			t6708 := b_X + int((t6705)*d_X[1]+t6707)
			m.StoreF(t6708, r_X_w2)
			t6709 := p_n - int64(2)
			if t6709 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			}
			t6710 := -p_n
			t6711 := t6710 + int64(1)
			if t6711 >= int64(0) {
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
			}
		}
		t6712 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t6712; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6713 := i_i1
			if t6713 < 0 || t6713 >= d_X[0] {
				return m.OOB(t6713, d_X[0], 0, "X", 12, 24)
			}
			t6714 := p_n - int64(1)
			t6715 := t6714
			if t6715 < 0 || t6715 >= d_X[1] {
				return m.OOB(t6715, d_X[1], 1, "X", 12, 24)
			}
			t6716 := b_X + int((t6713)*d_X[1]+t6715)
			r_X_r3 := m.LoadF(t6716)
			t6717 := i_i1
			if t6717 < 0 || t6717 >= d_B[0] {
				return m.OOB(t6717, d_B[0], 0, "B", 12, 39)
			}
			t6718 := p_n - int64(1)
			t6719 := t6718
			if t6719 < 0 || t6719 >= d_B[1] {
				return m.OOB(t6719, d_B[1], 1, "B", 12, 39)
			}
			t6720 := b_B + int((t6717)*d_B[1]+t6719)
			r_B_r4 := m.LoadF(t6720)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t6721 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t6721
			t6722 := i_i1
			if t6722 < 0 || t6722 >= d_X[0] {
				return m.OOB(t6722, d_X[0], 0, "X", 12, 9)
			}
			t6723 := p_n - int64(1)
			t6724 := t6723
			if t6724 < 0 || t6724 >= d_X[1] {
				return m.OOB(t6724, d_X[1], 1, "X", 12, 9)
			}
			t6725 := b_X + int((t6722)*d_X[1]+t6724)
			m.StoreF(t6725, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		t6726 := p_n - int64(1)
		t6727 := codegen.MaxI(int64(1), t6726)
		t6728 := p_n - int64(1)
		for i_i1 := t6727; i_i1 <= t6728; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6729 := i_i1
			if t6729 < 0 || t6729 >= d_X[0] {
				return m.OOB(t6729, d_X[0], 0, "X", 12, 24)
			}
			t6730 := p_n - int64(1)
			t6731 := t6730
			if t6731 < 0 || t6731 >= d_X[1] {
				return m.OOB(t6731, d_X[1], 1, "X", 12, 24)
			}
			t6732 := b_X + int((t6729)*d_X[1]+t6731)
			r_X_r3 := m.LoadF(t6732)
			t6733 := i_i1
			if t6733 < 0 || t6733 >= d_B[0] {
				return m.OOB(t6733, d_B[0], 0, "B", 12, 39)
			}
			t6734 := p_n - int64(1)
			t6735 := t6734
			if t6735 < 0 || t6735 >= d_B[1] {
				return m.OOB(t6735, d_B[1], 1, "B", 12, 39)
			}
			t6736 := b_B + int((t6733)*d_B[1]+t6735)
			r_B_r4 := m.LoadF(t6736)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r4), int64(1))
			if r_B_r4 == 0 {
				return m.DivZero(12, 37)
			}
			t6737 := float64(r_X_r3 / r_B_r4)
			r_X_w2 := t6737
			t6738 := i_i1
			if t6738 < 0 || t6738 >= d_X[0] {
				return m.OOB(t6738, d_X[0], 0, "X", 12, 9)
			}
			t6739 := p_n - int64(1)
			t6740 := t6739
			if t6740 < 0 || t6740 >= d_X[1] {
				return m.OOB(t6740, d_X[1], 1, "X", 12, 9)
			}
			t6741 := b_X + int((t6738)*d_X[1]+t6740)
			m.StoreF(t6741, r_X_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w2), int64(1))
		}
		if err := run_adi_resilientopt_n86(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t6774 := p_n - int64(2)
		for i_i1 := int64(1); i_i1 <= t6774; i_i1++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6775 := p_n - int64(3)
			for i_i2 := int64(0); i_i2 <= t6775; i_i2++ {
				if err := m.Tick(15, 5); err != nil {
					return err
				}
				t6776 := i_i1
				if t6776 < 0 || t6776 >= d_X[0] {
					return m.OOB(t6776, d_X[0], 0, "X", 16, 32)
				}
				t6777 := p_n - int64(2)
				t6778 := t6777 - i_i2
				t6779 := t6778
				if t6779 < 0 || t6779 >= d_X[1] {
					return m.OOB(t6779, d_X[1], 1, "X", 16, 32)
				}
				t6780 := b_X + int((t6776)*d_X[1]+t6779)
				r_X_r4 := m.LoadF(t6780)
				t6781 := i_i1
				if t6781 < 0 || t6781 >= d_X[0] {
					return m.OOB(t6781, d_X[0], 0, "X", 16, 52)
				}
				t6782 := p_n - int64(2)
				t6783 := t6782 - i_i2
				t6784 := t6783 - int64(1)
				t6785 := t6784
				if t6785 < 0 || t6785 >= d_X[1] {
					return m.OOB(t6785, d_X[1], 1, "X", 16, 52)
				}
				t6786 := b_X + int((t6781)*d_X[1]+t6785)
				r_X_r5 := m.LoadF(t6786)
				t6787 := i_i1
				if t6787 < 0 || t6787 >= d_A[0] {
					return m.OOB(t6787, d_A[0], 0, "A", 16, 76)
				}
				t6788 := p_n - i_i2
				t6789 := t6788 - int64(3)
				t6790 := t6789
				if t6790 < 0 || t6790 >= d_A[1] {
					return m.OOB(t6790, d_A[1], 1, "A", 16, 76)
				}
				t6791 := b_A + int((t6787)*d_A[1]+t6790)
				r_A_r4 := m.LoadF(t6791)
				t6792 := i_i1
				if t6792 < 0 || t6792 >= d_B[0] {
					return m.OOB(t6792, d_B[0], 0, "B", 16, 97)
				}
				t6793 := p_n - int64(3)
				t6794 := t6793 - i_i2
				t6795 := t6794
				if t6795 < 0 || t6795 >= d_B[1] {
					return m.OOB(t6795, d_B[1], 1, "B", 16, 97)
				}
				t6796 := b_B + int((t6792)*d_B[1]+t6795)
				r_B_r5 := m.LoadF(t6796)
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
				t6797 := float64(r_X_r5 * r_A_r4)
				t6798 := float64(r_X_r4 - t6797)
				if r_B_r5 == 0 {
					return m.DivZero(16, 95)
				}
				t6799 := float64(t6798 / r_B_r5)
				r_X_w3 := t6799
				t6800 := i_i1
				if t6800 < 0 || t6800 >= d_X[0] {
					return m.OOB(t6800, d_X[0], 0, "X", 16, 11)
				}
				t6801 := p_n - i_i2
				t6802 := t6801 - int64(2)
				t6803 := t6802
				if t6803 < 0 || t6803 >= d_X[1] {
					return m.OOB(t6803, d_X[1], 1, "X", 16, 11)
				}
				t6804 := b_X + int((t6800)*d_X[1]+t6803)
				m.StoreF(t6804, r_X_w3)
				cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
			}
		}
		if err := run_adi_resilientopt_n87(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n88(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n89(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		if err := run_adi_resilientopt_n90(m, cs, p_n, b_X, d_X, b_A, d_A, b_B, d_B); err != nil {
			return err
		}
		t7214 := p_n - int64(1)
		for i_i2 := int64(0); i_i2 <= t7214; i_i2++ {
			if err := m.Tick(25, 3); err != nil {
				return err
			}
			t7215 := p_n - int64(1)
			t7216 := t7215
			if t7216 < 0 || t7216 >= d_X[0] {
				return m.OOB(t7216, d_X[0], 0, "X", 26, 24)
			}
			t7217 := i_i2
			if t7217 < 0 || t7217 >= d_X[1] {
				return m.OOB(t7217, d_X[1], 1, "X", 26, 24)
			}
			t7218 := b_X + int((t7216)*d_X[1]+t7217)
			r_X_r8 := m.LoadF(t7218)
			t7219 := p_n - int64(1)
			t7220 := t7219
			if t7220 < 0 || t7220 >= d_B[0] {
				return m.OOB(t7220, d_B[0], 0, "B", 26, 39)
			}
			t7221 := i_i2
			if t7221 < 0 || t7221 >= d_B[1] {
				return m.OOB(t7221, d_B[1], 1, "B", 26, 39)
			}
			t7222 := b_B + int((t7220)*d_B[1]+t7221)
			r_B_r9 := m.LoadF(t7222)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r8), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r9), int64(1))
			if r_B_r9 == 0 {
				return m.DivZero(26, 37)
			}
			t7223 := float64(r_X_r8 / r_B_r9)
			r_X_w5 := t7223
			t7224 := p_n - int64(1)
			t7225 := t7224
			if t7225 < 0 || t7225 >= d_X[0] {
				return m.OOB(t7225, d_X[0], 0, "X", 26, 9)
			}
			t7226 := i_i2
			if t7226 < 0 || t7226 >= d_X[1] {
				return m.OOB(t7226, d_X[1], 1, "X", 26, 9)
			}
			t7227 := b_X + int((t7225)*d_X[1]+t7226)
			m.StoreF(t7227, r_X_w5)
		}
		t7228 := p_n - int64(3)
		for i_i1 := int64(0); i_i1 <= t7228; i_i1++ {
			if err := m.Tick(28, 3); err != nil {
				return err
			}
			t7229 := p_n - int64(1)
			for i_i2 := int64(0); i_i2 <= t7229; i_i2++ {
				if err := m.Tick(29, 5); err != nil {
					return err
				}
				t7230 := p_n - int64(2)
				t7231 := t7230 - i_i1
				t7232 := t7231
				if t7232 < 0 || t7232 >= d_X[0] {
					return m.OOB(t7232, d_X[0], 0, "X", 30, 32)
				}
				t7233 := i_i2
				if t7233 < 0 || t7233 >= d_X[1] {
					return m.OOB(t7233, d_X[1], 1, "X", 30, 32)
				}
				t7234 := b_X + int((t7232)*d_X[1]+t7233)
				r_X_r9 := m.LoadF(t7234)
				t7235 := p_n - i_i1
				t7236 := t7235 - int64(3)
				t7237 := t7236
				if t7237 < 0 || t7237 >= d_X[0] {
					return m.OOB(t7237, d_X[0], 0, "X", 30, 52)
				}
				t7238 := i_i2
				if t7238 < 0 || t7238 >= d_X[1] {
					return m.OOB(t7238, d_X[1], 1, "X", 30, 52)
				}
				t7239 := b_X + int((t7237)*d_X[1]+t7238)
				r_X_r10 := m.LoadF(t7239)
				t7240 := p_n - int64(3)
				t7241 := t7240 - i_i1
				t7242 := t7241
				if t7242 < 0 || t7242 >= d_A[0] {
					return m.OOB(t7242, d_A[0], 0, "A", 30, 72)
				}
				t7243 := i_i2
				if t7243 < 0 || t7243 >= d_A[1] {
					return m.OOB(t7243, d_A[1], 1, "A", 30, 72)
				}
				t7244 := b_A + int((t7242)*d_A[1]+t7243)
				r_A_r8 := m.LoadF(t7244)
				t7245 := p_n - int64(2)
				t7246 := t7245 - i_i1
				t7247 := t7246
				if t7247 < 0 || t7247 >= d_B[0] {
					return m.OOB(t7247, d_B[0], 0, "B", 30, 93)
				}
				t7248 := i_i2
				if t7248 < 0 || t7248 >= d_B[1] {
					return m.OOB(t7248, d_B[1], 1, "B", 30, 93)
				}
				t7249 := b_B + int((t7247)*d_B[1]+t7248)
				r_B_r10 := m.LoadF(t7249)
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r9), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_X_r10), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_A_r8), int64(1))
				cs.Fold(checksum.AccUse, math.Float64bits(r_B_r10), int64(1))
				t7250 := float64(r_X_r10 * r_A_r8)
				t7251 := float64(r_X_r9 - t7250)
				if r_B_r10 == 0 {
					return m.DivZero(30, 91)
				}
				t7252 := float64(t7251 / r_B_r10)
				r_X_w6 := t7252
				t7253 := p_n - int64(2)
				t7254 := t7253 - i_i1
				t7255 := t7254
				if t7255 < 0 || t7255 >= d_X[0] {
					return m.OOB(t7255, d_X[0], 0, "X", 30, 11)
				}
				t7256 := i_i2
				if t7256 < 0 || t7256 >= d_X[1] {
					return m.OOB(t7256, d_X[1], 1, "X", 30, 11)
				}
				t7257 := b_X + int((t7255)*d_X[1]+t7256)
				m.StoreF(t7257, r_X_w6)
			}
		}
	}
	return nil
}

func run_adi_resilientopt_n83(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6299 := p_n - int64(1)
	t6300 := codegen.MinI(t6299, int64(0))
	for i_i1 := int64(0); i_i1 <= t6300; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6301 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t6301; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6302 := i_i1
			if t6302 < 0 || t6302 >= d_X[0] {
				return m.OOB(t6302, d_X[0], 0, "X", 7, 23)
			}
			t6303 := i_i2
			if t6303 < 0 || t6303 >= d_X[1] {
				return m.OOB(t6303, d_X[1], 1, "X", 7, 23)
			}
			t6304 := b_X + int((t6302)*d_X[1]+t6303)
			r_X_r := m.LoadF(t6304)
			t6305 := i_i1
			if t6305 < 0 || t6305 >= d_X[0] {
				return m.OOB(t6305, d_X[0], 0, "X", 7, 35)
			}
			t6306 := i_i2 - int64(1)
			t6307 := t6306
			if t6307 < 0 || t6307 >= d_X[1] {
				return m.OOB(t6307, d_X[1], 1, "X", 7, 35)
			}
			t6308 := b_X + int((t6305)*d_X[1]+t6307)
			r_X_r2 := m.LoadF(t6308)
			t6309 := i_i1
			if t6309 < 0 || t6309 >= d_A[0] {
				return m.OOB(t6309, d_A[0], 0, "A", 7, 51)
			}
			t6310 := i_i2
			if t6310 < 0 || t6310 >= d_A[1] {
				return m.OOB(t6310, d_A[1], 1, "A", 7, 51)
			}
			t6311 := b_A + int((t6309)*d_A[1]+t6310)
			r_A_r := m.LoadF(t6311)
			t6312 := i_i1
			if t6312 < 0 || t6312 >= d_B[0] {
				return m.OOB(t6312, d_B[0], 0, "B", 7, 63)
			}
			t6313 := i_i2 - int64(1)
			t6314 := t6313
			if t6314 < 0 || t6314 >= d_B[1] {
				return m.OOB(t6314, d_B[1], 1, "B", 7, 63)
			}
			t6315 := b_B + int((t6312)*d_B[1]+t6314)
			r_B_r := m.LoadF(t6315)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6316 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6317 := float64(t6316 / r_B_r)
			t6318 := float64(r_X_r - t6317)
			r_X_w := t6318
			t6319 := i_i1
			if t6319 < 0 || t6319 >= d_X[0] {
				return m.OOB(t6319, d_X[0], 0, "X", 7, 11)
			}
			t6320 := i_i2
			if t6320 < 0 || t6320 >= d_X[1] {
				return m.OOB(t6320, d_X[1], 1, "X", 7, 11)
			}
			t6321 := b_X + int((t6319)*d_X[1]+t6320)
			m.StoreF(t6321, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t6322 := i_i1
			if t6322 < 0 || t6322 >= d_B[0] {
				return m.OOB(t6322, d_B[0], 0, "B", 8, 23)
			}
			t6323 := i_i2
			if t6323 < 0 || t6323 >= d_B[1] {
				return m.OOB(t6323, d_B[1], 1, "B", 8, 23)
			}
			t6324 := b_B + int((t6322)*d_B[1]+t6323)
			r_B_r2 := m.LoadF(t6324)
			t6325 := i_i1
			if t6325 < 0 || t6325 >= d_A[0] {
				return m.OOB(t6325, d_A[0], 0, "A", 8, 35)
			}
			t6326 := i_i2
			if t6326 < 0 || t6326 >= d_A[1] {
				return m.OOB(t6326, d_A[1], 1, "A", 8, 35)
			}
			t6327 := b_A + int((t6325)*d_A[1]+t6326)
			r_A_r2 := m.LoadF(t6327)
			t6328 := i_i1
			if t6328 < 0 || t6328 >= d_A[0] {
				return m.OOB(t6328, d_A[0], 0, "A", 8, 47)
			}
			t6329 := i_i2
			if t6329 < 0 || t6329 >= d_A[1] {
				return m.OOB(t6329, d_A[1], 1, "A", 8, 47)
			}
			t6330 := b_A + int((t6328)*d_A[1]+t6329)
			r_A_r3 := m.LoadF(t6330)
			t6331 := i_i1
			if t6331 < 0 || t6331 >= d_B[0] {
				return m.OOB(t6331, d_B[0], 0, "B", 8, 59)
			}
			t6332 := i_i2 - int64(1)
			t6333 := t6332
			if t6333 < 0 || t6333 >= d_B[1] {
				return m.OOB(t6333, d_B[1], 1, "B", 8, 59)
			}
			t6334 := b_B + int((t6331)*d_B[1]+t6333)
			r_B_r3 := m.LoadF(t6334)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6335 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6336 := float64(t6335 / r_B_r3)
			t6337 := float64(r_B_r2 - t6336)
			r_B_w := t6337
			t6338 := i_i1
			if t6338 < 0 || t6338 >= d_B[0] {
				return m.OOB(t6338, d_B[0], 0, "B", 8, 11)
			}
			t6339 := i_i2
			if t6339 < 0 || t6339 >= d_B[1] {
				return m.OOB(t6339, d_B[1], 1, "B", 8, 11)
			}
			t6340 := b_B + int((t6338)*d_B[1]+t6339)
			m.StoreF(t6340, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t6341 := p_n - int64(2)
		t6342 := codegen.MaxI(int64(1), t6341)
		t6343 := p_n - int64(2)
		for i_i2 := t6342; i_i2 <= t6343; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6344 := i_i1
			if t6344 < 0 || t6344 >= d_X[0] {
				return m.OOB(t6344, d_X[0], 0, "X", 7, 23)
			}
			t6345 := i_i2
			if t6345 < 0 || t6345 >= d_X[1] {
				return m.OOB(t6345, d_X[1], 1, "X", 7, 23)
			}
			t6346 := b_X + int((t6344)*d_X[1]+t6345)
			r_X_r := m.LoadF(t6346)
			t6347 := i_i1
			if t6347 < 0 || t6347 >= d_X[0] {
				return m.OOB(t6347, d_X[0], 0, "X", 7, 35)
			}
			t6348 := i_i2 - int64(1)
			t6349 := t6348
			if t6349 < 0 || t6349 >= d_X[1] {
				return m.OOB(t6349, d_X[1], 1, "X", 7, 35)
			}
			t6350 := b_X + int((t6347)*d_X[1]+t6349)
			r_X_r2 := m.LoadF(t6350)
			t6351 := i_i1
			if t6351 < 0 || t6351 >= d_A[0] {
				return m.OOB(t6351, d_A[0], 0, "A", 7, 51)
			}
			t6352 := i_i2
			if t6352 < 0 || t6352 >= d_A[1] {
				return m.OOB(t6352, d_A[1], 1, "A", 7, 51)
			}
			t6353 := b_A + int((t6351)*d_A[1]+t6352)
			r_A_r := m.LoadF(t6353)
			t6354 := i_i1
			if t6354 < 0 || t6354 >= d_B[0] {
				return m.OOB(t6354, d_B[0], 0, "B", 7, 63)
			}
			t6355 := i_i2 - int64(1)
			t6356 := t6355
			if t6356 < 0 || t6356 >= d_B[1] {
				return m.OOB(t6356, d_B[1], 1, "B", 7, 63)
			}
			t6357 := b_B + int((t6354)*d_B[1]+t6356)
			r_B_r := m.LoadF(t6357)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6358 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6359 := float64(t6358 / r_B_r)
			t6360 := float64(r_X_r - t6359)
			r_X_w := t6360
			t6361 := i_i1
			if t6361 < 0 || t6361 >= d_X[0] {
				return m.OOB(t6361, d_X[0], 0, "X", 7, 11)
			}
			t6362 := i_i2
			if t6362 < 0 || t6362 >= d_X[1] {
				return m.OOB(t6362, d_X[1], 1, "X", 7, 11)
			}
			t6363 := b_X + int((t6361)*d_X[1]+t6362)
			m.StoreF(t6363, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t6364 := i_i1
			if t6364 < 0 || t6364 >= d_B[0] {
				return m.OOB(t6364, d_B[0], 0, "B", 8, 23)
			}
			t6365 := i_i2
			if t6365 < 0 || t6365 >= d_B[1] {
				return m.OOB(t6365, d_B[1], 1, "B", 8, 23)
			}
			t6366 := b_B + int((t6364)*d_B[1]+t6365)
			r_B_r2 := m.LoadF(t6366)
			t6367 := i_i1
			if t6367 < 0 || t6367 >= d_A[0] {
				return m.OOB(t6367, d_A[0], 0, "A", 8, 35)
			}
			t6368 := i_i2
			if t6368 < 0 || t6368 >= d_A[1] {
				return m.OOB(t6368, d_A[1], 1, "A", 8, 35)
			}
			t6369 := b_A + int((t6367)*d_A[1]+t6368)
			r_A_r2 := m.LoadF(t6369)
			t6370 := i_i1
			if t6370 < 0 || t6370 >= d_A[0] {
				return m.OOB(t6370, d_A[0], 0, "A", 8, 47)
			}
			t6371 := i_i2
			if t6371 < 0 || t6371 >= d_A[1] {
				return m.OOB(t6371, d_A[1], 1, "A", 8, 47)
			}
			t6372 := b_A + int((t6370)*d_A[1]+t6371)
			r_A_r3 := m.LoadF(t6372)
			t6373 := i_i1
			if t6373 < 0 || t6373 >= d_B[0] {
				return m.OOB(t6373, d_B[0], 0, "B", 8, 59)
			}
			t6374 := i_i2 - int64(1)
			t6375 := t6374
			if t6375 < 0 || t6375 >= d_B[1] {
				return m.OOB(t6375, d_B[1], 1, "B", 8, 59)
			}
			t6376 := b_B + int((t6373)*d_B[1]+t6375)
			r_B_r3 := m.LoadF(t6376)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6377 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6378 := float64(t6377 / r_B_r3)
			t6379 := float64(r_B_r2 - t6378)
			r_B_w := t6379
			t6380 := i_i1
			if t6380 < 0 || t6380 >= d_B[0] {
				return m.OOB(t6380, d_B[0], 0, "B", 8, 11)
			}
			t6381 := i_i2
			if t6381 < 0 || t6381 >= d_B[1] {
				return m.OOB(t6381, d_B[1], 1, "B", 8, 11)
			}
			t6382 := b_B + int((t6380)*d_B[1]+t6381)
			m.StoreF(t6382, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
		t6383 := p_n - int64(1)
		t6384 := codegen.MaxI(int64(1), t6383)
		t6385 := p_n - int64(1)
		for i_i2 := t6384; i_i2 <= t6385; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6386 := i_i1
			if t6386 < 0 || t6386 >= d_X[0] {
				return m.OOB(t6386, d_X[0], 0, "X", 7, 23)
			}
			t6387 := i_i2
			if t6387 < 0 || t6387 >= d_X[1] {
				return m.OOB(t6387, d_X[1], 1, "X", 7, 23)
			}
			t6388 := b_X + int((t6386)*d_X[1]+t6387)
			r_X_r := m.LoadF(t6388)
			t6389 := i_i1
			if t6389 < 0 || t6389 >= d_X[0] {
				return m.OOB(t6389, d_X[0], 0, "X", 7, 35)
			}
			t6390 := i_i2 - int64(1)
			t6391 := t6390
			if t6391 < 0 || t6391 >= d_X[1] {
				return m.OOB(t6391, d_X[1], 1, "X", 7, 35)
			}
			t6392 := b_X + int((t6389)*d_X[1]+t6391)
			r_X_r2 := m.LoadF(t6392)
			t6393 := i_i1
			if t6393 < 0 || t6393 >= d_A[0] {
				return m.OOB(t6393, d_A[0], 0, "A", 7, 51)
			}
			t6394 := i_i2
			if t6394 < 0 || t6394 >= d_A[1] {
				return m.OOB(t6394, d_A[1], 1, "A", 7, 51)
			}
			t6395 := b_A + int((t6393)*d_A[1]+t6394)
			r_A_r := m.LoadF(t6395)
			t6396 := i_i1
			if t6396 < 0 || t6396 >= d_B[0] {
				return m.OOB(t6396, d_B[0], 0, "B", 7, 63)
			}
			t6397 := i_i2 - int64(1)
			t6398 := t6397
			if t6398 < 0 || t6398 >= d_B[1] {
				return m.OOB(t6398, d_B[1], 1, "B", 7, 63)
			}
			t6399 := b_B + int((t6396)*d_B[1]+t6398)
			r_B_r := m.LoadF(t6399)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6400 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6401 := float64(t6400 / r_B_r)
			t6402 := float64(r_X_r - t6401)
			r_X_w := t6402
			t6403 := i_i1
			if t6403 < 0 || t6403 >= d_X[0] {
				return m.OOB(t6403, d_X[0], 0, "X", 7, 11)
			}
			t6404 := i_i2
			if t6404 < 0 || t6404 >= d_X[1] {
				return m.OOB(t6404, d_X[1], 1, "X", 7, 11)
			}
			t6405 := b_X + int((t6403)*d_X[1]+t6404)
			m.StoreF(t6405, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t6406 := i_i1
			if t6406 < 0 || t6406 >= d_B[0] {
				return m.OOB(t6406, d_B[0], 0, "B", 8, 23)
			}
			t6407 := i_i2
			if t6407 < 0 || t6407 >= d_B[1] {
				return m.OOB(t6407, d_B[1], 1, "B", 8, 23)
			}
			t6408 := b_B + int((t6406)*d_B[1]+t6407)
			r_B_r2 := m.LoadF(t6408)
			t6409 := i_i1
			if t6409 < 0 || t6409 >= d_A[0] {
				return m.OOB(t6409, d_A[0], 0, "A", 8, 35)
			}
			t6410 := i_i2
			if t6410 < 0 || t6410 >= d_A[1] {
				return m.OOB(t6410, d_A[1], 1, "A", 8, 35)
			}
			t6411 := b_A + int((t6409)*d_A[1]+t6410)
			r_A_r2 := m.LoadF(t6411)
			t6412 := i_i1
			if t6412 < 0 || t6412 >= d_A[0] {
				return m.OOB(t6412, d_A[0], 0, "A", 8, 47)
			}
			t6413 := i_i2
			if t6413 < 0 || t6413 >= d_A[1] {
				return m.OOB(t6413, d_A[1], 1, "A", 8, 47)
			}
			t6414 := b_A + int((t6412)*d_A[1]+t6413)
			r_A_r3 := m.LoadF(t6414)
			t6415 := i_i1
			if t6415 < 0 || t6415 >= d_B[0] {
				return m.OOB(t6415, d_B[0], 0, "B", 8, 59)
			}
			t6416 := i_i2 - int64(1)
			t6417 := t6416
			if t6417 < 0 || t6417 >= d_B[1] {
				return m.OOB(t6417, d_B[1], 1, "B", 8, 59)
			}
			t6418 := b_B + int((t6415)*d_B[1]+t6417)
			r_B_r3 := m.LoadF(t6418)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6419 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6420 := float64(t6419 / r_B_r3)
			t6421 := float64(r_B_r2 - t6420)
			r_B_w := t6421
			t6422 := i_i1
			if t6422 < 0 || t6422 >= d_B[0] {
				return m.OOB(t6422, d_B[0], 0, "B", 8, 11)
			}
			t6423 := i_i2
			if t6423 < 0 || t6423 >= d_B[1] {
				return m.OOB(t6423, d_B[1], 1, "B", 8, 11)
			}
			t6424 := b_B + int((t6422)*d_B[1]+t6423)
			m.StoreF(t6424, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n84(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6425 := p_n - int64(2)
	for i_i1 := int64(1); i_i1 <= t6425; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6426 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t6426; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6427 := i_i1
			if t6427 < 0 || t6427 >= d_X[0] {
				return m.OOB(t6427, d_X[0], 0, "X", 7, 23)
			}
			t6428 := i_i2
			if t6428 < 0 || t6428 >= d_X[1] {
				return m.OOB(t6428, d_X[1], 1, "X", 7, 23)
			}
			t6429 := b_X + int((t6427)*d_X[1]+t6428)
			r_X_r := m.LoadF(t6429)
			t6430 := i_i1
			if t6430 < 0 || t6430 >= d_X[0] {
				return m.OOB(t6430, d_X[0], 0, "X", 7, 35)
			}
			t6431 := i_i2 - int64(1)
			t6432 := t6431
			if t6432 < 0 || t6432 >= d_X[1] {
				return m.OOB(t6432, d_X[1], 1, "X", 7, 35)
			}
			t6433 := b_X + int((t6430)*d_X[1]+t6432)
			r_X_r2 := m.LoadF(t6433)
			t6434 := i_i1
			if t6434 < 0 || t6434 >= d_A[0] {
				return m.OOB(t6434, d_A[0], 0, "A", 7, 51)
			}
			t6435 := i_i2
			if t6435 < 0 || t6435 >= d_A[1] {
				return m.OOB(t6435, d_A[1], 1, "A", 7, 51)
			}
			t6436 := b_A + int((t6434)*d_A[1]+t6435)
			r_A_r := m.LoadF(t6436)
			t6437 := i_i1
			if t6437 < 0 || t6437 >= d_B[0] {
				return m.OOB(t6437, d_B[0], 0, "B", 7, 63)
			}
			t6438 := i_i2 - int64(1)
			t6439 := t6438
			if t6439 < 0 || t6439 >= d_B[1] {
				return m.OOB(t6439, d_B[1], 1, "B", 7, 63)
			}
			t6440 := b_B + int((t6437)*d_B[1]+t6439)
			r_B_r := m.LoadF(t6440)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6441 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6442 := float64(t6441 / r_B_r)
			t6443 := float64(r_X_r - t6442)
			r_X_w := t6443
			t6444 := i_i1
			if t6444 < 0 || t6444 >= d_X[0] {
				return m.OOB(t6444, d_X[0], 0, "X", 7, 11)
			}
			t6445 := i_i2
			if t6445 < 0 || t6445 >= d_X[1] {
				return m.OOB(t6445, d_X[1], 1, "X", 7, 11)
			}
			t6446 := b_X + int((t6444)*d_X[1]+t6445)
			m.StoreF(t6446, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t6447 := i_i1
			if t6447 < 0 || t6447 >= d_B[0] {
				return m.OOB(t6447, d_B[0], 0, "B", 8, 23)
			}
			t6448 := i_i2
			if t6448 < 0 || t6448 >= d_B[1] {
				return m.OOB(t6448, d_B[1], 1, "B", 8, 23)
			}
			t6449 := b_B + int((t6447)*d_B[1]+t6448)
			r_B_r2 := m.LoadF(t6449)
			t6450 := i_i1
			if t6450 < 0 || t6450 >= d_A[0] {
				return m.OOB(t6450, d_A[0], 0, "A", 8, 35)
			}
			t6451 := i_i2
			if t6451 < 0 || t6451 >= d_A[1] {
				return m.OOB(t6451, d_A[1], 1, "A", 8, 35)
			}
			t6452 := b_A + int((t6450)*d_A[1]+t6451)
			r_A_r2 := m.LoadF(t6452)
			t6453 := i_i1
			if t6453 < 0 || t6453 >= d_A[0] {
				return m.OOB(t6453, d_A[0], 0, "A", 8, 47)
			}
			t6454 := i_i2
			if t6454 < 0 || t6454 >= d_A[1] {
				return m.OOB(t6454, d_A[1], 1, "A", 8, 47)
			}
			t6455 := b_A + int((t6453)*d_A[1]+t6454)
			r_A_r3 := m.LoadF(t6455)
			t6456 := i_i1
			if t6456 < 0 || t6456 >= d_B[0] {
				return m.OOB(t6456, d_B[0], 0, "B", 8, 59)
			}
			t6457 := i_i2 - int64(1)
			t6458 := t6457
			if t6458 < 0 || t6458 >= d_B[1] {
				return m.OOB(t6458, d_B[1], 1, "B", 8, 59)
			}
			t6459 := b_B + int((t6456)*d_B[1]+t6458)
			r_B_r3 := m.LoadF(t6459)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6460 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6461 := float64(t6460 / r_B_r3)
			t6462 := float64(r_B_r2 - t6461)
			r_B_w := t6462
			t6463 := i_i1
			if t6463 < 0 || t6463 >= d_B[0] {
				return m.OOB(t6463, d_B[0], 0, "B", 8, 11)
			}
			t6464 := i_i2
			if t6464 < 0 || t6464 >= d_B[1] {
				return m.OOB(t6464, d_B[1], 1, "B", 8, 11)
			}
			t6465 := b_B + int((t6463)*d_B[1]+t6464)
			m.StoreF(t6465, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t6466 := p_n - int64(2)
		t6467 := codegen.MaxI(int64(1), t6466)
		t6468 := p_n - int64(2)
		for i_i2 := t6467; i_i2 <= t6468; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6469 := i_i1
			if t6469 < 0 || t6469 >= d_X[0] {
				return m.OOB(t6469, d_X[0], 0, "X", 7, 23)
			}
			t6470 := i_i2
			if t6470 < 0 || t6470 >= d_X[1] {
				return m.OOB(t6470, d_X[1], 1, "X", 7, 23)
			}
			t6471 := b_X + int((t6469)*d_X[1]+t6470)
			r_X_r := m.LoadF(t6471)
			t6472 := i_i1
			if t6472 < 0 || t6472 >= d_X[0] {
				return m.OOB(t6472, d_X[0], 0, "X", 7, 35)
			}
			t6473 := i_i2 - int64(1)
			t6474 := t6473
			if t6474 < 0 || t6474 >= d_X[1] {
				return m.OOB(t6474, d_X[1], 1, "X", 7, 35)
			}
			t6475 := b_X + int((t6472)*d_X[1]+t6474)
			r_X_r2 := m.LoadF(t6475)
			t6476 := i_i1
			if t6476 < 0 || t6476 >= d_A[0] {
				return m.OOB(t6476, d_A[0], 0, "A", 7, 51)
			}
			t6477 := i_i2
			if t6477 < 0 || t6477 >= d_A[1] {
				return m.OOB(t6477, d_A[1], 1, "A", 7, 51)
			}
			t6478 := b_A + int((t6476)*d_A[1]+t6477)
			r_A_r := m.LoadF(t6478)
			t6479 := i_i1
			if t6479 < 0 || t6479 >= d_B[0] {
				return m.OOB(t6479, d_B[0], 0, "B", 7, 63)
			}
			t6480 := i_i2 - int64(1)
			t6481 := t6480
			if t6481 < 0 || t6481 >= d_B[1] {
				return m.OOB(t6481, d_B[1], 1, "B", 7, 63)
			}
			t6482 := b_B + int((t6479)*d_B[1]+t6481)
			r_B_r := m.LoadF(t6482)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6483 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6484 := float64(t6483 / r_B_r)
			t6485 := float64(r_X_r - t6484)
			r_X_w := t6485
			t6486 := i_i1
			if t6486 < 0 || t6486 >= d_X[0] {
				return m.OOB(t6486, d_X[0], 0, "X", 7, 11)
			}
			t6487 := i_i2
			if t6487 < 0 || t6487 >= d_X[1] {
				return m.OOB(t6487, d_X[1], 1, "X", 7, 11)
			}
			t6488 := b_X + int((t6486)*d_X[1]+t6487)
			m.StoreF(t6488, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t6489 := i_i1
			if t6489 < 0 || t6489 >= d_B[0] {
				return m.OOB(t6489, d_B[0], 0, "B", 8, 23)
			}
			t6490 := i_i2
			if t6490 < 0 || t6490 >= d_B[1] {
				return m.OOB(t6490, d_B[1], 1, "B", 8, 23)
			}
			t6491 := b_B + int((t6489)*d_B[1]+t6490)
			r_B_r2 := m.LoadF(t6491)
			t6492 := i_i1
			if t6492 < 0 || t6492 >= d_A[0] {
				return m.OOB(t6492, d_A[0], 0, "A", 8, 35)
			}
			t6493 := i_i2
			if t6493 < 0 || t6493 >= d_A[1] {
				return m.OOB(t6493, d_A[1], 1, "A", 8, 35)
			}
			t6494 := b_A + int((t6492)*d_A[1]+t6493)
			r_A_r2 := m.LoadF(t6494)
			t6495 := i_i1
			if t6495 < 0 || t6495 >= d_A[0] {
				return m.OOB(t6495, d_A[0], 0, "A", 8, 47)
			}
			t6496 := i_i2
			if t6496 < 0 || t6496 >= d_A[1] {
				return m.OOB(t6496, d_A[1], 1, "A", 8, 47)
			}
			t6497 := b_A + int((t6495)*d_A[1]+t6496)
			r_A_r3 := m.LoadF(t6497)
			t6498 := i_i1
			if t6498 < 0 || t6498 >= d_B[0] {
				return m.OOB(t6498, d_B[0], 0, "B", 8, 59)
			}
			t6499 := i_i2 - int64(1)
			t6500 := t6499
			if t6500 < 0 || t6500 >= d_B[1] {
				return m.OOB(t6500, d_B[1], 1, "B", 8, 59)
			}
			t6501 := b_B + int((t6498)*d_B[1]+t6500)
			r_B_r3 := m.LoadF(t6501)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6502 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6503 := float64(t6502 / r_B_r3)
			t6504 := float64(r_B_r2 - t6503)
			r_B_w := t6504
			t6505 := i_i1
			if t6505 < 0 || t6505 >= d_B[0] {
				return m.OOB(t6505, d_B[0], 0, "B", 8, 11)
			}
			t6506 := i_i2
			if t6506 < 0 || t6506 >= d_B[1] {
				return m.OOB(t6506, d_B[1], 1, "B", 8, 11)
			}
			t6507 := b_B + int((t6505)*d_B[1]+t6506)
			m.StoreF(t6507, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t6508 := p_n - int64(1)
		t6509 := codegen.MaxI(int64(1), t6508)
		t6510 := p_n - int64(1)
		for i_i2 := t6509; i_i2 <= t6510; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6511 := i_i1
			if t6511 < 0 || t6511 >= d_X[0] {
				return m.OOB(t6511, d_X[0], 0, "X", 7, 23)
			}
			t6512 := i_i2
			if t6512 < 0 || t6512 >= d_X[1] {
				return m.OOB(t6512, d_X[1], 1, "X", 7, 23)
			}
			t6513 := b_X + int((t6511)*d_X[1]+t6512)
			r_X_r := m.LoadF(t6513)
			t6514 := i_i1
			if t6514 < 0 || t6514 >= d_X[0] {
				return m.OOB(t6514, d_X[0], 0, "X", 7, 35)
			}
			t6515 := i_i2 - int64(1)
			t6516 := t6515
			if t6516 < 0 || t6516 >= d_X[1] {
				return m.OOB(t6516, d_X[1], 1, "X", 7, 35)
			}
			t6517 := b_X + int((t6514)*d_X[1]+t6516)
			r_X_r2 := m.LoadF(t6517)
			t6518 := i_i1
			if t6518 < 0 || t6518 >= d_A[0] {
				return m.OOB(t6518, d_A[0], 0, "A", 7, 51)
			}
			t6519 := i_i2
			if t6519 < 0 || t6519 >= d_A[1] {
				return m.OOB(t6519, d_A[1], 1, "A", 7, 51)
			}
			t6520 := b_A + int((t6518)*d_A[1]+t6519)
			r_A_r := m.LoadF(t6520)
			t6521 := i_i1
			if t6521 < 0 || t6521 >= d_B[0] {
				return m.OOB(t6521, d_B[0], 0, "B", 7, 63)
			}
			t6522 := i_i2 - int64(1)
			t6523 := t6522
			if t6523 < 0 || t6523 >= d_B[1] {
				return m.OOB(t6523, d_B[1], 1, "B", 7, 63)
			}
			t6524 := b_B + int((t6521)*d_B[1]+t6523)
			r_B_r := m.LoadF(t6524)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6525 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6526 := float64(t6525 / r_B_r)
			t6527 := float64(r_X_r - t6526)
			r_X_w := t6527
			t6528 := i_i1
			if t6528 < 0 || t6528 >= d_X[0] {
				return m.OOB(t6528, d_X[0], 0, "X", 7, 11)
			}
			t6529 := i_i2
			if t6529 < 0 || t6529 >= d_X[1] {
				return m.OOB(t6529, d_X[1], 1, "X", 7, 11)
			}
			t6530 := b_X + int((t6528)*d_X[1]+t6529)
			m.StoreF(t6530, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t6531 := i_i1
			if t6531 < 0 || t6531 >= d_B[0] {
				return m.OOB(t6531, d_B[0], 0, "B", 8, 23)
			}
			t6532 := i_i2
			if t6532 < 0 || t6532 >= d_B[1] {
				return m.OOB(t6532, d_B[1], 1, "B", 8, 23)
			}
			t6533 := b_B + int((t6531)*d_B[1]+t6532)
			r_B_r2 := m.LoadF(t6533)
			t6534 := i_i1
			if t6534 < 0 || t6534 >= d_A[0] {
				return m.OOB(t6534, d_A[0], 0, "A", 8, 35)
			}
			t6535 := i_i2
			if t6535 < 0 || t6535 >= d_A[1] {
				return m.OOB(t6535, d_A[1], 1, "A", 8, 35)
			}
			t6536 := b_A + int((t6534)*d_A[1]+t6535)
			r_A_r2 := m.LoadF(t6536)
			t6537 := i_i1
			if t6537 < 0 || t6537 >= d_A[0] {
				return m.OOB(t6537, d_A[0], 0, "A", 8, 47)
			}
			t6538 := i_i2
			if t6538 < 0 || t6538 >= d_A[1] {
				return m.OOB(t6538, d_A[1], 1, "A", 8, 47)
			}
			t6539 := b_A + int((t6537)*d_A[1]+t6538)
			r_A_r3 := m.LoadF(t6539)
			t6540 := i_i1
			if t6540 < 0 || t6540 >= d_B[0] {
				return m.OOB(t6540, d_B[0], 0, "B", 8, 59)
			}
			t6541 := i_i2 - int64(1)
			t6542 := t6541
			if t6542 < 0 || t6542 >= d_B[1] {
				return m.OOB(t6542, d_B[1], 1, "B", 8, 59)
			}
			t6543 := b_B + int((t6540)*d_B[1]+t6542)
			r_B_r3 := m.LoadF(t6543)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6544 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6545 := float64(t6544 / r_B_r3)
			t6546 := float64(r_B_r2 - t6545)
			r_B_w := t6546
			t6547 := i_i1
			if t6547 < 0 || t6547 >= d_B[0] {
				return m.OOB(t6547, d_B[0], 0, "B", 8, 11)
			}
			t6548 := i_i2
			if t6548 < 0 || t6548 >= d_B[1] {
				return m.OOB(t6548, d_B[1], 1, "B", 8, 11)
			}
			t6549 := b_B + int((t6547)*d_B[1]+t6548)
			m.StoreF(t6549, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n85(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6550 := p_n - int64(1)
	t6551 := codegen.MaxI(int64(1), t6550)
	t6552 := p_n - int64(1)
	for i_i1 := t6551; i_i1 <= t6552; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6553 := p_n - int64(3)
		for i_i2 := int64(1); i_i2 <= t6553; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6554 := i_i1
			if t6554 < 0 || t6554 >= d_X[0] {
				return m.OOB(t6554, d_X[0], 0, "X", 7, 23)
			}
			t6555 := i_i2
			if t6555 < 0 || t6555 >= d_X[1] {
				return m.OOB(t6555, d_X[1], 1, "X", 7, 23)
			}
			t6556 := b_X + int((t6554)*d_X[1]+t6555)
			r_X_r := m.LoadF(t6556)
			t6557 := i_i1
			if t6557 < 0 || t6557 >= d_X[0] {
				return m.OOB(t6557, d_X[0], 0, "X", 7, 35)
			}
			t6558 := i_i2 - int64(1)
			t6559 := t6558
			if t6559 < 0 || t6559 >= d_X[1] {
				return m.OOB(t6559, d_X[1], 1, "X", 7, 35)
			}
			t6560 := b_X + int((t6557)*d_X[1]+t6559)
			r_X_r2 := m.LoadF(t6560)
			t6561 := i_i1
			if t6561 < 0 || t6561 >= d_A[0] {
				return m.OOB(t6561, d_A[0], 0, "A", 7, 51)
			}
			t6562 := i_i2
			if t6562 < 0 || t6562 >= d_A[1] {
				return m.OOB(t6562, d_A[1], 1, "A", 7, 51)
			}
			t6563 := b_A + int((t6561)*d_A[1]+t6562)
			r_A_r := m.LoadF(t6563)
			t6564 := i_i1
			if t6564 < 0 || t6564 >= d_B[0] {
				return m.OOB(t6564, d_B[0], 0, "B", 7, 63)
			}
			t6565 := i_i2 - int64(1)
			t6566 := t6565
			if t6566 < 0 || t6566 >= d_B[1] {
				return m.OOB(t6566, d_B[1], 1, "B", 7, 63)
			}
			t6567 := b_B + int((t6564)*d_B[1]+t6566)
			r_B_r := m.LoadF(t6567)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6568 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6569 := float64(t6568 / r_B_r)
			t6570 := float64(r_X_r - t6569)
			r_X_w := t6570
			t6571 := i_i1
			if t6571 < 0 || t6571 >= d_X[0] {
				return m.OOB(t6571, d_X[0], 0, "X", 7, 11)
			}
			t6572 := i_i2
			if t6572 < 0 || t6572 >= d_X[1] {
				return m.OOB(t6572, d_X[1], 1, "X", 7, 11)
			}
			t6573 := b_X + int((t6571)*d_X[1]+t6572)
			m.StoreF(t6573, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t6574 := i_i1
			if t6574 < 0 || t6574 >= d_B[0] {
				return m.OOB(t6574, d_B[0], 0, "B", 8, 23)
			}
			t6575 := i_i2
			if t6575 < 0 || t6575 >= d_B[1] {
				return m.OOB(t6575, d_B[1], 1, "B", 8, 23)
			}
			t6576 := b_B + int((t6574)*d_B[1]+t6575)
			r_B_r2 := m.LoadF(t6576)
			t6577 := i_i1
			if t6577 < 0 || t6577 >= d_A[0] {
				return m.OOB(t6577, d_A[0], 0, "A", 8, 35)
			}
			t6578 := i_i2
			if t6578 < 0 || t6578 >= d_A[1] {
				return m.OOB(t6578, d_A[1], 1, "A", 8, 35)
			}
			t6579 := b_A + int((t6577)*d_A[1]+t6578)
			r_A_r2 := m.LoadF(t6579)
			t6580 := i_i1
			if t6580 < 0 || t6580 >= d_A[0] {
				return m.OOB(t6580, d_A[0], 0, "A", 8, 47)
			}
			t6581 := i_i2
			if t6581 < 0 || t6581 >= d_A[1] {
				return m.OOB(t6581, d_A[1], 1, "A", 8, 47)
			}
			t6582 := b_A + int((t6580)*d_A[1]+t6581)
			r_A_r3 := m.LoadF(t6582)
			t6583 := i_i1
			if t6583 < 0 || t6583 >= d_B[0] {
				return m.OOB(t6583, d_B[0], 0, "B", 8, 59)
			}
			t6584 := i_i2 - int64(1)
			t6585 := t6584
			if t6585 < 0 || t6585 >= d_B[1] {
				return m.OOB(t6585, d_B[1], 1, "B", 8, 59)
			}
			t6586 := b_B + int((t6583)*d_B[1]+t6585)
			r_B_r3 := m.LoadF(t6586)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6587 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6588 := float64(t6587 / r_B_r3)
			t6589 := float64(r_B_r2 - t6588)
			r_B_w := t6589
			t6590 := i_i1
			if t6590 < 0 || t6590 >= d_B[0] {
				return m.OOB(t6590, d_B[0], 0, "B", 8, 11)
			}
			t6591 := i_i2
			if t6591 < 0 || t6591 >= d_B[1] {
				return m.OOB(t6591, d_B[1], 1, "B", 8, 11)
			}
			t6592 := b_B + int((t6590)*d_B[1]+t6591)
			m.StoreF(t6592, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t6593 := p_n - int64(2)
		t6594 := codegen.MaxI(int64(1), t6593)
		t6595 := p_n - int64(2)
		for i_i2 := t6594; i_i2 <= t6595; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6596 := i_i1
			if t6596 < 0 || t6596 >= d_X[0] {
				return m.OOB(t6596, d_X[0], 0, "X", 7, 23)
			}
			t6597 := i_i2
			if t6597 < 0 || t6597 >= d_X[1] {
				return m.OOB(t6597, d_X[1], 1, "X", 7, 23)
			}
			t6598 := b_X + int((t6596)*d_X[1]+t6597)
			r_X_r := m.LoadF(t6598)
			t6599 := i_i1
			if t6599 < 0 || t6599 >= d_X[0] {
				return m.OOB(t6599, d_X[0], 0, "X", 7, 35)
			}
			t6600 := i_i2 - int64(1)
			t6601 := t6600
			if t6601 < 0 || t6601 >= d_X[1] {
				return m.OOB(t6601, d_X[1], 1, "X", 7, 35)
			}
			t6602 := b_X + int((t6599)*d_X[1]+t6601)
			r_X_r2 := m.LoadF(t6602)
			t6603 := i_i1
			if t6603 < 0 || t6603 >= d_A[0] {
				return m.OOB(t6603, d_A[0], 0, "A", 7, 51)
			}
			t6604 := i_i2
			if t6604 < 0 || t6604 >= d_A[1] {
				return m.OOB(t6604, d_A[1], 1, "A", 7, 51)
			}
			t6605 := b_A + int((t6603)*d_A[1]+t6604)
			r_A_r := m.LoadF(t6605)
			t6606 := i_i1
			if t6606 < 0 || t6606 >= d_B[0] {
				return m.OOB(t6606, d_B[0], 0, "B", 7, 63)
			}
			t6607 := i_i2 - int64(1)
			t6608 := t6607
			if t6608 < 0 || t6608 >= d_B[1] {
				return m.OOB(t6608, d_B[1], 1, "B", 7, 63)
			}
			t6609 := b_B + int((t6606)*d_B[1]+t6608)
			r_B_r := m.LoadF(t6609)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6610 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6611 := float64(t6610 / r_B_r)
			t6612 := float64(r_X_r - t6611)
			r_X_w := t6612
			t6613 := i_i1
			if t6613 < 0 || t6613 >= d_X[0] {
				return m.OOB(t6613, d_X[0], 0, "X", 7, 11)
			}
			t6614 := i_i2
			if t6614 < 0 || t6614 >= d_X[1] {
				return m.OOB(t6614, d_X[1], 1, "X", 7, 11)
			}
			t6615 := b_X + int((t6613)*d_X[1]+t6614)
			m.StoreF(t6615, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(2))
			t6616 := i_i1
			if t6616 < 0 || t6616 >= d_B[0] {
				return m.OOB(t6616, d_B[0], 0, "B", 8, 23)
			}
			t6617 := i_i2
			if t6617 < 0 || t6617 >= d_B[1] {
				return m.OOB(t6617, d_B[1], 1, "B", 8, 23)
			}
			t6618 := b_B + int((t6616)*d_B[1]+t6617)
			r_B_r2 := m.LoadF(t6618)
			t6619 := i_i1
			if t6619 < 0 || t6619 >= d_A[0] {
				return m.OOB(t6619, d_A[0], 0, "A", 8, 35)
			}
			t6620 := i_i2
			if t6620 < 0 || t6620 >= d_A[1] {
				return m.OOB(t6620, d_A[1], 1, "A", 8, 35)
			}
			t6621 := b_A + int((t6619)*d_A[1]+t6620)
			r_A_r2 := m.LoadF(t6621)
			t6622 := i_i1
			if t6622 < 0 || t6622 >= d_A[0] {
				return m.OOB(t6622, d_A[0], 0, "A", 8, 47)
			}
			t6623 := i_i2
			if t6623 < 0 || t6623 >= d_A[1] {
				return m.OOB(t6623, d_A[1], 1, "A", 8, 47)
			}
			t6624 := b_A + int((t6622)*d_A[1]+t6623)
			r_A_r3 := m.LoadF(t6624)
			t6625 := i_i1
			if t6625 < 0 || t6625 >= d_B[0] {
				return m.OOB(t6625, d_B[0], 0, "B", 8, 59)
			}
			t6626 := i_i2 - int64(1)
			t6627 := t6626
			if t6627 < 0 || t6627 >= d_B[1] {
				return m.OOB(t6627, d_B[1], 1, "B", 8, 59)
			}
			t6628 := b_B + int((t6625)*d_B[1]+t6627)
			r_B_r3 := m.LoadF(t6628)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6629 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6630 := float64(t6629 / r_B_r3)
			t6631 := float64(r_B_r2 - t6630)
			r_B_w := t6631
			t6632 := i_i1
			if t6632 < 0 || t6632 >= d_B[0] {
				return m.OOB(t6632, d_B[0], 0, "B", 8, 11)
			}
			t6633 := i_i2
			if t6633 < 0 || t6633 >= d_B[1] {
				return m.OOB(t6633, d_B[1], 1, "B", 8, 11)
			}
			t6634 := b_B + int((t6632)*d_B[1]+t6633)
			m.StoreF(t6634, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
		t6635 := p_n - int64(1)
		t6636 := codegen.MaxI(int64(1), t6635)
		t6637 := p_n - int64(1)
		for i_i2 := t6636; i_i2 <= t6637; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6638 := i_i1
			if t6638 < 0 || t6638 >= d_X[0] {
				return m.OOB(t6638, d_X[0], 0, "X", 7, 23)
			}
			t6639 := i_i2
			if t6639 < 0 || t6639 >= d_X[1] {
				return m.OOB(t6639, d_X[1], 1, "X", 7, 23)
			}
			t6640 := b_X + int((t6638)*d_X[1]+t6639)
			r_X_r := m.LoadF(t6640)
			t6641 := i_i1
			if t6641 < 0 || t6641 >= d_X[0] {
				return m.OOB(t6641, d_X[0], 0, "X", 7, 35)
			}
			t6642 := i_i2 - int64(1)
			t6643 := t6642
			if t6643 < 0 || t6643 >= d_X[1] {
				return m.OOB(t6643, d_X[1], 1, "X", 7, 35)
			}
			t6644 := b_X + int((t6641)*d_X[1]+t6643)
			r_X_r2 := m.LoadF(t6644)
			t6645 := i_i1
			if t6645 < 0 || t6645 >= d_A[0] {
				return m.OOB(t6645, d_A[0], 0, "A", 7, 51)
			}
			t6646 := i_i2
			if t6646 < 0 || t6646 >= d_A[1] {
				return m.OOB(t6646, d_A[1], 1, "A", 7, 51)
			}
			t6647 := b_A + int((t6645)*d_A[1]+t6646)
			r_A_r := m.LoadF(t6647)
			t6648 := i_i1
			if t6648 < 0 || t6648 >= d_B[0] {
				return m.OOB(t6648, d_B[0], 0, "B", 7, 63)
			}
			t6649 := i_i2 - int64(1)
			t6650 := t6649
			if t6650 < 0 || t6650 >= d_B[1] {
				return m.OOB(t6650, d_B[1], 1, "B", 7, 63)
			}
			t6651 := b_B + int((t6648)*d_B[1]+t6650)
			r_B_r := m.LoadF(t6651)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r), int64(1))
			t6652 := float64(r_X_r2 * r_A_r)
			if r_B_r == 0 {
				return m.DivZero(7, 61)
			}
			t6653 := float64(t6652 / r_B_r)
			t6654 := float64(r_X_r - t6653)
			r_X_w := t6654
			t6655 := i_i1
			if t6655 < 0 || t6655 >= d_X[0] {
				return m.OOB(t6655, d_X[0], 0, "X", 7, 11)
			}
			t6656 := i_i2
			if t6656 < 0 || t6656 >= d_X[1] {
				return m.OOB(t6656, d_X[1], 1, "X", 7, 11)
			}
			t6657 := b_X + int((t6655)*d_X[1]+t6656)
			m.StoreF(t6657, r_X_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w), int64(1))
			t6658 := i_i1
			if t6658 < 0 || t6658 >= d_B[0] {
				return m.OOB(t6658, d_B[0], 0, "B", 8, 23)
			}
			t6659 := i_i2
			if t6659 < 0 || t6659 >= d_B[1] {
				return m.OOB(t6659, d_B[1], 1, "B", 8, 23)
			}
			t6660 := b_B + int((t6658)*d_B[1]+t6659)
			r_B_r2 := m.LoadF(t6660)
			t6661 := i_i1
			if t6661 < 0 || t6661 >= d_A[0] {
				return m.OOB(t6661, d_A[0], 0, "A", 8, 35)
			}
			t6662 := i_i2
			if t6662 < 0 || t6662 >= d_A[1] {
				return m.OOB(t6662, d_A[1], 1, "A", 8, 35)
			}
			t6663 := b_A + int((t6661)*d_A[1]+t6662)
			r_A_r2 := m.LoadF(t6663)
			t6664 := i_i1
			if t6664 < 0 || t6664 >= d_A[0] {
				return m.OOB(t6664, d_A[0], 0, "A", 8, 47)
			}
			t6665 := i_i2
			if t6665 < 0 || t6665 >= d_A[1] {
				return m.OOB(t6665, d_A[1], 1, "A", 8, 47)
			}
			t6666 := b_A + int((t6664)*d_A[1]+t6665)
			r_A_r3 := m.LoadF(t6666)
			t6667 := i_i1
			if t6667 < 0 || t6667 >= d_B[0] {
				return m.OOB(t6667, d_B[0], 0, "B", 8, 59)
			}
			t6668 := i_i2 - int64(1)
			t6669 := t6668
			if t6669 < 0 || t6669 >= d_B[1] {
				return m.OOB(t6669, d_B[1], 1, "B", 8, 59)
			}
			t6670 := b_B + int((t6667)*d_B[1]+t6669)
			r_B_r3 := m.LoadF(t6670)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r2), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r3), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r3), int64(1))
			t6671 := float64(r_A_r2 * r_A_r3)
			if r_B_r3 == 0 {
				return m.DivZero(8, 57)
			}
			t6672 := float64(t6671 / r_B_r3)
			t6673 := float64(r_B_r2 - t6672)
			r_B_w := t6673
			t6674 := i_i1
			if t6674 < 0 || t6674 >= d_B[0] {
				return m.OOB(t6674, d_B[0], 0, "B", 8, 11)
			}
			t6675 := i_i2
			if t6675 < 0 || t6675 >= d_B[1] {
				return m.OOB(t6675, d_B[1], 1, "B", 8, 11)
			}
			t6676 := b_B + int((t6674)*d_B[1]+t6675)
			m.StoreF(t6676, r_B_w)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n86(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6742 := p_n - int64(1)
	t6743 := codegen.MinI(t6742, int64(0))
	for i_i1 := int64(0); i_i1 <= t6743; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6744 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t6744; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t6745 := i_i1
			if t6745 < 0 || t6745 >= d_X[0] {
				return m.OOB(t6745, d_X[0], 0, "X", 16, 32)
			}
			t6746 := p_n - int64(2)
			t6747 := t6746 - i_i2
			t6748 := t6747
			if t6748 < 0 || t6748 >= d_X[1] {
				return m.OOB(t6748, d_X[1], 1, "X", 16, 32)
			}
			t6749 := b_X + int((t6745)*d_X[1]+t6748)
			r_X_r4 := m.LoadF(t6749)
			t6750 := i_i1
			if t6750 < 0 || t6750 >= d_X[0] {
				return m.OOB(t6750, d_X[0], 0, "X", 16, 52)
			}
			t6751 := p_n - int64(2)
			t6752 := t6751 - i_i2
			t6753 := t6752 - int64(1)
			t6754 := t6753
			if t6754 < 0 || t6754 >= d_X[1] {
				return m.OOB(t6754, d_X[1], 1, "X", 16, 52)
			}
			t6755 := b_X + int((t6750)*d_X[1]+t6754)
			r_X_r5 := m.LoadF(t6755)
			t6756 := i_i1
			if t6756 < 0 || t6756 >= d_A[0] {
				return m.OOB(t6756, d_A[0], 0, "A", 16, 76)
			}
			t6757 := p_n - i_i2
			t6758 := t6757 - int64(3)
			t6759 := t6758
			if t6759 < 0 || t6759 >= d_A[1] {
				return m.OOB(t6759, d_A[1], 1, "A", 16, 76)
			}
			t6760 := b_A + int((t6756)*d_A[1]+t6759)
			r_A_r4 := m.LoadF(t6760)
			t6761 := i_i1
			if t6761 < 0 || t6761 >= d_B[0] {
				return m.OOB(t6761, d_B[0], 0, "B", 16, 97)
			}
			t6762 := p_n - int64(3)
			t6763 := t6762 - i_i2
			t6764 := t6763
			if t6764 < 0 || t6764 >= d_B[1] {
				return m.OOB(t6764, d_B[1], 1, "B", 16, 97)
			}
			t6765 := b_B + int((t6761)*d_B[1]+t6764)
			r_B_r5 := m.LoadF(t6765)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t6766 := float64(r_X_r5 * r_A_r4)
			t6767 := float64(r_X_r4 - t6766)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t6768 := float64(t6767 / r_B_r5)
			r_X_w3 := t6768
			t6769 := i_i1
			if t6769 < 0 || t6769 >= d_X[0] {
				return m.OOB(t6769, d_X[0], 0, "X", 16, 11)
			}
			t6770 := p_n - i_i2
			t6771 := t6770 - int64(2)
			t6772 := t6771
			if t6772 < 0 || t6772 >= d_X[1] {
				return m.OOB(t6772, d_X[1], 1, "X", 16, 11)
			}
			t6773 := b_X + int((t6769)*d_X[1]+t6772)
			m.StoreF(t6773, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(2))
		}
	}
	return nil
}

func run_adi_resilientopt_n87(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6805 := p_n - int64(1)
	t6806 := codegen.MaxI(int64(1), t6805)
	t6807 := p_n - int64(1)
	for i_i1 := t6806; i_i1 <= t6807; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6808 := p_n - int64(3)
		for i_i2 := int64(0); i_i2 <= t6808; i_i2++ {
			if err := m.Tick(15, 5); err != nil {
				return err
			}
			t6809 := i_i1
			if t6809 < 0 || t6809 >= d_X[0] {
				return m.OOB(t6809, d_X[0], 0, "X", 16, 32)
			}
			t6810 := p_n - int64(2)
			t6811 := t6810 - i_i2
			t6812 := t6811
			if t6812 < 0 || t6812 >= d_X[1] {
				return m.OOB(t6812, d_X[1], 1, "X", 16, 32)
			}
			t6813 := b_X + int((t6809)*d_X[1]+t6812)
			r_X_r4 := m.LoadF(t6813)
			t6814 := i_i1
			if t6814 < 0 || t6814 >= d_X[0] {
				return m.OOB(t6814, d_X[0], 0, "X", 16, 52)
			}
			t6815 := p_n - int64(2)
			t6816 := t6815 - i_i2
			t6817 := t6816 - int64(1)
			t6818 := t6817
			if t6818 < 0 || t6818 >= d_X[1] {
				return m.OOB(t6818, d_X[1], 1, "X", 16, 52)
			}
			t6819 := b_X + int((t6814)*d_X[1]+t6818)
			r_X_r5 := m.LoadF(t6819)
			t6820 := i_i1
			if t6820 < 0 || t6820 >= d_A[0] {
				return m.OOB(t6820, d_A[0], 0, "A", 16, 76)
			}
			t6821 := p_n - i_i2
			t6822 := t6821 - int64(3)
			t6823 := t6822
			if t6823 < 0 || t6823 >= d_A[1] {
				return m.OOB(t6823, d_A[1], 1, "A", 16, 76)
			}
			t6824 := b_A + int((t6820)*d_A[1]+t6823)
			r_A_r4 := m.LoadF(t6824)
			t6825 := i_i1
			if t6825 < 0 || t6825 >= d_B[0] {
				return m.OOB(t6825, d_B[0], 0, "B", 16, 97)
			}
			t6826 := p_n - int64(3)
			t6827 := t6826 - i_i2
			t6828 := t6827
			if t6828 < 0 || t6828 >= d_B[1] {
				return m.OOB(t6828, d_B[1], 1, "B", 16, 97)
			}
			t6829 := b_B + int((t6825)*d_B[1]+t6828)
			r_B_r5 := m.LoadF(t6829)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r4), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r5), int64(1))
			t6830 := float64(r_X_r5 * r_A_r4)
			t6831 := float64(r_X_r4 - t6830)
			if r_B_r5 == 0 {
				return m.DivZero(16, 95)
			}
			t6832 := float64(t6831 / r_B_r5)
			r_X_w3 := t6832
			t6833 := i_i1
			if t6833 < 0 || t6833 >= d_X[0] {
				return m.OOB(t6833, d_X[0], 0, "X", 16, 11)
			}
			t6834 := p_n - i_i2
			t6835 := t6834 - int64(2)
			t6836 := t6835
			if t6836 < 0 || t6836 >= d_X[1] {
				return m.OOB(t6836, d_X[1], 1, "X", 16, 11)
			}
			t6837 := b_X + int((t6833)*d_X[1]+t6836)
			m.StoreF(t6837, r_X_w3)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w3), int64(1))
		}
	}
	return nil
}

func run_adi_resilientopt_n88(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6838 := p_n - int64(3)
	for i_i1 := int64(1); i_i1 <= t6838; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6839 := p_n - int64(1)
		t6840 := codegen.MinI(t6839, int64(0))
		for i_i2 := int64(0); i_i2 <= t6840; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6841 := i_i1
			if t6841 < 0 || t6841 >= d_X[0] {
				return m.OOB(t6841, d_X[0], 0, "X", 21, 23)
			}
			t6842 := i_i2
			if t6842 < 0 || t6842 >= d_X[1] {
				return m.OOB(t6842, d_X[1], 1, "X", 21, 23)
			}
			t6843 := b_X + int((t6841)*d_X[1]+t6842)
			r_X_r6 := m.LoadF(t6843)
			t6844 := i_i1 - int64(1)
			t6845 := t6844
			if t6845 < 0 || t6845 >= d_X[0] {
				return m.OOB(t6845, d_X[0], 0, "X", 21, 35)
			}
			t6846 := i_i2
			if t6846 < 0 || t6846 >= d_X[1] {
				return m.OOB(t6846, d_X[1], 1, "X", 21, 35)
			}
			t6847 := b_X + int((t6845)*d_X[1]+t6846)
			r_X_r7 := m.LoadF(t6847)
			t6848 := i_i1
			if t6848 < 0 || t6848 >= d_A[0] {
				return m.OOB(t6848, d_A[0], 0, "A", 21, 51)
			}
			t6849 := i_i2
			if t6849 < 0 || t6849 >= d_A[1] {
				return m.OOB(t6849, d_A[1], 1, "A", 21, 51)
			}
			t6850 := b_A + int((t6848)*d_A[1]+t6849)
			r_A_r5 := m.LoadF(t6850)
			t6851 := i_i1 - int64(1)
			t6852 := t6851
			if t6852 < 0 || t6852 >= d_B[0] {
				return m.OOB(t6852, d_B[0], 0, "B", 21, 63)
			}
			t6853 := i_i2
			if t6853 < 0 || t6853 >= d_B[1] {
				return m.OOB(t6853, d_B[1], 1, "B", 21, 63)
			}
			t6854 := b_B + int((t6852)*d_B[1]+t6853)
			r_B_r6 := m.LoadF(t6854)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t6855 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t6856 := float64(t6855 / r_B_r6)
			t6857 := float64(r_X_r6 - t6856)
			r_X_w4 := t6857
			t6858 := i_i1
			if t6858 < 0 || t6858 >= d_X[0] {
				return m.OOB(t6858, d_X[0], 0, "X", 21, 11)
			}
			t6859 := i_i2
			if t6859 < 0 || t6859 >= d_X[1] {
				return m.OOB(t6859, d_X[1], 1, "X", 21, 11)
			}
			t6860 := b_X + int((t6858)*d_X[1]+t6859)
			m.StoreF(t6860, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t6861 := i_i1
			if t6861 < 0 || t6861 >= d_B[0] {
				return m.OOB(t6861, d_B[0], 0, "B", 22, 23)
			}
			t6862 := i_i2
			if t6862 < 0 || t6862 >= d_B[1] {
				return m.OOB(t6862, d_B[1], 1, "B", 22, 23)
			}
			t6863 := b_B + int((t6861)*d_B[1]+t6862)
			r_B_r7 := m.LoadF(t6863)
			t6864 := i_i1
			if t6864 < 0 || t6864 >= d_A[0] {
				return m.OOB(t6864, d_A[0], 0, "A", 22, 35)
			}
			t6865 := i_i2
			if t6865 < 0 || t6865 >= d_A[1] {
				return m.OOB(t6865, d_A[1], 1, "A", 22, 35)
			}
			t6866 := b_A + int((t6864)*d_A[1]+t6865)
			r_A_r6 := m.LoadF(t6866)
			t6867 := i_i1
			if t6867 < 0 || t6867 >= d_A[0] {
				return m.OOB(t6867, d_A[0], 0, "A", 22, 47)
			}
			t6868 := i_i2
			if t6868 < 0 || t6868 >= d_A[1] {
				return m.OOB(t6868, d_A[1], 1, "A", 22, 47)
			}
			t6869 := b_A + int((t6867)*d_A[1]+t6868)
			r_A_r7 := m.LoadF(t6869)
			t6870 := i_i1 - int64(1)
			t6871 := t6870
			if t6871 < 0 || t6871 >= d_B[0] {
				return m.OOB(t6871, d_B[0], 0, "B", 22, 59)
			}
			t6872 := i_i2
			if t6872 < 0 || t6872 >= d_B[1] {
				return m.OOB(t6872, d_B[1], 1, "B", 22, 59)
			}
			t6873 := b_B + int((t6871)*d_B[1]+t6872)
			r_B_r8 := m.LoadF(t6873)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t6874 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t6875 := float64(t6874 / r_B_r8)
			t6876 := float64(r_B_r7 - t6875)
			r_B_w2 := t6876
			t6877 := i_i1
			if t6877 < 0 || t6877 >= d_B[0] {
				return m.OOB(t6877, d_B[0], 0, "B", 22, 11)
			}
			t6878 := i_i2
			if t6878 < 0 || t6878 >= d_B[1] {
				return m.OOB(t6878, d_B[1], 1, "B", 22, 11)
			}
			t6879 := b_B + int((t6877)*d_B[1]+t6878)
			m.StoreF(t6879, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t6880 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t6880; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6881 := i_i1
			if t6881 < 0 || t6881 >= d_X[0] {
				return m.OOB(t6881, d_X[0], 0, "X", 21, 23)
			}
			t6882 := i_i2
			if t6882 < 0 || t6882 >= d_X[1] {
				return m.OOB(t6882, d_X[1], 1, "X", 21, 23)
			}
			t6883 := b_X + int((t6881)*d_X[1]+t6882)
			r_X_r6 := m.LoadF(t6883)
			t6884 := i_i1 - int64(1)
			t6885 := t6884
			if t6885 < 0 || t6885 >= d_X[0] {
				return m.OOB(t6885, d_X[0], 0, "X", 21, 35)
			}
			t6886 := i_i2
			if t6886 < 0 || t6886 >= d_X[1] {
				return m.OOB(t6886, d_X[1], 1, "X", 21, 35)
			}
			t6887 := b_X + int((t6885)*d_X[1]+t6886)
			r_X_r7 := m.LoadF(t6887)
			t6888 := i_i1
			if t6888 < 0 || t6888 >= d_A[0] {
				return m.OOB(t6888, d_A[0], 0, "A", 21, 51)
			}
			t6889 := i_i2
			if t6889 < 0 || t6889 >= d_A[1] {
				return m.OOB(t6889, d_A[1], 1, "A", 21, 51)
			}
			t6890 := b_A + int((t6888)*d_A[1]+t6889)
			r_A_r5 := m.LoadF(t6890)
			t6891 := i_i1 - int64(1)
			t6892 := t6891
			if t6892 < 0 || t6892 >= d_B[0] {
				return m.OOB(t6892, d_B[0], 0, "B", 21, 63)
			}
			t6893 := i_i2
			if t6893 < 0 || t6893 >= d_B[1] {
				return m.OOB(t6893, d_B[1], 1, "B", 21, 63)
			}
			t6894 := b_B + int((t6892)*d_B[1]+t6893)
			r_B_r6 := m.LoadF(t6894)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t6895 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t6896 := float64(t6895 / r_B_r6)
			t6897 := float64(r_X_r6 - t6896)
			r_X_w4 := t6897
			t6898 := i_i1
			if t6898 < 0 || t6898 >= d_X[0] {
				return m.OOB(t6898, d_X[0], 0, "X", 21, 11)
			}
			t6899 := i_i2
			if t6899 < 0 || t6899 >= d_X[1] {
				return m.OOB(t6899, d_X[1], 1, "X", 21, 11)
			}
			t6900 := b_X + int((t6898)*d_X[1]+t6899)
			m.StoreF(t6900, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t6901 := i_i1
			if t6901 < 0 || t6901 >= d_B[0] {
				return m.OOB(t6901, d_B[0], 0, "B", 22, 23)
			}
			t6902 := i_i2
			if t6902 < 0 || t6902 >= d_B[1] {
				return m.OOB(t6902, d_B[1], 1, "B", 22, 23)
			}
			t6903 := b_B + int((t6901)*d_B[1]+t6902)
			r_B_r7 := m.LoadF(t6903)
			t6904 := i_i1
			if t6904 < 0 || t6904 >= d_A[0] {
				return m.OOB(t6904, d_A[0], 0, "A", 22, 35)
			}
			t6905 := i_i2
			if t6905 < 0 || t6905 >= d_A[1] {
				return m.OOB(t6905, d_A[1], 1, "A", 22, 35)
			}
			t6906 := b_A + int((t6904)*d_A[1]+t6905)
			r_A_r6 := m.LoadF(t6906)
			t6907 := i_i1
			if t6907 < 0 || t6907 >= d_A[0] {
				return m.OOB(t6907, d_A[0], 0, "A", 22, 47)
			}
			t6908 := i_i2
			if t6908 < 0 || t6908 >= d_A[1] {
				return m.OOB(t6908, d_A[1], 1, "A", 22, 47)
			}
			t6909 := b_A + int((t6907)*d_A[1]+t6908)
			r_A_r7 := m.LoadF(t6909)
			t6910 := i_i1 - int64(1)
			t6911 := t6910
			if t6911 < 0 || t6911 >= d_B[0] {
				return m.OOB(t6911, d_B[0], 0, "B", 22, 59)
			}
			t6912 := i_i2
			if t6912 < 0 || t6912 >= d_B[1] {
				return m.OOB(t6912, d_B[1], 1, "B", 22, 59)
			}
			t6913 := b_B + int((t6911)*d_B[1]+t6912)
			r_B_r8 := m.LoadF(t6913)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t6914 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t6915 := float64(t6914 / r_B_r8)
			t6916 := float64(r_B_r7 - t6915)
			r_B_w2 := t6916
			t6917 := i_i1
			if t6917 < 0 || t6917 >= d_B[0] {
				return m.OOB(t6917, d_B[0], 0, "B", 22, 11)
			}
			t6918 := i_i2
			if t6918 < 0 || t6918 >= d_B[1] {
				return m.OOB(t6918, d_B[1], 1, "B", 22, 11)
			}
			t6919 := b_B + int((t6917)*d_B[1]+t6918)
			m.StoreF(t6919, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t6920 := p_n - int64(1)
		t6921 := codegen.MaxI(int64(1), t6920)
		t6922 := p_n - int64(1)
		for i_i2 := t6921; i_i2 <= t6922; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6923 := i_i1
			if t6923 < 0 || t6923 >= d_X[0] {
				return m.OOB(t6923, d_X[0], 0, "X", 21, 23)
			}
			t6924 := i_i2
			if t6924 < 0 || t6924 >= d_X[1] {
				return m.OOB(t6924, d_X[1], 1, "X", 21, 23)
			}
			t6925 := b_X + int((t6923)*d_X[1]+t6924)
			r_X_r6 := m.LoadF(t6925)
			t6926 := i_i1 - int64(1)
			t6927 := t6926
			if t6927 < 0 || t6927 >= d_X[0] {
				return m.OOB(t6927, d_X[0], 0, "X", 21, 35)
			}
			t6928 := i_i2
			if t6928 < 0 || t6928 >= d_X[1] {
				return m.OOB(t6928, d_X[1], 1, "X", 21, 35)
			}
			t6929 := b_X + int((t6927)*d_X[1]+t6928)
			r_X_r7 := m.LoadF(t6929)
			t6930 := i_i1
			if t6930 < 0 || t6930 >= d_A[0] {
				return m.OOB(t6930, d_A[0], 0, "A", 21, 51)
			}
			t6931 := i_i2
			if t6931 < 0 || t6931 >= d_A[1] {
				return m.OOB(t6931, d_A[1], 1, "A", 21, 51)
			}
			t6932 := b_A + int((t6930)*d_A[1]+t6931)
			r_A_r5 := m.LoadF(t6932)
			t6933 := i_i1 - int64(1)
			t6934 := t6933
			if t6934 < 0 || t6934 >= d_B[0] {
				return m.OOB(t6934, d_B[0], 0, "B", 21, 63)
			}
			t6935 := i_i2
			if t6935 < 0 || t6935 >= d_B[1] {
				return m.OOB(t6935, d_B[1], 1, "B", 21, 63)
			}
			t6936 := b_B + int((t6934)*d_B[1]+t6935)
			r_B_r6 := m.LoadF(t6936)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t6937 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t6938 := float64(t6937 / r_B_r6)
			t6939 := float64(r_X_r6 - t6938)
			r_X_w4 := t6939
			t6940 := i_i1
			if t6940 < 0 || t6940 >= d_X[0] {
				return m.OOB(t6940, d_X[0], 0, "X", 21, 11)
			}
			t6941 := i_i2
			if t6941 < 0 || t6941 >= d_X[1] {
				return m.OOB(t6941, d_X[1], 1, "X", 21, 11)
			}
			t6942 := b_X + int((t6940)*d_X[1]+t6941)
			m.StoreF(t6942, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t6943 := i_i1
			if t6943 < 0 || t6943 >= d_B[0] {
				return m.OOB(t6943, d_B[0], 0, "B", 22, 23)
			}
			t6944 := i_i2
			if t6944 < 0 || t6944 >= d_B[1] {
				return m.OOB(t6944, d_B[1], 1, "B", 22, 23)
			}
			t6945 := b_B + int((t6943)*d_B[1]+t6944)
			r_B_r7 := m.LoadF(t6945)
			t6946 := i_i1
			if t6946 < 0 || t6946 >= d_A[0] {
				return m.OOB(t6946, d_A[0], 0, "A", 22, 35)
			}
			t6947 := i_i2
			if t6947 < 0 || t6947 >= d_A[1] {
				return m.OOB(t6947, d_A[1], 1, "A", 22, 35)
			}
			t6948 := b_A + int((t6946)*d_A[1]+t6947)
			r_A_r6 := m.LoadF(t6948)
			t6949 := i_i1
			if t6949 < 0 || t6949 >= d_A[0] {
				return m.OOB(t6949, d_A[0], 0, "A", 22, 47)
			}
			t6950 := i_i2
			if t6950 < 0 || t6950 >= d_A[1] {
				return m.OOB(t6950, d_A[1], 1, "A", 22, 47)
			}
			t6951 := b_A + int((t6949)*d_A[1]+t6950)
			r_A_r7 := m.LoadF(t6951)
			t6952 := i_i1 - int64(1)
			t6953 := t6952
			if t6953 < 0 || t6953 >= d_B[0] {
				return m.OOB(t6953, d_B[0], 0, "B", 22, 59)
			}
			t6954 := i_i2
			if t6954 < 0 || t6954 >= d_B[1] {
				return m.OOB(t6954, d_B[1], 1, "B", 22, 59)
			}
			t6955 := b_B + int((t6953)*d_B[1]+t6954)
			r_B_r8 := m.LoadF(t6955)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t6956 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t6957 := float64(t6956 / r_B_r8)
			t6958 := float64(r_B_r7 - t6957)
			r_B_w2 := t6958
			t6959 := i_i1
			if t6959 < 0 || t6959 >= d_B[0] {
				return m.OOB(t6959, d_B[0], 0, "B", 22, 11)
			}
			t6960 := i_i2
			if t6960 < 0 || t6960 >= d_B[1] {
				return m.OOB(t6960, d_B[1], 1, "B", 22, 11)
			}
			t6961 := b_B + int((t6959)*d_B[1]+t6960)
			m.StoreF(t6961, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n89(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t6962 := p_n - int64(2)
	t6963 := codegen.MaxI(int64(1), t6962)
	t6964 := p_n - int64(2)
	for i_i1 := t6963; i_i1 <= t6964; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t6965 := p_n - int64(1)
		t6966 := codegen.MinI(t6965, int64(0))
		for i_i2 := int64(0); i_i2 <= t6966; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t6967 := i_i1
			if t6967 < 0 || t6967 >= d_X[0] {
				return m.OOB(t6967, d_X[0], 0, "X", 21, 23)
			}
			t6968 := i_i2
			if t6968 < 0 || t6968 >= d_X[1] {
				return m.OOB(t6968, d_X[1], 1, "X", 21, 23)
			}
			t6969 := b_X + int((t6967)*d_X[1]+t6968)
			r_X_r6 := m.LoadF(t6969)
			t6970 := i_i1 - int64(1)
			t6971 := t6970
			if t6971 < 0 || t6971 >= d_X[0] {
				return m.OOB(t6971, d_X[0], 0, "X", 21, 35)
			}
			t6972 := i_i2
			if t6972 < 0 || t6972 >= d_X[1] {
				return m.OOB(t6972, d_X[1], 1, "X", 21, 35)
			}
			t6973 := b_X + int((t6971)*d_X[1]+t6972)
			r_X_r7 := m.LoadF(t6973)
			t6974 := i_i1
			if t6974 < 0 || t6974 >= d_A[0] {
				return m.OOB(t6974, d_A[0], 0, "A", 21, 51)
			}
			t6975 := i_i2
			if t6975 < 0 || t6975 >= d_A[1] {
				return m.OOB(t6975, d_A[1], 1, "A", 21, 51)
			}
			t6976 := b_A + int((t6974)*d_A[1]+t6975)
			r_A_r5 := m.LoadF(t6976)
			t6977 := i_i1 - int64(1)
			t6978 := t6977
			if t6978 < 0 || t6978 >= d_B[0] {
				return m.OOB(t6978, d_B[0], 0, "B", 21, 63)
			}
			t6979 := i_i2
			if t6979 < 0 || t6979 >= d_B[1] {
				return m.OOB(t6979, d_B[1], 1, "B", 21, 63)
			}
			t6980 := b_B + int((t6978)*d_B[1]+t6979)
			r_B_r6 := m.LoadF(t6980)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t6981 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t6982 := float64(t6981 / r_B_r6)
			t6983 := float64(r_X_r6 - t6982)
			r_X_w4 := t6983
			t6984 := i_i1
			if t6984 < 0 || t6984 >= d_X[0] {
				return m.OOB(t6984, d_X[0], 0, "X", 21, 11)
			}
			t6985 := i_i2
			if t6985 < 0 || t6985 >= d_X[1] {
				return m.OOB(t6985, d_X[1], 1, "X", 21, 11)
			}
			t6986 := b_X + int((t6984)*d_X[1]+t6985)
			m.StoreF(t6986, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t6987 := i_i1
			if t6987 < 0 || t6987 >= d_B[0] {
				return m.OOB(t6987, d_B[0], 0, "B", 22, 23)
			}
			t6988 := i_i2
			if t6988 < 0 || t6988 >= d_B[1] {
				return m.OOB(t6988, d_B[1], 1, "B", 22, 23)
			}
			t6989 := b_B + int((t6987)*d_B[1]+t6988)
			r_B_r7 := m.LoadF(t6989)
			t6990 := i_i1
			if t6990 < 0 || t6990 >= d_A[0] {
				return m.OOB(t6990, d_A[0], 0, "A", 22, 35)
			}
			t6991 := i_i2
			if t6991 < 0 || t6991 >= d_A[1] {
				return m.OOB(t6991, d_A[1], 1, "A", 22, 35)
			}
			t6992 := b_A + int((t6990)*d_A[1]+t6991)
			r_A_r6 := m.LoadF(t6992)
			t6993 := i_i1
			if t6993 < 0 || t6993 >= d_A[0] {
				return m.OOB(t6993, d_A[0], 0, "A", 22, 47)
			}
			t6994 := i_i2
			if t6994 < 0 || t6994 >= d_A[1] {
				return m.OOB(t6994, d_A[1], 1, "A", 22, 47)
			}
			t6995 := b_A + int((t6993)*d_A[1]+t6994)
			r_A_r7 := m.LoadF(t6995)
			t6996 := i_i1 - int64(1)
			t6997 := t6996
			if t6997 < 0 || t6997 >= d_B[0] {
				return m.OOB(t6997, d_B[0], 0, "B", 22, 59)
			}
			t6998 := i_i2
			if t6998 < 0 || t6998 >= d_B[1] {
				return m.OOB(t6998, d_B[1], 1, "B", 22, 59)
			}
			t6999 := b_B + int((t6997)*d_B[1]+t6998)
			r_B_r8 := m.LoadF(t6999)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t7000 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t7001 := float64(t7000 / r_B_r8)
			t7002 := float64(r_B_r7 - t7001)
			r_B_w2 := t7002
			t7003 := i_i1
			if t7003 < 0 || t7003 >= d_B[0] {
				return m.OOB(t7003, d_B[0], 0, "B", 22, 11)
			}
			t7004 := i_i2
			if t7004 < 0 || t7004 >= d_B[1] {
				return m.OOB(t7004, d_B[1], 1, "B", 22, 11)
			}
			t7005 := b_B + int((t7003)*d_B[1]+t7004)
			m.StoreF(t7005, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t7006 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t7006; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t7007 := i_i1
			if t7007 < 0 || t7007 >= d_X[0] {
				return m.OOB(t7007, d_X[0], 0, "X", 21, 23)
			}
			t7008 := i_i2
			if t7008 < 0 || t7008 >= d_X[1] {
				return m.OOB(t7008, d_X[1], 1, "X", 21, 23)
			}
			t7009 := b_X + int((t7007)*d_X[1]+t7008)
			r_X_r6 := m.LoadF(t7009)
			t7010 := i_i1 - int64(1)
			t7011 := t7010
			if t7011 < 0 || t7011 >= d_X[0] {
				return m.OOB(t7011, d_X[0], 0, "X", 21, 35)
			}
			t7012 := i_i2
			if t7012 < 0 || t7012 >= d_X[1] {
				return m.OOB(t7012, d_X[1], 1, "X", 21, 35)
			}
			t7013 := b_X + int((t7011)*d_X[1]+t7012)
			r_X_r7 := m.LoadF(t7013)
			t7014 := i_i1
			if t7014 < 0 || t7014 >= d_A[0] {
				return m.OOB(t7014, d_A[0], 0, "A", 21, 51)
			}
			t7015 := i_i2
			if t7015 < 0 || t7015 >= d_A[1] {
				return m.OOB(t7015, d_A[1], 1, "A", 21, 51)
			}
			t7016 := b_A + int((t7014)*d_A[1]+t7015)
			r_A_r5 := m.LoadF(t7016)
			t7017 := i_i1 - int64(1)
			t7018 := t7017
			if t7018 < 0 || t7018 >= d_B[0] {
				return m.OOB(t7018, d_B[0], 0, "B", 21, 63)
			}
			t7019 := i_i2
			if t7019 < 0 || t7019 >= d_B[1] {
				return m.OOB(t7019, d_B[1], 1, "B", 21, 63)
			}
			t7020 := b_B + int((t7018)*d_B[1]+t7019)
			r_B_r6 := m.LoadF(t7020)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t7021 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t7022 := float64(t7021 / r_B_r6)
			t7023 := float64(r_X_r6 - t7022)
			r_X_w4 := t7023
			t7024 := i_i1
			if t7024 < 0 || t7024 >= d_X[0] {
				return m.OOB(t7024, d_X[0], 0, "X", 21, 11)
			}
			t7025 := i_i2
			if t7025 < 0 || t7025 >= d_X[1] {
				return m.OOB(t7025, d_X[1], 1, "X", 21, 11)
			}
			t7026 := b_X + int((t7024)*d_X[1]+t7025)
			m.StoreF(t7026, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t7027 := i_i1
			if t7027 < 0 || t7027 >= d_B[0] {
				return m.OOB(t7027, d_B[0], 0, "B", 22, 23)
			}
			t7028 := i_i2
			if t7028 < 0 || t7028 >= d_B[1] {
				return m.OOB(t7028, d_B[1], 1, "B", 22, 23)
			}
			t7029 := b_B + int((t7027)*d_B[1]+t7028)
			r_B_r7 := m.LoadF(t7029)
			t7030 := i_i1
			if t7030 < 0 || t7030 >= d_A[0] {
				return m.OOB(t7030, d_A[0], 0, "A", 22, 35)
			}
			t7031 := i_i2
			if t7031 < 0 || t7031 >= d_A[1] {
				return m.OOB(t7031, d_A[1], 1, "A", 22, 35)
			}
			t7032 := b_A + int((t7030)*d_A[1]+t7031)
			r_A_r6 := m.LoadF(t7032)
			t7033 := i_i1
			if t7033 < 0 || t7033 >= d_A[0] {
				return m.OOB(t7033, d_A[0], 0, "A", 22, 47)
			}
			t7034 := i_i2
			if t7034 < 0 || t7034 >= d_A[1] {
				return m.OOB(t7034, d_A[1], 1, "A", 22, 47)
			}
			t7035 := b_A + int((t7033)*d_A[1]+t7034)
			r_A_r7 := m.LoadF(t7035)
			t7036 := i_i1 - int64(1)
			t7037 := t7036
			if t7037 < 0 || t7037 >= d_B[0] {
				return m.OOB(t7037, d_B[0], 0, "B", 22, 59)
			}
			t7038 := i_i2
			if t7038 < 0 || t7038 >= d_B[1] {
				return m.OOB(t7038, d_B[1], 1, "B", 22, 59)
			}
			t7039 := b_B + int((t7037)*d_B[1]+t7038)
			r_B_r8 := m.LoadF(t7039)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t7040 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t7041 := float64(t7040 / r_B_r8)
			t7042 := float64(r_B_r7 - t7041)
			r_B_w2 := t7042
			t7043 := i_i1
			if t7043 < 0 || t7043 >= d_B[0] {
				return m.OOB(t7043, d_B[0], 0, "B", 22, 11)
			}
			t7044 := i_i2
			if t7044 < 0 || t7044 >= d_B[1] {
				return m.OOB(t7044, d_B[1], 1, "B", 22, 11)
			}
			t7045 := b_B + int((t7043)*d_B[1]+t7044)
			m.StoreF(t7045, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
		t7046 := p_n - int64(1)
		t7047 := codegen.MaxI(int64(1), t7046)
		t7048 := p_n - int64(1)
		for i_i2 := t7047; i_i2 <= t7048; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t7049 := i_i1
			if t7049 < 0 || t7049 >= d_X[0] {
				return m.OOB(t7049, d_X[0], 0, "X", 21, 23)
			}
			t7050 := i_i2
			if t7050 < 0 || t7050 >= d_X[1] {
				return m.OOB(t7050, d_X[1], 1, "X", 21, 23)
			}
			t7051 := b_X + int((t7049)*d_X[1]+t7050)
			r_X_r6 := m.LoadF(t7051)
			t7052 := i_i1 - int64(1)
			t7053 := t7052
			if t7053 < 0 || t7053 >= d_X[0] {
				return m.OOB(t7053, d_X[0], 0, "X", 21, 35)
			}
			t7054 := i_i2
			if t7054 < 0 || t7054 >= d_X[1] {
				return m.OOB(t7054, d_X[1], 1, "X", 21, 35)
			}
			t7055 := b_X + int((t7053)*d_X[1]+t7054)
			r_X_r7 := m.LoadF(t7055)
			t7056 := i_i1
			if t7056 < 0 || t7056 >= d_A[0] {
				return m.OOB(t7056, d_A[0], 0, "A", 21, 51)
			}
			t7057 := i_i2
			if t7057 < 0 || t7057 >= d_A[1] {
				return m.OOB(t7057, d_A[1], 1, "A", 21, 51)
			}
			t7058 := b_A + int((t7056)*d_A[1]+t7057)
			r_A_r5 := m.LoadF(t7058)
			t7059 := i_i1 - int64(1)
			t7060 := t7059
			if t7060 < 0 || t7060 >= d_B[0] {
				return m.OOB(t7060, d_B[0], 0, "B", 21, 63)
			}
			t7061 := i_i2
			if t7061 < 0 || t7061 >= d_B[1] {
				return m.OOB(t7061, d_B[1], 1, "B", 21, 63)
			}
			t7062 := b_B + int((t7060)*d_B[1]+t7061)
			r_B_r6 := m.LoadF(t7062)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t7063 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t7064 := float64(t7063 / r_B_r6)
			t7065 := float64(r_X_r6 - t7064)
			r_X_w4 := t7065
			t7066 := i_i1
			if t7066 < 0 || t7066 >= d_X[0] {
				return m.OOB(t7066, d_X[0], 0, "X", 21, 11)
			}
			t7067 := i_i2
			if t7067 < 0 || t7067 >= d_X[1] {
				return m.OOB(t7067, d_X[1], 1, "X", 21, 11)
			}
			t7068 := b_X + int((t7066)*d_X[1]+t7067)
			m.StoreF(t7068, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(2))
			t7069 := i_i1
			if t7069 < 0 || t7069 >= d_B[0] {
				return m.OOB(t7069, d_B[0], 0, "B", 22, 23)
			}
			t7070 := i_i2
			if t7070 < 0 || t7070 >= d_B[1] {
				return m.OOB(t7070, d_B[1], 1, "B", 22, 23)
			}
			t7071 := b_B + int((t7069)*d_B[1]+t7070)
			r_B_r7 := m.LoadF(t7071)
			t7072 := i_i1
			if t7072 < 0 || t7072 >= d_A[0] {
				return m.OOB(t7072, d_A[0], 0, "A", 22, 35)
			}
			t7073 := i_i2
			if t7073 < 0 || t7073 >= d_A[1] {
				return m.OOB(t7073, d_A[1], 1, "A", 22, 35)
			}
			t7074 := b_A + int((t7072)*d_A[1]+t7073)
			r_A_r6 := m.LoadF(t7074)
			t7075 := i_i1
			if t7075 < 0 || t7075 >= d_A[0] {
				return m.OOB(t7075, d_A[0], 0, "A", 22, 47)
			}
			t7076 := i_i2
			if t7076 < 0 || t7076 >= d_A[1] {
				return m.OOB(t7076, d_A[1], 1, "A", 22, 47)
			}
			t7077 := b_A + int((t7075)*d_A[1]+t7076)
			r_A_r7 := m.LoadF(t7077)
			t7078 := i_i1 - int64(1)
			t7079 := t7078
			if t7079 < 0 || t7079 >= d_B[0] {
				return m.OOB(t7079, d_B[0], 0, "B", 22, 59)
			}
			t7080 := i_i2
			if t7080 < 0 || t7080 >= d_B[1] {
				return m.OOB(t7080, d_B[1], 1, "B", 22, 59)
			}
			t7081 := b_B + int((t7079)*d_B[1]+t7080)
			r_B_r8 := m.LoadF(t7081)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t7082 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t7083 := float64(t7082 / r_B_r8)
			t7084 := float64(r_B_r7 - t7083)
			r_B_w2 := t7084
			t7085 := i_i1
			if t7085 < 0 || t7085 >= d_B[0] {
				return m.OOB(t7085, d_B[0], 0, "B", 22, 11)
			}
			t7086 := i_i2
			if t7086 < 0 || t7086 >= d_B[1] {
				return m.OOB(t7086, d_B[1], 1, "B", 22, 11)
			}
			t7087 := b_B + int((t7085)*d_B[1]+t7086)
			m.StoreF(t7087, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(3))
		}
	}
	return nil
}

func run_adi_resilientopt_n90(m *codegen.Machine, cs *checksum.Folds, p_n int64, b_X int, d_X []int64, b_A int, d_A []int64, b_B int, d_B []int64) error {
	t7088 := p_n - int64(1)
	t7089 := codegen.MaxI(int64(1), t7088)
	t7090 := p_n - int64(1)
	for i_i1 := t7089; i_i1 <= t7090; i_i1++ {
		if err := m.Tick(0, 0); err != nil {
			return err
		}
		t7091 := p_n - int64(1)
		t7092 := codegen.MinI(t7091, int64(0))
		for i_i2 := int64(0); i_i2 <= t7092; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t7093 := i_i1
			if t7093 < 0 || t7093 >= d_X[0] {
				return m.OOB(t7093, d_X[0], 0, "X", 21, 23)
			}
			t7094 := i_i2
			if t7094 < 0 || t7094 >= d_X[1] {
				return m.OOB(t7094, d_X[1], 1, "X", 21, 23)
			}
			t7095 := b_X + int((t7093)*d_X[1]+t7094)
			r_X_r6 := m.LoadF(t7095)
			t7096 := i_i1 - int64(1)
			t7097 := t7096
			if t7097 < 0 || t7097 >= d_X[0] {
				return m.OOB(t7097, d_X[0], 0, "X", 21, 35)
			}
			t7098 := i_i2
			if t7098 < 0 || t7098 >= d_X[1] {
				return m.OOB(t7098, d_X[1], 1, "X", 21, 35)
			}
			t7099 := b_X + int((t7097)*d_X[1]+t7098)
			r_X_r7 := m.LoadF(t7099)
			t7100 := i_i1
			if t7100 < 0 || t7100 >= d_A[0] {
				return m.OOB(t7100, d_A[0], 0, "A", 21, 51)
			}
			t7101 := i_i2
			if t7101 < 0 || t7101 >= d_A[1] {
				return m.OOB(t7101, d_A[1], 1, "A", 21, 51)
			}
			t7102 := b_A + int((t7100)*d_A[1]+t7101)
			r_A_r5 := m.LoadF(t7102)
			t7103 := i_i1 - int64(1)
			t7104 := t7103
			if t7104 < 0 || t7104 >= d_B[0] {
				return m.OOB(t7104, d_B[0], 0, "B", 21, 63)
			}
			t7105 := i_i2
			if t7105 < 0 || t7105 >= d_B[1] {
				return m.OOB(t7105, d_B[1], 1, "B", 21, 63)
			}
			t7106 := b_B + int((t7104)*d_B[1]+t7105)
			r_B_r6 := m.LoadF(t7106)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t7107 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t7108 := float64(t7107 / r_B_r6)
			t7109 := float64(r_X_r6 - t7108)
			r_X_w4 := t7109
			t7110 := i_i1
			if t7110 < 0 || t7110 >= d_X[0] {
				return m.OOB(t7110, d_X[0], 0, "X", 21, 11)
			}
			t7111 := i_i2
			if t7111 < 0 || t7111 >= d_X[1] {
				return m.OOB(t7111, d_X[1], 1, "X", 21, 11)
			}
			t7112 := b_X + int((t7110)*d_X[1]+t7111)
			m.StoreF(t7112, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t7113 := i_i1
			if t7113 < 0 || t7113 >= d_B[0] {
				return m.OOB(t7113, d_B[0], 0, "B", 22, 23)
			}
			t7114 := i_i2
			if t7114 < 0 || t7114 >= d_B[1] {
				return m.OOB(t7114, d_B[1], 1, "B", 22, 23)
			}
			t7115 := b_B + int((t7113)*d_B[1]+t7114)
			r_B_r7 := m.LoadF(t7115)
			t7116 := i_i1
			if t7116 < 0 || t7116 >= d_A[0] {
				return m.OOB(t7116, d_A[0], 0, "A", 22, 35)
			}
			t7117 := i_i2
			if t7117 < 0 || t7117 >= d_A[1] {
				return m.OOB(t7117, d_A[1], 1, "A", 22, 35)
			}
			t7118 := b_A + int((t7116)*d_A[1]+t7117)
			r_A_r6 := m.LoadF(t7118)
			t7119 := i_i1
			if t7119 < 0 || t7119 >= d_A[0] {
				return m.OOB(t7119, d_A[0], 0, "A", 22, 47)
			}
			t7120 := i_i2
			if t7120 < 0 || t7120 >= d_A[1] {
				return m.OOB(t7120, d_A[1], 1, "A", 22, 47)
			}
			t7121 := b_A + int((t7119)*d_A[1]+t7120)
			r_A_r7 := m.LoadF(t7121)
			t7122 := i_i1 - int64(1)
			t7123 := t7122
			if t7123 < 0 || t7123 >= d_B[0] {
				return m.OOB(t7123, d_B[0], 0, "B", 22, 59)
			}
			t7124 := i_i2
			if t7124 < 0 || t7124 >= d_B[1] {
				return m.OOB(t7124, d_B[1], 1, "B", 22, 59)
			}
			t7125 := b_B + int((t7123)*d_B[1]+t7124)
			r_B_r8 := m.LoadF(t7125)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t7126 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t7127 := float64(t7126 / r_B_r8)
			t7128 := float64(r_B_r7 - t7127)
			r_B_w2 := t7128
			t7129 := i_i1
			if t7129 < 0 || t7129 >= d_B[0] {
				return m.OOB(t7129, d_B[0], 0, "B", 22, 11)
			}
			t7130 := i_i2
			if t7130 < 0 || t7130 >= d_B[1] {
				return m.OOB(t7130, d_B[1], 1, "B", 22, 11)
			}
			t7131 := b_B + int((t7129)*d_B[1]+t7130)
			m.StoreF(t7131, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t7132 := p_n - int64(2)
		for i_i2 := int64(1); i_i2 <= t7132; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t7133 := i_i1
			if t7133 < 0 || t7133 >= d_X[0] {
				return m.OOB(t7133, d_X[0], 0, "X", 21, 23)
			}
			t7134 := i_i2
			if t7134 < 0 || t7134 >= d_X[1] {
				return m.OOB(t7134, d_X[1], 1, "X", 21, 23)
			}
			t7135 := b_X + int((t7133)*d_X[1]+t7134)
			r_X_r6 := m.LoadF(t7135)
			t7136 := i_i1 - int64(1)
			t7137 := t7136
			if t7137 < 0 || t7137 >= d_X[0] {
				return m.OOB(t7137, d_X[0], 0, "X", 21, 35)
			}
			t7138 := i_i2
			if t7138 < 0 || t7138 >= d_X[1] {
				return m.OOB(t7138, d_X[1], 1, "X", 21, 35)
			}
			t7139 := b_X + int((t7137)*d_X[1]+t7138)
			r_X_r7 := m.LoadF(t7139)
			t7140 := i_i1
			if t7140 < 0 || t7140 >= d_A[0] {
				return m.OOB(t7140, d_A[0], 0, "A", 21, 51)
			}
			t7141 := i_i2
			if t7141 < 0 || t7141 >= d_A[1] {
				return m.OOB(t7141, d_A[1], 1, "A", 21, 51)
			}
			t7142 := b_A + int((t7140)*d_A[1]+t7141)
			r_A_r5 := m.LoadF(t7142)
			t7143 := i_i1 - int64(1)
			t7144 := t7143
			if t7144 < 0 || t7144 >= d_B[0] {
				return m.OOB(t7144, d_B[0], 0, "B", 21, 63)
			}
			t7145 := i_i2
			if t7145 < 0 || t7145 >= d_B[1] {
				return m.OOB(t7145, d_B[1], 1, "B", 21, 63)
			}
			t7146 := b_B + int((t7144)*d_B[1]+t7145)
			r_B_r6 := m.LoadF(t7146)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t7147 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t7148 := float64(t7147 / r_B_r6)
			t7149 := float64(r_X_r6 - t7148)
			r_X_w4 := t7149
			t7150 := i_i1
			if t7150 < 0 || t7150 >= d_X[0] {
				return m.OOB(t7150, d_X[0], 0, "X", 21, 11)
			}
			t7151 := i_i2
			if t7151 < 0 || t7151 >= d_X[1] {
				return m.OOB(t7151, d_X[1], 1, "X", 21, 11)
			}
			t7152 := b_X + int((t7150)*d_X[1]+t7151)
			m.StoreF(t7152, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t7153 := i_i1
			if t7153 < 0 || t7153 >= d_B[0] {
				return m.OOB(t7153, d_B[0], 0, "B", 22, 23)
			}
			t7154 := i_i2
			if t7154 < 0 || t7154 >= d_B[1] {
				return m.OOB(t7154, d_B[1], 1, "B", 22, 23)
			}
			t7155 := b_B + int((t7153)*d_B[1]+t7154)
			r_B_r7 := m.LoadF(t7155)
			t7156 := i_i1
			if t7156 < 0 || t7156 >= d_A[0] {
				return m.OOB(t7156, d_A[0], 0, "A", 22, 35)
			}
			t7157 := i_i2
			if t7157 < 0 || t7157 >= d_A[1] {
				return m.OOB(t7157, d_A[1], 1, "A", 22, 35)
			}
			t7158 := b_A + int((t7156)*d_A[1]+t7157)
			r_A_r6 := m.LoadF(t7158)
			t7159 := i_i1
			if t7159 < 0 || t7159 >= d_A[0] {
				return m.OOB(t7159, d_A[0], 0, "A", 22, 47)
			}
			t7160 := i_i2
			if t7160 < 0 || t7160 >= d_A[1] {
				return m.OOB(t7160, d_A[1], 1, "A", 22, 47)
			}
			t7161 := b_A + int((t7159)*d_A[1]+t7160)
			r_A_r7 := m.LoadF(t7161)
			t7162 := i_i1 - int64(1)
			t7163 := t7162
			if t7163 < 0 || t7163 >= d_B[0] {
				return m.OOB(t7163, d_B[0], 0, "B", 22, 59)
			}
			t7164 := i_i2
			if t7164 < 0 || t7164 >= d_B[1] {
				return m.OOB(t7164, d_B[1], 1, "B", 22, 59)
			}
			t7165 := b_B + int((t7163)*d_B[1]+t7164)
			r_B_r8 := m.LoadF(t7165)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t7166 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t7167 := float64(t7166 / r_B_r8)
			t7168 := float64(r_B_r7 - t7167)
			r_B_w2 := t7168
			t7169 := i_i1
			if t7169 < 0 || t7169 >= d_B[0] {
				return m.OOB(t7169, d_B[0], 0, "B", 22, 11)
			}
			t7170 := i_i2
			if t7170 < 0 || t7170 >= d_B[1] {
				return m.OOB(t7170, d_B[1], 1, "B", 22, 11)
			}
			t7171 := b_B + int((t7169)*d_B[1]+t7170)
			m.StoreF(t7171, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
		t7172 := p_n - int64(1)
		t7173 := codegen.MaxI(int64(1), t7172)
		t7174 := p_n - int64(1)
		for i_i2 := t7173; i_i2 <= t7174; i_i2++ {
			if err := m.Tick(0, 0); err != nil {
				return err
			}
			t7175 := i_i1
			if t7175 < 0 || t7175 >= d_X[0] {
				return m.OOB(t7175, d_X[0], 0, "X", 21, 23)
			}
			t7176 := i_i2
			if t7176 < 0 || t7176 >= d_X[1] {
				return m.OOB(t7176, d_X[1], 1, "X", 21, 23)
			}
			t7177 := b_X + int((t7175)*d_X[1]+t7176)
			r_X_r6 := m.LoadF(t7177)
			t7178 := i_i1 - int64(1)
			t7179 := t7178
			if t7179 < 0 || t7179 >= d_X[0] {
				return m.OOB(t7179, d_X[0], 0, "X", 21, 35)
			}
			t7180 := i_i2
			if t7180 < 0 || t7180 >= d_X[1] {
				return m.OOB(t7180, d_X[1], 1, "X", 21, 35)
			}
			t7181 := b_X + int((t7179)*d_X[1]+t7180)
			r_X_r7 := m.LoadF(t7181)
			t7182 := i_i1
			if t7182 < 0 || t7182 >= d_A[0] {
				return m.OOB(t7182, d_A[0], 0, "A", 21, 51)
			}
			t7183 := i_i2
			if t7183 < 0 || t7183 >= d_A[1] {
				return m.OOB(t7183, d_A[1], 1, "A", 21, 51)
			}
			t7184 := b_A + int((t7182)*d_A[1]+t7183)
			r_A_r5 := m.LoadF(t7184)
			t7185 := i_i1 - int64(1)
			t7186 := t7185
			if t7186 < 0 || t7186 >= d_B[0] {
				return m.OOB(t7186, d_B[0], 0, "B", 21, 63)
			}
			t7187 := i_i2
			if t7187 < 0 || t7187 >= d_B[1] {
				return m.OOB(t7187, d_B[1], 1, "B", 21, 63)
			}
			t7188 := b_B + int((t7186)*d_B[1]+t7187)
			r_B_r6 := m.LoadF(t7188)
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_X_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r5), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r6), int64(1))
			t7189 := float64(r_X_r7 * r_A_r5)
			if r_B_r6 == 0 {
				return m.DivZero(21, 61)
			}
			t7190 := float64(t7189 / r_B_r6)
			t7191 := float64(r_X_r6 - t7190)
			r_X_w4 := t7191
			t7192 := i_i1
			if t7192 < 0 || t7192 >= d_X[0] {
				return m.OOB(t7192, d_X[0], 0, "X", 21, 11)
			}
			t7193 := i_i2
			if t7193 < 0 || t7193 >= d_X[1] {
				return m.OOB(t7193, d_X[1], 1, "X", 21, 11)
			}
			t7194 := b_X + int((t7192)*d_X[1]+t7193)
			m.StoreF(t7194, r_X_w4)
			cs.Fold(checksum.AccDef, math.Float64bits(r_X_w4), int64(1))
			t7195 := i_i1
			if t7195 < 0 || t7195 >= d_B[0] {
				return m.OOB(t7195, d_B[0], 0, "B", 22, 23)
			}
			t7196 := i_i2
			if t7196 < 0 || t7196 >= d_B[1] {
				return m.OOB(t7196, d_B[1], 1, "B", 22, 23)
			}
			t7197 := b_B + int((t7195)*d_B[1]+t7196)
			r_B_r7 := m.LoadF(t7197)
			t7198 := i_i1
			if t7198 < 0 || t7198 >= d_A[0] {
				return m.OOB(t7198, d_A[0], 0, "A", 22, 35)
			}
			t7199 := i_i2
			if t7199 < 0 || t7199 >= d_A[1] {
				return m.OOB(t7199, d_A[1], 1, "A", 22, 35)
			}
			t7200 := b_A + int((t7198)*d_A[1]+t7199)
			r_A_r6 := m.LoadF(t7200)
			t7201 := i_i1
			if t7201 < 0 || t7201 >= d_A[0] {
				return m.OOB(t7201, d_A[0], 0, "A", 22, 47)
			}
			t7202 := i_i2
			if t7202 < 0 || t7202 >= d_A[1] {
				return m.OOB(t7202, d_A[1], 1, "A", 22, 47)
			}
			t7203 := b_A + int((t7201)*d_A[1]+t7202)
			r_A_r7 := m.LoadF(t7203)
			t7204 := i_i1 - int64(1)
			t7205 := t7204
			if t7205 < 0 || t7205 >= d_B[0] {
				return m.OOB(t7205, d_B[0], 0, "B", 22, 59)
			}
			t7206 := i_i2
			if t7206 < 0 || t7206 >= d_B[1] {
				return m.OOB(t7206, d_B[1], 1, "B", 22, 59)
			}
			t7207 := b_B + int((t7205)*d_B[1]+t7206)
			r_B_r8 := m.LoadF(t7207)
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r6), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_A_r7), int64(1))
			cs.Fold(checksum.AccUse, math.Float64bits(r_B_r8), int64(1))
			t7208 := float64(r_A_r6 * r_A_r7)
			if r_B_r8 == 0 {
				return m.DivZero(22, 57)
			}
			t7209 := float64(t7208 / r_B_r8)
			t7210 := float64(r_B_r7 - t7209)
			r_B_w2 := t7210
			t7211 := i_i1
			if t7211 < 0 || t7211 >= d_B[0] {
				return m.OOB(t7211, d_B[0], 0, "B", 22, 11)
			}
			t7212 := i_i2
			if t7212 < 0 || t7212 >= d_B[1] {
				return m.OOB(t7212, d_B[1], 1, "B", 22, 11)
			}
			t7213 := b_B + int((t7211)*d_B[1]+t7212)
			m.StoreF(t7213, r_B_w2)
			cs.Fold(checksum.AccDef, math.Float64bits(r_B_w2), int64(1))
		}
	}
	return nil
}
