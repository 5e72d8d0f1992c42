// Code generated by cmd/genkernels. DO NOT EDIT.

package gennative

// kernels lists every generated benchmark variant, bench-major.
var kernels = []Kernel{
	{Bench: "ADI", Variant: "Original", Fn: run_adi_original},
	{Bench: "ADI", Variant: "Resilient", Fn: run_adi_resilient},
	{Bench: "ADI", Variant: "Resilient-Optimized", Fn: run_adi_resilientopt},
	{Bench: "CG", Variant: "Original", Fn: run_cg_original},
	{Bench: "CG", Variant: "Resilient", Fn: run_cg_resilient},
	{Bench: "CG", Variant: "Resilient-Optimized", Fn: run_cg_resilientopt},
	{Bench: "cholesky", Variant: "Original", Fn: run_cholesky_original},
	{Bench: "cholesky", Variant: "Resilient", Fn: run_cholesky_resilient},
	{Bench: "cholesky", Variant: "Resilient-Optimized", Fn: run_cholesky_resilientopt},
	{Bench: "dsyrk", Variant: "Original", Fn: run_dsyrk_original},
	{Bench: "dsyrk", Variant: "Resilient", Fn: run_dsyrk_resilient},
	{Bench: "dsyrk", Variant: "Resilient-Optimized", Fn: run_dsyrk_resilientopt},
	{Bench: "jacobi1d", Variant: "Original", Fn: run_jacobi1d_original},
	{Bench: "jacobi1d", Variant: "Resilient", Fn: run_jacobi1d_resilient},
	{Bench: "jacobi1d", Variant: "Resilient-Optimized", Fn: run_jacobi1d_resilientopt},
	{Bench: "LU", Variant: "Original", Fn: run_lu_original},
	{Bench: "LU", Variant: "Resilient", Fn: run_lu_resilient},
	{Bench: "LU", Variant: "Resilient-Optimized", Fn: run_lu_resilientopt},
	{Bench: "moldyn", Variant: "Original", Fn: run_moldyn_original},
	{Bench: "moldyn", Variant: "Resilient", Fn: run_moldyn_resilient},
	{Bench: "moldyn", Variant: "Resilient-Optimized", Fn: run_moldyn_resilientopt},
	{Bench: "seidel", Variant: "Original", Fn: run_seidel_original},
	{Bench: "seidel", Variant: "Resilient", Fn: run_seidel_resilient},
	{Bench: "seidel", Variant: "Resilient-Optimized", Fn: run_seidel_resilientopt},
	{Bench: "strsm", Variant: "Original", Fn: run_strsm_original},
	{Bench: "strsm", Variant: "Resilient", Fn: run_strsm_resilient},
	{Bench: "strsm", Variant: "Resilient-Optimized", Fn: run_strsm_resilientopt},
	{Bench: "trisolv", Variant: "Original", Fn: run_trisolv_original},
	{Bench: "trisolv", Variant: "Resilient", Fn: run_trisolv_resilient},
	{Bench: "trisolv", Variant: "Resilient-Optimized", Fn: run_trisolv_resilientopt},
}
