#pragma once
// Small blocked single-precision GEMM. Backs pointwise convolutions, the
// one-row conv recompute over a cached im2col matrix, and the conv gradients
// in training; other conv forwards run kernels::Kernels::conv2d_range, which
// follows the same per-element contract. Not a BLAS replacement — just
// cache-blocked, vectorizer-friendly loops that are fast enough for fault
// campaigns on CPU. The forward-pass entry points dispatch through
// kernels::active() (generic or AVX2 backend, selected at startup — see
// kernels/registry.hpp).
//
// Determinism note the campaign engine relies on: each output element
// C[m,n] accumulates its K products in ascending-k order regardless of M or
// N (the blocking never reorders a single element's additions). Rows of C
// are therefore computed identically whether A arrives as one batched
// matrix or row-by-row — which is why the batched golden pass in
// core/classification_core.cpp is bit-identical to per-image passes. The
// same holds for the AVX2 backend's register tiles: a 6x16 tile of C (M >=
// 2), whether its panel of B was copied from a matrix or packed from an
// image (conv2d_range), and a single row (M == 1, Conv2d::forward_row_cached)
// all give each element one mul then one add per k, in ascending k.

#include <cstddef>

namespace statfi::nn {

/// C[M,N] = A[M,K] * B[K,N]  (row-major, C overwritten).
void gemm(std::size_t M, std::size_t N, std::size_t K, const float* A,
          const float* B, float* C);

/// C[M,N] += A[M,K] * B[K,N]  (row-major).
void gemm_accumulate(std::size_t M, std::size_t N, std::size_t K,
                     const float* A, const float* B, float* C);

/// C[M,N] = A[K,M]^T * B[K,N]  (row-major) — used by conv weight gradients.
void gemm_at_b(std::size_t M, std::size_t N, std::size_t K, const float* A,
               const float* B, float* C);

/// C[M,N] += A[M,K] * B[N,K]^T (row-major) — used by conv input gradients.
void gemm_a_bt_accumulate(std::size_t M, std::size_t N, std::size_t K,
                          const float* A, const float* B, float* C);

}  // namespace statfi::nn
