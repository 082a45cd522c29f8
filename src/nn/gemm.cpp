#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/registry.hpp"

namespace statfi::nn {

// The forward-pass GEMMs dispatch through the kernel registry (generic or
// AVX2, resolved at startup); the registry's bit-identity contract keeps
// the determinism note in gemm.hpp true for every backend.

void gemm_accumulate(std::size_t M, std::size_t N, std::size_t K,
                     const float* A, const float* B, float* C) {
    kernels::active().gemm_accumulate(M, N, K, A, B, C);
}

void gemm(std::size_t M, std::size_t N, std::size_t K, const float* A,
          const float* B, float* C) {
    std::memset(C, 0, M * N * sizeof(float));
    gemm_accumulate(M, N, K, A, B, C);
}

// The gradient-side GEMMs below reduce along non-contiguous axes (a
// horizontal dot product per element in gemm_a_bt_accumulate); SIMD-ing a
// reduction reassociates the additions, so each element's sum stays one
// sequential chain on every backend — only independent elements advance
// side by side. They are training-only paths, never in the campaign hot
// loop.

void gemm_at_b(std::size_t M, std::size_t N, std::size_t K, const float* A,
               const float* B, float* C) {
    std::memset(C, 0, M * N * sizeof(float));
    // C[i,j] = sum_k A[k,i] * B[k,j]
    for (std::size_t k = 0; k < K; ++k) {
        const float* arow = A + k * M;
        const float* brow = B + k * N;
        for (std::size_t i = 0; i < M; ++i) {
            const float a = arow[i];
            if (a == 0.0f) continue;
            float* crow = C + i * N;
            for (std::size_t j = 0; j < N; ++j) crow[j] += a * brow[j];
        }
    }
}

void gemm_a_bt_accumulate(std::size_t M, std::size_t N, std::size_t K,
                          const float* A, const float* B, float* C) {
    // C[i,j] += sum_k A[i,k] * B[j,k]. Over a transposed copy of B, each k
    // step updates a whole row of per-column sums: N independent lanes
    // instead of one latency-bound chain. Every sum still starts at 0.0f and
    // adds its terms in ascending k, so the result is that of the plain dot
    // product loop, bit for bit.
    std::vector<float> bt(K * N);
    for (std::size_t j = 0; j < N; ++j)
        for (std::size_t k = 0; k < K; ++k) bt[k * N + j] = B[j * K + k];
    std::vector<float> acc(N);
    for (std::size_t i = 0; i < M; ++i) {
        const float* arow = A + i * K;
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t k = 0; k < K; ++k) {
            const float a = arow[k];
            const float* brow = bt.data() + k * N;
            for (std::size_t j = 0; j < N; ++j) acc[j] += a * brow[j];
        }
        float* crow = C + i * N;
        for (std::size_t j = 0; j < N; ++j) crow[j] += acc[j];
    }
}

}  // namespace statfi::nn
