// Tests for the blocked GEMM kernels against naive references, across
// shapes that exercise the blocking boundaries.

#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.hpp"

namespace statfi::nn {
namespace {

std::vector<float> random_matrix(std::size_t n, stats::Rng& rng) {
    std::vector<float> m(n);
    for (auto& x : m) x = static_cast<float>(rng.normal(0.0, 1.0));
    return m;
}

void naive_gemm(std::size_t M, std::size_t N, std::size_t K, const float* A,
                const float* B, float* C) {
    for (std::size_t i = 0; i < M; ++i)
        for (std::size_t j = 0; j < N; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < K; ++k)
                acc += static_cast<double>(A[i * K + k]) * B[k * N + j];
            C[i * N + j] = static_cast<float>(acc);
        }
}

struct GemmCase {
    std::size_t M, N, K;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaive) {
    const auto [M, N, K] = GetParam();
    stats::Rng rng(M * 31 + N * 7 + K);
    const auto A = random_matrix(M * K, rng);
    const auto B = random_matrix(K * N, rng);
    std::vector<float> C(M * N), ref(M * N);
    gemm(M, N, K, A.data(), B.data(), C.data());
    naive_gemm(M, N, K, A.data(), B.data(), ref.data());
    for (std::size_t i = 0; i < C.size(); ++i)
        ASSERT_NEAR(C[i], ref[i], 1e-3f * (1.0f + std::fabs(ref[i])))
            << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 7},
                      GemmCase{16, 1024, 27},   // conv-like (Cout x OHW x CKK)
                      GemmCase{65, 17, 300},    // crosses the M/K blocks
                      GemmCase{64, 256, 256},   // exactly at block sizes
                      GemmCase{70, 300, 270})); // past every block size

TEST(Gemm, AccumulateAddsOntoExisting) {
    stats::Rng rng(5);
    const auto A = random_matrix(4 * 3, rng);
    const auto B = random_matrix(3 * 5, rng);
    std::vector<float> C(4 * 5, 1.0f);
    std::vector<float> ref(4 * 5);
    naive_gemm(4, 5, 3, A.data(), B.data(), ref.data());
    gemm_accumulate(4, 5, 3, A.data(), B.data(), C.data());
    for (std::size_t i = 0; i < C.size(); ++i)
        EXPECT_NEAR(C[i], ref[i] + 1.0f, 1e-4f);
}

TEST(Gemm, ZeroSkipHandlesSparseRows) {
    // The kernel skips a == 0 terms; verify correctness with many zeros.
    std::vector<float> A(8 * 8, 0.0f);
    A[3] = 2.0f;  // row 0, k=3
    stats::Rng rng(6);
    const auto B = random_matrix(8 * 8, rng);
    std::vector<float> C(8 * 8), ref(8 * 8);
    gemm(8, 8, 8, A.data(), B.data(), C.data());
    naive_gemm(8, 8, 8, A.data(), B.data(), ref.data());
    for (std::size_t i = 0; i < C.size(); ++i) EXPECT_FLOAT_EQ(C[i], ref[i]);
}

TEST(GemmAtB, ComputesTransposedProduct) {
    // C[M,N] = A[K,M]^T * B[K,N]
    stats::Rng rng(7);
    constexpr std::size_t M = 6, N = 4, K = 5;
    const auto A = random_matrix(K * M, rng);
    const auto B = random_matrix(K * N, rng);
    std::vector<float> C(M * N);
    gemm_at_b(M, N, K, A.data(), B.data(), C.data());
    for (std::size_t i = 0; i < M; ++i)
        for (std::size_t j = 0; j < N; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < K; ++k)
                acc += static_cast<double>(A[k * M + i]) * B[k * N + j];
            EXPECT_NEAR(C[i * N + j], acc, 1e-4);
        }
}

TEST(GemmABt, AccumulatesTransposedProduct) {
    // C[M,N] += A[M,K] * B[N,K]^T
    stats::Rng rng(8);
    constexpr std::size_t M = 3, N = 7, K = 4;
    const auto A = random_matrix(M * K, rng);
    const auto B = random_matrix(N * K, rng);
    std::vector<float> C(M * N, 0.5f);
    gemm_a_bt_accumulate(M, N, K, A.data(), B.data(), C.data());
    for (std::size_t i = 0; i < M; ++i)
        for (std::size_t j = 0; j < N; ++j) {
            double acc = 0.5;
            for (std::size_t k = 0; k < K; ++k)
                acc += static_cast<double>(A[i * K + k]) * B[j * K + k];
            EXPECT_NEAR(C[i * N + j], acc, 1e-4);
        }
}

TEST(GemmABt, BitIdenticalToSequentialDotProducts) {
    // Training determinism: each C[i,j] gains one dot product summed from
    // 0.0f in ascending k, whatever loop order the kernel walks.
    stats::Rng rng(9);
    for (const GemmCase& c : {GemmCase{1, 1, 1}, GemmCase{3, 7, 4},
                              GemmCase{16, 27, 1024}, GemmCase{65, 17, 300}}) {
        const auto A = random_matrix(c.M * c.K, rng);
        const auto B = random_matrix(c.N * c.K, rng);
        std::vector<float> C(c.M * c.N, 0.5f), ref(c.M * c.N, 0.5f);
        gemm_a_bt_accumulate(c.M, c.N, c.K, A.data(), B.data(), C.data());
        for (std::size_t i = 0; i < c.M; ++i)
            for (std::size_t j = 0; j < c.N; ++j) {
                float acc = 0.0f;
                for (std::size_t k = 0; k < c.K; ++k)
                    acc += A[i * c.K + k] * B[j * c.K + k];
                ref[i * c.N + j] += acc;
            }
        for (std::size_t e = 0; e < C.size(); ++e)
            ASSERT_EQ(C[e], ref[e])
                << c.M << "x" << c.N << "x" << c.K << ", element " << e;
    }
}

}  // namespace
}  // namespace statfi::nn
