/**
 * @file
 * Tests for the dense tensor substrate and reference kernels.
 */

#include <cmath>
#include <string>
#include <thread>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

TEST(Tensor, ZeroInitialized)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    for (float v : t.raw())
        EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, RowMajorAddressing)
{
    Tensor t(2, 3);
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t.raw()[5], 7.0f);
    EXPECT_EQ(t.row(1)[2], 7.0f);
}

TEST(Tensor, Transpose)
{
    Tensor t(2, 3, {1, 2, 3, 4, 5, 6});
    const Tensor tt = t.transposed();
    EXPECT_EQ(tt.rows(), 3u);
    EXPECT_EQ(tt.cols(), 2u);
    EXPECT_EQ(tt.at(2, 1), 6.0f);
    EXPECT_EQ(tt.at(0, 1), 4.0f);
}

TEST(Tensor, FootprintBytes)
{
    Tensor t(10, 10);
    EXPECT_EQ(t.footprintBytes(16), 200u);
    EXPECT_EQ(t.footprintBytes(4), 50u);
    EXPECT_EQ(t.footprintBytes(5), 63u); // rounds up
}

TEST(Ops, MatmulIdentity)
{
    Tensor a(2, 2, {1, 2, 3, 4});
    Tensor eye(2, 2, {1, 0, 0, 1});
    const Tensor c = matmul(a, eye);
    EXPECT_EQ(c.at(0, 0), 1.0f);
    EXPECT_EQ(c.at(1, 1), 4.0f);
}

TEST(Ops, MatmulKnownValues)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
    Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulTransBAgreesWithMatmul)
{
    Rng rng(71);
    Tensor a(5, 7, rng.gaussianVector(35, 0, 1));
    Tensor b(7, 4, rng.gaussianVector(28, 0, 1));
    const Tensor c1 = matmul(a, b);
    const Tensor c2 = matmulTransB(a, b.transposed());
    EXPECT_LT(maxAbsDiff(c1, c2), 1e-4);
}

TEST(Ops, MatmulTransBTileGridBitIdentical)
{
    // Decode shapes (a few rows, K = 768, odd N) split one output
    // row's column tiles over the pool. Every output must keep its
    // function: dotFD2 for the pair starting at each even j, dotFD for
    // the last column of an odd N — at every thread count and lane.
    const ThreadCountGuard thread_guard;
    const size_t k = 768;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    Rng rng(73);
    for (const size_t n : {size_t{3 * 32 + 5}, size_t{4 * 32 + 7}}) {
        const Tensor b(n, k, rng.gaussianVector(n * k, 0, 1));
        for (const size_t m : {1, 2, 3, 5}) {
            const Tensor a(m, k, rng.gaussianVector(m * k, 0, 1));
            Tensor want(m, n);
            for (size_t i = 0; i < m; ++i) {
                size_t j = 0;
                for (; j + 2 <= n; j += 2) {
                    double r0, r1;
                    dotFD2(a.row(i), b.row(j), b.row(j + 1), k, &r0,
                           &r1);
                    want.at(i, j) = static_cast<float>(r0);
                    want.at(i, j + 1) = static_cast<float>(r1);
                }
                want.at(i, j) =
                    static_cast<float>(dotFD(a.row(i), b.row(j), k));
            }
            for (const size_t t : {size_t{1}, size_t{2}, size_t{3},
                                   hw}) {
                setThreadCount(t);
                for (const Lane lane : {Lane{}, Lane::acquire()})
                    ASSERT_EQ(matmulTransB(a, b, lane).raw(), want.raw())
                        << "m=" << m << " n=" << n << " threads=" << t
                        << " lane=" << lane.id();
            }
        }
    }
}

TEST(Ops, MatmulTransBOneRowSplitsOverThePool)
{
    // A one-row range never exceeds its grain, so a partition over
    // rows alone would run a decode GEMM inline; the tile grid must
    // hand its column tiles to the pool as several chunks.
    const ThreadCountGuard thread_guard;
    const size_t k = 768, n = 3 * 32 + 5;
    Rng rng(79);
    const Tensor a(1, k, rng.gaussianVector(k, 0, 1));
    const Tensor b(n, k, rng.gaussianVector(n * k, 0, 1));
    const size_t hw = std::max<size_t>(
        2, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{2}, hw}) {
        setThreadCount(t);
        const Lane lane = Lane::acquire();
        const uint64_t before = laneStats(lane).chunks;
        matmulTransB(a, b, lane);
        EXPECT_GT(laneStats(lane).chunks - before, 1u)
            << "threads=" << t;
    }
}

TEST(Ops, AddBias)
{
    Tensor t(2, 3);
    addBias(t, {1.0f, 2.0f, 3.0f});
    EXPECT_EQ(t.at(0, 0), 1.0f);
    EXPECT_EQ(t.at(1, 2), 3.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(73);
    Tensor t(4, 16, rng.gaussianVector(64, 0, 3));
    softmaxRows(t);
    for (size_t r = 0; r < t.rows(); ++r) {
        double sum = 0.0;
        for (size_t c = 0; c < t.cols(); ++c) {
            sum += t.at(r, c);
            EXPECT_GE(t.at(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxStableUnderLargeInputs)
{
    Tensor t(1, 3, {1000.0f, 1000.0f, 1000.0f});
    softmaxRows(t);
    for (size_t c = 0; c < 3; ++c)
        EXPECT_NEAR(t.at(0, c), 1.0f / 3.0f, 1e-6);
}

TEST(Ops, LayerNormRowsZeroMeanUnitVar)
{
    Rng rng(79);
    Tensor t(3, 64, rng.gaussianVector(192, 5.0, 2.0));
    layerNormRows(t);
    for (size_t r = 0; r < t.rows(); ++r) {
        double mean = 0.0, var = 0.0;
        for (size_t c = 0; c < t.cols(); ++c)
            mean += t.at(r, c);
        mean /= 64.0;
        for (size_t c = 0; c < t.cols(); ++c) {
            const double d = t.at(r, c) - mean;
            var += d * d;
        }
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Ops, GeluFixedPoints)
{
    Tensor t(1, 3, {0.0f, 10.0f, -10.0f});
    gelu(t);
    EXPECT_NEAR(t.at(0, 0), 0.0f, 1e-7);
    EXPECT_NEAR(t.at(0, 1), 10.0f, 1e-4);
    EXPECT_NEAR(t.at(0, 2), 0.0f, 1e-4);
}

TEST(Ops, GeluKnownValue)
{
    Tensor t(1, 1, {1.0f});
    gelu(t);
    EXPECT_NEAR(t.at(0, 0), 0.84134f, 1e-4);
}

TEST(Ops, AddAndDiffs)
{
    Tensor a(1, 3, {1, 2, 3});
    Tensor b(1, 3, {4, 6, 8});
    const Tensor c = add(a, b);
    EXPECT_EQ(c.at(0, 2), 11.0f);
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 5.0);
    EXPECT_DOUBLE_EQ(meanAbsDiff(a, b), 4.0);
}

TEST(Ops, FrobeniusNorm)
{
    Tensor a(1, 2, {3, 4});
    EXPECT_DOUBLE_EQ(frobeniusNorm(a), 5.0);
}

TEST(Ops, ScaleInPlace)
{
    Tensor a(1, 3, {1, -2, 3});
    scale(a, -2.0f);
    EXPECT_EQ(a.at(0, 0), -2.0f);
    EXPECT_EQ(a.at(0, 1), 4.0f);
    EXPECT_EQ(a.at(0, 2), -6.0f);
}

} // anonymous namespace
} // namespace mokey
