/**
 * @file
 * Tests for the Table IV baseline quantizers.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <set>
#include <type_traits>
#include <utility>

#include "common/rng.hh"
#include "quant/baselines.hh"
#include "tensor/ops.hh"

namespace mokey
{
namespace
{

// The Mokey row keeps a reference to the caller's quantizer, so a
// temporary must not bind to either factory.
template <typename Q, typename = void>
struct MakesMokeyBaseline : std::false_type {};
template <typename Q>
struct MakesMokeyBaseline<
    Q, std::void_t<decltype(makeMokeyBaseline(std::declval<Q>()))>>
    : std::true_type {};

template <typename Q, typename = void>
struct MakesTable4Lineup : std::false_type {};
template <typename Q>
struct MakesTable4Lineup<
    Q, std::void_t<decltype(makeTable4Lineup(std::declval<Q>()))>>
    : std::true_type {};

static_assert(MakesMokeyBaseline<const Quantizer &>::value);
static_assert(!MakesMokeyBaseline<Quantizer &&>::value);
static_assert(MakesTable4Lineup<const Quantizer &>::value);
static_assert(!MakesTable4Lineup<Quantizer &&>::value);

Tensor
gaussianTensor(size_t rows, size_t cols, uint64_t seed,
               double stddev = 1.0)
{
    Rng rng(seed);
    return Tensor(rows, cols,
                  rng.gaussianVector(rows * cols, 0.0, stddev));
}

TEST(Fp32Baseline, Passthrough)
{
    const auto b = makeFp32Baseline();
    const Tensor t = gaussianTensor(8, 8, 1);
    EXPECT_DOUBLE_EQ(maxAbsDiff(b->quantizeWeights(t), t), 0.0);
    EXPECT_DOUBLE_EQ(b->compressionRatio(100, 100), 1.0);
}

TEST(Q8Bert, ErrorBoundedByStep)
{
    const auto b = makeQ8Bert();
    const Tensor t = gaussianTensor(32, 32, 2);
    const Tensor q = b->quantizeWeights(t);
    double mx = 0.0;
    for (float v : t.raw())
        mx = std::max(mx, std::abs(static_cast<double>(v)));
    const double step = mx / 127.0;
    EXPECT_LE(maxAbsDiff(q, t), step / 2.0 + 1e-6);
}

TEST(IBert, ClipsActivationTails)
{
    const auto b = makeIBert();
    Tensor t = gaussianTensor(64, 64, 3);
    t.raw()[0] = 1000.0f; // a wild outlier
    const Tensor q = b->quantizeActivations(t);
    // The outlier is clipped towards the percentile range.
    EXPECT_LT(q.raw()[0], 100.0f);
    // Bulk error stays small despite the outlier.
    double bulk_err = 0.0;
    for (size_t i = 1; i < t.size(); ++i)
        bulk_err = std::max(bulk_err,
                            std::abs(static_cast<double>(
                                q.raw()[i]) - t.raw()[i]));
    EXPECT_LT(bulk_err, 0.1);
}

TEST(QBert, GroupsHaveIndependentScales)
{
    const auto b = makeQBert(4);
    // First group tiny values, second group large: group-wise
    // scaling must keep the tiny group accurate.
    Tensor t(1, 8, {0.01f, 0.02f, -0.01f, 0.015f,
                    10.0f, -8.0f, 6.0f, 9.0f});
    const Tensor q = b->quantizeWeights(t);
    EXPECT_NEAR(q.at(0, 0), 0.01, 0.002);
    EXPECT_NEAR(q.at(0, 4), 10.0, 1.0);
}

TEST(Gobo, PreservesOutliersExactly)
{
    const auto b = makeGobo(0.01);
    Tensor t = gaussianTensor(64, 64, 4, 0.1);
    t.raw()[7] = 25.0f;
    const Tensor q = b->quantizeWeights(t);
    EXPECT_EQ(q.raw()[7], 25.0f); // outliers stay FP32
}

TEST(Gobo, BulkUsesEightCentroids)
{
    const auto b = makeGobo(0.0);
    const Tensor t = gaussianTensor(64, 64, 5);
    const Tensor q = b->quantizeWeights(t);
    std::set<float> uniq(q.raw().begin(), q.raw().end());
    EXPECT_LE(uniq.size(), 8u);
}

TEST(TernaryBert, ThreeLevelsPerRow)
{
    const auto b = makeTernaryBert();
    const Tensor t = gaussianTensor(4, 256, 6);
    const Tensor q = b->quantizeWeights(t);
    for (size_t r = 0; r < q.rows(); ++r) {
        std::set<float> uniq;
        for (size_t c = 0; c < q.cols(); ++c)
            uniq.insert(q.at(r, c));
        EXPECT_LE(uniq.size(), 3u) << "row " << r;
    }
}

TEST(TernaryBert, SignsPreserved)
{
    const auto b = makeTernaryBert();
    const Tensor t = gaussianTensor(2, 128, 7);
    const Tensor q = b->quantizeWeights(t);
    for (size_t i = 0; i < t.size(); ++i) {
        if (q.raw()[i] != 0.0f) {
            EXPECT_EQ(q.raw()[i] > 0, t.raw()[i] > 0)
                << "element " << i;
        }
    }
}

TEST(MokeyBaseline, RoundTripErrorSmall)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer qz(exp);
    const auto b = makeMokeyBaseline(qz);
    const Tensor t = gaussianTensor(64, 64, 8);
    const Tensor q = b->quantizeWeights(t);
    EXPECT_LT(meanAbsDiff(q, t), 0.1);
    EXPECT_TRUE(b->integerCompute());
    EXPECT_TRUE(b->postTraining());
}

TEST(Table4Lineup, NamesAndOrder)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer qz(exp);
    const auto lineup = makeTable4Lineup(qz);
    ASSERT_EQ(lineup.size(), 7u);
    EXPECT_EQ(lineup.front()->name(), "FP32 Baseline");
    EXPECT_EQ(lineup.back()->name(), "Mokey");
}

TEST(Table4Lineup, CompressionRatioOrdering)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer qz(exp);
    const auto lineup = makeTable4Lineup(qz);
    // Mokey compresses more than the int8 methods and GOBO (whose
    // FP32 activations dominate), as Table IV reports.
    const double mokey =
        lineup.back()->compressionRatio(1000000, 500000);
    for (size_t i = 0; i < lineup.size() - 1; ++i) {
        if (lineup[i]->name() == "TernaryBERT")
            continue; // 2 b weights beat everyone on footprint
        EXPECT_GT(mokey,
                  lineup[i]->compressionRatio(1000000, 500000))
            << lineup[i]->name();
    }
}

TEST(Table4Lineup, OnlyMokeyAndIBertAreInteger)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer qz(exp);
    for (const auto &m : makeTable4Lineup(qz)) {
        const bool integer = m->integerCompute();
        const bool expected = m->name() == "Mokey" ||
            m->name() == "I-BERT";
        EXPECT_EQ(integer, expected) << m->name();
    }
}

TEST(Table4Lineup, PostTrainingFlags)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer qz(exp);
    for (const auto &m : makeTable4Lineup(qz)) {
        const bool pt = m->postTraining();
        const bool expected = m->name() == "Mokey" ||
            m->name() == "GOBO" || m->name() == "FP32 Baseline";
        EXPECT_EQ(pt, expected) << m->name();
    }
}

} // anonymous namespace
} // namespace mokey
