/**
 * @file
 * Property tests for the index-domain GEMM (Eqs. 1-6) and the
 * integer-only pipeline (§II-F).
 *
 * The load-bearing property: the histogram decomposition plus the
 * OPP outlier corrections must reproduce the decode-then-multiply
 * reference *exactly* (to FP rounding), for any mix of Gaussian and
 * outlier codes and any tensor statistics.
 */

#include <cmath>
#include <string>
#include <thread>
#include <type_traits>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "model/config.hh"
#include "quant/fixed_pipeline.hh"
#include "quant/index_matmul.hh"
#include "quant/quantizer.hh"
#include "tensor/ops.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

// FixedIndexEngine keeps references to both dictionaries, so a
// temporary on either side must not compile.
static_assert(std::is_constructible_v<FixedIndexEngine,
                                      const TensorDictionary &,
                                      const TensorDictionary &,
                                      FixedFormat>);
static_assert(!std::is_constructible_v<FixedIndexEngine,
                                       TensorDictionary &&,
                                       const TensorDictionary &,
                                       FixedFormat>);
static_assert(!std::is_constructible_v<FixedIndexEngine,
                                       const TensorDictionary &,
                                       TensorDictionary &&,
                                       FixedFormat>);

struct Shape
{
    size_t m, n, k;
    double mean_a, std_a;
    double mean_w, std_w;
    double tail_frac;
};

class IndexMatmulProperty : public ::testing::TestWithParam<Shape>
{
  protected:
    IndexMatmulProperty() : exp(1.179, -0.977, 8), quantizer(exp) {}

    QuantizedTensor
    makeOperand(size_t rows, size_t cols, double mean, double stddev,
                double tail_frac, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<float> v =
            rng.gaussianVector(rows * cols, mean, stddev);
        const auto n_tail = static_cast<size_t>(
            tail_frac * static_cast<double>(v.size()));
        for (size_t i = 0; i < n_tail; ++i)
            v[rng.uniformInt(v.size())] = static_cast<float>(
                rng.gaussian(mean, 5.0 * stddev));
        Tensor t(rows, cols, v);
        const auto dict = quantizer.buildDictionary(t);
        return quantizer.encode(t, dict);
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_P(IndexMatmulProperty, MatchesDecodedReferenceExactly)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 1000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 2000 + s.n);

    IndexMatmulStats stats;
    const Tensor fast = indexMatmulTransB(a, wt, &stats);
    const Tensor ref = decodedMatmulTransB(a, wt);

    // Tolerance scales with the magnitude of the accumulation.
    const double tol =
        1e-9 * std::max(1.0, frobeniusNorm(ref)) + 1e-6;
    EXPECT_LT(maxAbsDiff(fast, ref), tol);
    EXPECT_EQ(stats.gaussianPairs + stats.outlierPairs,
              static_cast<uint64_t>(s.m) * s.n * s.k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexMatmulProperty,
    ::testing::Values(
        Shape{4, 4, 16, 0.0, 1.0, 0.0, 0.02, 0.0},
        Shape{8, 8, 64, 0.0, 1.0, 0.0, 0.02, 0.02},
        Shape{3, 5, 33, 0.5, 0.3, -0.1, 0.05, 0.03},
        Shape{16, 8, 128, -2.0, 0.5, 1.0, 0.1, 0.05},
        Shape{1, 1, 256, 0.1, 1.5, -0.3, 0.02, 0.04},
        Shape{8, 16, 96, 3.0, 2.0, -1.5, 1.0, 0.02},
        Shape{12, 12, 48, 0.0, 0.01, 0.0, 10.0, 0.03}));

/**
 * Engine-specific coverage: the tiled/parallel kernel must be
 * bit-identical to its scalar path at every thread count, track the
 * seed reference algorithm, and keep its pair statistics invariant
 * under threading — all on deliberately outlier-heavy operands so
 * the OPP sidecar path is exercised hard.
 */
class EngineParity : public ::testing::TestWithParam<Shape>
{
  protected:
    EngineParity() : exp(1.179, -0.977, 8), quantizer(exp) {}

    QuantizedTensor
    makeOperand(size_t rows, size_t cols, double mean, double stddev,
                double tail_frac, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<float> v =
            rng.gaussianVector(rows * cols, mean, stddev);
        const auto n_tail = static_cast<size_t>(
            tail_frac * static_cast<double>(v.size()));
        for (size_t i = 0; i < n_tail; ++i)
            v[rng.uniformInt(v.size())] = static_cast<float>(
                rng.gaussian(mean, 5.0 * stddev));
        Tensor t(rows, cols, v);
        const auto dict = quantizer.buildDictionary(t);
        return quantizer.encode(t, dict);
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_P(EngineParity, TiledParallelBitIdenticalToScalar)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats scalar_stats;
    const Tensor scalar =
        indexMatmulTransBScalar(a, wt, &scalar_stats);

    const size_t original = threadCount();
    for (const size_t t : {1u, 2u, 5u}) {
        setThreadCount(t);
        IndexMatmulStats stats;
        const Tensor par = indexMatmulTransB(a, wt, &stats);
        // Bit-identical, not merely close: EXPECT_EQ on every float.
        for (size_t i = 0; i < scalar.size(); ++i)
            EXPECT_EQ(scalar.raw()[i], par.raw()[i])
                << "threads=" << t << " elem=" << i;
        EXPECT_EQ(stats.gaussianPairs, scalar_stats.gaussianPairs)
            << "threads=" << t;
        EXPECT_EQ(stats.outlierPairs, scalar_stats.outlierPairs)
            << "threads=" << t;
    }
    setThreadCount(original);
}

TEST_P(EngineParity, TracksSeedReferenceAlgorithm)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats ref_stats, eng_stats;
    const Tensor ref = indexMatmulTransBReference(a, wt, &ref_stats);
    const Tensor eng = indexMatmulTransB(a, wt, &eng_stats);

    const double tol =
        1e-9 * std::max(1.0, frobeniusNorm(ref)) + 1e-6;
    EXPECT_LT(maxAbsDiff(eng, ref), tol);
    // The engine routes exactly the same pairs to GPE vs OPP as the
    // seed per-element branch did.
    EXPECT_EQ(eng_stats.gaussianPairs, ref_stats.gaussianPairs);
    EXPECT_EQ(eng_stats.outlierPairs, ref_stats.outlierPairs);
}

TEST_P(EngineParity, FixedEngineBitIdenticalToScalar)
{
    // The fixed-point GEMM fans out over row bands; being integer
    // arithmetic, any reordering bug would show up as an exact
    // mismatch immediately.
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 7000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 8000 + s.n);
    const FixedFormat fmt{16, 8};

    IndexMatmulStats scalar_stats;
    const Tensor scalar =
        fixedIndexMatmulTransBScalar(a, wt, fmt, &scalar_stats);

    const size_t original = threadCount();
    for (const size_t t : {1u, 2u, 5u}) {
        setThreadCount(t);
        IndexMatmulStats stats;
        const Tensor par = fixedIndexMatmulTransB(a, wt, fmt, &stats);
        for (size_t i = 0; i < scalar.size(); ++i)
            EXPECT_EQ(scalar.raw()[i], par.raw()[i])
                << "threads=" << t << " elem=" << i;
        EXPECT_EQ(stats.gaussianPairs, scalar_stats.gaussianPairs)
            << "threads=" << t;
        EXPECT_EQ(stats.outlierPairs, scalar_stats.outlierPairs)
            << "threads=" << t;
    }
    setThreadCount(original);
}

TEST_P(EngineParity, BatchedGemmBitIdenticalToPerRequestCalls)
{
    // The serving entry point: stacking B activation blocks into one
    // engine invocation must reproduce each standalone product bit
    // for bit, and route exactly the same pair counts.
    const Shape s = GetParam();
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    // Ragged batch: four requests of different row counts sharing
    // one dictionary (encoded from one stacked tensor, then split).
    const size_t lens[] = {s.m, 1, std::max<size_t>(1, s.m / 2),
                           s.m + 3};
    size_t total = 0;
    for (const size_t l : lens)
        total += l;
    const auto stacked = makeOperand(total, s.k, s.mean_a, s.std_a,
                                     s.tail_frac, 5000 + s.m);
    std::vector<QuantizedTensor> blocks;
    size_t r0 = 0;
    for (const size_t l : lens) {
        QuantizedTensor b(l, s.k, stacked.dictionary());
        for (size_t r = 0; r < l; ++r)
            for (size_t c = 0; c < s.k; ++c)
                b.at(r, c) = stacked.at(r0 + r, c);
        blocks.push_back(std::move(b));
        r0 += l;
    }

    std::vector<const QuantizedTensor *> parts;
    for (const auto &b : blocks)
        parts.push_back(&b);

    // The batched entry point dispatches on the engine selector like
    // the plain one; the stacking property must hold for both.
    const EngineGuard engine_guard;
    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count}) {
        setIndexEngine(engine);
        IndexMatmulStats batch_stats;
        const auto outs =
            indexMatmulTransBBatched(parts, wt, &batch_stats);
        ASSERT_EQ(outs.size(), blocks.size());

        IndexMatmulStats seq_stats;
        for (size_t b = 0; b < blocks.size(); ++b) {
            const Tensor one =
                indexMatmulTransB(blocks[b], wt, &seq_stats);
            ASSERT_EQ(outs[b].rows(), one.rows());
            for (size_t i = 0; i < one.size(); ++i)
                EXPECT_EQ(one.raw()[i], outs[b].raw()[i])
                    << "engine=" << indexEngineName(engine)
                    << " block=" << b << " elem=" << i;
        }
        EXPECT_EQ(batch_stats.gaussianPairs, seq_stats.gaussianPairs);
        EXPECT_EQ(batch_stats.outlierPairs, seq_stats.outlierPairs);
    }
}

TEST_P(EngineParity, CountingBitIdenticalToScalarThreadsAndLanes)
{
    // The counting engine's load-bearing parity: for every thread
    // count (1, 2, hardware) and lane assignment, the byte-plane
    // histogram engine is bit-identical to indexMatmulTransBScalar
    // under the Count selection — per-output-element arithmetic
    // order is fixed, and the histogram phase is exact integers.
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    setIndexEngine(IndexEngine::Count);

    IndexMatmulStats scalar_stats;
    const Tensor scalar =
        indexMatmulTransBScalar(a, wt, &scalar_stats);

    // The selector-routed scalar path IS the counting scalar kernel.
    const Tensor explicit_scalar =
        indexMatmulTransBCountingScalar(a, wt);
    for (size_t i = 0; i < scalar.size(); ++i)
        ASSERT_EQ(scalar.raw()[i], explicit_scalar.raw()[i]);

    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{1}, size_t{2}, hw}) {
        setThreadCount(t);
        for (const Lane lane : {Lane{}, Lane::acquire()}) {
            IndexMatmulStats stats;
            const Tensor par = indexMatmulTransB(a, wt, &stats, lane);
            for (size_t i = 0; i < scalar.size(); ++i)
                ASSERT_EQ(scalar.raw()[i], par.raw()[i])
                    << "threads=" << t << " lane=" << lane.id()
                    << " elem=" << i;
            EXPECT_EQ(stats.gaussianPairs,
                      scalar_stats.gaussianPairs)
                << "threads=" << t;
            EXPECT_EQ(stats.outlierPairs, scalar_stats.outlierPairs)
                << "threads=" << t;
        }
    }
}

TEST_P(EngineParity, CountingMatchesDecodedReference)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats stats;
    const Tensor count = indexMatmulTransBCounting(a, wt, &stats);
    const Tensor ref = decodedMatmulTransB(a, wt);

    const double tol =
        1e-9 * std::max(1.0, frobeniusNorm(ref)) + 1e-6;
    EXPECT_LT(maxAbsDiff(count, ref), tol);
    EXPECT_EQ(stats.gaussianPairs + stats.outlierPairs,
              static_cast<uint64_t>(s.m) * s.n * s.k);
}

TEST_P(EngineParity, CountingRoutesPairsLikeMagEngine)
{
    // Same algebra, different dataflow: both engines must route
    // exactly the same pairs to GPE vs OPP and agree numerically to
    // FP rounding.
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats mag_stats, count_stats;
    const Tensor mag = indexMatmulTransBMag(a, wt, &mag_stats);
    const Tensor count =
        indexMatmulTransBCounting(a, wt, &count_stats);

    EXPECT_EQ(count_stats.gaussianPairs, mag_stats.gaussianPairs);
    EXPECT_EQ(count_stats.outlierPairs, mag_stats.outlierPairs);
    const double tol =
        1e-9 * std::max(1.0, frobeniusNorm(mag)) + 1e-6;
    EXPECT_LT(maxAbsDiff(count, mag), tol);
}

INSTANTIATE_TEST_SUITE_P(
    OutlierHeavyShapes, EngineParity,
    ::testing::Values(
        Shape{16, 16, 64, 0.0, 1.0, 0.0, 0.05, 0.15},
        Shape{33, 17, 96, 0.4, 0.8, -0.2, 0.1, 0.25},
        Shape{8, 64, 128, -1.0, 2.0, 0.5, 0.5, 0.40},
        Shape{64, 8, 48, 0.0, 0.3, 0.0, 0.02, 0.0},
        Shape{5, 3, 300, 2.0, 1.0, -2.0, 0.7, 0.33}));

TEST(EngineSelector, DispatchesBothEntryPoints)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(661);
    Tensor ta(9, 80, rng.gaussianVector(720, 0.0, 1.0));
    Tensor tw(7, 80, rng.gaussianVector(560, 0.2, 0.7));
    const auto qa =
        quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw =
        quantizer.encode(tw, quantizer.buildDictionary(tw));

    const EngineGuard engine_guard;

    setIndexEngine(IndexEngine::Count);
    EXPECT_EQ(indexEngine(), IndexEngine::Count);
    const Tensor via_selector = indexMatmulTransB(qa, qw);
    const Tensor direct = indexMatmulTransBCounting(qa, qw);
    for (size_t i = 0; i < direct.size(); ++i)
        ASSERT_EQ(via_selector.raw()[i], direct.raw()[i]);

    setIndexEngine(IndexEngine::Mag);
    const Tensor mag_sel = indexMatmulTransB(qa, qw);
    const Tensor mag_direct = indexMatmulTransBMag(qa, qw);
    for (size_t i = 0; i < mag_direct.size(); ++i)
        ASSERT_EQ(mag_sel.raw()[i], mag_direct.raw()[i]);

    EXPECT_STREQ(indexEngineName(IndexEngine::Mag), "mag");
    EXPECT_STREQ(indexEngineName(IndexEngine::Count), "count");
    EXPECT_EQ(enginePlaneSet(IndexEngine::Mag), PlaneSet::Mag);
    EXPECT_EQ(enginePlaneSet(IndexEngine::Count), PlaneSet::Bytes);
}

TEST(EngineSelector, CountingStreamsOnlyBytePlanes)
{
    // The counting engine must not materialize the 8 B/element mag
    // plane — byte-traffic is its reason to exist.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(663);
    Tensor ta(12, 128, rng.gaussianVector(12 * 128, 0.0, 1.0));
    Tensor tw(10, 128, rng.gaussianVector(10 * 128, 0.0, 1.0));
    const auto qa =
        quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw =
        quantizer.encode(tw, quantizer.buildDictionary(tw));

    indexMatmulTransBCounting(qa, qw);
    for (const QuantizedTensor *q : {&qa, &qw}) {
        const PlanesFootprint f = q->planesFootprint();
        EXPECT_TRUE(f.resident);
        EXPECT_TRUE(f.bytesResident);
        EXPECT_FALSE(f.magResident);
        EXPECT_LT(f.expansionRatio(), 4.0);
    }
}

TEST(AutoEngine, DecisionTable)
{
    // The MOKEY_ENGINE=auto heuristic as a pure decision table
    // (ROADMAP: "pick count when planes are cold or K is
    // DRAM-bound").
    PlanesFootprint cold; // nothing resident
    PlanesFootprint bytes_only;
    bytes_only.resident = true;
    bytes_only.bytesResident = true;
    PlanesFootprint mag_warm;
    mag_warm.resident = true;
    mag_warm.magResident = true;

    // Cold weight planes -> counting, regardless of shape.
    EXPECT_EQ(autoEngineChoice(16, 16, 64, cold),
              IndexEngine::Count);
    // Byte planes resident (a counting-engine pin) -> counting.
    EXPECT_EQ(autoEngineChoice(16, 16, 64, bytes_only),
              IndexEngine::Count);
    // Warm mag plane and a cache-resident working set -> mag.
    EXPECT_EQ(autoEngineChoice(16, 16, 64, mag_warm),
              IndexEngine::Mag);
    // DRAM-bound K: the streamed mag working set exceeds the budget
    // even though the mag plane is warm -> counting.
    const size_t huge_k =
        kAutoMagBudgetBytes / (2 * 64 * sizeof(double)) + 1;
    EXPECT_EQ(autoEngineChoice(64, 64, huge_k, mag_warm),
              IndexEngine::Count);
    // Exactly at the budget counts as resident.
    const size_t fit_k = kAutoMagBudgetBytes / (2 * 64 * 8);
    EXPECT_EQ(autoEngineChoice(64, 64, fit_k, mag_warm),
              IndexEngine::Mag);

    // BERT-base decode (M = 1) against its weight sites, under the
    // fixed budget. wq (N x K = H x H) fits: its mag plane is pinned
    // and the GEMM runs on mag. w1 (4H x H) and w2 (H x 4H) stream
    // more than the budget even with a warm mag plane, so both FFN
    // GEMMs go to counting and their weights pin byte planes.
    const ModelConfig base = bertBase();
    struct Site
    {
        const char *name;
        size_t n, k;
        PlaneSet pin;
        IndexEngine engine;
    };
    const Site sites[] = {
        {"wq", base.hidden, base.hidden, PlaneSet::Mag,
         IndexEngine::Mag},
        {"w1", base.ffn, base.hidden, PlaneSet::Bytes,
         IndexEngine::Count},
        {"w2", base.hidden, base.ffn, PlaneSet::Bytes,
         IndexEngine::Count},
    };
    for (const Site &site : sites) {
        EXPECT_EQ(weightPlaneSet(IndexEngine::Auto, site.n, site.k),
                  site.pin)
            << site.name;
        EXPECT_EQ(autoEngineChoice(1, site.n, site.k, mag_warm),
                  site.engine)
            << site.name;
        EXPECT_EQ(autoEngineChoice(1, site.n, site.k,
                                   site.pin == PlaneSet::Mag
                                       ? mag_warm
                                       : bytes_only),
                  site.engine)
            << site.name;
    }

    // Weight pinning policy: fixed engines pin what they stream;
    // Auto pins by the weight's own size.
    EXPECT_EQ(weightPlaneSet(IndexEngine::Mag, 4096, 4096),
              PlaneSet::Mag);
    EXPECT_EQ(weightPlaneSet(IndexEngine::Count, 16, 16),
              PlaneSet::Bytes);
    EXPECT_EQ(weightPlaneSet(IndexEngine::Auto, 64, 64),
              PlaneSet::Mag);
    const size_t big_n = kAutoMagBudgetBytes / (2 * 64 * 8) + 1;
    EXPECT_EQ(weightPlaneSet(IndexEngine::Auto, big_n, 64),
              PlaneSet::Bytes);

    EXPECT_STREQ(indexEngineName(IndexEngine::Auto), "auto");
    EXPECT_EQ(enginePlaneSet(IndexEngine::Auto), PlaneSet::Bytes);
}

TEST(AutoEngine, DispatchFollowsResolvedEngine)
{
    // Under MOKEY_ENGINE=auto the production entry point must route
    // each GEMM exactly where the decision table says: to the mag
    // engine when the weight's mag plane is warm, to counting when
    // the weight is cold — verified bit-for-bit against the explicit
    // engine entry points.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(667);
    Tensor ta(9, 80, rng.gaussianVector(720, 0.0, 1.0));
    Tensor tw(7, 80, rng.gaussianVector(560, 0.2, 0.7));
    const auto qa =
        quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw =
        quantizer.encode(tw, quantizer.buildDictionary(tw));

    const EngineGuard engine_guard;
    setIndexEngine(IndexEngine::Auto);

    // Cold weight -> counting.
    EXPECT_EQ(resolveIndexEngine(qa, qw), IndexEngine::Count);
    const Tensor cold_out = indexMatmulTransB(qa, qw);
    const Tensor count_ref = indexMatmulTransBCounting(qa, qw);
    ASSERT_EQ(cold_out.raw(), count_ref.raw());

    // Pin the mag plane -> the same GEMM now resolves to mag.
    qw.pinPlanes(PlaneSet::Mag);
    EXPECT_EQ(resolveIndexEngine(qa, qw), IndexEngine::Mag);
    const Tensor warm_out = indexMatmulTransB(qa, qw);
    const Tensor mag_ref = indexMatmulTransBMag(qa, qw);
    ASSERT_EQ(warm_out.raw(), mag_ref.raw());

    // The scalar pin dispatches identically.
    ASSERT_EQ(indexMatmulTransBScalar(qa, qw).raw(),
              warm_out.raw());

    // A fixed selection bypasses the heuristic entirely.
    setIndexEngine(IndexEngine::Count);
    EXPECT_EQ(resolveIndexEngine(qa, qw), IndexEngine::Count);
}

TEST(FusedEncodeGemm, BitIdenticalToUnfusedPerEngine)
{
    // The engines consume only planes + dictionary, and the fused
    // encoder's planes are bit-identical to the derived ones — so
    // GEMMs over fused-encoded activations must match GEMMs over
    // encode()d ones bit-for-bit, per engine, across thread counts
    // and lanes.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(669);
    Tensor ta(22, 112, rng.gaussianVector(22 * 112, 0.1, 1.2));
    Tensor tw(17, 112, rng.gaussianVector(17 * 112, 0.0, 0.4));
    for (size_t i = 0; i < ta.size(); i += 61)
        ta.raw()[i] = (i % 2) ? 8.0f : -7.5f; // force outliers
    const auto da = quantizer.buildDictionary(ta);
    const auto dw = quantizer.buildDictionary(tw);
    const auto qa_ref = quantizer.encode(ta, da);
    const auto qw = quantizer.encode(tw, dw);

    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count, IndexEngine::Auto}) {
        setIndexEngine(engine);
        setThreadCount(1);
        const Tensor ref = indexMatmulTransB(qa_ref, qw);
        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()}) {
                const auto qa_fused = quantizer.encodeToPlanes(
                    ta, da,
                    enginePlaneSet(engine == IndexEngine::Auto
                                       ? IndexEngine::Count
                                       : engine),
                    lane);
                const Tensor out =
                    indexMatmulTransB(qa_fused, qw, nullptr, lane);
                ASSERT_EQ(out.raw(), ref.raw())
                    << "engine=" << indexEngineName(engine)
                    << " threads=" << t << " lane=" << lane.id();
            }
        }
    }
}

TEST(EngineDeterminism, StatsInvariantAcrossThreadCounts)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(977);
    Tensor ta(40, 120, rng.gaussianVector(4800, 0.0, 1.0));
    Tensor tw(24, 120, rng.gaussianVector(2880, 0.0, 1.0));
    const auto qa = quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw = quantizer.encode(tw, quantizer.buildDictionary(tw));

    const size_t original = threadCount();
    IndexMatmulStats first;
    indexMatmulTransB(qa, qw, &first);
    EXPECT_EQ(first.gaussianPairs + first.outlierPairs,
              40u * 24u * 120u);
    for (const size_t t : {1u, 3u, 8u}) {
        setThreadCount(t);
        IndexMatmulStats stats;
        indexMatmulTransB(qa, qw, &stats);
        EXPECT_EQ(stats.gaussianPairs, first.gaussianPairs);
        EXPECT_EQ(stats.outlierPairs, first.outlierPairs);
    }
    setThreadCount(original);
}

/**
 * Decode shapes: a few activation rows against K = 768 and N of
 * several 32-wide weight tiles. The fixtures above never cross the
 * fan-out grain; these split one output row's tiles over the pool,
 * so two threads write one row, and N = 3 * 32 + 5 leaves a ragged
 * last tile.
 */
class TileGrid : public ::testing::Test
{
  protected:
    static constexpr size_t kK = 768;

    TileGrid() : exp(1.179, -0.977, 8), quantizer(exp) {}

    QuantizedTensor
    operand(size_t rows, uint64_t seed) const
    {
        Rng rng(seed);
        Tensor t(rows, kK, rng.gaussianVector(rows * kK, 0.1, 1.0));
        for (size_t i = 0; i < t.size(); i += 97)
            t.raw()[i] = (i % 2) ? 7.5f : -8.0f; // force outliers
        return quantizer.encode(t, quantizer.buildDictionary(t));
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

void
expectPlanesEqual(const CodePlanes &a, const CodePlanes &b,
                  const std::string &what)
{
    ASSERT_EQ(a.index, b.index) << what;
    ASSERT_EQ(a.theta, b.theta) << what;
    ASSERT_EQ(a.mag, b.mag) << what;
    ASSERT_EQ(a.magRowSum, b.magRowSum) << what;
    ASSERT_EQ(a.byteRowSum, b.byteRowSum) << what;
    ASSERT_EQ(a.rowStart, b.rowStart) << what;
    ASSERT_EQ(a.outliers.size(), b.outliers.size()) << what;
    for (size_t i = 0; i < a.outliers.size(); ++i) {
        ASSERT_EQ(a.outliers[i].col, b.outliers[i].col) << what;
        ASSERT_EQ(a.outliers[i].index, b.outliers[i].index) << what;
        ASSERT_EQ(a.outliers[i].value, b.outliers[i].value) << what;
    }
}

TEST_F(TileGrid, DecodeGemmsBitIdenticalToScalar)
{
    // The unfused and fused GEMMs over the tile grid against the
    // serial scalar pin (+ epilogue + encodeToPlanes for the fused
    // one), per engine x keepDense x outDict x threads x lane: every
    // float, plane byte, fold sum, sidecar entry and pair count.
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    const FusedRowEpilogue epi = [](size_t i, float *vals, size_t n) {
        for (size_t c = 0; c < n; ++c)
            vals[c] = vals[c] * 0.25f + static_cast<float>(i % 3);
    };

    for (const size_t n : {size_t{3 * 32 + 5}, size_t{4 * 32}}) {
        const auto wt = operand(n, 900 + n);
        for (const size_t m : {1, 2, 3, 5}) {
            const auto a = operand(m, 500 + m);
            for (const IndexEngine engine :
                 {IndexEngine::Mag, IndexEngine::Count}) {
                setIndexEngine(engine);
                IndexMatmulStats ref_stats;
                const Tensor ref =
                    indexMatmulTransBScalar(a, wt, &ref_stats);
                Tensor ref_epi = ref;
                for (size_t i = 0; i < m; ++i)
                    epi(i, ref_epi.row(i), n);
                const auto out_dict = quantizer.buildDictionary(ref_epi);
                const QuantizedTensor ref_q = quantizer.encodeToPlanes(
                    ref_epi, out_dict, PlaneSet::All);
                const CodePlanes &ref_planes = ref_q.planes();

                for (const size_t t : {size_t{1}, size_t{2}, size_t{3},
                                       hw}) {
                    setThreadCount(t);
                    for (const Lane lane : {Lane{}, Lane::acquire()}) {
                        const std::string what =
                            std::string("engine=") +
                            indexEngineName(engine) +
                            " m=" + std::to_string(m) +
                            " n=" + std::to_string(n) +
                            " threads=" + std::to_string(t) +
                            " lane=" + std::to_string(lane.id());
                        IndexMatmulStats stats;
                        ASSERT_EQ(indexMatmulTransB(a, wt, &stats, lane)
                                      .raw(),
                                  ref.raw())
                            << what;
                        EXPECT_EQ(stats.gaussianPairs,
                                  ref_stats.gaussianPairs) << what;
                        EXPECT_EQ(stats.outlierPairs,
                                  ref_stats.outlierPairs) << what;

                        for (const bool dense : {true, false}) {
                            for (const bool encode : {true, false}) {
                                if (!dense && !encode)
                                    continue;
                                const std::string w = what +
                                    " dense=" + std::to_string(dense) +
                                    " encode=" + std::to_string(encode);
                                IndexMatmulStats fs;
                                const FusedGemmOut out =
                                    indexMatmulTransBFused(
                                        a, wt, engine, epi,
                                        encode ? &out_dict : nullptr,
                                        PlaneSet::All, dense, nullptr,
                                        &fs, lane);
                                EXPECT_EQ(fs.gaussianPairs,
                                          ref_stats.gaussianPairs) << w;
                                EXPECT_EQ(fs.outlierPairs,
                                          ref_stats.outlierPairs) << w;
                                if (dense)
                                    ASSERT_EQ(out.dense.raw(),
                                              ref_epi.raw()) << w;
                                else
                                    EXPECT_EQ(out.dense.size(), 0u) << w;
                                if (encode)
                                    expectPlanesEqual(
                                        out.planes.planes(), ref_planes,
                                        w);
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST_F(TileGrid, OneRowGemmSplitsOverThePool)
{
    // A one-row range never exceeds its grain, so a partition over
    // activation rows alone would run this GEMM inline; the tile grid
    // must hand its weight tiles to the pool as several chunks.
    const ThreadCountGuard thread_guard;
    const auto a = operand(1, 501);
    const auto wt = operand(3 * 32 + 5, 905);
    const size_t hw = std::max<size_t>(
        2, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{2}, hw}) {
        setThreadCount(t);
        const Lane lane = Lane::acquire();
        const uint64_t before = laneStats(lane).chunks;
        indexMatmulTransBFused(a, wt, IndexEngine::Mag, nullptr, nullptr,
                               PlaneSet::Mag, true, nullptr, nullptr,
                               lane);
        EXPECT_GT(laneStats(lane).chunks - before, 1u)
            << "threads=" << t;
    }
}

TEST(CodePlanesView, MatchesCodes)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(983);
    Tensor t(13, 57, rng.gaussianVector(13 * 57, 0.0, 1.5));
    auto q = quantizer.encode(t, quantizer.buildDictionary(t));

    // Const view only: a non-const accessor would (correctly) drop
    // the cached planes out from under the reference.
    const QuantizedTensor &cq = q;
    const CodePlanes &p = cq.planes();
    ASSERT_EQ(p.rows, cq.rows());
    ASSERT_EQ(p.cols, cq.cols());
    size_t outliers = 0;
    for (size_t r = 0; r < cq.rows(); ++r) {
        const auto *ot = p.outlierRow(r);
        size_t seen = 0;
        for (size_t c = 0; c < cq.cols(); ++c) {
            const QCode code = cq.at(r, c);
            if (code.isOutlier()) {
                EXPECT_EQ(p.thetaRow(r)[c], 0);
                ASSERT_LT(seen, p.outlierCount(r));
                EXPECT_EQ(ot[seen].col, c);
                EXPECT_DOUBLE_EQ(ot[seen].value, cq.decodeAt(r, c));
                ++seen;
            } else {
                EXPECT_EQ(p.indexRow(r)[c], code.index());
                EXPECT_EQ(p.thetaRow(r)[c], code.theta());
            }
        }
        EXPECT_EQ(seen, p.outlierCount(r));
        outliers += seen;
    }
    EXPECT_EQ(outliers, p.outliers.size());

    // Mutating the codes must invalidate the cached view.
    const size_t before = p.outliers.size();
    bool flipped = false;
    for (auto &c : q.raw()) {
        if (c.isOutlier()) {
            c = QCode::gaussian(false, 0);
            flipped = true;
            break;
        }
    }
    if (flipped)
        EXPECT_EQ(q.planes().outliers.size(), before - 1);
}

class IndexDotFixture : public ::testing::Test
{
  protected:
    IndexDotFixture() : exp(1.179, -0.977, 8), quantizer(exp) {}

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_F(IndexDotFixture, AllGaussianUsesNoOpp)
{
    Rng rng(171);
    Tensor ta(1, 64, rng.gaussianVector(64, 0.0, 1.0));
    Tensor tw(1, 64, rng.gaussianVector(64, 0.0, 1.0));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    auto qa = quantizer.encode(ta, da);
    auto qw = quantizer.encode(tw, dw);
    // Clear any outliers so every pair takes the GPE path.
    for (auto &c : qa.raw())
        if (c.isOutlier())
            c = QCode::gaussian(false, 7);
    for (auto &c : qw.raw())
        if (c.isOutlier())
            c = QCode::gaussian(true, 7);

    IndexMatmulStats st;
    const auto ca = vectorConstants(qa.row(0), 64, exp);
    const auto cw = vectorConstants(qw.row(0), 64, exp);
    indexDot(qa.row(0), qa.dictionary(), qw.row(0), qw.dictionary(),
             64, ca, cw, &st);
    EXPECT_EQ(st.outlierPairs, 0u);
    EXPECT_EQ(st.gaussianPairs, 64u);
}

TEST_F(IndexDotFixture, CrfCountsAreConsistent)
{
    Rng rng(173);
    Tensor ta(1, 200, rng.gaussianVector(200, 0.0, 1.0));
    Tensor tw(1, 200, rng.gaussianVector(200, 0.0, 1.0));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    auto qa = quantizer.encode(ta, da);
    auto qw = quantizer.encode(tw, dw);

    IndexMatmulStats st;
    CrfState crf;
    const auto ca = vectorConstants(qa.row(0), 200, exp);
    const auto cw = vectorConstants(qw.row(0), 200, exp);
    indexDot(qa.row(0), da, qw.row(0), dw, 200, ca, cw, &st, &crf);

    // Sum of |soi| counts can't exceed the Gaussian pair count, and
    // the total signed count must equal pom1 in every CRF.
    int64_t soi_signed = 0, abs_total = 0;
    for (int32_t c : crf.soi) {
        soi_signed += c;
        abs_total += std::abs(c);
    }
    EXPECT_LE(abs_total, static_cast<int64_t>(st.gaussianPairs));
    EXPECT_EQ(soi_signed, crf.pom1);
    int64_t soa_signed = 0, sow_signed = 0;
    for (int32_t c : crf.soa1)
        soa_signed += c;
    for (int32_t c : crf.sow1)
        sow_signed += c;
    EXPECT_EQ(soa_signed, crf.pom1);
    EXPECT_EQ(sow_signed, crf.pom1);
}

TEST_F(IndexDotFixture, VectorConstantsMatchBruteForce)
{
    Rng rng(179);
    Tensor t(1, 300, rng.gaussianVector(300, 0.3, 1.2));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);
    const auto c = vectorConstants(q.row(0), 300, exp);

    double soa2 = 0.0, pom2 = 0.0;
    for (size_t i = 0; i < 300; ++i) {
        const QCode code = q.at(0, i);
        if (code.isOutlier())
            continue;
        const double p = std::pow(exp.a(), code.index());
        soa2 += code.theta() * p;
        pom2 += code.theta();
    }
    EXPECT_NEAR(c.soa2, soa2, 1e-9);
    EXPECT_NEAR(c.pom2, pom2, 1e-12);
}

TEST_F(IndexDotFixture, QuantizedGemmTracksFloatGemm)
{
    // End-to-end sanity: quantize A and W, multiply in the index
    // domain, compare against the FP32 GEMM of the *original*
    // tensors — the quantization error should be small relative to
    // the output magnitude.
    Rng rng(181);
    const size_t m = 16, n = 16, k = 256;
    Tensor a(m, k, rng.gaussianVector(m * k, 0.0, 1.0));
    Tensor w(n, k, rng.gaussianVector(n * k, 0.0, 0.05));

    auto da = quantizer.buildDictionary(a);
    auto dw = quantizer.buildDictionary(w);
    const auto qa = quantizer.encode(a, da);
    const auto qw = quantizer.encode(w, dw);

    const Tensor qout = indexMatmulTransB(qa, qw);
    const Tensor fout = matmulTransB(a, w);

    const double rel = maxAbsDiff(qout, fout) /
        (frobeniusNorm(fout) /
         std::sqrt(static_cast<double>(m * n)));
    EXPECT_LT(rel, 0.5); // bounded relative error per output
    EXPECT_GT(frobeniusNorm(qout), 0.5 * frobeniusNorm(fout));
}

TEST_F(IndexDotFixture, MismatchedExpDictionariesPanic)
{
    Rng rng(191);
    Tensor t(1, 8, rng.gaussianVector(8, 0.0, 1.0));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);

    ExpDictionary other(1.3, -0.9, 8);
    Quantizer qz2(other);
    const auto dict2 = qz2.buildDictionary(t);
    const auto q2 = qz2.encode(t, dict2);

    const auto ca = vectorConstants(q.row(0), 8, exp);
    EXPECT_DEATH(indexDot(q.row(0), dict, q2.row(0), dict2, 8, ca,
                          ca),
                 "different exponential dictionaries");
}

class FixedPipelineProperty : public ::testing::TestWithParam<Shape>
{
  protected:
    FixedPipelineProperty() : exp(1.179, -0.977, 8), quantizer(exp) {}

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_P(FixedPipelineProperty, TracksFloatIndexDot)
{
    const Shape s = GetParam();
    Rng rng(7000 + s.k);

    Tensor ta(s.m, s.k,
              rng.gaussianVector(s.m * s.k, s.mean_a, s.std_a));
    Tensor tw(s.n, s.k,
              rng.gaussianVector(s.n * s.k, s.mean_w, s.std_w));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    const auto qa = quantizer.encode(ta, da);
    const auto qw = quantizer.encode(tw, dw);

    const Tensor fl = indexMatmulTransB(qa, qw);
    // Output format sized from the float result's observed range.
    double mx = 1e-6;
    for (float v : fl.raw())
        mx = std::max(mx, std::abs(static_cast<double>(v)));
    const auto out_fmt = FixedFormat::forRange(16, -mx, mx);

    const Tensor fx = fixedIndexMatmulTransB(qa, qw, out_fmt);

    // The integer pipeline quantizes the eight scaling coefficients
    // to 16 b; partially cancelling large terms amplify that
    // rounding, so the achievable bound is a few percent of full
    // scale — consistent with 16 b fixed-point arithmetic.
    const double tol = 0.06 * mx + 2.0 * out_fmt.resolution();
    EXPECT_LT(maxAbsDiff(fx, fl), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FixedPipelineProperty,
    ::testing::Values(
        Shape{4, 4, 32, 0.0, 1.0, 0.0, 0.02, 0.0},
        Shape{8, 8, 64, 0.5, 0.3, -0.1, 0.05, 0.0},
        Shape{6, 6, 128, -1.0, 0.5, 0.5, 0.2, 0.0},
        Shape{2, 3, 512, 0.0, 2.0, 0.0, 1.0, 0.0}));

TEST_F(IndexDotFixture, FixedPipelineSaturatesGracefully)
{
    // Deliberately tiny output format: results must clamp, not wrap.
    Rng rng(193);
    Tensor ta(2, 64, rng.gaussianVector(128, 0.0, 1.0));
    Tensor tw(2, 64, rng.gaussianVector(128, 0.0, 1.0));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    const auto qa = quantizer.encode(ta, da);
    const auto qw = quantizer.encode(tw, dw);

    const FixedFormat tiny{16, 20}; // max value ~0.03
    const Tensor fx = fixedIndexMatmulTransB(qa, qw, tiny);
    for (float v : fx.raw()) {
        EXPECT_LE(v, static_cast<float>(tiny.maxValue()) + 1e-9);
        EXPECT_GE(v, static_cast<float>(tiny.minValue()) - 1e-9);
    }
}

TEST_F(IndexDotFixture, FixedVectorConstantsMatchFloat)
{
    Rng rng(197);
    Tensor t(1, 256, rng.gaussianVector(256, 0.0, 1.0));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);

    FixedIndexEngine eng(dict, dict, FixedFormat{16, 8});
    const auto fc = eng.vectorConstants(q.row(0), 256);
    const auto flc = vectorConstants(q.row(0), 256, exp);

    const double soa2 =
        fromFixedRaw(fc.soa2Raw, eng.baseFormat());
    EXPECT_NEAR(soa2, flc.soa2, 256 * eng.baseFormat().resolution());
    EXPECT_DOUBLE_EQ(static_cast<double>(fc.pom2), flc.pom2);
}

TEST(GemmConstantsCache, HitsReturnBitIdenticalConstants)
{
    // The attention act×act hoisting path: a cached lookup must be
    // indistinguishable from a fresh derivation for every field, for
    // several (dictionary, K) combinations, repeated so the second
    // round is served from the LRU.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(77);
    std::vector<TensorDictionary> dicts;
    for (int d = 0; d < 3; ++d) {
        Tensor t(8, 64,
                 rng.gaussianVector(8 * 64, 0.3 * d, 1.0 + d));
        dicts.push_back(quantizer.buildDictionary(t));
    }

    const uint64_t h0 = gemmConstantsCacheHits();
    for (int round = 0; round < 2; ++round) {
        for (const auto &da : dicts) {
            for (const auto &dw : dicts) {
                for (const size_t k : {4u, 24u, 96u}) {
                    const GemmConstants fresh =
                        gemmConstants(da, dw, k);
                    const GemmConstants cached =
                        cachedGemmConstants(da, dw, k);
                    EXPECT_EQ(fresh.k, cached.k);
                    EXPECT_EQ(fresh.sA, cached.sA);
                    EXPECT_EQ(fresh.sW, cached.sW);
                    EXPECT_EQ(fresh.mA, cached.mA);
                    EXPECT_EQ(fresh.mW, cached.mW);
                    EXPECT_EQ(fresh.c0, cached.c0);
                    EXPECT_EQ(fresh.constTerm, cached.constTerm);
                    EXPECT_EQ(fresh.mags, cached.mags);
                    EXPECT_EQ(fresh.prod, cached.prod);
                }
            }
        }
    }
    // Round 2 re-asks for every key just inserted by round 1: at
    // least those 27 lookups must be hits.
    EXPECT_GE(gemmConstantsCacheHits() - h0, 27u);
}

TEST(GemmConstantsCache, EvictionKeepsResultsExact)
{
    // Far more live K values than the cache holds: every lookup must
    // still match a fresh derivation even while entries churn.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(78);
    Tensor t(8, 64, rng.gaussianVector(8 * 64, 0.0, 1.0));
    const TensorDictionary dict = quantizer.buildDictionary(t);
    for (size_t k = 1; k <= 256; ++k) {
        const GemmConstants fresh = gemmConstants(dict, dict, k);
        const GemmConstants cached =
            cachedGemmConstants(dict, dict, k);
        EXPECT_EQ(fresh.constTerm, cached.constTerm) << "k=" << k;
        EXPECT_EQ(fresh.prod, cached.prod) << "k=" << k;
        EXPECT_EQ(fresh.k, cached.k) << "k=" << k;
    }
}

} // anonymous namespace
} // namespace mokey
