/**
 * @file
 * Plane-to-plane layer-graph fusion tests: the fused forward walk is
 * a perf optimization, never a numerics change — forward,
 * forwardBatch and chained forwardStep must match the frozen
 * layer-at-a-time replica (tests/reference/) bit-for-bit across
 * engines x thread counts x lanes — and the self-calibrating
 * per-site engine selection must be deterministic once pinned: an
 * enginePins() snapshot replayed via pinEngines() reproduces
 * identical engine choices and outputs.
 */

#include <string>
#include <thread>
#include <type_traits>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "model/config.hh"
#include "model/pipeline.hh"
#include "quant/engine.hh"
#include "reference/layer_at_a_time.hh"
#include "tensor/ops.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

// The pipeline and the replica keep references to the model and the
// quantizer, so binding a temporary to either must not compile.
static_assert(std::is_constructible_v<QuantizedTransformer,
                                      const Transformer &,
                                      const Quantizer &>);
static_assert(!std::is_constructible_v<QuantizedTransformer,
                                       Transformer &&,
                                       const Quantizer &>);
static_assert(!std::is_constructible_v<QuantizedTransformer,
                                       const Transformer &,
                                       Quantizer &&>);
static_assert(!std::is_constructible_v<QuantizedTransformer,
                                       Transformer &&, Quantizer &&,
                                       const TensorDictConfig &>);
static_assert(std::is_constructible_v<reference::LayerAtATime,
                                      const Transformer &,
                                      const Quantizer &,
                                      const QuantizedTransformer &>);
static_assert(!std::is_constructible_v<reference::LayerAtATime,
                                       Transformer &&,
                                       const Quantizer &,
                                       const QuantizedTransformer &>);
static_assert(!std::is_constructible_v<reference::LayerAtATime,
                                       const Transformer &,
                                       Quantizer &&,
                                       const QuantizedTransformer &>);

ModelConfig
tinyConfig()
{
    return ModelConfig{"tiny", 2, 32, 2, 128, 256};
}

void
expectBitIdentical(const Tensor &a, const Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.raw()[i], b.raw()[i]) << what << " elem=" << i;
}

class GraphFusionFixture : public ::testing::Test
{
  protected:
    GraphFusionFixture()
        : model(tinyConfig(), 29),
          exp(1.179, -0.977, 8),
          quantizer(exp),
          pipeline(model, quantizer)
    {
        pipeline.quantizeWeights();
        std::vector<Tensor> batch;
        for (int i = 0; i < 4; ++i)
            batch.push_back(model.makeInput(16, 200 + i));
        pipeline.profileActivations(batch);
    }

    std::vector<Tensor>
    raggedInputs() const
    {
        std::vector<Tensor> inputs;
        const size_t lens[] = {9, 16, 1, 5};
        for (size_t i = 0; i < 4; ++i)
            inputs.push_back(model.makeInput(lens[i], 800 + i));
        return inputs;
    }

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
    const reference::LayerAtATime replica{model, quantizer, pipeline};
};

std::string
sweepLabel(IndexEngine engine, size_t threads, Lane lane)
{
    return std::string("engine=") + indexEngineName(engine) +
        " threads=" + std::to_string(threads) +
        " lane=" + std::to_string(lane.id());
}

TEST_F(GraphFusionFixture, KnobDefaults)
{
    // Unless the environment overrides it, self-calibration is off
    // (parity-first default).
    EXPECT_FALSE(engineCalibration());
}

TEST_F(GraphFusionFixture, FusedForwardBitIdenticalToLayerAtATime)
{
    // The heart of the fusion contract: chaining each GEMM's
    // epilogue and the next GEMM's re-quantization into the band
    // walk, reading precomputed fold sums, and hoisting the site
    // constants must all be invisible in the output bits.
    const Tensor in = model.makeInput(11, 471);
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count, IndexEngine::Auto}) {
        setIndexEngine(engine);
        setThreadCount(1);
        const Tensor ref = replica.forward(in);
        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()})
                expectBitIdentical(
                    ref,
                    pipeline.forward(in, QuantMode::WeightsAndActivations,
                                     lane),
                    sweepLabel(engine, t, lane));
        }
    }
}

TEST_F(GraphFusionFixture, FusedForwardBatchBitIdentical)
{
    // Batched serving takes the same fused walk over the stacked
    // row space; each ragged request must still come out bit-equal
    // to the layer-at-a-time batch.
    const auto inputs = raggedInputs();
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count, IndexEngine::Auto}) {
        setIndexEngine(engine);
        setThreadCount(1);
        const auto refs = replica.forwardBatch(inputs);
        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()}) {
                const auto outs = pipeline.forwardBatch(
                    inputs, QuantMode::WeightsAndActivations, lane);
                ASSERT_EQ(outs.size(), refs.size());
                for (size_t i = 0; i < outs.size(); ++i)
                    expectBitIdentical(refs[i], outs[i],
                                       sweepLabel(engine, t, lane) +
                                           " req=" + std::to_string(i));
            }
        }
    }
}

TEST_F(GraphFusionFixture, FusedForwardStepChainBitIdentical)
{
    // The step-wise entry point re-encodes the carried float rows at
    // every layer instead of receiving planes from the previous w2
    // GEMM; each step of the chain must equal the replica's layer on
    // the same stacked rows.
    const auto inputs = raggedInputs();
    std::vector<const Tensor *> parts;
    std::vector<size_t> starts{0};
    for (const Tensor &in : inputs) {
        parts.push_back(&in);
        starts.push_back(starts.back() + in.rows());
    }
    const Tensor stacked = concatRows(parts);
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count, IndexEngine::Auto}) {
        setIndexEngine(engine);
        setThreadCount(1);
        std::vector<Tensor> refs;
        Tensor x = stacked;
        for (size_t l = 0; l < pipeline.stepCount(); ++l)
            refs.push_back(x = replica.layer(l, x, starts));
        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()}) {
                Tensor y = stacked;
                for (size_t l = 0; l < pipeline.stepCount(); ++l) {
                    y = pipeline.forwardStep(
                        l, y, starts, QuantMode::WeightsAndActivations,
                        lane);
                    expectBitIdentical(refs[l], y,
                                       sweepLabel(engine, t, lane) +
                                           " layer=" + std::to_string(l));
                }
            }
        }
    }
}

TEST_F(GraphFusionFixture, EnginePinsExposePerSiteProfile)
{
    // One entry per (layer, weight site), undecided until
    // calibration runs, reporting the process-wide selection.
    const auto pins = pipeline.enginePins();
    ASSERT_EQ(pins.size(), tinyConfig().layers * kGraphSiteCount);
    const char *expect[] = {"wq", "wk", "wv", "wo", "w1", "w2"};
    for (size_t i = 0; i < pins.size(); ++i) {
        EXPECT_EQ(pins[i].layer, i / kGraphSiteCount);
        EXPECT_EQ(pins[i].site, expect[i % kGraphSiteCount]);
        EXPECT_FALSE(pins[i].pinned);
        EXPECT_EQ(pins[i].engine, indexEngine());
    }
}

TEST_F(GraphFusionFixture, PinnedProfileMatchesFixedEngine)
{
    // Pinning every site to Count under MOKEY_ENGINE=auto must
    // reproduce the fixed-Count forward bit-for-bit: under Auto the
    // activation x activation GEMMs already resolve to counting, so
    // the pins decide every remaining (weight-site) GEMM.
    const Tensor in = model.makeInput(10, 913);
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    setThreadCount(1);

    setIndexEngine(IndexEngine::Count);
    const Tensor ref =
        pipeline.forward(in, QuantMode::WeightsAndActivations);

    setIndexEngine(IndexEngine::Auto);
    auto pins = pipeline.enginePins();
    for (EnginePin &p : pins) {
        p.engine = IndexEngine::Count;
        p.pinned = true;
    }
    pipeline.pinEngines(pins);
    const auto applied = pipeline.enginePins();
    for (const EnginePin &p : applied) {
        EXPECT_TRUE(p.pinned);
        EXPECT_EQ(p.engine, IndexEngine::Count);
    }
    expectBitIdentical(
        ref, pipeline.forward(in, QuantMode::WeightsAndActivations),
        "auto+count pins vs fixed count");
}

TEST_F(GraphFusionFixture, CalibrationPinsEverySiteDeterministically)
{
    // Under MOKEY_CALIBRATE + MOKEY_ENGINE=auto, the first two fused
    // iterations profile mag vs count per site and pin the winner;
    // the pinned profile must (a) cover every site, (b) survive and
    // not drift over further forwards, and (c) replay exactly onto a
    // fresh pipeline via pinEngines(), making the calibrated choice
    // reproducible.
    const Tensor in = model.makeInput(12, 555);
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const CalibrateGuard calib_guard;
    setThreadCount(1);
    setIndexEngine(IndexEngine::Auto);
    setEngineCalibration(true);

    pipeline.forward(in, QuantMode::WeightsAndActivations);
    pipeline.forward(in, QuantMode::WeightsAndActivations);
    const auto pins = pipeline.enginePins();
    ASSERT_EQ(pins.size(), tinyConfig().layers * kGraphSiteCount);
    for (const EnginePin &p : pins) {
        EXPECT_TRUE(p.pinned) << "layer=" << p.layer << " " << p.site;
        EXPECT_NE(p.engine, IndexEngine::Auto);
    }

    // Further forwards run on the pinned profile: stable pins,
    // bit-identical repeated outputs.
    const Tensor a =
        pipeline.forward(in, QuantMode::WeightsAndActivations);
    const Tensor b =
        pipeline.forward(in, QuantMode::WeightsAndActivations);
    expectBitIdentical(a, b, "pinned forwards");
    const auto pins2 = pipeline.enginePins();
    ASSERT_EQ(pins2.size(), pins.size());
    for (size_t i = 0; i < pins.size(); ++i)
        EXPECT_EQ(pins[i].engine, pins2[i].engine) << i;

    // Replay the profile onto a second pipeline (calibration off):
    // identical engine choices, identical outputs.
    setEngineCalibration(false);
    QuantizedTransformer replay(model, quantizer);
    replay.quantizeWeights();
    std::vector<Tensor> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(model.makeInput(16, 200 + i));
    replay.profileActivations(batch);
    replay.pinEngines(pins);
    const auto rp = replay.enginePins();
    ASSERT_EQ(rp.size(), pins.size());
    for (size_t i = 0; i < pins.size(); ++i) {
        EXPECT_TRUE(rp[i].pinned) << i;
        EXPECT_EQ(rp[i].engine, pins[i].engine) << i;
    }
    expectBitIdentical(
        a, replay.forward(in, QuantMode::WeightsAndActivations),
        "replayed profile");
}

TEST_F(GraphFusionFixture, AutoBudgetOverrideSteersDecisionTable)
{
    // The calibrated (or overridden) mag budget is what the Auto
    // decision table reads: a tiny budget routes even a small GEMM
    // to counting, a large one lets a resident mag plane win.
    const MagBudgetGuard budget_guard;
    const Tensor &src = model.weights()[0].wq;
    QuantizedTensor w =
        quantizer.encode(src, quantizer.buildDictionary(src));
    w.pinPlanes(PlaneSet::Mag);
    const auto fp = w.planesFootprint();
    ASSERT_TRUE(fp.resident && fp.magResident);

    setAutoMagBudgetBytes(1);
    EXPECT_EQ(autoMagBudgetBytes(), 1u);
    EXPECT_EQ(autoEngineChoice(4, w.rows(), w.cols(), fp),
              IndexEngine::Count);

    setAutoMagBudgetBytes(size_t{1} << 30);
    EXPECT_EQ(autoEngineChoice(4, w.rows(), w.cols(), fp),
              IndexEngine::Mag);

    // 0 re-resolves the default (constant; calibration is off).
    setAutoMagBudgetBytes(0);
    EXPECT_EQ(autoMagBudgetBytes(), kAutoMagBudgetBytes);
}

TEST_F(GraphFusionFixture, CalibratedBudgetProbeIsClampedAndCached)
{
    // The cache probe must land in the documented clamp range and be
    // stable across calls (cached per process).
    const size_t b0 = calibrateMagBudget();
    EXPECT_GE(b0, size_t{4} << 20);
    EXPECT_LE(b0, size_t{64} << 20);
    EXPECT_EQ(calibrateMagBudget(), b0);
}

} // anonymous namespace
} // namespace mokey
