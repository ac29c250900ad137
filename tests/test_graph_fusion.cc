/**
 * @file
 * Plane-to-plane layer-graph fusion tests: the fused forward walk is
 * a perf optimization, never a numerics change — forward,
 * forwardBatch and chained forwardStep must match the frozen
 * layer-at-a-time replica (tests/reference/) bit-for-bit across
 * engines {mag, count, auto} x thread counts x lanes. Under auto,
 * every site resolves through the pure decision table, so the same
 * inputs always pick the same engines.
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

} // anonymous namespace
} // namespace mokey
