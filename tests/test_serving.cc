/**
 * @file
 * Serving-engine tests: the batched forward pass must be
 * bit-identical to sequential forwards for every quantization mode,
 * engine, thread count, lane, and ragged mix of sequence lengths —
 * batching is a throughput optimization, never a numerics change.
 * The scheduler in front of it is covered by test_continuous.cc.
 */

#include <algorithm>
#include <thread>
#include <tuple>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "model/config.hh"
#include "model/pipeline.hh"
#include "tensor/ops.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

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

class ServingFixture : public ::testing::Test
{
  protected:
    ServingFixture()
        : model(tinyConfig(), 23),
          exp(1.179, -0.977, 8),
          quantizer(exp),
          pipeline(model, quantizer)
    {
        pipeline.quantizeWeights();
        std::vector<Tensor> batch;
        for (int i = 0; i < 4; ++i)
            batch.push_back(model.makeInput(16, 100 + i));
        pipeline.profileActivations(batch);
    }

    /** Ragged serving batch: wildly different sequence lengths. */
    std::vector<Tensor>
    raggedInputs() const
    {
        std::vector<Tensor> inputs;
        const size_t lens[] = {7, 16, 1, 12, 3};
        for (size_t i = 0; i < 5; ++i)
            inputs.push_back(model.makeInput(lens[i], 700 + i));
        return inputs;
    }

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(ServingFixture, BatchedForwardBitIdenticalAllModesAndThreads)
{
    const auto inputs = raggedInputs();
    const size_t original = threadCount();
    for (const QuantMode mode : {QuantMode::WeightsOnly,
                                 QuantMode::WeightsAndActivations}) {
        // Sequential references, computed single-threaded.
        setThreadCount(1);
        std::vector<Tensor> refs;
        for (const Tensor &in : inputs)
            refs.push_back(pipeline.forward(in, mode));

        for (const size_t t : {1u, 2u, 5u}) {
            setThreadCount(t);
            const auto outs = pipeline.forwardBatch(inputs, mode);
            ASSERT_EQ(outs.size(), inputs.size());
            for (size_t i = 0; i < outs.size(); ++i)
                expectBitIdentical(
                    refs[i], outs[i],
                    "mode=" +
                        std::to_string(static_cast<int>(mode)) +
                        " threads=" + std::to_string(t) +
                        " req=" + std::to_string(i));
        }
    }
    setThreadCount(original);
}

TEST_F(ServingFixture, EngineSelectorForwardBitIdenticalBothModes)
{
    // Switching the index-domain GEMM backend (MOKEY_ENGINE /
    // setIndexEngine) must never change results within an engine:
    // for each engine and each QuantMode, forward passes are
    // bit-identical across thread counts {1, 2, hw} and lanes —
    // the engines fix per-output-element arithmetic order, and
    // everything above them is already order-invariant.
    const Tensor in = model.makeInput(11, 919);
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count,
          IndexEngine::Auto}) {
        setIndexEngine(engine);
        for (const QuantMode mode :
             {QuantMode::WeightsOnly,
              QuantMode::WeightsAndActivations}) {
            setThreadCount(1);
            const Tensor ref = pipeline.forward(in, mode);
            for (const size_t t : {size_t{1}, size_t{2}, hw}) {
                setThreadCount(t);
                for (const Lane lane : {Lane{}, Lane::acquire()}) {
                    expectBitIdentical(
                        ref, pipeline.forward(in, mode, lane),
                        std::string("engine=") +
                            indexEngineName(engine) + " mode=" +
                            std::to_string(static_cast<int>(mode)) +
                            " threads=" + std::to_string(t) +
                            " lane=" + std::to_string(lane.id()));
                }
                // Batched serving path under the same engine.
                const auto outs =
                    pipeline.forwardBatch({in, in}, mode);
                ASSERT_EQ(outs.size(), 2u);
                for (const Tensor &out : outs)
                    expectBitIdentical(
                        ref, out,
                        std::string("batched engine=") +
                            indexEngineName(engine) +
                            " threads=" + std::to_string(t));
            }
        }
    }
}

TEST_F(ServingFixture, FusedEncodeForwardBitIdenticalToUnfused)
{
    // The fused single-pass activation quantizer is a perf
    // optimization, never a numerics change: forward and
    // forwardBatch outputs must match the seed encode()+derivePlanes
    // path bit-for-bit across engines x QuantModes x thread counts x
    // lanes.
    const auto inputs = raggedInputs();
    const Tensor in = model.makeInput(10, 321);
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const FusedEncodeGuard fused_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count,
          IndexEngine::Auto}) {
        setIndexEngine(engine);
        for (const QuantMode mode :
             {QuantMode::WeightsOnly,
              QuantMode::WeightsAndActivations}) {
            setFusedActEncode(false);
            setThreadCount(1);
            const Tensor ref = pipeline.forward(in, mode);
            std::vector<Tensor> brefs;
            for (const Tensor &bin : inputs)
                brefs.push_back(pipeline.forward(bin, mode));

            setFusedActEncode(true);
            for (const size_t t : {size_t{1}, size_t{2}, hw}) {
                setThreadCount(t);
                for (const Lane lane : {Lane{}, Lane::acquire()}) {
                    expectBitIdentical(
                        ref, pipeline.forward(in, mode, lane),
                        std::string("fused engine=") +
                            indexEngineName(engine) + " mode=" +
                            std::to_string(static_cast<int>(mode)) +
                            " threads=" + std::to_string(t));
                }
                const auto outs =
                    pipeline.forwardBatch(inputs, mode);
                ASSERT_EQ(outs.size(), inputs.size());
                for (size_t i = 0; i < outs.size(); ++i)
                    expectBitIdentical(
                        brefs[i], outs[i],
                        std::string("fused batch engine=") +
                            indexEngineName(engine) +
                            " threads=" + std::to_string(t) +
                            " req=" + std::to_string(i));
            }
        }
    }
}

TEST_F(ServingFixture, FusedEncodeCountersMatchUnfused)
{
    // The fused path feeds the activation outlier-rate counters from
    // the sidecar instead of a code walk; starting two fresh
    // pipelines from zero and running the same workload down each
    // path must land on the exact same cumulative fraction — and the
    // GEMM pair-routing stats must match too.
    const FusedEncodeGuard fused_guard;
    std::vector<Tensor> batch;
    for (int i = 0; i < 2; ++i)
        batch.push_back(model.makeInput(12, 300 + i));
    const Tensor in = model.makeInput(8, 333);

    auto run = [&](bool fused) {
        setFusedActEncode(fused);
        QuantizedTransformer p(model, quantizer);
        p.quantizeWeights();
        p.profileActivations(batch);
        p.forward(in, QuantMode::WeightsAndActivations);
        p.forwardBatch(batch, QuantMode::WeightsAndActivations);
        return std::tuple<double, uint64_t, uint64_t>(
            p.activationOutlierFraction(),
            p.matmulStats().gaussianPairs.load(),
            p.matmulStats().outlierPairs.load());
    };
    const auto unfused = run(false);
    const auto fused = run(true);
    EXPECT_DOUBLE_EQ(std::get<0>(fused), std::get<0>(unfused));
    EXPECT_GT(std::get<0>(fused), 0.0);
    EXPECT_EQ(std::get<1>(fused), std::get<1>(unfused));
    EXPECT_EQ(std::get<2>(fused), std::get<2>(unfused));
}

TEST_F(ServingFixture, SingleSequenceBatchMatchesForward)
{
    const Tensor in = model.makeInput(9, 42);
    const auto outs = pipeline.forwardBatch(
        {in}, QuantMode::WeightsAndActivations);
    ASSERT_EQ(outs.size(), 1u);
    expectBitIdentical(
        pipeline.forward(in, QuantMode::WeightsAndActivations),
        outs[0], "single");
}

TEST_F(ServingFixture, BatchedStatsMatchSequentialStats)
{
    // The pair counters are atomics fed by concurrent head jobs;
    // batching must route exactly the same pairs as N sequential
    // forwards (determinism of the counters, not just the outputs).
    const auto inputs = raggedInputs();

    const uint64_t g0 = pipeline.matmulStats().gaussianPairs;
    const uint64_t o0 = pipeline.matmulStats().outlierPairs;
    for (const Tensor &in : inputs)
        pipeline.forward(in, QuantMode::WeightsAndActivations);
    const uint64_t g_seq =
        pipeline.matmulStats().gaussianPairs - g0;
    const uint64_t o_seq = pipeline.matmulStats().outlierPairs - o0;

    pipeline.forwardBatch(inputs, QuantMode::WeightsAndActivations);
    const uint64_t g_batch =
        pipeline.matmulStats().gaussianPairs - g0 - g_seq;
    const uint64_t o_batch =
        pipeline.matmulStats().outlierPairs - o0 - o_seq;

    EXPECT_EQ(g_batch, g_seq);
    EXPECT_EQ(o_batch, o_seq);
}

TEST_F(ServingFixture, FloatBatchedForwardBitIdentical)
{
    const auto inputs = raggedInputs();
    const auto outs = model.forwardBatch(inputs);
    ASSERT_EQ(outs.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i)
        expectBitIdentical(model.forward(inputs[i]), outs[i],
                           "float req=" + std::to_string(i));
}

TEST_F(ServingFixture, EmptyBatchIsEmpty)
{
    EXPECT_TRUE(pipeline
                    .forwardBatch({}, QuantMode::WeightsAndActivations)
                    .empty());
}

} // anonymous namespace
} // namespace mokey
