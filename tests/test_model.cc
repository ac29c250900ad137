/**
 * @file
 * Tests for the transformer substrate: geometry, forward pass,
 * profiler, quantized pipeline, synthetic tasks, workload extraction.
 */

#include <cmath>
#include <type_traits>
#include <gtest/gtest.h>

#include "model/config.hh"
#include "model/pipeline.hh"
#include "model/profiler.hh"
#include "model/tasks.hh"
#include "model/transformer.hh"
#include "model/workload.hh"
#include "tensor/ops.hh"

namespace mokey
{
namespace
{

// The evaluator keeps a reference to the model, so binding a
// temporary must not compile.
static_assert(std::is_constructible_v<TaskEvaluator, const Transformer &,
                                      TaskKind>);
static_assert(!std::is_constructible_v<TaskEvaluator, Transformer &&,
                                       TaskKind>);

TEST(ModelConfig, PublishedParameterCounts)
{
    // Table in §IV-A: BERT-Base 110M, BERT-Large 340M,
    // RoBERTa-Large 340M class, DeBERTa-XL ~750M.
    EXPECT_NEAR(static_cast<double>(bertBase().totalParams()),
                110e6, 8e6);
    EXPECT_NEAR(static_cast<double>(bertLarge().totalParams()),
                340e6, 20e6);
    EXPECT_NEAR(static_cast<double>(robertaLarge().totalParams()),
                355e6, 25e6);
    EXPECT_NEAR(static_cast<double>(debertaXl().totalParams()),
                750e6, 80e6);
}

TEST(ModelConfig, Fig1ActivationCrossover)
{
    // Fig. 1: activations overtake weights between 512 and 1024
    // tokens for BERT-Large at FP16.
    const auto cfg = bertLarge();
    const size_t wb = cfg.weightBytes(16);
    EXPECT_LT(cfg.activationBytes(256, 16), wb);
    EXPECT_GT(cfg.activationBytes(1024, 16), wb);
}

TEST(ModelConfig, ActivationsQuadraticInSeq)
{
    const auto cfg = bertLarge();
    const double a1 =
        static_cast<double>(cfg.activationBytes(512, 16));
    const double a2 =
        static_cast<double>(cfg.activationBytes(2048, 16));
    // 4x sequence: more than 4x activations (quadratic term), less
    // than 16x (linear terms damp it).
    EXPECT_GT(a2 / a1, 4.0);
    EXPECT_LT(a2 / a1, 16.0);
}

TEST(ModelConfig, ReducedKeepsDivisibility)
{
    for (const auto &cfg : {bertBase(), bertLarge(), debertaXl()}) {
        const auto r = reduced(cfg);
        EXPECT_EQ(r.hidden % r.heads, 0u);
        EXPECT_LE(r.layers, 4u);
        EXPECT_EQ(r.ffn, 4 * r.hidden);
    }
}

ModelConfig
tinyConfig()
{
    return ModelConfig{"tiny", 2, 32, 2, 128, 256};
}

TEST(Transformer, ForwardShapeAndDeterminism)
{
    const Transformer m(tinyConfig(), 11);
    const Tensor in = m.makeInput(16, 5);
    const Tensor out1 = m.forward(in);
    const Tensor out2 = m.forward(in);
    EXPECT_EQ(out1.rows(), 16u);
    EXPECT_EQ(out1.cols(), 32u);
    EXPECT_DOUBLE_EQ(maxAbsDiff(out1, out2), 0.0);
}

TEST(Transformer, OutputIsLayerNormed)
{
    const Transformer m(tinyConfig(), 13);
    const Tensor out = m.forward(m.makeInput(8, 7));
    for (size_t r = 0; r < out.rows(); ++r) {
        double mean = 0.0;
        for (size_t c = 0; c < out.cols(); ++c)
            mean += out.at(r, c);
        EXPECT_NEAR(mean / 32.0, 0.0, 1e-4);
    }
}

TEST(Transformer, DifferentSeedsDifferentWeights)
{
    const Transformer a(tinyConfig(), 1), b(tinyConfig(), 2);
    EXPECT_GT(maxAbsDiff(a.weights()[0].wq, b.weights()[0].wq), 0.0);
}

TEST(Transformer, HookSeesAllGemmInputs)
{
    const Transformer m(tinyConfig(), 17);
    std::map<std::string, int> seen;
    m.forward(m.makeInput(8, 3), [&](const TensorId &id,
                                     const Tensor &) {
        ++seen[id.str()];
    });
    for (size_t l = 0; l < 2; ++l) {
        const std::string p = "L" + std::to_string(l) + ".";
        EXPECT_EQ(seen[p + "x"], 1);
        EXPECT_EQ(seen[p + "q"], 1);
        EXPECT_EQ(seen[p + "k"], 1);
        EXPECT_EQ(seen[p + "v"], 1);
        EXPECT_EQ(seen[p + "p"], 2); // one per head
        EXPECT_EQ(seen[p + "ctx"], 1);
        EXPECT_EQ(seen[p + "mid_in"], 1);
        EXPECT_EQ(seen[p + "mid"], 1);
    }
}

TEST(Profiler, ReservoirBounded)
{
    ActivationProfile p(100);
    Tensor big(50, 50);
    for (size_t i = 0; i < big.size(); ++i)
        big.raw()[i] = static_cast<float>(i);
    p.observe(big);
    EXPECT_EQ(p.samples().size(), 100u);
    EXPECT_EQ(p.observed(), 2500u);
}

TEST(Profiler, CollectsAllIds)
{
    const Transformer m(tinyConfig(), 19);
    ModelProfiler prof;
    prof.run(m, {m.makeInput(8, 1), m.makeInput(8, 2)});
    EXPECT_EQ(prof.ids().size(), 2u * 8u); // 8 ids per layer
    EXPECT_TRUE(prof.has({0, "x"}));
    EXPECT_TRUE(prof.has({1, "mid"}));
    EXPECT_FALSE(prof.has({5, "x"}));
    EXPECT_FALSE(prof.samples({0, "p"}).empty());
}

class PipelineFixture : public ::testing::Test
{
  protected:
    PipelineFixture()
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

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(PipelineFixture, Ready)
{
    EXPECT_TRUE(pipeline.ready());
}

TEST_F(PipelineFixture, WeightOutlierFractionInPaperBand)
{
    // Paper Table I: 1.2 - 1.6 % weight outliers. Synthetic weights
    // use a 1.5 % tail component; allow a generous band.
    const double f = pipeline.weightOutlierFraction();
    EXPECT_GT(f, 0.002);
    EXPECT_LT(f, 0.06);
}

TEST_F(PipelineFixture, WeightOnlyForwardTracksFloat)
{
    const Tensor in = model.makeInput(16, 999);
    const Tensor ref = model.forward(in);
    const Tensor wq = pipeline.forward(in, QuantMode::WeightsOnly);
    // Per-element drift after two layer-normed encoder layers stays
    // well below the activation scale (which is ~1 after LN).
    EXPECT_LT(meanAbsDiff(wq, ref), 0.35);
}

TEST_F(PipelineFixture, FullQuantizedForwardTracksFloat)
{
    const Tensor in = model.makeInput(16, 998);
    const Tensor ref = model.forward(in);
    const Tensor fq =
        pipeline.forward(in, QuantMode::WeightsAndActivations);
    EXPECT_LT(meanAbsDiff(fq, ref), 0.6);
    // And it must have routed a plausible outlier-pair fraction
    // through the OPP, not everything.
    EXPECT_LT(pipeline.matmulStats().outlierPairFraction(), 0.25);
}

TEST_F(PipelineFixture, ActivationOutlierFractionTracked)
{
    const Tensor in = model.makeInput(16, 997);
    pipeline.forward(in, QuantMode::WeightsAndActivations);
    const double f = pipeline.activationOutlierFraction();
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 0.15);
}

TEST(TaskMetrics, SpearmanPerfectAndInverted)
{
    const std::vector<double> a{1, 2, 3, 4, 5};
    const std::vector<double> b{10, 20, 30, 40, 50};
    std::vector<double> c(b.rbegin(), b.rend());
    EXPECT_DOUBLE_EQ(spearman(a, b), 1.0);
    EXPECT_DOUBLE_EQ(spearman(a, c), -1.0);
}

TEST(TaskMetrics, SpanF1Cases)
{
    EXPECT_DOUBLE_EQ(spanF1({2, 5}, {2, 5}), 1.0);
    EXPECT_DOUBLE_EQ(spanF1({0, 1}, {4, 6}), 0.0);
    // Half overlap: pred {0,3}, gold {2,5}: overlap 2, p=0.5, r=0.5.
    EXPECT_DOUBLE_EQ(spanF1({0, 3}, {2, 5}), 0.5);
}

TEST(TaskEvaluator, ReferenceScoreInPublishedBand)
{
    const Transformer m(tinyConfig(), 29);
    const TaskEvaluator task(m, TaskKind::Classification, 80, 16);
    const double score = task.evaluateReference();
    // With 15 % label noise the self-consistent score is ~90 %
    // (85 % kept + 1/3 of the noisy third matching by chance).
    EXPECT_GT(score, 80.0);
    EXPECT_LE(score, 95.0);
}

TEST(TaskEvaluator, DeterministicBenchmark)
{
    const Transformer m(tinyConfig(), 29);
    const TaskEvaluator t1(m, TaskKind::Classification, 40, 16);
    const TaskEvaluator t2(m, TaskKind::Classification, 40, 16);
    EXPECT_DOUBLE_EQ(t1.evaluateReference(), t2.evaluateReference());
}

TEST(TaskEvaluator, RegressionAndSpanScoresSane)
{
    const Transformer m(tinyConfig(), 31);
    const TaskEvaluator reg(m, TaskKind::Regression, 60, 16);
    const double sp = reg.evaluateReference();
    EXPECT_GT(sp, 70.0); // noisy targets still strongly correlated
    EXPECT_LE(sp, 100.0);

    const TaskEvaluator span(m, TaskKind::Span, 60, 16);
    const double f1 = span.evaluateReference();
    EXPECT_GT(f1, 70.0);
    EXPECT_LE(f1, 100.0);
}

TEST(TaskEvaluator, QuantizedWithinPaperErrBand)
{
    // The Table I claim: Mokey stays within ~1 % of the FP score.
    // The tiny synthetic model is harsher than BERT, so accept a
    // few percent.
    const Transformer m(tinyConfig(), 37);
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer qz(exp);
    QuantizedTransformer pipe(m, qz);
    pipe.quantizeWeights();
    std::vector<Tensor> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(m.makeInput(16, 300 + i));
    pipe.profileActivations(batch);

    const TaskEvaluator task(m, TaskKind::Classification, 60, 16);
    const double fp = task.evaluateReference();
    const double q = task.evaluate([&](const Tensor &in) {
        return pipe.forward(in, QuantMode::WeightsAndActivations);
    });
    EXPECT_NEAR(q, fp, 10.0);
}

TEST(Workload, BertBaseMacCount)
{
    // BERT-Base at seq 128 is ~11.2 G MACs.
    const auto w = modelWorkload(bertBase(), 128);
    EXPECT_NEAR(static_cast<double>(w.totalMacs()), 11.2e9, 0.6e9);
}

TEST(Workload, BertLargeSquadMacCount)
{
    // BERT-Large at seq 384 is ~123 G MACs (Table III compute
    // cycles x 2048 lanes).
    const auto w = modelWorkload(bertLarge(), 384);
    EXPECT_NEAR(static_cast<double>(w.totalMacs()), 123e9, 8e9);
}

TEST(Workload, OpCountsAndRoles)
{
    const auto cfg = bertBase();
    const auto w = modelWorkload(cfg, 128);
    EXPECT_EQ(w.ops.size(), cfg.layers * 8);
    size_t act_gemms = 0;
    for (const auto &op : w.ops)
        act_gemms += op.weightStatic ? 0 : 1;
    EXPECT_EQ(act_gemms, cfg.layers * 2); // scores + pv per layer
}

TEST(Workload, WeightValuesMatchGeometry)
{
    const auto cfg = bertBase();
    const auto w = modelWorkload(cfg, 128);
    // 4 HxH + 2 Hx4H per layer.
    const uint64_t expect = cfg.layers *
        (4ull * cfg.hidden * cfg.hidden +
         2ull * cfg.hidden * cfg.ffn);
    EXPECT_EQ(w.weightValues(), expect);
}

TEST(Workload, ActivationValuesGrowWithSeq)
{
    const auto cfg = bertBase();
    const auto w128 = modelWorkload(cfg, 128);
    const auto w512 = modelWorkload(cfg, 512);
    EXPECT_GT(w512.activationValues(),
              4 * w128.activationValues());
}

} // anonymous namespace
} // namespace mokey
