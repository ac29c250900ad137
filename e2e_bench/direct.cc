/**
 * @file
 * The direct workloads (closed loop, one sequence at a time, straight
 * calls into QuantizedTransformer::forward and Transformer::forward)
 * and the model-side per-layer probes every traced run shares.
 */

#include <cmath>
#include <cstdio>
#include <optional>

#include "bench.hh"
#include "common/parallel.hh"
#include "quant/engine.hh"
#include "quant/index_matmul.hh"
#include "tensor/ops.hh"

namespace e2e
{

using namespace mokey;

namespace
{

constexpr QuantMode kWA = QuantMode::WeightsAndActivations;

/** W+A forward of one or several sequences (the pipeline's entry
 * point for each: forward() for one, forwardBatch() for several). */
std::vector<Tensor>
forwardWA(const QuantizedTransformer &pipe, const std::vector<Tensor> &seqs)
{
    if (seqs.size() == 1)
        return {pipe.forward(seqs[0], kWA)};
    return pipe.forwardBatch(seqs, kWA);
}

std::vector<Tensor>
forwardFp32(const Transformer &model, const std::vector<Tensor> &seqs)
{
    if (seqs.size() == 1)
        return {model.forward(seqs[0])};
    return model.forwardBatch(seqs);
}

/** The same W+A pass as layer steps, the scheduler's entry point. */
Tensor
forwardSteps(const QuantizedTransformer &pipe, const Tensor &stacked,
             const std::vector<size_t> &starts,
             std::vector<double> &layerMs)
{
    Tensor x = stacked;
    for (size_t l = 0; l < pipe.stepCount(); ++l) {
        const auto a = Clock::now();
        x = pipe.forwardStep(l, x, starts, kWA);
        layerMs.push_back(secondsBetween(a, Clock::now()) * 1e3);
    }
    return x;
}

/** The engine the fused pipeline resolves for a weight site, unless
 * the caller forces one. */
IndexEngine
siteEngine(size_t aRows, const QuantizedTensor &w,
           std::optional<IndexEngine> force)
{
    if (force)
        return *force;
    const IndexEngine e = indexEngine();
    if (e != IndexEngine::Auto)
        return e;
    return autoEngineChoice(aRows, w.rows(), w.cols(),
                            w.planesFootprint());
}

/** One weight site of a layer: quantized weight, bias, constants. */
struct Site
{
    QuantizedTensor w;
    const std::vector<float> *bias = nullptr;
    GemmConstants constants;
};

/** Layer 0's weight sites, quantized the way quantizeWeights() does. */
struct LayerSites
{
    Site q, k, v, o, w1, w2;
};

LayerSites
quantizeLayer(const Served &s, size_t l)
{
    const EncoderWeights &w = s.model->weights()[l];
    const QuantizedTransformer &pipe = *s.pipe;
    LayerSites ls;
    const auto make = [&](Site &site, const Tensor &src,
                          const std::vector<float> &bias,
                          const char *actName) {
        site.w = s.quantizer->encode(src,
                                     s.quantizer->buildDictionary(src));
        site.w.pinPlanes(
            weightPlaneSet(indexEngine(), site.w.rows(), site.w.cols()));
        site.bias = &bias;
        site.constants =
            gemmConstants(pipe.activationDict({l, actName}),
                          site.w.dictionary(), site.w.cols());
    };
    make(ls.q, w.wq, w.bq, "x");
    make(ls.k, w.wk, w.bk, "x");
    make(ls.v, w.wv, w.bv, "x");
    make(ls.o, w.wo, w.bo, "ctx");
    make(ls.w1, w.w1, w.b1, "mid_in");
    make(ls.w2, w.w2, w.b2, "mid");
    return ls;
}

/** Stage spans of one W+A layer step, in ms. */
struct WaStages
{
    double encode = 0, qkv = 0, attn = 0, o = 0, ffn1 = 0, ffn2 = 0;

    double sum() const { return encode + qkv + attn + o + ffn1 + ffn2; }
};

/**
 * Layer @p l of the fused W+A step, stage by stage, through the
 * public quantizer and GEMM entry points: the same calls, in the same
 * order, as QuantizedTransformer::forwardStep. The caller checks the
 * output is bit-identical to forwardStep's, so no stage is missing.
 * @p force runs every weight site on one engine instead.
 */
Tensor
waLayer(const Served &s, const LayerSites &ls, size_t l, const Tensor &x,
        const std::vector<size_t> &starts, IndexMatmulStats &stats,
        WaStages &st, std::optional<IndexEngine> force = std::nullopt)
{
    const QuantizedTransformer &pipe = *s.pipe;
    const ModelConfig &cfg = pipe.modelConfig();
    const size_t total = x.rows(), hd = cfg.headDim();
    const size_t batch = starts.size() - 1;
    const auto dict = [&](const char *n) -> const TensorDictionary & {
        return pipe.activationDict({l, n});
    };
    auto t = Clock::now();
    const auto lap = [&t]() {
        const auto now = Clock::now();
        const double ms = secondsBetween(t, now) * 1e3;
        t = now;
        return ms;
    };
    const auto run = [&](const Site &site, const QuantizedTensor &a,
                         IndexEngine e, const FusedRowEpilogue &epi,
                         const TensorDictionary *outDict, PlaneSet sets,
                         bool dense) {
        return indexMatmulTransBFused(a, site.w, e, epi, outDict, sets,
                                      dense, &site.constants, &stats);
    };
    const auto biasEpi = [](const Site &site) {
        return FusedRowEpilogue([&site](size_t, float *v, size_t n) {
            addBiasRow(v, site.bias->data(), n);
        });
    };

    const IndexEngine eq = siteEngine(total, ls.q.w, force);
    const QuantizedTensor qx =
        s.quantizer->encodeToPlanes(x, dict("x"), enginePlaneSet(eq));
    st.encode += lap();

    const FusedGemmOut qo =
        run(ls.q, qx, eq, biasEpi(ls.q), nullptr, PlaneSet::Bytes, true);
    const FusedGemmOut ko = run(ls.k, qx, siteEngine(total, ls.k.w, force),
                                biasEpi(ls.k), nullptr, PlaneSet::Bytes,
                                true);
    const FusedGemmOut vo = run(ls.v, qx, siteEngine(total, ls.v.w, force),
                                biasEpi(ls.v), nullptr, PlaneSet::Bytes,
                                true);
    st.qkv += lap();

    const Tensor &q = qo.dense, &k = ko.dense, &v = vo.dense;
    Tensor ctx(total, cfg.hidden);
    const float invSqrt = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(hd)));
    const IndexEngine actEngine = indexEngine() == IndexEngine::Auto
        ? IndexEngine::Count
        : indexEngine();
    const PlaneSet actSets = enginePlaneSet(actEngine);
    parallelFor(0, batch * cfg.heads, 1, [&](size_t job) {
        const size_t b = job / cfg.heads, h = job % cfg.heads;
        const size_t r0 = starts[b], seq = starts[b + 1] - r0;
        Tensor qh(seq, hd), kh(seq, hd), vht(hd, seq);
        for (size_t r = 0; r < seq; ++r)
            for (size_t c = 0; c < hd; ++c) {
                qh.at(r, c) = q.at(r0 + r, h * hd + c);
                kh.at(r, c) = k.at(r0 + r, h * hd + c);
                vht.at(c, r) = v.at(r0 + r, h * hd + c);
            }
        const QuantizedTensor qqh =
            s.quantizer->encodeToPlanes(qh, dict("q"), actSets);
        const QuantizedTensor qkh =
            s.quantizer->encodeToPlanes(kh, dict("k"), actSets);
        const FusedGemmOut sc = indexMatmulTransBFused(
            qqh, qkh, resolveIndexEngine(qqh, qkh),
            [invSqrt](size_t, float *vals, size_t n) {
                scaleRow(vals, n, invSqrt);
                softmaxRow(vals, n);
            },
            &dict("p"), actSets, false, nullptr, &stats);
        const QuantizedTensor qvht =
            s.quantizer->encodeToPlanes(vht, dict("v"), actSets);
        const FusedGemmOut out = indexMatmulTransBFused(
            sc.planes, qvht, resolveIndexEngine(sc.planes, qvht), nullptr,
            nullptr, PlaneSet::Bytes, true, nullptr, &stats);
        for (size_t r = 0; r < seq; ++r)
            for (size_t c = 0; c < hd; ++c)
                ctx.at(r0 + r, h * hd + c) = out.dense.at(r, c);
    });
    st.attn += lap();

    const IndexEngine eo = siteEngine(total, ls.o.w, force);
    const QuantizedTensor qctx =
        s.quantizer->encodeToPlanes(ctx, dict("ctx"), enginePlaneSet(eo));
    st.encode += lap();

    const IndexEngine e1 = siteEngine(total, ls.w1.w, force);
    const FusedGemmOut r1 = run(
        ls.o, qctx, eo,
        [&ls, &x](size_t i, float *vals, size_t n) {
            addBiasRow(vals, ls.o.bias->data(), n);
            addRow(vals, vals, x.row(i), n);
            layerNormRow(vals, n);
        },
        &dict("mid_in"), enginePlaneSet(e1), true);
    st.o += lap();

    const IndexEngine e2 = siteEngine(total, ls.w2.w, force);
    const FusedGemmOut rm = run(
        ls.w1, r1.planes, e1,
        [&ls](size_t, float *vals, size_t n) {
            addBiasRow(vals, ls.w1.bias->data(), n);
            geluRow(vals, n);
        },
        &dict("mid"), enginePlaneSet(e2), false);
    st.ffn1 += lap();

    const Tensor &res1 = r1.dense;
    FusedGemmOut r2 = run(
        ls.w2, rm.planes, e2,
        [&ls, &res1](size_t i, float *vals, size_t n) {
            addBiasRow(vals, ls.w2.bias->data(), n);
            addRow(vals, vals, res1.row(i), n);
            layerNormRow(vals, n);
        },
        nullptr, PlaneSet::Bytes, true);
    st.ffn2 += lap();
    return std::move(r2.dense);
}

/** Stage spans of one fp32 layer, in ms. */
struct FpStages
{
    double qkv = 0, o = 0, ffn1 = 0, ffn2 = 0, rowops = 0;
};

/**
 * Layer @p l of Transformer::forwardLayerBatch, timing the GEMM sites
 * and the row operations (layer norm, softmax, GELU). Attention runs
 * one head at a time here so each softmax call is timed on its own.
 */
void
fp32Layer(const Transformer &model, size_t l, const Tensor &x,
          const std::vector<size_t> &starts, FpStages &st)
{
    const EncoderWeights &w = model.weights()[l];
    const ModelConfig &cfg = model.config();
    const size_t hd = cfg.headDim();
    const auto span = [](double &acc, auto &&fn) {
        const auto a = Clock::now();
        fn();
        acc += secondsBetween(a, Clock::now()) * 1e3;
    };
    Tensor q, k, v;
    span(st.qkv, [&] {
        q = matmulTransB(x, w.wq);
        k = matmulTransB(x, w.wk);
        v = matmulTransB(x, w.wv);
    });
    addBias(q, w.bq);
    addBias(k, w.bk);
    addBias(v, w.bv);
    Tensor ctx(x.rows(), cfg.hidden);
    const auto invSqrt = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(hd)));
    for (size_t b = 0; b + 1 < starts.size(); ++b) {
        const size_t r0 = starts[b], seq = starts[b + 1] - r0;
        for (size_t h = 0; h < cfg.heads; ++h) {
            Tensor qh(seq, hd), kh(seq, hd), vh(seq, hd);
            for (size_t r = 0; r < seq; ++r)
                for (size_t c = 0; c < hd; ++c) {
                    qh.at(r, c) = q.at(r0 + r, h * hd + c);
                    kh.at(r, c) = k.at(r0 + r, h * hd + c);
                    vh.at(r, c) = v.at(r0 + r, h * hd + c);
                }
            Tensor scores = matmulTransB(qh, kh);
            scale(scores, invSqrt);
            span(st.rowops, [&] { softmaxRows(scores); });
            const Tensor out = matmul(scores, vh);
            for (size_t r = 0; r < seq; ++r)
                for (size_t c = 0; c < hd; ++c)
                    ctx.at(r0 + r, h * hd + c) = out.at(r, c);
        }
    }
    Tensor attn;
    span(st.o, [&] { attn = matmulTransB(ctx, w.wo); });
    addBias(attn, w.bo);
    Tensor res1 = add(attn, x);
    span(st.rowops, [&] { layerNormRows(res1); });
    Tensor mid;
    span(st.ffn1, [&] { mid = matmulTransB(res1, w.w1); });
    addBias(mid, w.b1);
    span(st.rowops, [&] { gelu(mid); });
    Tensor out;
    span(st.ffn2, [&] { out = matmulTransB(mid, w.w2); });
    addBias(out, w.b2);
    Tensor res2 = add(out, res1);
    span(st.rowops, [&] { layerNormRows(res2); });
}

} // namespace

void
runDirect(const Options &opt, const Served &s, size_t rows, Report &rep)
{
    // Distinct inputs the run cycles through; repeats must reproduce
    // the first output bit for bit.
    const size_t distinct = rows <= kDecodeMaxRows ? 8 : 2;
    std::vector<Tensor> pool, firstOut;
    for (size_t i = 0; i < distinct; ++i)
        pool.push_back(s.model->makeInput(rows, opt.seed * 1000 + 1 + i));

    RelErr rel;
    std::vector<double> waMs, fpMs;
    const double limit =
        rows <= kDecodeMaxRows ? kDecodeLimitMs : kPrefillLimitMs;
    const auto t0 = Clock::now();
    for (size_t i = 0;
         i < pool.size() || secondsBetween(t0, Clock::now()) < opt.seconds;
         ++i) {
        const Tensor &x = pool[i % pool.size()];
        const auto a = Clock::now();
        const Tensor wa = s.pipe->forward(x, kWA);
        const auto b = Clock::now();
        const Tensor fp = s.model->forward(x);
        const auto c = Clock::now();
        waMs.push_back(secondsBetween(a, b) * 1e3);
        fpMs.push_back(secondsBetween(b, c) * 1e3);
        ++rep.attempted;
        if (i < pool.size()) {
            rel.add(wa, fp);
            firstOut.push_back(wa);
        } else if (!sameBits(wa, firstOut[i % pool.size()])) {
            std::printf("# W+A output of input %zu changed between "
                        "repetitions\n",
                        i % pool.size());
            ++rep.failed;
        }
    }
    if (!std::isfinite(rel.value()))
        ++rep.failed;

    double waBusyS = 0;
    size_t good = 0;
    for (double ms : waMs) {
        waBusyS += ms / 1e3;
        good += ms <= limit;
    }
    std::printf("# %zu W+A and %zu fp32 forwards of %zu rows; W+A ms "
                "p10/p50/p90 %.1f/%.1f/%.1f, fp32 %.1f/%.1f/%.1f\n",
                waMs.size(), fpMs.size(), rows, quantile(waMs, 0.1),
                quantile(waMs, 0.5), quantile(waMs, 0.9),
                quantile(fpMs, 0.1), quantile(fpMs, 0.5),
                quantile(fpMs, 0.9));
    const double rowsD = static_cast<double>(rows);
    rep.add("wa_rows_per_s", rowsD / (median(waMs) / 1e3), "rows/s");
    rep.add("fp32_rows_per_s", rowsD / (median(fpMs) / 1e3), "rows/s");
    rep.add("wa_rel_err", rel.value(), "ratio");
    // One request class per direct workload: all three latency
    // metrics read the same W+A calls.
    rep.add("decode_p50_ms", quantile(waMs, 0.5), "ms");
    rep.add("decode_p90_ms", quantile(waMs, 0.9), "ms");
    rep.add("prefill_p50_ms", quantile(waMs, 0.5), "ms");
    rep.add("goodput_rps", static_cast<double>(good) / waBusyS, "req/s");
}

void
layerProbes(const Served &s, const std::vector<Tensor> &seqs,
            double budgetS, Report &rep)
{
    const QuantizedTransformer &pipe = *s.pipe;
    std::vector<size_t> starts;
    const Tensor stacked = stack(seqs, starts);
    const size_t rows = stacked.rows();

    // Whole W+A forwards, their fp32 twins and the same W+A pass as
    // timed layer steps, interleaved so each sees the same cache state.
    const LaneStats lane0 = laneStats(Lane{});
    std::vector<double> waMs, fpMs, stepMs, layerMs;
    const auto t0 = Clock::now();
    do {
        const auto a = Clock::now();
        forwardFp32(*s.model, seqs);
        const auto b = Clock::now();
        const Tensor wa = stack(forwardWA(pipe, seqs), starts);
        const auto c = Clock::now();
        const Tensor traced =
            forwardSteps(pipe, stacked, starts, layerMs);
        const auto d = Clock::now();
        fpMs.push_back(secondsBetween(a, b) * 1e3);
        waMs.push_back(secondsBetween(b, c) * 1e3);
        stepMs.push_back(secondsBetween(c, d) * 1e3);
        ++rep.attempted;
        if (!sameBits(traced, wa)) {
            std::printf("# layer-step pass differs from forward()\n");
            ++rep.failed;
        }
    } while (secondsBetween(t0, Clock::now()) < budgetS);
    const LaneStats lane1 = laneStats(Lane{});

    // Layer 0 stage by stage, checked against forwardStep and timed
    // against it; the difference is what the stages do not cover.
    const LayerSites ls = quantizeLayer(s, 0);
    const auto planes = [](const Site &site) {
        return site.w.planesFootprint().planeBytes;
    };
    const double weightBytes = static_cast<double>(
        planes(ls.q) + planes(ls.k) + planes(ls.v) + planes(ls.o) +
        planes(ls.w1) + planes(ls.w2)) *
        static_cast<double>(pipe.stepCount());
    IndexMatmulStats replicaStats;
    std::vector<WaStages> stages;
    std::vector<FpStages> fpStages;
    std::vector<double> step0Ms;
    const int reps = rows >= 64 ? 3 : 9;
    for (int r = 0; r < reps; ++r) {
        const auto a = Clock::now();
        const Tensor want = pipe.forwardStep(0, stacked, starts, kWA);
        step0Ms.push_back(secondsBetween(a, Clock::now()) * 1e3);
        WaStages st;
        const Tensor got =
            waLayer(s, ls, 0, stacked, starts, replicaStats, st);
        stages.push_back(st);
        ++rep.attempted;
        if (!sameBits(got, want)) {
            std::printf("# staged layer differs from forwardStep()\n");
            ++rep.failed;
        }
        FpStages fst;
        fp32Layer(*s.model, 0, stacked, starts, fst);
        fpStages.push_back(fst);
    }
    const auto med = [](const auto &v, auto field) {
        std::vector<double> xs;
        for (const auto &e : v)
            xs.push_back(e.*field);
        return median(xs);
    };
    std::vector<double> stageSum;
    for (const WaStages &st : stages)
        stageSum.push_back(st.sum());
    const double step0 = median(step0Ms);

    // Weight-site GEMM time of the staged layer with every site
    // forced onto one engine (weight planes built before timing).
    const auto engineMs = [&](IndexEngine e) {
        for (const Site *site : {&ls.q, &ls.k, &ls.v, &ls.o, &ls.w1, &ls.w2})
            site->w.planesShared(enginePlaneSet(e));
        std::vector<double> ms;
        for (int r = 0; r < reps; ++r) {
            WaStages st;
            waLayer(s, ls, 0, stacked, starts, replicaStats, st, e);
            ms.push_back(st.qkv + st.o + st.ffn1 + st.ffn2);
        }
        return median(ms);
    };
    const double magMs = engineMs(IndexEngine::Mag);
    const double countMs = engineMs(IndexEngine::Count);

    const double loops = static_cast<double>(lane1.loops - lane0.loops);
    const double hits = static_cast<double>(gemmConstantsCacheHits());
    const double misses = static_cast<double>(gemmConstantsCacheMisses());
    const double waMed = median(waMs);

    rep.add("tensor.gemm_ms.qkv", med(fpStages, &FpStages::qkv), "ms");
    rep.add("tensor.gemm_ms.o", med(fpStages, &FpStages::o), "ms");
    rep.add("tensor.gemm_ms.ffn1", med(fpStages, &FpStages::ffn1), "ms");
    rep.add("tensor.gemm_ms.ffn2", med(fpStages, &FpStages::ffn2), "ms");
    rep.add("tensor.rowops_ms", med(fpStages, &FpStages::rowops), "ms");
    rep.add("pipeline.layer_ms", median(layerMs), "ms");
    rep.add("pipeline.wa_vs_fp32", median(fpMs) / waMed, "ratio");
    rep.add("pipeline.act_outlier_frac", pipe.activationOutlierFraction(),
            "ratio");
    rep.add("pipeline.weight_outlier_frac", pipe.weightOutlierFraction(),
            "ratio");
    rep.add("quant.encode_ms", med(stages, &WaStages::encode), "ms");
    rep.add("gemm.site_ms.qkv", med(stages, &WaStages::qkv), "ms");
    rep.add("gemm.site_ms.o", med(stages, &WaStages::o), "ms");
    rep.add("gemm.site_ms.ffn1", med(stages, &WaStages::ffn1), "ms");
    rep.add("gemm.site_ms.ffn2", med(stages, &WaStages::ffn2), "ms");
    rep.add("gemm.attn_ms", med(stages, &WaStages::attn), "ms");
    rep.add("gemm.weight_bytes", weightBytes, "B");
    rep.add("gemm.weight_gbps", weightBytes / (waMed / 1e3) / 1e9, "GB/s");
    rep.add("gemm.engine_ms.mag", magMs, "ms");
    rep.add("gemm.engine_ms.count", countMs, "ms");
    rep.add("gemm.outlier_pair_frac",
            pipe.matmulStats().outlierPairFraction(), "ratio");
    rep.add("gemm.const_cache_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.add("parallel.chunks_per_loop",
            loops > 0 ? static_cast<double>(lane1.chunks - lane0.chunks) /
                    loops
                      : 0.0,
            "count");
    rep.add("trace.unaccounted_frac", (step0 - median(stageSum)) / step0,
            "ratio");
    rep.add("trace.overhead_frac", 1.0 - waMed / median(stepMs), "ratio");
    std::printf("# probes at %zu stacked rows: %zu forwards, %zu "
                "layer-step passes, %d staged layers\n",
                rows, waMs.size(), stepMs.size(), reps);
}

} // namespace e2e
