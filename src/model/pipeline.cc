#include "model/pipeline.hh"

#include <atomic>
#include <cmath>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "tensor/ops.hh"

namespace mokey
{

QuantizedTransformer::QuantizedTransformer(const Transformer &m,
                                           const Quantizer &q,
                                           const TensorDictConfig &cfg)
    : model(m), quantizer(q), dictCfg(cfg)
{
}

void
QuantizedTransformer::quantizeWeights()
{
    const size_t n_layers = model.config().layers;
    layers.assign(n_layers, QuantizedLayer{});
    dequantized = std::make_unique<Transformer>(model);

    // Every (layer, matrix) pair is independent — dictionary build,
    // encode, and decode all fan out across the pool.
    struct Job
    {
        const Tensor *src;
        QuantizedTensor *dst;
        Tensor *deq; ///< decoded copy for the weight-only model
    };
    std::vector<Job> jobs;
    jobs.reserve(n_layers * 6);
    for (size_t l = 0; l < n_layers; ++l) {
        const EncoderWeights &w = model.weights()[l];
        QuantizedLayer &ql = layers[l];
        EncoderWeights &dw = dequantized->weights()[l];
        jobs.push_back({&w.wq, &ql.wq, &dw.wq});
        jobs.push_back({&w.wk, &ql.wk, &dw.wk});
        jobs.push_back({&w.wv, &ql.wv, &dw.wv});
        jobs.push_back({&w.wo, &ql.wo, &dw.wo});
        jobs.push_back({&w.w1, &ql.w1, &dw.w1});
        jobs.push_back({&w.w2, &ql.w2, &dw.w2});
    }
    parallelFor(0, jobs.size(), 1, [&](size_t i) {
        const Job &job = jobs[i];
        const auto dict = quantizer.buildDictionary(*job.src, dictCfg);
        *job.dst = quantizer.encode(*job.src, dict);
        *job.deq = job.dst->decode();
        // Weights are read-only from here and every forward GEMM
        // streams their planes: derive and pin them now so no lane
        // pays the first-use build (or its single-flight lock) on
        // the serving path. Pin exactly the plane set the active
        // engine streams — 2 B/element for the counting engine, 8
        // for mag; under Auto, per weight by size (the residency
        // the per-GEMM heuristic then reads back); a later engine
        // switch upgrades on first use.
        job.dst->pinPlanes(weightPlaneSet(
            indexEngine(), job.dst->rows(), job.dst->cols()));
    });
    rebuildGraphPlan();
}

void
QuantizedTransformer::profileActivations(
    const std::vector<Tensor> &batch)
{
    ModelProfiler profiler;
    profiler.run(model, batch);
    actDicts.clear();
    for (const auto &id : profiler.ids()) {
        // ids() returns the "L<layer>.<name>" keys run() created.
        const auto dot = id.find('.');
        MOKEY_ASSERT(dot != std::string::npos && id[0] == 'L',
                     "malformed tensor id '%s'", id.c_str());
        const TensorId tid{
            static_cast<size_t>(std::stoul(id.substr(1, dot - 1))),
            id.substr(dot + 1)};
        actDicts.emplace(
            id,
            quantizer.buildDictionaryFromSamples(profiler.samples(tid),
                                                 dictCfg));
    }
    rebuildGraphPlan();
}

void
QuantizedTransformer::rebuildGraphPlan()
{
    graphPlan.reset();
    if (!ready())
        return;

    // Everything below is constant for the served model: dictionary
    // pointers (map entries are address-stable), the per-site GEMM
    // constants (dictionary products, scales, means), bias pointers,
    // and the attention epilogue scale. Hoisted once here so the
    // fused walk never re-derives them per call.
    auto plan = std::make_unique<GraphPlan>();
    const ModelConfig &cfg = model.config();
    for (size_t l = 0; l < cfg.layers; ++l) {
        LayerPlan &lp = plan->layers.emplace_back();
        lp.dx = &activationDict({l, "x"});
        lp.dq = &activationDict({l, "q"});
        lp.dk = &activationDict({l, "k"});
        lp.dv = &activationDict({l, "v"});
        lp.dp = &activationDict({l, "p"});
        lp.dctx = &activationDict({l, "ctx"});
        lp.dmidIn = &activationDict({l, "mid_in"});
        lp.dmid = &activationDict({l, "mid"});
        lp.invSqrtHd = static_cast<float>(
            1.0 / std::sqrt(static_cast<double>(cfg.headDim())));

        const EncoderWeights &w = model.weights()[l];
        const QuantizedLayer &ql = layers[l];
        const auto set = [](SitePlan &s, const QuantizedTensor &wt,
                            const std::vector<float> &b,
                            const TensorDictionary &act_dict) {
            s.weight = &wt;
            s.bias = &b;
            s.constants =
                gemmConstants(act_dict, wt.dictionary(), wt.cols());
        };
        set(lp.sites[kSiteWq], ql.wq, w.bq, *lp.dx);
        set(lp.sites[kSiteWk], ql.wk, w.bk, *lp.dx);
        set(lp.sites[kSiteWv], ql.wv, w.bv, *lp.dx);
        set(lp.sites[kSiteWo], ql.wo, w.bo, *lp.dctx);
        set(lp.sites[kSiteW1], ql.w1, w.b1, *lp.dmidIn);
        set(lp.sites[kSiteW2], ql.w2, w.b2, *lp.dmid);
    }
    graphPlan = std::move(plan);
}

bool
QuantizedTransformer::ready() const
{
    return !layers.empty() && !actDicts.empty();
}

const TensorDictionary &
QuantizedTransformer::activationDict(const TensorId &id) const
{
    const auto it = actDicts.find(id.str());
    if (it == actDicts.end())
        fatal("no activation dictionary for %s", id.str().c_str());
    return it->second;
}

QuantizedTensor
QuantizedTransformer::encodeAct(const TensorDictionary &dict,
                                const Tensor &t, IndexEngine e,
                                Lane lane) const
{
    QuantizedTensor q =
        quantizer.encodeToPlanes(t, dict, enginePlaneSet(e), lane);
    countAct(q);
    return q;
}

void
QuantizedTransformer::countAct(const QuantizedTensor &q) const
{
    // Outlier-rate counters straight from the sidecar — planes-first
    // tensors have no code array to walk. Attention jobs of
    // concurrent batched forwards all feed these two counters.
    actOtCodes.fetch_add(q.planesFootprint().outlierEntries,
                         std::memory_order_relaxed);
    actTotalCodes.fetch_add(q.size(), std::memory_order_relaxed);
}

IndexEngine
QuantizedTransformer::siteEngine(const SitePlan &site,
                                 size_t aRows) const
{
    const IndexEngine e = indexEngine();
    if (e != IndexEngine::Auto)
        return e;
    // The pure decision table, with the inputs resolveIndexEngine()
    // reads for a GEMM of this shape.
    return autoEngineChoice(aRows, site.weight->rows(),
                            site.constants.k,
                            site.weight->planesFootprint());
}

FusedGemmOut
QuantizedTransformer::runSite(const SitePlan &site,
                              const QuantizedTensor &act,
                              IndexEngine e, const FusedRowEpilogue &epi,
                              const TensorDictionary *outDict,
                              PlaneSet outSets, bool keepDense,
                              Lane lane) const
{
    // The engine-dispatch fault seam. Sits on the caller's thread,
    // before any parallelFor fan-out, so an injected throw unwinds to
    // the scheduler instead of a worker.
    faultPoint(FaultSite::EngineDispatch);
    return indexMatmulTransBFused(act, *site.weight, e, epi, outDict,
                                  outSets, keepDense, &site.constants,
                                  &mmStats, lane);
}

Tensor
QuantizedTransformer::fusedLayerStep(
    size_t l, const Tensor &x, QuantizedTensor &qx, bool haveQx,
    bool emitNext, const std::vector<size_t> &starts, Lane lane) const
{
    const GraphPlan &plan = *graphPlan;
    const ModelConfig &cfg = model.config();
    const size_t total = x.rows();
    const size_t hd = cfg.headDim();
    const size_t batch = starts.size() - 1;
    const LayerPlan &lp = plan.layers[l];
    const SitePlan &sq = lp.sites[kSiteWq];
    const SitePlan &sk = lp.sites[kSiteWk];
    const SitePlan &sv = lp.sites[kSiteWv];
    const SitePlan &so = lp.sites[kSiteWo];
    const SitePlan &s1 = lp.sites[kSiteW1];
    const SitePlan &s2 = lp.sites[kSiteW2];

    const IndexEngine eq = siteEngine(sq, total);
    if (!haveQx) {
        // Whole-graph entry (layer 0) and every step-wise call:
        // encode the float rows as this layer's x planes. On the
        // whole-graph path later layers receive their planes from
        // the previous w2 GEMM instead; both routes produce the
        // same bits (the fused-emission contract).
        qx = encodeAct(*lp.dx, x, eq, lane);
    }

    // QKV: heads are gathered in float, so these three fuse the
    // bias epilogue and read the hoisted constants/fold sums but
    // keep dense outputs.
    const auto bias_epi = [](const SitePlan &s) {
        return FusedRowEpilogue(
            [&s](size_t, float *vals, size_t n) {
                addBiasRow(vals, s.bias->data(), n);
            });
    };
    FusedGemmOut qo = runSite(sq, qx, eq, bias_epi(sq), nullptr,
                              PlaneSet::Bytes, true, lane);
    FusedGemmOut ko = runSite(sk, qx, siteEngine(sk, total),
                              bias_epi(sk), nullptr, PlaneSet::Bytes,
                              true, lane);
    FusedGemmOut vo = runSite(sv, qx, siteEngine(sv, total),
                              bias_epi(sv), nullptr, PlaneSet::Bytes,
                              true, lane);
    const Tensor &q = qo.dense;
    const Tensor &k = ko.dense;
    const Tensor &v = vo.dense;

    // Attention, one job per (sequence, head): it never crosses a
    // sequence boundary, and every job writes a disjoint block of
    // ctx. The score GEMM fuses scale + softmax + the probability
    // re-quantization into its row pass, so the score matrix
    // never exists as a standalone float tensor. act x act GEMMs
    // have K = seq, so no hoisted constants; under Auto both
    // sides start cold and encode to byte planes.
    Tensor ctx(total, cfg.hidden);
    const float inv_sqrt = lp.invSqrtHd;
    const IndexEngine ep = indexEngine() == IndexEngine::Auto
        ? IndexEngine::Count
        : indexEngine();
    parallelFor(lane, 0, batch * cfg.heads, 1, [&](size_t job) {
        const size_t b = job / cfg.heads;
        const size_t h = job % cfg.heads;
        const size_t r0 = starts[b];
        const size_t seq = starts[b + 1] - r0;
        Tensor qh(seq, hd), kh(seq, hd), vht(hd, seq);
        for (size_t r = 0; r < seq; ++r) {
            for (size_t c = 0; c < hd; ++c) {
                qh.at(r, c) = q.at(r0 + r, h * hd + c);
                kh.at(r, c) = k.at(r0 + r, h * hd + c);
                vht.at(c, r) = v.at(r0 + r, h * hd + c);
            }
        }
        const QuantizedTensor qqh = encodeAct(*lp.dq, qh, ep, lane);
        const QuantizedTensor qkh = encodeAct(*lp.dk, kh, ep, lane);
        FusedGemmOut sc = indexMatmulTransBFused(
            qqh, qkh, resolveIndexEngine(qqh, qkh),
            [inv_sqrt](size_t, float *vals, size_t n) {
                scaleRow(vals, n, inv_sqrt);
                softmaxRow(vals, n);
            },
            lp.dp, enginePlaneSet(ep), false, nullptr, &mmStats,
            lane);
        countAct(sc.planes);
        const QuantizedTensor qvht =
            encodeAct(*lp.dv, vht, ep, lane);
        const FusedGemmOut out = indexMatmulTransBFused(
            sc.planes, qvht, resolveIndexEngine(sc.planes, qvht),
            nullptr, nullptr, PlaneSet::Bytes, true, nullptr,
            &mmStats, lane);
        for (size_t r = 0; r < seq; ++r)
            for (size_t c = 0; c < hd; ++c)
                ctx.at(r0 + r, h * hd + c) = out.dense.at(r, c);
    });

    // wo: bias + residual + layer-norm fused, output emitted
    // straight as the w1 GEMM's mid_in planes (and kept dense
    // for the second residual).
    const IndexEngine ewo = siteEngine(so, total);
    const QuantizedTensor qctx = encodeAct(*lp.dctx, ctx, ewo, lane);
    const IndexEngine ew1 = siteEngine(s1, total);
    const Tensor &res_in = x;
    FusedGemmOut r1 = runSite(
        so, qctx, ewo,
        [&so, &res_in](size_t i, float *vals, size_t n) {
            addBiasRow(vals, so.bias->data(), n);
            addRow(vals, vals, res_in.row(i), n);
            layerNormRow(vals, n);
        },
        lp.dmidIn, enginePlaneSet(ew1), true, lane);
    countAct(r1.planes);

    // w1: bias + GELU fused, planes-only output — the mid float
    // tensor is gone entirely on this path.
    const IndexEngine ew2 = siteEngine(s2, total);
    FusedGemmOut rm = runSite(
        s1, r1.planes, ew1,
        [&s1](size_t, float *vals, size_t n) {
            addBiasRow(vals, s1.bias->data(), n);
            geluRow(vals, n);
        },
        lp.dmid, enginePlaneSet(ew2), false, lane);
    countAct(rm.planes);

    // w2: bias + residual + layer-norm fused; when the caller
    // continues plane-to-plane (whole-graph walk, any layer but
    // the last), the output is also encoded as the next layer's
    // x planes against that layer's dictionary and engine.
    const TensorDictionary *next_dx =
        emitNext ? plan.layers[l + 1].dx : nullptr;
    const IndexEngine enx = emitNext
        ? siteEngine(plan.layers[l + 1].sites[kSiteWq], total)
        : IndexEngine::Count;
    const Tensor &res1 = r1.dense;
    FusedGemmOut r2 = runSite(
        s2, rm.planes, ew2,
        [&s2, &res1](size_t i, float *vals, size_t n) {
            addBiasRow(vals, s2.bias->data(), n);
            addRow(vals, vals, res1.row(i), n);
            layerNormRow(vals, n);
        },
        next_dx, enginePlaneSet(enx), true, lane);
    if (emitNext)
        countAct(r2.planes);
    qx = std::move(r2.planes);
    return std::move(r2.dense);
}

Tensor
QuantizedTransformer::forwardGraphFused(
    const Tensor &input, const std::vector<size_t> &starts,
    Lane lane) const
{
    const ModelConfig &cfg = model.config();
    // The carried state between layers: the float rows (residual
    // input of the next attention block) and the same values already
    // encoded as the next layer's x planes — emitted by the previous
    // layer's w2 fused GEMM, so no float tensor is re-read for
    // quantization between layers.
    Tensor x = input;
    QuantizedTensor qx;
    for (size_t l = 0; l < cfg.layers; ++l)
        x = fusedLayerStep(l, x, qx, /*haveQx=*/l > 0,
                           /*emitNext=*/l + 1 < cfg.layers, starts,
                           lane);
    return x;
}

Tensor
QuantizedTransformer::forwardStep(size_t layer,
                                  const Tensor &stacked,
                                  const std::vector<size_t> &starts,
                                  QuantMode mode, Lane lane) const
{
    MOKEY_ASSERT(!layers.empty(),
                 "quantizeWeights() must run before forwardStep()");
    MOKEY_ASSERT(layer < model.config().layers,
                 "step layer %zu out of range (model has %zu)",
                 layer, model.config().layers);
    MOKEY_ASSERT(!starts.empty() &&
                     starts.back() == stacked.rows(),
                 "starts must delimit the stacked rows");
    faultPoint(FaultSite::StepThrow);
    faultDelayPoint(FaultSite::StepDelay);
    if (mode == QuantMode::WeightsOnly)
        return dequantized->forwardLayerBatch(layer, stacked, starts,
                                              lane);

    MOKEY_ASSERT(!actDicts.empty(),
                 "profileActivations() must run before full "
                 "quantized inference");
    QuantizedTensor qx;
    return fusedLayerStep(layer, stacked, qx, /*haveQx=*/false,
                          /*emitNext=*/false, starts, lane);
}

Tensor
QuantizedTransformer::forward(const Tensor &input, QuantMode mode,
                              Lane lane) const
{
    MOKEY_ASSERT(!layers.empty(),
                 "quantizeWeights() must run before forward()");
    if (mode == QuantMode::WeightsOnly)
        return dequantized->forward(input, nullptr, nullptr, lane);

    MOKEY_ASSERT(!actDicts.empty(),
                 "profileActivations() must run before full "
                 "quantized inference");
    return forwardGraphFused(input, {0, input.rows()}, lane);
}

std::vector<Tensor>
QuantizedTransformer::forwardBatch(const std::vector<Tensor> &inputs,
                                   QuantMode mode, Lane lane) const
{
    MOKEY_ASSERT(!layers.empty(),
                 "quantizeWeights() must run before forwardBatch()");
    if (inputs.empty())
        return {};
    if (mode == QuantMode::WeightsOnly)
        return dequantized->forwardBatch(inputs, lane);

    MOKEY_ASSERT(!actDicts.empty(),
                 "profileActivations() must run before full "
                 "quantized inference");
    return mapStackedBatch(
        inputs,
        [this, lane](const Tensor &stacked,
                     const std::vector<size_t> &starts) {
            return forwardGraphFused(stacked, starts, lane);
        });
}

double
QuantizedTransformer::weightOutlierFraction() const
{
    size_t ot = 0, total = 0;
    for (const auto &ql : layers) {
        for (const QuantizedTensor *t :
             {&ql.wq, &ql.wk, &ql.wv, &ql.wo, &ql.w1, &ql.w2}) {
            for (const QCode c : t->raw())
                ot += c.isOutlier();
            total += t->size();
        }
    }
    return total ? static_cast<double>(ot) /
        static_cast<double>(total) : 0.0;
}

double
QuantizedTransformer::activationOutlierFraction() const
{
    const uint64_t total =
        actTotalCodes.load(std::memory_order_relaxed);
    if (total == 0)
        return 0.0;
    return static_cast<double>(
               actOtCodes.load(std::memory_order_relaxed)) /
        static_cast<double>(total);
}

} // namespace mokey
