/**
 * @file
 * Frozen layer-at-a-time replica of the fully quantized forward pass:
 * the walk QuantizedTransformer ran before plane-to-plane graph
 * fusion. Every GEMM goes through indexMatmulTransB() (which re-folds
 * its row/column terms per call) into a float tensor, and each
 * epilogue and re-quantization is a separate pass over that tensor.
 *
 * Built from public library calls only, so it stays an independent
 * comparand: the graph-fusion and serving tests pin the fused
 * forward / forwardBatch / forwardStep and the activation counters
 * against it bit for bit, and bench_layer_fusion times the fused walk
 * against it.
 */

#ifndef MOKEY_TESTS_REFERENCE_LAYER_AT_A_TIME_HH
#define MOKEY_TESTS_REFERENCE_LAYER_AT_A_TIME_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.hh"
#include "model/pipeline.hh"
#include "quant/engine.hh"
#include "quant/index_matmul.hh"
#include "tensor/ops.hh"

namespace mokey::reference
{

class LayerAtATime
{
  public:
    /**
     * Quantize @p model's weights the way quantizeWeights() does and
     * borrow @p pipe's profiled activation dictionaries. All three
     * are kept by reference and must outlive the replica; @p cfg must
     * be the pipeline's dictionary config.
     */
    LayerAtATime(const Transformer &model, const Quantizer &quantizer,
                 const QuantizedTransformer &pipe,
                 const TensorDictConfig &cfg = {})
        : model(model), quantizer(quantizer), pipe(pipe)
    {
        for (const EncoderWeights &w : model.weights()) {
            Layer &ql = layers.emplace_back();
            const auto quantize = [&](const Tensor &src,
                                      QuantizedTensor &dst) {
                dst = quantizer.encode(
                    src, quantizer.buildDictionary(src, cfg));
                dst.pinPlanes(weightPlaneSet(indexEngine(),
                                             dst.rows(), dst.cols()));
            };
            quantize(w.wq, ql.wq);
            quantize(w.wk, ql.wk);
            quantize(w.wv, ql.wv);
            quantize(w.wo, ql.wo);
            quantize(w.w1, ql.w1);
            quantize(w.w2, ql.w2);
        }
    }

    LayerAtATime(const Transformer &&, const Quantizer &,
                 const QuantizedTransformer &,
                 const TensorDictConfig & = {}) = delete;
    LayerAtATime(const Transformer &, const Quantizer &&,
                 const QuantizedTransformer &,
                 const TensorDictConfig & = {}) = delete;

    /** Fully quantized forward of one sequence. */
    Tensor
    forward(const Tensor &input, Lane lane = {}) const
    {
        return forwardStacked(input, {0, input.rows()}, lane);
    }

    /** Fully quantized forward of a ragged batch, stacked. */
    std::vector<Tensor>
    forwardBatch(const std::vector<Tensor> &inputs, Lane lane = {}) const
    {
        return mapStackedBatch(
            inputs, [&](const Tensor &stacked,
                        const std::vector<size_t> &starts) {
                return forwardStacked(stacked, starts, lane);
            });
    }

    /** Every layer over stacked rows delimited by @p starts. */
    Tensor
    forwardStacked(const Tensor &input, const std::vector<size_t> &starts,
                   Lane lane = {}) const
    {
        Tensor x = input;
        for (size_t l = 0; l < layers.size(); ++l)
            x = layer(l, x, starts, lane);
        return x;
    }

    /** One quantized encoder layer over stacked rows. */
    Tensor
    layer(size_t l, const Tensor &input, const std::vector<size_t> &starts,
          Lane lane = {}) const
    {
        const ModelConfig &cfg = model.config();
        const EncoderWeights &w = model.weights()[l];
        const Layer &ql = layers[l];
        const size_t total = input.rows();
        const size_t hd = cfg.headDim();
        const size_t batch = starts.size() - 1;

        // wq stands in for wk/wv as the Auto partner: all three share
        // shape and pinned plane set.
        const QuantizedTensor qx =
            encodeAct(dict(l, "x"), input, &ql.wq, lane);
        Tensor q = indexMatmulTransB(qx, ql.wq, &mmStats, lane);
        Tensor k = indexMatmulTransB(qx, ql.wk, &mmStats, lane);
        Tensor v = indexMatmulTransB(qx, ql.wv, &mmStats, lane);
        addBias(q, w.bq);
        addBias(k, w.bk);
        addBias(v, w.bv);

        const TensorDictionary &dq = dict(l, "q");
        const TensorDictionary &dk = dict(l, "k");
        const TensorDictionary &dv = dict(l, "v");
        const TensorDictionary &dp = dict(l, "p");
        Tensor ctx(total, cfg.hidden);
        const auto inv_sqrt =
            static_cast<float>(1.0 / std::sqrt(static_cast<double>(hd)));
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
            Tensor scores = indexMatmulTransB(
                encodeAct(dq, qh, nullptr, lane),
                encodeAct(dk, kh, nullptr, lane), &mmStats, lane);
            scale(scores, inv_sqrt);
            softmaxRows(scores);
            const Tensor out = indexMatmulTransB(
                encodeAct(dp, scores, nullptr, lane),
                encodeAct(dv, vht, nullptr, lane), &mmStats, lane);
            for (size_t r = 0; r < seq; ++r)
                for (size_t c = 0; c < hd; ++c)
                    ctx.at(r0 + r, h * hd + c) = out.at(r, c);
        });

        Tensor attn = indexMatmulTransB(
            encodeAct(dict(l, "ctx"), ctx, &ql.wo, lane), ql.wo,
            &mmStats, lane);
        addBias(attn, w.bo);
        Tensor res1 = add(attn, input);
        layerNormRows(res1);

        Tensor mid = indexMatmulTransB(
            encodeAct(dict(l, "mid_in"), res1, &ql.w1, lane), ql.w1,
            &mmStats, lane);
        addBias(mid, w.b1);
        gelu(mid);
        Tensor out = indexMatmulTransB(
            encodeAct(dict(l, "mid"), mid, &ql.w2, lane), ql.w2,
            &mmStats, lane);
        addBias(out, w.b2);
        Tensor res2 = add(out, res1);
        layerNormRows(res2);
        return res2;
    }

    /** Outlier fraction over every activation this replica encoded,
     *  computed as QuantizedTransformer::activationOutlierFraction(). */
    double
    activationOutlierFraction() const
    {
        const uint64_t total = totalCodes.load();
        return total ? static_cast<double>(outlierCodes.load()) /
                static_cast<double>(total)
                     : 0.0;
    }

    /** Pair-routing counters of every GEMM this replica ran. */
    const IndexMatmulStats &matmulStats() const { return mmStats; }

  private:
    struct Layer
    {
        QuantizedTensor wq, wk, wv, wo, w1, w2;
    };

    const TensorDictionary &
    dict(size_t l, const char *name) const
    {
        return pipe.activationDict({l, name});
    }

    /**
     * Encode straight into the planes the consuming GEMM will stream.
     * Under Auto the engine is resolved from the same inputs
     * resolveIndexEngine() sees at GEMM time: the shape and
     * @p partner's (the weight's) plane residency, or byte planes for
     * activation x activation GEMMs, whose sides both start cold.
     */
    QuantizedTensor
    encodeAct(const TensorDictionary &d, const Tensor &t,
              const QuantizedTensor *partner, Lane lane) const
    {
        IndexEngine engine = indexEngine();
        if (engine == IndexEngine::Auto)
            engine = partner
                ? autoEngineChoice(t.rows(), partner->rows(), t.cols(),
                                   partner->planesFootprint())
                : IndexEngine::Count;
        QuantizedTensor q =
            quantizer.encodeToPlanes(t, d, enginePlaneSet(engine), lane);
        outlierCodes.fetch_add(q.planesFootprint().outlierEntries);
        totalCodes.fetch_add(q.size());
        return q;
    }

    const Transformer &model;
    const Quantizer &quantizer;
    const QuantizedTransformer &pipe;
    std::vector<Layer> layers;
    mutable IndexMatmulStats mmStats;
    mutable std::atomic<uint64_t> outlierCodes{0};
    mutable std::atomic<uint64_t> totalCodes{0};
};

} // namespace mokey::reference

#endif // MOKEY_TESTS_REFERENCE_LAYER_AT_A_TIME_HH
