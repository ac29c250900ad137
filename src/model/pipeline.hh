/**
 * @file
 * End-to-end quantized inference (paper §II-G summary flow).
 *
 * The pipeline owns the whole Mokey recipe for one model:
 *   1. quantize weights offline against their own dictionaries;
 *   2. profile activations over a small batch and build their
 *      dictionaries;
 *   3. run inference where every GEMM goes through the index-domain
 *      histogram path, activations are re-quantized on the fly, and
 *      only softmax / layer-norm / GELU stay in the float domain
 *      (exactly the operators the paper leaves to dedicated units).
 *
 * Two quantization modes mirror Table I's two columns: WeightsOnly
 * and WeightsAndActivations.
 */

#ifndef MOKEY_MODEL_PIPELINE_HH
#define MOKEY_MODEL_PIPELINE_HH

#include <atomic>
#include <map>
#include <memory>

#include "model/graph_plan.hh"
#include "model/profiler.hh"
#include "model/transformer.hh"
#include "quant/index_matmul.hh"
#include "quant/quantizer.hh"

namespace mokey
{

/** Which tensor classes are quantized (Table I columns). */
enum class QuantMode
{
    WeightsOnly,
    WeightsAndActivations,
};

/**
 * The fully quantized forward pass is the plane-to-plane fused graph
 * walk: every weight-site GEMM chains its epilogue (bias, residual,
 * norm, GELU, attention scale+softmax) and the next consumer's
 * activation quantization into the GEMM's own row-band walk, and
 * activations are encoded straight into the planes the GEMM streams
 * (Quantizer::encodeToPlanes). There is no other path; these two
 * accessors report that for configuration banners.
 */
inline bool graphFuse() { return true; }

/** See graphFuse(): activation encode is always the fused path. */
inline bool fusedActEncode() { return true; }

/**
 * Aggregate quantization statistics for reporting. The embedded
 * matmul counters are atomic (see IndexMatmulStats), so snapshots
 * taken while batched forwards are in flight are safe.
 */
struct PipelineStats
{
    double weightOutlierFraction = 0.0;
    double activationOutlierFraction = 0.0;
    IndexMatmulStats matmul;
};

/** A Mokey-quantized transformer. */
class QuantizedTransformer
{
  public:
    /**
     * @param model the float reference model (kept by reference;
     *              must outlive the pipeline)
     * @param quantizer shared exponential-dictionary quantizer
     * @param cfg   per-tensor dictionary knobs
     */
    QuantizedTransformer(const Transformer &model,
                         const Quantizer &quantizer,
                         const TensorDictConfig &cfg = {});

    /** The pipeline keeps references to @p model and @p quantizer:
     *  a temporary would dangle as soon as the constructor returned. */
    QuantizedTransformer(const Transformer &&model,
                         const Quantizer &quantizer,
                         const TensorDictConfig &cfg = {}) = delete;
    QuantizedTransformer(const Transformer &model,
                         const Quantizer &&quantizer,
                         const TensorDictConfig &cfg = {}) = delete;

    /** Step 1: encode every weight matrix (offline). */
    void quantizeWeights();

    /** Steps 2-3: profile activations and build their dictionaries. */
    void profileActivations(const std::vector<Tensor> &batch);

    /** True once both weight and activation dictionaries exist. */
    bool ready() const;

    /** Geometry of the wrapped model (serving layers validate
     *  request width against config().hidden before submitting). */
    const ModelConfig &modelConfig() const { return model.config(); }

    /**
     * Quantized forward pass.
     *
     * @param input seq x hidden embedded input
     * @param mode  which tensors are quantized
     * @param lane  executor lane the pass's loops occupy
     */
    Tensor forward(const Tensor &input, QuantMode mode,
                   Lane lane = {}) const;

    /**
     * Batched forward over several (possibly ragged-length)
     * sequences: the fused graph walk runs once over the stacked
     * B x T rows, so every activation encode and weight-site GEMM
     * covers the whole batch in one call, and attention heads of all
     * requests fan out over the pool together. Each output is
     * bit-identical to forward() on that sequence alone. The pass
     * runs on @p lane, so independent micro-batches dispatched on
     * different lanes execute concurrently over one worker set.
     */
    std::vector<Tensor> forwardBatch(const std::vector<Tensor> &inputs,
                                     QuantMode mode,
                                     Lane lane = {}) const;

    /**
     * Number of sequential steps a request needs under the step-wise
     * entry point (= encoder layers; the model is bidirectional, so
     * the indivisible scheduling unit is one layer over a full
     * sequence, not a token).
     */
    size_t stepCount() const { return model.config().layers; }

    /**
     * One iteration of the step-wise forward: apply encoder layer
     * @p layer to a stacked (possibly ragged) batch whose membership
     * may differ from the previous step — the continuous scheduler's
     * entry point, where requests join and leave between steps.
     *
     * Composition contract: chaining forwardStep over layers
     * 0..stepCount()-1, with any re-stacking of co-batched rows
     * between steps, is bit-identical to forward()/forwardBatch() on
     * the same sequences. The step re-encodes the carried float rows
     * against the layer's activation dictionary; the fused GEMM
     * contract (emitted planes == encodeToPlanes of
     * the dense epilogue output) makes that re-encode exact.
     *
     * @param layer  which encoder layer to apply (< stepCount())
     * @param stacked sum-of-seqs x hidden stacked activations (the
     *               original inputs for layer 0, the previous step's
     *               output rows otherwise)
     * @param starts B+1 row offsets delimiting the sequences
     */
    Tensor forwardStep(size_t layer, const Tensor &stacked,
                       const std::vector<size_t> &starts,
                       QuantMode mode, Lane lane = {}) const;

    /** Fraction of weight values that are outliers. */
    double weightOutlierFraction() const;

    /** Mean outlier fraction over profiled activation tensors. */
    double activationOutlierFraction() const;

    /** Matmul statistics accumulated across forward() calls. */
    const IndexMatmulStats &matmulStats() const { return mmStats; }

    /** Activation dictionary for a tensor id (fatal if missing). */
    const TensorDictionary &activationDict(const TensorId &id) const;

  private:
    const Transformer &model;
    const Quantizer &quantizer;
    TensorDictConfig dictCfg;

    struct QuantizedLayer
    {
        QuantizedTensor wq, wk, wv, wo, w1, w2;
    };
    std::vector<QuantizedLayer> layers;
    std::map<std::string, TensorDictionary> actDicts;
    std::unique_ptr<Transformer> dequantized; ///< weight-only model
    mutable IndexMatmulStats mmStats;
    mutable std::atomic<uint64_t> actOtCodes{0};
    mutable std::atomic<uint64_t> actTotalCodes{0};
    /**
     * Hoisted execution plan of the fused forward walk; rebuilt by
     * quantizeWeights()/profileActivations() once both halves exist,
     * so it is non-null whenever ready() holds. Read-only to forward
     * passes: a forward writes only mmStats and the outlier-rate
     * counters above.
     */
    std::unique_ptr<GraphPlan> graphPlan;

    /**
     * Encode an activation against @p dict straight into the planes
     * engine @p e streams (encodeToPlanes), folding it into the
     * outlier-rate counters.
     */
    QuantizedTensor encodeAct(const TensorDictionary &dict,
                              const Tensor &t, IndexEngine e,
                              Lane lane) const;

    /** Fold an encoded activation's outlier sidecar into the
     *  outlier-rate counters. */
    void countAct(const QuantizedTensor &q) const;

    /** Rebuild the fused-path GraphPlan (no-op until ready()). */
    void rebuildGraphPlan();

    /**
     * The engine decision for one weight site: the fixed process
     * engine, or the Auto decision table applied to the site's shape
     * and weight-plane residency.
     */
    IndexEngine siteEngine(const SitePlan &site, size_t aRows) const;

    /** Run one weight site's fused GEMM. */
    FusedGemmOut runSite(const SitePlan &site,
                         const QuantizedTensor &act, IndexEngine e,
                         const FusedRowEpilogue &epi,
                         const TensorDictionary *outDict,
                         PlaneSet outSets, bool keepDense,
                         Lane lane) const;

    /**
     * The plane-to-plane fused pass over all layers: each fused GEMM
     * emits the next GEMM's operand planes directly; the float
     * domain only surfaces where non-GEMM consumers need it (QKV
     * head gather, residual rows, the final output).
     */
    Tensor forwardGraphFused(const Tensor &input,
                             const std::vector<size_t> &starts,
                             Lane lane) const;

    /**
     * One fused layer over the stacked rows — the shared body of
     * forwardGraphFused() (which carries @p qx plane-to-plane across
     * layers) and forwardStep() (which enters with float rows only).
     * @p qx in: layer @p l's x planes when @p haveQx, else encoded
     * here; out: the next layer's x planes when @p emitNext, else
     * left exhausted. Returns the layer's float output rows.
     */
    Tensor fusedLayerStep(size_t l, const Tensor &x,
                          QuantizedTensor &qx, bool haveQx,
                          bool emitNext,
                          const std::vector<size_t> &starts,
                          Lane lane) const;
};

} // namespace mokey

#endif // MOKEY_MODEL_PIPELINE_HH
