/**
 * @file
 * The once-per-graph execution plan of the fused forward path.
 *
 * A layer-at-a-time walk would re-derive everything that is actually
 * constant for a served model on every GEMM call: the dictionary
 * product tables, the per-site engine decision, the epilogue scales,
 * and the activation-dictionary lookups. A GraphPlan hoists all of it
 * once — rebuilt whenever quantizeWeights() / profileActivations()
 * invalidate the underlying tensors — so the fused forward walk
 * touches only plain pointers and precomputed scalars.
 *
 * The plan is built once and only read afterwards: a forward pass
 * writes nothing into it, so concurrent forwards share it freely.
 * Each site's engine resolves per call through the same pure
 * decision table as resolveIndexEngine(), which keeps the walk
 * bit-identical to the layer-at-a-time replica in tests/reference/.
 */

#ifndef MOKEY_MODEL_GRAPH_PLAN_HH
#define MOKEY_MODEL_GRAPH_PLAN_HH

#include <array>
#include <cstddef>
#include <vector>

#include "quant/index_matmul.hh"

namespace mokey
{

/** Site slots of one encoder layer, in execution order. */
enum GraphSite : size_t
{
    kSiteWq = 0,
    kSiteWk,
    kSiteWv,
    kSiteWo,
    kSiteW1,
    kSiteW2,
    kGraphSiteCount,
};

/** One weight-side GEMM site: the hoisted constants. */
struct SitePlan
{
    const QuantizedTensor *weight = nullptr;
    const std::vector<float> *bias = nullptr;
    /** gemmConstants(act dict, weight dict, K) for this site. */
    GemmConstants constants;
};

/** Per-layer resolved state of the fused walk. */
struct LayerPlan
{
    // Activation dictionaries by tensor id, resolved once (map
    // entries are address-stable for the pipeline's lifetime).
    const TensorDictionary *dx = nullptr;
    const TensorDictionary *dq = nullptr;
    const TensorDictionary *dk = nullptr;
    const TensorDictionary *dv = nullptr;
    const TensorDictionary *dp = nullptr;
    const TensorDictionary *dctx = nullptr;
    const TensorDictionary *dmidIn = nullptr;
    const TensorDictionary *dmid = nullptr;

    /** wq, wk, wv, wo, w1, w2 (GraphSite order). */
    std::array<SitePlan, kGraphSiteCount> sites;

    /** Attention epilogue scale 1/sqrt(head_dim). */
    float invSqrtHd = 1.0f;
};

/** The whole graph's plan, one entry per encoder layer. */
struct GraphPlan
{
    std::vector<LayerPlan> layers;
};

} // namespace mokey

#endif // MOKEY_MODEL_GRAPH_PLAN_HH
