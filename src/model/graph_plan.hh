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
 * It also carries the self-calibration state: under MOKEY_CALIBRATE
 * with MOKEY_ENGINE=auto, the first fused iteration runs every weight
 * site on the mag engine and the second on the counting engine, each
 * timed; from the third iteration on, each site is pinned to its
 * measured winner (QuantizedTransformer::enginePins() exposes the
 * outcome). With calibration off, sites resolve through the same
 * pure decision table as resolveIndexEngine(), which keeps the walk
 * bit-identical to the layer-at-a-time replica in tests/reference/.
 */

#ifndef MOKEY_MODEL_GRAPH_PLAN_HH
#define MOKEY_MODEL_GRAPH_PLAN_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
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

/** Human-readable site name ("wq" ... "w2"). */
const char *graphSiteName(size_t site);

/**
 * One weight-side GEMM site: the hoisted constants plus the
 * self-calibration state. Non-copyable (atomics); lives inside the
 * plan's deque for address stability.
 */
struct SitePlan
{
    const QuantizedTensor *weight = nullptr;
    const std::vector<float> *bias = nullptr;
    /** gemmConstants(act dict, weight dict, K) for this site. */
    GemmConstants constants;

    /** Pinned engine (IndexEngine as int), or -1 while undecided.
     * Only consulted under MOKEY_ENGINE=auto. */
    std::atomic<int> pinned{-1};
    /** Accumulated fused-GEMM wall time per engine (calibration). */
    std::atomic<int64_t> magNs{0};
    std::atomic<int64_t> countNs{0};
    std::atomic<uint64_t> magRuns{0};
    std::atomic<uint64_t> countRuns{0};
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

/** The whole graph's plan plus calibration progress. */
struct GraphPlan
{
    std::deque<LayerPlan> layers; ///< deque: SitePlan is immovable

    /** Completed fused forward passes (drives the two calibration
     * profiling iterations; only advanced while calibrating). */
    std::atomic<uint64_t> iteration{0};
};

/** One row of QuantizedTransformer::enginePins(). */
struct EnginePin
{
    size_t layer = 0;
    std::string site;          ///< "wq" ... "w2"
    IndexEngine engine{};      ///< pinned or statically resolved
    bool pinned = false;       ///< true once calibration decided
};

} // namespace mokey

#endif // MOKEY_MODEL_GRAPH_PLAN_HH
