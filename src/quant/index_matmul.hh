/**
 * @file
 * Index-domain matrix multiply (paper §II-D, Fig. 4, Eqs. 1-6).
 *
 * This is Mokey's central idea: because every Gaussian-dictionary
 * value has the form  theta * (a^int + b) * s + m , a dot product over
 * two quantized tensors decomposes into
 *
 *   sA sW  SoI  + sA sW b (SoA1 + SoW1) + sA sW b^2 PoM1   (online)
 * + sA mW (SoA2 + b PoM2)                                  (per row)
 * + sW mA (SoW2 + b PoM3)                                  (per col)
 * + K mA mW                                                (constant)
 *
 * where the online terms are *integer histograms* over summed indexes
 * — 3 b additions and counter increments instead of FP16 MACs. Pairs
 * touching an outlier bypass the histograms: the OPP looks up both
 * centroids, multiplies once, and applies an exact correction for the
 * contribution the precomputed terms already counted:
 *
 *   A gaussian, W outlier : add  A*W - mW*A
 *   A outlier,  W gaussian: add  A*W - mA*W
 *   both outliers         : add  A*W - mA*mW
 *
 * With these corrections the index-domain result equals the
 * decode-then-multiply reference *exactly* (up to FP rounding), which
 * the property tests assert.
 */

#ifndef MOKEY_QUANT_INDEX_MATMUL_HH
#define MOKEY_QUANT_INDEX_MATMUL_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.hh"
#include "quant/engine.hh"
#include "quant/quantized_tensor.hh"
#include "tensor/tensor.hh"

namespace mokey
{

/** Maximum Gaussian index count supported by the fixed-size CRFs. */
constexpr size_t kMaxGaussianIndexes = 8;

/** Maximum summed-exponent entries (a^0 .. a^14 for 4 b codes). */
constexpr size_t kMaxSumExponents = 2 * kMaxGaussianIndexes - 1;

/**
 * Per-GEMM constants: the 6-term reconstruction of indexDot() folded
 * into scalars plus the decoded dictionary tables the counting
 * engine's histograms collapse against. A pure function of the two
 * dictionaries and K, so a serving graph hoists one per weight site
 * (GraphPlan) instead of re-deriving it on every call.
 */
struct GemmConstants
{
    size_t k = 0;
    double sA = 0.0, sW = 0.0; ///< per-tensor scales
    double mA = 0.0, mW = 0.0; ///< per-tensor means
    double c0 = 0.0;           ///< s_a * s_w
    double constTerm = 0.0;    ///< k * m_a * m_w
    /** Unscaled magnitudes a^i + b, zero beyond indexCount(). */
    std::array<double, kMaxGaussianIndexes> mags{};
    /** prod[(ia << 3) | iw] = mags[ia] * mags[iw]. */
    std::array<double, kMaxGaussianIndexes * kMaxGaussianIndexes>
        prod{};
};

/** Derive the constants of one (dict_a, dict_w, K) GEMM site. */
GemmConstants gemmConstants(const TensorDictionary &da,
                            const TensorDictionary &dw, size_t k);

/**
 * Cached variant for GEMMs whose dictionaries are not known at graph
 * planning time — the attention act×act products, whose K is the
 * sequence length and whose activation dictionaries change per
 * profile. Backed by a small sharded LRU keyed on the exact value
 * inputs of gemmConstants() (dictionary scale/mean, exponential
 * dictionary parameters, K), so a hit returns bit-identical constants
 * to a fresh derivation by construction. Safe to call from concurrent
 * lanes.
 */
GemmConstants cachedGemmConstants(const TensorDictionary &da,
                                  const TensorDictionary &dw,
                                  size_t k);

/** Cumulative cachedGemmConstants() hits (monotonic; for tests and
 *  stats). */
uint64_t gemmConstantsCacheHits();

/** Cumulative cachedGemmConstants() misses (monotonic). */
uint64_t gemmConstantsCacheMisses();

/**
 * The per-output-activation histogram state — a software model of
 * the GPE's four Counter Register Files (Fig. 6).
 */
struct CrfState
{
    std::array<int32_t, kMaxSumExponents> soi{};  ///< 15-entry CRF
    std::array<int32_t, kMaxGaussianIndexes> soa1{}; ///< 8-entry CRF
    std::array<int32_t, kMaxGaussianIndexes> sow1{}; ///< 8-entry CRF
    int32_t pom1 = 0;                              ///< 1-entry CRF

    /** Reset all counters to zero. */
    void clear();
};

/** Precomputed pairing-independent sums for one vector of codes. */
struct VectorConstants
{
    double soa2 = 0.0; ///< sum of theta * a^idx over Gaussian codes
    double pom2 = 0.0; ///< sum of theta over Gaussian codes
};

/**
 * Aggregate counters reported by a matmul run.
 *
 * The counters are atomic so several GEMMs may accumulate into one
 * shared stats object concurrently — the batched serving path runs
 * attention heads of independent requests on the pool, all feeding
 * the pipeline's single accumulator. Kernels accumulate privately
 * and publish once per tile-grid rectangle via add()/merge(), so the
 * atomics stay off the per-pair hot path; the totals are integer
 * sums, independent of chunk order.
 */
struct IndexMatmulStats
{
    std::atomic<uint64_t> gaussianPairs{0};
    std::atomic<uint64_t> outlierPairs{0};

    IndexMatmulStats() = default;
    IndexMatmulStats(const IndexMatmulStats &o)
        : gaussianPairs(o.gaussianPairs.load(std::memory_order_relaxed)),
          outlierPairs(o.outlierPairs.load(std::memory_order_relaxed))
    {
    }
    IndexMatmulStats &
    operator=(const IndexMatmulStats &o)
    {
        if (this != &o) {
            gaussianPairs.store(
                o.gaussianPairs.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            outlierPairs.store(
                o.outlierPairs.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        return *this;
    }

    /** Thread-safe accumulation of a privately counted chunk. */
    void add(uint64_t gaussian, uint64_t outlier);

    /** Fraction of multiply pairs routed to the OPP. */
    double outlierPairFraction() const;

    void merge(const IndexMatmulStats &o);
};

/**
 * Precompute the SoA2/PoM2-style sums for @p n codes (done "while
 * quantizing the previous layer's output" in hardware).
 */
VectorConstants vectorConstants(const QCode *codes, size_t n,
                                const ExpDictionary &exp);

/**
 * One index-domain dot product of length @p k.
 *
 * @param a      activation codes
 * @param dict_a activation dictionary
 * @param w      weight codes
 * @param dict_w weight dictionary
 * @param k      reduction length
 * @param ca     precomputed constants for @p a (vectorConstants)
 * @param cw     precomputed constants for @p w
 * @param stats  optional pair-count accumulator
 * @param crf    optional: receives the final CRF histograms
 */
double indexDot(const QCode *a, const TensorDictionary &dict_a,
                const QCode *w, const TensorDictionary &dict_w,
                size_t k, const VectorConstants &ca,
                const VectorConstants &cw,
                IndexMatmulStats *stats = nullptr,
                CrfState *crf = nullptr);

/**
 * Index-domain GEMM: out = A (M x K) * Wt^T where Wt is (N x K).
 *
 * Both operands are quantized; the result is the full-precision
 * output activation tensor ready for on-the-fly re-quantization.
 *
 * This is the production entry point: it dispatches to the engine
 * selected by resolveIndexEngine() — the fixed MOKEY_ENGINE /
 * setIndexEngine() choice, or, under MOKEY_ENGINE=auto, a per-GEMM
 * decision from the shape and the weight-side plane residency
 * against the fixed kAutoMagBudgetBytes (nothing is timed):
 *
 *  - indexMatmulTransBMag(): streams the dense double magnitude
 *    planes branch-free (GPE collapses to one vectorized dot);
 *  - indexMatmulTransBCounting(): streams the 2-byte index/theta
 *    planes and SIMD-accumulates per-pair signed histograms — the
 *    paper's counting dataflow, 4x fewer streamed bytes/element.
 *
 * Both merge-iterate the per-row outlier sidecars (OPP) and share
 * one tile walker: the output is a parallelForTiles() grid of (row
 * band x 32-wide weight tile) cells fanned out on @p lane, so a
 * one-row decode GEMM spreads its weight tiles over the pool and
 * each tile is reused by every row of its band. Every output element
 * is one call of the engine's noinline dot, whatever the partition,
 * so results are bit-identical for every thread count and lane
 * assignment, and identical to indexMatmulTransBScalar() under the
 * same engine selection.
 */
Tensor indexMatmulTransB(const QuantizedTensor &a,
                         const QuantizedTensor &wt,
                         IndexMatmulStats *stats = nullptr,
                         Lane lane = {});

/** The magnitude-plane engine, explicitly (ignores the selector). */
Tensor indexMatmulTransBMag(const QuantizedTensor &a,
                            const QuantizedTensor &wt,
                            IndexMatmulStats *stats = nullptr,
                            Lane lane = {});

/**
 * The counting engine, explicitly (ignores the selector): for each
 * (activation row, weight row) pair the GPE accumulates a signed
 * integer histogram over the joint 3 b x 3 b index space from the
 * uint8 index / int8 theta byte planes (simd.hh pairHistogram), then
 * collapses it with one 64-entry dot against the decoded dictionary
 * products — one multiply per dictionary pair instead of one per
 * element, exactly the paper's multiplier-free dataflow. The
 * histogram phase is exact integer arithmetic, so it is identical
 * on every ISA; only the fixed-order collapse is FP. Streams 2 B
 * per element where the mag engine streams 8 B, and only requires
 * the byte planes (PlaneSet::Bytes) to be materialized.
 */
Tensor indexMatmulTransBCounting(const QuantizedTensor &a,
                                 const QuantizedTensor &wt,
                                 IndexMatmulStats *stats = nullptr,
                                 Lane lane = {});

/** Counting-engine scalar path (single thread, bit-parity pin). */
Tensor indexMatmulTransBCountingScalar(const QuantizedTensor &a,
                                       const QuantizedTensor &wt,
                                       IndexMatmulStats *stats =
                                           nullptr);

/**
 * Batched index-domain GEMM for multi-request serving: every
 * activation block multiplies the same weight tensor, so the row
 * spaces are stacked into one engine invocation (B x T rows) that
 * shares a single weight-side CodePlanes derivation, one per-column
 * constant fold, and one pool fan-out — the per-request costs the
 * batch scheduler exists to amortize.
 *
 * All blocks must share the activation dictionary (one serving
 * dictionary per tensor id). Returns one output tensor per block, in
 * order, each bit-identical to indexMatmulTransB() on that block
 * alone.
 */
std::vector<Tensor>
indexMatmulTransBBatched(const std::vector<const QuantizedTensor *> &as,
                         const QuantizedTensor &wt,
                         IndexMatmulStats *stats = nullptr,
                         Lane lane = {});

/**
 * The selected engine's scalar path: the same per-element kernel as
 * indexMatmulTransB() run entirely on the calling thread (dispatches
 * on resolveIndexEngine() like the parallel entry point). Exists so
 * parity tests can pin the parallel path bit-for-bit under either
 * engine.
 */
Tensor indexMatmulTransBScalar(const QuantizedTensor &a,
                               const QuantizedTensor &wt,
                               IndexMatmulStats *stats = nullptr);

/**
 * The seed scalar algorithm — one indexDot() per output element,
 * branching per code pair. Kept as the algebra reference the engine
 * is validated (and benchmarked) against.
 */
Tensor indexMatmulTransBReference(const QuantizedTensor &a,
                                  const QuantizedTensor &wt,
                                  IndexMatmulStats *stats = nullptr);

/** Reference: decode both operands and multiply in float. */
Tensor decodedMatmulTransB(const QuantizedTensor &a,
                           const QuantizedTensor &wt);

/**
 * Per-row epilogue of a fused GEMM: transform row @p i's @p n output
 * values in place (bias, activation, residual, normalization, ...).
 * Called once per output row, after every tile of the row is
 * computed, from pool threads; rows are disjoint, so captured state
 * must be read-only or row-indexed.
 */
using FusedRowEpilogue =
    std::function<void(size_t i, float *vals, size_t n)>;

/** What a fused GEMM hands the next graph node. */
struct FusedGemmOut
{
    /** The output re-encoded as planes (empty unless outDict). */
    QuantizedTensor planes;
    /** The float output (empty unless keepDense). */
    Tensor dense;
};

/**
 * Plane-to-plane fused GEMM: the engine kernel of
 * indexMatmulTransB(), with the epilogue and the next layer's
 * activation quantization chained onto it.
 *
 * First the same tile walk as indexMatmulTransB() (identical
 * noinline engineDot/countingDot calls, reading the planes'
 * precomputed per-row fold sums instead of re-folding the
 * SoA2 + b*PoM2 terms per call) fills one m x n float buffer; then a
 * row pass applies @p epilogue and encodes each finished row straight
 * into the output planes with the same comparator-ladder walk
 * Quantizer::encodeToPlanes() runs (shared LadderSpec::encodeRow).
 * The buffer is handed out only if @p keepDense asks for it.
 *
 * Every output value, encoded plane byte, and outlier entry is
 * bit-identical to the unfused sequence
 *   indexMatmulTransB* -> epilogue -> encodeToPlanes
 * for every thread count and lane, which the graph-fusion parity
 * tests pin.
 *
 * @param engine    resolved engine (Auto is a contract violation —
 *                  resolve per site first, see resolveIndexEngine())
 * @param epilogue  optional per-row output transform
 * @param outDict   when set, re-encode the output against this
 *                  dictionary into planes (the fused A->B handoff)
 * @param outSets   plane sets to materialize for the output
 * @param keepDense also materialize the float output tensor (needed
 *                  when the float values feed non-GEMM consumers)
 * @param constants optional hoisted gemmConstants() for this site
 */
FusedGemmOut indexMatmulTransBFused(
    const QuantizedTensor &a, const QuantizedTensor &wt,
    IndexEngine engine, const FusedRowEpilogue &epilogue,
    const TensorDictionary *outDict, PlaneSet outSets,
    bool keepDense, const GemmConstants *constants = nullptr,
    IndexMatmulStats *stats = nullptr, Lane lane = {});

} // namespace mokey

#endif // MOKEY_QUANT_INDEX_MATMUL_HH
