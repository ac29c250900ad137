/**
 * @file
 * Runtime selection of the index-domain GEMM execution engine.
 *
 * Two engines realize the paper's index-domain algebra over the same
 * CodePlanes outlier sidecars but different dense-plane encodings:
 *
 *  - Mag   : streams the 8-byte-per-element signed magnitude plane;
 *            the whole GPE histogram algebra collapses into one
 *            vectorized double dot product. Fastest when the planes
 *            are cache-resident.
 *  - Count : the paper-faithful counting dataflow — streams the
 *            2-byte-per-element (uint8 index, int8 theta) byte
 *            planes, SIMD-accumulates a signed histogram over the
 *            joint index space per output element, then collapses it
 *            with one short dot against the decoded dictionary
 *            products. 4x fewer streamed bytes per element; the
 *            histogram phase is exact integer arithmetic.
 *
 * The active engine is chosen once per process from the MOKEY_ENGINE
 * environment variable ("mag", "count" or "auto"; default "mag") and
 * can be switched at runtime with setIndexEngine(). indexMatmulTransB()
 * and indexMatmulTransBScalar() dispatch on it, so the whole pipeline —
 * serving stack included — switches engines without a rebuild. Auto
 * is a pure function of each GEMM's shape and weight-plane residency
 * against the fixed kAutoMagBudgetBytes: nothing is timed or tuned
 * per host or per run.
 */

#ifndef MOKEY_QUANT_ENGINE_HH
#define MOKEY_QUANT_ENGINE_HH

#include "quant/quantized_tensor.hh"

namespace mokey
{

/** Selectable index-domain GEMM backends. */
enum class IndexEngine
{
    Mag,   ///< magnitude-plane dot-product engine
    Count, ///< byte-plane histogram (counting) engine
    Auto,  ///< per-GEMM choice from K and plane residency
};

/**
 * The engine indexMatmulTransB() currently dispatches to.
 * Initialized once from MOKEY_ENGINE (unset -> Mag; anything other
 * than "mag"/"count"/"counting"/"auto" is a fatal config error).
 * Auto defers the choice to resolveIndexEngine() per GEMM.
 */
IndexEngine indexEngine();

/** Switch the process-wide engine (tests restore the prior value). */
void setIndexEngine(IndexEngine engine);

/** Human-readable engine name ("mag" / "count" / "auto"). */
const char *indexEngineName(IndexEngine engine);

/**
 * The CodePlanes subset an engine streams: Mag reads the magnitude
 * plane, Count reads the index/theta byte planes. Both share the
 * outlier sidecars, which planes() always derives. Used to pin (and
 * account) exactly the bytes the active engine will touch. Auto maps
 * to the byte planes — the cheap, always-acceptable default when the
 * per-GEMM choice has not resolved yet.
 */
PlaneSet enginePlaneSet(IndexEngine engine);

/**
 * Streamed-mag working set above which the Auto heuristic calls a
 * GEMM DRAM-bound and routes it to the counting engine: the mag
 * engine's edge is cache residency, and 8 B/element planes that
 * spill are exactly the regime the 2 B/element byte planes exist
 * for (ROADMAP: "pick count when planes are cold or K is
 * DRAM-bound").
 */
constexpr size_t kAutoMagBudgetBytes = 12u << 20;

/**
 * The MOKEY_ENGINE=auto decision table, as a pure function so the
 * unit tests can pin it:
 *
 *  1. (aRows + wRows) * k mag-plane bytes over kAutoMagBudgetBytes
 *     -> Count (K is DRAM-bound: stream 2 B/element, not 8);
 *  2. weight mag plane resident (pinned warm) -> Mag (fastest when
 *     cache-resident and already paid for);
 *  3. otherwise (weight planes cold, or only byte planes resident)
 *     -> Count (deriving/streaming byte planes is 4x cheaper than
 *     materializing mag).
 *
 * @param aRows  activation rows (M)
 * @param wRows  weight rows (N; the transposed operand)
 * @param k      reduction length
 * @param weight the weight tensor's current planesFootprint()
 */
IndexEngine autoEngineChoice(size_t aRows, size_t wRows, size_t k,
                             const PlanesFootprint &weight);

/**
 * The engine a GEMM over (a, wt) runs on: the fixed selection, or
 * the Auto decision table applied to this GEMM's shape and the
 * weight-side plane residency.
 */
IndexEngine resolveIndexEngine(const QuantizedTensor &a,
                               const QuantizedTensor &wt);

/**
 * The plane set quantizeWeights() pins for a weight under @p engine.
 * Fixed engines pin what they stream; Auto pins per weight: Mag when
 * the weight's own mag plane fits comfortably in the budget (so
 * serving GEMMs resolve to the mag engine at step 2 above), byte
 * planes otherwise (step 1 will route those GEMMs to counting).
 */
PlaneSet weightPlaneSet(IndexEngine engine, size_t wRows, size_t k);

} // namespace mokey

#endif // MOKEY_QUANT_ENGINE_HH
