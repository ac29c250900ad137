/**
 * @file
 * Vectorized dot-product primitives shared by the hot kernels.
 *
 * Each function carries GCC target_clones, so the binary ships
 * generic, AVX2+FMA, and AVX-512 variants and the dynamic linker
 * picks one per process at startup. Within a process the chosen
 * variant — and therefore the exact FP rounding — is fixed, which is
 * what lets the GEMM engines promise bit-identical results across
 * thread counts and tilings.
 *
 * Lane structure (and thus arithmetic order) is written out
 * explicitly: 16 independent accumulators reduced in a fixed tree.
 * The result is a pure function of the inputs and the selected ISA.
 */

#ifndef MOKEY_COMMON_SIMD_HH
#define MOKEY_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace mokey
{

/** Sum of x[i]*y[i] over doubles, 16-lane fixed-tree reduction. */
double dotDD(const double *x, const double *y, size_t n);

/** Sum of x[i]*y[i] over floats, accumulated in double. */
double dotFD(const float *x, const float *y, size_t n);

/**
 * Two dot products sharing one x stream: r0 = x . y0, r1 = x . y1.
 * The column pairing halves x loads/converts in GEMM inner loops.
 * Uses its own (8-lane) accumulation order — deterministic, but not
 * bit-matched to dotFD(); callers must route a given output through
 * the same function on every run.
 */
void dotFD2(const float *x, const float *y0, const float *y1,
            size_t n, double *r0, double *r1);

// ---- byte-plane histogram kernels (counting engine) -----------------
//
// These two kernels are the GPE of the counting engine: they stream
// the 1 B index / 1 B theta planes and accumulate *integer* signed
// histograms, so their results are exactly identical on every ISA —
// unlike the FP dots above, the dispatch may pick any variant at any
// time without breaking determinism. On x86-64 they dispatch at
// runtime (via __builtin_cpu_supports, no ifunc, sanitizer-safe) to
// AVX-512BW / AVX2 bodies that compute bucket keys and sign products
// 64/32 codes at a time (_mm*_sign_epi8 sign products, shifted-index
// bucket keys, compare-masked popcounts); elsewhere they fall back to
// a multi-versioned generic loop.

/**
 * Signed joint-index pair histogram over two byte-plane rows:
 *
 *   hist[(ia[c] & 7) << 3 | (iw[c] & 7)] += ta[c] * tw[c]
 *
 * for c in [0, n). Outlier slots carry theta 0, so their pairs add
 * nothing — exactly the "outlier contributions vanish" invariant of
 * the dense planes. @p hist must hold 64 entries; it is overwritten.
 */
void pairHistogram(const uint8_t *ia, const int8_t *ta,
                   const uint8_t *iw, const int8_t *tw, size_t n,
                   int32_t *hist);

/**
 * Signed per-index histogram of one byte-plane row:
 * hist[idx[c] & 7] += th[c] for c in [0, n). @p hist must hold 8
 * entries; it is overwritten. Collapsing it against the magnitude
 * table yields the row's pairing-independent SoA2 + b*PoM2 term.
 */
void signedIndexHistogram(const uint8_t *idx, const int8_t *th,
                          size_t n, int32_t *hist);

// ---- fused comparator-ladder encode (activation quantizer) ----------
//
// The vectorized model of the Fig. 7 output-activation quantizer:
// normalize a float row to sigma units, run the branchless
// nearest-centroid select over the sorted magnitude ladder, and write
// the code planes directly — no intermediate code tensor. Every
// decision is an exact double comparison (the division is the single
// correctly-rounded IEEE op), so the AVX-512 / AVX2 / generic bodies
// produce bit-identical planes on every ISA and, like the histogram
// kernels, dispatch at runtime via __builtin_cpu_supports (no ifunc,
// sanitizer-safe).

/**
 * Encode one row of @p n floats against a Gaussian magnitude ladder.
 *
 * Per element v (promoted to double):
 *  - outlier when |v - mean| > cut: the element's planes get the
 *    zero-index/zero-sign/zero-magnitude convention (idx 0, theta 0,
 *    mag 0.0) and only the count is reported — the caller resolves
 *    the outlier-dictionary code in its sidecar pass;
 *  - otherwise u = (v - mean) / scale, theta = sign, and the index is
 *    the nearest entry of @p mags to |u|, ties to the lower index —
 *    bit-identical to ExpDictionary::nearestIndex() because every
 *    boundary evaluates the exact scalar tie expression
 *    (|u| - mags[i-1] > mags[i] - |u|).
 *
 * @param src   the float row
 * @param n     elements in the row
 * @param mags  ascending magnitudes, padded to 8 entries (unused
 *              tail arbitrary); @p h in [1, 8] real entries
 * @param mean  dictionary mean
 * @param scale dictionary scale (> 0)
 * @param cut   outlier threshold on |v - mean|; pass +infinity when
 *              the dictionary has no outlier table
 * @param idx   uint8 index plane row, or nullptr to skip
 * @param theta int8 +1/-1 sign plane row, or nullptr to skip
 * @param mag   double signed-magnitude plane row, or nullptr to skip
 * @return number of outlier elements in the row
 */
size_t encodeLadder(const float *src, size_t n, const double *mags,
                    size_t h, double mean, double scale, double cut,
                    uint8_t *idx, int8_t *theta, double *mag);

} // namespace mokey

#endif // MOKEY_COMMON_SIMD_HH
