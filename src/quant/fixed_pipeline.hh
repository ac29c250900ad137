/**
 * @file
 * Integer-only index-domain compute (paper §II-F).
 *
 * The float-domain indexDot() proves the algebra; this engine proves
 * the *hardware claim*: every quantity — exponent bases, per-tensor
 * scaling coefficients, outlier centroids, accumulators — is a
 * two's-complement fixed-point integer. Histogram counters stay exact
 * integers; everything else is snapped to 16 b formats chosen per
 * Eq. 7/8, multiplied in wide integers, and rounded back. The final
 * output activation lands in the target layer's own 16 b format,
 * ready for the on-the-fly re-quantizer.
 */

#ifndef MOKEY_QUANT_FIXED_PIPELINE_HH
#define MOKEY_QUANT_FIXED_PIPELINE_HH

#include <array>
#include <cstdint>

#include "common/fixed_point.hh"
#include "quant/index_matmul.hh"
#include "quant/quantized_tensor.hh"

namespace mokey
{

/** Integer vector constants (fixed-point SoA2, exact PoM2). */
struct FixedVectorConstants
{
    int64_t soa2Raw = 0; ///< in the engine's base format
    int32_t pom2 = 0;    ///< exact integer count
};

/**
 * Fixed-point index-domain dot-product engine for one (activation,
 * weight) dictionary pair.
 *
 * Construction precomputes the 16 b power table and the eight 16 b
 * scaling coefficients; dotRaw() then runs entirely on integers.
 */
class FixedIndexEngine
{
  public:
    /**
     * @param dict_a  activation-side dictionary
     * @param dict_w  weight-side dictionary
     * @param out_fmt fixed-point format of the produced activations
     */
    FixedIndexEngine(const TensorDictionary &dict_a,
                     const TensorDictionary &dict_w,
                     FixedFormat out_fmt);

    /** The engine keeps references to both dictionaries: a
     *  temporary would dangle as soon as the constructor returned. */
    FixedIndexEngine(const TensorDictionary &&dict_a,
                     const TensorDictionary &dict_w,
                     FixedFormat out_fmt) = delete;
    FixedIndexEngine(const TensorDictionary &dict_a,
                     const TensorDictionary &&dict_w,
                     FixedFormat out_fmt) = delete;

    /** Format the power table is held in. */
    const FixedFormat &baseFormat() const { return baseFmt; }

    /** Output activation format. */
    const FixedFormat &outputFormat() const { return outFmt; }

    /** Integer vector constants for @p n codes. */
    FixedVectorConstants vectorConstants(const QCode *codes,
                                         size_t n) const;

    /**
     * Integer-only dot product; returns the raw output in
     * outputFormat().
     */
    int64_t dotRaw(const QCode *a, const QCode *w, size_t k,
                   const FixedVectorConstants &ca,
                   const FixedVectorConstants &cw,
                   IndexMatmulStats *stats = nullptr) const;

    /** Convenience: dotRaw() decoded to a double. */
    double dot(const QCode *a, const QCode *w, size_t k,
               const FixedVectorConstants &ca,
               const FixedVectorConstants &cw,
               IndexMatmulStats *stats = nullptr) const;

  private:
    const TensorDictionary &dictA;
    const TensorDictionary &dictW;
    FixedFormat baseFmt; ///< format of a^e entries
    FixedFormat outFmt;
    FixedFormat accFmt;  ///< wide accumulation format

    std::array<int64_t, kMaxSumExponents> powRaw{};

    /** A 16 b fixed-point scalar coefficient with its own format. */
    struct Coeff
    {
        int64_t raw;
        FixedFormat fmt;
    };
    Coeff cSoi;  ///< sA sW
    Coeff cB;    ///< sA sW b
    Coeff cBB;   ///< sA sW b^2
    Coeff cAm;   ///< sA mW
    Coeff cAmB;  ///< sA mW b
    Coeff cWm;   ///< sW mA
    Coeff cWmB;  ///< sW mA b
    Coeff cMm;   ///< mA mW

    /** Outlier centroids and means snapped to operand formats. */
    std::vector<int64_t> otARaw;
    std::vector<int64_t> otWRaw;
    std::vector<int64_t> gARaw; ///< 16 gaussian centroids of A
    std::vector<int64_t> gWRaw;
    int64_t meanARaw;
    int64_t meanWRaw;

    static Coeff makeCoeff(double v);

    /** term = sum_raw(frac_sum) * coeff -> accFmt raw. */
    int64_t term(int64_t sum_raw, int frac_sum, const Coeff &c) const;

    int64_t decodeRaw(QCode q, bool is_a) const;
};

/**
 * Integer-only GEMM: out = A (M x K) * Wt^T, Wt (N x K); the result
 * tensor holds the decoded doubles of the 16 b fixed outputs.
 *
 * Engine construction and the per-column constants run once per
 * call; output row bands then fan out across the executor on
 * @p lane like the float/index engines. Every output element is an
 * independent integer computation, so results are bit-identical for
 * any thread count and lane assignment — pinned against
 * fixedIndexMatmulTransBScalar().
 */
Tensor fixedIndexMatmulTransB(const QuantizedTensor &a,
                              const QuantizedTensor &wt,
                              FixedFormat out_fmt,
                              IndexMatmulStats *stats = nullptr,
                              Lane lane = {});

/**
 * The same per-element kernel run entirely on the calling thread;
 * exists so parity tests can pin the parallel path bit-for-bit.
 */
Tensor fixedIndexMatmulTransBScalar(const QuantizedTensor &a,
                                    const QuantizedTensor &wt,
                                    FixedFormat out_fmt,
                                    IndexMatmulStats *stats = nullptr);

} // namespace mokey

#endif // MOKEY_QUANT_FIXED_PIPELINE_HH
