/**
 * @file
 * Prior-work quantization baselines (paper Table IV, §V).
 *
 * Each baseline reproduces the *quantization transfer function* of a
 * published method — what matters for comparing task-performance
 * degradation and footprint. All of them implement a common
 * interface: quantize-dequantize a weight or activation tensor and
 * report the bits each tensor class occupies.
 *
 *  - Q8BERT:      symmetric per-tensor uniform int8, weights + acts
 *  - I-BERT:      uniform int8 with percentile clipping (integer-only
 *                 inference)
 *  - Q-BERT:      group-wise 4 b weights (128-column groups), 8 b acts
 *  - GOBO:        3 b dictionary weights via iterative k-means +
 *                 FP32 outliers; activations untouched
 *  - TernaryBERT: 2 b {-w, 0, +w} per-row weights, 8 b acts
 *  - Mokey:       this library (4 b / 4 b), for the same interface
 */

#ifndef MOKEY_QUANT_BASELINES_HH
#define MOKEY_QUANT_BASELINES_HH

#include <memory>
#include <string>
#include <vector>

#include "quant/quantizer.hh"
#include "tensor/tensor.hh"

namespace mokey
{

/** Common interface for quantization methods under comparison. */
class BaselineQuantizer
{
  public:
    virtual ~BaselineQuantizer() = default;

    /** Method name as it appears in Table IV. */
    virtual std::string name() const = 0;

    /** Quantize-dequantize a weight tensor. */
    virtual Tensor quantizeWeights(const Tensor &w) const = 0;

    /** Quantize-dequantize an activation tensor. */
    virtual Tensor quantizeActivations(const Tensor &a) const = 0;

    /** Average bits per weight (including outlier overheads). */
    virtual double weightBits() const = 0;

    /** Average bits per activation. */
    virtual double activationBits() const = 0;

    /** True when inference needs no floating-point units. */
    virtual bool integerCompute() const = 0;

    /** True for post-training methods (no fine-tuning). */
    virtual bool postTraining() const = 0;

    /**
     * Total-footprint compression vs FP32 for a workload with
     * @p weight_values weights and @p act_values activations.
     */
    double compressionRatio(size_t weight_values,
                            size_t act_values) const;
};

/** FP32 passthrough (the "baseline" row). */
std::unique_ptr<BaselineQuantizer> makeFp32Baseline();

/** Q8BERT-style symmetric per-tensor int8. */
std::unique_ptr<BaselineQuantizer> makeQ8Bert();

/** I-BERT-style int8 with percentile clipping. */
std::unique_ptr<BaselineQuantizer> makeIBert();

/** Q-BERT-style group-wise 4 b weights / 8 b activations. */
std::unique_ptr<BaselineQuantizer> makeQBert(size_t group = 128);

/** GOBO-style 3 b dictionary weights, FP32 activations. */
std::unique_ptr<BaselineQuantizer> makeGobo(double outlier_frac = 0.001);

/** TernaryBERT-style 2 b weights / 8 b activations. */
std::unique_ptr<BaselineQuantizer> makeTernaryBert();

/**
 * Mokey wrapped in the same interface (4 b / 4 b). The wrapper keeps
 * a reference to @p q, so a temporary quantizer does not bind.
 */
std::unique_ptr<BaselineQuantizer> makeMokeyBaseline(
    const Quantizer &q);
std::unique_ptr<BaselineQuantizer> makeMokeyBaseline(
    const Quantizer &&q) = delete;

/** All Table IV rows in paper order (the Mokey row keeps @p q). */
std::vector<std::unique_ptr<BaselineQuantizer>> makeTable4Lineup(
    const Quantizer &q);
std::vector<std::unique_ptr<BaselineQuantizer>> makeTable4Lineup(
    const Quantizer &&q) = delete;

} // namespace mokey

#endif // MOKEY_QUANT_BASELINES_HH
