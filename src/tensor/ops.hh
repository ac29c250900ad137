/**
 * @file
 * Dense float reference kernels: GEMM, softmax, layer-norm, GELU.
 *
 * These are the FP32 reference implementations that (a) drive the
 * synthetic transformer models and (b) serve as the gold output that
 * the index-domain fixed-point pipeline is verified against.
 */

#ifndef MOKEY_TENSOR_OPS_HH
#define MOKEY_TENSOR_OPS_HH

#include <functional>
#include <vector>

#include "common/parallel.hh"
#include "tensor/tensor.hh"

namespace mokey
{

// The GEMMs fan out over the multi-lane executor; @p lane selects
// which lane the loop occupies (results are lane-independent).

/** C = A (m x k) * B (k x n). */
Tensor matmul(const Tensor &a, const Tensor &b, Lane lane = {});

/** C = A (m x k) * B^T where B is (n x k). */
Tensor matmulTransB(const Tensor &a, const Tensor &b, Lane lane = {});

// Single-row kernels: the per-row bodies of the whole-tensor ops
// below, exposed so the fused GEMM epilogues (model/pipeline) apply
// them to one band-resident row at a time with arithmetic identical
// to the whole-tensor ops — bit-parity between the fused walk and the
// layer-at-a-time replica (tests/reference/) reduces to "same kernel,
// same row".

/** One row of addBias(): row[c] += bias[c]. */
void addBiasRow(float *row, const float *bias, size_t n);

/** One row of softmaxRows(). */
void softmaxRow(float *row, size_t n);

/** One row of scale(): row[c] *= s. */
void scaleRow(float *row, size_t n, float s);

/** One row of layerNormRows() (gain 1, bias 0). */
void layerNormRow(float *row, size_t n, float eps = 1e-5f);

/** One row of gelu() (exact, erf-based). */
void geluRow(float *row, size_t n);

/** One row of add(): dst[c] = a[c] + b[c]; dst may alias a or b. */
void addRow(float *dst, const float *a, const float *b, size_t n);

/** In place: add a per-column bias vector to every row. */
void addBias(Tensor &t, const std::vector<float> &bias);

/** In place: row-wise softmax. */
void softmaxRows(Tensor &t);

/** In place: scale every element. */
void scale(Tensor &t, float s);

/** In place: layer normalization over each row (gain 1, bias 0). */
void layerNormRows(Tensor &t, float eps = 1e-5f);

/** In place: exact (erf-based) GELU. */
void gelu(Tensor &t);

/** Element-wise sum (shapes must match). */
Tensor add(const Tensor &a, const Tensor &b);

/** Max |a - b| over all elements (shapes must match). */
double maxAbsDiff(const Tensor &a, const Tensor &b);

/** Mean |a - b| over all elements (shapes must match). */
double meanAbsDiff(const Tensor &a, const Tensor &b);

/** Frobenius norm of @p a. */
double frobeniusNorm(const Tensor &a);

/**
 * Stack matrices of equal width into one tall matrix — the batched
 * serving row space (B x T rows). Row order follows @p parts order.
 */
Tensor concatRows(const std::vector<const Tensor *> &parts);

/**
 * Split a stacked matrix back into blocks of @p row_counts rows
 * (must sum to stacked.rows()).
 */
std::vector<Tensor> splitRows(const Tensor &stacked,
                              const std::vector<size_t> &row_counts);

/**
 * Run @p fn over the stacked row space of a ragged batch: stack the
 * (non-empty) inputs, call fn(stacked, starts) where @p starts holds
 * the B+1 row offsets delimiting the sequences, and split fn's
 * result back into per-input tensors. The shared plumbing of every
 * batched forward pass.
 */
std::vector<Tensor> mapStackedBatch(
    const std::vector<Tensor> &inputs,
    const std::function<Tensor(const Tensor &,
                               const std::vector<size_t> &)> &fn);

} // namespace mokey

#endif // MOKEY_TENSOR_OPS_HH
