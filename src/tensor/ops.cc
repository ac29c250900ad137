#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mokey
{

namespace
{

/**
 * Column-tile width of matmulTransB's grid. Even, so every dotFD2
 * pair starts at an even j and which function computes an output
 * depends only on (j, n), never on threading: results stay
 * bit-identical across thread counts.
 */
constexpr size_t kTileN = 32;

} // anonymous namespace

Tensor
matmul(const Tensor &a, const Tensor &b, Lane lane)
{
    MOKEY_ASSERT(a.cols() == b.rows(), "matmul shape mismatch "
                 "%zux%zu * %zux%zu", a.rows(), a.cols(), b.rows(),
                 b.cols());
    Tensor c(a.rows(), b.cols());
    const size_t m = a.rows(), k = a.cols(), n = b.cols();
    parallelFor(lane, 0, m, grainFor(n * k), [&](size_t i) {
        float *crow = c.row(i);
        const float *arow = a.row(i);
        for (size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            const float *brow = b.row(p);
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    });
    return c;
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b, Lane lane)
{
    MOKEY_ASSERT(a.cols() == b.cols(), "matmulTransB shape mismatch");
    Tensor c(a.rows(), b.rows());
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    // Column pairs share the A-row stream (one load/convert feeds
    // two accumulations); only the last column of an odd n is
    // unpaired.
    parallelForTiles(lane, m, n, kTileN, k,
                     [&](size_t i0, size_t i1, size_t j0, size_t j1) {
        for (size_t i = i0; i < i1; ++i) {
            const float *arow = a.row(i);
            float *crow = c.row(i);
            size_t j = j0;
            for (; j + 2 <= j1; j += 2) {
                double r0, r1;
                dotFD2(arow, b.row(j), b.row(j + 1), k, &r0, &r1);
                crow[j] = static_cast<float>(r0);
                crow[j + 1] = static_cast<float>(r1);
            }
            if (j < j1)
                crow[j] = static_cast<float>(dotFD(arow, b.row(j), k));
        }
    });
    return c;
}

void
addBiasRow(float *row, const float *bias, size_t n)
{
    for (size_t c = 0; c < n; ++c)
        row[c] += bias[c];
}

void
softmaxRow(float *row, size_t n)
{
    const float mx = *std::max_element(row, row + n);
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
        row[c] = std::exp(row[c] - mx);
        sum += row[c];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (size_t c = 0; c < n; ++c)
        row[c] *= inv;
}

void
scaleRow(float *row, size_t n, float s)
{
    for (size_t c = 0; c < n; ++c)
        row[c] *= s;
}

void
layerNormRow(float *row, size_t n, float eps)
{
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c)
        sum += row[c];
    const double mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (size_t c = 0; c < n; ++c) {
        const double d = row[c] - mean;
        var += d * d;
    }
    var /= static_cast<double>(n);
    const double inv = 1.0 / std::sqrt(var + eps);
    for (size_t c = 0; c < n; ++c)
        row[c] = static_cast<float>((row[c] - mean) * inv);
}

void
geluRow(float *row, size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        const double x = row[c];
        row[c] = static_cast<float>(
            0.5 * x * (1.0 + std::erf(x * M_SQRT1_2)));
    }
}

void
addRow(float *dst, const float *a, const float *b, size_t n)
{
    for (size_t c = 0; c < n; ++c)
        dst[c] = a[c] + b[c];
}

void
addBias(Tensor &t, const std::vector<float> &bias)
{
    MOKEY_ASSERT(bias.size() == t.cols(), "bias length mismatch");
    for (size_t r = 0; r < t.rows(); ++r)
        addBiasRow(t.row(r), bias.data(), t.cols());
}

void
softmaxRows(Tensor &t)
{
    for (size_t r = 0; r < t.rows(); ++r)
        softmaxRow(t.row(r), t.cols());
}

void
scale(Tensor &t, float s)
{
    for (size_t r = 0; r < t.rows(); ++r)
        scaleRow(t.row(r), t.cols(), s);
}

void
layerNormRows(Tensor &t, float eps)
{
    for (size_t r = 0; r < t.rows(); ++r)
        layerNormRow(t.row(r), t.cols(), eps);
}

void
gelu(Tensor &t)
{
    for (size_t r = 0; r < t.rows(); ++r)
        geluRow(t.row(r), t.cols());
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    MOKEY_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                 "add shape mismatch");
    Tensor c(a.rows(), a.cols());
    for (size_t r = 0; r < a.rows(); ++r)
        addRow(c.row(r), a.row(r), b.row(r), a.cols());
    return c;
}

double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    MOKEY_ASSERT(a.size() == b.size(), "diff shape mismatch");
    double mx = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        mx = std::max(mx, std::abs(static_cast<double>(a.raw()[i]) -
                                   b.raw()[i]));
    return mx;
}

double
meanAbsDiff(const Tensor &a, const Tensor &b)
{
    MOKEY_ASSERT(a.size() == b.size(), "diff shape mismatch");
    MOKEY_ASSERT(a.size() > 0, "diff of empty tensors");
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += std::abs(static_cast<double>(a.raw()[i]) - b.raw()[i]);
    return sum / static_cast<double>(a.size());
}

double
frobeniusNorm(const Tensor &a)
{
    double sum = 0.0;
    for (float v : a.raw())
        sum += static_cast<double>(v) * v;
    return std::sqrt(sum);
}

Tensor
concatRows(const std::vector<const Tensor *> &parts)
{
    MOKEY_ASSERT(!parts.empty(), "concat of zero tensors");
    const size_t cols = parts[0]->cols();
    size_t rows = 0;
    for (const Tensor *p : parts) {
        MOKEY_ASSERT(p->cols() == cols,
                     "concat width mismatch: %zu vs %zu", p->cols(),
                     cols);
        rows += p->rows();
    }
    Tensor out(rows, cols);
    float *dst = out.data();
    for (const Tensor *p : parts) {
        std::copy(p->raw().begin(), p->raw().end(), dst);
        dst += p->size();
    }
    return out;
}

std::vector<Tensor>
splitRows(const Tensor &stacked, const std::vector<size_t> &row_counts)
{
    std::vector<Tensor> parts;
    parts.reserve(row_counts.size());
    size_t r0 = 0;
    for (const size_t rows : row_counts) {
        MOKEY_ASSERT(r0 + rows <= stacked.rows(),
                     "split exceeds stacked rows");
        Tensor t(rows, stacked.cols());
        std::copy(stacked.row(r0), stacked.row(r0) + rows *
                  stacked.cols(), t.data());
        parts.push_back(std::move(t));
        r0 += rows;
    }
    MOKEY_ASSERT(r0 == stacked.rows(),
                 "split row counts sum %zu != %zu", r0,
                 stacked.rows());
    return parts;
}

std::vector<Tensor>
mapStackedBatch(const std::vector<Tensor> &inputs,
                const std::function<Tensor(
                    const Tensor &, const std::vector<size_t> &)> &fn)
{
    if (inputs.empty())
        return {};
    std::vector<const Tensor *> parts;
    std::vector<size_t> starts{0}, counts;
    parts.reserve(inputs.size());
    for (const Tensor &in : inputs) {
        MOKEY_ASSERT(in.rows() > 0, "empty sequence in batch");
        parts.push_back(&in);
        counts.push_back(in.rows());
        starts.push_back(starts.back() + in.rows());
    }
    return splitRows(fn(concatRows(parts), starts), counts);
}

} // namespace mokey
