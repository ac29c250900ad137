#include "quant/index_matmul.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "quant/quantizer.hh"

namespace mokey
{

void
CrfState::clear()
{
    soi.fill(0);
    soa1.fill(0);
    sow1.fill(0);
    pom1 = 0;
}

void
IndexMatmulStats::add(uint64_t gaussian, uint64_t outlier)
{
    gaussianPairs.fetch_add(gaussian, std::memory_order_relaxed);
    outlierPairs.fetch_add(outlier, std::memory_order_relaxed);
}

double
IndexMatmulStats::outlierPairFraction() const
{
    const uint64_t g = gaussianPairs.load(std::memory_order_relaxed);
    const uint64_t ot = outlierPairs.load(std::memory_order_relaxed);
    if (g + ot == 0)
        return 0.0;
    return static_cast<double>(ot) / static_cast<double>(g + ot);
}

void
IndexMatmulStats::merge(const IndexMatmulStats &o)
{
    add(o.gaussianPairs.load(std::memory_order_relaxed),
        o.outlierPairs.load(std::memory_order_relaxed));
}

VectorConstants
vectorConstants(const QCode *codes, size_t n, const ExpDictionary &exp)
{
    VectorConstants c;
    for (size_t i = 0; i < n; ++i) {
        const QCode q = codes[i];
        if (q.isOutlier())
            continue;
        const double p = exp.power(q.index());
        if (q.negative()) {
            c.soa2 -= p;
            c.pom2 -= 1.0;
        } else {
            c.soa2 += p;
            c.pom2 += 1.0;
        }
    }
    return c;
}

namespace
{

/** Decoded centroid of a code (no fixed-point snapping). */
double
decodeCode(QCode q, const TensorDictionary &d)
{
    if (q.isOutlier())
        return d.outlierValue(q.outlierIndex());
    return d.gaussianValue(q.negative(), q.index());
}

} // anonymous namespace

double
indexDot(const QCode *a, const TensorDictionary &dict_a,
         const QCode *w, const TensorDictionary &dict_w, size_t k,
         const VectorConstants &ca, const VectorConstants &cw,
         IndexMatmulStats *stats, CrfState *crf_out)
{
    const ExpDictionary &exp = dict_a.exp();
    MOKEY_ASSERT(exp.a() == dict_w.exp().a() &&
                 exp.b() == dict_w.exp().b(),
                 "operands use different exponential dictionaries");
    const size_t h = exp.indexCount();
    MOKEY_ASSERT(h <= kMaxGaussianIndexes,
                 "index space %zu exceeds CRF capacity", h);

    CrfState crf;
    double ot_acc = 0.0;
    uint64_t g_pairs = 0, ot_pairs = 0;

    const double m_a = dict_a.mean(), m_w = dict_w.mean();

    for (size_t i = 0; i < k; ++i) {
        const QCode qa = a[i], qw = w[i];
        if (qa.isOutlier() || qw.isOutlier()) {
            // OPP path: one real MAC plus the exact correction for
            // what the precomputed terms already counted.
            const double av = decodeCode(qa, dict_a);
            const double wv = decodeCode(qw, dict_w);
            double corr;
            if (qa.isOutlier() && qw.isOutlier())
                corr = m_a * m_w;
            else if (qa.isOutlier())
                corr = m_a * wv;
            else
                corr = m_w * av;
            ot_acc += av * wv - corr;
            ++ot_pairs;
            continue;
        }
        // GPE path: add the 3 b indexes, XOR the signs, bump the
        // CRFs (Fig. 6).
        const int sign = (qa.negative() != qw.negative()) ? -1 : 1;
        crf.soi[qa.index() + qw.index()] += sign;
        crf.soa1[qa.index()] += sign;
        crf.sow1[qw.index()] += sign;
        crf.pom1 += sign;
        ++g_pairs;
    }

    // Post-processing: multiply histogram counts by their bases and
    // scale by the per-tensor constants (the OPP's serial phase).
    double soi = 0.0;
    for (size_t e = 0; e < 2 * h - 1; ++e)
        soi += crf.soi[e] * exp.power(e);
    double soa1 = 0.0, sow1 = 0.0;
    for (size_t i = 0; i < h; ++i) {
        soa1 += crf.soa1[i] * exp.power(i);
        sow1 += crf.sow1[i] * exp.power(i);
    }

    const double s_a = dict_a.scale(), s_w = dict_w.scale();
    const double b = exp.b();

    const double result =
        s_a * s_w * soi +
        s_a * s_w * b * (soa1 + sow1) +
        s_a * s_w * b * b * crf.pom1 +
        s_a * m_w * (ca.soa2 + b * ca.pom2) +
        s_w * m_a * (cw.soa2 + b * cw.pom2) +
        static_cast<double>(k) * m_a * m_w +
        ot_acc;

    if (stats)
        stats->add(g_pairs, ot_pairs);
    if (crf_out)
        *crf_out = crf;
    return result;
}

Tensor
indexMatmulTransBReference(const QuantizedTensor &a,
                           const QuantizedTensor &wt,
                           IndexMatmulStats *stats)
{
    MOKEY_ASSERT(a.cols() == wt.cols(),
                 "index matmul reduction mismatch: %zu vs %zu",
                 a.cols(), wt.cols());
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const ExpDictionary &exp = a.dictionary().exp();

    // Pairing-independent sums: per activation row and per weight
    // column (row of Wt). In hardware these are produced while the
    // previous layer's output is quantized (rows) and at compile time
    // (columns).
    std::vector<VectorConstants> row_c(m), col_c(n);
    for (size_t i = 0; i < m; ++i)
        row_c[i] = vectorConstants(a.row(i), k, exp);
    for (size_t j = 0; j < n; ++j)
        col_c[j] = vectorConstants(wt.row(j), k,
                                   wt.dictionary().exp());

    Tensor out(m, n);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            out.at(i, j) = static_cast<float>(
                indexDot(a.row(i), a.dictionary(), wt.row(j),
                         wt.dictionary(), k, row_c[i], col_c[j],
                         stats));
        }
    }
    return out;
}

GemmConstants
gemmConstants(const TensorDictionary &da, const TensorDictionary &dw,
              size_t k)
{
    const ExpDictionary &exp = da.exp();
    MOKEY_ASSERT(exp.a() == dw.exp().a() &&
                 exp.b() == dw.exp().b(),
                 "operands use different exponential dictionaries");
    MOKEY_ASSERT(exp.indexCount() <= kMaxGaussianIndexes,
                 "index space %zu exceeds CRF capacity",
                 exp.indexCount());

    GemmConstants ctx;
    ctx.k = k;
    ctx.sA = da.scale();
    ctx.sW = dw.scale();
    ctx.mA = da.mean();
    ctx.mW = dw.mean();
    ctx.c0 = ctx.sA * ctx.sW;
    ctx.constTerm = static_cast<double>(ctx.k) * ctx.mA * ctx.mW;
    const size_t h = exp.indexCount();
    for (size_t i = 0; i < h; ++i)
        ctx.mags[i] = exp.magnitude(i);
    for (size_t ia = 0; ia < kMaxGaussianIndexes; ++ia)
        for (size_t iw = 0; iw < kMaxGaussianIndexes; ++iw)
            ctx.prod[(ia << 3) | iw] = ctx.mags[ia] * ctx.mags[iw];
    return ctx;
}

namespace
{

/**
 * Small sharded LRU behind cachedGemmConstants(). The key is the
 * complete set of value inputs to gemmConstants() — two dictionaries'
 * (scale, mean), the shared exponential dictionary's (a, b,
 * indexCount), and K — so two keys that compare equal derive
 * bit-identical constants and a collision is by construction
 * impossible to observe. Sharding by key hash keeps concurrent lanes
 * off each other's mutex; each shard is a tiny move-to-front vector
 * (attention sites produce one K per (layer, seq) — a handful of
 * live keys per serving mix).
 */
struct GemmKey
{
    double sA, mA, sW, mW, expA, expB;
    size_t h, k;

    bool operator==(const GemmKey &o) const
    {
        return sA == o.sA && mA == o.mA && sW == o.sW &&
               mW == o.mW && expA == o.expA && expB == o.expB &&
               h == o.h && k == o.k;
    }
};

class GemmConstantsCache
{
  public:
    static GemmConstantsCache &global()
    {
        static GemmConstantsCache cache;
        return cache;
    }

    GemmConstants get(const TensorDictionary &da,
                      const TensorDictionary &dw, size_t k)
    {
        const ExpDictionary &exp = da.exp();
        const GemmKey key{da.scale(), da.mean(),  dw.scale(),
                          dw.mean(),  exp.a(),    exp.b(),
                          exp.indexCount(),       k};
        Shard &shard = shards[hashKey(key) % kShards];
        {
            std::lock_guard<std::mutex> lk(shard.mu);
            for (size_t i = 0; i < shard.entries.size(); ++i) {
                if (shard.entries[i].key == key) {
                    if (i != 0)
                        std::rotate(shard.entries.begin(),
                                    shard.entries.begin() + i,
                                    shard.entries.begin() + i + 1);
                    hits.fetch_add(1, std::memory_order_relaxed);
                    return shard.entries.front().value;
                }
            }
        }
        // Derive outside the shard lock — the derivation is pure, so
        // two lanes racing the same key just both insert equal
        // values.
        const GemmConstants value = gemmConstants(da, dw, k);
        misses.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(shard.mu);
        if (shard.entries.size() >= kPerShard)
            shard.entries.pop_back();
        shard.entries.insert(shard.entries.begin(), {key, value});
        return value;
    }

    uint64_t hitCount() const
    {
        return hits.load(std::memory_order_relaxed);
    }

    uint64_t missCount() const
    {
        return misses.load(std::memory_order_relaxed);
    }

  private:
    static constexpr size_t kShards = 8;
    static constexpr size_t kPerShard = 8;

    struct Entry
    {
        GemmKey key;
        GemmConstants value;
    };

    struct Shard
    {
        std::mutex mu;
        std::vector<Entry> entries;
    };

    static size_t hashKey(const GemmKey &key)
    {
        // FNV-1a over the key bytes' value-defining fields; doubles
        // hashed by bit pattern (keys are compared by ==, so -0.0 vs
        // 0.0 landing in different shards is merely a missed hit).
        uint64_t h = 1469598103934665603ull;
        const auto mix = [&h](uint64_t v) {
            h = (h ^ v) * 1099511628211ull;
        };
        const auto mixd = [&](double d) {
            uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            mix(bits);
        };
        mixd(key.sA);
        mixd(key.mA);
        mixd(key.sW);
        mixd(key.mW);
        mixd(key.expA);
        mixd(key.expB);
        mix(key.h);
        mix(key.k);
        return static_cast<size_t>(h);
    }

    std::array<Shard, kShards> shards;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
};

} // anonymous namespace

GemmConstants
cachedGemmConstants(const TensorDictionary &da,
                    const TensorDictionary &dw, size_t k)
{
    return GemmConstantsCache::global().get(da, dw, k);
}

uint64_t
gemmConstantsCacheHits()
{
    return GemmConstantsCache::global().hitCount();
}

uint64_t
gemmConstantsCacheMisses()
{
    return GemmConstantsCache::global().missCount();
}

namespace
{

/**
 * One engine dot product over the mag planes and outlier sidecars.
 *
 * The GPE histogram algebra collapses exactly: a Gaussian pair's
 * online terms
 *   s_a s_w (a^(ia+iw) + b a^ia + b a^iw + b^2) * sign
 * factor into  c0 * [th_a (a^ia + b)] * [th_w (a^iw + b)], i.e. the
 * product of the two mag-plane entries — so the whole branchy
 * histogram sweep plus exp.power() post-processing becomes one
 * vectorized dot product (outlier slots hold 0 and vanish). The CRF
 * histogram model itself lives on in indexDot(), which the property
 * tests hold this engine to.
 *
 * OPP: merge the column-sorted sidecars; each entry is one real MAC
 * plus the exact correction for what the precomputed terms already
 * counted.
 *
 * noinline on purpose: a single instantiation guarantees identical
 * FP contraction for every caller, which the bit-parity guarantee
 * (scalar == tiled == any thread count) depends on.
 */
__attribute__((noinline)) double
engineDot(const GemmConstants &ctx, const double *ma,
          const CodePlanes::Outlier *oa, size_t na, const double *mw,
          const CodePlanes::Outlier *ow, size_t nw, double row_term,
          double col_term, uint64_t &ot_pairs)
{
    const double gpe = ctx.c0 * dotDD(ma, mw, ctx.k);

    double ot_acc = 0.0;
    size_t x = 0, y = 0;
    uint64_t both = 0;
    while (x < na && y < nw) {
        if (oa[x].col == ow[y].col) {
            ot_acc += oa[x].value * ow[y].value - ctx.mA * ctx.mW;
            ++both;
            ++x;
            ++y;
        } else if (oa[x].col < ow[y].col) {
            const uint32_t c = oa[x].col;
            const double wv = mw[c] * ctx.sW + ctx.mW;
            ot_acc += (oa[x].value - ctx.mA) * wv;
            ++x;
        } else {
            const uint32_t c = ow[y].col;
            const double av = ma[c] * ctx.sA + ctx.mA;
            ot_acc += (ow[y].value - ctx.mW) * av;
            ++y;
        }
    }
    for (; x < na; ++x) {
        const uint32_t c = oa[x].col;
        const double wv = mw[c] * ctx.sW + ctx.mW;
        ot_acc += (oa[x].value - ctx.mA) * wv;
    }
    for (; y < nw; ++y) {
        const uint32_t c = ow[y].col;
        const double av = ma[c] * ctx.sA + ctx.mA;
        ot_acc += (ow[y].value - ctx.mW) * av;
    }
    ot_pairs += na + nw - both;

    return gpe + row_term + col_term + ctx.constTerm + ot_acc;
}

/**
 * One counting-engine dot product over the byte planes and outlier
 * sidecars — the paper's GPE/OPP dataflow run literally:
 *
 * GPE: accumulate the signed 64-bin histogram of joint (ia, iw)
 * index counts (pairHistogram: 3 b index adds + theta-XOR signs in
 * hardware; SIMD bucket adds here), then post-process with ONE
 * multiply per dictionary pair — the 64-entry dot against the
 * decoded magnitude products. Because theta is 0 at outlier slots,
 * outlier pairs vanish from the histogram by construction (the
 * convention planes() asserts). The histogram phase is exact
 * integer arithmetic; the collapse is a fixed-order loop, so every
 * output element is a deterministic function of the codes alone.
 *
 * OPP: identical sidecar merge to the mag engine, with the Gaussian
 * partner decoded from its byte planes (theta * mags[idx] * s + m).
 *
 * noinline for the same reason as engineDot: one instantiation =
 * one FP contraction order for every caller.
 */
__attribute__((noinline)) double
countingDot(const GemmConstants &cc, const uint8_t *ia,
            const int8_t *ta, const CodePlanes::Outlier *oa,
            size_t na, const uint8_t *iw, const int8_t *tw,
            const CodePlanes::Outlier *ow, size_t nw,
            double row_term, double col_term, uint64_t &ot_pairs)
{
    const GemmConstants &ctx = cc;

    int32_t hist[kMaxGaussianIndexes * kMaxGaussianIndexes];
    pairHistogram(ia, ta, iw, tw, ctx.k, hist);
    double gsum = 0.0;
    for (size_t b = 0; b < cc.prod.size(); ++b)
        gsum += hist[b] * cc.prod[b];
    const double gpe = ctx.c0 * gsum;

    double ot_acc = 0.0;
    size_t x = 0, y = 0;
    uint64_t both = 0;
    while (x < na && y < nw) {
        if (oa[x].col == ow[y].col) {
            ot_acc += oa[x].value * ow[y].value - ctx.mA * ctx.mW;
            ++both;
            ++x;
            ++y;
        } else if (oa[x].col < ow[y].col) {
            const uint32_t c = oa[x].col;
            const double wv =
                tw[c] * cc.mags[iw[c]] * ctx.sW + ctx.mW;
            ot_acc += (oa[x].value - ctx.mA) * wv;
            ++x;
        } else {
            const uint32_t c = ow[y].col;
            const double av =
                ta[c] * cc.mags[ia[c]] * ctx.sA + ctx.mA;
            ot_acc += (ow[y].value - ctx.mW) * av;
            ++y;
        }
    }
    for (; x < na; ++x) {
        const uint32_t c = oa[x].col;
        const double wv = tw[c] * cc.mags[iw[c]] * ctx.sW + ctx.mW;
        ot_acc += (oa[x].value - ctx.mA) * wv;
    }
    for (; y < nw; ++y) {
        const uint32_t c = ow[y].col;
        const double av = ta[c] * cc.mags[ia[c]] * ctx.sA + ctx.mA;
        ot_acc += (ow[y].value - ctx.mW) * av;
    }
    ot_pairs += na + nw - both;

    return gpe + row_term + col_term + ctx.constTerm + ot_acc;
}

/**
 * Weight-tile width, and the column width of the GEMM tile grid:
 * a tile's ~8*kTileN*k mag-plane bytes stay L2-resident while every
 * row of a band reuses them, and a 768-column decode GEMM still has
 * 24 tiles to spread over the pool.
 */
constexpr size_t kTileN = 32;

/**
 * The tile walker of every index GEMM: fills the (m x n) row-major
 * @p out with one engineDot (Mag) or countingDot (Count) call per
 * element, over parallelForTiles()' (row band x kTileN weight tile)
 * grid — or, when @p parallel is false, as one rectangle on the
 * calling thread. @p pa / @p pw must hold @p engine's planes.
 * Each element is one call of the same noinline dot whatever the
 * partition, so the output is bit-identical for every thread count,
 * lane and parallel setting. Pair counts are published once per
 * rectangle; their totals are integer sums, independent of order.
 */
void
walkTiles(const GemmConstants &ctx, IndexEngine engine,
          const CodePlanes &pa, const CodePlanes &pw,
          const double *row_term, const double *col_term, float *out,
          IndexMatmulStats *stats, bool parallel, Lane lane)
{
    const size_t m = pa.rows, n = pw.rows, k = ctx.k;
    const bool mag = engine == IndexEngine::Mag;
    const auto rect = [&](size_t i0, size_t i1, size_t j0, size_t j1) {
        uint64_t ot_pairs = 0;
        // Tile over the weight rows so a kTileN-row plane block is
        // reused by every activation row of the band.
        for (size_t jb = j0; jb < j1; jb += kTileN) {
            const size_t jhi = std::min(jb + kTileN, j1);
            for (size_t i = i0; i < i1; ++i) {
                float *orow = out + i * n;
                const CodePlanes::Outlier *oa = pa.outlierRow(i);
                const size_t na = pa.outlierCount(i);
                if (mag) {
                    const double *ma = pa.magRow(i);
                    for (size_t j = jb; j < jhi; ++j) {
                        orow[j] = static_cast<float>(engineDot(
                            ctx, ma, oa, na, pw.magRow(j),
                            pw.outlierRow(j), pw.outlierCount(j),
                            row_term[i], col_term[j], ot_pairs));
                    }
                } else {
                    const uint8_t *ia = pa.indexRow(i);
                    const int8_t *ta = pa.thetaRow(i);
                    for (size_t j = jb; j < jhi; ++j) {
                        orow[j] = static_cast<float>(countingDot(
                            ctx, ia, ta, oa, na, pw.indexRow(j),
                            pw.thetaRow(j), pw.outlierRow(j),
                            pw.outlierCount(j), row_term[i],
                            col_term[j], ot_pairs));
                    }
                }
            }
        }
        if (stats) {
            const uint64_t pairs =
                static_cast<uint64_t>(i1 - i0) * (j1 - j0) * k;
            stats->add(pairs - ot_pairs, ot_pairs);
        }
    };
    if (parallel)
        parallelForTiles(lane, m, n, kTileN, k, rect);
    else
        rect(0, m, 0, n);
}

/**
 * The unfused GEMM under a resolved @p engine: the mag engine streams
 * the mag planes, the counting engine only the byte planes (2 B per
 * element resident, never the 8 B mag plane).
 */
Tensor
engineMatmul(const QuantizedTensor &a, const QuantizedTensor &wt,
             IndexEngine engine, IndexMatmulStats *stats,
             bool tiled_parallel, Lane lane = {})
{
    MOKEY_ASSERT(a.cols() == wt.cols(),
                 "index matmul reduction mismatch: %zu vs %zu",
                 a.cols(), wt.cols());
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const GemmConstants ctx =
        cachedGemmConstants(a.dictionary(), wt.dictionary(), k);

    // Materialize both plane views on this thread before fanning
    // out; hold the owning pointers so a concurrent plane-set
    // upgrade on a shared tensor cannot free them mid-GEMM.
    const bool mag = engine == IndexEngine::Mag;
    const PlaneSet need = mag ? PlaneSet::Mag : PlaneSet::Bytes;
    const auto pa_sp = a.planesShared(need);
    const auto pw_sp = wt.planesShared(need);
    const CodePlanes &pa = *pa_sp;
    const CodePlanes &pw = *pw_sp;

    // Pairing-independent sums folded straight into per-row/-column
    // scalar terms of the reconstruction. The seed's SoA2 + b*PoM2
    // is exactly the mag-plane row sum,
    //   sum th (a^i) + b sum th  =  sum th (a^i + b),
    // and, over the byte planes, the per-row signed index histogram
    // collapse sum_i h[i] * mags[i].
    // Folded per call on purpose: this unfused entry point is what the
    // frozen layer-at-a-time replica in tests/reference/ runs, and the
    // fused graph walk (which reads the planes' precomputed
    // magRowSum / byteRowSum) is tested and benchmarked against it;
    // the shared helpers guarantee the arithmetic order matches bit
    // for bit.
    std::vector<double> row_term(m), col_term(n);
    const auto fold = [&ctx, mag, k](const CodePlanes &p, size_t r) {
        return mag ? magPlaneRowSum(p.magRow(r), k)
                   : bytePlaneRowSum(p.indexRow(r), p.thetaRow(r), k,
                                     ctx.mags.data());
    };
    // The scalar path must honour its contract of never touching the
    // pool, so the fold loops are serial there too; per-element
    // results are identical either way.
    const auto foldRows = [&](size_t i) {
        row_term[i] = ctx.sA * ctx.mW * fold(pa, i);
    };
    const auto foldCols = [&](size_t j) {
        col_term[j] = ctx.sW * ctx.mA * fold(pw, j);
    };
    if (tiled_parallel) {
        parallelFor(lane, 0, m, 16, foldRows);
        parallelFor(lane, 0, n, 16, foldCols);
    } else {
        for (size_t i = 0; i < m; ++i)
            foldRows(i);
        for (size_t j = 0; j < n; ++j)
            foldCols(j);
    }

    Tensor out(m, n);
    walkTiles(ctx, engine, pa, pw, row_term.data(), col_term.data(),
              out.data(), stats, tiled_parallel, lane);
    return out;
}

} // anonymous namespace

Tensor
indexMatmulTransB(const QuantizedTensor &a, const QuantizedTensor &wt,
                  IndexMatmulStats *stats, Lane lane)
{
    return engineMatmul(a, wt, resolveIndexEngine(a, wt), stats, true,
                        lane);
}

Tensor
indexMatmulTransBScalar(const QuantizedTensor &a,
                        const QuantizedTensor &wt,
                        IndexMatmulStats *stats)
{
    return engineMatmul(a, wt, resolveIndexEngine(a, wt), stats, false);
}

Tensor
indexMatmulTransBMag(const QuantizedTensor &a,
                     const QuantizedTensor &wt,
                     IndexMatmulStats *stats, Lane lane)
{
    return engineMatmul(a, wt, IndexEngine::Mag, stats, true, lane);
}

Tensor
indexMatmulTransBCounting(const QuantizedTensor &a,
                          const QuantizedTensor &wt,
                          IndexMatmulStats *stats, Lane lane)
{
    return engineMatmul(a, wt, IndexEngine::Count, stats, true, lane);
}

Tensor
indexMatmulTransBCountingScalar(const QuantizedTensor &a,
                                const QuantizedTensor &wt,
                                IndexMatmulStats *stats)
{
    return engineMatmul(a, wt, IndexEngine::Count, stats, false);
}

std::vector<Tensor>
indexMatmulTransBBatched(const std::vector<const QuantizedTensor *> &as,
                         const QuantizedTensor &wt,
                         IndexMatmulStats *stats, Lane lane)
{
    if (as.empty())
        return {};
    if (as.size() == 1)
        return {indexMatmulTransB(*as[0], wt, stats, lane)};

    const QuantizedTensor stacked = concatQuantizedRows(as);
    const Tensor out = indexMatmulTransB(stacked, wt, stats, lane);

    // Split the stacked output back into per-request tensors. Each
    // output row was produced by exactly the codes of its own
    // request, so the rows equal the standalone results bit for bit.
    std::vector<Tensor> parts;
    parts.reserve(as.size());
    size_t r0 = 0;
    for (const QuantizedTensor *a : as) {
        Tensor t(a->rows(), out.cols());
        std::memcpy(t.data(), out.row(r0),
                    a->rows() * out.cols() * sizeof(float));
        parts.push_back(std::move(t));
        r0 += a->rows();
    }
    return parts;
}

FusedGemmOut
indexMatmulTransBFused(const QuantizedTensor &a,
                       const QuantizedTensor &wt, IndexEngine engine,
                       const FusedRowEpilogue &epilogue,
                       const TensorDictionary *outDict,
                       PlaneSet outSets, bool keepDense,
                       const GemmConstants *constants,
                       IndexMatmulStats *stats, Lane lane)
{
    MOKEY_ASSERT(a.cols() == wt.cols(),
                 "index matmul reduction mismatch: %zu vs %zu",
                 a.cols(), wt.cols());
    MOKEY_ASSERT(engine != IndexEngine::Auto,
                 "fused GEMM needs a resolved engine "
                 "(resolveIndexEngine per site)");
    MOKEY_ASSERT(outDict != nullptr || keepDense,
                 "fused GEMM would discard its output");
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const GemmConstants ctx = constants
        ? *constants
        : cachedGemmConstants(a.dictionary(), wt.dictionary(), k);
    MOKEY_ASSERT(ctx.k == k, "hoisted constants built for K=%zu, "
                 "GEMM has K=%zu", ctx.k, k);

    const bool mag_eng = engine == IndexEngine::Mag;
    const PlaneSet need =
        mag_eng ? PlaneSet::Mag : PlaneSet::Bytes;
    const auto pa_sp = a.planesShared(need);
    const auto pw_sp = wt.planesShared(need);
    const CodePlanes &pa = *pa_sp;
    const CodePlanes &pw = *pw_sp;

    // The tentpole saving: the pairing-independent SoA2 + b*PoM2
    // folds were computed once when these planes were encoded or
    // derived, in this engine's own arithmetic order — here they
    // collapse to one multiply per row/column instead of an O(k)
    // re-fold per GEMM call (the column fold alone is ~half the
    // work of an m=1 decode GEMM).
    const std::vector<double> &a_sum =
        mag_eng ? pa.magRowSum : pa.byteRowSum;
    const std::vector<double> &w_sum =
        mag_eng ? pw.magRowSum : pw.byteRowSum;
    MOKEY_ASSERT(a_sum.size() == m && w_sum.size() == n,
                 "planes lack their precomputed fold sums");
    std::vector<double> row_term(m), col_term(n);
    for (size_t i = 0; i < m; ++i)
        row_term[i] = ctx.sA * ctx.mW * a_sum[i];
    for (size_t j = 0; j < n; ++j)
        col_term[j] = ctx.sW * ctx.mA * w_sum[j];

    const bool obytes =
        outDict && planeSetCovers(outSets, PlaneSet::Bytes);
    const bool omag =
        outDict && planeSetCovers(outSets, PlaneSet::Mag);
    LadderSpec lad;
    std::shared_ptr<CodePlanes> op;
    std::vector<std::vector<CodePlanes::Outlier>> row_ot;
    if (outDict) {
        MOKEY_ASSERT(obytes || omag,
                     "fused encode needs a dense plane set");
        lad = LadderSpec::from(*outDict);
        op = std::make_shared<CodePlanes>();
        op->rows = m;
        op->cols = n;
        op->sets = outSets;
        if (obytes) {
            op->index.resize(m * n);
            op->theta.resize(m * n);
            op->byteRowSum.resize(m);
        }
        if (omag) {
            op->mag.resize(m * n);
            op->magRowSum.resize(m);
        }
        row_ot.resize(m);
    }

    // Without keepDense the float output is transient scratch:
    // encoded planes leave this call, the floats do not.
    Tensor dense(m, n);
    // Identical tile walk (and identical noinline dot kernels) to
    // indexMatmulTransB() — only the source of the row/column terms
    // differs, and those are bit-equal.
    walkTiles(ctx, engine, pa, pw, row_term.data(), col_term.data(),
              dense.data(), stats, true, lane);

    // Epilogue + re-quantization, one pass over the finished rows:
    // the plane-to-plane handoff of the fused graph. A row's tiles
    // may have run on several threads; this pass starts after all
    // of them.
    parallelForRange(lane, 0, m, grainFor(n), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            float *vals = dense.row(i);
            if (epilogue)
                epilogue(i, vals, n);
            if (outDict) {
                uint8_t *ix =
                    obytes ? op->index.data() + i * n : nullptr;
                int8_t *th =
                    obytes ? op->theta.data() + i * n : nullptr;
                double *mg =
                    omag ? op->mag.data() + i * n : nullptr;
                lad.encodeRow(vals, n, ix, th, mg, row_ot[i]);
                if (omag)
                    op->magRowSum[i] = magPlaneRowSum(mg, n);
                if (obytes)
                    op->byteRowSum[i] =
                        bytePlaneRowSum(ix, th, n, lad.foldMags);
            }
        }
    });

    FusedGemmOut out;
    if (keepDense)
        out.dense = std::move(dense);
    if (outDict) {
        // Row-order sidecar stitch, identical to encodeToPlanes().
        op->rowStart.assign(m + 1, 0);
        size_t total = 0;
        for (size_t r = 0; r < m; ++r) {
            total += row_ot[r].size();
            op->rowStart[r + 1] = static_cast<uint32_t>(total);
        }
        op->outliers.reserve(total);
        for (size_t r = 0; r < m; ++r)
            op->outliers.insert(op->outliers.end(),
                                row_ot[r].begin(), row_ot[r].end());
#ifndef NDEBUG
        if (obytes) {
            for (size_t r = 0; r < m; ++r) {
                for (size_t i = 0; i < op->outlierCount(r); ++i) {
                    const uint32_t c = op->outlierRow(r)[i].col;
                    MOKEY_ASSERT(op->indexRow(r)[c] == 0 &&
                                     op->thetaRow(r)[c] == 0,
                                 "fused outlier slot (%zu, %u) "
                                 "violates the zero-index/zero-sign "
                                 "plane convention", r, c);
                }
            }
        }
#endif
        out.planes =
            QuantizedTensor::fromPlanes(std::move(op), *outDict);
    }
    return out;
}

Tensor
decodedMatmulTransB(const QuantizedTensor &a, const QuantizedTensor &wt)
{
    MOKEY_ASSERT(a.cols() == wt.cols(), "shape mismatch");
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    Tensor out(m, n);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < k; ++p)
                acc += a.decodeAt(i, p) * wt.decodeAt(j, p);
            out.at(i, j) = static_cast<float>(acc);
        }
    }
    return out;
}

} // namespace mokey
