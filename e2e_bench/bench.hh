/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the set-up of
 * one served model, the metric list a run prints, and the probes the
 * workloads share.
 *
 * The benchmark only calls the library's public API. Every span it
 * records wraps a call into a module from this directory's files;
 * nothing inside the library is instrumented.
 */

#ifndef MOKEY_E2E_BENCH_HH
#define MOKEY_E2E_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/pipeline.hh"
#include "model/transformer.hh"
#include "quant/quantizer.hh"

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Peak resident set size of this process in MB (VmHWM). */
double peakRssMb();

/** Command-line options (see main.cc for the syntax). */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Wall time of each set-up phase; they sum to the set-up time. */
struct SetupSpans
{
    double model = 0, quantizer = 0, quantizeWeights = 0, profile = 0,
           firstForward = 0;

    double total() const
    {
        return model + quantizer + quantizeWeights + profile +
            firstForward;
    }
};

/**
 * One served model: the float reference, the quantizer and the
 * quantized pipeline. The quantizer is a named member because the
 * pipeline keeps a reference to it; members are destroyed in reverse
 * order, so the pipeline goes first.
 */
struct Served
{
    std::unique_ptr<mokey::Transformer> model;
    std::unique_ptr<mokey::Quantizer> quantizer;
    std::unique_ptr<mokey::QuantizedTransformer> pipe;
    SetupSpans spans;
};

/**
 * Build the BERT-base model, quantizer and pipeline, profile it and
 * run the first W+A forward. The weights and the profiling batch are
 * fixed (they are the deployed model, not the workload's input).
 */
std::unique_ptr<Served> setUp();

/** Latency limits a request must meet to count toward goodput. */
constexpr double kDecodeLimitMs = 1000.0;
constexpr double kPrefillLimitMs = 5000.0;

/** Requests with at most this many rows are decode class (the
 * continuous scheduler's default decodeMaxRows). */
constexpr size_t kDecodeMaxRows = 4;

/** Relative L2 error accumulator of W+A outputs against fp32. */
struct RelErr
{
    double diff2 = 0, ref2 = 0;

    void add(const mokey::Tensor &got, const mokey::Tensor &ref);
    double value() const;
};

/** Bitwise equality of two tensors (shape and every float). */
bool sameBits(const mokey::Tensor &a, const mokey::Tensor &b);

/** Stack @p seqs into one row space; @p starts gets B+1 offsets. */
mokey::Tensor stack(const std::vector<mokey::Tensor> &seqs,
                    std::vector<size_t> &starts);

/** The closed-loop direct workloads (decode_s1, prefill_s128). */
void runDirect(const Options &opt, const Served &s, size_t rows,
               Report &rep);

/** The open-loop HTTP workload (serve_ragged). */
void runServe(const Options &opt, const Served &s, Report &rep);

/** Shape of one served request for the HTTP probes. */
struct RequestSpec
{
    size_t rows;
    double dueS; ///< scheduled send, seconds after the load starts
};

/**
 * Per-layer metrics of the scheduler and net layers, from one pass of
 * @p reqs through a traced InferenceServer. @p closedLoop sends each
 * request when the previous one returns, over one connection.
 */
void serveTraced(const Served &s, const std::vector<RequestSpec> &reqs,
                 uint64_t inputSeed, bool closedLoop, Report &rep);

/**
 * Per-layer metrics of the model, quantizer, GEMM and executor layers
 * at one stacked batch of sequences @p seqs, measured for about
 * @p budgetS seconds.
 */
void layerProbes(const Served &s, const std::vector<mokey::Tensor> &seqs,
                 double budgetS, Report &rep);

} // namespace e2e

#endif // MOKEY_E2E_BENCH_HH
