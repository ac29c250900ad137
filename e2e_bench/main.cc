/**
 * @file
 * End-to-end benchmark of the Mokey serving stack at BERT-base
 * geometry.
 *
 *   e2e_bench --workload <decode_s1|prefill_s128|serve_ragged>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Untraced runs print the end-to-end metrics; traced runs print the
 * per-layer metrics. The last line of standard output is one JSON
 * object {correct, attempted, failed, metrics}. The exit code is 0
 * only when every output check passed. See README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hh"
#include "common/parallel.hh"
#include "model/config.hh"
#include "model/continuous_scheduler.hh"
#include "quant/engine.hh"
#include "quant/exp_dictionary.hh"
#include "quant/golden_dictionary.hh"
#include "tensor/ops.hh"

extern char **environ;

namespace e2e
{

using namespace mokey;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

void
RelErr::add(const Tensor &got, const Tensor &ref)
{
    for (size_t i = 0; i < ref.size(); ++i) {
        const double d = static_cast<double>(got.data()[i]) -
            static_cast<double>(ref.data()[i]);
        diff2 += d * d;
        ref2 += static_cast<double>(ref.data()[i]) * ref.data()[i];
    }
}

double
RelErr::value() const
{
    return ref2 > 0 ? std::sqrt(diff2 / ref2) : NAN;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor
stack(const std::vector<Tensor> &seqs, std::vector<size_t> &starts)
{
    std::vector<const Tensor *> parts;
    starts.assign(1, 0);
    for (const Tensor &t : seqs) {
        parts.push_back(&t);
        starts.push_back(starts.back() + t.rows());
    }
    return concatRows(parts);
}

std::unique_ptr<Served>
setUp()
{
    auto s = std::make_unique<Served>();
    auto t = Clock::now();
    const auto lap = [&t]() {
        const auto now = Clock::now();
        const double d = secondsBetween(t, now);
        t = now;
        return d;
    };
    s->model = std::make_unique<Transformer>(bertBase(), 42);
    s->spans.model = lap();
    s->quantizer = std::make_unique<Quantizer>(
        ExpDictionary::fit(GoldenDictionary::generate({})));
    s->spans.quantizer = lap();
    s->pipe = std::make_unique<QuantizedTransformer>(*s->model,
                                                     *s->quantizer);
    s->pipe->quantizeWeights();
    s->spans.quantizeWeights = lap();
    std::vector<Tensor> batch;
    for (uint64_t i = 0; i < 8; ++i)
        batch.push_back(s->model->makeInput(32, 100 + i));
    s->pipe->profileActivations(batch);
    s->spans.profile = lap();
    const Tensor out = s->pipe->forward(s->model->makeInput(1, 99),
                                        QuantMode::WeightsAndActivations);
    s->spans.firstForward = lap();
    const bool finite = std::all_of(out.raw().begin(), out.raw().end(),
                                    [](float v) { return std::isfinite(v); });
    if (out.rows() != 1 || !finite) {
        std::fprintf(stderr, "first W+A forward failed\n");
        std::exit(1);
    }
    return s;
}

} // namespace e2e

namespace
{

using namespace e2e;

/** Set-ups per run; setup_s reports their median. */
constexpr int kSetups = 2;

bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool trace_set = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            opt.workload = v;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*end || !(opt.seconds > 0) || opt.seconds > 120)
                return false;
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return false;
            opt.trace = v[0] == '1';
            trace_set = true;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && trace_set &&
        (opt.workload == "decode_s1" ||
         opt.workload == "prefill_s128" ||
         opt.workload == "serve_ragged");
}

/** The default program only: any MOKEY_* knob would change it. */
bool
knobsUnset()
{
    bool clean = true;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "MOKEY_", 6) == 0) {
            std::fprintf(stderr, "refusing to run with %s set\n", *e);
            clean = false;
        }
    }
    return clean;
}


void
printJson(const Report &rep)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                rep.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : -1.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload <decode_s1|prefill_s128|"
                     "serve_ragged> --seed <n> --seconds <s> "
                     "--trace <0|1>\n",
                     argv[0]);
        return 2;
    }
    if (!knobsUnset())
        return 2;

    const ContinuousSchedulerConfig sc;
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("# threads=%zu engine=%s graphFuse=%d "
                "fusedActEncode=%d scheduler={maxBatch=%zu "
                "decodeMaxRows=%zu decodeTokens=%zu chunkTokens=%zu "
                "decodePriority=%d}\n",
                mokey::threadCount(),
                mokey::indexEngineName(mokey::indexEngine()),
                mokey::graphFuse() ? 1 : 0,
                mokey::fusedActEncode() ? 1 : 0, sc.maxBatch,
                sc.decodeMaxRows, sc.decodeTokens, sc.chunkTokens,
                sc.decodePriority ? 1 : 0);

    // Set up several times and keep the last model; the phase spans
    // of the median set-up (mean of the middle two for an even count)
    // sum to the reported set-up time.
    std::vector<SetupSpans> spans;
    std::unique_ptr<Served> served;
    for (int i = 0; i < kSetups; ++i) {
        served.reset();
        served = setUp();
        spans.push_back(served->spans);
    }
    std::sort(spans.begin(), spans.end(),
              [](const SetupSpans &a, const SetupSpans &b) {
                  return a.total() < b.total();
              });
    const SetupSpans &lo = spans[(spans.size() - 1) / 2];
    const SetupSpans &hi = spans[spans.size() / 2];
    const auto mid = [](double a, double b) { return (a + b) / 2; };
    const SetupSpans setup{
        mid(lo.model, hi.model), mid(lo.quantizer, hi.quantizer),
        mid(lo.quantizeWeights, hi.quantizeWeights),
        mid(lo.profile, hi.profile),
        mid(lo.firstForward, hi.firstForward)};
    for (const SetupSpans &sp : spans)
        std::printf("# setup %.3f s = model %.3f + quantizer %.3f + "
                    "quantize_weights %.3f + profile %.3f + "
                    "first_forward %.3f\n",
                    sp.total(), sp.model, sp.quantizer,
                    sp.quantizeWeights, sp.profile, sp.firstForward);
    std::fflush(stdout);

    Report rep;
    const size_t rows = opt.workload == "decode_s1" ? 1
        : opt.workload == "prefill_s128"            ? 128
                                                    : 0;
    if (!opt.trace) {
        rep.add("setup_s", setup.total(), "s");
        if (rows)
            runDirect(opt, *served, rows, rep);
        else
            runServe(opt, *served, rep);
        rep.add("rss_mb", peakRssMb(), "MB");
    } else {
        rep.add("setup.model_s", setup.model, "s");
        rep.add("setup.quantizer_s", setup.quantizer, "s");
        rep.add("setup.quantize_weights_s", setup.quantizeWeights, "s");
        rep.add("setup.profile_s", setup.profile, "s");
        rep.add("setup.first_forward_s", setup.firstForward, "s");
        if (rows) {
            const mokey::Tensor x =
                served->model->makeInput(rows, opt.seed * 1000 + 1);
            layerProbes(*served, {x}, opt.seconds / 2, rep);
            // The workload's own request shape through a traced
            // server, closed loop, for the scheduler and net metrics.
            const std::vector<RequestSpec> reqs(rows == 1 ? 8 : 2,
                                                RequestSpec{rows, 0.0});
            serveTraced(*served, reqs, opt.seed, /*closedLoop=*/true,
                        rep);
        } else {
            runServe(opt, *served, rep);
        }
    }
    const uint64_t attempted = std::max<uint64_t>(1, rep.attempted);
    std::printf("# fail_frac=%.6f (%llu of %llu failed)\n",
                static_cast<double>(rep.failed) /
                    static_cast<double>(attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    printJson(rep);
    return rep.failed == 0 ? 0 : 1;
}
