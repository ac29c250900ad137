/**
 * @file
 * The HTTP workload: requests go over loopback keep-alive connections
 * into an InferenceServer (default continuous scheduler, W+A), and a
 * sample of the served bodies is checked against in-process
 * forward().
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "common/rng.hh"
#include "net/http_client.hh"
#include "net/inference_server.hh"

namespace e2e
{

using namespace mokey;
using namespace mokey::net;

namespace
{

/**
 * Offered load of serve_ragged, just below the seed's knee (a probe
 * measured decode p50 94 ms at 2 req/s and 230 ms at 4 req/s).
 * Decode latency is bimodal: requests that overlap a prefill take about
 * twice as long. At 3 req/s about a third of them overlap one, and a
 * host slowdown of a tenth pushed that share past half, so the median
 * jumped between modes; 2.5 req/s keeps the median in the lower mode
 * and still puts p90 in the upper one.
 */
constexpr double kRatePerS = 2.5;
constexpr size_t kPrefillRows = 64;

/** Served bodies checked against in-process forward() per run. */
constexpr size_t kSampleDecode = 6;
constexpr size_t kSamplePrefill = 2;

/** One request of a load pass and what became of it. */
struct Record
{
    RequestSpec spec;
    Tensor input;
    std::string body;
    double encodeUs = 0, decodeUs = 0;
    double dueS = 0, sentS = 0, doneS = 0; ///< since the time base
    int status = 0;
    bool ok = false; ///< 200 and a well-formed body of the right shape
    std::string response;
};

/** One forwardStep call seen by the traced step function. */
struct StepSpan
{
    double startS, endS;
    size_t layer, rows;
    std::vector<uint64_t> firstRowKeys; ///< layer 0: one per sequence
};

struct LoadResult
{
    std::vector<Record> recs;
    double loadStartS = 0, lastDoneS = 0;
    std::vector<StepSpan> steps;
    std::vector<double> depth, rttUs;
    InferenceServerStats server;
    ContinuousSchedulerStats sched;
};

uint64_t
rowKey(const float *row, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    const auto *p = reinterpret_cast<const unsigned char *>(row);
    for (size_t i = 0; i < n * sizeof(float); ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

/**
 * The arrival schedule: a Poisson process from a fixed seed,
 * conditioned on its count (a fixed number of arrivals, uniform over
 * the window). Every eighth request, from the fourth on, is a
 * prefill; the rest are decodes of 1 or 2 rows.
 *
 * Both choices trade realism for steadiness. The workload seed changes
 * every request's input values but not the schedule, because near the
 * knee the burst pattern moves queueing delay far more than a code
 * change would. Prefills at random positions sometimes arrive
 * back to back and double each other's latency, which made
 * prefill_p50_ms and decode_p90_ms swing by a fifth between runs.
 */
std::vector<RequestSpec>
raggedSchedule(double seconds)
{
    Rng rng(0x5EED);
    const size_t n = std::max<size_t>(
        8, static_cast<size_t>(std::lround(kRatePerS * seconds)));
    std::vector<double> due(n);
    for (double &d : due)
        d = rng.uniform(0.0, seconds);
    std::sort(due.begin(), due.end());
    std::vector<RequestSpec> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back({i % 8 == 3 ? kPrefillRows : 1 + rng.uniformInt(2),
                       due[i]});
    return out;
}

LoadResult
runLoad(const Served &s, const std::vector<RequestSpec> &specs,
        uint64_t seed, bool closedLoop, bool traced)
{
    LoadResult res;
    const QuantizedTransformer &pipe = *s.pipe;
    const size_t hidden = pipe.modelConfig().hidden;
    for (size_t i = 0; i < specs.size(); ++i) {
        Record r;
        r.spec = specs[i];
        r.input = s.model->makeInput(specs[i].rows,
                                     seed * 1000003 + 17 + i);
        const auto a = Clock::now();
        r.body = encodeTensorBody(r.input);
        r.encodeUs = secondsBetween(a, Clock::now()) * 1e6;
        res.recs.push_back(std::move(r));
    }

    const auto base = Clock::now();
    std::mutex spanMu;
    std::vector<StepSpan> &steps = res.steps;
    StepForwardFn step = [&pipe, base, &spanMu, &steps](
                             size_t layer, const Tensor &stacked,
                             const std::vector<size_t> &starts,
                             QuantMode mode, Lane lane) {
        const auto a = Clock::now();
        Tensor out = pipe.forwardStep(layer, stacked, starts, mode, lane);
        const auto b = Clock::now();
        StepSpan sp{secondsBetween(base, a), secondsBetween(base, b),
                    layer, stacked.rows(), {}};
        if (layer == 0)
            for (size_t i = 0; i + 1 < starts.size(); ++i)
                sp.firstRowKeys.push_back(
                    rowKey(stacked.row(starts[i]), stacked.cols()));
        std::lock_guard<std::mutex> lk(spanMu);
        steps.push_back(std::move(sp));
        return out;
    };

    InferenceServerConfig icfg;
    std::unique_ptr<InferenceServer> server = traced
        ? std::make_unique<InferenceServer>(step, pipe.stepCount(),
                                            hidden, icfg)
        : std::make_unique<InferenceServer>(pipe, icfg);
    server->start();
    const uint16_t port = server->port();

    const size_t conns = closedLoop
        ? 1
        : std::max<size_t>(
              1, std::min<size_t>(std::thread::hardware_concurrency(),
                                  specs.size()));
    std::atomic<size_t> next{0};
    std::atomic<bool> loadDone{false};
    const auto start = Clock::now() + std::chrono::milliseconds(200);
    res.loadStartS = secondsBetween(base, start);

    std::vector<std::thread> workers;
    for (size_t c = 0; c < conns; ++c) {
        workers.emplace_back([&] {
            HttpClient cli("127.0.0.1", port);
            try {
                cli.get("/healthz"); // dial before the clock starts
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_until(start);
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= res.recs.size())
                    break;
                Record &r = res.recs[i];
                if (closedLoop) {
                    r.dueS = secondsBetween(base, Clock::now());
                } else {
                    r.dueS = res.loadStartS + r.spec.dueS;
                    std::this_thread::sleep_until(
                        base +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.dueS)));
                }
                r.sentS = secondsBetween(base, Clock::now());
                try {
                    const HttpResponse rsp =
                        cli.post("/v1/forward", r.body);
                    r.status = rsp.status;
                    r.response = rsp.body;
                } catch (const std::exception &) {
                    r.status = 0;
                    cli.close();
                }
                r.doneS = secondsBetween(base, Clock::now());
                if (r.status == 200) {
                    Tensor out;
                    const auto a = Clock::now();
                    const bool ok = decodeTensorBody(r.response, out);
                    r.decodeUs = secondsBetween(a, Clock::now()) * 1e6;
                    r.ok = ok && out.rows() == r.spec.rows &&
                        out.cols() == hidden;
                }
            }
        });
    }

    std::vector<std::thread> samplers;
    if (traced) {
        samplers.emplace_back([&] {
            while (!loadDone.load()) {
                res.depth.push_back(
                    static_cast<double>(server->queueDepth()));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        });
        samplers.emplace_back([&] {
            HttpClient cli("127.0.0.1", port);
            std::this_thread::sleep_until(start);
            while (!loadDone.load()) {
                const auto a = Clock::now();
                try {
                    if (cli.get("/healthz").status == 200)
                        res.rttUs.push_back(
                            secondsBetween(a, Clock::now()) * 1e6);
                } catch (const std::exception &) {
                    cli.close();
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    loadDone.store(true);
    for (std::thread &t : samplers)
        t.join();

    res.server = server->stats();
    res.sched = server->continuousSchedulerStats();
    server.reset();
    for (const Record &r : res.recs)
        res.lastDoneS = std::max(res.lastDoneS, r.doneS);
    return res;
}

double
latencyMs(const Record &r)
{
    return (r.doneS - r.dueS) * 1e3;
}

bool
isDecode(const Record &r)
{
    return r.spec.rows <= kDecodeMaxRows;
}

/**
 * Check a fixed-composition sample of served bodies against
 * in-process forward(); with @p rel, also time the W+A and fp32
 * forwards of the sample and fold W+A-vs-fp32 error into it.
 */
size_t
checkSample(const Served &s, const std::vector<Record> &recs,
            RelErr *rel, double *waRowsPerS, double *fpRowsPerS)
{
    size_t failed = 0, decode = 0, prefill = 0;
    double rows = 0, waS = 0, fpS = 0;
    for (const Record &r : recs) {
        size_t &taken = isDecode(r) ? decode : prefill;
        if (taken >= (isDecode(r) ? kSampleDecode : kSamplePrefill))
            continue;
        ++taken;
        const auto a = Clock::now();
        const Tensor wa =
            s.pipe->forward(r.input, QuantMode::WeightsAndActivations);
        const auto b = Clock::now();
        // A request that already failed is counted by countFailed().
        if (r.ok && r.response != encodeTensorBody(wa)) {
            std::printf("# served body %zu rows differs from "
                        "forward()\n",
                        r.spec.rows);
            ++failed;
        }
        if (!rel)
            continue;
        const auto c = Clock::now();
        const Tensor fp = s.model->forward(r.input);
        const auto d = Clock::now();
        rel->add(wa, fp);
        rows += static_cast<double>(r.spec.rows);
        waS += secondsBetween(a, b);
        fpS += secondsBetween(c, d);
    }
    if (rel) {
        *waRowsPerS = rows / waS;
        *fpRowsPerS = rows / fpS;
    }
    return failed;
}

void
layerMetrics(const LoadResult &res, Report &rep)
{
    // The scheduler runs one step at a time, so step spans never
    // overlap. The load window lasts until the last response or the
    // last step, whichever is later (a request the client gave up on
    // still runs to the end).
    std::vector<double> stepMs;
    double busyS = 0, rows = 0, endS = res.lastDoneS;
    for (const StepSpan &sp : res.steps) {
        stepMs.push_back((sp.endS - sp.startS) * 1e3);
        busyS += sp.endS - sp.startS;
        rows += static_cast<double>(sp.rows);
        endS = std::max(endS, sp.endS);
    }
    // Queue wait: send to the first layer-0 step holding the request,
    // matched by the bytes of its first input row.
    std::unordered_map<uint64_t, size_t> byKey;
    for (size_t i = 0; i < res.recs.size(); ++i)
        byKey[rowKey(res.recs[i].input.row(0),
                     res.recs[i].input.cols())] = i;
    std::vector<double> firstStep(res.recs.size(), -1.0);
    for (const StepSpan &sp : res.steps)
        for (uint64_t k : sp.firstRowKeys) {
            const auto it = byKey.find(k);
            if (it != byKey.end() && firstStep[it->second] < 0)
                firstStep[it->second] = sp.startS;
        }
    std::vector<double> waitMs, lateMs, codecUs;
    for (size_t i = 0; i < res.recs.size(); ++i) {
        const Record &r = res.recs[i];
        if (firstStep[i] >= 0)
            waitMs.push_back((firstStep[i] - r.sentS) * 1e3);
        lateMs.push_back((r.sentS - r.dueS) * 1e3);
        codecUs.push_back(r.encodeUs + r.decodeUs);
    }
    const double window = endS - res.loadStartS;
    rep.add("sched.step_ms_p50", median(stepMs), "ms");
    rep.add("sched.rows_per_step",
            stepMs.empty() ? 0.0 : rows / stepMs.size(), "rows");
    rep.add("sched.busy_frac", window > 0 ? busyS / window : 0.0,
            "ratio");
    rep.add("sched.wait_ms_p50", quantile(waitMs, 0.5), "ms");
    rep.add("sched.wait_ms_p90", quantile(waitMs, 0.9), "ms");
    rep.add("sched.queue_depth_p90", quantile(res.depth, 0.9), "count");
    rep.add("sched.prefill_deferrals",
            static_cast<double>(res.sched.prefillDeferrals), "count");
    rep.add("net.rtt_us", median(res.rttUs), "us");
    rep.add("net.codec_us", median(codecUs), "us");
    rep.add("net.shed", static_cast<double>(res.server.shed), "count");
    rep.add("net.failed", static_cast<double>(res.server.failed),
            "count");
    rep.add("net.expired", static_cast<double>(res.server.expired),
            "count");
    rep.add("gen.late_ms_p90", quantile(lateMs, 0.9), "ms");
    std::printf("# served %zu requests over %.2f s: %zu steps, %zu "
                "queue-depth samples, %zu healthz probes\n",
                res.recs.size(), window, res.steps.size(),
                res.depth.size(), res.rttUs.size());
}

size_t
countFailed(const std::vector<Record> &recs)
{
    size_t n = 0;
    for (const Record &r : recs) {
        if (r.ok)
            continue;
        std::printf("# request of %zu rows failed: status %d%s\n",
                    r.spec.rows, r.status,
                    r.status == 0 ? " (transport error or timeout)" : "");
        ++n;
    }
    return n;
}

} // namespace

void
serveTraced(const Served &s, const std::vector<RequestSpec> &reqs,
            uint64_t inputSeed, bool closedLoop, Report &rep)
{
    const LoadResult res = runLoad(s, reqs, inputSeed, closedLoop, true);
    layerMetrics(res, rep);
    rep.attempted += res.recs.size();
    rep.failed += countFailed(res.recs) +
        checkSample(s, res.recs, nullptr, nullptr, nullptr);
}

void
runServe(const Options &opt, const Served &s, Report &rep)
{
    const std::vector<RequestSpec> specs =
        raggedSchedule(opt.seconds);
    if (opt.trace) {
        serveTraced(s, specs, opt.seed, false, rep);
        // The model-side probes at a typical decode step of this mix:
        // eight stacked decode sequences of one or two rows.
        std::vector<Tensor> seqs;
        for (size_t i = 0; i < 8; ++i)
            seqs.push_back(
                s.model->makeInput(1 + i % 2, opt.seed * 1000 + 1 + i));
        layerProbes(s, seqs, 2.0, rep);
        return;
    }

    const LoadResult res = runLoad(s, specs, opt.seed, false, false);
    std::vector<double> decodeMs, prefillMs;
    size_t good = 0;
    for (const Record &r : res.recs) {
        if (!r.ok)
            continue;
        const double ms = latencyMs(r);
        (isDecode(r) ? decodeMs : prefillMs).push_back(ms);
        good += ms <= (isDecode(r) ? kDecodeLimitMs : kPrefillLimitMs);
    }
    RelErr rel;
    double waRows = 0, fpRows = 0;
    const size_t bad = countFailed(res.recs) +
        checkSample(s, res.recs, &rel, &waRows, &fpRows);
    if (!std::isfinite(rel.value()))
        ++rep.failed;
    rep.attempted += res.recs.size();
    rep.failed += bad;
    std::printf("# %zu decode and %zu prefill requests ok; "
                "%zu of %zu met their limit\n",
                decodeMs.size(), prefillMs.size(), good,
                res.recs.size());
    rep.add("wa_rows_per_s", waRows, "rows/s");
    rep.add("fp32_rows_per_s", fpRows, "rows/s");
    rep.add("wa_rel_err", rel.value(), "ratio");
    rep.add("decode_p50_ms", quantile(decodeMs, 0.5), "ms");
    rep.add("decode_p90_ms", quantile(decodeMs, 0.9), "ms");
    rep.add("prefill_p50_ms", quantile(prefillMs, 0.5), "ms");
    rep.add("goodput_rps",
            static_cast<double>(good) / (res.lastDoneS - res.loadStartS),
            "req/s");
}

} // namespace e2e
