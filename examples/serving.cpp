/**
 * @file
 * Continuous-batching serving: stand up a quantized pipeline, put
 * the ContinuousScheduler in front of it, and fire a burst of
 * ragged-length requests from several client threads. The scheduler
 * re-forms its running batch between layer steps: short (decode
 * class) requests run their whole pass ahead of long (prefill class)
 * ones, which advance one budgeted layer per iteration — and every
 * response is bit-identical to an unbatched forward of that request,
 * which this example verifies.
 */

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "model/config.hh"
#include "model/continuous_scheduler.hh"
#include "quant/exp_dictionary.hh"
#include "quant/golden_dictionary.hh"
#include "tensor/ops.hh"

int
main()
{
    using namespace mokey;

    const ModelConfig cfg = reduced(bertBase(), 8);
    const Transformer model(cfg, 42);
    const auto gd = GoldenDictionary::generate({});
    const Quantizer quantizer(ExpDictionary::fit(gd));

    QuantizedTransformer pipe(model, quantizer);
    pipe.quantizeWeights();
    std::vector<Tensor> profile_batch;
    for (int i = 0; i < 8; ++i)
        profile_batch.push_back(model.makeInput(32, 100 + i));
    pipe.profileActivations(profile_batch);

    // Scheduler knobs: requests of up to 8 rows are decode class and
    // run to completion inside one iteration; longer ones are
    // prefill, metered at 32 stacked rows per layer step. Compute
    // inside each step fans out over the process-wide executor
    // (sized by MOKEY_THREADS) on the scheduler's own lane.
    ContinuousSchedulerConfig scfg;
    scfg.maxBatch = 8;
    scfg.decodeMaxRows = 8;
    scfg.chunkTokens = 32;
    ContinuousScheduler sched(pipe, QuantMode::WeightsAndActivations,
                              scfg);

    // A burst of 8 clients with ragged sequence lengths. The
    // reference forwards for verification run after the timed
    // window, so the printed latency/throughput measures only the
    // scheduled traffic.
    const size_t lens[] = {24, 7, 32, 15, 3, 32, 1, 20};
    std::vector<std::thread> clients;
    std::vector<Tensor> ins;
    std::vector<Tensor> outs(8);
    std::vector<double> latency_ms(8, 0.0);
    for (int i = 0; i < 8; ++i)
        ins.push_back(model.makeInput(lens[i], 900 + i));
    const auto burst_t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 8; ++i) {
        clients.emplace_back([&, i] {
            const auto t0 = std::chrono::steady_clock::now();
            auto fut = sched.submit(ins[i]);
            outs[i] = fut.get();
            latency_ms[i] =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        });
    }
    for (auto &c : clients)
        c.join();
    sched.drain();
    const double burst_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - burst_t0)
            .count();

    bool all_exact = true;
    size_t total_rows = 0;
    for (int i = 0; i < 8; ++i) {
        const Tensor ref = pipe.forward(
            ins[i], QuantMode::WeightsAndActivations);
        const double err = maxAbsDiff(outs[i], ref);
        std::printf("request %d (%2zu tokens, %s): latency %6.2f ms, "
                    "|scheduled - direct| = %g\n",
                    i, lens[i],
                    lens[i] <= scfg.decodeMaxRows ? "decode "
                                                  : "prefill",
                    latency_ms[i], err);
        all_exact = all_exact && err == 0.0;
        total_rows += lens[i];
    }

    const auto st = sched.stats();
    std::printf("\n%llu requests -> %llu iterations, %llu layer "
                "steps (%llu decode, %llu prefill), %llu stacked "
                "rows; %llu prefill deferrals\n",
                static_cast<unsigned long long>(st.requests),
                static_cast<unsigned long long>(st.iterations),
                static_cast<unsigned long long>(st.steps),
                static_cast<unsigned long long>(st.decodeSteps),
                static_cast<unsigned long long>(st.prefillSteps),
                static_cast<unsigned long long>(st.stepRows),
                static_cast<unsigned long long>(st.prefillDeferrals));
    std::printf("aggregate: %zu rows in %.2f ms (%.0f rows/s); "
                "recent pass %.2f ms\n",
                total_rows, burst_s * 1e3,
                static_cast<double>(total_rows) / burst_s,
                sched.recentBatchSeconds() * 1e3);

    std::printf("scheduled == sequential bit-for-bit: %s\n",
                all_exact ? "yes" : "NO (bug!)");
    return all_exact ? 0 : 1;
}
