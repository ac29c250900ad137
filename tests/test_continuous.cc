/**
 * @file
 * Continuous-scheduler tests: iteration-level batching must be a
 * scheduling change only. Whatever join/leave schedule the step loop
 * ends up running — across engines, quantization modes, thread
 * counts, and work-stealing on or off — every response must be
 * bit-identical to a one-shot forward of that request, a poisoned
 * request must fail alone, and the two-class policy must meter
 * prefill work exactly as configured. The serving contract (callback
 * and future delivery, shutdown flush, racing submitters, several
 * schedulers on their own lanes) and the run-to-completion setting
 * used as the bench comparand are pinned here too.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "model/config.hh"
#include "model/continuous_scheduler.hh"
#include "model/pipeline.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

ModelConfig
tinyConfig()
{
    return ModelConfig{"tiny", 2, 32, 2, 128, 256};
}

void
expectBitIdentical(const Tensor &a, const Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.raw()[i], b.raw()[i]) << what << " elem=" << i;
}

// The scheduler keeps a reference to the pipeline, so binding a
// temporary must not compile.
static_assert(std::is_constructible_v<ContinuousScheduler,
                                      const QuantizedTransformer &,
                                      QuantMode>);
static_assert(!std::is_constructible_v<ContinuousScheduler,
                                       QuantizedTransformer &&,
                                       QuantMode>);
static_assert(!std::is_constructible_v<ContinuousScheduler,
                                       QuantizedTransformer &&,
                                       QuantMode,
                                       ContinuousSchedulerConfig>);

/** Restores the work-stealing knob even when an assertion bails. */
struct StealGuard
{
    bool prior = laneStealing();
    ~StealGuard() { setLaneStealing(prior); }
};

class ContinuousFixture : public ::testing::Test
{
  protected:
    ContinuousFixture()
        : model(tinyConfig(), 23),
          exp(1.179, -0.977, 8),
          quantizer(exp),
          pipeline(model, quantizer)
    {
        pipeline.quantizeWeights();
        std::vector<Tensor> batch;
        for (int i = 0; i < 4; ++i)
            batch.push_back(model.makeInput(16, 100 + i));
        pipeline.profileActivations(batch);
    }

    /** Ragged serving mix: decode-sized and prefill-sized requests
     *  interleaved, so both classes are exercised. */
    std::vector<Tensor>
    raggedInputs() const
    {
        std::vector<Tensor> inputs;
        const size_t lens[] = {7, 1, 16, 2, 12, 1, 3, 9};
        for (size_t i = 0; i < 8; ++i)
            inputs.push_back(model.makeInput(lens[i], 700 + i));
        return inputs;
    }

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(ContinuousFixture, BitIdenticalAcrossEnginesModesAndThreads)
{
    const auto inputs = raggedInputs();
    const EngineGuard engine_guard;
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count, IndexEngine::Auto}) {
        setIndexEngine(engine);
        for (const QuantMode mode :
             {QuantMode::WeightsOnly,
              QuantMode::WeightsAndActivations}) {
            // One-shot references, computed single-threaded.
            setThreadCount(1);
            std::vector<Tensor> refs;
            for (const Tensor &in : inputs)
                refs.push_back(pipeline.forward(in, mode));

            for (const size_t t : {size_t{1}, size_t{2}, hw}) {
                setThreadCount(t);
                // Small maxBatch + tight chunk budget force real
                // join/leave churn and prefill deferrals: requests
                // enter the running batch as slots free up and at
                // different layers.
                ContinuousSchedulerConfig cfg;
                cfg.maxBatch = 3;
                cfg.decodeMaxRows = 2;
                cfg.chunkTokens = 16;
                ContinuousScheduler sched(pipeline, mode, cfg);
                std::vector<std::future<Tensor>> futs;
                for (const Tensor &in : inputs)
                    futs.push_back(sched.submit(Tensor(in)));
                for (size_t i = 0; i < futs.size(); ++i)
                    expectBitIdentical(
                        refs[i], futs[i].get(),
                        std::string("engine=") +
                            indexEngineName(engine) + " mode=" +
                            std::to_string(static_cast<int>(mode)) +
                            " threads=" + std::to_string(t) +
                            " req=" + std::to_string(i));
                // Futures resolve before the step thread merges
                // its counters; drain() orders the snapshot.
                sched.drain();
                const auto st = sched.stats();
                EXPECT_EQ(st.completed, inputs.size());
                EXPECT_EQ(st.failedRequests, 0u);
            }
        }
    }
}

TEST_F(ContinuousFixture, StaggeredJoinsStayBitIdentical)
{
    // Requests arriving while earlier ones are mid-pass join the
    // running batch at layer 0 — co-batched groups then mix layers
    // and classes — and every response still matches the one-shot
    // forward bit for bit, with stealing both off and on.
    const auto inputs = raggedInputs();
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const ThreadCountGuard thread_guard;
    const StealGuard steal_guard;
    setThreadCount(1);
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(pipeline.forward(in, mode));
    setThreadCount(4);

    for (const bool steal : {false, true}) {
        setLaneStealing(steal);
        ContinuousSchedulerConfig cfg;
        cfg.maxBatch = 4;
        cfg.decodeMaxRows = 2;
        cfg.chunkTokens = 12;
        ContinuousScheduler sched(pipeline, mode, cfg);
        std::vector<std::future<Tensor>> futs;
        for (size_t i = 0; i < inputs.size(); ++i) {
            futs.push_back(sched.submit(Tensor(inputs[i])));
            if (i % 3 == 2)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
        }
        for (size_t i = 0; i < futs.size(); ++i)
            expectBitIdentical(refs[i], futs[i].get(),
                               "steal=" + std::to_string(steal) +
                                   " req=" + std::to_string(i));
    }
}

/** Step stub: adds 1 to every element per layer; throws on requests
 *  whose first element carries the poison marker. */
struct StubStep
{
    static constexpr float kPoison = 1e6f;

    std::atomic<uint64_t> calls{0};

    Tensor
    operator()(size_t, const Tensor &stacked,
               const std::vector<size_t> &starts, QuantMode, Lane)
    {
        ++calls;
        for (size_t s = 0; s + 1 < starts.size(); ++s)
            if (stacked.at(starts[s], 0) >= kPoison)
                throw std::runtime_error("poisoned request");
        Tensor out(stacked.rows(), stacked.cols());
        for (size_t i = 0; i < stacked.size(); ++i)
            out.raw()[i] = stacked.raw()[i] + 1.0f;
        return out;
    }
};

Tensor
constTensor(size_t rows, size_t cols, float v)
{
    Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i)
        t.raw()[i] = v;
    return t;
}

TEST(ContinuousScheduling, PoisonedRequestFailsAloneMidStream)
{
    constexpr size_t kSteps = 3;
    constexpr float kBlock = 100.0f;
    StubStep stub;
    std::atomic<bool> release{false};
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 8;
    cfg.decodeMaxRows = 2;
    ContinuousScheduler sched(
        [&stub, &release](size_t l, const Tensor &x,
                          const std::vector<size_t> &s, QuantMode m,
                          Lane ln) {
            // The blocker request parks the step loop until the
            // test has queued the whole wave, so the wave is
            // admitted together and stacks into one group.
            if (x.at(0, 0) >= kBlock &&
                x.at(0, 0) < StubStep::kPoison)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    // Good requests around the poisoned one, same decode class and
    // (once admitted together) the same layer, so they stack into
    // one group and the group throw must be isolated by individual
    // retries.
    auto good0 = sched.submit(constTensor(2, 4, 1.0f));
    auto bad = sched.submit(constTensor(2, 4, StubStep::kPoison));
    auto good1 = sched.submit(constTensor(2, 4, 5.0f));
    release.store(true);

    EXPECT_EQ(blocker.get().raw()[0], kBlock + kSteps);
    const Tensor out0 = good0.get();
    EXPECT_EQ(out0.raw()[0], 1.0f + kSteps);
    EXPECT_THROW(bad.get(), std::runtime_error);
    const Tensor out1 = good1.get();
    EXPECT_EQ(out1.raw()[0], 5.0f + kSteps);

    // The scheduler keeps serving after the poison.
    auto after = sched.submit(constTensor(1, 4, 2.0f));
    EXPECT_EQ(after.get().raw()[0], 2.0f + kSteps);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.failedRequests, 1u);
    EXPECT_GE(st.isolationRetries, 2u)
        << "the group throw was not isolated by individual retries";
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousScheduling, ChunkBudgetDefersPrefillButNeverStarves)
{
    constexpr size_t kSteps = 4;
    constexpr float kBlock = 100.0f;
    StubStep stub;
    std::atomic<bool> release{false};
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 8;
    cfg.decodeMaxRows = 2;
    cfg.chunkTokens = 8; // one 8-row prefill per iteration
    ContinuousScheduler sched(
        [&stub, &release](size_t l, const Tensor &x,
                          const std::vector<size_t> &s, QuantMode m,
                          Lane ln) {
            if (x.at(0, 0) >= kBlock)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    // Two 8-row prefills compete for an 8-row budget; decodes ride
    // along with priority. The blocker keeps the step loop parked
    // until the whole mix is queued, so both prefills are
    // co-resident from the first scheduling decision on.
    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    std::vector<std::future<Tensor>> futs;
    futs.push_back(sched.submit(constTensor(8, 4, 1.0f)));
    futs.push_back(sched.submit(constTensor(8, 4, 2.0f)));
    futs.push_back(sched.submit(constTensor(1, 4, 3.0f)));
    futs.push_back(sched.submit(constTensor(1, 4, 4.0f)));
    release.store(true);
    EXPECT_EQ(blocker.get().raw()[0], kBlock + kSteps);
    for (size_t i = 0; i < futs.size(); ++i) {
        const Tensor out = futs[i].get();
        EXPECT_EQ(out.raw()[0],
                  static_cast<float>(i + 1) + kSteps)
            << "req=" << i;
    }
    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.completed, 5u);
    EXPECT_GE(st.prefillDeferrals, 1u)
        << "budget never held a prefill back";
    EXPECT_GE(st.decodeSteps, 1u);
    EXPECT_GE(st.prefillSteps, 2u * kSteps)
        << "deferred prefills must still advance every layer";
    EXPECT_EQ(st.failedRequests, 0u);
}

TEST(ContinuousScheduling, DecodePriorityOffMeltsClasses)
{
    constexpr size_t kSteps = 2;
    StubStep stub;
    ContinuousSchedulerConfig cfg;
    cfg.decodeMaxRows = 2;
    cfg.decodePriority = false;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    auto small = sched.submit(constTensor(1, 4, 1.0f));
    auto large = sched.submit(constTensor(16, 4, 2.0f));
    EXPECT_EQ(small.get().raw()[0], 1.0f + kSteps);
    EXPECT_EQ(large.get().raw()[0], 2.0f + kSteps);
    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.decodeSteps, 0u)
        << "priority off must leave a single class";
    EXPECT_GE(st.prefillSteps, 1u);
}

TEST(ContinuousScheduling, RejectsStoppedAndEmptySubmits)
{
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            return stub(l, x, s, m, ln);
        },
        2, QuantMode::WeightsAndActivations, {});

    auto empty = sched.submit(Tensor{});
    EXPECT_THROW(empty.get(), std::runtime_error);

    // Queued work still completes across stop() (shutdown flush).
    auto queued = sched.submit(constTensor(1, 4, 7.0f));
    sched.stop();
    EXPECT_EQ(queued.get().raw()[0], 9.0f);

    auto late = sched.submit(constTensor(1, 4, 1.0f));
    EXPECT_THROW(late.get(), std::runtime_error);
    EXPECT_FALSE(sched.submit(constTensor(1, 4, 1.0f),
                              [](Tensor, std::exception_ptr) {}));
    const auto st = sched.stats();
    EXPECT_EQ(st.rejected, 3u);
    EXPECT_EQ(st.completed, 1u);
}

TEST(ContinuousScheduling, EnvKnobsOverrideConfig)
{
    StubStep stub;
    const auto make = [&stub] {
        ContinuousSchedulerConfig cfg;
        cfg.chunkTokens = 128;
        cfg.decodePriority = true;
        return ContinuousScheduler(
            [&stub](size_t l, const Tensor &x,
                    const std::vector<size_t> &s, QuantMode m,
                    Lane ln) { return stub(l, x, s, m, ln); },
            2, QuantMode::WeightsAndActivations, cfg);
    };

    ::setenv("MOKEY_CHUNK_TOKENS", "48", 1);
    ::setenv("MOKEY_DECODE_PRIORITY", "off", 1);
    {
        const auto sched = make();
        EXPECT_EQ(sched.config().chunkTokens, 48u);
        EXPECT_FALSE(sched.config().decodePriority);
    }
    ::unsetenv("MOKEY_CHUNK_TOKENS");
    ::unsetenv("MOKEY_DECODE_PRIORITY");
    {
        const auto sched = make();
        EXPECT_EQ(sched.config().chunkTokens, 128u);
        EXPECT_TRUE(sched.config().decodePriority);
    }
}

TEST_F(ContinuousFixture, DeadlineParityStaggeredDeadlines)
{
    // The acceptance bar for the deadline layer: requests carrying
    // deadlines they comfortably meet must produce BIT-IDENTICAL
    // outputs to a run with no deadlines at all (the bookkeeping may
    // not perturb scheduling results), while requests whose deadline
    // already passed resolve to DeadlineExpired without burning a
    // full pass.
    const auto inputs = raggedInputs();
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const ThreadCountGuard thread_guard;
    setThreadCount(1);
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(pipeline.forward(in, mode));
    setThreadCount(4);

    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 3;
    cfg.decodeMaxRows = 2;
    cfg.chunkTokens = 16;
    ContinuousScheduler sched(pipeline, mode, cfg);

    const auto now = std::chrono::steady_clock::now();
    const Deadline generous = now + std::chrono::minutes(1);
    const Deadline passed = now - std::chrono::milliseconds(1);

    std::vector<std::future<Tensor>> futs;
    std::vector<std::future<Tensor>> doomed;
    for (size_t i = 0; i < inputs.size(); ++i) {
        futs.push_back(sched.submit(Tensor(inputs[i]), generous));
        if (i % 3 == 0)
            doomed.push_back(
                sched.submit(model.makeInput(4, 900 + i), passed));
    }
    for (size_t i = 0; i < futs.size(); ++i)
        expectBitIdentical(refs[i], futs[i].get(),
                           "deadline parity req=" +
                               std::to_string(i));
    for (auto &f : doomed)
        EXPECT_THROW(f.get(), DeadlineExpired);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.expiredRequests, doomed.size());
    EXPECT_EQ(st.failedRequests, 0u);
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousDeadline, ExpiredQueuedRequestDroppedEvenWhenFull)
{
    // maxBatch 1: the blocker owns the only slot, so the expired
    // request can never be admitted — the join loop must drop it
    // from the QUEUE (the "even when the batch is full" path).
    constexpr size_t kSteps = 3;
    constexpr float kBlock = 100.0f;
    StubStep stub;
    std::atomic<bool> release{false};
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 1;
    ContinuousScheduler sched(
        [&stub, &release](size_t l, const Tensor &x,
                          const std::vector<size_t> &s, QuantMode m,
                          Lane ln) {
            if (x.at(0, 0) >= kBlock)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    auto expired = sched.submit(
        constTensor(1, 4, 1.0f),
        std::chrono::steady_clock::now() -
            std::chrono::milliseconds(1));
    release.store(true);

    EXPECT_EQ(blocker.get().raw()[0], kBlock + kSteps);
    EXPECT_THROW(expired.get(), DeadlineExpired);

    // The scheduler keeps serving after the expiry.
    auto after = sched.submit(constTensor(1, 4, 2.0f));
    EXPECT_EQ(after.get().raw()[0], 2.0f + kSteps);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.expiredRequests, 1u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failedRequests, 0u);
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousDeadline, MidFlightExpiryFreesTheSlotEarly)
{
    // A request admitted with time on the clock whose deadline
    // passes BETWEEN layer steps must stop stepping right there:
    // strictly fewer step calls than a full pass, DeadlineExpired on
    // the future, and the batch slot freed for later work.
    constexpr size_t kSteps = 6;
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});

    // 6 layers x 20 ms = 120 ms of engine time against a 50 ms
    // budget: expiry lands between rounds 2 and 3 on any machine
    // (each round costs >= 20 ms, so 6 rounds can never fit).
    auto doomed = sched.submit(
        constTensor(1, 4, 1.0f),
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(50));
    EXPECT_THROW(doomed.get(), DeadlineExpired);
    EXPECT_LT(stub.calls.load(), kSteps)
        << "an expired request burned its full pass anyway";

    auto after = sched.submit(constTensor(1, 4, 2.0f));
    EXPECT_EQ(after.get().raw()[0], 2.0f + kSteps);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.expiredRequests, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failedRequests, 0u);
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousDeadline, GenerousDeadlineNeverExpires)
{
    constexpr size_t kSteps = 2;
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});
    auto fut = sched.submit(constTensor(2, 4, 3.0f),
                            std::chrono::steady_clock::now() +
                                std::chrono::minutes(5));
    EXPECT_EQ(fut.get().raw()[0], 3.0f + kSteps);
    sched.drain();
    EXPECT_EQ(sched.stats().expiredRequests, 0u);
}

TEST_F(ContinuousFixture, ChaosStepFaultsIsolateAndBooksBalance)
{
    // With the forwardStep throw site hot, some requests fail with
    // the injected error and the rest must still come back
    // bit-identical to the one-shot references; the books balance
    // (completed == successes, failed+expired == failures) and the
    // scheduler keeps serving afterwards. Under a CI env sweep the
    // site mix is arbitrary, so only the survival invariants hold.
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const auto inputs = raggedInputs();
    // References before arming: under an env sweep the injector is
    // already hot, so ride out injected throws with a retry loop.
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs) {
        for (int tries = 0;; ++tries) {
            try {
                refs.push_back(pipeline.forward(in, mode));
                break;
            } catch (const std::runtime_error &) {
                ASSERT_LT(tries, 500) << "reference forward never "
                                         "survived the env faults";
            }
        }
    }

    const FaultArmGuard guard("step:0.15:77");

    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.decodeMaxRows = 2;
    ContinuousScheduler sched(pipeline, mode, cfg);
    std::vector<std::future<Tensor>> futs;
    for (const Tensor &in : inputs)
        futs.push_back(sched.submit(Tensor(in)));

    uint64_t ok = 0, failed = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        try {
            const Tensor out = futs[i].get();
            expectBitIdentical(refs[i], out,
                               "chaos req=" + std::to_string(i));
            ++ok;
        } catch (const std::runtime_error &) {
            ++failed;
        }
    }
    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(ok + failed, inputs.size());
    EXPECT_EQ(st.completed, ok);
    EXPECT_EQ(st.failedRequests + st.expiredRequests, failed);

    // Still alive: a fresh submit eventually succeeds bit-exact
    // with faults still armed.
    for (int tries = 0;; ++tries) {
        try {
            expectBitIdentical(refs[0],
                               sched.submit(Tensor(inputs[0])).get(),
                               "chaos post-fault submit");
            break;
        } catch (const std::runtime_error &) {
            ASSERT_LT(tries, 200) << "scheduler never recovered";
        }
    }
}

TEST(ContinuousScheduling, DrainAndRecentLatencyTracking)
{
    constexpr size_t kSteps = 3;
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});

    EXPECT_EQ(sched.recentBatchSeconds(), 0.0);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(sched.submit(constTensor(2, 4, 1.0f + i)));
    sched.drain();
    EXPECT_EQ(sched.queueDepth(), 0u);
    for (size_t i = 0; i < futs.size(); ++i)
        EXPECT_EQ(futs[i].get().raw()[0], 1.0f + i + kSteps);
    // Every finished request spent at least its kSteps sleeps
    // between admission and completion.
    EXPECT_GE(sched.recentBatchSeconds(), kSteps * 200e-6);
}

TEST(ContinuousScheduling, RecentBatchSecondsTracksDecodePassTime)
{
    // A decode-class request runs all of its layers inside one
    // iteration, so the estimate must come out near one pass — not
    // one iteration's step time multiplied by the layer count again,
    // which overstates it kSteps-fold and inflates every 503
    // Retry-After hint with it.
    constexpr size_t kSteps = 3;
    constexpr auto kStepSleep = std::chrono::milliseconds(20);
    StubStep stub;
    ContinuousScheduler sched(
        [&stub, kStepSleep](size_t l, const Tensor &x,
                            const std::vector<size_t> &s, QuantMode m,
                            Lane ln) {
            std::this_thread::sleep_for(kStepSleep);
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});

    // Serial decode-only traffic: each request is alone in the
    // batch, so its client-observed latency is its true pass time.
    std::vector<double> passes;
    for (int i = 0; i < 6; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const Tensor out =
            sched.submit(constTensor(2, 4, 1.0f + i)).get();
        passes.push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        EXPECT_EQ(out.raw()[0], 1.0f + i + kSteps);
    }
    sched.drain();
    std::sort(passes.begin(), passes.end());
    const double truePass = passes[passes.size() / 2];
    const double estimate = sched.recentBatchSeconds();
    EXPECT_LE(estimate, 2.0 * truePass)
        << "estimate " << estimate << " s vs pass " << truePass
        << " s";
    EXPECT_GE(estimate, 0.5 * truePass)
        << "estimate " << estimate << " s vs pass " << truePass
        << " s";
}

// ---- run-to-completion setting ----------------------------------------

/** The run-to-completion setting bench_serving compares against:
 *  every request is decode class, so a selected group runs all of
 *  its layers inside one iteration. */
ContinuousSchedulerConfig
runToCompletionConfig()
{
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.decodeMaxRows = SIZE_MAX;
    cfg.decodeTokens = 96;
    return cfg;
}

/** One step call as the stub saw it: the layer and the request ids
 *  of the stacked members (ids survive the +1-per-layer stub as
 *  value - layer). */
struct StepRecord
{
    size_t layer;
    std::vector<float> ids;
};

/**
 * Drive the mid-pass arrival scenario: a blocker request parks the
 * step loop until A and B are both queued (so they are admitted
 * together), then C is submitted while A and B sit at layer 1.
 * Returns the step log.
 */
std::vector<StepRecord>
midPassArrivalLog(const ContinuousSchedulerConfig &cfg, size_t steps)
{
    constexpr float kBlocker = 100.0f, kA = 200.0f, kB = 300.0f,
                    kC = 400.0f;
    StubStep stub;
    std::mutex logMu;
    std::vector<StepRecord> log;
    std::promise<void> blockerParked, atLayer1;
    std::atomic<bool> signalled{false};
    std::atomic<bool> releaseBlocker{false}, releaseLayer1{false};
    auto wait = [](const std::atomic<bool> &flag) {
        while (!flag.load())
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
    };
    ContinuousScheduler sched(
        [&](size_t l, const Tensor &x, const std::vector<size_t> &s,
            QuantMode m, Lane ln) {
            StepRecord rec{l, {}};
            for (size_t i = 0; i + 1 < s.size(); ++i)
                rec.ids.push_back(x.at(s[i], 0) -
                                  static_cast<float>(l));
            {
                std::lock_guard<std::mutex> lk(logMu);
                log.push_back(rec);
            }
            if (rec.ids.front() == kBlocker && l == 0) {
                blockerParked.set_value();
                wait(releaseBlocker);
            }
            if (l == 1 &&
                std::find(rec.ids.begin(), rec.ids.end(), kA) !=
                    rec.ids.end() &&
                !signalled.exchange(true)) {
                atLayer1.set_value();
                wait(releaseLayer1);
            }
            return stub(l, x, s, m, ln);
        },
        steps, QuantMode::WeightsAndActivations, cfg);

    auto blocker = sched.submit(constTensor(1, 4, kBlocker));
    blockerParked.get_future().get();
    auto a = sched.submit(constTensor(8, 4, kA));
    auto b = sched.submit(constTensor(8, 4, kB));
    releaseBlocker.store(true);
    atLayer1.get_future().get();
    auto c = sched.submit(constTensor(8, 4, kC));
    releaseLayer1.store(true);

    const float done = static_cast<float>(steps);
    EXPECT_EQ(blocker.get().raw()[0], kBlocker + done);
    EXPECT_EQ(a.get().raw()[0], kA + done);
    EXPECT_EQ(b.get().raw()[0], kB + done);
    EXPECT_EQ(c.get().raw()[0], kC + done);
    sched.drain();
    return log;
}

/** Index of the first log entry containing @p id at @p layer, or
 *  of its first appearance at any layer when @p layer is SIZE_MAX. */
size_t
firstStep(const std::vector<StepRecord> &log, float id,
          size_t layer = SIZE_MAX)
{
    for (size_t i = 0; i < log.size(); ++i)
        if ((layer == SIZE_MAX || log[i].layer == layer) &&
            std::find(log[i].ids.begin(), log[i].ids.end(), id) !=
                log[i].ids.end())
            return i;
    return log.size();
}

TEST(ContinuousRunToCompletion, MidPassArrivalWaitsForWholePass)
{
    constexpr size_t kSteps = 4;
    const auto log = midPassArrivalLog(runToCompletionConfig(), kSteps);

    // A and B were admitted together and stack into one step call
    // per layer.
    for (size_t l = 0; l < kSteps; ++l) {
        const size_t i = firstStep(log, 200.0f, l);
        ASSERT_LT(i, log.size()) << "A never ran layer " << l;
        EXPECT_EQ(log[i].ids, (std::vector<float>{200.0f, 300.0f}))
            << "layer " << l;
    }
    // C arrived while A and B sat at layer 1, and must not step
    // before their group has finished every layer.
    const size_t lastA = firstStep(log, 200.0f, kSteps - 1);
    const size_t firstC = firstStep(log, 400.0f);
    ASSERT_LT(firstC, log.size());
    EXPECT_GT(firstC, lastA)
        << "a mid-pass arrival stepped before the earlier group "
           "finished its pass";
}

TEST(ContinuousRunToCompletion, DefaultSettingLetsArrivalsJoinMidPass)
{
    // The contrast that makes the setting meaningful: under the
    // default policy the same 8-row requests are prefill class and
    // advance one layer per iteration, so C joins and steps while A
    // and B are still mid-pass.
    constexpr size_t kSteps = 4;
    const auto log = midPassArrivalLog({}, kSteps);
    const size_t lastA = firstStep(log, 200.0f, kSteps - 1);
    const size_t firstC = firstStep(log, 400.0f);
    ASSERT_LT(lastA, log.size());
    EXPECT_LT(firstC, lastA);
}

TEST_F(ContinuousFixture, RunToCompletionSettingBitIdentical)
{
    const auto inputs = raggedInputs();
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const ThreadCountGuard thread_guard;
    setThreadCount(1);
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(pipeline.forward(in, mode));

    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{1}, hw}) {
        setThreadCount(t);
        ContinuousScheduler sched(pipeline, mode,
                                  runToCompletionConfig());
        std::vector<std::future<Tensor>> futs;
        for (size_t i = 0; i < inputs.size(); ++i) {
            futs.push_back(sched.submit(Tensor(inputs[i])));
            if (i % 3 == 2)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        for (size_t i = 0; i < futs.size(); ++i)
            expectBitIdentical(refs[i], futs[i].get(),
                               "threads=" + std::to_string(t) +
                                   " req=" + std::to_string(i));
        sched.drain();
        const auto st = sched.stats();
        EXPECT_EQ(st.prefillSteps, 0u)
            << "run-to-completion leaves no prefill class";
        EXPECT_EQ(st.completed, inputs.size());
    }
}

// ---- serving contract -------------------------------------------------

/** A scheduler over the poisonable StubStep. */
struct StubScheduler
{
    explicit StubScheduler(size_t steps,
                           ContinuousSchedulerConfig cfg = {})
        : sched(
              [this](size_t l, const Tensor &x,
                     const std::vector<size_t> &s, QuantMode m,
                     Lane ln) { return stub(l, x, s, m, ln); },
              steps, QuantMode::WeightsAndActivations, cfg)
    {
    }

    StubStep stub;
    ContinuousScheduler sched;
};

TEST(ContinuousContract, CallbackSubmitDeliversResultAndError)
{
    constexpr size_t kSteps = 2;
    StubScheduler s(kSteps);

    Tensor in = constTensor(2, 3, 0.0f);
    in.raw()[5] = 42.0f;
    std::promise<Tensor> okProm;
    ASSERT_TRUE(s.sched.submit(
        in, [&okProm](Tensor out, std::exception_ptr err) {
            ASSERT_EQ(err, nullptr);
            okProm.set_value(std::move(out));
        }));
    EXPECT_EQ(okProm.get_future().get().raw()[5], 42.0f + kSteps);

    std::promise<std::exception_ptr> errProm;
    ASSERT_TRUE(s.sched.submit(
        constTensor(2, 3, StubStep::kPoison),
        [&errProm](Tensor out, std::exception_ptr err) {
            EXPECT_EQ(out.rows(), 0u);
            errProm.set_value(err);
        }));
    const std::exception_ptr err = errProm.get_future().get();
    ASSERT_NE(err, nullptr);
    EXPECT_THROW(std::rethrow_exception(err), std::runtime_error);
}

TEST(ContinuousContract, ThrowingCompletionCallbackDoesNotKillDispatcher)
{
    StubScheduler s(2);
    std::promise<void> fired;
    ASSERT_TRUE(s.sched.submit(
        constTensor(1, 2, 0.0f), [&fired](Tensor, std::exception_ptr) {
            fired.set_value();
            throw std::runtime_error("bad callback");
        }));
    fired.get_future().get();

    // The step thread survived the throwing callback: normal
    // service continues.
    EXPECT_EQ(s.sched.submit(constTensor(1, 2, 9.0f)).get().raw()[1],
              11.0f);
    s.sched.drain();
    EXPECT_EQ(s.sched.queueDepth(), 0u);
}

TEST(ContinuousContract, WrongStepShapeFailsRequestsGracefully)
{
    // A step that loses rows must fail its requests, never slice a
    // stacked output out of bounds; the scheduler keeps serving.
    constexpr float kBlock = 100.0f;
    std::atomic<bool> broken{true}, release{false};
    ContinuousScheduler sched(
        [&](size_t, const Tensor &x, const std::vector<size_t> &,
            QuantMode, Lane) {
            if (x.at(0, 0) == kBlock)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            // Only the 1-row blocker keeps its shape while broken.
            return broken.load() && x.rows() > 1 ? Tensor(1, x.cols())
                                                  : x;
        },
        2, QuantMode::WeightsAndActivations, {});

    // The blocker parks the loop so the 2-row requests are admitted
    // together and stack into one step call (with or without the
    // blocker, depending on when the loop first woke).
    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    auto f0 = sched.submit(constTensor(2, 4, 1.0f));
    auto f1 = sched.submit(constTensor(2, 4, 2.0f));
    release.store(true);
    EXPECT_EQ(blocker.get().raw()[0], kBlock);
    EXPECT_THROW(f0.get(), std::runtime_error);
    EXPECT_THROW(f1.get(), std::runtime_error);

    broken.store(false);
    EXPECT_EQ(sched.submit(constTensor(2, 4, 3.0f)).get().rows(), 2u);
    sched.drain();
    EXPECT_EQ(sched.stats().failedRequests, 2u);
}

TEST_F(ContinuousFixture, SchedulerDestructorFlushesQueue)
{
    const Tensor in = model.makeInput(6, 840);
    std::future<Tensor> f;
    {
        ContinuousScheduler sched(pipeline,
                                  QuantMode::WeightsAndActivations);
        f = sched.submit(Tensor(in));
        // The destructor must flush and complete the pending request.
    }
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    expectBitIdentical(
        pipeline.forward(in, QuantMode::WeightsAndActivations),
        f.get(), "dtor");
}

TEST_F(ContinuousFixture, ConcurrentSubmittersAllServed)
{
    ContinuousScheduler sched(pipeline,
                              QuantMode::WeightsAndActivations);

    // Several client threads race submissions; every future must
    // resolve to its own request's exact result.
    std::vector<std::thread> clients;
    std::vector<int> ok(4, 0);
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            const Tensor in = model.makeInput(3 + t, 860 + t);
            const Tensor ref = pipeline.forward(
                in, QuantMode::WeightsAndActivations);
            const Tensor out = sched.submit(Tensor(in)).get();
            if (out.rows() == ref.rows() && out.raw() == ref.raw())
                ok[t] = 1;
        });
    }
    for (auto &c : clients)
        c.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(ok[t], 1) << "client " << t;
    EXPECT_EQ(sched.stats().requests, 4u);
}

TEST_F(ContinuousFixture, MultiSchedulerMultiLaneStressBitIdentical)
{
    // Two schedulers, each stepping on its own executor lane, hammered
    // by racing clients across pool sizes: the lanes' chunks
    // interleave over one worker set, and every response must stay
    // bit-identical to an unbatched sequential forward.
    constexpr size_t kSchedulers = 2;
    constexpr size_t kClients = 4;
    constexpr size_t kReqsPerClient = 3;
    const QuantMode mode = QuantMode::WeightsAndActivations;

    // References computed single-threaded up front; the engine
    // guarantees bit-parity across thread counts and lanes.
    const ThreadCountGuard thread_guard;
    setThreadCount(1);
    std::vector<Tensor> ins;
    std::vector<Tensor> refs;
    for (size_t c = 0; c < kClients; ++c) {
        for (size_t r = 0; r < kReqsPerClient; ++r) {
            ins.push_back(
                model.makeInput(1 + (c * kReqsPerClient + r) % 5,
                                1000 + c * 100 + r));
            refs.push_back(pipeline.forward(ins.back(), mode));
        }
    }

    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{1}, size_t{2}, hw}) {
        setThreadCount(t);
        ContinuousSchedulerConfig cfg;
        cfg.maxBatch = 3;
        cfg.decodeMaxRows = 2;
        std::vector<std::unique_ptr<ContinuousScheduler>> scheds;
        for (size_t s = 0; s < kSchedulers; ++s)
            scheds.push_back(std::make_unique<ContinuousScheduler>(
                pipeline, mode, cfg));

        std::vector<std::thread> clients;
        std::vector<int> ok(kClients, 0);
        for (size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                bool good = true;
                for (size_t r = 0; r < kReqsPerClient; ++r) {
                    const size_t i = c * kReqsPerClient + r;
                    const Tensor out = scheds[c % kSchedulers]
                                           ->submit(Tensor(ins[i]))
                                           .get();
                    good = good && out.rows() == refs[i].rows() &&
                        out.raw() == refs[i].raw();
                }
                ok[c] = good ? 1 : 0;
            });
        }
        for (auto &cl : clients)
            cl.join();
        for (size_t c = 0; c < kClients; ++c)
            EXPECT_EQ(ok[c], 1) << "client " << c << " threads=" << t;
        uint64_t reqs = 0;
        for (const auto &s : scheds)
            reqs += s->stats().requests;
        EXPECT_EQ(reqs, kClients * kReqsPerClient);
    }
}

} // namespace
} // namespace mokey
