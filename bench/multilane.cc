/**
 * @file
 * Multi-lane dispatch throughput bench: the tentpole claim of the
 * lane executor, measured three ways and flushed to
 * BENCH_multilane.json for the CI regression gate.
 *
 * 1. *Executor dispatch.* The many-small-GEMM attention pattern —
 *    a stream of tiny top-level loops, each a few microseconds of
 *    work — submitted from 1/2/4 concurrent lanes. The baseline is a
 *    frozen replica of the seed pool (PR 1/2): one run_mu-guarded
 *    FIFO whose every loop pays a full worker wake + acknowledgement
 *    round before the caller may return, and under which concurrent
 *    submitters serialize. The lane executor completes a loop the
 *    moment its iterations have executed (the owner drains its own
 *    lane), and lanes progress concurrently, so speedup_vs_seed
 *    reflects pure dispatch-path wins — visible even on one core,
 *    where the seed design burns context switches per loop.
 * 2. *Persistent wave vs parked.* The same 2-lane pattern with
 *    workers spinning briefly (setWaveSpin) before parking.
 * 3. *Work stealing on imbalanced lanes.* Two concurrent lanes, one
 *    submitting 8x-sized loops: makespan with stealing off (the
 *    frozen PR 3 round-robin sharing schedule) over makespan with
 *    stealing on (idle workers back-claim whole chunks from the
 *    busiest lane, lane owners assist once their own range is fully
 *    claimed). Chunk boundaries are identical either way, so the
 *    ratio is pure schedule win; it needs parallel hardware to rise
 *    much above 1.0.
 *
 * The executor benches pin the pool at 2 threads so the recorded
 * ratios are comparable across hosts.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/parallel.hh"

namespace
{

using namespace mokey;

/**
 * Replica of the seed thread pool (PR 1/2): one job slot, one
 * run_mu-serialized top-level loop at a time, and a caller that
 * cannot return until every worker has woken and decremented the
 * pending count. The library executor evolves; this baseline stays
 * frozen so the recorded dispatch speedups stay comparable across
 * PRs.
 */
class SeedPool
{
  public:
    explicit SeedPool(size_t threads)
    {
        nThreads = threads < 1 ? 1 : threads;
        const uint64_t gen = generation;
        for (size_t t = 0; t + 1 < nThreads; ++t)
            workers.emplace_back([this, gen] { workerLoop(gen); });
    }

    ~SeedPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stopping = true;
            ++generation;
        }
        cv_work.notify_all();
        for (auto &w : workers)
            w.join();
    }

    void run(size_t begin, size_t end, size_t grain,
             const RangeBody &body)
    {
        if (begin >= end)
            return;
        const size_t range = end - begin;
        if (nThreads == 1 || range <= grain) {
            body(begin, end);
            return;
        }
        const size_t target =
            (range + nThreads * 4 - 1) / (nThreads * 4);
        const size_t chunk = std::max(grain, target);

        std::lock_guard<std::mutex> run_lk(run_mu);
        {
            std::unique_lock<std::mutex> lk(mu);
            job = &body;
            job_end = end;
            job_grain = chunk;
            cursor.store(begin, std::memory_order_relaxed);
            pending = workers.size();
            ++generation;
        }
        cv_work.notify_all();
        drain(body);
        std::unique_lock<std::mutex> lk(mu);
        cv_done.wait(lk, [this] { return pending == 0; });
        job = nullptr;
    }

  private:
    void drain(const RangeBody &body)
    {
        const size_t end = job_end, grain = job_grain;
        for (;;) {
            const size_t lo =
                cursor.fetch_add(grain, std::memory_order_relaxed);
            if (lo >= end)
                break;
            body(lo, std::min(lo + grain, end));
        }
    }

    void workerLoop(uint64_t seen)
    {
        for (;;) {
            const RangeBody *body;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv_work.wait(lk, [this, seen] {
                    return generation != seen;
                });
                seen = generation;
                if (stopping)
                    return;
                body = job;
            }
            if (body)
                drain(*body);
            {
                std::lock_guard<std::mutex> lk(mu);
                if (pending > 0 && --pending == 0)
                    cv_done.notify_all();
            }
        }
    }

    std::mutex run_mu;
    std::mutex mu;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    std::vector<std::thread> workers;
    size_t nThreads = 1;
    const RangeBody *job = nullptr;
    size_t job_end = 0, job_grain = 1;
    std::atomic<size_t> cursor{0};
    size_t pending = 0;
    uint64_t generation = 0;
    bool stopping = false;
};

/** Attention-decode-sized loop: kRows tiny dot products per GEMM. */
constexpr size_t kRows = 32;      ///< output rows per small GEMM
constexpr size_t kInner = 64;     ///< MACs per row
constexpr size_t kLoopsPerLane = 512;
constexpr size_t kPoolThreads = 2;

/** One small-GEMM-shaped loop body iteration. */
inline void
rowWork(size_t i, volatile double *sink)
{
    double acc = 0.0;
    for (size_t p = 0; p < kInner; ++p)
        acc += static_cast<double>(i * 31 + p) * 1e-3;
    *sink = acc;
}

/**
 * Run @p lanes concurrent submitters of kLoopsPerLane small loops
 * each through the lane executor; returns aggregate ns per loop.
 */
double
timeLaneDispatch(size_t lanes)
{
    return bench::timeKernelNs([lanes] {
        std::vector<std::thread> callers;
        for (size_t c = 0; c < lanes; ++c) {
            callers.emplace_back([c] {
                const Lane lane = Lane::ofIndex(c);
                volatile double sink = 0.0;
                for (size_t rep = 0; rep < kLoopsPerLane; ++rep)
                    parallelFor(lane, 0, kRows, 1,
                                [&](size_t i) { rowWork(i, &sink); });
            });
        }
        for (auto &t : callers)
            t.join();
    }) / static_cast<double>(lanes * kLoopsPerLane);
}

/** Same workload through the frozen seed pool replica. */
double
timeSeedDispatch(size_t submitters, SeedPool &pool)
{
    return bench::timeKernelNs([submitters, &pool] {
        std::vector<std::thread> callers;
        for (size_t c = 0; c < submitters; ++c) {
            callers.emplace_back([&pool] {
                volatile double sink = 0.0;
                for (size_t rep = 0; rep < kLoopsPerLane; ++rep)
                    pool.run(0, kRows, 1,
                             [&](size_t lo, size_t hi) {
                                 for (size_t i = lo; i < hi; ++i)
                                     rowWork(i, &sink);
                             });
            });
        }
        for (auto &t : callers)
            t.join();
    }) / static_cast<double>(submitters * kLoopsPerLane);
}

/**
 * Imbalanced two-lane pattern: lane 0 submits 8x-range loops (the
 * long-prefill shape), lane 1 the small decode-sized loops. Returns
 * makespan ns for one joint run — the steal scenario's metric, since
 * stealing moves tail chunks of the heavy loops onto whoever is
 * idle without changing any chunk boundary.
 */
double
timeImbalancedLanes()
{
    constexpr size_t kHeavyMult = 8;
    constexpr size_t kJointLoops = kLoopsPerLane / 4;
    return bench::timeKernelNs([] {
        std::vector<std::thread> callers;
        for (size_t c = 0; c < 2; ++c) {
            callers.emplace_back([c] {
                const Lane lane = Lane::ofIndex(c);
                const size_t rows =
                    c == 0 ? kRows * kHeavyMult : kRows;
                volatile double sink = 0.0;
                for (size_t rep = 0; rep < kJointLoops; ++rep)
                    parallelFor(lane, 0, rows, 1,
                                [&](size_t i) { rowWork(i, &sink); });
            });
        }
        for (auto &t : callers)
            t.join();
    });
}

} // anonymous namespace

int
main()
{
    bench::banner("Multi-lane executor dispatch throughput",
                  "the PR 3 lane executor vs the seed FIFO pool");
    bench::BenchJson json("multilane");

    setThreadCount(kPoolThreads);
    setWaveSpin(0);

    SeedPool seed(kPoolThreads);
    const double seed1 = timeSeedDispatch(1, seed);
    const double seed2 = timeSeedDispatch(2, seed);
    const double seed4 = timeSeedDispatch(4, seed);

    const double lane1 = timeLaneDispatch(1);
    const double lane2 = timeLaneDispatch(2);
    const double lane4 = timeLaneDispatch(4);

    setWaveSpin(100);
    const double lane2w = timeLaneDispatch(2);
    setWaveSpin(0);

    std::printf("\nsmall-GEMM loop (%zu rows x %zu MACs), pool=%zu "
                "threads, %zu loops/lane:\n",
                kRows, kInner, kPoolThreads, kLoopsPerLane);
    std::printf("  seed FIFO : %8.0f / %8.0f / %8.0f ns/loop "
                "(1/2/4 submitters)\n", seed1, seed2, seed4);
    std::printf("  lanes     : %8.0f / %8.0f / %8.0f ns/loop "
                "(1/2/4 lanes)\n", lane1, lane2, lane4);
    std::printf("  2-lane wave(100us): %8.0f ns/loop (%.2fx vs "
                "parked)\n", lane2w, lane2 / lane2w);
    std::printf("  dispatch speedup vs seed: %.2fx (1 lane), "
                "%.2fx (2 lanes), %.2fx (4 lanes)\n",
                seed1 / lane1, seed2 / lane2, seed4 / lane4);

    json.add({"multilane_dispatch_1lane", kRows, kInner,
              kLoopsPerLane, lane1, 0.0, seed1 / lane1});
    json.add({"multilane_dispatch_2lane", kRows, kInner,
              kLoopsPerLane, lane2, 0.0, seed2 / lane2});
    json.add({"multilane_dispatch_4lane", kRows, kInner,
              kLoopsPerLane, lane4, 0.0, seed4 / lane4});
    json.add({"multilane_dispatch_2lane_wave", kRows, kInner,
              kLoopsPerLane, lane2w, 0.0, seed2 / lane2w});

    // Work stealing on imbalanced lanes: same workload, same chunk
    // boundaries, only the chunk->thread schedule differs.
    const bool priorSteal = laneStealing();
    setLaneStealing(false);
    const double imbOff = timeImbalancedLanes();
    setLaneStealing(true);
    const double imbOn = timeImbalancedLanes();
    setLaneStealing(priorSteal);
    std::printf("\nimbalanced lanes (8x vs 1x loops): %8.0f ns off "
                "-> %8.0f ns on, steal speedup %.2fx\n",
                imbOff, imbOn, imbOff / imbOn);
    json.add({"lane_steal_speedup", kRows * 8, kInner,
              kLoopsPerLane / 4, imbOn, 0.0, imbOff / imbOn});

    json.write();
    return 0;
}
