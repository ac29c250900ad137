#include "common/parallel.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/watchdog.hh"

namespace mokey
{

namespace
{

/** True while the current thread is executing executor work. */
thread_local bool in_worker = false;

/**
 * One in-flight loop. Heap-allocated per top-level submission and
 * held by shared_ptr: workers keep draining a snapshot safely even
 * while the lane moves on to its next loop, because an exhausted
 * job's claim word simply stops handing out chunks. The body pointer
 * is only dereferenced after a successful chunk claim, and a claim
 * can only succeed while the owner is still blocked in run() — so the
 * caller-owned closure is always alive when called.
 *
 * The range is pre-split into nChunks fixed chunks (chunk i covers
 * [begin + i*chunk, min(begin + (i+1)*chunk, end))) and claimed from
 * *both ends* through one packed CAS word: the low 32 bits count
 * front-claimed chunks (the next front chunk's index), the high 32
 * bits count back-claimed chunks (the next back chunk is
 * nChunks-1-tail). Owners and lane-affine workers walk the front in
 * order; thieves take from the tail, so a steal never contends with
 * the owner's next claim and the two walks meet exactly once. Chunk
 * boundaries stay a pure function of (range, grain, thread count) —
 * stealing only changes which thread runs a chunk, never its bounds.
 */
struct Job
{
    const RangeBody *body = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t chunk = 1;
    size_t lane = 0;
    uint32_t nChunks = 0;
    std::atomic<uint64_t> claim{0};   ///< lo32 front count, hi32 back count
    std::atomic<size_t> remaining{0}; ///< iterations not yet executed
    bool done = false;                ///< guarded by Executor::mu
};

/** Chunks of @p j not yet claimed from either end. */
inline uint32_t
unclaimedChunks(const Job &j)
{
    const uint64_t c = j.claim.load(std::memory_order_relaxed);
    const uint32_t taken =
        static_cast<uint32_t>(c) + static_cast<uint32_t>(c >> 32);
    return taken >= j.nChunks ? 0 : j.nChunks - taken;
}

/**
 * Claim one chunk of @p job from the front (owner / affine worker)
 * or the back (thief). Returns false once every chunk is claimed.
 */
inline bool
claimChunk(Job &job, bool front, size_t &lo, size_t &hi)
{
    uint64_t c = job.claim.load(std::memory_order_relaxed);
    for (;;) {
        const uint32_t head = static_cast<uint32_t>(c);
        const uint32_t tail = static_cast<uint32_t>(c >> 32);
        if (head + tail >= job.nChunks)
            return false;
        const uint64_t next =
            front ? c + 1 : c + (uint64_t(1) << 32);
        if (job.claim.compare_exchange_weak(
                c, next, std::memory_order_relaxed)) {
            const uint32_t idx =
                front ? head : job.nChunks - 1 - tail;
            lo = job.begin + static_cast<size_t>(idx) * job.chunk;
            hi = std::min(lo + job.chunk, job.end);
            return true;
        }
    }
}

/**
 * The process-wide multi-lane executor. Each lane owns a submit
 * mutex (serializing same-lane loops) and a job slot; one shared
 * worker set round-robins chunks across every active slot. Chunks
 * are claimed with per-job atomic cursors, so load balances while
 * chunk *boundaries* stay deterministic.
 */
class Executor
{
  public:
    static Executor &global()
    {
        static Executor exec;
        return exec;
    }

    /**
     * Lock-free thread count for the dispatch hot path (the mirror
     * only changes inside resize(), which excludes in-flight loops
     * by holding every submit mutex).
     */
    size_t threads()
    {
        return threadsAtomic.load(std::memory_order_relaxed);
    }

    void resize(size_t n)
    {
        if (n < 1)
            n = 1;
        // Take every lane's submit mutex (in index order — submitters
        // only ever hold one, so there is no ordering cycle): with all
        // of them held, no loop is in flight anywhere.
        for (auto &l : lanes)
            l.submit_mu.lock();
        stopWorkers();
        {
            std::lock_guard<std::mutex> lk(mu);
            spawnLocked(n - 1);
        }
        for (size_t i = lanes.size(); i-- > 0;)
            lanes[i].submit_mu.unlock();
    }

    void run(size_t lane, size_t begin, size_t end, size_t chunk,
             const RangeBody &body)
    {
        LaneState &ls = lanes[lane];
        // Same-lane loops run one at a time, in submission order.
        std::lock_guard<std::mutex> lane_lk(ls.submit_mu);

        auto job = std::make_shared<Job>();
        job->body = &body;
        job->begin = begin;
        job->end = end;
        job->chunk = chunk;
        job->lane = lane;
        job->nChunks = static_cast<uint32_t>(
            (end - begin + chunk - 1) / chunk);
        job->remaining.store(end - begin, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lk(mu);
            ls.job = job;
            ++activeJobs;
            activeAtomic.store(activeJobs, std::memory_order_relaxed);
        }
        ls.loops.fetch_add(1, std::memory_order_relaxed);
        cv_work.notify_all();

        // The owner drains its own lane. It must count as a worker
        // while it does: a nested parallelFor() issued from inside
        // its chunk must degrade to inline execution. Crucially the
        // loop is complete as soon as remaining hits zero — if the
        // owner claims every chunk before a parked worker wakes, it
        // returns without waiting for any worker acknowledgement.
        in_worker = true;
        while (runOneChunk(*job, /*front=*/true)) {
        }
        // Owner assist: the range is fully claimed but other threads
        // may still be crunching our final chunks. With stealing on,
        // spend that window back-claiming chunks from the busiest
        // other active lane instead of idling in cv_done — this is
        // the "imbalanced lanes donate instead of idling" path. The
        // assist ends the moment our own job retires.
        if (stealing()) {
            while (job->remaining.load(std::memory_order_relaxed) >
                   0) {
                const std::shared_ptr<Job> victim =
                    busiestOtherJob(lane);
                if (!victim)
                    break;
                if (runOneChunk(*victim, /*front=*/false))
                    countSteal(lane, victim->lane);
            }
        }
        in_worker = false;

        std::unique_lock<std::mutex> lk(mu);
        cv_done.wait(lk, [&] { return job->done; });
    }

    void setSpin(size_t micros)
    {
        spinMicros.store(micros, std::memory_order_relaxed);
    }

    size_t spin() const
    {
        return spinMicros.load(std::memory_order_relaxed);
    }

    LaneStats stats(size_t lane)
    {
        LaneStats s;
        s.loops = lanes[lane].loops.load(std::memory_order_relaxed);
        s.chunks = lanes[lane].chunks.load(std::memory_order_relaxed);
        s.steals =
            lanes[lane].steals.load(std::memory_order_relaxed);
        s.donated =
            lanes[lane].donated.load(std::memory_order_relaxed);
        return s;
    }

    void setStealing(bool on)
    {
        stealAtomic.store(on, std::memory_order_relaxed);
    }

    bool stealing() const
    {
        return stealAtomic.load(std::memory_order_relaxed);
    }

  private:
    struct LaneState
    {
        std::mutex submit_mu; ///< serializes same-lane submitters
        std::shared_ptr<Job> job; ///< guarded by Executor::mu
        std::atomic<uint64_t> loops{0};
        std::atomic<uint64_t> chunks{0};
        std::atomic<uint64_t> steals{0};
        std::atomic<uint64_t> donated{0};
    };

    Executor()
    {
        size_t n = std::thread::hardware_concurrency();
        if (const char *env = std::getenv("MOKEY_THREADS")) {
            const long v = std::atol(env);
            if (v >= 1)
                n = static_cast<size_t>(v);
            else
                warn("ignoring invalid MOKEY_THREADS='%s'", env);
        }
        if (n < 1)
            n = 1;
        if (const char *env = std::getenv("MOKEY_WAVE_US")) {
            const long v = std::atol(env);
            if (v >= 0)
                spinMicros.store(static_cast<size_t>(v),
                                 std::memory_order_relaxed);
            else
                warn("ignoring invalid MOKEY_WAVE_US='%s'", env);
        }
        stealAtomic.store(envFlag("MOKEY_STEAL", true),
                          std::memory_order_relaxed);
        // Construct the watchdog singleton before any worker exists:
        // static destruction then tears the Executor (and its worker
        // Task handles) down first, so no worker ever touches a dead
        // Watchdog.
        Watchdog::instance();
        std::lock_guard<std::mutex> lk(mu);
        spawnLocked(n - 1);
    }

    ~Executor() { stopWorkers(); }

    void spawnLocked(size_t n)
    {
        workers.reserve(n);
        for (size_t t = 0; t < n; ++t)
            workers.emplace_back([this] { workerLoop(); });
        threadsAtomic.store(n + 1, std::memory_order_relaxed);
    }

    void stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stopping = true;
            stoppingAtomic.store(true, std::memory_order_relaxed);
        }
        cv_work.notify_all();
        for (auto &w : workers)
            w.join();
        std::lock_guard<std::mutex> lk(mu);
        workers.clear();
        stopping = false;
        stoppingAtomic.store(false, std::memory_order_relaxed);
    }

    /**
     * Claim and execute one chunk of @p job from the given end.
     * Returns false once the job's range is fully claimed (safe to
     * call on a stale job: the claim word just reports exhaustion and
     * the body is never touched).
     */
    bool runOneChunk(Job &job, bool front)
    {
        size_t lo, hi;
        if (!claimChunk(job, front, lo, hi))
            return false;
        (*job.body)(lo, hi);
        lanes[job.lane].chunks.fetch_add(1, std::memory_order_relaxed);
        // acq_rel: the finisher that observes zero must also observe
        // every other chunk's writes, so the owner (woken under mu)
        // sees the loop's complete output.
        const size_t left =
            job.remaining.fetch_sub(hi - lo,
                                    std::memory_order_acq_rel) -
            (hi - lo);
        if (left == 0)
            finishJob(job);
        return true;
    }

    /** Attribute one stolen chunk: @p thief took it for its own lane
     *  from @p victim's job. */
    void countSteal(size_t thief, size_t victim)
    {
        lanes[thief].steals.fetch_add(1, std::memory_order_relaxed);
        lanes[victim].donated.fetch_add(1,
                                        std::memory_order_relaxed);
    }

    /**
     * The active job (excluding @p lane's) with the most unclaimed
     * work, or null when every other lane is drained. Takes mu only
     * for the slot scan; the returned shared_ptr keeps the job alive
     * past the lock.
     */
    std::shared_ptr<Job> busiestOtherJob(size_t lane)
    {
        std::lock_guard<std::mutex> lk(mu);
        std::shared_ptr<Job> best;
        size_t bestWork = 0;
        for (const auto &l : lanes) {
            if (!l.job || l.job->lane == lane)
                continue;
            const size_t work =
                static_cast<size_t>(unclaimedChunks(*l.job)) *
                l.job->chunk;
            if (work > bestWork) {
                bestWork = work;
                best = l.job;
            }
        }
        return best;
    }

    /** Last chunk of @p job executed: retire it and wake its owner. */
    void finishJob(Job &job)
    {
        std::lock_guard<std::mutex> lk(mu);
        job.done = true;
        LaneState &ls = lanes[job.lane];
        if (ls.job.get() == &job)
            ls.job.reset();
        --activeJobs;
        activeAtomic.store(activeJobs, std::memory_order_relaxed);
        cv_done.notify_all();
    }

    /**
     * A lane has work this worker could claim (call with mu held).
     * An exhausted-but-unfinished job (last chunks still running on
     * other threads) is NOT claimable: cursors only advance, so a
     * worker that finds nothing claimable can park — the threads
     * holding the final chunks retire the job themselves.
     */
    bool claimableLocked() const
    {
        for (const auto &l : lanes)
            if (l.job && unclaimedChunks(*l.job) > 0)
                return true;
        return false;
    }

    /**
     * Stealing-off schedule: one chunk per lane per pass,
     * round-robin, so concurrent lanes interleave fairly instead of
     * FIFO-starving. This is the frozen PR 3 behaviour the
     * determinism tests compare stealing against.
     */
    void drainShared(std::array<std::shared_ptr<Job>, kLaneCount> &snap,
                     size_t n, Watchdog::Task &wdt)
    {
        // A false return means the job is exhausted for good — drop
        // it so later passes stop hammering its dead claim word.
        size_t live = n;
        while (live > 0) {
            wdt.beat();
            for (size_t i = 0; i < n; ++i) {
                if (snap[i] &&
                    !runOneChunk(*snap[i], /*front=*/true)) {
                    snap[i].reset();
                    --live;
                }
            }
        }
    }

    /**
     * Stealing-on schedule: stay affine to one home lane and walk its
     * chunks front-to-back (cache-friendly, contention-free against
     * thieves); once home is drained, back-claim from the busiest
     * remaining lane in the snapshot, counting each chunk as a
     * steal. The worker re-homes to its last victim at the end of the
     * pass, so a migration pays steal accounting once and then
     * becomes an affine front-walker on its new lane.
     */
    void drainStealing(
        std::array<std::shared_ptr<Job>, kLaneCount> &snap, size_t n,
        size_t &home, Watchdog::Task &wdt)
    {
        auto homeEntry = [&]() -> std::shared_ptr<Job> * {
            for (size_t i = 0; i < n; ++i)
                if (snap[i] && snap[i]->lane == home)
                    return &snap[i];
            return nullptr;
        };
        // A worker with no home yet adopts the busiest lane outright
        // — adoption is not a steal. (A worker whose home lane is
        // merely inactive this pass keeps it: its steals below are
        // attributed to the lane it last worked for.)
        if (home == kLaneCount) {
            size_t bestWork = 0;
            for (size_t i = 0; i < n; ++i) {
                if (!snap[i])
                    continue;
                const size_t work =
                    static_cast<size_t>(unclaimedChunks(*snap[i])) *
                    snap[i]->chunk;
                if (work >= bestWork) {
                    bestWork = work;
                    home = snap[i]->lane;
                }
            }
        }
        size_t lastVictim = kLaneCount;
        bool frontClaimed = false;
        for (;;) {
            wdt.beat();
            if (std::shared_ptr<Job> *he = homeEntry()) {
                if (runOneChunk(**he, /*front=*/true)) {
                    frontClaimed = true;
                    continue;
                }
                he->reset();
            }
            // Home drained: steal from the tail of the busiest
            // remaining lane in this pass's snapshot.
            std::shared_ptr<Job> *victim = nullptr;
            size_t bestWork = 0;
            for (size_t i = 0; i < n; ++i) {
                if (!snap[i])
                    continue;
                const size_t work =
                    static_cast<size_t>(unclaimedChunks(*snap[i])) *
                    snap[i]->chunk;
                if (work >= bestWork) {
                    bestWork = work;
                    victim = &snap[i];
                }
            }
            if (victim == nullptr)
                break;
            if (runOneChunk(**victim, /*front=*/false)) {
                countSteal(home, (*victim)->lane);
                lastVictim = (*victim)->lane;
            } else {
                victim->reset();
            }
        }
        if (!frontClaimed && lastVictim != kLaneCount)
            home = lastVictim;
    }

    void workerLoop()
    {
        in_worker = true;
        Watchdog::Task wdt =
            Watchdog::instance().monitor("executor-worker");
        // Sticky lane affinity for the stealing schedule; kLaneCount
        // means "no home yet".
        size_t home = kLaneCount;
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            wdt.idle();
            cv_work.wait(lk, [this] {
                return stopping || claimableLocked();
            });
            wdt.beat();
            if (stopping)
                return;

            // Snapshot the claimable slots, then drain them without
            // the lock.
            std::array<std::shared_ptr<Job>, kLaneCount> snap;
            size_t n = 0;
            for (auto &l : lanes)
                if (l.job && unclaimedChunks(*l.job) > 0)
                    snap[n++] = l.job;
            if (n > 0) {
                lk.unlock();
                if (stealing())
                    drainStealing(snap, n, home, wdt);
                else
                    drainShared(snap, n, wdt);
                lk.lock();
            }

            // Persistent-wave: spin briefly for the next loop before
            // parking, trading idle CPU for pick-up latency in
            // many-small-loop phases.
            const size_t spin_us = spin();
            if (spin_us > 0) {
                lk.unlock();
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::microseconds(spin_us);
                while (activeAtomic.load(std::memory_order_relaxed) ==
                           0 &&
                       !stoppingAtomic.load(
                           std::memory_order_relaxed) &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                lk.lock();
            }
        }
    }

    std::mutex mu;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    std::vector<std::thread> workers;
    std::array<LaneState, kLaneCount> lanes;

    size_t activeJobs = 0;              ///< guarded by mu
    std::atomic<size_t> activeAtomic{0}; ///< lock-free mirror for spins
    std::atomic<size_t> threadsAtomic{1}; ///< workers + caller
    bool stopping = false;              ///< guarded by mu
    std::atomic<bool> stoppingAtomic{false};
    std::atomic<size_t> spinMicros{0};
    std::atomic<bool> stealAtomic{true};
};

} // anonymous namespace

Lane
Lane::acquire()
{
    static std::atomic<size_t> next{0};
    return Lane(1 + next.fetch_add(1, std::memory_order_relaxed) %
                        (kLaneCount - 1));
}

Lane
Lane::ofIndex(size_t i)
{
    return Lane(1 + i % (kLaneCount - 1));
}

LaneStats
laneStats(Lane lane)
{
    return Executor::global().stats(lane.id());
}

size_t
threadCount()
{
    return Executor::global().threads();
}

void
setThreadCount(size_t n)
{
    MOKEY_ASSERT(!in_worker,
                 "setThreadCount() from inside the executor");
    Executor::global().resize(n);
}

void
setWaveSpin(size_t micros)
{
    Executor::global().setSpin(micros);
}

void
setLaneStealing(bool on)
{
    Executor::global().setStealing(on);
}

bool
laneStealing()
{
    return Executor::global().stealing();
}

size_t
waveSpin()
{
    return Executor::global().spin();
}

void
parallelForRange(Lane lane, size_t begin, size_t end, size_t grain,
                 const RangeBody &body)
{
    if (begin >= end)
        return;
    if (grain < 1)
        grain = 1;
    const size_t range = end - begin;
    // Check the thread_local first: nested loops (the common case in
    // the hot kernels) must not touch the executor mutexes at all.
    if (in_worker || range <= grain) {
        body(begin, end);
        return;
    }
    Executor &exec = Executor::global();
    const size_t threads = exec.threads();
    if (threads == 1) {
        body(begin, end);
        return;
    }
    // Deterministic chunk size: split into ~4 chunks per thread for
    // load balance, but never below the caller's grain. A pure
    // function of (range, grain, thread count) — lanes never affect
    // chunk boundaries, only when each chunk runs.
    const size_t target = (range + threads * 4 - 1) / (threads * 4);
    exec.run(lane.id(), begin, end, std::max(grain, target), body);
}

void
parallelForRange(size_t begin, size_t end, size_t grain,
                 const RangeBody &body)
{
    parallelForRange(Lane{}, begin, end, grain, body);
}

void
parallelFor(Lane lane, size_t begin, size_t end, size_t grain,
            const std::function<void(size_t)> &body)
{
    parallelForRange(lane, begin, end, grain,
                     [&body](size_t lo, size_t hi) {
                         for (size_t i = lo; i < hi; ++i)
                             body(i);
                     });
}

void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t)> &body)
{
    parallelFor(Lane{}, begin, end, grain, body);
}

size_t
grainFor(size_t work)
{
    return std::max<size_t>(1, (size_t{1} << 15) / (work + 1));
}

void
parallelForTiles(Lane lane, size_t rows, size_t cols, size_t tileCols,
                 size_t k, const TileBody &body)
{
    if (rows == 0 || cols == 0)
        return;
    const size_t quarters = 4 * threadCount();
    const size_t band = (rows + quarters - 1) / quarters;
    const size_t bands = (rows + band - 1) / band;
    const size_t tiles = (cols + tileCols - 1) / tileCols;
    parallelForRange(
        lane, 0, bands * tiles, grainFor(band * tileCols * k),
        [&](size_t lo, size_t hi) {
            while (lo < hi) {
                const size_t b = lo / tiles;
                if (lo % tiles == 0 && hi - lo >= tiles) {
                    // A run of whole bands is one rectangle, so an
                    // inline GEMM reuses each tile across all its rows.
                    const size_t b_end = hi / tiles;
                    body(b * band, std::min(rows, b_end * band), 0, cols);
                    lo = b_end * tiles;
                } else {
                    const size_t end = std::min(hi, (b + 1) * tiles);
                    body(b * band, std::min(rows, (b + 1) * band),
                         (lo - b * tiles) * tileCols,
                         std::min(cols, (end - b * tiles) * tileCols));
                    lo = end;
                }
            }
        });
}

} // namespace mokey
