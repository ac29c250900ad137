/**
 * @file
 * Continuous iteration-level batch scheduler — the one serving
 * scheduler in front of the quantized pipeline. It re-forms the
 * running batch every step.
 *
 * The model is a bidirectional encoder (full softmax over the whole
 * sequence), so the indivisible scheduling unit is one encoder LAYER
 * over a full sequence, not one generated token. A request's state
 * between steps is its float activation rows plus the index of the
 * next layer to apply; QuantizedTransformer::forwardStep() advances
 * any stacked group of co-layer requests by one layer, bit-identical
 * to the one-shot forward()/forwardBatch() by the step composition
 * contract (see pipeline.hh).
 *
 * Two-class policy:
 *
 *  - Requests with at most decodeMaxRows rows form the DECODE class
 *    (the latency-critical short requests of a serving mix); all
 *    others are PREFILL. With decodePriority off, everything is
 *    prefill and the scheduler degrades to plain FIFO iteration-
 *    level batching.
 *
 *  - Every iteration, decode-class requests are stacked and advanced
 *    FIRST, metered by decodeTokens stacked rows per iteration (at
 *    least one always advances) — and the selected decodes run to
 *    COMPLETION within the iteration, since their rows are cheap. A
 *    decode request therefore never waits behind a long prefill for
 *    more than the one in-flight layer step.
 *
 *  - Prefill advancement is metered by chunkTokens stacked rows per
 *    iteration, FIFO, at least one per iteration (no starvation):
 *    a long prefill advances one budgeted layer slice at a time,
 *    interleaving with decode steps, instead of monopolising the
 *    engine. Requests held back by the budget count as deferrals.
 *
 *  - Arrivals join the running batch at layer 0 between steps (up to
 *    maxBatch co-resident requests); finished requests leave and
 *    free their slot immediately — no batch-boundary barriers.
 *
 * Run-to-completion batching is a setting of the same loop, not a
 * second scheduler: with decodeMaxRows = SIZE_MAX every request is
 * decode class, so each iteration stacks up to decodeTokens rows of
 * admitted requests and runs them through every layer before the
 * next arrival may join — later arrivals wait out the whole pass.
 * bench_serving compares the two settings with
 * {maxBatch = 4, decodeMaxRows = SIZE_MAX, decodeTokens = 96} as the
 * run-to-completion comparand.
 *
 * Knobs: MOKEY_CHUNK_TOKENS overrides chunkTokens and
 * MOKEY_DECODE_PRIORITY overrides decodePriority at construction.
 *
 * Failure semantics (what a serving deployment relies on):
 *  - A step whose forward throws (or returns the wrong shape) fails
 *    only the requests that actually poison it: the group's members
 *    are retried individually, the thrower(s) observe the exception
 *    through their future/callback, and everyone else keeps
 *    stepping. The process never terminates because an engine threw.
 *  - submit() on a stopped/stopping scheduler is rejected
 *    gracefully: the future carries a std::runtime_error (the
 *    callback overload returns false) so a draining server can shed
 *    the request with a 503 instead of crashing on the race.
 *  - stop() (and the destructor) flush queued and active work
 *    before joining.
 */

#ifndef MOKEY_MODEL_CONTINUOUS_SCHEDULER_HH
#define MOKEY_MODEL_CONTINUOUS_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "model/pipeline.hh"

namespace mokey
{

/**
 * Per-request completion callback (the async alternative to the
 * future API, used by the network front-end). Invoked exactly once
 * from the step thread: on success with the output tensor and a
 * null exception pointer, on failure with an empty tensor and the
 * exception that failed the request.
 */
using BatchCompletion =
    std::function<void(Tensor output, std::exception_ptr error)>;

/**
 * Absolute per-request deadline on the steady clock; kNoDeadline
 * (the default) means the request never expires. The serving
 * front-end stamps one from the client's X-Mokey-Deadline-Ms header.
 */
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/**
 * The error an expired request observes: its deadline passed while
 * it sat queued or between layer steps — the client already gave
 * up, so finishing the work would only burn engine time. The HTTP
 * front-end maps this to 504.
 */
class DeadlineExpired : public std::runtime_error
{
  public:
    DeadlineExpired()
        : std::runtime_error("request deadline expired")
    {
    }
};

/** Iteration-level scheduling knobs. */
struct ContinuousSchedulerConfig
{
    /** Maximum co-resident requests in the running batch. */
    size_t maxBatch = 16;

    /** Requests with <= this many rows are decode class. */
    size_t decodeMaxRows = 4;

    /** Decode-class stacked-row budget per iteration (>= 1 decode
     *  request always advances). */
    size_t decodeTokens = 64;

    /** Prefill-class stacked-row budget per iteration (>= 1 prefill
     *  always advances; MOKEY_CHUNK_TOKENS overrides). */
    size_t chunkTokens = 128;

    /** Schedule decode ahead of prefill each iteration; off melts
     *  both classes into one FIFO (MOKEY_DECODE_PRIORITY overrides). */
    bool decodePriority = true;
};

/** Counters exposed for tests and monitoring. */
struct ContinuousSchedulerStats
{
    uint64_t requests = 0;         ///< submitted
    uint64_t rejected = 0;         ///< submits refused (stopped/empty)
    uint64_t completed = 0;        ///< requests finished successfully
    uint64_t failedRequests = 0;   ///< requests that observed a throw
    uint64_t iterations = 0;       ///< scheduler loop iterations
    uint64_t steps = 0;            ///< forwardStep group calls
    uint64_t decodeSteps = 0;      ///< ... of decode-class groups
    uint64_t prefillSteps = 0;     ///< ... of prefill-class groups
    uint64_t stepRows = 0;         ///< stacked rows across steps
    uint64_t joins = 0;            ///< admissions into running batch
    uint64_t prefillDeferrals = 0; ///< prefills budget held back
    uint64_t isolationRetries = 0; ///< individual retries after throw
    uint64_t expiredRequests = 0;  ///< dropped: deadline passed
};

/**
 * The one-layer step a continuous scheduler dispatches: stacked
 * co-layer rows in, stacked output rows (same shape) out. May throw —
 * the scheduler isolates the poisoned request(s), never crashes.
 */
using StepForwardFn = std::function<Tensor(
    size_t layer, const Tensor &stacked,
    const std::vector<size_t> &starts, QuantMode mode, Lane lane)>;

/** Iteration-level two-class scheduler for one pipeline. */
class ContinuousScheduler
{
  public:
    /**
     * @param engine quantized pipeline (must be ready() for the
     *               requested mode and outlive the scheduler)
     * @param mode   quantization mode every step runs under
     * @param cfg    scheduling knobs (env overrides applied)
     */
    ContinuousScheduler(const QuantizedTransformer &engine,
                        QuantMode mode,
                        ContinuousSchedulerConfig cfg = {});

    /** The scheduler keeps a reference to @p engine: a temporary
     *  would dangle as soon as the constructor returned. */
    ContinuousScheduler(const QuantizedTransformer &&engine,
                        QuantMode mode,
                        ContinuousSchedulerConfig cfg = {}) = delete;

    /**
     * Step onto an arbitrary one-layer forward of @p steps layers.
     * Serving stacks use this to interpose (and tests to inject
     * failures); the pipeline constructor is the common wrapper.
     */
    ContinuousScheduler(StepForwardFn step, size_t steps,
                        QuantMode mode,
                        ContinuousSchedulerConfig cfg = {});

    /** Flushes the queue, finishes active requests, joins. */
    ~ContinuousScheduler();

    ContinuousScheduler(const ContinuousScheduler &) = delete;
    ContinuousScheduler &operator=(const ContinuousScheduler &) =
        delete;

    /**
     * Queue one request (seq x hidden embedded input). The future
     * resolves to the full forward result once the request has
     * stepped through every layer, or carries the exception that
     * poisoned it. Rejections (stopping, empty input) resolve to a
     * std::runtime_error instead of panicking. A non-default
     * @p deadline that passes while the request is queued OR between
     * layer steps resolves to DeadlineExpired — a doomed prefill
     * frees its batch slot mid-flight instead of finishing a pass
     * nobody will read.
     */
    std::future<Tensor> submit(Tensor input,
                               Deadline deadline = kNoDeadline);

    /**
     * Callback-style submit (the event-loop front-end's path).
     * Returns false without invoking @p done when stopped/stopping
     * or the input is empty; otherwise @p done fires exactly once
     * from the step thread. The callback must not block for long and
     * must not re-enter the scheduler.
     */
    bool submit(Tensor input, BatchCompletion done,
                Deadline deadline = kNoDeadline);

    /** Block until every submitted request has completed. */
    void drain();

    /**
     * Stop accepting work, flush queued + active requests, join the
     * step thread. Idempotent; the destructor calls it.
     */
    void stop();

    /** Requests admitted but not yet completed (queued + active). */
    size_t queueDepth() const;

    /**
     * EWMA of the measured service time of recently finished
     * requests, in seconds: from admission into the running batch to
     * completion, so queueing before admission is not counted. This
     * is what one dispatch wave costs; the serving front end sizes
     * 503 Retry-After hints from it. Zero until a request finishes.
     */
    double recentBatchSeconds() const;

    ContinuousSchedulerStats stats() const;

    /** Effective knobs after env overrides (tests assert these). */
    const ContinuousSchedulerConfig &config() const { return cfg; }

  private:
    /** One co-resident request and its between-steps state. */
    struct Active
    {
        Tensor x;     ///< current activation rows (float domain)
        size_t layer; ///< next layer to apply
        bool decode;  ///< class at admission (row count is stable)
        std::promise<Tensor> result; ///< unused when done is set
        BatchCompletion done;        ///< callback path when non-null
        Deadline deadline = kNoDeadline;
        std::chrono::steady_clock::time_point admitted;
    };

    struct Pending
    {
        Tensor input;
        std::promise<Tensor> result;
        BatchCompletion done;
        Deadline deadline = kNoDeadline;
    };

    void stepLoop();

    /** Select up to @p budget stacked rows of @p cls members in
     *  admission order (>= 1 when any exist); call with mu held. */
    std::vector<std::list<Active>::iterator>
    pickClass(bool decodeClass, size_t budget, uint64_t &deferred);

    /** Advance one co-layer group by one layer (outside mu),
     *  isolating throwers; fills @p finished / @p failed. */
    void runGroup(const std::vector<std::list<Active>::iterator> &grp,
                  Lane lane, bool decodeClass,
                  std::vector<std::list<Active>::iterator> &finished,
                  std::vector<std::list<Active>::iterator> &failed,
                  std::vector<std::exception_ptr> &failures);

    bool enqueue(Pending &&req);

    /** Resolve one request with a result or an error, never throw. */
    static void finish(Active &a, Tensor &&out,
                       const std::exception_ptr &err);

    /** Resolve one still-queued request with an error (expiry). */
    static void finishPending(Pending &p,
                              const std::exception_ptr &err);

    const StepForwardFn step;
    const size_t nSteps;
    const QuantMode mode;
    ContinuousSchedulerConfig cfg; ///< env-resolved at construction

    mutable std::mutex mu;
    std::condition_variable cvWork; ///< queue grew / stopping
    std::condition_variable cvDone; ///< request finished
    std::deque<Pending> queue;
    std::list<Active> active; ///< running batch (step thread edits)
    size_t resolving = 0; ///< expired, completion still running (mu)
    bool stopping = false;
    bool joinedFlag = false;
    ContinuousSchedulerStats st;
    double recentPass = 0; ///< EWMA of admission-to-done secs (mu)

    /** Per-iteration counters the step thread fills while unlocked,
     *  merged into st under mu at the end of each iteration. */
    struct IterationTally
    {
        uint64_t steps = 0;
        uint64_t decodeSteps = 0;
        uint64_t prefillSteps = 0;
        uint64_t stepRows = 0;
        uint64_t isolationRetries = 0;
    };
    IterationTally tally; ///< step thread only, never under mu

    Lane lane;
    std::thread stepper;
};

} // namespace mokey

#endif // MOKEY_MODEL_CONTINUOUS_SCHEDULER_HH
