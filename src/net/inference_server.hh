/**
 * @file
 * The production serving front-end: epoll HTTP server wrapped around
 * the continuous iteration-level scheduler (continuous_scheduler.hh;
 * run-to-completion batching is a setting of that scheduler, see
 * there).
 *
 * Request flow: the SocketServer loop parses a POST /v1/forward, the
 * handler validates the binary tensor body, applies admission
 * control (queue-depth cap -> 503 shed with a Retry-After sized from
 * measured recent service time, per-client fairness via the socket
 * layer's per-peer connection cap), and submits to the scheduler
 * with a completion callback. When the request's last layer step
 * finishes, the callback — on the scheduler's step thread —
 * streams the output tensor back as chunked transfer frames (one
 * dims frame, one frame per row, terminator) through the server's
 * thread-safe outbox. Bytes on the wire are the exact float32 bits
 * forward() produced: serving is bit-identical to in-process calls.
 *
 * Failure flow: an engine exception becomes a 500 on exactly the
 * requests that poisoned the failed step; a submit that races
 * drain/stop becomes a 503; neither takes the process down (the
 * scheduler's failure contract).
 *
 * Deadlines: a client may send X-Mokey-Deadline-Ms: N on
 * /v1/forward. The handler stamps an absolute steady-clock deadline
 * at admission; a request whose deadline passes while queued or
 * between layer steps completes with 504 instead
 * of burning engine time. A junk header value is a 400.
 *
 * Endpoints:
 *   POST /v1/forward  binary tensor in -> chunked binary tensor out
 *   GET  /healthz     three-state health: 200 "ok", 503 "degraded:
 *                     <cause>" (a serving loop stalled past its
 *                     watchdog budget), 503 "draining" (graceful
 *                     shutdown began — load balancers stop routing
 *                     here while in-flight work finishes)
 *   GET  /v1/stats    JSON counters (server + scheduler + depth)
 *
 * Wire format of a tensor — always little-endian on the wire
 * (big-endian hosts byte-swap on encode/decode, so cross-platform
 * clients interoperate rather than decoding garbage):
 *   uint32 rows, uint32 cols, rows*cols IEEE-754 float32 row-major
 *   values.
 */

#ifndef MOKEY_NET_INFERENCE_SERVER_HH
#define MOKEY_NET_INFERENCE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "model/continuous_scheduler.hh"
#include "net/socket_server.hh"

namespace mokey::net
{

/** Front-end knobs on top of the socket and scheduler layers. */
struct InferenceServerConfig
{
    SocketServerConfig socket;

    /** Scheduling knobs of the continuous scheduler. */
    ContinuousSchedulerConfig continuousScheduler;

    /** Quantization mode every served request runs under. */
    QuantMode mode = QuantMode::WeightsAndActivations;

    /**
     * Admission cap: shed with 503 when the scheduler already holds
     * this many uncompleted requests (queued + in-flight). The
     * backpressure knob that keeps tail latency bounded when offered
     * load exceeds capacity.
     */
    size_t maxQueueDepth = 64;

    /** Stream the output as one chunk per row (true) or a single
     *  contiguous chunk (false); both end bit-identical. */
    bool streamRows = true;
};

/** Front-end counters (monotonic). */
struct InferenceServerStats
{
    uint64_t requests = 0;    ///< /v1/forward requests received
    uint64_t completed = 0;   ///< 200 responses streamed
    uint64_t shed = 0;        ///< 503: queue-depth cap or stop race
    uint64_t failed = 0;      ///< 500: the request's step threw
    uint64_t badRequests = 0; ///< 400/404/405 at the route layer
    uint64_t expired = 0;     ///< 504: deadline passed before done
};

/** Three-state health surfaced by GET /healthz. */
enum class ServerHealth
{
    Ok,       ///< serving, all monitored loops beating
    Degraded, ///< a serving loop stalled past its watchdog budget
    Draining, ///< graceful shutdown in progress (sheds new work)
};

/**
 * The Retry-After hint a shedding 503 carries, derived from measured
 * service latency instead of a constant: roughly how long the
 * current backlog (@p depth requests over batches of @p maxBatch)
 * takes to clear at @p recentSeconds per batch, clamped to [1, 30]
 * whole seconds. Returns 1 before any latency has been measured.
 * Pure — unit-tested directly.
 */
unsigned retryAfterSeconds(double recentSeconds, size_t depth,
                           size_t maxBatch);

/**
 * What retryAfterSeconds assumes one dispatch wave costs before any
 * latency has been measured (cold start): a queued-up replica that
 * has not completed a request yet still hints proportionally to its
 * backlog instead of collapsing to the 1-second clamp floor.
 */
inline constexpr double kColdStartWaveSeconds = 0.25;

/** Serialize @p t in the binary wire format. */
std::string encodeTensorBody(const Tensor &t);

/**
 * Parse a binary tensor body. Returns false on malformed input
 * (short body, size mismatch, zero dims).
 */
bool decodeTensorBody(const std::string &body, Tensor &out);

/** HTTP serving wrapper: scheduler + epoll server + admission. */
class InferenceServer
{
  public:
    /** Serve @p pipe (must be ready() and outlive the server);
     *  request width is validated against its model config. */
    InferenceServer(const QuantizedTransformer &pipe,
                    InferenceServerConfig cfg = {});

    /** The server keeps a reference to @p pipe: a temporary would
     *  dangle as soon as the constructor returned. */
    InferenceServer(const QuantizedTransformer &&pipe,
                    InferenceServerConfig cfg = {}) = delete;

    /**
     * Serve an arbitrary one-layer step of @p steps layers (fault
     * injection, stubs and tracing interpose this way).
     * @p expect_cols validates request width when non-zero.
     */
    InferenceServer(StepForwardFn step, size_t steps,
                    size_t expect_cols,
                    InferenceServerConfig cfg = {});

    /** Graceful drain, then teardown. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /** Bind + spawn the event loop (throws on bind failure). */
    void start();

    /** Bound port (resolves socket.port == 0). */
    uint16_t port() const { return server->port(); }

    /**
     * Graceful shutdown: stop accepting, shed new requests with
     * 503, finish and flush every in-flight response, stop the
     * scheduler. Blocks until done. Safe to call twice.
     */
    void drain();

    /**
     * Trigger the drain without blocking (SIGTERM path). /healthz
     * reports draining from this instant — before the socket layer
     * has even processed the wakeup — so a load balancer polling
     * health never routes new work at a server that will shed it.
     */
    void beginDrain()
    {
        draining.store(true, std::memory_order_release);
        server->beginDrain();
    }

    /** Live three-state health (what /healthz serves). */
    ServerHealth health() const;

    /** The watchdog cause string when health() is Degraded. */
    std::string healthCause() const;

    InferenceServerStats stats() const;
    SocketServerStats socketStats() const { return server->stats(); }

    /** Scheduler counters. */
    ContinuousSchedulerStats continuousSchedulerStats() const
    {
        return sched->stats();
    }

    /** Admitted-but-uncompleted requests (the admission signal). */
    size_t queueDepth() const { return sched->queueDepth(); }

  private:
    InferenceServer(std::unique_ptr<ContinuousScheduler> s,
                    size_t expect_cols, InferenceServerConfig cfg);

    void onRequest(uint64_t connId, HttpRequest &&req);
    void completeForward(uint64_t connId, bool keep_alive,
                         Tensor &&out, std::exception_ptr err);
    std::string statsJson() const;

    const InferenceServerConfig cfg;
    const size_t expectCols;

    // Declaration order is destruction order in reverse: the server
    // (posts outbox) must outlive the scheduler (whose completion
    // callbacks post into it).
    std::unique_ptr<SocketServer> server;
    std::unique_ptr<ContinuousScheduler> sched;
    std::atomic<bool> drained{false};
    std::atomic<bool> draining{false}; ///< beginDrain()/drain() ran

    struct
    {
        std::atomic<uint64_t> requests{0}, completed{0}, shed{0},
            failed{0}, badRequests{0}, expired{0};
    } counters;
};

} // namespace mokey::net

#endif // MOKEY_NET_INFERENCE_SERVER_HH
