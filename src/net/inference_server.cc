#include "net/inference_server.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/watchdog.hh"

namespace mokey::net
{

namespace
{

// The tensor wire format is explicitly little-endian (uint32 dims,
// IEEE-754 float32 payload). Big-endian hosts byte-swap on encode
// and decode so cross-platform clients never consume garbage bits.
#if defined(__BYTE_ORDER__) &&                                       \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
constexpr bool kBigEndianHost = true;
#else
constexpr bool kBigEndianHost = false;
#endif

void
putU32(std::string &s, uint32_t v)
{
    const char b[4] = {static_cast<char>(v & 0xff),
                       static_cast<char>((v >> 8) & 0xff),
                       static_cast<char>((v >> 16) & 0xff),
                       static_cast<char>((v >> 24) & 0xff)};
    s.append(b, 4);
}

uint32_t
getU32(const char *p)
{
    const auto *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<uint32_t>(u[0]) |
           (static_cast<uint32_t>(u[1]) << 8) |
           (static_cast<uint32_t>(u[2]) << 16) |
           (static_cast<uint32_t>(u[3]) << 24);
}

void
appendFloatsLE(std::string &s, const float *vals, size_t n)
{
    if (!kBigEndianHost) {
        s.append(reinterpret_cast<const char *>(vals),
                 n * sizeof(float));
        return;
    }
    for (size_t i = 0; i < n; ++i) {
        uint32_t bits;
        std::memcpy(&bits, &vals[i], sizeof bits);
        putU32(s, bits);
    }
}

void
copyFloatsLE(float *dst, const char *src, size_t n)
{
    if (!kBigEndianHost) {
        std::memcpy(dst, src, n * sizeof(float));
        return;
    }
    for (size_t i = 0; i < n; ++i) {
        const uint32_t bits = getU32(src + i * sizeof(float));
        std::memcpy(&dst[i], &bits, sizeof bits);
    }
}

std::string
floatChunk(const float *vals, size_t n)
{
    if (!kBigEndianHost)
        return chunk(reinterpret_cast<const char *>(vals),
                     n * sizeof(float));
    std::string payload;
    payload.reserve(n * sizeof(float));
    appendFloatsLE(payload, vals, n);
    return chunk(payload.data(), payload.size());
}

} // namespace

std::string
encodeTensorBody(const Tensor &t)
{
    std::string s;
    s.reserve(8 + t.size() * sizeof(float));
    putU32(s, static_cast<uint32_t>(t.rows()));
    putU32(s, static_cast<uint32_t>(t.cols()));
    appendFloatsLE(s, t.data(), t.size());
    return s;
}

bool
decodeTensorBody(const std::string &body, Tensor &out)
{
    if (body.size() < 8)
        return false;
    const uint64_t rows = getU32(body.data());
    const uint64_t cols = getU32(body.data() + 4);
    if (rows == 0 || cols == 0)
        return false;
    // Validate by division: the product form `8 + n * sizeof(float)`
    // wraps mod 2^64 for hostile dims (rows = cols = 2^31 passes an
    // 8-byte body) and would reach the allocation below — a remote
    // DoS via a tiny request. The division cannot overflow, and on
    // match n is bounded by body.size()/4 (itself parser-capped).
    const uint64_t payload = body.size() - 8;
    if (payload % sizeof(float) != 0 ||
        payload / sizeof(float) != rows * cols)
        return false;
    const size_t n = static_cast<size_t>(rows * cols);
    std::vector<float> data(n);
    copyFloatsLE(data.data(), body.data() + 8, n);
    out = Tensor(static_cast<size_t>(rows),
                 static_cast<size_t>(cols), std::move(data));
    return true;
}

unsigned
retryAfterSeconds(double recentSeconds, size_t depth,
                  size_t maxBatch)
{
    // Cold start: before the first request completes the EWMA is
    // zero, but the backlog is still real — a replica slammed at
    // startup must not tell every shed client "retry in 1s"
    // regardless of how deep its queue is. Assume a nominal wave
    // cost until a measurement replaces it.
    const double per =
        recentSeconds > 0 ? recentSeconds : kColdStartWaveSeconds;
    // Waves of work ahead of a retrying client: the backlog in
    // units of one dispatch, plus the wave its own retry joins.
    const double waves =
        static_cast<double>(depth) /
            static_cast<double>(maxBatch < 1 ? 1 : maxBatch) +
        1.0;
    const double secs = std::ceil(per * waves);
    if (secs <= 1.0)
        return 1;
    if (secs >= 30.0)
        return 30;
    return static_cast<unsigned>(secs);
}

InferenceServer::InferenceServer(const QuantizedTransformer &pipe,
                                 InferenceServerConfig c)
    : InferenceServer(std::make_unique<ContinuousScheduler>(
                          pipe, c.mode, c.continuousScheduler),
                      pipe.modelConfig().hidden, c)
{
}

InferenceServer::InferenceServer(StepForwardFn step, size_t steps,
                                 size_t expect_cols,
                                 InferenceServerConfig c)
    : InferenceServer(std::make_unique<ContinuousScheduler>(
                          std::move(step), steps, c.mode,
                          c.continuousScheduler),
                      expect_cols, c)
{
}

InferenceServer::InferenceServer(std::unique_ptr<ContinuousScheduler> s,
                                 size_t expect_cols,
                                 InferenceServerConfig c)
    : cfg(c), expectCols(expect_cols),
      server(std::make_unique<SocketServer>(
          cfg.socket,
          [this](uint64_t connId, HttpRequest &&req) {
              onRequest(connId, std::move(req));
          })),
      sched(std::move(s))
{
}

InferenceServer::~InferenceServer()
{
    drain();
}

void
InferenceServer::start()
{
    server->start();
}

void
InferenceServer::drain()
{
    draining.store(true, std::memory_order_release);
    if (drained.exchange(true))
        return;
    // Order matters: stop admitting (the socket layer sheds new
    // requests with 503), let the scheduler finish everything
    // already admitted (completions post their responses), wait for
    // the loop to flush and close every connection, then stop the
    // step thread.
    server->beginDrain();
    sched->drain();
    server->waitDrained();
    sched->stop();
}

ServerHealth
InferenceServer::health() const
{
    if (draining.load(std::memory_order_acquire))
        return ServerHealth::Draining;
    if (!Watchdog::instance().healthy())
        return ServerHealth::Degraded;
    return ServerHealth::Ok;
}

std::string
InferenceServer::healthCause() const
{
    return Watchdog::instance().cause();
}

InferenceServerStats
InferenceServer::stats() const
{
    InferenceServerStats s;
    s.requests = counters.requests.load();
    s.completed = counters.completed.load();
    s.shed = counters.shed.load();
    s.failed = counters.failed.load();
    s.badRequests = counters.badRequests.load();
    s.expired = counters.expired.load();
    return s;
}

std::string
InferenceServer::statsJson() const
{
    const InferenceServerStats is = stats();
    const SocketServerStats ss = server->stats();
    auto u = [](uint64_t v) { return std::to_string(v); };
    std::string j = "{\n";
    j += "  \"requests\": " + u(is.requests) + ",\n";
    j += "  \"completed\": " + u(is.completed) + ",\n";
    j += "  \"shed\": " + u(is.shed) + ",\n";
    j += "  \"failed\": " + u(is.failed) + ",\n";
    j += "  \"bad_requests\": " + u(is.badRequests) + ",\n";
    j += "  \"expired\": " + u(is.expired) + ",\n";
    const ServerHealth h = health();
    j += std::string("  \"health\": \"") +
         (h == ServerHealth::Ok
              ? "ok"
              : h == ServerHealth::Degraded ? "degraded"
                                            : "draining") +
         "\",\n";
    j += "  \"watchdog_stall_events\": " +
         u(Watchdog::instance().stallEvents()) + ",\n";
    j += "  \"queue_depth\": " + u(sched->queueDepth()) + ",\n";
    j += "  \"connections\": " +
         u(server->connectionCount()) + ",\n";
    j += "  \"accepted\": " + u(ss.accepted) + ",\n";
    j += "  \"peer_refused\": " + u(ss.peerRefused) + ",\n";
    j += "  \"drain_sheds\": " + u(ss.drainSheds) + ",\n";
    j += "  \"recent_batch_seconds\": " +
         std::to_string(sched->recentBatchSeconds()) + ",\n";
    const ContinuousSchedulerStats cs = sched->stats();
    j += "  \"iterations\": " + u(cs.iterations) + ",\n";
    j += "  \"steps\": " + u(cs.steps) + ",\n";
    j += "  \"decode_steps\": " + u(cs.decodeSteps) + ",\n";
    j += "  \"prefill_steps\": " + u(cs.prefillSteps) + ",\n";
    j += "  \"step_rows\": " + u(cs.stepRows) + ",\n";
    j += "  \"joins\": " + u(cs.joins) + ",\n";
    j += "  \"prefill_deferrals\": " + u(cs.prefillDeferrals) + ",\n";
    j += "  \"expired_requests\": " + u(cs.expiredRequests) + ",\n";
    j += "  \"failed_requests\": " + u(cs.failedRequests) + "\n";
    j += "}\n";
    return j;
}

void
InferenceServer::completeForward(uint64_t connId, bool keep_alive,
                                 Tensor &&out,
                                 std::exception_ptr err)
{
    // Runs on the scheduler's step thread; everything it touches
    // is thread-safe (counters, the server outbox).
    if (err) {
        std::string what = "forward failed";
        bool expired = false;
        try {
            std::rethrow_exception(err);
        } catch (const DeadlineExpired &e) {
            what = e.what();
            expired = true;
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        if (expired) {
            // The scheduler dropped the request because its
            // X-Mokey-Deadline-Ms passed before (or while) it ran:
            // the gateway's timeout semantics, 504.
            ++counters.expired;
            server->respond(
                connId, textResponse(504, what + "\n", keep_alive),
                !keep_alive);
            return;
        }
        ++counters.failed;
        server->respond(connId,
                        textResponse(500, what + "\n", keep_alive),
                        !keep_alive);
        return;
    }

    // Count before posting: a client that already holds the
    // response must see it reflected in the stats.
    ++counters.completed;
    const std::vector<HttpHeader> headers = {
        {"Content-Type", "application/x-mokey-tensor"}};
    if (cfg.streamRows) {
        // Chunked streaming: dims frame, then one frame per output
        // row — the shape a token-streaming decode loop will keep.
        std::string head = chunkedHead(200, headers, keep_alive);
        std::string dims;
        putU32(dims, static_cast<uint32_t>(out.rows()));
        putU32(dims, static_cast<uint32_t>(out.cols()));
        head += chunk(dims.data(), dims.size());
        server->stream(connId, std::move(head));
        for (size_t r = 0; r + 1 < out.rows(); ++r)
            server->stream(connId,
                           floatChunk(out.row(r), out.cols()));
        std::string tail;
        if (out.rows() > 0)
            tail = floatChunk(out.row(out.rows() - 1), out.cols());
        tail += lastChunk();
        server->respond(connId, std::move(tail), !keep_alive);
    } else {
        server->respond(connId,
                        serializeResponse(200, headers,
                                          encodeTensorBody(out),
                                          keep_alive),
                        !keep_alive);
    }
}

void
InferenceServer::onRequest(uint64_t connId, HttpRequest &&req)
{
    // Loop thread: keep it allocation-light and never block.
    const bool keep = req.keepAlive;

    if (req.target == "/healthz" && req.method == "GET") {
        // Three-state health. 503 on draining means a load balancer
        // polling here stops routing the moment graceful shutdown
        // begins — not after the listener closes. 503 on degraded
        // (a serving loop stalled past its watchdog budget) pulls a
        // wedged replica out of rotation while it still answers
        // cheap requests like this one.
        switch (health()) {
        case ServerHealth::Ok:
            server->respond(connId, textResponse(200, "ok\n", keep),
                            !keep);
            return;
        case ServerHealth::Degraded:
            server->respond(
                connId,
                textResponse(503, "degraded: " + healthCause() + "\n",
                             keep),
                !keep);
            return;
        case ServerHealth::Draining:
            server->respond(connId,
                            textResponse(503, "draining\n", keep),
                            !keep);
            return;
        }
        return;
    }
    if (req.target == "/v1/stats" && req.method == "GET") {
        server->respond(
            connId,
            serializeResponse(200,
                              {{"Content-Type",
                                "application/json"}},
                              statsJson(), keep),
            !keep);
        return;
    }
    if (req.target != "/v1/forward") {
        ++counters.badRequests;
        server->respond(connId,
                        textResponse(404, "unknown endpoint\n",
                                     keep),
                        !keep);
        return;
    }
    if (req.method != "POST") {
        ++counters.badRequests;
        server->respond(
            connId,
            textResponse(405, "use POST /v1/forward\n", keep),
            !keep);
        return;
    }

    ++counters.requests;

    // Optional per-request deadline: X-Mokey-Deadline-Ms is the
    // client's end-to-end budget, stamped into an absolute
    // steady-clock deadline here at admission (queueing time counts
    // against it — that is the point).
    Deadline deadline = kNoDeadline;
    if (const std::string *h = req.header("X-Mokey-Deadline-Ms")) {
        char *end = nullptr;
        const long long ms = std::strtoll(h->c_str(), &end, 10);
        if (end == h->c_str() || *end != '\0' || ms < 0) {
            ++counters.badRequests;
            server->respond(
                connId,
                textResponse(400,
                             "X-Mokey-Deadline-Ms must be a "
                             "non-negative integer\n",
                             keep),
                !keep);
            return;
        }
        // Clamp the client-controlled budget before building the
        // absolute deadline: now() + milliseconds(LLONG_MAX)
        // overflows the nanosecond representation (UB, and the
        // wrapped deadline would instantly 504). A day-long budget
        // never binds in practice, so larger values behave the same.
        constexpr long long kMaxDeadlineMs = 86400000LL; // 24h
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(
                       ms > kMaxDeadlineMs ? kMaxDeadlineMs : ms);
    }

    Tensor input;
    if (!decodeTensorBody(req.body, input) ||
        (expectCols != 0 && input.cols() != expectCols)) {
        ++counters.badRequests;
        server->respond(
            connId,
            textResponse(400,
                         "body must be uint32 rows, uint32 cols == " +
                             std::to_string(expectCols) +
                             ", rows*cols float32\n",
                         keep),
            !keep);
        return;
    }

    // Admission control: shed instead of queueing past the cap so
    // latency stays bounded and the client retries against a
    // less-loaded replica.
    const size_t depth = sched->queueDepth();
    if (depth >= cfg.maxQueueDepth) {
        // Retry-After from measured recent service time, not a
        // constant: a loaded 12-layer model and a toy stub tell the
        // client very different things.
        const unsigned after = retryAfterSeconds(
            sched->recentBatchSeconds(), depth,
            cfg.continuousScheduler.maxBatch);
        ++counters.shed;
        server->respond(
            connId,
            serializeResponse(503,
                              {{"Content-Type", "text/plain"},
                               {"Retry-After",
                                std::to_string(after)}},
                              "overloaded, retry later\n", keep),
            !keep);
        return;
    }

    const bool accepted = sched->submit(
        std::move(input),
        [this, connId, keep](Tensor out, std::exception_ptr err) {
            completeForward(connId, keep, std::move(out), err);
        },
        deadline);
    if (!accepted) {
        // Raced a stop/drain: shed gracefully — the exact situation
        // that used to panic the whole process.
        ++counters.shed;
        server->respond(
            connId,
            textResponse(503, "shutting down\n", false), true);
    }
}

} // namespace mokey::net
