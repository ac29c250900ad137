/**
 * @file
 * Network front-end tests: the HTTP wire-format parsers, the binary
 * tensor protocol, and full loopback integration through the epoll
 * server — keep-alive reuse, bit-identical served results, overload
 * shedding at the queue-depth cap, per-client fairness, and graceful
 * drain that completes in-flight requests.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/watchdog.hh"
#include "model/config.hh"
#include "model/pipeline.hh"
#include "net/http.hh"
#include "net/http_client.hh"
#include "net/inference_server.hh"
#include "net/socket_server.hh"
#include "quant/exp_dictionary.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

using net::HttpRequest;
using net::HttpRequestParser;
using net::HttpResponse;
using net::HttpResponseParser;

// ---- wire-format units ----------------------------------------------

TEST(HttpParser, SimpleGet)
{
    HttpRequestParser p;
    const std::string wire =
        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    p.feed(wire.data(), wire.size());
    HttpRequest req;
    ASSERT_EQ(p.next(req), HttpRequestParser::Status::Ready);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.target, "/healthz");
    EXPECT_EQ(req.version, "HTTP/1.1");
    EXPECT_TRUE(req.keepAlive);
    EXPECT_TRUE(req.body.empty());
    ASSERT_NE(req.header("Host"), nullptr);
    EXPECT_EQ(*req.header("host"), "x"); // case-insensitive
    EXPECT_EQ(p.next(req), HttpRequestParser::Status::NeedMore);
}

TEST(HttpParser, PostBodyFedByteByByte)
{
    HttpRequestParser p;
    const std::string wire = "POST /v1/forward HTTP/1.1\r\n"
                             "Content-Length: 5\r\n\r\nhello";
    HttpRequest req;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        p.feed(&wire[i], 1);
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::NeedMore)
            << "byte " << i;
    }
    p.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(p.next(req), HttpRequestParser::Status::Ready);
    EXPECT_EQ(req.body, "hello");
}

TEST(HttpParser, PipelinedRequestsParseInOrder)
{
    HttpRequestParser p;
    const std::string wire =
        "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nAA"
        "GET /b HTTP/1.1\r\n\r\n";
    p.feed(wire.data(), wire.size());
    HttpRequest req;
    ASSERT_EQ(p.next(req), HttpRequestParser::Status::Ready);
    EXPECT_EQ(req.target, "/a");
    EXPECT_EQ(req.body, "AA");
    ASSERT_EQ(p.next(req), HttpRequestParser::Status::Ready);
    EXPECT_EQ(req.target, "/b");
    EXPECT_EQ(p.next(req), HttpRequestParser::Status::NeedMore);
}

TEST(HttpParser, KeepAliveSemantics)
{
    const auto parse = [](const std::string &wire) {
        HttpRequestParser p;
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        EXPECT_EQ(p.next(req), HttpRequestParser::Status::Ready);
        return req.keepAlive;
    };
    EXPECT_TRUE(parse("GET / HTTP/1.1\r\n\r\n"));
    EXPECT_FALSE(parse("GET / HTTP/1.0\r\n\r\n"));
    EXPECT_FALSE(
        parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
    EXPECT_TRUE(
        parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
}

TEST(HttpParser, RejectsProtocolViolations)
{
    {
        HttpRequestParser p;
        const std::string wire = "NOT-A-REQUEST-LINE\r\n\r\n";
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error);
        EXPECT_EQ(p.errorStatus(), 400);
        // Sticky: the connection is poisoned.
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error);
    }
    {
        HttpRequestParser p;
        const std::string wire = "GET / HTTP/2.0\r\n\r\n";
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error);
        EXPECT_EQ(p.errorStatus(), 505);
    }
    {
        HttpRequestParser p;
        const std::string wire = "POST / HTTP/1.1\r\n"
                                 "Transfer-Encoding: chunked\r\n"
                                 "\r\n";
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error);
        EXPECT_EQ(p.errorStatus(), 501);
    }
}

TEST(HttpParser, RejectsDuplicateContentLength)
{
    // RFC 9112: conflicting Content-Length values must be rejected;
    // first-wins parsing behind a last-wins proxy is a smuggling
    // desync. Identical duplicates are rejected too (no reason for
    // a legitimate client to send them).
    for (const char *second : {"2", "5"}) {
        HttpRequestParser p;
        const std::string wire = "POST / HTTP/1.1\r\n"
                                 "Content-Length: 5\r\n"
                                 "Content-Length: " +
                                 std::string(second) +
                                 "\r\n\r\nhello";
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error)
            << "second CL = " << second;
        EXPECT_EQ(p.errorStatus(), 400);
    }
}

TEST(HttpParser, EnforcesHeaderAndBodyCaps)
{
    net::HttpLimits lim;
    lim.maxHeaderBytes = 64;
    lim.maxBodyBytes = 16;
    {
        HttpRequestParser p(lim);
        const std::string wire = "GET / HTTP/1.1\r\nX-Pad: " +
                                 std::string(100, 'a') + "\r\n\r\n";
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error);
        EXPECT_EQ(p.errorStatus(), 431);
    }
    {
        HttpRequestParser p(lim);
        const std::string wire =
            "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
        p.feed(wire.data(), wire.size());
        HttpRequest req;
        ASSERT_EQ(p.next(req), HttpRequestParser::Status::Error);
        EXPECT_EQ(p.errorStatus(), 413);
    }
}

TEST(HttpParser, ResponseRoundTripContentLengthAndChunked)
{
    {
        const std::string wire = net::serializeResponse(
            200, {{"Content-Type", "text/plain"}}, "payload", true);
        HttpResponseParser p;
        p.feed(wire.data(), wire.size());
        HttpResponse resp;
        ASSERT_EQ(p.next(resp), HttpResponseParser::Status::Ready);
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, "payload");
        EXPECT_TRUE(resp.keepAlive);
    }
    {
        std::string wire = net::chunkedHead(200, {}, false);
        wire += net::chunk("abc", 3);
        wire += net::chunk("defgh", 5);
        wire += net::lastChunk();
        HttpResponseParser p;
        HttpResponse resp;
        // Feed in two pieces to exercise the incremental path.
        p.feed(wire.data(), wire.size() / 2);
        ASSERT_EQ(p.next(resp),
                  HttpResponseParser::Status::NeedMore);
        p.feed(wire.data() + wire.size() / 2,
               wire.size() - wire.size() / 2);
        ASSERT_EQ(p.next(resp), HttpResponseParser::Status::Ready);
        EXPECT_EQ(resp.body, "abcdefgh");
        EXPECT_FALSE(resp.keepAlive);
    }
}

TEST(TensorBody, RoundTripAndRejects)
{
    Tensor t(3, 5);
    for (size_t i = 0; i < t.size(); ++i)
        t.raw()[i] = 0.25f * static_cast<float>(i) - 1.0f;
    const std::string body = net::encodeTensorBody(t);
    ASSERT_EQ(body.size(), 8 + 15 * sizeof(float));
    Tensor back;
    ASSERT_TRUE(net::decodeTensorBody(body, back));
    ASSERT_EQ(back.rows(), 3u);
    ASSERT_EQ(back.cols(), 5u);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.raw()[i], back.raw()[i]);

    Tensor junk;
    EXPECT_FALSE(net::decodeTensorBody("", junk));
    EXPECT_FALSE(net::decodeTensorBody("short", junk));
    EXPECT_FALSE(net::decodeTensorBody(body.substr(0, 12), junk));
    std::string zero(body);
    std::memset(&zero[0], 0, 4); // rows = 0
    EXPECT_FALSE(net::decodeTensorBody(zero, junk));
}

TEST(TensorBody, OverflowingDimsRejectedWithoutAllocation)
{
    const auto putLE = [](std::string &s, uint32_t v) {
        for (int i = 0; i < 4; ++i)
            s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    Tensor junk;
    {
        // rows = cols = 2^31: n = 2^62, and 8 + 4n wraps mod 2^64
        // back to 8 — a product-form size check passes an 8-byte
        // body and the decoder would try to allocate 2^62 floats.
        std::string evil;
        putLE(evil, 0x80000000u);
        putLE(evil, 0x80000000u);
        EXPECT_FALSE(net::decodeTensorBody(evil, junk));
        // Same dims with a plausible-looking payload attached.
        evil.append(16, '\0');
        EXPECT_FALSE(net::decodeTensorBody(evil, junk));
    }
    {
        // Payload not a multiple of sizeof(float).
        std::string ragged;
        putLE(ragged, 1);
        putLE(ragged, 1);
        ragged.append(5, '\0');
        EXPECT_FALSE(net::decodeTensorBody(ragged, junk));
    }
    {
        // Float count disagrees with rows*cols.
        std::string extra;
        putLE(extra, 1);
        putLE(extra, 1);
        extra.append(8, '\0'); // two floats for a 1x1 tensor
        EXPECT_FALSE(net::decodeTensorBody(extra, junk));
    }
}

// ---- loopback integration -------------------------------------------

ModelConfig
tinyConfig()
{
    return ModelConfig{"tiny", 2, 32, 2, 128, 256};
}

// The server keeps a reference to the pipeline, so binding a
// temporary must not compile.
static_assert(std::is_constructible_v<net::InferenceServer,
                                      const QuantizedTransformer &>);
static_assert(!std::is_constructible_v<net::InferenceServer,
                                       QuantizedTransformer &&>);
static_assert(!std::is_constructible_v<net::InferenceServer,
                                       QuantizedTransformer &&,
                                       net::InferenceServerConfig>);

class NetServingFixture : public ::testing::Test
{
  protected:
    NetServingFixture()
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

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(NetServingFixture, ServedBytesBitIdenticalToDirectForward)
{
    for (const bool stream_rows : {true, false}) {
        net::InferenceServerConfig cfg;
        cfg.streamRows = stream_rows;
        net::InferenceServer srv(pipeline, cfg);
        srv.start();

        net::HttpClient client("127.0.0.1", srv.port());
        const size_t lens[] = {7, 1, 16, 3};
        for (size_t i = 0; i < 4; ++i) {
            const Tensor in = model.makeInput(lens[i], 800 + i);
            const auto resp = client.post(
                "/v1/forward", net::encodeTensorBody(in));
            ASSERT_EQ(resp.status, 200)
                << "stream=" << stream_rows << " req=" << i << ": "
                << resp.body;
            Tensor out;
            ASSERT_TRUE(net::decodeTensorBody(resp.body, out));
            const Tensor ref = pipeline.forward(
                in, QuantMode::WeightsAndActivations);
            ASSERT_EQ(out.rows(), ref.rows());
            ASSERT_EQ(out.cols(), ref.cols());
            for (size_t j = 0; j < ref.size(); ++j)
                ASSERT_EQ(out.raw()[j], ref.raw()[j])
                    << "stream=" << stream_rows << " req=" << i
                    << " elem=" << j;
        }
        const auto st = srv.stats();
        EXPECT_EQ(st.requests, 4u);
        EXPECT_EQ(st.completed, 4u);
        EXPECT_EQ(st.failed, 0u);
        srv.drain();
    }
}

TEST_F(NetServingFixture, KeepAliveReusesOneConnection)
{
    net::InferenceServer srv(pipeline, {});
    srv.start();
    net::HttpClient client("127.0.0.1", srv.port());
    for (int i = 0; i < 5; ++i) {
        const Tensor in = model.makeInput(4, 300 + i);
        const auto resp =
            client.post("/v1/forward", net::encodeTensorBody(in));
        ASSERT_EQ(resp.status, 200);
        EXPECT_TRUE(resp.keepAlive);
    }
    EXPECT_EQ(client.dials(), 1u);
    EXPECT_EQ(srv.socketStats().accepted, 1u);
    EXPECT_EQ(srv.stats().completed, 5u);
    srv.drain();
}

TEST_F(NetServingFixture, HealthzStatsAndRouteErrors)
{
    net::InferenceServer srv(pipeline, {});
    srv.start();
    net::HttpClient client("127.0.0.1", srv.port());

    const auto health = client.get("/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    const auto missing = client.get("/nope");
    EXPECT_EQ(missing.status, 404);
    const auto wrongMethod = client.get("/v1/forward");
    EXPECT_EQ(wrongMethod.status, 405);
    const auto badBody = client.post("/v1/forward", "garbage");
    EXPECT_EQ(badBody.status, 400);

    // Wrong width: right framing, wrong cols.
    Tensor narrow(2, 8);
    const auto badCols = client.post(
        "/v1/forward", net::encodeTensorBody(narrow));
    EXPECT_EQ(badCols.status, 400);

    const auto stats = client.get("/v1/stats");
    EXPECT_EQ(stats.status, 200);
    EXPECT_NE(stats.body.find("\"bad_requests\": 4"),
              std::string::npos)
        << stats.body;
    EXPECT_NE(stats.body.find("\"queue_depth\""),
              std::string::npos);
    srv.drain();
}

/** Stub-step server: a one-layer echo with a configurable service
 *  time. */
struct SlowEchoServer
{
    static constexpr size_t kCols = 8;

    explicit SlowEchoServer(std::chrono::milliseconds delay,
                            net::InferenceServerConfig cfg = {})
        : server(
              [delay](size_t, const Tensor &stacked,
                      const std::vector<size_t> &, QuantMode, Lane) {
                  std::this_thread::sleep_for(delay);
                  return stacked; // echo
              },
              1, kCols, cfg)
    {
        server.start();
    }

    net::InferenceServer server;
};

TEST(NetAdmission, OverloadShedsWith503AtQueueDepthCap)
{
    net::InferenceServerConfig cfg;
    cfg.maxQueueDepth = 2;
    cfg.continuousScheduler.maxBatch = 1;
    SlowEchoServer srv(std::chrono::milliseconds(100), cfg);

    constexpr int kClients = 8;
    std::atomic<int> ok{0}, shed{0}, other{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            net::HttpClient c("127.0.0.1", srv.server.port());
            Tensor in(2, SlowEchoServer::kCols);
            in.raw()[0] = static_cast<float>(i);
            const auto resp =
                c.post("/v1/forward", net::encodeTensorBody(in));
            if (resp.status == 200) {
                Tensor out;
                ASSERT_TRUE(net::decodeTensorBody(resp.body, out));
                EXPECT_EQ(out.raw()[0], static_cast<float>(i));
                ++ok;
            } else if (resp.status == 503) {
                EXPECT_NE(resp.header("Retry-After"), nullptr);
                ++shed;
            } else {
                ++other;
            }
        });
    }
    for (auto &c : clients)
        c.join();

    EXPECT_EQ(other.load(), 0);
    EXPECT_GE(ok.load(), 1);
    EXPECT_GE(shed.load(), 1) << "cap never engaged";
    EXPECT_EQ(ok.load() + shed.load(), kClients);
    const auto st = srv.server.stats();
    EXPECT_EQ(st.completed, static_cast<uint64_t>(ok.load()));
    EXPECT_EQ(st.shed, static_cast<uint64_t>(shed.load()));
    srv.server.drain();
}

TEST(NetAdmission, PerPeerConnectionCapRefusesExtraConnections)
{
    net::InferenceServerConfig cfg;
    cfg.socket.maxConnectionsPerPeer = 1;
    SlowEchoServer srv(std::chrono::milliseconds(0), cfg);

    net::HttpClient first("127.0.0.1", srv.server.port());
    EXPECT_EQ(first.get("/healthz").status, 200);

    // The first client's keep-alive connection occupies the peer's
    // whole allowance: a second concurrent connection is refused at
    // accept (immediate close -> the client sees a dead socket).
    net::HttpClient second("127.0.0.1", srv.server.port(),
                           std::chrono::milliseconds(2000));
    EXPECT_THROW(second.get("/healthz"), std::runtime_error);
    EXPECT_GE(srv.server.socketStats().peerRefused, 1u);

    // Still one request of service for the first client.
    EXPECT_EQ(first.get("/healthz").status, 200);
    srv.server.drain();
}

/**
 * Raw pipelined exchange: connect, send @p wire in one write, read
 * until the server closes. Used to park a second request behind an
 * in-flight one — something the one-at-a-time HttpClient cannot do.
 */
std::string
rawPipelinedExchange(uint16_t port, const std::string &wire,
                     const std::function<void()> &afterSend)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    afterSend();
    std::string got;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        got.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return got;
}

TEST(NetDrain, GracefulDrainCompletesInflightAndShedsNew)
{
    SlowEchoServer srv(std::chrono::milliseconds(150));
    const uint16_t port = srv.server.port();

    Tensor in(3, SlowEchoServer::kCols);
    for (size_t i = 0; i < in.size(); ++i)
        in.raw()[i] = static_cast<float>(i) * 0.5f;
    const std::string body = net::encodeTensorBody(in);
    const std::string post =
        "POST /v1/forward HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;

    // Two pipelined requests in one write: the first is admitted
    // (slow engine keeps it in flight), the second stays buffered
    // behind it. Drain begins while #1 runs, so #1 must complete
    // with full data and #2 must be shed with 503.
    const std::string wire = post + post;
    const auto transcript = rawPipelinedExchange(
        port, wire, [&] {
            while (srv.server.queueDepth() == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            srv.server.beginDrain();
        });

    const size_t okPos = transcript.find("HTTP/1.1 200");
    const size_t shedPos = transcript.find("HTTP/1.1 503");
    ASSERT_NE(okPos, std::string::npos) << transcript.substr(0, 200);
    ASSERT_NE(shedPos, std::string::npos)
        << transcript.substr(0, 200);
    EXPECT_LT(okPos, shedPos) << "responses out of order";
    // The completed response carries the full echoed tensor.
    EXPECT_NE(transcript.find("application/x-mokey-tensor"),
              std::string::npos);

    srv.server.drain(); // blocks until the loop exits
    const auto st = srv.server.socketStats();
    EXPECT_GE(st.drainSheds, 1u);
    EXPECT_EQ(srv.server.stats().completed, 1u);

    // Post-drain, the listener is gone: connects fail fast.
    net::HttpClient late("127.0.0.1", port,
                         std::chrono::milliseconds(2000));
    EXPECT_THROW(late.get("/healthz"), std::runtime_error);
}

TEST(NetBackpressure, InflightFloodPausesReadsThenRecovers)
{
    // While a slow request is in flight the parser is not advanced,
    // so pipelined bytes accumulate unparsed. With tiny limits the
    // flood below crosses the receive cap (maxHeaderBytes +
    // maxBodyBytes = 1 KiB), forcing the loop to pause reads on the
    // connection; every buffered request must still be served once
    // the in-flight response completes (pause must not deadlock or
    // drop bytes).
    net::InferenceServerConfig cfg;
    cfg.socket.limits.maxHeaderBytes = 512;
    cfg.socket.limits.maxBodyBytes = 512;
    cfg.maxQueueDepth = 64;
    SlowEchoServer srv(std::chrono::milliseconds(100), cfg);

    Tensor in(2, SlowEchoServer::kCols);
    const std::string body = net::encodeTensorBody(in);
    const std::string post =
        "POST /v1/forward HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    constexpr int kFlood = 40; // ~36 bytes each: well past the cap
    std::string wire = post;
    for (int i = 0; i < kFlood; ++i)
        wire += "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    wire += "GET /healthz HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n";
    ASSERT_GT(wire.size() - post.size(),
              cfg.socket.limits.maxHeaderBytes +
                  cfg.socket.limits.maxBodyBytes);

    const auto transcript =
        rawPipelinedExchange(srv.server.port(), wire, [] {});

    size_t oks = 0;
    for (size_t pos = 0;
         (pos = transcript.find("HTTP/1.1 200", pos)) !=
         std::string::npos;
         pos += 12)
        ++oks;
    EXPECT_EQ(oks, static_cast<size_t>(kFlood) + 2)
        << transcript.substr(0, 300);
    EXPECT_EQ(srv.server.stats().completed, 1u);
    srv.server.drain();
}

TEST(NetDrain, DestructorDrainsWithoutExplicitCall)
{
    // Scope exit alone must tear the stack down cleanly even with a
    // request freshly served (no hangs, no crashes).
    SlowEchoServer srv(std::chrono::milliseconds(1));
    net::HttpClient c("127.0.0.1", srv.server.port());
    Tensor in(1, SlowEchoServer::kCols);
    EXPECT_EQ(
        c.post("/v1/forward", net::encodeTensorBody(in)).status,
        200);
}

TEST(NetFailure, EngineThrowBecomes500NotProcessDeath)
{
    std::atomic<bool> poison{true};
    net::InferenceServer srv(
        [&poison](size_t, const Tensor &stacked,
                  const std::vector<size_t> &, QuantMode,
                  Lane) -> Tensor {
            if (poison.load())
                throw std::runtime_error("injected engine failure");
            return stacked;
        },
        2, 4);
    srv.start();

    net::HttpClient client("127.0.0.1", srv.port());
    Tensor in(2, 4);
    in.raw()[3] = 7.0f;

    const auto failed =
        client.post("/v1/forward", net::encodeTensorBody(in));
    EXPECT_EQ(failed.status, 500);
    EXPECT_NE(failed.body.find("injected engine failure"),
              std::string::npos);

    // Same server, same connection: the next request succeeds — the
    // step thread survived the throw.
    poison = false;
    const auto okResp =
        client.post("/v1/forward", net::encodeTensorBody(in));
    ASSERT_EQ(okResp.status, 200);
    Tensor out;
    ASSERT_TRUE(net::decodeTensorBody(okResp.body, out));
    EXPECT_EQ(out.raw()[3], 7.0f);

    const auto st = srv.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(srv.continuousSchedulerStats().failedRequests, 1u);
    srv.drain();
}

TEST(NetRetryAfter, ScalesWithMeasuredLatencyAndBacklog)
{
    // Nothing measured yet but a deep backlog: the nominal
    // cold-start wave cost scales the hint with depth instead of
    // collapsing to the clamp floor — ceil(0.25 * (100/4 + 1)) = 7.
    EXPECT_EQ(net::retryAfterSeconds(0.0, 100, 4), 7u);
    // Nothing measured, shallow or empty backlog -> the floor.
    EXPECT_EQ(net::retryAfterSeconds(0.0, 4, 4), 1u);
    EXPECT_EQ(net::retryAfterSeconds(0.0, 0, 4), 1u);
    // Cold start still clamps at 30 s for absurd depth.
    EXPECT_EQ(net::retryAfterSeconds(0.0, 4000, 4), 30u);
    // Fast engine, shallow backlog -> still the floor.
    EXPECT_EQ(net::retryAfterSeconds(0.01, 4, 4), 1u);
    // Half-second batches, two waves queued -> ceil(0.5 * 3) = 2.
    EXPECT_EQ(net::retryAfterSeconds(0.5, 8, 4), 2u);
    // Deep backlog on a slow engine clamps at 30 s.
    EXPECT_EQ(net::retryAfterSeconds(2.0, 64, 4), 30u);
    // Degenerate maxBatch never divides by zero.
    EXPECT_EQ(net::retryAfterSeconds(1.0, 3, 0), 4u);
}

TEST(NetFailure, ContinuousPoisonBecomes500OnlyForThatRequest)
{
    // A step that throws for a marked request 500s that request
    // alone; the step loop and every other request survive.
    net::InferenceServerConfig cfg;
    net::InferenceServer srv(
        [](size_t, const Tensor &stacked,
           const std::vector<size_t> &starts, QuantMode,
           Lane) -> Tensor {
            for (size_t s = 0; s + 1 < starts.size(); ++s)
                if (stacked.at(starts[s], 0) >= 1e6f)
                    throw std::runtime_error("poisoned step");
            return stacked;
        },
        3, 4, cfg);
    srv.start();

    net::HttpClient client("127.0.0.1", srv.port());
    Tensor poison(1, 4);
    poison.raw()[0] = 1e6f;
    const auto failed =
        client.post("/v1/forward", net::encodeTensorBody(poison));
    EXPECT_EQ(failed.status, 500);
    EXPECT_NE(failed.body.find("poisoned step"), std::string::npos);

    Tensor in(2, 4);
    in.raw()[5] = 3.0f;
    const auto okResp =
        client.post("/v1/forward", net::encodeTensorBody(in));
    ASSERT_EQ(okResp.status, 200);
    Tensor out;
    ASSERT_TRUE(net::decodeTensorBody(okResp.body, out));
    EXPECT_EQ(out.raw()[5], 3.0f);

    const auto st = srv.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(srv.continuousSchedulerStats().failedRequests, 1u);

    const auto stats = client.get("/v1/stats");
    EXPECT_NE(stats.body.find("\"failed_requests\": 1"),
              std::string::npos)
        << stats.body;
    srv.drain();
}

// ---- deadlines ------------------------------------------------------

TEST(NetDeadline, ExpiredWhileQueuedBecomes504)
{
    // One-slot slow engine: request A occupies the only batch slot
    // for ~200 ms while B waits queued with a 10 ms deadline. By the
    // time B could join, its deadline has passed — B must get a 504
    // without ever touching the engine.
    net::InferenceServerConfig cfg;
    cfg.continuousScheduler.maxBatch = 1;
    SlowEchoServer srv(std::chrono::milliseconds(200), cfg);

    Tensor in(1, SlowEchoServer::kCols);
    in.raw()[0] = 42.0f;
    const std::string body = net::encodeTensorBody(in);

    std::thread first([&] {
        net::HttpClient a("127.0.0.1", srv.server.port());
        const auto resp = a.post("/v1/forward", body);
        EXPECT_EQ(resp.status, 200);
    });
    while (srv.server.queueDepth() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    net::HttpClient b("127.0.0.1", srv.server.port());
    const auto expired = b.request(
        "POST", "/v1/forward", {{"X-Mokey-Deadline-Ms", "10"}},
        body);
    EXPECT_EQ(expired.status, 504) << expired.body;
    first.join();

    const auto st = srv.server.stats();
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_GE(srv.server.continuousSchedulerStats().expiredRequests,
              1u);

    const auto stats = b.get("/v1/stats");
    EXPECT_NE(stats.body.find("\"expired\": 1"), std::string::npos)
        << stats.body;
    srv.server.drain();
}

TEST(NetDeadline, GenerousDeadlineServesNormally)
{
    SlowEchoServer srv(std::chrono::milliseconds(1));
    net::HttpClient client("127.0.0.1", srv.server.port());
    Tensor in(2, SlowEchoServer::kCols);
    for (size_t i = 0; i < in.size(); ++i)
        in.raw()[i] = 0.5f * static_cast<float>(i);
    const auto resp = client.request(
        "POST", "/v1/forward", {{"X-Mokey-Deadline-Ms", "60000"}},
        net::encodeTensorBody(in));
    ASSERT_EQ(resp.status, 200) << resp.body;
    Tensor out;
    ASSERT_TRUE(net::decodeTensorBody(resp.body, out));
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out.raw()[i], in.raw()[i]);
    EXPECT_EQ(srv.server.stats().expired, 0u);
    srv.server.drain();
}

TEST(NetDeadline, HugeDeadlineClampedServesNormally)
{
    // LLONG_MAX milliseconds used to overflow the steady_clock
    // addition (UB; the wrapped deadline instantly 504'd the most
    // patient client). The budget is clamped, so a huge value
    // behaves exactly like no deadline.
    SlowEchoServer srv(std::chrono::milliseconds(1));
    net::HttpClient client("127.0.0.1", srv.server.port());
    Tensor in(1, SlowEchoServer::kCols);
    in.raw()[0] = 7.0f;
    const auto resp = client.request(
        "POST", "/v1/forward",
        {{"X-Mokey-Deadline-Ms", "9223372036854775807"}},
        net::encodeTensorBody(in));
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(srv.server.stats().expired, 0u);
    srv.server.drain();
}

TEST(NetDeadline, JunkDeadlineHeaderIs400)
{
    SlowEchoServer srv(std::chrono::milliseconds(0));
    net::HttpClient client("127.0.0.1", srv.server.port());
    Tensor in(1, SlowEchoServer::kCols);
    const std::string body = net::encodeTensorBody(in);
    for (const char *junk : {"abc", "-5", "12x", ""}) {
        const auto resp = client.request(
            "POST", "/v1/forward", {{"X-Mokey-Deadline-Ms", junk}},
            body);
        EXPECT_EQ(resp.status, 400) << "value '" << junk << "'";
    }
    EXPECT_EQ(srv.server.stats().requests, 4u);
    EXPECT_EQ(srv.server.stats().badRequests, 4u);
    srv.server.drain();
}

// ---- three-state health ---------------------------------------------

TEST(NetHealth, DrainingReportedTheInstantDrainBegins)
{
    SlowEchoServer srv(std::chrono::milliseconds(150));
    EXPECT_EQ(srv.server.health(), net::ServerHealth::Ok);

    // Park a slow request so the event loop stays alive through the
    // drain window, with a health probe connection opened BEFORE the
    // drain begins (new connects are refused after).
    net::HttpClient probe("127.0.0.1", srv.server.port());
    EXPECT_EQ(probe.get("/healthz").status, 200);

    Tensor in(1, SlowEchoServer::kCols);
    std::thread inflight([&] {
        net::HttpClient c("127.0.0.1", srv.server.port());
        const auto resp =
            c.post("/v1/forward", net::encodeTensorBody(in));
        EXPECT_EQ(resp.status, 200);
    });
    while (srv.server.queueDepth() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    srv.server.beginDrain();
    // The flag flips synchronously — no waiting for the event loop
    // to process the wakeup (the load-balancer race the satellite
    // fix closes).
    EXPECT_EQ(srv.server.health(), net::ServerHealth::Draining);

    // On the wire, a poll during drain sees a 503 (the handler's
    // "draining" or the socket layer's drain shed) — unless the
    // loop already closed the idle probe connection, which reads
    // the same to a load balancer: stop routing here.
    try {
        const auto polled = probe.get("/healthz");
        EXPECT_EQ(polled.status, 503);
    } catch (const std::runtime_error &) {
    }

    inflight.join();
    srv.server.drain();
    EXPECT_EQ(srv.server.health(), net::ServerHealth::Draining);
    EXPECT_EQ(srv.server.stats().completed, 1u);
}

TEST(NetHealth, WatchdogDegradedThenRecovers)
{
    // A 100 ms watchdog budget and a 400 ms engine stall: /healthz
    // must transition ok -> degraded (naming the stalled loop) ->
    // ok, serving throughout (the event loop is not the stalled
    // thread). The env knob stays set for the whole test scope: the
    // budget is read when the dispatcher THREAD registers with the
    // watchdog, and that races the constructor returning — an
    // unsetenv right after construction can beat the registration
    // and silently restore the 2000 ms default.
    ::setenv("MOKEY_WATCHDOG_MS", "100", 1);
    struct EnvClear
    {
        ~EnvClear() { ::unsetenv("MOKEY_WATCHDOG_MS"); }
    } envClear;
    SlowEchoServer srv(std::chrono::milliseconds(400));
    EXPECT_EQ(srv.server.health(), net::ServerHealth::Ok);

    net::HttpClient probe("127.0.0.1", srv.server.port());
    Tensor in(1, SlowEchoServer::kCols);
    std::thread inflight([&] {
        net::HttpClient c("127.0.0.1", srv.server.port());
        EXPECT_EQ(
            c.post("/v1/forward", net::encodeTensorBody(in)).status,
            200);
    });
    // Join even when an ASSERT bails out of the test body; a
    // joinable thread's destructor would terminate the process.
    struct Joiner
    {
        std::thread &t;
        ~Joiner()
        {
            if (t.joinable())
                t.join();
        }
    } joiner{inflight};

    // The dispatcher wedges inside the 400 ms forward; past the
    // 100 ms budget health() flips to Degraded.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    bool sawDegraded = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (srv.server.health() == net::ServerHealth::Degraded) {
            sawDegraded = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(sawDegraded) << "stall never detected";
    EXPECT_NE(srv.server.healthCause().find("stalled"),
              std::string::npos)
        << srv.server.healthCause();

    // The event loop still serves while the dispatcher is wedged,
    // and /healthz tells the truth about it.
    const auto resp = probe.get("/healthz");
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("degraded"), std::string::npos)
        << resp.body;

    inflight.join();
    // The dispatcher beats again once the stall clears; fresh
    // budget so a slow degraded-detection can't starve this poll.
    const auto recoverBy = std::chrono::steady_clock::now() +
                           std::chrono::seconds(5);
    bool sawOk = false;
    while (std::chrono::steady_clock::now() < recoverBy) {
        if (srv.server.health() == net::ServerHealth::Ok) {
            sawOk = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(sawOk) << "health never recovered";
    EXPECT_EQ(probe.get("/healthz").status, 200);
    EXPECT_GE(Watchdog::instance().stallEvents(), 1u);

    const auto stats = probe.get("/v1/stats");
    EXPECT_NE(stats.body.find("\"watchdog_stall_events\""),
              std::string::npos)
        << stats.body;
    srv.server.drain();
}

// ---- client retry and re-dial ---------------------------------------

TEST(NetClient, RedialsExactlyOnceAfterServerRestart)
{
    auto first = std::make_unique<SlowEchoServer>(
        std::chrono::milliseconds(0));
    const uint16_t port = first->server.port();
    net::HttpClient client("127.0.0.1", port,
                           std::chrono::milliseconds(2000));
    EXPECT_EQ(client.get("/healthz").status, 200);
    EXPECT_EQ(client.dials(), 1u);
    first->server.drain();
    first.reset();

    // Same port, new server (SO_REUSEADDR makes the rebind
    // immediate): the client's kept-alive connection is stale, and
    // one transparent re-dial — exactly one — must recover it.
    net::InferenceServerConfig cfg;
    cfg.socket.port = port;
    SlowEchoServer second(std::chrono::milliseconds(0), cfg);
    ASSERT_EQ(second.server.port(), port);
    EXPECT_EQ(client.get("/healthz").status, 200);
    EXPECT_EQ(client.dials(), 2u);
    second.server.drain();
}

TEST(NetClient, DeadPeerFailsFastInsteadOfHanging)
{
    // Reserve a port, then free it so nothing listens there.
    uint16_t port;
    {
        SlowEchoServer reserve(std::chrono::milliseconds(0));
        port = reserve.server.port();
        reserve.server.drain();
    }
    net::HttpClient client("127.0.0.1", port,
                           std::chrono::milliseconds(1000));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(client.get("/healthz"), std::runtime_error);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(10))
        << "a dead peer should error, not hang";
}

/** Scripted raw HTTP peer: answers each request on one accepted
 *  connection with the next canned response, then closes. */
struct ScriptedServer
{
    explicit ScriptedServer(std::vector<std::string> responses)
        : canned(std::move(responses))
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr),
                  0);
        EXPECT_EQ(::listen(fd, 4), 0);
        socklen_t len = sizeof addr;
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        boundPort = ntohs(addr.sin_port);
        worker = std::thread([this] { serve(); });
    }

    ~ScriptedServer()
    {
        if (worker.joinable())
            worker.join();
        if (fd >= 0)
            ::close(fd);
    }

    void serve()
    {
        const int c = ::accept(fd, nullptr, nullptr);
        if (c < 0)
            return;
        timeval tv{10, 0};
        ::setsockopt(c, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        std::string acc;
        char buf[4096];
        for (const std::string &resp : canned) {
            while (acc.find("\r\n\r\n") == std::string::npos) {
                const ssize_t n = ::recv(c, buf, sizeof buf, 0);
                if (n <= 0) {
                    ::close(c);
                    return;
                }
                acc.append(buf, static_cast<size_t>(n));
            }
            acc.erase(0, acc.find("\r\n\r\n") + 4);
            ::send(c, resp.data(), resp.size(), MSG_NOSIGNAL);
        }
        ::close(c);
    }

    uint16_t port() const { return boundPort; }

    std::vector<std::string> canned;
    int fd = -1;
    uint16_t boundPort = 0;
    std::thread worker;
};

TEST(NetClient, RetryWithBackoffRecoversFrom503)
{
    // A shed (503 + Retry-After: 0) followed by success on the same
    // connection: requestWithRetry must sleep the hint, resend, and
    // hand back the 200 — one retry, one dial.
    ScriptedServer peer(
        {"HTTP/1.1 503 Service Unavailable\r\n"
         "Retry-After: 0\r\nContent-Length: 5\r\n\r\nbusy\n",
         "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\ndone\n"});
    net::HttpClient client("127.0.0.1", peer.port(),
                           std::chrono::milliseconds(5000));
    net::HttpRetryPolicy policy;
    policy.attempts = 3;
    policy.initialBackoff = std::chrono::milliseconds(5);
    const auto resp =
        client.requestWithRetry("GET", "/x", {}, "", policy);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "done\n");
    EXPECT_EQ(client.retries(), 1u);
    EXPECT_EQ(client.dials(), 1u);
}

TEST(NetClient, HugeRetryAfterClampedToMaxBackoff)
{
    // A hostile Retry-After near LLONG_MAX used to overflow in the
    // seconds→ms conversion before the maxBackoff clamp could apply.
    // The wait must be bounded by maxBackoff, not the server's hint.
    ScriptedServer peer(
        {"HTTP/1.1 503 Service Unavailable\r\n"
         "Retry-After: 9223372036854775807\r\n"
         "Content-Length: 5\r\n\r\nbusy\n",
         "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\ndone\n"});
    net::HttpClient client("127.0.0.1", peer.port(),
                           std::chrono::milliseconds(5000));
    net::HttpRetryPolicy policy;
    policy.attempts = 3;
    policy.initialBackoff = std::chrono::milliseconds(5);
    policy.maxBackoff = std::chrono::milliseconds(50);
    const auto t0 = std::chrono::steady_clock::now();
    const auto resp =
        client.requestWithRetry("GET", "/x", {}, "", policy);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(client.retries(), 1u);
    EXPECT_LT(elapsed, std::chrono::seconds(2))
        << "waited the server's bogus hint instead of maxBackoff";
}

TEST(NetClient, RetryExhaustionReturnsTheLast503)
{
    ScriptedServer peer(
        {"HTTP/1.1 503 Service Unavailable\r\n"
         "Retry-After: 0\r\nContent-Length: 5\r\n\r\nbusy\n",
         "HTTP/1.1 503 Service Unavailable\r\n"
         "Retry-After: 0\r\nContent-Length: 5\r\n\r\nbusy\n"});
    net::HttpClient client("127.0.0.1", peer.port(),
                           std::chrono::milliseconds(5000));
    net::HttpRetryPolicy policy;
    policy.attempts = 2;
    policy.initialBackoff = std::chrono::milliseconds(5);
    const auto resp =
        client.requestWithRetry("GET", "/x", {}, "", policy);
    EXPECT_EQ(resp.status, 503);
    EXPECT_EQ(client.retries(), 1u);
}

TEST(NetClient, TransportRetriesThenThrowOnDeadPeer)
{
    uint16_t port;
    {
        SlowEchoServer reserve(std::chrono::milliseconds(0));
        port = reserve.server.port();
        reserve.server.drain();
    }
    net::HttpClient client("127.0.0.1", port,
                           std::chrono::milliseconds(500));
    net::HttpRetryPolicy policy;
    policy.attempts = 3;
    policy.initialBackoff = std::chrono::milliseconds(1);
    EXPECT_THROW(
        client.requestWithRetry("GET", "/healthz", {}, "", policy),
        std::runtime_error);
    EXPECT_EQ(client.retries(), 2u) << "two backoff cycles before "
                                       "the final attempt's throw";
}

// ---- chaos ----------------------------------------------------------
// FaultArmGuard (tests/test_util.hh) arms the injector per test and
// defers to an env-armed MOKEY_FAULT sweep.

TEST_F(NetServingFixture, ChaosEngineFaultsMapToExactRequests)
{
    // The acceptance bar for fault injection: with the engine-
    // dispatch site armed at a fixed seed, EXACTLY the requests
    // whose dispatches fired fail (500), everyone else is served
    // bit-identically, and the server never dies. Serial requests
    // make the mapping airtight: each request steps alone, and a
    // one-member group is never retried, so fired-count delta over
    // a request <=> that request's engine threw.
    constexpr int kRequests = 24;
    std::vector<Tensor> ins, refs;
    for (int i = 0; i < kRequests; ++i)
        ins.push_back(model.makeInput(2, 500 + i));
    // References are computed BEFORE arming our spec; under an env
    // sweep the injector is already hot, so ride out any injected
    // throws — the retry re-rolls fresh check indices.
    for (const Tensor &in : ins) {
        for (int tries = 0;; ++tries) {
            try {
                refs.push_back(pipeline.forward(
                    in, QuantMode::WeightsAndActivations));
                break;
            } catch (const std::runtime_error &) {
                ASSERT_LT(tries, 500) << "reference forward never "
                                         "survived the env faults";
            }
        }
    }

    FaultArmGuard guard("engine:0.02:4242");
    auto &inj = FaultInjector::instance();
    const bool exactMapping =
        inj.armed(FaultSite::EngineDispatch) &&
        !inj.armed(FaultSite::SockReset);

    net::InferenceServer srv(pipeline);
    srv.start();
    net::HttpClient client("127.0.0.1", srv.port());

    uint64_t failed = 0, ok = 0, transport = 0;
    for (int i = 0; i < kRequests; ++i) {
        const uint64_t before = inj.fired(FaultSite::EngineDispatch);
        net::HttpResponse resp;
        try {
            resp = client.post("/v1/forward",
                               net::encodeTensorBody(ins[i]));
        } catch (const std::runtime_error &) {
            ++transport; // injected connection resets (env sweep)
            continue;
        }
        const uint64_t hits =
            inj.fired(FaultSite::EngineDispatch) - before;
        if (resp.status == 200) {
            if (exactMapping)
                EXPECT_EQ(hits, 0u) << "request " << i
                                    << " absorbed a fired fault";
            Tensor out;
            ASSERT_TRUE(net::decodeTensorBody(resp.body, out));
            const Tensor &ref = refs[i];
            for (size_t j = 0; j < ref.size(); ++j)
                ASSERT_EQ(out.raw()[j], ref.raw()[j])
                    << "req=" << i << " elem=" << j;
            ++ok;
        } else {
            ASSERT_GE(resp.status, 500) << resp.body;
            if (exactMapping) {
                EXPECT_GE(hits, 1u)
                    << "request " << i
                    << " failed without a fired fault";
                EXPECT_NE(resp.body.find("injected fault"),
                          std::string::npos)
                    << resp.body;
            }
            ++failed;
        }
    }

    // The server survived the whole run; the books balance unless
    // an env-armed sockreset made the client resend requests the
    // server had already counted.
    const auto st = srv.stats();
    if (!inj.armed(FaultSite::SockReset)) {
        EXPECT_EQ(st.completed, ok);
        EXPECT_EQ(st.failed, failed);
    }
    if (guard.owned) {
        EXPECT_GE(ok, 1u);
        EXPECT_GE(failed, 1u) << "rate 0.02 over " << kRequests
                              << " requests never fired";
        EXPECT_EQ(transport, 0u);
    }
    srv.drain();
}

TEST(NetChaos, ShortReadsAndWritesNeverChangeBytes)
{
    // sockread/sockwrite only fragment I/O: with both armed hot,
    // every request must still complete 200 with bit-exact payload
    // (the event loop re-arms and finishes partial reads/writes).
    FaultArmGuard guard("sockread:1.0:7,sockwrite:0.5:7");
    auto &inj = FaultInjector::instance();
    const bool resetsPossible = inj.armed(FaultSite::SockReset);

    SlowEchoServer srv(std::chrono::milliseconds(0));
    net::HttpClient client("127.0.0.1", srv.server.port());

    uint64_t ok = 0;
    constexpr int kRequests = 12;
    for (int i = 0; i < kRequests; ++i) {
        Tensor in(3, SlowEchoServer::kCols);
        for (size_t j = 0; j < in.size(); ++j)
            in.raw()[j] = static_cast<float>(i * 100 + j) * 0.25f;
        net::HttpResponse resp;
        try {
            resp = client.post("/v1/forward",
                               net::encodeTensorBody(in));
        } catch (const std::runtime_error &) {
            ASSERT_TRUE(resetsPossible)
                << "transport error without sockreset armed";
            continue;
        }
        if (resp.status != 200) {
            ASSERT_GE(resp.status, 500);
            continue;
        }
        Tensor out;
        ASSERT_TRUE(net::decodeTensorBody(resp.body, out));
        for (size_t j = 0; j < in.size(); ++j)
            ASSERT_EQ(out.raw()[j], in.raw()[j])
                << "req=" << i << " elem=" << j;
        ++ok;
    }
    if (guard.owned) {
        EXPECT_EQ(ok, static_cast<uint64_t>(kRequests));
        EXPECT_GE(inj.fired(FaultSite::SockRead), 1u);
        EXPECT_GE(inj.fired(FaultSite::SockWrite), 1u);
    } else {
        EXPECT_GE(ok, 1u) << "server stopped serving under faults";
    }
    srv.server.drain();
}

TEST(NetChaos, ConnectionResetsFailOnlyTheirConnection)
{
    // sockreset drops connections on read-readiness. Clients see
    // transport errors; the server itself must keep accepting and
    // serving fresh connections throughout.
    FaultArmGuard guard("sockreset:0.3:11");

    SlowEchoServer srv(std::chrono::milliseconds(0));
    uint64_t ok = 0, reset = 0;
    constexpr int kRequests = 20;
    for (int i = 0; i < kRequests; ++i) {
        // Fresh client per request: a reset poisons one connection
        // only, never the listener.
        net::HttpClient client("127.0.0.1", srv.server.port(),
                               std::chrono::milliseconds(2000));
        Tensor in(1, SlowEchoServer::kCols);
        in.raw()[0] = static_cast<float>(i);
        try {
            const auto resp = client.post(
                "/v1/forward", net::encodeTensorBody(in));
            if (resp.status != 200)
                continue;
            Tensor out;
            ASSERT_TRUE(net::decodeTensorBody(resp.body, out));
            EXPECT_EQ(out.raw()[0], static_cast<float>(i));
            ++ok;
        } catch (const std::runtime_error &) {
            ++reset;
        }
    }
    EXPECT_GE(ok, 1u) << "no request survived the reset chaos";
    if (guard.owned)
        EXPECT_GE(reset, 1u) << "rate 0.3 never dropped a "
                                "connection in 20 requests";
    srv.server.drain();
}

} // namespace
} // namespace mokey
