/**
 * @file
 * Layer-graph fusion forward latency: the plane-to-plane fused walk
 * of QuantizedTransformer::forward() against the frozen
 * layer-at-a-time replica (tests/reference/layer_at_a_time.hh),
 * single-threaded, at decode (seq=1), small-batch (seq=8), and
 * prefill (seq=64) shapes. The fused path reads each plane's
 * precomputed fold sums (one multiply per row/column term instead of
 * an O(K) re-fold per GEMM), hoists the per-site GEMM constants into
 * the GraphPlan, and chains every epilogue and the next GEMM's
 * re-quantization onto the GEMM — so the win is largest exactly
 * where serving hurts most: the m=1 decode step, where the column
 * fold is ~half the arithmetic of the whole GEMM.
 *
 * Records land in BENCH_layer_fusion.json; the decode and seq=8 rows
 * carry fused-vs-layer-at-a-time speedups that the CI
 * bench-regression gate compares against the committed baseline.
 * Outputs of the two walks are bit-identical (test_graph_fusion pins
 * this), so the ratio is a pure like-for-like latency comparison.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "common/parallel.hh"
#include "model/config.hh"
#include "model/pipeline.hh"
#include "tests/reference/layer_at_a_time.hh"

int
main()
{
    using namespace mokey;
    bench::banner("Plane-to-plane layer-graph fusion forward latency",
                  "tentpole: fused forward >= 1.3x at decode shapes");

    // Single-threaded and on the default engine: the ratio compares
    // the two walks, not the pool or an engine choice.
    setThreadCount(1);
    const auto quantizer = bench::standardQuantizer();
    const ModelConfig cfg = reduced(bertBase(), 2);
    const Transformer model(cfg, 4242);
    QuantizedTransformer pipe(model, quantizer);
    pipe.quantizeWeights();
    std::vector<Tensor> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(model.makeInput(16, 300 + i));
    pipe.profileActivations(batch);
    const reference::LayerAtATime replica(model, quantizer, pipe);

    bench::BenchJson json("layer_fusion");
    std::printf("%-6s %14s %14s %10s\n", "seq", "layer ns",
                "fused ns", "speedup");
    for (const size_t seq : {size_t{1}, size_t{8}, size_t{64}}) {
        const Tensor in = model.makeInput(seq, 1234);
        const double layer_ns =
            bench::timeKernelNs([&] { replica.forward(in); });
        const double fused_ns = bench::timeKernelNs([&] {
            pipe.forward(in, QuantMode::WeightsAndActivations);
        });
        const double speedup = layer_ns / fused_ns;
        std::printf("%-6zu %14.0f %14.0f %9.2fx\n", seq, layer_ns,
                    fused_ns, speedup);
        // seq=64 (prefill) is informational: the per-call folds the
        // fusion removes amortize over m there, so the ratio hugs
        // 1.0 and would only add gate noise.
        json.add({"graph_fused_forward", seq, cfg.hidden, cfg.layers,
                  fused_ns, 0.0, seq <= 8 ? speedup : 0.0});
        json.add({"layer_at_a_time_forward", seq, cfg.hidden,
                  cfg.layers, layer_ns, 0.0, 0.0});
    }
    return json.write() ? 0 : 1;
}
