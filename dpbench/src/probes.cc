#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "dp/noise_ops.h"
#include "nn/interaction.h"
#include "obs/trace.h"
#include "rng/noise_provider.h"

namespace dpbench {

using lazydp::ExecContext;
using lazydp::Tensor;

namespace {

constexpr int kReps = 7;

/** @return median wall ms of @p fn over kReps calls, after one warm-up. */
template <typename Fn>
double
medianMs(const char *span, Fn &&fn)
{
    fn();
    std::vector<double> ms;
    for (int r = 0; r < kReps; ++r) {
        lazydp::obs::TraceSpan s(lazydp::obs::TraceCat::Trainer, span);
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::nth_element(ms.begin(), ms.begin() + kReps / 2, ms.end());
    return ms[kReps / 2];
}

double
mlpFlops(const std::vector<std::size_t> &dims, std::size_t batch)
{
    double flops = 0.0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        flops += 2.0 * static_cast<double>(batch * dims[l] * dims[l + 1]);
    return flops;
}

} // namespace

void
probeForward(const lazydp::DlrmModel &model, const lazydp::MiniBatch &batch,
             ExecContext &exec, std::vector<Metric> &out)
{
    const auto &cfg = model.config();
    const std::size_t b = batch.batchSize;
    const std::size_t dim = cfg.embedDim;

    lazydp::DlrmWorkspace ws;
    Tensor logits;
    const double forward_ms = medianMs("probe.forward", [&] {
        model.forward(batch, logits, ws, exec);
    });

    std::vector<Tensor> pooled;
    for (std::size_t t = 0; t < cfg.numTables; ++t)
        pooled.emplace_back(b, dim);
    const double pool_ms = medianMs("probe.embedding_pool", [&] {
        for (std::size_t t = 0; t < cfg.numTables; ++t)
            model.tables()[t].forward(batch.tableIndices(t), b,
                                      batch.pooling, pooled[t]);
    });

    lazydp::MlpWorkspace bottom_ws;
    Tensor bottom_out(b, dim);
    const double bottom_ms = medianMs("probe.bottom_mlp", [&] {
        model.bottomMlp().forward(batch.dense, bottom_out, bottom_ws, exec);
    });

    lazydp::DotInteraction inter(cfg.numTables + 1, dim);
    std::vector<const Tensor *> inputs{&bottom_out};
    for (const Tensor &p : pooled)
        inputs.push_back(&p);
    Tensor inter_out(b, inter.outputDim());
    Tensor inter_cache;
    const double inter_ms = medianMs("probe.interaction", [&] {
        inter.forwardInto(inputs, inter_out, inter_cache, exec);
    });

    lazydp::MlpWorkspace top_ws;
    Tensor top_out;
    const double top_ms = medianMs("probe.top_mlp", [&] {
        model.topMlp().forward(inter_out, top_out, top_ws, exec);
    });

    const double n = static_cast<double>(cfg.numTables + 1);
    const double inter_flops =
        2.0 * static_cast<double>(b * dim) * n * (n - 1.0) / 2.0;
    const double mlp_flops =
        mlpFlops(cfg.bottomDims, b) + mlpFlops(cfg.fullTopDims(), b);
    const double pool_bytes =
        static_cast<double>(b * cfg.numTables * dim * sizeof(float)) *
        static_cast<double>(batch.pooling + 1);

    out.push_back({"nn.forward_ms", forward_ms, "ms"});
    out.push_back({"nn.forward_gflops",
                   (mlp_flops + inter_flops) / (forward_ms * 1e6),
                   "GFLOP/s"});
    out.push_back({"nn.embedding_pool_ms", pool_ms, "ms"});
    out.push_back({"nn.embedding_pool_gbs", pool_bytes / (pool_ms * 1e6),
                   "GB/s"});
    out.push_back({"nn.bottom_mlp_ms", bottom_ms, "ms"});
    out.push_back({"nn.top_mlp_ms", top_ms, "ms"});
    out.push_back({"nn.mlp_gflops",
                   mlp_flops / ((bottom_ms + top_ms) * 1e6), "GFLOP/s"});
    out.push_back({"nn.interaction_ms", inter_ms, "ms"});
}

void
probeDpKernels(const lazydp::ModelConfig &model,
               const lazydp::TrainHyper &hyper, ExecContext &exec,
               std::vector<Metric> &out)
{
    const std::size_t rows = model.maxTableRows();
    const std::size_t dim = model.embedDim;
    const lazydp::NoiseProvider np(hyper.noiseSeed, hyper.kernel);
    const float sigma = hyper.noiseMultiplier * hyper.clipNorm;
    Tensor noise(rows, dim);
    Tensor weights(rows, dim);

    const double noise_ms = medianMs("probe.table_noise", [&] {
        for (std::size_t t = 0; t < model.numTables; ++t)
            lazydp::fillDenseTableNoise(np, 1, static_cast<std::uint32_t>(t),
                                        sigma, noise, exec);
    });
    const double update_ms = medianMs("probe.table_update", [&] {
        for (std::size_t t = 0; t < model.numTables; ++t)
            lazydp::streamingTableUpdate(weights, noise, -1e-6f, 1.0f,
                                         exec);
    });

    const double elems = static_cast<double>(rows * dim * model.numTables);
    out.push_back({"dp.table_noise_ms", noise_ms, "ms"});
    out.push_back({"dp.table_noise_gsamples_per_s", elems / (noise_ms * 1e6),
                   "Gsamples/s"});
    out.push_back({"dp.table_update_ms", update_ms, "ms"});
    // Read weights, read update, write weights.
    out.push_back({"dp.table_update_gbs",
                   3.0 * elems * sizeof(float) / (update_ms * 1e6),
                   "GB/s"});
}

double
probeServeForward(const lazydp::DlrmModel &model,
                  const std::vector<lazydp::ServeQuery> &queries,
                  std::size_t batch)
{
    const auto &cfg = model.config();
    lazydp::MiniBatch mb;
    mb.resize(batch, cfg.numTables, cfg.pooling, cfg.numDense);
    for (std::size_t e = 0; e < batch; ++e) {
        const lazydp::ServeQuery &q = queries[e % queries.size()];
        std::memcpy(mb.dense.row(e).data(), q.dense.data(),
                    cfg.numDense * sizeof(float));
        for (std::size_t t = 0; t < cfg.numTables; ++t)
            std::memcpy(mb.indices.data() + (t * batch + e) * cfg.pooling,
                        q.indices.data() + t * cfg.pooling,
                        cfg.pooling * sizeof(std::uint32_t));
    }
    lazydp::DlrmWorkspace ws;
    Tensor logits;
    return medianMs("probe.serve_forward", [&] {
        model.forward(mb, logits, ws, ExecContext::serial());
    });
}

} // namespace dpbench
