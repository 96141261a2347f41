#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>

#include <unistd.h>

#include "checks.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/factory.h"
#include "core/lazydp.h"
#include "inputs.h"
#include "obs/trace.h"
#include "serve/serve_engine.h"
#include "serve/snapshot_store.h"
#include "serve_client.h"
#include "train/trainer.h"

namespace dpbench {

using lazydp::Algorithm;
using lazydp::DlrmModel;
using lazydp::ExecContext;
using lazydp::MiniBatch;
using lazydp::ModelConfig;
using lazydp::ModelSnapshotStore;
using lazydp::PublishReceipt;
using lazydp::ServeEngine;
using lazydp::ThreadPool;
using lazydp::TrainHyper;
using lazydp::TrainOptions;
using lazydp::TrainResult;
using lazydp::obs::TraceCat;
using lazydp::obs::TraceSpan;

namespace {

struct Workload
{
    const char *name;
    const char *algo;
    RowDraw draw;
    bool tiered;          //!< out-of-core tables, hot tier = 1/8
    bool serveWhileTrain; //!< open-loop scoring during training
};

constexpr Workload kWorkloads[] = {
    {"lazydp-train", "lazydp", RowDraw::Uniform, false, false},
    {"dpsgd-train", "dpsgd-f", RowDraw::Uniform, false, false},
    {"lazydp-tiered", "lazydp", RowDraw::CriteoHigh, true, false},
    {"serve-while-train", "lazydp", RowDraw::CriteoHigh, false, true},
};

constexpr std::size_t kPoolBatches = 64;     // cycled training batches
constexpr std::size_t kCheckRowsPerTable = 16384;
constexpr std::size_t kQueryPool = 4096;     // cycled scoring queries
constexpr double kZipfS = 1.05;
constexpr std::uint64_t kWarmupIters = 2;    // trained, not timed
constexpr std::uint64_t kPublishEvery = 4;   // serve-while-train
// A run trains whole blocks of this many iterations, so every publish of
// serve-while-train falls inside the measured time.
constexpr std::uint64_t kBlockIters = kPublishEvery;
constexpr double kTrainServeRate = 400.0;    // requests/s while training
constexpr double kReleaseServeRate = 1000.0; // requests/s after training
constexpr std::size_t kVerifyEvery = 8;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * @return examples/s over the whole measured run: every measured
 * iteration's examples over their summed time. The host's speed drifts
 * over seconds to minutes; the whole-run mean weighs a fast and a slow
 * stretch by their length, where a median of blocks jumps to whichever
 * holds the majority.
 */
double
runThroughput(const std::vector<double> &iter_seconds, std::size_t batch)
{
    double total = 0.0;
    for (const double s : iter_seconds)
        total += s;
    if (total <= 0.0)
        return 0.0;
    return static_cast<double>(iter_seconds.size() * batch) / total;
}

/** @return the kB value of @p key in /proc/self/status (0 if absent). */
std::uint64_t
statusKb(const std::string &key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0)
            return std::stoull(line.substr(key.size()));
    return 0;
}

/** The benchmark's DataLoader: cycles the pre-generated batches. */
class PoolLoader final : public lazydp::DataLoader
{
  public:
    explicit PoolLoader(const std::vector<MiniBatch> &pool) : pool_(pool)
    {
    }

    MiniBatch
    next() override
    {
        const MiniBatch &src = pool_[pos_++ % pool_.size()];
        MiniBatch copy;
        src.slice(0, src.batchSize, copy);
        return copy;
    }

    std::uint64_t produced() const override { return pos_; }

    /** Hand the last @p n batches out again (a previewed batch). */
    void rewind(std::uint64_t n) { pos_ -= n; }

  private:
    const std::vector<MiniBatch> &pool_;
    std::uint64_t pos_ = 0;
};

/** One Trainer::run of a training schedule. */
struct Chunk
{
    std::uint64_t iters;
    bool previewFinal;
};

/** What training produced, in either mode. */
struct TrainOutcome
{
    std::uint64_t iters = 0; //!< total iterations T, warm-up included
    std::vector<Chunk> schedule;
    std::vector<double> losses;
    double samplesPerS = 0.0;
    double iterP50S = 0.0; //!< untraced run only
    double finalizeS = 0.0;

    // Publishes made during training (serve-while-train).
    std::uint64_t publishes = 0;
    double publishS = 0.0;
    std::uint64_t rowsCopied = 0;
    std::uint64_t pagesShared = 0;

    // Traced run only: per measured iteration means.
    double prepareMs = 0.0;
    double applyMs = 0.0;
    double otherMs = 0.0;
    double noiseRows = 0.0;
};

/**
 * Run @p chunks back to back through the program's Trainer, finalizing
 * after the last; a chunk that previews its final batch hands it to the
 * next chunk, so the chunks train exactly one uninterrupted schedule.
 */
void
runChunks(Algorithm &algo, PoolLoader &loader, ExecContext &exec,
          const std::vector<Chunk> &chunks, TrainOptions options)
{
    lazydp::Trainer trainer(algo, loader, &exec);
    std::uint64_t done = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        options.startIter = done;
        options.previewFinal = chunks[c].previewFinal;
        options.runFinalize = c + 1 == chunks.size();
        trainer.run(chunks[c].iters, options);
        if (chunks[c].previewFinal)
            loader.rewind(1);
        done += chunks[c].iters;
    }
}

TrainOptions
trainerOptions(ModelSnapshotStore *publish_to)
{
    TrainOptions options;
    options.pipeline = true;
    options.recordIterSeconds = true;
    if (publish_to != nullptr) {
        options.publishEveryIters = kPublishEvery;
        options.snapshotStore = publish_to;
    }
    return options;
}

/**
 * Untraced run: the program's pipelined Trainer. Two warm-up iterations
 * estimate the iteration time; the measured chunk then runs as many
 * whole blocks of kBlockIters iterations as fill the requested seconds,
 * and at most @p max_iters iterations in all.
 */
TrainOutcome
trainMeasured(Algorithm &algo, const std::vector<MiniBatch> &batches,
              ExecContext &exec, const RunOptions &o, std::uint64_t max_iters,
              ModelSnapshotStore *publish_to)
{
    PoolLoader loader(batches);
    lazydp::Trainer trainer(algo, loader, &exec);
    TrainOutcome out;
    // The warm-up previews its last batch and hands it back to the
    // loader, so both runs train one uninterrupted schedule.
    TrainOptions warm_opts = trainerOptions(nullptr);
    warm_opts.previewFinal = true;
    warm_opts.runFinalize = false;
    const TrainResult warm = trainer.run(kWarmupIters, warm_opts);
    loader.rewind(1);
    const double estimate = warm.iterSeconds.back();
    // Whole blocks: at least three, and no more than max_iters allows.
    auto blocks = static_cast<std::uint64_t>(std::max(
        3.0, std::round(o.seconds / (estimate * kBlockIters))));
    const std::uint64_t room =
        max_iters > kWarmupIters ? max_iters - kWarmupIters : 0;
    blocks = std::max<std::uint64_t>(
        1, std::min(blocks, room / kBlockIters));
    const std::uint64_t n = blocks * kBlockIters;
    TrainOptions measured = trainerOptions(publish_to);
    measured.startIter = kWarmupIters;
    const TrainResult res = trainer.run(n, measured);

    out.iters = kWarmupIters + n;
    out.schedule = {{kWarmupIters, true}, {n, false}};
    out.losses = warm.losses;
    out.losses.insert(out.losses.end(), res.losses.begin(),
                      res.losses.end());
    out.samplesPerS = runThroughput(res.iterSeconds, batches[0].batchSize);
    out.iterP50S = lazydp::stats::computePercentiles(res.iterSeconds).p50;
    out.finalizeS = res.finalizeSeconds;
    out.publishes = res.publishes;
    out.publishS = res.publishSeconds;
    out.rowsCopied = res.rowsCopied;
    out.pagesShared = res.pagesShared;
    return out;
}

/**
 * Traced run: the benchmark drives the serial schedule itself so every
 * call into the training layers gets its own span. Like the untraced
 * run it trains whole blocks, and at most @p max_iters iterations.
 */
TrainOutcome
trainTraced(Algorithm &algo, DlrmModel &model,
            const std::vector<MiniBatch> &batches, ExecContext &exec,
            ThreadPool &pool, const RunOptions &o, std::uint64_t max_iters,
            ModelSnapshotStore *publish_to)
{
    TrainOutcome out;
    if (publish_to != nullptr &&
        algo.enableDirtyTracking(publish_to->options().pageRows))
        algo.dirtyTracker()->markAllDirty();
    auto prep = algo.makePrepared();
    lazydp::StageTimer timer;
    std::vector<double> iter_seconds;
    double elapsed = 0.0; // measured iterations only
    for (std::uint64_t i = 1;; ++i) {
        const MiniBatch &cur = batches[(i - 1) % batches.size()];
        const MiniBatch &next = batches[i % batches.size()];
        const auto t0 = Clock::now();
        {
            TraceSpan span(TraceCat::Trainer, "bench.prepare", {"iter", i});
            algo.prepare(i, cur, &next, *prep, exec, timer);
        }
        const auto t1 = Clock::now();
        double noise_rows = 0.0;
        if (const auto *lp =
                dynamic_cast<const lazydp::LazyDpPrepared *>(prep.get()))
            for (const auto &t : lp->tables)
                noise_rows += static_cast<double>(t.nextUnique.size());
        {
            TraceSpan span(TraceCat::Trainer, "bench.warm", {"iter", i});
            algo.warmTier(cur, prep.get(), &pool);
        }
        const auto t2 = Clock::now();
        {
            TraceSpan span(TraceCat::Trainer, "bench.apply", {"iter", i});
            out.losses.push_back(algo.apply(i, cur, *prep, exec, timer));
        }
        const auto t3 = Clock::now();
        if (publish_to != nullptr && i % kPublishEvery == 0) {
            TraceSpan span(TraceCat::Trainer, "bench.publish", {"iter", i});
            const PublishReceipt r =
                publish_to->publish(model, i, algo.dirtyTracker());
            ++out.publishes;
            out.publishS += r.seconds;
            out.rowsCopied += r.rowsCopied;
            out.pagesShared += r.pagesShared;
        }
        const auto t4 = Clock::now();
        if (i > kWarmupIters) {
            iter_seconds.push_back(msBetween(t0, t4) / 1e3);
            elapsed += iter_seconds.back();
            out.prepareMs += msBetween(t0, t1);
            out.applyMs += msBetween(t2, t3);
            out.otherMs += msBetween(t1, t2) + msBetween(t3, t4);
            out.noiseRows += noise_rows;
        }
        const std::size_t measured = iter_seconds.size();
        const bool full = measured >= 3 * kBlockIters &&
                          measured % kBlockIters == 0 &&
                          elapsed >= o.seconds;
        const bool capped = i > kWarmupIters && i >= max_iters;
        if (full || capped) {
            out.iters = i;
            break;
        }
    }
    const auto m = static_cast<double>(iter_seconds.size());
    out.schedule = {{out.iters, true}};
    out.samplesPerS = runThroughput(iter_seconds, batches[0].batchSize);
    out.prepareMs /= m;
    out.applyMs /= m;
    out.otherMs /= m;
    out.noiseRows /= m;

    model.drainTierWarm();
    const auto f0 = Clock::now();
    {
        TraceSpan span(TraceCat::Trainer, "bench.finalize");
        algo.finalize(out.iters, exec, timer);
    }
    out.finalizeS = secondsSince(f0);
    return out;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    lazydp::fatal("unknown workload '", name, "'");
}

TrainHyper
hyperFor(std::uint64_t seed)
{
    TrainHyper hyper; // lr 0.05, sigma 1, C 1
    hyper.noiseSeed = seed * 0x9E3779B9ull + 7;
    return hyper;
}

std::unique_ptr<DlrmModel>
makeModel(const ModelConfig &cfg, std::uint64_t seed, bool tiered,
          const std::string &cold_dir)
{
    if (!tiered)
        return std::make_unique<DlrmModel>(cfg, seed);
    DlrmModel::TieredModelOptions tier;
    tier.hotBytes = cfg.tableBytes() / 8;
    tier.coldDir = cold_dir;
    return std::make_unique<DlrmModel>(cfg, seed, tier);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Workload &w : kWorkloads)
            n.emplace_back(w.name);
        return n;
    }();
    return names;
}

RunResult
runWorkload(const RunOptions &o)
{
    const Workload &w = findWorkload(o.workload);
    RunResult rr;
    auto fail = [&rr](std::string why) {
        rr.correct = false;
        rr.problems.push_back(std::move(why));
    };

    // Thread split: at most nproc busy threads. Training gets the
    // compute pool plus the pipeline lane; serve-while-train gives one
    // more core to its serve lane, and lazydp-tiered to its warm lane.
    const std::size_t nproc = lazydp::hardwareThreads();
    const std::size_t reserved = w.serveWhileTrain || w.tiered ? 2 : 1;
    const std::size_t width = nproc > reserved ? nproc - reserved : 1;

    const ModelConfig cfg = ModelConfig::mlperfBench(o.tableMb << 20);

    // ---- inputs: the benchmark's own, excluded from set-up time.
    const auto in0 = Clock::now();
    const std::uint64_t rss0_kb = statusKb("VmRSS:");
    const std::vector<MiniBatch> batches =
        makeBatches(cfg, o.batch, kPoolBatches, w.draw, o.seed);
    const std::vector<lazydp::ServeQuery> queries =
        makeQueries(cfg, kQueryPool, kZipfS, o.seed);
    const auto check_rows = untouchedRows(cfg, batches, kCheckRowsPerTable);
    std::size_t check_samples = 0;
    for (const auto &rows : check_rows)
        check_samples += rows.size() * cfg.embedDim;
    // Train no more iterations than the noise check can resolve.
    std::uint64_t max_iters = maxResolvableIters(check_samples);
    if (o.maxIters != 0)
        max_iters = std::min(max_iters, o.maxIters);
    const std::uint64_t rss1_kb = statusKb("VmRSS:");
    const std::uint64_t inputs_kb = rss1_kb > rss0_kb ? rss1_kb - rss0_kb : 0;
    double excluded_s = secondsSince(in0);

    const std::string cold_dir =
        o.scratchDir + "/cold-" + std::to_string(::getpid());
    if (w.tiered)
        std::filesystem::create_directories(cold_dir);

    // ---- set-up: model and tables, engines, serving start.
    const TrainHyper hyper = hyperFor(o.seed);
    const auto m0 = Clock::now();
    std::unique_ptr<DlrmModel> model =
        makeModel(cfg, o.seed, w.tiered, cold_dir);
    const double model_init_s = secondsSince(m0);
    const auto e0 = Clock::now();
    ThreadPool pool(width);
    ExecContext exec(&pool);
    auto algo = lazydp::makeAlgorithm(w.algo, *model, hyper);
    lazydp::SnapshotOptions snap_opts;
    snap_opts.mode = w.serveWhileTrain ? lazydp::SnapshotMode::Delta
                                       : lazydp::SnapshotMode::Full;
    auto store = std::make_unique<ModelSnapshotStore>(snap_opts);
    lazydp::ServeOptions serve_opts;
    serve_opts.threads = 1;
    // An idle serve lane still polls its queue every 200 us, so the
    // training-only workloads start serving after training.
    std::unique_ptr<ServeEngine> engine;
    if (w.serveWhileTrain) {
        engine = std::make_unique<ServeEngine>(*store, cfg, pool, serve_opts);
        store->publish(*model, 0);
    }
    const double engine_init_s = secondsSince(e0);

    const auto c0 = Clock::now();
    const std::vector<float> before = gatherRows(*model, check_rows);
    excluded_s += secondsSince(c0);
    const double setup_s = secondsSince(o.start) - excluded_s;

    // ---- measured: training (with scoring alongside, or after).
    if (o.trace)
        lazydp::obs::traceStart();
    ModelSnapshotStore *publish_to =
        w.serveWhileTrain ? store.get() : nullptr;
    std::unique_ptr<OpenLoopClient> client;
    if (w.serveWhileTrain) {
        const auto max_requests = static_cast<std::size_t>(
            kTrainServeRate * (4.0 * o.seconds + 60.0));
        client = std::make_unique<OpenLoopClient>(
            *engine, *store, queries, kTrainServeRate, max_requests,
            kVerifyEvery);
        client->start();
    }
    const TrainOutcome trained =
        o.trace ? trainTraced(*algo, *model, batches, exec, pool, o,
                              max_iters, publish_to)
                : trainMeasured(*algo, batches, exec, o, max_iters,
                                publish_to);
    ClientReport report;
    if (client)
        report = client->finish();

    PublishReceipt release;
    {
        TraceSpan span(TraceCat::Trainer, "bench.release_publish");
        release = store->publish(*model, trained.iters, algo->dirtyTracker());
    }
    // finalize_s is LazyDP's flush of pending noise. DP-SGD has nothing
    // to flush, so there it reads the release publish instead, timed
    // into a recycled snapshot shell: a second publish retires the
    // first shell and a third reuses it, so the figure is the copy, not
    // the first-touch page faults of a fresh gigabyte.
    const bool flushes = std::string(w.algo) == "lazydp";
    double finalize_s = trained.finalizeS;
    if (!flushes && !o.trace) {
        store->publish(*model, trained.iters);
        finalize_s = store->publish(*model, trained.iters).seconds;
    }
    if (!client) {
        engine = std::make_unique<ServeEngine>(*store, cfg, pool, serve_opts);
        OpenLoopClient post(*engine, *store, queries, kReleaseServeRate,
                            o.serveRequests, kVerifyEvery);
        post.start();
        post.waitSent();
        report = post.finish();
    }
    engine->stop();
    const lazydp::ServeStats serve_stats = engine->stats();
    const std::uint64_t hwm_kb = statusKb("VmHWM:");
    const std::uint64_t check_kb = before.size() * sizeof(float) / 1024;
    const double peak_rss_mb =
        static_cast<double>(hwm_kb - std::min(hwm_kb, inputs_kb + check_kb)) /
        1024.0;
    double serve_forward_ms = 0.0;
    if (o.trace)
        serve_forward_ms = probeServeForward(
            store->current()->model, queries,
            std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::lround(serve_stats.meanBatch()))));
    engine.reset();
    store.reset();

    // ---- checks, computed apart from the program.
    rr.attempted = trained.iters + report.outcomes.size();
    for (const double loss : trained.losses)
        if (!std::isfinite(loss))
            ++rr.failed;
    for (const RequestOutcome &r : report.outcomes)
        if (!r.done || r.status != lazydp::ServeResult::Status::Ok)
            ++rr.failed;
    if (rr.failed != 0)
        fail(std::to_string(rr.failed) + " operations failed");

    const double per_iter_std =
        static_cast<double>(hyper.lr) * hyper.noiseMultiplier *
        hyper.clipNorm / static_cast<double>(o.batch);
    const NoiseCheck noise = checkPureNoise(
        before, gatherRows(*model, check_rows), trained.iters, per_iter_std);
    if (!noise.ok)
        fail(noise.describe());

    const std::string completion =
        checkCompletions(report.outcomes, serve_stats.served);
    if (!completion.empty())
        fail(completion);
    if (report.mismatched != 0)
        fail(std::to_string(report.mismatched) +
             " served scores differ from the reference; first: " +
             report.firstMismatch);
    if (report.verified == 0)
        fail("no served score could be re-scored");

    if (w.tiered) {
        // The same schedule on all-DRAM tables, outside the timed run.
        // Results do not depend on the thread count, so the replay
        // takes every core.
        DlrmModel reference(cfg, o.seed);
        auto ref_algo = lazydp::makeAlgorithm(w.algo, reference, hyper);
        PoolLoader loader(batches);
        ThreadPool replay_pool(nproc);
        ExecContext replay_exec(&replay_pool);
        runChunks(*ref_algo, loader, replay_exec, trained.schedule,
                  trainerOptions(nullptr));
        const std::string diff = compareModels(*model, reference);
        if (!diff.empty())
            fail("tiered model differs from all-DRAM training: " + diff);
    }

    // ---- metrics.
    auto add = [&rr](const char *name, double value, const char *unit) {
        rr.metrics.push_back({name, value, unit});
    };
    const lazydp::stats::Percentiles latency =
        lazydp::stats::computePercentiles(report.latencyMs);
    if (!o.trace) {
        add("samples_per_s", trained.samplesPerS, "examples/s");
        add("iter_p50_s", trained.iterP50S, "s");
        add("finalize_s", finalize_s, "s");
        add("setup_s", setup_s, "s");
        add("peak_rss_mb", peak_rss_mb, "MB");
        add("serve_p50_ms", latency.p50, "ms");
    } else {
        const lazydp::TierStats tier = model->tierStats();
        const auto iters = static_cast<double>(trained.iters);
        const bool trained_publishes = trained.publishes != 0;
        const double publishes =
            trained_publishes ? static_cast<double>(trained.publishes) : 1.0;
        add("train.prepare_ms", trained.prepareMs, "ms");
        add("train.apply_ms", trained.applyMs, "ms");
        add("train.other_ms", trained.otherMs, "ms");
        add("train.finalize_ms", trained.finalizeS * 1e3, "ms");
        add("trace.samples_per_s", trained.samplesPerS, "examples/s");
        add("core.noise_rows", trained.noiseRows, "rows");
        probeForward(*model, batches[0], exec, rr.metrics);
        probeDpKernels(cfg, hyper, exec, rr.metrics);
        add("serve.publish_ms",
            1e3 * (trained_publishes ? trained.publishS : release.seconds) /
                publishes,
            "ms");
        add("serve.publish_rows_copied",
            static_cast<double>(trained_publishes ? trained.rowsCopied
                                                  : release.rowsCopied) /
                publishes,
            "rows");
        add("serve.publish_pages_shared",
            static_cast<double>(trained_publishes ? trained.pagesShared
                                                  : release.pagesShared) /
                publishes,
            "pages");
        add("serve.forward_ms", serve_forward_ms, "ms");
        add("serve.batch_mean", serve_stats.meanBatch(), "requests");
        add("serve.p99_ms", latency.p99, "ms");
        add("serve.send_late_p99_ms",
            lazydp::stats::computePercentiles(report.lateMs).p99, "ms");
        add("tier.promotions", static_cast<double>(tier.promotions) / iters,
            "pages/iter");
        add("tier.evictions", static_cast<double>(tier.evictions) / iters,
            "pages/iter");
        add("tier.writebacks", static_cast<double>(tier.writebacks) / iters,
            "pages/iter");
        add("tier.overcommits", static_cast<double>(tier.overcommits) / iters,
            "frames/iter");
        add("tier.hit_rate", tier.hitRate(), "ratio");
        add("setup.model_init_s", model_init_s, "s");
        add("setup.engine_init_s", engine_init_s, "s");
        lazydp::obs::traceStop();
        if (!lazydp::obs::traceWriteJson(o.tracePath))
            fail("cannot write trace " + o.tracePath);
    }

    model.reset();
    if (w.tiered)
        std::filesystem::remove_all(cold_dir);
    return rr;
}

} // namespace dpbench
