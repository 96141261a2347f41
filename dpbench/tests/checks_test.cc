// Each output check of the benchmark passes on correct outputs and
// fails on a minimally wrong one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "checks.h"
#include "inputs.h"
#include "serve/serve_engine.h"
#include "serve/snapshot_store.h"

namespace dpbench {
namespace {

using lazydp::DlrmModel;
using lazydp::ModelConfig;

constexpr std::uint64_t kIters = 40;
constexpr double kStd = 2.4e-5; // lr * sigma * C / B at the benchmark's B
constexpr std::size_t kCoords = 2'000'000;

/**
 * (before, after) where each coordinate moved by the sum of kIters
 * noise draws, draw @p odd_iter scaled by @p odd_scale (1 = correct).
 */
std::pair<std::vector<float>, std::vector<float>>
noisyCoords(double odd_scale, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> before(kCoords);
    std::vector<float> after(kCoords);
    for (std::size_t i = 0; i < kCoords; ++i) {
        before[i] = static_cast<float>(0.003 * (2.0 * rng.uniform() - 1.0));
        double moved = odd_scale * kStd * rng.normal();
        // The other kIters - 1 draws sum to one N(0, (kIters - 1) s^2).
        moved += std::sqrt(static_cast<double>(kIters - 1)) * kStd *
                 rng.normal();
        after[i] = static_cast<float>(before[i] + moved);
    }
    return {before, after};
}

TEST(NoiseCheck, PassesOnNoiseOfEveryIteration)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto [before, after] = noisyCoords(1.0, seed);
        const NoiseCheck c = checkPureNoise(before, after, kIters, kStd);
        EXPECT_TRUE(c.ok) << c.describe();
    }
}

TEST(NoiseCheck, FailsWhenOneIterationsNoiseIsMissing)
{
    const auto [before, after] = noisyCoords(0.0, 4);
    const NoiseCheck c = checkPureNoise(before, after, kIters, kStd);
    EXPECT_FALSE(c.ok) << c.describe();
}

TEST(NoiseCheck, FailsWhenOneIterationsNoiseIsDoubled)
{
    const auto [before, after] = noisyCoords(2.0, 5);
    const NoiseCheck c = checkPureNoise(before, after, kIters, kStd);
    EXPECT_FALSE(c.ok) << c.describe();
}

TEST(NoiseCheck, FailsWhenTheSampleCannotResolveOneIteration)
{
    auto [before, after] = noisyCoords(1.0, 6);
    before.resize(1000);
    after.resize(1000);
    EXPECT_FALSE(checkPureNoise(before, after, kIters, kStd).ok);
}

TEST(NoiseCheck, ResolvableIterationsGrowWithTheSample)
{
    // ratio bound 6 sqrt(2 / n) must stay below 0.5 / iters.
    for (const std::size_t n : {27'262'976u, 54'525'952u}) {
        const std::uint64_t t = maxResolvableIters(n);
        const double bound = 6.0 * std::sqrt(2.0 / static_cast<double>(n));
        EXPECT_LT(bound, 0.5 / static_cast<double>(t));
        EXPECT_GE(bound, 0.5 / static_cast<double>(t + 1));
    }
    EXPECT_EQ(maxResolvableIters(0), 0u);
}

TEST(CompareModels, TieredTableDifferingInOneElementFails)
{
    const ModelConfig cfg = ModelConfig::tiny();
    const std::string dir = testing::TempDir() + "/dpbench-compare";
    std::filesystem::create_directories(dir);
    DlrmModel::TieredModelOptions tier;
    tier.hotBytes = cfg.tableBytes() / 8;
    tier.coldDir = dir;
    tier.pageRows = 8;
    DlrmModel tiered(cfg, 7, tier);
    const DlrmModel dram(cfg, 7);
    EXPECT_EQ(compareModels(tiered, dram), "");

    tiered.tables()[1].rowPtr(13)[5] += 1e-7f;
    EXPECT_NE(compareModels(tiered, dram), "");
}

TEST(CompareModels, MlpDifferenceFails)
{
    const ModelConfig cfg = ModelConfig::tiny();
    DlrmModel a(cfg, 7);
    const DlrmModel b(cfg, 7);
    a.topMlp().layers()[0].bias().data()[0] += 1.0f;
    EXPECT_NE(compareModels(a, b), "");
}

TEST(CheckCompletions, AllScoredOncePasses)
{
    const std::vector<RequestOutcome> ok(5, {true, {}});
    EXPECT_EQ(checkCompletions(ok, 5), "");
}

TEST(CheckCompletions, DroppedRequestFails)
{
    std::vector<RequestOutcome> outcomes(5, {true, {}});
    outcomes[3].done = false;
    EXPECT_NE(checkCompletions(outcomes, 4), "");
}

TEST(CheckCompletions, UnscoredOrDoublyCountedRequestFails)
{
    std::vector<RequestOutcome> outcomes(5, {true, {}});
    EXPECT_NE(checkCompletions(outcomes, 6), "");
    outcomes[0].status = lazydp::ServeResult::Status::Shed;
    EXPECT_NE(checkCompletions(outcomes, 5), "");
}

TEST(ReferenceScore, MatchesServedVersionAndNotAnother)
{
    const ModelConfig cfg = ModelConfig::tiny();
    DlrmModel model(cfg, 3);
    lazydp::ModelSnapshotStore store;
    store.publish(model, 1);
    lazydp::ThreadPool pool(1);
    lazydp::ServeEngine engine(store, cfg, pool, {});
    const lazydp::ServeQuery query = makeQueries(cfg, 1, 1.05, 9)[0];
    const lazydp::ServeResult served = engine.submit(query)->wait();
    ASSERT_EQ(served.status, lazydp::ServeResult::Status::Ok);
    ASSERT_EQ(served.version, 1u);

    ScoreScratch scratch;
    const auto v1 = store.current();
    EXPECT_TRUE(sameBits(referenceScore(v1->model, query, scratch),
                         served.score));

    // Version 2 changes a row the query reads; comparing the score
    // served by version 1 against it must fail.
    model.tables()[0].rowPtr(query.indices[0])[0] += 0.5f;
    store.publish(model, 2);
    EXPECT_FALSE(sameBits(referenceScore(store.current()->model, query,
                                         scratch),
                          served.score));
    engine.stop();
}

} // namespace
} // namespace dpbench
