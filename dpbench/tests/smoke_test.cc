// A short run of every workload at a small scale: each must finish,
// pass its own output checks and report every metric.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "workload.h"

namespace dpbench {
namespace {

RunOptions
smallRun(const std::string &workload, bool trace)
{
    RunOptions o;
    o.workload = workload;
    o.seed = 11;
    o.seconds = 0.5;
    o.trace = trace;
    o.tableMb = 32;
    o.batch = 128;
    o.maxIters = 8;
    o.serveRequests = 200;
    o.scratchDir = testing::TempDir();
    o.tracePath = testing::TempDir() + "/dpbench-smoke-" + workload + ".json";
    return o;
}

class Smoke : public testing::TestWithParam<std::string>
{
};

TEST_P(Smoke, RunsChecksAndReports)
{
    for (const bool trace : {false, true}) {
        const RunResult r = runWorkload(smallRun(GetParam(), trace));
        for (const std::string &p : r.problems)
            ADD_FAILURE() << p;
        EXPECT_TRUE(r.correct);
        EXPECT_EQ(r.failed, 0u);
        EXPECT_GT(r.attempted, 8u);
        EXPECT_EQ(r.metrics.size(), trace ? 32u : 6u);
        for (const Metric &m : r.metrics)
            EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
    EXPECT_TRUE(std::filesystem::exists(smallRun(GetParam(), true).tracePath));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

} // namespace
} // namespace dpbench
