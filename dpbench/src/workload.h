/**
 * @file
 * The four benchmark workloads and the run that measures and checks
 * one of them. See dpbench/README.md for what each workload stresses.
 */

#ifndef DPBENCH_WORKLOAD_H
#define DPBENCH_WORKLOAD_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "probes.h"

namespace dpbench {

/** Inputs of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  //!< training time to measure
    bool trace = false;     //!< traced run: per-layer metrics instead
    std::string tracePath;  //!< Chrome-trace JSON output (trace runs)
    std::string scratchDir; //!< cold-tier files (lazydp-tiered)

    // Scale knobs: the defaults are the benchmark; only the tests
    // shrink them, so the command line does not expose them.
    std::uint64_t tableMb = 960;
    std::size_t batch = 2048;
    std::uint64_t maxIters = 0;     //!< 0 = as many as fit in seconds
    std::size_t serveRequests = 2000; //!< post-training scoring phase

    /** Start of the cold set-up (process start for the CLI). */
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

/** Outcome of one run: the verdict, operation counts and metrics. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0; //!< training iterations + requests
    std::uint64_t failed = 0;    //!< non-finite losses + unscored requests
    std::vector<Metric> metrics;
    std::vector<std::string> problems; //!< why correct is false
};

/** @return the workload names, in benchmark order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; fatal() on an unknown name. */
RunResult runWorkload(const RunOptions &options);

} // namespace dpbench

#endif // DPBENCH_WORKLOAD_H
