/**
 * @file
 * dpbench_run — one benchmark run of one workload.
 *
 *   dpbench_run --workload lazydp-train --seed 1 --seconds 10 --trace 0
 *
 * Prints, as the last line of standard output, one JSON object with
 * the keys correct, attempted, failed and metrics. --trace 1 prints
 * the per-layer metrics instead of the end-to-end ones and writes a
 * Chrome-trace JSON file to --trace-out. dpbench/run.py builds this
 * binary and is the intended entry point.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/logging.h"
#include "workload.h"

namespace {

/** @return --key value pairs (also --key=value). */
std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            lazydp::fatal("unexpected argument '", key, "'");
        key = key.substr(2);
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            args[key.substr(0, eq)] = key.substr(eq + 1);
        } else {
            if (i + 1 >= argc)
                lazydp::fatal("--", key, " needs a value");
            args[key] = argv[++i];
        }
    }
    return args;
}

std::string
take(std::map<std::string, std::string> &args, const std::string &key,
     const std::string &fallback)
{
    const auto it = args.find(key);
    if (it == args.end())
        return fallback;
    std::string v = it->second;
    args.erase(it);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();
    auto args = parseArgs(argc, argv);
    dpbench::RunOptions o;
    o.start = start;
    o.workload = take(args, "workload", "");
    o.seed = std::stoull(take(args, "seed", "1"));
    o.seconds = std::stod(take(args, "seconds", "10"));
    o.trace = take(args, "trace", "0") == "1";
    o.tracePath = take(args, "trace-out", "dpbench-trace.json");
    o.scratchDir = take(args, "scratch", ".");
    if (!args.empty())
        lazydp::fatal("unknown flag --", args.begin()->first);
    if (o.seconds <= 0.0)
        lazydp::fatal("--seconds must be positive");

    const dpbench::RunResult r = dpbench::runWorkload(o);
    for (const std::string &p : r.problems)
        std::fprintf(stderr, "dpbench: check failed: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
