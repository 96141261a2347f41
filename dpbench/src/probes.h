/**
 * @file
 * Per-layer probes for the traced run. Each one calls a public layer
 * entry point on the workload's own batch, weights and table shapes,
 * times it from outside, and derives a rate from flop and byte counts
 * computed here from those shapes.
 */

#ifndef DPBENCH_PROBES_H
#define DPBENCH_PROBES_H

#include <string>
#include <vector>

#include "nn/dlrm.h"
#include "serve/serve_types.h"
#include "train/algorithm.h"

namespace dpbench {

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** nn.*: const forward and its embedding / MLP / interaction parts. */
void probeForward(const lazydp::DlrmModel &model,
                  const lazydp::MiniBatch &batch,
                  lazydp::ExecContext &exec, std::vector<Metric> &out);

/**
 * dp.*: fillDenseTableNoise and streamingTableUpdate over every table
 * of @p model 's shape: the two passes eager DP-SGD makes each
 * iteration.
 */
void probeDpKernels(const lazydp::ModelConfig &model,
                    const lazydp::TrainHyper &hyper,
                    lazydp::ExecContext &exec, std::vector<Metric> &out);

/** @return median ms of a const forward over @p batch queries. */
double probeServeForward(const lazydp::DlrmModel &model,
                         const std::vector<lazydp::ServeQuery> &queries,
                         std::size_t batch);

} // namespace dpbench

#endif // DPBENCH_PROBES_H
