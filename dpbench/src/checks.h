/**
 * @file
 * Output checks computed apart from the program: the statistics of the
 * noise on rows no example touched, bit equality of two models, and
 * the serving completion and score checks. Each returns a verdict plus
 * enough numbers to say why it failed.
 */

#ifndef DPBENCH_CHECKS_H
#define DPBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "nn/dlrm.h"
#include "serve/serve_types.h"

namespace dpbench {

/** Moments of (final - initial) over coordinates of untouched rows. */
struct NoiseCheck
{
    std::size_t samples = 0;
    double mean = 0.0;
    double variance = 0.0;
    double expectedVariance = 0.0; //!< iters * (lr * sigma * C / B)^2
    double ratio = 0.0;            //!< variance / expectedVariance
    double meanBound = 0.0;        //!< allowed |mean|
    double ratioBound = 0.0;       //!< allowed |ratio - 1|
    bool ok = false;

    std::string describe() const;
};

/**
 * A coordinate that no trained example indexed moves only by the DP
 * noise: after @p iters iterations it is a sum of @p iters independent
 * N(0, per_iter_std^2) draws, however the engine schedules them. The
 * check passes when the sample mean and variance of @p after - @p before
 * sit within six standard errors of 0 and @p iters * per_iter_std^2,
 * and fails when the sample is too small for a one-iteration error
 * (a ratio shift of 1 / iters) to stand out.
 */
NoiseCheck checkPureNoise(const std::vector<float> &before,
                          const std::vector<float> &after,
                          std::uint64_t iters, double per_iter_std);

/**
 * @return the largest iteration count whose one-iteration error
 * checkPureNoise can still resolve over @p samples coordinates. A run
 * trains at most this many iterations, so a fast program is never
 * failed for outrunning its check.
 */
std::uint64_t maxResolvableIters(std::size_t samples);

/** Copy rows @p rows [t] of every table of @p model, table-major. */
std::vector<float>
gatherRows(const lazydp::DlrmModel &model,
           const std::vector<std::vector<std::uint32_t>> &rows);

/**
 * @return "" when every embedding and MLP parameter of @p a and @p b
 * has identical bits, else the location of the first difference.
 */
std::string compareModels(const lazydp::DlrmModel &a,
                          const lazydp::DlrmModel &b);

/** How one submitted request ended, as its client saw it. */
struct RequestOutcome
{
    bool done = false;
    lazydp::ServeResult::Status status = lazydp::ServeResult::Status::Ok;
};

/**
 * Every submitted request must complete exactly once and be scored:
 * all handles done with status Ok, and the engine's served count equal
 * to the number submitted (a second completion of one request, or a
 * completion without a request, would make them differ).
 *
 * @return "" on success, else the reason
 */
std::string checkCompletions(const std::vector<RequestOutcome> &outcomes,
                             std::uint64_t engine_served);

/** Reusable buffers for referenceScore. */
struct ScoreScratch
{
    lazydp::MiniBatch batch;
    lazydp::DlrmWorkspace ws;
    lazydp::Tensor logits;
};

/**
 * The score a serving lane must return for @p query on @p model: a
 * one-example const forward pass followed by the logistic function.
 */
float referenceScore(const lazydp::DlrmModel &model,
                     const lazydp::ServeQuery &query, ScoreScratch &scratch);

/** @return true when @p a and @p b have the same bits. */
bool sameBits(float a, float b);

} // namespace dpbench

#endif // DPBENCH_CHECKS_H
