/**
 * @file
 * Seeded input generation for the benchmark. Every training batch and
 * serving query is made here, from the workload seed, before any timed
 * work starts; the program under test only ever sees these buffers.
 */

#ifndef DPBENCH_INPUTS_H
#define DPBENCH_INPUTS_H

#include <cstdint>
#include <vector>

#include "data/minibatch.h"
#include "nn/model_config.h"
#include "serve/serve_types.h"

namespace dpbench {

/** SplitMix64: small, fast and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** @return uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n);

    /** @return uniform double in [0, 1). */
    double uniform();

    /** @return standard normal draw (Box-Muller). */
    double normal();

  private:
    std::uint64_t state_;
};

/** How training batches draw embedding rows. */
enum class RowDraw
{
    Uniform,    //!< every row equally likely
    CriteoHigh, //!< 0.6% of rows take 90% of draws (hot rows first)
};

/**
 * @return @p count training batches of @p batch examples for @p model,
 * with rows drawn per @p draw from a stream keyed by @p seed.
 */
std::vector<lazydp::MiniBatch>
makeBatches(const lazydp::ModelConfig &model, std::size_t batch,
            std::size_t count, RowDraw draw, std::uint64_t seed);

/**
 * @return @p count single-example scoring queries whose rows follow a
 * Zipf law of exponent @p zipf_s (rank 1 = row 0) in every table.
 */
std::vector<lazydp::ServeQuery>
makeQueries(const lazydp::ModelConfig &model, std::size_t count,
            double zipf_s, std::uint64_t seed);

/**
 * @return per table, up to @p max_rows rows (evenly spread, ascending)
 * that no example of @p batches indexes.
 */
std::vector<std::vector<std::uint32_t>>
untouchedRows(const lazydp::ModelConfig &model,
              const std::vector<lazydp::MiniBatch> &batches,
              std::size_t max_rows);

} // namespace dpbench

#endif // DPBENCH_INPUTS_H
