#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace dpbench {

using lazydp::MiniBatch;
using lazydp::ModelConfig;
using lazydp::ServeQuery;

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::normal()
{
    const double u1 = 1.0 - uniform(); // (0, 1]
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

namespace {

/** Criteo-high: the hottest 0.6% of rows receive 90% of the draws. */
constexpr double kHotFrac = 0.006;
constexpr double kHotMass = 0.90;

std::uint32_t
drawRow(Rng &rng, std::uint64_t rows, RowDraw draw)
{
    if (draw == RowDraw::CriteoHigh) {
        const auto hot = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(kHotFrac *
                                          static_cast<double>(rows)));
        if (rng.uniform() < kHotMass)
            return static_cast<std::uint32_t>(rng.below(hot));
        return static_cast<std::uint32_t>(hot + rng.below(rows - hot));
    }
    return static_cast<std::uint32_t>(rng.below(rows));
}

/** Dense features ~N(0,1); the label follows a planted logistic model
 * so the loss has something to learn. */
void
fillDense(Rng &rng, std::size_t num_dense, float *dense, float &label)
{
    double logit = 0.0;
    for (std::size_t d = 0; d < num_dense; ++d) {
        const double v = rng.normal();
        dense[d] = static_cast<float>(v);
        logit += (d % 2 == 0 ? 0.5 : -0.5) * v;
    }
    label = rng.uniform() < 1.0 / (1.0 + std::exp(-logit)) ? 1.0f : 0.0f;
}

} // namespace

std::vector<MiniBatch>
makeBatches(const ModelConfig &model, std::size_t batch,
            std::size_t count, RowDraw draw, std::uint64_t seed)
{
    std::vector<MiniBatch> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(seed * 0x100000001B3ull + i);
        MiniBatch &mb = out[i];
        mb.resize(batch, model.numTables, model.pooling, model.numDense);
        for (std::size_t e = 0; e < batch; ++e)
            fillDense(rng, model.numDense, mb.dense.row(e).data(),
                      mb.labels[e]);
        for (std::size_t t = 0; t < model.numTables; ++t) {
            const std::uint64_t rows = model.rowsForTable(t);
            for (auto &idx : mb.tableIndices(t))
                idx = drawRow(rng, rows, draw);
        }
    }
    return out;
}

std::vector<ServeQuery>
makeQueries(const ModelConfig &model, std::size_t count, double zipf_s,
            std::uint64_t seed)
{
    // One cumulative Zipf table over the largest table; a smaller table
    // samples from its prefix.
    const std::uint64_t rows = model.maxTableRows();
    std::vector<double> cdf(rows);
    double acc = 0.0;
    for (std::uint64_t r = 0; r < rows; ++r) {
        acc += std::pow(static_cast<double>(r + 1), -zipf_s);
        cdf[r] = acc;
    }
    Rng rng(seed ^ 0x5E57E5ull);
    std::vector<ServeQuery> out(count);
    for (auto &q : out) {
        q.dense.resize(model.numDense);
        float unused_label = 0.0f;
        fillDense(rng, model.numDense, q.dense.data(), unused_label);
        q.indices.resize(model.numTables * model.pooling);
        for (std::size_t t = 0; t < model.numTables; ++t) {
            const std::uint64_t table_rows = model.rowsForTable(t);
            const double total = cdf[table_rows - 1];
            for (std::size_t s = 0; s < model.pooling; ++s) {
                const double u = rng.uniform() * total;
                const auto it = std::upper_bound(
                    cdf.begin(), cdf.begin() + table_rows, u);
                q.indices[t * model.pooling + s] =
                    static_cast<std::uint32_t>(std::min<std::uint64_t>(
                        it - cdf.begin(), table_rows - 1));
            }
        }
    }
    return out;
}

std::vector<std::vector<std::uint32_t>>
untouchedRows(const ModelConfig &model,
              const std::vector<MiniBatch> &batches, std::size_t max_rows)
{
    std::vector<std::vector<std::uint32_t>> out(model.numTables);
    for (std::size_t t = 0; t < model.numTables; ++t) {
        std::vector<char> touched(model.rowsForTable(t), 0);
        for (const MiniBatch &mb : batches)
            for (const std::uint32_t r : mb.tableIndices(t))
                touched[r] = 1;
        std::vector<std::uint32_t> free_rows;
        for (std::size_t r = 0; r < touched.size(); ++r)
            if (touched[r] == 0)
                free_rows.push_back(static_cast<std::uint32_t>(r));
        const std::size_t take = std::min(max_rows, free_rows.size());
        for (std::size_t k = 0; k < take; ++k)
            out[t].push_back(free_rows[k * free_rows.size() / take]);
    }
    return out;
}

} // namespace dpbench
