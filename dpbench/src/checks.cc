#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace dpbench {

using lazydp::DlrmModel;

std::string
NoiseCheck::describe() const
{
    std::ostringstream os;
    os << "noise check over " << samples << " coordinates: mean "
       << mean << " (bound " << meanBound << "), variance ratio "
       << ratio << " (bound 1 +- " << ratioBound << ")";
    return os.str();
}

namespace {

/** Allowed |ratio - 1|: six standard errors of a sample variance. */
double
ratioBoundFor(double samples)
{
    // The sample variance of n N(0, v) draws has variance 2 v^2 / n.
    return 6.0 * std::sqrt(2.0 / samples);
}

} // namespace

std::uint64_t
maxResolvableIters(std::size_t samples)
{
    if (samples == 0)
        return 0;
    // One iteration's error shifts the ratio by 1 / iters; it must
    // exceed twice the bound.
    const double limit =
        0.5 / ratioBoundFor(static_cast<double>(samples));
    auto iters = static_cast<std::uint64_t>(std::floor(limit));
    if (static_cast<double>(iters) >= limit && iters > 0)
        --iters;
    return iters;
}

NoiseCheck
checkPureNoise(const std::vector<float> &before,
               const std::vector<float> &after, std::uint64_t iters,
               double per_iter_std)
{
    NoiseCheck c;
    if (before.size() != after.size() || before.empty() || iters == 0)
        return c;
    c.samples = before.size();
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        const double d = static_cast<double>(after[i]) -
                         static_cast<double>(before[i]);
        sum += d;
        sum_sq += d * d;
    }
    const double n = static_cast<double>(c.samples);
    c.mean = sum / n;
    c.variance = sum_sq / n - c.mean * c.mean;
    c.expectedVariance =
        static_cast<double>(iters) * per_iter_std * per_iter_std;
    c.ratio = c.variance / c.expectedVariance;
    // Six standard errors: the sample mean of n N(0, v) draws has
    // variance v / n.
    c.meanBound = 6.0 * std::sqrt(c.expectedVariance / n);
    c.ratioBound = ratioBoundFor(n);
    c.ok = iters <= maxResolvableIters(c.samples) &&
           std::abs(c.mean) <= c.meanBound &&
           std::abs(c.ratio - 1.0) <= c.ratioBound;
    return c;
}

std::vector<float>
gatherRows(const DlrmModel &model,
           const std::vector<std::vector<std::uint32_t>> &rows)
{
    const std::size_t dim = model.config().embedDim;
    std::vector<float> out;
    for (std::size_t t = 0; t < rows.size(); ++t) {
        const auto &table = model.tables()[t];
        for (const std::uint32_t r : rows[t]) {
            const float *src = table.rowPtr(r);
            out.insert(out.end(), src, src + dim);
        }
    }
    return out;
}

namespace {

bool
sameTensor(const lazydp::Tensor &a, const lazydp::Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string
compareMlps(const char *name, const lazydp::Mlp &a, const lazydp::Mlp &b)
{
    if (a.layers().size() != b.layers().size())
        return std::string(name) + " layer count differs";
    for (std::size_t l = 0; l < a.layers().size(); ++l) {
        const auto &la = a.layers()[l];
        const auto &lb = b.layers()[l];
        if (!sameTensor(la.weight(), lb.weight()) ||
            !sameTensor(la.bias(), lb.bias()))
            return std::string(name) + " layer " + std::to_string(l) +
                   " differs";
    }
    return "";
}

} // namespace

std::string
compareModels(const DlrmModel &a, const DlrmModel &b)
{
    if (a.tables().size() != b.tables().size())
        return "table count differs";
    for (std::size_t t = 0; t < a.tables().size(); ++t) {
        const auto &ta = a.tables()[t];
        const auto &tb = b.tables()[t];
        if (ta.rows() != tb.rows() || ta.dim() != tb.dim())
            return "table " + std::to_string(t) + " shape differs";
        const std::size_t row_bytes = ta.dim() * sizeof(float);
        for (std::uint64_t r = 0; r < ta.rows(); ++r)
            if (std::memcmp(ta.rowPtr(r), tb.rowPtr(r), row_bytes) != 0)
                return "table " + std::to_string(t) + " row " +
                       std::to_string(r) + " differs";
    }
    std::string diff = compareMlps("bottom MLP", a.bottomMlp(),
                                   b.bottomMlp());
    if (diff.empty())
        diff = compareMlps("top MLP", a.topMlp(), b.topMlp());
    return diff;
}

std::string
checkCompletions(const std::vector<RequestOutcome> &outcomes,
                 std::uint64_t engine_served)
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].done)
            return "request " + std::to_string(i) + " never completed";
        if (outcomes[i].status != lazydp::ServeResult::Status::Ok)
            return "request " + std::to_string(i) + " ended " +
                   lazydp::serveStatusName(outcomes[i].status);
    }
    if (engine_served != outcomes.size())
        return "engine served " + std::to_string(engine_served) +
               " requests, client submitted " +
               std::to_string(outcomes.size());
    return "";
}

float
referenceScore(const DlrmModel &model, const lazydp::ServeQuery &query,
               ScoreScratch &scratch)
{
    const auto &cfg = model.config();
    lazydp::MiniBatch &mb = scratch.batch;
    if (mb.batchSize != 1)
        mb.resize(1, cfg.numTables, cfg.pooling, cfg.numDense);
    std::memcpy(mb.dense.data(), query.dense.data(),
                cfg.numDense * sizeof(float));
    // A one-example batch has the query's [table][slot] layout.
    std::memcpy(mb.indices.data(), query.indices.data(),
                query.indices.size() * sizeof(std::uint32_t));
    model.forward(mb, scratch.logits, scratch.ws,
                  lazydp::ExecContext::serial());
    const float z = scratch.logits.at(0, 0);
    return 1.0f / (1.0f + std::exp(-z));
}

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

} // namespace dpbench
