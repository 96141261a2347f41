#include "serve_client.h"

namespace dpbench {

using lazydp::ServeResult;

namespace {

/** A request still open this long after its send time never completes. */
constexpr auto kGiveUp = std::chrono::seconds(30);

} // namespace

OpenLoopClient::OpenLoopClient(lazydp::ServeEngine &engine,
                               const lazydp::ModelSnapshotStore &store,
                               const std::vector<lazydp::ServeQuery> &queries,
                               double rate, std::size_t max_requests,
                               std::size_t verify_every)
    : engine_(engine), store_(store), queries_(queries), rate_(rate),
      verifyEvery_(verify_every), handles_(max_requests),
      scheduled_(max_requests), sentAt_(max_requests)
{
}

OpenLoopClient::~OpenLoopClient()
{
    if (sender_.joinable() || collector_.joinable())
        finish();
}

void
OpenLoopClient::start()
{
    const Clock::time_point zero = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / rate_);
    for (std::size_t i = 0; i < scheduled_.size(); ++i)
        scheduled_[i] =
            zero + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
    sender_ = std::thread([this] { sendLoop(); });
    collector_ = std::thread([this] { collectLoop(); });
}

void
OpenLoopClient::waitSent()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return sendDone_; });
}

ClientReport
OpenLoopClient::finish()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopSending_ = true;
    }
    cv_.notify_all();
    if (sender_.joinable())
        sender_.join();
    if (collector_.joinable())
        collector_.join();
    return report_;
}

void
OpenLoopClient::sendLoop()
{
    for (std::size_t i = 0; i < handles_.size(); ++i) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            // Sleep until the request is due, waking early only to stop.
            if (cv_.wait_until(lock, scheduled_[i],
                               [this] { return stopSending_; }))
                break;
        }
        sentAt_[i] = Clock::now();
        handles_[i] = engine_.submit(queries_[i % queries_.size()]);
        {
            std::lock_guard<std::mutex> lock(mu_);
            submitted_ = i + 1;
        }
        cv_.notify_all();
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        sendDone_ = true;
    }
    cv_.notify_all();
}

void
OpenLoopClient::collectLoop()
{
    ScoreScratch scratch;
    for (std::size_t i = 0;; ++i) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [&] { return submitted_ > i || sendDone_; });
            if (submitted_ <= i)
                break;
        }
        // Poll rather than wait(): a request the engine never completes
        // must fail the run, not hang it. Latency is stamped by the
        // serve lane at completion, so the poll period does not bias it.
        const lazydp::PendingRequestPtr &h = handles_[i];
        while (!h->done() && Clock::now() - scheduled_[i] < kGiveUp)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        RequestOutcome outcome;
        outcome.done = h->done();
        if (!outcome.done) {
            report_.outcomes.push_back(outcome);
            continue;
        }
        const ServeResult res = h->wait();
        outcome.status = res.status;
        report_.outcomes.push_back(outcome);
        report_.lateMs.push_back(
            std::chrono::duration<double, std::milli>(sentAt_[i] -
                                                      scheduled_[i])
                .count());
        if (res.status != ServeResult::Status::Ok)
            continue;
        report_.latencyMs.push_back(
            std::chrono::duration<double, std::milli>(
                h->completedAt() - scheduled_[i])
                .count());
        if (i % verifyEvery_ != 0)
            continue;
        // Re-score only while the named version is still the current
        // one: the store keeps no older versions for us to read.
        const auto snap = store_.current();
        if (snap == nullptr || snap->version != res.version)
            continue;
        const float want =
            referenceScore(snap->model, queries_[i % queries_.size()],
                           scratch);
        if (sameBits(want, res.score) && snap->iteration == res.iteration) {
            ++report_.verified;
        } else if (report_.mismatched++ == 0) {
            report_.firstMismatch =
                "request " + std::to_string(i) + " version " +
                std::to_string(res.version) + ": served " +
                std::to_string(res.score) + ", reference " +
                std::to_string(want);
        }
    }
}

} // namespace dpbench
