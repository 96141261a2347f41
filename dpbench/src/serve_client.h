/**
 * @file
 * The benchmark's own open-loop scoring client. A sender thread submits
 * queries to ServeEngine::submit on a fixed schedule, whether or not
 * earlier requests have completed; a collector thread waits for each
 * completion in order, times it from the request's scheduled send time,
 * and re-scores a sample against the snapshot version the response
 * names.
 */

#ifndef DPBENCH_SERVE_CLIENT_H
#define DPBENCH_SERVE_CLIENT_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "serve/serve_engine.h"

namespace dpbench {

/** What the client saw, collected after finish(). */
struct ClientReport
{
    std::vector<double> latencyMs; //!< scheduled send -> completion (Ok)
    std::vector<double> lateMs;    //!< scheduled send -> actual submit
    std::vector<RequestOutcome> outcomes;
    std::uint64_t verified = 0;   //!< sampled scores re-scored equal
    std::uint64_t mismatched = 0; //!< sampled scores that differed
    std::string firstMismatch;
};

/** Fixed-rate open-loop client; see file comment. */
class OpenLoopClient
{
  public:
    /**
     * @param engine engine to submit to (must outlive the client)
     * @param store the engine's snapshot store (for re-scoring)
     * @param queries query pool, cycled in order
     * @param rate requests per second
     * @param max_requests stop after this many submissions
     * @param verify_every re-score every n-th Ok response
     */
    OpenLoopClient(lazydp::ServeEngine &engine,
                   const lazydp::ModelSnapshotStore &store,
                   const std::vector<lazydp::ServeQuery> &queries,
                   double rate, std::size_t max_requests,
                   std::size_t verify_every);

    /** Stops sending and joins both threads. */
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    /** Start sending at the schedule's time zero (now). */
    void start();

    /** Block until all max_requests requests have been submitted. */
    void waitSent();

    /**
     * Stop sending (a request already due is still sent), wait until
     * every submitted request completed or was given up on 30 s after
     * its send time, and return the report.
     */
    ClientReport finish();

  private:
    using Clock = std::chrono::steady_clock;

    void sendLoop();
    void collectLoop();

    lazydp::ServeEngine &engine_;
    const lazydp::ModelSnapshotStore &store_;
    const std::vector<lazydp::ServeQuery> &queries_;
    const double rate_;
    const std::size_t verifyEvery_;

    // Slots are written by the sender before `submitted_` covers them
    // and read by the collector only after; never resized once started.
    std::vector<lazydp::PendingRequestPtr> handles_;
    std::vector<Clock::time_point> scheduled_;
    std::vector<Clock::time_point> sentAt_;

    std::mutex mu_; // guards submitted_, stopSending_, sendDone_
    std::condition_variable cv_;
    std::size_t submitted_ = 0;
    bool stopSending_ = false;
    bool sendDone_ = false;

    ClientReport report_;
    std::thread sender_;
    std::thread collector_;
};

} // namespace dpbench

#endif // DPBENCH_SERVE_CLIENT_H
