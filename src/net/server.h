// PlanServerLoop — the wire-serving front end of the sharded plan tier
// (DESIGN.md §15).
//
//   client ── DuplexPipe ──► per-connection reader ── warm hit ──► write
//                                   │ (decode, budget)
//                                   ▼ miss
//                              job queue ──► worker: serve_on ──► write
//
// One reader thread per connection feeds a FrameDecoder and classifies every
// frame. An epoch-current cached plan is answered inline by the reader; every
// other plan request becomes a job (connection, client request id, request)
// on the loop's own queue, and one of `workers` threads serves it and writes
// the response itself, under the connection's write mutex. Responses are
// correlated by the request id the client chose and can complete out of
// submission order — the id is the contract, not ordering. A bounded
// in-flight budget turns overload into explicit kShed responses at the wire
// door, mirroring the tier's own admission control.
//
// The connection a request arrives on IS its landing shard: requests are
// served with serve_on(connection.landing), so the tier's routed / sprayed /
// forwarded ledger measures the CLIENT's routing quality — a router-aware
// client lands every key on its ring home and the forwarding counter stays
// 0; a spray client pays one forward per misrouted request.
//
// Shutdown obeys the drain-on-shutdown completeness law, tested as such:
// every request admitted before shutdown() gets exactly one response frame
// written before its connection closes. (Reads are shut first, the readers
// join, the queue empties and the last worker finishes its write, and only
// then do connections close.)
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/pipe.h"
#include "net/wire.h"
#include "service/sharded/sharded_service.h"

namespace sompi::net {

struct ServerConfig {
  /// Worker threads serving the plan requests that miss the cache.
  std::size_t workers = 4;
  /// Plan requests admitted but not yet answered, across all connections
  /// (this also bounds the job queue); the next one past this is shed with
  /// an explicit kShed response.
  std::size_t max_in_flight = 256;
  /// Per-direction pipe buffer.
  std::size_t pipe_capacity_bytes = 1 << 16;
  /// Frames above this payload size are rejected as overlong.
  std::size_t max_payload_bytes = 1 << 20;
  /// Optional chaos injected into every accepted connection's pipe.
  fi::FaultInjector* faults = nullptr;
};

class PlanServerLoop {
 public:
  /// `tier` is borrowed and must outlive the loop.
  PlanServerLoop(ShardedPlanService* tier, ServerConfig config);
  /// Calls shutdown() (drains, then closes).
  ~PlanServerLoop();

  PlanServerLoop(const PlanServerLoop&) = delete;
  PlanServerLoop& operator=(const PlanServerLoop&) = delete;

  /// Accepts a new connection whose requests land on `landing_shard` (the
  /// shard whose listener the client dialed) and returns the CLIENT side of
  /// its pipe. The endpoint stays valid until the loop is destroyed.
  PipeEndpoint* connect(std::size_t landing_shard);

  /// Graceful drain: stop reading, answer everything already admitted, then
  /// close every connection. Idempotent.
  void shutdown();

  /// Aggregate tier + wire counters (the payload of a StatsResponse).
  WireTierStats stats() const;

  ShardedPlanService* tier() { return tier_; }

 private:
  struct Connection {
    std::size_t landing_shard = 0;
    std::unique_ptr<DuplexPipe> pipe;
    PipeEndpoint* server_end = nullptr;  ///< owned by pipe
    std::mutex write_mutex;              ///< workers and reader both write
    std::thread reader;
    /// Decoder counters already folded into the loop aggregate (the reader
    /// folds deltas after every chunk, so stats() is live and race-free).
    WireCodecStats folded;
  };

  /// A plan request admitted past the warm-hit probe, awaiting a worker.
  struct Job {
    Connection* connection = nullptr;
    std::uint64_t request_id = 0;  ///< the client's id, echoed in the response
    PlanRequest request;
  };

  void reader_loop(Connection* connection);
  void worker_loop();
  void on_frame(Connection* connection, FrameDecoder* decoder, const WireFrame& frame);
  /// Bulk-admits the plan requests gathered from one read chunk: one budget
  /// check + one enqueue (one worker wakeup) for the whole burst;
  /// whatever exceeds the in-flight budget is shed explicitly. Clears
  /// `arrivals`.
  void admit_plan_requests(Connection* connection,
                           std::vector<std::pair<std::uint64_t, PlanRequest>>* arrivals);
  /// Writes `frames` encoded response frames on `connection`, counting them
  /// in responses_sent_ before the bytes can reach the peer.
  void send(Connection* connection, const std::string& bytes, std::uint64_t frames);
  void write_error(Connection* connection, std::uint64_t request_id,
                   std::string_view message);

  ShardedPlanService* tier_;
  ServerConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for a job (or shutdown)
  std::condition_variable idle_cv_;  ///< shutdown waits for in_flight_ == 0
  std::vector<std::unique_ptr<Connection>> connections_;
  std::deque<Job> jobs_;
  /// Admitted plan requests not yet answered: queued jobs plus the ones a
  /// worker is serving. Released only after the response is written.
  std::size_t in_flight_ = 0;
  /// Cleared once by shutdown(): no more connections, no more admissions.
  bool accepting_ = true;

  // Wire counters (tier counters live in the tier).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> wire_sheds_{0};
  std::atomic<std::uint64_t> wire_errors_{0};
  /// Codec counters aggregated across all connections (guarded by mutex_;
  /// readers fold their decoder's deltas in after every chunk).
  WireCodecStats codec_stats_;

  std::vector<std::thread> workers_;
};

}  // namespace sompi::net
