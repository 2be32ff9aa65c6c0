// PlanClient — the router-aware wire client (DESIGN.md §15).
//
// A client opens ONE connection per shard and builds its OWN ShardRouter
// from the tier's (shards, vnodes, salt) — routing is a pure function of
// that config, so an independently constructed ring agrees with the server's
// on every key. In kRouted mode each request is canonicalized locally and
// sent down the connection of its ring home: it lands where it lives, the
// tier's forwarding counter stays 0, and the hot path never pays a cross-
// shard hop. kSpray round-robins instead (what a router-oblivious load
// balancer does) — every misrouted request shows up in the tier's
// forwarded counter, which is exactly how the routing-quality gate measures
// the difference.
//
// The API mirrors the in-process service: blocking plan() and a
// submit/harvest/drain async-batch surface. Correlation is by client-chosen
// request id; responses may arrive in any order and a dropped connection
// (chaos or server shutdown) fails only the requests outstanding on it —
// each becomes an error completion, nothing blocks forever.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/server.h"
#include "net/wire.h"
#include "service/sharded/shard_router.h"

namespace sompi::net {

enum class ClientMode {
  kRouted,  ///< ring-route each request to its home shard's connection
  kSpray,   ///< round-robin across connections (router-oblivious baseline)
};

struct ClientCompletion {
  std::uint64_t request_id = 0;
  PlanResponse response;
  /// Non-empty iff the request failed at the wire (error frame, malformed
  /// response, dropped connection); response.plan is null then.
  std::string error;
};

class PlanClient {
 public:
  /// Dials one connection per shard on `server` (borrowed; must outlive the
  /// client or be shut down first — a shutdown server just fails requests).
  PlanClient(PlanServerLoop* server, ClientMode mode);
  ~PlanClient();

  PlanClient(const PlanClient&) = delete;
  PlanClient& operator=(const PlanClient&) = delete;

  /// Blocking round trip. Throws std::runtime_error on a wire failure.
  PlanResponse plan(const PlanRequest& request);

  /// Async batch surface: submit without waiting, then drain() and
  /// harvest() — every submitted id comes back exactly once.
  std::uint64_t submit(const PlanRequest& request);
  std::vector<std::uint64_t> submit_batch(const std::vector<PlanRequest>& requests);
  /// Finished completions, each exactly once (0 = all available). Non-blocking.
  std::vector<ClientCompletion> harvest(std::size_t max = 0);
  /// Blocks until every submitted request has a completion waiting.
  void drain();

  /// Server-side tier + wire counters via a StatsRequest round trip.
  /// Throws std::runtime_error on a wire failure.
  WireTierStats server_stats();

  /// This client's codec rejects (torn/dropped responses under chaos).
  WireCodecStats codec_stats() const;

  std::size_t connection_count() const { return connections_.size(); }
  const ShardRouter& router() const { return router_; }

  /// The connection index request would be sent on (test/diagnostic surface;
  /// does not consume a request id or round-robin slot).
  std::size_t pick_shard(const PlanRequest& request) const;

 private:
  struct Connection {
    PipeEndpoint* endpoint = nullptr;  ///< owned by the server loop
    std::mutex write_mutex;
    std::thread reader;
    /// Request ids sent on this connection and not yet completed; a drop
    /// fails exactly these. Guarded by the client mutex_.
    std::set<std::uint64_t> outstanding;
    WireCodecStats folded;  ///< decoder counters already in codec_stats_
  };

  void reader_loop(std::size_t index);
  /// Parks a completion and wakes waiters. Guarded internally.
  void complete(std::uint64_t request_id, ClientCompletion completion);
  /// Bulk variant: parks every completion under ONE lock acquisition and
  /// wakes waiters once — the reader calls this per read chunk, not per
  /// frame, so a batch of responses costs one wakeup instead of N.
  void complete_many(std::vector<ClientCompletion> completions);
  std::uint64_t send(std::size_t shard, MsgType type, std::string_view payload);
  /// Ring home of a request, memoized by its encoded payload bytes: repeat
  /// requests (the warm-hit common case) skip re-canonicalization and pay a
  /// hash lookup instead. Byte-different encodings of the same canonical
  /// request simply occupy two memo slots — both map to the same home.
  std::size_t route_for(const std::string& payload, const PlanRequest& request) const;
  /// Waits for a specific id (blocking plan / stats path), removing it from
  /// the harvest stream.
  ClientCompletion await(std::uint64_t request_id);

  ShardRouter router_;
  ClientMode mode_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> spray_cursor_{0};

  /// encoded PlanRequest payload → ring home (see route_for). Guarded by
  /// route_mutex_; bounded by wholesale clear at kRouteMemoCapacity.
  static constexpr std::size_t kRouteMemoCapacity = 4096;
  mutable std::mutex route_mutex_;
  mutable std::unordered_map<std::string, std::size_t> route_memo_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::map<std::uint64_t, ClientCompletion> done_;
  /// Stats responses route here instead of done_ (different payload type).
  std::map<std::uint64_t, WireTierStats> stats_done_;
  std::set<std::uint64_t> awaited_;  ///< ids claimed by await(); skip harvest
  WireCodecStats codec_stats_;
  bool closing_ = false;
};

}  // namespace sompi::net
