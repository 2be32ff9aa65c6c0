#include "net/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.h"

namespace sompi::net {

namespace {

/// Adds the monotonic growth of `now` over `folded` to `aggregate`, then
/// marks it folded. Lets stats() read live codec counters without racing the
/// reader thread that owns the decoder.
void fold_codec_delta(WireCodecStats* aggregate, WireCodecStats* folded,
                      const WireCodecStats& now) {
  WireCodecStats delta = now;
  delta.frames_decoded -= folded->frames_decoded;
  delta.bytes_consumed -= folded->bytes_consumed;
  delta.bad_magic -= folded->bad_magic;
  delta.short_frame -= folded->short_frame;
  delta.overlong_frame -= folded->overlong_frame;
  delta.crc_mismatch -= folded->crc_mismatch;
  delta.unknown_version -= folded->unknown_version;
  delta.unknown_type -= folded->unknown_type;
  delta.bad_payload -= folded->bad_payload;
  *aggregate += delta;
  *folded = now;
}

}  // namespace

PlanServerLoop::PlanServerLoop(ShardedPlanService* tier, ServerConfig config)
    : tier_(tier), config_(config) {
  SOMPI_REQUIRE(tier_ != nullptr);
  SOMPI_REQUIRE(config_.workers >= 1);
  SOMPI_REQUIRE(config_.max_in_flight >= 1);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

PlanServerLoop::~PlanServerLoop() { shutdown(); }

PipeEndpoint* PlanServerLoop::connect(std::size_t landing_shard) {
  SOMPI_REQUIRE(landing_shard < tier_->shard_count());
  std::lock_guard<std::mutex> lock(mutex_);
  SOMPI_REQUIRE_MSG(accepting_, "connect() after shutdown()");
  auto connection = std::make_unique<Connection>();
  connection->landing_shard = landing_shard;
  DuplexPipe::Config pipe_config;
  pipe_config.capacity_bytes = config_.pipe_capacity_bytes;
  pipe_config.faults = config_.faults;
  pipe_config.label =
      "conn" + std::to_string(connections_accepted_.load()) + "s" + std::to_string(landing_shard);
  connection->pipe = std::make_unique<DuplexPipe>(pipe_config);
  connection->server_end = &connection->pipe->b();
  PipeEndpoint* client_end = &connection->pipe->a();
  Connection* raw = connection.get();
  connections_.push_back(std::move(connection));
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  raw->reader = std::thread([this, raw] { reader_loop(raw); });
  return client_end;
}

void PlanServerLoop::reader_loop(Connection* connection) {
  FrameDecoder decoder(FrameDecoder::Config{config_.max_payload_bytes});
  std::vector<std::pair<std::uint64_t, PlanRequest>> arrivals;
  std::string hit_bytes;      // inline-answered warm hits, one write per chunk
  std::uint64_t hit_frames = 0;
  const auto flush_hits = [&] {
    if (hit_bytes.empty()) return;
    send(connection, hit_bytes, hit_frames);
    hit_bytes.clear();
    hit_frames = 0;
  };
  for (;;) {
    const std::string chunk = connection->server_end->read(65536);
    if (chunk.empty()) break;  // closed (peer, chaos, or shutdown) and drained
    decoder.feed(chunk);
    arrivals.clear();
    while (auto frame = decoder.next()) {
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      if (frame->type == MsgType::kPlanRequest) {
        PlanRequest request;
        if (!decode_plan_request(frame->payload, &request)) {
          decoder.note_bad_payload();
          write_error(connection, frame->request_id, "malformed plan_request payload");
          continue;
        }
        // Warm-hit fast path: an epoch-current cached plan is answered
        // right here in the reader — no in-flight budget, no worker
        // handoff. Everything else becomes a job for the workers below.
        if (std::optional<PlanResponse> hit =
                tier_->try_serve_hit(connection->landing_shard, request)) {
          hit_bytes +=
              encode_frame(MsgType::kPlanResponse, frame->request_id,
                           encode_plan_response(*hit));
          ++hit_frames;
          continue;
        }
        arrivals.emplace_back(frame->request_id, std::move(request));
        continue;
      }
      // Per-connection order is preserved: a non-plan frame flushes the
      // requests gathered so far before it is answered.
      flush_hits();
      admit_plan_requests(connection, &arrivals);
      on_frame(connection, &decoder, *frame);
    }
    flush_hits();
    admit_plan_requests(connection, &arrivals);
    std::lock_guard<std::mutex> lock(mutex_);
    fold_codec_delta(&codec_stats_, &connection->folded, decoder.stats());
  }
  decoder.finish();
  std::lock_guard<std::mutex> lock(mutex_);
  fold_codec_delta(&codec_stats_, &connection->folded, decoder.stats());
}

void PlanServerLoop::admit_plan_requests(
    Connection* connection, std::vector<std::pair<std::uint64_t, PlanRequest>>* arrivals) {
  if (arrivals->empty()) return;
  std::size_t admitted = 0;
  {
    // One lock acquisition and one wakeup for the burst. The budget bounds
    // the queue, so admission never blocks.
    std::lock_guard<std::mutex> lock(mutex_);
    if (accepting_) admitted = std::min(arrivals->size(), config_.max_in_flight - in_flight_);
    for (std::size_t i = 0; i < admitted; ++i)
      jobs_.push_back(Job{connection, (*arrivals)[i].first, std::move((*arrivals)[i].second)});
    in_flight_ += admitted;
  }
  if (admitted == 1)
    work_cv_.notify_one();
  else if (admitted > 1)
    work_cv_.notify_all();
  // Whatever exceeded the budget (or arrived after shutdown() began) is shed
  // explicitly at the wire door.
  for (std::size_t i = admitted; i < arrivals->size(); ++i) {
    wire_sheds_.fetch_add(1, std::memory_order_relaxed);
    PlanResponse shed;
    shed.outcome = PlanOutcome::kShed;
    shed.epoch = tier_->fanout().epoch();
    send(connection,
         encode_frame(MsgType::kPlanResponse, (*arrivals)[i].first, encode_plan_response(shed)),
         1);
  }
  arrivals->clear();
}

void PlanServerLoop::on_frame(Connection* connection, FrameDecoder* decoder,
                              const WireFrame& frame) {
  switch (frame.type) {
    case MsgType::kPlanRequest:
      return;  // handled by reader_loop / admit_plan_requests
    case MsgType::kStatsRequest: {
      if (!decode_stats_request(frame.payload)) {
        decoder->note_bad_payload();
        write_error(connection, frame.request_id, "malformed stats_request payload");
        return;
      }
      send(connection,
           encode_frame(MsgType::kStatsResponse, frame.request_id,
                        encode_stats_response(stats())),
           1);
      return;
    }
    case MsgType::kPlanResponse:
    case MsgType::kStatsResponse:
    case MsgType::kErrorResponse:
      // Known frame types that only ever flow server→client.
      write_error(connection, frame.request_id, "unexpected message type at server");
      return;
  }
}

void PlanServerLoop::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return !accepting_ || !jobs_.empty(); });
      // Shutdown admits nothing more, so an empty queue stays empty.
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    try {
      const PlanResponse response = tier_->serve_on(job.connection->landing_shard, job.request);
      send(job.connection,
           encode_frame(MsgType::kPlanResponse, job.request_id, encode_plan_response(response)),
           1);
    } catch (const std::exception& e) {
      write_error(job.connection, job.request_id, e.what());
    } catch (...) {
      write_error(job.connection, job.request_id, "unknown solve failure");
    }
    // The budget unit is released only once the response is written, so
    // shutdown's wait for in_flight_ == 0 covers the write too.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
}

void PlanServerLoop::send(Connection* connection, const std::string& bytes,
                          std::uint64_t frames) {
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  // Counter before bytes (everywhere a response goes out): a client that has
  // observed a response must find it already counted in stats(); a failed
  // write (chaos drop, closed pipe) nets the count back to zero.
  responses_sent_.fetch_add(frames, std::memory_order_relaxed);
  if (!connection->server_end->write(bytes))
    responses_sent_.fetch_sub(frames, std::memory_order_relaxed);
}

void PlanServerLoop::write_error(Connection* connection, std::uint64_t request_id,
                                 std::string_view message) {
  wire_errors_.fetch_add(1, std::memory_order_relaxed);
  send(connection,
       encode_frame(MsgType::kErrorResponse, request_id, encode_error_response(message)), 1);
}

void PlanServerLoop::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) return;  // second call: already shut down
    accepting_ = false;
  }
  work_cv_.notify_all();  // idle workers exit; busy ones finish the queue
  // 1. Stop intake: readers drain their buffered requests, then exit.
  std::vector<Connection*> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& connection : connections_) connections.push_back(connection.get());
  }
  for (Connection* connection : connections) connection->server_end->shutdown_read();
  for (Connection* connection : connections)
    if (connection->reader.joinable()) connection->reader.join();
  // 2. Everything admitted is answered — the completeness law: the queue is
  //    empty and no worker holds a job, so each admitted request has its
  //    response written before any close.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  // 3. Only now do connections close (clients still drain buffered frames).
  for (Connection* connection : connections) connection->server_end->close();
  for (std::thread& worker : workers_) worker.join();
}

WireTierStats PlanServerLoop::stats() const {
  const ShardedStats tier = tier_->stats();
  WireTierStats s;
  s.epoch = tier.total.epoch;
  s.requests = tier.total.requests;
  s.hits = tier.total.hits;
  s.solves = tier.total.solves;
  s.dedup_joins = tier.total.dedup_joins;
  s.sheds = tier.total.sheds;
  s.routed = tier.routed;
  s.sprayed = tier.sprayed;
  s.forwarded = tier.forwarded;
  s.duplicate_solves = tier.duplicate_solves;
  s.replan_count = tier.total.replan_count;
  s.connections = connections_accepted_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.wire_sheds = wire_sheds_.load(std::memory_order_relaxed);
  s.wire_errors = wire_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.frames_rejected = codec_stats_.rejects();
  }
  return s;
}

}  // namespace sompi::net
