#include "exp/fabric.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <sys/socket.h>
#include <thread>

#include "exp/json.h"
#include "exp/runner.h"
#include "net/frame.h"
#include "util/rng.h"

namespace stbpu::exp {

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

struct WorkerServer::Impl {
  WorkerOptions opts;
  net::TcpListener listener;
  std::thread thread;
  std::atomic<bool> stop_flag{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<int> active_fd{-1};
  mutable std::mutex chaos_mutex;
  std::optional<net::ChaosEngine> chaos;

  void log(const char* fmt, const std::string& detail) const {
    if (opts.verbose) {
      std::fprintf(stderr, "stbpu_bench worker[:%u]: ", listener.port());
      std::fprintf(stderr, fmt, detail.c_str());
      std::fputc('\n', stderr);
    }
  }

  void serve();
  void handle(net::TcpConn conn);
  bool send_response(net::TcpConn& conn, const std::string& body,
                     const net::ChaosVerdict& verdict);
};

namespace {

/// Frame-level error reply; best-effort (the peer may already be gone).
void send_error(net::TcpConn& conn, const std::string& message, int timeout_ms) {
  std::string err;
  net::send_frame(conn, net::FrameType::kError, message,
                  net::mono_now_ms() + timeout_ms, err);
}

}  // namespace

bool WorkerServer::Impl::send_response(net::TcpConn& conn, const std::string& body,
                                       const net::ChaosVerdict& verdict) {
  std::string wire = net::encode_frame(net::FrameType::kResponse, body);
  std::size_t limit = wire.size();
  using net::ChaosAction;
  if (verdict.action == ChaosAction::kCorruptFlip && !body.empty()) {
    // Flip one payload byte: the header still declares the original
    // checksum, so the coordinator must detect and reject the frame.
    const std::size_t at = net::kFrameHeaderBytes +
                           static_cast<std::size_t>(verdict.detail *
                                                    static_cast<double>(body.size()));
    wire[std::min(at, wire.size() - 1)] ^= 0x5A;
  } else if (verdict.action == ChaosAction::kCorruptTruncate) {
    // Declare the full length but stop short: the coordinator sees EOF
    // mid-payload.
    limit = net::kFrameHeaderBytes + body.size() / 2;
  } else if (verdict.action == ChaosAction::kDropMidResponse) {
    limit = wire.size() / 2;
  }

  const std::int64_t deadline =
      net::mono_now_ms() + opts.response_timeout_ms + verdict.stall_ms;
  std::string err;
  if (verdict.stall_ms > 0 && limit > net::kFrameHeaderBytes) {
    // Mid-stream stall: ship the first half, sleep, ship the rest. The
    // coordinator's deadline has to ride this out (or expire — both paths
    // are exercised by tests).
    const std::size_t half = limit / 2;
    if (!conn.send_all(wire.data(), half, deadline, err)) return false;
    net::sleep_ms(verdict.stall_ms);
    if (stop_flag.load()) return false;
    if (!conn.send_all(wire.data() + half, limit - half, deadline, err)) return false;
  } else {
    if (!conn.send_all(wire.data(), limit, deadline, err)) return false;
  }
  return limit == wire.size() && verdict.action == ChaosAction::kNone;
}

void WorkerServer::Impl::handle(net::TcpConn conn) {
  net::ChaosVerdict verdict;
  if (chaos.has_value()) {
    const std::lock_guard<std::mutex> lock(chaos_mutex);
    verdict = chaos->next();
    if (verdict.action != net::ChaosAction::kNone || verdict.stall_ms > 0) {
      log("chaos: %s", std::string(net::chaos_action_name(verdict.action)) +
                           (verdict.stall_ms > 0
                                ? " stall:" + std::to_string(verdict.stall_ms) + "ms"
                                : ""));
    }
  }
  using net::ChaosAction;
  if (verdict.action == ChaosAction::kDropEarly) return;

  net::FrameType type{};
  std::string payload, err;
  if (!net::recv_frame(conn, type, payload,
                       net::mono_now_ms() + opts.request_timeout_ms, err)) {
    log("bad request: %s", err);
    return;
  }
  if (type != net::FrameType::kRequest) {
    send_error(conn, "expected a request frame", opts.response_timeout_ms);
    return;
  }

  JsonValue doc;
  ExperimentSpec spec;
  if (!json_parse(payload, doc, err) || !ExperimentSpec::from_json(doc, spec, err)) {
    log("bad spec: %s", err);
    send_error(conn, "bad shard spec: " + err, opts.response_timeout_ms);
    return;
  }
  const Scenario* scenario = find_scenario(spec.scenario);
  if (scenario == nullptr) {
    send_error(conn, "unknown scenario '" + spec.scenario + "'",
               opts.response_timeout_ms);
    return;
  }
  if (opts.jobs != 0) spec.jobs = opts.jobs;

  if (verdict.action == ChaosAction::kDropAfterRequest) return;

  log("running shard %s",
      std::to_string(spec.shard_index) + "/" + std::to_string(spec.shard_count) +
          " of " + spec.scenario);
  RunOutcome outcome;
  if (!run_experiment(*scenario, spec, outcome, err)) {
    log("run failed: %s", err);
    send_error(conn, "shard execution failed: " + err, opts.response_timeout_ms);
    return;
  }
  const std::string body = shard_json(*scenario, spec, outcome);
  if (send_response(conn, body, verdict)) {
    served.fetch_add(1);
    log("served shard %s", std::to_string(spec.shard_index) + "/" +
                               std::to_string(spec.shard_count) + " (" +
                               std::to_string(body.size()) + " bytes)");
  }
}

void WorkerServer::Impl::serve() {
  while (!stop_flag.load()) {
    if (opts.max_requests != 0 && accepted.load() >= opts.max_requests) break;
    net::TcpConn conn;
    std::string err;
    const int r = listener.accept(conn, 100, err);
    if (r == 0) continue;
    if (r < 0) break;
    accepted.fetch_add(1);
    active_fd.store(conn.fd());
    handle(std::move(conn));
    active_fd.store(-1);
  }
  listener.close();
}

WorkerServer::WorkerServer() : impl_(std::make_unique<Impl>()) {}

WorkerServer::~WorkerServer() { stop(); }

bool WorkerServer::start(const WorkerOptions& opts, std::string& err) {
  register_builtin_scenarios();
  impl_->opts = opts;
  if (!impl_->listener.listen(opts.port, err)) return false;
  if (opts.chaos.enabled()) impl_->chaos.emplace(opts.chaos);
  if (!opts.port_file.empty() &&
      !write_file(opts.port_file, std::to_string(impl_->listener.port()) + "\n")) {
    err = "cannot write port file '" + opts.port_file + "'";
    impl_->listener.close();
    return false;
  }
  impl_->thread = std::thread([this] { impl_->serve(); });
  return true;
}

void WorkerServer::stop() {
  if (impl_ == nullptr) return;
  impl_->stop_flag.store(true);
  // Kill any in-flight connection so a coordinator blocked on this worker
  // sees EOF immediately — this is the "worker dies mid-shard" semantics.
  const int fd = impl_->active_fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (impl_->thread.joinable()) impl_->thread.join();
}

void WorkerServer::wait() {
  if (impl_->thread.joinable()) impl_->thread.join();
}

std::uint16_t WorkerServer::port() const { return impl_->listener.port(); }

std::uint64_t WorkerServer::served() const { return impl_->served.load(); }

std::uint64_t WorkerServer::accepted() const { return impl_->accepted.load(); }

std::vector<net::ChaosVerdict> WorkerServer::chaos_log() const {
  const std::lock_guard<std::mutex> lock(impl_->chaos_mutex);
  return impl_->chaos.has_value() ? impl_->chaos->log()
                                  : std::vector<net::ChaosVerdict>{};
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

namespace {

enum class AttemptOutcome : std::uint8_t {
  kOk,
  kConnectFailure,
  kTimeout,
  kTransport,        ///< EOF / reset / bad frame mid-exchange
  kRejectedPayload,  ///< checksum or shard-validation failure
  kWorkerError,      ///< explicit error frame — non-retryable
};

struct ShardState {
  ExperimentSpec spec;               ///< the shard's assignment (shard i/N)
  std::string request_json;          ///< spec serialized for the wire
  std::vector<std::size_t> owned;    ///< grid indices this shard must cover
  std::string result;                ///< winning shard JSON text
  bool done = false;
  int attempts = 0;                  ///< remote attempts started
  int in_flight = 0;
  std::int64_t started_ms = 0;       ///< newest attempt's start (straggler pick)
};

struct Coordinator {
  std::mutex mutex;
  const Scenario* scenario = nullptr;
  const DispatchOptions* opts = nullptr;
  std::vector<ShardState> shards;
  std::deque<std::uint32_t> pending;
  std::size_t done_count = 0;
  bool fatal = false;
  std::string fatal_err;
  DispatchStats stats;

  void event(std::string text) { stats.events.push_back(std::move(text)); }
};

/// Deterministic backoff: exponential in the attempt number with +/-50%
/// jitter that depends only on (seed, shard, attempt) — reproducible
/// recovery schedules regardless of thread interleaving.
std::int64_t backoff_ms(const DispatchOptions& opts, std::uint32_t shard, int attempt) {
  const int exp = std::min(attempt > 0 ? attempt - 1 : 0, 20);
  std::int64_t base = static_cast<std::int64_t>(opts.backoff_base_ms) << exp;
  base = std::min<std::int64_t>(base, opts.backoff_max_ms);
  std::uint64_t state = opts.jitter_seed ^ (static_cast<std::uint64_t>(shard) << 32) ^
                        static_cast<std::uint64_t>(attempt);
  const std::uint64_t draw = util::splitmix64(state);
  const double jitter = 0.5 + static_cast<double>(draw >> 11) * 0x1.0p-53;  // [0.5,1.5)
  const auto ms = static_cast<std::int64_t>(static_cast<double>(base) * jitter);
  return ms > 0 ? ms : 1;
}

/// Validate a worker's response against the shard it was assigned: it must
/// be a well-formed shard file for the same spec (modulo jobs, which is an
/// execution detail) covering exactly the shard's grid indices. Anything
/// else is a rejected payload — retried, never merged.
bool validate_response(const ShardState& shard, const std::string& payload,
                       std::string& err) {
  JsonValue doc;
  if (!json_parse(payload, doc, err)) {
    err = "response does not parse: " + err;
    return false;
  }
  const JsonValue* format = doc.find("format");
  if (format == nullptr || format->text() != "stbpu-shard-v1") {
    err = "response is not a stbpu shard file";
    return false;
  }
  const JsonValue* spec_v = doc.find("spec");
  ExperimentSpec got;
  if (spec_v == nullptr || !ExperimentSpec::from_json(*spec_v, got, err)) {
    err = "response spec invalid: " + err;
    return false;
  }
  ExperimentSpec want = shard.spec;
  got.jobs = 0;
  want.jobs = 0;
  if (!(got == want)) {
    err = "response spec does not match the assigned shard";
    return false;
  }
  const JsonValue* pts = doc.find("points");
  if (pts == nullptr || !pts->is_array()) {
    err = "response has no points array";
    return false;
  }
  std::vector<std::size_t> indices;
  indices.reserve(pts->items().size());
  for (const JsonValue& pv : pts->items()) {
    const JsonValue* index_v = pv.find("index");
    std::uint64_t index = 0;
    if (index_v == nullptr ||
        !index_v->as_uint(std::numeric_limits<std::size_t>::max(), index)) {
      err = "response point entry has no valid index";
      return false;
    }
    indices.push_back(static_cast<std::size_t>(index));
  }
  std::sort(indices.begin(), indices.end());
  if (indices != shard.owned) {
    err = "response covers " + std::to_string(indices.size()) +
          " points, expected the shard's " + std::to_string(shard.owned.size());
    return false;
  }
  return true;
}

AttemptOutcome attempt_shard(const std::string& host, std::uint16_t port,
                             const ShardState& shard, const DispatchOptions& opts,
                             std::string& out_payload, std::string& err) {
  const std::int64_t deadline = net::mono_now_ms() + opts.shard_deadline_ms;
  net::TcpConn conn;
  if (!net::TcpConn::connect(host, port, opts.connect_timeout_ms, conn, err)) {
    return AttemptOutcome::kConnectFailure;
  }
  if (!net::send_frame(conn, net::FrameType::kRequest, shard.request_json, deadline,
                       err)) {
    return err.find("deadline exceeded") != std::string::npos
               ? AttemptOutcome::kTimeout
               : AttemptOutcome::kTransport;
  }
  net::FrameType type{};
  std::string payload;
  if (!net::recv_frame(conn, type, payload, deadline, err)) {
    if (err.find("deadline exceeded") != std::string::npos) {
      return AttemptOutcome::kTimeout;
    }
    return err.find("checksum mismatch") != std::string::npos
               ? AttemptOutcome::kRejectedPayload
               : AttemptOutcome::kTransport;
  }
  if (type == net::FrameType::kError) {
    err = "worker reported: " + payload;
    return AttemptOutcome::kWorkerError;
  }
  if (type != net::FrameType::kResponse) {
    err = "unexpected frame type";
    return AttemptOutcome::kTransport;
  }
  if (!validate_response(shard, payload, err)) return AttemptOutcome::kRejectedPayload;
  out_payload = std::move(payload);
  return AttemptOutcome::kOk;
}

/// One worker endpoint's dispatch loop: drain the pending queue, duplicate
/// the oldest straggler when idle, retire after worker_failure_limit
/// consecutive failures.
void worker_loop(Coordinator& coord, const std::string& endpoint, const std::string& host,
                 std::uint16_t port) {
  const DispatchOptions& opts = *coord.opts;
  int consecutive_failures = 0;
  for (;;) {
    int shard_id = -1;
    int attempt_no = 0;
    bool is_redispatch = false;
    {
      const std::lock_guard<std::mutex> lock(coord.mutex);
      if (coord.fatal || coord.done_count == coord.shards.size()) return;
      if (!coord.pending.empty()) {
        shard_id = static_cast<int>(coord.pending.front());
        coord.pending.pop_front();
      } else {
        // Straggler re-dispatch: duplicate the longest-outstanding in-flight
        // shard (at most one duplicate, and only while remote retries
        // remain plausible). First valid result wins; the loser's payload
        // is discarded by shard identity.
        std::int64_t oldest = std::numeric_limits<std::int64_t>::max();
        for (std::size_t i = 0; i < coord.shards.size(); ++i) {
          const ShardState& s = coord.shards[i];
          if (s.done || s.in_flight != 1 || s.attempts >= opts.retry_limit + 2) continue;
          if (s.started_ms < oldest) {
            oldest = s.started_ms;
            shard_id = static_cast<int>(i);
          }
        }
        if (shard_id >= 0) {
          is_redispatch = true;
          ++coord.stats.redispatches;
          coord.event("shard " + std::to_string(shard_id) +
                      ": straggler re-dispatch to " + endpoint);
        } else {
          bool any_in_flight = false;
          for (const ShardState& s : coord.shards) {
            if (!s.done && s.in_flight > 0) any_in_flight = true;
          }
          // Nothing pending, nothing to duplicate, nothing that could still
          // requeue -> every remaining shard has exhausted remote retries;
          // leave them for local fallback.
          if (!any_in_flight) return;
        }
      }
      if (shard_id >= 0) {
        ShardState& s = coord.shards[static_cast<std::size_t>(shard_id)];
        ++s.in_flight;
        attempt_no = ++s.attempts;
        s.started_ms = net::mono_now_ms();
      }
    }
    if (shard_id < 0) {
      net::sleep_ms(10);
      continue;
    }

    std::string payload, attempt_err;
    const AttemptOutcome outcome =
        attempt_shard(host, port, coord.shards[static_cast<std::size_t>(shard_id)], opts,
                      payload, attempt_err);

    bool failed = false;
    {
      const std::lock_guard<std::mutex> lock(coord.mutex);
      ShardState& s = coord.shards[static_cast<std::size_t>(shard_id)];
      --s.in_flight;
      switch (outcome) {
        case AttemptOutcome::kOk:
          consecutive_failures = 0;
          if (!s.done) {
            s.done = true;
            s.result = std::move(payload);
            ++coord.done_count;
            ++coord.stats.remote_shards;
            coord.event("shard " + std::to_string(shard_id) + ": served by " +
                        endpoint + " (attempt " + std::to_string(attempt_no) + ")");
          } else {
            ++coord.stats.duplicates_discarded;
            coord.event("shard " + std::to_string(shard_id) +
                        ": duplicate result from " + endpoint + " discarded");
          }
          break;
        case AttemptOutcome::kWorkerError:
          // Deterministic remote failure (bad spec, unknown scenario, run
          // error) — retrying or falling back locally would fail the same
          // way, so surface it.
          coord.fatal = true;
          coord.fatal_err = "shard " + std::to_string(shard_id) + " via " + endpoint +
                            ": " + attempt_err;
          return;
        default: {
          failed = true;
          ++consecutive_failures;
          ++coord.stats.failed_attempts;
          if (outcome == AttemptOutcome::kConnectFailure) ++coord.stats.connect_failures;
          if (outcome == AttemptOutcome::kTimeout) ++coord.stats.timeouts;
          if (outcome == AttemptOutcome::kRejectedPayload) {
            ++coord.stats.rejected_payloads;
          }
          coord.event("shard " + std::to_string(shard_id) + ": attempt " +
                      std::to_string(attempt_no) + " via " + endpoint +
                      " failed: " + attempt_err);
          if (!s.done && s.attempts < opts.retry_limit && !is_redispatch) {
            coord.pending.push_back(static_cast<std::uint32_t>(shard_id));
          } else if (!s.done && s.in_flight == 0 && s.attempts >= opts.retry_limit) {
            coord.event("shard " + std::to_string(shard_id) +
                        ": remote retries exhausted");
          }
          break;
        }
      }
    }
    if (failed) {
      if (consecutive_failures >= opts.worker_failure_limit) {
        const std::lock_guard<std::mutex> lock(coord.mutex);
        coord.event("worker " + endpoint + " marked dead after " +
                    std::to_string(consecutive_failures) + " consecutive failures");
        return;
      }
      net::sleep_ms(backoff_ms(opts, static_cast<std::uint32_t>(shard_id), attempt_no));
    }
  }
}

}  // namespace

bool parse_endpoint(const std::string& text, std::string& host, std::uint16_t& port,
                    std::string& err) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    err = "worker endpoint must look like host:port, got '" + text + "'";
    return false;
  }
  host = text.substr(0, colon);
  char* end = nullptr;
  const unsigned long p = std::strtoul(text.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || p == 0 || p > 65535) {
    err = "bad port in worker endpoint '" + text + "'";
    return false;
  }
  port = static_cast<std::uint16_t>(p);
  return true;
}

bool dispatch_experiment(const Scenario& scenario, const ExperimentSpec& spec,
                         const DispatchOptions& opts, std::string& out_json,
                         DispatchStats& stats, std::string& err) {
  stats = DispatchStats{};
  if (spec.sharded()) {
    err = "dispatch partitions the grid itself; use --shards=N, not --shard";
    return false;
  }
  std::vector<std::string> hosts(opts.workers.size());
  std::vector<std::uint16_t> ports(opts.workers.size());
  for (std::size_t i = 0; i < opts.workers.size(); ++i) {
    if (!parse_endpoint(opts.workers[i], hosts[i], ports[i], err)) return false;
  }

  const std::vector<std::string> labels = scenario.point_labels(spec);
  for (const std::size_t p : spec.points) {
    if (p >= labels.size()) {
      err = "point " + std::to_string(p) + " out of range (grid has " +
            std::to_string(labels.size()) + " points)";
      return false;
    }
  }
  const std::size_t selected = spec.owned_points(labels.size()).size();
  if (selected == 0) {
    err = "nothing to dispatch: the selection is empty";
    return false;
  }
  std::uint32_t shard_count = opts.shard_count;
  if (shard_count == 0) {
    shard_count = static_cast<std::uint32_t>(
        std::min<std::size_t>(selected, std::max<std::size_t>(2 * opts.workers.size(),
                                                              1)));
  }
  shard_count = static_cast<std::uint32_t>(
      std::min<std::size_t>(shard_count, selected));
  if (shard_count == 0) shard_count = 1;

  Coordinator coord;
  coord.scenario = &scenario;
  coord.opts = &opts;
  coord.stats.shard_count = shard_count;
  coord.shards.resize(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ShardState& s = coord.shards[i];
    s.spec = spec;
    s.spec.shard_index = i;
    s.spec.shard_count = shard_count;
    s.request_json = s.spec.to_json(/*with_shard=*/true);
    s.owned = s.spec.owned_points(labels.size());
    coord.pending.push_back(i);
  }

  std::vector<std::thread> threads;
  threads.reserve(opts.workers.size());
  for (std::size_t w = 0; w < opts.workers.size(); ++w) {
    threads.emplace_back([&coord, &opts, &hosts, &ports, w] {
      worker_loop(coord, opts.workers[w], hosts[w], ports[w]);
    });
  }
  for (std::thread& t : threads) t.join();

  if (coord.fatal) {
    stats = coord.stats;
    err = coord.fatal_err;
    return false;
  }

  // Graceful degradation: shards no worker served run through the
  // in-process pool — the exact code path of a local --shard=i/N run, so
  // the merged output cannot tell remote from local execution.
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ShardState& s = coord.shards[i];
    if (s.done) continue;
    if (!opts.local_fallback) {
      stats = coord.stats;
      err = "shard " + std::to_string(i) + " unserved after " +
            std::to_string(s.attempts) + " remote attempt(s) and local fallback is "
            "disabled";
      return false;
    }
    RunOutcome outcome;
    if (!run_experiment(scenario, s.spec, outcome, err)) {
      stats = coord.stats;
      err = "local fallback for shard " + std::to_string(i) + " failed: " + err;
      return false;
    }
    s.result = shard_json(scenario, s.spec, outcome);
    s.done = true;
    ++coord.done_count;
    ++coord.stats.local_shards;
    coord.event("shard " + std::to_string(i) + ": degraded to local execution");
  }

  std::vector<std::string> texts(shard_count), names(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    texts[i] = std::move(coord.shards[i].result);
    names[i] = "dispatched shard " + std::to_string(i) + "/" +
               std::to_string(shard_count);
  }
  std::string merged_scenario;
  if (!merge_shards(texts, names, out_json, merged_scenario, err)) {
    stats = coord.stats;
    err = "merge of dispatched shards failed: " + err;
    return false;
  }
  stats = coord.stats;
  return true;
}

}  // namespace stbpu::exp
