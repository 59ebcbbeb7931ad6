#pragma once

// mebl::serve socket server — the routing-as-a-service daemon core
// (DESIGN.md §12, §16).
//
// One poll()-driven I/O thread owns the AF_UNIX listening socket and every
// client connection: it splits the byte stream into wire lines, answers
// ping / status / cancel / metrics / dump inline, and pushes everything
// else onto the LaneScheduler. N dispatch lanes (one thread + one router
// ThreadPool each) pop jobs in (priority, arrival) order; a job's design
// key hashes to exactly one lane, so every resident design keeps a single
// mutator thread — the one-writer-per-resident invariant the bit-identity
// contract needs — while jobs for different designs route concurrently.
// Consecutive queued ECOs for the same design coalesce into one batched
// rip-up/reroute whose responses fan back out per request. Responses
// (acks, streamed progress events, the final done/error line) can be
// written from any thread; a write mutex keeps lines whole.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/lane_scheduler.hpp"
#include "serve/resident_design.hpp"

namespace mebl::exec {
class ThreadPool;
}  // namespace mebl::exec

namespace mebl::serve {

/// Longest unterminated request line a connection may buffer. The largest
/// inline `load` the repo sends (full-scale S38584 MEBL1 text) encodes to
/// ~0.74 MB, so 8 MiB leaves 11x headroom (DESIGN.md §12). A client that
/// passes it without a newline gets one "request line too long" error line,
/// its jobs are cancelled, and the connection is dropped.
inline constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

/// Longest a response write may go without progress. A client that reads
/// nothing for this long (its socket buffers full) is dropped with a WARN,
/// so one stalled reader cannot hold the daemon-wide write lock — or the
/// I/O loop that answers inline requests — indefinitely.
inline constexpr int kSendTimeoutSeconds = 5;

struct ServerConfig {
  /// AF_UNIX socket path; bound on start(), unlinked on stop().
  std::string socket_path;
  /// Router pool threads split across the lanes (each lane gets
  /// max(1, threads / lanes) workers); <= 0 = hardware concurrency.
  int threads = 0;
  /// Dispatch lanes (see LaneScheduler); <= 0 = hardware concurrency / 2,
  /// floored at 1. One lane reproduces the single-dispatcher behavior.
  int lanes = 0;
  /// Resident designs kept in memory (LRU beyond this).
  std::size_t cache_capacity = 4;
  /// Pipeline configuration every job routes with.
  core::RouterConfig router = core::RouterConfig::stitch_aware();
  /// Jobs running at least this many seconds emit one structured WARN line
  /// with their per-stage breakdown (DESIGN.md §14). 0 disables.
  double slow_job_seconds = 0.0;
  /// Path prefix for flight-recorder dumps written by kDump requests that
  /// carry no explicit path; the daemon points this into --flight-dir.
  std::string flight_prefix = "mebl_flight";
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the socket and start the I/O and lane threads.
  /// False (with a log line) when the socket cannot be bound.
  bool start();

  /// Close the lanes, stop every thread, drop every connection, unlink the
  /// socket. Idempotent; also run by the destructor.
  void stop();

  /// Block until the server stops (a shutdown request or stop()).
  void wait();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// True once a shutdown request (or stop()) has been seen; the daemon
  /// main polls this from its signal loop.
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }
  [[nodiscard]] std::size_t lanes() const noexcept {
    return scheduler_.lanes();
  }
  [[nodiscard]] std::uint64_t jobs_completed() const noexcept {
    return jobs_completed_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    int fd = -1;
    std::string buffer;  ///< bytes received, not yet newline-terminated
  };

  /// Point-in-time lane statistics, exported as labeled Prometheus gauges.
  struct LaneStats {
    std::atomic<std::uint64_t> jobs{0};  ///< jobs this lane completed
    std::atomic<bool> busy{false};       ///< a job is executing right now
  };

  void io_loop();
  void dispatch_loop(std::size_t lane);

  /// Parse + act on one wire line from `client` (inline ops answer here,
  /// the rest queue).
  void handle_line(std::uint64_t client, std::string_view line);

  /// Execute queued jobs on their lane thread and send their responses:
  /// one job, or a coalesced batch of ECO jobs (all for one design) run as
  /// a single merged rip-up/reroute. Members stopped while queued are
  /// answered without running.
  void execute(const std::vector<Job>& batch, std::size_t lane);
  /// The one completion path of every job: outcome counters, lane and
  /// scheduler bookkeeping, then the terminal response.
  void complete(const Job& job, const Response& response, LaneStats& stats);
  /// Run a batch of live ECO jobs as one merged ECO; one response per
  /// member, in batch order.
  [[nodiscard]] std::vector<Response> run_eco(
      const std::vector<const Job*>& batch, std::size_t lane);
  [[nodiscard]] Response run_load(const Job& job);
  [[nodiscard]] Response run_route(const Job& job, std::size_t lane);
  [[nodiscard]] Response run_save_state(const Job& job);
  [[nodiscard]] Response run_load_state(const Job& job);

  [[nodiscard]] report::Json status_payload() const;

  /// Prometheus text exposition: the full telemetry registry plus serve
  /// gauges (per-lane depth/busy/jobs, in-flight jobs, cache occupancy,
  /// connections).
  [[nodiscard]] std::string metrics_text() const;

  /// Slow-job structured WARN line (op, client, wait/run seconds, stage
  /// breakdown pulled from the response's report).
  void log_slow_job(const Job& job, const Response& response,
                    double wait_seconds, double run_seconds) const;

  /// Write one response line to the client; silently drops it when the
  /// connection is gone (disconnected mid-job). A write that makes no
  /// progress for kSendTimeoutSeconds shuts the connection down (the I/O
  /// loop then reaps it and cancels its jobs).
  void send_response(std::uint64_t client, const Response& response);
  void drop_connection(std::uint64_t client);
  void wake_io();

  ServerConfig config_;
  LaneScheduler scheduler_;
  DesignCache cache_;
  /// One router pool per lane so lanes overlap their parallel_for calls
  /// (a single pool serializes cross-thread submissions).
  std::vector<std::unique_ptr<exec::ThreadPool>> lane_pools_;
  std::vector<std::unique_ptr<LaneStats>> lane_stats_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: poke the poll() loop

  mutable std::mutex conn_mutex_;
  std::map<std::uint64_t, Connection> connections_;
  std::mutex write_mutex_;

  std::thread io_thread_;
  std::vector<std::thread> lane_threads_;
  std::atomic<int> lanes_live_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::int64_t> jobs_inflight_{0};
  std::mutex stopped_mutex_;
  std::condition_variable stopped_cv_;
};

/// The lane count `config` resolves to: config.lanes when positive, else
/// hardware concurrency / 2 floored at 1.
[[nodiscard]] std::size_t resolve_lanes(const ServerConfig& config) noexcept;

}  // namespace mebl::serve
