#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "exec/thread_pool.hpp"
#include "netlist/io.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace mebl::serve {
namespace {

namespace keys = telemetry::keys;

/// One streamed "progress" line per pipeline stage boundary / global-stage
/// net batch, written from the job's lane thread while the router runs.
class ProgressSender final : public core::ProgressObserver {
 public:
  using SendFn = std::function<void(const Response&)>;
  ProgressSender(std::int64_t id, SendFn send)
      : id_(id), send_(std::move(send)) {}

  void on_stage_begin(core::Stage stage) override {
    Response event;
    event.type = "progress";
    event.id = id_;
    event.payload["event"] = "stage_begin";
    event.payload["stage"] = core::stage_name(stage);
    send_(event);
  }

  void on_stage_end(core::Stage stage, double seconds) override {
    Response event;
    event.type = "progress";
    event.id = id_;
    event.payload["event"] = "stage_end";
    event.payload["stage"] = core::stage_name(stage);
    event.payload["seconds"] = seconds;
    send_(event);
  }

  void on_nets_routed(std::size_t routed, std::size_t total) override {
    Response event;
    event.type = "progress";
    event.id = id_;
    event.payload["event"] = "nets_routed";
    event.payload["routed"] = static_cast<std::int64_t>(routed);
    event.payload["total"] = static_cast<std::int64_t>(total);
    send_(event);
  }

 private:
  std::int64_t id_;
  SendFn send_;
};

Response make_error(std::int64_t id, std::string message) {
  Response response;
  response.type = "error";
  response.id = id;
  response.error = std::move(message);
  return response;
}

/// The cancelled / deadline-exceeded terminal response for a stopped job:
/// user cancels get a "cancelled" line, expired deadlines an "error" with
/// the machine-parseable code "deadline_exceeded" in the payload.
Response make_stopped(std::int64_t id, exec::StopReason reason) {
  if (reason == exec::StopReason::kDeadline) {
    Response response = make_error(id, "deadline exceeded");
    response.payload["code"] = "deadline_exceeded";
    return response;
  }
  Response response;
  response.type = "cancelled";
  response.id = id;
  return response;
}

}  // namespace

std::size_t resolve_lanes(const ServerConfig& config) noexcept {
  if (config.lanes > 0) return static_cast<std::size_t>(config.lanes);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 1 ? static_cast<std::size_t>(hardware / 2) : 1;
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(resolve_lanes(config_)),
      cache_(config_.cache_capacity) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    util::log_warn() << "serve: bad socket path '" << config_.socket_path
                     << "'";
    return false;
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    util::log_warn() << "serve: socket(): " << std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(config_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    util::log_warn() << "serve: cannot listen on '" << config_.socket_path
                     << "': " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::pipe(wake_fds_) != 0) {
    util::log_warn() << "serve: pipe(): " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // The poll loop drains the pipe until EAGAIN; the read end must not block.
  ::fcntl(wake_fds_[0], F_SETFL,
          ::fcntl(wake_fds_[0], F_GETFL, 0) | O_NONBLOCK);

  // One router pool per lane: ThreadPool serializes parallel_for calls from
  // different threads, so concurrent lanes each need their own workers. The
  // thread budget splits evenly; every lane gets at least one worker.
  const std::size_t lanes = scheduler_.lanes();
  const int total_threads = config_.threads > 0
                                ? config_.threads
                                : exec::ThreadPool::hardware_threads();
  const int per_lane = std::max(1, total_threads / static_cast<int>(lanes));
  for (std::size_t i = 0; i < lanes; ++i) {
    lane_pools_.push_back(std::make_unique<exec::ThreadPool>(per_lane));
    lane_stats_.push_back(std::make_unique<LaneStats>());
  }

  lanes_live_.store(static_cast<int>(lanes), std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  lane_threads_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    lane_threads_.emplace_back([this, i] { dispatch_loop(i); });
  return true;
}

void Server::stop() {
  if (listen_fd_ < 0 && !io_thread_.joinable() && lane_threads_.empty())
    return;
  stopping_.store(true, std::memory_order_release);
  scheduler_.close();
  wake_io();
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& lane : lane_threads_)
    if (lane.joinable()) lane.join();
  lane_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& [client, conn] : connections_) ::close(conn.fd);
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  for (int& fd : wake_fds_)
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  lane_pools_.clear();
  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stopped_mutex_);
  }
  stopped_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stopped_mutex_);
  stopped_cv_.wait(lock, [this] {
    return !running_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

void Server::wake_io() {
  if (wake_fds_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void Server::io_loop() {
  std::string read_buffer(1 << 16, '\0');
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> clients;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      for (const auto& [client, conn] : connections_) {
        fds.push_back({conn.fd, POLLIN, 0});
        clients.push_back(client);
      }
    }
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/500) < 0) {
      if (errno == EINTR) continue;
      util::log_warn() << "serve: poll(): " << std::strerror(errno);
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        const timeval send_timeout{kSendTimeoutSeconds, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                     sizeof(send_timeout));
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_[static_cast<std::uint64_t>(fd)] = Connection{fd, {}};
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::uint64_t client = clients[i - 2];
      const ssize_t n =
          ::read(fds[i].fd, read_buffer.data(), read_buffer.size());
      if (n <= 0) {
        scheduler_.cancel_client(client);
        drop_connection(client);
        continue;
      }
      // Take the lines out of the connection buffer, then handle them
      // without the lock (handlers may push jobs or write responses).
      std::vector<std::string> lines;
      bool overlong = false;
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        auto it = connections_.find(client);
        if (it == connections_.end()) continue;
        it->second.buffer.append(read_buffer.data(),
                                 static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = it->second.buffer.find('\n');
             nl != std::string::npos;
             nl = it->second.buffer.find('\n', start)) {
          lines.push_back(it->second.buffer.substr(start, nl - start));
          start = nl + 1;
        }
        it->second.buffer.erase(0, start);
        overlong = it->second.buffer.size() > kMaxLineBytes;
      }
      for (const std::string& line : lines) handle_line(client, line);
      if (overlong) {
        util::log_warn() << "serve: client " << client
                         << " exceeded the " << kMaxLineBytes
                         << "-byte request line limit; disconnecting";
        send_response(client, make_error(0, "request line too long"));
        scheduler_.cancel_client(client);
        drop_connection(client);
      }
    }
  }
}

void Server::handle_line(std::uint64_t client, std::string_view line) {
  if (line.empty()) return;
  const std::optional<Request> request = decode_request(line);
  if (!request) {
    telemetry::counter(keys::kServeMalformed).add(1);
    send_response(client, make_error(0, "malformed request"));
    return;
  }
  telemetry::counter(keys::kServeRequests).add(1);
  switch (request->op) {
    case Op::kPing: {
      Response response;
      response.type = "ack";
      response.id = request->id;
      response.payload["server"] = "mebl_serve";
      send_response(client, response);
      return;
    }
    case Op::kStatus: {
      Response response;
      response.type = "ack";
      response.id = request->id;
      response.payload = status_payload();
      send_response(client, response);
      return;
    }
    case Op::kCancel: {
      Response response;
      response.type = "ack";
      response.id = request->id;
      response.payload["cancelled"] =
          scheduler_.cancel(client, request->cancel_id);
      send_response(client, response);
      return;
    }
    case Op::kMetrics: {
      Response response;
      response.type = "ack";
      response.id = request->id;
      response.payload["content_type"] = "text/plain; version=0.0.4";
      response.payload["text"] = metrics_text();
      send_response(client, response);
      return;
    }
    case Op::kDump: {
      const std::string path =
          request->path.empty()
              ? telemetry::FlightRecorder::timestamped_path(
                    config_.flight_prefix)
              : request->path;
      if (!telemetry::FlightRecorder::dump_to_file(path)) {
        send_response(client,
                      make_error(request->id, "cannot write '" + path + "'"));
        return;
      }
      Response response;
      response.type = "ack";
      response.id = request->id;
      response.payload["path"] = path;
      response.payload["events"] = static_cast<std::int64_t>(
          telemetry::FlightRecorder::snapshot().size());
      send_response(client, response);
      return;
    }
    default: {
      const std::size_t lane = scheduler_.lane_for(request->design);
      const std::int64_t id = request->id;
      if (!scheduler_.push(client, *request)) {
        send_response(client, make_error(id, "server is shutting down"));
        return;
      }
      Response response;
      response.type = "ack";
      response.id = id;
      response.payload["queued"] = true;
      response.payload["lane"] = static_cast<std::int64_t>(lane);
      response.payload["pending"] =
          static_cast<std::int64_t>(scheduler_.pending());
      send_response(client, response);
      return;
    }
  }
}

void Server::dispatch_loop(std::size_t lane) {
  while (true) {
    std::optional<Job> job = scheduler_.pop(lane);
    if (!job) break;
    if (job->request.op == Op::kShutdown) {
      Response response;
      response.type = "done";
      response.id = job->request.id;
      response.payload["shutdown"] = true;
      send_response(job->client, response);
      scheduler_.finish(job->client, job->request.id);
      // Stop accepting new work; every lane (this one included) drains
      // what is already queued, then the last lane out finishes the stop.
      stopping_.store(true, std::memory_order_release);
      scheduler_.close();
      continue;
    }
    // Every other job runs as a batch. ECO coalescing absorbs consecutive
    // queued ECOs for the same design into one batched apply; any other op
    // is a batch of one. pop_head_if never skips past a non-matching head,
    // so per-design order is untouched.
    std::vector<Job> batch;
    batch.push_back(std::move(*job));
    if (batch.front().request.op == Op::kEco) {
      const std::string design = batch.front().request.design;
      while (std::optional<Job> next =
                 scheduler_.pop_head_if(lane, [&design](const Job& queued) {
                   return queued.request.op == Op::kEco &&
                          queued.request.design == design;
                 }))
        batch.push_back(std::move(*next));
    }
    execute(batch, lane);
  }
  // Drain-and-stop: the last lane to exit tells the I/O loop and wait()ers.
  if (lanes_live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    stopping_.store(true, std::memory_order_release);
    scheduler_.close();
    wake_io();
    {
      std::lock_guard<std::mutex> lock(stopped_mutex_);
    }
    stopped_cv_.notify_all();
  }
}

void Server::execute(const std::vector<Job>& batch, std::size_t lane) {
  LaneStats& stats = *lane_stats_[lane];
  const std::uint64_t start_ns = telemetry::now_ns();
  const auto wait_ns = [start_ns](const Job& job) {
    return start_ns > job.enqueue_ns ? start_ns - job.enqueue_ns : 0;
  };

  // Members stopped while queued answer without starting any work (an
  // already-expired deadline is a structured rejection, not a start-
  // then-cancel); the rest run together.
  std::vector<const Job*> live;
  live.reserve(batch.size());
  for (const Job& member : batch) {
    const telemetry::RequestScope member_scope(
        static_cast<std::uint64_t>(member.request.id));
    const std::uint64_t waited_ns = wait_ns(member);
    telemetry::histogram(keys::kServeQueueWaitNs).record_ns(waited_ns);
    telemetry::Tracer::record_span("serve.queue_wait", member.enqueue_ns,
                                   waited_ns);
    if (!member.cancel->stop_requested()) {
      live.push_back(&member);
      continue;
    }
    Response response =
        make_stopped(member.request.id, member.cancel->reason());
    if (member.cancel->reason() == exec::StopReason::kDeadline) {
      response.payload["rejected_before_start"] = true;
      telemetry::counter(keys::kServeDeadlineRejected).add(1);
    }
    complete(member, response, stats);
  }
  if (live.empty()) return;

  // Request-scoped tracing: the batch runs under its leader's tag. The tag
  // is thread-local and the exec pool hands it down to its workers, so
  // every span recorded for this job — on this lane thread or inside the
  // router stages — carries the leader's request id even while other
  // lanes run their own jobs.
  const Job& leader = *live.front();
  const telemetry::RequestScope request_scope(
      static_cast<std::uint64_t>(leader.request.id));
  jobs_inflight_.fetch_add(static_cast<std::int64_t>(live.size()),
                           std::memory_order_relaxed);
  stats.busy.store(true, std::memory_order_relaxed);

  std::vector<Response> responses;
  {
    TELEMETRY_SPAN("serve.dispatch");
    switch (leader.request.op) {
      case Op::kEco: responses = run_eco(live, lane); break;
      case Op::kLoad: responses.push_back(run_load(leader)); break;
      case Op::kRoute: responses.push_back(run_route(leader, lane)); break;
      case Op::kSaveState: responses.push_back(run_save_state(leader)); break;
      case Op::kLoadState: responses.push_back(run_load_state(leader)); break;
      default:
        responses.push_back(
            make_error(leader.request.id, "unsupported operation"));
        break;
    }
  }

  const std::uint64_t run_ns = telemetry::now_ns() - start_ns;
  telemetry::histogram(keys::kServeJobNs).record_ns(run_ns);
  if (leader.request.op == Op::kRoute)
    telemetry::histogram(keys::kServeRouteNs).record_ns(run_ns);
  else if (leader.request.op == Op::kEco)
    telemetry::histogram(keys::kServeEcoNs).record_ns(run_ns);
  const double run_seconds = static_cast<double>(run_ns) / 1e9;
  if (config_.slow_job_seconds > 0.0 &&
      run_seconds >= config_.slow_job_seconds) {
    telemetry::counter(keys::kServeSlowJobs).add(1);
    log_slow_job(leader, responses.front(),
                 static_cast<double>(wait_ns(leader)) / 1e9, run_seconds);
  }

  stats.busy.store(false, std::memory_order_relaxed);
  jobs_inflight_.fetch_sub(static_cast<std::int64_t>(live.size()),
                           std::memory_order_relaxed);
  for (std::size_t i = 0; i < live.size(); ++i)
    complete(*live[i], responses[i], stats);
}

void Server::complete(const Job& job, const Response& response,
                      LaneStats& stats) {
  if (response.type == "error")
    telemetry::counter(keys::kServeJobsFailed).add(1);
  else if (response.type == "cancelled")
    telemetry::counter(keys::kServeJobsCancelled).add(1);
  stats.jobs.fetch_add(1, std::memory_order_relaxed);
  scheduler_.finish(job.client, job.request.id);
  jobs_completed_.fetch_add(1, std::memory_order_acq_rel);
  send_response(job.client, response);
}

std::vector<Response> Server::run_eco(const std::vector<const Job*>& batch,
                                      std::size_t lane) {
  const Job& leader = *batch.front();
  std::vector<Response> responses;
  responses.reserve(batch.size());
  std::shared_ptr<ResidentDesign> resident =
      cache_.get(leader.request.design);
  if (resident == nullptr) {
    for (const Job* member : batch)
      responses.push_back(
          make_error(member->request.id,
                     "unknown design '" + member->request.design + "'"));
    return responses;
  }

  // One merged rip-up/reroute for the whole batch: net and pin-move lists
  // union in request order (the resident dedups nets and replays moves
  // sequentially), verify is sticky, and the leader's token steers
  // cancellation.
  EcoRequest eco;
  for (const Job* member : batch) {
    const Request& request = member->request;
    eco.nets.insert(eco.nets.end(), request.nets.begin(), request.nets.end());
    eco.net_names.insert(eco.net_names.end(), request.net_names.begin(),
                         request.net_names.end());
    eco.pin_moves.insert(eco.pin_moves.end(), request.moves.begin(),
                         request.moves.end());
    eco.verify = eco.verify || request.verify;
  }
  telemetry::counter(keys::kServeJobsEco)
      .add(static_cast<std::int64_t>(batch.size()));
  if (batch.size() > 1)
    telemetry::counter(keys::kServeEcoCoalesced)
        .add(static_cast<std::int64_t>(batch.size() - 1));
  const EcoOutcome outcome =
      resident->eco(eco, lane_pools_[lane].get(), leader.cancel.get());
  if (outcome.fallback_full)
    telemetry::counter(keys::kServeEcoFallbackFull).add(1);

  // Fan the batch outcome back out: every member gets its own terminal
  // line (echoing its id) with the shared report and an eco.coalesced
  // count naming the batch size it rode in.
  for (const Job* member : batch) {
    const Request& request = member->request;
    Response& response = responses.emplace_back();
    if (outcome.cancelled) {
      response = make_stopped(request.id, outcome.stop_reason);
    } else if (!outcome.ok) {
      response = make_error(request.id, outcome.error);
    } else {
      response.type = "done";
      response.id = request.id;
      response.payload["report"] = report::to_json(outcome.report);
      response.payload["seconds"] = outcome.seconds;
      report::Json& summary = response.payload["eco"];
      summary["dirty_subnets"] =
          static_cast<std::int64_t>(outcome.dirty_subnets);
      summary["fallback_full"] = outcome.fallback_full;
      summary["coalesced"] = static_cast<std::int64_t>(batch.size());
      if (request.verify) {
        summary["verified"] = outcome.verified;
        summary["verify_mismatch"] = outcome.verify_mismatch;
      }
    }
  }
  return responses;
}

Response Server::run_load(const Job& job) {
  const Request& request = job.request;
  if (request.design.empty())
    return make_error(request.id, "load needs a design name");
  std::optional<netlist::Design> design;
  if (!request.design_text.empty()) {
    std::istringstream in(request.design_text);
    design = netlist::read_design(in);
  } else if (!request.path.empty()) {
    design = netlist::load_design(request.path);
  } else {
    return make_error(request.id, "load needs design_text or path");
  }
  if (!design) return make_error(request.id, "cannot parse design");

  Response response;
  response.type = "done";
  response.id = request.id;
  response.payload["design"] = request.design;
  response.payload["nets"] =
      static_cast<std::int64_t>(design->netlist.num_nets());
  response.payload["pins"] =
      static_cast<std::int64_t>(design->netlist.num_pins());
  auto resident =
      std::make_shared<ResidentDesign>(std::move(*design), config_.router);
  const std::vector<std::string> evicted =
      cache_.put(request.design, std::move(resident));
  if (!evicted.empty()) {
    report::Json names = report::Json::array();
    for (const std::string& name : evicted) names.push_back(name);
    response.payload["evicted"] = names;
  }
  return response;
}

Response Server::run_route(const Job& job, std::size_t lane) {
  const Request& request = job.request;
  std::shared_ptr<ResidentDesign> resident = cache_.get(request.design);
  if (resident == nullptr)
    return make_error(request.id, "unknown design '" + request.design + "'");

  const std::uint64_t client = job.client;
  ProgressSender progress(request.id, [this, client](const Response& event) {
    send_response(client, event);
  });
  telemetry::counter(keys::kServeJobsRoute).add(1);
  const EcoOutcome outcome = resident->route_full(
      lane_pools_[lane].get(), job.cancel.get(), &progress);
  if (outcome.cancelled)
    return make_stopped(request.id, outcome.stop_reason);
  if (!outcome.ok) return make_error(request.id, outcome.error);

  Response response;
  response.type = "done";
  response.id = request.id;
  response.payload["report"] = report::to_json(outcome.report);
  response.payload["seconds"] = outcome.seconds;
  return response;
}

Response Server::run_save_state(const Job& job) {
  const Request& request = job.request;
  std::shared_ptr<ResidentDesign> resident = cache_.get(request.design);
  if (resident == nullptr)
    return make_error(request.id, "unknown design '" + request.design + "'");
  if (!resident->routed())
    return make_error(request.id, "design is not routed");
  if (request.path.empty())
    return make_error(request.id, "save_state needs a path");
  if (!resident->save_state(request.path))
    return make_error(request.id, "cannot write '" + request.path + "'");
  Response response;
  response.type = "done";
  response.id = request.id;
  response.payload["path"] = request.path;
  return response;
}

Response Server::run_load_state(const Job& job) {
  const Request& request = job.request;
  if (request.design.empty())
    return make_error(request.id, "load_state needs a design name");
  if (request.path.empty())
    return make_error(request.id, "load_state needs a path");
  std::ifstream in(request.path);
  if (!in)
    return make_error(request.id, "cannot read '" + request.path + "'");
  std::unique_ptr<ResidentDesign> resident =
      ResidentDesign::from_state(in, config_.router);
  if (resident == nullptr)
    return make_error(request.id,
                      "'" + request.path + "' is not a consistent state");

  Response response;
  response.type = "done";
  response.id = request.id;
  response.payload["design"] = request.design;
  response.payload["routed"] = true;
  response.payload["nets"] = static_cast<std::int64_t>(
      resident->design().netlist.num_nets());
  const std::vector<std::string> evicted =
      cache_.put(request.design, std::move(resident));
  if (!evicted.empty()) {
    report::Json names = report::Json::array();
    for (const std::string& name : evicted) names.push_back(name);
    response.payload["evicted"] = names;
  }
  return response;
}

report::Json Server::status_payload() const {
  report::Json payload = report::Json::object();
  payload["pending"] = static_cast<std::int64_t>(scheduler_.pending());
  payload["inflight"] = jobs_inflight_.load(std::memory_order_relaxed);
  payload["jobs_completed"] =
      static_cast<std::int64_t>(jobs_completed_.load(std::memory_order_acquire));
  payload["lanes"] = static_cast<std::int64_t>(scheduler_.lanes());
  payload["cache_capacity"] = static_cast<std::int64_t>(cache_.capacity());
  report::Json designs = report::Json::array();
  for (const std::string& name : cache_.names()) designs.push_back(name);
  payload["designs"] = designs;
  return payload;
}

std::string Server::metrics_text() const {
  // Counters and histograms come straight from the telemetry registry; the
  // point-in-time values below are the server's own state, rendered as
  // gauges. Per-design residency and per-lane gauges carry the design name
  // / lane index as a label.
  std::vector<telemetry::PrometheusGauge> gauges;
  gauges.push_back({"serve.queue.depth",
                    static_cast<double>(scheduler_.pending()), {}});
  gauges.push_back(
      {"serve.jobs.inflight",
       static_cast<double>(jobs_inflight_.load(std::memory_order_relaxed)),
       {}});
  gauges.push_back(
      {"serve.jobs.completed",
       static_cast<double>(jobs_completed_.load(std::memory_order_acquire)),
       {}});
  gauges.push_back({"serve.lanes", static_cast<double>(scheduler_.lanes()),
                    {}});
  for (std::size_t i = 0; i < scheduler_.lanes(); ++i) {
    const std::vector<std::pair<std::string, std::string>> label = {
        {"lane", std::to_string(i)}};
    const LaneStats& stats = *lane_stats_[i];
    gauges.push_back({"serve.lane.depth",
                      static_cast<double>(scheduler_.pending(i)), label});
    gauges.push_back(
        {"serve.lane.busy",
         stats.busy.load(std::memory_order_relaxed) ? 1.0 : 0.0, label});
    gauges.push_back(
        {"serve.lane.jobs",
         static_cast<double>(stats.jobs.load(std::memory_order_relaxed)),
         label});
  }
  const std::vector<std::string> residents = cache_.names();
  gauges.push_back(
      {"serve.cache.residents", static_cast<double>(residents.size()), {}});
  gauges.push_back(
      {"serve.cache.capacity", static_cast<double>(cache_.capacity()), {}});
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    gauges.push_back({"serve.connections",
                      static_cast<double>(connections_.size()), {}});
  }
  for (const std::string& name : residents)
    gauges.push_back({"serve.cache.resident", 1.0, {{"design", name}}});
  return telemetry::prometheus_text(gauges);
}

void Server::log_slow_job(const Job& job, const Response& response,
                          double wait_seconds, double run_seconds) const {
  std::ostringstream line;
  line << "slow_job op=" << op_name(job.request.op) << " client=" << job.client
       << " id=" << job.request.id;
  if (!job.request.design.empty()) line << " design=" << job.request.design;
  line << " queue_wait_s=" << wait_seconds << " run_s=" << run_seconds
       << " threshold_s=" << config_.slow_job_seconds;
  // Per-stage breakdown from the job's own report — the span view of the
  // request without needing the tracer enabled.
  if (const report::Json* report = response.payload.get("report")) {
    if (const report::Json* stages = report->get("stages");
        stages != nullptr && stages->kind() == report::Json::Kind::kArray) {
      line << " stages=[";
      bool first = true;
      for (const report::Json& entry : stages->items()) {
        const report::Json* name = entry.get("name");
        const report::Json* seconds = entry.get("seconds");
        if (name == nullptr || seconds == nullptr) continue;
        if (!first) line << ",";
        line << name->as_string() << "=" << seconds->as_double() << "s";
        first = false;
      }
      line << "]";
    }
  }
  util::log_warn() << line.str();
}

void Server::send_response(std::uint64_t client, const Response& response) {
  const std::string line = encode(response);
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    const auto it = connections_.find(client);
    if (it == connections_.end()) return;  // client went away mid-job
    fd = it->second.fd;
  }
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      util::log_warn() << "serve: client " << client << " read nothing for "
                       << kSendTimeoutSeconds << " s; disconnecting";
      ::shutdown(fd, SHUT_RDWR);  // the I/O loop sees EOF and reaps it
    }
    return;  // disconnect; the I/O loop will reap the fd
  }
}

void Server::drop_connection(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  const auto it = connections_.find(client);
  if (it == connections_.end()) return;
  ::close(it->second.fd);
  connections_.erase(it);
}

}  // namespace mebl::serve
