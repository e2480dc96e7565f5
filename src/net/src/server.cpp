#include "retra/net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <unordered_map>

#include "retra/net/socket.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/support/check.hpp"
#include "retra/support/sync.hpp"
#include "retra/support/thread_annotations.hpp"
#include "retra/support/timer.hpp"

namespace retra::net {

namespace {

/// One accepted connection.  The I/O thread owns fd, input, and epoll
/// registration; `mutex` guards the response queue that workers append
/// to and the I/O thread drains.
struct Connection {
  explicit Connection(FdHandle in_fd) : fd(std::move(in_fd)) {}

  // I/O-thread-only (reset under `mutex` at teardown so workers racing
  // on `closed` observe the socket gone atomically with the flag).
  FdHandle fd RETRA_NOT_GUARDED;
  FrameBuffer input RETRA_NOT_GUARDED;

  support::Mutex mutex;
  std::deque<std::vector<std::byte>> output RETRA_GUARDED_BY(mutex);
  // bytes of output.front() already sent
  std::size_t output_offset RETRA_GUARDED_BY(mutex) = 0;
  // fd gone; workers drop responses
  bool closed RETRA_GUARDED_BY(mutex) = false;

  // I/O-thread-only: protocol error — answer, flush, close.
  bool close_after_flush RETRA_NOT_GUARDED = false;
  // I/O-thread-only: EPOLLOUT currently armed (written under `mutex`
  // because flush_output decides it mid-drain).
  bool want_write RETRA_GUARDED_BY(mutex) = false;
  std::atomic<bool> wake_queued{false};
};

/// One admitted request, fully validated by the I/O thread: workers
/// never see a bad level, index, or op.
struct Request {
  std::shared_ptr<Connection> conn;
  std::uint32_t id = 0;
  Op op = Op::kPing;
  int level = 0;                   // kQuery / kBatchQuery
  idx::Index index = 0;            // kQuery
  std::vector<idx::Index> batch;   // kBatchQuery
  std::uint64_t enqueue_ns = 0;
};

}  // namespace

struct Server::Impl {
  explicit Impl(Server& in_server) : server(in_server) {}

  Server& server RETRA_NOT_GUARDED;

  // start()-time setup, then I/O-thread-only (wake_fd is written from
  // any thread, which eventfd allows).
  FdHandle listen_fd RETRA_NOT_GUARDED;
  FdHandle epoll_fd RETRA_NOT_GUARDED;
  FdHandle wake_fd RETRA_NOT_GUARDED;  // workers/stop() poke the I/O thread

  std::thread io_thread RETRA_NOT_GUARDED;
  std::vector<std::thread> worker_threads RETRA_NOT_GUARDED;

  // Request queue: I/O thread produces, workers consume.
  support::Mutex queue_mutex;
  support::CondVar queue_cv;
  std::deque<Request> queue RETRA_GUARDED_BY(queue_mutex);
  bool workers_stop RETRA_GUARDED_BY(queue_mutex) = false;

  // Connections the workers produced output for since the last wake.
  support::Mutex wake_mutex;
  std::vector<std::shared_ptr<Connection>> pending_wakes
      RETRA_GUARDED_BY(wake_mutex);

  std::atomic<bool> accepting{true};
  std::atomic<bool> io_stop{false};
  std::atomic<bool> stopped{false};

  support::Timer uptime RETRA_NOT_GUARDED;

  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> batch_queries{0};
    std::atomic<std::uint64_t> pings{0};
    std::atomic<std::uint64_t> stats_ops{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> hot_hits{0};
  };
  Counters counters RETRA_NOT_GUARDED;  // struct of atomics

  // I/O-thread-only state.
  std::unordered_map<int, std::shared_ptr<Connection>> connections
      RETRA_NOT_GUARDED;

  void io_loop();
  void accept_ready();
  void handle_readable(const std::shared_ptr<Connection>& conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const Frame& frame);
  void enqueue_request(Request request) RETRA_EXCLUDES(queue_mutex);
  void respond_error(const std::shared_ptr<Connection>& conn,
                     std::uint32_t id, ErrorCode code);
  void flush_output(const std::shared_ptr<Connection>& conn);
  void set_want_write(Connection& conn, bool want)
      RETRA_REQUIRES(conn.mutex);
  void close_connection(const std::shared_ptr<Connection>& conn);
  bool any_pending_output() const;

  void worker_loop() RETRA_EXCLUDES(queue_mutex);
  void process_batch(std::vector<Request>& batch);
  void respond(const std::shared_ptr<Connection>& conn,
               std::vector<std::byte> frame,
               std::vector<std::shared_ptr<Connection>>& woken);
  StatsReply build_stats_reply() const;
  void observe_latency(const Request& request) const;

  void wake_io() {
    const std::uint64_t one = 1;
    (void)::write(wake_fd.get(), &one, sizeof one);
  }
};

Server::OpenResult Server::open(const std::string& path,
                                const ServerConfig& config) {
  OpenResult result;
  serve::QueryServiceConfig service_config;
  service_config.budget_bytes = config.budget_bytes;
  auto opened = serve::QueryService::open(path, service_config);
  if (!opened.ok) {
    result.error = opened.error;
    return result;
  }
  auto store =
      std::make_unique<Store>(std::move(opened.service), config.hot_bytes);
  auto server =
      std::make_unique<Server>(Passkey{}, std::move(store), config);
  if (!server->start(&result.error)) return result;
  result.ok = true;
  result.server = std::move(server);
  return result;
}

Server::Server(Passkey, std::unique_ptr<Store> store,
               const ServerConfig& config)
    : config_(config),
      store_(std::move(store)),
      impl_(std::make_unique<Impl>(*this)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  RETRA_CHECK(config_.workers > 0);
  auto listened = listen_tcp(config_.host, config_.port);
  if (!listened.ok) {
    *error = listened.error;
    return false;
  }
  if (!set_nonblocking(listened.fd.get())) {
    *error = "cannot make listen socket non-blocking";
    return false;
  }
  impl_->listen_fd = std::move(listened.fd);
  port_ = listened.port;

  impl_->epoll_fd = FdHandle(::epoll_create1(0));
  impl_->wake_fd = FdHandle(::eventfd(0, EFD_NONBLOCK));
  if (!impl_->epoll_fd.valid() || !impl_->wake_fd.valid()) {
    *error = "cannot create epoll/eventfd";
    return false;
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = impl_->listen_fd.get();
  if (::epoll_ctl(impl_->epoll_fd.get(), EPOLL_CTL_ADD,
                  impl_->listen_fd.get(), &event) != 0) {
    *error = "cannot register listen socket";
    return false;
  }
  event.data.fd = impl_->wake_fd.get();
  if (::epoll_ctl(impl_->epoll_fd.get(), EPOLL_CTL_ADD, impl_->wake_fd.get(),
                  &event) != 0) {
    *error = "cannot register eventfd";
    return false;
  }

  impl_->io_thread = std::thread([this] { impl_->io_loop(); });
  impl_->worker_threads.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    impl_->worker_threads.emplace_back([this] { impl_->worker_loop(); });
  }
  return true;
}

void Server::stop() {
  if (impl_->stopped.exchange(true)) return;
  // Phase 1: stop accepting and admitting; the I/O thread closes the
  // listen socket on its next wake-up.
  impl_->accepting.store(false);
  impl_->wake_io();
  // Phase 2: drain the queue — workers exit once it is empty.
  {
    const support::MutexLock lock(impl_->queue_mutex);
    impl_->workers_stop = true;
  }
  impl_->queue_cv.notify_all();
  for (std::thread& worker : impl_->worker_threads) worker.join();
  // Phase 3: flush every pending response, then tear the sockets down.
  impl_->io_stop.store(true);
  impl_->wake_io();
  if (impl_->io_thread.joinable()) impl_->io_thread.join();
}

Server::Stats Server::stats() const {
  const Impl::Counters& c = impl_->counters;
  Stats stats;
  stats.connections = c.connections.load();
  stats.requests = c.requests.load();
  stats.queries = c.queries.load();
  stats.batch_queries = c.batch_queries.load();
  stats.pings = c.pings.load();
  stats.stats_ops = c.stats_ops.load();
  stats.errors = c.errors.load();
  stats.shed = c.shed.load();
  stats.hot_hits = c.hot_hits.load();
  return stats;
}

StatsReply Server::stats_reply() const { return impl_->build_stats_reply(); }

// --------------------------------------------------------------------------
// I/O thread.

void Server::Impl::io_loop() RETRA_IO_THREAD_ONLY {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool listen_open = true;
  double stop_deadline_s = 0.0;

  for (;;) {
    if (listen_open && !accepting.load()) {
      (void)::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, listen_fd.get(),
                        nullptr);
      listen_fd.reset();
      listen_open = false;
    }
    const bool stopping = io_stop.load();
    if (stopping) {
      if (stop_deadline_s == 0.0) stop_deadline_s = uptime.seconds() + 2.0;
      if (!any_pending_output() || uptime.seconds() > stop_deadline_s) break;
    }
    const int timeout_ms = stopping ? 20 : -1;
    const int n = ::epoll_wait(epoll_fd.get(), events, kMaxEvents,
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (listen_open && fd == listen_fd.get()) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd.get()) {
        std::uint64_t drained;
        (void)::read(wake_fd.get(), &drained, sizeof drained);
        continue;
      }
      const auto it = connections.find(fd);
      if (it == connections.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) handle_readable(conn);
      // flush_output re-checks `closed` under the connection lock, so
      // no unlocked pre-check here.
      if (events[i].events & EPOLLOUT) flush_output(conn);
    }
    // Flush connections the workers filled since the last pass.
    std::vector<std::shared_ptr<Connection>> woken;
    {
      const support::MutexLock lock(wake_mutex);
      woken.swap(pending_wakes);
    }
    for (const auto& conn : woken) {
      conn->wake_queued.store(false);
      flush_output(conn);
    }
  }

  for (const auto& [fd, conn] : connections) {
    const support::MutexLock lock(conn->mutex);
    conn->closed = true;
    conn->fd.reset();
  }
  connections.clear();
}

void Server::Impl::accept_ready() RETRA_IO_THREAD_ONLY {
  for (;;) {
    const int fd = ::accept4(listen_fd.get(), nullptr, nullptr,
                             SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: wait for epoll
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>(FdHandle(fd));
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
      continue;  // conn drops out of scope and closes
    }
    connections.emplace(fd, std::move(conn));
    counters.connections.fetch_add(1);
    RETRA_OBS_INC(obs::Id::kNetConnections);
  }
}

void Server::Impl::handle_readable(const std::shared_ptr<Connection>& conn)
    RETRA_IO_THREAD_ONLY {
  if (conn->close_after_flush) return;  // framing lost; draining only
  std::byte buffer[65536];
  for (;;) {
    const long got = read_some(conn->fd.get(), buffer, sizeof buffer);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    if (got == 0) {
      close_connection(conn);
      return;
    }
    RETRA_OBS_ADD(obs::Id::kNetBytesIn, static_cast<std::uint64_t>(got));
    conn->input.append(buffer, static_cast<std::size_t>(got));
    if (static_cast<std::size_t>(got) < sizeof buffer) break;
  }

  while (!conn->close_after_flush) {
    Frame frame;
    ErrorCode error = ErrorCode::kNone;
    FrameHeader bad_header;
    const FrameBuffer::Next next =
        conn->input.next(frame, error, &bad_header);
    if (next == FrameBuffer::Next::kNeedMore) break;
    if (next == FrameBuffer::Next::kError) {
      // The stream cannot be re-framed: diagnose, flush, close.
      respond_error(conn, bad_header.request_id, error);
      conn->close_after_flush = true;
      break;
    }
    handle_request(conn, frame);
  }
  flush_output(conn);
}

void Server::Impl::handle_request(const std::shared_ptr<Connection>& conn,
                                  const Frame& frame) RETRA_IO_THREAD_ONLY {
  const std::uint32_t id = frame.header.request_id;
  if (!is_request(frame.op())) {
    respond_error(conn, id, ErrorCode::kBadOp);
    conn->close_after_flush = true;
    return;
  }
  const Store& store = *server.store_;

  Request request;
  request.conn = conn;
  request.id = id;
  request.op = frame.op();

  switch (frame.op()) {
    case Op::kPing:
    case Op::kStats:
      break;
    case Op::kQuery: {
      QueryRequest query;
      if (decode_query(frame.payload, query) != ErrorCode::kNone) {
        respond_error(conn, id, ErrorCode::kMalformed);
        return;
      }
      if (query.mode == QueryRequest::Mode::kBoard) {
        const int stones = idx::stones_on(query.board);
        if (stones >= store.num_levels()) {
          respond_error(conn, id, ErrorCode::kBadBoard);
          return;
        }
        request.level = stones;
        request.index = idx::rank_in_level(stones, query.board);
      } else {
        if (query.level >= static_cast<std::uint32_t>(store.num_levels())) {
          respond_error(conn, id, ErrorCode::kBadLevel);
          return;
        }
        request.level = static_cast<int>(query.level);
        request.index = query.index;
      }
      if (request.index >= store.level_size(request.level)) {
        respond_error(conn, id, ErrorCode::kBadIndex);
        return;
      }
      break;
    }
    case Op::kBatchQuery: {
      BatchQueryRequest batch;
      if (decode_batch_query(frame.payload, batch) != ErrorCode::kNone) {
        respond_error(conn, id, ErrorCode::kMalformed);
        return;
      }
      if (batch.level >= static_cast<std::uint32_t>(store.num_levels())) {
        respond_error(conn, id, ErrorCode::kBadLevel);
        return;
      }
      request.level = static_cast<int>(batch.level);
      const std::uint64_t size = store.level_size(request.level);
      for (const idx::Index index : batch.indices) {
        if (index >= size) {
          respond_error(conn, id, ErrorCode::kBadIndex);
          return;
        }
      }
      request.batch = std::move(batch.indices);
      break;
    }
    default:
      respond_error(conn, id, ErrorCode::kBadOp);
      return;
  }

  enqueue_request(std::move(request));
}

void Server::Impl::enqueue_request(Request request) RETRA_IO_THREAD_ONLY {
  bool shed = false;
  {
    const support::MutexLock lock(queue_mutex);
    if (queue.size() >= server.config_.max_queue_depth) {
      shed = true;
    } else {
      request.enqueue_ns = uptime.nanoseconds();
      // Count before publishing: a worker may serialise a STATS reply
      // the instant the queue holds the request, and that reply must
      // already include it.
      counters.requests.fetch_add(1);
      RETRA_OBS_INC(obs::Id::kNetRequests);
      queue.push_back(std::move(request));
    }
  }
  if (shed) {
    counters.shed.fetch_add(1);
    RETRA_OBS_INC(obs::Id::kNetShed);
    respond_error(request.conn, request.id, ErrorCode::kBusy);
    return;
  }
  queue_cv.notify_one();
}

void Server::Impl::respond_error(const std::shared_ptr<Connection>& conn,
                                 std::uint32_t id, ErrorCode code)
    RETRA_IO_THREAD_ONLY {
  counters.errors.fetch_add(1);
  RETRA_OBS_INC(obs::Id::kNetErrors);
  std::vector<std::byte> frame = encode_error(id, code);
  const support::MutexLock lock(conn->mutex);
  if (!conn->closed) conn->output.push_back(std::move(frame));
}

void Server::Impl::set_want_write(Connection& conn, bool want)
    RETRA_IO_THREAD_ONLY {
  if (conn.want_write == want || conn.closed) return;
  epoll_event event{};
  event.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  event.data.fd = conn.fd.get();
  if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_MOD, conn.fd.get(), &event) ==
      0) {
    conn.want_write = want;
  }
}

void Server::Impl::flush_output(const std::shared_ptr<Connection>& conn)
    RETRA_IO_THREAD_ONLY {
  bool failed = false;
  {
    const support::MutexLock lock(conn->mutex);
    if (conn->closed) return;
    while (!conn->output.empty()) {
      const std::vector<std::byte>& front = conn->output.front();
      const std::size_t remaining = front.size() - conn->output_offset;
      const ssize_t sent =
          ::send(conn->fd.get(), front.data() + conn->output_offset,
                 remaining, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          set_want_write(*conn, true);
          return;
        }
        failed = true;
        break;
      }
      RETRA_OBS_ADD(obs::Id::kNetBytesOut, static_cast<std::uint64_t>(sent));
      conn->output_offset += static_cast<std::size_t>(sent);
      if (conn->output_offset == front.size()) {
        conn->output.pop_front();
        conn->output_offset = 0;
      } else {
        set_want_write(*conn, true);  // kernel buffer full mid-frame
        return;
      }
    }
    if (!failed) {
      set_want_write(*conn, false);
      if (!conn->close_after_flush) return;
    }
  }
  close_connection(conn);
}

void Server::Impl::close_connection(const std::shared_ptr<Connection>& conn)
    RETRA_IO_THREAD_ONLY {
  const support::MutexLock lock(conn->mutex);
  if (conn->closed) return;
  (void)::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
  connections.erase(conn->fd.get());
  conn->closed = true;
  conn->fd.reset();
  conn->output.clear();
}

bool Server::Impl::any_pending_output() const RETRA_IO_THREAD_ONLY {
  for (const auto& [fd, conn] : connections) {
    const support::MutexLock lock(conn->mutex);
    if (!conn->output.empty()) return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Worker threads.

void Server::Impl::worker_loop() {
  std::vector<Request> batch;
  for (;;) {
    batch.clear();
    {
      const support::MutexLock lock(queue_mutex);
      while (!workers_stop && queue.empty()) queue_cv.wait(queue_mutex);
      if (queue.empty()) {
        if (workers_stop) return;
        continue;
      }
      while (!queue.empty() && batch.size() < server.config_.max_drain) {
        batch.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    process_batch(batch);
  }
}

void Server::Impl::process_batch(std::vector<Request>& batch) {
  std::vector<std::shared_ptr<Connection>> woken;

  // Coalesce the gulp's single QUERYs by level: one Store batch per
  // level regardless of which connections the lookups came from.
  std::map<int, std::vector<std::size_t>> by_level;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].op == Op::kQuery) by_level[batch[i].level].push_back(i);
  }
  std::vector<idx::Index> indices;
  std::vector<db::Value> values;
  for (const auto& [level, slots] : by_level) {
    indices.clear();
    for (const std::size_t slot : slots) {
      indices.push_back(batch[slot].index);
    }
    values.resize(indices.size());
    const std::uint64_t hot =
        server.store_->values(level, indices, values);
    counters.hot_hits.fetch_add(hot);
    RETRA_OBS_ADD(obs::Id::kNetHotHits, hot);
    RETRA_OBS_OBSERVE(obs::Id::kNetCoalescedLookups, indices.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Request& request = batch[slots[i]];
      respond(request.conn, encode_value(request.id, values[i]), woken);
      counters.queries.fetch_add(1);
      observe_latency(request);
    }
  }

  for (const Request& request : batch) {
    switch (request.op) {
      case Op::kQuery:
        break;  // answered above
      case Op::kBatchQuery: {
        values.resize(request.batch.size());
        const std::uint64_t hot =
            server.store_->values(request.level, request.batch, values);
        counters.hot_hits.fetch_add(hot);
        RETRA_OBS_ADD(obs::Id::kNetHotHits, hot);
        RETRA_OBS_OBSERVE(obs::Id::kNetCoalescedLookups,
                          request.batch.size());
        respond(request.conn, encode_batch_values(request.id, values),
                woken);
        counters.batch_queries.fetch_add(1);
        observe_latency(request);
        break;
      }
      case Op::kPing:
        respond(request.conn, encode_pong(request.id), woken);
        counters.pings.fetch_add(1);
        observe_latency(request);
        break;
      case Op::kStats: {
        // Count first so the reply's own counters include this op.
        counters.stats_ops.fetch_add(1);
        respond(request.conn,
                encode_stats_reply(request.id, build_stats_reply()), woken);
        observe_latency(request);
        break;
      }
      default:
        break;  // admission never enqueues anything else
    }
  }

  if (!woken.empty()) wake_io();
}

void Server::Impl::respond(const std::shared_ptr<Connection>& conn,
                           std::vector<std::byte> frame,
                           std::vector<std::shared_ptr<Connection>>& woken) {
  {
    const support::MutexLock lock(conn->mutex);
    if (conn->closed) return;
    conn->output.push_back(std::move(frame));
  }
  if (!conn->wake_queued.exchange(true)) {
    const support::MutexLock lock(wake_mutex);
    pending_wakes.push_back(conn);
    woken.push_back(conn);
  }
}

StatsReply Server::Impl::build_stats_reply() const {
  StatsReply reply;
  reply.connections = counters.connections.load();
  reply.requests = counters.requests.load();
  reply.queries = counters.queries.load();
  reply.batch_queries = counters.batch_queries.load();
  reply.pings = counters.pings.load();
  reply.stats_ops = counters.stats_ops.load();
  reply.errors = counters.errors.load();
  reply.shed = counters.shed.load();
  reply.hot_hits = counters.hot_hits.load();
  const serve::QueryService::Stats service = server.store_->service_stats();
  reply.lookups = service.lookups;
  reply.faults = service.faults;
  reply.evictions = service.evictions;
  reply.resident_bytes = service.resident_bytes;
  reply.level_sizes = server.store_->level_sizes();
  return reply;
}

void Server::Impl::observe_latency(const Request& request) const {
  const std::uint64_t us =
      (uptime.nanoseconds() - request.enqueue_ns) / 1000;
  switch (request.op) {
    case Op::kQuery:
      RETRA_OBS_OBSERVE(obs::Id::kNetQueryMicros, us);
      break;
    case Op::kBatchQuery:
      RETRA_OBS_OBSERVE(obs::Id::kNetBatchMicros, us);
      break;
    default:
      RETRA_OBS_OBSERVE(obs::Id::kNetOtherMicros, us);
      break;
  }
}

}  // namespace retra::net
