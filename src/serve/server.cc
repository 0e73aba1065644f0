#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "runner/result_sink.h"

namespace hetpipe::serve {
namespace {

PlanServiceOptions ServiceOptions(runner::ThreadPool* pool) {
  PlanServiceOptions options;
  options.pool = pool;
  return options;
}

}  // namespace

PlanServer::PlanServer(runner::PartitionCache* cache, PlanServerOptions options)
    : cache_(cache),
      options_(std::move(options)),
      // k pool threads = k - 1 dedicated workers; at least one worker must
      // exist or Submit would run connections inline on the accept loop.
      pool_(options_.threads <= 0 ? 0 : (options_.threads < 2 ? 2 : options_.threads)),
      service_(cache, ServiceOptions(&pool_)) {}

PlanServer::~PlanServer() {
  RequestShutdown();
  Join();
}

bool PlanServer::Start(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = "socket: " + ErrnoString(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (options_.host.empty() || options_.host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host \"" + options_.host + "\" (want an IPv4 address)";
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = "bind: " + ErrnoString(errno);
    ::close(fd);
    return false;
  }
  if (::listen(fd, 64) != 0) {
    if (error) *error = "listen: " + ErrnoString(errno);
    ::close(fd);
    return false;
  }

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  // Publish the listener fd before any thread that uses it exists.
  listen_fd_.store(fd, std::memory_order_release);
  started_.store(true);
  accept_thread_ = std::thread(&PlanServer::AcceptLoop, this);
  if (!options_.cache_path.empty() && options_.save_interval_s > 0) {
    saver_thread_ = std::thread(&PlanServer::SaverLoop, this);
  }
  return true;
}

void PlanServer::AcceptLoop() {
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  while (!stop_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EBADF/EINVAL after RequestShutdown closed the listener; anything
      // else (e.g. EMFILE) also ends the loop rather than spinning.
      break;
    }
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    {
      util::MutexLock lock(conn_mu_);
      connections_.insert(fd);
      ++active_;
    }
    // If RequestShutdown ran between the stop check above and the insert, its
    // half-close sweep missed this fd — it would stay readable and stall the
    // drain. stop_ is set before the sweep, so seeing it here covers the gap.
    if (stop_.load(std::memory_order_acquire)) ::shutdown(fd, SHUT_RD);
    pool_.Submit([this, fd] { HandleConnection(fd); });
  }
}

void PlanServer::HandleConnection(int fd) {
  FrameReader reader(fd);
  std::string payload;
  std::string error;
  while (true) {
    FrameResult result = reader.Read(options_.max_frame_bytes, &payload, &error);
    if (result != FrameResult::kFrame) break;

    runner::ResultRow row;
    bool want_shutdown = false;
    if (stop_.load(std::memory_order_acquire)) {
      // The connection was half-closed but this frame was already in the
      // kernel buffer; tell the client to go elsewhere instead of answering
      // after "shutdown drained".
      row.Set("v", kProtocolVersion);
      row.Set("ok", false);
      row.Set("error_code", ErrorCodeName(ErrorCode::kShuttingDown));
      row.Set("error", "server is shutting down");
    } else {
      row = service_.HandleJson(payload, &want_shutdown);
    }
    if (!WriteFrame(fd, runner::RowToJson(row), options_.max_frame_bytes, &error)) break;
    if (want_shutdown) RequestShutdown();
  }

  // Unregister BEFORE closing: once close() returns, the kernel may hand the
  // same fd number to a concurrent accept(), and a RequestShutdown sweep that
  // still saw the stale entry would half-close the wrong (new) connection.
  // With the erase first, the sweep either sees this fd while it is still
  // open (harmless — we are past reading from it) or not at all.
  {
    util::MutexLock lock(conn_mu_);
    connections_.erase(fd);
    --active_;
    // Notify INSIDE the critical section: a Join waiter cannot observe
    // active_ == 0 (and let ~PlanServer destroy drain_cv_) until this lock
    // is released, so the notify provably finishes while the condvar is
    // still alive. Notifying after the unlock races destruction — TSan
    // caught exactly that (pthread_cond_broadcast vs pthread_cond_destroy).
    drain_cv_.NotifyAll();
  }
  ::close(fd);
}

void PlanServer::SaverLoop() {
  const auto interval = std::chrono::duration<double>(options_.save_interval_s);
  for (;;) {
    {
      util::MutexLock lock(saver_mu_);
      // stop_ is re-checked under saver_mu_: RequestShutdown sets it before
      // notifying under the same mutex, so the wakeup can never fall into
      // the gap between this check and the block. A spurious wakeup merely
      // saves early, which is harmless.
      if (!stop_.load(std::memory_order_acquire)) {
        saver_cv_.WaitFor(lock, interval);
      }
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::string error;
    if (!cache_->Save(options_.cache_path, &error)) {
      std::fprintf(stderr, "hetpipe_serve: periodic cache save failed: %s\n", error.c_str());
    }
  }
}

void PlanServer::RequestShutdown() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  if (!started_.load()) return;

  // Unblock accept(); the fd itself is closed in Join after the accept
  // thread has certainly stopped using it.
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);

  // Half-close open connections: readers blocked in FrameReader::Read see
  // EOF, but responses in flight still write. HandleConnection owns the full
  // close.
  {
    util::MutexLock lock(conn_mu_);
    for (int fd : connections_) ::shutdown(fd, SHUT_RD);
  }
  // The saver checks stop_ under saver_mu_ before blocking, so passing
  // through the mutex here orders this notify after that check: it either
  // sees stop_ already set, or it is blocked where NotifyAll reaches it.
  // Notifying without the mutex could fire in the unlocked gap between the
  // saver's check and its block and be lost, stalling shutdown by up to one
  // save interval.
  {
    util::MutexLock lock(saver_mu_);
    saver_cv_.NotifyAll();
  }
}

void PlanServer::Join() {
  if (!started_.load()) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
  {
    util::MutexLock lock(conn_mu_);
    while (active_ != 0) {
      drain_cv_.Wait(lock);
    }
  }
  if (saver_thread_.joinable()) saver_thread_.join();
  if (!options_.cache_path.empty()) {
    std::string error;
    if (!cache_->Save(options_.cache_path, &error)) {
      std::fprintf(stderr, "hetpipe_serve: final cache save failed: %s\n", error.c_str());
    }
  }
}

}  // namespace hetpipe::serve
