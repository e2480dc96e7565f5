#include "reference.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <barrier>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace retra::e2e {

namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kWordsPerThread = std::size_t{3} << 20;  // 24 MB
constexpr int kRounds = 200;
constexpr int kUpdatesPerRound = 20000;
constexpr int kSweeps = 20;
constexpr int kRoundTrips = 5000;
constexpr std::size_t kMessageBytes = 16;

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t got = ::read(fd, bytes, size);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    bytes += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t put = ::write(fd, bytes, size);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    bytes += put;
    size -= static_cast<std::size_t>(put);
  }
  return true;
}

double seconds_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// kMemory: hashed read-modify-writes with a barrier between rounds,
/// then dependent sweeps over the same words.
double memory_loop(std::vector<std::vector<std::uint64_t>>& words) {
  std::barrier sync(static_cast<std::ptrdiff_t>(kThreads));
  const auto body = [&](std::size_t t) {
    std::vector<std::uint64_t>& mine = words[t];
    std::uint64_t x = 0x9e3779b97f4a7c15ULL * (t + 1);
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kUpdatesPerRound; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t h = x;
        for (int k = 0; k < 4; ++k) {
          h ^= h >> 29;
          h *= 0xbf58476d1ce4e5b9ULL;
        }
        mine[(h >> 20) % kWordsPerThread] += h & 3;
      }
      sync.arrive_and_wait();
    }
    std::uint64_t sum = x;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::uint64_t& word : mine) {
        sum += word;
        word = sum;
      }
    }
  };
  const std::uint64_t start = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
  return seconds_since(start);
}

/// kLoopback: TCP round trips between two threads over 127.0.0.1.
double loopback_loop() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t length = sizeof address;
  auto* generic = reinterpret_cast<sockaddr*>(&address);
  if (listener < 0 || ::bind(listener, generic, length) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, generic, &length) != 0) {
    if (listener >= 0) ::close(listener);
    return -1.0;
  }
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  const int connected =
      client < 0 ? -1 : ::connect(client, generic, sizeof address);
  const int server = connected == 0 ? ::accept(listener, nullptr, nullptr) : -1;
  ::close(listener);
  double seconds = -1.0;
  if (server >= 0) {
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::thread echo([server] {
      char message[kMessageBytes];
      for (int i = 0; i < kRoundTrips; ++i) {
        if (!read_all(server, message, sizeof message) ||
            !write_all(server, message, sizeof message)) {
          return;
        }
      }
    });
    char message[kMessageBytes] = {};
    bool ok = true;
    const std::uint64_t start = now_ns();
    for (int i = 0; ok && i < kRoundTrips; ++i) {
      ok = write_all(client, message, sizeof message) &&
           read_all(client, message, sizeof message);
    }
    if (ok) seconds = seconds_since(start);
    ::shutdown(client, SHUT_RDWR);
    echo.join();
    ::close(server);
  }
  if (client >= 0) ::close(client);
  return seconds;
}

/// The helper's main loop: one reply per command byte, until EOF.
[[noreturn]] void helper(int command_fd, int reply_fd) {
  std::vector<std::vector<std::uint64_t>> words(
      kThreads, std::vector<std::uint64_t>(kWordsPerThread, 1));
  char kind = 0;
  while (read_all(command_fd, &kind, 1)) {
    const double seconds =
        kind == static_cast<char>(Reference::Kind::kMemory) ? memory_loop(words)
        : kind == static_cast<char>(Reference::Kind::kLoopback)
            ? loopback_loop()
            : -1.0;
    if (!write_all(reply_fd, &seconds, sizeof seconds)) break;
  }
  ::_exit(0);
}

}  // namespace

Reference::Reference() {
  int command[2];
  int reply[2];
  if (::pipe(command) != 0) {
    throw std::runtime_error("reference: pipe failed");
  }
  if (::pipe(reply) != 0) {
    ::close(command[0]);
    ::close(command[1]);
    throw std::runtime_error("reference: pipe failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    for (const int fd : {command[0], command[1], reply[0], reply[1]}) {
      ::close(fd);
    }
    throw std::runtime_error("reference: fork failed");
  }
  if (pid_ == 0) {
    ::close(command[1]);
    ::close(reply[0]);
    helper(command[0], reply[1]);
  }
  ::close(command[0]);
  ::close(reply[1]);
  command_fd_ = command[1];
  reply_fd_ = reply[0];
}

Reference::~Reference() {
  ::close(command_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double Reference::seconds(Kind kind) {
  const char byte = static_cast<char>(kind);
  double seconds = -1.0;
  if (!write_all(command_fd_, &byte, 1) ||
      !read_all(reply_fd_, &seconds, sizeof seconds) || seconds <= 0.0) {
    throw std::runtime_error(std::string("reference loop '") + byte +
                             "' failed");
  }
  return seconds;
}

double directory_reference_seconds(const std::string& root) {
  const std::string path = root + "/reference-dir";
  ::rmdir(path.c_str());  // left behind only by a run killed mid-pair
  const std::uint64_t start = now_ns();
  if (::mkdir(path.c_str(), 0700) != 0 || ::rmdir(path.c_str()) != 0) {
    throw std::runtime_error("directory reference failed in " + root);
  }
  return seconds_since(start);
}

double Reference::nominal_seconds(Kind kind) {
  // Typical times on the 4-vCPU measurement host in a quiet stretch; any
  // fixed value works, these keep normalized times near measured ones.
  return kind == Kind::kMemory ? 0.20 : 0.10;
}

}  // namespace retra::e2e
