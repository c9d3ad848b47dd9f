// A small epoll-based event loop for the real-socket transport.
//
// The simulator covers the evaluation; this loop (plus FrameConnection and
// TcpHost) lets the same wire-format messages run over actual TCP sockets —
// the deployment path a production user of the library would take.
//
// Single-threaded: all callbacks run on the thread calling run()/poll().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/time.h"

namespace domino::net::tcp {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;
  using TimerCallback = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for the given epoll event mask (EPOLLIN/EPOLLOUT/...).
  void add_fd(int fd, std::uint32_t events, FdCallback callback);
  void modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  /// One-shot timer relative to now (steady clock).
  void schedule(Duration delay, TimerCallback callback);

  /// Monotonic time since the loop was created.
  [[nodiscard]] TimePoint now() const;

  /// Process events until stop() is called.
  void run();

  /// Process at most one epoll wait (with `max_wait` timeout); returns the
  /// number of fd events handled. Expired timers always run.
  int poll(Duration max_wait);

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  struct Timer {
    TimePoint at;
    std::uint64_t seq;
    TimerCallback callback;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void run_expired_timers();
  [[nodiscard]] int next_timeout_ms() const;

  int epoll_fd_ = -1;
  bool stopped_ = false;
  std::uint64_t timer_seq_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::unordered_map<int, FdCallback> callbacks_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
};

}  // namespace domino::net::tcp
