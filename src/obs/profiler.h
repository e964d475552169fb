// Hierarchical span profiler: where time goes *inside* a round.
//
// RoundTrace (obs/trace.h) answers "which phase was slow"; the profiler
// answers "which client solve, which epoch, which kernel" by recording
// RAII spans into per-thread event buffers that chrome_trace.h renders
// as Chrome trace-event JSON (open in chrome://tracing or Perfetto).
//
//   Profiler::instance().enable();
//   {
//     Span round("round", "trainer", "round", 7);
//     ...  // nested Spans from any thread land on that thread's track
//   }
//   write_chrome_trace("run.trace.json");  // chrome_trace.h
//
// Cost model: when disabled, constructing a Span is a single relaxed
// atomic load — cheap enough to leave in hot-ish paths unconditionally.
// When enabled, a span is two steady_clock reads plus a push into a
// buffer owned by the recording thread (a per-thread mutex is taken
// uncontended; only drain() ever contends on it). Per-minibatch kernel
// spans are still too hot for release benches, so tensor/ and the prox
// step compile them behind FEDPROX_PROFILE_KERNELS (see the macro at the
// bottom and the CMake option of the same name).
//
// Determinism: recording never draws randomness and never blocks the
// round barrier, so enabling the profiler cannot change TrainHistory.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_annotations.h"

namespace fed {

// One recorded event. Name/category/arg-name pointers must be string
// literals (or otherwise outlive the profiler) — events never own text.
struct ProfileEvent {
  enum class Type : std::uint8_t {
    kComplete,    // Chrome "X": a span with start + duration; must nest
    kAsyncBegin,  // Chrome "b": interval that may overlap others;
    kAsyncEnd,    //        "e"   paired by `id`
    kFlowStart,   // Chrome "s": an arrow leaves the enclosing span here
    kFlowEnd,     // Chrome "f": ... and lands here; paired by `id`
  };

  const char* name = nullptr;
  const char* category = "span";
  Type type = Type::kComplete;
  std::uint32_t tid = 0;       // profiler-assigned thread id
  std::uint64_t id = 0;        // pairs kAsyncBegin with kAsyncEnd
  std::uint64_t start_us = 0;  // microseconds since the profiler epoch
  std::uint64_t dur_us = 0;    // kComplete only
  std::uint8_t num_args = 0;   // occupied slots below
  std::array<const char*, 3> arg_names{};
  std::array<std::int64_t, 3> arg_values{};
};

// Process-wide singleton owning the per-thread buffers. Threads register
// lazily on first record (or via set_thread_name); buffers live until
// process exit so a drained trace can include threads that already died.
class Profiler {
 public:
  static Profiler& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  // The only check on the disabled hot path.
  static bool is_enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Names the calling thread's track ("main", "pool-3"). Cheap; callable
  // whether or not recording is enabled.
  void set_thread_name(std::string name) FED_EXCLUDES(registry_mutex_);

  // Microseconds since the profiler epoch (first instance() call).
  std::uint64_t now_us() const;

  // Unique id for a kAsyncBegin/kAsyncEnd pair.
  std::uint64_t next_async_id() {
    return async_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Appends to the calling thread's buffer. Caller checks is_enabled().
  void record(const ProfileEvent& event) FED_EXCLUDES(registry_mutex_);

  struct Snapshot {
    // Sorted by start_us; ties broken longest-duration-first so parents
    // precede the children they contain.
    std::vector<ProfileEvent> events;
    std::vector<std::pair<std::uint32_t, std::string>> threads;  // tid, name
  };
  // Moves every thread's events out (buffers stay registered) and lists
  // all known threads. Safe to call while other threads record; events
  // recorded concurrently land in the next drain.
  Snapshot drain() FED_EXCLUDES(registry_mutex_);
  // Drops all buffered events without building a snapshot.
  void discard() FED_EXCLUDES(registry_mutex_);

 private:
  // Lock order: registry_mutex_ before any ThreadBuffer::mutex (drain/
  // discard nest them that way; no path acquires in the other order).
  struct ThreadBuffer {
    Mutex mutex;  // uncontended except during drain/discard
    std::vector<ProfileEvent> events FED_GUARDED_BY(mutex);
    std::string name FED_GUARDED_BY(mutex);
    // Assigned once under registry_mutex_ before the buffer is published,
    // then read only by the owning thread and drain(); effectively const.
    std::uint32_t tid = 0;
  };

  Profiler();
  ThreadBuffer& local_buffer() FED_EXCLUDES(registry_mutex_);

  static std::atomic<bool> enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> async_id_{1};
  Mutex registry_mutex_;  // guards buffers_ growth only
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      FED_GUARDED_BY(registry_mutex_);
};

// RAII complete-event span. Construction snapshots the start time (when
// enabled); destruction records the event on the constructing thread.
class Span {
 public:
  explicit Span(const char* name, const char* category = "span") {
    if (Profiler::is_enabled()) begin(name, category);
  }
  Span(const char* name, const char* category, const char* arg_name,
       std::int64_t arg_value) {
    if (Profiler::is_enabled()) {
      begin(name, category);
      add_arg(arg_name, arg_value);
    }
  }
  Span(const char* name, const char* category, const char* arg0_name,
       std::int64_t arg0_value, const char* arg1_name,
       std::int64_t arg1_value) {
    if (Profiler::is_enabled()) {
      begin(name, category);
      add_arg(arg0_name, arg0_value);
      add_arg(arg1_name, arg1_value);
    }
  }
  Span(const char* name, const char* category, const char* arg0_name,
       std::int64_t arg0_value, const char* arg1_name, std::int64_t arg1_value,
       const char* arg2_name, std::int64_t arg2_value) {
    if (Profiler::is_enabled()) {
      begin(name, category);
      add_arg(arg0_name, arg0_value);
      add_arg(arg1_name, arg1_value);
      add_arg(arg2_name, arg2_value);
    }
  }

  Span(Span&& other) noexcept
      : event_(other.event_), active_(std::exchange(other.active_, false)) {}
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      event_ = other.event_;
      active_ = std::exchange(other.active_, false);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  // Attaches one of the three integer args post-construction (ignored
  // when the span is inactive or the slots are full).
  void add_arg(const char* name, std::int64_t value) {
    if (!active_ || event_.num_args >= event_.arg_names.size()) return;
    event_.arg_names[event_.num_args] = name;
    event_.arg_values[event_.num_args] = value;
    ++event_.num_args;
  }

  bool active() const { return active_; }

 private:
  void begin(const char* name, const char* category);
  void finish();

  ProfileEvent event_;
  bool active_ = false;
};

// Flow events: a directed arrow between two spans, possibly on different
// threads (or, once a trace_id rides the wire, different processes).
// Both ends must use the same `name`/`category` literals and the same
// `id` — derive it with derive_trace_span (obs/trace_context.h) so both
// sides agree without sharing state. Each end is an instant bound to the
// span enclosing it at that timestamp; record flow events only inside an
// open Span. Cost when disabled: one relaxed load, like Span.
inline void profile_flow(const char* name, const char* category,
                         std::uint64_t id, ProfileEvent::Type type,
                         const char* arg_name = nullptr,
                         std::int64_t arg_value = 0) {
  if (!Profiler::is_enabled()) return;
  Profiler& profiler = Profiler::instance();
  ProfileEvent event;
  event.name = name;
  event.category = category;
  event.type = type;
  event.id = id;
  event.start_us = profiler.now_us();
  if (arg_name) {
    event.arg_names[0] = arg_name;
    event.arg_values[0] = arg_value;
    event.num_args = 1;
  }
  profiler.record(event);
}

inline void flow_start(const char* name, const char* category,
                       std::uint64_t id, const char* arg_name = nullptr,
                       std::int64_t arg_value = 0) {
  profile_flow(name, category, id, ProfileEvent::Type::kFlowStart, arg_name,
               arg_value);
}

inline void flow_end(const char* name, const char* category, std::uint64_t id,
                     const char* arg_name = nullptr,
                     std::int64_t arg_value = 0) {
  profile_flow(name, category, id, ProfileEvent::Type::kFlowEnd, arg_name,
               arg_value);
}

// True when this build compiled the per-kernel spans in (CMake option
// FEDPROX_PROFILE_KERNELS). Lets benches record which mode they measured.
#if FEDPROX_PROFILE_KERNELS
inline constexpr bool kProfileKernels = true;
#else
inline constexpr bool kProfileKernels = false;
#endif

// Kernel-granularity span, compiled to nothing in default builds: GEMM /
// GEMV and the per-minibatch prox step run thousands of times per round,
// so even the disabled-check is kept out of release binaries.
#if FEDPROX_PROFILE_KERNELS
#define FED_PROFILE_KERNEL_SPAN(...) \
  const ::fed::Span fed_kernel_span_ { __VA_ARGS__ }
#else
#define FED_PROFILE_KERNEL_SPAN(...) \
  do {                               \
  } while (false)
#endif

}  // namespace fed
