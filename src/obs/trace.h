// Structured event tracing keyed on the simulation clock.
//
// Modules emit fixed-size typed events (DCI decoded, HARQ retransmission,
// capacity update, sender mode switch, ...) into one in-memory ring buffer;
// at the end of a run the buffer exports to JSONL (one event per line) or
// to the Chrome trace_event format (load in chrome://tracing or Perfetto,
// where each event category renders as its own timeline track).
//
// Timestamps are util::Time (simulation microseconds), never wall clock, so
// decoder, estimator, MAC and transport events line up on one timebase.
//
// Cost model: emit() is one branch when no trace is active. High-frequency
// kinds (per-DCI, per-feedback) can additionally be sampled 1-in-N at
// runtime via TraceConfig.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/time.h"

namespace pbecc::obs {

enum class EventKind : std::uint8_t {
  // decoder
  kDciDecoded = 0,     // id=cell, id2=rnti, a=n_prbs, x=bits_per_prb, y=AL
  kSubframeObserved,   // id=cell, a=data_users, x=own_prbs, y=idle_prbs
  kFusionIncomplete,   // id=missing cell, a=sf_index
  // pbe
  kCapacityUpdate,     // a=active_cells, x=Cp bits/sf, y=Cf bits/sf
  kFeedbackSent,       // a=client state, x=rate_bps, y=owd_ms
  kClientStateSwitch,  // a=new state, id2=old state
  kSenderModeSwitch,   // a=1 enter Internet mode, 0 back to cellular
  // mac
  kHarqRetx,           // id=cell, id2=ue, a=harq process, x=n_prbs
  kTbAbandoned,        // id=cell, id2=ue, a=tb_seq
  kHandover,           // id=new primary cell, id2=ue, a=n_cells
  kCaChange,           // id2=ue, a=active cells now, x=active cells before
  kQueueDrop,          // id2=ue, a=bytes
  // net
  kPacketLoss,         // id2=flow, a=seq, x=bytes
  kRtoFired,           // id2=flow, x=bytes presumed lost
  // fault
  kFaultInjected,      // id=cell, id2=fault type (fault::FaultType), a=detail
  kDegradationSwitch,  // id2=old state, a=new state (pbe::DegradationState)
  kEstimatorCrossCheck,  // id2=1 diverged / 0 agreed, x=phy_bps, y=delay_bps
  kKindCount,          // sentinel
};

inline constexpr int kNumEventKinds = static_cast<int>(EventKind::kKindCount);

// Exporter metadata: display name, category (= Chrome trace track), field
// labels for the payload slots (nullptr = slot unused), and whether the
// kind is high-frequency (subject to TraceConfig::sample_every).
struct EventSchema {
  const char* name;
  const char* category;
  const char* f_id;
  const char* f_id2;
  const char* f_a;
  const char* f_x;
  const char* f_y;
  bool high_freq;
};
const EventSchema& schema(EventKind k);

struct Event {
  util::Time t = 0;          // simulation time, microseconds
  EventKind kind{};
  std::uint16_t id = 0;      // small id (cell)
  std::uint32_t id2 = 0;     // rnti / ue / flow
  std::int64_t a = 0;
  double x = 0;
  double y = 0;
};

struct TraceConfig {
  std::size_t capacity = 1u << 18;  // ring capacity, in events (~10 MB)
  std::uint32_t sample_every = 1;   // keep 1 in N high-frequency events
};

class Trace {
 public:
  static Trace& instance();

  void start(TraceConfig cfg = {});
  void stop();             // stops recording; the buffer stays readable
  void clear();            // stop + drop the buffer
  bool active() const { return active_; }

  void record(const Event& e);

  // Barrier flush for sharded scenarios (DESIGN.md §15): apply a batch of
  // events under one lock, in order, with the same sampling/ring logic as
  // record(). Domains buffer events into per-thread sinks during the
  // parallel phase and the scenario flushes the buffers in domain-index
  // order at each barrier, so the ring contents (and digest()) are a
  // function of the domain event sequences alone — byte-identical for any
  // worker count.
  void record_batch(const std::vector<Event>& events);

  // Events currently retained, oldest first (ring order restored).
  std::vector<Event> snapshot() const;
  std::size_t size() const { return ring_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  // Events overwritten after the ring wrapped.
  std::uint64_t dropped() const { return dropped_; }
  // High-frequency events skipped by sampling.
  std::uint64_t sampled_out() const { return sampled_out_; }

  bool write_jsonl(const std::string& path) const;
  bool write_chrome(const std::string& path) const;

  // Order-sensitive FNV-1a hash over every retained event's fields, oldest
  // first. Two runs with byte-identical traces produce equal digests; the
  // determinism suite compares digests across thread counts.
  std::uint64_t digest() const;

 private:
  Trace() = default;

  void record_locked(const Event& e);

  // record() may be called from pool threads (parallel scenario
  // replications both tracing into the global ring); the ring, cursors and
  // counters are guarded by one mutex. emit()'s fast path (no active
  // trace) stays lock-free.
  mutable std::mutex m_;
  bool active_ = false;
  TraceConfig cfg_;
  std::vector<Event> ring_;
  std::size_t next_ = 0;  // write position once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t hf_seq_ = 0;
};

namespace detail {
// Null when no trace is active: emit() stays a single test-and-branch.
inline Trace* g_trace = nullptr;
// When set, emit() on this thread appends raw events to the sink instead of
// the global ring; sampling and ring logic are deferred to record_batch().
inline thread_local std::vector<Event>* g_sink = nullptr;
}  // namespace detail

// Redirect this thread's emitted events into `sink` (nullptr restores the
// global ring). Used by sharded scenario stepping; pair with
// Trace::record_batch at the barrier.
inline void set_thread_sink(std::vector<Event>* sink) {
  detail::g_sink = sink;
}

// RAII form for exception safety around a domain step.
struct ThreadSinkScope {
  explicit ThreadSinkScope(std::vector<Event>* sink)
      : prev_(detail::g_sink) {
    detail::g_sink = sink;
  }
  ~ThreadSinkScope() { detail::g_sink = prev_; }
  ThreadSinkScope(const ThreadSinkScope&) = delete;
  ThreadSinkScope& operator=(const ThreadSinkScope&) = delete;

 private:
  std::vector<Event>* prev_;
};

// True while a trace is collecting. Call sites with instrumentation that
// is expensive to *compute* (not just to record) can skip the work when
// nothing is listening.
inline bool tracing_active() { return detail::g_trace != nullptr; }

inline void emit(EventKind kind, util::Time t, std::uint16_t id,
                 std::uint32_t id2, std::int64_t a = 0, double x = 0,
                 double y = 0) {
  if (detail::g_trace != nullptr) {
    if (detail::g_sink != nullptr) {
      detail::g_sink->push_back(Event{t, kind, id, id2, a, x, y});
    } else {
      detail::g_trace->record(Event{t, kind, id, id2, a, x, y});
    }
  }
}

}  // namespace pbecc::obs
