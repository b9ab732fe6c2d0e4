#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/digest.h"

namespace pbecc::obs {

namespace {

constexpr EventSchema kSchemas[kNumEventKinds] = {
    // name, category, f_id, f_id2, f_a, f_x, f_y, high_freq
    {"dci_decoded", "decoder", "cell", "rnti", "n_prbs", "bits_per_prb", "al",
     true},
    {"subframe_observed", "decoder", "cell", nullptr, "data_users", "own_prbs",
     "idle_prbs", true},
    {"fusion_incomplete", "decoder", "cell", nullptr, "sf_index", nullptr,
     nullptr, false},
    {"capacity_update", "pbe", nullptr, nullptr, "active_cells", "cp_bits_sf",
     "cf_bits_sf", true},
    {"feedback_sent", "pbe", nullptr, nullptr, "state", "rate_bps", "owd_ms",
     true},
    {"client_state_switch", "pbe", nullptr, "old_state", "new_state", nullptr,
     nullptr, false},
    {"sender_mode_switch", "pbe", nullptr, nullptr, "internet_mode", nullptr,
     nullptr, false},
    {"harq_retx", "mac", "cell", "ue", "process", "n_prbs", nullptr, false},
    {"tb_abandoned", "mac", "cell", "ue", "tb_seq", nullptr, nullptr, false},
    {"handover", "mac", "primary_cell", "ue", "n_cells", nullptr, nullptr,
     false},
    {"ca_change", "mac", nullptr, "ue", "active_cells", "previous", nullptr,
     false},
    {"queue_drop", "mac", nullptr, "ue", "bytes", nullptr, nullptr, false},
    {"packet_loss", "net", nullptr, "flow", "seq", "bytes", nullptr, false},
    {"rto_fired", "net", nullptr, "flow", nullptr, "bytes_lost", nullptr,
     false},
    {"fault_injected", "fault", "cell", "fault_type", "detail", nullptr,
     nullptr, false},
    {"degradation_switch", "pbe", nullptr, "old_state", "new_state", nullptr,
     nullptr, false},
    {"estimator_cross_check", "pbe", nullptr, "diverged", nullptr, "phy_bps",
     "delay_bps", false},
};

// Append one `"label": value` fragment per used payload slot.
void append_args(std::string& out, const EventSchema& s, const Event& e,
                 const char* sep) {
  char buf[96];
  bool first = true;
  const auto put = [&](const char* label, const char* fmt, auto value) {
    if (label == nullptr) return;
    if (!first) out += sep;
    first = false;
    out += '"';
    out += label;
    out += "\": ";
    std::snprintf(buf, sizeof(buf), fmt, value);
    out += buf;
  };
  put(s.f_id, "%u", static_cast<unsigned>(e.id));
  put(s.f_id2, "%u", static_cast<unsigned>(e.id2));
  put(s.f_a, "%lld", static_cast<long long>(e.a));
  put(s.f_x, "%.6g", e.x);
  put(s.f_y, "%.6g", e.y);
}

}  // namespace

const EventSchema& schema(EventKind k) {
  return kSchemas[static_cast<int>(k)];
}

Trace::Trace(TraceConfig cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
  ring_.reserve(std::min<std::size_t>(cfg_.capacity, 1u << 16));
}

void Trace::record_batch(const std::vector<Event>& events) {
  for (const Event& e : events) {
    if (schema(e.kind).high_freq && cfg_.sample_every > 1) {
      if (hf_seq_++ % cfg_.sample_every != 0) {
        ++sampled_out_;
        continue;
      }
    }
    ++recorded_;
    if (ring_.size() < cfg_.capacity) {
      ring_.push_back(e);
      continue;
    }
    // Ring full: overwrite the oldest event.
    ring_[next_] = e;
    next_ = (next_ + 1) % cfg_.capacity;
    ++dropped_;
  }
}

std::vector<Event> Trace::snapshot() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = util::kFnv1aOffset;
  // Hash field-by-field (Event has padding between kind and id2).
  for (const Event& e : snapshot()) {
    h = util::fnv1a64_value(e.t, h);
    h = util::fnv1a64_value(static_cast<std::uint8_t>(e.kind), h);
    h = util::fnv1a64_value(e.id, h);
    h = util::fnv1a64_value(e.id2, h);
    h = util::fnv1a64_value(e.a, h);
    h = util::fnv1a64_value(e.x, h);
    h = util::fnv1a64_value(e.y, h);
  }
  return h;
}

bool Trace::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  char head[96];
  for (const Event& e : snapshot()) {
    const EventSchema& s = schema(e.kind);
    std::string line;
    std::snprintf(head, sizeof(head), "{\"t_us\": %lld, \"name\": \"%s\", \"cat\": \"%s\"",
                  static_cast<long long>(e.t), s.name, s.category);
    line += head;
    std::string args;
    append_args(args, s, e, ", ");
    if (!args.empty()) {
      line += ", ";
      line += args;
    }
    line += "}\n";
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      std::fclose(f);
      return false;
    }
  }
  return std::fclose(f) == 0;
}

bool Trace::write_chrome(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string out = "{\"traceEvents\": [\n";
  // One "thread" per category so each renders as its own track.
  const char* cats[] = {"decoder", "pbe", "mac", "net", "fault"};
  constexpr int kNumCats = 5;
  const auto tid_of = [&](const char* cat) {
    for (int i = 0; i < kNumCats; ++i) {
      if (std::string(cat) == cats[i]) return i + 1;
    }
    return 0;
  };
  char buf[160];
  bool first = true;
  for (int i = 0; i < kNumCats; ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ",\n", i + 1, cats[i]);
    first = false;
    out += buf;
  }
  for (const Event& e : snapshot()) {
    const EventSchema& s = schema(e.kind);
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
                  "\"s\": \"t\", \"ts\": %lld, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {",
                  s.name, s.category, static_cast<long long>(e.t),
                  tid_of(s.category));
    out += buf;
    append_args(out, s, e, ", ");
    out += "}}";
    if (out.size() > (1u << 20)) {  // flush in chunks
      if (std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
        std::fclose(f);
        return false;
      }
      out.clear();
    }
  }
  out += "\n]}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace pbecc::obs
