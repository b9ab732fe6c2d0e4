// Swiss-army knife for .pbt PDCCH capture traces (DESIGN.md §11):
//
//   trace_tool info FILE            header + stream summary
//   trace_tool stats FILE           per-cell and per-record-kind breakdown
//   trace_tool cut IN OUT FROM TO   extract subframes [FROM, TO] into OUT
//   trace_tool merge OUT IN...      concatenate same-config traces
//   trace_tool verify FILE          strict integrity check (exit 1 on damage)
//
// info/stats tolerate a damaged tail (they report the valid prefix and the
// damage); verify fails closed on any CRC mismatch, truncation or ordering
// violation. FROM and TO are whole subframe indices; anything else exits 2.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cap/tools.h"
#include "fault/fault.h"
#include "util/cli.h"

using namespace pbecc;

namespace {

const char* coding_name(phy::PdcchCoding c) {
  switch (c) {
    case phy::PdcchCoding::kRepetition:
      return "repetition";
    case phy::PdcchCoding::kConvolutional:
      return "convolutional";
    case phy::PdcchCoding::kPolar:
      return "polar";
  }
  return "unknown";
}

void print_header(std::uint16_t version, const cap::TraceHeader& h) {
  std::printf("format:      PBT1 v%u\n", version);
  std::printf("own RNTI:    0x%04x\n", h.own_rnti);
  std::printf("monitor:     seed=%llu tracker{window=%lldms, Ta>=%d, Pa>=%.1f}\n",
              static_cast<unsigned long long>(h.monitor_seed),
              static_cast<long long>(h.tracker.window / util::kMillisecond),
              h.tracker.min_active_subframes, h.tracker.min_average_prbs);
  std::printf("fault:       %s\n", h.fault_active ? "active" : "none");
  if (h.fault_active) {
    std::printf("fault seed:  %llu\n",
                static_cast<unsigned long long>(h.fault_seed));
  }
  std::printf("cells:       %zu (primary first)\n", h.cells.size());
  for (const auto& c : h.cells) {
    if (c.rat == phy::Rat::kNr) {
      std::printf("  cell %u: NR %d kHz, ", c.id, nr::scs_khz(c.scs));
    } else {
      std::printf("  cell %u: LTE, ", c.id);
    }
    std::printf("%.1f MHz @ %.1f GHz, %d CCEs, %s PDCCH\n", c.bandwidth_mhz,
                c.carrier_ghz, c.n_cces(), coding_name(c.pdcch_coding));
  }
}

void print_stream(const cap::TraceSummary& s) {
  std::printf("records:     %llu in %llu chunks (%llu batches, %llu window "
              "sets, %llu probes)\n",
              static_cast<unsigned long long>(s.records),
              static_cast<unsigned long long>(s.chunks),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.window_sets),
              static_cast<unsigned long long>(s.probes));
  if (s.batches > 0) {
    std::printf("subframes:   %lld .. %lld (%.1f s of airtime, %llu "
                "cell-subframes)\n",
                static_cast<long long>(s.first_sf),
                static_cast<long long>(s.last_sf),
                util::to_seconds((s.last_sf - s.first_sf + 1) * util::kSubframe),
                static_cast<unsigned long long>(s.cell_subframes));
  }
  if (s.complete) {
    std::printf("integrity:   complete\n");
  } else {
    std::printf("integrity:   DAMAGED after valid prefix: %s\n",
                s.damage.c_str());
  }
}

int cmd_info(const std::string& path) {
  cap::TraceSummary s;
  std::string err;
  if (!cap::summarize(path, s, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  print_header(s.version, s.header);
  print_stream(s);
  return s.complete ? 0 : 1;
}

// Recover the canned-profile name from the header's fault schedule by
// comparing against the registry; a schedule set programmatically that
// matches no canned profile reports as "custom".
std::string fault_profile_name(const cap::TraceHeader& h) {
  if (!h.fault_active) return "none";
  for (const auto& name : fault::profile_names()) {
    const auto p = fault::profile_by_name(name);
    if (p && p->active() && *p == h.fault) return name;
  }
  return "custom";
}

int cmd_stats(const std::string& path) {
  cap::TraceSummary s;
  std::string err;
  if (!cap::summarize(path, s, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  print_stream(s);
  std::printf("fault:       %s", fault_profile_name(s.header).c_str());
  if (s.header.fault_active) {
    std::printf(" (seed %llu)",
                static_cast<unsigned long long>(s.header.fault_seed));
  }
  std::printf("\n");
  for (const auto& [cell, n] : s.cell_counts) {
    const double pct =
        s.cell_subframes > 0
            ? 100.0 * static_cast<double>(n) / static_cast<double>(s.cell_subframes)
            : 0.0;
    std::printf("  cell %u: %llu subframes (%.1f%%)\n", cell,
                static_cast<unsigned long long>(n), pct);
  }
  if (s.window_sets + s.probes > 0) {
    std::printf("timed span:  %.3f s .. %.3f s\n", util::to_seconds(s.first_t),
                util::to_seconds(s.last_t));
  }
  return s.complete ? 0 : 1;
}

int cmd_cut(const std::string& in, const std::string& out, const char* from,
            const char* to) {
  constexpr long long kMaxSf = std::numeric_limits<long long>::max();
  const long long sf_from = util::whole_number_arg("FROM_SF", from, 0, kMaxSf);
  const long long sf_to = util::whole_number_arg("TO_SF", to, 0, kMaxSf);
  std::string err;
  if (!cap::cut(in, out, sf_from, sf_to, err)) {
    std::fprintf(stderr, "cut: %s\n", err.c_str());
    return 1;
  }
  cap::TraceSummary s;
  if (cap::summarize(out, s, err)) {
    std::printf("cut: %llu records -> %s\n",
                static_cast<unsigned long long>(s.records), out.c_str());
  }
  return 0;
}

int cmd_merge(const std::string& out, std::vector<std::string> inputs) {
  std::string err;
  if (!cap::merge(inputs, out, err)) {
    std::fprintf(stderr, "merge: %s\n", err.c_str());
    return 1;
  }
  cap::TraceSummary s;
  if (cap::summarize(out, s, err)) {
    std::printf("merge: %zu traces, %llu records -> %s\n", inputs.size(),
                static_cast<unsigned long long>(s.records), out.c_str());
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  cap::TraceSummary s;
  std::string err;
  if (!cap::verify(path, s, err)) {
    std::fprintf(stderr, "verify: FAILED: %s\n", err.c_str());
    return 1;
  }
  std::printf("verify: OK — %llu records, %llu chunks, all CRCs clean, "
              "stream ordered\n",
              static_cast<unsigned long long>(s.records),
              static_cast<unsigned long long>(s.chunks));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: trace_tool info FILE\n"
               "       trace_tool stats FILE\n"
               "       trace_tool cut IN OUT FROM_SF TO_SF\n"
               "       trace_tool merge OUT IN1 [IN2 ...]\n"
               "       trace_tool verify FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
  if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
  if (cmd == "cut" && argc == 6) return cmd_cut(argv[2], argv[3], argv[4], argv[5]);
  if (cmd == "merge" && argc >= 4) {
    std::vector<std::string> inputs(argv + 3, argv + argc);
    return cmd_merge(argv[2], std::move(inputs));
  }
  if (cmd == "verify" && argc == 3) return cmd_verify(argv[2]);
  return usage();
}
