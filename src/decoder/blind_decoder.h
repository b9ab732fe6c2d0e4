// Blind control-channel decoder — the endpoint measurement front end.
//
// This replaces the paper's USRP+srsLTE decoder (§5): "each decoder decodes
// the control channel by searching every possible message position inside
// the control channel of one subframe and trying all possible formats at
// each location until finding the correct message." We do exactly that
// over the synthetic PDCCH: for every aggregation level (8/4/2/1, plus 16
// on NR), every candidate position, and every DCI format, recover the bits
// (majority vote for repetition coding, Viterbi for the convolutional
// code and its polar stand-in) and validate the RNTI-masked
// CRC plus structural field checks. Decoding runs on the *noisy* control
// region, so weak channels genuinely lose messages.
//
// The search is split into a side-effect-free compute phase and an apply
// phase: decode_compute() only reads the subframe (plus the per-position
// memo cache and scratch it owns), and decode_apply() folds the resulting
// deltas into stats, registry counters and trace events. Monitor runs each
// subframe's apply right after its compute, on the thread that steps the
// cell.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "phy/cell_config.h"
#include "phy/dci.h"
#include "phy/pdcch.h"

namespace pbecc::decoder {

// Index of aggregation level {1, 2, 4, 8, 16} in the per-AL stat arrays.
// AL16 exists only in NR search spaces; LTE decoders never touch lane 4.
constexpr int al_index(int al) {
  return al == 1 ? 0 : al == 2 ? 1 : al == 4 ? 2 : al == 8 ? 3 : 4;
}
inline constexpr int kAggregationLevels[5] = {1, 2, 4, 8, 16};
inline constexpr int kNumAlLanes = 5;

struct DecodeStats {
  std::uint64_t candidates_tried = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t messages_decoded = 0;
  std::uint64_t subframes = 0;
  // Candidates answered from the span memo instead of a fresh decode
  // (the span's soft bits were unchanged since the previous subframe).
  std::uint64_t memo_hits = 0;
  // Decode-path diagnostics (none of them feed the determinism digests):
  // Viterbi runs (one per candidate-format attempt of a memo miss on a
  // convolutional or polar cell; perfbench reads the field under this
  // name), candidate-format attempts retired early because no surviving
  // path could reach the acceptance metric, and attempts rejected by the
  // CRC-first screen before any field parse.
  std::uint64_t lane_batches = 0;
  std::uint64_t early_aborts = 0;
  std::uint64_t screen_rejects = 0;
  // Broken out per aggregation level (index via al_index): the decode
  // success/failure profile per AL is OWL's primary health signal.
  std::array<std::uint64_t, kNumAlLanes> candidates_by_al{};
  std::array<std::uint64_t, kNumAlLanes> crc_failures_by_al{};
  std::array<std::uint64_t, kNumAlLanes> decoded_by_al{};

  bool operator==(const DecodeStats&) const = default;
};

// Everything decode_compute() learned from one subframe, pending apply.
struct DecodeRun {
  struct Found {
    phy::Dci dci;
    int al = 0;
  };
  std::vector<Found> found;  // in (AL descending, position ascending) order
  DecodeStats delta;         // stat increments for this subframe
  std::int64_t sf_index = 0;
  // Tick duration of the decoded subframe's cell clock (1 ms LTE, the slot
  // length for NR): decode_apply stamps trace events at sf_index * tick.
  util::Duration tick = util::kSubframe;
};

// Repetition-coded candidates: majority-vote the repetitions of a
// msg_bits-long message stored in `n_cces` CCEs starting at `first_cce`
// into `out`. Bit b is set when more than half of the repetitions carry a
// one there (2 * ones > reps); votes are counted a word at a time.
void majority_decode(const phy::PdcchSubframe& sf, int first_cce, int n_cces,
                     int msg_bits, util::BitVec& out);

// Repetition-coding agreement check (path-metric stand-in): true when the
// majority-voted `msg` matches >=93% of the repetition bits and the filler
// after them reads >=90% zeros.
bool region_agrees(const phy::PdcchSubframe& sf, int first_cce, int n_cces,
                   const util::BitVec& msg);

class BlindDecoder {
 public:
  explicit BlindDecoder(phy::CellConfig cell);

  // All DCI messages recovered from one subframe's control region.
  // Equivalent to decode_apply(decode_compute(sf)).
  std::vector<phy::Dci> decode(const phy::PdcchSubframe& sf);

  // Phase 1: search the control region. Touches no stats, counters or
  // trace state; only this decoder's memo and scratch change.
  DecodeRun decode_compute(const phy::PdcchSubframe& sf);

  // Phase 2: fold the run's deltas into stats_/registry and emit trace
  // events. Call in deterministic order (e.g. cell order).
  std::vector<phy::Dci> decode_apply(const DecodeRun& run);

  // Carrier reconfiguration: adopt the cell's new parameters (PRB count /
  // control region size / search space), recompute the candidate starts
  // and drop the span memo — memoized candidate outcomes are only valid
  // against the coding geometry they were recorded under. Stats persist
  // across reconfigurations.
  void reconfigure(const phy::CellConfig& cell);

  const DecodeStats& stats() const { return stats_; }
  const phy::CellConfig& cell() const { return cell_; }

 private:
  // Outcome of the format loop at one (AL, position) candidate. Depends
  // only on the span's bits, so it is memoizable across subframes. The
  // abort/screen tallies are memoized too: replaying them on a memo hit
  // keeps every counter byte-identical with the memo disabled.
  struct CandidateResult {
    int attempts = 0;
    int failures = 0;
    int early_aborts = 0;
    int screen_rejects = 0;
    bool memo_hit = false;
    std::optional<phy::Dci> dci;
  };

  // Run the format loop on the candidate at `start` whose bits are in
  // span_: recover each feasible format's message (Viterbi for
  // convolutional and polar cells, majority vote for repetition cells),
  // screen and validate it, and stop at the first format that validates.
  // Adds the Viterbi runs it made to `viterbi_runs`.
  CandidateResult decode_candidate(const phy::PdcchSubframe& sf, int al,
                                   int start, std::uint64_t& viterbi_runs);

  // Decode the AL-`al` candidate at `start`, or answer it from the span
  // memo, and add its outcome to `run`; true when it decoded a message.
  bool try_candidate(const phy::PdcchSubframe& sf, int al, int start,
                     DecodeRun& run);

  // Recompute every AL's candidate starts for a region of `n_cces` CCEs.
  void refresh_starts(int n_cces);

  phy::CellConfig cell_;
  DecodeStats stats_;

  // Span memo, per AL lane then candidate position: if a candidate's exact
  // soft bits reappear (idle spans, static interferers, repeated noise-free
  // payloads), replay the recorded outcome instead of re-running Viterbi /
  // majority voting. Counters are still replayed, keeping metrics
  // byte-identical with the memo disabled.
  struct MemoEntry {
    bool valid = false;
    phy::PdcchCoding coding{};
    util::BitVec span;
    CandidateResult result;
  };
  std::array<std::vector<MemoEntry>, kNumAlLanes> memo_;

  // Candidate starts per AL lane for a control region of starts_n_cces_
  // CCEs, as a mask over the CCEs (bit s set when a candidate starts at
  // CCE s; empty when the lane has none), mirroring the encoder exactly:
  // every AL-aligned start for LTE (whose AL16 lane stays empty), the
  // cell's 38.213 search-space list for NR. A cell's starts change only
  // with its configuration or region size, so they are computed once, not
  // per subframe.
  std::array<util::BitVec, kNumAlLanes> starts_;
  int starts_n_cces_ = -1;

  // The candidate being decoded: its span, the span's vote prefix sums
  // (Viterbi cells only) and the message recovered by the current format
  // attempt; and per subframe, the words of the mask of CCEs claimed by
  // decoded messages (phy::energy_word's layout). Members so the buffers
  // are reused across candidates and subframes instead of reallocated.
  util::BitVec span_;
  std::vector<std::int32_t> prefix_;
  util::BitVec bits_;
  std::vector<std::uint64_t> claimed_;

  // Registry counters cached at construction: decode() runs per subframe
  // per cell and must not pay name lookups on the hot path. All decoder
  // instances share the process-wide aggregate counters.
  struct ObsCounters {
    std::array<obs::Counter*, kNumAlLanes> candidates;
    std::array<obs::Counter*, kNumAlLanes> crc_failures;
    obs::Counter* decoded;
    obs::Counter* subframes;
    obs::Counter* memo_hits;
    obs::Counter* lane_batches;
    obs::Counter* early_aborts;
    obs::Counter* screen_rejects;
  };
  ObsCounters obs_{};
};

}  // namespace pbecc::decoder
