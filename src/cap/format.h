// The versioned .pbt binary trace format (DESIGN.md §11).
//
// A trace is everything the PBE-CC measurement pipeline consumes for one
// connection: the monitor's configuration (cells, coding mode, RNTI, seed,
// tracker thresholds, fault schedule) in a self-describing header, then a
// stream of three record kinds —
//   * batch  — one PDCCH tick: every monitored cell's clean control region
//              and per-CCE energy map, plus the control BER and own-CSI
//              bits/PRB the pipeline applied to it (sf_index delta-coded
//              between batches);
//   * window — an RTprop-driven averaging-window update (estimator +
//              tracker), delta-timed against the previous timed record;
//   * probe  — an ACK-time estimator query point (Cf/Cp/active-cells are
//              recomputed on replay, never stored).
// Records are framed into chunks, each protected by a CRC-32, so a
// truncated or bit-flipped file is reported as a structured error instead
// of being decoded into garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cap/wire.h"
#include "decoder/user_tracker.h"
#include "fault/fault.h"
#include "phy/cell_config.h"
#include "phy/pdcch.h"
#include "util/time.h"

namespace pbecc::cap {

inline constexpr std::uint8_t kMagic[4] = {'P', 'B', 'T', '1'};
// The one version this build writes and reads. Version 2 added 5G NR:
// per-cell RAT + numerology + CORESET/search-space layout in the header,
// the kPolar coding mode, and per-cell slot indices in batch records (an
// NR cell contributes one capture per slot, not per 1 ms subframe). Older
// traces are regenerated, not migrated.
inline constexpr std::uint16_t kFormatVersion = 2;
// Upper bound on any length field read from disk; anything larger is
// treated as corruption rather than allocated.
inline constexpr std::uint32_t kMaxChunkBytes = 1u << 26;  // 64 MiB

// Everything needed to rebuild the live pipeline: Monitor(rnti, cells,
// seed, tracker config, fault injector) + CapacityEstimator(primary =
// cells.front()). The cell list keeps configuration order (primary first).
struct TraceHeader {
  phy::Rnti own_rnti = 0;
  std::uint64_t monitor_seed = 0;
  decoder::UserTrackerConfig tracker{};
  bool fault_active = false;
  fault::FaultProfile fault{};
  std::uint64_t fault_seed = 0;
  std::vector<phy::CellConfig> cells;

  bool operator==(const TraceHeader&) const = default;
};

// One cell's slice of a batch record.
struct CellCapture {
  phy::CellId cell = 0;
  // Tick index on the cell's own slot clock and that clock's period. The
  // instant captured is sf_index * tick. For LTE cells tick ==
  // util::kSubframe and sf_index equals the batch's subframe index; an NR
  // cell at 2^mu slots/subframe appears 2^mu times per batch with
  // consecutive sf_index values. The record stores the pair as
  // (slots_per_subframe, slot-within-subframe) per cell.
  std::int64_t sf_index = 0;
  util::Duration tick = util::kSubframe;
  int n_cces = 0;
  phy::PdcchCoding coding = phy::PdcchCoding::kRepetition;
  double control_ber = 0;   // base BER the monitor's ber_fn returned
  double bits_per_prb = 0;  // own-CSI Rw hint fed to the estimator
  util::BitVec bits;        // clean control region, n_cces * 72 bits
  // Per-CCE transmit-energy map (n_cces bits, phy::PdcchSubframe's
  // layout): real monitors sense energy before blind-decoding, and the
  // decoder prunes candidates over silent CCEs — replay needs the same map
  // to try the same candidates. It is recorded through phy::energy_word,
  // so a CCE past the end of a short map is recorded energized, as noise
  // and decode treat it.
  util::BitVec cce_used;

  bool operator==(const CellCapture&) const = default;
};

struct BatchRecord {
  std::int64_t sf_index = 0;  // master 1 ms subframe index
  std::vector<CellCapture> cells;

  bool operator==(const BatchRecord&) const = default;
};

struct WindowRecord {
  util::Time t = 0;
  util::Duration window = 0;

  bool operator==(const WindowRecord&) const = default;
};

struct ProbeRecord {
  util::Time t = 0;

  bool operator==(const ProbeRecord&) const = default;
};

struct Record {
  enum class Kind : std::uint8_t { kBatch = 1, kWindow = 2, kProbe = 3 };
  Kind kind = Kind::kBatch;
  BatchRecord batch;
  WindowRecord window;
  ProbeRecord probe;
};

// Delta-coding state threaded through a record stream; both sides must
// walk records in the same order. Chunk boundaries do not reset it.
struct DeltaState {
  std::int64_t prev_sf = 0;
  util::Time prev_t = 0;
};

// --- Header codec (payload only; file-level framing is the writer's and
// reader's job). decode returns false with `err` set on malformed input.
void encode_header(const TraceHeader& h, ByteWriter& w);
bool decode_header(ByteReader& r, TraceHeader& out, std::string& err);

// --- Record codec.
void encode_record(const Record& rec, DeltaState& ds, ByteWriter& w);
bool decode_record(ByteReader& r, DeltaState& ds, Record& out,
                   std::string& err);

}  // namespace pbecc::cap
