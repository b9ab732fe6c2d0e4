#include "cap/format.h"

#include <algorithm>
#include <array>

namespace pbecc::cap {

namespace {

// Sanity bounds applied while decoding: values outside these are treated
// as corruption (fail closed) rather than handed to the pipeline.
constexpr int kMaxCces = 4096;
constexpr std::uint64_t kMaxCellsPerBatch = 64;
constexpr std::uint64_t kMaxHeaderCells = 64;
// Highest PdcchCoding value on the wire.
constexpr auto kMaxCoding = static_cast<std::uint8_t>(phy::PdcchCoding::kPolar);

void encode_fault_profile(const fault::FaultProfile& p, ByteWriter& w) {
  w.put_f64(p.blackout_duty);
  w.put_svarint(p.blackout_period);
  w.put_svarint(p.blackout_from);
  w.put_svarint(p.blackout_until);
  w.put_f64(p.sinr_collapse_per_sec);
  w.put_svarint(p.sinr_collapse_duration);
  w.put_f64(p.sinr_collapse_extra_ber);
  w.put_f64(p.false_dci_per_subframe);
  w.put_f64(p.stall_duty);
  w.put_svarint(p.stall_period);
  w.put_f64(p.feedback_loss);
  w.put_f64(p.feedback_corrupt);
  w.put_svarint(p.feedback_delay_spike);
  w.put_f64(p.feedback_spike_duty);
  w.put_svarint(p.feedback_spike_period);
  w.put_f64(p.handover_storm_duty);
  w.put_svarint(p.handover_storm_period);
  w.put_svarint(p.handover_interval);
}

void decode_fault_profile(ByteReader& r, fault::FaultProfile& p) {
  p.blackout_duty = r.get_f64();
  p.blackout_period = r.get_svarint();
  p.blackout_from = r.get_svarint();
  p.blackout_until = r.get_svarint();
  p.sinr_collapse_per_sec = r.get_f64();
  p.sinr_collapse_duration = r.get_svarint();
  p.sinr_collapse_extra_ber = r.get_f64();
  p.false_dci_per_subframe = r.get_f64();
  p.stall_duty = r.get_f64();
  p.stall_period = r.get_svarint();
  p.feedback_loss = r.get_f64();
  p.feedback_corrupt = r.get_f64();
  p.feedback_delay_spike = r.get_svarint();
  p.feedback_spike_duty = r.get_f64();
  p.feedback_spike_period = r.get_svarint();
  p.handover_storm_duty = r.get_f64();
  p.handover_storm_period = r.get_svarint();
  p.handover_interval = r.get_svarint();
}

}  // namespace

void encode_header(const TraceHeader& h, ByteWriter& w) {
  w.put_varint(h.own_rnti);
  w.put_varint(h.monitor_seed);
  w.put_svarint(h.tracker.window);
  w.put_varint(static_cast<std::uint64_t>(h.tracker.min_active_subframes));
  w.put_f64(h.tracker.min_average_prbs);
  w.put_u8(h.fault_active ? 1 : 0);
  if (h.fault_active) {
    encode_fault_profile(h.fault, w);
    w.put_varint(h.fault_seed);
  }
  w.put_varint(h.cells.size());
  for (const auto& c : h.cells) {
    w.put_varint(c.id);
    w.put_f64(c.bandwidth_mhz);
    w.put_f64(c.carrier_ghz);
    w.put_u8(static_cast<std::uint8_t>(c.pdcch_coding));
    w.put_u8(static_cast<std::uint8_t>(c.rat));
    if (c.rat == phy::Rat::kNr) {
      w.put_u8(static_cast<std::uint8_t>(c.scs));  // value == mu
      w.put_varint(static_cast<std::uint64_t>(c.coreset.rbs));
      w.put_u8(static_cast<std::uint8_t>(c.coreset.symbols));
      for (const std::uint8_t n : c.search_space.candidates) w.put_u8(n);
      w.put_u8(c.mini_slot_preemption ? 1 : 0);
    }
  }
}

bool decode_header(ByteReader& r, TraceHeader& out, std::string& err) {
  out = TraceHeader{};
  out.own_rnti = static_cast<phy::Rnti>(r.get_varint());
  out.monitor_seed = r.get_varint();
  out.tracker.window = r.get_svarint();
  out.tracker.min_active_subframes = static_cast<int>(r.get_varint());
  out.tracker.min_average_prbs = r.get_f64();
  const std::uint8_t fault_flag = r.get_u8();
  if (fault_flag > 1) {
    err = "header: bad fault flag";
    return false;
  }
  out.fault_active = fault_flag == 1;
  if (out.fault_active) {
    decode_fault_profile(r, out.fault);
    out.fault_seed = r.get_varint();
  }
  const std::uint64_t n_cells = r.get_varint();
  if (!r.ok()) {
    err = "header: " + r.error();
    return false;
  }
  if (n_cells == 0 || n_cells > kMaxHeaderCells) {
    err = "header: implausible cell count " + std::to_string(n_cells);
    return false;
  }
  out.cells.reserve(n_cells);
  for (std::uint64_t i = 0; i < n_cells; ++i) {
    phy::CellConfig c;
    c.id = static_cast<phy::CellId>(r.get_varint());
    c.bandwidth_mhz = r.get_f64();
    c.carrier_ghz = r.get_f64();
    const std::uint8_t coding = r.get_u8();
    if (!r.ok()) {
      err = "header: " + r.error();
      return false;
    }
    if (coding > kMaxCoding) {
      err = "header: unknown PDCCH coding " + std::to_string(coding);
      return false;
    }
    c.pdcch_coding = static_cast<phy::PdcchCoding>(coding);
    const std::uint8_t rat = r.get_u8();
    if (!r.ok()) {
      err = "header: " + r.error();
      return false;
    }
    if (rat > static_cast<std::uint8_t>(phy::Rat::kNr)) {
      err = "header: unknown RAT " + std::to_string(rat);
      return false;
    }
    c.rat = static_cast<phy::Rat>(rat);
    if (c.rat == phy::Rat::kNr) {
      const std::uint8_t mu = r.get_u8();
      const std::uint64_t rbs = r.get_varint();
      const std::uint8_t symbols = r.get_u8();
      std::array<std::uint8_t, 5> candidates{};
      for (auto& n : candidates) n = r.get_u8();
      const std::uint8_t mini = r.get_u8();
      if (!r.ok()) {
        err = "header: " + r.error();
        return false;
      }
      if (mu != 0 && mu != 1 && mu != 3) {
        err = "header: unsupported NR numerology mu=" + std::to_string(mu);
        return false;
      }
      if (rbs == 0 || rbs % 6 != 0 || rbs > 1024) {
        err = "header: implausible CORESET rbs " + std::to_string(rbs);
        return false;
      }
      if (symbols < 1 || symbols > 3) {
        err = "header: implausible CORESET symbols " +
              std::to_string(symbols);
        return false;
      }
      if (mini > 1) {
        err = "header: bad mini-slot flag";
        return false;
      }
      c.scs = static_cast<nr::Scs>(mu);
      c.coreset.rbs = static_cast<int>(rbs);
      c.coreset.symbols = symbols;
      c.search_space.candidates = candidates;
      c.mini_slot_preemption = mini == 1;
    }
    out.cells.push_back(c);
  }
  if (!r.ok()) {
    err = "header: " + r.error();
    return false;
  }
  return true;
}

void encode_record(const Record& rec, DeltaState& ds, ByteWriter& w) {
  w.put_u8(static_cast<std::uint8_t>(rec.kind));
  switch (rec.kind) {
    case Record::Kind::kBatch: {
      const BatchRecord& b = rec.batch;
      w.put_svarint(b.sf_index - ds.prev_sf);
      ds.prev_sf = b.sf_index;
      w.put_varint(b.cells.size());
      for (const auto& c : b.cells) {
        w.put_varint(c.cell);
        // Slot clock: slots per subframe, then the capture's slot within
        // the master subframe (c.sf_index on a spsf-per-ms clock).
        const std::int64_t spsf = c.tick > 0 ? util::kSubframe / c.tick : 1;
        w.put_varint(static_cast<std::uint64_t>(spsf));
        w.put_svarint(c.sf_index - b.sf_index * spsf);
        w.put_varint(static_cast<std::uint64_t>(c.n_cces));
        w.put_u8(static_cast<std::uint8_t>(c.coding));
        w.put_f64(c.control_ber);
        w.put_f64(c.bits_per_prb);
        const auto bytes = c.bits.to_bytes();
        w.put_bytes(bytes.data(), bytes.size());
        util::BitVec energy;
        constexpr std::size_t kWordBits = util::BitVec::kWordBits;
        const auto n_cces = static_cast<std::size_t>(std::max(c.n_cces, 0));
        for (std::size_t w = 0; w * kWordBits < n_cces; ++w) {
          const std::size_t k = std::min(kWordBits, n_cces - w * kWordBits);
          energy.push_uint(phy::energy_word(c.cce_used, w) >> (kWordBits - k),
                           k);
        }
        const auto ebytes = energy.to_bytes();
        w.put_bytes(ebytes.data(), ebytes.size());
      }
      break;
    }
    case Record::Kind::kWindow:
      w.put_svarint(rec.window.t - ds.prev_t);
      ds.prev_t = rec.window.t;
      w.put_svarint(rec.window.window);
      break;
    case Record::Kind::kProbe:
      w.put_svarint(rec.probe.t - ds.prev_t);
      ds.prev_t = rec.probe.t;
      break;
  }
}

bool decode_record(ByteReader& r, DeltaState& ds, Record& out,
                   std::string& err) {
  out = Record{};
  const std::uint8_t tag = r.get_u8();
  if (!r.ok()) {
    err = "record: " + r.error();
    return false;
  }
  switch (tag) {
    case static_cast<std::uint8_t>(Record::Kind::kBatch): {
      out.kind = Record::Kind::kBatch;
      out.batch.sf_index = ds.prev_sf + r.get_svarint();
      ds.prev_sf = out.batch.sf_index;
      const std::uint64_t n = r.get_varint();
      if (!r.ok()) break;
      if (n > kMaxCellsPerBatch) {
        err = "record: implausible batch cell count " + std::to_string(n);
        return false;
      }
      out.batch.cells.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        CellCapture c;
        c.cell = static_cast<phy::CellId>(r.get_varint());
        const std::uint64_t spsf = r.get_varint();
        const std::int64_t slot = r.get_svarint();
        if (!r.ok()) break;
        if (spsf == 0 || spsf > 16 || (spsf & (spsf - 1)) != 0) {
          err = "record: implausible slots/subframe " + std::to_string(spsf);
          return false;
        }
        if (slot < 0 || slot >= static_cast<std::int64_t>(spsf)) {
          err = "record: slot " + std::to_string(slot) +
                " outside subframe (spsf=" + std::to_string(spsf) + ")";
          return false;
        }
        c.tick = util::kSubframe / static_cast<util::Duration>(spsf);
        c.sf_index =
            out.batch.sf_index * static_cast<std::int64_t>(spsf) + slot;
        const std::uint64_t n_cces = r.get_varint();
        if (!r.ok()) break;
        if (n_cces == 0 || n_cces > kMaxCces) {
          err = "record: implausible CCE count " + std::to_string(n_cces);
          return false;
        }
        c.n_cces = static_cast<int>(n_cces);
        const std::uint8_t coding = r.get_u8();
        if (coding > kMaxCoding) {
          err = "record: unknown PDCCH coding " + std::to_string(coding);
          return false;
        }
        c.coding = static_cast<phy::PdcchCoding>(coding);
        c.control_ber = r.get_f64();
        c.bits_per_prb = r.get_f64();
        const std::size_t nbits =
            static_cast<std::size_t>(c.n_cces) * phy::kBitsPerCce;
        const std::uint8_t* bytes = r.get_bytes((nbits + 7) / 8);
        if (bytes == nullptr) break;
        c.bits = util::BitVec::from_bytes(bytes, nbits);
        const auto ncces = static_cast<std::size_t>(c.n_cces);
        const std::uint8_t* ebytes = r.get_bytes((ncces + 7) / 8);
        if (ebytes == nullptr) break;
        c.cce_used = util::BitVec::from_bytes(ebytes, ncces);
        out.batch.cells.push_back(std::move(c));
      }
      break;
    }
    case static_cast<std::uint8_t>(Record::Kind::kWindow):
      out.kind = Record::Kind::kWindow;
      out.window.t = ds.prev_t + r.get_svarint();
      ds.prev_t = out.window.t;
      out.window.window = r.get_svarint();
      break;
    case static_cast<std::uint8_t>(Record::Kind::kProbe):
      out.kind = Record::Kind::kProbe;
      out.probe.t = ds.prev_t + r.get_svarint();
      ds.prev_t = out.probe.t;
      break;
    default:
      err = "record: unknown tag " + std::to_string(tag);
      return false;
  }
  if (!r.ok()) {
    err = "record: " + r.error();
    return false;
  }
  return true;
}

}  // namespace pbecc::cap
