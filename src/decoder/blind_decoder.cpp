#include "decoder/blind_decoder.h"

#include <algorithm>
#include <bit>
#include <string>

#include "nr/coreset.h"
#include "obs/obs.h"
#include "phy/convolutional.h"

namespace pbecc::decoder {

namespace {

// Blind-search format list per RAT: an LTE cell carries exactly the five
// 36.212 formats (byte-identical with the pre-NR decoder), an NR cell
// exactly the three 38.212 ones.
const phy::DciFormat* format_list(const phy::CellConfig& cell, int* n) {
  if (cell.rat == phy::Rat::kNr) {
    *n = static_cast<int>(std::size(phy::kNrDciFormats));
    return phy::kNrDciFormats;
  }
  *n = static_cast<int>(std::size(phy::kLteDciFormats));
  return phy::kLteDciFormats;
}

// Smallest integer `matches` count that satisfies `matches >= frac * total`
// in double arithmetic: the re-encode agreement rule for Viterbi-coded
// candidates, turned into an exact integer threshold.
std::int32_t min_passing_matches(double frac, std::size_t total) {
  auto m = static_cast<std::int32_t>(frac * static_cast<double>(total));
  while (static_cast<double>(m) < frac * static_cast<double>(total)) ++m;
  return m;
}

}  // namespace

BlindDecoder::BlindDecoder(phy::CellConfig cell) : cell_(cell) {
  for (int i = 0; i < kNumAlLanes; ++i) {
    const std::string al = std::to_string(kAggregationLevels[i]);
    obs_.candidates[static_cast<std::size_t>(i)] =
        &obs::counter("decoder.candidates.al" + al);
    obs_.crc_failures[static_cast<std::size_t>(i)] =
        &obs::counter("decoder.crc_failures.al" + al);
  }
  obs_.decoded = &obs::counter("decoder.messages_decoded");
  obs_.subframes = &obs::counter("decoder.subframes_decoded");
  obs_.memo_hits = &obs::counter("decoder.memo_hits");
  obs_.lane_batches = &obs::counter("decoder.lane_batches");
  obs_.early_aborts = &obs::counter("decoder.early_aborts");
  obs_.screen_rejects = &obs::counter("decoder.crc_screen_rejects");
  refresh_starts(cell_.n_cces());
}

void BlindDecoder::reconfigure(const phy::CellConfig& cell) {
  cell_ = cell;
  refresh_starts(cell_.n_cces());
  for (auto& lane : memo_) lane.clear();
}

void BlindDecoder::refresh_starts(int n_cces) {
  starts_n_cces_ = n_cces;
  const bool is_nr = cell_.rat == phy::Rat::kNr;
  for (const int al : kAggregationLevels) {
    util::BitVec& starts = starts_[static_cast<std::size_t>(al_index(al))];
    starts = util::BitVec(static_cast<std::size_t>(std::max(n_cces, 0)));
    const auto add = [&starts](int start) {
      starts.set_bit(static_cast<std::size_t>(start), true);
      return false;
    };
    if (is_nr) {
      nr::visit_candidate_starts(n_cces, al,
                                 cell_.search_space.candidates_for(al), add);
    } else if (al != 16) {  // LTE has no AL16 rung
      for (int start = 0; start + al <= n_cces; start += al) add(start);
    }
    if (starts.popcount(0, starts.size()) == 0) starts = util::BitVec{};
  }
}

void majority_decode(const phy::PdcchSubframe& sf, int first_cce, int n_cces,
                     int msg_bits, util::BitVec& out) {
  const auto len = static_cast<std::size_t>(msg_bits);
  const int reps = phy::repetitions_that_fit(msg_bits, n_cces);
  const auto base = static_cast<std::size_t>(first_cce) * phy::kBitsPerCce;
  // votes > 0  <=>  2 * ones > reps  <=>  ones > reps / 2.
  const auto half = static_cast<unsigned>(reps / 2);
  const int n_planes = std::bit_width(static_cast<unsigned>(reps));
  out.clear();
  for (std::size_t off = 0; off < len; off += util::BitVec::kWordBits) {
    const std::size_t n = std::min(util::BitVec::kWordBits, len - off);
    // Bit-sliced counters: plane[k] holds bit k of every position's count
    // of ones, so one ripple-carry add counts a whole repetition word.
    std::uint64_t plane[32];
    std::fill_n(plane, n_planes, 0);
    for (int r = 0; r < reps; ++r) {
      std::uint64_t carry =
          sf.bits.read_uint(base + static_cast<std::size_t>(r) * len + off, n);
      for (std::size_t k = 0; carry != 0; ++k) {
        const std::uint64_t next = plane[k] & carry;
        plane[k] ^= carry;
        carry = next;
      }
    }
    // ones > half, decided plane by plane from the most significant.
    std::uint64_t greater = 0;
    std::uint64_t equal = ~0ULL;
    for (int k = n_planes; k-- > 0;) {
      const std::uint64_t p = plane[k];
      if (((half >> k) & 1u) != 0) {
        equal &= p;
      } else {
        greater |= equal & p;
        equal &= ~p;
      }
    }
    out.push_uint(greater, n);
  }
}

bool region_agrees(const phy::PdcchSubframe& sf, int first_cce, int n_cces,
                   const util::BitVec& msg) {
  // Path-metric stand-in: the decoded message, re-modulated, must agree
  // with the raw region across every repetition. A true message differs
  // only by channel noise; a phantom formed from a majority over unrelated
  // content disagrees with the repetitions that produced it.
  const int reps =
      phy::repetitions_that_fit(static_cast<int>(msg.size()), n_cces);
  const auto base = static_cast<std::size_t>(first_cce) * phy::kBitsPerCce;
  const auto rep_bits = static_cast<std::size_t>(reps) * msg.size();
  std::size_t mismatches = 0;
  for (int r = 0; r < reps; ++r) {
    mismatches +=
        sf.bits.hamming(base + static_cast<std::size_t>(r) * msg.size(), msg);
  }
  const std::size_t matches = rep_bits - mismatches;
  // 0.93: passes the worst channel we decode through (~4-5% control BER)
  // while rejecting majorities formed over two unrelated messages (~75%).
  if (static_cast<double>(matches) < 0.93 * static_cast<double>(rep_bits)) {
    return false;
  }
  // The filler tail between the last repetition and the aggregation
  // boundary is transmitted as zeros. For single-repetition candidates the
  // repetition check above is vacuous (the majority IS the only copy), and
  // the filler is the only redundancy separating a real message from noise
  // that happened to satisfy the CRC-residue plausibility checks.
  const auto region_bits = static_cast<std::size_t>(n_cces) * phy::kBitsPerCce;
  const auto filler_total = region_bits - rep_bits;
  const std::size_t filler_zeros =
      filler_total - sf.bits.popcount(base + rep_bits, filler_total);
  return filler_total == 0 ||
         static_cast<double>(filler_zeros) >=
             0.9 * static_cast<double>(filler_total);
}

BlindDecoder::CandidateResult BlindDecoder::decode_candidate(
    const phy::PdcchSubframe& sf, int al, int start,
    std::uint64_t& viterbi_runs) {
  const auto region_bits = static_cast<std::size_t>(al) * phy::kBitsPerCce;
  const bool viterbi = sf.coding != phy::PdcchCoding::kRepetition;
  // Acceptance for Viterbi-coded candidates: the decision, re-encoded,
  // agrees with >= 85% of the region bits. The final Viterbi metric M and
  // the match count are linked exactly (matches = (M + T) / 2), so the
  // threshold doubles as the early-abort floor and no re-encode pass is
  // needed.
  std::int32_t thr = 0;
  if (viterbi) {
    thr = 2 * min_passing_matches(0.85, region_bits) -
          static_cast<std::int32_t>(region_bits);
    // Every format rate-matches the same span: scan it once into vote
    // prefix sums, so each format's log-likelihoods cost one subtraction
    // per mother bit.
    prefix_.resize(region_bits + 1);
    phy::vote_prefix(span_, prefix_.data());
  }

  CandidateResult r;
  int n_formats = 0;
  const phy::DciFormat* formats = format_list(cell_, &n_formats);
  for (int f = 0; f < n_formats; ++f) {
    const auto format = formats[f];
    if (!phy::format_fits(sf.coding, format, al)) {
      continue;  // infeasible rate, no attempt
    }
    const int msg_bits = phy::dci_message_bits(format);
    ++r.attempts;
    if (viterbi) {
      ++viterbi_runs;
      const auto d =
          phy::conv_decode(span_, static_cast<std::size_t>(msg_bits), bits_,
                           prefix_.data(), thr);
      if (d.aborted) {
        ++r.failures;
        ++r.early_aborts;
        continue;
      }
      if (d.metric < thr) {
        ++r.failures;
        continue;
      }
    } else {
      majority_decode(sf, start, al, msg_bits, bits_);
    }
    if (!phy::dci_crc_screen(bits_, format)) {
      ++r.failures;
      ++r.screen_rejects;
      continue;
    }
    auto dci = phy::decode_dci(bits_, format, cell_.n_prbs());
    if (!dci.has_value()) {
      ++r.failures;
      continue;
    }
    if (!viterbi && !region_agrees(sf, start, al, bits_)) {
      ++r.failures;
      continue;
    }
    r.dci = *dci;
    break;
  }
  return r;
}

DecodeRun BlindDecoder::decode_compute(const phy::PdcchSubframe& sf) {
  PBECC_PROF_SCOPE("blind_decode");
  DecodeRun run;
  run.sf_index = sf.sf_index;
  run.tick = sf.tick;
  run.delta.subframes = 1;

  // Largest aggregation level first: a message placed at AL4 would also
  // pass the CRC at the AL2/AL1 candidates nested inside it (its
  // repetitions are self-similar), so once a candidate validates we claim
  // its CCEs and skip anything overlapping them. Positions within one AL
  // are disjoint, so a claim never touches another candidate of the same
  // level: the level's candidates in a word of CCEs are all found before
  // any of them is decoded (or answered from the memo), in position order.
  // NR candidate starts are AL-aligned too, so the memo's start/al
  // position indexing and the word-aligned claimed-CCE pruning carry over
  // unchanged.
  if (sf.n_cces != starts_n_cces_) refresh_starts(sf.n_cces);
  constexpr std::size_t kWordBits = util::BitVec::kWordBits;
  const std::size_t n_words =
      (static_cast<std::size_t>(std::max(sf.n_cces, 0)) + kWordBits - 1) /
      kWordBits;
  claimed_.assign(n_words, 0);
  for (const int al : {16, 8, 4, 2, 1}) {
    const auto ai = static_cast<std::size_t>(al_index(al));
    const util::BitVec& starts = starts_[ai];
    if (starts.empty()) continue;
    const auto n_positions = static_cast<std::size_t>(sf.n_cces / al);
    if (memo_[ai].size() < n_positions) memo_[ai].resize(n_positions);

    const std::uint64_t al_run =
        ~0ULL << (kWordBits - static_cast<std::size_t>(al));
    for (std::size_t w = 0; w < n_words; ++w) {
      // Real monitors sense per-CCE energy before decoding, so a candidate
      // spanning a silent CCE is never attempted; nor is one overlapping
      // an already-decoded message.
      const std::uint64_t blocked =
          ~phy::energy_word(sf.cce_used, w) | claimed_[w];
      std::uint64_t todo =
          starts.word(w) & ~phy::aligned_runs_hit(blocked, al);
      while (todo != 0) {
        const auto k = static_cast<std::size_t>(std::countl_zero(todo));
        todo ^= (1ULL << 63) >> k;
        if (try_candidate(sf, al, static_cast<int>(w * kWordBits + k), run)) {
          claimed_[w] |= al_run >> k;
        }
      }
    }
  }
  return run;
}

bool BlindDecoder::try_candidate(const phy::PdcchSubframe& sf, int al,
                                 int start, DecodeRun& run) {
  const auto ai = static_cast<std::size_t>(al_index(al));
  sf.bits.copy_range(static_cast<std::size_t>(start) * phy::kBitsPerCce,
                     static_cast<std::size_t>(al) * phy::kBitsPerCce, span_);
  MemoEntry& entry = memo_[ai][static_cast<std::size_t>(start / al)];
  CandidateResult r;
  if (entry.valid && entry.coding == sf.coding && entry.span == span_) {
    r = entry.result;
    r.memo_hit = true;
  } else {
    r = decode_candidate(sf, al, start, run.delta.lane_batches);
    entry.valid = true;
    entry.coding = sf.coding;
    entry.span = span_;
    entry.result = r;  // memo_hit stays false inside the stored result
  }

  run.delta.candidates_tried += static_cast<std::uint64_t>(r.attempts);
  run.delta.candidates_by_al[ai] += static_cast<std::uint64_t>(r.attempts);
  run.delta.crc_failures += static_cast<std::uint64_t>(r.failures);
  run.delta.crc_failures_by_al[ai] += static_cast<std::uint64_t>(r.failures);
  run.delta.early_aborts += static_cast<std::uint64_t>(r.early_aborts);
  run.delta.screen_rejects += static_cast<std::uint64_t>(r.screen_rejects);
  if (r.memo_hit) ++run.delta.memo_hits;
  if (!r.dci.has_value()) return false;
  ++run.delta.messages_decoded;
  ++run.delta.decoded_by_al[ai];
  run.found.push_back({*r.dci, al});
  return true;
}

std::vector<phy::Dci> BlindDecoder::decode_apply(const DecodeRun& run) {
  const DecodeStats& d = run.delta;
  stats_.candidates_tried += d.candidates_tried;
  stats_.crc_failures += d.crc_failures;
  stats_.messages_decoded += d.messages_decoded;
  stats_.subframes += d.subframes;
  stats_.memo_hits += d.memo_hits;
  stats_.lane_batches += d.lane_batches;
  stats_.early_aborts += d.early_aborts;
  stats_.screen_rejects += d.screen_rejects;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kNumAlLanes); ++i) {
    stats_.candidates_by_al[i] += d.candidates_by_al[i];
    stats_.crc_failures_by_al[i] += d.crc_failures_by_al[i];
    stats_.decoded_by_al[i] += d.decoded_by_al[i];
    obs_.candidates[i]->inc(d.candidates_by_al[i]);
    obs_.crc_failures[i]->inc(d.crc_failures_by_al[i]);
  }
  obs_.decoded->inc(d.messages_decoded);
  obs_.subframes->inc(d.subframes);
  obs_.memo_hits->inc(d.memo_hits);
  obs_.lane_batches->inc(d.lane_batches);
  obs_.early_aborts->inc(d.early_aborts);
  obs_.screen_rejects->inc(d.screen_rejects);

  std::vector<phy::Dci> found;
  found.reserve(run.found.size());
  for (const DecodeRun::Found& f : run.found) {
    obs::emit(obs::EventKind::kDciDecoded, run.sf_index * run.tick,
              static_cast<std::uint16_t>(cell_.id), f.dci.rnti, f.dci.n_prbs,
              f.dci.mcs.bits_per_prb(), f.al);
    found.push_back(f.dci);
  }
  return found;
}

std::vector<phy::Dci> BlindDecoder::decode(const phy::PdcchSubframe& sf) {
  return decode_apply(decode_compute(sf));
}

}  // namespace pbecc::decoder
