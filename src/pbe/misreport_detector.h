// Misreported-congestion-feedback detection (paper §7, "Misreported
// congestion feedback").
//
// PBE-CC trusts the mobile client's capacity reports; a malicious client
// could advertise more than the network can carry and trigger a flood.
// The paper's proposed defense, implemented here: the server runs a
// BBR-like throughput estimator purely from send/ack timestamps and flags
// any client that *consistently* reports a rate well above what the path
// actually delivers. Once flagged, the sender caps its pacing at the
// measured delivery rate instead of the reported one. Unflagging is
// symmetric: the client must report within the suspicion ratio of the
// achieved rate continuously for as long as it took to earn the flag
// before trust is restored — a liar cannot clear the flag with a single
// honest ack.
//
// The detector also tracks feedback-word plausibility (an EWMA of whether
// each decoded word carried a physically possible rate), one input to the
// sender's degradation confidence score.
#pragma once

#include "net/congestion_controller.h"
#include "util/windowed_filter.h"

namespace pbecc::pbe {

class MisreportDetector {
 public:
  MisreportDetector();

  // Feed every ACK along with the rate the client currently reports.
  void on_ack(const net::AckSample& s, util::RateBps reported_rate);

  // Feed every decoded feedback word: was the encoded rate physically
  // plausible? Drives the plausibility EWMA consumed by the degradation
  // machine (corrupted feedback decodes to garbage rates).
  void on_feedback_word(bool plausible);

  // In [0, 1]: 1.0 = every recent feedback word decoded to a plausible
  // rate; decays toward 0 under feedback corruption.
  double plausibility() const { return plausibility_; }

  bool flagged() const { return flagged_; }

  // The server-side estimate of what the path actually delivers.
  util::RateBps achieved_rate(util::Time now) const;

  // Cap to apply to the client-reported rate (infinity when unflagged).
  util::RateBps rate_cap(util::Time now) const;

 private:
  mutable util::WindowedMax<double> achieved_;
  util::Time suspicious_since_ = -1;
  util::Time honest_since_ = -1;
  bool flagged_ = false;
  double plausibility_ = 1.0;
};

}  // namespace pbecc::pbe
