#include "pbe/misreport_detector.h"

#include <limits>

namespace pbecc::pbe {

namespace {
// Reported rate must exceed this multiple of the achieved delivery rate
// to count as suspicious (delivery-rate samples are noisy; honest
// feedback routinely sits slightly above instantaneous delivery).
constexpr double kSuspicionRatio = 1.5;
// ... continuously for this long before the client is flagged.
constexpr util::Duration kFlagAfter = 2 * util::kSecond;
// Achieved-rate estimate: windowed max of delivery-rate samples.
constexpr util::Duration kRateWindow = util::kSecond;
// Once flagged, pacing is capped at measured rate times this headroom.
constexpr double kCappedGain = 1.1;
}  // namespace

MisreportDetector::MisreportDetector() : achieved_(kRateWindow) {}

util::RateBps MisreportDetector::achieved_rate(util::Time now) const {
  return achieved_.get(now, 0.0);
}

void MisreportDetector::on_ack(const net::AckSample& s,
                               util::RateBps reported_rate) {
  if (s.delivery_rate > 0) achieved_.update(s.now, s.delivery_rate);
  const util::RateBps achieved = achieved_.get(s.now, 0.0);
  if (achieved <= 0 || reported_rate <= 0) return;

  if (reported_rate > kSuspicionRatio * achieved) {
    if (suspicious_since_ < 0) suspicious_since_ = s.now;
    honest_since_ = -1;
    if (s.now - suspicious_since_ >= kFlagAfter) flagged_ = true;
  } else {
    suspicious_since_ = -1;
    // A client that returns to honest reporting is eventually unflagged —
    // the cap is a protective measure, not a permanent ban — but only
    // after reporting honestly for as long as it took to earn the flag.
    if (flagged_) {
      if (honest_since_ < 0) honest_since_ = s.now;
      if (s.now - honest_since_ >= kFlagAfter) {
        flagged_ = false;
        honest_since_ = -1;
      }
    }
  }
}

void MisreportDetector::on_feedback_word(bool plausible) {
  plausibility_ += 0.05 * ((plausible ? 1.0 : 0.0) - plausibility_);
}

util::RateBps MisreportDetector::rate_cap(util::Time now) const {
  if (!flagged_) return std::numeric_limits<double>::max();
  const util::RateBps achieved = achieved_.get(now, 0.0);
  return achieved > 0 ? kCappedGain * achieved
                      : std::numeric_limits<double>::max();
}

}  // namespace pbecc::pbe
