#include "sim/algorithms.h"

#include <stdexcept>

#include "baselines/bbr.h"
#include "baselines/copa.h"
#include "baselines/cubic.h"
#include "baselines/goog_cc.h"
#include "baselines/pcc.h"
#include "baselines/sprout.h"
#include "baselines/verus.h"
#include "pbe/pbe_sender.h"

namespace pbecc::sim {

const std::vector<std::string>& all_algorithms() {
  static const std::vector<std::string> kAll = {
      "pbe", "bbr", "cubic", "verus", "sprout", "copa", "pcc", "vivace"};
  return kAll;
}

const std::vector<std::string>& extra_algorithms() {
  static const std::vector<std::string> kExtra = {"gcc", "hybrid"};
  return kExtra;
}

bool needs_pbe_client(const std::string& name) {
  return name == "pbe" || name == "hybrid";
}

std::unique_ptr<net::CongestionController> make_controller(
    const std::string& name, std::uint64_t seed) {
  if (name == "pbe") {
    pbe::PbeSenderConfig cfg;
    cfg.seed = seed;
    return std::make_unique<pbe::PbeSender>(cfg);
  }
  if (name == "abc") {
    // Explicit-network-feedback oracle: same precise sender, but the rate
    // in each ACK comes straight from the base station (see Scenario).
    pbe::PbeSenderConfig cfg;
    cfg.name = "abc";
    cfg.detect_misreports = false;  // the network cannot misreport to itself
    cfg.seed = seed;
    return std::make_unique<pbe::PbeSender>(cfg);
  }
  if (name == "bbr") {
    baselines::BbrConfig cfg;
    cfg.seed = seed;
    return std::make_unique<baselines::Bbr>(cfg);
  }
  if (name == "cubic") return std::make_unique<baselines::Cubic>();
  if (name == "copa") return std::make_unique<baselines::Copa>();
  if (name == "verus") return std::make_unique<baselines::Verus>();
  if (name == "sprout") return std::make_unique<baselines::Sprout>();
  if (name == "pcc") {
    baselines::PccConfig cfg;
    cfg.seed = seed;
    return std::make_unique<baselines::PccAllegro>(cfg);
  }
  if (name == "vivace") {
    baselines::PccConfig cfg;
    cfg.seed = seed;
    return std::make_unique<baselines::PccVivace>(cfg);
  }
  if (name == "gcc") {
    // Delay-gradient BWE (goog_cc lineage) as a standalone baseline: the
    // endpoint-only half of the hybrid, measurable on its own.
    return std::make_unique<baselines::GoogCc>();
  }
  if (name == "hybrid") {
    // PBE with the always-on delay-gradient sidecar holding a
    // confidence-weighted share of pacing authority (DESIGN.md §13).
    pbe::PbeSenderConfig cfg;
    cfg.name = "hybrid";
    cfg.hybrid = true;
    cfg.seed = seed;
    return std::make_unique<pbe::PbeSender>(cfg);
  }
  throw std::invalid_argument("unknown congestion control algorithm: " + name);
}

}  // namespace pbecc::sim
