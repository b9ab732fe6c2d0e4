// Factory for the congestion-control algorithms under test (paper §6.1:
// PBE-CC vs Sprout, Verus, BBR, CUBIC, Copa, PCC and PCC-Vivace).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/congestion_controller.h"

namespace pbecc::sim {

// The eight algorithms of the paper's evaluation, in its display order.
// Deliberately excludes this repo's own additions so the paper-figure
// benches keep reproducing the paper's comparison unchanged.
const std::vector<std::string>& all_algorithms();

// This repo's additions beyond the paper: "gcc" (the delay-gradient BWE
// baseline), "hybrid" (PBE x delay confidence-weighted blend, DESIGN.md
// §13) and "abc" (the explicit-network-feedback oracle: PBE's sender fed
// rates the base station stamps).
const std::vector<std::string>& extra_algorithms();

// True for the algorithms that consume physical-layer feedback ("pbe",
// "hybrid") — the scenario must attach a PbeClient to the receiver.
bool needs_pbe_client(const std::string& name);

// Construct a controller by name ("pbe", "bbr", "cubic", "copa", "verus",
// "sprout", "pcc", "vivace", "gcc", "hybrid", "abc"). Throws
// std::invalid_argument on unknown name.
std::unique_ptr<net::CongestionController> make_controller(
    const std::string& name, std::uint64_t seed);

}  // namespace pbecc::sim
