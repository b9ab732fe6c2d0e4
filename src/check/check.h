// pbecc::check — the invariant layer behind long-horizon soak testing.
//
// Long runs (millions of subframes of user churn, RNTI reuse, handover
// storms and carrier reconfiguration) surface a bug class that figure-length
// scenarios never touch: incremental sums drifting away from their exact
// values, state maps growing without bound, and per-cell configuration going
// stale. The OWL monitor (Bui & Widmer) stays on-air for hours; a
// reproduction that claims continuous bandwidth tracking has to survive the
// same horizon. This layer gives every stateful subsystem a uniform way to
// declare its invariants:
//
//   PBECC_INVARIANT(cond, "name")       cheap (O(1)) check, on in EVERY
//                                       build — release binaries included;
//   PBECC_DEEP_INVARIANT(cond, "name")  compiled only with -DPBECC_CHECK=ON
//                                       (O(n) re-derivations, exact-resum
//                                       comparisons, full-map consistency).
//
// A failed invariant is *recorded*, never thrown: production code keeps
// running (a congestion controller must not crash a connection over a
// diagnostic), while soak drivers and tests poll violations() == 0 — or set
// abort_on_violation(true) to die loudly at the first failure with the
// invariant's name and location. Counts are mirrored into the pbecc::obs
// registry ("check.violations", "check.violation.<name>") so metrics JSON
// reports carry them.
//
// Expensive *preparation* for a deep check (building the exact value to
// compare against) should be gated at the call site:
//
//   if constexpr (pbecc::check::kDeep) {
//     double exact = recompute();
//     PBECC_DEEP_INVARIANT(close(sum_, exact), "foo_sum_drift");
//   }
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pbecc::check {

#if defined(PBECC_CHECK_ENABLED)
inline constexpr bool kDeep = true;
#else
inline constexpr bool kDeep = false;
#endif

// Total invariant violations recorded since process start (or reset()).
std::uint64_t violations();
// Violations recorded against one named invariant.
std::uint64_t violations(const std::string& name);
// Sorted (name, count) snapshot of every invariant that ever fired.
std::vector<std::pair<std::string, std::uint64_t>> all_violations();
// "name (file:line) xN, ..." — human-readable digest for soak reports.
std::string describe_violations();
// Zero all counts (test isolation). Mirrored obs counters are reset by the
// obs registry's own reset().
void reset();

// When true, the first violation prints name/file/line to stderr and
// aborts. Soak drivers and CI smoke runs want the loud mode; the default
// (false) records silently apart from a one-line stderr note for the first
// few distinct invariants.
void set_abort_on_violation(bool abort_on_violation);
bool abort_on_violation();

namespace detail {
// Out of line so the macro body stays a cheap branch; thread-safe (shard
// workers and runs side by side on a bench grid's pool hit invariants
// concurrently).
void fail(const char* name, const char* file, int line);
}  // namespace detail

}  // namespace pbecc::check

// Cheap, always-on invariant. `cond` must be O(1)-ish: these run on hot
// paths in release builds.
#define PBECC_INVARIANT(cond, name)                                  \
  do {                                                               \
    if (!(cond)) ::pbecc::check::detail::fail((name), __FILE__, __LINE__); \
  } while (0)

// Deep invariant: compiled (condition included) only with -DPBECC_CHECK=ON.
#if defined(PBECC_CHECK_ENABLED)
#define PBECC_DEEP_INVARIANT(cond, name) PBECC_INVARIANT(cond, name)
#else
// sizeof keeps `cond` unevaluated (zero cost) while still odr-"using" the
// variables it mentions, so deep-check-only locals do not warn as unused.
#define PBECC_DEEP_INVARIANT(cond, name) \
  do {                                   \
    (void)sizeof((cond) ? 1 : 0);        \
  } while (0)
#endif
