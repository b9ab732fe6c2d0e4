// Scenario: assembles end-to-end experiments — content servers behind
// Internet paths, the cellular base station with its component carriers,
// mobile users (optionally with PBE-CC clients attached to their
// receivers), and stochastic background traffic — mirroring the paper's
// testbed (Fig 10) in simulation.
//
// Sharding (DESIGN.md §15): cells are grouped into *clusters*
// (CellSpec::cluster). Each cluster becomes one shard domain with its own
// EventLoop and BaseStation, stepped independently between 1 ms subframe
// barriers. The only cross-domain edges — UE migration between clusters,
// downlink packets whose wired path terminates in another cluster, and
// in-order deliveries back to a flow's home receiver — travel as ordered,
// timestamped mailbox messages applied serially at each barrier in
// (time, source domain, seq) order. Those keys are functions of each
// domain's own deterministic event sequence, so results are byte-identical
// for any worker count (`ScenarioConfig::shards`). A single-cluster
// scenario takes the direct fast path: one loop, no barriers, behavior
// identical to the pre-shard simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "mac/base_station.h"
#include "net/event_loop.h"
#include "net/flow.h"
#include "net/link.h"
#include "net/shard_mailbox.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "pbe/pbe_client.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace pbecc::cap {
class TraceWriter;
class PipelineDigest;
}  // namespace pbecc::cap

namespace pbecc::tel {
class Sampler;
}  // namespace pbecc::tel

namespace pbecc::sim {

struct CellSpec {
  double bandwidth_mhz = 10.0;
  // Control-plane (paging/parameter) users per subframe; ~0.4 on the
  // paper's busy cell, near zero late at night.
  double control_users_per_subframe = 0.05;
  // Use the 36.212 convolutional code on the control channel instead of
  // the (cheaper to simulate) repetition code.
  bool convolutional_pdcch = false;
  // Cell-cluster id. Cells sharing a cluster live in one shard domain
  // (one EventLoop + BaseStation); a UE's serving set must stay inside a
  // single cluster, so carrier aggregation never crosses a shard. Cluster
  // ids need not be contiguous; domains are ordered by ascending id.
  int cluster = 0;

  // --- 5G NR (ignored while nr == false) ---
  // Make this carrier an NR cell: scalable numerology `scs_khz`
  // (15/30/120), PDCCH confined to a CORESET of `coreset_rbs` x
  // `coreset_symbols` (polar-coded unless convolutional_pdcch), and the
  // bandwidth interpreted against the 38.101 PRB tables. `mini_slot`
  // schedules HARQ retransmissions on the 2-slot mini-slot cadence.
  bool nr = false;
  int scs_khz = 30;
  int coreset_rbs = 48;
  int coreset_symbols = 2;
  bool mini_slot = false;
};

struct UeSpec {
  mac::UeId id = 1;
  // Indices into the scenario's cell list; primary first. All cells must
  // belong to one cluster.
  std::vector<std::size_t> cell_indices = {0};
  phy::MobilityTrace trace = phy::MobilityTrace::stationary(-92.0);
  double noise_floor_dbm = -108.0;
  mac::CaConfig ca{};
  // Weight under the cell's fairness policy (ablations, §7).
  double scheduling_weight = 1.0;
  // Alternative serving sets (each single-cluster, primary first) the
  // handover storm rotates through, in addition to `cell_indices`. A set
  // in a *different* cluster turns the storm handover into a cross-shard
  // migration: the UE's queue, HARQ abandon notifications, reordering
  // residue and CA history travel in a mac::UeMigration applied at the
  // next subframe barrier. Empty = classic same-cluster rotation.
  std::vector<std::vector<std::size_t>> serving_sets;
};

struct PathSpec {
  util::Duration one_way_delay = 25 * util::kMillisecond;
  // 0 = unconstrained Internet (wireless is the only bottleneck).
  util::RateBps internet_rate = 0;
  std::int64_t internet_buffer_bytes = 384 * 1024;
  util::Duration jitter = util::kMillisecond;  // wired-segment jitter
};

struct FlowSpec {
  std::string algo = "bbr";  // "pbe", "abc", baselines, or "fixed"
  mac::UeId ue = 1;
  PathSpec path{};
  util::Time start = 50 * util::kMillisecond;
  util::Time stop = util::kNever;
  util::RateBps fixed_rate = 0;  // for algo == "fixed"

  // --- PBE ablation knobs (ignored for other algorithms) ---
  // Disable the control-traffic filter (Ta>1, Pa>4): every decoded RNTI
  // counts toward N in Eqns 1-3.
  bool pbe_control_filter = true;
  // Override the sender's cwnd gain (0 = library default). §7's
  // delay-for-throughput buffering knob.
  double pbe_cwnd_gain = 0;
  // Extra control-channel BER at the monitor (decoder robustness ablation).
  double pbe_monitor_extra_ber = 0;
};

struct BackgroundSpec {
  std::size_t cell_index = 0;
  int n_users = 6;
  double sessions_per_sec = 0.5;
  util::Duration mean_duration = 2 * util::kSecond;
  util::RateBps rate_lo = 2e6;
  util::RateBps rate_hi = 12e6;
  double rssi_mean_dbm = -95.0;
  double rssi_sigma_db = 6.0;
};

// City-scale background load: instead of simulating each background UE
// (O(UEs) heap events per subframe), install a mac::AggregateTraffic
// population on one cell — synthetic sessions that occupy PRBs, emit
// PDCCH DCIs and join the active-user count at O(sessions) per subframe.
struct AggregateBackgroundSpec {
  std::size_t cell_index = 0;
  mac::AggregateTrafficConfig traffic{};
};

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::vector<CellSpec> cells = {{}};
  std::string scheduler = "fair-share";
  // Worker threads stepping shard domains between barriers, clamped to
  // [1, number of domains]. The default 1 steps multi-cluster scenarios
  // serially, still through the barrier protocol. Purely a parallelism
  // knob: results are byte-identical for any value (the determinism suite
  // gates this across shards {1,2,8}).
  int shards = 1;
  // Chaos: deterministic fault schedule (inactive by default). The fault
  // seed is separate from `seed` so the same traffic can be replayed under
  // different fault schedules and vice versa.
  fault::FaultProfile fault{};
  std::uint64_t fault_seed = 1;
  // Capture taps (pbecc::cap, both unowned, may be null): the first PBE
  // flow added gets its measurement pipeline recorded into `capture`
  // (begin() is called with the client's trace header) and/or its outputs
  // folded into `digest` for record→replay fidelity checks.
  cap::TraceWriter* capture = nullptr;
  cap::PipelineDigest* digest = nullptr;
  // Run telemetry (pbecc::tel, unowned, may be null): the first PBE flow's
  // measurement pipeline drives the sampler's est.*/decode.* series, and a
  // sim-clock event loop samples ground truth, flow, degradation, queue and
  // invariant series on the same cadence.
  tel::Sampler* telemetry = nullptr;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);

  // Registration (all before run_until).
  void add_ue(const UeSpec& spec);
  int add_flow(const FlowSpec& spec);  // returns flow index
  void add_background(const BackgroundSpec& spec);
  void add_background_aggregate(const AggregateBackgroundSpec& spec);

  // Move a registered UE onto a new serving set (indices into the cell
  // list, primary first, single cluster — possibly a different one).
  // Callable between run_until calls; same-cluster sets degrade to a
  // plain handover, cross-cluster sets perform the full extract/admit
  // migration immediately (the caller is the barrier context).
  void migrate_ue(mac::UeId ue, const std::vector<std::size_t>& cell_indices);

  void run_until(util::Time t);

  // --- Accessors ---
  // Domain 0's loop / base station: the whole scenario for single-cluster
  // configs (every pre-shard call site), the first domain otherwise.
  net::EventLoop& loop() { return domains_.front()->loop; }
  mac::BaseStation& bs() { return *domains_.front()->bs; }
  std::size_t num_domains() const { return domains_.size(); }
  net::EventLoop& domain_loop(std::size_t d) { return domains_.at(d)->loop; }
  mac::BaseStation& domain_bs(std::size_t d) { return *domains_.at(d)->bs; }
  // Domain currently hosting this UE (moves with migrations).
  int ue_domain(mac::UeId ue) const { return ue_records_.at(ue).domain; }
  util::Time now() const { return now_; }
  FlowStats& stats(int flow) { return *flows_.at(static_cast<std::size_t>(flow))->stats; }
  net::FlowSender& sender(int flow) { return *flows_.at(static_cast<std::size_t>(flow))->sender; }
  // Null for non-PBE flows.
  pbe::PbeClient* pbe_client(int flow) {
    return flows_.at(static_cast<std::size_t>(flow))->client.get();
  }
  std::size_t num_flows() const { return flows_.size(); }
  // Null when the scenario's fault profile is inactive.
  const fault::FaultInjector* faults() const { return faults_.get(); }
  // Handovers the handover-storm fault has forced so far (summed over
  // domains; the `fault.storm_handovers` obs counter mirrors it).
  std::uint64_t storm_handovers() const;

 private:
  // One shard domain: a cell-cluster's loop, base station and the
  // thread-local trace buffer its step fills between barriers.
  struct Domain {
    int cluster = 0;
    net::EventLoop loop;
    std::vector<std::size_t> cell_idx;  // indices into cfg_.cells
    std::vector<phy::CellConfig> cells;
    std::unique_ptr<mac::BaseStation> bs;
    std::vector<obs::Event> trace_buf;
    std::uint64_t storm_handovers = 0;  // written by this domain's step only
  };

  // Cross-domain message payload. Ordering (and thus determinism) comes
  // from the ShardMailbox envelope, not from these fields.
  struct ShardMsg {
    enum class Kind : std::uint8_t {
      kPacket,   // downlink packet for a UE hosted in another domain
      kDeliver,  // in-order delivery back to the flow's home receiver
      kMigrate,  // move `ue` onto `new_cells` in `target_domain`
    };
    Kind kind = Kind::kPacket;
    mac::UeId ue = 0;
    net::Packet pkt{};                   // kPacket / kDeliver
    std::vector<std::size_t> new_cells;  // kMigrate: cell indices
    int target_domain = 0;               // kMigrate
  };

  struct FlowCtx {
    FlowSpec spec;
    int domain = 0;
    // Edge state for feedback-delay-spike trace events (one per spike,
    // not per ACK). Per-flow (not a shared map): the ACK path runs on the
    // flow's domain thread during parallel stepping.
    bool in_delay_spike = false;
    std::unique_ptr<net::FlowSender> sender;
    std::unique_ptr<net::FlowReceiver> receiver;
    std::unique_ptr<net::BottleneckLink> bottleneck;
    std::unique_ptr<net::DelayLink> downlink;
    std::unique_ptr<pbe::PbeClient> client;
    std::unique_ptr<FlowStats> stats;
  };

  // A foreground UE's registration plus its mobile state: the domain it
  // currently lives in (mutated only at barriers / between runs, so the
  // parallel phase may read it freely) and the storm rotation counter.
  struct UeRecord {
    UeSpec spec;
    int domain = 0;
    std::size_t rotation = 0;
  };

  // One add_background group: its own forked RNG (session arrivals drawn
  // on the domain thread must not touch the shared registration RNG) and
  // a private flow-id block.
  struct BgGroup {
    BackgroundSpec spec;
    std::vector<mac::UeId> users;
    util::Rng rng;
    int domain = 0;
    std::uint64_t flow_seq = 0;
  };

  // Validated lookup: the single domain every index in `cells` maps to.
  int domain_of(const std::vector<std::size_t>& cells, const char* what) const;
  mac::BaseStation::DeliveryHandler make_delivery_handler(mac::UeId ue);
  // Downlink ingress for `ue` from a flow homed in `home`: direct enqueue
  // when the UE is local, else a kPacket mailbox message for the barrier.
  void route_downlink(mac::UeId ue, net::Packet pkt, int home);
  // In-order delivery for `ue`: direct when the flow's receiver lives in
  // the UE's current domain (or we are in the serial barrier phase), else
  // a kDeliver message.
  void route_delivery(mac::UeId ue, net::Packet pkt);
  void do_migrate(mac::UeId ue, const std::vector<std::size_t>& cell_indices,
                  int target);
  void apply_msg(ShardMsg msg);
  void storm_tick(std::size_t d);
  void start_once();
  par::ThreadPool& shard_pool();

  void schedule_bg_sessions(BgGroup* group);
  // Recurring sim-clock event recording truth/flow/degradation/queue
  // series for the telemetry-attached flow (see attach_telemetry).
  void schedule_telemetry_sampling();
  phy::Rnti rnti_for(mac::UeId ue) const;

  ScenarioConfig cfg_;
  std::vector<phy::CellConfig> cell_cfgs_;
  std::vector<int> cell_domain_;  // cell index -> domain index
  std::vector<std::unique_ptr<Domain>> domains_;
  net::ShardMailbox<ShardMsg> mailbox_;
  util::Rng rng_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<par::ThreadPool> pool_;  // lazily sized shard workers
  util::Time now_ = 0;
  // True during the serial barrier phase (and inside migrate_ue): cross-
  // domain deliveries may run directly — every domain clock stands at the
  // barrier time and no worker threads are live.
  bool in_barrier_ = false;

  std::vector<std::unique_ptr<FlowCtx>> flows_;
  // Per UE: receivers indexed by flow id (a device can run several
  // concurrent connections, paper §6.3.4).
  std::map<mac::UeId, std::map<net::FlowId, net::FlowReceiver*>> ue_receivers_;
  std::map<mac::UeId, UeRecord> ue_records_;
  std::map<net::FlowId, int> flow_domain_;  // flow -> home domain
  std::vector<std::unique_ptr<BgGroup>> bg_groups_;
  mac::UeId next_bg_ue_ = 10000;
  std::uint64_t bg_flow_seq_ = 1u << 20;
  bool started_ = false;
  bool capture_attached_ = false;    // taps go to the first PBE flow only
  int telemetry_flow_ = -1;          // flow index telemetry samples, -1 = none
};

}  // namespace pbecc::sim
