#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "agent/compute_agent.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "openflow/messages.h"
#include "pkt/traffic_profile.h"
#include "shm/shm.h"
#include "vm/apps.h"
#include "vm/vm.h"
#include "vswitch/of_switch.h"

/// \file chain.h
/// The benchmark's 4-VM service chain, assembled from the same public
/// constructors ChainScenario::build uses (Mempool, OfSwitch,
/// ComputeAgent, Hypervisor/Vm, GenSinkApp, ForwarderApp). It is built
/// here rather than through ChainScenario because ChainScenario fixes the
/// traffic seeds and keeps the forwarder contexts private: neither a seed
/// argument nor per-context timing would work through it.
///
/// VM0 and VM3 are GenSinkApp endpoints, VM1 and VM2 ForwarderApps, so
/// every frame crosses three inter-VM hops. Each endpoint offers 64 B
/// frames open-loop at kRatePps in virtual time, Zipf(1.1) over
/// kFlowCount flows, in both directions.

namespace hb {

class SpanLog;

using hw::TimeNs;

enum class Workload : std::uint8_t {
  kVanillaMegaflow,  ///< bypass off, policy rules on every hop
  kBypassHighway,    ///< steering rules only, every hop bypassed
  kReconfigChurn,    ///< edge hops bypassed, policy hop churned, flips
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload) noexcept;

inline constexpr std::uint32_t kVmCount = 4;
/// 10 µs epochs at 3 Mpps per direction give 30-frame bursts (batch fill
/// 30 of 32), well under the generator's 4-burst token cap.
inline constexpr TimeNs kEpochNs = 10'000;
inline constexpr std::uint64_t kRatePps = 3'000'000;
/// A slice is the unit of host timing: a fixed span of virtual time, so
/// it always carries the same offered frames and controller messages.
inline constexpr TimeNs kSliceNs = 100'000;
inline constexpr std::uint32_t kFlowCount = 8192;
inline constexpr double kZipfS = 1.1;
inline constexpr std::uint32_t kWebPercent = 20;
/// About five times the most frames ever in flight (vanilla_megaflow
/// peaks near 180). The free list is FIFO, so every mbuf of the pool is
/// cycled through: with ChainConfig's default 32k mbufs (69 MB) each frame
/// touched memory that a shared L3 only sometimes kept, and slice times
/// swung by half with the neighbours' load.
inline constexpr std::size_t kMempoolSize = 1024;
/// reconfig_churn: FlowMods per slice on the policy hop, and slices
/// between flips of the edge-hop rule (at a seeded phase). A flip's
/// bypass setup or teardown takes two guest control round trips, about
/// 0.7 ms of virtual time, so each completes before the next flip.
inline constexpr std::uint32_t kChurnPerSlice = 8;
inline constexpr std::uint64_t kFlipPeriodSlices = 10;

/// A cost model whose per-epoch cycle budget no poll can exhaust, so
/// every context runs to idle in every epoch and a run's work is set by
/// the workload and seed alone. The virtual clock then never advances
/// inside an epoch either (1 ns would take 1e9 cycles). `doubled` doubles
/// every per-operation constant; the work must not change.
[[nodiscard]] hw::exec::CostModel lifted_cost_model(bool doubled);

/// One encoded controller message and what it is for.
struct Message {
  enum class Kind : std::uint8_t { kRule, kChurn, kFlip };
  Kind kind = Kind::kRule;
  std::vector<std::byte> bytes;
};

/// Host time of every FlowMod the controller sent, by kind.
struct FlowModTimes {
  std::vector<double> churn_ns;
  std::vector<double> flip_ns;
};

class Chain {
 public:
  Chain(Workload workload, std::uint64_t seed, hw::exec::CostModel cost);
  ~Chain();

  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  // ------------------------------------------------------ setup phases
  void build_pool();
  /// Switch, agent, VMs, ports and apps. With `spans`, every context is
  /// registered through a poll-timing wrapper that records into it.
  [[nodiscard]] hw::Status build(SpanLog* spans);
  /// Steering rules, plus the workload's policy rules, via the codec.
  [[nodiscard]] hw::Status install_rules();
  /// Runs until every expected bypass link is active.
  [[nodiscard]] bool wait_bypass();

  // ------------------------------------------------------------ slices
  /// Encodes the messages the controller sends at the start of slice
  /// `index` (outside the timed slice).
  void plan_slice(std::uint64_t index);
  /// Sends the planned messages through handle_message (each one timed
  /// into `times`), then simulates one slice of virtual time.
  [[nodiscard]] hw::Status run_slice(std::uint64_t index,
                                     FlowModTimes* times);

  /// Stops the generators and runs until the pool is empty and no bypass
  /// operation is in flight. Returns false on timeout.
  [[nodiscard]] bool drain();

  // ------------------------------------------------------------ access
  [[nodiscard]] Workload workload() const noexcept { return workload_; }
  [[nodiscard]] std::size_t expected_links() const noexcept;
  [[nodiscard]] hw::exec::SimRuntime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] hw::vswitch::OfSwitch& of() noexcept { return *of_; }
  [[nodiscard]] hw::agent::ComputeAgent& agent() noexcept { return *agent_; }
  [[nodiscard]] hw::mbuf::Mempool& pool() noexcept { return *pool_; }
  [[nodiscard]] hw::shm::ShmManager& shm() noexcept { return shm_; }
  [[nodiscard]] hw::vm::Hypervisor& hypervisor() noexcept {
    return *hypervisor_;
  }
  [[nodiscard]] hw::vm::GenSinkApp& head() noexcept { return *head_; }
  [[nodiscard]] hw::vm::GenSinkApp& tail() noexcept { return *tail_; }
  [[nodiscard]] std::span<hw::vm::ForwarderApp* const> forwarders()
      const noexcept {
    return forwarders_;
  }
  /// Regions that exist with no bypass link: stats + per-port channels.
  [[nodiscard]] std::size_t base_regions() const noexcept {
    return base_regions_;
  }

  /// Controller stream sizes and a digest of every message sent.
  [[nodiscard]] std::uint64_t flowmods_sent() const noexcept {
    return flowmods_sent_;
  }
  [[nodiscard]] std::uint64_t flips_sent() const noexcept {
    return flips_sent_;
  }
  [[nodiscard]] std::uint64_t flowmod_errors() const noexcept {
    return flowmod_errors_;
  }
  [[nodiscard]] std::uint64_t message_digest() const noexcept {
    return digest_;
  }

  /// The traffic profile of the forward (VM0 → VM3) or reverse endpoint.
  [[nodiscard]] hw::pkt::TrafficProfile profile(bool forward) const;

 private:
  struct ChurnHop {
    hw::PortId in = hw::kPortNone;
    hw::PortId out = hw::kPortNone;
    std::uint32_t dst_base = 0;         ///< /26-aligned base of live dsts
    std::vector<std::uint32_t> live;    ///< installed /26 block indices
  };

  void plan_churn(std::uint32_t count);
  void plan_flow_mod(Message::Kind kind, const hw::openflow::FlowMod& mod);
  /// Sends one message; the digest covers its bytes and its slice.
  [[nodiscard]] hw::Status send(const Message& message, std::uint64_t slice);
  [[nodiscard]] std::vector<hw::openflow::FlowMod> policy_rules(
      hw::PortId in, hw::PortId out, bool forward);

  Workload workload_;
  std::uint64_t seed_;
  // Every component keeps a pointer to the cost model or the shm
  // manager, so both are declared (and destroyed) around all of them.
  hw::exec::CostModel cost_;
  hw::shm::ShmManager shm_;
  std::unique_ptr<hw::mbuf::Mempool> pool_;
  std::unique_ptr<hw::exec::SimRuntime> runtime_;
  std::unique_ptr<hw::vswitch::OfSwitch> of_;
  std::unique_ptr<hw::agent::ComputeAgent> agent_;
  std::unique_ptr<hw::vm::Hypervisor> hypervisor_;
  std::vector<std::unique_ptr<hw::exec::Context>> apps_;
  std::vector<std::unique_ptr<hw::exec::Context>> timed_;
  hw::vm::GenSinkApp* head_ = nullptr;
  hw::vm::GenSinkApp* tail_ = nullptr;
  std::vector<hw::vm::ForwarderApp*> forwarders_;
  SpanLog* spans_ = nullptr;
  std::uint16_t ctrl_track_ = 0;  ///< span row of controller messages

  std::vector<hw::PortId> left_;
  std::vector<hw::PortId> right_;
  std::size_t base_regions_ = 0;

  // Controller state: every random choice comes from these seeded
  // streams, so one seed fixes the whole FlowMod sequence and schedule.
  hw::Rng rule_rng_;
  hw::Rng churn_rng_;
  std::vector<ChurnHop> churn_hops_;
  std::uint64_t churn_turn_ = 0;
  std::uint64_t flip_phase_;  ///< the slice of each period that flips
  bool flip_installed_ = false;
  hw::Cookie next_cookie_ = 1;
  std::vector<Message> planned_;
  std::uint64_t flowmods_sent_ = 0;
  std::uint64_t flips_sent_ = 0;
  std::uint64_t flowmod_errors_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

}  // namespace hb
