// Host-time benchmark of the 4-VM service chain: one workload, one seed,
// one thread. See hostbench/README.md for the metrics and workloads.
//
//   hostbench_chain --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out <dir>]
//   hostbench_chain --check --workload <name> --seed <n>
//
// The last line of standard output is the JSON result. The process exits
// non-zero, printing no result, if any correctness gate fails.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain.h"
#include "clock.h"
#include "common/log.h"
#include "common/simd.h"
#include "counters.h"
#include "pkt/workload_gen.h"
#include "probe.h"
#include "spans.h"

namespace hb {
namespace {

/// setup_s is the median of kSetupRuns set-ups: those whose probe
/// readings (see unshared()) most often found the core unshared. A run
/// sets up again, up to kMaxSetupRuns times in all, until kSetupRuns set-ups
/// had at least kSetupUnshared of their readings unshared.
constexpr std::size_t kSetupRuns = 7;
constexpr std::size_t kMaxSetupRuns = 21;
constexpr double kSetupUnshared = 0.9;
/// The core probe runs before every kProbeEvery-th slice. A reading is
/// unshared when its port ratio is within kPortSlack of the run's
/// kBestProbe quantile (see unshared()).
constexpr std::size_t kProbeEvery = 5;
constexpr double kBestProbe = 0.02;
constexpr double kPortSlack = 1.05;
/// A group of slices counts as unshared when the readings on both sides,
/// and kGuardGroups more on each side, are. Slices just after the sibling
/// thread left still ran slow (its data had displaced the program's from
/// the core's caches): they made the unshared tail 5–15% higher.
constexpr std::size_t kGuardGroups = 1;
/// A window that has fewer than kMinCleanSlices unshared slices after
/// `--seconds` runs on until it has them, up to kMaxExtension times as
/// long. The slice metrics are taken over the unshared slices, however
/// many; with fewer than kFewestCleanSlices (their p90 then has 20
/// samples beyond it), the least shared slices make up the rest (see
/// count_cycles()).
constexpr std::size_t kMinCleanSlices = 1000;
constexpr double kMaxExtension = 2.0;
constexpr std::size_t kFewestCleanSlices = 200;
/// Slices between counts of the unshared ones, once `--seconds` is up.
constexpr std::uint64_t kCleanCountEvery = 128 * kProbeEvery;
/// Fewest measured slices.
constexpr std::uint64_t kMinSlices = 2 * kMinCleanSlices;
/// Warm-up runs in windows of this many slices until the tier split of a
/// window's first tenth matches its last tenth.
constexpr std::uint64_t kWarmupWindow = 100;
constexpr std::uint64_t kMaxWarmupWindows = 30;
constexpr double kSplitTolerance = 0.03;
/// Slices of the traced window written out as chrome://tracing JSON.
constexpr std::uint64_t kExportSlices = 50;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;
/// Slices simulated by --check (20 flip periods).
constexpr std::uint64_t kCheckSlices = 200;

struct Options {
  Workload workload = Workload::kVanillaMegaflow;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool check = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// ------------------------------------------------------------ helpers

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident memory of this program. ru_maxrss is not used: it
/// carries the peak of the process image before exec (the launching
/// script's), which can exceed the benchmark's own.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB → MiB
    }
  }
  return 0;
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string counters_json(const CounterSet& c) {
  std::string out = "{";
  for (const auto& [key, value] : c) {
    out += (out.size() == 1 ? "" : ", ") + json_string(key) + ": " +
           std::to_string(value);
  }
  return out + "}";
}

/// Share of lookups resolved by each classifier tier between two marks.
struct TierMark {
  std::uint64_t emc = 0;
  std::uint64_t megaflow = 0;
  std::uint64_t slow = 0;
};

TierMark tier_mark(Chain& chain) {
  const hw::classifier::TierCounters t = chain.of().datapath_stats();
  return {t.emc_hits, t.megaflow_hits, t.slow_path_lookups};
}

/// Largest difference in any tier's share between two spans of slices.
double split_drift(const TierMark& a0, const TierMark& a1, const TierMark& b0,
                   const TierMark& b1) {
  const auto shares = [](const TierMark& from, const TierMark& to) {
    const auto e = static_cast<double>(to.emc - from.emc);
    const auto m = static_cast<double>(to.megaflow - from.megaflow);
    const auto s = static_cast<double>(to.slow - from.slow);
    const double n = e + m + s;
    return std::array<double, 3>{ratio(e, n), ratio(m, n), ratio(s, n)};
  };
  const auto a = shares(a0, a1);
  const auto b = shares(b0, b1);
  double drift = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    drift = std::max(drift, std::abs(a[i] - b[i]));
  }
  return drift;
}

// -------------------------------------------------------- fingerprint

struct Fingerprint {
  std::string cpu_model;
  long nproc = 0;
  int pinned_cpu = -1;
  std::string compiler = HB_COMPILER;
  std::string build_type = HB_BUILD_TYPE;
  std::string simd = hw::simd::kBackendName;
#ifdef HW_TRACE_DISABLED
  bool tracing = false;
#else
  bool tracing = true;
#endif
#ifdef HW_ANALYSIS
  bool analysis = true;
#else
  bool analysis = false;
#endif
  std::string sanitize = HB_SANITIZE;
#ifdef NDEBUG
  bool asserts = false;
#else
  bool asserts = true;
#endif
};

Fingerprint fingerprint() {
  Fingerprint f;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.starts_with("model name")) {
      f.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  f.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  return f;
}

/// Pins the process to the last CPU it may run on, the way a PMD thread
/// is pinned. Unpinned, migrations between cores (each with its own L2)
/// made slice times swing by half on a shared host. Returns the CPU, or
/// -1 if the process stays unpinned.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Why numbers from this build would measure a different program; empty
/// when the build is fit to be measured.
std::string unfit_build(const Fingerprint& f) {
  if (f.build_type == "Debug") return "Debug build";
  if (f.asserts) return "assertions compiled in (NDEBUG unset)";
  if (!f.sanitize.empty()) return "sanitizer build (" + f.sanitize + ")";
  if (f.analysis) return "HW_ANALYSIS=ON build";
  return {};
}

std::string fingerprint_json(const Fingerprint& f) {
  return "{\"cpu_model\": " + json_string(f.cpu_model) +
         ", \"nproc\": " + std::to_string(f.nproc) +
         ", \"pinned_cpu\": " + std::to_string(f.pinned_cpu) +
         ", \"compiler\": " + json_string(f.compiler) +
         ", \"build_type\": " + json_string(f.build_type) +
         ", \"simd\": " + json_string(f.simd) +
         ", \"tracing\": " + (f.tracing ? "true" : "false") +
         ", \"analysis\": " + (f.analysis ? "true" : "false") +
         ", \"sanitize\": " + json_string(f.sanitize) + "}";
}

// -------------------------------------------------------------- setup

struct Setup {
  std::unique_ptr<Chain> chain;
  /// Steady-clock marks (for the trace) and thread CPU time marks (for
  /// the metrics): start, pool, build, rules, bypass wait, warm-up.
  std::array<TimeNs, 6> marks{};
  std::array<TimeNs, 6> cpu_marks{};
  std::uint64_t next_slice = 0;  ///< controller slice index after warm-up
  /// Core probe readings before, during (every kProbeEvery-th warm-up
  /// slice) and after the set-up; their CPU time is not counted.
  std::vector<ProbeReading> probes;
  TimeNs probe_cpu_ns = 0;

  void mark(std::size_t i) {
    marks[i] = host_ns();
    cpu_marks[i] = thread_cpu_ns();
  }
  void probe(CoreProbe& core) {
    const TimeNs begin = thread_cpu_ns();
    probes.push_back(core.read());
    probe_cpu_ns += thread_cpu_ns() - begin;
  }
  [[nodiscard]] double phase_s(std::size_t i) const {
    const TimeNs probe_ns = i == 4 ? probe_cpu_ns : 0;
    return static_cast<double>(cpu_marks[i + 1] - cpu_marks[i] - probe_ns) / 1e9;
  }
  [[nodiscard]] double total_s() const {
    return static_cast<double>(cpu_marks[5] - cpu_marks[0] - probe_cpu_ns) / 1e9;
  }
};

constexpr const char* kPhaseNames[] = {"setup.pool", "setup.build",
                                       "setup.rules", "setup.bypass_wait",
                                       "setup.warmup"};

std::optional<Setup> set_up(Workload workload, std::uint64_t seed,
                            const hw::exec::CostModel& cost, SpanLog* spans,
                            std::string& error) {
  Setup s;
  CoreProbe core;
  s.probe(core);
  s.probe_cpu_ns = 0;  // read before the timed set-up starts
  s.mark(0);
  s.chain = std::make_unique<Chain>(workload, seed, cost);
  Chain& chain = *s.chain;
  chain.build_pool();
  s.mark(1);
  if (const hw::Status st = chain.build(spans); !st.is_ok()) {
    error = "build: " + st.to_string();
    return std::nullopt;
  }
  s.mark(2);
  if (const hw::Status st = chain.install_rules(); !st.is_ok()) {
    error = "rules: " + st.to_string();
    return std::nullopt;
  }
  s.mark(3);
  if (!chain.wait_bypass()) {
    error = "bypass links not established";
    return std::nullopt;
  }
  s.mark(4);

  std::uint64_t slice = 0;
  for (std::uint64_t window = 0;; ++window) {
    if (window == kMaxWarmupWindows) {
      error = "tier split did not settle during warm-up";
      return std::nullopt;
    }
    TierMark marks[4];
    marks[0] = tier_mark(chain);
    for (std::uint64_t i = 0; i < kWarmupWindow; ++i) {
      if (i == kWarmupWindow / 10) marks[1] = tier_mark(chain);
      if (i == kWarmupWindow - kWarmupWindow / 10) marks[2] = tier_mark(chain);
      if (slice % kProbeEvery == 0) s.probe(core);
      chain.plan_slice(slice);
      if (const hw::Status st = chain.run_slice(slice, nullptr); !st.is_ok()) {
        error = "warm-up FlowMod: " + st.to_string();
        return std::nullopt;
      }
      ++slice;
    }
    marks[3] = tier_mark(chain);
    if (split_drift(marks[0], marks[1], marks[2], marks[3]) <=
        kSplitTolerance) {
      break;
    }
  }
  s.next_slice = slice;
  s.mark(5);
  const TimeNs timed_probe_ns = s.probe_cpu_ns;
  s.probe(core);  // read after the timed set-up ends
  s.probe_cpu_ns = timed_probe_ns;
  return s;
}

/// Puts the setup phases on the trace, under one "setup" span.
void record_setup(SpanLog& spans, const Setup& s) {
  const std::uint16_t track = spans.track("setup");
  spans.set_parent(0);
  spans.record("setup", "setup", track, s.marks[0], s.marks[5]);
  for (std::size_t i = 0; i < 5; ++i) {
    spans.record(kPhaseNames[i], "setup", track, s.marks[i], s.marks[i + 1]);
  }
}

// ------------------------------------------------------------- window

struct Window {
  std::uint64_t slices = 0;
  std::vector<double> slice_ns;       ///< thread CPU time of each slice
  std::vector<double> slice_wall_ns;  ///< steady-clock time of each slice
  /// Readings before every kProbeEvery-th slice and after the last.
  std::vector<ProbeReading> probes;
  /// Cycles of the unshared slices, in order (see count_cycles()): CPU
  /// time times the clock the readings on both sides read.
  std::vector<double> clean_cycles;
  double clean_share = 0;  ///< unshared slices ÷ slices
  FlowModTimes flowmods;
  CounterSet start;
  CounterSet end;
  double host_s = 0;  ///< sum of slice times
  double wall_s = 0;  ///< first slice start to last slice end
  double cpu_s = 0;   ///< process CPU time over the same interval
  std::uint64_t peak_in_use = 0;
  double split_drift = 0;  ///< first tenth vs last tenth of the window
};

/// The port ratio of an unshared core: a low quantile of the readings,
/// so that one reading a clock step split low does not set it.
double best_port(const std::vector<ProbeReading>& probes) {
  std::vector<double> ports;
  for (const ProbeReading& r : probes) ports.push_back(r.port_ratio);
  return percentile(ports, kBestProbe);
}

/// Whether the core was unshared at a reading: its port ratio is within
/// kPortSlack of the best. Another thread on the same physical core
/// raised it from about 1.09 to 1.35–2.0 and slowed slices by up to 1.6x;
/// the clock, in contrast, slows every slice alike, and converting CPU
/// time to cycles takes it out.
bool unshared(double port_ratio, double best) {
  return port_ratio <= best * kPortSlack;
}

/// For each group of slices between two kProbeEvery-spaced readings,
/// whether it ran unshared: the readings on both sides, and kGuardGroups
/// more on each side, found the core unshared.
std::vector<bool> unshared_groups(const std::vector<ProbeReading>& probes) {
  const double best = best_port(probes);
  std::vector<bool> out;
  for (std::size_t g = 0; g + 1 < probes.size(); ++g) {
    const std::size_t first = g >= kGuardGroups ? g - kGuardGroups : 0;
    const std::size_t last = std::min(g + 1 + kGuardGroups, probes.size() - 1);
    bool ok = true;
    for (std::size_t k = first; k <= last; ++k) {
      ok = ok && unshared(probes[k].port_ratio, best);
    }
    out.push_back(ok);
  }
  return out;
}

/// Fills w.clean_cycles with the cycles of the unshared slices. With
/// fewer than kFewestCleanSlices of them (the core was shared nearly all
/// window), the groups whose bracketing readings were least shared fill
/// it up to that many.
void count_cycles(Window& w) {
  const std::vector<bool> ok = unshared_groups(w.probes);
  std::vector<std::pair<double, std::size_t>> groups;  // (rank, g)
  for (std::size_t g = 0; g < ok.size(); ++g) {
    const double worse =
        std::max(w.probes[g].port_ratio, w.probes[g + 1].port_ratio);
    groups.emplace_back(ok[g] ? 0 : worse, g);
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<bool> take(groups.size(), false);
  std::size_t taken = 0;
  for (const auto& [rank, g] : groups) {
    if (rank != 0 && taken >= kFewestCleanSlices) break;
    take[g] = true;
    taken += std::min<std::size_t>(kProbeEvery, w.slices - g * kProbeEvery);
  }
  std::size_t clean = 0;
  for (std::size_t i = 0; i < w.slices; ++i) {
    const std::size_t g = i / kProbeEvery;
    clean += ok[g] ? 1 : 0;
    if (!take[g]) continue;
    const double ghz = (w.probes[g].clock_ghz + w.probes[g + 1].clock_ghz) / 2;
    w.clean_cycles.push_back(w.slice_ns[i] * ghz);
  }
  w.clean_share = ratio(static_cast<double>(clean), static_cast<double>(w.slices));
}

/// Runs measured slices: for `seconds` of host time (at least kMinSlices,
/// and on until kMinCleanSlices were unshared, up to kMaxExtension times
/// as long), or exactly `fixed_slices` when nonzero. With `spans`,
/// every slice is a parent span and the first kExportSlices are written
/// to `trace_path`.
std::optional<Window> measure(Chain& chain, std::uint64_t first_slice,
                              double seconds, std::uint64_t fixed_slices,
                              SpanLog* spans, const std::string& trace_path,
                              std::string& error) {
  Window w;
  CoreProbe probe;
  std::vector<TierMark> marks;
  std::uint16_t track = 0;
  if (spans != nullptr) {
    track = spans->track("runtime");
    spans->tracer().set_enabled(true);
  }
  w.start = read_counters(chain);
  marks.push_back(tier_mark(chain));
  const double cpu0 = cpu_seconds();
  const TimeNs wall0 = host_ns();
  const auto limit = static_cast<TimeNs>(seconds * 1e9);
  const auto cap = static_cast<TimeNs>(seconds * kMaxExtension * 1e9);
  bool enough_clean = false;
  for (std::uint64_t i = 0;; ++i) {
    if (i % kProbeEvery == 0) w.probes.push_back(probe.read());
    const TimeNs elapsed = host_ns() - wall0;
    if (fixed_slices == 0 && elapsed >= limit && i % kCleanCountEvery == 0) {
      const std::vector<bool> ok = unshared_groups(w.probes);
      enough_clean = static_cast<std::size_t>(std::count(ok.begin(), ok.end(), true)) *
                         kProbeEvery >= kMinCleanSlices;
    }
    const bool done =
        fixed_slices != 0
            ? i >= fixed_slices
            : i >= kMinSlices && elapsed >= limit &&
                  (enough_clean || elapsed >= cap);
    if (done) break;
    const std::uint64_t index = first_slice + i;
    chain.plan_slice(index);
    const TimeNs begin = host_ns();
    const TimeNs cpu_begin = thread_cpu_ns();
    if (const hw::Status st = chain.run_slice(index, &w.flowmods);
        !st.is_ok()) {
      error = "FlowMod refused: " + st.to_string();
      return std::nullopt;
    }
    const TimeNs cpu_end = thread_cpu_ns();
    const TimeNs end = host_ns();
    w.slice_ns.push_back(static_cast<double>(cpu_end - cpu_begin));
    w.slice_wall_ns.push_back(static_cast<double>(end - begin));
    w.peak_in_use = std::max<std::uint64_t>(w.peak_in_use,
                                            chain.pool().in_use());
    marks.push_back(tier_mark(chain));
    if (spans != nullptr) {
      spans->set_parent(index);
      spans->record("slice", "exec", track, begin, end);
      if (!spans->fold(/*keep=*/i + 1 < kExportSlices)) {
        error = "span ring overflowed";
        return std::nullopt;
      }
      if (i + 1 == kExportSlices && !spans->export_and_clear(trace_path)) {
        error = "cannot write " + trace_path;
        return std::nullopt;
      }
    }
  }
  // The last group of slices needs a reading after it.
  if (w.slice_ns.size() % kProbeEvery != 0) w.probes.push_back(probe.read());
  w.wall_s = static_cast<double>(host_ns() - wall0) / 1e9;
  w.cpu_s = cpu_seconds() - cpu0;
  w.end = read_counters(chain);
  w.slices = w.slice_ns.size();
  count_cycles(w);
  for (const double ns : w.slice_ns) w.host_s += ns / 1e9;
  const std::size_t tenth = w.slices / 10;
  w.split_drift = split_drift(marks[0], marks[tenth], marks[w.slices - tenth],
                              marks[w.slices]);
  if (spans != nullptr) {
    if (w.slices < kExportSlices && !spans->export_and_clear(trace_path)) {
      error = "cannot write " + trace_path;
      return std::nullopt;
    }
    spans->tracer().set_enabled(false);
  }
  return w;
}

// -------------------------------------------------------------- gates

/// The correctness gate, checked after the final drain. Returns every
/// failed check; empty means the run may be recorded.
std::vector<std::string> gate_failures(Chain& chain, const CounterSet& c) {
  std::vector<std::string> failed;
  const auto need = [&](bool ok, std::string what) {
    if (!ok) failed.push_back(std::move(what));
  };
  const auto at = [&](const char* key) { return c.at(key); };
  need(at("app.generated") == at("app.delivered"),
       "offered " + std::to_string(at("app.generated")) + " frames, delivered " +
           std::to_string(at("app.delivered")));
  need(at("mbuf.in_use") == 0, "mempool not empty after drain");
  need(at("engine.drops") == 0, "engine drops");
  need(at("pmd.tx_rejected") == 0, "guest tx rejections");
  need(at("app.alloc_failures") == 0 && at("mbuf.alloc_failures") == 0,
       "generator alloc failures");
  need(at("app.tx_drops") == 0, "app tx drops");
  need(at("app.reorders") == 0, "intra-flow reordering");
  need(at("ctl.flowmod_errors") == 0 && at("switch.message_errors") == 0,
       "FlowMods answered with an error");
  need(at("bypass.setups_failed") == 0 && at("agent.setup_failures") == 0,
       "bypass setups failed");
  need(at("agent.ctrl_nacks") == 0, "agent control NACKs");
  need(at("agent.timeouts") == 0, "agent timeouts");

  // Transparency, read from outside: every dpdkr port's OpenFlow counters
  // equal what its guest actually sent and received, bypassed or not.
  hw::vswitch::OfSwitch& of = chain.of();
  for (const hw::PortId port : of.dpdkr_ports()) {
    const hw::pmd::GuestPmd* pmd = nullptr;
    for (std::size_t v = 0; v < chain.hypervisor().vm_count() && !pmd; ++v) {
      pmd = chain.hypervisor().vm(v).pmd_for_port(port);
    }
    const auto stats = of.port_stats(port);
    if (pmd == nullptr || !stats.is_ok()) {
      failed.push_back("port " + std::to_string(port) + " has no stats");
      continue;
    }
    const hw::pmd::PmdCounters& g = pmd->counters();
    need(stats.value().rx_packets == g.tx_normal + g.tx_bypass &&
             stats.value().tx_packets == g.rx_normal + g.rx_bypass,
         "port " + std::to_string(port) + " stats differ from its guest");
  }

  const hw::vswitch::BypassManager& bypass = of.bypass_manager();
  need(bypass.active_links() == chain.expected_links() &&
           bypass.pending_links() == 0,
       std::to_string(bypass.active_links()) + " bypass links active, " +
           std::to_string(chain.expected_links()) + " expected");
  // No shm region outlives its link: beyond the per-port channels, one
  // region per port pair with an active direction.
  std::set<std::pair<hw::PortId, hw::PortId>> pairs;
  for (const auto& [from, info] : bypass.links()) {
    if (info.state == hw::vswitch::LinkState::kActive) {
      pairs.insert(std::minmax(info.link.from, info.link.to));
    }
  }
  need(chain.shm().region_count() == chain.base_regions() + pairs.size(),
       std::to_string(chain.shm().region_count() - chain.base_regions()) +
           " bypass regions for " + std::to_string(pairs.size()) +
           " linked pairs");
  if (chain.workload() == Workload::kReconfigChurn) {
    // Every flip completed: adding the rule tore the edge link down,
    // removing it set the link up again.
    const std::uint64_t flips = at("ctl.flips");
    need(at("bypass.teardowns_completed") == (flips + 1) / 2 &&
             at("bypass.setups_completed") == 4 + flips / 2,
         "flips " + std::to_string(flips) + ", setups " +
             std::to_string(at("bypass.setups_completed")) + ", teardowns " +
             std::to_string(at("bypass.teardowns_completed")));
  }
  return failed;
}

/// Drains, then applies the gate; prints failures to stderr.
std::optional<CounterSet> drain_and_gate(Chain& chain, const char* run) {
  if (!chain.drain()) {
    std::fprintf(stderr, "[%s] drain timed out\n", run);
    return std::nullopt;
  }
  CounterSet final_counters = read_counters(chain);
  const std::vector<std::string> failed = gate_failures(chain, final_counters);
  for (const std::string& f : failed) {
    std::fprintf(stderr, "[%s] gate failed: %s\n", run, f.c_str());
  }
  if (!failed.empty()) {
    std::fprintf(stderr, "[%s] counters: %s\n", run,
                 counters_json(final_counters).c_str());
    return std::nullopt;
  }
  return final_counters;
}

// ------------------------------------------------------------ metrics

/// Host core cycles per delivered frame at the median unshared slice.
/// Every slice offers the same load, so this is the PMD core's cost per
/// frame (the figure OVS's pmd-stats-show gives); the tail is
/// slice_kcycles_p90.
double cycles_per_pkt(const Window& w) {
  const double frames_per_slice =
      ratio(static_cast<double>(delta(w.end, w.start).at("app.delivered")),
            static_cast<double>(w.slices));
  return ratio(percentile(w.clean_cycles, 0.5), frames_per_slice);
}

std::vector<Metric> end_to_end(const Window& w,
                               const std::vector<double>& setup_s,
                               double rss_mb) {
  return {
      {"host_cycles_per_pkt", "cycles/pkt", cycles_per_pkt(w)},
      {"slice_kcycles_p50", "kcycles", percentile(w.clean_cycles, 0.50) / 1e3},
      {"slice_kcycles_p90", "kcycles", percentile(w.clean_cycles, 0.90) / 1e3},
      {"setup_s", "s", percentile(setup_s, 0.5)},
      {"peak_rss_mb", "MB", rss_mb},
  };
}

std::vector<Metric> per_layer(const Window& w, const Window& untraced,
                              const SpanLog& spans, const Setup& setup) {
  const CounterSet d = delta(w.end, w.start);
  const CounterSet& e = w.end;
  const auto sum = [&](const std::string& prefix, const std::string& suffix) {
    double total = 0;
    for (const auto& [key, value] : d) {
      if (key.starts_with(prefix) && key.ends_with(suffix)) total += value;
    }
    return total;
  };
  const auto n = [&](const char* key) {
    return static_cast<double>(d.at(key));
  };
  const auto layer = [&](const char* category) {
    const auto it = spans.totals().find(category);
    return it == spans.totals().end() ? LayerTime{} : it->second;
  };
  const double pkts = n("app.delivered");
  const double slice_ns = layer("exec").ns;
  double children_ns = 0;
  for (const auto& [category, time] : spans.totals()) {
    if (category != "exec" && category != "setup") children_ns += time.ns;
  }
  const double exec_ns = slice_ns - children_ns;
  const LayerTime sw = layer("vswitch");
  const LayerTime gen = layer("vm.gen");
  const LayerTime fwd = layer("vm.fwd");
  const LayerTime agent = layer("agent");
  const double polls = sum("ctx.", ".polls");
  const double lookups =
      n("tier.emc_hits") + n("tier.megaflow_hits") + n("tier.slow_path_lookups");
  const double mf_lookups = n("tier.megaflow_hits") + n("tier.megaflow_misses");
  const std::vector<double>& flowmod_ns = w.flowmods.churn_ns;

  return {
      {"exec.overhead_ns_per_pkt", "ns/pkt", ratio(exec_ns, pkts)},
      {"exec.busy_share", "share", ratio(exec_ns, slice_ns)},
      {"exec.polls_per_pkt", "1/pkt", ratio(polls, pkts)},
      {"exec.idle_poll_share", "share", ratio(sum("ctx.", ".idle_polls"), polls)},
      {"vswitch.poll_ns_per_pkt", "ns/pkt", ratio(sw.ns, pkts)},
      {"vswitch.busy_share", "share", ratio(sw.ns, slice_ns)},
      {"vswitch.idle_poll_ns", "ns", ratio(sw.idle_ns, static_cast<double>(sw.idle_calls))},
      {"vswitch.batch_fill", "pkts", ratio(n("tier.batch_packets"), n("tier.batches"))},
      {"vswitch.drops", "count", n("engine.drops")},
      {"vswitch.model_cycles_per_pkt", "cycles/pkt",
       ratio(sum("ctx.pmd", ".cycles"), pkts)},
      {"classifier.emc_hit_share", "share", ratio(n("tier.emc_hits"), lookups)},
      {"classifier.megaflow_hit_share", "share",
       ratio(n("tier.megaflow_hits"), lookups)},
      {"classifier.slow_path_share", "share",
       ratio(n("tier.slow_path_lookups"), lookups)},
      {"classifier.sig_blocks_per_lookup", "1/lookup",
       ratio(n("tier.simd_blocks"), mf_lookups)},
      {"classifier.sig_fp_share", "share",
       ratio(n("tier.sig_false_positives"),
             n("tier.sig_hits") + n("tier.sig_false_positives"))},
      {"classifier.subtables_skipped_per_lookup", "1/lookup",
       ratio(n("tier.subtables_skipped"), mf_lookups)},
      {"classifier.megaflow_inserts_per_kpkt", "1/kpkt",
       ratio(1000 * n("tier.megaflow_inserts"), lookups)},
      {"classifier.capacity_evictions", "count",
       n("megaflow.capacity_evictions")},
      {"classifier.cache_resizes", "count", n("tier.cache_resizes")},
      {"classifier.reval_drains", "count", n("tier.reval_batches")},
      {"classifier.reval_entries_per_drain", "1/drain",
       ratio(n("tier.reval_entries_scanned"), n("tier.reval_batches"))},
      {"classifier.reval_events_per_drain", "1/drain",
       ratio(n("tier.reval_coalesced_events") + n("tier.reval_batches"),
             n("tier.reval_batches"))},
      {"classifier.revalidations", "count", n("tier.megaflow_revalidations")},
      {"openflow.handle_ns_per_flowmod", "ns", mean(flowmod_ns)},
      {"openflow.flowmod_us_p50", "us", percentile(flowmod_ns, 0.50) / 1e3},
      {"openflow.flowmod_us_p99", "us", percentile(flowmod_ns, 0.99) / 1e3},
      {"openflow.message_errors", "count",
       static_cast<double>(e.at("switch.message_errors"))},
      {"flowtable.rules", "count", static_cast<double>(e.at("flowtable.rules"))},
      {"bypass.flip_flowmod_us", "us", mean(w.flowmods.flip_ns) / 1e3},
      {"bypass.setups_completed", "count", n("bypass.setups_completed")},
      {"bypass.teardowns_completed", "count", n("bypass.teardowns_completed")},
      {"bypass.setups_failed", "count", n("bypass.setups_failed")},
      {"bypass.setups_deferred", "count", n("bypass.setups_deferred")},
      {"bypass.active_links", "count",
       static_cast<double>(e.at("bypass.active_links"))},
      {"agent.poll_ns_per_op", "ns",
       ratio(agent.ns, static_cast<double>(agent.items))},
      {"agent.busy_share", "share", ratio(agent.ns, slice_ns)},
      {"agent.ctrl_nacks", "count", n("agent.ctrl_nacks")},
      {"agent.timeouts", "count", n("agent.timeouts")},
      {"agent.drain_retries", "count", n("agent.drain_retries")},
      {"shm.regions_created", "count", n("shm.regions_created")},
      {"shm.regions_live", "count", static_cast<double>(e.at("shm.regions_live"))},
      {"vm.gen_ns_per_pkt", "ns/pkt", ratio(gen.ns, pkts)},
      {"vm.gen_busy_share", "share", ratio(gen.ns, slice_ns)},
      {"vm.fwd_ns_per_pkt", "ns/pkt", ratio(fwd.ns, pkts)},
      {"vm.fwd_busy_share", "share", ratio(fwd.ns, slice_ns)},
      {"vm.model_cycles_per_pkt", "cycles/pkt",
       ratio(sum("ctx.app.", ".cycles"), pkts)},
      {"vm.reorders", "count", n("app.reorders")},
      {"pmd.bypass_rx_share", "share",
       ratio(n("pmd.rx_bypass"), n("pmd.rx_bypass") + n("pmd.rx_normal"))},
      {"pmd.tx_rejected", "count", n("pmd.tx_rejected")},
      {"pmd.ctrl_cmds", "count", n("pmd.ctrl_cmds")},
      {"mbuf.alloc_failures", "count", n("mbuf.alloc_failures")},
      {"mbuf.peak_in_use", "count", static_cast<double>(w.peak_in_use)},
      {"pkt.offered_pkts", "count", n("pkt.offered")},
      {"pkt.distinct_flows", "count",
       static_cast<double>(e.at("pkt.distinct_flows"))},
      {"setup.pool_s", "s", setup.phase_s(0)},
      {"setup.build_s", "s", setup.phase_s(1)},
      {"setup.rules_s", "s", setup.phase_s(2)},
      {"setup.bypass_wait_s", "s", setup.phase_s(3)},
      {"setup.warmup_s", "s", setup.phase_s(4)},
      {"trace.overhead", "ratio", ratio(cycles_per_pkt(w), cycles_per_pkt(untraced)) - 1},
  };
}

/// Per-layer host-time table of the traced window.
std::string layer_table(const SpanLog& spans, double pkts) {
  const auto& totals = spans.totals();
  const auto it = totals.find("exec");
  const double slice_ns = it == totals.end() ? 0 : it->second.ns;
  double children_ns = 0;
  for (const auto& [category, time] : totals) {
    if (category != "exec" && category != "setup") children_ns += time.ns;
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %12s %8s %10s %12s %10s\n", "layer",
                "self_ms", "share", "ns/pkt", "calls", "idle_calls");
  out += line;
  for (const auto& [category, time] : totals) {
    if (category == "setup") continue;
    const double self = category == "exec" ? slice_ns - children_ns : time.ns;
    std::snprintf(line, sizeof line,
                  "%-10.*s %12.3f %8.4f %10.1f %12llu %10llu\n",
                  static_cast<int>(category.size()), category.data(),
                  self / 1e6, ratio(self, slice_ns), ratio(self, pkts),
                  static_cast<unsigned long long>(time.calls),
                  static_cast<unsigned long long>(time.idle_calls));
    out += line;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Operations attempted by one run: frames offered, FlowMods sent and
/// bypass setups requested.
std::uint64_t attempted(const CounterSet& c) {
  return c.at("app.generated") + c.at("ctl.flowmods") +
         c.at("bypass.setups_requested");
}

/// Failed operations; the gate has already required each of them zero.
std::uint64_t failures(const CounterSet& c) {
  return (c.at("app.generated") - c.at("app.delivered")) +
         c.at("app.alloc_failures") + c.at("pmd.tx_rejected") +
         c.at("engine.drops") + c.at("ctl.flowmod_errors") +
         c.at("bypass.setups_failed");
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- runs

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string details;  ///< JSON members for the result file
};

/// Medians of `parts` equal parts of `values`, as a JSON list: shows
/// when in the window the clock moved or other tenants' load came.
std::string parts_json(const std::vector<double>& values, std::size_t parts) {
  const std::size_t n = values.size() / parts;
  std::string out = "[";
  for (std::size_t k = 0; k < parts && n > 0; ++k) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(k * n);
    out += (k == 0 ? "" : ", ") +
           json_number(percentile({first, first + static_cast<std::ptrdiff_t>(n)}, 0.5));
  }
  return out + "]";
}

std::string window_json(const Window& w) {
  std::vector<double> slice_us;
  std::vector<double> ghz;
  std::vector<double> port;
  for (const double ns : w.slice_ns) slice_us.push_back(ns / 1e3);
  for (const ProbeReading& r : w.probes) {
    ghz.push_back(r.clock_ghz);
    port.push_back(r.port_ratio);
  }
  return "{\"slices\": " + std::to_string(w.slices) +
         ", \"clean_share\": " + json_number(w.clean_share) +
         ", \"unshared_slice_kcycles_p99\": " +
         json_number(percentile(w.clean_cycles, 0.99) / 1e3) +
         ", \"parts_slice_cpu_us_p50\": " + parts_json(slice_us, 16) +
         ", \"parts_clock_ghz\": " + parts_json(ghz, 16) +
         ", \"parts_port_ratio\": " + parts_json(port, 16) +
         ", \"flowmods\": " + std::to_string(w.flowmods.churn_ns.size()) +
         ", \"flips\": " + std::to_string(w.flowmods.flip_ns.size()) +
         ", \"host_s\": " + json_number(w.host_s) +
         ", \"wall_s\": " + json_number(w.wall_s) +
         ", \"cpu_s\": " + json_number(w.cpu_s) +
         ", \"tier_split_drift\": " + json_number(w.split_drift) +
         ", \"window_slice_cpu_us_p50\": " +
         json_number(percentile(w.slice_ns, 0.5) / 1e3) +
         ", \"window_slice_cpu_us_p99\": " +
         json_number(percentile(w.slice_ns, 0.99) / 1e3) +
         ", \"window_wall_slice_us_p50\": " +
         json_number(percentile(w.slice_wall_ns, 0.5) / 1e3) +
         ", \"window_wall_slice_us_p99\": " +
         json_number(percentile(w.slice_wall_ns, 0.99) / 1e3) +
         ", \"counters\": " + counters_json(delta(w.end, w.start)) + "}";
}

/// Share of a set-up's probe readings that found the core unshared.
double unshared_share(const Setup& s, double best) {
  const auto n = std::count_if(
      s.probes.begin(), s.probes.end(),
      [&](const ProbeReading& r) { return unshared(r.port_ratio, best); });
  return ratio(static_cast<double>(n), static_cast<double>(s.probes.size()));
}

/// Times of the kSetupRuns set-ups whose readings most often found the
/// core unshared. Another tenant on the core's sibling thread made a
/// set-up take up to 1.7x as long, and it stays for 0.1 s to minutes,
/// as long as one set-up or all of them.
std::vector<double> least_shared_setup_s(const std::vector<Setup>& setups,
                                         double best) {
  std::vector<std::pair<double, double>> ranked;  // (unshared share, s)
  for (const Setup& s : setups) {
    ranked.emplace_back(unshared_share(s, best), s.total_s());
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<double> out;
  for (std::size_t i = 0; i < kSetupRuns && i < ranked.size(); ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

std::optional<RunResult> run_untraced(const Options& o) {
  const hw::exec::CostModel cost = lifted_cost_model(false);
  std::string error;
  std::vector<Setup> setups;
  std::vector<ProbeReading> readings;  // of every set-up so far
  std::size_t unshared_setups = 0;
  while (setups.size() < kSetupRuns ||
         (unshared_setups < kSetupRuns && setups.size() < kMaxSetupRuns)) {
    // Tear the previous chain down first, untimed; the last one is measured.
    if (!setups.empty()) setups.back().chain.reset();
    std::optional<Setup> s = set_up(o.workload, o.seed, cost, nullptr, error);
    if (!s) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return std::nullopt;
    }
    readings.insert(readings.end(), s->probes.begin(), s->probes.end());
    setups.push_back(std::move(*s));
    const double best = best_port(readings);
    unshared_setups = static_cast<std::size_t>(
        std::count_if(setups.begin(), setups.end(), [&](const Setup& x) {
          return unshared_share(x, best) >= kSetupUnshared;
        }));
  }
  // Read before the window: its per-slice records grow with the run's
  // length and would count in the peak.
  const double rss_mb = peak_rss_mb();
  Chain& chain = *setups.back().chain;
  const std::optional<Window> w = measure(chain, setups.back().next_slice,
                                          o.seconds, 0, nullptr, "", error);
  if (!w) {
    std::fprintf(stderr, "measurement failed: %s\n", error.c_str());
    return std::nullopt;
  }
  const std::optional<CounterSet> final_counters =
      drain_and_gate(chain, "untraced");
  if (!final_counters) return std::nullopt;

  RunResult r;
  const std::vector<double> setup_s =
      least_shared_setup_s(setups, best_port(w->probes));
  r.metrics = end_to_end(*w, setup_s, rss_mb);
  r.attempted = attempted(*final_counters);
  r.failed = failures(*final_counters);
  r.details = "\"window\": " + window_json(*w) +
              ", \"setups\": " + std::to_string(setups.size()) +
              ", \"setup_s\": " + parts_json(setup_s, setup_s.size()) +
              ", \"warmup_slices\": " + std::to_string(setups.back().next_slice);
  return r;
}

std::optional<RunResult> run_traced(const Options& o,
                                    const std::string& stem) {
  const hw::exec::CostModel cost = lifted_cost_model(false);
  std::string error;

  // Untraced reference, contexts registered directly, for half the run;
  // the traced run repeats its slice count.
  std::optional<Setup> ref = set_up(o.workload, o.seed, cost, nullptr, error);
  if (!ref) {
    std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return std::nullopt;
  }
  const std::optional<Window> u = measure(
      *ref->chain, ref->next_slice, o.seconds / 2, 0, nullptr, "", error);
  if (!u) {
    std::fprintf(stderr, "measurement failed: %s\n", error.c_str());
    return std::nullopt;
  }
  const std::optional<CounterSet> u_final =
      drain_and_gate(*ref->chain, "untraced");
  if (!u_final) return std::nullopt;
  ref.reset();

  // Traced run: the same workload, seed and number of slices, with every
  // context behind a poll-timing wrapper.
  SpanLog spans(kSpanCapacity);
  spans.tracer().set_enabled(false);
  std::optional<Setup> s = set_up(o.workload, o.seed, cost, &spans, error);
  if (!s) {
    std::fprintf(stderr, "traced setup failed: %s\n", error.c_str());
    return std::nullopt;
  }
  spans.tracer().set_enabled(true);
  record_setup(spans, *s);
  const std::string trace_path = stem + ".trace.json";
  const std::optional<Window> t =
      measure(*s->chain, s->next_slice, 0, u->slices, &spans, trace_path,
              error);
  if (!t) {
    std::fprintf(stderr, "traced measurement failed: %s\n", error.c_str());
    return std::nullopt;
  }
  const std::optional<CounterSet> t_final = drain_and_gate(*s->chain, "traced");
  if (!t_final) return std::nullopt;
  const std::string window_diff = diff_keys(delta(t->end, t->start),
                                            delta(u->end, u->start), false);
  const std::string final_diff = diff_keys(*t_final, *u_final, false);
  if (!window_diff.empty() || !final_diff.empty()) {
    std::fprintf(stderr, "gate failed: traced work differs from untraced:%s%s\n",
                 window_diff.c_str(), final_diff.c_str());
    return std::nullopt;
  }

  const double pkts =
      static_cast<double>(delta(t->end, t->start).at("app.delivered"));
  const std::string table = layer_table(spans, pkts);
  std::printf("per-layer host time, traced window (%llu slices):\n%s",
              static_cast<unsigned long long>(t->slices), table.c_str());
  if (!write_file(stem + ".layers.txt", table)) {
    std::fprintf(stderr, "cannot write %s.layers.txt\n", stem.c_str());
    return std::nullopt;
  }

  RunResult r;
  r.metrics = per_layer(*t, *u, spans, *s);
  r.attempted = attempted(*u_final) + attempted(*t_final);
  r.failed = failures(*u_final) + failures(*t_final);
  r.details = "\"window\": " + window_json(*t) +
              ", \"untraced_window\": " + window_json(*u) +
              ", \"trace_file\": " + json_string(trace_path);
  return r;
}

// -------------------------------------------------------------- check

struct CheckRun {
  CounterSet counters;
  std::uint64_t warmup_slices = 0;
  std::uint64_t messages = 0;  ///< digest of the controller stream
  std::uint64_t traffic = 0;   ///< digest of the generators' flow picks
};

std::optional<CheckRun> check_run(Workload workload, std::uint64_t seed,
                                  bool doubled) {
  std::string error;
  std::optional<Setup> s =
      set_up(workload, seed, lifted_cost_model(doubled), nullptr, error);
  std::optional<Window> w;
  if (s) {
    w = measure(*s->chain, s->next_slice, 0, kCheckSlices, nullptr, "", error);
  }
  if (!w || !s->chain->drain()) {
    std::fprintf(stderr, "check run failed: %s\n", error.c_str());
    return std::nullopt;
  }
  CheckRun r;
  r.counters = read_counters(*s->chain);
  r.warmup_slices = s->next_slice;
  r.messages = s->chain->message_digest();
  r.traffic = 0xcbf29ce484222325ULL;
  for (const bool forward : {true, false}) {
    hw::pkt::WorkloadGen gen(s->chain->profile(forward));
    for (int i = 0; i < 4096; ++i) {
      r.traffic = (r.traffic ^ gen.pick_flow()) * 0x100000001b3ULL;
    }
  }
  return r;
}

/// Shows that the work is fixed by workload and seed: identical counters
/// with every CostModel constant doubled, and different streams of the
/// same size under another seed.
int run_check(const Options& o) {
  const std::optional<CheckRun> base = check_run(o.workload, o.seed, false);
  const std::optional<CheckRun> doubled = check_run(o.workload, o.seed, true);
  const std::optional<CheckRun> other =
      check_run(o.workload, o.seed + 1, false);
  if (!base || !doubled || !other) return 1;
  bool ok = true;
  const auto report = [&ok](bool pass, const std::string& what) {
    std::printf("  %-4s %s\n", pass ? "ok" : "FAIL", what.c_str());
    ok = ok && pass;
  };
  std::printf("check %s seed %llu\n", workload_name(o.workload),
              static_cast<unsigned long long>(o.seed));
  const std::string diff = diff_keys(base->counters, doubled->counters, true);
  report(diff.empty() && base->warmup_slices == doubled->warmup_slices &&
             base->messages == doubled->messages,
         "doubled CostModel: identical work counters (" +
             std::to_string(base->counters.size()) + " counters)" + diff);
  const auto same = [&](const char* key) {
    return base->counters.at(key) == other->counters.at(key);
  };
  report(same("pkt.offered") && same("ctl.flowmods") && same("ctl.flips"),
         "seed " + std::to_string(o.seed + 1) +
             ": same stream sizes (offered " +
             std::to_string(other->counters.at("pkt.offered")) +
             ", FlowMods " + std::to_string(other->counters.at("ctl.flowmods")) +
             ", flips " + std::to_string(other->counters.at("ctl.flips")) + ")");
  report(base->traffic != other->traffic,
         "seed " + std::to_string(o.seed + 1) + ": different traffic");
  if (o.workload != Workload::kBypassHighway) {
    // bypass_highway installs only the fixed steering rules.
    report(base->messages != other->messages,
           "seed " + std::to_string(o.seed + 1) +
               ": different FlowMod sequence and flip schedule");
  }
  return ok ? 0 : 1;
}

// --------------------------------------------------------------- main

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--check") {
      o.check = true;
    } else if (arg == "--workload" && has_value) {
      const auto w = parse_workload(argv[++i]);
      if (!w) return std::nullopt;
      o.workload = *w;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(o.seconds > 0)) return std::nullopt;
  return o;
}

int run(int argc, char** argv) {
  const std::optional<Options> o = parse(argc, argv);
  if (!o) {
    std::fprintf(stderr,
                 "usage: hostbench_chain --workload "
                 "vanilla_megaflow|bypass_highway|reconfig_churn --seed N "
                 "--seconds S --trace 0|1 [--out DIR] | --check ...\n");
    return 2;
  }
  hw::set_log_level(hw::LogLevel::kError);
  Fingerprint fp = fingerprint();
  fp.pinned_cpu = pin_to_one_cpu();
  if (const std::string why = unfit_build(fp); !why.empty()) {
    std::fprintf(stderr, "refusing to measure: %s\n", why.c_str());
    return 3;
  }
  if (o->check) return run_check(*o);

  std::filesystem::create_directories(o->out_dir);
  const std::string stem = o->out_dir + "/" + workload_name(o->workload) +
                           "-seed" + std::to_string(o->seed);
  const double cpu0 = cpu_seconds();
  const TimeNs wall0 = host_ns();
  const std::optional<RunResult> r =
      o->trace ? run_traced(*o, stem) : run_untraced(*o);
  if (!r) return 1;
  const double run_cpu_s = cpu_seconds() - cpu0;
  const double run_wall_s = static_cast<double>(host_ns() - wall0) / 1e9;

  const std::string metrics = metrics_json(r->metrics);
  const std::string result =
      "{\"workload\": " + json_string(workload_name(o->workload)) +
      ", \"seed\": " + std::to_string(o->seed) +
      ", \"trace\": " + (o->trace ? "1" : "0") +
      ", \"host\": " + fingerprint_json(fp) +
      ", \"run_cpu_s\": " + json_number(run_cpu_s) +
      ", \"run_wall_s\": " + json_number(run_wall_s) + ", " + r->details +
      ", \"attempted\": " + std::to_string(r->attempted) +
      ", \"failed\": " + std::to_string(r->failed) +
      ", \"metrics\": " + metrics + "}\n";
  const std::string result_path =
      stem + (o->trace ? "-trace1" : "-trace0") + ".json";
  if (!write_file(result_path, result)) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }

  std::printf("host: %s, %ld CPUs (pinned to %d), %s %s, simd %s, tracing %s\n",
              fp.cpu_model.c_str(), fp.nproc, fp.pinned_cpu, fp.compiler.c_str(),
              fp.build_type.c_str(), fp.simd.c_str(),
              fp.tracing ? "on" : "off");
  std::printf("run: %.3f s wall, %.3f s cpu; result in %s\n", run_wall_s,
              run_cpu_s, result_path.c_str());
  print_metrics(o->trace ? "per-layer metrics (traced run):"
                         : "end-to-end metrics (untraced run):",
                r->metrics);
  std::printf("attempted %llu operations, %llu failed\n",
              static_cast<unsigned long long>(r->attempted),
              static_cast<unsigned long long>(r->failed));
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(r->attempted),
              static_cast<unsigned long long>(r->failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace hb

int main(int argc, char** argv) { return hb::run(argc, argv); }
