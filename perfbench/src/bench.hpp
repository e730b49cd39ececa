#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/checker.hpp"
#include "smr/command.hpp"
#include "smr/reply.hpp"
#include "smr/smr_node.hpp"

/// \file bench.hpp
/// Shared pieces of the repository benchmark: the workload table, the
/// seeded op generator, the per-op history with its correctness audit,
/// the in-memory span recorder and the metric report. The two runners
/// (sim_bench.cpp, tcp_bench.cpp) reach the service only through its
/// public entry points.

namespace perfbench {

namespace smr = fastbft::smr;

using Clock = std::chrono::steady_clock;

/// Cluster and load shape shared by every workload (n = 4, f = t = 1).
inline constexpr std::uint32_t kReplicas = 4;
inline constexpr std::uint32_t kBatch = 8;
inline constexpr std::uint32_t kDepth = 8;
inline constexpr std::uint32_t kKeys = 1024;
/// Requests still unresolved after this long complete as Timeout (µs on
/// TCP, simulated ticks on the simulator).
inline constexpr std::uint64_t kDeadlineUs = 5'000'000;
/// Set-ups per cluster; setup_s is their median.
inline constexpr int kSetups = 21;

struct Spec {
  std::string name;
  bool sim = false;
  std::uint32_t shards = 1;
  std::uint32_t sessions = 1;
  /// Closed loop: requests a session keeps outstanding. 0 = open loop.
  std::uint32_t window = 0;
  /// Open loop: Poisson arrival rate (ops/s).
  double rate = 0;
  std::size_t value_bytes = 16;
  /// SIGKILL replica 0 this far (as a share) into the measured window.
  double kill_at = -1;
  /// TCP: run every process and thread of the cluster, the harness's own
  /// included, on one CPU.
  bool one_cpu = false;
  /// replica_peak_rss_mb is read once this many ops completed, so runs
  /// compare equal work: replica memory grows with ops applied. Set well
  /// below what the workload completes in a 25 s window, so a slow host
  /// still reaches it.
  std::uint64_t rss_ops = 0;
};

const std::vector<Spec>& all_specs();
const Spec* find_spec(std::string_view name);

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

// --- Generated inputs ---------------------------------------------------------

/// One seeded stream for everything a run generates: op kind (put:get =
/// 3:1), key (uniform over kKeys) and open-loop inter-arrival gaps.
class OpSource {
 public:
  explicit OpSource(std::uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ULL) {}
  smr::OpKind next_kind() { return next() % 4 < 3 ? smr::OpKind::Put : smr::OpKind::Get; }
  std::uint32_t next_key() { return static_cast<std::uint32_t>(next() % kKeys); }
  /// Exponential gap in µs for a Poisson process of `rate` ops/s.
  double next_gap_us(double rate);
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

std::string key_name(std::uint32_t key);

/// The value op `index` writes: its index as 16 hex digits, padded to
/// `bytes` with bytes derived from (seed, index). Every put writes a
/// distinct value, so a read names the write it observed.
std::string make_value(std::uint64_t seed, std::uint64_t index,
                       std::size_t bytes);

// --- History and audit --------------------------------------------------------

/// One generated op, written by the generator before submission and by the
/// completion callback after it; times are ns since the run's epoch (TCP)
/// or simulated ticks (the simulator's history clock).
struct OpSlot {
  smr::OpKind kind = smr::OpKind::Noop;
  std::uint32_t key = 0;
  std::uint32_t session = 0;
  std::uint64_t index = 0;
  std::int64_t due_ns = 0;      ///< open loop: when it was due; else submit
  std::int64_t invoked = 0;     ///< history clock at submission
  std::int64_t returned = 0;    ///< history clock at completion
  std::int64_t done_ns = 0;     ///< wall clock at completion
  bool completed = false;
  bool timed_out = false;
  bool result_ok = false;
  bool found = false;
  /// Get: index of the put whose value was read (-1: none / not a get).
  std::int64_t read_index = -1;
  /// The reply carried a value no generated put wrote.
  bool wrong_value = false;
};

/// Fills the outcome fields of `op` from the session's reply; a read of a
/// value no generated put wrote sets `wrong_value`.
void record_reply(OpSlot& op, const smr::Reply& reply, std::uint64_t seed,
                  std::size_t value_bytes, std::uint64_t ops_issued);

struct AuditResult {
  bool linearizable = true;
  bool conclusive = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< deadline, never completed, or wrong value
  std::uint64_t wrong = 0;
  std::string violation;
};

/// Runs every op of the run through chaos::LinearizabilityChecker.
AuditResult audit(const std::deque<OpSlot>& ops);

// --- Tracing ------------------------------------------------------------------

/// In-memory span recorder: spans are appended while the run goes and
/// written out as a Chrome trace-event file when it ends.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0;
    double mean_us() const { return count ? total_ns / count / 1000.0 : 0; }
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint32_t intern(std::string_view name);
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::uint64_t next_id() { return ++id_counter_; }
  void record(std::uint32_t name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ns, std::int64_t end_ns);
  Totals totals(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  /// Writes at most `max_spans` spans; false if the file cannot be written.
  bool write_chrome(const std::string& path, std::size_t max_spans) const;

 private:
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Totals> totals_;
  std::uint64_t id_counter_ = 0;
};

/// Root-span id of an op: client id in the high bits, sequence below.
inline std::uint64_t op_span_id(std::uint64_t client, std::uint64_t seq) {
  return (client << 40) | seq;
}

// --- Report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metric tables: what a run with tracing off (end to end) and on
/// (per layer) reports, in order, for every workload.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& layer_metrics();

using Values = std::map<std::string, double>;

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra record fields, each a ready-made JSON value.
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json_value) {
    info.emplace_back(std::move(key), std::move(json_value));
  }
  void note_number(std::string key, double value);
  void apply_audit(const AuditResult& result);
  /// Adds every metric of `defs` in table order. A name missing from
  /// `values` is a layer that does not run on this workload: it reads 0
  /// and is listed in the record's "not_measured".
  void emit(const std::vector<MetricDef>& defs, const Values& values);
  std::string to_json() const;
};

// --- Latency and process helpers ---------------------------------------------

/// Throughput and latency of the window [from, to), both whole and as the
/// median over its one-second slices. An op counts as served in the slice
/// it completed in, and its latency (from when it was due to completion,
/// or to `pending_ns` if it never completed) in the slice it was due in.
struct WindowStats {
  double ops_per_s = 0, p50_us = 0, p99_us = 0;  ///< medians over slices
  double window_ops_per_s = 0, window_p50_us = 0, window_p99_us = 0;
  double served = 0, seconds = 0;
  std::size_t samples = 0;
  std::string slices_json;  ///< [[ops/s, p50, p99], ...] per slice
};
WindowStats window_stats(const std::deque<OpSlot>& ops, std::int64_t from,
                         std::int64_t to, std::int64_t pending_ns);
void note_window(Report& r, const WindowStats& w);

/// `values` as a JSON array.
std::string json_list(const std::vector<double>& values);

/// Exact quantile (nearest rank) of `values`; sorts in place.
double quantile(std::vector<double>& values, double q);

/// Whole-buffer pipe I/O between the harness and its child processes;
/// false on EOF or error.
bool write_all(int fd, const void* data, std::size_t size);
bool read_all(int fd, void* data, std::size_t size);

struct ProcUsage {
  double user_us = 0;
  double sys_us = 0;
  double vcsw = 0;
  double max_rss_mb = 0;
};
ProcUsage self_usage();

/// Per-layer unit costs of the crypto and codec layers, measured by calling
/// their public functions on `payloads` (wire payloads captured from the
/// simulator, or encoded batches at the workload's batch size).
void add_unit_costs(Values& values, Report& report,
                    const std::vector<std::vector<std::uint8_t>>& payloads,
                    bool wire_payloads);

/// The engine layer's gauges over the replicas: knobs and high-waters as
/// maxima, event counters summed.
void add_engine_values(Values& values,
                       const std::vector<fastbft::smr::SmrNode::EngineStats>& replicas);

/// Encoded batches of kBatch generated commands at the spec's value size.
std::vector<std::vector<std::uint8_t>> batch_payloads(const Spec& spec,
                                                      std::uint64_t seed);

// --- Concurrent clusters --------------------------------------------------------

/// One CPU runs as fast as the host lets it, and on a shared host that
/// differs between CPUs by tens of percent from one minute to the next. So
/// an untraced run drives one independent cluster per CPU (up to four) at
/// once, each in its own process with its own inputs, and reports the
/// figures of a mean cluster.
std::uint32_t concurrent_clusters();

/// Seed of cluster `k`'s inputs (cluster 0 uses the run's seed).
inline std::uint64_t cluster_seed(std::uint64_t seed, std::uint32_t k) {
  return seed + k * 0x9E3779B97F4A7C15ULL;
}

/// Pins the calling thread, and with it every thread and process it starts
/// later, to the index-th CPU it may run on (modulo their number). Returns
/// that CPU, or -1 on failure.
int pin_to_cpu(std::uint32_t index);

/// What one cluster of an untraced run measured over the window (plain
/// bytes over a pipe between forks of one process).
struct ClusterFigures {
  bool measured = false;  ///< false: the cluster failed before its window
  /// Medians over the window's one-second slices.
  double ops_per_s = 0, p50_us = 0, p99_us = 0;
  double window_ops_per_s = 0, window_p50_us = 0, window_p99_us = 0;
  double served = 0, samples = 0;
  /// CPU over the window, in µs: replicas' and load generator's.
  double replica_cpu_us = 0, client_cpu_us = 0;
  double rss_mb = 0;  ///< largest replica peak RSS once rss_ops completed
  std::uint64_t rss_ops = 0;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  bool linearizable = false, conclusive = false;
  /// Simulator: the replicas' stores agreed once every op was applied.
  /// TCP: every op completed before the drain deadline.
  bool settled = false;
  double setups_s[kSetups] = {};
  char violation[256] = {};

  void set_window(const WindowStats& w);
  void set_audit(const AuditResult& a);
};

/// The measured window on the steady clock: warm-up ends, then the window.
struct Window {
  Clock::time_point warm_end, end;
};
/// A cluster calls its gate once it is built; the gate returns the window.
using WindowGate = std::function<Window()>;

/// The window of a run with one cluster: warm-up from now.
Window window_from_now(double seconds);

/// Runs `body` for clusters 0..count-1 at once, each in a forked process.
/// Every body builds its cluster and then calls its gate, which returns
/// when all are built, with one window for all. Returns the figures by
/// cluster, or nothing if a cluster process failed.
std::optional<std::vector<ClusterFigures>> run_forked(
    std::uint32_t count, double seconds,
    const std::function<ClusterFigures(std::uint32_t, const WindowGate&)>& body);

/// Adds the end-to-end metrics of an untraced run, and its audit, from its
/// clusters' figures: throughput, latency and set-up time of a mean
/// cluster, CPU per op over all, and the largest replica peak RSS.
void add_end_to_end(Report& r, const std::vector<ClusterFigures>& clusters);

// --- Workload runners -----------------------------------------------------------

Report run_sim(const Args& args);
Report run_tcp(const Args& args);

/// Entry point of a TCP replica process (`perfbench --replica ...`, started
/// by run_tcp); returns the process exit code.
int replica_main(int argc, char** argv);

}  // namespace perfbench
