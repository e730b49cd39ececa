#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "common/codec.hpp"
#include "consensus/messages.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/tags.hpp"
#include "smr/batch.hpp"

namespace perfbench {

using fastbft::Bytes;
using fastbft::ByteView;

const std::vector<Spec>& all_specs() {
  // Why each workload exists is recorded in perfbench/README.md.
  static const std::vector<Spec> specs = [] {
    std::vector<Spec> v;
    Spec s;
    s.name = "sim-pipeline";
    s.sim = true;
    s.sessions = 4;
    s.window = 32;
    s.rss_ops = 60'000;
    v.push_back(s);

    s = Spec{};
    s.name = "sim-bulk";
    s.sim = true;
    s.sessions = 4;
    s.window = 32;
    s.value_bytes = 1024;
    s.rss_ops = 40'000;
    v.push_back(s);

    s = Spec{};
    s.name = "tcp-saturate";
    // Twice the pipeline's capacity (depth 8 x batch 8), so the closed loop
    // keeps it full and the workload is bound by CPU, not by round trips.
    s.window = 128;
    s.value_bytes = 1024;
    s.one_cpu = true;
    s.rss_ops = 40'000;
    v.push_back(s);

    s = Spec{};
    s.name = "tcp-open";
    s.rate = 3000;
    s.rss_ops = 30'000;
    v.push_back(s);

    s = Spec{};
    s.name = "tcp-sharded";
    s.shards = 2;
    s.window = 128;
    s.value_bytes = 1024;
    s.rss_ops = 40'000;
    v.push_back(s);

    s = Spec{};
    s.name = "tcp-leader-crash";
    s.rate = 2000;
    s.kill_at = 0.4;
    s.rss_ops = 20'000;
    v.push_back(s);
    return v;
  }();
  return specs;
}

const Spec* find_spec(std::string_view name) {
  for (const auto& s : all_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// --- Generated inputs ---------------------------------------------------------

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kIndexDigits = 16;

char pad_byte(std::uint64_t seed, std::uint64_t index, std::size_t pos) {
  std::uint64_t word = splitmix(seed ^ (index * 0x100000001B3ULL) ^ (pos / 8));
  return static_cast<char>('a' + ((word >> (8 * (pos % 8))) & 0xFF) % 26);
}

std::optional<std::uint64_t> parse_index(std::string_view v) {
  if (v.size() < kIndexDigits) return std::nullopt;
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < kIndexDigits; ++i) {
    char c = v[i];
    int d = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (d < 0) return std::nullopt;
    index = index * 16 + static_cast<std::uint64_t>(d);
  }
  return index;
}

bool value_matches(std::uint64_t seed, std::uint64_t index, std::size_t bytes,
                   std::string_view v) {
  if (v.size() != std::max(bytes, kIndexDigits)) return false;
  for (std::size_t pos = kIndexDigits; pos < v.size(); ++pos) {
    if (v[pos] != pad_byte(seed, index, pos)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t OpSource::next() {
  state_ = splitmix(state_);
  return state_;
}

double OpSource::next_gap_us(double rate) {
  // Uniform in (0, 1] from the top 53 bits, then inverse-CDF sampling.
  double u = (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
  return -std::log(u) * 1e6 / rate;
}

std::string key_name(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04u", key);
  return buf;
}

std::string make_value(std::uint64_t seed, std::uint64_t index,
                       std::size_t bytes) {
  std::string v(std::max(bytes, kIndexDigits), '0');
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < kIndexDigits; ++i) {
    v[kIndexDigits - 1 - i] = kHex[(index >> (4 * i)) & 0xF];
  }
  for (std::size_t pos = kIndexDigits; pos < v.size(); ++pos) {
    v[pos] = pad_byte(seed, index, pos);
  }
  return v;
}

// --- History and audit --------------------------------------------------------

void record_reply(OpSlot& op, const fastbft::smr::Reply& reply,
                  std::uint64_t seed, std::size_t value_bytes,
                  std::uint64_t ops_issued) {
  op.timed_out = reply.timed_out();
  op.result_ok = reply.result.ok;
  op.found = reply.result.found;
  if (op.kind != fastbft::smr::OpKind::Get || op.timed_out || !op.found) return;
  auto index = parse_index(reply.result.value);
  if (!index || *index >= ops_issued ||
      !value_matches(seed, *index, value_bytes, reply.result.value)) {
    op.wrong_value = true;
    return;
  }
  op.read_index = static_cast<std::int64_t>(*index);
}

AuditResult audit(const std::deque<OpSlot>& ops) {
  using fastbft::chaos::OpRecord;
  AuditResult out;
  std::vector<OpRecord> history;
  history.reserve(ops.size());
  for (const auto& op : ops) {
    ++out.attempted;
    if (op.wrong_value) ++out.wrong;
    if (!op.completed || op.timed_out || op.wrong_value) ++out.failed;
    OpRecord r;
    r.client_id = op.session;
    r.sequence = op.index;
    r.kind = op.kind;
    r.key = key_name(op.key);
    if (op.kind == fastbft::smr::OpKind::Put) r.value = std::to_string(op.index);
    r.invoked = op.invoked;
    r.returned = op.returned;
    r.completed = op.completed;
    r.reply.client_id = op.session;
    r.reply.sequence = op.index;
    r.reply.op = op.kind;
    r.reply.result.ok = op.result_ok;
    r.reply.result.found = op.found;
    if (op.read_index >= 0) {
      r.reply.result.value = std::to_string(op.read_index);
    } else if (op.wrong_value) {
      // No put wrote what the read returned: a token no put carries.
      r.reply.result.value = "unwritten";
    }
    r.reply.status = op.timed_out ? fastbft::smr::Reply::Status::Timeout
                                  : fastbft::smr::Reply::Status::Ok;
    history.push_back(std::move(r));
  }
  auto check = fastbft::chaos::LinearizabilityChecker{}.check(history);
  out.linearizable = check.linearizable;
  out.conclusive = check.conclusive;
  out.violation = check.violation;
  return out;
}

// --- Tracing ------------------------------------------------------------------

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::record(std::uint32_t name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back({name, id, parent, start_ns, end_ns});
  auto& t = totals_[name];
  ++t.count;
  t.total_ns += static_cast<double>(end_ns - start_ns);
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

bool Tracer::write_chrome(const std::string& path,
                          std::size_t max_spans) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  const std::size_t count = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": \"%" PRIx64
                 "\", \"parent\": \"%" PRIx64 "\"}}%s\n",
                 names_[s.name].c_str(), s.start_ns / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0, s.id, s.parent,
                 i + 1 < count ? "," : "");
  }
  std::fprintf(out, "], \"spans_recorded\": %zu, \"spans_written\": %zu}\n",
               spans_.size(), count);
  return std::fclose(out) == 0;
}

// --- Report -------------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "ops/s"},
      {"p50_us", "us"},
      {"p99_us", "us"},
      {"replica_cpu_us_per_op", "us"},
      {"client_cpu_us_per_op", "us"},
      {"replica_peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"bench.samples", "count"},
      {"bench.trace_overhead_frac", "ratio"},
      {"net.frames_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.writev_per_op", "count"},
      {"net.frames_per_writev", "count"},
      {"net.heartbeats_per_s", "1/s"},
      {"net.delivery_allocs_per_kop", "count"},
      {"net.send_queue_high_water", "count"},
      {"net.reconnects", "count"},
      {"net.peer_downs", "count"},
      {"net.frames_dropped", "count"},
      {"net.decode_errors", "count"},
      {"proc.replica_user_us_per_op", "us"},
      {"proc.replica_sys_us_per_op", "us"},
      {"proc.replica_vcsw_per_op", "count"},
      {"proc.client_vcsw_per_op", "count"},
      {"engine.ops_per_slot", "count"},
      {"engine.effective_depth", "count"},
      {"engine.effective_batch", "count"},
      {"engine.reorder_high_water", "count"},
      {"engine.parked_high_water", "count"},
      {"engine.clamp_stalls", "count"},
      {"engine.adaptive_backoffs", "count"},
      {"session.failovers_per_kop", "count"},
      {"session.rejected_replies", "count"},
      {"session.deadline_timeouts", "count"},
      {"session.gateway_demotions", "count"},
      {"session.submit_us", "us"},
      {"session.handle_us.reply", "us"},
      {"consensus.wrapped_msgs_per_slot", "count"},
      {"consensus.bytes_per_op", "B"},
      {"consensus.slow_path_msg_share", "ratio"},
      {"smr.request_msgs_per_op", "count"},
      {"smr.reply_msgs_per_op", "count"},
      {"viewsync.wish_msgs_per_kop", "count"},
      {"sim.msgs_per_op", "count"},
      {"sim.bytes_per_op", "B"},
      {"sim.p50_ticks", "ticks"},
      {"crypto.sign_us", "us"},
      {"crypto.verify_us", "us"},
      {"crypto.sha256_mb_per_s", "MB/s"},
      {"codec.payload_allocs_per_op", "count"},
      {"codec.decode_ns_per_byte", "ns/B"},
      {"replica.handle_us.request", "us"},
      {"replica.handle_us.propose", "us"},
      {"replica.handle_us.ack", "us"},
      {"replica.handle_us.acksig", "us"},
      {"replica.handle_us.commit", "us"},
  };
  return defs;
}

void Report::emit(const std::vector<MetricDef>& defs, const Values& values) {
  std::string missing = "[";
  for (const auto& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      missing += std::string(missing.size() > 1 ? ", \"" : "\"") + d.name + "\"";
    }
    add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
  note("not_measured", missing + "]");
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::note_number(std::string key, double value) {
  note(std::move(key), number(value));
}

void Report::apply_audit(const AuditResult& result) {
  attempted = result.attempted;
  failed = result.failed;
  correct = result.linearizable && result.conclusive && result.wrong == 0;
  note("audit_linearizable", result.linearizable ? "true" : "false");
  note("audit_conclusive", result.conclusive ? "true" : "false");
  note_number("audit_wrong_results", static_cast<double>(result.wrong));
  note_number("failed_frac", result.attempted
                                 ? static_cast<double>(result.failed) /
                                       static_cast<double>(result.attempted)
                                 : 0.0);
  if (!result.violation.empty()) {
    std::string escaped = "\"";
    for (char c : result.violation.substr(0, 400)) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += (c == '\n' || c == '\t') ? ' ' : c;
    }
    note("audit_violation", escaped + "\"");
  }
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i) {
    out += (i ? ", \"" : "\"") + info[i].first + "\": " + info[i].second;
  }
  out += "}}";
  return out;
}

// --- Latency and process helpers ---------------------------------------------

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + number(values[i]);
  }
  return out + "]";
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

WindowStats window_stats(const std::deque<OpSlot>& ops, std::int64_t from,
                         std::int64_t to, std::int64_t pending_ns) {
  constexpr std::int64_t kSlice = 1'000'000'000;
  const std::size_t slices = static_cast<std::size_t>(std::max<std::int64_t>(1, (to - from) / kSlice));
  const std::int64_t slice_ns = (to - from) / static_cast<std::int64_t>(slices);
  std::vector<double> served(slices, 0);
  std::vector<std::vector<double>> lat(slices);
  std::vector<double> all;
  WindowStats w;
  for (const auto& op : ops) {
    if (op.completed && !op.timed_out && op.done_ns >= from && op.done_ns < to) {
      served[static_cast<std::size_t>((op.done_ns - from) / slice_ns) % slices] += 1;
      w.served += 1;
    }
    if (op.due_ns >= from && op.due_ns < to) {
      const double us = ((op.completed ? op.done_ns : pending_ns) - op.due_ns) / 1000.0;
      lat[static_cast<std::size_t>((op.due_ns - from) / slice_ns) % slices].push_back(us);
      all.push_back(us);
    }
  }
  w.seconds = (to - from) / 1e9;
  w.samples = all.size();
  w.window_ops_per_s = w.served / w.seconds;
  w.window_p50_us = quantile(all, 0.50);
  w.window_p99_us = quantile(all, 0.99);
  std::vector<double> rate, p50, p99;
  w.slices_json = "[";
  for (std::size_t i = 0; i < slices; ++i) {
    rate.push_back(served[i] / (slice_ns / 1e9));
    p50.push_back(quantile(lat[i], 0.50));
    p99.push_back(quantile(lat[i], 0.99));
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%.0f, %.0f, %.0f]", i ? ", " : "",
                  rate.back(), p50.back(), p99.back());
    w.slices_json += buf;
  }
  w.slices_json += "]";
  w.ops_per_s = quantile(rate, 0.5);
  w.p50_us = quantile(p50, 0.5);
  w.p99_us = quantile(p99, 0.5);
  return w;
}

void note_window(Report& r, const WindowStats& w) {
  r.note_number("window_s", w.seconds);
  r.note_number("latency_samples", static_cast<double>(w.samples));
  r.note_number("window_ops_per_s", w.window_ops_per_s);
  r.note_number("window_p50_us", w.window_p50_us);
  r.note_number("window_p99_us", w.window_p99_us);
  r.note("slices_ops_p50_p99", w.slices_json);
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t w = ::write(fd, p, size);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    size -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    ssize_t r = ::read(fd, p, size);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    size -= static_cast<std::size_t>(r);
  }
  return true;
}

ProcUsage self_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
  u.sys_us = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
  u.vcsw = static_cast<double>(ru.ru_nvcsw);
  u.max_rss_mb = ru.ru_maxrss / 1024.0;
  return u;
}

// --- Crypto and codec unit costs ---------------------------------------------

namespace {

struct Timed {
  double calls = 0, bytes = 0, seconds = 0;
  double us_per_call() const { return seconds * 1e6 / calls; }
};

/// Results of timed calls land here so the compiler cannot drop them.
volatile double g_sink = 0;

/// Runs `fn` over `payloads` round-robin for at least 60 ms.
template <typename Fn>
Timed time_loop(const std::vector<Bytes>& payloads, Fn&& fn) {
  Timed t;
  const auto t0 = Clock::now();
  auto elapsed = Clock::duration::zero();
  while (elapsed < std::chrono::milliseconds(60)) {
    for (const auto& p : payloads) {
      g_sink = g_sink + fn(p);
      t.calls += 1;
      t.bytes += static_cast<double>(p.size());
    }
    elapsed = Clock::now() - t0;
  }
  t.seconds = std::chrono::duration<double>(elapsed).count();
  return t;
}

/// Decodes one captured wire payload through the layer that owns its tag.
bool decode_wire(const Bytes& payload) {
  namespace tags = fastbft::net::tags;
  if (payload.empty()) return false;
  fastbft::Decoder dec{ByteView(payload)};
  switch (payload[0]) {
    case tags::kSmrWrapped: {
      dec.u8();
      dec.u32();
      dec.u64();
      dec.u64();
      dec.u64();
      ByteView inner = dec.bytes_view();
      if (!dec.ok()) return false;
      auto msg = fastbft::consensus::parse_message(inner);
      if (msg) {
        if (auto* p = std::get_if<fastbft::consensus::ProposeMsg>(&*msg)) {
          return fastbft::smr::decode_batch(p->x).has_value();
        }
      }
      return msg.has_value();
    }
    case tags::kSmrRequest: {
      dec.u8();
      ByteView raw = dec.bytes_view();
      return dec.ok() && fastbft::smr::Command::from_wire(raw).has_value();
    }
    case tags::kSmrReply:
      dec.u8();
      return fastbft::smr::Reply::decode(dec).has_value() &&
             fastbft::crypto::Signature::decode(dec).has_value() && dec.at_end();
    default:
      return false;
  }
}

}  // namespace

void add_unit_costs(Values& values, Report& report,
                    const std::vector<Bytes>& payloads, bool wire_payloads) {
  auto keys = std::make_shared<const fastbft::crypto::KeyStore>(42, kReplicas);
  fastbft::crypto::Signer signer(keys, 0);
  fastbft::crypto::Verifier verifier(keys);
  const std::string domain = "perfbench";

  const Timed sign = time_loop(payloads, [&](const Bytes& p) {
    return signer.sign(domain, ByteView(p)).bytes[0];
  });
  std::vector<fastbft::crypto::Signature> sigs;
  for (const auto& p : payloads) sigs.push_back(signer.sign(domain, ByteView(p)));
  std::size_t k = 0;
  const Timed verify = time_loop(payloads, [&](const Bytes& p) {
    const bool ok = verifier.verify(0, domain, ByteView(p), sigs[k]);
    k = (k + 1) % sigs.size();
    return ok;
  });
  const Timed hash = time_loop(payloads, [&](const Bytes& p) {
    return fastbft::crypto::sha256(ByteView(p))[0];
  });
  double decoded_ok = 0;
  const Timed decode = time_loop(payloads, [&](const Bytes& p) {
    const bool ok = wire_payloads
                        ? decode_wire(p)
                        : fastbft::smr::decode_batch(fastbft::Value(p)).has_value();
    decoded_ok += ok;
    return ok;
  });
  values["crypto.sign_us"] = sign.us_per_call();
  values["crypto.verify_us"] = verify.us_per_call();
  values["crypto.sha256_mb_per_s"] = hash.bytes / 1e6 / hash.seconds;
  values["codec.decode_ns_per_byte"] = decode.seconds * 1e9 / decode.bytes;
  double mean_bytes = 0;
  for (const auto& p : payloads) mean_bytes += static_cast<double>(p.size());
  report.note_number("unit_cost_payloads", static_cast<double>(payloads.size()));
  report.note_number("unit_cost_mean_payload_bytes",
                     mean_bytes / static_cast<double>(payloads.size()));
  report.note_number("unit_cost_decoded_share", decoded_ok / decode.calls);
}

void add_engine_values(Values& values,
                       const std::vector<fastbft::smr::SmrNode::EngineStats>& replicas) {
  double depth = 0, batch = 0, reorder = 0, parked = 0, clamps = 0, backoffs = 0;
  for (const auto& s : replicas) {
    depth = std::max<double>(depth, s.effective_depth);
    batch = std::max<double>(batch, s.effective_batch);
    reorder = std::max<double>(reorder, static_cast<double>(s.reorder_high_water));
    parked = std::max<double>(parked, static_cast<double>(s.parked_high_water));
    clamps += static_cast<double>(s.clamp_stalls);
    backoffs += static_cast<double>(s.adaptive_backoffs);
  }
  values["engine.effective_depth"] = depth;
  values["engine.effective_batch"] = batch;
  values["engine.reorder_high_water"] = reorder;
  values["engine.parked_high_water"] = parked;
  values["engine.clamp_stalls"] = clamps;
  values["engine.adaptive_backoffs"] = backoffs;
}

std::vector<Bytes> batch_payloads(const Spec& spec, std::uint64_t seed) {
  OpSource source(seed);
  std::vector<Bytes> out;
  std::uint64_t index = 0;
  for (int b = 0; b < 16; ++b) {
    std::vector<fastbft::smr::Command> batch;
    for (std::uint32_t i = 0; i < kBatch; ++i, ++index) {
      auto kind = source.next_kind();
      auto key = key_name(source.next_key());
      batch.push_back(kind == fastbft::smr::OpKind::Put
                          ? fastbft::smr::Command::put(
                                key, make_value(seed, index, spec.value_bytes),
                                kReplicas, index + 1)
                          : fastbft::smr::Command::get(key, kReplicas, index + 1));
    }
    out.push_back(fastbft::smr::encode_batch(batch).bytes());
  }
  return out;
}

// --- Concurrent clusters --------------------------------------------------------

namespace {

cpu_set_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
  return set;
}

std::int64_t since_epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

Clock::time_point from_epoch_ns(std::int64_t ns) {
  return Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(ns)));
}

/// A forked cluster process and the pipe ends that talk to it.
struct ClusterProcess {
  pid_t pid = -1;
  int to = -1, from = -1;
};

/// Kills whatever is still running and reaps every child.
struct ClusterProcesses {
  std::vector<ClusterProcess> children;
  ~ClusterProcesses() {
    for (auto& c : children) {
      if (c.to >= 0) ::close(c.to);
      if (c.from >= 0) ::close(c.from);
      if (c.pid > 0) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
      }
    }
  }
};

}  // namespace

std::uint32_t concurrent_clusters() {
  const cpu_set_t set = allowed_cpus();
  return static_cast<std::uint32_t>(std::clamp(CPU_COUNT(&set), 1, 4));
}

int pin_to_cpu(std::uint32_t index) {
  const cpu_set_t allowed = allowed_cpus();
  index %= static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || index-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

void ClusterFigures::set_window(const WindowStats& w) {
  ops_per_s = w.ops_per_s;
  p50_us = w.p50_us;
  p99_us = w.p99_us;
  window_ops_per_s = w.window_ops_per_s;
  window_p50_us = w.window_p50_us;
  window_p99_us = w.window_p99_us;
  served = w.served;
  samples = static_cast<double>(w.samples);
}

void ClusterFigures::set_audit(const AuditResult& a) {
  attempted = a.attempted;
  failed = a.failed;
  wrong = a.wrong;
  linearizable = a.linearizable;
  conclusive = a.conclusive;
  std::strncpy(violation, a.violation.c_str(), sizeof(violation) - 1);
}

Window window_from_now(double seconds) {
  const auto after = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  Window w;
  w.warm_end = Clock::now() + after(std::min(1.0, 0.1 * seconds));
  w.end = w.warm_end + after(seconds);
  return w;
}

std::optional<std::vector<ClusterFigures>> run_forked(
    std::uint32_t count, double seconds,
    const std::function<ClusterFigures(std::uint32_t, const WindowGate&)>& body) {
  ClusterProcesses procs;
  for (std::uint32_t k = 0; k < count; ++k) {
    // Close-on-exec, so processes a cluster starts hold no pipe end.
    int to[2], from[2];
    if (::pipe2(to, O_CLOEXEC) != 0) return std::nullopt;
    if (::pipe2(from, O_CLOEXEC) != 0) {
      ::close(to[0]);
      ::close(to[1]);
      return std::nullopt;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Keep only this cluster's pipe ends, so it sees EOF if the harness
      // goes away.
      for (const auto& c : procs.children) {
        ::close(c.to);
        ::close(c.from);
      }
      ::close(to[1]);
      ::close(from[0]);
      const WindowGate gate = [in = to[0], out = from[1]] {
        const char ready = 'R';
        std::int64_t bounds[2];
        if (!write_all(out, &ready, 1) || !read_all(in, bounds, sizeof(bounds))) {
          ::_exit(1);
        }
        return Window{from_epoch_ns(bounds[0]), from_epoch_ns(bounds[1])};
      };
      const ClusterFigures f = body(k, gate);
      ::_exit(write_all(from[1], &f, sizeof(f)) ? 0 : 1);
    }
    ::close(to[0]);
    ::close(from[1]);
    if (pid < 0) {
      ::close(to[1]);
      ::close(from[0]);
      return std::nullopt;
    }
    procs.children.push_back({pid, to[1], from[0]});
  }
  for (auto& c : procs.children) {
    char ready = 0;
    if (!read_all(c.from, &ready, 1)) return std::nullopt;
  }
  const Window w = window_from_now(seconds);
  const std::int64_t bounds[2] = {since_epoch_ns(w.warm_end), since_epoch_ns(w.end)};
  for (auto& c : procs.children) {
    if (!write_all(c.to, bounds, sizeof(bounds))) return std::nullopt;
  }
  std::vector<ClusterFigures> out(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    auto& c = procs.children[k];
    int status = 0;
    const bool ok = read_all(c.from, &out[k], sizeof(ClusterFigures));
    ::waitpid(c.pid, &status, 0);
    c.pid = -1;
    if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || !out[k].measured) {
      return std::nullopt;
    }
  }
  return out;
}

void add_end_to_end(Report& r, const std::vector<ClusterFigures>& clusters) {
  AuditResult audits;
  bool settled = true;
  double ops_per_s = 0, p50 = 0, p99 = 0, served = 0, replica_us = 0,
         client_us = 0, rss_mb = 0;
  std::uint64_t rss_ops = ~0ULL;
  std::vector<double> window_ops, window_p50, window_p99, rss, setup_s;
  const double count = static_cast<double>(clusters.size());
  for (const auto& c : clusters) {
    audits.attempted += c.attempted;
    audits.failed += c.failed;
    audits.wrong += c.wrong;
    audits.linearizable = audits.linearizable && c.linearizable;
    audits.conclusive = audits.conclusive && c.conclusive;
    if (audits.violation.empty()) audits.violation = c.violation;
    settled = settled && c.settled;
    // Latency quantiles are taken per cluster first: pooled, the slowest
    // CPU would set the tail.
    ops_per_s += c.ops_per_s / count;
    p50 += c.p50_us / count;
    p99 += c.p99_us / count;
    served += c.served;
    replica_us += c.replica_cpu_us;
    client_us += c.client_cpu_us;
    rss_mb = std::max(rss_mb, c.rss_mb);
    rss_ops = std::min(rss_ops, c.rss_ops);
    window_ops.push_back(c.window_ops_per_s);
    window_p50.push_back(c.window_p50_us);
    window_p99.push_back(c.window_p99_us);
    rss.push_back(c.rss_mb);
    std::vector<double> setups(c.setups_s, c.setups_s + kSetups);
    setup_s.push_back(quantile(setups, 0.5));
  }
  const double n = std::max(1.0, served);
  r.apply_audit(audits);
  r.correct = r.correct && settled;
  r.note("settled", settled ? "true" : "false");
  r.note_number("clusters", count);
  r.note_number("served", served);
  // Whole-window figures and peak RSS of each cluster.
  r.note("cluster_window_ops_per_s", json_list(window_ops));
  r.note("cluster_window_p50_us", json_list(window_p50));
  r.note("cluster_window_p99_us", json_list(window_p99));
  r.note("cluster_peak_rss_mb", json_list(rss));
  r.note_number("rss_at_ops", static_cast<double>(rss_ops));
  r.note("cluster_setup_s", json_list(setup_s));
  Values v;
  v["ops_per_s"] = ops_per_s;
  v["p50_us"] = p50;
  v["p99_us"] = p99;
  v["replica_cpu_us_per_op"] = replica_us / n;
  v["client_cpu_us_per_op"] = client_us / n;
  v["replica_peak_rss_mb"] = rss_mb;
  v["setup_s"] = 0;
  for (double s : setup_s) v["setup_s"] += s / count;
  r.emit(end_to_end_metrics(), v);
}

}  // namespace perfbench
