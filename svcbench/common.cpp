// Shared machinery of svc_bench: statistics, the span recorder, the world,
// packet-walk ground truth and the reply checks.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "workload/wire_world.hpp"

namespace svcbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void Result::mark_incorrect(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

bool Result::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_;
}

std::vector<std::string> Result::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

Phase::Phase(double seconds)
    : start_(Clock::now()),
      deadline_(start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds))),
      end_(start_),
      cpu_start_ms_(process_cpu_ms()) {}

void Phase::finish() {
  end_ = Clock::now();
  cpu_end_ms_ = process_cpu_ms();
}

void Phase::report(Result& result, double setup_s,
                   const std::vector<double>& latency_ms,
                   double rss_mb) const {
  const double ops = static_cast<double>(latency_ms.size());
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_ops_s", ops / seconds_run(), "ops/s"},
      {"latency_p50_ms", percentile(latency_ms, 50), "ms"},
      {"latency_p90_ms", percentile(latency_ms, 90), "ms"},
      {"cpu_ms_per_op", (cpu_end_ms_ - cpu_start_ms_) / std::max(ops, 1.0),
       "ms"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  char line[160];
  std::snprintf(line, sizeof line,
                "phase: %.3f s, %zu verified ops = latency samples (%zu "
                "beyond p90)",
                seconds_run(), latency_ms.size(), latency_ms.size() / 10);
  result.notes.emplace_back(line);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

void Tracer::record(std::uint64_t id, const char* name,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::uint64_t op) {
  if (!on_) return;
  Span s;
  s.id = id;
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - epoch_).count();
  s.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::uint64_t Tracer::span(const char* name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t op) {
  const std::uint64_t id = reserve();
  record(id, name, start, end, parent, op);
  return id;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

std::string Tracer::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's coverage of each parent, clipped to the parent's interval.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id[s.id] = &s;
  std::map<std::uint64_t, std::int64_t> covered;
  for (const Span& s : spans_) {
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[p.id] += hi - lo;
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
    std::vector<double> us;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& row = rows[s.name];
    const std::int64_t d = s.end_ns - s.start_ns;
    const auto c = covered.find(s.id);
    const std::int64_t self =
        std::max<std::int64_t>(0, d - (c == covered.end() ? 0 : c->second));
    ++row.count;
    row.total_ms += static_cast<double>(d) / 1e6;
    row.self_ms += static_cast<double>(self) / 1e6;
    row.us.push_back(static_cast<double>(d) / 1e3);
  }
  std::ostringstream out;
  char line[200];
  std::snprintf(line, sizeof line, "%-28s %8s %12s %12s %12s\n", "span",
                "count", "total-ms", "self-ms", "p50-us");
  out << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "%-28s %8zu %12.1f %12.1f %12.1f\n",
                  name.c_str(), row.count, row.total_ms, row.self_ms,
                  percentile(row.us, 50));
    out << line;
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

namespace {

/// WireServer I/O threads; the envelope crypto of the sessions runs on
/// them.
constexpr std::size_t kIoThreads = 2;

}  // namespace

WorldSpec grid_spec(util::Rng& layout, std::size_t sessions,
                    std::uint64_t seed) {
  constexpr std::size_t kTenants = 13;
  constexpr std::size_t kFullTenants = 11;
  WorldSpec spec;
  spec.topo = workload::grid(10, 5);
  spec.tenant_count = kTenants;
  spec.seed = seed;
  std::vector<std::size_t> tenants;
  while (tenants.size() < sessions) {
    const std::size_t t = layout.below(kFullTenants);
    if (std::find(tenants.begin(), tenants.end(), t) == tenants.end()) {
      tenants.push_back(t);
    }
  }
  for (const std::size_t t : tenants) {
    spec.wire_indices.push_back(t + kTenants * layout.below(4));
  }
  return spec;
}

World::World(WorldSpec spec) : spec_(std::move(spec)) {
  workload::ScenarioConfig config;
  config.generated = spec_.topo;
  config.tenant_count = spec_.tenant_count;
  config.seed = spec_.seed;
  for (const std::size_t i : spec_.wire_indices) {
    config.wire_hosts.push_back(spec_.topo.hosts.at(i));
  }
  runtime_ = std::make_unique<workload::ScenarioRuntime>(std::move(config));
  runtime_->settle(50 * sim::kMillisecond);
}

World::~World() { stop(); }

bool World::start(Tracer& tracer) {
  std::vector<sdn::HostId> wire_hosts;
  for (const std::size_t i : spec_.wire_indices) {
    wire_hosts.push_back(spec_.topo.hosts.at(i));
  }
  service_ = std::make_unique<net::WireService>(runtime_->loop());
  net::WireServerConfig server_config;
  server_config.io_threads = kIoThreads;
  server_ = std::make_unique<net::WireServer>(
      server_config, runtime_->rvaas(), *service_, runtime_->ias().root_key(),
      workload::wire_slots(*runtime_, wire_hosts), spec_.seed ^ 0x3157);
  service_->start();
  server_->start();
  running_ = true;

  bool ok = true;
  for (std::size_t i = 0; i < wire_hosts.size(); ++i) {
    net::WireClientConfig config;
    config.port = server_->port();
    config.requested_host = wire_hosts[i].value;
    config.seed = spec_.seed * 1000 + 0xc11e + i;
    Session session;
    session.client = std::make_unique<net::WireClient>(config);
    session.host = wire_hosts[i];
    session.ap = ap_of(wire_hosts[i]);
    const auto t0 = Clock::now();
    const bool connected =
        session.client->connect() == net::WelcomeStatus::Ok;
    const auto t1 = Clock::now();
    tracer.span("net.connect", t0, t1);
    connect_ms.push_back(ms_between(t0, t1));
    ok = ok && connected;
    sessions_.push_back(std::move(session));
  }
  return ok;
}

void World::stop() {
  if (!running_) return;
  for (Session& s : sessions_) s.client->close();
  server_->stop();
  service_->stop();
  running_ = false;
}

std::size_t World::tenant_of(sdn::HostId host) const {
  const auto& hosts = spec_.topo.hosts;
  const auto it = std::find(hosts.begin(), hosts.end(), host);
  return static_cast<std::size_t>(it - hosts.begin()) % spec_.tenant_count;
}

std::vector<sdn::HostId> World::cotenants(sdn::HostId host) const {
  std::vector<sdn::HostId> out;
  const std::size_t tenant = tenant_of(host);
  const auto& hosts = spec_.topo.hosts;
  for (std::size_t i = tenant; i < hosts.size(); i += spec_.tenant_count) {
    if (hosts[i] != host) out.push_back(hosts[i]);
  }
  return out;
}

sdn::PortRef World::ap_of(sdn::HostId host) {
  return topology().host_ports(host).front();
}

std::uint32_t World::ip_of(sdn::HostId host) {
  return runtime_->addressing().of(host).ip;
}

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

std::set<sdn::PortRef> Walk::endpoints() const {
  std::set<sdn::PortRef> out;
  for (const Delivery& d : deliveries) {
    if (d.egress != from) out.insert(d.egress);
  }
  return out;
}

std::set<std::string> Walk::jurisdictions(const sdn::Topology& topo) const {
  std::set<std::string> out{topo.geo(from.sw).jurisdiction};
  for (const Delivery& d : deliveries) {
    for (const sdn::SwitchId sw : d.path) out.insert(topo.geo(sw).jurisdiction);
  }
  return out;
}

Walk Walk::without(sdn::SwitchId sw) const {
  Walk out;
  out.from = from;
  for (const Delivery& d : deliveries) {
    if (std::find(d.path.begin(), d.path.end(), sw) == d.path.end()) {
      out.deliveries.push_back(d);
    }
  }
  return out;
}

Walk walk(sdn::Network& net, const control::HostAddressing& addressing,
          sdn::PortRef from, const sdn::Match& constraint,
          std::uint32_t ip_src) {
  Walk out;
  out.from = from;
  for (const auto& [host, address] : addressing.all()) {
    sdn::Packet packet;
    packet.hdr.ip_src = ip_src;
    packet.hdr.ip_dst = address.ip;
    packet.hdr.eth_dst = address.eth;
    packet.hdr.ip_proto = sdn::kIpProtoUdp;
    packet.hdr.l4_src = 40000;
    packet.hdr.l4_dst = 8080;
    if (!constraint.matches(packet.hdr, from.port)) continue;
    const sdn::Trajectory t = net.trace(from, packet);
    for (const sdn::TrajectoryDelivery& d : t.deliveries) {
      Walk::Delivery delivery;
      delivery.egress = d.egress;
      for (const sdn::TrajectoryHop& hop : d.path) {
        delivery.path.push_back(hop.in.sw);
      }
      out.deliveries.push_back(std::move(delivery));
    }
  }
  return out;
}

namespace {

std::string port_name(sdn::PortRef p) {
  return "s" + std::to_string(p.sw.value) + ":p" + std::to_string(p.port.value);
}

}  // namespace

std::string check_endpoints(const core::QueryReply& reply,
                            const std::set<sdn::PortRef>& expected,
                            const sdn::Topology& topo) {
  std::set<sdn::PortRef> got;
  for (const core::EndpointInfo& e : reply.endpoints) {
    got.insert(e.access_point);
    if (e.dark) continue;
    const auto wired = topo.host_at(e.access_point);
    if (!e.authenticated || !e.authenticated_as || !wired ||
        *e.authenticated_as != *wired) {
      return std::string(core::to_string(reply.kind)) + ": endpoint " +
             port_name(e.access_point) + " not authenticated as its host";
    }
  }
  if (got != expected) {
    return std::string(core::to_string(reply.kind)) + ": " +
           std::to_string(got.size()) + " endpoints, expected " +
           std::to_string(expected.size());
  }
  return "";
}

std::string check_geo(const core::QueryReply& reply,
                      const std::set<std::string>& expected) {
  const std::set<std::string> got(reply.jurisdictions.begin(),
                                  reply.jurisdictions.end());
  if (got == expected) return "";
  return "Geo: " + std::to_string(got.size()) + " jurisdictions, expected " +
         std::to_string(expected.size());
}

std::string check_transfer(const core::QueryReply& reply,
                           const std::set<sdn::PortRef>& expected) {
  std::set<sdn::PortRef> got;
  for (const core::TransferSummaryEntry& e : reply.transfer_summary) {
    got.insert(e.egress);
  }
  if (got == expected) return "";
  return "TransferSummary: " + std::to_string(got.size()) +
         " egress ports, expected " + std::to_string(expected.size());
}

void SessionLog::merge(const SessionLog& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  query_us.insert(query_us.end(), other.query_us.begin(),
                  other.query_us.end());
  lateness_ms.insert(lateness_ms.end(), other.lateness_ms.begin(),
                     other.lateness_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  if (!other.reply_bytes.empty()) reply_bytes = other.reply_bytes;
}

std::optional<double> query_op(Session& session, const core::Query& query,
              Clock::time_point due, const ReplyCheck& check, Tracer& tracer,
              Result& result, SessionLog& log) {
  constexpr int kTimeoutMs = 10'000;
  const std::uint64_t op = tracer.reserve();
  ++log.attempted;
  const auto q0 = Clock::now();
  const net::WireClient::Outcome outcome =
      session.client->query(query, kTimeoutMs);
  const auto q1 = Clock::now();
  tracer.span("client.query", q0, q1, op, op);
  tracer.record(op, "op", due, q1, 0, op);
  if (outcome.timed_out || !outcome.reply || !outcome.signature_ok) {
    ++log.failed;
    return std::nullopt;
  }
  const double latency = ms_between(due, q1);
  log.latency_ms.push_back(latency);
  log.query_us.push_back(ms_between(q0, q1) * 1e3);
  log.reply_bytes = outcome.reply->signing_payload();
  const std::string why = outcome.reply->kind != query.kind
                              ? std::string("reply kind differs from query")
                              : check(*outcome.reply);
  if (!why.empty()) result.mark_incorrect(why);
  return latency;
}

void for_each_session(std::size_t sessions,
                      const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

void check_accounting(World& world, Result& result) {
  std::uint64_t replies = 0, notifications = 0;
  for (const Session& s : world.sessions()) {
    replies += s.client->stats().replies_received;
    notifications += s.client->stats().notifications_received;
  }
  const net::WireServer::Stats stats = world.server().stats();
  if (stats.replies_out != replies) {
    result.mark_incorrect("server replies_out " +
                          std::to_string(stats.replies_out) +
                          " != clients' replies_received " +
                          std::to_string(replies));
  }
  if (stats.notifications_out != notifications) {
    result.mark_incorrect("server notifications_out " +
                          std::to_string(stats.notifications_out) +
                          " != clients' notifications_received " +
                          std::to_string(notifications));
  }
  if (stats.bad_frames + stats.bad_hellos + stats.bad_envelopes != 0) {
    result.mark_incorrect("server flagged bad frames or envelopes");
  }
}

// ---------------------------------------------------------------------------
// Counters and the queue probe
// ---------------------------------------------------------------------------

Counters read_counters(World& world) {
  Counters c = world.service().call([&world] {
    Counters out;
    core::RvaasController& rvaas = world.rt().rvaas();
    out.controller = rvaas.stats();
    out.monitor = rvaas.monitor().stats();
    out.l1 = rvaas.engine().cache_stats();
    out.l2 = rvaas.engine().reach_stats();
    for (const sdn::HostId host : world.rt().hosts()) {
      bool wire = false;
      for (const Session& s : world.sessions()) wire = wire || s.host == host;
      if (!wire) {
        out.agent_crypto_ops += world.rt().client(host).stats().crypto_ops;
      }
    }
    return out;
  });
  c.server = world.server().stats();
  return c;
}

QueueProbe::QueueProbe(net::WireService& service, Tracer& tracer)
    : service_(&service), tracer_(&tracer) {
  if (tracer.on()) thread_ = std::thread([this] { run(); });
}

QueueProbe::~QueueProbe() { finish(); }

void QueueProbe::run() {
  constexpr auto kPeriod = std::chrono::milliseconds(2);
  auto next = Clock::now();
  while (!stop_.load()) {
    next += kPeriod;
    std::this_thread::sleep_until(next);
    const auto posted = Clock::now();
    ++posted_;
    service_->post([this, posted] {
      const auto ran = Clock::now();
      tracer_->span("net.service_queue_wait", posted, ran);
      {
        std::lock_guard<std::mutex> lock(mu_);
        waits_us_.push_back(ms_between(posted, ran) * 1e3);
      }
      ++done_;
    });
  }
}

std::vector<double> QueueProbe::finish() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  while (done_.load() < posted_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mu_);
  return waits_us_;
}

}  // namespace svcbench
