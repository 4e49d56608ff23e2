// wire-query: an open loop of one-shot queries at a fixed offered rate,
// spread over 4 wire sessions in 4 different tenants of a small host-dense
// fabric. Co-tenants are in-process agents, so every ReachableEndpoints
// query runs a full in-band authentication round that the agents answer.
// Caches are warm: asymmetric crypto, framing and controller admission do
// the work, HSA serves from its caches.

#include <cstdio>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace svcbench {

namespace {

constexpr std::size_t kSessions = 4;
constexpr std::size_t kTenants = 4;
/// Offered rate over all sessions (queries/s); see README.md for why.
constexpr double kRate = 160;
/// linear_fanout(4, 4): 16 hosts, 4 tenants of 4 hosts.
constexpr std::uint32_t kSwitches = 4;
constexpr std::uint32_t kHostsPerSwitch = 4;
constexpr std::uint64_t kLayoutSeed = 0x71e0;

/// Geo, TransferSummary, Geo, ReachableEndpoints. The auth round makes a
/// ReachableEndpoints query take about twice as long as the others; at one
/// in four the p90 falls among them, away from the edge between the two
/// groups, where it would jump from run to run.
core::QueryKind kind_of(std::size_t k) {
  if (k % 4 == 3) return core::QueryKind::ReachableEndpoints;
  return k % 2 == 0 ? core::QueryKind::Geo : core::QueryKind::TransferSummary;
}

}  // namespace

void run_wire_query(const Options& opt, Clock::time_point process_start,
                    Tracer& tracer, Result& result) {
  // The layout (which host of each tenant is a session) is fixed so that
  // every seed measures the same work; the seed draws the keys and where in
  // the query mix each session starts.
  util::Rng layout(kLayoutSeed);
  util::Rng rng(opt.seed ^ 0x71e0);
  WorldSpec spec;
  spec.topo = workload::linear_fanout(kSwitches, kHostsPerSwitch);
  spec.tenant_count = kTenants;
  // One session per tenant: host t + 4k is in tenant t.
  for (std::size_t t = 0; t < kSessions; ++t) {
    spec.wire_indices.push_back(t +
                                kTenants * layout.below(kHostsPerSwitch));
  }
  spec.seed = opt.seed;
  World world(std::move(spec));
  if (!world.start(tracer)) throw std::runtime_error("wire connect failed");

  // Ground truth: endpoints from the tenant plan, jurisdictions from packet
  // walks over the tables in force (static in this workload).
  std::vector<std::set<sdn::PortRef>> peers(kSessions);
  std::vector<std::set<std::string>> geo(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const Session& session = world.sessions()[s];
    for (const sdn::HostId h : world.cotenants(session.host)) {
      peers[s].insert(world.ap_of(h));
    }
    const std::uint32_t ip = world.ip_of(session.host);
    geo[s] = world.service()
                 .call([&] {
                   return walk(world.rt().network(), world.rt().addressing(),
                               session.ap, sdn::Match(), ip);
                 })
                 .jurisdictions(world.topology());
  }
  std::vector<std::set<sdn::PortRef>> expected_endpoints = peers;
  if (opt.selftest) expected_endpoints[0].erase(expected_endpoints[0].begin());

  const auto check_for = [&](std::size_t s) -> ReplyCheck {
    return [&, s](const core::QueryReply& reply) {
      switch (reply.kind) {
        case core::QueryKind::Geo:
          return check_geo(reply, geo[s]);
        case core::QueryKind::TransferSummary:
          return check_transfer(reply, peers[s]);
        default:
          return check_endpoints(reply, expected_endpoints[s],
                                 world.topology());
      }
    };
  };

  // Warm-up: four closed-loop rounds of the mix per session.
  {
    std::vector<SessionLog> warm(kSessions);
    Tracer off(false);
    for_each_session(kSessions, [&](std::size_t s) {
      for (std::size_t k = 0; k < 16; ++k) {
        query_op(world.sessions()[s], core::Query{kind_of(k), {}, {}},
                 Clock::now(), check_for(s), off, result, warm[s]);
      }
    });
    for (const SessionLog& log : warm) {
      if (log.failed != 0) throw std::runtime_error("warm-up query failed");
    }
  }

  // Measured phase: session s sends query i at t0 + (s + 4i) / kRate.
  const auto per_session = static_cast<std::size_t>(opt.seconds * kRate /
                                                    kSessions);
  const Counters before = tracer.on() ? read_counters(world) : Counters{};
  Phase phase(opt.seconds);
  const auto t0 = phase.start();
  std::vector<SessionLog> logs(kSessions);
  std::vector<std::map<core::QueryKind, std::vector<double>>> by_kind(
      kSessions);
  {
    QueueProbe probe(world.service(), tracer);
    std::vector<std::size_t> mix_start(kSessions);
    for (std::size_t& m : mix_start) m = rng.below(4);
    for_each_session(kSessions, [&](std::size_t s) {
      const auto check = check_for(s);
      for (std::size_t i = 0; i < per_session; ++i) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(s + kSessions * i) / kRate));
        std::this_thread::sleep_until(due);
        logs[s].lateness_ms.push_back(ms_between(due, Clock::now()));
        const core::QueryKind kind = kind_of(i + mix_start[s]);
        const auto latency = query_op(world.sessions()[s],
                                      core::Query{kind, {}, {}}, due, check,
                                      tracer, result, logs[s]);
        if (latency) by_kind[s][kind].push_back(*latency);
      }
    });
    phase.finish();
    SessionLog all;
    for (const SessionLog& log : logs) all.merge(log);
    const double phase_s = phase.seconds_run();
    const std::uint64_t ops = all.latency_ms.size();
    result.attempted = all.attempted;
    result.failed = all.failed;
    phase.report(result, ms_between(process_start, t0) / 1e3, all.latency_ms,
                 peak_rss_mb());
    // Throughput reads the offered rate while the service keeps up; the
    // generator's lateness is what shows it falling behind.
    char line[200];
    std::snprintf(line, sizeof line,
                  "offered %.0f q/s over %zu sessions, achieved %.2f q/s; "
                  "generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                  kRate, kSessions, static_cast<double>(ops) / phase_s,
                  percentile(all.lateness_ms, 50),
                  percentile(all.lateness_ms, 99),
                  percentile(all.lateness_ms, 100));
    result.notes.emplace_back(line);
    for (const auto kind :
         {core::QueryKind::Geo, core::QueryKind::TransferSummary,
          core::QueryKind::ReachableEndpoints}) {
      std::vector<double> v;
      for (auto& m : by_kind) v.insert(v.end(), m[kind].begin(), m[kind].end());
      std::snprintf(line, sizeof line,
                    "%s: %zu queries, latency p50 %.3f ms, p90 %.3f ms",
                    core::to_string(kind), v.size(), percentile(v, 50),
                    percentile(v, 90));
      result.notes.emplace_back(line);
    }

    if (tracer.on()) {
      LayerInputs in;
      in.before = before;
      in.after = read_counters(world);
      in.phase_s = phase_s;
      in.ops = ops;
      for (std::size_t s = 0; s < kSessions; ++s) {
        for (const auto kind :
             {core::QueryKind::Geo, core::QueryKind::TransferSummary,
              core::QueryKind::ReachableEndpoints}) {
          in.properties.emplace_back(
              s, core::Property::from_query(core::Query{kind, {}, {}}));
        }
      }
      core::QueryRequest request;
      request.request_id = 1;
      request.client = world.sessions()[0].host;
      in.request_bytes = serialized(request);
      measure_layers(world, tracer, in, probe, all, opt.seed, result);
    }
  }
  check_accounting(world, result);
  world.stop();
}

}  // namespace svcbench
