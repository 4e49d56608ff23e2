// isolation-audit: a closed loop of Isolation and ReachableEndpoints queries
// from 4 wire sessions on a 50-switch grid with 4-host tenants, one
// IsolationBreachAttack installed at set-up. Every query carries an IpSrc
// prefix never used before, so the reach cache cannot serve it: cold HSA
// reachability and the serial controller thread do the work.

#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace svcbench {

namespace {

constexpr std::size_t kSessions = 4;
constexpr std::uint64_t kLayoutSeed = 0x150a;
/// peak_rss_mb is read once this many queries have been verified, not at
/// the end of the run: every query adds entries to the reach cache until it
/// reaches its capacity, so a peak read at the end would grow with the
/// queries the run had time for. A run that has not verified this many by
/// the end of the phase tops up, untimed, before reading it.
constexpr std::uint64_t kRssOps = 300;

/// Sessions 0-2 send Isolation queries, session 3 ReachableEndpoints ones.
/// The service thread serves the sessions' outstanding queries in turn, so
/// an op waits for one query of each other session: with a fixed kind per
/// session that wait is the same for every op, where a per-op mix would
/// spread the latencies over distinct levels and let the median jump
/// between them from run to run.
core::QueryKind kind_of(std::size_t session) {
  return session == kSessions - 1 ? core::QueryKind::ReachableEndpoints
                                  : core::QueryKind::Isolation;
}

/// A /24 source prefix per (base, counter): unique within a run.
sdn::Match fresh_prefix(std::uint32_t base, std::uint64_t counter) {
  const auto net = static_cast<std::uint32_t>((base + counter) & 0xffffff);
  return sdn::Match().prefix(sdn::Field::IpSrc, std::uint64_t{net} << 8, 24);
}

}  // namespace

void run_isolation_audit(const Options& opt, Clock::time_point process_start,
                         Tracer& tracer, Result& result) {
  // The layout (sessions, breacher) is fixed so that every seed measures the
  // same work; the seed draws the keys and the source prefixes.
  util::Rng layout(kLayoutSeed);
  util::Rng rng(opt.seed ^ 0x150a);
  WorldSpec spec = grid_spec(layout, kSessions, opt.seed);
  // The breaching host: an in-process agent of a tenant with no session.
  std::set<std::size_t> session_tenants;
  for (const std::size_t i : spec.wire_indices) {
    session_tenants.insert(i % spec.tenant_count);
  }
  std::size_t breach_tenant = layout.below(spec.tenant_count);
  while (session_tenants.count(breach_tenant)) {
    breach_tenant = layout.below(spec.tenant_count);
  }
  const sdn::HostId breacher = spec.topo.hosts.at(
      breach_tenant + spec.tenant_count * layout.below(3));
  const sdn::HostId victim = spec.topo.hosts.at(spec.wire_indices.front());
  const auto prefix_base = static_cast<std::uint32_t>(rng.below(1u << 23));
  World world(std::move(spec));

  attacks::IsolationBreachAttack attack(breacher, victim);
  const auto record =
      attack.launch(world.rt().provider(), world.rt().network());
  if (!record) throw std::runtime_error("isolation breach did not launch");
  world.rt().settle(20 * sim::kMillisecond);
  if (!world.start(tracer)) throw std::runtime_error("wire connect failed");

  // Ground truth from the tenant plan and the attack record: co-tenants,
  // plus the rogue ports for the victim's Isolation answer.
  std::vector<std::set<sdn::PortRef>> reach(kSessions);
  std::vector<std::set<sdn::PortRef>> isolation(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const Session& session = world.sessions()[s];
    for (const sdn::HostId h : world.cotenants(session.host)) {
      reach[s].insert(world.ap_of(h));
    }
    isolation[s] = reach[s];
    if (session.host == record->victim) {
      isolation[s].insert(record->rogue_ports.begin(),
                          record->rogue_ports.end());
    }
  }
  if (opt.selftest) {
    isolation[0].erase(isolation[0].find(record->rogue_ports.front()));
  }
  std::vector<ReplyCheck> checks;
  for (std::size_t s = 0; s < kSessions; ++s) {
    checks.push_back([&, s](const core::QueryReply& reply) {
      return check_endpoints(reply,
                             reply.kind == core::QueryKind::Isolation
                                 ? isolation[s]
                                 : reach[s],
                             world.topology());
    });
  }
  std::atomic<std::uint64_t> counter{0};
  const auto query_of = [&](std::size_t s) {
    return core::Query{kind_of(s), fresh_prefix(prefix_base, counter++), {}};
  };
  std::atomic<std::uint64_t> verified{0};
  double rss_mb = 0;  // written by the op that reaches kRssOps
  const auto op = [&](std::size_t s, Tracer& tr, SessionLog& log) {
    if (query_op(world.sessions()[s], query_of(s), Clock::now(), checks[s],
                 tr, result, log) &&
        ++verified == kRssOps) {
      rss_mb = peak_rss_mb();
    }
  };

  // Warm-up: one query per session (compiles the model, fills the pools).
  {
    std::vector<SessionLog> warm(kSessions);
    Tracer off(false);
    for_each_session(kSessions, [&](std::size_t s) {
      query_op(world.sessions()[s], query_of(s), Clock::now(), checks[s], off,
               result, warm[s]);
    });
    for (const SessionLog& log : warm) {
      if (log.failed != 0) throw std::runtime_error("warm-up query failed");
    }
  }

  const Counters before = tracer.on() ? read_counters(world) : Counters{};
  Phase phase(opt.seconds);
  const auto deadline = phase.deadline();
  std::vector<SessionLog> logs(kSessions);
  QueueProbe probe(world.service(), tracer);
  for_each_session(kSessions, [&](std::size_t s) {
    while (Clock::now() < deadline) op(s, tracer, logs[s]);
  });
  phase.finish();
  probe.finish();  // queue waits of the phase only
  const Counters after = tracer.on() ? read_counters(world) : Counters{};
  {
    Tracer off(false);
    for_each_session(kSessions, [&](std::size_t s) {
      SessionLog tail;
      while (verified.load() < kRssOps && tail.failed == 0) op(s, off, tail);
      logs[s].attempted += tail.attempted;
      logs[s].failed += tail.failed;
    });
  }
  if (verified.load() < kRssOps) rss_mb = peak_rss_mb();
  SessionLog all;
  for (const SessionLog& log : logs) all.merge(log);
  const double phase_s = phase.seconds_run();
  const std::uint64_t ops = all.latency_ms.size();
  result.attempted = all.attempted;
  result.failed = all.failed;
  phase.report(result, ms_between(process_start, phase.start()) / 1e3,
               all.latency_ms, rss_mb);
  char line[160];
  std::snprintf(line, sizeof line,
                "peak RSS read at verified query %llu; the phase verified "
                "%llu",
                static_cast<unsigned long long>(kRssOps),
                static_cast<unsigned long long>(ops));
  result.notes.emplace_back(line);

  if (tracer.on()) {
    LayerInputs in;
    in.before = before;
    in.after = after;
    in.phase_s = phase_s;
    in.ops = ops;
    for (std::size_t s = 0; s < kSessions; ++s) {
      in.properties.emplace_back(s, core::Property::from_query(query_of(s)));
    }
    core::QueryRequest request;
    request.request_id = 1;
    request.client = world.sessions()[0].host;
    request.query = query_of(0);
    in.request_bytes = serialized(request);
    measure_layers(world, tracer, in, probe, all, opt.seed, result);
  }
  check_accounting(world, result);
  world.stop();
}

}  // namespace svcbench
