// churn-alert: the detection path. Each of 4 wire sessions holds EveryChange
// subscriptions (ReachableEndpoints and Geo over different constraints);
// in-process agents hold a larger registry whose footprints mostly miss any
// one churned switch. A closed loop of writes goes through the provider
// channel: a drop rule that out-ranks routing lands on the next switch of a
// seeded cycle, and once every expected push has arrived, a heal deletes it
// again. An op is one verified push, timed from the moment the flow-mod was
// issued to the moment the client verified the push.

#include <algorithm>
#include <future>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace svcbench {

namespace {

constexpr std::size_t kSessions = 4;
constexpr int kPushTimeoutMs = 5000;
constexpr std::uint64_t kLayoutSeed = 0xc4a0;
/// Out-ranks provider routing (<= 10) and attacks (30), stays below the
/// 0xffff in-band intercept rules.
constexpr std::uint16_t kDropPriority = 1000;

/// What a subscription's reply must read: endpoints or jurisdictions.
struct Truth {
  std::set<sdn::PortRef> endpoints;
  std::set<std::string> jurisdictions;
  bool operator==(const Truth&) const = default;
};

struct WireSub {
  std::size_t session = 0;
  core::Property property;
  std::uint64_t id = 0;
  Walk baseline;  ///< walk under the routing tables alone
};

/// One push as a session thread saw it.
struct Arrival {
  Clock::time_point wait_start;
  Clock::time_point verified;
  std::optional<net::WireClient::Event> event;  ///< nullopt = timed out
};

Truth truth_of(const WireSub& sub, const Walk& w, const sdn::Topology& topo) {
  Truth t;
  if (sub.property.kind == core::QueryKind::Geo) {
    t.jurisdictions = w.jurisdictions(topo);
  } else {
    t.endpoints = w.endpoints();
  }
  return t;
}

std::string check_truth(const core::QueryReply& reply, Truth truth,
                        bool perturb, const sdn::Topology& topo) {
  if (reply.kind == core::QueryKind::Geo) {
    return check_geo(reply, truth.jurisdictions);
  }
  if (perturb && !truth.endpoints.empty()) {
    truth.endpoints.erase(truth.endpoints.begin());
  }
  return check_endpoints(reply, truth.endpoints, topo);
}

}  // namespace

void run_churn_alert(const Options& opt, Clock::time_point process_start,
                     Tracer& tracer, Result& result) {
  // The layout (sessions, subscriptions, the cycle's switches) is fixed so
  // that every seed measures the same work; the seed draws the keys and the
  // order of the churn cycle.
  util::Rng layout(kLayoutSeed);
  util::Rng rng(opt.seed ^ 0xc4a0);
  WorldSpec spec = grid_spec(layout, kSessions, opt.seed);
  std::set<sdn::HostId> wire_hosts;
  for (const std::size_t i : spec.wire_indices) {
    wire_hosts.insert(spec.topo.hosts.at(i));
  }
  // Declared before the world: the agents' push callbacks count into them.
  std::atomic<std::uint64_t> agent_pushes{0};
  std::atomic<std::uint64_t> agent_bad_pushes{0};
  World world(std::move(spec));
  if (!world.start(tracer)) throw std::runtime_error("wire connect failed");
  const sdn::Topology& topo = world.topology();

  // Picks a co-tenant of `host` that is an in-process agent (wire sessions
  // answer auth rounds only while blocked in a call, so no subscription
  // makes one an auth target).
  const auto agent_peer = [&](sdn::HostId host) {
    std::vector<sdn::HostId> peers;
    for (const sdn::HostId h : world.cotenants(host)) {
      if (!wire_hosts.count(h)) peers.push_back(h);
    }
    return peers.at(layout.below(peers.size()));
  };
  const auto to_ip = [&](sdn::HostId h) {
    return sdn::Match().exact(sdn::Field::IpDst, world.ip_of(h));
  };

  // --- the agents' registry: two narrow subscriptions per agent ---
  std::uint64_t agent_subs = 0;
  std::vector<std::pair<sdn::HostId, core::Property>> registry;
  for (const sdn::HostId host : world.rt().hosts()) {
    if (wire_hosts.count(host)) continue;
    for (const auto kind :
         {core::QueryKind::ReachableEndpoints, core::QueryKind::Geo}) {
      core::Property p;
      p.kind = kind;
      p.constraint = to_ip(agent_peer(host));
      registry.emplace_back(host, p);
    }
  }
  world.service().call([&] {
    for (const auto& [host, property] : registry) {
      world.rt().client(host).subscribe(
          property,
          [&](const core::ClientAgent::MonitorEvent& e) {
            ++agent_pushes;
            if (!e.signature_ok) ++agent_bad_pushes;
          },
          core::NotifyPolicy::EveryChange);
      ++agent_subs;
    }
  });

  // --- the sessions' subscriptions, checked against packet walks ---
  std::vector<WireSub> subs;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const sdn::HostId host = world.sessions()[s].host;
    const sdn::Match wide;
    const sdn::Match narrow_reach = to_ip(agent_peer(host));
    const sdn::Match narrow_geo = to_ip(agent_peer(host));
    for (const auto& [kind, constraint] :
         std::vector<std::pair<core::QueryKind, sdn::Match>>{
             {core::QueryKind::ReachableEndpoints, wide},
             {core::QueryKind::Geo, wide},
             {core::QueryKind::ReachableEndpoints, narrow_reach},
             {core::QueryKind::Geo, narrow_geo}}) {
      WireSub sub;
      sub.session = s;
      sub.property.kind = kind;
      sub.property.constraint = constraint;
      subs.push_back(sub);
    }
  }
  const auto walk_all = [&] {
    return world.service().call([&] {
      std::vector<Walk> walks;
      for (const WireSub& sub : subs) {
        const Session& session = world.sessions()[sub.session];
        walks.push_back(walk(world.rt().network(), world.rt().addressing(),
                             session.ap, sub.property.constraint,
                             world.ip_of(session.host)));
      }
      return walks;
    });
  };
  {
    const std::vector<Walk> walks = walk_all();
    for (std::size_t i = 0; i < subs.size(); ++i) subs[i].baseline = walks[i];
  }
  std::vector<Truth> truth;
  for (const WireSub& sub : subs) {
    truth.push_back(truth_of(sub, sub.baseline, topo));
  }
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> sub_index;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    Session& session = world.sessions()[subs[i].session];
    subs[i].id = session.client->subscribe(subs[i].property,
                                           core::NotifyPolicy::EveryChange);
    sub_index[{subs[i].session, subs[i].id}] = i;
    const auto baseline = session.client->wait_notification(kPushTimeoutMs);
    if (!baseline || baseline->subscription_id != subs[i].id) {
      throw std::runtime_error("baseline push missing");
    }
    const std::string why =
        check_truth(baseline->reply, truth[i],
                    opt.selftest && i == 0, topo);
    if (!why.empty()) result.mark_incorrect("baseline " + why);
  }
  for (int spin = 0; agent_pushes.load() < agent_subs; ++spin) {
    if (spin > 10'000) throw std::runtime_error("agent baselines missing");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // --- the churn cycle: switches whose drop changes some session's answer ---
  std::vector<sdn::SwitchId> cycle;
  for (const sdn::SwitchId sw : topo.switches()) {
    bool moves = false;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      moves = moves ||
              truth_of(subs[i], subs[i].baseline.without(sw), topo) != truth[i];
    }
    if (moves) cycle.push_back(sw);
  }
  if (cycle.empty()) throw std::runtime_error("empty churn cycle");
  for (std::size_t i = cycle.size() - 1; i > 0; --i) {
    std::swap(cycle[i], cycle[rng.below(i + 1)]);
  }

  // One round: issue a flow-mod, wait for every predicted push, then check
  // each against walks over the tables now in force.
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0, failed = 0, flow_mods = 0;
  const auto round = [&](sdn::SwitchId sw, std::optional<sdn::FlowEntryId> heal,
                         bool measured, Tracer& tr) {
    std::vector<std::size_t> expect(kSessions, 0);
    std::vector<Truth> predicted(subs.size());
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const Walk next = heal ? subs[i].baseline : subs[i].baseline.without(sw);
      predicted[i] = truth_of(subs[i], next, topo);
      if (predicted[i] != truth[i]) ++expect[subs[i].session];
    }
    std::vector<std::vector<Arrival>> arrivals(kSessions);
    // Shared with the callback, which outlives this round if it throws.
    auto landed =
        std::make_shared<std::promise<std::optional<sdn::FlowEntryId>>>();
    auto landed_id = landed->get_future();
    std::vector<std::thread> waiters;
    for (std::size_t s = 0; s < kSessions; ++s) {
      waiters.emplace_back([&, s] {
        // One deadline for the round, however many pushes go missing.
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(kPushTimeoutMs);
        for (std::size_t k = 0; k < expect[s]; ++k) {
          Arrival a;
          a.wait_start = Clock::now();
          const auto left =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - a.wait_start);
          a.event = world.sessions()[s].client->wait_notification(
              static_cast<int>(std::max<std::int64_t>(0, left.count())));
          a.verified = Clock::now();
          arrivals[s].push_back(std::move(a));
        }
      });
    }
    const auto issued = Clock::now();
    world.service().post([&world, sw, heal, landed] {
      sdn::FlowMod mod;
      if (heal) {
        mod.command = sdn::FlowModCommand::Delete;
        mod.target = *heal;
      } else {
        mod.priority = kDropPriority;
        mod.cookie = 0xc4a0;
        mod.actions = {sdn::drop()};
      }
      world.rt().provider_flow_mod(
          sw, mod, [landed](sdn::SwitchId, const sdn::FlowModResult& r) {
            landed->set_value(r.ok() ? r.id : std::nullopt);
          });
    });
    for (std::thread& t : waiters) t.join();
    if (landed_id.wait_for(std::chrono::milliseconds(kPushTimeoutMs)) !=
        std::future_status::ready) {
      throw std::runtime_error("flow-mod result never landed");
    }
    const auto id = landed_id.get();
    if (!heal && !id) throw std::runtime_error("churn flow-mod rejected");

    const std::vector<Walk> walks = walk_all();
    std::vector<Truth> now(subs.size());
    for (std::size_t i = 0; i < subs.size(); ++i) {
      now[i] = truth_of(subs[i], walks[i], topo);
      if (now[i] != predicted[i]) {
        result.mark_incorrect("packet walks disagree with the drop's reach");
      }
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (const Arrival& a : arrivals[s]) {
        if (measured) ++attempted;
        if (!a.event) {
          if (measured) ++failed;
          continue;
        }
        const auto it = sub_index.find({s, a.event->subscription_id});
        if (it == sub_index.end() || now[it->second] == truth[it->second]) {
          result.mark_incorrect("push for a subscription whose answer did "
                                "not change");
          continue;
        }
        const std::string why = check_truth(
            a.event->reply, now[it->second],
            opt.selftest && it->second == 0, topo);
        if (!why.empty()) result.mark_incorrect("push " + why);
        if (!measured) continue;
        latency_ms.push_back(ms_between(issued, a.verified));
        const std::uint64_t op = tr.reserve();
        tr.span("client.wait_notification", a.wait_start, a.verified, op, op);
        tr.record(op, "op", issued, a.verified, 0, op);
      }
    }
    truth = now;
    if (measured) ++flow_mods;
    return heal ? std::optional<sdn::FlowEntryId>{} : id;
  };
  const auto pair = [&](std::size_t i, bool measured, Tracer& tr) {
    const sdn::SwitchId sw = cycle[i % cycle.size()];
    const auto id = round(sw, std::nullopt, measured, tr);
    round(sw, id, measured, tr);
  };

  // Warm-up: two churn/heal pairs.
  std::size_t next = 0;
  {
    Tracer off(false);
    for (; next < 2; ++next) pair(next, false, off);
  }

  const Counters before = tracer.on() ? read_counters(world) : Counters{};
  QueueProbe probe(world.service(), tracer);
  Phase phase(opt.seconds);
  while (Clock::now() < phase.deadline()) pair(next++, true, tracer);
  phase.finish();
  probe.finish();  // queue waits of the phase only
  const double phase_s = phase.seconds_run();
  const std::uint64_t ops = latency_ms.size();
  result.attempted = attempted;
  result.failed = failed;
  phase.report(result, ms_between(process_start, phase.start()) / 1e3,
               latency_ms, peak_rss_mb());
  char line[160];
  std::snprintf(line, sizeof line,
                "churn cycle of %zu switches, %llu flow-mods, %llu agent "
                "subscriptions",
                cycle.size(), static_cast<unsigned long long>(flow_mods),
                static_cast<unsigned long long>(agent_subs));
  result.notes.emplace_back(line);

  // No push may be left over once the last heal has been answered.
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (world.sessions()[s].client->wait_notification(50)) {
      result.mark_incorrect("push for a subscription whose answer did not "
                            "change");
    }
  }
  if (agent_bad_pushes.load() != 0) {
    result.mark_incorrect("an agent received a push with a bad signature");
  }

  if (tracer.on()) {
    LayerInputs in;
    in.before = before;
    in.after = read_counters(world);
    in.phase_s = phase_s;
    in.ops = ops;
    in.churns = flow_mods;
    // One-shot queries of each subscribed property, checked against the
    // baseline walks (every heal has restored the routing tables).
    SessionLog queries;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const WireSub& sub = subs[i];
      const Truth t = truth[i];
      for (int rep = 0; rep < 2; ++rep) {
        query_op(world.sessions()[sub.session], sub.property.query(),
                 Clock::now(),
                 [&](const core::QueryReply& reply) {
                   return check_truth(reply, t, false, topo);
                 },
                 tracer, result, queries);
      }
      in.properties.emplace_back(sub.session, sub.property);
    }
    if (queries.failed != 0) result.mark_incorrect("post-phase query failed");
    core::SubscribeRequest request;
    request.subscription_id = 1;
    request.client = world.sessions()[0].host;
    request.policy = core::NotifyPolicy::EveryChange;
    request.property = subs[0].property;
    in.request_bytes = serialized(request);
    measure_layers(world, tracer, in, probe, queries, opt.seed, result);
  }
  check_accounting(world, result);
  world.stop();
}

}  // namespace svcbench
