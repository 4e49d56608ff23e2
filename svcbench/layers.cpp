// Per-layer metrics of a traced run: counter deltas over the measured phase,
// plus probes that time one layer's public functions in isolation (crypto
// primitives on the workload's envelope sizes, QueryEngine::evaluate on the
// live and on a fresh engine, HSA reach and model compilation).

#include <algorithm>
#include <numeric>

#include "bench.hpp"
#include "rvaas/geo.hpp"

namespace svcbench {

namespace {

double per(double num, double den) { return den > 0 ? num / den : 0; }

template <typename Fn>
std::vector<double> time_us(Tracer& tracer, const char* name, int reps,
                            Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    tracer.span(name, t0, t1);
    us.push_back(ms_between(t0, t1) * 1e3);
  }
  return us;
}

struct EngineProbe {
  std::vector<double> warm_us;
  std::vector<double> cold_us;
  std::vector<double> reach_cold_us;
  double compile_ms = 0;
  std::vector<double> footprint;
};

/// Runs on the service thread: the snapshot belongs to the controller.
EngineProbe probe_engine(World& world, Tracer& tracer, const LayerInputs& in) {
  EngineProbe out;
  const core::RvaasController& rvaas = world.rt().rvaas();
  const core::SnapshotManager& snap = rvaas.snapshot();
  const core::QueryEngine& live = rvaas.engine();
  const core::DisclosedGeo geo(world.topology());

  for (const auto& [session, property] : in.properties) {
    core::QueryEngine::EvalContext ctx;
    ctx.from = world.sessions()[session].ap;
    ctx.geo = &geo;
    ctx.addressing = &world.rt().addressing();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      const auto eval = live.evaluate(snap, property, ctx);
      const auto t1 = Clock::now();
      tracer.span("engine.evaluate_warm", t0, t1);
      out.warm_us.push_back(ms_between(t0, t1) * 1e3);
      out.footprint.push_back(static_cast<double>(eval.footprint.size()));
    }
    const core::QueryEngine fresh(world.topology(), live.config());
    const auto t0 = Clock::now();
    (void)fresh.evaluate(snap, property, ctx);
    const auto t1 = Clock::now();
    tracer.span("engine.evaluate_cold", t0, t1);
    out.cold_us.push_back(ms_between(t0, t1) * 1e3);
  }

  const core::QueryEngine fresh(world.topology(), live.config());
  const auto c0 = Clock::now();
  const hsa::NetworkModel model = fresh.model_uncached(snap);
  const auto c1 = Clock::now();
  tracer.span("hsa.model_compile", c0, c1);
  out.compile_ms = ms_between(c0, c1);
  const hsa::HeaderSpace hs = core::QueryEngine::constraint_space(
      in.properties.empty() ? sdn::Match() : in.properties.front().second
                                                 .constraint);
  for (const sdn::PortRef ap : world.topology().all_access_points()) {
    const auto t0 = Clock::now();
    (void)fresh.reach(model, snap, ap, hs);
    const auto t1 = Clock::now();
    tracer.span("hsa.reach_cold", t0, t1);
    out.reach_cold_us.push_back(ms_between(t0, t1) * 1e3);
  }
  return out;
}

}  // namespace

void measure_layers(World& world, Tracer& tracer, const LayerInputs& in,
                    QueueProbe& probe, const SessionLog& log,
                    std::uint64_t seed, Result& result) {
  const std::vector<double> queue_wait_us = probe.finish();
  const util::Bytes& reply_bytes = log.reply_bytes;
  const Counters& a = in.before;
  const Counters& b = in.after;
  const double ops = static_cast<double>(std::max<std::uint64_t>(in.ops, 1));
  const double churns = static_cast<double>(in.churns);

  // --- crypto: the four primitives on the workload's envelope sizes ---
  util::Rng rng(seed ^ 0xc0ffee);
  const crypto::SigningKey key = crypto::SigningKey::generate(rng);
  const crypto::BoxOpener opener = crypto::BoxOpener::generate(rng);
  const crypto::BoxSealer sealer = opener.sealer();
  constexpr int kReps = 20;
  crypto::Signature sig = key.sign(reply_bytes);
  const auto sign_us = time_us(tracer, "crypto.sign", kReps,
                               [&] { sig = key.sign(reply_bytes); });
  bool crypto_ok = true;
  const auto verify_us = time_us(tracer, "crypto.verify", kReps, [&] {
    crypto_ok = key.verify_key().verify(reply_bytes, sig) && crypto_ok;
  });
  crypto::SealedBox box = sealer.seal(rng, in.request_bytes);
  const auto seal_us = time_us(tracer, "crypto.seal", kReps, [&] {
    box = sealer.seal(rng, in.request_bytes);
  });
  const auto open_us = time_us(tracer, "crypto.open", kReps, [&] {
    const auto plain = opener.open(box);
    crypto_ok = plain.has_value() && *plain == in.request_bytes && crypto_ok;
  });
  if (!crypto_ok) result.mark_incorrect("crypto probe round trip failed");

  const EngineProbe engine =
      world.service().call([&] { return probe_engine(world, tracer, in); });

  const double crypto_ops =
      static_cast<double>(b.controller.crypto_ops - a.controller.crypto_ops) +
      static_cast<double>(b.agent_crypto_ops - a.agent_crypto_ops);
  const double l1_hits =
      static_cast<double>(b.l1.switch_hits - a.l1.switch_hits);
  const double l1_recompiles =
      static_cast<double>(b.l1.switch_recompiles - a.l1.switch_recompiles);
  const double footprint =
      engine.footprint.empty()
          ? 0
          : std::accumulate(engine.footprint.begin(), engine.footprint.end(),
                            0.0) /
                static_cast<double>(engine.footprint.size());
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };

  result.per_layer = {
      {"crypto.sign_us", percentile(sign_us, 50), "us"},
      {"crypto.verify_us", percentile(verify_us, 50), "us"},
      {"crypto.seal_us", percentile(seal_us, 50), "us"},
      {"crypto.open_us", percentile(open_us, 50), "us"},
      {"crypto.asym_ops_per_op", crypto_ops / ops, "count"},
      {"net.connect_ms", percentile(world.connect_ms, 50), "ms"},
      {"net.bytes_per_op",
       (d(b.server.bytes_in, a.server.bytes_in) +
        d(b.server.bytes_out, a.server.bytes_out)) /
           ops,
       "B"},
      {"net.frames_per_flush",
       per(d(b.server.frames_out, a.server.frames_out),
           d(b.server.flushes, a.server.flushes)),
       "count"},
      {"net.service_queue_wait_p50_us", percentile(queue_wait_us, 50),
       "us"},
      {"net.service_queue_wait_p90_us", percentile(queue_wait_us, 90),
       "us"},
      {"client.query_p50_us", percentile(log.query_us, 50), "us"},
      {"controller.auth_requests_per_op",
       d(b.controller.auth_requests_sent, a.controller.auth_requests_sent) /
           ops,
       "count"},
      {"controller.polls_per_s",
       per(d(b.controller.polls_sent, a.controller.polls_sent), in.phase_s),
       "1/s"},
      {"engine.evaluate_warm_us", percentile(engine.warm_us, 50), "us"},
      {"engine.evaluate_cold_us", percentile(engine.cold_us, 50), "us"},
      {"engine.l1_switch_hit_rate", per(l1_hits, l1_hits + l1_recompiles),
       "ratio"},
      {"engine.l1_recompiles_per_churn", per(l1_recompiles, churns), "count"},
      {"engine.l2_hit_rate",
       per(d(b.l2.hits, a.l2.hits), d(b.l2.lookups, a.l2.lookups)), "ratio"},
      {"engine.l2_misses_per_op", d(b.l2.misses, a.l2.misses) / ops, "count"},
      {"engine.l2_invalidated_per_churn",
       per(d(b.l2.entries_invalidated, a.l2.entries_invalidated), churns),
       "count"},
      {"engine.l2_capacity_flushes",
       d(b.l2.capacity_flushes, a.l2.capacity_flushes), "count"},
      {"hsa.reach_cold_us", percentile(engine.reach_cold_us, 50), "us"},
      {"hsa.model_compile_ms", engine.compile_ms, "ms"},
      {"hsa.footprint_switches_per_eval", footprint, "count"},
      {"monitor.sweeps_per_churn", per(d(b.monitor.sweeps, a.monitor.sweeps),
                                       churns),
       "count"},
      {"monitor.wakeups_per_churn",
       per(d(b.monitor.wakeups, a.monitor.wakeups), churns), "count"},
      {"monitor.skipped_per_churn",
       per(d(b.monitor.skipped, a.monitor.skipped), churns), "count"},
      {"monitor.pushes_per_churn",
       per(d(b.monitor.alerts + b.monitor.all_clears,
             a.monitor.alerts + a.monitor.all_clears),
           churns),
       "count"},
  };
}

}  // namespace svcbench
