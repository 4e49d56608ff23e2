#pragma once
// Shared pieces of the wall-clock service benchmark (svc_bench): options,
// the result record main() prints, the in-memory span recorder, the world
// every workload runs on, and the ground truth its outputs are checked
// against.
//
// The benchmark drives the program only from outside: it builds a
// workload::ScenarioRuntime, puts a net::WireService and net::WireServer in
// front of its core::RvaasController, and talks to it through blocking
// net::WireClient sessions over loopback TCP. Every timing and counter comes
// from calls into public functions of the layers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "workload/scenario.hpp"

namespace svcbench {

using namespace rvaas;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Checker self-test: perturb the ground truth (one expected endpoint is
  /// dropped), so a correct program must be reported as incorrect.
  bool selftest = false;
};

double ms_between(Clock::time_point from, Clock::time_point to);

/// Linear interpolation between order statistics, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Process CPU time (user + sys, every thread) in ms.
double process_cpu_ms();
/// VmHWM of this process in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. Thread-safe for mark_incorrect().
class Result {
 public:
  void mark_incorrect(const std::string& why);
  bool correct() const;
  std::vector<std::string> reasons() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< printed before the result line

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  std::vector<std::string> reasons_;
};

/// The measured phase: wall clock and process CPU time from start to
/// finish().
class Phase {
 public:
  explicit Phase(double seconds);

  Clock::time_point start() const { return start_; }
  Clock::time_point deadline() const { return deadline_; }
  /// Stops the clock; call once every op of the phase has completed.
  void finish();
  double seconds_run() const { return ms_between(start_, end_) / 1e3; }

  /// The six end-to-end metrics from the latencies of the verified ops and
  /// the run's peak RSS in MiB.
  void report(Result& result, double setup_s,
              const std::vector<double>& latency_ms, double rss_mb) const;

 private:
  Clock::time_point start_;
  Clock::time_point deadline_;
  Clock::time_point end_;
  double cpu_start_ms_ = 0;
  double cpu_end_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span recorder (trace mode). A span has a name, start, end, the
/// span that caused it and the id of the op it belongs to. Disabled, every
/// call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }
  /// Reserves an id before the span ends, so children can name it.
  std::uint64_t reserve() { return on_ ? next_id_.fetch_add(1) : 0; }
  void record(std::uint64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent = 0,
              std::uint64_t op = 0);
  /// reserve() + record().
  std::uint64_t span(const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent = 0,
                     std::uint64_t op = 0);

  /// One JSON object per line.
  bool write(const std::string& path) const;
  /// Per span name: count, total, self time (duration minus the part its
  /// children cover) and median duration.
  std::string table() const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  bool on_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

struct WorldSpec {
  workload::GeneratedTopology topo;
  /// Hosts are split round-robin over this many tenants.
  std::size_t tenant_count = 1;
  /// Indices into topo.hosts that become wire sessions, in session order.
  std::vector<std::size_t> wire_indices;
  std::uint64_t seed = 1;
};

/// The fabric of isolation-audit and churn-alert: grid(10, 5), one host per
/// switch, split round-robin over 13 tenants (tenants 0..10 have 4 hosts,
/// host t + 13k is in tenant t), with `sessions` wire sessions in distinct
/// 4-host tenants drawn from `layout`.
WorldSpec grid_spec(util::Rng& layout, std::size_t sessions,
                    std::uint64_t seed);

struct Session {
  std::unique_ptr<net::WireClient> client;
  sdn::HostId host{};
  sdn::PortRef ap{};
};

/// The service under test: a ScenarioRuntime (provider, RVaaS controller,
/// in-process ClientAgents for every non-wire host) behind a WireService and
/// a WireServer on an ephemeral loopback port.
class World {
 public:
  /// Builds and settles the runtime; the service is not running yet, so the
  /// caller may still drive the event loop directly.
  explicit World(WorldSpec spec);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Starts the service thread and the server, then connects one WireClient
  /// per wire host (attestation verified). Returns false if any connect
  /// failed.
  bool start(Tracer& tracer);
  /// Closes the sessions and stops server and service. Idempotent.
  void stop();

  workload::ScenarioRuntime& rt() { return *runtime_; }
  net::WireService& service() { return *service_; }
  net::WireServer& server() { return *server_; }
  std::vector<Session>& sessions() { return sessions_; }
  const sdn::Topology& topology() { return runtime_->network().topology(); }

  /// Tenant of a host under the round-robin plan (host order = generation
  /// order), and its co-tenants.
  std::size_t tenant_of(sdn::HostId host) const;
  std::vector<sdn::HostId> cotenants(sdn::HostId host) const;
  sdn::PortRef ap_of(sdn::HostId host);
  std::uint32_t ip_of(sdn::HostId host);

  /// WireClient::connect() wall time per session.
  std::vector<double> connect_ms;

 private:
  WorldSpec spec_;
  std::unique_ptr<workload::ScenarioRuntime> runtime_;
  std::unique_ptr<net::WireService> service_;
  std::unique_ptr<net::WireServer> server_;
  std::vector<Session> sessions_;
  bool running_ = false;
};

// ---------------------------------------------------------------------------
// Ground truth from packet walks (sdn::Network::trace)
// ---------------------------------------------------------------------------

/// Where concrete packets injected at one access point end up under the
/// tables in force: one packet toward every addressed host, kept only if it
/// lies inside the property's constraint. The provider routes on exact
/// destination addresses only, so these packets cover every delivery the
/// header-space analysis can find.
struct Walk {
  struct Delivery {
    sdn::PortRef egress{};
    std::vector<sdn::SwitchId> path;
  };
  sdn::PortRef from{};
  std::vector<Delivery> deliveries;

  /// Egress ports reached, the requester's own port excluded.
  std::set<sdn::PortRef> endpoints() const;
  /// Jurisdictions of the ingress switch (in-band traffic is always punted
  /// there) and of every switch on a delivery path.
  std::set<std::string> jurisdictions(const sdn::Topology& topo) const;
  /// The walk as it reads once every packet crossing `sw` is dropped.
  Walk without(sdn::SwitchId sw) const;
};

/// Walks the live network. Run on the service thread (World::service().call).
Walk walk(sdn::Network& net, const control::HostAddressing& addressing,
          sdn::PortRef from, const sdn::Match& constraint,
          std::uint32_t ip_src);

/// Content checks; each returns "" when the reply matches, else a reason.
/// Every non-dark endpoint must be authenticated as the host the wiring plan
/// puts at that port.
std::string check_endpoints(const core::QueryReply& reply,
                            const std::set<sdn::PortRef>& expected,
                            const sdn::Topology& topo);
std::string check_geo(const core::QueryReply& reply,
                      const std::set<std::string>& expected);
std::string check_transfer(const core::QueryReply& reply,
                           const std::set<sdn::PortRef>& expected);

/// What one session thread logs over the measured phase.
struct SessionLog {
  std::vector<double> latency_ms;   ///< per verified op
  std::vector<double> query_us;     ///< WireClient::query spans
  std::vector<double> lateness_ms;  ///< open loop: send time - due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  util::Bytes reply_bytes;          ///< signing payload of the last reply

  void merge(const SessionLog& other);
};

using ReplyCheck = std::function<std::string(const core::QueryReply&)>;

/// One query op on a session: sent now, its latency counted from `due`.
/// A timeout, a missing reply or a bad signature is a failed op; a reply
/// that fails `check` marks the run's outputs incorrect. Returns the op's
/// latency in ms, or nullopt if it failed.
std::optional<double> query_op(Session& session, const core::Query& query,
              Clock::time_point due, const ReplyCheck& check, Tracer& tracer,
              Result& result, SessionLog& log);

/// Runs fn(session_index) on one thread per session and joins them.
void for_each_session(std::size_t sessions,
                      const std::function<void(std::size_t)>& fn);

/// Server/client frame accounting: the server's replies_out and
/// notifications_out must equal what the sessions received.
void check_accounting(World& world, Result& result);

// ---------------------------------------------------------------------------
// Per-layer probes (trace mode)
// ---------------------------------------------------------------------------

/// Counter snapshot taken at the start and end of the measured phase.
struct Counters {
  core::RvaasController::Stats controller;
  core::PropertyMonitor::Stats monitor;
  core::CompiledModelCache::Stats l1;
  core::ReachCache::Stats l2;
  net::WireServer::Stats server;
  std::uint64_t agent_crypto_ops = 0;
};
Counters read_counters(World& world);

/// Samples WireService queue wait in trace mode: a thread posts a
/// timestamped no-op closure every 2 ms and records how long it waited for
/// the service thread. Disabled tracer: does nothing.
class QueueProbe {
 public:
  QueueProbe(net::WireService& service, Tracer& tracer);
  ~QueueProbe();

  QueueProbe(const QueueProbe&) = delete;
  QueueProbe& operator=(const QueueProbe&) = delete;

  /// Stops posting, waits until every posted probe ran, returns the waits
  /// in us. Later calls return the same waits.
  std::vector<double> finish();

 private:
  void run();

  net::WireService* service_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<double> waits_us_;
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> done_{0};
  std::thread thread_;
};

/// What the per-layer metrics need from a workload beyond its sessions'
/// log and the queue probe.
struct LayerInputs {
  Counters before;  ///< at the start of the phase
  Counters after;   ///< at its end
  double phase_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t churns = 0;  ///< flow-mods the benchmark issued in the phase
  /// Property mix of the workload, each with the session it came from.
  std::vector<std::pair<std::size_t, core::Property>> properties;
  /// A serialized request of the workload, for the crypto probes' envelope
  /// size (the reply size comes from the log's last reply).
  util::Bytes request_bytes;
};

template <typename Message>
util::Bytes serialized(const Message& message) {
  util::ByteWriter w;
  message.serialize(w);
  return w.take();
}

/// Fills result.per_layer: counter deltas, the probe's queue waits, the
/// log's WireClient::query spans, plus the crypto, engine and HSA probes
/// (run after the phase, on the service thread where they touch the
/// controller's snapshot).
void measure_layers(World& world, Tracer& tracer, const LayerInputs& in,
                    QueueProbe& probe, const SessionLog& log,
                    std::uint64_t seed, Result& result);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void run_wire_query(const Options& opt, Clock::time_point process_start,
                    Tracer& tracer, Result& result);
void run_isolation_audit(const Options& opt, Clock::time_point process_start,
                         Tracer& tracer, Result& result);
void run_churn_alert(const Options& opt, Clock::time_point process_start,
                     Tracer& tracer, Result& result);

}  // namespace svcbench
