// Network workloads: echo-small, stream-bulk and echo-fault.
//
// One process and one thread drive a cioserve::MultiClientWorld of
// dual-boundary nodes: one ConfidentialServer with attestation-gated
// admission and N attested clients on the in-process fabric. Arrivals are
// open loop: a seeded Poisson schedule is generated before the timed phase,
// and an echo's latency runs from its due time, so a stalled server delays
// later echoes instead of slowing the load down.
//
// The driver makes the calls of MultiClientWorld::Pump and EchoRound itself,
// in the same order, so that a traced run can time each public call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "src/base/rng.h"
#include "src/prof/profiler.h"
#include "src/serve/harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cioserve::MultiClientWorld;

constexpr uint64_t kStepNs = 10'000;  // MultiClientWorld::Pump's clock step
constexpr size_t kPoolBytes = 1 << 20;
// bench_server_load's fault schedule: a link kill past the TCP retry
// budget, then a stalled-counter window 20 ms after the kill started.
constexpr uint64_t kKillNs = 12'000'000;
constexpr uint64_t kStallGapNs = 20'000'000;
constexpr uint64_t kStallNs = 2'000'000;
constexpr uint64_t kMainDrainNs = 500'000'000;  // main run: drain budget
constexpr uint64_t kQuiesceNs = 1'000'000'000;  // failed probe: drain budget
// The main run's wall rate is taken over this many equal slices of its
// arrival window; see WallRate().
constexpr int kSegments = 30;
constexpr int kSetups = 3;     // set-ups timed per run; the median counts
constexpr int kEpisodes = 3;   // fault schedules per echo-fault run

struct EchoSpec {
  const char* name;
  size_t clients;
  double rate;  // offered echoes per modeled second, all clients together
  uint32_t min_bytes;
  uint32_t max_bytes;
  bool faults;
  // Capacity search: p99 limit of a probe, its modeled arrival window, the
  // bisection steps, and the bracket: a rate taken to pass (below the knee)
  // and one taken to fail (past it, short of the overload cliff).
  double limit_us;
  double probe_ms;
  int probes;
  double pass_rate;
  double fail_rate;
  // Sizing of the main run: host cost per echo on the reference host, and
  // the share of --seconds the main run should take.
  double wall_us_per_echo;
  double main_share;
};

// Offered rates sit near half the knee of each workload's p99 curve.
constexpr EchoSpec kSpecs[] = {
    {"echo-small", 64, 400e3, 64, 1024, false, 1000, 10, 7, 400e3, 1.6e6, 37,
     0.6},
    {"stream-bulk", 4, 20e3, 16384, 16384, false, 2000, 40, 7, 20e3, 80e3, 600,
     0.35},
    {"echo-fault", 64, 200e3, 64, 1024, true, 1000, 10, 7, 400e3, 1.6e6, 42,
     0.6},
};

struct Arrival {
  uint64_t due_ns;
  uint32_t client;
  uint32_t bytes;
  uint32_t offset;  // the payload is pool[offset, offset + bytes)
};

std::vector<Arrival> PoissonSchedule(ciobase::Rng& rng, const EchoSpec& spec,
                                     double rate, uint64_t start_ns,
                                     uint64_t duration_ns) {
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(rate * 1.1 * duration_ns / 1e9) + 16);
  const double mean_gap_ns = 1e9 / rate;
  const double end_ns = static_cast<double>(start_ns + duration_ns);
  double t = static_cast<double>(start_ns);
  for (;;) {
    t -= std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    if (t >= end_ns) {
      return schedule;
    }
    Arrival arrival;
    arrival.due_ns = static_cast<uint64_t>(t);
    arrival.client = static_cast<uint32_t>(rng.NextBounded(spec.clients));
    arrival.bytes =
        static_cast<uint32_t>(rng.NextInRange(spec.min_bytes, spec.max_bytes));
    arrival.offset =
        static_cast<uint32_t>(rng.NextBounded(kPoolBytes - arrival.bytes + 1));
    schedule.push_back(arrival);
  }
}

// Host time of every public call the driver makes (traced runs only).
struct Tracer {
  WallSpan server_poll;
  WallSpan server_app;  // EchoRound: ConfidentialServer Receive + Send
  WallSpan client_poll;
  WallSpan client_send;
  WallSpan client_recv;
};

struct PhaseResult {
  std::vector<double> latency_us;  // due -> echo received
  std::vector<double> lag_us;      // due -> handed to the client
  std::vector<double> admit_us;    // handed over -> accepted by SendMessage
  std::vector<double> transit_us;  // accepted -> echo received
  uint64_t offered = 0;
  uint64_t delivered = 0;   // correct echoes received by the deadline
  uint64_t mismatched = 0;  // wrong bytes or order, or an unexpected echo
  uint64_t stranded = 0;    // still in flight when the phase gave up
  uint64_t first_due_ns = 0;
  uint64_t end_ns = 0;
  size_t in_flight_mid = 0;  // echoes outstanding half-way through arrivals
  size_t in_flight_end = 0;  // ... and when the last arrival was due
  size_t max_backlog = 0;    // server-side echo queue
  std::vector<double> segment_rates;  // echoes per wall second
  double wall_s = 0;
  // Latency of each arrival by schedule index; -1 when it never came back.
  std::vector<double> latency_by_arrival_us;
  // One per injected fault schedule.
  struct Episode {
    uint64_t killed_at = 0;
    uint64_t stalled_at = 0;
    bool recovered = false;
    double recovery_ms = 0;
  };
  std::vector<Episode> episodes;
  bool AllRecovered() const {
    return std::all_of(episodes.begin(), episodes.end(),
                       [](const Episode& e) { return e.recovered; });
  }
};

class EchoDriver {
 public:
  EchoDriver(MultiClientWorld& world, const ciobase::Buffer& pool,
             Tracer* tracer)
      : world_(world),
        pool_(pool),
        tracer_(tracer),
        clients_(world.clients.size()) {}

  // Offers `schedule` open loop and verifies every echo. At each time in
  // `kills` the server's host kills the link, and it stalls its counters
  // 20 ms after each kill. Echoes count as delivered until drain_ns after
  // the last arrival was due; echoes still in flight then get quiesce_ns
  // more to come back before the phase gives up on them (stranded).
  PhaseResult Run(const std::vector<Arrival>& schedule,
                  const std::vector<uint64_t>& kills, uint64_t drain_ns,
                  uint64_t quiesce_ns);

  bool AllReady() const {
    return std::all_of(world_.clients.begin(), world_.clients.end(),
                       [](const auto& client) { return client->Ready(); });
  }

 private:
  struct Waiting {
    uint32_t index;     // into the schedule
    uint64_t since_ns;  // handed to the client, or accepted by it
  };
  struct ClientQueues {
    std::deque<Waiting> pending;    // due, not yet accepted by SendMessage
    std::deque<Waiting> in_flight;  // accepted, echo not yet received
  };

  WallSpan* Span(WallSpan Tracer::*member) {
    return tracer_ == nullptr ? nullptr : &(tracer_->*member);
  }
  void Pump();

  MultiClientWorld& world_;
  const ciobase::Buffer& pool_;
  Tracer* tracer_;
  std::vector<ClientQueues> clients_;
};

void EchoDriver::Pump() {
  {
    SpanTimer timer(Span(&Tracer::server_poll));
    world_.server->Poll();
  }
  {
    SpanTimer timer(Span(&Tracer::client_poll));
    for (auto& client : world_.clients) {
      client->Poll();
    }
  }
  world_.clock.Advance(kStepNs);
}

PhaseResult EchoDriver::Run(const std::vector<Arrival>& schedule,
                            const std::vector<uint64_t>& kills,
                            uint64_t drain_ns, uint64_t quiesce_ns) {
  PhaseResult r;
  r.offered = schedule.size();
  if (schedule.empty()) {
    return r;
  }
  r.latency_us.reserve(schedule.size());
  r.lag_us.reserve(schedule.size());
  r.admit_us.reserve(schedule.size());
  r.transit_us.reserve(schedule.size());
  r.latency_by_arrival_us.assign(schedule.size(), -1);
  const uint64_t first_due = schedule.front().due_ns;
  const uint64_t last_due = schedule.back().due_ns;
  const uint64_t mid_due = first_due + (last_due - first_due) / 2;
  const uint64_t deadline = last_due + drain_ns;
  const uint64_t segment_ns =
      std::max<uint64_t>(1, (last_due - first_due) / kSegments);
  r.first_due_ns = first_due;

  std::vector<uint8_t> done(schedule.size(), 0);
  size_t next = 0;         // next arrival to hand over
  size_t first_open = 0;   // first arrival whose echo is still missing
  size_t outstanding = 0;  // handed over, echo not yet received
  size_t next_kill = 0;
  bool mid_seen = false;
  bool end_seen = false;
  int segments = 0;
  uint64_t segment_end = first_due + segment_ns;
  uint64_t segment_delivered = 0;
  const WallClock::time_point start = WallClock::now();
  WallClock::time_point segment_start = start;
  ciohost::Adversary& host = world_.server_node->adversary();

  for (;;) {
    const uint64_t now = world_.clock.now_ns();
    if (next_kill < kills.size() && now >= kills[next_kill]) {
      host.InjectFault({ciohost::FaultStrategy::kLinkKill, now, kKillNs});
      r.episodes.push_back({now});
      ++next_kill;
    }
    PhaseResult::Episode* episode =
        r.episodes.empty() ? nullptr : &r.episodes.back();
    if (episode != nullptr && episode->stalled_at == 0 &&
        now >= episode->killed_at + kStallGapNs) {
      host.InjectFault(
          {ciohost::FaultStrategy::kStallCounters, now, kStallNs});
      episode->stalled_at = now;
    }
    for (; segments < kSegments && now >= segment_end; ++segments) {
      const WallClock::time_point t = WallClock::now();
      const double seconds =
          std::chrono::duration<double>(t - segment_start).count();
      if (seconds > 0) {
        r.segment_rates.push_back(segment_delivered / seconds);
      }
      segment_delivered = 0;
      segment_start = t;
      segment_end += segment_ns;
    }
    for (; next < schedule.size() && schedule[next].due_ns <= now; ++next) {
      clients_[schedule[next].client].pending.push_back(
          {static_cast<uint32_t>(next), now});
      r.lag_us.push_back((now - schedule[next].due_ns) / 1e3);
      ++outstanding;
    }
    if (!mid_seen && now >= mid_due) {
      r.in_flight_mid = outstanding;
      mid_seen = true;
    }
    if (!end_seen && now >= last_due) {
      r.in_flight_end = outstanding;
      end_seen = true;
    }

    const bool measuring = now <= deadline;
    for (size_t i = 0; i < clients_.size(); ++i) {
      cio::ConfidentialNode& node = *world_.clients[i];
      ClientQueues& queues = clients_[i];
      while (!queues.pending.empty() && node.Ready()) {
        const Waiting waiting = queues.pending.front();
        const Arrival& arrival = schedule[waiting.index];
        bool accepted = false;
        {
          SpanTimer timer(Span(&Tracer::client_send));
          accepted = node.SendMessage(ciobase::ByteSpan(
                                          pool_.data() + arrival.offset,
                                          arrival.bytes))
                         .ok();
        }
        if (!accepted) {
          break;
        }
        queues.pending.pop_front();
        queues.in_flight.push_back({waiting.index, now});
        r.admit_us.push_back((now - waiting.since_ns) / 1e3);
      }
      for (;;) {
        auto echo = [&] {
          SpanTimer timer(Span(&Tracer::client_recv));
          return node.ReceiveMessage();
        }();
        if (!echo.ok()) {
          break;
        }
        if (queues.in_flight.empty()) {
          ++r.mismatched;
          continue;
        }
        const Waiting waiting = queues.in_flight.front();
        queues.in_flight.pop_front();
        --outstanding;
        const Arrival& arrival = schedule[waiting.index];
        if (echo->size() != arrival.bytes ||
            std::memcmp(echo->data(), pool_.data() + arrival.offset,
                        arrival.bytes) != 0) {
          ++r.mismatched;
          continue;
        }
        done[waiting.index] = 1;
        r.latency_by_arrival_us[waiting.index] = (now - arrival.due_ns) / 1e3;
        if (measuring) {
          ++r.delivered;
          ++segment_delivered;
          r.latency_us.push_back((now - arrival.due_ns) / 1e3);
          r.transit_us.push_back((now - waiting.since_ns) / 1e3);
        }
      }
    }
    {
      SpanTimer timer(Span(&Tracer::server_app));
      world_.EchoRound();
    }
    r.max_backlog = std::max(r.max_backlog, world_.pending_echoes());

    // Recovered once the last fault window is over, every client is
    // Ready() and every echo due before that window closed has arrived.
    if (episode != nullptr && episode->stalled_at != 0 &&
        !episode->recovered && now >= episode->stalled_at + kStallNs) {
      const uint64_t fault_end = episode->stalled_at + kStallNs;
      while (first_open < schedule.size() && done[first_open] != 0) {
        ++first_open;
      }
      if ((first_open == schedule.size() ||
           schedule[first_open].due_ns >= fault_end) &&
          AllReady()) {
        episode->recovered = true;
        episode->recovery_ms = (now - episode->killed_at) / 1e6;
      }
    }
    if (next == schedule.size()) {
      if (now > deadline) {
        // Echoes due but never accepted by a client are dropped; the ones
        // in flight get the quiesce budget to come back.
        for (ClientQueues& queues : clients_) {
          outstanding -= queues.pending.size();
          queues.pending.clear();
        }
      }
      const bool settled =
          (next_kill == kills.size() && r.AllRecovered()) || now > deadline;
      if ((outstanding == 0 && settled) || now > deadline + quiesce_ns) {
        break;
      }
    }
    Pump();
  }
  r.stranded = outstanding;
  r.end_ns = world_.clock.now_ns();
  r.wall_s = SecondsSince(start);
  return r;
}

// Module counters of the whole world, read through public accessors.
void AddTls(Counters& c, const ciotls::TlsSession* tls) {
  if (tls != nullptr) {
    c["tls.records_sealed"] += tls->stats().records_sealed;
    c["tls.bytes_protected"] += tls->stats().bytes_protected;
  }
}

void AddNode(Counters& c, cio::ConfidentialNode& node) {
  AddCosts(c, node.costs());
  if (const cio::L5Channel* l5 = node.l5()) {
    c["l5.crossings"] += l5->stats().crossings;
    c["l5.doorbells"] += l5->stats().doorbells;
    c["l5.sq_backpressure"] += l5->stats().sq_backpressure;
    c["l5.cq_stale_dropped"] += l5->stats().cq_stale_dropped;
  }
  if (const cio::L2Transport* l2 = node.l2_transport()) {
    c["l2.frames_sent"] += l2->stats().frames_sent;
    c["l2.tx_ring_full"] += l2->stats().tx_ring_full;
    c["l2.ring_resets"] += l2->stats().ring_resets;
    c["l2.watchdog_fires"] += l2->stats().watchdog_fires;
  }
  c["hostsim.fault_events"] += node.adversary().fault_events();
}

Counters Snapshot(MultiClientWorld& world) {
  Counters c;
  AddNode(c, *world.server_node);
  for (auto& client : world.clients) {
    AddNode(c, *client);
    const cio::ConfidentialNode::RecoveryStats recovery =
        client->recovery_stats();
    c["session.resent"] += recovery.messages_resent;
    c["session.dup_dropped"] += recovery.messages_duplicate_dropped;
    c["session.lost"] += recovery.messages_lost;
    c["engine.reconnects"] += recovery.reconnects;
    AddTls(c, client->tls());
  }
  for (cioserve::ConnId id : world.server->EstablishedConnections()) {
    if (const cio::Session* session = world.server->SessionOf(id)) {
      c["session.resent"] += session->stats().messages_resent;
      c["session.dup_dropped"] += session->stats().messages_duplicate_dropped;
      c["session.lost"] += session->stats().messages_lost;
      AddTls(c, session->tls());
    }
  }
  c["net.frames"] = world.fabric->stats().frames_routed;
  c["net.bytes"] = world.fabric->stats().bytes_routed;
  c["serve.recovered"] = world.server->stats().recovered;
  c["serve.send_queue_rejections"] =
      world.server->stats().send_queue_rejections;
  return c;
}

// Modeled microseconds of every probe path ending in `leaf`: self time, or
// inclusive time.
double LeafUs(const cioprof::ProfRegistry& prof, std::string_view leaf,
              bool self) {
  uint64_t ns = 0;
  for (const cioprof::ProbeRow& row : prof.Rows()) {
    const std::string_view path = row.path;
    const size_t slash = path.rfind('/');
    if (path.substr(slash == std::string_view::npos ? 0 : slash + 1) == leaf) {
      ns += self ? row.self_ns : row.total_ns;
    }
  }
  return ns / 1e3;
}

MultiClientWorld::Options WorldOptions(const EchoSpec& spec, uint64_t seed,
                                       cioprof::ProfRegistry* server_prof) {
  MultiClientWorld::Options options;
  options.profile = cio::StackProfile::kDualBoundary;
  options.num_clients = spec.clients;
  options.seed = seed;
  options.server_config.max_connections = spec.clients;
  // Parked sessions outlive the reconnect herd (as in bench_server_load).
  options.server_config.reattach_timeout_ns = 2'000'000'000;
  options.attestation_key =
      ciobase::BufferFromString("perfbench-fleet-attestation-root");
  options.server_profiler = server_prof;
  return options;
}

// Builds the world and admits every client; null when that fails.
std::unique_ptr<MultiClientWorld> BuildWorld(
    const MultiClientWorld::Options& options, double* wall_s) {
  const WallClock::time_point start = WallClock::now();
  auto world = std::make_unique<MultiClientWorld>(options);
  const bool established = world->EstablishAll(120000);
  *wall_s = SecondsSince(start);
  if (!established) {
    return nullptr;
  }
  return world;
}

struct MainRun {
  PhaseResult phase;
  Counters delta;           // module counters over the main phase
  double establish_ms = 0;  // modeled set-up time
  uint64_t admitted = 0;    // attested admissions during set-up
  // Fault workload: per episode (kill to next kill), the p99 of the echoes
  // due in it.
  std::vector<double> episode_p99_us;
  // Peak resident memory through the main run. Capacity probes come later:
  // their traffic depends on the bisection path, not on the workload.
  double peak_rss_mb = 0;
};

MainRun RunMain(const EchoSpec& spec, const Args& args,
                MultiClientWorld& world, EchoDriver& driver) {
  MainRun run;
  run.establish_ms = world.clock.now_ns() / 1e6;
  run.admitted = world.server->stats().admitted;
  const double echoes =
      args.seconds * spec.main_share * 1e6 / spec.wall_us_per_echo;
  const uint64_t duration_ns = std::max<uint64_t>(
      20'000'000, static_cast<uint64_t>(echoes / spec.rate * 1e9));
  const uint64_t start_ns = world.clock.now_ns() + 100'000;
  ciobase::Rng rng(args.seed * kSeedMix + 1);
  const std::vector<Arrival> schedule =
      PoissonSchedule(rng, spec, spec.rate, start_ns, duration_ns);
  // The fault schedule runs once in each third of the schedule, its kill
  // at a seeded point 5-15% into that third. One run of it alone makes the
  // p99 bimodal: in roughly one episode in twelve the stall window catches
  // the reconnect herd and the episode's p99 doubles. The median episode
  // keeps the figure steady; the notes print every episode.
  std::vector<uint64_t> kills;
  const double third = static_cast<double>(duration_ns) / kEpisodes;
  for (int episode = 0; spec.faults && episode < kEpisodes; ++episode) {
    const double offset = third * (episode + 0.05 + 0.1 * rng.NextDouble());
    kills.push_back(start_ns + static_cast<uint64_t>(offset));
  }
  const Counters before = Snapshot(world);
  run.phase = driver.Run(schedule, kills, kMainDrainNs, 0);
  run.delta = Delta(Snapshot(world), before);
  const auto& episodes = run.phase.episodes;
  for (size_t e = 0; e < episodes.size(); ++e) {
    const uint64_t from = episodes[e].killed_at;
    const uint64_t to = e + 1 < episodes.size() ? episodes[e + 1].killed_at
                                                : UINT64_MAX;
    std::vector<double> latencies;
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (schedule[i].due_ns >= from && schedule[i].due_ns < to &&
          run.phase.latency_by_arrival_us[i] >= 0) {
        latencies.push_back(run.phase.latency_by_arrival_us[i]);
      }
    }
    run.episode_p99_us.push_back(Percentile(latencies, 0.99));
  }
  run.peak_rss_mb = PeakRssMb();
  return run;
}

Values ModeledFigures(const MainRun& run) {
  const PhaseResult& p = run.phase;
  Values f;
  f["sim_p50_us"] = Percentile(p.latency_us, 0.50);
  f["sim_p99_us"] = run.episode_p99_us.empty()
                       ? Percentile(p.latency_us, 0.99)
                       : Median(run.episode_p99_us);
  f["sim_samples"] = p.latency_us.size();
  std::vector<double> recovery_ms;
  for (size_t e = 0; e < p.episodes.size(); ++e) {
    const std::string episode = "episode" + std::to_string(e + 1);
    f["sim_recovery_ms." + episode] = p.episodes[e].recovery_ms;
    f["sim_p99_us." + episode] = run.episode_p99_us[e];
    recovery_ms.push_back(p.episodes[e].recovery_ms);
  }
  f["sim_recovery_ms"] = Median(recovery_ms);
  f["sim_end_ms"] = p.end_ns / 1e6;
  f["sim_establish_ms"] = run.establish_ms;
  f["gen.lag_us.p99"] = Percentile(p.lag_us, 0.99);
  f["gen.admit_wait_us.p99"] = Percentile(p.admit_us, 0.99);
  f["gen.transit_us.p50"] = Percentile(p.transit_us, 0.50);
  f["gen.transit_us.p99"] = Percentile(p.transit_us, 0.99);
  f["serve.echo_backlog.max"] = p.max_backlog;
  for (const auto& [name, value] : run.delta) {
    f["counter." + name] = value;
  }
  return f;
}

void CheckMain(Report& report, const std::string& prefix, const MainRun& run,
               bool faults) {
  const PhaseResult& p = run.phase;
  report.Check(prefix + "echo.byte_exact_in_order", p.mismatched == 0,
               std::to_string(p.mismatched) + " mismatched");
  report.Check(prefix + "echo.all_delivered", p.delivered == p.offered,
               std::to_string(p.delivered) + " of " +
                   std::to_string(p.offered));
  report.Check(prefix + "echo.messages_lost_zero",
               CounterOf(run.delta, "session.lost") == 0,
               std::to_string(CounterOf(run.delta, "session.lost")) +
                   " lost");
  if (faults) {
    report.Check(prefix + "echo.recovered",
                 p.episodes.size() == kEpisodes && p.AllRecovered());
  }
  report.AddAttempted(p.offered);
  report.AddFailed(p.offered - std::min(p.offered, p.delivered));
}

// After the drain: every client Ready() with nothing lost; then an orderly
// disconnect of every client, after which every registered L5 pool slot is
// back in its free list on every node.
void CheckWorld(Report& report, MultiClientWorld& world,
                const EchoDriver& driver) {
  report.Check("clients.ready_after_drain", driver.AllReady());
  uint64_t lost = 0;
  for (auto& client : world.clients) {
    lost += client->recovery_stats().messages_lost;
  }
  report.Check("recovery.messages_lost_zero", lost == 0,
               std::to_string(lost) + " lost");
  bool disconnected = true;
  for (auto& client : world.clients) {
    disconnected = client->Disconnect().ok() && disconnected;
  }
  const bool drained = world.PumpUntil(
      [&] {
        return world.server->active_connections() == 0 &&
               world.server->parked_sessions() == 0;
      },
      200000);
  size_t leaking = 0;
  auto audit = [&](cio::ConfidentialNode& node) {
    const cio::L5Channel* l5 = node.l5();
    if (l5 == nullptr || l5->free_slots() != l5->queue_config().pool_slots) {
      ++leaking;
    }
  };
  audit(*world.server_node);
  for (auto& client : world.clients) {
    audit(*client);
  }
  report.Check("l5.pool_slots_balanced", disconnected && drained && leaking == 0,
               std::to_string(leaking) + " nodes hold pool slots" +
                   (drained ? "" : ", connection table not drained"));
}

struct Capacity {
  double ops_per_s = 0;
  int probes = 0;
  double first_shortfall = 0;  // lowest probed rate whose deliveries fell behind
  uint64_t mismatched = 0;
  bool quiesced = true;
};

// Geometric bisection for the highest offered rate a probe passes: p99
// within the limit, every echo back within twice the limit after the last
// arrival, and no backlog growth over the probe. Each probe has a bounded
// arrival window and drain budget, so a rate past the overload cliff fails
// the limit instead of running on.
Capacity SearchCapacity(const EchoSpec& spec, uint64_t seed,
                        MultiClientWorld& world, EchoDriver& driver) {
  Capacity cap;
  const double limit_s = spec.limit_us / 1e6;
  double lo = spec.pass_rate;
  double hi = spec.fail_rate;
  ciobase::Rng rng(seed * kSeedMix + 2);
  for (int i = 0; i < spec.probes; ++i) {
    const double rate = std::sqrt(lo * hi);
    const std::vector<Arrival> schedule = PoissonSchedule(
        rng, spec, rate, world.clock.now_ns() + 100'000,
        static_cast<uint64_t>(spec.probe_ms * 1e6));
    const PhaseResult p =
        driver.Run(schedule, {}, static_cast<uint64_t>(2 * spec.limit_us * 1e3),
                   kQuiesceNs);
    ++cap.probes;
    cap.mismatched += p.mismatched;
    if (p.stranded != 0) {
      cap.quiesced = false;
      break;
    }
    // Behind: more than one limit's worth of arrivals still outstanding when
    // the last one was due, i.e. deliveries fell below the offered rate.
    const bool behind = p.in_flight_end > rate * limit_s;
    const bool growing = p.in_flight_end > 2 * p.in_flight_mid + 16;
    if (behind && (cap.first_shortfall == 0 || rate < cap.first_shortfall)) {
      cap.first_shortfall = rate;
    }
    const bool pass = !behind && !growing && p.mismatched == 0 &&
                      p.delivered == p.offered &&
                      Percentile(p.latency_us, 0.99) <= spec.limit_us;
    (pass ? lo : hi) = rate;
  }
  cap.ops_per_s = lo;
  return cap;
}

void FillLayers(Values& v, const MainRun& run, const Tracer& tracer,
                const cioprof::ProfRegistry& server_prof,
                const AeadCalibration& aead) {
  // The load generator's and the echo backlog's figures are modeled ones.
  const Values figures = ModeledFigures(run);
  for (const char* name : {"serve.echo_backlog.max", "gen.lag_us.p99",
                           "gen.admit_wait_us.p99", "gen.transit_us.p50",
                           "gen.transit_us.p99"}) {
    v[name] = figures.at(name);
  }
  const PhaseResult& p = run.phase;
  const double ops = std::max<double>(1, p.delivered);
  auto per_op = [&](const char* counter) {
    return static_cast<double>(CounterOf(run.delta, counter)) / ops;
  };
  auto wall_us = [&](const WallSpan& span) { return span.ns / 1e3 / ops; };
  auto sim_us = [&](const char* leaf, bool self) {
    return LeafUs(server_prof, leaf, self) / ops;
  };
  v["serve.poll.wall_us_per_op"] = wall_us(tracer.server_poll);
  v["serve.app.wall_us_per_op"] = wall_us(tracer.server_app);
  v["serve.pump.sim_self_us_per_op"] = sim_us("server.pump", true);
  v["serve.egress.sim_us_per_op"] = sim_us("server.egress", false);
  v["serve.send_queue_rejections_per_op"] =
      per_op("serve.send_queue_rejections");
  v["cio.l5.crossings_per_op"] = per_op("l5.crossings");
  v["cio.l5.doorbells_per_op"] = per_op("l5.doorbells");
  v["cio.l5.sq_backpressure_per_op"] = per_op("l5.sq_backpressure");
  v["cio.l5.doorbell.sim_self_us_per_op"] = sim_us("l5.doorbell", true);
  v["cio.engine.poll.wall_us_per_op"] = wall_us(tracer.client_poll);
  v["cio.engine.send.wall_us_per_op"] = wall_us(tracer.client_send);
  v["cio.engine.recv.wall_us_per_op"] = wall_us(tracer.client_recv);
  v["cio.l2.frames_per_op"] = per_op("l2.frames_sent");
  v["cio.l2.tx_ring_full_per_op"] = per_op("l2.tx_ring_full");
  v["cio.l2.tx.sim_self_us_per_op"] = sim_us("l2.tx", true);
  v["cio.l2.counters.sim_self_us_per_op"] = sim_us("l2.counters", true);
  v["net.frames_per_op"] = per_op("net.frames");
  v["net.wire_bytes_per_op"] = per_op("net.bytes");
  v["net.tcp.poll.sim_us_per_op"] = sim_us("tcp.poll", false);
  v["tls.records_per_op"] = per_op("tls.records_sealed");
  v["tls.bytes_protected_per_op"] = per_op("tls.bytes_protected");
  FillCostLayers(v, run.delta, ops);
  FillAeadLayers(v, aead, run.delta, p.wall_s);
  v["cio.session.resent_per_op"] = per_op("session.resent");
  v["cio.session.dup_dropped_per_op"] = per_op("session.dup_dropped");
  v["cio.engine.reconnects"] = CounterOf(run.delta, "engine.reconnects");
  v["cio.l2.ring_resets"] = CounterOf(run.delta, "l2.ring_resets");
  v["cio.l2.watchdog_fires"] = CounterOf(run.delta, "l2.watchdog_fires");
  v["cio.l5.cq_stale_dropped"] = CounterOf(run.delta, "l5.cq_stale_dropped");
  v["serve.recovered"] = CounterOf(run.delta, "serve.recovered");
  v["hostsim.fault_events"] = CounterOf(run.delta, "hostsim.fault_events");
  v["setup.establish.sim_ms"] = run.establish_ms;
  v["tee.attest.admitted"] = run.admitted;
}

}  // namespace

bool RunEchoWorkload(const Args& args, Report& report, Values& values) {
  const EchoSpec* spec = nullptr;
  for (const EchoSpec& candidate : kSpecs) {
    if (args.workload == candidate.name) {
      spec = &candidate;
    }
  }
  if (spec == nullptr) {
    return false;
  }
  const ciobase::Buffer pool =
      ciobase::Rng(args.seed * kSeedMix + 3).Bytes(kPoolBytes);

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<MultiClientWorld> world;
    for (int i = 0; i < kSetups; ++i) {
      world.reset();  // one world at a time
      double seconds = 0;
      world = BuildWorld(WorldOptions(*spec, args.seed, nullptr), &seconds);
      setup_s.push_back(seconds);
      if (world == nullptr) {
        break;
      }
    }
    report.Check("setup.all_clients_admitted", world != nullptr);
    if (world == nullptr) {
      return true;
    }
    EchoDriver driver(*world, pool, nullptr);
    const MainRun run = RunMain(*spec, args, *world, driver);
    CheckMain(report, "", run, spec->faults);
    Capacity cap;
    if (run.phase.stranded == 0) {
      cap = SearchCapacity(*spec, args.seed, *world, driver);
    }
    report.Check("capacity.probes_byte_exact", cap.mismatched == 0);
    report.Check("capacity.probes_quiesced",
                 cap.quiesced && run.phase.stranded == 0);
    CheckWorld(report, *world, driver);

    const PhaseResult& p = run.phase;
    Values figures = ModeledFigures(run);
    figures["sim_capacity_ops_per_s"] = cap.ops_per_s;
    figures["capacity.probes"] = cap.probes;
    figures["capacity.first_shortfall_ops_per_s"] = cap.first_shortfall;
    for (const auto& [name, value] : figures) {
      report.Sim(name, value);
    }
    const double sim_s = (p.end_ns - p.first_due_ns) / 1e9;
    report.Note("offered_ops_per_s", spec->rate, "ops/s");
    report.Note("sim_samples", p.latency_us.size(), "count");
    report.Note("sim_ops_per_s", sim_s > 0 ? p.delivered / sim_s : 0,
                "ops/s");
    for (const auto& [name, value] : figures) {
      if (name.starts_with("sim_recovery_ms") ||
          name.starts_with("sim_p99_us.episode")) {
        report.Note(name, value, name.starts_with("sim_p99") ? "us" : "ms");
      }
    }
    report.Note("capacity.limit_p99_us", spec->limit_us, "us");
    report.Note("capacity.probes", cap.probes, "count");
    report.Note("capacity.first_shortfall_ops_per_s", cap.first_shortfall,
                "ops/s");
    report.Note("main.wall_s", p.wall_s, "s");
    report.Note("wall_ops_per_s", WallRate(p.segment_rates), "ops/s");

    values["sim_p50_us"] = figures["sim_p50_us"];
    values["sim_p99_us"] = figures["sim_p99_us"];
    values["sim_capacity_ops_per_s"] = cap.ops_per_s;
    values["setup_s"] = Median(setup_s);
    values["peak_rss_mb"] = run.peak_rss_mb;
    return true;
  }

  // Traced: the untraced run, then the traced run of the same seed.
  MainRun untraced;
  {
    double seconds = 0;
    auto world =
        BuildWorld(WorldOptions(*spec, args.seed, nullptr), &seconds);
    report.Check("untraced.setup.all_clients_admitted", world != nullptr);
    if (world == nullptr) {
      return true;
    }
    EchoDriver driver(*world, pool, nullptr);
    untraced = RunMain(*spec, args, *world, driver);
    CheckMain(report, "untraced.", untraced, spec->faults);
  }
  cioprof::ProfRegistry server_prof;
  cioprof::ProfRegistry client_prof;
  double seconds = 0;
  auto world =
      BuildWorld(WorldOptions(*spec, args.seed, &server_prof), &seconds);
  report.Check("setup.all_clients_admitted", world != nullptr);
  if (world == nullptr) {
    return true;
  }
  server_prof.Reset();  // profile the timed phase, not the handshakes
  cio::ConfidentialNode& first_client = *world->clients.front();
  first_client.costs().set_profiler(&client_prof);
  client_prof.Bind(&world->clock, &first_client.costs());
  Tracer tracer;
  EchoDriver driver(*world, pool, &tracer);
  const MainRun traced = RunMain(*spec, args, *world, driver);
  CheckMain(report, "", traced, spec->faults);
  report.CheckTracedFigures(ModeledFigures(untraced), ModeledFigures(traced));

  FillLayers(values, traced, tracer, server_prof, CalibrateAead(0.6));
  values["trace.overhead_pct"] =
      100 * (WallRate(untraced.phase.segment_rates) /
                 WallRate(traced.phase.segment_rates) -
             1);
  std::printf("-- server node flame (modeled clock, timed phase) --\n%s\n",
              server_prof.ToFlameSummary().c_str());
  std::printf("-- first client flame (engine, L5, L2 probes) --\n%s\n",
              client_prof.ToFlameSummary().c_str());
  CheckWorld(report, *world, driver);
  return true;
}

}  // namespace perfbench
