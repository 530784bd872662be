#include "chaos/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "am/endpoint.hpp"
#include "lanai/nic.hpp"
#include "obs/metrics.hpp"

namespace vnet::chaos {

namespace {

// Client request status.
constexpr int kPending = 0;
constexpr int kReplied = 1;
constexpr int kReturnedFinal = 2;  // returned, no failover -> terminal

struct SharedState {
  am::Name server_name;
  am::Name replica_name;
  int published = 0;
  int clients_done = 0;
  bool stop = false;

  std::uint64_t issued = 0;
  std::uint64_t replies = 0;
  std::uint64_t returns = 0;
  std::uint64_t reissued = 0;
  std::uint64_t unfinished = 0;
};

cluster::ClusterConfig make_config(const ScenarioSpec& spec) {
  const int nodes = 3 + spec.clients;
  cluster::ClusterConfig cfg = cluster::NowConfig(nodes);
  cfg.seed = spec.seed;
  if (spec.fat_tree) {
    cfg.topology = cluster::ClusterConfig::Topology::kFatTree;
    cfg.hosts_per_leaf = 2;
    cfg.spines = 2;
  } else {
    cfg.topology = cluster::ClusterConfig::Topology::kCrossbar;
  }
  // Campaigns run for tens of simulated milliseconds, so tighten the
  // transport's patience relative to the 1 s production default.
  cfg.nic.retransmit_timeout = 200 * sim::us;
  cfg.nic.unreachable_timeout = 10 * sim::ms;
  if (spec.tweak) spec.tweak(cfg);
  return cfg;
}

}  // namespace

// ----------------------------------------------------------- ScenarioRun

// Declaration order is destruction safety (reverse order teardown):
// `parked` (endpoints) must die before the cluster whose NICs they detach
// from; the ProbeGuard must uninstall before the ledger goes away; the
// Campaign refers to the cluster.
struct ScenarioRun::Impl {
  explicit Impl(const ScenarioSpec& s)
      : spec(s),
        cfg(make_config(s)),
        cluster(cfg),
        probe_guard(&ledger),
        plan_rng(cluster.engine().rng().split()),
        plan(s.plan ? s.plan(cluster, plan_rng) : FaultPlan{}) {
    arm_watchdog();
    spawn_workload();
  }

  void arm_watchdog() {
    // Stall watchdog: once per window, diff the registry and name any
    // component that stopped making progress (see obs/watchdog.hpp). The
    // periodic check must stop once the controller declares the run over,
    // or the post-run engine().run() drain would never terminate.
    wcfg.window_ns = 500 * sim::us;
    wcfg.link_ns_per_byte = cfg.fabric.link.ns_per_byte;
    watchdog = std::make_unique<obs::Watchdog>(cluster.engine().metrics(),
                                               wcfg);
    cluster.engine().every(wcfg.window_ns, [this] {
      if (sh.stop) return false;
      watchdog->check(cluster.engine().now());
      return true;
    });
  }

  void spawn_workload() {
    // --- servers: node 1 = primary, node 2 = replica (echo service) ---
    auto server_body = [this](am::Name* slot, std::uint64_t tag)
        -> cluster::Cluster::ThreadBody {
      return [this, slot, tag](host::HostThread& t) -> sim::Task<> {
        auto ep = co_await am::Endpoint::create(t, tag);
        ep->set_handler(1, [](am::Endpoint&, const am::Message& m) {
          m.reply(2, {m.arg(0)});
        });
        // Replies to crashed/unreachable clients just come back; count is
        // in the ledger, the server has no recovery to do.
        ep->set_undeliverable_handler(
            [](am::Endpoint&, am::ReturnedMessage) {});
        *slot = ep->name();
        ++sh.published;
        while (!sh.stop) {
          // Arrivals only: kEventSendSpace is level-triggered and nearly
          // always true for an idle endpoint, so a blanket mask would make
          // this wait never block and the loop spin-poll for the whole run.
          (void)co_await ep->wait_events_for(t, am::kEventArrivals,
                                             1 * sim::ms);
          co_await ep->poll(t, 64);
        }
        while (co_await ep->poll(t, 64) > 0) {
        }
        // Park instead of destroying: late retransmissions / returns for
        // this endpoint must still reach the ledger after the thread exits.
        parked.push_back(std::move(ep));
      };
    };
    cluster.spawn_thread(1, "server", server_body(&sh.server_name, 0xA11CE));
    cluster.spawn_thread(2, "replica", server_body(&sh.replica_name, 0xB0B));

    // --- clients: nodes 3 .. 3+clients ---
    for (int c = 0; c < spec.clients; ++c) {
      cluster.spawn_thread(
          3 + c, "client" + std::to_string(c),
          [this, c](host::HostThread& t) -> sim::Task<> {
            auto ep =
                co_await am::Endpoint::create(t, 0xC0000 + std::uint64_t(c));
            const int n = spec.requests_per_client;
            std::vector<int> status(static_cast<std::size_t>(n), kPending);
            std::vector<int> reissue_queue;

            ep->set_handler(2, [this, &status](am::Endpoint&,
                                               const am::Message& m) {
              ++sh.replies;
              const std::size_t i = static_cast<std::size_t>(m.arg(0));
              if (i < status.size()) status[i] = kReplied;
            });
            ep->set_undeliverable_handler(
                [this, &status, &reissue_queue](am::Endpoint&,
                                                am::ReturnedMessage r) {
                  ++sh.returns;
                  if (!r.descriptor.body.is_request) return;
                  const std::size_t i =
                      static_cast<std::size_t>(r.descriptor.body.args[0]);
                  if (i >= status.size() || status[i] != kPending) return;
                  if (spec.failover) {
                    reissue_queue.push_back(static_cast<int>(i));
                  } else {
                    status[i] = kReturnedFinal;
                  }
                });
            while (sh.published < 2) co_await t.sleep(100 * sim::us);
            ep->map(0, sh.server_name);
            ep->map(1, sh.replica_name);

            for (int i = 0; i < n; ++i) {
              if (spec.bulk_bytes > 0) {
                co_await ep->request_bulk(t, 0, 1, spec.bulk_bytes, nullptr,
                                          static_cast<std::uint64_t>(i));
              } else {
                co_await ep->request(t, 0, 1, static_cast<std::uint64_t>(i));
              }
              ++sh.issued;
              co_await ep->poll(t, 4);
              if (spec.send_spacing > 0) co_await t.sleep(spec.send_spacing);
            }

            auto pending = [&status] {
              return static_cast<std::uint64_t>(
                  std::count(status.begin(), status.end(), kPending));
            };
            auto flush_reissues = [&](host::HostThread& th) -> sim::Task<> {
              while (!reissue_queue.empty()) {
                const int idx = reissue_queue.back();
                reissue_queue.pop_back();
                if (status[static_cast<std::size_t>(idx)] != kPending) {
                  continue;
                }
                co_await ep->request(th, 1, 1,
                                     static_cast<std::uint64_t>(idx));
                ++sh.reissued;
                ++sh.issued;
              }
            };

            sim::Time deadline = t.engine().now() + spec.client_deadline;
            while (pending() > 0 && t.engine().now() < deadline) {
              co_await flush_reissues(t);
              (void)co_await ep->wait_events_for(t, am::kEventArrivals,
                                                 500 * sim::us);
              co_await ep->poll(t, 64);
            }

            if (spec.failover && pending() > 0) {
              // Requests that are neither acked nor returned at the
              // deadline were (probably) delivered but their replies died
              // with the primary — the inherent ambiguity of §3.2. Re-issue
              // them all to the replica; the service must be idempotent.
              for (int i = 0; i < n; ++i) {
                if (status[static_cast<std::size_t>(i)] != kPending) {
                  continue;
                }
                co_await ep->request(t, 1, 1,
                                     static_cast<std::uint64_t>(i));
                ++sh.reissued;
                ++sh.issued;
              }
              deadline = t.engine().now() + spec.client_deadline;
              while (pending() > 0 && t.engine().now() < deadline) {
                co_await flush_reissues(t);
                (void)co_await ep->wait_events_for(t, am::kEventArrivals,
                                                   500 * sim::us);
                co_await ep->poll(t, 64);
              }
            }

            sh.unfinished += pending();
            ++sh.clients_done;
            while (!sh.stop) {
              (void)co_await ep->wait_events_for(t, am::kEventArrivals,
                                                 1 * sim::ms);
              co_await ep->poll(t, 64);
            }
            while (co_await ep->poll(t, 64) > 0) {
            }
            parked.push_back(std::move(ep));
          });
    }

    // --- controller: node 0, gates shutdown on ledger quiescence ---
    cluster.spawn_thread(
        0, "controller", [this](host::HostThread& t) -> sim::Task<> {
          while (sh.clients_done < spec.clients) {
            co_await t.sleep(1 * sim::ms);
          }
          const sim::Time grace_end = t.engine().now() + spec.resolve_grace;
          while (!ledger.fully_resolved() && t.engine().now() < grace_end) {
            co_await t.sleep(500 * sim::us);
          }
          sh.stop = true;
        });
  }

  ScenarioResult finish(const FaultPlan& run_plan) {
    campaign = std::make_unique<Campaign>(cluster, run_plan);
    campaign->start();
    cluster.run_to_completion();
    const sim::Time done_at = cluster.now();
    // Drain trailing transport events (retransmit / unreachable timers are
    // all bounded, so the queues empty) so every message reaches a
    // terminal state before the ledger is judged.
    cluster.drain();

    ScenarioResult res;
    res.name = spec.name;
    res.seed = spec.seed;
    res.counts = ledger.counts();
    res.violations = ledger.violations();

    // Liveness: no endpoint may end the campaign with a wedged send queue
    // (every descriptor must complete or be returned-and-swept). Credits
    // and undrained receive entries are judged by the ledger instead: a
    // dead server legitimately strands client credits.
    for (const auto& ep : parked) {
      if (!ep->state().send_queue().empty()) {
        res.violations.push_back(
            "wedged send queue: node " + std::to_string(ep->state().node) +
            " ep " + std::to_string(ep->state().id) + " holds " +
            std::to_string(ep->state().send_queue().size()) + " descriptors");
      }
    }

    res.requests_issued = sh.issued;
    res.replies_received = sh.replies;
    res.returns_seen = sh.returns;
    res.reissued = sh.reissued;
    res.unfinished = sh.unfinished;

    const obs::Snapshot snap = cluster.merged_snapshot();
    res.retransmissions = snap.sum_counters("host.", ".nic.retransmissions");
    res.timeouts = snap.sum_counters("host.", ".nic.timeouts");
    res.channel_unbinds = snap.sum_counters("host.", ".nic.channel_unbinds");
    res.duplicates_suppressed =
        snap.sum_counters("host.", ".nic.duplicates_suppressed");
    res.returned_to_sender =
        snap.sum_counters("host.", ".nic.returned_to_sender");
    res.dropped_down = snap.sum_counters("fabric.link.", ".drops_down");
    res.dropped_fault = snap.sum_counters("fabric.link.", ".drops_fault");

    res.last_fault_at = campaign->last_action_time();
    res.resolved_at = ledger.last_terminal_time();
    res.recovery_time = std::max<sim::Duration>(
        0, ledger.last_terminal_time() - campaign->last_action_time());
    res.total_time = done_at;  // the timeline always starts at t = 0
    res.campaign_log = campaign->log();
    res.link_stats = obs::render_table(snap, "fabric.link");
    res.watchdog_events = watchdog->events();
    res.watchdog_summary = watchdog->render_summary();
    res.replay_digest = cluster.replay_digest();
    res.events_processed = cluster.events_processed();
    return res;
  }

  ScenarioSpec spec;
  cluster::ClusterConfig cfg;
  cluster::Cluster cluster;
  DeliveryLedger ledger;
  ProbeGuard probe_guard;
  sim::Rng plan_rng;
  FaultPlan plan;
  std::unique_ptr<Campaign> campaign;
  SharedState sh;
  std::vector<std::unique_ptr<am::Endpoint>> parked;
  obs::WatchdogConfig wcfg;
  std::unique_ptr<obs::Watchdog> watchdog;
};

ScenarioRun::ScenarioRun(const ScenarioSpec& spec)
    : impl_(std::make_unique<Impl>(spec)) {}

ScenarioRun::~ScenarioRun() = default;

const FaultPlan& ScenarioRun::default_plan() const { return impl_->plan; }

sim::Time ScenarioRun::checkpoint_for(const FaultPlan& plan) const {
  sim::Time first = 0;
  bool any = false;
  for (const FaultAction& a : plan.actions()) {
    if (!any || a.at < first) first = a.at;
    any = true;
  }
  if (!any || first == 0) return 0;
  return first - 1;
}

void ScenarioRun::warm(sim::Time t) {
  if (t > 0) impl_->cluster.run_until(t);
}

ScenarioResult ScenarioRun::finish(const FaultPlan& plan) {
  return impl_->finish(plan);
}

sim::Engine& ScenarioRun::engine() { return impl_->cluster.engine(); }

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioRun run(spec);
  return run.finish();
}

// ------------------------------------------------- standard scenarios

std::vector<std::string> standard_scenario_names() {
  return {"link_flap", "burst_loss",  "nic_reboot",
          "host_failover", "trunk_flap", "chaos"};
}

ScenarioSpec standard_scenario(const std::string& name, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = name;
  s.seed = seed;

  if (name == "link_flap") {
    // The server's cable bounces twice mid-run; stop-and-wait channels
    // must retransmit through it with no application help.
    s.requests_per_client = 30;
    s.plan = [](cluster::Cluster&, sim::Rng&) {
      return FaultPlan{}
          .host_flap(2 * sim::ms, 1, 1500 * sim::us)
          .host_flap(6 * sim::ms, 1, 1 * sim::ms);
    };
    return s;
  }

  if (name == "burst_loss") {
    // Correlated Gilbert–Elliott losses over most of the run: the backoff
    // and duplicate-suppression machinery under sustained stress.
    s.requests_per_client = 40;
    s.plan = [](cluster::Cluster&, sim::Rng&) {
      myrinet::GilbertElliottParams ge;
      ge.enabled = true;
      ge.p_good_to_bad = 0.01;
      ge.p_bad_to_good = 0.08;
      ge.loss_bad = 0.8;
      return FaultPlan{}.burst_episode(500 * sim::us, 12 * sim::ms, ge);
    };
    return s;
  }

  if (name == "nic_reboot") {
    // NIC SRAM state (channels, epochs) is lost mid-bulk-transfer on both
    // a receiver and a sender; host-resident endpoint state must carry the
    // reassembly and dedup windows across, and epochs must resync.
    s.requests_per_client = 8;
    s.bulk_bytes = 16384;
    s.plan = [](cluster::Cluster&, sim::Rng&) {
      return FaultPlan{}
          .nic_reboot(1200 * sim::us, 1)   // server NIC (receiver side)
          .nic_reboot(2500 * sim::us, 1)   // and again, for stale epochs
          .nic_reboot(4 * sim::ms, 3);     // a client NIC (sender side)
    };
    return s;
  }

  if (name == "host_failover") {
    // The fault_tolerance example as a checked scenario: primary dies for
    // good; every request must come back undeliverable (or have been
    // answered) and the client re-issues to the replica.
    s.requests_per_client = 20;
    s.failover = true;
    s.plan = [](cluster::Cluster&, sim::Rng&) {
      return FaultPlan{}.host_link(2 * sim::ms, 1, false);
    };
    return s;
  }

  if (name == "trunk_flap") {
    // Fat-tree: one leaf<->spine trunk fails; multi-path logical channels
    // must unbind off the dead route and fail over to the other spine.
    s.fat_tree = true;
    s.requests_per_client = 30;
    s.tweak = [](cluster::ClusterConfig& cfg) {
      // Unbind well before the unreachable timeout so route failover (not
      // return-to-sender) is what resolves the messages.
      cfg.nic.retransmit_unbind_limit = 3;
      cfg.nic.max_backoff_exponent = 2;
    };
    s.plan = [](cluster::Cluster&, sim::Rng&) {
      return FaultPlan{}.trunk_flap(1500 * sim::us, 0, 0, 4 * sim::ms);
    };
    return s;
  }

  if (name == "chaos") {
    // Randomized self-healing timeline drawn from the engine-seeded Rng.
    s.requests_per_client = 30;
    s.client_deadline = 80 * sim::ms;
    s.plan = [](cluster::Cluster& cl, sim::Rng& rng) {
      ChaosOptions opt;
      opt.first_node = 1;  // never fault the controller's node
      opt.nodes = cl.size();
      opt.events = 8;
      opt.end = 20 * sim::ms;
      return FaultPlan::chaos_mode(rng, opt);
    };
    return s;
  }

  throw std::invalid_argument("unknown scenario: " + name);
}

// ------------------------------------------------- report formatting

std::string result_table_header() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-14s %5s %5s %5s %5s %4s %6s %6s %7s %6s %6s %9s",
                "scenario", "seed", "sent", "dlvd", "retd", "dup", "rexmt",
                "unbnd", "dropped", "viol", "stall", "recover");
  return buf;
}

std::string result_table_row(const ScenarioResult& r) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%-14s %5llu %5llu %5llu %5llu %4llu %6llu %6llu %7llu %6zu %6zu "
      "%7.2fms",
      r.name.c_str(), static_cast<unsigned long long>(r.seed),
      static_cast<unsigned long long>(r.counts.injected),
      static_cast<unsigned long long>(r.counts.delivered),
      static_cast<unsigned long long>(r.counts.returned),
      static_cast<unsigned long long>(r.counts.duplicate_deliveries),
      static_cast<unsigned long long>(r.retransmissions),
      static_cast<unsigned long long>(r.channel_unbinds),
      static_cast<unsigned long long>(r.dropped_down + r.dropped_fault),
      r.violations.size(), r.watchdog_events.size(),
      sim::to_msec(r.recovery_time));
  return buf;
}

// ------------------------------------------------- verdict round-trip

bool verdict_ok(const ScenarioResult& r) {
  return r.violations.empty() && r.counts.duplicate_deliveries == 0 &&
         r.counts.unresolved == 0 && r.counts.orphan_events == 0;
}

json::Value verdict_json(const ScenarioResult& r) {
  json::Value v;
  v["name"] = json::Value(r.name);
  v["seed"] = json::Value(r.seed);
  v["ok"] = json::Value(verdict_ok(r));

  json::Value counts;
  counts["injected"] = json::Value(r.counts.injected);
  counts["delivered"] = json::Value(r.counts.delivered);
  counts["returned"] = json::Value(r.counts.returned);
  counts["duplicate_deliveries"] = json::Value(r.counts.duplicate_deliveries);
  counts["delivered_and_returned"] =
      json::Value(r.counts.delivered_and_returned);
  counts["unresolved"] = json::Value(r.counts.unresolved);
  counts["orphan_events"] = json::Value(r.counts.orphan_events);
  v["counts"] = std::move(counts);

  json::Value viol{json::Value::Array{}};
  for (const std::string& s : r.violations) viol.push_back(json::Value(s));
  v["violations"] = std::move(viol);

  json::Value app;
  app["requests_issued"] = json::Value(r.requests_issued);
  app["replies_received"] = json::Value(r.replies_received);
  app["returns_seen"] = json::Value(r.returns_seen);
  app["reissued"] = json::Value(r.reissued);
  app["unfinished"] = json::Value(r.unfinished);
  v["app"] = std::move(app);

  json::Value tp;
  tp["retransmissions"] = json::Value(r.retransmissions);
  tp["timeouts"] = json::Value(r.timeouts);
  tp["channel_unbinds"] = json::Value(r.channel_unbinds);
  tp["duplicates_suppressed"] = json::Value(r.duplicates_suppressed);
  tp["returned_to_sender"] = json::Value(r.returned_to_sender);
  tp["dropped_down"] = json::Value(r.dropped_down);
  tp["dropped_fault"] = json::Value(r.dropped_fault);
  v["transport"] = std::move(tp);

  v["last_fault_at_ns"] = json::Value(static_cast<std::int64_t>(r.last_fault_at));
  v["resolved_at_ns"] = json::Value(static_cast<std::int64_t>(r.resolved_at));
  v["recovery_ns"] = json::Value(static_cast<std::int64_t>(r.recovery_time));
  v["total_ns"] = json::Value(static_cast<std::int64_t>(r.total_time));

  json::Value log{json::Value::Array{}};
  for (const std::string& s : r.campaign_log) log.push_back(json::Value(s));
  v["campaign_log"] = std::move(log);
  v["link_stats"] = json::Value(r.link_stats);

  json::Value stalls{json::Value::Array{}};
  for (const obs::WatchdogEvent& ev : r.watchdog_events) {
    json::Value e;
    e["at_ns"] = json::Value(ev.at_ns);
    e["rule"] = json::Value(ev.rule);
    e["subject"] = json::Value(ev.subject);
    e["detail"] = json::Value(ev.detail);
    stalls.push_back(std::move(e));
  }
  v["stalls"] = std::move(stalls);
  v["watchdog_summary"] = json::Value(r.watchdog_summary);

  v["replay_digest"] = json::hex_u64(r.replay_digest);
  v["events_processed"] = json::Value(r.events_processed);
  return v;
}

ScenarioResult verdict_from_json(const json::Value& v) {
  ScenarioResult r;
  r.name = v["name"].as_string();
  r.seed = static_cast<std::uint64_t>(v["seed"].as_int());

  const json::Value& c = v["counts"];
  r.counts.injected = static_cast<std::uint64_t>(c["injected"].as_int());
  r.counts.delivered = static_cast<std::uint64_t>(c["delivered"].as_int());
  r.counts.returned = static_cast<std::uint64_t>(c["returned"].as_int());
  r.counts.duplicate_deliveries =
      static_cast<std::uint64_t>(c["duplicate_deliveries"].as_int());
  r.counts.delivered_and_returned =
      static_cast<std::uint64_t>(c["delivered_and_returned"].as_int());
  r.counts.unresolved = static_cast<std::uint64_t>(c["unresolved"].as_int());
  r.counts.orphan_events =
      static_cast<std::uint64_t>(c["orphan_events"].as_int());

  for (const json::Value& s : v["violations"].as_array()) {
    r.violations.push_back(s.as_string());
  }

  const json::Value& app = v["app"];
  r.requests_issued =
      static_cast<std::uint64_t>(app["requests_issued"].as_int());
  r.replies_received =
      static_cast<std::uint64_t>(app["replies_received"].as_int());
  r.returns_seen = static_cast<std::uint64_t>(app["returns_seen"].as_int());
  r.reissued = static_cast<std::uint64_t>(app["reissued"].as_int());
  r.unfinished = static_cast<std::uint64_t>(app["unfinished"].as_int());

  const json::Value& tp = v["transport"];
  r.retransmissions =
      static_cast<std::uint64_t>(tp["retransmissions"].as_int());
  r.timeouts = static_cast<std::uint64_t>(tp["timeouts"].as_int());
  r.channel_unbinds =
      static_cast<std::uint64_t>(tp["channel_unbinds"].as_int());
  r.duplicates_suppressed =
      static_cast<std::uint64_t>(tp["duplicates_suppressed"].as_int());
  r.returned_to_sender =
      static_cast<std::uint64_t>(tp["returned_to_sender"].as_int());
  r.dropped_down = static_cast<std::uint64_t>(tp["dropped_down"].as_int());
  r.dropped_fault = static_cast<std::uint64_t>(tp["dropped_fault"].as_int());

  r.last_fault_at = static_cast<sim::Time>(v["last_fault_at_ns"].as_int());
  r.resolved_at = static_cast<sim::Time>(v["resolved_at_ns"].as_int());
  r.recovery_time = static_cast<sim::Duration>(v["recovery_ns"].as_int());
  r.total_time = static_cast<sim::Duration>(v["total_ns"].as_int());

  for (const json::Value& s : v["campaign_log"].as_array()) {
    r.campaign_log.push_back(s.as_string());
  }
  r.link_stats = v["link_stats"].as_string();

  for (const json::Value& e : v["stalls"].as_array()) {
    obs::WatchdogEvent ev;
    ev.at_ns = e["at_ns"].as_int();
    ev.rule = e["rule"].as_string();
    ev.subject = e["subject"].as_string();
    ev.detail = e["detail"].as_string();
    r.watchdog_events.push_back(std::move(ev));
  }
  r.watchdog_summary = v["watchdog_summary"].as_string();

  r.replay_digest = json::parse_hex_u64(v["replay_digest"]);
  r.events_processed =
      static_cast<std::uint64_t>(v["events_processed"].as_int());
  return r;
}

}  // namespace vnet::chaos
