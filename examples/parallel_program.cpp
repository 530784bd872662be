// A dedicated parallel program (the paper's classic use case): an 8-rank
// SPMD Jacobi-style iteration using the mini parallel runtime layered on
// Active Messages — ghost exchanges, a global residual allreduce, and a
// barrier per step, like the Split-C / MPI programs of §6.2.
//
// Also demonstrates the observability layer: the run captures every
// message's span and samples the metric registry every 5 simulated
// milliseconds, exports both as a Chrome trace (open
// parallel_program.trace.json in Perfetto or chrome://tracing), and
// finishes with a metric-registry table dump.

#include <cstdio>
#include <fstream>

#include "apps/parallel.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

using namespace vnet;

int main() {
  constexpr int kRanks = 8;
  constexpr int kIters = 10;
  cluster::Cluster cl(cluster::NowConfig(kRanks));
  cl.engine().spans().set_sample_interval(1);
  constexpr sim::Duration kSamplePeriod = 5 * sim::ms;
  obs::Sampler sampler(cl.engine().metrics(),
                       {kSamplePeriod, {"fabric.link.", "host."}});
  sampler.sample(cl.engine().now());  // baseline window
  cl.engine().every(kSamplePeriod, [&] {
    sampler.sample(cl.engine().now());
    return !cl.all_threads_done();
  });

  apps::launch_spmd(cl, kRanks, [](apps::Par& par) -> sim::Task<> {
    const int r = par.rank();
    const int n = par.size();
    double residual = 1.0;
    for (int it = 0; it < kIters && residual > 1e-3; ++it) {
      // Local relaxation sweep: ~4 ms of FLOPs on this rank's panel.
      co_await par.compute(4 * sim::ms);
      // Ghost-cell exchange with both neighbours (64 KB faces).
      co_await par.exchange((r + 1) % n, 64 * 1024);
      co_await par.exchange((r + n - 1) % n, 64 * 1024);
      // Global residual: everyone contributes, everyone gets the sum.
      const double my_residual = 1.0 / (it + 1) / n;
      residual = co_await par.allreduce_sum(my_residual);
      co_await par.barrier();
      if (r == 0) {
        std::printf("iter %2d  residual %.5f  t=%s\n", it, residual,
                    sim::format_time(par.thread().engine().now()).c_str());
      }
    }
    if (r == 0) {
      std::printf("rank 0: comm time %s of total %s\n",
                  sim::format_time(par.comm_time()).c_str(),
                  sim::format_time(par.thread().engine().now()).c_str());
    }
  });

  cl.run_to_completion();
  std::printf("done at %s (%llu events)\n",
              sim::format_time(cl.engine().now()).c_str(),
              static_cast<unsigned long long>(cl.engine().events_processed()));

  const obs::Snapshot snap = cl.engine().snapshot();
  std::printf("\ncluster totals: %llu packets injected-to-wire, "
              "%llu retransmissions, %llu messages handled\n",
              static_cast<unsigned long long>(
                  snap.sum_counters("fabric.link.", ".packets_tx")),
              static_cast<unsigned long long>(
                  snap.sum_counters("host.", ".nic.retransmissions")),
              static_cast<unsigned long long>(
                  snap.sum_counters("host.", ".messages_handled")));
  std::printf("\n%s\n", obs::render_table(snap, "fabric.link").c_str());
  const std::vector<obs::SpanTrace> traces = cl.engine().spans().collect();
  std::ofstream("parallel_program.trace.json")
      << obs::chrome_trace_json(traces, &sampler);
  std::printf("trace: parallel_program.trace.json (%zu messages, %zu "
              "sampler windows)\n",
              traces.size(), sampler.rows());
  return 0;
}
