// Figure 3: LogP performance characterization of virtual-network Active
// Messages (AM) vs the first-generation single-endpoint interface (GAM).
//
// Paper (PPoPP'99 §6.1): virtualization raises the round-trip time by 23%
// and the gap by 2.21x while total per-packet overhead (o_s + o_r) stays
// the same; defensive checks contribute ~1.1us to L and g.
//
// The attribution section re-runs the AM ping-pongs (no streaming phase)
// with the span recorder tracking every message and prints the per-stage
// decomposition of the one-way latency; the end-to-end mean must reconcile
// with the measured RTT — each round trip is two one-way flights (request +
// reply) — within a few percent.

#include <cmath>
#include <cstdio>

#include "apps/logp.hpp"
#include "cluster/config.hpp"

int main() {
  using namespace vnet;
  std::printf("Figure 3: LogP parameters (16-byte messages, 2 nodes)\n");
  std::printf("%-6s %8s %8s %8s %8s %10s\n", "iface", "o_s(us)", "o_r(us)",
              "L(us)", "g(us)", "RTT(us)");

  const apps::LogpResult gam = apps::measure_logp(cluster::GamConfig(2));
  std::printf("%-6s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "GAM", gam.os_us,
              gam.or_us, gam.l_us, gam.g_us, gam.rtt_us);

  const apps::LogpResult am = apps::measure_logp(cluster::NowConfig(2));
  std::printf("%-6s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "AM", am.os_us,
              am.or_us, am.l_us, am.g_us, am.rtt_us);

  std::printf("\nratios (AM/GAM):  RTT %.2fx (paper: 1.23x)   gap %.2fx "
              "(paper: 2.21x)\n",
              am.rtt_us / gam.rtt_us, am.g_us / gam.g_us);
  std::printf("total overhead o_s+o_r:  GAM %.2fus  AM %.2fus (paper: equal)\n",
              gam.os_us + gam.or_us, am.os_us + am.or_us);

  // Ablation: defensive checks / error checking (~1.1us on L and g).
  auto cfg = cluster::NowConfig(2);
  cfg.nic.defensive_checks = false;
  const apps::LogpResult nodef = apps::measure_logp(cfg);
  std::printf("defensive checks off:  L %.2fus (-%.2f)   g %.2fus (-%.2f) "
              "(paper: ~1.1us each)\n",
              nodef.l_us, am.l_us - nodef.l_us, nodef.g_us,
              am.g_us - nodef.g_us);

  // --- per-stage LogP attribution (pure ping-pong, every flight tracked) ---
  const apps::LogpResult attr = apps::measure_logp(
      cluster::NowConfig(2), /*pingpongs=*/300, /*stream=*/0,
      /*attribute=*/true);
  std::printf("\nAM one-way latency attribution (300 ping-pongs, "
              "span stages of obs/span.hpp):\n%s",
              attr.stage_report.c_str());
  const double two_way = 2.0 * attr.stage_e2e_us;
  const double delta_pct =
      attr.rtt_us > 0 ? 100.0 * (two_way - attr.rtt_us) / attr.rtt_us : 0.0;
  std::printf("2 x e2e mean %.2fus vs measured RTT %.2fus (delta %+.2f%%)\n",
              two_way, attr.rtt_us, delta_pct);
  if (std::fabs(delta_pct) > 5.0) {
    std::printf("ATTRIBUTION MISMATCH: stage decomposition does not "
                "reconcile with the measured round trip\n");
    return 1;
  }

  // --- differential tail profile of the same ping-pongs (obs/span.hpp) ---
  std::printf("\n%s", attr.tail_report.c_str());
  if (attr.tail_recon_p50 > 0.05 || attr.tail_recon_tail > 0.05) {
    std::printf("TAIL RECONCILIATION MISMATCH: cohort critical-path sums "
                "diverge from cohort e2e means (p50 %.1f%%, tail %.1f%%)\n",
                100.0 * attr.tail_recon_p50, 100.0 * attr.tail_recon_tail);
    return 1;
  }
  return 0;
}
