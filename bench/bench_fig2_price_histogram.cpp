// Figure 2 — spot price histograms of m1.medium in us-east-1a over four
// consecutive days. The paper's point: the day-to-day distributions are
// close to each other, so the recent history predicts the near future's
// DISTRIBUTION even though the exact price path is unpredictable.
#include "bench_util.h"
#include "trace/market.h"

using namespace sompi;

int main() {
  bench::banner("Figure 2", "spot price histograms, 4 consecutive days (m1.medium@us-east-1a)");

  const Catalog catalog = paper_catalog();
  const Market market =
      generate_market(catalog, paper_market_profile(catalog), /*days=*/4.0, 0.25, 2014);
  const CircleGroupSpec g{catalog.type_index("m1.medium"), catalog.zone_index("us-east-1a")};
  const SpotTrace& trace = market.trace(g);

  const std::size_t steps_per_day = static_cast<std::size_t>(24.0 / trace.step_hours());
  const double base = base_spot_price(catalog.type(g.type_index));
  // Bins span the calm band up to 4× base; the spike tail lands in the last
  // bin (as in the paper's histogram, where the rare spikes are off-scale).
  const double hi = 4.0 * base;

  std::vector<Histogram> days;
  for (int d = 0; d < 4; ++d) {
    Histogram h(0.0, hi, 12);
    for (std::size_t i = 0; i < steps_per_day; ++i)
      h.add(trace.price(static_cast<std::size_t>(d) * steps_per_day + i));
    days.push_back(h);
  }

  Table t("Per-day price densities (% of steps per bin)");
  {
    std::vector<std::string> header{"bin (USD/h)"};
    for (int d = 0; d < 4; ++d) header.push_back("day " + std::to_string(d + 1));
    t.header(header);
  }
  for (std::size_t b = 0; b < days[0].bins(); ++b) {
    std::vector<std::string> row{std::string("[").append(Table::num(days[0].bin_lo(b), 4)) +
                                 "," + Table::num(days[0].bin_hi(b), 4) + ")"};
    for (const auto& h : days) row.push_back(Table::num(100.0 * h.density(b), 1));
    t.row(row);
  }
  std::printf("%s\n", t.render().c_str());

  Table d("Pairwise L1 distance between day distributions (0 = identical, 2 = disjoint)");
  d.header({"pair", "L1"});
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b)
      d.row({"day" + std::to_string(a + 1) + " vs day" + std::to_string(b + 1),
             Table::num(Histogram::l1_distance(days[static_cast<std::size_t>(a)],
                                               days[static_cast<std::size_t>(b)]),
                        3)});
  std::printf("%s\n", d.render().c_str());
  bench::note("expected shape: distributions concentrated at the calm level and very close "
              "across days (small L1) — the stability SOMPI's estimation relies on (§2.1).");
  return 0;
}
