// Fig. 2b: SNM degradation of a 6T-SRAM cell after 7 years as a function
// of the percentage of time the cell stores zero. Regenerated from the
// calibrated SNM model (anchors: 10.82% at 50%, 26.12% at 0%/100%).
#include <iostream>

#include "aging/device_model.hpp"
#include "bench_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  benchutil::print_heading("Fig. 2b: SNM degradation after 7 years (32nm-class model)");
  const aging::CalibratedNbtiDeviceModel model;
  const auto snm = [&model](double duty, double years) {
    return model.degradation(duty, years, {});
  };
  util::Table table({"time storing zero [%]", "duty-cycle", "SNM degradation [%]"});
  for (int zero_pct = 0; zero_pct <= 100; zero_pct += 10) {
    const double duty = 1.0 - zero_pct / 100.0;
    table.add_row({util::Table::num(static_cast<std::uint64_t>(zero_pct)),
                   util::Table::num(duty, 2),
                   util::Table::num(snm(duty, 7.0), 2)});
  }
  std::cout << table.to_string();
  std::cout << "\nMinimum at 50% (both PMOS equally stressed); maxima at the\n"
               "extremes — matching the paper's Fig. 2b shape and anchors.\n";

  benchutil::print_heading("SNM degradation over time at selected duty-cycles");
  util::Table over_time({"years", "duty 0.5", "duty 0.7", "duty 1.0"});
  for (double years : {1.0, 3.0, 5.0, 7.0, 10.0}) {
    over_time.add_row({util::Table::num(years, 0),
                       util::Table::num(snm(0.5, years), 2),
                       util::Table::num(snm(0.7, years), 2),
                       util::Table::num(snm(1.0, years), 2)});
  }
  std::cout << over_time.to_string();

  benchutil::print_heading(
      "Extension: combined NBTI+PBTI cell model (paper footnote 1)");
  const aging::DualBtiDeviceModel dual;
  util::Table dual_table({"duty", "NBTI only [%]", "NBTI+PBTI [%]"});
  for (int step = 0; step <= 10; ++step) {
    const double duty = 0.1 * step;
    dual_table.add_row({util::Table::num(duty, 1),
                        util::Table::num(snm(duty, 7.0), 2),
                        util::Table::num(dual.degradation(duty, 7.0, {}), 2)});
  }
  std::cout << dual_table.to_string();
  std::cout << "\nPBTI stresses the complementary NMOS, raising the floor at\n"
               "balanced duty but narrowing the worst/best contrast — duty\n"
               "balancing still minimises degradation.\n";
  return 0;
}
