#include "sim/device_table.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace kato::sim {

DeviceEval resolve_device_eval(DeviceEval requested) {
  return requested == DeviceEval::automatic ? DeviceEval::table : requested;
}

namespace {
// Grid bounds in overdrive volts.  [-4, +4] covers every reachable bias of
// the shipped PDKs (|vov| <= vdd + vth with margin); outside, the exact
// analytic tail takes over, so the bounds trade memory against how often
// the cold branch runs, not against accuracy.
constexpr double k_vov_lo = -4.0;
constexpr double k_vov_hi = 4.0;
// Knot spacing as a fraction of nvt = n kT/q: the cubic-Hermite relative
// error scales as (h / 2 nvt)^4 / 384, so nvt/8 gives ~1e-8 on veff and
// keeps ids/gm/gds within 1e-4 of analytic after the worst-case
// triode/saturation boundary amplification (see device_table_test).
constexpr double k_step_per_nvt = 1.0 / 8.0;
}  // namespace

DeviceTable::DeviceTable(double subthreshold_n, double temp)
    : n_(subthreshold_n), temp_(temp) {
  if (!(subthreshold_n > 0.0) || !(temp > 0.0))
    throw std::invalid_argument(
        "DeviceTable: subthreshold_n and temp must be > 0");
  const double nvt = subthreshold_n * thermal_voltage(temp);
  nvt2_ = 2.0 * nvt;
  lo_ = k_vov_lo;
  hi_ = k_vov_hi;
  const auto cells = static_cast<std::size_t>(
      std::ceil((hi_ - lo_) / (nvt * k_step_per_nvt)));
  step_ = (hi_ - lo_) / static_cast<double>(cells);
  inv_step_ = 1.0 / step_;
  cells_d_ = static_cast<double>(cells);
  // Knot data (values + step-scaled slopes), then each cell's two Hermite
  // cubics expanded to power basis so the lookup is pure Horner.  For knot
  // pair (y0, y1) with scaled slopes (s0, s1) the coefficients are
  //   a0 = y0, a1 = s0, a2 = 3(y1-y0) - 2 s0 - s1, a3 = 2(y0-y1) + s0 + s1;
  // a0 is the raw knot value, so evaluation at u = 0 reproduces the knot
  // exactly (the same interpolant as the basis form, re-rounded once).
  std::vector<double> kn(4 * (cells + 1));
  for (std::size_t i = 0; i <= cells; ++i) {
    const double vov = lo_ + step_ * static_cast<double>(i);
    const double x = vov / nvt2_;
    const double lg = mos_logistic(x);
    double* k = &kn[4 * i];
    k[0] = nvt2_ * mos_softplus(x);  // veff
    k[1] = lg * step_;               // veff' = logistic, pre-scaled by h
    k[2] = lg;                       // dveff (= logistic)
    k[3] = lg * (1.0 - lg) / nvt2_ * step_;  // logistic', pre-scaled by h
  }
  k_.resize(8 * cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const double* k0 = &kn[4 * i];
    const double* k1 = &kn[4 * (i + 1)];
    double* cf = &k_[8 * i];
    for (int q = 0; q < 2; ++q) {
      const double y0 = k0[2 * q];
      const double s0 = k0[2 * q + 1];
      const double y1 = k1[2 * q];
      const double s1 = k1[2 * q + 1];
      cf[4 * q + 0] = y0;
      cf[4 * q + 1] = s0;
      cf[4 * q + 2] = 3.0 * (y1 - y0) - 2.0 * s0 - s1;
      cf[4 * q + 3] = 2.0 * (y0 - y1) + s0 + s1;
    }
  }
}

void DeviceTable::tail_at(double vov, double& veff, double& dveff) const {
  const double x = vov / nvt2_;
  veff = nvt2_ * mos_softplus(x);
  dveff = mos_logistic(x);
}

namespace {
std::mutex g_table_mutex;
std::map<std::pair<double, double>, std::shared_ptr<const DeviceTable>>&
table_cache() {
  static std::map<std::pair<double, double>,
                  std::shared_ptr<const DeviceTable>>
      cache;
  return cache;
}
}  // namespace

std::shared_ptr<const DeviceTable> device_table_for(double subthreshold_n,
                                                    double temp, bool* hit) {
  std::lock_guard<std::mutex> lock(g_table_mutex);
  auto& slot = table_cache()[{subthreshold_n, temp}];
  if (hit != nullptr) *hit = slot != nullptr;
  if (!slot) slot = std::make_shared<const DeviceTable>(subthreshold_n, temp);
  return slot;
}

std::size_t device_table_cache_size() {
  std::lock_guard<std::mutex> lock(g_table_mutex);
  return table_cache().size();
}

}  // namespace kato::sim
