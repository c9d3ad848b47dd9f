#include "obs/calibration.h"

#include "obs/json.h"

namespace domino::obs {

std::string calibration_to_csv(const std::vector<CalibrationRow>& rows) {
  std::string out = "owner,target,samples,covered,coverage,mean_margin_ns,max_overshoot_ns\n";
  for (const CalibrationRow& r : rows) {
    appendf(out, "%s,%s,%llu,%llu,%.6f,%lld,%lld\n", r.owner.to_string().c_str(),
            r.target.to_string().c_str(), static_cast<unsigned long long>(r.samples),
            static_cast<unsigned long long>(r.covered), r.coverage(),
            static_cast<long long>(r.mean_margin_ns),
            static_cast<long long>(r.max_overshoot_ns));
  }
  return out;
}

}  // namespace domino::obs
