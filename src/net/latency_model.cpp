#include "net/latency_model.h"

namespace domino::net {

Duration JitterLatency::sample(TimePoint, Rng& rng) {
  Duration jitter = milliseconds_d(rng.lognormal(p_.jitter_mu_ms, p_.jitter_sigma));
  if (p_.spike_prob > 0 && rng.chance(p_.spike_prob)) {
    jitter += Duration{static_cast<std::int64_t>(
        rng.exponential(static_cast<double>(p_.spike_mean.nanos())))};
  }
  return base_ + jitter;
}

}  // namespace domino::net
