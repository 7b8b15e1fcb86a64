// Log-linear latency histogram: exact below 128 ns, then 128 sub-buckets
// per power of two (relative bucket width <= 1/128).  Quantiles
// interpolate by rank inside the bucket, so they vary continuously
// between runs instead of snapping to bucket edges.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace wallbench {

class Histogram {
 public:
  void add(uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }

  void merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  uint64_t count() const { return n_; }

  // q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) > rank) {
        const double frac =
            (rank - static_cast<double>(seen) + 0.5) / counts_[i];
        return lower(i) + frac * static_cast<double>(upper(i) - lower(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(upper(kBuckets - 1));
  }

 private:
  static constexpr uint32_t kSubBits = 7;
  static constexpr uint64_t kSub = 1ull << kSubBits;
  static constexpr uint32_t kMaxExp = 40;  // ~18 minutes in ns
  static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits + 1) * kSub;

  static size_t index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const uint32_t e = std::min<uint32_t>(63 - std::countl_zero(v), kMaxExp);
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return kSub + (e - kSubBits) * kSub + std::min<uint64_t>(sub, kSub - 1);
  }
  static uint64_t lower(size_t i) {
    if (i < kSub) return i;
    const uint64_t e = (i - kSub) / kSub + kSubBits;
    const uint64_t sub = (i - kSub) % kSub;
    return (1ull << e) + (sub << (e - kSubBits));
  }
  static uint64_t upper(size_t i) {
    if (i < kSub) return i + 1;
    const uint64_t e = (i - kSub) / kSub + kSubBits;
    return lower(i) + (1ull << (e - kSubBits));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t n_ = 0;
};

}  // namespace wallbench
