// Result checks for the benchmark (README.md, "Correctness oracle").
//
// Each client is the only writer of its stripe, so its insert/erase
// results and its contains() answers on its own stripe are exact.  Keys
// written by the other client are checked by the weakest rule that is
// always true: a predecessor answer is the stable predecessor or a
// volatile key between it and the query.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "inputs.h"

namespace wallbench {

class Oracle {
 public:
  Oracle(const Inputs& in, int client)
      : volatile_(&in.volatile_keys),
        stripe_(&in.clients[client].stripe),
        present_(in.clients[client].stripe.size(), 1) {}

  // expect: stable predecessor of q plus one (0 = none).
  bool pred_ok(uint64_t q, uint64_t expect,
               const std::optional<uint64_t>& r) const {
    if (!r.has_value()) return expect == 0;
    if (expect != 0 && *r == expect - 1) return true;
    return *r >= expect && *r <= q &&
           std::binary_search(volatile_->begin(), volatile_->end(), *r);
  }

  bool contains_ok(const Call& c, bool r) const {
    switch (c.role) {
      case Role::kStable: return r;
      case Role::kAbsent: return !r;
      case Role::kOwn: return r == (present_[c.expect] != 0);
      case Role::kOther: return true;
    }
    return false;
  }

  // The stripe key behind an update call, and whether it is present now
  // (so the update is an erase) or absent (an insert).
  uint64_t stripe_key(uint64_t slot) const { return (*stripe_)[slot]; }
  bool present(uint64_t slot) const { return present_[slot] != 0; }
  // Either way the caller's update must succeed and flips the key.
  void toggle(uint64_t slot) { present_[slot] ^= 1; }

  // Present stripe keys, sorted (end-of-run content check).
  std::vector<uint64_t> present_keys() const {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < present_.size(); ++i) {
      if (present_[i] != 0) out.push_back((*stripe_)[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  const std::vector<uint64_t>* volatile_;
  const std::vector<uint64_t>* stripe_;
  std::vector<uint8_t> present_;
};

}  // namespace wallbench
