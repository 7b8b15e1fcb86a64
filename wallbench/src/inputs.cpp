#include "inputs.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace wallbench {
namespace {

// Shape of one workload.  Mixes are per mille of calls; a batch call of
// kBatchKeys keys counts as one call.
struct Spec {
  uint64_t universe;     // keys are drawn from [0, universe)
  size_t keys;           // prefilled keys (stable + both stripes)
  size_t stripe;         // keys each client alone erases and reinserts
  uint32_t pred, contains, batch, update;  // per mille; sum 1000
  size_t calls;          // per client per phase
  size_t warmup_calls;   // per client, run once before measuring
  int phases;            // the measured window splits into this many
  size_t hot;            // keys per hot set (0 = no hot set)
  uint32_t hot_permille; // share of reads aimed at the phase's hot set
  bool member_contains;  // half the contains queries pick a prefilled key
  int rounds;            // fresh structures per timed run
};

// Why each workload exists is in README.md.  Every workload issues every
// call type, so each reports every end-to-end metric; the small shares
// (updates on uniform_1m, batches on the others) stay small enough not to
// change what the workload stresses.
Spec spec_of(const std::string& w, bool small) {
  if (w == "uniform_1m") {
    Spec s{.universe = 1ull << 32, .keys = 1u << 20, .stripe = 1u << 12,
           .pred = 445, .contains = 445, .batch = 100, .update = 10,
           .calls = 1u << 18, .warmup_calls = 1u << 14, .phases = 1,
           .hot = 0, .hot_permille = 0, .member_contains = true, .rounds = 3};
    if (small) {
      s.keys = 1u << 14;
      s.stripe = 1u << 8;
      s.calls = 1u << 12;
      s.warmup_calls = 1u << 10;
      s.rounds = 1;
    }
    return s;
  }
  if (w == "hot_64k") {
    Spec s{.universe = 1ull << 32, .keys = 1u << 16, .stripe = 1u << 11,
           .pred = 473, .contains = 473, .batch = 4, .update = 50,
           .calls = 1u << 17, .warmup_calls = 1u << 17, .phases = 4,
           .hot = 256, .hot_permille = 900, .member_contains = false,
           .rounds = 10};
    if (small) {
      s.keys = 1u << 12;
      s.stripe = 1u << 7;
      s.calls = 1u << 12;
      s.warmup_calls = 1u << 12;
      s.hot = 32;
      s.rounds = 1;
    }
    return s;
  }
  if (w == "churn_reuse") {
    Spec s{.universe = 1u << 20, .keys = 1u << 17, .stripe = 1u << 15,
           .pred = 248, .contains = 248, .batch = 4, .update = 500,
           .calls = 1u << 17, .warmup_calls = 1u << 14, .phases = 1,
           .hot = 0, .hot_permille = 0, .member_contains = false,
           .rounds = 10};
    if (small) {
      s.universe = 1u << 14;
      s.keys = 1u << 11;
      s.stripe = 1u << 9;
      s.calls = 1u << 12;
      s.warmup_calls = 1u << 10;
      s.rounds = 1;
    }
    return s;
  }
  throw std::invalid_argument("unknown workload: " + w);
}

uint64_t name_hash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char ch : s) {
    h ^= static_cast<uint8_t>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

void shuffle(std::vector<uint64_t>& v, Rng& r) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.below(i)]);
}

// n distinct keys from [0, universe), in random order.
std::vector<uint64_t> distinct_keys(Rng& r, uint64_t universe, size_t n) {
  std::vector<uint64_t> k;
  k.reserve(n);
  while (k.size() < n) {
    while (k.size() < n) k.push_back(r.below(universe));
    std::sort(k.begin(), k.end());
    k.erase(std::unique(k.begin(), k.end()), k.end());
  }
  shuffle(k, r);
  return k;
}

struct Owner {
  int client;
  uint32_t slot;
};

class Generator {
 public:
  Generator(const Spec& s, const Inputs& in,
            const std::unordered_map<uint64_t, Owner>& owners,
            const std::vector<uint64_t>& members,
            const std::vector<std::vector<uint64_t>>& hot_sets)
      : s_(s), in_(in), owners_(owners), members_(members),
        hot_sets_(hot_sets) {}

  Stream stream(Rng& r, int client, size_t calls, size_t hot_set) const {
    Stream st;
    st.calls.reserve(calls);
    for (size_t i = 0; i < calls; ++i) {
      const uint32_t u = static_cast<uint32_t>(r.below(1000));
      Call c{};
      if (u < s_.pred) {
        c.op = Op::kPred;
        c.key = draw(r, false, hot_set);
        c.expect = stable_pred(c.key);
      } else if (u < s_.pred + s_.contains) {
        c.op = Op::kContains;
        c.key = draw(r, true, hot_set);
        c.role = role_of(c.key, client, &c.expect);
      } else if (u < s_.pred + s_.contains + s_.batch) {
        c.op = Op::kBatch;
        c.key = st.batch_keys.size();
        for (size_t j = 0; j < kBatchKeys; ++j) {
          const uint64_t q = draw(r, false, hot_set);
          st.batch_keys.push_back(q);
          st.batch_expect.push_back(stable_pred(q));
        }
      } else {
        c.op = Op::kUpdate;
        c.key = r.below(s_.stripe);
      }
      st.calls.push_back(c);
    }
    return st;
  }

 private:
  uint64_t draw(Rng& r, bool contains, size_t hot_set) const {
    if (s_.hot != 0) {
      const auto& hot = hot_sets_[hot_set];
      if (r.below(1000) < s_.hot_permille) return hot[r.below(hot.size())];
      return members_[r.below(members_.size())];
    }
    if (contains && s_.member_contains && (r.next() & 1) != 0) {
      return members_[r.below(members_.size())];
    }
    return r.below(s_.universe);
  }

  uint64_t stable_pred(uint64_t q) const {
    auto it = std::upper_bound(in_.stable.begin(), in_.stable.end(), q);
    return it == in_.stable.begin() ? 0 : *(it - 1) + 1;
  }

  Role role_of(uint64_t q, int client, uint64_t* slot) const {
    if (std::binary_search(in_.stable.begin(), in_.stable.end(), q)) {
      return Role::kStable;
    }
    auto it = owners_.find(q);
    if (it == owners_.end()) return Role::kAbsent;
    if (it->second.client != client) return Role::kOther;
    *slot = it->second.slot;
    return Role::kOwn;
  }

  const Spec& s_;
  const Inputs& in_;
  const std::unordered_map<uint64_t, Owner>& owners_;
  const std::vector<uint64_t>& members_;
  const std::vector<std::vector<uint64_t>>& hot_sets_;
};

template <typename T>
void put(std::vector<uint8_t>& out, T v) {
  uint8_t b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  out.insert(out.end(), b, b + sizeof(T));
}

void put_keys(std::vector<uint8_t>& out, const std::vector<uint64_t>& v) {
  put<uint64_t>(out, v.size());
  for (const uint64_t k : v) put(out, k);
}

void put_stream(std::vector<uint8_t>& out, const Stream& st) {
  put<uint64_t>(out, st.calls.size());
  for (const Call& c : st.calls) {
    put(out, c.key);
    put(out, c.expect);
    put(out, static_cast<uint8_t>(c.op));
    put(out, static_cast<uint8_t>(c.role));
  }
  put_keys(out, st.batch_keys);
  put_keys(out, st.batch_expect);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"uniform_1m", "hot_64k",
                                                 "churn_reuse"};
  return names;
}

bool known_workload(const std::string& name) {
  const auto& n = workload_names();
  return std::find(n.begin(), n.end(), name) != n.end();
}

Inputs make_inputs(const std::string& workload, uint64_t seed, bool small) {
  const Spec s = spec_of(workload, small);
  Inputs in;
  in.rounds = s.rounds;
  Rng master(seed ^ name_hash(workload));

  // Random insertion order; the first 2 * stripe keys are the stripes, the
  // hot sets (warm-up set first, then one per phase) come next.
  std::vector<uint64_t> all = distinct_keys(master, s.universe, s.keys);
  std::unordered_map<uint64_t, Owner> owners;
  for (int c = 0; c < kClients; ++c) {
    auto& stripe = in.clients[c].stripe;
    stripe.assign(all.begin() + c * s.stripe, all.begin() + (c + 1) * s.stripe);
    for (size_t i = 0; i < stripe.size(); ++i) {
      owners.emplace(stripe[i], Owner{c, static_cast<uint32_t>(i)});
    }
  }
  in.volatile_keys.assign(all.begin(), all.begin() + kClients * s.stripe);
  std::sort(in.volatile_keys.begin(), in.volatile_keys.end());
  in.stable.assign(all.begin() + kClients * s.stripe, all.end());
  std::sort(in.stable.begin(), in.stable.end());

  std::vector<std::vector<uint64_t>> hot_sets;
  if (s.hot != 0) {
    auto it = all.begin() + kClients * s.stripe;
    for (int p = 0; p <= s.phases; ++p, it += s.hot) {
      hot_sets.emplace_back(it, it + s.hot);
    }
  }
  for (size_t i = 0; i < all.size(); ++i) {
    in.clients[i % kClients].prefill.push_back(all[i]);
  }

  // Each client's streams come from its own sub-seed, so generating them
  // in parallel cannot change a byte.
  uint64_t client_seed[kClients];
  for (uint64_t& cs : client_seed) cs = master.next();
  const Generator gen(s, in, owners, all, hot_sets);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng r(client_seed[c]);
      ClientInputs& ci = in.clients[c];
      ci.warmup = gen.stream(r, c, s.warmup_calls, 0);
      for (int p = 0; p < s.phases; ++p) {
        ci.phases.push_back(gen.stream(r, c, s.calls, p + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  return in;
}

std::vector<uint8_t> serialize(const Inputs& in) {
  std::vector<uint8_t> out;
  put_keys(out, in.stable);
  put_keys(out, in.volatile_keys);
  for (const ClientInputs& ci : in.clients) {
    put_keys(out, ci.stripe);
    put_keys(out, ci.prefill);
    put_stream(out, ci.warmup);
    for (const Stream& st : ci.phases) put_stream(out, st);
  }
  return out;
}

}  // namespace wallbench
