// Closed-loop runner: two client threads, each issuing its next call only
// after the previous one returned, against any set with the SkipTrie's
// single-key API (the SkipTrie itself, the in-repo baselines, and the
// fault-injecting wrapper of the self-test).
//
// One round = construct + prefill (timed: setup), one untimed pass over the
// warm-up stream, then the measured window, then quiescent validation.
// With Mode::kTraced (SkipTrie only) every call also takes StepCounters
// deltas and a core span, and a sample of reads replays its layers as
// child spans; see README.md "Reading the trace".
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "core/skiptrie.h"
#include "core/validate.h"
#include "histogram.h"
#include "inputs.h"
#include "oracle.h"

namespace wallbench {

using skiptrie::SkipTrie;
using skiptrie::StepCounters;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Call kinds as the metrics see them: an update is an insert or an erase
// depending on the client's model.
enum Kind { kPred, kContains, kBatch, kInsert, kErase, kKinds };

enum class Mode { kWarmup, kTimed, kTraced };

// Span names: a core span is named by its call's Kind, the replayed
// children follow.
enum SpanName : uint8_t {
  kSpanGuard = kKinds,  // reclaim: EbrDomain::Guard pin .. unpin
  kSpanPredStart,  // xfast: trie().pred_start
  kSpanDescend,    // skiplist: engine().descend
};

inline const char* span_name(uint8_t n) {
  static const char* const names[] = {
      "core.predecessor", "core.contains",    "core.predecessor_batch",
      "core.insert",      "core.erase",       "reclaim.guard",
      "xfast.pred_start", "skiplist.descend"};
  return names[n];
}

struct Span {
  uint64_t start;   // ns, steady clock
  uint64_t end;
  uint64_t id;      // unique per run
  uint64_t parent;  // 0 = root
  uint64_t key;     // shared by a core call and its replayed children
  uint8_t name;
  uint8_t client;
};

// Every call is traced; one in kReplayEvery also keeps its core span and,
// for single-key reads, replays its layers.  Span storage is bounded.
constexpr uint64_t kReplayEvery = 16;
constexpr size_t kMaxSpansPerClient = 1u << 16;

struct TraceData {
  StepCounters steps[kKinds];
  // Single-key calls whose counters show an x-fast binary search, and the
  // counters of just those calls.
  uint64_t single_calls = 0;
  uint64_t xfast_calls = 0;
  uint64_t xfast_binsearch = 0;
  uint64_t xfast_walk_fallbacks = 0;
  Histogram guard_self;  // guard span minus its children: pin + unpin
  Histogram pred_start;
  Histogram descend;
  Histogram residual;    // core span minus the replayed guard span
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
};

struct ClientResult {
  uint64_t ops = 0;       // keys completed in the measured window
  uint64_t checked = 0;   // results checked, every pass
  uint64_t failed = 0;    // results the oracle rejected
  uint64_t calls[kKinds] = {};
  Histogram lat[kKinds];  // ns per call
  uint64_t end = 0;       // steady-clock ns of the last completed call
  std::unique_ptr<TraceData> trace;
};

struct RoundResult {
  double setup_s = 0;
  double measured_s = 0;
  uint64_t start = 0;  // steady-clock ns the measured window opened
  ClientResult clients[kClients];
  std::vector<std::string> problems;  // end-of-run validation
  uint64_t live_keys = 0;
  int64_t rss_growth = 0;  // peak RSS at round end minus RSS before setup

  uint64_t ops() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.ops;
    return n;
  }
  double mops() const { return ops() / measured_s / 1e6; }
};

// VmRSS / VmHWM of this process in bytes (0 when unavailable).
inline int64_t proc_status_bytes(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  const size_t len = std::char_traits<char>::length(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::char_traits<char>::compare(line, field, len) == 0) {
      kb = std::atoll(line + len + 1);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

// Drops every 1000th insert while reporting success: the self-test's
// injected fault, which the oracle must catch.
class DroppingSet {
 public:
  bool insert(uint64_t k) {
    if (n_.fetch_add(1, std::memory_order_relaxed) % 1000 == 999) return true;
    return t_.insert(k);
  }
  bool erase(uint64_t k) { return t_.erase(k); }
  bool contains(uint64_t k) const { return t_.contains(k); }
  std::optional<uint64_t> predecessor(uint64_t k) const {
    return t_.predecessor(k);
  }
  size_t predecessor_batch(const uint64_t* k, size_t n,
                           std::optional<uint64_t>* r) const {
    return t_.predecessor_batch(k, n, r);
  }
  const SkipTrie& inner() const { return t_; }

 private:
  SkipTrie t_;
  std::atomic<uint64_t> n_{0};
};

template <typename Set>
void predecessor_batch(const Set& s, const uint64_t* k, size_t n,
                       std::optional<uint64_t>* r) {
  if constexpr (requires { s.predecessor_batch(k, n, r); }) {
    s.predecessor_batch(k, n, r);
  } else {
    for (size_t i = 0; i < n; ++i) r[i] = s.predecessor(k[i]);
  }
}

// Quiescent checks at the end of a round: the structure's own validator
// and an exact content match against stable keys plus each client's model.
inline void check_content(const SkipTrie& t, const Inputs& in,
                          const Oracle* oracles,
                          std::vector<std::string>& problems) {
  for (std::string& v : skiptrie::validate_structure(t)) {
    problems.push_back("validate_structure: " + std::move(v));
  }
  std::vector<uint64_t> want = in.stable;
  for (int c = 0; c < kClients; ++c) {
    const auto own = oracles[c].present_keys();
    want.insert(want.end(), own.begin(), own.end());
  }
  std::sort(want.begin(), want.end());
  std::vector<uint64_t> got;
  got.reserve(want.size());
  t.for_each_in_range(0, t.max_key(), [&](uint64_t k) { got.push_back(k); });
  if (got != want) {
    problems.push_back("content: " + std::to_string(got.size()) +
                       " keys present, " + std::to_string(want.size()) +
                       " expected" +
                       (got.size() == want.size() ? ", not the same keys" : ""));
  }
}

template <typename Set>
void check_set(const Set& s, const Inputs& in, const Oracle* oracles,
               std::vector<std::string>& problems) {
  if constexpr (std::is_same_v<Set, SkipTrie>) {
    check_content(s, in, oracles, problems);
  } else if constexpr (std::is_same_v<Set, DroppingSet>) {
    check_content(s.inner(), in, oracles, problems);
  } else {
    size_t want = in.stable.size();
    for (int c = 0; c < kClients; ++c) {
      want += oracles[c].present_keys().size();
    }
    if (s.size() != want) problems.push_back("size mismatch");
  }
}

template <typename Set>
class Client {
 public:
  Client(Set& s, const Inputs& in, int id, ClientResult& out)
      : s_(s), in_(in), id_(id), out_(out), oracle_(in, id) {}

  const Oracle& oracle() const { return oracle_; }

  void prefill() {
    for (const uint64_t k : in_.clients[id_].prefill) {
      ++out_.checked;
      if (!s_.insert(k)) ++out_.failed;
    }
  }

  void warmup() {
    const Stream& st = in_.clients[id_].warmup;
    for (const Call& c : st.calls) step<Mode::kWarmup>(st, c);
  }

  // Runs the phases back to back; phase p ends at phase_end[p].
  template <Mode M>
  void measure(const std::vector<uint64_t>& phase_end) {
    const auto& phases = in_.clients[id_].phases;
    for (size_t p = 0; p < phases.size(); ++p) {
      const Stream& st = phases[p];
      size_t i = 0;
      for (;;) {
        const uint64_t t1 = step<M>(st, st.calls[i]);
        if (++i == st.calls.size()) i = 0;
        if (t1 >= phase_end[p]) {
          out_.end = t1;
          break;
        }
      }
    }
  }

 private:
  // Issues one call, checks it, and returns the steady-clock time it
  // completed.
  template <Mode M>
  uint64_t step(const Stream& st, const Call& c) {
    StepCounters before;
    if constexpr (M == Mode::kTraced) before = skiptrie::tls_counters();
    Kind kind = kPred;
    uint64_t t0 = 0, t1 = 0, keys = 1, bad = 0, key = c.key;
    switch (c.op) {
      case Op::kPred: {
        t0 = now_ns();
        const std::optional<uint64_t> r = s_.predecessor(c.key);
        t1 = now_ns();
        bad = !oracle_.pred_ok(c.key, c.expect, r);
        break;
      }
      case Op::kContains: {
        kind = kContains;
        t0 = now_ns();
        const bool r = s_.contains(c.key);
        t1 = now_ns();
        bad = !oracle_.contains_ok(c, r);
        break;
      }
      case Op::kBatch: {
        kind = kBatch;
        keys = kBatchKeys;
        const uint64_t* k = &st.batch_keys[c.key];
        key = k[0];
        t0 = now_ns();
        predecessor_batch(s_, k, kBatchKeys, batch_out_);
        t1 = now_ns();
        for (size_t j = 0; j < kBatchKeys; ++j) {
          bad += !oracle_.pred_ok(k[j], st.batch_expect[c.key + j],
                                  batch_out_[j]);
        }
        break;
      }
      case Op::kUpdate: {
        key = oracle_.stripe_key(c.key);
        const bool erase = oracle_.present(c.key);
        kind = erase ? kErase : kInsert;
        t0 = now_ns();
        const bool r = erase ? s_.erase(key) : s_.insert(key);
        t1 = now_ns();
        bad = !r;
        oracle_.toggle(c.key);
        break;
      }
    }
    out_.checked += keys;
    out_.failed += bad;
    if constexpr (M != Mode::kWarmup) {
      out_.ops += keys;
      ++out_.calls[kind];
      out_.lat[kind].add(t1 - t0);
    }
    if constexpr (M == Mode::kTraced) {
      trace(kind, key, before, t0, t1);
    }
    return t1;
  }

  void trace(Kind kind, uint64_t key, const StepCounters& before,
             uint64_t t0, uint64_t t1) {
    static_assert(std::is_same_v<Set, SkipTrie>, "only the SkipTrie is traced");
    TraceData& td = *out_.trace;
    const StepCounters d = skiptrie::tls_counters() - before;
    td.steps[kind] += d;
    if (kind != kBatch) {
      ++td.single_calls;
      if (d.probes_binsearch != 0) {
        ++td.xfast_calls;
        td.xfast_binsearch += d.probes_binsearch;
        td.xfast_walk_fallbacks += d.walk_fallbacks;
      }
    }
    if (++traced_ % kReplayEvery != 0) return;
    const uint64_t id = next_id();
    record({t0, t1, id, 0, key, static_cast<uint8_t>(kind), 0});
    if (kind != kPred && kind != kContains) return;

    // Replay the read's layers under one guard, as children of the call.
    const uint64_t g0 = now_ns();
    uint64_t p0, p1, d1;
    {
      skiptrie::EbrDomain::Guard g(s_.ebr());
      p0 = now_ns();
      auto* start = s_.trie().pred_start(key, key + 1);
      p1 = now_ns();
      s_.engine().descend(key + 1, start);
      d1 = now_ns();
    }
    const uint64_t g1 = now_ns();
    td.guard_self.add((g1 - g0) - (d1 - p0));
    td.pred_start.add(p1 - p0);
    td.descend.add(d1 - p1);
    const uint64_t core = t1 - t0, guard = g1 - g0;
    td.residual.add(core > guard ? core - guard : 0);
    const uint64_t gid = next_id();
    record({g0, g1, gid, id, key, kSpanGuard, 0});
    record({p0, p1, next_id(), gid, key, kSpanPredStart, 0});
    record({p1, d1, next_id(), gid, key, kSpanDescend, 0});
  }

  uint64_t next_id() {
    return (static_cast<uint64_t>(id_ + 1) << 48) | ++span_seq_;
  }

  void record(Span s) {
    TraceData& td = *out_.trace;
    if (td.spans.size() >= kMaxSpansPerClient) {
      ++td.spans_dropped;
      return;
    }
    s.client = static_cast<uint8_t>(id_);
    td.spans.push_back(s);
  }

  Set& s_;
  const Inputs& in_;
  const int id_;
  ClientResult& out_;
  Oracle oracle_;
  std::optional<uint64_t> batch_out_[kBatchKeys];
  uint64_t traced_ = 0;
  uint64_t span_seq_ = 0;
};

// One round on a fresh structure made by make().  window_s is the length of
// the measured window, split evenly over the workload's phases.
template <typename Set, Mode M, typename Make>
RoundResult run_round(const Inputs& in, double window_s, Make make) {
  RoundResult rr;
  const size_t phases = in.clients[0].phases.size();
  std::vector<uint64_t> phase_end(phases);
  uint64_t stamps[2] = {0, 0};
  int barrier_pass = 0;
  // The completion step runs once per barrier phase before any thread is
  // released: it stamps the end of set-up, then the measured window.
  auto stamp = [&]() noexcept {
    const uint64_t t = now_ns();
    if (barrier_pass < 2) stamps[barrier_pass] = t;
    if (barrier_pass == 1) {
      for (size_t p = 0; p < phases; ++p) {
        phase_end[p] = t + static_cast<uint64_t>(window_s * 1e9 * (p + 1) /
                                                 phases);
      }
    }
    ++barrier_pass;
  };
  // Only the clients take part: the main thread just joins them, so it
  // does not spin on a CPU the clients need.
  std::barrier sync(kClients, stamp);

  const int64_t rss_before = proc_status_bytes("VmRSS:");
  const uint64_t t0 = now_ns();
  std::unique_ptr<Set> set = make();
  std::vector<std::unique_ptr<Client<Set>>> clients;
  for (int c = 0; c < kClients; ++c) {
    if constexpr (M == Mode::kTraced) {
      rr.clients[c].trace = std::make_unique<TraceData>();
      rr.clients[c].trace->spans.reserve(kMaxSpansPerClient);
    }
    clients.push_back(std::make_unique<Client<Set>>(*set, in, c, rr.clients[c]));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client<Set>& cl = *clients[c];
      cl.prefill();
      sync.arrive_and_wait();  // set-up done
      cl.warmup();
      sync.arrive_and_wait();  // measured window opens
      cl.template measure<M>(phase_end);
    });
  }
  for (auto& t : threads) t.join();

  rr.setup_s = (stamps[0] - t0) / 1e9;
  rr.start = stamps[1];
  uint64_t end = stamps[1];
  for (const auto& c : rr.clients) end = std::max(end, c.end);
  rr.measured_s = (end - stamps[1]) / 1e9;
  rr.rss_growth = proc_status_bytes("VmHWM:") - rss_before;

  std::vector<Oracle> oracles;
  for (const auto& c : clients) oracles.push_back(c->oracle());
  check_set(*set, in, oracles.data(), rr.problems);
  rr.live_keys = in.stable.size();
  for (const Oracle& o : oracles) rr.live_keys += o.present_keys().size();
  return rr;
}

}  // namespace wallbench
