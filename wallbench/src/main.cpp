// wallbench: wall-clock benchmark of the SkipTrie (see README.md).
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--trace-out FILE]
//   wallbench --self-test
//
// --trace 0 times the end-to-end metrics over several fresh structures;
// --trace 1 runs the same inputs alternately untraced and traced, then
// through the in-repo baselines, and prints the per-layer metrics.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baseline/locked_map.h"
#include "baseline/lockfree_skiplist.h"
#include "inputs.h"
#include "runner.h"

using namespace wallbench;

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  // A round whose end-of-run validation fails counts every result it
  // checked as failed.
  void add(const RoundResult& rr, const char* label) {
    uint64_t checked = 0, failed_here = 0;
    for (const auto& c : rr.clients) {
      checked += c.checked;
      failed_here += c.failed;
    }
    for (const std::string& p : rr.problems) {
      std::printf("%s: %s\n", label, p.c_str());
    }
    if (!rr.problems.empty()) failed_here = checked;
    attempted += checked;
    failed += failed_here;
    if (failed_here != 0) correct = false;
  }
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Histogram merged(const std::vector<RoundResult>& rounds, Kind k) {
  Histogram h;
  for (const auto& rr : rounds) {
    for (const auto& c : rr.clients) h.merge(c.lat[k]);
  }
  return h;
}

std::unique_ptr<SkipTrie> make_skiptrie() {
  return std::make_unique<SkipTrie>();
}

// --trace 0: in.rounds fresh structures share the measured time; set-up
// and throughput are medians over rounds, latencies pool every call.
Outcome timed_run(const Inputs& in, double seconds) {
  Outcome out;
  std::vector<RoundResult> rounds;
  for (int r = 0; r < in.rounds; ++r) {
    rounds.push_back(run_round<SkipTrie, Mode::kTimed>(
        in, seconds / in.rounds, make_skiptrie));
    const RoundResult& rr = rounds.back();
    std::printf("round %d: setup %.3f s, %.4f Mops over %.3f s, %llu live keys\n",
                r, rr.setup_s, rr.mops(), rr.measured_s,
                static_cast<unsigned long long>(rr.live_keys));
    out.add(rr, "validation");
  }
  std::vector<double> setup, mops;
  for (const auto& rr : rounds) {
    setup.push_back(rr.setup_s);
    mops.push_back(rr.mops());
  }
  // Throughput and the tails are printed but not gated: at this commit the
  // stale-guide defect (ROADMAP item 0) makes them swing by more than any
  // usable bound between runs (README.md, "Not gated").
  std::printf("throughput: %.6g Mops (median of %d rounds)\n", median(mops),
              in.rounds);
  auto& m = out.metrics;
  const struct {
    const char* name;
    std::vector<Kind> kinds;
  } lat[] = {{"pred", {kPred}},
             {"contains", {kContains}},
             {"update", {kInsert, kErase}},
             {"batch", {kBatch}}};
  for (const auto& l : lat) {
    Histogram h;
    for (Kind k : l.kinds) h.merge(merged(rounds, k));
    // A percentile is printed only with at least ten samples beyond it.
    std::printf("%s latency: %llu samples, p99 %.6g ns", l.name,
                static_cast<unsigned long long>(h.count()), h.quantile(0.99));
    if (h.count() >= 10000) std::printf(", p99.9 %.6g ns", h.quantile(0.999));
    std::printf("\n");
    m.push_back({std::string(l.name) + "_p50_ns", h.quantile(0.50), "ns"});
  }
  m.push_back({"setup_s", median(setup), "s"});
  // Peak RSS only grows, so the first round is the one that measures it.
  m.push_back({"mem_bytes_per_key",
               ratio(rounds[0].rss_growth, rounds[0].live_keys), "B/key"});
  return out;
}

double std_set_pred_ns(const Inputs& in) {
  std::set<uint64_t> s(in.stable.begin(), in.stable.end());
  s.insert(in.volatile_keys.begin(), in.volatile_keys.end());
  std::vector<uint64_t> queries;
  for (const ClientInputs& ci : in.clients) {
    for (const Stream& st : ci.phases) {
      for (const Call& c : st.calls) {
        if (c.op == Op::kPred) queries.push_back(c.key);
      }
    }
  }
  std::vector<double> ns;
  uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = now_ns();
    for (const uint64_t q : queries) {
      auto it = s.upper_bound(q);
      if (it != s.begin()) sink += *--it;
    }
    ns.push_back(static_cast<double>(now_ns() - t0) / queries.size());
  }
  std::printf("std::set predecessor: %zu queries x 5 (checksum %llu)\n",
              queries.size(), static_cast<unsigned long long>(sink));
  return median(ns);
}

template <typename Set>
double baseline_mops(const Inputs& in, double seconds, const char* label) {
  const RoundResult rr = run_round<Set, Mode::kTimed>(
      in, seconds, [] { return std::make_unique<Set>(); });
  uint64_t failed = 0;
  for (const auto& c : rr.clients) failed += c.failed;
  std::printf("%s: %.4f Mops, %llu oracle failures%s\n", label, rr.mops(),
              static_cast<unsigned long long>(failed),
              rr.problems.empty() ? "" : ", end-of-run check FAILED");
  return rr.mops();
}

void write_trace(const std::string& path, const RoundResult& rr) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write trace file %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  uint64_t dropped = 0;
  for (const auto& c : rr.clients) {
    dropped += c.trace->spans_dropped;
    for (const Span& s : c.trace->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"key\":%llu}}",
                   first ? "" : ",", span_name(s.name), s.client,
                   (s.start - rr.start) / 1e3, (s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.key));
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_dropped\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  std::fclose(f);
  std::printf("trace written to %s\n", path.c_str());
}

// Keys per second over all the rounds, in millions.
double pooled_mops(const std::vector<RoundResult>& rounds) {
  double ops = 0, s = 0;
  for (const auto& rr : rounds) {
    ops += rr.ops();
    s += rr.measured_s;
  }
  return ops / s / 1e6;
}

// --trace 1: untraced and traced rounds alternate, a quarter of the
// measured time each, so host drift and whatever the first round of a
// process pays fall on both sides of core.trace_overhead_frac.  The
// baselines then run the same streams for a quarter of it each.
Outcome traced_run(const Inputs& in, double seconds,
                   const std::string& trace_out) {
  Outcome out;
  std::vector<RoundResult> plain, traced;
  for (int i = 0; i < 2; ++i) {
    plain.push_back(
        run_round<SkipTrie, Mode::kTimed>(in, seconds / 4, make_skiptrie));
    out.add(plain.back(), "validation (untraced)");
    traced.push_back(
        run_round<SkipTrie, Mode::kTraced>(in, seconds / 4, make_skiptrie));
    out.add(traced.back(), "validation (traced)");
    std::printf("round pair %d: untraced %.4f Mops, traced %.4f Mops\n", i,
                plain.back().mops(), traced.back().mops());
  }
  const double plain_mops = pooled_mops(plain);
  const double traced_mops = pooled_mops(traced);
  std::printf("untraced %.4f Mops, traced %.4f Mops\n", plain_mops,
              traced_mops);
  if (!trace_out.empty()) write_trace(trace_out, traced[0]);

  StepCounters s;
  TraceData t;
  Histogram lat[kKinds];
  uint64_t calls[kKinds] = {};
  uint64_t ops = 0;
  for (const RoundResult& tr : traced) {
    ops += tr.ops();
    for (const auto& c : tr.clients) {
      const TraceData& d = *c.trace;
      for (int k = 0; k < kKinds; ++k) {
        s += d.steps[k];
        lat[k].merge(c.lat[k]);
        calls[k] += c.calls[k];
      }
      t.single_calls += d.single_calls;
      t.xfast_calls += d.xfast_calls;
      t.xfast_binsearch += d.xfast_binsearch;
      t.xfast_walk_fallbacks += d.xfast_walk_fallbacks;
      t.guard_self.merge(d.guard_self);
      t.pred_start.merge(d.pred_start);
      t.descend.merge(d.descend);
      t.residual.merge(d.residual);
    }
  }
  const double updates = static_cast<double>(calls[kInsert] + calls[kErase]);
  std::printf("traced: %llu ops, %.0f updates, %llu replayed reads\n",
              static_cast<unsigned long long>(ops), updates,
              static_cast<unsigned long long>(t.descend.count()));

  auto& m = out.metrics;
  m.push_back({"core.throughput_mops", plain_mops, "Mops"});
  m.push_back({"core.pred_ns", lat[kPred].quantile(0.5), "ns"});
  m.push_back({"core.contains_ns", lat[kContains].quantile(0.5), "ns"});
  m.push_back({"core.insert_ns", lat[kInsert].quantile(0.5), "ns"});
  m.push_back({"core.erase_ns", lat[kErase].quantile(0.5), "ns"});
  m.push_back({"core.batch_key_ns", lat[kBatch].quantile(0.5) / kBatchKeys,
               "ns"});
  Histogram updates_lat = lat[kInsert];
  updates_lat.merge(lat[kErase]);
  m.push_back({"core.pred_p99_ns", lat[kPred].quantile(0.99), "ns"});
  m.push_back({"core.contains_p99_ns", lat[kContains].quantile(0.99), "ns"});
  m.push_back({"core.update_p99_ns", updates_lat.quantile(0.99), "ns"});
  m.push_back({"core.batch_p99_ns", lat[kBatch].quantile(0.99), "ns"});
  m.push_back({"core.residual_ns", t.residual.quantile(0.5), "ns"});
  m.push_back({"core.trace_overhead_frac",
               1.0 - ratio(traced_mops, plain_mops), "frac"});
  m.push_back({"reclaim.pin_ns", t.guard_self.quantile(0.5), "ns"});
  m.push_back({"reclaim.retired_per_update",
               ratio(s.retired_nodes, updates), "1/update"});
  m.push_back({"dcss.attempts_per_update", ratio(s.dcss_attempts, updates),
               "1/update"});
  m.push_back({"dcss.guard_fail_ratio",
               ratio(s.dcss_guard_fails, s.dcss_attempts), "ratio"});
  m.push_back({"dcss.helps_per_update", ratio(s.dcss_helps, updates),
               "1/update"});
  m.push_back({"hash.probes_per_op", ratio(s.hash_probes, ops), "1/op"});
  m.push_back({"hash.chain_per_lookup",
               ratio(s.probes_chain, s.probes_lookup), "1/lookup"});
  m.push_back({"hash.updates_per_update", ratio(s.hash_updates, updates),
               "1/update"});
  m.push_back({"xfast.pred_start_ns", t.pred_start.quantile(0.5), "ns"});
  m.push_back({"xfast.calls_per_op", ratio(t.xfast_calls, t.single_calls),
               "1/op"});
  m.push_back({"xfast.binsearch_per_call",
               ratio(t.xfast_binsearch, t.xfast_calls), "1/call"});
  m.push_back({"xfast.prev_steps_per_op", ratio(s.prev_steps, ops), "1/op"});
  m.push_back({"xfast.walk_fallback_ratio",
               ratio(t.xfast_walk_fallbacks, t.xfast_calls), "ratio"});
  m.push_back({"xfast.level_ops_per_update", ratio(s.trie_level_ops, updates),
               "1/update"});
  m.push_back({"skiplist.descend_ns", t.descend.quantile(0.5), "ns"});
  m.push_back({"skiplist.hops_top_per_op", ratio(s.hops_top, ops), "1/op"});
  m.push_back({"skiplist.hops_descent_per_op", ratio(s.hops_descent, ops),
               "1/op"});
  m.push_back({"skiplist.back_steps_per_op", ratio(s.back_steps, ops),
               "1/op"});
  m.push_back({"skiplist.restarts_per_op", ratio(s.restarts, ops), "1/op"});
  m.push_back({"skiplist.cas_fail_ratio",
               ratio(s.cas_failures, s.cas_attempts), "ratio"});
  m.push_back({"skiplist.bytes_touched_per_op", ratio(s.bytes_touched, ops),
               "B/op"});
  m.push_back({"skiplist.finger_hit_ratio",
               ratio(s.finger_hits, s.finger_hits + s.finger_misses),
               "ratio"});
  m.push_back({"skiplist.finger_saved_levels_per_hit",
               ratio(s.hops_finger_saved, s.finger_hits), "1/hit"});
  m.push_back({"skiplist.leaf_scans_per_op", ratio(s.chunk_scans, ops),
               "1/op"});
  m.push_back({"skiplist.leaf_splits_merges_per_update",
               ratio(s.chunk_splits + s.chunk_merges, updates), "1/update"});
  m.push_back({"skiplist.promotions", static_cast<double>(s.promotions),
               "count"});
  m.push_back({"skiplist.demotions", static_cast<double>(s.demotions),
               "count"});
  m.push_back({"skiplist.cursor_reuse_ratio",
               ratio(s.cursor_reuses, s.cursor_reuses + s.cursor_redescends),
               "ratio"});

  m.push_back({"baseline.std_set_pred_ns", std_set_pred_ns(in), "ns"});
  m.push_back({"baseline.locked_map_mops",
               baseline_mops<skiptrie::LockedMap>(in, seconds / 4,
                                                  "LockedMap"),
               "Mops"});
  m.push_back({"baseline.skiplist_mops",
               baseline_mops<skiptrie::LockFreeSkipList>(in, seconds / 4,
                                                         "LockFreeSkipList"),
               "Mops"});
  return out;
}

void print_result(const Outcome& o) {
  for (const Metric& m : o.metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_frac %.6g (%llu of %llu results)\n",
              ratio(o.failed, o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

bool expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok;
}

int self_test() {
  bool ok = true;
  for (const std::string& w : workload_names()) {
    const auto a = serialize(make_inputs(w, 11, false));
    const auto b = serialize(make_inputs(w, 11, false));
    const auto c = serialize(make_inputs(w, 12, false));
    ok &= expect(a == b, w + ": same seed gives byte-identical inputs (" +
                             std::to_string(a.size()) + " bytes)");
    ok &= expect(a != c, w + ": another seed gives other inputs");
  }
  const Inputs in = make_inputs("churn_reuse", 11, true);
  const RoundResult good =
      run_round<SkipTrie, Mode::kTimed>(in, 0.5, make_skiptrie);
  Outcome og;
  og.add(good, "unexpected");
  ok &= expect(og.correct && og.failed == 0,
               "SkipTrie passes the oracle and the end-of-run check");
  const RoundResult bad = run_round<DroppingSet, Mode::kTimed>(
      in, 0.5, [] { return std::make_unique<DroppingSet>(); });
  uint64_t failed = 0;
  for (const auto& c : bad.clients) failed += c.failed;
  ok &= expect(failed > 0, "dropping every 1000th insert fails " +
                               std::to_string(failed) + " results");
  Outcome ob;
  ob.add(bad, "expected");
  ok &= expect(!ob.correct && !bad.problems.empty(),
               "dropping every 1000th insert fails the run");
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small] [--trace-out FILE]\n"
               "       wallbench --self-test\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (a == "--small") {
      small = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      usage();
    }
  }
  for (const char* k : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(k) == 0) usage();
  }
  const std::string workload = args["workload"];
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  const bool seed_ok = *end == '\0';
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  const bool seconds_ok = *end == '\0' && seconds > 0 && seconds <= 600;
  const std::string trace = args["trace"];
  if (!known_workload(workload) || !seed_ok || !seconds_ok ||
      (trace != "0" && trace != "1")) {
    usage();
  }

  const Inputs in = make_inputs(workload, seed, small);
  std::printf("workload %s seed %llu: %zu keys prefilled, %d rounds\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              in.prefill_size(), in.rounds);
  const Outcome o = trace == "1" ? traced_run(in, seconds, args["trace-out"])
                                 : timed_run(in, seconds);
  print_result(o);
  return 0;
}
