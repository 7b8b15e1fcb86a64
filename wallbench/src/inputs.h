// Seeded input generation for the wall-clock benchmark.
//
// Everything a run feeds the structure is generated here, before any timing
// starts, from the workload name and the --seed argument alone.  The
// generator is self-contained (its own splitmix64 stream, no code from the
// repository's src/), so no change to the program under test can move the
// inputs.
//
// Key roles make every result checkable (oracle.h):
//  - stable keys are prefilled and never written again;
//  - each client owns a stripe of prefilled keys that only it erases and
//    reinserts, so its own model of the stripe is exact;
//  - every other key of the universe is never present.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wallbench {

constexpr int kClients = 2;
constexpr size_t kBatchKeys = 64;

// Deterministic splitmix64 stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n), n > 0.
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  uint64_t s_;
};

enum class Op : uint8_t { kPred, kContains, kBatch, kUpdate };

// What a contains() on this key may return.
enum class Role : uint8_t {
  kStable,  // always present
  kAbsent,  // never present
  kOwn,     // in the calling client's stripe: its model decides
  kOther,   // in another client's stripe: either answer is valid
};

struct Call {
  // kPred/kContains: the query key.  kBatch: index of the call's first key
  // in Stream::batch_keys.  kUpdate: slot in the client's stripe.
  uint64_t key;
  // kPred: stable predecessor of the key plus one (0 = none).  kContains:
  // the stripe slot when role == kOwn.  Unused otherwise.
  uint64_t expect;
  Op op;
  Role role;
};

// One client's calls for one phase.  A client cycles through its stream
// when it reaches the end before the phase does.
struct Stream {
  std::vector<Call> calls;
  std::vector<uint64_t> batch_keys;    // kBatchKeys per kBatch call
  std::vector<uint64_t> batch_expect;  // stable predecessor + 1 per key
};

struct ClientInputs {
  std::vector<uint64_t> stripe;  // keys only this client writes; all prefilled
  std::vector<uint64_t> prefill;  // this client's share of the prefill, in order
  Stream warmup;                  // run once, untimed, before measuring
  std::vector<Stream> phases;     // the measured window is split evenly
};

struct Inputs {
  int rounds = 1;                       // fresh structures per timed run
  std::vector<uint64_t> stable;         // sorted
  std::vector<uint64_t> volatile_keys;  // sorted union of the stripes
  ClientInputs clients[kClients];

  size_t prefill_size() const {
    return stable.size() + volatile_keys.size();
  }
};

// The benchmark's workloads; `small` shrinks every size (self-tests).
const std::vector<std::string>& workload_names();
bool known_workload(const std::string& name);
Inputs make_inputs(const std::string& workload, uint64_t seed, bool small);

// Bytes of every stream, stripe and key set, for byte-identity checks.
std::vector<uint8_t> serialize(const Inputs& in);

}  // namespace wallbench
