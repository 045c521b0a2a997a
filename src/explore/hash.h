// Trace hashing: one 64-bit fingerprint per run, plus prefix fingerprints for coverage.
//
// Two runs are "the same schedule" iff every recorded event matches field-for-field; the hash
// is FNV-1a over the canonical field tuple of each event. Used by Explorer to verify replay
// determinism and to count distinct schedules explored, and by the fuzzing campaign
// (campaign.h) as a state-coverage signal: the running hash after each K-event prefix
// fingerprints *partial* executions, so two schedules that diverge early and reconverge late
// still count as distinct coverage.
//
// Zero runs. FNV-1a steps h = (h ^ b) * P per byte, and for a zero byte (h ^ 0) * P == h * P,
// so a run of k zero bytes is one multiply by P^k. Event tuples are mostly zero bytes (about
// 8 of their 48 are nonzero on Cedar traces), so the hasher keeps a pending zero-run count,
// carried across words and events, jumps from one nonzero byte to the next with
// count-trailing-zeros, and settles the run with one table multiply (P^0..P^64; longer runs
// multiply by P^64 repeatedly). The values are those of the byte-at-a-time loop, bit for bit.

#ifndef SRC_EXPLORE_HASH_H_
#define SRC_EXPLORE_HASH_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/trace/tracer.h"

namespace explore {

// Incremental FNV-1a over event field tuples. Feeding the same events in the same order
// always yields the same value; value() may be read at any point to fingerprint the prefix
// consumed so far, and a copy continues independently from where the original stood.
class TraceHasher {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr uint64_t kPrime = 0x100000001b3ull;

  TraceHasher() = default;
  // Starts from `seed` in place of the FNV offset basis (e.g. offset ^ salt for scoped keys).
  explicit TraceHasher(uint64_t seed) : h_(seed) {}

  void Mix(const trace::Event& e) {
    MixWord(static_cast<uint64_t>(e.time_us));
    MixWord(static_cast<uint64_t>(e.type));
    MixWord((static_cast<uint64_t>(e.priority) << 32) |
            (static_cast<uint64_t>(e.processor) << 16));
    MixWord(e.thread);
    MixWord(e.object);
    MixWord(e.arg);
  }

  // FNV-1a over the eight bytes of `v`, least significant first.
  void MixWord(uint64_t v) {
    int left = 8;  // bytes of v not yet consumed
    while (v != 0) {
      const int zeros = std::countr_zero(v) >> 3;  // zero bytes below the next nonzero one
      v >>= zeros * 8;
      h_ = Advance(h_, zeros_ + static_cast<uint64_t>(zeros)) ^ (v & 0xff);
      zeros_ = 1;  // the multiply that closes this byte's step, deferred like a zero byte
      v >>= 8;
      left -= zeros + 1;
    }
    zeros_ += static_cast<uint64_t>(left);
  }

  uint64_t value() const { return Advance(h_, zeros_); }

 private:
  static constexpr int kMaxRun = 64;
  static constexpr std::array<uint64_t, kMaxRun + 1> kPowers = [] {
    std::array<uint64_t, kMaxRun + 1> powers{};
    powers[0] = 1;
    for (int k = 1; k <= kMaxRun; ++k) {
      powers[static_cast<size_t>(k)] = powers[static_cast<size_t>(k) - 1] * kPrime;
    }
    return powers;
  }();

  // h * P^k: the hash after k more zero bytes.
  static uint64_t Advance(uint64_t h, uint64_t k) {
    while (k > kMaxRun) {
      h *= kPowers[kMaxRun];
      k -= kMaxRun;
    }
    return h * kPowers[k];
  }

  // The hash is h_ * P^zeros_: zeros_ bytes of multiplies are still owed.
  uint64_t h_ = kOffsetBasis;
  uint64_t zeros_ = 0;
};

inline uint64_t TraceHash(const trace::Tracer& tracer) {
  TraceHasher hasher;
  for (const trace::Event& e : tracer.view()) {
    hasher.Mix(e);
  }
  return hasher.value();
}

// Prefix fingerprints: the running hash after every `stride` events, plus the final hash, so
// the last element is always TraceHash(tracer). A partial execution that matches a known run
// for its first N*stride events contributes no new fingerprints — which is exactly the dedup
// the campaign's coverage map wants.
inline std::vector<uint64_t> TracePrefixHashes(const trace::Tracer& tracer, size_t stride) {
  std::vector<uint64_t> hashes;
  if (stride == 0) {
    stride = 1;
  }
  TraceHasher hasher;
  size_t n = 0;
  for (const trace::Event& e : tracer.view()) {
    hasher.Mix(e);
    if (++n % stride == 0) {
      hashes.push_back(hasher.value());
    }
  }
  if (n % stride != 0 || n == 0) {
    hashes.push_back(hasher.value());
  }
  return hashes;
}

}  // namespace explore

#endif  // SRC_EXPLORE_HASH_H_
