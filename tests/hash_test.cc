// TraceHasher equivalence: the zero-run hasher must produce the values of plain byte-at-a-time
// FNV-1a over each event's field tuple, at every point of every stream. The reference below
// exists only here; a hash change anywhere would silently re-key the campaign corpus and
// every recorded trace hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/explore/detector.h"
#include "src/explore/hash.h"

namespace {

using explore::TraceHasher;
using trace::Event;
using trace::EventType;

constexpr uint64_t kOffset = 0xcbf29ce484222325ull;

// Byte-wise FNV-1a over the eight bytes of `v`, least significant first.
uint64_t RefMixWord(uint64_t h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t RefMix(uint64_t h, const Event& e) {
  for (uint64_t v : {static_cast<uint64_t>(e.time_us), static_cast<uint64_t>(e.type),
                     (static_cast<uint64_t>(e.priority) << 32) |
                         (static_cast<uint64_t>(e.processor) << 16),
                     static_cast<uint64_t>(e.thread), e.object, e.arg}) {
    h = RefMixWord(h, v);
  }
  return h;
}

Event MakeEvent(int64_t time, EventType type, uint8_t priority, uint16_t processor,
                uint32_t thread, uint64_t object, uint64_t arg) {
  Event e;
  e.time_us = time;
  e.type = type;
  e.priority = priority;
  e.processor = processor;
  e.thread = thread;
  e.object = object;
  e.arg = arg;
  return e;
}

Event ZeroEvent() { return MakeEvent(0, static_cast<EventType>(0), 0, 0, 0, 0, 0); }

Event OnesEvent() {
  return MakeEvent(-1, static_cast<EventType>(0xff), 0xff, 0xffff, 0xffffffffu, ~0ull, ~0ull);
}

// Random events whose fields keep only some bytes, so zero runs of every length from 0 to
// well past a word occur inside words and across word and event boundaries.
std::vector<Event> RandomEvents(uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  const uint64_t masks[] = {0,          0xff,       0xffff, 0xff00ff,           0xffffffff,
                            ~0ull,      0xff000000, 1ull << 63, 0xff00000000000000ull};
  auto field = [&] { return rng() & masks[rng() % std::size(masks)]; };
  std::vector<Event> events;
  int64_t time = 0;
  for (int i = 0; i < n; ++i) {
    time += static_cast<int64_t>(field() & 0xfffff);
    events.push_back(MakeEvent(time, static_cast<EventType>(rng() % 24),
                               static_cast<uint8_t>(field()), static_cast<uint16_t>(field()),
                               static_cast<uint32_t>(field()), field(), field()));
  }
  return events;
}

TEST(TraceHasherTest, EmptyStreamIsTheOffsetBasis) {
  EXPECT_EQ(TraceHasher().value(), kOffset);
}

TEST(TraceHasherTest, RandomEventsMatchReferenceAfterEveryEvent) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    TraceHasher hasher;
    uint64_t ref = kOffset;
    for (const Event& e : RandomEvents(seed, 2000)) {
      hasher.Mix(e);
      ref = RefMix(ref, e);
      ASSERT_EQ(hasher.value(), ref) << "seed " << seed;
    }
  }
}

TEST(TraceHasherTest, AllZeroAndAllOnesEvents) {
  for (const std::vector<Event>& stream :
       {std::vector<Event>{ZeroEvent()}, std::vector<Event>{OnesEvent()},
        std::vector<Event>{ZeroEvent(), OnesEvent(), ZeroEvent()},
        std::vector<Event>{OnesEvent(), ZeroEvent(), ZeroEvent(), OnesEvent()}}) {
    TraceHasher hasher;
    uint64_t ref = kOffset;
    for (const Event& e : stream) {
      hasher.Mix(e);
      ref = RefMix(ref, e);
      EXPECT_EQ(hasher.value(), ref);
    }
  }
}

// Words whose nonzero bytes sit at the edges, so runs of 1 to 15 zero bytes straddle each
// word boundary, plus runs of 64 bytes and longer (the power table's limit) between them.
TEST(TraceHasherTest, ZeroRunsAcrossWordsAndPastTheTableLimit) {
  const std::vector<uint64_t> edges = {1, 0xff00000000000000ull, 0x0100000000000001ull,
                                       0x80, 0x0000ff0000000000ull};
  for (int zero_words : {0, 1, 7, 8, 9, 16, 40}) {
    for (uint64_t first : edges) {
      for (uint64_t last : edges) {
        TraceHasher hasher;
        uint64_t ref = kOffset;
        hasher.MixWord(first);
        ref = RefMixWord(ref, first);
        for (int i = 0; i < zero_words; ++i) {
          hasher.MixWord(0);
          ref = RefMixWord(ref, 0);
        }
        EXPECT_EQ(hasher.value(), ref) << zero_words << " zero words, read mid-run";
        hasher.MixWord(last);
        ref = RefMixWord(ref, last);
        EXPECT_EQ(hasher.value(), ref) << zero_words << " zero words";
      }
    }
  }
}

// 200 all-zero events are a 9600-byte zero run carried across event boundaries.
TEST(TraceHasherTest, ZeroRunsAcrossEvents) {
  TraceHasher hasher;
  uint64_t ref = kOffset;
  const Event tail = MakeEvent(5, EventType::kSwitch, 3, 0, 2, 0, 0);
  hasher.Mix(tail);
  ref = RefMix(ref, tail);
  for (int i = 0; i < 200; ++i) {
    hasher.Mix(ZeroEvent());
    ref = RefMix(ref, ZeroEvent());
  }
  EXPECT_EQ(hasher.value(), ref);
  hasher.Mix(tail);
  ref = RefMix(ref, tail);
  EXPECT_EQ(hasher.value(), ref);
}

// Reading value() settles nothing: mixing more afterwards continues the same stream.
TEST(TraceHasherTest, ValueMidStreamDoesNotDisturbTheStream) {
  const std::vector<Event> events = RandomEvents(7, 300);
  TraceHasher read_often;
  TraceHasher read_once;
  uint64_t ref = kOffset;
  for (const Event& e : events) {
    read_often.Mix(e);
    read_once.Mix(e);
    ref = RefMix(ref, e);
    EXPECT_EQ(read_often.value(), ref);
  }
  EXPECT_EQ(read_once.value(), ref);
  EXPECT_EQ(read_often.value(), read_once.value());
}

// The explorer copies a hasher into each checkpointed node and continues every copy with a
// different suffix; copies taken inside a pending zero run must continue it correctly.
TEST(TraceHasherTest, CopyMidStreamContinuesIndependently) {
  const std::vector<Event> prefix = RandomEvents(11, 50);
  std::vector<Event> suffix_a = RandomEvents(12, 50);
  std::vector<Event> suffix_b = RandomEvents(13, 50);
  suffix_b.insert(suffix_b.begin(), ZeroEvent());
  TraceHasher base;
  uint64_t ref_base = kOffset;
  for (const Event& e : prefix) {
    base.Mix(e);
    ref_base = RefMix(ref_base, e);
  }
  base.Mix(ZeroEvent());  // leave a pending zero run in the copied state
  ref_base = RefMix(ref_base, ZeroEvent());
  const uint64_t base_value = base.value();
  for (const std::vector<Event>* suffix : {&suffix_a, &suffix_b}) {
    TraceHasher copy = base;
    uint64_t ref = ref_base;
    for (const Event& e : *suffix) {
      copy.Mix(e);
      ref = RefMix(ref, e);
    }
    EXPECT_EQ(copy.value(), ref);
  }
  EXPECT_EQ(base.value(), base_value);  // the original is untouched by its copies
}

TEST(TraceHasherTest, SeedConstructorStartsFromTheSeed) {
  const uint64_t seed = kOffset ^ 0x5eedull;
  TraceHasher hasher(seed);
  uint64_t ref = seed;
  for (uint64_t v : {0ull, 7ull, 0x100ull, ~0ull, 0ull}) {
    hasher.MixWord(v);
    ref = RefMixWord(ref, v);
  }
  EXPECT_EQ(hasher.value(), ref);
}

TEST(TraceHasherTest, PrefixHashesMatchReferenceAtEachStride) {
  for (int n : {0, 1, 70, 100}) {
    const std::vector<Event> events = RandomEvents(static_cast<uint64_t>(n) + 21, n);
    trace::Tracer tracer;
    tracer.set_enabled(true);
    for (const Event& e : events) {
      tracer.Record(e);
    }
    for (size_t stride : {size_t{1}, size_t{7}, size_t{1024}}) {
      std::vector<uint64_t> expected;
      uint64_t ref = kOffset;
      for (size_t i = 0; i < events.size(); ++i) {
        ref = RefMix(ref, events[i]);
        if ((i + 1) % stride == 0) {
          expected.push_back(ref);
        }
      }
      if (events.size() % stride != 0 || events.empty()) {
        expected.push_back(ref);
      }
      const std::vector<uint64_t> hashes = explore::TracePrefixHashes(tracer, stride);
      EXPECT_EQ(hashes, expected) << n << " events, stride " << stride;
      ASSERT_FALSE(hashes.empty());
      EXPECT_EQ(hashes.back(), explore::TraceHash(tracer)) << "last prefix is the full hash";
    }
  }
}

// A pinned value, computed independently of this code: the trace hash is a persistent
// identifier (repro output, corpus coverage keys), so it may not drift.
TEST(TraceHasherTest, PinnedHashOfTinyTrace) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  tracer.Record(MakeEvent(30, EventType::kSwitch, 4, 0, 1, 0, 0));
  tracer.Record(MakeEvent(1030, EventType::kMlEnter, 4, 1, 1, 7, 0));
  EXPECT_EQ(explore::TraceHash(tracer), 0x4f6592fb43b1522dull);
}

// Coverage edge keys are FNV-1a of (tag, a, b, c) from offset ^ salt.
TEST(TraceHasherTest, CoverageKeysMatchReference) {
  const uint64_t salt = 0x1234;
  trace::Tracer tracer;
  tracer.set_enabled(true);
  tracer.Record(MakeEvent(10, EventType::kMlEnter, 4, 0, 2, 5, 0));
  tracer.Record(MakeEvent(20, EventType::kFaultInjected, 4, 0, 2, 9, 3));
  auto ref_key = [&](uint64_t tag, uint64_t a, uint64_t b, uint64_t c) {
    uint64_t h = kOffset ^ salt;
    for (uint64_t v : {tag, a, b, c}) {
      h = RefMixWord(h, v);
    }
    return h;
  };
  std::vector<uint64_t> expected = {ref_key(1, 5, 0, 2), ref_key(6, 9, 3, 0)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(explore::CollectTraceCoverage(tracer, salt), expected);
}

}  // namespace
