#include "src/pcr/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <queue>
#include <utility>

#include "src/pcr/errors.h"
#include "src/pcr/fiber.h"
#include "src/pcr/runtime.h"
#include "src/pcr/scheduler.h"
#include "src/trace/tracer.h"

namespace pcr {

namespace {

// Same-address stack restore works only when (a) the fiber backend keeps its saved context as
// a plain stack pointer (the assembly fast path; ucontext_t carries a signal mask and possibly
// FP environment that memcpy must not resurrect) and (b) no sanitizer keeps per-frame shadow
// state (ASan fake stacks / TSan fiber handles cannot be rewound by copying program stacks).
#if PCR_FIBER_USE_UCONTEXT
constexpr bool kCheckpointSupported = false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCheckpointSupported = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kCheckpointSupported = false;
#else
constexpr bool kCheckpointSupported = true;
#endif
#else
constexpr bool kCheckpointSupported = true;
#endif

// Saved-context slack: the saved stack pointer is the lowest address the suspended fiber's
// frames occupy, except that the innermost function may keep live data in the x86-64 red zone
// (128 bytes below SP). Saving the superset is harmless on aarch64.
constexpr size_t kRedZoneBytes = 128;

// Live checkpoints on this thread, oldest first. Checkpoints must nest LIFO and Restore must
// target the newest live one: restore memcpy's fiber stacks same-address, so rewinding an
// outer checkpoint while an inner one is live would overwrite the frames the inner snapshot's
// pins still describe, and out-of-order destruction would unpin fibers an inner snapshot
// depends on. The explorer's branch tree guarantees this by scoping; the guard turns a future
// violation into an immediate diagnostic instead of silent stack corruption. thread_local:
// each explorer worker drives its own scheduler on its own OS thread.
thread_local std::vector<const Checkpoint*> g_live_checkpoints;

void RequireNewest(const Checkpoint* ckpt, const char* verb) {
  if (g_live_checkpoints.empty() || g_live_checkpoints.back() != ckpt) {
    std::fprintf(stderr,
                 "pcr: Checkpoint::%s violates LIFO nesting (%zu live on this thread)\n", verb,
                 g_live_checkpoints.size());
    std::abort();
  }
}

}  // namespace

bool Checkpoint::Supported() { return kCheckpointSupported; }

struct Checkpoint::State {
  // One suspended (or finished) fiber: its saved context plus the live slice of its stack.
  // `stack_lo` points into the fiber's own mapping — restore memcpy's the bytes back to the
  // very addresses they came from, so every frame-internal pointer stays valid.
  struct FiberImage {
    bool present = false;
    bool started = false;
    bool finished = false;
    void* context = nullptr;
    char* stack_lo = nullptr;
    std::vector<char> bytes;
  };

  // Every mutable Tcb field (name/name_sym/stack_bytes/parent/forked_at never change after
  // fork and are skipped). `entry` is saved only for threads not yet dispatched at snapshot
  // time: a started thread's entry is being invoked in place on its (saved) fiber stack, so
  // restore must leave the std::function object untouched.
  struct TcbImage {
    int priority;
    ThreadState state;
    BlockReason block_reason;
    bool has_entry = false;
    std::function<void()> entry;
    Usec remaining;
    uint64_t wait_epoch;
    bool timer_fired;
    const void* wait_object;
    ThreadId notified_by;
    ThreadId joiner;
    bool detached;
    bool joined;
    bool finished;
    bool started;
    std::exception_ptr uncaught;
    bool penalized;
    bool boosted;
    int inherited_priority;
    int processor;
    Usec cpu_time;
    Usec ready_since;
    FiberImage fiber;
  };

  struct ObjectRecord {
    Checkpointable* ptr = nullptr;
    void* storage = nullptr;  // recorded at snapshot: CheckpointStorage() on a dead shell is UB
    size_t size = 0;
    CheckpointedObjectState state;
  };

  static void SaveFiber(const Fiber& fiber, FiberImage* image);
  static void RestoreFiber(Fiber& fiber, const FiberImage& image);

  // Scheduler scalars.
  std::mt19937_64 rng;
  bool rng_seed_logged;
  Usec now;
  Usec next_tick_due;
  Usec run_deadline;
  ThreadId current_tid;
  ObjectId next_object_id;
  bool shutting_down;
  bool in_run_loop;
  uint32_t ready_mask;
  int boosted_count;
  int penalized_count;
  int inherited_count;
  int live_threads;
  int64_t total_forks;
  int64_t uncaught_exits;
  int64_t zero_progress_ops;
  size_t stack_bytes_reserved;
  size_t peak_stack_bytes_reserved;
  int64_t fiber_switches;
  int64_t stack_acquires;
  int64_t stack_pool_hits;
  Usec wheel_base_tick;
  size_t wheel_scan_hint;
  size_t timer_count;

  // Scheduler containers (all copy-assignable).
  std::deque<ThreadId> ready[kNumPriorityLevels];
  std::vector<ThreadId> tied_scratch;
  std::vector<ThreadId> running;
  std::vector<ThreadId> last_running;
  std::unordered_map<const void*, ThreadId> monitor_owner;
  std::deque<std::vector<Scheduler::TimerEntry>> timer_wheel;
  std::priority_queue<Scheduler::PendingInterrupt, std::vector<Scheduler::PendingInterrupt>,
                      std::greater<Scheduler::PendingInterrupt>>
      interrupts;
  std::deque<WaitEntry> fork_waiters;

  // Threads and fibers.
  std::vector<TcbImage> tcbs;
  FiberImage exec;
  std::vector<ThreadId> pinned;  // tids this checkpoint pinned (unpinned in the destructor)

  // Tracer rollback point.
  size_t event_count = 0;
  size_t symbol_count = 0;
  Usec window_start = 0;

  // Runtime::Current() at snapshot time. The run loop sets the thread-local on entry and
  // clears it on return; a restore rewinds stacks back *inside* that call, so the pointer must
  // be rewound with them — otherwise resumed fibers throw from every thisthread:: wrapper.
  Runtime* current_runtime = nullptr;

  // Checkpointables.
  std::vector<Checkpointable*> registry;
  std::vector<ObjectRecord> objects;
};

void Checkpoint::State::SaveFiber(const Fiber& fiber, FiberImage* image) {
  image->present = true;
  image->started = fiber.started_;
  image->finished = fiber.finished_;
#if !PCR_FIBER_USE_UCONTEXT
  image->context = fiber.context_;
  if (!fiber.finished_) {
    // [saved SP - red zone, stack top): everything at or above the saved context is live frames
    // (for an unstarted fiber, the record pcr_make_context planted at the top of the stack).
    char* base = static_cast<char*>(fiber.stack_.base());
    char* top = base + fiber.stack_.size();
    char* lo = static_cast<char*>(fiber.context_) - kRedZoneBytes;
    if (lo < base) {
      lo = base;
    }
    image->stack_lo = lo;
    image->bytes.assign(lo, top);
  }
#else
  (void)fiber;
#endif
}

void Checkpoint::State::RestoreFiber(Fiber& fiber, const FiberImage& image) {
  fiber.started_ = image.started;
  fiber.finished_ = image.finished;
#if !PCR_FIBER_USE_UCONTEXT
  fiber.context_ = image.context;
  if (!image.bytes.empty()) {
    std::memcpy(image.stack_lo, image.bytes.data(), image.bytes.size());
  }
#endif
  // resumer_ needs no restore: it is reassigned from the transfer record on the next Resume.
}

Checkpoint::Checkpoint(Scheduler& scheduler, trace::Tracer& tracer, Fiber* exec_fiber)
    : state_(std::make_unique<State>()), scheduler_(scheduler), tracer_(tracer),
      exec_fiber_(exec_fiber) {
  if (!Supported()) {
    throw UsageError("pcr: Checkpoint is unsupported in this build (ucontext or sanitizers); "
                     "use from-zero replay");
  }
  State& s = *state_;

  s.rng = scheduler_.rng_;
  s.rng_seed_logged = scheduler_.rng_seed_logged_;
  s.now = scheduler_.now_;
  s.next_tick_due = scheduler_.next_tick_due_;
  s.run_deadline = scheduler_.run_deadline_;
  s.current_tid = scheduler_.current_tid_;
  s.next_object_id = scheduler_.next_object_id_;
  s.shutting_down = scheduler_.shutting_down_;
  s.in_run_loop = scheduler_.in_run_loop_;
  s.ready_mask = scheduler_.ready_mask_;
  s.boosted_count = scheduler_.boosted_count_;
  s.penalized_count = scheduler_.penalized_count_;
  s.inherited_count = scheduler_.inherited_count_;
  s.live_threads = scheduler_.live_threads_;
  s.total_forks = scheduler_.total_forks_;
  s.uncaught_exits = scheduler_.uncaught_exits_;
  s.zero_progress_ops = scheduler_.zero_progress_ops_;
  s.stack_bytes_reserved = scheduler_.stack_bytes_reserved_;
  s.peak_stack_bytes_reserved = scheduler_.peak_stack_bytes_reserved_;
  s.fiber_switches = scheduler_.fiber_switches_;
  s.stack_acquires = scheduler_.stack_acquires_;
  s.stack_pool_hits = scheduler_.stack_pool_hits_;
  s.wheel_base_tick = scheduler_.wheel_base_tick_;
  s.wheel_scan_hint = scheduler_.wheel_scan_hint_;
  s.timer_count = scheduler_.timer_count_;

  for (int p = 0; p < kNumPriorityLevels; ++p) {
    s.ready[p] = scheduler_.ready_[p];
  }
  s.tied_scratch = scheduler_.tied_scratch_;
  s.running = scheduler_.running_;
  s.last_running = scheduler_.last_running_;
  s.monitor_owner = scheduler_.monitor_owner_;
  s.timer_wheel = scheduler_.timer_wheel_;
  s.interrupts = scheduler_.interrupts_;
  s.fork_waiters = scheduler_.fork_waiters_;

  s.tcbs.reserve(scheduler_.tcbs_.size());
  for (const auto& owned : scheduler_.tcbs_) {
    const Tcb& t = *owned;
    State::TcbImage image;
    image.priority = t.priority;
    image.state = t.state;
    image.block_reason = t.block_reason;
    if (!t.started) {
      image.has_entry = true;
      image.entry = t.entry;
    }
    image.remaining = t.remaining;
    image.wait_epoch = t.wait_epoch;
    image.timer_fired = t.timer_fired;
    image.wait_object = t.wait_object;
    image.notified_by = t.notified_by;
    image.joiner = t.joiner;
    image.detached = t.detached;
    image.joined = t.joined;
    image.finished = t.finished;
    image.started = t.started;
    image.uncaught = t.uncaught;
    image.penalized = t.penalized;
    image.boosted = t.boosted;
    image.inherited_priority = t.inherited_priority;
    image.processor = t.processor;
    image.cpu_time = t.cpu_time;
    image.ready_since = t.ready_since;
    if (t.fiber) {
      scheduler_.PinFiber(t.id);
      s.pinned.push_back(t.id);
      State::SaveFiber(*t.fiber, &image.fiber);
      bytes_ += image.fiber.bytes.size();
    }
    s.tcbs.push_back(std::move(image));
  }

  if (exec_fiber_ != nullptr) {
    State::SaveFiber(*exec_fiber_, &s.exec);
    bytes_ += s.exec.bytes.size();
  }

  s.event_count = tracer_.size();
  s.symbol_count = tracer_.symbols().size();
  s.window_start = tracer_.window_start();
  s.current_runtime = Runtime::Current();

  s.registry = scheduler_.checkpointables_;
  s.objects.reserve(s.registry.size());
  for (Checkpointable* object : s.registry) {
    State::ObjectRecord record;
    record.ptr = object;
    record.storage = object->CheckpointStorage();
    record.size = object->CheckpointStorageBytes();
    const char* raw = static_cast<const char*>(record.storage);
    record.state.bytes.assign(raw, raw + record.size);
    object->CheckpointSave(&record.state);
    bytes_ += record.size + record.state.extra.size();
    s.objects.push_back(std::move(record));
  }

  g_live_checkpoints.push_back(this);
}

Checkpoint::~Checkpoint() {
  RequireNewest(this, "~Checkpoint");
  g_live_checkpoints.pop_back();
  for (ThreadId tid : state_->pinned) {
    scheduler_.UnpinFiber(tid);
  }
}

void Checkpoint::Restore() {
  RequireNewest(this, "Restore");
  State& s = *state_;

  // 1. Tear down every checkpointable currently alive. Objects also present in the snapshot
  // are re-built in step 5; objects created after the snapshot lose their heap here and their
  // storage with the stack restore (their registry entries vanish with the registry copy).
  // Must precede the stack memcpy: teardown runs real destructors on *current* heap state.
  for (Checkpointable* object : scheduler_.checkpointables_) {
    object->CheckpointTeardown();
  }

  // 2. Fibers and stacks.
  for (size_t i = 0; i < s.tcbs.size(); ++i) {
    Tcb& t = *scheduler_.tcbs_[i];
    const State::FiberImage& image = s.tcbs[i].fiber;
    if (!image.present) {
      // No fiber existed at snapshot time; destroy any created since (its tid-pin, if an outer
      // checkpoint holds one, refers to the *original* fiber already parked in limbo).
      t.fiber.reset();
      continue;
    }
    if (!t.fiber) {
      auto limbo = scheduler_.fiber_limbo_.find(t.id);
      if (limbo == scheduler_.fiber_limbo_.end()) {
        std::abort();  // pinned fiber vanished: RetireFiber bypassed the limbo
      }
      t.fiber = std::move(limbo->second);
      scheduler_.fiber_limbo_.erase(limbo);
    }
    State::RestoreFiber(*t.fiber, image);
  }
  // Threads forked after the snapshot: their tids are dense at the end; drop them wholesale.
  scheduler_.tcbs_.resize(s.tcbs.size());
  if (exec_fiber_ != nullptr) {
    State::RestoreFiber(*exec_fiber_, s.exec);
  }

  // 3. Scheduler fields (now that stacks hold snapshot-time frames again).
  scheduler_.rng_ = s.rng;
  scheduler_.rng_seed_logged_ = s.rng_seed_logged;
  scheduler_.now_ = s.now;
  scheduler_.next_tick_due_ = s.next_tick_due;
  scheduler_.run_deadline_ = s.run_deadline;
  scheduler_.current_tid_ = s.current_tid;
  scheduler_.next_object_id_ = s.next_object_id;
  scheduler_.shutting_down_ = s.shutting_down;
  scheduler_.in_run_loop_ = s.in_run_loop;
  scheduler_.ready_mask_ = s.ready_mask;
  scheduler_.boosted_count_ = s.boosted_count;
  scheduler_.penalized_count_ = s.penalized_count;
  scheduler_.inherited_count_ = s.inherited_count;
  scheduler_.live_threads_ = s.live_threads;
  scheduler_.total_forks_ = s.total_forks;
  scheduler_.uncaught_exits_ = s.uncaught_exits;
  scheduler_.zero_progress_ops_ = s.zero_progress_ops;
  scheduler_.stack_bytes_reserved_ = s.stack_bytes_reserved;
  scheduler_.peak_stack_bytes_reserved_ = s.peak_stack_bytes_reserved;
  scheduler_.fiber_switches_ = s.fiber_switches;
  scheduler_.stack_acquires_ = s.stack_acquires;
  scheduler_.stack_pool_hits_ = s.stack_pool_hits;
  scheduler_.wheel_base_tick_ = s.wheel_base_tick;
  scheduler_.wheel_scan_hint_ = s.wheel_scan_hint;
  scheduler_.timer_count_ = s.timer_count;

  for (int p = 0; p < kNumPriorityLevels; ++p) {
    scheduler_.ready_[p] = s.ready[p];
  }
  // assign() within the capacity the constructor reserved: a reallocation here would move the
  // array out from under any suspended SelectReady frame holding .data().
  scheduler_.tied_scratch_.assign(s.tied_scratch.begin(), s.tied_scratch.end());
  scheduler_.running_ = s.running;
  scheduler_.last_running_ = s.last_running;
  scheduler_.monitor_owner_ = s.monitor_owner;
  scheduler_.timer_wheel_ = s.timer_wheel;
  scheduler_.interrupts_ = s.interrupts;
  scheduler_.fork_waiters_ = s.fork_waiters;

  for (size_t i = 0; i < s.tcbs.size(); ++i) {
    Tcb& t = *scheduler_.tcbs_[i];
    const State::TcbImage& image = s.tcbs[i];
    t.priority = image.priority;
    t.state = image.state;
    t.block_reason = image.block_reason;
    if (image.has_entry) {
      t.entry = image.entry;
    }
    t.remaining = image.remaining;
    t.wait_epoch = image.wait_epoch;
    t.timer_fired = image.timer_fired;
    t.wait_object = image.wait_object;
    t.notified_by = image.notified_by;
    t.joiner = image.joiner;
    t.detached = image.detached;
    t.joined = image.joined;
    t.finished = image.finished;
    t.started = image.started;
    t.uncaught = image.uncaught;
    t.penalized = image.penalized;
    t.boosted = image.boosted;
    t.inherited_priority = image.inherited_priority;
    t.processor = image.processor;
    t.cpu_time = image.cpu_time;
    t.ready_since = image.ready_since;
  }

  // 4. Tracer: roll the event buffer and symbol table back to the snapshot point. Events only
  // ever append, so a prefix truncation is exact; symbol ids are dense and assigned in order.
  tracer_.TruncateTo(s.event_count);
  tracer_.symbols().TruncateTo(s.symbol_count);
  tracer_.MarkWindowStart(s.window_start);
  Runtime::SetCurrent(s.current_runtime);

  // 5. Checkpointables: restore the registry, then rebuild each saved object in place. The
  // stack restore in step 2 already put the byte image back for stack-resident objects; the
  // explicit memcpy makes this independent of where the object lives and revives dead shells'
  // vtables before the virtual CheckpointRestore call.
  scheduler_.checkpointables_ = s.registry;
  for (const State::ObjectRecord& record : s.objects) {
    std::memcpy(record.storage, record.state.bytes.data(), record.size);
    record.ptr->CheckpointRestore(record.state);
  }
}

}  // namespace pcr
