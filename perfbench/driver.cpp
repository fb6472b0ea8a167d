// perfbench driver: closed-loop workloads over the public layer APIs.
//
// One process runs one workload with three closed-loop client threads.
// Every call into a layer API (collect::DynamicCollect register_handle /
// update / deregister / collect, queue::HtmQueue / queue::MsQueueHp enqueue /
// dequeue) is timed from outside with a TSC pair; the lower layers are read
// only through their public counters (htm::aggregate_stats, mem::pool_stats,
// MsQueueHp::deferred_nodes), snapshotted at quiescent barriers so counter
// deltas cover exactly the timed slices.
//
//   perfbench_driver --workload collect_scan --seed 7 --seconds 25 --trace 0
//
// Phases: set-up (structure, prefill, client preregistration) -> warm-up ->
// timed slices of about a second each. With --trace 1 the slices alternate
// untraced and traced; traced slices record spans (name, start, end, parent,
// request id) into bounded per-thread rings written out at exit
// (--trace-out) and give the per-layer numbers, untraced ones the baseline
// for trace.overhead_frac. --setup-only stops after each client's first op;
// --t0-ns passes the runner's CLOCK_MONOTONIC spawn time for setup_s.
//
// Output: one JSON object on the last line of stdout, read by
// perfbench/run.py. --selftest instead checks that every output check
// catches a planted violation.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collect/registry.hpp"
#include "htm/config.hpp"
#include "htm/stats.hpp"
#include "memory/pool.hpp"
#include "queue/htm_queue.hpp"
#include "queue/ms_queue_hp.hpp"
#include "util/cycles.hpp"
#include "util/rng.hpp"

namespace {

using dc::collect::Handle;
using Value = uint64_t;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif

#ifdef DC_TRACE
constexpr bool kTraceBuild = true;
#else
constexpr bool kTraceBuild = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t tsc() { return dc::util::rdcycles(); }

// ---------------------------------------------------------------------------
// Values: (producer, seq) packed so every output check can decode its origin.

constexpr int kSeqBits = 40;
inline Value encode(uint32_t producer, uint64_t seq) {
  return (static_cast<Value>(producer + 1) << kSeqBits) | seq;
}
inline uint32_t producer_of(Value v) {
  return static_cast<uint32_t>(v >> kSeqBits) - 1;
}
inline uint64_t seq_of(Value v) { return v & ((Value{1} << kSeqBits) - 1); }

// ---------------------------------------------------------------------------
// Log-linear latency histogram over TSC cycles: exact below 128 cycles, then
// 128 sub-buckets per power of two (< 0.8% bucket width). Percentiles
// interpolate linearly inside the bucket holding the target rank.

class LatencyHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  LatencyHist() : counts_(kBuckets, 0) {}

  void add(uint64_t cycles) {
    ++counts_[index(cycles)];
    ++total_;
  }
  void merge(const LatencyHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  uint64_t count() const { return total_; }

  // Value (cycles) at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= target) {
        const auto [low, width] = bounds(i);
        return static_cast<double>(low) +
               static_cast<double>(width) * (target - cum) / c;
      }
      cum += c;
    }
    return 0.0;
  }

 private:
  static std::size_t index(uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const uint64_t mantissa = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub + mantissa);
  }
  static std::pair<uint64_t, uint64_t> bounds(std::size_t i) {
    if (i < kSub) return {i, 1};
    const std::size_t e = (i - kSub) / kSub + kSubBits;
    const uint64_t mantissa = (i - kSub) % kSub;
    const int shift = static_cast<int>(e) - kSubBits;
    return {(kSub + mantissa) << shift, uint64_t{1} << shift};
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Op kinds and spans.

enum Kind : uint8_t {
  kCollect,
  kUpdate,
  kRegister,
  kDeregister,
  kEnqueue,
  kDequeue,
  kNumKinds,
  kSpanOp = kNumKinds,  // root span of one client request
  kSpanCheck,           // output check of that request
  kNumSpanNames,
};
constexpr const char* kSpanName[kNumSpanNames] = {
    "collect.collect", "collect.update", "collect.register",
    "collect.deregister", "queue.enqueue", "queue.dequeue",
    "op", "check"};

struct Span {
  uint64_t id;      // (thread << 40) | per-thread sequence, nonzero
  uint64_t parent;  // 0 for a root span
  uint64_t req;     // id of the request's root span
  uint64_t start;   // TSC
  uint64_t end;     // TSC
  uint8_t name;
};

// Bounded per-thread span store: keeps the most recent kCapacity spans, so
// the recording cost is the same at every point of the window. Every traced
// request pushes exactly three spans, so the ring holds whole requests.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = 3 * 4096;
  SpanRing() : spans_(kCapacity) {}
  void push(const Span& s) {
    spans_[next_ % kCapacity] = s;
    ++next_;
  }
  template <class F>
  void for_each(F&& f) const {
    const uint64_t n = std::min<uint64_t>(next_, kCapacity);
    for (uint64_t i = next_ - n; i < next_; ++i) f(spans_[i % kCapacity]);
  }

 private:
  std::vector<Span> spans_;
  uint64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Output checks (pure functions so the self-test can plant violations).

struct Binding {
  Handle h;
  Value v;
};

// §2.3 on one Collect result, from the collecting thread's point of view:
//  * each of the caller's own handles is quiescent (a thread runs one op at
//    a time), so it must contribute exactly the value it last bound;
//  * every returned value decodes to a (producer, seq) that was bound:
//    producer in range and seq issued (issued[] is read after the Collect);
//  * a value of the caller's own is one of its current bindings (its own
//    earlier bindings are neither current nor concurrent).
// `sorted` is a reusable buffer. Returns nullptr when the result passes.
const char* check_collect(const std::vector<Value>& result,
                          const std::vector<Binding>& own, uint32_t self,
                          const std::atomic<uint64_t>* issued,
                          uint32_t producers, std::vector<Value>& sorted) {
  sorted.assign(result.begin(), result.end());
  std::sort(sorted.begin(), sorted.end());
  for (const Binding& b : own) {
    if (!std::binary_search(sorted.begin(), sorted.end(), b.v))
      return "collect: own quiescent handle missing from result";
  }
  for (Value v : result) {
    const uint32_t p = producer_of(v);
    const uint64_t s = seq_of(v);
    if (p >= producers || s == 0 ||
        s > issued[p].load(std::memory_order_acquire))
      return "collect: value was never bound";
    if (p == self &&
        std::none_of(own.begin(), own.end(),
                     [v](const Binding& b) { return b.v == v; }))
      return "collect: stale value of an own handle";
  }
  return nullptr;
}

// Per-producer FIFO, seen by one consumer: seqs from each producer strictly
// increase, and were issued. `last` holds the consumer's last seq per
// producer.
const char* check_dequeue(Value v, std::vector<uint64_t>& last,
                          const std::atomic<uint64_t>* issued) {
  const uint32_t p = producer_of(v);
  if (p >= last.size()) return "queue: value from unknown producer";
  const uint64_t s = seq_of(v);
  if (s <= last[p]) return "queue: per-producer FIFO order violated";
  if (s > issued[p].load(std::memory_order_acquire))
    return "queue: value was never enqueued";
  last[p] = s;
  return nullptr;
}

// Pool ledger: two independently kept counts agree, and the live count is
// back to its pre-workload baseline.
const char* check_pool_ledger(const dc::mem::PoolStats& s,
                              uint64_t baseline_live) {
  if (s.allocations - s.deallocations != s.live_blocks)
    return "pool: allocations - deallocations != live_blocks";
  if (s.live_blocks != baseline_live)
    return "pool: live blocks not back to baseline after teardown";
  return nullptr;
}

// Injection machinery must be dormant: the benchmark measures the clean path.
const char* check_dormant(const dc::htm::TxnStats& h,
                          const dc::mem::PoolStats& p) {
  if (h.faults_injected != 0) return "dormancy: faults_injected != 0";
  if (h.crashes_injected != 0) return "dormancy: crashes_injected != 0";
  if (h.sig_validations != 0) return "dormancy: sig_validations != 0";
  if (p.alloc_failures != 0) return "dormancy: alloc_failures != 0";
  return nullptr;
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct CollectShape {
  const char* algorithm;
  uint32_t step;
  uint32_t budget;         // max handles registered at once, all threads
  uint32_t preregistered;  // registered before the first op
  uint32_t collect_pct, update_pct, register_pct;  // rest: deregister
};

constexpr CollectShape kCollectScan{"ArrayDynAppendDereg", 32, 64, 32,
                                    90, 8, 1};
constexpr CollectShape kCollectChurn{"ListFastCollect", 32, 256, 128,
                                     10, 30, 30};
constexpr uint32_t kQueuePrefill = 256;
constexpr uint32_t kQueueMaxBurst = 4;  // enqueue k then dequeue k, k in 1..4
constexpr uint32_t kCheckEvery = 8;     // Collect results checked 1 in 8
// Closed-loop clients: on a 4-CPU host one CPU stays free for the timer.
constexpr uint32_t kClients = 3;
constexpr double kWarmupSeconds = 2.0;

uint32_t share_of(uint32_t total, uint32_t parts, uint32_t i) {
  return total * (i + 1) / parts - total * i / parts;
}

// Per-window accumulators of one thread.
struct Acc {
  LatencyHist hist[kNumKinds];
  uint64_t kind_cycles[kNumKinds] = {};
  uint64_t ops = 0;
  uint64_t cycles = 0;  // wall time of the thread's part of the window
  uint64_t collect_values = 0;
  uint64_t empty_dequeues = 0;
  void merge(const Acc& o) {
    for (int k = 0; k < kNumKinds; ++k) {
      hist[k].merge(o.hist[k]);
      kind_cycles[k] += o.kind_cycles[k];
    }
    ops += o.ops;
    cycles += o.cycles;
    collect_values += o.collect_values;
    empty_dequeues += o.empty_dequeues;
  }
  LatencyHist all_kinds() const {
    LatencyHist all;
    for (const LatencyHist& h : hist) all.merge(h);
    return all;
  }
};

// One timed slice, all threads: throughput and latency quantiles (cycles).
struct SliceStats {
  double ops_per_cycle, p50, p99;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

enum Phase : uint8_t { kWarmup, kUntraced, kTraced, kFinish };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  int64_t t0_ns = -1;  // CLOCK_MONOTONIC at process spawn (from the runner)
  std::string trace_out;
};

struct alignas(64) ThreadState {
  explicit ThreadState(uint64_t seed) : rng(seed) {}
  dc::util::Xoshiro256 rng;
  Acc acc;  // current slice; drained by the main thread after each slice
  uint64_t failed = 0;
  uint64_t attempted = 0;
  int64_t setup_ns = 0;  // this client's worker_setup
  const char* first_error = nullptr;
  std::unique_ptr<SpanRing> ring;
  uint64_t span_seq = 0;
  // Collect state.
  std::vector<Binding> own;
  uint64_t lru = 0;
  std::vector<Value> buf, sorted;
  // Queue state.
  std::vector<uint64_t> last_seen;
  uint64_t enqueued = 0, dequeued = 0, enq_sum = 0, deq_sum = 0;
  uint32_t burst = 0, burst_left = 0;
  bool burst_enqueue = false;
  uint64_t seq = 0;

  void fail(const char* why) {
    ++failed;
    if (first_error == nullptr) first_error = why;
  }
};

// Counters read at quiescent points.
struct Counters {
  dc::htm::TxnStats htm;
  dc::mem::PoolStats pool;
  static Counters now() {
    return Counters{dc::htm::aggregate_stats(), dc::mem::pool_stats()};
  }
};

struct CounterDelta {
  uint64_t commits = 0, aborts = 0, conflict_aborts = 0, overflow_aborts = 0;
  uint64_t tle_entries = 0, lock_fallbacks = 0, storm_entries = 0;
  uint64_t clock_resamples = 0, clock_catchups = 0, nontxn_stores = 0;
  uint64_t writer_commits = 0, clock_bumps = 0, sloppy_stamps = 0;
  uint64_t allocs = 0, frees = 0;
  void add(const Counters& a, const Counters& b) {
    using dc::htm::AbortCode;
    const auto code = [](const dc::htm::TxnStats& s, AbortCode c) {
      return static_cast<uint64_t>(
          s.aborts_by_code[static_cast<std::size_t>(c)]);
    };
    commits += b.htm.commits - a.htm.commits;
    aborts += b.htm.aborts - a.htm.aborts;
    conflict_aborts += code(b.htm, AbortCode::kConflict) -
                       code(a.htm, AbortCode::kConflict);
    overflow_aborts += code(b.htm, AbortCode::kOverflow) -
                       code(a.htm, AbortCode::kOverflow);
    tle_entries += b.htm.tle_entries - a.htm.tle_entries;
    lock_fallbacks += b.htm.lock_fallbacks - a.htm.lock_fallbacks;
    storm_entries += b.htm.storm_entries - a.htm.storm_entries;
    clock_resamples += b.htm.clock_resamples - a.htm.clock_resamples;
    clock_catchups += b.htm.clock_catchups - a.htm.clock_catchups;
    nontxn_stores += b.htm.nontxn_stores - a.htm.nontxn_stores;
    writer_commits += b.htm.writer_commits - a.htm.writer_commits;
    clock_bumps += b.htm.clock_bumps - a.htm.clock_bumps;
    sloppy_stamps += b.htm.sloppy_stamps - a.htm.sloppy_stamps;
    allocs += b.pool.allocations - a.pool.allocations;
    frees += b.pool.deallocations - a.pool.deallocations;
  }
};

// ---------------------------------------------------------------------------
// The two workload families. Each provides:
//   worker_setup(t, st)      per-client set-up before the first op
//   op(t, st, acc, traced)   one timed client call plus its output check
//   worker_teardown(t, st)   per-client teardown (owner-only deregisters)
//   teardown(states, errors) after the clients stop: drain, global checks

class Bench {
 public:
  explicit Bench(uint32_t producers) : issued_(producers) {
    for (auto& i : issued_) i.store(0, std::memory_order_relaxed);
  }
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  virtual void worker_setup(uint32_t t, ThreadState& st) = 0;
  virtual void op(uint32_t t, ThreadState& st, Acc& acc, bool traced) = 0;
  virtual void worker_teardown(uint32_t t, ThreadState& st) = 0;
  // Main thread, workers quiescent (parked or joined).
  virtual double sample_deferred() { return 0.0; }
  virtual void at_window_end() {}
  // After workers have run worker_teardown. Appends failed checks.
  virtual void teardown(std::vector<ThreadState*>& states,
                        std::vector<std::string>& errors) = 0;

  // Reported by every workload (0 where the structure has none).
  double footprint_bytes = 0.0;  // Collect object, at the last slice end
  double retained_nodes = 0.0;   // pool blocks a drained queue still holds

 protected:
  // Records one client request: `call` is the timed layer call, `check`
  // its output check (may be a no-op returning nullptr).
  template <class Call, class Check>
  void timed(ThreadState& st, Acc& acc, bool traced, Kind kind, Call&& call,
             Check&& check) {
    ++st.attempted;
    ++acc.ops;
    if (!traced) {
      const uint64_t t0 = tsc();
      try {
        call();
      } catch (const std::exception&) {
        st.fail("layer call threw");
        return;
      }
      const uint64_t t1 = tsc();
      acc.hist[kind].add(t1 - t0);
      acc.kind_cycles[kind] += t1 - t0;
      if (const char* e = check()) st.fail(e);
      return;
    }
    const uint64_t op_start = tsc();
    const uint64_t op_id = next_span(st);
    const uint64_t call_id = next_span(st);
    const uint64_t t0 = tsc();
    try {
      call();
    } catch (const std::exception&) {
      st.fail("layer call threw");
      return;
    }
    const uint64_t t1 = tsc();
    acc.hist[kind].add(t1 - t0);
    acc.kind_cycles[kind] += t1 - t0;
    st.ring->push(Span{call_id, op_id, op_id, t0, t1, kind});
    const uint64_t c0 = tsc();
    const char* e = check();
    const uint64_t c1 = tsc();
    if (e != nullptr) st.fail(e);
    st.ring->push(Span{next_span(st), op_id, op_id, c0, c1, kSpanCheck});
    st.ring->push(Span{op_id, 0, op_id, op_start, tsc(), kSpanOp});
  }

  static uint64_t next_span(ThreadState& st) {
    return (static_cast<uint64_t>(dc::util::thread_id()) << 40) |
           ++st.span_seq;
  }

  std::vector<std::atomic<uint64_t>> issued_;  // per producer, highest seq
};

class CollectBench final : public Bench {
 public:
  explicit CollectBench(const CollectShape& shape)
      : Bench(kClients), shape_(shape) {
    dc::collect::MakeParams params;
    const uint32_t per = (shape.budget + kClients - 1) / kClients;
    params.static_capacity = static_cast<int32_t>(per * kClients);
    params.max_threads = kClients;
    params.min_size = 16;
    obj_ = dc::collect::make_algorithm(shape.algorithm, params);
    if (obj_ == nullptr) throw std::runtime_error("unknown algorithm");
    obj_->set_step_size(shape.step);
  }

  void worker_setup(uint32_t t, ThreadState& st) override {
    st.buf.reserve(shape_.budget * 2);
    st.sorted.reserve(shape_.budget * 2);
    const uint32_t mine = share_of(shape_.preregistered, kClients, t);
    for (uint32_t i = 0; i < mine; ++i) do_register(t, st);
  }

  void op(uint32_t t, ThreadState& st, Acc& acc, bool traced) override {
    const uint32_t cap = share_of(shape_.budget, kClients, t);
    const uint64_t dice = st.rng.next_below(100);
    const uint64_t upd = shape_.collect_pct + shape_.update_pct;
    const uint64_t reg = upd + shape_.register_pct;
    if (dice < shape_.collect_pct) {
      const bool check = st.rng.next_below(kCheckEvery) == 0;
      timed(
          st, acc, traced, kCollect, [&] { obj_->collect(st.buf); },
          [&]() -> const char* {
            acc.collect_values += st.buf.size();
            if (!check) return nullptr;
            return check_collect(st.buf, st.own, t, issued_.data(),
                                 kClients, st.sorted);
          });
      return;
    }
    // Register at the cap deregisters instead; Update / DeRegister with no
    // handle registers instead: every draw is a real layer call.
    if (dice < upd && !st.own.empty()) {
      Binding& b = st.own[st.lru++ % st.own.size()];
      const Value v = next_value(t, st);
      timed(st, acc, traced, kUpdate, [&] { obj_->update(b.h, v); },
            [&] { b.v = v; return static_cast<const char*>(nullptr); });
    } else if ((dice < reg || st.own.empty()) && st.own.size() < cap) {
      const Value v = next_value(t, st);
      Handle h = nullptr;
      timed(st, acc, traced, kRegister,
            [&] { h = obj_->register_handle(v); },
            [&] {
              st.own.push_back(Binding{h, v});
              return static_cast<const char*>(nullptr);
            });
    } else {
      const Handle h = st.own.front().h;
      timed(st, acc, traced, kDeregister, [&] { obj_->deregister(h); },
            [&] {
              st.own.erase(st.own.begin());
              return static_cast<const char*>(nullptr);
            });
    }
  }

  void worker_teardown(uint32_t, ThreadState& st) override {
    for (const Binding& b : st.own) obj_->deregister(b.h);
    st.own.clear();
  }

  void at_window_end() override {
    footprint_bytes = static_cast<double>(obj_->footprint_bytes());
  }

  void teardown(std::vector<ThreadState*>&,
                std::vector<std::string>&) override {
    obj_.reset();
  }

 private:
  Value next_value(uint32_t t, ThreadState& st) {
    ++st.seq;
    issued_[t].store(st.seq, std::memory_order_release);
    return encode(t, st.seq);
  }
  void do_register(uint32_t t, ThreadState& st) {
    const Value v = next_value(t, st);
    st.own.push_back(Binding{obj_->register_handle(v), v});
  }

  const CollectShape shape_;
  std::unique_ptr<dc::collect::DynamicCollect> obj_;
};

template <class Queue>
class QueueBench final : public Bench {
 public:
  // Producer ids 0..kClients-1 are the clients; id kClients is the prefill.
  QueueBench() : Bench(kClients + 1), q_(std::make_unique<Queue>()) {
    live_empty_ = dc::mem::pool_stats().live_blocks;
    for (uint32_t i = 1; i <= kQueuePrefill; ++i) {
      const Value v = encode(kClients, i);
      q_->enqueue(v);
      prefill_sum_ += v;
    }
    issued_[kClients].store(kQueuePrefill, std::memory_order_release);
  }

  void worker_setup(uint32_t, ThreadState& st) override {
    st.last_seen.assign(kClients + 1, 0);
  }

  void op(uint32_t t, ThreadState& st, Acc& acc, bool traced) override {
    if (st.burst_left == 0) {
      st.burst_enqueue = !st.burst_enqueue;
      if (st.burst_enqueue)
        st.burst = static_cast<uint32_t>(1 + st.rng.next_below(kQueueMaxBurst));
      st.burst_left = st.burst;
    }
    --st.burst_left;
    if (st.burst_enqueue) {
      ++st.seq;
      issued_[t].store(st.seq, std::memory_order_release);
      const Value v = encode(t, st.seq);
      timed(st, acc, traced, kEnqueue, [&] { q_->enqueue(v); },
            [&] {
              ++st.enqueued;
              st.enq_sum += v;
              return static_cast<const char*>(nullptr);
            });
    } else {
      Value v = 0;
      bool ok = false;
      timed(st, acc, traced, kDequeue, [&] { ok = q_->dequeue(&v); },
            [&]() -> const char* {
              if (!ok) {
                ++acc.empty_dequeues;
                return nullptr;
              }
              ++st.dequeued;
              st.deq_sum += v;
              return check_dequeue(v, st.last_seen, issued_.data());
            });
    }
  }

  void worker_teardown(uint32_t, ThreadState&) override {}

  double sample_deferred() override {
    if constexpr (requires(Queue& q) { q.deferred_nodes(); })
      return static_cast<double>(q_->deferred_nodes());
    return 0.0;
  }

  void teardown(std::vector<ThreadState*>& states,
                std::vector<std::string>& errors) override {
    // Drain on the main thread, itself a checked consumer.
    std::vector<uint64_t> last(kClients + 1, 0);
    uint64_t drained = 0, drained_sum = 0;
    Value v = 0;
    while (q_->dequeue(&v)) {
      ++drained;
      drained_sum += v;
      if (const char* e = check_dequeue(v, last, issued_.data()))
        errors.emplace_back(e);
    }
    uint64_t enq = kQueuePrefill, deq = 0, enq_sum = prefill_sum_,
             deq_sum = 0;
    for (ThreadState* st : states) {
      enq += st->enqueued;
      deq += st->dequeued;
      enq_sum += st->enq_sum;
      deq_sum += st->deq_sum;
    }
    if (enq != deq + drained)
      errors.emplace_back("queue: enqueued != dequeued + drained");
    if (enq_sum != deq_sum + drained_sum)
      errors.emplace_back("queue: enqueued values != dequeued + drained");
    // Quiescent space: blocks the empty queue still holds beyond its own
    // structure (hazard-pointer retire lists below their scan threshold).
    retained_nodes = static_cast<double>(dc::mem::pool_stats().live_blocks -
                                         live_empty_);
    q_.reset();
  }

 private:
  std::unique_ptr<Queue> q_;
  uint64_t live_empty_ = 0;
  uint64_t prefill_sum_ = 0;
};

std::unique_ptr<Bench> make_bench(const std::string& workload) {
  if (workload == "collect_scan")
    return std::make_unique<CollectBench>(kCollectScan);
  if (workload == "collect_churn")
    return std::make_unique<CollectBench>(kCollectChurn);
  if (workload == "queue_htm")
    return std::make_unique<QueueBench<dc::queue::HtmQueue>>();
  if (workload == "queue_hp")
    return std::make_unique<QueueBench<dc::queue::MsQueueHp>>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reporting helpers.

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* const kGuardedEnv[] = {"DC_CLOCK",  "DC_VALIDATE", "DC_RETRY",
                                   "DC_FAULT",  "DC_CRASH",    "DC_MEM",
                                   "DC_ALLOC_FAULT"};

// Refuses configurations whose numbers would not be comparable.
bool config_guard() {
  bool ok = true;
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", name);
      ok = false;
    }
  }
  if (kSanitizerBuild) {
    std::fprintf(stderr, "perfbench: refusing to run a sanitizer build\n");
    ok = false;
  }
  if (kTraceBuild) {
    std::fprintf(stderr, "perfbench: refusing to run a DC_TRACE=ON build\n");
    ok = false;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "perfbench: refusing to run an unoptimized build\n");
    ok = false;
  }
  return ok;
}

std::string config_json(const Options& opt) {
  const auto& c = dc::htm::config();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"clock\": \"%s\", \"validation\": \"%s\", \"retry\": \"%s\", "
      "\"txn_yield_every_loads\": %u, \"tle_after_aborts\": %u, "
      "\"store_buffer_capacity\": %u, \"build_type\": \"%s\", "
      "\"nproc\": %ld, \"threads\": %u, \"seed\": %" PRIu64 "}",
      dc::htm::to_string(c.clock_policy), dc::htm::to_string(c.validation),
      dc::htm::to_string(c.retry_policy), c.txn_yield_every_loads,
      c.tle_after_aborts, c.store_buffer_capacity, PERFBENCH_BUILD_TYPE,
      sysconf(_SC_NPROCESSORS_ONLN), kClients, opt.seed);
  return buf;
}

// ---------------------------------------------------------------------------
// Run orchestration.

int run(const Options& opt) {
  if (!config_guard()) return 3;
  const uint64_t baseline_live = dc::mem::pool_stats().live_blocks;
  std::unique_ptr<Bench> bench = make_bench(opt.workload);
  if (bench == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const int64_t bench_ready_ns = monotonic_ns();
  constexpr uint32_t n = kClients;

  std::vector<std::unique_ptr<ThreadState>> states;
  dc::util::SplitMix64 seeder(opt.seed);
  for (uint32_t t = 0; t < n; ++t) {
    states.push_back(std::make_unique<ThreadState>(seeder.next()));
    if (opt.trace) states.back()->ring = std::make_unique<SpanRing>();
  }

  // Phase schedule: the timed window is cut into slices of about a second,
  // and the end-to-end numbers are medians over slices, so a few seconds of
  // interference from outside the process do not move them. Traced runs
  // alternate untraced and traced slices.
  std::vector<std::pair<Phase, double>> phases;
  if (opt.setup_only) {
    phases.emplace_back(kUntraced, 0.0);
  } else {
    phases.emplace_back(kWarmup, kWarmupSeconds);
    const long slices =
        std::max(opt.trace ? 2L : 1L, std::lround(opt.seconds));
    for (long i = 0; i < slices; ++i)
      phases.emplace_back(opt.trace && i % 2 ? kTraced : kUntraced,
                          opt.seconds / static_cast<double>(slices));
  }

  std::atomic<uint8_t> phase{kWarmup};
  std::atomic<bool> stop{false};
  std::barrier<> start_line(n + 1), finish_line(n + 1);
  std::vector<std::string> errors;

  std::vector<std::thread> team;
  for (uint32_t t = 0; t < n; ++t) {
    team.emplace_back([&, t] {
      ThreadState& st = *states[t];
      const int64_t s0 = monotonic_ns();
      try {
        bench->worker_setup(t, st);
      } catch (const std::exception&) {
        st.fail("worker set-up threw");
      }
      st.setup_ns = monotonic_ns() - s0;
      for (;;) {
        start_line.arrive_and_wait();
        const auto ph = static_cast<Phase>(phase.load());
        if (ph == kFinish) break;
        Acc& acc = st.acc;
        const bool traced = ph == kTraced;
        const uint64_t c0 = tsc();
        do {
          bench->op(t, st, acc, traced);
        } while (!stop.load(std::memory_order_relaxed));
        acc.cycles += tsc() - c0;
        finish_line.arrive_and_wait();
      }
      try {
        bench->worker_teardown(t, st);
      } catch (const std::exception&) {
        st.fail("worker teardown threw");
      }
    });
  }

  CounterDelta delta[3];
  Acc total[3];
  std::vector<SliceStats> slices[3];
  double deferred_sum = 0.0;
  uint64_t deferred_samples = 0;
  for (const auto& [ph, secs] : phases) {
    phase.store(ph);
    stop.store(false);
    const Counters before = Counters::now();
    start_line.arrive_and_wait();
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(secs);
    while (std::chrono::steady_clock::now() < end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (ph == kTraced) {
        deferred_sum += bench->sample_deferred();
        ++deferred_samples;
      }
    }
    stop.store(true);
    finish_line.arrive_and_wait();
    delta[ph].add(before, Counters::now());
    if (ph == kWarmup) {
      for (auto& st : states) st->acc = Acc();
      continue;
    }
    bench->at_window_end();
    Acc slice;
    double ops_per_cycle = 0.0;
    for (auto& st : states) {
      slice.merge(st->acc);
      if (st->acc.cycles > 0)
        ops_per_cycle += static_cast<double>(st->acc.ops) /
                         static_cast<double>(st->acc.cycles);
      st->acc = Acc();
    }
    const LatencyHist all = slice.all_kinds();
    slices[ph].push_back(
        SliceStats{ops_per_cycle, all.quantile(0.50), all.quantile(0.99)});
    total[ph].merge(slice);
  }
  phase.store(kFinish);
  start_line.arrive_and_wait();
  for (auto& th : team) th.join();

  std::vector<ThreadState*> raw;
  for (auto& s : states) raw.push_back(s.get());
  bench->teardown(raw, errors);

  // Teardown checks.
  const dc::mem::PoolStats pool_end = dc::mem::pool_stats();
  if (const char* e = check_pool_ledger(pool_end, baseline_live))
    errors.emplace_back(e);
  const dc::htm::TxnStats htm_end = dc::htm::aggregate_stats();
  if (const char* e = check_dormant(htm_end, pool_end)) errors.emplace_back(e);

  // Each failed teardown check counts as one failed operation.
  uint64_t attempted = errors.size(), failed = errors.size();
  for (ThreadState* st : raw) {
    attempted += st->attempted;
    failed += st->failed;
    if (st->first_error != nullptr) errors.emplace_back(st->first_error);
  }
  const double cpns = dc::util::cycles_per_ns();
  // Set-up: process spawn until the structure is built (and prefilled),
  // plus the slowest client's own set-up (preregistration). Client thread
  // start and wake-up latency are harness and OS jitter, and left out.
  int64_t client_setup_ns = 0;
  for (ThreadState* st : raw)
    client_setup_ns = std::max(client_setup_ns, st->setup_ns);
  const double setup_s =
      opt.t0_ns > 0
          ? static_cast<double>(bench_ready_ns - opt.t0_ns + client_setup_ns) *
                1e-9
          : -1.0;

  // Medians over slices, per window type.
  const auto slice_median = [&](Phase ph, double SliceStats::*field) {
    std::vector<double> v;
    for (const SliceStats& s : slices[ph]) v.push_back(s.*field);
    return median(v);
  };
  double ops_per_s[3] = {0, 0, 0};
  for (Phase ph : {kUntraced, kTraced})
    ops_per_s[ph] = slice_median(ph, &SliceStats::ops_per_cycle) * cpns * 1e9;

  std::vector<std::pair<std::string, double>> m;
  const auto ns = [cpns](double cycles) { return cycles / cpns; };
  {
    const LatencyHist all = total[kUntraced].all_kinds();
    m.emplace_back("ops_per_s", ops_per_s[kUntraced]);
    m.emplace_back("op_p50_ns", ns(slice_median(kUntraced, &SliceStats::p50)));
    m.emplace_back("op_p99_ns", ns(slice_median(kUntraced, &SliceStats::p99)));
    m.emplace_back("peak_rss_mb", peak_rss_mb());
    m.emplace_back("setup_s", setup_s);
    m.emplace_back("failed_frac",
                   attempted == 0 ? 1.0
                                  : static_cast<double>(failed) /
                                        static_cast<double>(attempted));
    // Tail context: sample count and the highest percentile with at least
    // ten samples beyond it.
    const double samples = static_cast<double>(all.count());
    const double q_max = samples > 10 ? 1.0 - 10.0 / samples : 0.0;
    m.emplace_back("op_samples", samples);
    m.emplace_back("op_q_max", q_max);
    m.emplace_back("op_q_max_ns", ns(all.quantile(q_max)));
  }
  if (opt.trace) {
    const Acc& a = total[kTraced];
    const CounterDelta& d = delta[kTraced];
    const double ops = static_cast<double>(std::max<uint64_t>(a.ops, 1));
    const auto per_op = [ops](uint64_t v) { return static_cast<double>(v) / ops; };
    const auto per_kop = [ops](uint64_t v) {
      return 1000.0 * static_cast<double>(v) / ops;
    };
    const auto pct = [&](Kind k, double q) { return ns(a.hist[k].quantile(q)); };
    for (int k = 0; k < kNumKinds; ++k) {
      m.emplace_back(std::string(kSpanName[k]) + "_ns_p50",
                     pct(static_cast<Kind>(k), 0.50));
      m.emplace_back(std::string(kSpanName[k]) + "_ns_p99",
                     pct(static_cast<Kind>(k), 0.99));
    }
    const uint64_t collects = a.hist[kCollect].count();
    m.emplace_back("collect.ns_per_value",
                   a.collect_values == 0
                       ? 0.0
                       : ns(static_cast<double>(a.kind_cycles[kCollect])) /
                             static_cast<double>(a.collect_values));
    m.emplace_back("collect.values_per_collect",
                   collects == 0 ? 0.0
                                 : static_cast<double>(a.collect_values) /
                                       static_cast<double>(collects));
    const uint64_t dequeues = a.hist[kDequeue].count();
    m.emplace_back("queue.empty_dequeue_frac",
                   dequeues == 0 ? 0.0
                                 : static_cast<double>(a.empty_dequeues) /
                                       static_cast<double>(dequeues));
    m.emplace_back("reclaim.deferred_nodes",
                   deferred_samples == 0
                       ? 0.0
                       : deferred_sum / static_cast<double>(deferred_samples));
    m.emplace_back("htm.commits_per_op", per_op(d.commits));
    m.emplace_back("htm.attempts_per_commit",
                   d.commits == 0 ? 0.0
                                  : static_cast<double>(d.commits + d.aborts) /
                                        static_cast<double>(d.commits));
    m.emplace_back("htm.conflict_aborts_per_kop", per_kop(d.conflict_aborts));
    m.emplace_back("htm.tle_entries_per_kop", per_kop(d.tle_entries));
    m.emplace_back("htm.lock_fallbacks_per_kop", per_kop(d.lock_fallbacks));
    m.emplace_back("htm.storm_entries", static_cast<double>(d.storm_entries));
    m.emplace_back("htm.overflow_aborts",
                   static_cast<double>(d.overflow_aborts));
    m.emplace_back("htm.clock_resamples_per_op", per_op(d.clock_resamples));
    m.emplace_back("htm.clock_catchups_per_op", per_op(d.clock_catchups));
    m.emplace_back("htm.nontxn_stores_per_op", per_op(d.nontxn_stores));
    m.emplace_back("htm.writer_commits_per_op", per_op(d.writer_commits));
    m.emplace_back("htm.clock_bumps_per_op", per_op(d.clock_bumps));
    m.emplace_back("htm.sloppy_stamps_per_op", per_op(d.sloppy_stamps));
    m.emplace_back("htm.max_read_set",
                   static_cast<double>(htm_end.max_read_set));
    m.emplace_back("mem.allocs_per_op", per_op(d.allocs));
    m.emplace_back("mem.frees_per_op", per_op(d.frees));
    m.emplace_back("mem.os_bytes", static_cast<double>(pool_end.os_bytes));
    m.emplace_back("mem.alloc_failures",
                   static_cast<double>(pool_end.alloc_failures));
    m.emplace_back("trace.overhead_frac",
                   ops_per_s[kUntraced] > 0
                       ? 1.0 - ops_per_s[kTraced] / ops_per_s[kUntraced]
                       : 0.0);
    m.emplace_back("collect.footprint_bytes", bench->footprint_bytes);
    m.emplace_back("queue.retained_nodes_after_drain", bench->retained_nodes);
  }

  // Spans out.
  if (opt.trace && !opt.trace_out.empty()) {
    if (FILE* f = std::fopen(opt.trace_out.c_str(), "w")) {
      for (uint32_t t = 0; t < n; ++t) {
        raw[t]->ring->for_each([&](const Span& s) {
          std::fprintf(f,
                       "{\"thread\": %u, \"id\": %" PRIu64
                       ", \"parent\": %" PRIu64 ", \"req\": %" PRIu64
                       ", \"name\": \"%s\", \"start_ns\": %.1f, "
                       "\"end_ns\": %.1f}\n",
                       t, s.id, s.parent, s.req, kSpanName[s.name],
                       static_cast<double>(s.start) / cpns,
                       static_cast<double>(s.end) / cpns);
        });
      }
      std::fclose(f);
    } else {
      errors.emplace_back("trace: cannot write span file");
    }
  }

  std::printf("{\"config\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"errors\": [",
              config_json(opt).c_str(), attempted, failed);
  for (std::size_t i = 0; i < errors.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(errors[i]).c_str());
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(),
                m[i].second);
  std::printf("}}\n");
  return 0;
}

// Each output check must catch a planted violation and pass the clean case.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("# selftest %s: %s\n", ok ? "ok" : "FAILED", what);
    if (!ok) ++failures;
  };
  std::atomic<uint64_t> issued[2];
  issued[0].store(5);
  issued[1].store(5);
  int a = 0, b = 0;
  const std::vector<Binding> own{{&a, encode(0, 3)}, {&b, encode(0, 5)}};
  std::vector<Value> sorted;
  const auto collect_ok = [&](std::vector<Value> result) {
    return check_collect(result, own, 0, issued, 2, sorted) == nullptr;
  };
  expect(collect_ok({encode(1, 4), encode(0, 5), encode(0, 3), encode(0, 3)}),
         "collect: clean result passes");
  expect(!collect_ok({encode(1, 4), encode(0, 3)}),
         "collect: missing own handle is caught");
  expect(!collect_ok({encode(0, 3), encode(0, 5), encode(1, 6)}),
         "collect: never-bound value is caught");
  expect(!collect_ok({encode(0, 3), encode(0, 5), encode(0, 2)}),
         "collect: stale own value is caught");

  std::vector<uint64_t> last(2, 0);
  expect(check_dequeue(encode(0, 1), last, issued) == nullptr &&
             check_dequeue(encode(1, 1), last, issued) == nullptr &&
             check_dequeue(encode(0, 3), last, issued) == nullptr,
         "queue: in-order dequeues pass");
  expect(check_dequeue(encode(0, 2), last, issued) != nullptr,
         "queue: reordered dequeue is caught");
  expect(check_dequeue(encode(1, 6), last, issued) != nullptr,
         "queue: never-enqueued value is caught");

  const uint64_t baseline = dc::mem::pool_stats().live_blocks;
  void* leaked = dc::mem::pool_allocate(64);
  expect(check_pool_ledger(dc::mem::pool_stats(), baseline) != nullptr,
         "pool: leaked block is caught");
  dc::mem::pool_deallocate(leaked, 64);
  expect(check_pool_ledger(dc::mem::pool_stats(), baseline) == nullptr,
         "pool: balanced ledger passes");

  dc::htm::TxnStats htm{};
  dc::mem::PoolStats pool{};
  expect(check_dormant(htm, pool) == nullptr, "dormancy: clean passes");
  htm.faults_injected = 1;
  expect(check_dormant(htm, pool) != nullptr,
         "dormancy: injected fault is caught");
  std::printf("{\"selftest_failures\": %d}\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = val();
    else if (a == "--seed") opt.seed = std::stoull(val());
    else if (a == "--seconds") opt.seconds = std::stod(val());
    else if (a == "--trace") opt.trace = val() != "0";
    else if (a == "--setup-only") opt.setup_only = true;
    else if (a == "--selftest") return selftest();
    else if (a == "--t0-ns") opt.t0_ns = std::stoll(val());
    else if (a == "--trace-out") opt.trace_out = val();
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  return run(opt);
}
