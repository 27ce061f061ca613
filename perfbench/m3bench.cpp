// m3bench — one measured round of one benchmark workload.
//
// A round is one process driving one 8-rank runtime::World, confined to a
// single CPU taken from the process's own affinity set (the simulator runs
// exactly one simulated process at a time, so one CPU measures the program
// rather than cross-CPU wake-ups). The round builds the World, runs the
// workload's set-up, runs a fixed number of data-path ops (the measured
// phase), checks every oracle, and prints one JSON object on stdout:
//
//   {"workload", "mode", "cpu", "ops", "failed", "oracle_failures",
//    "host": {...}, "virtual": {...}, "trace": {...}}
//
// `host` holds host-clock numbers, `virtual` every deterministic number
// (virtual time and program counters; equal for equal seeds), and `trace`
// the attribution segments of a traced round. Before the World runs, a
// first line {"planned": N} announces the round's op count, so a round that
// dies still accounts its ops.
//
//   m3bench --workload NAME --seed N [--mode plain|split|traced]
//           [--cpu all]
//
// A round pins itself to the last CPU of its affinity set, away from CPU
// 0's interrupt load; --cpu all leaves the affinity set alone (the unpinned
// reference figure).
//
// Modes: plain runs untraced with no per-call timers and probes the host's
// speed (the end-to-end numbers; see HostSpeed); split adds thread-CPU
// timers around the public calls into each layer (the host-time layer
// split); traced additionally attaches a trace::Recorder with an
// OpTimeline (the virtual-time layer split).
//
// Host-time layer numbers are taken from outside the program: rank bodies
// read CLOCK_THREAD_CPUTIME_ID around public calls, rank threads read the
// main (scheduler) thread's CPU clock at the phase edges, and getrusage
// gives process CPU, sys time, faults and context switches.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <array>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/kv_store.hpp"
#include "common/diagnostics.hpp"
#include "core/rma_engine.hpp"
#include "mpi2/win.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"
#include "topo/topology.hpp"
#include "trace/attribution.hpp"
#include "trace/recorder.hpp"

using namespace m3rma;

namespace {

using Clock = std::chrono::steady_clock;
// Taken during static initialization, before main: the round's "process
// start" for setup_s.
const Clock::time_point g_process_start = Clock::now();

constexpr int kRanks = 8;
constexpr std::uint64_t kProbes = 16;  // host-speed probes per measured phase

// ------------------------------------------------------------ small tools

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's rng streams.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::uint64_t mix(std::uint64_t x) { return Rng{x}.next(); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix(seed * 0x100000001b3ULL + stream);
}

/// A payload tag naming its writer and sequence number, with 32 check bits
/// so a word assembled from two different tags is rejected.
std::uint64_t make_tag(std::uint64_t writer, std::uint64_t seq,
                       std::uint64_t salt) {
  const std::uint64_t hi = (writer << 56) | ((seq & 0xFFFFFFULL) << 32);
  return hi | (mix(hi ^ salt) & 0xFFFFFFFFULL);
}
bool tag_ok(std::uint64_t tag, std::uint64_t salt) {
  const std::uint64_t hi = tag & ~0xFFFFFFFFULL;
  return (mix(hi ^ salt) & 0xFFFFFFFFULL) == (tag & 0xFFFFFFFFULL);
}
std::uint64_t tag_writer(std::uint64_t tag) { return tag >> 56; }
std::uint64_t tag_seq(std::uint64_t tag) { return (tag >> 32) & 0xFFFFFFULL; }

/// Payload layout: the first `head` words are given, every later word i is
/// mix(word[head-1] ^ i), so one corrupted or foreign byte anywhere shows.
void fill_payload(std::byte* dst, std::size_t bytes,
                  std::initializer_list<std::uint64_t> head) {
  std::uint64_t last = 0;
  std::size_t i = 0;
  for (std::uint64_t h : head) {
    if ((i + 1) * 8 > bytes) break;
    std::memcpy(dst + i * 8, &h, 8);
    last = h;
    ++i;
  }
  for (; (i + 1) * 8 <= bytes; ++i) {
    const std::uint64_t w = mix(last ^ (i * 0x9e3779b97f4a7c15ULL));
    std::memcpy(dst + i * 8, &w, 8);
  }
}
std::uint64_t word_at(const std::byte* p, std::size_t i) {
  std::uint64_t w;
  std::memcpy(&w, p + i * 8, 8);
  return w;
}
bool body_ok(const std::byte* p, std::size_t bytes, std::size_t head) {
  const std::uint64_t last = word_at(p, head - 1);
  for (std::size_t i = head; (i + 1) * 8 <= bytes; ++i) {
    if (word_at(p, i) != mix(last ^ (i * 0x9e3779b97f4a7c15ULL))) {
      return false;
    }
  }
  return true;
}

std::uint64_t clock_ns(clockid_t c) {
  timespec ts{};
  clock_gettime(c, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t tv_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
}

/// Nearest-rank percentile (the convention trace::Recorder uses).
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double per(double num, std::uint64_t den) {
  return den == 0 ? 0.0 : num / static_cast<double>(den);
}

// ------------------------------------------------------------ calibration

/// The Cray-XT5-like machine of the reproduction benches (SeaStar2+-ish
/// latency and bandwidth, in-order delivery, Portals ACK events, NIC
/// atomics). Kept here so the benchmark's inputs do not move when a bench
/// helper changes.
runtime::WorldConfig xt5_config(std::uint64_t seed) {
  runtime::WorldConfig c;
  c.ranks = kRanks;
  c.caps.ordered_delivery = true;
  c.caps.remote_completion_events = true;
  c.caps.native_atomics = true;
  c.costs.latency_ns = 4200;
  c.costs.inject_overhead_ns = 1200;
  c.costs.bytes_per_ns = 1.6;
  c.costs.delivery_overhead_ns = 400;
  c.costs.loopback_latency_ns = 250;
  c.costs.local_completion_ns = 3000;
  c.costs.jitter_ns = 3000;
  c.costs.delivery_occupancy_ns = 250;
  c.seed = seed;
  return c;
}

// ------------------------------------------------------- host speed probe

constexpr int kProbeHandoffs = 256;      // baton round trips per probe
constexpr double kRefHandoffNs = 6000;   // one round trip on the reference host
constexpr int kSetupProbes = 3;          // probes before the World is built

/// Measures how fast the shared host runs right now. The host's speed
/// swings by up to 1.7x within minutes (other tenants on the same cores),
/// and every host time of a round swings with it. A probe times a fixed
/// piece of work, kProbeHandoffs round trips of a baton between the
/// calling thread and a peer thread on the same CPU: the simulator's own
/// handoff pattern, whose time tracked a round's measured phase with a
/// correlation of 0.94. slowdown() is the median probe time over the time
/// of the same work on the reference host, so a plain round reports its
/// host times as they would read on that host.
class HostSpeed {
 public:
  HostSpeed() : peer_([this] { serve(); }) {}
  ~HostSpeed() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    peer_.join();
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs one probe; returns its host wall time in ns.
  std::uint64_t probe() {
    const Clock::time_point t0 = Clock::now();
    {
      std::unique_lock<std::mutex> l(mu_);
      for (int i = 0; i < kProbeHandoffs; ++i) {
        turn_ = 1;
        cv_.notify_all();
        cv_.wait(l, [this] { return turn_ == 0; });
      }
    }
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    samples_.push_back(ns);
    return ns;
  }

  /// Host time here over host time on the reference host (> 1: slower).
  double slowdown() const {
    std::vector<std::uint64_t> v = samples_;
    std::sort(v.begin(), v.end());
    return static_cast<double>(percentile(v, 50.0)) /
           (kProbeHandoffs * kRefHandoffNs);
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
      cv_.wait(l, [this] { return turn_ == 1 || stop_; });
      if (stop_) return;
      turn_ = 0;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int turn_ = 0;
  bool stop_ = false;
  std::vector<std::uint64_t> samples_;
  std::thread peer_;  // last, so it starts after the members it uses
};

// ------------------------------------------------------------ round state

enum class Mode { plain, split, traced };

struct CallTimer {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  double mean() const { return per(static_cast<double>(ns), calls); }
};

/// Host counters at one edge of the measured phase.
struct HostSnap {
  Clock::time_point wall{};
  std::uint64_t user_ns = 0, sys_ns = 0;
  std::uint64_t minflt = 0, ctxsw = 0;
  std::uint64_t main_cpu_ns = 0;
  std::uint64_t events = 0, switches = 0;
  std::uint64_t fab_msgs = 0, fab_bytes = 0;
  std::vector<std::uint64_t> link_busy;
};

/// Everything the rank bodies of one round share. The simulator runs one
/// rank at a time and hands the baton through a mutex, so plain fields are
/// race-free.
struct Round {
  Mode mode = Mode::plain;
  std::uint64_t seed = 1;
  bool timing = false;  // per-call thread-CPU timers (split and traced)
  runtime::World* world = nullptr;
  clockid_t main_clock{};

  // Measured phase edges.
  bool started = false;
  HostSnap start, end;
  sim::Time vt_start = 0, vt_end = 0;
  std::vector<std::uint64_t> rank_cpu_at_begin =
      std::vector<std::uint64_t>(kRanks, 0);
  std::uint64_t rank_cpu_ns = 0;

  // Plain rounds probe the host's speed every `probe_ops` completed ops;
  // the probes' own wall and CPU time is taken out of the measured phase.
  HostSpeed* speed = nullptr;
  std::uint64_t probe_ops = 1;
  std::uint64_t probe_wall_ns = 0, probe_cpu_ns = 0;

  // Data-path ops of the measured phase.
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> lat;                       // all ops, ns
  std::map<std::string, std::vector<std::uint64_t>> series;  // by kind
  std::vector<sim::Time> done_at;                       // completion instants

  // Per-call host timers.
  CallTimer put, complete, start_op, finish_op, incr, epoch;

  // Oracle verdicts.
  std::vector<std::string> oracle_failures;
  std::map<std::string, double> virt;  // workload-specific virtual numbers

  void fail(const std::string& what) {
    if (oracle_failures.size() < 20) oracle_failures.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  template <class F>
  auto timed(CallTimer& t, F&& f) {
    if (!timing) return f();
    const std::uint64_t t0 = thread_cpu_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      f();
      t.ns += thread_cpu_ns() - t0;
      t.calls += 1;
    } else {
      auto r = f();
      t.ns += thread_cpu_ns() - t0;
      t.calls += 1;
      return r;
    }
  }

  HostSnap snap() const {
    HostSnap s;
    s.wall = Clock::now();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.user_ns = tv_ns(ru.ru_utime);
    s.sys_ns = tv_ns(ru.ru_stime);
    s.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
    s.ctxsw = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    s.main_cpu_ns = clock_ns(main_clock);
    s.events = world->engine().events_processed();
    s.switches = world->engine().context_switches();
    s.fab_msgs = world->fabric().total_messages();
    s.fab_bytes = world->fabric().total_bytes();
    if (const topo::TopologyModel* m = world->fabric().topology()) {
      for (int l = 0; l < m->topology().link_count(); ++l) {
        s.link_busy.push_back(m->state(l).busy_ns);
      }
    }
    return s;
  }

  /// Called by every rank that issues measured ops, right before its first.
  void phase_begin(runtime::Rank& r) {
    if (!started) {
      started = true;
      start = snap();
      vt_start = r.ctx().now();
    }
    rank_cpu_at_begin[static_cast<std::size_t>(r.id())] = thread_cpu_ns();
  }
  /// Called by the same ranks after their last measured op; the last caller
  /// closes the phase.
  void phase_end(runtime::Rank& r) {
    rank_cpu_ns +=
        thread_cpu_ns() - rank_cpu_at_begin[static_cast<std::size_t>(r.id())];
    end = snap();
  }

  void record(const std::string& kind, sim::Time t0, sim::Time t1) {
    ops += 1;
    lat.push_back(t1 - t0);
    series[kind].push_back(t1 - t0);
    done_at.push_back(t1);
    vt_end = std::max(vt_end, t1);
    if (speed != nullptr && ops % probe_ops == 0) {
      const std::uint64_t cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
      probe_wall_ns += speed->probe();
      probe_cpu_ns += clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    }
  }
};

// ------------------------------------------- 7 -> 1 put and lock storms

constexpr std::uint64_t kMinBytes = 8, kRegion = 1024;
constexpr sim::Time kMaxStagger = 2000;  // per-origin phase start spread
constexpr std::uint64_t kPayloadSalt = 0x5eed0f1a2b3c4d5eULL;

/// A storm is a seed-shuffled list of phases, each naming the op kind (the
/// latency series) every origin issues `per_origin` times at offset 0 of
/// rank 0's region; a phase closes with a barrier.
std::vector<std::string> shuffled(std::vector<std::string> v,
                                  std::uint64_t seed) {
  Rng g{derive_seed(seed, 1)};
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[g.below(i)]);
  }
  return v;
}

/// Payload size of an origin's seq-th op: uniform over [8 B, 1 KiB], so
/// the latency distribution is continuous in the seed.
std::uint64_t op_bytes(std::uint64_t seed, std::uint64_t origin,
                       std::uint64_t seq) {
  return kMinBytes + mix(derive_seed(seed, 3) ^ (origin << 40) ^ seq) %
                         (kRegion - kMinBytes + 1);
}

/// Per-(phase, origin) start offset: the seed's perturbation of the
/// interleaving (the network is ordered, so no jitter draws exist).
sim::Time stagger(std::uint64_t seed, std::size_t phase, int origin) {
  return mix(derive_seed(seed, 2) ^ (phase << 8) ^
             static_cast<std::uint64_t>(origin)) %
         kMaxStagger;
}

/// The head of rank 0's region must hold exactly one whole payload
/// written in phase `p` (every origin's seqs of phase p are [p*K, p*K+K)).
void check_region(Round& R, const std::byte* region, std::size_t p,
                  std::uint64_t per_origin, const std::string& what) {
  const std::uint64_t tag = word_at(region, 0);
  const std::uint64_t o = tag_writer(tag);
  const std::uint64_t seq = tag_seq(tag);
  const bool ok = tag_ok(tag, kPayloadSalt) && o >= 1 && o < kRanks &&
                  seq / per_origin == p &&
                  body_ok(region, op_bytes(R.seed, o, seq), 1);
  R.check(ok, what + " phase " + std::to_string(p) +
                  ": region is not one whole payload of that phase");
}

/// Lower bounds on an op's virtual latency from the WorldConfig constants.
struct Floors {
  sim::Time inject = 0;   // any op pays its origin injection
  sim::Time local = 0;    // a direct put's SEND event follows injection
  sim::Time one_way = 0;  // fastest single wire traversal between ranks
  sim::Time round_trip() const { return inject + 2 * one_way; }
};
Floors floors_of(const runtime::WorldConfig& c) {
  Floors f;
  f.inject = c.costs.inject_overhead_ns;
  f.local = c.costs.local_completion_ns;
  f.one_way = c.costs.latency_ns;
  if (c.topo && c.topo->kind == topo::Kind::torus3d) {
    // Derived hop latency: flat latency / diameter (sum of half-extents).
    const int diam =
        c.topo->dim_x / 2 + c.topo->dim_y / 2 + c.topo->dim_z / 2;
    f.one_way = std::max<sim::Time>(c.costs.latency_ns /
                                        static_cast<sim::Time>(diam), 1);
  }
  return f;
}

// fig2_put_storm: Figure 2's pattern through one comm-thread engine.
constexpr std::uint64_t kFig2PerOrigin = 64;

constexpr int kPhaseRepeats = 8;  // phases per op kind

// The two local-completion series (which overlap in the paper) get 7
// phases each and the two series Figure 2 prices get 9 each. With equal
// shares the nearest-rank median is the slowest local-completion put, the
// same 4.84 us on every seed; this way it falls inside a series.
std::vector<std::string> fig2_phases(std::uint64_t seed) {
  std::vector<std::string> v;
  for (const char* k : {"none", "ordering"}) {
    for (int i = 0; i < kPhaseRepeats - 1; ++i) v.push_back(k);
  }
  for (const char* k : {"remote_completion", "atomicity"}) {
    for (int i = 0; i < kPhaseRepeats + 1; ++i) v.push_back(k);
  }
  return shuffled(std::move(v), seed);
}

core::Attrs fig2_attrs(const std::string& kind) {
  core::Attrs a(core::RmaAttr::blocking);
  if (kind == "ordering") a = a | core::RmaAttr::ordering;
  if (kind == "remote_completion") a = a | core::RmaAttr::remote_completion;
  if (kind == "atomicity") a = a | core::RmaAttr::atomicity;
  return a;
}

std::uint64_t fig2_planned() {
  return fig2_phases(0).size() * kFig2PerOrigin * (kRanks - 1);
}

void run_fig2(Round& R, const runtime::WorldConfig& cfg) {
  const auto phases = fig2_phases(R.seed);
  const Floors fl = floors_of(cfg);
  R.world->run([&](runtime::Rank& r) {
    core::EngineConfig ec;
    ec.serializer = core::SerializerKind::comm_thread;
    core::RmaEngine rma(r, r.comm_world(), ec);
    auto buf = r.alloc(kRegion);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    auto src = r.alloc(kRegion);
    r.comm_world().barrier();
    const auto me = static_cast<std::uint64_t>(r.id());
    R.phase_begin(r);
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const std::string& kind = phases[p];
      if (r.id() != 0) {
        r.ctx().delay(stagger(R.seed, p, r.id()));
        const core::Attrs attrs = fig2_attrs(kind);
        // Local-completion puts wait for the SEND event; the atomicity
        // puts go through the comm-thread AM path and pay injection only.
        const sim::Time floor = kind == "remote_completion" ? fl.round_trip()
                                : kind == "atomicity"       ? fl.inject
                                                            : fl.inject + fl.local;
        for (std::uint64_t k = 0; k < kFig2PerOrigin; ++k) {
          const std::uint64_t seq = p * kFig2PerOrigin + k;
          const std::uint64_t bytes = op_bytes(R.seed, me, seq);
          fill_payload(src.data, bytes, {make_tag(me, seq, kPayloadSalt)});
          const sim::Time t0 = r.ctx().now();
          core::Request req = R.timed(R.put, [&] {
            return rma.put_bytes(src.addr, mems[0], 0, bytes, 0, attrs);
          });
          const sim::Time t1 = r.ctx().now();
          if (!req.done() || req.failed()) R.failed += 1;
          R.check(t1 - t0 >= floor,
                  "fig2 " + kind + " put below its latency floor");
          R.record(kind, t0, t1);
        }
        const auto dead = R.timed(R.complete, [&] { return rma.complete(0); });
        R.check(dead.empty(), "fig2 complete(0) reported a failed target");
      }
      r.comm_world().barrier();
      if (kind == "atomicity") {
        // Checked between two barriers: every put of the phase has landed
        // and no origin has started the next phase yet.
        if (r.id() == 0) check_region(R, buf.data, p, kFig2PerOrigin, "fig2");
        r.comm_world().barrier();
      }
    }
    R.phase_end(r);
    rma.complete_collective();
  });
}

// lock_epochs: the 7 -> 1 pattern through both AM lock managers.
constexpr std::uint64_t kLockPerOrigin = 96;

std::vector<std::string> lock_phases(std::uint64_t seed) {
  std::vector<std::string> v;
  for (const char* k : {"coarse_lock", "mpi2_epoch"}) {
    for (int i = 0; i < kPhaseRepeats; ++i) v.push_back(k);
  }
  return shuffled(std::move(v), seed);
}

std::uint64_t lock_planned() {
  return lock_phases(0).size() * kLockPerOrigin * (kRanks - 1);
}

void run_lock(Round& R, const runtime::WorldConfig& cfg) {
  const auto phases = lock_phases(R.seed);
  const Floors fl = floors_of(cfg);
  R.world->run([&](runtime::Rank& r) {
    core::EngineConfig ec;
    ec.serializer = core::SerializerKind::coarse_lock;
    core::RmaEngine rma(r, r.comm_world(), ec);
    auto buf = r.alloc(kRegion);
    auto mems = rma.exchange_all(rma.attach(buf.addr, buf.size));
    auto wbuf = r.alloc(kRegion);
    mpi2::Win win(r, r.comm_world(), wbuf.addr, wbuf.size);
    auto src = r.alloc(kRegion);
    r.comm_world().barrier();
    const auto me = static_cast<std::uint64_t>(r.id());
    const core::Attrs attrs =
        core::Attrs(core::RmaAttr::atomicity) | core::RmaAttr::blocking;
    R.phase_begin(r);
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const std::string& kind = phases[p];
      const bool mpi2_phase = kind == "mpi2_epoch";
      if (r.id() != 0) {
        r.ctx().delay(stagger(R.seed, p, r.id()));
        for (std::uint64_t k = 0; k < kLockPerOrigin; ++k) {
          const std::uint64_t seq = p * kLockPerOrigin + k;
          const std::uint64_t bytes = op_bytes(R.seed, me, seq);
          fill_payload(src.data, bytes, {make_tag(me, seq, kPayloadSalt)});
          const sim::Time t0 = r.ctx().now();
          if (mpi2_phase) {
            R.timed(R.epoch, [&] {
              win.lock(mpi2::LockType::exclusive, 0);
              win.put_bytes(src.addr, 0, 0, bytes);
              win.unlock(0);
            });
          } else {
            core::Request req = R.timed(R.put, [&] {
              return rma.put_bytes(src.addr, mems[0], 0, bytes, 0, attrs);
            });
            if (!req.done() || req.failed()) R.failed += 1;
          }
          const sim::Time t1 = r.ctx().now();
          // Both lock managers need a request/grant round trip first.
          R.check(t1 - t0 >= fl.round_trip(),
                  kind + " op below its latency floor");
          R.record(kind, t0, t1);
        }
        if (!mpi2_phase) {
          const auto dead =
              R.timed(R.complete, [&] { return rma.complete(0); });
          R.check(dead.empty(), "lock complete(0) reported a failed target");
        }
      }
      r.comm_world().barrier();
      if (r.id() == 0) {
        check_region(R, mpi2_phase ? wbuf.data : buf.data, p,
                     kLockPerOrigin, kind);
      }
      r.comm_world().barrier();
    }
    R.phase_end(r);
    rma.complete_collective();
  });
}

// ------------------------------------------------------------ KV workloads

constexpr int kServers = 4;
constexpr int kClients = kRanks - kServers;
constexpr std::uint64_t kKeySpace = 2048;
constexpr std::uint64_t kSlotsPerShard = 1024;
constexpr std::uint64_t kValueBytes = 2048;
constexpr int kWindow = 8;
constexpr std::uint64_t kKvOpsPerClient = 5000;
constexpr std::uint64_t kKvSalt = 0x6b76a11ce0ddba11ULL;
// kv_replicated_failover: server rank 1 dies, announced, inside the
// measured phase (which spans roughly 28-46 ms of virtual time).
constexpr int kVictim = 1;
constexpr sim::Time kCrashAt = 33'000'000;
// For this long before the crash every client op goes to a key on the
// victim's shard, so the crash always catches ops in flight to it.
constexpr sim::Time kDoomedBurst = 50'000;

struct KvSpec {
  bool failover = false;
  double zipf_s = 0.0;
  double get_frac = 0.0, put_frac = 0.0;  // the rest is fetch_add
};

/// Inverse-CDF Zipf sampler over [0, n): key k has weight 1/(k+1)^s, so
/// key 0 is the hottest and range sharding puts the head on shard 0.
class Zipf {
 public:
  Zipf(std::uint64_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::uint64_t draw(Rng& g) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), g.unit());
    return std::min<std::uint64_t>(
        static_cast<std::uint64_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Who preloads a key, i.e. the writer of its seq-0 value.
std::uint64_t preloader(const KvSpec& s, std::uint64_t key) {
  return s.failover ? key / (kKeySpace / kClients) : key % kClients;
}

std::uint64_t kv_planned() { return kKvOpsPerClient * kClients; }

void run_kv(Round& R, const runtime::WorldConfig& cfg, const KvSpec& spec) {
  const Floors fl = floors_of(cfg);
  // Write log, shared by all clients: keys of writer w's seq 1, 2, ...
  std::vector<std::vector<std::uint64_t>> write_log(kClients);
  std::vector<std::uint64_t> incrs(kKeySpace, 0);  // fetch_adds issued
  std::vector<std::uint64_t> shard_ops(kServers, 0);
  std::uint64_t cache_hits = 0, kv_calls = 0, cas_conflicts = 0;
  std::uint64_t mirror_bytes = 0;
  core::OpStats eng_total;
  const auto add_stats = [&](const core::OpStats& s) {
    eng_total.rescued_ops += s.rescued_ops;
    eng_total.retargeted_ops += s.retargeted_ops;
    eng_total.reissued_gets += s.reissued_gets;
    eng_total.rereplications += s.rereplications;
    eng_total.rerepl_bytes += s.rerepl_bytes;
  };
  const Zipf zipf(kKeySpace, spec.zipf_s);

  R.world->run([&](runtime::Rank& r) {
    core::RmaEngine eng(r, r.comm_world());
    apps::KvConfig kc;
    kc.servers = kServers;
    kc.slots_per_shard = kSlotsPerShard;
    kc.value_bytes = kValueBytes;
    kc.key_space = kKeySpace;
    // Range sharding puts the Zipf head on shard 0; hash sharding spreads
    // every client's own key range over all shards, the victim's included.
    kc.sharding = spec.failover ? apps::Sharding::hash : apps::Sharding::range;
    apps::KvStore kv(r, eng, kc);
    // Client-only communicator, split before any crash.
    auto clients = r.comm_world().split(kv.is_server() ? -1 : 0, r.id());
    if (kv.is_server()) {
      if (spec.failover && r.id() == kVictim) {
        r.ctx().delay(10 * kCrashAt);  // idles until its scheduled death
        return;
      }
      eng.complete_collective();
      add_stats(eng.stats());
      return;
    }
    const auto c = static_cast<std::uint64_t>(r.id() - kServers);
    const std::uint64_t range = kKeySpace / kClients;
    std::vector<std::byte> val(kValueBytes), out(kValueBytes);
    const auto value_for = [&](std::uint64_t key, std::uint64_t writer,
                               std::uint64_t seq) {
      fill_payload(val.data(), val.size(),
                   {key, make_tag(writer, seq, kKvSalt ^ key)});
    };
    // A read must name its own key and a write that was issued to it.
    const auto read_ok = [&](std::uint64_t key) {
      const std::uint64_t tag = word_at(out.data(), 1);
      if (word_at(out.data(), 0) != key || !tag_ok(tag, kKvSalt ^ key)) {
        return false;
      }
      const std::uint64_t w = tag_writer(tag), seq = tag_seq(tag);
      if (w >= kClients || !body_ok(out.data(), out.size(), 2)) return false;
      if (seq == 0) return w == preloader(spec, key);
      return seq <= write_log[w].size() && write_log[w][seq - 1] == key;
    };

    // Preload this client's keys (seq 0), then cache every key it uses.
    std::vector<std::uint64_t> own;
    for (std::uint64_t k = 0; k < kKeySpace; ++k) {
      if (preloader(spec, k) == c) own.push_back(k);
    }
    for (std::uint64_t k : own) {
      value_for(k, c, 0);
      const apps::KvOutcome o = kv.put(k, val);
      R.check(o == apps::KvOutcome::inserted, "kv preload insert failed");
    }
    clients->barrier();
    const std::uint64_t lo = spec.failover ? c * range : 0;
    const std::uint64_t hi = spec.failover ? lo + range : kKeySpace;
    std::vector<std::uint64_t> doomed;  // own keys on the victim's shard
    for (std::uint64_t k = lo; k < hi; ++k) {
      if (kv.shard_of(k) == kVictim) doomed.push_back(k);
    }
    for (std::uint64_t k = lo; k < hi; ++k) {
      R.check(kv.get(k, out) == apps::KvOutcome::hit && read_ok(k),
              "kv warm-up read failed its oracle");
    }
    clients->barrier();

    struct Inflight {
      apps::KvStore::AsyncOp op;
      std::uint64_t key = 0;
      std::uint64_t tag = 0;  // puts: the written tag
      sim::Time issued = 0;
      bool is_put = false;
    };
    std::deque<Inflight> infl;
    std::vector<std::uint64_t> acked(kKeySpace, 0);  // last acked put tag
    std::vector<std::uint8_t> put_inflight(kKeySpace, 0);
    for (std::uint64_t k : own) acked[k] = make_tag(c, 0, kKvSalt ^ k);
    Rng g{derive_seed(R.seed, 16 + c)};
    const apps::KvStats before = kv.stats();
    const std::uint64_t mirror_before = eng.stats().mirror_bytes;

    const auto retire = [&](Inflight& f) {
      const apps::KvOutcome o =
          R.timed(R.finish_op, [&] { return kv.finish(f.op, out); });
      const sim::Time now = r.ctx().now();
      if (f.is_put) {
        put_inflight[f.key] = 0;
        if (o == apps::KvOutcome::updated) {
          acked[f.key] = f.tag;
        } else {
          R.failed += 1;
        }
        R.check(now - f.issued >= fl.round_trip(),
                "kv put below its latency floor");
        R.record("put", f.issued, now);
      } else {
        if (o == apps::KvOutcome::hit) {
          R.check(read_ok(f.key), "kv get returned a value never written");
        } else {
          R.failed += 1;
        }
        R.check(now - f.issued >= fl.round_trip(),
                "kv get below its latency floor");
        R.record("get", f.issued, now);
      }
    };

    R.phase_begin(r);
    for (std::uint64_t i = 0; i < kKvOpsPerClient; ++i) {
      const double u = g.unit();
      std::uint64_t key = spec.failover ? lo + g.below(range) : zipf.draw(g);
      if (spec.failover && r.ctx().now() + kDoomedBurst >= kCrashAt &&
          r.ctx().now() < kCrashAt) {
        key = doomed[key % doomed.size()];
      }
      shard_ops[static_cast<std::size_t>(kv.shard_of(key))] += 1;
      if (u >= spec.get_frac + spec.put_frac) {
        incrs[key] += 1;
        const sim::Time t0 = r.ctx().now();
        const auto prev =
            R.timed(R.incr, [&] { return kv.incr(key, 1); });
        const sim::Time t1 = r.ctx().now();
        if (!prev) R.failed += 1;
        R.check(t1 - t0 >= 2 * fl.one_way, "kv fetch_add below its floor");
        R.record("rmw", t0, t1);
        continue;
      }
      if (static_cast<int>(infl.size()) >= kWindow) {
        retire(infl.front());
        infl.pop_front();
      }
      Inflight f;
      f.is_put = u >= spec.get_frac;
      if (f.is_put && spec.failover) {
        // One put per key in flight, so "last acknowledged" is defined.
        while (put_inflight[key] != 0) key = lo + (key - lo + 1) % range;
      }
      f.key = key;
      f.issued = r.ctx().now();
      if (f.is_put) {
        write_log[c].push_back(key);
        f.tag = make_tag(c, write_log[c].size(), kKvSalt ^ key);
        value_for(key, c, write_log[c].size());
        put_inflight[key] = 1;
        f.op = R.timed(R.start_op, [&] { return kv.start_put(key, val); });
      } else {
        f.op = R.timed(R.start_op, [&] { return kv.start_get(key); });
      }
      infl.push_back(std::move(f));
    }
    while (!infl.empty()) {
      retire(infl.front());
      infl.pop_front();
    }
    R.phase_end(r);
    const apps::KvStats& after = kv.stats();
    cache_hits += after.cache_hits - before.cache_hits;
    kv_calls += (after.gets - before.gets) + (after.puts - before.puts) +
                (after.incrs - before.incrs);
    cas_conflicts += after.cas_conflicts;
    R.failed += after.failed - before.failed;
    mirror_bytes += eng.stats().mirror_bytes - mirror_before;
    clients->barrier();

    // Counters: each equals the fetch_adds issued on its key.
    for (std::uint64_t k : own) {
      const auto v = kv.incr(k, 0);
      R.check(v.has_value() && *v == incrs[k],
              "kv counter differs from the fetch_adds issued on its key");
    }
    if (spec.failover) {
      // Every acknowledged put reads back with its last acknowledged value.
      for (std::uint64_t k = lo; k < hi; ++k) {
        R.check(kv.get(k, out) == apps::KvOutcome::hit &&
                    word_at(out.data(), 1) == acked[k] && read_ok(k),
                "kv acknowledged put lost its last value");
      }
    }
    if (c == 0) {
      std::uint64_t occ = 0;
      for (int s = 0; s < kServers; ++s) occ += kv.shard_occupancy(s);
      R.check(occ == kKeySpace, "kv shard occupancies do not sum to the "
                                "key space");
    }
    R.check(kv.stats().lost == 0, "kv op reported replica_lost");
    clients->barrier();
    eng.complete_collective();
    add_stats(eng.stats());
  });

  const double ops = static_cast<double>(R.ops);
  R.virt["apps.cache_hit_ratio"] = per(static_cast<double>(cache_hits),
                                       kv_calls);
  R.virt["apps.cas_conflicts"] = static_cast<double>(cas_conflicts);
  R.virt["apps.hot_shard_pct"] =
      100.0 *
      static_cast<double>(*std::max_element(shard_ops.begin(),
                                            shard_ops.end())) /
      ops;
  R.virt["core.mirror_bytes_per_op"] =
      per(static_cast<double>(mirror_bytes), R.ops);
  R.virt["core.rescued_ops"] = static_cast<double>(eng_total.rescued_ops);
  R.virt["core.retargeted_ops"] =
      static_cast<double>(eng_total.retargeted_ops);
  R.virt["core.reissued_gets"] = static_cast<double>(eng_total.reissued_gets);
  R.virt["core.rereplications"] =
      static_cast<double>(eng_total.rereplications);
  R.virt["core.rerepl_bytes"] = static_cast<double>(eng_total.rerepl_bytes);

  if (spec.failover) {
    const auto& dead = R.world->failed_ranks();
    R.check(dead.size() == 1 && dead.front() == kVictim,
            "failover: the scheduled crash did not happen");
    R.check(kCrashAt > R.vt_start && kCrashAt < R.vt_end,
            "failover: the crash fell outside the measured phase");
    R.check(eng_total.rescued_ops > 0 && eng_total.retargeted_ops > 0,
            "failover: no op was rescued or retargeted");
    // Worst gap between completions that straddles the crash.
    std::vector<sim::Time> done = R.done_at;
    std::sort(done.begin(), done.end());
    sim::Time stall = 0;
    for (std::size_t i = 1; i < done.size(); ++i) {
      if (done[i - 1] <= kCrashAt && done[i] > kCrashAt) {
        stall = done[i] - done[i - 1];
        break;
      }
    }
    R.virt["apps.failover_stall_us"] = us(stall);
  }
}

// ------------------------------------------------------------ reporting

struct Json {
  std::string s = "{";
  bool first = true;
  void key(const std::string& k) {
    s += first ? "\"" : ",\"";
    first = false;
    s += k;
    s += "\":";
  }
  void num(const std::string& k, double v) {
    char b[64];
    std::snprintf(b, sizeof(b), "%.17g", v);
    key(k);
    s += b;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    s += '"';
    for (char ch : v) {
      if (ch == '"' || ch == '\\') s += '\\';
      s += ch;
    }
    s += '"';
  }
  void raw(const std::string& k, const std::string& v) {
    key(k);
    s += v;
  }
  std::string close() { return s + "}"; }
};

std::string obj(const std::map<std::string, double>& m) {
  Json j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.close();
}

/// Pins the process to the last CPU of its affinity set. Returns that CPU,
/// or -1 when the affinity cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return cpu;
}

int usage() {
  std::fprintf(stderr,
               "usage: m3bench --workload fig2_put_storm|lock_epochs|"
               "kv_zipf_torus|kv_replicated_failover --seed N "
               "[--mode plain|split|traced] [--cpu all]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode_name = "plain";
  std::uint64_t seed = 1;
  bool pin = true;
  if (argc % 2 == 0) return usage();  // flags come in name/value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--mode") {
      mode_name = v;
    } else if (a == "--cpu" && v == "all") {
      pin = false;
    } else {
      return usage();
    }
  }
  Round R;
  R.seed = seed;
  if (mode_name == "plain") {
    R.mode = Mode::plain;
  } else if (mode_name == "split") {
    R.mode = Mode::split;
  } else if (mode_name == "traced") {
    R.mode = Mode::traced;
  } else {
    return usage();
  }
  R.timing = R.mode != Mode::plain;

  runtime::WorldConfig cfg = xt5_config(derive_seed(seed, 0));
  KvSpec kv;
  std::uint64_t planned = 0;
  if (workload == "fig2_put_storm") {
    planned = fig2_planned();
  } else if (workload == "lock_epochs") {
    planned = lock_planned();
  } else if (workload == "kv_zipf_torus") {
    topo::TopoConfig torus;
    torus.kind = topo::Kind::torus3d;
    torus.dim_x = torus.dim_y = torus.dim_z = 2;
    cfg.topo = torus;
    kv = {false, 0.99, 0.70, 0.20};
    planned = kv_planned();
  } else if (workload == "kv_replicated_failover") {
    cfg.replication.enabled = true;
    cfg.costs.reliability.enabled = true;
    cfg.faults.schedule = {{kVictim, kCrashAt}};
    cfg.faults.announce = true;
    kv = {true, 0.0, 0.20, 0.70};
    planned = kv_planned();
  } else {
    return usage();
  }
  R.probe_ops = planned / kProbes;
  std::printf("{\"planned\":%" PRIu64 "}\n", planned);
  std::fflush(stdout);

  const int cpu = pin ? pin_to_one_cpu() : -1;
  pthread_getcpuclockid(pthread_self(), &R.main_clock);
  // The probe's peer thread inherits the CPU just pinned. Set-up probes are
  // taken out of setup_s.
  std::optional<HostSpeed> speed;
  std::uint64_t setup_probe_ns = 0;
  if (R.mode == Mode::plain) {
    speed.emplace();
    R.speed = &*speed;
    for (int i = 0; i < kSetupProbes; ++i) setup_probe_ns += speed->probe();
  }

  trace::Recorder rec;
  trace::OpTimeline tl;
  runtime::World w(cfg);
  R.world = &w;
  if (R.mode == Mode::traced) {
    rec.set_op_timeline(&tl);
    w.engine().set_tracer(&rec);
  }
  try {
    if (workload == "fig2_put_storm") {
      run_fig2(R, cfg);
    } else if (workload == "lock_epochs") {
      run_lock(R, cfg);
    } else {
      run_kv(R, cfg, kv);
    }
  } catch (const std::exception& e) {
    // A DeadlockError, TransportError or failed invariant ends the round.
    Json j;
    j.str("error", e.what());
    std::printf("%s\n", j.close().c_str());
    std::fprintf(stderr, "m3bench %s seed %" PRIu64 ": %s\n",
                 workload.c_str(), seed, e.what());
    return 3;
  }
  if (R.ops != planned) R.fail("ops completed differ from ops planned");

  // ---------------------------------------------------- end-to-end numbers
  std::map<std::string, double> host, virt = R.virt, segs;
  const double ops = static_cast<double>(R.ops);
  const std::uint64_t cpu_ns =
      (R.end.user_ns + R.end.sys_ns) - (R.start.user_ns + R.start.sys_ns);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // Host times without the probes' own time; plain rounds rescale them to
  // the reference host (split and traced rounds report them as measured).
  const double wall_s =
      std::chrono::duration<double>(R.end.wall - R.start.wall).count() -
      static_cast<double>(R.probe_wall_ns) / 1e9;
  const double work_cpu_ns =
      static_cast<double>(cpu_ns) - static_cast<double>(R.probe_cpu_ns);
  const double setup_s =
      std::chrono::duration<double>(R.start.wall - g_process_start).count() -
      static_cast<double>(setup_probe_ns) / 1e9;
  const double slowdown = speed ? speed->slowdown() : 1.0;
  host["host.slowdown"] = slowdown;
  host["host.raw_setup_s"] = setup_s;
  host["host.raw_ops_per_s"] = ops / wall_s;
  host["setup_s"] = setup_s / slowdown;
  host["host_ops_per_s"] = ops / wall_s * slowdown;
  host["host_cpu_us_per_op"] = work_cpu_ns / 1e3 / ops / slowdown;
  host["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::vector<std::uint64_t> sorted = R.lat;
  std::sort(sorted.begin(), sorted.end());
  virt["vt_op_p50_us"] = us(percentile(sorted, 50.0));
  virt["vt_op_p99_us"] = us(percentile(sorted, 99.0));
  // p99.9 only with at least ten samples beyond it.
  const auto p999_rank =
      static_cast<std::size_t>(std::ceil(0.999 * static_cast<double>(R.ops)));
  if (sorted.size() >= p999_rank + 10) {
    virt["vt_op_p999_us"] = us(percentile(sorted, 99.9));
  } else {
    R.fail("too few ops for a p99.9 with ten samples beyond it");
  }
  virt["vt_phase_start_ms"] = static_cast<double>(R.vt_start) / 1e6;
  virt["vt_phase_end_ms"] = static_cast<double>(R.vt_end) / 1e6;
  virt["vt_kops_per_s"] =
      ops / (static_cast<double>(R.vt_end - R.vt_start) / 1e9) / 1e3;

  // ---------------------------------------------------- per-layer numbers
  const std::uint64_t events = R.end.events - R.start.events;
  const std::uint64_t main_ns = R.end.main_cpu_ns - R.start.main_cpu_ns;
  virt["simtime.events_per_op"] = per(static_cast<double>(events), R.ops);
  virt["simtime.switches_per_op"] =
      per(static_cast<double>(R.end.switches - R.start.switches), R.ops);
  host["simtime.sched_cpu_ns_per_event"] =
      per(static_cast<double>(main_ns), events);
  host["simtime.sys_ns_per_op"] =
      per(static_cast<double>(R.end.sys_ns - R.start.sys_ns), R.ops);
  host["simtime.ctxsw_per_op"] =
      per(static_cast<double>(R.end.ctxsw - R.start.ctxsw), R.ops);
  host["simtime.minflt_setup"] = static_cast<double>(R.start.minflt);
  host["simtime.minflt_per_op"] =
      per(static_cast<double>(R.end.minflt - R.start.minflt), R.ops);
  host["runtime.rank_cpu_ns_per_op"] =
      per(static_cast<double>(R.rank_cpu_ns), R.ops);
  // Process CPU not spent on the main (scheduler) thread or a rank thread:
  // the comm-thread serializer daemons.
  host["core.daemon_cpu_ns_per_op"] =
      (static_cast<double>(cpu_ns) - static_cast<double>(main_ns) -
       static_cast<double>(R.rank_cpu_ns)) /
      ops;
  host["core.put_cpu_ns"] = R.put.mean();
  host["core.complete_cpu_ns"] = R.complete.mean();
  host["apps.start_cpu_ns"] = R.start_op.mean();
  host["apps.finish_cpu_ns"] = R.finish_op.mean();
  host["apps.incr_cpu_ns"] = R.incr.mean();
  host["mpi2.epoch_cpu_ns"] = R.epoch.mean();

  const auto p_of = [&](const char* series, double p) -> std::optional<double> {
    auto it = R.series.find(series);
    if (it == R.series.end()) return std::nullopt;
    std::sort(it->second.begin(), it->second.end());
    return us(percentile(it->second, p));
  };
  for (const char* s :
       {"none", "ordering", "remote_completion", "atomicity", "coarse_lock"}) {
    if (auto v = p_of(s, 50.0)) virt[std::string("core.put_p50_us.") + s] = *v;
  }
  if (auto v = p_of("mpi2_epoch", 50.0)) virt["mpi2.epoch_p50_us"] = *v;
  for (const char* s : {"get", "put", "rmw"}) {
    if (auto v = p_of(s, 99.0)) virt[std::string("apps.") + s + "_p99_us"] = *v;
  }
  virt["fabric.msgs_per_op"] =
      per(static_cast<double>(R.end.fab_msgs - R.start.fab_msgs), R.ops);
  virt["fabric.bytes_per_op"] =
      per(static_cast<double>(R.end.fab_bytes - R.start.fab_bytes), R.ops);
  virt["fabric.retransmits"] =
      static_cast<double>(w.fabric().reliability_totals().retransmits);
  virt["fabric.rerouted_packets"] =
      static_cast<double>(w.fabric().rerouted_packets());
  if (!R.start.link_busy.empty()) {
    std::uint64_t hot = 0;
    for (std::size_t l = 0; l < R.start.link_busy.size(); ++l) {
      hot = std::max(hot, R.end.link_busy[l] - R.start.link_busy[l]);
    }
    virt["topo.hot_link_util_pct"] =
        100.0 * static_cast<double>(hot) /
        static_cast<double>(R.vt_end - R.vt_start);
  }

  // Attribution segments: mean per op completed inside the measured phase.
  bool conservation = true;
  if (R.mode == Mode::traced) {
    conservation = tl.conservation_ok();
    R.check(conservation, "OpTimeline conservation failed");
    std::array<std::uint64_t, trace::kSegmentCount> seg{};
    std::uint64_t n = 0;
    for (const auto& b : tl.ops()) {
      if (b.t0 < R.vt_start || b.t1 > R.vt_end) continue;
      n += 1;
      for (int i = 0; i < trace::kSegmentCount; ++i) {
        seg[static_cast<std::size_t>(i)] += b.seg[static_cast<std::size_t>(i)];
      }
    }
    for (int i = 0; i < trace::kSegmentCount; ++i) {
      segs[std::string("seg.") +
           trace::segment_name(static_cast<trace::Segment>(i)) + "_us"] =
          per(us(seg[static_cast<std::size_t>(i)]), n);
    }
    segs["trace.timeline_ops"] = static_cast<double>(n);
  }

  Json out;
  out.str("workload", workload);
  out.str("mode", mode_name);
  out.num("cpu", cpu);
  out.num("ops", ops);
  out.num("failed", static_cast<double>(R.failed));
  std::string fails = "[";
  for (std::size_t i = 0; i < R.oracle_failures.size(); ++i) {
    Json one;
    one.str("f", R.oracle_failures[i]);
    const std::string o = one.close();
    fails += (i ? "," : "") + o.substr(5, o.size() - 6);
  }
  out.raw("oracle_failures", fails + "]");
  out.raw("host", obj(host));
  out.raw("virtual", obj(virt));
  out.raw("trace", obj(segs));
  std::printf("%s\n", out.close().c_str());
  return 0;
}
