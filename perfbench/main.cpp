// fig4-matrix benchmark program (see README.md in this directory).
//
//   perfbench --workload hits|misses|replay-jobs --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//   perfbench --self-test --work-dir DIR
//
// Every cell is one (application, protocol) pair of the paper's Fig. 4
// matrix at bench scale on 64 processors with the default L1 hierarchy,
// each on a fresh Machine (caches start empty). The untraced mode times
// whole passes over a workload's cells through the bench harness; the
// traced mode times the calls into each layer from outside the library.
// Either way the last stdout line is one JSON result object.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "bench/harness.hpp"
#include "core/machine.hpp"
#include "report_digest.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/replay_cpu.hpp"

namespace {

using namespace lrc;
using Clock = std::chrono::steady_clock;
using core::ProtocolKind;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Workloads ------------------------------------------------------------

enum class Workload { kHits, kMisses, kReplayJobs };

struct Cell {
  const apps::AppInfo* app = nullptr;
  ProtocolKind kind{};
  std::string name() const {
    return std::string(app->name) + "_" + std::string(core::to_string(kind));
  }
};

std::vector<Cell> matrix(std::initializer_list<std::string_view> apps,
                         std::initializer_list<ProtocolKind> kinds) {
  std::vector<Cell> out;
  for (auto a : apps) {
    for (auto k : kinds) out.push_back(Cell{apps::find_app(a), k});
  }
  return out;
}

// Fig. 4's rows split by how often they miss: hits are the low-miss-rate
// rows (front-end bound), misses the high-miss-rate rows plus LRC-ext
// (protocol/mesh bound); replay-jobs is the whole fig4 matrix.
std::vector<Cell> cells_for(Workload w) {
  using P = ProtocolKind;
  switch (w) {
    case Workload::kHits:
      return matrix({"gauss", "fft", "blu", "cholesky"},
                    {P::kSC, P::kERC, P::kLRC});
    case Workload::kMisses:
      return matrix({"barnes", "locusroute", "mp3d"},
                    {P::kSC, P::kERC, P::kLRC, P::kLRCExt});
    case Workload::kReplayJobs:
      return matrix({"gauss", "fft", "blu", "barnes", "cholesky",
                     "locusroute", "mp3d"},
                    {P::kSC, P::kERC, P::kLRC});
  }
  return {};
}

// ---- Correctness ----------------------------------------------------------

// report_digest of every cell at the default seed (bench scale, 64 procs,
// L1 only). The simulator's contract is that these never change; a
// mismatch is a failed cell, never a speed-up.
constexpr std::uint64_t kPinnedSeed = 1;

struct Pin {
  std::string_view cell;
  std::uint64_t digest;
};

constexpr Pin kPins[] = {
#include "pins.inc"
};

// Empty when the cell's output is correct, else why not.
//  - the app's own validation (fiber cells);
//  - at the pinned seed, the pinned digest;
//  - `expect`, when given: the captured run's digest (replay) or the first
//    pass's digest (a cell must repeat exactly across passes).
std::string verdict(const Cell& c, const bench::RunResult& r,
                    std::uint64_t seed, std::span<const Pin> pins,
                    const std::uint64_t* expect) {
  if (!r.app.valid) return "validation failed: " + r.app.detail;
  const std::uint64_t d = testutil::report_digest(r.report);
  if (seed == kPinnedSeed) {
    const std::string name = c.name();
    const auto it = std::find_if(pins.begin(), pins.end(),
                                 [&](const Pin& p) { return p.cell == name; });
    if (it == pins.end()) return "no pinned digest";
    if (it->digest != d) return "digest differs from the pinned value";
  }
  if (expect != nullptr && *expect != d) {
    return "digest differs from the reference run";
  }
  return {};
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(const Cell& c, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", c.name().c_str(),
                 why.c_str());
  }
};

// ---- Per-layer timing (traced mode) ---------------------------------------

// Host time of the calls into each layer, accumulated per thread (replay
// cells run on worker threads) and reset at the start of every cell. The
// timed calls never nest: both are entered only from engine events.
struct Layers {
  double resume_s = 0;    // core::Cpu::resume_execution
  double dispatch_s = 0;  // NIC delivery -> Machine::dispatch
  std::uint64_t resumes = 0;
  std::uint64_t dispatches = 0;
  bool begun = false;
  Clock::time_point begin{};     // simulation start (first Cpu::start)
  Clock::time_point last_end{};  // end of the latest timed call
};
thread_local Layers t_layers;

template <typename F>
void timed_call(double& acc, std::uint64_t& calls, F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  acc += seconds_between(t0, t1);
  ++calls;
  t_layers.last_end = t1;
}

void mark_begin() {
  if (!t_layers.begun) {
    t_layers.begun = true;
    t_layers.begin = Clock::now();
  }
}

// Fiber front end with resume_execution timed: the fiber switch, the
// workload code, the cache-hit path and the issue side of protocol ops.
class TimedCpu final : public core::Cpu {
 public:
  using core::Cpu::Cpu;
  void start(std::function<void(core::Cpu&)> body) override {
    mark_begin();
    core::Cpu::start(std::move(body));
  }

 protected:
  void resume_execution() override {
    timed_call(t_layers.resume_s, t_layers.resumes,
               [this] { core::Cpu::resume_execution(); });
  }
};

// Replaces the Machine's NIC delivery callback; Machine::dispatch_deferred
// is exactly Machine::dispatch.
void timed_deliver(void* ctx, const mesh::Message& msg, Cycle t) {
  timed_call(t_layers.dispatch_s, t_layers.dispatches, [&] {
    static_cast<core::Machine*>(ctx)->dispatch_deferred(msg, t);
  });
}

// ---- Running cells --------------------------------------------------------

bench::Options base_options(std::uint64_t seed) {
  bench::Options opt;
  opt.procs = 64;
  opt.scale = bench::Scale::kBench;
  opt.seed = seed;
  opt.jobs = 1;
  return opt;
}

struct CellRun {
  bench::RunResult result;
  std::string error;      // exception text, if the cell threw
  double cell_s = 0;      // whole cell: construction, run, validation
  double ctor_s = 0;      // Machine construction
  double sim_s = 0;       // simulation window (run start .. last layer call)
  Layers layers;          // traced passes only
};

// One cell outside the harness, with the Machine constructed here so its
// construction can be timed and, when `traced`, its layers wrapped. Mirrors
// bench::run_app for bench scale.
CellRun run_cell(const Cell& c, const bench::Options& opt, bool traced) {
  CellRun out;
  t_layers = Layers{};
  const auto t0 = Clock::now();
  try {
    core::Machine::CpuFactory factory;
    if (!opt.replay_dir.empty()) {
      factory = trace::ReplayCpu::factory(opt.replay_dir + "/" + c.name());
    } else if (traced) {
      factory = [](core::Machine& m, NodeId p) {
        return std::unique_ptr<core::Cpu>(new TimedCpu(m, p));
      };
    }
    core::Machine m(bench::make_params(opt), c.kind, std::move(factory));
    const auto t1 = Clock::now();
    out.ctor_s = seconds_between(t0, t1);
    if (traced) m.nic().set_deliver(&timed_deliver, &m);
    if (!opt.replay_dir.empty()) {
      mark_begin();
      m.run(nullptr);
      t_layers.last_end = Clock::now();
      out.result.app.valid = true;
      out.result.app.detail = "replay";
    } else {
      apps::AppConfig cfg;
      cfg.seed = opt.seed;
      cfg.validate = true;
      cfg.n = c.app->bench_n;
      cfg.steps = c.app->bench_steps;
      out.result.app = c.app->run(m, cfg);
    }
    out.result.report = m.report();
    if (traced) out.sim_s = seconds_between(t_layers.begin, t_layers.last_end);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.cell_s = seconds_between(t0, Clock::now());
  out.layers = t_layers;
  return out;
}

// Runs `n` independent tasks on `jobs` threads; task i writes only slot i.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& task) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned j = 0; j < jobs && j < n; ++j) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) task(i);
    });
  }
  for (auto& t : pool) t.join();
}

// ---- Statistics -----------------------------------------------------------

struct Summary {
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

// Median and quartiles by the rule of Python's statistics.quantiles(n=4)
// (the default "exclusive" method, extrapolating at the ends like it does).
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  auto quartile = [&](long i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// ---- Simulated counts -----------------------------------------------------

struct Counts {
  std::uint64_t refs = 0, writes = 0, misses = 0, evictions = 0,
                invalidations = 0, events = 0, messages = 0, data_messages = 0,
                payload_bytes = 0, batched = 0, send_cont = 0, recv_cont = 0,
                dram_accesses = 0, dram_busy = 0, dram_cont = 0,
                lock_grants = 0, queued_locks = 0, barrier_episodes = 0,
                exec_cycles = 0;
  stats::MissCounts miss_classes;
  std::array<std::uint64_t, stats::kStallKinds> cycles{};

  void add(const core::Report& r) {
    refs += r.cache.references();
    writes += r.cache.write_hits + r.cache.write_misses + r.cache.upgrade_misses;
    misses += r.cache.misses();
    evictions += r.cache.evictions;
    invalidations += r.cache.invalidations;
    events += r.events_executed;
    messages += r.nic.messages;
    data_messages += r.nic.data_messages;
    payload_bytes += r.nic.payload_bytes;
    batched += r.nic.batched_arrivals;
    send_cont += r.nic.send_contention;
    recv_cont += r.nic.recv_contention;
    dram_accesses += r.dram.reads + r.dram.writes;
    dram_busy += r.dram.busy;
    dram_cont += r.dram.contention;
    lock_grants += r.sync.lock_grants;
    queued_locks += r.sync.queued_requests;
    barrier_episodes += r.barrier_episodes;
    exec_cycles += r.execution_time;
    miss_classes += r.miss_classes;
    for (std::size_t k = 0; k < stats::kStallKinds; ++k) {
      cycles[k] += r.breakdown.cycles[k];
    }
  }
  double per_ref(std::uint64_t x) const {
    return refs ? static_cast<double>(x) / static_cast<double>(refs) : 0.0;
  }
};

// ---- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Summary spread;  // over passes; n == 0 for single-valued metrics
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

unsigned host_nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

// ---- Benchmark ------------------------------------------------------------

struct Args {
  Workload workload = Workload::kHits;
  std::string workload_name = "hits";
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string work_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload hits|misses|replay-jobs "
               "[--seed N] [--seconds S] [--trace 0|1] --work-dir DIR\n"
               "       perfbench --self-test --work-dir DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        a.workload_name = v;
        if (v == "hits") {
          a.workload = Workload::kHits;
        } else if (v == "misses") {
          a.workload = Workload::kMisses;
        } else if (v == "replay-jobs") {
          a.workload = Workload::kReplayJobs;
        } else {
          usage(("unknown workload " + v).c_str());
        }
      } else if (arg == "--seed") {
        a.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        a.seconds = std::stod(v);
        if (!(a.seconds > 0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (arg == "--work-dir") {
        a.work_dir = v;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg + ": " + v).c_str());
    }
  }
  if (a.work_dir.empty()) usage("--work-dir is required");
  return a;
}

// Removes a scratch directory when the run ends, however it ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One pass over the workload's cells. Layer fields are filled by
// instrumented passes only; per-cell fields by passes run through run_cell.
struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  double ctor_s = 0;
  double resume_s = 0;
  double dispatch_s = 0;
  double sim_s = 0;
  double cell_s = 0;
  double longest_cell_s = 0;
  std::array<double, 5> protocol_s{};  // indexed by ProtocolKind
  std::uint64_t resumes = 0;
  std::uint64_t dispatches = 0;
};

// Standalone trace::Reader loop over every captured stream.
struct DecodeSweep {
  double seconds = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

DecodeSweep decode_all(const std::string& root, const std::vector<Cell>& cells) {
  DecodeSweep d;
  const auto t0 = Clock::now();
  for (const auto& c : cells) {
    const std::string dir = root + "/" + c.name();
    const trace::TraceMeta meta = trace::read_meta(dir);
    for (unsigned p = 0; p < meta.nprocs; ++p) {
      const std::string path = dir + "/" + trace::stream_name(p);
      trace::Reader reader(path);
      trace::Record rec;
      while (reader.next(rec)) ++d.records;
      d.bytes += std::filesystem::file_size(path);
    }
  }
  d.seconds = seconds_between(t0, Clock::now());
  return d;
}

class Bench {
 public:
  explicit Bench(const Args& a)
      : args_(a),
        cells_(cells_for(a.workload)),
        replay_(a.workload == Workload::kReplayJobs),
        jobs_(replay_ ? std::min(host_nproc(), 4u) : 1u),
        scratch_(a.work_dir + "/run-" + std::to_string(::getpid())),
        trace_dir_(scratch_.path() + "/traces"),
        reference_(cells_.size()),
        counted_(cells_.size(), false) {}

  void run() {
    setup();
    const auto start = Clock::now();
    if (!args_.trace) {
      do {
        plain_.push_back(harness_pass());
      } while (!deadline_passed(start));
    } else {
      // Alternate plain and instrumented passes so both see the same host
      // conditions; trace_overhead is the ratio of their medians.
      do {
        plain_.push_back(cell_pass(false));
        traced_.push_back(cell_pass(true));
        if (replay_) decode_.push_back(decode_all(trace_dir_, cells_));
      } while (!deadline_passed(start));
    }
    print_result();
  }

 private:
  bench::Options options() const {
    bench::Options opt = base_options(args_.seed);
    opt.jobs = jobs_;
    if (replay_) opt.replay_dir = trace_dir_;
    return opt;
  }

  bool deadline_passed(Clock::time_point start) const {
    return seconds_between(start, Clock::now()) >= args_.seconds;
  }

  // Checks one cell's output and accounts for it. The first correct run of
  // a cell becomes its reference digest; later runs must match it.
  void record(std::size_t i, const bench::RunResult& r,
              const std::string& error) {
    std::string why = error;
    if (why.empty()) {
      const auto& ref = reference_[i];
      why = verdict(cells_[i], r, args_.seed, kPins, ref ? &*ref : nullptr);
      if (why.empty() && !ref) reference_[i] = testutil::report_digest(r.report);
    }
    tally_.record(cells_[i], why);
    if (error.empty() && !counted_[i]) {
      counted_[i] = true;
      counts_.add(r.report);
    }
  }

  void setup() {
    // setup_s is the median of three set-ups.
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      if (replay_) {
        capture();
      } else {
        warm_up();
      }
      setup_s_.push_back(seconds_between(t0, Clock::now()));
    }
  }

  // Fiber cells need no prepared inputs, so their set-up warms code paths
  // and allocator instead: every cell once at test scale, validated.
  void warm_up() {
    bench::Options opt = base_options(args_.seed);
    opt.scale = bench::Scale::kTest;
    for (const auto& c : cells_) {
      const bench::RunResult r = bench::run_app(*c.app, c.kind, opt);
      tally_.record(c, r.app.valid ? "" : "warm-up validation failed: " + r.app.detail);
    }
  }

  // Records every cell's stream through the harness (`--capture`). The
  // captured runs are fiber runs: they are checked like any cell, and their
  // digests are what each replay must reproduce.
  void capture() {
    std::filesystem::remove_all(trace_dir_);
    bench::Options opt = base_options(args_.seed);
    opt.jobs = jobs_;
    opt.capture_dir = trace_dir_;
    std::vector<bench::Experiment> exps;
    for (const auto& c : cells_) exps.push_back({c.app, c.kind});
    const auto results = bench::run_experiments(exps, opt);
    for (std::size_t i = 0; i < cells_.size(); ++i) record(i, results[i], {});
  }

  // Untraced pass through the harness, as fig4 runs it: serial run_app per
  // cell, or run_experiments on `jobs_` workers for replay.
  Pass harness_pass() {
    const bench::Options opt = options();
    std::vector<bench::RunResult> results(cells_.size());
    std::vector<std::string> errors(cells_.size());
    Pass p;
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    if (replay_) {
      std::vector<bench::Experiment> exps;
      for (const auto& c : cells_) exps.push_back({c.app, c.kind});
      try {
        results = bench::run_experiments(exps, opt);
      } catch (const std::exception& e) {
        // The scheduler stops at the first error, so no cell of the pass
        // can be trusted.
        for (auto& err : errors) err = std::string("pass threw: ") + e.what();
      }
    } else {
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        try {
          results[i] = bench::run_app(*cells_[i].app, cells_[i].kind, opt);
        } catch (const std::exception& e) {
          errors[i] = std::string("threw: ") + e.what();
        }
      }
    }
    p.wall_s = seconds_between(t0, Clock::now());
    p.cpu_s = process_cpu_s() - c0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      record(i, results[i], errors[i]);
    }
    return p;
  }

  // Pass through run_cell on `jobs_` threads, timing each cell and, when
  // `instrumented`, the calls into each layer.
  Pass cell_pass(bool instrumented) {
    const bench::Options opt = options();
    std::vector<CellRun> runs(cells_.size());
    Pass p;
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    parallel_for(cells_.size(), jobs_, [&](std::size_t i) {
      runs[i] = run_cell(cells_[i], opt, instrumented);
    });
    p.wall_s = seconds_between(t0, Clock::now());
    p.cpu_s = process_cpu_s() - c0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const CellRun& r = runs[i];
      record(i, r.result, r.error.empty() ? "" : "threw: " + r.error);
      p.ctor_s += r.ctor_s;
      p.cell_s += r.cell_s;
      p.sim_s += r.sim_s;
      p.longest_cell_s = std::max(p.longest_cell_s, r.cell_s);
      p.protocol_s[static_cast<std::size_t>(cells_[i].kind)] += r.cell_s;
      p.resume_s += r.layers.resume_s;
      p.dispatch_s += r.layers.dispatch_s;
      p.resumes += r.layers.resumes;
      p.dispatches += r.layers.dispatches;
    }
    return p;
  }

  void print_result();

  Args args_;
  std::vector<Cell> cells_;
  bool replay_;
  unsigned jobs_;
  ScratchDir scratch_;
  std::string trace_dir_;
  std::vector<std::optional<std::uint64_t>> reference_;
  Tally tally_;
  Counts counts_;
  std::vector<bool> counted_;  // cells whose report is in counts_

  std::vector<double> setup_s_;
  std::vector<Pass> plain_;   // untraced passes (harness, or run_cell)
  std::vector<Pass> traced_;  // instrumented passes
  std::vector<DecodeSweep> decode_;
};

template <typename F>
Summary over(const std::vector<Pass>& passes, F field) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(field(p));
  return summarize(std::move(v));
}

void Bench::print_result() {
  const double refs = static_cast<double>(counts_.refs);
  const double valid_share =
      1.0 - static_cast<double>(tally_.failed) /
                static_cast<double>(std::max<std::uint64_t>(tally_.attempted, 1));
  const Summary setup = summarize(setup_s_);
  std::vector<Metric> metrics;
  auto add = [&](std::string name, double v, std::string unit,
                 Summary spread = {}) {
    metrics.push_back({std::move(name), v, std::move(unit), spread});
  };
  auto add_s = [&](std::string name, const Summary& s, std::string unit) {
    add(std::move(name), s.median, std::move(unit), s);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  if (!args_.trace) {
    add_s("wall_s", over(plain_, [](const Pass& p) { return p.wall_s; }), "s");
    add_s("cpu_s", over(plain_, [](const Pass& p) { return p.cpu_s; }), "s");
    add_s("sim_accesses_per_s",
          over(plain_, [&](const Pass& p) { return refs / p.wall_s; }), "1/s");
    add_s("setup_s", setup, "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("valid_share", valid_share, "share");
  } else {
    const Summary wall_plain = over(plain_, [](const Pass& p) { return p.wall_s; });
    const Summary wall_traced = over(traced_, [](const Pass& p) { return p.wall_s; });
    const Summary resume = over(traced_, [](const Pass& p) { return p.resume_s; });
    const Summary dispatch = over(traced_, [](const Pass& p) { return p.dispatch_s; });
    const Summary other = over(traced_, [](const Pass& p) {
      return p.sim_s - p.resume_s - p.dispatch_s;
    });
    const Pass& t0 = traced_.front();
    add_s("core.machine_ctor_s", over(traced_, [](const Pass& p) { return p.ctor_s; }), "s");
    add_s("core.resume_s", resume, "s");
    add("core.resumes", static_cast<double>(t0.resumes), "count");
    add("core.resume_ns_per_access", 1e9 * ratio(resume.median, refs), "ns");
    add_s("proto.dispatch_s", dispatch, "s");
    add("proto.dispatches", static_cast<double>(t0.dispatches), "count");
    add("proto.dispatch_ns_per_msg",
        1e9 * ratio(dispatch.median, static_cast<double>(t0.dispatches)), "ns");
    add_s("sim.other_s", other, "s");
    add("sim.events", static_cast<double>(counts_.events), "count");
    add("sim.host_ns_per_event",
        1e9 * ratio(other.median, static_cast<double>(counts_.events)), "ns");
    add_s("core.outside_run_s", over(traced_, [](const Pass& p) {
            return p.cell_s - p.ctor_s - p.sim_s;
          }), "s");
    std::vector<double> dec_s, dec_ns;
    for (const auto& d : decode_) {
      dec_s.push_back(d.seconds);
      dec_ns.push_back(1e9 * ratio(d.seconds, static_cast<double>(d.records)));
    }
    const DecodeSweep d0 = decode_.empty() ? DecodeSweep{} : decode_.front();
    add("trace.capture_s", replay_ ? setup.median : 0.0, "s", replay_ ? setup : Summary{});
    add("trace.bytes_per_record",
        ratio(static_cast<double>(d0.bytes), static_cast<double>(d0.records)),
        "B/record");
    add_s("trace.decode_s", summarize(dec_s), "s");
    add_s("trace.decode_ns_per_record", summarize(dec_ns), "ns");
    add_s("bench.longest_cell_s",
          over(plain_, [](const Pass& p) { return p.longest_cell_s; }), "s");
    add_s("bench.parallel_efficiency", over(plain_, [&](const Pass& p) {
            return ratio(p.cpu_s, p.wall_s * jobs_);
          }), "ratio");
    for (auto k : {ProtocolKind::kSC, ProtocolKind::kERC, ProtocolKind::kLRC,
                   ProtocolKind::kLRCExt}) {
      add_s("run_s." + std::string(core::to_string(k)), over(plain_, [&](const Pass& p) {
              return p.protocol_s[static_cast<std::size_t>(k)];
            }), "s");
    }
    add("trace_overhead", ratio(wall_traced.median, wall_plain.median), "ratio");

    const Counts& c = counts_;
    auto cnt = [&](std::string name, std::uint64_t v, std::string unit = "count") {
      add(std::move(name), static_cast<double>(v), std::move(unit));
    };
    cnt("cache.references", c.refs);
    cnt("cache.writes", c.writes);
    cnt("cache.misses", c.misses);
    add("cache.miss_rate", c.per_ref(c.misses), "share");
    cnt("cache.evictions", c.evictions);
    cnt("cache.invalidations", c.invalidations);
    const char* classes[] = {"cold", "true", "false", "evict", "write"};
    for (std::size_t k = 0; k < stats::kMissClasses; ++k) {
      cnt(std::string("stats.miss.") + classes[k], c.miss_classes.n[k]);
    }
    cnt("mesh.messages", c.messages);
    cnt("mesh.data_messages", c.data_messages);
    cnt("mesh.payload_bytes", c.payload_bytes, "bytes");
    cnt("mesh.batched_arrivals", c.batched);
    cnt("mesh.send_contention_cycles", c.send_cont, "cycles");
    cnt("mesh.recv_contention_cycles", c.recv_cont, "cycles");
    cnt("mem.dram_accesses", c.dram_accesses);
    cnt("mem.dram_busy_cycles", c.dram_busy, "cycles");
    cnt("mem.dram_contention_cycles", c.dram_cont, "cycles");
    cnt("proto.lock_grants", c.lock_grants);
    cnt("proto.queued_lock_requests", c.queued_locks);
    cnt("proto.barrier_episodes", c.barrier_episodes);
    const char* kinds[] = {"cpu", "read", "write", "sync"};
    for (std::size_t k = 0; k < stats::kStallKinds; ++k) {
      cnt(std::string("core.cycles.") + kinds[k], c.cycles[k], "cycles");
    }
    cnt("core.execution_cycles", c.exec_cycles, "cycles");
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d jobs=%u "
              "cells=%zu passes=%zu\n",
              args_.workload_name.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0, jobs_, cells_.size(), plain_.size());
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              host_nproc(), cpu_model().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("properties: miss_rate=%.4f write_share=%.4f events_per_ref=%.4f "
              "msgs_per_ref=%.4f references=%llu\n",
              counts_.per_ref(counts_.misses), counts_.per_ref(counts_.writes),
              counts_.per_ref(counts_.events), counts_.per_ref(counts_.messages),
              static_cast<unsigned long long>(counts_.refs));
  std::printf("failed_share=%.6f (%llu of %llu cell runs failed)\n",
              1.0 - valid_share, static_cast<unsigned long long>(tally_.failed),
              static_cast<unsigned long long>(tally_.attempted));
  if (args_.trace) {
    std::printf("note: engine, NIC, DRAM and poke self-time are lumped in "
                "sim.other_s; miss-classifier time sits in whichever of "
                "core.resume_s and proto.dispatch_s calls it (no in-program "
                "spans yet)%s\n",
                replay_ ? "; the replay front end (decode and issue) cannot be "
                          "wrapped and is in sim.other_s too"
                        : "");
  }
  for (const auto& m : metrics) {
    if (m.spread.n > 0) {
      std::printf("  %-30s %14.6g %-8s median of %zu: q1 %.6g q3 %.6g min "
                  "%.6g max %.6g\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.spread.n,
                  m.spread.q1, m.spread.q3, m.spread.min, m.spread.max);
    } else {
      std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string out = "{\"correct\": ";
  out += tally_.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally_.attempted);
  out += ", \"failed\": " + std::to_string(tally_.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    // Names and units are fixed identifiers that need no JSON escaping.
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Shows that corrupted outputs are counted as failed cells: a wrong pinned
// digest, and replays that do not reproduce their captured runs.
int self_test(const std::string& work_dir) {
  ScratchDir scratch(work_dir + "/self-test-" + std::to_string(::getpid()));
  const std::vector<Cell> cells = {{apps::find_app("fft"), ProtocolKind::kSC},
                                   {apps::find_app("cholesky"), ProtocolKind::kSC}};
  const std::vector<bench::Experiment> exps = {{cells[0].app, cells[0].kind},
                                               {cells[1].app, cells[1].kind}};
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("self-test %s: %s\n", ok ? "ok" : "FAILED", what);
    if (!ok) ++bad;
  };

  bench::Options opt = base_options(kPinnedSeed);
  const bench::RunResult r = bench::run_app(*cells[0].app, cells[0].kind, opt);
  std::vector<Pin> wrong(std::begin(kPins), std::end(kPins));
  for (auto& p : wrong) {
    if (p.cell == cells[0].name()) p.digest ^= 1;
  }
  Tally pinned;
  pinned.record(cells[0], verdict(cells[0], r, kPinnedSeed, kPins, nullptr));
  expect(pinned.failed == 0, "the pinned digest accepts a correct cell");
  pinned.record(cells[0], verdict(cells[0], r, kPinnedSeed, wrong, nullptr));
  expect(pinned.failed == 1 && pinned.attempted == 2,
         "a wrong pinned digest counts as one failed cell");

  // Replay checks hold at any seed; use an unpinned one so only they apply.
  opt.seed = kPinnedSeed + 1;
  const std::string traces = scratch.path() + "/traces";
  opt.capture_dir = traces;
  std::vector<std::uint64_t> captured;
  for (const auto& res : bench::run_experiments(exps, opt)) {
    captured.push_back(testutil::report_digest(res.report));
  }
  opt.capture_dir.clear();
  opt.replay_dir = traces;
  auto replay = [&] {
    Tally t;
    const auto replayed = bench::run_experiments(exps, opt);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.record(cells[i],
               verdict(cells[i], replayed[i], opt.seed, kPins, &captured[i]));
    }
    return t;
  };
  expect(replay().failed == 0, "faithful replays pass");
  const std::string a = traces + "/" + cells[0].name();
  const std::string b = traces + "/" + cells[1].name();
  std::filesystem::rename(a, a + ".tmp");
  std::filesystem::rename(b, a);
  std::filesystem::rename(a + ".tmp", b);
  expect(replay().failed == 2,
         "replays of two swapped traces count as two failed cells");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.self_test) return self_test(args.work_dir);
    Bench bench(args);
    bench.run();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
