// Schedule-explorer microbenchmark (docs/MODELCHECK.md): exhaustively
// explores a few corpus litmus programs under LRC with sleep-set reduction
// on and off, reporting schedule counts, the reduction factor, and
// schedules-per-second throughput. The reduction factor is the headline
// number — how much of the interleaving tree the sleep sets prove
// redundant — and a drop in it flags a regression in the independence
// relation or the FIFO filter.
//
// Writes JSON to stdout and BENCH_mc_explore.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "check/litmus.hpp"
#include "mc/explorer.hpp"

namespace {

struct Row {
  const char* prog;
  std::uint64_t reduced = 0;
  std::uint64_t reduced_examined = 0;
  std::uint64_t full = 0;
  double millis = 0;  // reduced exploration wall time
};

Row measure(const std::string& dir, const char* name) {
  const auto prog = lrc::check::LitmusProgram::parse_file(dir + "/" + name +
                                                          std::string(".litmus"));
  Row row;
  row.prog = name;

  lrc::mc::ExploreOptions opts;
  const auto t0 = std::chrono::steady_clock::now();
  const auto red = lrc::mc::explore(prog, lrc::core::ProtocolKind::kLRC, opts);
  const auto t1 = std::chrono::steady_clock::now();
  row.millis = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.reduced = red.schedules;
  row.reduced_examined = red.examined();

  opts.reduce = false;
  const auto full = lrc::mc::explore(prog, lrc::core::ProtocolKind::kLRC, opts);
  row.full = full.schedules;

  if (!red.complete || !full.complete || red.violating != 0 ||
      full.violating != 0) {
    std::fprintf(stderr, "%s: unexpected incomplete/violating exploration\n",
                 name);
    std::exit(1);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = LRCSIM_LITMUS_DIR;
  if (argc > 1) dir = argv[1];

  const char* progs[] = {"sb", "mp_lock", "release_chain", "iriw_sync"};
  Row rows[4];
  // Throwaway warm-up, then the measured sweep.
  measure(dir, "mp_barrier");
  for (int i = 0; i < 4; ++i) rows[i] = measure(dir, progs[i]);

  char json[2048];
  int off = std::snprintf(json, sizeof(json),
                          "{\n  \"bench\": \"mc_explore\",\n"
                          "  \"protocol\": \"LRC\",\n  \"programs\": [\n");
  for (int i = 0; i < 4; ++i) {
    const Row& r = rows[i];
    const double factor =
        r.reduced_examined ? static_cast<double>(r.full) / r.reduced_examined
                           : 0.0;
    const double rate = r.millis > 0 ? r.reduced / (r.millis / 1000.0) : 0.0;
    off += std::snprintf(
        json + off, sizeof(json) - off,
        "    {\"prog\": \"%s\", \"reduced\": %llu, \"examined\": %llu,\n"
        "     \"full\": %llu, \"reduction_factor\": %.2f,\n"
        "     \"millis\": %.2f, \"schedules_per_sec\": %.0f}%s\n",
        r.prog, static_cast<unsigned long long>(r.reduced),
        static_cast<unsigned long long>(r.reduced_examined),
        static_cast<unsigned long long>(r.full), factor, r.millis, rate,
        i + 1 < 4 ? "," : "");
  }
  std::snprintf(json + off, sizeof(json) - off, "  ]\n}\n");

  std::fputs(json, stdout);
  if (FILE* f = std::fopen("BENCH_mc_explore.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  return 0;
}
