// End-to-end sizing probe behind perfbench/run.py.
//
// Runs one KATO workload (constrained mode, core::bench_config()) repeatedly
// for a time budget and prints one JSON record per sizing run on stdout.
// Everything is measured from outside the library through public calls:
//
//   * TimedCircuit, a forwarding SizingCircuit decorator, times every
//     evaluate / evaluate_batch call and counts attempted and failed
//     candidates; the gaps between two simulator calls are model turnaround.
//   * ckt::make_circuit and bo::build_transfer_source are timed directly.
//   * After each run the always-on obs counters and stage histograms are
//     read (they are zeroed with obs::stats_reset() at run start).
//
// Before each sizing run the probe times a fixed kernel that uses nothing
// from the library (speed_probe); run.py scales the run's times by it,
// because the shared host's speed drifts by 20-40% over minutes.
//
// With --trace-out the first seed also runs traced: the probe calls
// obs::trace_begin itself and emits "bench.*" spans around every call it
// makes into a layer; the library's own spans come along in the same file.
// run.py turns the records into metrics and checks them.
//
// Usage: kato_perfbench --root <repo> --workload <name> --seed <n>
//                       --seconds <s> [--trace-out <trace.json>]

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bo/drivers.hpp"
#include "circuits/factory.hpp"
#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace {

using namespace kato;

struct Workload {
  const char* name;
  const char* deck;  ///< under circuits/netlists/
  const char* node;
  std::size_t n_init;
  std::size_t iterations;
  /// BO seeds per pass.  --seed s runs seeds s*panel+1 .. s*panel+panel, so
  /// different --seed values size from disjoint initial designs.
  int panel;
  /// Whether every seed finds a feasible design (finite best_obj).
  bool feasible;
  // Transfer source (KATO-TL); deck == nullptr means no transfer.
  const char* source_deck = nullptr;
  const char* source_node = nullptr;
  std::size_t source_samples = 0;
  std::uint64_t source_seed = 0;
};

// Batch 4 everywhere (core::bench_config() default).
const Workload k_workloads[] = {
    {"table1_opamp2", "opamp2.cir", "180nm", 300, 12, 8, true},
    {"transfer_opamp2", "opamp2.cir", "40nm", 200, 12, 2, true,
     "opamp2_fast.cir", "180nm", 200, 777},
    {"corners_ac", "opamp2_corners.cir", "180nm", 200, 12, 4, false},
    {"corners_tran", "buffer_tran_corners.cir", "180nm", 40, 20, 4, true},
};

std::uint64_t now_ns() { return kato::obs::trace_now_ns(); }

/// CPU time of the whole process (user + system, all threads), in ns.
std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// One simulator call as seen by the decorator.
struct Call {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::size_t n = 0;
  std::size_t failed = 0;
};

/// Forwarding decorator that times every simulator call.  Calls are
/// recorded under a mutex, so concurrent callers stay well defined.  When
/// tracing, each call becomes a span: the first one `first_span`, later ones
/// "bench.sim", and with a `gap_span` name the time between two calls too.
class TimedCircuit final : public ckt::SizingCircuit {
 public:
  TimedCircuit(const ckt::SizingCircuit& inner, const char* first_span,
               const char* gap_span)
      : inner_(inner), first_span_(first_span), gap_span_(gap_span) {}

  std::string name() const override { return inner_.name(); }
  const ckt::DesignSpace& space() const override { return inner_.space(); }
  std::string objective_name() const override {
    return inner_.objective_name();
  }
  const std::vector<ckt::MetricSpec>& constraints() const override {
    return inner_.constraints();
  }
  std::vector<double> expert_design() const override {
    return inner_.expert_design();
  }

  std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const override {
    const std::uint64_t t0 = now_ns();
    auto m = inner_.evaluate(unit_x);
    record(t0, now_ns(), 1, m ? 0 : 1);
    return m;
  }

  std::vector<std::optional<std::vector<double>>> evaluate_batch(
      const std::vector<std::vector<double>>& xs) const override {
    const std::uint64_t t0 = now_ns();
    auto ms = inner_.evaluate_batch(xs);
    std::size_t failed = 0;
    for (const auto& m : ms) failed += m ? 0 : 1;
    record(t0, now_ns(), xs.size(), failed);
    return ms;
  }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  void record(std::uint64_t t0, std::uint64_t t1, std::size_t n,
              std::size_t failed) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!calls_.empty() && gap_span_ != nullptr)
      obs::emit_span(gap_span_, calls_.back().t1, t0);
    obs::emit_span(calls_.empty() ? first_span_ : "bench.sim", t0, t1);
    calls_.push_back({t0, t1, n, failed});
  }

  const ckt::SizingCircuit& inner_;
  const char* first_span_;
  const char* gap_span_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
};

volatile double g_sink = 0.0;

/// Anonymous memory mapping, unmapped on destruction, so that the pages go
/// back to the system at once whatever the allocator's trim policy.
class Mapping {
 public:
  explicit Mapping(std::size_t bytes) : bytes_(bytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("speed probe: mmap failed");
    data_ = static_cast<double*>(p);
  }
  ~Mapping() { munmap(data_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  double* data() const { return data_; }

 private:
  std::size_t bytes_;
  double* data_ = nullptr;
};

/// Wall time of a fixed kernel on as many threads as the library's pool.
/// Each thread multiplies two 128x128 matrices 48 times, then reads an 8 MB
/// buffer 16 times, one load per cache line (about 100 ms in all on a 4-vCPU
/// Xeon VM).  Both parts work in the caches and memory the host's other
/// tenants contend for: across processes, their time tracked the sizing
/// runs' slow and fast phases, while a loop that stays in registers tracked
/// them poorly.  The buffers are unmapped before the sizing run starts.
std::uint64_t speed_probe() {
  constexpr std::size_t n = 128;
  constexpr std::size_t stream = std::size_t{1} << 20;  // doubles, 8 MB
  constexpr std::size_t per_thread = 3 * n * n + stream;
  const std::size_t threads_n = util::thread_count();
  Mapping mem(threads_n * per_thread * sizeof(double));
  for (std::size_t i = 0; i < threads_n * per_thread; ++i)
    mem.data()[i] = 1.0 + 1e-4 * static_cast<double>(i % 7);
  std::vector<double> results(threads_n, 0.0);
  auto kernel = [](double* base, double* out) {
    const double* a = base;
    const double* b = base + n * n;
    double* c = base + 2 * n * n;
    for (int r = 0; r < 48; ++r)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k) {
          const double aik = a[i * n + k] * 1e-9;
          for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
        }
    const double* v = base + 3 * n * n;
    double sum = 0.0;
    for (int r = 0; r < 16; ++r)
      for (std::size_t i = 0; i < stream; i += 8) sum += v[i];
    *out = c[n + 1] + sum;
  };
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < threads_n; ++t)
    threads.emplace_back(kernel, mem.data() + t * per_thread, &results[t]);
  for (auto& t : threads) t.join();
  const std::uint64_t elapsed = now_ns() - t0;
  for (double r : results) g_sink = g_sink + r;  // keeps the kernel alive
  return elapsed;
}

/// Resets the process's peak RSS (VmHWM) to its current RSS, so that the
/// peak read after a sizing run excludes the speed probe's buffers.
/// Returns false where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Peak RSS in kB: VmHWM since the last reset_peak_rss(), or the process's
/// peak (ru_maxrss) when the reset failed.
long peak_rss_kb(bool was_reset) {
  if (was_reset) {
    std::ifstream f("/proc/self/status");
    std::string key;
    long kb = 0;
    while (f >> key) {
      if (key == "VmHWM:" && f >> kb) return kb;
      f.ignore(1 << 16, '\n');
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string vec_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

std::unique_ptr<ckt::SizingCircuit> load(const std::string& root,
                                         const char* deck, const char* node) {
  return ckt::make_circuit("netlist:" + root + "/circuits/netlists/" + deck,
                           node);
}

/// Counters read from the obs registry after each run.
const char* const k_counters[] = {
    "evals",        "eval_failures",       "newton_iters", "lu_refactors",
    "ac_points",    "tran_steps_accepted", "gp_fits",      "gp_fit_iters",
    "proposals",    "proposal_batches"};

const obs::Stage k_stages[] = {obs::Stage::dc,     obs::Stage::ac,
                               obs::Stage::tran,   obs::Stage::eval,
                               obs::Stage::gp_fit, obs::Stage::acquisition};

/// One sizing run: load, (transfer source), KATO constrained run.  Prints
/// its record as one JSON line.
void run_once(const std::string& root, const Workload& w, std::uint64_t seed,
              int pass, const std::string& trace_out) {
  const std::uint64_t probe_ns = speed_probe();
  const bool rss_reset = reset_peak_rss();
  obs::stats_reset();
  const bool traced = !trace_out.empty();
  if (traced) obs::trace_begin(trace_out);

  const std::uint64_t cpu_start = cpu_ns();
  const std::uint64_t t_start = now_ns();
  auto target = load(root, w.deck, w.node);
  std::uint64_t t_loaded = now_ns();
  obs::emit_span("bench.load", t_start, t_loaded);

  std::optional<bo::TransferSource> source;
  std::vector<Call> source_calls;
  std::uint64_t source_ns = 0;
  std::uint64_t load_ns = t_loaded - t_start;
  if (w.source_deck != nullptr) {
    const std::uint64_t t0 = now_ns();
    auto src_circuit = load(root, w.source_deck, w.source_node);
    const std::uint64_t t1 = now_ns();
    obs::emit_span("bench.load", t0, t1);
    load_ns += t1 - t0;
    // Gaps between source simulations stay in the source span's self time.
    TimedCircuit timed_src(*src_circuit, "bench.sim", nullptr);
    source = bo::build_transfer_source(timed_src, w.source_samples,
                                       bo::KernelKind::rbf, w.source_seed);
    const std::uint64_t t2 = now_ns();
    obs::emit_span("bench.source", t1, t2);
    source_ns = t2 - t1;
    source_calls = timed_src.calls();
  }

  // The target's first call is the DOE; every later gap between two
  // simulator calls is one model turnaround.
  TimedCircuit timed(*target, "bench.doe", "bench.model");
  bo::BoConfig cfg = core::bench_config();
  cfg.n_init = w.n_init;
  cfg.iterations = w.iterations;
  const bo::RunResult result =
      bo::run_constrained(timed, bo::ConstrainedMethod::kato, cfg, seed,
                          source ? &*source : nullptr);
  const std::uint64_t t_end = now_ns();
  const std::uint64_t cpu_end = cpu_ns();
  if (traced) obs::trace_end();

  const std::vector<Call> calls = timed.calls();
  std::ostringstream os;
  os << "{\"record\":\"run\",\"pass\":" << pass << ",\"seed\":" << seed
     << ",\"traced\":" << (traced ? 1 : 0) << ",\"wall_ns\":" << t_end - t_start
     << ",\"cpu_ns\":" << cpu_end - cpu_start
     << ",\"speed_probe_ns\":" << probe_ns
     << ",\"load_ns\":" << load_ns << ",\"source_ns\":" << source_ns
     << ",\"batch\":" << cfg.batch << ",\"n_init\":" << cfg.n_init
     << ",\"iterations\":" << cfg.iterations
     << ",\"hyper_every\":" << cfg.hyper_every
     << ",\"source_samples\":" << w.source_samples
     << ",\"source_rows\":" << (source ? source->x.rows() : 0)
     << ",\"feasible\":" << (w.feasible ? 1 : 0)
     << ",\"best_obj\":"
     << num(result.trace.empty() ? NAN : result.trace.back());
  auto calls_json = [&](const char* key, const std::vector<Call>& cs) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < cs.size(); ++i)
      os << (i ? "," : "") << '[' << cs[i].t0 - t_start << ','
         << cs[i].t1 - t_start << ',' << cs[i].n << ',' << cs[i].failed << ']';
    os << ']';
  };
  calls_json("calls", calls);
  calls_json("source_calls", source_calls);
  os << ",\"obs\":{";
  for (std::size_t i = 0; i < std::size(k_counters); ++i)
    os << (i ? "," : "") << '"' << k_counters[i]
       << "\":" << obs::stats_value(k_counters[i]);
  os << "},\"hist\":{";
  for (std::size_t i = 0; i < std::size(k_stages); ++i) {
    const obs::HistSnapshot h = obs::hist_snapshot(k_stages[i]);
    os << (i ? "," : "") << '"' << obs::stage_name(k_stages[i])
       << "\":{\"count\":" << h.count << ",\"sum_ns\":" << h.sum_ns << '}';
  }
  // The eval histogram in full (sparse), so run.py can merge runs.
  os << "},\"eval_buckets\":[";
  const obs::HistSnapshot ev = obs::hist_snapshot(obs::Stage::eval);
  bool first = true;
  for (int b = 0; b < obs::k_hist_buckets; ++b) {
    if (ev.buckets[b] == 0) continue;
    os << (first ? "" : ",") << '[' << obs::hist_bucket_lower_ns(b) << ','
       << ev.buckets[b] << ']';
    first = false;
  }
  os << "],\"peak_rss_kb\":" << peak_rss_kb(rss_reset) << '}';
  std::cout << os.str() << std::endl;
}

/// Expert designs of the workload's circuits, evaluated before any timing.
void print_expert(const std::string& root, const Workload& w) {
  std::cout << "{\"record\":\"expert\"";
  auto one = [&](const char* key, const char* deck, const char* node) {
    auto c = load(root, deck, node);
    const auto m = c->evaluate(c->expert_design());
    std::cout << ",\"" << key << "\":" << (m ? vec_json(*m) : "null");
  };
  one("target", w.deck, w.node);
  if (w.source_deck != nullptr)
    one("source", w.source_deck, w.source_node);
  std::cout << '}' << std::endl;
}

int usage() {
  std::cerr << "usage: kato_perfbench --root <repo> --workload <name> "
               "--seed <n> --seconds <s> [--trace-out <trace.json>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--root") root = value;
      else if (key == "--workload") workload = value;
      else if (key == "--seed") seed = std::stoull(value);
      else if (key == "--seconds") seconds = std::stod(value);
      else if (key == "--trace-out") trace_out = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || root.empty() || seconds <= 0.0) return usage();
  const Workload* w = nullptr;
  for (const Workload& cand : k_workloads)
    if (workload == cand.name) w = &cand;
  if (w == nullptr) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }

  try {
    print_expert(root, *w);
    // Complete passes over the --seed's panel of BO seeds while another
    // pass fits the budget (at least one), so every pass does the same
    // work: per-design simulation cost is heavy-tailed, and a fresh random
    // DOE per run would swing the work itself.  With --trace-out the first
    // seed also runs traced once per pass, next to its untraced run.
    const auto t0 = std::chrono::steady_clock::now();
    auto since = [](std::chrono::steady_clock::time_point t) {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t)
          .count();
    };
    for (int pass = 0;; ++pass) {
      const auto p0 = std::chrono::steady_clock::now();
      for (int k = 0; k < w->panel; ++k) {
        const std::uint64_t run_seed =
            seed * static_cast<std::uint64_t>(w->panel) + 1 +
            static_cast<std::uint64_t>(k);
        run_once(root, *w, run_seed, pass, "");
        if (k == 0 && !trace_out.empty())
          run_once(root, *w, run_seed, pass, trace_out);
      }
      if (since(t0) + since(p0) > seconds) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "kato_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
