// round_bench — runs one workload of the round benchmark through the public
// flare::SimulatorRunner API and prints one JSON object as the last line of
// stdout. perfbench/run.py builds this binary, runs it once per invocation
// (so peak RSS is the workload's own) and turns the object into the
// benchmark's result line; README.md describes the workloads and metrics.
//
//   round_bench --workload NAME --seed N --seconds S --trace 0|1
//               --workdir DIR [--smoke]
//
// Everything here measures from outside src/: EventBus handlers that only
// take a timestamp, the process-wide MetricRegistry, the existing spans of
// the span tracer, benchmark-owned Learner/Aggregator wrappers, and timed
// calls into public layer functions. Jobs are closed loops: each site sends
// its next request only after its previous one completed.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/sha256.h"
#include "core/trace.h"
#include "flare/filters.h"
#include "flare/journal.h"
#include "flare/messages.h"
#include "flare/observability.h"
#include "flare/persistor.h"
#include "flare/secure_agg.h"
#include "flare/secure_channel.h"
#include "flare/simulator.h"
#include "flare/validator.h"
#include "models/lstm_classifier.h"
#include "models/model_config.h"
#include "stats.h"
#include "train/clinical_learner.h"
#include "train/clinical_metrics.h"
#include "train/experiment.h"

namespace {

namespace core = cppflare::core;
namespace fl = cppflare::flare;
namespace nn = cppflare::nn;
namespace train = cppflare::train;
namespace models = cppflare::models;
using perfbench::Phase;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class LearnerKind { kConstant, kLstm };

struct Workload {
  const char* name;
  std::int64_t sites;
  std::int64_t site_workers;  // 0 = one thread per site
  bool tcp;
  LearnerKind learner;
  /// Model whose shapes the no-op update takes ("" = a flat 4,096-float
  /// tensor); the LSTM workload trains this model for real.
  const char* model;
  std::int64_t rounds;  // fixed round count of one job
  bool masked_journal;  // secure_agg(pre_scale) + DP + journal + persist
  bool warmup;          // run one unmeasured job first
  /// One job's wall seconds on the reference host (4-core Xeon with
  /// sha_ni). A run measures round(--seconds / this) jobs, so every run of
  /// a workload does the same work whatever the host's speed that minute.
  double nominal_job_s;
};

// Why each exists: README.md. The first-job warm-up is skipped only where a
// job costs ~10 s (lstm_train), so the cold job is measured there.
const Workload kWorkloads[] = {
    {"bert_noop_tcp", 4, 0, true, LearnerKind::kConstant, "bert", 4, false, true, 2.0},
    {"lstm_train", 8, 4, false, LearnerKind::kLstm, "lstm", 2, false, false, 8.5},
    {"bertmini_masked_journal", 8, 4, false, LearnerKind::kConstant, "bert-mini",
     10, true, true, 1.2},
    {"sites64_control", 64, 4, false, LearnerKind::kConstant, "", 40, false, true, 0.38},
};

// bertmini_masked_journal's privacy settings, shared with its probes.
constexpr double kDpClipNorm = 1.0;
constexpr double kDpNoiseMultiplier = 1.0;
constexpr std::int64_t kMaskFracBits = 16;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return 1e-9 * static_cast<double>(steady_ns() - t0_ns);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Process user+sys CPU seconds (all threads).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Resets the process's resident-set high-water mark (Linux >= 4.0), so
/// each job's peak can be read on its own. Returns false where unsupported.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Resident-set high-water mark in MB: VmHWM since the last reset, or the
/// process-lifetime ru_maxrss where /proc is unavailable.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median wall seconds of `reps` calls of `fn` (setup excluded by the caller).
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = steady_ns();
    fn();
    s.push_back(seconds_since(t0));
  }
  return perfbench::median(s);
}

// ---------------------------------------------------------------------------
// Inputs (all derived from the seed)
// ---------------------------------------------------------------------------

/// Everything a job consumes. Built fresh for every job: building it (plus
/// constructing the runner) is the measured set-up.
struct Inputs {
  nn::StateDict initial;
  // Constant learners: site i sends update[i] (every element value[i]) with
  // samples[i] samples.
  std::vector<double> value;
  std::vector<std::int64_t> samples;
  std::vector<fl::Dxo> update;
  // LSTM learners.
  std::shared_ptr<train::ClassificationData> data;
  std::shared_ptr<models::ModelConfig> model_config;
  train::ExperimentScale scale;
};

std::int64_t vocab_size(const train::ExperimentScale& scale) {
  const cppflare::data::ClinicalCohortGenerator generator(scale.generator_config());
  const cppflare::data::ClinicalTokenizer tokenizer(generator.build_vocabulary(),
                                                    scale.max_seq_len);
  return static_cast<std::int64_t>(tokenizer.vocab().size());
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.scale.seed = 2024 + seed;
  in.scale.compute_threads = 0;
  core::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  if (w.learner == LearnerKind::kLstm) {
    in.data = std::make_shared<train::ClassificationData>(
        train::prepare_classification_data(in.scale));
    in.model_config = std::make_shared<models::ModelConfig>(models::ModelConfig::by_name(
        w.model, static_cast<std::int64_t>(in.data->tokenizer->vocab().size()),
        in.data->tokenizer->max_seq_len()));
    in.initial = models::make_classifier(*in.model_config, rng)->state_dict();
    return in;
  }
  if (std::strlen(w.model) == 0) {
    nn::ParamBlob blob{{64, 64}, std::vector<float>(4096)};
    for (float& v : blob.values) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    in.initial.insert("w", std::move(blob));
  } else {
    const models::ModelConfig config = models::ModelConfig::by_name(
        w.model, vocab_size(in.scale), in.scale.max_seq_len);
    in.initial = models::make_classifier(config, rng)->state_dict();
  }
  for (std::int64_t i = 0; i < w.sites; ++i) {
    // Values on a 1/1024 grid keep the closed-form mean well conditioned.
    const double v = static_cast<double>(rng.uniform_int(1, 1024)) / 1024.0;
    const std::int64_t n = rng.uniform_int(16, 512);
    nn::StateDict d = in.initial;
    for (auto& [name, blob] : d.entries()) {
      std::fill(blob.values.begin(), blob.values.end(), static_cast<float>(v));
    }
    fl::Dxo dxo(fl::DxoKind::kWeights, std::move(d));
    dxo.set_meta_int(fl::Dxo::kMetaNumSamples, n);
    in.value.push_back(v);
    in.samples.push_back(n);
    in.update.push_back(std::move(dxo));
  }
  return in;
}

/// The no-op learner: returns site `index`'s fixed update every round.
class ConstantLearner final : public fl::Learner {
 public:
  ConstantLearner(std::string site, std::shared_ptr<const Inputs> in, std::size_t index)
      : site_(std::move(site)), in_(std::move(in)), index_(index) {}
  fl::Dxo train(const fl::Dxo&, const fl::FLContext&) override { return in_->update[index_]; }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  std::shared_ptr<const Inputs> in_;
  std::size_t index_;
};

// ---------------------------------------------------------------------------
// Recorders (traced jobs install the wrappers; untraced jobs run bare)
// ---------------------------------------------------------------------------

/// EventBus handler target: one timestamp per phase, nothing else. The
/// server fires these under its lock, so they must stay this cheap (the
/// round observer hook would copy the global model there instead).
class PhaseRecorder {
 public:
  explicit PhaseRecorder(std::size_t rounds) { stamps_.reserve(4 * rounds + 8); }

  void attach(fl::EventBus& bus) {
    const std::pair<fl::EventType, Phase> kinds[] = {
        {fl::EventType::kRoundStarted, Phase::kStarted},
        {fl::EventType::kBeforeAggregation, Phase::kBeforeAggregation},
        {fl::EventType::kAfterAggregation, Phase::kAfterAggregation},
        {fl::EventType::kRoundDone, Phase::kDone}};
    for (const auto& [type, phase] : kinds) {
      bus.subscribe(type, [this, phase = phase](const fl::FLContext& ctx) {
        stamp(phase, ctx.current_round);
      });
    }
  }

  std::vector<perfbench::PhaseStamp> stamps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_;
  }
  /// steady_ns() minus the tracer clock, sampled inside the run (the
  /// simulator restarts the tracer epoch when run() begins).
  std::int64_t tracer_offset_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tracer_offset_ns_;
  }

 private:
  void stamp(Phase phase, std::int64_t round) {
    const std::int64_t t = steady_ns();
    std::lock_guard<std::mutex> lock(mu_);
    if (stamps_.empty() && core::Tracer::instance().enabled()) {
      tracer_offset_ns_ = steady_ns() - core::Tracer::instance().now_ns();
    }
    stamps_.push_back({phase, round, t});
  }

  mutable std::mutex mu_;
  std::vector<perfbench::PhaseStamp> stamps_;
  std::int64_t tracer_offset_ns_ = 0;
};

struct TrainStamp {
  std::int64_t round = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// Learner wrapper: wall span and thread CPU of every train() call.
class TimedLearner final : public fl::Learner {
 public:
  explicit TimedLearner(std::shared_ptr<fl::Learner> inner) : inner_(std::move(inner)) {}

  fl::Dxo train(const fl::Dxo& global, const fl::FLContext& ctx) override {
    const std::int64_t t0 = steady_ns();
    const std::int64_t c0 = thread_cpu_ns();
    fl::Dxo out = inner_->train(global, ctx);
    const std::int64_t c1 = thread_cpu_ns();
    const std::int64_t t1 = steady_ns();
    std::lock_guard<std::mutex> lock(mu_);
    stamps_.push_back({ctx.current_round, t0, t1, c1 - c0});
    return out;
  }
  std::string site_name() const override { return inner_->site_name(); }

  std::vector<TrainStamp> stamps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_;
  }

 private:
  std::shared_ptr<fl::Learner> inner_;
  mutable std::mutex mu_;
  std::vector<TrainStamp> stamps_;
};

struct AggregatorTimes {
  double accept_s = 0.0;
  double aggregate_s = 0.0;
  std::int64_t accepted = 0;
};

/// Times the base class's accept/aggregate. A subclass, not a forwarding
/// wrapper: the masked aggregator must still be MaskRecoveryCapable, or the
/// simulator would silently substitute its own.
template <class Base>
class TimedAggregator final : public Base {
 public:
  template <class... Args>
  explicit TimedAggregator(AggregatorTimes* times, Args&&... args)
      : Base(std::forward<Args>(args)...), times_(times) {}

  bool accept(const std::string& site, const fl::Dxo& contribution) override {
    const std::int64_t t0 = steady_ns();
    const bool ok = Base::accept(site, contribution);
    times_->accept_s += seconds_since(t0);
    if (ok) times_->accepted += 1;
    return ok;
  }
  nn::StateDict aggregate() override {
    const std::int64_t t0 = steady_ns();
    nn::StateDict out = Base::aggregate();
    times_->aggregate_s += seconds_since(t0);
    return out;
  }

 private:
  AggregatorTimes* times_;
};

// ---------------------------------------------------------------------------
// One job
// ---------------------------------------------------------------------------

struct Job {
  bool traced = false;
  bool measured = false;
  double setup_s = 0.0;
  double job_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // this job's own (set-up and run)
  std::vector<perfbench::RoundTimes> rounds;
  perfbench::Contributions contrib;
  bool aborted = false;
  std::string abort_reason;
  std::string model_sha;
  std::vector<double> train_loss;
  std::int64_t tcp_bytes = 0;
  std::int64_t tcp_frames = 0;
  // Traced jobs only.
  std::vector<core::TraceEvent> events;
  std::int64_t trace_dropped = 0;
  std::int64_t tracer_offset_ns = 0;
  std::vector<std::vector<TrainStamp>> train;  // per site
  AggregatorTimes agg;
  std::int64_t batches = 0;
  std::string check_error;  // empty when the output checks passed
};

std::string model_sha256(const nn::StateDict& model) {
  core::ByteWriter w;
  model.serialize(w);
  return core::to_hex(core::Sha256::hash(w.bytes().data(), w.bytes().size()));
}

/// Output checks on the final model that do not need other jobs.
std::string check_model(const Workload& w, const Inputs& in, const nn::StateDict& model) {
  if (w.learner == LearnerKind::kLstm) {
    for (const auto& [name, blob] : model.entries()) {
      for (const float v : blob.values) {
        if (!std::isfinite(v)) return "non-finite weight in " + name;
      }
    }
    return {};
  }
  if (!w.masked_journal) {
    // Weighted FedAvg of constants: every element equals sum(n_i v_i)/sum(n_i).
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < in.value.size(); ++i) {
      num += static_cast<double>(in.samples[i]) * in.value[i];
      den += static_cast<double>(in.samples[i]);
    }
    const double expect = num / den;
    for (const auto& [name, blob] : model.entries()) {
      for (const float v : blob.values) {
        if (std::fabs(static_cast<double>(v) - expect) > 1e-5 * std::fabs(expect)) {
          return "final model element " + std::to_string(v) + " in " + name +
                 " != closed-form weighted mean " + std::to_string(expect);
        }
      }
    }
    return {};
  }
  // Masked + DP: each site clips its constant update to norm kDpClipNorm
  // (1), adds N(0, 1) noise and pre-scales by n_i * sites / total. Masks that failed
  // to cancel would leave values of order 2^15; the noisy mean stays near
  // the clipped weighted mean.
  std::int64_t numel = 0;
  double sum = 0.0, max_abs = 0.0;
  for (const auto& [name, blob] : model.entries()) {
    for (const float v : blob.values) {
      if (!std::isfinite(v)) return "non-finite weight in " + name;
      sum += v;
      max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
      ++numel;
    }
  }
  double total = 0.0;
  for (const std::int64_t n : in.samples) total += static_cast<double>(n);
  const double clipped = kDpClipNorm / std::sqrt(static_cast<double>(numel));
  double expect = 0.0;
  for (std::size_t i = 0; i < in.value.size(); ++i) {
    expect += static_cast<double>(in.samples[i]) / total * std::min(in.value[i], clipped);
  }
  const double mean = sum / static_cast<double>(numel);
  if (std::fabs(mean - expect) > 0.01 || max_abs > 8.0) {
    return "masked aggregate off: mean " + std::to_string(mean) + " (expected ~" +
           std::to_string(expect) + "), max |w| " + std::to_string(max_abs);
  }
  return {};
}

struct Bench {
  Bench(const Workload& workload, std::uint64_t s, std::string dir, std::int64_t job_rounds)
      : w(workload), seed(s), workdir(std::move(dir)), rounds(job_rounds) {}

  const Workload& w;
  std::uint64_t seed;
  std::string workdir;
  std::int64_t rounds;  // rounds per job
  int job_counter = 0;

  fl::SimulatorConfig sim_config(const Inputs& in, bool traced, const std::string& dir) const {
    fl::SimulatorConfig sim;
    sim.num_clients = w.sites;
    sim.num_rounds = rounds;
    sim.use_tcp = w.tcp;
    sim.seed = seed * 7919 + 11;
    sim.site_workers = w.site_workers;
    sim.compute_threads = 0;
    sim.timeout_ms = 170000;
    sim.trace = traced;
    // A traced lstm_train job records ~0.5M spans (GEMM row chunks).
    sim.trace_capacity = w.learner == LearnerKind::kLstm ? (1 << 20) : (1 << 18);
    if (w.masked_journal) {
      std::int64_t total = 0;
      for (const std::int64_t n : in.samples) total += n;
      sim.secure_agg.enabled = true;
      sim.secure_agg.pre_scale = true;
      sim.secure_agg.total_samples = total;
      sim.secure_agg.dealer_seed = seed * 31 + 5;
      sim.dp.enabled = true;
      sim.secure_agg.frac_bits = kMaskFracBits;
      sim.dp.clip_norm = kDpClipNorm;
      sim.dp.noise_multiplier = kDpNoiseMultiplier;
      sim.dp.seed = seed * 131 + 3;
      sim.journal = true;
      sim.journal_sync = core::WalSyncPolicy::kEveryRound;
      sim.persist_path = dir + "/global.cpk";
    }
    return sim;
  }

  std::unique_ptr<fl::Aggregator> make_aggregator(AggregatorTimes* times) const {
    if (w.masked_journal) {
      if (times) {
        return std::make_unique<TimedAggregator<fl::MaskedFedAvgAggregator>>(times, kMaskFracBits);
      }
      return std::make_unique<fl::MaskedFedAvgAggregator>(kMaskFracBits);
    }
    if (times) return std::make_unique<TimedAggregator<fl::FedAvgAggregator>>(times, true);
    return std::make_unique<fl::FedAvgAggregator>(true);
  }

  fl::SimulatorRunner::LearnerFactory learner_factory(
      const std::shared_ptr<Inputs>& in,
      std::vector<std::shared_ptr<TimedLearner>>* timed) const {
    return [in, timed, lstm = w.learner == LearnerKind::kLstm](
               std::int64_t site, const std::string& name) -> std::shared_ptr<fl::Learner> {
      std::shared_ptr<fl::Learner> learner;
      const auto i = static_cast<std::size_t>(site);
      if (lstm) {
        core::Rng site_rng(in->scale.seed + 50 + static_cast<std::uint64_t>(site));
        train::LearnerOptions opts;
        opts.local_epochs = 1;
        opts.batch_size = in->scale.batch_size;
        opts.lr = in->scale.lr;
        opts.weight_decay = in->scale.weight_decay;
        opts.seed = in->scale.seed + 42;
        opts.verbose = false;
        learner = std::make_shared<train::ClinicalLearner>(
            name, models::make_classifier(*in->model_config, site_rng),
            in->data->shards[i], in->data->valid, opts);
      } else {
        learner = std::make_shared<ConstantLearner>(name, in, i);
      }
      if (!timed) return learner;
      auto wrapped = std::make_shared<TimedLearner>(std::move(learner));
      (*timed)[i] = wrapped;
      return wrapped;
    };
  }

  /// Set-up only (inputs + runner construction), for the set-up samples a
  /// run of few long jobs lacks.
  double setup_only() {
    const std::string dir = job_dir();
    const std::int64_t t0 = steady_ns();
    auto in = std::make_shared<Inputs>(make_inputs(w, seed));
    fl::SimulatorRunner runner(sim_config(*in, false, dir), in->initial,
                               make_aggregator(nullptr), learner_factory(in, nullptr));
    const double s = seconds_since(t0);
    std::filesystem::remove_all(dir);
    return s;
  }

  std::string job_dir() {
    const std::string dir = workdir + "/job" + std::to_string(job_counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  Job run_job(bool traced) {
    Job job;
    job.traced = traced;
    const std::string dir = job_dir();
    std::vector<std::shared_ptr<TimedLearner>> timed(static_cast<std::size_t>(w.sites));
    PhaseRecorder phases(static_cast<std::size_t>(rounds));

    peak_reset_ = reset_peak_rss();
    const std::int64_t t0 = steady_ns();
    auto in = std::make_shared<Inputs>(make_inputs(w, seed));
    fl::SimulatorRunner runner(sim_config(*in, traced, dir), in->initial,
                               make_aggregator(traced ? &job.agg : nullptr),
                               learner_factory(in, traced ? &timed : nullptr));
    job.setup_s = seconds_since(t0);

    phases.attach(runner.server().events());
    core::MetricRegistry& global = core::MetricRegistry::instance();
    const std::int64_t bytes0 = global.counter(fl::metric_names::kTcpBytesSent).value();
    const std::int64_t frames0 = global.counter(fl::metric_names::kTcpFramesSent).value();
    const std::int64_t batches0 = global.counter(fl::metric_names::kTrainBatches).value();
    const double cpu0 = process_cpu_s();
    const std::int64_t r0 = steady_ns();
    fl::SimulationResult result = runner.run();
    job.job_s = seconds_since(r0);
    job.cpu_s = process_cpu_s() - cpu0;
    job.peak_rss_mb = peak_rss_mb();
    job.tcp_bytes = global.counter(fl::metric_names::kTcpBytesSent).value() - bytes0;
    job.tcp_frames = global.counter(fl::metric_names::kTcpFramesSent).value() - frames0;
    job.batches = global.counter(fl::metric_names::kTrainBatches).value() - batches0;

    job.rounds = perfbench::pair_rounds(phases.stamps());
    std::vector<std::int64_t> per_round;
    for (const fl::RoundMetrics& m : result.history) {
      per_round.push_back(m.num_contributions);
      job.train_loss.push_back(m.train_loss);
    }
    job.contrib = perfbench::count_contributions(w.sites, rounds, per_round);
    job.aborted = result.aborted;
    job.abort_reason = result.abort_reason;
    job.model_sha = model_sha256(result.final_model);
    if (traced) {
      job.events = core::Tracer::instance().events();
      job.trace_dropped = core::Tracer::instance().dropped();
      core::Tracer::instance().clear();
      job.tracer_offset_ns = phases.tracer_offset_ns();
      for (const auto& t : timed) job.train.push_back(t ? t->stamps() : std::vector<TrainStamp>{});
    }
    job.check_error = check_model(w, *in, result.final_model);
    last_inputs_ = in;
    last_model_ = std::move(result.final_model);
    std::filesystem::remove_all(dir);
    // Hand freed job memory back to the OS so peak_rss_mb is one job's
    // footprint, not heap fragmentation accumulated over the run's jobs.
    malloc_trim(0);
    return job;
  }

  // The latest job's inputs and final model (identical across jobs, which
  // the SHA-256 check confirms), for the probes and the AUROC.
  std::shared_ptr<Inputs> last_inputs_;
  nn::StateDict last_model_;
  bool peak_reset_ = false;  // per-job peaks are available
};

// ---------------------------------------------------------------------------
// Per-layer attribution (traced jobs)
// ---------------------------------------------------------------------------

/// Self time of every event, keyed by id: its duration minus its direct
/// children's. A child counts only when it lies inside its parent: the
/// manual complete-event "server.round" names whatever span was open when
/// the round closed as its parent, although it began long before it.
std::map<std::uint64_t, std::int64_t> self_times(const std::vector<core::TraceEvent>& ev) {
  std::map<std::uint64_t, const core::TraceEvent*> by_id;
  std::map<std::uint64_t, std::int64_t> self;
  for (const core::TraceEvent& e : ev) {
    by_id[e.id] = &e;
    self[e.id] = e.dur_ns;
  }
  for (const core::TraceEvent& e : ev) {
    const auto it = by_id.find(e.parent);
    if (e.parent == 0 || it == by_id.end()) continue;
    const core::TraceEvent& p = *it->second;
    if (e.ts_ns >= p.ts_ns && e.ts_ns + e.dur_ns <= p.ts_ns + p.dur_ns) {
      self[p.id] -= e.dur_ns;
    }
  }
  return self;
}

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// Length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Timed calls into the layers' public functions at the workload's payload
/// sizes. Each value is one call's median wall seconds.
struct Probes {
  double pack_task = 0, decode_task = 0, pack_submit = 0, decode_submit = 0;
  double seal_task = 0, open_task = 0, seal_submit = 0, open_submit = 0;
  double seal_small = 0, open_small = 0;
  double task_frame_bytes = 0;
  double dp = 0;        // one site
  double mask_all = 0;  // all sites' mask filters, summed
  double journal_round = 0;
  double persist = 0;
  double score = 0;  // one site
};

Probes run_probes(const Workload& w, const Inputs& in, const nn::StateDict& model,
                  std::int64_t rounds, const std::string& dir) {
  Probes p;
  const int reps = w.sites >= 64 ? 15 : 3;
  const std::string job_id = fl::SimulatorConfig{}.job_id;
  fl::Dxo update = in.update.empty() ? fl::Dxo(fl::DxoKind::kWeights, model)
                                     : in.update.front();
  if (!update.has_meta(fl::Dxo::kMetaNumSamples)) {
    update.set_meta_int(fl::Dxo::kMetaNumSamples, 200);
    update.set_meta_double(fl::Dxo::kMetaTrainLoss, 0.5);
    update.set_meta_double(fl::Dxo::kMetaValidAcc, 0.5);
    update.set_meta_double(fl::Dxo::kMetaValidLoss, 0.5);
  }
  update.set_meta_int(fl::Dxo::kMetaRound, 1);
  const fl::TaskMessage task{fl::TaskKind::kTrain, 1, rounds,
                             fl::Dxo(fl::DxoKind::kWeights, model)};
  const fl::SubmitUpdateRequest submit{"session-0000", 1, update};
  std::vector<std::uint8_t> task_frame, submit_frame;
  p.pack_task = time_median(reps, [&] { task_frame = fl::pack(task); });
  p.pack_submit = time_median(reps, [&] { submit_frame = fl::pack(submit); });
  p.decode_task = time_median(reps, [&] { (void)fl::decode_task(task_frame); });
  p.decode_submit = time_median(reps, [&] { (void)fl::decode_submit(submit_frame); });
  p.task_frame_bytes = static_cast<double>(task_frame.size());

  std::vector<std::uint8_t> secret(32);
  core::Rng rng(0x5eed);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::uint8_t> sealed_task, sealed_submit, sealed_small;
  const std::vector<std::uint8_t> small = fl::pack(fl::GetTaskRequest{"session-0000", 10000});
  p.seal_task = time_median(reps, [&] { sealed_task = fl::seal("server", secret, 7, task_frame, job_id); });
  p.open_task = time_median(reps, [&] { (void)fl::open(sealed_task, secret); });
  p.seal_submit = time_median(reps, [&] { sealed_submit = fl::seal("site-1", secret, 7, submit_frame, job_id); });
  p.open_submit = time_median(reps, [&] { (void)fl::open(sealed_submit, secret); });
  p.seal_small = time_median(31, [&] { sealed_small = fl::seal("site-1", secret, 7, small, job_id); });
  p.open_small = time_median(31, [&] { (void)fl::open(sealed_small, secret); });

  fl::UpdateValidator validator;
  validator.reset(model, 1);
  p.score = time_median(reps, [&] {
    double norm = 0.0;
    (void)validator.score("site-1", update, &norm);
  });

  if (!w.masked_journal) return p;
  fl::FLContext ctx;
  ctx.job_id = job_id;
  ctx.current_round = 1;
  ctx.total_rounds = rounds;
  {
    fl::DpGaussianFilter dp(kDpClipNorm, kDpNoiseMultiplier, 99);
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
      fl::Dxo d = update;
      const std::int64_t t0 = steady_ns();
      dp.process(d, ctx);
      s.push_back(seconds_since(t0));
    }
    p.dp = perfbench::median(s);
  }
  {
    std::vector<std::string> names;
    for (std::int64_t i = 0; i < w.sites; ++i) names.push_back("site-" + std::to_string(i + 1));
    for (const std::string& name : names) {
      auto masker = fl::make_secure_agg_mask_filter(job_id, 5, name, names, kMaskFracBits);
      fl::Dxo d = update;
      const std::int64_t t0 = steady_ns();
      masker->process(d, ctx);
      p.mask_all += seconds_since(t0);
    }
  }
  {
    fl::RoundJournal journal(dir + "/probe.journal", core::WalSyncPolicy::kEveryRound);
    (void)journal.open(job_id);
    std::vector<std::string> cohort;
    for (std::int64_t i = 0; i < w.sites; ++i) cohort.push_back("site-" + std::to_string(i + 1));
    std::int64_t r = 0;
    p.journal_round = time_median(reps, [&] {
      journal.round_open(r, cohort);
      for (const std::string& site : cohort) journal.accepted(site, update);
      journal.sync();
      journal.commit(r);
      ++r;
    });
  }
  {
    const fl::ModelPersistor persistor(dir + "/probe.cpk");
    std::vector<fl::RoundMetrics> history(static_cast<std::size_t>(rounds));
    p.persist = time_median(reps, [&] {
      persistor.save({job_id, rounds - 1, model, history, {}});
    });
  }
  return p;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// An ordered list of named numbers with unit and sample count.
class MetricList {
 public:
  void add(const std::string& name, double value, const char* unit, std::size_t n,
           const char* how = "") {
    std::ostringstream o;
    o << "\"" << name << "\": {\"value\": " << num(value) << ", \"unit\": \"" << unit
      << "\", \"n\": " << n;
    if (std::strlen(how) > 0) o << ", \"how\": \"" << how << "\"";
    o << "}";
    items_.push_back(o.str());
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) out += (i ? ", " : "") + items_[i];
    return out + "}";
  }

 private:
  std::vector<std::string> items_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--workdir") a.workdir = value();
    else if (k == "--smoke") a.smoke = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

int run(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (!wp) throw std::runtime_error("unknown workload '" + args.workload + "'");
  const Workload& w = *wp;
  core::LogConfig::instance().set_threshold(core::LogLevel::kWarn);

  Bench bench(w, args.seed, args.workdir, args.smoke ? 2 : w.rounds);
  std::vector<std::string> errors;
  std::vector<Job> jobs;

  const std::int64_t start = steady_ns();
  if (w.warmup && !args.smoke) jobs.push_back(bench.run_job(false));
  const std::int64_t measure_start = steady_ns();
  // A fixed job count, not a deadline: a deadline would let a host's
  // speed that minute change how many (cold or warm) jobs a run holds. A
  // host four times slower than the reference still ends in bounded time.
  // Trace mode alternates untraced and traced jobs so trace.overhead
  // compares like with like; both kinds run at least once.
  const long planned = std::max(args.trace ? 2L : 1L,
                                std::lround(args.seconds / w.nominal_job_s));
  for (long i = 0; i < planned; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    Job job = bench.run_job(traced);
    job.measured = true;
    jobs.push_back(std::move(job));
    const bool both = !args.trace || i >= 1;
    if (both && seconds_since(measure_start) > 4.0 * std::max(args.seconds, 1.0)) break;
  }
  std::vector<double> setups;
  for (const Job& j : jobs) setups.push_back(j.setup_s);
  while (setups.size() < 7) setups.push_back(bench.setup_only());
  const double measure_s = seconds_since(measure_start);

  // ---- output checks ----
  std::int64_t attempted = 0, failed = 0;
  for (const Job& j : jobs) {
    attempted += j.contrib.expected;
    failed += j.contrib.failed();
    if (j.aborted) errors.push_back("job aborted: " + j.abort_reason);
    if (j.contrib.failed() != 0) {
      errors.push_back(std::to_string(j.contrib.failed()) + " contribution(s) not aggregated");
    }
    if (!j.check_error.empty()) errors.push_back(j.check_error);
    if (j.model_sha != jobs.front().model_sha) {
      errors.push_back(std::string("final-model SHA-256 differs between ") +
                       (j.traced ? "traced" : "untraced") + " jobs of one invocation");
    }
    if (w.learner == LearnerKind::kLstm && j.train_loss != jobs.front().train_loss) {
      errors.push_back("per-round train_loss history differs between jobs");
    }
    if (static_cast<std::int64_t>(j.rounds.size()) != bench.rounds && !j.aborted) {
      errors.push_back("EventBus phases paired into " + std::to_string(j.rounds.size()) +
                       " rounds, expected " + std::to_string(bench.rounds));
    }
  }

  // ---- end-to-end metrics over measured untraced jobs ----
  std::vector<double> job_s, round_s, peaks;
  double cpu = 0.0;
  std::int64_t rounds_total = 0, bytes = 0;
  for (const Job& j : jobs) {
    if (!j.measured || j.traced) continue;
    job_s.push_back(j.job_s);
    peaks.push_back(j.peak_rss_mb);
    for (const auto& r : j.rounds) round_s.push_back(r.wall_s());
    cpu += j.cpu_s;
    rounds_total += static_cast<std::int64_t>(j.rounds.size());
    bytes += j.tcp_bytes;
  }
  const double per_round = rounds_total > 0 ? 1.0 / static_cast<double>(rounds_total) : 0.0;
  MetricList e2e, extra, layers;
  e2e.add("setup_s", perfbench::median(setups), "s", setups.size());
  e2e.add("job_s", perfbench::median(job_s), "s", job_s.size());
  e2e.add("round_s_p50", perfbench::median(round_s), "s", round_s.size());
  e2e.add("cpu_s_per_round", cpu * per_round, "s", static_cast<std::size_t>(rounds_total));
  // Median of the jobs' own peaks where the kernel can reset the mark;
  // otherwise the process peak over the whole run.
  if (bench.peak_reset_) {
    e2e.add("peak_rss_mb", perfbench::median(peaks), "MB", peaks.size(), "median of per-job peaks");
  } else {
    e2e.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak");
  }

  extra.add("contrib_failed_frac",
            attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
            "fraction", static_cast<std::size_t>(attempted));
  std::string tail_label = "none";
  if (const auto tail = perfbench::tail_percentile(round_s)) {
    char label[32];
    std::snprintf(label, sizeof(label), "p%g", tail->percentile);
    tail_label = label;
    extra.add("round_s_tail", tail->value, "s", tail->samples, label);
  }
  if (w.tcp) extra.add("wire_mb_per_round", 1e-6 * static_cast<double>(bytes) * per_round, "MB", static_cast<std::size_t>(rounds_total));
  if (w.learner == LearnerKind::kLstm) {
    // Outside every timed region: score the final global model once (all
    // jobs produced the same bits, checked above).
    core::Rng eval_rng(bench.last_inputs_->scale.seed + 70);
    auto model = models::make_classifier(*bench.last_inputs_->model_config, eval_rng);
    model->load_state_dict(bench.last_model_);
    const train::ScoredPredictions pred =
        train::score_dataset(*model, bench.last_inputs_->data->valid, bench.last_inputs_->scale.batch_size);
    extra.add("val_auroc", train::auroc(pred.scores, pred.labels), "auroc", pred.labels.size());
  }

  // ---- per-layer metrics over traced jobs ----
  if (args.trace) {
    std::vector<double> gather, close, persist, idle, critical, traced_job_s;
    double submit = 0, get_task = 0, busy = 0, tcpu = 0, gemm = 0, csubmit = 0, tcall = 0;
    double unattributed = 0, wall = 0;
    std::int64_t traced_rounds = 0, batches = 0, frames = 0, dropped = 0, accepted = 0;
    std::int64_t events = 0;
    std::map<std::string, double> span_self;  // span name -> self seconds
    double accept = 0, aggregate = 0;
    for (const Job& j : jobs) {
      if (!j.traced) continue;
      traced_job_s.push_back(j.job_s);
      traced_rounds += static_cast<std::int64_t>(j.rounds.size());
      batches += j.batches;
      frames += j.tcp_frames;
      dropped += j.trace_dropped;
      events += static_cast<std::int64_t>(j.events.size());
      accept += j.agg.accept_s;
      aggregate += j.agg.aggregate_s;
      accepted += j.agg.accepted;
      for (const auto& r : j.rounds) {
        gather.push_back(r.gather_s());
        close.push_back(r.close_s());
        persist.push_back(r.persist_s());
      }
      const auto self = self_times(j.events);
      for (const core::TraceEvent& e : j.events) {
        const double s = 1e-9 * static_cast<double>(self.at(e.id));
        span_self[e.name] += s;
        if (std::strcmp(e.name, "server.submit") == 0) submit += s;
        else if (std::strcmp(e.name, "server.get_task") == 0) get_task += s;
        // Inclusive: a GEMM span's children are the tensor.parallel_rows
        // chunks that compute the GEMM itself.
        else if (starts_with(e.name, "tensor.gemm_")) gemm += 1e-9 * static_cast<double>(e.dur_ns);
        else if (std::strcmp(e.name, "client.submit") == 0) csubmit += s;
        else if (std::strcmp(e.name, "tcp.call") == 0) tcall += s;
      }
      // Per-site train stamps -> busy, CPU, critical path, idle gaps.
      std::map<std::int64_t, std::pair<std::int64_t, std::size_t>> last_end;  // round -> (end, site)
      std::map<std::int64_t, std::int64_t> round_max;
      for (std::size_t site = 0; site < j.train.size(); ++site) {
        const auto& st = j.train[site];
        for (std::size_t k = 0; k < st.size(); ++k) {
          const TrainStamp& t = st[k];
          busy += 1e-9 * static_cast<double>(t.end_ns - t.start_ns);
          tcpu += 1e-9 * static_cast<double>(t.cpu_ns);
          round_max[t.round] = std::max(round_max[t.round], t.end_ns - t.start_ns);
          auto& le = last_end[t.round];
          if (t.end_ns > le.first) le = {t.end_ns, site};
          if (k > 0 && st[k - 1].round + 1 == t.round) {
            idle.push_back(1e-9 * static_cast<double>(t.start_ns - st[k - 1].end_ns));
          }
        }
      }
      for (const auto& [round, d] : round_max) critical.push_back(1e-9 * static_cast<double>(d));
      // Unattributed remainder on the critical (last-to-submit) site.
      for (const auto& r : j.rounds) {
        const auto le = last_end.find(r.round);
        if (le == last_end.end()) continue;
        const std::size_t crit = le->second.second;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const TrainStamp& t : j.train[crit]) {
          if (t.round == r.round) iv.push_back({t.start_ns, t.end_ns});
        }
        const std::string crit_name = "site-" + std::to_string(crit + 1);
        for (const core::TraceEvent& e : j.events) {
          if (e.round == r.round && crit_name == e.site &&
              std::strcmp(e.name, "server.submit") == 0) {
            const std::int64_t s = e.ts_ns + j.tracer_offset_ns;
            iv.push_back({s, s + e.dur_ns});
          }
        }
        iv.push_back({r.before_agg_ns, r.after_agg_ns});
        iv.push_back({r.after_agg_ns, r.done_ns});
        for (auto& [s, e] : iv) {
          s = std::clamp(s, r.started_ns, r.done_ns);
          e = std::clamp(e, r.started_ns, r.done_ns);
        }
        const std::int64_t round_wall = r.done_ns - r.started_ns;
        unattributed += 1e-9 * static_cast<double>(round_wall - union_length(iv));
        wall += 1e-9 * static_cast<double>(round_wall);
      }
    }
    const double tr = traced_rounds > 0 ? 1.0 / static_cast<double>(traced_rounds) : 0.0;
    const auto n_rounds = static_cast<std::size_t>(traced_rounds);
    const double sites = static_cast<double>(w.sites);
    const Probes p = run_probes(w, *bench.last_inputs_, bench.last_model_,
                                bench.rounds, args.workdir);
    // Frames per round: TCP counts them; in-proc each site-round moves a
    // get_task, a task, a submit and an ack (two payload frames, two small).
    const double frames_per_round = w.tcp ? static_cast<double>(frames) * tr : 4.0 * sites;
    const double small_frames = std::max(0.0, frames_per_round - 2.0 * sites);

    layers.add("server.gather_s", perfbench::median(gather), "s", gather.size());
    layers.add("server.close_s", perfbench::median(close), "s", close.size());
    layers.add("server.persist_s", perfbench::median(persist), "s", persist.size());
    layers.add("server.submit_s", submit * tr, "s/round", n_rounds, "span self time");
    layers.add("server.get_task_s", get_task * tr, "s/round", n_rounds, "span self time");
    layers.add("train.busy_s", busy * tr, "s/round", n_rounds, "learner wrapper, sum over sites");
    layers.add("train.critical_s", perfbench::median(critical), "s", critical.size(),
               "learner wrapper, max over sites");
    layers.add("train.cpu_s", tcpu * tr, "s/round", n_rounds, "learner wrapper thread CPU");
    layers.add("train.batches", static_cast<double>(batches) * tr, "count/round", n_rounds);
    layers.add("tensor.gemm_s", gemm * tr, "s/round", n_rounds, "span duration incl. its row chunks");
    layers.add("client.idle_s", perfbench::median(idle), "s", idle.size(),
               "learner wrapper, gap between rounds");
    layers.add("client.submit_s", csubmit * tr, "s/round", n_rounds, "span self time");
    layers.add("tcp.call_s", tcall * tr, "s/round", n_rounds, "span self time");
    layers.add("tcp.frames_per_round", static_cast<double>(frames) * tr, "count/round", n_rounds);
    layers.add("aggregator.accept_s", accept * tr, "s/round", n_rounds, "aggregator subclass");
    layers.add("aggregator.aggregate_s", aggregate * tr, "s/round", n_rounds, "aggregator subclass");
    layers.add("aggregator.accepted", static_cast<double>(accepted) * tr, "count/round", n_rounds);
    const double seal_s = sites * (p.seal_task + p.seal_submit) + small_frames * p.seal_small;
    const double open_s = sites * (p.open_task + p.open_submit) + small_frames * p.open_small;
    layers.add("secure_channel.seal_s", seal_s, "s/round", 1, "estimate: timed seal x frames");
    layers.add("secure_channel.open_s", open_s, "s/round", 1, "estimate: timed open x frames");
    layers.add("secure_channel.mb_per_s", 1e-6 * p.task_frame_bytes / p.seal_task, "MB/s", 1,
               "estimate: seal of one task frame, wall clock");
    const double pack_s = sites * (p.pack_task + p.pack_submit);
    const double decode_s = sites * (p.decode_task + p.decode_submit);
    layers.add("messages.pack_s", pack_s, "s/round", 1, "estimate: timed pack x sites");
    layers.add("messages.decode_s", decode_s, "s/round", 1, "estimate: timed decode x sites");
    layers.add("filters.dp_s", sites * p.dp, "s/round", 1, "estimate: timed filter x sites");
    layers.add("secure_agg.mask_s", p.mask_all, "s/round", 1, "estimate: timed mask filter, all sites");
    layers.add("journal.append_s", p.journal_round, "s/round", 1,
               "estimate: timed accepted x sites + sync + commit");
    layers.add("persistor.save_s", p.persist, "s/round", 1, "estimate: timed save");
    layers.add("validator.score_s", sites * p.score, "s/round", 1, "estimate: timed score x sites");
    layers.add("round.unattributed_frac", wall > 0 ? unattributed / wall : 0.0, "fraction", n_rounds,
               "round wall minus critical-site train, its server.submit span, close and persist");
    // The critical site's chain the spans do not cover: task pack/seal on
    // the server, open/decode, filters and pack/seal on the site, then
    // open/decode of the submit on the server.
    const double chain = p.pack_task + p.seal_task + p.open_task + p.decode_task + p.dp +
                         p.mask_all / sites + p.pack_submit + p.seal_submit + p.open_submit +
                         p.decode_submit;
    const double unattributed_per_round = unattributed * tr;
    layers.add("round.probe_explained_frac",
               unattributed_per_round > 0 ? chain / unattributed_per_round : 0.0, "fraction",
               n_rounds, "estimate: timed-call chain of one site / unattributed time");
    layers.add("trace.overhead", perfbench::median(traced_job_s) / perfbench::median(job_s),
               "ratio", traced_job_s.size(), "traced job_s / untraced job_s");
    for (const auto& [name, total] : span_self) {
      extra.add("span." + name, total * tr, "s/round", n_rounds, "self time of every span so named");
    }
    extra.add("trace.events", static_cast<double>(events), "count", 1);
    extra.add("trace.dropped_events", static_cast<double>(dropped), "count", 1);
  }

  std::ostringstream jobs_json;
  jobs_json << "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    jobs_json << (i ? ", " : "") << "{\"kind\": \""
              << (!j.measured ? "warmup" : j.traced ? "traced" : "measured")
              << "\", \"setup_s\": " << num(j.setup_s) << ", \"wall_s\": " << num(j.job_s)
              << ", \"peak_rss_mb\": " << num(j.peak_rss_mb)
              << ", \"process_cpu_s\": " << num(j.cpu_s) << ", \"rounds\": " << j.rounds.size()
              << ", \"round_s\": [";
    for (std::size_t k = 0; k < j.rounds.size(); ++k) {
      jobs_json << (k ? ", " : "") << num(j.rounds[k].wall_s());
    }
    jobs_json << "], \"model_sha256\": \"" << j.model_sha << "\"}";
  }
  jobs_json << "]";
  std::ostringstream err_json;
  err_json << "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    err_json << (i ? ", " : "") << "\"" << json_escape(errors[i]) << "\"";
  }
  err_json << "]";

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"correct\": %s, \"errors\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"rounds_per_job\": %lld, \"payload_floats\": %lld, \"measure_s\": %s, "
      "\"total_s\": %s, \"tail\": \"%s\", "
      "\"end_to_end\": %s, \"per_layer\": %s, \"extra\": %s, \"jobs\": %s, "
      "\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"compute_threads\": %lld, \"hardware_threads\": %u}}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      args.smoke ? "true" : "false", errors.empty() ? "true" : "false",
      err_json.str().c_str(), static_cast<long long>(attempted),
      static_cast<long long>(failed), static_cast<long long>(bench.rounds),
      static_cast<long long>(bench.last_model_.total_numel()), num(measure_s).c_str(),
      num(seconds_since(start)).c_str(), tail_label.c_str(), e2e.json().c_str(),
      layers.json().c_str(), extra.json().c_str(), jobs_json.str().c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), json_escape(PERFBENCH_BUILD_TYPE).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      static_cast<long long>(core::compute_threads()), std::thread::hardware_concurrency());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "round_bench: %s\n", e.what());
    return 2;
  }
}
