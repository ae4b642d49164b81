// The repository benchmark: builds one workload from a seed, drives the
// serving stack through its public entry points, checks the answers and
// prints every metric. See perfbench/README.md.
//
//   perfbench --workload cold-bound|cold-dense|live-mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// The last line of standard output is the JSON result; the human-readable
// report goes to standard error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/percentile.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core.h"
#include "loadgen.h"
#include "engine/batch_match_engine.h"
#include "engine/query_cache.h"
#include "engine/similarity_matrix_pool.h"
#include "eval/answer_set_io.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "io/csv.h"
#include "match/fingerprint.h"
#include "schema/text_format.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "sim/synonyms.h"
#include "synth/stream.h"
#include "tracer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using smb::Result;
using smb::Status;

// ---------------------------------------------------------------------------
// Workload shape. Shared by all three workloads unless noted.

constexpr size_t kQueryElements = 5;
constexpr double kDelta = 0.25;
/// Bound-driven completeness target and the live shed floor.
constexpr double kTarget = 0.9;
constexpr double kLiveMinTarget = 0.7;
/// Cold requests per measured second, and the floor p90 needs (100
/// samples, so ten lie beyond it, plus a margin).
constexpr double kColdPerSecond = 6.0;
constexpr size_t kMinColdRequests = 110;
/// The first cold requests of a run are checked off the clock.
constexpr size_t kChecked = 16;
/// Result-cache entries: the serve command's default on the cold
/// workloads; live-mixed holds every query it sees (top-10 sets are small).
constexpr size_t kColdCacheEntries = 64;
constexpr size_t kLiveCacheEntries = 4096;
/// The streamed corpus and the query pool are fixed synthetic data; the
/// seed orders the pool and draws arrivals and hot-set picks.
constexpr uint64_t kCorpusSeed = 2006;
/// `warm_p99_ms` is the median of the p99s of consecutive blocks of this
/// many nominal-rate warm requests.
constexpr size_t kWarmBlock = 1000;
/// Hot query set the warm traffic draws from (Zipf, exponent 1).
constexpr size_t kHotQueries = 16;
constexpr double kHotZipf = 1.0;
/// Warm latency limit (the interactive class's deadline).
constexpr double kSloMs = 50.0;
/// Set-ups per run; `setup_s` is the median of all but the first, which
/// pays the allocator's first-touch page faults.
constexpr int kSetups = 12;
/// Engine threads and load-generator threads never exceed this.
constexpr size_t kCores = 4;

enum class Kind { kColdBound, kColdDense, kLiveMixed };

struct Shape {
  Kind kind = Kind::kColdBound;
  /// Streamed repository size.
  uint64_t schemas = 1000;
  bool adaptive = true;
  size_t engine_threads = kCores;
  size_t top_k = 0;
  double min_target = kTarget;
  /// Warm open-loop rates, ascending; the first is the nominal rate the
  /// warm latencies are reported at.
  std::vector<double> ladder_rps;
  /// How long each ladder rung lasts; the nominal rung must see at least
  /// one block of `kWarmBlock` warm requests.
  double rung_seconds = 2.5;
  /// Warm sender threads (each its own connection on live-mixed).
  size_t warm_senders = 2;
  /// Live-mixed only: the cold stream's fixed Poisson rate.
  double cold_rps = 0.0;
};

Result<Shape> ShapeFor(const std::string& workload) {
  Shape shape;
  if (workload == "cold-bound") {
    shape.kind = Kind::kColdBound;
    shape.ladder_rps = {2000, 4000};
  } else if (workload == "cold-dense") {
    shape.kind = Kind::kColdDense;
    shape.adaptive = false;
    shape.min_target = 1.0;
    shape.ladder_rps = {2000, 4000};
  } else if (workload == "live-mixed") {
    shape.kind = Kind::kLiveMixed;
    // One engine thread per request: a smaller repository keeps a cold
    // request near 60 ms, so the fixed cold rate keeps one worker
    // partly busy without a growing backlog.
    shape.schemas = 300;
    shape.engine_threads = 1;
    shape.top_k = 10;
    shape.min_target = kLiveMinTarget;
    shape.ladder_rps = {1000, 2000};
    // One connection carries the cold stream, the rest the warm traffic.
    shape.warm_senders = kCores - 1;
    shape.cold_rps = 6.0;
    // The rungs together span the cold stream.
    shape.rung_seconds = 0.0;  // set from the cold stream's length
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return shape;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;
  /// Traced run: where the spans are written (empty = not written).
  std::string spans;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    return Status::InvalidArgument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR");
  }
  return args;
}

const smb::sim::SynonymTable& Synonyms() {
  static const smb::sim::SynonymTable kSynonyms =
      smb::sim::SynonymTable::Builtin();
  return kSynonyms;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return smb::NearestRankQuantileInPlace(&v, 0.5);
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Inputs: repository and query files, all from the seed.

struct Inputs {
  smb::schema::SchemaRepository repo;
  double synth_s = 0.0;
  /// Never-seen queries, one per cold request (distinct fingerprints).
  std::vector<smb::schema::Schema> cold;
  std::vector<std::string> cold_files;
  /// The hot set: live-mixed pre-warms its own; the cold workloads reuse
  /// their last cold queries, which the cold phase just cached.
  std::vector<std::string> hot_files;
};

Result<Inputs> Synthesize(const Args& args, const Shape& shape,
                          size_t cold_count) {
  Inputs in;
  smb::synth::StreamOptions options;
  options.num_schemas = shape.schemas;
  options.vocabulary_size = 512;
  options.min_schema_elements = 6;
  options.max_schema_elements = 14;
  options.zipf_exponent = 1.1;
  options.typed_leaf_fraction = 0.6;
  options.seed = kCorpusSeed;
  const int64_t start = Tracer::NowNs();
  SMB_ASSIGN_OR_RETURN(smb::synth::SchemaStream stream,
                       smb::synth::SchemaStream::Create(options));
  SMB_ASSIGN_OR_RETURN(in.repo, smb::synth::BuildStreamRepository(stream));
  in.synth_s = (Tracer::NowNs() - start) / 1e9;

  // The query pool is fixed like the corpus; the seed shuffles the order
  // it is sent in and which hot query each Zipf rank names.
  smb::Rng rng(kCorpusSeed ^ 0x632BE59BD9B4E019ULL);
  smb::sim::NameSimilarityOptions name;
  name.synonyms = &Synonyms();
  std::set<uint64_t> seen;
  const size_t hot_own = shape.kind == Kind::kLiveMixed ? kHotQueries : 0;
  std::vector<smb::schema::Schema> queries;
  while (queries.size() < cold_count + hot_own) {
    SMB_ASSIGN_OR_RETURN(smb::schema::Schema q,
                         stream.GenerateQuery(kQueryElements, &rng));
    if (seen.insert(smb::match::FingerprintPreparedSchema(q, name)).second) {
      queries.push_back(std::move(q));
    }
  }
  smb::Rng order(args.seed);
  auto shuffle = [&](size_t lo, size_t hi) {
    for (size_t i = hi; i > lo + 1; --i) {
      std::swap(queries[i - 1], queries[lo + order.UniformIndex(i - lo)]);
    }
  };
  shuffle(0, hot_own);
  shuffle(hot_own, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool hot = i < hot_own;
    const std::string path = args.work_dir + (hot ? "/hot-" : "/q-") +
                             std::to_string(i) + ".txt";
    SMB_RETURN_IF_ERROR(smb::io::WriteTextFile(
        path, smb::schema::WriteSchemaText(queries[i])));
    if (hot) {
      in.hot_files.push_back(path);
    } else {
      in.cold_files.push_back(path);
      in.cold.push_back(std::move(queries[i]));
    }
  }
  if (hot_own == 0) {
    in.hot_files.assign(in.cold_files.end() - kHotQueries,
                        in.cold_files.end());
  }
  return in;
}

// ---------------------------------------------------------------------------
// Serving state.

struct Config {
  smb::match::MatchOptions match_options;
  smb::serve::ServingIndexOptions index_options;
  smb::engine::BatchMatchOptions engine_options;
  smb::serve::LoadShedPolicy shed;
};

Config MakeConfig(const Shape& shape) {
  Config c;
  c.match_options.delta_threshold = kDelta;
  c.match_options.objective.name.synonyms = &Synonyms();
  c.index_options.matcher_kind = "exhaustive";
  c.index_options.name_options = c.match_options.objective.name;
  // Serial index build, the serve command's default.
  c.index_options.num_threads = 1;
  c.engine_options.num_threads = shape.engine_threads;
  c.engine_options.global_top_k = shape.top_k;
  if (shape.adaptive) {
    smb::index::AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = kTarget;
    c.engine_options.adaptive = policy;
    c.shed.base_target = kTarget;
  } else {
    c.shed.base_target = 1.0;
  }
  c.shed.min_target = shape.min_target;
  return c;
}

/// A running service (and, on live-mixed, its server).
struct Serving {
  std::shared_ptr<const smb::serve::ServingIndex> index;
  std::unique_ptr<smb::engine::QueryResultCache> cache;
  std::unique_ptr<smb::serve::MatchService> service;
  std::unique_ptr<smb::serve::MatchServer> server;

  Serving() = default;
  Serving(Serving&&) = default;
  Serving& operator=(Serving&&) = default;
  ~Serving() { Stop(); }

  void Stop() {
    if (server) {
      server->RequestDrain();
      server->Wait();
      server.reset();
    }
  }
};

std::unique_ptr<smb::serve::MatchService> MakeService(
    const Config& config,
    std::shared_ptr<const smb::serve::ServingIndex> index,
    smb::engine::QueryResultCache* cache) {
  smb::serve::MatchServiceConfig sc;
  sc.match_options = config.match_options;
  sc.engine_options = config.engine_options;
  sc.cache = cache;
  sc.shed = config.shed;
  sc.index_options = config.index_options;
  return std::make_unique<smb::serve::MatchService>(std::move(index), sc);
}

/// Builds the serving state (plus the server on live-mixed); the time it
/// takes is one `setup_s` sample.
Result<Serving> StartServing(const Config& config, const Shape& shape,
                             const smb::schema::SchemaRepository& repo,
                             double* seconds) {
  smb::schema::SchemaRepository copy = repo;  // not part of set-up
  Serving s;
  const int64_t start = Tracer::NowNs();
  SMB_ASSIGN_OR_RETURN(s.index, smb::serve::BuildServingIndex(
                                    std::move(copy), config.index_options,
                                    /*generation=*/1));
  s.cache = std::make_unique<smb::engine::QueryResultCache>(
      shape.kind == Kind::kLiveMixed ? kLiveCacheEntries : kColdCacheEntries);
  s.service = MakeService(config, s.index, s.cache.get());
  if (shape.kind == Kind::kLiveMixed) {
    smb::serve::MatchServerConfig server_config;
    server_config.workers = 2;
    server_config.queue_depth = 16;
    s.server = std::make_unique<smb::serve::MatchServer>(s.service.get(),
                                                         server_config);
    SMB_RETURN_IF_ERROR(s.server->Start());
  }
  *seconds = (Tracer::NowNs() - start) / 1e9;
  return s;
}

// ---------------------------------------------------------------------------
// Traffic.

std::string MatchLine(const std::string& query, const std::string& out,
                      bool interactive) {
  return "match " + query + " " + out +
         (interactive ? " class=interactive deadline_ms=50" : " class=batch");
}

Outcome ExecuteInProcess(smb::serve::MatchService* service,
                         const std::string& query, const std::string& out,
                         double target = 0.0) {
  smb::serve::Request request;
  request.query_path = query;
  request.out_path = out;
  request.target_bound = target;
  Outcome outcome;
  Result<smb::serve::MatchResponse> response = service->Execute(request, 0.0);
  if (response.ok()) {
    outcome.ok = true;
    outcome.response = *std::move(response);
  } else {
    outcome.error = response.status().ToString();
  }
  return outcome;
}

/// The per-connection (or per-sender) scratch answer file.
std::string ScratchOut(const Args& args, const std::string& kind, size_t id) {
  return args.work_dir + "/" + kind + "-" + std::to_string(id) + ".csv";
}

std::string CheckedOut(const Args& args, size_t i) {
  return args.work_dir + "/checked-" + std::to_string(i) + ".csv";
}

struct Ladder {
  std::vector<RungVerdict> verdicts;
  /// Every warm request, all rungs.
  std::vector<Timed> all;
  /// The nominal (first) rung's requests.
  std::vector<Timed> nominal;
};

/// Runs the warm ladder: one open-loop Poisson rung per rate, queries
/// drawn Zipf from the hot set.
Ladder RunLadder(const Shape& shape, uint64_t seed, const Executor& execute) {
  Ladder ladder;
  smb::Rng rng(seed ^ 0x5DEECE66DULL);
  smb::ZipfSampler zipf(kHotQueries, kHotZipf);
  for (size_t r = 0; r < shape.ladder_rps.size(); ++r) {
    const double rate = shape.ladder_rps[r];
    const size_t count = static_cast<size_t>(rate * shape.rung_seconds);
    std::vector<Scheduled> schedule =
        PoissonSchedule(count, rate, 1.0, &rng,
                        [&]() { return zipf.Sample(&rng); });
    std::vector<Timed> timed = RunOpenLoop(schedule, shape.warm_senders,
                                           Tracer::NowNs(), execute);
    // The verdict is the interactive users' view: every request of the
    // warm traffic, hit or not, timed from its due time.
    std::vector<double> latencies;
    std::vector<double> lags;
    for (const Timed& t : timed) {
      lags.push_back(GeneratorLag(t.times));
      latencies.push_back(t.outcome.ok
                              ? LatencyFromDue(t.times)
                              : std::numeric_limits<double>::infinity());
    }
    ladder.verdicts.push_back(
        JudgeRung(rate, latencies, lags, kSloMs, kWarmBlock));
    if (r == 0) ladder.nominal = timed;
    ladder.all.insert(ladder.all.end(), timed.begin(), timed.end());
  }
  return ladder;
}

/// Everything the measured phase produced.
struct Traffic {
  /// Cold-stream requests (cold workloads: closed loop, due = sent).
  std::vector<Timed> cold;
  Ladder ladder;
  /// Answer files written for the checked requests: (query file, answer
  /// file, response).
  struct Checked {
    std::string query;
    std::string answers;
    smb::serve::MatchResponse response;
  };
  std::vector<Checked> checked;
};

/// Cold workloads: one closed-loop client over never-seen queries, then
/// the warm ladder in process over the hot set the cold phase cached.
Traffic RunInProcess(const Args& args, const Shape& shape, const Inputs& in,
                     Serving* serving) {
  Traffic traffic;
  for (size_t i = 0; i < in.cold_files.size(); ++i) {
    const std::string out =
        i < kChecked ? CheckedOut(args, i) : ScratchOut(args, "cold", 0);
    Timed t;
    t.query = i;
    const int64_t start = Tracer::NowNs();
    t.outcome = ExecuteInProcess(serving->service.get(), in.cold_files[i], out);
    t.times.done_ms = (Tracer::NowNs() - start) / 1e6;
    traffic.cold.push_back(t);
    if (i < kChecked && t.outcome.ok) {
      traffic.checked.push_back({in.cold_files[i], out, t.outcome.response});
    }
  }
  // Re-request the hot set untimed: whatever the LRU evicted is cached
  // again before the ladder starts.
  for (const std::string& hot : in.hot_files) {
    (void)ExecuteInProcess(serving->service.get(), hot, "");
  }
  // Repeat requests without an answer file: the in-process hit path
  // (parse, fingerprint, lookup). A full answer set rewritten on every
  // hit would time the CSV writer instead.
  traffic.ladder = RunLadder(shape, args.seed, [&](size_t, size_t q) {
    return ExecuteInProcess(serving->service.get(), in.hot_files[q], "");
  });
  return traffic;
}

/// Live-mixed: the hot set is pre-warmed through the server, then the
/// warm ladder (its own connections) runs beside a fixed-rate cold stream
/// on one connection, both open loop.
Result<Traffic> RunLive(const Args& args, const Shape& shape,
                        const Inputs& in, Serving* serving) {
  const uint16_t port = serving->server->port();
  std::vector<std::unique_ptr<LineClient>> warm_clients;
  for (size_t i = 0; i < shape.warm_senders; ++i) {
    SMB_ASSIGN_OR_RETURN(auto client, LineClient::Connect("127.0.0.1", port));
    warm_clients.push_back(std::move(client));
  }
  SMB_ASSIGN_OR_RETURN(auto cold_client,
                       LineClient::Connect("127.0.0.1", port));
  for (const std::string& hot : in.hot_files) {
    Outcome warmed = warm_clients[0]->Call(
        MatchLine(hot, ScratchOut(args, "warm", 0), true));
    if (!warmed.ok) return Status::Internal("pre-warm failed: " + warmed.error);
  }

  Traffic traffic;
  smb::Rng rng(args.seed ^ 0x2545F4914F6CDD1DULL);
  size_t next_cold = 0;
  const std::vector<Scheduled> cold_schedule = PoissonSchedule(
      in.cold_files.size(), shape.cold_rps, 1.0, &rng,
      [&]() { return next_cold++; });
  const int64_t start = Tracer::NowNs();
  std::thread cold_thread([&]() {
    traffic.cold =
        RunOpenLoop(cold_schedule, 1, start, [&](size_t, size_t q) {
          const std::string out =
              q < kChecked ? CheckedOut(args, q) : ScratchOut(args, "cold", 0);
          return cold_client->Call(MatchLine(in.cold_files[q], out, false));
        });
  });
  traffic.ladder = RunLadder(shape, args.seed, [&](size_t sender, size_t q) {
    return warm_clients[sender]->Call(
        MatchLine(in.hot_files[q], ScratchOut(args, "warm", sender), true));
  });
  cold_thread.join();
  for (const Timed& t : traffic.cold) {
    if (t.query < kChecked && t.outcome.ok) {
      traffic.checked.push_back(
          {in.cold_files[t.query], CheckedOut(args, t.query),
           t.outcome.response});
    }
  }
  return traffic;
}

// ---------------------------------------------------------------------------
// Output checks (off the clock). Each failed check counts as one failure.

struct Checks {
  uint64_t performed = 0;
  uint64_t failed = 0;
  uint64_t dense_answers = 0;
  uint64_t kept = 0;
  std::vector<std::string> notes;

  void Fail(std::string note) {
    ++failed;
    notes.push_back(std::move(note));
  }
  double recall() const {
    return dense_answers == 0 ? 1.0
                              : static_cast<double>(kept) /
                                    static_cast<double>(dense_answers);
  }
};

Result<smb::schema::Schema> LoadQuery(const std::string& path) {
  SMB_ASSIGN_OR_RETURN(std::string text, smb::io::ReadTextFile(path));
  return smb::schema::ParseSchemaText(text);
}

/// The dense path's answers for `query` (the recall oracle).
Result<smb::match::AnswerSet> DenseAnswers(const Config& config,
                                           const Serving& serving,
                                           const smb::schema::Schema& query,
                                           size_t top_k) {
  smb::engine::BatchMatchOptions dense;
  dense.num_threads = kCores;
  dense.global_top_k = top_k;
  return smb::engine::BatchMatchEngine(dense).Run(
      *serving.index->matcher, query, serving.index->repo,
      config.match_options);
}

/// (a) cold-dense: served answers are byte-identical to one unsharded
/// single-thread `Matcher::Match` run.
void CheckDense(const Config& config, const Serving& serving,
                const Traffic& traffic, Checks* checks) {
  for (const Traffic::Checked& c : traffic.checked) {
    ++checks->performed;
    Result<smb::schema::Schema> query = LoadQuery(c.query);
    Result<std::string> served = smb::io::ReadTextFile(c.answers);
    if (!query.ok() || !served.ok()) {
      checks->Fail("cannot reload " + c.query);
      continue;
    }
    Result<smb::match::AnswerSet> oracle = serving.index->matcher->Match(
        *query, serving.index->repo, config.match_options, nullptr);
    if (!oracle.ok()) {
      checks->Fail("oracle failed on " + c.query);
      continue;
    }
    checks->dense_answers += oracle->size();
    if (smb::eval::WriteAnswerSetCsv(*oracle) == *served) {
      checks->kept += oracle->size();
    } else {
      Result<smb::match::AnswerSet> parsed =
          smb::eval::ReadAnswerSetCsv(*served);
      if (parsed.ok()) checks->kept += CountKept(*oracle, *parsed);
      checks->Fail("dense answers differ from unsharded Match on " + c.query);
    }
  }
}

/// (b) cold-bound: certificate honesty against the dense oracle, the
/// served set inside the dense one, and the served set's recall.
void CheckBound(const Config& config, const Serving& serving,
                const Traffic& traffic, Checks* checks) {
  const smb::index::AdaptiveCandidatePolicy& policy =
      *config.engine_options.adaptive;
  smb::index::CandidateGenerator generator(&*serving.index->prepared,
                                           config.match_options.objective);
  for (const Traffic::Checked& c : traffic.checked) {
    ++checks->performed;
    Result<smb::schema::Schema> query = LoadQuery(c.query);
    Result<smb::match::AnswerSet> served =
        smb::eval::ReadAnswerSetFile(c.answers);
    if (!query.ok() || !served.ok()) {
      checks->Fail("cannot reload " + c.query);
      continue;
    }
    Result<smb::match::AnswerSet> dense =
        DenseAnswers(config, serving, *query, 0);
    smb::index::AdaptiveGenerationStats stats;
    Result<smb::index::QueryCandidates> cells =
        generator.GenerateAdaptive(*query, policy, kDelta, &stats);
    if (!dense.ok() || !cells.ok()) {
      checks->Fail("oracle failed on " + c.query);
      continue;
    }
    const CertificateReport report = CheckCertificate(
        *dense, *served,
        [&](size_t pos, int32_t schema) {
          return cells->CellProvablyComplete(pos, schema, kDelta);
        },
        cells->ProvablyCompleteFraction(kDelta),
        policy.min_provable_completeness, stats.cells_at_cap);
    checks->dense_answers += report.dense_answers;
    checks->kept += report.kept;
    if (!report.honest()) {
      checks->Fail("certificate violated on " + c.query + ": " +
                   std::to_string(report.dishonest) +
                   " missing answers in certified cells" +
                   (report.bound_short ? ", bound below target" : ""));
    }
    // Every served answer is a dense answer with the same Δ.
    if (Status same =
            smb::match::AnswerSet::VerifySameObjective(*served, *dense);
        !same.ok()) {
      checks->Fail("served answer outside the dense set on " + c.query +
                   ": " + same.ToString());
    }
    if (std::abs(c.response.certified -
                 cells->ProvablyCompleteFraction(kDelta)) > 1e-9) {
      checks->Fail("complete= disagrees with the regenerated certificate on " +
                   c.query);
    }
  }
}

/// (c) live-mixed: sampled answer files are byte-identical to an
/// in-process `MatchService::Execute` at the response's effective target;
/// recall is the served top-k against the dense top-k.
void CheckLive(const Args& args, const Config& config, const Serving& serving,
               const Traffic& traffic, Checks* checks) {
  smb::engine::QueryResultCache cache(64);
  std::unique_ptr<smb::serve::MatchService> verifier =
      MakeService(config, serving.index, &cache);
  const std::string out = ScratchOut(args, "verify", 0);
  for (const Traffic::Checked& c : traffic.checked) {
    ++checks->performed;
    Outcome direct = ExecuteInProcess(verifier.get(), c.query, out,
                                      c.response.target);
    Result<std::string> served = smb::io::ReadTextFile(c.answers);
    Result<std::string> expected = smb::io::ReadTextFile(out);
    if (!direct.ok || !served.ok() || !expected.ok() ||
        *served != *expected) {
      checks->Fail("live answers differ from in-process Execute on " +
                   c.query);
      continue;
    }
    Result<smb::schema::Schema> query = LoadQuery(c.query);
    Result<smb::match::AnswerSet> parsed = smb::eval::ReadAnswerSetCsv(*served);
    if (!query.ok() || !parsed.ok()) {
      checks->Fail("cannot reload " + c.query);
      continue;
    }
    Result<smb::match::AnswerSet> dense =
        DenseAnswers(config, serving, *query, config.engine_options.global_top_k);
    if (!dense.ok()) {
      checks->Fail("oracle failed on " + c.query);
      continue;
    }
    checks->dense_answers += dense->size();
    checks->kept += CountKept(*dense, *parsed);
  }
}

// ---------------------------------------------------------------------------
// The traced run: the benchmark makes the calls `MatchService::Execute`
// makes, one layer at a time, each inside a span, plus standalone calls
// into the index, pool and matcher for their own counters.

struct LayerTotals {
  std::vector<double> gen_ms, budget, kept, rounds, pool_ms, search_ms;
  std::vector<double> explored, pruned, emitted, engine_match_ms, rows;
  double cells_total = 0, cells_escalated = 0, cells_certified = 0,
         cells_at_cap = 0, cells_allocated = 0;
  std::vector<double> overhead_ms;
};

/// One request re-enacted layer by layer under a `request` span: parse →
/// fingerprint → lookup → (miss: engine run) → answer write (skipped when
/// `out` is empty, as `Execute` skips it) → (miss: insert).
Status TracedRequest(const Config& config, const Serving& serving,
                     smb::engine::QueryResultCache* cache,
                     const std::string& query_file, const std::string& out,
                     uint64_t id, Tracer* tracer, LayerTotals* totals,
                     smb::serve::MatchResponse* response) {
  ScopedSpan root(tracer, "request", id);
  smb::schema::Schema query;
  {
    ScopedSpan span(tracer, "schema.query_parse", id);
    SMB_ASSIGN_OR_RETURN(std::string text, smb::io::ReadTextFile(query_file));
    SMB_ASSIGN_OR_RETURN(query, smb::schema::ParseSchemaText(text));
  }
  smb::engine::QueryCacheKey key;
  {
    ScopedSpan span(tracer, "match.fingerprint", id);
    key.query_fingerprint = smb::match::FingerprintPreparedSchema(
        query, config.match_options.objective.name);
  }
  std::shared_ptr<const smb::engine::CachedAnswers> cached;
  {
    ScopedSpan span(tracer, "engine.cache.lookup", id);
    cached = cache->Lookup(key);
  }
  const bool hit = cached != nullptr;
  if (!hit) {
    smb::engine::BatchMatchOptions eopts = config.engine_options;
    eopts.prepared_repository = &*serving.index->prepared;
    smb::engine::BatchMatchStats stats;
    auto entry = std::make_shared<smb::engine::CachedAnswers>();
    {
      ScopedSpan span(tracer, "engine.run", id);
      SMB_ASSIGN_OR_RETURN(entry->answers,
                           smb::engine::BatchMatchEngine(eopts).Run(
                               *serving.index->matcher, query,
                               serving.index->repo, config.match_options,
                               &stats));
    }
    // The engine times its own phases; they enter the tree as children of
    // `engine.run`, so its self time is the unreported residual.
    const Span run = tracer->spans().back();
    const int32_t run_index = static_cast<int32_t>(tracer->spans().size() - 1);
    int64_t at = run.start_ns;
    auto add = [&](const char* name, double seconds) {
      const int64_t end = at + static_cast<int64_t>(seconds * 1e9);
      tracer->Add(name, at, end, run_index, id);
      at = end;
    };
    add("engine.index_phase", stats.index_seconds);
    add("engine.precompute_phase", stats.precompute_seconds);
    add("engine.match_phase", stats.match_seconds);
    totals->engine_match_ms.push_back(stats.match_seconds * 1e3);
    entry->provably_complete_fraction = stats.provably_complete_fraction;
    cached = entry;
  }
  if (!out.empty()) {
    ScopedSpan span(tracer, "eval.answer_write", id);
    SMB_RETURN_IF_ERROR(smb::eval::WriteAnswerSetFile(out, cached->answers));
  }
  totals->rows.push_back(static_cast<double>(cached->answers.size()));
  if (!hit) {
    ScopedSpan span(tracer, "engine.cache.insert", id);
    cache->Insert(key, cached);
  }
  response->query_path = query_file;
  response->answers = cached->answers.size();
  response->cache_hit = hit;
  response->certified = cached->provably_complete_fraction;
  return Status::OK();
}

/// The wire protocol a live request pays, under its own `serve.protocol`
/// span: parse the request line, format the response, parse it back.
Status TracedProtocol(const std::string& query_file, const std::string& out,
                      const smb::serve::MatchResponse& response, uint64_t id,
                      Tracer* tracer) {
  ScopedSpan span(tracer, "serve.protocol", id);
  Result<smb::serve::Request> request =
      smb::serve::ParseRequestLine(MatchLine(query_file, out, true));
  Result<smb::serve::MatchResponse> back = smb::serve::ParseMatchResponse(
      smb::serve::FormatMatchResponse(response));
  if (!request.ok() || !back.ok()) {
    return Status::Internal("protocol round trip failed");
  }
  return Status::OK();
}

/// Standalone calls into the index (bound-driven) or the dense pool, and
/// one single-thread whole-repository `Matcher::Match` over the result.
Status ProbeLayers(const Config& config, const Serving& serving,
                   const Shape& shape, const smb::schema::Schema& query,
                   uint64_t id, Tracer* tracer, LayerTotals* totals) {
  smb::match::MatchOptions options = config.match_options;
  std::optional<smb::index::QueryCandidates> cells;
  std::optional<smb::engine::SimilarityMatrixPool> pool;
  if (shape.adaptive) {
    smb::index::CandidateGenerator generator(&*serving.index->prepared,
                                             options.objective);
    smb::index::AdaptiveGenerationStats stats;
    {
      ScopedSpan span(tracer, "index.generate", id);
      SMB_ASSIGN_OR_RETURN(
          cells, generator.GenerateAdaptive(
                     query, *config.engine_options.adaptive, kDelta, &stats));
    }
    totals->gen_ms.push_back(tracer->spans().back().duration_ms());
    totals->budget.push_back(static_cast<double>(stats.budget_spent));
    totals->kept.push_back(static_cast<double>(cells->candidates_generated()));
    totals->rounds.push_back(static_cast<double>(stats.rounds));
    totals->cells_total += static_cast<double>(stats.cells_total);
    totals->cells_escalated += static_cast<double>(stats.cells_escalated);
    totals->cells_certified += static_cast<double>(stats.cells_certified);
    totals->cells_at_cap += static_cast<double>(stats.cells_at_cap);
    totals->cells_allocated =
        static_cast<double>(cells->positions() * cells->schema_count());
    options.candidates = &*cells;
  } else {
    {
      ScopedSpan span(tracer, "engine.pool_build", id);
      SMB_ASSIGN_OR_RETURN(pool, smb::engine::SimilarityMatrixPool::Build(
                                     query, serving.index->repo,
                                     options.objective, kCores));
    }
    totals->pool_ms.push_back(tracer->spans().back().duration_ms());
    options.shared_costs = &*pool;
  }
  smb::match::MatchStats stats;
  {
    ScopedSpan span(tracer, "match.search", id);
    SMB_ASSIGN_OR_RETURN(smb::match::AnswerSet answers,
                         serving.index->matcher->Match(
                             query, serving.index->repo, options, &stats));
    (void)answers;
  }
  totals->search_ms.push_back(tracer->spans().back().duration_ms());
  totals->explored.push_back(static_cast<double>(stats.states_explored));
  totals->pruned.push_back(static_cast<double>(stats.states_pruned));
  totals->emitted.push_back(static_cast<double>(stats.mappings_emitted));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics.

void Put(MetricMap* m, const std::string& name, double value,
         const std::string& unit, size_t samples = 0) {
  (*m)[name] = Metric{value, unit, samples};
}

/// Adds a percentile, failing the run when its sample count cannot
/// support it.
bool PutPercentile(MetricMap* m, const std::string& name,
                   std::vector<double> samples, double q,
                   std::vector<std::string>* unsupported) {
  const Quantile p = Percentile(std::move(samples), q);
  Put(m, name, p.value, "ms", p.samples);
  if (!p.supported) {
    unsupported->push_back(name + " needs " +
                           std::to_string(MinSamplesFor(q)) +
                           " samples, has " + std::to_string(p.samples));
  }
  return p.supported;
}

/// Which clock a latency sample is read from.
enum class Clock {
  /// Client-observed from the due time (`LatencyFromDue`).
  kFromDue,
  /// Client-observed from the send: on a single cold connection the wait
  /// behind the previous cold request is the client's head-of-line
  /// blocking, not the server's.
  kFromSend,
  /// The service's own `latency_ms=` (queue and wire excluded).
  kService,
};

/// `timed`'s samples on `clock`, classified by cache flag.
CacheSplit Split(const std::vector<Timed>& timed, Clock clock) {
  std::vector<RequestSample> samples;
  for (const Timed& t : timed) {
    double ms = t.outcome.response.latency_ms;
    if (clock == Clock::kFromDue) ms = LatencyFromDue(t.times);
    if (clock == Clock::kFromSend) ms = t.times.done_ms - t.times.sent_ms;
    samples.push_back(
        RequestSample{ms, t.outcome.ok, t.outcome.response.cache_hit});
  }
  return SplitByCacheFlag(samples);
}

double CertifiedMean(const Traffic& traffic) {
  double sum = 0;
  size_t n = 0;
  for (const auto* v : {&traffic.cold, &traffic.ladder.all}) {
    for (const Timed& t : *v) {
      if (!t.outcome.ok) continue;
      sum += t.outcome.response.certified;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> Lags(const std::vector<Timed>& timed) {
  std::vector<double> lags;
  for (const Timed& t : timed) lags.push_back(GeneratorLag(t.times));
  return lags;
}


/// Request ids of re-enacted warm hits start here; cold ones count from 0.
constexpr uint64_t kWarmIds = 1u << 20;
/// Requests the traced run re-enacts.
constexpr size_t kTracedCold = 16;
constexpr size_t kTracedWarm = 200;

/// Median of the spans named `name` whose request id is in [lo, hi).
double SpanMedianMs(const Tracer& tracer, const std::string& name,
                    uint64_t lo, uint64_t hi, bool self,
                    const std::map<std::string, std::vector<double>>& selfs) {
  std::vector<double> v;
  const std::vector<double>* self_list = nullptr;
  auto it = selfs.find(name);
  if (it != selfs.end()) self_list = &it->second;
  if (self && self_list == nullptr) return 0.0;
  size_t k = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name != name) continue;
    const double value = self ? (*self_list)[k] : span.duration_ms();
    ++k;
    if (span.request_id >= lo && span.request_id < hi) v.push_back(value);
  }
  return Median(v);
}

/// The traced run: re-enacts cold requests and warm hits layer by layer
/// under spans, probes the index/pool/matcher standalone, and reads the
/// serving layer's numbers off the measured traffic's responses.
Status TraceLayers(const Args& args, const Shape& shape, const Config& config,
                   const Serving& serving, const Inputs& in,
                   const Traffic& traffic, MetricMap* m) {
  Tracer tracer;
  LayerTotals totals;
  smb::engine::QueryResultCache cache(4096);
  smb::engine::QueryResultCache untraced_cache(4096);
  std::unique_ptr<smb::serve::MatchService> untraced =
      MakeService(config, serving.index, &untraced_cache);
  const std::string out = ScratchOut(args, "traced", 0);
  const size_t cold_n = std::min(kTracedCold, in.cold_files.size());
  for (size_t i = 0; i < cold_n; ++i) {
    // The same query untraced (a miss in its own service) and traced, in
    // alternating order so the second run's warmer caches even out.
    double plain_ms = 0.0;
    auto plain = [&]() -> Status {
      const int64_t t0 = Tracer::NowNs();
      const Outcome o = ExecuteInProcess(untraced.get(), in.cold_files[i], out);
      plain_ms = (Tracer::NowNs() - t0) / 1e6;
      return o.ok ? Status::OK() : Status::Internal("untraced: " + o.error);
    };
    if (i % 2 == 0) SMB_RETURN_IF_ERROR(plain());
    smb::serve::MatchResponse response;
    const size_t root = tracer.spans().size();
    SMB_RETURN_IF_ERROR(TracedRequest(config, serving, &cache,
                                      in.cold_files[i], out, i, &tracer,
                                      &totals, &response));
    const double traced_ms = tracer.spans()[root].duration_ms();
    if (i % 2 == 1) SMB_RETURN_IF_ERROR(plain());
    totals.overhead_ms.push_back(traced_ms - plain_ms);
    SMB_RETURN_IF_ERROR(
        TracedProtocol(in.cold_files[i], out, response, i, &tracer));
    SMB_RETURN_IF_ERROR(ProbeLayers(config, serving, shape, in.cold[i], i,
                                    &tracer, &totals));
  }
  // Warm hits on the queries just cached, Zipf over them like the
  // ladder, and like the ladder's hits: live-mixed writes its top-k and
  // pays the protocol, the cold workloads' repeat requests do neither.
  const bool live = shape.kind == Kind::kLiveMixed;
  smb::Rng rng(args.seed ^ 0x9E3779B97F4A7C15ULL);
  smb::ZipfSampler zipf(cold_n, kHotZipf);
  for (size_t j = 0; j < kTracedWarm; ++j) {
    const std::string& query = in.cold_files[zipf.Sample(&rng)];
    const std::string warm_out = live ? out : "";
    smb::serve::MatchResponse response;
    SMB_RETURN_IF_ERROR(TracedRequest(config, serving, &cache, query,
                                      warm_out, kWarmIds + j, &tracer,
                                      &totals, &response));
    if (live) {
      SMB_RETURN_IF_ERROR(TracedProtocol(query, warm_out, response,
                                         kWarmIds + j, &tracer));
    }
  }
  if (!args.spans.empty() && !tracer.WriteJsonLines(args.spans)) {
    return Status::IOError("cannot write " + args.spans);
  }

  const auto selfs = tracer.SelfMsByName();
  auto cold_med = [&](const std::string& name, bool self = false) {
    return SpanMedianMs(tracer, name, 0, kWarmIds, self, selfs);
  };
  auto warm_med = [&](const std::string& name, bool self = false) {
    return SpanMedianMs(tracer, name, kWarmIds, UINT64_MAX, self, selfs);
  };
  auto all_med = [&](const std::string& name) {
    return SpanMedianMs(tracer, name, 0, UINT64_MAX, false, selfs);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // index
  double build_s = 0;
  {
    const int64_t t0 = Tracer::NowNs();
    SMB_ASSIGN_OR_RETURN(smb::index::PreparedRepository prepared,
                         smb::index::PreparedRepository::Build(
                             serving.index->repo,
                             config.match_options.objective.name));
    build_s = (Tracer::NowNs() - t0) / 1e9;
    (void)prepared;
  }
  Put(m, "index.gen_ms", Median(totals.gen_ms), "ms", totals.gen_ms.size());
  Put(m, "index.budget_spent", Median(totals.budget), "count");
  Put(m, "index.candidates_kept", Median(totals.kept), "count");
  Put(m, "index.kept_per_scored", ratio(Sum(totals.kept), Sum(totals.budget)),
      "ratio");
  Put(m, "index.rounds", Median(totals.rounds), "count");
  Put(m, "index.cells_escalated_frac",
      ratio(totals.cells_escalated, totals.cells_total), "fraction");
  Put(m, "index.cells_certified_frac",
      ratio(totals.cells_certified, totals.cells_total), "fraction");
  Put(m, "index.cells_at_cap_frac",
      ratio(totals.cells_at_cap, totals.cells_total), "fraction");
  Put(m, "index.cells_allocated", totals.cells_allocated, "count");
  Put(m, "index.build_s", build_s, "s");
  // sim
  Put(m, "sim.ns_per_scored", ratio(Sum(totals.gen_ms) * 1e6, Sum(totals.budget)),
      "ns");
  // engine
  const smb::engine::QueryCacheStats cstats = serving.cache->stats();
  Put(m, "engine.run_ms", cold_med("engine.run"), "ms");
  Put(m, "engine.index_phase_ms", cold_med("engine.index_phase"), "ms");
  Put(m, "engine.precompute_phase_ms", cold_med("engine.precompute_phase"),
      "ms");
  Put(m, "engine.pool_build_ms", Median(totals.pool_ms), "ms");
  Put(m, "engine.residual_ms", cold_med("engine.run", true), "ms");
  Put(m, "engine.match_speedup",
      ratio(Sum(totals.search_ms), Sum(totals.engine_match_ms)), "ratio");
  Put(m, "engine.cache.hit_rate",
      ratio(static_cast<double>(cstats.hits),
            static_cast<double>(cstats.hits + cstats.misses)),
      "fraction");
  Put(m, "engine.cache.evictions", static_cast<double>(cstats.evictions),
      "count");
  Put(m, "engine.cache.lookup_us", all_med("engine.cache.lookup") * 1e3, "us");
  Put(m, "engine.cache.insert_us", cold_med("engine.cache.insert") * 1e3, "us");
  // match
  Put(m, "match.search_ms", Median(totals.search_ms), "ms");
  Put(m, "match.states_explored", Median(totals.explored), "count");
  Put(m, "match.states_pruned", Median(totals.pruned), "count");
  Put(m, "match.mappings_emitted", Median(totals.emitted), "count");
  Put(m, "match.fingerprint_us", all_med("match.fingerprint") * 1e3, "us");
  // schema
  Put(m, "schema.query_parse_us", all_med("schema.query_parse") * 1e3, "us");
  // eval: full sets on the cold workloads, top-k on live-mixed's hits.
  Put(m, "eval.answer_write_ms",
      live ? warm_med("eval.answer_write") : cold_med("eval.answer_write"),
      "ms");
  {
    std::vector<double> rows(totals.rows.begin(),
                             totals.rows.begin() +
                                 static_cast<std::ptrdiff_t>(cold_n));
    if (live) rows.assign(totals.rows.begin() + cold_n, totals.rows.end());
    Put(m, "eval.answer_rows", Median(rows), "count");
  }
  // serve: read off the measured traffic's responses.
  std::vector<double> queue, svc_warm, svc_cold, wire;
  uint64_t ok = 0, shed = 0, err_lines = 0;
  auto scan = [&](const std::vector<Timed>& timed, bool nominal_warm) {
    for (const Timed& t : timed) {
      if (!t.outcome.ok) {
        err_lines += t.outcome.error.rfind("err ", 0) == 0 ? 1 : 0;
        continue;
      }
      const smb::serve::MatchResponse& r = t.outcome.response;
      ++ok;
      shed += r.shed ? 1 : 0;
      queue.push_back(r.queue_ms);
      if (!r.cache_hit) {
        svc_cold.push_back(r.latency_ms);
      } else if (nominal_warm) {
        svc_warm.push_back(r.latency_ms);
      }
      wire.push_back(t.times.done_ms - t.times.sent_ms - r.queue_ms -
                     r.latency_ms);
    }
  };
  scan(traffic.cold, false);
  scan(traffic.ladder.nominal, true);
  const double service_warm_p50 = Median(svc_warm);
  Put(m, "serve.queue_ms.p99", smb::NearestRankQuantile(queue, 0.99), "ms",
      queue.size());
  Put(m, "serve.service_ms.warm_p50", service_warm_p50, "ms", svc_warm.size());
  Put(m, "serve.service_ms.cold_p50", Median(svc_cold), "ms", svc_cold.size());
  Put(m, "serve.wire_ms.p50", Median(wire), "ms", wire.size());
  Put(m, "serve.protocol_us", all_med("serve.protocol") * 1e3, "us");
  Put(m, "serve.shed_fraction",
      ratio(static_cast<double>(shed), static_cast<double>(ok)), "fraction");
  Put(m, "serve.err_lines", static_cast<double>(err_lines), "count");
  // synth
  Put(m, "synth.repo_build_s", in.synth_s, "s");
  Put(m, "bench.peak_rss_end_mb", PeakRssMb(), "MB");
  // benchmark
  Put(m, "bench.generator_lag_p99_ms",
      smb::NearestRankQuantile(Lags(traffic.ladder.nominal), 0.99), "ms",
      traffic.ladder.nominal.size());
  Put(m, "bench.tracing_overhead_ms", Median(totals.overhead_ms), "ms",
      totals.overhead_ms.size());
  // Accounting: the share of a traced cold request no layer span covers,
  // and the part of the warm service time that parse, fingerprint,
  // lookup, answer write and protocol leave unexplained.
  {
    std::vector<double> frac;
    size_t k = 0;
    for (const Span& span : tracer.spans()) {
      if (span.name != "request") continue;
      const double self = selfs.at("request")[k++];
      if (span.request_id < kWarmIds && span.duration_ms() > 0) {
        frac.push_back(self / span.duration_ms());
      }
    }
    Put(m, "bench.cold_residual_frac", Median(frac), "fraction");
  }
  const double warm_layers =
      warm_med("schema.query_parse") + warm_med("match.fingerprint") +
      warm_med("engine.cache.lookup") + warm_med("eval.answer_write") +
      warm_med("serve.protocol");  // the last two are 0 off live-mixed
  Put(m, "bench.warm_layers_ms", warm_layers, "ms");
  Put(m, "bench.warm_residual_ms", service_warm_p50 - warm_layers, "ms");
  if (Median(totals.gen_ms) > 0 && !shape.adaptive) {
    return Status::Internal("index work on the dense path");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  Result<Shape> shape_or = ShapeFor(args.workload);
  if (!shape_or.ok()) {
    std::cerr << shape_or.status().ToString() << "\n";
    return 2;
  }
  Shape shape = *shape_or;
  const Config config = MakeConfig(shape);
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);

  const size_t cold_requests = std::max(
      kMinColdRequests, static_cast<size_t>(kColdPerSecond * args.seconds));
  if (shape.kind == Kind::kLiveMixed) {
    // The ladder's rungs together span the cold stream.
    shape.rung_seconds = static_cast<double>(cold_requests) / shape.cold_rps /
                         static_cast<double>(shape.ladder_rps.size());
  }
  Result<Inputs> inputs = Synthesize(args, shape, cold_requests);
  if (!inputs.ok()) {
    std::cerr << "synthesis failed: " << inputs.status().ToString() << "\n";
    return 1;
  }

  std::vector<double> setup_s;
  Serving serving;
  for (int i = 0; i < kSetups; ++i) {
    double seconds = 0;
    serving.Stop();
    Result<Serving> started =
        StartServing(config, shape, inputs->repo, &seconds);
    if (!started.ok()) {
      std::cerr << "set-up failed: " << started.status().ToString() << "\n";
      return 1;
    }
    serving = *std::move(started);
    if (i > 0) setup_s.push_back(seconds);
  }

  // Memory of the serving state. The traffic's own peak depends on which
  // answer sets the LRU holds when, i.e. on the order the pool arrives in
  // (±20 % across seeds); it is reported by the traced run instead.
  const double peak_rss_mb = PeakRssMb();
  Result<Traffic> traffic =
      shape.kind == Kind::kLiveMixed
          ? RunLive(args, shape, *inputs, &serving)
          : Result<Traffic>(RunInProcess(args, shape, *inputs, &serving));
  serving.Stop();
  if (!traffic.ok()) {
    std::cerr << "traffic failed: " << traffic.status().ToString() << "\n";
    return 1;
  }
  Checks checks;
  switch (shape.kind) {
    case Kind::kColdDense:
      CheckDense(config, serving, *traffic, &checks);
      break;
    case Kind::kColdBound:
      CheckBound(config, serving, *traffic, &checks);
      break;
    case Kind::kLiveMixed:
      CheckLive(args, config, serving, *traffic, &checks);
      break;
  }
  // Warm latencies are read off the service (`latency_ms=`): in process a
  // hit takes less than the generator's own timer wake-up, and over
  // loopback the client-observed figure moved by more than any bound from
  // run to run on a shared virtual machine. The client's view is the
  // traced run's `bench.warm_client_*` and the SLO behind max_rps_at_slo.
  std::vector<Timed> every = traffic->cold;
  every.insert(every.end(), traffic->ladder.all.begin(),
               traffic->ladder.all.end());
  const CacheSplit cold = Split(every, Clock::kFromSend);
  const CacheSplit warm_service = Split(traffic->ladder.nominal, Clock::kService);
  const CacheSplit warm_client = Split(traffic->ladder.nominal, Clock::kFromDue);
  const uint64_t attempted = every.size();
  const uint64_t errors = cold.failed;
  const uint64_t failed = errors + checks.failed;

  MetricMap metrics;
  std::vector<std::string> unsupported;
  if (!args.trace) {
    Put(&metrics, "setup_s", Median(setup_s), "s", setup_s.size());
    PutPercentile(&metrics, "cold_p50_ms", cold.cold_ms, 0.5, &unsupported);
    PutPercentile(&metrics, "cold_p90_ms", cold.cold_ms, 0.9, &unsupported);
    PutPercentile(&metrics, "warm_p50_ms", warm_service.warm_ms, 0.5,
                  &unsupported);
    Put(&metrics, "max_rps_at_slo", MaxRateAtSlo(traffic->ladder.verdicts),
        "req/s", traffic->ladder.verdicts.size());
    Put(&metrics, "ok_fraction",
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        "fraction", attempted);
    Put(&metrics, "certified_mean", CertifiedMean(*traffic), "fraction",
        attempted - errors);
    Put(&metrics, "recall_vs_dense", checks.recall(), "fraction",
        checks.performed);
    Put(&metrics, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Warm tails move by more than any bound from run to run on a shared
    // virtual machine, so they are per-layer figures here.
    Put(&metrics, "warm_p99_ms",
        BlockedPercentile(warm_service.warm_ms, 0.99, kWarmBlock).value, "ms",
        warm_service.warm_ms.size());
    Put(&metrics, "bench.warm_client_p50_ms", Median(warm_client.warm_ms),
        "ms", warm_client.warm_ms.size());
    Put(&metrics, "bench.warm_client_p99_ms",
        BlockedPercentile(warm_client.warm_ms, 0.99, kWarmBlock).value, "ms",
        warm_client.warm_ms.size());
    const Status traced = TraceLayers(args, shape, config, serving, *inputs,
                                      *traffic, &metrics);
    if (!traced.ok()) {
      std::cerr << "traced run failed: " << traced.ToString() << "\n";
      return 1;
    }
  }
  for (const RungVerdict& v : traffic->ladder.verdicts) {
    std::cerr << args.workload << "  rung " << v.rate_rps
              << " req/s: warm p99 " << v.warm_p99.value << " ms (n="
              << v.warm_p99.samples << "), lag p99 " << v.lag_p99.value
              << " ms, failed " << v.failed
              << (v.meets_slo ? ", meets" : ", misses") << " the SLO\n";
  }
  for (const std::string& note : checks.notes) {
    std::cerr << args.workload << "  CHECK FAILED: " << note << "\n";
  }
  std::cerr << FormatReport(args.workload, metrics);
  if (!unsupported.empty()) {
    for (const std::string& u : unsupported) {
      std::cerr << args.workload << "  rejected: " << u << "\n";
    }
    return 3;
  }
  std::cout << FormatResultLine(checks.failed == 0, attempted, failed,
                                metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  smb::Result<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status().ToString() << "\n";
    return 2;
  }
  return perfbench::Run(*args);
}
