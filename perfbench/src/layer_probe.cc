#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/coaccess.h"
#include "bitmap/scheme.h"
#include "common/thread_pool.h"
#include "core/advisor.h"
#include "core/config_text.h"
#include "cost/mix_cost.h"
#include "cost/prefetch.h"
#include "cost/query_cost.h"
#include "fragment/candidates.h"
#include "fragment/fragment_sizes.h"
#include "fragment/query_hits.h"
#include "report/renderer.h"
#include "schema/schema_text.h"
#include "workload/query.h"
#include "workload/workload_text.h"
#include "workloads.h"

namespace perfbench {

using warlock::Session;

namespace {

// Cheap calls are repeated and reported as a median so that one page fault
// does not decide the figure.
constexpr int kCheapReps = 5;

template <typename Fn>
double MedianSpanMs(Tracer& tracer, const std::string& name, int reps,
                    Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span span(tracer, name);
    fn();
    ms.push_back(span.End());
  }
  return Percentile(ms, 0.5);
}

}  // namespace

warlock::scenario::ScenarioSpec SweepSpec(uint64_t seed, uint32_t sweep) {
  warlock::scenario::ScenarioSpec spec;
  spec.name = "perfbench-sweep";
  spec.seed = DeriveSeed(seed, 1000 + sweep);
  spec.scenarios = 64;
  spec.dimensions = {3, 3};
  spec.levels = {2, 2};
  spec.top_cardinality = {4, 6};
  spec.fanout = {3, 4};
  spec.skew_probability = 0.5;
  spec.skew_theta = {0.5, 1.0};
  spec.fact_rows = {100000, 1000000};
  spec.row_bytes = {64, 128};
  spec.measures = {1, 3};
  spec.query_classes = {3, 6};
  spec.restrictions = {1, 3};
  spec.num_values = {1, 2};
  spec.disks = {8, 32};
  spec.samples_per_class = 4;
  spec.top_k = 5;
  return spec;
}

warlock::scenario::ScenarioSpec KeySpec(uint64_t seed, uint32_t keys) {
  warlock::scenario::ScenarioSpec spec = SweepSpec(seed, 0);
  spec.name = "perfbench-key";
  spec.seed = DeriveSeed(seed, 2000);
  spec.scenarios = keys;
  // Keys are rebuilt on every cache miss, so their cost sets the
  // throughput: one fixed shape without skew keeps the cost of one seed's
  // key set within a few percent of another's. The seed still draws the
  // restricted attributes of every query class, hence the cost model's work.
  spec.top_cardinality = {5, 5};
  spec.fanout = {3, 3};
  spec.skew_probability = 0.0;
  spec.fact_rows = {300000, 300000};
  spec.row_bytes = {96, 96};
  spec.measures = {2, 2};
  spec.query_classes = {4, 4};
  spec.restrictions = {2, 2};
  spec.num_values = {1, 1};
  spec.disks = {16, 16};
  return spec;
}

InputTexts ScenarioTexts(const warlock::scenario::Scenario& scenario) {
  return {warlock::schema::SchemaToText(scenario.schema),
          warlock::workload::QueryMixToText(scenario.mix, scenario.schema),
          warlock::core::ToolConfigToText(scenario.config)};
}

std::vector<std::string> RenderToolArtifacts(
    const Session& session, const warlock::AdviseResponse& advice,
    const std::vector<double>& disk_profile, RunReport& report) {
  using warlock::report::OutputFormat;
  using warlock::report::Renderer;
  const auto table = Renderer::Create(OutputFormat::kTable);
  const auto csv = Renderer::Create(OutputFormat::kCsv);
  const auto json = Renderer::Create(OutputFormat::kJson);
  const auto& result = advice.result;
  const auto& schema = session.schema();
  const auto& mix = session.mix();
  std::vector<warlock::Result<std::string>> rendered;
  rendered.push_back(json->Ranking(result, schema));
  rendered.push_back(table->Ranking(result, schema));
  rendered.push_back(table->Exclusions(result, schema));
  rendered.push_back(csv->Ranking(result, schema));
  if (const auto* best = advice.best()) {
    rendered.push_back(table->QueryStats(*best, mix, schema));
    rendered.push_back(table->Occupancy(*best));
    rendered.push_back(
        table->DiskProfile(disk_profile, mix.query_class(0).name()));
    rendered.push_back(csv->QueryStats(*best, mix, schema));
  }
  std::vector<std::string> out;
  for (auto& artifact : rendered) {
    if (!artifact.ok()) {
      report.Fail("render: " + artifact.status().ToString());
      out.emplace_back();
      continue;
    }
    out.push_back(std::move(artifact).value());
  }
  return out;
}

void RunLayerProbe(const ProbeTarget& target, const RunOptions& options,
                   Tracer& tracer, RunReport& report) {
  namespace fragment = warlock::fragment;
  Span root(tracer, "probe");
  const InputTexts& texts = target.texts;
  report.Attempt();
  auto fail = [&](const std::string& what) { report.Fail("probe: " + what); };

  warlock::Result<warlock::schema::StarSchema> schema =
      warlock::Status::Internal("unparsed");
  report.Set("schema.parse_ms",
             MedianSpanMs(tracer, "schema.parse", kCheapReps, [&] {
               schema = warlock::schema::SchemaFromText(texts.schema);
             }),
             "ms");
  if (!schema.ok()) return fail(schema.status().ToString());
  warlock::Result<warlock::workload::QueryMix> mix =
      warlock::Status::Internal("unparsed");
  report.Set("workload.parse_ms",
             MedianSpanMs(tracer, "workload.parse", kCheapReps, [&] {
               mix = warlock::workload::QueryMixFromText(texts.workload,
                                                         *schema);
             }),
             "ms");
  if (!mix.ok()) return fail(mix.status().ToString());
  warlock::Result<warlock::core::ToolConfig> config =
      warlock::Status::Internal("unparsed");
  report.Set("core.config_parse_ms",
             MedianSpanMs(tracer, "core.config_parse", kCheapReps, [&] {
               config = warlock::core::ToolConfigFromText(texts.config);
             }),
             "ms");
  if (!config.ok()) return fail(config.status().ToString());
  warlock::SessionOptions session_options;
  session_options.threads = options.threads;
  report.Set("api.session_build_ms",
             MedianSpanMs(tracer, "api.session_build", kCheapReps, [&] {
               auto session = Session::FromText(texts.schema, texts.workload,
                                                texts.config, session_options);
               if (!session.ok()) fail(session.status().ToString());
             }),
             "ms");
  report.Set("bitmap.select_ms",
             MedianSpanMs(tracer, "bitmap.select", kCheapReps, [&] {
               warlock::bitmap::BitmapScheme::Select(*schema,
                                                     config->bitmap_options);
             }),
             "ms");
  const auto scheme =
      warlock::bitmap::BitmapScheme::Select(*schema, config->bitmap_options);
  const uint32_t page_size = config->cost.disks.page_size_bytes;
  size_t candidates = 0;
  report.Set("fragment.enumerate_ms",
             MedianSpanMs(tracer, "fragment.enumerate", kCheapReps, [&] {
               auto enumerated = fragment::EnumerateCandidates(
                   *schema, config->fact_index, page_size, config->thresholds);
               if (!enumerated.ok()) {
                 return fail(enumerated.status().ToString());
               }
               candidates = enumerated->size();
             }),
             "ms");
  report.Set("fragment.candidates", static_cast<double>(candidates), "count");

  const warlock::core::AdvisorResult& result = target.advice->result;
  report.Set("core.fully_evaluated",
             static_cast<double>(result.fully_evaluated), "count");
  report.Set("core.screened", static_cast<double>(result.screened), "count");
  report.Set("core.excluded", static_cast<double>(result.excluded), "count");
  double screen_ms = 0.0;
  const auto snapshot = target.session->metrics().Snapshot();
  for (const auto& [name, h] : snapshot.histograms) {
    if (name == "advisor.screen_us" && h.count > 0) {
      screen_ms = static_cast<double>(h.sum_micros) / 1e3 /
                  static_cast<double>(h.count);
    }
  }
  report.Set("core.screen_ms", screen_ms, "ms");

  const warlock::core::EvaluatedCandidate* best = target.advice->best();
  if (best == nullptr) return fail("empty ranking");
  const fragment::Fragmentation& frag = best->fragmentation;

  warlock::Result<fragment::FragmentSizes> sizes =
      warlock::Status::Internal("uncomputed");
  report.Set("fragment.sizes_ms",
             MedianSpanMs(tracer, "fragment.sizes", kCheapReps, [&] {
               sizes = fragment::FragmentSizes::Compute(
                   frag, *schema, config->fact_index, page_size,
                   config->thresholds.max_fragments);
             }),
             "ms");
  if (!sizes.ok()) return fail(sizes.status().ToString());

  // Hit enumeration over the concrete queries the cost model samples for
  // the winner: samples_per_class instantiations of every class.
  {
    Span span(tracer, "fragment.hits");
    warlock::Rng rng(config->cost.seed);
    double hits = 0.0;
    for (size_t c = 0; c < mix->size(); ++c) {
      for (uint32_t s = 0; s < config->cost.samples_per_class; ++s) {
        const auto query = warlock::workload::Instantiate(
            mix->query_class(c), *schema, rng, config->cost.value_distribution);
        auto enumerated = fragment::EnumerateHits(
            frag, query, *schema, config->fact_index, *sizes,
            config->cost.max_enumerated_hits);
        // A query past the hit cap is costed by the expected-value model
        // instead; that is the model's own fallback, not a failure.
        if (enumerated.ok()) hits += static_cast<double>(enumerated->size());
      }
    }
    report.Set("fragment.hits_ms", span.End(), "ms");
    report.Set("fragment.hits", hits, "count");
  }

  const auto coaccess =
      warlock::alloc::CoAccessModel::Build(frag, *schema, *mix);
  warlock::alloc::AllocationContext actx;
  actx.sizes = &*sizes;
  actx.scheme = &scheme;
  actx.num_disks = config->cost.disks.num_disks;
  actx.skew_threshold = config->skew_threshold;
  actx.coaccess = &coaccess;
  std::optional<warlock::alloc::DiskAllocation> placed;
  for (const char* name :
       {warlock::alloc::kWarlockAllocator, warlock::alloc::kGraphAllocator}) {
    auto allocator = warlock::alloc::GetAllocator(name);
    if (!allocator.ok()) return fail(allocator.status().ToString());
    Span span(tracer, std::string("alloc.") + name);
    auto allocation = (*allocator)->Allocate(actx);
    report.Set(std::string("alloc.") + name + "_ms", span.End(), "ms");
    if (!allocation.ok()) return fail(allocation.status().ToString());
    if (!placed) placed = std::move(allocation).value();
  }

  warlock::cost::CostParameters params = config->cost;
  params.fact_granule = best->fact_granule;
  params.bitmap_granule = best->bitmap_granule;
  const warlock::cost::QueryCostModel model(*schema, config->fact_index, frag,
                                            *sizes, scheme, *placed, params);
  {
    Span span(tracer, "cost.class");
    warlock::Rng rng(params.seed);
    for (size_t c = 0; c < mix->size(); ++c) {
      model.CostClass(mix->query_class(c), rng);
    }
    report.Set("cost.class_ms", span.End(), "ms");
    report.Set("cost.classes", static_cast<double>(mix->size()), "count");
  }
  {
    Span span(tracer, "cost.mix");
    warlock::cost::CostMix(model, *mix, params.seed);
    report.Set("cost.mix_ms", span.End(), "ms");
  }

  warlock::common::ThreadPool pool(options.threads);
  {
    warlock::cost::PrefetchOptions prefetch;
    prefetch.max_granule_pages = config->prefetch_max_granule;
    prefetch.search_samples = config->prefetch_samples;
    Span span(tracer, "cost.prefetch");
    const warlock::cost::PrefetchChoice choice =
        warlock::cost::OptimizePrefetch(*schema, config->fact_index, frag,
                                        *sizes, scheme, *placed, *mix,
                                        config->cost, prefetch, &pool);
    report.Set("cost.prefetch_ms", span.End(), "ms");
    report.Set("cost.prefetch_evals", static_cast<double>(choice.evaluations),
               "count");
  }
  {
    // A fresh advisor has no memo and cold caches: the full evaluation
    // runs every stage. It must reproduce the advisor's figures exactly.
    const warlock::core::Advisor advisor(*schema, *mix, *config);
    Span span(tracer, "core.full_eval");
    auto full = advisor.FullyEvaluate(frag, {}, &pool);
    report.Set("core.full_eval_ms", span.End(), "ms");
    if (!full.ok()) return fail(full.status().ToString());
    if (full->cost.response_ms != best->cost.response_ms ||
        full->cost.io_work_ms != best->cost.io_work_ms ||
        full->fact_granule != best->fact_granule ||
        full->bitmap_granule != best->bitmap_granule) {
      fail("memo-free full evaluation of the winner differs from the ranking");
    }
  }
  {
    auto profile = target.session->DiskAccessProfile(frag, mix->query_class(0));
    if (!profile.ok()) return fail(profile.status().ToString());
    Span span(tracer, "report.render");
    RenderToolArtifacts(*target.session, *target.advice, *profile, report);
    report.Set("report.render_ms", span.End(), "ms");
  }
  {
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const int64_t start = NowNs();
      pool.ParallelFor(0, pool.num_threads(), [](size_t) {});
      us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    report.Set("common.parallel_for_us", Percentile(us, 0.5), "us");
  }
  {
    Span span(tracer, "scenario.generate");
    constexpr uint32_t kGenerated = 8;
    for (uint32_t i = 0; i < kGenerated; ++i) {
      auto scenario = warlock::scenario::GenerateScenario(target.spec, i);
      if (!scenario.ok()) fail(scenario.status().ToString());
    }
    report.Set("scenario.generate_ms", span.End() / kGenerated, "ms");
  }
}

std::vector<WhatIfCallRecord> ToggleStream(uint64_t seed, uint32_t disks) {
  warlock::Rng rng(seed);
  std::vector<WhatIfCallRecord> stream;
  for (int i = 0; i < 8; ++i) stream.push_back({0, DrawWhatIf(rng, disks)});
  for (int i = 0; i < 8; ++i) stream.push_back(stream[i]);
  return stream;
}

void ReplayWhatIfs(const std::vector<const Session*>& sessions,
                   const std::vector<warlock::fragment::Fragmentation>& frags,
                   const std::vector<WhatIfCallRecord>& stream,
                   Tracer& tracer, RunReport& report) {
  uint64_t hits_before = 0, lookups_before = 0;
  for (const Session* s : sessions) {
    const auto memo = s->stats().memo.result;
    hits_before += memo.hits;
    lookups_before += memo.hits + memo.misses;
  }
  std::vector<double> ms;
  for (const WhatIfCallRecord& call : stream) {
    warlock::WhatIfRequest request;
    request.fragmentation = frags[call.key];
    if (call.knobs.num_disks != 0) {
      request.overrides.num_disks = call.knobs.num_disks;
    }
    if (call.knobs.fact_granule != 0) {
      request.overrides.fact_granule = call.knobs.fact_granule;
      request.overrides.bitmap_granule = call.knobs.bitmap_granule;
    }
    report.Attempt();
    Span span(tracer, "api.whatif");
    auto response = sessions[call.key]->WhatIf(request);
    ms.push_back(span.End());
    if (!response.ok()) report.Fail("whatif: " + response.status().ToString());
  }
  uint64_t hits = 0, lookups = 0;
  for (const Session* s : sessions) {
    const auto memo = s->stats().memo.result;
    hits += memo.hits;
    lookups += memo.hits + memo.misses;
  }
  report.Set("api.whatif_ms", Mean(ms), "ms");
  const uint64_t delta = lookups - lookups_before;
  report.Set("core.memo_hit_ratio",
             delta == 0 ? 0.0
                        : static_cast<double>(hits - hits_before) /
                              static_cast<double>(delta),
             "ratio");
}

void ReplayScenarios(const warlock::scenario::ScenarioSpec& spec,
                     uint32_t count, unsigned threads, Tracer& tracer,
                     RunReport& report) {
  Span root(tracer, "scenario.replay");
  const uint64_t parent = root.id();
  std::vector<double> ms(count, 0.0);
  warlock::common::ThreadPool pool(threads);
  const int64_t start = NowNs();
  pool.ParallelFor(0, count, [&](size_t i) {
    report.Attempt();
    Span span(tracer, "scenario.run", i, parent);
    warlock::SessionOptions options;
    options.threads = 1;
    auto session =
        Session::FromScenario(spec, static_cast<uint32_t>(i), options);
    if (!session.ok()) return report.Fail(session.status().ToString());
    auto advice = session->Advise();
    if (!advice.ok()) return report.Fail(advice.status().ToString());
    if (const auto* best = advice->best()) {
      for (const char* backend : {warlock::alloc::kWarlockAllocator,
                                  warlock::alloc::kGraphAllocator}) {
        warlock::WhatIfRequest request;
        request.fragmentation = best->fragmentation;
        request.overrides.allocator = backend;
        // A backend that cannot place is a sweep outcome, not a failure.
        (void)session->WhatIf(request);
      }
    }
    ms[i] = span.End();
  });
  const double wall_ms = static_cast<double>(NowNs() - start) / 1e6;
  double busy = 0.0;
  for (double m : ms) busy += m;
  report.Set("scenario.scenario_ms_max",
             *std::max_element(ms.begin(), ms.end()), "ms");
  report.Set("scenario.busy_ratio",
             busy / (wall_ms * static_cast<double>(pool.num_threads())),
             "ratio");
}

void FinishTrace(const RunOptions& options, const Tracer& tracer,
                 double untraced_wait_ms, double traced_wait_ms,
                 RunReport& report) {
  report.Set("obs.trace_overhead_ratio",
             untraced_wait_ms > 0 ? traced_wait_ms / untraced_wait_ms : 0.0,
             "ratio");
  const std::string path = options.root + "/.bench_out/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  if (!tracer.WriteChromeTrace(path)) {
    report.Fail("cannot write trace file " + path);
    return;
  }
  std::fprintf(stderr, "trace: %s\n%-28s %8s %12s %12s\n", path.c_str(),
               "span", "count", "total_ms", "self_ms");
  for (const auto& [name, sum] : tracer.Summarize()) {
    std::fprintf(stderr, "%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(sum.count), sum.total_ms,
                 sum.self_ms);
  }
}

}  // namespace perfbench
