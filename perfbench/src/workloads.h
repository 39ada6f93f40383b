#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "scenario/generator.h"
#include "service/client.h"
#include "trace.h"
#include "warlock/session.h"

namespace perfbench {

/// The three workloads. Each fills `report` with the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run), counts every
/// operation it attempts, and records every failed operation or output
/// check.
void RunApb1Advise(const RunOptions& options, Tracer& tracer,
                   RunReport& report);
void RunWarlockdMixed(const RunOptions& options, Tracer& tracer,
                      RunReport& report);
void RunScenarioSweep(const RunOptions& options, Tracer& tracer,
                      RunReport& report);

/// Scenario families the generated workloads draw from. Both keep the
/// schema shape fixed (3 dimensions of 2 levels) so that per-scenario cost
/// does not span two orders of magnitude; with the full demo.sweep shape the
/// cost of a 64-scenario sweep moved by ±25% from one seed to the next.
warlock::scenario::ScenarioSpec SweepSpec(uint64_t seed, uint32_t sweep);
warlock::scenario::ScenarioSpec KeySpec(uint64_t seed, uint32_t keys);

/// The three input texts of a generated scenario.
struct InputTexts {
  std::string schema;
  std::string workload;
  std::string config;
};
InputTexts ScenarioTexts(const warlock::scenario::Scenario& scenario);

/// A session that already ran `Advise`, plus the texts it was built from:
/// the subject of the layer probe.
struct ProbeTarget {
  InputTexts texts;
  const warlock::Session* session = nullptr;
  const warlock::AdviseResponse* advice = nullptr;
  /// Scenario family the probe times `GenerateScenario` on.
  warlock::scenario::ScenarioSpec spec;
};

/// Times one call into each layer's public entry points on the target's
/// inputs and its ranking winner (schema, workload, core config parse,
/// session build, bitmap selection, candidate enumeration, fragment sizes,
/// hit enumeration, both allocators, per-class and mix costing, the prefetch
/// search, a memo-free full evaluation, rendering, an empty ParallelFor, and
/// scenario generation), and checks that the memo-free evaluation of the
/// winner reproduces the advisor's figures.
void RunLayerProbe(const ProbeTarget& target, const RunOptions& options,
                   Tracer& tracer, RunReport& report);

/// A stream of what-ifs on one fragmentation of one session: replayed
/// in-process to report `api.whatif_ms` and `core.memo_hit_ratio`.
struct WhatIfCallRecord {
  uint32_t key = 0;
  WhatIfKnobs knobs;
};
/// A DBA's tuning pass over one fragmentation: eight drawn knob settings,
/// then the same eight again, as when toggling between alternatives.
std::vector<WhatIfCallRecord> ToggleStream(uint64_t seed, uint32_t disks);
void ReplayWhatIfs(const std::vector<const warlock::Session*>& sessions,
                   const std::vector<warlock::fragment::Fragmentation>& frags,
                   const std::vector<WhatIfCallRecord>& stream,
                   Tracer& tracer, RunReport& report);

/// Runs scenarios [0, count) of `spec` the way `scenario::RunSweep` does
/// (session, advise, both allocation backends re-scored), one span each,
/// over `threads` workers; reports `scenario.scenario_ms_max` and
/// `scenario.busy_ratio`.
void ReplayScenarios(const warlock::scenario::ScenarioSpec& spec,
                     uint32_t count, unsigned threads, Tracer& tracer,
                     RunReport& report);

/// Client-side observations of warlockd traffic.
struct ServiceObservations {
  std::vector<double> advise_hit_ms;
  std::vector<double> advise_miss_ms;
  std::vector<double> whatif_ms;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  void Merge(const ServiceObservations& other);
};

/// One what-if request on the first dimension's coarsest level of a
/// scenario (every generated schema has it, so the request always names a
/// valid fragmentation).
warlock::service::WhatIfCall MakeWhatIfCall(
    const InputTexts& texts, const warlock::schema::StarSchema& schema,
    const WhatIfKnobs& knobs);

/// Sends one request, timing the encode, the round trip and a decode of the
/// response document, and files the round trip under its kind. Returns the
/// response; transport errors and error responses are returned as-is.
warlock::Result<warlock::service::Response> TimedCall(
    warlock::service::Client& client, const std::string& kind,
    const std::function<std::string()>& encode, uint64_t request,
    Tracer& tracer, ServiceObservations& obs);

/// Reads the server's stats and metrics documents through `client` and
/// reports the `service.*` metrics from them and from `obs`.
void ReportServiceMetrics(warlock::service::Client& client,
                          const ServiceObservations& obs, RunReport& report);

/// For workloads that do not drive warlockd themselves: one miss, one hit
/// and two what-ifs against an in-process server on the target's inputs.
void RunServiceProbe(const ProbeTarget& target, const RunOptions& options,
                     Tracer& tracer, RunReport& report);

/// Renders every artifact `warlock_tool` prints or writes for one advice
/// (`disk_profile` is the winner's profile of the first query class) and
/// returns them in a fixed order, the JSON ranking first.
std::vector<std::string> RenderToolArtifacts(
    const warlock::Session& session, const warlock::AdviseResponse& advice,
    const std::vector<double>& disk_profile, RunReport& report);

/// Writes the tracer's spans as a Chrome trace file under the checkout and
/// reports the tracing overhead (traced / untraced median wait).
void FinishTrace(const RunOptions& options, const Tracer& tracer,
                 double untraced_wait_ms, double traced_wait_ms,
                 RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
