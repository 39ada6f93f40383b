// scenario-sweep: scenario::RunSweep over generated scenario families, the
// outer thread-pool fan-out with one advisor thread per scenario. Every
// operation is a 64-scenario sweep of a fresh family, so a run averages
// over hundreds of scenarios; per-scenario cost work is small, and
// generation, the fan-out's tail and both allocation backends (every row
// re-scores its winner under each) carry the weight.

#include <string>
#include <vector>

#include "report/renderer.h"
#include "scenario/scenario_text.h"
#include "scenario/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRounds = 9;
// Spec texts of this many families enter the input digest.
constexpr uint32_t kDigestedSweeps = 8;

}  // namespace

void RunScenarioSweep(const RunOptions& options, Tracer& tracer,
                      RunReport& report) {
  auto setup = [&] {
    std::vector<std::string> parts;
    for (uint32_t k = 0; k < kDigestedSweeps; ++k) {
      const std::string text =
          warlock::scenario::SpecToText(SweepSpec(options.seed, k));
      auto parsed = warlock::scenario::SpecFromText(text);
      if (!parsed.ok() || !(*parsed == SweepSpec(options.seed, k))) {
        return report.Fail("sweep spec does not round-trip");
      }
      parts.push_back(text);
    }
    const auto first = SweepSpec(options.seed, 0);
    for (uint32_t i = 0; i < first.scenarios; ++i) {
      auto scenario = warlock::scenario::GenerateScenario(first, i);
      if (!scenario.ok()) return report.Fail(scenario.status().ToString());
      const InputTexts texts = ScenarioTexts(*scenario);
      parts.push_back(texts.schema);
      parts.push_back(texts.workload);
      parts.push_back(texts.config);
    }
    report.input_digest = Digest(parts);
  };
  setup();
  if (options.digest_only || report.failed() > 0) return;

  const auto csv =
      warlock::report::Renderer::Create(warlock::report::OutputFormat::kCsv);
  warlock::scenario::SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  sweep_options.advisor_threads = 1;
  // Returns the CSV digest of sweep `k`, or "" when it failed (recorded).
  auto sweep = [&](uint32_t k, uint64_t request) -> std::string {
    const auto spec = SweepSpec(options.seed, k);
    report.Attempt(spec.scenarios);
    Span span(tracer, "scenario.sweep", request);
    auto result = warlock::scenario::RunSweep(spec, sweep_options);
    if (!result.ok()) {
      report.Fail("sweep: " + result.status().ToString());
      return "";
    }
    for (const auto& outcome : result->outcomes) {
      if (!outcome.ok) {
        report.Fail("scenario " + std::to_string(outcome.index) + ": " +
                    outcome.error);
      }
    }
    auto rendered = csv->Sweep(*result);
    if (!rendered.ok()) {
      report.Fail("sweep CSV: " + rendered.status().ToString());
      return "";
    }
    return Digest({*rendered});
  };

  std::string first_digest;
  uint64_t scenarios = 0;
  auto op = [&](uint64_t i) {
    const std::string digest = sweep(static_cast<uint32_t>(i), i);
    if (i == 0) first_digest = digest;
    scenarios += SweepSpec(options.seed, static_cast<uint32_t>(i)).scenarios;
  };

  std::vector<double> untraced;
  std::vector<double> traced;
  if (!options.trace) {
    untraced = RunFor(options.seconds, op);
  } else {
    untraced = RunFor(options.seconds / 2, op);
    tracer.set_enabled(true);
    traced = RunFor(options.seconds / 2, op);
  }

  // The sweep's CSV is a pure function of its spec: running the first
  // family again must reproduce it byte for byte.
  report.Attempt();
  if (first_digest.empty() || sweep(0, untraced.size() + traced.size()) !=
                                  first_digest) {
    report.Fail("sweep CSV digest differs between runs of the same spec");
  }
  if (!options.trace) {
    double window_s = 0.0;
    for (double ms : untraced) window_s += ms / 1e3;
    SetEndToEnd(report, MedianSetupSeconds(kSetupRounds, setup),
                static_cast<double>(scenarios), window_s, untraced);
    return;
  }

  const auto spec = SweepSpec(options.seed, 0);
  ReplayScenarios(spec, spec.scenarios, options.threads, tracer, report);
  warlock::SessionOptions session_options;
  session_options.threads = options.threads;
  auto scenario = warlock::scenario::GenerateScenario(spec, 0);
  if (!scenario.ok()) return report.Fail(scenario.status().ToString());
  const InputTexts texts = ScenarioTexts(*scenario);
  auto session = warlock::Session::FromText(texts.schema, texts.workload,
                                            texts.config, session_options);
  if (!session.ok()) return report.Fail(session.status().ToString());
  auto advice = session->Advise();
  if (!advice.ok() || advice->best() == nullptr) {
    return report.Fail("probe scenario has no ranking");
  }
  const ProbeTarget target{texts, &*session, &*advice, spec};
  RunLayerProbe(target, options, tracer, report);
  RunServiceProbe(target, options, tracer, report);
  const std::vector<WhatIfCallRecord> stream = ToggleStream(
      DeriveSeed(options.seed, 4000), session->config().cost.disks.num_disks);
  ReplayWhatIfs({&*session}, {advice->best()->fragmentation}, stream, tracer,
                report);
  FinishTrace(options, tracer, Percentile(untraced, 0.5),
              Percentile(traced, 0.5), report);
}

}  // namespace perfbench
