// apb1-advise: the warlock_tool path, in-process and cold. Every operation
// parses the APB-1 inputs into a new session, advises, profiles the winner
// and renders every artifact the tool prints or writes. The cost and
// fragment layers and the prefetch search do nearly all of the work; the
// memo and the caches do none.

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_text.h"
#include "schema/schema_text.h"
#include "workload/workload_text.h"
#include "workloads.h"

namespace perfbench {

using warlock::Session;

namespace {

constexpr int kSetupRounds = 25;

// default.config with its `seed` and `threads` lines replaced.
std::string PinConfig(const std::string& config, uint64_t seed,
                      unsigned threads) {
  std::istringstream in(config);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("seed ", 0) == 0) {
      line = "seed " + std::to_string(seed);
    } else if (line.rfind("threads ", 0) == 0) {
      line = "threads " + std::to_string(threads);
    }
    out += line + "\n";
  }
  return out;
}

struct Advised {
  std::optional<Session> session;
  std::optional<warlock::AdviseResponse> advice;
  std::vector<std::string> artifacts;
};

// One warlock_tool run; nullopt session when a step failed (recorded).
Advised AdviseOnce(const InputTexts& texts, unsigned threads, uint64_t request,
                   Tracer& tracer, RunReport& report) {
  Advised out;
  Span root(tracer, "apb1.advise", request);
  warlock::SessionOptions options;
  options.threads = threads;
  auto session = [&] {
    Span span(tracer, "api.session_build", request);
    return Session::FromText(texts.schema, texts.workload, texts.config,
                             options);
  }();
  if (!session.ok()) {
    report.Fail("session: " + session.status().ToString());
    return out;
  }
  auto advice = [&] {
    Span span(tracer, "api.advise", request);
    return session->Advise();
  }();
  if (!advice.ok() || advice->best() == nullptr) {
    report.Fail(advice.ok() ? "empty ranking"
                            : "advise: " + advice.status().ToString());
    return out;
  }
  auto profile = [&] {
    Span span(tracer, "api.disk_profile", request);
    return session->DiskAccessProfile(advice->best()->fragmentation,
                                      session->mix().query_class(0));
  }();
  if (!profile.ok()) {
    report.Fail("disk profile: " + profile.status().ToString());
    return out;
  }
  {
    Span span(tracer, "report.render", request);
    out.artifacts = RenderToolArtifacts(*session, *advice, *profile, report);
  }
  out.session.emplace(std::move(session).value());
  out.advice.emplace(std::move(advice).value());
  return out;
}

}  // namespace

void RunApb1Advise(const RunOptions& options, Tracer& tracer,
                   RunReport& report) {
  InputTexts texts;
  auto setup = [&] {
    const std::string dir = options.root + "/examples/data/";
    std::string config;
    if (!ReadFile(dir + "apb1.schema", &texts.schema) ||
        !ReadFile(dir + "apb1.workload", &texts.workload) ||
        !ReadFile(dir + "default.config", &config)) {
      return report.Fail("cannot read the APB-1 inputs under " + dir);
    }
    texts.config = PinConfig(config, options.seed, options.threads);
    auto schema = warlock::schema::SchemaFromText(texts.schema);
    if (!schema.ok()) return report.Fail(schema.status().ToString());
    auto mix = warlock::workload::QueryMixFromText(texts.workload, *schema);
    if (!mix.ok()) return report.Fail(mix.status().ToString());
    auto config_parsed = warlock::core::ToolConfigFromText(texts.config);
    if (!config_parsed.ok()) {
      return report.Fail(config_parsed.status().ToString());
    }
    report.input_digest = Digest({texts.schema, texts.workload, texts.config});
  };
  setup();
  if (options.digest_only || report.failed() > 0) return;

  // Every operation's JSON ranking must be byte-identical to the first.
  std::string reference;
  Advised last;
  auto op = [&](uint64_t i) {
    report.Attempt();
    Advised advised = AdviseOnce(texts, options.threads, i, tracer, report);
    if (!advised.session) return;
    if (reference.empty()) {
      reference = advised.artifacts.front();
    } else if (advised.artifacts.front() != reference) {
      report.Fail("ranking JSON differs between iterations");
    }
    last = std::move(advised);
  };

  if (!options.trace) {
    const std::vector<double> wait = RunFor(options.seconds, op);
    double window_s = 0.0;
    for (double ms : wait) window_s += ms / 1e3;
    SetEndToEnd(report, MedianSetupSeconds(kSetupRounds, setup),
                static_cast<double>(wait.size()), window_s, wait);
    return;
  }

  const std::vector<double> untraced = RunFor(options.seconds / 2, op);
  tracer.set_enabled(true);
  const std::vector<double> traced = RunFor(options.seconds / 2, op);
  if (!last.session) return;

  // The ranking is bit-identical at every worker count: a one-worker run
  // must reproduce it.
  report.Attempt();
  Advised serial = AdviseOnce(texts, 1, traced.size() + untraced.size(),
                              tracer, report);
  if (serial.session && serial.artifacts.front() != reference) {
    report.Fail("one-worker ranking JSON differs from the pooled one");
  }

  const ProbeTarget target{texts, &*last.session, &*last.advice,
                           SweepSpec(options.seed, 0)};
  RunLayerProbe(target, options, tracer, report);
  RunServiceProbe(target, options, tracer, report);
  const std::vector<WhatIfCallRecord> stream =
      ToggleStream(DeriveSeed(options.seed, 4000),
                   last.session->config().cost.disks.num_disks);
  ReplayWhatIfs({&*last.session}, {last.advice->best()->fragmentation}, stream,
                tracer, report);
  ReplayScenarios(target.spec, 8, options.threads, tracer, report);
  FinishTrace(options, tracer, Percentile(untraced, 0.5),
              Percentile(traced, 0.5), report);
}

}  // namespace perfbench
