// warlockd-mixed: an in-process warlockd driven closed-loop by client
// threads, each waiting for its reply before sending the next request, the
// way a DBA tool waits for its answer. Keys are generated scenario triples
// chosen Zipf(1) against a smaller session cache, so the hot keys are served
// from the cache and the tail is rebuilt: misses (parse, session build,
// pipeline) run beside hits (hash and memo lookup only).

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "common/zipf.h"
#include "fragment/fragmentation.h"
#include "report/renderer.h"
#include "service/json_value.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

using warlock::Session;
namespace service = warlock::service;

namespace {

constexpr uint32_t kKeys = 120;
constexpr size_t kCacheCapacity = 48;
constexpr double kZipfTheta = 1.0;
constexpr double kAdviseShare = 0.8;
constexpr int kSetupRounds = 7;
// Requests of the first seconds fill the session cache and are not timed.
constexpr double kWarmupSeconds = 1.0;
// What-ifs replayed in-process in the traced run.
constexpr size_t kReplayedWhatIfs = 200;

struct Key {
  InputTexts texts;
  std::unique_ptr<warlock::schema::StarSchema> schema;
  uint32_t disks = 0;
};

struct Request {
  uint32_t key = 0;
  bool advise = true;
  WhatIfKnobs knobs;
};

// The deterministic request stream of one client.
class RequestStream {
 public:
  RequestStream(uint64_t seed, uint32_t client,
                const warlock::AliasSampler& keys,
                const std::vector<Key>& key_data)
      : rng_(DeriveSeed(seed, 3000 + client)), keys_(keys), data_(key_data) {}

  Request Next() {
    Request r;
    r.key = static_cast<uint32_t>(keys_.Sample(rng_));
    r.advise = rng_.NextDouble() < kAdviseShare;
    if (!r.advise) r.knobs = DrawWhatIf(rng_, data_[r.key].disks);
    return r;
  }

 private:
  warlock::Rng rng_;
  const warlock::AliasSampler& keys_;
  const std::vector<Key>& data_;
};

struct Fixture {
  std::vector<Key> keys;
  std::optional<warlock::AliasSampler> sampler;
  std::unique_ptr<service::Server> server;
  std::vector<service::Client> clients;
};

std::string RequestDigestPart(const Request& r) {
  return std::to_string(r.key) + (r.advise ? "a" : "w") +
         std::to_string(r.knobs.num_disks) + "/" +
         std::to_string(r.knobs.fact_granule) + "/" +
         std::to_string(r.knobs.bitmap_granule);
}

}  // namespace

void ServiceObservations::Merge(const ServiceObservations& other) {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(advise_hit_ms, other.advise_hit_ms);
  append(advise_miss_ms, other.advise_miss_ms);
  append(whatif_ms, other.whatif_ms);
  append(encode_us, other.encode_us);
  append(decode_us, other.decode_us);
}

service::WhatIfCall MakeWhatIfCall(const InputTexts& texts,
                                   const warlock::schema::StarSchema& schema,
                                   const WhatIfKnobs& knobs) {
  service::WhatIfCall call;
  call.schema_text = texts.schema;
  call.workload_text = texts.workload;
  call.config_text = texts.config;
  const auto& dim = schema.dimension(0);
  call.fragmentation = {{dim.name(), dim.level(0).name}};
  if (knobs.num_disks != 0) call.num_disks = knobs.num_disks;
  if (knobs.fact_granule != 0) {
    call.fact_granule = knobs.fact_granule;
    call.bitmap_granule = knobs.bitmap_granule;
  }
  return call;
}

warlock::Result<service::Response> TimedCall(
    service::Client& client, const std::string& kind,
    const std::function<std::string()>& encode, uint64_t request,
    Tracer& tracer, ServiceObservations& obs) {
  Span root(tracer, "service.request", request);
  std::string document;
  {
    Span span(tracer, "service.encode", request);
    document = encode();
    obs.encode_us.push_back(span.End() * 1e3);
  }
  warlock::Result<service::Response> response =
      warlock::Status::Internal("not sent");
  {
    Span span(tracer, "service.call", request);
    response = client.Call(document);
  }
  const double round_trip_ms = root.End();
  if (!response.ok() || !response->status.ok()) return response;
  if (kind == "whatif") {
    obs.whatif_ms.push_back(round_trip_ms);
  } else if (response->session_cache_hit) {
    obs.advise_hit_ms.push_back(round_trip_ms);
  } else {
    obs.advise_miss_ms.push_back(round_trip_ms);
  }
  // The client decodes inside Call; decoding the same document again,
  // outside the round trip, times the protocol layer on its own.
  if (tracer.enabled()) {
    const std::string wire = service::OkResponse(
        response->method, response->payload, response->session_cache_hit);
    Span span(tracer, "service.decode", request);
    auto decoded = service::ParseResponse(wire);
    obs.decode_us.push_back(span.End() * 1e3);
    if (!decoded.ok()) return decoded.status();
  }
  return response;
}

void ReportServiceMetrics(service::Client& client,
                          const ServiceObservations& obs, RunReport& report) {
  report.Attempt(2);
  auto stats = client.Stats();
  auto metrics = client.Metrics("json");
  if (!stats.ok() || !stats->status.ok() || !metrics.ok() ||
      !metrics->status.ok()) {
    report.Fail("service: stats or metrics request failed");
    return;
  }
  auto stats_doc = service::ParseJson(stats->payload);
  auto metrics_doc = service::ParseJson(metrics->payload);
  if (!stats_doc.ok() || !metrics_doc.ok()) {
    report.Fail("service: unparsable stats or metrics document");
    return;
  }
  auto number = [](const service::JsonValue* v) {
    return v != nullptr && v->is_number() ? v->number_value() : 0.0;
  };
  const service::JsonValue* cache = stats_doc->Find("session_cache");
  const double hits = number(cache ? cache->Find("hits") : nullptr);
  const double misses = number(cache ? cache->Find("misses") : nullptr);
  const service::JsonValue* methods = stats_doc->Find("methods");
  const service::JsonValue* advise =
      methods ? methods->Find("advise") : nullptr;
  const double advise_requests =
      number(advise ? advise->Find("requests") : nullptr);
  report.Set("service.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.Set("service.cache_evictions",
             number(cache ? cache->Find("evictions") : nullptr), "count");
  report.Set("service.payload_hit_ratio",
             advise_requests > 0
                 ? number(stats_doc->Find("advise_payload_hits")) /
                       advise_requests
                 : 0.0,
             "ratio");

  double server_us = 0.0, served = 0.0;
  if (const auto* hists = metrics_doc->Find("histograms")) {
    for (const char* method : {"advise", "whatif"}) {
      const auto* h = hists->Find(std::string("server.latency_us.") + method);
      server_us += number(h ? h->Find("sum_us") : nullptr);
      served += number(h ? h->Find("count") : nullptr);
    }
  }
  std::vector<double> round_trips = obs.advise_hit_ms;
  round_trips.insert(round_trips.end(), obs.advise_miss_ms.begin(),
                     obs.advise_miss_ms.end());
  round_trips.insert(round_trips.end(), obs.whatif_ms.begin(),
                     obs.whatif_ms.end());
  const double server_ms = served > 0 ? server_us / served / 1e3 : 0.0;
  report.Set("service.server_ms", server_ms, "ms");
  report.Set("service.transport_ms", Mean(round_trips) - server_ms, "ms");
  report.Set("service.encode_us", Percentile(obs.encode_us, 0.5), "us");
  report.Set("service.decode_us", Percentile(obs.decode_us, 0.5), "us");
  report.Set("service.advise_hit_ms_p50", Percentile(obs.advise_hit_ms, 0.5),
             "ms");
  report.Set("service.advise_miss_ms_p50",
             Percentile(obs.advise_miss_ms, 0.5), "ms");
  report.Set("service.whatif_ms_p50", Percentile(obs.whatif_ms, 0.5), "ms");
}

void RunServiceProbe(const ProbeTarget& target, const RunOptions& options,
                     Tracer& tracer, RunReport& report) {
  service::ServerOptions server_options;
  server_options.workers = 1;
  server_options.session_threads = options.threads;
  server_options.cache_capacity = kCacheCapacity;
  service::Server server(server_options);
  auto client = [&]() -> warlock::Result<service::Client> {
    WARLOCK_RETURN_IF_ERROR(server.Start());
    return service::Client::Connect("127.0.0.1", server.port());
  }();
  report.Attempt();
  if (!client.ok()) {
    return report.Fail("service probe: " + client.status().ToString());
  }

  const auto json = warlock::report::Renderer::Create(
      warlock::report::OutputFormat::kJson);
  const auto expected =
      json->Ranking(target.advice->result, target.session->schema());
  ServiceObservations obs;
  service::AdviseCall advise;
  advise.schema_text = target.texts.schema;
  advise.workload_text = target.texts.workload;
  advise.config_text = target.texts.config;
  for (int i = 0; i < 2; ++i) {
    report.Attempt();
    auto response = TimedCall(
        *client, "advise", [&] { return service::AdviseRequestJson(advise); },
        i, tracer, obs);
    if (!response.ok() || !response->status.ok() || !expected.ok() ||
        response->payload != *expected) {
      report.Fail("service probe: advise payload differs from Session::Advise");
    }
  }
  WhatIfKnobs knobs;
  knobs.fact_granule = 16;
  knobs.bitmap_granule = 2;
  const service::WhatIfCall whatif =
      MakeWhatIfCall(target.texts, target.session->schema(), knobs);
  for (int i = 2; i < 4; ++i) {
    report.Attempt();
    auto response = TimedCall(
        *client, "whatif", [&] { return service::WhatIfRequestJson(whatif); },
        i, tracer, obs);
    if (!response.ok() || !response->status.ok()) {
      report.Fail("service probe: what-if failed");
    }
  }
  ReportServiceMetrics(*client, obs, report);
}

void RunWarlockdMixed(const RunOptions& options, Tracer& tracer,
                      RunReport& report) {
  const unsigned clients = std::max(1u, options.threads / 2);
  const unsigned workers = std::max(1u, options.threads - clients);
  const warlock::scenario::ScenarioSpec spec = KeySpec(options.seed, kKeys);

  Fixture fixture;
  auto teardown = [&] {
    fixture.clients.clear();
    fixture.server.reset();
    fixture = Fixture{};
  };
  auto setup = [&] {
    std::vector<std::string> digest_parts;
    for (uint32_t i = 0; i < kKeys; ++i) {
      auto scenario = warlock::scenario::GenerateScenario(spec, i);
      if (!scenario.ok()) {
        report.Fail("key generation: " + scenario.status().ToString());
        continue;
      }
      Key key;
      key.texts = ScenarioTexts(*scenario);
      key.disks = scenario->config.cost.disks.num_disks;
      key.schema = std::make_unique<warlock::schema::StarSchema>(
          std::move(scenario->schema));
      digest_parts.push_back(key.texts.schema);
      digest_parts.push_back(key.texts.workload);
      digest_parts.push_back(key.texts.config);
      fixture.keys.push_back(std::move(key));
    }
    auto weights = warlock::ZipfWeights(kKeys, kZipfTheta);
    if (weights.ok()) {
      auto sampler = warlock::AliasSampler::Create(*weights);
      if (sampler.ok()) fixture.sampler = std::move(sampler).value();
    }
    if (!fixture.sampler || fixture.keys.size() != kKeys) {
      report.Fail("key sampler set-up failed");
      return;
    }
    // The digest covers the first requests of every client's stream too.
    for (unsigned c = 0; c < clients; ++c) {
      RequestStream stream(options.seed, c, *fixture.sampler, fixture.keys);
      for (int i = 0; i < 256; ++i) {
        digest_parts.push_back(RequestDigestPart(stream.Next()));
      }
    }
    report.input_digest = Digest(digest_parts);
    if (options.digest_only) return;

    service::ServerOptions server_options;
    server_options.workers = workers;
    server_options.session_threads = 1;
    server_options.cache_capacity = kCacheCapacity;
    fixture.server = std::make_unique<service::Server>(server_options);
    warlock::Status started = fixture.server->Start();
    if (!started.ok()) return report.Fail("server: " + started.ToString());
    for (unsigned c = 0; c < clients; ++c) {
      auto client =
          service::Client::Connect("127.0.0.1", fixture.server->port());
      if (!client.ok()) {
        return report.Fail("client: " + client.status().ToString());
      }
      fixture.clients.push_back(std::move(client).value());
    }
  };
  setup();
  if (options.digest_only || report.failed() > 0) return;

  // Every advise payload of a key must be byte-identical (hit or miss);
  // the first one is checked against an in-process session afterwards.
  std::mutex payload_mu;
  std::map<uint32_t, std::string> payloads;
  std::mutex whatif_mu;
  std::vector<WhatIfCallRecord> whatif_stream;
  std::vector<RequestStream> streams;
  for (unsigned c = 0; c < clients; ++c) {
    streams.emplace_back(options.seed, c, *fixture.sampler, fixture.keys);
  }
  std::atomic<uint64_t> next_request{0};

  // Runs every client for `seconds`; requests started within the first
  // `warmup` seconds are sent and checked but not timed.
  auto run_window = [&](double seconds, double warmup,
                        ServiceObservations& obs_out) {
    std::vector<std::vector<double>> waits(clients);
    std::vector<ServiceObservations> obs(clients);
    const int64_t start = NowNs();
    const int64_t timed_from = start + static_cast<int64_t>(warmup * 1e9);
    const int64_t end = timed_from + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        service::Client& client = fixture.clients[c];
        while (NowNs() < end) {
          const int64_t sent = NowNs();
          const Request r = streams[c].Next();
          const Key& key = fixture.keys[r.key];
          const uint64_t id = next_request.fetch_add(1);
          report.Attempt();
          warlock::Result<service::Response> response =
              warlock::Status::Internal("not sent");
          if (r.advise) {
            service::AdviseCall call;
            call.schema_text = key.texts.schema;
            call.workload_text = key.texts.workload;
            call.config_text = key.texts.config;
            response = TimedCall(
                client, "advise",
                [&] { return service::AdviseRequestJson(call); }, id, tracer,
                obs[c]);
          } else {
            const service::WhatIfCall call =
                MakeWhatIfCall(key.texts, *key.schema, r.knobs);
            response = TimedCall(
                client, "whatif",
                [&] { return service::WhatIfRequestJson(call); }, id, tracer,
                obs[c]);
            if (tracer.enabled()) {
              std::lock_guard<std::mutex> lock(whatif_mu);
              if (whatif_stream.size() < kReplayedWhatIfs) {
                whatif_stream.push_back({r.key, r.knobs});
              }
            }
          }
          if (sent >= timed_from) {
            waits[c].push_back(static_cast<double>(NowNs() - sent) / 1e6);
          }
          if (!response.ok()) {
            report.Fail("transport: " + response.status().ToString());
            continue;
          }
          if (!response->status.ok()) {
            report.Fail("server: " + response->status.ToString());
            continue;
          }
          if (r.advise) {
            std::lock_guard<std::mutex> lock(payload_mu);
            auto [it, inserted] = payloads.emplace(r.key, response->payload);
            if (!inserted && it->second != response->payload) {
              report.Fail("advise payload of key " + std::to_string(r.key) +
                          " changed between requests");
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    // The window closes when the last reply arrives, not at the nominal end.
    const double window_s = static_cast<double>(NowNs() - timed_from) / 1e9;
    std::vector<double> all;
    for (unsigned c = 0; c < clients; ++c) {
      all.insert(all.end(), waits[c].begin(), waits[c].end());
      obs_out.Merge(obs[c]);
    }
    return std::make_pair(all, window_s);
  };

  ServiceObservations obs;
  std::vector<double> untraced_wait;
  std::vector<double> traced_wait;
  double window_s = 0.0;
  if (!options.trace) {
    std::tie(untraced_wait, window_s) =
        run_window(options.seconds, kWarmupSeconds, obs);
  } else {
    untraced_wait = run_window(options.seconds / 2, kWarmupSeconds, obs).first;
    tracer.set_enabled(true);
    traced_wait = run_window(options.seconds / 2, 0.0, obs).first;
    ReportServiceMetrics(fixture.clients[0], obs, report);
  }
  fixture.clients.clear();
  fixture.server.reset();

  // warlockd's byte-parity contract: each key's advise payload equals the
  // JSON ranking of an in-process session on the same texts.
  std::vector<std::optional<Session>> sessions(kKeys);
  std::vector<std::optional<warlock::AdviseResponse>> advice(kKeys);
  warlock::common::ThreadPool pool(options.threads);
  pool.ParallelFor(0, kKeys, [&](size_t k) {
    const bool checked = payloads.count(static_cast<uint32_t>(k)) > 0;
    if (!checked && !options.trace) return;
    report.Attempt();
    warlock::SessionOptions session_options;
    session_options.threads = 1;
    const InputTexts& texts = fixture.keys[k].texts;
    auto session = Session::FromText(texts.schema, texts.workload,
                                     texts.config, session_options);
    if (!session.ok()) return report.Fail(session.status().ToString());
    auto response = session->Advise();
    if (!response.ok()) return report.Fail(response.status().ToString());
    if (checked) {
      const auto rendered = warlock::report::Renderer::Create(
                                warlock::report::OutputFormat::kJson)
                                ->Ranking(response->result, session->schema());
      const std::string& payload = payloads.at(static_cast<uint32_t>(k));
      if (!rendered.ok() || *rendered != payload) {
        report.Fail("advise payload of key " + std::to_string(k) +
                    " differs from Session::Advise");
      }
    }
    sessions[k].emplace(std::move(session).value());
    advice[k].emplace(std::move(response).value());
  });
  if (!options.trace) {
    SetEndToEnd(report, MedianSetupSeconds(kSetupRounds, setup, teardown),
                static_cast<double>(untraced_wait.size()), window_s,
                untraced_wait);
    return;
  }

  std::vector<const Session*> session_ptrs;
  std::vector<warlock::fragment::Fragmentation> frags;
  for (uint32_t k = 0; k < kKeys; ++k) {
    if (!sessions[k]) {
      return report.Fail("no session for key " + std::to_string(k));
    }
    session_ptrs.push_back(&*sessions[k]);
    const auto& dim = sessions[k]->schema().dimension(0);
    auto frag = warlock::fragment::Fragmentation::FromNames(
        {{dim.name(), dim.level(0).name}}, sessions[k]->schema());
    if (!frag.ok()) return report.Fail(frag.status().ToString());
    frags.push_back(std::move(frag).value());
  }
  ReplayWhatIfs(session_ptrs, frags, whatif_stream, tracer, report);
  ReplayScenarios(spec, kKeys, options.threads, tracer, report);
  ProbeTarget target{fixture.keys[0].texts, &*sessions[0], &*advice[0], spec};
  RunLayerProbe(target, options, tracer, report);
  FinishTrace(options, tracer, Percentile(untraced_wait, 0.5),
              Percentile(traced_wait, 0.5), report);
}

}  // namespace perfbench
