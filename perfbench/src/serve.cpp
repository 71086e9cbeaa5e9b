// The serve layer, probed from outside over a report a workload wrote: an
// in-process daemon with 2 workers, two closed-loop query connections
// sending lookup and peers_at at 9:1, and a control connection reloading
// the report every 250 ms. Every answer is checked afterwards against
// handle_request on the same report.
//
// The probe runs pinned to one CPU. Each request is handed off four times
// (client, poll loop, worker, poll loop, client); spread over several
// vCPUs, host CPU steal on any of them stalls the chain, while on one CPU
// every hand-off is local. The figures are then the serve layer's own
// work: framing, JSON, handlers and snapshot swaps.
#include <sched.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "serve/client.h"
#include "serve/handlers.h"
#include "serve/server.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kStateBuilds = 3;
constexpr int kQueryConnections = 2;
constexpr int kReloadPeriodMs = 250;
constexpr double kWindowS = 2.0;
// Relative to the run's work directory, which keeps it far below the
// sun_path limit wherever the checkout lives.
constexpr const char* kSocket = "serve.sock";

// An in-process daemon; stops and joins on destruction.
class Daemon {
 public:
  explicit Daemon(std::shared_ptr<const cfs::ServeState> state)
      : server_(options(), std::move(state)),
        thread_([this] { (void)server_.run(); }) {
    for (int attempt = 0;; ++attempt) {
      try {
        cfs::ServeClient probe;
        probe.connect(kSocket);
        return;
      } catch (const std::exception&) {
        if (attempt > 500) {
          stop();
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  static cfs::ServeOptions options() {
    cfs::ServeOptions options;
    options.socket_path = kSocket;
    options.threads = 2;
    options.install_signal_handlers = false;
    return options;
  }
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_shutdown();
    thread_.join();
  }

  cfs::Server server_;
  std::thread thread_;
};

// The reference the answers are checked against: the report the daemon
// loaded, answering at whatever generation a reply reports.
class ReferenceControl : public cfs::ServeControl {
 public:
  explicit ReferenceControl(const cfs::ServeState& state)
      : state_(std::make_shared<cfs::ServeState>(state)) {}
  void at_generation(std::uint64_t generation) {
    state_->generation = generation;
  }
  [[nodiscard]] std::shared_ptr<const cfs::ServeState> state()
      const override {
    return state_;
  }
  void swap_state(std::shared_ptr<const cfs::ServeState>) override {}
  void request_shutdown() override {}
  cfs::MetricsSnapshot exchange_metrics_baseline(
      const cfs::MetricsSnapshot& now) override {
    return now;
  }

 private:
  std::shared_ptr<cfs::ServeState> state_;
};

struct Query {
  bool peers_at = false;
  std::size_t key = 0;  // index into the address or facility list
};

// One answered query, kept for the check after the window.
struct Answer {
  Query query;
  std::uint64_t generation = 0;
  std::uint64_t hash = 0;
  double us = 0.0;
  std::size_t bytes = 0;
};

struct Keys {
  std::vector<std::string> addresses;
  std::vector<std::int64_t> facilities;  // facilities with a pinned member

  [[nodiscard]] cfs::JsonValue request(const Query& query) const {
    cfs::JsonValue::Object doc;
    if (query.peers_at) {
      doc.emplace("op", "peers_at");
      doc.emplace("facility", facilities[query.key]);
    } else {
      doc.emplace("op", "lookup");
      doc.emplace("ip", addresses[query.key]);
    }
    return cfs::JsonValue(std::move(doc));
  }
};

Keys keys_of(const cfs::ServeState& state) {
  Keys keys;
  std::set<std::int64_t> facilities;
  for (const cfs::JsonValue& entry :
       state.report_json.at("interfaces").as_array()) {
    keys.addresses.push_back(entry.at("address").as_string());
    if (entry.at("has_constraint").as_bool() &&
        entry.at("candidates").size() == 1)
      facilities.insert(entry.at("candidates").at(0).as_int());
  }
  keys.facilities.assign(facilities.begin(), facilities.end());
  return keys;
}

// Restricts this thread, and every thread it starts, to the lowest CPU it
// may run on; restores the previous set on destruction.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &saved_)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
        return;
      }
  }
  ~PinnedToOneCpu() {
    if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

std::uint64_t generation_of(const cfs::JsonValue& response) {
  const cfs::JsonValue* result = response.find("result");
  const cfs::JsonValue* generation =
      result != nullptr ? result->find("generation") : nullptr;
  return generation != nullptr && generation->is_number()
             ? generation->as_uint()
             : 0;
}

}  // namespace

void probe_serve(const std::string& report_path, std::uint64_t seed,
                 Result& result) {
  cfs::TraceSpan probe_span("bench.serve_probe", "bench");
  const PinnedToOneCpu pinned;
  std::shared_ptr<const cfs::ServeState> state;
  std::vector<double> state_ms;
  for (int i = 0; i < kStateBuilds; ++i) {
    const auto start = Clock::now();
    state = cfs::ServeState::from_file(report_path, 0);
    state_ms.push_back(ms_since(start));
  }
  const Keys keys = keys_of(*state);
  result.check(!keys.addresses.empty() && !keys.facilities.empty(),
               "served report has interfaces and pinned facilities");
  if (keys.addresses.empty() || keys.facilities.empty()) return;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> transport_errors{0};
  std::vector<std::vector<Answer>> answers(kQueryConnections);
  std::vector<double> reload_ms;
  std::uint64_t reload_failures = 0;

  const auto query_loop = [&](int connection) {
    cfs::Rng rng(seed * 1000003ull + static_cast<unsigned>(connection));
    std::vector<Answer>& mine = answers[static_cast<std::size_t>(connection)];
    cfs::ServeClient client;
    try {
      client.connect(kSocket);
    } catch (const std::exception&) {
      ++transport_errors;
      return;
    }
    while (!stop.load(std::memory_order_relaxed)) {
      Answer answer;
      answer.query.peers_at = rng.uniform(10) == 0;
      answer.query.key = rng.uniform(answer.query.peers_at
                                         ? keys.facilities.size()
                                         : keys.addresses.size());
      const cfs::JsonValue request = keys.request(answer.query);
      const auto start = Clock::now();
      try {
        const cfs::JsonValue response = client.request(request);
        answer.us = ms_since(start) * 1000.0;
        const std::string bytes = response.dump();
        answer.generation = generation_of(response);
        answer.hash = fnv1a64(bytes);
        answer.bytes = bytes.size();
        mine.push_back(answer);
      } catch (const std::exception&) {
        ++transport_errors;
        client.close();
        try {
          client.connect(kSocket);
        } catch (const std::exception&) {
          return;
        }
      }
    }
  };
  const auto reload_loop = [&] {
    cfs::ServeClient client;
    try {
      client.connect(kSocket);
    } catch (const std::exception&) {
      ++transport_errors;
      return;
    }
    cfs::JsonValue::Object doc;
    doc.emplace("op", "reload");
    doc.emplace("report", report_path);
    const cfs::JsonValue request(std::move(doc));
    while (!stop.load(std::memory_order_relaxed)) {
      const auto start = Clock::now();
      try {
        const cfs::JsonValue response = client.request(request);
        reload_ms.push_back(ms_since(start));
        if (!response.at("ok").as_bool()) ++reload_failures;
      } catch (const std::exception&) {
        ++transport_errors;
        return;
      }
      std::this_thread::sleep_until(
          start + std::chrono::milliseconds(kReloadPeriodMs));
    }
  };

  {
    const Daemon daemon(state);
    cfs::TraceSpan span("bench.serve_window", "bench");
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c)
      threads.emplace_back(query_loop, c);
    threads.emplace_back(reload_loop);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
    stop = true;
    for (std::thread& thread : threads) thread.join();
  }

  // Every answer must equal handle_request on the same report at the
  // generation the answer reports.
  std::uint64_t mismatches = 0;
  std::uint64_t queries = 0;
  std::vector<double> all_us;
  std::vector<double> lookup_us;
  std::vector<double> peers_us;
  double bytes = 0.0;
  {
    cfs::TraceSpan span("bench.check_answers", "bench");
    ReferenceControl reference(*state);
    std::map<std::tuple<bool, std::size_t, std::uint64_t>, std::uint64_t>
        expected;
    for (const auto& mine : answers)
      for (const Answer& answer : mine) {
        const auto key = std::make_tuple(answer.query.peers_at,
                                         answer.query.key, answer.generation);
        auto it = expected.find(key);
        if (it == expected.end()) {
          reference.at_generation(answer.generation);
          const cfs::JsonValue want =
              cfs::handle_request(keys.request(answer.query), reference);
          it = expected.emplace(key, fnv1a64(want.dump())).first;
        }
        mismatches += it->second != answer.hash;
        ++queries;
        all_us.push_back(answer.us);
        (answer.query.peers_at ? peers_us : lookup_us).push_back(answer.us);
        bytes += static_cast<double>(answer.bytes);
      }
  }
  result.attempted += queries + reload_ms.size() + transport_errors;
  result.failed += mismatches + reload_failures + transport_errors;
  result.check(mismatches == 0, "every serve answer equals handle_request (" +
                                    std::to_string(queries) + " answers)");
  result.check(transport_errors == 0 && reload_failures == 0,
               "no transport errors or failed reloads");
  result.check(queries > 0 && !reload_ms.empty(),
               "queries and reloads were answered");

  const double tail_q = tail_quantile(all_us.size());
  result.set("serve.state_build_ms", percentile(state_ms, 0.5));
  result.set("serve.lookup_us_p50", percentile(lookup_us, 0.5));
  result.set("serve.peers_at_us_p50", percentile(peers_us, 0.5));
  result.set("serve.latency_us_p99", percentile(all_us, tail_q));
  result.set("serve.response_bytes_mean",
             queries == 0 ? 0.0 : bytes / static_cast<double>(queries));
  result.set("serve.reload_ms_p50", percentile(reload_ms, 0.5));
  Result::info("serve_qps",
               std::to_string(static_cast<double>(queries) / kWindowS));
  Result::info("serve_latency_us_p50",
               std::to_string(percentile(all_us, 0.5)));
  Result::info("serve_latency_us_p" + std::to_string(int(tail_q * 100)),
               std::to_string(percentile(all_us, tail_q)));
  Result::info("serve_reload_ms_p50",
               std::to_string(percentile(reload_ms, 0.5)) + " over " +
                   std::to_string(reload_ms.size()) + " reloads");
}

}  // namespace perfbench
