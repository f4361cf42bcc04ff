// The sweep subsystem's two contracts: the pool runs everything it is
// given, and a parallel sweep's merged output is byte-identical to the
// sequential run.
#include "sweep/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "experiments/harness.hpp"
#include "experiments/report.hpp"
#include "faults/injector.hpp"
#include "sweep/thread_pool.hpp"
#include "util/str.hpp"

namespace tsn::sweep {
namespace {

using namespace tsn::sim::literals;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPoolTest, WaitIdleOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(SweepRunnerTest, ResultsInSubmissionOrder) {
  experiments::ScenarioConfig base;
  base.seed = 100;
  auto configs = seed_sweep(base, 32);
  SweepRunner runner({.threads = 4});
  const auto results = runner.run(
      configs, [](const experiments::ScenarioConfig& cfg, std::size_t index) {
        return std::make_pair(index, cfg.seed);
      });
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].first, i);
    EXPECT_EQ(results[i].second, 100 + i);
  }
}

TEST(SweepRunnerTest, ReplicaExceptionIsRethrown) {
  experiments::ScenarioConfig base;
  auto configs = seed_sweep(base, 8);
  SweepRunner runner({.threads = 4});
  EXPECT_THROW(
      runner.run(configs,
                 [](const experiments::ScenarioConfig& cfg, std::size_t) -> int {
                   if (cfg.seed == 4) throw std::runtime_error("replica failed");
                   return 0;
                 }),
      std::runtime_error);
}

TEST(SweepRunnerTest, MergeHelpersFoldInOrder) {
  std::vector<util::TimeSeries> series(2);
  series[0].add(10, 1.0);
  series[1].add(5, 2.0);
  const auto merged = merge_series(series);
  ASSERT_EQ(merged.points().size(), 2u);
  EXPECT_EQ(merged.points()[0].t_ns, 10);
  EXPECT_EQ(merged.points()[1].t_ns, 5);

  std::vector<experiments::EventLog> logs(2);
  logs[0].record(1, experiments::EventKind::kTakeover, "a");
  logs[1].record(2, experiments::EventKind::kAttack, "b");
  const auto mlog = merge_event_logs(logs);
  ASSERT_EQ(mlog.events().size(), 2u);
  EXPECT_EQ(mlog.events()[0].subject, "a");

  std::vector<util::Histogram> hists(2, util::Histogram(0.0, 100.0, 10.0));
  hists[0].add(5.0);
  hists[1].add(5.0);
  hists[1].add(205.0);
  const auto mh = merge_histograms(hists);
  EXPECT_EQ(mh.bin(0), 2u);
  EXPECT_EQ(mh.overflow(), 1u);
  EXPECT_EQ(mh.stats().count(), 3u);
}

// ---------------------------------------------------------------------------
// The headline guarantee: a fig4b-style 8-seed fault-injection sweep at
// threads=4 produces byte-identical merged CSV output and identical
// merged stats to threads=1.

struct Fig4bReplica {
  util::TimeSeries series;
  experiments::EventLog events;
};

Fig4bReplica run_fig4b_replica(const experiments::ScenarioConfig& cfg) {
  experiments::Scenario scenario(cfg);
  experiments::ExperimentHarness harness(scenario);
  gptp::InstanceFaultModel fm;
  fm.p_tx_timestamp_timeout = 1.06e-3;
  fm.p_late_launch = 1.25e-4;
  for (std::size_t x = 0; x < scenario.num_ecds(); ++x) {
    for (std::size_t i = 0; i < 2; ++i) scenario.vm(x, i).set_fault_model(fm);
  }
  harness.bring_up();
  harness.calibrate();
  faults::InjectorConfig icfg;
  icfg.gm_kill_period_ns = 45_s;
  icfg.gm_downtime_ns = 30_s;
  icfg.standby_kills_per_hour = 60.0;
  icfg.standby_min_gap_ns = 20_s;
  icfg.standby_downtime_ns = 30_s;
  faults::FaultInjector injector(scenario.sim(), scenario.ecd_ptrs(), icfg);
  injector.spare(&scenario.measurement_vm());
  injector.add_listener([&](const faults::InjectionEvent& ev) {
    harness.region_log(0).record(ev.at_ns,
                                 ev.is_reboot ? experiments::EventKind::kVmReboot
                                              : experiments::EventKind::kVmFailure,
                                 ev.vm, ev.was_gm ? "gm" : "standby");
  });
  injector.start();
  harness.run_measured(60_s);
  return {scenario.probe().series(), harness.events()};
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string sweep_artifacts(std::size_t threads, const std::string& tag) {
  experiments::ScenarioConfig base;
  base.seed = 7001;
  SweepRunner runner({.threads = threads});
  const auto results = runner.run(
      seed_sweep(base, 8),
      [](const experiments::ScenarioConfig& cfg, std::size_t) { return run_fig4b_replica(cfg); });

  std::vector<util::TimeSeries> series;
  std::vector<experiments::EventLog> logs;
  for (const auto& r : results) {
    series.push_back(r.series);
    logs.push_back(r.events);
  }
  const auto merged_series = merge_series(series);
  const auto merged_log = merge_event_logs(logs);

  const std::string series_csv = "sweep_det_series_" + tag + ".csv";
  const std::string events_csv = "sweep_det_events_" + tag + ".csv";
  experiments::dump_series_csv(merged_series, series_csv);
  experiments::dump_events_csv(merged_log, events_csv);

  std::vector<util::Histogram> hists;
  for (const auto& r : results) {
    util::Histogram h(0.0, 1000.0, 50.0);
    for (const auto& p : r.series.points()) h.add(p.value);
    hists.push_back(h);
  }
  const auto merged_hist = merge_histograms(hists);

  const auto st = merged_series.stats();
  std::string artifacts = file_bytes(series_csv) + "\n---\n" + file_bytes(events_csv) + "\n---\n" +
                          merged_hist.ascii() + "\n---\n" +
                          util::format("%zu %.17g %.17g %.17g %.17g", merged_series.points().size(),
                                       st.mean(), st.stddev(), st.min(), st.max());
  std::remove(series_csv.c_str());
  std::remove(events_csv.c_str());
  return artifacts;
}

TEST(SweepDeterminismTest, ParallelMergedOutputByteIdenticalToSequential) {
  const std::string sequential = sweep_artifacts(1, "t1");
  const std::string parallel = sweep_artifacts(4, "t4");
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);
  // Sanity: the sweep actually produced data (8 replicas x ~60 probe
  // samples each).
  EXPECT_GT(sequential.size(), 1000u);
}

} // namespace
} // namespace tsn::sweep
