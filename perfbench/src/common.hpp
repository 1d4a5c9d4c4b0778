/**
 * @file
 * Shared plumbing of the repository benchmark: run configuration, the
 * result every workload returns, statistics, the simulated-statistics
 * digest, output checks on simulation results, and host context.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/multicore.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point from, Clock::time_point to);
double secondsSince(Clock::time_point from);

/** Command-line configuration of one benchmark run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test only: "stack" or "report" corrupts one checked output. */
    std::string corrupt;
    /** serve-mix only: measure the daemon's capacity instead of a run. */
    bool calibrate = false;
    /** Worker threads and maximum connections: every online vCPU. */
    unsigned nproc = 1;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a workload hands back to main(). */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures (first few are printed). */
    std::vector<std::string> check_failures;
    std::vector<Metric> metrics;
    /** Hash of every simulated statistic the workload produced. */
    std::string sim_digest;
    unsigned peak_threads = 0;
    unsigned peak_connections = 0;

    void add(std::string name, double value, std::string unit);
    /** Record a failed output check; counts one failed operation. */
    void fail(std::string why);
};

/**
 * The end-to-end metrics (BENCHMARK.json "end_to_end"). Every workload
 * reports all of them; an operation is a batch job or a serve request,
 * and a cold operation is one that ran a simulation.
 */
struct EndToEnd
{
    double setup_s = 0.0;
    double throughput_kips = 0.0;
    double peak_rss_mb = 0.0;
    double goodput_rps = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double cold_p50_ms = 0.0;
    double cold_p90_ms = 0.0;
};

void addEndToEnd(RunResult &out, const EndToEnd &e);

/**
 * The per-layer metrics of a traced run (BENCHMARK.json "per_layer").
 * Times ending in _s are summed thread-seconds spent inside the layer's
 * calls; a layer the workload does not exercise stays 0.
 */
struct Layers
{
    double trace_gen_s = 0.0;
    double trace_build_s = 0.0;
    double core_engine_s = 0.0;
    double core_sim_cycles = 0.0;
    double core_sim_instrs = 0.0;
    /** sim::simulate with accounting on, and the same call with it off. */
    double stacks_simulate_s = 0.0;
    double stacks_simulate_noacct_s = 0.0;
    double sim_warmup_s = 0.0;
    double sim_measure_s = 0.0;
    double sim_report_s = 0.0;
    double runner_batch_s = 0.0;
    double runner_threads = 0.0;
    /** Worker idle time, and the wall window it is taken over. */
    double runner_idle_s = 0.0;
    double runner_window_s = 0.0;
    double runner_steals = 0.0;
    double runner_tail_s = 0.0;
    double obs_reports = 0.0;
    double obs_report_s = 0.0;
    double obs_report_bytes = 0.0;
    double serve_ping_rtt_us = 0.0;
    double serve_parse_us = 0.0;
    double serve_hash_us = 0.0;
    double serve_cache_lookup_us = 0.0;
    double span_accept_us = 0.0;
    double span_parse_us = 0.0;
    double span_cache_lookup_us = 0.0;
    double span_write_us = 0.0;
    double span_queue_wait_ms = 0.0;
    double span_simulate_ms = 0.0;
    double span_serialize_ms = 0.0;
    double span_singleflight_wait_ms = 0.0;
    double serve_analyze_requests = 0.0;
    double serve_hits = 0.0;
    double serve_coalesced = 0.0;
    double serve_hit_p50_ms = 0.0;
    double serve_hit_p99_ms = 0.0;
    double serve_gen_lag_ms = 0.0;
    /** End-to-end metrics of the untraced and traced halves of the run. */
    EndToEnd untraced{};
    EndToEnd traced{};
};

void addLayers(RunResult &out, const Layers &l);

/** Nearest-rank percentile (p in [0,1]); 0 for an empty sample. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/** splitmix64 step: derives independent sub-seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** FNV-1a accumulator over simulated statistics. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(std::uint64_t value);
    /** Exact bit pattern, so any change in a stack component shows. */
    void add(double value);
    void add(const stackscope::sim::SimResult &r);
    void add(const stackscope::sim::MulticoreResult &r);
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Output checks on one simulation result. Measured instructions must be
 * the trace length minus the warmup window, up to the commit-width
 * overshoot at the warmup boundary; every stage's CPI stack must sum to
 * the CPI and the FLOPS stack to peak FLOPS. Returns "" when all hold.
 */
std::string checkResult(const stackscope::sim::SimResult &r,
                        const stackscope::sim::MachineConfig &machine,
                        std::uint64_t trace_instrs, std::uint64_t warmup);
std::string checkResult(const stackscope::sim::MulticoreResult &r,
                        const stackscope::sim::MachineConfig &machine,
                        std::uint64_t trace_instrs, std::uint64_t warmup);

/** Peak resident set of this process, MB. */
double selfPeakRssMb();
/** Peak resident set (VmHWM) of process @p pid, MB; 0 if unreadable. */
double processPeakRssMb(pid_t pid);
/** Sample this process's thread count; returns the peak seen so far. */
unsigned notePeakThreads();
/** One-minute load average, or -1 when unreadable. */
double loadAverage1();

/**
 * Run fn(i) for i in [0, n) on @p threads threads pulling indices from a
 * shared counter, and return the sum over calls of each call's duration
 * (thread-seconds spent inside fn).
 */
double parallelTimed(std::size_t n, unsigned threads,
                     const std::function<void(std::size_t)> &fn);

/**
 * Median wall time of @p repeats set-ups (the setup_s metric). Before
 * each, @p teardown releases the previous set-up, outside the timing.
 */
double medianSetup(unsigned repeats, const std::function<void()> &teardown,
                   const std::function<void()> &setup);

RunResult runFig2Grid(const RunConfig &cfg);
RunResult runHpcSocket(const RunConfig &cfg);
RunResult runServeMix(const RunConfig &cfg);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
