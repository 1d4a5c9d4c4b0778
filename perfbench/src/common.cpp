#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "stacks/components.hpp"

namespace perfbench {

using namespace stackscope;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

void
RunResult::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
RunResult::fail(std::string why)
{
    ++failed;
    check_failures.push_back(std::move(why));
}

void
addEndToEnd(RunResult &out, const EndToEnd &e)
{
    out.add("setup_s", e.setup_s, "s");
    out.add("throughput_kips", e.throughput_kips, "kinstr/s");
    out.add("peak_rss_mb", e.peak_rss_mb, "MB");
    out.add("goodput_rps", e.goodput_rps, "1/s");
    out.add("p50_ms", e.p50_ms, "ms");
    out.add("p90_ms", e.p90_ms, "ms");
    out.add("cold_p50_ms", e.cold_p50_ms, "ms");
    out.add("cold_p90_ms", e.cold_p90_ms, "ms");
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

}  // namespace

void
addLayers(RunResult &out, const Layers &l)
{
    const double accounting_s = l.stacks_simulate_s - l.stacks_simulate_noacct_s;
    const double sim_total_s = l.sim_warmup_s + l.sim_measure_s + l.sim_report_s;
    out.add("trace.gen_s", l.trace_gen_s, "s");
    out.add("trace.build_s", l.trace_build_s, "s");
    out.add("core.engine_s", l.core_engine_s, "s");
    out.add("core.host_ns_per_cycle",
            ratio(l.core_engine_s * 1e9, l.core_sim_cycles), "ns");
    out.add("core.sim_cycles", l.core_sim_cycles, "count");
    out.add("core.sim_instrs", l.core_sim_instrs, "count");
    out.add("stacks.simulate_s", l.stacks_simulate_s, "s");
    out.add("stacks.accounting_s", accounting_s, "s");
    out.add("stacks.accounting_share", ratio(accounting_s, l.stacks_simulate_s),
            "ratio");
    out.add("sim.warmup_s", l.sim_warmup_s, "s");
    out.add("sim.measure_s", l.sim_measure_s, "s");
    out.add("sim.report_s", l.sim_report_s, "s");
    out.add("sim.warmup_share", ratio(l.sim_warmup_s, sim_total_s), "ratio");
    out.add("runner.batch_s", l.runner_batch_s, "s");
    out.add("runner.threads", l.runner_threads, "count");
    out.add("runner.window_s", l.runner_window_s, "s");
    out.add("runner.busy_share",
            l.runner_window_s > 0.0
                ? 1.0 - ratio(l.runner_idle_s,
                              l.runner_threads * l.runner_window_s)
                : 0.0,
            "ratio");
    out.add("runner.steals", l.runner_steals, "count");
    out.add("runner.tail_s", l.runner_tail_s, "s");
    out.add("obs.reports", l.obs_reports, "count");
    out.add("obs.report_s", l.obs_report_s, "s");
    out.add("obs.report_bytes", l.obs_report_bytes, "bytes");
    out.add("serve.ping_rtt_us", l.serve_ping_rtt_us, "us");
    out.add("serve.parse_us", l.serve_parse_us, "us");
    out.add("serve.hash_us", l.serve_hash_us, "us");
    out.add("serve.cache_lookup_us", l.serve_cache_lookup_us, "us");
    out.add("serve.span_accept_us", l.span_accept_us, "us");
    out.add("serve.span_parse_us", l.span_parse_us, "us");
    out.add("serve.span_cache_lookup_us", l.span_cache_lookup_us, "us");
    out.add("serve.span_write_us", l.span_write_us, "us");
    out.add("serve.span_queue_wait_ms", l.span_queue_wait_ms, "ms");
    out.add("serve.span_simulate_ms", l.span_simulate_ms, "ms");
    out.add("serve.span_serialize_ms", l.span_serialize_ms, "ms");
    out.add("serve.span_singleflight_wait_ms", l.span_singleflight_wait_ms,
            "ms");
    out.add("serve.analyze_requests", l.serve_analyze_requests, "count");
    out.add("serve.hit_ratio", ratio(l.serve_hits, l.serve_analyze_requests),
            "ratio");
    out.add("serve.coalesced", l.serve_coalesced, "count");
    out.add("serve.hit_p50_ms", l.serve_hit_p50_ms, "ms");
    out.add("serve.hit_p99_ms", l.serve_hit_p99_ms, "ms");
    out.add("serve.gen_lag_ms", l.serve_gen_lag_ms, "ms");
    out.add("overhead.untraced_p50_ms", l.untraced.p50_ms, "ms");
    out.add("overhead.p50_ms", l.traced.p50_ms - l.untraced.p50_ms, "ms");
    out.add("overhead.untraced_throughput_kips", l.untraced.throughput_kips,
            "kinstr/s");
    out.add("overhead.throughput_kips",
            l.traced.throughput_kips - l.untraced.throughput_kips, "kinstr/s");
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Digest::add(std::string_view bytes)
{
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::uint64_t value)
{
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    add(std::string_view(bytes, sizeof bytes));
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
Digest::add(const sim::SimResult &r)
{
    add(static_cast<std::uint64_t>(r.cycles));
    add(r.instrs);
    for (const stacks::CpiStack &stack : r.cycle_stacks)
        stack.forEach([&](stacks::CpiComponent, double v) { add(v); });
    r.flops_cycles.forEach([&](stacks::FlopsComponent, double v) { add(v); });
}

void
Digest::add(const sim::MulticoreResult &r)
{
    for (const sim::SimResult &core : r.per_core)
        add(core);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

namespace {

bool
close(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::string
checkResult(const sim::SimResult &r, const sim::MachineConfig &machine,
            std::uint64_t trace_instrs, std::uint64_t warmup)
{
    const std::uint64_t expected = trace_instrs - warmup;
    if (r.instrs > expected ||
        expected - r.instrs >= machine.core.commit_width)
        return "committed " + std::to_string(r.instrs) + " of " +
               std::to_string(expected) + " measured instructions";
    for (std::size_t s = 0; s < stacks::kNumStages; ++s) {
        if (!close(r.cpi_stacks[s].sum(), r.cpi))
            return "stage " + std::to_string(s) + " CPI stack sums to " +
                   std::to_string(r.cpi_stacks[s].sum()) + ", CPI is " +
                   std::to_string(r.cpi);
    }
    if (!close(r.flopsStack().sum() / r.core_peak_flops, 1.0))
        return "FLOPS stack sums to " + std::to_string(r.flopsStack().sum()) +
               ", peak is " + std::to_string(r.core_peak_flops);
    return "";
}

std::string
checkResult(const sim::MulticoreResult &r, const sim::MachineConfig &machine,
            std::uint64_t trace_instrs, std::uint64_t warmup)
{
    for (std::size_t i = 0; i < r.per_core.size(); ++i) {
        const std::string why =
            checkResult(r.per_core[i], machine, trace_instrs, warmup);
        if (!why.empty())
            return "core " + std::to_string(i) + ": " + why;
    }
    for (std::size_t s = 0; s < stacks::kNumStages; ++s) {
        if (!close(r.avg_cpi_stacks[s].sum(), r.avg_cpi))
            return "socket stage " + std::to_string(s) +
                   " CPI stack does not sum to the average CPI";
    }
    if (!close(r.socketFlopsStack().sum() / r.socket_peak_flops, 1.0))
        return "socket FLOPS stack does not sum to socket peak";
    return "";
}

double
selfPeakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/** Value of a "Key:   N kB"-style line of /proc/<pid>/status, or 0. */
double
procStatusField(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            std::istringstream fields(line.substr(key.size()));
            double value = 0.0;
            fields >> value;
            return value;
        }
    }
    return 0.0;
}

}  // namespace

double
processPeakRssMb(pid_t pid)
{
    return procStatusField("/proc/" + std::to_string(pid) + "/status",
                           "VmHWM:") /
           1024.0;
}

unsigned
notePeakThreads()
{
    static std::atomic<unsigned> peak{0};
    const auto now = static_cast<unsigned>(
        procStatusField("/proc/self/status", "Threads:"));
    unsigned seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    return std::max(seen, now);
}

double
loadAverage1()
{
    std::ifstream in("/proc/loadavg");
    double load = -1.0;
    in >> load;
    return load;
}

double
parallelTimed(std::size_t n, unsigned threads,
              const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<double> busy(threads, 0.0);
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                for (std::size_t i = next++; i < n; i = next++) {
                    const auto start = Clock::now();
                    fn(i);
                    busy[t] += secondsSince(start);
                }
            } catch (...) {
                errors[t] = std::current_exception();
                next = n;
            }
        });
    }
    notePeakThreads();
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    double total = 0.0;
    for (const double b : busy)
        total += b;
    return total;
}

double
medianSetup(unsigned repeats, const std::function<void()> &teardown,
            const std::function<void()> &setup)
{
    std::vector<double> times;
    for (unsigned i = 0; i < repeats; ++i) {
        teardown();
        const auto start = Clock::now();
        setup();
        times.push_back(secondsSince(start));
    }
    return median(times);
}

}  // namespace perfbench
