/**
 * @file
 * perfbench: the repository benchmark (see perfbench/README.md).
 *
 *   perfbench --workload fig2-grid|hpc-socket|serve-mix --seed N
 *             --seconds S --trace 0|1 [--corrupt stack|report]
 *             [--calibrate 1]
 *
 * Prints the host context, every metric with its unit, the workload's
 * sim_digest and, as the last line, one JSON object with "correct",
 * "attempted", "failed" and "metrics". Exits 1 when an output check
 * failed, 2 on a usage error or an unoptimized build.
 */

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "runner/thread_pool.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig2-grid|hpc-socket|serve-mix --seed N --seconds S "
                 "--trace 0|1 [--corrupt stack|report] [--calibrate 1]\n",
                 why.c_str());
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                cfg.workload = value;
            else if (arg == "--seed")
                cfg.seed = std::stoull(value);
            else if (arg == "--seconds")
                cfg.seconds = std::stod(value);
            else if (arg == "--trace")
                cfg.trace = std::stoi(value) != 0;
            else if (arg == "--corrupt")
                cfg.corrupt = value;
            else if (arg == "--calibrate")
                cfg.calibrate = std::stoi(value) != 0;
            else
                usage("unknown option " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (cfg.workload != "fig2-grid" && cfg.workload != "hpc-socket" &&
        cfg.workload != "serve-mix")
        usage("unknown workload '" + cfg.workload + "'");
    if (!(cfg.seconds > 0.0))
        usage("--seconds must be positive");
    const std::string corruptible =
        cfg.workload == "serve-mix" ? "report" : "stack";
    if (!cfg.corrupt.empty() && cfg.corrupt != corruptible)
        usage(cfg.workload + " can only corrupt a " + corruptible);
    if (cfg.calibrate && cfg.workload != "serve-mix")
        usage("--calibrate applies to serve-mix only");
    cfg.nproc = stackscope::runner::ThreadPool::hardwareThreads();
    return cfg;
}

/** JSON number with every digit of the double. */
std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int
main(int argc, char **argv)
{
    const RunConfig cfg = parseArgs(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report numbers from an "
                         "unoptimized build (" PERFBENCH_BUILD_TYPE ")\n");
    return 2;
#endif
    ::mkdir(".bench_work", 0755);
    const double load_at_start = loadAverage1();
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0);
    std::fflush(stdout);

    RunResult r;
    try {
        r = cfg.workload == "fig2-grid"    ? runFig2Grid(cfg)
            : cfg.workload == "hpc-socket" ? runHpcSocket(cfg)
                                           : runServeMix(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), e.what());
        return 1;
    }

    bool finite = true;
    for (const Metric &m : r.metrics)
        finite = finite && std::isfinite(m.value);
    if (!finite)
        r.fail("a metric is not a finite number");
    const bool correct = r.failed == 0 && r.attempted > 0;

    std::printf("host nproc=%u build_type=%s optimized=1 loadavg_start=%.2f "
                "peak_threads=%u peak_connections=%u\n",
                cfg.nproc, PERFBENCH_BUILD_TYPE, load_at_start,
                r.peak_threads, r.peak_connections);
    for (const Metric &m : r.metrics)
        std::printf("metric %-34s %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    std::printf("ops attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::printf("sim_digest %s %s\n", cfg.workload.c_str(),
                r.sim_digest.c_str());
    for (std::size_t i = 0; i < r.check_failures.size() && i < 10; ++i)
        std::fprintf(stderr, "check failed: %s\n", r.check_failures[i].c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
