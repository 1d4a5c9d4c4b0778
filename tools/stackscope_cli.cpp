/**
 * @file
 * The stackscope command-line tool: run any workload on any machine and
 * print (or export) multi-stage CPI stacks, FLOPS stacks, idealization
 * bounds and speculation-mode comparisons without writing C++.
 *
 * Subcommands:
 *   list                     enumerate workloads, machines and HPC kernels
 *   run     [options]        single- or multi-core run with all stacks
 *   bounds  [options]        multi-stage bounds vs measured idealizations
 *   hpc     [options]        FLOPS stack analysis of a DeepBench kernel
 *   compare-spec [options]   oracle / simple / spec-counter stacks
 *   sweep   [options]        workload x machine x cores grid, CSV output
 *   phases  [options]        interval stack time-series heatmaps
 *   diff-report A B          compare two run reports as a regression gate
 *   serve   [options]        resident analysis daemon with a result cache
 *                            (wire protocol in docs/serving.md)
 *
 * Common options:
 *   --workload NAME     workload preset (default mcf)
 *   --kernel NAME       HPC kernel (hpc subcommand; default conv_fwd_0)
 *   --machine NAME      bdw | knl | skx (default bdw)
 *   --instrs N          measured instructions (default 250000, must be > 0)
 *   --warmup N          warmup instructions (default instrs/2)
 *   --cores N[,N...]    cores sharing an uncore (default 1, must be > 0;
 *                       a comma list spans the grid's cores axis in sweep)
 *   --threads N         batch-simulation worker threads (0 = all hardware
 *                       threads; bounds, compare-spec and sweep)
 *   --workloads A,B,..  sweep workload axis (default mcf,gcc,bwaves)
 *   --machines A,B,..   sweep machine axis (default bdw,knl,skx)
 *   --csv               machine-readable output
 *   --engine E          batched (default) | reference accounting engine
 *                       (docs/performance.md)
 *   --validate MODE     off | warn | strict runtime invariant checking
 *   --inject-fault F    deterministic fault KIND[:SEED] (see usage)
 *   --watchdog-cycles N abort after N cycles without a commit (0 = off)
 *   --job-cycles N      per-job simulated-cycle budget (0 = off); a job
 *                       exceeding it fails with a watchdog error
 *   --job-timeout SECS  per-job wall-clock deadline (0 = off)
 *   --intervals N       snapshot stacks every N measured cycles
 *                       (phases defaults to 1000; 0 disables)
 *   --trace-out FILE    write a Chrome trace-event JSON pipeline trace
 *                       (run, hpc and phases)
 *   --report-out FILE   write the machine-readable JSON run report
 *                       (schema in docs/formats.md)
 *   --no-host-metrics   omit the host_metrics section from the report
 *                       (host_metrics: null), making the report fully
 *                       deterministic — what the serve cache's
 *                       byte-identity guarantee compares against
 *   --perfect-icache --perfect-dcache --perfect-bpred --ideal-alu
 *
 * serve options (docs/serving.md):
 *   --socket PATH       Unix-domain socket to listen on
 *   --tcp PORT          loopback HTTP/1.1 port (0 = ephemeral)
 *   --cache-mb N        result-cache byte budget in MiB (default 64)
 *   --heartbeat-ms N    progress-frame period (default 500)
 *   --drain-timeout SECS  shutdown grace period (default 30)
 *   --slow-ms MS        warn-log the full span breakdown for requests
 *                       slower than MS wall milliseconds (0 = off)
 *   --slo-ms MS         rolling-window latency objective surfaced in
 *                       /statusz "slo" (default 50)
 *   --trace-capacity N  finished traces kept for GET /tracez
 *                       (default 256)
 *
 * sweep resilience options (docs/formats.md, docs/exit_codes.md):
 *   --max-retries N     retry a retryably-failing job up to N times
 *   --retry-backoff-ms N  first-retry backoff delay (doubles per retry)
 *   --keep-going        quarantine failed jobs, finish the rest, exit 5
 *   --fault-job SUBSTR  inject the fault only into grid points whose
 *                       label contains SUBSTR
 *   --journal FILE      record completed points to a crash-safe journal
 *   --resume FILE       resume a sweep: replay journaled points
 *                       byte-for-byte, simulate only what is missing
 *
 * diff-report options:
 *   --tol-abs X         absolute stack-delta tolerance (default 1e-6)
 *   --tol-rel X         relative stack-delta tolerance (default 0.01)
 *   --watch M[:ABS[:REL]]  gate on host metric M too (repeatable)
 *
 * Environment: STACKSCOPE_LOG=trace|debug|info|warn|error|off (default
 * warn), STACKSCOPE_LOG_JSON=1 for JSON-lines records, and
 * STACKSCOPE_PROGRESS=0|1 to override the isatty(stderr) heartbeat
 * default (docs/observability.md).
 *
 * Exit codes (full contract in docs/exit_codes.md): 0 success,
 * 1 runtime/internal failure, 2 usage or configuration error,
 * 3 validation or watchdog failure, 4 diff-report regression,
 * 5 partial batch success (--keep-going), 6 total batch failure,
 * 7 serve bind failure (port/socket in use), 8 serve drain timeout.
 */

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/csv.hpp"
#include "analysis/render.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/report_diff.hpp"
#include "obs/trace_events.hpp"
#include "runner/batch_runner.hpp"
#include "runner/heartbeat.hpp"
#include "runner/job_spec.hpp"
#include "runner/journal.hpp"
#include "serve/server.hpp"
#include "sim/multicore.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "trace/hpc_kernels.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace {

using namespace stackscope;
using stacks::CpiComponent;
using stacks::Stage;

struct CliOptions
{
    std::string command = "help";
    std::string workload = "mcf";
    std::string kernel = "conv_fwd_0";
    std::string machine = "bdw";
    std::uint64_t instrs = 250'000;
    /** Unset means the documented default of instrs / 2. */
    std::optional<std::uint64_t> warmup{};
    unsigned cores = 1;
    /** The sweep grid's cores axis; non-sweep commands require size 1. */
    std::vector<unsigned> cores_list = {1};
    /** Batch-runner worker threads; 0 = all hardware threads. */
    unsigned threads = 0;
    /** Sweep axes. */
    std::vector<std::string> workloads = {"mcf", "gcc", "bwaves"};
    std::vector<std::string> machines = {"bdw", "knl", "skx"};
    bool csv = false;
    /** Accounting engine: per-cycle reference instead of batched. */
    bool reference_engine = false;
    sim::Idealization ideal{};
    validate::ValidationPolicy validation = validate::ValidationPolicy::kOff;
    std::optional<validate::FaultSpec> fault{};
    std::optional<Cycle> watchdog_cycles{};
    /** Per-job simulated-cycle budget; 0 = off. */
    Cycle job_cycles = 0;
    /** Per-job wall-clock deadline in seconds; 0 = off. */
    double job_timeout = 0.0;
    /** Sweep resilience: bounded retries, quarantine, journaling. */
    unsigned max_retries = 0;
    std::optional<std::uint64_t> retry_backoff_ms{};
    bool keep_going = false;
    /** Restrict --inject-fault to labels containing this substring. */
    std::string fault_job;
    std::string journal_path;
    std::string resume_path;
    /** Unset means command default: 1000 for phases, off elsewhere. */
    std::optional<Cycle> intervals{};
    std::string trace_out;
    std::string report_out;
    /** Omit host_metrics from reports, keeping them byte-deterministic. */
    bool no_host_metrics = false;
    /** serve: Unix-domain socket path (empty = no UDS listener). */
    std::string serve_socket;
    /** serve: loopback HTTP port (-1 = no TCP, 0 = ephemeral). */
    int serve_tcp = -1;
    /** serve: result-cache budget in MiB. */
    std::uint64_t cache_mb = 64;
    /** serve: progress-frame period. */
    std::uint64_t heartbeat_ms = 500;
    /** serve: shutdown grace period in seconds. */
    double drain_timeout = 30.0;
    /** serve: warn-log span breakdown above this wall time (0 = off). */
    double slow_ms = 0.0;
    /** serve: rolling-window latency objective for /statusz "slo". */
    double slo_ms = 50.0;
    /** serve: finished traces retained for GET /tracez. */
    std::uint64_t trace_capacity = 256;
    /** diff-report: the two report paths. */
    std::vector<std::string> positionals;
    obs::DiffTolerance diff_tol{};
    std::vector<obs::WatchSpec> watches;

    std::uint64_t warmupInstrs() const { return warmup.value_or(instrs / 2); }
    std::uint64_t totalInstrs() const { return instrs + warmupInstrs(); }
};

constexpr const char *kCommands =
    "list|run|bounds|hpc|compare-spec|sweep|phases|diff-report|serve|help";

/** Split "a,b,c" into its non-empty elements. */
std::vector<std::string>
splitList(const std::string &flag, const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item =
            text.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "value for " + flag +
                                  " must be a non-empty comma list, got '" +
                                  text + "'");
    }
    return out;
}

int
usage(std::FILE *to, const char *argv0)
{
    std::string faults;
    for (std::string_view f : validate::allFaultNames()) {
        if (!faults.empty())
            faults += "|";
        faults += f;
    }
    std::fprintf(
        to,
        "usage: %s <%s> [options]\n"
        "  --workload NAME  --kernel NAME  --machine bdw|knl|skx\n"
        "  --instrs N  --warmup N  --cores N[,N...]  --csv\n"
        "  --threads N (batch workers; 0 = all hardware threads)\n"
        "  --workloads A,B,...  --machines A,B,...  (sweep grid axes)\n"
        "  --engine batched|reference (accounting engine)\n"
        "  --validate off|warn|strict  --watchdog-cycles N\n"
        "  --job-cycles N (per-job cycle budget)  --job-timeout SECS\n"
        "  --intervals N  --trace-out FILE  --report-out FILE\n"
        "  --inject-fault KIND[:SEED] with KIND one of\n"
        "      %s\n"
        "  --perfect-icache --perfect-dcache --perfect-bpred --ideal-alu\n"
        "  sweep resilience: --max-retries N  --retry-backoff-ms N\n"
        "      --keep-going (exit 5 on partial success, 6 on total\n"
        "      failure)  --fault-job SUBSTR  --journal FILE\n"
        "      --resume FILE  (see docs/exit_codes.md)\n"
        "  diff-report A B [--tol-abs X] [--tol-rel X]\n"
        "      [--watch METRIC[:ABS[:REL]]]   (exit 4 on regression)\n"
        "  --no-host-metrics (deterministic reports: host_metrics null)\n"
        "  serve --socket PATH and/or --tcp PORT [--cache-mb N]\n"
        "      [--heartbeat-ms N] [--drain-timeout SECS] [--slow-ms MS]\n"
        "      [--slo-ms MS] [--trace-capacity N]\n"
        "      (protocol in docs/serving.md; exit 7 bind failure,\n"
        "      8 drain timeout)\n",
        argv0, kCommands, faults.c_str());
    return to == stdout ? 0 : 2;
}

/** Parse a non-negative integer option value strictly. */
std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t min_value)
{
    std::uint64_t out = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    if (ec != std::errc{} || end != text.data() + text.size()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "value for " + flag +
                                  " must be a non-negative integer, got '" +
                                  text + "'");
    }
    if (out < min_value) {
        throw StackscopeError(ErrorCategory::kUsage,
                              flag + " must be >= " +
                                  std::to_string(min_value) + ", got " +
                                  text);
    }
    return out;
}

/** Parse a non-negative real option value strictly. */
double
parseReal(const std::string &flag, const std::string &text)
{
    try {
        std::size_t end = 0;
        const double out = std::stod(text, &end);
        if (end == text.size() && out >= 0.0)
            return out;
    } catch (const std::exception &) {
        // fall through to the uniform error below
    }
    throw StackscopeError(ErrorCategory::kUsage,
                          "value for " + flag +
                              " must be a non-negative number, got '" +
                              text + "'");
}

/** Parse --watch METRIC[:ABS[:REL]] with @p defaults for omitted parts. */
obs::WatchSpec
parseWatch(const std::string &text, const obs::DiffTolerance &defaults)
{
    obs::WatchSpec spec;
    spec.tol = defaults;
    const std::size_t c1 = text.find(':');
    spec.metric = text.substr(0, c1);
    if (spec.metric.empty()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--watch needs METRIC[:ABS[:REL]], got '" +
                                  text + "'");
    }
    if (c1 == std::string::npos)
        return spec;
    const std::size_t c2 = text.find(':', c1 + 1);
    spec.tol.abs = parseReal(
        "--watch", text.substr(c1 + 1, c2 == std::string::npos
                                           ? std::string::npos
                                           : c2 - c1 - 1));
    if (c2 != std::string::npos)
        spec.tol.rel = parseReal("--watch", text.substr(c2 + 1));
    return spec;
}

/**
 * Parse the command line into @p opt; throws StackscopeError (category
 * kUsage) on unknown commands or options, missing values, and malformed
 * numbers. Both "--opt value" and "--opt=value" are accepted.
 */
void
parseArgs(int argc, char **argv, CliOptions &opt)
{
    if (argc < 2) {
        throw StackscopeError(ErrorCategory::kUsage,
                              std::string("missing command (expected ") +
                                  kCommands + ")");
    }
    opt.command = argv[1];
    const bool known_command =
        opt.command == "list" || opt.command == "run" ||
        opt.command == "bounds" || opt.command == "hpc" ||
        opt.command == "compare-spec" || opt.command == "sweep" ||
        opt.command == "phases" || opt.command == "diff-report" ||
        opt.command == "serve" || opt.command == "help";
    if (!known_command) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "unknown command '" + opt.command +
                                  "' (expected " + kCommands + ")");
    }

    std::vector<std::string> watch_raw;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (opt.command == "diff-report") {
                opt.positionals.push_back(std::move(arg));
                continue;
            }
            throw StackscopeError(ErrorCategory::kUsage,
                                  "unexpected argument '" + arg + "'");
        }
        std::optional<std::string> inline_value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
            inline_value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        }
        auto value = [&]() -> std::string {
            if (inline_value)
                return *inline_value;
            if (i + 1 >= argc) {
                throw StackscopeError(ErrorCategory::kUsage,
                                      "missing value for " + arg);
            }
            return argv[++i];
        };
        auto flagOnly = [&]() {
            if (inline_value) {
                throw StackscopeError(ErrorCategory::kUsage,
                                      arg + " takes no value");
            }
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--kernel") {
            opt.kernel = value();
        } else if (arg == "--machine") {
            opt.machine = value();
        } else if (arg == "--instrs") {
            opt.instrs = parseCount(arg, value(), 1);
        } else if (arg == "--warmup") {
            opt.warmup = parseCount(arg, value(), 0);
        } else if (arg == "--cores") {
            // A comma list spans the sweep grid's cores axis; every other
            // command takes exactly one value.
            opt.cores_list.clear();
            for (const std::string &c : splitList(arg, value())) {
                opt.cores_list.push_back(
                    static_cast<unsigned>(parseCount(arg, c, 1)));
            }
            if (opt.command != "sweep" && opt.cores_list.size() != 1) {
                throw StackscopeError(ErrorCategory::kUsage,
                                      "--cores accepts a comma list only "
                                      "with the sweep command");
            }
            opt.cores = opt.cores_list.front();
        } else if (arg == "--threads") {
            opt.threads =
                static_cast<unsigned>(parseCount(arg, value(), 0));
        } else if (arg == "--workloads") {
            opt.workloads = splitList(arg, value());
        } else if (arg == "--machines") {
            opt.machines = splitList(arg, value());
        } else if (arg == "--engine") {
            const std::string engine = value();
            if (engine == "reference") {
                opt.reference_engine = true;
            } else if (engine == "batched") {
                opt.reference_engine = false;
            } else {
                throw StackscopeError(ErrorCategory::kUsage,
                                      "bad --engine '" + engine +
                                          "' (expected batched or "
                                          "reference)");
            }
        } else if (arg == "--validate") {
            const std::string mode = value();
            const auto policy = validate::parsePolicy(mode);
            if (!policy) {
                throw StackscopeError(ErrorCategory::kUsage,
                                      "bad --validate mode '" + mode +
                                          "' (expected off, warn or "
                                          "strict)");
            }
            opt.validation = *policy;
        } else if (arg == "--inject-fault") {
            opt.fault = validate::parseFaultSpec(value()).value();
        } else if (arg == "--watchdog-cycles") {
            opt.watchdog_cycles = parseCount(arg, value(), 0);
        } else if (arg == "--job-cycles") {
            opt.job_cycles = parseCount(arg, value(), 0);
        } else if (arg == "--job-timeout") {
            opt.job_timeout = parseReal(arg, value());
        } else if (arg == "--max-retries") {
            opt.max_retries =
                static_cast<unsigned>(parseCount(arg, value(), 0));
        } else if (arg == "--retry-backoff-ms") {
            opt.retry_backoff_ms = parseCount(arg, value(), 0);
        } else if (arg == "--keep-going") {
            flagOnly();
            opt.keep_going = true;
        } else if (arg == "--fault-job") {
            opt.fault_job = value();
        } else if (arg == "--journal") {
            opt.journal_path = value();
        } else if (arg == "--resume") {
            opt.resume_path = value();
        } else if (arg == "--intervals") {
            opt.intervals = parseCount(arg, value(), 0);
        } else if (arg == "--trace-out") {
            opt.trace_out = value();
        } else if (arg == "--report-out") {
            opt.report_out = value();
        } else if (arg == "--no-host-metrics") {
            flagOnly();
            opt.no_host_metrics = true;
        } else if (arg == "--socket") {
            opt.serve_socket = value();
        } else if (arg == "--tcp") {
            opt.serve_tcp =
                static_cast<int>(parseCount(arg, value(), 0));
            if (opt.serve_tcp > 65535) {
                throw StackscopeError(ErrorCategory::kUsage,
                                      "--tcp port must be <= 65535");
            }
        } else if (arg == "--cache-mb") {
            opt.cache_mb = parseCount(arg, value(), 1);
        } else if (arg == "--heartbeat-ms") {
            opt.heartbeat_ms = parseCount(arg, value(), 1);
        } else if (arg == "--drain-timeout") {
            opt.drain_timeout = parseReal(arg, value());
        } else if (arg == "--slow-ms") {
            opt.slow_ms = parseReal(arg, value());
        } else if (arg == "--slo-ms") {
            opt.slo_ms = parseReal(arg, value());
            if (opt.slo_ms <= 0.0) {
                throw StackscopeError(ErrorCategory::kUsage,
                                      "--slo-ms must be positive");
            }
        } else if (arg == "--trace-capacity") {
            opt.trace_capacity = parseCount(arg, value(), 1);
        } else if (arg == "--tol-abs") {
            opt.diff_tol.abs = parseReal(arg, value());
        } else if (arg == "--tol-rel") {
            opt.diff_tol.rel = parseReal(arg, value());
        } else if (arg == "--watch") {
            watch_raw.push_back(value());
        } else if (arg == "--csv") {
            flagOnly();
            opt.csv = true;
        } else if (arg == "--perfect-icache") {
            flagOnly();
            opt.ideal.perfect_icache = true;
        } else if (arg == "--perfect-dcache") {
            flagOnly();
            opt.ideal.perfect_dcache = true;
        } else if (arg == "--perfect-bpred") {
            flagOnly();
            opt.ideal.perfect_bpred = true;
        } else if (arg == "--ideal-alu") {
            flagOnly();
            opt.ideal.single_cycle_alu = true;
        } else {
            throw StackscopeError(ErrorCategory::kUsage,
                                  "unknown option '" + arg +
                                      "' (see `stackscope help`)");
        }
    }

    // The trace holds warmup plus measured instructions; a sum that
    // wraps would silently simulate a near-empty trace.
    if (opt.warmupInstrs() >
        std::numeric_limits<std::uint64_t>::max() - opt.instrs) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--instrs plus --warmup exceeds 2^64-1 "
                              "instructions");
    }
    // Batch commands run many jobs; a single trace file would be
    // ambiguous, so pipeline tracing is limited to one-run commands.
    if (!opt.trace_out.empty() && opt.command != "run" &&
        opt.command != "hpc" && opt.command != "phases") {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--trace-out is only supported by the run, "
                              "hpc and phases commands");
    }
    // Retry/quarantine/journaling semantics are defined per batch; only
    // the sweep command runs a grid where they make sense.
    if (opt.command != "sweep") {
        if (opt.max_retries != 0 || opt.retry_backoff_ms ||
            opt.keep_going || !opt.fault_job.empty() ||
            !opt.journal_path.empty() || !opt.resume_path.empty()) {
            throw StackscopeError(
                ErrorCategory::kUsage,
                "--max-retries, --retry-backoff-ms, --keep-going, "
                "--fault-job, --journal and --resume are only supported "
                "by the sweep command");
        }
    }
    if (!opt.journal_path.empty() && !opt.resume_path.empty()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--journal starts a fresh journal and "
                              "--resume continues one; pass exactly one");
    }
    if (!opt.fault_job.empty() && !opt.fault) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--fault-job needs --inject-fault");
    }
    if (opt.command != "serve" &&
        (!opt.serve_socket.empty() || opt.serve_tcp >= 0 ||
         opt.slow_ms != 0.0 || opt.slo_ms != 50.0 ||
         opt.trace_capacity != 256)) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "--socket, --tcp, --slow-ms, --slo-ms and "
                              "--trace-capacity are only supported by "
                              "the serve command");
    }
    // Watch specs resolve after the loop so --tol-abs/--tol-rel defaults
    // apply regardless of option order.
    for (const std::string &raw : watch_raw)
        opt.watches.push_back(parseWatch(raw, opt.diff_tol));
    if (opt.command == "diff-report" && opt.positionals.size() != 2) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "diff-report needs exactly two report paths");
    }
}

/**
 * Surface a run's validation outcome: violations are logged at warn level
 * in warn mode (strict throws inside the sim layer before we get here).
 */
void
reportValidation(const validate::ValidationReport &report)
{
    if (!report.passed()) {
        log::warn("validate", report.summary(),
                  {{"violations", report.violations.size()},
                   {"checks_run", report.checks_run}});
    }
}

std::unique_ptr<trace::TraceSource>
makeWorkloadTrace(const CliOptions &opt)
{
    trace::SyntheticParams params =
        trace::findWorkload(opt.workload).params;
    params.num_instrs = opt.totalInstrs();
    return std::make_unique<trace::SyntheticGenerator>(params);
}

sim::SimOptions
simOptions(const CliOptions &opt)
{
    sim::SimOptions so;
    so.warmup_instrs = opt.warmupInstrs();
    so.validation = opt.validation;
    so.fault = opt.fault;
    // Fault injection without an explicit watchdog still gets deadlock
    // protection: a hung-trace fault would otherwise spin forever.
    so.watchdog_cycles =
        opt.watchdog_cycles.value_or(opt.fault ? 200'000 : 0);
    so.deadline_cycles = opt.job_cycles;
    so.job_timeout_seconds = opt.job_timeout;
    // Observability: phases snapshots stacks every 1000 cycles unless
    // overridden; everywhere else intervals are opt-in.
    so.obs.interval_cycles =
        opt.intervals.value_or(opt.command == "phases" ? 1000 : 0);
    so.obs.trace_events = !opt.trace_out.empty();
    so.reference_engine = opt.reference_engine;
    return so;
}

void
maybeWriteReport(const CliOptions &opt, obs::ReportBuilder &report)
{
    if (opt.report_out.empty())
        return;
    // CLI reports carry the process-wide telemetry of the run that
    // produced them (schema v2 "host_metrics") unless the caller asked
    // for a deterministic report — the form the serve cache's
    // byte-identity guarantee is defined against (docs/serving.md).
    if (!opt.no_host_metrics)
        report.setHostMetrics(obs::MetricsRegistry::global().snapshot());
    obs::writeTextFile(opt.report_out, report.json());
    log::info("cli", "wrote run report",
              {{"path", opt.report_out}, {"jobs", report.jobCount()}});
}

void
maybeWriteTrace(const CliOptions &opt, std::vector<obs::EventLog> logs)
{
    if (!opt.trace_out.empty())
        obs::writeTextFile(opt.trace_out, obs::chromeTraceJson(logs));
}

std::vector<obs::EventLog>
eventLogs(const sim::MulticoreResult &r)
{
    std::vector<obs::EventLog> logs;
    logs.reserve(r.per_core.size());
    for (const sim::SimResult &c : r.per_core)
        logs.push_back(c.events);
    return logs;
}

int
cmdList()
{
    std::printf("machines:\n");
    for (const std::string &m : sim::allMachineNames()) {
        const sim::MachineConfig cfg = sim::machineByName(m);
        std::printf("  %-4s %-4s  %u-wide OoO, %u-core socket, %.1f GHz, "
                    "peak %s/socket\n",
                    m.c_str(), cfg.name.c_str(), cfg.core.dispatch_width,
                    cfg.socket_cores, cfg.freq_ghz,
                    analysis::formatFlops(cfg.socketPeakFlops()).c_str());
    }
    std::printf("\nworkloads (SPEC-CPU-2017-inspired):\n");
    for (const trace::Workload &w : trace::allSpecWorkloads())
        std::printf("  %-11s %s\n", w.name.c_str(), w.description.c_str());
    std::printf("\nhpc kernels (DeepBench-inspired):\n");
    for (const trace::HpcBenchmark &bm : trace::deepBenchSuite())
        std::printf("  %-15s (%s)\n", bm.name.c_str(), bm.group.c_str());
    return 0;
}

int
cmdRun(const CliOptions &opt)
{
    const sim::MachineConfig machine =
        sim::applyIdealization(sim::machineByName(opt.machine), opt.ideal);
    auto trace = makeWorkloadTrace(opt);
    const sim::SimOptions so = simOptions(opt);
    obs::ReportBuilder report("run");

    if (opt.cores > 1) {
        const sim::MulticoreResult r =
            sim::simulateMulticore(machine, *trace, opt.cores, so);
        reportValidation(r.validation);
        report.add(opt.workload + "/" + machine.name + "/x" +
                       std::to_string(opt.cores),
                   so, r);
        maybeWriteReport(opt, report);
        maybeWriteTrace(opt, eventLogs(r));
        if (opt.csv) {
            std::printf("%s\n", analysis::cpiStackCsvHeader("stage").c_str());
            for (Stage s :
                 {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
                std::printf("%s\n",
                            analysis::toCsvRow(std::string(toString(s)),
                                               r.cpiStack(s))
                                .c_str());
            }
            return 0;
        }
        std::printf("%s on %s x%u: avg CPI %.3f (IPC %.2f)\n",
                    opt.workload.c_str(), machine.name.c_str(), opt.cores,
                    r.avg_cpi, r.avg_ipc);
        std::printf("%s",
                    analysis::renderCpiStacks(
                        {r.cpiStack(Stage::kDispatch),
                         r.cpiStack(Stage::kIssue),
                         r.cpiStack(Stage::kCommit)},
                        {"dispatch", "issue", "commit"},
                        "  averaged CPI stacks:")
                        .c_str());
        return 0;
    }

    const sim::SimResult r = sim::simulate(machine, *trace, so);
    reportValidation(r.validation);
    report.add(opt.workload + "/" + machine.name, so, r);
    maybeWriteReport(opt, report);
    maybeWriteTrace(opt, {r.events});
    if (opt.csv) {
        std::printf("%s\n", analysis::cpiStackCsvHeader("stage").c_str());
        for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
            std::printf("%s\n",
                        analysis::toCsvRow(std::string(toString(s)),
                                           r.cpiStack(s))
                            .c_str());
        }
        std::printf("%s\n", analysis::flopsStackCsvHeader("stack").c_str());
        std::printf("%s\n",
                    analysis::toCsvRow("flops_cycles", r.flops_cycles)
                        .c_str());
        return 0;
    }
    std::printf("%s",
                analysis::renderMultiStage(r, opt.workload).c_str());
    std::printf("\nbranches %llu (%.2f%% mispredicted), loads %llu "
                "(%.2f%% L1D misses)\n",
                static_cast<unsigned long long>(r.stats.branches),
                r.stats.branches == 0 ? 0.0
                                      : 100.0 * r.stats.branch_mispredicts /
                                            r.stats.branches,
                static_cast<unsigned long long>(r.stats.loads),
                r.stats.loads == 0 ? 0.0
                                   : 100.0 * r.stats.l1d_load_misses /
                                         r.stats.loads);
    return 0;
}

int
cmdBounds(const CliOptions &opt)
{
    const sim::MachineConfig machine = sim::machineByName(opt.machine);
    auto trace = makeWorkloadTrace(opt);
    const sim::SimOptions so = simOptions(opt);

    // The real run and all four idealization pairs execute as one batch.
    runner::BatchRunner batch(opt.threads);
    const std::vector<analysis::IdealizationKnob> knobs =
        analysis::standardKnobs();
    runner::Heartbeat heartbeat("bounds");
    const analysis::IdealizationStudy study = analysis::runIdealizationStudy(
        machine, *trace, knobs, so, batch, &heartbeat);
    heartbeat.finish();
    reportValidation(study.validation);

    obs::ReportBuilder report("bounds");
    report.add(opt.workload + "/" + machine.name + "/real", so, study.real);
    for (const analysis::IdealizationStudy::Entry &e : study.entries)
        report.add(opt.workload + "/" + machine.name + "/" + e.knob.label,
                   so, e.idealized);
    maybeWriteReport(opt, report);

    if (opt.csv) {
        std::printf("component,lo,hi,actual,error\n");
    } else {
        std::printf("%s on %s: CPI %.3f\n  %-8s %9s %9s %9s %9s\n",
                    opt.workload.c_str(), machine.name.c_str(),
                    study.real.cpi, "comp", "lo", "hi", "actual", "error");
    }
    for (const analysis::IdealizationStudy::Entry &e : study.entries) {
        if (opt.csv) {
            std::printf("%s,%.6g,%.6g,%.6g,%.6g\n", e.knob.label.c_str(),
                        e.bounds.lo, e.bounds.hi, e.actual_reduction,
                        e.multi_error);
        } else {
            std::printf("  %-8s %9.3f %9.3f %9.3f %9.3f%s\n",
                        e.knob.label.c_str(), e.bounds.lo, e.bounds.hi,
                        e.actual_reduction, e.multi_error,
                        e.multi_error == 0.0 ? "  (within bounds)" : "");
        }
    }
    return 0;
}

/** One sweep grid point plus its resolved identity. */
struct SweepPoint
{
    std::string workload;
    std::string machine;
    unsigned cores;
    /** Per-point options (--fault-job may strip the fault). */
    sim::SimOptions options;
    std::string label;
    /** Canonical spec hash (runner/job_spec.hpp). */
    std::string hash;
};

/**
 * CSV rows (one per stage, newline-separated, no trailing newline) for
 * one sweep point. Completed points report the component-wise average
 * stacks and the cycle/instr counts of core 0 (threads are homogeneous);
 * failed or skipped points emit all-zero stage rows so the grid shape is
 * preserved. The trailing `status` column is the schema's append-only
 * extension point.
 */
std::string
sweepCsvRows(const SweepPoint &p, const runner::JobOutcome &o)
{
    std::string rows;
    char head[160];
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        const sim::SimResult *rep =
            o.completed()
                ? (o.multi ? &o.multi->per_core.front() : &o.single)
                : nullptr;
        const double cpi =
            o.completed() ? (o.multi ? o.multi->avg_cpi : o.single.cpi)
                          : 0.0;
        const stacks::CpiStack stack =
            o.completed() ? (o.multi ? o.multi->cpiStack(s)
                                     : o.single.cpiStack(s))
                          : stacks::CpiStack{};
        // RFC 4180: name-like fields go through csvField so a workload or
        // machine containing a comma or quote cannot shear the row.
        std::snprintf(head, sizeof(head), ",%u,%llu,%llu,%.6g,", p.cores,
                      static_cast<unsigned long long>(rep ? rep->instrs
                                                          : 0),
                      static_cast<unsigned long long>(rep ? rep->cycles
                                                          : 0),
                      cpi);
        if (!rows.empty())
            rows += '\n';
        rows += analysis::csvField(p.workload);
        rows += ',';
        rows += analysis::csvField(p.machine);
        rows += head;
        rows += analysis::toCsvRow(std::string(toString(s)), stack);
        rows += ',';
        rows += analysis::csvField(runner::toString(o.status));
    }
    return rows;
}

int
cmdSweep(const CliOptions &opt)
{
    const sim::SimOptions base = simOptions(opt);

    // Cartesian workload x machine x cores grid. Each point gets its own
    // options so --fault-job can confine the injected fault to matching
    // labels, and its canonical spec hash — the journal key.
    std::vector<SweepPoint> points;
    for (const std::string &w : opt.workloads) {
        trace::findWorkload(w);  // fail fast on unknown names
        for (const std::string &m : opt.machines) {
            sim::machineByName(m);
            for (unsigned c : opt.cores_list) {
                SweepPoint p;
                p.workload = w;
                p.machine = m;
                p.cores = c;
                p.label = w + "/" + m + "/x" + std::to_string(c);
                p.options = base;
                if (opt.fault && !opt.fault_job.empty() &&
                    p.label.find(opt.fault_job) == std::string::npos)
                    p.options.fault.reset();
                runner::JobSpec spec;
                spec.workload = w;
                spec.machine = m;
                spec.cores = c;
                spec.instrs = opt.totalInstrs();
                spec.options = p.options;
                p.hash = runner::specHash(spec);
                points.push_back(std::move(p));
            }
        }
    }

    // The sweep identity is the hash over its points' hashes, in grid
    // order: a journal binds to one exact grid and option set.
    std::string hashes;
    for (const SweepPoint &p : points)
        hashes += p.hash;
    char sweep_hash[17];
    std::snprintf(sweep_hash, sizeof(sweep_hash), "%016llx",
                  static_cast<unsigned long long>(
                      runner::fnv1a64(hashes)));

    std::optional<runner::SweepJournal> journal;
    if (!opt.resume_path.empty())
        journal.emplace(
            runner::SweepJournal::resume(opt.resume_path, sweep_hash));
    else if (!opt.journal_path.empty())
        journal.emplace(
            runner::SweepJournal::create(opt.journal_path, sweep_hash));
    if (journal && !journal->records().empty()) {
        log::info("cli", "resuming sweep from journal",
                  {{"path", journal->path()},
                   {"completed", journal->records().size()},
                   {"points", points.size()}});
    }

    // Simulate only the points the journal does not already cover.
    std::vector<runner::SimJob> jobs;
    std::vector<std::size_t> job_point;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        if (journal && journal->find(p.hash) != nullptr)
            continue;
        trace::SyntheticParams params =
            trace::findWorkload(p.workload).params;
        params.num_instrs = opt.totalInstrs();
        const trace::SyntheticGenerator gen(params);
        jobs.push_back(runner::makeJob(p.label,
                                       sim::machineByName(p.machine), gen,
                                       p.options, p.cores));
        job_point.push_back(i);
    }

    runner::BatchOptions bopts;
    bopts.keep_going = opt.keep_going;
    bopts.retry.max_retries = opt.max_retries;
    if (opt.retry_backoff_ms)
        bopts.retry.backoff = std::chrono::milliseconds(*opt.retry_backoff_ms);
    if (journal) {
        // Persist each completed point from the worker thread that
        // finished it: after a crash, everything already journaled
        // replays verbatim. Failed points are not journaled — their
        // (deterministic) faults must re-fail, or succeed under new
        // limits, on resume.
        bopts.on_outcome = [&](std::size_t job_index,
                               const runner::JobOutcome &o) {
            if (!o.completed())
                return;
            const SweepPoint &p = points[job_point[job_index]];
            runner::JournalRecord rec;
            rec.spec_hash = p.hash;
            rec.label = o.label;
            rec.status = runner::toString(o.status);
            rec.attempts = o.attempts;
            rec.job_json =
                obs::ReportBuilder::jobJson(o, p.options, p.cores);
            rec.csv = sweepCsvRows(p, o);
            journal->append(rec);
        };
    }

    runner::BatchRunner batch(opt.threads);
    runner::Heartbeat heartbeat("sweep");
    const runner::BatchResult results =
        batch.run(std::move(jobs), &heartbeat, bopts);
    heartbeat.finish();
    reportValidation(results.validation);

    // Merge journaled and fresh outcomes back into grid order. Journaled
    // points splice their stored report fragment and CSV bytes verbatim,
    // so a resumed sweep's outputs are byte-identical to a cold run's.
    std::vector<const runner::JobOutcome *> fresh(points.size(), nullptr);
    for (std::size_t j = 0; j < results.outcomes.size(); ++j)
        fresh[job_point[j]] = &results.outcomes[j];

    obs::ReportBuilder report("sweep");
    std::string csv;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const runner::JournalRecord *rec =
            journal ? journal->find(points[i].hash) : nullptr;
        if (rec != nullptr) {
            report.addRaw(rec->job_json);
            csv += rec->csv;
        } else {
            report.add(*fresh[i], points[i].options, points[i].cores);
            csv += sweepCsvRows(points[i], *fresh[i]);
        }
        csv += '\n';
    }
    maybeWriteReport(opt, report);

    std::printf("workload,machine,cores,instrs,cycles,cpi,%s,status\n",
                analysis::cpiStackCsvHeader("stage").c_str());
    std::fputs(csv.c_str(), stdout);

    // Journaled points completed in a previous run; count them towards
    // the batch verdict (BatchResult::exitCode() only sees this run's).
    const runner::StatusTally tally = results.tally();
    const std::size_t replayed = points.size() - results.outcomes.size();
    const std::size_t completed = tally.completed() + replayed;
    if (tally.failed() + tally.skipped > 0) {
        log::warn("cli", "sweep finished with failures",
                  {{"completed", completed},
                   {"timeout", tally.timeout},
                   {"quarantined", tally.quarantined},
                   {"skipped", tally.skipped}});
    }
    if (completed == points.size())
        return 0;
    return completed == 0 ? kExitTotalFailure : kExitPartialSuccess;
}

int
cmdHpc(const CliOptions &opt)
{
    const sim::MachineConfig machine =
        sim::applyIdealization(sim::machineByName(opt.machine), opt.ideal);
    const trace::HpcBenchmark *bench = nullptr;
    for (const trace::HpcBenchmark &bm : trace::deepBenchSuite()) {
        if (bm.name == opt.kernel)
            bench = &bm;
    }
    if (bench == nullptr) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "unknown kernel '" + opt.kernel +
                                  "' (see `stackscope list`)");
    }
    const trace::HpcTarget target{
        machine.core.flops_vec_lanes,
        opt.machine == "knl" ? trace::SgemmCodegen::kKnlJit
                             : trace::SgemmCodegen::kSkxBroadcast};
    auto trace = bench->make(target, opt.totalInstrs());
    const sim::SimOptions so = simOptions(opt);

    const sim::MulticoreResult r = sim::simulateMulticore(
        machine, *trace, std::max(1u, opt.cores), so);
    reportValidation(r.validation);

    obs::ReportBuilder report("hpc");
    report.add(bench->name + "/" + machine.name + "/x" +
                   std::to_string(std::max(1u, opt.cores)),
               so, r);
    maybeWriteReport(opt, report);
    maybeWriteTrace(opt, eventLogs(r));

    if (opt.csv) {
        std::printf("%s\n", analysis::flopsStackCsvHeader("stack").c_str());
        std::printf("%s\n",
                    analysis::toCsvRow("socket_flops", r.socketFlopsStack())
                        .c_str());
        return 0;
    }
    std::printf("%s on %s: avg IPC %.2f of %u\n", bench->name.c_str(),
                machine.name.c_str(), r.avg_ipc,
                machine.core.effectiveWidth());
    std::printf("%s",
                analysis::renderFlopsStack(r.socketFlopsStack(),
                                           "socket FLOPS stack", "flops/s")
                    .c_str());
    std::printf("achieved %s of %s peak (%.0f%%)\n",
                analysis::formatFlops(r.socket_flops).c_str(),
                analysis::formatFlops(r.socket_peak_flops).c_str(),
                100.0 * r.socket_flops / r.socket_peak_flops);
    return 0;
}

int
cmdCompareSpec(const CliOptions &opt)
{
    const sim::MachineConfig machine = sim::machineByName(opt.machine);
    auto trace = makeWorkloadTrace(opt);

    const struct
    {
        const char *label;
        stacks::SpeculationMode mode;
    } modes[] = {
        {"oracle", stacks::SpeculationMode::kOracle},
        {"simple", stacks::SpeculationMode::kSimple},
        {"spec-counters", stacks::SpeculationMode::kSpecCounters},
    };

    // One job per wrong-path handling strategy, run as a single batch.
    std::vector<runner::SimJob> jobs;
    std::vector<std::string> labels;
    for (const auto &m : modes) {
        sim::SimOptions so = simOptions(opt);
        so.spec_mode = m.mode;
        jobs.push_back(runner::makeJob(m.label, machine, *trace, so));
        labels.push_back(m.label);
    }
    runner::BatchRunner batch(opt.threads);
    runner::Heartbeat heartbeat("compare-spec");
    const runner::BatchResult results =
        batch.run(std::move(jobs), &heartbeat);
    heartbeat.finish();

    obs::ReportBuilder report("compare-spec");
    std::vector<stacks::CpiStack> dispatch_stacks;
    for (std::size_t i = 0; i < results.outcomes.size(); ++i) {
        const runner::JobOutcome &o = results.outcomes[i];
        reportValidation(o.single.validation);
        dispatch_stacks.push_back(o.single.cpiStack(Stage::kDispatch));
        sim::SimOptions so = simOptions(opt);
        so.spec_mode = modes[i].mode;
        report.add(o, so, 1);
    }
    maybeWriteReport(opt, report);
    std::printf("%s on %s: dispatch CPI stack per wrong-path handling "
                "strategy (§III-B)\n",
                opt.workload.c_str(), machine.name.c_str());
    std::printf("%s",
                analysis::renderCpiStacks(dispatch_stacks, labels, "")
                    .c_str());
    return 0;
}

/**
 * Resolve the phases workload name: a workload-library preset first,
 * then an HPC kernel by exact name, then by name/group prefix (so
 * `--workload conv` picks the first conv_* DeepBench kernel).
 */
std::unique_ptr<trace::TraceSource>
makePhasesTrace(const CliOptions &opt, const sim::MachineConfig &machine,
                std::string &label)
{
    try {
        trace::SyntheticParams params =
            trace::findWorkload(opt.workload).params;
        params.num_instrs = opt.totalInstrs();
        label = opt.workload;
        return std::make_unique<trace::SyntheticGenerator>(params);
    } catch (const std::out_of_range &) {
        // Not a workload preset; fall through to the HPC kernel suite.
    }
    const trace::HpcBenchmark *pick = nullptr;
    for (const trace::HpcBenchmark &bm : trace::deepBenchSuite()) {
        if (bm.name == opt.workload) {
            pick = &bm;
            break;
        }
        if (pick == nullptr && (bm.name.rfind(opt.workload, 0) == 0 ||
                                bm.group.rfind(opt.workload, 0) == 0))
            pick = &bm;
    }
    if (pick == nullptr) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "unknown workload or kernel '" + opt.workload +
                                  "' (see `stackscope list`)");
    }
    label = pick->name;
    const trace::HpcTarget target{
        machine.core.flops_vec_lanes,
        opt.machine == "knl" ? trace::SgemmCodegen::kKnlJit
                             : trace::SgemmCodegen::kSkxBroadcast};
    return pick->make(target, opt.totalInstrs());
}

int
cmdPhases(const CliOptions &opt)
{
    const sim::MachineConfig machine =
        sim::applyIdealization(sim::machineByName(opt.machine), opt.ideal);
    std::string label;
    auto trace = makePhasesTrace(opt, machine, label);
    const sim::SimOptions so = simOptions(opt);
    if (so.obs.interval_cycles == 0) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "phases needs --intervals >= 1");
    }

    const sim::SimResult r = sim::simulate(machine, *trace, so);
    reportValidation(r.validation);

    std::printf("%s on %s: %llu instrs, %llu cycles, CPI %.3f (IPC %.2f), "
                "%zu windows of %llu cycles\n",
                label.c_str(), machine.name.c_str(),
                static_cast<unsigned long long>(r.instrs),
                static_cast<unsigned long long>(r.cycles), r.cpi, r.ipc(),
                r.intervals.samples.size(),
                static_cast<unsigned long long>(r.intervals.window));
    for (Stage s : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        std::printf("\n%s",
                    analysis::renderIntervalHeatmap(
                        r.intervals, s,
                        std::string(toString(s)) + " CPI stack over time:")
                        .c_str());
    }
    std::printf("\n%s",
                analysis::renderFlopsIntervalHeatmap(
                    r.intervals, "FLOPS stack over time:")
                    .c_str());

    obs::ReportBuilder report("phases");
    report.add(label + "/" + machine.name, so, r);
    maybeWriteReport(opt, report);
    maybeWriteTrace(opt, {r.events});
    return 0;
}

/** Slurp a report file; kUsage when unreadable. */
std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "cannot open report file")
            .withContext("path", path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "failed reading report file")
            .withContext("path", path);
    }
    return buf.str();
}

/**
 * The daemon's stop hook. A plain pointer written before the signal
 * handlers are installed and cleared after they are restored;
 * requestStop() is async-signal-safe (one pipe write).
 */
serve::Server *g_serve_instance = nullptr;

extern "C" void
handleServeSignal(int)
{
    if (g_serve_instance != nullptr)
        g_serve_instance->requestStop();
}

int
cmdServe(const CliOptions &opt)
{
    serve::ServeOptions so;
    so.socket_path = opt.serve_socket;
    so.tcp_port = opt.serve_tcp;
    so.threads = opt.threads;
    so.cache_bytes = static_cast<std::size_t>(opt.cache_mb) << 20;
    so.heartbeat = std::chrono::milliseconds(opt.heartbeat_ms);
    so.drain_timeout = std::chrono::milliseconds(
        static_cast<std::uint64_t>(opt.drain_timeout * 1000.0));
    so.slow_ms = opt.slow_ms;
    so.slo_ms = opt.slo_ms;
    so.trace_capacity = static_cast<std::size_t>(opt.trace_capacity);
    try {
        serve::Server server(so);
        // A client vanishing mid-response must surface as EPIPE on the
        // write, never as a process-killing SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);
        g_serve_instance = &server;
        std::signal(SIGTERM, handleServeSignal);
        std::signal(SIGINT, handleServeSignal);
        const bool drained = server.run();
        std::signal(SIGTERM, SIG_DFL);
        std::signal(SIGINT, SIG_DFL);
        g_serve_instance = nullptr;
        return drained ? 0 : kExitDrainTimeout;
    } catch (const serve::BindError &e) {
        std::fprintf(stderr, "%s\n", e.describe().c_str());
        return kExitBindFailure;
    }
}

int
cmdDiffReport(const CliOptions &opt)
{
    const obs::JsonValue baseline =
        obs::parseJson(readTextFile(opt.positionals[0]));
    const obs::JsonValue candidate =
        obs::parseJson(readTextFile(opt.positionals[1]));
    const obs::ReportDiff diff = obs::diffReports(
        baseline, candidate, opt.diff_tol, opt.watches);
    std::fputs(obs::renderDiff(diff).c_str(), stdout);
    return diff.regression() ? 4 : 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    log::configureFromEnv();
    CliOptions opt;
    try {
        parseArgs(argc, argv, opt);
        if (opt.command == "help")
            return usage(stdout, argv[0]);
        if (opt.command == "list")
            return cmdList();
        if (opt.command == "run")
            return cmdRun(opt);
        if (opt.command == "bounds")
            return cmdBounds(opt);
        if (opt.command == "hpc")
            return cmdHpc(opt);
        if (opt.command == "sweep")
            return cmdSweep(opt);
        if (opt.command == "phases")
            return cmdPhases(opt);
        if (opt.command == "diff-report")
            return cmdDiffReport(opt);
        if (opt.command == "serve")
            return cmdServe(opt);
        return cmdCompareSpec(opt);
    } catch (const StackscopeError &e) {
        std::fprintf(stderr, "%s\n", e.describe().c_str());
        if (e.category() == ErrorCategory::kUsage)
            usage(stderr, argv[0]);
        return e.exitCode();
    } catch (const std::out_of_range &e) {
        // Unknown workload / machine names from the registries.
        std::fprintf(stderr, "usage error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
