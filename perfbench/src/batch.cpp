/**
 * @file
 * The two batch workloads: fig2-grid (18 SPEC-inspired presets x
 * {bdw, knl, skx}, single-core) and hpc-socket (46 DeepBench-style
 * kernels x {knl, bdw}, 4-core shared-uncore). Both run through
 * runner::BatchRunner with one worker per vCPU, in passes over the whole
 * job set, until the run's time is used up.
 */

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>

#include "common.hpp"
#include "core/ooo_core.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "runner/batch_runner.hpp"
#include "sim/presets.hpp"
#include "trace/hpc_kernels.hpp"
#include "trace/workload_library.hpp"

namespace perfbench {

using namespace stackscope;

namespace {

/** Measured instructions of one fig2-grid job (warmup adds half). */
constexpr std::uint64_t kFig2Measured = 120'000;
/** Measured instructions per core of one hpc-socket job. */
constexpr std::uint64_t kHpcMeasured = 8'000;
constexpr unsigned kHpcCores = 4;
constexpr unsigned kSetupRepeats = 9;

struct JobDef
{
    std::string label;
    sim::MachineConfig machine;
    std::shared_ptr<const trace::TraceSource> trace;
    /** Length of the trace each core runs (warmup + measured). */
    std::uint64_t trace_instrs = 0;
    sim::SimOptions options{};
    unsigned cores = 1;

    std::uint64_t warmup() const { return options.warmup_instrs.value_or(0); }
    std::uint64_t simulatedInstrs() const { return trace_instrs * cores; }
};

struct Inputs
{
    std::vector<JobDef> jobs;
    /** The priming pass: the first job per worker in suite order, so it
     *  does not depend on the seed's job order. */
    std::vector<JobDef> prime;
    /** Thread-seconds spent materializing traces (0 when lazy). */
    double build_s = 0.0;
};

void
keepPrime(Inputs &in, unsigned threads)
{
    in.prime.assign(in.jobs.begin(),
                    in.jobs.begin() + std::min<std::size_t>(threads, in.jobs.size()));
}

Inputs
fig2Inputs(std::uint64_t seed, unsigned threads)
{
    Inputs in;
    const std::uint64_t warmup = kFig2Measured / 2;
    const auto &presets = trace::allSpecWorkloads();
    for (std::size_t w = 0; w < presets.size(); ++w) {
        trace::SyntheticParams params = presets[w].params;
        params.num_instrs = kFig2Measured + warmup;
        params.seed = mixSeed(seed, w);
        auto gen = std::make_shared<const trace::SyntheticGenerator>(params);
        for (const char *machine : {"bdw", "knl", "skx"}) {
            JobDef job;
            job.label = presets[w].name + "/" + machine;
            job.machine = sim::machineByName(machine);
            job.trace = gen;
            job.trace_instrs = params.num_instrs;
            job.options.warmup_instrs = warmup;
            in.jobs.push_back(std::move(job));
        }
    }
    keepPrime(in, threads);
    return in;
}

std::uint64_t
drain(const trace::TraceSource &source)
{
    std::unique_ptr<trace::TraceSource> copy = source.clone();
    trace::DynInstr instr;
    std::uint64_t n = 0;
    while (copy->next(instr))
        ++n;
    return n;
}

Inputs
hpcInputs(std::uint64_t seed, unsigned threads)
{
    const auto &suite = trace::deepBenchSuite();
    const char *machines[] = {"knl", "bdw"};
    const std::uint64_t warmup = kHpcMeasured / 2;
    Inputs in;
    in.jobs.resize(suite.size() * std::size(machines));
    in.build_s = parallelTimed(in.jobs.size(), threads, [&](std::size_t i) {
        const trace::HpcBenchmark &bm = suite[i / std::size(machines)];
        const std::string name = machines[i % std::size(machines)];
        JobDef &job = in.jobs[i];
        job.label = bm.name + "/" + name + "/x" + std::to_string(kHpcCores);
        job.machine = sim::machineByName(name);
        const trace::HpcTarget target{
            job.machine.core.flops_vec_lanes,
            name == "knl" ? trace::SgemmCodegen::kKnlJit
                          : trace::SgemmCodegen::kSkxBroadcast};
        const std::uint64_t length = kHpcMeasured + warmup;
        job.trace = bm.is_sgemm
                        ? trace::makeSgemmTrace(bm.sgemm, target, length)
                        : trace::makeConvTrace(bm.conv, bm.conv_phase, target,
                                               length, mixSeed(seed, i));
        job.trace_instrs = drain(*job.trace);
        job.options.warmup_instrs = warmup;
        job.cores = kHpcCores;
    });
    keepPrime(in, threads);
    std::shuffle(in.jobs.begin(), in.jobs.end(),
                 std::mt19937_64(mixSeed(seed, 0x4a6f62)));
    return in;
}

/** Records each pass's job completion times (worker side). */
class CompletionClock : public runner::ProgressObserver
{
  public:
    void
    startPass()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.clear();
    }

    void
    onJobDone(std::size_t, std::size_t, std::uint64_t, std::uint64_t,
              runner::JobStatus) override
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        done_.push_back(now);
    }

    /** Time from the nproc-th-last completion of this pass to the last. */
    double
    tailSeconds(unsigned threads) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (done_.size() < threads || threads == 0)
            return 0.0;
        return secondsBetween(done_[done_.size() - threads], done_.back());
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Clock::time_point> done_;
};

void
corruptStack(runner::JobOutcome &outcome)
{
    sim::SimResult &r = outcome.multi ? outcome.multi->per_core[0]
                                      : outcome.single;
    r.cpi_stacks[0][stacks::CpiComponent::kBase] += 0.25;
}

/** Digest of one pass, in job order. */
std::string
passDigest(const runner::BatchResult &br)
{
    Digest d;
    for (const runner::JobOutcome &o : br.outcomes) {
        d.add(o.label);
        if (o.multi)
            d.add(*o.multi);
        else
            d.add(o.single);
    }
    return d.hex();
}

/**
 * One timed phase: repeated passes, each one BatchRunner::run over every
 * job. A pass is the batch a user waits for, so the latency metrics of
 * the batch workloads are pass times; rates are medians over passes.
 */
struct Phase
{
    double batch_s = 0.0;
    double tail_s = 0.0;
    std::uint64_t jobs = 0;
    /** Per pass: wall time, simulated kilo-instructions and correct jobs
     *  per second. */
    std::vector<double> pass_ms;
    std::vector<double> pass_kips;
    std::vector<double> pass_jobs_per_s;
    runner::BatchResult last{};

    EndToEnd
    endToEnd(double setup_s) const
    {
        EndToEnd e;
        e.setup_s = setup_s;
        e.throughput_kips = median(pass_kips);
        e.peak_rss_mb = selfPeakRssMb();
        e.goodput_rps = median(pass_jobs_per_s);
        e.p50_ms = e.cold_p50_ms = percentile(pass_ms, 0.5);
        e.p90_ms = e.cold_p90_ms = percentile(pass_ms, 0.9);
        return e;
    }
};

class BatchWorkload
{
  public:
    BatchWorkload(const RunConfig &cfg, bool hpc) : cfg_(cfg), hpc_(hpc) {}

    RunResult run();

  private:
    void setup();
    Phase timedPhase(double seconds, RunResult &out);
    void layerPasses(Layers &layers, const runner::BatchResult &last);

    static std::vector<runner::SimJob>
    makeJobs(const std::vector<JobDef> &defs)
    {
        std::vector<runner::SimJob> jobs;
        for (const JobDef &d : defs) {
            jobs.push_back(runner::makeJob(d.label, d.machine, *d.trace,
                                           d.options, d.cores));
        }
        return jobs;
    }

    const RunConfig &cfg_;
    const bool hpc_;
    Inputs inputs_;
    std::unique_ptr<runner::BatchRunner> runner_;
    CompletionClock clock_;
    std::string digest_;
    bool corrupted_ = false;
};

void
BatchWorkload::setup()
{
    inputs_ = hpc_ ? hpcInputs(cfg_.seed, cfg_.nproc)
                   : fig2Inputs(cfg_.seed, cfg_.nproc);
    runner_ = std::make_unique<runner::BatchRunner>(cfg_.nproc);
    notePeakThreads();
    const runner::BatchResult primed = runner_->run(makeJobs(inputs_.prime));
    if (primed.exitCode() != 0)
        throw StackscopeError(ErrorCategory::kInternal, "priming pass failed");
}

Phase
BatchWorkload::timedPhase(double seconds, RunResult &out)
{
    Phase ph;
    runner::BatchOptions options;
    options.keep_going = true;
    const auto start = Clock::now();
    do {
        clock_.startPass();
        const auto pass_start = Clock::now();
        runner::BatchResult br =
            runner_->run(makeJobs(inputs_.jobs), &clock_, options);
        const double pass_s = secondsSince(pass_start);
        ph.batch_s += pass_s;
        ph.tail_s += clock_.tailSeconds(cfg_.nproc);
        std::uint64_t good = 0;
        std::uint64_t instrs = 0;
        if (cfg_.corrupt == "stack" && !corrupted_) {
            corruptStack(br.outcomes.front());
            corrupted_ = true;
        }
        for (std::size_t i = 0; i < br.outcomes.size(); ++i) {
            const runner::JobOutcome &o = br.outcomes[i];
            const JobDef &d = inputs_.jobs[i];
            ++ph.jobs;
            std::string why = !o.completed() ? "did not complete: " + o.error
                              : o.multi ? checkResult(*o.multi, d.machine,
                                                      d.trace_instrs, d.warmup())
                                        : checkResult(o.single, d.machine,
                                                      d.trace_instrs, d.warmup());
            if (why.empty()) {
                ++good;
                instrs += d.simulatedInstrs();
            } else {
                out.fail(o.label + ": " + why);
            }
        }
        ph.pass_kips.push_back(static_cast<double>(instrs) / 1e3 / pass_s);
        ph.pass_jobs_per_s.push_back(static_cast<double>(good) / pass_s);
        ph.pass_ms.push_back(pass_s * 1e3);
        const std::string digest = passDigest(br);
        if (digest_.empty())
            digest_ = digest;
        else if (digest != digest_)
            out.fail("pass digest " + digest + " differs from " + digest_ +
                     ": simulation is not deterministic");
        ph.last = std::move(br);
    } while (secondsSince(start) < seconds);
    out.attempted += ph.jobs;
    return ph;
}

void
BatchWorkload::layerPasses(Layers &l, const runner::BatchResult &last)
{
    const std::vector<JobDef> &jobs = inputs_.jobs;
    const unsigned threads = cfg_.nproc;

    l.trace_gen_s = parallelTimed(jobs.size(), threads, [&](std::size_t i) {
        for (unsigned c = 0; c < jobs[i].cores; ++c)
            drain(*jobs[i].trace);
    });

    std::vector<std::uint64_t> cycles(jobs.size());
    std::vector<std::uint64_t> instrs(jobs.size());
    l.core_engine_s = parallelTimed(jobs.size(), threads, [&](std::size_t i) {
        const JobDef &d = jobs[i];
        if (d.cores == 1) {
            core::CoreParams params = d.machine.core;
            params.accounting_enabled = false;
            core::OooCore core(params, d.trace->clone());
            core.run();
            cycles[i] = core.stats().cycles;
            instrs[i] = core.stats().instrs_committed;
        } else {
            sim::SimOptions off;
            off.accounting = false;
            const sim::MulticoreResult r =
                sim::simulateMulticore(d.machine, *d.trace, d.cores, off);
            for (const sim::SimResult &c : r.per_core) {
                cycles[i] += c.cycles;
                instrs[i] += c.instrs;
            }
        }
    });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        l.core_sim_cycles += static_cast<double>(cycles[i]);
        l.core_sim_instrs += static_cast<double>(instrs[i]);
    }

    for (const bool accounting : {true, false}) {
        const double s = parallelTimed(jobs.size(), threads, [&](std::size_t i) {
            const JobDef &d = jobs[i];
            sim::SimOptions o = d.options;
            o.accounting = accounting;
            if (d.cores == 1)
                sim::simulate(d.machine, *d.trace, o);
            else
                sim::simulateMulticore(d.machine, *d.trace, d.cores, o);
        });
        (accounting ? l.stacks_simulate_s : l.stacks_simulate_noacct_s) = s;
    }

    std::vector<std::size_t> bytes(last.outcomes.size());
    l.obs_report_s =
        parallelTimed(last.outcomes.size(), threads, [&](std::size_t i) {
            obs::ReportBuilder report("sweep");
            report.add(last.outcomes[i], jobs[i].options, jobs[i].cores);
            bytes[i] = report.json().size();
        });
    l.obs_reports = static_cast<double>(bytes.size());
    for (const std::size_t b : bytes)
        l.obs_report_bytes += static_cast<double>(b);
}

double
counterDelta(const obs::MetricsSnapshot &before,
             const obs::MetricsSnapshot &after, std::string_view name)
{
    return static_cast<double>(after.counterOr(name) - before.counterOr(name));
}

RunResult
BatchWorkload::run()
{
    RunResult out;
    const double setup_s = medianSetup(
        kSetupRepeats,
        [this] {
            runner_.reset();
            inputs_ = {};
        },
        [this] { setup(); });

    if (!cfg_.trace) {
        addEndToEnd(out, timedPhase(cfg_.seconds, out).endToEnd(setup_s));
    } else {
        // The traced half differs from the untraced one only by the
        // snapshots around it; the layer passes run after both, so
        // overhead.* is 0 by design and shows drift between the halves.
        Layers l;
        l.trace_build_s = inputs_.build_s;
        l.untraced = timedPhase(cfg_.seconds / 2, out).endToEnd(setup_s);

        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        const obs::MetricsSnapshot before = reg.snapshot();
        const runner::ThreadPool::Stats pool_before = runner_->poolStats();
        const Phase traced = timedPhase(cfg_.seconds / 2, out);
        const obs::MetricsSnapshot after = reg.snapshot();
        const runner::ThreadPool::Stats pool_after = runner_->poolStats();
        l.traced = traced.endToEnd(setup_s);

        l.sim_warmup_s = counterDelta(before, after, "sim.warmup_micros_total") / 1e6;
        l.sim_measure_s = counterDelta(before, after, "sim.measure_micros_total") / 1e6;
        l.sim_report_s = counterDelta(before, after, "sim.report_micros_total") / 1e6;
        l.runner_batch_s = traced.batch_s;
        l.runner_threads = runner_->threads();
        l.runner_window_s = traced.batch_s;
        l.runner_idle_s =
            static_cast<double>(pool_after.idle_micros - pool_before.idle_micros) / 1e6;
        l.runner_steals = static_cast<double>(pool_after.steals - pool_before.steals);
        l.runner_tail_s = traced.tail_s;

        runner_.reset();
        layerPasses(l, traced.last);
        addLayers(out, l);
    }
    out.sim_digest = digest_;
    out.peak_threads = notePeakThreads();
    return out;
}

}  // namespace

RunResult
runFig2Grid(const RunConfig &cfg)
{
    return BatchWorkload(cfg, false).run();
}

RunResult
runHpcSocket(const RunConfig &cfg)
{
    return BatchWorkload(cfg, true).run();
}

}  // namespace perfbench
