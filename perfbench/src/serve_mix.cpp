/**
 * @file
 * The serve-mix workload: an open loop against a freshly started
 * `stackscope serve` daemon over its Unix socket. A single client thread
 * sends each request at its scheduled time on any idle connection (at
 * most one connection per vCPU) and times it from that scheduled time,
 * so a stall also charges the requests queued behind it.
 *
 * The mix: repeats of a hot spec set primed at set-up (cache hits),
 * fresh specs (cold simulations), and duplicates of a fresh spec sent
 * while it is still simulating (single-flight coalescing).
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/ooo_core.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/report.hpp"
#include "runner/job_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "sim/presets.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace perfbench {

using namespace stackscope;

namespace {

constexpr unsigned kSetupRepeats = 9;
/** The daemon's latency objective; goodput counts requests within it. */
constexpr double kSloMs = 50.0;
/**
 * The offered load. README "Offered load" derives each number from the
 * daemon's capacity measured with --calibrate 1. Every spec measures
 * about 10000 instructions: hot specs take distinct
 * sizes in [kSpecInstrs, kSpecInstrs + kHotSizes), fresh ones the sizes
 * above, so their content addresses never collide. Every fifth fresh
 * spec also gets a duplicate, sent while the fresh one still simulates.
 */
constexpr std::uint64_t kSpecInstrs = 10'000;
constexpr std::uint64_t kHotSizes = 1'000;
constexpr double kHitRate = 8000.0;
constexpr double kFreshRate = 15.0;
constexpr std::size_t kDuplicateEvery = 5;
constexpr double kDuplicateDelayS = 0.001;
/** Spec sizes that --calibrate 1 measures. */
constexpr std::uint64_t kCalibrateSizes[] = {5'000, 10'000, 20'000, 40'000};
/** Keys re-simulated in process to cross-check the daemon's reports. */
constexpr std::size_t kSampledKeys = 8;
/** Hit traces fetched from /tracez in a traced run (all cold ones are). */
constexpr std::size_t kTracedHits = 400;
/**
 * The daemon keeps this many finished traces in a traced run: more than
 * the traced half's requests (duplicates add a fifth of the fresh rate),
 * so /tracez still holds them all when they are read after it. An
 * untraced run keeps the daemon's default.
 */
std::size_t
tracedCapacity(double seconds)
{
    return static_cast<std::size_t>(
        std::lround((kHitRate + 2 * kFreshRate) * seconds / 2) + 1024);
}

const char *const kMachines[] = {"bdw", "knl", "skx"};

// ------------------------------------------------------------ connections

/** Connections this process holds open now, and the most at once. */
unsigned g_open_conns = 0;
unsigned g_peak_conns = 0;

int
countOpened(int fd)
{
    if (fd >= 0)
        g_peak_conns = std::max(g_peak_conns, ++g_open_conns);
    return fd;
}

void
closeCounted(int fd)
{
    if (fd >= 0) {
        ::close(fd);
        --g_open_conns;
    }
}

struct Spec
{
    std::string workload;
    std::string machine;
    std::uint64_t instrs = 0;

    std::string
    json() const
    {
        obs::JsonWriter w;
        w.beginObject()
            .key("workload").value(workload)
            .key("machine").value(machine)
            .key("instrs").value(instrs)
            .endObject();
        return w.str();
    }

    std::string
    line(std::uint64_t id) const
    {
        return "{\"type\":\"analyze\",\"id\":\"" + std::to_string(id) +
               "\",\"spec\":" + json() + "}\n";
    }

    /** Simulated instructions of a cold run: measured plus half warmup. */
    std::uint64_t simulatedInstrs() const { return instrs + instrs / 2; }
};

enum class Kind
{
    kHot,
    kFresh,
    kDuplicate,
};

struct Request
{
    double due_s = 0.0;
    Kind kind = Kind::kHot;
    std::size_t spec = 0;  ///< index into the spec table
    // Filled in by the client loop.
    double sent_s = -1.0;
    double done_s = -1.0;
    bool ok = false;
    std::string outcome;  ///< hit | miss | coalesced
    std::string daemon_id;
};

// ---------------------------------------------------------------- sockets

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return countOpened(fd);
}

bool
sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/** Append what is readable now; false on EOF or error. */
bool
readSome(int fd, std::string &pending)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        pending.append(buf, static_cast<std::size_t>(n));
        return true;
    }
}

/** Pop one complete '\n'-terminated frame (without the newline). */
bool
popFrame(std::string &pending, std::string &frame)
{
    const std::size_t pos = pending.find('\n');
    if (pos == std::string::npos)
        return false;
    frame.assign(pending, 0, pos);
    pending.erase(0, pos + 1);
    return true;
}

/** Blocking read of the next frame. */
bool
readFrame(int fd, std::string &pending, std::string &frame)
{
    while (!popFrame(pending, frame)) {
        if (!readSome(fd, pending))
            return false;
    }
    return true;
}

int
freeTcpPort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    int port = -1;
    if (fd >= 0 &&
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) == 0)
        port = ntohs(addr.sin_port);
    if (fd >= 0)
        ::close(fd);
    if (port <= 0)
        throw std::runtime_error("no free loopback port");
    return port;
}

/** One HTTP GET on the daemon's loopback port; returns the body. */
std::string
httpGet(int port, const std::string &path)
{
    const int fd = countOpened(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string response;
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) == 0 &&
        sendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n")) {
        while (readSome(fd, response)) {
        }
    }
    closeCounted(fd);
    const std::size_t body = response.find("\r\n\r\n");
    return body == std::string::npos ? "" : response.substr(body + 4);
}

/** Header members of a result frame, parsed without the report. */
struct Frame
{
    std::string type;
    std::string outcome;
    std::string key;
    std::string daemon_id;
    std::string_view report;
};

Frame
parseFrame(const std::string &frame)
{
    Frame f;
    const std::size_t report = frame.find(",\"report\":");
    const bool result = report != std::string::npos && frame.back() == '}';
    const obs::JsonValue head = obs::parseJson(
        result ? frame.substr(0, report) + "}" : frame);
    f.type = head.at("type").string;
    if (result) {
        f.outcome = head.at("cache").string;
        f.key = head.at("key").string;
        f.daemon_id = head.at("request").string;
        f.report = std::string_view(frame).substr(
            report + 10, frame.size() - 1 - (report + 10));
    }
    return f;
}

// ----------------------------------------------------------------- daemon

/** A `stackscope serve` child process, stopped and reaped on destruction. */
class Daemon
{
  public:
    /** @p trace_capacity 0 keeps the daemon's default. */
    Daemon(const std::string &socket_path, int tcp_port,
           std::size_t trace_capacity)
        : socket_path_(socket_path)
    {
        ::unlink(socket_path.c_str());
        const std::string tcp = std::to_string(tcp_port);
        const std::string slo = std::to_string(static_cast<int>(kSloMs));
        std::vector<std::string> args = {
            PERFBENCH_STACKSCOPE_BIN, "serve", "--socket", socket_path,
            "--tcp", tcp, "--slo-ms", slo};
        if (trace_capacity != 0) {
            args.push_back("--trace-capacity");
            args.push_back(std::to_string(trace_capacity));
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int log = ::open(".bench_work/serve.log",
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (log >= 0)
                ::dup2(log, STDERR_FILENO);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** Connect and complete the hello exchange, retrying while it starts. */
    int
    connect() const
    {
        const auto start = Clock::now();
        for (;;) {
            const int fd = connectUnix(socket_path_);
            if (fd >= 0)
                return fd;
            if (secondsSince(start) > 10.0)
                throw std::runtime_error("daemon did not start listening");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    /** SIGTERM (graceful drain), then SIGKILL after a grace period. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const auto start = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(start) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        ::unlink(socket_path_.c_str());
    }

  private:
    std::string socket_path_;
    pid_t pid_ = -1;
};

struct Conn
{
    int fd = -1;
    std::string pending;
    long request = -1;  ///< in-flight request index, -1 when idle
};

/** One latency sample: the request's due time and its latency. */
struct Sample
{
    double due_s = 0.0;
    double ms = 0.0;
};

/**
 * Median over consecutive windows of @p window_s of the @p p-quantile of
 * each window's samples. A few seconds of host disturbance then move at
 * most a few windows, not the reported figure. At the offered load a 1 s
 * window holds about 8018 requests, so its p90 keeps about 800 beyond it.
 */
double
windowedPercentile(const std::vector<Sample> &samples, double window_s,
                   double p)
{
    std::map<long, std::vector<double>> windows;
    for (const Sample &s : samples)
        windows[static_cast<long>(s.due_s / window_s)].push_back(s.ms);
    std::vector<double> per_window;
    for (auto &[index, ms] : windows)
        per_window.push_back(percentile(std::move(ms), p));
    return median(per_window);
}

double
lastDone(const std::vector<Request> &reqs)
{
    double last = 0.0;
    for (const Request &r : reqs)
        last = std::max(last, r.done_s);
    return last;
}

// ------------------------------------------------------------- workload

class ServeMix
{
  public:
    explicit ServeMix(const RunConfig &cfg)
        : cfg_(cfg), rng_(mixSeed(cfg.seed, 0x5e7e))
    {
    }

    ~ServeMix() { closeConns(); }

    RunResult run();

  private:
    void teardown();
    void setup();
    void openConns();
    void closeConns();
    /** Append a fresh spec of about @p instrs measured instructions. */
    std::size_t addFresh(std::uint64_t instrs);
    std::vector<Request> schedule(double seconds);
    /** Send every request on schedule; returns the phase's metrics. */
    EndToEnd openLoop(std::vector<Request> &reqs, RunResult &out);
    void complete(Request &r, const std::string &frame, double now_s,
                  RunResult &out);
    std::string statusz();
    void crossCheck(RunResult &out);
    void calibrate(RunResult &out);
    void traceLayers(Layers &l, const std::vector<Request> &traced);

    const RunConfig &cfg_;
    std::mt19937_64 rng_;
    std::string socket_path_;
    int tcp_port_ = -1;
    std::unique_ptr<Daemon> daemon_;
    std::vector<Conn> conns_;
    std::vector<Spec> specs_;  ///< hot set first, then fresh specs
    std::size_t hot_specs_ = 0;
    /** Cold report bytes per key, as first received. */
    std::map<std::string, std::string> reports_;
    std::map<std::size_t, std::string> spec_keys_;
    std::map<std::string, unsigned> misses_per_key_;
    std::vector<std::size_t> fresh_order_;
    std::uint64_t next_fresh_ = 0;
    std::uint64_t next_id_ = 0;
    bool priming_ = false;
    bool corrupted_ = false;
};

void
ServeMix::openConns()
{
    closeConns();
    for (unsigned i = 0; i < cfg_.nproc; ++i) {
        Conn c;
        c.fd = daemon_->connect();
        std::string frame;
        if (!readFrame(c.fd, c.pending, frame) ||
            parseFrame(frame).type != "hello")
            throw std::runtime_error("no hello frame from the daemon");
        conns_.push_back(std::move(c));
    }
}

void
ServeMix::closeConns()
{
    for (Conn &c : conns_)
        closeCounted(c.fd);
    conns_.clear();
}

void
ServeMix::teardown()
{
    closeConns();
    daemon_.reset();
}

void
ServeMix::setup()
{
    daemon_ = std::make_unique<Daemon>(
        socket_path_, tcp_port_, cfg_.trace ? tracedCapacity(cfg_.seconds) : 0);
    openConns();
    // First pong: the daemon answers requests.
    std::string frame;
    if (!sendAll(conns_[0].fd, "{\"type\":\"ping\",\"id\":\"up\"}\n") ||
        !readFrame(conns_[0].fd, conns_[0].pending, frame) ||
        parseFrame(frame).type != "pong")
        throw std::runtime_error("daemon did not answer ping");
    // Prime the hot set, one request in flight per connection. Reports of
    // earlier set-ups stay: each fresh daemon must reproduce them.
    std::vector<Request> prime(hot_specs_);
    for (std::size_t i = 0; i < hot_specs_; ++i)
        prime[i].spec = i;
    RunResult scratch;
    priming_ = true;
    openLoop(prime, scratch);
    priming_ = false;
    if (scratch.failed != 0)
        throw std::runtime_error("priming the hot set failed: " +
                                 scratch.check_failures.front());
}

std::size_t
ServeMix::addFresh(std::uint64_t instrs)
{
    // Fresh specs cycle through every preset x machine pair in a seeded
    // order, so each run's cold mix has the same composition.
    const auto &presets = trace::allSpecWorkloads();
    const std::size_t pair = fresh_order_[next_fresh_ % fresh_order_.size()];
    specs_.push_back({presets[pair / 3].name, kMachines[pair % 3],
                      instrs + kHotSizes + next_fresh_++});
    return specs_.size() - 1;
}

std::vector<Request>
ServeMix::schedule(double seconds)
{
    std::uniform_int_distribution<std::size_t> pick_hot(0, hot_specs_ - 1);
    std::uniform_real_distribution<double> when(0.0, seconds);

    // Fixed request counts at uniformly random times: a Poisson arrival
    // process conditioned on its count, so every seed offers the same load.
    const auto fresh = static_cast<std::size_t>(std::lround(kFreshRate * seconds));
    const auto hits = static_cast<std::size_t>(std::lround(kHitRate * seconds));
    std::vector<Request> reqs;
    for (std::size_t i = 0; i < fresh; ++i) {
        Request r;
        r.due_s = when(rng_);
        r.kind = Kind::kFresh;
        r.spec = addFresh(kSpecInstrs);
        reqs.push_back(r);
        if (i % kDuplicateEvery == 0) {
            r.kind = Kind::kDuplicate;
            r.due_s += kDuplicateDelayS;
            reqs.push_back(r);
        }
    }
    for (std::size_t i = 0; i < hits; ++i) {
        Request r;
        r.due_s = when(rng_);
        r.spec = pick_hot(rng_);
        reqs.push_back(r);
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Request &a, const Request &b) {
                         return a.due_s < b.due_s;
                     });
    return reqs;
}

void
ServeMix::complete(Request &r, const std::string &frame, double now_s,
                   RunResult &out)
{
    r.done_s = now_s;
    const Frame f = parseFrame(frame);
    if (f.type != "result") {
        out.fail("request for " + specs_[r.spec].json() + " got: " + frame);
        return;
    }
    r.outcome = f.outcome;
    r.daemon_id = f.daemon_id;
    std::string report(f.report);
    if (cfg_.corrupt == "report" && f.outcome == "hit" && !corrupted_) {
        report[report.size() / 2] ^= 1;
        corrupted_ = true;
    }
    // Priming misses every hot spec; afterwards hot specs must hit, and a
    // fresh spec is simulated once: by it or by its duplicate, whichever
    // the daemon saw first (the other coalesces or, if late, hits).
    const bool expected = priming_ ? f.outcome == "miss"
                          : r.kind == Kind::kHot   ? f.outcome == "hit"
                          : r.kind == Kind::kFresh ? f.outcome != "hit"
                                                   : true;
    if (!expected) {
        out.fail("unexpected cache outcome '" + f.outcome + "' for " +
                 specs_[r.spec].json());
        return;
    }
    if (f.outcome == "miss" && !priming_)
        ++misses_per_key_[f.key];
    auto [it, first] = reports_.try_emplace(f.key, report);
    if (!first && it->second != report) {
        out.fail("report for key " + f.key + " (" + f.outcome +
                 ") differs from the cold report");
        return;
    }
    spec_keys_[r.spec] = f.key;
    r.ok = true;
}

EndToEnd
ServeMix::openLoop(std::vector<Request> &reqs, RunResult &out)
{
    std::vector<pollfd> fds(conns_.size());
    std::deque<std::size_t> backlog;
    std::size_t next = 0;
    std::size_t finished = 0;
    std::string frame;
    const auto origin = Clock::now();
    auto now = [&] { return secondsSince(origin); };

    // The client spins instead of sleeping, so no send or reply waits for
    // its own timer or wakeup, and it moves to the next vCPU every 50 ms,
    // so every run samples every vCPU.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ::sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    }
    std::size_t hop = 0;
    double next_hop_s = 0.0;
    std::size_t next_conn = 0;

    while (finished < reqs.size()) {
        const double t = now();
        if (t >= next_hop_s) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[hop++ % cpus.size()], &one);
            ::sched_setaffinity(0, sizeof one, &one);
            next_hop_s = t + 0.05;
        }
        while (next < reqs.size() && reqs[next].due_s <= t)
            backlog.push_back(next++);
        // Round-robin over idle connections, so every daemon connection
        // thread serves a share of the requests.
        for (std::size_t k = 0; k < conns_.size() && !backlog.empty(); ++k) {
            Conn &c = conns_[next_conn];
            next_conn = (next_conn + 1) % conns_.size();
            if (c.request >= 0)
                continue;
            Request &r = reqs[backlog.front()];
            c.request = static_cast<long>(backlog.front());
            backlog.pop_front();
            r.sent_s = now();
            if (!sendAll(c.fd, specs_[r.spec].line(next_id_++))) {
                r.done_s = r.sent_s;
                out.fail("send failed");
                c.request = -1;
                ++finished;
            }
        }
        for (std::size_t i = 0; i < conns_.size(); ++i)
            fds[i] = {conns_[i].fd, POLLIN, 0};
        if (::poll(fds.data(), fds.size(), 0) <= 0)
            continue;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            Conn &c = conns_[i];
            const bool open = readSome(c.fd, c.pending);
            const double done_s = now();
            while (c.request >= 0 && popFrame(c.pending, frame)) {
                if (frame.starts_with("{\"type\":\"progress\""))
                    continue;
                complete(reqs[static_cast<std::size_t>(c.request)], frame,
                         done_s, out);
                c.request = -1;
                ++finished;
            }
            if (!open)
                throw std::runtime_error("daemon closed a connection");
        }
    }

    ::sched_setaffinity(0, sizeof allowed, &allowed);

    EndToEnd e;
    std::vector<Sample> all_ms;
    std::vector<double> cold_ms;
    const double last_done = lastDone(reqs);
    std::size_t good = 0;
    std::uint64_t simulated = 0;
    for (const Request &r : reqs) {
        if (!r.ok)
            continue;
        const double ms = (r.done_s - r.due_s) * 1e3;
        all_ms.push_back({r.due_s, ms});
        if (r.outcome != "hit")
            cold_ms.push_back(ms);
        if (r.outcome == "miss")
            simulated += specs_[r.spec].simulatedInstrs();
        if (ms <= kSloMs)
            ++good;
    }
    out.attempted += reqs.size();
    e.throughput_kips = static_cast<double>(simulated) / 1e3 / last_done;
    e.goodput_rps = static_cast<double>(good) / last_done;
    e.p50_ms = windowedPercentile(all_ms, 1.0, 0.5);
    e.p90_ms = windowedPercentile(all_ms, 1.0, 0.9);
    // Cold requests are too few to window: a 15 s run holds 270 (225 fresh,
    // 45 duplicates), so the whole-run p90 keeps 27 beyond it.
    e.cold_p50_ms = percentile(cold_ms, 0.5);
    e.cold_p90_ms = percentile(cold_ms, 0.9);
    return e;
}

std::string
ServeMix::statusz()
{
    const int fd = daemon_->connect();
    std::string pending;
    std::string frame;
    const bool ok = readFrame(fd, pending, frame) &&
                    sendAll(fd, "{\"type\":\"statusz\",\"id\":\"s\"}\n") &&
                    readFrame(fd, pending, frame);
    closeCounted(fd);
    if (!ok)
        throw std::runtime_error("statusz failed");
    return frame;
}

/** Re-simulate a sample of keys in process and compare report bytes. */
void
ServeMix::crossCheck(RunResult &out)
{
    // Half hot specs, half fresh ones (spec_keys_ is ordered hot first).
    std::vector<std::size_t> sample;
    std::size_t hot = 0;
    for (const auto &[spec, key] : spec_keys_) {
        const bool is_hot = spec < hot_specs_;
        if (is_hot ? hot < kSampledKeys / 2
                   : sample.size() - hot < kSampledKeys / 2) {
            sample.push_back(spec);
            hot += is_hot;
        }
    }
    std::vector<std::string> fresh(sample.size());
    parallelTimed(sample.size(), cfg_.nproc, [&](std::size_t i) {
        const runner::JobSpec spec =
            serve::parseSpec(obs::parseJson(specs_[sample[i]].json()));
        fresh[i] = serve::simulateSpec(spec);
    });
    for (std::size_t i = 0; i < sample.size(); ++i) {
        if (fresh[i] != reports_[spec_keys_[sample[i]]])
            out.fail("daemon report for " + specs_[sample[i]].json() +
                     " differs from serve::simulateSpec in process");
    }
}

/** Self time of each span of daemon request @p id, from /tracez. */
std::map<std::string, double>
spanSelfUs(int port, const std::string &id)
{
    const obs::JsonValue t = obs::parseJson(httpGet(port, "/tracez?id=" + id));
    std::map<std::string, double> self;
    for (const obs::JsonValue &s : t.at("spans").array)
        self[s.at("span").string] += s.at("dur_us").number;
    return self;
}

/**
 * The measurements behind the offered load (README "Offered load"). For
 * each spec size: the latency of a cold request sent alone, the share of
 * it the daemon spends in its simulate and serialize spans, and the cold
 * capacity, fresh specs completed per second with one in flight on every
 * connection. Then the hit capacity, measured the same way.
 */
void
ServeMix::calibrate(RunResult &out)
{
    for (const std::uint64_t size : kCalibrateSizes) {
        const std::string name = "calibrate.i" + std::to_string(size) + ".";
        std::vector<Request> alone(20);
        for (std::size_t i = 0; i < alone.size(); ++i) {
            alone[i].due_s = 0.1 * static_cast<double>(i);
            alone[i].kind = Kind::kFresh;
            alone[i].spec = addFresh(size);
        }
        openLoop(alone, out);
        std::vector<double> ms;
        double total_us = 0.0;
        double simulate_us = 0.0;
        double serialize_us = 0.0;
        for (const Request &r : alone) {
            ms.push_back((r.done_s - r.due_s) * 1e3);
            for (const auto &[span, us] : spanSelfUs(tcp_port_, r.daemon_id)) {
                total_us += us;
                simulate_us += span == "simulate" ? us : 0.0;
                serialize_us += span == "serialize" ? us : 0.0;
            }
        }
        out.add(name + "cold_alone_ms", median(ms), "ms");
        out.add(name + "simulate_share", simulate_us / total_us, "ratio");
        out.add(name + "serialize_share", serialize_us / total_us, "ratio");

        std::vector<Request> burst(16 * cfg_.nproc);
        for (Request &r : burst) {
            r.kind = Kind::kFresh;
            r.spec = addFresh(size);
        }
        openLoop(burst, out);
        out.add(name + "cold_capacity_rps",
                static_cast<double>(burst.size()) / lastDone(burst), "1/s");
    }
    std::vector<Request> hits(20'000);
    for (std::size_t i = 0; i < hits.size(); ++i)
        hits[i].spec = i % hot_specs_;
    openLoop(hits, out);
    out.add("calibrate.hit_capacity_rps",
            static_cast<double>(hits.size()) / lastDone(hits), "1/s");
}

double
counter(const obs::JsonValue &status, const char *name)
{
    const obs::JsonValue *counters =
        status.at("host_metrics").find("counters");
    const obs::JsonValue *v = counters ? counters->find(name) : nullptr;
    return v ? v->number : 0.0;
}

double
meanUs(double total_s, std::size_t calls)
{
    return calls == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(calls);
}

void
ServeMix::traceLayers(Layers &l, const std::vector<Request> &traced)
{
    // Daemon span self-times from /tracez, by request class.
    std::map<std::string, std::vector<double>> spans_us;
    std::size_t hits_fetched = 0;
    double pool_busy_s = 0.0;
    for (const Request &r : traced) {
        if (!r.ok || (r.outcome == "hit" && hits_fetched++ >= kTracedHits))
            continue;
        std::map<std::string, double> self = spanSelfUs(tcp_port_, r.daemon_id);
        for (const auto &[span, us] : self)
            spans_us[r.outcome + "/" + span].push_back(us);
        pool_busy_s += (self["simulate"] + self["serialize"]) / 1e6;
    }
    // The daemon's pool is busy only inside job spans (every cold request
    // is fetched), so its idle time is the rest of the traced window.
    l.runner_idle_s =
        std::max(0.0, l.runner_threads * l.runner_window_s - pool_busy_s);
    auto spanMedian = [&](const char *key) { return median(spans_us[key]); };
    l.span_accept_us = spanMedian("hit/accept");
    l.span_parse_us = spanMedian("hit/parse");
    l.span_cache_lookup_us = spanMedian("hit/cache_lookup");
    l.span_write_us = spanMedian("hit/write");
    l.span_queue_wait_ms = spanMedian("miss/queue_wait") / 1e3;
    l.span_simulate_ms = spanMedian("miss/simulate") / 1e3;
    l.span_serialize_ms = spanMedian("miss/serialize") / 1e3;
    l.span_singleflight_wait_ms =
        spanMedian("coalesced/singleflight_wait") / 1e3;

    // Transport floor: closed-loop pings on every connection in turn.
    std::vector<double> rtt_us;
    std::string frame;
    for (unsigned i = 0; i < 400; ++i) {
        Conn &c = conns_[i % conns_.size()];
        const auto start = Clock::now();
        if (!sendAll(c.fd, "{\"type\":\"ping\",\"id\":\"p\"}\n") ||
            !readFrame(c.fd, c.pending, frame))
            throw std::runtime_error("ping failed");
        rtt_us.push_back(secondsSince(start) * 1e6);
    }
    l.serve_ping_rtt_us = median(rtt_us);

    // In-process costs of the request path on this run's request lines.
    std::vector<std::string> lines;
    std::vector<runner::JobSpec> jobs;
    for (const Request &r : traced) {
        lines.push_back(specs_[r.spec].line(0));
        jobs.push_back(serve::parseSpec(obs::parseJson(specs_[r.spec].json())));
    }
    l.serve_parse_us = meanUs(
        parallelTimed(lines.size(), cfg_.nproc, [&](std::size_t i) {
            const serve::Request req = serve::parseRequest(lines[i]);
            serve::parseSpec(req.spec);
        }),
        lines.size());
    l.serve_hash_us = meanUs(
        parallelTimed(jobs.size(), cfg_.nproc,
                      [&](std::size_t i) { runner::specHash(jobs[i]); }),
        jobs.size());
    serve::ResultCache cache(64u << 20);
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < hot_specs_; ++i) {
        keys.push_back(spec_keys_.at(i));
        cache.lookup(keys.back());
        cache.complete(keys.back(), reports_.at(keys.back()));
    }
    l.serve_cache_lookup_us = meanUs(
        parallelTimed(lines.size(), cfg_.nproc,
                      [&](std::size_t i) { cache.lookup(keys[i % keys.size()]); }),
        lines.size());

    // Layer passes over the specs the daemon simulated cold.
    std::vector<std::size_t> cold;
    for (const Request &r : traced) {
        if (r.ok && r.outcome == "miss")
            cold.push_back(r.spec);
    }
    std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens;
    std::vector<sim::MachineConfig> machines;
    std::vector<sim::SimOptions> options;
    for (const std::size_t s : cold) {
        const Spec &spec = specs_[s];
        trace::SyntheticParams params = trace::findWorkload(spec.workload).params;
        params.num_instrs = spec.simulatedInstrs();
        gens.push_back(std::make_unique<trace::SyntheticGenerator>(params));
        machines.push_back(sim::machineByName(spec.machine));
        sim::SimOptions o;
        o.warmup_instrs = spec.instrs / 2;
        options.push_back(o);
    }
    l.trace_gen_s = parallelTimed(cold.size(), cfg_.nproc, [&](std::size_t i) {
        std::unique_ptr<trace::TraceSource> src = gens[i]->clone();
        trace::DynInstr instr;
        while (src->next(instr)) {
        }
    });
    std::vector<core::CoreStats> stats(cold.size());
    l.core_engine_s = parallelTimed(cold.size(), cfg_.nproc, [&](std::size_t i) {
        core::CoreParams params = machines[i].core;
        params.accounting_enabled = false;
        core::OooCore core(params, gens[i]->clone());
        core.run();
        stats[i] = core.stats();
    });
    for (const core::CoreStats &s : stats) {
        l.core_sim_cycles += static_cast<double>(s.cycles);
        l.core_sim_instrs += static_cast<double>(s.instrs_committed);
    }
    std::vector<sim::SimResult> results(cold.size());
    for (const bool accounting : {false, true}) {
        const double s = parallelTimed(cold.size(), cfg_.nproc, [&](std::size_t i) {
            sim::SimOptions o = options[i];
            o.accounting = accounting;
            results[i] = sim::simulate(machines[i], *gens[i], o);
        });
        (accounting ? l.stacks_simulate_s : l.stacks_simulate_noacct_s) = s;
    }
    std::vector<std::size_t> bytes(cold.size());
    l.obs_report_s = parallelTimed(cold.size(), cfg_.nproc, [&](std::size_t i) {
        obs::ReportBuilder report("run");
        report.add(specs_[cold[i]].workload + "/" + machines[i].name,
                   options[i], results[i]);
        bytes[i] = report.json().size();
    });
    l.obs_reports = static_cast<double>(cold.size());
    for (const std::size_t b : bytes)
        l.obs_report_bytes += static_cast<double>(b);

    // Client-side view of the traced half.
    std::vector<double> hit_ms;
    std::vector<double> lag_ms;
    for (const Request &r : traced) {
        lag_ms.push_back((r.sent_s - r.due_s) * 1e3);
        if (!r.ok)
            continue;
        ++l.serve_analyze_requests;
        if (r.outcome == "hit") {
            ++l.serve_hits;
            hit_ms.push_back((r.done_s - r.due_s) * 1e3);
        }
        if (r.outcome == "coalesced")
            ++l.serve_coalesced;
    }
    l.serve_hit_p50_ms = percentile(hit_ms, 0.5);
    l.serve_hit_p99_ms = percentile(hit_ms, 0.99);
    l.serve_gen_lag_ms = median(lag_ms);
}

RunResult
ServeMix::run()
{
    RunResult out;
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    socket_path_ = ".bench_work/serve-" + std::to_string(::getpid()) + ".sock";
    tcp_port_ = freeTcpPort();

    // The hot set: one spec per preset x machine pair, so hits return
    // every report shape, with distinct seeded sizes.
    const auto &presets = trace::allSpecWorkloads();
    hot_specs_ = presets.size() * std::size(kMachines);
    std::set<std::uint64_t> hot_instrs;
    std::uniform_int_distribution<std::uint64_t> pick(
        kSpecInstrs, kSpecInstrs + kHotSizes - 1);
    while (hot_instrs.size() < hot_specs_)
        hot_instrs.insert(pick(rng_));
    std::size_t i = 0;
    for (const std::uint64_t instrs : hot_instrs) {
        specs_.push_back({presets[i % presets.size()].name,
                          kMachines[i / presets.size()], instrs});
        ++i;
    }

    fresh_order_.resize(hot_specs_);
    std::iota(fresh_order_.begin(), fresh_order_.end(), 0);
    std::shuffle(fresh_order_.begin(), fresh_order_.end(), rng_);

    const double setup_s = medianSetup(
        kSetupRepeats, [this] { teardown(); }, [this] { setup(); });
    const auto after_setup = [&](EndToEnd e) {
        e.setup_s = setup_s;
        e.peak_rss_mb = processPeakRssMb(daemon_->pid());
        return e;
    };

    if (cfg_.calibrate) {
        calibrate(out);
    } else if (std::vector<Request> reqs = schedule(cfg_.seconds); !cfg_.trace) {
        addEndToEnd(out, after_setup(openLoop(reqs, out)));
    } else {
        // The same schedule, split into an untraced and a traced half, so
        // both modes simulate the same specs and report the same digest.
        const double half = cfg_.seconds / 2;
        const auto mid = std::partition_point(
            reqs.begin(), reqs.end(),
            [&](const Request &r) { return r.due_s < half; });
        std::vector<Request> untraced(reqs.begin(), mid);
        std::vector<Request> traced(mid, reqs.end());
        for (Request &r : traced)
            r.due_s -= half;
        // Only the two statusz calls are in band; /tracez and the layer
        // passes run after both halves, so overhead.* is 0 by design and
        // shows drift between the halves.
        Layers l;
        l.untraced = after_setup(openLoop(untraced, out));
        const obs::JsonValue before = obs::parseJson(statusz());
        const auto start = Clock::now();
        l.traced = after_setup(openLoop(traced, out));
        l.runner_window_s = secondsSince(start);
        const obs::JsonValue after = obs::parseJson(statusz());
        auto delta = [&](const char *name) {
            return counter(after, name) - counter(before, name);
        };
        l.sim_warmup_s = delta("sim.warmup_micros_total") / 1e6;
        l.sim_measure_s = delta("sim.measure_micros_total") / 1e6;
        l.sim_report_s = delta("sim.report_micros_total") / 1e6;
        l.runner_threads = cfg_.nproc;
        l.runner_steals = delta("runner.steals_total");
        traceLayers(l, traced);
        addLayers(out, l);
    }
    for (const auto &[key, n] : misses_per_key_) {
        if (n != 1)
            out.fail("key " + key + " was simulated " + std::to_string(n) +
                     " times");
    }
    crossCheck(out);

    Digest digest;
    for (const auto &[key, report] : reports_) {
        digest.add(key);
        digest.add(report);
    }
    out.sim_digest = digest.hex();
    out.peak_threads = notePeakThreads();
    out.peak_connections = g_peak_conns;
    closeConns();
    daemon_->stop();
    return out;
}

}  // namespace

RunResult
runServeMix(const RunConfig &cfg)
{
    return ServeMix(cfg).run();
}

}  // namespace perfbench
