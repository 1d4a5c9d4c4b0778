#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/json_escape.hpp"

namespace stackscope::log {

namespace {

std::atomic<bool> g_json{false};

std::mutex g_sink_mutex;
std::function<void(const std::string &)> g_writer;  // null = stderr

/** Milliseconds since the first record (monotonic; for humans, not sync). */
std::uint64_t
elapsedMs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point start = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() -
                                                              start)
            .count());
}

}  // namespace

namespace detail {

bool
enabledSlow(Level level)
{
    configureFromEnv();  // leaves g_threshold non-negative
    return enabled(level);
}

}  // namespace detail

std::string_view
toString(Level level)
{
    switch (level) {
      case Level::kTrace: return "trace";
      case Level::kDebug: return "debug";
      case Level::kInfo: return "info";
      case Level::kWarn: return "warn";
      case Level::kError: return "error";
      case Level::kOff: return "off";
    }
    return "off";
}

std::optional<Level>
parseLevel(std::string_view text)
{
    for (const Level level :
         {Level::kTrace, Level::kDebug, Level::kInfo, Level::kWarn,
          Level::kError, Level::kOff}) {
        if (text == toString(level))
            return level;
    }
    return std::nullopt;
}

Level
threshold()
{
    if (detail::g_threshold.load(std::memory_order_relaxed) < 0)
        configureFromEnv();
    return static_cast<Level>(
        detail::g_threshold.load(std::memory_order_relaxed));
}

void
setThreshold(Level level)
{
    detail::g_threshold.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

void
setJsonOutput(bool json)
{
    g_json.store(json, std::memory_order_relaxed);
}

bool
jsonOutput()
{
    return g_json.load(std::memory_order_relaxed);
}

void
configureFromEnv()
{
    Level level = Level::kWarn;
    if (const char *env = std::getenv("STACKSCOPE_LOG")) {
        if (const std::optional<Level> parsed = parseLevel(env))
            level = *parsed;
    }
    detail::g_threshold.store(static_cast<int>(level),
                              std::memory_order_relaxed);
    if (const char *env = std::getenv("STACKSCOPE_LOG_JSON"))
        g_json.store(env[0] == '1', std::memory_order_relaxed);
}

void
setWriterForTest(std::function<void(const std::string &)> writer)
{
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    g_writer = std::move(writer);
}

namespace {

void
messageImpl(Level level, std::string_view module, std::string_view text,
            const Field *begin, const Field *end)
{
    if (level == Level::kOff || !enabled(level))
        return;

    const std::uint64_t t_ms = elapsedMs();
    std::string line;
    if (jsonOutput()) {
        line = "{\"t_ms\":" + std::to_string(t_ms) + ",\"level\":\"" +
               std::string(toString(level)) + "\",\"module\":\"" +
               jsonEscape(module) + "\",\"msg\":\"" + jsonEscape(text) +
               "\"";
        for (const Field *f = begin; f != end; ++f)
            line += ",\"" + jsonEscape(f->key) + "\":\"" +
                    jsonEscape(f->value) + "\"";
        line += "}";
    } else {
        line = "stackscope[" + std::string(toString(level)) + "] " +
               std::string(module) + ": " + std::string(text);
        for (const Field *f = begin; f != end; ++f)
            line += " " + std::string(f->key) + "=" + f->value;
    }

    std::lock_guard<std::mutex> lock(g_sink_mutex);
    if (g_writer) {
        g_writer(line);
        return;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

void
message(Level level, std::string_view module, std::string_view text,
        std::initializer_list<Field> fields)
{
    messageImpl(level, module, text, fields.begin(), fields.end());
}

void
message(Level level, std::string_view module, std::string_view text,
        const std::vector<Field> &fields)
{
    messageImpl(level, module, text, fields.data(),
                fields.data() + fields.size());
}

}  // namespace stackscope::log
