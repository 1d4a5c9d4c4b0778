#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/json_escape.hpp"

namespace stackscope::obs {

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (first_.empty())
        return;
    if (first_.back())
        first_.back() = false;
    else
        out_ += ',';
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    if (!std::isfinite(number))
        return null();
    separate();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned number)
{
    return value(static_cast<std::uint64_t>(number));
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view fragment)
{
    separate();
    out_ += fragment;
    return *this;
}

}  // namespace stackscope::obs
