/**
 * @file
 * Minimal streaming JSON writer for the observability exporters.
 *
 * The run-report and trace-event formats are versioned, machine-readable
 * contracts (docs/formats.md), so the writer is deliberately strict and
 * deterministic: keys are emitted in call order, doubles use a fixed
 * round-trippable format, and non-finite values become null (JSON has no
 * NaN/Infinity). No external JSON dependency is required.
 */

#ifndef STACKSCOPE_OBS_JSON_HPP
#define STACKSCOPE_OBS_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stackscope::obs {

/**
 * Append-only JSON document builder. Call sequence mirrors document
 * structure: beginObject()/endObject(), beginArray()/endArray(), key()
 * before every object member, value() for scalars. Commas are inserted
 * automatically. Misuse (e.g. two keys in a row) produces malformed
 * output rather than throwing; the tests round-trip every produced
 * document through a real parser.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key inside an object; the next begin/value call is its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);
    /** Doubles use "%.17g" (lossless); NaN/Inf are emitted as null. */
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(unsigned number);
    JsonWriter &value(int number);
    JsonWriter &value(bool flag);
    JsonWriter &null();

    /**
     * Splice a pre-serialized JSON fragment verbatim as the next value.
     * The caller vouches that @p fragment is well-formed JSON; the sweep
     * journal uses this to replay stored report fragments byte-for-byte.
     */
    JsonWriter &raw(std::string_view fragment);

    const std::string &str() const { return out_; }

  private:
    void separate();

    std::string out_;
    /** One entry per open container: true until its first element. */
    std::vector<bool> first_;
    bool after_key_ = false;
};

}  // namespace stackscope::obs

#endif  // STACKSCOPE_OBS_JSON_HPP
