#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace parastack::obs {

/// Append `s` as a JSON string literal (quotes included), escaping the
/// control characters and the two mandatory specials. The simulator only
/// produces ASCII identifiers, so no UTF-8 handling is needed; a string
/// that needs no escaping is copied in one append.
void json_string(std::string& out, std::string_view s);

/// Append a double as a JSON number. Uses a fixed "%.9g" rendering so the
/// output is byte-stable for identical values (determinism requirement of
/// the journal): std::to_chars with chars_format::general and precision 9
/// is defined as printf's %.9g in the C locale, without printf's format
/// parsing or locale lookup. Non-finite values — which no telemetry source
/// produces — degrade to null to keep the document parseable.
void json_number(std::string& out, double value);

/// Append an integer in plain decimal (what `ostream << value` prints in
/// the C locale).
template <std::integral T>
void json_integer(std::string& out, T value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

/// Append `"name":`, the head of the next member of an object rendered by
/// hand: a comma goes first unless `first`, which is then cleared.
void json_key(std::string& out, bool& first, std::string_view name);

/// Builder for one JSON object: handles the comma discipline so call sites
/// read as a flat list of fields. The object is rendered into a caller-owned
/// string, so one buffer serves every line a writer produces. Close with
/// done(); the destructor also closes (idempotent) so early returns stay
/// valid JSON.
class JsonObject {
 public:
  /// Nested object: append to `buffer`, which holds the enclosing document.
  explicit JsonObject(std::string& buffer) : buffer_(&buffer) {
    buffer_->push_back('{');
  }
  /// Top-level object: render into `buffer` (cleared first) and, on close,
  /// append `terminator` and hand the whole text to `out` in one write.
  JsonObject(std::ostream& out, std::string& buffer,
             std::string_view terminator = {})
      : out_(&out), buffer_(&buffer), terminator_(terminator) {
    buffer_->assign(1, '{');
  }
  ~JsonObject() { done(); }

  /// Moving hands the close over: the moved-from object writes nothing.
  JsonObject(JsonObject&& other) noexcept
      : out_(other.out_),
        buffer_(other.buffer_),
        terminator_(other.terminator_),
        first_(other.first_),
        closed_(other.closed_) {
    other.closed_ = true;
  }
  JsonObject(const JsonObject&) = delete;
  JsonObject& operator=(const JsonObject&) = delete;

  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonObject& field(std::string_view key, bool value);
  JsonObject& field(std::string_view key, int value);
  JsonObject& field(std::string_view key, std::int64_t value);
  JsonObject& field(std::string_view key, std::uint64_t value);
  JsonObject& field(std::string_view key, double value);
  /// Insert `json` verbatim as the value (for nested arrays/objects the
  /// caller has already rendered).
  JsonObject& raw(std::string_view key, std::string_view json);

  void done();

 private:
  void key(std::string_view k);

  std::ostream* out_ = nullptr;  ///< null for a nested object
  std::string* buffer_;
  std::string_view terminator_;
  bool first_ = true;
  bool closed_ = false;
};

}  // namespace parastack::obs
