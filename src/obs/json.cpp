#include "obs/json.hpp"

#include <cmath>

namespace parastack::obs {

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void append_escape(std::string& out, char c) {
  switch (c) {
    case '"': out += "\\\""; return;
    case '\\': out += "\\\\"; return;
    case '\n': out += "\\n"; return;
    case '\r': out += "\\r"; return;
    case '\t': out += "\\t"; return;
    default: {
      constexpr char kHex[] = "0123456789abcdef";
      const auto code = static_cast<unsigned char>(c);
      out += "\\u00";
      out += kHex[code >> 4];
      out += kHex[code & 0xF];
    }
  }
}

}  // namespace

void json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending stretch that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!needs_escape(s[i])) continue;
    out.append(s, run, i - run);
    append_escape(out, s[i]);
    run = i + 1;
  }
  out.append(s, run);
  out += '"';
}

void json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, 9);
  out.append(buf, result.ptr);
}

void json_key(std::string& out, bool& first, std::string_view name) {
  if (!first) out += ',';
  first = false;
  json_string(out, name);
  out += ':';
}

void JsonObject::key(std::string_view k) { json_key(*buffer_, first_, k); }

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  json_string(*buffer_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, bool value) {
  key(k);
  *buffer_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, int value) {
  key(k);
  json_integer(*buffer_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::int64_t value) {
  key(k);
  json_integer(*buffer_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::uint64_t value) {
  key(k);
  json_integer(*buffer_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  json_number(*buffer_, value);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  buffer_->append(json);
  return *this;
}

void JsonObject::done() {
  if (closed_) return;
  closed_ = true;
  buffer_->push_back('}');
  if (out_ == nullptr) return;
  buffer_->append(terminator_);
  out_->write(buffer_->data(), static_cast<std::streamsize>(buffer_->size()));
}

}  // namespace parastack::obs
