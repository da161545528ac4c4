// Minimal JSON support for the telemetry layer.
//
// Three parts:
//  - JsonWriter: an append-only serializer the exporters use. It knows how
//    to escape strings and format numbers deterministically (the snapshot
//    byte-identity guarantee rests on this: the same doubles always render
//    to the same bytes).
//  - parse(): a small recursive-descent parser used by tests to round-trip
//    exported documents and by tooling that wants to audit a trace file.
//    It handles the full JSON grammar this repository emits (objects,
//    arrays, strings with \-escapes, numbers, true/false/null).
//  - telemetry::write_file(): the one file writer every export, bench
//    result and report goes through.
//
// Header-only with no external dependencies, so tools such as
// xmem_report use it without linking the simulator.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace xmem::telemetry::json {

/// Deterministic number formatting: shortest round-trippable form via
/// %.17g, with trailing-zero cleanup so 2.0 renders as "2".
[[nodiscard]] inline std::string format_number(double v) {
  char buf[40];
  // Integers (the common case for counters) render exactly.
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 &&
      v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[nodiscard]] inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Append-only JSON serializer. The caller is responsible for structural
/// correctness (matched begin/end, key before value); the helpers insert
/// commas automatically.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    comma();
    out_ += '"';
    out_ += escape(k);
    out_ += "\":";
    pending_value_ = true;
  }

  void value(std::string_view v) {
    comma();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v) {
    comma();
    out_ += format_number(v);
  }
  void value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
  }
  void value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v) {
    comma();
    out_ += v ? "true" : "false";
  }

  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void open(char c) {
    comma();
    out_ += c;
    need_comma_ = false;
  }
  void close(char c) {
    out_ += c;
    need_comma_ = true;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // a key was just written; no comma before its value
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

/// Parsed JSON value. Object keys keep source order is not required here;
/// std::map gives deterministic iteration for test comparisons.
struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v =
      nullptr;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] const Object& object() const { return std::get<Object>(v); }
  [[nodiscard]] const Array& array() const { return std::get<Array>(v); }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(v);
  }
  /// Object member access; throws std::out_of_range when absent.
  [[nodiscard]] const Value& at(const std::string& k) const {
    return object().at(k);
  }
  [[nodiscard]] bool contains(const std::string& k) const {
    return is_object() && object().count(k) > 0;
  }
};

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw ParseError("trailing garbage");
    return v;
  }

 private:
  Value parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) throw ParseError("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value{parse_string()};
      case 't': expect("true"); return Value{true};
      case 'f': expect("false"); return Value{false};
      case 'n': expect("null"); return Value{nullptr};
      default: return parse_number();
    }
  }

  Value parse_object() {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value{std::move(obj)};
    }
    while (true) {
      skip_ws();
      std::string k = parse_string();
      skip_ws();
      if (peek() != ':') throw ParseError("expected ':'");
      ++pos_;
      obj.emplace(std::move(k), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return Value{std::move(obj)};
      }
      throw ParseError("expected ',' or '}'");
    }
  }

  Value parse_array() {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value{std::move(arr)};
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return Value{std::move(arr)};
      }
      throw ParseError("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    if (peek() != '"') throw ParseError("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw ParseError("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            code = code * 16 + hex_digit(text_[pos_++]);
          }
          // The writer only emits \u for control characters; decode the
          // BMP subset as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: throw ParseError("bad escape");
      }
    }
    throw ParseError("unterminated string");
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::string_view("0123456789.eE+-").find(text_[pos_]) !=
            std::string_view::npos)) {
      ++pos_;
    }
    if (pos_ == start) throw ParseError("expected number");
    const std::string tok(text_.substr(start, pos_ - start));
    try {
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used != tok.size()) throw ParseError("bad number: " + tok);
      return Value{v};
    } catch (const std::invalid_argument&) {
      throw ParseError("bad number: " + tok);
    }
  }

  static unsigned hex_digit(char c) {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    throw ParseError("bad hex digit");
  }

  void expect(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      throw ParseError("bad literal");
    }
    pos_ += word.size();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parse a complete JSON document. Throws ParseError on malformed input.
[[nodiscard]] inline Value parse(std::string_view text) {
  return detail::Parser(text).parse_document();
}

}  // namespace xmem::telemetry::json

namespace xmem::telemetry {

/// Replace the file at `path` with `content`. False when the file cannot
/// be opened or the write or the close fails (a full disk can surface
/// only at close).
[[nodiscard]] inline bool write_file(const std::string& path,
                                     std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && written;
}

}  // namespace xmem::telemetry
