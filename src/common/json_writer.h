#ifndef MRS_COMMON_JSON_WRITER_H_
#define MRS_COMMON_JSON_WRITER_H_

#include <string>
#include <string_view>

namespace mrs {

/// Appending writer behind every JSON (and CSV) export: each piece goes
/// straight onto one caller-owned std::string, with no per-number
/// temporaries and no printf format parsing.
///
/// Doubles go through std::to_chars with std::chars_format::fixed (or
/// ::general), which the standard defines as printf's "%.*f" (or "%.*g")
/// in the "C" locale — so Num(v) is byte-identical to StrFormat("%.6f", v)
/// for every finite v. A non-finite double has no JSON spelling and is
/// written as null, never as a bare inf or nan.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  /// Literal text (punctuation, keys, separators), appended unchanged.
  JsonWriter& Raw(std::string_view text) {
    out_->append(text);
    return *this;
  }
  /// Decimal integers.
  JsonWriter& Int(long long v);
  JsonWriter& UInt(unsigned long long v);
  /// Fixed-point double with `precision` digits after the point ("%.*f");
  /// null when non-finite.
  JsonWriter& Num(double v, int precision = 6);
  /// Shortest-of-fixed-or-exponent double with `precision` significant
  /// digits ("%.*g"); null when non-finite.
  JsonWriter& NumG(double v, int precision);
  /// A quoted JSON string: quote, backslash and every control character
  /// are escaped (\n, \r, \t by name, the rest as \u00XX); other bytes,
  /// including UTF-8 sequences, pass through.
  JsonWriter& Str(std::string_view s);

 private:
  std::string* out_;
};

}  // namespace mrs

#endif  // MRS_COMMON_JSON_WRITER_H_
