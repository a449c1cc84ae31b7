#include "common/json_writer.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/logging.h"

namespace mrs {

namespace {

// Room for the widest fixed-point double: 309 integer digits of DBL_MAX,
// sign, point and the fraction digits of any precision the exports use.
constexpr size_t kNumBuffer = 352;

void AppendDouble(std::string* out, double v, std::chars_format format,
                  int precision) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[kNumBuffer];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, format, precision);
  MRS_CHECK(ec == std::errc()) << "precision " << precision << " too wide";
  out->append(buf, end);
}

}  // namespace

JsonWriter& JsonWriter::Int(long long v) {
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::UInt(unsigned long long v) {
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::Num(double v, int precision) {
  AppendDouble(out_, v, std::chars_format::fixed, precision);
  return *this;
}

JsonWriter& JsonWriter::NumG(double v, int precision) {
  AppendDouble(out_, v, std::chars_format::general, precision);
  return *this;
}

JsonWriter& JsonWriter::Str(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out_->append("\\\"");
        break;
      case '\\':
        out_->append("\\\\");
        break;
      case '\n':
        out_->append("\\n");
        break;
      case '\r':
        out_->append("\\r");
        break;
      case '\t':
        out_->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char escaped[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                                  kHex[c & 0xf]};
          out_->append(escaped, sizeof(escaped));
        } else {
          out_->push_back(c);
        }
    }
  }
  out_->push_back('"');
  return *this;
}

}  // namespace mrs
