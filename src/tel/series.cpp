#include "tel/series.h"

#include <bit>
#include <cstdio>

#include "util/digest.h"

namespace pbecc::tel {

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_f64_text(std::string& out, double v) {
  char buf[40];
  // %.17g round-trips every finite double, and prints integral values
  // without trailing noise — both needed for byte-stable diffs.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

Recorder::Recorder(std::size_t max_samples_per_series)
    : max_samples_(max_samples_per_series < 2 ? 2 : max_samples_per_series) {}

void Recorder::set_meta(std::string_view key, std::string_view value) {
  meta_[std::string(key)] = std::string(value);
}

Series& Recorder::series_for(std::string_view name, std::string_view unit,
                             ValueKind kind, bool& kind_ok) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    Series s;
    s.name = std::string(name);
    s.unit = std::string(unit);
    s.kind = kind;
    it = series_.emplace(s.name, std::move(s)).first;
  }
  kind_ok = it->second.kind == kind;
  return it->second;
}

void Recorder::append_f64(std::string_view name, std::string_view unit,
                          util::Time t, double v) {
  bool kind_ok = false;
  Series& s = series_for(name, unit, ValueKind::kF64, kind_ok);
  if (!kind_ok) {
    ++kind_conflicts_;
    return;
  }
  if (s.t.size() >= max_samples_) {
    const std::size_t half = max_samples_ / 2;
    s.t.erase(s.t.begin(), s.t.begin() + static_cast<std::ptrdiff_t>(half));
    s.f64.erase(s.f64.begin(), s.f64.begin() + static_cast<std::ptrdiff_t>(half));
  }
  s.t.push_back(t);
  s.f64.push_back(v);
}

void Recorder::append_i64(std::string_view name, std::string_view unit,
                          util::Time t, std::int64_t v) {
  bool kind_ok = false;
  Series& s = series_for(name, unit, ValueKind::kI64, kind_ok);
  if (!kind_ok) {
    ++kind_conflicts_;
    return;
  }
  if (s.t.size() >= max_samples_) {
    const std::size_t half = max_samples_ / 2;
    s.t.erase(s.t.begin(), s.t.begin() + static_cast<std::ptrdiff_t>(half));
    s.i64.erase(s.i64.begin(), s.i64.begin() + static_cast<std::ptrdiff_t>(half));
  }
  s.t.push_back(t);
  s.i64.push_back(v);
}

const Series* Recorder::find(std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::size_t Recorder::total_samples() const {
  std::size_t n = 0;
  for (const auto& [name, s] : series_) n += s.size();
  return n;
}

std::uint64_t Recorder::digest() const {
  std::uint64_t h = util::kFnv1aOffset;
  for (const auto& [k, v] : meta_) {
    h = util::fnv1a64(k.data(), k.size(), h);
    h = util::fnv1a64(v.data(), v.size(), h);
  }
  for (const auto& [name, s] : series_) {
    h = util::fnv1a64(s.name.data(), s.name.size(), h);
    h = util::fnv1a64(s.unit.data(), s.unit.size(), h);
    h = util::fnv1a64_value(static_cast<std::uint8_t>(s.kind), h);
    for (std::size_t i = 0; i < s.size(); ++i) {
      h = util::fnv1a64_value(s.t[i], h);
      if (s.kind == ValueKind::kF64) {
        // Hash the bit pattern, not the rounded text: -0.0 vs 0.0 and NaN
        // payloads must all count as differences.
        h = util::fnv1a64_value(std::bit_cast<std::uint64_t>(s.f64[i]), h);
      } else {
        h = util::fnv1a64_value(s.i64[i], h);
      }
    }
  }
  return h;
}

std::string Recorder::to_json() const {
  std::string out;
  out.reserve(256 + total_samples() * 16);
  out += "{\"schema_version\":";
  out += std::to_string(kSchemaVersion);
  out += ",\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, k);
    out += "\":\"";
    append_json_escaped(out, v);
    out += '"';
  }
  out += "},\"series\":[";
  first = true;
  for (const auto& [name, s] : series_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"unit\":\"";
    append_json_escaped(out, s.unit);
    out += "\",\"kind\":\"";
    out += s.kind == ValueKind::kF64 ? "f64" : "i64";
    out += "\",\"t\":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(s.t[i]);
    }
    out += "],\"v\":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i) out += ',';
      if (s.kind == ValueKind::kF64) {
        append_f64_text(out, s.f64[i]);
      } else {
        out += std::to_string(s.i64[i]);
      }
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string Recorder::to_csv() const {
  std::string out = "series,unit,t_us,value\n";
  out.reserve(64 + total_samples() * 32);
  for (const auto& [name, s] : series_) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      out += s.name;
      out += ',';
      out += s.unit;
      out += ',';
      out += std::to_string(s.t[i]);
      out += ',';
      if (s.kind == ValueKind::kF64) {
        append_f64_text(out, s.f64[i]);
      } else {
        out += std::to_string(s.i64[i]);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace pbecc::tel
