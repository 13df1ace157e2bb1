#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "plan/plan_stats.h"
#include "util/check.h"

namespace joinboost {
namespace bench {

/// Global scale multiplier: set JB_SCALE=10 for runs closer to paper sizes.
inline double Scale() {
  const char* env = std::getenv("JB_SCALE");
  if (!env) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline size_t ScaledRows(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

inline void Header(const std::string& title, const std::string& paper_shape) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper_shape: %s\n", paper_shape.c_str());
  std::printf("================================================================\n");
}

inline void Row(const std::string& label, double value,
                const std::string& unit = "s") {
  std::printf("  %-40s %10.4f %s\n", label.c_str(), value, unit.c_str());
}

inline void Note(const std::string& text) {
  std::printf("  -- %s\n", text.c_str());
}

/// Print a series as "label: v0 v1 v2 ..." (one figure line).
inline void Series(const std::string& label, const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  std::printf("  series %-24s:", label.c_str());
  for (size_t i = 0; i < ys.size(); ++i) {
    if (i < xs.size()) {
      std::printf(" (%g, %.3f)", xs[i], ys[i]);
    } else {
      std::printf(" %.3f", ys[i]);
    }
  }
  std::printf("\n");
}

/// Streaming writer for a bench's JSON result: nested objects and arrays of
/// numbers and strings, two-space indented. Inside an object each call names
/// its member with `key`; inside an array the key is left empty. Save()
/// writes the document to $JB_BENCH_JSON, or to `default_path` when unset.
class Json {
 public:
  Json() : out_("{"), close_(1, '}') {}

  Json& Object(const std::string& key = "") { return Open(key, '{', '}'); }
  Json& Array(const std::string& key = "") { return Open(key, '[', ']'); }
  Json& End() {
    char close = close_.back();
    close_.pop_back();
    if (!first_) out_ += "\n" + Indent();
    out_ += close;
    first_ = false;
    return *this;
  }

  Json& Num(const std::string& key, double v, int decimals = 4) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return Member(key, buf);
  }
  Json& Int(const std::string& key, unsigned long long v) {
    return Member(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Member(key, Quote(v));
  }
  /// The named PlanStats counters as integer members keyed by their names,
  /// read through the counter list (an unknown name throws).
  Json& Counters(const plan::PlanStats& s,
                 std::initializer_list<const char*> names) {
    for (const char* name : names) {
      bool found = false;
      s.ForEach([&](const plan::CounterInfo& c, size_t v) {
        if (std::strcmp(c.name, name) != 0) return;
        Int(name, v);
        found = true;
      });
      JB_CHECK_MSG(found, "no PlanStats counter named " << name);
    }
    return *this;
  }

  bool Save(const char* default_path) {
    JB_CHECK_MSG(close_.size() == 1, "unclosed JSON object or array");
    End();
    out_ += "\n";
    const char* path = std::getenv("JB_BENCH_JSON");
    if (path == nullptr || path[0] == '\0') path = default_path;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::printf("  -- could not open %s for writing\n", path);
      return false;
    }
    std::fputs(out_.c_str(), f);
    std::fclose(f);
    std::printf("  -- wrote %s\n", path);
    return true;
  }

 private:
  Json& Member(const std::string& key, const std::string& value) {
    out_ += first_ ? "\n" : ",\n";
    out_ += Indent();
    if (!key.empty()) out_ += Quote(key) + ": ";
    out_ += value;
    first_ = false;
    return *this;
  }
  Json& Open(const std::string& key, char open, char close) {
    Member(key, std::string(1, open));
    close_.push_back(close);
    first_ = true;
    return *this;
  }
  std::string Indent() const { return std::string(2 * close_.size(), ' '); }
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  }

  std::string out_;
  std::vector<char> close_;  ///< closing bracket of each open container
  bool first_ = true;        ///< no member written yet at this level
};

}  // namespace bench
}  // namespace joinboost
