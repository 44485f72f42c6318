#include "obs/prometheus.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace mpqe {
namespace {

// A registry path mapped onto a Prometheus family: the low-cardinality
// segments become the family name, the high-cardinality middle segment
// (node id, predicate name, scc, ...) becomes a label.
struct MappedPath {
  std::string family;  // without the mpqe_ prefix
  std::string label_key;
  std::string label_value;  // unescaped
};

std::vector<std::string> SplitPath(const std::string& name) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= name.size(); ++i) {
    if (i == name.size() || name[i] == '/') {
      parts.push_back(name.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string JoinUnderscore(const std::vector<std::string>& parts, size_t from,
                           size_t to) {
  std::string out;
  for (size_t i = from; i < to; ++i) {
    if (!out.empty()) out += '_';
    out += parts[i];
  }
  return out;
}

MappedPath MapPath(const std::string& name) {
  std::vector<std::string> p = SplitPath(name);
  const size_t n = p.size();
  if (n == 3 && p[0] == "node") return {"node_" + p[2], "node", p[1]};
  if (n == 3 && p[0] == "predicate") {
    return {"predicate_" + p[2], "predicate", p[1]};
  }
  if (n == 3 && p[0] == "phase") return {"phase_" + p[2], "phase", p[1]};
  if (n == 3 && p[0] == "scc") return {"scc_" + p[2], "scc", p[1]};
  if (n == 4 && p[0] == "aggregated" && p[1] == "node") {
    return {"profile_node_" + p[3], "node", p[2]};
  }
  if (n == 3 && p[0] == "msg" && p[1] == "sent") {
    return {"msg_sent", "kind", p[2]};
  }
  if (n == 2 && p[0] == "termination") {
    return {"termination_events", "event", p[1]};
  }
  return {JoinUnderscore(p, 0, n), "", ""};
}

// Metric names admit [a-zA-Z0-9_:] only.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

// Text-format 0.0.4 escaping for HELP text: backslash and line feed
// only (quotes stay literal — help is not quoted).
std::string EscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Text-format 0.0.4 escaping for quoted label values: backslash,
// double-quote, and line feed.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// `label="value"` rendered for a series, or "" for a bare family.
std::string RenderLabels(const MappedPath& mapped) {
  if (mapped.label_key.empty()) return "";
  return StrCat(mapped.label_key, "=\"", EscapeLabelValue(mapped.label_value),
                "\"");
}

std::string FormatValue(double value) {
  const int64_t as_int = static_cast<int64_t>(value);
  if (value == static_cast<double>(as_int)) return StrCat(as_int);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return std::string(buf);
}

struct Series {
  std::string labels;  // rendered `key="value"`, or ""
  double value = 0;
  const Histogram* histogram = nullptr;
};

struct Family {
  char type = 'c';  // 'c'ounter | 'g'auge | 'h'istogram
  std::string help;
  std::vector<Series> series;
};

const char* TypeName(char type) {
  switch (type) {
    case 'g':
      return "gauge";
    case 'h':
      return "histogram";
    default:
      return "counter";
  }
}

// Inserts the series into its family, creating the family on first
// use. A family name is claimed by one metric type; should a path of a
// different type map onto a taken name, the type is appended to keep
// the exposition well-formed instead of silently dropping the series.
void AddSeries(std::map<std::string, Family>& families, std::string family,
               char type, const std::string& source_path, Series series) {
  auto [it, inserted] = families.emplace(family, Family{});
  if (!inserted && it->second.type != type) {
    family = StrCat(family, "_", TypeName(type));
    it = families.emplace(family, Family{}).first;
  }
  if (it->second.series.empty()) {
    it->second.type = type;
    it->second.help =
        StrCat(TypeName(type), " from registry path '", source_path, "'");
  }
  it->second.series.push_back(std::move(series));
}

// Inclusive upper bound of log2 bucket b (bucket b holds samples of
// bit width b; bucket 0 holds sample 0).
uint64_t BucketBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

void AppendHistogram(std::string& out, const std::string& family_name,
                     const Series& series) {
  const Histogram& h = *series.histogram;
  const std::vector<uint64_t> buckets = h.BucketCounts();
  size_t last_nonzero = 0;
  uint64_t total = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] != 0) last_nonzero = b;
    total += buckets[b];
  }
  const std::string sep = series.labels.empty() ? "" : ",";
  uint64_t cumulative = 0;
  // Empty histograms emit only +Inf: scrape stays small, count 0 says
  // the rest.
  if (total > 0) {
    for (size_t b = 0; b <= last_nonzero; ++b) {
      cumulative += buckets[b];
      out += StrCat(family_name, "_bucket{", series.labels, sep,
                    "le=\"", BucketBound(b), "\"} ", cumulative, "\n");
    }
  }
  // +Inf and _count derive from the SAME bucket snapshot as the
  // cumulative rows above — a concurrent Record between BucketCounts()
  // and a separate h.count() read could otherwise make +Inf smaller
  // than a preceding bucket, i.e. a non-monotonic histogram.
  out += StrCat(family_name, "_bucket{", series.labels, sep,
                "le=\"+Inf\"} ", total, "\n");
  const std::string braces =
      series.labels.empty() ? "" : StrCat("{", series.labels, "}");
  out += StrCat(family_name, "_sum", braces, " ", h.sum(), "\n");
  out += StrCat(family_name, "_count", braces, " ", total, "\n");
}

}  // namespace

std::string ToPrometheusText(const MetricsRegistry& registry,
                             const PrometheusOptions& options) {
  std::map<std::string, Family> families;

  for (const auto& [name, value] : registry.CounterRows()) {
    MappedPath mapped = MapPath(name);
    AddSeries(families, SanitizeName(mapped.family), 'c', name,
              Series{RenderLabels(mapped), static_cast<double>(value),
                     nullptr});
  }
  for (const auto& [name, value] : registry.GaugeRows()) {
    MappedPath mapped = MapPath(name);
    AddSeries(families, SanitizeName(mapped.family), 'g', name,
              Series{RenderLabels(mapped), value, nullptr});
  }
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* histogram = registry.FindHistogram(name);
    if (histogram == nullptr) continue;
    MappedPath mapped = MapPath(name);
    AddSeries(families, SanitizeName(mapped.family), 'h', name,
              Series{RenderLabels(mapped), 0.0, histogram});
  }

  std::string out;
  const std::string prefix =
      options.prefix.empty() ? "" : options.prefix + "_";
  for (auto& [family, data] : families) {
    const std::string full = prefix + family;
    out += StrCat("# HELP ", full, " ", EscapeHelp(data.help), "\n");
    out += StrCat("# TYPE ", full, " ", TypeName(data.type), "\n");
    // Rows within a family come out sorted by label: the registry rows
    // arrive sorted by path, and within one family the label is the
    // only varying path segment — but paths sort on the raw '/' form,
    // so impose label order explicitly for byte-stable scrapes.
    std::sort(data.series.begin(), data.series.end(),
              [](const Series& a, const Series& b) {
                return a.labels < b.labels;
              });
    for (const Series& series : data.series) {
      if (data.type == 'h') {
        AppendHistogram(out, full, series);
      } else if (series.labels.empty()) {
        out += StrCat(full, " ", FormatValue(series.value), "\n");
      } else {
        out += StrCat(full, "{", series.labels, "} ",
                      FormatValue(series.value), "\n");
      }
    }
  }
  return out;
}

}  // namespace mpqe
