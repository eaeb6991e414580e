#include "obs/export.h"

#include <cinttypes>

#include "common/json.h"

namespace dbm::obs {

std::string ToJson(const std::vector<MetricSnapshot>& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(m.name) + "\",\"kind\":\"";
    out += MetricKindName(m.kind);
    out += "\"";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + std::to_string(m.count);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + JsonNumber(m.value);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":" + std::to_string(m.count);
        out += ",\"sum\":" + JsonNumber(m.sum);
        out += ",\"mean\":" + JsonNumber(m.mean);
        out += ",\"min\":" + std::to_string(m.min);
        out += ",\"max\":" + std::to_string(m.max);
        out += ",\"p50\":" + JsonNumber(m.p50);
        out += ",\"p90\":" + JsonNumber(m.p90);
        out += ",\"p99\":" + JsonNumber(m.p99);
        out += ",\"buckets\":[";
        bool first_bucket = true;
        for (size_t b = 0; b < m.buckets.size(); ++b) {
          if (m.buckets[b] == 0) continue;
          if (!first_bucket) out += ",";
          first_bucket = false;
          out += "[" + std::to_string(Histogram::BucketLowerBound(b)) + "," +
                 std::to_string(m.buckets[b]) + "]";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void TextDump(std::FILE* out, const std::vector<MetricSnapshot>& snapshot) {
  for (const MetricSnapshot& m : snapshot) {
    switch (m.kind) {
      case MetricKind::kCounter:
        std::fprintf(out, "%-52s counter %" PRIu64 "\n", m.name.c_str(),
                     m.count);
        break;
      case MetricKind::kGauge:
        std::fprintf(out, "%-52s gauge   %.6g\n", m.name.c_str(), m.value);
        break;
      case MetricKind::kHistogram:
        std::fprintf(out,
                     "%-52s hist    n=%" PRIu64 " mean=%.1f min=%" PRIu64
                     " p50=%.1f p99=%.1f max=%" PRIu64 "\n",
                     m.name.c_str(), m.count, m.mean, m.min, m.p50, m.p99,
                     m.max);
        break;
    }
  }
}

Status WriteJsonFile(const std::string& path, const Registry& registry) {
  std::string doc = ToJson(registry.Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  int close_rc = std::fclose(f);
  if (written != doc.size() || close_rc != 0) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace dbm::obs
