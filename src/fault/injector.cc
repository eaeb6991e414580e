#include "fault/injector.h"

#include <cstdio>
#include <cstdlib>

#include "common/result.h"
#include "common/strings.h"

namespace dbm::fault {

namespace {

/// FNV-1a, not std::hash: point seeds must be identical across
/// platforms or "deterministic under a fixed seed" is a lie.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Result<FaultKind> ParseKind(std::string_view word) {
  if (word == "error") return FaultKind::kError;
  if (word == "crash") return FaultKind::kCrash;
  if (word == "hang") return FaultKind::kHang;
  if (word == "latency") return FaultKind::kLatency;
  if (word == "flap") return FaultKind::kFlap;
  if (word == "partition") return FaultKind::kPartition;
  return Status::ParseError("unknown fault kind '" + std::string(word) +
                            "' (error|crash|hang|latency|flap|partition)");
}

bool IsProbabilistic(FaultKind kind) {
  return kind == FaultKind::kError || kind == FaultKind::kCrash ||
         kind == FaultKind::kHang;
}

/// "0.01" | "1%" for probabilities; "40" | "40cy" | "200us" | "5ms" |
/// "1s" for durations (bare numbers pass through unscaled: cycles at ORB
/// points, µs elsewhere — the site's time base decides).
Status ParseValue(std::string_view text, FaultRule* rule) {
  if (text.empty()) {
    return Status::ParseError("empty value after '@'");
  }
  std::string buf(text);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  size_t consumed = static_cast<size_t>(end - buf.c_str());
  std::string_view unit = text.substr(consumed);
  if (IsProbabilistic(rule->kind)) {
    if (unit == "%") v /= 100.0;
    else if (!unit.empty()) {
      return Status::ParseError("probability takes no unit '" +
                                std::string(unit) + "'");
    }
    if (v < 0.0 || v > 1.0) {
      return Status::ParseError("probability out of [0,1]: " +
                                std::string(text));
    }
    rule->probability = v;
    return Status::OK();
  }
  int64_t scale = 1;
  if (unit == "us" || unit == "cy" || unit.empty()) scale = 1;
  else if (unit == "ms") scale = 1000;
  else if (unit == "s") scale = 1000 * 1000;
  else {
    return Status::ParseError("unknown unit '" + std::string(unit) +
                              "' (us|ms|s|cy)");
  }
  rule->value = static_cast<int64_t>(v * static_cast<double>(scale));
  if (rule->value < 0) {
    return Status::ParseError("negative duration: " + std::string(text));
  }
  return Status::OK();
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError: return "error";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kLatency: return "latency";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kPartition: return "partition";
  }
  return "?";
}

Status ParseFaultSpec(std::string_view spec,
                      std::vector<std::pair<std::string, FaultRule>>* out) {
  for (const std::string& entry :
       Split(std::string(Trim(spec)), ';', /*skip_empty=*/true)) {
    std::string_view e = Trim(entry);
    if (e.empty()) continue;
    size_t colon = e.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::ParseError("expected 'point:kind[@value]', got '" +
                                std::string(e) + "'");
    }
    std::string point(Trim(e.substr(0, colon)));
    std::string_view rest = e.substr(colon + 1);
    size_t at = rest.find('@');
    FaultRule rule;
    DBM_ASSIGN_OR_RETURN(
        rule.kind, ParseKind(Trim(at == std::string_view::npos
                                      ? rest
                                      : rest.substr(0, at))));
    if (at != std::string_view::npos) {
      DBM_RETURN_NOT_OK(ParseValue(Trim(rest.substr(at + 1)), &rule));
    } else if (!IsProbabilistic(rule.kind)) {
      return Status::ParseError(std::string(FaultKindName(rule.kind)) +
                                " needs '@value'");
    }
    out->emplace_back(std::move(point), rule);
  }
  return Status::OK();
}

Decision Point::Decide() {
  Decision d;
  if (!armed()) return d;
  for (const FaultRule& r : rules_) {
    switch (r.kind) {
      case FaultKind::kError:
        if (rng_.Bernoulli(r.probability)) d.error = true;
        break;
      case FaultKind::kCrash:
        if (rng_.Bernoulli(r.probability)) d.crash = true;
        break;
      case FaultKind::kHang:
        if (rng_.Bernoulli(r.probability)) d.hang = true;
        break;
      case FaultKind::kLatency:
        d.latency += r.value;
        break;
      case FaultKind::kFlap:
      case FaultKind::kPartition:
        break;  // time-windowed; see DownAt
    }
  }
  return d;
}

bool Point::DownAt(SimTime now) const {
  if (!armed()) return false;
  for (const FaultRule& r : rules_) {
    if (r.kind == FaultKind::kFlap && r.value > 0 &&
        (now / r.value) % 2 == 1) {
      return true;
    }
    if (r.kind == FaultKind::kPartition && now >= r.value) return true;
  }
  return false;
}

void Point::Arm(const FaultRule& rule, uint64_t point_seed) {
  if (rules_.empty()) rng_.Seed(point_seed);
  rules_.push_back(rule);
  armed_.store(true, std::memory_order_relaxed);
}

void Point::Disarm() {
  armed_.store(false, std::memory_order_relaxed);
  rules_.clear();
}

Injector& Injector::Default() {
  static Injector* injector = [] {
    auto* inj = new Injector();
    const char* spec = std::getenv("DBM_FAULT_SPEC");
    if (spec != nullptr && spec[0] != '\0') {
      // A malformed seed or spec must not silently change or disable a
      // chaos run.
      uint64_t seed = 1;
      const char* seed_env = std::getenv("DBM_FAULT_SEED");
      if (seed_env != nullptr && seed_env[0] != '\0') {
        std::optional<uint64_t> parsed = ParseNumber<uint64_t>(seed_env);
        if (!parsed.has_value()) {
          std::fprintf(stderr,
                       "DBM_FAULT_SEED rejected: '%s' is not an unsigned "
                       "integer\n",
                       seed_env);
          std::abort();
        }
        seed = *parsed;
      }
      Status s = inj->Configure(spec, seed);
      if (!s.ok()) {
        std::fprintf(stderr, "DBM_FAULT_SPEC rejected: %s\n",
                     s.ToString().c_str());
        std::abort();
      }
    }
    return inj;
  }();
  return *injector;
}

Status Injector::Configure(std::string_view spec, uint64_t seed) {
  std::vector<std::pair<std::string, FaultRule>> parsed;
  DBM_RETURN_NOT_OK(ParseFaultSpec(spec, &parsed));
  Reset();
  seed_ = seed;
  spec_ = std::string(Trim(spec));
  for (const auto& [name, rule] : parsed) {
    GetPoint(name)->Arm(rule, seed ^ Fnv1a(name));
  }
  enabled_.store(!parsed.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void Injector::Reset() {
  enabled_.store(false, std::memory_order_relaxed);
  for (auto& [_, point] : points_) point->Disarm();
  spec_.clear();
}

Point* Injector::GetPoint(const std::string& name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<Point>(name)).first;
  }
  return it->second.get();
}

}  // namespace dbm::fault
