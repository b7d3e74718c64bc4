#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/common/logging.h"

namespace aft {
namespace obs {
namespace internal {

size_t ThisThreadLane() {
  // Hash of the thread id, computed once per thread. Collisions just share a
  // lane; correctness is unaffected.
  thread_local const size_t lane =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kLanes;
  return lane;
}

}  // namespace internal

namespace {

double DecodeDouble(uint64_t bits) {
  double v = 0;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t EncodeDouble(double v) {
  uint64_t bits = 0;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Prometheus label-value escaping: backslash, double-quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Renders `{k1="v1",k2="v2"}` (empty string for no labels), optionally with
// one extra label appended (the histogram `le`).
std::string RenderLabels(const MetricLabels& labels, const std::string& extra_key = "",
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) {
      out += ',';
    }
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return std::string(buf);
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return std::string(buf);
}

// Canonical child key: label pairs sorted by key.
std::string LabelSignature(const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string sig;
  for (const auto& [key, value] : sorted) {
    sig += key;
    sig += '\x01';
    sig += value;
    sig += '\x02';
  }
  return sig;
}

}  // namespace

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)), buckets_(boundaries_.size() + 1) {}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(boundaries_, value)].fetch_add(1, std::memory_order_relaxed);
  auto& lane = sum_lanes_[internal::ThisThreadLane()].value;
  uint64_t old = lane.load(std::memory_order_relaxed);
  while (!lane.compare_exchange_weak(old, EncodeDouble(DecodeDouble(old) + value),
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0;
  for (const auto& lane : sum_lanes_) {
    total += DecodeDouble(lane.value.load(std::memory_order_relaxed));
  }
  return total;
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    out[i] = running;
  }
  return out;
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> snapshot(buckets_.size());
  uint64_t count = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
    count += snapshot[i];
  }
  if (count == 0 || boundaries_.empty()) {
    return 0;
  }
  // Nearest-rank target among `count` samples (1-based).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count))));
  uint64_t before = 0;
  for (size_t i = 0; i < boundaries_.size(); ++i) {
    if (before + snapshot[i] >= rank) {
      const double lo = i == 0 ? 0.0 : boundaries_[i - 1];
      const double frac =
          static_cast<double>(rank - before) / static_cast<double>(snapshot[i]);
      return lo + (boundaries_[i] - lo) * frac;
    }
    before += snapshot[i];
  }
  return boundaries_.back();  // The rank is in the +Inf bucket.
}

// ---- ScopedMetricCallback --------------------------------------------------

void ScopedMetricCallback::Release() {
  if (registry_ != nullptr) {
    registry_->UnregisterCallback(token_);
    registry_ = nullptr;
  }
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family* MetricsRegistry::FindOrCreateFamilyLocked(const std::string& name,
                                                                   const std::string& help,
                                                                   Type type) {
  for (auto& family : families_) {
    if (family->name == name) {
      if (family->type != type) {
        return nullptr;
      }
      return family.get();
    }
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->type = type;
  families_.push_back(std::move(family));
  return families_.back().get();
}

MetricsRegistry::Child* MetricsRegistry::FindOrCreateChildLocked(Family& family,
                                                                 MetricLabels labels) {
  std::string signature = LabelSignature(labels);
  for (auto& child : family.children) {
    if (child->signature == signature) {
      return child.get();
    }
  }
  auto child = std::make_unique<Child>();
  child->labels = std::move(labels);
  child->signature = std::move(signature);
  family.children.push_back(std::move(child));
  return family.children.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const std::string& help,
                                     MetricLabels labels) {
  MutexLock lock(mu_);
  Family* family = FindOrCreateFamilyLocked(name, help, Type::kCounter);
  if (family == nullptr) {
    AFT_LOG(Warn) << "metric '" << name << "' re-registered with a different type";
    detached_.push_back(std::make_unique<Child>());
    detached_.back()->counter = std::make_unique<Counter>();
    return detached_.back()->counter.get();
  }
  Child* child = FindOrCreateChildLocked(*family, std::move(labels));
  if (child->counter == nullptr) {
    child->counter = std::make_unique<Counter>();
  }
  return child->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& help,
                                 MetricLabels labels) {
  MutexLock lock(mu_);
  Family* family = FindOrCreateFamilyLocked(name, help, Type::kGauge);
  if (family == nullptr) {
    AFT_LOG(Warn) << "metric '" << name << "' re-registered with a different type";
    detached_.push_back(std::make_unique<Child>());
    detached_.back()->gauge = std::make_unique<Gauge>();
    return detached_.back()->gauge.get();
  }
  Child* child = FindOrCreateChildLocked(*family, std::move(labels));
  if (child->gauge == nullptr) {
    child->gauge = std::make_unique<Gauge>();
  }
  return child->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, const std::string& help,
                                         std::vector<double> boundaries, MetricLabels labels) {
  MutexLock lock(mu_);
  Family* family = FindOrCreateFamilyLocked(name, help, Type::kHistogram);
  if (family == nullptr) {
    AFT_LOG(Warn) << "metric '" << name << "' re-registered with a different type";
    detached_.push_back(std::make_unique<Child>());
    detached_.back()->histogram = std::make_unique<Histogram>(std::move(boundaries));
    return detached_.back()->histogram.get();
  }
  Child* child = FindOrCreateChildLocked(*family, std::move(labels));
  if (child->histogram == nullptr) {
    child->histogram = std::make_unique<Histogram>(std::move(boundaries));
  }
  return child->histogram.get();
}

ScopedMetricCallback MetricsRegistry::RegisterCallback(const std::string& name,
                                                       const std::string& help, CallbackType type,
                                                       MetricLabels labels,
                                                       std::function<double()> fn) {
  const Type family_type =
      type == CallbackType::kCounter ? Type::kCallbackCounter : Type::kCallbackGauge;
  MutexLock lock(mu_);
  Family* family = FindOrCreateFamilyLocked(name, help, family_type);
  if (family == nullptr) {
    AFT_LOG(Warn) << "metric '" << name << "' re-registered with a different type";
    return ScopedMetricCallback();
  }
  Child* child = FindOrCreateChildLocked(*family, std::move(labels));
  child->callback = std::move(fn);
  child->callback_token = next_callback_token_++;
  return ScopedMetricCallback(this, child->callback_token);
}

void MetricsRegistry::UnregisterCallback(uint64_t token) {
  MutexLock lock(mu_);
  for (auto& family : families_) {
    for (auto& child : family->children) {
      if (child->callback_token == token) {
        // Only clear if a newer registration has not replaced this slot.
        child->callback = nullptr;
        child->callback_token = 0;
        return;
      }
    }
  }
}

std::string MetricsRegistry::Exposition() const {
  MutexLock lock(mu_);
  // Deterministic output: families by name, children by label signature.
  std::vector<const Family*> families;
  families.reserve(families_.size());
  for (const auto& family : families_) {
    families.push_back(family.get());
  }
  std::sort(families.begin(), families.end(),
            [](const Family* a, const Family* b) { return a->name < b->name; });

  std::string out;
  for (const Family* family : families) {
    std::vector<const Child*> children;
    children.reserve(family->children.size());
    for (const auto& child : family->children) {
      if ((family->type == Type::kCallbackCounter || family->type == Type::kCallbackGauge) &&
          child->callback == nullptr) {
        continue;  // Unregistered callback slot.
      }
      children.push_back(child.get());
    }
    if (children.empty()) {
      continue;
    }
    std::sort(children.begin(), children.end(),
              [](const Child* a, const Child* b) { return a->signature < b->signature; });

    out += "# HELP " + family->name + " " + family->help + "\n";
    const char* type_name = "untyped";
    switch (family->type) {
      case Type::kCounter:
      case Type::kCallbackCounter:
        type_name = "counter";
        break;
      case Type::kGauge:
      case Type::kCallbackGauge:
        type_name = "gauge";
        break;
      case Type::kHistogram:
        type_name = "histogram";
        break;
    }
    out += "# TYPE " + family->name + " " + std::string(type_name) + "\n";

    for (const Child* child : children) {
      switch (family->type) {
        case Type::kCounter:
          out += family->name + RenderLabels(child->labels) + " " +
                 FormatU64(child->counter->Value()) + "\n";
          break;
        case Type::kGauge:
          out += family->name + RenderLabels(child->labels) + " " +
                 FormatDouble(child->gauge->Value()) + "\n";
          break;
        case Type::kCallbackCounter:
        case Type::kCallbackGauge:
          out += family->name + RenderLabels(child->labels) + " " +
                 FormatDouble(child->callback()) + "\n";
          break;
        case Type::kHistogram: {
          const Histogram& hist = *child->histogram;
          const std::vector<uint64_t> cumulative = hist.CumulativeCounts();
          const std::vector<double>& bounds = hist.boundaries();
          for (size_t i = 0; i < bounds.size(); ++i) {
            out += family->name + "_bucket" +
                   RenderLabels(child->labels, "le", FormatDouble(bounds[i])) + " " +
                   FormatU64(cumulative[i]) + "\n";
          }
          out += family->name + "_bucket" + RenderLabels(child->labels, "le", "+Inf") + " " +
                 FormatU64(cumulative.back()) + "\n";
          out += family->name + "_sum" + RenderLabels(child->labels) + " " +
                 FormatDouble(hist.Sum()) + "\n";
          out += family->name + "_count" + RenderLabels(child->labels) + " " +
                 FormatU64(cumulative.back()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

bool MetricsRegistry::ReadValue(const std::string& name, const MetricLabels& labels,
                                double* out) const {
  const std::string signature = LabelSignature(labels);
  MutexLock lock(mu_);
  for (const auto& family : families_) {
    if (family->name != name) {
      continue;
    }
    for (const auto& child : family->children) {
      if (child->signature != signature) {
        continue;
      }
      switch (family->type) {
        case Type::kCounter:
          *out = static_cast<double>(child->counter->Value());
          return true;
        case Type::kGauge:
          *out = child->gauge->Value();
          return true;
        case Type::kHistogram:
          *out = static_cast<double>(child->histogram->Count());
          return true;
        case Type::kCallbackCounter:
        case Type::kCallbackGauge:
          if (child->callback == nullptr) {
            return false;
          }
          *out = child->callback();
          return true;
      }
    }
  }
  return false;
}

}  // namespace obs
}  // namespace aft
