#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>

#include "obs/json.h"

namespace perfbench {

using distclk::Instance;
using distclk::Point;

void Outcome::fail(const std::string& why, bool wrongOutput) {
  ++failed;
  if (wrongOutput) ++incorrect;
  if (problems.size() < 5) problems.push_back(why);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------

int SpanLog::open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::move(name), parent, nowSeconds(), 0.0});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[std::size_t(id)].end = nowSeconds();
  // Spans nest on one thread, so the closed span is the innermost one.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

int SpanLog::add(std::string name, int parent, double start, double end) {
  spans_.push_back({std::move(name), parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanLog::SelfTime> SpanLog::selfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[std::size_t(s.parent)].emplace_back(s.start, s.end);
  std::map<std::string, SelfTime> byName;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may overlap (concurrent pool jobs under one parent), so
    // subtract the union of their intervals clipped to the parent.
    auto kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, curStart = 0.0, curEnd = -1.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open && a <= curEnd) {
        curEnd = std::max(curEnd, b);
      } else {
        if (open) covered += curEnd - curStart;
        curStart = a;
        curEnd = b;
        open = true;
      }
    }
    if (open) covered += curEnd - curStart;
    SelfTime& t = byName[s.name];
    t.name = s.name;
    ++t.count;
    t.totalMs += (s.end - s.start) * 1e3;
    t.selfMs += (s.end - s.start - covered) * 1e3;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : byName) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.selfMs > b.selfMs;
  });
  return out;
}

std::string SpanLog::toJson() const {
  using distclk::obs::JsonObject;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::string spans = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) spans += ',';
    spans += JsonObject()
                 .field("id", static_cast<std::int64_t>(i))
                 .field("name", s.name)
                 .field("parent", s.parent)
                 .field("start_s", s.start - t0)
                 .field("end_s", s.end - t0)
                 .str();
  }
  spans += ']';
  std::string self = "[";
  bool first = true;
  for (const SelfTime& t : selfTimes()) {
    if (!first) self += ',';
    first = false;
    self += JsonObject()
                .field("name", t.name)
                .field("count", t.count)
                .field("total_ms", t.totalMs)
                .field("self_ms", t.selfMs)
                .str();
  }
  self += ']';
  return JsonObject().raw("spans", spans).raw("self", self).str();
}

// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / double(v.size());
}

double excessPct(double length, double reference) {
  return 100.0 * (length / reference - 1.0);
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::optional<Tail> tailOf(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 20) return std::nullopt;
  std::sort(v.begin(), v.end());
  // Largest whole p whose nearest-rank position leaves >= 10 samples above.
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(double(p) / 100.0 * double(n)));
    if (rank >= 1 && n - rank >= 10) return Tail{p, v[rank - 1]};
  }
  return std::nullopt;
}

double histogramQuantile(const distclk::obs::HistogramData& h, double q) {
  if (h.count <= 0) return 0.0;
  const double target = q * double(h.count);
  double seen = 0.0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const double c = double(h.counts[b]);
    if (c > 0.0 && seen + c >= target) {
      const double lo = b == 0 ? std::min(h.min, h.bounds.front())
                               : h.bounds[b - 1];
      const double hi = b < h.bounds.size() ? h.bounds[b] : h.max;
      const double frac = (target - seen) / c;
      return std::clamp(lo + frac * (hi - lo), h.min, h.max);
    }
    seen += c;
  }
  return h.max;
}

// ---------------------------------------------------------------------------

std::int64_t recomputedLength(const Instance& inst,
                              std::span<const int> order) {
  const auto pts = inst.points();
  std::int64_t len = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Point& a = pts[std::size_t(order[i])];
    const Point& b = pts[std::size_t(order[(i + 1) % order.size()])];
    const double dx = a.x - b.x, dy = a.y - b.y;
    len += std::llround(std::sqrt(dx * dx + dy * dy));
  }
  return len;
}

std::string tourProblem(const Instance& inst, std::span<const int> order,
                        std::int64_t reported) {
  if (inst.weightType() != distclk::EdgeWeightType::kEuc2D || !inst.hasCoords())
    return "validator supports EUC_2D coordinate instances only";
  const int n = inst.n();
  if (static_cast<int>(order.size()) != n)
    return "tour has " + std::to_string(order.size()) + " cities, instance " +
           std::to_string(n);
  std::vector<char> seen(std::size_t(n), 0);
  for (int c : order) {
    if (c < 0 || c >= n) return "city id " + std::to_string(c) + " out of range";
    if (seen[std::size_t(c)]++) return "city " + std::to_string(c) + " repeated";
  }
  const std::int64_t len = recomputedLength(inst, order);
  if (len != reported)
    return "reported length " + std::to_string(reported) +
           " != recomputed " + std::to_string(len);
  return {};
}

// ---------------------------------------------------------------------------

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

double uniform01(std::mt19937_64& rng) {
  return double(rng() >> 11) * 0x1.0p-53;
}

Instance makeInstance(const char* family, int n, std::uint64_t seed,
                      std::vector<Point> pts) {
  return Instance(std::string(family) + std::to_string(n) + "-" +
                      std::to_string(seed),
                  std::move(pts));
}

}  // namespace

Instance uniformCities(int n, std::uint64_t seed, double side) {
  std::mt19937_64 rng(seed);
  std::vector<Point> pts(static_cast<std::size_t>(n));
  for (Point& p : pts) {
    p.x = std::floor(uniform01(rng) * side);
    p.y = std::floor(uniform01(rng) * side);
  }
  return makeInstance("uniform", n, seed, std::move(pts));
}

Instance clusteredCities(int n, std::uint64_t seed, double side) {
  std::mt19937_64 rng(seed);
  const int centres = std::max(4, n / 100);
  std::vector<Point> c(static_cast<std::size_t>(centres));
  for (Point& p : c) p = {uniform01(rng) * side, uniform01(rng) * side};
  const double sigma = side / std::sqrt(double(centres)) / 8.0;
  std::vector<Point> pts(static_cast<std::size_t>(n));
  for (Point& p : pts) {
    const Point& m = c[std::size_t(rng() % std::uint64_t(centres))];
    // Box-Muller keeps the stream independent of the library's
    // normal_distribution implementation.
    const double r = std::sqrt(-2.0 * std::log(1.0 - uniform01(rng)));
    const double a = 6.283185307179586 * uniform01(rng);
    p.x = std::floor(std::clamp(m.x + sigma * r * std::cos(a), 0.0, side));
    p.y = std::floor(std::clamp(m.y + sigma * r * std::sin(a), 0.0, side));
  }
  return makeInstance("clustered", n, seed, std::move(pts));
}

Instance drillCities(int n, std::uint64_t seed, double side) {
  std::mt19937_64 rng(seed);
  const int blocks = std::max(4, n / 120);
  const int grid = static_cast<int>(std::ceil(std::sqrt(double(blocks))));
  const double cell = side / grid;
  const int perBlock = std::max(4, (n * 9) / (blocks * 10));
  std::vector<Point> pts;
  pts.reserve(std::size_t(n));
  for (int b = 0; b < blocks && static_cast<int>(pts.size()) < n; ++b) {
    const double bx = (b % grid) * cell + cell * (0.15 + 0.3 * uniform01(rng));
    const double by = (b / grid) * cell + cell * (0.15 + 0.3 * uniform01(rng));
    const int rows = 2 + static_cast<int>(rng() % 4);
    const int cols = (perBlock + rows - 1) / rows;
    const double pitch = cell * 0.02;
    for (int h = 0; h < perBlock && static_cast<int>(pts.size()) < n; ++h)
      pts.push_back({std::floor(bx + (h % cols) * pitch),
                     std::floor(by + (h / cols) * pitch)});
  }
  while (static_cast<int>(pts.size()) < n)
    pts.push_back({std::floor(uniform01(rng) * side),
                   std::floor(uniform01(rng) * side)});
  return makeInstance("drill", n, seed, std::move(pts));
}

void parallelFor(std::size_t count, const std::function<void(std::size_t)>& fn) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(kThreads, count); ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < count; i += kThreads) fn(i);
    });
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string loadAverage() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  in >> a >> b >> c;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", a, b, c);
  return buf;
}

std::pair<std::int64_t, std::int64_t> cpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::int64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

// ---------------------------------------------------------------------------

void MemorySink::write(std::string_view line) {
  const std::lock_guard<std::mutex> lock(mu_);
  lines_.emplace_back(line);
}

std::vector<std::string> MemorySink::lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::int64_t RunMetrics::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

distclk::obs::HistogramData RunMetrics::histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? distclk::obs::HistogramData{} : it->second;
}

RunMetrics finalRunMetrics(const std::vector<std::string>& lines) {
  using distclk::obs::JsonValue;
  RunMetrics out;
  std::optional<JsonValue> last;  // latest metrics record of the open run
  for (const std::string& line : lines) {
    JsonValue rec = distclk::obs::parseJson(line);
    const std::string type = rec.str("type");
    if (type == "metrics") {
      last = std::move(rec);
      continue;
    }
    if (type != "run-end" || !last) continue;
    const JsonValue record = std::move(*last);
    last.reset();
    const JsonValue* m = record.find("metrics");
    if (m == nullptr) continue;
    if (const JsonValue* cs = m->find("counters"))
      for (const auto& [name, v] : cs->object)
        out.counters[name] += static_cast<std::int64_t>(v.number);
    const JsonValue* hs = m->find("histograms");
    if (hs == nullptr) continue;
    for (const auto& [name, v] : hs->object) {
      distclk::obs::HistogramData& h = out.histograms[name];
      const std::int64_t count = v.integer("count");
      if (count == 0) continue;
      const JsonValue* bounds = v.find("bounds");
      const JsonValue* buckets = v.find("buckets");
      if (bounds == nullptr || buckets == nullptr) continue;
      if (h.count == 0) {
        h.bounds.clear();
        for (const JsonValue& b : bounds->array) h.bounds.push_back(b.number);
        h.counts.assign(buckets->array.size(), 0);
        h.min = v.num("min");
        h.max = v.num("max");
      }
      for (std::size_t i = 0; i < buckets->array.size() && i < h.counts.size();
           ++i)
        h.counts[i] += static_cast<std::int64_t>(buckets->array[i].number);
      h.count += count;
      h.sum += v.num("sum");
      h.min = std::min(h.min, v.num("min"));
      h.max = std::max(h.max, v.num("max"));
    }
  }
  return out;
}

}  // namespace perfbench
