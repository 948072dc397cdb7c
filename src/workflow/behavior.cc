#include "workflow/behavior.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/rng.h"

namespace chiron {
namespace {

// True when `segments` is what the constructor would produce from itself:
// no empty segments and no adjacent segments of the same kind.
[[maybe_unused]] bool canonical(const std::vector<Segment>& segments) {
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].duration <= 0.0) return false;
    if (i > 0 && segments[i].kind == segments[i - 1].kind) return false;
  }
  return true;
}

}  // namespace

FunctionBehavior::FunctionBehavior(std::vector<Segment> segments) {
  segments_.reserve(segments.size());
  for (const Segment& s : segments) {
    if (s.duration < 0.0) {
      throw std::invalid_argument("segment duration must be non-negative");
    }
    if (s.duration == 0.0) continue;
    if (!segments_.empty() && segments_.back().kind == s.kind) {
      segments_.back().duration += s.duration;
    } else {
      segments_.push_back(s);
    }
  }
}

FunctionBehavior FunctionBehavior::from_block_periods(
    TimeMs solo_latency, const std::vector<BlockPeriod>& periods) {
  if (solo_latency < 0.0) {
    throw std::invalid_argument("solo latency must be non-negative");
  }
  std::vector<Segment> segs;
  TimeMs cursor = 0.0;
  for (const BlockPeriod& p : periods) {
    if (p.start < cursor - 1e-9 || p.end < p.start ||
        p.end > solo_latency + 1e-9) {
      throw std::invalid_argument(
          "block periods must be sorted, disjoint and within the latency");
    }
    if (p.start > cursor) {
      segs.push_back({Segment::Kind::kCpu, p.start - cursor});
    }
    segs.push_back({Segment::Kind::kBlock, p.duration()});
    cursor = p.end;
  }
  if (cursor < solo_latency) {
    segs.push_back({Segment::Kind::kCpu, solo_latency - cursor});
  }
  return FunctionBehavior(std::move(segs));
}

TimeMs FunctionBehavior::total_cpu() const {
  TimeMs total = 0.0;
  for (const Segment& s : segments_) {
    if (s.kind == Segment::Kind::kCpu) total += s.duration;
  }
  return total;
}

TimeMs FunctionBehavior::total_block() const {
  TimeMs total = 0.0;
  for (const Segment& s : segments_) {
    if (s.kind == Segment::Kind::kBlock) total += s.duration;
  }
  return total;
}

std::vector<BlockPeriod> FunctionBehavior::block_periods() const {
  std::vector<BlockPeriod> periods;
  TimeMs cursor = 0.0;
  for (const Segment& s : segments_) {
    if (s.kind == Segment::Kind::kBlock) {
      periods.push_back({cursor, cursor + s.duration});
    }
    cursor += s.duration;
  }
  return periods;
}

FunctionBehavior FunctionBehavior::scaled(double factor) const {
  if (factor <= 0.0) throw std::invalid_argument("scale factor must be > 0");
  std::vector<Segment> segs = segments_;
  for (Segment& s : segs) s.duration *= factor;
  return FunctionBehavior(std::move(segs));
}

FunctionBehavior FunctionBehavior::with_blocks_scaled(double factor) const {
  if (factor < 0.0) throw std::invalid_argument("block scale must be >= 0");
  std::vector<Segment> segs = segments_;
  for (Segment& s : segs) {
    if (s.kind == Segment::Kind::kBlock) s.duration *= factor;
  }
  return FunctionBehavior(std::move(segs));
}

FunctionBehavior FunctionBehavior::with_cpu_overhead(double overhead) const {
  if (overhead < 0.0) throw std::invalid_argument("overhead must be >= 0");
  std::vector<Segment> segs = segments_;
  for (Segment& s : segs) {
    if (s.kind == Segment::Kind::kCpu) s.duration *= (1.0 + overhead);
  }
  return FunctionBehavior(std::move(segs));
}

void FunctionBehavior::assign_jittered(const FunctionBehavior& base,
                                       double sigma, Rng& rng) {
  segments_.assign(base.segments_.begin(), base.segments_.end());
  if (sigma > 0.0) {
    for (Segment& s : segments_) s.duration *= rng.jitter(sigma);
  }
  assert(canonical(segments_));
}

void FunctionBehavior::assign_cpu_scaled(const FunctionBehavior& base,
                                         double f1, double f2) {
  if (f1 < 1.0 || f2 < 1.0) {
    throw std::invalid_argument("cpu scale factors must be >= 1");
  }
  segments_.assign(base.segments_.begin(), base.segments_.end());
  for (Segment& s : segments_) {
    if (s.kind == Segment::Kind::kCpu) {
      s.duration *= f1;
      s.duration *= f2;
    }
  }
  assert(canonical(segments_));
}

FunctionBehavior cpu_bound(TimeMs cpu_ms) {
  return FunctionBehavior({{Segment::Kind::kCpu, cpu_ms}});
}

FunctionBehavior network_io_bound(TimeMs cpu_ms, TimeMs block_ms) {
  return FunctionBehavior({{Segment::Kind::kCpu, cpu_ms * 0.5},
                           {Segment::Kind::kBlock, block_ms},
                           {Segment::Kind::kCpu, cpu_ms * 0.5}});
}

FunctionBehavior disk_io_bound(TimeMs cpu_ms, TimeMs block_total_ms,
                               int block_count) {
  if (block_count <= 0) {
    throw std::invalid_argument("block_count must be positive");
  }
  std::vector<Segment> segs;
  // block_count blocks interleaved with block_count+1 equal CPU slices.
  const TimeMs cpu_slice = cpu_ms / static_cast<TimeMs>(block_count + 1);
  const TimeMs block_slice = block_total_ms / static_cast<TimeMs>(block_count);
  segs.push_back({Segment::Kind::kCpu, cpu_slice});
  for (int i = 0; i < block_count; ++i) {
    segs.push_back({Segment::Kind::kBlock, block_slice});
    segs.push_back({Segment::Kind::kCpu, cpu_slice});
  }
  return FunctionBehavior(std::move(segs));
}

FunctionBehavior alternating(const std::vector<TimeMs>& durations) {
  std::vector<Segment> segs;
  segs.reserve(durations.size());
  for (std::size_t i = 0; i < durations.size(); ++i) {
    segs.push_back({i % 2 == 0 ? Segment::Kind::kCpu : Segment::Kind::kBlock,
                    durations[i]});
  }
  return FunctionBehavior(std::move(segs));
}

}  // namespace chiron
