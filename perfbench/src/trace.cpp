#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace perfbench {

namespace {
std::atomic<std::uint64_t> next_tracer_id{1};
}  // namespace

Tracer::Tracer(std::vector<std::string> layers)
    : layers_(std::move(layers)), id_(next_tracer_id.fetch_add(1)) {}

std::size_t Tracer::layer(const std::string& name) const {
  const auto it = std::find(layers_.begin(), layers_.end(), name);
  if (it == layers_.end()) {
    throw std::out_of_range("unregistered trace layer " + name);
  }
  return static_cast<std::size_t>(it - layers_.begin());
}

Tracer::Slot& Tracer::slot_for_this_thread() {
  // One slot per (thread, tracer); the cache avoids the registry lock on
  // every span after a thread's first.
  thread_local std::uint64_t cached_owner = 0;
  thread_local Slot* cached_slot = nullptr;
  if (cached_owner != id_) {
    auto slot = std::make_unique<Slot>();
    slot->totals.resize(layers_.size());
    cached_slot = slot.get();
    cached_owner = id_;
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.push_back(std::move(slot));
  }
  return *cached_slot;
}

Tracer::Total Tracer::total(std::size_t layer) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Total sum;
  for (const auto& slot : slots_) {
    sum.nanos += slot->totals[layer].nanos;
    sum.count += slot->totals[layer].count;
  }
  return sum;
}

}  // namespace perfbench
