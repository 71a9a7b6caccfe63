#include "rtw/sim/event_queue.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <utility>

namespace rtw::sim {

EventQueue::~EventQueue() {
  // Live actions are exactly the ones the heap still references; dead
  // cells hold only free-list links.
  for (const Node& node : heap_) cell(node.slot)->~Action();
}

void EventQueue::grow_chunks() {
  chunks_.push_back(std::make_unique<Cell[]>(kChunkSize));
  capacity_ += kChunkSize;
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  unsigned char* raw = raw_cell(slot);
  reinterpret_cast<Action*>(raw)->~Action();
  // The Action's lifetime is over: the link goes into the raw cell bytes.
  std::memcpy(raw, &free_head_, sizeof(free_head_));
  free_head_ = slot;
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const Node node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const Node node = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

EventQueue::Node EventQueue::pop_min() {
  const Node top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

void EventQueue::fire(const Node& node, rtw::obs::Sink* sink) {
  // In-place invocation: cells are address-stable, so callbacks are free
  // to schedule (growing the chunk table) while this action runs.  The
  // cell is not on the free list yet, so it cannot be reused mid-call;
  // the guard releases it even when the action throws.
  struct Guard {
    EventQueue* queue;
    std::uint32_t slot;
    ~Guard() { queue->release_slot(slot); }
  } guard{this, node.slot};
  if (sink) [[unlikely]]
    sink->on_queue_op(rtw::obs::QueueOp::Fire, now_);
  (*cell(node.slot))(now_);
}

void EventQueue::notify_schedule(Tick at) {
  if (auto* s = rtw::obs::sink()) s->on_queue_op(rtw::obs::QueueOp::Schedule, at);
}

bool EventQueue::admit(const Node& node) {
  if (!filter_) return true;
  const FaultDecision decision = filter_(node.at, node.seq);
  switch (decision.kind) {
    case FaultDecision::Kind::Fire:
      return true;
    case FaultDecision::Kind::Drop:
      release_slot(node.slot);
      ++filtered_dropped_;
      if (auto* s = rtw::obs::sink())
        s->on_queue_op(rtw::obs::QueueOp::Drop, node.at);
      return false;
    case FaultDecision::Kind::Defer: {
      // An event already at the maximum tick cannot be pushed later;
      // firing it keeps the filter from livelocking the queue.
      if (node.at == ~Tick{0}) return true;
      const Tick to = decision.defer_to > node.at ? decision.defer_to
                                                  : node.at + 1;
      heap_.push_back(Node{to, seq_++, node.slot});
      sift_up(heap_.size() - 1);
      ++filtered_deferred_;
      if (auto* s = rtw::obs::sink())
        s->on_queue_op(rtw::obs::QueueOp::Defer, node.at);
      return false;
    }
  }
  return true;
}

void EventQueue::schedule_batch(std::vector<Scheduled> batch) {
  heap_.reserve(heap_.size() + batch.size());
  for (auto& s : batch) schedule_at(s.at, std::move(s.action));
}

bool EventQueue::step(Tick horizon) {
  rtw::obs::Sink* const sink = rtw::obs::sink();
  while (!heap_.empty() && heap_.front().at <= horizon) {
    const Node node = pop_min();
    if (!admit(node)) continue;  // dropped or deferred: not executed
    now_ = node.at;
    fire(node, sink);
    return true;
  }
  return false;
}

std::size_t EventQueue::run_until(Tick horizon) {
  // The obs sink is sampled once per drain call, not per event: a sink
  // installed mid-drain is seen by the next step()/run_until().
  rtw::obs::Sink* const sink = rtw::obs::sink();
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().at <= horizon) {
    // Coalesce the stretch of events sharing this tick: advance the clock
    // once, then drain same-tick events (including ones the callbacks
    // schedule at the current tick) without re-deciding the horizon.
    const Tick tick = heap_.front().at;
    now_ = tick;
    do {
      const Node node = pop_min();
      if (admit(node)) {
        fire(node, sink);
        ++executed;
      }
    } while (!heap_.empty() && heap_.front().at == tick);
  }
  if (heap_.empty() || heap_.front().at > horizon)
    now_ = std::max(now_, horizon);
  return executed;
}

void EventQueue::reset() {
  for (const Node& node : heap_) cell(node.slot)->~Action();
  heap_.clear();
  chunks_.clear();
  free_head_ = kNil;
  used_ = 0;
  capacity_ = 0;
  now_ = 0;
  seq_ = 0;
  filtered_dropped_ = 0;
  filtered_deferred_ = 0;
}

}  // namespace rtw::sim
