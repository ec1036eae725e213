#include "trace/tracer.h"

#include <algorithm>
#include <stdexcept>

namespace grunt::trace {

void Tracer::Attach(telemetry::TelemetryBus& bus) {
  if (bus_ != nullptr) {
    throw std::logic_error("Tracer::Attach: already attached");
  }
  bus_ = &bus;
  sub_ = bus.span().Subscribe(
      [this](const telemetry::SpanEvent& span) { OnSpan(span); });
}

void Tracer::Detach() {
  if (bus_ == nullptr) return;
  bus_->span().Unsubscribe(sub_);
  bus_ = nullptr;
  sub_ = 0;
}

void Tracer::OnSpan(const telemetry::SpanEvent& span) {
  RequestTrace& t = traces_[span.request_id];
  if (t.hops.empty()) {
    t.request_id = span.request_id;
    t.type = span.type;
    t.cls = span.cls;
  }
  if (t.hops.size() <= span.hop_index) t.hops.resize(span.hop_index + 1);
  HopSpan& h = t.hops[span.hop_index];
  h.service = span.service;
  h.hop_index = span.hop_index;
  h.arrived = span.arrived;
  h.slot_granted = span.slot_granted;
  h.finished = span.finished;
  ++span_count_;
}

const RequestTrace* Tracer::Find(std::uint64_t request_id) const {
  auto it = traces_.find(request_id);
  return it == traces_.end() ? nullptr : &it->second;
}

std::vector<const RequestTrace*> Tracer::CompletedTraces() const {
  std::vector<const RequestTrace*> out;
  for (const auto& [id, t] : traces_) {
    if (t.complete()) out.push_back(&t);
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace* a, const RequestTrace* b) {
              return a->request_id < b->request_id;
            });
  return out;
}

double Tracer::ArrivalRate(microsvc::ServiceId service, SimTime from,
                           SimTime to) const {
  if (to <= from) return 0;
  std::int64_t count = 0;
  for (const auto& [id, t] : traces_) {
    for (const auto& h : t.hops) {
      if (h.service == service && h.arrived >= from && h.arrived < to) {
        ++count;
      }
    }
  }
  return static_cast<double>(count) / ToSeconds(to - from);
}

void Tracer::Clear() { traces_.clear(); }

}  // namespace grunt::trace
