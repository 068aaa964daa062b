#include "tm/traffic_manager.hpp"

#include "packet/headers.hpp"

namespace adcp::tm {

namespace {
/// IP TOS byte offset on the wire (Ethernet + 1).
constexpr std::size_t kTosOffset = packet::kEthernetBytes + 1;
}  // namespace

TrafficManager::TrafficManager(TmConfig config, sim::Scope scope)
    : buffer_(config.buffer_bytes, config.alpha),
      ecn_threshold_(config.ecn_threshold_bytes),
      metrics_(sim::resolve_scope(scope, own_metrics_, "tm")) {
  if (config.track_watermark) {
    watermark_ = &sim::resolve_scope(scope, own_metrics_, "tm")
                      .watermark("buffer.watermark_bytes");
  }
  SchedulerFactory factory = std::move(config.make_scheduler);
  if (!factory) {
    factory = [](std::uint32_t) { return std::make_unique<FifoScheduler>(); };
  }
  schedulers_.reserve(config.outputs);
  for (std::uint32_t i = 0; i < config.outputs; ++i) {
    schedulers_.push_back(factory(i));
  }
}

void TrafficManager::maybe_mark_ecn(std::uint32_t output, packet::Packet& pkt) {
  if (ecn_threshold_ == 0) return;
  if (buffer_.queue_used(output) <= ecn_threshold_) return;
  if (pkt.data.size() <= kTosOffset) return;
  if (pkt.data.read(12, 2) != packet::kEtherTypeIpv4) return;
  pkt.data.write(kTosOffset, 1, pkt.data.read(kTosOffset, 1) | 0x3);  // CE
  metrics_.ecn_marked.add();
}

bool TrafficManager::enqueue(std::uint32_t output, std::uint32_t klass, packet::Packet pkt) {
  if (!buffer_.reserve(output, pkt.size())) {
    metrics_.drops_admission.add();
    if (pool_) pool_->release(std::move(pkt));
    return false;
  }
  maybe_mark_ecn(output, pkt);
  schedulers_.at(output)->enqueue(klass, std::move(pkt));
  metrics_.enqueued.add();
  if (watermark_ != nullptr) watermark_->set(static_cast<double>(buffer_.peak()));
  return true;
}

std::optional<packet::Packet> TrafficManager::dequeue(std::uint32_t output) {
  std::optional<packet::Packet> pkt = schedulers_.at(output)->dequeue();
  if (pkt) {
    buffer_.release(output, pkt->size());
    metrics_.dequeued.add();
  }
  return pkt;
}

}  // namespace adcp::tm
