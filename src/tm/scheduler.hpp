// Per-output scheduling disciplines.
//
// Each traffic-manager output owns one Scheduler instance that arbitrates
// among that output's class queues. FIFO is the default; PIFO lives in
// pifo.hpp and the ADCP-specific order-preserving merge in merge.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "packet/packet.hpp"
#include "tm/queue.hpp"

namespace adcp::tm {

/// Arbitrates one output's queues. `klass` selects a queue within the
/// scheduler (traffic class); implementations may ignore it.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Stores a packet in class `klass`.
  virtual void enqueue(std::uint32_t klass, packet::Packet pkt) = 0;

  /// Removes and returns the next packet per the discipline; nullopt when
  /// all queues are empty.
  virtual std::optional<packet::Packet> dequeue() = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t packets() const = 0;
};

/// Single FIFO; ignores the class.
class FifoScheduler final : public Scheduler {
 public:
  void enqueue(std::uint32_t, packet::Packet pkt) override { q_.push(std::move(pkt)); }
  std::optional<packet::Packet> dequeue() override { return q_.pop(); }
  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::size_t packets() const override { return q_.packets(); }

 private:
  PacketQueue q_;
};

}  // namespace adcp::tm
