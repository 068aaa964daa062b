// Unit tests for queues, shared-buffer admission, schedulers, the
// order-preserving merge, placement policies, and the traffic manager.
#include <gtest/gtest.h>

#include <vector>

#include "packet/headers.hpp"
#include "tm/merge.hpp"
#include "tm/placement.hpp"
#include "tm/queue.hpp"
#include "tm/scheduler.hpp"
#include "tm/shared_buffer.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::tm {
namespace {

packet::Packet make_pkt(std::uint64_t flow, std::uint32_t seq, std::size_t elems = 1) {
  packet::IncPacketSpec spec;
  spec.inc.flow_id = static_cast<std::uint32_t>(flow);
  spec.inc.seq = seq;
  for (std::size_t i = 0; i < elems; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(seq * 10 + i), 0});
  }
  return packet::make_inc_packet(spec);
}

TEST(PacketQueue, FifoOrderAndByteCount) {
  PacketQueue q;
  q.push(make_pkt(1, 0));
  q.push(make_pkt(1, 1));
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.bytes(), 2 * packet::inc_packet_bytes(1));
  EXPECT_EQ(q.pop()->meta.flow_id, 1u);
  EXPECT_EQ(q.packets(), 1u);
  q.pop();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(SharedBuffer, CapacityEnforced) {
  SharedBuffer b(100);
  EXPECT_TRUE(b.reserve(0, 60));
  EXPECT_FALSE(b.reserve(1, 50));
  EXPECT_TRUE(b.reserve(1, 40));
  EXPECT_EQ(b.used(), 100u);
  b.release(0, 60);
  EXPECT_EQ(b.used(), 40u);
  EXPECT_EQ(b.peak(), 100u);
}

TEST(SharedBuffer, DynamicThresholdLimitsOneQueue) {
  SharedBuffer b(1000, 0.5);  // queue limit = half of free
  // Queue 0 can take 333: at that point free=667, limit=333.5.
  std::uint64_t got = 0;
  while (b.reserve(0, 1)) ++got;
  EXPECT_NEAR(static_cast<double>(got), 333.0, 2.0);
  // Another queue still gets space (that is the point of the scheme).
  EXPECT_TRUE(b.reserve(1, 100));
}

TEST(SharedBuffer, PerQueueAccounting) {
  SharedBuffer b(100);
  b.reserve(3, 30);
  EXPECT_EQ(b.queue_used(3), 30u);
  EXPECT_EQ(b.queue_used(4), 0u);
  b.release(3, 30);
  EXPECT_EQ(b.queue_used(3), 0u);
}

TEST(FifoScheduler, IgnoresClass) {
  FifoScheduler s;
  s.enqueue(5, make_pkt(1, 0));
  s.enqueue(0, make_pkt(2, 1));
  EXPECT_EQ(s.dequeue()->meta.flow_id, 1u);
  EXPECT_EQ(s.dequeue()->meta.flow_id, 2u);
  EXPECT_TRUE(s.empty());
}

std::uint64_t seq_key(const packet::Packet& pkt) {
  packet::IncHeader inc;
  return packet::decode_inc(pkt, inc) ? inc.seq : 0;
}

TEST(MergeScheduler, EagerMergesPresentHeads) {
  MergeScheduler s(seq_key, MergeMode::kEager);
  s.enqueue(0, make_pkt(1, 5));
  s.enqueue(0, make_pkt(2, 3));
  s.enqueue(0, make_pkt(1, 7));
  EXPECT_EQ(seq_key(*s.dequeue()), 3u);
  EXPECT_EQ(seq_key(*s.dequeue()), 5u);
  EXPECT_EQ(seq_key(*s.dequeue()), 7u);
}

TEST(MergeScheduler, StrictWaitsForSilentFlow) {
  MergeScheduler s(seq_key, MergeMode::kStrict);
  s.register_flow(1);
  s.register_flow(2);
  s.enqueue(0, make_pkt(1, 5));
  EXPECT_FALSE(s.dequeue().has_value());  // flow 2 could still send seq < 5
  EXPECT_TRUE(s.blocked());
  s.enqueue(0, make_pkt(2, 3));
  EXPECT_EQ(seq_key(*s.dequeue()), 3u);
  EXPECT_FALSE(s.dequeue().has_value());  // flow 2 silent again
  s.mark_flow_done(2);
  EXPECT_EQ(seq_key(*s.dequeue()), 5u);
  EXPECT_FALSE(s.blocked());
}

TEST(MergeScheduler, StrictProducesGloballySortedOutput) {
  MergeScheduler s(seq_key, MergeMode::kStrict);
  // Three flows, each internally sorted, interleaved arrivals.
  s.enqueue(0, make_pkt(1, 0));
  s.enqueue(0, make_pkt(2, 1));
  s.enqueue(0, make_pkt(3, 2));
  s.enqueue(0, make_pkt(1, 3));
  s.enqueue(0, make_pkt(2, 4));
  s.enqueue(0, make_pkt(3, 5));
  for (std::uint64_t f : {1u, 2u, 3u}) s.mark_flow_done(f);
  std::uint64_t prev = 0;
  int n = 0;
  while (auto pkt = s.dequeue()) {
    const std::uint64_t k = seq_key(*pkt);
    EXPECT_GE(k, prev);
    prev = k;
    ++n;
  }
  EXPECT_EQ(n, 6);
}

TEST(MergeScheduler, AutoRegistersOnEnqueue) {
  MergeScheduler s(seq_key, MergeMode::kStrict);
  s.enqueue(0, make_pkt(9, 1));
  EXPECT_EQ(s.packets(), 1u);
  EXPECT_TRUE(s.dequeue().has_value());  // single flow, nothing to wait for
}

TEST(Placement, CoflowHashIsStableAndInRange) {
  const PlacementFn place = placement::by_coflow_hash(4);
  packet::Packet a = make_pkt(1, 0);
  a.meta.coflow_id = 77;
  const std::uint32_t p1 = place(a);
  const std::uint32_t p2 = place(a);
  EXPECT_EQ(p1, p2);
  EXPECT_LT(p1, 4u);
}

TEST(Placement, KeyRangePartitions) {
  const PlacementFn place = placement::by_key_range(4, 1000);
  packet::IncPacketSpec spec;
  spec.inc.elements.push_back({100, 0});
  EXPECT_EQ(place(packet::make_inc_packet(spec)), 0u);
  spec.inc.elements[0].key = 990;
  EXPECT_EQ(place(packet::make_inc_packet(spec)), 3u);
  spec.inc.elements[0].key = 2000;  // beyond max: clamped to last partition
  EXPECT_EQ(place(packet::make_inc_packet(spec)), 3u);
}

TEST(Placement, KeyHashSpreadsKeys) {
  const PlacementFn place = placement::by_key_hash(8);
  std::vector<int> counts(8, 0);
  for (std::uint32_t k = 0; k < 800; ++k) {
    packet::IncPacketSpec spec;
    spec.inc.elements.push_back({k, 0});
    ++counts[place(packet::make_inc_packet(spec))];
  }
  for (const int c : counts) EXPECT_GT(c, 50);  // roughly balanced
}

TEST(Placement, RoundRobinCycles) {
  const PlacementFn place = placement::round_robin(3);
  const packet::Packet p = make_pkt(1, 0);
  EXPECT_EQ(place(p), 0u);
  EXPECT_EQ(place(p), 1u);
  EXPECT_EQ(place(p), 2u);
  EXPECT_EQ(place(p), 0u);
}

TmConfig small_tm(std::uint32_t outputs, std::uint64_t buffer) {
  TmConfig c;
  c.outputs = outputs;
  c.buffer_bytes = buffer;
  c.alpha = 8.0;
  return c;
}

TEST(TrafficManager, EnqueueDequeueCounts) {
  TrafficManager tm(small_tm(2, 1 << 20));
  EXPECT_TRUE(tm.enqueue(0, 0, make_pkt(1, 0)));
  EXPECT_TRUE(tm.enqueue(1, 0, make_pkt(2, 0)));
  EXPECT_EQ(tm.stats().enqueued, 2u);
  EXPECT_TRUE(tm.dequeue(0).has_value());
  EXPECT_FALSE(tm.dequeue(0).has_value());
  EXPECT_EQ(tm.stats().dequeued, 1u);
  EXPECT_EQ(tm.output_packets(1), 1u);
}

TEST(TrafficManager, DropsWhenBufferFull) {
  TrafficManager tm(small_tm(1, 150));  // fits ~2 small packets
  EXPECT_TRUE(tm.enqueue(0, 0, make_pkt(1, 0)));
  EXPECT_TRUE(tm.enqueue(0, 0, make_pkt(1, 1)));
  EXPECT_FALSE(tm.enqueue(0, 0, make_pkt(1, 2)));
  EXPECT_EQ(tm.stats().dropped, 1u);
  // Dequeue frees buffer; admission recovers.
  tm.dequeue(0);
  EXPECT_TRUE(tm.enqueue(0, 0, make_pkt(1, 3)));
}

TEST(TrafficManager, BufferReleasedOnDequeue) {
  TrafficManager tm(small_tm(1, 1 << 20));
  tm.enqueue(0, 0, make_pkt(1, 0));
  const std::uint64_t used = tm.buffer().used();
  EXPECT_GT(used, 0u);
  tm.dequeue(0);
  EXPECT_EQ(tm.buffer().used(), 0u);
}

TEST(TrafficManager, CustomSchedulerFactory) {
  TmConfig c = small_tm(1, 1 << 20);
  c.make_scheduler = [](std::uint32_t) {
    return std::make_unique<MergeScheduler>(seq_key, MergeMode::kEager);
  };
  TrafficManager tm(std::move(c));
  tm.enqueue(0, 0, make_pkt(1, 9));
  tm.enqueue(0, 0, make_pkt(2, 1));
  EXPECT_EQ(seq_key(*tm.dequeue(0)), 1u);  // merge order, not FIFO
}

}  // namespace
}  // namespace adcp::tm
