/// \file shard_transport.cpp
/// DirectClusterTransport: the perfect in-order shard message channel
/// (the lossless reference implementation).

#include "serve/shard_transport.hpp"

#include <utility>

namespace idp::serve {

namespace {

/// FIFO pop; false when nothing is pending (the perfect wire never delays).
template <typename Message>
bool pop_front(std::deque<Message>& queue, Message& out) {
  if (queue.empty()) return false;
  out = std::move(queue.front());
  queue.pop_front();
  return true;
}

}  // namespace

void DirectClusterTransport::send(ResponseEnvelope envelope) {
  ++now_;
  pending_.push_back(std::move(envelope));
  ++sent_;
}

bool DirectClusterTransport::poll(ResponseEnvelope& out) {
  if (!pop_front(pending_, out)) return false;
  ++delivered_;
  return true;
}

void DirectClusterTransport::send_work(WorkEnvelope work) {
  ++now_;
  work_pending_.push_back(work);
}

bool DirectClusterTransport::poll_work(WorkEnvelope& out) {
  return pop_front(work_pending_, out);
}

void DirectClusterTransport::send_heartbeat(HeartbeatEnvelope heartbeat) {
  ++now_;
  heartbeat_pending_.push_back(heartbeat);
}

bool DirectClusterTransport::poll_heartbeat(HeartbeatEnvelope& out) {
  return pop_front(heartbeat_pending_, out);
}

}  // namespace idp::serve
