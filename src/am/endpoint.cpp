#include "am/endpoint.hpp"

#include <algorithm>
#include <cassert>

#include "am/probe.hpp"
#include "obs/span.hpp"

namespace vnet::am {

namespace {

std::uint32_t frag_count_for(std::uint32_t bulk_bytes, std::uint32_t mtu) {
  if (bulk_bytes == 0) return 1;
  return (bulk_bytes + mtu - 1) / mtu;
}

}  // namespace

Endpoint::Endpoint(host::Host& host, lanai::EndpointState* state, bool shared)
    : host_(&host),
      state_(state),
      shared_(shared),
      mutex_(host.engine()),
      events_(host.engine()),
      handlers_(256),
      credit_limit_(host.nic().config().recv_request_depth) {
  const std::string prefix = "host." + std::to_string(state_->node) + ".ep." +
                             std::to_string(state_->id);
  obs::MetricsRegistry& reg = host.engine().metrics();
  counters_.requests_sent = reg.counter(prefix + ".requests_sent");
  counters_.replies_sent = reg.counter(prefix + ".replies_sent");
  counters_.credit_replies_sent = reg.counter(prefix + ".credit_replies_sent");
  counters_.messages_handled = reg.counter(prefix + ".messages_handled");
  counters_.returns_handled = reg.counter(prefix + ".returns_handled");
  counters_.send_stalls = reg.counter(prefix + ".send_stalls");
  counters_.wait_wakeups = reg.counter(prefix + ".wait_wakeups");
  VNET_TRACE_INSTANT(host.engine().tracer(), "endpoint", "ep_create",
                     static_cast<int>(state_->node), 0,
                     {{"ep", static_cast<std::int64_t>(state_->id)}});
  state_->on_arrival = [this] { on_arrival(); };
  state_->on_send_progress = [this] { on_send_progress(); };
  state_->on_return_to_sender = [this](lanai::SendDescriptor d,
                                       lanai::NackReason r) {
    on_returned(std::move(d), r);
  };
}

Endpoint::~Endpoint() {
  if (state_ != nullptr) {
    state_->on_arrival = nullptr;
    state_->on_send_progress = nullptr;
    state_->on_return_to_sender = nullptr;
  }
}

sim::Task<std::unique_ptr<Endpoint>> Endpoint::create(host::HostThread& t,
                                                      std::uint64_t tag,
                                                      bool shared) {
  lanai::EndpointState* state =
      co_await t.host().driver().create_endpoint(t.ctx(), tag);
  co_return std::unique_ptr<Endpoint>(new Endpoint(t.host(), state, shared));
}

sim::Task<> Endpoint::destroy(host::HostThread& t) {
  if (destroyed_) co_return;
  destroyed_ = true;
  // Detach upcalls before the state goes away.
  state_->on_arrival = nullptr;
  state_->on_send_progress = nullptr;
  state_->on_return_to_sender = nullptr;
  co_await host_->driver().destroy_endpoint(t.ctx(), state_);
  state_ = nullptr;
  events_.notify_all();
}

// -------------------------------------------------- naming & protection

void Endpoint::map(std::uint32_t index, const Name& peer) {
  map_raw(index, peer.node, peer.ep, peer.tag);
}

void Endpoint::map_raw(std::uint32_t index, NodeId node, EpId ep,
                       std::uint64_t key) {
  if (state_->translations.size() <= index) {
    state_->translations.resize(index + 1);
  }
  state_->translations[index] = lanai::Translation{true, node, ep, key};
}

void Endpoint::unmap(std::uint32_t index) {
  if (index < state_->translations.size()) {
    state_->translations[index] = lanai::Translation{};
  }
}

void Endpoint::set_handler(std::uint8_t index, Handler h) {
  handlers_[index] = std::move(h);
}

// ---------------------------------------------------------------- events

namespace {

// Debug-time guard on wait masks: empty masks never wake, and all-bits
// masks include level-triggered kEventSendSpace, which turns the wait into
// a spin-poll (the PR 6 workload bug). Callers must name what they consume.
inline void assert_explicit_mask([[maybe_unused]] std::uint32_t mask) {
  assert(mask != kEventNone && "wait_events: empty mask would never wake");
  assert(mask != 0xffffffffu &&
         "wait_events: kEventAll spin-polls on level-triggered send-space; "
         "wait on an explicit mask (e.g. kEventArrivals)");
}

}  // namespace

sim::Task<> Endpoint::wait_events(host::HostThread& t, std::uint32_t mask) {
  assert_explicit_mask(mask);
  while (pending_events(mask) == 0) {
    co_await t.block(events_);
    if (destroyed_) co_return;
  }
  counters_.wait_wakeups.inc();
}

sim::Task<bool> Endpoint::wait_events_for(host::HostThread& t,
                                          std::uint32_t mask,
                                          sim::Duration d) {
  assert_explicit_mask(mask);
  const sim::Time deadline = host_->engine().now() + d;
  while (pending_events(mask) == 0) {
    const sim::Duration rem = deadline - host_->engine().now();
    if (rem <= 0) co_return false;
    co_await t.block_for(events_, rem);
    if (destroyed_) co_return false;
  }
  counters_.wait_wakeups.inc();
  co_return true;
}

bool Endpoint::poll_would_find_work() const {
  return state_ != nullptr &&
         (!state_->recv_requests.empty() || !state_->recv_replies.empty() ||
          !returned_.empty());
}

std::uint32_t Endpoint::pending_events(std::uint32_t mask) const {
  if (state_ == nullptr) return 0;
  std::uint32_t pending = 0;
  if ((mask & kEventReceive) != 0 &&
      (!state_->recv_requests.empty() || !state_->recv_replies.empty())) {
    pending |= kEventReceive;
  }
  if ((mask & kEventReturned) != 0 && !returned_.empty()) {
    pending |= kEventReturned;
  }
  if ((mask & kEventSendSpace) != 0) {
    // A pending reply counts too: processing it returns a credit, so a
    // send-space waiter must wake to poll (credits only move under poll).
    if (send_space_available() || !state_->recv_replies.empty()) {
      pending |= kEventSendSpace;
    }
  }
  return pending;
}

bool Endpoint::send_space_available() const {
  const auto depth =
      static_cast<std::size_t>(host_->nic().config().send_queue_depth);
  return state_->send_queue().size() < depth &&
         (!flow_control_ || outstanding_requests_ < credit_limit_);
}

// --------------------------------------------------------------- sending

sim::Duration Endpoint::send_charge() const {
  const host::HostConfig& hc = host_->config();
  const bool gam = !host_->nic().config().reliable_transport;
  const int words =
      gam ? hc.gam_send_descriptor_words : hc.send_descriptor_words;
  const sim::Duration word_cost =
      resident() ? hc.pio_write_word : hc.mem_write_word;
  return hc.send_fixed + words * word_cost;
}

sim::Duration Endpoint::recv_charge() const {
  const host::HostConfig& hc = host_->config();
  const bool gam = !host_->nic().config().reliable_transport;
  sim::Duration d;
  if (resident()) {
    // Virtual networks read whole descriptors with one VIS block load;
    // GAM reads word-at-a-time (§6.1).
    d = (hc.use_block_loads && !gam) ? hc.pio_block_read
                                     : 8 * hc.pio_read_word;
  } else {
    d = 8 * hc.mem_poll;
  }
  return hc.recv_fixed + d;
}

// Callers guard with `if (shared_)`: spawning the lock task for the
// exclusive (common) case would cost a coroutine frame per API call.
sim::Task<> Endpoint::lock(host::HostThread& t) {
  if (!shared_) co_return;
  co_await t.compute(host_->config().shared_lock_cost);
  co_await mutex_.acquire();
}

void Endpoint::unlock() {
  if (shared_) mutex_.release();
}

sim::Task<> Endpoint::request(host::HostThread& t, std::uint32_t dest_index,
                              std::uint8_t handler, std::uint64_t a0,
                              std::uint64_t a1, std::uint64_t a2,
                              std::uint64_t a3) {
  co_return co_await request_bulk(t, dest_index, handler, 0, nullptr, a0, a1,
                                  a2, a3);
}

sim::Task<> Endpoint::request_bulk(
    host::HostThread& t, std::uint32_t dest_index, std::uint8_t handler,
    std::uint32_t bulk_bytes,
    std::shared_ptr<const std::vector<std::uint8_t>> data, std::uint64_t a0,
    std::uint64_t a1, std::uint64_t a2, std::uint64_t a3) {
  lanai::SendDescriptor d;
  d.dest_index = dest_index;
  d.body.is_request = true;
  d.body.handler = handler;
  d.body.args = {a0, a1, a2, a3};
  d.body.bulk_bytes = bulk_bytes;
  d.body.bulk_data = std::move(data);
  co_await send_common(t, std::move(d), /*is_request=*/true);
}

sim::Task<> Endpoint::reply(
    host::HostThread& t, const Message& to, std::uint8_t handler,
    std::uint64_t a0, std::uint64_t a1, std::uint64_t a2, std::uint64_t a3,
    std::uint32_t bulk_bytes,
    std::shared_ptr<const std::vector<std::uint8_t>> data) {
  assert(to.reply_token().valid());
  lanai::SendDescriptor d;
  d.reply_to = to.reply_token();
  d.body.is_request = false;
  d.body.handler = handler;
  d.body.args = {a0, a1, a2, a3};
  d.body.bulk_bytes = bulk_bytes;
  d.body.bulk_data = std::move(data);
  co_await send_common(t, std::move(d), /*is_request=*/false);
}

sim::Task<> Endpoint::send_common(host::HostThread& t,
                                  lanai::SendDescriptor desc,
                                  bool is_request) {
  if (shared_) co_await lock(t);
  const auto depth =
      static_cast<std::size_t>(host_->nic().config().send_queue_depth);

  // Block while the send queue is full or — for requests — the credit
  // window is exhausted (§6.4). One poll pass drains any replies already
  // delivered (returning credits); after that the stall can only clear
  // when the NIC makes progress, so park on the event condvar (every
  // arrival and send-space upcall notifies it) instead of spin-polling:
  // a spin iteration costs engine events, and at steady state every send
  // stalls once per message.
  bool stalled = false;
  while (state_->send_queue().size() >= depth ||
         (is_request && flow_control_ &&
          outstanding_requests_ >= credit_limit_)) {
    if (!stalled) {
      stalled = true;
      counters_.send_stalls.inc();
    }
    unlock();
    // Poll to drain replies (returning credits) and keep handlers running.
    const std::size_t handled = co_await poll(t, 4);
    if (handled == 0) {
      // Nothing to consume yet; sleep until an upcall rings. The timeout
      // is a liveness net (credits can also free via returns the
      // undeliverable handler consumed elsewhere), not the wakeup path.
      co_await t.block_for(events_, 50 * sim::us);
    }
    if (destroyed_) co_return;
    if (shared_) co_await lock(t);
  }

  // The write into the endpoint may fault (on-host r/o -> r/w, §4.2).
  // The span's kEnqueue boundary: the stall loop above is back-pressure,
  // not send overhead, so o_s starts here (the message id that names the
  // flight only exists further down; begin() backdates to enq_at).
  const sim::Time enq_at = host_->engine().now();
  if (!host_->driver().writable(state_)) {
    co_await host_->driver().ensure_writable(t.ctx(), state_);
  }
  host_->driver().touch(state_);
  // One compute covers the descriptor write and (for bulk) staging the
  // payload into the pinned communication region.
  sim::Duration send_cost = send_charge();
  if (desc.body.bulk_bytes > 0) {
    send_cost += static_cast<sim::Duration>(
        desc.body.bulk_bytes * host_->config().bulk_copy_ns_per_byte);
  }
  co_await t.compute(send_cost);

  desc.msg_id = state_->alloc_msg_id();
  desc.frag_count = frag_count_for(desc.body.bulk_bytes,
                                   host_->nic().config().max_packet_payload);
  if (probe_ != nullptr) {
    NodeId dst = myrinet::kInvalidNode;
    if (is_request) {
      if (desc.dest_index < state_->translations.size() &&
          state_->translations[desc.dest_index].valid) {
        dst = state_->translations[desc.dest_index].node;
      }
    } else {
      dst = desc.reply_to.node;
    }
    probe_->message_injected(state_->node, state_->id, desc.msg_id, is_request,
                             dst, host_->engine().now());
  }
  obs::SpanRecorder& spans = host_->engine().spans();
  const auto node = static_cast<std::uint32_t>(state_->node);
  const std::uint64_t span_key =
      obs::SpanRecorder::key(node, state_->id, desc.msg_id);
  const bool span_tracked = spans.begin(node, state_->id, desc.msg_id,
                                        static_cast<std::int64_t>(enq_at));
  state_->enqueue(std::move(desc));
  if (is_request) {
    ++outstanding_requests_;
    counters_.requests_sent.inc();
  } else {
    counters_.replies_sent.inc();
  }
  const sim::Time gate_at = host_->nic().doorbell(*state_);
  if (span_tracked) {
    spans.point(span_key, obs::SpanPoint::kDoorbell,
                static_cast<std::int64_t>(host_->engine().now()));
    spans.point(span_key, obs::SpanPoint::kGateOpen,
                static_cast<std::int64_t>(gate_at));
  }
  unlock();
}

// --------------------------------------------------------------- polling

sim::Task<std::size_t> Endpoint::poll(host::HostThread& t, std::size_t max) {
  if (destroyed_) co_return 0;
  if (shared_) co_await lock(t);
  const host::HostConfig& hc = host_->config();
  // Probing the endpoint costs an uncached PIO read when it is resident in
  // NIC SRAM, but only a cached load when it lives in host memory — the
  // §6.4 observation that made ST-with-96-frames *slower* than OneVN.
  co_await t.compute(resident() ? hc.pio_read_word : hc.mem_poll);
  host_->driver().touch(state_);

  std::size_t processed = 0;

  // Undeliverable messages first: the application learns about errors
  // promptly (§3.2).
  while (processed < max && !returned_.empty()) {
    ReturnedMessage r = std::move(returned_.front());
    returned_.pop_front();
    if (r.descriptor.body.is_request && outstanding_requests_ > 0) {
      --outstanding_requests_;  // the request will never be replied to
    }
    counters_.returns_handled.inc();
    ++processed;
    if (undeliverable_) undeliverable_(*this, std::move(r));
  }

  while (processed < max && state_ != nullptr) {
    // Prefer replies: they complete outstanding operations and return
    // credits, keeping the pipeline moving.
    std::deque<lanai::RecvEntry>* q = nullptr;
    if (!state_->recv_replies.empty()) {
      q = &state_->recv_replies;
    } else if (!state_->recv_requests.empty()) {
      q = &state_->recv_requests;
    } else {
      break;
    }
    lanai::RecvEntry entry = std::move(q->front());
    q->pop_front();
    const bool credit_only =
        !entry.body.is_request && entry.body.handler == kCreditHandler;
    obs::SpanRecorder& spans = host_->engine().spans();
    const bool span_track = spans.enabled() && !credit_only;
    std::uint64_t span_key = 0;
    if (span_track) {
      // Dequeue is the handler/thread-wake boundary: everything from here
      // to handler return is receiver overhead o_r.
      span_key = obs::SpanRecorder::key(
          static_cast<std::uint32_t>(entry.src_node), entry.src_ep,
          entry.msg_id);
      spans.point(span_key, obs::SpanPoint::kHandlerWake,
                  static_cast<std::int64_t>(host_->engine().now()));
    }
    if (credit_only) {
      // Implicit credit replies carry no payload the application reads;
      // the library just bumps its window counter (one flag load).
      co_await t.compute(resident() ? host_->config().pio_read_word
                                    : host_->config().mem_poll);
    } else {
      // One compute covers the descriptor read and (for bulk) copying the
      // payload out of the communication region.
      sim::Duration recv_cost = recv_charge();
      if (entry.body.bulk_bytes > 0) {
        recv_cost += static_cast<sim::Duration>(
            entry.body.bulk_bytes * host_->config().bulk_copy_ns_per_byte);
      }
      co_await t.compute(recv_cost);
    }
    ++processed;

    Message msg(std::move(entry));
    if (probe_ != nullptr && !credit_only) {
      probe_->message_delivered(msg.src_node(), msg.src_ep(), msg.msg_id(),
                                msg.is_request(), state_->node, state_->id,
                                host_->engine().now());
    }
    if (!msg.is_request()) {
      if (outstanding_requests_ > 0) --outstanding_requests_;
      if (msg.handler() != kCreditHandler) {
        counters_.messages_handled.inc();
        if (handlers_[msg.handler()]) handlers_[msg.handler()](*this, msg);
        if (span_track) {
          spans.finish(span_key,
                       static_cast<std::int64_t>(host_->engine().now()));
        }
      }
      events_.notify_all();  // credit/space became available
      continue;
    }

    counters_.messages_handled.inc();
    if (handlers_[msg.handler()]) handlers_[msg.handler()](*this, msg);
    if (span_track) {
      // Handler return completes the request's flight; the reply enqueued
      // below is its own flight.
      spans.finish(span_key,
                   static_cast<std::int64_t>(host_->engine().now()));
    }

    // Request/reply paradigm: send the handler's reply, or an implicit
    // credit reply so the requester's window advances.
    if (msg.reply_intent().has_value()) {
      const auto& ri = *msg.reply_intent();
      lanai::SendDescriptor d;
      d.reply_to = msg.reply_token();
      d.body.is_request = false;
      d.body.handler = ri.handler;
      d.body.args = ri.args;
      d.body.bulk_bytes = ri.bulk_bytes;
      d.body.bulk_data = ri.data;
      co_await enqueue_reply_locked(t, std::move(d));
      counters_.replies_sent.inc();
    } else if (flow_control_) {
      lanai::SendDescriptor d;
      d.reply_to = msg.reply_token();
      d.body.is_request = false;
      d.body.handler = kCreditHandler;
      co_await enqueue_reply_locked(t, std::move(d));
      counters_.credit_replies_sent.inc();
    }
  }

  unlock();
  co_return processed;
}

sim::Task<> Endpoint::enqueue_reply_locked(host::HostThread& t,
                                           lanai::SendDescriptor d) {
  const auto depth =
      static_cast<std::size_t>(host_->nic().config().send_queue_depth);
  // Replies need only send-queue space (no credits). Space frees up as the
  // NIC acknowledges in-flight messages, without host involvement, so
  // blocking here cannot deadlock the poll loop.
  while (state_->send_queue().size() >= depth) {
    co_await events_.wait();
    if (destroyed_) co_return;
  }
  const sim::Time enq_at = host_->engine().now();
  if (!host_->driver().writable(state_)) {
    co_await host_->driver().ensure_writable(t.ctx(), state_);
  } else {
    host_->driver().touch(state_);
  }
  co_await t.compute(send_charge());
  d.msg_id = state_->alloc_msg_id();
  d.frag_count = frag_count_for(d.body.bulk_bytes,
                                host_->nic().config().max_packet_payload);
  // Implicit credit replies are flow-control plumbing; don't track them.
  const bool tracked_kind = d.body.handler != kCreditHandler;
  if (probe_ != nullptr && tracked_kind) {
    probe_->message_injected(state_->node, state_->id, d.msg_id,
                             /*is_request=*/false, d.reply_to.node,
                             host_->engine().now());
  }
  obs::SpanRecorder& spans = host_->engine().spans();
  const auto node = static_cast<std::uint32_t>(state_->node);
  const std::uint64_t span_key =
      obs::SpanRecorder::key(node, state_->id, d.msg_id);
  const bool span_tracked =
      tracked_kind && spans.begin(node, state_->id, d.msg_id,
                                  static_cast<std::int64_t>(enq_at));
  state_->enqueue(std::move(d));
  const sim::Time gate_at = host_->nic().doorbell(*state_);
  if (span_tracked) {
    spans.point(span_key, obs::SpanPoint::kDoorbell,
                static_cast<std::int64_t>(host_->engine().now()));
    spans.point(span_key, obs::SpanPoint::kGateOpen,
                static_cast<std::int64_t>(gate_at));
  }
}

// --------------------------------------------------------------- upcalls

void Endpoint::on_arrival() {
  events_.notify_all();
  if (event_sink_ != nullptr) event_sink_->notify_all();
}

void Endpoint::on_send_progress() {
  events_.notify_all();
  if (event_sink_ != nullptr) event_sink_->notify_all();
}

void Endpoint::on_returned(lanai::SendDescriptor d, lanai::NackReason r) {
  // Record at the upcall, not at poll time: the return has surfaced to the
  // sender even if the application never drains its returned queue. Credit
  // replies are untracked at injection, so skip them here too.
  if (probe_ != nullptr && state_ != nullptr &&
      (d.body.is_request || d.body.handler != kCreditHandler)) {
    probe_->message_returned(state_->node, state_->id, d.msg_id, r,
                             host_->engine().now());
  }
  if (state_ != nullptr && host_->engine().spans().enabled()) {
    // Spans keep the return as a terminal edge: returned traces explain
    // tail mass even though they never complete.
    host_->engine().spans().drop_returned(
        obs::SpanRecorder::key(static_cast<std::uint32_t>(state_->node),
                               state_->id, d.msg_id),
        static_cast<std::int64_t>(host_->engine().now()),
        static_cast<std::int32_t>(r));
  }
  returned_.push_back(ReturnedMessage{std::move(d), r});
  events_.notify_all();
  if (event_sink_ != nullptr) event_sink_->notify_all();
}

}  // namespace vnet::am
