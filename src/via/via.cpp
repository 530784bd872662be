#include "via/via.hpp"

#include <algorithm>
#include <cassert>

namespace vnet::via {

namespace {
constexpr std::uint8_t kViaHandler = 1;
}

// --------------------------------------------------------- CompletionQueue

void CompletionQueue::detach(Vi* vi) {
  vis_.erase(std::remove(vis_.begin(), vis_.end(), vi), vis_.end());
}

sim::Task<Completion> CompletionQueue::wait(host::HostThread& t) {
  for (;;) {
    // Pump every attached VI so arrivals/acks become completion entries.
    for (Vi* vi : vis_) co_await vi->poll(t);
    if (!entries_.empty()) {
      Completion c = entries_.front();
      entries_.pop_front();
      co_return c;
    }
    co_await t.block_for(cv_, 2 * sim::ms);
  }
}

bool CompletionQueue::try_pop(Completion* out) {
  if (entries_.empty()) return false;
  *out = entries_.front();
  entries_.pop_front();
  return true;
}

// ----------------------------------------------------------------------- Vi

Vi::Vi(host::Host& host, CompletionQueue& cq, int vi_id,
       lanai::EndpointState* state)
    : host_(&host), cq_(&cq), vi_id_(vi_id), state_(state) {
  state_->translations.resize(1);
  // Arrivals and send completions wake the shared completion queue; the
  // matching against posted receives happens in poll().
  state_->on_arrival = [this] { cq_->notify(); };
  state_->on_send_progress = [this] { cq_->notify(); };
  cq_->attach(this);
}

sim::Task<std::unique_ptr<Vi>> Vi::create(host::HostThread& t,
                                          CompletionQueue& cq, int vi_id) {
  lanai::EndpointState* state =
      co_await t.host().driver().create_endpoint(t.ctx(), 0x71a0 + vi_id);
  co_return std::unique_ptr<Vi>(new Vi(t.host(), cq, vi_id, state));
}

Vi::~Vi() {
  cq_->detach(this);
  if (state_ != nullptr) {
    state_->on_arrival = nullptr;
    state_->on_send_progress = nullptr;
    state_->on_return_to_sender = nullptr;
  }
}

ViAddress Vi::address() const {
  return ViAddress{state_->node, state_->id, state_->tag};
}

void Vi::connect(const ViAddress& peer) {
  peer_ = peer;
  state_->translations[0] =
      lanai::Translation{true, peer.node, peer.ep, peer.key};
}

sim::Task<MemoryHandle> Vi::register_memory(host::HostThread& t,
                                            std::uint32_t bytes) {
  const std::uint32_t pages = (bytes + 8191) / 8192;
  co_await t.compute(pages * ViaCosts::kRegisterPerPage);
  MemoryHandle h{next_mem_id_++, bytes};
  registered_.push_back(h);
  co_return h;
}

sim::Task<> Vi::deregister_memory(host::HostThread& t, MemoryHandle h) {
  co_await t.compute(ViaCosts::kDeregister);
  registered_.erase(
      std::remove_if(registered_.begin(), registered_.end(),
                     [&](const MemoryHandle& r) { return r.id == h.id; }),
      registered_.end());
}

sim::Task<bool> Vi::post_send(host::HostThread& t, MemoryHandle h,
                              std::uint32_t bytes, std::uint64_t immediate) {
  if (!connected()) co_return false;
  const auto it =
      std::find_if(registered_.begin(), registered_.end(),
                   [&](const MemoryHandle& r) { return r.id == h.id; });
  if (it == registered_.end() || bytes > it->bytes) co_return false;

  // Wait for send-queue space (descriptor ring full = VI send queue full).
  const auto depth = static_cast<std::size_t>(
      host_->nic().config().send_queue_depth);
  while (state_->send_queue().size() >= depth) {
    co_await poll(t);
    co_await t.compute(500);
  }
  co_await host_->driver().ensure_writable(t.ctx(), state_);
  host_->driver().touch(state_);
  co_await t.compute(host_->config().send_fixed +
                     host_->config().send_descriptor_words *
                         (state_->resident()
                              ? host_->config().pio_write_word
                              : host_->config().mem_write_word));
  lanai::SendDescriptor d;
  d.dest_index = 0;
  d.body.is_request = true;
  d.body.handler = kViaHandler;
  d.body.args[0] = immediate;
  d.body.bulk_bytes = bytes > 64 ? bytes : 0;  // small sends ride inline
  d.msg_id = state_->alloc_msg_id();
  const std::uint32_t mtu = host_->nic().config().max_packet_payload;
  d.frag_count =
      d.body.bulk_bytes == 0 ? 1 : (d.body.bulk_bytes + mtu - 1) / mtu;
  state_->enqueue(std::move(d));
  ++sends_posted_;
  host_->nic().doorbell(*state_);
  co_return true;
}

void Vi::post_recv(MemoryHandle h) { posted_recvs_.push_back(h); }

sim::Task<std::size_t> Vi::poll(host::HostThread& t) {
  std::size_t made = 0;
  // Send completions: descriptors fully acknowledged since last poll.
  const std::uint64_t acked = state_->msgs_sent;
  while (acked_at_last_poll_ < acked) {
    ++acked_at_last_poll_;
    ++sends_completed_;
    cq_->push(Completion{Completion::Kind::kSend, vi_id_, 0, 0});
    ++made;
  }
  // Receive completions: match arrivals against posted receives.
  while (!state_->recv_requests.empty() && !posted_recvs_.empty()) {
    lanai::RecvEntry e = std::move(state_->recv_requests.front());
    state_->recv_requests.pop_front();
    posted_recvs_.pop_front();
    co_await t.compute(host_->config().recv_fixed +
                       (state_->resident()
                            ? host_->config().pio_block_read
                            : 8 * host_->config().mem_poll));
    ++recvs_completed_;
    cq_->push(Completion{Completion::Kind::kRecv, vi_id_,
                         e.body.bulk_bytes, e.body.args[0]});
    ++made;
  }
  co_return made;
}

}  // namespace vnet::via
