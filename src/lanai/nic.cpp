#include "lanai/nic.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "obs/span.hpp"

namespace vnet::lanai {

namespace {

/// Key for per-source-endpoint delivery windows (see endpoint_state.hpp).
std::uint64_t src_key(NodeId node, EpId ep) { return source_key(node, ep); }

/// Recycled Frame storage (frame.hpp). Capped so a retransmission burst
/// cannot pin memory forever; storage still parked at exit is released by
/// the holder's destructor.
struct FrameFreeList {
  static constexpr std::size_t kCap = 1024;
  std::vector<void*> slots;
  ~FrameFreeList() {
    for (void* p : slots) ::operator delete(p);
  }
};

#if VNET_CHECK_INDEXES
constexpr bool kCheckIndexes = true;
#else
constexpr bool kCheckIndexes = false;
#endif

/// Cross-check failure (VNET_CHECK_INDEXES builds): a firmware count
/// disagrees with a full scan of the state it summarizes.
void index_check(bool ok, NodeId node, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "nic %d: firmware index out of step: %s\n",
               static_cast<int>(node), what);
  std::abort();
}

FrameFreeList& frame_free_list() {
  // thread_local: each shard worker (sim/shard.hpp) recycles frames
  // privately. Cross-thread alloc/free pairs migrate storage between
  // lists, which is safe — both paths bottom out in global new/delete.
  static thread_local FrameFreeList list;
  return list;
}

}  // namespace

void* Frame::operator new(std::size_t size) {
  auto& list = frame_free_list().slots;
  if (size == sizeof(Frame) && !list.empty()) {
    void* p = list.back();
    list.pop_back();
    return p;
  }
  return ::operator new(size);
}

void Frame::operator delete(void* p, std::size_t size) noexcept {
  auto& list = frame_free_list().slots;
  if (size == sizeof(Frame) && list.size() < FrameFreeList::kCap) {
    list.push_back(p);
    return;
  }
  ::operator delete(p);
}

const char* to_string(NackReason r) {
  switch (r) {
    case NackReason::kNone:
      return "none";
    case NackReason::kNotResident:
      return "not-resident";
    case NackReason::kQueueFull:
      return "queue-full";
    case NackReason::kNoSuchEndpoint:
      return "no-such-endpoint";
    case NackReason::kBadKey:
      return "bad-key";
    case NackReason::kStaleEpoch:
      return "stale-epoch";
  }
  return "?";
}

void NicCounters::register_with(obs::MetricsRegistry& reg,
                                const std::string& prefix) {
  data_sent = reg.counter(prefix + ".data_sent");
  data_received = reg.counter(prefix + ".data_received");
  acks_sent = reg.counter(prefix + ".acks_sent");
  acks_received = reg.counter(prefix + ".acks_received");
  nacks_sent = reg.counter(prefix + ".nacks_sent");
  nacks_received = reg.counter(prefix + ".nacks_received");
  retransmissions = reg.counter(prefix + ".retransmissions");
  timeouts = reg.counter(prefix + ".timeouts");
  channel_unbinds = reg.counter(prefix + ".channel_unbinds");
  returned_to_sender = reg.counter(prefix + ".returned_to_sender");
  crc_drops = reg.counter(prefix + ".crc_drops");
  gam_drops = reg.counter(prefix + ".gam_drops");
  duplicates_suppressed = reg.counter(prefix + ".duplicates_suppressed");
  local_deliveries = reg.counter(prefix + ".local_deliveries");
  remap_requests = reg.counter(prefix + ".remap_requests");
  driver_ops = reg.counter(prefix + ".driver_ops");
  msgs_completed = reg.counter(prefix + ".msgs_completed");
  frames_loaded = reg.counter(prefix + ".frames_loaded");
  frames_unloaded = reg.counter(prefix + ".frames_unloaded");
  acks_piggybacked = reg.counter(prefix + ".acks_piggybacked");
  piggy_flushes = reg.counter(prefix + ".piggy_flushes");
  firmware_wakeups = reg.counter(prefix + ".firmware_wakeups");
  for (int i = 0; i < 8; ++i) {
    nacks_sent_by_reason[i] =
        reg.counter(prefix + ".nacks_sent_by_reason." + std::to_string(i));
  }
  rtt_ns = reg.histogram(prefix + ".rtt_ns");
}

Nic::Nic(sim::Engine& engine, myrinet::Fabric& fabric, NodeId node,
         NicConfig config)
    : engine_(&engine),
      fabric_(&fabric),
      station_(&fabric.station(node)),
      node_(node),
      config_(config),
      sbus_(engine, config_),
      work_(engine),
      rx_(engine),
      driver_ops_(engine),
      frames_(static_cast<std::size_t>(config.endpoint_frames)),
      peers_(static_cast<std::size_t>(fabric.num_hosts())),
      rng_(engine.rng().split()),
      metric_prefix_("host." + std::to_string(node) + ".nic") {
  counters_.register_with(engine.metrics(), metric_prefix_);
  // Pull-style gauges sampled at snapshot time; the stall watchdogs
  // (obs/watchdog.hpp) read these against the counter deltas.
  engine.metrics().gauge_fn(metric_prefix_ + ".busy_channels", [this] {
    return static_cast<double>(busy_channel_count());
  });
  engine.metrics().gauge_fn(metric_prefix_ + ".send_backlog", [this] {
    return static_cast<double>(send_backlog());
  });
  engine.metrics().gauge_fn(metric_prefix_ + ".rx_backlog", [this] {
    return static_cast<double>(rx_.size());
  });
}

Nic::~Nic() {
  engine_->metrics().remove_fn_prefix(metric_prefix_ + ".");
}

void Nic::start() {
  assert(!started_);
  started_ = true;
  station_->on_receive = [this](myrinet::Packet p) {
    rx_.post(std::move(p));
    work_.notify_all();
  };
  engine_->spawn(firmware_loop());
}

sim::Time Nic::doorbell(EndpointState& ep) {
  const sim::Time now = engine_->now();
  if (!ep.resident()) return now;
  const sim::Duration window = config_.doorbell_coalesce;
  if (window <= 0) {
    work_.notify_all();
    return now;
  }
  // Doorbell moderation: the first ring in a window passes through and
  // opens the window; later rings within it are folded into one deferred
  // ring at the window's end. The firmware drains every pending descriptor
  // per wakeup, so a folded ring loses no work — the deferred event is
  // only needed for the case where the firmware went idle again before
  // the window closed (otherwise its notify finds no waiter and is free).
  if (doorbell_deferred_) return doorbell_gate_;  // deferred ring scheduled
  if (now >= doorbell_gate_) {
    doorbell_gate_ = now + window;
    work_.notify_all();
    return now;
  }
  doorbell_deferred_ = true;
  engine_->at(doorbell_gate_, [this] {
    doorbell_deferred_ = false;
    doorbell_gate_ = engine_->now() + config_.doorbell_coalesce;
    work_.notify_all();
  });
  return doorbell_gate_;
}

void Nic::submit(DriverOp op) {
  driver_ops_.post(std::move(op));
  work_.notify_all();
}

int Nic::free_frames() const {
  int n = 0;
  for (const auto& f : frames_) {
    if (f.ep == nullptr) ++n;
  }
  return n;
}

void Nic::reboot() {
  // Transport state is lost: channels restart in a new epoch; the receive
  // side re-synchronizes on the first frame it sees (§5.1). Message-level
  // receive state (dedup windows, reassembly) lives in the endpoints, which
  // are host-memory backed, and survives.
  std::uint32_t max_epoch = epoch_base_;
  for (auto& p : peers_) {
    if (p == nullptr) continue;
    for (auto& ch : p->send) {
      max_epoch = std::max(max_epoch, ch.epoch);
      if (!ch.busy) continue;
      // A fragment in flight on a dying channel would otherwise be stranded
      // in kInFlight forever (no channel remembers it); hand it back to the
      // send scheduler.
      EndpointState& ep = *ch.src_ep;
      if (SendDescriptor* d = find_descriptor(ep, ch.msg_id)) {
        ep.mark_unsent(*d, ch.frag_index);
      }
      release_channel(ch);
    }
    // Free the SRAM tables; a later use rebuilds them in the new epoch.
    std::vector<ChannelState>().swap(p->send);
    std::vector<RecvChannelState>().swap(p->recv);
    std::vector<Frame::PiggyAck>().swap(p->carried);
    p->cursor = 0;
    p->free_channels = 0;
  }
  due_retransmits_.clear();
  ++channel_table_gen_;
  epoch_base_ = max_epoch + 1;
  work_.notify_all();
}

// --------------------------------------------------------------- firmware

sim::Process Nic::firmware_loop() {
  for (;;) {
    bool worked = false;
    // Receive processing first: keeps acknowledgments flowing and receive
    // queues draining. Bounded burst so sends are not starved.
    for (int i = 0; i < config_.burst_rx; ++i) {
      auto pkt = rx_.try_receive();
      if (!pkt) break;
      worked |= co_await handle_rx(std::move(*pkt));
    }
    // Driver/NI protocol operations are interleaved with user messages
    // (§5.3): one per loop.
    if (auto op = driver_ops_.try_receive()) {
      co_await handle_driver(std::move(*op));
      worked = true;
    }
    // Retransmission timers.
    while (!due_retransmits_.empty()) {
      ChannelState* ch = due_retransmits_.take_front();
      worked |= co_await handle_retransmit(ch);
    }
    // Weighted round-robin endpoint service (§5.2), bursting up to
    // burst_service transmissions before receive processing and timers
    // get another turn.
    if (!frames_sendable()) {
      loiter_ep_ = nullptr;  // all an idle service_step() would do
    } else {
      for (int i = 0; i < config_.burst_service; ++i) {
        if (!co_await service_step()) break;
        worked = true;
      }
    }
    // Quiescence checks for pending unload/destroy (§5.3).
    if (!pending_unloads_.empty()) worked |= co_await process_unloads();
    if (!worked) {
      // The work_pending() re-check closes a lost-wakeup race: a doorbell
      // can ring while this loop is mid-step (awaiting an instruction
      // charge), in which case its notify finds no waiter and would
      // otherwise be lost.
      if (!work_pending()) {
        co_await work_.wait();
      } else {
        // Descriptors have unsent fragments but every one is blocked on a
        // busy channel (stop-and-wait, awaiting acks). Spinning here would
        // charge instruction time per loop with nothing to do; every
        // unblocking transition notifies work_, so doze with a bounded
        // timeout as a liveness net.
        co_await work_.wait_for(config_.blocked_poll_interval);
      }
      // Counts resumes out of idle/doze: a coalesced doorbell must produce
      // exactly one wakeup (regression guard for lost/double wakeups).
      counters_.firmware_wakeups.inc();
    }
  }
}

bool Nic::work_pending() const {
  return !rx_.empty() || !driver_ops_.empty() || !due_retransmits_.empty() ||
         frames_sendable();
}

bool Nic::frames_sendable() const {
  for (const auto& slot : frames_) {
    if (slot.ep != nullptr && has_sendable(*slot.ep)) return true;
  }
  return false;
}

bool Nic::has_sendable(const EndpointState& ep) const {
  check_indexes(ep);
  return !ep.draining && ep.sendable() > 0;
}

sim::Task<bool> Nic::service_step() {
  // One transmission per dispatch-loop iteration, so receive processing
  // and timers interleave with sending (the LANai's DMA engines overlap).
  // The loiter state keeps the interface on the same endpoint for up to
  // loiter_descriptors / loiter_time (§5.2) before it rotates onward.
  if (loiter_ep_ != nullptr) {
    EndpointState& ep = *loiter_ep_;
    const bool still_eligible = ep.resident() && has_sendable(ep) &&
                                loiter_budget_ > 0 &&
                                engine_->now() < loiter_deadline_;
    if (still_eligible) {
      const bool sent = co_await service_endpoint(ep);
      if (sent) {
        --loiter_budget_;
        co_return true;
      }
    }
    loiter_ep_ = nullptr;  // budget spent, drained, or blocked: rotate
  }

  const std::size_t n = frames_.size();
  if (n == 0) co_return false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (rr_cursor_ + i) % n;
    EndpointState* ep = frames_[slot].ep;
    if (ep == nullptr || !has_sendable(*ep)) continue;
    // Dispatch overhead for selecting the endpoint. (Real firmware keeps a
    // doorbell bitmask; scanning idle frames is near-free.)
    co_await charge(config_.instr_endpoint_visit);
    const bool sent = co_await service_endpoint(*ep);
    rr_cursor_ = (slot + 1) % n;
    if (sent) {
      loiter_ep_ = ep;
      loiter_budget_ = config_.loiter_descriptors - 1;
      loiter_deadline_ = engine_->now() + config_.loiter_time;
      co_return true;
    }
    // This endpoint is blocked (e.g. all channels to its destination are
    // busy); keep scanning so one stuck endpoint cannot idle the wire.
  }
  co_return false;
}

sim::Task<bool> Nic::service_endpoint(EndpointState& ep) {
  // Transmit the next pending fragment of this endpoint, if any.
  SendDescriptor* next = nullptr;
  for (auto& d : ep.send_queue_) {
    if (d.has_unsent()) {
      next = &d;
      break;
    }
  }
  if (next == nullptr) co_return false;
  if (blocked_on_channels(ep, *next)) {
    // Exactly what start_fragment would do before finding no free channel,
    // without building its coroutine frame.
    stamp_pickup(ep, *next);
    co_return false;
  }
  co_return co_await start_fragment(ep, *next);
}

Translation Nic::destination(const EndpointState& ep,
                             const SendDescriptor& desc) {
  // Requests go through the translation table (§3.1), replies directly to
  // the requester with the return authorization from the request.
  if (!desc.body.is_request) {
    return Translation{true, desc.reply_to.node, desc.reply_to.ep,
                       desc.reply_to.key};
  }
  return desc.dest_index < ep.translations.size()
             ? ep.translations[desc.dest_index]
             : Translation{};
}

bool Nic::blocked_on_channels(const EndpointState& ep,
                              const SendDescriptor& desc) const {
  if (!config_.reliable_transport) return false;
  const Translation dst = destination(ep, desc);
  // An invalid translation is returned to its sender and loopback needs
  // no channel: both are start_fragment's to handle.
  if (!dst.valid || dst.node == node_) return false;
  const Peer* p = find_peer(dst.node);
  return p != nullptr && !p->send.empty() && p->free_channels == 0;
}

void Nic::stamp_pickup(const EndpointState& ep, const SendDescriptor& desc) {
  if (!engine_->spans().enabled()) return;
  // First pickup only (repeat stamps are ignored): rebinds, later fragments
  // and channel-blocked attempts attribute to the initial tx-service wait.
  engine_->spans().point(
      obs::SpanRecorder::key(static_cast<std::uint32_t>(node_), ep.id,
                             desc.msg_id),
      obs::SpanPoint::kNicPickup, static_cast<std::int64_t>(engine_->now()));
}

sim::Task<bool> Nic::start_fragment(EndpointState& ep, SendDescriptor& desc) {
  stamp_pickup(ep, desc);
  const Translation dst = destination(ep, desc);
  if (!dst.valid) {
    return_to_sender(ep, desc.msg_id, NackReason::kNoSuchEndpoint);
    co_return true;
  }

  if (dst.node == node_) {
    co_return co_await deliver_local(ep, desc, dst.ep, dst.key);
  }

  const bool gam = !config_.reliable_transport;
  ChannelState* ch = nullptr;
  // A reboot() during any of the suspensions below frees the channel table
  // `ch` points into; the generation check invalidates it (the fragment is
  // left/reset kUnsent, so a post-reboot service pass resends it).
  const std::uint64_t table_gen = channel_table_gen_;
  if (!gam) {
    ch = find_free_channel(dst.node);
    if (ch == nullptr) co_return false;  // all channels busy: try later
  }

  const int instr_preamble =
      config_.instr_send_descriptor +
      (config_.defensive_checks ? config_.instr_defensive : 0);
  // Fragment chosen before the instruction charges: the descriptor cannot
  // complete during them (this fragment is not in flight yet), and a
  // reboot mid-charge is caught by the generation check below.
  const int frag_idx = desc.next_unsent();
  assert(frag_idx >= 0);
  const auto frag = static_cast<std::uint32_t>(frag_idx);
  const std::uint32_t frag_bytes = fragment_bytes(desc, frag);

  if (frag_bytes > 0) {
    // Bulk payload is staged host -> NIC SRAM across the SBUS between
    // descriptor fetch and packet build (§4.1: all transfers staged
    // through NIC memory).
    co_await charge(instr_preamble);
    co_await sbus_.transfer(frag_bytes, SbusDma::Dir::kReadHost);
    co_await charge(config_.instr_build_packet);
  } else {
    // Short message, nothing to stage: descriptor fetch and packet build
    // are one uninterrupted instruction block — charge them as one
    // scheduled event instead of two back-to-back ones.
    co_await charge(instr_preamble + config_.instr_build_packet);
  }
  if (desc.first_sent_at < 0) desc.first_sent_at = engine_->now();
  if (!gam && table_gen != channel_table_gen_) {
    co_return true;  // rebooted while staging: nothing bound yet
  }

  Frame f = data_frame(ep, desc, dst.node, dst.ep, dst.key, frag);
  f.timestamp = nic_timestamp();

  ep.mark_in_flight(desc, frag);

  if (gam) {
    co_await inject(std::move(f));
    counters_.data_sent.inc();
    // No acknowledgment: the first-generation interface assumes a
    // reliable network. The descriptor completes as soon as it is sent.
    ep.mark_acked(desc, frag);
    if (desc.complete()) {
      counters_.msgs_completed.inc();
      ++ep.msgs_sent;
      ep.sweep_send_queue();
      if (ep.on_send_progress) ep.on_send_progress();
    }
    co_return true;
  }

  f.channel = ch->index;
  f.seq = ch->next_seq++;
  f.epoch = ch->epoch;
  acquire_channel(*ch, ep);
  ch->msg_id = desc.msg_id;
  ch->frag_index = frag;
  ch->dst_ep = dst.ep;
  ch->key = dst.key;
  ch->seq = f.seq;
  ch->timestamp = f.timestamp;
  ch->consecutive_retries = 0;
  ch->sent_at = engine_->now();
  ch->was_retransmitted = false;

  // §8 extension: carry pending acknowledgments for this peer. The channel
  // remembers them, since a retransmission carries them again.
  if (config_.piggyback_acks) {
    Peer& p = peer(dst.node);
    auto& pending = p.pending_acks;
    const auto take = std::min<std::size_t>(
        pending.size(), static_cast<std::size_t>(config_.piggyback_max));
    if (take > 0) {
      f.piggy_acks.assign(pending.begin(),
                          pending.begin() + static_cast<std::ptrdiff_t>(take));
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(take));
      counters_.acks_piggybacked.inc(take);
      std::copy(f.piggy_acks.begin(), f.piggy_acks.end(),
                p.carried.begin() + ch->index * config_.piggyback_max);
    }
    ch->carried_acks = static_cast<std::uint16_t>(take);
  }

  co_await inject(std::move(f));
  counters_.data_sent.inc();
  if (table_gen != channel_table_gen_) {
    co_return true;  // rebooted during injection: channel table is gone
  }
  arm_timer(*ch, backoff_for(*ch, 0));
  co_return true;
}

std::uint32_t Nic::fragment_bytes(const SendDescriptor& desc,
                                  std::uint32_t frag) const {
  const std::uint32_t mtu = config_.max_packet_payload;
  return desc.body.bulk_bytes == 0
             ? 0
             : std::min(mtu, desc.body.bulk_bytes - frag * mtu);
}

Frame Nic::data_frame(const EndpointState& ep, const SendDescriptor& desc,
                      NodeId dst_node, EpId dst_ep, std::uint64_t key,
                      std::uint32_t frag) const {
  // Every field but the channel's (channel, seq, epoch), the timestamp and
  // piggybacked acks, which the caller stamps.
  Frame f;
  f.kind = FrameKind::kData;
  f.src_node = node_;
  f.src_ep = ep.id;
  f.dst_node = dst_node;
  f.dst_ep = dst_ep;
  f.key = key;
  f.src_tag = ep.tag;
  f.body = desc.body;
  f.reply_to = desc.reply_to;
  f.msg_id = desc.msg_id;
  f.frag_index = frag;
  f.frag_count = desc.frag_count;
  f.frag_bytes = fragment_bytes(desc, frag);
  return f;
}

sim::Task<bool> Nic::deliver_local(EndpointState& src, SendDescriptor& desc,
                                   EpId dst_ep, std::uint64_t key) {
  const bool gam = !config_.reliable_transport;
  co_await charge((gam ? config_.gam_instr_send : config_.instr_send_descriptor) +
                  (gam ? config_.gam_instr_recv : config_.instr_recv_process));

  auto finish_ok = [&] {
    src.mark_all_acked(desc);
    counters_.msgs_completed.inc();
    counters_.local_deliveries.inc();
    ++src.msgs_sent;
    src.sweep_send_queue();
    if (src.on_send_progress) src.on_send_progress();
  };

  auto it = directory_.find(dst_ep);
  if (it == directory_.end()) {
    return_to_sender(src, desc.msg_id, NackReason::kNoSuchEndpoint);
    co_return true;
  }
  EndpointState& dst = *it->second;
  if (!gam && key != dst.tag) {
    return_to_sender(src, desc.msg_id, NackReason::kBadKey);
    co_return true;
  }
  if (!dst.resident()) {
    // A local reference to a non-resident endpoint triggers activation
    // (§4.1) and the message waits, exactly like a remote arrival.
    request_make_resident(dst);
    co_return false;
  }
  auto& queue = desc.body.is_request ? dst.recv_requests : dst.recv_replies;
  const auto reserved = desc.body.is_request ? dst.nic_reserved_requests
                                             : dst.nic_reserved_replies;
  const auto depth = static_cast<std::size_t>(desc.body.is_request
                                                  ? config_.recv_request_depth
                                                  : config_.recv_reply_depth);
  if (queue.size() + reserved >= depth) {
    if (gam) {
      // GAM drops on overrun; user-level credits are the only protection.
      counters_.gam_drops.inc();
      ++dst.recv_overruns;
      finish_ok();  // the send itself "succeeded"
      co_return true;
    }
    ++dst.recv_overruns;
    co_return false;  // retry later (stays in the send queue)
  }

  // Bulk payload crosses the SBUS twice for a local message (out of the
  // source region, into the destination region).
  if (desc.body.bulk_bytes > 0) {
    co_await sbus_.transfer(desc.body.bulk_bytes, SbusDma::Dir::kReadHost);
    co_await sbus_.transfer(desc.body.bulk_bytes, SbusDma::Dir::kWriteHost);
  }

  RecvEntry entry;
  entry.body = desc.body;
  entry.reply_to = desc.body.is_request
                       ? ReplyToken{node_, src.id, desc.msg_id, src.tag}
                       : ReplyToken{};
  entry.src_node = node_;
  entry.src_ep = src.id;
  entry.msg_id = desc.msg_id;
  entry.arrived_at = engine_->now();
  queue.push_back(std::move(entry));
  ++dst.msgs_delivered;
  if (engine_->spans().enabled()) {
    // Local delivery skips the wire boundaries; critical_path() charges the
    // whole pickup→deposit gap to tx_service for local traffic.
    engine_->spans().point(
        obs::SpanRecorder::key(static_cast<std::uint32_t>(node_), src.id,
                               desc.msg_id),
        obs::SpanPoint::kRxDeposit, static_cast<std::int64_t>(engine_->now()));
  }
  finish_ok();
  if (dst.on_arrival) dst.on_arrival();
  co_return true;
}

sim::Task<> Nic::inject(Frame f) {
  const auto& routes = fabric_->routes(node_, f.dst_node);
  assert(!routes.empty());
  // Channels are statically bound to routes (§5.3): FIFO per channel.
  const auto& route = routes[f.channel % routes.size()];

  const bool own_data = f.kind == FrameKind::kData && f.src_node == node_;
  const EpId span_ep = f.src_ep;
  const std::uint64_t span_msg = f.msg_id;

  myrinet::Packet p;
  p.src = node_;
  p.dst = f.dst_node;
  p.route = route;
  p.wire_bytes = f.wire_bytes();
  p.payload = std::make_unique<Frame>(std::move(f));

  while (!station_->can_inject()) {
    co_await station_->drained().wait();
  }
  if (own_data && engine_->spans().enabled()) {
    // Stamped after the back-pressure wait: injection-queue stalls count
    // as NIC tx service, not as wire latency.
    engine_->spans().point(
        obs::SpanRecorder::key(static_cast<std::uint32_t>(node_), span_ep,
                               span_msg),
        obs::SpanPoint::kWireInject, static_cast<std::int64_t>(engine_->now()));
  }
  station_->inject(std::move(p));
}

// --------------------------------------------------------------- receive

sim::Task<bool> Nic::handle_rx(myrinet::Packet pkt) {
  auto* frame = dynamic_cast<Frame*>(pkt.payload.get());
  if (frame == nullptr) co_return true;  // foreign traffic: ignore
  frame->delivered_at = pkt.delivered_at;
  frame->wire_hops = pkt.hops;
  if (pkt.corrupt) {
    // CRC failure: drop silently; the sender's timer recovers it.
    counters_.crc_drops.inc();
    co_await charge(16);
    co_return true;
  }
  if (frame->kind == FrameKind::kData) {
    co_await handle_data(*frame);  // the packet outlives this await
  } else {
    co_await handle_ack_or_nack(*frame);
  }
  co_return true;
}

sim::Task<> Nic::handle_data(const Frame& f) {
  const bool gam = !config_.reliable_transport;
  counters_.data_received.inc();
  for (const auto& pa : f.piggy_acks) {
    co_await apply_positive_ack(f.src_node, pa, /*standalone=*/false);
  }
  co_await charge((gam ? config_.gam_instr_recv : config_.instr_recv_process) +
                  (!gam && config_.defensive_checks ? config_.instr_defensive
                                                    : 0));

  RecvChannelState* rcs = nullptr;
  if (!gam) {
    rcs = &recv_channel(f.src_node, f.channel);
    if (f.epoch < rcs->epoch) {
      // Stale incarnation: tell the sender to resynchronize (§5.1).
      co_await send_nack(f, NackReason::kStaleEpoch, rcs->epoch);
      co_return;
    }
    if (f.epoch > rcs->epoch) {
      // The peer re-initialized; adopt its new epoch (self-synchronizing).
      rcs->epoch = f.epoch;
      rcs->have_seq = false;
    }
    if (rcs->have_seq && rcs->last_seq == f.seq) {
      // Duplicate of an already-accepted frame (our ack was lost): re-ack.
      counters_.duplicates_suppressed.inc();
      co_await send_ack(f);
      co_return;
    }
  }

  auto it = directory_.find(f.dst_ep);
  if (it == directory_.end()) {
    if (!gam) co_await send_nack(f, NackReason::kNoSuchEndpoint);
    co_return;
  }
  EndpointState& ep = *it->second;
  if (!gam && f.key != ep.tag) {
    co_await send_nack(f, NackReason::kBadKey);
    co_return;
  }
  if (!ep.resident()) {
    // Message arrival for a non-resident endpoint: nack it and ask the
    // driver to activate the endpoint (§4.1, §4.2). The sender retries.
    request_make_resident(ep);
    if (gam) {
      counters_.gam_drops.inc();
    } else {
      co_await send_nack(f, NackReason::kNotResident);
    }
    co_return;
  }

  // Exactly-once across channel rebinds and receiver reboots: suppress
  // message-level duplicates. The window lives in the endpoint (host
  // memory), so it survives the loss of NIC SRAM state.
  if (!gam) {
    auto& window = ep.delivered_from[src_key(f.src_node, f.src_ep)];
    if (window.contains(f.msg_id)) {
      counters_.duplicates_suppressed.inc();
      co_await send_ack(f);
      co_return;
    }
  }

  auto& queue = f.body.is_request ? ep.recv_requests : ep.recv_replies;
  auto& reserved = f.body.is_request ? ep.nic_reserved_requests
                                     : ep.nic_reserved_replies;
  const auto depth = static_cast<std::size_t>(
      f.body.is_request ? config_.recv_request_depth
                        : config_.recv_reply_depth);

  const auto rkey = std::make_tuple(f.src_node, f.src_ep, f.msg_id);
  auto rit = ep.reassembly.find(rkey);
  const bool first_frag = (rit == ep.reassembly.end());
  // The LANai has only a few packet buffers between the wire and the
  // endpoint queues; frames already received but not yet demultiplexed
  // count against the queue up to that buffering, otherwise overruns
  // would hide in NIC memory. (Counting the *whole* backlog would let a
  // retry storm at high fan-in nack 100% of arrivals forever.)
  const std::size_t staged = std::min<std::size_t>(rx_.size(), 8);
  if (first_frag && queue.size() + reserved + staged >= depth) {
    ++ep.recv_overruns;
    if (gam) {
      counters_.gam_drops.inc();
    } else {
      co_await send_nack(f, NackReason::kQueueFull);
    }
    co_return;
  }

  co_await accept_fragment(ep, f, queue, reserved);
  if (!gam) {
    // Re-resolve the receive channel: a reboot during the SBUS staging
    // above destroys the table `rcs` pointed into. A fresh entry (epoch 0)
    // simply adopts the sender's epoch, as any first frame would.
    RecvChannelState& rc = recv_channel(f.src_node, f.channel);
    if (f.epoch >= rc.epoch) {
      rc.epoch = f.epoch;
      rc.have_seq = true;
      rc.last_seq = f.seq;
    }
    co_await send_ack(f);
  }
}

sim::Task<> Nic::accept_fragment(EndpointState& ep, const Frame& f,
                                 RecvQueue& queue,
                                 std::uint32_t& reserved) {
  // Bulk payload is staged NIC SRAM -> host memory across the SBUS.
  if (f.frag_bytes > 0) {
    co_await sbus_.transfer(f.frag_bytes, SbusDma::Dir::kWriteHost);
  }

  auto deliver = [&](RecvEntry entry) {
    queue.push_back(std::move(entry));
    ++ep.msgs_delivered;
    if (config_.reliable_transport) {
      ep.delivered_from[src_key(f.src_node, f.src_ep)].remember(f.msg_id);
    }
    if (engine_->spans().enabled()) {
      const std::uint64_t k = obs::SpanRecorder::key(
          static_cast<std::uint32_t>(f.src_node), f.src_ep, f.msg_id);
      if (f.delivered_at >= 0) {
        engine_->spans().point(k, obs::SpanPoint::kWireDeliver,
                               static_cast<std::int64_t>(f.delivered_at));
        engine_->spans().set_wire_hops(k, f.wire_hops);
      }
      engine_->spans().point(k, obs::SpanPoint::kRxDeposit,
                             static_cast<std::int64_t>(engine_->now()));
    }
    if (ep.on_arrival) ep.on_arrival();
  };

  auto make_entry = [&] {
    RecvEntry entry;
    entry.body = f.body;
    entry.reply_to = f.body.is_request
                         ? ReplyToken{f.src_node, f.src_ep, f.msg_id, f.src_tag}
                         : ReplyToken{};
    entry.src_node = f.src_node;
    entry.src_ep = f.src_ep;
    entry.msg_id = f.msg_id;
    entry.arrived_at = engine_->now();
    return entry;
  };

  if (f.frag_count <= 1) {
    deliver(make_entry());
    co_return;
  }

  const auto rkey = std::make_tuple(f.src_node, f.src_ep, f.msg_id);
  auto rit = ep.reassembly.find(rkey);
  if (rit == ep.reassembly.end()) {
    Reassembly r{make_entry(), FragBitmap(f.frag_count), f.body.is_request};
    r.frags.insert(f.frag_index);
    ++reserved;  // hold a queue slot for the completed message
    ep.reassembly.emplace(rkey, std::move(r));
    co_return;
  }
  Reassembly& r = rit->second;
  if (!r.frags.insert(f.frag_index)) co_return;  // duplicate frag
  if (r.frags.size() == f.frag_count) {
    RecvEntry entry = std::move(r.entry);
    entry.arrived_at = engine_->now();
    ep.reassembly.erase(rit);
    if (reserved > 0) --reserved;
    deliver(std::move(entry));
  }
}

sim::Task<> Nic::send_ack(const Frame& data) {
  if (config_.piggyback_acks) {
    // Queue the acknowledgment; it rides the next data frame toward the
    // sender, or a standalone flush goes out after piggyback_delay.
    Frame::PiggyAck pa;
    pa.channel = data.channel;
    pa.seq = data.seq;
    pa.epoch = data.epoch;
    pa.timestamp = data.timestamp;
    pa.msg_id = data.msg_id;
    pa.frag_index = data.frag_index;
    peer(data.src_node).pending_acks.push_back(pa);
    schedule_piggy_flush(data.src_node);
    co_return;
  }
  co_await charge(config_.instr_ack_generate);
  Frame a;
  a.kind = FrameKind::kAck;
  a.src_node = node_;
  a.src_ep = data.dst_ep;
  a.dst_node = data.src_node;
  a.dst_ep = data.src_ep;
  a.channel = data.channel;
  a.epoch = data.epoch;
  a.acked_seq = data.seq;
  a.timestamp = data.timestamp;  // echoed for the sender's matching rule
  a.msg_id = data.msg_id;
  counters_.acks_sent.inc();
  co_await inject(std::move(a));
}

sim::Task<> Nic::send_nack(const Frame& data, NackReason r,
                           std::uint32_t epoch) {
  co_await charge(config_.instr_ack_generate);
  Frame a;
  a.kind = FrameKind::kNack;
  a.nack = r;
  a.src_node = node_;
  a.src_ep = data.dst_ep;
  a.dst_node = data.src_node;
  a.dst_ep = data.src_ep;
  a.channel = data.channel;
  a.epoch = epoch;
  a.acked_seq = data.seq;
  a.timestamp = data.timestamp;
  a.msg_id = data.msg_id;
  counters_.nacks_sent.inc();
  counters_.nacks_sent_by_reason[static_cast<int>(r)].inc();
  co_await inject(std::move(a));
}

sim::Task<> Nic::handle_ack_or_nack(const Frame& f) {
  if (f.kind == FrameKind::kAck) {
    // Positive acks (standalone or carrying extra piggybacked entries) all
    // go through the same validation/application path; a stale main entry
    // must not discard the piggybacked ones.
    Frame::PiggyAck main;
    main.channel = f.channel;
    main.seq = f.acked_seq;
    main.epoch = f.epoch;
    main.timestamp = f.timestamp;
    main.msg_id = f.msg_id;
    main.frag_index = f.frag_index;
    co_await apply_positive_ack(f.src_node, main, /*standalone=*/true);
    for (const auto& pa : f.piggy_acks) {
      co_await apply_positive_ack(f.src_node, pa, /*standalone=*/false);
    }
    co_return;
  }

  co_await charge(config_.instr_ack_process +
                  (config_.defensive_checks ? config_.instr_defensive : 0));
  ChannelState* chp = find_channel(f.src_node, f.channel);
  if (chp == nullptr) co_return;  // unknown channel (e.g. after reboot)
  ChannelState& ch = *chp;

  if (f.nack == NackReason::kStaleEpoch) {
    // Peer is ahead of us: adopt its epoch and retransmit (§5.1).
    if (ch.busy && f.epoch > ch.epoch) {
      ch.epoch = f.epoch;
      ch.timer_gen++;
      disarm_timer(ch);
      due_retransmits_.push_back(&ch);
    }
    counters_.nacks_received.inc();
    co_return;
  }

  // Validate against the most recent (re)transmission: the echoed
  // timestamp must match (§5.3's accounting rule for in-flight copies).
  if (!ch.busy || f.epoch != ch.epoch || f.acked_seq != ch.seq ||
      f.timestamp != ch.timestamp) {
    co_return;  // stale nack for an older copy
  }

  counters_.nacks_received.inc();
  if (is_fatal(f.nack)) {
    EndpointState* ep = ch.src_ep;
    const std::uint64_t msg = ch.msg_id;
    release_channel(ch);
    ch.timer_gen++;
    disarm_timer(ch);
    return_to_sender(*ep, msg, f.nack);
    co_return;
  }
  // Transient: back off and retransmit via the timer path. The explicit
  // nack tells us the frame arrived but could not be delivered, so the
  // retry delay starts from the (short) nack base, not the loss timeout.
  ch.consecutive_retries++;
  ch.timer_gen++;
  disarm_timer(ch);
  arm_timer(ch, nack_backoff(ch.consecutive_retries));
}

sim::Duration Nic::nack_backoff(int consecutive) const {
  const int exp = std::min(consecutive, config_.max_backoff_exponent);
  const auto base = config_.nack_retry_delay << exp;
  const double jitter = 0.75 + 0.5 * const_cast<Nic*>(this)->rng_.uniform();
  return static_cast<sim::Duration>(static_cast<double>(base) * jitter);
}

void Nic::complete_fragment_ack(ChannelState& ch, std::uint64_t msg_id) {
  EndpointState& ep = *ch.src_ep;
  release_channel(ch);
  ch.timer_gen++;
  disarm_timer(ch);
  ch.consecutive_retries = 0;
  SendDescriptor* desc = find_descriptor(ep, msg_id);
  work_.notify_all();  // a channel freed: senders may proceed
  if (desc == nullptr) return;  // descriptor aborted meanwhile
  if (!ep.mark_acked(*desc, ch.frag_index)) {
    return;  // defensive: fragment already accounted for
  }
  if (desc->complete()) {
    counters_.msgs_completed.inc();
    ++ep.msgs_sent;
    ep.sweep_send_queue();
    if (ep.on_send_progress) ep.on_send_progress();
  }
}

// ---------------------------------------------------------- retransmission

void Nic::arm_timer(ChannelState& ch, sim::Duration timeout) {
  // Capture the channel by key, not by reference: reboot() destroys the
  // channel table, and a timer closure holding a reference into the old
  // vectors would fire on freed memory.
  const NodeId peer = ch.peer;
  const std::uint16_t index = ch.index;
  const std::uint64_t gen = ch.timer_gen;
  const std::uint64_t table_gen = channel_table_gen_;
  ch.timer_ev = engine_->after(timeout, [this, peer, index, gen, table_gen] {
    if (table_gen != channel_table_gen_) return;  // armed before a reboot
    ChannelState* ch = find_channel(peer, index);
    if (ch != nullptr && ch->busy && ch->timer_gen == gen) {
      due_retransmits_.push_back(ch);
      work_.notify_all();
    }
  });
}

void Nic::disarm_timer(ChannelState& ch) {
  // The timer_gen guard alone already makes a stale firing harmless; the
  // O(1) cancel additionally removes the dead event from the queue so acked
  // channels leave nothing behind. Cancelling a fired/stale handle is a
  // no-op.
  if (ch.timer_ev.valid()) {
    engine_->cancel(ch.timer_ev);
    ch.timer_ev = sim::EventHandle{};
  }
}

sim::Task<bool> Nic::handle_retransmit(ChannelState* ch) {
  if (!ch->busy) co_return false;  // acked while queued: stale
  // As in start_fragment: `ch` dies if reboot() runs while this coroutine
  // is suspended, so re-validate after every suspension.
  const std::uint64_t table_gen = channel_table_gen_;
  co_await charge(config_.instr_timer_scan);
  if (table_gen != channel_table_gen_) co_return true;
  EndpointState& ep = *ch->src_ep;
  SendDescriptor* desc = find_descriptor(ep, ch->msg_id);
  if (desc == nullptr) {
    release_channel(*ch);
    ch->timer_gen++;
    co_return true;
  }

  // Prolonged absence of acknowledgments: unrecoverable transport
  // condition — return the message to its sender (§3.2, §5.1).
  if (engine_->now() - desc->first_sent_at > config_.unreachable_timeout) {
    return_to_sender(ep, desc->msg_id, NackReason::kNone);
    co_return true;
  }

  counters_.timeouts.inc();
  ch->consecutive_retries++;
  if (ch->consecutive_retries > config_.retransmit_unbind_limit) {
    // Unbind the message from the channel so the channel can be reused;
    // a later retransmission reacquires and rebinds (§5.1).
    counters_.channel_unbinds.inc();
    const bool was_in_flight = ep.mark_unsent(*desc, ch->frag_index);
    if constexpr (kCheckIndexes) {
      index_check(was_in_flight, node_, "unbound fragment was not in flight");
    }
    release_channel(*ch);
    ch->timer_gen++;
    work_.notify_all();
    co_return true;
  }

  co_await charge(config_.instr_build_packet);
  if (table_gen != channel_table_gen_) co_return true;
  ch->timestamp = nic_timestamp();
  ch->timer_gen++;
  ch->sent_at = engine_->now();
  ch->was_retransmitted = true;  // Karn: no RTT sample from this exchange
  counters_.retransmissions.inc();
  if (engine_->spans().enabled()) {
    // Retransmission edge: the span keeps its first-pickup/first-inject
    // boundaries and records the retry as causal metadata instead.
    engine_->spans().edge(
        obs::SpanRecorder::key(static_cast<std::uint32_t>(node_), ep.id,
                               desc->msg_id),
        obs::SpanEdge::Kind::kRetransmit,
        static_cast<std::int64_t>(engine_->now()), ch->consecutive_retries);
  }
  // The copy on the wire is the original frame rebuilt from its descriptor,
  // restamped with the channel's current epoch and timestamp.
  Frame f = data_frame(ep, *desc, ch->peer, ch->dst_ep, ch->key,
                       ch->frag_index);
  f.channel = ch->index;
  f.seq = ch->seq;
  f.epoch = ch->epoch;
  f.timestamp = ch->timestamp;
  if (ch->carried_acks > 0) {
    const auto first = peer(ch->peer).carried.begin() +
                       ch->index * config_.piggyback_max;
    f.piggy_acks.assign(first, first + ch->carried_acks);
  }
  co_await inject(std::move(f));
  if (table_gen != channel_table_gen_) co_return true;
  arm_timer(*ch, backoff_for(*ch, ch->consecutive_retries));
  co_return true;
}

sim::Duration Nic::data_timeout(NodeId peer) const {
  if (config_.adaptive_timeout) {
    const Peer* p = find_peer(peer);
    if (p != nullptr && p->rtt.valid) {
      return p->rtt.timeout(config_.adaptive_timeout_min);
    }
  }
  return config_.retransmit_timeout;
}

sim::Duration Nic::backoff_for(const ChannelState& ch, int consecutive) const {
  const int exp = std::min(consecutive, config_.max_backoff_exponent);
  const auto base = data_timeout(ch.peer) << exp;
  const double jitter = 0.75 + 0.5 * const_cast<Nic*>(this)->rng_.uniform();
  return static_cast<sim::Duration>(static_cast<double>(base) * jitter);
}

sim::Task<> Nic::apply_positive_ack(NodeId peer, const Frame::PiggyAck& pa,
                                    bool standalone) {
  co_await charge((standalone ? config_.instr_ack_process
                              : config_.instr_piggy_ack) +
                  (standalone && config_.defensive_checks
                       ? config_.instr_defensive
                       : 0));
  ChannelState* chp = find_channel(peer, pa.channel);
  if (chp == nullptr) co_return;
  ChannelState& ch = *chp;
  if (!ch.busy || pa.epoch != ch.epoch || pa.seq != ch.seq ||
      pa.timestamp != ch.timestamp) {
    co_return;  // stale
  }
  counters_.acks_received.inc();
  if (config_.adaptive_timeout && !ch.was_retransmitted) {
    this->peer(peer).rtt.sample(engine_->now() - ch.sent_at);
    counters_.rtt_ns.record(static_cast<double>(engine_->now() - ch.sent_at));
  }
  complete_fragment_ack(ch, pa.msg_id);
}

void Nic::schedule_piggy_flush(NodeId peer) {
  Peer& p = this->peer(peer);
  if (p.piggy_flush_scheduled) return;
  p.piggy_flush_scheduled = true;
  engine_->after(config_.piggyback_delay, [this, peer] {
    Peer& p = this->peer(peer);
    p.piggy_flush_scheduled = false;
    if (p.pending_acks.empty()) return;
    engine_->spawn([](Nic* nic, NodeId p) -> sim::Process {
      co_await nic->flush_pending_acks(p);
    }(this, peer));
  });
}

sim::Task<> Nic::flush_pending_acks(NodeId peer) {
  auto& queued = this->peer(peer).pending_acks;
  if (queued.empty()) co_return;
  auto pending = std::move(queued);
  queued.clear();
  counters_.piggy_flushes.inc();
  co_await charge(config_.instr_ack_generate);
  // One standalone ack frame carries the first entry in its main fields
  // and the rest piggybacked.
  Frame a;
  a.kind = FrameKind::kAck;
  a.src_node = node_;
  a.dst_node = peer;
  a.channel = pending[0].channel;
  a.epoch = pending[0].epoch;
  a.acked_seq = pending[0].seq;
  a.timestamp = pending[0].timestamp;
  a.msg_id = pending[0].msg_id;
  a.frag_index = pending[0].frag_index;
  a.piggy_acks.assign(pending.begin() + 1, pending.end());
  counters_.acks_sent.inc();
  co_await inject(std::move(a));
}

// ------------------------------------------------------------- driver ops

sim::Task<> Nic::handle_driver(DriverOp op) {
  bump_lamport(op.lamport);
  counters_.driver_ops.inc();
  co_await charge(config_.instr_driver_op);
  switch (op.kind) {
    case DriverOp::Kind::kCreate:
      directory_[op.ep->id] = op.ep;
      if (op.done) op.done->open();
      break;
    case DriverOp::Kind::kLoad: {
      EndpointState& ep = *op.ep;
      if (!ep.resident()) {
        assert(op.frame >= 0 &&
               op.frame < static_cast<int>(frames_.size()) &&
               frames_[op.frame].ep == nullptr);
        // The endpoint image moves host -> NIC SRAM over the SBUS.
        co_await sbus_.transfer(kEndpointImageBytes, SbusDma::Dir::kReadHost);
        frames_[op.frame].ep = &ep;
        ep.frame = op.frame;
        counters_.frames_loaded.inc();
        ep.remap_requested = false;
      }
      if (op.done) op.done->open();
      work_.notify_all();
      break;
    }
    case DriverOp::Kind::kUnload:
    case DriverOp::Kind::kDestroy:
      // Quiescence required first (§5.3): park it; the firmware loop
      // completes it once all in-flight fragments are accounted for.
      op.ep->draining = true;
      pending_unloads_.push_back(op);
      break;
  }
}

bool Nic::endpoint_quiescent(const EndpointState& ep) const {
  check_indexes(ep);
  return ep.channels_in_flight == 0;
}

sim::Task<bool> Nic::process_unloads() {
  for (std::size_t i = 0; i < pending_unloads_.size(); ++i) {
    EndpointState& ep = *pending_unloads_[i].ep;
    if (!endpoint_quiescent(ep)) continue;
    DriverOp op = pending_unloads_[i];
    pending_unloads_.erase(pending_unloads_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    co_await charge(config_.instr_driver_op);
    if (loiter_ep_ == &ep) loiter_ep_ = nullptr;  // about to unbind / free
    if (ep.resident()) {
      // Image moves NIC SRAM -> host memory.
      co_await sbus_.transfer(kEndpointImageBytes, SbusDma::Dir::kWriteHost);
      frames_[ep.frame].ep = nullptr;
      ep.frame = -1;
      counters_.frames_unloaded.inc();
    }
    if (op.kind == DriverOp::Kind::kDestroy) {
      directory_.erase(ep.id);
      ep.remap_requested = false;
      // Receiver-side reassembly state lives in the endpoint itself, so it
      // dies with it; nothing NIC-side to purge.
    }
    ep.draining = false;
    if (op.done) op.done->open();
    co_return true;
  }
  co_return false;
}

void Nic::request_make_resident(EndpointState& ep) {
  if (ep.remap_requested) return;
  if (ep.draining) return;  // being torn down: don't reload
  ep.remap_requested = true;
  counters_.remap_requests.inc();
  ++lamport_;
  if (on_nic_request) {
    on_nic_request(
        NicRequest{NicRequest::Kind::kMakeResident, ep.id, lamport_});
  }
}

// ----------------------------------------------------------------- helpers

Nic::Peer& Nic::peer(NodeId node) {
  const auto i = static_cast<std::size_t>(node);
  if (i >= peers_.size()) peers_.resize(i + 1);
  if (peers_[i] == nullptr) peers_[i] = std::make_unique<Peer>();
  return *peers_[i];
}

Nic::ChannelState* Nic::find_channel(NodeId node, std::uint16_t index) {
  const auto i = static_cast<std::size_t>(node);
  if (i >= peers_.size() || peers_[i] == nullptr) return nullptr;
  auto& send = peers_[i]->send;
  return index < send.size() ? &send[index] : nullptr;
}

Nic::RecvChannelState& Nic::recv_channel(NodeId node, std::uint16_t index) {
  auto& recv = peer(node).recv;
  if (index >= recv.size()) {
    recv.resize(std::max<std::size_t>(
        index + 1, static_cast<std::size_t>(config_.channels_per_peer)));
  }
  return recv[index];
}

Nic::ChannelState* Nic::find_free_channel(NodeId node) {
  Peer& p = peer(node);
  if (p.send.empty()) {
    p.send.resize(static_cast<std::size_t>(config_.channels_per_peer));
    for (std::size_t i = 0; i < p.send.size(); ++i) {
      p.send[i].peer = node;
      p.send[i].index = static_cast<std::uint16_t>(i);
      p.send[i].epoch = epoch_base_;
    }
    p.free_channels = static_cast<int>(p.send.size());
    if (config_.piggyback_acks) {
      p.carried.resize(p.send.size() *
                       static_cast<std::size_t>(config_.piggyback_max));
    }
  }
  if constexpr (kCheckIndexes) {
    int free = 0;
    for (const auto& ch : p.send) free += ch.busy ? 0 : 1;
    index_check(free == p.free_channels, node_, "free channels");
  }
  if (p.free_channels == 0) return nullptr;
  // Rotate through the channels instead of always reusing the lowest free
  // index: channels are statically bound to routes, so after a channel
  // unbind (dead spine, §5.1) the rebind must land on a *different*
  // channel/route or the message would retry into the same black hole.
  const std::size_t n = p.send.size();
  for (std::size_t i = 0; i < n; ++i) {
    ChannelState& ch = p.send[(p.cursor + i) % n];
    if (!ch.busy) {
      p.cursor = (static_cast<std::size_t>(ch.index) + 1) % n;
      return &ch;
    }
  }
  return nullptr;
}

void Nic::acquire_channel(ChannelState& ch, EndpointState& ep) {
  ch.busy = true;
  ch.src_ep = &ep;
  --peer(ch.peer).free_channels;
  ++ep.channels_in_flight;
  ++busy_channels_;
}

void Nic::release_channel(ChannelState& ch) {
  ch.busy = false;
  ++peer(ch.peer).free_channels;
  --ch.src_ep->channels_in_flight;
  --busy_channels_;
}

void Nic::check_indexes(const EndpointState& ep) const {
  if constexpr (!kCheckIndexes) return;
  std::uint32_t sendable = 0;
  for (const auto& d : ep.send_queue()) {
    if (d.finished()) continue;
    index_check(d.count_unsent() == d.frags_unsent(), node_,
                "unsent fragments");
    if (d.frags_unsent() > 0) ++sendable;
  }
  index_check(sendable == ep.sendable(), node_, "sendable descriptors");
  std::uint32_t in_flight = 0;
  for (const auto& p : peers_) {
    if (p == nullptr) continue;
    for (const auto& ch : p->send) {
      if (ch.busy && ch.src_ep == &ep) ++in_flight;
    }
  }
  index_check(in_flight == ep.channels_in_flight, node_, "channels in flight");
}

SendDescriptor* Nic::find_descriptor(EndpointState& ep, std::uint64_t msg_id) {
  for (auto& d : ep.send_queue_) {
    if (d.msg_id == msg_id && !d.finished()) return &d;
  }
  return nullptr;
}

void Nic::abort_descriptor(EndpointState& ep, std::uint64_t msg_id) {
  if (ep.channels_in_flight == 0) return;
  for (auto& p : peers_) {
    if (p == nullptr) continue;
    for (auto& ch : p->send) {
      if (ch.busy && ch.src_ep == &ep && ch.msg_id == msg_id) {
        release_channel(ch);
        ch.timer_gen++;
        disarm_timer(ch);
        if (ep.channels_in_flight == 0) return;
      }
    }
  }
}

void Nic::return_to_sender(EndpointState& ep, std::uint64_t msg_id,
                           NackReason reason) {
  SendDescriptor* desc = find_descriptor(ep, msg_id);
  if (desc == nullptr) return;
  SendDescriptor copy = *desc;
  ep.mark_returned(*desc);
  abort_descriptor(ep, msg_id);
  ++ep.msgs_returned;
  counters_.returned_to_sender.inc();
  ep.sweep_send_queue();
  if (ep.on_return_to_sender) ep.on_return_to_sender(std::move(copy), reason);
  if (ep.on_send_progress) ep.on_send_progress();
  work_.notify_all();
}

}  // namespace vnet::lanai
