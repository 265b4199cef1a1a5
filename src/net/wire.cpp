#include "net/wire.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "consensus/amr_leader.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/consensus.hpp"
#include "consensus/floodset.hpp"
#include "consensus/floodset_ws.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2.hpp"
#include "core/at2_auth.hpp"
#include "rsm/rsm.hpp"

namespace indulgence {
namespace {

// Wire tags for the closed payload registry.  Append-only: reordering or
// reusing a tag breaks replay of shipped per-process logs.
enum class MessageTag : std::uint8_t {
  Halted = 1,
  Decide = 2,
  Filler = 3,
  FloodEstimate = 4,
  HrCoord = 5,
  HrVote = 6,
  CtEstimate = 7,
  CtPropose = 8,
  CtAck = 9,
  AmrEstimate = 10,
  AmrVote = 11,
  WsEstimate = 12,
  Af2Estimate = 13,
  At2Estimate = 14,
  At2NewEstimate = 15,
  At2Underlying = 16,
  RsmBundle = 17,
  AuthPropose = 18,
  AuthPrepare = 19,
  AuthCommit = 20,
  AuthDecide = 21,
};

// Nested payloads (At2Underlying wraps one message; RsmBundle maps slots to
// messages, and a slot can itself run A_{t+2} over an underlying module).
// Real traffic nests 2-3 deep; the cap only exists to bound what a corrupt
// frame can make the decoder do.
constexpr int kMaxNesting = 16;

// The bundle's slot count is length-checked against the remaining bytes
// before any allocation: each part needs at least a slot id and a tag.
constexpr std::size_t kMinBundlePartBytes = 5;

MessagePtr decode_message_at_depth(WireReader& in, int depth);

void encode_message_at_depth(const Message& message, WireWriter& out,
                             int depth) {
  if (depth > kMaxNesting) {
    throw std::invalid_argument("wire: message nesting exceeds codec cap");
  }
  if (auto* m = dynamic_cast<const HaltedMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::Halted));
    out.i64(m->decision());
  } else if (auto* m = dynamic_cast<const DecideMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::Decide));
    out.i64(m->value());
  } else if (dynamic_cast<const FillerMessage*>(&message) != nullptr) {
    out.u8(static_cast<std::uint8_t>(MessageTag::Filler));
  } else if (auto* m = dynamic_cast<const FloodEstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::FloodEstimate));
    out.i64(m->est());
  } else if (auto* m = dynamic_cast<const HrCoordMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::HrCoord));
    out.i64(m->est());
  } else if (auto* m = dynamic_cast<const HrVoteMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::HrVote));
    out.i64(m->aux());
  } else if (auto* m = dynamic_cast<const CtEstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::CtEstimate));
    out.i64(m->est());
    out.i32(m->ts());
  } else if (auto* m = dynamic_cast<const CtProposeMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::CtPropose));
    out.i64(m->value());
  } else if (auto* m = dynamic_cast<const CtAckMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::CtAck));
    out.u8(m->positive() ? 1 : 0);
  } else if (auto* m = dynamic_cast<const AmrEstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::AmrEstimate));
    out.i64(m->est());
  } else if (auto* m = dynamic_cast<const AmrVoteMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::AmrVote));
    out.i64(m->est());
  } else if (auto* m = dynamic_cast<const WsEstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::WsEstimate));
    out.i64(m->est());
    out.u64(m->halt().mask());
  } else if (auto* m = dynamic_cast<const Af2EstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::Af2Estimate));
    out.i64(m->est());
  } else if (auto* m = dynamic_cast<const At2EstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::At2Estimate));
    out.i64(m->est());
    out.u64(m->halt().mask());
  } else if (auto* m = dynamic_cast<const At2NewEstimateMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::At2NewEstimate));
    out.i64(m->new_estimate());
  } else if (auto* m = dynamic_cast<const At2UnderlyingMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::At2Underlying));
    encode_message_at_depth(*m->inner(), out, depth + 1);
  } else if (auto* m = dynamic_cast<const AuthProposeMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::AuthPropose));
    out.i32(m->signer());
    out.i32(m->stamp());
    out.i32(m->view());
    out.i64(m->value());
    out.i32(m->lock_view());
    out.i64(m->lock_value());
    out.u64(m->cert().mask());
  } else if (auto* m = dynamic_cast<const AuthPrepareMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::AuthPrepare));
    out.i32(m->signer());
    out.i32(m->stamp());
    out.i32(m->view());
    out.i64(m->value());
  } else if (auto* m = dynamic_cast<const AuthCommitMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::AuthCommit));
    out.i32(m->signer());
    out.i32(m->stamp());
    out.i32(m->view());
    out.i64(m->value());
    out.i32(m->lock_view());
    out.i64(m->lock_value());
    out.u64(m->lock_cert().mask());
  } else if (auto* m = dynamic_cast<const AuthDecideMessage*>(&message)) {
    out.u8(static_cast<std::uint8_t>(MessageTag::AuthDecide));
    out.i32(m->signer());
    out.i32(m->stamp());
    out.i64(m->value());
  } else if (auto* m = dynamic_cast<const RsmBundleMessage*>(&message)) {
    // One slot-ordered run of parts; an inline notice is written exactly as
    // a DecideMessage part.
    out.u8(static_cast<std::uint8_t>(MessageTag::RsmBundle));
    out.u32(static_cast<std::uint32_t>(m->size()));
    m->for_each_slot(
        [&](int slot, const MessagePtr& part) {
          out.i32(slot);
          encode_message_at_depth(*part, out, depth + 1);
        },
        [&](int slot, Value value) {
          out.i32(slot);
          encode_message_at_depth(DecideMessage(value), out, depth + 1);
        });
  } else {
    throw std::invalid_argument("wire: unregistered message type: " +
                                message.describe());
  }
}

MessagePtr decode_bundle(WireReader& in, int depth);

/// Decodes the body of a message whose tag has been read.
MessagePtr decode_body(std::uint8_t tag, WireReader& in, int depth) {
  switch (static_cast<MessageTag>(tag)) {
    case MessageTag::Halted: {
      auto v = in.i64();
      return v ? std::make_shared<HaltedMessage>(*v) : nullptr;
    }
    case MessageTag::Decide: {
      auto v = in.i64();
      return v ? std::make_shared<DecideMessage>(*v) : nullptr;
    }
    case MessageTag::Filler:
      return std::make_shared<FillerMessage>();
    case MessageTag::FloodEstimate: {
      auto v = in.i64();
      return v ? std::make_shared<FloodEstimateMessage>(*v) : nullptr;
    }
    case MessageTag::HrCoord: {
      auto v = in.i64();
      return v ? std::make_shared<HrCoordMessage>(*v) : nullptr;
    }
    case MessageTag::HrVote: {
      auto v = in.i64();
      return v ? std::make_shared<HrVoteMessage>(*v) : nullptr;
    }
    case MessageTag::CtEstimate: {
      auto est = in.i64();
      auto ts = in.i32();
      if (!est || !ts) return nullptr;
      return std::make_shared<CtEstimateMessage>(*est, *ts);
    }
    case MessageTag::CtPropose: {
      auto v = in.i64();
      return v ? std::make_shared<CtProposeMessage>(*v) : nullptr;
    }
    case MessageTag::CtAck: {
      auto b = in.u8();
      if (!b || *b > 1) return nullptr;
      return std::make_shared<CtAckMessage>(*b == 1);
    }
    case MessageTag::AmrEstimate: {
      auto v = in.i64();
      return v ? std::make_shared<AmrEstimateMessage>(*v) : nullptr;
    }
    case MessageTag::AmrVote: {
      auto v = in.i64();
      return v ? std::make_shared<AmrVoteMessage>(*v) : nullptr;
    }
    case MessageTag::WsEstimate: {
      auto est = in.i64();
      auto mask = in.u64();
      if (!est || !mask) return nullptr;
      return std::make_shared<WsEstimateMessage>(*est,
                                                 ProcessSet::from_mask(*mask));
    }
    case MessageTag::Af2Estimate: {
      auto v = in.i64();
      return v ? std::make_shared<Af2EstimateMessage>(*v) : nullptr;
    }
    case MessageTag::At2Estimate: {
      auto est = in.i64();
      auto mask = in.u64();
      if (!est || !mask) return nullptr;
      return std::make_shared<At2EstimateMessage>(*est,
                                                  ProcessSet::from_mask(*mask));
    }
    case MessageTag::At2NewEstimate: {
      auto v = in.i64();
      return v ? std::make_shared<At2NewEstimateMessage>(*v) : nullptr;
    }
    case MessageTag::At2Underlying: {
      MessagePtr inner = decode_message_at_depth(in, depth + 1);
      if (inner == nullptr) return nullptr;
      return std::make_shared<At2UnderlyingMessage>(std::move(inner));
    }
    case MessageTag::RsmBundle:
      return decode_bundle(in, depth);
    case MessageTag::AuthPropose: {
      auto signer = in.i32();
      auto stamp = in.i32();
      auto view = in.i32();
      auto value = in.i64();
      auto lock_view = in.i32();
      auto lock_value = in.i64();
      auto cert = in.u64();
      if (!signer || !stamp || !view || !value || !lock_view || !lock_value ||
          !cert) {
        return nullptr;
      }
      return std::make_shared<AuthProposeMessage>(
          *signer, *stamp, *view, *value, *lock_view, *lock_value,
          ProcessSet::from_mask(*cert));
    }
    case MessageTag::AuthPrepare: {
      auto signer = in.i32();
      auto stamp = in.i32();
      auto view = in.i32();
      auto value = in.i64();
      if (!signer || !stamp || !view || !value) return nullptr;
      return std::make_shared<AuthPrepareMessage>(*signer, *stamp, *view,
                                                  *value);
    }
    case MessageTag::AuthCommit: {
      auto signer = in.i32();
      auto stamp = in.i32();
      auto view = in.i32();
      auto value = in.i64();
      auto lock_view = in.i32();
      auto lock_value = in.i64();
      auto cert = in.u64();
      if (!signer || !stamp || !view || !value || !lock_view || !lock_value ||
          !cert) {
        return nullptr;
      }
      return std::make_shared<AuthCommitMessage>(
          *signer, *stamp, *view, *value, *lock_view, *lock_value,
          ProcessSet::from_mask(*cert));
    }
    case MessageTag::AuthDecide: {
      auto signer = in.i32();
      auto stamp = in.i32();
      auto value = in.i64();
      if (!signer || !stamp || !value) return nullptr;
      return std::make_shared<AuthDecideMessage>(*signer, *stamp, *value);
    }
  }
  return nullptr;
}

MessagePtr decode_message_at_depth(WireReader& in, int depth) {
  if (depth > kMaxNesting) return nullptr;
  auto tag = in.u8();
  if (!tag) return nullptr;
  return decode_body(*tag, in, depth);
}

/// One decoded bundle part: a running message, or (message == nullptr) a
/// DECIDE notice carrying `value`.
struct BundleEntry {
  int slot = 0;
  MessagePtr message;
  Value value = 0;
};

/// Decodes a bundle body.  A Decide-tagged part becomes an inline notice
/// without allocating a DecideMessage.  A bundle whose slots are not
/// strictly ascending (duplicated or descending) reads as a slot map
/// filled in frame order: the first copy of a slot wins, and the parts come
/// out in slot order.
MessagePtr decode_bundle(WireReader& in, int depth) {
  auto count = in.u32();
  if (!count) return nullptr;
  if (*count > in.remaining() / kMinBundlePartBytes) return nullptr;
  // Parts decode onto a per-thread stack first, so the bundle's two lists
  // are allocated once each, at their exact sizes.  A nested bundle (never
  // sent, but decodable) stacks its parts above ours and pops them on
  // return.
  thread_local std::vector<BundleEntry> stack;
  const std::size_t base = stack.size();
  struct Pop {
    std::size_t base;
    ~Pop() { stack.resize(base); }
  } pop{base};
  bool ascending = true;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto slot = in.i32();
    if (!slot || depth + 1 > kMaxNesting) return nullptr;
    auto tag = in.u8();
    if (!tag) return nullptr;
    BundleEntry entry{*slot, nullptr, 0};
    if (*tag == static_cast<std::uint8_t>(MessageTag::Decide)) {
      auto v = in.i64();
      if (!v) return nullptr;
      entry.value = *v;
    } else {
      entry.message = decode_body(*tag, in, depth + 1);
      if (entry.message == nullptr) return nullptr;
    }
    if (stack.size() > base && stack.back().slot >= *slot) ascending = false;
    stack.push_back(std::move(entry));
  }
  const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
  auto last = stack.end();
  if (!ascending) {
    const auto by_slot = [](const BundleEntry& a, const BundleEntry& b) {
      return a.slot < b.slot;
    };
    std::stable_sort(first, last, by_slot);
    last = std::unique(first, last,
                       [](const BundleEntry& a, const BundleEntry& b) {
                         return a.slot == b.slot;
                       });
  }
  const auto notices = static_cast<std::size_t>(std::count_if(
      first, last, [](const BundleEntry& e) { return e.message == nullptr; }));
  std::vector<RsmBundleMessage::Part> running;
  running.reserve(static_cast<std::size_t>(last - first) - notices);
  std::vector<RsmBundleMessage::Notice> decided;
  decided.reserve(notices);
  for (auto it = first; it != last; ++it) {
    if (it->message == nullptr) {
      decided.push_back({it->slot, it->value});
    } else {
      running.push_back({it->slot, std::move(it->message)});
    }
  }
  return std::make_shared<RsmBundleMessage>(std::move(running),
                                            std::move(decided));
}

/// Appends `u32 body-len | u8 type | body` to `out` in place: the length
/// prefix is written as a placeholder and patched once the body's size is
/// known, so a frame costs zero intermediate buffers.
template <typename BodyFn>
std::size_t append_frame(FrameType type, WireWriter& out, BodyFn&& body) {
  const std::size_t mark = out.size();
  out.u32(0);  // length placeholder, patched below
  out.u8(static_cast<std::uint8_t>(type));
  body(out);
  out.patch_u32(mark, static_cast<std::uint32_t>(out.size() - mark - 5));
  return out.size() - mark;
}

}  // namespace

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_[offset + static_cast<std::size_t>(i)] = (v >> (8 * i)) & 0xff;
  }
}

std::optional<std::uint8_t> WireReader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint32_t> WireReader::u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> WireReader::u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

std::optional<std::int32_t> WireReader::i32() {
  auto v = u32();
  if (!v) return std::nullopt;
  return static_cast<std::int32_t>(*v);
}

std::optional<std::int64_t> WireReader::i64() {
  auto v = u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

void encode_message(const Message& message, WireWriter& out) {
  encode_message_at_depth(message, out, 0);
}

MessagePtr decode_message(WireReader& in) {
  return decode_message_at_depth(in, 0);
}

std::size_t encode_hello2_into(ProcessId sender,
                               const std::vector<GroupId>& groups,
                               WireWriter& out) {
  return append_frame(FrameType::Hello2, out, [&](WireWriter& body) {
    body.u32(kWireVersion);
    body.i32(sender);
    body.u32(static_cast<std::uint32_t>(groups.size()));
    for (GroupId group : groups) body.i32(group);
  });
}

std::size_t encode_envelope_frame2_into(std::uint64_t seq,
                                        const NetEnvelope& envelope,
                                        WireWriter& out) {
  return append_frame(FrameType::Envelope2, out, [&](WireWriter& body) {
    body.u64(seq);
    body.i32(envelope.group);
    body.i32(envelope.sender);
    body.i32(envelope.send_round);
    body.i32(envelope.target_round);
    body.i32(envelope.origin);
    encode_message(*envelope.payload, body);
  });
}

std::size_t encode_ack_into(std::uint64_t cumulative_seq, WireWriter& out) {
  return append_frame(FrameType::Ack, out,
                      [&](WireWriter& body) { body.u64(cumulative_seq); });
}

std::size_t encode_heartbeat_into(WireWriter& out) {
  return append_frame(FrameType::Heartbeat, out, [](WireWriter&) {});
}

std::vector<std::uint8_t> encode_hello2(ProcessId sender,
                                        const std::vector<GroupId>& groups) {
  WireWriter out;
  encode_hello2_into(sender, groups, out);
  return out.take();
}

std::vector<std::uint8_t> encode_envelope_frame2(std::uint64_t seq,
                                                 const NetEnvelope& envelope) {
  WireWriter out;
  encode_envelope_frame2_into(seq, envelope, out);
  return out.take();
}

std::vector<std::uint8_t> encode_ack(std::uint64_t cumulative_seq) {
  WireWriter out;
  encode_ack_into(cumulative_seq, out);
  return out.take();
}

std::vector<std::uint8_t> encode_heartbeat() {
  WireWriter out;
  encode_heartbeat_into(out);
  return out.take();
}

void patch_envelope_seq(std::vector<std::uint8_t>& frame, std::uint64_t seq) {
  if (frame.size() < kEnvelopeSeqOffset + 8) {
    throw std::invalid_argument("wire: frame too short for a seq patch");
  }
  for (int i = 0; i < 8; ++i) {
    frame[kEnvelopeSeqOffset + static_cast<std::size_t>(i)] =
        (seq >> (8 * i)) & 0xff;
  }
}

std::vector<std::uint8_t> FrameBufferPool::acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.empty()) {
    ++misses_;
    return {};
  }
  ++reuses_;
  std::vector<std::uint8_t> buffer = std::move(free_.back());
  free_.pop_back();
  buffer.clear();  // keeps capacity
  return buffer;
}

void FrameBufferPool::release(std::vector<std::uint8_t>&& buffer) {
  if (buffer.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() >= max_pooled_) return;  // drop: the bound wins
  free_.push_back(std::move(buffer));
}

std::size_t FrameBufferPool::pooled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

long FrameBufferPool::reuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reuses_;
}

long FrameBufferPool::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned_) return;
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameParser::next() {
  while (!poisoned_) {
    if (buffer_.size() < 5) return std::nullopt;
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i) {
      body_len |= std::uint32_t{buffer_[i]} << (8 * i);
    }
    if (body_len > max_frame_bytes_) {
      poisoned_ = true;
      return std::nullopt;
    }
    if (buffer_.size() < 5 + std::size_t{body_len}) return std::nullopt;

    const std::uint8_t raw_type = buffer_[4];
    WireReader body(buffer_.data() + 5, body_len);
    std::optional<Frame> frame;
    switch (static_cast<FrameType>(raw_type)) {
      case FrameType::Hello2: {
        auto version = body.u32();
        auto sender = body.i32();
        auto count = body.u32();
        // Length-check the advertised group count (4 bytes each) before
        // trusting it with an allocation.
        if (version && sender && count && *count <= body.remaining() / 4) {
          Frame f;
          f.type = FrameType::Hello2;
          f.hello_version = *version;
          f.hello_sender = *sender;
          f.hello_groups.reserve(*count);
          bool ok = true;
          for (std::uint32_t i = 0; ok && i < *count; ++i) {
            auto group = body.i32();
            if (group) {
              f.hello_groups.push_back(*group);
            } else {
              ok = false;
            }
          }
          if (ok && body.done()) frame = std::move(f);
        }
        break;
      }
      case FrameType::Envelope2: {
        auto seq = body.u64();
        auto group = body.i32();
        auto sender = body.i32();
        auto send_round = body.i32();
        auto target_round = body.i32();
        auto origin = body.i32();
        if (seq && group && sender && send_round && target_round && origin) {
          MessagePtr payload = decode_message(body);
          if (payload != nullptr && body.done()) {
            Frame f;
            f.type = FrameType::Envelope2;
            f.seq = *seq;
            f.envelope.group = *group;
            f.envelope.sender = *sender;
            f.envelope.send_round = *send_round;
            f.envelope.target_round = *target_round;
            f.envelope.origin = *origin;
            f.envelope.payload = std::move(payload);
            frame = std::move(f);
          }
        }
        break;
      }
      case FrameType::Ack: {
        auto seq = body.u64();
        if (seq && body.done()) {
          Frame f;
          f.type = FrameType::Ack;
          f.seq = *seq;
          frame = std::move(f);
        }
        break;
      }
      case FrameType::Heartbeat: {
        if (body.done()) frame = Frame{};  // default Frame IS a heartbeat
        break;
      }
      default:
        break;
    }

    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + 5 + static_cast<std::ptrdiff_t>(body_len));
    if (frame) return frame;
    // Malformed body, or a type no live frame uses (the retired v1 tags
    // included): skip the frame and keep parsing (the peer's supervisor
    // will redeliver anything that mattered).
  }
  return std::nullopt;
}

}  // namespace indulgence
