// The socket transport's wire format: length-prefixed frames carrying a
// type-tagged binary encoding of every Message payload in the repository.
//
// A frame is `u32 body-length | u8 frame-type | body`, little-endian, so a
// stream reader can recover frame boundaries across short reads and detect
// truncation (a reset mid-frame leaves a partial frame that never completes;
// the reader discards it and the supervisor's redelivery makes it whole
// again).  The frame-type registry is closed and append-only; four types
// are live:
//
//   ACK        u64 cumulative_seq     receiver -> sender, same connection
//   HEARTBEAT  (empty)                idle keep-alive; elicits an ACK
//   HELLO2     u32 wire_version | i32 sender node | u32 count | count x i32
//              group                  first frame of every outbound link
//   ENVELOPE2  u64 seq | i32 group | i32 sender | i32 send_round |
//              i32 target_round | i32 origin | message
//
// This is wire version 2 (kWireVersion): one link multiplexes many
// consensus groups, ENVELOPE2 tags each copy with its owning group and
// group-local sender, and HELLO2 advertises which groups the dialing node
// hosts.  Tags 1 and 2 belonged to version 1's HELLO and ENVELOPE; they
// are retired and stay reserved, and a frame carrying one is skipped like
// any unknown type.
//
// Message payloads are encoded through a closed registry of type tags — one
// per concrete Message subclass (`describe()` is for humans; the codec is
// the machine form).  Nested payloads (A_{t+2}'s underlying wrapper, the
// RSM bundle) recurse with a depth cap, so a corrupt or hostile frame can
// neither recurse unboundedly nor allocate unboundedly: every decoder
// checks remaining bytes before it trusts a count.  An RSM bundle is one
// slot-ordered run of parts: its inline DECIDE notices are written as
// ordinary Decide-tagged parts, and every Decide-tagged part decodes back
// into the bundle's notice list.
//
// Decoding never throws on malformed input from the wire; it returns
// nullopt and the connection is treated as broken (the supervisor redials
// and redelivers).  Encoding unknown message types DOES throw — that is a
// programming error, caught by tests, not a network condition.

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "sim/message.hpp"

namespace indulgence {

enum class FrameType : std::uint8_t {
  // 1 and 2: retired version-1 HELLO / ENVELOPE, reserved.
  Ack = 3,
  Heartbeat = 4,
  Hello2 = 5,     ///< node id + hosted group set
  Envelope2 = 6,  ///< group-tagged envelope
};

/// The framing version every sender advertises in HELLO2.
inline constexpr std::uint32_t kWireVersion = 2;

/// Little-endian append-only byte buffer.  The hot path reuses one writer
/// across frames: `clear()` keeps the capacity, and a writer can adopt
/// recycled storage from a FrameBufferPool so steady-state encoding
/// allocates nothing.
class WireWriter {
 public:
  WireWriter() = default;
  /// Adopts `storage` (cleared, capacity kept) as the backing buffer —
  /// the pool-recycling constructor.
  explicit WireWriter(std::vector<std::uint8_t> storage)
      : bytes_(std::move(storage)) {
    bytes_.clear();
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Overwrites 4 bytes at `offset` (already written) — how the frame
  /// encoders patch a length prefix after the body's size is known.
  void patch_u32(std::size_t offset, std::uint32_t v);

  void reserve(std::size_t n) { bytes_.reserve(n); }
  void clear() { bytes_.clear(); }  ///< keeps capacity
  std::size_t size() const { return bytes_.size(); }
  const std::uint8_t* data() const { return bytes_.data(); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor; every read reports failure instead
/// of walking off the buffer.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::int32_t> i32();
  std::optional<std::int64_t> i64();

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Appends the registry encoding of `message` to `out`.  Throws
/// std::invalid_argument for a Message subclass missing from the registry.
void encode_message(const Message& message, WireWriter& out);

/// Decodes one message; nullopt on any malformed input (unknown tag,
/// truncation, nesting deeper than the codec's cap).
MessagePtr decode_message(WireReader& in);

/// One decoded frame, as read off a connection.
struct Frame {
  FrameType type = FrameType::Heartbeat;
  ProcessId hello_sender = -1;        ///< Hello2 (node id)
  std::uint64_t seq = 0;              ///< Envelope2 / Ack (cumulative)
  NetEnvelope envelope;               ///< Envelope2, group and sender included
  std::uint32_t hello_version = 0;    ///< Hello2's wire version
  std::vector<GroupId> hello_groups;  ///< Hello2: the dialer's hosted groups
};

/// HELLO2: advertises the dialing node and the group set it hosts.
std::vector<std::uint8_t> encode_hello2(ProcessId sender,
                                        const std::vector<GroupId>& groups);
/// ENVELOPE2: carries envelope.group and the group-local envelope.sender.
std::vector<std::uint8_t> encode_envelope_frame2(std::uint64_t seq,
                                                 const NetEnvelope& envelope);
std::vector<std::uint8_t> encode_ack(std::uint64_t cumulative_seq);
std::vector<std::uint8_t> encode_heartbeat();

// --- zero-copy variants ------------------------------------------------------
//
// Each `_into` encoder appends ONE complete frame (length prefix included)
// to a caller-owned writer and returns the frame's byte count.  The writer
// is not cleared first, so many frames coalesce into one buffer — the
// transport's batched flush feeds such runs to one writev-style syscall.
// The vector-returning encoders above are thin wrappers over these, so the
// two forms are byte-identical by construction (the golden-equivalence
// tests pin it anyway).

std::size_t encode_hello2_into(ProcessId sender,
                               const std::vector<GroupId>& groups,
                               WireWriter& out);
std::size_t encode_envelope_frame2_into(std::uint64_t seq,
                                        const NetEnvelope& envelope,
                                        WireWriter& out);
std::size_t encode_ack_into(std::uint64_t cumulative_seq, WireWriter& out);
std::size_t encode_heartbeat_into(WireWriter& out);

/// Byte offset of the u64 seq inside an ENVELOPE2 frame (after
/// the 4-byte length and 1-byte type).  Lets the transport encode an
/// envelope once with a placeholder seq and stamp the real one per link
/// under the lock, without re-encoding the payload.
inline constexpr std::size_t kEnvelopeSeqOffset = 5;

/// Stamps `seq` (little-endian) into an already-encoded envelope frame.
void patch_envelope_seq(std::vector<std::uint8_t>& frame, std::uint64_t seq);

/// A thread-safe freelist of frame buffers: acquire() hands back a cleared
/// vector that keeps its old capacity, release() returns it after the
/// frame is acknowledged.  Steady-state encoding therefore allocates only
/// until the pool warms up to the link's in-flight depth.
///
/// Ownership rule: a buffer has exactly one owner at a time — the pool,
/// or the caller that acquired it.  The transport's hold queue owns each
/// frame buffer from dispatch until the cumulative ack pops it (releasing
/// it here); iovec views handed to the kernel alias hold-queue bytes and
/// must not outlive the item (the supervisor thread is the only popper, so
/// a flush's views stay valid for the duration of the write).
class FrameBufferPool {
 public:
  /// `max_pooled` bounds retained buffers so a burst cannot pin memory
  /// forever.
  explicit FrameBufferPool(std::size_t max_pooled = 4096)
      : max_pooled_(max_pooled) {}

  std::vector<std::uint8_t> acquire();
  void release(std::vector<std::uint8_t>&& buffer);

  std::size_t pooled() const;
  long reuses() const;  ///< acquires served from the freelist
  long misses() const;  ///< acquires that had to allocate fresh

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t max_pooled_;
  long reuses_ = 0;
  long misses_ = 0;
};

/// Incremental frame parser: feed bytes as they arrive (short reads
/// welcome), pop complete frames.  A frame whose declared body exceeds
/// `max_frame_bytes` poisons the stream (next() returns nullopt forever);
/// the connection should be dropped.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_frame_bytes = 1 << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// The next complete, well-formed frame; nullopt when more bytes are
  /// needed or the stream is poisoned.
  std::optional<Frame> next();

  bool poisoned() const { return poisoned_; }

  /// Bytes of an incomplete trailing frame (diagnostics / tests).
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  bool poisoned_ = false;
};

}  // namespace indulgence
