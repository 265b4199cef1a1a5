// The socket transport's wire codec: every registered Message type must
// round-trip bit-exactly, malformed bytes must decode to nullopt (never
// throw, never over-read), and the incremental FrameParser must reassemble
// frames across arbitrary read boundaries — that is exactly what the chaos
// layer's short writes stress in anger.

#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

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
#include "sim/message.hpp"

namespace indulgence {
namespace {

MessagePtr roundtrip(const Message& message) {
  WireWriter w;
  encode_message(message, w);
  WireReader r(w.bytes().data(), w.bytes().size());
  MessagePtr decoded = decode_message(r);
  EXPECT_NE(decoded, nullptr) << message.describe();
  EXPECT_TRUE(r.done()) << message.describe();
  return decoded;
}

/// Round-trips and compares via describe(), which every Message implements
/// over its full state.
void expect_roundtrip(const Message& message) {
  MessagePtr decoded = roundtrip(message);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->describe(), message.describe());
}

TEST(WireCodec, EveryRegisteredMessageTypeRoundTrips) {
  expect_roundtrip(HaltedMessage(42));
  expect_roundtrip(DecideMessage(-7));
  expect_roundtrip(FillerMessage());
  expect_roundtrip(FloodEstimateMessage(3));
  expect_roundtrip(HrCoordMessage(11));
  expect_roundtrip(HrVoteMessage(5));
  expect_roundtrip(CtEstimateMessage(9, 4));
  expect_roundtrip(CtProposeMessage(13));
  expect_roundtrip(CtAckMessage(true));
  expect_roundtrip(CtAckMessage(false));
  expect_roundtrip(AmrEstimateMessage(21));
  expect_roundtrip(AmrVoteMessage(-1));
  expect_roundtrip(WsEstimateMessage(8, ProcessSet::from_mask(0b1011)));
  expect_roundtrip(Af2EstimateMessage(kBottom));
  expect_roundtrip(At2EstimateMessage(17, ProcessSet::from_mask(0b110)));
  expect_roundtrip(At2NewEstimateMessage(kBottom));
  expect_roundtrip(
      At2UnderlyingMessage(std::make_shared<HrCoordMessage>(99)));
  expect_roundtrip(RsmBundleMessage(
      {{0, std::make_shared<CtProposeMessage>(1)},
       {3, std::make_shared<At2UnderlyingMessage>(
               std::make_shared<FloodEstimateMessage>(2))}},
      {}));
  expect_roundtrip(AuthProposeMessage(2, 7, 2, 33, 1, 33,
                                      ProcessSet::from_mask(0b1101)));
  expect_roundtrip(AuthProposeMessage(0, 1, 0, 5, -1, kBottom, ProcessSet()));
  expect_roundtrip(AuthPrepareMessage(1, 8, 2, kBottom));
  expect_roundtrip(AuthCommitMessage(3, 9, 2, 33, 2, 33,
                                     ProcessSet::from_mask(0b0111)));
  expect_roundtrip(AuthDecideMessage(2, 10, -9));
}

TEST(WireCodec, ExtremeValuesSurvive) {
  expect_roundtrip(HaltedMessage(std::numeric_limits<Value>::max()));
  expect_roundtrip(FloodEstimateMessage(std::numeric_limits<Value>::min()));
  expect_roundtrip(WsEstimateMessage(0, ProcessSet::from_mask(~0ull)));
}

TEST(WireCodec, UnknownTagDecodesToNull) {
  const std::uint8_t bytes[] = {0xee, 0, 0, 0, 0, 0, 0, 0, 0};
  WireReader r(bytes, sizeof(bytes));
  EXPECT_EQ(decode_message(r), nullptr);
}

TEST(WireCodec, TruncatedPayloadDecodesToNull) {
  WireWriter w;
  encode_message(CtEstimateMessage(5, 2), w);
  for (std::size_t cut = 0; cut < w.bytes().size(); ++cut) {
    WireReader r(w.bytes().data(), cut);
    EXPECT_EQ(decode_message(r), nullptr) << "prefix length " << cut;
  }
}

TEST(WireCodec, TruncatedAuthPayloadsDecodeToNull) {
  // The Auth messages are the widest in the registry (seven fields); every
  // strict prefix must fail cleanly at the missing field, never over-read.
  const AuthProposeMessage propose(2, 7, 2, 33, 1, 33,
                                   ProcessSet::from_mask(0b1101));
  const AuthCommitMessage commit(3, 9, 2, 33, 2, 33,
                                 ProcessSet::from_mask(0b0111));
  const AuthDecideMessage decide(2, 10, -9);
  for (const Message* m :
       {static_cast<const Message*>(&propose),
        static_cast<const Message*>(&commit),
        static_cast<const Message*>(&decide)}) {
    WireWriter w;
    encode_message(*m, w);
    for (std::size_t cut = 0; cut < w.bytes().size(); ++cut) {
      WireReader r(w.bytes().data(), cut);
      EXPECT_EQ(decode_message(r), nullptr)
          << m->describe() << " prefix length " << cut;
    }
  }
}

TEST(WireCodec, CtAckRejectsNonBooleanByte) {
  const std::uint8_t bytes[] = {9 /* CtAck */, 2 /* neither 0 nor 1 */};
  WireReader r(bytes, sizeof(bytes));
  EXPECT_EQ(decode_message(r), nullptr);
}

TEST(WireCodec, NestingBeyondCapDecodesToNull) {
  // 20 levels of At2Underlying tag with nothing inside: the depth cap (16)
  // must refuse before the truncation does anything exciting.
  std::vector<std::uint8_t> bytes(20, 16 /* At2Underlying */);
  WireReader r(bytes.data(), bytes.size());
  EXPECT_EQ(decode_message(r), nullptr);
}

TEST(WireCodec, BundleCountIsLengthCheckedBeforeAllocation) {
  WireWriter w;
  w.u8(17);               // RsmBundle
  w.u32(0x00ffffff);      // absurd part count, almost no bytes follow
  w.i32(1);
  WireReader r(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(decode_message(r), nullptr);
}

// A bundle mixing running parts (one of them a DecideMessage, one a
// HaltedMessage) with inline DECIDE notices.  Its bytes and describe() are
// the ones a slot-keyed map of the same parts produced, so frames, shipped
// logs and trace strings did not change with the flat layout.
RsmBundleMessage mixed_bundle() {
  return RsmBundleMessage(
      {{1, std::make_shared<At2EstimateMessage>(17,
                                                ProcessSet::from_mask(0b110))},
       {2, std::make_shared<DecideMessage>(-3)},
       {4, std::make_shared<HaltedMessage>(9)},
       {7, std::make_shared<At2UnderlyingMessage>(
               std::make_shared<HrCoordMessage>(99))}},
      {{0, 5}, {5, 7}});
}

const std::vector<std::uint8_t> kMixedBundleBytes = {
    0x11, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x05, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x0e, 0x11,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0xfd, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0x04, 0x00, 0x00, 0x00, 0x01, 0x09, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x02, 0x07, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x10, 0x05,
    0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

constexpr const char* kMixedBundleDescribe =
    "RSM{s0:DECIDE(5), s1:ESTIMATE(est=17, halt={p1, p2}), s2:DECIDE(-3), "
    "s4:HALTED(decided=9), s5:DECIDE(7), s7:C[HR-COORD(99)]}";

TEST(WireCodec, MixedBundleKeepsItsGoldenBytesAndDescribe) {
  const RsmBundleMessage bundle = mixed_bundle();
  EXPECT_EQ(bundle.describe(), kMixedBundleDescribe);
  WireWriter w;
  encode_message(bundle, w);
  EXPECT_EQ(w.bytes(), kMixedBundleBytes);

  // Decoding turns every Decide-tagged part into an inline notice, and the
  // decoded bundle re-encodes to the same bytes.
  WireReader r(kMixedBundleBytes.data(), kMixedBundleBytes.size());
  const MessagePtr decoded = decode_message(r);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded->describe(), kMixedBundleDescribe);
  const auto* flat = dynamic_cast<const RsmBundleMessage*>(decoded.get());
  ASSERT_NE(flat, nullptr);
  std::vector<int> notice_slots;
  for (const auto& notice : flat->notices()) {
    notice_slots.push_back(notice.slot);
  }
  EXPECT_EQ(notice_slots, (std::vector<int>{0, 2, 5}));
  EXPECT_EQ(flat->running().size(), 3u);
  WireWriter again;
  encode_message(*decoded, again);
  EXPECT_EQ(again.bytes(), kMixedBundleBytes);
}

/// Decodes a hand-built bundle body and checks it against the bundle a
/// slot-keyed map built from the same frame (first copy of a slot wins,
/// parts in slot order): its describe() and its re-encoding.
void expect_bundle_decodes_as(const std::vector<std::uint8_t>& frame,
                              const std::string& describe,
                              const std::vector<std::uint8_t>& reencoded) {
  WireReader r(frame.data(), frame.size());
  const MessagePtr decoded = decode_message(r);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded->describe(), describe);
  WireWriter w;
  encode_message(*decoded, w);
  EXPECT_EQ(w.bytes(), reencoded);
}

TEST(WireCodec, BundleWithDuplicateSlotsKeepsTheFirstCopy) {
  // s1 FILLER, s1 DECIDE(5), s3 DECIDE(8), s3 HALTED(2): the first copy of
  // each slot wins, whether it is a running part or a notice.
  expect_bundle_decodes_as(
      {0x11, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x01,
       0x00, 0x00, 0x00, 0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x08, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00,
       0x00, 0x00, 0x00, 0x00, 0x00},
      "RSM{s1:FILLER, s3:DECIDE(8)}",
      {0x11, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x03,
       0x00, 0x00, 0x00, 0x02, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00});
}

TEST(WireCodec, BundleWithDescendingSlotsDecodesInSlotOrder) {
  // s6 DECIDE(4), s2 FLOOD-EST(11), s0 DECIDE(-1).
  expect_bundle_decodes_as(
      {0x11, 0x03, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x02, 0x04,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
       0x04, 0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
      "RSM{s0:DECIDE(-1), s2:FLOOD-EST(11), s6:DECIDE(4)}",
      {0x11, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xff,
       0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00, 0x00, 0x00,
       0x04, 0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00,
       0x00, 0x00, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
}

TEST(WireCodec, TruncatedMixedBundleDecodesToNull) {
  for (std::size_t cut = 0; cut < kMixedBundleBytes.size(); ++cut) {
    WireReader r(kMixedBundleBytes.data(), cut);
    EXPECT_EQ(decode_message(r), nullptr) << "prefix length " << cut;
  }
}

TEST(WireCodec, EncodingAnUnregisteredTypeThrows) {
  class BogusMessage final : public Message {
   public:
    std::string describe() const override { return "bogus"; }
  };
  WireWriter w;
  EXPECT_THROW(encode_message(BogusMessage{}, w), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FrameParser
// ---------------------------------------------------------------------------

TEST(FrameParser, ControlFramesRoundTrip) {
  FrameParser parser;
  const std::vector<std::uint8_t> hello = encode_hello2(3, {1, 4});
  const std::vector<std::uint8_t> ack = encode_ack(77);
  const std::vector<std::uint8_t> hb = encode_heartbeat();
  parser.feed(hello.data(), hello.size());
  parser.feed(ack.data(), ack.size());
  parser.feed(hb.data(), hb.size());

  auto f1 = parser.next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::Hello2);
  EXPECT_EQ(f1->hello_sender, 3);
  EXPECT_EQ(f1->hello_groups, (std::vector<GroupId>{1, 4}));

  auto f2 = parser.next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, FrameType::Ack);
  EXPECT_EQ(f2->seq, 77u);

  auto f3 = parser.next();
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->type, FrameType::Heartbeat);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, MalformedBodyIsSkippedAndParsingContinues) {
  // An envelope frame whose body is garbage, followed by a valid ack: the
  // parser must drop the bad frame and still produce the ack.
  WireWriter bad;
  bad.u32(3);  // body length
  bad.u8(static_cast<std::uint8_t>(FrameType::Envelope2));
  bad.u8(0xde);
  bad.u8(0xad);
  bad.u8(0x99);
  const std::vector<std::uint8_t> ack = encode_ack(5);

  FrameParser parser;
  parser.feed(bad.bytes().data(), bad.bytes().size());
  parser.feed(ack.data(), ack.size());
  auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Ack);
  EXPECT_EQ(frame->seq, 5u);
}

TEST(FrameParser, OversizeFramePoisonsTheStream) {
  FrameParser parser(64);
  WireWriter w;
  w.u32(65);  // one past the cap
  w.u8(static_cast<std::uint8_t>(FrameType::Heartbeat));
  parser.feed(w.bytes().data(), w.bytes().size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.poisoned());
  // Feeding more does not resurrect it.
  const std::vector<std::uint8_t> hb = encode_heartbeat();
  parser.feed(hb.data(), hb.size());
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, TrailingGarbageInBodyIsRejected) {
  // A HELLO2 body advertising no groups, plus 4 extra bytes: decoders
  // require body.done().
  WireWriter w;
  w.u32(16);
  w.u8(static_cast<std::uint8_t>(FrameType::Hello2));
  w.u32(kWireVersion);
  w.i32(2);
  w.u32(0);
  w.i32(0xbeef);
  FrameParser parser;
  parser.feed(w.bytes().data(), w.bytes().size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.poisoned());
}

// ---------------------------------------------------------------------------
// Wire version 2: the group-multiplexed frames.  The golden-byte tests pin
// the format itself — shipped logs and cross-version peers read these exact
// bytes, so any codec change that alters them is a wire break, not a
// refactor.
// ---------------------------------------------------------------------------

TEST(WireV2, Hello2GoldenBytes) {
  const std::vector<std::uint8_t> frame = encode_hello2(3, {0, 7});
  const std::vector<std::uint8_t> golden = {
      20,  0, 0, 0,           // body length
      5,                      // frame type Hello2
      2,   0, 0, 0,           // wire version
      3,   0, 0, 0,           // sender node
      2,   0, 0, 0,           // group count
      0,   0, 0, 0,           // group 0
      7,   0, 0, 0,           // group 7
  };
  EXPECT_EQ(frame, golden);

  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::Hello2);
  EXPECT_EQ(f->hello_version, kWireVersion);
  EXPECT_EQ(f->hello_sender, 3);
  EXPECT_EQ(f->hello_groups, (std::vector<GroupId>{0, 7}));
}

TEST(WireV2, Envelope2GoldenBytes) {
  NetEnvelope env;
  env.group = 5;
  env.sender = 2;
  env.send_round = 3;
  env.target_round = 4;
  env.payload = std::make_shared<HaltedMessage>(42);
  const std::vector<std::uint8_t> frame = encode_envelope_frame2(7, env);
  const std::vector<std::uint8_t> golden = {
      37,   0,    0,    0,      // body length
      6,                        // frame type Envelope2
      7,  0, 0, 0, 0, 0, 0, 0,  // seq
      5,  0, 0, 0,              // group
      2,  0, 0, 0,              // group-local sender
      3,  0, 0, 0,              // send round
      4,  0, 0, 0,              // target round
      0xFF, 0xFF, 0xFF, 0xFF,   // origin (-1 = honest copy)
      1,                        // message tag Halted
      42, 0, 0, 0, 0, 0, 0, 0,  // value
  };
  EXPECT_EQ(frame, golden);

  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::Envelope2);
  EXPECT_EQ(f->seq, 7u);
  EXPECT_EQ(f->envelope.group, 5);
  EXPECT_EQ(f->envelope.sender, 2);
  EXPECT_EQ(f->envelope.send_round, 3);
  EXPECT_EQ(f->envelope.target_round, 4);
  EXPECT_EQ(f->envelope.payload->describe(), env.payload->describe());
}

TEST(WireV2, Envelope2SurvivesByteAtATimeFeeding) {
  NetEnvelope env;
  env.group = 12;
  env.sender = 1;
  env.send_round = 6;
  env.payload = std::make_shared<At2EstimateMessage>(
      5, ProcessSet::from_mask(0b1101));
  const std::vector<std::uint8_t> frame = encode_envelope_frame2(42, env);

  FrameParser parser;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    parser.feed(&frame[i], 1);
    if (i + 1 < frame.size()) {
      EXPECT_FALSE(parser.next().has_value()) << "byte " << i;
    }
  }
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::Envelope2);
  EXPECT_EQ(decoded->envelope.group, 12);
  EXPECT_EQ(decoded->envelope.sender, 1);
  EXPECT_EQ(decoded->envelope.payload->describe(), env.payload->describe());
}

TEST(WireV2, RetiredV1FramesAreSkippedLikeUnknownTypes) {
  // Tags 1 and 2 were version 1's HELLO (i32 sender) and ENVELOPE (u64 seq
  // | i32 send_round | i32 target_round | message).  Both are retired: a
  // well-formed frame of either is skipped like any unknown type, and the
  // ENVELOPE2 behind them still parses.
  WireWriter w;
  w.u32(4);
  w.u8(1);
  w.i32(3);
  WireWriter v1_body;
  v1_body.u64(9);
  v1_body.i32(2);
  v1_body.i32(0);
  encode_message(DecideMessage(-7), v1_body);
  w.u32(static_cast<std::uint32_t>(v1_body.size()));
  w.u8(2);
  for (std::uint8_t b : v1_body.bytes()) w.u8(b);
  NetEnvelope env;
  env.group = 4;
  env.sender = 1;
  env.send_round = 2;
  env.payload = std::make_shared<DecideMessage>(-7);
  const std::vector<std::uint8_t> envelope = encode_envelope_frame2(10, env);

  FrameParser parser;
  parser.feed(w.bytes().data(), w.bytes().size());
  parser.feed(envelope.data(), envelope.size());
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::Envelope2);
  EXPECT_EQ(f->seq, 10u);
  EXPECT_EQ(f->envelope.group, 4);
  EXPECT_EQ(f->envelope.sender, 1);
  EXPECT_EQ(f->envelope.payload->describe(), env.payload->describe());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.poisoned());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireV2, Hello2OverstatedGroupCountIsSkippedNotAllocated) {
  // The advertised count claims 2^24 groups with 4 bytes of body left: the
  // decoder must length-check before reserving, skip the frame, and keep
  // the stream alive for the next frame.
  WireWriter w;
  WireWriter body;
  body.u32(kWireVersion);
  body.i32(1);
  body.u32(0x00ffffff);  // absurd group count
  body.i32(0);           // only one group's worth of bytes follows
  w.u32(static_cast<std::uint32_t>(body.bytes().size()));
  w.u8(static_cast<std::uint8_t>(FrameType::Hello2));
  for (std::uint8_t b : body.bytes()) w.u8(b);
  const std::vector<std::uint8_t> ack = encode_ack(5);

  FrameParser parser;
  parser.feed(w.bytes().data(), w.bytes().size());
  parser.feed(ack.data(), ack.size());
  auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Ack);
  EXPECT_FALSE(parser.poisoned());
}

TEST(WireV2, Envelope2TruncatedGroupTagIsSkippedNotThrown) {
  // Cut a valid Envelope2 body anywhere inside the group/sender/round
  // header: every prefix must decode to "no frame" (re-framed with a
  // truthful length so only the body decoder, not the length check, sees
  // the truncation), never throw, and never poison the stream.
  NetEnvelope env;
  env.group = 3;
  env.sender = 1;
  env.send_round = 2;
  env.payload = std::make_shared<HaltedMessage>(8);
  const std::vector<std::uint8_t> full = encode_envelope_frame2(1, env);
  const std::size_t header = 5;  // u32 length + u8 type
  for (std::size_t body_len = 0; body_len + header < full.size();
       ++body_len) {
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(body_len));
    w.u8(static_cast<std::uint8_t>(FrameType::Envelope2));
    for (std::size_t i = 0; i < body_len; ++i) w.u8(full[header + i]);
    const std::vector<std::uint8_t> hb = encode_heartbeat();

    FrameParser parser;
    parser.feed(w.bytes().data(), w.bytes().size());
    parser.feed(hb.data(), hb.size());
    auto frame = parser.next();
    ASSERT_TRUE(frame.has_value()) << "body length " << body_len;
    EXPECT_EQ(frame->type, FrameType::Heartbeat) << "body length " << body_len;
    EXPECT_FALSE(parser.poisoned());
  }
}

// ---------------------------------------------------------------------------
// Adversarial-byte fuzz: a Byzantine peer controls every byte it writes, so
// the parser must survive arbitrary garbage and single-bit corruptions of
// real traffic without crashing, over-reading, or spinning.
// ---------------------------------------------------------------------------

TEST(FrameParserFuzz, SeededRandomBytesNeverCrashOrSpin) {
  std::mt19937 rng(0xb1a5u);  // fixed seed: the corpus is reproducible
  for (int trial = 0; trial < 64; ++trial) {
    // Small cap so randomly plausible length prefixes poison quickly
    // instead of buffering forever.
    FrameParser parser(/*max_frame_bytes=*/4096);
    std::vector<std::uint8_t> junk(1 + rng() % 512);
    for (std::uint8_t& b : junk) b = static_cast<std::uint8_t>(rng());
    std::size_t fed = 0;
    while (fed < junk.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          1 + rng() % 64, junk.size() - fed);
      parser.feed(junk.data() + fed, chunk);
      fed += chunk;
      // next() consumes at least 5 bytes per iteration or returns nullopt,
      // so this loop is bounded by the bytes fed.
      int produced = 0;
      while (parser.next().has_value()) ++produced;
      EXPECT_LE(produced, static_cast<int>(junk.size() / 5) + 1);
    }
  }
}

TEST(FrameParserFuzz, EveryBitFlipOfARealFrameIsSurvivable) {
  // A real Envelope2 frame carrying the widest Auth payload; flip each bit
  // in turn.  Outcomes allowed: a (different) decoded frame, a skipped
  // frame, or a poisoned stream — never a crash, and unless poisoned the
  // parser must still parse a trailing heartbeat.
  NetEnvelope env;
  env.group = 1;
  env.sender = 2;
  env.send_round = 7;
  env.target_round = 7;
  env.payload = std::make_shared<AuthProposeMessage>(
      2, 7, 2, 33, 1, 33, ProcessSet::from_mask(0b1101));
  const std::vector<std::uint8_t> frame = encode_envelope_frame2(5, env);
  const std::vector<std::uint8_t> hb = encode_heartbeat();
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = frame;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    FrameParser parser(/*max_frame_bytes=*/1 << 16);
    parser.feed(mutated.data(), mutated.size());
    parser.feed(hb.data(), hb.size());
    bool saw_heartbeat = false;
    for (int i = 0; i < 4; ++i) {
      auto f = parser.next();
      if (!f) break;
      if (f->type == FrameType::Heartbeat) saw_heartbeat = true;
    }
    if (!parser.poisoned() && parser.buffered() == 0) {
      EXPECT_TRUE(saw_heartbeat) << "bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy (`_into`) encoders: golden equivalence with the legacy
// vector-returning forms, coalesced multi-frame buffers, and the buffer pool
// ---------------------------------------------------------------------------

/// One representative instance of every tag in the closed message registry.
std::vector<MessagePtr> registry_samples() {
  std::vector<MessagePtr> all;
  all.push_back(std::make_shared<HaltedMessage>(42));
  all.push_back(std::make_shared<DecideMessage>(-7));
  all.push_back(std::make_shared<FillerMessage>());
  all.push_back(std::make_shared<FloodEstimateMessage>(3));
  all.push_back(std::make_shared<HrCoordMessage>(11));
  all.push_back(std::make_shared<HrVoteMessage>(5));
  all.push_back(std::make_shared<CtEstimateMessage>(9, 4));
  all.push_back(std::make_shared<CtProposeMessage>(13));
  all.push_back(std::make_shared<CtAckMessage>(true));
  all.push_back(std::make_shared<AmrEstimateMessage>(21));
  all.push_back(std::make_shared<AmrVoteMessage>(-1));
  all.push_back(
      std::make_shared<WsEstimateMessage>(8, ProcessSet::from_mask(0b1011)));
  all.push_back(std::make_shared<Af2EstimateMessage>(kBottom));
  all.push_back(
      std::make_shared<At2EstimateMessage>(17, ProcessSet::from_mask(0b110)));
  all.push_back(std::make_shared<At2NewEstimateMessage>(kBottom));
  all.push_back(std::make_shared<At2UnderlyingMessage>(
      std::make_shared<HrCoordMessage>(99)));
  all.push_back(std::make_shared<RsmBundleMessage>(
      std::vector<RsmBundleMessage::Part>{
          {0, std::make_shared<CtProposeMessage>(1)},
          {3, std::make_shared<At2UnderlyingMessage>(
                  std::make_shared<FloodEstimateMessage>(2))}},
      std::vector<RsmBundleMessage::Notice>{}));
  all.push_back(std::make_shared<AuthProposeMessage>(
      2, 7, 2, 33, 1, 33, ProcessSet::from_mask(0b1101)));
  all.push_back(std::make_shared<AuthPrepareMessage>(1, 8, 2, kBottom));
  all.push_back(std::make_shared<AuthCommitMessage>(
      3, 9, 2, 33, 2, 33, ProcessSet::from_mask(0b0111)));
  all.push_back(std::make_shared<AuthDecideMessage>(2, 10, -9));
  return all;
}

NetEnvelope envelope_of(MessagePtr payload) {
  NetEnvelope env;
  env.group = 3;
  env.sender = 1;
  env.send_round = 7;
  env.target_round = 7;
  env.payload = std::move(payload);
  return env;
}

TEST(WireInto, ControlFramesMatchLegacyBytes) {
  WireWriter w;
  const std::vector<GroupId> groups{0, 2, 5};
  const std::size_t hello_len = encode_hello2_into(4, groups, w);
  EXPECT_EQ(w.bytes(), encode_hello2(4, groups));
  EXPECT_EQ(hello_len, w.size());

  w.clear();
  encode_ack_into(0xdeadbeefcafeULL, w);
  EXPECT_EQ(w.bytes(), encode_ack(0xdeadbeefcafeULL));

  w.clear();
  encode_heartbeat_into(w);
  EXPECT_EQ(w.bytes(), encode_heartbeat());
}

TEST(WireInto, EnvelopeFramesMatchLegacyBytesForEveryRegistryTag) {
  for (const MessagePtr& payload : registry_samples()) {
    const NetEnvelope env = envelope_of(payload);
    WireWriter w;
    const std::size_t n2 = encode_envelope_frame2_into(92, env, w);
    EXPECT_EQ(w.bytes(), encode_envelope_frame2(92, env))
        << payload->describe();
    EXPECT_EQ(n2, w.size()) << payload->describe();
  }
}

TEST(WireInto, AppendsWithoutClearingSoFramesCoalesce) {
  // The batched flush relies on `_into` appending: many frames in one
  // buffer, each starting where the previous ended.
  const NetEnvelope env = envelope_of(std::make_shared<DecideMessage>(5));
  WireWriter w;
  const std::size_t a = encode_heartbeat_into(w);
  const std::size_t b = encode_envelope_frame2_into(1, env, w);
  const std::size_t c = encode_ack_into(9, w);
  EXPECT_EQ(w.size(), a + b + c);
  std::vector<std::uint8_t> expected = encode_heartbeat();
  const std::vector<std::uint8_t> mid = encode_envelope_frame2(1, env);
  const std::vector<std::uint8_t> tail = encode_ack(9);
  expected.insert(expected.end(), mid.begin(), mid.end());
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(w.bytes(), expected);
}

TEST(WireInto, CoalescedBatchSurvivesArbitraryFragmentation) {
  // Encode a writev-shaped batch — every registry tag as an Envelope2 plus
  // interleaved control frames — into ONE buffer, then feed it to the
  // parser in 1-, 3-, and 7-byte chunks: frame boundaries must be
  // recovered exactly, in order.
  const std::vector<MessagePtr> samples = registry_samples();
  WireWriter batch;
  encode_hello2_into(0, {3}, batch);
  std::uint64_t seq = 1;
  for (const MessagePtr& payload : samples) {
    encode_envelope_frame2_into(seq++, envelope_of(payload), batch);
  }
  encode_heartbeat_into(batch);
  encode_ack_into(seq - 1, batch);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    FrameParser parser;
    std::vector<Frame> frames;
    for (std::size_t at = 0; at < batch.size(); at += chunk) {
      parser.feed(batch.data() + at, std::min(chunk, batch.size() - at));
      while (auto frame = parser.next()) frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), samples.size() + 3) << "chunk " << chunk;
    EXPECT_EQ(frames.front().type, FrameType::Hello2);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Frame& f = frames[i + 1];
      ASSERT_EQ(f.type, FrameType::Envelope2) << "chunk " << chunk;
      EXPECT_EQ(f.seq, i + 1);
      EXPECT_EQ(f.envelope.group, 3);
      ASSERT_NE(f.envelope.payload, nullptr);
      EXPECT_EQ(f.envelope.payload->describe(), samples[i]->describe());
    }
    EXPECT_EQ(frames[frames.size() - 2].type, FrameType::Heartbeat);
    EXPECT_EQ(frames.back().type, FrameType::Ack);
    EXPECT_FALSE(parser.poisoned());
    EXPECT_EQ(parser.buffered(), 0u);
  }
}

TEST(WireInto, PatchEnvelopeSeqRewritesOnlyTheSeqField) {
  const NetEnvelope env = envelope_of(std::make_shared<HrVoteMessage>(6));
  std::vector<std::uint8_t> patched = encode_envelope_frame2(0, env);
  patch_envelope_seq(patched, 0x0102030405060708ULL);
  EXPECT_EQ(patched, encode_envelope_frame2(0x0102030405060708ULL, env));
}

TEST(FrameBufferPool, RecyclesBuffersAndCountsReuse) {
  FrameBufferPool pool;
  std::vector<std::uint8_t> a = pool.acquire();
  EXPECT_EQ(pool.misses(), 1);
  EXPECT_EQ(pool.reuses(), 0);
  a.assign(128, 0xab);
  const std::uint8_t* storage = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  std::vector<std::uint8_t> b = pool.acquire();
  EXPECT_EQ(pool.reuses(), 1);
  EXPECT_TRUE(b.empty());              // cleared...
  EXPECT_GE(b.capacity(), 128u);       // ...but capacity retained
  EXPECT_EQ(b.data(), storage);        // the same storage came back
  pool.release(std::move(b));
}

TEST(FrameBufferPool, RetentionIsBounded) {
  FrameBufferPool pool(2);
  std::vector<std::vector<std::uint8_t>> bufs;
  for (int i = 0; i < 4; ++i) {
    bufs.push_back(pool.acquire());
    bufs.back().reserve(64);  // zero-capacity buffers are never pooled
  }
  for (auto& b : bufs) pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 2u);  // the other two were freed, not pinned
}

TEST(FrameBufferPool, WriterAdoptsRecycledStorageWithoutAllocating) {
  FrameBufferPool pool;
  {
    std::vector<std::uint8_t> warm = pool.acquire();
    warm.reserve(1024);
    pool.release(std::move(warm));
  }
  WireWriter w(pool.acquire());
  EXPECT_EQ(w.size(), 0u);
  encode_envelope_frame2_into(
      1, envelope_of(std::make_shared<DecideMessage>(3)), w);
  pool.release(w.take());
  EXPECT_EQ(pool.reuses(), 1);
  EXPECT_EQ(pool.pooled(), 1u);
}

}  // namespace
}  // namespace indulgence
