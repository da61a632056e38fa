// Randomized fuzz of the WAL decoders, in the style of net_proto_fuzz_test:
// seeded mutations of valid record frames and segment headers (bit flips,
// length rewrites, truncation, garbage splices, torn-tail splices) asserting
// the decoders never read past their buffer and always land in one of the
// three documented outcomes.
//
// Every candidate is copied into an exactly-sized heap allocation before
// decoding, so a single-byte overread trips AddressSanitizer instead of
// silently hitting slack space — this test is part of the ASan/UBSan CI
// suite for exactly that reason.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "wal/wal_format.h"

namespace cbtree {
namespace wal {
namespace {

/// Decodes from an exactly-sized heap copy (ASan red zones on both ends).
DecodeStatus DecodeRecordExact(const std::string& buffer, WalRecord* out,
                               size_t* consumed) {
  std::unique_ptr<uint8_t[]> exact(new uint8_t[buffer.size()]);
  std::memcpy(exact.get(), buffer.data(), buffer.size());
  return DecodeRecord(exact.get(), buffer.size(), out, consumed);
}

DecodeStatus DecodeHeaderExact(const std::string& buffer, SegmentHeader* out) {
  std::unique_ptr<uint8_t[]> exact(new uint8_t[buffer.size()]);
  std::memcpy(exact.get(), buffer.data(), buffer.size());
  return DecodeSegmentHeader(exact.get(), buffer.size(), out);
}

std::string ValidRecordWire(Rng& rng) {
  WalRecord record;
  record.type = rng.NextBounded(2) == 0 ? RecordType::kInsert
                                        : RecordType::kDelete;
  record.lsn = rng.Next();
  record.key = static_cast<Key>(rng.Next());
  record.value = static_cast<Value>(rng.Next());
  std::string wire;
  AppendRecord(record, &wire);
  return wire;
}

/// The same corruption menu as the net protocol fuzz: byte flip, length
/// rewrite, truncation, prefix/suffix garbage, duplication, pure noise.
std::string Mutate(Rng& rng, std::string wire) {
  switch (rng.NextBounded(8)) {
    case 0:  // pristine
      break;
    case 1: {  // flip one byte anywhere (includes CRC and type)
      if (!wire.empty()) {
        size_t at = rng.NextBounded(wire.size());
        wire[at] = static_cast<char>(rng.Next());
      }
      break;
    }
    case 2: {  // rewrite the length prefix with an arbitrary u32
      uint32_t bogus = static_cast<uint32_t>(rng.Next());
      for (int i = 0; i < 4 && static_cast<size_t>(i) < wire.size(); ++i) {
        wire[i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
      }
      break;
    }
    case 3:  // truncate (a torn tail)
      wire.resize(rng.NextBounded(wire.size() + 1));
      break;
    case 4: {  // append garbage
      size_t extra = rng.NextBounded(40);
      for (size_t i = 0; i < extra; ++i) {
        wire.push_back(static_cast<char>(rng.Next()));
      }
      break;
    }
    case 5: {  // prepend garbage (desynchronized scan)
      std::string junk;
      size_t extra = 1 + rng.NextBounded(8);
      for (size_t i = 0; i < extra; ++i) {
        junk.push_back(static_cast<char>(rng.Next()));
      }
      wire = junk + wire;
      break;
    }
    case 6:  // two frames back to back
      wire += wire;
      break;
    default: {  // pure noise, no valid frame at all
      size_t size = rng.NextBounded(64);
      wire.clear();
      for (size_t i = 0; i < size; ++i) {
        wire.push_back(static_cast<char>(rng.Next()));
      }
      break;
    }
  }
  return wire;
}

TEST(WalFuzzTest, RecordDecoderNeverOverreadsOrMisclassifies) {
  Rng rng(0xa1f02026ull);
  constexpr int kIterations = 50000;
  int ok = 0, need_more = 0, error = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string wire = Mutate(rng, ValidRecordWire(rng));
    WalRecord out;
    size_t consumed = 0;
    DecodeStatus status = DecodeRecordExact(wire, &out, &consumed);
    // The declared payload length, when the prefix is present.
    uint64_t declared = 0;
    if (wire.size() >= 4) {
      for (int i = 0; i < 4; ++i) {
        declared |= static_cast<uint64_t>(static_cast<uint8_t>(wire[i]))
                    << (8 * i);
      }
    }
    switch (status) {
      case DecodeStatus::kOk:
        ++ok;
        ASSERT_EQ(consumed, kRecordFrameSize);
        ASSERT_LE(consumed, wire.size());
        ASSERT_TRUE(IsValidRecordType(static_cast<uint8_t>(out.type)));
        break;
      case DecodeStatus::kNeedMore:
        ++need_more;
        // Only a strict prefix of a well-formed frame asks for more bytes;
        // a hostile length must be rejected, never buffered for.
        ASSERT_LT(wire.size(), kRecordFrameSize);
        if (wire.size() >= 4) {
          ASSERT_EQ(declared, kRecordPayloadSize);
        }
        break;
      case DecodeStatus::kError:
        ++error;
        break;
    }
  }
  // Every outcome must be reachable, or the fuzz lost its teeth silently.
  EXPECT_GT(ok, 0);
  EXPECT_GT(need_more, 0);
  EXPECT_GT(error, 0);
}

TEST(WalFuzzTest, HeaderDecoderNeverOverreadsOrMisclassifies) {
  Rng rng(0x5e6f2026ull);
  constexpr int kIterations = 50000;
  int ok = 0, need_more = 0, error = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SegmentHeader header;
    header.shard = static_cast<uint32_t>(rng.Next());
    header.start_lsn = rng.Next();
    std::string wire;
    AppendSegmentHeader(header, &wire);
    wire = Mutate(rng, wire);
    SegmentHeader out;
    switch (DecodeHeaderExact(wire, &out)) {
      case DecodeStatus::kOk:
        ++ok;
        ASSERT_GE(wire.size(), kSegmentHeaderSize);
        ASSERT_EQ(out.version, kSegmentVersion);
        break;
      case DecodeStatus::kNeedMore:
        ++need_more;
        ASSERT_LT(wire.size(), kSegmentHeaderSize);
        break;
      case DecodeStatus::kError:
        ++error;
        break;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(need_more, 0);
  EXPECT_GT(error, 0);
}

/// Torn-tail splice: a stream of valid frames cut at a random byte must
/// replay exactly the full frames before the cut, then stop with kNeedMore
/// (or kError if the cut landed such that the remaining prefix is invalid —
/// never with a bogus kOk record).
TEST(WalFuzzTest, TornTailSpliceReplaysExactlyTheFullPrefix) {
  Rng rng(0x70a42026ull);
  constexpr int kRounds = 5000;
  for (int round = 0; round < kRounds; ++round) {
    const size_t frames = 1 + rng.NextBounded(8);
    std::vector<WalRecord> sent;
    std::string wire;
    for (size_t i = 0; i < frames; ++i) {
      WalRecord record;
      record.type = rng.NextBounded(2) == 0 ? RecordType::kInsert
                                            : RecordType::kDelete;
      record.lsn = i + 1;
      record.key = static_cast<Key>(rng.Next());
      record.value = static_cast<Value>(rng.Next());
      sent.push_back(record);
      AppendRecord(record, &wire);
    }
    const size_t cut = rng.NextBounded(wire.size() + 1);
    wire.resize(cut);
    const size_t full_frames = cut / kRecordFrameSize;

    // Scan exactly like recovery does: decode from an exact-sized copy of
    // the remaining buffer until the decoder stops.
    size_t offset = 0;
    size_t replayed = 0;
    for (;;) {
      WalRecord out;
      size_t consumed = 0;
      DecodeStatus status =
          DecodeRecordExact(wire.substr(offset), &out, &consumed);
      if (status != DecodeStatus::kOk) {
        ASSERT_EQ(status, DecodeStatus::kNeedMore)
            << "clean truncation misread as corruption at round " << round;
        break;
      }
      ASSERT_LT(replayed, sent.size());
      EXPECT_EQ(out.lsn, sent[replayed].lsn);
      EXPECT_EQ(out.key, sent[replayed].key);
      EXPECT_EQ(out.value, sent[replayed].value);
      EXPECT_EQ(out.type, sent[replayed].type);
      offset += consumed;
      ++replayed;
    }
    EXPECT_EQ(replayed, full_frames)
        << "must replay every full frame before the tear, round " << round;
  }
}

/// A flipped byte inside the torn region must never resurrect as a decoded
/// record: splice a corrupted partial frame after valid ones and verify the
/// scan stops at the boundary with no bogus kOk.
TEST(WalFuzzTest, CorruptedTornTailNeverDecodes) {
  Rng rng(0xbad7a112026ull);
  constexpr int kRounds = 5000;
  for (int round = 0; round < kRounds; ++round) {
    std::string wire;
    const size_t frames = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < frames; ++i) {
      WalRecord record{RecordType::kInsert, i + 1,
                       static_cast<Key>(rng.Next()),
                       static_cast<Value>(rng.Next())};
      AppendRecord(record, &wire);
    }
    // Torn tail: a partial frame with one byte flipped somewhere inside.
    std::string tail = ValidRecordWire(rng);
    tail.resize(1 + rng.NextBounded(tail.size() - 1));
    if (!tail.empty()) {
      size_t at = rng.NextBounded(tail.size());
      tail[at] = static_cast<char>(tail[at] ^ (1 + rng.NextBounded(255)));
    }
    wire += tail;

    size_t offset = 0;
    size_t replayed = 0;
    for (;;) {
      WalRecord out;
      size_t consumed = 0;
      DecodeStatus status =
          DecodeRecordExact(wire.substr(offset), &out, &consumed);
      if (status == DecodeStatus::kOk) {
        ++replayed;
        offset += consumed;
        // Never decode more than the intact frames: the torn tail is
        // shorter than a frame so it can only stop the scan.
        ASSERT_LE(replayed, frames);
        continue;
      }
      break;
    }
    EXPECT_EQ(replayed, frames);
  }
}

}  // namespace
}  // namespace wal
}  // namespace cbtree
