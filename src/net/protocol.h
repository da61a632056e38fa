// Wire protocol of the network service layer: little-endian, length-prefixed
// binary frames carrying one tree operation (or its reply) each.
//
// Request frame:   [u32 payload_len][u8 opcode][u64 id][i64 key][i64 value]
// Response frame:  [u32 payload_len][u8 status][u64 id][i64 value]
// Stats response:  [u32 payload_len][u8 status=kStats][u64 id][body bytes]
//
// payload_len counts the bytes after the length field and is fixed per frame
// type (kRequestPayloadSize / kResponsePayloadSize); any other value is a
// protocol error, so a corrupt or hostile peer can never make the server
// buffer an unbounded frame. The one variable-length frame is the kStats
// admin reply, whose payload is still bounded by kMaxStatsPayload and
// disambiguated by the status byte, so the no-unbounded-buffering property
// holds. Multiple frames may be pipelined on one connection; responses carry
// the request's id because they may complete out of order (a write whose
// ack waits for durability is overtaken by later reads).
//
// The `value` of a response is overloaded by status: the stored value for
// kFound, and the suggested retry backoff in microseconds for kRejected
// (the server is past its saturation point — the client should back off
// rather than queue, the open-system analogue of the paper's unstable
// region).

#ifndef CBTREE_NET_PROTOCOL_H_
#define CBTREE_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "btree/node.h"

namespace cbtree {
namespace net {

enum class OpCode : uint8_t {
  kSearch = 1,
  kInsert = 2,
  kDelete = 3,
  /// Admin: ask the server for a live stats snapshot. Served out-of-band on
  /// the event loop (never enters the admission budget or a batch). `key`
  /// selects the body format (see StatsFormat); `value` is ignored.
  kStats = 4,
};

/// Body formats for a kStats request, carried in `Request::key`.
enum class StatsFormat : int64_t {
  kJson = 0,   ///< machine-readable snapshot JSON
  kTable = 1,  ///< server-rendered human-readable text table
};

/// True iff `raw` is one of the OpCode values.
bool IsValidOpCode(uint8_t raw);
const char* OpCodeName(OpCode op);

enum class Status : uint8_t {
  kFound = 1,        ///< search hit; value = stored value
  kNotFound = 2,     ///< search miss
  kInserted = 3,     ///< insert created the key
  kUpdated = 4,      ///< insert overwrote an existing key
  kDeleted = 5,      ///< delete removed the key
  kDeleteMiss = 6,   ///< delete found nothing
  kRejected = 7,     ///< queue full; value = retry hint in microseconds
  kShuttingDown = 8, ///< server draining; resend elsewhere/later
  kBadFrame = 9,     ///< malformed frame; id = 0, connection closes after
  kStats = 10,       ///< stats reply; variable-length body follows the id
};

bool IsValidStatus(uint8_t raw);
const char* StatusName(Status status);

/// Stable key → shard partition: a 64-bit avalanche hash of the key, reduced
/// mod `shards`. The server's request router, the load driver's occupancy
/// accounting, and the shard tests all call this one function, so "which
/// shard owns key k" has exactly one answer everywhere. `shards <= 1` always
/// maps to shard 0.
int ShardOfKey(Key key, int shards);

struct Request {
  OpCode op = OpCode::kSearch;
  uint64_t id = 0;
  Key key = 0;
  Value value = 0;
};

struct Response {
  Status status = Status::kNotFound;
  uint64_t id = 0;
  Value value = 0;
  /// Variable-length body, used only when status == kStats. Empty otherwise.
  std::string body;
};

/// Fixed payload sizes (bytes after the u32 length prefix).
inline constexpr uint32_t kRequestPayloadSize = 1 + 8 + 8 + 8;
inline constexpr uint32_t kResponsePayloadSize = 1 + 8 + 8;
inline constexpr size_t kRequestFrameSize = 4 + kRequestPayloadSize;
inline constexpr size_t kResponseFrameSize = 4 + kResponsePayloadSize;

/// A kStats response payload is [u8 status][u64 id][body]: at least the
/// 9-byte header, at most the header plus a bounded body. The cap keeps the
/// hostile-length guarantee: no peer can make the other side buffer an
/// unbounded frame.
inline constexpr uint32_t kStatsHeaderSize = 1 + 8;
inline constexpr uint32_t kMaxStatsPayload = kStatsHeaderSize + (1u << 20);

/// Serializes one frame onto `out` (append; never clears).
void AppendRequest(const Request& request, std::string* out);
void AppendResponse(const Response& response, std::string* out);

enum class DecodeStatus {
  kNeedMore,  ///< buffer holds only a prefix of the next frame
  kOk,        ///< one frame decoded; *consumed bytes were used
  kError,     ///< malformed frame — the connection cannot be resynchronized
};

/// Decodes the first frame of `data`. On kOk fills `*out` and sets
/// `*consumed`; on kNeedMore/kError both outputs are untouched. A decode
/// error is unrecoverable for the stream (framing is lost): close the
/// connection.
DecodeStatus DecodeRequest(const uint8_t* data, size_t size, Request* out,
                           size_t* consumed);
DecodeStatus DecodeResponse(const uint8_t* data, size_t size, Response* out,
                            size_t* consumed);

}  // namespace net
}  // namespace cbtree

#endif  // CBTREE_NET_PROTOCOL_H_
