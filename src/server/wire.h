#ifndef LDAPBOUND_SERVER_WIRE_H_
#define LDAPBOUND_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/entry_set.h"
#include "util/result.h"
#include "util/status.h"

namespace ldapbound {

struct EntryContent;
class Vocabulary;

/// The wire protocol of the serving path (DESIGN.md §12): length-prefixed
/// binary frames over a byte stream. Every frame is
///
///   u32 payload_len (little-endian) | payload[payload_len]
///   payload := u8 op | u64 request_id | body
///
/// Client→server frames are requests, server→client frames are responses;
/// a response echoes the request's op and request_id, so clients may
/// pipeline requests and match responses by id. Strings are u32 length +
/// bytes (no terminator). A frame whose payload exceeds kMaxFramePayload
/// is a protocol error and closes the connection — the length prefix is
/// attacker-controlled input and must never size an allocation unchecked.
///
/// Request bodies:
///   kPing      (empty)
///   kSearch    str base_dn | u8 scope (0 base, 1 onelevel, 2 subtree) |
///              str filter — "" matches everything; "(attr=value)" is an
///              equality filter ("objectClass=C" selects class members)
///   kAdd       str dn | u16 nclasses | nclasses × str |
///              u16 nvalues | nvalues × (str attr, str value)
///   kDelete    str dn
///   kValidate  (empty)
///   kSearchEntries
///              str base_dn | u8 scope | str filter | u32 page_size |
///              str cookie — an empty cookie opens a new snapshot-pinned
///              cursor; a non-empty cookie (opaque bytes from the prior
///              page's response) continues it. The paged scan stays on
///              the snapshot the cursor pinned, so it is consistent even
///              while writers publish new versions.
///
/// Response bodies (after the common status header, see WireResponse):
///   kSearch    u32 count | count × u64 entry_id — ids only, the cheap
///              existence answer
///   kSearchEntries
///              u32 count | u8 has_more | str cookie |
///              count × (u64 entry_id | str dn | u16 nclasses |
///              nclasses × str class | u16 nvalues |
///              nvalues × (str attr, str value))
///              — full entries encoded from the pinned snapshot's
///              contents, in stable preorder (order-maintenance label
///              order). has_more != 0 means the cookie continues the
///              scan; a kCursorExpired code means the cursor was reaped
///              or superseded — retry from an empty cookie.
///   kValidate  u8 structure_legal | u64 num_entries | u64 version
///   others     (empty)
enum class WireOp : uint8_t {
  kPing = 0,
  kSearch = 1,
  kAdd = 2,
  kDelete = 3,
  kValidate = 4,
  kSearchEntries = 5,
  /// Server-initiated: the connection was refused before any request was
  /// read (connection limit / drain). Carries request_id 0.
  kShed = 0xFF,
};

/// Stable on-wire status codes. Deliberately NOT the in-process
/// StatusCode numeric values: the enum there is free to grow and reorder,
/// the wire is not. kRetryableFlag in WireResponse.flags tells a client
/// whether backing off and retrying can succeed.
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kIllegal = 4,          ///< update refused by the bounding-schema
  kUnavailable = 5,      ///< server degraded/draining; retry with backoff
  kOverloaded = 6,       ///< shed by admission control; retry with backoff
  kDeadlineExceeded = 7, ///< cancelled before side effects
  kProtocolError = 8,    ///< malformed frame; the connection is closing
  kInternal = 9,         ///< anything else (bug, I/O failure, disk full)
  kCursorExpired = 10,   ///< pagination cursor reaped/stale; restart the scan
};

WireCode WireCodeFromStatus(const Status& status);

/// The common response header plus the op-specific body bytes.
struct WireResponse {
  static constexpr uint8_t kRetryableFlag = 0x01;

  WireOp op = WireOp::kPing;
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  bool retryable = false;
  std::string message;  ///< empty on success
  std::string body;     ///< op-specific payload (already encoded)

  bool ok() const { return code == WireCode::kOk; }
};

/// One decoded request frame.
struct WireRequest {
  WireOp op = WireOp::kPing;
  uint64_t request_id = 0;
  std::string_view body;  ///< points into the frame buffer
};

/// Hard cap on a frame payload; the wire server extracts every request
/// frame against it.
constexpr size_t kMaxFramePayload = 4 * 1024 * 1024;

/// Little-endian primitive / string appenders (the encode side).
void PutU8(std::string& out, uint8_t v);
void PutU16(std::string& out, uint16_t v);
void PutU32(std::string& out, uint32_t v);
void PutU64(std::string& out, uint64_t v);
void PutString(std::string& out, std::string_view s);

/// Bounds-checked sequential reader over a frame body (the decode side).
/// Every getter returns kInvalidArgument on truncation instead of reading
/// past the end — wire bytes are untrusted.
class WireCursor {
 public:
  explicit WireCursor(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<std::string_view> GetString();

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Frames `op | request_id | body` with the length prefix.
std::string EncodeFrame(WireOp op, uint64_t request_id,
                        std::string_view body);

/// Client-side request builders.
std::string EncodePingRequest(uint64_t request_id);
std::string EncodeSearchRequest(uint64_t request_id, std::string_view base_dn,
                                uint8_t scope, std::string_view filter);
std::string EncodeAddRequest(
    uint64_t request_id, std::string_view dn,
    const std::vector<std::string>& classes,
    const std::vector<std::pair<std::string, std::string>>& values);
std::string EncodeDeleteRequest(uint64_t request_id, std::string_view dn);
std::string EncodeValidateRequest(uint64_t request_id);
std::string EncodeSearchEntriesRequest(uint64_t request_id,
                                       std::string_view base_dn, uint8_t scope,
                                       std::string_view filter,
                                       uint32_t page_size,
                                       std::string_view cookie);

/// Server-side response framing. `body` is the op-specific payload.
std::string EncodeResponseFrame(const WireResponse& response);

/// A successful response's frame, written in one buffer: the header goes
/// in first with room reserved for `body_size` more bytes (what is known
/// of the body up front), the caller appends the body straight into the
/// returned string, and FinishResponseFrame writes the length prefix.
/// The bytes equal EncodeResponseFrame's for the same response and body.
std::string BeginResponseFrame(WireOp op, uint64_t request_id,
                               size_t body_size);
void FinishResponseFrame(std::string& frame);

/// Incremental frame extraction over a connection's read buffer.
/// Returns:
///   kOk + true    — one complete frame was parsed; *consumed tells the
///                   caller how many buffer bytes the frame occupied
///                   (request->body points INTO buffer — consume only
///                   after the request has been fully processed/copied)
///   kOk + false   — the buffer holds a partial frame; read more bytes
///   !ok           — protocol error (oversized or truncated-header
///                   declared length); close the connection
Result<bool> ExtractFrame(std::string_view buffer, size_t max_payload,
                          WireRequest* request, size_t* consumed);

/// Decodes a response frame payload (everything after the length prefix);
/// the client-side mirror of EncodeResponseFrame.
Result<WireResponse> DecodeResponsePayload(std::string_view payload);

/// Decoded search-response body.
Result<std::vector<EntryId>> DecodeSearchResponseBody(std::string_view body);

/// Decoded validate-response body.
struct WireValidateResult {
  bool structure_legal = false;
  uint64_t num_entries = 0;
  uint64_t version = 0;
};
Result<WireValidateResult> DecodeValidateResponseBody(std::string_view body);

/// One decoded entry of a kSearchEntries response page.
struct WireEntry {
  EntryId id = kInvalidEntryId;
  std::string dn;
  std::vector<std::string> classes;
  std::vector<std::pair<std::string, std::string>> values;
};

/// Decoded kSearchEntries response body: one page plus its continuation.
struct WireSearchEntriesResult {
  std::vector<WireEntry> entries;
  bool has_more = false;
  std::string cookie;  ///< opaque; feed back verbatim to continue
};
Result<WireSearchEntriesResult> DecodeSearchEntriesResponseBody(
    std::string_view body);

/// Appends one kSearchEntries page entry (the response format above),
/// encoded at read time from `content`: classes in id order, values as
/// Value::ToString(), names from `vocab`. kInternal when `content` is
/// null or names an id `vocab` lacks.
Status AppendSearchEntry(std::string& out, EntryId id, std::string_view dn,
                         const EntryContent* content,
                         const Vocabulary& vocab);

/// The pagination cookie's contents — opaque to clients, but the server
/// (and its tests) need the codec. The cursor id names the server-side
/// cursor retaining the pinned snapshot; the snapshot version guards
/// against a reused cursor slot; the label position is where the stable
/// preorder scan resumes (inclusive lower bound — the server mints it as
/// the last returned label + 1).
struct WireSearchCookie {
  uint64_t cursor_id = 0;
  uint64_t snapshot_version = 0;
  uint64_t next_label = 0;
};
/// An encoded cookie's size.
constexpr size_t kSearchCookieBytes = 3 * 8;
std::string EncodeSearchCookie(const WireSearchCookie& cookie);
/// kInvalidArgument unless `bytes` is exactly one encoded cookie — wire
/// bytes are untrusted, and a truncated/padded cookie is a protocol error.
Result<WireSearchCookie> DecodeSearchCookie(std::string_view bytes);

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_WIRE_H_
