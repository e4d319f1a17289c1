#include "server/wire.h"

#include <cstring>

#include "model/entry.h"

namespace ldapbound {

namespace {

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("wire: truncated ") + what);
}

/// Appends `v` little-endian in one append.
template <typename U>
void PutLittleEndian(std::string& out, U v) {
  char bytes[sizeof(U)];
  for (size_t i = 0; i < sizeof(U); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out.append(bytes, sizeof(U));
}

/// A response frame up to its body, with room reserved for `body_size`
/// more bytes; the length prefix is written by FinishResponseFrame.
std::string BeginFrame(const WireResponse& header, size_t body_size) {
  std::string out;
  out.reserve(4 + 1 + 8 + 1 + 1 + 4 + header.message.size() + body_size);
  PutU32(out, 0);
  PutU8(out, static_cast<uint8_t>(header.op));
  PutU64(out, header.request_id);
  PutU8(out, static_cast<uint8_t>(header.code));
  PutU8(out, header.retryable ? WireResponse::kRetryableFlag : 0);
  PutString(out, header.message);
  return out;
}

}  // namespace

WireCode WireCodeFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireCode::kOk;
    case StatusCode::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireCode::kNotFound;
    case StatusCode::kAlreadyExists:
      return WireCode::kAlreadyExists;
    case StatusCode::kIllegal:
      return WireCode::kIllegal;
    case StatusCode::kUnavailable:
      return WireCode::kUnavailable;
    case StatusCode::kOverloaded:
      return WireCode::kOverloaded;
    case StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    // The remaining in-process codes (FailedPrecondition, OutOfRange,
    // Inconsistent, Internal, DiskFull) have no client-actionable
    // distinction on the wire.
    default:
      return WireCode::kInternal;
  }
}

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU16(std::string& out, uint16_t v) { PutLittleEndian(out, v); }
void PutU32(std::string& out, uint32_t v) { PutLittleEndian(out, v); }
void PutU64(std::string& out, uint64_t v) { PutLittleEndian(out, v); }

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

Result<uint8_t> WireCursor::GetU8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> WireCursor::GetU16() {
  if (remaining() < 2) return Truncated("u16");
  uint16_t v = static_cast<uint16_t>(
      static_cast<uint8_t>(data_[pos_]) |
      static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + 1])) << 8);
  pos_ += 2;
  return v;
}

Result<uint32_t> WireCursor::GetU32() {
  if (remaining() < 4) return Truncated("u32");
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> WireCursor::GetU64() {
  if (remaining() < 8) return Truncated("u64");
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
  }
  pos_ += 8;
  return v;
}

Result<std::string_view> WireCursor::GetString() {
  LDAPBOUND_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (remaining() < len) return Truncated("string");
  std::string_view s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

std::string EncodeFrame(WireOp op, uint64_t request_id,
                        std::string_view body) {
  std::string out;
  out.reserve(4 + 1 + 8 + body.size());
  PutU32(out, static_cast<uint32_t>(1 + 8 + body.size()));
  PutU8(out, static_cast<uint8_t>(op));
  PutU64(out, request_id);
  out.append(body.data(), body.size());
  return out;
}

std::string EncodePingRequest(uint64_t request_id) {
  return EncodeFrame(WireOp::kPing, request_id, "");
}

std::string EncodeSearchRequest(uint64_t request_id, std::string_view base_dn,
                                uint8_t scope, std::string_view filter) {
  std::string body;
  PutString(body, base_dn);
  PutU8(body, scope);
  PutString(body, filter);
  return EncodeFrame(WireOp::kSearch, request_id, body);
}

std::string EncodeAddRequest(
    uint64_t request_id, std::string_view dn,
    const std::vector<std::string>& classes,
    const std::vector<std::pair<std::string, std::string>>& values) {
  std::string body;
  PutString(body, dn);
  PutU16(body, static_cast<uint16_t>(classes.size()));
  for (const std::string& c : classes) PutString(body, c);
  PutU16(body, static_cast<uint16_t>(values.size()));
  for (const auto& [attr, value] : values) {
    PutString(body, attr);
    PutString(body, value);
  }
  return EncodeFrame(WireOp::kAdd, request_id, body);
}

std::string EncodeDeleteRequest(uint64_t request_id, std::string_view dn) {
  std::string body;
  PutString(body, dn);
  return EncodeFrame(WireOp::kDelete, request_id, body);
}

std::string EncodeValidateRequest(uint64_t request_id) {
  return EncodeFrame(WireOp::kValidate, request_id, "");
}

std::string EncodeSearchEntriesRequest(uint64_t request_id,
                                       std::string_view base_dn, uint8_t scope,
                                       std::string_view filter,
                                       uint32_t page_size,
                                       std::string_view cookie) {
  std::string body;
  PutString(body, base_dn);
  PutU8(body, scope);
  PutString(body, filter);
  PutU32(body, page_size);
  PutString(body, cookie);
  return EncodeFrame(WireOp::kSearchEntries, request_id, body);
}

std::string EncodeResponseFrame(const WireResponse& response) {
  std::string out = BeginFrame(response, response.body.size());
  out += response.body;
  FinishResponseFrame(out);
  return out;
}

std::string BeginResponseFrame(WireOp op, uint64_t request_id,
                               size_t body_size) {
  WireResponse header;
  header.op = op;
  header.request_id = request_id;
  return BeginFrame(header, body_size);
}

void FinishResponseFrame(std::string& frame) {
  const uint32_t payload = static_cast<uint32_t>(frame.size() - 4);
  for (size_t i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>(payload >> (8 * i));
  }
}

Result<bool> ExtractFrame(std::string_view buffer, size_t max_payload,
                          WireRequest* request, size_t* consumed) {
  if (buffer.size() < 4) return false;
  WireCursor header(buffer);
  uint32_t payload_len = *header.GetU32();
  if (payload_len > max_payload) {
    return Status::InvalidArgument(
        "wire: frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the limit of " + std::to_string(max_payload));
  }
  if (payload_len < 1 + 8) {
    return Status::InvalidArgument(
        "wire: frame payload of " + std::to_string(payload_len) +
        " bytes is shorter than the op + request-id header");
  }
  if (buffer.size() < 4 + static_cast<size_t>(payload_len)) return false;

  WireCursor cursor(buffer.substr(4, payload_len));
  request->op = static_cast<WireOp>(*cursor.GetU8());
  request->request_id = *cursor.GetU64();
  request->body = buffer.substr(4 + 1 + 8, payload_len - 1 - 8);
  *consumed = 4 + payload_len;
  return true;
}

Result<WireResponse> DecodeResponsePayload(std::string_view payload) {
  WireCursor cursor(payload);
  WireResponse response;
  LDAPBOUND_ASSIGN_OR_RETURN(uint8_t op, cursor.GetU8());
  response.op = static_cast<WireOp>(op);
  LDAPBOUND_ASSIGN_OR_RETURN(response.request_id, cursor.GetU64());
  LDAPBOUND_ASSIGN_OR_RETURN(uint8_t code, cursor.GetU8());
  response.code = static_cast<WireCode>(code);
  LDAPBOUND_ASSIGN_OR_RETURN(uint8_t flags, cursor.GetU8());
  response.retryable = (flags & WireResponse::kRetryableFlag) != 0;
  LDAPBOUND_ASSIGN_OR_RETURN(std::string_view message, cursor.GetString());
  response.message = std::string(message);
  response.body =
      std::string(payload.substr(payload.size() - cursor.remaining()));
  return response;
}

Result<std::vector<EntryId>> DecodeSearchResponseBody(std::string_view body) {
  WireCursor cursor(body);
  LDAPBOUND_ASSIGN_OR_RETURN(uint32_t count, cursor.GetU32());
  if (cursor.remaining() != static_cast<size_t>(count) * 8) {
    return Status::InvalidArgument("wire: search body size does not match "
                                   "its id count");
  }
  std::vector<EntryId> ids;
  ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<EntryId>(*cursor.GetU64()));
  }
  return ids;
}

Result<WireValidateResult> DecodeValidateResponseBody(std::string_view body) {
  WireCursor cursor(body);
  WireValidateResult result;
  LDAPBOUND_ASSIGN_OR_RETURN(uint8_t legal, cursor.GetU8());
  result.structure_legal = legal != 0;
  LDAPBOUND_ASSIGN_OR_RETURN(result.num_entries, cursor.GetU64());
  LDAPBOUND_ASSIGN_OR_RETURN(result.version, cursor.GetU64());
  return result;
}

Result<WireSearchEntriesResult> DecodeSearchEntriesResponseBody(
    std::string_view body) {
  WireCursor cursor(body);
  WireSearchEntriesResult result;
  LDAPBOUND_ASSIGN_OR_RETURN(uint32_t count, cursor.GetU32());
  LDAPBOUND_ASSIGN_OR_RETURN(uint8_t has_more, cursor.GetU8());
  result.has_more = has_more != 0;
  LDAPBOUND_ASSIGN_OR_RETURN(std::string_view cookie, cursor.GetString());
  result.cookie = std::string(cookie);
  result.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireEntry entry;
    LDAPBOUND_ASSIGN_OR_RETURN(uint64_t id, cursor.GetU64());
    entry.id = static_cast<EntryId>(id);
    LDAPBOUND_ASSIGN_OR_RETURN(std::string_view dn, cursor.GetString());
    entry.dn = std::string(dn);
    LDAPBOUND_ASSIGN_OR_RETURN(uint16_t nclasses, cursor.GetU16());
    entry.classes.reserve(nclasses);
    for (uint16_t c = 0; c < nclasses; ++c) {
      LDAPBOUND_ASSIGN_OR_RETURN(std::string_view cls, cursor.GetString());
      entry.classes.emplace_back(cls);
    }
    LDAPBOUND_ASSIGN_OR_RETURN(uint16_t nvalues, cursor.GetU16());
    entry.values.reserve(nvalues);
    for (uint16_t v = 0; v < nvalues; ++v) {
      LDAPBOUND_ASSIGN_OR_RETURN(std::string_view attr, cursor.GetString());
      LDAPBOUND_ASSIGN_OR_RETURN(std::string_view value, cursor.GetString());
      entry.values.emplace_back(std::string(attr), std::string(value));
    }
    result.entries.push_back(std::move(entry));
  }
  if (!cursor.exhausted()) {
    return Status::InvalidArgument(
        "wire: search-entries body has trailing bytes");
  }
  return result;
}

Status AppendSearchEntry(std::string& out, EntryId id, std::string_view dn,
                         const EntryContent* content,
                         const Vocabulary& vocab) {
  auto unnamed = [id] {
    return Status::Internal("search-entries: no content or names for entry " +
                            std::to_string(id));
  };
  if (content == nullptr) return unnamed();
  PutU64(out, id);
  PutString(out, dn);
  PutU16(out, static_cast<uint16_t>(content->classes.size()));
  for (ClassId c : content->classes) {
    if (c >= vocab.num_classes()) return unnamed();
    PutString(out, vocab.ClassName(c));
  }
  PutU16(out, static_cast<uint16_t>(content->values.size()));
  for (const AttributeValue& av : content->values) {
    if (av.attribute >= vocab.num_attributes()) return unnamed();
    PutString(out, vocab.AttributeName(av.attribute));
    if (av.value.is_string()) {
      PutString(out, av.value.AsString());  // ToString() without a copy
    } else {
      PutString(out, av.value.ToString());
    }
  }
  return Status::OK();
}

std::string EncodeSearchCookie(const WireSearchCookie& cookie) {
  std::string out;
  out.reserve(kSearchCookieBytes);
  PutU64(out, cookie.cursor_id);
  PutU64(out, cookie.snapshot_version);
  PutU64(out, cookie.next_label);
  return out;
}

Result<WireSearchCookie> DecodeSearchCookie(std::string_view bytes) {
  if (bytes.size() != kSearchCookieBytes) {
    return Status::InvalidArgument(
        "wire: malformed pagination cookie (" +
        std::to_string(bytes.size()) + " bytes, want 24)");
  }
  WireCursor cursor(bytes);
  WireSearchCookie cookie;
  cookie.cursor_id = *cursor.GetU64();
  cookie.snapshot_version = *cursor.GetU64();
  cookie.next_label = *cursor.GetU64();
  return cookie;
}

}  // namespace ldapbound
