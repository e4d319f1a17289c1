#include "server/wire.h"

#include <gtest/gtest.h>

#include <string>

namespace ldapbound {
namespace {

// Extracts the single frame `bytes` must contain.
WireRequest MustExtract(const std::string& bytes) {
  WireRequest request;
  size_t consumed = 0;
  auto ok = ExtractFrame(bytes, kMaxFramePayload, &request, &consumed);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok);
  EXPECT_EQ(consumed, bytes.size());
  return request;
}

TEST(WireTest, PrimitivesRoundTripLittleEndian) {
  std::string out;
  PutU8(out, 0xAB);
  PutU16(out, 0x1234);
  PutU32(out, 0xDEADBEEF);
  PutU64(out, 0x0102030405060708ull);
  PutString(out, "hi");
  // Every byte: u16 and wider are little-endian on the wire, and a
  // string is its u32 length, then its bytes.
  const std::string expected(
      "\xAB"
      "\x34\x12"
      "\xEF\xBE\xAD\xDE"
      "\x08\x07\x06\x05\x04\x03\x02\x01"
      "\x02\x00\x00\x00"
      "hi",
      1 + 2 + 4 + 8 + 4 + 2);
  EXPECT_EQ(out, expected);

  WireCursor cursor(out);
  EXPECT_EQ(*cursor.GetU8(), 0xAB);
  EXPECT_EQ(*cursor.GetU16(), 0x1234);
  EXPECT_EQ(*cursor.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*cursor.GetU64(), 0x0102030405060708ull);
  EXPECT_EQ(*cursor.GetString(), "hi");
  EXPECT_TRUE(cursor.exhausted());
}

TEST(WireTest, CursorRejectsTruncationInsteadOfOverreading) {
  std::string out;
  PutU32(out, 100);  // string length claims 100 bytes; none follow
  WireCursor cursor(out);
  EXPECT_FALSE(cursor.GetString().ok());

  WireCursor empty("");
  EXPECT_FALSE(empty.GetU8().ok());
  EXPECT_FALSE(empty.GetU64().ok());
}

TEST(WireTest, SearchRequestRoundTrips) {
  std::string frame = EncodeSearchRequest(7, "ou=load", 2, "(uid=u3)");
  WireRequest request = MustExtract(frame);
  EXPECT_EQ(request.op, WireOp::kSearch);
  EXPECT_EQ(request.request_id, 7u);
  WireCursor body(request.body);
  EXPECT_EQ(*body.GetString(), "ou=load");
  EXPECT_EQ(*body.GetU8(), 2);
  EXPECT_EQ(*body.GetString(), "(uid=u3)");
}

TEST(WireTest, AddRequestRoundTrips) {
  std::string frame = EncodeAddRequest(
      9, "uid=w,ou=load", {"top", "person"},
      {{"uid", "w"}, {"name", "w w"}});
  WireRequest request = MustExtract(frame);
  EXPECT_EQ(request.op, WireOp::kAdd);
  WireCursor body(request.body);
  EXPECT_EQ(*body.GetString(), "uid=w,ou=load");
  EXPECT_EQ(*body.GetU16(), 2);
  EXPECT_EQ(*body.GetString(), "top");
  EXPECT_EQ(*body.GetString(), "person");
  EXPECT_EQ(*body.GetU16(), 2);
  EXPECT_EQ(*body.GetString(), "uid");
  EXPECT_EQ(*body.GetString(), "w");
  EXPECT_EQ(*body.GetString(), "name");
  EXPECT_EQ(*body.GetString(), "w w");
  EXPECT_TRUE(body.exhausted());
}

TEST(WireTest, PartialFramesAskForMoreBytes) {
  std::string frame = EncodeDeleteRequest(3, "uid=u1,ou=load");
  // Every proper prefix is "partial", never an error, never a frame.
  for (size_t len = 0; len < frame.size(); ++len) {
    WireRequest request;
    size_t consumed = 0;
    auto ok = ExtractFrame(std::string_view(frame).substr(0, len),
                           kMaxFramePayload, &request, &consumed);
    ASSERT_TRUE(ok.ok()) << len;
    EXPECT_FALSE(*ok) << len;
  }
  MustExtract(frame);
}

TEST(WireTest, ExtractLeavesTrailingBytesForTheNextFrame) {
  std::string two = EncodePingRequest(1) + EncodeValidateRequest(2);
  WireRequest request;
  size_t consumed = 0;
  auto first = ExtractFrame(two, kMaxFramePayload, &request, &consumed);
  ASSERT_TRUE(first.ok() && *first);
  EXPECT_EQ(request.op, WireOp::kPing);
  EXPECT_EQ(request.request_id, 1u);
  auto second = ExtractFrame(std::string_view(two).substr(consumed),
                             kMaxFramePayload, &request, &consumed);
  ASSERT_TRUE(second.ok() && *second);
  EXPECT_EQ(request.op, WireOp::kValidate);
  EXPECT_EQ(request.request_id, 2u);
}

TEST(WireTest, OversizedAndUndersizedDeclaredLengthsAreProtocolErrors) {
  std::string oversized;
  PutU32(oversized, 1 << 20);
  WireRequest request;
  size_t consumed = 0;
  EXPECT_FALSE(
      ExtractFrame(oversized, /*max_payload=*/1024, &request, &consumed)
          .ok());

  // A declared payload too short to hold op + request_id can never be a
  // valid frame; rejecting it up front keeps the parser from waiting
  // forever on bytes that cannot arrive.
  std::string undersized;
  PutU32(undersized, 3);
  EXPECT_FALSE(
      ExtractFrame(undersized, kMaxFramePayload, &request, &consumed).ok());
}

TEST(WireTest, ResponseRoundTripsWithRetryableFlagAndBody) {
  WireResponse response;
  response.op = WireOp::kSearch;
  response.request_id = 77;
  response.code = WireCode::kOverloaded;
  response.retryable = true;
  response.message = "queue full";
  PutU32(response.body, 0);

  std::string frame = EncodeResponseFrame(response);
  WireCursor header(frame);
  uint32_t payload_len = *header.GetU32();
  ASSERT_EQ(frame.size(), 4 + payload_len);
  auto decoded =
      DecodeResponsePayload(std::string_view(frame).substr(4, payload_len));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, WireOp::kSearch);
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->code, WireCode::kOverloaded);
  EXPECT_TRUE(decoded->retryable);
  EXPECT_EQ(decoded->message, "queue full");
  EXPECT_EQ(decoded->body.size(), 4u);
}

// A response written in place — header first, body appended into the
// same buffer, length last — is byte for byte EncodeResponseFrame's, and
// the buffer sized up front never moves while the body goes in.
TEST(WireTest, ResponseFrameWrittenInPlaceMatchesEncodeResponseFrame) {
  WireResponse response;
  response.op = WireOp::kSearch;
  response.request_id = 0x0102030405060708ull;
  PutU32(response.body, 2);
  PutU64(response.body, 5);
  PutU64(response.body, 9);

  std::string frame =
      BeginResponseFrame(response.op, response.request_id, 4 + 2 * 8);
  const char* data = frame.data();
  PutU32(frame, 2);
  PutU64(frame, 5);
  PutU64(frame, 9);
  FinishResponseFrame(frame);
  EXPECT_EQ(frame.data(), data);
  EXPECT_EQ(frame, EncodeResponseFrame(response));

  std::string empty = BeginResponseFrame(WireOp::kAdd, 3, 0);
  FinishResponseFrame(empty);
  WireResponse added;
  added.op = WireOp::kAdd;
  added.request_id = 3;
  EXPECT_EQ(empty, EncodeResponseFrame(added));
}

TEST(WireTest, SearchAndValidateBodiesRoundTrip) {
  std::string body;
  PutU32(body, 3);
  PutU64(body, 5);
  PutU64(body, 9);
  PutU64(body, 12);
  auto ids = DecodeSearchResponseBody(body);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<EntryId>{5, 9, 12}));

  // A count that disagrees with the byte count is a malformed response.
  PutU64(body, 99);
  EXPECT_FALSE(DecodeSearchResponseBody(body).ok());

  std::string validate;
  PutU8(validate, 1);
  PutU64(validate, 17);
  PutU64(validate, 4);
  auto verdict = DecodeValidateResponseBody(validate);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->structure_legal);
  EXPECT_EQ(verdict->num_entries, 17u);
  EXPECT_EQ(verdict->version, 4u);
}

TEST(WireTest, SearchEntriesRequestRoundTrips) {
  std::string frame = EncodeSearchEntriesRequest(
      11, "ou=load", 2, "(objectClass=person)", 64, "cookie-bytes");
  WireRequest request = MustExtract(frame);
  EXPECT_EQ(request.op, WireOp::kSearchEntries);
  EXPECT_EQ(request.request_id, 11u);
  WireCursor body(request.body);
  EXPECT_EQ(*body.GetString(), "ou=load");
  EXPECT_EQ(*body.GetU8(), 2);
  EXPECT_EQ(*body.GetString(), "(objectClass=person)");
  EXPECT_EQ(*body.GetU32(), 64u);
  EXPECT_EQ(*body.GetString(), "cookie-bytes");
  EXPECT_TRUE(body.exhausted());
}

TEST(WireTest, SearchEntriesBodyRoundTrips) {
  // Hand-encode one page of two entries, exactly as the server does.
  std::string body;
  PutU32(body, 2);
  PutU8(body, 1);  // has_more
  PutString(body, "next-cookie");
  PutU64(body, 5);
  PutString(body, "uid=u0,ou=load");
  PutU16(body, 2);
  PutString(body, "top");
  PutString(body, "person");
  PutU16(body, 2);
  PutString(body, "uid");
  PutString(body, "u0");
  PutString(body, "name");
  PutString(body, "user u0");
  PutU64(body, 6);
  PutString(body, "uid=u1,ou=load");
  PutU16(body, 1);
  PutString(body, "top");
  PutU16(body, 0);

  auto page = DecodeSearchEntriesResponseBody(body);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(page->has_more);
  EXPECT_EQ(page->cookie, "next-cookie");
  ASSERT_EQ(page->entries.size(), 2u);
  EXPECT_EQ(page->entries[0].id, 5u);
  EXPECT_EQ(page->entries[0].dn, "uid=u0,ou=load");
  EXPECT_EQ(page->entries[0].classes,
            (std::vector<std::string>{"top", "person"}));
  ASSERT_EQ(page->entries[0].values.size(), 2u);
  EXPECT_EQ(page->entries[0].values[0],
            (std::pair<std::string, std::string>{"uid", "u0"}));
  EXPECT_EQ(page->entries[1].id, 6u);
  EXPECT_EQ(page->entries[1].classes, (std::vector<std::string>{"top"}));
  EXPECT_TRUE(page->entries[1].values.empty());

  // Truncating anywhere inside an entry is a malformed response, not an
  // overread.
  for (size_t cut = body.size() - 1; cut > body.size() - 20; --cut) {
    EXPECT_FALSE(
        DecodeSearchEntriesResponseBody(std::string_view(body).substr(0, cut))
            .ok())
        << "cut=" << cut;
  }
}

TEST(WireTest, SearchCookieRoundTripsAndRejectsWrongSizes) {
  WireSearchCookie cookie;
  cookie.cursor_id = 42;
  cookie.snapshot_version = 7;
  cookie.next_label = 0x0102030405060708ull;
  std::string bytes = EncodeSearchCookie(cookie);
  EXPECT_EQ(bytes.size(), 24u);

  auto decoded = DecodeSearchCookie(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->cursor_id, 42u);
  EXPECT_EQ(decoded->snapshot_version, 7u);
  EXPECT_EQ(decoded->next_label, 0x0102030405060708ull);

  // Wire bytes are untrusted: anything but exactly one cookie is
  // rejected (truncated, padded, garbage).
  EXPECT_FALSE(DecodeSearchCookie("").ok());
  EXPECT_FALSE(DecodeSearchCookie("short").ok());
  EXPECT_FALSE(
      DecodeSearchCookie(std::string_view(bytes).substr(0, 23)).ok());
  EXPECT_FALSE(DecodeSearchCookie(bytes + "x").ok());
}

TEST(WireTest, StatusCodesMapToStableWireCodes) {
  EXPECT_EQ(WireCodeFromStatus(Status::OK()), WireCode::kOk);
  EXPECT_EQ(WireCodeFromStatus(Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_EQ(WireCodeFromStatus(Status::NotFound("x")), WireCode::kNotFound);
  EXPECT_EQ(WireCodeFromStatus(Status::Unavailable("x")),
            WireCode::kUnavailable);
  EXPECT_EQ(WireCodeFromStatus(Status::Overloaded("x")),
            WireCode::kOverloaded);
  EXPECT_EQ(WireCodeFromStatus(Status::DeadlineExceeded("x")),
            WireCode::kDeadlineExceeded);
  EXPECT_EQ(WireCodeFromStatus(Status::Internal("x")), WireCode::kInternal);
  // In-process-only codes collapse to kInternal rather than leaking enum
  // values the wire never promised.
  EXPECT_EQ(WireCodeFromStatus(Status::Inconsistent("x")),
            WireCode::kInternal);
}

}  // namespace
}  // namespace ldapbound
