// query_codec.hpp - wire encodings of the query layer's value types, for
// the query-call / query-reply / join-call / join-reply kinds (wire.hpp).
//
// Every decoder is bounds-checked and rejects what no encoder produces
// (unknown tags, out-of-range enums, list counts the payload cannot hold,
// an ok status without an estimate) with ParseError: these bytes cross the
// same trust boundary as an RSU upload.  Doubles travel as their IEEE-754
// bit patterns, so a decoded estimate is bit-identical to the encoded one.
#pragma once

#include <cstdint>

#include "common/deadline.hpp"
#include "common/serialize.hpp"
#include "common/status.hpp"
#include "query/query_types.hpp"

namespace ptm::transport {

/// A Deadline cannot cross a process boundary (its steady_clock time point
/// means nothing to the peer), so it travels as the budget remaining in
/// whole milliseconds, rounded up so a live deadline never arrives already
/// expired.  All ones = unbounded; budgets are capped at 2^40 ms.
void encode_deadline(ByteWriter& w, const Deadline& deadline);
[[nodiscard]] Result<Deadline> decode_deadline(ByteReader& r);

/// A request of any shape; its own Deadline field is not encoded (the
/// envelope carries the budget), and the decoded request takes `deadline`.
void encode_query_request(ByteWriter& w, const QueryRequest& request);
[[nodiscard]] Result<QueryRequest> decode_query_request(
    ByteReader& r, const Deadline& deadline);

/// Status, typed result, coverage and latency.  The summary is not sent:
/// the decoder rebuilds it from the typed result with summarize_estimate,
/// exactly as the service built it.
void encode_query_response(ByteWriter& w, const QueryResponse& response);
[[nodiscard]] Result<QueryResponse> decode_query_response(ByteReader& r);

void encode_location_join(ByteWriter& w, const LocationJoin& join);
[[nodiscard]] Result<LocationJoin> decode_location_join(ByteReader& r);

/// A u32-counted list of u64 values.
void encode_u64_list(ByteWriter& w, const std::vector<std::uint64_t>& values);
[[nodiscard]] Result<std::vector<std::uint64_t>> decode_u64_list(
    ByteReader& r);

}  // namespace ptm::transport
