#include "transport/query_codec.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <limits>
#include <type_traits>
#include <variant>

namespace ptm::transport {
namespace {

constexpr std::uint64_t kUnboundedBudget =
    std::numeric_limits<std::uint64_t>::max();
/// ~35 years: far past any real deadline, and small enough that the
/// nanosecond conversion in Deadline::after cannot overflow.
constexpr std::uint64_t kMaxBudgetMs = std::uint64_t{1} << 40;

Status parse_error(const char* what) {
  return Status{ErrorCode::kParseError, what};
}

void encode_status(ByteWriter& w, const Status& status) {
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str(status.message());
}

/// Decodes a status into `out`; the return value is the decode's own.
Status decode_status(ByteReader& r, Status& out) {
  auto code = r.u8();
  if (!code) return code.status();
  if (*code > static_cast<std::uint8_t>(ErrorCode::kResourceExhausted)) {
    return parse_error("unknown status code");
  }
  auto message = r.str();
  if (!message) return message.status();
  if (*code == 0) {
    if (!message->empty()) return parse_error("ok status with a message");
    out = Status::ok();
  } else {
    out = Status{static_cast<ErrorCode>(*code), std::move(*message)};
  }
  return Status::ok();
}

Result<MissingPolicy> decode_missing(ByteReader& r) {
  auto policy = r.u8();
  if (!policy) return policy.status();
  if (*policy > static_cast<std::uint8_t>(MissingPolicy::kSkipMissing)) {
    return parse_error("unknown missing policy");
  }
  return static_cast<MissingPolicy>(*policy);
}

Result<EstimateOutcome> decode_outcome(ByteReader& r) {
  auto outcome = r.u8();
  if (!outcome) return outcome.status();
  if (*outcome > static_cast<std::uint8_t>(EstimateOutcome::kDegenerate)) {
    return parse_error("unknown estimate outcome");
  }
  return static_cast<EstimateOutcome>(*outcome);
}

/// Fills each field of `out`, in order, with one `read()` - failing on the
/// first short read.
template <typename T, typename Read>
Status read_each(std::initializer_list<T*> out, Read read) {
  for (T* field : out) {
    auto v = read();
    if (!v) return v.status();
    *field = *v;
  }
  return Status::ok();
}

Status read_f64s(ByteReader& r, std::initializer_list<double*> out) {
  return read_each(out, [&r] { return r.f64(); });
}

Status read_sizes(ByteReader& r, std::initializer_list<std::size_t*> out) {
  return read_each(out, [&r]() -> Result<std::size_t> {
    auto v = r.u64();
    if (!v) return v.status();
    return static_cast<std::size_t>(*v);
  });
}

void encode_result(ByteWriter& w, const QueryResponse& response) {
  w.u8(static_cast<std::uint8_t>(response.result.index()));
  std::visit(
      [&](const auto& e) {
        using T = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<T, CardinalityEstimate>) {
          w.f64(e.value);
          w.u8(static_cast<std::uint8_t>(e.outcome));
          w.f64(e.fraction_zeros);
          w.u64(response.summary.m);  // the bitmap size, not in the struct
        } else if constexpr (std::is_same_v<T, PointPersistentEstimate>) {
          w.f64(e.n_star);
          w.u8(static_cast<std::uint8_t>(e.outcome));
          w.u64(e.m);
          for (double v : {e.v_a0, e.v_b0, e.v_star1, e.n_a, e.n_b}) w.f64(v);
        } else if constexpr (std::is_same_v<T,
                                            PointToPointPersistentEstimate>) {
          w.f64(e.n_double_prime);
          w.u8(static_cast<std::uint8_t>(e.outcome));
          w.u64(e.m);
          w.u64(e.m_prime);
          for (double v : {e.v0, e.v0_prime, e.v0_double_prime, e.n,
                           e.n_prime}) {
            w.f64(v);
          }
        } else if constexpr (std::is_same_v<T, CorridorPersistentEstimate>) {
          w.f64(e.n_corridor);
          w.u8(static_cast<std::uint8_t>(e.outcome));
          w.u32(static_cast<std::uint32_t>(e.m.size()));
          for (std::size_t j = 0; j < e.m.size(); ++j) {
            w.u64(e.m[j]);
            w.f64(e.v0[j]);
          }
          w.f64(e.v0_union);
          w.f64(e.log_b);
        }
      },
      response.result);
}

/// Decodes the typed result into `response` and rebuilds its summary.
Status decode_result(ByteReader& r, QueryResponse& response) {
  auto tag = r.u8();
  if (!tag) return tag.status();
  switch (*tag) {
    case 0:
      return Status::ok();
    case 1: {
      CardinalityEstimate e;
      std::size_t m = 0;
      if (Status s = read_f64s(r, {&e.value}); !s.is_ok()) return s;
      auto outcome = decode_outcome(r);
      if (!outcome) return outcome.status();
      e.outcome = *outcome;
      if (Status s = read_f64s(r, {&e.fraction_zeros}); !s.is_ok()) return s;
      if (Status s = read_sizes(r, {&m}); !s.is_ok()) return s;
      response.result = e;
      response.summary = summarize_estimate(e, m);
      return Status::ok();
    }
    case 2: {
      PointPersistentEstimate e;
      if (Status s = read_f64s(r, {&e.n_star}); !s.is_ok()) return s;
      auto outcome = decode_outcome(r);
      if (!outcome) return outcome.status();
      e.outcome = *outcome;
      if (Status s = read_sizes(r, {&e.m}); !s.is_ok()) return s;
      if (Status s = read_f64s(r, {&e.v_a0, &e.v_b0, &e.v_star1, &e.n_a,
                                   &e.n_b});
          !s.is_ok()) {
        return s;
      }
      response.result = e;
      response.summary = summarize_estimate(e);
      return Status::ok();
    }
    case 3: {
      PointToPointPersistentEstimate e;
      if (Status s = read_f64s(r, {&e.n_double_prime}); !s.is_ok()) return s;
      auto outcome = decode_outcome(r);
      if (!outcome) return outcome.status();
      e.outcome = *outcome;
      if (Status s = read_sizes(r, {&e.m, &e.m_prime}); !s.is_ok()) return s;
      if (Status s = read_f64s(r, {&e.v0, &e.v0_prime, &e.v0_double_prime,
                                   &e.n, &e.n_prime});
          !s.is_ok()) {
        return s;
      }
      response.result = e;
      response.summary = summarize_estimate(e);
      return Status::ok();
    }
    case 4: {
      CorridorPersistentEstimate e;
      if (Status s = read_f64s(r, {&e.n_corridor}); !s.is_ok()) return s;
      auto outcome = decode_outcome(r);
      if (!outcome) return outcome.status();
      e.outcome = *outcome;
      auto count = r.u32();
      if (!count) return count.status();
      if (*count > r.remaining() / 16) {
        return parse_error("corridor estimate: size count exceeds payload");
      }
      e.m.resize(*count);
      e.v0.resize(*count);
      for (std::uint32_t j = 0; j < *count; ++j) {
        if (Status s = read_sizes(r, {&e.m[j]}); !s.is_ok()) return s;
        if (Status s = read_f64s(r, {&e.v0[j]}); !s.is_ok()) return s;
      }
      if (Status s = read_f64s(r, {&e.v0_union, &e.log_b}); !s.is_ok()) {
        return s;
      }
      response.summary = summarize_estimate(e);
      response.result = std::move(e);
      return Status::ok();
    }
    default:
      return parse_error("unknown query result kind");
  }
}

void encode_coverage(ByteWriter& w, const CoverageReport& coverage) {
  encode_u64_list(w, coverage.requested);
  encode_u64_list(w, coverage.present);
  encode_u64_list(w, coverage.missing);
}

Status decode_coverage(ByteReader& r, CoverageReport& coverage) {
  for (std::vector<std::uint64_t>* list :
       {&coverage.requested, &coverage.present, &coverage.missing}) {
    auto values = decode_u64_list(r);
    if (!values) return values.status();
    *list = std::move(*values);
  }
  return Status::ok();
}

}  // namespace

void encode_u64_list(ByteWriter& w, const std::vector<std::uint64_t>& values) {
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (std::uint64_t v : values) w.u64(v);
}

Result<std::vector<std::uint64_t>> decode_u64_list(ByteReader& r) {
  auto count = r.u32();
  if (!count) return count.status();
  // Guard the reserve against a lying count: each value is 8 bytes.
  if (*count > r.remaining() / 8) {
    return parse_error("list count exceeds payload");
  }
  std::vector<std::uint64_t> values;
  values.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto v = r.u64();
    if (!v) return v.status();
    values.push_back(*v);
  }
  return values;
}

void encode_deadline(ByteWriter& w, const Deadline& deadline) {
  if (deadline.unbounded()) {
    w.u64(kUnboundedBudget);
    return;
  }
  const auto ns = static_cast<std::uint64_t>(deadline.remaining().count());
  w.u64(std::min<std::uint64_t>((ns + 999'999) / 1'000'000, kMaxBudgetMs));
}

Result<Deadline> decode_deadline(ByteReader& r) {
  auto budget = r.u64();
  if (!budget) return budget.status();
  if (*budget == kUnboundedBudget) return Deadline{};
  if (*budget > kMaxBudgetMs) return parse_error("deadline budget too large");
  return Deadline::after(std::chrono::milliseconds(*budget));
}

void encode_query_request(ByteWriter& w, const QueryRequest& request) {
  w.u8(static_cast<std::uint8_t>(request.index()));
  std::visit(
      [&](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, PointVolumeQuery>) {
          w.u64(q.location);
          w.u64(q.period);
        } else if constexpr (std::is_same_v<T, PointPersistentQuery>) {
          w.u64(q.location);
          encode_u64_list(w, q.periods);
          w.u8(static_cast<std::uint8_t>(q.missing));
        } else if constexpr (std::is_same_v<T, RecentPersistentQuery>) {
          w.u64(q.location);
          w.u64(q.window);
          w.u8(static_cast<std::uint8_t>(q.missing));
        } else if constexpr (std::is_same_v<T, P2PPersistentQuery>) {
          w.u64(q.location_a);
          w.u64(q.location_b);
          encode_u64_list(w, q.periods);
        } else {
          encode_u64_list(w, q.locations);
          encode_u64_list(w, q.periods);
          w.u8(static_cast<std::uint8_t>(q.missing));
        }
      },
      request);
}

Result<QueryRequest> decode_query_request(ByteReader& r,
                                          const Deadline& deadline) {
  auto shape = r.u8();
  if (!shape) return shape.status();
  switch (*shape) {
    case 0: {
      PointVolumeQuery q;
      auto location = r.u64();
      if (!location) return location.status();
      auto period = r.u64();
      if (!period) return period.status();
      q.location = *location;
      q.period = *period;
      q.deadline = deadline;
      return QueryRequest{q};
    }
    case 1: {
      PointPersistentQuery q;
      auto location = r.u64();
      if (!location) return location.status();
      auto periods = decode_u64_list(r);
      if (!periods) return periods.status();
      auto missing = decode_missing(r);
      if (!missing) return missing.status();
      q.location = *location;
      q.periods = std::move(*periods);
      q.missing = *missing;
      q.deadline = deadline;
      return QueryRequest{std::move(q)};
    }
    case 2: {
      RecentPersistentQuery q;
      auto location = r.u64();
      if (!location) return location.status();
      auto window = r.u64();
      if (!window) return window.status();
      auto missing = decode_missing(r);
      if (!missing) return missing.status();
      q.location = *location;
      q.window = static_cast<std::size_t>(*window);
      q.missing = *missing;
      q.deadline = deadline;
      return QueryRequest{q};
    }
    case 3: {
      P2PPersistentQuery q;
      auto a = r.u64();
      if (!a) return a.status();
      auto b = r.u64();
      if (!b) return b.status();
      auto periods = decode_u64_list(r);
      if (!periods) return periods.status();
      q.location_a = *a;
      q.location_b = *b;
      q.periods = std::move(*periods);
      q.deadline = deadline;
      return QueryRequest{std::move(q)};
    }
    case 4: {
      CorridorQuery q;
      auto locations = decode_u64_list(r);
      if (!locations) return locations.status();
      auto periods = decode_u64_list(r);
      if (!periods) return periods.status();
      auto missing = decode_missing(r);
      if (!missing) return missing.status();
      q.locations = std::move(*locations);
      q.periods = std::move(*periods);
      q.missing = *missing;
      q.deadline = deadline;
      return QueryRequest{std::move(q)};
    }
    default:
      return parse_error("unknown query shape");
  }
}

void encode_query_response(ByteWriter& w, const QueryResponse& response) {
  encode_status(w, response.status);
  encode_result(w, response);
  encode_coverage(w, response.coverage);
  w.u64(response.latency_ns);
}

Result<QueryResponse> decode_query_response(ByteReader& r) {
  QueryResponse response;
  if (Status s = decode_status(r, response.status); !s.is_ok()) return s;
  if (Status s = decode_result(r, response); !s.is_ok()) return s;
  // QueryResponse's contract: ok iff the result holds an estimate.
  const bool has_estimate =
      !std::holds_alternative<std::monostate>(response.result);
  if (response.status.is_ok() != has_estimate) {
    return parse_error("query status disagrees with its result");
  }
  if (Status s = decode_coverage(r, response.coverage); !s.is_ok()) return s;
  auto latency = r.u64();
  if (!latency) return latency.status();
  response.latency_ns = *latency;
  return response;
}

void encode_location_join(ByteWriter& w, const LocationJoin& join) {
  encode_status(w, join.status);
  encode_u64_list(w, join.present);
  // An empty blob is "no join"; a join is never a zero-size bitmap.
  if (join.join.empty()) {
    w.bytes({});
  } else {
    w.u32(static_cast<std::uint32_t>(join.join.serialized_size()));
    join.join.serialize_into(w);
  }
}

Result<LocationJoin> decode_location_join(ByteReader& r) {
  LocationJoin join;
  if (Status s = decode_status(r, join.status); !s.is_ok()) return s;
  auto present = decode_u64_list(r);
  if (!present) return present.status();
  join.present = std::move(*present);
  auto blob = r.bytes_view();
  if (!blob) return blob.status();
  if (!blob->empty()) {
    auto bitmap = Bitmap::deserialize(*blob);
    if (!bitmap) return bitmap.status();
    if (bitmap->empty()) return parse_error("join: zero-size bitmap");
    join.join = std::move(*bitmap);
  }
  // The node's contract (QueryService::join_location): a join exists
  // exactly when the status is ok and some period is present.
  const bool want_join = join.status.is_ok() && !join.present.empty();
  if (want_join != !join.join.empty()) {
    return parse_error("join disagrees with its status and periods");
  }
  return join;
}

}  // namespace ptm::transport
