#include "nodes/rsu.hpp"

#include <cassert>

#include "common/math.hpp"

namespace ptm {

Rsu::Rsu(std::uint64_t location, RsaKeyPair keys, Certificate certificate,
         std::size_t initial_bitmap_size, std::uint64_t first_period)
    : location_(location),
      period_(first_period),
      spans_("rsu:" + std::to_string(location)),
      keys_(std::move(keys)),
      certificate_(std::move(certificate)),
      outbox_(UploadOutbox::kDefaultCapacity) {
  assert(is_power_of_two(initial_bitmap_size) && initial_bitmap_size >= 2);
  record_.location = location_;
  record_.period = period_;
  record_.bits = Bitmap(initial_bitmap_size);
}

Frame Rsu::make_beacon() const {
  Frame frame;
  frame.src = MacAddress{location_};  // RSUs are infrastructure: fixed MAC
  frame.dst = broadcast_mac();
  Beacon beacon;
  beacon.location = location_;
  beacon.period = period_;
  beacon.bitmap_size = record_.bits.size();
  beacon.certificate = certificate_;
  frame.body = std::move(beacon);
  return frame;
}

Result<Frame> Rsu::handle_frame(const Frame& frame) {
  if (const auto* req = std::get_if<AuthRequest>(&frame.body)) {
    Frame resp;
    resp.src = MacAddress{location_};
    resp.dst = frame.src;  // back to the vehicle's one-time MAC
    AuthResponse body;
    body.nonce = req->nonce;
    body.signature =
        rsa_sign(keys_, auth_transcript(req->nonce, location_, period_));
    resp.body = std::move(body);
    return resp;
  }
  if (const auto* enc = std::get_if<EncodeIndex>(&frame.body)) {
    // The encode belongs to the *record's* trace (not the contact's):
    // every hop of this (location, period) record shares one trace id, so
    // a post-mortem can follow it from this bit-set to the archive append.
    ScopedTimer encode_span(&spans_, "encode", record_trace());
    if (enc->index >= record_.bits.size()) {
      encode_span.set_ok(false);
      return Status{ErrorCode::kInvalidArgument,
                    "encode index out of bitmap range"};
    }
    record_.bits.set(static_cast<std::size_t>(enc->index));
    ++encodes_this_period_;
    if (journal_) {
      // Best effort: a failed journal write narrows the replay window but
      // must not refuse the vehicle (the bit is already set in RAM).
      (void)journal_->record_encode(enc->index);
    }
    Frame ack;
    ack.src = MacAddress{location_};
    ack.dst = frame.src;
    ack.body = EncodeAck{};
    return ack;
  }
  return Status{ErrorCode::kFailedPrecondition,
                "RSU received an unexpected frame type"};
}

Frame Rsu::make_upload() const {
  Frame frame;
  frame.src = MacAddress{location_};
  frame.dst = broadcast_mac();  // "uplink" to the central server
  frame.body = RecordUpload{record_};
  return frame;
}

void Rsu::start_next_period(std::size_t next_bitmap_size) {
  assert(is_power_of_two(next_bitmap_size) && next_bitmap_size >= 2);
  ++period_;
  record_.location = location_;
  record_.period = period_;
  record_.bits = Bitmap(next_bitmap_size);
  encodes_this_period_ = 0;
  if (journal_) {
    (void)journal_->begin_period(location_, period_, next_bitmap_size);
  }
}

Frame Rsu::end_period(std::size_t next_bitmap_size) {
  Frame frame = make_upload();
  start_next_period(next_bitmap_size);
  return frame;
}

Status Rsu::attach_durability(const std::string& journal_path,
                              const std::string& outbox_path,
                              std::size_t outbox_capacity) {
  auto outbox = UploadOutbox::open(outbox_path, outbox_capacity);
  if (!outbox) return outbox.status();
  // Adopt the outbox before anything else can fail: open compacted its
  // file into a fresh inode, and an outbox kept from before would append
  // every later push and ack to the unlinked old one.
  outbox_ = std::move(*outbox);
  auto journal = RsuJournal::open(journal_path);
  if (!journal) return journal.status();
  journal_ = std::move(*journal);
  journal_path_ = journal_path;
  outbox_path_ = outbox_path;
  outbox_capacity_ = outbox_capacity;
  return restore_from_journal();
}

Status Rsu::restore_from_journal() {
  const auto& replayed = journal_->replayed();
  if (!replayed) {
    // Fresh journal: persist the current in-memory period so a crash from
    // here on is replayable.
    return journal_->begin_period(location_, period_, record_.bits.size());
  }
  // A replay is the crash-recovery hop of the replayed record's trace.
  ScopedTimer replay_span(
      &spans_, "journal-replay",
      TraceContext::for_record(location_, replayed->period));
  if (replayed->location != location_) {
    replay_span.set_ok(false);
    return {ErrorCode::kFailedPrecondition,
            "journal belongs to a different RSU location"};
  }
  if (!is_power_of_two(replayed->bitmap_size) || replayed->bitmap_size < 2) {
    replay_span.set_ok(false);
    return {ErrorCode::kParseError,
            "journal period-start carries an invalid bitmap size"};
  }
  if (outbox_.contains(location_, replayed->period)) {
    // The period was closed into the outbox before the crash but the
    // journal reset never committed: the record is safe, so resume one
    // period past it.  The Eq. 2 size planned for that next period died
    // with the planner round-trip; reusing the closed period's size is the
    // conservative substitute.
    period_ = replayed->period + 1;
    record_.location = location_;
    record_.period = period_;
    record_.bits = Bitmap(static_cast<std::size_t>(replayed->bitmap_size));
    encodes_this_period_ = 0;
    return journal_->begin_period(location_, period_, record_.bits.size());
  }
  period_ = replayed->period;
  record_.location = location_;
  record_.period = period_;
  record_.bits = Bitmap(static_cast<std::size_t>(replayed->bitmap_size));
  encodes_this_period_ = 0;
  for (std::uint64_t index : replayed->encode_indices) {
    if (index >= record_.bits.size()) continue;  // tolerate a bad entry
    record_.bits.set(static_cast<std::size_t>(index));
    ++encodes_this_period_;
  }
  return Status::ok();
}

Status Rsu::stage_upload() {
  ScopedTimer span(&spans_, "stage-upload", record_trace());
  // The outbox entry inherits this span's context, so the retry spans of a
  // later pump (and the server's ingest span) chain back to it.
  Status s = outbox_.push(record_, span.context());
  span.set_ok(s.is_ok());
  return s;
}

Status Rsu::handle_upload_ack(const UploadAck& ack) {
  if (ack.location != location_) {
    return {ErrorCode::kInvalidArgument,
            "upload ack addressed to a different RSU"};
  }
  return outbox_.acknowledge(ack.location, ack.period);
}

Status Rsu::crash_and_restart() {
  if (!durable()) {
    return {ErrorCode::kFailedPrecondition,
            "crash_and_restart requires attached durability"};
  }
  // Volatile state dies with the process...
  record_.bits = Bitmap(2);
  encodes_this_period_ = 0;
  journal_.reset();
  // ...and everything observable must come back from disk.
  return attach_durability(journal_path_, outbox_path_, outbox_capacity_);
}

}  // namespace ptm
