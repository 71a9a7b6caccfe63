#include "rtw/svc/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "rtw/cer/parser.hpp"
#include "rtw/core/lane.hpp"

namespace rtw::svc {

namespace {

constexpr std::size_t kHeaderBytes = 4;              ///< u32le payload length
constexpr std::size_t kPayloadHeaderBytes = 8 + 1;   ///< session + op
constexpr std::size_t kFrameHeaderBytes = kHeaderBytes + kPayloadHeaderBytes;

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

std::uint32_t get_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t get_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::string encode(SessionId session, Op op, std::string_view body) {
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  put_u32le(out,
            static_cast<std::uint32_t>(kPayloadHeaderBytes + body.size()));
  put_u64le(out, session);
  out.push_back(static_cast<char>(op));
  out.append(body);
  return out;
}

/// The stride rules for [kind][byte] as one probe: (byte | 0x100) &
/// kStrideMask[kind] is nonzero exactly when they are broken.  Char takes
/// any byte (mask 0), Nat a byte < 0x80 (0x80), Marker only length 0
/// (0xff), and no other kind is an element (0x100).
constexpr std::array<std::uint16_t, 256> kStrideMask = [] {
  std::array<std::uint16_t, 256> mask{};
  mask.fill(0x100);
  mask[static_cast<unsigned>(PackedKind::Char)] = 0;
  mask[static_cast<unsigned>(PackedKind::Nat)] = 0x80;
  mask[static_cast<unsigned>(PackedKind::Marker)] = 0xff;
  return mask;
}();

/// The one marker a stride tail can carry: the empty name.
core::Symbol empty_marker() {
  static const core::Symbol marker = core::Symbol::marker("");
  return marker;
}

/// The ops of protocol v3; any other op byte is an UnknownOp.
bool known_op(unsigned char op) noexcept {
  switch (static_cast<Op>(op)) {
    case Op::Close:
    case Op::CloseTruncated:
    case Op::Open:
    case Op::Hello:
    case Op::HelloAck:
    case Op::Verdict:
    case Op::ShedNotice:
    case Op::SubmitQuery:
    case Op::FeedPacked:
      return true;
  }
  return false;
}

}  // namespace

bool PackedReader::stride(core::TimedSymbol* out, std::size_t n) {
  const unsigned char* p = p_;
  unsigned fault = 0;  // (byte | 0x100) & kStrideMask[kind], ORed
  unsigned dts = 0;    // every dt, ORed: its high bit is a fault
  if (out) {
    unsigned markers = 0;
    core::Tick time = time_;
    for (std::size_t i = 0; i < n; ++i, p += kMinPackedElementBytes) {
      const unsigned kind = p[0], byte = p[1], dt = p[2];
      fault |= (byte | 0x100u) & kStrideMask[kind];
      dts |= dt;
      markers |= kind == 2;
      time += dt;
      // A Marker lands as a Nat here and is patched below.
      out[i] = {kind == 0 ? core::Symbol::chr(static_cast<char>(byte))
                          : core::Symbol::nat(byte),
                time};
    }
    const unsigned char* const first = p_;
    if (!end_stride(p, n, fault, dts)) return false;
    if (markers) {
      const core::Symbol marker = empty_marker();
      for (std::size_t i = 0; i < n; ++i)
        if (first[i * kMinPackedElementBytes] == 2) out[i].sym = marker;
    }
    time_ = time;
    return true;
  }
  for (std::size_t i = 0; i < n; ++i, p += kMinPackedElementBytes) {
    fault |= (p[1] | 0x100u) & kStrideMask[p[0]];
    dts |= p[2];
  }
  return end_stride(p, n, fault, dts);
}

bool PackedReader::stride_times(core::Tick* out, std::size_t n) noexcept {
  const unsigned char* p = p_;
  unsigned fault = 0;
  unsigned dts = 0;
  core::Tick time = time_;
  for (std::size_t i = 0; i < n; ++i, p += kMinPackedElementBytes) {
    fault |= (p[1] | 0x100u) & kStrideMask[p[0]];
    dts |= p[2];
    time += p[2];
    out[i] = time;
  }
  if (!end_stride(p, n, fault, dts)) return false;
  time_ = time;
  return true;
}

bool PackedReader::end_stride(const unsigned char* p, std::size_t n,
                              unsigned fault, unsigned dts) noexcept {
  if (fault | (dts & 0x80)) return false;
  p_ = p;
  left_ -= n;
  stride_elements_ += n;
  return true;
}

std::size_t PackedReader::read(core::TimedSymbol* out, std::size_t max) {
  std::size_t got = 0;
  PackedElement element;
  while (got < max && !at_stride()) {
    if (!next(element)) return got;
    out[got++] = {element.symbol(), element.time};
  }
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(left_, max - got));
  if (n == 0 || stride(out + got, n)) return got + n;
  // The stretch breaks the stride rules: next() reads up to the fault.
  while (got < max && next(element)) out[got++] = {element.symbol(), element.time};
  return got;
}

std::size_t PackedReader::read_times(core::Tick* out,
                                     std::size_t max) noexcept {
  std::size_t got = 0;
  while (got < max && !at_stride()) {
    if (!walk(nullptr)) return got;
    out[got++] = time_;
  }
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(left_, max - got));
  if (n == 0 || stride_times(out + got, n)) return got + n;
  while (got < max && walk(nullptr)) out[got++] = time_;
  return got;
}

bool PackedReader::skip() noexcept {
  while (!at_stride())
    if (!walk(nullptr)) return false;
  if (left_ > 0 && !stride(nullptr, static_cast<std::size_t>(left_)))
    while (walk(nullptr)) {
    }
  return complete();
}

void admit_times(PackedReader& reader, core::LaneFilter& filter) noexcept {
  constexpr std::size_t kChunk = 64;
  core::Tick times[kChunk];
  // A local copy of the filter stays in registers across the stores.
  core::LaneFilter local = filter;
  while (const std::size_t m = reader.read_times(times, kChunk))
    for (std::size_t i = 0; i < m; ++i) local.admit(times[i]);
  filter = local;
}

bool decode_packed(std::string_view body, std::vector<core::TimedSymbol>& out) {
  PackedReader reader(body);
  const std::size_t first = out.size();
  out.resize(first + reader.count());
  out.resize(first + reader.read(out.data() + first, reader.count()));
  return reader.complete();
}

std::string to_string(Op op) {
  switch (op) {
    case Op::Close: return "close";
    case Op::CloseTruncated: return "close_truncated";
    case Op::Open: return "open";
    case Op::Hello: return "hello";
    case Op::HelloAck: return "hello_ack";
    case Op::Verdict: return "verdict";
    case Op::ShedNotice: return "shed_notice";
    case Op::SubmitQuery: return "submit_query";
    case Op::FeedPacked: return "feed_packed";
  }
  return "op?" + std::to_string(static_cast<unsigned>(op));
}

std::string to_string(DecodeError e) {
  switch (e) {
    case DecodeError::None: return "none";
    case DecodeError::ShortFrame: return "short_frame";
    case DecodeError::Oversized: return "oversized";
    case DecodeError::UnknownOp: return "unknown_op";
    case DecodeError::MalformedBody: return "malformed_body";
  }
  return "decode_error?";
}

std::string encode_open(SessionId session, std::string_view profile,
                        Priority priority) {
  std::string body;
  body.reserve(1 + profile.size());
  body.push_back(static_cast<char>(priority));
  body.append(profile);
  return encode(session, Op::Open, body);
}

std::string encode_feed_batch(SessionId session,
                              const std::vector<core::TimedSymbol>& symbols) {
  std::string body;
  body.reserve(10 + kMinPackedElementBytes * symbols.size());
  put_varint(body, symbols.size());
  core::Tick previous = 0;
  for (const auto& [sym, time] : symbols) {
    switch (sym.kind()) {
      case core::Symbol::Kind::Char:
        body.push_back(static_cast<char>(PackedKind::Char));
        body.push_back(sym.as_char());
        break;
      case core::Symbol::Kind::Nat:
        body.push_back(static_cast<char>(PackedKind::Nat));
        put_varint(body, sym.as_nat());
        break;
      case core::Symbol::Kind::Marker: {
        const std::string_view name = sym.name();
        body.push_back(static_cast<char>(PackedKind::Marker));
        put_varint(body, name.size());
        body.append(name);
        break;
      }
    }
    put_varint(body, time - previous);
    previous = time;
  }
  return encode(session, Op::FeedPacked, body);
}

std::string encode_close(SessionId session, core::StreamEnd end) {
  return encode(session,
                end == core::StreamEnd::EndOfWord ? Op::Close
                                                  : Op::CloseTruncated,
                {});
}

std::string encode_hello(std::uint8_t min_version, std::uint8_t max_version) {
  std::string body;
  body.push_back(static_cast<char>(min_version));
  body.push_back(static_cast<char>(max_version));
  return encode(/*session=*/0, Op::Hello, body);
}

std::string encode_hello_ack(std::uint8_t version) {
  std::string body(1, static_cast<char>(version));
  return encode(/*session=*/0, Op::HelloAck, body);
}

std::string encode_verdict(SessionId session, core::Verdict verdict,
                           bool exact, bool evicted, std::uint64_t fed,
                           std::uint64_t stale) {
  std::string body;
  body.reserve(3 + 8 + 8);
  body.push_back(static_cast<char>(verdict));
  body.push_back(static_cast<char>(exact ? 1 : 0));
  body.push_back(static_cast<char>(evicted ? 1 : 0));
  put_u64le(body, fed);
  put_u64le(body, stale);
  return encode(session, Op::Verdict, body);
}

std::string encode_submit_query(SessionId session, std::string_view query) {
  return encode(session, Op::SubmitQuery, query);
}

std::string encode_shed(SessionId session, AdmitResult admit,
                        std::uint64_t symbols) {
  std::string body;
  body.reserve(2 + 8);
  body.push_back(static_cast<char>(admit.admit));
  body.push_back(static_cast<char>(admit.reason));
  put_u64le(body, symbols);
  return encode(session, Op::ShedNotice, body);
}

void Decoder::push(std::string_view bytes) {
  if (!ok()) return;
  // Finish what an earlier push left incomplete: copy only the bytes that
  // complete the pending frame, decode it from buffer_, then decode
  // everything after it straight from the caller's view and keep only the
  // incomplete tail.
  std::size_t pos = 0;
  while (!buffer_.empty() && pos < bytes.size() && ok()) {
    const std::size_t take =
        std::min(pending_bytes() - buffer_.size(), bytes.size() - pos);
    buffer_.append(bytes.data() + pos, take);
    pos += take;
    buffer_.erase(0, decode(buffer_));
  }
  if (ok() && buffer_.empty()) {
    const std::string_view rest = bytes.substr(pos);
    buffer_.assign(rest.substr(decode(rest)));
  }
  if (!ok()) buffer_.clear();
}

std::size_t Decoder::pending_bytes() const {
  if (buffer_.size() < kFrameHeaderBytes) return kFrameHeaderBytes;
  return kHeaderBytes + get_u32le(buffer_.data());
}

bool Decoder::next(WireEvent& out) { return ready_.pop(out); }

Decoder::EventQueue::EventQueue(EventQueue&& other) noexcept
    : head_(std::exchange(other.head_, nullptr)),
      tail_(std::exchange(other.tail_, nullptr)),
      spare_(std::exchange(other.spare_, nullptr)),
      head_index_(std::exchange(other.head_index_, 0)),
      tail_index_(std::exchange(other.tail_index_, 0)),
      spares_(std::exchange(other.spares_, 0)) {}

Decoder::EventQueue::~EventQueue() {
  for (Chunk* list : {head_, spare_})
    while (list) delete std::exchange(list, list->next);
}

void Decoder::EventQueue::push(WireEvent&& event) {
  if (!tail_ || tail_index_ == kChunkEvents) {
    Chunk* chunk = spare_;
    if (chunk) {
      spare_ = chunk->next;
      --spares_;
      chunk->next = nullptr;
    } else {
      chunk = new Chunk;
    }
    (tail_ ? tail_->next : head_) = chunk;
    tail_ = chunk;
    tail_index_ = 0;
  }
  tail_->events[tail_index_++] = std::move(event);
}

bool Decoder::EventQueue::pop(WireEvent& out) {
  if (!head_ || (head_ == tail_ && head_index_ == tail_index_)) return false;
  out = std::move(head_->events[head_index_++]);
  if (head_ == tail_ && head_index_ == tail_index_) {
    head_index_ = tail_index_ = 0;  // drained: refill this chunk from 0
  } else if (head_index_ == kChunkEvents) {
    Chunk* chunk = std::exchange(head_, head_->next);
    head_index_ = 0;
    if (spares_ < kSpareChunks) {
      chunk->next = spare_;
      spare_ = chunk;
      ++spares_;
    } else {
      delete chunk;
    }
  }
  return true;
}

bool Decoder::fail(DecodeError code, std::string message) {
  error_code_ = code;
  error_ = std::move(message);
  return false;
}

std::size_t Decoder::decode(std::string_view in) {
  std::size_t pos = 0;
  while (ok()) {
    const std::size_t available = in.size() - pos;
    if (available < kFrameHeaderBytes) return pos;
    const char* header = in.data() + pos;
    const std::size_t len = get_u32le(header);
    if (len < kPayloadHeaderBytes) {
      fail(DecodeError::ShortFrame,
           "svc::Decoder: frame shorter than its payload header");
      return pos;
    }
    if (len > max_frame_bytes_) {
      fail(DecodeError::Oversized, "svc::Decoder: frame exceeds the size cap");
      return pos;
    }
    const SessionId session = get_u64le(header + kHeaderBytes);
    const auto raw_op = static_cast<unsigned char>(header[kHeaderBytes + 8]);
    // An op outside the table fails with its header: nothing of its body
    // is waited for or buffered.
    if (!known_op(raw_op)) {
      fail(DecodeError::UnknownOp, "svc::Decoder: unknown opcode");
      return pos;
    }
    // A frame is one event: wait for all of it.
    if (available < kHeaderBytes + len) return pos;
    if (!decode_frame(session, static_cast<Op>(raw_op),
                      in.substr(pos + kFrameHeaderBytes,
                                len - kPayloadHeaderBytes)))
      return pos;
    pos += kHeaderBytes + len;
    ++frames_;
  }
  return pos;
}

bool Decoder::decode_frame(SessionId session, Op op, std::string_view body) {
  WireEvent ev;
  ev.session = session;
  switch (op) {
    case Op::Open: {
      if (body.empty())
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: Open frame without a priority byte");
      const auto raw = static_cast<unsigned char>(body[0]);
      if (raw > static_cast<unsigned char>(Priority::High))
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: Open with an unknown priority");
      ev.kind = WireEvent::Kind::Open;
      ev.priority = static_cast<Priority>(raw);
      ev.profile = std::string(body.substr(1));
      break;
    }
    case Op::FeedPacked: {
      bool valid = false;
      if (packed_mode_ == PackedMode::Pool) {
        PackedReader reader(body);
        valid = reader.skip();
        if (valid) {
          ev.packed = pool_.take(body, reader.count());
          stride_bodies_ += reader.stride_elements() > 0;
        }
      } else {
        valid = decode_packed(body, ev.symbols);
      }
      if (!valid)
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: malformed packed feed body");
      ev.kind = WireEvent::Kind::Symbols;
      break;
    }
    case Op::Close:
      ev.kind = WireEvent::Kind::Close;
      ev.end = core::StreamEnd::EndOfWord;
      break;
    case Op::CloseTruncated:
      ev.kind = WireEvent::Kind::Close;
      ev.end = core::StreamEnd::Truncated;
      break;
    case Op::Hello:
      if (body.size() != 2)
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: Hello body must be [min][max]");
      ev.kind = WireEvent::Kind::Hello;
      ev.version_min = static_cast<std::uint8_t>(body[0]);
      ev.version_max = static_cast<std::uint8_t>(body[1]);
      if (ev.version_min > ev.version_max)
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: Hello with an inverted version range");
      break;
    case Op::HelloAck:
      if (body.size() != 1)
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: HelloAck body must be [version]");
      ev.kind = WireEvent::Kind::HelloAck;
      ev.version = static_cast<std::uint8_t>(body[0]);
      break;
    case Op::Verdict: {
      if (body.size() != 3 + 8 + 8)
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: Verdict body has a fixed 19-byte layout");
      const auto raw = static_cast<unsigned char>(body[0]);
      if (raw > static_cast<unsigned char>(core::Verdict::Rejecting))
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: Verdict with an unknown verdict byte");
      ev.kind = WireEvent::Kind::Verdict;
      ev.verdict = static_cast<core::Verdict>(raw);
      ev.exact = body[1] != 0;
      ev.evicted = body[2] != 0;
      ev.fed = get_u64le(body.data() + 3);
      ev.stale = get_u64le(body.data() + 11);
      break;
    }
    case Op::SubmitQuery: {
      // Validate the query text while the frame is in hand: a client
      // that cannot even form a syntactically valid query is as broken
      // as one sending a garbled feed body, and gets the same sticky
      // treatment.  (Compile limits are a resource policy, not a
      // framing error -- the session layer handles those.)
      auto parsed = cer::parse(body);
      if (!parsed.ok()) {
        std::string msg = "svc::Decoder: malformed query: ";
        msg += parsed.error;
        msg += " at offset ";
        msg += std::to_string(parsed.offset);
        return fail(DecodeError::MalformedBody, std::move(msg));
      }
      ev.kind = WireEvent::Kind::SubmitQuery;
      ev.profile = std::string(body);
      break;
    }
    case Op::ShedNotice: {
      if (body.size() != 2 + 8)
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: ShedNotice body has a fixed "
                    "10-byte layout");
      const auto raw_admit = static_cast<unsigned char>(body[0]);
      const auto raw_reason = static_cast<unsigned char>(body[1]);
      if (raw_admit > static_cast<unsigned char>(Admit::Blocked) ||
          raw_reason > static_cast<unsigned char>(ShedReason::Priority))
        return fail(DecodeError::MalformedBody,
                    "svc::Decoder: ShedNotice with an unknown "
                    "admit/reason byte");
      ev.kind = WireEvent::Kind::Shed;
      ev.admit = AdmitResult{static_cast<Admit>(raw_admit),
                             static_cast<ShedReason>(raw_reason)};
      ev.shed_symbols = get_u64le(body.data() + 2);
      break;
    }
  }
  ready_.push(std::move(ev));
  return true;
}

std::vector<std::string> apply_faults(const std::vector<std::string>& frames,
                                      const sim::FaultPlan& plan,
                                      sim::FaultCounters* counters) {
  sim::FaultInjector injector(plan);

  // Each surviving copy is slotted at (original index + drawn delay); a
  // stable sort on the slot reorders delayed frames past their neighbors
  // while preserving emission order among ties -- deterministic for a
  // given (frames, plan).
  struct Slot {
    std::uint64_t position;
    const std::string* frame;
  };
  std::vector<Slot> slots;
  slots.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto verdict = injector.link_verdict(
        0, 1, static_cast<std::uint64_t>(i), static_cast<sim::Tick>(i));
    if (!verdict.deliver) continue;
    for (std::uint32_t c = 0; c < verdict.copies; ++c)
      slots.push_back(Slot{static_cast<std::uint64_t>(i) +
                               verdict.extra_delay,
                           &frames[i]});
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) {
                     return a.position < b.position;
                   });

  std::vector<std::string> out;
  out.reserve(slots.size());
  for (const auto& slot : slots) out.push_back(*slot.frame);
  if (counters) *counters = injector.counters();
  return out;
}

}  // namespace rtw::svc
