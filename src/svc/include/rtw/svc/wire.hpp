#pragma once
/// \file wire.hpp
/// Length-prefixed binary frame codec for the serving layer, protocol v3.
///
/// A session's life on the wire is a frame sequence:
///
///       [u32le len][u64le session][u8 op][body ...]
///       `--------'  `--------------------------- len bytes ------'
///
///   op 3  Close           stream complete (StreamEnd::EndOfWord)
///   op 4  CloseTruncated  stream cut at the horizon (StreamEnd::Truncated)
///   op 6  Open            body = [u8 priority][profile string]: the
///                         admission priority for the adaptive-shedding
///                         ingress, then the acceptor selector, handed to
///                         the caller's factory verbatim
///   op 7  Hello           client->server, body = [u8 min][u8 max]: the
///                         closed version range the client can speak.  A
///                         range without version 3 is refused; a client
///                         may also skip the handshake altogether
///   op 8  HelloAck        server->client, body = [u8 version]: always 3
///   op 9  Verdict         server->client, body = [u8 verdict][u8 exact]
///                         [u8 evicted][u64le fed][u64le stale]: the
///                         session's settled acceptance verdict
///                         (core::Verdict) the moment the stream finishes
///   op 10 ShedNotice      server->client, body = [u8 admit][u8 reason]
///                         [u64le symbols]: an admission refusal surfaced
///                         to the client that sent the refused frame
///   op 11 SubmitQuery     body = timed-pattern query text (cer/parser.hpp
///                         grammar); opens the session with a compiled
///                         per-session acceptor instead of a named
///                         profile.  The decoder parses the query during
///                         frame validation: a syntax error is a sticky
///                         MalformedBody, exactly like a bad feed body.
///                         Structural blow-ups (CompileLimits) are not a
///                         framing matter and surface as a refused open
///                         (ShedNotice) instead.
///   op 12 FeedPacked      body = [varint n] then n elements, each
///                         [u8 kind][payload][varint dt]:
///                           kind 0 Char    payload = 1 byte
///                           kind 1 Nat     payload = varint
///                           kind 2 Marker  payload = [varint len][name]
///                         dt = (time - previous time) mod 2^64, previous
///                         = 0 for the first element, so any time
///                         sequence round-trips (decreasing ones too).
///                         Varints are LEB128 of at most 10 bytes, the
///                         10th <= 1.  One complete frame is one Symbols
///                         event and one ring slot.  A served element
///                         costs 3 bytes.
///
///                         The stride tail: once the bytes left are 3 x
///                         the elements left, every remaining element is
///                         [kind][one byte][one-byte dt] -- a Char, a Nat
///                         below 128 or an empty Marker, each with a dt
///                         below 128.  A served body reaches it after its
///                         first element, whose dt is the absolute time.
///
/// Every other op number, the retired ops 1, 2 and 5 of v0-v2 (an Open
/// without priority and two text feed bodies) among them, is a sticky
/// UnknownOp, raised as soon as the frame's 13-byte header is in.  Every
/// connection receives Verdict and ShedNotice frames, whether or not it
/// sent Hello.
///
/// Where an op-12 body is checked and where it is read.  The grammar
/// lives in one walker, PackedReader, which every reader of a body uses;
/// it reads a stride tail in a fixed-stride pass with no branch per byte.
/// A Decoder in its default PackedMode::Decode walks the body once and
/// emits its elements as `symbols`, interning markers on the spot.  The
/// Server's connections run their Decoder in PackedMode::Pool instead:
/// the walk there only validates (a malformed body is the same sticky
/// MalformedBody), and the event carries the body's bytes in a recycled
/// buffer (`packed`, body_pool.hpp).  The shard worker that owns the
/// session reads those bytes again, a chunk at a time, through the
/// session's stale filter into its acceptor's feed_run (or, for a
/// lane-family session, decodes the run into shard-owned wave storage),
/// so markers of such a body are interned on the shard.  Once the
/// session's acceptor has settled, the shard reads the rest of the body
/// with the times-only read (PackedReader::read_times, admit_times): the
/// stale filter needs the times alone, so no symbol is built.
///
/// Decoder is frame-atomic: push() accepts any byte-chunking (including
/// mid-header splits) and a frame yields its event only once its last
/// byte has arrived.  Complete frames decode in place from the pushed
/// bytes; only an incomplete tail is copied and kept, so each byte is
/// copied at most once whatever the chunking.  The length prefix keeps
/// framing O(1) and splittable at arbitrary byte boundaries.
///
/// apply_faults() subjects an encoded frame sequence to a
/// sim::FaultPlan at *frame* granularity (drop / duplicate / delay as
/// reordering) -- the soak harness feeds the mangled stream through a
/// Decoder into the SessionManager and checks verdicts never diverge.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rtw/core/online.hpp"
#include "rtw/core/timed_word.hpp"
#include "rtw/sim/fault.hpp"
#include "rtw/svc/admit.hpp"
#include "rtw/svc/body_pool.hpp"
#include "rtw/svc/ring.hpp"

namespace rtw::core {
struct LaneFilter;
}

namespace rtw::svc {

using SessionId = std::uint64_t;

/// Frame opcodes (the u8 after the session id).
enum class Op : std::uint8_t {
  Close = 3,
  CloseTruncated = 4,
  Open = 6,
  Hello = 7,
  HelloAck = 8,
  Verdict = 9,
  ShedNotice = 10,
  SubmitQuery = 11,
  FeedPacked = 12,
};

std::string to_string(Op op);

/// The protocol version this build speaks, and the only one it accepts.
inline constexpr std::uint8_t kWireVersion = 3;

/// Frame size cap the Decoder enforces by default (a corrupt length
/// prefix must not look like a 4 GiB allocation request).
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

// ------------------------------------------------------------ encoding

/// Op 6: open a session on a named profile.
std::string encode_open(SessionId session, std::string_view profile = {},
                        Priority priority = Priority::Normal);
/// Op 12 (packed FeedBatch): the run decodes as one event and admits as
/// one ring slot.
std::string encode_feed_batch(SessionId session,
                              const std::vector<core::TimedSymbol>& symbols);
std::string encode_close(SessionId session,
                         core::StreamEnd end = core::StreamEnd::EndOfWord);
/// Op 7: client hello advertising the closed version range [min, max].
std::string encode_hello(std::uint8_t min_version = kWireVersion,
                         std::uint8_t max_version = kWireVersion);
/// Op 8: the server's selected version.
std::string encode_hello_ack(std::uint8_t version);
/// Op 9: a finished session's settled verdict (session id ties the
/// notification back to the client's Open).
std::string encode_verdict(SessionId session, core::Verdict verdict,
                           bool exact, bool evicted, std::uint64_t fed,
                           std::uint64_t stale);
/// Op 10: an admission refusal, surfaced to the client that sent the
/// refused frame.  `symbols` is the size of the refused run.
std::string encode_shed(SessionId session, AdmitResult admit,
                        std::uint64_t symbols);
/// Op 11: open a session evaluating an inline timed-pattern query.
std::string encode_submit_query(SessionId session, std::string_view query);

// ------------------------------------------------------------ op 12

/// Packed element kinds: the u8 that starts each op-12 element.
enum class PackedKind : unsigned char { Char = 0, Nat = 1, Marker = 2 };

/// Smallest packed element: [kind][1-byte payload][1-byte dt].
inline constexpr std::size_t kMinPackedElementBytes = 3;

/// One element of an op-12 body, as PackedReader yields it.
struct PackedElement {
  core::Symbol sym;             ///< Char or Nat; unset for a Marker
  std::string_view marker;      ///< Marker only: the name, viewing the body
  bool is_marker = false;
  core::Tick time = 0;          ///< absolute (the dts summed)

  /// The element's symbol; a Marker's name is interned here.
  core::Symbol symbol() const {
    return is_marker ? core::Symbol::marker(marker) : sym;
  }
};

/// Walks an op-12 body: the packed grammar's one implementation.  Reading
/// stops at the first malformation; complete() then tells a well-formed
/// body (every counted element read, nothing after them) from a malformed
/// one.
///
/// The stride tail.  Every element takes at least kMinPackedElementBytes,
/// so once the bytes left are exactly that many times the elements left,
/// every remaining element of a well-formed body is [kind][one byte]
/// [one-byte dt].  read() and skip() detect that point and cover the
/// tail in a fixed-stride pass with no branch per byte; its rules are
/// next()'s rules for 3-byte elements, and a stretch that breaks them is
/// re-read by next() up to the malformation.  In served traffic the
/// stride starts after the first element, whose dt is the absolute time.
///
/// The times-only read.  read_times() yields each element's time alone,
/// for a reader that needs nothing else (a settled session's stale
/// filter, admit_times below).  It walks the same grammar with the same
/// stride rules, stops at the same malformation and counts the same
/// stride_elements() as read(), but builds no Symbol and interns no
/// marker.
///
/// next(), skip() and read_times() allocate and intern nothing:
/// PackedElement::symbol() interns a marker when asked, and read() interns
/// the markers it yields.
class PackedReader {
public:
  explicit PackedReader(std::string_view body) noexcept
      : p_(reinterpret_cast<const unsigned char*>(body.data())),
        end_(p_ + body.size()) {
    // A lying count cannot claim more elements than the bytes can hold.
    ok_ = read_varint(left_) &&
          left_ <= static_cast<std::size_t>(end_ - p_) / kMinPackedElementBytes;
    count_ = ok_ ? left_ : 0;
  }

  /// The element count the body announces (0 when its header is bad).
  std::uint64_t count() const noexcept { return count_; }

  /// Reads up to `max` elements into `out` and returns how many: fewer
  /// only at the end of the body or at a malformation.  The head goes
  /// through next(), a stride tail through the fixed-stride pass.
  std::size_t read(core::TimedSymbol* out, std::size_t max);

  /// read() for the times alone: the same elements, the same stop.
  std::size_t read_times(core::Tick* out, std::size_t max) noexcept;

  /// Walks every element left without yielding it -- the reactor's
  /// validator -- and returns complete().
  bool skip() noexcept;

  /// Elements the fixed-stride pass has read or skipped so far.
  std::uint64_t stride_elements() const noexcept { return stride_elements_; }

  /// Reads the next element; false at the end or at a malformation.
  bool next(PackedElement& out) noexcept { return walk(&out); }

  /// True once every counted element was read and no byte trails them.
  bool complete() const noexcept { return ok_ && left_ == 0 && p_ == end_; }

private:
  /// The packed grammar: reads one element and sums its dt into time_,
  /// filling `out` unless it is null (skip() and read_times() want no
  /// element); false at the end or at a malformation.
  bool walk(PackedElement* out) noexcept {
    if (!ok_ || left_ == 0) return false;
    ok_ = false;
    if (p_ == end_) return false;
    if (out) out->is_marker = false;
    switch (static_cast<PackedKind>(*p_++)) {
      case PackedKind::Char:
        if (p_ == end_) return false;
        if (out) out->sym = core::Symbol::chr(static_cast<char>(*p_));
        ++p_;
        break;
      case PackedKind::Nat: {
        std::uint64_t value = 0;
        if (!read_varint(value)) return false;
        if (out) out->sym = core::Symbol::nat(value);
        break;
      }
      case PackedKind::Marker: {
        std::uint64_t len = 0;
        if (!read_varint(len) || len > static_cast<std::uint64_t>(end_ - p_))
          return false;
        if (out) {
          out->marker = std::string_view(reinterpret_cast<const char*>(p_),
                                         static_cast<std::size_t>(len));
          out->is_marker = true;
        }
        p_ += len;
        break;
      }
      default:
        return false;
    }
    std::uint64_t dt = 0;
    if (!read_varint(dt)) return false;
    time_ += dt;  // mod 2^64: any time sequence round-trips
    if (out) out->time = time_;
    --left_;
    ok_ = true;
    return true;
  }

  /// True when the rest of a well-formed body is a stride tail.  (left_
  /// is at most a third of the body, so the product cannot wrap.)
  bool at_stride() const noexcept {
    return ok_ && static_cast<std::uint64_t>(end_ - p_) ==
                      kMinPackedElementBytes * left_;
  }

  /// The fixed-stride pass over the next `n` (<= left_) elements of a
  /// stride tail, with next()'s rules for 3-byte elements: Char takes any
  /// byte, Nat a byte < 0x80, Marker only length 0, and every dt is a
  /// byte < 0x80.  With `out` it decodes the elements there; without, it
  /// only checks them and leaves their times unsummed (skip() yields no
  /// element).  False, with nothing consumed, when one breaks the rules.
  bool stride(core::TimedSymbol* out, std::size_t n);
  /// stride() yielding the times alone.
  bool stride_times(core::Tick* out, std::size_t n) noexcept;
  /// Ends a stride pass that read `n` elements up to `p`: false, with
  /// nothing consumed, when `fault` or a dt's high bit (in `dts`) is set.
  bool end_stride(const unsigned char* p, std::size_t n, unsigned fault,
                  unsigned dts) noexcept;
  /// LEB128 of at most 10 bytes whose 10th byte is <= 1 (exactly 64 bits).
  bool read_varint(std::uint64_t& v) noexcept {
    std::uint64_t result = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
      if (p_ == end_) return false;
      const unsigned byte = *p_++;
      if (shift == 63 && byte > 1) return false;
      result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) {
        v = result;
        return true;
      }
    }
    return false;
  }

  const unsigned char* p_;
  const unsigned char* end_;
  std::uint64_t left_ = 0;   ///< elements still to read
  std::uint64_t count_ = 0;
  std::uint64_t stride_elements_ = 0;
  core::Tick time_ = 0;
  bool ok_ = false;
};

/// A settled session's pass over the rest of a body: reads every element
/// left as its time alone (read_times) and runs each through `filter`
/// with LaneFilter::admit, as the session's stale filter does for the
/// elements it feeds.
void admit_times(PackedReader& reader, core::LaneFilter& filter) noexcept;

/// Decodes a whole op-12 body into `out` (reserved to its exact count);
/// false on any malformation.
bool decode_packed(std::string_view body, std::vector<core::TimedSymbol>& out);

// ------------------------------------------------------------ decoding

/// One decoded unit of the stream: one event per frame.  An op-12 run
/// arrives as `symbols`, or in PackedMode::Pool as `packed` (validated,
/// not decoded) with `symbols` left empty.
struct WireEvent {
  enum class Kind : std::uint8_t {
    Open,
    Symbols,
    Close,
    Hello,     ///< op 7: client version advertisement
    HelloAck,  ///< op 8: server version selection
    Verdict,   ///< op 9: settled session verdict notification
    Shed,      ///< op 10: admission-refusal notification
    SubmitQuery,  ///< op 11: open with an inline query (text in `profile`)
  };

  Kind kind = Kind::Symbols;
  SessionId session = 0;
  core::StreamEnd end = core::StreamEnd::EndOfWord;  ///< Close only
  Priority priority = Priority::Normal;              ///< Open only
  std::string profile;  ///< Open: profile; SubmitQuery: query text
  std::vector<core::TimedSymbol> symbols;            ///< Symbols only
  PackedBody packed;  ///< Symbols only, PackedMode::Pool: the op-12 body

  // Protocol-plane payloads.
  std::uint8_t version_min = 0;  ///< Hello
  std::uint8_t version_max = 0;  ///< Hello
  std::uint8_t version = 0;      ///< HelloAck
  core::Verdict verdict = core::Verdict::Undetermined;  ///< Verdict
  bool exact = false;            ///< Verdict: acceptance was exactly timed
  bool evicted = false;          ///< Verdict: closed by idle eviction
  std::uint64_t fed = 0;         ///< Verdict: symbols the session consumed
  std::uint64_t stale = 0;       ///< Verdict: symbols the time filter dropped
  AdmitResult admit;             ///< Shed: the refusal and its reason
  std::uint64_t shed_symbols = 0;  ///< Shed: size of the refused run
};

/// Typed decode failure, exposed alongside the human-readable error().
enum class DecodeError : std::uint8_t {
  None,           ///< stream healthy
  ShortFrame,     ///< length prefix smaller than the payload header
  Oversized,      ///< length prefix exceeds the frame size cap
  UnknownOp,      ///< opcode outside the known set (typed rejection)
  MalformedBody,  ///< body failed its op-specific validation
};

std::string to_string(DecodeError e);

/// What a Decoder hands over for an op-12 body.
enum class PackedMode : std::uint8_t {
  Decode,  ///< the elements, in WireEvent::symbols
  Pool,    ///< the validated bytes in a recycled buffer, WireEvent::packed
};

/// Incremental, frame-atomic decoder.  Not thread-safe (one per byte
/// stream).  Errors (bad opcode, oversized or undersized length, malformed
/// body) are sticky: the decoder refuses further input, because a framing
/// error means byte alignment is lost for good.  In PackedMode::Pool the
/// decoder owns its stream's BodyPool; the bodies it hands out may
/// outlive it.
class Decoder {
public:
  explicit Decoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
                   PackedMode packed_mode = PackedMode::Decode)
      : max_frame_bytes_(max_frame_bytes), packed_mode_(packed_mode) {}

  /// Decodes raw bytes (any chunking) as far as possible.  Complete
  /// frames decode straight from `bytes`; only an incomplete tail is
  /// copied and kept until a later push completes it.
  void push(std::string_view bytes);

  /// Pops the next decoded event; false when none is ready yet.
  bool next(WireEvent& out);

  bool ok() const noexcept { return error_code_ == DecodeError::None; }
  const std::string& error() const noexcept { return error_; }
  /// The typed form of error(); DecodeError::None while ok().
  DecodeError error_code() const noexcept { return error_code_; }
  /// Complete frames decoded so far.
  std::uint64_t frames() const noexcept { return frames_; }
  /// Bytes held for an incomplete frame.
  std::size_t buffered() const noexcept { return buffer_.size(); }
  /// PackedMode::Pool: op-12 bodies whose validation reached a stride
  /// tail (PackedReader) and covered it in the fixed-stride pass.
  std::uint64_t stride_bodies() const noexcept { return stride_bodies_; }

private:
  /// FIFO of decoded events, kept in fixed chunks of kChunkEvents.  A
  /// drained chunk goes to a spare list (up to kSpareChunks) instead of
  /// the heap, so steady-state decoding allocates nothing, and no
  /// allocation is larger than one chunk.
  class EventQueue {
  public:
    EventQueue() = default;
    EventQueue(EventQueue&& other) noexcept;
    EventQueue& operator=(EventQueue&& other) = delete;
    ~EventQueue();

    void push(WireEvent&& event);
    bool pop(WireEvent& out);

  private:
    static constexpr std::size_t kChunkEvents = 8;
    static constexpr std::size_t kSpareChunks = 16;
    struct Chunk {
      Chunk* next = nullptr;
      WireEvent events[kChunkEvents];
    };

    Chunk* head_ = nullptr;  ///< oldest chunk; pops from head_index_
    Chunk* tail_ = nullptr;  ///< newest chunk; pushes at tail_index_
    Chunk* spare_ = nullptr;
    std::size_t head_index_ = 0;
    std::size_t tail_index_ = 0;
    std::size_t spares_ = 0;
  };

  /// Decodes from `in` until it needs more bytes; returns bytes consumed.
  std::size_t decode(std::string_view in);
  /// Decodes one complete frame into ready_; false on failure.
  bool decode_frame(SessionId session, Op op, std::string_view body);
  /// Bytes buffer_ must hold to complete its pending frame.
  std::size_t pending_bytes() const;
  /// Makes the error sticky; returns false so a step can `return fail()`.
  bool fail(DecodeError code, std::string message);

  std::size_t max_frame_bytes_;
  PackedMode packed_mode_;
  BodyPool pool_;       ///< PackedMode::Pool only
  std::string buffer_;  ///< an incomplete frame
  EventQueue ready_;
  std::string error_;
  DecodeError error_code_ = DecodeError::None;
  std::uint64_t frames_ = 0;
  std::uint64_t stride_bodies_ = 0;
};

/// Runs an encoded frame sequence through a fault plan at frame
/// granularity.  Deterministic: decisions are drawn from
/// sim::FaultInjector keyed on the frame index, so the same (frames,
/// plan) pair always yields the same mangled sequence.  Drop removes the
/// frame; duplicate emits an extra copy; delay pushes the frame later in
/// the sequence by the drawn number of slots (reordering it past
/// neighbors, which is how the stale-symbol filter in svc::Session gets
/// exercised).  `counters`, when given, receives the injection tally.
std::vector<std::string> apply_faults(const std::vector<std::string>& frames,
                                      const sim::FaultPlan& plan,
                                      sim::FaultCounters* counters = nullptr);

}  // namespace rtw::svc
