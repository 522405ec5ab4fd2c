/**
 * @file
 * GMX alignment-serving wire protocol: versioned, length-prefixed
 * binary frames.
 *
 * The engine's submission API is a function call; this protocol is the
 * same contract over a byte stream, so a remote client can stream
 * batches of alignment requests at a server and read typed results
 * back. Design goals, in order: impossible to misparse (every frame is
 * length-prefixed, magic-tagged, and versioned; decoders validate every
 * field and never read past a bound), cheap to encode/decode (flat
 * little-endian fields, one pass, no varints), and aligned with the
 * engine's error taxonomy (response status bytes ARE gmx::StatusCode
 * values, so a remote caller branches on exactly the codes a local
 * caller would).
 *
 * Frame layout (all integers little-endian):
 *
 *   offset size field
 *        0    4 magic        "GMX1" (0x31584D47)
 *        4    1 version      kVersion (1)
 *        5    1 type         FrameType
 *        6    2 reserved     must be 0 in v1
 *        8    4 payload_len  bytes after this 12-byte header
 *
 * Conversation: the client opens with Hello (client id + priority
 * class), the server answers HelloAck (negotiated frame cap). The
 * client then streams AlignRequest frames — no per-request round trip —
 * and the server streams AlignResponse frames back, matched by the
 * client-chosen request id (responses arrive in submission order on one
 * connection, but the id is the contract). Bye/ByeAck close politely;
 * Error is a connection-level failure (protocol violation, oversized
 * frame) after which the server hangs up.
 *
 * Distance on the wire: -1 encodes "no alignment within the requested
 * max_edits" (align::kNoAlignment is an i64 sentinel that would not
 * survive narrowing); decode maps it back.
 *
 * Feature negotiation: Hello and HelloAck each carry a feature bitmask
 * in what v1 called a reserved byte (v1 peers wrote zeros there, and
 * v1 decoders read the byte without checking it, so the bit is free).
 * The client offers its feature set; the server echoes the
 * intersection with what it supports; both sides then use only echoed
 * bits. kFeatureDeadline gates the AlignRequest deadline_us extension:
 * a request whose flags bit 0 is set carries a trailing u64
 * microsecond budget. The extension is only ever sent to a server
 * that advertised the feature — a v1 decoder would correctly reject
 * the trailing bytes — so strict decoders stay strict on both sides.
 *
 * Framing on the byte stream: frame boundaries need not line up with
 * send() or recv() boundaries. A peer may write many frames in one send
 * and a frame may arrive a byte at a time, so both ends read through a
 * FrameReader: each recv() appends whatever arrived, and every complete
 * frame the buffer holds is parsed before the next recv(). A header is
 * checked as soon as its 12 bytes are in, so an oversized or garbled
 * frame is refused before its payload is read; a stream that ends (or
 * stalls past the read deadline) inside a header or payload is a
 * truncated frame, never a short one.
 */

#ifndef GMX_SERVE_PROTOCOL_HH
#define GMX_SERVE_PROTOCOL_HH

#include <memory>
#include <string>
#include <string_view>

#include "common/net.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace gmx::serve {

/** Wire magic: "GMX1" read as a little-endian u32. */
inline constexpr u32 kMagic = 0x31584D47u;

/** Protocol version this build speaks. */
inline constexpr u8 kVersion = 1;

/** Fixed frame-header size in bytes. */
inline constexpr size_t kHeaderBytes = 12;

/**
 * Default cap on one frame's payload (requests and responses alike).
 * Sized for long-read traffic: a 1 Mbp + 3 Mbp window request is ~4 MB
 * of sequence bytes, and its CIGAR response is about one byte per op,
 * so 8 MiB admits the long length class with headroom while still
 * bounding a hostile frame to well under the per-connection budget.
 */
inline constexpr u32 kDefaultMaxFrameBytes = 8u << 20;

/** Cap on a Hello client-id string. */
inline constexpr u32 kMaxClientIdBytes = 256;

/** Cap on a response's human-readable status message. */
inline constexpr u32 kMaxMessageBytes = 4096;

/** Feature bit: AlignRequest frames may carry a deadline_us budget. */
inline constexpr u8 kFeatureDeadline = 0x01;

/** Every feature bit this build understands. */
inline constexpr u8 kSupportedFeatures = kFeatureDeadline;

enum class FrameType : u8 {
    Hello = 1,        //!< client -> server: identify + priority class
    HelloAck = 2,     //!< server -> client: version + frame cap
    AlignRequest = 3, //!< client -> server: one pair to align
    AlignResponse = 4, //!< server -> client: one result, matched by id
    Error = 5,        //!< server -> client: connection-level failure
    Bye = 6,          //!< client -> server: polite close after drain
    ByeAck = 7,       //!< server -> client: drain done, closing
};

/** True for the types a v1 peer may legally receive. */
bool knownFrameType(u8 type);

/** Human-readable frame-type name ("hello", "align_request", ...). */
const char *frameTypeName(FrameType t);

/** Client priority class; lower classes shed first under overload. */
enum class Priority : u8 {
    Low = 0,
    Normal = 1,
    High = 2,
};

inline constexpr unsigned kPriorityCount = 3;

/** Human-readable priority name ("low" / "normal" / "high"). */
const char *priorityName(Priority p);

/** Decoded frame header. */
struct FrameHeader
{
    u8 version = kVersion;
    FrameType type = FrameType::Error;
    u32 payload_len = 0;
};

struct HelloFrame
{
    Priority priority = Priority::Normal;
    u8 features = 0;       //!< feature bits the client offers
    std::string client_id; //!< empty is allowed (an anonymous client)
};

struct HelloAckFrame
{
    u8 version = kVersion;
    u8 features = 0; //!< offered ∩ supported; client uses only these
    u32 max_frame_bytes = kDefaultMaxFrameBytes;
};

struct AlignRequestFrame
{
    u64 id = 0;        //!< client-chosen; echoed in the response
    u32 max_edits = 0; //!< 0 = unbounded; else "within k or not found"
    bool want_cigar = true;
    /**
     * Remaining time budget in microseconds (0 = none). A budget, not a
     * wall-clock instant, so it survives clock skew between peers; each
     * hop subtracts the time it observed before forwarding the rest.
     * Only sent when the server advertised kFeatureDeadline.
     */
    u64 deadline_us = 0;
    std::string pattern;
    std::string text;
};

struct AlignResponseFrame
{
    u64 id = 0;
    StatusCode code = StatusCode::Ok;
    bool has_cigar = false;
    bool cache_hit = false; //!< served from the dedup cache (or coalesced)
    i64 distance = -1;      //!< -1 = no alignment within max_edits
    std::string message;    //!< failure detail (empty on Ok)
    std::string cigar;
};

struct ErrorFrame
{
    StatusCode code = StatusCode::Internal;
    std::string message;
};

// ---------------------------------------------------------------------
// Encoding: each returns one complete frame (header + payload).
// ---------------------------------------------------------------------

std::string encodeHello(const HelloFrame &f);
std::string encodeHelloAck(const HelloAckFrame &f);
std::string encodeAlignRequest(const AlignRequestFrame &f);
std::string encodeAlignResponse(const AlignResponseFrame &f);
std::string encodeError(const ErrorFrame &f);
std::string encodeBye();
std::string encodeByeAck();

// ---------------------------------------------------------------------
// Decoding: strict. Every decoder checks magic/version/type/bounds and
// demands exact payload consumption; any violation is a typed
// InvalidInput naming the defect. Decoders never read outside
// [data, data+len) and never throw.
// ---------------------------------------------------------------------

/**
 * Decode a 12-byte header. @p max_payload bounds payload_len (pass the
 * negotiated frame cap). @p data must hold kHeaderBytes bytes.
 */
Status decodeHeader(const void *data, size_t len, u32 max_payload,
                    FrameHeader &out);

Status decodeHello(const void *data, size_t len, HelloFrame &out);
Status decodeHelloAck(const void *data, size_t len, HelloAckFrame &out);
Status decodeAlignRequest(const void *data, size_t len,
                          AlignRequestFrame &out);
Status decodeAlignResponse(const void *data, size_t len,
                           AlignResponseFrame &out);
Status decodeError(const void *data, size_t len, ErrorFrame &out);

/** Bye and ByeAck carry no payload; len must be 0. */
Status decodeEmpty(FrameType t, size_t len);

/**
 * The receive side of one connection (see "Framing" above): a buffer
 * that fill() appends one recv() to and next() takes whole frames from,
 * in order. Not thread-safe; one per connection.
 */
class FrameReader
{
  public:
    /** What the front of the buffer holds. */
    enum class Next {
        Frame,       //!< a whole frame, now consumed
        NeedHeader,  //!< fewer than kHeaderBytes buffered
        NeedPayload, //!< a valid header, its payload still arriving
        Invalid,     //!< a header decodeHeader rejects
    };

    /**
     * One recv() from @p fd into the buffer: Ok when bytes arrived,
     * otherwise the net::recvSome classification (Closed on EOF).
     */
    net::IoResult fill(int fd);

    /**
     * Take the next frame. On Frame, @p header and @p payload describe
     * it (the view stays valid until the next fill()); on Invalid,
     * @p error says why and the stream cannot be resynchronised.
     */
    Next next(u32 max_payload, FrameHeader &header,
              std::string_view &payload, Status &error);

    /** No byte of an unfinished frame is buffered. */
    bool empty() const { return begin_ == end_; }

    /** Drop everything buffered (the connection is gone). */
    void clear();

  private:
    /** Bytes asked of each recv() when no larger frame is pending. */
    static constexpr size_t kChunk = 64 * 1024;

    /** Left uninitialised, so a page is touched only when bytes land. */
    std::unique_ptr<char[]> buf_;
    size_t cap_ = 0;
    size_t begin_ = 0; //!< first unconsumed byte
    size_t end_ = 0;   //!< one past the last received byte
    size_t want_ = 0;  //!< bytes the pending frame still lacks
};

} // namespace gmx::serve

#endif // GMX_SERVE_PROTOCOL_HH
