#include "serve/protocol.hh"

#include <algorithm>
#include <cstring>

#include "align/types.hh"

namespace gmx::serve {

namespace {

// -------------------------------------------------------------------
// Little-endian field writers/readers. Byte-wise on purpose: the wire
// format must not depend on host endianness or struct layout.
// -------------------------------------------------------------------

void
putU16(std::string &out, u16 v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, u32 v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, u64 v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked forward cursor over a payload. */
class Reader
{
  public:
    Reader(const void *data, size_t len)
        : p_(static_cast<const u8 *>(data)), len_(len)
    {}

    size_t remaining() const { return len_ - off_; }

    bool u8At(u8 &v)
    {
        if (remaining() < 1)
            return false;
        v = p_[off_++];
        return true;
    }

    bool u16At(u16 &v)
    {
        if (remaining() < 2)
            return false;
        v = static_cast<u16>(p_[off_] | (u16{p_[off_ + 1]} << 8));
        off_ += 2;
        return true;
    }

    bool u32At(u32 &v)
    {
        if (remaining() < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= u32{p_[off_ + static_cast<size_t>(i)]} << (8 * i);
        off_ += 4;
        return true;
    }

    bool u64At(u64 &v)
    {
        if (remaining() < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= u64{p_[off_ + static_cast<size_t>(i)]} << (8 * i);
        off_ += 8;
        return true;
    }

    bool bytesAt(std::string &out, size_t n)
    {
        if (remaining() < n)
            return false;
        out.assign(reinterpret_cast<const char *>(p_ + off_), n);
        off_ += n;
        return true;
    }

  private:
    const u8 *p_;
    size_t len_;
    size_t off_ = 0;
};

Status
truncated(const char *what)
{
    return Status::invalidInput(std::string("truncated ") + what +
                                " frame");
}

Status
trailing(const char *what)
{
    return Status::invalidInput(std::string(what) +
                                " frame has trailing bytes");
}

/** Wrap @p payload in a v1 header for @p type. */
std::string
frame(FrameType type, const std::string &payload)
{
    std::string out;
    out.reserve(kHeaderBytes + payload.size());
    putU32(out, kMagic);
    out.push_back(static_cast<char>(kVersion));
    out.push_back(static_cast<char>(type));
    putU16(out, 0); // reserved
    putU32(out, static_cast<u32>(payload.size()));
    out += payload;
    return out;
}

bool
validStatusByte(u8 b)
{
    return b <= static_cast<u8>(StatusCode::Unavailable);
}

} // namespace

bool
knownFrameType(u8 type)
{
    return type >= static_cast<u8>(FrameType::Hello) &&
           type <= static_cast<u8>(FrameType::ByeAck);
}

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello:
        return "hello";
      case FrameType::HelloAck:
        return "hello_ack";
      case FrameType::AlignRequest:
        return "align_request";
      case FrameType::AlignResponse:
        return "align_response";
      case FrameType::Error:
        return "error";
      case FrameType::Bye:
        return "bye";
      case FrameType::ByeAck:
        return "bye_ack";
    }
    return "?";
}

const char *
priorityName(Priority p)
{
    switch (p) {
      case Priority::Low:
        return "low";
      case Priority::Normal:
        return "normal";
      case Priority::High:
        return "high";
    }
    return "?";
}

std::string
encodeHello(const HelloFrame &f)
{
    std::string payload;
    payload.push_back(static_cast<char>(f.priority));
    payload.push_back(static_cast<char>(f.features));
    payload.append(2, '\0'); // reserved
    putU32(payload, static_cast<u32>(f.client_id.size()));
    payload += f.client_id;
    return frame(FrameType::Hello, payload);
}

std::string
encodeHelloAck(const HelloAckFrame &f)
{
    std::string payload;
    payload.push_back(static_cast<char>(f.version));
    payload.push_back(static_cast<char>(f.features));
    payload.append(2, '\0');
    putU32(payload, f.max_frame_bytes);
    return frame(FrameType::HelloAck, payload);
}

std::string
encodeAlignRequest(const AlignRequestFrame &f)
{
    std::string payload;
    putU64(payload, f.id);
    putU32(payload, f.max_edits);
    payload.push_back(f.want_cigar ? 1 : 0);
    const bool has_deadline = f.deadline_us > 0;
    payload.push_back(has_deadline ? 1 : 0); // request flags
    payload.append(2, '\0');
    putU32(payload, static_cast<u32>(f.pattern.size()));
    putU32(payload, static_cast<u32>(f.text.size()));
    payload += f.pattern;
    payload += f.text;
    // Deadline extension trails the bodies so a v1 decoder (which
    // demands exact payload consumption) rejects rather than misparses
    // it; senders gate on the negotiated kFeatureDeadline bit.
    if (has_deadline)
        putU64(payload, f.deadline_us);
    return frame(FrameType::AlignRequest, payload);
}

std::string
encodeAlignResponse(const AlignResponseFrame &f)
{
    std::string payload;
    putU64(payload, f.id);
    payload.push_back(static_cast<char>(f.code));
    u8 flags = 0;
    if (f.has_cigar)
        flags |= 1;
    if (f.cache_hit)
        flags |= 2;
    payload.push_back(static_cast<char>(flags));
    putU16(payload, 0); // reserved
    // Distance as two's-complement u64; kNoAlignment travels as -1.
    const i64 d =
        f.distance == align::kNoAlignment ? i64{-1} : f.distance;
    putU64(payload, static_cast<u64>(d));
    putU32(payload, static_cast<u32>(f.message.size()));
    putU32(payload, static_cast<u32>(f.cigar.size()));
    payload += f.message;
    payload += f.cigar;
    return frame(FrameType::AlignResponse, payload);
}

std::string
encodeError(const ErrorFrame &f)
{
    std::string payload;
    payload.push_back(static_cast<char>(f.code));
    payload.append(3, '\0');
    putU32(payload, static_cast<u32>(f.message.size()));
    payload += f.message;
    return frame(FrameType::Error, payload);
}

std::string
encodeBye()
{
    return frame(FrameType::Bye, {});
}

std::string
encodeByeAck()
{
    return frame(FrameType::ByeAck, {});
}

Status
decodeHeader(const void *data, size_t len, u32 max_payload,
             FrameHeader &out)
{
    if (len < kHeaderBytes)
        return truncated("header");
    Reader r(data, len);
    u32 magic = 0;
    u8 version = 0, type = 0;
    u16 reserved = 0;
    u32 payload_len = 0;
    (void)r.u32At(magic);
    (void)r.u8At(version);
    (void)r.u8At(type);
    (void)r.u16At(reserved);
    (void)r.u32At(payload_len);
    if (magic != kMagic)
        return Status::invalidInput("bad frame magic (not a GMX stream)");
    if (version != kVersion)
        return Status::invalidInput("unsupported protocol version " +
                                    std::to_string(version));
    if (!knownFrameType(type))
        return Status::invalidInput("unknown frame type " +
                                    std::to_string(type));
    if (reserved != 0)
        return Status::invalidInput("nonzero reserved header bits");
    if (payload_len > max_payload)
        return Status::invalidInput(
            "frame payload " + std::to_string(payload_len) +
            " exceeds cap " + std::to_string(max_payload));
    out.version = version;
    out.type = static_cast<FrameType>(type);
    out.payload_len = payload_len;
    return Status();
}

Status
decodeHello(const void *data, size_t len, HelloFrame &out)
{
    Reader r(data, len);
    u8 priority = 0;
    std::string reserved;
    u32 id_len = 0;
    // The features byte is not validated: unknown bits are a FUTURE
    // peer's offer, masked to kSupportedFeatures at the use site (v1
    // peers wrote zero here).
    if (!r.u8At(priority) || !r.u8At(out.features) ||
        !r.bytesAt(reserved, 2) || !r.u32At(id_len))
        return truncated("hello");
    if (priority >= kPriorityCount)
        return Status::invalidInput("hello priority out of range");
    if (id_len > kMaxClientIdBytes)
        return Status::invalidInput("hello client id too long");
    if (!r.bytesAt(out.client_id, id_len))
        return truncated("hello");
    if (r.remaining() != 0)
        return trailing("hello");
    out.priority = static_cast<Priority>(priority);
    return Status();
}

Status
decodeHelloAck(const void *data, size_t len, HelloAckFrame &out)
{
    Reader r(data, len);
    std::string reserved;
    if (!r.u8At(out.version) || !r.u8At(out.features) ||
        !r.bytesAt(reserved, 2) || !r.u32At(out.max_frame_bytes))
        return truncated("hello_ack");
    if (r.remaining() != 0)
        return trailing("hello_ack");
    if (out.max_frame_bytes < kHeaderBytes)
        return Status::invalidInput("hello_ack frame cap too small");
    return Status();
}

Status
decodeAlignRequest(const void *data, size_t len, AlignRequestFrame &out)
{
    Reader r(data, len);
    u8 want_cigar = 0, flags = 0;
    std::string reserved;
    u32 pattern_len = 0, text_len = 0;
    if (!r.u64At(out.id) || !r.u32At(out.max_edits) ||
        !r.u8At(want_cigar) || !r.u8At(flags) ||
        !r.bytesAt(reserved, 2) || !r.u32At(pattern_len) ||
        !r.u32At(text_len))
        return truncated("align_request");
    if (want_cigar > 1)
        return Status::invalidInput("align_request want_cigar not 0/1");
    if (flags & ~u8{1})
        return Status::invalidInput("align_request unknown flag bits");
    if (!r.bytesAt(out.pattern, pattern_len) ||
        !r.bytesAt(out.text, text_len))
        return truncated("align_request");
    out.deadline_us = 0;
    if (flags & 1) {
        if (!r.u64At(out.deadline_us))
            return truncated("align_request");
        if (out.deadline_us == 0)
            return Status::invalidInput(
                "align_request deadline flag set with zero budget");
    }
    if (r.remaining() != 0)
        return trailing("align_request");
    out.want_cigar = want_cigar == 1;
    return Status();
}

Status
decodeAlignResponse(const void *data, size_t len, AlignResponseFrame &out)
{
    Reader r(data, len);
    u8 code = 0, flags = 0;
    u16 reserved = 0;
    u64 distance = 0;
    u32 message_len = 0, cigar_len = 0;
    if (!r.u64At(out.id) || !r.u8At(code) || !r.u8At(flags) ||
        !r.u16At(reserved) || !r.u64At(distance) ||
        !r.u32At(message_len) || !r.u32At(cigar_len))
        return truncated("align_response");
    if (!validStatusByte(code))
        return Status::invalidInput("align_response status byte invalid");
    if (flags & ~u8{3})
        return Status::invalidInput("align_response unknown flag bits");
    if (reserved != 0)
        return Status::invalidInput("align_response reserved bits set");
    if (message_len > kMaxMessageBytes)
        return Status::invalidInput("align_response message too long");
    if (!r.bytesAt(out.message, message_len) ||
        !r.bytesAt(out.cigar, cigar_len))
        return truncated("align_response");
    if (r.remaining() != 0)
        return trailing("align_response");
    out.code = static_cast<StatusCode>(code);
    out.has_cigar = (flags & 1) != 0;
    out.cache_hit = (flags & 2) != 0;
    const i64 d = static_cast<i64>(distance);
    if (d < -1)
        return Status::invalidInput("align_response negative distance");
    out.distance = d == -1 ? align::kNoAlignment : d;
    return Status();
}

Status
decodeError(const void *data, size_t len, ErrorFrame &out)
{
    Reader r(data, len);
    u8 code = 0;
    std::string reserved;
    u32 message_len = 0;
    if (!r.u8At(code) || !r.bytesAt(reserved, 3) || !r.u32At(message_len))
        return truncated("error");
    if (!validStatusByte(code))
        return Status::invalidInput("error status byte invalid");
    if (message_len > kMaxMessageBytes)
        return Status::invalidInput("error message too long");
    if (!r.bytesAt(out.message, message_len))
        return truncated("error");
    if (r.remaining() != 0)
        return trailing("error");
    out.code = static_cast<StatusCode>(code);
    return Status();
}

Status
decodeEmpty(FrameType t, size_t len)
{
    if (len != 0)
        return Status::invalidInput(std::string(frameTypeName(t)) +
                                    " frame must be empty");
    return Status();
}

net::IoResult
FrameReader::fill(int fd)
{
    if (empty()) {
        begin_ = end_ = 0;
        // A long-read frame grew the buffer; do not keep it per idle
        // connection.
        if (cap_ > 4 * kChunk) {
            buf_.reset();
            cap_ = 0;
        }
    }
    const size_t room = std::max(kChunk, want_);
    if (cap_ - end_ < room) {
        // Slide the unfinished frame to the front, into a larger buffer
        // when the pending frame still would not fit.
        const size_t live = end_ - begin_;
        if (cap_ - live < room) {
            auto grown = std::make_unique_for_overwrite<char[]>(live + room);
            if (live > 0)
                std::memcpy(grown.get(), buf_.get() + begin_, live);
            buf_ = std::move(grown);
            cap_ = live + room;
        } else {
            std::memmove(buf_.get(), buf_.get() + begin_, live);
        }
        begin_ = 0;
        end_ = live;
    }
    size_t got = 0;
    const net::IoResult r =
        net::recvSome(fd, buf_.get() + end_, cap_ - end_, got);
    end_ += got;
    return r;
}

FrameReader::Next
FrameReader::next(u32 max_payload, FrameHeader &header,
                  std::string_view &payload, Status &error)
{
    want_ = 0;
    const size_t have = end_ - begin_;
    if (have < kHeaderBytes)
        return Next::NeedHeader;
    error = decodeHeader(buf_.get() + begin_, kHeaderBytes, max_payload,
                         header);
    if (!error.ok())
        return Next::Invalid;
    const size_t total = kHeaderBytes + header.payload_len;
    if (have < total) {
        want_ = total - have;
        return Next::NeedPayload;
    }
    payload = std::string_view(buf_.get() + begin_ + kHeaderBytes,
                               header.payload_len);
    begin_ += total;
    return Next::Frame;
}

void
FrameReader::clear()
{
    begin_ = end_ = want_ = 0;
}

} // namespace gmx::serve
