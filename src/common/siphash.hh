/**
 * @file
 * SipHash-2-4 with a 128-bit output (Aumasson & Bernstein), fed
 * incrementally.
 *
 * A keyed hash: with a secret 128-bit key, an adversary who picks the
 * inputs still cannot aim two of them at one digest. The serve router
 * keys its dedup cache by this digest instead of by the sequences
 * themselves, so it must not be a hash a client can steer.
 */

#ifndef GMX_COMMON_SIPHASH_HH
#define GMX_COMMON_SIPHASH_HH

#include <bit>
#include <cstring>

#include "common/types.hh"

namespace gmx {

/** A 128-bit digest: the first and second output words. */
struct Digest128
{
    u64 lo = 0;
    u64 hi = 0;

    bool operator==(const Digest128 &) const = default;
};

/**
 * Incremental SipHash-2-4-128. update() may split the message anywhere;
 * the digest depends only on the concatenated bytes.
 */
class SipHash128
{
  public:
    SipHash128(u64 k0, u64 k1)
        : v0_(0x736f6d6570736575ULL ^ k0),
          v1_(0x646f72616e646f6dULL ^ k1 ^ 0xee), // 0xee: 128-bit output
          v2_(0x6c7967656e657261ULL ^ k0),
          v3_(0x7465646279746573ULL ^ k1)
    {
    }

    void
    update(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        total_ += len;
        while (len > 0 && held_ > 0) {
            pushByte(*p++);
            --len;
        }
        for (; len >= 8; p += 8, len -= 8)
            compress(load(p));
        while (len-- > 0)
            pushByte(*p++);
    }

    /** Feed one integer's bytes, least significant first. */
    void
    updateWord(u64 word)
    {
        unsigned char bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(word >> (8 * i));
        update(bytes, sizeof bytes);
    }

    /** The digest of everything fed so far (the hasher is spent). */
    Digest128
    finish()
    {
        compress(tail_ | (total_ << 56));
        v2_ ^= 0xee;
        rounds(4);
        Digest128 d;
        d.lo = v0_ ^ v1_ ^ v2_ ^ v3_;
        v1_ ^= 0xdd;
        rounds(4);
        d.hi = v0_ ^ v1_ ^ v2_ ^ v3_;
        return d;
    }

  private:
    static u64
    load(const unsigned char *p)
    {
        u64 w;
        std::memcpy(&w, p, 8);
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        return w;
    }

    void
    pushByte(unsigned char b)
    {
        tail_ |= u64{b} << (8 * held_);
        if (++held_ == 8) {
            compress(tail_);
            tail_ = 0;
            held_ = 0;
        }
    }

    void
    compress(u64 m)
    {
        v3_ ^= m;
        rounds(2);
        v0_ ^= m;
    }

    void
    rounds(int n)
    {
        for (int i = 0; i < n; ++i) {
            v0_ += v1_;
            v1_ = std::rotl(v1_, 13);
            v1_ ^= v0_;
            v0_ = std::rotl(v0_, 32);
            v2_ += v3_;
            v3_ = std::rotl(v3_, 16);
            v3_ ^= v2_;
            v0_ += v3_;
            v3_ = std::rotl(v3_, 21);
            v3_ ^= v0_;
            v2_ += v1_;
            v1_ = std::rotl(v1_, 17);
            v1_ ^= v2_;
            v2_ = std::rotl(v2_, 32);
        }
    }

    u64 v0_, v1_, v2_, v3_;
    u64 tail_ = 0;     //!< bytes of the current partial word
    unsigned held_ = 0; //!< how many bytes tail_ holds
    u64 total_ = 0;    //!< message length so far
};

} // namespace gmx

#endif // GMX_COMMON_SIPHASH_HH
