/**
 * @file
 * Fiat-Shamir channel for the STARK prover/verifier.
 *
 * Same shape as snark::Transcript (hash-chained state, domain-
 * separated by a label, absorb-then-squeeze), but the sponge is the
 * commitment hash itself (SHA-256) instead of a field-native MiMC:
 * the STARK channel must absorb Merkle roots, which are already
 * digests, and a digest-sized state also gives the proof-of-work
 * grind a natural target. The state chains as
 *
 *   state = SHA-256(state || tag || payload)
 *
 * with a one-byte tag per absorb/squeeze kind, so reordered
 * transcripts never collide. Challenges in the Goldilocks field are
 * drawn from the first 8 state bytes with the standard near-uniform
 * reduction (bias 2^-32, irrelevant at the 64-bit field's soundness
 * level); query indices take the next state word modulo the domain.
 *
 * Proof-of-work grinding: before query sampling the prover searches a
 * nonce such that SHA-256(state || nonce) has `grindBits` leading
 * zero bits, and the verifier re-checks it. The grind makes each
 * query-set retry cost the prover 2^grindBits hashes, adding that
 * many bits of soundness to the query phase (docs/STARK.md).
 */

#ifndef ZKP_STARK_CHANNEL_H
#define ZKP_STARK_CHANNEL_H

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "stark/hash.h"

namespace zkp::stark {

class Channel
{
  public:
    /** @param label domain-separation seed ("STARK" ^ per-use tag) */
    explicit Channel(u64 label)
    {
        state_.fill(0);
        absorbU64Tagged(kTagInit, label ^ 0x535441524bULL);
    }

    /** Absorb a Merkle root / arbitrary digest. */
    void
    absorbDigest(const Digest& d)
    {
        absorbTagged(kTagDigest, d.data(), d.size());
    }

    /** Absorb one field element (canonical 8-byte LE). */
    void
    absorbField(const Gl& v)
    {
        absorbU64Tagged(kTagField, v.value());
    }

    /** Absorb a raw integer (trace length, parameters, ...). */
    void
    absorbU64(u64 v)
    {
        absorbU64Tagged(kTagU64, v);
    }

    /** Squeeze a Goldilocks challenge (never zero). */
    Gl
    challenge()
    {
        absorbU64Tagged(kTagSqueeze, ++counter_);
        const Gl c = Gl::fromU64(stateWord(0));
        return c.isZero() ? Gl::one() : c;
    }

    /** Squeeze a query index in [0, domain). @pre domain > 0 */
    std::size_t
    queryIndex(std::size_t domain)
    {
        absorbU64Tagged(kTagSqueeze, ++counter_);
        return (std::size_t)(stateWord(0) % (u64)domain);
    }

    /**
     * Prover side of the grind: find the smallest nonce whose
     * PoW hash clears @p bits leading zero bits, then absorb it so
     * the query indices depend on it.
     */
    u64
    grind(unsigned bits)
    {
        u64 nonce = 0;
        while (!powOk(nonce, bits))
            ++nonce;
        absorbU64(nonce);
        return nonce;
    }

    /** Verifier side: check @p nonce clears @p bits, then absorb. */
    bool
    checkGrind(u64 nonce, unsigned bits)
    {
        if (!powOk(nonce, bits))
            return false;
        absorbU64(nonce);
        return true;
    }

  private:
    static constexpr std::uint8_t kTagInit = 0x01;
    static constexpr std::uint8_t kTagDigest = 0x02;
    static constexpr std::uint8_t kTagField = 0x03;
    static constexpr std::uint8_t kTagU64 = 0x04;
    static constexpr std::uint8_t kTagSqueeze = 0x05;
    static constexpr std::uint8_t kTagPow = 0x06;

    /** Largest payload: one digest. */
    static constexpr std::size_t kMaxPayload = sizeof(Digest);

    /** Canonical 8-byte LE encoding of @p v. */
    static std::array<std::uint8_t, 8>
    encodeU64(u64 v)
    {
        std::array<std::uint8_t, 8> b{};
        for (std::size_t i = 0; i < 8; ++i)
            b[i] = (std::uint8_t)(v >> (8 * i));
        return b;
    }

    /** SHA-256(state || tag || payload), built on the stack. */
    Digest
    taggedHash(std::uint8_t tag, const std::uint8_t* payload,
               std::size_t n) const
    {
        assert(n <= kMaxPayload);
        std::array<std::uint8_t, sizeof(Digest) + 1 + kMaxPayload> buf{};
        std::memcpy(buf.data(), state_.data(), state_.size());
        buf[state_.size()] = tag;
        std::memcpy(buf.data() + state_.size() + 1, payload, n);
        return hashBytes(buf.data(), state_.size() + 1 + n);
    }

    void
    absorbTagged(std::uint8_t tag, const std::uint8_t* payload,
                 std::size_t n)
    {
        state_ = taggedHash(tag, payload, n);
    }

    void
    absorbU64Tagged(std::uint8_t tag, u64 v)
    {
        const auto b = encodeU64(v);
        absorbTagged(tag, b.data(), b.size());
    }

    /** Big-endian state word @p i (i < 4). */
    u64
    stateWord(std::size_t i) const
    {
        u64 v = 0;
        for (std::size_t b = 0; b < 8; ++b)
            v = (v << 8) | state_[8 * i + b];
        return v;
    }

    /** Does SHA-256(state || tag || nonce) clear @p bits zeros? */
    bool
    powOk(u64 nonce, unsigned bits) const
    {
        const auto nb = encodeU64(nonce);
        const Digest h = taggedHash(kTagPow, nb.data(), nb.size());
        u64 lead = 0;
        for (std::size_t b = 0; b < 8; ++b)
            lead = (lead << 8) | h[b];
        return bits == 0 || (lead >> (64 - bits)) == 0;
    }

    Digest state_;
    u64 counter_ = 0;
};

} // namespace zkp::stark

#endif // ZKP_STARK_CHANNEL_H
