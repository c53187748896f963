/**
 * @file
 * The circuit zoo: a named catalog of realistic benchmark circuits
 * (name -> builder + witness sampler + constraint-count model).
 *
 * Every entry builds deterministically from a scale parameter, and
 * its sampler produces matching (public, private) input vectors from
 * a seeded Rng using the gadget's native reference implementation.
 * The predicted constraint count is an exact closed-form model —
 * tests assert it against the built circuit so a silent gadget
 * regression (an extra constraint per round, a lost booleanity
 * check) fails loudly.
 *
 * Consumers: bench_paper's zoo and footprint artifacts (Groth16/PlonK
 * pipeline sweeps), profile_pipeline --circuit, zkperfd's zoo-keyed
 * circuit hosts, and the property suites.
 */

#ifndef ZKP_R1CS_ZOO_H
#define ZKP_R1CS_ZOO_H

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "r1cs/circuits.h"

namespace zkp::r1cs::zoo {

/** Sampled circuit inputs (a satisfying statement + witness). */
template <typename Fr>
struct Witness
{
    std::vector<Fr> pub, priv;
};

template <typename Fr>
struct Entry
{
    std::string name;
    std::string family;      ///< arith | hash | membership | signature
    std::string description;
    std::string scaleMeaning; ///< what the scale parameter counts
    std::size_t defaultScale;
    std::function<CircuitBuilder<Fr>(std::size_t scale)> build;
    std::function<Witness<Fr>(std::size_t scale, Rng& rng)> sample;
    std::function<std::size_t(std::size_t scale)> predictedConstraints;
};

namespace detail {

template <typename Fr>
std::vector<Entry<Fr>>
makeEntries()
{
    using LC = LinearCombination<Fr>;
    std::vector<Entry<Fr>> out;

    out.push_back(
        {"exp", "arith",
         "the paper's x^e = y exponentiation chain (baseline)",
         "exponent e (= constraint count)", 4096,
         [](std::size_t scale) {
             return std::move(ExponentiationCircuit<Fr>(scale).builder);
         },
         [](std::size_t scale, Rng& rng) {
             Fr x = Fr::random(rng);
             Witness<Fr> w;
             w.pub = {x.pow(BigInt<1>((u64)scale))};
             w.priv = {x};
             return w;
         },
         [](std::size_t scale) { return scale; }});

    out.push_back(
        {"mimc", "hash",
         "chained MiMC7 2-to-1 compressions (field-native hash)",
         "number of chained compressions", 8,
         [](std::size_t scale) {
             CircuitBuilder<Fr> b;
             auto digest = b.publicInput();
             std::vector<LC> in;
             for (std::size_t i = 0; i < 2 * scale; ++i)
                 in.push_back(b.privateInput());
             LC h;
             for (std::size_t i = 0; i < scale; ++i)
                 h = Mimc<Fr>::hash2Gadget(b, h + in[2 * i],
                                           in[2 * i + 1]);
             b.assertEqual(h, digest);
             return b;
         },
         [](std::size_t scale, Rng& rng) {
             Witness<Fr> w;
             Fr h = Fr::zero();
             for (std::size_t i = 0; i < scale; ++i) {
                 Fr a = Fr::random(rng), c = Fr::random(rng);
                 w.priv.push_back(a);
                 w.priv.push_back(c);
                 h = Mimc<Fr>::hash2(h + a, c);
             }
             w.pub = {h};
             return w;
         },
         [](std::size_t scale) {
             return 4 * Mimc<Fr>::kRounds * scale + 1;
         }});

    out.push_back(
        {"poseidon", "hash",
         "chained Poseidon t=3 alpha=5 permutations (ZK-friendly hash)",
         "number of chained permutations", 16,
         [](std::size_t scale) {
             return std::move(
                 gadgets::PoseidonCircuit<Fr>(scale).builder);
         },
         [](std::size_t scale, Rng& rng) {
             Witness<Fr> w;
             for (std::size_t i = 0; i < 2 * scale; ++i)
                 w.priv.push_back(Fr::random(rng));
             w.pub = {gadgets::PoseidonCircuit<Fr>::digest(w.priv)};
             return w;
         },
         [](std::size_t scale) {
             return Poseidon<Fr>::kConstraintsPerPermutation * scale + 1;
         }});

    out.push_back(
        {"sha256", "hash",
         "SHA-256 compression over raw 512-bit blocks (boolean-heavy)",
         "number of message blocks", 1,
         [](std::size_t scale) {
             return std::move(
                 gadgets::Sha256Circuit<Fr>(scale).builder);
         },
         [](std::size_t scale, Rng& rng) {
             std::vector<Sha256::Block> blocks(scale);
             for (auto& blk : blocks)
                 for (auto& word : blk)
                     word = (Sha256::u32)rng.next();
             Witness<Fr> w;
             w.pub = gadgets::Sha256Circuit<Fr>::publicInputs(blocks);
             w.priv = gadgets::Sha256Circuit<Fr>::privateInputs(blocks);
             return w;
         },
         [](std::size_t scale) {
             return gadgets::Sha256Circuit<Fr>::kConstraintsPerBlock *
                        scale +
                    8;
         }});

    out.push_back(
        {"merkle", "membership",
         "Merkle-path membership over MiMC compression",
         "tree depth", 16,
         [](std::size_t scale) {
             return std::move(
                 gadgets::MerkleCircuit<Fr>(scale).builder);
         },
         [](std::size_t scale, Rng& rng) {
             Fr leaf = Fr::random(rng);
             std::vector<Fr> siblings;
             std::vector<bool> dirs;
             for (std::size_t i = 0; i < scale; ++i) {
                 siblings.push_back(Fr::random(rng));
                 dirs.push_back(rng.nextBool());
             }
             Witness<Fr> w;
             w.pub = {gadgets::MerkleCircuit<Fr>::computeRoot(
                 leaf, siblings, dirs)};
             w.priv = gadgets::MerkleCircuit<Fr>::privateInputs(
                 leaf, siblings, dirs);
             return w;
         },
         [](std::size_t scale) {
             return (4 * Mimc<Fr>::kRounds + 2) * scale + 1;
         }});

    out.push_back(
        {"range", "arith",
         "x < 2^bits range proof under a MiMC commitment",
         "range width in bits", 64,
         [](std::size_t scale) {
             return std::move(
                 gadgets::RangeCircuit<Fr>((unsigned)scale).builder);
         },
         [](std::size_t scale, Rng& rng) {
             // Random x < 2^bits from masked random words.
             auto v = rng.nextBigInt<Fr::N>();
             for (std::size_t i = 0; i < Fr::N; ++i) {
                 if (64 * (i + 1) <= scale)
                     continue;
                 if (64 * i >= scale)
                     v.limbs[i] = 0;
                 else
                     v.limbs[i] &= (1ull << (scale - 64 * i)) - 1;
             }
             Fr x = Fr::fromBigInt(v);
             Witness<Fr> w;
             w.pub = {gadgets::RangeCircuit<Fr>::commitment(x)};
             w.priv = {x};
             return w;
         },
         [](std::size_t scale) {
             return scale + 1 + 4 * Mimc<Fr>::kRounds + 1;
         }});

    out.push_back(
        {"schnorr", "signature",
         "Schnorr verification over the embedded Edwards curve",
         "number of signatures", 1,
         [](std::size_t scale) {
             return std::move(
                 gadgets::SchnorrCircuit<Fr>(scale).builder);
         },
         [](std::size_t scale, Rng& rng) {
             auto inst =
                 gadgets::SchnorrCircuit<Fr>::sample(scale, rng);
             Witness<Fr> w;
             w.pub = std::move(inst.pub);
             w.priv = std::move(inst.priv);
             return w;
         },
         [](std::size_t scale) {
             return gadgets::SchnorrCircuit<Fr>::
                        constraintsPerSignature() *
                    scale;
         }});

    return out;
}

} // namespace detail

/** The catalog (construction is deferred and cached per field). */
template <typename Fr>
const std::vector<Entry<Fr>>&
all()
{
    static const std::vector<Entry<Fr>> entries =
        detail::makeEntries<Fr>();
    return entries;
}

/** Look up an entry by name; nullptr when absent. */
template <typename Fr>
const Entry<Fr>*
find(std::string_view name)
{
    for (const auto& e : all<Fr>())
        if (e.name == name)
            return &e;
    return nullptr;
}

/** Catalog names, in registration order. */
template <typename Fr>
std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const auto& e : all<Fr>())
        out.push_back(e.name);
    return out;
}

} // namespace zkp::r1cs::zoo

#endif // ZKP_R1CS_ZOO_H
